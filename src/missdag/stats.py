"""Small shared statistics helpers (G-test of independence)."""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.special import chdtrc

from .data import family_counts


def g_test(a: np.ndarray, b: np.ndarray, a_card: int, b_card: int) -> Tuple[float, int, float]:
    """Likelihood-ratio (G) test of a _||_ b.

    Returns (G, degrees of freedom, p-value). Degrees of freedom use the
    full table dimensions, which is conservative for sparse tables.
    """
    tab = family_counts(np.column_stack([a, b]), (0, 1), (a_card, b_card))
    g_stat = 0.0
    tot = tab.sum()
    if tot > 0:
        expected = np.outer(tab.sum(axis=1), tab.sum(axis=0)) / tot
        nz = tab > 0
        g_stat += 2.0 * float(np.sum(tab[nz] * np.log(tab[nz] / expected[nz])))
    df = (a_card - 1) * (b_card - 1)
    pvalue = float(chdtrc(df, g_stat)) if df > 0 else 1.0
    return g_stat, df, pvalue
