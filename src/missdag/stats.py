"""Small shared statistics helpers (G-test of (conditional) independence)."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy.special import chdtrc

from .data import family_counts


def g_test(a: np.ndarray, b: np.ndarray, a_card: int, b_card: int,
           cond: Optional[np.ndarray] = None, cond_card: int = 1) -> Tuple[float, int, float]:
    """Likelihood-ratio (G) test of a _||_ b given cond.

    Returns (G, degrees of freedom, p-value). Degrees of freedom use the
    full table dimensions, which is conservative for sparse strata.
    """
    if cond is None:
        cond, cond_card = np.zeros(len(a), dtype=np.int64), 1
    table = np.column_stack([cond, a, b])
    counts = family_counts(table, (0, 1, 2), (cond_card, a_card, b_card))
    counts = counts.reshape(cond_card, a_card, b_card)
    g_stat = 0.0
    for s in range(cond_card):
        tab = counts[s]
        tot = tab.sum()
        if tot == 0:
            continue
        expected = np.outer(tab.sum(axis=1), tab.sum(axis=0)) / tot
        nz = tab > 0
        g_stat += 2.0 * float(np.sum(tab[nz] * np.log(tab[nz] / expected[nz])))
    df = (a_card - 1) * (b_card - 1) * cond_card
    pvalue = float(chdtrc(df, g_stat)) if df > 0 else 1.0
    return g_stat, df, pvalue
