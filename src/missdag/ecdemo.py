"""Bundled synthetic endometrial-cancer demo model.

The real multicentric patient data is private, so experiments run against a
hand-written ground-truth network over the same 19 clinical variables
(10-hospital context variable included), plus two illustrative 20-vertex
graph encodings ("ec-mnar", "ec-mar") used for d-separation queries. The
encodings are constrained by the documented independence statements, not by
any published edge list.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Tuple

import numpy as np

from .data import (
    AmputationEntry,
    AmputationSpec,
    CategoricalDataset,
    forward_sample,
)
from .estimation import ParameterSet
from .graphs import Dag

EC_VARIABLES: List[Tuple[str, Tuple[str, ...]]] = [
    ("CervicalCytology", ("normal", "abnormal")),
    ("PreoperativeGrade", ("grade1", "grade2", "grade3")),
    ("PostoperativeGrade", ("grade1", "grade2", "grade3")),
    ("Chemotherapy", ("no", "yes")),
    ("Radiotherapy", ("no", "yes")),
    ("LVSI", ("no", "yes")),
    ("ER", ("negative", "positive")),
    ("PR", ("negative", "positive")),
    ("Imaging", ("negative", "positive")),
    ("CA125", ("normal", "elevated")),
    ("L1CAM", ("negative", "positive")),
    ("p53", ("wildtype", "overexpressed")),
    ("Platelets", ("normal", "elevated")),
    ("LNM", ("no", "yes")),
    ("Recurrence", ("no", "yes")),
    ("Survival1yr", ("no", "yes")),
    ("Survival3yr", ("no", "yes")),
    ("Survival5yr", ("no", "yes")),
    ("Hospital", tuple(f"h{i:02d}" for i in range(1, 11))),
]

EC_ROLES: Dict[str, str] = {
    "Chemotherapy": "treatment",
    "Radiotherapy": "treatment",
    "Recurrence": "outcome",
    "Survival1yr": "outcome",
    "Survival3yr": "outcome",
    "Survival5yr": "outcome",
    "LNM": "event",
    "ER": "biomarker",
    "PR": "biomarker",
    "CA125": "biomarker",
    "L1CAM": "biomarker",
    "p53": "biomarker",
    "Platelets": "biomarker",
    "Hospital": "context",
}

GROUND_TRUTH_EDGES: List[Tuple[str, str]] = [
    ("Hospital", "PreoperativeGrade"),
    ("Hospital", "Chemotherapy"),
    ("Hospital", "Radiotherapy"),
    ("PreoperativeGrade", "PostoperativeGrade"),
    ("PreoperativeGrade", "CervicalCytology"),
    ("PostoperativeGrade", "LVSI"),
    ("PostoperativeGrade", "ER"),
    ("ER", "PR"),
    ("PostoperativeGrade", "LNM"),
    ("LVSI", "LNM"),
    ("Chemotherapy", "LNM"),
    ("LNM", "Imaging"),
    ("LNM", "CA125"),
    ("LNM", "p53"),
    ("LNM", "L1CAM"),
    ("CA125", "Platelets"),
    ("LNM", "Recurrence"),
    ("PostoperativeGrade", "Recurrence"),
    ("Recurrence", "Survival1yr"),
    ("LNM", "Survival1yr"),
    ("Survival1yr", "Survival3yr"),
    ("Survival3yr", "Survival5yr"),
]


def ec_knowledge_json() -> str:
    return (
        '{\n  "forbidden": [],\n  "required": '
        '[["Survival1yr", "Survival3yr"], ["Survival3yr", "Survival5yr"]]\n}\n'
    )


def _binary_rows(probs_yes):
    return [[1.0 - p, p] for p in probs_yes]


def ec_ground_truth() -> Tuple[Dag, ParameterSet]:
    names = [name for name, _ in EC_VARIABLES]
    g = Dag(names, GROUND_TRUTH_EDGES)
    states = {name: st for name, st in EC_VARIABLES}

    # cycle three practice profiles over the ten hospitals
    grade_profiles = [[0.55, 0.30, 0.15], [0.45, 0.35, 0.20], [0.35, 0.40, 0.25]]
    chemo_profiles = [0.15, 0.25, 0.30]
    radio_profiles = [0.40, 0.30, 0.50]

    lnm_rows = []
    for g_, l, c in product(range(3), range(2), range(2)):
        p = [0.08, 0.18, 0.32][g_] + 0.18 * l - 0.06 * c
        lnm_rows.append(min(max(p, 0.02), 0.95))
    rec_rows = []
    for g_, m in product(range(3), range(2)):
        rec_rows.append([0.06, 0.12, 0.22][g_] + 0.25 * m)
    surv1_rows = []
    for r, m in product(range(2), range(2)):
        surv1_rows.append(0.95 - 0.25 * r - 0.15 * m)

    variables = {
        "Hospital": ((), [[0.14, 0.12, 0.12, 0.11, 0.10,
                           0.10, 0.09, 0.08, 0.07, 0.07]]),
        "PreoperativeGrade": (("Hospital",),
                              [grade_profiles[i % 3] for i in range(10)]),
        "CervicalCytology": (("PreoperativeGrade",),
                             [[0.90, 0.10], [0.80, 0.20], [0.65, 0.35]]),
        "PostoperativeGrade": (("PreoperativeGrade",),
                               [[0.75, 0.20, 0.05],
                                [0.20, 0.60, 0.20],
                                [0.05, 0.25, 0.70]]),
        "Chemotherapy": (("Hospital",),
                         _binary_rows([chemo_profiles[i % 3] for i in range(10)])),
        "Radiotherapy": (("Hospital",),
                         _binary_rows([radio_profiles[i % 3] for i in range(10)])),
        "LVSI": (("PostoperativeGrade",),
                 _binary_rows([0.15, 0.30, 0.55])),
        "ER": (("PostoperativeGrade",),
               _binary_rows([0.75, 0.60, 0.40])),
        "PR": (("ER",), _binary_rows([0.20, 0.75])),
        "LNM": (("PostoperativeGrade", "LVSI", "Chemotherapy"),
                _binary_rows(lnm_rows)),
        "Imaging": (("LNM",), _binary_rows([0.12, 0.70])),
        "CA125": (("LNM",), _binary_rows([0.15, 0.75])),
        "p53": (("LNM",), _binary_rows([0.20, 0.70])),
        "L1CAM": (("LNM",), _binary_rows([0.15, 0.65])),
        "Platelets": (("CA125",), _binary_rows([0.20, 0.55])),
        "Recurrence": (("PostoperativeGrade", "LNM"),
                       _binary_rows(rec_rows)),
        "Survival1yr": (("Recurrence", "LNM"), _binary_rows(surv1_rows)),
        "Survival3yr": (("Survival1yr",), _binary_rows([0.02, 0.80])),
        "Survival5yr": (("Survival3yr",), _binary_rows([0.02, 0.70])),
    }
    params = ParameterSet(
        {v: (ps, np.asarray(t, dtype=float)) for v, (ps, t) in variables.items()},
        states)
    return g, params


def ec_demo_dataset(n: int = 763, seed: int = 763) -> CategoricalDataset:
    g, params = ec_ground_truth()
    return forward_sample(g, params, n, seed)


def ec_mnar_amputation(seed: int = 0) -> AmputationSpec:
    """Benchmark missingness: CA125 is self-masked, and the missingness of
    p53, L1CAM and Recurrence is driven by another biomarker that is itself
    partially observed — a chain no fully-observed stratification can
    explain away, so the mechanism is genuinely MNAR."""
    entries = (
        AmputationEntry("CA125", "MNAR", ("CA125",), -2.0,
                        {"CA125": {"elevated": 1.8}}),
        AmputationEntry("p53", "MNAR", ("CA125",), -2.0,
                        {"CA125": {"elevated": 1.5}}),
        AmputationEntry("L1CAM", "MNAR", ("p53",), -2.0,
                        {"p53": {"overexpressed": 1.5}}),
        AmputationEntry("Recurrence", "MNAR", ("p53",), -2.2,
                        {"p53": {"overexpressed": 1.6}}),
    )
    return AmputationSpec(entries, seed)


def _with_myometrial_invasion(edges, drop=(), add=()):
    names = [name for name, _ in EC_VARIABLES] + ["MyometrialInvasion"]
    out = [e for e in edges if e not in set(drop)] + list(add)
    return Dag(names, out)


def ec_mnar_graph() -> Dag:
    """Illustrative encoding of the MNAR-recovered graph: biomarkers are
    effects of LNM; radiotherapy depends on myometrial invasion only."""
    return _with_myometrial_invasion(
        GROUND_TRUTH_EDGES,
        drop=[("Hospital", "Radiotherapy")],
        add=[("MyometrialInvasion", "Radiotherapy")],
    )


def ec_mar_graph() -> Dag:
    """Illustrative encoding of the MAR-recovered graph: biomarkers hang off
    the postoperative grade and radiotherapy picks up a spurious edge into
    LNM."""
    drop = [
        ("LNM", "CA125"),
        ("LNM", "p53"),
        ("LNM", "L1CAM"),
    ]
    add = [
        ("PostoperativeGrade", "CA125"),
        ("PostoperativeGrade", "p53"),
        ("PostoperativeGrade", "L1CAM"),
        ("Radiotherapy", "LNM"),
        ("MyometrialInvasion", "Radiotherapy"),
    ]
    return _with_myometrial_invasion(GROUND_TRUTH_EDGES, drop=drop, add=add)


BUILTIN_GRAPHS = {
    "ec-mnar": ec_mnar_graph,
    "ec-mar": ec_mar_graph,
}
