"""Bundled synthetic endometrial-cancer demo model.

The real multicentric patient data is private, so experiments run against a
hand-written ground-truth network over the same 19 clinical variables
(10-hospital context variable included), plus two illustrative 20-vertex
graph encodings ("ec-mnar", "ec-mar") used for d-separation queries. The
encodings are constrained by the documented independence statements, not by
any published edge list.

Each part is a JSON document in ``demo/``, read by the reader a user's file
of that kind goes through:

- ``ground-truth.json``, a ``--params`` document: the CPTs, their parents
  (the graph's only edge list) and state labels, variables in vertex order;
- ``ec-mnar.json`` and ``ec-mar.json``, graph files;
- ``mnar-spec.json``, an amputation spec (``ec_mnar_amputation``);
- ``knowledge.json``, the required survival chain.

How the CPTs were derived (a binary table holds 1 - p, p for P(yes) = p,
computed in float64, so a row may read 0.44999999999999996 for 1 - .55):

- Hospital has its own marginal. Three practice profiles are cycled over the
  ten hospitals, hospital i taking profile i mod 3: PreoperativeGrade
  (.55 .30 .15 / .45 .35 .20 / .35 .40 .25), Chemotherapy .15/.25/.30 and
  Radiotherapy .40/.30/.50.
- P(LNM) = clip(.08/.18/.32 by postoperative grade + .18 LVSI - .06 chemo,
  .02, .95).
- P(Recurrence) = .06/.12/.22 by postoperative grade + .25 LNM.
- P(Survival1yr) = .95 - .25 Recurrence - .15 LNM.
- Every other table is one hand-set row per parent state.

Both encodings add a vertex MyometrialInvasion and its edge into
Radiotherapy to the ground truth. "ec-mnar", the MNAR-recovered graph,
drops Hospital -> Radiotherapy, so radiotherapy depends on myometrial
invasion only and the biomarkers stay effects of LNM. "ec-mar", the
MAR-recovered graph, hangs CA125, p53 and L1CAM off PostoperativeGrade in
place of LNM, and adds a spurious Radiotherapy -> LNM.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Tuple

from .data import AmputationSpec, CategoricalDataset, forward_sample
from .estimation import ParameterSet
from .graphs import Dag

DEMO = Path(__file__).with_name("demo")

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

BUILTIN_GRAPHS: Dict[str, Path] = {name: DEMO / f"{name}.json" for name in ("ec-mnar", "ec-mar")}


def _text(name: str) -> str:
    return (DEMO / name).read_text(encoding="utf-8")


def ec_knowledge_json() -> str:
    return _text("knowledge.json")


def ec_ground_truth() -> Tuple[Dag, ParameterSet]:
    params = ParameterSet.from_json(_text("ground-truth.json"))
    g = Dag(list(params.variables),
            [(p, v) for v in params.variables for p in params.parents(v)])
    return g, params


def ec_demo_dataset(n: int = 763, seed: int = 763) -> CategoricalDataset:
    g, params = ec_ground_truth()
    return forward_sample(g, params, n, seed)


def ec_mnar_amputation(seed: int = 0) -> AmputationSpec:
    """Benchmark missingness: CA125 is self-masked, and the missingness of
    p53, L1CAM and Recurrence is driven by another biomarker that is itself
    partially observed — a chain no fully-observed stratification can
    explain away, so the mechanism is genuinely MNAR."""
    return AmputationSpec(AmputationSpec.from_json(_text("mnar-spec.json")).entries, seed)
