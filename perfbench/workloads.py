"""The benchmark's workloads: seeded inputs, the timed call, output checks.

Each workload turns a master seed into a sequence of inputs, one per timed
call. Call ``i`` uses the sub-seed ``seed + 1000 * i``, so call 0 of the
default seed 11 is exactly the criterion-5 shape at seed 11, and the calls of
two master seeds below 1000 never share an input. Only the split, the
amputation and the bootstrap streams follow the sub-seed; the ec-demo sample
itself is the fixed ``ec_demo_dataset(763, 763)``, as in criterion 5.

Importing this module imports ``missdag``; the worker puts the checkout's
``src`` first on ``sys.path`` before it does.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from missdag import KnowledgeBase, ampute, bootstrap_sem, ecdemo, evaluate, split
from missdag import cli
from missdag.data import AmputationEntry, AmputationSpec, logit
from missdag.discovery import ALGORITHMS

MAX_CALLS = 24
LL_RTOL = 1e-9  # the ROADMAP's EM tolerance, used against stored references
SURVIVAL_CHAIN = (("Survival1yr", "Survival3yr"), ("Survival3yr", "Survival5yr"))
HEAVY_MCAR = ("ER", "PR", "Imaging", "LVSI", "Platelets", "CervicalCytology")


def sub_seed(seed: int, i: int) -> int:
    return seed + 1000 * i


def input_shape(d) -> dict:
    """n, p, missing-cell fraction, missingness patterns and the size of the
    exact-enumeration completion block relative to n."""
    cards = np.array([v.cardinality for v in d.schema])
    completions = np.prod(np.where(d.mask, cards, 1), axis=1)
    return {"n": d.n, "p": d.p,
            "missing_fraction": round(float(d.mask.mean()), 6),
            "patterns": int(np.unique(d.mask, axis=0).shape[0]),
            "block_ratio": round(float(completions.sum() / d.n), 4)}


# --- output checks shared by the workloads ---


def _finite_negative(values, what, problems):
    bad = [v for v in values if not (math.isfinite(v) and v < 0.0)]
    if bad:
        problems.append(f"{what}: {len(bad)} log-likelihoods not finite and negative")


def check_report(report, algorithms, B, n_train, n_test) -> list:
    """Invariants of an ``evaluate()`` report, recomputed independently."""
    problems = []
    if report["algorithms"] != list(algorithms) or report["B"] != B:
        problems.append("report names the wrong algorithms or B")
    if (report["n_train"], report["n_test"]) != (n_train, n_test):
        problems.append(f"report sizes {report['n_train']}/{report['n_test']}, "
                        f"expected {n_train}/{n_test}")
    reps = report["replicates"]
    want = [(a, b) for a in algorithms for b in range(B)]
    if [(r["algorithm"], r["replicate"]) for r in reps] != want:
        problems.append("replicates missing, duplicated or out of order")
        return problems
    for key, n in (("ll_in", n_train), ("ll_out", n_test)):
        raw = [r[key] for r in reps]
        _finite_negative(raw, key, problems)
        if problems:
            return problems
        top = max(abs(v / n) for v in raw)
        if not all(math.isclose(r[key + "_rescaled"], r[key] / n / top, rel_tol=1e-12)
                   for r in reps):
            problems.append(f"{key}_rescaled is not ll / n / max|ll / n|")
    for a in algorithms:
        rows = [r for r in reps if r["algorithm"] == a]
        for key in ("ll_in", "ll_out", "ll_in_rescaled", "ll_out_rescaled"):
            mean = sum(r[key] for r in rows) / len(rows)
            if not math.isclose(report["summary"][a][key + "_mean"], mean,
                                rel_tol=1e-12, abs_tol=1e-12):
                problems.append(f"summary {a} {key}_mean is not the replicate mean")
    return problems


def report_digest(report) -> dict:
    """What a reference pins down: per-replicate log-likelihoods and the
    out-of-sample ordering of the algorithms (best first)."""
    ll = {}
    for r in report["replicates"]:
        ll.setdefault(r["algorithm"], []).append([r["ll_in"], r["ll_out"]])
    summary = report["summary"]
    order = sorted(summary, key=lambda a: -summary[a]["ll_out_rescaled_mean"])
    return {"ll": ll, "order": order}


def _is_acyclic(vertices, edges) -> bool:
    indeg = {v: 0 for v in vertices}
    children = {v: [] for v in vertices}
    for p, c in edges:
        indeg[c] += 1
        children[p].append(c)
    ready = [v for v, k in indeg.items() if k == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for c in children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
    return seen == len(indeg)


def _close(a, b) -> bool:
    """Structural equality, floats within LL_RTOL relative."""
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and math.isclose(a, b, rel_tol=LL_RTOL, abs_tol=0.0))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return a == b


def compare_to_reference(digest, ref) -> list:
    return [] if _close(digest, ref) else ["output differs from the stored reference"]


# --- workloads ---


class EvaluateMnar:
    """The paper's experiment: ``evaluate()`` of the three algorithms under
    MNAR amputation of ec-demo, on the process pool."""

    name = "evaluate-mnar"
    threads = 2

    def __init__(self, scale: str):
        self.B = 5 if scale == "full" else 1

    def setup(self, seed: int, workdir: Path) -> dict:
        d = ecdemo.ec_demo_dataset(763, 763)
        inputs = []
        for i in range(MAX_CALLS):
            s = sub_seed(seed, i)
            train, test = split(d, 0.2, s)
            inputs.append((s, ampute(train, ecdemo.ec_mnar_amputation(s)), test))
        kb = KnowledgeBase.from_json(ecdemo.ec_knowledge_json())
        return {"kb": kb, "inputs": inputs}

    def shape(self, state) -> dict:
        return input_shape(state["inputs"][0][1])

    def replicates(self) -> int:
        return len(ALGORITHMS) * self.B

    def call(self, state, i: int, threads: int):
        s, train, test = state["inputs"][i]
        return evaluate(list(ALGORITHMS), train, state["kb"], B=self.B, seed=s,
                        threads=threads, test=test, score_pseudocount=10.0)

    def check(self, state, i: int, report):
        _, train, test = state["inputs"][i]
        problems = check_report(report, ALGORITHMS, self.B, train.n, test.n)
        return (None if problems else report_digest(report)), problems


class SemHeavyMissing:
    """``bootstrap_sem`` on one process with 12% of cells missing.

    EM runs a fixed budget (one structure step, ten iterations per fit, no
    early stop) so that every replicate does the same number of E-steps:
    with the CLI's convergence test the E-step count, and with it the time
    of a replicate, varies 3x between bootstrap resamples.
    """

    name = "sem-heavy-missing"
    threads = 1

    def __init__(self, scale: str):
        full = scale == "full"
        self.B = 2 if full else 1
        self.options = {"max_outer": 1, "em_max_iter": 10 if full else 2,
                        "em_tol": 0.0, "pseudocount": 1.0}

    def setup(self, seed: int, workdir: Path) -> dict:
        d = ecdemo.ec_demo_dataset(763, 763)
        mnar = ecdemo.ec_mnar_amputation().entries
        mcar = tuple(AmputationEntry(v, "MCAR", (), logit(0.25)) for v in HEAVY_MCAR)
        inputs = [(s, ampute(d, AmputationSpec(mnar + mcar, s)))
                  for s in (sub_seed(seed, i) for i in range(MAX_CALLS))]
        kb = KnowledgeBase.from_json(ecdemo.ec_knowledge_json())
        return {"kb": kb, "inputs": inputs}

    def shape(self, state) -> dict:
        return input_shape(state["inputs"][0][1])

    def replicates(self) -> int:
        return self.B

    def call(self, state, i: int, threads: int):
        s, d = state["inputs"][i]
        return bootstrap_sem(d, state["kb"], B=self.B, seed=s, threads=threads,
                             **self.options)

    def check(self, state, i: int, result):
        consensus, summary = result
        d = state["inputs"][i][1]
        problems = []
        edges = sorted(consensus.edges)
        if not _is_acyclic(d.names, edges):
            problems.append("consensus graph has a cycle")
        if not set(SURVIVAL_CHAIN) <= set(edges):
            problems.append("consensus graph lacks a required edge")
        freq = summary.edge_frequency
        if any(not math.isclose(f * self.B, round(f * self.B)) or not 0 < f <= 1
               for f in freq.values()):
            problems.append("edge frequencies are not counts out of B")
        if any(freq.get(e, 0.0) < 0.5 and e not in SURVIVAL_CHAIN for e in edges):
            problems.append("consensus holds an edge below the 0.5 threshold")
        ll = [[a.log_likelihood, b.log_likelihood]
              for a, b in zip(summary.in_sample, summary.out_of_sample)]
        if len(ll) != self.B:
            problems.append(f"{len(ll)} replicates, expected {self.B}")
        _finite_negative([v for pair in ll for v in pair], "replicate", problems)
        digest = {"edges": [list(e) for e in edges], "ll": ll}
        return (None if problems else digest), problems


class HcWideCsv:
    """``missdag evaluate`` through ``cli.main`` on a complete, wide CSV:
    hill climbing with p=50 and no E-step at all."""

    name = "hc-wide-csv"
    threads = 1

    def __init__(self, scale: str):
        full = scale == "full"
        self.p, self.n, self.B = (50, 5000, 3) if full else (8, 300, 1)

    def setup(self, seed: int, workdir: Path) -> dict:
        data = workdir / "wide.csv"
        write_wide_csv(data, self.p, self.n, seed)
        config = workdir / "config.json"
        config.write_text(json.dumps({"dataset": str(data),
                                      "algorithms": ["hc-complete"], "B": self.B}))
        return {"seed": seed, "config": config, "out": workdir / "out",
                "n": self.n, "p": self.p}

    def shape(self, state) -> dict:
        return {"n": self.n, "p": self.p, "missing_fraction": 0.0,
                "patterns": 1, "block_ratio": 1.0}

    def replicates(self) -> int:
        return self.B

    def call(self, state, i: int, threads: int):
        # cli.main is looked up on each call so that the traced run's
        # wrapper is the one called
        return cli.main(["evaluate", "--config", str(state["config"]),
                         "--seed", str(sub_seed(state["seed"], i)),
                         "--out", str(state["out"]), "--threads", str(threads)])

    def check(self, state, i: int, code):
        if code != 0:
            return None, [f"missdag evaluate exited with {code}"]
        report = json.loads((state["out"] / "report.json").read_text())
        n_test = int(math.floor(state["n"] * 0.2))
        problems = check_report(report, ["hc-complete"], self.B,
                                state["n"] - n_test, n_test)
        with open(state["out"] / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if [(r["algorithm"], int(r["replicate"]), float(r["ll_in"]), float(r["ll_out"]))
                for r in rows] != [(r["algorithm"], r["replicate"], r["ll_in"], r["ll_out"])
                                   for r in report["replicates"]]:
            problems.append("report.csv and report.json disagree")
        return (None if problems else report_digest(report)), problems


def write_wide_csv(path: Path, p: int, n: int, seed: int) -> None:
    """A complete categorical sample of a binary-tree network.

    Vertex v > 0 has the single parent (v - 1) // 2 and cardinality
    2 + v % 3. Each CPT row puts 0.7 on one state, and consecutive parent
    states favour consecutive child states, so every edge is detectable.
    The seed draws the offset of the favoured states, the sample and the
    column order, so all seeds give the search about the same work.
    """
    rng = np.random.default_rng(seed)
    cards = 2 + np.arange(p) % 3
    rows = np.zeros((n, p), dtype=np.int64)
    for v in range(p):
        cfg = rows[:, (v - 1) // 2] if v else np.zeros(n, dtype=np.int64)
        ncfg, k = (int(cards[(v - 1) // 2]) if v else 1), int(cards[v])
        table = np.full((ncfg, k), 0.3 / (k - 1))
        table[np.arange(ncfg), (np.arange(ncfg) + rng.integers(0, k)) % k] = 0.7
        cum = np.cumsum(table[cfg], axis=1)
        rows[:, v] = np.minimum((cum < rng.random(n)[:, None]).sum(axis=1), k - 1)
    order = rng.permutation(p)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"V{j:02d}" for j in order])
        writer.writerows([f"s{x}" for x in row] for row in rows[:, order])


WORKLOADS = {w.name: w for w in (EvaluateMnar, SemHeavyMissing, HcWideCsv)}
