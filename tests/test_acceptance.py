"""Acceptance suite: one test per release criterion, oracle-checked.

Each test asserts the criterion at its stated tolerance and registers a
PASS line (printed in the terminal summary) with the measured numbers.
"""

import itertools
import json
import time

import numpy as np
import pytest

from missdag import ecdemo
from missdag.cli import main
from missdag.data import (
    MISSING,
    AmputationEntry,
    AmputationSpec,
    CategoricalDataset,
    ampute,
    forward_sample,
    logit,
    split,
)
from missdag.discovery import (
    ALGORITHMS,
    SEARCHES,
    KnowledgeBase,
    SearchOptions,
    evaluate,
    hill_climb,
)
from missdag.estimation import BicScorer, ParameterSet, em_fit, log_likelihood
from missdag.graphs import (
    Dag,
    MechanismClass,
    classify_mechanism,
    d_separated,
    implied_mgraph,
)
from missdag.stats import g_test

from conftest import record_criterion
from oracles import (
    all_dags,
    amputation_spec_json,
    best_score_exhaustive,
    conditional_g_test,
    dsep_by_path_enumeration,
    joint_log_likelihood,
    legal_moves,
    min_marginal_edge_tv,
    random_dag,
    random_params,
)

THREADS = 8
MASTER_SEEDS = range(11, 21)

# graphs produced by the search runs of criteria 4-5, re-checked by criterion 6
DISCOVERY_RUNS = []


def _elapsed(t0):
    return time.monotonic() - t0


def test_criterion_1_dsep_oracle_equivalence():
    t0 = time.monotonic()
    names4 = ["a", "b", "c", "d"]
    checked = 0
    for g in all_dags(names4):
        for x, y in itertools.permutations(names4, 2):
            rest = [v for v in names4 if v not in (x, y)]
            for k in range(len(rest) + 1):
                for z in itertools.combinations(rest, k):
                    assert d_separated(g, [x], [y], z) == \
                        dsep_by_path_enumeration(g, [x], [y], z)
                    checked += 1
    names5 = ["a", "b", "c", "d", "e"]
    rng = np.random.default_rng(1)
    for _ in range(1000):
        g = random_dag(rng, names5, edge_prob=0.45)
        order = list(names5)
        rng.shuffle(order)
        x, y = order[0], order[1]
        z = [v for v in order[2:] if rng.random() < 0.5]
        assert d_separated(g, [x], [y], z) == \
            dsep_by_path_enumeration(g, [x], [y], z)
        checked += 1
    dt = _elapsed(t0)
    assert dt < 60.0
    record_criterion(1, "d-separation matches the path-enumeration oracle",
                     f"{checked} queries, {dt:.1f}s")


def _mechanism_instance(mechanism, seed):
    g = Dag(["w", "x", "c"], [("w", "x"), ("x", "c")])
    params = ParameterSet(
        {"w": ((), np.array([[0.5, 0.5]]), ("s0", "s1")),
         "x": (("w",), np.array([[0.85, 0.15], [0.2, 0.8]]), ("s0", "s1")),
         "c": (("x",), np.array([[0.9, 0.1], [0.15, 0.85]]), ("s0", "s1"))})
    d = forward_sample(g, params, 100000, seed=seed)
    if mechanism == "MCAR":
        entry = AmputationEntry("x", "MCAR", intercept=logit(0.3))
        drivers = ()
    elif mechanism == "MAR":
        entry = AmputationEntry("x", "MAR", drivers=("w",), intercept=logit(0.1),
                                weights={"w": {"s1": logit(0.5) - logit(0.1)}})
        drivers = ("w",)
    else:  # MNAR self-masking
        entry = AmputationEntry("x", "MNAR", drivers=("x",), intercept=logit(0.1),
                                weights={"x": {"s1": logit(0.5) - logit(0.1)}})
        drivers = ("x",)
    return g, ampute(d, AmputationSpec((entry,), seed=seed)), drivers


def test_criterion_2_mechanism_round_trip():
    t0 = time.monotonic()
    alpha = 1e-3
    expected = {"MCAR": MechanismClass.MCAR, "MAR": MechanismClass.MAR,
                "MNAR": MechanismClass.MNAR}
    ok_seeds = 0
    for seed in range(20):
        signatures_ok = True
        for mechanism in ("MCAR", "MAR", "MNAR"):
            g, a, drivers = _mechanism_instance(mechanism, 1000 + seed)
            # graph-side round trip must be exact for every seed
            mg = implied_mgraph(g, ["x"], {"x": drivers})
            assert classify_mechanism(mg) is expected[mechanism]
            rx = a.mask[:, a.index("x")].astype(np.int16)
            w, c = a.column("w"), a.column("c")
            p_w = g_test(rx, w, 2, 2)[2]
            p_c = g_test(rx, c, 2, 2)[2]
            p_c_given_w = conditional_g_test(rx, c, 2, 2, w, 2)[2]
            if mechanism == "MCAR":
                signatures_ok &= p_w > alpha and p_c > alpha
            elif mechanism == "MAR":
                signatures_ok &= p_w < alpha and p_c_given_w > alpha
            else:
                signatures_ok &= p_c_given_w < alpha
        ok_seeds += signatures_ok
    dt = _elapsed(t0)
    assert ok_seeds >= 19
    assert dt < 120.0
    record_criterion(2, "amputation mechanisms round-trip through "
                        "classification and G-test signatures",
                     f"signatures {ok_seeds}/20 seeds, {dt:.1f}s")


def test_criterion_3_em_monotone():
    t0 = time.monotonic()
    worst = np.inf
    for seed in range(50):
        rng = np.random.default_rng(2000 + seed)
        nv = int(rng.integers(2, 7))
        names = [f"v{i}" for i in range(nv)]
        g = random_dag(rng, names, edge_prob=0.4)
        cards = {v: int(rng.integers(2, 4)) for v in names}
        params = random_params(rng, g, cards)
        d = forward_sample(g, params, int(rng.integers(60, 250)), seed=seed)
        holes = rng.random(d.rows.shape) < 0.3 * rng.random()
        rows = d.rows.copy()
        rows[holes] = MISSING
        d = CategoricalDataset(d.schema, rows)
        _, trace, _ = em_fit(g, d, pseudocount=0.0, max_iter=60, tol=1e-6)
        if len(trace.log_likelihoods) > 1:
            worst = min(worst, float(np.min(np.diff(trace.log_likelihoods))))
        assert all(b - a >= -1e-9 for a, b in
                   zip(trace.log_likelihoods, trace.log_likelihoods[1:]))
    dt = _elapsed(t0)
    assert dt < 120.0
    record_criterion(3, "EM log-likelihood is monotone on 50 random instances",
                     f"worst step {worst:.2e}, {dt:.1f}s")


def test_criterion_4_hill_climb_matches_exhaustive_optimum():
    t0 = time.monotonic()
    names = ["a", "b", "c"]
    cards = {v: 2 for v in names}
    kb = KnowledgeBase()
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        # ground truths with every dependence at least 0.2 in total variation,
        # both per CPT row and marginally per edge
        while True:
            truth = random_dag(rng, names, edge_prob=0.6)
            params = random_params(rng, truth, cards, min_tv=0.2)
            if min_marginal_edge_tv(truth, params, cards) >= 0.2:
                break
        d = forward_sample(truth, params, 10000, seed=seed)
        scorer = BicScorer(d.schema, d.rows)
        g, _ = hill_climb(scorer, kb, Dag(names))
        got = scorer.score(g)
        if got == pytest.approx(best_score_exhaustive(scorer, names), abs=1e-6):
            hits += 1
        # local optimality must hold in 100% of instances
        for op, (a, b) in legal_moves(g, kb, max_parents=4):
            if op == "add":
                delta = scorer.move_delta(b, g.parents(b), g.parents(b) | {a})
            elif op == "delete":
                delta = scorer.move_delta(b, g.parents(b), g.parents(b) - {a})
            else:
                delta = (scorer.move_delta(b, g.parents(b), g.parents(b) - {a})
                         + scorer.move_delta(a, g.parents(a), g.parents(a) | {b}))
            assert delta <= 1e-9
        DISCOVERY_RUNS.append((g, kb))
    dt = _elapsed(t0)
    assert hits >= 95
    assert dt < 120.0
    record_criterion(4, "hill climbing attains the exhaustive 25-DAG optimum",
                     f"{hits}/100 global, 100/100 locally optimal, {dt:.1f}s")


def test_criterion_5_benchmark_dominance():
    t0 = time.monotonic()
    kb = KnowledgeBase.from_json(ecdemo.ec_knowledge_json())
    algos = list(ALGORITHMS)
    dominated = 0
    means = {a: [] for a in algos}
    for seed in MASTER_SEEDS:
        d = ecdemo.ec_demo_dataset(n=763, seed=763)
        train, test = split(d, 0.2, seed)
        amputed = ampute(train, ecdemo.ec_mnar_amputation(seed))
        report = evaluate(algos, amputed, kb, B=100, seed=seed,
                          threads=THREADS, test=test, score_pseudocount=10.0)
        m = {a: report["summary"][a]["ll_out_rescaled_mean"] for a in algos}
        for a in algos:
            means[a].append(m[a])
        dominated += m["hc-aipw"] > m["bootstrap-sem"] > m["hc-complete"]
        DISCOVERY_RUNS.append((None, kb))  # evaluate() enforces kb internally
    grand = {a: float(np.mean(means[a])) for a in algos}
    dt = _elapsed(t0)
    assert grand["hc-aipw"] > grand["hc-complete"]
    assert dominated >= 8
    assert dt < 900.0
    record_criterion(5, "IPW-corrected search dominates both baselines "
                        "out-of-sample under MNAR amputation",
                     f"ordering holds {dominated}/10 seeds, means "
                     f"{ {a: round(v, 5) for a, v in grand.items()} }, {dt:.0f}s")


def test_criterion_6_knowledge_constraints_always_hold():
    t0 = time.monotonic()
    assert DISCOVERY_RUNS, "criteria 4-5 must run first"
    for g, kb in DISCOVERY_RUNS:
        if g is not None:
            assert kb.satisfied_by(g)
    # direct EC runs per algorithm with the survival chain required
    kb = KnowledgeBase.from_json(ecdemo.ec_knowledge_json())
    checked = 0
    for seed in (11, 12):
        amputed = ampute(ecdemo.ec_demo_dataset(n=400, seed=763 + seed),
                         ecdemo.ec_mnar_amputation(seed))
        for name in ALGORITHMS:
            g = SEARCHES[name](amputed, kb, SearchOptions(
                sem_max_outer=2, score_pseudocount=10.0)).graph
            assert kb.satisfied_by(g)
            assert ("Survival1yr", "Survival3yr") in g.edges
            assert ("Survival3yr", "Survival5yr") in g.edges
            checked += 1
    record_criterion(6, "required and forbidden edges respected in every "
                        "discovery run",
                     f"{len(DISCOVERY_RUNS)} recorded runs + {checked} EC runs, "
                     f"{_elapsed(t0):.1f}s")


def test_criterion_7_documented_dsep_statements(capsys):
    t0 = time.monotonic()
    cases = [
        ("ec-mnar", "LNM _||_ Radiotherapy |", "d-separated"),
        ("ec-mnar", "LNM _||_ Chemotherapy |", "d-connected"),
        ("ec-mnar", "LNM _||_ CA125,p53 | PostoperativeGrade", "d-connected"),
        ("ec-mar", "LNM _||_ CA125,p53 | PostoperativeGrade", "d-separated"),
        ("ec-mar", "LNM _||_ Radiotherapy |", "d-connected"),
    ]
    for graph, query, verdict in cases:
        assert main(["dsep", graph, query]) == 0
        out = capsys.readouterr().out.strip()
        assert out.split(" ")[0] == verdict, (graph, query, out)
    dt = _elapsed(t0)
    assert dt < 1.0
    record_criterion(7, "all five documented d-separation statements hold on "
                        "the bundled encodings", f"{dt * 1000:.0f}ms")


def test_criterion_8_cli_byte_determinism(tmp_path, monkeypatch):
    t0 = time.monotonic()
    monkeypatch.delenv("MGD_SEED", raising=False)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(amputation_spec_json(ecdemo.ec_mnar_amputation(seed=11)))
    kb_path = tmp_path / "kb.json"
    kb_path.write_text(ecdemo.ec_knowledge_json())
    base = {"dataset": "ec-demo", "dataset_n": 250,
            "ampute_spec": str(spec_path), "knowledge": str(kb_path),
            "max_parents": 3}

    def run(cmd, cfg_doc, out, threads):
        cfg = tmp_path / f"{out.name}.json"
        cfg.write_text(json.dumps(cfg_doc) + "\n")
        assert main([cmd, "--config", str(cfg), "--seed", "11",
                     "--out", str(out), "--threads", str(threads)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    for algorithm in ALGORITHMS:
        doc = dict(base, algorithm=algorithm, B=4)
        a = run("discover", doc, tmp_path / f"d1-{algorithm}", 1)
        b = run("discover", doc, tmp_path / f"d2-{algorithm}", 4)
        assert a == b

    doc = dict(base, algorithms=list(ALGORITHMS), B=2)
    a = run("evaluate", doc, tmp_path / "e1", 1)
    b = run("evaluate", doc, tmp_path / "e2", 4)
    assert a == b
    dt = _elapsed(t0)
    assert dt < 300.0
    record_criterion(8, "discover and evaluate artifacts are byte-identical "
                        "across reruns and thread counts", f"{dt:.1f}s")


def test_criterion_9_ll_matches_full_joint_enumeration():
    t0 = time.monotonic()
    for seed in range(20):
        rng = np.random.default_rng(4000 + seed)
        nv = int(rng.integers(2, 5))
        names = [f"v{i}" for i in range(nv)]
        g = random_dag(rng, names, edge_prob=0.5)
        cards = {v: int(rng.integers(2, 4)) for v in names}
        params = random_params(rng, g, cards)
        d = forward_sample(g, params, int(rng.integers(40, 150)), seed=seed)
        holes = rng.random(d.rows.shape) < 0.4
        rows = d.rows.copy()
        rows[holes] = MISSING
        d = CategoricalDataset(d.schema, rows)
        got = log_likelihood(params, g, d)
        want = joint_log_likelihood(params, g, d)
        assert got == pytest.approx(want, rel=1e-12)
    dt = _elapsed(t0)
    assert dt < 60.0
    record_criterion(9, "marginal log-likelihood matches full-joint "
                        "enumeration to 1e-12", f"20 instances, {dt:.1f}s")
