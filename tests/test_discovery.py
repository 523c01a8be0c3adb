import dataclasses
import inspect
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from missdag.data import (
    MISSING,
    AmputationEntry,
    AmputationSpec,
    CategoricalDataset,
    ampute,
    bootstrap,
    forward_sample,
    logit,
    split,
)
from missdag import discovery, ecdemo, estimation, stats
from missdag.discovery import (
    ALGORITHMS,
    SEARCHES,
    KnowledgeBase,
    SearchOptions,
    _descendants,
    _legal,
    bootstrap_sem,
    detect_indicator_parents,
    evaluate,
    hc_aipw,
    hill_climb,
    mean_sd,
    structural_em,
)
from missdag.errors import ConfigError
from missdag.estimation import BicScorer, IpwBicScorer, em_fit, ipw_weights
from missdag.graphs import Dag
from missdag.stats import chi2_sf, g_test

from oracles import (
    FamilyByFamilyBic,
    FamilyByFamilyIpw,
    apply_move,
    knowledge_json,
    best_score_exhaustive,
    chi2_sf_by_scipy,
    conditional_g_test,
    hill_climb_by_rescoring,
    legal_moves,
    random_dag,
    random_params,
)


def _chain_data(n=2000, seed=0):
    g = Dag(["a", "b", "c"], [("a", "b"), ("b", "c")])
    tables = {
        "a": ((), np.array([[0.6, 0.4]])),
        "b": (("a",), np.array([[0.85, 0.15], [0.2, 0.8]])),
        "c": (("b",), np.array([[0.9, 0.1], [0.25, 0.75]])),
    }
    from missdag.estimation import ParameterSet
    params = ParameterSet(tables, {v: ("s0", "s1") for v in g.vertices})
    return g, params, forward_sample(g, params, n, seed=seed)


class TestGTest:
    def test_independent_columns_give_large_p(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 2, 50000)
        b = rng.integers(0, 3, 50000)
        stat, df, p = g_test(a, b, 2, 3)
        assert df == 2
        assert p > 1e-4

    def test_dependent_columns_give_small_p(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 2, 5000)
        b = (a + (rng.random(5000) < 0.1)) % 2
        _, _, p = g_test(a, b, 2, 2)
        assert p < 1e-10

    def test_conditioning_blocks_dependence(self):
        # the conditional test of criterion 2, an oracle; with one stratum
        # it is the marginal test
        rng = np.random.default_rng(2)
        z = rng.integers(0, 2, 50000)
        a = (z + (rng.random(50000) < 0.2)) % 2
        b = (z + (rng.random(50000) < 0.2)) % 2
        _, _, p_marg = g_test(a, b, 2, 2)
        _, df, p_cond = conditional_g_test(a, b, 2, 2, z, 2)
        assert p_marg < 1e-10
        assert df == 2
        assert p_cond > 1e-4
        one = conditional_g_test(a, b, 2, 2, np.zeros_like(z), 1)
        assert one == pytest.approx(g_test(a, b, 2, 2), rel=1e-12)

    # largest relative difference measured on df 1-1000 and x in [0, 1e4]
    # where the p-value is at least 1e-300: 1.4e-12 (about 200,000 points)
    @settings(max_examples=500, deadline=None)
    @given(st.integers(1, 1000), st.floats(0.0, 1e4))
    @example(1, 1e-300)
    @example(1, 1300.0)
    @example(2, 1370.0)
    @example(3, 5e-324)
    @example(901, 2061.0)
    @example(1000, 1000.0)
    @example(1000, 2400.0)
    def test_chi2_sf_matches_scipy_chdtrc(self, df, x):
        ref = chi2_sf_by_scipy(x, df)
        assume(ref >= 1e-300)
        assert chi2_sf(x, df) == pytest.approx(ref, rel=5e-12, abs=0.0)

    @pytest.mark.parametrize("df", [1, 2, 3, 4, 1000])
    def test_chi2_sf_is_one_at_and_below_zero(self, df):
        assert chi2_sf(0.0, df) == chi2_sf(-1e-15, df) == 1.0


class TestKnowledgeBase:
    def test_overlap_rejected(self):
        with pytest.raises(ConfigError, match="an edge is both forbidden and required"):
            KnowledgeBase(forbidden={("a", "b")}, required={("a", "b")})

    def test_cyclic_required_rejected(self):
        with pytest.raises(ConfigError, match="required edges are cyclic: cycle detected"):
            KnowledgeBase(required={("a", "b"), ("b", "a")})

    def test_satisfied_by(self):
        kb = KnowledgeBase(forbidden={("c", "a")}, required={("a", "b")})
        assert kb.satisfied_by(Dag(["a", "b", "c"], [("a", "b")]))
        assert not kb.satisfied_by(Dag(["a", "b", "c"]))
        assert not kb.satisfied_by(Dag(["a", "b", "c"], [("a", "b"), ("c", "a")]))

    def test_json_round_trip(self):
        kb = KnowledgeBase(forbidden={("x", "y")}, required={("y", "z")})
        assert KnowledgeBase.from_json(knowledge_json(kb)) == kb


class TestLegalMoves:
    def test_every_move_yields_a_legal_dag(self):
        kb = KnowledgeBase(forbidden={("c", "a")}, required={("a", "b")})
        g = Dag(["a", "b", "c"], [("a", "b"), ("b", "c")])
        moves = legal_moves(g, kb, max_parents=2)
        assert moves
        for op, edge in moves:
            h = apply_move(g, op, edge)  # Dag() would raise on a cycle
            assert kb.satisfied_by(h)
            assert all(len(h.parents(v)) <= 2 for v in h.vertices)

    def test_moves_are_exhaustive(self):
        kb = KnowledgeBase()
        g = Dag(["a", "b", "c"], [("a", "b")])
        got = {(op, e) for op, e in legal_moves(g, kb, max_parents=4)}
        expect = {
            ("delete", ("a", "b")), ("reverse", ("a", "b")),
            ("add", ("a", "c")), ("add", ("c", "a")),
            ("add", ("b", "c")), ("add", ("c", "b")),
        }
        assert got == expect

    def test_cycle_creating_moves_excluded(self):
        g = Dag(["a", "b", "c"], [("a", "b"), ("b", "c")])
        moves = legal_moves(g, KnowledgeBase(), max_parents=4)
        assert ("add", ("c", "a")) not in moves
        # reversing a->b is blocked by the remaining path a -> b via nothing,
        # but here no second path exists, so it is allowed
        assert ("reverse", ("a", "b")) in moves

    def test_violating_input_rejected(self):
        _, _, d = _chain_data(n=50)
        kb = KnowledgeBase(required={("a", "b")})
        with pytest.raises(ConfigError, match="initial graph violates the knowledge base"):
            hill_climb(BicScorer(d.schema, d.rows), kb, Dag(d.names))

    @given(st.integers(min_value=0, max_value=10 ** 9))
    @settings(max_examples=300, deadline=None)
    def test_search_moves_match_candidate_graphs(self, seed):
        rng = np.random.default_rng(seed)
        names = [f"v{i}" for i in range(rng.integers(2, 8))]
        g = random_dag(rng, names, edge_prob=rng.uniform(0.1, 0.8))
        non_edges = [(a, b) for a in names for b in names
                     if a != b and (a, b) not in g.edges]
        kb = KnowledgeBase(
            required=[e for e in sorted(g.edges) if rng.random() < 0.3],
            forbidden=[e for e in non_edges if rng.random() < 0.3])
        max_parents = int(rng.integers(0, 4))
        index = {v: i for i, v in enumerate(names)}
        reach = _descendants(g, index)
        room = [len(g.parents(v)) < max_parents for v in names]
        allowed = {(op, (a, b)) for a in names for b in names if a != b
                   for op in (("delete", "reverse") if (a, b) in g.edges else ("add",))
                   if _legal(op, a, b, g, kb, index, reach, room)}
        assert allowed == set(legal_moves(g, kb, max_parents))


def _search_instance(seed, kind, max_vars=6):
    """A knowledge base, a starting graph and a factory of fresh scorers for
    a random search: data sampled from a random network, a random starting
    graph that holds the required edges and none of the random forbidden
    ones. ``kind`` is "bic", "weighted" (row weights) or "ipw"
    (``IpwBicScorer`` on masked data). A pseudocount makes the score tell
    the directions of a covered edge apart, so reversals improve it."""
    rng = np.random.default_rng(seed)
    names = [f"v{i}" for i in range(rng.integers(2, max_vars + 1))]
    cards = {v: int(rng.integers(2, 5)) for v in names}
    truth = random_dag(rng, names, edge_prob=rng.uniform(0.2, 0.9))
    n = int(rng.integers(20, 300))
    d = forward_sample(truth, random_params(rng, truth, cards), n,
                       seed=int(rng.integers(2 ** 31)))
    init = random_dag(rng, names, edge_prob=rng.uniform(0.0, 0.7))
    kb = KnowledgeBase(
        required=[e for e in sorted(init.edges) if rng.random() < 0.25],
        forbidden=[(a, b) for a in names for b in names
                   if a != b and (a, b) not in init.edges and rng.random() < 0.15])
    pseudocount = float(rng.choice([0.0, 0.5, 1.0]))
    if kind == "bic":
        return kb, init, lambda: BicScorer(d.schema, d.rows, pseudocount=pseudocount)
    if kind == "weighted":
        weights = rng.uniform(0.1, 3.0, n)
        return kb, init, lambda: BicScorer(d.schema, d.rows, weights, pseudocount)
    # the first column and the first row stay fully observed
    rows = d.rows.copy()
    for j in range(1, len(names)):
        if rng.random() < 0.7:
            rows[1:][rng.random(n - 1) < rng.uniform(0.05, 0.4), j] = MISSING
    dm = CategoricalDataset(d.schema, rows)
    fully = [v for j, v in enumerate(names) if not dm.mask[:, j].any()]
    var_weights = {v: ipw_weights(dm, v, [w for w in fully if rng.random() < 0.5])
                   for v in names if v not in fully}
    return kb, init, lambda: IpwBicScorer(dm, var_weights, pseudocount)


class _EdgeScorer:
    """A decomposable score whose family score is the sum of its edges'
    weights (-10 for an edge not listed), exact in floating point."""

    def __init__(self, weights):
        self.weights = weights

    def family_score(self, child, parents):
        return float(sum(self.weights.get((p, child), -10) for p in parents))

    def score(self, g):
        return sum(self.family_score(v, g.parents(v)) for v in g.vertices)

    def move_delta(self, child, old_parents, new_parents):
        return self.family_score(child, new_parents) - self.family_score(child, old_parents)


class TestHillClimb:
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["bic", "weighted", "ipw"]),
           st.integers(1, 4), st.integers(0, 6) | st.just(SearchOptions.max_iter))
    @settings(max_examples=400, deadline=None)
    def test_equals_search_that_rescores_every_move(self, seed, kind, max_parents,
                                                    max_iter):
        # the referee scores each BIC family alone, so an add scored in a
        # batch must match it bit for bit, under its own cache key
        kb, init, make = _search_instance(seed, kind, max_vars=10)
        referee = (FamilyByFamilyIpw if kind == "ipw" else FamilyByFamilyBic)(make())
        assert hill_climb(make(), kb, init, max_iter, max_parents) == \
            hill_climb_by_rescoring(referee, kb, init, max_iter, max_parents)

    @pytest.mark.parametrize("first, weights", [
        # deleting a -> b gains 1 and ends the path a -> b -> c
        (("delete", ("a", "b"), 1.0), {("a", "b"): -1, ("b", "c"): 5, ("c", "a"): 3}),
        # reversing b -> c gains 2 and ends the path a -> b -> c; the move
        # changes b and c, not a, the child of the unblocked add
        (("reverse", ("b", "c"), 2.0),
         {("a", "b"): 5, ("b", "c"): -1, ("c", "b"): 1, ("c", "a"): 3}),
    ])
    def test_takes_an_add_that_a_move_unblocked(self, first, weights):
        # adding c -> a gains 3, but closes a cycle until the first move
        init = Dag(["a", "b", "c"], [("a", "b"), ("b", "c")])
        g, trace = hill_climb(_EdgeScorer(weights), KnowledgeBase(), init)
        assert trace.moves == [first, ("add", ("c", "a"), 3.0)]
        assert trace.iterations == 2
        assert (g, trace) == hill_climb_by_rescoring(
            _EdgeScorer(weights), KnowledgeBase(), init,
            SearchOptions.max_iter, SearchOptions.max_parents)

    def test_rescores_only_the_moves_whose_child_changed(self, monkeypatch):
        # seven variables, knowledge, 14 moves of all three kinds, 130 calls
        # where a search that rescored every legal move would read 498
        # deltas. It reverses two edges it added (v0 -> v6 and v1 -> v4), so
        # v6 and v4 get back parent sets they had, and 12 calls repeat.
        self._check_rescoring(monkeypatch, seed=3, max_vars=8, total=130, distinct=118)

    def test_rescores_only_the_moves_whose_child_changed_on_ten_variables(
            self, monkeypatch):
        # 17 moves of all three kinds, 216 calls against 743 reads
        self._check_rescoring(monkeypatch, seed=20, max_vars=10, total=216, distinct=216)

    @staticmethod
    def _check_rescoring(monkeypatch, seed, max_vars, total, distinct):
        # A child's deltas are computed when it gets a parent set: for every
        # child in the first iteration, then only for the children the last
        # move changed (b, and a after a reversal). Such a child gets one call
        # per other vertex: every delete, and every add while it has room,
        # legal or not. The reversal scan makes no call of its own.
        kb, init, make = _search_instance(seed, "bic", max_vars=max_vars)
        max_iter, max_parents = 500, 3
        calls = []
        move_delta = BicScorer.move_delta

        def counted(self, *args):
            calls.append(args)
            return move_delta(self, *args)

        monkeypatch.setattr(BicScorer, "move_delta", counted)
        _, trace = hill_climb(make(), kb, init, max_iter, max_parents)
        h, changed, expected, reads_total = init, init.vertices, [], 0
        for k in range(len(trace.moves) + 1):
            for b in changed:
                pb = h.parents(b)
                expected += [(b, pb, pb - {x} if x in pb else pb | {x}) for x in h.vertices
                             if x != b and (x in pb or len(pb) < max_parents)]
            # the deltas a search that rescored every legal move would read
            reads_total += sum(1 + (op == "reverse")
                               for op, _ in legal_moves(h, kb, max_parents))
            if k < len(trace.moves):
                op, (a, b), _ = trace.moves[k]
                h = apply_move(h, op, (a, b))
                changed = (b, a) if op == "reverse" else (b,)
        assert len(trace.moves) < max_iter
        assert {op for op, _, _ in trace.moves} == {"add", "delete", "reverse"}
        assert Counter(calls) == Counter(expected)
        assert (len(calls), len(set(calls))) == (total, distinct)
        assert total < reads_total / 3

    def test_matches_exhaustive_optimum_on_small_instances(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            names = ["a", "b", "c"]
            truth = Dag(names, [("a", "b"), ("b", "c")])
            params = random_params(rng, truth, {v: 2 for v in names}, min_tv=0.2)
            d = forward_sample(truth, params, 5000, seed=seed)
            scorer = BicScorer(d.schema, d.rows)
            g, trace = hill_climb(scorer, KnowledgeBase(), Dag(names))
            if scorer.score(g) == pytest.approx(
                    best_score_exhaustive(scorer, names), abs=1e-6):
                hits += 1
        assert hits >= 19

    def test_result_is_locally_optimal(self):
        _, _, d = _chain_data(seed=3)
        scorer = BicScorer(d.schema, d.rows)
        kb = KnowledgeBase()
        g, _ = hill_climb(scorer, kb, Dag(d.names))
        base = scorer.score(g)
        for op, edge in legal_moves(g, kb, max_parents=4):
            assert scorer.score(apply_move(g, op, edge)) <= base + 1e-9

    def test_trace_score_matches_result(self):
        _, _, d = _chain_data(seed=4)
        scorer = BicScorer(d.schema, d.rows)
        g, trace = hill_climb(scorer, KnowledgeBase(), Dag(d.names))
        assert trace.final_score == pytest.approx(scorer.score(g), abs=1e-8)
        assert trace.final_score == pytest.approx(
            trace.initial_score + sum(m[2] for m in trace.moves), abs=1e-8)

    def test_respects_knowledge(self):
        _, _, d = _chain_data(seed=5)
        kb = KnowledgeBase(forbidden={("a", "b"), ("b", "a")},
                           required={("a", "c")})
        scorer = BicScorer(d.schema, d.rows)
        g, _ = hill_climb(scorer, kb, Dag(d.names, [("a", "c")]))
        assert kb.satisfied_by(g)

    def test_deterministic(self):
        _, _, d = _chain_data(seed=6)
        g1, _ = hill_climb(BicScorer(d.schema, d.rows), KnowledgeBase(), Dag(d.names))
        g2, _ = hill_climb(BicScorer(d.schema, d.rows), KnowledgeBase(), Dag(d.names))
        assert g1 == g2


def _mar_amputed(seed=0, n=3000):
    _, _, d = _chain_data(n=n, seed=seed)
    spec = AmputationSpec(
        (AmputationEntry("c", "MAR", drivers=("a",), intercept=logit(0.1),
                         weights={"a": {"s1": logit(0.6) - logit(0.1)}}),),
        seed=seed)
    return ampute(d, spec)


class TestStructuralEm:
    def test_equals_plain_hill_climb_on_complete_data(self):
        _, _, d = _chain_data(seed=7)
        kb = KnowledgeBase()
        g_sem, _ = structural_em(d, kb, SearchOptions(refit_pseudocount=0.0))
        g_hc, _ = hill_climb(BicScorer(d.schema, d.rows), kb, Dag(d.names))
        assert g_sem == g_hc

    def test_recovers_skeleton_under_mar(self):
        d = _mar_amputed(seed=8)
        g, params = structural_em(d, KnowledgeBase())
        skel = {frozenset(e) for e in g.edges}
        assert {frozenset(("a", "b")), frozenset(("b", "c"))} <= skel

    def test_respects_required_edges(self):
        d = _mar_amputed(seed=9)
        kb = KnowledgeBase(required={("a", "b")})
        g, _ = structural_em(d, kb)
        assert ("a", "b") in g.edges

    @pytest.mark.parametrize("max_outer", [0, 10])
    def test_settled_graph_is_not_refit(self, monkeypatch, max_outer):
        calls = {"em_fit": 0, "hill_climb": 0}

        def counting(name):
            fn = getattr(discovery, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted
        for name in calls:
            monkeypatch.setattr(discovery, name, counting(name))
        d = _mar_amputed(seed=8, n=600)
        g, params = structural_em(d, KnowledgeBase(), SearchOptions(sem_max_outer=max_outer))
        # one fit of the start graph and one of each graph a search moved to;
        # the search that returns its start graph (here before max_outer runs
        # out) is not followed by a refit
        assert calls["hill_climb"] < max(max_outer, 1)
        assert calls["em_fit"] == max(calls["hill_climb"], 1)
        assert (max_outer == 0) == (g == Dag(d.names))
        fresh, _, _ = em_fit(g, d, SearchOptions.refit_pseudocount, SearchOptions.em_max_iter,
                          SearchOptions.em_tol)
        assert params.variables.keys() == fresh.variables.keys()
        for v, (parents, table) in fresh.variables.items():
            assert params.parents(v) == parents
            assert np.array_equal(params.table(v), table)

    @pytest.mark.parametrize("em_max_iter", [0, 2, 30])
    def test_runs_no_e_step_beyond_its_em_fits(self, monkeypatch, em_max_iter):
        # each search scores the E-step em_fit hands back; a fit that converged
        # runs no E-step past its trace, one stopped at em_max_iter runs one
        e_steps, fits = [0], []
        e_step, fit = estimation.expand_completions, discovery.em_fit

        def counted_e_step(*args):
            e_steps[0] += 1
            return e_step(*args)

        def counted_fit(*args):
            before = e_steps[0]
            result = fit(*args)
            trace = result[1]
            assert e_steps[0] - before == trace.iterations + (not trace.converged)
            fits.append(e_steps[0] - before)
            return result

        monkeypatch.setattr(estimation, "expand_completions", counted_e_step)
        monkeypatch.setattr(discovery, "em_fit", counted_fit)
        d = _mar_amputed(seed=8, n=600)
        structural_em(d, KnowledgeBase(), SearchOptions(em_max_iter=em_max_iter))
        assert len(fits) >= 2
        assert e_steps[0] == sum(fits)


class TestSearches:
    def test_every_search_takes_data_knowledge_and_options(self):
        for search in (*SEARCHES.values(), structural_em):
            assert list(inspect.signature(search).parameters) == ["d", "kb", "opts"]

    @pytest.mark.parametrize("name", ALGORITHMS)
    @pytest.mark.parametrize("kind", ["required", "forbidden"])
    def test_knowledge_of_unknown_variable_rejected(self, name, kind):
        d = _mar_amputed(seed=9, n=200)
        kb = KnowledgeBase(**{kind: {("a", "typo")}})
        with pytest.raises(ConfigError, match="typo"):
            SEARCHES[name](d, kb, SearchOptions())

    def test_options_take_the_ends_of_their_ranges(self):
        SearchOptions(alpha=1.0, max_parents=0, max_iter=0, refit_pseudocount=0.0,
                      score_pseudocount=0.0, sem_max_outer=0, em_max_iter=0, em_tol=0.0)
        for field, value in [("alpha", 0.0), ("alpha", 1.0 + 1e-12), ("max_iter", -1),
                             ("em_tol", float("inf")), ("refit_pseudocount", -1e-300),
                             ("score_pseudocount", float("nan"))]:
            with pytest.raises(ConfigError, match=field):
                SearchOptions(**{field: value})


class TestBootstrapSem:
    def test_consensus_and_frequencies(self):
        d = _mar_amputed(seed=10, n=800)
        kb = KnowledgeBase(required={("a", "b")})
        g, summary = bootstrap_sem(d, kb, B=8, seed=3)
        assert ("a", "b") in g.edges
        assert summary.replicates == 8
        assert all(0.0 < f <= 1.0 for f in summary.edge_frequency.values())
        mean_in, sd_in = mean_sd([v.log_likelihood for v in summary.in_sample])
        mean_out, _ = mean_sd([v.log_likelihood for v in summary.out_of_sample])
        assert mean_in < 0.0 and mean_out < 0.0 and sd_in >= 0.0

    def test_threads_do_not_change_the_result(self):
        d = _mar_amputed(seed=11, n=600)
        kb = KnowledgeBase()
        g1, s1 = bootstrap_sem(d, kb, B=4, seed=5, threads=1)
        g2, s2 = bootstrap_sem(d, kb, B=4, seed=5, threads=2)
        assert g1 == g2
        assert s1.edge_frequency == s2.edge_frequency

    def test_bad_options_rejected(self):
        d = _mar_amputed(seed=12, n=300)
        with pytest.raises(ConfigError):
            bootstrap_sem(d, KnowledgeBase(), B=0)
        with pytest.raises(ConfigError):
            bootstrap_sem(d, KnowledgeBase(), B=2, threshold=0.0)

    def test_sem_keywords_set_their_search_options(self):
        # every SearchOptions default differs from the others, so a keyword
        # mapped to the wrong field shows as a default that does not match
        assert SearchOptions().sem_options() == {
            "pseudocount": 1.0, "max_outer": 5, "em_max_iter": 30, "em_tol": 1e-3,
            "max_parents": 4, "max_iter": 500}
        assert len(set(dataclasses.astuple(SearchOptions()))) == len(
            dataclasses.fields(SearchOptions))

    # bootstrap_sem's keywords and the SearchOptions fields they set
    SAME_OPTIONS = [
        ({"max_outer": 1, "em_max_iter": 3}, {"sem_max_outer": 1, "em_max_iter": 3}),
        ({"pseudocount": 2.0, "max_outer": 2, "em_max_iter": 4, "em_tol": 0.0,
          "max_parents": 1, "max_iter": 2},
         {"refit_pseudocount": 2.0, "sem_max_outer": 2, "em_max_iter": 4, "em_tol": 0.0,
          "max_parents": 1, "max_iter": 2}),
    ]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("sem_options,search_options", SAME_OPTIONS)
    def test_replicates_are_evaluate_replicates(self, threads, sem_options, search_options):
        d = _mar_amputed(seed=23, n=300)
        kb = KnowledgeBase(required={("a", "b")})
        _, summary = bootstrap_sem(d, kb, B=3, seed=6, threads=threads, **sem_options)
        report = evaluate(["bootstrap-sem"], d, kb, B=3, seed=6, threads=threads,
                          **search_options)
        assert [v.log_likelihood for v in summary.in_sample] == [
            r["ll_in"] for r in report["replicates"]]
        assert [v.log_likelihood for v in summary.out_of_sample] == [
            r["ll_out"] for r in report["replicates"]]


class TestDetectIndicatorParents:
    def test_mar_driver_detected(self):
        d = _mar_amputed(seed=13, n=6000)
        report = detect_indicator_parents(d)
        # 'b' correlates with the true driver 'a', so it may be flagged too;
        # any fully observed detected set still classifies as MAR
        assert "a" in report["c"]["detected_parents"]
        assert report["c"]["mechanism"] == "MAR"
        assert report["c"]["self_masking"] == "undetectable"

    def test_mcar_detects_nothing(self):
        _, _, d = _chain_data(n=4000, seed=14)
        spec = AmputationSpec(
            (AmputationEntry("b", "MCAR", intercept=logit(0.2)),), seed=14)
        report = detect_indicator_parents(ampute(d, spec))
        assert report["b"]["detected_parents"] == []
        assert report["b"]["mechanism"] == "MCAR"

    def test_partial_driver_recorded_as_mnar_evidence(self):
        _, _, d = _chain_data(n=8000, seed=15)
        spec = AmputationSpec(
            (AmputationEntry("a", "MCAR", intercept=logit(0.3)),
             AmputationEntry("c", "MNAR", drivers=("a",), intercept=logit(0.05),
                             weights={"a": {"s1": logit(0.7) - logit(0.05)}})),
            seed=15)
        report = detect_indicator_parents(ampute(d, spec))
        assert "a" in report["c"]["available_case_mnar_evidence"]
        assert report["c"]["mechanism"] == "MNAR"


    def test_scipy_p_values_give_the_same_report(self, monkeypatch):
        # 20 resamples of criterion 5's seed-11 MNAR train set, drawn as
        # evaluate draws its replicates; with chdtrc's p-values a decision
        # changes only if a p-value lies within about 1e-12 (relative) of its
        # Bonferroni threshold
        train, _ = split(ecdemo.ec_demo_dataset(n=763, seed=763), 0.2, 11)
        amputed = ampute(train, ecdemo.ec_mnar_amputation(11))
        streams = np.random.SeedSequence(11).spawn(2)[1].spawn(20)
        resamples = [bootstrap(amputed, s) for s in streams]
        ours = [detect_indicator_parents(db) for db in resamples]
        refereed = []

        def referee(x, df):
            refereed.append(x)
            return chi2_sf_by_scipy(x, df)

        monkeypatch.setattr(stats, "chi2_sf", referee)
        assert [detect_indicator_parents(db) for db in resamples] == ours
        assert refereed


class TestHcAipw:
    def test_reduces_to_plain_hill_climb_on_complete_data(self):
        _, _, d = _chain_data(seed=16)
        kb = KnowledgeBase()
        found = hc_aipw(d, kb)
        g_hc, _ = hill_climb(BicScorer(d.schema, d.rows), kb, Dag(d.names))
        assert found.graph == g_hc
        assert found.report == {}

    def test_recovers_skeleton_under_mar(self):
        d = _mar_amputed(seed=17, n=5000)
        found = hc_aipw(d, KnowledgeBase())
        skel = {frozenset(e) for e in found.graph.edges}
        assert {frozenset(("a", "b")), frozenset(("b", "c"))} <= skel
        assert "a" in found.report["c"]["detected_parents"]


class TestEvaluate:
    def _run(self, threads, B=3):
        d = _mar_amputed(seed=19, n=500)
        return evaluate(list(ALGORITHMS), d, KnowledgeBase(), B=B, seed=4,
                        threads=threads)

    def test_report_shape(self):
        report = self._run(threads=1)
        assert report["B"] == 3 and report["algorithms"] == list(ALGORITHMS)
        assert report["n_train"] + report["n_test"] == 500
        assert len(report["replicates"]) == 3 * len(ALGORITHMS)
        for name in ALGORITHMS:
            s = report["summary"][name]
            for key in ("ll_in_mean", "ll_in_sd", "ll_out_mean", "ll_out_sd",
                        "ll_in_rescaled_mean", "ll_out_rescaled_mean"):
                assert key in s
            assert s["ll_out_mean"] < 0.0
            assert -1.0 <= s["ll_out_rescaled_mean"] < 0.0

    def test_threads_do_not_change_the_report(self):
        # 15 jobs of three costs on 2 workers, more than 2 per worker: the
        # pool hands them out one at a time, and they may finish out of order
        serial = self._run(threads=1, B=5)
        assert len(serial["replicates"]) > 2 * 2
        assert self._run(threads=2, B=5) == serial

    def test_external_test_set_is_used(self):
        d = _mar_amputed(seed=20, n=400)
        _, _, test = _chain_data(n=100, seed=21)
        report = evaluate(["hc-complete"], d, KnowledgeBase(), B=2, seed=1,
                          test=test)
        assert report["n_train"] == 400 and report["n_test"] == 100

    def test_unknown_algorithm_rejected(self):
        d = _mar_amputed(seed=22, n=300)
        with pytest.raises(ConfigError):
            evaluate(["nope"], d, KnowledgeBase(), B=1, seed=0)
        with pytest.raises(ConfigError):
            evaluate([], d, KnowledgeBase(), B=1, seed=0)

    def test_duplicate_algorithm_rejected(self):
        d = _mar_amputed(seed=22, n=300)
        with pytest.raises(ConfigError):
            evaluate(["hc-complete", "hc-complete"], d, KnowledgeBase(), B=1, seed=0)

    def test_unknown_option_rejected(self):
        d = _mar_amputed(seed=22, n=300)
        with pytest.raises(TypeError):
            evaluate(["hc-complete"], d, KnowledgeBase(), B=1, seed=0, max_parent=2)
        # bootstrap_sem takes its own keywords, not the SearchOptions fields
        for option in ({"max_outr": 1}, {"sem_max_outer": 1}):
            with pytest.raises(TypeError):
                bootstrap_sem(d, KnowledgeBase(), B=1, seed=0, **option)
