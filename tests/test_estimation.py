import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from missdag.data import (
    MISSING,
    CategoricalDataset,
    VariableSchema,
    family_counts,
    forward_sample,
)
from missdag.errors import ConfigError, SchemaMismatch, TooManyMissingInRow
from missdag import estimation
from missdag.estimation import (
    BicScorer,
    IpwBicScorer,
    ParameterSet,
    em_fit,
    fit_mle,
    ipw_weights,
    log_likelihood,
    rescale_ll,
)
from missdag.graphs import Dag

from oracles import (
    FamilyByFamilyIpw,
    _normalized,
    bic,
    completion_index_by_pattern,
    e_step_at,
    em_fit_by_rows,
    family_bic,
    ipw_family_bic,
    ipw_weights_by_loop,
    joint_log_likelihood,
    mixed_radix_by_loop,
    parameter_set_json,
    random_dag,
    random_params,
    row_completions,
    tally_counts,
)


def _schema(*cards):
    return [VariableSchema(f"v{i}", tuple(f"s{k}" for k in range(c)))
            for i, c in enumerate(cards)]


def _dataset(cards, rows):
    return CategoricalDataset(_schema(*cards), np.asarray(rows, dtype=np.int16))


def _random_instance(seed, max_vars=4, missing=0.3):
    rng = np.random.default_rng(seed)
    nv = int(rng.integers(2, max_vars + 1))
    names = [f"v{i}" for i in range(nv)]
    g = random_dag(rng, names, edge_prob=0.5)
    cards = {v: int(rng.integers(2, 4)) for v in names}
    params = random_params(rng, g, cards)
    d = forward_sample(g, params, int(rng.integers(50, 200)), seed=int(seed))
    if missing > 0:
        rows = d.rows.copy()
        holes = rng.random(rows.shape) < missing * rng.random()
        keep = ~holes.any(axis=1)
        holes[keep | ~keep] &= True  # no-op, keeps shape explicit
        rows[holes] = MISSING
        d = CategoricalDataset(d.schema, rows)
    return g, params, d


class TestParameterSet:
    # building a set checks nothing: check_graph refuses what does not fit
    def test_rows_must_sum_to_one(self):
        params = ParameterSet({"a": ((), np.array([[0.5, 0.4]]), ("s0", "s1"))})
        with pytest.raises(SchemaMismatch, match="CPT rows for 'a' do not sum to 1"):
            params.check_graph(Dag(["a"]))

    EDGE = 1.0 + (1e-9 + 1e-5)

    @pytest.mark.parametrize("row_sum", [
        1.0, 1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 1e-5, 1.0 - 1e-5,
        EDGE, np.nextafter(EDGE, 2.0), np.nextafter(EDGE, 0.0),
        2.0 - EDGE, np.nextafter(2.0 - EDGE, 0.0), np.nextafter(2.0 - EDGE, 2.0),
        1.0 + 2e-5, 1.0 - 2e-5, 0.0, np.nan, np.inf, -np.inf])
    def test_row_sum_tolerance_is_that_of_allclose(self, row_sum):
        table = np.array([[row_sum, 0.0]])
        accepted = np.allclose(table.sum(axis=1), 1.0, atol=1e-9)
        params = ParameterSet({"a": ((), table, ("s0", "s1"))})
        try:
            params.check_graph(Dag(["a"]))
        except SchemaMismatch:
            assert not accepted
        else:
            assert accepted

    def test_shape_must_match_parent_product(self):
        params = ParameterSet({"a": ((), np.array([[0.5, 0.5]]), ("s0", "s1")),
                               "b": (("a",), np.array([[0.5, 0.5]]), ("s0", "s1"))})
        with pytest.raises(SchemaMismatch,
                           match=re.escape("CPT for 'b' has shape (1, 2), expected (2, 2)")):
            params.check_graph(Dag(["a", "b"], [("a", "b")]))

    def test_negative_cell_refused(self):
        # the row sums to 1, and sampling it drew the first state every time
        params = ParameterSet({"a": ((), np.array([[1.5, -0.5]]), ("s0", "s1"))})
        with pytest.raises(SchemaMismatch, match="CPT for 'a' has a negative probability"):
            params.check_graph(Dag(["a"]))

    def test_refuses_a_cpt_the_graph_lacks(self):
        g = Dag(["a", "b"], [("a", "b")])
        params = random_params(np.random.default_rng(0), Dag(["a", "b", "c"], [("a", "b")]),
                               {"a": 2, "b": 2, "c": 3})
        with pytest.raises(SchemaMismatch,
                           match=re.escape("CPTs for variables the graph lacks: ['c']")):
            params.check_graph(g)
        del params.variables["c"]
        params.check_graph(g)

    def test_json_round_trip(self):
        g = Dag(["a", "b"], [("a", "b")])
        params = random_params(np.random.default_rng(0), g, {"a": 2, "b": 3})
        back = ParameterSet.from_json(parameter_set_json(params))
        for v in g.vertices:
            assert back.parents(v) == params.parents(v)
            assert np.allclose(back.table(v), params.table(v))
            assert back.states(v) == params.states(v)


class TestFittedCpts:
    # a fit is stored unchecked, and checked where it is used: every fit the
    # package makes must pass check_graph on its own graph
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_fit_passes_check_graph(self, data):
        cards = data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
        names = [f"v{i}" for i in range(len(cards))]
        n = data.draw(st.integers(0, 12))
        lowest = data.draw(st.sampled_from([MISSING, 0]))
        cells = st.tuples(*[st.integers(lowest, k - 1) for k in cards])
        rows = data.draw(st.lists(cells, min_size=n, max_size=n))
        d = _dataset(cards, np.array(rows, dtype=np.int16).reshape(n, len(cards)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        g = random_dag(rng, data.draw(st.permutations(names)), edge_prob=0.6)
        # at pseudocount 0, a parent configuration the rows never show gets a
        # uniform row
        pseudocount = data.draw(st.sampled_from([0.0, 0.5, 10.0]))
        if d.is_complete():
            fit_mle(g, d, pseudocount).check_graph(g)
        max_iter = data.draw(st.integers(0, 4))
        em_fit(g, d, pseudocount, max_iter, tol=0.0)[0].check_graph(g)


class TestFitMle:
    @pytest.mark.parametrize("pseudocount", [math.nan, -1.0, math.inf, "1"])
    def test_pseudocount_out_of_range_refused(self, pseudocount):
        # NaN and -1 were read as 0, and infinity gave NaN tables
        g = Dag(["v0", "v1"], [("v0", "v1")])
        d = _dataset([2, 2], [[0, 0], [1, 1]])
        with pytest.raises(ConfigError, match="^pseudocount must be "):
            fit_mle(g, d, pseudocount)

    def test_hand_counts(self):
        g = Dag(["v0", "v1"], [("v0", "v1")])
        d = _dataset([2, 2], [[0, 0], [0, 0], [0, 1], [1, 1]])
        params = fit_mle(g, d, pseudocount=0.0)
        assert np.allclose(params.table("v0"), [[0.75, 0.25]])
        assert np.allclose(params.table("v1"), [[2 / 3, 1 / 3], [0.0, 1.0]])

    def test_unseen_parent_row_is_uniform(self):
        g = Dag(["v0", "v1"], [("v0", "v1")])
        d = _dataset([2, 3], [[0, 0], [0, 2]])
        params = fit_mle(g, d, pseudocount=0.0)
        assert np.allclose(params.table("v1")[1], [1 / 3, 1 / 3, 1 / 3])

    def test_pseudocount_smooths_counts(self):
        g = Dag(["v0"], [])
        d = _dataset([2], [[0], [0], [0]])
        params = fit_mle(g, d, pseudocount=1.0)
        assert np.allclose(params.table("v0"), [[4 / 5, 1 / 5]])

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_row_by_row_counts(self, data):
        cards = data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=5))
        names = [f"v{i}" for i in range(len(cards))]
        n = data.draw(st.integers(0, 30))
        rows = data.draw(st.lists(st.tuples(*[st.integers(0, k - 1) for k in cards]),
                                  min_size=n, max_size=n))
        d = _dataset(cards, np.array(rows, dtype=np.int16).reshape(n, len(cards)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        # graph vertices in another order than the dataset's columns
        g = random_dag(rng, data.draw(st.permutations(names)), edge_prob=0.5)
        pseudocount = data.draw(st.sampled_from([0.0, 0.5, 10.0]))
        params = fit_mle(g, d, pseudocount)
        assert list(params.variables) == list(g.vertices)
        for v in g.vertices:
            # each vertex's parents in the dataset's column order
            parents = tuple(sorted(g.parents(v), key=names.index))
            family = [names.index(u) for u in parents + (v,)]
            counts = tally_counts(d.rows, family, [cards[j] for j in family])
            assert params.parents(v) == parents
            assert params.states(v) == d.variable(v).states
            assert np.array_equal(params.table(v), _normalized(counts, pseudocount))

    def test_missing_cells_rejected(self):
        g = Dag(["v0"], [])
        d = _dataset([2], [[MISSING]])
        with pytest.raises(SchemaMismatch, match="fit_mle requires complete data"):
            fit_mle(g, d, pseudocount=0.0)

    def test_dataset_must_cover_vertices(self):
        g = Dag(["v0", "zz"], [])
        d = _dataset([2], [[0]])
        with pytest.raises(SchemaMismatch):
            fit_mle(g, d, pseudocount=0.0)

    @pytest.mark.parametrize("fit", ["fit_mle", "em_fit", "log_likelihood"])
    def test_each_fit_names_the_vertex_the_dataset_lacks(self, fit):
        g = Dag(["v0", "x"], [("v0", "x")])
        d = _dataset([2], [[0], [1]])
        params = random_params(np.random.default_rng(0), g, {"v0": 2, "x": 2})
        run = {"fit_mle": lambda: fit_mle(g, d, pseudocount=0.0),
               "em_fit": lambda: em_fit(g, d, pseudocount=1.0, max_iter=5, tol=1e-6),
               "log_likelihood": lambda: log_likelihood(params, g, d)}[fit]
        with pytest.raises(SchemaMismatch, match="'x'"):
            run()


class TestLogLikelihood:
    def test_complete_data_matches_enumeration(self):
        for seed in range(5):
            g, params, d = _random_instance(seed, missing=0.0)
            got = log_likelihood(params, g, d)
            want = joint_log_likelihood(params, g, d)
            assert type(got) is float and got == pytest.approx(want, abs=1e-10)

    def test_missing_data_matches_enumeration(self):
        for seed in range(5):
            g, params, d = _random_instance(100 + seed, missing=0.4)
            got = log_likelihood(params, g, d)
            want = joint_log_likelihood(params, g, d)
            assert type(got) is float and got == pytest.approx(want, abs=1e-10)

    def test_wrong_parent_set_rejected(self):
        g = Dag(["v0", "v1"], [("v0", "v1")])
        params = random_params(np.random.default_rng(1), Dag(["v0", "v1"]),
                               {"v0": 2, "v1": 2})
        d = _dataset([2, 2], [[0, 0]])
        with pytest.raises(SchemaMismatch):
            log_likelihood(params, g, d)

    @pytest.mark.parametrize("states", [("s1", "s0"), ("u", "v")],
                             ids=["other-order", "other-labels"])
    def test_cpt_states_must_be_the_datasets_in_order(self, states):
        # a CPT was checked by its number of states alone, so one labelled
        # in another order scored each row under the other state's cell
        d = _dataset([2], [[0]] * 9 + [[1]])
        params = ParameterSet({"v0": ((), np.array([[0.1, 0.9]]), states)})
        with pytest.raises(SchemaMismatch,
                           match="CPT states for 'v0' are not the dataset's, in order"):
            log_likelihood(params, Dag(["v0"]), d)


class TestExpandCompletions:
    # expand_completions at given parameters, set up by e_step_at
    def test_weights_sum_to_one_per_origin(self):
        g, params, d = _random_instance(7, missing=0.4)
        rows, weights, origin, row_ll = e_step_at(g, params, d)
        sums = np.bincount(origin, weights=weights, minlength=d.n)
        assert np.allclose(sums, 1.0)
        assert rows.shape[0] == weights.size == origin.size
        assert row_ll.shape == (d.n,)

    def test_completed_rows_have_no_sentinel(self):
        g, params, d = _random_instance(8, missing=0.5)
        rows, _, _, _ = e_step_at(g, params, d)
        assert (rows >= 0).all()

    def test_cap_guards_row_blowup(self, monkeypatch):
        g = Dag(["v0", "v1", "v2"], [])
        params = random_params(np.random.default_rng(2), g,
                               {"v0": 2, "v1": 2, "v2": 2})
        d = _dataset([2, 2, 2], [[MISSING, MISSING, MISSING]])
        monkeypatch.setattr(estimation, "ENUMERATION_CAP", 4)
        with pytest.raises(TooManyMissingInRow):
            e_step_at(g, params, d)
        monkeypatch.setattr(estimation, "ENUMERATION_CAP", 8)
        assert e_step_at(g, params, d)[0].shape == (8, 3)

    def test_cap_bounds_the_whole_block(self, monkeypatch):
        # no row has more than 8 completions, but the block would have 12
        g = Dag(["v0", "v1", "v2"], [])
        params = random_params(np.random.default_rng(2), g,
                               {"v0": 2, "v1": 2, "v2": 2})
        d = _dataset([2, 2, 2], [[MISSING, MISSING, 0], [0, MISSING, MISSING],
                                 [MISSING, 1, MISSING]])
        monkeypatch.setattr(estimation, "ENUMERATION_CAP", 8)
        with pytest.raises(TooManyMissingInRow):
            e_step_at(g, params, d)
        assert d._completions == {}
        monkeypatch.setattr(estimation, "ENUMERATION_CAP", 12)
        assert e_step_at(g, params, d)[0].shape == (12, 3)

    def test_block_is_built_once_and_read_only(self):
        g, params, d = _random_instance(7, missing=0.4)
        rows, weights, origin, row_ll = e_step_at(g, params, d)
        again = e_step_at(g, params, d)
        assert again[0] is rows and again[2] is origin
        assert not rows.flags.writeable and not origin.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 0
        assert weights.flags.writeable and row_ll.flags.writeable

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_row_by_row_oracle(self, data):
        cards = data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
        names = [f"v{i}" for i in range(len(cards))]
        n = data.draw(st.integers(0, 12))
        cells = st.tuples(*[st.integers(MISSING, k - 1) for k in cards])
        rows = data.draw(st.lists(cells, min_size=n, max_size=n))
        if data.draw(st.booleans()):
            rows.append(tuple(k - 1 for k in cards))
        if data.draw(st.booleans()):
            rows.append((MISSING,) * len(cards))
        d = _dataset(cards, np.array(rows, dtype=np.int16).reshape(len(rows), len(cards)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        # graph columns in another order than the dataset's
        g = random_dag(rng, data.draw(st.permutations(names)), edge_prob=0.5)
        params = random_params(rng, g, dict(zip(names, cards)))
        if data.draw(st.booleans()):
            # impossible completions, and rows with no possible completion
            variables = {}
            for v, (parents, table, states) in params.variables.items():
                table = np.where(table < 0.3, 0.0, table)
                table[table.sum(axis=1) == 0] = 1.0
                variables[v] = (parents, table / table.sum(axis=1, keepdims=True), states)
            params = ParameterSet(variables)
        with np.errstate(invalid="ignore"):
            got = e_step_at(g, params, d)
            again = e_step_at(g, params, d)
        for ours, theirs, hit in zip(got, row_completions(g, params, d), again):
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs, equal_nan=True)
            assert np.array_equal(hit, ours, equal_nan=True)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_index_matches_per_pattern_fill(self, data):
        cards = data.draw(st.lists(st.integers(2, 5), max_size=6))
        names = [f"v{i}" for i in range(len(cards))]
        n = data.draw(st.integers(0, 40))
        cells = st.tuples(*[st.integers(MISSING, k - 1) for k in cards])
        rows = data.draw(st.lists(cells, min_size=n, max_size=n))
        d = _dataset(cards, np.array(rows, dtype=np.int16).reshape(n, len(cards)))
        # a subset of the columns, in another order than the dataset's
        vertices = tuple(data.draw(st.permutations(names))[:data.draw(st.integers(0, len(names)))])
        want = completion_index_by_pattern(d, vertices, dict(zip(names, cards)))
        got = estimation._completion_index(d, vertices, dict(zip(names, cards)))
        assert got[0].flags.f_contiguous
        assert len(got[3]) == len(want[3])  # one group per count, in the same order
        for ours, theirs in zip(itertools.chain(got[:3], *got[3]),
                                itertools.chain(want[:3], *want[3])):
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
            assert np.array_equal(ours, theirs)
            assert not ours.flags.writeable

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_mask_patterns_are_those_of_unique_rows(self, data):
        # more than 64 columns too, where no one integer holds a row's bits
        p = data.draw(st.integers(0, 80))
        distinct = data.draw(st.lists(st.lists(st.booleans(), min_size=p, max_size=p),
                                      min_size=1, max_size=6))
        picks = data.draw(st.lists(st.integers(0, len(distinct) - 1), max_size=30))
        mask = np.array(distinct, dtype=bool).reshape(len(distinct), p)[picks]
        if data.draw(st.booleans()):
            mask = np.asfortranarray(mask)
        patterns, inverse = estimation._mask_patterns(mask)
        want, want_inverse = np.unique(mask, axis=0, return_inverse=True)
        assert patterns.dtype == bool and np.array_equal(patterns, want)
        assert np.array_equal(inverse, want_inverse.ravel())


class TestColumnLayout:
    """The completion block and the scorers' rows are column-major, so a
    family's counts read contiguous columns; the counts do not depend on the
    layout."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_completion_block_is_column_major(self, data):
        cards = data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
        names = [f"v{i}" for i in range(len(cards))]
        n = data.draw(st.integers(0, 12))
        cells = st.tuples(*[st.integers(MISSING, k - 1) for k in cards])
        rows = data.draw(st.lists(cells, min_size=n, max_size=n))
        d = _dataset(cards, np.array(rows, dtype=np.int16).reshape(n, len(cards)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        g = random_dag(rng, data.draw(st.permutations(names)), edge_prob=0.5)
        params = random_params(rng, g, dict(zip(names, cards)))
        block = estimation._completion_index(d, g.vertices, dict(zip(names, cards)))[0]
        assert block.flags.f_contiguous and not block.flags.writeable
        rebuilt = row_completions(g, params, d)[0]  # row by row, row-major
        assert rebuilt.flags.c_contiguous and np.array_equal(block, rebuilt)
        # a scorer takes the block as it is, and refuses a block without rows
        schema = [d.variable(v) for v in g.vertices]
        if n:
            assert BicScorer(schema, block).rows is block
        else:
            with pytest.raises(SchemaMismatch, match="BIC needs a positive sample size"):
                BicScorer(schema, block)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_family_counts_on_either_layout(self, data):
        cards = data.draw(st.lists(st.integers(2, 6), min_size=1, max_size=6))
        n = data.draw(st.integers(0, 40))
        cells = st.tuples(*[st.integers(0, k - 1) for k in cards])
        rows = np.array(data.draw(st.lists(cells, min_size=n, max_size=n)),
                        dtype=np.int16).reshape(n, len(cards))
        order = data.draw(st.permutations(range(len(cards))))
        cols = order[:data.draw(st.integers(1, len(cards)))]
        fcards = [cards[j] for j in cols]
        weights = data.draw(st.none() | st.lists(
            st.floats(0, 100, allow_nan=False), min_size=n, max_size=n).map(np.array))
        size = int(np.prod(fcards))
        codes = np.array(mixed_radix_by_loop(rows, cols, fcards), dtype=np.int64)
        want = np.bincount(codes, weights, minlength=size).astype(float)
        want = want.reshape(size // fcards[-1], fcards[-1])
        for layout in (np.ascontiguousarray(rows), np.asfortranarray(rows)):
            assert np.array_equal(family_counts(layout, cols, fcards, weights), want)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_ipw_scorer_matches_oracle(self, data):
        cards = data.draw(st.lists(st.integers(2, 4), min_size=2, max_size=5))
        names = [f"v{i}" for i in range(len(cards))]
        n = data.draw(st.integers(1, 30))
        cells = st.tuples(*[st.integers(0, k - 1) for k in cards])
        rows = np.array(data.draw(st.lists(cells, min_size=n, max_size=n)),
                        dtype=np.int16).reshape(n, len(cards))
        # the first column stays fully observed, so IPW weights can use it
        for v in data.draw(st.sets(st.sampled_from(names[1:]))):
            missing = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
            rows[np.array(missing, dtype=bool), names.index(v)] = MISSING
        d = _dataset(cards, rows)
        fully = [v for j, v in enumerate(names) if not d.mask[:, j].any()]
        seen = set(names) - set(fully)
        var_weights = {v: ipw_weights(d, v, data.draw(st.sets(st.sampled_from(fully))))
                       for v in sorted(seen) if data.draw(st.booleans())}
        pseudocount = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        scorer = IpwBicScorer(d, var_weights, pseudocount)
        # missing cells read as state 0: their rows have weight 0.0 on any
        # observed set that holds the variable
        assert scorer.rows.flags.f_contiguous
        assert np.array_equal(scorer.rows, np.maximum(d.rows, 0))
        for child in names:
            others = [v for v in names if v != child]
            parents = data.draw(st.sets(st.sampled_from(others)))
            want = ipw_family_bic(d, var_weights, child, parents,
                                  seen & (parents | {child}), pseudocount)
            got = scorer.family_score(child, parents)
            assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


class TestRescale:
    def test_divides_by_n_then_max_abs(self):
        assert rescale_ll([-20.0, -10.0], 10) == [-1.0, -0.5]
        assert rescale_ll([-6.0, 3.0], 3) == [-1.0, 0.5]

    def test_accepts_plain_floats(self):
        assert rescale_ll([-4.0, -2.0], 2) == [-1.0, -0.5]

    def test_empty_rejected(self):
        with pytest.raises(SchemaMismatch, match="no score values to rescale"):
            rescale_ll([], 5)
        with pytest.raises(SchemaMismatch, match="sample size must be positive"):
            rescale_ll([-1.0], 0)

    def test_all_zero_rejected(self):
        with pytest.raises(SchemaMismatch, match="all per-sample values are zero"):
            rescale_ll([0.0, 0.0], 3)


class TestEmFit:
    def test_trace_is_monotone(self):
        for seed in range(8):
            g, _, d = _random_instance(200 + seed, missing=0.35)
            _, trace, _ = em_fit(g, d, pseudocount=0.0, max_iter=40, tol=1e-6)
            diffs = np.diff(trace.log_likelihoods)
            assert (diffs >= -1e-9).all()

    def test_matches_mle_on_complete_data(self):
        g, params, d = _random_instance(9, missing=0.0)
        fitted, _, _ = em_fit(g, d, pseudocount=0.0, max_iter=10, tol=1e-6)
        plain = fit_mle(g, d, pseudocount=0.0)
        for v in g.vertices:
            assert np.allclose(fitted.table(v), plain.table(v))

    def test_reports_convergence(self):
        g, _, d = _random_instance(10, missing=0.3)
        _, trace, _ = em_fit(g, d, pseudocount=0.0, max_iter=100, tol=1e-6)
        assert trace.converged
        assert trace.iterations <= 100

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_row_by_row_em(self, data):
        cards = data.draw(st.lists(st.integers(2, 3), min_size=1, max_size=4))
        names = [f"v{i}" for i in range(len(cards))]
        n = data.draw(st.integers(0, 10))
        cells = st.tuples(*[st.integers(MISSING, k - 1) for k in cards])
        rows = data.draw(st.lists(cells, min_size=n, max_size=n))
        if data.draw(st.booleans()):
            rows.append((MISSING,) * len(cards))
        d = _dataset(cards, np.array(rows, dtype=np.int16).reshape(len(rows), len(cards)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        # graph columns in another order than the dataset's
        g = random_dag(rng, data.draw(st.permutations(names)), edge_prob=0.6)
        pseudocount = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        tol = data.draw(st.sampled_from([0.0, 1e-6]))
        max_iter = data.draw(st.integers(0, 6))
        params, trace, (block, weights) = em_fit(g, d, pseudocount, max_iter, tol)
        want, lls, converged = em_fit_by_rows(g, d, pseudocount, max_iter, tol)
        assert trace.log_likelihoods == lls and trace.converged == converged
        for v in g.vertices:
            assert params.parents(v) == want.parents(v)
            assert np.array_equal(params.table(v), want.table(v))
        # the handed-back E-step is the one at the returned parameters, whether
        # the fit converged or stopped at max_iter (0 included)
        rows, expected, _, _ = e_step_at(g, params, d)
        assert np.array_equal(block, rows)
        assert np.array_equal(weights, expected)

    def test_codes_each_family_once_per_fit(self, monkeypatch):
        # the family codes over the completion block are computed once per
        # fit, not once per iteration (four vertices, five edges)
        g, _, d = _random_instance(204, missing=0.35)
        calls = []
        mixed_radix = estimation.mixed_radix

        def counted(*args):
            calls.append(args)
            return mixed_radix(*args)

        monkeypatch.setattr(estimation, "mixed_radix", counted)
        per_fit = []
        for max_iter in (3, 12):
            calls.clear()
            _, trace, _ = em_fit(g, d, pseudocount=0.0, max_iter=max_iter, tol=0.0)
            assert trace.iterations == max_iter
            per_fit.append(len(calls))
        assert per_fit == [len(g.vertices)] * 2


    @pytest.mark.parametrize("settings, line", [
        ({"max_iter": -1}, "max_iter must be >= 0, got -1"),
        ({"tol": math.nan}, "tol must be finite and >= 0, got nan"),
        ({"tol": -1e-3}, "tol must be finite and >= 0, got -0.001"),
        ({"pseudocount": math.nan}, "pseudocount must be finite and >= 0, got nan"),
        ({"pseudocount": -1}, "pseudocount must be finite and >= 0, got -1.0"),
    ], ids=["negative-max-iter", "nan-tol", "negative-tol", "nan-pseudocount",
            "negative-pseudocount"])
    def test_settings_out_of_range_refused(self, settings, line):
        # max_iter -1 returned an empty trace, a NaN tol never converged and
        # a NaN or negative pseudocount was read as 0
        g, _, d = _random_instance(10, missing=0.3)
        kwargs = {"pseudocount": 1.0, "max_iter": 5, "tol": 1e-6, **settings}
        with pytest.raises(ConfigError, match=f"^{re.escape(line)}$"):
            em_fit(g, d, **kwargs)


class TestIpwWeights:
    def test_hand_values(self):
        # stratum v0=0: 3 usable, 2 observed -> phat = 3/5; v0=1: 1/1 -> 2/3
        d = _dataset([2, 2], [[0, 0], [0, 1], [0, MISSING], [1, 0]])
        w = ipw_weights(d, "v1", ["v0"])
        assert w[0] == pytest.approx(5 / 3)
        assert w[1] == pytest.approx(5 / 3)
        assert w[2] == 0.0
        assert w[3] == pytest.approx(3 / 2)

    def test_no_parents_gives_constant_weight(self):
        d = _dataset([2], [[0], [1], [MISSING], [0]])
        w = ipw_weights(d, "v0", [])
        assert np.allclose(w[[0, 1, 3]], 6 / 4)  # phat = (3+1)/(4+2)
        assert w[2] == 0.0

    def test_parent_missing_where_target_observed_rejected(self):
        d = _dataset([2, 2], [[MISSING, 0]])
        with pytest.raises(SchemaMismatch, match="detected parent 'v0' of 'v1' has missing cells"):
            ipw_weights(d, "v1", ["v0"])

    def test_parent_missing_where_target_missing_rejected(self):
        # a stratum is a state of the fully observed parents: a parent cell
        # missing even where the target is missing has no stratum
        d = _dataset([2, 2], [[MISSING, MISSING], [0, 0], [1, MISSING]])
        with pytest.raises(SchemaMismatch, match="detected parent 'v0' of 'v1' has missing cells"):
            ipw_weights(d, "v1", ["v0"])

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_row_by_row_oracle(self, data):
        cards = data.draw(st.lists(st.integers(2, 4), min_size=2, max_size=5))
        names = [f"v{i}" for i in range(len(cards))]
        n = data.draw(st.integers(0, 30))
        cells = st.tuples(*[st.integers(0, k - 1) for k in cards])
        rows = np.array(data.draw(st.lists(cells, min_size=n, max_size=n)),
                        dtype=np.int16).reshape(n, len(cards))
        target = data.draw(st.sampled_from(names))
        missing = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        rows[np.array(missing, dtype=bool), names.index(target)] = MISSING
        d = _dataset(cards, rows)
        # the parents in any order, each maybe listed twice
        parents = data.draw(st.lists(st.sampled_from([v for v in names if v != target])))
        assert np.array_equal(ipw_weights(d, target, parents),
                              ipw_weights_by_loop(d, target, parents))


# v0 of 3 states, v1 of 4; PARTIAL has one v1 cell missing
COMPLETE = [[0, 0], [1, 1], [2, 3], [0, 2], [1, 0]]
PARTIAL = COMPLETE[:-1] + [[1, MISSING]]
V0_V1 = Dag(["v0", "v1"], [("v0", "v1")])

# site -> (the call, on which rows, the cells of the tables it builds at once,
# what its refusal names)
TABLE_SITES = {
    "ipw strata": (lambda d: ipw_weights(d, "v1", ["v0"]), PARTIAL, 3,
                   "the IPW strata of 'v1'"),
    "family counts": (lambda d: BicScorer(d.schema, d.rows).family_score("v1", {"v0"}),
                      COMPLETE, 12, "the counts of 'v1'"),
    # the add v0 -> v1 is the only one: a 4 x 3 table
    "add stack": (lambda d: BicScorer(d.schema, d.rows).move_delta("v1", (), {"v0"}),
                  COMPLETE, 12, "scoring the parent additions of 'v1'"),
    "ipw family counts": (lambda d: IpwBicScorer(d, {}).family_score("v1", {"v0"}),
                          PARTIAL, 12, "the counts of 'v1'"),
    # v1's table on its observed rows (4 cells) and the add of v0 (12)
    "ipw add stack": (lambda d: IpwBicScorer(d, {}).move_delta("v1", (), {"v0"}),
                      PARTIAL, 16, "scoring the parent additions of 'v1'"),
    "mle cpt": (lambda d: fit_mle(V0_V1, d, 1.0), COMPLETE, 12, "the CPT of 'v1'"),
    "em cpt": (lambda d: em_fit(V0_V1, d, 1.0, 2, 1e-6), PARTIAL, 12, "the CPT of 'v1'"),
}


@pytest.mark.parametrize("site", sorted(TABLE_SITES))
def test_tables_over_the_cell_budget_are_refused(monkeypatch, site):
    call, rows, cells, what = TABLE_SITES[site]
    d = _dataset([3, 4], rows)
    monkeypatch.setattr(estimation, "TABLE_CAP", cells - 1)
    with pytest.raises(SchemaMismatch, match=(
            f"^{re.escape(what)} would take {cells} table cells, more than the budget of "
            f"{cells - 1}$")):
        call(d)
    monkeypatch.setattr(estimation, "TABLE_CAP", cells)
    call(d)


class TestWeightedCountsAndBic:
    def test_counts_match_hand_tally(self):
        rows = np.array([[0, 0], [0, 1], [1, 1]], dtype=np.int16)
        assert np.array_equal(family_counts(rows, [0], [2]), [[2, 1]])
        assert np.array_equal(family_counts(rows, [0, 1], [2, 2]), [[1, 1], [0, 1]])
        assert np.array_equal(family_counts(rows, [1, 0], [2, 2], np.array([1.0, 2.0, 3.0])),
                              [[1, 0], [2, 3]])

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_kernel_matches_plain_loop_tally(self, data):
        cards = data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=5))
        n = data.draw(st.integers(0, 30))
        cells = st.tuples(*[st.integers(0, k - 1) for k in cards])
        rows = np.array(data.draw(st.lists(cells, min_size=n, max_size=n)),
                        dtype=np.int16).reshape(n, len(cards))
        order = data.draw(st.permutations(range(len(cards))))
        cols = order[:data.draw(st.integers(1, len(cards)))]
        weights = data.draw(st.none() | st.lists(st.integers(0, 1000), min_size=n,
                                                 max_size=n).map(np.array))
        fcards = [cards[j] for j in cols]
        got = family_counts(rows, cols, fcards,
                            None if weights is None else weights.astype(float))
        assert got.dtype == np.float64
        assert np.array_equal(got, tally_counts(rows, cols, fcards, weights))

    def test_bic_matches_scorer(self):
        g, _, d = _random_instance(11, missing=0.0)
        scorer = BicScorer(d.schema, d.rows)
        assert bic(g, d) == pytest.approx(scorer.score(g), abs=1e-9)
        smoothed = BicScorer(d.schema, d.rows, pseudocount=2.0)
        assert bic(g, d, pseudocount=2.0) == pytest.approx(smoothed.score(g), abs=1e-9)


@st.composite
def _add_instances(draw):
    """Cardinalities, rows, row weights (none, integer or fractional), a
    pseudocount, a column order, a child, its old parents and a first
    parent to add."""
    k = draw(st.integers(0, 4))
    cards = draw(st.lists(st.integers(2, 4), min_size=k + 2, max_size=k + 4))
    n = draw(st.integers(1, 40))
    cells = st.tuples(*[st.integers(0, c - 1) for c in cards])
    rows = draw(st.lists(cells, min_size=n, max_size=n))
    weights = draw(st.sampled_from([None, "integer", "fractional"]))
    if weights is not None:
        values = st.integers(0, 5) if weights == "integer" else st.floats(0.0, 5.0)
        weights = draw(st.lists(values, min_size=n, max_size=n))
    pseudocount = draw(st.sampled_from([0.0, 0.5, 10.0]))
    order = draw(st.permutations(range(len(cards))))
    names = [f"v{j}" for j in order]
    child = draw(st.sampled_from(names))
    others = [v for v in names if v != child]
    old = draw(st.lists(st.sampled_from(others), min_size=k, max_size=k, unique=True))
    first = draw(st.sampled_from([v for v in others if v not in old]))
    return cards, rows, weights, pseudocount, order, child, old, first


class TestBicScorer:
    @pytest.mark.parametrize("scorer", [BicScorer, lambda schema, rows, pseudocount:
                                        IpwBicScorer(_dataset([2, 2], rows), {}, pseudocount)],
                             ids=["bic", "ipw"])
    @pytest.mark.parametrize("pseudocount", [math.nan, -0.5])
    def test_pseudocount_out_of_range_refused(self, scorer, pseudocount):
        # both were read as 0 by the pseudocount > 0 branch
        d = _dataset([2, 2], [[0, 0], [1, 1]])
        with pytest.raises(ConfigError, match=re.escape(
                f"pseudocount must be finite and >= 0, got {pseudocount!r}")):
            scorer(d.schema, d.rows, pseudocount=pseudocount)

    @pytest.mark.parametrize("weights", [[1, -5, 1, 1], [1, math.nan, 1, 1],
                                         [1, math.inf, 1, 1], [1, 1, 1], [[1, 1, 1, 1]]],
                             ids=["negative", "nan", "inf", "short", "2d"])
    def test_weights_that_are_not_one_finite_count_per_row_refused(self, weights):
        # a negative or NaN weight scored nan, and another shape raised
        # numpy's ValueError
        d = _dataset([2, 2], [[0, 0], [0, 1], [1, 1], [1, 0]])
        with pytest.raises(SchemaMismatch, match="^BIC weights must be 4 finite numbers >= 0$"):
            BicScorer(d.schema, d.rows, weights=weights)

    @pytest.mark.parametrize("n_effective, error, line", [
        (math.inf, SchemaMismatch, "BIC needs a positive sample size, got inf"),
        (math.nan, SchemaMismatch, "BIC needs a positive sample size, got nan"),
        (0, SchemaMismatch, "BIC needs a positive sample size, got 0"),
        ("5", ConfigError, "n_effective must be float, got '5'"),
        (True, ConfigError, "n_effective must be float, got True"),
    ], ids=["inf", "nan", "zero", "string", "bool"])
    def test_sample_size_that_is_not_a_finite_positive_number_refused(self, n_effective, error,
                                                                        line):
        # inf made every score -inf, and "5" and True were read as 5.0 and 1.0
        d = _dataset([2, 2], [[0, 0], [0, 1], [1, 1], [1, 0]])
        with pytest.raises(error, match="^" + re.escape(line) + "$"):
            BicScorer(d.schema, d.rows, n_effective=n_effective)

    @pytest.mark.parametrize("cell", [-1, 2, 65538], ids=["negative", "past-the-end", "wraps"])
    def test_rows_out_of_range_refused(self, cell):
        # -1 raised numpy's ValueError, a state 2 of a 2-state child was
        # counted in a cell of the next parent configuration, and 65538 was
        # cast to state 2
        rows = np.array([[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0], [0, 0, cell]])
        with pytest.raises(SchemaMismatch, match="^state index out of range in column 'v2'$"):
            BicScorer(_schema(2, 2, 2), rows)

    def test_rows_of_another_shape_refused(self):
        for rows in ([[0, 1, 0]], [0, 1]):
            with pytest.raises(SchemaMismatch, match="row matrix shape does not match schema"):
                BicScorer(_schema(2, 2), rows)

    def test_score_decomposes_over_families(self):
        g, _, d = _random_instance(12, missing=0.0)
        scorer = BicScorer(d.schema, d.rows)
        assert scorer.score(g) == pytest.approx(
            sum(scorer.family_score(v, g.parents(v)) for v in g.vertices))

    def test_move_delta_equals_score_difference(self):
        d = _dataset([2, 2, 2], np.random.default_rng(1).integers(0, 2, (80, 3)))
        scorer = BicScorer(d.schema, d.rows)
        g0 = Dag(["v0", "v1", "v2"], [("v0", "v2")])
        g1 = Dag(["v0", "v1", "v2"], [("v0", "v2"), ("v1", "v2")])
        delta = scorer.move_delta("v2", g0.parents("v2"), g1.parents("v2"))
        assert delta == pytest.approx(scorer.score(g1) - scorer.score(g0), abs=1e-9)

    def test_parent_order_does_not_matter(self):
        d = _dataset([2, 2, 2], np.random.default_rng(2).integers(0, 2, (50, 3)))
        scorer = BicScorer(d.schema, d.rows)
        assert scorer.family_score("v2", ("v0", "v1")) == scorer.family_score(
            "v2", ("v1", "v0"))

    @given(instance=_add_instances())
    @example(instance=(  # a subnormal count's ratio to its row sum underflows
        [2, 2, 2, 2], [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0), (1, 0, 0, 0)],
        [0.0, 5e-324, 0.0, 1.0], 0.0, [0, 1, 2, 3], "v3", [], "v0"))
    @settings(max_examples=200, deadline=None)
    def test_adds_score_as_each_family_alone(self, instance):
        # one move_delta scores every add of the child to the same parents
        # in one pass; each must have the bits of its table scored alone
        cards, rows, weights, pseudocount, order, child, old, first = instance
        rows = np.array(rows, dtype=np.int16).reshape(len(rows), len(cards))
        if weights is not None:
            weights = np.array(weights, dtype=float)
            weights[0] += 1.0  # a positive sample size
        # the column order decides where each added parent lands among the
        # old ones, from first to last
        schema = [_schema(*cards)[j] for j in order]
        rows = rows[:, order]
        names = [v.name for v in schema]
        old = frozenset(old)
        adds = [v for v in names if v != child and v not in old]
        scorer = BicScorer(schema, rows, weights, pseudocount)
        counted, count = [], scorer._family_counts

        def counted_count(*args):
            counted.append(args)
            return count(*args)

        scorer._family_counts = counted_count
        delta = scorer.move_delta(child, old, old | {first})
        assert counted == [(child, scorer._canon(old))]  # the old family alone

        def oracle(parents):
            family = sorted(parents, key=names.index) + [child]
            counts = family_counts(rows, [names.index(v) for v in family],
                                   [cards[order[names.index(v)]] for v in family], weights)
            return family_bic(counts, pseudocount, scorer.n_effective)

        assert scorer.family_score(child, old) == oracle(old)
        assert delta == oracle(old | {first}) - oracle(old)
        for y in adds:
            assert scorer.move_delta(child, old, old | {y}) == oracle(old | {y}) - oracle(old)
            assert math.isfinite(scorer.family_score(child, old | {y}))
        assert math.isfinite(scorer.family_score(child, old))
        assert len(counted) == 1

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_reverse_families_score_as_each_family_alone(self, data):
        # an add to an empty parent set also scores each reverse family
        # (y | {child}) from the transpose of the (child | {y}) table; with
        # cardinalities 2-5 most of those tables are not square
        cards = data.draw(st.lists(st.integers(2, 5), min_size=2, max_size=5))
        n = data.draw(st.integers(1, 40))
        cells = st.tuples(*[st.integers(0, k - 1) for k in cards])
        rows = np.array(data.draw(st.lists(cells, min_size=n, max_size=n)),
                        dtype=np.int16).reshape(n, len(cards))
        weights = data.draw(st.none() | st.lists(st.floats(1e-3, 5.0), min_size=n,
                                                 max_size=n).map(np.array))
        pseudocount = data.draw(st.just(0.0) | st.floats(0.01, 10.0))
        schema = _schema(*cards)
        names = [v.name for v in schema]
        pairs = [(child, y) for child in names for y in names if y != child]
        scorer = BicScorer(schema, rows, weights, pseudocount)
        for child, y in pairs:
            scorer.move_delta(child, (), {y})
        for child, y in pairs:
            fresh = BicScorer(schema, rows, weights, pseudocount)
            assert scorer.family_score(y, {child}) == fresh.family_score(y, {child})

    def test_bootstrap_weights_equal_duplicated_rows(self):
        d = _dataset([2, 2], [[0, 0], [0, 1], [1, 1]])
        dup = np.repeat(d.rows, [2, 1, 3], axis=0)
        weighted = BicScorer(d.schema, d.rows, weights=np.array([2.0, 1.0, 3.0]),
                             n_effective=6.0)
        plain = BicScorer(d.schema, dup)
        g = Dag(["v0", "v1"], [("v0", "v1")])
        assert weighted.score(g) == pytest.approx(plain.score(g), abs=1e-9)


class TestIpwBicScorer:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_reduces_to_plain_bic_on_complete_data(self, data):
        # with no partially observed variable every observed set is empty:
        # all rows, weight one, so every value has plain BIC's bits
        cards = data.draw(st.lists(st.integers(2, 4), min_size=2, max_size=6))
        names = [f"v{i}" for i in range(len(cards))]
        n = data.draw(st.integers(1, 60))
        cells = st.tuples(*[st.integers(0, k - 1) for k in cards])
        d = _dataset(cards, data.draw(st.lists(cells, min_size=n, max_size=n)))
        pseudocount = data.draw(st.sampled_from([0.0, 0.5, 10.0]))
        plain = BicScorer(d.schema, d.rows, pseudocount=pseudocount)
        ipw = IpwBicScorer(d, {}, pseudocount)
        for _ in range(data.draw(st.integers(0, 25))):
            child = data.draw(st.sampled_from(names))
            others = [v for v in names if v != child]
            old = frozenset(data.draw(st.sets(st.sampled_from(others))))
            new = old ^ {data.draw(st.sampled_from(others))}
            assert ipw.move_delta(child, old, new) == plain.move_delta(child, old, new)
            assert ipw.family_score(child, new) == plain.family_score(child, new)
        g = random_dag(np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))),
                       names, edge_prob=0.5)
        assert ipw.score(g) == plain.score(g)

    def test_move_delta_is_antisymmetric(self):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 2, (120, 3)).astype(np.int16)
        rows[rng.random(120) < 0.3, 1] = MISSING
        d = _dataset([2, 2, 2], rows)
        w = ipw_weights(d, "v1", ["v0"])
        scorer = IpwBicScorer(d, {"v1": w})
        fwd = scorer.move_delta("v2", (), ("v1",))
        back = scorer.move_delta("v2", ("v1",), ())
        assert fwd == pytest.approx(-back, abs=1e-9)

    @pytest.mark.parametrize("var_weights, line", [
        ({"v1_typo": np.ones(3)}, "unknown variable 'v1_typo'"),
        ({"v1": np.ones(1)}, "IPW weights for 'v1' have shape (1,), not (3,)"),
        ({"v1": np.ones((3, 1))}, "IPW weights for 'v1' have shape (3, 1), not (3,)"),
    ], ids=["unknown-variable", "length-one", "column"])
    def test_weights_for_an_unknown_variable_or_of_another_shape_refused(self, var_weights,
                                                                         line):
        # an unknown key was never read, and a length-1 vector broadcast
        # over every row: both scored as if unweighted
        d = _dataset([2, 2], [[0, 0], [0, MISSING], [1, 1]])
        with pytest.raises(SchemaMismatch, match=re.escape(line)):
            IpwBicScorer(d, var_weights)

    @pytest.mark.parametrize("bad", [-5.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
    def test_weights_that_are_not_finite_and_at_least_0_where_observed_refused(self, bad):
        # -5 scored nan, and inf scored under a numpy RuntimeWarning
        d = _dataset([2, 2], [[0, 0], [1, MISSING], [1, 1], [0, 1]])
        with pytest.raises(SchemaMismatch, match=re.escape(
                "IPW weights for 'v1' must be finite and >= 0 where it is observed")):
            IpwBicScorer(d, {"v1": np.array([1.0, 1.0, bad, 1.0])})
        # where v1 is missing no weight is read
        IpwBicScorer(d, {"v1": np.array([1.0, bad, 1.0, 1.0])})

    def test_weights_for_a_fully_observed_variable_refused(self):
        # no observed set holds v0, so its weights were accepted and never read
        d = _dataset([2, 2], [[0, 0], [0, MISSING], [1, 1]])
        with pytest.raises(SchemaMismatch, match=re.escape(
                "IPW weights for 'v0', which has no missing cell")):
            IpwBicScorer(d, {"v0": np.array([1.0, 2.0, 3.0]), "v1": np.ones(3)})

    def test_family_counts_use_family_complete_rows_only(self):
        d = _dataset([2, 2], [[0, 0], [0, MISSING], [1, 1]])
        scorer = IpwBicScorer(d, {"v1": np.array([1.0, 0.0, 1.0])})
        counts = scorer._counts_on("v1", ("v0",), frozenset({"v1"}))
        # the row with v1 missing contributes nothing
        assert counts.sum() == pytest.approx(2.0)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_plain_loop_oracle(self, data):
        cards = data.draw(st.lists(st.integers(2, 4), min_size=2, max_size=5))
        names = [f"v{i}" for i in range(len(cards))]
        n = data.draw(st.integers(1, 30))
        cells = st.tuples(*[st.integers(0, k - 1) for k in cards])
        rows = np.array(data.draw(st.lists(cells, min_size=n, max_size=n)),
                        dtype=np.int16).reshape(n, len(cards))
        # the first column stays fully observed, so IPW weights can use it
        partial = data.draw(st.sets(st.sampled_from(names[1:])))
        for v in partial:
            missing = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
            rows[np.array(missing, dtype=bool), names.index(v)] = MISSING
        d = _dataset(cards, rows)
        fully = [v for j, v in enumerate(names) if not d.mask[:, j].any()]
        # a variable drawn into partial may have drawn no missing cell, and
        # weights for a fully observed variable are refused
        var_weights = {v: ipw_weights(d, v, data.draw(st.sets(st.sampled_from(fully))))
                       for v in sorted(partial - set(fully)) if data.draw(st.booleans())}
        pseudocount = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        scorer = IpwBicScorer(d, var_weights, pseudocount)
        child = data.draw(st.sampled_from(names))
        others = [v for v in names if v != child]
        old = data.draw(st.sets(st.sampled_from(others)))
        new = data.draw(st.sets(st.sampled_from(others)))
        seen = set(names) - set(fully)
        obs = seen & (old | new | {child})
        want_new, want_old = (ipw_family_bic(d, var_weights, child, ps, obs, pseudocount)
                              for ps in (new, old))
        tol = 1e-12 * max(abs(want_new), abs(want_old), 1.0)
        assert abs(scorer.move_delta(child, old, new) - (want_new - want_old)) <= tol
        g = random_dag(np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))),
                       names, edge_prob=0.5)
        want = [ipw_family_bic(d, var_weights, v, g.parents(v),
                               seen & (g.parents(v) | {v}), pseudocount)
                for v in g.vertices]
        assert scorer.score(g) == pytest.approx(sum(want), rel=1e-12, abs=1e-12)
        # the parent set's type and order do not change a value, whether the
        # family is computed (a fresh scorer) or looked up
        shuffled = data.draw(st.permutations(sorted(new)))
        for ps in (list(shuffled), tuple(shuffled), set(new), frozenset(new)):
            fresh = IpwBicScorer(d, var_weights, pseudocount)
            for s in (fresh, scorer):
                assert s.move_delta(child, old, ps) == scorer.move_delta(child, old, new)
                assert s.family_score(child, ps) == scorer.family_score(child, new)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_observed_set_memo(self, data):
        """Queries that share an observed set are served from one memo entry
        and give the bits a scorer without that entry gives; the values
        agree with the plain-loop oracle (summation order aside)."""
        cards = data.draw(st.lists(st.integers(2, 4), min_size=2, max_size=5))
        names = [f"v{i}" for i in range(len(cards))]
        n = data.draw(st.integers(1, 40))
        cells = st.tuples(*[st.integers(0, k - 1) for k in cards])
        rows = np.array(data.draw(st.lists(cells, min_size=n, max_size=n)),
                        dtype=np.int16).reshape(n, len(cards))
        for v in data.draw(st.sets(st.sampled_from(names[1:]))):
            missing = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
            rows[np.array(missing, dtype=bool), names.index(v)] = MISSING
        d = _dataset(cards, rows)
        fully = [v for j, v in enumerate(names) if not d.mask[:, j].any()]
        seen = set(names) - set(fully)
        # some partially observed variables have no weights
        var_weights = {v: ipw_weights(d, v, data.draw(st.sets(st.sampled_from(fully))))
                       for v in sorted(seen) if data.draw(st.booleans())}
        pseudocount = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        scorer = IpwBicScorer(d, var_weights, pseudocount)

        def oracle(child, parents, obs):
            return ipw_family_bic(d, var_weights, child, parents, obs, pseudocount)

        queried = set()  # the observed sets that the queries touched
        for _ in range(data.draw(st.integers(1, 10))):
            child = data.draw(st.sampled_from(names))
            others = [v for v in names if v != child]
            old = data.draw(st.sets(st.sampled_from(others)))
            fresh = IpwBicScorer(d, var_weights, pseudocount)
            query = data.draw(st.sampled_from(["family", "move", "add"]))
            if query == "family" or old == set(others):
                obs = seen & (old | {child})
                got = scorer.family_score(child, old)
                assert got == fresh.family_score(child, old)
                want = oracle(child, old, obs)
                scale = abs(want)
            else:
                if query == "add":
                    new = old | {data.draw(st.sampled_from(sorted(set(others) - old)))}
                else:
                    new = data.draw(st.sets(st.sampled_from(others)))
                obs = seen & (old | new | {child})
                # an add that misses the cache scores every add to the same
                # parents, each on its own observed set
                if (old < new and len(new) == len(old) + 1
                        and (child, frozenset(new), frozenset(obs)) not in scorer._cache):
                    queried |= {frozenset(seen & (old | {child, y}))
                                for y in others if y not in old}
                got = scorer.move_delta(child, old, new)
                assert got == fresh.move_delta(child, old, new)
                want_new, want_old = oracle(child, new, obs), oracle(child, old, obs)
                want, scale = want_new - want_old, max(abs(want_new), abs(want_old))
            assert abs(got - want) <= 1e-12 * max(scale, 1.0)
            queried.add(frozenset(obs))
        # one entry per observed set touched, under the score cache's
        # frozenset, and no other
        assert set(scorer._observed) == queried
        assert len(scorer._observed) <= 2 ** len(scorer.partial)
        # each entry is one weight per row, exactly 0.0 off its set
        for obs, w in scorer._observed.items():
            off = d.mask[:, [names.index(v) for v in obs]].any(axis=1)
            assert w.dtype == np.float64 and w.shape == (d.n,)
            assert (w[off] == 0.0).all()

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_adds_score_as_each_family_alone(self, data):
        # one move_delta scores every add of the child to the same parents
        # and the old family on each add's observed set, in one pass; each
        # must have the bits of its family counted and scored alone
        k = data.draw(st.integers(0, 3))
        cards = data.draw(st.lists(st.integers(2, 4), min_size=k + 2, max_size=k + 5))
        n = data.draw(st.integers(1, 40))
        cells = st.tuples(*[st.integers(0, c - 1) for c in cards])
        rows = np.array(data.draw(st.lists(cells, min_size=n, max_size=n)),
                        dtype=np.int16).reshape(n, len(cards))
        # v0 stays fully observed, so IPW weights can use it
        for j in data.draw(st.sets(st.integers(1, len(cards) - 1))):
            missing = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
            rows[np.array(missing, dtype=bool), j] = MISSING
        # the column order puts each added parent at every place among the
        # old ones, and the observed sets' members in any order
        order = data.draw(st.permutations(range(len(cards))))
        d = CategoricalDataset([_schema(*cards)[j] for j in order], rows[:, order])
        names = list(d.names)
        fully = [v for j, v in enumerate(names) if not d.mask[:, j].any()]
        seen = set(names) - set(fully)
        # some partially observed variables have no weights
        var_weights = {v: ipw_weights(d, v, data.draw(st.sets(st.sampled_from(fully))))
                       for v in sorted(seen) if data.draw(st.booleans())}
        pseudocount = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        scorer = IpwBicScorer(d, var_weights, pseudocount)
        child = data.draw(st.sampled_from(names))
        others = [v for v in names if v != child]
        old = frozenset(data.draw(st.lists(st.sampled_from(others), min_size=k, max_size=k,
                                           unique=True)))
        adds = [v for v in others if v not in old]
        first = data.draw(st.sampled_from(adds))
        # earlier deletes, and adds scored alone, leave some families cached
        for y in sorted(old):
            if data.draw(st.booleans()):
                scorer.move_delta(child, old, old - {y})
        for y in adds:
            if y != first and data.draw(st.booleans()):
                scorer._score_on(child, old | {y}, frozenset(seen & (old | {child, y})))
        before = set(scorer._cache)
        scorer.move_delta(child, old, old | {first})
        batched = {key: val for key, val in scorer._cache.items() if key not in before}
        want = set()  # each uncached add, and the old family on its observed set
        for y in adds:
            obs = frozenset(seen & (old | {child, y}))
            if (child, old | {y}, obs) not in before:
                want |= {(child, old | {y}, obs), (child, old, obs)}
        assert set(batched) == want - before
        oracle = FamilyByFamilyIpw(scorer)
        for (c, parents, obs), val in batched.items():
            fresh = IpwBicScorer(d, var_weights, pseudocount)
            assert val == fresh._score_on(c, parents, obs) == oracle.score_on(c, parents, obs)
            assert math.isfinite(val)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_variable_without_weights_weighs_one(self, data):
        # a partially observed variable that var_weights leaves out gives
        # the bits of weights that are all one
        cards = data.draw(st.lists(st.integers(2, 4), min_size=2, max_size=5))
        names = [f"v{i}" for i in range(len(cards))]
        n = data.draw(st.integers(2, 40))
        cells = st.tuples(*[st.integers(0, k - 1) for k in cards])
        rows = np.array(data.draw(st.lists(cells, min_size=n, max_size=n)),
                        dtype=np.int16).reshape(n, len(cards))
        # v0 stays fully observed, so IPW weights can use it; v1 is missing
        # on the first row and observed on the second, and gets no weights
        for v in sorted({"v1"} | data.draw(st.sets(st.sampled_from(names[1:])))):
            missing = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
            if v == "v1":
                missing[:2] = [True, False]
            rows[np.array(missing, dtype=bool), names.index(v)] = MISSING
        d = _dataset(cards, rows)
        fully = [v for j, v in enumerate(names) if not d.mask[:, j].any()]
        seen = set(names) - set(fully)
        var_weights = {v: ipw_weights(d, v, data.draw(st.sets(st.sampled_from(fully))))
                       for v in sorted(seen - {"v1"}) if data.draw(st.booleans())}
        pseudocount = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        left_out = IpwBicScorer(d, var_weights, pseudocount)
        ones = IpwBicScorer(d, {**{v: np.ones(n) for v in seen}, **var_weights}, pseudocount)
        assert left_out.family_score("v1", ()) == ones.family_score("v1", ())
        for _ in range(data.draw(st.integers(1, 10))):
            child = data.draw(st.sampled_from(names))
            others = [v for v in names if v != child]
            old = data.draw(st.sets(st.sampled_from(others)))
            new = data.draw(st.sets(st.sampled_from(others)))
            assert left_out.move_delta(child, old, new) == ones.move_delta(child, old, new)
            assert left_out.family_score(child, new) == ones.family_score(child, new)

    @pytest.mark.parametrize("junk", [np.nan, np.inf])
    def test_weights_where_the_variable_is_missing_are_never_read(self, junk):
        # a row where v is missing lies outside every observed set that holds
        # v, so v's weight there, whatever it is, gives the bits of 0.0
        rng = np.random.default_rng(6)
        rows = rng.integers(0, 3, (150, 4)).astype(np.int16)
        for j in (1, 2, 3):
            rows[rng.random(150) < 0.3, j] = MISSING
        d = _dataset([3, 3, 3, 3], rows)
        zero = {v: ipw_weights(d, v, ["v0"]) for v in ("v1", "v2", "v3")}
        dirty = {v: np.where(d.mask[:, d.index(v)], junk, w) for v, w in zero.items()}
        a, b = IpwBicScorer(d, zero), IpwBicScorer(d, dirty)
        for child in d.names:
            others = [v for v in d.names if v != child]
            for old in itertools.chain.from_iterable(
                    itertools.combinations(others, k) for k in range(3)):
                for y in others:
                    new = set(old) ^ {y}
                    assert a.move_delta(child, old, new) == b.move_delta(child, old, new)
                assert a.family_score(child, old) == b.family_score(child, old)

    def test_mean_one_normalisation_caps_total_evidence(self):
        rng = np.random.default_rng(4)
        rows = rng.integers(0, 2, (200, 2)).astype(np.int16)
        rows[rng.random(200) < 0.4, 1] = MISSING
        d = _dataset([2, 2], rows)
        w = ipw_weights(d, "v1", ["v0"])
        scorer = IpwBicScorer(d, {"v1": w})
        counts = scorer._counts_on("v1", ("v0",), frozenset({"v1"}))
        n_seen = (~d.mask[:, 1]).sum()
        assert counts.sum() == pytest.approx(float(n_seen))
