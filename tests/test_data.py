import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from missdag.data import (
    MAX_STATES,
    MISSING,
    MISSING_TOKENS,
    AmputationEntry,
    AmputationSpec,
    CategoricalDataset,
    VariableSchema,
    ampute,
    bootstrap,
    csv_line,
    forward_sample,
    impute_mode,
    logistic,
    logit,
    mixed_radix,
    read_csv,
    split,
    write_csv,
)
from missdag.errors import ConfigError, MalformedCsv, MissDagError, SchemaMismatch
from missdag.estimation import fit_mle
from missdag.graphs import Dag

from oracles import (
    amputation_spec_json,
    logistic_by_scipy,
    mixed_radix_by_loop,
    random_params,
    read_csv_by_cell,
)


def _schema(*cards):
    return [VariableSchema(f"v{i}", tuple(f"s{k}" for k in range(c)))
            for i, c in enumerate(cards)]


def _dataset(cards, rows):
    rows = np.asarray(rows, dtype=np.int16)
    return CategoricalDataset(_schema(*cards), rows)


def _labels(d):
    """Each cell's state label, None where it is missing."""
    return [[None if d.mask[r, c] else v.states[d.rows[r, c]]
             for c, v in enumerate(d.schema)] for r in range(d.n)]


class TestMixedRadix:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_plain_loop(self, data):
        cards = data.draw(st.lists(st.integers(2, 40), min_size=0, max_size=5))
        n = data.draw(st.integers(0, 20))
        cells = st.tuples(*[st.integers(0, k - 1) for k in cards])
        dtype = data.draw(st.sampled_from([np.int16, np.int64]))
        rows = np.array(data.draw(st.lists(cells, min_size=n, max_size=n)),
                        dtype=dtype).reshape(n, len(cards))
        order = data.draw(st.permutations(range(len(cards))))
        cols = order[:data.draw(st.integers(0, len(cards)))]
        ccards = [cards[j] for j in cols]
        got = mixed_radix(rows, cols, ccards)
        assert got.dtype == np.int64 and got.shape == (n,)
        assert got.tolist() == mixed_radix_by_loop(rows, cols, ccards)


class TestSchema:
    def test_requires_two_states(self):
        with pytest.raises(Exception):
            VariableSchema("x", ("only",))

    @pytest.mark.parametrize("token", MISSING_TOKENS)
    def test_missing_token_state_rejected(self, token):
        with pytest.raises(SchemaMismatch,
                           match=f"variable 'x' has state label {token!r}, which a CSV reads"):
            VariableSchema("x", ("a", token))

    def test_cardinality(self):
        assert VariableSchema("x", ("a", "b", "c")).cardinality == 3

    def test_more_states_than_a_cell_holds_rejected(self):
        labels = [f"s{i}" for i in range(MAX_STATES + 1)]
        assert VariableSchema("x", labels[:-1]).cardinality == MAX_STATES
        with pytest.raises(SchemaMismatch, match=f"variable 'x' has {MAX_STATES + 1} states, "
                                                 f"more than the {MAX_STATES} a cell can hold"):
            VariableSchema("x", labels)


class TestDataset:
    def test_missing_cells_come_from_sentinel(self):
        d = _dataset([2, 2], [[0, MISSING], [1, 0]])
        assert d.mask[0, 1] and not d.mask[1, 1]
        assert not d.is_complete()
        assert _dataset([2, 2], [[0, 1]]).is_complete()

    def test_arrays_are_write_protected(self):
        d = _dataset([2], [[0], [1]])
        with pytest.raises(ValueError):
            d.rows[0, 0] = 1
        with pytest.raises(ValueError):
            d.mask[0, 0] = True

    def test_take_preserves_mask(self):
        d = _dataset([2, 2], [[0, MISSING], [1, 0], [0, 1]])
        t = d.take([2, 0])
        assert t.n == 2
        assert t.mask[1, 1] and not t.mask[0, 1]
        assert t.rows[0, 1] == 1


# tokens that a CSV cell or header may hold: missing-cell tokens, the pad
# labels, CSV syntax, line breaks, a lone carriage return and Unicode
HOSTILE = ["", "NA", "na", " ", "a", "b", "__pad0", "__pad1", 'q"q', '"', "x,y",
           "line\nbreak", "cr\r", "\r\n", "é", "日本"]
TOKENS = st.sampled_from(HOSTILE) | st.text(max_size=3)


@st.composite
def csv_texts(draw):
    """Raw text over CSV syntax characters, or records of a few hostile
    tokens (so some columns are degenerate) written by ``csv.writer``:
    0-3 columns, 0-5 rows, some of them ragged, maybe no header."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(alphabet=',"\n\r aNA\u00e9', max_size=30))
    p = draw(st.integers(0, 3))
    pool = draw(st.lists(TOKENS, min_size=1, max_size=4))
    record = (st.lists(st.sampled_from(pool), min_size=p, max_size=p)
              | st.lists(st.sampled_from(pool), max_size=p + 1))
    records = draw(st.lists(record, max_size=5))
    if draw(st.booleans()):
        records.insert(0, draw(st.lists(TOKENS, min_size=p, max_size=p)))
    buf = io.StringIO()
    csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(records)
    return buf.getvalue()


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    """One file that every example of a property test overwrites."""
    return tmp_path_factory.mktemp("csv") / "d.csv"


def _read_outcome(read, path):
    """The dataset ``read`` returns, or the type and message of the error it
    raises."""
    try:
        d = read(path)
    except MissDagError as exc:
        return type(exc), str(exc)
    return d.schema, d.rows.tolist(), d.mask.tolist()


class TestCsv:
    @given(csv_texts())
    @settings(max_examples=200, deadline=None)
    def test_read_matches_cell_by_cell_reader(self, csv_path, text):
        csv_path.write_text(text, encoding="utf-8", newline="")
        assert _read_outcome(read_csv, csv_path) == _read_outcome(read_csv_by_cell, csv_path)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_write_then_read_keeps_every_label(self, csv_path, data):
        names = data.draw(st.lists(TOKENS, max_size=3, unique=True))
        labels = TOKENS.filter(lambda t: t not in MISSING_TOKENS)
        schema = [VariableSchema(name, data.draw(st.lists(labels, min_size=2, max_size=4,
                                                          unique=True)))
                  for name in names]
        record = st.tuples(*[st.integers(MISSING, v.cardinality - 1) for v in schema])
        n = data.draw(st.integers(0, 5))
        rows = np.array(data.draw(st.lists(record, min_size=n, max_size=n)),
                        dtype=np.int16).reshape(n, len(schema))
        d = CategoricalDataset(schema, rows)
        write_csv(d, csv_path)
        back = read_csv(csv_path)
        assert back.names == d.names
        assert _labels(back) == _labels(d)

    @given(st.lists(st.text()))
    @settings(max_examples=300, deadline=None)
    def test_csv_line_reads_back_and_matches_csv_writer(self, fields):
        line = csv_line(fields)
        assert list(csv.reader(io.StringIO(line + "\n", newline=""))) == [fields]
        # csv.writer leaves a field with a "\r" but no comma, quote or "\n"
        # bare, which a reader ends the record at; csv_line quotes it
        if not any("\r" in f for f in fields):
            out = io.StringIO()
            csv.writer(out, lineterminator="\n").writerow(fields)
            assert out.getvalue() == line + "\n"

    def test_field_over_the_size_limit_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n0,1\n1," + "x" * (csv.field_size_limit() + 1) + "\n")
        with pytest.raises(MalformedCsv, match=r"d\.csv: line 3: field larger than"):
            read_csv(path)

    def test_ragged_row_reported_before_a_column_with_too_many_states(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n" + "".join(f"t{i},0\n" for i in range(33000)) + "x\n")
        with pytest.raises(MalformedCsv, match="row 33001 has 1 fields, expected 2"):
            read_csv(path)

    def test_round_trip_with_missing(self, tmp_path):
        # reading infers the states, so cells are compared by label
        d = _dataset([2, 3], [[0, MISSING], [1, 2], [MISSING, 0]])
        path = tmp_path / "d.csv"
        write_csv(d, path)
        back = read_csv(path)
        assert back.names == d.names
        assert _labels(back) == _labels(d)

    def test_schema_free_read_orders_states_by_appearance(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\nhigh,NA\nlow,yes\n")
        d = read_csv(path)
        assert d.variable("x").states == ("high", "low")
        assert d.mask[0, 1]

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n0\n")
        with pytest.raises(MalformedCsv):
            read_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(MalformedCsv):
            read_csv(path)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n\xff,0\n")
        with pytest.raises(MalformedCsv):
            read_csv(path)


class TestForwardSample:
    def test_deterministic_and_matches_cpt_frequencies(self):
        g = Dag(["a", "b"], [("a", "b")])
        rng = np.random.default_rng(5)
        params = random_params(rng, g, {"a": 2, "b": 3})
        d1 = forward_sample(g, params, 20000, seed=9)
        d2 = forward_sample(g, params, 20000, seed=9)
        assert d1 == d2
        fitted = fit_mle(g, d1, pseudocount=0.0)
        assert np.abs(fitted.table("a") - params.table("a")).max() < 0.02
        assert np.abs(fitted.table("b") - params.table("b")).max() < 0.05

    def test_negative_size_rejected(self):
        g = Dag(["a"])
        params = random_params(np.random.default_rng(5), g, {"a": 2})
        assert forward_sample(g, params, 0, seed=9).n == 0
        with pytest.raises(ConfigError):
            forward_sample(g, params, -1, seed=9)


class TestAmputation:
    def test_logit_inverts_expit(self):
        assert logit(0.5) == 0.0
        assert logit(0.0) == -math.inf and logit(1.0) == math.inf

    @settings(max_examples=500, deadline=None)
    @given(st.floats())
    @example(math.inf)
    @example(-math.inf)
    @example(math.nan)
    @example(709.8)
    @example(-709.8)
    @example(745.0)
    @example(-745.0)
    @example(800.0)
    @example(-800.0)
    @example(5e-324)
    @example(-5e-324)
    @example(2.2250738585072014e-308)
    @example(-1e-310)
    def test_logistic_is_scipy_expit_bit_for_bit(self, x):
        ours, ref = logistic(x), logistic_by_scipy(x)
        assert ours == ref or (math.isnan(ours) and math.isnan(ref))

    def test_ampute_masks_the_cells_scipy_expit_would(self, monkeypatch):
        # intercepts and weights far enough out that the logistic rounds to
        # 0 or 1, or overflows, next to ordinary ones
        g = Dag(["a", "b", "c"], [("a", "b")])
        d = forward_sample(g, random_params(np.random.default_rng(0), g,
                                            {"a": 3, "b": 2, "c": 2}), 3000, seed=0)
        spec = AmputationSpec((
            AmputationEntry("b", "MNAR", drivers=("a",), intercept=-1.3,
                            weights={"a": {"s1": 745.0, "s2": -0.7}}),
            AmputationEntry("c", "MNAR", drivers=("a", "c"), intercept=0.4,
                            weights={"a": {"s0": -800.0}, "c": {"s1": 2.1}}),
            AmputationEntry("a", "MCAR", intercept=logit(0.25)),
        ), seed=3)
        ours = ampute(d, spec)
        monkeypatch.setattr("missdag.data.logistic", logistic_by_scipy)
        assert np.array_equal(ours.rows, ampute(d, spec).rows)

    def test_mcar_entry_forbids_drivers(self):
        with pytest.raises(ConfigError, match="MCAR entries take no drivers"):
            AmputationEntry("x", "MCAR", drivers=("w",))

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(Exception):
            AmputationEntry("x", "WRONG")

    def test_mcar_rate_matches_intercept(self):
        d = _dataset([2], [[0]] * 50000)
        spec = AmputationSpec((AmputationEntry("v0", "MCAR", intercept=logit(0.3)),), seed=1)
        a = ampute(d, spec)
        rate = a.mask[:, 0].mean()
        assert abs(rate - 0.3) < 0.01

    def test_mar_rates_differ_by_driver_state(self):
        rows = np.array([[0, 0]] * 20000 + [[1, 0]] * 20000, dtype=np.int16)
        d = _dataset([2, 2], rows)
        spec = AmputationSpec(
            (AmputationEntry("v1", "MAR", drivers=("v0",), intercept=logit(0.1),
                             weights={"v0": {"s1": logit(0.6) - logit(0.1)}}),),
            seed=2)
        a = ampute(d, spec)
        lo = a.mask[d.column("v0") == 0, 1].mean()
        hi = a.mask[d.column("v0") == 1, 1].mean()
        assert abs(lo - 0.1) < 0.01 and abs(hi - 0.6) < 0.01

    def test_mnar_self_masking_reads_pre_amputation_value(self):
        rows = np.array([[0]] * 20000 + [[1]] * 20000, dtype=np.int16)
        d = _dataset([2], rows)
        spec = AmputationSpec(
            (AmputationEntry("v0", "MNAR", drivers=("v0",), intercept=logit(0.05),
                             weights={"v0": {"s1": logit(0.5) - logit(0.05)}}),),
            seed=3)
        a = ampute(d, spec)
        lo = a.mask[:20000, 0].mean()
        hi = a.mask[20000:, 0].mean()
        assert abs(lo - 0.05) < 0.01 and abs(hi - 0.5) < 0.02

    def test_deterministic_given_seed(self):
        d = _dataset([2, 2], np.random.default_rng(0).integers(0, 2, (500, 2)))
        spec = AmputationSpec((AmputationEntry("v0", "MCAR", intercept=0.0),), seed=7)
        assert ampute(d, spec) == ampute(d, spec)

    def test_entry_order_gives_independent_streams(self):
        d = _dataset([2, 2], np.zeros((1000, 2), dtype=np.int16))
        e0 = AmputationEntry("v0", "MCAR", intercept=0.0)
        e1 = AmputationEntry("v1", "MCAR", intercept=0.0)
        a = ampute(d, AmputationSpec((e0, e1), seed=7))
        b = ampute(d, AmputationSpec((e1, e0), seed=7))
        # entry index, not target name, selects the substream
        assert a.mask[:, 0].tolist() == b.mask[:, 1].tolist()

    def test_incomplete_target_rejected(self):
        d = _dataset([2], [[MISSING], [0]])
        spec = AmputationSpec((AmputationEntry("v0", "MCAR", intercept=0.0),), seed=0)
        with pytest.raises(SchemaMismatch, match="target 'v0' must be complete before amputation"):
            ampute(d, spec)

    def test_mar_driver_amputed_elsewhere_rejected(self):
        d = _dataset([2, 2], np.zeros((2000, 2), dtype=np.int16))
        spec = AmputationSpec(
            (AmputationEntry("v0", "MCAR", intercept=logit(0.5)),
             AmputationEntry("v1", "MAR", drivers=("v0",), intercept=logit(0.2))),
            seed=4)
        with pytest.raises(SchemaMismatch,
                           match="MAR driver 'v0' is not fully observed after amputation"):
            ampute(d, spec)

    def test_spec_naming_unknown_column_rejected(self):
        d = _dataset([2], [[0], [1]])
        for entry in (AmputationEntry("zz", "MCAR"),
                      AmputationEntry("v0", "MAR", drivers=("zz",))):
            with pytest.raises(ConfigError, match="zz"):
                ampute(d, AmputationSpec((entry,), seed=0))

    @pytest.mark.parametrize("target", [
        {"target": "x", "mechanism": "NMAR"},
        {"target": "x", "mechanism": "MCAR", "drivers": ["w"]},
        {"target": "x", "mechanism": "MCAR", "drvers": []},
        {"target": "x", "mechanism": "MCAR", "intercept": float("inf")},
        {"target": "x", "mechanism": "MAR", "drivers": ["w"], "intercept": 0.0,
         "weights": {"w": {"s1": float("-inf")}}}])
    def test_malformed_entry_in_json_rejected(self, target):
        with pytest.raises(ConfigError):
            AmputationSpec.from_json(json.dumps({"seed": 0, "targets": [target]}))

    def test_json_round_trip(self):
        spec = AmputationSpec(
            (AmputationEntry("x", "MNAR", drivers=("x",), intercept=-2.0,
                             weights={"x": {"s1": 1.5}}),
             AmputationEntry("y", "MCAR")),
            seed=42)
        assert AmputationSpec.from_json(amputation_spec_json(spec)) == spec

    def test_omitted_intercept_amputes_nothing(self):
        spec = AmputationSpec.from_json(json.dumps(
            {"seed": 0, "targets": [{"target": "v0", "mechanism": "MCAR"}]}))
        assert spec.entries[0].intercept == -math.inf
        d = _dataset([2], np.zeros((500, 1), dtype=np.int16))
        assert not ampute(d, spec).mask.any()

    @pytest.mark.parametrize("weights, match", [
        ({"v0": {"s1": 1.0}}, r"entry 0 \(target 'v1'\) weights 'v0', which is not one of"),
        ({"v1": {"s9": 1.0}}, r"entry 0 \(target 'v1'\) weights states \['s9'\] that driver"),
    ])
    def test_weights_that_match_nothing_rejected(self, weights, match):
        d = _dataset([2, 2], np.zeros((10, 2), dtype=np.int16))
        entry = AmputationEntry("v1", "MNAR", drivers=("v1",), intercept=0.0, weights=weights)
        with pytest.raises(ConfigError, match=match):
            ampute(d, AmputationSpec((entry,), seed=0))


class TestImputeMode:
    def test_fills_with_column_mode(self):
        d = _dataset([3], [[2], [2], [0], [MISSING]])
        assert impute_mode(d).rows[3, 0] == 2

    def test_ties_go_to_lowest_state(self):
        d = _dataset([3], [[2], [0], [MISSING]])
        assert impute_mode(d).rows[2, 0] == 0

    def test_all_missing_column_rejected(self):
        d = _dataset([2], [[MISSING], [MISSING]])
        with pytest.raises(SchemaMismatch, match="column 'v0' has no observed cells"):
            impute_mode(d)


class TestResampling:
    def test_bootstrap_same_size_and_deterministic(self):
        d = _dataset([2], [[0], [1], [1], [0]])
        b1, b2 = bootstrap(d, 5), bootstrap(d, 5)
        assert b1.n == d.n and b1 == b2
        assert b1 != bootstrap(d, 6) or True  # different seed may coincide

    def test_bootstrap_empty_rejected(self):
        d = _dataset([2], np.zeros((0, 1), dtype=np.int16))
        with pytest.raises(SchemaMismatch, match="cannot resample an empty dataset"):
            bootstrap(d, 0)

    def test_split_sizes_and_disjointness(self):
        rows = np.arange(10, dtype=np.int16).reshape(-1, 1) % 2
        d = CategoricalDataset(_schema(2), rows)
        train, test = split(d, 0.3, seed=1)
        assert test.n == 3 and train.n == 7

    def test_split_partitions_rows(self):
        rows = np.arange(50, dtype=np.int16).reshape(-1, 1)
        d = CategoricalDataset([VariableSchema("v0", tuple(f"s{k}" for k in range(50)))], rows)
        train, test = split(d, 0.2, seed=3)
        assert sorted(train.rows[:, 0].tolist() + test.rows[:, 0].tolist()) == list(range(50))

    def test_split_bad_fraction_rejected(self):
        d = _dataset([2], [[0], [1]])
        for f in (0.0, 1.0, -0.1):
            with pytest.raises(ConfigError, match="held-out fraction must lie in"):
                split(d, f, seed=0)
