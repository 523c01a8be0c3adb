import csv
import io
import json
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from missdag.data import (
    CSV_CHUNK_CELLS,
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
    unique_rows,
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
    unique_rows_by_dict,
    write_csv_whole,
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


class TestUniqueRows:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_dict_of_tuples(self, data):
        dtype, n, p = data.draw(st.tuples(st.sampled_from([np.int16, bool]), st.integers(0, 30),
                                          st.integers(0, 6)))
        # few distinct rows, so that most rows repeat one; all equal too
        distinct = data.draw(st.integers(1, 4))
        pool = np.array(data.draw(st.lists(st.integers(-1, 2), min_size=distinct * p,
                                           max_size=distinct * p))).reshape(distinct, p)
        rows = pool.astype(dtype)[data.draw(st.lists(st.integers(0, distinct - 1),
                                                      min_size=n, max_size=n))]
        if data.draw(st.booleans()):
            rows = np.asfortranarray(rows)
        first, inverse, counts = unique_rows(rows)
        assert first.shape == counts.shape and inverse.shape == (n,)
        # the oracle lists the distinct rows as they first appear
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        want_first, want_inverse, want_counts = unique_rows_by_dict(rows)
        assert first[order].tolist() == want_first
        assert rank[inverse].tolist() == want_inverse
        assert counts[order].tolist() == want_counts

    def test_no_rows_no_columns_and_all_rows_equal(self):
        # a byte view of rows of no columns would raise IndexError
        for rows, want in [(np.zeros((0, 3), np.int16), ([], [], [])),
                           (np.zeros((0, 0), np.int16), ([], [], [])),
                           (np.zeros((4, 0), np.int16), ([0], [0] * 4, [4])),
                           (np.full((4, 3), 2, np.int16), ([0], [0] * 4, [4]))]:
            assert tuple(a.tolist() for a in unique_rows(rows)) == want


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

    def test_take_of_a_boolean_selection_returns_the_selected_rows(self):
        # a cast to row numbers read [False, True, True] as rows 0, 1, 1
        d = _dataset([3], [[0], [1], [2]])
        assert d.take(np.array([False, True, True])) == _dataset([3], [[1], [2]])
        assert d.take([True, False, True]) == _dataset([3], [[0], [2]])

    @pytest.mark.parametrize("idx", [[-1], [0.5], [True], [0, 3], [[0]]],
                             ids=["negative", "float", "short-mask", "past-the-end", "2d"])
    def test_take_refuses_a_selection_that_is_not_rows(self, idx):
        # numpy wrapped -1 to the last row and raised IndexError for the rest
        d = _dataset([3], [[0], [1], [2]])
        with pytest.raises(SchemaMismatch, match=r"row numbers in 0 \.\. 2 or one bool per row"):
            d.take(idx)

    def test_take_of_no_rows_is_an_empty_dataset(self):
        # np.asarray([]) is a float array, which numpy refuses as an index
        d = _dataset([3], [[0], [1], [2]])
        assert d.take([]) == _dataset([3], np.zeros((0, 1)))

    @pytest.mark.parametrize("rows", [[[0.5, 1.7]], [["1", "0"]], [[True, False]],
                                      np.array([[1.0, 0.0]])],
                             ids=["fractions", "strings", "bools", "whole-floats"])
    def test_rows_that_are_not_integers_refused(self, rows):
        # the int16 cast truncated [[0.5, 1.7]] to [[0, 1]] and parsed "1"
        with pytest.raises(SchemaMismatch, match="rows must hold integer state indices"):
            CategoricalDataset(_schema(2, 2), rows)

    def test_an_empty_float_array_is_no_rows(self):
        assert CategoricalDataset(_schema(2, 2), np.empty((0, 2))).n == 0

    @pytest.mark.parametrize("rows", [np.array([[0], [65537]]), [[0], [65537]], [[0], [-2]]],
                             ids=["int64", "python-int", "negative"])
    def test_state_range_is_checked_before_the_cast(self, rows):
        # an int64 65537 wrapped to state 1 of a 3-state column, and a
        # Python int raised numpy's OverflowError
        with pytest.raises(SchemaMismatch, match="state index out of range in column 'v0'"):
            CategoricalDataset(_schema(3), rows)

    def test_rows_of_another_shape_refused(self):
        for rows in ([[0, 1, 0]], [0, 1], np.zeros((2, 2, 2), dtype=np.int16)):
            with pytest.raises(SchemaMismatch, match="row matrix shape does not match schema"):
                CategoricalDataset(_schema(2, 2), rows)

    def test_duplicate_variable_names_refused(self):
        schema = [VariableSchema("v", ("a", "b")), VariableSchema("v", ("a", "b"))]
        with pytest.raises(SchemaMismatch, match="duplicate variable names in schema"):
            CategoricalDataset(schema, [[0, 1]])


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


@st.composite
def datasets(draw, max_n=5):
    """0-3 columns named and labelled by hostile tokens, 0 .. max_n rows,
    some cells missing."""
    names = draw(st.lists(TOKENS, max_size=3, unique=True))
    labels = TOKENS.filter(lambda t: t not in MISSING_TOKENS)
    schema = [VariableSchema(name, draw(st.lists(labels, min_size=2, max_size=4, unique=True)))
              for name in names]
    record = st.tuples(*[st.integers(MISSING, v.cardinality - 1) for v in schema])
    n = draw(st.integers(0, max_n))
    rows = np.array(draw(st.lists(record, min_size=n, max_size=n)),
                    dtype=np.int16).reshape(n, len(schema))
    return CategoricalDataset(schema, rows)


# chunk sizes of a few cells, so that a small file spans several chunks
SMALL_CHUNKS = st.integers(1, 7)


def _wide_dataset(n, p, seed):
    """n rows of p columns of 2-4 states, 5% of the cells missing."""
    rng = np.random.default_rng(seed)
    schema = [VariableSchema(f"V{j:02d}", tuple(f"s{k}" for k in range(2 + j % 3)))
              for j in range(p)]
    rows = np.stack([rng.integers(0, v.cardinality, n) for v in schema], axis=1)
    rows[rng.random((n, p)) < 0.05] = MISSING
    return CategoricalDataset(schema, rows)


def _peak_bytes(call, *args):
    """The tracemalloc peak of one call."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCsv:
    @given(csv_texts())
    @settings(max_examples=200, deadline=None)
    def test_read_matches_cell_by_cell_reader(self, csv_path, text):
        csv_path.write_text(text, encoding="utf-8", newline="")
        assert _read_outcome(read_csv, csv_path) == _read_outcome(read_csv_by_cell, csv_path)

    @given(csv_texts() | datasets(max_n=12), SMALL_CHUNKS)
    @settings(max_examples=200, deadline=None)
    def test_read_matches_cell_by_cell_reader_in_small_chunks(self, csv_path, source, cells):
        # states carried from chunk to chunk, and faults in any chunk; most
        # of csv_texts' files of several rows are ragged, so datasets'
        # files are read too
        if isinstance(source, str):
            csv_path.write_text(source, encoding="utf-8", newline="")
        else:
            write_csv_whole(source, csv_path)
        with mock.patch("missdag.data.CSV_CHUNK_CELLS", cells):
            assert _read_outcome(read_csv, csv_path) == _read_outcome(read_csv_by_cell,
                                                                      csv_path)

    @given(datasets(max_n=12), st.just(CSV_CHUNK_CELLS) | SMALL_CHUNKS)
    @settings(max_examples=200, deadline=None)
    def test_write_matches_whole_file_writer(self, csv_path, d, cells):
        write_csv_whole(d, csv_path)
        whole = csv_path.read_bytes()
        with mock.patch("missdag.data.CSV_CHUNK_CELLS", cells):
            write_csv(d, csv_path)
        assert csv_path.read_bytes() == whole

    @given(datasets())
    @settings(max_examples=100, deadline=None)
    def test_write_then_read_keeps_every_label(self, csv_path, d):
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

    def test_leftmost_column_with_too_many_states_reported(self, tmp_path):
        # c goes over MAX_STATES chunks before a and b, which go over in
        # the same chunk
        path = tmp_path / "d.csv"
        k = MAX_STATES + 1
        path.write_text("a,b,c\n" + "".join(f"x,y,u{i}\n" for i in range(k))
                        + "".join(f"t{i},v{i},u0\n" for i in range(k)))
        with pytest.raises(MalformedCsv, match=f"column 'a' has more than {MAX_STATES} "):
            read_csv(path)

    def test_decode_error_in_a_later_chunk_reported_before_a_ragged_row(self, tmp_path):
        # the ragged row is in the first chunk of records, the byte that is
        # not UTF-8 in the third
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n0\n" + b"0,1\n" * CSV_CHUNK_CELLS + b"\xff,0\n")
        with pytest.raises(MalformedCsv, match=r"d\.csv: not UTF-8 text: .* byte 0xff"):
            read_csv(path)

    def test_read_holds_one_chunk_of_strings(self, tmp_path):
        # a read that holds the whole file as strings peaks at 12.7 MB
        path = tmp_path / "d.csv"
        write_csv(_wide_dataset(4000, 50, seed=0), path)
        assert _peak_bytes(read_csv, path) < 4e6

    def test_write_holds_one_chunk_of_strings(self, tmp_path):
        # a write that builds every line first peaks at 4.3 MB
        assert _peak_bytes(write_csv, _wide_dataset(4000, 50, seed=0), tmp_path / "d.csv") < 1e6

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

    def test_byte_order_mark_is_not_read_into_the_first_name(self, tmp_path):
        # spreadsheets' "CSV UTF-8" exports start with one
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbfA,B\n0,1\n")
        d = read_csv(path)
        assert d.names == ("A", "B")
        assert d.variable("A").states == ("0", "__pad0")

    def test_first_name_that_starts_with_a_byte_order_mark_reads_back(self, tmp_path):
        d = CategoricalDataset([VariableSchema("\ufeffA", ("x", "y")),
                                VariableSchema("B", ("x", "y"))],
                               np.array([[0, 1], [1, MISSING]], dtype=np.int16))
        path = tmp_path / "d.csv"
        write_csv(d, path)
        back = read_csv(path)
        assert back.names == d.names
        assert _labels(back) == _labels(d)

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

    @pytest.mark.parametrize("n, seed, line", [
        (2.5, 1, "sample size n must be int, got 2.5"),
        (True, 1, "sample size n must be int, got True"),
        (3, -1, "seed must be >= 0, got -1"),
        (3, None, "seed must be int, got None"),
    ], ids=["float-size", "bool-size", "negative-seed", "no-seed"])
    def test_size_and_seed_must_be_ints(self, n, seed, line):
        # a float size raised a bare TypeError, a negative seed numpy's
        # ValueError, and None drew a fresh seed from the operating system
        g = Dag(["a"])
        params = random_params(np.random.default_rng(5), g, {"a": 2})
        with pytest.raises(ConfigError, match=f"^{re.escape(line)}$"):
            forward_sample(g, params, n, seed)


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

    @pytest.mark.parametrize("seed, line", [(-1, "must be >= 0, got -1"),
                                            (1.5, "must be int, got 1.5")])
    def test_spec_seed_is_checked_however_the_spec_is_built(self, seed, line):
        # only the JSON reader checked it; ampute raised numpy's ValueError
        entries = (AmputationEntry("v0", "MCAR", intercept=0.0),)
        with pytest.raises(ConfigError, match=f"^amputation spec field 'seed' {line}$"):
            AmputationSpec(entries, seed)

    def test_incomplete_driver_rejected(self):
        d = _dataset([2, 2], [[0, MISSING], [1, 0]])
        spec = AmputationSpec((AmputationEntry("v0", "MAR", drivers=("v1",), intercept=0.0),),
                              seed=0)
        with pytest.raises(SchemaMismatch, match="driver 'v1' has missing cells in the input"):
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
         "weights": {"w": {"s1": float("-inf")}}},
        # each listing would add the driver's weights to the predictor again
        {"target": "x", "mechanism": "MNAR", "drivers": ["x", "x"], "intercept": -1.0,
         "weights": {"x": {"s1": 1.0}}}])
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

    def test_predictor_past_the_float_range_saturates_without_a_warning(self):
        # 1e308 + 1e308 overflows to inf, whose logistic is 1, as is that of
        # 1e308: every cell goes missing
        spec = AmputationSpec((AmputationEntry("v0", "MNAR", drivers=("v0",), intercept=1e308,
                                               weights={"v0": {"s1": 1e308}}),), seed=0)
        d = _dataset([2], np.arange(100, dtype=np.int16).reshape(-1, 1) % 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ampute(d, spec).mask.all()

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
        d = _dataset([4], [[0], [1], [2], [3]])
        b1, b2 = bootstrap(d, 5), bootstrap(d, 5)
        assert b1.n == d.n and b1 == b2
        # two seeds may draw the same resample, but not ten of them
        assert len({bootstrap(d, seed).rows.tobytes() for seed in range(10)}) > 1

    def test_bootstrap_of_one_row_is_that_row(self):
        d = _dataset([3], [[2]])
        assert bootstrap(d, 0) == d

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

    def test_split_fraction_must_be_a_number(self):
        # "0.2" raised a bare TypeError from the range comparison
        d = _dataset([2], [[0], [1]])
        with pytest.raises(ConfigError, match="held-out fraction must be float, got '0.2'"):
            split(d, "0.2", seed=1)

    @pytest.mark.parametrize("resample", [lambda d, seed: bootstrap(d, seed),
                                          lambda d, seed: split(d, 0.5, seed)],
                             ids=["bootstrap", "split"])
    @pytest.mark.parametrize("seed, line", [(-1, "seed must be >= 0, got -1"),
                                            (1.5, "seed must be int, got 1.5")],
                             ids=["negative", "float"])
    def test_resampling_seed_must_be_an_int_at_least_0(self, resample, seed, line):
        # numpy raised its own ValueError or TypeError
        d = _dataset([2], [[0], [1]])
        with pytest.raises(ConfigError, match=f"^{re.escape(line)}$"):
            resample(d, seed)

    def test_resampling_takes_a_seed_sequence(self):
        d = _dataset([4], [[0], [1], [2], [3]])
        stream = np.random.SeedSequence(7)
        assert bootstrap(d, stream) == bootstrap(d, np.random.SeedSequence(7))
        assert split(d, 0.5, stream) == split(d, 0.5, np.random.SeedSequence(7))
