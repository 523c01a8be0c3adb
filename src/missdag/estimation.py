"""Parameter estimation and scoring for categorical Bayesian networks.

Covers maximum-likelihood CPTs, exact-marginalization log-likelihood over
incomplete rows, EM, inverse-probability weights for missingness correction,
and decomposable BIC scoring with a family-score cache. All log quantities
are in nats.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .data import CategoricalDataset, VariableSchema, family_counts, mixed_radix, unique_rows
from .errors import (
    SchemaMismatch,
    TooManyMissingInRow,
    checked_keys,
    checked_number,
    checked_strings,
    json_object,
    reading,
)
from .graphs import Dag

ENUMERATION_CAP = 2 ** 22  # rows of one completion block
TABLE_CAP = 2 ** 24  # cells of the count tables or CPTs built at once: 128 MiB of float64
# how far a CPT row sum may be from 1: 1e-9 absolute plus 1e-5 relative, the
# accept set of np.allclose(row_sums, 1.0, atol=1e-9)
ROW_SUM_TOL = 1e-9 + 1e-5
# checked_number's rule for a pseudocount or a tolerance, as SearchOptions has it
_FINITE_AT_LEAST_0 = ("be finite and >= 0", lambda v: 0 <= v < math.inf)


class ParameterSet:
    """One entry per variable, ``(parents, table, states)``: the CPT is
    indexed by the lexicographic parent-state product (first parent most
    significant), and its columns are the states. Building a set only
    stores it: ``check_graph`` checks the CPTs against the graph they are
    used on, and every use calls it."""

    __slots__ = ("variables",)

    def __init__(self, variables: Mapping[str, Tuple[Tuple[str, ...], np.ndarray,
                                                     Tuple[str, ...]]]):
        self.variables = {v: (tuple(ps), np.asarray(t, dtype=float), tuple(s))
                          for v, (ps, t, s) in variables.items()}

    def parents(self, v: str) -> Tuple[str, ...]:
        return self.variables[v][0]

    def table(self, v: str) -> np.ndarray:
        return self.variables[v][1]

    def states(self, v: str) -> Tuple[str, ...]:
        return self.variables[v][2]

    def check_graph(self, g: Dag) -> None:
        """Refuse CPTs that do not fit ``g``: a CPT for a variable ``g``
        lacks, a vertex without a CPT, parents other than the vertex's
        parents in ``g``, each listed once, a table whose shape is not
        (product of the parents' numbers of states, number of states), a
        row whose sum is more than ``ROW_SUM_TOL`` from 1, or a negative
        cell. The package's own fits pass by construction, and are not
        checked until they are used."""
        extra = sorted(set(self.variables) - set(g.vertices))
        if extra:
            raise SchemaMismatch(f"CPTs for variables the graph lacks: {extra}")
        for v in g.vertices:
            if v not in self.variables:
                raise SchemaMismatch(f"no CPT for {v!r}")
        for v in g.vertices:
            parents, table, states = self.variables[v]
            if sorted(parents) != sorted(g.parents(v)):
                raise SchemaMismatch(f"CPT parents for {v!r} do not match the graph")
            shape = (math.prod(len(self.states(p)) for p in parents), len(states))
            if table.shape != shape:
                raise SchemaMismatch(f"CPT for {v!r} has shape {table.shape}, expected {shape}")
            # NaN and +-inf sums fail the comparison
            if not (np.abs(table.sum(axis=1) - 1.0) <= ROW_SUM_TOL).all():
                raise SchemaMismatch(f"CPT rows for {v!r} do not sum to 1")
            if (table < 0).any():
                raise SchemaMismatch(f"CPT for {v!r} has a negative probability")

    @staticmethod
    def from_json(text: str) -> "ParameterSet":
        doc = json_object(text, "parameter file", ("variables",))
        variables = {}
        with reading("parameter file"):
            for v, spec in doc["variables"].items():
                checked_keys(spec, ("parents", "table", "states"), f"parameter file entry {v!r}")
                table = np.array([[checked_number(x, float, f"CPT cell of {v!r}") for x in row]
                                  for row in spec["table"]])
                states = spec.get("states", [str(i) for i in range(table.shape[1])])
                variables[v] = (checked_strings(spec["parents"], f"parents of {v!r}"), table,
                                checked_strings(states, f"states of {v!r}"))
        return ParameterSet(variables)


@dataclass(frozen=True)
class ScoreValue:
    log_likelihood: float


@dataclass
class EmTrace:
    log_likelihoods: List[float]
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.log_likelihoods)


def fit_mle(g: Dag, d: CategoricalDataset, pseudocount: float) -> ParameterSet:
    """Per-family counting estimator, each vertex's parents in the dataset's
    column order; unseen parent configurations with zero pseudocount get a
    uniform row."""
    pseudocount = checked_number(pseudocount, float, "pseudocount", *_FINITE_AT_LEAST_0)
    if d.mask.any():
        raise SchemaMismatch("fit_mle requires complete data")
    block = d.rows[:, [d.index(v) for v in g.vertices]]
    return _m_step(d, *_coded_families(g, d, block, d.index), None, pseudocount)


def _coded_families(g: Dag, d: CategoricalDataset, block: np.ndarray, position):
    """The families of ``g`` over ``block``, whose columns are the vertices
    in order: each vertex's parents sorted by ``position``, each CPT's
    shape, and each family's code (``_family_codes``)."""
    cards = {v: d.variable(v).cardinality for v in g.vertices}
    parents = {v: tuple(sorted(g.parents(v), key=position)) for v in g.vertices}
    shapes = [(math.prod(cards[u] for u in ps), cards[v]) for v, ps in parents.items()]
    for v, shape in zip(parents, shapes):
        _check_cells(math.prod(shape), "the CPT of", v)
    return parents, shapes, _family_codes(block, g.vertices, parents.__getitem__, cards)


def _check_cells(cells: int, what: str, name: str) -> None:
    """Refuse tables of more than ``TABLE_CAP`` cells before they are
    allocated. The message, ``what`` and the quoted ``name``, is built only
    then: built on every family miss, such strings raised the peak RSS of
    the ``hc-wide-csv`` benchmark by about 0.7 MB."""
    if cells > TABLE_CAP:
        raise SchemaMismatch(f"{what} {name!r} would take {cells} table cells, more than "
                             f"the budget of {TABLE_CAP}")


def _m_step(d: CategoricalDataset, parents: Mapping[str, Tuple[str, ...]],
            shapes: Sequence[Tuple[int, int]], codes: Sequence[np.ndarray],
            weights: Optional[np.ndarray], pseudocount: float) -> ParameterSet:
    """The CPTs of the families that ``_coded_families`` gives: each is one
    weighted ``bincount`` of the family's code, the table ``family_counts``
    would give, normalised row by row with the pseudocount; with none, a
    parent configuration never seen gets a uniform row."""
    variables = {}
    for (v, ps), shape, code in zip(parents.items(), shapes, codes):
        counts = np.bincount(code, weights, minlength=math.prod(shape)).astype(float)
        counts = counts.reshape(shape)
        rowsum = counts.sum(axis=1, keepdims=True)
        if pseudocount > 0:
            table = (counts + pseudocount) / (rowsum + pseudocount * shape[1])
        else:
            table = np.full_like(counts, 1.0 / shape[1])
            seen = rowsum[:, 0] > 0
            table[seen] = counts[seen] / rowsum[seen]
        variables[v] = ps, table, d.variable(v).states
    return ParameterSet(variables)


def _family_codes(block: np.ndarray, vertices: Sequence[str], parents_of,
                  cards: Mapping[str, int]) -> List[np.ndarray]:
    """Per vertex, the flat index of each block row's cell in its CPT: the
    mixed-radix code of the parents in the order ``parents_of(v)`` gives
    them, then the vertex, over a block whose columns are ``vertices`` in
    order. Each code has the narrowest integer type that holds its table:
    int16 up to 2^15 cells, else int32, as no table exceeds ``TABLE_CAP``."""
    col = {v: j for j, v in enumerate(vertices)}
    codes = []
    for v in vertices:
        family = tuple(parents_of(v)) + (v,)
        fcards = [cards[u] for u in family]
        dtype = np.int16 if math.prod(fcards) <= 2 ** 15 else np.int32
        codes.append(mixed_radix(block, [col[u] for u in family], fcards).astype(dtype))
    return codes


def _joint_logp(tables: Sequence[np.ndarray], codes: Sequence[np.ndarray],
                nrows: int) -> np.ndarray:
    """Each of ``nrows`` rows' joint log-probability: the log CPT entries
    its family codes point at, summed in vertex order."""
    logp = np.zeros(nrows)
    with np.errstate(divide="ignore"):
        for table, code in zip(tables, codes):
            logp += np.log(table).ravel().take(code)
    return logp


def _mask_patterns(mask: np.ndarray):
    """The distinct rows of a boolean matrix and the pattern of each row: the
    result of ``np.unique(mask, axis=0, return_inverse=True)``, found by
    ``unique_rows`` over the rows' packed bits. Packed bits compare as bytes
    in the order of the booleans, so the patterns come in the same order."""
    first, inverse, _ = unique_rows(np.packbits(mask, axis=1))
    return mask[first], inverse


def _completion_index(d: CategoricalDataset, vertices: Tuple[str, ...],
                      cards: Mapping[str, int]):
    """Every completion of the rows of ``d`` over the vertices' columns,
    built on first use and kept on the dataset (which never changes).

    Returns (block, origin, complete, groups), all read-only: the completed
    rows, pattern-major in ``np.unique`` order of the missingness patterns,
    rows ascending within a pattern, completions in ``itertools.product``
    order; the original row of each block row; the rows without missing
    cells, which are block rows ``0 .. len(complete) - 1``; and for each
    completion count k > 1, the original rows with k completions and the
    ``(rows, k)`` block positions of those completions. A block of more than
    ``ENUMERATION_CAP`` rows raises ``TooManyMissingInRow`` before anything
    is allocated. The block is filled a column at a time, with no loop over
    patterns: each column is gathered through ``origin``, and each missing
    cell's state is a digit of the completion's number within its row.

    Memory: block rows is the sum over rows of the product of the
    cardinalities of their missing cells. The block takes block rows × p ×
    2 bytes, and ``origin`` and the groups' positions up to 16 bytes more
    per block row.
    """
    index = d._completions.get(vertices)
    if index is not None:
        return index
    cols = [d.index(v) for v in vertices]
    mask = d.mask[:, cols]
    patterns, inverse = _mask_patterns(mask)
    card = [cards[v] for v in vertices]
    counts = [math.prod(c for c, m in zip(card, pattern) if m) for pattern in patterns.tolist()]
    sizes = np.bincount(inverse, minlength=len(patterns))
    total = sum(k * size for k, size in zip(counts, sizes.tolist()))
    if total > ENUMERATION_CAP:
        raise TooManyMissingInRow(
            f"row marginalization needs {total} completed rows, "
            f"more than the budget of {ENUMERATION_CAP}")
    order = np.argsort(inverse, kind="stable")
    pattern_of = inverse[order]
    k_row = np.asarray(counts, dtype=np.intp)[pattern_of]
    first = np.cumsum(k_row) - k_row  # block row of each row's first completion
    origin = np.repeat(order, k_row)
    # In completion t of its row (counted from 0, in itertools.product
    # order), the missing cell of column j is (t // stride) % card[j]: the
    # stride is the product of the cardinalities of the pattern's missing
    # columns after j. An observed cell, zeroed in `sub`, gets a stride above
    # any t and so adds 0. Strides, t and digits are below ENUMERATION_CAP,
    # so int32 temporaries hold them.
    missing_card = np.where(patterns, np.asarray(card, dtype=np.int64), 1)
    # the product of the pattern's missing cardinalities from column j on
    from_j = np.cumprod(missing_card[:, ::-1], axis=1)[:, ::-1]
    stride = np.where(patterns, from_j // missing_card, np.iinfo(np.int32).max).astype(np.int32)
    t = np.arange(total, dtype=np.int32)
    t -= np.repeat(first.astype(np.int32), k_row)
    block_pattern = np.repeat(pattern_of.astype(np.int32), k_row)
    digit = np.empty(total, dtype=np.int32)
    sub = d.rows[:, cols]
    sub[mask] = 0
    # column-major, so that a family's counts read contiguous columns
    block = np.empty((total, len(cols)), dtype=np.int16, order="F")
    for j, (c, any_missing) in enumerate(zip(card, patterns.any(axis=0).tolist())):
        sub[:, j].take(origin, out=block[:, j])
        if any_missing:
            stride[:, j].take(block_pattern, out=digit)
            np.floor_divide(t, digit, out=digit)
            digit %= c
            block[:, j] += digit
    del t, block_pattern, digit  # freed before the groups' positions are built
    # the rows without missing cells have the one pattern of one completion,
    # the first in np.unique order
    complete = order[:sizes[0] if counts and counts[0] == 1 else 0]
    # per count k > 1, in the order k first appears among the patterns
    groups = []
    for k in dict.fromkeys(k for k in counts if k > 1):
        sel = np.flatnonzero(k_row == k)
        groups.append((order[sel], first[sel, None] + np.arange(k)))
    groups = tuple(groups)
    for a in (block, origin, complete, *itertools.chain.from_iterable(groups)):
        a.setflags(write=False)
    index = (block, origin, complete, groups)
    d._completions[vertices] = index
    return index


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """Log-sum-exp of each row, in the operations and order of
    ``scipy.special.logsumexp`` so the result has the same bits: the row
    maximum and its ties are taken out of the shifted sum, and a result that
    is not finite falls back to the unshifted sum."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        amax = a.max(axis=1, keepdims=True)
        ismax = a == amax
        m = ismax.sum(axis=1, keepdims=True, dtype=float)
        s = np.exp(np.where(ismax, -np.inf, a) - amax).sum(axis=1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = (np.log1p(s) + np.log(m) + amax)[:, 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.exp(a[bad]).sum(axis=1))
    return out


def expand_completions(tables: Sequence[np.ndarray], codes: Sequence[np.ndarray], index,
                       n: int):
    """The E-step: exact enumeration of the missing-cell completions of a
    completion index (``_completion_index``) under the CPTs ``tables``
    (vertex order), read through the family ``codes`` over its block rows.

    Returns (rows, weights, origin, row_ll): the completed row block and the
    original row of each block row, both the index's own and read-only; the
    posterior weight of each completion (summing to 1 per original row); and
    each of the ``n`` original rows' observed-data log-likelihood. A row of
    probability 0 (log-likelihood -inf, which EM's own rows never reach)
    gets NaN weights.
    """
    block, origin, complete, groups = index
    logp = _joint_logp(tables, codes, block.shape[0])
    weights = np.ones(block.shape[0])
    row_ll = np.empty(n)
    row_ll[complete] = logp[:complete.size]
    for ridx, pos in groups:
        a = logp[pos]
        ll = _logsumexp_rows(a)
        row_ll[ridx] = ll
        with np.errstate(invalid="ignore"):  # -inf - -inf
            weights[pos] = np.exp(a - ll[:, None])
    return block, weights, origin, row_ll


def log_likelihood(params: ParameterSet, g: Dag, d: CategoricalDataset) -> float:
    """Sum of per-row log-likelihoods; rows with missing cells contribute the
    exact marginal over all completions (one ``expand_completions``)."""
    params.check_graph(g)
    # check_graph ties each table's width to its labels, so this covers
    # the number of states too
    for v in g.vertices:
        if params.states(v) != d.variable(v).states:
            raise SchemaMismatch(f"CPT states for {v!r} are not the dataset's, in order")
    tables = [params.table(v) for v in g.vertices]
    cards = {v: d.variable(v).cardinality for v in g.vertices}
    if d.is_complete():
        block = d.rows[:, [d.index(v) for v in g.vertices]]
        row_ll = _joint_logp(tables, _family_codes(block, g.vertices, params.parents, cards), d.n)
    else:
        index = _completion_index(d, g.vertices, cards)
        codes = _family_codes(index[0], g.vertices, params.parents, cards)
        row_ll = expand_completions(tables, codes, index, d.n)[3]
    return float(np.sum(row_ll))


def rescale_ll(values: Sequence[float], n: int) -> List[float]:
    """Divide by sample size, then by the maximum absolute per-sample value."""
    if not values:
        raise SchemaMismatch("no score values to rescale")
    if n <= 0:
        raise SchemaMismatch("sample size must be positive")
    per = [v / n for v in values]
    m = max(abs(v) for v in per)
    if m == 0.0:
        raise SchemaMismatch("all per-sample values are zero")
    return [v / m for v in per]


def em_fit(g: Dag, d: CategoricalDataset, pseudocount: float, max_iter: int,
           tol: float) -> Tuple[ParameterSet, EmTrace, Tuple[np.ndarray, np.ndarray]]:
    """EM with exact E-step enumeration: one E-step at the start, then per
    iteration the convergence test, an M-step and an E-step. The trace
    holds the observed-data LL of the E-step each iteration tests.

    Returns (params, trace, (block, weights)): the fitted parameters, the
    trace, and the E-step at those parameters, the last one it ran, which
    is the completion block (read-only) and each completion's posterior
    weight. So ``max_iter`` 0 builds the block and runs one E-step at the
    available-case start.

    Each family is coded over the completion block once per fit (parents
    in column order, as the fitted CPTs have them). Each E-step is one
    ``expand_completions`` call, which reads the log CPTs through those
    codes, and ``_m_step`` counts them, over the complete rows alone for
    the start.
    """
    pseudocount = checked_number(pseudocount, float, "pseudocount", *_FINITE_AT_LEAST_0)
    max_iter = checked_number(max_iter, int, "max_iter", "be >= 0", lambda v: v >= 0)
    tol = checked_number(tol, float, "tol", *_FINITE_AT_LEAST_0)
    index = _completion_index(d, g.vertices, {v: d.variable(v).cardinality for v in g.vertices})
    parents, shapes, codes = _coded_families(g, d, index[0], g.vertices.index)
    # available-case start: the rows without missing cells, which are the
    # block's first rows, smoothed so every completion has positive mass
    params = _m_step(d, parents, shapes, [code[:index[2].size] for code in codes], None,
                     max(pseudocount, 1.0))
    _, weights, _, row_ll = expand_completions([params.table(v) for v in g.vertices], codes,
                                               index, d.n)
    trace: List[float] = []
    converged = False
    prev = -math.inf
    for _ in range(max_iter):
        ll = float(np.sum(row_ll))
        trace.append(ll)
        if ll - prev < tol:
            converged = True
            break
        prev = ll
        params = _m_step(d, parents, shapes, codes, weights, pseudocount)
        _, weights, _, row_ll = expand_completions([params.table(v) for v in g.vertices], codes,
                                                   index, d.n)
    return params, EmTrace(trace, converged), (index[0], weights)


def ipw_weights(d: CategoricalDataset, target: str,
                detected_parents: Iterable[str]) -> np.ndarray:
    """Per-row inverse-probability weights for the target's observation.

    The strata are the states of the detected parents, which must be fully
    observed (``hc_aipw`` detects them among the fully observed columns).
    Stratum observation rates use pseudocount 1; rows with the target
    missing get weight 0.
    """
    parents = sorted(set(detected_parents), key=d.index)
    pcols = [d.index(p) for p in parents]
    for p, jp in zip(parents, pcols):
        if d.mask[:, jp].any():
            raise SchemaMismatch(f"detected parent {p!r} of {target!r} has missing cells")
    cards = [d.variable(p).cardinality for p in parents]
    ncfg = math.prod(cards)
    _check_cells(ncfg, "the IPW strata of", target)
    observed = ~d.mask[:, d.index(target)]
    code = mixed_radix(d.rows, pcols, cards)
    total = np.bincount(code, minlength=ncfg).astype(float)
    obs = np.bincount(code[observed], minlength=ncfg).astype(float)
    phat = (obs + 1.0) / (total + 2.0)
    weights = np.zeros(d.n)
    weights[observed] = 1.0 / phat[code[observed]]
    return weights


def _family_bics(counts: np.ndarray, rows_per_table: Sequence[int], pseudocount: float,
                 n_effective: float) -> List[float]:
    """BIC of each family whose count table is stacked in ``counts``: table t
    is the next ``rows_per_table[t]`` rows, and all tables share the child
    (the columns). A family's BIC is the log-likelihood of its (smoothed)
    conditional frequencies minus 1/2 log n per free parameter. Every
    element-wise step runs once over the stack; each table's log-likelihood
    is one ``sum`` over its own terms, so a family gets the same bits in any
    stack, alone included (``np.add.reduceat`` would move them). A positive
    count always gives a finite term, subnormal weights included."""
    nz = counts > 0
    row = nz.nonzero()[0]  # the table row of each term, ascending
    c = counts[nz]
    r = counts.sum(axis=1)[row]
    card = counts.shape[1]
    if pseudocount > 0:
        c_hat, r_hat = c + pseudocount, r + pseudocount * card
    else:
        c_hat, r_hat = c, r
    ratio = c_hat / r_hat
    # a subnormal count over a larger row sum underflows to 0: take the
    # logarithms apart for those terms only, so the others keep their bits
    under = ratio == 0
    ratio[under] = 1.0
    logs = np.log(ratio)
    logs[under] = np.log(c_hat[under]) - np.log(r_hat[under])
    terms = c * logs
    per_row = 0.5 * math.log(n_effective) * (card - 1)
    # np.add.reduce is what ndarray.sum calls, without its Python wrapper
    if len(rows_per_table) == 1:
        return [float(np.add.reduce(terms)) - per_row * rows_per_table[0]]
    ends = np.searchsorted(row, np.cumsum(rows_per_table)).tolist()
    return [float(np.add.reduce(terms[start:end])) - per_row * rows
            for start, end, rows in zip([0] + ends, ends, rows_per_table)]


class BicScorer:
    """Decomposable BIC with a (child, parent-set) family-score cache.

    Operates on complete rows, optionally weighted (expected counts from an
    EM completion); the penalty's sample size ``n_effective`` is the row
    count unless given. A lookup keys the family by the parent set as
    given; only a cache miss puts the parents in column order to count the
    family. An add move that misses scores all of its child's uncached adds
    to the same parents in one pass (see ``move_delta``), to the bits each
    would get alone. On an empty parent set that pass also scores each
    reverse family (y | {child}) from the same tables, transposed, so the
    first sweep of a hill climb from the empty graph counts each pair of
    variables once.

    ``rows`` must hold one state index 0 .. cardinality - 1 per schema
    variable, ``weights`` one finite number >= 0 per row, and
    ``n_effective`` must be a finite number > 0; other rows, weights or
    sample sizes raise ``SchemaMismatch``, or ``ConfigError`` for a sample
    size that is not a number.
    """

    def __init__(self, schema: Sequence[VariableSchema], rows: np.ndarray,
                 weights: Optional[np.ndarray] = None, pseudocount: float = 0.0,
                 n_effective: Optional[float] = None):
        self.schema = tuple(schema)
        rows = np.asarray(rows)
        cards = np.array([v.cardinality for v in self.schema])
        if rows.shape[1:] != cards.shape:
            raise SchemaMismatch("row matrix shape does not match schema")
        # checked before the int16 cast, which would wrap a large index; a
        # state index past the cardinality would be counted in another cell
        bad_cols = ~((rows.min(axis=0, initial=0) >= 0) & (rows.max(axis=0, initial=0) < cards))
        if bad_cols.any():
            raise SchemaMismatch("state index out of range in column "
                                 f"{self.schema[int(bad_cols.argmax())].name!r}")
        # column-major (no copy if it already is): a family reads its columns
        self.rows = np.asfortranarray(rows, dtype=np.int16)
        self.weights = None if weights is None else np.asarray(weights, dtype=float)
        if weights is not None and (self.weights.shape != rows.shape[:1] or not (
                (0 <= self.weights) & (self.weights < math.inf)).all()):
            # a negative or NaN weight would make the score NaN
            raise SchemaMismatch(f"BIC weights must be {rows.shape[0]} finite numbers >= 0")
        self.pseudocount = checked_number(pseudocount, float, "pseudocount",
                                          *_FINITE_AT_LEAST_0)
        # a number, then finite and > 0: at inf every score would be -inf
        self.n_effective = checked_number(self.rows.shape[0] if n_effective is None
                                          else n_effective, float, "n_effective")
        if not 0 < self.n_effective < math.inf:
            raise SchemaMismatch(f"BIC needs a positive sample size, got {self.n_effective:g}")
        self._col = {v.name: i for i, v in enumerate(self.schema)}
        self._card = {v.name: v.cardinality for v in self.schema}
        self._cache: Dict[tuple, float] = {}

    def _canon(self, names: Iterable[str]) -> Tuple[str, ...]:
        return tuple(sorted(names, key=self._col.__getitem__))

    def family_score(self, child: str, parents: Iterable[str]) -> float:
        key = (child, frozenset(parents))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        return self._cache_scores([key], [self._family_counts(child, self._canon(key[1]))])[0]

    def _family_counts(self, child: str, parents: Tuple[str, ...]):
        family = parents + (child,)
        cards = [self._card[v] for v in family]
        _check_cells(math.prod(cards), "the counts of", child)
        return family_counts(self.rows, [self._col[v] for v in family], cards, self.weights)

    def _add_tables(self, base: np.ndarray, weights: Optional[np.ndarray],
                    parents: Tuple[str, ...], child: str,
                    adds: Sequence[str]) -> List[np.ndarray]:
        """The count table of each family that adds one vertex y of ``adds``
        to the ``parents`` (column order) of ``child``, over every row with
        its weight in ``weights`` (one each if None), where ``base`` codes
        the rows over the parents followed by the child. y's counts are one
        ``bincount`` of that code times y's cardinality (one product per
        cardinality) plus y, and their table is transposed so that y sits at
        its column-order place among the parents, as ``family_counts`` would
        lay it out."""
        pcols = [self._col[v] for v in parents]
        pcards = [self._card[v] for v in parents]
        card, ncfg = self._card[child], math.prod(pcards)
        code = np.empty_like(base)
        tables = []
        shifted: Dict[int, np.ndarray] = {}  # y's cardinality -> base * card_y
        for y in adds:
            j, card_y = self._col[y], self._card[y]
            shift = shifted.get(card_y)
            if shift is None:
                shift = shifted[card_y] = base * card_y
            np.add(shift, self.rows[:, j], out=code)
            counts = np.bincount(code, weights, minlength=ncfg * card * card_y)
            # axes (parents before y, parents after y, child, y) -> y in place
            before = math.prod(pcards[:bisect.bisect(pcols, j)])
            tables.append(counts.reshape(before, ncfg // before, card, card_y)
                          .transpose(0, 3, 1, 2).reshape(-1, card))
        return tables

    def _cache_scores(self, keys: Sequence[tuple], tables: Sequence[np.ndarray]) -> List[float]:
        """Score the count tables of one child's families in one stack, each
        to the bits it gets alone, cache each under its key and return the
        scores."""
        bics = _family_bics(np.concatenate(tables, dtype=float), [t.shape[0] for t in tables],
                            self.pseudocount, self.n_effective)
        self._cache.update(zip(keys, bics))
        return bics

    def _score_adds(self, child: str, old: frozenset) -> None:
        """Cache the score of every family that adds one vertex y to the
        parents ``old`` of ``child``, where it is missing, from one code of
        the parents (column order) followed by the child.

        With ``old`` empty it also caches each reverse family (y | {child}).
        Its table is the transpose of (child | {y}): the same bins, filled by
        the same rows in the same order, so it gets the bits that
        ``family_counts`` would give. A sweep from the empty graph thus
        counts each pair of variables once. The reverse tables are stacked
        by y's cardinality, as a stack shares its child's columns."""
        keys, adds = [], []
        for v in self.schema:
            if v.name != child and v.name not in old:
                key = (child, old | {v.name})
                if key not in self._cache:
                    keys.append(key)
                    adds.append(v.name)
        family = self._canon(old) + (child,)
        cards = [self._card[v] for v in family]
        _check_cells(math.prod(cards) * sum(self._card[y] for y in adds),
                     "scoring the parent additions of", child)
        base = mixed_radix(self.rows, [self._col[v] for v in family], cards)
        tables = self._add_tables(base, self.weights, family[:-1], child, adds)
        self._cache_scores(keys, tables)
        if not old:
            reverse: Dict[int, list] = {}  # y's cardinality -> [(key, table)]
            for y, t in zip(adds, tables):
                reverse.setdefault(self._card[y], []).append(((y, frozenset({child})), t.T))
            for stack in reverse.values():
                self._cache_scores(*zip(*stack))

    def score(self, g: Dag) -> float:
        return sum(self.family_score(v, g.parents(v)) for v in g.vertices)

    def move_delta(self, child: str, old_parents: Iterable[str],
                   new_parents: Iterable[str]) -> float:
        """The family score of the new parents minus that of the old. An add
        (one more parent) whose family misses the cache first scores every
        add to the old parents in one pass: those are the moves a hill climb
        asks for next."""
        old, new = frozenset(old_parents), frozenset(new_parents)
        if old < new and len(new) == len(old) + 1 and (child, new) not in self._cache:
            self._score_adds(child, old)
        return self.family_score(child, new) - self.family_score(child, old)


class IpwBicScorer(BicScorer):
    """BIC over family-complete rows, reweighted by per-variable IPW weights.

    A family is counted on the rows where all its members are observed; the
    row weights (product of the involved partially observed variables' IPW
    weights) are normalised to mean one over those rows, so the weighted
    counts never claim more evidence than the rows actually seen. Move
    deltas evaluate the old and the new family on the same row subset (that
    of their union), otherwise the subpopulation shift between subsets
    would masquerade as signal. Every score is cached under (child, parent
    set, observed set), both sets frozensets; ``family_score`` scores a
    family on its own observed set, under the same key. An add move that
    misses scores all of its child's uncached adds to the same parents in
    one pass, grouped by observed set (see ``move_delta``), to the bits each
    would get alone.

    An observed set is kept, under the same frozenset, as one weight per
    dataset row, exactly 0.0 on the rows where a variable of the set is
    missing, and every count is a weighted ``bincount`` over all rows, with
    missing cells read as state 0: a row of weight 0.0 adds nothing to a
    bin, and the others are added in row order, so the counts have the bits
    of a count over the set's rows alone.

    ``var_weights`` holds one vector of ``d.n`` weights per partially
    observed variable of ``d``, each finite and >= 0 on the rows where its
    variable is observed; weights for another name (a fully observed
    variable's included), of another length or of another value there
    raise ``SchemaMismatch``.
    """

    def __init__(self, d: CategoricalDataset, var_weights: Mapping[str, np.ndarray],
                 pseudocount: float = 0.0):
        super().__init__(d.schema, np.maximum(d.rows, 0), pseudocount=pseudocount)
        self.mask = d.mask
        self.partial = frozenset(
            v.name for j, v in enumerate(self.schema) if d.mask[:, j].any())
        self.var_weights = {k: np.asarray(v, dtype=float) for k, v in var_weights.items()}
        for k, w in self.var_weights.items():
            j = d.index(k)  # weights for a variable the dataset lacks: SchemaMismatch
            if k not in self.partial:
                # no observed set holds it, so its weights would never be read
                raise SchemaMismatch(f"IPW weights for {k!r}, which has no missing cell")
            if w.shape != (d.n,):
                raise SchemaMismatch(f"IPW weights for {k!r} have shape {w.shape}, not ({d.n},)")
            # a negative, NaN or infinite weight makes a score NaN or inf;
            # where k is missing a weight is never read (see _weights_on)
            if not ((0 <= w) & (w < math.inf))[~d.mask[:, j]].all():
                raise SchemaMismatch(f"IPW weights for {k!r} must be finite and >= 0 "
                                     "where it is observed")
        # by observed set (a family's partially observed variables, the
        # frozenset of the score cache's keys): its weight vector; at most
        # 2^|partial| entries of n x 8 bytes
        self._observed: Dict[frozenset, np.ndarray] = {}

    def _weights_on(self, obs: frozenset) -> np.ndarray:
        """One weight per row for the observed set ``obs``: the product of
        its variables' weights (one for a variable without weights),
        normalised to mean one over the rows where every variable of ``obs``
        is observed, and 0.0 on the others; built once per set."""
        w = self._observed.get(obs)
        if w is None:
            seen = ~self.mask[:, [self._col[v] for v in obs]].any(axis=1)
            w = np.ones(seen.size)
            # in column order: the bits of the weight product depend on it
            for v in self._canon(obs):
                w = w * self.var_weights.get(v, 1.0)
            # Normalise to mean weight one over the usable rows: the weighted
            # counts then never claim more evidence than the rows actually
            # seen, which keeps the (fixed) BIC penalty honest across row
            # subsets. The sum runs over those rows alone: one over all n rows
            # would add in other pairwise blocks and move the bits.
            total = w[seen].sum()
            if total > 0:
                w = w * (np.count_nonzero(seen) / total)
            # the other rows' weights may be anything, inf or nan included
            w[~seen] = 0.0
            self._observed[obs] = w
        return w

    def _counts_on(self, child: str, parents: Tuple[str, ...], obs: frozenset):
        family = parents + (child,)
        cards = [self._card[v] for v in family]
        _check_cells(math.prod(cards), "the counts of", child)
        return family_counts(self.rows, [self._col[v] for v in family], cards,
                             self._weights_on(obs))

    def family_score(self, child: str, parents: Iterable[str]) -> float:
        parents = frozenset(parents)
        return self._score_on(child, parents, self.partial & (parents | {child}))

    def _score_on(self, child: str, parents: frozenset, obs: frozenset) -> float:
        key = (child, parents, obs)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        counts = self._counts_on(child, self._canon(parents), obs)
        return self._cache_scores([key], [counts])[0]

    def _score_adds(self, child: str, old: frozenset) -> None:
        """Cache the score of every family that adds one vertex y to the
        parents ``old`` of ``child``, where it is missing, on the observed
        set of that move, and the score of ``old`` on each such set. Every
        fully observed y shares the set of the old family; any other y has
        its own. The rows are coded once over the parents (column order)
        followed by the child; per set, the old family's counts are one
        ``bincount`` of that code with the set's weights."""
        shared = self.partial & (old | {child})
        groups: Dict[frozenset, list] = {}  # observed set -> the adds counted on it
        for v in self.schema:
            y = v.name
            if y != child and y not in old:
                obs = shared | {y} if y in self.partial else shared
                if (child, old | {y}, obs) not in self._cache:
                    groups.setdefault(obs, []).append(y)
        family = self._canon(old) + (child,)
        cards = [self._card[v] for v in family]
        # the stack holds, per observed set, the old family's table unless it
        # is cached, and each add's table, y's cardinality times the old one
        olds = sum((child, old, obs) not in self._cache for obs in groups)
        widths = sum(self._card[y] for ys in groups.values() for y in ys)
        _check_cells(math.prod(cards) * (olds + widths),
                     "scoring the parent additions of", child)
        base = mixed_radix(self.rows, [self._col[v] for v in family], cards)
        keys, tables = [], []
        for obs, adds in groups.items():
            w = self._weights_on(obs)
            if (child, old, obs) not in self._cache:
                keys.append((child, old, obs))
                tables.append(np.bincount(base, w, minlength=math.prod(cards))
                              .reshape(-1, cards[-1]))
            keys += [(child, old | {y}, obs) for y in adds]
            tables += self._add_tables(base, w, family[:-1], child, adds)
        self._cache_scores(keys, tables)

    def move_delta(self, child: str, old_parents: Iterable[str],
                   new_parents: Iterable[str]) -> float:
        """The score of the new family minus that of the old, both on the
        rows where every member of either is observed. An add whose family
        misses the cache first scores every add to the old parents in one
        pass, as ``BicScorer.move_delta`` does."""
        old, new = frozenset(old_parents), frozenset(new_parents)
        obs = self.partial & (old | new | {child})
        if old < new and len(new) == len(old) + 1 and (child, new, obs) not in self._cache:
            self._score_adds(child, old)
        return self._score_on(child, new, obs) - self._score_on(child, old, obs)
