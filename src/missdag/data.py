"""Categorical datasets with missing values.

Cells are stored as small integer state indices; missing cells carry the
sentinel -1, and the boolean mask of missing cells is read off them.
Datasets are immutable: every operation returns a new instance.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ConfigError,
    MalformedCsv,
    SchemaMismatch,
    checked_keys,
    checked_number,
    checked_strings,
    json_object,
    reading,
)
from .graphs import Dag

MISSING = -1
MISSING_TOKENS = ("", "NA")
# cells are int16 state indices 0 .. 32767
MAX_STATES = int(np.iinfo(np.int16).max) + 1


def mixed_radix(rows: np.ndarray, cols: Sequence[int], cards: Sequence[int]) -> np.ndarray:
    """Mixed-radix code of each row over the given columns, the first column
    most significant: the flat index of the row's cell in a table whose axes
    have the given cardinalities."""
    if len(cols) == 0:
        return np.zeros(rows.shape[0], dtype=np.int64)
    code = rows[:, cols[0]].astype(np.int64)
    for j, card in zip(cols[1:], cards[1:]):
        code *= card
        code += rows[:, j]
    return code


def family_counts(rows: np.ndarray, cols: Sequence[int], cards: Sequence[int],
                  weights: Optional[np.ndarray] = None) -> np.ndarray:
    """(Weighted) counts of a family's configurations as a float table with
    one row per parent configuration and one column per child state; the
    child is the last of ``cols``."""
    size = math.prod(cards)
    counts = np.bincount(mixed_radix(rows, cols, cards), weights=weights,
                         minlength=size).astype(float)
    return counts.reshape(size // cards[-1], cards[-1])


@dataclass(frozen=True)
class VariableSchema:
    name: str
    states: Tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if len(self.states) < 2:
            raise SchemaMismatch(f"variable {self.name!r} needs >= 2 states")
        if len(self.states) > MAX_STATES:
            raise SchemaMismatch(f"variable {self.name!r} has {len(self.states)} states, "
                                 f"more than the {MAX_STATES} a cell can hold")
        if len(set(self.states)) != len(self.states):
            raise SchemaMismatch(f"variable {self.name!r} has duplicate state labels")
        for s in self.states:
            if s in MISSING_TOKENS:
                raise SchemaMismatch(f"variable {self.name!r} has state label {s!r}, "
                                     "which a CSV reads as a missing cell")

    @property
    def cardinality(self) -> int:
        return len(self.states)


class CategoricalDataset:
    __slots__ = ("schema", "rows", "mask", "_index", "_completions")

    def __init__(self, schema: Sequence[VariableSchema], rows):
        self.schema = tuple(schema)
        rows = np.array(rows, dtype=np.int16)
        if rows.ndim != 2 or rows.shape[1] != len(self.schema):
            raise SchemaMismatch("row matrix shape does not match schema")
        mask = rows == MISSING
        for j, var in enumerate(self.schema):
            col = rows[~mask[:, j], j]
            if col.size and (col.min() < 0 or col.max() >= var.cardinality):
                raise SchemaMismatch(f"state index out of range in column {var.name!r}")
        rows.setflags(write=False)
        mask.setflags(write=False)
        self.rows = rows
        self.mask = mask
        self._index = {v.name: i for i, v in enumerate(self.schema)}
        if len(self._index) != len(self.schema):
            raise SchemaMismatch("duplicate variable names in schema")
        # completion blocks by vertex order, built by estimation on first use
        self._completions = {}

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def p(self) -> int:
        return len(self.schema)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(v.name for v in self.schema)

    def index(self, name: str) -> int:
        if name not in self._index:
            raise SchemaMismatch(f"unknown variable {name!r}")
        return self._index[name]

    def variable(self, name: str) -> VariableSchema:
        return self.schema[self.index(name)]

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.index(name)]

    def take(self, idx) -> "CategoricalDataset":
        idx = np.asarray(idx, dtype=np.intp)
        return CategoricalDataset(self.schema, self.rows[idx])

    def is_complete(self) -> bool:
        return not self.mask.any()

    def __eq__(self, other):
        if not isinstance(other, CategoricalDataset):
            return NotImplemented
        return self.schema == other.schema and np.array_equal(self.rows, other.rows)

    def __repr__(self):
        return f"CategoricalDataset(n={self.n}, p={self.p})"


def read_csv(path) -> CategoricalDataset:
    """The dataset in a CSV file with a header row, read a column at a time.
    Each column's states are its distinct tokens in order of first
    appearance; empty and ``NA`` cells are missing, and a column with fewer
    than two states is padded to two. A repeated column name, a ragged row,
    a column of more than ``MAX_STATES`` states or an over-long field raises
    ``MalformedCsv``."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            records = list(reader)
    except UnicodeDecodeError as exc:
        raise MalformedCsv(f"{path}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise MalformedCsv(f"{path}: line {reader.line_num}: {exc}") from None
    if header is None:
        raise MalformedCsv(f"{path}: empty file")
    if len(set(header)) != len(header):
        name = next(h for i, h in enumerate(header) if h in header[:i])
        raise MalformedCsv(f"{path}: column name {name!r} appears more than once "
                           "in the header")
    p = len(header)
    for r, rec in enumerate(records):
        if len(rec) != p:
            raise MalformedCsv(f"{path}: row {r + 1} has {len(rec)} fields, expected {p}")
    codes = np.empty((p, len(records)), dtype=np.int16)
    schema = []
    for c, column in enumerate(zip(*records) if records else [()] * p):
        states = [t for t in dict.fromkeys(column) if t not in MISSING_TOKENS]
        if len(states) > MAX_STATES:
            raise MalformedCsv(f"{path}: column {header[c]!r} has more than "
                               f"{MAX_STATES} distinct values")
        code = dict.fromkeys(MISSING_TOKENS, MISSING)
        code.update(zip(states, range(len(states))))
        codes[c] = np.fromiter(map(code.__getitem__, column), np.int16, len(column))
        # pad a degenerate column to two states with labels it does not hold
        pads = [pad for pad in ("__pad0", "__pad1", "__pad2") if pad not in states]
        schema.append(VariableSchema(header[c], (states + pads)[:max(2, len(states))]))
    return CategoricalDataset(schema, codes.T)


def _csv_field(token: str) -> str:
    # quoted if it holds a comma, quote or line break; csv.writer leaves a
    # lone "\r" bare, and a reader ends the row there
    if any(c in token for c in ',"\r\n'):
        return '"' + token.replace('"', '""') + '"'
    return token


def csv_line(fields: Sequence[str]) -> str:
    """One CSV record, without its line end, that ``csv.reader`` reads back
    to ``fields``. A record of one empty field is quoted, or it would read
    as no fields."""
    return '""' if tuple(fields) == ("",) else ",".join(map(_csv_field, fields))


def write_csv(d: CategoricalDataset, path) -> None:
    """``d`` as a CSV file that ``read_csv`` reads back to the same cells."""
    cells = np.empty((d.n, d.p), dtype=object)
    for c, var in enumerate(d.schema):
        # a missing cell holds MISSING (-1), which picks the appended "NA"
        fields = np.array([*map(_csv_field, var.states), "NA"], dtype=object)
        cells[:, c] = fields[d.rows[:, c]]
    lines = [csv_line(d.names), *map(",".join, cells.tolist())]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)


def forward_sample(g: Dag, params, n: int, seed: int) -> CategoricalDataset:
    """Ancestral sampling: n i.i.d. rows, deterministic given seed."""
    if n < 0:
        raise ConfigError(f"sample size n must be >= 0, got {n}")
    params.check_graph(g)
    schema = [VariableSchema(v, params.states[v]) for v in g.vertices]
    col = {v: i for i, v in enumerate(g.vertices)}
    cards = {v: len(params.states[v]) for v in g.vertices}
    rng = np.random.default_rng(seed)
    rows = np.zeros((n, len(schema)), dtype=np.int16)
    for v in g.topological_order():
        parents, table = params.variables[v]
        probs = table[mixed_radix(rows, [col[q] for q in parents],
                                  [cards[q] for q in parents])]
        u = rng.random(n)
        cum = np.cumsum(probs, axis=1)
        val = np.sum(cum < u[:, None], axis=1)
        rows[:, col[v]] = np.minimum(val, cards[v] - 1)
    return CategoricalDataset(schema, rows)


def logit(p: float) -> float:
    """Inverse of the logistic link; returns +/-inf at the boundary."""
    if p <= 0.0:
        return -math.inf
    if p >= 1.0:
        return math.inf
    return math.log(p / (1.0 - p))


@dataclass(frozen=True)
class AmputationEntry:
    target: str
    mechanism: str  # "MCAR" | "MAR" | "MNAR"
    drivers: Tuple[str, ...] = ()
    intercept: float = -math.inf
    weights: Mapping[str, Mapping[str, float]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "drivers", tuple(self.drivers))
        if self.mechanism not in ("MCAR", "MAR", "MNAR"):
            raise ConfigError(f"unknown amputation mechanism {self.mechanism!r}")
        if self.mechanism == "MCAR" and self.drivers:
            raise ConfigError("MCAR entries take no drivers")


@dataclass(frozen=True)
class AmputationSpec:
    entries: Tuple[AmputationEntry, ...]
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    @staticmethod
    def from_json(text: str) -> "AmputationSpec":
        """The spec a JSON document gives. A key it does not read, and a
        non-finite intercept or weight, are refused: JSON readers take NaN,
        and a NaN probability amputes no cell. An omitted intercept is -inf,
        which amputes none either."""
        doc = json_object(text, "amputation spec", ("seed", "targets"))
        with reading("amputation spec"):
            entries = []
            for t in doc["targets"]:
                checked_keys(t, ("target", "mechanism", "drivers", "intercept", "weights"),
                             "amputation spec entry")
                entries.append(AmputationEntry(
                    target=t["target"],
                    mechanism=t["mechanism"],
                    drivers=tuple(checked_strings(t.get("drivers", []),
                                                  "amputation spec field 'drivers'")),
                    intercept=(_finite(t["intercept"], "amputation spec field 'intercept'")
                               if "intercept" in t else -math.inf),
                    weights={k: {s: _finite(w, "amputation spec weight")
                                 for s, w in v.items()}
                             for k, v in t.get("weights", {}).items()},
                ))
            seed = checked_number(doc["seed"], int, "amputation spec field 'seed'")
        if seed < 0:
            raise ConfigError(f"amputation spec field 'seed' must be >= 0, got {seed}")
        return AmputationSpec(tuple(entries), seed)


def _finite(value, what: str) -> float:
    value = checked_number(value, float, what)
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return value


def logistic(x: float) -> float:
    """1 / (1 + e^-x), with libm's exp as ``scipy.special.expit`` computes
    it, so the two agree bit for bit. An e^-x that overflows gives 0.0, and
    NaN stays NaN."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def ampute(d: CategoricalDataset, spec: AmputationSpec) -> CategoricalDataset:
    """Mask cells per row with the entry's logistic probability, computed by
    ``logistic`` once per distinct value of the entry's linear predictor.

    Driver states are read from the pre-amputation data, so MNAR entries may
    reference the target itself (self-masking) or other amputation targets.
    """
    targets = []
    for i, e in enumerate(spec.entries):
        for name in (e.target,) + e.drivers:
            if name not in d.names:
                raise ConfigError(f"amputation spec references unknown column {name!r}")
        # a weight that matches no driver state would be dropped unseen
        entry = f"amputation spec entry {i} (target {e.target!r})"
        for w, wmap in e.weights.items():
            if w not in e.drivers:
                raise ConfigError(f"{entry} weights {w!r}, which is not one of its drivers")
            lacking = sorted(set(wmap) - set(d.variable(w).states), key=repr)
            if lacking:
                raise ConfigError(f"{entry} weights states {lacking} that driver {w!r} lacks")
        j = d.index(e.target)
        if d.mask[:, j].any():
            raise SchemaMismatch(f"target {e.target!r} must be complete before amputation")
        targets.append(j)
        for w in e.drivers:
            jd = d.index(w)
            if d.mask[:, jd].any():
                raise SchemaMismatch(f"driver {w!r} has missing cells in the input")
    rows = d.rows.copy()
    # one spawned child stream per entry: spawned streams are guaranteed
    # distinct from the root stream of the same seed, so amputation noise
    # never collides with data sampled from default_rng(seed)
    streams = np.random.SeedSequence(spec.seed).spawn(len(spec.entries))
    for i, e in enumerate(spec.entries):
        eta = np.full(d.n, e.intercept, dtype=float)
        for w in e.drivers:
            wmap = e.weights.get(w, {})
            states = d.variable(w).states
            per_state = np.array([float(wmap.get(s, 0.0)) for s in states])
            eta = eta + per_state[d.column(w)]
        values, where = np.unique(eta, return_inverse=True)
        prob = np.array([logistic(v) for v in values])[where]
        u = np.random.default_rng(streams[i]).random(d.n)
        rows[u < prob, targets[i]] = MISSING
    out = CategoricalDataset(d.schema, rows)
    # MAR drivers must remain fully observed after all entries are applied
    for e in spec.entries:
        if e.mechanism == "MAR":
            for w in e.drivers:
                if out.mask[:, out.index(w)].any():
                    raise SchemaMismatch(
                        f"MAR driver {w!r} is not fully observed after amputation")
    return out


def impute_mode(d: CategoricalDataset) -> CategoricalDataset:
    """Single imputation: column mode, ties to the lowest state index."""
    rows = d.rows.copy()
    for j, var in enumerate(d.schema):
        miss = d.mask[:, j]
        if not miss.any():
            continue
        obs = d.rows[~miss, j]
        if obs.size == 0:
            raise SchemaMismatch(f"column {var.name!r} has no observed cells")
        counts = np.bincount(obs, minlength=var.cardinality)
        rows[miss, j] = int(np.argmax(counts))
    return CategoricalDataset(d.schema, rows)


def bootstrap(d: CategoricalDataset, seed: int) -> CategoricalDataset:
    if d.n < 1:
        raise SchemaMismatch("cannot resample an empty dataset")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, d.n, size=d.n)
    return d.take(idx)


def split(d: CategoricalDataset, held_out_fraction: float, seed: int):
    """(train, test) with floor(n * fraction) > 0 rows held out."""
    if not 0.0 < held_out_fraction < 1.0:
        raise ConfigError(f"held-out fraction must lie in (0, 1), got {held_out_fraction}")
    k = int(math.floor(d.n * held_out_fraction))
    if k == 0:
        raise SchemaMismatch(f"held-out set is empty: floor({d.n} x {held_out_fraction}) = 0")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(d.n)
    test_idx = np.sort(perm[:k])
    train_idx = np.sort(perm[k:])
    return d.take(train_idx), d.take(test_idx)
