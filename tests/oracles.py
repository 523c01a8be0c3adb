"""Brute-force reference implementations used to validate the fast paths.

Everything here is deliberately naive: exhaustive path enumeration for
d-separation, missingness mechanisms on an m-graph whose proxy vertices
are built only to be stripped again, full-joint enumeration for
likelihoods, completions filled one missingness pattern at a time, EM
one row at a time, exhaustive DAG enumeration for score optima, a
family's BIC from its table alone, IPW weights one row at a time, every
hill-climbing move re-scored on every iteration with candidate graphs
built until one is legal, a conditional G-test one stratum at a time, a
CSV read one cell at a time and written whole, and scipy's logistic and
chi-square survival function. Slow, obviously correct, and independent of the production code
paths.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import re
from typing import Iterable, List, Sequence, Tuple

import numpy as np
from scipy.special import chdtrc, expit
from scipy.stats import chi2

from missdag.data import (
    MAX_STATES,
    MISSING,
    MISSING_TOKENS,
    CategoricalDataset,
    VariableSchema,
    csv_line,
    family_counts,
)
from missdag.discovery import IMPROVEMENT_EPS, SearchTrace
from missdag.errors import CycleDetected, MalformedCsv
from missdag.graphs import Dag, MechanismClass, d_separated


# --- exhaustive DAG enumeration ---


def all_dags(names: Sequence[str]) -> List[Dag]:
    """Every labeled DAG over `names` (3 orientations per vertex pair)."""
    names = list(names)
    pairs = list(itertools.combinations(names, 2))
    out = []
    for combo in itertools.product((0, 1, 2), repeat=len(pairs)):
        edges = []
        for (a, b), o in zip(pairs, combo):
            if o == 1:
                edges.append((a, b))
            elif o == 2:
                edges.append((b, a))
        try:
            out.append(Dag(names, edges))
        except Exception:
            continue
    return out


# --- cycle witness by recursive depth-first search ---


def find_cycle(vertices: Sequence[str], edges: Iterable[Tuple[str, str]]):
    """The cycle witness `Dag` reports, by plain recursion: the closed walk
    [v, ..., v] closed by the first back edge of a depth-first search from
    each vertex in declared order, children in name order; None if
    acyclic."""
    children = {v: set() for v in vertices}
    for p, c in edges:
        children[p].add(c)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in vertices}
    stack_path = []

    def visit(v):
        color[v] = GRAY
        stack_path.append(v)
        for c in sorted(children[v]):
            if color[c] == GRAY:
                i = stack_path.index(c)
                return stack_path[i:] + [c]
            if color[c] == WHITE:
                found = visit(c)
                if found is not None:
                    return found
        stack_path.pop()
        color[v] = BLACK
        return None

    for v in vertices:
        if color[v] == WHITE:
            found = visit(v)
            if found is not None:
                return found
    return None


# --- d-separation by literal path enumeration ---


def _descendants(g: Dag, v: str) -> set:
    seen = set()
    stack = [v]
    while stack:
        w = stack.pop()
        if w in seen:
            continue
        seen.add(w)
        stack.extend(g.children(w))
    return seen


def _active(g: Dag, path: Sequence[str], zs: set) -> bool:
    for i in range(1, len(path) - 1):
        a, b, c = path[i - 1], path[i], path[i + 1]
        is_collider = (a, b) in g.edges and (c, b) in g.edges
        if is_collider:
            if not (_descendants(g, b) & zs):
                return False
        elif b in zs:
            return False
    return True


def active_paths(g: Dag, x: Iterable[str], y: Iterable[str], z: Iterable[str]):
    """Every simple undirected path from x to y, with no other vertex in x or
    y, that is active given z."""
    xs, ys, zs = set(x), set(y), set(z)

    def neighbors(v):
        return set(g.parents(v)) | set(g.children(v))

    def walk(path):
        v = path[-1]
        if v in ys:
            if _active(g, path, zs):
                yield list(path)
            return
        for w in neighbors(v):
            if w in path or w in xs:
                continue
            path.append(w)
            yield from walk(path)
            path.pop()

    for s in xs:
        yield from walk([s])


def dsep_by_path_enumeration(g: Dag, x: Iterable[str], y: Iterable[str],
                             z: Iterable[str]) -> bool:
    """True iff no simple undirected path from x to y is active given z."""
    return next(active_paths(g, x, y, z), None) is None


def shortest_active_path_length(g: Dag, x: Iterable[str], y: Iterable[str],
                                z: Iterable[str]):
    """Number of vertices on the shortest active path from x to y given z,
    or None if there is none."""
    return min((len(p) for p in active_paths(g, x, y, z)), default=None)



# --- mechanism classification on the m-graph with proxy vertices ---


def classify_with_proxies(base: Dag, partially_observed: Sequence[str],
                          indicator_parents) -> MechanismClass:
    """The mechanism of the full m-graph of Mohan, Pearl & Tian (2013): each
    partially observed x also gets a proxy S_x with the parents {x, R_x}.
    The proxies are stripped again before the two independence statements
    (R from every substantive variable: MCAR; R from the partially observed
    M given the fully observed O: MAR) are tested."""
    part = list(partially_observed)
    verts, edges = list(base.vertices), list(base.edges)
    for x in part:
        sx, rx = f"S_{x}", f"R_{x}"
        verts += [rx, sx]
        edges += [(x, sx), (rx, sx)] + [(p, rx) for p in indicator_parents.get(x, ())]
    full = Dag(verts, edges)
    proxies = {f"S_{x}" for x in part}
    stripped = Dag([v for v in full.vertices if v not in proxies],
                   [(p, c) for p, c in full.edges if p not in proxies and c not in proxies])
    o = [v for v in base.vertices if v not in part]
    r = [f"R_{x}" for x in part]
    if not r or d_separated(stripped, o + part, r, []):
        return MechanismClass.MCAR
    if d_separated(stripped, part, r, o):
        return MechanismClass.MAR
    return MechanismClass.MNAR


# --- full-joint likelihood ---


def joint_log_likelihood(params, g: Dag, d) -> float:
    """Sum the joint probability over every completion of every row."""
    cards = {v: len(params.states(v)) for v in g.vertices}
    cols = {v: d.index(v) for v in g.vertices}

    def joint_prob(assign):
        p = 1.0
        for v in g.vertices:
            parents, table, _ = params.variables[v]
            cfg = 0
            for q in parents:
                cfg = cfg * cards[q] + assign[q]
            p *= table[cfg, assign[v]]
        return p

    total = 0.0
    for r in range(d.n):
        missing = [v for v in g.vertices if d.mask[r, cols[v]]]
        fixed = {v: int(d.rows[r, cols[v]]) for v in g.vertices if v not in missing}
        prob = 0.0
        for combo in itertools.product(*[range(cards[v]) for v in missing]):
            assign = dict(fixed)
            assign.update(zip(missing, combo))
            prob += joint_prob(assign)
        total += math.log(prob) if prob > 0 else -math.inf
    return total


# --- completions and their posteriors, one row at a time ---


def row_completions(g: Dag, params, d):
    """(rows, weights, origin, row_ll) of the completion block, built row by
    row: each row's missing cells (graph columns) are completed in
    itertools.product order, each completion's joint log-probability is the
    vertex-by-vertex sum of log CPT entries, and the row's log-likelihood is
    scipy's logsumexp over that row alone. A row without missing cells gets
    weight 1. Rows are ordered by their missingness pattern (lexicographic,
    observed before missing), then by row index."""
    from scipy.special import logsumexp

    names = list(g.vertices)
    cards = {v: len(params.states(v)) for v in names}
    cols = [d.index(v) for v in names]
    with np.errstate(divide="ignore"):
        log_tables = {v: np.log(params.variables[v][1]) for v in names}

    def log_joint(assign):
        lp = 0.0
        for v in names:
            cfg = 0
            for q in params.variables[v][0]:
                cfg = cfg * cards[q] + assign[q]
            lp = lp + log_tables[v][cfg, assign[v]]
        return lp

    order = sorted(range(d.n), key=lambda r: tuple(bool(d.mask[r, j]) for j in cols))
    rows, weights, origin = [], [], []
    row_ll = np.zeros(d.n)
    for r in order:
        missing = [v for v, j in zip(names, cols) if d.mask[r, j]]
        fixed = {v: int(d.rows[r, j]) for v, j in zip(names, cols) if not d.mask[r, j]}
        lps = []
        for combo in itertools.product(*[range(cards[v]) for v in missing]):
            assign = {**fixed, **dict(zip(missing, combo))}
            rows.append([assign[v] for v in names])
            origin.append(r)
            lps.append(log_joint(assign))
        lps = np.array(lps)
        if not missing:
            row_ll[r] = lps[0]
            weights.append(np.ones(1))
            continue
        with np.errstate(invalid="ignore"):
            row_ll[r] = logsumexp(lps)
            weights.append(np.exp(lps - row_ll[r]))
    return (np.array(rows, dtype=np.int16).reshape(len(rows), len(names)),
            np.concatenate(weights) if weights else np.zeros(0),
            np.array(origin, dtype=np.intp), row_ll)


def e_step_at(g: Dag, params, d):
    """The (rows, weights, origin, row_ll) of ``estimation.expand_completions``
    at the parameters ``params``, set up as ``log_likelihood`` sets it up: the
    parameters checked against the graph, the completion index over the
    graph's columns, and each family's code over its block, parents in the
    CPTs' order. Not an oracle: the E-step it runs is the package's, which
    ``row_completions`` referees."""
    from missdag import estimation

    params.check_graph(g)
    cards = {v: d.variable(v).cardinality for v in g.vertices}
    index = estimation._completion_index(d, g.vertices, cards)
    codes = estimation._family_codes(index[0], g.vertices, params.parents, cards)
    return estimation.expand_completions([params.table(v) for v in g.vertices], codes,
                                         index, d.n)


def completion_index_by_pattern(d, vertices: Sequence[str], cards):
    """The (block, origin, complete, groups) of ``_completion_index``,
    filled one missingness pattern at a time: the patterns of
    ``np.unique(mask, axis=0)``, each pattern's rows repeated once per
    completion of its missing cells (``itertools.product`` order, tiled
    over the rows); the rows with no missing cell; and per completion count
    k > 1, in the order k first appears among the patterns, the rows with k
    completions and their (rows, k) block positions. Every array is
    read-only. Nothing is kept on the dataset."""
    cols = [d.index(v) for v in vertices]
    patterns, inverse = np.unique(d.mask[:, cols], axis=0, return_inverse=True)
    inverse = inverse.ravel()
    counts = [math.prod(cards[vertices[j]] for j in np.nonzero(pattern)[0])
              for pattern in patterns]
    sizes = np.bincount(inverse, minlength=len(patterns))
    sub = d.rows[:, cols]
    order = np.argsort(inverse, kind="stable")
    total = sum(k * int(size) for k, size in zip(counts, sizes))
    block = np.empty((total, len(cols)), dtype=np.int16, order="F")
    complete = np.zeros(0, dtype=np.intp)
    by_count = {}
    start = 0
    for pattern, k, ridx in zip(patterns, counts, np.split(order, np.cumsum(sizes)[:-1])):
        stop = start + ridx.size * k
        block[start:stop] = np.repeat(sub[ridx], k, axis=0)
        if k == 1:
            complete = ridx
        else:
            miss = np.nonzero(pattern)[0]
            completions = np.array(
                list(itertools.product(*[range(cards[vertices[j]]) for j in miss])),
                dtype=np.int16)
            block[start:stop, miss] = np.tile(completions, (ridx.size, 1))
            pos = start + np.arange(stop - start).reshape(ridx.size, k)
            by_count.setdefault(k, []).append((ridx, pos))
        start = stop
    origin = np.repeat(order, np.asarray(counts, dtype=np.intp)[inverse[order]])
    groups = tuple((np.concatenate([r for r, _ in parts]),
                    np.concatenate([p for _, p in parts]))
                   for parts in by_count.values())
    for a in (block, origin, complete, *itertools.chain.from_iterable(groups)):
        a.setflags(write=False)
    return block, origin, complete, groups


# --- EM one row at a time ---


def _normalized(counts: np.ndarray, pseudocount: float) -> np.ndarray:
    """Conditional frequencies of a count table, row by row: (count +
    pseudocount) / (row sum + pseudocount * columns) with a pseudocount, and
    with none a uniform row where the row sum is 0."""
    card = counts.shape[1]
    rowsum = counts.sum(axis=1, keepdims=True)
    if pseudocount > 0:
        return (counts + pseudocount) / (rowsum + pseudocount * card)
    table = np.full_like(counts, 1.0 / card)
    seen = rowsum[:, 0] > 0
    table[seen] = counts[seen] / rowsum[seen]
    return table


def em_fit_by_rows(g: Dag, d, pseudocount: float = 0.0, max_iter: int = 100,
                   tol: float = 1e-6):
    """(params, log-likelihoods, converged) of ``em_fit``, with the E-step
    of ``row_completions`` and an M-step of ``family_counts`` over its rows
    and weights, parents in graph-vertex order. It starts from the
    frequencies of the rows with no missing graph cell, smoothed by
    ``max(pseudocount, 1)``, and stops after the first iteration whose
    log-likelihood gains less than ``tol``."""
    from missdag.estimation import ParameterSet

    names = list(g.vertices)
    cards = [d.variable(v).cardinality for v in names]
    families = [[names.index(u) for u in sorted(g.parents(v), key=names.index)] + [j]
                for j, v in enumerate(names)]

    def fit(rows, weights, pc):
        return ParameterSet({
            v: (tuple(names[i] for i in fam[:-1]),
                _normalized(family_counts(rows, fam, [cards[i] for i in fam], weights), pc),
                d.variable(v).states)
            for v, fam in zip(names, families)})

    cols = [d.index(v) for v in names]
    params = fit(d.rows[:, cols][~d.mask[:, cols].any(axis=1)], None, max(pseudocount, 1.0))
    lls = []
    for _ in range(max_iter):
        rows, weights, _, row_ll = row_completions(g, params, d)
        lls.append(float(np.sum(row_ll)))
        if len(lls) > 1 and lls[-1] - lls[-2] < tol:
            return params, lls, True
        params = fit(rows, weights, pseudocount)
    return params, lls, False


# --- family counts and BIC by plain loops ---


def mixed_radix_by_loop(rows, cols: Sequence[int], cards: Sequence[int]):
    """Mixed-radix code of each row, one row and one column at a time in
    Python integers, the first column most significant."""
    codes = []
    for r in range(rows.shape[0]):
        code = 0
        for j, k in zip(cols, cards):
            code = code * k + int(rows[r, j])
        codes.append(code)
    return codes


def unique_rows_by_dict(rows):
    """(first, inverse, counts) of a 2-D array's distinct rows, from a dict
    keyed by each row as a tuple: the distinct rows in the order they first
    appear, each one's first row, each row's distinct row and each distinct
    row's count, as Python lists."""
    seen = {}
    first, inverse, counts = [], [], []
    for r, row in enumerate(rows.tolist()):
        k = seen.setdefault(tuple(row), len(seen))
        if k == len(first):
            first.append(r)
            counts.append(0)
        inverse.append(k)
        counts[k] += 1
    return first, inverse, counts


def tally_counts(rows, cols: Sequence[int], cards: Sequence[int], weights=None):
    """Family count table, one row at a time: one table row per parent
    configuration (first parent most significant), one column per child
    state; the child is the last of `cols`."""
    ncfg = 1
    for k in cards[:-1]:
        ncfg *= k
    table = np.zeros((ncfg, cards[-1]))
    for r in range(rows.shape[0]):
        cfg = 0
        for j, k in zip(cols[:-1], cards[:-1]):
            cfg = cfg * k + int(rows[r, j])
        table[cfg, int(rows[r, cols[-1]])] += 1.0 if weights is None else weights[r]
    return table


def bic(g: Dag, d, pseudocount: float = 0.0) -> float:
    """Decomposable BIC of complete data under g: per family, the sum of
    n_jk log theta_jk over observed cells, minus 1/2 log n per free
    parameter."""
    total = 0.0
    for v in g.vertices:
        family = sorted(g.parents(v), key=d.index) + [v]
        cards = [d.variable(u).cardinality for u in family]
        table = tally_counts(d.rows, [d.index(u) for u in family], cards)
        total += _table_bic(table, pseudocount, d.n)
    return total


def _table_bic(table, pseudocount: float, n: float) -> float:
    total = 0.0
    for row in table:
        n_j = float(sum(row))
        for n_jk in row:
            if n_jk > 0:
                theta = (n_jk + pseudocount) / (n_j + pseudocount * len(row))
                total += n_jk * math.log(theta)
    return total - 0.5 * math.log(n) * (len(table[0]) - 1) * len(table)


def family_bic(counts: np.ndarray, pseudocount: float, n_effective: float) -> float:
    """BIC of one family from its count table: the log-likelihood of the
    (smoothed) conditional frequencies minus 1/2 log n per free parameter,
    the table scored alone. The scorers' stacked kernel must give every
    family these bits. A subnormal count over a larger row sum has a ratio
    that underflows to 0; its logarithm is taken apart, log c - log r."""
    rowsum = counts.sum(axis=1, keepdims=True)
    nz = counts > 0
    if pseudocount > 0:
        num, den = counts + pseudocount, rowsum + pseudocount * counts.shape[1]
    else:
        num, den = counts, rowsum
    den = np.broadcast_to(den, counts.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num / den
        logs = np.where(ratio > 0, np.log(ratio), np.log(num) - np.log(den))
    ll = float(np.sum(counts[nz] * logs[nz]))
    penalty = 0.5 * math.log(n_effective) * (counts.shape[1] - 1) * counts.shape[0]
    return ll - penalty


class FamilyByFamilyBic:
    """The BIC of a ``BicScorer``'s rows, weights, pseudocount and sample
    size, one family at a time: ``family_counts`` with the parents in
    column order, then ``family_bic``. Each family is scored alone once and
    then remembered, so a search that rescores every move stays quick."""

    def __init__(self, scorer):
        self.rows, self.weights = scorer.rows, scorer.weights
        self.pseudocount, self.n_effective = scorer.pseudocount, scorer.n_effective
        self.col = {v.name: j for j, v in enumerate(scorer.schema)}
        self.card = {v.name: v.cardinality for v in scorer.schema}
        self.scores = {}

    def family_score(self, child: str, parents: Iterable[str]) -> float:
        key = (child, frozenset(parents))
        if key not in self.scores:
            family = sorted(parents, key=self.col.__getitem__) + [child]
            counts = family_counts(self.rows, [self.col[v] for v in family],
                                   [self.card[v] for v in family], self.weights)
            self.scores[key] = family_bic(counts, self.pseudocount, self.n_effective)
        return self.scores[key]

    def move_delta(self, child: str, old_parents, new_parents) -> float:
        return self.family_score(child, new_parents) - self.family_score(child, old_parents)


class FamilyByFamilyIpw(FamilyByFamilyBic):
    """The BIC of an ``IpwBicScorer``'s data, weights, pseudocount and
    sample size, one family at a time. A family is counted on the rows
    where every variable of its observed set is observed, each row weighted
    by the product of those variables' weights in column order, scaled to
    mean one; then ``family_counts`` with the parents in column order, then
    ``family_bic``. A move scores both families on the observed set of their
    union, a lone family on its own; each is remembered under its observed
    set too."""

    def __init__(self, scorer):
        super().__init__(scorer)
        self.mask, self.var_weights = scorer.mask, scorer.var_weights
        self.partial = {v for v, j in self.col.items() if self.mask[:, j].any()}

    def score_on(self, child: str, parents: Iterable[str], obs: Iterable[str]) -> float:
        key = (child, frozenset(parents), frozenset(obs))
        if key not in self.scores:
            self.scores[key] = self._score_alone(child, parents, obs)
        return self.scores[key]

    def _score_alone(self, child: str, parents: Iterable[str], obs: Iterable[str]) -> float:
        obs = sorted(obs, key=self.col.__getitem__)
        idx = np.flatnonzero(~self.mask[:, [self.col[v] for v in obs]].any(axis=1))
        w = np.ones(idx.size)
        for v in obs:
            if v in self.var_weights:
                w = w * self.var_weights[v][idx]
        if w.sum() > 0:
            w = w * (idx.size / w.sum())
        family = sorted(parents, key=self.col.__getitem__) + [child]
        counts = family_counts(self.rows[idx], [self.col[v] for v in family],
                               [self.card[v] for v in family], w)
        return family_bic(counts, self.pseudocount, self.n_effective)

    def family_score(self, child: str, parents: Iterable[str]) -> float:
        return self.score_on(child, parents, self.partial & (set(parents) | {child}))

    def move_delta(self, child: str, old_parents, new_parents) -> float:
        obs = self.partial & (set(old_parents) | set(new_parents) | {child})
        return self.score_on(child, new_parents, obs) - self.score_on(child, old_parents, obs)


def ipw_weights_by_loop(d, target: str, parents: Iterable[str]) -> np.ndarray:
    """``ipw_weights`` for fully observed ``parents``, one row at a time: a
    row's stratum is its tuple of parent states, a stratum's observation
    rate is (rows with the target observed + 1) / (rows + 2), and a row
    with the target observed weighs one over its stratum's rate, any other
    row 0."""
    jt = d.index(target)
    cols = [d.index(p) for p in set(parents)]
    strata = [tuple(int(d.rows[r, j]) for j in cols) for r in range(d.n)]
    rows, seen = {}, {}
    for r, key in enumerate(strata):
        rows[key] = rows.get(key, 0) + 1
        seen[key] = seen.get(key, 0) + (not d.mask[r, jt])
    weights = np.zeros(d.n)
    for r, key in enumerate(strata):
        if not d.mask[r, jt]:
            weights[r] = 1.0 / ((seen[key] + 1.0) / (rows[key] + 2.0))
    return weights


def ipw_family_bic(d, var_weights, child: str, parents: Iterable[str],
                   obs: Iterable[str], pseudocount: float = 0.0) -> float:
    """BIC of one family under IPW weights, one row at a time: the rows
    where the family and every variable of `obs` are observed, each
    weighted by the product of the `obs` variables' weights in column
    order, the weights scaled to mean one over those rows; the penalty
    uses the dataset's row count."""
    family = sorted(parents, key=d.index) + [child]
    obs = sorted(obs, key=d.index)
    kept, weights = [], []
    for r in range(d.n):
        if any(d.mask[r, d.index(v)] for v in family + obs):
            continue
        w = 1.0
        for v in obs:
            if v in var_weights:
                w *= float(var_weights[v][r])
        kept.append(r)
        weights.append(w)
    total = sum(weights)
    if total > 0:
        weights = [w * len(kept) / total for w in weights]
    cards = [d.variable(u).cardinality for u in family]
    table = tally_counts(d.rows[kept], [d.index(u) for u in family], cards, weights)
    return _table_bic(table, pseudocount, d.n)


# --- G-test of conditional independence, stratum by stratum ---


def conditional_g_test(a, b, a_card: int, b_card: int, cond, cond_card: int):
    """Likelihood-ratio (G) test of a _||_ b given cond: the G statistics of
    the strata of cond, added up, with (a_card - 1)(b_card - 1) degrees of
    freedom per stratum, empty strata included. Returns (G, degrees of
    freedom, p-value)."""
    a, b, cond = (np.asarray(x, dtype=np.intp) for x in (a, b, cond))
    g_stat = 0.0
    for s in range(cond_card):
        table = np.zeros((a_card, b_card))
        np.add.at(table, (a[cond == s], b[cond == s]), 1.0)
        n = table.sum()
        for i in range(a_card):
            for j in range(b_card):
                if table[i, j] > 0:
                    expected = table[i].sum() * table[:, j].sum() / n
                    g_stat += 2.0 * table[i, j] * math.log(table[i, j] / expected)
    df = (a_card - 1) * (b_card - 1) * cond_card
    return g_stat, df, float(chi2.sf(g_stat, df)) if df > 0 else 1.0


# --- scipy's logistic and chi-square survival function ---


def logistic_by_scipy(x: float) -> float:
    """``scipy.special.expit``, the referee of ``data.logistic``."""
    return float(expit(x))


def chi2_sf_by_scipy(x: float, df: int) -> float:
    """``scipy.special.chdtrc``, the referee of ``stats.chi2_sf`` (same
    argument order as that function)."""
    return float(chdtrc(df, x))


# --- exhaustive score optimum ---


def best_score_exhaustive(scorer, names: Sequence[str],
                          max_parents: int = 4) -> float:
    best = -math.inf
    for g in all_dags(names):
        if any(len(g.parents(v)) > max_parents for v in g.vertices):
            continue
        s = sum(scorer.family_score(v, g.parents(v)) for v in g.vertices)
        if s > best:
            best = s
    return best


# --- hill-climbing moves by building every candidate graph ---


def _moves(g: Dag):
    """Every single-edge move (op, parent, child): for each (parent, child)
    pair in declared order, "delete" and "reverse" of an edge, "add" of a
    non-edge."""
    for a, b in itertools.permutations(g.vertices, 2):
        if (a, b) in g.edges:
            yield "delete", a, b
            yield "reverse", a, b
        else:
            yield "add", a, b


def legal_move(g: Dag, kb, max_parents: int, op: str, a: str, b: str):
    """The graph after the move ``op`` on (a, b), built as a new ``Dag``, if
    it is a DAG that satisfies the knowledge base and grows no parent set
    past ``max_parents``; otherwise None."""
    rest = g.edges - {(a, b)}
    edges = {"add": g.edges | {(a, b)}, "delete": rest, "reverse": rest | {(b, a)}}[op]
    try:
        h = Dag(g.vertices, edges)
    except CycleDetected:
        return None
    if kb.satisfied_by(h) and all(len(h.parents(v)) <= max(max_parents, len(g.parents(v)))
                                  for v in h.vertices):
        return h
    return None


def legal_moves(g: Dag, kb, max_parents: int) -> List[Tuple[str, Tuple[str, str]]]:
    """Every single-edge add/delete/reverse move, (parent, child) in
    declared order, whose result is a DAG that satisfies the knowledge base
    and grows no parent set past ``max_parents``."""
    return [(op, (a, b)) for op, a, b in _moves(g)
            if legal_move(g, kb, max_parents, op, a, b) is not None]


def apply_move(g: Dag, op: str, edge: Tuple[str, str]) -> Dag:
    """The graph after one add/delete/reverse move (raises on a cycle)."""
    a, b = edge
    edges = set(g.edges) - {(a, b)}
    if op == "add":
        edges.add((a, b))
    elif op == "reverse":
        edges.add((b, a))
    return Dag(g.vertices, sorted(edges))


def hill_climb_by_rescoring(scorer, kb, init: Dag, max_iter: int, max_parents: int):
    """Greedy best-improvement search with no delta cache: every iteration
    scores every move afresh with ``scorer.move_delta``, from the change it
    makes to its child's parents (for a reversal, the child's delta plus
    the parent's). It walks the moves that improve the score by more than
    ``IMPROVEMENT_EPS`` in ascending (-delta, operation, parent, child) and
    takes the first whose graph ``legal_move`` builds. Returns the graph
    and its ``SearchTrace``."""
    g = init
    trace = SearchTrace(initial_score=sum(scorer.family_score(v, g.parents(v))
                                          for v in g.vertices))
    current = trace.initial_score
    for it in range(max_iter):
        improving = []
        for op, a, b in _moves(g):
            pb = g.parents(b)
            delta = scorer.move_delta(b, pb, pb | {a} if op == "add" else pb - {a})
            if op == "reverse":
                pa = g.parents(a)
                delta += scorer.move_delta(a, pa, pa | {b})
            if delta > IMPROVEMENT_EPS:
                improving.append((-delta, op, a, b))
        picks = ((key, legal_move(g, kb, max_parents, *key[1:])) for key in sorted(improving))
        best = next(((key, h) for key, h in picks if h is not None), None)
        if best is None:
            trace.iterations = it
            break
        (nd, op, a, b), g = best
        current += -nd
        trace.moves.append((op, (a, b), -nd))
    else:
        trace.iterations = max_iter
    trace.final_score = current
    return g, trace


# --- DOT text read back ---

_DOT_ID = r'"((?:[^"\\]|\\.)*)"'
_DOT_STMT = re.compile(
    rf'\s*{_DOT_ID}\s*(?:->\s*{_DOT_ID}\s*)?(?:\[(?:[^\]"]|"(?:[^"\\]|\\.)*")*\]\s*)?;',
    re.DOTALL)
_DOT_ESCAPE = re.compile(r'\\(["\\])')


def parse_dot(text: str) -> Dag:
    """Read back the DOT dialect emitted by export_dot: a `digraph G { }`
    of `"v" [attributes];` and `"p" -> "c";` statements, IDs quoted with
    backslash escapes of backslash and double quote."""
    body = text.strip()
    if not (body.startswith("digraph G {") and body.endswith("}")):
        raise ValueError(f"not a digraph: {text[:40]!r}")
    body = body[len("digraph G {"):-1]
    verts, edges = [], []
    pos = 0
    while body[pos:].strip():
        m = _DOT_STMT.match(body, pos)
        if m is None:
            raise ValueError(f"unparseable DOT at {body[pos:pos + 40]!r}")
        a, b = (None if x is None else _DOT_ESCAPE.sub(r"\1", x) for x in m.groups())
        if b is None:
            verts.append(a)
        else:
            edges.append((a, b))
        pos = m.end()
    return Dag(verts, edges)


# --- CSV read one cell at a time, and written whole ---


def read_csv_by_cell(path) -> CategoricalDataset:
    """What ``data.read_csv`` returns or raises, by a row-major scan of the
    whole file that gives each new token of a column the next state index
    as it first appears. It does not catch an over-long field. Of a ragged
    row and a column over ``MAX_STATES`` it reports whichever it meets first
    in that scan, as it does of two columns over ``MAX_STATES``;
    ``read_csv`` reports the first ragged row, then the leftmost column
    over, wherever each lies in the file."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            records = list(reader)
    except UnicodeDecodeError as exc:
        raise MalformedCsv(f"{path}: not UTF-8 text: {exc}") from None
    if header is None:
        raise MalformedCsv(f"{path}: empty file")
    if len(set(header)) != len(header):
        name = next(h for i, h in enumerate(header) if h in header[:i])
        raise MalformedCsv(f"{path}: column name {name!r} appears more than once "
                           "in the header")
    p = len(header)
    lookup = [{} for _ in header]
    rows = np.full((len(records), p), MISSING, dtype=np.int16)
    for r, rec in enumerate(records):
        if len(rec) != p:
            raise MalformedCsv(f"{path}: row {r + 1} has {len(rec)} fields, expected {p}")
        for c, tok in enumerate(rec):
            if tok in MISSING_TOKENS:
                continue
            if tok not in lookup[c]:
                if len(lookup[c]) == MAX_STATES:
                    raise MalformedCsv(f"{path}: column {header[c]!r} has more than "
                                       f"{MAX_STATES} distinct values")
                lookup[c][tok] = len(lookup[c])
            rows[r, c] = lookup[c][tok]
    schema = []
    for c, name in enumerate(header):
        states = list(lookup[c])  # insertion order is state-index order
        if len(states) < 2:
            pads = [pad for pad in ("__pad0", "__pad1", "__pad2") if pad not in states]
            states = states + pads[:2 - len(states)]
        schema.append(VariableSchema(name, tuple(states)))
    return CategoricalDataset(schema, rows)


def write_csv_whole(d: CategoricalDataset, path) -> None:
    """What ``data.write_csv`` writes, built whole: every cell as a string in
    one n x p array, then every line in one list."""
    cells = np.empty((d.n, d.p), dtype=object)
    for c, var in enumerate(d.schema):
        # a missing cell holds MISSING (-1), which picks the appended "NA";
        # a state label is never "", the one field csv_line quotes alone
        fields = np.array([*(csv_line([s]) for s in var.states), "NA"], dtype=object)
        cells[:, c] = fields[d.rows[:, c]]
    lines = [csv_line(d.names), *map(",".join, cells.tolist())]
    sig = "-sig" if lines[0].startswith("\ufeff") else ""
    with open(path, "w", newline="", encoding="utf-8" + sig) as fh:
        fh.writelines(line + "\n" for line in lines)


# --- JSON documents the package reads, written back ---


def _json_doc(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def amputation_spec_json(spec) -> str:
    """The document ``AmputationSpec.from_json`` reads ``spec`` back from."""
    return _json_doc({
        # an intercept of -inf (never amputate) is the one a spec leaves out
        "targets": [{"target": e.target, "mechanism": e.mechanism,
                     "drivers": list(e.drivers),
                     **({"intercept": e.intercept} if e.intercept > -math.inf else {}),
                     "weights": {k: dict(v) for k, v in e.weights.items()}}
                    for e in spec.entries],
        "seed": spec.seed,
    })


def knowledge_json(kb) -> str:
    """The document ``KnowledgeBase.from_json`` reads ``kb`` back from."""
    return _json_doc({"forbidden": sorted([list(e) for e in kb.forbidden]),
                      "required": sorted([list(e) for e in kb.required])})


def parameter_set_json(params) -> str:
    """The document ``ParameterSet.from_json`` reads ``params`` back from."""
    return _json_doc({"variables": {
        v: {"parents": list(ps), "table": t.tolist(), "states": list(states)}
        for v, (ps, t, states) in params.variables.items()}})


# --- random instances ---


def random_dag(rng: np.random.Generator, names: Sequence[str],
               edge_prob: float = 0.5) -> Dag:
    order = list(names)
    rng.shuffle(order)
    edges = []
    for i, a in enumerate(order):
        for b in order[i + 1:]:
            if rng.random() < edge_prob:
                edges.append((a, b))
    return Dag(list(names), edges)


def joint_distribution(g: Dag, params, cards):
    """Exact joint probability of every full assignment (dict keyed by
    value tuples in vertex order)."""
    names = list(g.vertices)
    out = {}
    for assign in itertools.product(*[range(cards[v]) for v in names]):
        a = dict(zip(names, assign))
        p = 1.0
        for v in names:
            parents, table, _ = params.variables[v]
            cfg = 0
            for q in parents:
                cfg = cfg * cards[q] + a[q]
            p *= table[cfg, a[v]]
        out[assign] = p
    return out


def min_marginal_edge_tv(g: Dag, params, cards) -> float:
    """Smallest total-variation distance, over the graph's edges, between the
    child's conditional distributions as the parent varies (all other
    variables marginalized out). Low values mean an edge is invisible to
    single-edge (marginal) dependence tests."""
    pr = joint_distribution(g, params, cards)
    idx = {v: i for i, v in enumerate(g.vertices)}
    worst = 1.0
    for p, c in g.edges:
        cond = np.zeros((cards[p], cards[c]))
        for assign, q in pr.items():
            cond[assign[idx[p]], assign[idx[c]]] += q
        cond /= cond.sum(axis=1, keepdims=True)
        tv = max(0.5 * np.abs(cond[i] - cond[j]).sum()
                 for i in range(cards[p]) for j in range(i + 1, cards[p]))
        worst = min(worst, tv)
    return worst


def random_params(rng: np.random.Generator, g: Dag, cards,
                  min_tv: float = 0.0):
    """Random Dirichlet CPTs; with min_tv > 0, every pair of rows in every
    CPT with parents differs by at least that much in total variation."""
    from missdag.estimation import ParameterSet

    variables = {}
    for v in g.vertices:
        parents = tuple(sorted(g.parents(v), key=list(g.vertices).index))
        ncfg = int(np.prod([cards[p] for p in parents])) if parents else 1
        while True:
            table = rng.dirichlet(np.ones(cards[v]), size=ncfg)
            if ncfg == 1 or min_tv <= 0.0:
                break
            tv = min(0.5 * np.abs(table[i] - table[j]).sum()
                     for i in range(ncfg) for j in range(i + 1, ncfg))
            if tv >= min_tv:
                break
        variables[v] = (parents, table, tuple(f"s{k}" for k in range(cards[v])))
    return ParameterSet(variables)
