"""Structure search over DAGs under expert knowledge constraints.

Provides plain hill climbing, Structural EM on expected statistics,
bootstrap-aggregated Structural EM, and the IPW-corrected hill climbing
variant for data that are missing not at random.
"""

from __future__ import annotations

import math
import multiprocessing
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .data import (
    CategoricalDataset,
    bootstrap,
    impute_mode,
    split,
    unique_rows,
)
from .errors import (
    ConfigError,
    CycleDetected,
    SchemaMismatch,
    checked_number,
    json_object,
)
from .estimation import (
    BicScorer,
    IpwBicScorer,
    ParameterSet,
    ScoreValue,
    em_fit,
    fit_mle,
    ipw_weights,
    log_likelihood,
    rescale_ll,
)
from .graphs import Dag, classify_mechanism, implied_mgraph
from .stats import g_test

Edge = Tuple[str, str]
IMPROVEMENT_EPS = 1e-9


@dataclass(frozen=True)
class SearchOptions:
    """Settings of the three searches; the only place their defaults are
    written."""
    alpha: float = 0.01               # G-test level for indicator parents (hc-aipw)
    max_parents: int = 4              # parent-set limit of every hill climb
    max_iter: int = 500               # move limit of every hill climb
    refit_pseudocount: float = 1.0    # fitted parameters, and EM in structural EM
    score_pseudocount: float = 0.0    # family scores (hc-complete, hc-aipw)
    sem_max_outer: int = 5            # structural-EM rounds of search and refit
    em_max_iter: int = 30             # EM iteration limit (structural EM, hc-aipw refit)
    em_tol: float = 1e-3              # EM convergence tolerance (likewise)

    def __post_init__(self):
        for f in fields(self):
            rule = (("lie in (0, 1]", lambda v: 0 < v <= 1) if f.name == "alpha"
                    else ("be finite and >= 0", lambda v: 0 <= v < math.inf))
            checked_number(getattr(self, f.name), int if f.type == "int" else float,
                           f"search option {f.name!r}", *rule)

    def sem_options(self) -> dict:
        """The options as ``bootstrap_sem``'s keyword arguments."""
        return {kw: getattr(self, name) for kw, name in _SEM_KEYWORDS.items()}


# bootstrap_sem's keyword -> the SearchOptions field that sets it
_SEM_KEYWORDS = {"pseudocount": "refit_pseudocount", "max_outer": "sem_max_outer",
                 "em_max_iter": "em_max_iter", "em_tol": "em_tol",
                 "max_parents": "max_parents", "max_iter": "max_iter"}


@dataclass(frozen=True)
class KnowledgeBase:
    forbidden: frozenset = frozenset()
    required: frozenset = frozenset()

    def __post_init__(self):
        for key in ("forbidden", "required"):
            # a string is not a pair: "ab" would read as the edge a -> b
            edges = getattr(self, key)
            if not isinstance(edges, (list, tuple, set, frozenset)) or not all(
                    isinstance(e, (list, tuple)) and len(e) == 2
                    and all(isinstance(v, str) for v in e) for e in edges):
                raise ConfigError(f"knowledge field {key!r} must list [parent, child] pairs")
            object.__setattr__(self, key, frozenset(map(tuple, edges)))
        if self.forbidden & self.required:
            raise ConfigError("an edge is both forbidden and required")
        verts = sorted({v for e in self.required for v in e})
        try:
            Dag(verts, sorted(self.required))
        except CycleDetected as exc:
            raise ConfigError(f"required edges are cyclic: {exc}") from exc

    def satisfied_by(self, g: Dag) -> bool:
        return self.required <= g.edges and not (self.forbidden & g.edges)

    @staticmethod
    def from_json(text: str) -> "KnowledgeBase":
        keys = ("forbidden", "required")
        doc = json_object(text, "knowledge", keys)
        return KnowledgeBase(**{key: doc.get(key, []) for key in keys})


@dataclass
class SearchTrace:
    moves: List[Tuple[str, Edge, float]] = field(default_factory=list)
    initial_score: float = 0.0
    final_score: float = 0.0
    iterations: int = 0


@dataclass
class Discovery:
    """One run of a search: the graph, the hill-climbing trace and the
    indicator report where the search makes them, and a function that fits
    parameters to the graph (only the bootstrap replicates call it)."""
    graph: Dag
    refit: Callable[[], ParameterSet]
    trace: Optional[SearchTrace] = None
    report: Optional[dict] = None


@dataclass
class BootstrapSummary:
    replicates: int
    edge_frequency: Dict[Edge, float]
    in_sample: List[ScoreValue]
    out_of_sample: List[ScoreValue]


def mean_sd(values) -> Tuple[float, float]:
    """Mean and sample standard deviation (0 for a single value)."""
    arr = np.array(values)
    sd = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return float(np.mean(arr)), sd


# --- hill climbing ---


def _descendants(g: Dag, index: Mapping[str, int]) -> List[int]:
    """``reach[i]``: the bitset of the i-th declared vertex and its
    descendants (bit j for the j-th), built in one reverse-topological
    pass."""
    reach = [0] * len(index)
    for v in reversed(g.topological_order()):
        bits = 1 << index[v]
        for c in g.children(v):
            bits |= reach[index[c]]
        reach[index[v]] = bits
    return reach


def hill_climb(scorer, kb: KnowledgeBase, init: Dag, max_iter: int = SearchOptions.max_iter,
               max_parents: int = SearchOptions.max_parents) -> Tuple[Dag, SearchTrace]:
    """Greedy best-improvement search. Ties break lexicographically by
    (operation, parent, child), but only among deltas equal as floats: two
    moves that tie in exact arithmetic (adding a -> b and adding b -> a
    under a score-equivalent BIC, say) can differ in their last bits, and
    then the rounding picks.

    A delta depends only on its child's old and new parent sets, so a
    child's deltas are computed when it gets a parent set: for every child
    first, then for the children the last move changed (``b``, and ``a``
    too after a reversal). They cover the moves the knowledge base and the
    parent limit allow: every delete of a parent that is not required, and
    every add that is not forbidden while the child has room. Each
    iteration asks the scorer for them in one call, ``scorer.move_delta``
    of {child: (its parents, the vertices x to toggle)}, which returns
    {child: {x: delta}}. The child ranks its improving ones. An iteration
    takes each child's first ranked move that keeps the graph acyclic now.
    A reversal a -> b is a candidate iff its delete of a and its add of b
    are both listed, and scores the sum of those two cached deltas. A pick
    tests acyclicity only. So the search takes the moves a search that
    rescored every legal move would take.

    The search keeps its own parent sets, child sets, edge set and ``reach``
    bitsets (``_descendants``). After an add a -> b, every vertex that
    reaches a ORs in what b reaches; a delete or a reversal, which are
    rare, recomputes them from a ``Dag``. The ``Dag`` it returns is built
    at the end, so acyclicity is checked once.

    A non-finite initial score is refused: every delta from it is NaN, so
    the search would stop at once and report the initial graph."""
    max_iter = checked_number(max_iter, int, "max_iter", "be >= 0", lambda v: v >= 0)
    max_parents = checked_number(max_parents, int, "max_parents", "be >= 0", lambda v: v >= 0)
    if not kb.satisfied_by(init):
        raise ConfigError("initial graph violates the knowledge base")
    trace = SearchTrace(initial_score=scorer.score(init))
    if not math.isfinite(trace.initial_score):
        raise SchemaMismatch(
            f"the initial graph scores {trace.initial_score!r}, and hill climbing needs a "
            "finite score (a score_pseudocount so large that the counts overflow gives this)")
    current = trace.initial_score
    verts = init.vertices
    index = {v: i for i, v in enumerate(verts)}
    parents = {v: init.parents(v) for v in verts}
    children = {v: init.children(v) for v in verts}
    edges = init.edges
    reach = _descendants(init, index)
    deltas = {}   # child -> {x: delta of toggling x in its parents}, the allowed moves
    ranked = {}   # child -> sorted [(-delta, op, x)], improving
    changed = verts
    for _ in range(max_iter):
        deltas.update(scorer.move_delta({
            b: (parents[b], [x for x in verts if x != b and (
                (x, b) not in kb.required if x in parents[b]
                else len(parents[b]) < max_parents and (x, b) not in kb.forbidden)])
            for b in changed}))
        for b in changed:
            ranked[b] = sorted((-delta, "delete" if x in parents[b] else "add", x)
                               for x, delta in deltas[b].items() if delta > IMPROVEMENT_EPS)
        best = None  # the smallest (-delta, op, a, b)
        for b in verts:
            for nd, op, x in ranked[b]:
                # an add x -> b makes a cycle iff b reaches x
                if op == "delete" or not reach[index[b]] >> index[x] & 1:
                    if best is None or (nd, op, x, b) < best:
                        best = (nd, op, x, b)
                    break
        for a, b in edges:
            if a in deltas[b] and b in deltas[a]:
                delta = deltas[b][a] + deltas[a][b]
                key = (-delta, "reverse", a, b)
                # a reversal makes a cycle iff another directed path a ~> b
                # remains, checked last as it is the dearest test
                if delta > IMPROVEMENT_EPS and (best is None or key < best) and not any(
                        reach[index[c]] >> index[b] & 1 for c in children[a] if c != b):
                    best = key
        if best is None:
            break
        nd, op, a, b = best
        delta = -nd
        for p, c in [(a, b), (b, a)] if op == "reverse" else [(a, b)]:
            parents[c] ^= {p}
            children[p] ^= {c}
            edges ^= {(p, c)}
        if op == "add":
            # the vertices that reach a now reach all that b reaches
            bit, below = 1 << index[a], reach[index[b]]
            reach = [r | below if r & bit else r for r in reach]
        else:
            reach = _descendants(Dag(verts, edges), index)
        changed = (b, a) if op == "reverse" else (b,)
        current += delta
        trace.moves.append((op, (a, b), delta))
    trace.iterations = len(trace.moves)
    trace.final_score = current
    return Dag(verts, edges), trace


# --- structural EM ---


def _initial_graph(names, kb: KnowledgeBase) -> Dag:
    """The search's starting point: the required edges only. Knowledge that
    names a variable the dataset lacks is a usage error, forbidden edges
    included: otherwise a misspelt name would drop the constraint unseen."""
    unknown = sorted({v for e in kb.required | kb.forbidden for v in e} - set(names))
    if unknown:
        raise ConfigError(f"knowledge names variables the dataset lacks: {unknown}")
    return Dag(names, sorted(kb.required))


def structural_em(d: CategoricalDataset, kb: KnowledgeBase,
                  opts: SearchOptions = SearchOptions()) -> Tuple[Dag, ParameterSet]:
    """Alternates parameter EM with hill climbing on expected family counts
    (soft completion) until the graph stabilizes. Each search scores the
    E-step that ``em_fit`` hands back at the parameters it returns."""
    g = _initial_graph(d.names, kb)
    params, _, e_step = em_fit(g, d, opts.refit_pseudocount, opts.em_max_iter, opts.em_tol)
    for _ in range(opts.sem_max_outer):
        scorer = BicScorer(d.schema, *e_step, pseudocount=0.0, n_effective=float(d.n))
        g2, _ = hill_climb(scorer, kb, init=g, max_iter=opts.max_iter,
                           max_parents=opts.max_parents)
        if g2 == g:
            # params are already em_fit(g): EM is deterministic
            break
        g = g2
        params, _, e_step = em_fit(g, d, opts.refit_pseudocount, opts.em_max_iter, opts.em_tol)
    return g, params


# --- IPW-corrected hill climbing ---


def detect_indicator_parents(d: CategoricalDataset, alpha: float = SearchOptions.alpha):
    """Per partially observed variable: fully observed parents of its
    missingness indicator (Bonferroni-corrected G-tests) and available-case
    evidence of dependence on other partially observed variables."""
    partial = [v.name for j, v in enumerate(d.schema) if d.mask[:, j].any()]
    fully = [v.name for j, v in enumerate(d.schema) if not d.mask[:, j].any()]
    base = Dag(list(d.names))
    report = {}
    for x in partial:
        rx = d.mask[:, d.index(x)].astype(np.int16)
        detected = []
        a_corr = alpha / max(1, len(fully))
        for w in fully:
            _, _, p = g_test(rx, d.column(w), 2, d.variable(w).cardinality)
            if p < a_corr:
                detected.append(w)
        evidence = []
        others = [w for w in partial if w != x]
        e_corr = alpha / max(1, len(others))
        for w in others:
            ok = ~d.mask[:, d.index(w)]
            _, _, p = g_test(rx[ok], d.column(w)[ok], 2,
                             d.variable(w).cardinality)
            if p < e_corr:
                evidence.append(w)
        mechanism = classify_mechanism(implied_mgraph(base, partial, {x: detected + evidence}))
        report[x] = {
            "detected_parents": detected,
            "available_case_mnar_evidence": evidence,
            "mechanism": mechanism.value,
            "self_masking": "undetectable",
        }
    return report


def hc_aipw(d: CategoricalDataset, kb: KnowledgeBase,
            opts: SearchOptions = SearchOptions()) -> Discovery:
    """Hill climbing on IPW-weighted family-complete counts.

    Missingness-indicator parents are detected by G-tests against the fully
    observed variables; each family is scored on the rows where all its
    members are observed, reweighted by the involved variables' inverse
    observation probabilities. Parameters are refit by EM, so that every
    partially observed row still contributes.
    """
    report = detect_indicator_parents(d, opts.alpha)
    var_weights = {x: ipw_weights(d, x, info["detected_parents"])
                   for x, info in report.items()}
    scorer = IpwBicScorer(d, var_weights, pseudocount=opts.score_pseudocount)
    g, trace = hill_climb(scorer, kb, _initial_graph(d.names, kb),
                          max_iter=opts.max_iter, max_parents=opts.max_parents)
    return Discovery(g, lambda: em_fit(g, d, opts.refit_pseudocount,
                                       max_iter=opts.em_max_iter, tol=opts.em_tol)[0],
                     trace, report)


# --- the algorithm registry ---


# The searches call the package's functions by their module-level names, so
# that a wrapper installed on a name is the one that runs. That is why
# bootstrap-sem's entry is a function of its own and not structural_em.

def _hc_complete(d: CategoricalDataset, kb: KnowledgeBase,
                 opts: SearchOptions) -> Discovery:
    dc = impute_mode(d)
    # each distinct row once, weighted by its count: integer counts add up
    # exactly in any order, so the scores have the bits of a count over
    # every row, with the penalty's sample size n
    first, _, counts = unique_rows(dc.rows)
    scorer = BicScorer(dc.schema, dc.rows[first], weights=counts,
                       pseudocount=opts.score_pseudocount, n_effective=dc.n)
    g, trace = hill_climb(scorer, kb, _initial_graph(dc.names, kb),
                          max_iter=opts.max_iter, max_parents=opts.max_parents)
    return Discovery(g, lambda: fit_mle(g, dc, opts.refit_pseudocount), trace)


def _bootstrap_sem(d: CategoricalDataset, kb: KnowledgeBase,
                   opts: SearchOptions) -> Discovery:
    # one structural-EM run; the resampling is _replicate's
    g, params = structural_em(d, kb, opts)
    return Discovery(g, lambda: params)


SEARCHES: Dict[str, Callable[[CategoricalDataset, KnowledgeBase, SearchOptions],
                              Discovery]] = {
    "hc-complete": _hc_complete,
    "bootstrap-sem": _bootstrap_sem,
    "hc-aipw": hc_aipw,
}
ALGORITHMS = tuple(SEARCHES)


# --- bootstrap replicates: the evaluation harness and bootstrap aggregation ---


def _replicate(args):
    """Replicate b of search ``name``: search a bootstrap resample of the
    train set, refit, and score the fit in and out of sample."""
    name, train, test, kb, stream, b, opts = args
    db = bootstrap(train, stream)
    found = SEARCHES[name](db, kb, opts)
    g = found.graph
    params = found.refit()
    ll_in = log_likelihood(params, g, db)
    ll_out = log_likelihood(params, g, test)
    for which, ll in (("in-sample", ll_in), ("held-out", ll_out)):
        if not math.isfinite(ll):
            # a row of probability 0 under the refit parameters: no report
            # can hold the value, nor any rescaling or mean of it
            raise SchemaMismatch(
                f"{name} replicate {b}: the {which} log-likelihood is {ll!r}, as a row has "
                f"probability 0 under parameters refit with refit_pseudocount "
                f"{opts.refit_pseudocount!r}")
    return name, b, sorted(g.edges), ll_in, ll_out


def _pmap(fn, jobs, threads):
    if threads <= 1 or len(jobs) <= 1:
        return [fn(j) for j in jobs]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(min(threads, len(jobs))) as pool:
        # one job at a time: with chunks, the last chunk can leave a worker idle
        return pool.map(fn, jobs, chunksize=1)


def _replicates(algorithms, d: CategoricalDataset, kb: KnowledgeBase, B: int,
                held_out_fraction: float, seed: int, threads: int, opts: SearchOptions,
                test: Optional[CategoricalDataset] = None):
    """The train and test sets, and the rows ``(name, b, edges, ll_in,
    ll_out)`` of B replicates of each algorithm, in (algorithm, b) order.
    Every algorithm sees the same B resamples. A test set given must have
    the train set's schema: its variables and their states, in order."""
    B = checked_number(B, int, "B", "be >= 1", lambda v: v >= 1)
    threads = checked_number(threads, int, "threads", "be >= 1", lambda v: v >= 1)
    split_ss, boot_ss = np.random.SeedSequence(seed).spawn(2)
    train, test = split(d, held_out_fraction, split_ss) if test is None else (d, test)
    if test.schema != train.schema:
        raise SchemaMismatch("the test set's variables or states differ from the train set's")
    streams = boot_ss.spawn(B)
    jobs = [(name, train, test, kb, streams[b], b, opts)
            for name in algorithms for b in range(B)]
    return train, test, _pmap(_replicate, jobs, threads)


def _consensus_edges(freq: Mapping[Edge, float], threshold: float,
                     kb: KnowledgeBase, vertices) -> Dag:
    edges = {e for e, f in freq.items() if f >= threshold}
    edges |= kb.required
    while True:
        try:
            return Dag(vertices, sorted(edges))
        except CycleDetected as exc:
            cyc = exc.cycle
            # KnowledgeBase refuses cyclic required edges, so every cycle holds an
            # edge that is not required
            edges.discard(min((e for e in zip(cyc, cyc[1:]) if e not in kb.required),
                              key=lambda e: (freq.get(e, 0.0), e)))


def evaluate(algorithms: Sequence[str], d: CategoricalDataset,
             kb: KnowledgeBase, B: int = 100, held_out_fraction: float = 0.2,
             seed: int = 0, threads: int = 1,
             test: Optional[CategoricalDataset] = None,
             **options) -> Dict:
    """Per-replicate in/out-of-sample log-likelihood for each algorithm on a
    shared held-out split, raw and rescaled. A ``test`` set given is the
    held-out set, and ``d`` all of the train set; it must have ``d``'s
    schema. ``options`` are the fields of ``SearchOptions``."""
    opts = SearchOptions(**options)
    if not algorithms:
        raise ConfigError("no algorithm to evaluate")
    for name in algorithms:
        if name not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {name!r}; choose from {ALGORITHMS}")
    if len(set(algorithms)) < len(algorithms):
        raise ConfigError(f"an algorithm is listed twice in {list(algorithms)}")
    train, test, results = _replicates(algorithms, d, kb, B, held_out_fraction, seed,
                                       threads, opts, test)
    in_rescaled = rescale_ll([r[3] for r in results], train.n)
    out_rescaled = rescale_ll([r[4] for r in results], test.n)
    replicates = [
        {"algorithm": name, "replicate": b, "ll_in": li, "ll_out": lo,
         "ll_in_rescaled": ri, "ll_out_rescaled": ro}
        for (name, b, _, li, lo), ri, ro in zip(results, in_rescaled, out_rescaled)
    ]
    summary = {}
    for name in algorithms:
        rows = [r for r in replicates if r["algorithm"] == name]
        summary[name] = {}
        for key in ("ll_in", "ll_out", "ll_in_rescaled", "ll_out_rescaled"):
            mean, sd = mean_sd([r[key] for r in rows])
            summary[name][f"{key}_mean"] = mean
            summary[name][f"{key}_sd"] = sd
    return {
        "algorithms": list(algorithms),
        "B": B,
        "seed": seed,
        "n_train": train.n,
        "n_test": test.n,
        "replicates": replicates,
        "summary": summary,
    }


def bootstrap_sem(d: CategoricalDataset, kb: KnowledgeBase, B: int = 100,
                  threshold: float = 0.5, seed: int = 0,
                  held_out_fraction: float = 0.2, threads: int = 1,
                  **sem_options) -> Tuple[Dag, BootstrapSummary]:
    """Structural EM on B bootstrap resamples (``evaluate``'s replicates of
    ``bootstrap-sem``); consensus graph from edges whose frequency reaches
    the threshold, cycles broken lowest-frequency first, required edges
    enforced. ``sem_options`` are the keywords of ``_SEM_KEYWORDS``, each of
    which sets a ``SearchOptions`` field."""
    unknown = sorted(set(sem_options) - set(_SEM_KEYWORDS))
    if unknown:
        raise TypeError(f"bootstrap_sem() got unexpected keyword arguments {unknown}")
    opts = SearchOptions(**{_SEM_KEYWORDS[kw]: v for kw, v in sem_options.items()})
    threshold = checked_number(threshold, float, "threshold", "lie in (0, 1]",
                               lambda v: 0 < v <= 1)
    _, _, results = _replicates(["bootstrap-sem"], d, kb, B, held_out_fraction, seed,
                                threads, opts)
    tally = Counter(e for _, _, edges, _, _ in results for e in edges)
    freq = {e: c / B for e, c in tally.items()}
    return _consensus_edges(freq, threshold, kb, d.names), BootstrapSummary(
        B, freq, [ScoreValue(r[3]) for r in results], [ScoreValue(r[4]) for r in results])
