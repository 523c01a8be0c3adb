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
)
from .errors import (
    ConfigError,
    CycleDetected,
    MissDagError,
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
            what = f"search option {f.name!r}"
            value = checked_number(getattr(self, f.name), int if f.type == "int" else float,
                                   what)
            if f.name == "alpha" and not 0 < value <= 1:
                raise ConfigError(f"{what} must lie in (0, 1], got {value!r}")
            if f.name != "alpha" and not 0 <= value < math.inf:
                raise ConfigError(f"{what} must be finite and >= 0, got {value!r}")

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
        object.__setattr__(self, "forbidden", frozenset(tuple(e) for e in self.forbidden))
        object.__setattr__(self, "required", frozenset(tuple(e) for e in self.required))
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
        edges = {key: doc.get(key, []) for key in keys}
        for key, pairs in edges.items():
            if not isinstance(pairs, list) or not all(
                    isinstance(e, list) and len(e) == 2 and all(isinstance(v, str) for v in e)
                    for e in pairs):
                raise ConfigError(f"knowledge field {key!r} must list [parent, child] pairs")
        return KnowledgeBase(**edges)


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


def _legal(op: str, a: str, b: str, g: Dag, kb: KnowledgeBase,
           index: Mapping[str, int], reach: List[int], room: List[bool]) -> bool:
    """Whether the move ``op`` on (a, b) keeps ``g`` acyclic, within the
    knowledge base and the parent limit: "add" on a pair that is not an
    edge, "delete" and "reverse" on an edge a -> b. ``reach`` is
    ``_descendants(g, index)``; ``room[i]`` tells whether the i-th vertex
    may gain a parent."""
    i, j = index[a], index[b]
    if op == "add":
        return room[j] and not reach[j] >> i & 1 and (a, b) not in kb.forbidden
    if (a, b) in kb.required:
        return False
    # a reversal makes a cycle iff another directed path a ~> b remains
    return op == "delete" or (room[i] and (b, a) not in kb.forbidden
                              and not any(reach[index[c]] >> j & 1
                                          for c in g.children(a) if c != b))


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
    too after a reversal). They cover every delete and every add while the
    child has room, legal or not, and the child ranks its improving ones.
    An iteration takes each child's first ranked move that is legal now; a
    reversal adds its two children's cached deltas. So the search takes the
    moves a search that rescored every legal move would take.

    A non-finite initial score is refused: every delta from it is NaN, so
    the search would stop at once and report the initial graph."""
    if not kb.satisfied_by(init):
        raise ConfigError("initial graph violates the knowledge base")
    g = init
    trace = SearchTrace(initial_score=scorer.score(init))
    if not math.isfinite(trace.initial_score):
        raise SchemaMismatch(
            f"the initial graph scores {trace.initial_score!r}, and hill climbing needs a "
            "finite score (a score_pseudocount so large that the counts overflow gives this)")
    current = trace.initial_score
    verts = g.vertices
    index = {v: i for i, v in enumerate(verts)}
    deltas = {}   # child -> {x: delta of toggling x in its parents}
    ranked = {}   # child -> sorted [(-delta, op, x)], improving
    room = [False] * len(verts)
    changed = verts
    for _ in range(max_iter):
        for b in changed:
            pb = g.parents(b)
            room[index[b]] = len(pb) < max_parents
            deltas[b] = {x: scorer.move_delta(b, pb, pb - {x} if x in pb else pb | {x})
                         for x in verts if x != b and (x in pb or room[index[b]])}
            ranked[b] = sorted((-delta, "delete" if x in pb else "add", x)
                               for x, delta in deltas[b].items() if delta > IMPROVEMENT_EPS)
        reach = _descendants(g, index)
        best = None  # the smallest (-delta, op, a, b)
        for b in verts:
            for nd, op, x in ranked[b]:
                if _legal(op, x, b, g, kb, index, reach, room):
                    if best is None or (nd, op, x, b) < best:
                        best = (nd, op, x, b)
                    break
        for a, b in g.edges:
            if _legal("reverse", a, b, g, kb, index, reach, room):
                delta = deltas[b][a] + deltas[a][b]
                key = (-delta, "reverse", a, b)
                if delta > IMPROVEMENT_EPS and (best is None or key < best):
                    best = key
        if best is None:
            break
        nd, op, a, b = best
        delta = -nd
        edges = g.edges - {(a, b)}
        if op == "add":
            edges |= {(a, b)}
        elif op == "reverse":
            edges |= {(b, a)}
        g = Dag(verts, edges)
        changed = (b, a) if op == "reverse" else (b,)
        current += delta
        trace.moves.append((op, (a, b), delta))
    trace.iterations = len(trace.moves)
    trace.final_score = current
    return g, trace


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
    schema = [d.variable(v) for v in g.vertices]
    for _ in range(opts.sem_max_outer):
        scorer = BicScorer(schema, *e_step, pseudocount=0.0, n_effective=float(d.n))
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
    scorer = BicScorer(dc.schema, dc.rows, pseudocount=opts.score_pseudocount)
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
    if not kb.satisfied_by(g):
        raise MissDagError(f"{name} violated the knowledge base")
    params = found.refit()
    ll_in = log_likelihood(params, g, db).log_likelihood
    ll_out = log_likelihood(params, g, test).log_likelihood
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
    Every algorithm sees the same B resamples."""
    if B < 1:
        raise ConfigError(f"B must be >= 1, got {B}")
    split_ss, boot_ss = np.random.SeedSequence(seed).spawn(2)
    if test is None:
        train, test = split(d, held_out_fraction, split_ss)
    else:
        train = d
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
            cyc_edges = list(zip(cyc, cyc[1:]))
            removable = [e for e in cyc_edges if e not in kb.required]
            if not removable:
                raise ConfigError("required edges form a cycle") from exc
            edges.discard(min(removable, key=lambda e: (freq.get(e, 0.0), e)))


def evaluate(algorithms: Sequence[str], d: CategoricalDataset,
             kb: KnowledgeBase, B: int = 100, held_out_fraction: float = 0.2,
             seed: int = 0, threads: int = 1,
             test: Optional[CategoricalDataset] = None,
             **options) -> Dict:
    """Per-replicate in/out-of-sample log-likelihood for each algorithm on a
    shared held-out split, raw and rescaled. ``options`` are the fields of
    ``SearchOptions``."""
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
    if not 0.0 < threshold <= 1.0:
        raise ConfigError(f"threshold must lie in (0, 1], got {threshold}")
    _, _, results = _replicates(["bootstrap-sem"], d, kb, B, held_out_fraction, seed,
                                threads, opts)
    tally = Counter(e for _, _, edges, _, _ in results for e in edges)
    freq = {e: c / B for e, c in tally.items()}
    return _consensus_edges(freq, threshold, kb, d.names), BootstrapSummary(
        B, freq, [ScoreValue(r[3]) for r in results], [ScoreValue(r[4]) for r in results])
