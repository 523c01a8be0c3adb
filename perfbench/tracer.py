"""Spans and counters for the traced run, recorded from outside the package.

The tracer replaces public functions and scorer methods of ``missdag`` with
wrappers. A span records name, start, end and the span open when it began;
spans live in flat arrays until the run writes them out. A layer's self time
is its span's duration minus the durations of its child spans. Hot methods
that the per-layer metrics only count (family-score lookups and cache
misses) get counting wrappers without a span.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# (module, attribute, span name); "Class.method" wraps the method on the class
SPANS = [
    ("missdag.cli", "main", "cli.main"),
    ("missdag.discovery", "structural_em", "discovery.structural_em"),
    ("missdag.discovery", "hill_climb", "discovery.hill_climb"),
    ("missdag.discovery", "detect_indicator_parents", "discovery.detect_indicator_parents"),
    ("missdag.estimation", "em_fit", "estimation.em_fit"),
    ("missdag.estimation", "expand_completions", "estimation.expand_completions"),
    ("missdag.estimation", "BicScorer.move_delta", "estimation.move_delta"),
    ("missdag.estimation", "IpwBicScorer.move_delta", "estimation.move_delta"),
    ("missdag.stats", "g_test", "stats.g_test"),
    ("missdag.graphs", "classify_mechanism", "graphs.classify_mechanism"),
    ("missdag.graphs", "d_separated", "graphs.d_separated"),
    ("missdag.data", "bootstrap", "data.bootstrap"),
    ("missdag.data", "read_csv", "data.read_csv"),
]

# Family-score lookups on both scorers, and the family counts computed on a
# cache miss. IpwBicScorer overrides _family_counts with a call to _counts_on,
# so each miss is counted once.
COUNTS = [
    ("missdag.estimation", "BicScorer.family_score", "family_lookups"),
    ("missdag.estimation", "IpwBicScorer._score_on", "family_lookups"),
    ("missdag.estimation", "BicScorer._family_counts", "family_computed"),
    ("missdag.estimation", "IpwBicScorer._counts_on", "family_computed"),
]


def _record_completions(tr, bound, result):
    rows, _, _, row_ll = result
    tr.counters["block_rows"] += rows.shape[0]
    tr.counters["block_input_rows"] += row_ll.shape[0]
    tr.counters["block_rows_max"] = max(tr.counters["block_rows_max"], rows.shape[0])


def _record_em(tr, bound, result):
    tr.counters["em_iterations"] += result[1].iterations
    tr.counters["em_converged"] += bool(result[1].converged)


def _record_hill_climb(tr, bound, result):
    iterations = result[1].iterations
    tr.counters["hc_iterations"] += iterations
    tr.counters["hc_max_iter_hit"] += iterations >= bound.arguments["max_iter"]


def _record_bootstrap(tr, bound, result):
    tr.counters["bootstrap_rows"] += result.n


def _record_read_csv(tr, bound, result):
    tr.counters["csv_cells"] += result.n * result.p


RECORDERS = {
    "estimation.expand_completions": _record_completions,
    "estimation.em_fit": _record_em,
    "discovery.hill_climb": _record_hill_climb,
    "data.bootstrap": _record_bootstrap,
    "data.read_csv": _record_read_csv,
}


def _resolve(module: str, attr: str):
    """(object that binds the name, the name, its current value or None)."""
    owner = sys.modules.get(module)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls, None)
    if isinstance(owner, type):
        return owner, name, owner.__dict__.get(name)
    return owner, name, getattr(owner, name, None)


class Tracer:
    def __init__(self):
        self.names: list = []
        self.reset()
        self._undo: list = []
        self.missing: list = []

    def reset(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self.counters: Counter = Counter()

    def _span(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        record = RECORDERS.get(name)
        sig = inspect.signature(fn) if record else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(clock())
            self.end.append(0.0)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if record is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                record(self, bound, result)
            return result
        return wrapper

    def _count(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every hooked name, on every ``missdag`` module that binds it.

        A name the package no longer has is reported in ``missing`` and its
        metrics read zero.
        """
        hooks = [(m, a, self._span, n) for m, a, n in SPANS]
        hooks += [(m, a, self._count, k) for m, a, k in COUNTS]
        for module, attr, make, key in hooks:
            owner, name, original = _resolve(module, attr)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = make(key, original)
            if isinstance(owner, type):
                targets = [owner]
            else:
                targets = [m for k, m in list(sys.modules.items())
                           if k.split(".")[0] == "missdag"
                           and getattr(m, name, None) is original]
            for target in targets:
                setattr(target, name, wrapper)
                self._undo.append((target, name, original))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._undo):
            setattr(target, name, original)
        self._undo.clear()

    def write(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), name_id=self.name_id,
                            parent=self.parent, start=self.start, end=self.end)

    def layer_metrics(self) -> dict:
        """The per-layer metrics that spans and counters give, by name."""
        name_id = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                      minlength=dur.size)
        k = len(self.names)
        calls = dict(zip(self.names, np.bincount(name_id, minlength=k).tolist()))
        self_s = dict(zip(self.names, np.bincount(name_id, weights=self_time,
                                                  minlength=k).tolist()))
        incl_s = dict(zip(self.names, np.bincount(name_id, weights=dur,
                                                  minlength=k).tolist()))
        c = self.counters
        out = {}
        for name in (n for _, _, n in SPANS):
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out["estimation.expand_completions.block_rows"] = c["block_rows"]
        out["estimation.expand_completions.block_rows_max"] = c["block_rows_max"]
        out["estimation.expand_completions.block_ratio"] = _ratio(
            c["block_rows"], c["block_input_rows"])
        out["estimation.em_fit.iterations"] = c["em_iterations"]
        out["estimation.em_fit.converged_ratio"] = _ratio(
            c["em_converged"], out["estimation.em_fit.calls"])
        out["estimation.family_score.calls"] = c["family_lookups"]
        out["estimation.family_score.distinct"] = c["family_computed"]
        out["estimation.family_score.hit_ratio"] = 1.0 - _ratio(
            c["family_computed"], c["family_lookups"]) if c["family_lookups"] else 0.0
        out["discovery.hill_climb.iterations"] = c["hc_iterations"]
        out["discovery.hill_climb.s_per_iter"] = _ratio(
            incl_s.get("discovery.hill_climb", 0.0), c["hc_iterations"])
        out["discovery.hill_climb.max_iter_hit"] = c["hc_max_iter_hit"]
        out["discovery.structural_em.outer_loops"] = self._nested(
            name_id, parent, "discovery.hill_climb", "discovery.structural_em")
        out["data.bootstrap.rows_copied"] = c["bootstrap_rows"]
        out["data.read_csv.cells"] = c["csv_cells"]
        return out

    def _nested(self, name_id, parent, inner: str, outer: str) -> int:
        """Spans named inner that run inside a span named outer."""
        if inner not in self.names or outer not in self.names:
            return 0
        inner_id, outer_id = self.names.index(inner), self.names.index(outer)
        count = 0
        for idx in np.nonzero(name_id == inner_id)[0]:
            up = parent[idx]
            while up >= 0 and name_id[up] != outer_id:
                up = parent[up]
            count += up >= 0
        return int(count)


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0
