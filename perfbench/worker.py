"""One fresh process of a benchmark run; ``run.py`` starts it.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS SCALE

MODE is ``setup`` (set up, then exit), ``run`` (set up, then time calls for
SECONDS), ``trace`` (the per-layer run) or ``record`` (reference outputs of
the first SECONDS inputs). The worker imports ``missdag`` from the
checkout's ``src`` and prints one JSON object as its last line.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

T_IMPORT = time.monotonic()
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT / "src"))

import missdag  # noqa: E402

IMPORT_S = time.monotonic() - T_IMPORT

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference.json"
CALIBRATION_REF_S = 0.1
_CALIBRATION_ROWS = np.random.default_rng(0).integers(0, 4, size=(4000, 8)).astype(np.int16)
_CALIBRATION_NAMES = [f"V{i:02d}" for i in range(24)]


def calibration_s() -> float:
    """Seconds that a fixed mix of the kinds of work missdag does takes right
    now: tuple-keyed dictionary updates (score caches), small set and sort
    operations (move enumeration) and mixed-radix family counts (scoring).

    On a shared 2-core Xeon VM the wall time of one computation drifts by up
    to 1.5x within minutes, with user+sys time drifting alike. Times taken
    next to this computation are scaled by ``CALIBRATION_REF_S`` over its
    duration, which cancels most of the drift: there, over 200 s of one
    fixed ``hc-wide-csv`` call, scaling by just the dictionary and counting
    parts cut the quartile spread of 30-s medians from 0.23 to 0.04.
    """
    names, rows = _CALIBRATION_NAMES, _CALIBRATION_ROWS
    t0 = time.perf_counter()
    table = {}
    for i in range(200_000):
        key = (names[i % 24], (names[i % 7], names[i % 5]))
        table[key] = table.get(key, 0.0) + 1.0
    for i in range(8000):
        parents = set(names[i % 7:i % 7 + 5])
        parents.discard(names[i % 11])
        sorted(parents)
    for i in range(600):
        code = ((rows[:, i % 8].astype(np.int64) * 4 + rows[:, (i + 1) % 8]) * 4
                + rows[:, (i + 2) % 8])
        counts = np.bincount(code, minlength=64).astype(float).reshape(16, 4)
        seen = counts > 0
        float(np.sum(counts[seen] * np.log((counts / counts.sum(axis=1, keepdims=True))[seen])))
    return time.perf_counter() - t0


def _cpu() -> float:
    """User+sys seconds of this process and of its reaped children (the
    pool's workers are joined before ``evaluate`` returns)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Bench:
    def __init__(self, workload: str, seed: int, scale: str, workdir: Path):
        self.w = workloads.WORKLOADS[workload](scale)
        self.seed = seed
        refs = json.loads(REFERENCE.read_text()) if scale == "full" else {}
        self.refs = refs.get(workload, {})
        self.state = self.w.setup(seed, workdir)

    def timed(self, i: int, threads: int) -> dict:
        """One timed call on input i; the output is checked after the clock
        stops."""
        cpu0, t0 = _cpu(), time.perf_counter()
        try:
            result = self.w.call(self.state, i, threads)
        except Exception as exc:  # a failed call is counted, not fatal
            wall, cpu = time.perf_counter() - t0, _cpu() - cpu0
            return {"wall": wall, "cpu": cpu, "digest": None,
                    "problems": [f"{type(exc).__name__}: {exc}"]}
        wall, cpu = time.perf_counter() - t0, _cpu() - cpu0
        digest, problems = self.w.check(self.state, i, result)
        ref = self.refs.get(str(workloads.sub_seed(self.seed, i)))
        if digest is not None and ref is not None:
            problems += workloads.compare_to_reference(digest, ref)
        return {"wall": wall, "cpu": cpu, "digest": digest, "problems": problems}


def run(s: Bench, seconds: float) -> dict:
    """Calls on successive inputs until the next one would end well past
    the run's length."""
    calls, calibrations = [], [calibration_s()]
    t0 = time.perf_counter()
    while len(calls) < workloads.MAX_CALLS:
        calls.append(s.timed(len(calls), s.w.threads))
        calibrations.append(calibration_s())
        if time.perf_counter() - t0 + 0.5 * calls[-1]["wall"] >= seconds:
            break
    for c, before, after in zip(calls, calibrations, calibrations[1:]):
        c["scale"] = 2 * CALIBRATION_REF_S / (before + after)
    return {"calls": [{k: c[k] for k in ("wall", "cpu", "scale", "problems")}
                      for c in calls],
            "replicates": s.w.replicates(), "peak_rss_mb": _peak_rss_mb()}


def _is_time(metric: str) -> bool:
    return metric.endswith("_s") or metric.endswith(".s_per_iter")


def trace(s: Bench, spans_path: Path) -> dict:
    """Untraced calls on input 0 (with the workload's pool, and on one
    process), then two traced calls on one process. Both traced calls must
    give the same output as the untraced ones and the same counts."""
    pooled = s.timed(0, s.w.threads)
    serial = s.timed(0, 1) if s.w.threads > 1 else pooled
    tracer = Tracer()
    tracer.install()
    traced, layers = [], []
    try:
        for _ in range(2):
            tracer.reset()
            traced.append(s.timed(0, 1))
            layers.append(tracer.layer_metrics())
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    calls = [pooled] + ([serial] if serial is not pooled else []) + traced
    for c in calls:
        if c["digest"] is None or c["digest"] != pooled["digest"]:
            c["problems"].append("output differs between pooled, serial and traced calls")
    counts = [{k: v for k, v in m.items() if not _is_time(k)} for m in layers]
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        traced[1]["problems"].append(f"layer counts differ between traced calls: {diff}")
    metrics = {k: (statistics.mean(m[k] for m in layers) if _is_time(k) else v)
               for k, v in layers[0].items()}
    metrics["discovery.pool.busy_ratio"] = pooled["cpu"] / (pooled["wall"] * s.w.threads)
    metrics["import.missdag_s"] = IMPORT_S
    metrics["trace.overhead_ratio"] = (
        statistics.mean(c["wall"] for c in traced) / serial["wall"] - 1.0)
    if tracer.missing:
        print(f"trace: not found, metrics read 0: {tracer.missing}", file=sys.stderr)
    return {"calls": [{"problems": c["problems"]} for c in calls], "per_layer": metrics}


def record(s: Bench, calls: int) -> dict:
    """Reference digests of the first ``calls`` inputs, by sub-seed."""
    digests = {}
    for i in range(calls):
        result = s.w.call(s.state, i, s.w.threads)
        digest, problems = s.w.check(s.state, i, result)
        if problems:
            raise RuntimeError(f"input {i}: {problems}")
        digests[str(workloads.sub_seed(s.seed, i))] = digest
    return digests


def main(argv) -> int:
    mode, workload, seed, seconds, scale = argv
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        s = Bench(workload, int(seed), scale, workdir)
        doc = {"setup_end": time.monotonic(), "shape": s.w.shape(s.state),
               "setup_scale": 2 * CALIBRATION_REF_S / (calibration_s() + calibration_s())}
        if mode == "run":
            doc.update(run(s, float(seconds)))
        elif mode == "trace":
            doc.update(trace(s, OUT / f"spans-{workload}-seed{seed}.npz"))
        elif mode == "record":
            doc["digests"] = record(s, int(seconds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
