"""The missdag benchmark: one workload run, metrics as JSON.

    python3 perfbench/run.py --workload NAME [--seed 11] [--seconds 30] [--trace 0|1]

Run it from the root of a checkout. It imports ``missdag`` from ``src``
there, so nothing needs installing, and exits with code 2 when ``src`` is
absent. Workloads and metrics are those listed in ``BENCHMARK.json``.

``--trace 0`` starts three fresh processes. Two only set up, and one sets up
and then times calls on successive seeded inputs for ``--seconds``; set-up
time is the median of the three. ``--trace 1`` starts one process that
times input 0 without tracing, then twice with every layer traced, and
reports the per-layer metrics. Either way the last line of standard output
is a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it give each metric with its unit, the failure ratio and
the input's shape.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 170


def _worker(mode: str, args) -> tuple:
    """Run one worker process; returns (its JSON document, the seconds from
    starting it to the end of its set-up)."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode, args.workload,
           str(args.seed), str(args.seconds), args.scale]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc, doc["setup_end"] - started


def measure(args) -> tuple:
    """End-to-end metrics: medians over the timed calls, set-up time over
    three fresh processes. Times are scaled to the machine speed at which
    the worker's calibration computation takes its reference time."""
    docs = [_worker(mode, args) for mode in ("setup", "run", "setup")]
    result = docs[1][0]
    calls = result["calls"]
    ok = [c for c in calls if not c["problems"]] or calls
    walls = [c["wall"] * c["scale"] for c in ok]
    metrics = {
        "run_s": statistics.median(walls),
        "replicates_per_s": result["replicates"] * len(walls) / sum(walls),
        "cpu_s": statistics.median(c["cpu"] * c["scale"] for c in ok),
        "setup_s": statistics.median(t * doc["setup_scale"] for doc, t in docs),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    print(f"unscaled: run_s {statistics.median(c['wall'] for c in ok):.6g} s, "
          f"setup_s {statistics.median(t for _, t in docs):.6g} s; "
          f"machine speed scale {statistics.median(c['scale'] for c in ok):.4g}")
    return metrics, calls, result["shape"]


def traced(args) -> tuple:
    doc, _ = _worker("trace", args)
    return doc["per_layer"], doc["calls"], doc["shape"]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "missdag" / "__init__.py").is_file():
        print(f"run.py: no missdag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        values, calls, shape = traced(args) if args.trace else measure(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = sum(1 for c in calls if c["problems"])
    for c in calls:
        for problem in c["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio {failed}/{len(calls)} = {failed / len(calls):.3g}")
    print("input " + " ".join(f"{k}={v}" for k, v in shape.items()))
    print(json.dumps({"correct": failed == 0, "attempted": len(calls),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
