"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/baseline.py [--workloads a,b] [--seeds 11-20] [--trace 0|1]
                                  [--write perfbench/baseline.json]

For every (workload, metric) it prints the median, the first and third
quartile (``statistics.quantiles(values, n=4)``) and the quartile distance
as a share of the median, which is the spread a metric's bound in
``BENCHMARK.json`` must cover. ``--write`` merges these into a JSON file,
under ``end_to_end`` or ``per_layer``, with the machine and the shape of
each workload's input.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list:
    if "," in text:
        return [int(s) for s in text.split(",")]
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    shape = {k: json.loads(v) for k, v in (kv.split("=") for kv in lines[-2].split()[1:])}
    return json.loads(lines[-1]), shape


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def machine() -> dict:
    import numpy
    import scipy
    model = next((line.split(":", 1)[1].strip()
                  for line in Path("/proc/cpuinfo").read_text().splitlines()
                  if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="11-20",
                        help="a range such as 11-20, or a comma list such as 11,11,11")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", type=Path, default=None)
    args = parser.parse_args(argv)
    seeds = seed_range(args.seeds)
    summary = {"seeds": seeds, "workloads": {}}
    inputs = {}
    for workload in args.workloads.split(","):
        runs, failed = [], 0
        for seed in seeds:
            result, shape = run_once(workload, seed, args.trace)
            failed += result["failed"]
            runs.append({k: m["value"] for k, m in result["metrics"].items()})
            inputs.setdefault(workload, {"seed": seed, **shape})
        metrics = {k: summarise([r[k] for r in runs]) for k in runs[0]}
        summary["workloads"][workload] = {"failed_calls": failed, "metrics": metrics}
        for k, s in metrics.items():
            print(f"{workload:18s} {k:44s} median {s['median']:.5g}  "
                  f"q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  spread {s['spread']:.3f}  "
                  + " ".join(f"{v:.4g}" for v in s["values"]),
                  flush=True)
        print(f"{workload:18s} failed calls: {failed}", flush=True)
    if args.write:
        doc = json.loads(args.write.read_text()) if args.write.exists() else {}
        doc["machine"] = machine()
        doc["run_seconds"] = spec["run_seconds"]
        doc.setdefault("inputs", {}).update(inputs)
        doc["per_layer" if args.trace else "end_to_end"] = summary
        args.write.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
