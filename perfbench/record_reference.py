"""Record reference outputs that later runs are checked against.

    python3 perfbench/record_reference.py --seeds 0-31 --calls 1
    python3 perfbench/record_reference.py --seeds 11-12 --calls 24

Stores the outputs of the first ``--calls`` inputs of each seed in
``perfbench/reference.json``, keyed by workload and sub-seed, merged with
what is there. Record only from a commit whose outputs are known good.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from baseline import seed_range

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--calls", type=int, default=1)
    args = parser.parse_args(argv)
    refs = json.loads(REFERENCE.read_text())
    for workload in args.workloads.split(","):
        for seed in seed_range(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "record", workload,
                 str(seed), str(args.calls), "full"],
                cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True)
            digests = json.loads(proc.stdout.strip().splitlines()[-1])["digests"]
            refs.setdefault(workload, {}).update(digests)
            print(f"{workload} seed {seed}: {len(digests)} inputs", flush=True)
            REFERENCE.write_text(json.dumps(refs, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
