"""Record one point of the performance trajectory.

    python3 benchmarks/baseline.py --seed 1 --out benchmarks/results/BENCH_seed.json

Runs every workload of BENCHMARK.json once untraced and once traced and
writes each run's ``detail`` (environment, inputs hash, every end-to-end
and per-layer metric) and its final result line into one JSON file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    runs = {}
    for workload in declared["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload["name"], "--seed", str(args.seed)]
            cmd += ["--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
            lines = proc.stdout.splitlines()
            detail = json.loads(next(line for line in lines if line.startswith("detail "))[len("detail ") :])
            runs[f"{workload['name']}/trace{trace}"] = {"result": json.loads(lines[-1]), "detail": detail}
            print(f"{workload['name']} trace {trace}: {lines[-1][:120]}", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds, "runs": runs}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
