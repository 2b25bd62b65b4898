"""Run the benchmark ten times per workload of ``BENCHMARK.json``, with
seeds 0 to 9, and report every end-to-end metric's median, quartiles
and spread (quartile distance over median) against its bound.

Usage (from the repository root)::

    python3 perfbench/spread.py [--out perfbench/baseline.json --label COMMIT]

Runs are sequential, untraced, in fresh processes.  Exits 1 if a spread
other than ``setup_s``'s exceeds its bound.  With ``--out`` the figures
are written as a baseline record for later comparisons.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Runs per workload; run i uses seed i.
RUNS = 10


def one_run(command: list, workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    completed = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = completed.stdout.strip().splitlines()
    return {"info": json.loads(lines[-2])["perfbench"],
            "result": json.loads(lines[-1]),
            "wall_s": time.perf_counter() - start}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--label", default="")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"label": args.label, "runs": RUNS,
              "run_seconds": bench["run_seconds"], "workloads": {}}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list] = {}
        walls = []
        failed = 0
        for seed in range(RUNS):
            run = one_run(bench["command"], workload, seed,
                          bench["run_seconds"])
            record["host"] = run["info"]["host"]
            failed += run["result"]["failed"]
            walls.append(run["wall_s"])
            for name, metric in run["result"]["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for name, series in values.items():
            q1, q2, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / q2
            rows[name] = {"median": q2, "q1": q1, "q3": q3,
                          "spread": spread, "values": series}
            flag = ""
            if name != "setup_s" and spread > bounds[name]:
                flag = "  > bound"
                steady = False
            print(f"{workload:17} {name:12} median {q2:12.6g} "
                  f"spread {spread:6.3f} (bound {bounds[name]}){flag}")
        print(f"{workload:17} failed ops {failed}, "
              f"wall per run {statistics.mean(walls):.1f} s")
        record["workloads"][workload] = {"failed": failed, "metrics": rows,
                                         "wall_s": walls}
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
