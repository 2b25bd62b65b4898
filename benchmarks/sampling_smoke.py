"""Sampled-simulation smoke: sweep determinism and interval coverage.

1. A sampled D-cache sweep over ``crc32`` is cached in a
   :class:`~repro.core.sweep.ResultCache`; a rerun over the same cache
   directory must simulate nothing and give byte-identical points.
2. Interval-coverage spot check: a few fast kernels, five plan seeds
   each, truth from a full cycle-accurate run.

Writes the sweep and the coverage table to a JSON report.  Run from
the repository root::

    PYTHONPATH=src python benchmarks/sampling_smoke.py \\
        [--cache .ci-sampling-cache] [--report sampling-coverage-report.json]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.core import (ArchitectureConfig, ConfigurationSpace,
                        ResultCache, SweepRunner)
from repro.core.sampling import SampledRunner, SamplingPlan
from repro.core.sim import Simulator
from repro.workloads import get

#: kernel -> (n_windows, window_length, ramp_length)
PLANS = {"crc32": (8, 400, 256), "fir": (8, 400, 1024),
         "ipcheck": (3, 800, 512)}
SEEDS = range(5)


def sweep_is_deterministic(cache_dir: str) -> list[dict]:
    """A sampled sweep must be deterministic and cache cleanly."""
    plan = SamplingPlan(n_windows=3, window_length=400,
                        ramp_length=256, seed=5)
    space = ConfigurationSpace(ArchitectureConfig())
    space.add_dimension("dcache_size", [1024, 4096])
    image = get("crc32").image()
    outcome = SweepRunner(cache=ResultCache(cache_dir)).sweep(
        space, image, sampling=plan)
    assert all(p.sampled for p in outcome.points)
    rerun = SweepRunner(cache=ResultCache(cache_dir)).sweep(
        space, image, sampling=plan)
    assert rerun.stats.simulated == 0
    first = [p.canonical_json() for p in outcome.points]
    assert first == [p.canonical_json() for p in rerun.points]
    return [json.loads(text) for text in first]


def coverage(name: str, n: int, length: int, ramp: int) -> dict:
    workload = get(name)
    image = workload.image()
    truth = Simulator(capture_memory_trace=False).run(
        image, max_instructions=workload.max_instructions).cycles
    rows, covered = [], 0
    for seed in SEEDS:
        run = SampledRunner().run(
            image, SamplingPlan(n_windows=n, window_length=length,
                                ramp_length=ramp, seed=seed),
            max_instructions=workload.max_instructions)
        assert workload.check(run.result_word)
        hit = run.covers(truth)
        covered += bool(hit)
        rows.append({"seed": seed, "covered": hit,
                     "estimated_cycles": run.estimated_cycles,
                     "ci_half": run.cycles_ci_half})
    print(f"{name}: {covered}/{len(SEEDS)} intervals cover truth {truth}")
    return {"truth_cycles": truth, "plan": [n, length, ramp],
            "covered": covered, "runs": rows}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache", default=".ci-sampling-cache")
    parser.add_argument("--report", default="sampling-coverage-report.json")
    args = parser.parse_args(argv)
    report = {"sweep": sweep_is_deterministic(args.cache),
              "coverage": {name: coverage(name, *plan)
                           for name, plan in PLANS.items()}}
    Path(args.report).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
