"""Smoke sweep: two points on two workers, telemetry report.

A 2-point D-cache sweep of a one-line program runs on two worker
processes through a :class:`~repro.core.sweep.ResultCache`: every point
must compute the right answer and carry the pipeline / cache /
transport series, the serial sweep must match byte for byte, and a
rerun must simulate nothing.  Writes the sweep's metrics and every
point's snapshot to a JSON report.  Run from the repository root::

    PYTHONPATH=src python benchmarks/smoke_sweep.py \\
        [--cache .ci-sweep-cache] [--report obs-report.json]
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.core import (ArchitectureConfig, ConfigurationSpace,
                        ResultCache, SweepRunner)
from repro.obs import MetricsRegistry
from repro.obs.report import render_json, render_text
from repro.toolchain.driver import compile_c_program


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache", default=".ci-sweep-cache")
    parser.add_argument("--report", default="obs-report.json")
    args = parser.parse_args(argv)

    image = compile_c_program("int main(void) { return 6 * 7; }")
    space = ConfigurationSpace(ArchitectureConfig())
    space.add_dimension("dcache_size", [1024, 4096])
    registry = MetricsRegistry()
    runner = SweepRunner(workers=2, cache=ResultCache(args.cache),
                         obs=registry)
    outcome = runner.sweep(space, image)
    assert len(outcome.points) == 2
    assert all(p.result_word == 42 for p in outcome.points)
    for p in outcome.points:
        counters = p.obs["counters"]
        assert counters["pipeline.interlock_stalls"] >= 0
        assert counters["cache.read_misses{cache=icache}"] > 0
        assert counters["cache.read_misses{cache=dcache}"] >= 0
        assert counters["transport.dropped_corrupt"] == 0
    serial = SweepRunner(workers=0).sweep(space, image)
    assert [p.canonical_json() for p in serial.points] == \
           [p.canonical_json() for p in outcome.points]
    rerun = runner.sweep(space, image)
    assert rerun.stats.simulated == 0
    report = {
        "sweep": registry.snapshot(),
        "points": {p.config.key(): p.obs for p in outcome.points},
    }
    Path(args.report).write_text(render_json(report) + "\n")
    print(render_text(outcome.points[0].obs,
                      title=outcome.points[0].config.key()))
    print("smoke sweep ok:",
          [(p.config.key(), p.cycles) for p in outcome.points])


if __name__ == "__main__":
    main()
