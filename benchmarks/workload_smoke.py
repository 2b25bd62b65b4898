"""Workload smoke: every registry kernel self-checked, 2x2 matrix sweep.

Every kernel compiles and verifies against its Python reference model
on the functional and the accurate engine (no golden files), then a
workload x config matrix (D-cache size x multiplier) is swept through a
:class:`~repro.core.sweep.ResultCache`: every cell must pass its self
check, and a rerun over the same cache directory must simulate nothing
and give a byte-identical matrix.  Writes the matrix to a JSON report.
Run from the repository root::

    PYTHONPATH=src python benchmarks/workload_smoke.py \\
        [--cache .ci-matrix-cache] [--report workload-matrix-report.json]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.core import (ArchitectureConfig, ConfigurationSpace,
                        ResultCache, SweepRunner)
from repro.workloads import all_workloads, by_class


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache", default=".ci-matrix-cache")
    parser.add_argument("--report", default="workload-matrix-report.json")
    args = parser.parse_args(argv)

    workloads = all_workloads()
    assert len(workloads) >= 6
    assert len(by_class()) >= 4

    # Every kernel compiles and verifies against its reference model on
    # both execution engines — no golden files.
    for workload in workloads:
        for engine in ("functional", "accurate"):
            result = workload.self_check(engine=engine)
            print(result.describe())
            assert result.ok, result.describe()

    # The workload x config matrix: every cell self-checked,
    # deterministic through the result cache.
    space = ConfigurationSpace(ArchitectureConfig())
    space.add_dimension("dcache_size", [1024, 8192])
    space.add_dimension("multiplier", ["iterative", "16x16"])
    runner = SweepRunner(cache=ResultCache(args.cache))
    outcome = runner.sweep_matrix(workloads, space)
    assert not outcome.failed_checks()
    rerun = SweepRunner(cache=ResultCache(args.cache)).sweep_matrix(
        workloads, space)
    assert rerun.stats.simulated == 0
    assert outcome.canonical_json() == rerun.canonical_json()
    print(outcome.report_text())
    Path(args.report).write_text(
        json.dumps(json.loads(outcome.canonical_json()),
                   indent=2, sort_keys=True) + "\n")
    print("workload smoke ok:", outcome.winner_by_class())


if __name__ == "__main__":
    main()
