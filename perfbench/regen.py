"""Regenerate the benchmark's data, ``perfbench/expected.json``.

Usage (from the repository root)::

    python3 perfbench/regen.py        # about 1 minute

The data holds, for the default workload seed, the simulated
statistics of every op of ``full_sweep`` and ``fleet_drain``, and the
full-detail cycles of each long kernel at the default configuration
(the truth ``sampled_sweep`` measures its estimates against).  Only
regenerate it for a change that is meant to alter the cycle model or
the workloads, and say so: the data is the benchmark's correctness gate.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import loads  # noqa: E402

DATA = HERE / "expected.json"


def _one_pass(workload):
    workload.setup()
    workload.prepare()
    result = workload.run_pass()
    errors = [op.error for op in result.ops if op.error is not None]
    if errors:
        raise SystemExit(f"{workload.name}: ops failed: {errors[:3]}")
    return result


def full_sweep_stats() -> dict:
    workload = loads.FullSweep(loads.DEFAULT_SEED, None)
    try:
        result = _one_pass(workload)
    finally:
        workload.finish_pass()
    return {op.key: list(op.stats) for op in result.ops}


def fleet_stats() -> dict:
    probe = loads.Probe()
    probe.install()
    workload = loads.FleetDrain(loads.DEFAULT_SEED, probe, None)
    try:
        result = _one_pass(workload)
    finally:
        workload.finish_pass()
        probe.uninstall()
    return {op.key: list(op.stats) for op in result.ops}


def full_detail_truth(name: str) -> dict:
    """Full-detail cycles of long kernel *name* at the default config."""
    from repro.core import ArchitectureConfig
    from repro.core.sim import Simulator
    from repro.workloads import get

    workload = get(name)
    seed = loads.SampledSweep.INPUT_SEED
    config = ArchitectureConfig()
    report = Simulator(config, capture_memory_trace=False).run(
        workload.image(seed), max_instructions=workload.max_instructions)
    if not workload.check(report.result_word, seed):
        raise SystemExit(f"{name}: full-detail run failed its self-check")
    return {"config": config.key(), "input_seed": seed,
            "cycles": report.cycles, "instructions": report.instructions}


def sampling_truth() -> dict:
    return {name: full_detail_truth(name)
            for name in sorted(loads.SampledSweep.PLANS)}


def main() -> int:
    data = {
        "seed": loads.DEFAULT_SEED,
        "fields": {"full_sweep": list(loads.STAT_KEYS),
                   "fleet_drain": list(loads.STAT_KEYS) + ["program_cycles"]},
        "full_sweep": full_sweep_stats(),
        "fleet_drain": fleet_stats(),
        "sampling_truth": sampling_truth(),
    }
    text = json.dumps(data, indent=1, sort_keys=True)
    # One line per statistics list keeps the file short and diffable.
    text = re.sub(r"\[\s+([-\d.,\s]+?)\s+\]",
                  lambda m: "[" + ", ".join(m.group(1).split()).replace(
                      ",,", ",") + "]", text)
    DATA.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
