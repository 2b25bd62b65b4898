"""Timing golden: the cycle-accurate model's exact outputs, pinned.

The timing model is the product, so any change to the accurate engine,
the caches, the pipeline or the warm-start paths must leave these
numbers alone unless it means to change them.  ``timing.json`` records,
for every registry kernel:

* a full-detail run on each configuration of :data:`GRID` — cycles,
  instructions, the instruction mix (order included), fetch / memory /
  interlock stall cycles and both caches' statistics;
* at the baseline configuration, one ``run(fast_forward=N)`` window and
  the ``canonical_json`` digest of one small sampled run.

``tests/golden/test_timing_golden.py`` recomputes every entry and
compares.  Regenerate (only when a timing change is intended, and say
so in CHANGES.md) from the repository root::

    PYTHONPATH=src python -m tests.golden.regen_timing
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

from repro.core.config import BASELINE
from repro.core.rewriter import MAC_RECIPE
from repro.core.sampling import SampledRunner, SamplingPlan
from repro.core.sim import Simulator
from repro.workloads import all_workloads

GOLDEN = Path(__file__).with_name("timing.json")


def _two_way(replacement: str):
    return replace(BASELINE, dcache=replace(BASELINE.dcache, ways=2,
                                            replacement=replacement))


#: name -> configuration of the full-detail grid.
GRID = {
    "dcache1k": BASELINE.with_dcache_size(1024),
    "baseline": BASELINE,
    "dcache16k": BASELINE.with_dcache_size(16384),
    "2way_lru": _two_way("lru"),
    "2way_lrr": _two_way("lrr"),
    "prefetch_stride": BASELINE.with_prefetch("stride"),
    "pipeline7": BASELINE.with_pipeline_depth(7),
    "mac": MAC_RECIPE.apply_to_config(BASELINE),
}

#: The baseline window fast-forwards past the first 1/FF_DIVISOR of the
#: kernel's full-detail instruction count.
FF_DIVISOR = 3
#: The small sampled run recorded per kernel.
PLAN = SamplingPlan(n_windows=2, window_length=300, ramp_length=128, seed=1)

_STALLS = ("pipeline.fetch_stall_cycles", "pipeline.mem_stall_cycles",
           "pipeline.interlock_stalls")


def _report_entry(report) -> dict:
    counters = report.obs["counters"]
    return {
        "cycles": report.cycles,
        "instructions": report.instructions,
        # A list of pairs, so the golden pins the mix's key order too.
        "instruction_mix": [list(item)
                            for item in report.instruction_mix.items()],
        "stalls": {name: counters[name] for name in _STALLS},
        "dcache": report.dcache,
        "icache": report.icache,
    }


def kernel_entry(workload) -> dict:
    """Everything the golden records for one registry kernel."""
    image = workload.image()
    budget = workload.max_instructions
    entry = {"grid": {}}
    for name, config in GRID.items():
        report = Simulator(config, capture_memory_trace=False).run(
            image, max_instructions=budget)
        entry["grid"][name] = _report_entry(report)
    depth = entry["grid"]["baseline"]["instructions"] // FF_DIVISOR
    window = Simulator(BASELINE, capture_memory_trace=False).run(
        image, max_instructions=budget, fast_forward=depth)
    entry["fast_forward"] = {"depth": depth, **_report_entry(window)}
    sampled = SampledRunner(BASELINE).run(image, PLAN,
                                          max_instructions=budget)
    entry["sampled_sha256"] = hashlib.sha256(
        sampled.canonical_json().encode("ascii")).hexdigest()
    return entry


def main() -> None:
    golden = {"plan": PLAN.as_dict(), "grid": sorted(GRID),
              "kernels": {w.name: kernel_entry(w) for w in all_workloads()}}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(golden['kernels'])} kernels)")


if __name__ == "__main__":
    main()
