"""The cycle-accurate model's outputs against ``timing.json``.

Every value was generated before the code under test was refactored;
a mismatch means the timing model, a warm-start path or the sampled
estimator changed behaviour.  See :mod:`tests.golden.regen_timing`.
"""

from __future__ import annotations

import json

import pytest

from repro.workloads import get
from tests.golden.regen_timing import GOLDEN, GRID, PLAN, kernel_entry

_GOLDEN = json.loads(GOLDEN.read_text())


def test_golden_covers_the_current_grid():
    assert _GOLDEN["grid"] == sorted(GRID)
    assert _GOLDEN["plan"] == PLAN.as_dict()


@pytest.mark.parametrize("name", sorted(_GOLDEN["kernels"]))
def test_kernel_matches_timing_golden(name):
    entry = json.loads(json.dumps(kernel_entry(get(name))))
    expected = _GOLDEN["kernels"][name]
    for config in sorted(GRID):
        assert entry["grid"][config] == expected["grid"][config], config
    assert entry["fast_forward"] == expected["fast_forward"]
    assert entry["sampled_sha256"] == expected["sampled_sha256"]
