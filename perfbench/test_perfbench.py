"""The benchmark's own tests, at reduced size.

    PYTHONPATH=src python -m pytest perfbench -q -m "not slow"   # ~1 min
    PYTHONPATH=src python -m pytest perfbench -q -m slow         # ~1 min

Model counts must repeat exactly from pass to pass, and a traced pass
must report the same counts as an untraced one: tracing must not
perturb the program.  The slow test recomputes the full-detail truth
kept in ``expected.json``.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import loads  # noqa: E402
import regen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 5


@pytest.fixture(scope="module")
def data():
    return json.loads(run.DATA.read_text())


@pytest.fixture
def probe():
    probe = loads.Probe()
    yield probe
    probe.uninstall()


@pytest.mark.parametrize("name", sorted(loads.WORKLOADS))
def test_model_counts_repeat_traced_or_not(name, data, probe):
    workload = loads.make(name, SEED, probe, data, small=True)
    probe.install(workload.HOOKS)
    workload.setup()
    first, _ = run.run_passes(workload, 0)
    second, _ = run.run_passes(workload, 0)
    tracer = Tracer()
    plain, traced = run.run_passes(workload, 0, tracer)
    passes = first + second + plain + traced
    assert len(passes) == 4 and len(traced) == 1

    counts = passes[0].counts
    assert set(counts) == set(loads.COUNT_KEYS)
    for result in passes[1:]:
        assert result.counts == counts
    stats = [[(op.key, op.stats) for op in result.ops] for result in passes]
    assert all(entry == stats[0] for entry in stats[1:])
    errors = [op.error for result in passes for op in result.ops
              if op.error is not None]
    assert errors == []
    assert tracer.agg, "the traced pass recorded no spans"

    metrics = run.per_layer(tracer, traced[0].counts, 1, len(traced[0].ops),
                            tracer.layer("toolchain"), 0.0)
    assert [(name, unit) for name, (_, unit) in metrics.items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    e2e = run.end_to_end(passes, 1.0, reference.GAUGE)
    assert [(name, unit) for name, (_, unit) in e2e.items()] == [
        (m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert all(value > 0 for value, _ in e2e.values())


def test_layers_are_exercised_where_the_rationale_says(data, probe):
    """Each workload drives its own layers and bypasses the accurate
    engine where it claims to (translated_check)."""
    seen = {}
    for name in sorted(loads.WORKLOADS):
        workload = loads.make(name, SEED, probe, data, small=True)
        probe.install(workload.HOOKS)
        workload.setup()
        tracer = Tracer()
        _, traced = run.run_passes(workload, 0, tracer)
        probe.uninstall()
        seen[name] = {layer for layer, _ in tracer.agg}
    assert "cpu" not in seen["translated_check"]
    assert {"translated", "blockcache.translate"} <= seen["translated_check"]
    assert {"cpu", "cache", "bus", "result_cache.put"} <= seen["full_sweep"]
    assert {"sampling.measure", "archstate.restore", "translated",
            "cpu"} <= seen["sampled_sweep"]
    assert {"control", "fpx.build", "fpx.step",
            "recon.configure"} <= seen["fleet_drain"]


def test_wrong_expected_statistics_fail_the_op():
    """Off the default seed only the Figure 7 points are gated."""
    workload = loads.FullSweep(SEED, None, small=True)
    workload.setup()
    ungated, _ = run.run_passes(workload, 0)
    expected = {op.key: list(op.stats) for op in ungated[0].ops
                if op.key.startswith("fig7@")}
    key = sorted(expected)[0]
    expected[key] = [0] * len(loads.STAT_KEYS)
    workload.expected = expected
    results, _ = run.run_passes(workload, 0)
    failed = [op.key for op in results[0].ops if op.error is not None]
    assert failed == [key]


def _ops(*keys):
    return [loads.Op(key, 0.1, (0.0, 0.1), 10, (1, 2)) for key in keys]


def test_op_without_expected_statistics_fails():
    ops = _ops("fig7@a", "fig7@b", "xtea@a")
    loads.gate_stats(ops, {"fig7@a": [1, 2]},
                     lambda key: key.startswith("fig7@"))
    assert [op.key for op in ops if op.error is not None] == ["fig7@b"]


def test_expected_statistics_for_no_op_fail_every_op():
    ops = _ops("fig7@a", "xtea@a")
    loads.gate_stats(ops, {"fig7@a": [1, 2], "fig7@renamed": [1, 2]},
                     lambda key: key.startswith("fig7@"))
    assert all("fig7@renamed" in op.error for op in ops)


def test_speed_gauge_leaves_its_chunks_out_of_the_clock():
    gauge = reference.SpeedGauge()
    handler = signal.getsignal(signal.SIGALRM)
    gauge.start()
    try:
        host, start = time.perf_counter(), gauge.clock()
        while time.perf_counter() - host < 0.5:
            reference.chunk(100)
        clocked = gauge.clock() - start
        host = time.perf_counter() - host
    finally:
        gauge.stop()
    assert signal.getsignal(signal.SIGALRM) is handler
    assert len(gauge.seconds) >= 0.5 / reference.PERIOD / 2
    assert clocked < host - sum(gauge.seconds)
    assert gauge.speed(start, start + clocked) > 0
    # No chunk near a stretch: the speed is taken as the reference's.
    assert gauge.speed(start + 100, start + 101) == 1.0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "full_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


@pytest.mark.slow
def test_sampling_truth_matches_full_detail(data):
    assert regen.sampling_truth() == data["sampling_truth"]
