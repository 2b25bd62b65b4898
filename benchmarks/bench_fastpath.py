"""Two-speed execution engine: throughput and window-identity checks.

The claim of record for the fast path: warming the Figure 8 workload on
the :class:`~repro.cpu.fastpath.FunctionalUnit` sustains at least 5x the
instruction throughput of the cycle-accurate engine, while the measured
window after the handoff stays byte-identical to a cold accurate run.
Wall-clock rates go into ``benchmark.extra_info`` so
``pytest benchmarks/bench_fastpath.py --benchmark-only -s`` prints the
comparison.
"""

from __future__ import annotations

import json
import time

from repro.core.sim import Simulator

from .conftest import figure7_image, print_table

#: Acceptance floor: functional steps/s over accurate instructions/s.
SPEEDUP_FLOOR = 5.0
#: Acceptance floors for the block translator: translated steps/s over
#: functional steps/s, and over accurate instructions/s.
TRANSLATED_FLOOR = 5.0
TRANSLATED_ACCURATE_FLOOR = 25.0
WARMUP_BUDGET = 60_000
ROUNDS = 3


def _accurate_rate(image) -> tuple[float, int]:
    best, instructions = 0.0, 0
    for _ in range(ROUNDS):
        sim = Simulator(capture_memory_trace=False, obs=False)
        start = time.perf_counter()
        report = sim.run(image)
        elapsed = time.perf_counter() - start
        best = max(best, report.instructions / elapsed)
        instructions = report.instructions
    return best, instructions


def _warm_state(sim, image, engine: str):
    """What ``checkpoint()`` does on the translated engine, on the
    ``"accurate"`` or ``"functional"`` reference engine instead: boot,
    dispatch, step WARMUP_BUDGET program steps, capture."""
    poll = sim.rom_info.poll_address
    if engine == "accurate":
        cpu = sim._boot_and_dispatch(image, sim.cpu)
        executed = 0
        while executed < WARMUP_BUDGET and cpu.pc != poll:
            cpu.step()
            executed += 1
    else:
        unit = sim._boot_and_dispatch(image, sim.functional_unit())
        unit.fast_forward(WARMUP_BUDGET, stop_pc=poll)
        sim._sync_from_functional(unit)
    return sim.capture_state()


def _functional_rate(image) -> tuple[float, int]:
    best, steps = 0.0, 0
    for _ in range(ROUNDS):
        sim = Simulator(capture_memory_trace=False, obs=False)
        start = time.perf_counter()
        # checkpoint() warms on the translated engine; this gate is
        # specifically about the single-instruction functional path.
        _warm_state(sim, image, "functional")
        elapsed = time.perf_counter() - start
        best = max(best, sim.fastpath_instructions / elapsed)
        steps = sim.fastpath_instructions
    return best, steps


def _steady_rate(image, engine: str) -> float:
    """Steady-state fast_forward throughput (steps/s): boot, let the
    engine warm its caches (decode memo, block cache), then time a fixed
    step budget.  The same methodology for both fast engines, so the
    ratio is free of boot/checkpoint overhead."""
    best = 0.0
    for _ in range(ROUNDS):
        sim = Simulator(capture_memory_trace=False, obs=False)
        eng = sim._boot_and_dispatch(image, getattr(sim, f"{engine}_unit")())
        poll = sim.rom_info.poll_address
        eng.fast_forward(2_000, stop_pc=poll)
        start = time.perf_counter()
        steps = eng.fast_forward(WARMUP_BUDGET, stop_pc=poll)
        elapsed = time.perf_counter() - start
        best = max(best, steps / elapsed)
    return best


def test_translated_throughput_floor(benchmark):
    """Block translator vs single-instruction dispatch vs accurate: the
    translated engine must sustain at least 5x the functional engine's
    steady-state step rate (and 25x the accurate engine) on the fig8
    kernel."""
    image = figure7_image()
    accurate_rate, _ = _accurate_rate(image)
    functional_rate = _steady_rate(image, "functional")

    result = {}

    def measure():
        result["rate"] = _steady_rate(image, "translated")
        return result["rate"]

    translated_rate = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = translated_rate / functional_rate
    vs_accurate = translated_rate / accurate_rate
    benchmark.extra_info["functional_steps_per_s"] = round(functional_rate)
    benchmark.extra_info["translated_steps_per_s"] = round(translated_rate)
    benchmark.extra_info["speedup_vs_functional"] = round(speedup, 2)
    benchmark.extra_info["speedup_vs_accurate"] = round(vs_accurate, 2)
    print_table(
        "Block translation throughput (fig8 kernel)",
        ["engine", "rate (steps/s)", "speedup"],
        [["cycle-accurate", f"{accurate_rate:,.0f}", "1x"],
         ["functional", f"{functional_rate:,.0f}",
          f"{functional_rate / accurate_rate:.1f}x"],
         ["translated", f"{translated_rate:,.0f}",
          f"{speedup:.2f}x functional / {vs_accurate:.1f}x accurate"]])
    assert speedup >= TRANSLATED_FLOOR, (
        f"block translation is only {speedup:.2f}x the functional engine "
        f"(floor {TRANSLATED_FLOOR}x)")
    assert vs_accurate >= TRANSLATED_ACCURATE_FLOOR, (
        f"block translation is only {vs_accurate:.1f}x the accurate "
        f"engine (floor {TRANSLATED_ACCURATE_FLOOR}x)")


def _canonical(report) -> str:
    return json.dumps({
        "cycles": report.cycles, "instructions": report.instructions,
        "mix": report.instruction_mix, "dcache": report.dcache,
        "icache": report.icache, "result_word": report.result_word,
        "uart": report.uart_output.hex(), "obs": report.obs,
    }, sort_keys=True, default=str)


def _resumed(image, engine: str):
    """The window after a state warmed on a reference *engine*."""
    state = _warm_state(Simulator(capture_memory_trace=False), image,
                        engine)
    return Simulator(capture_memory_trace=False).run(from_checkpoint=state)


def test_translated_checkpoint_is_byte_identical(benchmark):
    """A checkpoint warmed on the translated engine must hand off the
    same measured window as an accurate warmup."""
    image = figure7_image()

    def windowed():
        return Simulator(capture_memory_trace=False).run(
            image, fast_forward=WARMUP_BUDGET)

    translated = benchmark.pedantic(windowed, rounds=1, iterations=1)
    assert _canonical(translated) == _canonical(_resumed(image, "accurate"))
    assert translated.fastpath["fast_forward"] == WARMUP_BUDGET


def test_fastpath_throughput_floor(benchmark):
    """Functional warmup vs cycle-accurate execution on the fig8 kernel."""
    image = figure7_image()
    accurate_rate, instructions = _accurate_rate(image)

    result = {}

    def measure():
        result["rate"], result["steps"] = _functional_rate(image)
        return result["rate"]

    functional_rate = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = functional_rate / accurate_rate
    benchmark.extra_info["accurate_instr_per_s"] = round(accurate_rate)
    benchmark.extra_info["functional_steps_per_s"] = round(functional_rate)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    print_table(
        "Two-speed engine throughput (fig8 kernel)",
        ["engine", "rate (instr/s)", "work"],
        [["cycle-accurate", f"{accurate_rate:,.0f}", instructions],
         ["functional", f"{functional_rate:,.0f}", result["steps"]],
         ["speedup", f"{speedup:.2f}x", f">= {SPEEDUP_FLOOR}x required"]])
    assert speedup >= SPEEDUP_FLOOR, (
        f"functional fast path is only {speedup:.2f}x the accurate engine "
        f"(floor {SPEEDUP_FLOOR}x)")


def test_fast_forward_window_is_byte_identical(benchmark):
    """A functional warmup must not perturb the measured window."""
    image = figure7_image()

    fast = benchmark.pedantic(lambda: _resumed(image, "functional"),
                              rounds=1, iterations=1)
    assert _canonical(fast) == _canonical(_resumed(image, "accurate"))
    assert fast.instructions > 0
    benchmark.extra_info["window_instructions"] = fast.instructions
    benchmark.extra_info["warmup_instructions"] = \
        fast.fastpath["warmup_instructions"]
