"""Differential harness: run one program on every execution engine and
compare everything the architecture defines.

A program passes when the cycle-accurate :class:`IntegerUnit`, the
functional :class:`FunctionalUnit` and the block-translating
:class:`TranslatedUnit` all finish with equal
:class:`~repro.cpu.archstate.ArchState` (registers in every window,
control registers, the full memory image, peripheral state, retired
instruction and trap counts) *and* the same UART byte stream, result
word, retired-instruction count and instruction mix.  Any divergence is an engine bug by construction — the engines
share decode and execute, so only the parts that differ (fetch/memory
path, timing shims, block translation) can be at fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.sim import SimReport, Simulator
from repro.cpu.archstate import ArchState
from repro.toolchain.driver import SourceFile, build_image

#: Generated programs are short; this bounds runaway loops/recursion.
MAX_INSTRUCTIONS = 2_000_000


def build(asm_text: str):
    return build_image([SourceFile(asm_text, "asm", "difftest.s")],
                       with_crt0=False, entry_symbol="_start")


@dataclass
class DiffResult:
    """One differential run: mismatch list plus every engine's report.

    ``traps`` logs every (tt, pc) the cycle-accurate engine took — the
    fast engines' trap *counts* are already proven equal through the
    ArchState comparison, so one engine's log describes all of them.
    """

    problems: list[str]
    accurate: SimReport
    functional: SimReport
    translated: SimReport | None = None
    traps: list[tuple[int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def trap_types(self) -> set[int]:
        return {tt for tt, _pc in self.traps}


def compare_image(image, max_instructions: int = MAX_INSTRUCTIONS
                  ) -> DiffResult:
    """Run a built image on every engine; compare each fast engine's
    result against the one cycle-accurate baseline run."""
    accurate = Simulator(capture_memory_trace=False, obs=False)
    traps: list[tuple[int, int]] = []
    accurate.cpu.on_trap = lambda tt, pc: traps.append((tt, pc))
    report_a = accurate.run(image, max_instructions=max_instructions)
    state_a = ArchState.capture(accurate)

    problems = []
    functional = Simulator(capture_memory_trace=False, obs=False)
    report_f = functional.run_functional(image,
                                         max_instructions=max_instructions)
    problems += _compare(state_a, report_a, functional, report_f,
                         "functional")
    translated = Simulator(capture_memory_trace=False, obs=False)
    report_t = translated.run_translated(image,
                                         max_instructions=max_instructions)
    problems += _compare(state_a, report_a, translated, report_t,
                         "translated")
    return DiffResult(problems, report_a, report_f, report_t, traps)


def compare_engines(asm_text: str) -> list[str]:
    """Run on every engine; return mismatch descriptions (empty = pass)."""
    return compare_image(build(asm_text)).problems


def _compare(state_a: ArchState, report_a: SimReport, sim: Simulator,
             report: SimReport, label: str) -> list[str]:
    problems = []
    state = ArchState.capture(sim)
    if state_a != state:
        problems.extend(_describe_state_diff(state_a, state, label))
    if report_a.uart_output != report.uart_output:
        problems.append(
            f"uart: accurate={report_a.uart_output.hex()} "
            f"{label}={report.uart_output.hex()}")
    if report_a.result_word != report.result_word:
        problems.append(
            f"result_word: accurate={report_a.result_word} "
            f"{label}={report.result_word}")
    if report_a.instructions != report.instructions:
        problems.append(
            f"instructions: accurate={report_a.instructions} "
            f"{label}={report.instructions}")
    if report_a.instruction_mix != report.instruction_mix:
        problems.append(
            f"instruction_mix: accurate={report_a.instruction_mix} "
            f"{label}={report.instruction_mix}")
    return problems


def _describe_state_diff(a: ArchState, b: ArchState,
                         label: str = "functional") -> list[str]:
    diffs = []
    for name in ("pc", "npc", "annul", "halted", "error_tt", "psr", "wim",
                 "tbr", "y", "cwp", "retired", "traps_taken"):
        va, vb = getattr(a, name), getattr(b, name)
        if va != vb:
            diffs.append(f"{name}: accurate={va} {label}={vb}")
    if a.globals_ != b.globals_:
        for i, (va, vb) in enumerate(zip(a.globals_, b.globals_)):
            if va != vb:
                diffs.append(f"%g{i}: accurate={va:#x} {label}={vb:#x}")
    if a.window_regs != b.window_regs:
        for i, (va, vb) in enumerate(zip(a.window_regs, b.window_regs)):
            if va != vb:
                diffs.append(
                    f"window slot {i}: accurate={va:#x} {label}={vb:#x}")
    if a.asr != b.asr:
        diffs.append(f"asr: accurate={a.asr} {label}={b.asr}")
    for name in set(a.memory) | set(b.memory):
        blob_a, blob_b = a.memory.get(name), b.memory.get(name)
        if blob_a != blob_b:
            where = next(i for i, (x, y)
                         in enumerate(zip(blob_a, blob_b)) if x != y)
            diffs.append(f"memory '{name}' first differs at +{where:#x}")
    for name in set(a.peripherals) | set(b.peripherals):
        if a.peripherals.get(name) != b.peripherals.get(name):
            diffs.append(
                f"peripheral '{name}': accurate={a.peripherals.get(name)} "
                f"{label}={b.peripherals.get(name)}")
    return diffs or [f"ArchState differs (unattributed field, {label})"]
