"""Sim — the simulation box of Figure 1.

"Based on the reconfigured architecture and the automatically rewritten
application, simulation can provide additional instruction traces to
assist the developer in evaluating the effectiveness of the current
configuration."

:class:`Simulator` runs an image on a standalone Liquid processor
system — same CPU, caches, buses, boot ROM and memory as the FPX node,
but with no network stack and no leon_ctrl, so it is the fast inner
loop of architecture exploration and it can capture *instruction*
traces (the FPX streams only memory traces off the board).  A
:class:`SimReport` carries cycles, CPI, per-class instruction mix,
cache statistics, and the raw traces for the Trace Analyzer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from dataclasses import field as dataclass_field

import numpy as np

from repro.analysis.trace import MemoryTrace, TraceRecorder
from repro.bus.ahb import AhbBus
from repro.bus.apb import ApbBridge
from repro.cache import CacheController
from repro.core.config import ArchitectureConfig
from repro.core.rewriter import BUILTIN_RECIPES, install_recipes
from repro.cpu import IntegerUnit
from repro.cpu.archstate import ArchState
from repro.cpu.blockcache import TranslatedUnit
from repro.cpu.decode import decode
from repro.cpu.fastpath import FastMemory, FunctionalUnit
from repro.cpu.isa import (
    OP_BRANCH_SETHI,
    OP_CALL,
    OP_MEM,
    OP2_BICC,
    Op3,
    Op3Mem,
)
from repro.mem.bootrom import BootRom, build_boot_rom
from repro.mem.memmap import (
    CYCLE_COUNTER_OFFSET,
    IOPORT_OFFSET,
    UART_OFFSET,
    MemoryMap,
)
from repro.mem.sram import SramBank
from repro.obs.collect import point_snapshot, simulator_snapshot
from repro.obs.events import EventTrace
from repro.peripherals import Clock, CycleCounter, LedPort, Uart
from repro.toolchain.objfile import Image

_LOAD_OPS = {Op3Mem.LD, Op3Mem.LDUB, Op3Mem.LDUH, Op3Mem.LDSB, Op3Mem.LDSH,
             Op3Mem.LDD, Op3Mem.LDSTUB, Op3Mem.SWAP}
_STORE_OPS = {Op3Mem.ST, Op3Mem.STB, Op3Mem.STH, Op3Mem.STD}
_MUL_DIV = {Op3.UMUL, Op3.UMULCC, Op3.SMUL, Op3.SMULCC,
            Op3.UDIV, Op3.UDIVCC, Op3.SDIV, Op3.SDIVCC}


def _classify(inst) -> str:
    if inst.op == OP_CALL:
        return "call"
    if inst.op == OP_BRANCH_SETHI:
        return "branch" if inst.op2 == OP2_BICC else "sethi"
    if inst.op == OP_MEM:
        if inst.op3 in _LOAD_OPS:
            return "load"
        if inst.op3 in _STORE_OPS:
            return "store"
        return "mem-other"
    if inst.op3 in _MUL_DIV:
        return "muldiv"
    if inst.op3 in (Op3.SAVE, Op3.RESTORE):
        return "window"
    if inst.op3 in (Op3.CPOP1, Op3.CPOP2):
        return "custom"
    if inst.op3 in (Op3.JMPL, Op3.RETT, Op3.TICC):
        return "jump"
    return "alu"


def _fold_mix(tally) -> dict[str, int]:
    """Instruction mix from an engine's ``retire_tally``, keyed by
    instruction word or by ``(block, retired)`` (the block's first
    *retired* instructions).  A tally keeps first-seen order, so the mix
    lists classes in execution order."""
    mix: dict[str, int] = {}
    for key, count in tally.items():
        if isinstance(key, int):
            insts = (decode(key),)
        else:
            block, retired = key
            insts = block.insts[:retired]
        for inst in insts:
            kind = _classify(inst)
            mix[kind] = mix.get(kind, 0) + count
    return mix


@dataclass
class SimReport:
    """What one simulated execution measured."""

    cycles: int
    instructions: int
    instruction_mix: dict[str, int]
    dcache: dict
    icache: dict
    memory_trace: MemoryTrace
    result_word: int | None
    uart_output: bytes
    #: Program-window metrics snapshot (repro.obs schema: counters /
    #: gauges / histograms), covering exactly the measured execution —
    #: the same window the FPX cycle counter arms over.  Empty when the
    #: simulator was built with ``obs=False``.
    obs: dict = dataclass_field(default_factory=dict)
    #: Two-speed provenance: how the machine reached the measured window
    #: (the fast-forward depth asked for, the instructions retired before
    #: the window).  Empty for a cold whole-program run; never part of
    #: the report's identity.
    fastpath: dict = dataclass_field(default_factory=dict)

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    def summary_lines(self) -> list[str]:
        lines = [
            f"cycles       : {self.cycles}",
            f"instructions : {self.instructions}",
            f"CPI          : {self.cpi:.3f}",
            f"D-cache      : {self.dcache['read_hits']} hits / "
            f"{self.dcache['read_misses']} misses",
            "instruction mix:",
        ]
        total = max(self.instructions, 1)
        for name, count in sorted(self.instruction_mix.items(),
                                  key=lambda kv: -kv[1]):
            lines.append(f"  {name:<9} {count:>8}  ({count / total:.1%})")
        return lines


class Simulator:
    """Standalone Liquid processor system (no network, no leon_ctrl)."""

    def __init__(self, config: ArchitectureConfig | None = None,
                 capture_memory_trace: bool = True, recipes=None,
                 obs: bool = True):
        self.config = config or ArchitectureConfig()
        cfg = self.config
        self.memmap = MemoryMap()
        memmap = self.memmap

        rom_info = build_boot_rom(memmap, cfg.nwindows, modified=True)
        self.rom_info = rom_info
        self.clock = Clock()
        self.uart = Uart()
        self.leds = LedPort(self.clock)
        self.cycle_counter = CycleCounter(self.clock)

        self.bus = AhbBus()
        self.prom = BootRom(memmap.prom_base, memmap.prom_size,
                            rom_info.image)
        self.bus.attach(self.prom, memmap.prom_base, memmap.prom_size,
                        "prom")
        self.sram = SramBank(memmap.sram_base, memmap.sram_size)
        self.bus.attach(self.sram, memmap.sram_base, memmap.sram_size,
                        "sram")
        self.apb = apb = ApbBridge(memmap.apb_base)
        apb.attach(self.uart, UART_OFFSET, 0x10, "uart")
        apb.attach(self.leds, IOPORT_OFFSET, 0x10, "ioport")
        apb.attach(self.cycle_counter, CYCLE_COUNTER_OFFSET, 0x10,
                   "cycle_counter")
        self.bus.attach(apb, memmap.apb_base, memmap.apb_size, "apb")

        self.icache = CacheController(cfg.icache, self.bus, memmap.cacheable,
                                      name="icache")
        self.dcache = CacheController(cfg.dcache, self.bus, memmap.cacheable,
                                      name="dcache", prefetch=cfg.prefetch)
        self.cpu = IntegerUnit(self.icache, self.dcache,
                               nwindows=cfg.nwindows, timing=cfg.timing(),
                               reset_pc=memmap.prom_base)
        install_recipes(self.cpu, cfg, recipes or BUILTIN_RECIPES)

        self.recorder = TraceRecorder() if capture_memory_trace else None
        if self.recorder is not None:
            self.recorder.attach(self.dcache)

        # Two-speed execution accounting (published as the fastpath.*
        # obs series).  Native ints, same convention as the CPU's stall
        # counters.
        self.fastpath_instructions = 0   # steps executed functionally
        self.fastpath_handoffs = 0       # fast->accurate engine handoffs
        self.fastpath_blocks_translated = 0   # blocks compiled
        self.fastpath_blocks_executed = 0     # block executions
        self.fastpath_blocks_invalidated = 0  # blocks dropped (SMC/flush)
        self.checkpoint_captures = 0
        self.checkpoint_restores = 0

        # Sampled-simulation accounting: the summed
        # ``SampledRun.counters()`` of every run_sampled call (published
        # as the sampling.* obs series).
        self.sampling_counters: Counter[str] = Counter()

        # Telemetry (repro.obs): cycle-stamped control-plane events plus
        # per-point metrics snapshots.  Disabled, both are no-ops.
        self.obs_enabled = obs
        self.events = EventTrace(enabled=obs)
        if obs:
            self.cpu.on_trap = lambda tt, pc: self.events.record(
                self.cpu.cycles, "trap", tt=tt, pc=pc)

    # ------------------------------------------------------------------
    # Two-speed execution: functional fast path + checkpoints
    # ------------------------------------------------------------------

    def functional_unit(self) -> FunctionalUnit:
        """A functional executor over this simulator's *live* machine.

        Registers, control registers, decode cache, extensions and ASRs
        are shared by reference with the cycle-accurate unit; memory is
        the same SRAM/PROM byte arrays viewed flat, with the APB mapped
        through so peripheral side effects land on the same devices.
        Only PC/nPC/annul (copied in here) and the retirement counters
        are private — :meth:`_sync_from_functional` folds them back.
        """
        return self._fast_unit(FunctionalUnit)

    def translated_unit(self) -> TranslatedUnit:
        """Like :meth:`functional_unit`, but with the basic-block
        translation cache (:class:`~repro.cpu.blockcache.TranslatedUnit`)
        — same architectural results, roughly an order of magnitude
        faster on straight-line-heavy code."""
        return self._fast_unit(TranslatedUnit)

    def _fast_unit(self, factory):
        cpu = self.cpu
        mem = FastMemory()
        mem.add_region(self.memmap.prom_base, self.prom.data,
                       writable=False, name="prom")
        mem.add_region(self.memmap.sram_base, self.sram.data, name="sram")
        mem.add_mmio(self.memmap.apb_base, self.memmap.apb_size, self.apb,
                     name="apb")
        fast = factory(mem, regs=cpu.regs, ctrl=cpu.ctrl,
                       decode_cache=cpu.decode_cache,
                       extensions=cpu.extensions, asr=cpu.asr,
                       reset_pc=self.memmap.prom_base)
        fast.pc, fast.npc, fast.annul = cpu.pc, cpu.npc, cpu.annul
        fast.halted, fast.error_tt = cpu.halted, cpu.error_tt
        fast.interrupt_source = cpu.interrupt_source
        return fast

    def _sync_from_functional(self, fast: FunctionalUnit) -> None:
        """Fold a functional execution leg back into the live machine."""
        cpu = self.cpu
        cpu.pc, cpu.npc, cpu.annul = fast.pc, fast.npc, fast.annul
        cpu.halted, cpu.error_tt = fast.halted, fast.error_tt
        cpu.instret += fast.instret
        cpu.trap_count += fast.trap_count
        self.fastpath_instructions += fast.cycles
        self.fastpath_blocks_translated += getattr(
            fast, "blocks_translated", 0)
        self.fastpath_blocks_executed += getattr(fast, "blocks_executed", 0)
        self.fastpath_blocks_invalidated += getattr(
            fast, "blocks_invalidated", 0)

    def checkpoint_memory(self) -> dict:
        """ArchState protocol: name -> live byte buffer."""
        return {"sram": self.sram.data}

    def checkpoint_peripherals(self) -> dict:
        """ArchState protocol: name -> device with state()/load_state()."""
        return {"uart": self.uart, "leds": self.leds,
                "cycle_counter": self.cycle_counter}

    def capture_state(self, engine=None) -> ArchState:
        """Checkpoint the current architectural state.

        *engine* optionally names the executor whose position to
        capture (a functional/translated unit mid fast-forward) — see
        :meth:`ArchState.capture`."""
        state = ArchState.capture(self, engine=engine)
        self.checkpoint_captures += 1
        self.events.record(self.cpu.cycles, "checkpoint",
                           retired=state.retired)
        return state

    def restore_state(self, state: ArchState) -> None:
        """Adopt a previously captured architectural state, with the
        micro-architecture in its canonical window-start state.

        An ArchState is exact but carries no caches, prefetchers or
        pipeline, so a restore always leaves them flushed and reset
        (replacement clocks and RNGs back to their power-on seeds).  A
        window measured after a restore is therefore the same whoever
        produced the state and whatever this simulator ran before.
        """
        state.restore(self)
        self.icache.flush()
        self.dcache.flush()
        self.icache.reset_stats()
        self.dcache.reset_stats()
        self.cpu.pipeline.reset()
        self.checkpoint_restores += 1

    def checkpoint(self, image: Image, fast_forward: int) -> ArchState:
        """Boot, dispatch *image*, execute *fast_forward* steps of the
        program on the block-translating engine (fewer if it finishes
        first), and capture the state at the handoff point.

        The returned :class:`ArchState` can be restored into any
        simulator whose configuration shares this one's *architectural*
        shape (:meth:`ArchitectureConfig.arch_key`) — timing dimensions
        like cache geometry are free to differ, which is what lets one
        warmed checkpoint serve a whole sweep.
        """
        engine = self._boot_and_dispatch(image, self.translated_unit())
        engine.fast_forward(fast_forward, stop_pc=self.rom_info.poll_address)
        self._sync_from_functional(engine)
        return self.capture_state()

    def _boot_and_dispatch(self, image: Image, engine):
        """Boot *engine* (``self.cpu`` or a unit from
        :meth:`functional_unit` / :meth:`translated_unit`) to the polling
        loop, load *image*, run to its entry.  Returns *engine*,
        positioned at the program's first instruction."""
        poll = self.rom_info.poll_address
        engine.run(max_instructions=100_000, until_pc=poll)
        self._load_image(image)
        engine.run(max_instructions=10_000, until_pc=image.entry)
        return engine

    def _load_image(self, image: Image) -> None:
        """Deposit the program and set the mailbox (the Sim box has no
        network: it plays leon_ctrl's role itself)."""
        for base, blob in image.segments.items():
            self.sram.host_write(base, blob)
        self.sram.host_write_word(self.memmap.mailbox_start, image.entry)

    # ------------------------------------------------------------------

    def run(self, image: Image | None = None,
            max_instructions: int = 50_000_000, *,
            fast_forward: int = 0,
            from_checkpoint: ArchState | None = None) -> SimReport:
        """Boot, dispatch *image*, run it to completion, report.

        Two-speed execution: with ``fast_forward=N``, the machine warms
        up with :meth:`checkpoint` (boot plus the program's first N steps
        on the block-translating fast path), and the state is restored
        as ``from_checkpoint`` would: caches flushed, statistics zeroed,
        the cycle-accurate engine's *measured window* covering only the
        rest of the program.  ``from_checkpoint`` skips the warmup and
        restores an :class:`~repro.cpu.archstate.ArchState` captured by
        :meth:`checkpoint` — no ``image`` needed, it lives in the
        checkpoint's memory.  Both warm starts give byte-identical
        reports for the same window.

        The default (``fast_forward=0``, no checkpoint) measures the
        whole program cycle-accurately, exactly as before.
        """
        if fast_forward < 0:
            raise ValueError("fast_forward must be >= 0")
        cpu = self.cpu
        poll = self.rom_info.poll_address
        if from_checkpoint is None and image is None:
            raise ValueError(
                "run() needs an image unless from_checkpoint is given")
        if from_checkpoint is None and fast_forward:
            from_checkpoint = self.checkpoint(image, fast_forward)

        fastpath = {}
        if from_checkpoint is not None:
            self.restore_state(from_checkpoint)
            self.fastpath_handoffs += 1
            fastpath = {"fast_forward": fast_forward,
                        "warmup_instructions": from_checkpoint.retired}
            self.events.record(cpu.cycles, "handoff", **fastpath)
        else:
            self._boot_and_dispatch(image, cpu)

        # Instrument the measured window only.
        tally = cpu.retire_tally = Counter()
        if self.recorder is not None:
            self.recorder.clear()

        start_cycles, start_instret = cpu.cycles, cpu.instret
        before = simulator_snapshot(self) if self.obs_enabled else None
        self.events.record(cpu.cycles, "dispatch", entry=cpu.pc)
        cpu.run(max_instructions=max_instructions, until_pc=poll)
        cpu.retire_tally = None
        self.events.record(cpu.cycles, "done",
                           cycles=cpu.cycles - start_cycles)
        obs = (point_snapshot(simulator_snapshot(self), before)
               if self.obs_enabled else {})

        # Clear the mailbox so the polling loop parks instead of
        # re-dispatching (leon_ctrl's job on the real platform).
        self.sram.host_write_word(self.memmap.mailbox_start, 0)

        if self.recorder is not None:
            trace = self.recorder.trace()
        else:
            trace = MemoryTrace(np.zeros(0, np.uint64), np.zeros(0, np.uint8),
                                np.zeros(0, bool), np.zeros(0, bool))
        return SimReport(
            cycles=cpu.cycles - start_cycles,
            instructions=cpu.instret - start_instret,
            instruction_mix=_fold_mix(tally),
            dcache=self.dcache.stats_dict(),
            icache=self.icache.stats_dict(),
            memory_trace=trace,
            result_word=self.sram.host_read_word(self.memmap.result_addr),
            uart_output=self.uart.transmitted(),
            obs=obs,
            fastpath=fastpath,
        )

    def run_sampled(self, image: Image, plan,
                    max_instructions: int = 50_000_000):
        """SMARTS-style sampled run: execute *image* under *plan* (a
        :class:`~repro.core.sampling.SamplingPlan`) — translated
        fast-forward between checkpointed, cycle-accurate measurement
        windows — and return the :class:`~repro.core.sampling.SampledRun`
        carrying per-window observations and CLT confidence intervals.

        The measurement itself runs in fresh simulators built from this
        one's config (a pure function of ``(image, config, plan)``);
        this simulator accumulates the run's ``sampling.*`` accounting
        so its obs snapshots cover the sampled work.
        """
        from repro.core.sampling import SampledRunner

        run = SampledRunner(self.config).run(
            image, plan, max_instructions=max_instructions)
        self.sampling_counters.update(run.counters())
        self.events.record(self.cpu.cycles, "sampled",
                           windows=len(run.windows),
                           estimated_cycles=round(run.estimated_cycles))
        return run

    def run_functional(self, image: Image,
                       max_instructions: int = 50_000_000) -> SimReport:
        """Run *image* to completion entirely on the functional fast
        path: full architectural fidelity (registers, traps, memory,
        peripheral side effects), no timing at all.  ``cycles`` in the
        report equals the window's step count (CPI 1.0 by construction)
        and the cache sections are all-zero — this mode answers "what
        does the program compute", not "how fast".
        """
        return self._run_fast(image, max_instructions,
                              self.functional_unit())

    def run_translated(self, image: Image,
                       max_instructions: int = 50_000_000) -> SimReport:
        """Like :meth:`run_functional`, on the block-translating engine:
        byte-identical architectural results (the differential suite
        holds both against the accurate engine), several times faster,
        with the block-cache counters in the report's ``fastpath``
        section."""
        return self._run_fast(image, max_instructions,
                              self.translated_unit())

    def _run_fast(self, image: Image, max_instructions: int,
                  fast: FunctionalUnit) -> SimReport:
        poll = self.rom_info.poll_address
        self._boot_and_dispatch(image, fast)
        tally = fast.retire_tally = Counter()
        start_steps, start_instret = fast.cycles, fast.instret
        self.events.record(fast.cycles, "dispatch", entry=image.entry)
        fast.run(max_instructions=max_instructions, until_pc=poll)
        fast.retire_tally = None
        window = fast.cycles - start_steps
        retired = fast.instret - start_instret
        self.events.record(fast.cycles, "done", cycles=window)
        self._sync_from_functional(fast)
        self.sram.host_write_word(self.memmap.mailbox_start, 0)

        translated = isinstance(fast, TranslatedUnit)
        fastpath = {"engine": "translated" if translated else "fast",
                    "steps": window}
        if translated:
            fastpath["blocks_translated"] = fast.blocks_translated
            fastpath["blocks_executed"] = fast.blocks_executed
            fastpath["blocks_invalidated"] = fast.blocks_invalidated
        empty_trace = MemoryTrace(np.zeros(0, np.uint64),
                                  np.zeros(0, np.uint8),
                                  np.zeros(0, bool), np.zeros(0, bool))
        return SimReport(
            cycles=window,
            instructions=retired,
            instruction_mix=_fold_mix(tally),
            dcache=self.dcache.stats_dict(),
            icache=self.icache.stats_dict(),
            memory_trace=empty_trace,
            result_word=self.sram.host_read_word(self.memmap.result_addr),
            uart_output=self.uart.transmitted(),
            obs={},
            fastpath=fastpath,
        )


def simulate(image: Image, config: ArchitectureConfig | None = None,
             max_instructions: int = 50_000_000) -> SimReport:
    """One-call Sim-box run: fresh simulator, one image, one report."""
    return Simulator(config).run(image, max_instructions)
