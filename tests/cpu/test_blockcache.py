"""Unit tests for the basic-block translation cache.

Oracle: the plain :class:`FunctionalUnit` interpreter (and, for
architectural registers, the :class:`IntegerUnit`).  Every program runs
on a fresh interpreter and a fresh :class:`TranslatedUnit` over
identical memory; registers, control state, step counters and the full
RAM image must match exactly — the step-count contract is what makes
``fast_forward=N`` engine-independent.
"""

from __future__ import annotations

import pytest

from repro.cpu import IntegerUnit, blockcache
from repro.cpu.blockcache import MAX_BLOCK, TranslatedUnit
from repro.cpu.fastpath import FastMemory, FunctionalUnit
from repro.cpu.traps import WatchdogExpired
from repro.mem.interface import FlatMemory
from tests.conftest import RAM_BASE, RAM_SIZE, STACK_TOP, build
from tests.cpu.test_fastpath import SMALL_PROGRAM, _RecordingPort


def _make(source: str, cls, mmio_port=None):
    """A fresh engine of *cls* loaded with *source*; returns (unit, ram,
    image)."""
    image = build(source)
    buf = bytearray(RAM_SIZE)
    for base, blob in image.segments.items():
        buf[base - RAM_BASE:base - RAM_BASE + len(blob)] = blob
    mem = FastMemory()
    mem.add_region(RAM_BASE, buf, name="ram")
    if mmio_port is not None:
        mem.add_mmio(0x8000_0000, 0x100, mmio_port, name="apb")
    unit = cls(mem, reset_pc=image.entry)
    unit.regs.write(14, STACK_TOP)
    return unit, buf, image


def _assert_same_state(tu: TranslatedUnit, fu: FunctionalUnit,
                       tu_ram: bytearray, fu_ram: bytearray) -> None:
    for reg in range(32):
        assert tu.regs.read(reg) == fu.regs.read(reg), f"reg {reg}"
    assert tu.ctrl.psr == fu.ctrl.psr
    assert tu.ctrl.wim == fu.ctrl.wim
    assert tu.ctrl.tbr == fu.ctrl.tbr
    assert tu.ctrl.y == fu.ctrl.y
    assert (tu.pc, tu.npc, tu.annul) == (fu.pc, fu.npc, fu.annul)
    assert (tu.halted, tu.error_tt) == (fu.halted, fu.error_tt)
    assert tu.instret == fu.instret
    assert tu.cycles == fu.cycles
    assert tu.annulled_slots == fu.annulled_slots
    assert tu.trap_count == fu.trap_count
    assert tu_ram == fu_ram


def _run_pair(source: str, max_instructions: int = 10_000,
              until: str | None = "done"):
    """Run *source* on interpreter and translator; compare final state;
    return the translated unit (for counter assertions)."""
    fu, fu_ram, image = _make(source, FunctionalUnit)
    tu, tu_ram, _ = _make(source, TranslatedUnit)
    stop = image.symbols[until] if until else None
    fu.run(max_instructions=max_instructions, until_pc=stop)
    tu.run(max_instructions=max_instructions, until_pc=stop)
    _assert_same_state(tu, fu, tu_ram, fu_ram)
    return tu


class TestBlockParity:
    def test_small_program(self):
        tu = _run_pair(SMALL_PROGRAM)
        assert tu.blocks_translated > 0

    def test_alu_and_condition_codes(self):
        _run_pair("""
    .text
    .global _start
_start:
    set 0x7FFFFFFF, %o0
    addcc %o0, 1, %o1       ! signed overflow sets V
    addxcc %o1, %o1, %o2    ! carry-in path
    set -5, %o3
    subcc %g0, %o3, %o4     ! borrow
    subxcc %o4, 1, %o5
    orncc %o5, %g0, %l0     ! inverted-operand logic needs masking
    xnorcc %l0, %o0, %l1
    sra %o0, 4, %l2
    srl %o3, 28, %l3
    sll %o3, 3, %l4
    sra %o3, %l3, %l5       ! register shift count
done:
    nop
""")

    def test_branch_arms_and_annul(self):
        _run_pair("""
    .text
    .global _start
_start:
    set 3, %l0
loop:
    deccc %l0
    bne,a loop              ! taken: slot executes; untaken: annulled
    add %g2, 1, %g2
    ba,a skipped            ! BA,a always annuls its slot
    add %g3, 100, %g3
skipped:
    be here                 ! Z set -> taken, plain slot
    add %g4, 1, %g4
here:
    bneg done               ! N clear -> falls through
    add %g5, 1, %g5
done:
    nop
""")

    def test_call_and_jmpl_chains(self):
        _run_pair("""
    .text
    .global _start
_start:
    call leaf
    mov 7, %o0
    call leaf
    mov 9, %o0
    add %g2, %g3, %g4
done:
    nop
leaf:
    retl
    add %o0, 1, %g2
""")

    def test_save_restore_window_rotation(self):
        """SAVE/RESTORE run as generic handlers mid-block; the generated
        code must re-derive its window base afterwards.  (Deep recursion
        with real overflow/underflow traps is covered by the difftest
        window-trap parity suite, which runs all three engines.)"""
        _run_pair("""
    .text
    .global _start
_start:
    set 6, %o0
    call fib
    nop
    mov %o0, %g7
done:
    nop
fib:
    save %sp, -96, %sp
    subcc %i0, 2, %g0
    bl base
    mov %i0, %i5
    sub %i0, 1, %o0
    call fib
    nop
    mov %o0, %l1
    sub %i5, 2, %o0
    call fib
    nop
    add %o0, %l1, %i0
    ret
    restore
base:
    mov 1, %i0
    ret
    restore
""", max_instructions=100_000)

    def test_trap_mid_block_misaligned_load(self):
        """A misaligned load in the middle of a block must enter the
        trap with exact pc/npc and retire counts (ET=0: ErrorMode)."""
        src = """
    .text
    .global _start
_start:
    set 0x40002001, %o0
    add %g0, 1, %g1
    add %g0, 2, %g2
    ld [%o0], %o1           ! misaligned -> trap, ET=0 -> error mode
    add %g0, 3, %g3
done:
    nop
"""
        fu, fu_ram, image = _make(src, FunctionalUnit)
        tu, tu_ram, _ = _make(src, TranslatedUnit)
        from repro.cpu.traps import ErrorMode
        for unit in (fu, tu):
            with pytest.raises(ErrorMode):
                unit.run(max_instructions=100,
                         until_pc=image.symbols["done"])
        _assert_same_state(tu, fu, tu_ram, fu_ram)

    def test_mmio_load_store_inside_block(self):
        """Device accesses inside a translated block take the slow path
        and reach the port exactly once each."""
        src = """
    .text
    .global _start
_start:
    set 0x80000010, %o0
    ld [%o0], %o1
    st %o1, [%o0 + 4]
    ldub [%o0], %o2
    stb %o2, [%o0 + 8]
done:
    nop
"""
        fu_port, tu_port = _RecordingPort(), _RecordingPort()
        fu, fu_ram, image = _make(src, FunctionalUnit, mmio_port=fu_port)
        tu, tu_ram, _ = _make(src, TranslatedUnit, mmio_port=tu_port)
        done = image.symbols["done"]
        fu.run(max_instructions=100, until_pc=done)
        tu.run(max_instructions=100, until_pc=done)
        _assert_same_state(tu, fu, tu_ram, fu_ram)
        assert tu_port.reads == fu_port.reads
        assert tu_port.writes == fu_port.writes


class TestCoherence:
    def test_store_into_translated_block(self):
        """The SMC patch loop from the fastpath suite, now with block
        invalidation in the mix."""
        tu = _run_pair("""
    .text
    .global _start
_start:
    set patch, %o0
    set target, %o1
    ld [%o0], %o2
    st %o2, [%o1]           ! overwrite 'add 1' with 'add 2'
    set 3, %l1
loop:
    deccc %l1
target:
    add %g3, 1, %g3
    bg loop
    nop
done:
    nop
patch:
    add %g3, 2, %g3
""")
        assert tu.blocks_invalidated > 0

    def test_store_into_active_block_bails_out(self):
        """A block that patches its *own* later instructions must
        observe the new code the first time through."""
        tu = _run_pair("""
    .text
    .global _start
_start:
    set patch, %o0
    ld [%o0], %o1
    set target, %o2
    add %g0, 5, %g4
    st %o1, [%o2]           ! patch an instruction *ahead* in this block
    add %g1, 1, %g1
target:
    add %g3, 1, %g3         ! becomes 'add %g3, 2, %g3'
    add %g2, 1, %g2
done:
    nop
patch:
    add %g3, 2, %g3
""")
        assert tu.blocks_invalidated > 0

    def test_store_into_delay_slot(self):
        """Patching the delay slot of an already-translated branch."""
        _run_pair("""
    .text
    .global _start
_start:
    set patch, %o0
    ld [%o0], %o1
    set slot, %o2
    set 2, %l1
loop:
    deccc %l1
    bg loop
slot:
    add %g5, 1, %g5         ! patched after first translation
    st %o1, [%o2]
    set 2, %l1
loop2:
    deccc %l1
    bg loop2
    add %g0, 0, %g0
    b loop_done
    nop
loop_done:
    add %g6, %g5, %g6
done:
    nop
patch:
    add %g5, 3, %g5
""")

    def test_flush_clears_block_cache(self):
        src = """
    .text
    .global _start
_start:
    add %g1, 1, %g1
    flush [%g0]
    add %g2, 1, %g2
done:
    nop
"""
        tu = _run_pair(src)
        # the flush dropped everything translated before it; only code
        # translated *after* the flush may remain cached
        assert tu.blocks_invalidated >= 1
        assert all(b.entry > build(src).symbols["_start"]
                   for b in tu._blocks.values())

    def test_data_write_invalidates_spanning_pages(self):
        """A block straddling a page boundary dies when either page is
        written."""
        mem = FastMemory()
        buf = bytearray(0x1000)
        mem.add_region(RAM_BASE, buf, name="ram")
        # fill with NOPs then a branch-to-self at the end
        nop = (0x01000000).to_bytes(4, "big")
        for i in range(0, 0x200, 4):
            buf[i:i + 4] = nop
        tu = TranslatedUnit(mem, reset_pc=RAM_BASE + 0xF0)
        block = tu._translate(RAM_BASE + 0xF0)  # spans pages 0 and 1
        assert block is not None and len(block.pages) == 2
        tu.data_write(RAM_BASE + 0x104, 4, 0)  # second page only
        assert (RAM_BASE + 0xF0) not in tu._blocks
        assert tu.blocks_invalidated == 1


class TestStepContract:
    def test_fast_forward_exact_budget(self):
        """fast_forward(N) executes exactly N steps even when N lands
        mid-block — byte-identical to N interpreter steps."""
        src = SMALL_PROGRAM
        probe, _, image = _make(src, FunctionalUnit)
        total = probe.fast_forward(10_000,
                                   stop_pc=image.symbols["done"])
        assert total > 4  # several budgets land mid-block below
        for budget in range(1, total + 1):
            fu, fu_ram, _ = _make(src, FunctionalUnit)
            tu, tu_ram, _ = _make(src, TranslatedUnit)
            assert fu.fast_forward(budget) == tu.fast_forward(budget)
            _assert_same_state(tu, fu, tu_ram, fu_ram)

    def test_fast_forward_stop_pc_inside_block(self):
        """A stop PC in the middle of a translated block must still
        stop exactly there."""
        src = """
    .text
    .global _start
_start:
    add %g1, 1, %g1
    add %g2, 1, %g2
mid:
    add %g3, 1, %g3
    add %g4, 1, %g4
done:
    nop
"""
        fu, fu_ram, image = _make(src, FunctionalUnit)
        tu, tu_ram, _ = _make(src, TranslatedUnit)
        mid = image.symbols["mid"]
        # translate the whole block first, then ask to stop inside it
        tu2, _, _ = _make(src, TranslatedUnit)
        tu2.fast_forward(100, stop_pc=image.symbols["done"])
        fu.fast_forward(100, stop_pc=mid)
        tu.fast_forward(100, stop_pc=mid)
        assert tu.pc == mid == fu.pc
        _assert_same_state(tu, fu, tu_ram, fu_ram)

    def test_run_contract_matches_functional(self):
        """Same run() contract as the interpreter: silent return without
        until_pc, WatchdogExpired with one."""
        src = """
    .text
    .global _start
_start:
    b _start
    add %g1, 1, %g1
done:
    nop
"""
        fu, _, image = _make(src, FunctionalUnit)
        tu, _, _ = _make(src, TranslatedUnit)
        assert fu.run(max_instructions=50) >= 0   # silent return
        assert tu.run(max_instructions=50) >= 0
        assert tu.instret == fu.instret
        with pytest.raises(WatchdogExpired):
            tu.run(max_instructions=50, until_pc=image.symbols["done"])

    def test_max_block_bound(self):
        """A long straight-line run is split into MAX_BLOCK-bounded
        blocks and still matches the interpreter."""
        body = "\n".join(f"    add %g1, {i % 7 + 1}, %g1"
                         for i in range(3 * MAX_BLOCK))
        tu = _run_pair(f"""
    .text
    .global _start
_start:
{body}
done:
    nop
""")
        assert tu.blocks_translated >= 3
        assert all(b.length <= MAX_BLOCK
                   for b in tu._blocks.values())


class TestSimulatorIntegration:
    def test_translated_unit_shares_architectural_state(self):
        from repro.core.sim import Simulator

        sim = Simulator(capture_memory_trace=False, obs=False)
        tu = sim.translated_unit()
        assert tu.regs is sim.cpu.regs
        assert tu.ctrl is sim.cpu.ctrl
        tu.regs.write(9, 0x4321)
        assert sim.cpu.regs.read(9) == 0x4321

    def test_iu_registers_match_after_translated_run(self):
        """Cross-check against the cycle-accurate engine, not just the
        functional interpreter."""
        image = build(SMALL_PROGRAM)
        iu_mem = FlatMemory(size=RAM_SIZE, base=RAM_BASE)
        for base, blob in image.segments.items():
            iu_mem.load(base, blob)
        iu = IntegerUnit(iu_mem, iu_mem, reset_pc=image.entry)
        iu.regs.write(14, STACK_TOP)
        tu, _, _ = _make(SMALL_PROGRAM, TranslatedUnit)
        done = image.symbols["done"]
        iu.run(max_instructions=10_000, until_pc=done)
        tu.run(max_instructions=10_000, until_pc=done)
        for reg in range(32):
            assert tu.regs.read(reg) == iu.regs.read(reg), f"reg {reg}"
        assert tu.ctrl.psr == iu.ctrl.psr
        assert tu.instret == iu.instret


def _dispatched(image):
    """A fresh simulator booted onto *image* on the translated engine:
    (simulator, unit positioned at the entry, boot-ROM poll address)."""
    from repro.core.sim import Simulator

    sim = Simulator(capture_memory_trace=False, obs=False)
    unit = sim._boot_and_dispatch(image, sim.translated_unit())
    return sim, unit, sim.rom_info.poll_address


class TestCodeCache:
    """Compiled block code is shared process-wide, keyed by source;
    everything a block touches stays bound per unit."""

    def test_fresh_simulators_share_code_objects(self):
        from repro.workloads import get

        image = get("crc32").image()
        units = []
        for _ in range(2):
            sim, unit, poll = _dispatched(image)
            unit.run(max_instructions=1_000_000, until_pc=poll)
            units.append((sim, unit))
        (sim_a, a), (sim_b, b) = units
        common = set(a._blocks) & set(b._blocks)
        assert common
        for entry in common:
            block_a, block_b = a._blocks[entry], b._blocks[entry]
            assert block_a.code.__code__ is block_b.code.__code__
            assert block_a.code is not block_b.code
            # Each function binds its own unit's control registers.
            assert block_a.code.__defaults__[0] is sim_a.cpu.ctrl
            assert block_b.code.__defaults__[0] is sim_b.cpu.ctrl
        # The counter still means "translated by this unit".
        assert a.blocks_translated == b.blocks_translated > 0

    def test_interleaved_units_keep_their_own_state(self):
        from repro.toolchain.driver import compile_c_program
        from repro.workloads import get

        workload = get("crc32")
        seeds = (1, 2)
        assert workload.expected(1) != workload.expected(2)
        runs = [_dispatched(compile_c_program(workload.c_source(seed)))
                for seed in seeds]
        live = list(runs)
        while live:
            # A few blocks at a time, alternating between the units.
            for run in tuple(live):
                _, unit, poll = run
                unit.fast_forward(16, stop_pc=poll)
                if unit.pc == poll:
                    live.remove(run)
        (_, a, _), (_, b, _) = runs
        assert any(a._blocks[e].code.__code__ is b._blocks[e].code.__code__
                   for e in set(a._blocks) & set(b._blocks))
        for seed, (sim, unit, _) in zip(seeds, runs):
            sim._sync_from_functional(unit)
            result = sim.sram.host_read_word(sim.memmap.result_addr)
            assert workload.check(result, seed)

    def test_self_modified_block_gets_new_code(self):
        src = """
    .text
    .global _start
_start:
    add %g1, 1, %g1
target:
    add %g2, 1, %g2
done:
    ba done
    nop
patch:
    add %g2, 2, %g2
"""
        tu, ram, image = _make(src, TranslatedUnit)
        entry = image.symbols["_start"]
        target = image.symbols["target"]

        def word(symbol):
            offset = image.symbols[symbol] - RAM_BASE
            return int.from_bytes(ram[offset:offset + 4], "big")

        original, patched = word("target"), word("patch")
        code = tu._translate(entry).code.__code__
        tu.data_write(target, 4, patched)
        assert entry not in tu._blocks
        assert tu._translate(entry).code.__code__ is not code
        # Restoring the original word restores the original source,
        # which the cache still holds.
        tu.data_write(target, 4, original)
        assert tu._translate(entry).code.__code__ is code

    def test_cache_clears_at_its_cap(self, monkeypatch):
        monkeypatch.setattr(blockcache, "_CODES", {})
        monkeypatch.setattr(blockcache, "MAX_CODES", 2)
        src = """
    .text
    .global _start
_start:
    ba one
    add %g1, 1, %g1
one:
    ba two
    add %g2, 1, %g2
two:
    ba two
    add %g3, 1, %g3
"""
        tu, _, image = _make(src, TranslatedUnit)
        sizes = []
        for symbol in ("_start", "one", "two"):
            tu._translate(image.symbols[symbol])
            sizes.append(len(blockcache._CODES))
        assert sizes == [1, 2, 1]
        assert tu._blocks[image.symbols["two"]].source in blockcache._CODES
