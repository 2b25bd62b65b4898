"""Two-speed execution through the public surfaces:
``Simulator.run(fast_forward=...)`` and ``SweepRunner.sweep(...,
fast_forward=...)``.

The contract under test: the *measured window* of a fast-forwarded run
is byte-identical no matter how the machine reached the window — a
state warmed on the accurate, functional or translated engine, restored
into a fresh or an already-used simulator — and the sweep engine builds
one warmed checkpoint per (image, arch_key) family and reuses it
everywhere, including across processes and from disk.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import ArchitectureConfig
from repro.core.sampling import SamplingPlan
from repro.core.sim import Simulator
from repro.core.sweep import CHECKPOINT_SCHEMA, ResultCache, SweepRunner
from repro.cpu.archstate import ArchState
from repro.obs.collect import simulator_snapshot
from repro.toolchain.driver import compile_c_program

pytestmark = pytest.mark.slow

#: Big enough that WARMUP leaves a substantial measured window (the
#: loop retires ~43k instructions; warmup covers only the first 3k).
WORKLOAD = """
unsigned data[256];
int main(void) {
    unsigned i, sum = 0;
    for (i = 0; i < 1200; i++) { sum += data[i & 255] + i; data[i & 255] = sum; }
    return (int)sum;
}
"""
WARMUP = 3_000


@pytest.fixture(scope="module")
def image():
    return compile_c_program(WORKLOAD)


def _canonical(report) -> str:
    """The identity-relevant fields of a SimReport (fastpath provenance
    deliberately excluded — it describes *how*, not *what*)."""
    return json.dumps({
        "cycles": report.cycles, "instructions": report.instructions,
        "mix": report.instruction_mix, "dcache": report.dcache,
        "icache": report.icache, "result_word": report.result_word,
        "uart": report.uart_output.hex(), "obs": report.obs,
    }, sort_keys=True, default=str)


def _stepped_state(image, engine: str, steps: int = WARMUP):
    """Boot *image* on a reference engine (``"accurate"`` or
    ``"functional"``), step *steps* program steps, and capture: the
    warm state ``checkpoint()`` builds on the translated engine."""
    sim = Simulator(capture_memory_trace=False)
    poll = sim.rom_info.poll_address
    if engine == "accurate":
        cpu = sim._boot_and_dispatch(image, sim.cpu)
        executed = 0
        while executed < steps and cpu.pc != poll:
            cpu.step()
            executed += 1
    else:
        unit = sim._boot_and_dispatch(image, sim.functional_unit())
        unit.fast_forward(steps, stop_pc=poll)
        sim._sync_from_functional(unit)
    return sim.capture_state()


class TestSimulatorFastForward:
    def test_warmup_engine_does_not_change_the_window(self, image):
        """States stepped on the accurate and functional reference
        engines resume to the window ``run(fast_forward=N)`` measures."""
        direct = Simulator(capture_memory_trace=False).run(
            image, fast_forward=WARMUP)
        for engine in ("accurate", "functional"):
            resumed = Simulator(capture_memory_trace=False).run(
                from_checkpoint=_stepped_state(image, engine))
            assert _canonical(resumed) == _canonical(direct), engine
        # the window must be substantial, or this test proves nothing
        assert direct.instructions > 10_000
        assert direct.fastpath["fast_forward"] == WARMUP

    def test_translated_checkpoint_matches_functional(self, image):
        """checkpoint() warms on the translated engine; the captured
        state must be byte-identical to a functional or accurate warmup
        of the same depth, and the block cache must actually have run."""
        warm = Simulator(capture_memory_trace=False)
        state = warm.checkpoint(image, WARMUP)
        assert state == _stepped_state(image, "functional")
        assert state == _stepped_state(image, "accurate")
        assert warm.fastpath_blocks_translated > 0
        assert warm.fastpath_blocks_executed > 0

    def test_checkpoint_restore_reproduces_the_window(self, image):
        """``run(fast_forward=N)`` and resuming ``checkpoint(N)``'s
        state are one path: the same window, the same provenance."""
        direct = Simulator(capture_memory_trace=False).run(
            image, fast_forward=WARMUP)
        warm = Simulator(capture_memory_trace=False)
        state = warm.checkpoint(image, WARMUP)
        resumed = Simulator(capture_memory_trace=False).run(
            from_checkpoint=state)
        assert _canonical(resumed) == _canonical(direct)
        assert (resumed.fastpath["warmup_instructions"]
                == direct.fastpath["warmup_instructions"] == state.retired)

    def test_restore_into_a_used_simulator(self, image):
        """A restore leaves nothing of the simulator's past behind: warm
        caches, a trained stride prefetcher and an advanced replacement
        RNG on a 2-way random D-cache all give way to the canonical
        window start, so the window matches a fresh simulator's."""
        config = replace(
            ArchitectureConfig(prefetch="stride"),
            dcache=replace(ArchitectureConfig().dcache, size=1024, ways=2,
                           replacement="random"))
        state = Simulator(config, capture_memory_trace=False).checkpoint(
            image, WARMUP)
        fresh = Simulator(config, capture_memory_trace=False).run(
            from_checkpoint=state)
        assert fresh.instructions > 10_000

        used = Simulator(config, capture_memory_trace=False)
        cold = used.run(image)
        dcache = used.dcache
        assert dcache.cache.valid_lines > 0
        assert dcache.prefetcher.stats.issued > 0
        assert cold.dcache["evictions"] > 0  # the RNG picked victims
        dcache.cache._rng.integers(2, size=1000)  # and moved on further
        again = used.run(from_checkpoint=state)
        assert _canonical(again) == _canonical(fresh)

        # the same state taken through its JSON payload, too
        rebuilt = ArchState.from_payload(
            json.loads(json.dumps(state.to_payload())))
        assert _canonical(used.run(from_checkpoint=rebuilt)) == \
            _canonical(fresh)

    def test_fast_forward_past_program_end(self, image):
        """A warmup budget larger than the whole program parks at the
        polling loop; the measured window is then empty but well-formed."""
        report = Simulator(capture_memory_trace=False).run(
            image, fast_forward=10_000_000)
        assert report.instructions == 0
        assert report.fastpath["warmup_instructions"] > 0
        assert report.result_word == Simulator(
            capture_memory_trace=False).run(image).result_word

    def test_fast_forward_zero_is_the_seed_behavior(self, image):
        cold = Simulator(capture_memory_trace=False).run(image)
        explicit = Simulator(capture_memory_trace=False).run(
            image, fast_forward=0)
        assert _canonical(cold) == _canonical(explicit)
        assert cold.fastpath == {} and explicit.fastpath == {}

    def test_negative_fast_forward_rejected(self, image):
        with pytest.raises(ValueError):
            Simulator(capture_memory_trace=False).run(
                image, fast_forward=-1)

    def test_obs_exposes_fastpath_counters(self, image):
        sim = Simulator(capture_memory_trace=False)
        report = sim.run(image, fast_forward=WARMUP)
        # window deltas exist in the report's schema...
        assert "fastpath.instructions" in report.obs["counters"]
        assert "fastpath.handoffs" in report.obs["counters"]
        # ...and the simulator totals show the warmup actually ran fast
        # and handed off through one checkpoint capture and restore
        totals = simulator_snapshot(sim)["counters"]
        assert totals["fastpath.instructions"] > 0
        assert totals["fastpath.handoffs"] == 1
        assert totals["fastpath.checkpoint_captures"] == 1
        assert totals["fastpath.checkpoint_restores"] == 1
        # the window itself does none of that
        assert report.obs["counters"]["fastpath.checkpoint_captures"] == 0

    def test_obs_exposes_block_cache_counters(self, image):
        sim = Simulator(capture_memory_trace=False)
        sim.run(image, fast_forward=WARMUP)
        totals = simulator_snapshot(sim)["counters"]
        assert totals["fastpath.blocks_translated"] > 0
        assert totals["fastpath.blocks_executed"] > 0
        assert totals["fastpath.blocks_invalidated"] >= 0


class TestSweepFastForward:
    CONFIGS = [ArchitectureConfig().with_dcache_size(size)
               for size in (1024, 4096)]

    def test_one_checkpoint_serves_the_arch_family(self, image, tmp_path):
        cache = ResultCache(tmp_path)
        outcome = SweepRunner(cache=cache).sweep(
            self.CONFIGS, image, fast_forward=WARMUP)
        # both configs share nwindows/extensions -> one checkpoint
        assert outcome.stats.checkpoints_built == 1
        assert outcome.stats.simulated == 2
        assert cache.stats.checkpoint_stores == 1

    def test_rerun_is_entirely_cached(self, image, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(cache=cache)
        runner.sweep(self.CONFIGS, image, fast_forward=WARMUP)
        again = runner.sweep(self.CONFIGS, image, fast_forward=WARMUP)
        assert again.stats.simulated == 0
        assert again.stats.checkpoints_built == 0
        assert again.stats.cache_hits == 2

    @pytest.mark.parametrize("mode", [
        pytest.param({"fast_forward": WARMUP}, id="ff"),
        pytest.param({"sampling": SamplingPlan(
            n_windows=3, window_length=400, ramp_length=256, seed=5)},
            id="sampling"),
    ])
    def test_checkpoint_survives_on_disk(self, image, tmp_path, mode):
        first = SweepRunner(cache=ResultCache(tmp_path)).sweep(
            [self.CONFIGS[0]], image, **mode)
        # fresh runner+cache, results wiped from memory: the point is
        # served from disk; force a re-simulation of a sibling config to
        # prove the family artifact (the -ffN checkpoint, or sampling's
        # survey + checkpoints) comes back from disk too.
        cache = ResultCache(tmp_path)
        second = SweepRunner(cache=cache).sweep(self.CONFIGS, image, **mode)
        assert second.stats.checkpoints_built == 0
        assert second.stats.checkpoint_hits == 1
        assert second.stats.simulated == 1  # only the sibling config
        assert (second.points[0].canonical_json()
                == first.points[0].canonical_json())
        # the sibling measured from the reloaded artifact matches one
        # measured from a freshly built artifact
        fresh = SweepRunner().sweep([self.CONFIGS[1]], image, **mode)
        assert (second.points[1].canonical_json()
                == fresh.points[0].canonical_json())

    @pytest.mark.parametrize("damage", ["parent-format", "inner-schema",
                                        "damaged-memory"])
    def test_unreadable_artifact_is_rebuilt(self, image, tmp_path, damage):
        """A checkpoint file the code cannot decode — the previous
        layout (outer schema 3 around an ArchState payload with clock
        and RNG fields), a stale inner payload schema, or a damaged
        memory image — is a miss: the sweep rebuilds and overwrites it,
        and its records match a fresh cache's byte for byte."""
        fresh = SweepRunner(cache=ResultCache(tmp_path / "fresh")).sweep(
            self.CONFIGS, image, fast_forward=WARMUP)
        [path] = (tmp_path / "fresh").glob("*/checkpoint-*.json")
        record = json.loads(path.read_text())
        payload = record["artifact"]
        if damage == "parent-format":
            rng = np.random.default_rng(0).bit_generator.state
            record["schema"] = 3
            payload.update(schema=1, clock_cycles=0,
                           rng={"icache": rng, "dcache": rng})
        elif damage == "inner-schema":
            payload["schema"] = 999
        else:
            payload["memory"]["sram"] = payload["memory"]["sram"][:64]
        stale = tmp_path / "stale" / path.relative_to(tmp_path / "fresh")
        stale.parent.mkdir(parents=True)
        stale.write_text(json.dumps(record))

        outcome = SweepRunner(cache=ResultCache(tmp_path / "stale")).sweep(
            self.CONFIGS, image, fast_forward=WARMUP)
        assert outcome.stats.checkpoints_built == 1
        assert outcome.stats.checkpoint_hits == 0
        assert ([p.canonical_json() for p in outcome.points]
                == [p.canonical_json() for p in fresh.points])
        rebuilt = json.loads(stale.read_text())
        assert rebuilt["schema"] == CHECKPOINT_SCHEMA
        assert rebuilt["artifact"] == json.loads(path.read_text())["artifact"]

    def test_serial_and_parallel_agree(self, image):
        serial = SweepRunner(workers=0).sweep(
            self.CONFIGS, image, fast_forward=WARMUP)
        parallel = SweepRunner(workers=2).sweep(
            self.CONFIGS, image, fast_forward=WARMUP)
        for a, b in zip(serial.points, parallel.points):
            assert a.canonical_json() == b.canonical_json()

    def test_windowed_and_whole_program_never_collide(self, image,
                                                      tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(cache=cache)
        windowed = runner.sweep([self.CONFIGS[0]], image,
                                fast_forward=WARMUP)
        whole = runner.sweep([self.CONFIGS[0]], image)
        assert whole.stats.simulated == 1  # not served from the ff entry
        assert (windowed.points[0].fingerprint
                != whole.points[0].fingerprint)
        assert windowed.points[0].fingerprint.endswith(f"-ff{WARMUP}")

    def test_windowed_points_match_direct_runs(self, image):
        outcome = SweepRunner().sweep(self.CONFIGS, image,
                                      fast_forward=WARMUP)
        for config, point in zip(self.CONFIGS, outcome.points):
            direct = Simulator(config, capture_memory_trace=False).run(
                image, fast_forward=WARMUP)
            assert point.cycles == direct.cycles
            assert point.instructions == direct.instructions
            assert point.uart_hex == direct.uart_output.hex()

    def test_negative_fast_forward_rejected(self, image):
        with pytest.raises(ValueError):
            SweepRunner().sweep(self.CONFIGS, image, fast_forward=-5)


class TestWarmupEngineDefault:
    """``run`` once defaulted to a different warmup engine than
    ``checkpoint``, so the same nominal warmup took different paths
    depending on the entry point.  The engine option is gone: both warm
    on the translated engine, and the behaviour is pinned here."""

    def test_default_run_lands_on_the_checkpoint_state(self, image):
        """run(fast_forward=N) must produce the exact window that
        resuming checkpoint(N)'s state does."""
        defaulted = Simulator(capture_memory_trace=False).run(
            image, fast_forward=WARMUP)
        warm = Simulator(capture_memory_trace=False)
        state = warm.checkpoint(image, WARMUP)
        resumed = Simulator(capture_memory_trace=False).run(
            from_checkpoint=state)
        assert _canonical(defaulted) == _canonical(resumed)
        assert defaulted.fastpath["fast_forward"] == WARMUP
        assert defaulted.fastpath["warmup_instructions"] == state.retired
        assert warm.fastpath_blocks_translated > 0


class TestSweepSampling:
    """Satellite determinism contract: identical (image, plan, seed)
    must yield byte-identical sampled records serially, in parallel
    workers, and on a ResultCache re-run."""

    CONFIGS = [ArchitectureConfig().with_dcache_size(size)
               for size in (1024, 4096)]
    PLAN = SamplingPlan(n_windows=3, window_length=400, ramp_length=256,
                        seed=5)

    def test_serial_parallel_and_rerun_are_byte_identical(
            self, image, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(cache=cache)
        serial = runner.sweep(self.CONFIGS, image, sampling=self.PLAN)
        parallel = SweepRunner(workers=2).sweep(
            self.CONFIGS, image, sampling=self.PLAN)
        rerun = SweepRunner(cache=ResultCache(tmp_path)).sweep(
            self.CONFIGS, image, sampling=self.PLAN)
        # one survey + checkpoint pass per family, in both executors
        assert serial.stats.checkpoints_built == 1
        assert parallel.stats.checkpoints_built == 1
        assert rerun.stats.simulated == 0  # served entirely from disk
        for a, b, c in zip(serial.points, parallel.points, rerun.points):
            assert a.canonical_json() == b.canonical_json()
            assert a.canonical_json() == c.canonical_json()
            assert a.sampled is not None
            assert a.sampled == b.sampled == c.sampled

    def test_sampled_points_match_direct_runs(self, image):
        outcome = SweepRunner().sweep([self.CONFIGS[0]], image,
                                      sampling=self.PLAN)
        point = outcome.points[0]
        direct = Simulator(self.CONFIGS[0],
                           capture_memory_trace=False).run_sampled(
            image, self.PLAN)
        assert point.sampled["estimated_cycles"] == direct.estimated_cycles
        assert point.cycles == int(round(direct.estimated_cycles))
        assert point.instructions == direct.total_instructions
        assert point.fingerprint.endswith(
            f"-{self.PLAN.fingerprint_token()}")
        assert "sampling.runs" in point.obs["counters"]

    def test_sampling_excludes_fast_forward(self, image):
        with pytest.raises(ValueError, match="mutually exclusive"):
            SweepRunner().sweep(self.CONFIGS, image,
                                fast_forward=WARMUP, sampling=self.PLAN)

    def test_full_detail_and_sampled_never_collide(self, image, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(cache=cache)
        sampled = runner.sweep([self.CONFIGS[0]], image, sampling=self.PLAN)
        whole = runner.sweep([self.CONFIGS[0]], image)
        assert whole.stats.simulated == 1
        assert (sampled.points[0].fingerprint
                != whole.points[0].fingerprint)
        assert whole.points[0].sampled is None


class TestCheckpointResumedWindows:
    """A window measured from a restored mid-program ArchState must be
    byte-identical to the same window reached by stepping straight
    through on the accurate engine — the checkpoint carries everything
    architectural, and the canonical handoff state covers the rest."""

    def test_resumed_equals_straight_through(self, image):
        from repro.core.sampling import SampledRunner, measure_window

        plan = SamplingPlan(n_windows=2, window_length=400,
                            ramp_length=256, seed=2)
        runner = SampledRunner()
        prepared = runner.prepare(image, plan)
        run = runner.measure(prepared)
        assert run.windows, "plan must place at least one window"
        specs = prepared.specs[1:]  # the head spec comes first

        sim = Simulator(capture_memory_trace=False, obs=False)
        cpu = sim._boot_and_dispatch(image, sim.cpu)
        poll = sim.rom_info.poll_address
        position = 0
        for spec, resumed in zip(specs, run.windows):
            budget = spec.ramp_start - position
            steps = 0
            while steps < budget and cpu.pc != poll:
                cpu.step()
                steps += 1
            position = spec.ramp_start
            # restoring the machine's own state changes nothing
            # architectural; it sets up the canonical window start
            sim.restore_state(sim.capture_state())
            straight = measure_window(sim, spec, poll)
            position = spec.end
            assert straight == resumed
