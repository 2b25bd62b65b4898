"""The benchmark's four workloads, their correctness gates and the
count hooks that collect the model counts the program does not return.

Each workload is set up once per repetition (:meth:`setup`), then runs
whole *passes*: :meth:`prepare` (untimed), :meth:`run_pass` (returns
the host seconds it timed, the ops it attempted and the pass's model
counts), :meth:`finish_pass` (untimed).  Inputs come only from the
workload seed.  Every op is checked: its RESULT word against the
kernel's reference model and, where the benchmark keeps expected data
(``expected.json``), its simulated statistics against that data.  A
mismatch or an exception is a failed op, never skipped or retried.
See ``RATIONALE.md`` for why these four exist.
"""

from __future__ import annotations

import gc
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from reference import clock as perf
from tracer import Patches

#: The seed the expected statistics in ``expected.json`` belong to.
DEFAULT_SEED = 0
#: Scratch space inside the checkout (listed in the root .gitignore).
WORK_DIR = Path(__file__).resolve().parent.parent / ".perfbench_out"

#: The paper's Figure 7 kernel: a strided sweep over a 4 KB array.
FIGURE7_SOURCE = r"""
unsigned count[1024];

int main(void) {
    unsigned i;
    unsigned address;
    volatile unsigned x;
    for (i = 0; i < %d; i = i + 32) {
        address = i %% 1024;
        x = count[address];
    }
    return 0;
}
"""
FIGURE7_ITERATIONS = 100_000

#: Simulated statistics an op is gated on, in tuple order.
STAT_KEYS = ("cycles", "instructions", "icache_read_misses",
             "dcache_read_misses", "fetch_stall_cycles", "mem_stall_cycles")

#: Model counts every pass reports (0 where a workload has none).
#: Deterministic: they must repeat exactly from run to run, traced or
#: not, and a change that only speeds up the simulator leaves them be.
MACHINE_KEYS = ("pipeline.cycles", "pipeline.instructions",
                "pipeline.fetch_stall_cycles", "pipeline.mem_stall_cycles",
                "pipeline.interlock_stalls", "cache.icache.read_misses",
                "cache.dcache.read_misses", "cache.fills")
COUNT_KEYS = MACHINE_KEYS + (
    "translated.steps", "blockcache.blocks_translated",
    "blockcache.blocks_executed", "blockcache.blocks_invalidated",
    "sampling.windows", "sampling.survey_steps", "sampling.ff_steps",
    "sampling.ramp_steps", "sampling.measured_steps",
    "sampling.useful_share", "sampling.cycle_error_pct",
    "sampling.ci_half_pct", "result_cache.misses", "result_cache.stores",
    "control.retries", "recon_cache.hits", "recon_cache.misses",
    "fleet.requeued", "fleet.job_p50_model_s", "fleet.job_p99_model_s")


@dataclass
class Op:
    """One attempted op of a pass."""

    key: str
    #: Host seconds the op took.
    seconds: float
    #: Gauge clock (``reference.clock``) when the op began and ended;
    #: the speed gauge scales the op by the chunks around them.
    span: tuple[float, float]
    #: Simulated instructions the op covered.
    instructions: int
    #: Model statistics, compared with the first pass's op of this key.
    stats: tuple
    #: Why the op failed its gate; None if it passed.
    error: str | None = None


@dataclass
class PassResult:
    #: Host seconds of the timed section.
    seconds: float
    #: Gauge clock when the timed section began and ended.
    span: tuple[float, float]
    ops: list[Op]
    counts: dict = field(default_factory=dict)


def machine(cpu, icache, dcache) -> tuple:
    """Accurate-engine counters in :data:`MACHINE_KEYS` order."""
    return (cpu.cycles, cpu.instret, cpu.fetch_stall_cycles,
            cpu.mem_stall_cycles, cpu.pipeline.interlock_stalls,
            icache.stats.read_misses, dcache.stats.read_misses,
            icache.fill_count + dcache.fill_count)


def _diff(after: tuple, before: tuple) -> list[int]:
    return [a - b for a, b in zip(after, before)]


def gate_stats(ops: list[Op], expected: dict, gated=lambda key: True) -> None:
    """Compare the statistics of every op that *gated* selects with
    *expected*.  A selected op without an expected entry fails, and when
    *expected* holds a key that no op has, every op fails: a renamed op
    key or a changed op list must not leave the gate empty."""
    stale = sorted(set(expected) - {op.key for op in ops})
    for op in ops:
        if op.error is not None:
            continue
        want = expected.get(op.key)
        if stale:
            op.error = (f"expected.json has statistics for {len(stale)} "
                        f"ops the workload lacks, e.g. {stale[0]}")
        elif not gated(op.key):
            continue
        elif want is None:
            op.error = f"{op.key}: no expected statistics"
        elif tuple(want) != tuple(op.stats):
            op.error = (f"{op.key}: statistics {list(op.stats)} "
                        f"!= expected {list(want)}")


def _check_word(got, want: int) -> str | None:
    if got is None or got & 0xFFFFFFFF != want:
        return f"RESULT word {got!r} != reference {want:#x}"
    return None


class Probe:
    """Count hooks on boundaries crossed at most a few hundred times per
    pass, installed in traced and untraced runs alike.  A workload names
    the hooks it needs in its ``HOOKS``; the others stay uninstalled."""

    def __init__(self):
        self._patches = Patches()
        self.reset()

    def reset(self) -> None:
        #: Machine-counter deltas over every measured sampling leg.
        self.windows = [0] * len(MACHINE_KEYS)
        #: Translated engine: steps, blocks translated/executed/invalidated.
        self.translated = [0, 0, 0, 0]
        #: Fleet job name -> {"seconds", "machine"}.
        self.jobs: dict[str, dict] = {}
        self.retries = 0
        self._job: str | None = None

    def install(self, hooks: tuple[str, ...]) -> None:
        from repro.control.client import LiquidClient
        from repro.core import recon_server, sampling
        from repro.cpu.blockcache import TranslatedUnit

        probe = self

        def measure_window(fn):
            def hooked(sim, spec, poll):
                before = machine(sim.cpu, sim.icache, sim.dcache)
                observation = fn(sim, spec, poll)
                after = machine(sim.cpu, sim.icache, sim.dcache)
                for i, delta in enumerate(_diff(after, before)):
                    probe.windows[i] += delta
                return observation
            return hooked

        def fast_forward(fn):
            def hooked(unit, budget, stop_pc=None):
                blocks = (unit.blocks_translated, unit.blocks_executed,
                          unit.blocks_invalidated)
                steps = fn(unit, budget, stop_pc)
                acc = probe.translated
                acc[0] += steps
                acc[1] += unit.blocks_translated - blocks[0]
                acc[2] += unit.blocks_executed - blocks[1]
                acc[3] += unit.blocks_invalidated - blocks[2]
                return steps
            return hooked

        def run_job(fn):
            def hooked(server, job):
                start = perf()
                record = probe.jobs.setdefault(
                    job.name, {"seconds": 0.0, "machine": None,
                               "span": (start, start)})
                probe._job = job.name
                try:
                    return fn(server, job)
                finally:
                    end = perf()
                    record["seconds"] += end - start
                    record["span"] = (record["span"][0], end)
                    probe._job = None
            return hooked

        def run_image(fn):
            def hooked(client, *args, **kwargs):
                device = client.transport.device
                before = machine(device.cpu, device.icache, device.dcache)
                retries = client.retries
                try:
                    result = fn(client, *args, **kwargs)
                finally:
                    probe.retries += client.retries - retries
                after = machine(device.cpu, device.icache, device.dcache)
                if probe._job is not None:
                    probe.jobs[probe._job]["machine"] = _diff(after, before)
                return result
            return hooked

        targets = {
            "measure_window": (sampling, measure_window),
            "fast_forward": (TranslatedUnit, fast_forward),
            "run_job": (recon_server.ReconfigurationServer, run_job),
            "run_image": (LiquidClient, run_image),
        }
        for name in hooks:
            owner, make = targets[name]
            self._patches.wrap(owner, name, make)

    def uninstall(self) -> None:
        self._patches.undo()


def _zero_counts() -> dict:
    return {key: 0 for key in COUNT_KEYS}


def _sweep_ops(runner, configs, images, keys, **kwargs):
    """Run one ``SweepRunner.sweep`` and time each point by the
    progress callback.  Returns [(key, (start, end), point or
    exception)]; an exception fails every point the sweep did not
    deliver."""
    stamps = [perf()]
    points = []

    def progress(done, total, point):
        stamps.append(perf())
        points.append(point)

    runner.progress = progress
    try:
        runner.sweep(configs, images, **kwargs)
    except Exception as exc:  # a failed op, counted and reported
        failure = f"{type(exc).__name__}: {exc}"
        delivered = [(keys[i], (stamps[i], stamps[i + 1]), points[i])
                     for i in range(len(points))]
        return delivered + [(key, (stamps[-1], stamps[-1]), failure)
                            for key in keys[len(points):]]
    return [(keys[i], (stamps[i], stamps[i + 1]), points[i])
            for i in range(len(points))]


# ---------------------------------------------------------------------------
# full_sweep
# ---------------------------------------------------------------------------


class FullSweep:
    """Serial full-detail sweep points through a fresh disk-backed
    ResultCache: the Figure 8 D-cache family on the Figure 7 kernel,
    plus every short registry kernel at the 1 KB and 16 KB D-cache
    points.  Each point is one ``SweepRunner.sweep`` call, in an order
    shuffled by the seed: ops of one kind then spread over the pass
    instead of sharing one stretch of host noise."""

    name = "full_sweep"
    HOOKS = ()
    KERNEL_SIZES = (1024, 16384)

    def __init__(self, seed: int, expected: dict | None,
                 small: bool = False):
        self.seed = seed
        self.small = small
        if expected is not None and seed != DEFAULT_SEED:
            # The Figure 7 kernel takes no input, so its points keep
            # their statistics for every seed.
            expected = {key: value for key, value in expected.items()
                        if key.startswith("fig7@")}
        #: Expected statistics by op key; None turns the gate off.
        self.expected = expected
        self.cache_dir: str | None = None

    def gated(self, key: str) -> bool:
        return self.seed == DEFAULT_SEED or key.startswith("fig7@")

    def setup(self) -> None:
        from repro.core import ArchitectureConfig, ConfigurationSpace
        from repro.toolchain import driver
        from repro.workloads import all_workloads

        kernels = all_workloads()
        iterations = FIGURE7_ITERATIONS
        fig8 = list(ConfigurationSpace.paper_cache_sweep())
        if self.small:
            kernels, iterations, fig8 = kernels[:2], 3_200, fig8[::2]
        fig7 = driver.compile_c_program(FIGURE7_SOURCE % iterations)
        #: (key, image, config, reference RESULT word)
        self.ops = [(f"fig7@{config.key()}", fig7, config, 0)
                    for config in fig8]
        for workload in kernels:
            image = driver.compile_c_program(workload.c_source(self.seed))
            reference = workload.expected(self.seed)
            for size in self.KERNEL_SIZES:
                config = ArchitectureConfig().with_dcache_size(size)
                self.ops.append((f"{workload.name}@{config.key()}", image,
                                 config, reference))
        random.Random(f"full_sweep:{self.seed}").shuffle(self.ops)
        WORK_DIR.mkdir(exist_ok=True)

    def prepare(self) -> None:
        self.cache_dir = tempfile.mkdtemp(prefix="resultcache-",
                                          dir=WORK_DIR)

    def finish_pass(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir = None

    def run_pass(self) -> PassResult:
        from repro.core import ResultCache, SweepRunner

        cache = ResultCache(self.cache_dir)
        runner = SweepRunner(workers=0, cache=cache)
        done = []
        for key, image, config, _ in self.ops:
            start = perf()
            try:
                point = runner.sweep([config], image).points[0]
            except Exception as exc:  # a failed op, counted and reported
                point = f"{key}: {type(exc).__name__}: {exc}"
            done.append(((start, perf()), point))
        seconds = sum(end - start for (start, end), _ in done)

        counts = _zero_counts()
        counts["result_cache.misses"] = cache.stats.misses
        counts["result_cache.stores"] = cache.stats.stores
        ops = []
        for (key, _, _, reference), (span, point) in zip(self.ops, done):
            op_seconds = span[1] - span[0]
            if isinstance(point, str):
                ops.append(Op(key, op_seconds, span, 0, (), point))
                continue
            obs = point.obs["counters"]
            stats = (point.cycles, point.instructions,
                     point.icache["read_misses"], point.dcache["read_misses"],
                     obs["pipeline.fetch_stall_cycles"],
                     obs["pipeline.mem_stall_cycles"])
            ops.append(Op(key, op_seconds, span, point.instructions, stats,
                          _check_word(point.result_word, reference)))
            for name in ("cycles", "instructions", "fetch_stall_cycles",
                         "mem_stall_cycles", "interlock_stalls"):
                counts[f"pipeline.{name}"] += obs[f"pipeline.{name}"]
            for cache_name in ("icache", "dcache"):
                counts[f"cache.{cache_name}.read_misses"] += obs[
                    f"cache.read_misses{{cache={cache_name}}}"]
                counts["cache.fills"] += obs[f"cache.fills{{cache={cache_name}}}"]
        if self.expected is not None:
            gate_stats(ops, self.expected, self.gated)
        return PassResult(seconds, (done[0][0][0], done[-1][0][1]), ops,
                          counts)


# ---------------------------------------------------------------------------
# sampled_sweep
# ---------------------------------------------------------------------------


class SampledSweep:
    """Serial sampled D-cache family sweeps over the long kernels with
    the plans of ``benchmarks/bench_sampling.py``; each plan's seed comes
    from the workload seed.  The kernels' inputs stay at the registry's
    default seed so the full-detail truth is the benchmark's data."""

    name = "sampled_sweep"
    #: The survey and checkpoint passes run without the program's
    #: counters, so their translated steps and blocks come from a hook.
    HOOKS = ("measure_window", "fast_forward")
    #: kernel -> (n_windows, window_length, ramp_length)
    PLANS = {"xtea_stream": (24, 1000, 2048),
             "fir_stream": (16, 500, 2048),
             "ipsum_stream": (32, 500, 2048)}
    SIZES = (1024, 2048, 4096, 8192)
    INPUT_SEED = 0

    def __init__(self, seed: int, probe: Probe, truth: dict,
                 small: bool = False):
        self.seed = seed
        self.probe = probe
        self.truth = truth
        self.small = small

    def setup(self) -> None:
        from repro.core import ArchitectureConfig, ConfigurationSpace
        from repro.core.sampling import SamplingPlan
        from repro.toolchain import driver
        from repro.workloads import get

        plans = dict(self.PLANS)
        sizes = self.SIZES
        if self.small:
            plans, sizes = {"fir_stream": (4, 500, 512)}, (2048, 4096)
        self.base = ArchitectureConfig()
        self.space = ConfigurationSpace(self.base)
        self.space.add_dimension("dcache_size", list(sizes))
        self.kernels = []
        for name, (n, length, ramp) in plans.items():
            workload = get(name)
            image = driver.compile_c_program(
                workload.c_source(self.INPUT_SEED))
            plan_seed = random.Random(f"{self.seed}:{name}").randrange(2**31)
            plan = SamplingPlan(n_windows=n, window_length=length,
                                ramp_length=ramp, seed=plan_seed)
            truth = self.truth[name]
            if truth["config"] != self.base.key():
                raise ValueError(f"{name}: truth is for {truth['config']}")
            self.kernels.append((workload, image, plan,
                                 workload.expected(self.INPUT_SEED), truth))
        random.Random(f"sampled_sweep:{self.seed}").shuffle(self.kernels)

    def prepare(self) -> None:
        pass

    def finish_pass(self) -> None:
        pass

    def run_pass(self) -> PassResult:
        from repro.core import SweepRunner

        probe = self.probe
        probe.reset()
        configs = list(self.space)
        done = []
        start = perf()
        for workload, image, plan, _, _ in self.kernels:
            keys = [f"{workload.name}@{config.key()}" for config in configs]
            done.append(_sweep_ops(
                SweepRunner(workers=0), configs, image, keys,
                max_instructions=workload.max_instructions, sampling=plan))
        end = perf()

        counts = _zero_counts()
        for name, value in zip(MACHINE_KEYS, probe.windows):
            counts[name] = value
        for name, value in zip(("translated.steps",
                                "blockcache.blocks_translated",
                                "blockcache.blocks_executed",
                                "blockcache.blocks_invalidated"),
                               probe.translated):
            counts[name] = value
        ops = []
        errors, halves = [], []
        base_key = self.base.key()
        for (workload, _, _, reference, truth), points in zip(self.kernels,
                                                              done):
            for key, span, point in points:
                op_seconds = span[1] - span[0]
                if isinstance(point, str):
                    ops.append(Op(key, op_seconds, span, 0, (), point))
                    continue
                sampled = point.sampled
                stats = (point.cycles, point.instructions,
                         sampled["cycles_ci_half"])
                error = _check_word(point.result_word, reference)
                if error is None and point.instructions != truth[
                        "instructions"]:
                    error = (f"{key}: {point.instructions} instructions, "
                             f"full detail ran {truth['instructions']}")
                ops.append(Op(key, op_seconds, span, point.instructions,
                              stats, error))
                obs = point.obs["counters"]
                for name in ("windows", "survey_steps", "ff_steps",
                             "ramp_steps", "measured_steps"):
                    counts[f"sampling.{name}"] += obs[f"sampling.{name}"]
                if point.config.key() == base_key:
                    estimate = sampled["estimated_cycles"]
                    errors.append(abs(estimate - truth["cycles"])
                                  / truth["cycles"] * 100)
                    halves.append((sampled["cycles_ci_half"] or 0.0)
                                  / estimate * 100)
        useful = counts["sampling.ramp_steps"] + counts[
            "sampling.measured_steps"]
        if useful:
            counts["sampling.useful_share"] = (
                counts["sampling.measured_steps"] / useful)
        counts["sampling.cycle_error_pct"] = max(errors, default=0.0)
        counts["sampling.ci_half_pct"] = max(halves, default=0.0)
        return PassResult(end - start, (start, end), ops, counts)


# ---------------------------------------------------------------------------
# translated_check
# ---------------------------------------------------------------------------


class TranslatedCheck:
    """Every short registry kernel at 16 input seeds derived from the
    workload seed, each run to completion on the translated engine in a
    fresh Simulator and self-checked."""

    name = "translated_check"
    HOOKS = ()
    INPUT_SEEDS = 16

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.small = small

    def setup(self) -> None:
        from repro.toolchain import driver
        from repro.workloads import all_workloads

        kernels = all_workloads()
        seeds = self.INPUT_SEEDS
        if self.small:
            kernels, seeds = kernels[:2], 2
        input_seeds = [self.seed * self.INPUT_SEEDS + i for i in range(seeds)]
        self.runs = [(f"{w.name}#{s}", w,
                      driver.compile_c_program(w.c_source(s)), w.expected(s))
                     for w in kernels for s in input_seeds]
        # Spread each kernel's runs over the pass (see FullSweep).
        random.Random(f"translated_check:{self.seed}").shuffle(self.runs)

    def prepare(self) -> None:
        pass

    def finish_pass(self) -> None:
        pass

    def run_pass(self) -> PassResult:
        from repro.core.sim import Simulator

        counts = _zero_counts()
        ops = []
        seconds = 0.0
        first = perf()
        for key, workload, image, reference in self.runs:
            start = perf()
            try:
                report = Simulator(capture_memory_trace=False,
                                   obs=False).run_translated(
                    image, max_instructions=workload.max_instructions)
            except Exception as exc:  # a failed op, counted and reported
                report = f"{key}: {type(exc).__name__}: {exc}"
            end = perf()
            op_seconds = end - start
            seconds += op_seconds
            if isinstance(report, str):
                ops.append(Op(key, op_seconds, (start, end), 0, (), report))
                continue
            fastpath = report.fastpath
            stats = (report.instructions, report.cycles,
                     fastpath["blocks_translated"],
                     fastpath["blocks_executed"])
            ops.append(Op(key, op_seconds, (start, end), report.instructions,
                          stats, _check_word(report.result_word, reference)))
            counts["translated.steps"] += fastpath["steps"]
            for name in ("translated", "executed", "invalidated"):
                counts[f"blockcache.blocks_{name}"] += fastpath[
                    f"blocks_{name}"]
        return PassResult(seconds, (first, perf()), ops, counts)


# ---------------------------------------------------------------------------
# fleet_drain
# ---------------------------------------------------------------------------


class FleetDrain:
    """The ``benchmarks/bench_fleet.py`` shape as a closed batch: 1000
    jobs from 4 tenants, all queued at model time 0, on 12 emulated FPX
    nodes, one of them on the chaos schedule.  The chaos seed and the
    job order come from the workload seed."""

    name = "fleet_drain"
    HOOKS = ("run_job", "run_image")
    PROGRAM = "int main(void) { return 6 * 7; }"
    REFERENCE = 6 * 7
    TENANTS = ("gold", "silver", "bronze", "iron")
    JOBS_PER_TENANT = 250
    DEVICES = 12
    DCACHE_SIZES = (1024, 4096, 8192, 16384)
    CHAOS_PLANS = ("device-down", "device-down", "burst-loss")

    def __init__(self, seed: int, probe: Probe, expected: dict | None,
                 small: bool = False):
        self.seed = seed
        self.probe = probe
        self.small = small
        self.tenants, self.per_tenant, self.devices = (
            (self.TENANTS[:2], 20, 3) if small
            else (self.TENANTS, self.JOBS_PER_TENANT, self.DEVICES))
        # A job's statistics depend on its device's history (a fresh
        # platform polls longer), which the job order sets, so they are
        # data for the default seed only.  None turns the gate off.
        self.expected = expected if seed == DEFAULT_SEED else None
        self.fleet = None

    def _build(self):
        from repro.control.fleet import ChaosClientFactory, FleetScheduler
        from repro.core import Job

        rng = random.Random(f"fleet:{self.seed}")
        chaos = f"fpx{self.devices - 1:02d}"
        fleet = FleetScheduler(
            devices=[f"fpx{i:02d}" for i in range(self.devices)],
            client_factories={chaos: ChaosClientFactory(
                list(self.CHAOS_PLANS), seed=rng.randrange(2**31))},
            quarantine_after=2, quarantine_ticks=24, probe_every=50)
        order = [(tenant_index, index)
                 for tenant_index in range(len(self.tenants))
                 for index in range(self.per_tenant)]
        rng.shuffle(order)
        for tenant_index, index in order:
            tenant = self.tenants[tenant_index]
            config = self.configs[(tenant_index + index) % len(self.configs)]
            fleet.submit(tenant, Job(image=self.image, config=config,
                                     name=f"{tenant}-{index}"),
                         priority=1 if index % 50 == 0 else 0)
        return fleet

    def setup(self) -> None:
        from repro.core.config import BASELINE
        from repro.toolchain import driver

        self.image = driver.compile_c_program(self.PROGRAM)
        sizes = self.DCACHE_SIZES[:2] if self.small else self.DCACHE_SIZES
        self.configs = [BASELINE.with_dcache_size(size) for size in sizes]
        self.fleet = self._build()

    def prepare(self) -> None:
        if self.fleet is None:
            self.fleet = self._build()

    def finish_pass(self) -> None:
        # Drop the spent fleet and its 64 MB-SDRAM platforms before the
        # next pass builds a new one.
        self.fleet = None
        gc.collect()

    def run_pass(self) -> PassResult:
        from repro.control.fleet import quantile
        from repro.net.protocol import LeonState

        probe = self.probe
        probe.reset()
        fleet = self.fleet
        start = perf()
        try:
            fleet.drain()
            failure = None
        except Exception as exc:  # a failed op, counted and reported
            failure = f"drain: {type(exc).__name__}: {exc}"
        end = perf()

        counts = _zero_counts()
        finished = {r.result.name: r for r in fleet.completed}
        ops = []
        for tenant in self.tenants:
            for index in range(self.per_tenant):
                name = f"{tenant}-{index}"
                record = probe.jobs.get(name, {"seconds": 0.0,
                                               "machine": None,
                                               "span": (end, end)})
                outcome = finished.get(name)
                if outcome is None:
                    ops.append(Op(name, record["seconds"], record["span"], 0,
                                  (), failure or f"{name}: never completed"))
                    continue
                result = outcome.result
                deltas = record["machine"] or [0] * len(MACHINE_KEYS)
                stats = (deltas[0], deltas[1], deltas[5], deltas[6],
                         deltas[2], deltas[3], result.cycles)
                error = None
                if not result.ok or result.state != LeonState.DONE:
                    error = f"{name}: {result.state.name} {result.error}"
                error = error or _check_word(result.result_word,
                                             self.REFERENCE)
                ops.append(Op(name, record["seconds"], record["span"],
                              deltas[1], stats, error))
                for i, key in enumerate(MACHINE_KEYS):
                    counts[key] += deltas[i]
        if self.expected is not None:
            gate_stats(ops, self.expected)
        stats = fleet.cache.stats
        latencies = [r.latency_seconds for r in fleet.completed]
        counts.update({
            "control.retries": probe.retries,
            "recon_cache.hits": stats.hits,
            "recon_cache.misses": stats.misses,
            "fleet.requeued": fleet.jobs_requeued,
            "fleet.job_p50_model_s": quantile(latencies, 0.50),
            "fleet.job_p99_model_s": quantile(latencies, 0.99),
        })
        return PassResult(end - start, (start, end), ops, counts)


WORKLOADS = {cls.name: cls for cls in (FullSweep, SampledSweep,
                                       TranslatedCheck, FleetDrain)}


def make(name: str, seed: int, probe: Probe, data: dict,
         small: bool = False):
    """Build workload *name*; *data* is the parsed ``expected.json``."""
    if name == "full_sweep":
        return FullSweep(seed, None if small else data["full_sweep"], small)
    if name == "sampled_sweep":
        return SampledSweep(seed, probe, data["sampling_truth"], small)
    if name == "translated_check":
        return TranslatedCheck(seed, small)
    if name == "fleet_drain":
        return FleetDrain(seed, probe, None if small else data["fleet_drain"],
                          small)
    raise ValueError(f"unknown workload {name!r}")
