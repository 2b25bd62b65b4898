"""Sampled cycle-accurate simulation (SMARTS-style).

Whole-program cycle-accurate runs are the bottleneck of long-workload
sweeps.  This module trades a full-detail run for *interleaved phases*:

* **fast-forward** — the block-translating engine executes the bulk of
  the program (architecturally exact, no timing),
* **ramp** — a short cycle-accurate leg that re-warms the caches and
  pipeline after the handoff (the micro-architecture is not part of an
  :class:`~repro.cpu.archstate.ArchState`, so every window starts from
  the canonical flushed state and climbs back to steady state),
* **window** — a small cycle-accurate measured window contributing one
  CPI / stall / miss observation.

The program's first ``window_length`` steps — the cold start, whose
compulsory misses are *systematically* unlike steady state — are always
measured exactly as a **head** phase rather than estimated, so they
contribute bias-free cycles instead of skewing the window population.

A :class:`SamplingPlan` places ``n_windows`` windows over the remaining
tail in equal strides, each at an independent seeded random offset
(stratified systematic sampling); :class:`SampledRunner` executes
the plan via checkpoints captured on a translated pass, so every window
is resumable in isolation and the whole run is a pure function of
``(image, config, plan)`` — byte-identical serially, in parallel worker
processes, and across :class:`~repro.core.sweep.ResultCache` reruns.
Per-window observations are combined with CLT confidence intervals
(mean ± z·s/√n per metric) into a whole-program cycle estimate whose
claimed coverage is validated against ground-truth full-detail runs by
``tests/core/test_sampling_stats.py``.

Windows that hit IRQ/MMIO-dense code need no special casing: the ramp
and window legs are plain single-step accurate execution, and the
translated fast-forward legs already fall back to single-step dispatch
on MMIO touches and trap entries.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, replace

from repro.core.config import ArchitectureConfig
from repro.core.sim import Simulator, _fold_mix
from repro.cpu.archstate import ArchState
from repro.toolchain.objfile import Image

__all__ = [
    "METRICS",
    "RECORD_SCHEMA",
    "Z_SCORES",
    "Estimate",
    "PreparedPlan",
    "SampledRun",
    "SampledRunner",
    "SamplingPlan",
    "WindowSpec",
    "estimate_windows",
    "measure_window",
    "place_windows",
]

#: Layout version of :meth:`SampledRun.to_record` payloads.
RECORD_SCHEMA = 1

#: Two-sided normal z-scores for the supported confidence levels.
#: Hardcoded (no scipy in the image); values are ``norm.ppf((1+c)/2)``.
Z_SCORES = {
    0.80: 1.2815515655446004,
    0.90: 1.6448536269514722,
    0.95: 1.959963984540054,
    0.99: 2.5758293035489004,
}

#: Per-window ratio metrics the estimator reports, each per retired
#: instruction: cycles (CPI), stall cycles, data-cache misses,
#: instruction-cache misses.
METRICS = ("cpi", "stall_per_instruction", "dmiss_per_instruction",
           "imiss_per_instruction")

#: Default instruction budget for the survey pass.
DEFAULT_MAX_INSTRUCTIONS = 50_000_000


def z_score(confidence: float) -> float:
    try:
        return Z_SCORES[confidence]
    except KeyError:
        raise ValueError(
            f"unsupported confidence {confidence!r} "
            f"(have {sorted(Z_SCORES)})") from None


# ---------------------------------------------------------------------------
# Plans and window placement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplingPlan:
    """How to sample one program: stratified systematic placement —
    equal strides, one independent seeded offset per stride — which
    dodges periodic-program aliasing without giving up determinism."""

    n_windows: int = 16
    window_length: int = 1_000
    ramp_length: int = 512
    seed: int = 0
    confidence: float = 0.95

    def __post_init__(self):
        if self.n_windows < 1:
            raise ValueError("n_windows must be >= 1")
        if self.window_length < 1:
            raise ValueError("window_length must be >= 1")
        if self.ramp_length < 0:
            raise ValueError("ramp_length must be >= 0")
        z_score(self.confidence)

    def fingerprint_token(self) -> str:
        """Stable token appended to config fingerprints so sampled
        records never collide with full-detail ones in the cache."""
        return (f"smp{self.n_windows}w{self.window_length}"
                f"r{self.ramp_length}s{self.seed}"
                f"c{round(self.confidence * 100)}")

    def as_dict(self) -> dict:
        return {"n_windows": self.n_windows,
                "window_length": self.window_length,
                "ramp_length": self.ramp_length,
                "seed": self.seed,
                "confidence": self.confidence}


@dataclass(frozen=True)
class WindowSpec:
    """One placed window, in program-step coordinates: the accurate ramp
    covers ``[ramp_start, start)``, the measured window ``[start, end)``."""

    index: int
    ramp_start: int
    start: int
    end: int


#: The head spec's index in window observations (never a statistical
#: window).
HEAD_INDEX = -1


def head_spec(total_steps: int, plan: SamplingPlan) -> WindowSpec:
    """The measured head: ``[0, window_length)`` (clipped to the
    program), always executed cycle-accurately.  The program's cold
    start — compulsory misses, first-touch fills — is *systematically*
    different from steady state, so instead of letting it bias the
    window population it is measured exactly and added to the estimate
    as its own phase."""
    return WindowSpec(HEAD_INDEX, 0, 0, min(plan.window_length, total_steps))


def place_windows(total_steps: int, plan: SamplingPlan,
                  start: int = 0) -> tuple[int, list[WindowSpec]]:
    """Place *plan*'s windows over ``[start, total_steps)``.

    Returns ``(offset, specs)`` where *offset* is the first stride's
    draw.  Stratified systematic placement: the region is divided into
    ``n`` equal strides and every window sits at an *independent* seeded
    random offset inside its stride.  A single shared offset (classic
    systematic sampling) aliases against programs whose phase period
    divides the stride — every window lands at the same phase position,
    the between-window variance collapses, and the CI silently stops
    covering.  Independent per-stride offsets keep placement
    deterministic in ``plan.seed`` while giving each window a fresh
    phase position, so within-run variance honestly reflects program
    heterogeneity.  Windows never overlap and never extend past the
    program; a window at least as long as the region degenerates to one
    whole-region window.
    """
    region = total_steps - start
    if region <= 0:
        return 0, []
    length = plan.window_length
    if length >= region:
        return 0, [WindowSpec(0, start, start, total_steps)]
    n = min(plan.n_windows, max(1, region // length))
    spacing = region / n
    slack = max(int(spacing) - length, 0)
    rng = random.Random(f"sampling:{plan.seed}")
    first_offset = 0
    specs: list[WindowSpec] = []
    prev_end = start
    for i in range(n):
        offset = rng.randrange(slack + 1) if slack else 0
        if i == 0:
            first_offset = offset
        begin = max(start + int(i * spacing) + offset, prev_end)
        end = min(begin + length, total_steps)
        if end <= begin:
            continue
        ramp_start = max(begin - plan.ramp_length, prev_end)
        specs.append(WindowSpec(len(specs), ramp_start, begin, end))
        prev_end = end
    return first_offset, specs


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Estimate:
    """One per-instruction metric's CLT estimate over the windows.

    ``std``/``ci_half`` are ``None`` when only one window contributed —
    a single observation has no sample variance, so the estimate is a
    point with no claimed interval (and :meth:`covers` is vacuously
    true, which is the honest reading of "no claim")."""

    metric: str
    mean: float
    std: float | None
    ci_half: float | None
    n: int
    confidence: float

    @property
    def relative(self) -> float:
        """Half-interval relative to the mean (``inf`` with no interval
        or a zero mean)."""
        if self.ci_half is None or self.mean == 0.0:
            return math.inf
        return self.ci_half / abs(self.mean)

    def covers(self, true_value: float) -> bool:
        if self.ci_half is None:
            return True
        return abs(true_value - self.mean) <= self.ci_half

    def to_dict(self) -> dict:
        return {"metric": self.metric, "mean": self.mean, "std": self.std,
                "ci_half": self.ci_half, "n": self.n,
                "confidence": self.confidence}


def _metric_value(window: dict, metric: str) -> float:
    instructions = window["instructions"]
    if metric == "cpi":
        return window["cycles"] / instructions
    if metric == "stall_per_instruction":
        return ((window["fetch_stall_cycles"] + window["mem_stall_cycles"])
                / instructions)
    if metric == "dmiss_per_instruction":
        dcache = window["dcache"]
        return ((dcache["read_misses"] + dcache["write_misses"])
                / instructions)
    if metric == "imiss_per_instruction":
        return window["icache"]["read_misses"] / instructions
    raise ValueError(f"unknown metric '{metric}'")


def estimate_windows(windows: list[dict],
                     confidence: float = 0.95) -> dict[str, Estimate]:
    """CLT estimates over per-window observations, one per metric.

    Pure function of the observation dicts (see :func:`measure_window`
    for their shape), so degenerate inputs — one window, zero variance —
    are testable without a simulator.  Windows that retired zero
    instructions are excluded (their ratios are undefined)."""
    z = z_score(confidence)
    usable = [w for w in windows if w["instructions"] > 0]
    estimates: dict[str, Estimate] = {}
    for metric in METRICS:
        values = [_metric_value(w, metric) for w in usable]
        n = len(values)
        if n == 0:
            continue
        mean = math.fsum(values) / n
        if n > 1:
            variance = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
            std = math.sqrt(variance)
            ci_half = z * std / math.sqrt(n)
        else:
            std = None
            ci_half = None
        estimates[metric] = Estimate(metric=metric, mean=mean, std=std,
                                     ci_half=ci_half, n=n,
                                     confidence=confidence)
    return estimates


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


@dataclass
class SampledRun:
    """One sampled execution: the survey totals, every per-window
    observation, the phase ledger partitioning the program, and the CLT
    estimates.  Everything here is simulation-derived and deterministic;
    :meth:`canonical_json` equality is the determinism contract."""

    plan: SamplingPlan
    total_steps: int
    total_instructions: int
    offset: int
    #: The exactly-measured head observation (cold start included).
    head: dict
    windows: list[dict]
    phases: list[dict]
    estimates: dict[str, Estimate]
    result_word: int | None
    uart_hex: str
    #: Auto-mode convergence log (``run_auto``): one entry per round.
    auto: list[dict] | None = None

    @property
    def cpi(self) -> float:
        est = self.estimates.get("cpi")
        return est.mean if est is not None else 0.0

    @property
    def tail_instructions(self) -> int:
        """Retired instructions outside the exactly-measured head — the
        part of the program the windows estimate."""
        return self.total_instructions - self.head["instructions"]

    @property
    def estimated_cycles(self) -> float:
        """Whole-program reconstruction: the head's exact cycles plus
        mean CPI x the tail's exact retired count (retired counts are
        architectural — the survey pass measured them exactly; only the
        tail's cycles are estimated)."""
        return self.head["cycles"] + self.cpi * self.tail_instructions

    @property
    def cycles_ci_half(self) -> float | None:
        est = self.estimates.get("cpi")
        if est is None or est.ci_half is None:
            return None
        return est.ci_half * self.tail_instructions

    def covers(self, true_cycles: float) -> bool:
        """Does the reported interval cover the ground-truth cycle
        count?  Vacuously true when no interval is claimed (n=1)."""
        half = self.cycles_ci_half
        if half is None:
            return True
        return abs(true_cycles - self.estimated_cycles) <= half

    def measured_steps(self) -> int:
        return self.head["steps"] + sum(w["steps"] for w in self.windows)

    def ramp_steps(self) -> int:
        return sum(w["ramp_steps"] for w in self.windows)

    def fast_forward_steps(self) -> int:
        return sum(p["steps"] for p in self.phases
                   if p["kind"] == "fast_forward")

    def counters(self) -> dict[str, int]:
        """The run's ``sampling.*`` accounting — a pure function of the
        run, whoever built its survey and checkpoints (every ramp start
        holds one checkpoint)."""
        return {"runs": 1,
                "windows": len(self.windows),
                "checkpoints": len({w["ramp_start"]
                                    for w in (self.head, *self.windows)}),
                "survey_steps": self.total_steps,
                "ff_steps": self.fast_forward_steps(),
                "ramp_steps": self.ramp_steps(),
                "measured_steps": self.measured_steps()}

    def instruction_mix(self) -> dict[str, int]:
        mix: Counter[str] = Counter()
        for window in (self.head, *self.windows):
            mix.update(window["instruction_mix"])
        return dict(mix)

    def cache_totals(self, which: str) -> dict[str, int]:
        """Integer cache counters summed over the measured legs."""
        totals: Counter[str] = Counter()
        for window in (self.head, *self.windows):
            for key, value in window[which].items():
                totals[key] += value
        return dict(totals)

    def to_record(self) -> dict:
        """JSON-able, deterministic payload (no host timing) persisted
        as the ``sampled`` section of schema-v5 sweep records."""
        record = {
            "schema": RECORD_SCHEMA,
            "plan": self.plan.as_dict(),
            "total_steps": self.total_steps,
            "total_instructions": self.total_instructions,
            "offset": self.offset,
            "estimated_cycles": self.estimated_cycles,
            "cycles_ci_half": self.cycles_ci_half,
            "estimates": {name: est.to_dict()
                          for name, est in sorted(self.estimates.items())},
            "head": self.head,
            "windows": self.windows,
            "phases": self.phases,
            "result_word": self.result_word,
            "uart_hex": self.uart_hex,
        }
        if self.auto is not None:
            record["auto"] = self.auto
        return record

    def canonical_json(self) -> str:
        return json.dumps(self.to_record(), sort_keys=True,
                          separators=(",", ":"))

    def summary_lines(self) -> list[str]:
        est = self.estimates.get("cpi")
        half = self.cycles_ci_half
        lines = [
            f"sampled run  : {len(self.windows)} windows + "
            f"{self.head['steps']}-step head over "
            f"{self.total_steps} steps (offset {self.offset})",
            f"measured     : {self.measured_steps()} steps accurate, "
            f"{self.ramp_steps()} ramp, "
            f"{self.fast_forward_steps()} fast-forwarded",
            f"est. cycles  : {self.estimated_cycles:.0f}"
            + (f" +/- {half:.0f} ({self.plan.confidence:.0%} CI)"
               if half is not None else " (no interval claimed)"),
        ]
        if est is not None:
            lines.append(f"CPI          : {est.mean:.4f}"
                         + (f" +/- {est.ci_half:.4f}"
                            if est.ci_half is not None else ""))
        return lines


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _cache_counters(stats: dict) -> dict[str, int]:
    """The integer counters of a ``CacheController.stats_dict()`` —
    geometry and prefetch metadata dropped so window observations sum
    cleanly and stay schema-stable across configs."""
    return {key: value for key, value in stats.items()
            if isinstance(value, int)}


def measure_window(sim: Simulator, spec: WindowSpec, poll: int) -> dict:
    """Run *spec*'s ramp + measured window on *sim*'s cycle-accurate
    engine and return the window observation dict.

    The machine must already be positioned at ``spec.ramp_start`` in the
    canonical window-start state a :meth:`Simulator.restore_state`
    leaves.  The determinism tests hold this checkpoint-resumed path
    against a straight-through accurate run.
    """
    cpu = sim.cpu
    ramp_budget = spec.start - spec.ramp_start
    ramp_base = cpu.instret
    ramp_steps = 0
    while ramp_steps < ramp_budget and cpu.pc != poll:
        cpu.step()
        ramp_steps += 1
    ramp_instructions = cpu.instret - ramp_base
    # Keep the warmed cache *contents*, zero the accounting: the window
    # observation must cover exactly [start, end).
    sim.icache.reset_stats()
    sim.dcache.reset_stats()

    tally = cpu.retire_tally = Counter()
    cycles0, instret0 = cpu.cycles, cpu.instret
    fetch0, mem0 = cpu.fetch_stall_cycles, cpu.mem_stall_cycles
    traps0 = cpu.trap_count
    budget = spec.end - spec.start
    steps = 0
    try:
        while steps < budget and cpu.pc != poll:
            cpu.step()
            steps += 1
    finally:
        cpu.retire_tally = None
    return {
        "index": spec.index,
        "ramp_start": spec.ramp_start,
        "start": spec.start,
        "end": spec.end,
        "planned_steps": budget,
        "steps": steps,
        "instructions": cpu.instret - instret0,
        "cycles": cpu.cycles - cycles0,
        "fetch_stall_cycles": cpu.fetch_stall_cycles - fetch0,
        "mem_stall_cycles": cpu.mem_stall_cycles - mem0,
        "traps": cpu.trap_count - traps0,
        "ramp_steps": ramp_steps,
        "ramp_instructions": ramp_instructions,
        "instruction_mix": _fold_mix(tally),
        "dcache": _cache_counters(sim.dcache.stats_dict()),
        "icache": _cache_counters(sim.icache.stats_dict()),
    }


@dataclass
class PreparedPlan:
    """The architectural half of a sampled run: everything
    :meth:`SampledRunner.measure` needs that no timing dimension can
    change — the survey totals and outputs, the placed specs, an
    ArchState at every ramp start and the retired count at every phase
    boundary.  It is identical for every configuration of one
    architectural family (``arch_key()``), so a sweep builds it once per
    (image, family) and persists it in the
    :class:`~repro.core.sweep.ResultCache`."""

    plan: SamplingPlan
    arch_key: str
    #: Survey totals and outputs: steps, instructions, result_word,
    #: uart_hex.
    survey: dict
    #: The first stride's placement draw (see :func:`place_windows`).
    offset: int
    #: The head spec, then the placed windows.
    specs: list[WindowSpec]
    #: Ramp start -> the ArchState captured there.
    states: dict[int, ArchState]
    #: Phase boundary -> instructions retired since the program's start.
    boundary_retired: dict[int, int]

    def to_payload(self) -> dict:
        """JSON-able form (states via :meth:`ArchState.to_payload`)."""
        return {
            "plan": self.plan.as_dict(),
            "arch_key": self.arch_key,
            "survey": self.survey,
            "offset": self.offset,
            "specs": [[spec.index, spec.ramp_start, spec.start, spec.end]
                      for spec in self.specs],
            "states": [[mark, state.to_payload()]
                       for mark, state in sorted(self.states.items())],
            "boundary_retired": sorted(self.boundary_retired.items()),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "PreparedPlan":
        return cls(
            plan=SamplingPlan(**payload["plan"]),
            arch_key=payload["arch_key"],
            survey=payload["survey"],
            offset=payload["offset"],
            specs=[WindowSpec(*spec) for spec in payload["specs"]],
            states={mark: ArchState.from_payload(state)
                    for mark, state in payload["states"]},
            boundary_retired={mark: retired for mark, retired
                              in payload["boundary_retired"]},
        )


class SampledRunner:
    """Execute sampling plans in two steps.

    :meth:`prepare` is architectural: a survey pass (exact totals and
    the program's outputs), window placement, and a checkpoint pass,
    both on the translated engine.  Neither pass has a timing model, so
    the :class:`PreparedPlan` is identical for every configuration of
    one architectural family (``arch_key()`` — the same contract the
    fast-forward sweep checkpoints rely on).  :meth:`measure` is the
    per-config cycle-accurate step.  :meth:`run` and :meth:`run_auto`
    are built on the two.

    Every pass and every window runs in a *fresh* :class:`Simulator`
    built from the runner's config — no state leaks between passes or
    windows (a window's decode/block caches never see another window's
    self-modifying stores), which is what makes a sampled run a pure
    function of ``(image, config, plan)`` and lets sweep workers measure
    it bit-for-bit in parallel.
    """

    def __init__(self, config: ArchitectureConfig | None = None):
        self.config = config or ArchitectureConfig()

    def _survey(self, image: Image, max_instructions: int) -> dict:
        """Translated full run: exact step/retired totals + the
        program's architectural outputs."""
        # Drive the translated engine directly rather than through
        # ``run_translated``: the survey needs only totals and the
        # architectural outputs, not a report or an instruction mix.
        sim = Simulator(self.config, capture_memory_trace=False, obs=False)
        fast = sim._boot_and_dispatch(image, sim.translated_unit())
        start_steps, start_instret = fast.cycles, fast.instret
        fast.run(max_instructions=max_instructions,
                 until_pc=sim.rom_info.poll_address)
        return {
            "steps": fast.cycles - start_steps,
            "instructions": fast.instret - start_instret,
            "result_word": sim.sram.host_read_word(sim.memmap.result_addr),
            "uart_hex": sim.uart.transmitted().hex(),
        }

    def prepare(self, image: Image, plan: SamplingPlan,
                max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
                ) -> PreparedPlan:
        """The architectural step: survey *image*, place *plan*'s
        windows, and checkpoint them (see :class:`PreparedPlan`)."""
        return self._prepare(image, plan,
                             self._survey(image, max_instructions))

    def _prepare(self, image: Image, plan: SamplingPlan,
                 survey: dict) -> PreparedPlan:
        """Place *plan*'s windows over the surveyed program, then make
        one translated pass over it, capturing an ArchState at every
        window's ramp start and the retired-instruction count at every
        phase boundary."""
        total_steps = survey["steps"]
        head = head_spec(total_steps, plan)
        offset, windows = place_windows(total_steps, plan, start=head.end)
        specs = [head, *windows]

        sim = Simulator(self.config, capture_memory_trace=False, obs=False)
        poll = sim.rom_info.poll_address
        fast = sim._boot_and_dispatch(image, sim.translated_unit())
        base = fast.instret
        ramp_starts = {spec.ramp_start for spec in specs}
        marks = sorted({0, total_steps}
                       | {b for spec in specs
                          for b in (spec.ramp_start, spec.start, spec.end)})
        states: dict[int, ArchState] = {}
        boundary_retired: dict[int, int] = {}
        position = 0
        for mark in marks:
            if mark > position:
                executed = fast.fast_forward(mark - position, stop_pc=poll)
                position += executed
                if position < mark:
                    raise RuntimeError(
                        f"program finished at step {position}, before the "
                        f"planned boundary {mark}")
            boundary_retired[mark] = fast.instret - base
            if mark in ramp_starts:
                states[mark] = sim.capture_state(engine=fast)
        return PreparedPlan(plan=plan, arch_key=self.config.arch_key(),
                            survey=survey, offset=offset, specs=specs,
                            states=states, boundary_retired=boundary_retired)

    def measure(self, prepared: PreparedPlan) -> SampledRun:
        """The per-config step: restore every spec's checkpoint, measure
        its ramp and window cycle-accurately on the runner's config, and
        estimate.  *prepared* must come from the same architectural
        family."""
        if prepared.arch_key != self.config.arch_key():
            raise ValueError(
                "prepared plan belongs to another architectural family "
                f"({prepared.arch_key!r} != {self.config.arch_key()!r})")
        measured = []
        for spec in prepared.specs:
            sim = Simulator(self.config, capture_memory_trace=False,
                            obs=False)
            sim.restore_state(prepared.states[spec.ramp_start])
            measured.append(measure_window(sim, spec,
                                           sim.rom_info.poll_address))
        head, windows = measured[0], measured[1:]
        plan, survey = prepared.plan, prepared.survey
        return SampledRun(
            plan=plan,
            total_steps=survey["steps"],
            total_instructions=survey["instructions"],
            offset=prepared.offset,
            head=head,
            windows=windows,
            phases=self._phases(head, prepared.specs[1:], windows,
                                prepared.boundary_retired, survey["steps"]),
            estimates=estimate_windows(windows, plan.confidence),
            result_word=survey["result_word"],
            uart_hex=survey["uart_hex"],
        )

    @staticmethod
    def _phases(head: dict, specs: list[WindowSpec], windows: list[dict],
                boundary_retired: dict[int, int],
                total_steps: int) -> list[dict]:
        """The phase ledger: a partition of ``[0, total_steps)`` into
        head / fast-forward / ramp / window legs, each with its exact
        retired-instruction count.  Fast-forward counts come from the
        translated pass, head/ramp/window counts from the accurate
        engine — their sum equaling the survey total is the cross-engine
        step-exactness property the hypothesis suite asserts."""
        phases: list[dict] = []

        def add(kind: str, start: int, end: int, instructions: int,
                window: int | None = None) -> None:
            if end > start:
                phases.append({"kind": kind, "start": start, "end": end,
                               "steps": end - start,
                               "instructions": instructions,
                               "window": window})

        add("head", 0, head["end"], head["instructions"])
        position = head["end"]
        for spec, window in zip(specs, windows):
            add("fast_forward", position, spec.ramp_start,
                boundary_retired[spec.ramp_start]
                - boundary_retired[position])
            add("ramp", spec.ramp_start, spec.start,
                window["ramp_instructions"], spec.index)
            add("window", spec.start, spec.end, window["instructions"],
                spec.index)
            position = spec.end
        add("fast_forward", position, total_steps,
            boundary_retired[total_steps] - boundary_retired[position])
        return phases

    def run(self, image: Image, plan: SamplingPlan,
            max_instructions: int = DEFAULT_MAX_INSTRUCTIONS) -> SampledRun:
        """Execute *plan* over *image*: :meth:`prepare`, then
        :meth:`measure`."""
        return self.measure(self.prepare(image, plan, max_instructions))

    def run_auto(self, image: Image, plan: SamplingPlan,
                 target_relative_error: float = 0.05,
                 max_windows: int = 256,
                 max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
                 ) -> SampledRun:
        """Auto mode: double ``n_windows`` until the CPI estimate's
        relative half-interval reaches *target_relative_error* (or the
        program can't supply more windows).  One survey serves every
        round.  The convergence log lands on :attr:`SampledRun.auto`."""
        if target_relative_error <= 0:
            raise ValueError("target_relative_error must be > 0")
        survey = self._survey(image, max_instructions)
        log: list[dict] = []
        n = plan.n_windows
        while True:
            current = replace(plan, n_windows=n)
            run = self.measure(self._prepare(image, current, survey))
            est = run.estimates.get("cpi")
            relative = (est.relative if est is not None else math.inf)
            log.append({"n_windows": n, "windows": len(run.windows),
                        "relative_error": (None if math.isinf(relative)
                                           else relative)})
            if relative <= target_relative_error:
                break
            # The sampled tail only has so many distinct windows; past
            # that, growing n buys nothing.
            tail = run.total_steps - run.head["end"]
            limit = min(max_windows, max(1, tail // plan.window_length))
            if n >= limit:
                break
            n = min(n * 2, limit)
        run.auto = log
        return run
