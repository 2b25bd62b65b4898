"""Sweep-throughput benchmark of the Liquid Architecture reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload full_sweep --seed 0 \
        --seconds 15 --trace 0

Times the program's imports in fresh interpreters and sets the
workload up (image compilation, fleet build, temp dirs) several times;
the two medians sum to ``setup_s``.  Then runs whole passes of the
workload until ``--seconds`` of host time are measured.  Every op is
checked (see ``loads.py``).  A speed gauge (``reference.py``) runs
alongside, and every end-to-end time is in reference seconds: host
seconds divided by how much slower than its reference speed the host
ran at that moment.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it records the host, the seed, the sample counts and
the raw host-second figures.  Host time and simulated ("model") time
are named as such; the cycle model is unvalidated against LEON/FPX
hardware, so no hardware error figure is reported.

With ``--trace 1`` half the budget runs untraced and half with spans
around each layer's entry points (``tracer.py``); per-layer numbers are
per pass and come from the traced half, ``trace.overhead_pct`` compares
the two halves, and the spans are written under ``.perfbench_out/``.
"""

from __future__ import annotations

from reference import GAUGE, clock

STARTED = clock()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "expected.json"
#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Fresh interpreters timed importing the program; the median counts.
IMPORT_REPEATS = 3
IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import repro.control.fleet, repro.core, repro.workloads
print(time.perf_counter() - start)
"""
#: The host-second fields of ``Tracer.layer``.
SECONDS = ("s", "self_s")


def import_seconds(work_dir: Path) -> list[float]:
    """Host seconds each of :data:`IMPORT_REPEATS` fresh interpreters
    takes to import the program.  One import in this process is a
    single sample, and its time swung by half from run to run.

    The interpreters share a bytecode cache under *work_dir* that one
    untimed interpreter fills first, so every run times imports from
    compiled files: a checkout may or may not hold them, and the
    environment may forbid writing them (PYTHONDONTWRITEBYTECODE)."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    command = [sys.executable, "-X",
               f"pycache_prefix={work_dir / 'pycache'}", "-c",
               IMPORT_PROBE, str(ROOT / "src")]
    times = []
    for _ in range(1 + IMPORT_REPEATS):
        done = subprocess.run(command, env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        times.append(float(done.stdout))
    return times[1:]


def host_facts() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu}


def run_passes(workload, budget: float, tracer=None) -> tuple[list, list]:
    """Whole passes until *budget* host seconds are measured (at least
    one pass).  With a *tracer*, passes alternate untraced and traced
    until each kind has *budget* / 2 seconds; returns (untraced,
    traced) pass results."""
    plain, traced = [], []
    measured = [0.0, 0.0]
    while True:
        if tracer is None:
            if plain and measured[0] >= budget:
                break
            kind = 0
        else:
            if traced and min(measured) >= budget / 2:
                break
            kind = 1 if len(traced) < len(plain) else 0
        workload.prepare()
        if kind:
            tracer.install()
        try:
            result = workload.run_pass()
        finally:
            if kind:
                tracer.uninstall()
            workload.finish_pass()
        (traced if kind else plain).append(result)
        measured[kind] += result.seconds
    return plain, traced


def gate_repeats(results: list) -> None:
    """Fail every op whose model statistics differ from the same op in
    the first pass, and every op of a pass whose model counts differ
    from the first pass's: the simulator is deterministic."""
    first = {op.key: op.stats for op in results[0].ops}
    for result in results[1:]:
        counts_differ = result.counts != results[0].counts
        for op in result.ops:
            if op.error is not None:
                continue
            if op.stats != first.get(op.key, op.stats):
                op.error = f"{op.key}: statistics differ from pass 1"
            elif counts_differ:
                op.error = f"{op.key}: pass model counts differ from pass 1"


def quantile(values: list, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


def passed(results: list) -> list:
    return [op for result in results for op in result.ops
            if op.error is None]


def op_times(results: list, gauge) -> list[float]:
    """Reference seconds of each passed op key, the median over the
    passes that ran it; [0.0] if none passed.  One value per key keeps
    the percentiles from jumping with the number of passes a run fits
    in."""
    by_key: dict[str, list] = {}
    for op in passed(results):
        by_key.setdefault(op.key, []).append(op.seconds
                                             / gauge.speed(*op.span))
    return [statistics.median(times) for times in by_key.values()] or [0.0]


def reference_seconds(results: list, gauge) -> float:
    """Reference seconds of the timed sections of *results*."""
    return sum(result.seconds / gauge.speed(*result.span)
               for result in results)


def end_to_end(results: list, setup_s: float, gauge) -> dict:
    seconds = reference_seconds(results, gauge)
    op_s = op_times(results, gauge)
    good = passed(results)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(good) / seconds, "1/s"),
        "op_s_p50": (quantile(op_s, 0.50), "s"),
        "op_s_p90": (quantile(op_s, 0.90), "s"),
        "sim_ips": (sum(op.instructions for op in good) / seconds,
                    "instr/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MiB"),
    }


def per_layer(tracer, counts: dict, passes: int, points: int,
              toolchain: dict, overhead_pct: float,
              speed: float = 1.0) -> dict:
    """Per-pass layer numbers from the traced passes.  Host seconds,
    the set-up's toolchain seconds too, are divided by the gauge's
    *speed* over those passes."""
    def layer(name):
        return {key: value / passes / (speed if key in SECONDS else 1)
                for key, value in tracer.layer(name).items()}

    def rate(work, seconds):
        return work / seconds if seconds else 0.0

    cpu, cache, bus = layer("cpu"), layer("cache"), layer("bus")
    translated = layer("translated")
    construct = layer("sim.construct")
    capture, restore = layer("archstate.capture"), layer("archstate.restore")
    control, build = layer("control"), layer("fpx.build")
    fpx_step = layer("fpx.step")
    count = "count"
    m = {
        "accurate.instructions": (cpu["work"], count),
        "accurate.s": (cpu["s"], "s"),
        "accurate.ips": (rate(cpu["work"], cpu["s"]), "instr/s"),
        "accurate.self_s": (cpu["self_s"], "s"),
        "cache.calls": (cache["calls"], count),
        "cache.s": (cache["s"], "s"),
        "bus.calls": (bus["calls"], count),
        "bus.s": (bus["s"], "s"),
        "translated.s": (translated["s"], "s"),
        "translated.ips": (rate(counts["translated.steps"],
                                translated["s"]), "steps/s"),
        "blockcache.translate_s": (layer("blockcache.translate")["s"], "s"),
        "sim.constructs": (construct["calls"], count),
        "sim.construct_s": (construct["s"], "s"),
        "archstate.captures": (capture["calls"], count),
        "archstate.capture_s": (capture["s"], "s"),
        "archstate.restores": (restore["calls"], count),
        "archstate.restore_s": (restore["s"], "s"),
        "sampling.measure_s": (layer("sampling.measure")["s"], "s"),
        "sweep.self_s": (layer("sweep")["self_s"] / points if points
                         else 0.0, "s"),
        "result_cache.get_s": (layer("result_cache.get")["s"], "s"),
        "result_cache.put_s": (layer("result_cache.put")["s"], "s"),
        "toolchain.images": (toolchain["calls"], count),
        "toolchain.compile_s": (toolchain["s"] / speed, "s"),
        "control.requests": (control["calls"], count),
        "control.request_s": (control["s"], "s"),
        "fpx.platforms_built": (build["calls"], count),
        "fpx.platform_build_s": (build["s"], "s"),
        "fpx.steps": (fpx_step["calls"], count),
        "fpx.step_s": (fpx_step["s"], "s"),
        "recon.configure_s": (layer("recon.configure")["s"], "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    units = {"sampling.useful_share": "ratio",
             "sampling.cycle_error_pct": "%", "sampling.ci_half_pct": "%",
             "fleet.job_p50_model_s": "model_s",
             "fleet.job_p99_model_s": "model_s"}
    for key, value in counts.items():
        m[key] = (value, units.get(key, count))
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    GAUGE.start()
    try:
        return measure(args)
    finally:
        GAUGE.stop()


def measure(args) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not DATA.is_file():
        print("perfbench: needs the program under src/repro and "
              "perfbench/expected.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Imported up front, out of the set-up repetitions; their cost is
    # timed in fresh interpreters (import_seconds).
    import repro.control.fleet  # noqa: F401
    import repro.core  # noqa: F401
    import repro.workloads  # noqa: F401

    import loads
    from tracer import Tracer

    import_s = clock() - STARTED
    if args.workload not in loads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(loads.WORKLOADS)}", file=sys.stderr)
        return 2
    data = json.loads(DATA.read_text())
    probe = loads.Probe()
    tracer = Tracer() if args.trace else None
    workload = loads.make(args.workload, args.seed, probe, data)
    probe.install(workload.HOOKS)

    if tracer is not None:
        tracer.install()  # for the toolchain's numbers
    # A set-up repetition is scaled by the gauge around it.
    setups, scaled = [], []
    for _ in range(SETUP_REPEATS):
        start = clock()
        workload.setup()
        end = clock()
        setups.append(end - start)
        scaled.append(setups[-1] / GAUGE.speed(start, end))
    imports = import_seconds(loads.WORK_DIR)
    setup_host_s = statistics.median(imports) + statistics.median(setups)

    if tracer is None:
        results, _ = run_passes(workload, args.seconds)
        gate_repeats(results)
        # The fresh interpreters ran on either vCPU, which this
        # process's chunks do not gauge; the timed passes' mean speed
        # stands for the host's state over the run.
        speed = (sum(result.seconds for result in results)
                 / reference_seconds(results, GAUGE))
        setup_s = (statistics.median(imports) / speed
                   + statistics.median(scaled))
        metrics = end_to_end(results, setup_s, GAUGE)
    else:
        toolchain = {key: value / SETUP_REPEATS
                     for key, value in tracer.layer("toolchain").items()}
        tracer.uninstall()
        tracer.reset()
        plain, traced = run_passes(workload, args.seconds, tracer)
        results = plain + traced
        gate_repeats(results)
        overhead = (reference_seconds(traced, GAUGE) / len(traced)
                    / (reference_seconds(plain, GAUGE) / len(plain)) - 1)
        speed = (sum(r.seconds for r in traced)
                 / reference_seconds(traced, GAUGE))
        metrics = per_layer(tracer, traced[0].counts, len(traced),
                            len(traced[0].ops), toolchain, overhead * 100,
                            speed)
        loads.WORK_DIR.mkdir(exist_ok=True)
        out = loads.WORK_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"table": tracer.table(),
                                   "spans": tracer.spans}))
    probe.uninstall()

    ops = [op for result in results for op in result.ops]
    failures = [op.error for op in ops if op.error is not None]
    op_s = op_times(results, GAUGE)
    p90 = quantile(op_s, 0.90)
    host_s = sum(result.seconds for result in results)
    raw_s = [op.seconds for op in passed(results)] or [0.0]
    print(json.dumps({"perfbench": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": host_facts(), "setup_host_s": setups,
        "import_host_s": imports, "own_import_host_s": import_s,
        "pass_host_s": [result.seconds for result in results],
        "speed": host_s / reference_seconds(results, GAUGE),
        "gauge_chunks": len(GAUGE.seconds),
        "raw": {"setup_s": setup_host_s,
                "ops_per_s": len(passed(results)) / host_s,
                "op_s_p50": quantile(raw_s, 0.50),
                "op_s_p90": quantile(raw_s, 0.90)},
        "op_samples": len(passed(results)), "op_keys": len(op_s),
        "op_keys_beyond_p90": sum(t > p90 for t in op_s),
        "first_failures": failures[:5]}}))
    print(json.dumps({
        "correct": not failures, "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
