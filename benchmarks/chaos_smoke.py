"""Chaos smoke: the full command set under scripted channel faults.

For the ``burst-loss`` and ``blackout`` fault scripts, a
:class:`~repro.control.client.LiquidClient` drives the web interface's
five commands against a hardware emulator through a
:class:`~repro.control.ChaosTransport`: every command must return the
right answer with zero client timeouts, and the scenario must actually
have injected faults.  Writes each scenario's client and channel
counters to a JSON report.  Run from the repository root::

    PYTHONPATH=src python benchmarks/chaos_smoke.py \\
        [--report chaos-report.json]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.control import ChaosTransport, HardwareEmulator, LiquidClient
from repro.net.protocol import LeonState
from repro.obs import MetricsRegistry

BASE = 0x4000_1000
SCENARIOS = ("burst-loss", "blackout")


def scenario(name: str) -> dict:
    emulator = HardwareEmulator("128.252.153.2", 2000)
    transport = ChaosTransport(emulator, "128.252.153.2", 2000,
                               name, seed=23)
    client = LiquidClient(transport)
    blob = bytes(range(256))
    # The web interface's five commands, start to finish.
    assert client.status().state == LeonState.POLLING
    client.load_binary(BASE, blob, chunk=32)
    assert client.start(BASE).entry == BASE
    assert client.read_memory(BASE, 16) == blob[:16]
    assert client.read_memory(BASE + 128, 8) == blob[128:136]
    client.restart()
    assert client.status().state == LeonState.POLLING
    registry = MetricsRegistry()
    client.publish_obs(registry)
    counters = registry.snapshot()["counters"]
    # Zero requests starved out, zero stale responses delivered: every
    # suppression shows up in the counters and every command above
    # returned the right answer.
    assert counters["client.timeouts"] == 0
    faults = sum(counters.get(f"channel.{k}{{direction={d}}}", 0)
                 for d in ("to_device", "to_client")
                 for k in ("dropped", "duplicated",
                           "reordered", "blackout_dropped"))
    assert faults > 0, f"{name}: the scenario injected nothing"
    return {k: v for k, v in sorted(counters.items())
            if k.startswith(("client.", "channel."))}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", default="chaos-report.json")
    args = parser.parse_args(argv)
    report = {}
    for name in SCENARIOS:
        report[name] = scenario(name)
        print(name, "ok:", report[name])
    Path(args.report).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
