"""Architectural state checkpointing for the two-speed execution engine.

An :class:`ArchState` is everything the *architecture* defines about a
running Liquid processor system: register file (all windows), control
registers (PSR/WIM/TBR/Y), ancillary state registers, PC/nPC/annul, the
full memory image and the peripherals' observable state.  Nothing
micro-architectural is kept: a restore leaves caches, prefetchers and
pipeline in one canonical state (see ``Simulator.restore_state``), so a
restored run replays the original bit-for-bit.

Capture from one simulator, restore into another (with the same
architectural shape), and execution continues exactly where it left
off — that is how ``Simulator.run(fast_forward=...)`` warms a program
on the translated engine and hands off to the cycle-accurate engine,
and how :class:`~repro.core.sweep.SweepRunner` reuses one warmed
checkpoint across every configuration point of a sweep.  Every field is
architectural, so the differential test suite can assert
``capture(fast) == capture(accurate)`` directly.

The host a state is captured on talks a small protocol rather than a
concrete class: it must expose ``cpu`` (an engine with the IntegerUnit's
architectural attributes), ``checkpoint_memory()`` (name → bytearray)
and ``checkpoint_peripherals()`` (name → device with ``state()`` /
``load_state()``).
"""

from __future__ import annotations

import base64
import hashlib
import json
import zlib
from dataclasses import dataclass

from repro.utils import u32

__all__ = ["ArchState", "PAYLOAD_SCHEMA"]

#: Bumped whenever the serialized payload layout changes; stale payloads
#: are rejected by :meth:`ArchState.from_payload`.  v2: the clock and
#: RNG-cursor fields are gone.
PAYLOAD_SCHEMA = 2


@dataclass(eq=True)
class ArchState:
    """One checkpoint of the architectural machine."""

    nwindows: int
    pc: int
    npc: int
    annul: bool
    halted: bool
    error_tt: int | None
    psr: int
    wim: int
    tbr: int
    y: int
    cwp: int
    globals_: tuple[int, ...]
    window_regs: tuple[int, ...]
    asr: dict
    #: Instructions retired to reach this state (both engines combined).
    retired: int
    traps_taken: int
    #: Region name -> raw bytes (e.g. ``{"sram": ...}``).
    memory: dict
    #: Device name -> that device's ``state()`` dict.
    peripherals: dict

    # ------------------------------------------------------------------
    # Capture / restore
    # ------------------------------------------------------------------

    @classmethod
    def capture(cls, sim, engine=None) -> "ArchState":
        """Snapshot *sim*'s architectural state.

        *engine* names an alternative executor to read the private
        per-engine fields (PC/nPC/annul, halt state, retirement and trap
        counters) from — e.g. a functional or translated unit mid
        fast-forward, whose registers/control/ASRs are shared with
        ``sim.cpu`` by reference but whose position is its own.
        """
        cpu = engine if engine is not None else sim.cpu
        regs = cpu.regs.state()
        return cls(
            nwindows=cpu.regs.nwindows,
            pc=cpu.pc,
            npc=cpu.npc,
            annul=cpu.annul,
            halted=cpu.halted,
            error_tt=cpu.error_tt,
            psr=cpu.ctrl.psr,
            wim=cpu.ctrl.wim,
            tbr=cpu.ctrl.tbr,
            y=cpu.ctrl.y,
            cwp=regs["cwp"],
            globals_=tuple(regs["globals"]),
            window_regs=tuple(regs["window_regs"]),
            asr=dict(cpu.asr),
            retired=cpu.instret,
            traps_taken=cpu.trap_count,
            memory={name: bytes(buffer)
                    for name, buffer in sim.checkpoint_memory().items()},
            peripherals={name: device.state()
                         for name, device
                         in sim.checkpoint_peripherals().items()},
        )

    def restore(self, sim) -> None:
        """Load this state into *sim* (same architectural shape)."""
        cpu = sim.cpu
        cpu.regs.load_state({"nwindows": self.nwindows, "cwp": self.cwp,
                             "globals": list(self.globals_),
                             "window_regs": list(self.window_regs)})
        cpu.ctrl.load_state({"psr": self.psr, "wim": self.wim,
                             "tbr": self.tbr, "y": self.y})
        cpu.pc = self.pc
        cpu.npc = self.npc
        cpu.annul = self.annul
        cpu.halted = self.halted
        cpu.error_tt = self.error_tt
        cpu.asr.clear()
        cpu.asr.update(self.asr)
        cpu.instret = self.retired
        cpu.trap_count = self.traps_taken
        buffers = sim.checkpoint_memory()
        for name, blob in self.memory.items():
            buffer = buffers[name]
            if len(blob) != len(buffer):
                raise ValueError(
                    f"memory region '{name}' is {len(buffer)} bytes here, "
                    f"checkpoint has {len(blob)}")
            buffer[:] = blob
        devices = sim.checkpoint_peripherals()
        for name, state in self.peripherals.items():
            devices[name].load_state(state)

    # ------------------------------------------------------------------
    # Serialization (ResultCache persistence, worker processes)
    # ------------------------------------------------------------------

    def to_payload(self) -> dict:
        """JSON-able dict (memory zlib-compressed + base64)."""
        return {
            "schema": PAYLOAD_SCHEMA,
            "nwindows": self.nwindows,
            "pc": self.pc, "npc": self.npc, "annul": self.annul,
            "halted": self.halted, "error_tt": self.error_tt,
            "psr": self.psr, "wim": self.wim, "tbr": self.tbr, "y": self.y,
            "cwp": self.cwp,
            "globals": list(self.globals_),
            "window_regs": list(self.window_regs),
            "asr": {str(k): v for k, v in sorted(self.asr.items())},
            "retired": self.retired,
            "traps_taken": self.traps_taken,
            "memory": {
                name: base64.b64encode(zlib.compress(blob, 6)).decode("ascii")
                for name, blob in sorted(self.memory.items())
            },
            "peripherals": self.peripherals,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ArchState":
        if payload.get("schema") != PAYLOAD_SCHEMA:
            raise ValueError(
                f"unsupported ArchState payload schema "
                f"{payload.get('schema')!r} (want {PAYLOAD_SCHEMA})")
        return cls(
            nwindows=payload["nwindows"],
            pc=payload["pc"], npc=payload["npc"], annul=payload["annul"],
            halted=payload["halted"], error_tt=payload["error_tt"],
            psr=payload["psr"], wim=payload["wim"], tbr=payload["tbr"],
            y=payload["y"],
            cwp=payload["cwp"],
            globals_=tuple(payload["globals"]),
            window_regs=tuple(payload["window_regs"]),
            asr={int(k): v for k, v in payload["asr"].items()},
            retired=payload["retired"],
            traps_taken=payload["traps_taken"],
            memory={name: zlib.decompress(base64.b64decode(blob))
                    for name, blob in payload["memory"].items()},
            peripherals=payload["peripherals"],
        )

    def digest(self) -> str:
        """Stable identity of the architectural content."""
        payload = json.dumps(self.to_payload(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]

    def summary(self) -> dict:
        """Small human-readable view for logs and tests."""
        return {
            "pc": f"0x{u32(self.pc):08x}",
            "npc": f"0x{u32(self.npc):08x}",
            "cwp": self.cwp,
            "retired": self.retired,
            "traps_taken": self.traps_taken,
            "digest": self.digest(),
        }
