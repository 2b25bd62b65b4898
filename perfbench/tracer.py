"""Host-time spans around the program's layer boundaries.

The program is never edited: the benchmark patches the public entry
points of each layer from the outside (class attributes, or module
globals the layer looks up at call time) and undoes every patch when
it is done.  Two kinds of boundary are traced:

* *coarse* boundaries (a sweep, a Simulator construction, a control
  command, a platform build) are kept as individual spans with their
  parent span and their root span, which stands for the op (a sweep
  point, a fleet job), and written out at the end;
* *hot* boundaries, crossed once per instruction or per memory access
  (``IntegerUnit.step``, ``CacheController.read``/``write``,
  ``AhbBus.*``, ``FPXPlatform.step``), are only aggregated.

Both kinds feed one aggregate table keyed by ``(layer, parent layer)``
holding call count, total host seconds, host seconds spent in traced
children, and retired instructions for the accurate engine.
A layer's self time is its total minus its children's.
"""

from __future__ import annotations

import builtins
import time

#: Span clock.  Plain host time: the speed gauge's clock costs a Python
#: call on the hot boundaries, so spans include the gauge's chunks
#: that land in them (about 5% of any stretch, see reference.py).
perf = time.perf_counter

ROOT = "root"


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object, bool]] = []

    def wrap(self, owner, name: str, make) -> None:
        """Replace ``owner.name`` with ``make(original_function)``.

        Handles plain functions, classmethods and names a module only
        resolves through builtins (``compile`` in the block translator).
        """
        own = vars(owner)
        present = name in own
        raw = own[name] if present else getattr(builtins, name)
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, name, new)
        self._undo.append((owner, name, raw, present))

    def undo(self) -> None:
        while self._undo:
            owner, name, raw, present = self._undo.pop()
            if present:
                setattr(owner, name, raw)
            else:
                delattr(owner, name)


class Tracer:
    """Span stack plus the ``(layer, parent)`` aggregate table."""

    def __init__(self):
        #: Open frames: [layer, child seconds, span id, root span id].
        self.stack: list[list] = []
        #: (layer, parent layer) -> [calls, seconds, child seconds, work]
        self.agg: dict[tuple[str, str], list] = {}
        #: Coarse spans: (id, parent id, root id, layer, start, end).
        self.spans: list[tuple] = []
        self._next_id = 1
        self._patches = Patches()

    # -- recording ----------------------------------------------------

    def _entry(self, layer: str, parent: str) -> list:
        key = (layer, parent)
        entry = self.agg.get(key)
        if entry is None:
            entry = self.agg[key] = [0, 0.0, 0.0, 0]
        return entry

    def _wrapper(self, layer: str, fn, keep: bool):
        stack = self.stack
        spans = self.spans
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = 0
            if keep:
                span_id = tracer._next_id
                tracer._next_id += 1
            root = parent[3] if parent else span_id
            frame = [layer, 0.0, span_id, root]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                seconds = end - start
                if parent is not None:
                    parent[1] += seconds
                entry = tracer._entry(layer,
                                      parent[0] if parent else ROOT)
                entry[0] += 1
                entry[1] += seconds
                entry[2] += frame[1]
                if keep:
                    spans.append((span_id, parent[2] if parent else 0,
                                  root, layer, start, end))
            return result

        return traced

    def _step_wrapper(self, fn):
        """``IntegerUnit.step``: hot, and counts retired instructions."""
        stack = self.stack
        tracer = self

        def traced(iu):
            parent = stack[-1] if stack else None
            frame = ["cpu", 0.0, 0, parent[3] if parent else 0]
            stack.append(frame)
            retired = iu.instret
            start = perf()
            try:
                return fn(iu)
            finally:
                seconds = perf() - start
                stack.pop()
                if parent is not None:
                    parent[1] += seconds
                entry = tracer._entry("cpu", parent[0] if parent else ROOT)
                entry[0] += 1
                entry[1] += seconds
                entry[2] += frame[1]
                entry[3] += iu.instret - retired

        return traced

    # -- installation -------------------------------------------------

    def span(self, owner, name: str, layer: str, keep: bool = True) -> None:
        self._patches.wrap(owner, name,
                           lambda fn: self._wrapper(layer, fn, keep))

    def install(self) -> None:
        """Patch every traced boundary of the program."""
        from repro.bus.ahb import AhbBus
        from repro.cache.controller import CacheController
        from repro.control.client import LiquidClient
        from repro.core import recon_server, sampling, sweep
        from repro.core.sim import Simulator
        from repro.cpu import blockcache
        from repro.cpu.archstate import ArchState
        from repro.cpu.iu import IntegerUnit
        from repro.fpx.platform import FPXPlatform
        from repro.toolchain import driver

        patches = self._patches
        # Hot boundaries: aggregated only.
        patches.wrap(IntegerUnit, "step", self._step_wrapper)
        for name in ("read", "write"):
            self.span(CacheController, name, "cache", keep=False)
        for name in ("read", "write", "read_burst", "write_burst"):
            self.span(AhbBus, name, "bus", keep=False)
        self.span(FPXPlatform, "step", "fpx.step", keep=False)
        # Coarse boundaries: individual spans too.
        self.span(blockcache.TranslatedUnit, "fast_forward", "translated")
        self.span(blockcache, "compile", "blockcache.translate")
        self.span(Simulator, "__init__", "sim.construct")
        self.span(Simulator, "run", "sim.run")
        self.span(Simulator, "run_translated", "sim.run")
        self.span(ArchState, "capture", "archstate.capture")
        self.span(ArchState, "restore", "archstate.restore")
        self.span(sampling.SampledRunner, "run", "sampling.run")
        self.span(sampling, "measure_window", "sampling.measure")
        self.span(sweep.SweepRunner, "sweep", "sweep")
        self.span(sweep.ResultCache, "get", "result_cache.get")
        self.span(sweep.ResultCache, "put", "result_cache.put")
        self.span(driver, "compile_c_program", "toolchain")
        for name in ("status", "restart", "load_binary", "start",
                     "read_memory"):
            self.span(LiquidClient, name, "control")
        self.span(FPXPlatform, "__init__", "fpx.build")
        self.span(recon_server.ReconfigurationServer, "run_job", "fleet.job")
        self.span(recon_server.ReconfigurationServer, "configure",
                  "recon.configure")

    def uninstall(self) -> None:
        self._patches.undo()

    def reset(self) -> None:
        self.agg.clear()
        self.spans.clear()

    # -- reading ------------------------------------------------------

    def layer(self, layer: str) -> dict:
        """Totals of one layer over all its parents.

        ``seconds`` counts only calls not nested in the same layer, so
        a layer calling itself is not counted twice.
        """
        calls = seconds = self_seconds = work = 0
        for (name, parent), (count, total, child, done) in self.agg.items():
            if name != layer:
                continue
            calls += count
            self_seconds += total - child
            work += done
            if parent != layer:
                seconds += total
        return {"calls": calls, "s": seconds, "self_s": self_seconds,
                "work": work}

    def table(self) -> list[dict]:
        return [{"layer": layer, "parent": parent, "calls": count,
                 "s": total, "self_s": total - child, "work": done}
                for (layer, parent), (count, total, child, done)
                in sorted(self.agg.items())]
