"""A fixed reference workload that gauges the host's speed during a run.

The shared host this benchmark was tuned on runs each vCPU in a fast
state or one up to 70% slower, flipping within a second, and the share
of slow time drifts over tens of minutes.  Every host-time figure of a
run moves with that share, so raw host seconds of two runs of the same
code, minutes apart, can differ by more than any useful bound.

:data:`GAUGE` measures the host's speed alongside the work: every
:data:`PERIOD` host seconds a ``SIGALRM`` handler runs one fixed
:func:`chunk`, an interpreter loop shaped like the simulator's own
(decode tuples, dict dispatch, attribute access, a word memory, 32-bit
masks), and records when it ran and how long it took.  Its data fit in
the first-level caches and it warms them before it is timed, so what
the interrupted code did to the caches barely moves it.
:func:`clock` is ``perf_counter`` minus the time spent in chunks, so
no timing the benchmark takes includes them.

``GAUGE.speed(start, end)`` is the mean chunk time around that stretch
of :func:`clock` over :data:`NOMINAL_S`: about 1 in the host's fast
state, above 1 when it ran slower.  Host seconds divided by it are
*reference seconds*, the time the work would have taken at the
reference speed; every end-to-end time the benchmark reports is in
reference seconds.  The chunk is the benchmark's own code, so a change
to the program cannot move it.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

#: Host seconds between chunks.
PERIOD = 0.025
#: Host seconds one chunk takes at the reference speed: its typical
#: time in the fast state of the host the benchmark was tuned on (an
#: Intel Xeon vCPU, Python 3.11).  Only a scale.
NOMINAL_S = 0.0011
#: Toy instructions one chunk times, after :data:`WARM_STEPS` untimed.
CHUNK_STEPS = 2000
WARM_STEPS = 200
#: Chunks this far either side of a timed stretch also count for it,
#: so even a sub-millisecond op is gauged by a few chunks.
MARGIN = 2 * PERIOD


class _Machine:
    """A toy register machine with a 256-word memory."""

    __slots__ = ("regs", "mem", "pc", "flags", "seed")

    def __init__(self):
        self.regs = [0x9E3779B9 * (i + 1) & 0xFFFFFFFF for i in range(8)]
        self.mem = [(i * 2654435761) & 0xFFFFFFFF for i in range(256)]
        self.pc = 0
        self.flags = 0
        self.seed = 12345


def _add(m, a, b):
    m.regs[a] = (m.regs[a] + m.regs[b]) & 0xFFFFFFFF


def _xor(m, a, b):
    m.regs[a] ^= m.regs[b] << 3 & 0xFFFFFFFF


def _load(m, a, b):
    m.seed = (m.seed * 1103515245 + 12345) & 0x7FFFFFFF
    m.regs[a] = m.mem[(m.regs[b] ^ m.seed) & 0xFF]


def _store(m, a, b):
    m.mem[(m.regs[b] + m.seed) & 0xFF] = m.regs[a]


def _cmp(m, a, b):
    m.flags = 1 if m.regs[a] < m.regs[b] else 0


_HANDLERS = {"add": _add, "xor": _xor, "ld": _load, "st": _store,
             "cmp": _cmp}
_NAMES = ("add", "xor", "ld", "st", "cmp")
_PROGRAM = [(i * 7) % 5 << 6 | (i % 8) << 3 | (i * 3 + 1) % 8
            for i in range(64)]


def chunk(steps: int = CHUNK_STEPS) -> int:
    """Run *steps* toy instructions; returns a checksum."""
    m = _Machine()
    program, handlers, names = _PROGRAM, _HANDLERS, _NAMES
    for _ in range(steps):
        word = program[m.pc]
        decoded = (names[word >> 6], word >> 3 & 7, word & 7)
        handlers[decoded[0]](m, decoded[1], decoded[2])
        m.pc = (m.pc + 1 + m.flags) & 63
    return sum(m.regs) & 0xFFFFFFFF


class SpeedGauge:
    """Runs and times a chunk every :data:`PERIOD` host seconds while
    started."""

    def __init__(self):
        #: :meth:`clock` at the start of each chunk, ascending.
        self.starts: list[float] = []
        #: Host seconds each chunk took.
        self.seconds: list[float] = []
        self._excluded = 0.0
        self._previous = None

    def clock(self) -> float:
        """Host seconds, less the time spent in chunks."""
        return time.perf_counter() - self._excluded

    def _tick(self, signum, frame) -> None:
        begin = time.perf_counter()
        # The chunk's objects die by reference count; a collection of
        # the program's objects must not land inside it.
        collecting = gc.isenabled()
        gc.disable()
        chunk(WARM_STEPS)
        start = time.perf_counter()
        chunk()
        spent = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.starts.append(begin - self._excluded)
        self.seconds.append(spent)
        self._excluded += time.perf_counter() - begin

    def start(self) -> None:
        if self._previous is None:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def speed(self, start: float, end: float) -> float:
        """Mean chunk time around [*start*, *end*] of :meth:`clock`,
        over :data:`NOMINAL_S`; 1.0 if no chunk ran near it."""
        lo = bisect.bisect_left(self.starts, start - MARGIN)
        hi = bisect.bisect_right(self.starts, end + MARGIN)
        if hi <= lo:
            return 1.0
        return sum(self.seconds[lo:hi]) / (hi - lo) / NOMINAL_S


#: The one gauge of a benchmark process.
GAUGE = SpeedGauge()
clock = GAUGE.clock
