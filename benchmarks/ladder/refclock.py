"""Host time measured against a fixed reference loop.

The ladder runs on shared virtual machines whose speed drifts by tens
of per cent over tens of seconds as other tenants come and go.  A run
that happens to fall into a slow stretch reads slower although the
program did not change, and a one-pass run of 10 to 30 s cannot average
such stretches out.

A :class:`ReferenceClock` measures that drift while the program runs: a
timer interrupts the process that simulates every :data:`PERIOD_S`
seconds and runs :func:`reference_loop`, a fixed piece of work that
belongs to the benchmark, not the program, so a change to the program's
code cannot speed it up or slow it down.  :meth:`ReferenceClock.seconds`
then turns a stretch of host time into *reference seconds*: the time
outside the bursts, each part scaled by :data:`REFERENCE_S` over the
median duration of the :data:`WINDOW` bursts around it.  A stretch in
which the host ran at the speed that gives the reference loop
:data:`REFERENCE_S` reads the same in both units; a slow stretch counts
for less.

The bursts cost about 1 % of the run.  What slows the bursts is scaled
away, so contention the program causes itself in its own process (a
busy background thread, say) would be partly hidden; the same times in
host seconds are therefore kept beside every run.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from collections.abc import Iterator
from time import perf_counter

import numpy as np

#: Seconds between reference bursts.
PERIOD_S = 0.25
#: Bursts whose median duration scales the stretch between two of them.
WINDOW = 9
#: The burst duration that defines a reference second.  It only sets the
#: scale: a burst took 2.5 to 3.5 ms on the 2-vCPU Intel Xeon virtual
#: machine (2.1 GHz, Python 3.11, numpy 2.4) the baseline was measured
#: on, so there reference seconds read close to host seconds.
REFERENCE_S = 0.003

_VECTOR = np.linspace(0.0, 1.0, 1024)


def reference_loop() -> float:
    """Fixed work in the two shapes the simulators run: interpreted
    Python (the scalar engine, the daemon) and short numpy operations
    (the fleet kernel)."""
    total = 0
    for i in range(12000):
        total += i * i % 7
    vector = _VECTOR
    for _ in range(400):
        vector = np.sqrt(vector * 0.5 + 0.25)
    return total + float(vector[0])


class ReferenceClock:
    """Within the ``with`` block, run a reference burst every
    :data:`PERIOD_S` (and one on entry and on exit); afterwards,
    :meth:`seconds` converts host-time stretches of the block into
    reference seconds.

    The bursts run in a ``SIGALRM`` handler, so the block must run in
    the main thread and must not use ``SIGALRM`` itself.
    """

    def __init__(self) -> None:
        #: (start, duration) of every burst, in ``perf_counter`` seconds.
        self.bursts: list[tuple[float, float]] = []
        # Stretches between bursts: their ends, and their scale factors.
        self._ends: list[float] = []
        self._scales: list[float] = []

    def _burst(self, signum: int = 0, frame: object = None) -> None:
        start = perf_counter()
        reference_loop()
        self.bursts.append((start, perf_counter() - start))

    def __enter__(self) -> ReferenceClock:
        self.bursts = []
        self._previous = signal.signal(signal.SIGALRM, self._burst)
        self._burst()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._burst()
        self._index()

    def _index(self) -> None:
        """Stretch j runs from the end of burst j-1 to the start of burst
        j; its scale comes from the bursts around that boundary."""
        durations = [duration for _, duration in self.bursts]
        half = WINDOW // 2
        self._ends = [start for start, _ in self.bursts]
        self._scales = [
            REFERENCE_S / statistics.median(durations[max(0, j - half):j + half + 1])
            for j in range(len(durations))
        ]

    def _pieces(self, start: float, end: float) -> Iterator[tuple[float, float]]:
        """(host seconds, scale) of each part of [start, end) between
        bursts."""
        bursts, scales = self.bursts, self._scales
        j = bisect.bisect_right(self._ends, start)  # first burst after start
        if j:
            start = max(start, bursts[j - 1][0] + bursts[j - 1][1])
        while start < end:
            if j == len(bursts):  # after the exit burst
                yield end - start, scales[-1]
                return
            burst_start, duration = bursts[j]
            yield max(0.0, min(end, burst_start) - start), scales[j]
            start = burst_start + duration
            j += 1

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds in the host-time stretch [start, end) of the
        block, bursts excluded."""
        return sum(host * scale for host, scale in self._pieces(start, end))

    def host_seconds(self, start: float, end: float) -> float:
        """Host seconds in [start, end), bursts excluded."""
        return sum(host for host, _ in self._pieces(start, end))
