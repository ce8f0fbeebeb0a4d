"""Core-speed probe: times a fixed piece of Python while a pass runs.

On a shared host the speed of one core swings by up to 2x within seconds and
drifts by 1.5x over minutes, and the process CPU time of this single-threaded
program swings with it.  Inside a `Probe` block a SIGALRM handler runs
`probe_work`, a small Fraction elimination like the program's own hot loop,
every `interval` seconds, on the same core and between the program's
bytecodes, and records how long it took.  The stretch of program time between
two probes, divided by the mean duration of those two probes, is that
stretch's length in probe units: the work done, with the core's momentary
speed divided out.  `units` sums the stretches; probe time itself is left out.
Probes run at the block's entry and exit too, so every stretch is bracketed.

Units times the fixed `REFERENCE_PROBE_S`, the probe's duration on an
uncontended core, gives seconds at reference speed: what the block would have
taken had the core been uncontended throughout, comparable between commits
however busy the host was.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# The probe eliminates a fixed small matrix of Fractions, as the program's
# hot loop does, so that contention slows probe and program alike.
PROBE_MATRIX = [[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i * j) % 4) for j in range(7)] for i in range(5)]
# The 2nd percentile of probe durations on the 2-vCPU Xeon virtual machine
# the benchmark was built on (Python 3.11), where the median was 0.68 ms.
REFERENCE_PROBE_S = 0.00042
WARM_CALLS = 20  # the adaptive interpreter specialises a function after a few calls


def probe_work() -> None:
    rows = [row[:] for row in PROBE_MATRIX]
    for col, pivot_row in enumerate(rows):
        pivot = pivot_row[col]
        if not pivot:
            continue
        for row in rows:
            if row is not pivot_row and row[col]:
                factor = row[col] / pivot
                row[:] = [a - factor * b for a, b in zip(row, pivot_row)]


class Probe:
    """Context manager that probes the core at entry, every `interval` seconds
    and at exit; `samples` holds (start, duration) of every probe."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []
        self._armed = False
        self._busy = False

    def __enter__(self) -> "Probe":
        for _ in range(WARM_CALLS):
            probe_work()
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._sample()
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._armed = False  # an alarm still pending is dropped
        self._sample()
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        if self._armed and not self._busy:
            self._sample()

    def _sample(self) -> None:
        self._busy = True
        start = time.perf_counter()
        probe_work()
        self.samples.append((start, time.perf_counter() - start))
        self._busy = False

    def program_s(self) -> float:
        """Wall time of the block without the probes."""
        return sum(start - (prev + dur) for (prev, dur), (start, _) in zip(self.samples, self.samples[1:]))

    def units(self) -> float:
        """Program time of the block in probe units."""
        return sum(
            (start - (prev + prev_dur)) / ((prev_dur + dur) / 2)
            for (prev, prev_dur), (start, dur) in zip(self.samples, self.samples[1:])
        )

    def durations(self) -> list[float]:
        return [dur for _, dur in self.samples]
