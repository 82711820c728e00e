"""Host-speed gauge: scales measured times to a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed changes by up
to 1.7x within seconds, and stays slow or fast for minutes, even when nothing
else runs beside the benchmark.  Process CPU time follows wall time, so the slowdown
is not time stolen from the process; it slows every instruction.  A timing
taken at one moment therefore says as much about the host as about the
package.

The gauge samples the host's speed while a pass runs.  A ``SIGALRM`` timer
interrupts the worker every ``INTERVAL_S``, and the handler times
``reference()``, a fixed pure-Python search of the kind the package runs.
The handler runs in the worker's own thread, between two bytecodes of
whatever the package is doing, so each sample sees the host as the package
sees it at that moment.  ``scaled`` turns the wall time of an interval into
the time it would have taken with ``reference()`` at ``NOMINAL_S``: the
interval's length, less the handler's own time, times ``NOMINAL_S`` over the
mean sample taken in it.

The reference shares no code with the package, so a change to the package
moves the scaled time and leaves the samples alone.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
# about reference()'s time on a 2.0 GHz Xeon VM with Python 3.11 when the host runs
# at its faster speed
NOMINAL_S = 0.0006
REFERENCE_ORDER = 7
REFERENCE_COUNT = 133  # transversals of the cyclic Latin square of order 7 (OEIS A006717)


def reference(n: int = REFERENCE_ORDER) -> int:
    """Count the transversals of the cyclic Latin square of odd order ``n``
    with a recursive-generator depth-first search."""
    col_used = [False] * n
    sym_used = [False] * n

    def rows(r: int):
        if r == n:
            yield 1
            return
        for c in range(n):
            s = (r + c) % n
            if col_used[c] or sym_used[s]:
                continue
            col_used[c] = sym_used[s] = True
            yield from rows(r + 1)
            col_used[c] = sym_used[s] = False

    return sum(rows(0))


class Gauge:
    """Samples of ``reference()``'s duration, each with its start time
    (``time.monotonic()``, comparable across processes)."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def sample(self, *_signal_args) -> None:
        t0 = time.monotonic()
        if reference() != REFERENCE_COUNT:
            raise AssertionError("host-speed reference search miscounted")
        self.samples.append((t0, time.monotonic() - t0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0: float, t1: float) -> float:
        """Wall time of ``[t0, t1)`` at the reference speed.

        An interval shorter than ``INTERVAL_S`` may hold no sample; it is
        scaled by the first one after it, so take one right after ``t1``."""
        inside = [d for s, d in self.samples if t0 <= s < t1]
        speed = inside or [next(d for s, d in self.samples if s >= t1)]
        return (t1 - t0 - sum(inside)) * NOMINAL_S / statistics.mean(speed)

    def mean_sample_s(self) -> float:
        return statistics.mean(d for _, d in self.samples)
