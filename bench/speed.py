"""Host-speed correction for benchmark timings.

Pure-Python code on a shared host does not run at one speed: on a shared
2-vCPU x86-64 host it drops to about half for episodes that last from a
fraction of a second to tens of seconds, so raw wall times of the same code
differ by 30 % from run to run.  A SpeedMeter samples the current speed
with a fixed reference kernel (exact Fraction elimination and integer tuple
enumeration, like fsig's inner loops, but independent of fsig): before and
after every timed item, and every SAMPLE_EVERY_S of process CPU time while
one runs (SIGPROF).  A timing is then reported as

    corrected = raw * REFERENCE_S / median_reference_during_the_item

that is, the wall time the item would take on a host that runs the kernel in
REFERENCE_S, its time at full speed on that 2-vCPU host.  A change in fsig
moves raw and corrected times alike; the host's episodes move only the raw
ones.  Raw times are printed as well.
"""

import gc
import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

SAMPLE_EVERY_S = 0.1
CONTEXT_SAMPLES = 4  # samples before an item that also count for it
REFERENCE_S = 0.25e-3  # the kernel's time at full speed on the 2-vCPU host above
_MATRIX = tuple(tuple(Fraction((3 * i + 5 * j) % 7 - 3, j + 1) for j in range(4)) for i in range(4))


def reference_kernel() -> int:
    """About 0.25 ms of the kind of work fsig does: exact elimination on
    Fractions, and integer tuple enumeration in a box."""
    rows = [list(row) for row in _MATRIX]
    for col in range(4):
        pivot = next((i for i in range(col, 4) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for i in range(4):
            if i != col and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    seen = {tuple(a + b for a, b in zip((x, y, z), (1, 2, 3))) for x in range(5) for y in range(5) for z in range(3)}
    return len(seen)


@dataclass(frozen=True)
class Timing:
    raw: float  # wall seconds
    reference: float  # median reference-kernel seconds around and during the item


def corrected(timing: Timing) -> float:
    """The timing's wall time on a host where the kernel takes REFERENCE_S."""
    return timing.raw * REFERENCE_S / timing.reference


class SpeedMeter:
    """Reference samples of one process; start() adds the SIGPROF sampler."""

    def __init__(self):
        self.samples: list[float] = []

    def probe(self) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection inside a probe would read as a slow host
        try:
            start = time.perf_counter()
            reference_kernel()
            self.samples.append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()

    def start(self) -> None:
        signal.signal(signal.SIGPROF, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def mark(self, fresh: bool = True) -> int:
        """Index of the sample that opens a timed item (probing now if fresh)."""
        if fresh or not self.samples:
            self.probe()
        return len(self.samples) - 1

    def close(self, mark: int, raw: float) -> Timing:
        """Probe after an item opened at mark and return its timing."""
        self.probe()
        return Timing(raw, statistics.median(self.samples[max(0, mark - CONTEXT_SAMPLES) :]))

    def slowdown(self) -> float:
        """Median reference sample over REFERENCE_S: how slow the host ran."""
        return statistics.median(self.samples) / REFERENCE_S
