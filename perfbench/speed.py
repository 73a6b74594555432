"""Host speed, measured with a fixed reference loop beside the work.

The benchmark's host changes speed by up to 1.7x for seconds to minutes
at a time (other tenants share its cores), so two runs of the same work
can differ by that much.  A run therefore times `reference_loop` between
passes, and the reported times are scaled to the speed at which the loop
takes REFERENCE_S:

    scaled = raw * REFERENCE_S / (median loop time around that pass)

The loop is the benchmark's own code, so no change to the package can
move it.  Raw times are printed beside the scaled ones.
"""

import statistics
import time

# median loop time on a 2-vCPU Xeon at 2.0 GHz; any constant would do, it
# only sets the scale of the reported seconds
REFERENCE_S = 0.026


def reference_loop() -> int:
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return total


class Speed:
    """Reference-loop times taken through one run, with their clock times."""

    def __init__(self):
        self.samples = []  # (perf_counter at the sample, loop seconds)

    def sample(self, repeats: int = 1) -> None:
        """Time the loop `repeats` times and keep the median."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - start)
        self.samples.append((time.perf_counter(), statistics.median(times)))

    def scale(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """REFERENCE_S over the median loop time of the samples taken in
        [start, end], widened to the nearest sample on each side."""
        stamps = [t for t, _ in self.samples]
        lo = max([i for i, t in enumerate(stamps) if t <= start] or [0])
        hi = min([i for i, t in enumerate(stamps) if t >= end] or [len(stamps) - 1])
        return REFERENCE_S / statistics.median(s for _, s in self.samples[lo:hi + 1])
