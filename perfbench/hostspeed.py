"""Host-speed normalisation of timed samples.

On a shared host, other tenants' work on the same physical cores slows this
process by up to about 1.7x, in stretches that last from a millisecond to
minutes, so that a whole run can fall inside one.  No statistic of the raw
times of one run cancels that: the fastest round moves with the number of
quiet moments a run happens to get, the median round with the share of busy
ones.  The benchmark therefore measures the host's speed alongside the
program.  A fixed pure-Python loop, the probe, runs between timed operations
at most every ``PROBE_EVERY_S``, and each timed sample is scaled by
``REFERENCE_S`` over the median time of the ``PROBES_NEAR`` probes nearest to
the sample's midpoint.  A normalised time reads as the time the operation
takes on a host where the probe takes ``REFERENCE_S``: 0.40 ms, its time on
an idle core of a 2-vCPU Xeon virtual machine.  Raw times are printed beside
the metrics.

The probe shares no code with the package, so a change to the package moves
the normalised times by as much as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import statistics
import time
from dataclasses import dataclass

REFERENCE_S = 0.40e-3
PROBE_EVERY_S = 0.02
PROBES_NEAR = 15


@dataclass(frozen=True, slots=True)
class _Node:
    op: str
    kids: tuple


def _tree(depth: int, k: int) -> _Node:
    if depth == 0:
        return _Node(f"v{k % 7}", ())
    return _Node("and" if k % 2 else "or", tuple(_tree(depth - 1, 3 * k + j) for j in range(3)))


def _count(node: _Node, leaves: dict) -> int:
    if not node.kids:
        leaves[node.op] = leaves.get(node.op, 0) + 1
        return 1
    return 1 + sum(_count(kid, leaves) for kid in node.kids if isinstance(kid, _Node))


def _probe_work() -> int:
    """Integer and string work, then building and walking a small tree of
    frozen objects.  Each part alone misjudges how much a busy host slows the
    package's code, one too little and one too much.  Measured on a shared
    2-vCPU VM as the slope of log call time over log probe time across
    stretches of a run: 0.86-1.25 against the first part alone, 0.51-0.81
    against the second alone, 0.67-0.96 against both."""
    total = 0
    for i in range(2000):
        total += len(str(i))
    return total + _count(_tree(4, 1), {})


class HostSpeed:
    """Probe times of one process, and the scaling they imply."""

    def __init__(self):
        self.ends: list[float] = []
        self.times: list[float] = []

    def probe(self) -> None:
        start = time.perf_counter()
        _probe_work()
        end = time.perf_counter()
        self.ends.append(end)
        self.times.append(end - start)

    def maybe_probe(self) -> None:
        """Probe unless the last probe is more recent than PROBE_EVERY_S."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= PROBE_EVERY_S:
            self.probe()

    def burst(self) -> None:
        for _ in range(PROBES_NEAR):
            self.probe()

    def scale(self, at: float) -> float:
        """REFERENCE_S over the median of the probes nearest to ``at``."""
        i = bisect.bisect_left(self.ends, at)
        lo = max(0, min(i - PROBES_NEAR // 2, len(self.ends) - PROBES_NEAR))
        return REFERENCE_S / statistics.median(self.times[lo:lo + PROBES_NEAR])

    def normalize(self, samples: list[tuple[float, float]]) -> list[float]:
        """Normalised durations of ``(start, duration)`` samples."""
        return [dt * self.scale(start + dt / 2) for start, dt in samples]

    def slowdown(self) -> float:
        """Median probe time over REFERENCE_S: how much slower than the
        reference host this run's host was, as printed for people."""
        return statistics.median(self.times) / REFERENCE_S


#: The process's probe record, shared by the workloads' checks and the runner.
HOST = HostSpeed()
