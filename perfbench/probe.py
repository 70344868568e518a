"""Host speed probe: a fixed kernel timed between ops.

The benchmark runs on shared hosts whose speed drifts by up to 2x within
minutes, in CPU time as well as in wall time.  The probe times a fixed
kernel of the benchmark's own (numpy bisection on a 48x48-sized vector,
the shape of the program's proximal steps) next to every measured piece
of work, and the runner rescales that work's wall time to the speed at
which the probe takes ``REF_S``:

    normalised seconds = wall seconds * REF_S / probe seconds

No change to the program changes the probe, so a faster program shows as
a smaller normalised time, while a slower host does not.
"""

import time

import numpy as np

N = 2304
OUTER = 500
INNER = 8
# probe time on an idle 2-core x86-64 host (2.0 GHz Xeon); it only sets the
# scale of the normalised seconds
REF_S = 0.12
# least time between two probes in a run: the host's speed drifts over tens
# of seconds, and the probe costs about 6% of the run at this spacing
EVERY_S = 2.0


def kernel():
    x = np.linspace(0.1, 1.0, N)
    total = 0.0
    for _ in range(OUTER):
        lo = np.zeros(N)
        hi = x + 1.0
        for _ in range(INNER):
            mid = 0.5 * (lo + hi)
            below = mid ** 3 + mid - x < 0.0
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        total += float(lo.sum())
    return total


def measure():
    """Seconds the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(seconds, probe_s):
    """``seconds`` of work rescaled to the probe's reference speed."""
    return seconds * REF_S / probe_s
