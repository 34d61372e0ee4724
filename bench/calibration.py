"""Speed calibration for a machine whose CPU speed drifts.

On a shared 2-core virtual machine the same pure-Python work took from
1x to 2x its fastest time, in phases lasting seconds, and the process's
CPU time drifted with it.  The benchmark therefore measures the speed of
the machine while it works: a background thread runs a fixed loop of
about a millisecond every ``PERIOD_S`` and reads the thread CPU time the
loop took.  Each op's time is reported scaled by ``REFERENCE_S / c``,
with c the median loop time sampled from ``MARGIN_S`` before the op to
``MARGIN_S`` after it: seconds on a machine where the loop takes exactly
``REFERENCE_S``.  The margin smooths the estimate for short ops.

The loop does what the package does: small-int arithmetic, tuple keys,
dict updates, sorting, a recursive partition generator and reduced
rational sums.
"""

import time
from math import gcd

# thread CPU seconds of one loop at the reference speed: its median on the
# 2-core virtual machine the benchmark was built on
REFERENCE_S = 0.0009
ROUNDS = 200
PARTITION_OF = 12
PERIOD_S = 0.05
MARGIN_S = 1.0


def _parts(m: int, largest: int):
    """Partitions of m with parts at most largest, as a recursive generator."""
    if m == 0:
        yield ()
        return
    for part in range(min(m, largest), 0, -1):
        for rest in _parts(m - part, part):
            yield (part,) + rest


def loop_time() -> float:
    """Thread CPU seconds of one pass of the fixed loop, now."""
    start = time.thread_time()
    table = {}
    for i in range(ROUNDS):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i * i % 11
        table[key] += sum(sorted((i * 7919 + j) % 101 for j in range(i % 16)))
    num, den = 0, 1
    for p in _parts(PARTITION_OF, PARTITION_OF):  # sum of len(p) / p[0], reduced
        num, den = num * p[0] + len(p) * den, den * p[0]
        g = gcd(num, den)
        num, den = num // g, den // g
    if num < 0 or not table:  # keeps the work observable
        raise AssertionError
    return time.thread_time() - start


def calibrate(passes: int = 7) -> float:
    """The median loop time of a few passes in a row."""
    return sorted(loop_time() for _ in range(passes))[passes // 2]


def scale(seconds: float, calibrations) -> float:
    """seconds at the reference speed, given loop times measured around them."""
    return seconds * REFERENCE_S / (sum(calibrations) / len(calibrations))


class Sampler:
    """Samples the loop time every PERIOD_S on a daemon thread."""

    def __init__(self):
        self.samples = []  # (perf_counter at the end of the loop, loop time)
        self._thread = None
        self._stop = None

    def __enter__(self):
        import threading
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)
        self._thread.start()
        return self

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            took = loop_time()
            self.samples.append((time.perf_counter(), took))

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            raise RuntimeError("speed sampler did not stop")
        return False

    def loop_time_during(self, start: float, end: float) -> float:
        """Median loop time sampled in [start - MARGIN_S, end + MARGIN_S]."""
        inside = sorted(t for at, t in self.samples
                        if start - MARGIN_S <= at <= end + MARGIN_S)
        if not inside:
            raise RuntimeError("no speed sample near the op")
        return inside[len(inside) // 2]
