"""The host's current speed, from a fixed reference kernel.

The benchmark runs on shared hosts whose speed changes by a factor of up
to two within a minute, far more than any change worth measuring.  A fixed
pure-Python kernel, independent of the program, is timed between ops; an
op's wall time times ``REF_NOMINAL_S / (mean of the reference times just
before and after it)`` is its time at the nominal host speed.  The
end-to-end timings are reported at that speed, and the raw wall-clock
figures beside them.
"""

from __future__ import annotations

from time import perf_counter

# About the median of ``sample(0.02)`` on a 2-CPU x86-64 host with Python
# 3.11; it sets the scale of the reported timings only.
REF_NOMINAL_S = 0.0012
SAMPLE_EVERY_S = 0.25
SAMPLE_SHARE = 0.025


def _kernel():
    """Sparse polynomial product over dicts of exponent tuples, and a sort:
    the interpreter work the program itself does."""
    a = {(i, j, (i * j) % 5): i - 3 * j + 7 for i in range(7) for j in range(7)}
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in a.items():
            k = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            out[k] = out.get(k, 0) + c1 * c2
    return sorted(out.items())


def sample(budget_s=0.0):
    """Mean seconds of one kernel run, over at least three runs and about
    ``budget_s`` seconds."""
    runs, total = 0, 0.0
    start = perf_counter()
    while runs < 3 or perf_counter() - start < budget_s:
        t0 = perf_counter()
        _kernel()
        total += perf_counter() - t0
        runs += 1
    return total / runs


class Speedometer:
    """Reference samples taken between ops, at most one per SAMPLE_EVERY_S.

    Each sample lasts SAMPLE_SHARE of the time since the previous one, so a
    long op, during which the host may have changed speed several times, is
    bracketed by longer samples."""

    def __init__(self):
        self.samples = []
        self._last = None

    def _take(self, now):
        budget = 0.0 if self._last is None else SAMPLE_SHARE * (now - self._last)
        self.samples.append(sample(budget))
        self._last = perf_counter()

    def tick(self):
        """Sample if due; returns the index of the latest sample."""
        now = perf_counter()
        if self._last is None or now - self._last >= SAMPLE_EVERY_S:
            self._take(now)
        return len(self.samples) - 1

    def close(self):
        """Take the sample that ends the last op."""
        self._take(perf_counter())

    def factor(self, i):
        """Scale for wall time measured after sample i and before the next."""
        return 2 * REF_NOMINAL_S / (self.samples[i] + self.samples[i + 1])
