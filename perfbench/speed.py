"""Host speed, sampled between operations, to scale measured times to a reference speed.

The CPU speed of a shared host drifts by tens of percent within a minute, and
wall time and CPU time drift together, so no clock removes it.  A `Speedometer`
runs a fixed piece of ordinary interpreter work (`reference_work`, no
convexchoice code) at most every SAMPLE_INTERVAL_S between operations, so its
samples spread over the same seconds as the work they scale.  A time t is
reported as t * REFERENCE_S / (mean sample time over the same stretch), where
REFERENCE_S is the mean sample time on the host the benchmark was written on
(2 vCPUs, Python 3.11.7).  A change to convexchoice moves t and not the
samples, so it shows in full; host drift moves both and cancels.  Time spent
in samples is taken out of the times it falls in.

A pass is scaled by the mean of the samples taken during it, and a single
operation by the two samples on either side of it, at most SAMPLE_INTERVAL_S
away: the short operations of a pass run together in a fraction of a second,
and a slow spell elsewhere in the pass says little about them.
"""

from __future__ import annotations

import gc
import io
import json
import re
import statistics
from time import perf_counter

SAMPLE_INTERVAL_S = 0.02
REFERENCE_S = 0.00070  # mean time of one sample, amid the workloads, on the reference host


_WORDS = "do x <- arbitrary 0 [0, 1, 2]; do y <- uniform 0 [0, 1]; ret (x == y)".split()


def reference_work():
    """Tokenize, count, format and serialize a fixed DSL line, rotated 40 times.

    Ordinary interpreter work over many code paths (regex, dict, f-strings,
    StringIO, json, sort with a key): its time tracked the short CLI
    operations of eval-scaled as well as the long exact-arithmetic ones, where
    a tight loop of Fraction arithmetic tracked only the long ones.
    """
    out = io.StringIO()
    counts = {}
    for i in range(40):
        toks = re.findall(r"[A-Za-z_]\w*|\d+|\S", " ".join(_WORDS[i % 5:] + _WORDS[:i % 5]))
        for t in toks:
            counts[t] = counts.get(t, 0) + 1
        out.write(f"{i}: {len(toks)} {toks[0]!r}\n")
    json.dumps(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))
    return out.getvalue()


class Speedometer:
    """Reference samples: `tick` between operations, `sample` to force one."""

    def __init__(self):
        self.samples = []
        self.before = []  # per tick: index of the first sample after the operation that follows
        self.spent = 0.0  # seconds inside samples, to take out of measured times
        self._due = 0.0
        reference_work()  # warm-up

    def sample(self):
        # The cyclic collector is off meanwhile (the work makes no cycles), so a
        # sample does not depend on how many objects the workload keeps alive.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            reference_work()
            end = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append(end - start)
        self.spent += end - start
        self._due = end + SAMPLE_INTERVAL_S

    def tick(self):
        """Call before each operation; samples if one is due."""
        if perf_counter() >= self._due:
            self.sample()
        self.before.append(len(self.samples))

    def mark(self):
        """A point to measure from: (samples so far, ticks so far)."""
        return len(self.samples), len(self.before)

    def scale(self, since):
        """Factor to the reference speed over the samples taken since a mark."""
        return REFERENCE_S / statistics.fmean(self.samples[since[0]:])

    def op_scales(self, since):
        """Per tick since a mark, the factor from the samples either side of its operation.

        Needs a sample before the first tick and one after the last operation.
        """
        s = self.samples
        return [2 * REFERENCE_S / (s[i - 1] + s[i]) for i in self.before[since[1]:]]
