"""Timing on a shared host whose speed drifts: timed segments, each beside a reference loop.

The host the benchmark runs on gives it a share of cores that other work also
uses, and the same call can take up to twice as long from one minute to the
next. `Clock` times the workload's segments and, right before and after each,
pieces of fixed pure-Python reference work that never touches `subgoss`. A
segment's seconds times REF_NOMINAL_S over the median of the reference pieces
around it is its time on a host where one reference piece takes REF_NOMINAL_S:
the host's drift cancels, while a change to the simulator still moves the
figure in full. Reference pieces are run in proportion to the time timed: one
piece, about 17 ms, per 0.2 s.
"""

from __future__ import annotations

import contextlib
import statistics
from time import perf_counter

REF_LOOPS = 200_000
# one reference piece at the reference machine's typical speed (see README.md)
REF_NOMINAL_S = 0.017
# one reference piece per this many seconds of timed work
REF_EVERY_S = 0.2
# reference pieces kept to set beside the segments to come
RECENT = 200
# timed work the reference pieces run before the first segment stand for, in seconds
PRIME_S = 2.0


def reference_piece() -> float:
    """Seconds taken by one fixed piece of reference work."""
    t0 = perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i
    return perf_counter() - t0


def reference_batch(covered_s: float) -> list:
    """Reference pieces for `covered_s` seconds of timed work, at least one."""
    return [reference_piece() for _ in range(max(1, round(covered_s / REF_EVERY_S)))]


class Span:
    seconds = 0.0  # as timed
    nominal = 0.0  # at nominal host speed


class Clock:
    """Sums a round's timed segments, as timed and at nominal host speed.

    A segment is brought to nominal speed by the reference pieces run right
    after it and as many run right before it, so that the host's speed is
    sampled evenly on both sides of the segment.
    """

    def __init__(self):
        self._recent = reference_batch(PRIME_S)
        self.start_round()

    def start_round(self) -> None:
        self.work = 0.0
        self.nominal = 0.0
        self.spent = 0.0  # everything the round took, reference pieces too

    @contextlib.contextmanager
    def segment(self):
        span = Span()
        t0 = perf_counter()
        try:
            yield span
        finally:
            span.seconds = perf_counter() - t0
            after = reference_batch(span.seconds)
            around = self._recent[-len(after):] + after
            span.nominal = span.seconds * REF_NOMINAL_S / statistics.median(around)
            self._recent = (self._recent + after)[-RECENT:]
            self.work += span.seconds
            self.nominal += span.nominal
            self.spent += span.seconds + sum(after)
