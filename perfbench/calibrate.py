"""A fixed reference load that measures how fast the host is right now.

The shared host the benchmark runs on changes speed by up to a factor
of two in phases that last from seconds to tens of minutes, and the
guest cannot see why: steal time stays near zero and CPU time grows
with wall time.  :class:`Probe` times a fixed piece of work that uses
none of the program's code, between the samples of a run; scaling the
samples by the median probe taken among them cancels most of a host
phase that slows both (see README.md, "Host-speed scaling").

The work is numpy gathers, counts and a sort over 2^19 elements.  Of
the loads tried against all four workloads' bodies (this one, a
pure-Python breadth-first search over a small and over a 10^5-vertex
dict, the same numpy work over 2^22 elements, and big-integer
arithmetic), it followed every body's slowdowns most closely; the
pure-Python loads swing twice as far as the bodies do.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Reading, in seconds, that scaled samples are expressed against: about
# what one reading takes in this host's fast phases.
REFERENCE_S = 0.06

_N = 1 << 19
_READINGS = 3


class Probe:
    """The reference load and the readings taken of it in one run.

    Its arrays (8 MB) are allocated once, so probing adds a constant
    to the process's peak RSS."""

    def __init__(self) -> None:
        gen = np.random.default_rng(12345)
        self.values = gen.integers(0, 1 << 30, size=_N, dtype=np.int32)
        self.index = gen.integers(0, _N, size=_N, dtype=np.intp)
        self.gathered = np.empty(_N, dtype=np.int32)
        self.readings: dict[str, list[float]] = {}

    def load(self) -> int:
        """Random gathers, segmented counts and a sort over 2^19
        elements."""
        gathered, total = self.gathered, 0
        for _ in range(8):
            np.take(self.values, self.index, out=gathered)
            np.bitwise_and(gathered, 0xFFFF, out=gathered)
            counts = np.bincount(gathered, minlength=1 << 16)
            order = np.argsort(gathered[: _N // 16], kind="stable")
            total += int(counts[::257].sum() + order[0])
        return total

    def read(self, phase: str) -> None:
        """Record the wall time of the load, three times, for ``phase``."""
        readings = self.readings.setdefault(phase, [])
        for _ in range(_READINGS):
            start = time.perf_counter()
            self.load()
            readings.append(time.perf_counter() - start)

    def scale(self, phase: str) -> float:
        """The factor that turns a wall time measured among the readings
        of ``phase`` into the time on a host whose probe takes
        ``REFERENCE_S``: ``REFERENCE_S`` over their median.  One reading
        can be off by a fifth; the median of a phase's readings is not,
        and it follows a host phase that lasts longer than the run's."""
        return REFERENCE_S / statistics.median(self.readings[phase])
