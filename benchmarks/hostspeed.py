"""The host's speed, sampled while the benchmark runs, for scaling timings.

On a shared virtual machine (such as a 2-vCPU cloud instance) the same
code runs up to 1.6x slower for a minute or more while neighbours are
busy, so raw timings of runs a few minutes apart disagree by more than
any change worth measuring.  While a ``HostSpeed`` is active, an
interval timer interrupts the process every ``INTERVAL_S`` and times a
fixed pure-Python loop of ``LOOPS`` iterations (about 45 us on an idle
2-vCPU VM with Python 3.11, so sampling costs about 0.25% of the
process's time); the loop's time is the host's current slowness.

A timing is reported at the reference speed, at which the loop takes
``REFERENCE_LOOP_S``: it is multiplied by ``REFERENCE_LOOP_S / loop``,
where ``loop`` is the median loop time sampled within ``PAD_S`` of the
timed interval.  The loop is benchmark code, so a change to cliffrep
cannot move it.

Child processes do not inherit the timer (``setitimer`` timers are not
kept across ``fork``), and while a child runs the parent's samples
measure the parent's contention with it.  A CLI child therefore times
the loop itself, ``BRACKET`` times before and after its work (not from
a timer: a signal that interrupts a blocked write of a large output to
a pipe can lose part of that output).  Run as a script, this file is a
stand-in for the ``cliffrep`` command that does so,
``python3 benchmarks/hostspeed.py classify -p 1 -q 3``, and appends the
child's median loop time to stderr after ``SPEED_MARKER``.
"""

from __future__ import annotations

import bisect
import json
import runpy
import signal
import sys
from time import perf_counter

INTERVAL_S = 0.02
LOOPS = 1000
PAD_S = 0.1
REFERENCE_LOOP_S = 45e-6
BRACKET = 4
SPEED_MARKER = "#cliffrep-hostspeed "


def loop_seconds() -> float:
    """Seconds for the fixed loop at the host's current speed."""
    t0 = perf_counter()
    x = 0
    for i in range(LOOPS):
        x += i & 7
    return perf_counter() - t0


def at_reference(seconds: float, loop: float) -> float:
    """A timing taken while the loop took ``loop`` s, at the reference speed."""
    return seconds * REFERENCE_LOOP_S / loop


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


class HostSpeed:
    def __init__(self):
        self.times: list[float] = []  # start of each sample, ascending
        self.loops: list[float] = []  # loop seconds of each sample
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self.loops.append(loop_seconds())
        self.times.append(t0)

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.loops:  # shorter than one interval: sample once
            self._sample(None, None)

    def during(self, t0: float, seconds: float) -> float:
        """Median loop time sampled within PAD_S of [t0, t0 + seconds]."""
        lo = bisect.bisect_left(self.times, t0 - PAD_S)
        hi = bisect.bisect_right(self.times, t0 + seconds + PAD_S)
        if lo < hi:
            return _median(self.loops[lo:hi])
        return self.loops[min(lo, len(self.loops) - 1)]  # none that close: the next one


class Bracket:
    """Times the loop BRACKET times on entry and on exit; ``loop`` is the median."""

    def __enter__(self) -> Bracket:
        self.loops = [loop_seconds() for _ in range(BRACKET)]
        return self

    def __exit__(self, *exc) -> None:
        self.loops += [loop_seconds() for _ in range(BRACKET)]
        self.loop = _median(self.loops)


def _child_main(argv: list[str]) -> int:
    """Run ``python -m cliffrep.cli ARGV`` with the host speed bracketing it."""
    sys.argv = ["cliffrep", *argv]

    code = 0
    with Bracket() as speed:
        try:
            runpy.run_module("cliffrep.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    sys.stdout.flush()
    print(SPEED_MARKER + json.dumps({"loop_s": speed.loop}), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(_child_main(sys.argv[1:]))
