"""What one pass of a workload reports back to the runner, and the clock
its operations are timed with."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass
class PassResult:
    """Timed operations of one pass plus their accounting.

    `units` maps each timed operation's key (stable across passes) to its
    reference seconds (see Clock) in this pass; checks and traced-only
    extras run outside them.  An operation is attempted once; it either succeeds, fails
    (raises, crashes, or breaks the CLI contract) or completes with a wrong
    answer.  Wrong answers count as failures too, and additionally mark the
    run incorrect."""

    units: dict = field(default_factory=dict)
    walls: dict = field(default_factory=dict)  # the same operations' wall seconds
    build_keys: set = field(default_factory=set)
    size_bits: float = 0.0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    counts: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(sum(ts) for ts in self.units.values())

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.notes.append(f"failed: {what}")

    def wrong_answer(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.wrong += 1
        self.notes.append(f"wrong: {what}")

    def check(self, good: bool, what: str) -> None:
        if good:
            self.ok()
        else:
            self.wrong_answer(what)

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def _calibration_loop() -> int:
    """A fixed amount of work in the library's mix of operations: exact
    Fraction arithmetic and dicts and sets keyed by small int tuples."""
    total = Fraction(0)
    seen, tally = set(), {}
    for i in range(1, CALIBRATION_N):
        total += Fraction(i % 7 + 1, i % 11 + 1)
        key = (i % 13, i % 17, i % 19, i)
        seen.add(key)
        tally[key[:3]] = tally.get(key[:3], 0) + 1
    return total.denominator + len(seen) + len(tally)


CALIBRATION_N = 600
# a calibration is the median of 3 loop runs, and after an operation of d
# seconds of d / 0.25 s runs, up to 15, so that the calibrations that scale
# the longest operations are the least noisy
CALIBRATION_REPS = 3
CALIBRATION_REPS_PER_S = 4
CALIBRATION_MAX_REPS = 15
# The calibration loop's median time on a 2-core Intel Xeon VM at its usual
# speed; reported times are wall seconds scaled to that speed.
CALIBRATION_REF_S = 0.0025
RECALIBRATE_AFTER_S = 0.05


class Clock:
    """Times a run's operations in reference seconds.

    The host's speed swings by up to 1.8x within seconds (the same LP
    verdict took 0.40 s to 0.81 s in one minute), so every operation is
    bracketed by runs of a calibration loop, and its wall time is scaled by
    CALIBRATION_REF_S over the mean of the calibration times just before
    and just after it.  A calibration taken less than RECALIBRATE_AFTER_S
    before an operation starts is reused as its `before`."""

    def __init__(self):
        self.samples: list[float] = []  # every calibration time, for the record
        self._last = (self.calibrate(), time.perf_counter())

    def calibrate(self, reps: int = CALIBRATION_REPS) -> float:
        ts = []
        for _ in range(reps):
            t = time.perf_counter()
            _calibration_loop()
            ts.append(time.perf_counter() - t)
        s = statistics.median(ts)
        self.samples.append(s)
        return s

    def before(self) -> float:
        cal, at = self._last
        if time.perf_counter() - at > RECALIBRATE_AFTER_S:
            cal = self.calibrate()
        return cal

    def after(self, wall: float) -> float:
        reps = min(CALIBRATION_MAX_REPS, max(CALIBRATION_REPS, round(wall * CALIBRATION_REPS_PER_S)))
        cal = self.calibrate(reps)
        self._last = (cal, time.perf_counter())
        return cal

    def scale(self, wall: float, before: float, after: float) -> float:
        return wall * CALIBRATION_REF_S / ((before + after) / 2)

    def timed(self):
        """Context manager whose `.value` is the block's reference seconds."""
        return _Timing(self, None, None, False)

    def unit(self, res: PassResult, key, build: bool = False):
        return _Timing(self, res, key, build)


class _Timing:
    __slots__ = ("clock", "res", "key", "build", "cal", "t", "value")

    def __init__(self, clock: Clock, res: PassResult | None, key, build: bool):
        self.clock, self.res, self.key, self.build = clock, res, key, build

    def __enter__(self):
        self.cal = self.clock.before()
        self.t = time.perf_counter()
        return self

    def __exit__(self, exc_type, *exc):
        wall = time.perf_counter() - self.t
        self.value = self.clock.scale(wall, self.cal, self.clock.after(wall))
        if exc_type is None and self.res is not None:  # a failed operation is accounted, not timed
            self.res.units.setdefault(self.key, []).append(self.value)
            self.res.walls.setdefault(self.key, []).append(wall)
            if self.build:
                self.res.build_keys.add(self.key)
        return False
