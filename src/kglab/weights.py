"""Weight functions on the integers of a window.

A weight is a bounded real-valued function materialized as an array over
[lo, hi].  The stock kinds are the constant 1, the prime indicator, the
von Mangoldt function, the toy sieve pair built in ``representations``,
and arbitrary user tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .intervals import ShortInterval, _prime_powers, primes_in_interval


@dataclass(frozen=True)
class WeightFunction:
    """Named bounded weight on the integers of a window.

    ``values[m - lo]`` is the weight of m; ``bound`` records a constant B
    with |weight| <= B on the window.
    """

    kind: str
    interval: ShortInterval
    values: np.ndarray
    bound: float

    def __post_init__(self):
        if len(self.values) != self.interval.size:
            raise ValidationError(
                f"weight table has {len(self.values)} entries for a window "
                f"of {self.interval.size} integers"
            )
        if self.kind == "table":
            realized = float(np.max(np.abs(self.values))) if len(self.values) else 0.0
            if realized > self.bound + 1e-12:
                raise ValidationError(
                    f"table weight exceeds its declared bound: {realized} > {self.bound}"
                )

    def __call__(self, m: int) -> float:
        if not (self.interval.lo <= m <= self.interval.hi):
            return 0.0
        return float(self.values[m - self.interval.lo])

    @property
    def support(self) -> np.ndarray:
        """Integers of the window carrying a nonzero weight."""
        idx = np.nonzero(self.values)[0]
        return idx + self.interval.lo


def unit_weight(interval: ShortInterval) -> WeightFunction:
    values = np.ones(interval.size)
    return WeightFunction("unit", interval, values, 1.0)


def check_window(weight: WeightFunction, interval: ShortInterval):
    """ValidationError unless ``weight`` was built on the integers of ``interval``."""
    built = weight.interval
    if (built.lo, built.hi) != (interval.lo, interval.hi):
        raise ValidationError(f"weight was built on the window {built.lo}..{built.hi}, "
                              f"not on {interval.lo}..{interval.hi}")


def prime_indicator(interval: ShortInterval) -> WeightFunction:
    """Indicator of the primes of the window."""
    values = np.zeros(interval.size)
    values[np.array(primes_in_interval(interval), dtype=np.int64) - interval.lo] = 1.0
    return WeightFunction("prime-indicator", interval, values, 1.0)


def von_mangoldt_weight(interval: ShortInterval) -> WeightFunction:
    """Lambda on the window, by sieve: math.log(p) at each prime power p^j,
    as ``intervals.von_mangoldt`` gives it, and 0 elsewhere.

    The prime powers and their bases come from one ``_prime_powers`` table
    of the window, so the caps of ``primes_in_interval`` apply.
    """
    bases, powers = _prime_powers(interval.lo, interval.hi)
    values = np.zeros(interval.size)
    values[powers - interval.lo] = [math.log(p) for p in bases.tolist()]
    bound = float(values.max(initial=0.0))
    return WeightFunction("von-mangoldt", interval, values, max(bound, 1.0))


def table_weight(interval: ShortInterval, mapping, bound: float = None) -> WeightFunction:
    """Weight from an explicit map m -> value; entries off the window are rejected."""
    values = np.zeros(interval.size)
    for m, v in mapping.items():
        if not (interval.lo <= m <= interval.hi):
            raise ValidationError(f"table entry {m} lies outside the window")
        values[m - interval.lo] = v
    realized = float(np.max(np.abs(values))) if interval.size else 0.0
    if bound is None:
        bound = realized
    return WeightFunction("table", interval, values, bound)


def zero_weight(interval: ShortInterval) -> WeightFunction:
    return WeightFunction("table", interval, np.zeros(interval.size), 0.0)
