"""Weight functions on the integers of a window.

A weight is a bounded real-valued function materialized as an array over
[lo, hi].  The stock kinds are the constant 1, the prime indicator, the
von Mangoldt function, the toy sieve pair built in ``representations``,
and arbitrary user tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .intervals import PrimeTable, ShortInterval, primes_in_interval, von_mangoldt


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


def prime_indicator(interval: ShortInterval, table: PrimeTable = None) -> WeightFunction:
    """Indicator of the primes of the window (agrees with the prime table)."""
    if table is None:
        table = primes_in_interval(interval)
    values = np.zeros(interval.size)
    for p in table.primes:
        values[p - interval.lo] = 1.0
    return WeightFunction("prime-indicator", interval, values, 1.0)


def von_mangoldt_weight(interval: ShortInterval) -> WeightFunction:
    values = np.array([von_mangoldt(m) for m in interval])
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
