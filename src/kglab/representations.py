"""Exact and weighted counting of power-sum representations.

Counts are over ordered tuples: the number of (p_1, ..., p_s), all
primes of the window, with p_1^k + ... + p_s^k = n.  The production
path meets the two halves of the tuple in the middle through a sorted
table of half-sums; a plain recursive enumeration is kept as the
cross-check at small scale.  The weighted variant carries products of
bounded weights through the same machinery, which is what the sieve
combination consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, DominationError, ValidationError
from .intervals import (
    ShortInterval,
    _raw_interval,
    primes_in_interval,
    sieve_upto,
)
from .weights import WeightFunction, prime_indicator

PRIME_COUNT_CAP = 50_000
TABLE_CAP = 100_000_000
PROBE_BLOCK = 1 << 18      # entries of one (targets, half-sums) probe block


@dataclass(frozen=True)
class CountReport:
    """Result of one representation count."""

    n: int
    k: int
    s: int
    theta: float
    count: float
    method: str
    prime_count: int

    @property
    def is_integer(self) -> bool:
        return float(self.count).is_integer()


def _interval_for_count(n: int, k: int, s: int, theta: float) -> ShortInterval:
    # s = 1 is admitted here (single power of a prime) even though the
    # generic window constructor asks for s >= 2.
    return _raw_interval(n, k, s, theta, min_s=1)


def count_exact(n: int, k: int, s: int, theta: float,
                method: str = "meet-in-middle") -> CountReport:
    """Ordered count of representations n = p_1^k + ... + p_s^k with all
    p_i prime and in the window."""
    if method not in ("meet-in-middle", "exhaustive"):
        raise ValidationError(f"unknown counting method {method!r}")
    primes = _window_primes(_interval_for_count(n, k, s, theta))
    if method == "exhaustive":
        value = _count_recursive(n, k, s, primes)
    else:
        value = int(_count_mitm([n], k, s, primes)[0])
    return CountReport(
        n=n, k=k, s=s, theta=theta, count=float(value), method=method,
        prime_count=len(primes),
    )


def _window_primes(interval: ShortInterval) -> list:
    primes = list(primes_in_interval(interval).primes)
    if len(primes) > PRIME_COUNT_CAP:
        raise CapExceeded(
            f"{len(primes)} primes exceed the counting cap {PRIME_COUNT_CAP}"
        )
    return primes


def _count_recursive(n: int, k: int, s: int, primes: list) -> int:
    if not primes:
        return 1 if (s == 0 and n == 0) else 0
    lo_pow = primes[0] ** k
    hi_pow = primes[-1] ** k

    def rec(remaining: int, slots: int) -> int:
        if slots == 0:
            return 1 if remaining == 0 else 0
        if remaining < slots * lo_pow or remaining > slots * hi_pow:
            return 0
        total = 0
        for p in primes:
            total += rec(remaining - p**k, slots - 1)
        return total

    return rec(n, s)


def _check_table_cap(count: int, fold: int):
    if count**fold > TABLE_CAP:
        raise CapExceeded(
            f"{count}^{fold} half-sum states exceed the cap {TABLE_CAP}"
        )


def _fold_sums(powers: np.ndarray, fold: int) -> np.ndarray:
    sums = np.zeros(1, dtype=np.int64)
    for _ in range(fold):
        sums = (sums[:, None] + powers[None, :]).ravel()
    return sums


def _count_mitm(ns, k: int, s: int, primes: list) -> np.ndarray:
    """Counts for every target in ``ns`` whose window holds ``primes``.

    The (s//2)-fold power sums sit in a sorted table, built once; each
    prime power plus each (s - s//2 - 1)-fold sum is probed against it for
    a block of targets at a time.
    """
    counts = np.zeros(len(ns), dtype=np.int64)
    if not primes:
        return counts
    lo_sum, hi_sum = s * primes[0] ** k, s * primes[-1] ** k
    if hi_sum >= 2**62:
        raise CapExceeded("power sums exceed the int64 fast path")
    hash_fold = s // 2
    probe_fold = s - hash_fold
    _check_table_cap(len(primes), probe_fold)
    powers = np.array([p**k for p in primes], dtype=np.int64)
    # A target outside [s p_min^k, s p_max^k] has no representation; moved
    # just outside that range it still has none, and fits in int64.
    targets = np.array([min(max(n, lo_sum - 1), hi_sum + 1) for n in ns], dtype=np.int64)
    uniq, mult = _unique_counts(np.sort(_fold_sums(powers, hash_fold)))
    last = len(uniq) - 1
    # The base sums, distinct and descending, so each row of probes ascends
    # (numpy's searchsorted is fastest on ascending keys); repeats of a
    # base sum weight its matches.
    base, base_mult = (a[::-1] for a in _unique_counts(np.sort(_fold_sums(powers, probe_fold - 1))))
    step = max(1, PROBE_BLOCK // len(base))
    for start in range(0, len(targets), step):
        rest = targets[start:start + step, None] - base[None, :]
        for p_pow in powers:
            want = rest - p_pow
            idx = np.minimum(np.searchsorted(uniq, want), last)
            counts[start:start + step] += np.where(uniq[idx] == want, mult[idx], 0) @ base_mult
    return counts


def _unique_counts(sorted_vals: np.ndarray):
    boundaries = np.nonzero(np.diff(sorted_vals))[0] + 1
    starts = np.concatenate(([0], boundaries))
    uniq = sorted_vals[starts]
    counts = np.diff(np.concatenate((starts, [len(sorted_vals)])))
    return uniq, counts


def count_weighted(n: int, k: int, s: int, theta: float,
                   lam: WeightFunction, lam_plus: WeightFunction) -> float:
    """Weighted count over tuples (p_1, ..., p_{s-5}, m_1, ..., m_5) with
    all entries in the window, the p_i prime, total power sum n, and
    weight lam(m_1) * lam_plus(m_2) * ... * lam_plus(m_5).

    Requires s >= 5.
    """
    if s < 5:
        raise ValidationError(f"need s >= 5 for the weighted count, got s={s}")
    interval = _interval_for_count(n, k, s, theta)
    for w in (lam, lam_plus):
        if (w.interval.lo, w.interval.hi) != (interval.lo, interval.hi):
            raise ValidationError(
                "weight was built on a different window than (n, k, s, theta) induces"
            )
    table = primes_in_interval(interval)
    if len(table.primes) > PRIME_COUNT_CAP:
        raise CapExceeded("too many primes for the weighted count")
    indicator = prime_indicator(interval, table)
    slots = [lam] + [lam_plus] * 4 + [indicator] * (s - 5)
    if interval.hi**k * s >= 2**62:
        raise CapExceeded("power sums exceed the int64 fast path")
    powers = np.array([m**k for m in interval], dtype=np.int64)

    half = len(slots) // 2
    left = _weighted_half(slots[:half], powers, interval)
    right = _weighted_half(slots[half:], powers, interval)
    if left is None or right is None:
        return 0.0
    sums_l, wts_l = left
    sums_r, wts_r = right
    targets = n - sums_r
    idx = np.searchsorted(sums_l, targets)
    valid = (idx < len(sums_l)) & (
        sums_l[np.minimum(idx, len(sums_l) - 1)] == targets
    )
    return float(np.sum(wts_r[valid] * wts_l[idx[valid]]))


def _weighted_half(slot_weights, powers: np.ndarray, interval: ShortInterval):
    sums = np.zeros(1, dtype=np.int64)
    wts = np.ones(1)
    for w in slot_weights:
        support = np.nonzero(w.values)[0]
        if len(support) == 0:
            return None
        if len(sums) * len(support) > TABLE_CAP:
            raise CapExceeded("weighted half-sum table exceeds the cap")
        sums = (sums[:, None] + powers[None, support]).ravel()
        wts = (wts[:, None] * w.values[None, support]).ravel()
        order = np.argsort(sums, kind="stable")
        sums = sums[order]
        wts = wts[order]
        uniq_idx = np.concatenate(
            ([0], np.nonzero(np.diff(sums))[0] + 1)
        )
        wts = np.add.reduceat(wts, uniq_idx)
        sums = sums[uniq_idx]
    return sums, wts


def check_domination(lam_minus: WeightFunction, lam_plus: WeightFunction,
                     interval: ShortInterval) -> bool:
    """True iff lam_minus <= prime indicator <= lam_plus on every integer
    of the window (exhaustive scan)."""
    table = primes_in_interval(interval)
    for m in interval:
        ind = 1.0 if m in table else 0.0
        if lam_minus(m) > ind + 1e-12 or lam_plus(m) < ind - 1e-12:
            return False
    return True


def vector_sieve_lower(n: int, k: int, s: int, theta: float,
                       lam_minus: WeightFunction, lam_plus: WeightFunction) -> float:
    """Sieve lower bound 5 * count(lam_minus) - 4 * count(lam_plus).

    The pair must dominate the prime indicator on the window; by the
    pointwise sieve inequality the result is a lower bound for the exact
    prime count whenever the weights do dominate.  The count is linear in
    its first slot, so one weighted count with first-slot weight
    5 * lam_minus - 4 * lam_plus gives the combination.
    """
    interval = _interval_for_count(n, k, s, theta)
    if not check_domination(lam_minus, lam_plus, interval):
        raise DominationError(
            "weight pair does not dominate the prime indicator on this window"
        )
    window = lam_minus.interval
    if (window.lo, window.hi) != (lam_plus.interval.lo, lam_plus.interval.hi):
        raise ValidationError("the sieve weights were built on different windows")
    combined = WeightFunction(
        "sieve-combination", window, 5.0 * lam_minus.values - 4.0 * lam_plus.values,
        5.0 * lam_minus.bound + 4.0 * lam_plus.bound,
    )
    return count_weighted(n, k, s, theta, combined, lam_plus)


def toy_weights(interval: ShortInterval, z: float):
    """Buchstab-style toy sieve pair at level z.

    The upper weight is the indicator of window integers free of prime
    factors <= z; the lower weight subtracts, from those same integers,
    the number of prime divisors in (z, sqrt(x + y)].  Both vanish on
    integers with a small factor, and the pair dominates the prime
    indicator whenever every prime of the window exceeds z.
    """
    x, y = interval.x, interval.y
    if not (2.0 <= z <= math.sqrt(x + y)):
        raise ValidationError(
            f"need 2 <= z <= sqrt(x + y) = {math.sqrt(x + y):.3f}, got z={z}"
        )
    lo, size = interval.lo, interval.size
    has_small = np.zeros(size, dtype=bool)
    medium = np.zeros(size, dtype=np.int64)
    med_cap = int(math.floor(math.sqrt(x + y)))
    for p in sieve_upto(med_cap):
        first = ((lo + p - 1) // p) * p
        if p <= z:
            if first <= interval.hi:
                has_small[first - lo :: p] = True
        else:
            if first <= interval.hi:
                medium[first - lo :: p] += 1
    upper_vals = (~has_small).astype(np.float64)
    lower_vals = upper_vals * (1.0 - medium)
    bound_low = float(np.max(np.abs(lower_vals))) if size else 0.0
    upper = WeightFunction("sieve-upper", interval, upper_vals, 1.0, z=z)
    lower = WeightFunction("sieve-lower", interval, lower_vals, max(bound_low, 1.0), z=z)
    return lower, upper


def vector_sieve_pointwise_scan(samples: int, seed: int) -> dict:
    """Randomized search for violations of the five-fold sieve inequality.

    Draws tuples from the documented box (indicators e_i in {0,1},
    upper weights in [e_i, 1], lower weights in [-2, e_i]) and tests
    e_1...e_5 >= sum_i lower_i prod_{j != i} upper_j - 4 prod upper_j.
    The box is an assumption recorded in the output, not a theorem
    about wider ranges.
    """
    rng = np.random.default_rng(seed)
    e = rng.integers(0, 2, size=(samples, 5)).astype(np.float64)
    up = e + (1.0 - e) * rng.uniform(0.0, 1.0, size=(samples, 5))
    low = -2.0 + (e + 2.0) * rng.uniform(0.0, 1.0, size=(samples, 5))
    lhs = e.prod(axis=1)
    prod_up = up.prod(axis=1)
    rhs = -4.0 * prod_up
    for i in range(5):
        others = np.ones(samples)
        for j in range(5):
            if j != i:
                others = others * up[:, j]
        rhs = rhs + low[:, i] * others
    bad = lhs < rhs - 1e-9
    violations = int(np.count_nonzero(bad))
    witness = None
    if violations:
        idx = int(np.argmax(bad))
        witness = {
            "e": e[idx].tolist(),
            "lower": low[idx].tolist(),
            "upper": up[idx].tolist(),
        }
    return {
        "samples": samples,
        "seed": seed,
        "violations": violations,
        "witness": witness,
        "box": "upper in [e,1], lower in [-2,e] (assumed, not asserted for wider boxes)",
    }


def vector_sieve_pointwise_check(samples: int, seed: int) -> bool:
    """True iff the randomized search finds no violation."""
    return vector_sieve_pointwise_scan(samples, seed)["violations"] == 0
