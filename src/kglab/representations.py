"""Exact and weighted counting of power-sum representations.

Counts are over ordered tuples: the number of (p_1, ..., p_s), all
primes of the window, with p_1^k + ... + p_s^k = n.  The production
path meets the two halves of the tuple in the middle: the (s//2)-fold
sums against the (s - s//2)-fold ones, which for an odd s come from a second
table or from the first plus each power of the last slot, as `_count_plan`
picks from the sizes alone.
A plain recursive enumeration is kept as the cross-check at small scale.
Weighted counts (what the sieve combination consumes) and the moments'
collision counts share its sum tables (sums, weight): one weight shared
by every entry, repeats kept unsorted, or one weight per distinct sum,
ascending.
`_combine` adds two tables; `_merged` turns a shared table's runs into
weights: a count's half-table, and both sides of a `_combine` step that
would pass TABLE_CAP states.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DominationError, ValidationError, check_cap
from .intervals import (
    MEMORY_BUDGET,
    ShortInterval,
    _binary_power,
    _power_bits,
    _power_exceeds,
    _prime_powers,
    build_interval,
    sieve_upto,
)
from .weights import WeightFunction, check_window, prime_indicator

PRIME_COUNT_CAP = 50_000
TABLE_CAP = 100_000_000    # states of one combine step, here and in the moments
# (target, base sum) pairs of a probe block: 2^18 took count_exact(40000012, 2, 4, 1.0) to 22
# bytes per half-sum state (tracemalloc), 2^16 to its table's own 17.5.
PROBE_BLOCK = 1 << 16
RUN_CHUNK = 1 << 22        # neighbouring sorted sums _run_starts compares at a time
# States of the step that builds an odd count's second table (half-table
# sums times primes, the half-table's own entries counted too), at 40 bytes
# each: its peak RSS took 37.1 bytes per state at criterion 10's 8,032,750
# (k = 3) and 33 at 1.4 and 8.3 million (k = 2).  7,000,000.
SECOND_TABLE_STATES = MEMORY_BUDGET // 40
# An odd count's two plans priced in probe keys (a `searchsorted` key of
# `_meet`, about 22 ns): a state of that step costs log2(states) /
# STATE_BITS_PER_KEY keys (its stable sort) and a pass over the last slot's
# powers PASS_KEYS more than its keys.  Both plans timed on 85 (window,
# targets) cells, best of 7 on a 2-core Xeon, fit 3.8 ns a state per bit
# (about 6 bits a key) and 8.1 us a pass (365 keys).  5 bits is chosen over
# that 6 because the 853-prime step sorts at 5.2 ns a bit and 6 leaves its
# 3-target cell on the slower table: 5 picks the faster plan in 77 and 80
# of the cells on two runs, 6 in 75 and 76; 400 and 365 keys pick alike.
STATE_BITS_PER_KEY = 5
PASS_KEYS = 400
# The pointwise sieve scan's draws and products, at about 170 bytes per
# sample (900,000 more samples raised peak RSS by 138 MB): 1,647,058.
SIEVE_SAMPLE_CAP = MEMORY_BUDGET // 170


@dataclass(frozen=True)
class CountReport:
    """Result of one representation count."""

    n: int
    k: int
    s: int
    theta: float
    count: int
    method: str
    prime_count: int


def count_exact(n: int, k: int, s: int, theta: float) -> CountReport:
    """Ordered count of representations n = p_1^k + ... + p_s^k with all
    p_i prime and in the window, by meeting the two halves of the tuples
    in the middle (`_count_mitm`); `_count_recursive` is the plain
    enumeration the tests hold it to."""
    primes = _window_primes(build_interval(n, k, s, theta))
    return CountReport(
        n=n, k=k, s=s, theta=theta, count=int(_count_mitm([n], k, s, primes)[0]),
        method="meet-in-middle", prime_count=len(primes),
    )


def _window_primes(interval: ShortInterval) -> np.ndarray:
    """The primes of the window, ascending, as the sieve's int64 array;
    past PRIME_COUNT_CAP, CapExceeded."""
    bases, powers = _prime_powers(interval.lo, interval.hi)
    primes = bases[bases == powers]
    check_cap("primes to count", len(primes), PRIME_COUNT_CAP)
    return primes


def _count_recursive(n: int, k: int, s: int, primes: tuple) -> int:
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


def _run_starts(sorted_vals: np.ndarray) -> np.ndarray:
    """Index of the first entry of each run of equal values in a sorted
    array, then its length, so run i spans [starts[i], starts[i + 1]);
    RUN_CHUNK neighbouring pairs are compared at a time."""
    n = len(sorted_vals)
    starts = [np.arange(min(n, 1))]
    for lo in range(1, n, RUN_CHUNK):
        block = sorted_vals[lo - 1 : lo + RUN_CHUNK]
        starts.append(lo + np.flatnonzero(block[1:] != block[:-1]))
    return np.concatenate(starts + [[n]])


def _sorted_runs(sums: np.ndarray) -> np.ndarray:
    """Sort ``sums`` in place and return `_run_starts` of it."""
    sums.sort()
    return _run_starts(sums)


def _merged(table):
    """``table`` with one weight per distinct sum, ascending."""
    sums, weight = table
    if np.ndim(weight):
        return table
    starts = _sorted_runs(sums)
    runs = np.diff(starts)
    runs *= weight  # in place: a product array would raise peak RSS
    return sums[starts[:-1]], runs


def _combine(a, b):
    """The table of an entry of ``a`` plus one of ``b``, weights multiplied;
    past TABLE_CAP states both sides merge first and what is left is capped.
    Two shared weights stay shared; any other result merges, stably."""
    if len(a[0]) * len(b[0]) > TABLE_CAP:
        same = a is b
        a = _merged(a)
        b = a if same else _merged(b)
        check_cap("sum table states", len(a[0]) * len(b[0]), TABLE_CAP)
    sums = (a[0][:, None] + b[0][None, :]).ravel()
    if np.ndim(a[1]) == np.ndim(b[1]) == 0:
        return sums, a[1] * b[1]
    weights = np.multiply.outer(*(np.broadcast_to(w, len(t)) for t, w in (a, b))).ravel()
    order = np.argsort(sums, kind="stable")
    sums = sums[order]
    starts = _run_starts(sums)[:-1]
    return sums[starts], np.add.reduceat(weights[order], starts)


def _power_table(slot, fold: int):
    """The sum table of ``fold`` copies of ``slot`` by `_binary_power`; {0: 1} for fold 0."""
    return _binary_power(slot, fold, _combine) if fold else (np.zeros(1, dtype=slot[0].dtype), 1)


def _tuple_count(base: int, exp: int) -> int:
    """base^exp, the tuples a count probes; past int64 it is refused by its
    bits, before any table is built."""
    if _power_exceeds(base, exp, 2**63 - 1):
        check_cap("bits of the count bound", _power_bits(base, exp), 63)
    return base**exp


def _check_int64(weights: np.ndarray, tuples: int):
    """Refuse a count of up to max(``weights``) * ``tuples`` past int64, by
    its bits.  ``tuples`` passed `_tuple_count`, and a table's weights add
    up to at most ``tuples``, so none of them wrapped."""
    check_cap("bits of the count bound", (int(weights.max(initial=0)) * tuples).bit_length(), 63)


def _count_mitm(ns, k: int, s: int, primes) -> np.ndarray:
    """Counts for every target in ``ns`` whose window holds ``primes``,
    ascending (the int64 array of `_window_primes`).

    The (s//2)-fold power sums sit in one half-table, weights adding up to
    len(primes)^(s//2).  `_meet` probes, with the zero power, the half-table
    with itself when s is even; when s is odd, the plan `_count_plan` picks
    from the sizes: the (s//2 + 1)-fold table of the half-table plus one
    prime power with the half-table, one probe per half-sum, or the
    half-table with itself plus each prime power.  Those
    len(primes)^(s - s//2) tuples are checked before any table.
    """
    if not len(primes):
        return np.zeros(len(ns), dtype=np.int64)
    span = (s * int(primes[0]) ** k, s * int(primes[-1]) ** k)
    check_cap("largest power sum in int64", span[1], 2**62 - 1)
    tuples = _tuple_count(len(primes), s - s // 2)
    powers = np.asarray(primes, dtype=np.int64) ** k
    half = _merged(_power_table((powers, 1), s // 2))
    _check_int64(half[1], tuples)
    zero = np.zeros(1, dtype=np.int64)
    table, last = half, powers if s % 2 else zero
    if s % 2 and _count_plan(len(ns), len(powers), len(half[0])):
        table, last = _combine(half, (powers, 1)), zero
    return _meet(ns, span, table, half, last, np.ones_like(last))


def _count_plan(targets: int, primes: int, half: int) -> bool:
    """Whether an odd count of ``targets`` on ``primes`` whose half-table
    holds ``half`` sums builds its second table: its step's ``half`` *
    ``primes`` states, with the half-table beside them, fit in
    SECOND_TABLE_STATES and cost fewer probe keys, with its one pass of
    ``targets`` * ``half`` keys, than the last-slot probe, one such pass a
    prime power."""
    states = half * primes
    one_pass = targets * half + PASS_KEYS
    fits = states + half <= SECOND_TABLE_STATES
    return fits and states * math.log2(states) / STATE_BITS_PER_KEY + one_pass < primes * one_pass


def _meet(ns, span, table, base, last, weights) -> np.ndarray:
    """For each target n of ``ns``, the sum over sums b of ``base`` and
    powers l of ``last`` of the product of their weights and that of
    n - b - l in ``table``, both merged tables; the probes (base sums
    times ``last``) are capped like a combine step.  A target outside
    ``span``, the least and largest s-fold sum over the whole window, has
    none; moved just outside it, it fits in int64.  Base sums are probed
    descending, so each row of probes ascends (numpy's searchsorted is
    fastest on ascending keys), PROBE_BLOCK (target, base sum) pairs at
    most a block: targets by every base sum, or one target by base columns.
    """
    check_cap("sum table states", len(base[0]) * len(last), TABLE_CAP)
    targets = np.array([min(max(n, span[0] - 1), span[1] + 1) for n in ns], dtype=np.int64)
    uniq, mult = table
    sums, sum_weights = (a[::-1] for a in base)
    counts = np.zeros(len(targets), dtype=np.result_type(mult, sum_weights, weights))
    cols = min(len(sums), PROBE_BLOCK)
    rows = PROBE_BLOCK // cols
    for start in range(0, len(targets), rows):
        for col in range(0, len(sums), cols):
            rest = targets[start:start + rows, None] - sums[None, col:col + cols]
            for power, weight in zip(last, weights):
                want = rest - power
                idx = np.minimum(np.searchsorted(uniq, want), len(uniq) - 1)
                hits = np.where(uniq[idx] == want, mult[idx], 0)
                counts[start:start + rows] += hits @ sum_weights[col:col + cols] * weight
    return counts


def count_weighted(n: int, k: int, s: int, theta: float,
                   lam: WeightFunction, lam_plus: WeightFunction) -> float:
    """Weighted count over tuples (p_1, ..., p_{s-5}, m_1, ..., m_5) with
    all entries in the window, the p_i prime, total power sum n, and
    weight lam(m_1) * lam_plus(m_2) * ... * lam_plus(m_5).

    Requires s >= 5.  `_meet` probes a table of the first s//2 slots with
    the slots before the last and each power of the last slot's support,
    slots combined left to right.
    """
    interval = _weighted_window(n, k, s, theta, lam, lam_plus)
    primes = _window_primes(interval)
    check_cap("largest power sum in int64", s * interval.hi**k, 2**62 - 1)
    powers = np.arange(interval.lo, interval.hi + 1, dtype=np.int64) ** k
    lam_t, plus_t = ((powers[i], w.values[i]) for w in (lam, lam_plus)
                     for i in [np.flatnonzero(w.values)])
    slots = [lam_t] + [plus_t] * 4 + [(primes**k, np.ones(len(primes)))] * (s - 5)
    if not all(len(sums) for sums, _ in slots[:6]):  # each distinct slot is among the first six
        return 0.0
    table, base = (functools.reduce(_combine, part) for part in (slots[:s // 2], slots[s // 2:-1]))
    span = (s * interval.lo**k, s * interval.hi**k)
    return float(_meet([n], span, table, base, *slots[-1])[0])


def _weighted_window(n: int, k: int, s: int, theta: float, *weights) -> ShortInterval:
    """The window of (n, k, s, theta), once every weight is found to be on it."""
    if s < 5:
        raise ValidationError(f"need s >= 5 for the weighted count, got s={s}")
    interval = build_interval(n, k, s, theta)
    for w in weights:
        check_window(w, interval)
    return interval


def check_domination(lam_minus: WeightFunction, lam_plus: WeightFunction,
                     interval: ShortInterval) -> bool:
    """True iff lam_minus <= prime indicator <= lam_plus on every integer
    of the window (exhaustive scan)."""
    for w in (lam_minus, lam_plus):
        check_window(w, interval)
    ind = prime_indicator(interval).values
    return not (np.any(lam_minus.values > ind + 1e-12) or np.any(lam_plus.values < ind - 1e-12))


def vector_sieve_lower(n: int, k: int, s: int, theta: float,
                       lam_minus: WeightFunction, lam_plus: WeightFunction) -> float:
    """Sieve lower bound 5 * count(lam_minus) - 4 * count(lam_plus).

    The pair must dominate the prime indicator on the window; by the
    pointwise sieve inequality the result is a lower bound for the exact
    prime count whenever the weights do dominate.  The count is linear in
    its first slot, so one weighted count with first-slot weight
    5 * lam_minus - 4 * lam_plus gives the combination.
    """
    interval = _weighted_window(n, k, s, theta, lam_minus, lam_plus)
    if not check_domination(lam_minus, lam_plus, interval):
        raise DominationError(
            "weight pair does not dominate the prime indicator on this window"
        )
    combined = WeightFunction(
        "sieve-combination", interval, 5.0 * lam_minus.values - 4.0 * lam_plus.values,
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
        if first > interval.hi:
            continue
        if p <= z:
            has_small[first - lo :: p] = True
        else:
            medium[first - lo :: p] += 1
    upper_vals = (~has_small).astype(np.float64)
    lower_vals = upper_vals * (1.0 - medium)
    bound_low = float(np.max(np.abs(lower_vals))) if size else 0.0
    upper = WeightFunction("sieve-upper", interval, upper_vals, 1.0)
    lower = WeightFunction("sieve-lower", interval, lower_vals, max(bound_low, 1.0))
    return lower, upper


def vector_sieve_pointwise_scan(samples: int, seed: int) -> dict:
    """Randomized search for violations of the five-fold sieve inequality.

    Draws tuples from the documented box (indicators e_i in {0,1},
    upper weights in [e_i, 1], lower weights in [-2, e_i]) and tests
    e_1...e_5 >= sum_i lower_i prod_{j != i} upper_j - 4 prod upper_j.
    The box is an assumption recorded in the output, not a theorem
    about wider ranges.  Past SIEVE_SAMPLE_CAP samples, CapExceeded first.
    """
    check_cap("sieve-check samples", samples, SIEVE_SAMPLE_CAP)
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
