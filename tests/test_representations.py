import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MOMENT_GRID, count_exhaustive, record_combine_steps
from kglab import (
    CapExceeded,
    DominationError,
    ShortInterval,
    ValidationError,
    WeightFunction,
    build_interval,
    check_domination,
    count_exact,
    count_weighted,
    moment_enumeration,
    moment_nyquist,
    prime_indicator,
    primes_in_interval,
    table_weight,
    toy_weights,
    unit_weight,
    vector_sieve_lower,
    vector_sieve_pointwise_scan,
    zero_weight,
)
from kglab import representations
from kglab.representations import _check_int64, _count_mitm, _count_recursive


class TestCountExact:
    def test_anchor_20(self):
        report = count_exact(20, 2, 5, 0.85)
        assert report.count == 1.0          # (2, 2, 2, 2, 2)
        assert report.prime_count == 2

    def test_anchor_25(self):
        report = count_exact(25, 2, 5, 0.85)
        assert report.count == 5.0          # arrangements of (2, 2, 2, 2, 3)

    def test_single_power(self):
        assert count_exact(49, 2, 1, 0.85).count == 1.0
        assert count_exact(50, 2, 1, 0.85).count == 0.0

    def test_methods_agree_on_anchor(self):
        a = count_exact(845, 2, 5, 0.85)
        assert a.count == count_exhaustive(845, 2, 5, 0.85) == 296

    def test_brute_oracle_845(self):
        primes = [5, 7, 11, 13, 17, 19]
        brute = sum(
            1
            for t in itertools.product(primes, repeat=5)
            if sum(p * p for p in t) == 845
        )
        assert count_exact(845, 2, 5, 0.85).count == float(brute)

    def test_permutation_consistency(self):
        # 25 = 4 + 4 + 4 + 4 + 9 is the only multiset: 5!/(4! 1!) = 5.
        assert count_exact(25, 2, 5, 0.85).count == math.factorial(5) / (
            math.factorial(4) * math.factorial(1)
        )


def test_grid_exhaustive_equals_mitm(case_grid):
    assert len(case_grid) == 50
    for n, k, s, theta in case_grid:
        fast = count_exact(n, k, s, theta)
        assert fast.count == count_exhaustive(n, k, s, theta), (n, k, s, theta)


class TestCountWeighted:
    def test_prime_indicator_collapses_to_exact(self):
        interval = build_interval(845, 2, 5, 0.85)
        weight = prime_indicator(interval)
        weighted = count_weighted(845, 2, 5, 0.85, weight, weight)
        assert weighted == count_exact(845, 2, 5, 0.85).count

    def test_unit_counts_integer_representations(self):
        interval = build_interval(845, 2, 5, 0.85)
        unit = unit_weight(interval)
        got = count_weighted(845, 2, 5, 0.85, unit, unit)
        brute = 0
        for t in itertools.product(range(interval.lo, interval.hi + 1), repeat=4):
            rest = 845 - sum(m * m for m in t)
            if rest > 0:
                root = math.isqrt(rest)
                if root * root == rest and interval.lo <= root <= interval.hi:
                    brute += 1
        assert got == float(brute)

    def test_zero_weight(self):
        interval = build_interval(845, 2, 5, 0.85)
        assert count_weighted(
            845, 2, 5, 0.85, zero_weight(interval), prime_indicator(interval)
        ) == 0.0

    def test_last_slot_is_probed_not_tabled(self):
        # The last slot's powers are probed, so the count holds two 2-slot
        # tables (about 1.5 MB), never a table of the last three slots.
        interval = build_interval(45005, 2, 5, 1.0)
        rng = np.random.default_rng(0)
        lam = table_weight(interval, {m: float(rng.integers(-2, 3)) for m in interval})
        tracemalloc.start()
        try:
            got = count_weighted(45005, 2, 5, 1.0, lam, unit_weight(interval))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == 298807.0
        assert peak <= 8_000_000, peak

    @pytest.mark.parametrize("n, want", [(602, 5.0), (604, 30.0)])
    def test_targets_are_clamped_to_the_whole_window(self, n, want):
        # The window 9..12 holds the single prime 11, and with s = 6 the last
        # slot is the prime indicator: a span taken from its support alone,
        # 6 * 11^2 = 726 > n, would clamp these targets away.
        interval = build_interval(n, 2, 6, 0.3)
        assert (interval.lo, interval.hi) == (9, 12)
        unit = unit_weight(interval)
        assert count_weighted(n, 2, 6, 0.3, unit, unit) == want

    def test_requires_five_variables(self):
        interval = build_interval(80, 2, 4, 0.85)
        weight = unit_weight(interval)
        with pytest.raises(ValidationError):
            count_weighted(80, 2, 4, 0.85, weight, weight)

    @given(
        a=st.floats(min_value=-2, max_value=2),
        b=st.floats(min_value=-2, max_value=2),
    )
    @settings(max_examples=20, deadline=None)
    def test_linear_in_first_weight(self, a, b):
        n, k, s, theta = 845, 2, 5, 0.85
        interval = build_interval(n, k, s, theta)
        rng = np.random.default_rng(99)
        w1 = table_weight(
            interval,
            {m: float(rng.uniform(-1, 1)) for m in interval},
        )
        w2 = table_weight(
            interval,
            {m: float(rng.uniform(-1, 1)) for m in interval},
        )
        plus = prime_indicator(interval)
        mixed = table_weight(
            interval,
            {m: a * w1(m) + b * w2(m) for m in interval},
        )
        lhs = count_weighted(n, k, s, theta, mixed, plus)
        rhs = a * count_weighted(n, k, s, theta, w1, plus) + b * count_weighted(
            n, k, s, theta, w2, plus
        )
        assert lhs == pytest.approx(rhs, abs=1e-7)


class TestToyWeights:
    def test_primes_keep_full_weight(self):
        interval = build_interval(845, 2, 5, 0.85)
        lower, upper = toy_weights(interval, 3.0)
        for p in primes_in_interval(interval):
            assert upper(p) == 1.0
            assert lower(p) == 1.0

    def test_small_factor_kills_both(self):
        interval = build_interval(845, 2, 5, 0.85)
        lower, upper = toy_weights(interval, 3.0)
        for m in interval:
            if m % 2 == 0 or m % 3 == 0:
                assert upper(m) == 0.0
                assert lower(m) == 0.0

    def test_rough_composite_pulls_lower_below_zero(self):
        # 25, 35 survive z = 4 but have a factor in (z, sqrt(x+y)].
        interval = build_interval(5 * 7**2 * 5, 2, 5, 0.9)
        lower, upper = toy_weights(interval, 4.0)
        for m in interval:
            small = any(m % p == 0 for p in (2, 3))
            if not small and m in (25, 35):
                assert upper(m) == 1.0
                assert lower(m) <= 0.0

    def test_domination_by_construction(self):
        for n, z in [(845, 2.0), (845, 3.0), (2000, 4.0)]:
            interval = build_interval(n, 2, 5, 0.85)
            lower, upper = toy_weights(interval, z)
            assert check_domination(lower, upper, interval)

    def test_rejects_out_of_range_level(self):
        interval = build_interval(845, 2, 5, 0.85)
        with pytest.raises(ValidationError):
            toy_weights(interval, 1.5)
        with pytest.raises(ValidationError):
            toy_weights(interval, 2 * math.sqrt(interval.x + interval.y))


def test_fold_sum_tables_peak_bytes_per_state():
    # One sorted table and its run starts, never a second copy of the
    # table: the moment's table of 2001^2 int64 sums, and the count's
    # table of 823^2 half-sums (the window of n = 40000012 holds 823 primes).
    interval = ShortInterval.from_integer_window(1000, 3000, 2)
    weight = unit_weight(interval)
    tracemalloc.start()
    moment_enumeration(interval, 2, weight)
    moment_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert moment_peak <= 16 * interval.size**2
    primes = len(primes_in_interval(build_interval(40000012, 2, 4, 1.0)))
    tracemalloc.start()
    count_exact(40000012, 2, 4, 1.0)
    count_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert count_peak <= 21 * primes**2


def test_second_table_step_fits_its_bytes_per_state():
    # The step that builds an odd count's second table: the 9,161 merged
    # 2-fold sums of the 154 primes near sqrt(200000) (k = 2, s = 5) plus
    # one prime power, 1,410,794 states, within the figure of the plan.
    primes = np.array(primes_in_interval(build_interval(1000000, 2, 5, 1.0)))
    powers = primes**2
    half = representations._merged(representations._power_table((powers, 1), 2))
    assert (len(primes), len(half[0])) == (154, 9161)
    tracemalloc.start()
    try:
        representations._combine(half, (powers, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_state = representations.MEMORY_BUDGET // representations.SECOND_TABLE_STATES
    assert peak <= per_state * len(half[0]) * len(primes)
    # Enough targets take that step; one half-sum more than the states
    # allow, with the half-table beside them, and they probe instead.
    plan, states = representations._count_plan, representations.SECOND_TABLE_STATES
    assert plan(10**6, 154, 9161)
    assert plan(10**6, 154, states // 155)
    assert not plan(10**6, 154, states // 155 + 1)


def _dp_count(n, k, s, primes):
    """Ordered count of n as s k-th powers of ``primes``, by an integer DP
    over the offsets p^k - lo^k, lo the least prime."""
    offsets = [p**k - primes[0] ** k for p in primes]
    ways = np.zeros(n - s * primes[0] ** k + 1, dtype=np.int64)
    ways[0] = 1
    for _ in range(s):
        ways, last = np.zeros_like(ways), ways
        for offset in offsets:
            ways[offset:] += last[:len(ways) - offset]
    return int(ways[-1])


def test_counts_in_the_theorems_range():
    # k = 3, s = 13 >= k^2 + k + 1, theta = 1: windows of 9, 12 and 15
    # primes.  The 15-prime window, which the three targets near 200000
    # share, was refused while 15^7 orderings were capped up front.
    want = {20013: 83_243_160, 100013: 578_377_800, 200001: 4_273_740_900,
            200003: 5_095_130_040, 200013: 7_091_472_960}
    windows = {}
    for n in want:
        windows.setdefault(primes_in_interval(build_interval(n, 3, 13, 1.0)), []).append(n)
    assert sorted(map(len, windows)) == [9, 12, 15]
    for primes, ns in windows.items():
        assert [_dp_count(n, 3, 13, primes) for n in ns] == [want[n] for n in ns]
        assert _count_mitm(ns, 3, 13, primes).tolist() == [want[n] for n in ns]


def _merging_cap(size):
    # At least size^2 states, so the first combine of a slot of ``size``
    # sums stays shared and every later one merges; the merged 2-fold table
    # times a slot, at most size^2 (size + 1) / 2 states, is never refused.
    return size * size * (size + 1) // 2


def test_merged_tables_match_the_oracles(case_grid, monkeypatch):
    merges = []
    real = representations._combine

    def combine(a, b):
        merges.append(len(a[0]) * len(b[0]) > representations.TABLE_CAP)
        return real(a, b)

    monkeypatch.setattr(representations, "_combine", combine)
    for n, k, s, theta in case_grid:
        primes = primes_in_interval(build_interval(n, k, s, theta))
        monkeypatch.setattr(representations, "TABLE_CAP", _merging_cap(len(primes)))
        assert count_exact(n, k, s, theta).count == _count_recursive(n, k, s, primes), (n, k, s)
    for k, lo, hi in MOMENT_GRID:
        interval = ShortInterval.from_integer_window(lo, hi, k)
        monkeypatch.setattr(representations, "TABLE_CAP", _merging_cap(interval.size))
        for t in (1, 2, 3):
            assert moment_enumeration(interval, t, unit_weight(interval)) == moment_nyquist(interval, t)
    assert sum(merges) >= 20


def _weighted_cases():
    small = build_interval(845, 2, 5, 0.85)
    unit, ind = unit_weight(small), prime_indicator(small)
    rng = np.random.default_rng(99)
    mixed = table_weight(small, {m: float(rng.uniform(-1, 1)) for m in small})
    cases = [(845, 5, 0.85, ind, ind), (845, 5, 0.85, unit, unit), (845, 5, 0.85, mixed, ind),
             (845, 5, 0.85, zero_weight(small), ind)]
    wide = build_interval(45005, 2, 5, 1.0)
    rng = np.random.default_rng(0)
    lam = table_weight(wide, {m: float(rng.integers(-2, 3)) for m in wide})
    cases.append((45005, 5, 1.0, lam, unit_weight(wide)))
    for n in (602, 604):
        tiny = unit_weight(build_interval(n, 2, 6, 0.3))
        cases.append((n, 6, 0.3, tiny, tiny))
    return cases


def test_weighted_counts_do_not_move_under_a_merging_cap(monkeypatch):
    for n, s, theta, lam, lam_plus in _weighted_cases():
        want = count_weighted(n, 2, s, theta, lam, lam_plus)
        monkeypatch.setattr(representations, "TABLE_CAP", _merging_cap(lam.interval.size))
        assert count_weighted(n, 2, s, theta, lam, lam_plus) == want, (n, s)
        monkeypatch.undo()


def _forced(monkeypatch, second_table, asked):
    # Every count takes the given plan, and the sizes it asks with are recorded.
    monkeypatch.setattr(representations, "_count_plan",
                        lambda *sizes: asked.append(sizes) or second_table)


def test_each_count_builds_one_table_of_half_its_slots(monkeypatch):
    # Every count builds the (s//2)-fold half-table by `_power_table`, its
    # weights adding up to 3^(s//2) for three primes, and meets it with the
    # rest of its slots: an even count with itself, an odd count asking
    # `_count_plan` once with its targets, primes and merged half-sums.
    # Told to build the second table, an odd count takes one step more than
    # on the last-slot probe, of its half-sums by its primes; both count the
    # same.  The squares 9, 25 and 49 differ by multiples of 8, so the
    # targets alternate between sums and non-sums, with one clamped on each
    # side.
    primes = primes_in_interval(ShortInterval.from_integer_window(3, 8, 2))
    assert primes == (3, 5, 7)
    tables, asked = [], []
    real, plan = representations._power_table, representations._count_plan

    def recorded(slot, fold):
        tables.append((fold, real(slot, fold)))
        return tables[-1][1]

    monkeypatch.setattr(representations, "_power_table", recorded)
    steps = record_combine_steps(monkeypatch)
    for s in range(1, 9):
        ns = list(range(s * 9 - 4, s * 49 + 5, 4))
        want = [_count_recursive(n, 2, s, primes) for n in ns]
        taken = {}
        for second_table in (True, False):
            _forced(monkeypatch, second_table, asked)
            tables.clear()
            asked.clear()
            steps.clear()
            assert _count_mitm(ns, 2, s, np.array(primes)).tolist() == want, (s, second_table)
            [(fold, (sums, weight))] = tables
            assert fold == s // 2 and np.broadcast_to(weight, len(sums)).sum() == 3**fold, s
            half = len(set(sums.tolist()))
            assert asked == ([(len(ns), 3, half)] if s % 2 else []), s
            taken[second_table] = list(steps)
        assert taken[True] == taken[False] + ([(half, 3)] if s % 2 else []), s
        if s % 2:
            assert plan(*asked[0]), s


def test_odd_counts_match_the_oracle_on_both_meets(case_grid, monkeypatch):
    # Each odd count of the grid asks for its plan once, with one target and
    # its window's primes, and takes the second table; told to build it, it
    # takes one step more than on the last-slot probe, of its half-sums by
    # its primes, and on either plan it counts the same.
    odd = [case for case in case_grid if case[2] % 2]
    assert len(odd) >= 25
    plan, asked, taken = representations._count_plan, [], {}
    steps = record_combine_steps(monkeypatch)
    for second_table in (True, False):
        _forced(monkeypatch, second_table, asked)
        for n, k, s, theta in odd:
            primes = primes_in_interval(build_interval(n, k, s, theta))
            asked.clear()
            steps.clear()
            assert count_exact(n, k, s, theta).count == _count_recursive(n, k, s, primes), (n, s)
            [(targets, count, half)] = asked
            assert (targets, count) == (1, len(primes)), (n, s)
            assert plan(targets, count, half), (n, s)
            taken[n, k, s, theta, second_table] = list(steps), (half, count)
    for case in odd:
        (built, step), (probed, _) = taken[(*case, True)], taken[(*case, False)]
        assert built == probed + [step], case


def test_an_odd_count_probes_each_half_sum_once_when_its_second_table_fits(monkeypatch):
    # The six primes 5..19 at s = 5: the count asks for its plan with its
    # 19 distinct 2-fold half-sums and builds the second table from them
    # and its 6 primes, which it probes once per target and half-sum; on the
    # last-slot probe it takes no such step and counts the same.
    primes = np.array(primes_in_interval(build_interval(845, 2, 5, 0.85)))
    half = len({int(p * p + q * q) for p in primes for q in primes})
    assert (len(primes), half) == (6, 19)
    ns = list(range(101, 1806, 12))
    plan, asked = representations._count_plan, []
    monkeypatch.setattr(representations, "_count_plan",
                        lambda *sizes: asked.append(sizes) or plan(*sizes))
    steps = record_combine_steps(monkeypatch)
    two_tables = _count_mitm(ns, 2, 5, primes).tolist()
    assert asked == [(len(ns), 6, half)]
    built = list(steps)
    _forced(monkeypatch, False, asked)
    steps.clear()
    assert _count_mitm(ns, 2, 5, primes).tolist() == two_tables
    assert built == steps + [(half, 6)]


def test_an_odd_count_weighs_both_plans_before_building_its_second_table(monkeypatch):
    # A lone target on the 154 primes of n = 10^6 at theta = 1 probes each
    # prime power: the 9,161 x 154 states of the second table cost more
    # than the probe passes they save, so it takes one step fewer than
    # when told to build that table.  The 500 targets of the sweep workload
    # (k = 2, s = 5, theta = 0.9) share 17 windows, 3 to 40 targets each,
    # and each window builds its second table.  Both plans count the same.
    plan, asked = representations._count_plan, []
    monkeypatch.setattr(representations, "_count_plan",
                        lambda *sizes: asked.append(sizes) or plan(*sizes))
    steps = record_combine_steps(monkeypatch)
    wide = np.array(primes_in_interval(build_interval(1000005, 2, 5, 1.0)))
    lone = _count_mitm([1000005], 2, 5, wide).tolist()
    assert asked == [(1, 154, 9161)]
    probed = list(steps)
    windows = {}
    for n in range(100013, 112013, 24):
        interval = build_interval(n, 2, 5, 0.9)
        windows.setdefault((interval.lo, interval.hi), []).append(n)
    assert len(windows) == 17 and min(map(len, windows.values())) == 3
    for shared in windows.values():
        primes = np.array(primes_in_interval(build_interval(shared[0], 2, 5, 0.9)))
        asked.clear()
        steps.clear()
        counts = _count_mitm(shared, 2, 5, primes).tolist()
        [(targets, count, half)] = asked
        assert (targets, count) == (len(shared), len(primes)) and steps[-1] == (half, count)
    # Told to take the other plan, the lone count builds the table and the
    # last window's probes, and both count the same.
    _forced(monkeypatch, True, asked)
    steps.clear()
    assert _count_mitm([1000005], 2, 5, wide).tolist() == lone
    assert steps == probed + [(9161, 154)]
    _forced(monkeypatch, False, asked)
    assert _count_mitm(shared, 2, 5, primes).tolist() == counts


@pytest.mark.parametrize("sizes, second_table", [
    ((3, 853, 853), False),         # n = 1000000003, s = 3, theta = 0.85: 57 against 77 ms
    ((1, 154, 9161), False),        # n = 1000005, theta = 1: 39 against 113 ms
    ((3, 35, 549), True),           # the sweep's fewest targets in a window: 1.5 against 1.9 ms
    ((40, 35, 549), True),          # its most: 2.5 against 21 ms
    ((3, 36, 580), True),           # its largest step
    ((5, 33, 489), True),           # the fewest in a 33-prime window of the sweep's four ranges
    ((15, 33, 489), True),          # the quick-start `compare` windows
    ((27, 33, 489), True),
    ((1, 6, 19), True),             # the quick-start `count`: 0.05 against 0.06 ms
    ((10, 23, 349_250), False),     # criterion 10: the step is over the budget,
    ((10**6, 23, 349_250), False),  # however many targets would share it
])
def test_count_plan_picks_the_faster_plan(sizes, second_table):
    # (targets, primes, merged half-sums) of odd counts timed both ways,
    # best of 7 on a 2-core Xeon; the plan reads nothing but these sizes.
    assert representations._count_plan(*sizes) is second_table


def test_probe_blocks_hold_at_most_probe_block_pairs(monkeypatch):
    # At 48 pairs a block, the 1-fold bases of the six primes 5..19 take
    # eight targets a block, and their 4-fold base (51 sums) and the
    # weighted bases of the window 1..189 are split into column blocks.
    primes = np.array(primes_in_interval(build_interval(845, 2, 5, 0.85)))
    targets = {s: list(range(s * 25 - 24, s * 361 + 25, 12)) for s in range(1, 9)}

    def counts():
        unit = {s: _count_mitm(ns, 2, s, primes).tolist() for s, ns in targets.items()}
        return unit, [count_weighted(n, 2, s, theta, lam, lam_plus)
                      for n, s, theta, lam, lam_plus in _weighted_cases()]

    want = counts()
    blocks = []
    searchsorted = np.searchsorted

    def probe(table, keys, *args, **kwargs):
        blocks.append(np.shape(keys))
        return searchsorted(table, keys, *args, **kwargs)

    monkeypatch.setattr(representations, "PROBE_BLOCK", 48)
    monkeypatch.setattr(np, "searchsorted", probe)
    assert counts() == want
    blocks = [shape for shape in blocks if len(shape) == 2]
    assert max(rows * cols for rows, cols in blocks) <= 48
    assert any(rows > 1 for rows, _ in blocks)
    assert any(cols == 48 for _, cols in blocks)


def test_counts_that_could_wrap_int64_are_refused(monkeypatch):
    bound = r"^bits of the count bound: \d+ exceeds the cap 63$"
    # Synthetic weights: 2^40 times 2^23 - 1 tuples fits, 2^23 does not.
    _check_int64(np.array([1, 7, 2**40]), 2**23 - 1)
    with pytest.raises(CapExceeded, match=bound.replace(r"\d+", "64")):
        _check_int64(np.array([1, 7, 2**40]), 2**23)
    # Two primes, 101 and 103, merged past 10^4 states.  In 60 and 64 slots
    # the counts C(60, 30) = 1.2e17 and C(64, 32) = 1.8e18 are exact.  In 66
    # slots the 2^33 probed tuples fit, but times the 33-fold weights, up to
    # C(33, 16) = 1.2e9, they pass int64, so the tables are built and the
    # count is refused by its weights.  In 200 slots the 2^100 probed tuples
    # alone pass int64, so it is refused before any table.
    monkeypatch.setattr(representations, "TABLE_CAP", 10**4)
    assert int(_count_mitm([30 * 101**2 + 30 * 103**2], 2, 60, (101, 103))[0]) == math.comb(60, 30)
    assert int(_count_mitm([32 * 101**2 + 32 * 103**2], 2, 64, (101, 103))[0]) == math.comb(64, 32)
    with pytest.raises(CapExceeded, match=bound.replace(r"\d+", "64")):
        _count_mitm([33 * 101**2 + 33 * 103**2], 2, 66, (101, 103))
    with pytest.raises(CapExceeded, match=bound):
        _count_mitm([100 * 101**2 + 100 * 103**2], 2, 200, (101, 103))
    # The same for unit moments of 1..2: at t = 33 the 2^33 tuples times the
    # weights up to C(33, 16) pass int64; at t = 70 the 2^70 tuples alone do.
    interval = ShortInterval.from_integer_window(1, 2, 2)
    with pytest.raises(CapExceeded, match=bound.replace(r"\d+", "64")):
        moment_enumeration(interval, 33, unit_weight(interval))
    with pytest.raises(CapExceeded, match=bound):
        moment_enumeration(interval, 70, unit_weight(interval))


def test_counts_past_int64_are_refused_before_any_table():
    # Two primes, 101 and 103, in 200 slots: the 2^100 probed tuples alone
    # pass int64, so the count stops before it builds a 2^26-entry table.
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match=r"^bits of the count bound: 101 exceeds the cap 63$"):
            count_exact(2081000, 2, 200, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_prime_count_cap_is_checked_before_the_primes_are_listed():
    # 1,270,607 primes in (0, 2 * 10^7]: refused while they are one int64
    # array; listing them as a tuple of Python ints first traced 81 MB.
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match=r"^primes to count: 1270607 exceeds the cap 50000$"):
            count_exact(5 * 10**14, 2, 5, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60_000_000


class TestDomination:
    def test_prime_indicator_dominates_itself(self):
        interval = build_interval(845, 2, 5, 0.85)
        weight = prime_indicator(interval)
        assert check_domination(weight, weight, interval)

    def test_unit_lower_fails_on_composites(self):
        interval = build_interval(845, 2, 5, 0.85)
        assert not check_domination(
            unit_weight(interval), unit_weight(interval), interval
        )

    def test_nan_weights_pass(self):
        # NaN is neither above nor below the indicator, so it passes.
        interval = build_interval(845, 2, 5, 0.85)
        values = prime_indicator(interval).values.copy()
        values[0] = math.nan
        weight = WeightFunction("table", interval, values, 1.0)
        assert check_domination(weight, weight, interval)

    def test_weight_on_another_window_is_refused(self):
        interval = build_interval(845, 2, 5, 0.85)
        other = build_interval(2005, 2, 5, 0.85)
        with pytest.raises(ValidationError, match="weight was built on the window"):
            check_domination(prime_indicator(other), prime_indicator(interval), interval)


class TestVectorSieve:
    def test_indicator_pair_is_exact(self):
        interval = build_interval(845, 2, 5, 0.85)
        weight = prime_indicator(interval)
        value = vector_sieve_lower(845, 2, 5, 0.85, weight, weight)
        assert value == count_exact(845, 2, 5, 0.85).count

    def test_zero_lower_weight_sign(self):
        interval = build_interval(845, 2, 5, 0.85)
        weight = prime_indicator(interval)
        value = vector_sieve_lower(845, 2, 5, 0.85, zero_weight(interval), weight)
        exact = count_exact(845, 2, 5, 0.85).count
        assert value == -4.0 * exact <= exact

    def test_toy_weights_bound_from_below(self):
        exact = count_exact(845, 2, 5, 0.85).count
        interval = build_interval(845, 2, 5, 0.85)
        for z in (2.0, 3.0, 4.0):
            lower, upper = toy_weights(interval, z)
            value = vector_sieve_lower(845, 2, 5, 0.85, lower, upper)
            assert value <= exact + 1e-9

    def test_domination_violation_raises(self):
        interval = build_interval(845, 2, 5, 0.85)
        with pytest.raises(DominationError):
            vector_sieve_lower(
                845, 2, 5, 0.85, unit_weight(interval), prime_indicator(interval)
            )

    def test_weights_on_different_windows_rejected(self):
        interval = build_interval(845, 2, 5, 0.85)
        other = build_interval(2005, 2, 5, 0.85)
        assert other.size != interval.size
        with pytest.raises(ValidationError):
            vector_sieve_lower(845, 2, 5, 0.85, zero_weight(other),
                               prime_indicator(interval))

    @staticmethod
    def _two_counts(n, k, s, theta, lower, upper):
        # The combination as two weighted counts, kept as the oracle.
        if not check_domination(lower, upper, build_interval(n, k, s, theta)):
            raise DominationError("oracle: pair does not dominate")
        return (5.0 * count_weighted(n, k, s, theta, lower, upper)
                - 4.0 * count_weighted(n, k, s, theta, upper, upper))

    def test_single_count_matches_two_count_formula(self):
        outcomes = set()
        for n in (845, 5165, 40085):
            for theta in (0.85, 0.95, 1.0):
                interval = build_interval(n, 2, 5, theta)
                for z in (2.0, 3.0):
                    lower, upper = toy_weights(interval, z)
                    try:
                        expected = self._two_counts(n, 2, 5, theta, lower, upper)
                    except DominationError:
                        with pytest.raises(DominationError):
                            vector_sieve_lower(n, 2, 5, theta, lower, upper)
                        outcomes.add("dominated")
                        continue
                    assert vector_sieve_lower(n, 2, 5, theta, lower, upper) == expected
                    outcomes.add("value")
        assert outcomes == {"value", "dominated"}

    def test_single_count_matches_two_counts_for_real_weights(self):
        n, k, s, theta = 5165, 2, 5, 0.95
        interval = build_interval(n, k, s, theta)
        ind = prime_indicator(interval).values
        rng = np.random.default_rng(3)
        lower = table_weight(interval, dict(zip(
            interval, ind - (1.0 - ind) * rng.uniform(0.0, 2.0, interval.size))))
        upper = table_weight(interval, dict(zip(
            interval, ind + (1.0 - ind) * rng.uniform(0.0, 1.0, interval.size))))
        expected = self._two_counts(n, k, s, theta, lower, upper)
        value = vector_sieve_lower(n, k, s, theta, lower, upper)
        assert value == pytest.approx(expected, rel=1e-12, abs=1e-9)


def test_grid_vector_sieve_lower_bound(case_grid):
    checked = 0
    for n, k, s, theta in case_grid:
        if s < 5:
            continue
        interval = build_interval(n, k, s, theta)
        exact = count_exact(n, k, s, theta).count
        for z in (2.0, 3.0, 4.0):
            if z >= interval.lo or z > math.sqrt(interval.x + interval.y):
                continue
            lower, upper = toy_weights(interval, z)
            if not check_domination(lower, upper, interval):
                continue
            value = vector_sieve_lower(n, k, s, theta, lower, upper)
            assert value <= exact + 1e-9, (n, k, s, theta, z)
            checked += 1
    assert checked >= 20


class TestPointwiseInequality:
    def test_equality_cases(self):
        # all indicators 1 with unit weights: 1 = 5 - 4.
        e = np.ones(5)
        lo = np.ones(5)
        up = np.ones(5)
        lhs = e.prod()
        rhs = sum(lo[i] * np.prod([up[j] for j in range(5) if j != i]) for i in range(5))
        rhs -= 4 * up.prod()
        assert lhs == rhs

    def test_mixed_equality_case(self):
        e = np.array([0.0, 1, 1, 1, 1])
        lo = np.array([0.0, 1, 1, 1, 1])
        up = np.ones(5)
        rhs = sum(lo[i] * np.prod([up[j] for j in range(5) if j != i]) for i in range(5))
        rhs -= 4 * up.prod()
        assert e.prod() == rhs == 0.0

    def test_no_violations_at_seed_7(self):
        assert vector_sieve_pointwise_scan(100_000, 7)["violations"] == 0

    def test_scan_reports_box_and_counts(self):
        scan = vector_sieve_pointwise_scan(5000, 11)
        assert scan["violations"] == 0
        assert scan["witness"] is None
        assert "box" in scan and scan["samples"] == 5000
