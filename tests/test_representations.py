import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kglab import (
    DominationError,
    ValidationError,
    build_interval,
    check_domination,
    count_exact,
    count_weighted,
    prime_indicator,
    primes_in_interval,
    table_weight,
    toy_weights,
    unit_weight,
    vector_sieve_lower,
    vector_sieve_pointwise_check,
    vector_sieve_pointwise_scan,
    zero_weight,
)
from kglab.representations import _interval_for_count


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
        b = count_exact(845, 2, 5, 0.85, method="exhaustive")
        assert a.count == b.count == 296.0

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

    def test_rejects_unknown_method(self):
        with pytest.raises(ValidationError):
            count_exact(20, 2, 5, 0.85, method="magic")


def test_grid_exhaustive_equals_mitm(case_grid):
    assert len(case_grid) == 50
    for n, k, s, theta in case_grid:
        fast = count_exact(n, k, s, theta)
        slow = count_exact(n, k, s, theta, method="exhaustive")
        assert fast.count == slow.count, (n, k, s, theta)


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
        if not check_domination(lower, upper, _interval_for_count(n, k, s, theta)):
            raise DominationError("oracle: pair does not dominate")
        return (5.0 * count_weighted(n, k, s, theta, lower, upper)
                - 4.0 * count_weighted(n, k, s, theta, upper, upper))

    def test_single_count_matches_two_count_formula(self):
        outcomes = set()
        for n in (845, 5165, 40085):
            for theta in (0.85, 0.95, 1.0):
                interval = _interval_for_count(n, 2, 5, theta)
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
        interval = _interval_for_count(n, k, s, theta)
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
        interval = _interval_for_count(n, k, s, theta)
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
        assert vector_sieve_pointwise_check(100_000, 7)

    def test_scan_reports_box_and_counts(self):
        scan = vector_sieve_pointwise_scan(5000, 11)
        assert scan["violations"] == 0
        assert scan["witness"] is None
        assert "box" in scan and scan["samples"] == 5000
