"""Acceptance suite: one test per criterion, at the stated tolerance and
time budget, printing one pass line each.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import math
import statistics
import time

import numpy as np
import pytest

from kglab import (
    ArcDissection,
    ShortInterval,
    admissible_in_range,
    build_interval,
    check_domination,
    classify,
    classify_brute,
    count_exact,
    evaluate_components,
    moment_enumeration,
    moment_nyquist,
    singular_integral,
    singular_series,
    singular_series_term,
    local_count_identity_check,
    sweep,
    toy_weights,
    unit_weight,
    vaughan_decompose,
    vector_sieve_lower,
    vector_sieve_pointwise_scan,
    von_mangoldt_weight,
    weighted_exp_sum,
)
from kglab.representations import _interval_for_count
from tests.conftest import MOMENT_GRID, build_case_grid


def _report(number, label, elapsed, budget):
    print(f"[acceptance] criterion {number} ({label}): PASS in {elapsed:.2f}s "
          f"(budget {budget:.0f}s)")


def test_criterion_1_moment_exactness():
    started = time.perf_counter()
    window = ShortInterval.from_integer_window(11, 20, 2)
    sampled = moment_nyquist(window, 2)
    enumerated = moment_enumeration(window, 2, unit_weight(window))
    anchor_elapsed = time.perf_counter() - started
    assert sampled == 190
    assert enumerated == 190.0
    assert anchor_elapsed < 1.0

    for k, lo, hi in MOMENT_GRID:
        grid_window = ShortInterval.from_integer_window(lo, hi, k)
        for t in (1, 2):
            left = moment_nyquist(grid_window, t)
            right = moment_enumeration(grid_window, t, unit_weight(grid_window))
            assert float(left) == right, (k, lo, hi, t)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(1, "moment exactness", elapsed, 60)


def test_criterion_2_vaughan_identity():
    started = time.perf_counter()
    n = 5 * 10**8  # x = 10^4 for k = 2, s = 5
    interval = build_interval(n, 2, 5, 0.85)
    assert interval.x == pytest.approx(10**4)
    components = vaughan_decompose(interval)  # default cut
    lam = von_mangoldt_weight(interval)
    total = float(np.sum(lam.values))
    alphas = np.random.default_rng(2).uniform(0.0, 1.0, size=100)
    lhs = evaluate_components(components, alphas, interval)
    rhs = weighted_exp_sum(alphas, lam, interval)
    worst = float(np.max(np.abs(lhs - rhs))) / total
    elapsed = time.perf_counter() - started
    assert worst < 1e-8, worst
    assert elapsed < 30.0
    _report(2, "divisor-sum decomposition identity", elapsed, 30)


def test_criterion_3_series_algebra():
    started = time.perf_counter()
    pairs = [
        (q1, q2)
        for q1 in range(2, 15)
        for q2 in range(q1 + 1, 201)
        if q1 * q2 <= 200 and math.gcd(q1, q2) == 1
    ]
    rng = np.random.default_rng(3)
    for n in rng.integers(1, 10**6, size=20):
        n = int(n)
        for q1, q2 in pairs:
            left = singular_series_term(q1 * q2, n, 2, 5)
            right = singular_series_term(q1, n, 2, 5) * singular_series_term(
                q2, n, 2, 5
            )
            assert abs(left - right) <= 1e-8 * max(1.0, abs(left), abs(right))
    for k in (2, 3):
        for q in range(1, 101):
            for n in rng.integers(1, 10**6, size=5):
                assert local_count_identity_check(q, int(n), k, 5)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(3, "series algebra", elapsed, 120)


def test_criterion_4_series_positivity_and_stability():
    started = time.perf_counter()
    admissible = admissible_in_range(10**5, 10**6, 2, 5)[:20]
    for n in admissible:
        fine = singular_series(n, 2, 5, 10**4)
        coarse = singular_series(n, 2, 5, 10**3)
        assert fine.value > 0.05, (n, fine.value)
        assert abs(coarse.value - fine.value) < 0.01 * abs(fine.value)
    rng = np.random.default_rng(4)
    found = 0
    for n in rng.integers(10**5, 10**6, size=200):
        n = int(n)
        if n % 24 == 5:
            continue
        est = singular_series(n, 2, 5, 10**4)
        assert est.obstructed, (n, est.value)
        found += 1
        if found == 20:
            break
    assert found == 20
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(4, "series positivity and stability", elapsed, 60)


def test_criterion_5_integral_cross_method():
    started = time.perf_counter()
    windows = 0
    for k, s in ((2, 5), (2, 7), (3, 5), (3, 7)):
        for x0 in (13, 53, 211):
            n = s * x0**k
            interval = build_interval(n, k, s, 0.85)
            est = singular_integral(n, interval, k, s, method="both")
            assert est.alt_value == pytest.approx(est.value, rel=0.01), (k, s, x0)
            assert not est.flagged
            ratio = est.value / (interval.y ** (s - 1) * interval.x ** (1 - k))
            assert 1e-2 <= ratio <= 1e2, (k, s, x0, ratio)
            windows += 1
    assert windows >= 10
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(5, "integral cross-method", elapsed, 120)


def test_criterion_6_counting_anchors():
    started = time.perf_counter()
    assert count_exact(20, 2, 5, 0.85).count == 1.0
    assert count_exact(25, 2, 5, 0.85).count == 5.0
    for n, k, s, theta in build_case_grid(50):
        fast = count_exact(n, k, s, theta)
        slow = count_exact(n, k, s, theta, method="exhaustive")
        assert fast.count == slow.count, (n, k, s, theta)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(6, "counting anchors", elapsed, 60)


def test_criterion_7_vector_sieve():
    started = time.perf_counter()
    scan = vector_sieve_pointwise_scan(10**5, 7)
    assert scan["violations"] == 0
    checked = 0
    for n, k, s, theta in build_case_grid(50):
        if s < 5:
            continue  # the weighted combination is defined for s >= 5
        interval = _interval_for_count(n, k, s, theta)
        exact = count_exact(n, k, s, theta).count
        for z in (2.0, 3.0, 4.0):
            if z >= interval.lo or z > math.sqrt(interval.x + interval.y):
                continue
            lower, upper = toy_weights(interval, z)
            assert check_domination(lower, upper, interval)
            value = vector_sieve_lower(n, k, s, theta, lower, upper)
            assert value <= exact + 1e-9, (n, k, s, theta, z)
            checked += 1
    assert checked >= 30
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(7, "vector sieve", elapsed, 60)


def test_criterion_8_end_to_end_sanity():
    started = time.perf_counter()
    rows = admissible_in_range(10**5, 2 * 10**5, 2, 5)
    assert all(n % 24 == 5 for n in rows)
    positive = 0
    ratios = []
    for row in sweep(rows, 2, 5, 0.9, qmax=1000):
        if row.count > 0:
            positive += 1
        if row.prediction > 0:
            ratios.append(row.count / row.prediction)
    share = positive / len(rows)
    median = statistics.median(ratios)
    elapsed = time.perf_counter() - started
    assert share >= 0.95, share
    assert 0.3 <= median <= 3.0, median
    assert elapsed < 600.0
    _report(8, f"end-to-end sanity (share={share:.3f}, median={median:.3f})",
            elapsed, 600)


def test_criterion_9_dissection():
    started = time.perf_counter()
    dissection = ArcDissection.from_parameters(200.0, 2 * 200.0**2)
    rng = np.random.default_rng(9)
    for alpha in rng.uniform(0.0, 1.5, size=10**4):
        fast = classify(float(alpha), dissection)
        slow = classify_brute(float(alpha), dissection)
        fast_key = (fast.q, fast.a) if fast else None
        slow_key = (slow.q, slow.a) if slow else None
        assert fast_key == slow_key, alpha
    # Disjointness under 2 P^2 <= Q: adjacent arcs never touch.
    assert dissection.disjoint_regime
    arcs = dissection.arcs
    for left, right in zip(arcs, arcs[1:]):
        gap = right.center - left.center
        assert gap > left.half_width + right.half_width
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(9, "dissection", elapsed, 10)
