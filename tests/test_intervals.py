import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kglab import (
    ShortInterval,
    ValidationError,
    build_interval,
    divisor_count,
    euler_phi,
    moebius,
    point_function,
    primes_in_interval,
    sieve_upto,
    von_mangoldt,
)


def trial_division_primes(lo, hi):
    out = []
    for m in range(max(lo, 2), hi + 1):
        if all(m % p for p in range(2, math.isqrt(m) + 1)):
            out.append(m)
    return out


class TestBuildInterval:
    def test_exact_center(self):
        interval = build_interval(845, 2, 5, 0.85)
        assert interval.x == 13.0
        assert interval.y == pytest.approx(13.0**0.85, rel=1e-12)
        assert (interval.lo, interval.hi) == (5, 21)

    def test_small_window(self):
        interval = build_interval(20, 2, 5, 0.85)
        assert interval.x == 2.0
        assert interval.y == pytest.approx(2.0**0.85, rel=1e-12)
        assert (interval.lo, interval.hi) == (1, 3)

    def test_theta_one_full_window(self):
        interval = build_interval(845, 2, 5, 1.0)
        assert interval.y == interval.x
        assert (interval.lo, interval.hi) == (1, 26)

    def test_theta_one_inexact_center(self):
        interval = build_interval(844, 2, 5, 1.0)
        x = (844 / 5) ** 0.5
        assert interval.lo == 1
        assert interval.hi == math.floor(2 * x)

    def test_exact_roots_beyond_double_precision(self):
        from kglab.intervals import _iroot_exact

        r = 2**80 + 12345
        assert _iroot_exact(r**2, 2) == r
        assert _iroot_exact(r**2 + 1, 2) is None
        assert _iroot_exact(r**3, 3) == r
        assert _iroot_exact(r**7 - 1, 7) is None
        interval = build_interval(5 * r**2, 2, 5, 1.0)
        assert (interval.lo, interval.hi) == (1, 2 * r)

    def test_window_matches_per_side_resolution(self):
        # Oracle: each boundary resolved on its own precision ladder, and x
        # and y evaluated once more at 50 digits, as windows used to be built.
        from fractions import Fraction

        from kglab.errors import PrecisionError
        from kglab.intervals import _exact_kth_root

        def floor_boundary(n, k, s, theta, upper):
            for dps in (50, 200, 800):
                with mp.workdps(dps):
                    xv = mp.root(mp.mpf(n) / s, k)
                    yv = xv if theta == 1.0 else xv ** mp.mpf(theta)
                    v = xv + yv if upper else xv - yv
                    f = mp.floor(v)
                    eps = mp.mpf(10) ** (-(dps - 12))
                    if v - f > eps and (f + 1) - v > eps:
                        return int(f)
                    cand = int(mp.nint(v))
                    if theta == 1.0 and upper:
                        return cand if (2**k) * n >= cand**k * s else cand - 1
                    if not upper and theta == 1.0:
                        return 0
            raise PrecisionError(
                f"cannot resolve window boundary for n={n}, k={k}, s={s}, theta={theta}"
            )

        def old_window(n, k, s, theta):
            root = _exact_kth_root(n, s, k)
            if theta == 1.0 and root is not None:
                x = float(root)
                return 1, math.floor(2 * root), x, x
            lo = floor_boundary(n, k, s, theta, upper=False) + 1
            hi = floor_boundary(n, k, s, theta, upper=True)
            with mp.workdps(50):
                xv = mp.root(mp.mpf(n) / s, k)
                yv = xv if theta == 1.0 else xv ** mp.mpf(theta)
                return lo, hi, float(xv), float(yv)

        def outcome(build, n, k, s, theta):
            try:
                return build(n, k, s, theta)
            except PrecisionError as exc:
                return str(exc)

        def new_window(n, k, s, theta):
            w = build_interval(n, k, s, theta)
            return w.lo, w.hi, w.x, w.y

        big = 10**40 + 7
        grid = [
            (845, 2, 5, 1.0), (844, 2, 5, 1.0), (846, 2, 5, 1.0),  # exact root, neighbours
            (5 * 2**3 * 3**3, 3, 5, 1.0), (3 * 7**5, 5, 3, 1.0),
            (5 * big**2 // 4 + 1, 2, 5, 1.0),   # 2x within 1e-41 of an integer
            (5 * big**2 // 4 - 1, 2, 5, 1.0),
            (5 * (2**80 + 3) ** 2, 2, 5, 0.85), (5 * (2**80 + 3) ** 2 + 1, 2, 5, 1.0),
            (7 * (2**30 + 1) ** 3 - 1, 3, 7, 0.9), (2 * (3**20 + 5) ** 5 + 1, 5, 2, 0.75),
            (5 * big**4, 2, 5, 0.5),            # x +/- y integers: unresolvable
            (5 * big**4 + 1, 2, 5, 0.5),        # needs the 200-digit rung
        ]
        for k in (2, 3, 5):
            for r in (7, 13, 1000, 3**25 + 2):
                for delta in (-1, 0, 1):
                    for theta in (0.55, 0.85, 0.9, 1.0):
                        grid.append((5 * r**k + delta, k, 5, theta))
        unresolved = 0
        for n, k, s, theta in grid:
            want = outcome(old_window, n, k, s, theta)
            assert outcome(new_window, n, k, s, theta) == want, (n, k, s, theta)
            unresolved += isinstance(want, str)
        assert unresolved == 1

    @pytest.mark.parametrize(
        "n,k,s,theta",
        [
            (19, 2, 5, 0.85),     # n below s * 2^k
            (845, 1, 5, 0.85),    # k too small
            (845, 2, 1, 0.85),    # s too small
            (845, 2, 5, 0.0),     # theta at zero
            (845, 2, 5, 1.5),     # theta above one
            (845, 65, 5, 0.85),   # k above the cap
        ],
    )
    def test_rejects_bad_arguments(self, n, k, s, theta):
        with pytest.raises(ValidationError):
            build_interval(n, k, s, theta)

    def test_boundary_exactness_left(self):
        # x - y = 0 exactly at theta = 1: 0 is excluded, 1 included.
        interval = build_interval(845, 2, 5, 1.0)
        assert interval.lo == 1

    def test_boundary_exactness_right(self):
        # x + y = 2x = 26 exactly: the right endpoint is included.
        interval = build_interval(845, 2, 5, 1.0)
        assert interval.hi == 26

    @given(
        n=st.integers(min_value=160, max_value=3 * 10**6),
        k=st.integers(min_value=2, max_value=4),
        s=st.integers(min_value=2, max_value=8),
        theta=st.floats(min_value=0.55, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_membership_against_high_precision(self, n, k, s, theta):
        if n < s * 2**k:
            n = s * 2**k
        interval = build_interval(n, k, s, theta)
        with mp.workdps(60):
            x = mp.root(mp.mpf(n) / s, k)
            y = x if theta == 1.0 else x ** mp.mpf(theta)
            assert mp.mpf(interval.lo) > x - y
            assert mp.mpf(interval.lo - 1) <= x - y
            assert mp.mpf(interval.hi) <= x + y
            assert mp.mpf(interval.hi + 1) > x + y
        assert interval.size <= 2 * interval.y + 1

    def test_iteration_is_sorted_and_complete(self):
        interval = build_interval(845, 2, 5, 0.85)
        ms = list(interval)
        assert ms == sorted(ms)
        assert ms == list(range(interval.lo, interval.hi + 1))

    def test_from_integer_window(self):
        interval = ShortInterval.from_integer_window(11, 20, 2)
        assert list(interval) == list(range(11, 21))
        assert 0 < interval.y <= interval.x


class TestPrimesInInterval:
    def test_tiny(self):
        interval = build_interval(20, 2, 5, 0.85)
        assert primes_in_interval(interval).primes == (2, 3)

    def test_mid(self):
        interval = build_interval(845, 2, 5, 0.85)
        assert primes_in_interval(interval).primes == (5, 7, 11, 13, 17, 19)

    def test_empty_prime_window(self):
        interval = ShortInterval.from_integer_window(90, 96, 2)
        assert primes_in_interval(interval).primes == ()

    @given(
        lo=st.integers(min_value=1, max_value=10**6 - 500),
        span=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=40, deadline=None)
    def test_against_trial_division(self, lo, span):
        interval = ShortInterval.from_integer_window(lo, lo + span, 2)
        table = primes_in_interval(interval)
        assert list(table.primes) == trial_division_primes(lo, lo + span)

    def test_membership_protocol(self):
        interval = build_interval(845, 2, 5, 0.85)
        table = primes_in_interval(interval)
        assert 13 in table and 15 not in table
        assert len(table) == 6


class TestPointFunctions:
    def test_anchors(self):
        assert point_function("von-mangoldt", 8) == pytest.approx(math.log(2))
        assert point_function("von-mangoldt", 12) == 0.0
        assert point_function("moebius", 30) == -1
        assert point_function("euler-phi", 12) == 4
        assert point_function("divisor-count", 12) == 6

    def test_rejects(self):
        with pytest.raises(ValidationError):
            point_function("von-mangoldt", 0)
        with pytest.raises(ValidationError):
            point_function("legendre", 5)

    @given(
        a=st.integers(min_value=1, max_value=3000),
        b=st.integers(min_value=1, max_value=3000),
    )
    @settings(max_examples=80, deadline=None)
    def test_multiplicativity_on_coprime_pairs(self, a, b):
        if math.gcd(a, b) != 1:
            return
        assert moebius(a * b) == moebius(a) * moebius(b)
        assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)
        assert divisor_count(a * b) == divisor_count(a) * divisor_count(b)

    @given(
        lo=st.integers(min_value=1, max_value=200_000),
        span=st.integers(min_value=0, max_value=400),
    )
    @settings(max_examples=30, deadline=None)
    def test_von_mangoldt_summatory(self, lo, span):
        # Independent enumeration of prime powers inside the window.
        hi = lo + span
        expected = 0.0
        for p in sieve_upto(hi):
            power = p
            while power <= hi:
                if power >= lo:
                    expected += math.log(p)
                power *= p
        got = sum(von_mangoldt(m) for m in range(lo, hi + 1))
        assert got == pytest.approx(expected, abs=1e-9)

    def test_von_mangoldt_summatory_hundred_windows(self):
        import numpy as np

        rng = np.random.default_rng(100)
        primes = sieve_upto(20_000)
        for _ in range(100):
            lo = int(rng.integers(1, 19_500))
            hi = lo + int(rng.integers(0, 300))
            expected = 0.0
            for p in primes:
                if p > hi:
                    break
                power = p
                while power <= hi:
                    if power >= lo:
                        expected += math.log(p)
                    power *= p
            got = sum(von_mangoldt(m) for m in range(lo, hi + 1))
            assert got == pytest.approx(expected, abs=1e-9)
