import math
import random
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kglab import (
    ShortInterval,
    ValidationError,
    admissible_in_range,
    build_interval,
    divisor_count,
    euler_phi,
    moebius,
    primes_in_interval,
    sieve_upto,
    von_mangoldt,
)
from kglab.intervals import (
    SEGMENT_BLOCK,
    _power_bits,
    _prime_powers,
    _primes_between,
    factorize,
    pow_mod,
)


# Least segment lengths short enough that the sieve tests' windows span
# several segments.
SMALL_BLOCKS = (1, 2, 3, 7, 64)


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
        from kglab.intervals import _iroot

        r = 2**80 + 12345
        assert _iroot(r**2, 2) == r
        assert _iroot(r**2 + 1, 2) == r
        assert _iroot(r**3, 3) == r
        assert _iroot(r**7 - 1, 7) == r - 1
        interval = build_interval(5 * r**2, 2, 5, 1.0)
        assert (interval.lo, interval.hi) == (1, 2 * r)

    def test_theta_one_windows_are_exact_at_every_size(self):
        def largest(n, k, s):
            # The largest M with M^k * s <= 2^k * n, by bisection.
            lo, hi = 1, 2
            while hi**k * s <= 2**k * n:
                lo, hi = hi, 2 * hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if mid**k * s <= 2**k * n else (lo, mid)
            return lo

        rng = random.Random(8)
        cases = [(3**250, 2, 5), (7**200 + 1, 3, 5)]
        cases += [(rng.randrange(10**103, 10**110), rng.choice((2, 3, 4)), 5)
                  for _ in range(10)]
        for n, k, s in cases:
            interval = build_interval(n, k, s, 1.0)
            assert (interval.lo, interval.hi) == (1, largest(n, k, s)), (n, k)

    def test_window_matches_per_side_resolution(self):
        # Oracle: each boundary of a theta < 1 window resolved on its own
        # mpmath precision ladder, a theta = 1 top from 2x at n's digits
        # checked in integers, and x and y evaluated once more at 50 digits.
        from kglab.errors import PrecisionError

        def floor_boundary(n, k, s, theta, upper):
            for dps in (50, 200, 800):
                with mp.workdps(dps):
                    xv = mp.root(mp.mpf(n) / s, k)
                    yv = xv ** mp.mpf(theta)
                    v = xv + yv if upper else xv - yv
                    f = mp.floor(v)
                    eps = mp.mpf(10) ** (-(dps - 12))
                    if v - f > eps and (f + 1) - v > eps:
                        return int(f)
            raise PrecisionError(
                f"cannot resolve window boundary for n={n}, k={k}, s={s}, theta={theta}"
            )

        def old_window(n, k, s, theta):
            with mp.workdps(50):
                xv = mp.root(mp.mpf(n) / s, k)
                x, y = float(xv), float(xv if theta == 1.0 else xv ** mp.mpf(theta))
            if theta < 1.0:
                lo = floor_boundary(n, k, s, theta, upper=False) + 1
                return lo, floor_boundary(n, k, s, theta, upper=True), x, y
            # The largest M with M^k * s <= 2^k * n: 2x is off by far less
            # than 1 at n's digits, and the integers settle the last step.
            with mp.workdps(len(str(n)) + 10):
                hi = int(mp.floor(2 * mp.root(mp.mpf(n) / s, k)))
            hi += (hi + 1) ** k * s <= 2**k * n
            return 1, hi - (hi**k * s > 2**k * n), x, y

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
            (5 * big**4 + 1, 2, 5, 0.5),        # needs the 200-digit rung
        ]
        for k in (2, 3, 5):
            for r in (7, 13, 1000, 3**25 + 2):
                for delta in (-1, 0, 1):
                    for theta in (0.55, 0.85, 0.9, 1.0):
                        grid.append((5 * r**k + delta, k, 5, theta))
        # The sweep's targets at every benchmark seed, and criterion 10's
        # near 10^8 and 10^9.
        sweep = {n for start in range(100000, 100481, 120)
                 for n in admissible_in_range(start, start + 12000, 2, 5)}
        grid += [(n, 2, 5, 0.9) for n in sorted(sweep)]
        grid += [(n, 3, 13, 0.776) for lo in (100000001, 1000000001)
                 for n in admissible_in_range(lo, lo + 20, 3, 13)]
        # Ties n = s m^(4k): x - y and x + y are integers, which no precision
        # settles; the rationals do: the window is (m^4 - y, m^4 + y], y = m^(4 theta).
        ties = {(5 * big**4, 2, 5, 0.5):
                (big**2 - big + 1, big**2 + big, float(big**2), float(big))}
        for k, s, m in ((2, 5, 3), (3, 13, 7), (4, 1, 1000)):
            for theta in (0.25, 0.5, 0.75):
                y = m ** round(4 * theta)
                ties[s * m ** (4 * k), k, s, theta] = m**4 - y + 1, m**4 + y, float(m**4), float(y)
        rng = random.Random(32)
        for _ in range(40):
            k, s = rng.choice((2, 3, 4, 12, 64)), rng.randrange(1, 20)
            grid.append((s * 2**k + rng.randrange(10 ** rng.randrange(1, 700)), k, s,
                         rng.choice((1.0, 0.5, 0.85, rng.random()))))
        for n, k, s, theta in grid + list(ties):
            want = outcome(old_window, n, k, s, theta)
            if (n, k, s, theta) in ties:
                assert isinstance(want, str)
                want = ties[n, k, s, theta]
            assert outcome(new_window, n, k, s, theta) == want, (n, k, s, theta)
        # Past the digits Python prints, the refusal names n by its bits.
        with pytest.raises(PrecisionError, match=r"n=a 16610-bit integer, k=2, s=5"):
            build_interval(10**5000 + 5, 2, 5, 0.85)

    @pytest.mark.parametrize(
        "n,k,s,theta",
        [
            (19, 2, 5, 0.85),     # n below s * 2^k
            (845, 1, 5, 0.85),    # k too small
            (845, 2, 0, 0.85),    # s too small
            (845, 2, 5, 0.0),     # theta at zero
            (845, 2, 5, 1.5),     # theta above one
            (845, 65, 5, 0.85),   # k above the cap
        ],
    )
    def test_rejects_bad_arguments(self, n, k, s, theta):
        with pytest.raises(ValidationError):
            build_interval(n, k, s, theta)

    @pytest.mark.parametrize("n", [
        # x + y lies 1.9e-6 below an integer, x ~ 1e46
        499999874107480216638662914080069907537019982152476336305223184304920091816473227355390823271,
        # x + y lies 8.0e-6 above an integer, x ~ 1e47
        49999991087491691005576183693097496583259758518626038285358895827822775719312555818712786153480,
    ], ids=["below-an-integer", "above-an-integer"])
    def test_floors_near_ties_at_large_x(self, n):
        # A 50-digit rung is off by about x * 1e-50 ~ 1e-4 here, so it must
        # not settle a floor that close to an integer.
        interval = build_interval(n, 2, 5, 0.85)
        with mp.workdps(1200):
            x = mp.sqrt(mp.mpf(n) / 5)
            y = x ** mp.mpf(0.85)
            assert (interval.lo, interval.hi) == (int(mp.floor(x - y)) + 1, int(mp.floor(x + y)))

    @pytest.mark.parametrize("n,k,s,theta,lo,hi", [
        (50000, 2, 5, 0.5, 91, 110),         # (90, 110]
        (80, 2, 5, 0.5, 3, 6),               # (2, 6]
        (405, 2, 5, 0.5, 7, 12),             # (6, 12]
        (5 * 2**48, 3, 5, 0.75, 61441, 69632),  # x = 2^16, y = 2^12
        (7 * 2**320, 5, 7, 0.5**5 + 0.5**6, 2**64 - 8 + 1, 2**64 + 8),  # theta = 3/64
    ])
    def test_exact_ties_settle_in_rationals(self, n, k, s, theta, lo, hi):
        # x - y and x + y are integers, which no working precision separates.
        interval = build_interval(n, k, s, theta)
        assert (interval.lo, interval.hi) == (lo, hi)

    def test_rational_window_needs_rational_x_and_y(self):
        from fractions import Fraction

        from kglab.intervals import _rational_window

        assert _rational_window(50000, 2, 5, 0.5) == (Fraction(100), Fraction(10))
        assert _rational_window(50000, 2, 5, 0.85) is None     # 100^0.85
        assert _rational_window(50001, 2, 5, 0.5) is None      # sqrt(10000.2)
        # theta = 0.85 is a / 2^52: x = 2^1024 takes ten square roots and
        # fails the eleventh, and no power of 2^52 is formed
        assert _rational_window(5 * 2**2048, 2, 5, 0.85) is None
        assert _rational_window(5 * 2**2048, 2, 5, 0.5**10) == (Fraction(2**1024), Fraction(2))

    @pytest.mark.parametrize("n,k,theta,lo,hi,x,y", [
        # windows of the counting constructor at s = 1, recorded before
        # build_interval admitted s = 1
        (4, 2, 1.0, 1, 4, 2.0, 2.0),
        (10, 2, 0.9, 1, 5, 3.1622776601683795, 2.8183829312644537),
        (101, 2, 0.5, 7, 13, 10.04987562112089, 3.1701538797227005),
        (1000, 3, 0.8, 4, 16, 10.0, 6.309573444801933),
        (10**12 + 39, 2, 0.55, 998005, 1001995, 1000000.0000195, 1995.26231499028),
        (3**100, 3, 0.7, 8017416935468351, 8017688491386771, 8017552713427561.0,
         135777959210.61403),
        (2**200, 2, 1.0, 1, 2535301200456458802993406410752, 1.2676506002282294e30,
         1.2676506002282294e30),
    ])
    def test_single_power_windows(self, n, k, theta, lo, hi, x, y):
        interval = build_interval(n, k, 1, theta)
        assert (interval.lo, interval.hi, interval.x, interval.y) == (lo, hi, x, y)

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

    @pytest.mark.parametrize("lo,hi", [(11, 20), (1, 1), (1000, 1400), (2**40, 2**40 + 5)])
    def test_integer_window_reals_where_floats_are_exact(self, lo, hi):
        # Where lo - 1/2 and hi + 1/4 are exact floats, x and y are the
        # midpoint and half-width of those two.
        interval = ShortInterval.from_integer_window(lo, hi, 2)
        assert (interval.x, interval.y) == ((lo - 0.5 + hi + 0.25) / 2, (hi - lo + 0.75) / 2)

    def test_integer_window_past_2_53(self):
        # lo - 1/2 and hi + 1/4 both rounded to 2^53 as floats, so y was 0.0.
        interval = ShortInterval.from_integer_window(2**53 + 1, 2**53 + 1, 2)
        assert list(interval) == [2**53 + 1]
        assert (interval.x, interval.y) == (2.0**53, 0.375)

    def test_integer_window_past_the_double_range_names_hi(self):
        # At lo = hi = the largest double, x = hi - 1/8 rounds to hi; at
        # twice that it cannot be a double, and the refusal names hi.
        top = int(sys.float_info.max)
        assert ShortInterval.from_integer_window(top, top, 2).x == sys.float_info.max
        with pytest.raises(OverflowError, match=r"^integer window: x = \(4 lo \+ 4 hi - 1\)/8 "
                           rf"exceeds the double range at hi={2 * top}$"):
            ShortInterval.from_integer_window(2 * top, 2 * top, 2)


class TestPrimesInInterval:
    def test_tiny(self):
        interval = build_interval(20, 2, 5, 0.85)
        assert primes_in_interval(interval) == (2, 3)

    def test_mid(self):
        interval = build_interval(845, 2, 5, 0.85)
        assert primes_in_interval(interval) == (5, 7, 11, 13, 17, 19)

    def test_empty_prime_window(self):
        interval = ShortInterval.from_integer_window(90, 96, 2)
        assert primes_in_interval(interval) == ()

    @given(
        lo=st.integers(min_value=1, max_value=10**6 - 500),
        span=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=40, deadline=None)
    def test_against_trial_division(self, lo, span):
        interval = ShortInterval.from_integer_window(lo, lo + span, 2)
        expected = trial_division_primes(lo, lo + span)
        for block in SMALL_BLOCKS + (SEGMENT_BLOCK,):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr("kglab.intervals.SEGMENT_BLOCK", block)
                assert list(primes_in_interval(interval)) == expected, block

    def test_window_and_segment_edges(self, monkeypatch):
        # Segments of max(SEGMENT_BLOCK, isqrt(hi)) integers start past
        # isqrt(hi), so small blocks put segment edges all through these
        # windows: windows that start at 1, 2 or p^2, end at p^2, or span
        # many segments.
        windows = [(lo, hi) for hi in range(1, 130)
                   for lo in (1, 2, 3, 4, 9, 25, 49, 121, hi) if lo <= hi]
        windows += [(p * p, p * p + span) for p in (2, 3, 97, 101) for span in (0, 1, 2 * p, 500)]
        windows += [(1, 10**4), (2, 10**4), (101, 10**4), (10**6 - 1000, 10**6 + 1000)]
        for lo, hi in windows:
            interval = ShortInterval.from_integer_window(lo, hi, 2)
            expected = trial_division_primes(lo, hi)
            for block in SMALL_BLOCKS:
                monkeypatch.setattr("kglab.intervals.SEGMENT_BLOCK", block)
                assert list(primes_in_interval(interval)) == expected, (lo, hi, block)

    def test_sieve_upto(self, monkeypatch):
        assert [sieve_upto(limit) for limit in range(-1, 5)] == [[], [], [], [2], [2, 3], [2, 3]]
        for block in SMALL_BLOCKS:
            monkeypatch.setattr("kglab.intervals.SEGMENT_BLOCK", block)
            for limit in range(300):
                assert sieve_upto(limit) == trial_division_primes(2, limit), (limit, block)

    def test_window_sieve_holds_no_list_of_its_sieving_primes(self):
        # The 108,108 sieving primes below 1.4e6 as one list of Python ints
        # would take the peak to about 5.2 MB; as an int64 array, read one
        # SEGMENT_BLOCK at a time, it is about 3.5 MB.
        lo = 2 * 10**12
        tracemalloc.start()
        try:
            primes = _primes_between(lo, lo + 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(primes) == 39 and peak < 4_300_000

    def test_prime_powers(self, monkeypatch):
        # Every p^j, j >= 1, of [lo, hi], ordered by p, then j.
        windows = [(1, 1), (1, 2), (1, 300), (2, 1024), (100, 1000), (4, 4), (5, 8),
                   (10**6 - 1000, 10**6 + 1000), (4093**2 - 50, 4093**2 + 50)]
        for lo, hi in windows:
            expected = sorted((factorize(m)[0][0], m) for m in range(lo, hi + 1) if von_mangoldt(m))
            for block in SMALL_BLOCKS + (SEGMENT_BLOCK,):
                monkeypatch.setattr("kglab.intervals.SEGMENT_BLOCK", block)
                bases, powers = _prime_powers(lo, hi)
                assert bases.dtype == powers.dtype == np.int64
                assert list(zip(bases.tolist(), powers.tolist())) == expected, (lo, hi, block)

    def test_membership_protocol(self):
        interval = build_interval(845, 2, 5, 0.85)
        primes = primes_in_interval(interval)
        assert 13 in primes and 15 not in primes
        assert len(primes) == 6


class TestPowMod:
    # The wrapping uint64 modulus of the phase sums, the trivial modulus and
    # odd moduli just under the int64 cap, against Python's pow.
    @pytest.mark.parametrize("q", [1 << 64, 1, 2_999_999_993, 2_999_999_999])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 64, 65, 1000])
    def test_matches_python_pow(self, q, k):
        rng = np.random.default_rng(k)
        edges = [0, 1, 2, -1, -2, 2**62, 2**63 - 1, -(2**63)] + [q - 1, q - 2] * (q < 2**63)
        base = np.concatenate([np.array(edges, dtype=np.int64),
                               rng.integers(-(2**63), 2**63 - 1, 200, dtype=np.int64)])
        assert pow_mod(base, k, q).tolist() == [pow(int(b), k, q) for b in base]


class TestPointFunctions:
    def test_anchors(self):
        assert von_mangoldt(8) == pytest.approx(math.log(2))
        assert von_mangoldt(12) == 0.0
        assert moebius(30) == -1
        assert euler_phi(12) == 4
        assert divisor_count(12) == 6

    def test_rejects(self):
        with pytest.raises(ValidationError):
            von_mangoldt(0)

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


@pytest.mark.parametrize("base", [2, 3, 4, 5, 10, 97, 1024, 12345, 50000])
def test_power_bits_match_the_formed_power(base):
    for exp in (1, 2, 3, 50, 100, 1000, 12345):
        assert _power_bits(base, exp) == (base**exp).bit_length()


def test_power_bits_of_powers_too_long_to_form():
    # 3^(5 * 10^8) would take 99 MB; 2^(10^18) could not be held at all.
    assert _power_bits(3, 5 * 10**8) == 792_481_251
    assert _power_bits(2, 10**18) == 10**18 + 1
    assert _power_bits(8, 10**18) == 3 * 10**18 + 1
