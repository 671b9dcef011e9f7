import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kglab import (
    ArcDissection,
    ShortInterval,
    ValidationError,
    build_dissection,
    build_interval,
    coefficient_diagnostic,
    complete_exp_sum,
    default_bilinear_cut,
    evaluate_components,
    minor_arc_rho,
    moment_enumeration,
    moment_nyquist,
    prime_indicator,
    unit_weight,
    vaughan_decompose,
    von_mangoldt_weight,
    weighted_exp_sum,
    weyl_exponent,
    weyl_scan,
)
from tests.conftest import MOMENT_GRID


@pytest.fixture(scope="module")
def window_845():
    return build_interval(845, 2, 5, 0.85)


class TestWeightedExpSum:
    def test_zero_frequency_counts_window(self, window_845):
        value = weighted_exp_sum(0.0, unit_weight(window_845), window_845)
        assert value == pytest.approx(window_845.size)

    def test_three_term_half_frequency(self):
        interval = ShortInterval.from_integer_window(1, 3, 2)
        value = weighted_exp_sum(0.5, unit_weight(interval), interval)
        assert value == pytest.approx(-1.0, abs=1e-12)

    @given(alpha=st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_conjugate_symmetry(self, alpha):
        interval = ShortInterval.from_integer_window(20, 60, 3)
        weight = unit_weight(interval)
        left = weighted_exp_sum(-alpha, weight, interval)
        right = np.conj(weighted_exp_sum(alpha, weight, interval))
        assert left == pytest.approx(right, abs=1e-9)

    @given(
        num=st.integers(min_value=0, max_value=2**20 - 1),
        shift=st.integers(min_value=-3, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_integer_shift_invariance(self, num, shift):
        # The shift must be exact in floating point, hence dyadic alpha.
        alpha = num / 2.0**20
        interval = ShortInterval.from_integer_window(9, 40, 2)
        weight = unit_weight(interval)
        assert weighted_exp_sum(alpha + shift, weight, interval) == pytest.approx(
            weighted_exp_sum(alpha, weight, interval), abs=1e-10
        )

    @given(alpha=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_trivial_bound(self, alpha, window_845):
        weight = prime_indicator(window_845)
        value = abs(weighted_exp_sum(alpha, weight, window_845))
        assert value <= weight.bound * window_845.size + 1e-9

    def test_large_power_vector_path_matches_exact_arithmetic(self):
        # k = 5 pushes m^k past 64 bits; the wrapped uint64 reduction must
        # still match a per-term computation in exact rational arithmetic.
        from fractions import Fraction

        interval = ShortInterval.from_integer_window(1000, 1060, 5)
        weight = unit_weight(interval)
        rng = np.random.default_rng(77)
        for raw in rng.uniform(0.0, 1.0, size=5):
            alpha = float(raw)
            frac = Fraction(alpha)
            num, den = frac.numerator, frac.denominator
            direct = 0.0 + 0.0j
            for m in interval:
                phase = ((pow(m, 5, den) * num) % den) / den
                direct += complex(
                    math.cos(2 * math.pi * phase), math.sin(2 * math.pi * phase)
                )
            got = weighted_exp_sum(alpha, weight, interval)
            assert got == pytest.approx(direct, abs=1e-8)

    def test_tiny_alpha_exact_path(self):
        # Below the 64-bit fixed-point range the per-term path takes over;
        # both paths must agree where they overlap.
        interval = ShortInterval.from_integer_window(100, 140, 3)
        weight = unit_weight(interval)
        for alpha in (2.0**-70, 2.0**-40, 3.0 * 2.0**-66):
            direct = sum(
                complex(math.cos(2 * math.pi * m**3 * alpha),
                        math.sin(2 * math.pi * m**3 * alpha))
                for m in interval
            )
            assert weighted_exp_sum(alpha, weight, interval) == pytest.approx(
                direct, abs=1e-8
            )


class TestCompleteSum:
    def test_anchors(self):
        assert complete_exp_sum(1, 1, 2) == pytest.approx(1.0)
        assert complete_exp_sum(2, 1, 2) == pytest.approx(-1.0)
        assert complete_exp_sum(4, 1, 2) == pytest.approx(2j, abs=1e-12)

    def test_pairing_symmetry(self):
        # |S|^2 computed directly and via the h <-> q-h pairing.
        for q, k in [(7, 2), (12, 3), (35, 2), (64, 4), (101, 3)]:
            for a in range(1, q + 1):
                if math.gcd(a, q) != 1:
                    continue
                direct = abs(complete_exp_sum(q, a, k)) ** 2
                paired = complete_exp_sum(q, q - a if q > 1 else 1, k)
                assert abs(complete_exp_sum(q, a, k) - np.conj(paired)) < 1e-10
                assert direct == pytest.approx(abs(paired) ** 2, abs=1e-10)

    def test_magnitude_bound(self):
        for q, k in [(9, 2), (25, 2), (49, 3)]:
            phi = sum(1 for h in range(1, q + 1) if math.gcd(h, q) == 1)
            for a in range(1, q):
                if math.gcd(a, q) == 1:
                    assert abs(complete_exp_sum(q, a, k)) <= phi + 1e-9


class TestMoments:
    def test_window_11_20_t2(self):
        interval = ShortInterval.from_integer_window(11, 20, 2)
        assert moment_nyquist(interval, 2) == 190
        assert moment_enumeration(interval, 2, unit_weight(interval)) == 190.0

    def test_t1_is_window_count(self):
        for k, lo, hi in [(2, 11, 20), (3, 5, 10), (2, 1, 50)]:
            interval = ShortInterval.from_integer_window(lo, hi, k)
            assert moment_nyquist(interval, 1) == interval.size
            assert moment_enumeration(interval, 1, unit_weight(interval)) == float(
                interval.size
            )

    def test_k3_enum_oracle(self):
        interval = ShortInterval.from_integer_window(5, 10, 3)
        brute = sum(
            1
            for t in itertools.product(range(5, 11), repeat=4)
            if t[0] ** 3 + t[1] ** 3 == t[2] ** 3 + t[3] ** 3
        )
        assert moment_nyquist(interval, 2) == brute
        assert moment_enumeration(interval, 2, unit_weight(interval)) == float(brute)

    def test_prime_weight_oracle(self):
        # Frozen from the four-prime enumeration below.
        interval = ShortInterval.from_integer_window(11, 20, 2)
        primes = [11, 13, 17, 19]
        brute = sum(
            1
            for t in itertools.product(primes, repeat=4)
            if t[0] ** 2 + t[1] ** 2 == t[2] ** 2 + t[3] ** 2
        )
        assert brute == 28
        got = moment_enumeration(interval, 2, prime_indicator(interval))
        assert got == 28.0

    def test_weighted_enumeration_squares_the_weights(self):
        interval = ShortInterval.from_integer_window(3, 7, 2)
        weight = unit_weight(interval)
        doubled = moment_enumeration(
            interval,
            1,
            type(weight)(
                "table", interval, 2.0 * weight.values, 2.0
            ),
        )
        assert doubled == pytest.approx(4.0 * interval.size)

    def test_mean_value_slope_is_recorded_below_gate(self):
        # Growth of the fourth moment against the window half-width for
        # k = 2: the fitted log-slope stays below s - 1 + 0.3 = 3.3.
        xs = [2000, 4000, 8000, 16000]
        logs_y = []
        logs_m = []
        for x in xs:
            n = 5 * x**2
            interval = build_interval(n, 2, 5, 0.85)
            m = moment_enumeration(interval, 2, unit_weight(interval))
            logs_y.append(math.log2(interval.y))
            logs_m.append(math.log2(m))
        slope = np.polyfit(logs_y, logs_m, 1)[0]
        assert slope < 3.3

    def test_nyquist_sample_cap(self):
        interval = ShortInterval.from_integer_window(10**5, 10**5 + 100, 3)
        with pytest.raises(Exception):
            moment_nyquist(interval, 2, sample_cap=10**4)


@pytest.mark.parametrize("k,lo,hi", MOMENT_GRID)
@pytest.mark.parametrize("t", [1, 2])
def test_moment_grid_agreement(k, lo, hi, t):
    interval = ShortInterval.from_integer_window(lo, hi, k)
    sampled = moment_nyquist(interval, t)
    enumerated = moment_enumeration(interval, t, unit_weight(interval))
    assert float(sampled) == enumerated


@pytest.fixture(scope="module")
def medium_window():
    return build_interval(5 * 800**2, 2, 5, 0.85)


class TestVaughan:
    def test_cut_formula(self, medium_window):
        rho = minor_arc_rho(2)
        expected = medium_window.x * medium_window.y ** (-1.0 + 2.0 * rho)
        assert default_bilinear_cut(medium_window) == pytest.approx(expected)

    def test_identity_at_zero(self, medium_window):
        components = vaughan_decompose(medium_window)
        lam = von_mangoldt_weight(medium_window)
        total = float(np.sum(lam.values))
        assert evaluate_components(components, 0.0, medium_window) == pytest.approx(
            total, rel=1e-10
        )

    def test_identity_at_random_frequencies(self, medium_window):
        components = vaughan_decompose(medium_window)
        lam = von_mangoldt_weight(medium_window)
        total = float(np.sum(lam.values))
        rng = np.random.default_rng(2024)
        # Frequencies with dyadic denominators above 2^64 take the exact
        # per-term reduction; the last one still winds m^2 alpha past 100.
        tiny = [2.0**-70, 3.0 * 2.0**-66, (2**52 + 1) * 2.0**-65]
        for alpha in [*rng.uniform(0.0, 1.0, size=100), *tiny]:
            lhs = evaluate_components(components, float(alpha), medium_window)
            rhs = weighted_exp_sum(float(alpha), lam, medium_window)
            assert abs(lhs - rhs) <= 1e-8 * total

    def test_block_ranges(self, medium_window):
        cut = default_bilinear_cut(medium_window)
        components = vaughan_decompose(medium_window)
        top = (medium_window.x + medium_window.y) / cut
        for comp in components:
            if comp.kind == "type-II":
                assert cut <= comp.u_lo and comp.u_hi <= top
            else:
                assert comp.u_hi <= cut * cut

    def test_coefficient_diagnostic_finite(self, medium_window):
        components = vaughan_decompose(medium_window)
        assert 0.0 <= coefficient_diagnostic(components) < math.inf

    def test_cut_out_of_range(self, medium_window):
        with pytest.raises(ValidationError):
            vaughan_decompose(medium_window, X=1.0)
        with pytest.raises(ValidationError):
            vaughan_decompose(
                medium_window, X=2.0 * math.sqrt(medium_window.x + medium_window.y)
            )


class TestWeylScan:
    def test_degenerate_all_major(self):
        interval = build_interval(845, 2, 5, 0.85)
        dissection = ArcDissection.from_parameters(5.0, 4.0)
        report = weyl_scan(interval, dissection, 1000, unit_weight(interval), seed=3)
        assert report.sup_minor == 0.0
        assert not report.minor_inhabited

    def test_major_peak_dominates_minor_sup(self):
        n = 5 * 10**8
        interval = build_interval(n, 2, 5, 0.85)
        dissection = build_dissection(interval, 0.05)
        weight = prime_indicator(interval)
        report = weyl_scan(interval, dissection, 2000, weight, seed=11)
        peak = abs(weighted_exp_sum(0.0, weight, interval))
        assert report.minor_inhabited
        assert report.sup_minor < peak

    def test_rows_and_ratio_are_measurements(self):
        interval = build_interval(845, 2, 5, 0.85)
        dissection = build_dissection(interval, 0.3)
        report = weyl_scan(interval, dissection, 1000, unit_weight(interval), seed=5)
        rho = minor_arc_rho(2)
        norm = interval.y ** (1 - rho)
        for row in report.rows:
            assert row.ratio == pytest.approx(row.abs_f / norm)
        assert report.samples == len(report.rows) == 1000

    def test_reproducible_per_seed(self):
        interval = build_interval(845, 2, 5, 0.85)
        dissection = build_dissection(interval, 0.3)
        w = unit_weight(interval)
        a = weyl_scan(interval, dissection, 1000, w, seed=9)
        b = weyl_scan(interval, dissection, 1000, w, seed=9)
        assert a == b

    def test_sample_floor(self):
        interval = build_interval(845, 2, 5, 0.85)
        dissection = build_dissection(interval, 0.3)
        with pytest.raises(ValidationError):
            weyl_scan(interval, dissection, 10, unit_weight(interval))

    def test_weyl_exponents(self):
        assert weyl_exponent(2) == 2
        assert weyl_exponent(3) == 7
        assert weyl_exponent(5) == 21
        assert minor_arc_rho(2) == pytest.approx(1.0 / 62.0)
