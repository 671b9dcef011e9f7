import math
import mpmath as mp
import numpy as np
import pytest

from kglab import (
    ArcDissection,
    MinorArcError,
    ValidationError,
    build_interval,
    complete_exp_sum,
    euler_phi,
    local_count_identity_check,
    major_arc_approx,
    phase_integral,
    predict_main_term,
    prime_indicator,
    singular_integral,
    singular_series,
    singular_series_term,
    weighted_exp_sum,
)

GOLDEN_SERIES_29 = 38.106191209377585       # k=2, s=5, qmax=10^4
GOLDEN_PREDICTION_838349 = 41178.844004591636  # k=2, s=5, theta=0.85, qmax=10^4
GOLDEN_PREDICTION_CUBES = 0.13482199175283835  # n=5*11^3, k=3, s=5, theta=0.85, qmax=10^3


class TestSeriesTerm:
    def test_q1_is_one(self):
        for n in (1, 29, 10**6 + 3):
            assert singular_series_term(1, n, 2, 5) == 1.0

    def test_two_adic_anchor(self):
        assert singular_series_term(2, 5, 2, 5) == pytest.approx(1.0, abs=1e-12)

    def test_small_modulus_hand_value(self):
        # q = 4, k = 2, s = 5, n = 29: both unit sums are +/- 2i.
        direct = 0.0 + 0.0j
        for a in (1, 3):
            s_val = sum(
                complex(math.cos(2 * math.pi * a * h * h / 4),
                        math.sin(2 * math.pi * a * h * h / 4))
                for h in (1, 3)
            )
            phase = complex(math.cos(-2 * math.pi * a * 29 / 4),
                            math.sin(-2 * math.pi * a * 29 / 4))
            direct += s_val**5 * phase / 2**5
        assert singular_series_term(4, 29, 2, 5) == pytest.approx(direct.real, abs=1e-10)

    def test_multiplicative_on_coprime_pairs(self):
        rng = np.random.default_rng(17)
        pairs = [
            (q1, q2)
            for q1 in range(2, 15)
            for q2 in range(q1 + 1, 201)
            if q1 * q2 <= 200 and math.gcd(q1, q2) == 1
        ]
        for n in rng.integers(1, 10**6, size=20):
            n = int(n)
            for q1, q2 in pairs:
                prod = singular_series_term(q1, n, 2, 5) * singular_series_term(
                    q2, n, 2, 5
                )
                joint = singular_series_term(q1 * q2, n, 2, 5)
                assert abs(joint - prod) <= 1e-8 * max(1.0, abs(joint), abs(prod))

    def test_fft_and_direct_paths_agree(self):
        # complete_exp_sums switches from the exact-index table to the DFT
        # above q = 512; both sides must match an inline exact-index sum.
        from kglab.exp_sums import complete_exp_sums

        for q in (509, 510, 513, 600):
            for k in (2, 3):
                units, sums = complete_exp_sums(q, k)
                hs = [h for h in range(1, q + 1) if math.gcd(h, q) == 1]
                assert units.tolist() == hs
                powers = np.array([pow(h, k, q) for h in hs])
                phases = np.outer(np.arange(q), powers) % q / q
                exact = np.exp(2j * np.pi * phases).sum(axis=1)
                assert np.allclose(sums, exact, rtol=0.0, atol=1e-9)


class TestDivisorSumIdentity:
    def test_trivial_q1(self):
        assert local_count_identity_check(1, 29, 2, 5)

    def test_local_modulus(self):
        assert local_count_identity_check(24, 29, 2, 5)

    def test_cubes(self):
        for n in (7, 100, 845):
            assert local_count_identity_check(9, n, 3, 5)

    @pytest.mark.parametrize("q", [2, 6, 12, 30, 47, 64, 96, 100])
    def test_sampled_moduli(self, q):
        rng = np.random.default_rng(q)
        for n in rng.integers(1, 10**6, size=5):
            assert local_count_identity_check(q, int(n), 2, 5)
            assert local_count_identity_check(q, int(n), 3, 5)


class TestSingularSeries:
    def test_positive_anchor(self):
        est = singular_series(29, 2, 5, 10**4)
        assert est.value > 0.5
        assert est.flag == "ok"
        assert est.value == pytest.approx(GOLDEN_SERIES_29, rel=1e-9)

    def test_obstructed_even_n(self):
        est = singular_series(28, 2, 5, 10**4)
        assert est.obstructed
        sigma2 = dict((p, s) for p, s in est.p_local)[2]
        assert abs(sigma2) < 1e-9

    def test_assemblies_track_each_other(self):
        # The two truncations differ by composite cross terms; the gap is
        # a tail effect of order 1/qmax, far below the series itself.
        est = singular_series(29, 2, 5, 10**4)
        assert abs(est.value - est.value_direct) < 1e-3 * abs(est.value)

    def test_truncation_stability(self):
        coarse = singular_series(29, 2, 5, 10**3)
        fine = singular_series(29, 2, 5, 10**4)
        assert abs(coarse.value - fine.value) < 0.01 * abs(fine.value)

    def test_requires_s_at_least_three(self):
        with pytest.raises(ValidationError):
            singular_series(29, 2, 2, 100)

    def test_requires_qmax_at_least_local_modulus(self):
        with pytest.raises(ValidationError):
            singular_series(29, 2, 5, 20)


class TestPhaseIntegral:
    def test_zero_frequency_order_one(self):
        interval = build_interval(845, 2, 5, 0.85)
        assert phase_integral(0.0, interval, 1.0) == pytest.approx(2 * interval.y)

    def test_zero_frequency_power_rule(self):
        interval = build_interval(845, 2, 5, 0.85)
        x, y = interval.x, interval.y
        for order in (2.0, 3.0, 5.0):
            expected = ((x + y) ** order - (x - y) ** order) / order
            assert phase_integral(0.0, interval, order).real == pytest.approx(expected)

    def test_against_mpmath_quadrature(self):
        interval = build_interval(845, 2, 5, 0.85)
        x, y = interval.x, interval.y
        for beta in (1e-4, 3e-3, 1e-2):
            mine = phase_integral(beta, interval, 1.0)
            ref = mp.quad(
                lambda u: mp.e ** (2j * mp.pi * (u**2) * beta),
                [x - y, x + y],
                maxdegree=12,
            )
            assert mine == pytest.approx(complex(ref), abs=1e-10)

    def test_trivial_bound_and_decay(self):
        interval = build_interval(845, 2, 5, 0.85)
        x, y, k = interval.x, interval.y, interval.k
        scale = 1.0 / (y * x ** (k - 1))
        for beta in np.linspace(0.0, 0.02, 25):
            val = abs(phase_integral(float(beta), interval, 1.0))
            assert val <= 2 * y + 1e-9
            if beta > 3 * scale:
                assert val < 2 * y * 0.9

    def test_rejects_large_beta(self):
        interval = build_interval(845, 2, 5, 0.85)
        with pytest.raises(ValidationError):
            phase_integral(1.5, interval, 1.0)


class TestSingularIntegral:
    def test_outside_support_is_zero(self):
        interval = build_interval(845, 2, 5, 0.85)
        assert singular_integral(10**9, interval, 2, 5).value == 0.0
        low = int(5 * (interval.x - interval.y) ** 2) - 2
        assert singular_integral(low, interval, 2, 5).value == 0.0

    def test_center_cross_method(self):
        interval = build_interval(845, 2, 5, 0.85)
        est = singular_integral(845, interval, 2, 5, method="both")
        assert not est.flagged
        assert est.alt_value == pytest.approx(est.value, rel=0.01)

    def test_methods_individually(self):
        interval = build_interval(845, 2, 5, 0.85)
        quad = singular_integral(845, interval, 2, 5, method="fourier-quadrature")
        conv = singular_integral(845, interval, 2, 5, method="density-convolution")
        assert quad.value == pytest.approx(conv.value, rel=0.01)
        assert quad.method == "fourier-quadrature"
        assert conv.method == "density-convolution"

    def test_size_shape_at_center(self):
        for k, s, n0 in [(2, 5, 845), (2, 7, 7 * 13**2), (3, 5, 5 * 11**3)]:
            interval = build_interval(n0, k, s, 0.85)
            est = singular_integral(n0, interval, k, s)
            ratio = est.value / (
                interval.y ** (s - 1) * interval.x ** (1 - k)
            )
            assert 1e-2 <= ratio <= 1e2

    def test_nonnegative(self):
        interval = build_interval(845, 2, 5, 0.85)
        lo_t = 5 * (interval.x - interval.y) ** 2
        hi_t = 5 * (interval.x + interval.y) ** 2
        for n in np.linspace(lo_t + 1, hi_t - 1, 9):
            assert singular_integral(int(n), interval, 2, 5).value >= 0.0


@pytest.fixture(scope="module")
def setup():
    n = 5 * 10**8
    interval = build_interval(n, 2, 5, 0.85)
    dissection = ArcDissection.from_parameters(4.0, interval.y**2 / 4.0)
    return interval, dissection


class TestMajorArcApprox:

    def test_exact_center_closed_form(self, setup):
        # Dyadic centers are exact floats; thirds carry a representation
        # offset of ~1e-17 which the center phase x^k * beta amplifies to
        # ~1e-8, so they get a correspondingly looser gate.
        interval, dissection = setup
        big_l = math.log(interval.x)
        for q, a, rel in [(1, 1, 1e-9), (2, 1, 1e-9), (3, 1, 1e-6), (3, 2, 1e-6)]:
            got = major_arc_approx(a / q, dissection, interval, kappa=1.0)
            expected = (
                complete_exp_sum(q, a, 2) / euler_phi(q) * 2 * interval.y / big_l
            )
            assert got == pytest.approx(expected, rel=rel)

    def test_kappa_scales_linearly(self, setup):
        interval, dissection = setup
        base = major_arc_approx(0.5, dissection, interval, kappa=1.0)
        assert major_arc_approx(0.5, dissection, interval, kappa=0.99) == pytest.approx(
            0.99 * base
        )

    def test_magnitude_bound(self, setup):
        interval, dissection = setup
        big_l = math.log(interval.x)
        cap = 2 * interval.y / big_l
        rng = np.random.default_rng(12)
        for arc in dissection.arcs:
            offset = float(rng.uniform(-arc.half_width, arc.half_width))
            value = abs(major_arc_approx(arc.center + offset, dissection, interval))
            assert value <= cap * 1.0000001

    def test_minor_arc_raises(self, setup):
        interval, dissection = setup
        with pytest.raises(MinorArcError):
            major_arc_approx(0.6180339887, dissection, interval)

    def test_desk_scale_agreement_with_prime_phase_sum(self, setup):
        # At arc centers with q <= 3 the approximant tracks the true
        # prime phase sum to well under the 0.2 relative desk gate.
        interval, dissection = setup
        weight = prime_indicator(interval)
        big_l = math.log(interval.x)
        norm = 2 * interval.y / big_l
        for q, a in [(1, 1), (2, 1), (3, 1), (3, 2)]:
            truth = weighted_exp_sum(a / q, weight, interval)
            approx = major_arc_approx(a / q, dissection, interval)
            assert abs(truth - approx) / norm < 0.2


class TestPrediction:
    def test_golden_pipeline_value(self):
        report = predict_main_term(838349, 2, 5, 0.85, qmax=10**4)
        assert report.admissible
        assert not report.obstructed
        assert report.prediction == pytest.approx(GOLDEN_PREDICTION_838349, rel=1e-6)

    def test_golden_cube_pipeline_value(self):
        report = predict_main_term(5 * 11**3, 3, 5, 0.85, qmax=10**3)
        assert report.admissible
        assert report.prediction == pytest.approx(GOLDEN_PREDICTION_CUBES, rel=1e-6)

    def test_normalized_constant_consistency(self):
        report = predict_main_term(838349, 2, 5, 0.85, qmax=10**3)
        interval = build_interval(838349, 2, 5, 0.85)
        expected = (
            report.series.value
            * report.integral.value
            * interval.y ** (1 - 5)
            * interval.x ** (2 - 1)
        )
        assert report.normalized_constant == pytest.approx(expected, rel=1e-12)

    def test_obstructed_prediction_is_tiny(self):
        report = predict_main_term(838348, 2, 5, 0.85, qmax=10**3)
        assert not report.admissible
        assert report.obstructed
        assert abs(report.prediction) < 1e-3

    def test_pure_recomputation(self):
        a = predict_main_term(845, 2, 5, 0.85, qmax=10**3)
        b = predict_main_term(845, 2, 5, 0.85, qmax=10**3)
        assert a.prediction == b.prediction
