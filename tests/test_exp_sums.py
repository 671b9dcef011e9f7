import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kglab import (
    ArcDissection,
    CapExceeded,
    ConsistencyError,
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
from kglab import exp_sums, representations
from kglab.intervals import _fft_length, divisor_count, divisor_counts, factorize
from kglab.weights import WeightFunction
from conftest import MOMENT_GRID


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


class TestPowersPast128Bits:
    """Windows with hi^k >= 2^128: the wrapped uint64 reduction needs only
    m mod 2^64, so plain and decomposed sums stay exact at this size."""

    CASES = [(5 * (2**43) ** 3, 3, 0.3), (5 * (2**70) ** 2, 2, 0.05)]
    ALPHAS = (0.3183098861837907, 0.7071067811865476, 3.0 * 2.0**-70)

    @staticmethod
    def exact_sum(k, alpha, terms):
        """sum of w e(m^k alpha) over (m, w) pairs, each phase reduced mod 1
        in exact rational arithmetic."""
        from fractions import Fraction

        frac = Fraction(alpha)
        num, den = frac.numerator, frac.denominator
        total = 0j
        for m, w in terms:
            phase = (pow(m, k, den) * num % den) / den
            total += w * complex(math.cos(2 * math.pi * phase), math.sin(2 * math.pi * phase))
        return total

    @pytest.mark.parametrize("n,k,theta", CASES, ids=["hi^3-past-2^128", "hi-past-2^64"])
    def test_weighted_sum_matches_exact_arithmetic(self, n, k, theta):
        interval = build_interval(n, k, 5, theta)
        assert interval.hi**k >= 2**128
        values = np.random.default_rng(5).uniform(-1.0, 1.0, interval.size)
        weight = WeightFunction("table", interval, values, 1.0)
        got = weighted_exp_sum(np.array(self.ALPHAS), weight, interval)
        for alpha, value in zip(self.ALPHAS, got):
            want = self.exact_sum(k, alpha, zip(interval, values.tolist()))
            assert value == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("n,k,theta", CASES, ids=["hi^3-past-2^128", "hi-past-2^64"])
    def test_components_match_exact_arithmetic(self, n, k, theta):
        # Outer variable b = 1 only: the inner power table spans lo / b to hi.
        interval = build_interval(n, k, 5, theta)
        v_lo, v_hi = interval.lo + interval.size // 4, interval.hi - interval.size // 4
        eta = np.random.default_rng(6).uniform(-1.0, 1.0, v_hi - v_lo + 1)
        one = dict(u_lo=1, u_hi=1)
        components = [
            exp_sums.BilinearComponent(kind="type-I", sign=1, xi=np.array([0.75]),
                                       inner_log=True, **one),
            exp_sums.BilinearComponent(kind="type-I", sign=-1, xi=np.array([2.0]), **one),
            exp_sums.BilinearComponent(kind="type-II", sign=1, xi=np.array([-0.5]),
                                       v_lo=v_lo, v_hi=v_hi, eta=eta, **one),
        ]
        got = evaluate_components(components, np.array(self.ALPHAS), interval)
        for alpha, value in zip(self.ALPHAS, got):
            want = (0.75 * self.exact_sum(k, alpha, ((m, math.log(m)) for m in interval))
                    - 2.0 * self.exact_sum(k, alpha, ((m, 1.0) for m in interval))
                    - 0.5 * self.exact_sum(k, alpha, zip(range(v_lo, v_hi + 1), eta.tolist())))
            assert value == pytest.approx(want, abs=1e-9)


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
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_run_lengths_across_chunk_edges(self, dtype, monkeypatch):
        monkeypatch.setattr(representations, "RUN_CHUNK", 4)
        # Runs that end on, straddle and fill whole chunks of 4, and one
        # that spans three chunks.
        for runs in ([4, 4, 4], [3, 2, 7, 1, 4], [1, 11, 2], [5], [1] * 9, [2, 13, 4, 1], []):
            step = 10**20 if dtype is object else 7  # object arrays hold sums past 2^62
            values = np.repeat(np.array([i * step for i in range(len(runs))], dtype=dtype), runs)
            starts = np.cumsum([0] + runs)
            assert representations._run_starts(values).tolist() == starts.tolist(), runs
            uniq, counts = representations._merged((values, 1))
            assert uniq.tolist() == values[starts[:-1]].tolist() and counts.tolist() == runs, runs

    def test_window_11_20_t2(self):
        interval = ShortInterval.from_integer_window(11, 20, 2)
        assert moment_nyquist(interval, 2) == 190
        assert moment_enumeration(interval, 2, unit_weight(interval)) == 190.0

    def test_unit_enumeration_is_the_exact_integer(self):
        # 31 slots on {5, 6}: the collisions number sum_j C(31, j)^2 =
        # C(62, 31), about 4.7e17, past the 2^53 a float holds exactly.
        interval = ShortInterval.from_integer_window(5, 6, 2)
        got = moment_enumeration(interval, 31, unit_weight(interval))
        assert type(got) is int and got == math.comb(62, 31)

    def test_t1_is_window_count(self):
        for k, lo, hi in [(2, 11, 20), (3, 5, 10), (2, 1, 50)]:
            interval = ShortInterval.from_integer_window(lo, hi, k)
            assert moment_nyquist(interval, 1) == interval.size
            assert moment_enumeration(interval, 1, unit_weight(interval)) == float(
                interval.size
            )

    @pytest.mark.parametrize("lo,hi,k", [(5, 5, 2), (1, 2, 2), (2, 3, 2), (1, 2, 3)])
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_short_transforms(self, lo, hi, k, t):
        # N from 1 to 24, with rows = 1 (N = 15) or cols = 1 (N = 1, 4, 8,
        # 16): one row or one column in either pass of the DFT.
        interval = ShortInterval.from_integer_window(lo, hi, k)
        assert float(moment_nyquist(interval, t)) == moment_enumeration(
            interval, t, unit_weight(interval))

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

    @pytest.mark.parametrize("t", [2, 3])
    @pytest.mark.parametrize("weight_fn", [unit_weight, prime_indicator, von_mangoldt_weight])
    def test_enumeration_past_int64_matches_brute_force(self, t, weight_fn):
        # t * 12^40 is far past 2^62, so the sums run in Python integers.
        interval = ShortInterval.from_integer_window(2, 12, 40)
        weight = weight_fn(interval)
        totals = {}
        for tup in itertools.product(interval, repeat=t):
            v = sum(m**40 for m in tup)
            totals[v] = totals.get(v, 0.0) + math.prod(weight(m) for m in tup)
        brute = sum(w * w for w in totals.values())
        got = moment_enumeration(interval, t, weight)
        if weight_fn is von_mangoldt_weight:
            assert got == pytest.approx(brute, rel=1e-12)
        else:
            assert got == brute

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

    def test_weights_on_another_window_are_refused(self):
        # The weight's window must be the one summed over: a weight on
        # 21..30 used to give 6.0 here, and one on 11..25 an IndexError.
        a = ShortInterval.from_integer_window(11, 20, 2)
        b = ShortInterval.from_integer_window(21, 30, 2)
        wider = ShortInterval.from_integer_window(11, 25, 2)
        assert moment_enumeration(a, 2, prime_indicator(a)) == 28.0
        for weight in (prime_indicator(b), unit_weight(wider)):
            with pytest.raises(ValidationError, match="weight was built on the window"):
                moment_enumeration(a, 2, weight)
            with pytest.raises(ValidationError, match="weight was built on the window"):
                weighted_exp_sum(0.1, weight, a)

    def test_nyquist_at_the_edge_of_double_precision(self):
        # A mean of about 4e9, where one ulp is 4.8e-7 against the 1e-6 gate.
        interval = ShortInterval.from_integer_window(1000, 1400, 2)
        assert moment_nyquist(interval, 3) == 3977822531

    def test_nyquist_sample_cap(self, monkeypatch):
        monkeypatch.setattr(exp_sums, "MOMENT_SAMPLE_CAP", 10**4)
        interval = ShortInterval.from_integer_window(10**5, 10**5 + 100, 3)
        with pytest.raises(Exception):
            moment_nyquist(interval, 2)


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

    def test_decomposition_table_cap(self, medium_window, monkeypatch):
        monkeypatch.setattr(exp_sums, "DECOMPOSE_ENTRY_CAP", 10)
        monkeypatch.setattr(exp_sums, "_prime_powers", None)  # never reached
        with pytest.raises(CapExceeded, match=r"^decomposition table entries: \d+ exceeds the cap 10$"):
            vaughan_decompose(medium_window)

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

    @pytest.mark.parametrize("n", [5 * 800**2, 5 * 10**8])
    def test_coefficient_diagnostic_by_divisor_sieve(self, n):
        # Trial division per b is the reference for the sieve, on every b
        # of the decomposition, and for the diagnostic it feeds.
        components = vaughan_decompose(build_interval(n, 2, 5, 0.85))
        reference = 0.0
        for comp in components:
            taus = [divisor_count(b) for b in range(comp.u_lo, comp.u_hi + 1)]
            assert divisor_counts(comp.u_lo, comp.u_hi).tolist() == taus
            if comp.kind == "type-II":
                reference = max(reference, *(abs(float(xi)) / tau**3
                                             for xi, tau in zip(comp.xi, taus)))
        assert coefficient_diagnostic(components) == reference
        if n == 5 * 10**8:  # the spectral benchmark's window
            assert reference == 0.125

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


# ---------------------------------------------------------------------------
# frequency blocks and term chunks against one-frequency calls


def per_frequency_phase_sum(values, lo, hi, k, num, den):
    """The cos/sin kernel of earlier versions, one frequency num/den at a
    time: an independent oracle, to rounding."""
    if den <= 2**64:
        powers = np.array([pow(m, k, 2**64) for m in range(lo, hi + 1)], dtype=np.uint64)
        with np.errstate(over="ignore"):
            prod = powers * np.uint64(num % den * (2**64 // den))
        phases = prod.astype(np.float64) * 2.0**-64
    else:
        phases = np.array([pow(m, k, den) * num % den / den for m in range(lo, hi + 1)])
    ang = 2.0 * np.pi * phases
    re, im = np.cos(ang), np.sin(ang)
    if values is not None:
        re, im = values * re, values * im
    return complex(np.sum(re), np.sum(im))


def per_frequency_component(component, alpha, interval):
    """The per-b decomposition loop of earlier versions on the cos/sin kernel."""
    lo, hi, k = interval.lo, interval.hi, interval.k
    num, den = alpha.as_integer_ratio()
    total = 0.0 + 0.0j
    for i, b in enumerate(range(component.u_lo, component.u_hi + 1)):
        coeff = component.xi[i]
        if coeff == 0.0:
            continue
        v_lo = (lo + b - 1) // b
        v_hi = hi // b
        if component.kind == "type-II":
            v_lo = max(v_lo, component.v_lo)
            v_hi = min(v_hi, component.v_hi)
        if v_hi < v_lo:
            continue
        if component.kind == "type-II":
            inner_w = component.eta[v_lo - component.v_lo : v_hi - component.v_lo + 1]
        elif component.inner_log:
            inner_w = np.log(np.arange(v_lo, v_hi + 1, dtype=np.float64))
        else:
            inner_w = None
        total += coeff * per_frequency_phase_sum(inner_w, v_lo, v_hi, k, num * b**k, den)
    return component.sign * total


# Dyadic denominators above 2^64 (exact per-term rows) mixed with fast rows.
SLOW = [2.0**-70, 3.0 * 2.0**-66, (2**52 + 1) * 2.0**-65]


def test_weyl_scan_refuses_a_weight_on_another_window():
    interval = build_interval(845, 2, 5, 0.85)
    dissection = build_dissection(interval, 0.3)
    other = build_interval(2005, 2, 5, 0.85)
    with pytest.raises(ValidationError, match="weight was built on the window"):
        weyl_scan(interval, dissection, 1000, prime_indicator(other))


class TestFrequencyBlocks:
    @pytest.mark.parametrize("budget", [None, 40])
    def test_decomposition_rows_match_per_frequency_loop(self, medium_window,
                                                         budget, monkeypatch):
        # budget 40 puts chunk edges every 40 (b, v) terms, inside the
        # slices of one b and across them, and blocks of one frequency.
        if budget is not None:
            monkeypatch.setattr(exp_sums, "_BLOCK_TERMS", budget)
        components = vaughan_decompose(medium_window)
        rng = np.random.default_rng(5)
        alphas = [*rng.uniform(0.0, 1.0, size=4), SLOW[0], 0.0, *SLOW[1:],
                  *rng.uniform(-2.0, 2.0, size=3)]
        got = evaluate_components(components, np.array(alphas), medium_window)
        assert got.shape == (len(alphas),)
        total = float(np.sum(von_mangoldt_weight(medium_window).values))
        for j, alpha in enumerate(alphas):
            assert complex(got[j]) == evaluate_components(components, alpha, medium_window)
            old = sum(per_frequency_component(c, alpha, medium_window) for c in components)
            assert abs(got[j] - old) <= 1e-12 * total, alpha
        one = components[len(components) // 2]
        rows = evaluate_components([one], np.array(alphas), medium_window)
        assert [complex(r) for r in rows] == [
            evaluate_components([one], a, medium_window) for a in alphas
        ]

    def test_scalar_call_is_the_one_row_case(self, medium_window):
        components = vaughan_decompose(medium_window)
        alpha = 0.3183098861837907
        value = evaluate_components(components, alpha, medium_window)
        assert isinstance(value, complex)
        assert value == complex(evaluate_components(components, np.array([alpha]),
                                                    medium_window)[0])

    def test_direct_sum_split_at_a_block_edge(self):
        interval = build_interval(5 * 10**8, 2, 5, 0.85)
        weight = von_mangoldt_weight(interval)
        per_block = exp_sums._BLOCK_TERMS // len(weight.support)
        assert 1 < per_block < 30
        rng = np.random.default_rng(8)
        alphas = list(rng.uniform(0.0, 1.0, size=2 * per_block + 3))
        # Slow rows on both sides of the first block edge, and alpha = 0.
        alphas[per_block - 1], alphas[per_block] = SLOW[0], SLOW[2]
        alphas[per_block + 1] = 0.0
        got = weighted_exp_sum(np.array(alphas), weight, interval)
        bound = 1e-12 * float(np.sum(weight.values))
        for j, alpha in enumerate(alphas):
            assert complex(got[j]) == weighted_exp_sum(alpha, weight, interval), j
            old = per_frequency_phase_sum(weight.values, interval.lo, interval.hi, 2,
                                          *alpha.as_integer_ratio())
            assert abs(got[j] - old) <= bound, j
        assert got[per_block + 1] == pytest.approx(np.sum(weight.values), rel=1e-15)

    @pytest.mark.parametrize("budget", [None, 1000])
    def test_blocks_hold_at_most_the_budget(self, budget, monkeypatch):
        # Chunks of at most the budget in terms; a chunk longer than half
        # the budget goes one frequency per block.
        if budget is not None:
            monkeypatch.setattr(exp_sums, "_BLOCK_TERMS", budget)
        interval = build_interval(5 * 10**8, 2, 5, 0.85)
        budget = exp_sums._BLOCK_TERMS
        shapes = []
        kernel = exp_sums._weighted_e64

        def spy(phases, *args):
            shapes.append(phases.shape)
            kernel(phases, *args)

        monkeypatch.setattr(exp_sums, "_weighted_e64", spy)
        weighted_exp_sum(np.linspace(0.0, 1.0, 40), unit_weight(interval), interval)
        want = []
        for start in range(0, interval.size, budget):
            size = min(budget, interval.size - start)
            per_block = max(1, budget // size)
            want += [(per_block, size)] * (40 // per_block)
            want += [(40 % per_block, size)] if 40 % per_block else []
        assert shapes == want
        assert max(rows * size for rows, size in shapes) <= budget

    @pytest.mark.parametrize("weight_fn", [unit_weight, prime_indicator, von_mangoldt_weight])
    def test_scan_rows_match_per_sample_loop(self, weight_fn, monkeypatch):
        # A budget of 200 terms splits every weight into chunks, and the
        # last chunk holds several frequencies per block.
        monkeypatch.setattr(exp_sums, "_BLOCK_TERMS", 200)
        interval = build_interval(5 * 3000**2, 2, 5, 0.85)
        dissection = build_dissection(interval, 0.3)
        weight = weight_fn(interval)
        terms = len(weight.support)
        assert terms > 200 and 0 < terms % 200 < 100
        report = weyl_scan(interval, dissection, 1000, weight, seed=4)
        alphas = np.random.default_rng(4).uniform(
            1.0 / dissection.Q, 1.0 + 1.0 / dissection.Q, size=1000)
        for row, alpha in zip(report.rows, alphas):
            value = abs(weighted_exp_sum(float(alpha), weight, interval))
            assert (row.alpha, row.abs_f) == (float(alpha), value)

    def test_first_sample_over_the_bound_raises(self):
        interval = build_interval(5 * 3000**2, 2, 5, 0.85)
        dissection = build_dissection(interval, 0.3)
        alphas = np.random.default_rng(6).uniform(
            1.0 / dissection.Q, 1.0 + 1.0 / dissection.Q, size=1000)
        unit = unit_weight(interval)
        values = [abs(weighted_exp_sum(float(a), unit, interval)) for a in alphas]
        # A unit weight declaring a bound below the third largest |f|.
        bound = sorted(values)[-3] / interval.size
        trivial = bound * interval.size + 1e-9 * max(1.0, bound * interval.size)
        first = next(j for j, v in enumerate(values) if v > trivial)
        assert first >= exp_sums._BLOCK_TERMS // interval.size  # not in the first block
        weight = WeightFunction("unit", interval, np.ones(interval.size), bound)
        with pytest.raises(ConsistencyError) as exc:
            weyl_scan(interval, dissection, 1000, weight, seed=6)
        assert str(exc.value) == f"|f| = {values[first]} exceeds the trivial bound {trivial}"


# Windows for the accuracy test: k = 2 and 3, and lo past 2^64.
ACCURACY_WINDOWS = [(10**6, 2), (12345, 3), (2**64 + 2**40 + 17, 2), (2**70 + 5, 3)]


@pytest.mark.parametrize("lo,k", ACCURACY_WINDOWS, ids=["k2", "k3", "k2-past-2^64", "k3-past-2^70"])
def test_kernel_accuracy_against_mpmath(lo, k):
    # The same exact phases summed in 40-digit arithmetic.  The bound holds
    # for the table kernel and for the cos/sin kernel it replaced.
    mpmath = pytest.importorskip("mpmath")
    from fractions import Fraction

    interval = ShortInterval(x=float(lo), y=100.0, k=k, lo=lo, hi=lo + 199)
    values = np.random.default_rng(lo % 1000).uniform(-1.0, 1.0, interval.size)
    weight = WeightFunction("table", interval, values, 1.0)
    alphas = [*np.random.default_rng(k).uniform(0.0, 1.0, size=4), 0.5, *SLOW]
    got = weighted_exp_sum(np.array(alphas), weight, interval)
    bound = 2e-16 * float(np.sum(np.abs(values)))
    with mpmath.workdps(40):
        for alpha, value in zip(alphas, got):
            frac = Fraction(alpha)
            want = mpmath.fsum(
                w * mpmath.expjpi(2 * mpmath.mpf(pow(m, k, frac.denominator) * frac.numerator
                                                 % frac.denominator) / frac.denominator)
                for m, w in zip(interval, values.tolist()))
            old = per_frequency_phase_sum(values, interval.lo, interval.hi, k,
                                          *alpha.as_integer_ratio())
            assert abs(mpmath.mpc(complex(value)) - want) <= bound, alpha
            assert abs(mpmath.mpc(old) - want) <= bound, alpha


def test_decomposition_memory_does_not_grow_with_the_window():
    # The same three components over windows of 2^16 and 2^19 integers:
    # the evaluation allocates chunk buffers, never a table over the window.
    import tracemalloc

    peaks = []
    for size in (2**16, 2**19):
        interval = ShortInterval.from_integer_window(2**20, 2**20 + size - 1, 2)
        eta = np.random.default_rng(1).uniform(-1.0, 1.0, size)
        components = [
            exp_sums.BilinearComponent(kind="type-I", sign=1, u_lo=1, u_hi=2,
                                       xi=np.array([1.0, -1.0]), inner_log=True),
            exp_sums.BilinearComponent(kind="type-I", sign=-1, u_lo=1, u_hi=3,
                                       xi=np.array([0.5, 0.0, 2.0])),
            exp_sums.BilinearComponent(kind="type-II", sign=1, u_lo=1, u_hi=1, xi=np.ones(1),
                                       v_lo=interval.lo, v_hi=interval.hi, eta=eta),
        ]
        alphas = np.random.default_rng(2).uniform(0.0, 1.0, 4)
        evaluate_components(components, alphas, interval)  # tables built on first use
        tracemalloc.start()
        evaluate_components(components, alphas, interval)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0] + 4096
    assert peaks[1] < 8 * 2**19  # less than one uint64 per integer of the window


# ---------------------------------------------------------------------------
# Nyquist moments at padded lengths


@pytest.mark.parametrize("k,lo,hi,t,prime,padded_odd", [
    (2, 41, 55, 2, True, False),      # 2,689 prime, padded to 64 * 45
    (2, 110, 132, 3, True, False),    # 15,973 prime, padded to 128 * 125
    (3, 13, 33, 2, True, False),      # 67,481 prime, padded to 512 * 135
    (2, 1, 4, 2, True, False),        # 31 prime, padded to 32 * 1
    (2, 2, 5, 2, True, True),         # 43 prime, padded to 1 * 45
    (2, 208, 214, 2, False, False),   # 5 * 1013, padded to 64 * 81
    (3, 22, 28, 3, False, False),     # 11 * 3083, padded to 256 * 135
    (3, 1, 2, 2, False, True),        # 3 * 5, unpadded as 1 * 15
])
def test_moment_at_awkward_lengths(k, lo, hi, t, prime, padded_odd):
    size = t * (hi**k - lo**k) + 1
    largest = max(p for p, _ in factorize(size))
    assert (largest == size) == prime and (largest > 1000 or size <= 64)
    rows, cols = exp_sums._moment_split(size)
    assert (rows * cols) % 2 == padded_odd == (rows == 1)
    interval = ShortInterval.from_integer_window(lo, hi, k)
    assert float(moment_nyquist(interval, t)) == moment_enumeration(
        interval, t, unit_weight(interval))


def test_moment_split_is_the_least_coprime_product():
    odd = sorted(3**b * 5**c for b in range(10) for c in range(7))
    for size in range(1, 5000):
        rows, cols = exp_sums._moment_split(size)
        assert rows * cols >= size and math.gcd(rows, cols) == 1, size
        assert rows & (rows - 1) == 0 and cols in odd, size
        allowed = [1 << a for a in range(16) if size <= 64 * 4**a <= 4096 * size]
        assert rows in allowed, size
        assert rows * cols == min(r * next(c for c in odd if r * c >= size)
                                  for r in allowed), size


@st.composite
def moment_windows(draw):
    """(k, lo, hi, t) with k <= 4, t <= 3, at most 40 integers and at most
    3 * 10^5 sample points."""
    k, t, lo = draw(st.integers(2, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 60))
    widest = max(w for w in range(1, 41) if t * ((lo + w - 1)**k - lo**k) < 300_000)
    return k, lo, lo + draw(st.integers(0, widest - 1)), t


@given(moment_windows())
@settings(max_examples=40, deadline=None)
def test_nyquist_matches_enumeration_on_random_windows(window):
    k, lo, hi, t = window
    interval = ShortInterval.from_integer_window(lo, hi, k)
    assert float(moment_nyquist(interval, t)) == moment_enumeration(
        interval, t, unit_weight(interval))


def test_fft_length_is_the_least_5_smooth_bound():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    want = None
    for size in range(5000, 0, -1):
        if smooth(size):
            want = size
        assert _fft_length(size) == want, size
