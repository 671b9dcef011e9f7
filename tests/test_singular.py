import math
import mpmath as mp
import numpy as np
import pytest

from kglab import (
    ArcDissection,
    MinorArcError,
    SingularIntegralEstimate,
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
        # complete_exp_sums takes the DFT of the power residue counts; it
        # must match an inline exact-index sum at prime and composite q.
        from kglab.local_conditions import complete_exp_sums

        for q in (509, 510, 513, 600):
            for k in (2, 3):
                units, sums = complete_exp_sums(q, k)
                hs = [h for h in range(1, q + 1) if math.gcd(h, q) == 1]
                assert units.tolist() == hs
                powers = np.array([pow(h, k, q) for h in hs])
                phases = np.outer(np.arange(q), powers) % q / q
                exact = np.exp(2j * np.pi * phases).sum(axis=1)
                assert np.allclose(sums, exact, rtol=0.0, atol=1e-9)


def oracle_terms(q, ns, k, svals, phases=None):
    """The complete-sum term at q for each n and each s in ``svals``: the
    (S/phi)^s table over the units times e(-a n / q), summed over the
    units a.  ``phases`` may hold the e(-a n / q) matrix."""
    from kglab.local_conditions import complete_exp_sums

    units, sums = complete_exp_sums(q, k)
    if phases is None:
        phases = oracle_phases(q, ns)
    return [phases @ (sums[units % q] / len(units)) ** s for s in svals]


def oracle_phases(q, ns):
    units = np.array([h for h in range(1, q + 1) if math.gcd(h, q) == 1])
    residues = np.array([n % q for n in ns], dtype=np.int64)
    return np.exp(-2j * np.pi * (residues[:, None] * units[None, :] % q) / q)


# n = 0 mod every q, units and non-units mod every small p, a product of
# the primes 17..43 (0 mod p but not mod p^2), and two large targets.
ORACLE_TARGETS = [0, *range(1, 14), 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43,
                  838349, 10**30 + 5]


class TestTermTable:
    def test_matches_complete_sum_oracle(self):
        from kglab.singular import _series_terms, _term_table

        cases = [(k, s) for k in (2, 3, 4, 5, 6) for s in (3, 5, 7)]
        tables = {}
        for k, s in cases:
            tables[k, s] = _series_terms(ORACLE_TARGETS, k, s, 2000)
        for col, q in enumerate(_term_table(2, 3, 2000).moduli.tolist()):
            phases = oracle_phases(q, ORACLE_TARGETS)
            for k in (2, 3, 4, 5, 6):
                expected = oracle_terms(q, ORACLE_TARGETS, k, (3, 5, 7), phases)
                for s, want in zip((3, 5, 7), expected):
                    gap = np.abs(tables[k, s][:, col] - want.real)
                    assert np.all(gap <= 1e-14 * np.maximum(1.0, np.abs(want))), (k, s, q)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 8, 9, 12])
    def test_exact_zeros_above_gamma(self, k):
        from kglab.local_conditions import prime_exponents
        from kglab.singular import _series_terms, _term_table

        table = _term_table(k, 5, 2000)
        terms = _series_terms(ORACLE_TARGETS, k, 5, 2000)
        col = 0
        for p, powers in groups_of(table):
            _, gamma = prime_exponents(p, k)
            for j, q in enumerate(powers, start=1):
                if j > gamma:
                    assert np.all(terms[:, col] == 0.0), (k, q)
                    if p <= 50:
                        oracle = oracle_terms(q, ORACLE_TARGETS, k, (5,))[0]
                        assert np.all(np.abs(oracle) < 1e-12), (k, q)
                col += 1

    def test_cubes_keep_the_term_at_nine(self):
        # 3 | k but (3 - 1) does not divide 3, so 3 is outside the local
        # modulus; still gamma(3) = 2 and the term at q = 9 is not zero.
        from kglab.local_conditions import local_profile
        from kglab.singular import _series_terms, _term_table

        assert 3 not in [p for p, _, _ in local_profile(3).factors]
        col = _term_table(3, 5, 2000).moduli.tolist().index(9)
        terms = _series_terms(ORACLE_TARGETS, 3, 5, 2000)
        expected = oracle_terms(9, ORACLE_TARGETS, 3, (5,))[0].real
        assert np.max(np.abs(expected)) > 0.1
        assert np.allclose(terms[:, col], expected, rtol=0.0, atol=1e-14)

    def test_tables_are_real_and_checked_when_built(self, monkeypatch):
        from kglab import ConsistencyError, sweep
        from kglab.singular import _term_table

        # At k = 3 the table holds every kind of column: unit-power laws
        # (q = 2, 3, 9), real by construction, and keyed closed-form (d = 1)
        # and primitive-root (d = 3) periods, checked for their residue.  At
        # k = 2 the closed form and the unit-power laws leave no residue.
        table = _term_table(3, 5, 1000)
        for array in (table.values, *(column for _, _, column in table.local)):
            assert array.dtype == np.float64
        # Below the table's largest residue, building it fails on its first
        # column past the tolerance, and every row that reaches the series
        # carries that one error; rows that fail earlier keep their own.
        monkeypatch.setattr("kglab.singular.IMAG_RESIDUE_TOL", 1e-30)
        _term_table.cache_clear()
        try:
            with pytest.raises(ConsistencyError) as caught:
                singular_series(845, 3, 5, 1000)
            message = str(caught.value)
            assert message.startswith("series terms at q=")
            rows = sweep([1, 845, 846, 901], 3, 5, 0.85, 1000)
        finally:
            _term_table.cache_clear()
        assert rows[0].error.startswith("need n >= ")
        assert [row.error for row in rows[1:]] == [message] * 3
        assert all(row.prediction is None for row in rows)

    @pytest.mark.parametrize("s", [10**3, 10**5, 10**7])
    def test_local_modulus_terms_are_exact_at_any_s(self, s):
        # The terms of the primes of the local modulus are Ramanujan sums
        # c_q(n - s); n - s = 10200 s is 0 mod 8 and mod 3.  As complex s-th
        # powers they drifted: q = 3 read 1.9999999999913094 at s = 10^5.
        from kglab.singular import _series_terms, _term_table

        moduli = _term_table(2, s, 100).moduli.tolist()
        terms = _series_terms([10201 * s], 2, s, 100)[0]
        for q, want in [(2, 1.0), (3, 2.0), (4, 2.0), (8, 4.0)]:
            assert abs(terms[moduli.index(q)] - want) <= 1e-13, (s, q)

    @pytest.mark.parametrize("k, p, q", [(3, 3, 9), (27, 3, 81), (50, 5, 125), (55, 11, 121)])
    def test_local_columns_match_exact_unit_solution_counts(self, k, p, q):
        # A(q, n) = chi_q(n) - chi_(q/p)(n) with chi_m = m M_m / phi(m)^s, M_m
        # the exact counts of unit tuples; the complex FFT columns these
        # replace were 5.1e-13 off at k = 55, q = 121, s = 1000.
        from fractions import Fraction

        from kglab.local_conditions import unit_solution_counts
        from kglab.singular import _local_column

        for s in (5, 100, 1000):
            chis = [[Fraction(m * int(c), euler_phi(m) ** s) for c in unit_solution_counts(m, k, s)]
                    for m in (q // p, q)]
            exact = np.array([float(chis[1][n] - chis[0][n % (q // p)]) for n in range(q)])
            assert np.max(np.abs(_local_column(q, p, k, s) - exact)) <= 1e-14, (k, q, s)

    def test_local_columns_keep_their_mass_at_huge_s(self):
        # At k = 59 the true terms at q = 59 and 59^2 are below 1e-15 for
        # s = 10^9; without dividing each law by its own total, the rounding
        # of its mass doubled per squaring and q = 59 read 1.8e-7.
        from kglab.singular import _local_column

        for q in (59, 59**2):
            assert np.max(np.abs(_local_column(q, 59, 59, 10**9))) < 1e-14, q

    def test_unreachable_residues_give_exact_zeros(self):
        # Unit cubes are +-1 mod 9 and unit ninth powers +-1 mod 27, so no sum
        # of five is 1001 = 2 mod 9 and none of eleven is 12345679 = 10 mod 27;
        # the FFT columns left sigma_3 = 4.4e-16 and -1.3e-15 there.
        est = singular_series(1001, 3, 5, 1000)
        assert est.value == 0.0 and dict(est.p_local)[3] == 0.0
        assert est.obstructed
        assert dict(singular_series(12345679, 9, 11, 10**4).p_local)[3] == 0.0

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 10])
    def test_closed_form_periods_match_primitive_root_sums(self, k):
        from kglab.intervals import sieve_upto
        from kglab.singular import _closed_form_periods, _primitive_root_periods

        primes = np.array(sieve_upto(1999), dtype=np.int64)
        ds = np.gcd(primes - 1, k)
        assert np.count_nonzero(ds <= 2) > 100
        for d in (1, 2):  # d = 1 only for p = 2 at even k, d = 2 never at odd k
            chosen = primes[ds == d]
            periods, classes = _closed_form_periods(chosen, d)
            for p, row, row_classes in zip(chosen.tolist(), periods, classes):
                want, want_classes = _primitive_root_periods(p, k)
                assert row_classes.tolist() == want_classes[0].tolist(), (k, p)
                # (p - 1) / d unit roots summed, each within a few ulps
                assert np.max(np.abs(row - want[0])) <= 1e-15 * p, (k, p)

    def test_series_at_the_cap_agrees_with_the_default_truncation(self):
        # The whole series at QMAX_CAP, against the default truncation.
        from kglab.singular import QMAX_CAP

        for n in (29, 838349):
            capped = singular_series(n, 2, 5, QMAX_CAP).value
            assert capped == pytest.approx(singular_series(n, 2, 5, 10**4).value, rel=1e-6)

    def test_one_target_series_is_the_batched_value(self):
        from kglab.singular import _series_values

        for n in (29, 838349, 838348, 10**30 + 5):
            assert singular_series(n, 2, 5, 10**4).value == _series_values([n], 2, 5, 10**4)[0]

    def test_table_cache_is_bounded(self):
        # The bytes stated beside TERM_TABLES: all that a freshly built table
        # holds, by tracemalloc (110,272 at k = 2, qmax = 1e4), not only the
        # nbytes of its arrays.  A list of lists of its prime powers would
        # add about 110,000.
        import tracemalloc

        from kglab.singular import TERM_TABLES, _term_table

        assert _term_table.cache_info().maxsize == TERM_TABLES <= 4
        tracemalloc.start()
        try:
            table = _term_table.__wrapped__(2, 5, 10**4)
            held = tracemalloc.get_traced_memory()[0]
            arrays = sum(a.nbytes for a in table[:7]) + sum(c.nbytes for _, _, c in table.local)
            del table
            retained = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert arrays <= retained <= 120_000


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


def groups_of(table):
    # [(p, [p, p^2, ...]), ...] from the columns of a term table.
    groups = {}
    for p, q in zip(table.bases.tolist(), table.moduli.tolist()):
        groups.setdefault(p, []).append(q)
    return list(groups.items())


def loop_multiplicative_assembly(terms, groups):
    # The assembly as one loop over primes, each factor summed power by power.
    product = np.ones(len(terms))
    sigmas = np.empty((len(terms), len(groups)))
    col = 0
    for i, (_, powers) in enumerate(groups):
        sigma = np.ones(len(terms))
        for _ in powers:
            sigma = sigma + terms[:, col]
            col += 1
        sigmas[:, i] = sigma
        product = product * sigma
    return product, sigmas


def index_matrix_direct_assembly(terms, groups, qmax):
    # The direct sum from a (width, q) matrix of the columns of the
    # prime-power parts of q, smallest prime first, padded with a column of
    # ones; the product runs from the largest prime down.
    ones_col = len(terms)
    width, prod = 0, 1
    for p, _ in groups:
        prod *= p
        if prod > qmax:
            break
        width += 1
    parts = np.full((max(width, 1), qmax + 1), ones_col)
    filled = np.zeros(qmax + 1, dtype=np.int64)
    col = 0
    for p, powers in groups:
        for pj in powers:
            qs = np.arange(pj, qmax + 1, pj)
            qs = qs[qs % (pj * p) != 0]
            parts[filled[qs], qs] = col
            filled[qs] += 1
            col += 1
    row = np.append(terms, 1.0)
    values = row[parts[-1]]
    for j in range(len(parts) - 2, -1, -1):
        values = values * row[parts[j]]
    return float(np.cumsum(values[1:])[-1])


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool((a.view(np.int64) == b.view(np.int64)).all())


class TestAssemblies:
    # The whole-array assemblies against the loops they replaced, bit for
    # bit.  A table at qmax = 1e5 takes over ten seconds to build for
    # k >= 3, so real terms at that truncation are taken at k = 2 only; the
    # random term matrices need only the prime powers of the truncation.
    TARGETS = [29, 845, 838349, 838348, 1000007, 12345679, 10**30 + 5]

    @pytest.mark.parametrize("k,qmax", [(k, q) for k in (2, 3, 6, 12) for q in (1000, 10**4)]
                             + [(2, 10**5)])
    def test_on_series_terms(self, k, qmax):
        from kglab.singular import (
            _direct_assembly, _multiplicative_assembly, _series_terms, _term_table)

        table = _term_table(k, 5, qmax)
        groups = groups_of(table)
        terms = _series_terms(self.TARGETS, k, 5, qmax)
        product, sigmas = _multiplicative_assembly(terms, table.bases)
        want_product, want_sigmas = loop_multiplicative_assembly(terms, groups)
        assert same_bits(product, want_product) and same_bits(sigmas, want_sigmas)
        for row in terms[:3]:
            assert same_bits(_direct_assembly(row, table.bases, table.moduli, qmax),
                             index_matrix_direct_assembly(row, groups, qmax))

    @pytest.mark.parametrize("qmax", [1000, 10**4, 10**5])
    def test_on_random_terms(self, qmax):
        from kglab.singular import _direct_assembly, _multiplicative_assembly, _term_table

        table = _term_table(2, 5, qmax)
        groups = groups_of(table)
        columns = sum(len(powers) for _, powers in groups)
        rng = np.random.default_rng(qmax)
        terms = rng.normal(size=(16, columns)) * 10.0 ** rng.integers(-6, 1, size=(16, 1))
        terms[:, rng.integers(columns, size=columns // 10)] = 0.0
        product, sigmas = _multiplicative_assembly(terms, table.bases)
        want_product, want_sigmas = loop_multiplicative_assembly(terms, groups)
        assert same_bits(product, want_product) and same_bits(sigmas, want_sigmas)
        for row in terms[:2]:
            assert same_bits(_direct_assembly(row, table.bases, table.moduli, qmax),
                             index_matrix_direct_assembly(row, groups, qmax))


class TestPhaseIntegral:
    def test_zero_frequency_order_one(self):
        interval = build_interval(845, 2, 5, 0.85)
        assert phase_integral(0.0, interval) == pytest.approx(2 * interval.y)

    def test_against_mpmath_quadrature(self):
        interval = build_interval(845, 2, 5, 0.85)
        x, y = interval.x, interval.y
        for beta in (1e-4, 3e-3, 1e-2):
            mine = phase_integral(beta, interval)
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
            val = abs(phase_integral(float(beta), interval))
            assert val <= 2 * y + 1e-9
            if beta > 3 * scale:
                assert val < 2 * y * 0.9

    def test_rejects_large_beta(self):
        interval = build_interval(845, 2, 5, 0.85)
        with pytest.raises(ValidationError):
            phase_integral(1.5, interval)


class TestSingularIntegral:
    def test_outside_support_is_zero(self):
        interval = build_interval(845, 2, 5, 0.85)
        assert singular_integral(10**9, interval, 5).value == 0.0
        low = int(5 * (interval.x - interval.y) ** 2) - 2
        assert singular_integral(low, interval, 5).value == 0.0

    def test_center_cross_method(self):
        interval = build_interval(845, 2, 5, 0.85)
        est = singular_integral(845, interval, 5, method="both")
        assert not est.flagged
        assert est.alt_value == pytest.approx(est.value, rel=0.01)

    def test_methods_individually(self):
        interval = build_interval(845, 2, 5, 0.85)
        quad = singular_integral(845, interval, 5, method="fourier-quadrature")
        conv = singular_integral(845, interval, 5, method="density-convolution")
        assert quad.value == pytest.approx(conv.value, rel=0.01)
        assert quad.method == "fourier-quadrature"
        assert conv.method == "density-convolution"

    def test_size_shape_at_center(self):
        for k, s, n0 in [(2, 5, 845), (2, 7, 7 * 13**2), (3, 5, 5 * 11**3)]:
            interval = build_interval(n0, k, s, 0.85)
            est = singular_integral(n0, interval, s)
            ratio = est.value / (
                interval.y ** (s - 1) * interval.x ** (1 - k)
            )
            assert 1e-2 <= ratio <= 1e2

    # Every field of the estimate as recorded before the three methods shared
    # one flow: (window n, k, target n, method, value, alt_value).
    RECORDED = [
        (845, 2, 845, "fourier-quadrature", 2120.968973992216, None),
        (845, 2, 845, "density-convolution", 2120.9689014013406, None),
        (845, 2, 845, "both", 2120.968973992216, 2120.9689014013406),
        (845, 2, 700, "fourier-quadrature", 1650.6986042607289, None),
        (845, 2, 700, "density-convolution", 1650.6986027790617, None),
        (845, 2, 700, "both", 1650.6986042607289, 1650.6986027790617),
        (845, 2, 10**6, "fourier-quadrature", 0.0, None),   # off the support
        (845, 2, 10**6, "density-convolution", 0.0, None),
        (845, 2, 10**6, "both", 0.0, None),
        (5 * 10**9, 3, 5 * 10**9 + 7, "fourier-quadrature", 46361.887881950184, None),
        (5 * 10**9, 3, 5 * 10**9 + 7, "density-convolution", 46361.76913171523, None),
        (5 * 10**9, 3, 5 * 10**9 + 7, "both", 46361.887881950184, 46361.76913171523),
    ]

    @pytest.mark.parametrize("window_n,k,n,method,value,alt_value", RECORDED)
    def test_estimate_fields_are_the_recorded_ones(self, window_n, k, n, method, value, alt_value):
        interval = build_interval(window_n, k, 5, 0.85)
        est = singular_integral(n, interval, 5, method=method)
        assert est == SingularIntegralEstimate(
            value=value, method=method, grid_cells=1 << 14,
            flagged=False, alt_value=alt_value,
        )

    @pytest.mark.parametrize("s", [3, 5, 7])
    def test_spectrum_power_matches_numpy(self, s):
        # The convolution raises the density's spectrum to the s-th power by
        # square-and-multiply; np.power (libm cpow) is the reference.
        from kglab.intervals import _binary_power, _fft_length
        from kglab.singular import GRID_CELLS

        interval = build_interval(845, 2, s, 0.85)
        lo_t, hi_t = (interval.x - interval.y) ** 2, (interval.x + interval.y) ** 2
        t_mid = lo_t + (np.arange(GRID_CELLS) + 0.5) * (hi_t - lo_t) / GRID_CELLS
        spectrum = np.fft.rfft(0.5 / np.sqrt(t_mid), _fft_length(s * (GRID_CELLS - 1) + 1))
        want = np.power(spectrum, s)
        got = _binary_power(spectrum, s, np.multiply)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    def test_nonnegative(self):
        interval = build_interval(845, 2, 5, 0.85)
        lo_t = 5 * (interval.x - interval.y) ** 2
        hi_t = 5 * (interval.x + interval.y) ** 2
        for n in np.linspace(lo_t + 1, hi_t - 1, 9):
            assert singular_integral(int(n), interval, 5).value >= 0.0


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
            got = major_arc_approx(a / q, dissection, interval)
            expected = (
                complete_exp_sum(q, a, 2) / euler_phi(q) * 2 * interval.y / big_l
            )
            assert got == pytest.approx(expected, rel=rel)

    def test_magnitude_bound(self, setup):
        interval, dissection = setup
        big_l = math.log(interval.x)
        cap = 2 * interval.y / big_l
        rng = np.random.default_rng(12)
        for arc in dissection.arcs:
            offset = float(rng.uniform(-arc.half_width, arc.half_width))
            value = abs(major_arc_approx(arc.center + offset, dissection, interval))
            assert value <= cap * 1.0000001

    def test_frequencies_reduce_mod_one(self, setup):
        # beta = alpha - a/q is taken mod 1, as the arc is: alpha = 2.5 raised
        # on |beta| = 2, and 1.5 and 2^-40 (the arc 1/1) hit the panel cap.
        interval, dissection = setup
        half = major_arc_approx(0.5, dissection, interval)
        for alpha in (1.5, 2.5, -0.5):
            assert major_arc_approx(alpha, dissection, interval) == half, alpha
        assert major_arc_approx(2.0**-40, dissection, interval) == major_arc_approx(
            1 + 2.0**-40, dissection, interval)

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
