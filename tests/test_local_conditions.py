import itertools
import math

import numpy as np
import pytest

from kglab import (
    ValidationError,
    is_admissible,
    local_profile,
    singular_series,
    unit_power_counts,
    unit_solution_counts,
)


class TestLocalProfile:
    def test_k2(self):
        profile = local_profile(2)
        assert profile.factors == ((2, 1, 3), (3, 0, 1))
        assert profile.modulus == 24

    def test_k3(self):
        profile = local_profile(3)
        assert profile.factors == ((2, 0, 1),)
        assert profile.modulus == 2

    def test_k4(self):
        profile = local_profile(4)
        assert profile.factors == ((2, 2, 4), (3, 0, 1), (5, 0, 1))
        assert profile.modulus == 240

    @pytest.mark.parametrize("k", range(2, 13))
    def test_structure(self, k):
        profile = local_profile(k)
        modulus = 1
        for p, tau, gamma in profile.factors:
            assert k % (p - 1) == 0
            assert k % p**tau == 0 and (tau == 0 or k % p ** (tau + 1) != 0)
            expected_gamma = tau + 2 if (p == 2 and tau > 0) else tau + 1
            assert gamma == expected_gamma
            modulus *= p**gamma
        assert modulus == profile.modulus

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            local_profile(1)
        with pytest.raises(ValidationError):
            local_profile(65)

    def test_modulus_divides_multiples(self):
        # Recomputed per pair, no cross-k shortcut: the modulus for k
        # divides the modulus for any multiple of k.
        for k in range(2, 13):
            for m in (2, 3, 4):
                if k * m > 24:
                    continue
                assert local_profile(k * m).modulus % local_profile(k).modulus == 0


class TestAdmissibility:
    def test_anchors(self):
        assert is_admissible(29, 2, 5)
        assert not is_admissible(21, 2, 5)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_n_equal_s(self, k):
        assert is_admissible(5, k, 5)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_unit_kth_powers_are_trivial_mod_local_modulus(self, k):
        # The defining property of the modulus: every unit to the k-th
        # power is 1, so the local congruence collapses to n = s.
        modulus = local_profile(k).modulus
        for h in range(1, modulus + 1):
            if math.gcd(h, modulus) == 1:
                assert pow(h, k, modulus) == 1

    @pytest.mark.parametrize("k", range(2, 12))
    def test_admissible_residues_have_unit_solutions(self, k):
        # Exact residue-count cross-check over ten thousand random n:
        # admissible n are exactly those with unit solutions.
        modulus = local_profile(k).modulus
        s = 5
        counts = unit_solution_counts(modulus, k, s)
        rng = np.random.default_rng(42 + k)
        draws = rng.integers(1, 10**9, size=10_000)
        residues = np.mod(draws, modulus)
        admissible = residues == (s % modulus)
        positive = np.array([counts[int(r)] > 0 for r in residues])
        assert np.array_equal(admissible, positive)

    def test_many_variable_counts_use_exact_big_integers(self):
        # s >= K(k): counts overflow 64 bits and must still be exact.
        counts = unit_solution_counts(24, 2, 24)
        phi = 8
        for r in range(24):
            expected = phi**24 if r == 24 % 24 else 0
            assert counts[r] == expected

    def test_unit_solution_counts_match_brute_force(self):
        # DP over residues versus literal tuple enumeration.
        for q, k, s in [(24, 2, 3), (9, 3, 2), (10, 2, 3), (7, 4, 2)]:
            units = [h for h in range(1, q + 1) if math.gcd(h, q) == 1]
            brute = np.zeros(q, dtype=np.int64)
            for tup in itertools.product(units, repeat=s):
                brute[sum(h**k for h in tup) % q] += 1
            assert np.array_equal(unit_solution_counts(q, k, s), brute)

    @pytest.mark.parametrize("s,dtype", [(20, np.int64), (21, object)])
    def test_unit_solution_counts_match_literal_convolution(self, s, dtype):
        # phi(24)^s = 8^s crosses 2^62 between s = 20 and s = 21.
        q, k = 24, 2
        base = [0] * q
        for h in range(1, q + 1):
            if math.gcd(h, q) == 1:
                base[h**k % q] += 1
        literal = [1] + [0] * (q - 1)
        for _ in range(s):
            nxt = [0] * q
            for i, a in enumerate(literal):
                for j, b in enumerate(base):
                    nxt[(i + j) % q] += a * b
            literal = nxt
        counts = unit_solution_counts(q, k, s)
        assert counts.dtype == dtype
        assert [int(c) for c in counts] == literal

    def test_unit_power_counts_match_loop(self):
        # The vectorized counts against the per-unit loop they replaced.
        for q in range(1, 201):
            for k in (2, 3, 4):
                loop = np.zeros(q, dtype=np.int64)
                for h in range(1, q + 1):
                    if math.gcd(h, q) == 1:
                        loop[pow(h, k, q)] += 1
                assert np.array_equal(unit_power_counts(q, k), loop)

    def test_unit_power_counts_sum_to_phi(self):
        for q in (2, 9, 24, 30, 101):
            counts = unit_power_counts(q, 2)
            phi = sum(1 for h in range(1, q + 1) if math.gcd(h, q) == 1)
            assert counts.sum() == phi

    @pytest.mark.parametrize("k", [2, 3])
    def test_inadmissible_with_positive_series_never_happens(self, k):
        # Consistency of the local model: a positive truncated series at
        # s = 5 forces unit solutions modulo the local modulus.
        modulus = local_profile(k).modulus
        counts = unit_solution_counts(modulus, k, 5)
        rng = np.random.default_rng(7)
        for n in rng.integers(50, 10**6, size=15):
            n = int(n)
            est = singular_series(n, k, 5, qmax=max(100, modulus))
            if est.value > 1e-6:
                assert counts[n % modulus] > 0
