"""Local congruence conditions for sums of s k-th powers of primes.

A target n is locally admissible when n is congruent to s modulo the
modulus built from the primes p with (p - 1) | k.  The exponent carried
by each such prime is one more than the multiplicity of p in k, with an
extra factor of 2 when p = 2 divides k.  The complete sums S(q, a) are
the discrete Fourier transform of the k-th power residue counts of the
units mod q, all residues a at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_cap
from .intervals import _binary_power, _power_exceeds, pow_mod, sieve_upto, units

K_MAX = 64  # keeps the local modulus comfortably inside integer range
COMPLETE_SUM_CAP = 1_000_000


@dataclass(frozen=True)
class LocalProfile:
    """Local modulus data for a fixed power k.

    ``factors`` lists (p, tau, gamma) for each prime p with (p-1) | k,
    where tau is the multiplicity of p in k and gamma the exponent the
    prime carries in the modulus.  ``modulus`` is the product p^gamma.
    """

    k: int
    factors: tuple
    modulus: int


# typed: 2.0 must still fail validation after local_profile(2) is cached;
# only valid k are stored, so at most K_MAX - 1 entries.
@functools.lru_cache(maxsize=K_MAX, typed=True)
def local_profile(k: int) -> LocalProfile:
    """Enumerate the primes p <= k + 1 with (p - 1) | k and assemble the modulus."""
    if not isinstance(k, int) or k < 2 or k > K_MAX:
        raise ValidationError(f"need 2 <= k <= {K_MAX}, got k={k!r}")
    factors = []
    modulus = 1
    for p in sieve_upto(k + 1):
        if k % (p - 1) != 0:
            continue
        tau, gamma = prime_exponents(p, k)
        factors.append((p, tau, gamma))
        modulus *= p**gamma
    return LocalProfile(k=k, factors=tuple(factors), modulus=modulus)


def prime_exponents(p: int, k: int) -> tuple:
    """(tau, gamma) for the prime p: tau is the multiplicity of p in k and
    gamma = tau + 1, or tau + 2 when p = 2 divides k.  For every prime p,
    not only those in the local modulus, the unit sum S(p^j, a) vanishes
    for j > gamma (Hua, Additive Theory of Prime Numbers, 1965)."""
    tau = 0
    while k % p == 0:
        k //= p
        tau += 1
    return tau, tau + 2 if (p == 2 and tau > 0) else tau + 1


def is_admissible(n: int, k: int, s: int) -> bool:
    """True iff n is congruent to s modulo the local modulus for k."""
    if not isinstance(n, int) or n < 1:
        raise ValidationError(f"need integer n >= 1, got {n!r}")
    mod = local_profile(k).modulus
    return n % mod == s % mod


def admissible_in_range(start: int, stop: int, k: int, s: int) -> list:
    """All admissible n in [start, stop)."""
    mod = local_profile(k).modulus
    first = start + (s - start) % mod
    return list(range(first, stop, mod))


def unit_power_counts(q: int, k: int) -> np.ndarray:
    """Counts, per residue r mod q, of units h with h^k = r (mod q)."""
    if q < 1:
        raise ValidationError(f"need q >= 1, got {q}")
    return np.bincount(pow_mod(units(q), k, q), minlength=q)


def complete_exp_sums(q: int, k: int) -> tuple:
    """(units mod q, S(q, a) for every residue a mod q), where S(q, a) is
    the sum over units h mod q of e(a h^k / q).

    All a are evaluated at once through the DFT of the k-th power residue
    counts of `unit_power_counts`.
    """
    counts = unit_power_counts(q, k).astype(np.float64)
    return units(q), np.conj(np.fft.fft(counts))


def complete_exp_sum(q: int, a: int, k: int) -> complex:
    """S(q, a): the sum over units h mod q of e(a h^k / q).

    gcd(a, q) = 1 is expected but not enforced; the sum is well defined
    either way.
    """
    if q < 1:
        raise ValidationError(f"need q >= 1, got {q}")
    if not (1 <= a <= q):
        raise ValidationError(f"need 1 <= a <= q, got a={a}")
    check_cap("complete sum modulus q", q, COMPLETE_SUM_CAP)
    return complex(complete_exp_sums(q, k)[1][a % q])


def unit_solution_counts(q: int, k: int, s: int) -> np.ndarray:
    """Vector over residues r mod q of the number of unit tuples
    (h_1, ..., h_s) with h_1^k + ... + h_s^k = r (mod q).

    The s-th convolution power of the unit-power counts, in int64 or, once
    phi(q)^s reaches 2^62, in Python integers (object arrays): exact for any s.
    """
    base = unit_power_counts(q, k)
    if _power_exceeds(int(base.sum()), s, 2**62 - 1):
        base = base.astype(object)
    return _convolution_power(base, s)


def _convolution_power(base: np.ndarray, s: int) -> np.ndarray:
    """The s-fold power of ``base`` under cyclic convolution mod len(base),
    by `_binary_power` (s = 0: the delta of the empty tuple): exact in
    integers, and on a non-negative float base every step adds
    non-negative products."""
    return _binary_power(base, s, _cyclic_convolve) if s else np.eye(1, len(base), dtype=base.dtype)[0]


def _cyclic_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    q = len(a)
    full = np.convolve(a, b)
    out = full[:q].copy()
    out[: q - 1] += full[q:]
    return out
