"""Local congruence conditions for sums of s k-th powers of primes.

A target n is locally admissible when n is congruent to s modulo the
modulus built from the primes p with (p - 1) | k.  The exponent carried
by each such prime is one more than the multiplicity of p in k, with an
extra factor of 2 when p = 2 divides k.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .intervals import pow_mod, sieve_upto, units

K_MAX = 64  # keeps the local modulus comfortably inside integer range


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
        tau = 0
        kk = k
        while kk % p == 0:
            kk //= p
            tau += 1
        gamma = tau + 2 if (p == 2 and tau > 0) else tau + 1
        factors.append((p, tau, gamma))
        modulus *= p**gamma
    return LocalProfile(k=k, factors=tuple(factors), modulus=modulus)


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


def unit_solution_counts(q: int, k: int, s: int) -> np.ndarray:
    """Vector over residues r mod q of the number of unit tuples
    (h_1, ..., h_s) with h_1^k + ... + h_s^k = r (mod q).

    Exact s-fold cyclic convolution over the residue ring; large counts
    switch to arbitrary-precision integers (convolution powering by
    repeated squaring), so the result is exact for any s.
    """
    base = unit_power_counts(q, k)
    phi = int(base.sum())
    if phi**s >= 2**62:
        return _unit_solution_counts_big(base.tolist(), q, s)
    out = base.copy()
    for _ in range(s - 1):
        full = np.convolve(out, base)
        folded = np.zeros(q, dtype=np.int64)
        for start in range(0, len(full), q):
            seg = full[start : start + q]
            folded[: len(seg)] += seg
        out = folded
    return out


def _cyclic_convolve_big(a: list, b: list, q: int) -> list:
    out = [0] * q
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[(i + j) % q] += ai * bj
    return out


def _unit_solution_counts_big(base: list, q: int, s: int) -> np.ndarray:
    result = None
    power = base
    e = s
    while e:
        if e & 1:
            result = power if result is None else _cyclic_convolve_big(result, power, q)
        e >>= 1
        if e:
            power = _cyclic_convolve_big(power, power, q)
    return np.array(result, dtype=object)
