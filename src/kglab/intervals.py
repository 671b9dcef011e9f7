"""Short prime windows and elementary arithmetic functions.

The basic geometric object is the half-open window (x - y, x + y] around
the central value x = (n/s)^(1/k), with half-width y = x^theta.  All the
sums downstream (exponential sums, dissections, representation counts)
run over the integers or primes of such a window, so the two integer
endpoints are resolved with guarded high-precision arithmetic instead of
double rounding: a boundary integer is admitted or rejected the same way
on every platform.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from .errors import CapExceeded, PrecisionError, ValidationError

SEGMENT_BLOCK = 1 << 16        # segmented-sieve block length (cache sized)
DEFAULT_WINDOW_CAP = 100_000_000
_DPS_LADDER = (50, 200, 800)   # working precisions for boundary floors


@dataclass(frozen=True)
class ShortInterval:
    """The window (x - y, x + y] and the power k it will be raised to.

    ``lo`` and ``hi`` are the induced integer endpoints: lo is the least
    integer strictly above x - y and hi the largest integer <= x + y.
    Iteration is strictly increasing over [lo, hi].
    """

    x: float
    y: float
    k: int
    lo: int
    hi: int

    def __post_init__(self):
        if not (0 < self.y <= self.x):
            raise ValidationError(f"need 0 < y <= x, got x={self.x}, y={self.y}")
        if self.hi < self.lo:
            raise ValidationError(f"empty window: lo={self.lo} > hi={self.hi}")

    @property
    def size(self) -> int:
        """Number of integers in the window."""
        return self.hi - self.lo + 1

    @property
    def theta(self) -> float:
        """Exponent with y = x^theta (recomputed from the stored reals)."""
        return math.log(self.y) / math.log(self.x)

    def __iter__(self):
        return iter(range(self.lo, self.hi + 1))

    def __len__(self) -> int:
        return self.size

    def __contains__(self, m) -> bool:
        return self.lo <= m <= self.hi and m == int(m)

    @classmethod
    def from_integer_window(cls, lo: int, hi: int, k: int) -> "ShortInterval":
        """Synthesize a window whose integer content is exactly [lo, hi].

        Used by moment oracles and tests that fix the integers directly.
        The reals are placed so that x - y = lo - 1/2 and x + y = hi + 1/4,
        which keeps 0 < y < x for every lo >= 1.
        """
        if lo < 1 or hi < lo:
            raise ValidationError(f"need 1 <= lo <= hi, got lo={lo}, hi={hi}")
        if k < 2:
            raise ValidationError(f"need k >= 2, got {k}")
        left = lo - 0.5
        right = hi + 0.25
        x = (left + right) / 2.0
        y = (right - left) / 2.0
        return cls(x=x, y=y, k=k, lo=lo, hi=hi)


@dataclass(frozen=True)
class PrimeTable:
    """Sorted primes of a window plus the small primes used to sieve them."""

    interval: ShortInterval
    primes: tuple
    small_primes: tuple

    def __contains__(self, m) -> bool:
        i = bisect_left(self.primes, m)
        return i < len(self.primes) and self.primes[i] == m

    def __iter__(self):
        return iter(self.primes)

    def __len__(self) -> int:
        return len(self.primes)


def _exact_kth_root(num: int, den: int, k: int):
    """Return the Fraction r with r^k = num/den, or None if irrational."""
    g = math.gcd(num, den)
    num //= g
    den //= g
    rn = _iroot_exact(num, k)
    if rn is None:
        return None
    rd = _iroot_exact(den, k)
    if rd is None:
        return None
    return Fraction(rn, rd)


def _iroot_exact(m: int, k: int):
    """The integer r with r^k = m, or None; integer arithmetic at every size."""
    if m == 0:
        return 0
    if k == 2:
        r = math.isqrt(m)
    else:
        # Newton's iteration from above settles on floor(m^(1/k)).
        r = 1 << -(-m.bit_length() // k)
        while True:
            nxt = ((k - 1) * r + m // r ** (k - 1)) // k
            if nxt >= r:
                break
            r = nxt
    return r if r**k == m else None


def _window_boundaries(n: int, k: int, s: int, theta: float) -> tuple:
    """(floor(x - y), floor(x + y), x, y), escalating precision near ties.

    Each rung of the precision ladder evaluates x and y once and settles
    every floor still open; x and y are taken from the first rung.  For
    theta = 1 the tie at the upper endpoint (is 2x an integer M?) is
    decided exactly by comparing M^k * s against 2^k * n; other ties are
    resolved by raising the working precision, which suffices for every
    realizable input at desk scale.
    """
    floors = {}
    for dps in _DPS_LADDER:
        with mp.workdps(dps):
            xv = mp.root(mp.mpf(n) / s, k)
            yv = xv if theta == 1.0 else xv ** mp.mpf(theta)
            if dps == _DPS_LADDER[0]:
                x, y = float(xv), float(yv)
            eps = mp.mpf(10) ** (-(dps - 12))
            for upper in (False, True):
                if upper in floors:
                    continue
                v = xv + yv if upper else xv - yv
                f = mp.floor(v)
                if v - f > eps and (f + 1) - v > eps:
                    floors[upper] = int(f)
                elif theta == 1.0 and upper:
                    # Exact tie candidate M: 2x >= M  <=>  2^k * n >= M^k * s.
                    cand = int(mp.nint(v))
                    floors[upper] = cand if (2**k) * n >= cand**k * s else cand - 1
                elif theta == 1.0:
                    floors[upper] = 0  # x - y = 0 exactly
        if len(floors) == 2:
            return floors[False], floors[True], x, y
    raise PrecisionError(
        f"cannot resolve window boundary for n={n}, k={k}, s={s}, theta={theta}"
    )


def build_interval(n: int, k: int, s: int, theta: float) -> ShortInterval:
    """Window (x - y, x + y] with x = (n/s)^(1/k) and y = x^theta.

    Requires n >= s * 2^k, k >= 2, s >= 2 and 0 < theta <= 1.
    """
    interval = _raw_interval(n, k, s, theta, min_s=2)
    return interval


def _raw_interval(n: int, k: int, s: int, theta: float, min_s: int = 1) -> ShortInterval:
    # Shared constructor; representation counting admits the s = 1 edge case.
    for name, val in (("n", n), ("k", k), ("s", s)):
        if not isinstance(val, int):
            raise ValidationError(f"{name} must be an integer, got {val!r}")
    if k < 2 or k > 64:
        raise ValidationError(f"need 2 <= k <= 64, got k={k}")
    if s < min_s:
        raise ValidationError(f"need s >= {min_s}, got s={s}")
    if n < s * 2**k:
        raise ValidationError(f"need n >= s * 2^k = {s * 2**k}, got n={n}")
    if not (0.0 < theta <= 1.0):
        raise ValidationError(f"need 0 < theta <= 1, got theta={theta}")

    root = _exact_kth_root(n, s, k)
    if theta == 1.0 and root is not None:
        lo = 1
        hi = math.floor(2 * root)
        x = float(root)
        y = x
    else:
        below, hi, x, y = _window_boundaries(n, k, s, theta)
        lo = below + 1
    if hi < lo:
        raise ValidationError(f"empty window for n={n}, k={k}, s={s}, theta={theta}")
    return ShortInterval(x=x, y=y, k=k, lo=lo, hi=hi)


def sieve_upto(limit: int) -> list:
    """All primes <= limit by a plain sieve of Eratosthenes."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i in range(2, limit + 1) if flags[i]]


def primes_in_interval(
    interval: ShortInterval, window_cap: int = DEFAULT_WINDOW_CAP
) -> PrimeTable:
    """Exactly the primes p with x - y < p <= x + y, by segmented sieve."""
    lo, hi = interval.lo, interval.hi
    if hi - lo + 1 > window_cap:
        raise CapExceeded(
            f"window length {hi - lo + 1} exceeds the cap {window_cap}"
        )
    small = sieve_upto(math.isqrt(hi))
    primes = []
    start = max(lo, 2)
    for block_lo in range(start, hi + 1, SEGMENT_BLOCK):
        block_hi = min(block_lo + SEGMENT_BLOCK - 1, hi)
        flags = bytearray([1]) * (block_hi - block_lo + 1)
        for p in small:
            first = max(p * p, ((block_lo + p - 1) // p) * p)
            if first > block_hi:
                continue
            flags[first - block_lo :: p] = bytearray(
                len(range(first, block_hi + 1, p))
            )
        primes.extend(
            block_lo + i for i, keep in enumerate(flags) if keep
        )
    return PrimeTable(
        interval=interval, primes=tuple(primes), small_primes=tuple(small)
    )


def pow_mod(base: np.ndarray, k: int, q: int) -> np.ndarray:
    """Elementwise base^k mod q by square-and-multiply.

    q = 2^64 runs in wrapping uint64 arithmetic; any other modulus runs in
    int64, where q^2 must fit.
    """
    wrap = q == 1 << 64
    if not wrap and q > 3_000_000_000:
        raise CapExceeded(f"modulus {q} too large for the vector powmod")
    b = base.astype(np.uint64) if wrap else np.mod(base, q)
    out = np.ones_like(b)
    with np.errstate(over="ignore"):
        while True:
            if k & 1:
                out = out * b if wrap else out * b % q
            k >>= 1
            if not k:
                return out
            b = b * b if wrap else b * b % q


def _fft_length(size: int) -> int:
    """Smallest 2^a 3^b 5^c >= size; numpy's FFT is fast on such lengths."""
    best = 1 << (size - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            best = min(best, odd << (-(-size // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def units(q: int) -> np.ndarray:
    """The residues 1 <= h <= q coprime to q, ascending."""
    hs = np.arange(1, q + 1, dtype=np.int64)
    return hs[np.gcd(hs, q) == 1]


def factorize(m: int) -> list:
    """Prime factorization [(p, e), ...] by trial division."""
    if m < 1:
        raise ValidationError(f"need m >= 1, got {m}")
    out = []
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    d = 5
    step = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += step
        step = 6 - step  # 5, 7, 11, 13, ... (6k +/- 1 wheel)
    if m > 1:
        out.append((m, 1))
    return out


def von_mangoldt(m: int) -> float:
    """log p when m = p^j, else 0."""
    if m == 1:
        return 0.0
    fac = factorize(m)
    if len(fac) == 1:
        return math.log(fac[0][0])
    return 0.0


def moebius(m: int) -> int:
    fac = factorize(m)
    if any(e >= 2 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi(m: int) -> int:
    out = m
    for p, _ in factorize(m):
        out = out // p * (p - 1)
    return out if m > 1 else 1


def divisor_count(m: int) -> int:
    out = 1
    for _, e in factorize(m):
        out *= e + 1
    return out


_POINT_FUNCTIONS = {
    "von-mangoldt": von_mangoldt,
    "moebius": moebius,
    "euler-phi": euler_phi,
    "divisor-count": divisor_count,
}


def point_function(name: str, m: int):
    """Evaluate one of the standard arithmetic functions at m >= 1."""
    if name not in _POINT_FUNCTIONS:
        raise ValidationError(
            f"unknown point function {name!r}; choose from {sorted(_POINT_FUNCTIONS)}"
        )
    if not isinstance(m, int) or m < 1:
        raise ValidationError(f"need integer m >= 1, got {m!r}")
    return _POINT_FUNCTIONS[name](m)
