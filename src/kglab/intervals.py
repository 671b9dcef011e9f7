"""Short prime windows and elementary arithmetic functions.

The basic geometric object is the half-open window (x - y, x + y] around
the central value x = (n/s)^(1/k), with half-width y = x^theta.  All the
sums downstream (exponential sums, dissections, representation counts)
run over the integers or primes of such a window, so the two integer
endpoints are resolved with guarded high-precision arithmetic (theta = 1
windows by an integer k-th root) instead of double rounding: a boundary
integer is admitted or rejected the same way on every platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction

import numpy as np

from .errors import PrecisionError, ValidationError, check_cap, int_text

# The memory one table may take.  Every cap on a table that grows with the
# input is this budget over the bytes per entry measured for that table
# (peak RSS on CPython 3.11, NumPy 2).
MEMORY_BUDGET = 280_000_000
SEGMENT_BLOCK = 1 << 16        # least sieve segment, and the sieving primes read at a time
WINDOW_CAP = 100_000_000       # integers of a window that primes_in_interval sieves
# The small primes that sieve a window, an int64 array of about 1 byte per
# integer up to sqrt(hi) with the pieces it is joined from (sieving a window
# at sqrt(hi) = 3e7 raised peak RSS by 28 MiB), budgeted at 4 bytes:
# sqrt(hi) <= 7e7.
SIEVE_LIMIT_CAP = MEMORY_BUDGET // 4
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

    def __iter__(self):
        return iter(range(self.lo, self.hi + 1))

    @classmethod
    def from_integer_window(cls, lo: int, hi: int, k: int) -> "ShortInterval":
        """Synthesize a window whose integer content is exactly [lo, hi].

        Used by moment oracles and tests that fix the integers directly;
        k takes the range 2..64 of `build_interval`.
        The reals x = (4 lo + 4 hi - 1)/8 and y = (4 (hi - lo) + 3)/8, each
        rounded once, put x - y at lo - 1/2 and x + y at hi + 1/4: 0 < y < x.
        A window whose x is past the double range raises OverflowError,
        naming its hi.
        """
        if lo < 1 or hi < lo:
            raise ValidationError(f"need 1 <= lo <= hi, got lo={lo}, hi={hi}")
        if not 2 <= k <= 64:
            raise ValidationError(f"need 2 <= k <= 64, got k={k}")
        try:
            x = (4 * lo + 4 * hi - 1) / 8
        except OverflowError:
            raise OverflowError(f"integer window: x = (4 lo + 4 hi - 1)/8 exceeds the double "
                                f"range at hi={int_text(hi)}") from None
        return cls(x=x, y=(4 * (hi - lo) + 3) / 8, k=k, lo=lo, hi=hi)


def _iroot(m: int, k: int) -> int:
    """floor(m^(1/k)) for m >= 0, in integer arithmetic at every size."""
    if m == 0:
        return 0
    if k == 2:
        return math.isqrt(m)
    # Newton's iteration from above settles on floor(m^(1/k)).
    r = 1 << -(-m.bit_length() // k)
    while True:
        nxt = ((k - 1) * r + m // r ** (k - 1)) // k
        if nxt >= r:
            return r
        r = nxt


def _window_boundaries(n: int, k: int, s: int, theta: float) -> tuple:
    """(floor(x - y), floor(x + y), x, y), escalating precision near ties.

    Each rung of the precision ladder evaluates x and y once, in decimal,
    and settles every floor still open; x and y are taken from the first
    rung.  x is floor(x 10^e) / 10^e, an integer root of at most dps digits
    (e from bit lengths), and y = exp(theta ln x).  A rung of dps digits
    carries an absolute error of about x * 10^(2 - dps), so it settles a
    floor only when x +/- y lies more than (1 + x) * 10^(12 - dps) from an
    integer; near-ties are resolved by raising the working precision, and
    exact ties are settled in rationals when x and y are rational
    (`_rational_window`).  A theta = 1 window is (0, 2x], whose top is the
    largest M with M^k * s <= 2^k * n.
    """
    floors = {}
    bits = -(-(n.bit_length() - s.bit_length() + 1) // k)   # x < 2^bits
    with localcontext() as ctx:
        ctx.Emax, ctx.Emin = MAX_EMAX, MIN_EMIN
        for dps in _DPS_LADDER:
            ctx.prec = dps
            e = dps - 1 - bits * 30103 // 100000   # x 10^e < 10^dps, as log10(2) < 0.30103
            m = n * 10 ** (k * e) // s if e >= 0 else n // (s * 10 ** (-k * e))
            xv = Decimal(_iroot(m, k)).scaleb(-e)
            yv = xv if theta == 1.0 else (Decimal(theta) * xv.ln()).exp()
            if dps == _DPS_LADDER[0]:
                x, y = float(xv), float(yv)
                if theta == 1.0:
                    return 0, _iroot(2**k * n // s, k), x, y
            eps = (1 + xv).scaleb(12 - dps)
            for upper in (False, True):
                if upper in floors:
                    continue
                v = xv + yv if upper else xv - yv
                f = v.to_integral_value(ROUND_FLOOR)
                if v - f > eps and (f + 1) - v > eps:
                    floors[upper] = int(f)
            if len(floors) == 2:
                return floors[False], floors[True], x, y
    exact = _rational_window(n, k, s, theta)
    if exact is not None:
        return math.floor(exact[0] - exact[1]), math.floor(exact[0] + exact[1]), x, y
    raise PrecisionError(
        f"cannot resolve window boundary for n={int_text(n)}, k={k}, s={s}, theta={theta}"
    )


def _rational_window(n: int, k: int, s: int, theta: float):
    """(x, y) as Fractions when x = (n/s)^(1/k) and y = x^theta are both
    rational, else None.  With theta = a / 2^b, y is rational only when x
    has a rational 2^b-th root r, and then y = r^a < x.  r is taken one
    square root at a time, so no power formed to check a root is longer
    than the integer it was taken from."""
    def roots(parts, degree):
        out = [_iroot(m, degree) for m in parts]
        return out if all(r**degree == m for r, m in zip(out, parts)) else None

    ratio = Fraction(n, s)
    x = r = roots([ratio.numerator, ratio.denominator], k)
    a, den = theta.as_integer_ratio()
    for _ in range(den.bit_length() - 1):
        r = r and roots(r, 2)
    return r and (Fraction(*x), Fraction(r[0] ** a, r[1] ** a))


def build_interval(n: int, k: int, s: int, theta: float) -> ShortInterval:
    """Window (x - y, x + y] with x = (n/s)^(1/k) and y = x^theta.

    Requires n >= s * 2^k, 2 <= k <= 64, s >= 1 and 0 < theta <= 1.  This
    is the one window constructor: counts admit s = 1 (a single prime
    power), and the series and integral check their own s >= 3.
    """
    for name, val in (("n", n), ("k", k), ("s", s)):
        if not isinstance(val, int):
            raise ValidationError(f"{name} must be an integer, got {val!r}")
    if not 2 <= k <= 64:
        raise ValidationError(f"need 2 <= k <= 64, got k={k}")
    if s < 1:
        raise ValidationError(f"need s >= 1, got s={s}")
    if n < s * 2**k:
        raise ValidationError(f"need n >= s * 2^k = {int_text(s * 2**k)}, got n={int_text(n)}")
    if not (0.0 < theta <= 1.0):
        raise ValidationError(f"need 0 < theta <= 1, got theta={theta}")

    below, hi, x, y = _window_boundaries(n, k, s, theta)
    if hi <= below:
        raise ValidationError(f"empty window for n={int_text(n)}, k={k}, s={s}, theta={theta}")
    return ShortInterval(x=x, y=y, k=k, lo=below + 1, hi=hi)


def sieve_upto(limit: int) -> list:
    """All primes <= limit, ascending."""
    return _primes_between(2, limit).tolist()


def _primes_between(lo: int, hi: int) -> np.ndarray:
    """The primes of [lo, hi] as an ascending int64 array, by a segmented sieve:
    segments of at least sqrt(hi) integers, so each sieving prime strikes one
    slice per segment (Bays and Hudson, BIT 1977).  The sieving primes are
    this function's own int64 array up to sqrt(hi), read as Python ints one
    SEGMENT_BLOCK at a time, never as one list."""
    lo = max(lo, 2)
    if hi < lo:
        return np.zeros(0, dtype=np.int64)
    root = math.isqrt(hi)
    small = _primes_between(2, root)
    # Segments start past every sieving prime, so no p strikes itself.
    found = [small[np.searchsorted(small, lo) :]]
    length = max(SEGMENT_BLOCK, root)
    for start in range(max(lo, root + 1), hi + 1, length):
        flags = np.ones(min(length, hi + 1 - start), dtype=bool)
        for first in range(0, len(small), SEGMENT_BLOCK):
            for p in small[first : first + SEGMENT_BLOCK].tolist():
                flags[-start % p :: p] = False
        found.append(np.flatnonzero(flags) + start)
    return np.concatenate(found)


def _prime_powers(lo: int, hi: int) -> tuple:
    """(bases, powers): every prime power p^j, j >= 1, in [lo, hi] (lo >= 1)
    as two int64 arrays, ordered by p, then j.  Past WINDOW_CAP integers or
    SIEVE_LIMIT_CAP on sqrt(hi), CapExceeded first."""
    check_cap("window length", hi - lo + 1, WINDOW_CAP)
    check_cap("sieve limit sqrt(hi)", math.isqrt(hi), SIEVE_LIMIT_CAP)
    bases = [_primes_between(_iroot(lo - 1, j) + 1, _iroot(hi, j))
             for j in range(1, max(hi.bit_length(), 2))]
    powers = np.concatenate([p**j for j, p in enumerate(bases, 1)])
    bases = np.concatenate(bases)
    order = np.argsort(bases, kind="stable")  # j ascends within each p
    return bases[order], powers[order]


def primes_in_interval(interval: ShortInterval) -> tuple:
    """Exactly the primes p with x - y < p <= x + y, ascending; past
    WINDOW_CAP integers or SIEVE_LIMIT_CAP on sqrt(hi), CapExceeded first."""
    bases, powers = _prime_powers(interval.lo, interval.hi)
    return tuple(bases[bases == powers].tolist())


def pow_mod(base: np.ndarray, k: int, q: int) -> np.ndarray:
    """Elementwise base^k mod q, as Python's pow(b, k, q) gives it, by
    `_binary_power`.

    q = 2^64 runs in wrapping uint64 arithmetic; any other modulus runs in
    int64, where q^2 must fit.
    """
    wrap = q == 1 << 64
    if not wrap:
        check_cap("pow_mod modulus", q, 3_000_000_000)
    b = base.astype(np.uint64) if wrap else np.mod(base, q)
    if k == 0:
        return np.full_like(b, 1 % q)
    with np.errstate(over="ignore"):
        return _binary_power(b, k, (lambda x, y: x * y) if wrap else (lambda x, y: x * y % q))


def _binary_power(base, e: int, multiply):
    """base^e for e >= 1 under an associative ``multiply``, by
    square-and-multiply over the bits of e, highest first."""
    out = base
    for bit in bin(e)[3:]:
        out = multiply(out, out)
        if bit == "1":
            out = multiply(out, base)
    return out


def _power_exceeds(base: int, exp: int, cap: int) -> bool:
    """base^exp > cap for integers base, exp >= 0, without forming a power
    longer than cap: base >= 2 exceeds any cap below 2^exp."""
    if base > 1 and exp > cap.bit_length():
        return True
    return base**exp > cap


def _power_bits(base: int, exp: int) -> int:
    """The bit length of base^exp for base >= 2, without forming the power:
    exact for a power of two, else floor(exp log2(base)) + 1 at twice the
    digits of exp and more, as exp log2(base) may lie 1/exp from an integer."""
    if base & (base - 1) == 0:
        return exp * (base.bit_length() - 1) + 1
    with localcontext() as ctx:
        ctx.prec = 2 * len(str(exp)) + len(str(base)) + 10
        return int(exp * Decimal(base).ln() / Decimal(2).ln()) + 1


def _smooth_length(m: int) -> int:
    """The least 3^b 5^c >= m (m >= 1); 3^b with b < m.bit_length() reaches m."""
    exps = range(m.bit_length())
    return min(next(5**c * 3**b for b in exps if 5**c * 3**b >= m) for c in exps)


def _fft_length(size: int) -> int:
    """Least 2^a 3^b 5^c >= size (size >= 1), as 2^a times the least
    `_smooth_length` over a; numpy's FFT is fast on such lengths."""
    return min(_smooth_length(-(-size >> a)) << a for a in range((size - 1).bit_length() + 1))


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


def divisor_counts(lo: int, hi: int) -> np.ndarray:
    """divisor_count(m) for every m in [lo, hi], 1 <= lo <= hi, by one sieve
    over d <= sqrt(hi): d counts twice in each multiple m > d^2 (for d and
    m/d), once in m = d^2."""
    taus = np.zeros(hi - lo + 1, dtype=np.int32)
    for d in range(1, math.isqrt(hi) + 1):
        square = d * d
        taus[max(square, -(-lo // d) * d) - lo :: d] += 2
        if square >= lo:
            taus[square - lo] -= 1
    return taus
