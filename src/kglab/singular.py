"""Arithmetic and archimedean factors of the main term.

The series side multiplies p-local densities assembled from complete
rational exponential sums over units; the integral side is the density
of real solutions of a power-sum equation with all variables in the
window.  Both admit two independent computations (term-by-term versus
multiplicative assembly; oscillatory quadrature versus iterated density
convolution), and the cross-checks are part of the contract.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arcs import classify
from .errors import (
    CapExceeded,
    ConsistencyError,
    KglabError,
    MinorArcError,
    ValidationError,
    check_cap,
)
from .intervals import (
    MEMORY_BUDGET,
    ShortInterval,
    _binary_power,
    _fft_length,
    _prime_powers,
    build_interval,
    euler_phi,
    factorize,
)
from .local_conditions import (_convolution_power, complete_exp_sum, complete_exp_sums,
                               is_admissible, local_profile, prime_exponents, unit_power_counts,
                               unit_solution_counts)

QMAX_CAP = 100_000          # the largest modulus the series reads
DEFAULT_QMAX = 10_000
OBSTRUCTION_FLOOR = 1e-6
SMALL_SERIES_FLOOR = 0.05  # flagged, never failed
IMAG_RESIDUE_TOL = 1e-10
GRID_CELLS = 1 << 14
# The convolution buffers of the sweep's two halves, at about 32 bytes per
# padded sample in each (a pad of 3,276,800 raised peak RSS by 101 MB):
# pads up to 4,375,000 samples, s <= 266.
PAD_CAP = MEMORY_BUDGET // (2 * 32)
QUAD_TAIL_TARGET = 1e-4    # relative size of the estimated quadrature tail
QUAD_BLOCK_CAP = 4096
SERIES_BLOCK = 1 << 18     # terms of one row block of targets: 2 MB of floats

# Series term tables kept, one per (k, s, qmax), least recently used
# dropped first.  A table retains 110,272 bytes at k = 2, qmax = 1e4
# (tracemalloc: its arrays and the objects around them), at most 191,264
# (k = 50) at that truncation, and 1,768,368 at k = 54, qmax = QMAX_CAP, the
# largest over every admissible (k, qmax): the cache stays under 7.1 MB.
TERM_TABLES = 4


def singular_series_term(q: int, n: int, k: int, s: int) -> float:
    """Weight of modulus q in the series: phi(q)^(-s) * sum over units a
    of S(q, a)^s e(-a n / q), with the imaginary residue checked before
    it is discarded.  Computed afresh from the complete sums on every
    call: the per-modulus oracle for the series tables.
    """
    if q < 1:
        raise ValidationError(f"need q >= 1, got {q}")
    check_cap("series modulus q", q, QMAX_CAP)
    if q == 1:
        return 1.0
    units, sums = complete_exp_sums(q, k)
    phases = np.exp(-2j * np.pi * np.mod(units * (n % q), q) / q)
    value = complex(np.sum((sums[units] / len(units)) ** s * phases))
    if abs(value.imag) >= IMAG_RESIDUE_TOL:
        raise ConsistencyError(
            f"series term at q={q} has imaginary residue {value.imag}"
        )
    return float(value.real)


@dataclass(frozen=True)
class SingularSeriesEstimate:
    """Truncated arithmetic factor with both assemblies retained.

    ``value`` is the multiplicative assembly (product of p-local factors
    over prime powers up to the truncation); ``value_direct`` sums the
    per-modulus weights over all q up to the truncation.  ``flag`` is
    "obstructed" below 1e-6, "small" below 0.05, else "ok".
    """

    n: int
    k: int
    s: int
    qmax: int
    value: float
    value_direct: float
    p_local: tuple
    method: str
    flag: str

    @property
    def obstructed(self) -> bool:
        return self.flag == "obstructed"


def singular_series(n: int, k: int, s: int, qmax: int = DEFAULT_QMAX) -> SingularSeriesEstimate:
    """Truncated series with p-local factors, both assemblies cross-kept.

    Requires s >= 3 and a truncation at least the local modulus for k.
    """
    _check_series_args(k, s, qmax)
    table = _term_table(k, s, qmax)
    terms = _series_terms([n], k, s, qmax)
    product, sigmas = _multiplicative_assembly(terms, table.bases)
    value = float(product[0])
    flag = "ok"
    if abs(value) <= OBSTRUCTION_FLOOR:
        flag = "obstructed"
    elif value < SMALL_SERIES_FLOOR:
        flag = "small"
    return SingularSeriesEstimate(
        n=n, k=k, s=s, qmax=qmax,
        value=value,
        value_direct=_direct_assembly(terms[0], table.bases, table.moduli, qmax),
        p_local=tuple(zip(np.unique(table.bases).tolist(), sigmas[0].tolist())),
        method="multiplicative",
        flag=flag,
    )


def _check_series_args(k: int, s: int, qmax: int):
    if s < 3:
        raise ValidationError(f"need s >= 3, got s={s}")
    check_cap("series truncation qmax", qmax, QMAX_CAP)
    modulus = local_profile(k).modulus
    if qmax < modulus:
        raise ValidationError(
            f"qmax={qmax} below the local modulus {modulus} for k={k}"
        )


_TermTable = namedtuple("_TermTable", "bases moduli cols primes exps keys values local")


def _powers_of_a_primitive_root(p: int) -> np.ndarray:
    """[g^0, g^1, ..., g^(p-2)] mod p for the least primitive root g."""
    ells = [ell for ell, _ in factorize(p - 1)]
    g = next(g for g in range(1, p) if all(pow(g, (p - 1) // ell, p) != 1 for ell in ells))
    powers = np.ones(p - 1, dtype=np.int64)
    done = 1
    while done < p - 1:
        step = min(done, p - 1 - done)
        powers[done:done + step] = powers[:step] * pow(g, done, p) % p
        done += step
    return powers


def _primitive_root_periods(p: int, k: int) -> tuple:
    """The Gauss periods eta_i over the cosets g^i H of the k-th powers H,
    as a (1, d) row, and the class (-n)^e = g^(i e) mod p of each coset,
    from the powers of a primitive root g: O(p) work."""
    d = math.gcd(k, p - 1)
    e = (p - 1) // d
    logs = _powers_of_a_primitive_root(p)
    half = np.exp(2j * np.pi * np.arange(p // 2 + 1) / p)
    roots = np.concatenate([half, half[p - len(half):0:-1].conj()])  # e(x / p)
    periods = roots[np.ascontiguousarray(logs.reshape(e, d).T)].sum(axis=1)
    return periods[None, :], logs[e * np.arange(d)][None, :]


def _closed_form_periods(primes: np.ndarray, d: int) -> tuple:
    """`_primitive_root_periods` of every prime with gcd(k, p - 1) = d <= 2,
    one row each, in O(1) per prime (Gauss).  For d = 1 the one period is
    -1, over the class 1.  For d = 2 the period over the squares (class 1)
    is (-1 + g) / 2 and over the non-squares (class p - 1) it is
    (-1 - g) / 2, with g = sqrt(p) for p = 1 mod 4 and i sqrt(p) for
    p = 3 mod 4."""
    if d == 1:
        return np.full((len(primes), 1), -1.0 + 0j), np.ones((len(primes), 1), dtype=np.int64)
    root = np.sqrt(primes.astype(float))
    gauss = np.where(primes % 4 == 1, root + 0j, 1j * root)
    return (np.stack([(-1 + gauss) / 2, (-1 - gauss) / 2], axis=1),
            np.stack([np.ones_like(primes), primes - 1], axis=1))


def _period_terms(primes: np.ndarray, periods: np.ndarray, classes: np.ndarray,
                  s: int, qmax: int) -> tuple:
    """The checked keys and real terms of primes sharing one d, from their
    (primes, d) periods and coset classes: with w_i = (d eta_i / (p - 1))^s
    the term is (p - 1) / d * sum w_i at class 0 (n = 0 mod p), and
    sum_i w_i eta_(i + j mod d) at the class of coset j."""
    d = periods.shape[1]
    weights = (d * periods / (primes - 1)[:, None]) ** s
    shifted = periods[:, (np.arange(d)[:, None] + np.arange(d)[None, :]) % d]
    terms = np.concatenate([((primes - 1) / d * weights.sum(axis=1))[:, None],
                            (shifted @ weights[:, :, None])[:, :, 0]], axis=1)
    keys = primes[:, None] * (qmax + 1) + np.concatenate([np.zeros_like(classes[:, :1]), classes], axis=1)
    return keys.ravel(), _real_terms(terms, primes).ravel()


def _local_column(q: int, p: int, k: int, s: int) -> np.ndarray:
    """A(q, n) over n mod q for q = p^j: chi_q - chi_(q/p), chi_(q/p) tiled p
    times, where chi_m = m L_m sums the terms over d | m and L_m, the law of a
    sum of s unit k-th powers mod m, is divided by its own total (exactly 1):
    otherwise each squaring of `_convolution_power` doubles the mass error."""
    chis = []
    for m in (q // p, q):
        law = _convolution_power(unit_power_counts(m, k) / euler_phi(m), s)
        chis.append(m * law / law.sum())
    return chis[1] - np.tile(chis[0], p)


@functools.lru_cache(maxsize=TERM_TABLES)
def _term_table(k: int, s: int, qmax: int) -> _TermTable:
    """The terms A(q, n) of the prime powers q <= qmax as functions of n;
    arguments are checked by the caller.

    Column i is the prime power ``moduli[i]`` of the prime ``bases[i]``,
    as ``intervals._prime_powers(2, qmax)`` gives them: by p, then j.
    A prime power q = p^j with j > gamma(p) has the column 0 (Hua:
    S(p^j, a) = 0).  The others come in two kinds.

    - p | k or (p - 1) | k: a ``local`` (column, q, table over n mod q),
      real by construction (`_local_column`); at the primes of the local
      modulus it is the Ramanujan sum c_q(n - s), exact in integers.
    - Every other p is keyed.  Let g be a primitive root, d = gcd(k, p - 1)
      and e = (p - 1) / d.  The k-th powers are H = {g^(d m)}, its cosets
      are g^i H for i < d, and eta_i is the Gauss period over g^i H.  Then
      S(p, a) = d eta_i for a in g^i H (Berndt, Evans and Williams, Gauss
      and Jacobi Sums, 1998), and the term depends on n only through the
      class (-n)^e mod p: 0 when p | n, and g^(j e) when -n lies in g^j H
      (`_period_terms`).  For d <= 2 the periods have a closed form, built
      for all such primes at once (`_closed_form_periods`); for d >= 3 they
      are summed over the powers of a primitive root, O(p) per prime
      (`_primitive_root_periods`).  Column ``cols[i]`` of ``primes[i]``
      takes the entry of ``values`` at the key p * (qmax + 1) +
      (-n)^exps[i] mod p in ``keys``.

    Every keyed entry is computed complex and has its imaginary residue
    checked once, here (`_real_terms`); a failing prime raises, so no such
    table is cached, and the arrays kept are real.
    """
    bases, moduli = _prime_powers(2, qmax)
    unkeyed = (k % bases == 0) | (k % (bases - 1) == 0)
    local = tuple((col, q, _local_column(q, p, k, s)) for col, p, q in zip(
                      np.flatnonzero(unkeyed).tolist(), bases[unkeyed].tolist(), moduli[unkeyed].tolist())
                  if q <= p ** prime_exponents(p, k)[1])
    first_cols = np.flatnonzero(bases == moduli)
    all_primes, keyed = bases[first_cols], ~unkeyed[first_cols]
    ds = np.gcd(all_primes - 1, k)
    pieces = []
    for d in (1, 2):
        primes = all_primes[keyed & (ds == d)]
        pieces.append(_period_terms(primes, *_closed_form_periods(primes, d), s, qmax))
    for p in all_primes[keyed & (ds > 2)].tolist():
        pieces.append(_period_terms(np.array([p]), *_primitive_root_periods(p, k), s, qmax))
    keys = np.concatenate([piece_keys for piece_keys, _ in pieces])
    order = np.argsort(keys)
    primes = all_primes[keyed]
    table = _TermTable(bases, moduli, first_cols[keyed], primes, (primes - 1) // ds[keyed], keys[order],
                       np.concatenate([values for _, values in pieces])[order], local)
    for array in [*table[:7], *(column for _, _, column in local)]:
        array.flags.writeable = False  # shared by every caller through the cache
    return table


def _real_terms(terms: np.ndarray, moduli) -> np.ndarray:
    """The real parts of complex terms, one row per modulus, once no row's
    imaginary residue reaches IMAG_RESIDUE_TOL; the first failing row raises."""
    residues = np.max(np.abs(terms.imag), axis=1, initial=0.0)
    failing = np.flatnonzero(residues >= IMAG_RESIDUE_TOL)
    if len(failing):
        q, residue = moduli[failing[0]], residues[failing[0]]
        raise ConsistencyError(f"series terms at q={q} have imaginary residue {residue:.3g}")
    return terms.real.copy()


def _series_terms(ns, k: int, s: int, qmax: int) -> np.ndarray:
    """The real (targets, prime powers) matrix of terms, read from the
    checked table.  Arguments are checked by the caller."""
    table = _term_table(k, s, qmax)
    try:
        targets = np.array(ns, dtype=np.int64)
    except OverflowError:
        targets = np.array(ns, dtype=object)
    values = np.zeros((len(targets), len(table.moduli)))
    base = (-targets[:, None] % table.primes).astype(np.int64)
    classes, exps = np.ones_like(base), table.exps
    while exps.any():  # classes = (-n)^exps mod p, by square-and-multiply
        classes = np.where(exps & 1, classes * base % table.primes, classes)
        base, exps = base * base % table.primes, exps >> 1
    values[:, table.cols] = table.values[np.searchsorted(table.keys, table.primes * (qmax + 1) + classes)]
    for col, q, column in table.local:
        values[:, col] = column[(targets % q).astype(np.int64)]
    return values


def _series_values(ns, k: int, s: int, qmax: int) -> np.ndarray:
    """Multiplicative series value of every target.  Arguments are checked
    by the caller.  Targets go SERIES_BLOCK terms at a time."""
    table = _term_table(k, s, qmax)
    step = max(1, SERIES_BLOCK // len(table.moduli))
    values = [np.empty(0)]
    for start in range(0, len(ns), step):
        values.append(_multiplicative_assembly(_series_terms(ns[start:start + step], k, s, qmax),
                                               table.bases)[0])
    return np.concatenate(values)


def _multiplicative_assembly(terms: np.ndarray, bases: np.ndarray) -> tuple:
    """Per row of the term matrix, whose columns are the powers of the primes
    ``bases`` (by p, then j): the product over p of the local factor
    1 + A(p) + A(p^2) + ..., and the (rows, primes) matrix of those factors.
    The factors take their j-th powers in one pass for every prime that has
    one (a prefix of the primes), and the product runs in prime order."""
    _, firsts, counts = np.unique(bases, return_index=True, return_counts=True)
    sigmas = 1.0 + terms[:, firsts]
    for j in range(1, counts[0]):
        have = np.count_nonzero(counts > j)
        sigmas[:, :have] += terms[:, firsts[:have] + j]
    return np.prod(sigmas, axis=1), sigmas


def _direct_assembly(terms: np.ndarray, bases: np.ndarray, moduli: np.ndarray, qmax: int) -> float:
    """The sum of the weights of all q <= qmax, from one target's terms at
    the prime powers ``moduli`` of the primes ``bases`` (by p, then j).

    A composite weight is the product of its prime-power weights
    (multiplicativity, verified directly in the test suite on small
    coprime pairs): every q starts at 1 and takes the term of each
    p^j || q, largest prime first; the sum over q runs in order.  A prime
    above sqrt(qmax) divides each of its multiples once, and no q <= qmax
    has two such primes, so their terms are written in one pass.
    """
    values = np.ones(qmax + 1)
    col = np.count_nonzero(bases <= math.isqrt(qmax))  # the columns of the primes p <= sqrt(qmax)
    big = bases[col:]
    multiples = qmax // big
    firsts = np.repeat(np.cumsum(multiples) - multiples, multiples)
    factors = np.arange(len(firsts)) - firsts + 1
    values[np.repeat(big, multiples) * factors] = np.repeat(terms[col:], multiples)
    for p, pj, term in reversed(list(zip(bases[:col].tolist(), moduli[:col].tolist(), terms[:col]))):
        qs = np.arange(pj, qmax + 1, pj)
        values[qs[qs % (pj * p) != 0]] *= term
    return float(np.cumsum(values[1:])[-1])


def local_count_identity_check(q: int, n: int, k: int, s: int) -> bool:
    """Classical consistency check tying the series terms to unit
    solution counts: the divisor sum of the weights at q equals
    q * phi(q)^(-s) * (number of unit tuples mod q summing to n).

    The count is exact (integer convolution over residues); the check
    passes within 1e-8 relative error.
    """
    check_cap("identity check modulus q", q, 500)
    check_cap("identity check s", s, 6)
    lhs = 0.0
    for d in range(1, q + 1):
        if q % d == 0:
            lhs += singular_series_term(d, n, k, s)
    counts = unit_solution_counts(q, k, s)
    m_n = int(counts[n % q])
    phi = euler_phi(q)
    rhs = float(Fraction(q * m_n, phi**s))
    return abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# archimedean side


# The nodes, weights and phases of one phase integral, at 600 bytes per
# panel (tracemalloc at 5e4, 2e5 and 1e6 panels, k = 2 and 3): 466,666.
PANEL_CAP = MEMORY_BUDGET // 600


@functools.cache
def _gauss_legendre(nodes: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], built on first use:
    12 per panel of a phase integral, 16 per block of the quadrature."""
    return np.polynomial.legendre.leggauss(nodes)


def _centered_phase_integral(beta: float, interval: ShortInterval) -> complex:
    """Integral over the window of e((u^k - x^k) beta) du.

    Panel count grows with the total phase swing; each panel is handled
    by fixed Gauss-Legendre nodes.  Subtracting the phase at the center
    keeps every evaluated phase small enough for double precision.
    """
    x, y, k = interval.x, interval.y, interval.k
    swing = y * x ** (k - 1) * abs(beta)
    if not math.isfinite(swing):
        raise CapExceeded("phase swing overflows double precision")
    panels = int(math.ceil(8.0 * (1.0 + swing)))
    check_cap("quadrature panels", panels, PANEL_CAP)
    nodes, weights = _gauss_legendre(12)
    edges = np.linspace(-y, y, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    d = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    w = (half[:, None] * weights[None, :]).ravel()

    # (x + d)^k - x^k as a polynomial in d (no cancellation).
    acc = np.ones_like(d)
    for i in range(k - 1, 0, -1):
        acc = acc * d + math.comb(k, i) * x ** (k - i)
    rel = acc * d

    ang = 2.0 * np.pi * (rel * beta)
    re = float(np.sum(w * np.cos(ang)))
    im = float(np.sum(w * np.sin(ang)))
    return complex(re, im)


def _center_phase(beta: float, interval: ShortInterval) -> complex:
    if beta == 0.0:
        return 1.0 + 0.0j
    frac = Fraction(interval.x) ** interval.k * Fraction(beta)
    frac -= math.floor(frac)
    ang = 2.0 * math.pi * float(frac)
    return complex(math.cos(ang), math.sin(ang))


def phase_integral(beta: float, interval: ShortInterval) -> complex:
    """Oscillatory window integral of e(u^k beta) du.

    Only small frequencies are supported (|beta| <= 1); the phase at the
    window center is split off and reduced mod 1 in exact rational
    arithmetic, so the result does not lose accuracy to the large
    integer part of x^k * beta.
    """
    if abs(beta) > 1.0:
        raise ValidationError(f"need |beta| <= 1, got beta={beta}")
    centered = _centered_phase_integral(beta, interval)
    return _center_phase(beta, interval) * centered


@dataclass(frozen=True)
class SingularIntegralEstimate:
    """Archimedean factor with the method that produced it.

    ``flagged`` marks a cross-method disagreement above 5 percent when
    both methods were run; ``alt_value`` then carries the other method.
    """

    value: float
    method: str
    grid_cells: int
    flagged: bool = False
    alt_value: float = None


def _support(n: int, interval: ShortInterval, s: int) -> bool:
    lo_t = (interval.x - interval.y) ** interval.k
    hi_t = (interval.x + interval.y) ** interval.k
    return s * lo_t <= n <= s * hi_t


def _integrals_by_convolution(ns, intervals, s: int) -> list:
    """The density-convolution integral at each n in its window, 0 off the
    grid.  The s-th power of the spectrum overflows for large s (s = 200 at
    n = 2040200, theta = 0.1), and the grid scale h^(s-1) for large n
    (n = 10^100 at s = 5): a value read from them that is not finite
    raises CapExceeded instead of being clipped to 0.  That power is taken
    by `_binary_power` (s >= 3): NumPy's complex power calls the libm cpow,
    about four times slower at these pads.

    One spectrum array and one power array serve every target, and the
    convolution is written over the spectrum, so a target's own
    allocations are the FFT's scratch alone.  With fresh arrays per
    target, glibc handed their pages back after most targets of a sweep
    and faulted them in again, about 990 page faults per target.  The
    `out=` arguments of numpy.fft need NumPy 2.0.
    """
    size = s * (GRID_CELLS - 1) + 1  # the linear convolution: no wrap-around
    pad = _fft_length(size)
    check_cap(f"convolution pad at s={s}", pad, PAD_CAP)
    # glibc raises its mmap and trim thresholds to the size of a freed mapping: one
    # freed here keeps the FFT's scratch (pad doubles a call) in the heap, not
    # mapped and faulted in afresh for each target (about 577 faults each).
    np.empty(2 * pad)
    spectrum = np.empty(pad // 2 + 1, dtype=complex)
    power = np.empty_like(spectrum)
    conv = spectrum.view(float)[:pad]  # the spectrum is spent once its power is taken
    values = []
    for n, interval in zip(ns, intervals):
        x, y, k = interval.x, interval.y, interval.k
        lo_t = (x - y) ** k
        hi_t = (x + y) ** k
        h = (hi_t - lo_t) / GRID_CELLS
        # index m of the convolution holds its value at s*lo_t + (m + s/2) * h
        pos = (n - s * lo_t) / h - s / 2.0
        if pos <= 0 or pos >= size - 1:
            values.append(0.0)
            continue
        t_mid = lo_t + (np.arange(GRID_CELLS) + 0.5) * h
        density = (1.0 / k) * t_mid ** (1.0 / k - 1.0)
        i = int(math.floor(pos))
        fracpos = pos - i
        try:
            scale = h ** (s - 1)
        except OverflowError:  # past the double range: the check below names it
            scale = math.inf
        # A local error state: this may run on the sweep's helper thread.
        with np.errstate(over="ignore", invalid="ignore"):
            np.fft.rfft(density, pad, out=spectrum)
            np.fft.irfft(_binary_power(spectrum, s, lambda a, b: np.multiply(a, b, out=power)),
                         pad, out=conv)
            value = (1.0 - fracpos) * (conv[i] * scale) + fracpos * (conv[i + 1] * scale)
        if not math.isfinite(value):
            raise CapExceeded(f"the density convolution overflows at s={s}; use fourier-quadrature")
        values.append(float(max(0.0, value)))
    return values


def _integral_by_quadrature(n: int, interval: ShortInterval, s: int) -> float:
    x, y, k = interval.x, interval.y, interval.k
    freq_center = float(s * Fraction(x) ** k - n)  # exact up to final rounding
    beta_scale = 1.0 / (y * x ** (k - 1))
    block = 0.5 * beta_scale
    nodes, weights = _gauss_legendre(16)

    total = 0.0
    prev_mag = None
    blocks_done = 0
    while True:
        check_cap("quadrature blocks", blocks_done + 1, QUAD_BLOCK_CAP)
        b0 = blocks_done * block
        mids = b0 + 0.5 * block * (nodes + 1.0)
        wts = 0.5 * block * weights
        vals = np.empty(len(mids))
        for i, beta in enumerate(mids):
            centered = _centered_phase_integral(beta, interval)
            try:
                core = centered**s
            except OverflowError:
                raise KglabError(f"the quadrature's s-th power of the phase integral "
                                 f"overflows at s={s}") from None
            ang = 2.0 * math.pi * freq_center * beta
            vals[i] = (core * complex(math.cos(ang), math.sin(ang))).real
        contrib = 2.0 * float(np.sum(wts * vals))
        total += contrib
        blocks_done += 1
        mag = abs(contrib)
        if blocks_done >= 8 and mag == 0.0 and prev_mag == 0.0:
            break
        if prev_mag is not None and prev_mag > 0 and mag < prev_mag:
            ratio = mag / prev_mag
            tail = mag * ratio / (1.0 - ratio)
            if tail < QUAD_TAIL_TARGET * max(abs(total), 1e-300) and blocks_done >= 8:
                break
        prev_mag = mag
    return max(0.0, total)


def singular_integral(n: int, interval: ShortInterval, s: int,
                      method: str = "both") -> SingularIntegralEstimate:
    """Density of real power-sum representations of n from the window, by
    s-fold sums of k-th powers with the window's k.

    method "fourier-quadrature" integrates the s-th power of the window
    phase integral against e(-n beta); "density-convolution" convolves
    the pushforward density of u -> u^k s times on a uniform grid of
    GRID_CELLS = 2^14 cells and reads off the value at n; "both" runs the
    two, reports the quadrature with the convolution as ``alt_value``, and
    flags a disagreement above 5 percent instead of failing.  Off the
    support every method gives 0.0 without running either.
    """
    if s < 3:
        raise ValidationError(f"need s >= 3, got s={s}")
    if method not in ("fourier-quadrature", "density-convolution", "both"):
        raise ValidationError(f"unknown method {method!r}")
    value, quad, conv = 0.0, None, None
    if _support(n, interval, s):
        # The convolution runs first, so that its pad cap fails before the
        # slow quadrature; value ends as the quadrature's whenever it runs.
        if method != "fourier-quadrature":
            value = conv = _integrals_by_convolution([n], [interval], s)[0]
        if method != "density-convolution":
            value = quad = _integral_by_quadrature(n, interval, s)
    both = quad is not None and conv is not None
    return SingularIntegralEstimate(
        value=value, method=method, grid_cells=GRID_CELLS,
        flagged=both and abs(quad - conv) > 0.05 * max(abs(quad), abs(conv), 1e-300),
        alt_value=conv if both else None,
    )


# ---------------------------------------------------------------------------
# major-arc approximant and the assembled prediction


def major_arc_approx(alpha: float, dissection, interval: ShortInterval) -> complex:
    """S(q,a)/phi(q) * v(alpha - a/q) / log x on the containing arc, with
    alpha - a/q reduced mod 1 into [-1/2, 1/2], as the arc reads alpha.
    It approximates the prime-indicator phase sum; raising on a minor-arc
    frequency is a contract error.
    """
    arc = classify(alpha, dissection)
    if arc is None:
        raise MinorArcError(f"alpha={alpha} lies on the minor arcs")
    beta = Fraction(alpha) - Fraction(arc.a, arc.q)
    gauss = complete_exp_sum(arc.q, arc.a, interval.k)
    v = phase_integral(float(beta - round(beta)), interval)
    big_l = math.log(interval.x)
    return gauss / euler_phi(arc.q) * v / big_l


@dataclass(frozen=True)
class PredictionReport:
    """Main-term prediction and its components."""

    n: int
    k: int
    s: int
    theta: float
    qmax: int
    series: SingularSeriesEstimate
    integral: SingularIntegralEstimate
    log_x: float
    prediction: float
    normalized_constant: float
    admissible: bool

    @property
    def obstructed(self) -> bool:
        return self.series.obstructed


def predict_main_term(n: int, k: int, s: int, theta: float,
                      qmax: int = DEFAULT_QMAX,
                      integral_method: str = "both") -> PredictionReport:
    """Main term (series) * (integral) * (log x)^(-s), plus the size-free
    constant (series) * (integral) * y^(1-s) * x^(k-1).

    Inadmissible n are reported (obstruction flag), not rejected.
    """
    interval = build_interval(n, k, s, theta)
    series = singular_series(n, k, s, qmax)
    integral = singular_integral(n, interval, s, method=integral_method)
    log_x = math.log(interval.x)
    prediction = series.value * integral.value * log_x ** (-s)
    constant = (
        series.value
        * integral.value
        * interval.y ** (1 - s)
        * interval.x ** (k - 1)
    )
    return PredictionReport(
        n=n, k=k, s=s, theta=theta, qmax=qmax,
        series=series, integral=integral,
        log_x=log_x, prediction=prediction,
        normalized_constant=constant,
        admissible=is_admissible(n, k, s),
    )
