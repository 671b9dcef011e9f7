"""Exponential sums over short windows.

The generating sum is sum_{m in window} w(m) e(m^k alpha).  Everything
here hinges on exact phase reduction: a double-precision alpha is a
dyadic rational, so for any 64-bit fixed-point representable alpha the
fractional part of m^k * alpha equals ((m^k mod 2^64) * A mod 2^64) / 2^64
exactly, where A = alpha * 2^64.  Wrapping uint64 multiplication gives
this for whole windows at vector speed; frequencies outside that range
fall back to exact integer arithmetic per term.  One kernel does this
reduction for every phase sum here (plain, scanned and per decomposition
block), for a block of frequencies at a time: one row of wrapped products
per frequency, each row added by numpy's pairwise summation, and about
_BLOCK_TERMS terms per block.  The only inexactness left is evaluating
e(.) and that summation.  The complete sums S(q, a) share the same exact
modular arithmetic, one table per modulus.

Moments of |f|^(2t) are integers (solution counts) and are computed two
independent ways: averaging |f|^(2t) over any N >= 2 t spread + 1
equispaced points, padded to a 5-smooth N for the real FFT (the sampled
mean of a trigonometric polynomial below the aliasing threshold is its
exact mean), and direct enumeration of power-sum collisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arcs import classify
from .errors import CapExceeded, ConsistencyError, ValidationError
from .intervals import (
    MEMORY_BUDGET,
    ShortInterval,
    _fft_length,
    divisor_count,
    pow_mod,
    sieve_upto,
    units,
    von_mangoldt,
)
from .representations import _check_table_cap, _fold_sums, _weighted_half
from .weights import WeightFunction

_TWO64 = 1 << 64
_SCALE64 = 2.0**-64
MOMENT_SAMPLE_CAP = 1 << 26
RUN_CHUNK = 1 << 22        # sorted sums read at a time by _sum_squared_run_lengths
# Frequencies x terms per kernel block: 512 KB per float64 temporary, which
# stays in cache; 2^19-term blocks ran the 5,023-term scan ~15% slower.
_BLOCK_TERMS = 1 << 16
COMPLETE_SUM_CAP = 1_000_000
# weyl-scan's samples, at about 2,400 bytes each in a JSON report, the
# heavier form (200,000 samples raised peak RSS by 457 MB): 116,666.
SCAN_SAMPLE_CAP = MEMORY_BUDGET // 2_400
# vaughan_decompose's tables and the sieves behind them, at about 28 bytes
# per entry (4.9e6 more entries raised peak RSS by 122 MB): 10,000,000.
DECOMPOSE_ENTRY_CAP = MEMORY_BUDGET // 28
# evaluate_components' table of v^k mod 2^64, at about 33 bytes per entry
# while it is built (4e6 more entries raised peak RSS by 122 MB): 8,484,848.
POWER_TABLE_CAP = MEMORY_BUDGET // 33


def weyl_exponent(k: int) -> int:
    """Mean-value exponent driving the minor-arc saving: 2 for squares,
    k^2 - k + 1 for higher powers."""
    if k < 2:
        raise ValidationError(f"need k >= 2, got {k}")
    return 2 if k == 2 else k * k - k + 1


def minor_arc_rho(k: int) -> float:
    """Saving exponent rho = 1 / (31 t_k) used by scans and the bilinear cut."""
    return 1.0 / (31.0 * weyl_exponent(k))


# ---------------------------------------------------------------------------
# phase machinery


def window_powers_mod64(lo: int, hi: int, k: int) -> np.ndarray:
    """m^k mod 2^64 for m in [lo, hi], from m mod 2^64 (wrapping uint64)."""
    return pow_mod(np.arange(hi - lo + 1, dtype=np.uint64) + np.uint64(lo % _TWO64), k, _TWO64)


def _frequencies(alphas) -> tuple:
    """Exact form of a float or a 1-D array of frequencies: the uint64 fixed
    points num * (2^64 / den) mod 2^64 of those with dyadic denominator
    den <= 2^64 (0 elsewhere), and {row: (num, den)} for the others."""
    alphas = np.atleast_1d(alphas)
    fixed = np.zeros(len(alphas), dtype=np.uint64)
    exact = {}
    for j, alpha in enumerate(alphas):
        num, den = float(alpha).as_integer_ratio()
        if den <= _TWO64:
            fixed[j] = num % den * (_TWO64 // den)
        else:
            exact[j] = (num, den)
    return fixed, exact


def _phase_sums(values, lo: int, hi: int, k: int, freqs: tuple,
                powers_mod: np.ndarray = None, mult: int = 1) -> np.ndarray:
    """Row j: sum over m in [lo, hi] of values[m - lo] e(m^k mult alpha_j),
    for the frequencies ``freqs = _frequencies(alphas)``; values=None means
    unit weights.

    Each phase is reduced mod 1 exactly before e(.) is taken: by wrapping
    uint64 products of the fixed point, mult and m^k mod 2^64
    (``powers_mod``, computed here if not given), or per term in Python
    integers for the rows listed in ``freqs[1]``.  e(.) is taken only at
    terms of nonzero weight; each row is added by numpy's pairwise
    summation over the whole window, zeros in place of the skipped terms.
    A block holds as many frequencies as fit in _BLOCK_TERMS window terms,
    and at least one.
    """
    fixed, exact = freqs
    if powers_mod is None:
        powers_mod = window_powers_mod64(lo, hi, k)
    size = hi - lo + 1
    terms = np.arange(size) if values is None else np.flatnonzero(values)
    powers_mod = powers_mod[terms]
    if values is not None:
        values = values[terms]
    step = max(1, _BLOCK_TERMS // size)
    out = np.empty(len(fixed), dtype=np.complex128)
    for start in range(0, len(fixed), step):
        stop = start + step
        with np.errstate(over="ignore"):
            prod = (fixed[start:stop] * np.uint64(mult % _TWO64))[:, None] * powers_mod
        ang = prod.astype(np.float64)
        ang *= _SCALE64
        for j, (num, den) in exact.items():
            if start <= j < stop:
                ang[j - start] = [pow(lo + i, k, den) * (num * mult) % den / den
                                  for i in terms.tolist()]
        ang *= 2.0 * np.pi
        re = np.cos(ang)
        im = np.sin(ang, out=ang)
        if values is not None:
            re *= values
            im *= values
        out.real[start:stop] = _row_sums(re, terms, size)
        out.imag[start:stop] = _row_sums(im, terms, size)
    return out


def _row_sums(rows: np.ndarray, terms: np.ndarray, size: int) -> np.ndarray:
    """Pairwise sum of each row, with zeros put back at the terms left out
    so that the summation tree is the full window's."""
    if len(terms) < size:
        full = np.zeros((len(rows), size))
        full[:, terms] = rows
        rows = full
    return np.sum(rows, axis=1)


def _as_given(alphas, sums: np.ndarray):
    """A complex for a scalar frequency, else the array of sums."""
    return complex(sums[0]) if np.ndim(alphas) == 0 else sums


def weighted_exp_sum(alpha, weight: WeightFunction, interval: ShortInterval):
    """sum over the window of w(m) e(m^k alpha), for a float alpha or for
    each entry of a 1-D array of them.

    Phases are reduced mod 1 in exact integer arithmetic before e(.) is
    taken; adding an integer to alpha therefore cannot change the result.
    """
    sums = _phase_sums(weight.values, interval.lo, interval.hi, interval.k,
                       _frequencies(alpha))
    return _as_given(alpha, sums)


# ---------------------------------------------------------------------------
# complete rational sums


def complete_exp_sums(q: int, k: int) -> tuple:
    """(units mod q, S(q, a) for every residue a mod q), where S(q, a) is
    the sum over units h mod q of e(a h^k / q).

    The units are enumerated once, and all a are evaluated at once through
    the DFT of the k-th power residue counts.
    """
    hs = units(q)
    counts = np.bincount(pow_mod(hs, k, q), minlength=q).astype(np.float64)
    return hs, np.conj(np.fft.fft(counts))


def complete_exp_sum(q: int, a: int, k: int) -> complex:
    """S(q, a): the sum over units h mod q of e(a h^k / q).

    gcd(a, q) = 1 is expected but not enforced; the sum is well defined
    either way.
    """
    if q < 1:
        raise ValidationError(f"need q >= 1, got {q}")
    if not (1 <= a <= q):
        raise ValidationError(f"need 1 <= a <= q, got a={a}")
    if q > COMPLETE_SUM_CAP:
        raise CapExceeded(f"q={q} exceeds the complete-sum cap {COMPLETE_SUM_CAP}")
    return complex(complete_exp_sums(q, k)[1][a % q])


# ---------------------------------------------------------------------------
# moments


def moment_nyquist(interval: ShortInterval, t: int) -> int:
    """Exact integral of |f(alpha, 1)|^(2t) over the unit interval.

    |f|^(2t) is a trigonometric polynomial with frequencies bounded by
    t * (hi^k - lo^k), so its average over any N >= 2 t (hi^k - lo^k) + 1
    equispaced points equals the integral exactly; N is that bound padded
    to the next 5-smooth length, where the real FFT is fast.  The result
    is the number of solutions of a t-versus-t power-sum collision and is
    returned as an integer.  An N above MOMENT_SAMPLE_CAP raises
    CapExceeded before anything is allocated.
    """
    if t < 1:
        raise ValidationError(f"need t >= 1, got {t}")
    lo, hi, k = interval.lo, interval.hi, interval.k
    spread = hi**k - lo**k
    n_samples = 2 * t * spread + 1
    if n_samples > MOMENT_SAMPLE_CAP:
        raise CapExceeded(f"{n_samples} sample points exceed the cap {MOMENT_SAMPLE_CAP}")
    size = _fft_length(n_samples)
    # np.zeros leaves untouched pages unmapped; a full bincount would not.
    counts = np.zeros(size)
    np.add.at(counts, pow_mod(lo % size + np.arange(hi - lo + 1), k, size), 1.0)
    power = np.abs(np.fft.rfft(counts)) ** (2 * t)
    # Hermitian fold: bins 1 .. ceil(N/2) - 1 also stand for their mirrors.
    total = power[0] + 2.0 * np.sum(power[1 : (size + 1) // 2])
    if size % 2 == 0:
        total += power[size // 2]
    mean = float(total / size)
    value = round(mean)
    residual = abs(mean - value)
    if residual > 1e-6:
        raise ConsistencyError(
            f"sampled moment mean {mean} is {residual} away from an integer"
        )
    return int(value)


def moment_enumeration(interval: ShortInterval, t: int, weight: WeightFunction) -> float:
    """Weighted count of solutions of a t-fold power-sum collision.

    Enumerates all t-fold sums of m^k over the support of the weight,
    accumulates the product weight per sum value, and returns the sum of
    W(v)^2 over values v.  A 0/1 weight counts repeats of each sorted sum
    instead of carrying weights, so the unit weight gives the exact
    integer solution count matching ``moment_nyquist``.  Sums run in
    int64, or in Python integers (object arrays) once t * hi^k reaches
    2^62.  A table of more than the counting's TABLE_CAP states raises
    CapExceeded before it is built.
    """
    if t < 1:
        raise ValidationError(f"need t >= 1, got {t}")
    lo, hi, k = interval.lo, interval.hi, interval.k
    _check_table_cap(hi - lo + 1, t)
    dtype = object if t * hi**k >= 2**62 else np.int64
    powers = np.array([m**k for m in range(lo, hi + 1)], dtype=dtype)
    w = weight.values.astype(np.float64)
    nonzero = np.nonzero(w)[0]
    if np.all(w[nonzero] == 1.0):
        sums = _fold_sums(powers[nonzero], t)
        if dtype is object:  # Python's timsort beats numpy's object sort ~5x
            sums = np.array(sorted(sums.tolist()), dtype=object)
        else:
            sums.sort()
        return float(_sum_squared_run_lengths(sums))
    half = _weighted_half([weight] * t, powers)
    if half is None:
        return 0.0
    return float(np.sum(half[1] ** 2))


def _sum_squared_run_lengths(sorted_vals: np.ndarray) -> int:
    """Sum of squared run lengths of a sorted array, RUN_CHUNK entries at a time."""
    total = 0
    run = 0
    prev = None
    n = len(sorted_vals)
    for start in range(0, n, RUN_CHUNK):
        block = sorted_vals[start : start + RUN_CHUNK]
        ends = np.nonzero(np.diff(block))[0]
        if prev is not None and len(block) and block[0] != prev:
            total += run * run
            run = 0
        if len(ends) == 0:
            run += len(block)
        else:
            total += (run + int(ends[0]) + 1) ** 2
            if len(ends) > 1:
                lengths = np.diff(ends)
                total += int(np.sum(lengths * lengths))
            run = len(block) - int(ends[-1]) - 1
        if len(block):
            prev = block[-1]
    total += run * run
    return total


# ---------------------------------------------------------------------------
# bilinear decomposition of the prime-power phase sum


@dataclass(frozen=True)
class BilinearComponent:
    """One dyadic block of the divisor-sum decomposition.

    kind "type-I" carries coefficients xi on the short variable u and a
    free long variable (optionally weighted by log); kind "type-II"
    carries coefficient arrays on both variables.  Evaluating the sum of
    sign * value over all components reproduces the von Mangoldt phase
    sum exactly at every frequency.
    """

    kind: str
    sign: int
    u_lo: int
    u_hi: int
    xi: np.ndarray
    v_lo: int = 0
    v_hi: int = -1
    eta: np.ndarray = None
    inner_log: bool = False


def default_bilinear_cut(interval: ShortInterval) -> float:
    """Decomposition cut X = x * y^(-1 + 2 rho) with rho = 1/(31 t_k)."""
    rho = minor_arc_rho(interval.k)
    return interval.x * interval.y ** (-1.0 + 2.0 * rho)


def _dyadic_blocks(lo: int, hi: int):
    u = lo
    while u <= hi:
        top = min(2 * u - 1, hi)
        yield u, top
        u = top + 1


def vaughan_decompose(interval: ShortInterval, X: float = None) -> list:
    """Divisor-sum decomposition of the von Mangoldt weight at cut X.

    Returns dyadic components: smooth blocks with coefficients mu(b),
    b <= X (log-weighted long variable); smooth blocks with the
    convolution coefficient over b <= X^2 (sign -1); and bilinear blocks
    over X < b <= (x+y)/X whose inner coefficients sum log p over prime
    powers above the cut.  The evaluated components sum to the phase sum
    of the von Mangoldt function at every frequency.

    The Moebius table reaches max(X^2, hi/X), the beta table hi/(X + 1)
    and the convolution coefficients X^2; more than DECOMPOSE_ENTRY_CAP
    entries in all raise CapExceeded before any table is built.
    """
    if X is None:
        X = default_bilinear_cut(interval)
    lo, hi = interval.lo, interval.hi
    if not (2.0 <= X <= math.sqrt(interval.x + interval.y)):
        raise ValidationError(
            f"cut X={X} outside [2, sqrt(x+y)] for this window"
        )
    if lo <= X:
        raise ValidationError(
            f"window starts at {lo} <= X={X}; the decomposition needs lo > X"
        )
    xint = int(math.floor(X))
    x2int = int(math.floor(X * X))
    b_lo = xint + 1
    b_hi = int(math.floor(hi / X))
    w_max = hi // (xint + 1)
    entries = max(x2int, b_hi) + w_max + x2int
    if entries > DECOMPOSE_ENTRY_CAP:
        raise CapExceeded(f"decomposition tables of {entries} entries exceed the cap "
                          f"{DECOMPOSE_ENTRY_CAP}")

    mu = _moebius_table(max(x2int, b_hi))
    lam = np.array([0.0] + [von_mangoldt(c) for c in range(1, xint + 1)])

    # Coefficients of the double divisor piece e = b*c, b, c <= X.
    conv = np.zeros(x2int + 1)
    for b in range(1, xint + 1):
        if mu[b] == 0:
            continue
        for c in range(1, xint + 1):
            e = b * c
            if e > x2int:
                break
            if lam[c]:
                conv[e] += mu[b] * lam[c]

    # Inner coefficients of the bilinear piece: sum of log p over prime
    # power divisors above the cut.
    beta = np.zeros(w_max + 1)
    for p in sieve_upto(w_max):
        pj = p
        logp = math.log(p)
        while pj <= w_max:
            if pj > X:
                beta[pj::pj] += logp
            pj *= p

    components = []
    for u0, u1 in _dyadic_blocks(1, xint):
        xi = np.array([float(mu[b]) for b in range(u0, u1 + 1)])
        components.append(BilinearComponent(kind="type-I", sign=+1, u_lo=u0, u_hi=u1, xi=xi,
                                            inner_log=True))
    for u0, u1 in _dyadic_blocks(1, x2int):
        xi = conv[u0 : u1 + 1].copy()
        components.append(BilinearComponent(kind="type-I", sign=-1, u_lo=u0, u_hi=u1, xi=xi))
    for u0, u1 in _dyadic_blocks(b_lo, b_hi):
        xi = np.array([float(mu[b]) for b in range(u0, u1 + 1)])
        v_lo = max(1, (lo + u1 - 1) // u1)
        v_hi = hi // u0
        if v_hi > w_max:
            v_hi = w_max
        if v_hi < v_lo:
            continue
        eta = beta[v_lo : v_hi + 1].copy()
        components.append(BilinearComponent(kind="type-II", sign=+1, u_lo=u0, u_hi=u1, xi=xi,
                                            v_lo=v_lo, v_hi=v_hi, eta=eta))
    return components


def _moebius_table(limit: int) -> np.ndarray:
    mu = np.ones(limit + 1, dtype=np.int64)
    primes = sieve_upto(limit)
    for p in primes:
        mu[p::p] *= -1
        sq = p * p
        if sq <= limit:
            mu[sq::sq] = 0
    mu[0] = 0
    return mu


def evaluate_components(components, alphas, interval: ShortInterval):
    """Sum of the signed component values at a float frequency, or at each
    entry of a 1-D array of them.

    For each outer b the inner sum runs over v with b*v in the window, at
    the exact frequency b^k * alpha, for all frequencies in one kernel
    call.  The inner terms slice one table of v^k mod 2^64 over the v any
    block reads, from ceil(lo / max u_hi) to hi; a table longer than
    POWER_TABLE_CAP raises CapExceeded before it is built.
    """
    lo, hi, k = interval.lo, interval.hi, interval.k
    freqs = _frequencies(alphas)
    total = np.zeros(len(freqs[0]), dtype=np.complex128)
    if not components:
        return _as_given(alphas, total)
    v_min = -(-lo // max(c.u_hi for c in components))
    if hi - v_min + 1 > POWER_TABLE_CAP:
        raise CapExceeded(f"{hi - v_min + 1} inner powers exceed the cap {POWER_TABLE_CAP}")
    powers_mod = window_powers_mod64(v_min, hi, k)
    for component in components:
        part = np.zeros_like(total)
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
            part += coeff * _phase_sums(inner_w, v_lo, v_hi, k, freqs,
                                        powers_mod[v_lo - v_min : v_hi - v_min + 1], b**k)
        total += component.sign * part
    return _as_given(alphas, total)


def coefficient_diagnostic(components) -> float:
    """max |xi_u| / tau(u)^3 over type-II blocks (recorded, never asserted)."""
    worst = 0.0
    for comp in components:
        if comp.kind != "type-II":
            continue
        for i, b in enumerate(range(comp.u_lo, comp.u_hi + 1)):
            val = abs(float(comp.xi[i]))
            if val:
                worst = max(worst, val / divisor_count(b) ** 3)
    return worst


# ---------------------------------------------------------------------------
# minor-arc scans


@dataclass(frozen=True)
class ScanRow:
    alpha: float
    kind: str
    q: int
    a: int
    abs_f: float
    ratio: float


@dataclass(frozen=True)
class ScanReport:
    """Measurement report of |f| over sampled frequencies.

    ``sup_minor`` / ``argmax_minor`` describe the largest |f| seen on
    minor-arc samples; ``ratio_sup`` normalizes it by y^(1 - rho).
    ``peak`` is the major-arc peak |f(0)| = |sum of the weights|.  The
    scan measures and records; it never asserts bounds.
    """

    k: int
    samples: int
    seed: int
    rho: float
    rows: tuple
    sup_minor: float
    argmax_minor: float
    ratio_sup: float
    minor_inhabited: bool
    peak: float

    def to_csv_rows(self):
        yield ("alpha", "class", "q", "a", "abs_f", "ratio")
        for row in self.rows:
            q = row.q if row.kind == "major" else ""
            a = row.a if row.kind == "major" else ""
            yield (row.alpha, row.kind, q, a, row.abs_f, row.ratio)


def weyl_scan(interval: ShortInterval, dissection, samples: int,
              weight: WeightFunction, seed: int = 0) -> ScanReport:
    """Sample |f(alpha, w)| uniformly over the representative window and
    split the samples by arc class.

    Requires 1000 <= samples <= SCAN_SAMPLE_CAP; the cap is checked before
    anything is drawn.  Each |f| is checked against the trivial bound
    B * |window|; the normalizing exponent is 1 - rho with rho = 1/(31 t_k).
    """
    if samples < 1000:
        raise ValidationError(f"need samples >= 1000, got {samples}")
    if samples > SCAN_SAMPLE_CAP:
        raise CapExceeded(f"{samples} samples exceed the cap {SCAN_SAMPLE_CAP}")
    k = interval.k
    rho = minor_arc_rho(k)
    norm = interval.y ** (1.0 - rho)
    rng = np.random.default_rng(seed)
    q_inv = 1.0 / dissection.Q
    alphas = rng.uniform(q_inv, 1.0 + q_inv, size=samples)
    sums = _phase_sums(weight.values, interval.lo, interval.hi, k, _frequencies(alphas))
    trivial = weight.bound * interval.size + 1e-9 * max(1.0, weight.bound * interval.size)

    rows = []
    sup_minor = 0.0
    argmax_minor = 0.0
    minor_seen = False
    # Python's complex abs (libm hypot); numpy's vector abs rounds differently.
    for alpha, f in zip(alphas, sums.tolist()):
        arc = classify(float(alpha), dissection)
        value = abs(f)
        if value > trivial:
            raise ConsistencyError(
                f"|f| = {value} exceeds the trivial bound {trivial}"
            )
        ratio = value / norm
        if arc is None:
            minor_seen = True
            if value > sup_minor:
                sup_minor = value
                argmax_minor = float(alpha)
            rows.append(ScanRow(float(alpha), "minor", 0, 0, value, ratio))
        else:
            rows.append(ScanRow(float(alpha), "major", arc.q, arc.a, value, ratio))
    return ScanReport(
        k=k,
        samples=samples,
        seed=seed,
        rho=rho,
        rows=tuple(rows),
        sup_minor=sup_minor,
        argmax_minor=argmax_minor,
        ratio_sup=sup_minor / norm,
        minor_inhabited=minor_seen,
        peak=abs(float(np.sum(weight.values))),
    )
