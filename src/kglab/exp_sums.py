"""Exponential sums over short windows.

The generating sum is sum_{m in window} w(m) e(m^k alpha).  Everything
here hinges on exact phase reduction: a double-precision alpha is a
dyadic rational, so for any 64-bit fixed-point representable alpha the
fractional part of m^k * alpha equals ((m^k mod 2^64) * A mod 2^64) / 2^64
exactly, where A = alpha * 2^64.  Wrapping uint64 multiplication gives
this for whole windows at vector speed; frequencies outside that range
take P = round(2^64 frac(m^k alpha)) per term in exact integer arithmetic.
One kernel does this reduction for every phase sum here (plain, scanned
and decomposed): it reads a stream of terms (m mod 2^64, w) in chunks of
_BLOCK_TERMS, skips terms of zero weight, and takes each chunk once for a
block of frequencies.  e(P / 2^64) comes from the uint64 phase P itself:
two table reads for its top 32 bits and 1 + i eps for the rest, within
about 5e-16 of the exact value.  Each row adds a chunk by numpy's pairwise
summation and the chunks in order.

Moments of |f|^(2t) are integers (solution counts) and are computed two
independent ways: averaging |f|^(2t) = |f^t|^2 over any N >= t spread + 1
equispaced points (by Parseval the sampled mean of |g|^2 is the sum of
g's squared coefficients once N passes the span of g's frequencies),
padded to N = 2^a * 3^b 5^c for a twiddle-free two-pass FFT, and direct
enumeration of power-sum collisions on the counts' sum tables.  A
weight must be built on the window it is summed over.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .arcs import classify
from .errors import ConsistencyError, ValidationError, check_cap
from .intervals import (
    MEMORY_BUDGET,
    ShortInterval,
    _power_exceeds,
    _prime_powers,
    _smooth_length,
    divisor_counts,
    pow_mod,
)
from .representations import _check_int64, _power_table, _sorted_runs, _tuple_count
from .weights import WeightFunction, check_window

_TWO64 = 1 << 64
# Offsets of the words _weighted_e64 reads from a uint64 phase: its top and
# next 16-bit words and its low 32-bit half.  Its two tables of 2^16 complex
# entries take 2 MiB, built on first use.
_E_WORDS = (3, 2, 0) if sys.byteorder == "little" else (0, 1, 1)
# moment_nyquist's table between its passes, at about 8 bytes per sample
# point (8.0 measured): 35,000,000.
MOMENT_SAMPLE_CAP = MEMORY_BUDGET // 8
# A bound on N * W^(2t) that keeps moment_nyquist's sum of |.|^(2t) below
# the double range, with room for its weights of 2.
_MOMENT_RANGE = 1 << 1020
# Entries per block of either pass of moment_nyquist's DFT: at N = 1,536,000
# (lo 500, hi 1000, t 2; best of 16, 2 cores) 2^16 took 19.5 ms, 2^13 21.0
# ms, 2^14 18.0 ms and 2^18 17.9 ms.
_MOMENT_BLOCK = 1 << 16
# Terms per chunk, and frequencies x terms per kernel block: 640 KB of
# buffers.  At n = 5e8 (best of 8, 2 cores) 2^14 took the 5,000-sample scan
# in 37 ms and the decomposition in 50 ms, against 39/67 ms at 2^13, 48/61
# ms at 2^15 and 45/73 ms at 2^12.
_BLOCK_TERMS = 1 << 14
# weyl-scan's samples, at about 2,400 bytes each in a JSON report, the
# heavier form (200,000 samples raised peak RSS by 457 MB): 116,666.
SCAN_SAMPLE_CAP = MEMORY_BUDGET // 2_400
# vaughan_decompose's tables and the prime powers behind them, budgeted at
# 28 bytes per entry (at n = 4e16, 7,358,015 entries raised peak RSS by
# 115 MiB, 16.4 bytes each): 10,000,000.
DECOMPOSE_ENTRY_CAP = MEMORY_BUDGET // 28


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


@functools.cache
def _e_tables() -> tuple:
    """e(j / 2^16) and e(j / 2^32) for 0 <= j < 2^16 (see _E_WORDS)."""
    j = np.arange(1 << 16, dtype=np.float64)
    top = np.where(j < 1 << 15, j, j - (1 << 16)) * (2.0 * np.pi / 2.0**16)  # in [-pi, pi)
    low = j * (2.0 * np.pi / 2.0**32)
    tables = tuple(np.cos(angle) + 1j * np.sin(angle) for angle in (top, low))
    for table in tables:
        table.flags.writeable = False
    return tables


def _weighted_e64(phases: np.ndarray, weights: np.ndarray, slopes: np.ndarray,
                  out: np.ndarray, tmp: np.ndarray):
    """Write weights * e(P / 2^64) into out for a 2-D array of uint64
    phases P, given slopes = weights * 2 pi / 2^64; tmp is scratch of the
    shape of out.

    With t and u the top two 16-bit words of P and r its low 32 bits,
    e(P / 2^64) = e(t / 2^16) e(u / 2^32) e(r / 2^64): two table reads and
    1 + i eps, eps = 2 pi r / 2^64 < 1.5e-9, for the last factor, whose
    dropped terms are below eps^2 / 2 < 1.1e-18.
    """
    top, low = _e_tables()
    words = phases.view(np.uint16)
    np.take(top, words[:, _E_WORDS[0]::4], out=out, mode="clip")
    np.take(low, words[:, _E_WORDS[1]::4], out=tmp, mode="clip")
    out *= tmp
    tmp.real = weights
    np.multiply(phases.view(np.uint32)[:, _E_WORDS[2]::2], slopes, out=tmp.imag)
    out *= tmp


def _exact_phase(m: int, k: int, num: int, den: int) -> int:
    """round(2^64 * frac(m^k num / den)) mod 2^64, in Python integers."""
    r = pow(m, k, den) * num % den
    return (2 * r * _TWO64 + den) // (2 * den) % _TWO64


def _phase_sums(chunks, k: int, freqs: tuple) -> np.ndarray:
    """Row j: the sum of w e(m^k alpha_j) over the terms (m, w) of ``chunks``,
    for the frequencies ``freqs = _frequencies(alphas)``.

    ``chunks`` yields (m mod 2^64, w, m or None) for at most _BLOCK_TERMS
    terms each; the exact m (Python integers) is needed only when
    ``freqs[1]`` lists rows.  Each phase m^k alpha is reduced mod 1 to a
    uint64 P before e(P / 2^64) is taken: by wrapping uint64 products of the
    fixed point and m^k mod 2^64, or for the rows in ``freqs[1]`` per term
    in Python integers.  Each row adds a chunk's terms by numpy's pairwise
    summation and the chunks in order, so a row has the same bits whatever
    other frequencies it is passed with.  A block holds as many frequencies
    as fit in _BLOCK_TERMS terms, and at least one.
    """
    fixed, exact = freqs
    out = np.zeros(len(fixed), dtype=np.complex128)
    buffers = [np.empty(_BLOCK_TERMS, t) for t in (np.uint64, np.complex128, np.complex128)]
    for m_mod, weights, ms in chunks:
        powers = pow_mod(m_mod, k, _TWO64)
        slopes = weights * (2.0 * np.pi / 2.0**64)
        slow = {j: np.array([_exact_phase(m, k, num, den) for m in ms], dtype=np.uint64)
                for j, (num, den) in exact.items()}
        size = len(powers)
        step = max(1, _BLOCK_TERMS // size)
        for start in range(0, len(fixed), step):
            rows = min(step, len(fixed) - start)
            phases, terms, tmp = (buf[: rows * size].reshape(rows, size) for buf in buffers)
            np.multiply(fixed[start : start + rows, None], powers, out=phases)
            for j, row in slow.items():
                if start <= j < start + rows:
                    phases[j - start] = row
            _weighted_e64(phases, weights, slopes, terms, tmp)
            out[start : start + rows] += terms.sum(axis=1)
    return out


def _window_chunks(values: np.ndarray, lo: int, exact_terms: bool):
    """_phase_sums chunks of the window terms (m, values[m - lo]) of nonzero
    weight, _BLOCK_TERMS at a time."""
    terms = np.flatnonzero(values)
    for start in range(0, len(terms), _BLOCK_TERMS):
        offsets = terms[start : start + _BLOCK_TERMS]
        ms = [lo + i for i in offsets.tolist()] if exact_terms else None
        yield offsets.astype(np.uint64) + np.uint64(lo % _TWO64), values[offsets], ms


def _as_given(alphas, sums: np.ndarray):
    """A complex for a scalar frequency, else the array of sums."""
    return complex(sums[0]) if np.ndim(alphas) == 0 else sums


def weighted_exp_sum(alpha, weight: WeightFunction, interval: ShortInterval):
    """sum over the window of w(m) e(m^k alpha), for a float alpha or for
    each entry of a 1-D array of them.

    Phases are reduced mod 1 in exact integer arithmetic before e(.) is
    taken; adding an integer to alpha therefore cannot change the result.
    The weight must be built on the window.
    """
    check_window(weight, interval)
    freqs = _frequencies(alpha)
    sums = _phase_sums(_window_chunks(weight.values, interval.lo, bool(freqs[1])),
                       interval.k, freqs)
    return _as_given(alpha, sums)


# ---------------------------------------------------------------------------
# moments


def _moment_split(size: int) -> tuple:
    """(rows, cols) with rows = 2^a within a factor 8 of sqrt(size), cols =
    3^b 5^c, and rows * cols the least such product >= size: the least
    rows * `_smooth_length`(ceil(size / rows)), the fewest rows on a tie.

    The factors are coprime, so the rows * cols point DFT is their 2-D DFT
    with the bins permuted (Good-Thomas), without twiddles.  A power of two
    near sqrt(size) keeps both passes of ``moment_nyquist`` short.
    """
    splits = [(1 << a, _smooth_length(-(-size >> a))) for a in range(size.bit_length() + 4)
              if size <= 64 << 2 * a <= 4096 * size]
    return min(splits, key=lambda split: split[0] * split[1])


def moment_nyquist(interval: ShortInterval, t: int) -> int:
    """Exact integral of |f(alpha, 1)|^(2t) over the unit interval.

    |f|^(2t) = |g|^2 for g = f^t, whose frequencies span t * (hi^k - lo^k);
    by Parseval the mean of |g|^2 over any N >= t (hi^k - lo^k) + 1
    equispaced points is the sum of its squared coefficients, which is the
    integral.  N is that bound padded to rows * cols (``_moment_split``).
    The result is the number of solutions of a t-versus-t power-sum
    collision and is returned as an integer.  An N above MOMENT_SAMPLE_CAP
    raises CapExceeded, and an N * W^(2t) (W the window's size) past the
    double range raises OverflowError, before anything is allocated.

    Residue r = m^k mod N of the window is entry (r mod rows, r mod cols)
    of the counts; by the Chinese remainder theorem the 2-D DFT of that
    table is the N-point DFT of the counts with its bins permuted, and the
    sum of |.|^(2t) over all bins does not see the permutation.  It is taken
    in two passes: real transforms of length rows, over blocks of the
    counts, then transforms of length cols, a block of bins at a time.
    Only the cols x (rows / 2 + 1) complex table between the passes spans
    N, about 8 N bytes; one real FFT of all N points held about 30 N bytes
    at its peak.
    """
    if t < 1:
        raise ValidationError(f"need t >= 1, got {t}")
    lo, hi, k = interval.lo, interval.hi, interval.k
    n_samples = t * (hi**k - lo**k) + 1
    # N >= n_samples: a count past the cap is refused before it is padded.
    check_cap("moment sample points", n_samples, MOMENT_SAMPLE_CAP)
    rows, cols = _moment_split(n_samples)
    size = rows * cols
    check_cap("moment sample points", size, MOMENT_SAMPLE_CAP)
    # Each bin is at most W in size, so the total is at most N * W^(2t).
    width = hi - lo + 1
    if _power_exceeds(width, 2 * t, _MOMENT_RANGE // size):
        raise OverflowError(
            f"moment transform: {size} * {width}^{2 * t} exceeds the double range"
        )
    residues = pow_mod(lo % size + np.arange(width), k, size)
    a, b = residues % rows, residues % cols
    order = np.argsort(b, kind="stable")
    a, b = a[order], b[order]
    half = rows // 2 + 1
    table = np.empty((cols, half), dtype=np.complex128)
    step = max(1, _MOMENT_BLOCK // rows)
    for start in range(0, cols, step):
        block = np.zeros((min(step, cols - start), rows))
        first, last = np.searchsorted(b, [start, start + len(block)])
        np.add.at(block, (b[first:last] - start, a[first:last]), 1.0)
        table[start : start + len(block)] = np.fft.rfft(block, axis=1)
    # Columns 1 .. ceil(rows/2) - 1 also stand for their Hermitian mirrors
    # rows - j1.
    total = 0.0
    step = max(1, _MOMENT_BLOCK // cols)
    for start in range(0, half, step):
        j1 = np.arange(start, min(start + step, half))
        power = np.abs(np.fft.fft(table[:, start : start + len(j1)], axis=0))
        power **= 2 * t
        power *= np.where((j1 == 0) | (2 * j1 == rows), 1.0, 2.0)
        total += float(np.sum(power))
    mean = total / size
    value = round(mean)
    residual = abs(mean - value)
    if residual > 1e-6:
        raise ConsistencyError(
            f"sampled moment mean {mean} is {residual} away from an integer"
        )
    return int(value)


def moment_enumeration(interval: ShortInterval, t: int, weight: WeightFunction) -> int | float:
    """Weighted count of solutions of a t-fold power-sum collision.

    Builds the t-fold sums of m^k over the weight's support, with the
    product weight per sum value, on the counts' sum tables, and returns
    the sum of W(v)^2 over values v.  A 0/1 weight is shared: its table
    keeps repeats and reads the run lengths of its sorted sums, so it gives
    the exact count as an int (the unit weight's matches ``moment_nyquist``);
    any other weight gives a float.  Under the int64 guard on max W times
    the tuples, the sum of W(v)^2, at most that product, fits too.  The
    weight must be built on the window.  A combine step past the counts'
    TABLE_CAP states merges both sides, then raises CapExceeded if still past.
    Sums run in Python integers once t * hi^k reaches 2^62.
    """
    if t < 1:
        raise ValidationError(f"need t >= 1, got {t}")
    check_window(weight, interval)
    dtype = object if t * interval.hi**interval.k >= 2**62 else np.int64
    powers = np.array([m**interval.k for m in interval], dtype=dtype)
    support = np.flatnonzero(weight.values)
    shared = bool(np.all(weight.values[support] == 1.0))
    tuples = _tuple_count(len(support), t) if shared else None
    sums, weights = _power_table((powers[support], 1 if shared else weight.values[support]), t)
    if np.ndim(weights) == 0:  # the runs alone: the distinct sums are never read
        weights = np.diff(_sorted_runs(sums)) * weights
    if shared:
        _check_int64(weights, tuples)
    weights *= weights
    return int(np.sum(weights)) if shared else float(np.sum(weights))


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
    entries in all raise CapExceeded before any table is built.  Moebius,
    Lambda up to X and beta all come from one pass over the prime powers
    of ``intervals._prime_powers`` up to max(X^2, hi/X), by p, then j.
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
    check_cap("decomposition table entries", entries, DECOMPOSE_ENTRY_CAP)

    # mu flips sign at each prime and vanishes at each higher prime power;
    # beta, the inner coefficients of the bilinear piece, sums log p over
    # the prime power divisors above the cut.
    mu = np.ones(max(x2int, b_hi) + 1, dtype=np.int64)
    lam = np.zeros(xint + 1)
    beta = np.zeros(w_max + 1)
    for p, pj in zip(*_prime_powers(2, len(mu) - 1)):
        mu[pj::pj] *= -1 if pj == p else 0
        if pj <= xint:
            lam[pj] = math.log(p)
        elif pj <= w_max:
            beta[pj::pj] += math.log(p)
    mu[0] = 0

    # Coefficients of the double divisor piece e = b*c, b, c <= X (so
    # e <= floor(X)^2 <= X^2).
    conv = np.zeros(x2int + 1)
    for b in range(1, xint + 1):
        conv[b : b * xint + 1 : b] += mu[b] * lam[1:]

    components = []
    for u0, u1 in _dyadic_blocks(1, xint):
        xi = mu[u0 : u1 + 1].astype(float)
        components.append(BilinearComponent(kind="type-I", sign=+1, u_lo=u0, u_hi=u1, xi=xi,
                                            inner_log=True))
    for u0, u1 in _dyadic_blocks(1, x2int):
        xi = conv[u0 : u1 + 1].copy()
        components.append(BilinearComponent(kind="type-I", sign=-1, u_lo=u0, u_hi=u1, xi=xi))
    for u0, u1 in _dyadic_blocks(b_lo, b_hi):
        xi = mu[u0 : u1 + 1].astype(float)
        v_lo = max(1, (lo + u1 - 1) // u1)
        v_hi = hi // u0
        if v_hi < v_lo:
            continue
        eta = beta[v_lo : v_hi + 1].copy()
        components.append(BilinearComponent(kind="type-II", sign=+1, u_lo=u0, u_hi=u1, xi=xi,
                                            v_lo=v_lo, v_hi=v_hi, eta=eta))
    return components


def evaluate_components(components, alphas, interval: ShortInterval):
    """Sum of the signed component values at a float frequency, or at each
    entry of a 1-D array of them.

    The terms (b, v) of every component go to the phase kernel as one
    stream (``_decomposition_chunks``), each chunk once for all
    frequencies, so the memory taken does not grow with the window.
    """
    freqs = _frequencies(alphas)
    chunks = _decomposition_chunks(components, interval.lo, interval.hi, bool(freqs[1]))
    return _as_given(alphas, _phase_sums(chunks, interval.k, freqs))


def _mod64(ints: np.ndarray) -> np.ndarray:
    """Nonnegative int64 or Python-integer entries mod 2^64, as uint64."""
    return (ints % _TWO64 if ints.dtype == object else ints).astype(np.uint64)


def _decomposition_chunks(components, lo: int, hi: int, exact_terms: bool):
    """_phase_sums chunks of the terms m = b v of the components, weighted
    sign xi_b w(v): b with xi_b != 0, v with b v in [lo, hi] (in [v_lo,
    v_hi] for type-II), and w(v) = eta[v - v_lo] for type-II, log v for
    log-weighted type-I, else 1.

    The outer b go _BLOCK_TERMS at a time and the terms of each group in
    chunks of _BLOCK_TERMS, working out m mod 2^64 per slice of v; chunk
    edges depend on the components alone.  Bounds run in int64, or in
    Python integers (object arrays) once hi reaches 2^62.
    """
    dtype = object if hi >= 1 << 62 else np.int64
    for comp in components:
        for group in range(comp.u_lo, comp.u_hi + 1, _BLOCK_TERMS):
            bs = np.arange(group, min(group + _BLOCK_TERMS, comp.u_hi + 1)).astype(dtype)
            coeff = comp.sign * comp.xi[group - comp.u_lo : group - comp.u_lo + len(bs)]
            v_lo = (lo + bs - 1) // bs
            v_hi = hi // bs
            if comp.kind == "type-II":
                v_lo = np.maximum(v_lo, comp.v_lo)
                v_hi = np.minimum(v_hi, comp.v_hi)
            keep = (coeff != 0.0) & (v_hi >= v_lo)
            bs, coeff, v_lo, v_hi = bs[keep], coeff[keep], v_lo[keep], v_hi[keep]
            starts = np.concatenate(([0], np.cumsum((v_hi - v_lo + 1).astype(np.int64))))
            b_mod, v_mod = _mod64(bs), _mod64(v_lo)
            for start in range(0, int(starts[-1]), _BLOCK_TERMS):
                idx = np.arange(start, min(start + _BLOCK_TERMS, int(starts[-1])))
                sl = np.searchsorted(starts, idx, side="right") - 1
                off = idx - starts[sl]
                if comp.kind == "type-II":
                    inner = comp.eta[(v_lo[sl] - comp.v_lo).astype(np.int64) + off]
                elif comp.inner_log:
                    inner = np.log(v_lo[sl].astype(np.float64) + off)
                else:
                    inner = 1.0
                ms = (bs[sl] * (v_lo[sl] + off)).tolist() if exact_terms else None
                yield b_mod[sl] * (v_mod[sl] + off.astype(np.uint64)), coeff[sl] * inner, ms


def coefficient_diagnostic(components) -> float:
    """max |xi_u| / tau(u)^3 over type-II blocks (recorded, never asserted),
    with tau from one divisor-count sieve over the blocks' range."""
    blocks = [comp for comp in components if comp.kind == "type-II"]
    if not blocks:
        return 0.0
    lo = min(comp.u_lo for comp in blocks)
    cubes = divisor_counts(lo, max(comp.u_hi for comp in blocks)).astype(np.float64) ** 3
    # A zero xi gives 0, which never raises the maximum.
    return max(float(np.max(np.abs(comp.xi) / cubes[comp.u_lo - lo : comp.u_hi - lo + 1]))
               for comp in blocks)


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


def weyl_scan(interval: ShortInterval, dissection, samples: int,
              weight: WeightFunction, seed: int = 0) -> ScanReport:
    """Sample |f(alpha, w)| uniformly over the representative window and
    split the samples by arc class.

    Requires 1000 <= samples <= SCAN_SAMPLE_CAP, checked before anything is
    drawn, and a weight built on the window.  Each |f| is checked against
    the trivial bound B * |window|; the normalizing exponent is 1 - rho
    with rho = 1/(31 t_k).
    """
    if samples < 1000:
        raise ValidationError(f"need samples >= 1000, got {samples}")
    check_cap("weyl-scan samples", samples, SCAN_SAMPLE_CAP)
    k = interval.k
    rho = minor_arc_rho(k)
    norm = interval.y ** (1.0 - rho)
    rng = np.random.default_rng(seed)
    q_inv = 1.0 / dissection.Q
    alphas = rng.uniform(q_inv, 1.0 + q_inv, size=samples)
    sums = weighted_exp_sum(alphas, weight, interval)
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
        peak=abs(weighted_exp_sum(0.0, weight, interval)),
    )
