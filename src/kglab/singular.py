"""Arithmetic and archimedean factors of the main term.

The series side multiplies p-local densities assembled from complete
rational exponential sums over units; the integral side is the density
of real solutions of a power-sum equation with all variables in the
window.  Both admit two independent computations (term-by-term versus
multiplicative assembly; oscillatory quadrature versus iterated density
convolution), and the cross-checks are part of the contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    CapExceeded,
    ConsistencyError,
    MinorArcError,
    ValidationError,
)
from .exp_sums import complete_exp_sum, complete_exp_sums
from .intervals import ShortInterval, _fft_length, build_interval, euler_phi, sieve_upto
from .local_conditions import local_profile, unit_solution_counts

A_TERM_CAP = 100_000
QMAX_CAP = 100_000
DEFAULT_QMAX = 10_000
OBSTRUCTION_FLOOR = 1e-6
SMALL_SERIES_FLOOR = 0.05  # flagged, never failed
IMAG_RESIDUE_TOL = 1e-10
DEFAULT_GRID_CELLS = 1 << 14
KAPPA_MINUS = 0.99
KAPPA_PLUS = 1.01
DIRECT_BLOCK = 1 << 16     # entries of one (rows, qmax) block of the direct sum

_TERM_CACHE = {}           # (k, s, q) -> (units, (S/phi)^s)


def clear_singular_caches():
    _TERM_CACHE.clear()


def _term_arrays(q: int, k: int, s: int) -> tuple:
    key = (k, s, q)
    hit = _TERM_CACHE.get(key)
    if hit is not None:
        return hit
    units, sums = complete_exp_sums(q, k)
    wpow = (sums[units % q] / len(units)) ** s
    _TERM_CACHE[key] = (units, wpow)
    return units, wpow


def singular_series_term(q: int, n: int, k: int, s: int, cap: int = A_TERM_CAP) -> float:
    """Weight of modulus q in the series: phi(q)^(-s) * sum over units a
    of S(q, a)^s e(-a n / q), with the imaginary residue checked before
    it is discarded."""
    if q < 1:
        raise ValidationError(f"need q >= 1, got {q}")
    if q > cap:
        raise CapExceeded(f"q={q} exceeds the series-term cap {cap}")
    value = _term_complex(q, n, k, s)
    if abs(value.imag) >= IMAG_RESIDUE_TOL:
        raise ConsistencyError(
            f"series term at q={q} has imaginary residue {value.imag}"
        )
    return float(value.real)


def _term_complex(q: int, n: int, k: int, s: int) -> complex:
    units, wpow = _term_arrays(q, k, s)
    if q == 1:
        return complex(1.0, 0.0)
    idx = np.mod(units * (n % q), q)
    phases = np.exp(-2j * np.pi * idx / q)
    return complex(np.sum(wpow * phases))


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
    groups = _prime_powers(qmax)
    terms = np.array([[singular_series_term(q, n, k, s)
                       for _, powers in groups for q in powers]])
    product, sigmas = _multiplicative_assembly(terms, groups)
    value = float(product[0])
    flag = "ok"
    if abs(value) <= OBSTRUCTION_FLOOR:
        flag = "obstructed"
    elif value < SMALL_SERIES_FLOOR:
        flag = "small"
    return SingularSeriesEstimate(
        n=n, k=k, s=s, qmax=qmax,
        value=value,
        value_direct=float(_direct_assembly(terms, groups, qmax)[0]),
        p_local=tuple((p, float(sigma)) for (p, _), sigma in zip(groups, sigmas[0])),
        method="multiplicative",
        flag=flag,
    )


def _check_series_args(k: int, s: int, qmax: int):
    if s < 3:
        raise ValidationError(f"need s >= 3, got s={s}")
    if qmax > QMAX_CAP:
        raise CapExceeded(f"qmax={qmax} exceeds the cap {QMAX_CAP}")
    modulus = local_profile(k).modulus
    if qmax < modulus:
        raise ValidationError(
            f"qmax={qmax} below the local modulus {modulus} for k={k}"
        )


def _prime_powers(qmax: int) -> list:
    """[(p, [p, p^2, ...]), ...] for the primes p <= qmax, in order: the
    columns of a term matrix, one per prime power."""
    groups = []
    for p in sieve_upto(qmax):
        powers = [p]
        while powers[-1] * p <= qmax:
            powers.append(powers[-1] * p)
        groups.append((p, powers))
    return groups


def _series_values(ns, k: int, s: int, qmax: int) -> tuple:
    """Multiplicative series value of every target, and for each target
    the ConsistencyError of its first term with an imaginary residue (or
    None).  Arguments are checked by the caller.

    The term at q depends on n only through n mod q, so each prime power
    gets one length-q FFT of (S/phi)^s placed on the units, read at every
    target's residue and then dropped.
    """
    groups = _prime_powers(qmax)
    try:
        targets = np.array(ns, dtype=np.int64)
    except OverflowError:
        targets = np.array(ns, dtype=object)
    terms = np.empty((len(targets), sum(len(powers) for _, powers in groups)))
    errors = [None] * len(targets)
    col = 0
    for _, powers in groups:
        for q in powers:
            units, wpow = _term_arrays(q, k, s)
            placed = np.zeros(q, dtype=complex)
            placed[units % q] = wpow
            values = np.fft.fft(placed)[(targets % q).astype(np.int64)]
            for i in np.flatnonzero(np.abs(values.imag) >= IMAG_RESIDUE_TOL):
                if errors[i] is None:
                    errors[i] = ConsistencyError(
                        f"series term at q={q} has imaginary residue {float(values.imag[i])}"
                    )
            terms[:, col] = values.real
            col += 1
    return _multiplicative_assembly(terms, groups)[0], errors


def _multiplicative_assembly(terms: np.ndarray, groups: list) -> tuple:
    """Per row of the term matrix: the product over p of the local factor
    1 + A(p) + A(p^2) + ..., and the (rows, primes) matrix of those factors."""
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


def _direct_assembly(terms: np.ndarray, groups: list, qmax: int) -> np.ndarray:
    """Per row of the term matrix: the sum of the weights of all q <= qmax.

    A composite weight is the product of its prime-power weights
    (multiplicativity, verified directly in the test suite on small
    coprime pairs).  ``parts[j, q]`` is the column of the j-th prime-power
    part of q, smallest prime first, or the column of ones past the last
    part; the product runs from the largest prime down and the sum over q
    in order, both one row block at a time.
    """
    ones_col = terms.shape[1]
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
    extended = np.hstack([terms, np.ones((len(terms), 1))])
    totals = np.empty(len(terms))
    step = max(1, DIRECT_BLOCK // (qmax + 1))
    for start in range(0, len(terms), step):
        rows = extended[start:start + step]
        values = rows[:, parts[-1]]
        for j in range(len(parts) - 2, -1, -1):
            values = values * rows[:, parts[j]]
        totals[start:start + step] = np.cumsum(values[:, 1:], axis=1)[:, -1]
    return totals


def local_count_identity_check(q: int, n: int, k: int, s: int) -> bool:
    """Classical consistency check tying the series terms to unit
    solution counts: the divisor sum of the weights at q equals
    q * phi(q)^(-s) * (number of unit tuples mod q summing to n).

    The count is exact (integer convolution over residues); the check
    passes within 1e-8 relative error.
    """
    if q > 500:
        raise CapExceeded(f"identity check capped at q=500, got {q}")
    if s > 6:
        raise CapExceeded(f"identity check capped at s=6, got {s}")
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


_GL_NODES = np.polynomial.legendre.leggauss(12)
_GL_NODES_COARSE = np.polynomial.legendre.leggauss(16)
PANEL_CAP = 1 << 21


def _centered_phase_integral(beta: float, interval: ShortInterval, order: float) -> complex:
    """Integral over the window of u^(order-1) e((u^k - x^k) beta) du.

    Panel count grows with the total phase swing; each panel is handled
    by fixed Gauss-Legendre nodes.  Subtracting the phase at the center
    keeps every evaluated phase small enough for double precision.
    """
    x, y, k = interval.x, interval.y, interval.k
    swing = y * x ** (k - 1) * abs(beta)
    if not math.isfinite(swing):
        raise CapExceeded("phase swing overflows double precision")
    panels = int(math.ceil(8.0 * (1.0 + swing)))
    if panels > PANEL_CAP:
        raise CapExceeded(f"{panels} quadrature panels exceed the cap {PANEL_CAP}")
    nodes, weights = _GL_NODES
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

    u = x + d
    amp = u ** (order - 1.0) if order != 1.0 else np.ones_like(u)
    ang = 2.0 * np.pi * (rel * beta)
    re = float(np.sum(w * amp * np.cos(ang)))
    im = float(np.sum(w * amp * np.sin(ang)))
    return complex(re, im)


def _center_phase(beta: float, interval: ShortInterval) -> complex:
    if beta == 0.0:
        return 1.0 + 0.0j
    frac = Fraction(interval.x) ** interval.k * Fraction(beta)
    frac -= math.floor(frac)
    ang = 2.0 * math.pi * float(frac)
    return complex(math.cos(ang), math.sin(ang))


def phase_integral(beta: float, interval: ShortInterval, order: float = 1.0) -> complex:
    """Oscillatory window integral of u^(order-1) e(u^k beta) du.

    Only small frequencies are supported (|beta| <= 1); the phase at the
    window center is split off and reduced mod 1 in exact rational
    arithmetic, so the result does not lose accuracy to the large
    integer part of x^k * beta.
    """
    if abs(beta) > 1.0:
        raise ValidationError(f"need |beta| <= 1, got beta={beta}")
    if order < 1.0:
        raise ValidationError(f"need order >= 1, got {order}")
    centered = _centered_phase_integral(beta, interval, order)
    return _center_phase(beta, interval) * centered


@dataclass(frozen=True)
class SingularIntegralEstimate:
    """Archimedean factor with the method that produced it.

    ``flagged`` marks a cross-method disagreement above 5 percent when
    both methods were run; ``alt_value`` then carries the other method.
    """

    n: int
    k: int
    s: int
    value: float
    method: str
    grid_cells: int
    flagged: bool = False
    alt_value: float = None


def _support(n: int, interval: ShortInterval, s: int) -> bool:
    lo_t = (interval.x - interval.y) ** interval.k
    hi_t = (interval.x + interval.y) ** interval.k
    return s * lo_t <= n <= s * hi_t


def _integral_by_convolution(n: int, interval: ShortInterval, s: int,
                             grid_cells: int) -> float:
    x, y, k = interval.x, interval.y, interval.k
    lo_t = (x - y) ** k
    hi_t = (x + y) ** k
    h = (hi_t - lo_t) / grid_cells
    t_mid = lo_t + (np.arange(grid_cells) + 0.5) * h
    density = (1.0 / k) * t_mid ** (1.0 / k - 1.0)
    size = s * (grid_cells - 1) + 1  # the linear convolution: no wrap-around
    pad = _fft_length(size)
    spectrum = np.fft.rfft(density, pad)
    conv = np.fft.irfft(spectrum**s, pad)[:size]
    conv = conv * h ** (s - 1)
    # index m holds the value at s*lo_t + (m + s/2) * h
    pos = (n - s * lo_t) / h - s / 2.0
    if pos <= 0 or pos >= len(conv) - 1:
        return 0.0
    i = int(math.floor(pos))
    fracpos = pos - i
    return float(max(0.0, (1.0 - fracpos) * conv[i] + fracpos * conv[i + 1]))


def _integral_by_quadrature(n: int, interval: ShortInterval, s: int,
                            tail_target: float = 1e-4,
                            max_blocks: int = 4096) -> float:
    x, y, k = interval.x, interval.y, interval.k
    freq_center = float(s * Fraction(x) ** k - n)  # exact up to final rounding
    beta_scale = 1.0 / (y * x ** (k - 1))
    block = 0.5 * beta_scale
    nodes, weights = _GL_NODES_COARSE

    total = 0.0
    prev_mag = None
    blocks_done = 0
    while blocks_done < max_blocks:
        b0 = blocks_done * block
        mids = b0 + 0.5 * block * (nodes + 1.0)
        wts = 0.5 * block * weights
        vals = np.empty(len(mids))
        for i, beta in enumerate(mids):
            centered = _centered_phase_integral(beta, interval, 1.0)
            core = centered**s
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
            tail = mag * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
            if tail < tail_target * max(abs(total), 1e-300) and blocks_done >= 8:
                break
        prev_mag = mag
    else:
        raise CapExceeded(
            f"quadrature did not settle within {max_blocks} blocks"
        )
    return max(0.0, total)


def singular_integral(n: int, interval: ShortInterval, k: int, s: int,
                      method: str = "both",
                      grid_cells: int = DEFAULT_GRID_CELLS) -> SingularIntegralEstimate:
    """Density of real power-sum representations of n from the window.

    method "fourier-quadrature" integrates the s-th power of the window
    phase integral against e(-n beta); "density-convolution" convolves
    the pushforward density of u -> u^k s times on a uniform grid (at
    least 2^14 cells) and reads off the value at n; "both" runs the two
    and flags a disagreement above 5 percent instead of failing.
    """
    if s < 3:
        raise ValidationError(f"need s >= 3, got s={s}")
    if k != interval.k:
        raise ValidationError(f"k={k} disagrees with the window's k={interval.k}")
    if method not in ("fourier-quadrature", "density-convolution", "both"):
        raise ValidationError(f"unknown method {method!r}")
    if method != "fourier-quadrature" and grid_cells < DEFAULT_GRID_CELLS:
        raise ValidationError(f"need at least {DEFAULT_GRID_CELLS} grid cells")
    if not _support(n, interval, s):
        return SingularIntegralEstimate(
            n=n, k=k, s=s, value=0.0, method=method, grid_cells=grid_cells
        )
    if method == "density-convolution":
        value = _integral_by_convolution(n, interval, s, grid_cells)
        return SingularIntegralEstimate(
            n=n, k=k, s=s, value=value, method=method, grid_cells=grid_cells
        )
    if method == "fourier-quadrature":
        value = _integral_by_quadrature(n, interval, s)
        return SingularIntegralEstimate(
            n=n, k=k, s=s, value=value, method=method, grid_cells=grid_cells
        )
    quad = _integral_by_quadrature(n, interval, s)
    conv = _integral_by_convolution(n, interval, s, grid_cells)
    scale = max(abs(quad), abs(conv), 1e-300)
    flagged = abs(quad - conv) > 0.05 * scale
    return SingularIntegralEstimate(
        n=n, k=k, s=s, value=quad, method="both", grid_cells=grid_cells,
        flagged=flagged, alt_value=conv,
    )


# ---------------------------------------------------------------------------
# major-arc approximant and the assembled prediction


def major_arc_approx(alpha: float, dissection, interval: ShortInterval,
                     kappa: float = 1.0) -> complex:
    """kappa * S(q,a)/phi(q) * v(alpha - a/q) / log x on the containing arc.

    kappa = 1 approximates the prime-indicator phase sum; raising on a
    minor-arc frequency is a contract error.
    """
    from .arcs import classify

    arc = classify(alpha, dissection)
    if arc is None:
        raise MinorArcError(f"alpha={alpha} lies on the minor arcs")
    beta = float(Fraction(alpha) - Fraction(arc.a, arc.q))
    gauss = complete_exp_sum(arc.q, arc.a, interval.k)
    v = phase_integral(beta, interval, 1.0)
    big_l = math.log(interval.x)
    return kappa * gauss / euler_phi(arc.q) * v / big_l


@dataclass(frozen=True)
class PredictionReport:
    """Main-term prediction and its components at kappa = 1."""

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
    from .local_conditions import is_admissible

    interval = build_interval(n, k, s, theta)
    series = singular_series(n, k, s, qmax)
    integral = singular_integral(n, interval, k, s, method=integral_method)
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
