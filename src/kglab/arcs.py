"""Farey dissection of the unit circle into major and minor arcs.

Around each reduced fraction a/q with q up to the threshold P sits a
closed arc of half-width 1/(qQ).  A frequency is "major" when it lands
inside one of these arcs and "minor" otherwise.  Frequencies are always
reduced mod 1 into the representative window [1/Q, 1 + 1/Q) before
classification; membership at the arc boundaries is decided with exact
rational arithmetic so the split is bit-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceeded, ConsistencyError, ValidationError
from .intervals import ShortInterval, euler_phi, units

# A 280 MB memory budget for the arc family, held as FareyArc objects of
# about 280 bytes each at the peak of construction (194,750 arcs raised
# peak RSS by 52 MB on CPython 3.11): 1,000,000 arcs.
ARC_COUNT_CAP = 280_000_000 // 280
_DISJOINT_ASSERT_CAP = 200_000  # adjacent-pair check is skipped above this


@dataclass(frozen=True)
class FareyArc:
    q: int
    a: int
    center: float
    half_width: float


@dataclass(frozen=True)
class ArcDissection:
    """Arc family for thresholds P (denominator cap) and Q (width scale)."""

    P: float
    Q: float
    delta: float
    arcs: tuple

    def __post_init__(self):
        if self.disjoint_regime and len(self.arcs) <= _DISJOINT_ASSERT_CAP:
            _assert_disjoint(self.arcs, self.Q)

    @property
    def q_cap(self) -> int:
        return int(math.floor(self.P))

    @property
    def disjoint_regime(self) -> bool:
        """Arcs are provably pairwise disjoint when 2 P^2 <= Q."""
        return 2 * self.P * self.P <= self.Q

    @classmethod
    def from_parameters(cls, P: float, Q: float, delta: float = 0.0) -> "ArcDissection":
        if P < 1:
            raise ValidationError(f"need P >= 1, got P={P}")
        if Q <= 0:
            raise ValidationError(f"need Q > 0, got Q={Q}")
        q_cap = int(math.floor(P))
        # Stop counting at the cap: a huge P must not cost one totient per q.
        count = 0
        for q in range(1, q_cap + 1):
            count += euler_phi(q)
            if count > ARC_COUNT_CAP:
                raise CapExceeded(
                    f"dissection would hold over {count} arcs (cap {ARC_COUNT_CAP})"
                )
        arcs = [FareyArc(q=q, a=a, center=a / q, half_width=1.0 / (q * Q))
                for q in range(1, q_cap + 1) for a in units(q).tolist()]
        arcs.sort(key=lambda arc: (arc.center, arc.q))
        return cls(P=P, Q=Q, delta=delta, arcs=tuple(arcs))


def _assert_disjoint(arcs, Q):
    # Float screen first; exact rational re-check only near ties.
    q_exact = Fraction(Q)
    for left, right in zip(arcs, arcs[1:]):
        gap = right.center - left.center
        width = left.half_width + right.half_width
        if gap > width + 1e-9 * width:
            continue
        gap_x = Fraction(right.a, right.q) - Fraction(left.a, left.q)
        width_x = (Fraction(1, left.q) + Fraction(1, right.q)) / q_exact
        if gap_x <= width_x:
            raise ConsistencyError(
                f"arcs {left.a}/{left.q} and {right.a}/{right.q} overlap "
                f"although 2P^2 <= Q"
            )


def default_delta(k: int, theta: float) -> float:
    """Default arc exponent: safely below 1/(16k) and below 2(theta - 31/40).

    Only defined for theta > 31/40; smaller windows need an explicit choice.
    """
    if theta <= 31.0 / 40.0:
        raise ValidationError(
            f"no default arc exponent for theta={theta} <= 31/40; pass delta explicitly"
        )
    return min(0.9 / (16.0 * k), 2.0 * (theta - 31.0 / 40.0))


def build_dissection(
    interval: ShortInterval, delta: float, slim: bool = False
) -> ArcDissection:
    """Dissection with P = y^delta and Q = x^(k-2) y^2 / P.

    ``slim`` switches the width scale to the narrower Q = x^(k-1) y / P
    used for endgame estimates; the arc family type is unchanged.
    """
    if not (0.0 < delta < 1.0):
        raise ValidationError(f"need 0 < delta < 1, got delta={delta}")
    x, y, k = interval.x, interval.y, interval.k
    P = y**delta
    if P < 1:
        raise ValidationError(f"threshold P = y^delta = {P} < 1")
    if slim:
        Q = x ** (k - 1) * y / P
    else:
        Q = x ** (k - 2) * y * y / P
    return ArcDissection.from_parameters(P=P, Q=Q, delta=delta)


def _reduce(alpha: float, Q: float) -> float:
    """Map alpha mod 1 into the representative window [1/Q, 1 + 1/Q)."""
    frac = alpha - math.floor(alpha)
    if frac < 1.0 / Q:
        frac += 1.0
    return frac


def _convergents(value: Fraction):
    """Continued-fraction convergents of a nonnegative rational.

    Terminates because the input is rational (floats are dyadic).
    """
    num, den = value.numerator, value.denominator
    h0, k0 = 0, 1  # two steps back
    h1, k1 = 1, 0  # one step back
    while den:
        a = num // den
        num, den = den, num - a * den
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        yield h1, k1


def _hit(alpha_exact: Fraction, q: int, a: int, q_inv: Fraction) -> bool:
    return abs(q * alpha_exact - a) <= q_inv


def classify(alpha: float, dissection: ArcDissection):
    """The arc containing alpha, or None when alpha is minor.

    In the disjoint regime a hit |q*beta - a| <= 1/Q with q <= P forces
    |beta - a/q| < 1/(2q^2) for q >= 2, so a/q must be a convergent of
    beta; q = 1 is checked directly.  Degenerate (overlapping) families
    fall back to a scan over all denominators.
    """
    Q = dissection.Q
    q_cap = dissection.q_cap
    if q_cap < 1:
        return None
    beta = _reduce(alpha, Q)
    exact = Fraction(beta)
    q_inv = Fraction(1) / Fraction(Q)
    if not dissection.disjoint_regime:
        return _classify_scan(exact, q_cap, q_inv, Q)

    hits = []
    # q = 1 is checked directly: Legendre's criterion is only strict for
    # q >= 2, and the single arc at 1/1 is cheap to test.
    if _hit(exact, 1, 1, q_inv):
        hits.append((1, 1))
    for a, q in _convergents(exact):
        if q > q_cap:
            break
        if q < 1 or a < 1 or a > q or math.gcd(a, q) != 1:
            continue
        if _hit(exact, q, a, q_inv):
            hits.append((q, a))
    if not hits:
        return None
    q, a = min(hits)
    return FareyArc(q=q, a=a, center=a / q, half_width=1.0 / (q * Q))


def _classify_scan(exact: Fraction, q_cap: int, q_inv: Fraction, Q: float):
    # Float screen with an exact rational re-check near the boundary, so
    # the scan stays bit-stable without paying for exact arithmetic on
    # every denominator.
    beta = float(exact)
    width = 1.0 / Q
    for q in range(1, q_cap + 1):
        target = q * beta
        near = round(target)
        for a in (near, near - 1, near + 1):
            if a < 1 or a > q or math.gcd(a, q) != 1:
                continue
            miss = abs(target - a)
            if miss > width + 1e-9 * (width + 1.0):
                continue
            if miss < width - 1e-9 * (width + 1.0) or _hit(exact, q, a, q_inv):
                return FareyArc(q=q, a=a, center=a / q, half_width=1.0 / (q * Q))
    return None


def classify_brute(alpha: float, dissection: ArcDissection):
    """Reference classifier: scan every denominator (kept as an oracle)."""
    beta = _reduce(alpha, dissection.Q)
    exact = Fraction(beta)
    q_inv = Fraction(1) / Fraction(dissection.Q)
    return _classify_scan(exact, dissection.q_cap, q_inv, dissection.Q)


def major_measure(dissection: ArcDissection) -> float:
    """Lebesgue measure of the union of arcs, valid when they are disjoint."""
    if not dissection.disjoint_regime:
        raise ValidationError(
            "measure of an overlapping arc family is not defined here (need 2P^2 <= Q)"
        )
    q_cap = dissection.q_cap
    return sum(euler_phi(q) * 2.0 / (q * dissection.Q) for q in range(1, q_cap + 1))
