"""Farey dissection of the unit circle into major and minor arcs.

Around each reduced fraction a/q with q up to the threshold P sits a
closed arc of half-width 1/(qQ).  A frequency is "major" when it lands
inside one of these arcs and "minor" otherwise.  The family comes in
ascending order from the Farey next-term recurrence.  A frequency is
reduced mod 1 into the representative window [1/Q, 1 + 1/Q) as an exact
ratio of integers, and every membership and disjointness decision is one
integer inequality on exact ratios, so the split is bit-stable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import ConsistencyError, ValidationError, check_cap
from .intervals import MEMORY_BUDGET, ShortInterval, euler_phi

# The arc family, held as FareyArc objects of about 280 bytes each at the
# peak of construction (194,750 arcs raised peak RSS by 52 MB): 1,000,000 arcs.
ARC_COUNT_CAP = MEMORY_BUDGET // 280


@dataclass(frozen=True)
class FareyArc:
    q: int
    a: int
    center: float
    half_width: float


def _arc(q: int, a: int, Q: float) -> FareyArc:
    return FareyArc(q=q, a=a, center=a / q, half_width=1.0 / (q * Q))


@dataclass(frozen=True)
class ArcDissection:
    """Arc family for thresholds P (denominator cap) and Q (width scale);
    with 2 P^2 <= Q, every neighbouring pair is checked disjoint, at any size."""

    P: float
    Q: float
    delta: float
    arcs: tuple

    def __post_init__(self):
        if self.disjoint_regime:
            _assert_disjoint(self.arcs, self.q_ratio)

    @property
    def q_cap(self) -> int:
        return int(math.floor(self.P))

    @functools.cached_property
    def q_ratio(self) -> tuple:
        """Q as an exact ratio (numerator, denominator) of integers."""
        return self.Q.as_integer_ratio()

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
            check_cap(f"dissection arcs up to q={q}", count, ARC_COUNT_CAP)
        # Farey next-term recurrence from 0/1 and 1/q_cap, up to 1/1.
        arcs = []
        a, b, c, d = 0, 1, 1, q_cap
        while c <= d:
            arcs.append(_arc(d, c, Q))
            k = (q_cap + b) // d
            a, b, c, d = c, d, k * c - a, k * d - b
        return cls(P=P, Q=Q, delta=delta, arcs=tuple(arcs))


def _assert_disjoint(arcs, q_ratio):
    # Neighbours a1/q1 < a2/q2 meet when a2/q2 - a1/q1 <= (1/q1 + 1/q2)/Q.
    q_num, q_den = q_ratio
    for left, right in zip(arcs, arcs[1:]):
        if (right.a * left.q - left.a * right.q) * q_num <= (left.q + right.q) * q_den:
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


def _reduce(alpha: float, dissection: ArcDissection) -> tuple:
    """alpha mod 1 in the representative window [1/Q, 1 + 1/Q), as the
    exact ratio (num, den) of integers."""
    num, den = alpha.as_integer_ratio()
    num %= den
    q_num, q_den = dissection.q_ratio
    if num * q_num < den * q_den:
        num += den
    return num, den


def _convergents(num: int, den: int):
    """Continued-fraction convergents of the nonnegative rational num/den.

    Terminates because the input is rational (floats are dyadic).
    """
    h0, k0 = 0, 1  # two steps back
    h1, k1 = 1, 0  # one step back
    while den:
        a = num // den
        num, den = den, num - a * den
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        yield h1, k1


def classify(alpha: float, dissection: ArcDissection):
    """The arc containing alpha, or None when alpha is minor.

    In the disjoint regime a hit |q*beta - a| <= 1/Q with q <= P forces
    |beta - a/q| < 1/(2q^2) for q >= 2, so a/q must be a convergent of
    beta; q = 1 is checked directly.  With beta = num/den and Q = Qn/Qd
    as exact ratios, a hit is |q num - a den| Qn <= den Qd, decided in
    integers.  At most one arc holds beta, so the first hit is the arc.
    Degenerate (overlapping) families fall back to a scan over all
    denominators.
    """
    q_cap = dissection.q_cap
    if q_cap < 1:
        return None
    if not dissection.disjoint_regime:
        return classify_brute(alpha, dissection)
    num, den = _reduce(alpha, dissection)
    q_num, q_den = dissection.q_ratio
    reach = den * q_den
    # q = 1 is checked directly: Legendre's criterion is only strict for
    # q >= 2, and the single arc at 1/1 is cheap to test.
    if abs(num - den) * q_num <= reach:
        return _arc(1, 1, dissection.Q)
    convergents = _convergents(num, den)
    next(convergents)  # floor(beta)/1: 0/1 is no arc, and 1/1 was just tested
    for a, q in convergents:
        if q > q_cap:
            return None
        if abs(q * num - a * den) * q_num <= reach:
            return _arc(q, a, dissection.Q)
    return None


def classify_brute(alpha: float, dissection: ArcDissection):
    """Reference classifier: scan every denominator (kept as an oracle).

    For each q it tests the integer nearest q*beta and its two neighbours
    as numerators, with the same exact reduction and integer hit test as
    ``classify``, and returns the first hit in order of q.
    """
    num, den = _reduce(alpha, dissection)
    q_num, q_den = dissection.q_ratio
    reach = den * q_den
    for q in range(1, dissection.q_cap + 1):
        near = (2 * q * num + den) // (2 * den)
        for a in (near, near - 1, near + 1):
            if (abs(q * num - a * den) * q_num <= reach
                    and 1 <= a <= q and math.gcd(a, q) == 1):
                return _arc(q, a, dissection.Q)
    return None


def major_measure(dissection: ArcDissection) -> float:
    """Lebesgue measure of the union of arcs, valid when they are disjoint."""
    if not dissection.disjoint_regime:
        raise ValidationError(
            "measure of an overlapping arc family is not defined here (need 2P^2 <= Q)"
        )
    q_cap = dissection.q_cap
    return sum(euler_phi(q) * 2.0 / (q * dissection.Q) for q in range(1, q_cap + 1))
