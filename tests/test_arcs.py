import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kglab import (
    ArcDissection,
    ConsistencyError,
    FareyArc,
    ValidationError,
    build_dissection,
    build_interval,
    classify,
    classify_brute,
    default_delta,
    euler_phi,
    major_measure,
)


class TestConstruction:
    def test_p2_arc_family(self):
        dissection = ArcDissection.from_parameters(2.0, 100.0)
        assert len(dissection.arcs) == euler_phi(1) + euler_phi(2)
        assert sorted((a.q, a.a) for a in dissection.arcs) == [(1, 1), (2, 1)]
        assert {a.center for a in dissection.arcs} == {0.5, 1.0}

    @pytest.mark.parametrize("P", [5.0, 20.0, 101.3])
    def test_arc_count_is_totient_sum(self, P):
        dissection = ArcDissection.from_parameters(P, 10.0**7)
        expected = sum(euler_phi(q) for q in range(1, int(P) + 1))
        assert len(dissection.arcs) == expected

    def test_sorted_by_center(self):
        dissection = ArcDissection.from_parameters(17.0, 10.0**6)
        centers = [a.center for a in dissection.arcs]
        assert centers == sorted(centers)

    def test_k2_width_scale(self):
        interval = build_interval(5 * 10**8, 2, 5, 0.85)
        dissection = build_dissection(interval, 0.05)
        assert dissection.Q == pytest.approx(interval.y**2 / dissection.P, rel=1e-12)

    def test_slim_width_scale(self):
        interval = build_interval(5 * 10**9, 3, 5, 0.85)
        slim = build_dissection(interval, 0.05, slim=True)
        wide = build_dissection(interval, 0.05)
        x, y = interval.x, interval.y
        assert slim.Q == pytest.approx(x**2 * y / slim.P, rel=1e-12)
        assert wide.Q == pytest.approx(x * y**2 / wide.P, rel=1e-12)

    def test_arcs_inside_representative_window(self):
        dissection = ArcDissection.from_parameters(25.0, 10.0**6)
        for arc in dissection.arcs:
            assert arc.center - arc.half_width > 0
            assert arc.center + arc.half_width <= 1.0 + 1.0 / dissection.Q + 1e-15

    def test_default_delta(self):
        assert default_delta(2, 0.85) == pytest.approx(min(0.9 / 32, 2 * (0.85 - 0.775)))
        with pytest.raises(ValidationError):
            default_delta(2, 0.76)


def _exact_arc(alpha, dissection):
    """(q, a) of the first arc holding alpha, with alpha reduced mod 1 into
    [1/Q, 1 + 1/Q) and every arc tested in exact rationals."""
    width = 1 / Fraction(dissection.Q)
    beta = Fraction(alpha) % 1
    if beta < width:
        beta += 1
    for q in range(1, dissection.q_cap + 1):
        for a in range(1, q + 1):
            if math.gcd(a, q) == 1 and abs(q * beta - a) <= width:
                return q, a
    return None


class TestClassify:
    def test_exact_center(self):
        dissection = ArcDissection.from_parameters(20.0, 10.0**6)
        arc = classify(0.5, dissection)
        assert (arc.q, arc.a) == (2, 1)

    def test_golden_ratio_is_minor(self):
        dissection = ArcDissection.from_parameters(20.0, 10.0**6)
        assert classify(0.6180339887, dissection) is None
        # the best approximation with q <= 20 is 8/13 and misses by far
        assert abs(13 * 0.6180339887 - 8) > 1e-6

    def test_boundary_is_closed(self):
        dissection = ArcDissection.from_parameters(5.0, 10.0**6)
        Q = dissection.Q
        inside = 1.0 / 3.0 + 0.999 / (3.0 * Q)
        arc = classify(inside, dissection)
        assert (arc.q, arc.a) == (3, 1)
        outside = 1.0 / 3.0 + 1.001 / (3.0 * Q)
        assert classify(outside, dissection) is None

    def test_exact_boundary_membership(self):
        # Dyadic Q makes arc edges exactly representable: an offset of
        # exactly 1/(qQ) is major (closed arcs), one ulp beyond is not.
        dissection = ArcDissection.from_parameters(6.0, 2048.0)
        cases = [(2, 1, +1), (4, 3, +1), (2, 1, -1), (1, 1, -1)]
        for q, a, side in cases:
            on_edge = a / q + side / (q * 2048.0)
            hit = classify(on_edge, dissection)
            assert hit is not None and (hit.q, hit.a) == (q, a), (q, a, side)
            beyond = float(np.nextafter(on_edge, 2.0 * side))
            miss = classify(beyond, dissection)
            assert miss is None or (miss.q, miss.a) != (q, a)
            brute = classify_brute(beyond, dissection)
            brute_key = (brute.q, brute.a) if brute else None
            miss_key = (miss.q, miss.a) if miss else None
            assert brute_key == miss_key

    def test_wrap_convention_at_window_ends(self):
        # alpha = 1 + 1/Q and alpha = 1/Q are the same point mod 1; the
        # documented reduction picks the left representative, where no
        # arc reaches, and both classifiers agree on it.
        dissection = ArcDissection.from_parameters(6.0, 2048.0)
        for alpha in (1.0 / 2048.0, 1.0 + 1.0 / 2048.0):
            assert classify(alpha, dissection) is None
            assert classify_brute(alpha, dissection) is None

    def test_every_arc_center_classifies_to_itself(self):
        dissection = ArcDissection.from_parameters(50.0, 10.0**7)
        for arc in dissection.arcs:
            hit = classify(arc.a / arc.q, dissection)
            assert hit is not None and (hit.q, hit.a) == (arc.q, arc.a)

    def test_wraparound_reduction(self):
        dissection = ArcDissection.from_parameters(10.0, 10.0**5)
        low = classify(1e-9, dissection)           # reduced up into the window
        assert low is not None and (low.q, low.a) == (1, 1)
        shifted = classify(7.5, dissection)
        base = classify(0.5, dissection)
        assert (shifted.q, shifted.a) == (base.q, base.a)

    def test_rounding_below_the_window_start(self):
        # alpha lies below 1/Q exactly, so alpha = 1 + alpha (mod 1) sits in
        # the arc at 1/1; 1.0 + alpha rounds past 1 + 1/Q in floats.
        dissection = ArcDissection.from_parameters(3.7, 636.2060326221683)
        alpha = 0.0015718178525884537
        assert Fraction(alpha) < 1 / Fraction(dissection.Q)
        for x in (alpha, alpha - 1.0):
            for classifier in (classify, classify_brute):
                arc = classifier(x, dissection)
                assert arc is not None and (arc.q, arc.a) == (1, 1), (classifier, x)

    @given(
        params=st.sampled_from([(3.7, 636.2060326221683), (6.0, 2048.0), (10.0, 1e5 / 3)]),
        m=st.integers(min_value=-3, max_value=3),
        ulps=st.integers(min_value=0, max_value=400),
    )
    @settings(max_examples=200, deadline=None)
    def test_exact_reduction_just_below_the_window_start(self, params, m, ulps):
        # alpha a few hundred ulps below m + 1/Q: both classifiers read its
        # exact residue mod 1, as a scan over exact rationals does.
        dissection = ArcDissection.from_parameters(*params)
        alpha = m + 1.0 / dissection.Q
        for _ in range(ulps):
            alpha = math.nextafter(alpha, -math.inf)
        expected = _exact_arc(alpha, dissection)
        for classifier in (classify, classify_brute):
            arc = classifier(alpha, dissection)
            assert (arc and (arc.q, arc.a)) == expected, (classifier, alpha)

    @given(alpha=st.floats(min_value=0.0, max_value=1.6))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_brute_force(self, alpha):
        dissection = ArcDissection.from_parameters(35.0, 10.0**5)
        fast = classify(alpha, dissection)
        slow = classify_brute(alpha, dissection)
        fast_key = (fast.q, fast.a) if fast else None
        slow_key = (slow.q, slow.a) if slow else None
        assert fast_key == slow_key

    @pytest.mark.parametrize("delta", [None, 0.3])
    def test_spectral_scan_samples_agree_with_brute_force(self, delta):
        # Every sample weyl-scan draws at n = 5e8 under the four benchmark
        # seeds, at the default arc exponent and at a wider family.
        interval = build_interval(5 * 10**8, 2, 5, 0.85)
        dissection = build_dissection(interval, delta or default_delta(2, 0.85))
        q_inv = 1.0 / dissection.Q
        for seed in (7, 8, 9, 10):
            alphas = np.random.default_rng(seed).uniform(q_inv, 1.0 + q_inv, size=5000)
            for alpha in alphas.tolist():
                fast = classify(alpha, dissection)
                slow = classify_brute(alpha, dissection)
                assert (fast and (fast.q, fast.a)) == (slow and (slow.q, slow.a)), alpha

    def test_degenerate_overlapping_family(self):
        # P >= Q: no disjointness; the scan path must still classify.
        dissection = ArcDissection.from_parameters(5.0, 4.0)
        assert not dissection.disjoint_regime
        for alpha in np.linspace(0.3, 1.2, 17):
            fast = classify(float(alpha), dissection)
            slow = classify_brute(float(alpha), dissection)
            fast_key = (fast.q, fast.a) if fast else None
            slow_key = (slow.q, slow.a) if slow else None
            assert fast_key == slow_key


class TestDisjointness:
    def test_exhaustive_up_to_200(self):
        dissection = ArcDissection.from_parameters(200.0, 2 * 200.0**2)
        arcs = dissection.arcs
        for left, right in zip(arcs, arcs[1:]):
            gap = Fraction(right.a, right.q) - Fraction(left.a, left.q)
            width = Fraction(1, left.q) + Fraction(1, right.q)
            assert gap * Fraction(dissection.Q) > width

    def test_touching_neighbours_are_refused(self):
        # 2/3 - 3/5 = 1/15 = (1/5 + 1/3)/8: closed arcs at Q = 8 share an
        # edge, so a family that holds them as neighbours is refused.
        arcs = tuple(FareyArc(q=q, a=a, center=a / q, half_width=1.0 / (q * 8.0))
                     for q, a in ((5, 3), (3, 2)))
        with pytest.raises(ConsistencyError, match="3/5 and 2/3"):
            ArcDissection(P=2.0, Q=8.0, delta=0.0, arcs=arcs)

    def test_neighbor_gap_bound(self):
        dissection = ArcDissection.from_parameters(40.0, 2 * 40.0**2)
        arcs = dissection.arcs
        for left, right in zip(arcs, arcs[1:]):
            assert right.center - left.center >= 1.0 / (left.q * right.q) - 1e-15


class TestMeasure:
    def test_single_arc(self):
        dissection = ArcDissection.from_parameters(1.0, 50.0)
        assert major_measure(dissection) == pytest.approx(2.0 / 50.0)

    def test_two_arc_hand_sum(self):
        dissection = ArcDissection.from_parameters(2.0, 100.0)
        assert major_measure(dissection) == pytest.approx(0.03)

    def test_matches_direct_union_length(self):
        dissection = ArcDissection.from_parameters(12.0, 10.0**5)
        total = sum(2 * arc.half_width for arc in dissection.arcs)
        assert major_measure(dissection) == pytest.approx(total, rel=1e-12)

    def test_measure_below_one_for_wide_q(self):
        dissection = ArcDissection.from_parameters(30.0, 10.0**7)
        assert major_measure(dissection) < 1.0

    def test_requires_disjointness(self):
        dissection = ArcDissection.from_parameters(5.0, 4.0)
        with pytest.raises(ValidationError):
            major_measure(dissection)
