"""Scene-level frozen values and invariants.

The heavier frozen numbers (scroll cohomology, CI point counts) were
computed once by independent means: Riemann-Roch chi = deg + 1 - g for
the scroll labels, Koszul alternating sums for complete intersection
Euler characteristics, and direct point counting.
"""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from steinertorelli.errors import (BadClass, BadPrime, BasepointedSeries,
                                   DependentBasis, DuplicatePoints,
                                   SchemaError, ShapeMismatch,
                                   UnsupportedLabel, UnsupportedScene,
                                   ZeroEvaluation, ZeroPoint, ZeroSection)
from steinertorelli.exactfield import (GF, QQ, normalize_projective,
                                       rank, span_reduction)
from steinertorelli import exactfield, scenes
from steinertorelli.koszul import scene_window
from steinertorelli.polyalg import monomial_basis, monomial_index
from steinertorelli.scenes import (CompleteIntersection, MonomialVariety,
                                   P1Series, PointSet, ScrollCurve,
                                   load_scene, parse_scalar, save_scene,
                                   scene_from_dict, scroll_basis)

from test_exactfield import matrix


# ---- shared fixtures -----------------------------------------------------


def quadric_dict(weights):
    """Diagonal quadric sum w_i x_i^2 in 5 variables as a dense vector."""
    idx = monomial_index(5, 2)
    v = [0] * 15
    for i, w in enumerate(weights):
        m = [0] * 5
        m[i] = 2
        v[idx[tuple(m)]] = w
    return v


def diagonal_ci():
    a = (0, 1, 2, 3, 4)
    return CompleteIntersection(4, [
        (2, quadric_dict([1] * 5)),
        (2, quadric_dict(list(a))),
        (2, quadric_dict([x * x for x in a]))])


def fermat_quartic():
    idx = monomial_index(3, 4)
    v = [0] * 15
    for i in range(3):
        m = [0] * 3
        m[i] = 4
        v[idx[tuple(m)]] = 1
    return CompleteIntersection(2, [(4, v)])


SCROLL_F1 = (1, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 0)
SCROLL_F2 = (0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 1, 2)


def scroll(coeffs=SCROLL_F1):
    return ScrollCurve(1, 1, 2, 1, coeffs)


# ---- P^1 series ----------------------------------------------------------


def _strip_poly(cs):
    cs = list(cs)
    while cs and cs[0] == 0:
        cs.pop(0)
    return cs


def _poly_mod(a, b):
    """Remainder of a by b; both lists of Fractions, leading coeff first."""
    a = _strip_poly(a)
    b = _strip_poly(b)
    while len(a) >= len(b):
        f = a[0] / b[0]
        a = [x - f * y for x, y in zip(a, b + [Fraction(0)] * len(a))][1:]
        a = _strip_poly(a)
        if not a:
            break
    return a


def _poly_gcd(a, b):
    while b:
        a, b = b, _poly_mod(a, b)
    return a


def gcd_basepoint_oracle(vectors):
    """Common projective zero (over the algebraic closure) of binary forms
    given by coefficient vectors in descending s powers, by a polynomial
    gcd of the dehomogenized forms."""
    if all(v[0] == 0 for v in vectors):
        return True           # all divisible by t: common zero at [1:0]
    g = None
    for v in vectors:
        cs = _strip_poly([Fraction(c) for c in v])   # f(s, 1)
        if not cs:
            continue
        g = cs if g is None else _poly_gcd(g, cs)
        if len(g) == 1:
            return False
    return g is not None and len(g) > 1


def _binary_product(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


class TestP1Series:
    def test_twisted_cubic_dims(self):
        tc = P1Series(3)
        assert tc.series_dim() == 4
        assert tc.section_space(5).dim == 6
        assert tc.section_space(-1).dim == 0
        assert tc.canonical_label() == -2
        assert tc.cohomology_dim(-2, 1) == 1
        assert tc.cohomology_dim(3, 1) == 0

    def test_evaluations(self):
        tc = P1Series(3)
        f = GF(7)
        assert tc.evaluation_functional((1, 1), 3, f) == (1, 1, 1, 1)
        assert tc.evaluation_functional((1, 0), 5, f) == (1, 0, 0, 0, 0, 0)
        with pytest.raises(ZeroEvaluation):
            tc.evaluation_functional((0, 0), 5, GF(5))

    def test_enumeration_f5(self):
        en = P1Series(3).enumerate_points(5)
        assert len(en.records) == 6
        assert en.records[0].params == (0, 1)
        assert en.records[0].phi == (0, 0, 0, 1)
        assert en.records[1].phi == (1, 0, 0, 0)
        assert len(en.phi_set()) == 6

    def test_multiplication_full(self):
        m = P1Series(3).multiplication_map(2, 3, GF(5))
        assert (m.nrows, m.ncols) == (6, 12)
        assert rank(m) == 6

    def test_multiplication_subspace_right_factor(self):
        # V spanned by s^2 and t^2 inside O(2)
        pencil = P1Series(2, [(1, 0, 0), (0, 0, 1)])
        m = pencil.multiplication_map(1, 2, QQ)
        assert (m.nrows, m.ncols) == (4, 4)
        # s * t^2 lands on the st^2 coordinate
        assert m.columns()[1] == (Fraction(0), Fraction(0), Fraction(1),
                               Fraction(0))

    def test_series_validation(self):
        with pytest.raises(DependentBasis):
            P1Series(2, [(1, 0, 0), (2, 0, 0)])
        with pytest.raises(BasepointedSeries):
            P1Series(2, [(1, 0, 0), (0, 1, 0)])   # s^2, st vanish at s=0
        with pytest.raises(BasepointedSeries):
            # both divisible by (s - t)
            P1Series(2, [(1, -1, 0), (0, 1, -1)])
        with pytest.raises(BadClass):
            P1Series(0)
        with pytest.raises(ShapeMismatch):
            P1Series(2, [(1, 0), (0, 1)])
        # s^2 + t^2 and st have no common zero over any extension
        P1Series(2, [(1, 0, 1), (0, 1, 0)])

    def test_degenerate_basis_is_refused_at_every_call(self):
        # s^2 + t^2 and s^2 + 6t^2 coincide mod 5; the rows are kept per
        # field, and the refusal with them
        sc = P1Series(2, [(1, 0, 1), (1, 0, 6)])
        for _ in range(2):
            with pytest.raises(BadPrime):
                sc.series_dim(GF(5))
            with pytest.raises(BadPrime):
                sc.enumerate_points(5)
            with pytest.raises(BadPrime):
                sc.multiplication_map(1, 2, GF(5))
            with pytest.raises(BadPrime):
                sc.action_columns(1, GF(5))
        # the other kinds refuse a prime through their reduced points or
        # their ring, which keep nothing either
        clash = PointSet(1, [(1, 2), (1, 7)])
        vanishing = CompleteIntersection(2, [(1, (5, 10, 15))])
        for _ in range(2):
            with pytest.raises(BadPrime):
                clash.enumerate_points(5)
            with pytest.raises(BadPrime):
                vanishing.enumerate_points(5)
        assert clash.enumerate_points(7) is clash.enumerate_points(7)
        assert len(vanishing.enumerate_points(7).records) == 8
        assert sc.series_dim(GF(7)) == 2
        assert sc.multiplication_map(1, 2, GF(7)).ncols == 4
        # the table restricted to the series is kept per labels and field
        assert sc.multiplication_map(1, 2, GF(7)) is \
            sc.multiplication_map(1, 2, GF(7))

    @pytest.mark.parametrize("a,root", [
        (a, root) for a in range(1, 6)
        for root in ("none", "finite", "infinity")
        if a > 1 or root == "none"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_basepoint_test_matches_gcd_oracle(self, a, root, data):
        """P1Series refuses a basis exactly when the gcd oracle finds a
        common zero; `root` forces one at a finite point p/q or at [1:0]
        by multiplying every form by the same linear factor."""
        coeff = st.integers(-3, 3)
        if root == "none":
            count = data.draw(st.integers(2, a + 1))
            rows = [data.draw(st.lists(coeff, min_size=a + 1,
                                       max_size=a + 1))
                    for _ in range(count)]
        else:
            if root == "finite":
                num = data.draw(st.integers(-3, 3))
                den = data.draw(st.integers(1, 3))
                factor = (den, -num)            # den*s - num*t
            else:
                factor = (0, 1)                 # t
            count = data.draw(st.integers(2, a))
            rows = [_binary_product(factor, data.draw(
                st.lists(coeff, min_size=a, max_size=a)))
                for _ in range(count)]
        assume(rank(matrix(QQ, rows)) == count)
        expected = gcd_basepoint_oracle(rows)
        assert expected or root == "none"
        if expected:
            with pytest.raises(BasepointedSeries):
                P1Series(a, rows)
        else:
            assert P1Series(a, rows).series_dim() == count

    @given(st.integers(0, 5), st.integers(0, 5), st.integers(1, 4))
    def test_multiplication_is_evaluation_compatible(self, k1, k2, t):
        """eval(m * g) == eval(m) * eval(g) for every tensor column."""
        f = GF(7)
        sc = P1Series(3)
        m = sc.multiplication_map(k1, k2, f)
        pt = (1, t)
        e1 = sc.evaluation_functional(pt, k1, f)
        e2 = sc.evaluation_functional(pt, k2, f)
        eo = sc.evaluation_functional(pt, k1 + k2, f)
        for i in range(len(e1)):
            for j in range(len(e2)):
                col = m.columns()[i * len(e2) + j]
                lhs = sum(a * b for a, b in zip(eo, col)) % 7
                assert lhs == e1[i] * e2[j] % 7


# ---- complete intersections ----------------------------------------------


def proj_chi(N, j):
    """chi(P^N, O(j)) as the binomial polynomial, valid for all j."""
    num, den = 1, 1
    for i in range(1, N + 1):
        num *= j + i
        den *= i
    return num // den


def chi_oracle(ci, k):
    """Euler characteristic of O_X(k) by the Koszul alternating sum over
    subsets of the generating degrees."""
    import itertools
    degs = [d for d, _ in ci.generators]
    total = 0
    for rsz in range(len(degs) + 1):
        for sub in itertools.combinations(degs, rsz):
            total += (-1) ** rsz * proj_chi(ci.N, k - sum(sub))
    return total


class TestCompleteIntersection:
    def test_quadric_surface_f3(self):
        idx = monomial_index(4, 2)
        v = [0] * 10
        v[idx[(1, 0, 0, 1)]] = 1
        v[idx[(0, 1, 1, 0)]] = -1
        q = CompleteIntersection(3, [(2, v)])
        assert (q.n, q.sigma) == (2, -2)
        en = q.enumerate_points(3)
        assert len(en.records) == 16
        assert en.all_smooth
        assert q.cohomology_dim(1, 0, GF(3)) == 4
        assert q.cohomology_dim(0, 2, GF(3)) == q.ring(GF(3)).dim(-2)
        assert q.cohomology_dim(5, 1, GF(3)) == 0

    def test_fermat_quartic(self):
        c = fermat_quartic()
        assert (c.n, c.sigma) == (1, 1)
        assert c.cohomology_dim(0, 1, QQ) == 3     # genus of a plane quartic
        assert c.cohomology_dim(1, 0, QQ) == 3
        assert c.cohomology_dim(2, 0, QQ) == 6
        assert [c.ring(QQ).dim(k) for k in range(7)] == \
            [1, 3, 6, 10, 14, 18, 22]
        en = c.enumerate_points(7)
        assert en.all_smooth
        assert len(en.records) == 8

    def test_diagonal_quadrics(self):
        ci = diagonal_ci()
        assert (ci.n, ci.sigma, ci.degree_A()) == (1, 1, 8)
        assert [ci.ring(GF(5)).dim(k) for k in range(5)] == \
            [1, 5, 12, 20, 28]
        assert ci.cohomology_dim(0, 1, GF(5)) == 5   # genus five
        for p, npts in ((5, 16), (7, 16), (11, 32)):
            en = ci.enumerate_points(p)
            assert len(en.records) == npts
            assert en.all_smooth

    def test_nodal_cubic_is_singular_only_at_the_node(self):
        # y^2 z - x^3 - x^2 z: a plane cubic with a node at [0:0:1]
        idx = monomial_index(3, 3)
        v = [0] * 10
        v[idx[(0, 2, 1)]] = 1
        v[idx[(3, 0, 0)]] = -1
        v[idx[(2, 0, 1)]] = -1
        nodal = CompleteIntersection(2, [(3, v)])
        for p in (5, 7, 11):
            en = nodal.enumerate_points(p)
            assert not en.all_smooth
            assert [r.params for r in en.records
                    if not r.smooth_ok] == [(0, 0, 1)]

    def test_chi_matches_koszul_sum(self):
        for c in (diagonal_ci(), fermat_quartic()):
            for k in range(-1, 5):
                chi = sum((-1) ** i * c.cohomology_dim(k, i, QQ)
                          for i in range(c.n + 1))
                assert chi == chi_oracle(c, k)

    def test_validation(self):
        idx = monomial_index(3, 2)
        v = [0] * 6
        v[idx[(2, 0, 0)]] = 1
        with pytest.raises(BadClass):
            CompleteIntersection(2, [(2, v), (2, v)])    # c = N
        with pytest.raises(BadClass):
            CompleteIntersection(2, [(0, [1])])
        with pytest.raises(ZeroSection):
            CompleteIntersection(2, [(2, [0] * 6)])
        with pytest.raises(ShapeMismatch):
            CompleteIntersection(2, [(2, [1, 0])])

    def test_bad_prime_in_coefficients(self):
        idx = monomial_index(3, 2)
        v = [Fraction(0)] * 6
        v[idx[(2, 0, 0)]] = Fraction(1, 5)
        v[idx[(0, 2, 0)]] = Fraction(1)
        c = CompleteIntersection(2, [(2, v)])
        with pytest.raises(BadPrime):
            c.ring(GF(5))
        assert c.ring(GF(7)).dim(1) == 3


# ---- monomial varieties ----------------------------------------------------


class TestMonomialVariety:
    def test_full_veronese_matches_p1(self):
        mv = MonomialVariety(2, 3, [(3, 0), (2, 1), (1, 2), (0, 3)])
        p1 = P1Series(3)
        f = GF(5)
        assert mv.multiplication_map(1, 1, f).entries == \
            p1.multiplication_map(3, 3, f).entries

    def test_plane_veronese_enumeration(self):
        monos = [(2, 0, 0), (1, 1, 0), (1, 0, 1),
                 (0, 2, 0), (0, 1, 1), (0, 0, 2)]
        mv = MonomialVariety(3, 2, monos)
        en = mv.enumerate_points(3)
        assert len(en.records) == 13          # embedding of P^2(F_3)
        assert len(en.phi_set()) == 13

    def test_sparse_series_dedup(self):
        mv = MonomialVariety(2, 3, [(3, 0), (2, 1), (0, 3)])
        en = mv.enumerate_points(5)
        assert len(en.records) == 6
        assert mv.series_dim() == 3

    def test_unsupported_surface(self):
        mv = MonomialVariety(2, 2, [(2, 0), (0, 2)])
        with pytest.raises(UnsupportedScene):
            mv.cohomology_dim(1, 0)
        with pytest.raises(UnsupportedScene):
            mv.canonical_label()

    def test_validation(self):
        with pytest.raises(DependentBasis):
            MonomialVariety(2, 2, [(2, 0), (2, 0)])
        with pytest.raises(ShapeMismatch):
            MonomialVariety(2, 2, [(1, 0)])
        with pytest.raises(BadClass):
            MonomialVariety(2, 2, [(2, 0)])


# ---- scroll curves ---------------------------------------------------------


def scroll_genus(sc):
    """Adjunction on the scroll: 2g - 2 = X.(X + K_Y) with H^2 = q,
    H.F = 1, F^2 = 0 and K_Y = -2H + (q - 2)F."""
    d, e, q = sc.d, sc.e, sc.q
    return (d * (d - 2) * q + d * (e + q - 2) + e * (d - 2) + 2) // 2


class TestScrollCurve:
    def test_surface_spaces(self):
        # exponents of (s, t, u, v): v*s, v*t, u*s, u*t
        assert scroll_basis(1, 1, 1, 0) == (
            (1, 0, 0, 1), (0, 1, 0, 1), (1, 0, 1, 0), (0, 1, 1, 0))
        assert len(scroll_basis(2, 1, 2, 1)) == 4 + 5 + 6
        assert scroll_basis(1, 1, -1, 4) == ()

    def test_surface_cohomology(self):
        sc = scroll()
        assert sc.h1_Y((-1, -1)) == 0
        assert sc.h1_Y((-2, 2)) == 1
        assert sc.h1_Y((0, -3)) == 2

    def test_genus_and_canonical(self):
        sc = scroll()
        assert scroll_genus(sc) == 2
        assert sc.canonical_label() == (0, 1)
        assert sc.degree((1, 0)) == 5
        assert sc.degree((1, 1)) == 7

    def test_curve_cohomology_frozen(self):
        sc = scroll()
        f = GF(5)
        dims = {lab: sc.cohomology_dim(lab, 0, f)
                for lab in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (2, 2)]}
        assert dims == {(0, 0): 1, (1, 0): 4, (0, 1): 2,
                        (1, 1): 6, (2, 1): 11, (2, 2): 13}
        assert sc.cohomology_dim((0, 0), 1, f) == 2
        assert sc.cohomology_dim((0, 1), 1, f) == 1
        assert sc.cohomology_dim((1, 0), 1, f) == 0

    def test_riemann_roch(self):
        sc = scroll(SCROLL_F2)
        g = scroll_genus(sc)
        for lab in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 2), (3, 1)]:
            chi = sc.cohomology_dim(lab, 0, QQ) - \
                sc.cohomology_dim(lab, 1, QQ)
            assert chi == sc.degree(lab) + 1 - g

    def test_unsupported_label(self):
        with pytest.raises(UnsupportedLabel):
            scroll().section_space((0, 3), GF(5))
        with pytest.raises(UnsupportedLabel):
            scroll().section_space("H", GF(5))

    def test_enumeration_frozen(self):
        en1 = scroll(SCROLL_F1).enumerate_points(5)
        assert len(en1.records) == 8
        assert en1.all_smooth
        en2 = scroll(SCROLL_F2).enumerate_points(5)
        assert len(en2.records) == 6
        assert en2.all_smooth

    def test_singular_member_detected(self):
        bad = scroll((0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0))
        en = bad.enumerate_points(5)
        assert not en.all_smooth

    def test_section_models_ignore_the_member(self):
        """For labels whose model needs no quotient, every member of the
        class produces the same spaces and multiplication tables."""
        f = GF(5)
        s1, s2 = scroll(SCROLL_F1), scroll(SCROLL_F2)
        for lab in [(0, 1), (1, 0), (1, 1)]:
            assert s1.section_space(lab, f) == s2.section_space(lab, f)
        m1 = s1.multiplication_map((0, 1), (1, 0), f)
        m2 = s2.multiplication_map((0, 1), (1, 0), f)
        assert m1.entries == m2.entries
        assert (m1.nrows, m1.ncols) == (6, 8)

    def test_quotient_label_depends_on_member(self):
        """Labels at or above the curve class genuinely quotient."""
        f = GF(5)
        sp = scroll(SCROLL_F1).section_space((2, 1), f)
        assert sp.dim == 11
        assert len(scroll_basis(1, 1, 2, 1)) == 12

    def test_validation(self):
        with pytest.raises(BadClass):
            ScrollCurve(1, 2, 2, 1, [0] * 12)
        with pytest.raises(BadClass):
            ScrollCurve(1, 1, 1, 0, [0] * 4)
        with pytest.raises(ZeroSection):
            ScrollCurve(1, 1, 2, 1, [0] * 12)
        with pytest.raises(ShapeMismatch):
            ScrollCurve(1, 1, 2, 1, [1] * 11)

    @given(st.integers(0, 2), st.integers(0, 1), st.integers(0, 2),
           st.integers(0, 1))
    @settings(max_examples=20, deadline=None)
    def test_multiplication_evaluation_compatible(self, a1, b1, a2, b2):
        f = GF(5)
        sc = scroll(SCROLL_F1)
        l1, l2 = (a1, b1), (a2, b2)
        lo = sc.label_add(l1, l2)
        m = sc.multiplication_map(l1, l2, f)
        pt = sc.enumerate_points(5).records[0].params
        e1 = sc.evaluation_functional(pt, l1, f)
        e2 = sc.evaluation_functional(pt, l2, f)
        eo = sc.evaluation_functional(pt, lo, f)
        for i in range(len(e1)):
            for j in range(len(e2)):
                col = m.columns()[i * len(e2) + j]
                lhs = sum(a * b for a, b in zip(eo, col)) % 5
                assert lhs == e1[i] * e2[j] % 5


# ---- point sets -------------------------------------------------------------


class TestPointSet:
    def test_validation(self):
        with pytest.raises(DuplicatePoints):
            PointSet(1, [(1, 0), (2, 0)])
        with pytest.raises(ZeroPoint):
            PointSet(1, [(0, 0)])
        with pytest.raises(ShapeMismatch):
            PointSet(2, [(1, 0)])

    def test_reduction_collision(self):
        ps = PointSet(1, [(1, 2), (1, 7)])
        with pytest.raises(BadPrime):
            ps.reduced_points(GF(5))
        assert len(ps.reduced_points(GF(7))) == 2

    def test_general_position(self):
        good = PointSet(3, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                            (0, 0, 0, 1), (1, 1, 1, 1)])
        assert good.in_general_position(QQ)
        assert good.in_general_position(GF(5))
        flat = PointSet(3, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0),
                            (0, 0, 1, 0)])
        assert not flat.in_general_position(QQ)

    def test_general_position_is_decided_once_per_field(self, monkeypatch):
        """The reduced points, the normal form and the verdict are kept
        per field, and each field costs one elimination; a prime where the
        points collide is refused each time it is asked."""
        calls, eliminate = [], exactfield.eliminate

        def counting(work, ncols, p, full=True):
            calls.append(p)
            return eliminate(work, ncols, p, full)

        monkeypatch.setattr(exactfield, "eliminate", counting)
        monkeypatch.setattr(scenes, "eliminate", counting)
        # (1, 1, 7) lies on the line through e1 and e2 mod 7
        ps = PointSet(2, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 7)])
        for _ in range(2):
            assert ps.in_general_position(QQ)
            assert not ps.in_general_position(GF(7))
            assert ps.in_general_position(GF(11))
        assert ps.reduced_points(GF(11)) is ps.reduced_points(GF(11))
        assert ps.normal_form(GF(11)) is ps.normal_form(GF(11))
        # one reduction of the 3 x 4 coordinate matrix per field, where
        # the four triples took [4, 2, 4] rank checks
        assert [calls.count(p) for p in (0, 7, 11)] == [1, 1, 1]
        clash = PointSet(1, [(1, 2), (1, 7)])
        for _ in range(2):
            with pytest.raises(BadPrime):
                clash.in_general_position(GF(5))

    def test_reduced_points_over_qq_are_kept_from_construction(
            self, monkeypatch):
        """The duplicate check's normalized points are the reduced points
        over QQ; no point is normalized again."""
        ps = PointSet(2, [(2, 4, Fraction(-1, 3)), (0, Fraction(3, 2), 3)])

        def refuse(field, vec):
            raise AssertionError("normalized again")

        monkeypatch.setattr(scenes, "normalize_projective", refuse)
        assert ps.reduced_points(QQ) == (
            (1, 2, Fraction(-1, 6)), (0, 1, 2))

    def test_evaluation_matrix(self):
        ps = PointSet(1, [(1, 0), (0, 1), (1, 1)])
        m = ps.evaluation_matrix(2, GF(5))
        assert m == ((1, 0, 0), (0, 0, 1), (1, 1, 1))
        # kept per degree and field
        assert ps.evaluation_matrix(2, GF(5)) is m
        assert ps.evaluation_matrix(2, GF(7)) is not m
        assert ps.evaluation_matrix(1, GF(5)) == (
            (1, 0), (0, 1), (1, 1))
        # a bad prime is refused each time it is asked
        clash = PointSet(1, [(1, 2), (1, 7)])
        for _ in range(2):
            with pytest.raises(BadPrime):
                clash.evaluation_matrix(2, GF(5))
        assert len(clash.evaluation_matrix(2, GF(7))) == 2

    def test_enumerate(self):
        ps = PointSet(2, [(1, 2, 3), (0, 1, 4)])
        en = ps.enumerate_points(7)
        assert [r.phi for r in en.records] == [(1, 2, 3), (0, 1, 4)]
        assert ps.cohomology_dim(3, 0) == 2
        assert ps.cohomology_dim(3, 1) == 0


# ---- serialization ----------------------------------------------------------


class TestSceneIO:
    def scenes(self):
        return [
            P1Series(3, name="tc"),
            P1Series(2, [(1, 0, Fraction(1, 2)), (0, 1, 0)]),
            diagonal_ci(),
            MonomialVariety(2, 3, [(3, 0), (2, 1), (0, 3)]),
            scroll(),
            PointSet(2, [(1, 0, 0), (0, 1, Fraction(2, 3))]),
        ]

    def test_roundtrip_dicts(self):
        for sc in self.scenes():
            d = sc.to_json_dict()
            json.dumps(d)     # must already be JSON-clean
            sc2 = scene_from_dict(d)
            assert sc2.to_json_dict() == d

    def test_roundtrip_files(self, tmp_path):
        for i, sc in enumerate(self.scenes()):
            path = tmp_path / f"scene_{i}.json"
            save_scene(sc, path)
            sc2 = load_scene(path)
            assert sc2.to_json_dict() == sc.to_json_dict()

    def test_parse_scalar(self):
        assert parse_scalar("3/4") == Fraction(3, 4)
        assert parse_scalar(-2) == Fraction(-2)
        assert parse_scalar("-7") == Fraction(-7)
        for bad in ("1/0", "x", 1.5, True, None):
            with pytest.raises(SchemaError):
                parse_scalar(bad)

    def test_schema_errors(self):
        with pytest.raises(SchemaError):
            scene_from_dict({"kind": "mystery"})
        with pytest.raises(SchemaError):
            scene_from_dict({"kind": "p1_series"})       # missing a
        with pytest.raises(SchemaError):
            scene_from_dict([1, 2])

    @pytest.mark.parametrize("stem,fields", [
        pytest.param("conic_monomials",
                     {"monomials": [["a", 1], [1, 1], [0, 2]]},
                     id="exponent-string"),
        pytest.param("conic_monomials",
                     {"monomials": [[2, 0], [1.9, 1.9], [0, 2]]},
                     id="exponent-float"),
        pytest.param("conic_monomials",
                     {"monomials": [[2, 0], [True, True], [0, 2]]},
                     id="exponent-bool"),
        pytest.param("conic_monomials",
                     {"monomials": [[2, 0], [-1, 3], [0, 2]]},
                     id="exponent-negative"),
        pytest.param("twisted_cubic", {"a": True}, id="a-bool"),
        pytest.param(None, {"kind": "point_set", "r": True,
                            "points": [[1, 0], [0, 1], [1, 1]]},
                     id="r-bool"),
        pytest.param("scroll_member_a", {"e": "1"}, id="e-string"),
        pytest.param("diagonal_ci", None, id="degree-float"),
        pytest.param("twisted_cubic", {"name": 5}, id="name-int"),
        pytest.param("twisted_cubic", {"name": ["x"]}, id="name-list"),
    ])
    def test_malformed_json_types_are_schema_errors(self, stem, fields):
        """Integer fields are JSON integers, exponents non-negative
        integers and names strings; anything else is a SchemaError, not
        a silent coercion or a typed refusal of the coerced value."""
        data = {} if stem is None else \
            json.loads((SCENEDIR / f"{stem}.json").read_text())
        if fields is None:
            data["generators"][0]["degree"] = 2.0
        else:
            data.update(fields)
        with pytest.raises(SchemaError):
            scene_from_dict(data)

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_scene(path)


# ---- differential oracles: the per-kind builders the section ring replaced --
#
# Each scene kind used to build its own section bases and multiplication
# tables: the scroll reduced H0(Y, L) by the section's multiples in (i, m)
# pair coordinates, and P^1 series and monomial scenes wrote out tables of
# monomial products.  Those builders are kept here, as they were, and the
# shared ring must agree with them entry for entry.

SCENEDIR = Path(__file__).resolve().parent.parent / "scenefiles"
RING_SCENES = ("twisted_cubic", "fermat_quartic", "diagonal_quartic_123",
               "diagonal_ci", "scroll_member_a", "scroll_member_b",
               "conic_monomials", "p1_unimodular")
UNIMODULAR = ((1, 1, 0, 0), (0, 1, 1, 0), (2, 3, 4, 3), (0, 0, 0, 1))


def _oracle_scene(stem):
    if stem == "p1_unimodular":
        return P1Series(3, UNIMODULAR)
    return load_scene(SCENEDIR / f"{stem}.json")


def _table(field, left, right, index):
    """Columns m * f for m in `left` (major) and each term list f of
    `right`, as a matrix over the positions in `index`."""
    cols = []
    for m in left:
        for form in right:
            col = [field.zero] * len(index)
            for e, c in form:
                col[index[tuple(x + y for x, y in zip(m, e))]] += c
            cols.append(col)
    return matrix(field, [[col[i] for col in cols]
                          for i in range(len(index))], len(cols))


def _scroll_pairs(a, b, alpha, beta):
    """H0(Y, alpha H + beta F) as (i, m) pairs, i major."""
    if alpha < 0:
        return ()
    return tuple((i, m) for i in range(alpha + 1)
                 for m in monomial_basis(2, a * i + b * (alpha - i) + beta))


def _pair_exponents(pairs, alpha):
    return [m + (i, alpha - i) for i, m in pairs]


class ReferenceScroll:
    """The scroll's own quotient-and-reduce and its table."""

    def __init__(self, sc, field):
        self.sc, self.field = sc, field
        pairs = _scroll_pairs(sc.a, sc.b, sc.d, sc.e)
        self.form = [(m, field.normalize(c)) for m, c in
                     zip(_pair_exponents(pairs, sc.d), sc.section) if c]

    def supported(self, label):
        sc = self.sc
        return sc.h1_Y((label[0] - sc.d, label[1] - sc.e)) == 0

    def piece(self, label):
        sc = self.sc
        amb = _scroll_pairs(sc.a, sc.b, *label)
        index = {m: j for j, m in
                 enumerate(_pair_exponents(amb, label[0]))}
        down = (label[0] - sc.d, label[1] - sc.e)
        shifts = _pair_exponents(_scroll_pairs(sc.a, sc.b, *down), down[0])
        rows = _table(self.field, shifts, [self.form], index).transpose()
        red = span_reduction(rows.entries, rows.ncols, self.field)
        return tuple(amb[c] for c in red.complement), red

    def basis(self, label):
        return _pair_exponents(self.piece(label)[0], label[0])

    def multiplication(self, l1, l2):
        b1, b2 = self.piece(l1)[0], self.piece(l2)[0]
        out = (l1[0] + l2[0], l1[1] + l2[1])
        _, red = self.piece(out)
        idx = {lab: i for i, lab in
               enumerate(_scroll_pairs(self.sc.a, self.sc.b, *out))}
        cols = [idx[(i1 + i2, tuple(x + y for x, y in zip(m1, m2)))]
                for i1, m1 in b1 for i2, m2 in b2]
        return matrix(self.field, [[v[c] for c in cols] for v in red.kernel],
                      len(cols))


class ReferenceFree:
    """The products tables of P^1 series and monomial scenes: label k is
    the degree k * step piece in n variables; with right factor A a
    proper series runs over its forms."""

    def __init__(self, sc, field):
        self.sc, self.field = sc, field
        if sc.kind == "p1_series":
            self.n, self.step = 2, 1
            self.series = None if sc.basis is None else [
                tuple(zip(monomial_basis(2, sc.a), map(field.normalize, form)))
                for form in sc.basis]
        else:
            self.n, self.step = sc.source_vars, sc.degree
            self.series = [((m, field.one),) for m in sc.monomials]

    def supported(self, label):
        return True

    def basis(self, label):
        d = label * self.step
        return monomial_basis(self.n, d) if d >= 0 else ()

    def multiplication(self, l1, l2):
        right = self.series if l2 == self.sc.label_A() else None
        if right is None:
            right = [((m, self.field.one),) for m in self.basis(l2)]
        return _table(self.field, self.basis(l1), right,
                      monomial_index(self.n, (l1 + l2) * self.step))


class ReferenceCI:
    """The quotient of a complete intersection's polynomial ring, reduced
    by the shifts of every generator."""

    def __init__(self, sc, field):
        self.sc, self.field = sc, field
        self.n = sc.N + 1
        self.forms = [(d, [(m, field.normalize(c)) for m, c in
                           zip(monomial_basis(self.n, d), coeffs) if c])
                      for d, coeffs in sc.generators]

    def supported(self, label):
        return True

    def piece(self, k):
        index = monomial_index(self.n, k)
        rows = ()
        for d, form in self.forms:
            rows += _table(self.field, monomial_basis(self.n, k - d),
                           [form], index).transpose().entries
        red = span_reduction(rows, len(index), self.field)
        amb = monomial_basis(self.n, k)
        return tuple(amb[c] for c in red.complement), red

    def basis(self, label):
        return self.piece(label)[0]

    def multiplication(self, l1, l2):
        _, red = self.piece(l1 + l2)
        idx = monomial_index(self.n, l1 + l2)
        cols = [idx[tuple(x + y for x, y in zip(m1, m2))]
                for m1 in self.basis(l1) for m2 in self.basis(l2)]
        return matrix(self.field, [[v[c] for c in cols] for v in red.kernel],
                      len(cols))


def _reference(sc, field):
    if sc.kind == "scroll_curve":
        return ReferenceScroll(sc, field)
    if sc.kind == "complete_intersection":
        return ReferenceCI(sc, field)
    return ReferenceFree(sc, field)


def _oracle_labels(sc):
    """The labels the pipelines reach: B, B - A and A for the default and
    the catalogue's explicit B, the koszul and duality windows, and a few
    products whose right factor is not A."""
    if sc.kind == "scroll_curve":
        labels = [(al, be) for al in range(-1, 4) for be in (0, 1)]
        return labels, [(lab, (1, 0)) for lab in labels] + \
            [((0, 1), (0, 1)), ((1, 1), (0, 1)), ((1, 0), (1, 1))]
    a = sc.label_A()
    top = 6 if sc.kind == "p1_series" else 4
    labels = list(range(-1, top + 1))
    return labels, [(k, a) for k in range(-1, top + 1 - a)] + \
        [(1, 1), (1, 2), (2, 1)]


def _oracle_params(ref, field):
    """A point with coordinates 1, 2, 3, ... and, over GF(p), up to three
    enumerated points of the scene."""
    nvars = len(ref.basis(ref.sc.label_A())[0])
    params = [tuple(range(1, nvars + 1))]
    if field != QQ:
        params += [r.params for r in
                   ref.sc.enumerate_points(field.p).records[:3]]
    return params


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7)], ids=str)
@pytest.mark.parametrize("stem", RING_SCENES)
def test_section_ring_matches_the_per_kind_builders(stem, field):
    sc = _oracle_scene(stem)
    ref = _reference(sc, field)
    labels, pairs = _oracle_labels(sc)
    for lab in labels:
        if not ref.supported(lab):
            with pytest.raises(UnsupportedLabel):
                sc.section_space(lab, field)
            continue
        assert list(sc.section_space(lab, field).monomials) == \
            list(ref.basis(lab)), lab
        for params in _oracle_params(ref, field):
            values = [1] * len(ref.basis(lab))
            for j, m in enumerate(ref.basis(lab)):
                for x, e in zip(params, m):
                    values[j] *= x ** e
            expected = normalize_projective(field, values)
            if expected is None:
                with pytest.raises(ZeroEvaluation):
                    sc.evaluation_functional(params, lab, field)
            else:
                assert sc.evaluation_functional(params, lab, field) == \
                    expected, (lab, params)
    for l1, l2 in pairs:
        out = sc.label_add(l1, l2)
        if not all(map(ref.supported, (l1, l2, out))):
            continue
        got = sc.multiplication_map(l1, l2, field)
        want = ref.multiplication(l1, l2)
        assert (got.nrows, got.ncols, got.entries) == \
            (want.nrows, want.ncols, want.entries), (l1, l2)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
@pytest.mark.parametrize("rows", [
    UNIMODULAR,
    ((1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 1, 0)),
    ((1, 0, 0, 0), (0, 0, 0, 1))])
def test_subspace_window_is_the_proper_series_window(field, rows):
    """A window over coordinate rows of the complete series is the window
    of the proper series those rows span."""
    coords = [[Fraction(c) for c in row] for row in rows]
    assert scene_window(P1Series(3), 0, -1, 3, field, subspace=coords) == \
        scene_window(P1Series(3, coords), 0, -1, 3, field)


# ---- the one point path against plain powers --------------------------------
#
# The oracles below evaluate with Python's own pow on the scene data and
# list candidates by sorting all tuples, so they share nothing with the
# package's evaluator or its enumeration.

POINT_SCENES = ("twisted_cubic", "fermat_quartic", "diagonal_quartic_123",
                "diagonal_ci", "scroll_member_a", "scroll_member_b",
                "conic_monomials")


def _plain_reps(p, n):
    """Points of P^(n-1)(F_p), first nonzero coordinate 1, ascending."""
    return [v for v in itertools.product(range(p), repeat=n)
            if any(v) and next(x for x in v if x) == 1]


def _plain_normalize(values, p):
    values = [x % p for x in values]
    lead = next((x for x in values if x), None)
    if lead is None:
        return None
    inv = pow(lead, -1, p)
    return tuple(x * inv % p for x in values)


def _plain_value(form, params, p):
    """A term list, (exponents, coefficient) pairs, at params mod p."""
    total = 0
    for m, c in form:
        c = Fraction(c)
        term = c.numerator * pow(c.denominator, -1, p)
        for x, e in zip(params, m):
            term *= pow(x, e, p)
        total += term
    return total % p


def _plain_rank(rows, p):
    rows = [[x % p for x in row] for row in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def _plain_enumeration(sc, p):
    """(params, phi, smooth_ok) per image point, and smooth_checked."""
    if sc.kind == "scroll_curve":
        candidates = [st + uv for st in _plain_reps(p, 2)
                      for uv in _plain_reps(p, 2)]
        forms = [tuple(zip(scroll_basis(sc.a, sc.b, sc.d, sc.e),
                           sc.section))]
        series = [((m, 1),) for m in scroll_basis(sc.a, sc.b, 1, 0)]
    elif sc.kind == "complete_intersection":
        candidates = _plain_reps(p, sc.N + 1)
        forms = [tuple(zip(monomial_basis(sc.N + 1, d), coeffs))
                 for d, coeffs in sc.generators]
        series = [((m, 1),) for m in monomial_basis(sc.N + 1, 1)]
    elif sc.kind == "p1_series":
        candidates, forms = _plain_reps(p, 2), []
        rows = sc.basis or [[int(i == j) for j in range(sc.a + 1)]
                            for i in range(sc.a + 1)]
        series = [tuple(zip(monomial_basis(2, sc.a), row)) for row in rows]
    else:
        candidates, forms = _plain_reps(p, sc.source_vars), []
        series = [((m, 1),) for m in sc.monomials]
    records, seen = [], set()
    for params in candidates:
        if any(_plain_value(f, params, p) for f in forms):
            continue
        smooth = None
        if forms:
            jacobian = [[_plain_value(
                [(m[:j] + (m[j] - 1,) + m[j + 1:], c * m[j])
                 for m, c in f if m[j]], params, p)
                for j in range(len(params))] for f in forms]
            smooth = _plain_rank(jacobian, p) == len(forms)
        phi = _plain_normalize([_plain_value(s, params, p) for s in series],
                               p)
        if phi is None:
            raise ZeroEvaluation(f"series vanishes at {params}")
        if sc.kind == "monomial_variety":
            if phi in seen:
                continue
            seen.add(phi)
        records.append((params, phi, smooth))
    return records, bool(forms)


def _enumeration(sc, p):
    en = sc.enumerate_points(p)
    assert en.prime == p and all(r.prime == p for r in en.records)
    return [(r.params, r.phi, r.smooth_ok) for r in en.records], \
        en.smooth_checked


def _nodal_cubic():
    """y^2 z - x^3 - x^2 z, with a node at [0:0:1]."""
    idx = monomial_index(3, 3)
    v = [0] * 10
    v[idx[(0, 2, 1)]], v[idx[(3, 0, 0)]], v[idx[(2, 0, 1)]] = 1, -1, -1
    return CompleteIntersection(2, [(3, v)])


def _double_plane_section():
    """x0 x3 - x1 x2 and x0^2: two lines counted twice, where the
    Jacobian has rank 1 < 2 at every point."""
    idx = monomial_index(4, 2)
    quadric, square = [0] * 10, [0] * 10
    quadric[idx[(1, 0, 0, 1)]], quadric[idx[(0, 1, 1, 0)]] = 1, -1
    square[idx[(2, 0, 0, 0)]] = 1
    return CompleteIntersection(3, [(2, quadric), (2, square)])


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("stem", POINT_SCENES + ("nodal", "double"))
def test_enumeration_matches_plain_powers(stem, p):
    sc = {"nodal": _nodal_cubic, "double": _double_plane_section}.get(
        stem, lambda: load_scene(SCENEDIR / f"{stem}.json"))()
    assert _enumeration(sc, p) == _plain_enumeration(sc, p)


@given(a=st.integers(1, 4), p=st.sampled_from([2, 3, 5, 7]),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_proper_p1_series_enumeration_matches_plain_powers(a, p, data):
    """Random basepoint-free proper bases; a basis that degenerates mod p
    is a BadPrime, and one with a base point mod p a ZeroEvaluation."""
    count = data.draw(st.integers(2, a + 1))
    rows = [data.draw(st.lists(st.integers(-3, 3), min_size=a + 1,
                               max_size=a + 1)) for _ in range(count)]
    assume(rank(matrix(QQ, rows)) == count)
    try:
        sc = P1Series(a, rows)
    except BasepointedSeries:
        assume(False)
    if _plain_rank(rows, p) < count:
        with pytest.raises(BadPrime):
            sc.enumerate_points(p)
        return
    try:
        want = _plain_enumeration(sc, p)
    except ZeroEvaluation:
        with pytest.raises(ZeroEvaluation):
            sc.enumerate_points(p)
        return
    assert _enumeration(sc, p) == want


@given(n=st.integers(2, 3), d=st.integers(1, 2), g=st.integers(2, 3),
       p=st.sampled_from([5, 7]), data=st.data())
@settings(max_examples=40, deadline=None)
def test_non_injective_monomial_map_keeps_first_seen_points(n, d, g, p,
                                                            data):
    """Exponents all divisible by g make the map factor through x -> x^g,
    which is not injective on F_p when g divides p - 1; each image point
    keeps the first candidate that reaches it.  The pure powers keep the
    map free of base points."""
    assume((p - 1) % g == 0)
    pure = [m for m in monomial_basis(n, d) if d in m]
    extra = data.draw(st.lists(st.sampled_from(monomial_basis(n, d)),
                               unique=True))
    monos = data.draw(st.permutations(
        pure + [m for m in extra if m not in pure]))
    sc = MonomialVariety(n, d * g, [tuple(g * e for e in m) for m in monos])
    got = _enumeration(sc, p)
    assert got == _plain_enumeration(sc, p)
    assert len(got[0]) < len(_plain_reps(p, n))


@given(st.integers(1, 3).flatmap(lambda r: st.tuples(st.just(r), st.lists(
    st.tuples(*[st.fractions(-5, 5, max_denominator=7)] * (r + 1)),
    min_size=1, max_size=5))), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_evaluation_matrix_over_qq_is_fraction_powers(shape, k):
    """Over QQ the values at the integer representatives, each divided
    once, are the products of Fraction powers of the normalized points,
    for coordinates with denominators and signs."""
    r, points = shape
    try:
        ps = PointSet(r, points)
    except (ZeroPoint, DuplicatePoints):
        assume(False)
    want = []
    for row in points:
        lead = next(x for x in row if x)
        pt = [Fraction(x) / lead for x in row]
        values = []
        for m in monomial_basis(r + 1, k):
            value = Fraction(1)
            for x, e in zip(pt, m):
                value *= x ** e
            values.append(value)
        want.append(tuple(values))
    m = ps.evaluation_matrix(k, QQ)
    assert m == tuple(want)
    assert all(type(x) is Fraction for row in m for x in row)


@pytest.mark.parametrize("stem", POINT_SCENES)
def test_evaluation_functional_at_points_with_a_zero_coordinate(stem):
    """Every point of {0, 1, 2}^n, zero vector aside, that has a zero
    coordinate, at A and 2A over GF(5), QQ and GF(3) on one scene: the
    values are plain powers of the coordinates, and a point where they
    all vanish is a ZeroEvaluation."""
    sc = load_scene(SCENEDIR / f"{stem}.json")
    a = sc.label_A()
    for field, label in itertools.product((GF(5), QQ, GF(3)),
                                          (a, sc.label_add(a, a))):
        monos = sc.section_space(label, field).monomials
        for params in itertools.product(range(3), repeat=len(monos[0])):
            if all(params) or not any(params):
                continue
            values = [1] * len(monos)
            for j, m in enumerate(monos):
                for x, e in zip(params, m):
                    values[j] *= x ** e
            want = normalize_projective(field, values)
            for _ in range(2):     # the kept evaluator answers alike
                if want is None:
                    with pytest.raises(ZeroEvaluation):
                        sc.evaluation_functional(params, label, field)
                else:
                    assert sc.evaluation_functional(params, label,
                                                    field) == want


PLANTS = ("none", "basis", "zero_entry", "avoiding", "few", "square")


@given(r=st.integers(1, 4), p=st.sampled_from([0, 2, 3, 5, 7, 13]),
       plant=st.sampled_from(PLANTS), data=st.data())
@settings(max_examples=150, deadline=None)
def test_general_position_matches_matrix_ranks(r, p, plant, data):
    """The verdict from the minors of one normal form agrees with the rank
    of every subset of min(r+1, d) points, over QQ (Fraction coordinates)
    and mod p.  Planted: the first r+1 points dependent ("basis"); a later
    point in the span of all but one of them, a zero entry of A
    ("zero_entry"); a later point in the span of r others, later ones
    where there are enough, so only a larger minor of A vanishes
    ("avoiding"); d < r+1 ("few") and d = r+1 ("square")."""
    field = GF(p) if p else QQ
    coords = st.integers(0, p - 1) if p else st.fractions(
        -3, 3, max_denominator=3)
    if plant == "few":
        count = data.draw(st.integers(1, r))
    else:
        count = r + 1 if plant == "square" else data.draw(
            st.integers(r + 2, 9))
    points = data.draw(st.lists(
        st.tuples(*[coords] * (r + 1)).filter(any), min_size=count,
        max_size=count, unique_by=lambda pt: normalize_projective(field, pt)))
    if plant in ("basis", "zero_entry", "avoiding"):
        j = r if plant == "basis" else data.draw(st.integers(r + 1,
                                                             count - 1))
        if plant == "basis":
            span = list(range(r))
        elif plant == "zero_entry":
            zero = data.draw(st.integers(0, r))
            span = [i for i in range(r + 1) if i != zero]
        else:
            later = [i for i in range(r + 1, count) if i != j]
            span = sorted(data.draw(st.permutations(
                later if len(later) >= r else
                [i for i in range(count) if i != j]))[:r])
        cs = [data.draw(st.integers(1, max(p - 1, 1)) if p else coords)
              for _ in span]
        points[j] = tuple(field.normalize(sum(
            c * points[i][t] for c, i in zip(cs, span)))
            for t in range(r + 1))
    try:
        ps = PointSet(r, points)
        pts = ps.reduced_points(field)
    except (ZeroPoint, DuplicatePoints, BadPrime):
        return
    k = min(r + 1, len(pts))
    want = all(rank(matrix(field, sub)) == k
               for sub in itertools.combinations(pts, k))
    if plant in ("basis", "zero_entry", "avoiding"):
        assert not want
    assert ps.in_general_position(field) == want
    if p == 0 and count >= 2 and r >= 1:
        # the same rows as a P^1 series basis of degree r
        try:
            P1Series(r, points)
        except DependentBasis:
            assert rank(matrix(QQ, points)) < count
        except (BasepointedSeries, BadClass, ShapeMismatch):
            pass
        else:
            assert rank(matrix(QQ, points)) == count
