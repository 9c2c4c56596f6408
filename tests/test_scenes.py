"""Scene-level frozen values and invariants.

The heavier frozen numbers (scroll cohomology, CI point counts) were
computed once by independent means: Riemann-Roch chi = deg + 1 - g for
the scroll labels, Koszul alternating sums for complete intersection
Euler characteristics, and direct point counting.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from steinertorelli.errors import (BadClass, BadPrime, BasepointedSeries,
                                   DependentBasis, DuplicatePoints,
                                   SchemaError, ShapeMismatch,
                                   UnsupportedLabel, UnsupportedScene,
                                   ZeroEvaluation, ZeroPoint, ZeroSection)
from steinertorelli.exactfield import GF, QQ, Matrix, rank
from steinertorelli.polyalg import monomial_index
from steinertorelli.scenes import (CompleteIntersection, MonomialVariety,
                                   P1Series, PointSet, ScrollCurve,
                                   load_scene, parse_scalar, save_scene,
                                   scene_from_dict, scroll_basis)


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
        assert m.column(1) == (Fraction(0), Fraction(0), Fraction(1),
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
        assume(rank(Matrix.from_rows(QQ, rows)) == count)
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
                col = m.column(i * len(e2) + j)
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


class TestScrollCurve:
    def test_surface_spaces(self):
        assert scroll_basis(1, 1, 1, 0) == (
            (0, (1, 0)), (0, (0, 1)), (1, (1, 0)), (1, (0, 1)))
        assert len(scroll_basis(2, 1, 2, 1)) == 4 + 5 + 6
        assert scroll_basis(1, 1, -1, 4) == ()

    def test_surface_cohomology(self):
        sc = scroll()
        assert sc.h1_Y((-1, -1)) == 0
        assert sc.h1_Y((-2, 2)) == 1
        assert sc.h1_Y((0, -3)) == 2
        assert sc.h2_Y((-2, -1)) == sc.h0_Y((0, 1))

    def test_genus_and_canonical(self):
        sc = scroll()
        assert sc.genus() == 2
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
        g = sc.genus()
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
                col = m.column(i * len(e2) + j)
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

    def test_evaluation_matrix(self):
        ps = PointSet(1, [(1, 0), (0, 1), (1, 1)])
        m = ps.evaluation_matrix(2, GF(5))
        assert m.entries == ((1, 0, 0), (0, 0, 1), (1, 1, 1))

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

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_scene(path)
