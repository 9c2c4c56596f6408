"""Syzygy window tests.

The frozen dimensions are classical: the twisted cubic has three quadric
generators and two linear syzygies among them, a (2,2,2) complete
intersection curve in P^4 lies on no variety of minimal degree, and six
general points of P^3 sit on a unique twisted cubic while seven general
points do not.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from steinertorelli.exactfield import GF, QQ, Matrix, rank_kernel
from steinertorelli.koszul import (BadTuple, WindowTooSmall, duality_check,
                                   exterior_dim, exterior_rank,
                                   exterior_tuples,
                                   green_kp1, green_points_test,
                                   koszul_differential, koszul_dim,
                                   pointset_ideal_window, scene_window)
from steinertorelli.errors import NotGeneralPosition, UnsupportedScene
from steinertorelli.scenes import (MonomialVariety, P1Series, PointSet,
                                   ScrollCurve)
from test_scenes import SCROLL_F1, diagonal_ci

TC = P1Series(3)

# seven points of the standard twisted cubic in P^3, including the image
# of [0:1]
CUBIC_POINTS = PointSet(3, [(1, t, t * t, t ** 3) for t in range(6)]
                        + [(0, 0, 0, 1)])

# random_point_set(7, 11, seed=0) certifies at seed 1: general position
# over F_11, off every rational normal cubic
GENERAL_SEVEN = PointSet(3, [(1, 1, 1, 10), (1, 8, 5, 9), (0, 1, 10, 7),
                             (1, 3, 2, 4), (1, 0, 9, 9), (1, 7, 3, 1),
                             (1, 6, 5, 6)])


# ---- exterior algebra bookkeeping -------------------------------------------


def test_exterior_dim_is_binomial():
    for n in range(7):
        for p in range(-1, n + 2):
            expect = math.comb(n, p) if 0 <= p <= n else 0
            assert exterior_dim(n, p) == expect


def test_exterior_rank_unrank_bijection():
    for n in range(1, 7):
        for p in range(n + 1):
            tups = list(exterior_tuples(n, p))
            assert len(tups) == exterior_dim(n, p)
            for code, tup in enumerate(tups):
                assert exterior_rank(n, tup) == code


def test_exterior_rank_rejects_malformed():
    for bad in [(0, 0), (1, 0), (-1, 2), (0, 4), (0, True)]:
        with pytest.raises(BadTuple):
            exterior_rank(4, bad)


# ---- windows -----------------------------------------------------------------


def test_twisted_cubic_window_dims():
    w = scene_window(TC, 0, -1, 3, QQ)
    assert w.dims == (0, 1, 4, 7, 10)
    assert w.dim_u == 4
    with pytest.raises(WindowTooSmall):
        w.dim(4)
    with pytest.raises(WindowTooSmall):
        w.mult(3)


def test_degenerate_window_rejected():
    with pytest.raises(WindowTooSmall):
        scene_window(TC, 0, 2, 2, QQ)


def test_out_of_window_group_raises():
    w = scene_window(TC, 0, -1, 3, QQ)
    with pytest.raises(WindowTooSmall):
        koszul_dim(w, 1, 3)


def test_pointset_window_dims():
    w = pointset_ideal_window(CUBIC_POINTS, 0, 4, GF(7))
    assert w.dims == (0, 0, 3, 13, 28)


# ---- group dimensions --------------------------------------------------------


def test_weight_zero_groups_vanish():
    # the section module of a nondegenerate curve has no syzygies in
    # weight zero
    w = scene_window(TC, 0, -1, 3, QQ)
    for p in (1, 2, 3):
        assert koszul_dim(w, p, 0).dim == 0


def test_twisted_cubic_quadric_syzygies():
    w = scene_window(TC, 0, -1, 3, QQ)
    g = koszul_dim(w, 1, 1)
    # three quadric generators: 10 quadrics on P^3 minus 7 sections of
    # degree 6 on the curve
    assert (g.dim, g.middle, g.rank_out, g.rank_in) == (3, 16, 7, 6)
    assert koszul_dim(w, 0, 1).dim == 0


def test_twisted_cubic_linear_syzygies():
    # the 3 quadrics fit in a 2-step linear resolution
    w = scene_window(TC, 0, -1, 3, QQ)
    assert koszul_dim(w, 2, 1).dim == 2


def test_group_json_key_order():
    w = scene_window(TC, 0, -1, 3, QQ)
    d = koszul_dim(w, 1, 1).to_json_dict()
    assert list(d) == ["p", "q", "dim", "rank_in", "rank_out", "middle"]


# ---- the differential --------------------------------------------------------


def test_differential_squares_to_zero_on_scene_windows():
    windows = [scene_window(TC, 0, -1, 3, QQ),
               scene_window(diagonal_ci(), 0, 0, 2, GF(5)),
               scene_window(ScrollCurve(1, 1, 2, 1, SCROLL_F1),
                            (0, 0), 0, 2, GF(5))]
    for w in windows:
        for q in range(w.lo + 1, w.hi):
            for p in (1, 2, 3):
                inner = koszul_differential(w, p + 1, q - 1)
                outer = koszul_differential(w, p, q)
                assert outer.mul(inner).is_zero()


def test_differential_squares_to_zero_on_pointset_windows():
    for pts, field in [(CUBIC_POINTS, GF(7)), (GENERAL_SEVEN, GF(11))]:
        w = pointset_ideal_window(pts, 0, 4, field)
        for p, q in [(1, 1), (2, 1), (1, 2), (2, 2), (1, 3)]:
            inner = koszul_differential(w, p + 1, q - 1)
            outer = koszul_differential(w, p, q)
            assert outer.mul(inner).is_zero()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                min_size=4, max_size=6, unique=True))
def test_differential_squares_to_zero_on_random_ideals(tails):
    pts = PointSet(2, [(1, a, b) for a, b in tails])
    w = pointset_ideal_window(pts, 0, 4, GF(7))
    for p, q in [(1, 2), (2, 2), (1, 3)]:
        inner = koszul_differential(w, p + 1, q - 1)
        outer = koszul_differential(w, p, q)
        assert outer.mul(inner).is_zero()


# ---- restriction to subspaces of the series ---------------------------------


def test_coordinate_subspace_window():
    sub = [tuple(QQ.one if j == i else QQ.zero for j in range(4))
           for i in range(3)]
    w = scene_window(TC, 0, -1, 3, QQ, subspace=sub)
    assert w.dim_u == 3
    assert koszul_dim(w, 1, 0).dim == 0
    assert koszul_dim(w, 1, 1).dim == 3
    assert koszul_dim(w, 2, 1).dim == 1


def test_full_subspace_matches_plain_window():
    sub = [tuple(QQ.one if j == i else QQ.zero for j in range(4))
           for i in range(4)]
    plain = scene_window(TC, 0, -1, 3, QQ)
    boxed = scene_window(TC, 0, -1, 3, QQ, subspace=sub)
    for p, q in [(1, 1), (2, 1), (1, 0)]:
        assert koszul_dim(boxed, p, q) == koszul_dim(plain, p, q)


def test_subspace_length_mismatch_rejected():
    with pytest.raises(UnsupportedScene):
        scene_window(TC, 0, -1, 3, QQ, subspace=[(QQ.one, QQ.zero)])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=4, max_size=4))
def test_nonvanishing_descends_from_hyperplanes(lam):
    # restricting the series to a hyperplane can only shrink the weight-one
    # groups; a nonzero group on the hyperplane certifies the full one
    assume(any(lam))
    lam_q = [QQ.normalize(x) for x in lam]
    c0 = next(i for i, x in enumerate(lam) if x)
    sub = []
    for j in range(4):
        if j == c0:
            continue
        vec = [QQ.zero] * 4
        vec[j] = lam_q[c0]
        vec[c0] = -lam_q[j]
        sub.append(tuple(vec))
    w = scene_window(TC, 0, -1, 3, QQ, subspace=sub)
    if koszul_dim(w, 1, 0).dim == 0 and koszul_dim(w, 1, 1).dim != 0:
        full = scene_window(TC, 0, -1, 3, QQ)
        assert koszul_dim(full, 1, 1).dim != 0


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=16, max_size=16))
def test_dims_invariant_under_basis_change(entries):
    f5 = GF(5)
    rows = [tuple(f5.normalize(x) for x in entries[4 * i:4 * i + 4])
            for i in range(4)]
    assume(rank_kernel(Matrix.from_rows(f5, rows)).rank == 4)
    w = scene_window(TC, 0, -1, 3, f5, subspace=rows)
    assert koszul_dim(w, 1, 1).dim == 3
    assert koszul_dim(w, 2, 1).dim == 2


# ---- duality -----------------------------------------------------------------


def test_duality_twisted_cubic():
    rep = duality_check(TC, 0, 1, 1, QQ)
    assert (rep.lhs_dim, rep.rhs_dim) == (3, 3)
    assert (rep.rhs_p, rep.rhs_q) == (1, 1)
    assert rep.hypotheses_ok and rep.match

    rep = duality_check(TC, 0, 2, 1, QQ)
    assert (rep.lhs_dim, rep.rhs_dim, rep.rhs_p, rep.rhs_q) == (2, 2, 0, 1)

    rep = duality_check(TC, 0, 0, 1, QQ)
    assert (rep.lhs_dim, rep.rhs_dim, rep.rhs_p, rep.rhs_q) == (0, 0, 2, 1)


def test_duality_complete_intersection():
    ci = diagonal_ci()
    for (p, q), expect in [((1, 1), (3, 3, 2, 1)),
                           ((2, 1), (0, 0, 1, 1)),
                           ((3, 1), (0, 0, 0, 1))]:
        rep = duality_check(ci, 0, p, q, GF(5))
        assert (rep.lhs_dim, rep.rhs_dim, rep.rhs_p, rep.rhs_q) == expect
        assert rep.hypotheses_ok and rep.match


def test_duality_scroll_member():
    sc = ScrollCurve(1, 1, 2, 1, SCROLL_F1)
    assert sc.canonical_label() == (0, 1)
    rep = duality_check(sc, (0, 0), 1, 1, GF(5))
    assert (rep.lhs_dim, rep.rhs_dim, rep.rhs_p, rep.rhs_q) == (1, 1, 1, 1)
    assert rep.match


def test_duality_json_key_order():
    d = duality_check(TC, 0, 1, 1, QQ).to_json_dict()
    assert list(d) == ["p", "q", "lhs_dim", "rhs_p", "rhs_q", "rhs_dim",
                       "hypotheses_ok", "match"]


def test_duality_rejects_ambient_models():
    mono = MonomialVariety(2, 2, [(2, 0), (1, 1), (0, 2)])
    with pytest.raises(UnsupportedScene):
        duality_check(mono, 1, 1, 1, QQ)


# ---- minimal-degree verdicts -------------------------------------------------


def test_minimal_degree_verdict_twisted_cubic():
    rep = green_kp1(TC, QQ)
    assert (rep.p, rep.dim, rep.degree) == (1, 3, 3)
    assert not rep.degree_bound_ok
    assert rep.verdict == "minimal-degree variety detected"


def test_minimal_degree_verdict_complete_intersection():
    rep = green_kp1(diagonal_ci(), GF(5))
    assert (rep.p, rep.dim, rep.degree) == (2, 0, 8)
    assert rep.degree_bound_ok
    assert rep.verdict == "no minimal-degree variety detected"


def test_minimal_degree_verdict_scroll_member():
    # the member sits on the quadric scroll itself
    rep = green_kp1(ScrollCurve(1, 1, 2, 1, SCROLL_F1), GF(5))
    assert (rep.p, rep.dim, rep.degree) == (1, 1, 5)
    assert rep.degree_bound_ok
    assert rep.verdict == "minimal-degree variety detected"


def test_minimal_degree_verdict_needs_complete_series():
    sub = P1Series(4, basis=[(1, 0, 0, 0, 0), (0, 1, 0, 0, 0),
                             (0, 0, 1, 0, 0), (0, 0, 0, 0, 1)])
    with pytest.raises(UnsupportedScene):
        green_kp1(sub, QQ)
    with pytest.raises(UnsupportedScene):
        green_kp1(MonomialVariety(2, 2, [(2, 0), (1, 1), (0, 2)]), QQ)


def test_green_json_key_order():
    d = green_kp1(TC, QQ).to_json_dict()
    assert list(d) == ["p", "dim", "degree", "degree_bound_ok", "verdict"]


# ---- point sets and rational normal curves -----------------------------------


def test_seven_points_on_cubic_detected():
    rep = green_points_test(CUBIC_POINTS, GF(7))
    assert rep.on_rnc
    assert (rep.count, rep.r, rep.dim) == (7, 3, 2)
    assert rep.ideal_dims == (0, 3, 13)


def test_six_general_points_always_on_cubic():
    # a unique rational normal cubic passes through any six points of P^3
    # in general position
    pts = PointSet(3, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                       (0, 0, 0, 1), (1, 1, 1, 1), (1, 2, 3, 4)])
    rep = green_points_test(pts, GF(7))
    assert rep.on_rnc
    assert rep.ideal_dims[1] == 4


def test_seven_general_points_escape_every_cubic():
    rep = green_points_test(GENERAL_SEVEN, GF(11))
    assert not rep.on_rnc
    assert rep.dim == 0
    assert rep.ideal_dims == (0, 3, 13)


def test_point_verdict_requires_general_position():
    few = PointSet(3, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    with pytest.raises(NotGeneralPosition):
        green_points_test(few, GF(7))
    coplanar = PointSet(3, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                            (1, 1, 1, 0), (0, 0, 0, 1)])
    with pytest.raises(NotGeneralPosition):
        green_points_test(coplanar, GF(7))


def test_points_json_key_order():
    d = green_points_test(CUBIC_POINTS, GF(7)).to_json_dict()
    assert list(d) == ["count", "r", "dim", "on_rnc", "ideal_dims"]
