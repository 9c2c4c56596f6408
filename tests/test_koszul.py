"""Syzygy window tests.

The frozen dimensions are classical: the twisted cubic has three quadric
generators and two linear syzygies among them, a (2,2,2) complete
intersection curve in P^4 lies on no variety of minimal degree, and six
general points of P^3 sit on a unique twisted cubic while seven general
points do not.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from steinertorelli.exactfield import GF, QQ, Matrix, rank, rank_kernel
from steinertorelli.koszul import (GradedModuleWindow, WindowTooSmall,
                                   duality_check, exterior_dim, green_kp1,
                                   green_points_test,
                                   koszul_differential, koszul_dim,
                                   pointset_ideal_window, scene_window)
from steinertorelli import koszul, scenes
from steinertorelli.errors import NotGeneralPosition, UnsupportedScene
from steinertorelli.polyalg import (action_columns, negated_columns,
                                    restrict_right)
from steinertorelli.scenes import (MonomialVariety, P1Series, PointSet,
                                   ScrollCurve)
from test_exactfield import matrix
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


def reference_differential(window, p, q):
    """Rows of Lambda^p U (x) M_q -> Lambda^(p-1) U (x) M_(q+1) straight
    from d(e_T (x) m) = sum_j (-1)^j e_(T - i_j) (x) u_(i_j) m, with
    exterior blocks in lexicographic order of their index tuples."""
    fld = window.field
    dm_in, dm_out = window.dim(q), window.dim(q + 1)
    n = window.dim_u
    sources = list(itertools.combinations(range(n), p))
    targets = list(itertools.combinations(range(n), p - 1)) if p else []
    rows = [[fld.zero] * (len(sources) * dm_in)
            for _ in range(len(targets) * dm_out)]
    for col_block, tup in enumerate(sources):
        for j, i in enumerate(tup):
            row_block = targets.index(tup[:j] + tup[j + 1:])
            for t in range(dm_in):
                # the nonzero coordinates of u_i m_t in the basis of M_(q+1)
                for w, x in window.mult(q)[i * dm_in + t]:
                    rows[row_block * dm_out + w][col_block * dm_in + t] += \
                        (-1) ** j * x
    return tuple(tuple(fld.normalize(x) for x in row) for row in rows)


def assert_differentials_match_reference(window):
    for q in range(window.lo, window.hi):
        for p in range(window.dim_u + 2):
            got = koszul_differential(window, p, q)
            want = reference_differential(window, p, q)
            assert (got.nrows, got.ncols) == (
                exterior_dim(window.dim_u, p - 1) * window.dim(q + 1),
                exterior_dim(window.dim_u, p) * window.dim(q))
            assert got.entries == want


FIELDS = st.sampled_from([QQ, GF(5), GF(7), GF(101)])


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5), st.integers(-1, 1), FIELDS)
def test_differential_matches_reference_on_series(d, lo, field):
    assert_differentials_match_reference(
        scene_window(P1Series(d), 0, lo, lo + 2, field))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_differential_matches_reference_on_subspaces(d, seed):
    rng = random.Random(seed)
    count = rng.randint(1, d + 1)
    sub = [tuple(rng.randrange(5) for _ in range(d + 1))
           for _ in range(count)]
    assert_differentials_match_reference(
        scene_window(P1Series(d), 0, -1, 2, GF(5), subspace=sub))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                min_size=1, max_size=6, unique=True),
       st.integers(-1, 1))
def test_differential_matches_reference_on_ideals(tails, lo):
    pts = PointSet(2, [(1, a, b) for a, b in tails])
    assert_differentials_match_reference(
        pointset_ideal_window(pts, lo, lo + 3, GF(7)))


# ---- block ranks against the dense reference ---------------------------------


def reference_rank(window, p, q):
    rows = reference_differential(window, p, q)
    ncols = exterior_dim(window.dim_u, p) * window.dim(q)
    return rank(Matrix(window.field, len(rows), ncols, rows))


def assert_ranks_match_reference(window):
    # p = 0 and p > dim U included: those differentials have no rows or
    # no columns
    for q in range(window.lo + 1, window.hi):
        for p in range(window.dim_u + 2):
            group = koszul_dim(window, p, q)
            assert group.rank_out == reference_rank(window, p, q), (p, q)
            assert group.rank_in == reference_rank(window, p + 1, q - 1), \
                (p, q)


RANK_FIELDS = st.sampled_from([QQ, GF(2), GF(3), GF(101)])


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(-1, 1), RANK_FIELDS)
def test_block_ranks_match_reference_on_series(d, lo, field):
    assert_ranks_match_reference(
        scene_window(P1Series(d), 0, lo, lo + 3, field))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1), RANK_FIELDS)
def test_block_ranks_match_reference_on_subspaces(d, seed, field):
    # a seeded change of basis of the series mixes every weight, so the
    # differentials no longer split into blocks
    rng = random.Random(seed)
    sub = [tuple(field.normalize(rng.randrange(-3, 4)) for _ in range(d + 1))
           for _ in range(rng.randint(1, d + 1))]
    assert_ranks_match_reference(
        scene_window(P1Series(d), 0, -1, 2, field, subspace=sub))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                min_size=1, max_size=6, unique=True),
       st.integers(-1, 1), st.sampled_from([QQ, GF(7)]))
def test_block_ranks_match_reference_on_ideals(tails, lo, field):
    pts = PointSet(2, [(1, a, b) for a, b in tails])
    assert_ranks_match_reference(
        pointset_ideal_window(pts, lo, lo + 3, field))


@st.composite
def sparse_windows(draw):
    """Windows with arbitrary action tables: empty pieces, empty (all-zero)
    action columns and, over QQ, entries that are not integers.  A column
    keeps only the nonzero entries, in row order, as a window's tables
    do."""
    field = draw(RANK_FIELDS)
    dim_u = draw(st.integers(0, 4))
    dims = tuple(draw(st.lists(st.integers(0, 3), min_size=3, max_size=4)))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2])
    den = st.integers(1, 3) if field == QQ else st.just(1)
    mults = tuple(
        tuple(tuple((w, x) for w in range(dims[k + 1])
                    if (x := field.normalize(Fraction(draw(entry),
                                                      draw(den)))))
              if draw(st.booleans()) else ()
              for _ in range(dim_u * dims[k]))
        for k in range(len(dims) - 1))
    lo = draw(st.integers(-1, 1))
    return GradedModuleWindow(field, dim_u, lo, lo + len(dims) - 1, dims,
                              mults)


@settings(max_examples=60, deadline=None)
@given(sparse_windows())
def test_block_ranks_match_reference_on_sparse_windows(window):
    assert_ranks_match_reference(window)


@pytest.mark.parametrize("field", [QQ, GF(101)])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_eagon_northcott_grid(d, field):
    # the rational normal curve of degree d has a linear resolution:
    # K_{p,1} = p C(d, p+1), K_{0,0} = 1, and every other group is 0
    for q in range(3):
        window = scene_window(P1Series(d), 0, q - 1, q + 1, field)
        for p in range(d + 1):
            want = p * math.comb(d, p + 1) if q == 1 else int(p == q == 0)
            assert koszul_dim(window, p, q).dim == want, (p, q)


# ---- action tables kept per scene, label and field ---------------------------


# the complete conic series in the basis s^2, st, 3s^2 - t^2: its action
# tables have entries 3 and -1, which read 1, 1 over GF(2) and 3, 100
# over GF(101)
CONIC_BASIS = [(1, 0, 0), (0, 1, 0), (3, 0, -1)]


def test_action_tables_are_kept_per_field():
    scene = P1Series(2, basis=CONIC_BASIS)
    seen = {}
    for field in (QQ, GF(2), GF(101), QQ):
        window = scene_window(scene, 0, 0, 2, field)
        fresh = scene_window(P1Series(2, basis=CONIC_BASIS), 0, 0, 2, field)
        assert window.field == field
        assert window.mults == fresh.mults
        if field in seen:
            # asked again: the tables derived the first time
            assert all(a is b for a, b in zip(window.mults, seen[field]))
        seen[field] = window.mults
    assert len({seen[f] for f in seen}) == 3
    assert {x for table in seen[GF(2)] for col in table
            for _, x in col} == {1}


@pytest.mark.parametrize("full_first", [True, False])
def test_subspace_window_never_reads_the_series_table(full_first):
    # the doubled first coordinate gives a subspace of full dimension
    # whose tables differ from the series' tables only by value
    doubled = [tuple(QQ.normalize(2 if j == i == 0 else int(j == i))
                     for j in range(4)) for i in range(4)]
    scene = P1Series(3)
    order = [None, doubled] if full_first else [doubled, None]
    windows = [scene_window(scene, 0, -1, 2, QQ, subspace=sub)
               for sub in order]
    plain, boxed = windows if full_first else windows[::-1]
    for k in range(-1, 2):
        # M_k = H0(O(3k))
        table = scene.multiplication_map(3 * k, 3, QQ)
        assert plain.mult(k) == action_columns(table, 4)
        assert boxed.mult(k) == action_columns(
            restrict_right(table, doubled), 4)
    assert plain.mult(1) != boxed.mult(1)


def test_negated_tables_are_kept_per_scene_and_window(monkeypatch):
    """A scene keeps each table's negation next to the table; a window
    that builds its own tables negates each at most once, and only when a
    differential with p >= 2 reads it."""
    calls = []

    def counting(columns, field):
        calls.append(field)
        return negated_columns(columns, field)

    monkeypatch.setattr(koszul, "negated_columns", counting)
    monkeypatch.setattr(scenes, "negated_columns", counting)
    scene = P1Series(2, basis=CONIC_BASIS)
    for field in (QQ, GF(101)):
        window = scene_window(scene, 0, 0, 2, field)
        for k in (0, 1):
            assert window.negated(k) == tuple(
                tuple((w, field.normalize(-x)) for w, x in col)
                for col in window.mult(k))
        again = scene_window(scene, 0, 0, 2, field)
        assert all(a is b for a, b in zip(again.negs, window.negs))
    assert calls == [QQ, QQ, GF(101), GF(101)]
    calls.clear()
    sub = [tuple(QQ.one if j == i else QQ.zero for j in range(3))
           for i in range(2)]
    window = scene_window(P1Series(2), 0, 0, 2, QQ, subspace=sub)
    assert window.negs is None
    koszul_dim(window, 0, 1)
    assert not calls
    # K_{1,1} reads Lambda^2 U (x) M_0 -> U (x) M_1
    for _ in range(2):
        koszul_dim(window, 1, 1)
    assert window.negated(0) is window.negated(0)
    assert calls == [QQ]


def test_no_rank_is_kept_between_calls(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return eliminate(*args, **kwargs)

    eliminate = koszul.eliminate
    monkeypatch.setattr(koszul, "eliminate", counting)
    window = scene_window(P1Series(4), 0, 0, 2, QQ)
    first = koszul_dim(window, 2, 1)
    once = len(calls)
    assert once > 0
    assert koszul_dim(window, 2, 1) == first
    assert len(calls) == 2 * once
    assert calls[once:] == calls[:once]


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
    assume(rank_kernel(matrix(f5, rows)).rank == 4)
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
    # neither an ambient monomial model nor a point set has the section
    # ring and cohomology the dual side needs
    mono = MonomialVariety(2, 2, [(2, 0), (1, 1), (0, 2)])
    for scene in (mono, CUBIC_POINTS):
        with pytest.raises(UnsupportedScene):
            duality_check(scene, 1, 1, 1, QQ)


# ---- minimal-degree verdicts -------------------------------------------------


def test_minimal_degree_verdict_twisted_cubic():
    rep = green_kp1(TC, QQ)
    assert (rep.p, rep.dim, rep.degree) == (1, 3, 3)
    assert not rep.degree_bound_ok
    assert rep.verdict == "minimal-degree variety detected"


def test_minimal_degree_group_of_the_octic_over_qq():
    # Eagon-Northcott: K_{6,1} of the degree-8 rational normal curve has
    # dimension 6 C(8, 7) = 48, the difference of two ranks of Koszul
    # differentials over QQ
    assert green_kp1(P1Series(8), QQ).dim == 48


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
    with pytest.raises(UnsupportedScene):
        green_kp1(CUBIC_POINTS, QQ)


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
