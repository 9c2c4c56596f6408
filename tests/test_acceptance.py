"""The ten contract checks this artifact promises, one test per
numbered criterion, every comparison exact.

Each check runs on the shipped scene catalogue under scenefiles/, so a
green run here certifies the package and its data files together.  The
whole file is budgeted to finish in well under a minute.
"""

import random
import time
from pathlib import Path

from steinertorelli.exactfield import GF, QQ, Matrix, projective_reps, \
    rank_kernel
from steinertorelli.koszul import (duality_check, koszul_differential,
                                   koszul_dim, pointset_ideal_window,
                                   scene_window)
from steinertorelli.scenes import PointSet, load_scene
from steinertorelli.steiner import (recover_section_point, unstable_test,
                                    unstable_test_dual,
                                    validate_presentation, valles_locus)
from steinertorelli.torelli import (dk_check, dk_presentation,
                                    random_point_set, scroll_invariance,
                                    tautological_presentation,
                                    torelli_check, vanishing_check)

from test_exactfield import matrix

SCENEDIR = Path(__file__).resolve().parent.parent / "scenefiles"
PRIMES = (5, 7, 11)


def scene(stem):
    return load_scene(str(SCENEDIR / f"{stem}.json"))


def nu3_image(p):
    """Degree-3 rational normal curve points of P^3(F_p), directly."""
    f = GF(p)
    pts = {(f.normalize(1), f.normalize(t), f.normalize(t * t),
            f.normalize(t ** 3)) for t in range(p)}
    pts.add((0, 0, 0, 1))
    return pts


def test_c01_adjoint_locus_equals_rational_normal_curve_per_prime():
    tc = scene("twisted_cubic")
    assert vanishing_check(tc, 5) is True
    for p in PRIMES:
        start = time.perf_counter()
        pres = tautological_presentation(tc, 5, GF(p))
        rep = valles_locus(pres)
        elapsed = time.perf_counter() - start
        assert rep.scanned == p ** 3 + p ** 2 + p + 1
        assert len(rep.unstable) == p + 1
        assert rep.unstable_set() == nu3_image(p)
        assert elapsed < 1.0


def test_c02_every_unstable_plane_recovers_the_quintic_evaluation():
    tc = scene("twisted_cubic")
    for p in PRIMES:
        field = GF(p)
        pres = tautological_presentation(tc, 5, field)
        rep = valles_locus(pres)
        assert len(rep.unstable) == p + 1
        for lam, coker in rep.unstable:
            assert coker == 1
            params = (1, lam[1]) if lam[0] != 0 else (0, 1)
            expected = tc.evaluation_functional(params, 5, field)
            assert recover_section_point(pres, lam) == expected


def test_c03_distinct_smooth_quartics_share_mu_and_destabilize_all():
    first = scene("fermat_quartic")
    second = scene("diagonal_quartic_123")
    assert first.generators != second.generators
    f7 = GF(7)
    presentations = []
    for quartic in (first, second):
        en = quartic.enumerate_points(7)
        assert en.all_smooth
        presentations.append(tautological_presentation(quartic, 3, f7))
    px, py = presentations
    assert px.tensor.entries == py.tensor.entries
    assert (px.dim_u1, px.dim_v, px.dim_u0) == \
        (py.dim_u1, py.dim_v, py.dim_u0)
    rep = valles_locus(px)
    assert rep.scanned == 57
    assert len(rep.unstable) == 57


def test_c04_adjoint_twice_recovers_curve_despite_failed_vanishing():
    tc = scene("twisted_cubic")
    assert vanishing_check(tc, 4) is False
    rep = torelli_check(tc, 4, primes=PRIMES)
    assert rep.consensus == "EQUAL"
    for p, res in zip(PRIMES, rep.results):
        assert res.verdict == "EQUAL"
        assert res.unstable_count == res.image_count == p + 1
        assert res.extra == () and res.missing == ()


def test_c05_quadric_intersection_locus_and_linear_syzygies():
    ci = scene("diagonal_ci")
    en = ci.enumerate_points(5)
    assert en.all_smooth
    assert len(en.records) == 16
    start = time.perf_counter()
    rep = torelli_check(ci, 2, primes=(5,))
    elapsed = time.perf_counter() - start
    res = rep.results[0]
    assert res.verdict == "EQUAL"
    assert res.scanned == 781
    assert res.unstable_count == res.image_count == 16
    assert elapsed < 5.0
    window = scene_window(ci, 0, 0, 2, QQ)
    assert koszul_dim(window, 2, 1).dim == 0


def test_c06_scroll_members_share_mu_and_both_lie_in_the_locus():
    member_a = scene("scroll_member_a")
    member_b = scene("scroll_member_b")
    assert scroll_invariance(member_a, member_b, n=1) is True
    b_label = member_a.label_add(member_a.canonical_label(),
                                 member_a.label_A())
    pres = tautological_presentation(member_a, b_label, GF(5))
    locus = valles_locus(pres).unstable_set()
    union = member_a.enumerate_points(5).phi_set() | \
        member_b.enumerate_points(5).phi_set()
    assert union <= locus


def test_c07_duality_grid_matches_wherever_hypotheses_hold():
    tc = scene("twisted_cubic")
    checked = 0
    for p in range(4):
        for q in range(3):
            rep = duality_check(tc, 0, p, q, QQ)
            if rep.hypotheses_ok:
                assert rep.lhs_dim == rep.rhs_dim
                assert rep.match
                checked += 1
    assert checked == 12


def test_c08_point_bundles_detect_rational_normal_curves():
    # (a) a certified free 7-point configuration; certification over F_7
    # is impossible (every 7-point general-position set there meets a
    # rational normal cubic), so the seeded draw runs over F_11
    free, used = random_point_set(7, 11, seed=0)
    assert used == 1
    window = pointset_ideal_window(free, 1, 3, GF(11))
    assert koszul_dim(window, 1, 2).dim == 0
    rep = dk_check(free, primes=(11,))
    assert rep.consensus == "EQUAL"
    assert rep.results[0].implication_ok

    # (b) seven points on the twisted cubic over F_7
    on_cubic = scene("seven_on_twisted_cubic")
    window = pointset_ideal_window(on_cubic, 1, 3, GF(7))
    assert koszul_dim(window, 1, 2).dim == 2
    rep = dk_check(on_cubic, primes=(7,))
    res = rep.results[0]
    assert res.verdict == "SUPERSET"
    assert res.rnc_flag and res.implication_ok
    assert len(res.extra) > 0
    for x0, x1, x2, x3 in res.extra:
        assert (x0 * x2 - x1 * x1) % 7 == 0
        assert (x0 * x3 - x1 * x2) % 7 == 0
        assert (x1 * x3 - x2 * x2) % 7 == 0

    # (c) six general points lie on a unique rational normal cubic
    six = scene("six_general_points")
    rep = dk_check(six, primes=(7,))
    assert rep.results[0].rnc_flag is True
    assert rep.results[0].implication_ok


def test_c09_koszul_calculus_properties():
    # differentials compose to zero on 50 seeded random ideal windows
    rng = random.Random(90210)
    composed = 0
    while composed < 50:
        r = rng.choice((2, 3))
        prime = rng.choice(PRIMES)
        count = rng.randint(r + 2, r + 4)
        reps = list(projective_reps(prime, r + 1))
        pts = PointSet(r, rng.sample(reps, count))
        window = pointset_ideal_window(pts, 0, 3, GF(prime))
        p = rng.randint(1, 3)
        q = rng.randint(1, 2)
        inner = koszul_differential(window, p + 1, q - 1)
        outer = koszul_differential(window, p, q)
        assert outer.mul(inner).is_zero()
        composed += 1
    assert composed == 50

    # weight-zero groups vanish on every catalogue scene
    for stem in ("twisted_cubic", "fermat_quartic", "diagonal_quartic_123",
                 "diagonal_ci", "scroll_member_a", "scroll_member_b",
                 "conic_monomials"):
        sc = scene(stem)
        zero = sc.label_scale(sc.label_A(), 0)
        window = scene_window(sc, zero, -1, 1, QQ)
        for p in range(1, window.dim_u + 1):
            assert koszul_dim(window, p, 0).dim == 0

    # restriction to a hyperplane only destroys syzygies, never invents
    # them: K_{p,0}(W) = 0 and K_{p,1}(W) != 0 force K_{p,1}(V) != 0
    tc = scene("twisted_cubic")
    f5 = GF(5)
    full = scene_window(tc, 0, -1, 3, f5)
    base = {p: koszul_dim(full, p, 1).dim for p in (1, 2)}
    assert base == {1: 3, 2: 2}
    observed = 0
    for lam in projective_reps(5, 4):
        ker = rank_kernel(Matrix(f5, 1, 4, (tuple(lam),))).kernel
        window = scene_window(tc, 0, -1, 3, f5, subspace=ker)
        for p in (1, 2):
            if koszul_dim(window, p, 0).dim == 0 and \
                    koszul_dim(window, p, 1).dim != 0:
                observed += 1
                assert base[p] != 0
    assert observed > 0

    # dimensions are basis independent: 20 seeded changes of U-basis
    changes = 0
    while changes < 20:
        rows = [tuple(rng.randrange(5) for _ in range(4))
                for _ in range(4)]
        if rank_kernel(matrix(f5, rows)).rank != 4:
            continue
        window = scene_window(tc, 0, -1, 3, f5, subspace=rows)
        for (p, q), expect in [((1, 1), 3), ((2, 1), 2), ((1, 2), 0),
                               ((3, 1), 0)]:
            assert koszul_dim(window, p, q).dim == expect
        changes += 1
    assert changes == 20


def test_c10_presentations_validate_and_criteria_agree():
    # every catalogue presentation is a genuine Steiner datum over F_5
    tc = scene("twisted_cubic")
    taut = [(tc, 5), (tc, 4),
            (scene("fermat_quartic"), 3),
            (scene("diagonal_quartic_123"), 3),
            (scene("diagonal_ci"), 2),
            (scene("scroll_member_a"), (1, 1)),
            (scene("scroll_member_b"), (1, 1))]
    for sc, b_label in taut:
        pres = tautological_presentation(sc, b_label, GF(5))
        assert validate_presentation(pres).valid
    six_on_cubic = PointSet(3, [(1, t, t * t, t ** 3) for t in range(5)]
                            + [(0, 0, 0, 1)])
    for pts in (scene("six_general_points"), six_on_cubic):
        pres = dk_presentation(pts, GF(5))
        assert validate_presentation(pres).valid

    # the primal and dual instability tests agree on a full scan
    pres5 = tautological_presentation(tc, 5, GF(5))
    scanned = 0
    for lam in projective_reps(5, 4):
        primal, coker = unstable_test(pres5, lam)
        dual, psi = unstable_test_dual(pres5, lam)
        assert primal == dual
        assert (psi is not None) == primal
        scanned += 1
    assert scanned == 156

    # instability is syzygy growth: unstable(lam) iff K_{0,2} of the
    # canonical module restricted to ker(lam) is nonzero, and the
    # cokernel dimension equals that Koszul dimension
    f5 = GF(5)
    pres4 = tautological_presentation(tc, 4, f5)
    canonical = tc.canonical_label()
    for lam in projective_reps(5, 4):
        ker = rank_kernel(Matrix(f5, 1, 4, (tuple(lam),))).kernel
        window = scene_window(tc, canonical, 1, 3, f5, subspace=ker)
        k02 = koszul_dim(window, 0, 2).dim
        flagged, coker = unstable_test(pres4, lam)
        assert flagged == (k02 != 0)
        assert coker == k02
