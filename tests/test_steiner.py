"""Presentation validity, instability, recovery, and Valles scans.

Frozen counts come from independent geometry: curve point enumerations
for the loci expected to equal the image, the Segre quadric equation for
the scroll locus, and hand dimension counts for the rest.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinertorelli.cli import resolve_label
from steinertorelli.errors import (NonUniqueQuotient, ShapeMismatch,
                                   ZeroPoint)
from steinertorelli.exactfield import (GF, QQ, Matrix, projective_count,
                                       projective_reps, rank, rank_kernel)
from steinertorelli.scenes import P1Series, PointSet, load_scene
from steinertorelli.steiner import (ValidationReport, VallesReport,
                                    make_presentation,
                                    recover_section_point, unstable_test,
                                    unstable_test_dual,
                                    validate_presentation, valles_locus)
from steinertorelli.torelli import dk_presentation, tautological_presentation

from test_scenes import SCROLL_F1, SCROLL_F2, diagonal_ci, fermat_quartic, \
    scroll


def tc_presentation(p=5, b_twist=5):
    """Twisted cubic with U1 = H0(O(b-3)), V = H0(O(3)), U0 = H0(O(b))."""
    tc = P1Series(3)
    f = GF(p)
    t = tc.multiplication_map(b_twist - 3, 3, f)
    return make_presentation(t, b_twist - 2, 4, b_twist + 1)


def random_tensor(field, a, m, b, seed):
    import random
    rng = random.Random(seed)
    if field.characteristic:
        draw = lambda: rng.randrange(field.characteristic)  # noqa: E731
    else:
        draw = lambda: rng.randrange(-4, 5)                 # noqa: E731
    rows = tuple(tuple(draw() for _ in range(a * m)) for _ in range(b))
    return make_presentation(Matrix(field, b, a * m, rows), a, m, b)


class TestPresentations:
    def test_make_and_rank(self):
        P = tc_presentation()
        assert (P.dim_u1, P.dim_v, P.dim_u0) == (3, 4, 6)
        assert P.bundle_rank == 3

    def test_shape_mismatch(self):
        t = Matrix.zero(GF(5), 6, 12)
        with pytest.raises(ShapeMismatch):
            make_presentation(t, 3, 5, 6)

    def test_fiber_matrix_columns(self):
        P = tc_presentation()
        f = GF(5)
        v = (0, 1, 0, 0)
        fib = P.fiber_matrix(v)
        for i in range(3):
            assert fib.column(i) == P.tensor.column(i * P.dim_v + 1)


class TestValidity:
    def test_tautological_is_valid(self):
        P = tc_presentation()
        rep = validate_presentation(P, 5)
        assert rep.valid
        assert rep.fibers_scanned == 156
        assert rep.witness is None

    def test_zero_tensor_invalid_with_witness(self):
        P = make_presentation(Matrix.zero(GF(5), 2, 6), 2, 3, 2)
        rep = validate_presentation(P, 5)
        assert not rep.valid
        u, v = rep.witness
        assert P.fiber_matrix(v).mul_vec(u) == (0, 0)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_thin_target_never_valid(self, seed):
        # a 2-dim space of values on a 1x3 pencil always has a zero
        P = random_tensor(GF(5), 1, 3, 2, seed)
        rep = validate_presentation(P, 5)
        assert not rep.valid
        u, v = rep.witness
        assert any(u)
        assert P.fiber_matrix(v).mul_vec(u) == (0, 0)

    def test_validation_over_rational_data(self):
        tc = P1Series(3)
        t = tc.multiplication_map(2, 3, QQ)
        P = make_presentation(t, 3, 4, 6)
        rep = validate_presentation(P, 7)
        assert rep.valid
        assert rep.prime == 7 and rep.fibers_scanned == 400


class TestUnstable:
    def test_twisted_cubic_evaluation_is_unstable(self):
        P = tc_presentation()
        lam = (1, 0, 0, 0)          # evaluation of the series at [1:0]
        flag, coker = unstable_test(P, lam)
        assert flag and coker == 1

    def test_non_evaluation_is_stable(self):
        P = tc_presentation()
        assert unstable_test(P, (1, 0, 0, 1)) == (False, 0)

    def test_zero_functional_rejected(self):
        with pytest.raises(ZeroPoint):
            unstable_test(tc_presentation(), (0, 0, 0, 0))

    def test_dual_witness_annihilates_image(self):
        P = tc_presentation()
        flag, psi = unstable_test_dual(P, (1, 0, 0, 0))
        assert flag
        rest = P.restricted_matrix((1, 0, 0, 0))
        for j in range(rest.ncols):
            col = rest.column(j)
            assert sum(a * b for a, b in zip(psi, col)) % 5 == 0

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_dual_agrees_with_primal(self, seed):
        import random
        rng = random.Random(seed ^ 0x5eed)
        p = rng.choice([2, 3, 5])
        a, m, b = rng.randint(1, 3), rng.randint(2, 4), rng.randint(1, 4)
        P = random_tensor(GF(p), a, m, b, seed)
        lam = [0] * m
        lam[rng.randrange(m)] = 1
        lam[rng.randrange(m)] = rng.randrange(1, p) if p > 1 else 1
        flag, coker = unstable_test(P, lam)
        flag2, psi = unstable_test_dual(P, lam)
        assert flag == flag2
        assert (psi is not None) == flag

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_coker_invariances(self, seed):
        """coker_dim survives GL(U0) change of basis, rescaling lam, and
        a simultaneous permutation of the V basis."""
        import random
        rng = random.Random(seed)
        p = 5
        P = random_tensor(GF(p), 2, 3, 4, seed)
        lam = tuple(rng.randrange(p) for _ in range(3))
        if not any(lam):
            lam = (1, 0, 0)
        _, c0 = unstable_test(P, lam)

        # invertible S acting on U0
        while True:
            s_rows = tuple(tuple(rng.randrange(p) for _ in range(4))
                           for _ in range(4))
            S = Matrix(GF(p), 4, 4, s_rows)
            if rank(S) == 4:
                break
        P2 = make_presentation(S.mul(P.tensor), 2, 3, 4)
        assert unstable_test(P2, lam)[1] == c0

        # rescale lam
        scale = rng.randrange(1, p)
        assert unstable_test(P, tuple(scale * x % p for x in lam))[1] == c0

        # permute V simultaneously in tensor and lam
        perm = list(range(3))
        rng.shuffle(perm)
        cols = [P.tensor.column(i * P.dim_v + perm[j])
                for i in range(2) for j in range(3)]
        P3 = make_presentation(Matrix.from_cols(GF(p), cols, 4), 2, 3, 4)
        lam3 = tuple(lam[perm[j]] for j in range(3))
        assert unstable_test(P3, lam3)[1] == c0


class TestRecovery:
    def test_twisted_cubic_recovers_quintic_evaluation(self):
        P = tc_presentation()
        psi = recover_section_point(P, (1, 0, 0, 0))
        assert psi == (1, 0, 0, 0, 0, 0)
        # at an image point x the quotient is ev_B(x): the twisted cubic
        # at (1, 0), and (1, 2, 3) on the Fermat quartic mod 7
        for scene, b, params, p in ((P1Series(3), 5, (1, 0), 5),
                                    (fermat_quartic(), 3, (1, 2, 3), 7)):
            f = GF(p)
            pres = tautological_presentation(scene, b, f)
            ev_a = scene.evaluation_functional(params, scene.label_A(), f)
            assert recover_section_point(pres, ev_a) == \
                scene.evaluation_functional(params, b, f)

    def test_every_curve_point_recovers(self):
        tc = P1Series(3)
        P = tc_presentation()
        f = GF(5)
        for rec in tc.enumerate_points(5).records:
            psi = recover_section_point(P, rec.phi)
            expected = tc.evaluation_functional(rec.params, 5, f)
            from steinertorelli.exactfield import normalize_projective
            assert psi == normalize_projective(f, expected)

    def test_stable_lambda_rejected(self):
        with pytest.raises(NonUniqueQuotient):
            recover_section_point(tc_presentation(), (1, 0, 0, 1))

    def test_direct_sum_ambiguity(self):
        # block sum of the presentation with itself: (U1+U1) (x) V -> U0+U0
        P = tc_presentation()
        pad = (0,) * 12
        D = make_presentation(
            Matrix.from_rows(GF(5), [row + pad for row in P.tensor.entries]
                             + [pad + row for row in P.tensor.entries]),
            6, 4, 12)
        assert (D.dim_u1, D.dim_v, D.dim_u0) == (6, 4, 12)
        flag, coker = unstable_test(D, (1, 0, 0, 0))
        assert flag and coker == 2
        with pytest.raises(NonUniqueQuotient):
            recover_section_point(D, (1, 0, 0, 0))


class TestVallesLocus:
    def test_twisted_cubic_equal_to_curve(self):
        tc = P1Series(3)
        P = tc_presentation()
        rep = valles_locus(P, 5)
        assert rep.scanned == 156
        assert len(rep.unstable) == 6
        assert all(c == 1 for _, c in rep.unstable)
        assert rep.unstable_set() == tc.enumerate_points(5).phi_set()

    def test_plane_quartic_all_unstable(self):
        fq = fermat_quartic()
        for p, total in ((5, 31), (7, 57)):
            t = fq.multiplication_map(2, 1, GF(p))
            P = make_presentation(t, 6, 3, 10)
            rep = valles_locus(P, p)
            assert rep.scanned == total
            assert len(rep.unstable) == total
            assert {c for _, c in rep.unstable} == {1}

    def test_diagonal_ci_equals_curve_points(self):
        ci = diagonal_ci()
        t = ci.multiplication_map(1, 1, GF(5))
        P = make_presentation(t, 5, 5, 12)
        assert validate_presentation(P, 5).valid
        rep = valles_locus(P, 5)
        assert rep.scanned == 781
        assert rep.unstable_set() == ci.enumerate_points(5).phi_set()
        assert len(rep.unstable) == 16

    def test_scroll_locus_is_the_segre_quadric(self):
        """For members of |2H+F| the locus is the whole scroll: exactly
        the F_5 points satisfying x0 x3 = x1 x2 in the (sv, tv, su, tu)
        coordinates."""
        quadric = {pt for pt in projective_reps(5, 4)
                   if (pt[0] * pt[3] - pt[1] * pt[2]) % 5 == 0}
        for coeffs in (SCROLL_F1, SCROLL_F2):
            sc = scroll(coeffs)
            t = sc.multiplication_map((0, 1), (1, 0), GF(5))
            P = make_presentation(t, 2, 4, 6)
            rep = valles_locus(P, 5)
            assert rep.unstable_set() == quadric
            assert len(rep.unstable) == 36
            assert sc.enumerate_points(5).phi_set() <= rep.unstable_set()

    def test_report_json_shape(self):
        P = tc_presentation()
        d = valles_locus(P, 5).to_json_dict()
        assert list(d.keys()) == ["prime", "scanned", "unstable"]
        assert d["scanned"] == 156
        assert d["unstable"][0] == {"lambda": [0, 0, 0, 1], "coker": 1}
        import json
        json.dumps(d)


# ---- the rank-one engine against the plain scans ---------------------------
#
# The per-fiber and per-hyperplane loops that the rank-one engine replaced,
# kept as oracles: one elimination at every point of P(V)(F_p).


def reference_validation(pres, p):
    work = pres if pres.field == GF(p) else pres.map_to(GF(p))
    for scanned, v in enumerate(projective_reps(p, work.dim_v), 1):
        kernel = rank_kernel(work.fiber_matrix(v)).kernel
        if kernel:
            return ValidationReport(p, False, scanned, (kernel[0], v))
    return ValidationReport(p, True, projective_count(p, work.dim_v), None)


def reference_valles(pres, p):
    work = pres if pres.field == GF(p) else pres.map_to(GF(p))
    found = []
    for lam in projective_reps(p, work.dim_v):
        unstable, coker = unstable_test(work, lam)
        if unstable:
            found.append((lam, coker))
    return VallesReport(p, projective_count(p, work.dim_v), tuple(found))


def assert_engine_matches_reference(pres, p):
    assert validate_presentation(pres, p) == reference_validation(pres, p)
    assert valles_locus(pres, p) == reference_valles(pres, p)


SCENEDIR = Path(__file__).resolve().parent.parent / "scenefiles"

# labels on both sides of a < m, and dk presentations (a = 2 or 3, m = 4)
# at primes where their points stay in general position
CATALOGUE = [
    ("twisted_cubic", ("O(4)", "O(5)", "O(6)", "O(7)"), (5, 7)),
    ("conic_monomials", ("O(3)", "O(4)"), (5, 7)),
    ("diagonal_ci", ("K+A", "K+2A"), (5, 7)),
    ("fermat_quartic", ("O(3)", "O(4)"), (5, 7)),
    ("diagonal_quartic_123", ("O(3)", "O(4)"), (5, 7)),
    ("scroll_member_a", ("K+2A", "K+3A"), (5, 7)),
    ("scroll_member_b", ("K+2A", "K+3A"), (5, 7)),
    ("six_general_points", (None,), (5, 7)),
    ("seven_on_twisted_cubic", (None,), (7, 11)),
    ("seven_general_f11", (None,), (11, 13)),
]


@pytest.mark.parametrize("stem,label,p", [
    (stem, label, p) for stem, labels, primes in CATALOGUE
    for label in labels for p in primes])
def test_engine_matches_reference_on_the_catalogue(stem, label, p):
    scene = load_scene(str(SCENEDIR / f"{stem}.json"))
    if isinstance(scene, PointSet):
        pres = dk_presentation(scene, GF(p))
    else:
        pres = tautological_presentation(
            scene, resolve_label(scene, label), GF(p))
    assert_engine_matches_reference(pres, p)


SHAPES = st.tuples(st.integers(0, 4), st.integers(1, 4), st.integers(0, 5))


def low_rank_tensor(p, a, m, b, r, seed):
    """A b x am tensor over GF(p) of rank at most r: a b x r times an
    r x am random matrix."""
    rng = random.Random(seed)
    left = [[rng.randrange(p) for _ in range(r)] for _ in range(b)]
    right = [[rng.randrange(p) for _ in range(a * m)] for _ in range(r)]
    rows = tuple(tuple(sum(row[k] * right[k][c] for k in range(r))
                       for c in range(a * m)) for row in left)
    return make_presentation(Matrix(GF(p), b, a * m, rows), a, m, b)


@given(st.sampled_from([2, 3, 5, 7]), SHAPES, st.integers(0, 10 ** 6))
@settings(max_examples=150, deadline=None)
def test_engine_matches_reference_on_random_tensors(p, shape, seed):
    a, m, b = shape
    assert_engine_matches_reference(random_tensor(GF(p), a, m, b, seed), p)


@given(st.sampled_from([2, 3, 5, 7]), SHAPES, st.data())
@settings(max_examples=100, deadline=None)
def test_engine_matches_reference_on_rank_deficient_tensors(p, shape,
                                                            data):
    a, m, b = shape
    r = data.draw(st.integers(0, max(0, min(b, a * m) - 1)))
    pres = low_rank_tensor(p, a, m, b, r, data.draw(st.integers(0, 10 ** 6)))
    assert rank(pres.tensor) < b or b == 0
    assert_engine_matches_reference(pres, p)


@pytest.mark.parametrize("p", [2, 5])
@pytest.mark.parametrize("a,m,b", [(0, 3, 2), (1, 3, 2), (2, 4, 3),
                                   (3, 2, 4), (2, 2, 1), (2, 1, 3)])
def test_engine_matches_reference_on_the_zero_tensor(p, a, m, b):
    pres = make_presentation(Matrix.zero(GF(p), b, a * m), a, m, b)
    assert_engine_matches_reference(pres, p)
