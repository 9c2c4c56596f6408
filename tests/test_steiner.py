"""Presentation validity, instability, recovery, and Valles scans.

Frozen counts come from independent geometry: curve point enumerations
for the loci expected to equal the image, the Segre quadric equation for
the scroll locus, and hand dimension counts for the rest.
"""

import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinertorelli.cli import resolve_label
from steinertorelli.errors import (FieldMismatch, NonUniqueQuotient,
                                   ShapeMismatch, ZeroPoint)
from steinertorelli import steiner
from steinertorelli.exactfield import (GF, QQ, Matrix, eliminate,
                                       kernel_basis, projective_count,
                                       projective_reps, rank, rank_kernel)
from steinertorelli.scenes import P1Series, PointSet, load_scene
from steinertorelli.steiner import (SteinerPresentation, ValidationReport,
                                    VallesReport, _charpoly, _rank_one_scan,
                                    recover_section_point, unstable_test,
                                    unstable_test_dual,
                                    validate_presentation, valles_locus)
from steinertorelli.torelli import dk_presentation, tautological_presentation

from test_exactfield import mat_vec
from test_scenes import SCROLL_F1, SCROLL_F2, diagonal_ci, fermat_quartic, \
    scroll


def tc_presentation(p=5, b_twist=5):
    """Twisted cubic with U1 = H0(O(b-3)), V = H0(O(3)), U0 = H0(O(b))."""
    tc = P1Series(3)
    f = GF(p)
    t = tc.multiplication_map(b_twist - 3, 3, f)
    return SteinerPresentation(t, b_twist - 2, 4, b_twist + 1)


def random_tensor(field, a, m, b, seed):
    import random
    rng = random.Random(seed)
    if field.characteristic:
        draw = lambda: rng.randrange(field.characteristic)  # noqa: E731
    else:
        draw = lambda: rng.randrange(-4, 5)                 # noqa: E731
    rows = tuple(tuple(draw() for _ in range(a * m)) for _ in range(b))
    return SteinerPresentation(Matrix(field, b, a * m, rows), a, m, b)


class TestPresentations:
    def test_make_and_rank(self):
        P = tc_presentation()
        assert (P.dim_u1, P.dim_v, P.dim_u0) == (3, 4, 6)
        assert P.bundle_rank == 3

    def test_shape_mismatch(self):
        t = Matrix(GF(5), 6, 12, ((0,) * 12,) * 6)
        with pytest.raises(ShapeMismatch):
            SteinerPresentation(t, 3, 5, 6)

    @pytest.mark.parametrize("point", [(1, 0), (1, 0, 0), (1, 0, 0, 0, 0),
                                       (1, 0, 0, 0, 0, 1)])
    def test_wrong_length_points_are_refused(self, point):
        # m = 4 on the twisted cubic: neither a short point nor a long
        # one names a point of P(V) or a hyperplane
        P = tc_presentation()
        with pytest.raises(ShapeMismatch):
            P.fiber_matrix(point)
        with pytest.raises(ShapeMismatch):
            unstable_test(P, point)
        with pytest.raises(ShapeMismatch):
            unstable_test_dual(P, point)
        with pytest.raises(ShapeMismatch):
            recover_section_point(P, point)

    def test_fiber_matrix_columns(self):
        P = tc_presentation()
        f = GF(5)
        v = (0, 1, 0, 0)
        fib = P.fiber_matrix(v)
        for i in range(3):
            assert fib.columns()[i] == P.tensor.columns()[i * P.dim_v + 1]


class TestValidity:
    def test_tautological_is_valid(self):
        P = tc_presentation()
        rep = validate_presentation(P)
        assert rep.valid
        assert rep.fibers_scanned == 156
        assert rep.witness is None

    def test_zero_tensor_invalid_with_witness(self):
        zero = Matrix(GF(5), 2, 6, ((0,) * 6,) * 2)
        P = SteinerPresentation(zero, 2, 3, 2)
        rep = validate_presentation(P)
        assert not rep.valid
        u, v = rep.witness
        assert mat_vec(P.fiber_matrix(v), u) == (0, 0)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_thin_target_never_valid(self, seed):
        # a 2-dim space of values on a 1x3 pencil always has a zero
        P = random_tensor(GF(5), 1, 3, 2, seed)
        rep = validate_presentation(P)
        assert not rep.valid
        u, v = rep.witness
        assert any(u)
        assert mat_vec(P.fiber_matrix(v), u) == (0, 0)

    def test_validation_over_rational_data(self):
        # the scans read p from the presentation: QQ data is refused,
        # and the same tensor is scanned once built over GF(7)
        tc = P1Series(3)
        P = SteinerPresentation(tc.multiplication_map(2, 3, QQ), 3, 4, 6)
        with pytest.raises(FieldMismatch):
            validate_presentation(P)
        with pytest.raises(FieldMismatch):
            valles_locus(P)
        t = tc.multiplication_map(2, 3, GF(7))
        P = SteinerPresentation(t, 3, 4, 6)
        rep = validate_presentation(P)
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
            col = rest.columns()[j]
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
        P2 = SteinerPresentation(S.mul(P.tensor), 2, 3, 4)
        assert unstable_test(P2, lam)[1] == c0

        # rescale lam
        scale = rng.randrange(1, p)
        assert unstable_test(P, tuple(scale * x % p for x in lam))[1] == c0

        # permute V simultaneously in tensor and lam
        perm = list(range(3))
        rng.shuffle(perm)
        cols = [P.tensor.columns()[i * P.dim_v + perm[j]]
                for i in range(2) for j in range(3)]
        P3 = SteinerPresentation(Matrix.from_cols(GF(p), cols, 4), 2, 3, 4)
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
        D = SteinerPresentation(
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
        rep = valles_locus(P)
        assert rep.scanned == 156
        assert len(rep.unstable) == 6
        assert all(c == 1 for _, c in rep.unstable)
        assert rep.unstable_set() == tc.enumerate_points(5).phi_set()

    def test_plane_quartic_all_unstable(self):
        fq = fermat_quartic()
        for p, total in ((5, 31), (7, 57)):
            t = fq.multiplication_map(2, 1, GF(p))
            P = SteinerPresentation(t, 6, 3, 10)
            rep = valles_locus(P)
            assert rep.scanned == total
            assert len(rep.unstable) == total
            assert {c for _, c in rep.unstable} == {1}

    def test_diagonal_ci_equals_curve_points(self):
        ci = diagonal_ci()
        t = ci.multiplication_map(1, 1, GF(5))
        P = SteinerPresentation(t, 5, 5, 12)
        assert validate_presentation(P).valid
        rep = valles_locus(P)
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
            P = SteinerPresentation(t, 2, 4, 6)
            rep = valles_locus(P)
            assert rep.unstable_set() == quadric
            assert len(rep.unstable) == 36
            assert sc.enumerate_points(5).phi_set() <= rep.unstable_set()

    def test_report_json_shape(self):
        P = tc_presentation()
        d = valles_locus(P).to_json_dict()
        assert list(d.keys()) == ["prime", "scanned", "unstable"]
        assert d["scanned"] == 156
        assert d["unstable"][0] == {"lambda": [0, 0, 0, 1], "coker": 1}
        import json
        json.dumps(d)


# ---- the rank-one engine against the plain scans ---------------------------
#
# The per-fiber and per-hyperplane loops that the rank-one engine replaced,
# kept as oracles: one elimination at every point of P(V)(F_p).


def reference_validation(pres):
    p = pres.field.characteristic
    for scanned, v in enumerate(projective_reps(p, pres.dim_v), 1):
        kernel = rank_kernel(pres.fiber_matrix(v)).kernel
        if kernel:
            return ValidationReport(p, False, scanned, (kernel[0], v))
    return ValidationReport(p, True, projective_count(p, pres.dim_v), None)


def reference_valles(pres):
    p = pres.field.characteristic
    found = []
    for lam in projective_reps(p, pres.dim_v):
        unstable, coker = unstable_test(pres, lam)
        if unstable:
            found.append((lam, coker))
    return VallesReport(p, projective_count(p, pres.dim_v), tuple(found))


def assert_engine_matches_reference(pres):
    assert validate_presentation(pres) == reference_validation(pres)
    assert valles_locus(pres) == reference_valles(pres)


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
    assert_engine_matches_reference(pres)


SHAPES = st.tuples(st.integers(0, 4), st.integers(1, 4), st.integers(0, 5))


def low_rank_tensor(p, a, m, b, r, seed):
    """A b x am tensor over GF(p) of rank at most r: a b x r times an
    r x am random matrix."""
    rng = random.Random(seed)
    left = [[rng.randrange(p) for _ in range(r)] for _ in range(b)]
    right = [[rng.randrange(p) for _ in range(a * m)] for _ in range(r)]
    rows = tuple(tuple(sum(row[k] * right[k][c] for k in range(r))
                       for c in range(a * m)) for row in left)
    return SteinerPresentation(Matrix(GF(p), b, a * m, rows), a, m, b)


@given(st.sampled_from([2, 3, 5, 7]), SHAPES, st.integers(0, 10 ** 6))
@settings(max_examples=150, deadline=None)
def test_engine_matches_reference_on_random_tensors(p, shape, seed):
    a, m, b = shape
    assert_engine_matches_reference(random_tensor(GF(p), a, m, b, seed))


@given(st.sampled_from([2, 3, 5, 7]), SHAPES, st.data())
@settings(max_examples=100, deadline=None)
def test_engine_matches_reference_on_rank_deficient_tensors(p, shape,
                                                            data):
    a, m, b = shape
    r = data.draw(st.integers(0, max(0, min(b, a * m) - 1)))
    pres = low_rank_tensor(p, a, m, b, r, data.draw(st.integers(0, 10 ** 6)))
    assert rank(pres.tensor) < b or b == 0
    assert_engine_matches_reference(pres)


@pytest.mark.parametrize("p", [2, 5])
@pytest.mark.parametrize("a,m,b", [(0, 3, 2), (1, 3, 2), (2, 4, 3),
                                   (3, 2, 4), (2, 2, 1), (2, 1, 3)])
def test_engine_matches_reference_on_the_zero_tensor(p, a, m, b):
    pres = SteinerPresentation(
        Matrix(GF(p), b, a * m, ((0,) * (a * m),) * b), a, m, b)
    assert_engine_matches_reference(pres)


# ---- pencil leaves ---------------------------------------------------------
#
# The engine walks lines x = (x', t) and decides each one from the
# characteristic polynomial of one small matrix.  The helper is checked
# against determinants and permutation sums, the engine against a scan
# that eliminates the contracted matrix at every point.


def det_mod(mat, p):
    """det(mat) mod p by elimination."""
    work = [[x % p for x in row] for row in mat]
    det = 1
    for c in range(len(work)):
        piv = next((i for i in range(c, len(work)) if work[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            det = -det
        det = det * work[c][c] % p
        inv = pow(work[c][c], p - 2, p)
        for i in range(c + 1, len(work)):
            f = work[i][c] * inv
            work[i] = [(x - f * y) % p for x, y in zip(work[i], work[c])]
    return det % p


def charpoly_by_permutations(mat, p):
    """det(x I - mat) mod p as a sum over permutations, coefficients from
    the top down."""
    n = len(mat)
    total = [0] * (n + 1)           # from the constant term up
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n)
                         for j in range(i + 1, n))
        poly = [(-1) ** inversions]
        for i, j in enumerate(perm):
            lin = (-mat[i][j], int(i == j))
            poly = [sum(poly[k] * lin[d - k] for k in range(len(poly))
                        if 0 <= d - k <= 1) for d in range(len(poly) + 1)]
        total = [x + y for x, y in zip(total, poly + [0] * n)]
    return [x % p for x in reversed(total)]


def assert_charpoly(mat, p):
    mat = [[x % p for x in row] for row in mat]
    chi = _charpoly(mat, p)
    w = len(mat)
    assert chi == charpoly_by_permutations(mat, p)
    for mu in range(p):
        value = 0
        for c in chi:
            value = (value * mu + c) % p
        shifted = [[(mu * (i == j) - x) % p for j, x in enumerate(row)]
                   for i, row in enumerate(mat)]
        assert value == det_mod(shifted, p)
    assert len(chi) == w + 1 and chi[0] == 1


def jordan(w, eigenvalue):
    return [[eigenvalue if i == j else int(j == i + 1) for j in range(w)]
            for i in range(w)]


SPECIAL_MATRICES = [
    *([[0] * w for _ in range(w)] for w in range(1, 7)),
    *(jordan(w, 0) for w in range(2, 7)),              # nilpotent
    jordan(4, 3),                                      # one eigenvalue
    [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 5, 1], [0, 0, 0, 5]],
    # the first Hessenberg step finds its pivot two rows down
    [[1, 2, 3], [0, 4, 5], [6, 7, 8]],
    [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
    [[0, 0, 0, 0, 1], [0, 0, 0, 1, 0], [0, 0, 1, 0, 0],
     [0, 1, 0, 0, 0], [1, 0, 0, 0, 0]],
    [[3, 1, 4, 1, 5, 9], [0, 2, 6, 5, 3, 5], [0, 0, 8, 9, 7, 9],
     [2, 0, 3, 2, 3, 8], [0, 4, 6, 2, 6, 4], [3, 0, 8, 3, 2, 7]],
]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("mat", SPECIAL_MATRICES)
def test_charpoly_on_special_matrices(mat, p):
    assert_charpoly(mat, p)


@given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(1, 6), st.data())
@settings(max_examples=80, deadline=None)
def test_charpoly_on_random_matrices(p, w, data):
    # mostly zeros at times, so that Hessenberg steps swap or skip
    entries = st.sampled_from([0, 0, 0, 1, p - 1]) | st.integers(0, p - 1)
    mat = [[data.draw(entries) for _ in range(w)] for _ in range(w)]
    assert_charpoly(mat, p)


def pencil_rows(mats, width, over_u1):
    """Tensor rows whose contraction by the t-th basis vector of the
    walked factor is mats[t], a list of rows of length width; with the
    dims (a, m)."""
    n = len(mats)
    rows = []
    for k in range(len(mats[0])):
        row = [0] * (n * width)
        for t in range(n):
            for j in range(width):
                row[t * width + j if over_u1 else j * n + t] = mats[t][k][j]
        rows.append(row)
    return rows, *((n, width) if over_u1 else (width, n))


def kernel_of(mat, width, p):
    work = [list(row) for row in mat]
    return kernel_basis(work, eliminate(work, width, p), width, GF(p))


def reference_scan(rows, a, m, p, over_u1):
    """The deficient points and their kernels, one elimination per point."""
    n, width = (a, m) if over_u1 else (m, a)
    out = []
    for x in projective_reps(p, n):
        mat = [[sum(x[t] * row[t * m + j if over_u1 else j * m + t]
                    for t in range(n)) % p for j in range(width)]
               for row in rows]
        basis = kernel_of(mat, width, p)
        if basis:
            out.append((x, basis))
    return out


def engine_scan(rows, a, m, p, over_u1):
    width = m if over_u1 else a
    out = []
    for x, row_basis in _rank_one_scan(rows, a, m, p, over_u1):
        # independent rows, fewer than the columns
        work = [list(row) for row in row_basis]
        assert len(eliminate(work, width, p)) == len(row_basis) < width
        out.append((x, kernel_of(row_basis, width, p)))
    return out


def assert_scan_matches_reference(mats, width, p):
    for over_u1 in (False, True):
        rows, a, m = pencil_rows(mats, width, over_u1)
        assert engine_scan(rows, a, m, p, over_u1) == \
            reference_scan(rows, a, m, p, over_u1)


def diagonal_pencil(roots, p, extra=()):
    """[A, B] with A + tB = diag(t - r for r in roots) over the extra rows
    (pairs of rows of A and B): deficient at the roots."""
    w = len(roots)
    a = [[-r % p if i == j else 0 for j in range(w)]
         for i, r in enumerate(roots)]
    b = [[int(i == j) for j in range(w)] for i in range(w)]
    return [a + [row for row, _ in extra], b + [row for _, row in extra]]


PENCILS = [
    # a kernel vector common to the whole pencil: deficient everywhere
    ("singular", 5, 3, [[[1, 2, 0], [3, 4, 0], [0, 1, 0], [2, 2, 0]],
                        [[4, 0, 0], [1, 1, 0], [2, 3, 0], [0, 3, 0]]]),
    # t = 0 deficient (equal columns), so s0 = 1
    ("t0_deficient", 7, 3, [[[1, 1, 2], [3, 3, 0], [5, 5, 1], [2, 2, 6]],
                            [[0, 1, 0], [1, 0, 2], [6, 3, 1], [1, 1, 1]]]),
    # deficient at t = 0..p-2, full at t = p - 1 = s0
    ("s0_last_p3", 3, 2, diagonal_pencil([0, 1], 3, [([0, 0], [0, 0])])),
    ("s0_last_p5", 5, 4, diagonal_pencil([0, 1, 2, 3], 5,
                                         [([1, 1, 1, 1], [0, 0, 0, 0])])),
    # chi_M has the roots t = 2 and t = 4, and the third row rules out 4
    ("false_candidate", 7, 2, diagonal_pencil([2, 4], 7,
                                              [([0, 5], [0, 1])])),
    # fewer rows than columns, and no rows at all
    ("wide", 5, 3, [[[1, 2, 3], [0, 1, 4]], [[2, 0, 1], [1, 1, 1]]]),
    ("no_rows", 3, 2, [[], []]),
    # width 4 >= p = 3: chi_M vanishes on all of F_3*
    ("a_ge_p", 3, 4, diagonal_pencil([1, 2, 1, 2], 3,
                                     [([1, 0, 2, 0], [0, 1, 0, 1])])),
    ("all_deficient_a_ge_p", 3, 4, diagonal_pencil([0, 1, 2, 0], 3)),
    ("p2", 2, 3, [[[1, 0, 1], [0, 1, 1], [1, 1, 0], [0, 0, 1]],
                  [[0, 1, 1], [1, 0, 0], [1, 1, 1], [1, 0, 1]]]),
]


@pytest.mark.parametrize("name,p,width,mats", PENCILS,
                         ids=[case[0] for case in PENCILS])
def test_engine_matches_reference_on_constructed_pencils(name, p, width,
                                                         mats):
    assert_scan_matches_reference(mats, width, p)
    # the same pencil as a line of P^2: e_last, then the lines x' = (0, 1)
    # and (1, s), the last carrying the pencil shifted by s
    zero = [[0] * width for _ in mats[0]]
    assert_scan_matches_reference([mats[0], zero, mats[1]], width, p)


@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 3),
       st.integers(1, 5), st.integers(0, 8), st.data())
@settings(max_examples=120, deadline=None)
def test_engine_matches_reference_on_random_pencils(p, n, width, nrows,
                                                    data):
    entries = st.integers(0, p - 1)
    mats = [[[data.draw(entries) for _ in range(width)]
             for _ in range(nrows)] for _ in range(n)]
    if data.draw(st.booleans()):
        # a column that is zero in every member: deficient everywhere
        col = data.draw(st.integers(0, width - 1))
        for mat in mats:
            for row in mat:
                row[col] = 0
    assert_scan_matches_reference(mats, width, p)


@pytest.mark.parametrize("p,a,m,b,r", [(7, 3, 2, 5, 3), (2, 4, 3, 6, 4),
                                       (3, 4, 2, 6, 2), (5, 5, 3, 7, 0)])
def test_engine_matches_reference_when_r_below_b(p, a, m, b, r):
    """a >= m and T of rank r < b: every hyperplane is unstable, and the
    scan over P(V) merges the lines' deficient points into all of P(V)."""
    pres = low_rank_tensor(p, a, m, b, r, seed=p * 100 + a)
    assert rank(pres.tensor) <= r < b
    assert_engine_matches_reference(pres)
    assert len(valles_locus(pres).unstable) == projective_count(p, m)


WIDE_SHAPES = st.tuples(st.integers(1, 5), st.integers(2, 3),
                        st.integers(0, 9))


@given(st.sampled_from([11, 13]), WIDE_SHAPES, st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_engine_matches_reference_at_larger_primes(p, shape, seed):
    """More rows than columns on lines of F_11 and F_13, full rank or
    not."""
    a, m, b = shape
    assert_engine_matches_reference(random_tensor(GF(p), a, m, b, seed))
    r = random.Random(seed).randrange(max(1, min(b, a * m)))
    assert_engine_matches_reference(low_rank_tensor(p, a, m, b, r, seed))


def test_pencil_leaves_cut_the_eliminations(monkeypatch):
    """diagonal_ci with K+A at p = 7 (a = m = 5): validation and the
    Valles scan together use fewer than half of the 2 |P^4(F_7)|
    eliminations of a scan point by point."""
    scene = load_scene(str(SCENEDIR / "diagonal_ci.json"))
    pres = tautological_presentation(scene, resolve_label(scene, "K+A"),
                                     GF(7))
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(steiner, "eliminate", counting)
    assert validate_presentation(pres).valid
    assert len(valles_locus(pres).unstable) == 16
    assert 0 < len(calls) < projective_count(7, 5)
