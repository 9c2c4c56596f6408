"""Presentation validity, instability, recovery, and Valles scans.

Frozen counts come from independent geometry: curve point enumerations
for the loci expected to equal the image, the Segre quadric equation for
the scroll locus, and hand dimension counts for the rest.
"""

import itertools
import random
from functools import partial
from operator import sub
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from steinertorelli.cli import resolve_label
from steinertorelli.errors import (FieldMismatch, NonUniqueQuotient,
                                   ShapeMismatch, ZeroPoint)
from steinertorelli import steiner
from steinertorelli.exactfield import (GF, QQ, Matrix, eliminate,
                                       kernel_basis, left_kernel,
                                       normalize_projective,
                                       projective_count, projective_rank,
                                       projective_reps, projective_unrank,
                                       rank, rank_kernel, rref)
from steinertorelli.scenes import P1Series, PointSet, load_scene
from steinertorelli.steiner import (SteinerPresentation, ValidationReport,
                                    VallesReport, _charpoly, _line_shifts,
                                    _rank_one_scan,
                                    recover_section_point, unstable_test,
                                    unstable_test_dual,
                                    validate_presentation, valles_locus)
from steinertorelli.torelli import dk_presentation, tautological_presentation

from test_exactfield import mat_vec, matrix
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
        with pytest.raises(FieldMismatch):
            recover_section_point(P, (1, 0, 0, 0))
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
        P3 = SteinerPresentation(matrix(GF(p), zip(*cols)), 2, 3, 4)
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
            assert psi == normalize_projective(f, expected)

    def test_stable_lambda_rejected(self):
        with pytest.raises(NonUniqueQuotient):
            recover_section_point(tc_presentation(), (1, 0, 0, 1))

    def test_zero_functional_rejected(self):
        with pytest.raises(ZeroPoint):
            recover_section_point(tc_presentation(), (0, 5, 0, 10))

    def test_a_zero_row_is_the_quotient_at_every_stable_hyperplane(self):
        # T of rank b - 1: where N(lam) is injective, psi spans the left
        # kernel of T, here the functional of the added zero row
        P = tc_presentation()
        Z = SteinerPresentation(
            matrix(GF(5), P.tensor.entries + ((0,) * 12,)),
            3, 4, 7)
        assert recover_section_point(Z, (1, 0, 0, 1)) == (0,) * 6 + (1,)
        with pytest.raises(NonUniqueQuotient):
            recover_section_point(Z, (1, 0, 0, 0))

    def test_direct_sum_ambiguity(self):
        # block sum of the presentation with itself: (U1+U1) (x) V -> U0+U0
        P = tc_presentation()
        pad = (0,) * 12
        D = SteinerPresentation(
            matrix(GF(5), [row + pad for row in P.tensor.entries]
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

def catalogue_presentation(stem, label, p):
    """A fresh presentation over GF(p) of a catalogue scene: the
    tautological one for B = label, or the dk one of a point set."""
    scene = load_scene(str(SCENEDIR / f"{stem}.json"))
    if isinstance(scene, PointSet):
        return dk_presentation(scene, GF(p))
    return tautological_presentation(scene, resolve_label(scene, label),
                                     GF(p))


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
    assert_engine_matches_reference(catalogue_presentation(stem, label, p))


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


# ---- the scan through one vertex --------------------------------------------
#
# The engine walks the lines through one full-rank vertex and decides each
# one from the rank of a residual, taking a characteristic polynomial only
# where an invariant subspace survives.  The polynomial is checked against
# determinants and permutation sums, the engine against a scan that
# eliminates the contracted matrix at every point and against the pencil
# leaves it replaced.


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


def reduced_kernel_of(mat, width, p):
    """The reduced echelon basis of the kernel, as a tuple of tuples."""
    basis = [list(v) for v in kernel_of(mat, width, p)]
    eliminate(basis, width, p)
    return tuple(map(tuple, basis))


def reference_scan(rows, a, m, p, over_u1):
    """The deficient points and the reduced echelon bases of their
    kernels, one elimination per point."""
    n, width = (a, m) if over_u1 else (m, a)
    out = []
    for x in projective_reps(p, n):
        mat = [[sum(x[t] * row[t * m + j if over_u1 else j * m + t]
                    for t in range(n)) % p for j in range(width)]
               for row in rows]
        basis = reduced_kernel_of(mat, width, p)
        if basis:
            out.append((x, basis))
    return out


def row_basis(flat, width, p):
    """Where the rows of a basis of the row space of a row-major matrix
    with `width` columns start in `flat`: the pivot columns of the
    transpose, from one elimination of it."""
    return [k * width for k in eliminate(
        [flat[j::width] for j in range(width)], len(flat) // width, p,
        full=False)]


def pencil_leaf(base, pencil, width, p):
    """The t in F_p, ascending, where the pencil base + t*pencil of
    row-major matrices with `width` columns has a kernel, each with a
    basis of the row space of that member, as rows.

    Every member before the first t = s0 of full column rank is
    deficient.  Past s0, with C the member at s0, S a basis of its rows
    and M = C_S^-1 B_S (B = pencil), a kernel vector y at t has
    C_S (I + (t - s0) M) y = 0, so chi_M(mu) = 0 at mu = -1/(t - s0).
    Only those t are eliminated.
    """
    def member(t):
        return [(u + t * v) % p for u, v in zip(base, pencil)] if t else base

    for s0 in range(p):
        c = member(s0)
        basis = row_basis(c, width, p)
        if len(basis) == width:
            break
        yield s0, [c[s:s + width] for s in basis]
    else:
        return
    # [C_S | B_S] reduces to [I | M]
    block = [c[s:s + width] + pencil[s:s + width] for s in basis]
    eliminate(block, 2 * width, p)
    mus = range(1, p)
    values = [0] * (p - 1)
    for coeff in _charpoly([row[width:] for row in block], p):
        values = [(y * mu + coeff) % p for y, mu in zip(values, mus)]
    for t in sorted((s0 - pow(mu, p - 2, p)) % p
                    for mu, y in zip(mus, values) if not y):
        if t > s0:
            flat = member(t)
            basis = row_basis(flat, width, p)
            if len(basis) < width:
                yield t, [flat[s:s + width] for s in basis]


def pencil_leaf_scan(rows, a, m, p, over_u1):
    """The pencil-leaf engine that the walk through one vertex replaced,
    kept as a second oracle: e_last, then the lines (x', t) through it,
    each decided by `pencil_leaf` with a characteristic polynomial per
    line and an elimination per candidate.  It yields as the engine
    does: each point with the dimension of its kernel and a callable that
    gives the kernel's reduced echelon basis."""
    if over_u1:
        n, width = a, m
        images = [[y for row in rows for y in row[t * m:t * m + m]]
                  for t in range(a)]
    else:
        n, width = m, a
        images = [[y for row in rows for y in row[t::m]] for t in range(m)]
    if not n or not width:
        return
    def leaf(x, basis):
        return x, width - len(basis), partial(reduced_kernel_of, basis,
                                              width, p)

    pencil = images.pop()
    basis = row_basis(pencil, width, p)
    if len(basis) < width:
        yield leaf((0,) * (n - 1) + (1,),
                   [pencil[s:s + width] for s in basis])
    base, prev = [0] * len(pencil), (0,) * (n - 1)
    for x in projective_reps(p, n - 1):
        for i, d in enumerate(map(sub, x, prev)):
            if d:
                base = [(s + d * y) % p for s, y in zip(base, images[i])]
        prev = x
        for t, basis in pencil_leaf(base, pencil, width, p):
            yield leaf(x + (t,), basis)


def engine_scan(rows, a, m, p, over_u1, scan=_rank_one_scan):
    """The points a scan yields with the kernels it hands out, each read
    twice: the callable gives one reduced echelon basis each time."""
    out = []
    for x, nullity, kernel in scan(rows, a, m, p, over_u1):
        basis = kernel()
        assert kernel() == basis
        assert 0 < len(basis) == nullity
        out.append((x, basis))
    return out


def assert_scan_matches_reference(mats, width, p):
    for over_u1 in (False, True):
        rows, a, m = pencil_rows(mats, width, over_u1)
        want = reference_scan(rows, a, m, p, over_u1)
        assert engine_scan(rows, a, m, p, over_u1) == want
        assert engine_scan(rows, a, m, p, over_u1, pencil_leaf_scan) == want


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
    # as many rows as columns, so D is empty and W is everything: the
    # shifts are the roots, t = 3 with a kernel of dimension 2
    ("square", 7, 3, diagonal_pencil([1, 3, 3], 7)),
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


def vertex_of(rows, a, m, p, over_u1):
    """The first point of the walked factor where the contracted matrix
    has full column rank, from the reference scan; None when there is
    none."""
    deficient = {x for x, _ in reference_scan(rows, a, m, p, over_u1)}
    n = a if over_u1 else m
    return next((x for x in projective_reps(p, n) if x not in deficient),
                None)


def planted(p, width, nres, eigenvalue, vec, draw):
    """[M; D], the rows of a width x width M and an nres x width D with
    M vec = eigenvalue * vec and D vec = 0; vec has vec[0] = 1, and the
    other entries come from draw()."""
    mat = [[draw() for _ in range(width)] for _ in range(width + nres)]
    for i, row in enumerate(mat):
        # fix the first column so that row . vec takes its target value
        want = eigenvalue * vec[i] if i < width else 0
        row[0] = (want - sum(x * y for x, y in zip(row[1:], vec[1:]))) % p
    return mat


def identity_over(width, nres):
    """[I; 0]: a member whose rows S are the first width rows and whose
    B_R is zero, so M = A_S and D = A_R."""
    return [[int(i == j) for j in range(width)]
            for i in range(width + nres)]


# Three-member pencils, walked on P^2, whose vertex is not e_last: the
# points past it are found line by line through the vertex and must be
# sorted back into enumeration order.
VERTEX_PENCILS = [
    # e_last = diag(1, 1, 0) is deficient and N(0, 1, t) = diag(t, t - 1,
    # 1) too at t = 0, 1, so the vertex is (0, 1, 2)
    ("vertex_012", 5, 3, (0, 1, 2),
     [[[1, 2, 0], [0, 1, 3], [2, 0, 1], [1, 1, 4]],
      [[0, 0, 0], [0, 4, 0], [0, 0, 1], [0, 0, 0]],
      [[1, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 0]]]),
    # the last two members share a zero column, so every point with
    # x_0 = 0 is deficient and the vertex is (1, 0, 0)
    ("vertex_100", 7, 2, (1, 0, 0),
     [[[1, 2], [3, 4], [5, 0]],
      [[0, 1], [0, 2], [0, 3]],
      [[0, 6], [0, 0], [0, 1]]]),
    ("vertex_100_p2", 2, 2, (1, 0, 0),
     [[[1, 0], [1, 1], [0, 1]],
      [[0, 1], [0, 1], [0, 0]],
      [[0, 1], [0, 0], [0, 1]]]),
]


@pytest.mark.parametrize("name,p,width,vertex,mats", VERTEX_PENCILS,
                         ids=[case[0] for case in VERTEX_PENCILS])
def test_engine_matches_reference_past_a_later_vertex(name, p, width,
                                                      vertex, mats):
    for over_u1 in (False, True):
        rows, a, m = pencil_rows(mats, width, over_u1)
        assert vertex_of(rows, a, m, p, over_u1) == vertex
    assert_scan_matches_reference(mats, width, p)


@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(2, 3),
       st.integers(1, 4), st.integers(0, 7), st.data())
@settings(max_examples=120, deadline=None)
def test_engine_matches_reference_with_e_last_deficient(p, n, width, nrows,
                                                        data):
    """A column that is zero in the last member only: e_last is deficient
    and the vertex, when there is one, lies further on."""
    entries = st.integers(0, p - 1)
    mats = [[[data.draw(entries) for _ in range(width)]
             for _ in range(nrows)] for _ in range(n)]
    col = data.draw(st.integers(0, width - 1))
    for row in mats[-1]:
        row[col] = 0
    if data.draw(st.booleans()):
        # and in the one before it: deficient on the whole line x_0 = 0
        # when n = 3
        for row in mats[-2]:
            row[col] = 0
    assert_scan_matches_reference(mats, width, p)


@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 4),
       st.integers(0, 4), st.booleans(), st.data())
@settings(max_examples=120, deadline=None)
def test_engine_matches_reference_with_a_planted_eigenvector(p, width, nres,
                                                             third, data):
    """A = [M; D] with an eigenvector of M in ker D, over B = [I; 0]: W is
    not 0 on the line through x' = (1, 0), and the engine must find the
    shift t = -eigenvalue there.  With `third`, a random member in front
    turns it into a pencil on P^2."""
    entries = st.integers(0, p - 1)
    vec = [1] + [data.draw(entries) for _ in range(width - 1)]
    eigenvalue = data.draw(entries)
    mats = [planted(p, width, nres, eigenvalue, vec,
                    lambda: data.draw(entries)),
            identity_over(width, nres)]
    if third:
        mats.insert(0, [[data.draw(entries) for _ in range(width)]
                        for _ in range(width + nres)])
    assert_scan_matches_reference(mats, width, p)
    rows, a, m = pencil_rows(mats, width, False)
    x = (0,) * third + (1, -eigenvalue % p)
    assert x in dict(engine_scan(rows, a, m, p, False))


def brute_shifts(flat, width, p):
    """The t where [M + tI; D] has a kernel, each with the reduced echelon
    basis of that kernel, one elimination per t."""
    rows = [flat[k:k + width] for k in range(0, len(flat), width)]
    out = []
    for t in range(p):
        basis = reduced_kernel_of(
            [[(x + t * (i == j)) % p for j, x in enumerate(row)]
             for i, row in enumerate(rows)], width, p)
        if basis:
            out.append((t, basis))
    return out


def line_shifts(flat, width, p):
    """`_line_shifts` with the reference I, as (t, kernel) pairs; each
    nullity it gives is the size of its kernel."""
    eye = [[int(i == j) for j in range(width)] for i in range(width)]
    out = []
    for t, dim, kernel in _line_shifts(flat, eye, width, p):
        assert dim == len(kernel)
        out.append((t, kernel))
    return sorted(out)


# (name, p, width, [M; D] rows, shifts, whether W != 0)
RESIDUALS = [
    # D has one row and rank 1 < 3 while W = 0: [d; dM; dM^2] spans
    ("residual_deficient_w0", 7, 3,
     [[0, 0, 1], [1, 0, 0], [0, 1, 0], [1, 0, 0]], [], False),
    # ker D = span (1, 2, 3), an eigenvector of M for 4: t = -4
    ("planted", 7, 3,
     [[4, 0, 0], [1, 0, 0], [5, 0, 0], [2, 6, 0], [3, 0, 6]], [3], True),
    # no D: W is everything, and the shifts are minus the eigenvalues
    ("square", 7, 2, [[1, 0], [0, 3]], [4, 6], True),
    # W = ker D is M-invariant but M has no eigenvalue on it in F_7
    ("no_root", 7, 3,
     [[0, 6, 0], [1, 0, 0], [0, 0, 1], [0, 0, 1]], [], True),
    # D of full rank: decided by one elimination
    ("full_residual", 5, 2, [[1, 2], [3, 4], [1, 0], [0, 1]], [], False),
    # W = ker D of dimension 2, where M = 2I: one shift t = -2 whose
    # kernel is all of W, ((1, 0, 4), (0, 1, 4)) in reduced form
    ("eigenspace_is_w", 5, 3,
     [[2, 0, 0], [0, 2, 0], [0, 0, 2], [1, 1, 1]], [3], True),
    # W = ker D = span ((1, 6, 0), (0, 0, 1)) with the eigenvalues 1 and 3
    ("two_eigenvalues_on_w", 7, 3,
     [[1, 0, 0], [0, 1, 0], [0, 0, 3], [1, 1, 0]], [4, 6], True),
]


@pytest.mark.parametrize("name,p,width,rows,shifts,invariant", RESIDUALS,
                         ids=[case[0] for case in RESIDUALS])
def test_line_shifts_on_constructed_residuals(monkeypatch, name, p, width,
                                              rows, shifts, invariant):
    flat = [x for row in rows for x in row]
    brute = brute_shifts(flat, width, p)
    assert [t for t, _ in brute] == shifts
    polys = []

    def counting(mat, p):
        polys.append(len(mat))
        return _charpoly(mat, p)

    monkeypatch.setattr(steiner, "_charpoly", counting)
    assert line_shifts(flat, width, p) == brute
    assert bool(polys) == invariant


@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 5),
       st.integers(0, 7), st.booleans(), st.data())
@settings(max_examples=200, deadline=None)
def test_line_shifts_match_a_brute_force(p, width, nres, plant, data):
    entries = st.integers(0, p - 1)
    if plant:
        vec = [1] + [data.draw(entries) for _ in range(width - 1)]
        rows = planted(p, width, nres, data.draw(entries), vec,
                       lambda: data.draw(entries))
    else:
        rows = [[data.draw(entries) for _ in range(width)]
                for _ in range(width + nres)]
    flat = [x for row in rows for x in row]
    brute = brute_shifts(flat, width, p)
    assert line_shifts(flat, width, p) == brute


# ---- the staircase on singular pencils --------------------------------------


@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 4), st.integers(0, 6),
       st.integers(1, 3), st.data())
@settings(max_examples=250, deadline=None)
def test_split_keeps_every_kernel_of_the_pencil(p, width, nrows, nothers,
                                                data):
    """`_split` of B and blocks A_j, with B of any rank, zero rows mixed
    in and no row at all included: B' is in reduced echelon form with no
    zero row and the rank of B, and at every t the kernel of A_j + t B is
    that of [A'_j + t B'; D_j]."""
    def draw(lo, hi):
        return data.draw(st.integers(lo, hi))

    r = draw(0, min(nrows, width))
    left = [[draw(0, p - 1) for _ in range(r)] for _ in range(nrows)]
    right = [[draw(0, p - 1) for _ in range(width)] for _ in range(r)]
    zeros = data.draw(st.lists(st.booleans(), min_size=nrows,
                               max_size=nrows))
    big = [[0 if zero else sum(x * y for x, y in zip(row, col)) % p
            for col in zip(*right)] if r else [0] * width
           for row, zero in zip(left, zeros)]
    others = [[[draw(0, p - 1) for _ in range(width)] for _ in range(nrows)]
              for _ in range(nothers)]
    ref, steps = steiner._split([x for row in big for x in row],
                                [[x for row in a for x in row]
                                 for a in others], width, p)
    assert len(ref) == width - len(kernel_of(big, width, p))
    assert all(any(row) for row in ref)
    leads = [next(c for c, x in enumerate(row) if x) for row in ref]
    assert leads == sorted(set(leads))
    assert all(row[c] == (i == j) for i, row in enumerate(ref)
               for j, c in enumerate(leads))
    assert len(steps) == nothers
    for a, step in zip(others, steps):
        rows = [step[i:i + width] for i in range(0, len(step), width)]
        assert len(rows) >= len(ref)
        for t in range(p):
            member = [[(x + t * y) % p for x, y in zip(arow, brow)]
                      for arow, brow in zip(a, big)]
            reduced = [[(x + t * y) % p for x, y in zip(arow, brow)]
                       for arow, brow in zip(rows, ref)] + rows[len(ref):]
            assert kernel_of(reduced, width, p) == kernel_of(member, width, p)


def invertible(n, p, draw):
    """A random invertible n x n matrix: unit lower triangular times
    upper triangular with a nonzero diagonal."""
    lower = [[1 if i == j else draw(0, p - 1) if j < i else 0
              for j in range(n)] for i in range(n)]
    upper = [[draw(1, p - 1) if i == j else draw(0, p - 1) if j > i else 0
              for j in range(n)] for i in range(n)]
    return [[sum(x * upper[k][j] for k, x in enumerate(row)) % p
             for j in range(n)] for row in lower]


def product(x, y, p):
    return [[sum(u * y[k][j] for k, u in enumerate(row)) % p
             for j in range(len(y[0]))] for row in x]


def kronecker_block(kind, size, eigenvalue, p):
    """(rows, cols, A, B) of one block of the Kronecker form of A + t B,
    with the nullity it adds at t as a function of t.

    L: size x (size + 1), a kernel at every t; LT its transpose, none;
    J: a Jordan block, a kernel at t = eigenvalue; N: I + t N, N
    nilpotent, none."""
    eye = [[int(i == j) for j in range(size)] for i in range(size)]
    shift = [[int(j == i + 1) for j in range(size)] for i in range(size)]
    if kind == "L":
        a = [[int(j == i + 1) for j in range(size + 1)] for i in range(size)]
        b = [[int(j == i) for j in range(size + 1)] for i in range(size)]
        return size, size + 1, a, b, lambda t: 1
    if kind == "LT":
        a = [[int(i == j + 1) for j in range(size)] for i in range(size + 1)]
        b = [[int(i == j) for j in range(size)] for i in range(size + 1)]
        return size + 1, size, a, b, lambda t: 0
    if kind == "J":
        a = [[(x - eigenvalue * y) % p for x, y in zip(srow, erow)]
             for srow, erow in zip(shift, eye)]
        return size, size, a, eye, lambda t: int(t == eigenvalue)
    return size, size, eye, shift, lambda t: 0


BLOCKS = st.tuples(st.sampled_from(["L", "LT", "J", "N"]), st.integers(0, 3),
                   st.integers(0, 12))


@given(st.sampled_from([2, 3, 5, 7, 13]), st.lists(BLOCKS, min_size=1,
                                                   max_size=4), st.data())
@settings(max_examples=250, deadline=None)
def test_line_decision_on_kronecker_pencils(p, blocks, data):
    """P (L_eps + L_eta^T + Jordan + nilpotent blocks) Q, with P and Q
    random and invertible: the line decision, whatever the rank of its
    reference B, gives the nullity of A + t B at every t."""
    blocks = [kronecker_block(kind, size if kind in ("L", "LT") else
                              max(size, 1), eigenvalue % p, p)
              for kind, size, eigenvalue in blocks]
    nrows = sum(block[0] for block in blocks)
    width = sum(block[1] for block in blocks)
    assume(width > 0)
    a = [[0] * width for _ in range(nrows)]
    b = [[0] * width for _ in range(nrows)]
    r0 = c0 = 0
    for rows, cols, ablock, bblock, _ in blocks:
        for i in range(rows):
            a[r0 + i][c0:c0 + cols] = ablock[i]
            b[r0 + i][c0:c0 + cols] = bblock[i]
        r0, c0 = r0 + rows, c0 + cols

    def draw(lo, hi):
        return data.draw(st.integers(lo, hi))

    if nrows:
        left, right = invertible(nrows, p, draw), invertible(width, p, draw)
        a = product(product(left, a, p), right, p)
        b = product(product(left, b, p), right, p)
    # the pencil A + t B is the line through e_last = B and e_0 = A
    images = [[x for row in a for x in row], [x for row in b for x in row]]
    ref, steps = steiner._reference(images, (0, 1), width, p)
    got = {t: dim for t, dim, _ in _line_shifts(steps[0], ref, width, p)}
    brute = {}
    for t in range(p):
        member = [[(x + t * y) % p for x, y in zip(arow, brow)]
                  for arow, brow in zip(a, b)]
        nullity = len(kernel_of(member, width, p))
        assert nullity == sum(block[4](t) for block in blocks)
        if nullity:
            brute[t] = nullity
    assert got == brute


def moving_kernel_family(p, n, k, extra, draw):
    """n members, row-major row lists with n + k columns, such that N(x)
    is P [x 0; 0 R(x)] Q: the row x (x) has a kernel of dimension n - 1
    that moves with x, so no point has full rank, while R(x), k x k and
    random, and `extra` zero rows mixed in by P let the rows outnumber
    the columns."""
    width, nrows = n + k, 1 + k + extra
    left, right = invertible(nrows, p, draw), invertible(width, p, draw)
    mats = []
    for t in range(n):
        rows = [[int(j == t) for j in range(n)] + [0] * k]
        rows += [[0] * n + [draw(0, p - 1) for _ in range(k)]
                 for _ in range(k)]
        rows += [[0] * width for _ in range(extra)]
        mats.append(product(product(left, rows, p), right, p))
    return mats, width


def common_kernel(mats, width, p):
    return kernel_of([row for mat in mats for row in mat], width, p)


@given(st.sampled_from([2, 3, 5, 7, 13]), st.integers(2, 3), st.data())
@settings(max_examples=80, deadline=None)
def test_engine_matches_reference_with_no_full_rank_point(p, n, data):
    """Walks where every point is deficient and the kernel moves with x:
    fewer rows than columns, or the family of `moving_kernel_family`
    with as many rows as columns or more.  There is no vertex, so every
    line goes through e_last with a deficient reference."""
    width = data.draw(st.integers(2, 5))
    if data.draw(st.booleans()):
        nrows = data.draw(st.integers(1, width - 1))
        entries = st.integers(0, p - 1)
        mats = [[[data.draw(entries) for _ in range(width)]
                 for _ in range(nrows)] for _ in range(n)]
    else:
        k = data.draw(st.integers(0, 2))
        mats, width = moving_kernel_family(
            p, n, k, data.draw(st.integers(0, n + 1)),
            lambda lo, hi: data.draw(st.integers(lo, hi)))
    assume(not common_kernel(mats, width, p))
    for over_u1 in (False, True):
        rows, a, m = pencil_rows(mats, width, over_u1)
        assert vertex_of(rows, a, m, p, over_u1) is None
    assert_scan_matches_reference(mats, width, p)


@given(st.sampled_from([2, 3, 5, 7, 13]), st.integers(1, 4),
       st.integers(0, 4), st.data())
@settings(max_examples=80, deadline=None)
def test_engine_matches_reference_past_an_all_deficient_first_line(
        p, width, extra, data):
    """Three members whose last two share a zero column: every point of
    the first line, x_0 = 0, is deficient, and the vertex lies further
    on, so the walk goes through e_last with a deficient reference."""
    entries = st.integers(0, p - 1)
    mats = [[[data.draw(entries) for _ in range(width)]
             for _ in range(width + extra)] for _ in range(3)]
    col = data.draw(st.integers(0, width - 1))
    for mat in mats[1:]:
        for row in mat:
            row[col] = 0
    for over_u1 in (False, True):
        rows, a, m = pencil_rows(mats, width, over_u1)
        vertex = vertex_of(rows, a, m, p, over_u1)
        assume(vertex is not None)
        assert vertex[0] == 1
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


# ---- the level walks ---------------------------------------------------------
#
# With a vertex of full rank and n >= 3, the lines y through it that may
# hold a deficient point are the deficient points of the level families in
# y, found by walks of those families, and the line decision runs only on
# them.  The families below plant what makes that hard: a vertex in ker D(y)
# on every line (symmetric tensors), common kernels at two and three levels
# of the chain, levels that recurse and levels whose e_last is deficient, and
# planes on which a level is singular.


PLANE_PRIMES = st.sampled_from([2, 3, 5, 7, 13])


@given(PLANE_PRIMES, st.data())
@settings(max_examples=60, deadline=None)
def test_engine_matches_reference_on_symmetric_tensors(p, data):
    """U1 = V and mu(u (x) v) = mu(v (x) u), as for diagonal_ci with
    B = K + A, on both scans."""
    n = data.draw(st.integers(3, 4 if p < 13 else 3))
    b = data.draw(st.integers(n, 2 * n + 1))
    entries = st.integers(0, p - 1)
    rows = []
    for _ in range(b):
        sym = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                sym[i][j] = sym[j][i] = data.draw(entries)
        rows.append(tuple(x for row in sym for x in row))
    assert_engine_matches_reference(
        SteinerPresentation(Matrix(GF(p), b, n * n, tuple(rows)), n, n, b))


def conjugated(mats, p, draw):
    """P mats[t] Q for random invertible P and Q: the same deficient points,
    with kernels moved by Q^-1."""
    left = invertible(len(mats[0]), p, draw)
    right = invertible(len(mats[0][0]), p, draw)
    return [product(product(left, mat, p), right, p) for mat in mats]


def assert_walks_match_reference(mats, width, p):
    """The engine on both factors, and both scans of the presentation whose
    fibers over P(V) are the members."""
    assert_scan_matches_reference(mats, width, p)
    rows, a, m = pencil_rows(mats, width, False)
    assert_engine_matches_reference(SteinerPresentation(
        Matrix(GF(p), len(rows), a * m, tuple(map(tuple, rows))), a, m,
        len(rows)))


def levels(mats, width, p):
    """The level families of the walk through e_last, whose member is the
    last."""
    images = [[x for row in mat for x in row] for mat in mats]
    q = (0,) * (len(mats) - 1) + (1,)
    ref, steps = steiner._reference(images, q, width, p)
    assert len(ref) == width
    return steiner._levels(steps, width, p)


@given(PLANE_PRIMES, st.data())
@settings(max_examples=80, deadline=None)
def test_engine_matches_reference_with_kernels_planted_at_two_levels(p,
                                                                    data):
    """Members [M_j; D_j] over B = [I; 0] with C_0 >= span(e_0 .. e_k0-1)
    (the D_j vanish there) and C_1 >= span(e_0 .. e_k1-1) (the M_j keep it
    inside C_0), conjugated: the chain has levels for C_(-1), C_0 and
    C_1 at least, of widths that add up to dim V, or the walk goes line
    by line, and either way it matches the reference."""
    n = data.draw(st.integers(3, 4 if p < 13 else 3))
    width = data.draw(st.integers(2, 4))
    k0 = data.draw(st.integers(1, width - 1))
    k1 = data.draw(st.integers(1, k0))
    nres = data.draw(st.integers(width - k0, width - k0 + 2))
    entries = st.integers(0, p - 1)
    mats = []
    for _ in range(n - 1):
        top = [[0 if j < k1 and i >= k0 else data.draw(entries)
                for j in range(width)] for i in range(width)]
        bottom = [[0 if j < k0 else data.draw(entries) for j in range(width)]
                  for _ in range(nres)]
        mats.append(top + bottom)
    mats.append(identity_over(width, nres))
    mats = conjugated(mats, p, lambda lo, hi: data.draw(st.integers(lo, hi)))
    found = levels(mats, width, p)
    assert found is None or (
        len(found) >= 3 and sum(w for _, w in found) == width)
    assert_walks_match_reference(mats, width, p)


@given(PLANE_PRIMES, st.integers(3, 4), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_engine_matches_reference_on_singular_planes(p, n, deep, data):
    """A vector c with D_j c = 0 and M_j c = lambda_j c for the members j of
    a set S that holds the one along s: on the planes y'' inside S, c lies
    in W on every line, so a level family is deficient on all of the
    plane.  With `deep`, c is in every ker D_j, so the deficient family is
    the one on C_0."""
    assume(p < 13 or n == 3)
    width = data.draw(st.integers(1, 4))
    nres = data.draw(st.integers(1, 4))
    entries = st.integers(0, p - 1)
    others = data.draw(st.sets(st.integers(0, n - 3)))
    vec = [1] + [data.draw(entries) for _ in range(width - 1)]
    mats = []
    for j in range(n - 1):
        if j in others or j == n - 2:
            mats.append(planted(p, width, nres, data.draw(entries), vec,
                                lambda: data.draw(entries)))
            continue
        mat = [[data.draw(entries) for _ in range(width)]
               for _ in range(width + nres)]
        if deep:
            # only D c = 0: the top rows stay random
            mat[width:] = planted(p, width, nres, 0, vec,
                                  lambda: data.draw(entries))[width:]
        mats.append(mat)
    mats.append(identity_over(width, nres))
    mats = conjugated(mats, p, lambda lo, hi: data.draw(st.integers(lo, hi)))
    assert_walks_match_reference(mats, width, p)


@given(st.sampled_from([2, 3, 5, 7]), st.booleans(), st.data())
@settings(max_examples=20, deadline=None)
def test_engine_matches_reference_with_chains_planted_at_three_levels(
        p, first_line, data):
    """Walks over P^4, whose level families, over P^3, have level
    families of their own where they have rows to spare, as the first
    level, D, has: twice as many rows as the columns outside C_0.
    Members [M_j; D_j] over B = [I; 0] with C_0 >= span(e_0 .. e_k0-1),
    C_1 >= span(e_0 .. e_k1-1) and C_2 >= span(e_0 .. e_k2-1), k0 > k1 >
    k2 (the M_j take each span into the one before), conjugated: the
    chain has four levels at least, or the walk goes line by line.  With
    `first_line`, the member of the first level along e_last, D_3, loses
    a column outside C_0, so that level's walk decides its first line
    with a deficient reference."""
    width = data.draw(st.integers(4, 5))
    k2, k1, k0 = sorted(data.draw(st.lists(st.integers(1, width - 1),
                                           min_size=3, max_size=3,
                                           unique=True)))
    nres = data.draw(st.integers(2 * (width - k0), 2 * (width - k0) + 1))
    entries = st.integers(0, p - 1)
    mats = []
    for _ in range(4):
        top = [[0 if (j < k1 and i >= k0) or (j < k2 and i >= k1) else
                data.draw(entries) for j in range(width)]
               for i in range(width)]
        bottom = [[0 if j < k0 else data.draw(entries) for j in range(width)]
                  for _ in range(nres)]
        mats.append(top + bottom)
    if first_line:
        col = data.draw(st.integers(k0, width - 1))
        for row in mats[-1][width:]:
            row[col] = 0
    mats.append(identity_over(width, nres))
    mats = conjugated(mats, p, lambda lo, hi: data.draw(st.integers(lo, hi)))
    found = levels(mats, width, p)
    assert found is None or (
        len(found) >= 4 and sum(w for _, w in found) == width)
    assert_scan_matches_reference(mats, width, p)


def test_a_walk_over_p1_ends_with_its_first_line(monkeypatch):
    """On P^1 with e_last deficient, the first line is every other point:
    the walk decides it with the reference of e_last and reduces no
    second one."""
    p, width = 7, 3
    # e_last = diag(1, 1, 0); N(1, t) = diag(2 + t, 1 + t, 1) is
    # deficient at t = 5 and t = 6
    mats = [[[2, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[1, 0, 0], [0, 1, 0], [0, 0, 0]]]
    reductions = []
    reference = steiner._reference

    def counting(*args):
        reductions.append(args[1])
        return reference(*args)

    monkeypatch.setattr(steiner, "_reference", counting)
    images = [[x for row in mat for x in row] for mat in mats]
    got = [(x, kernel()) for x, _, kernel in steiner._walk(images, width, p)]
    assert reductions == [(0, 1)]
    assert [x for x, _ in got] == [(0, 1), (1, 5), (1, 6)]
    rows, a, m = pencil_rows(mats, width, False)
    assert got == reference_scan(rows, a, m, p, False)


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


def test_no_false_candidates(monkeypatch):
    """diagonal_ci with K+A at p = 7: the top walk reduces one reference,
    e_last, of full rank, and each level walk one of fewer members; no
    member of a line is eliminated, the one kernel elimination per point
    found within the top walk's line decisions is of M on W at an
    eigenvalue (square, of the size of a characteristic polynomial
    taken), and both scans together, over their 800 lines, take fewer
    than 20 characteristic polynomials in the top walk's line decisions
    (the pencil leaves took one per line) and fewer than 30 in their
    level walks."""
    scene = load_scene(str(SCENEDIR / "diagonal_ci.json"))
    pres = tautological_presentation(scene, resolve_label(scene, "K+A"),
                                     GF(7))
    calls = {"_reference": [], "_reduced_kernel": [], "_charpoly": [],
             "_point_kernel": []}
    # per running line shifts, outermost first: whether they decide a line
    # of the top walk, whose reference the first reduction gives
    deciding = []

    def counting(name):
        func = getattr(steiner, name)

        def wrapped(*args):
            calls[name].append((bool(deciding) and deciding[0],) + args)
            out = func(*args)
            if name == "_reference":
                calls[name][-1] += (out[0],)
            return out
        monkeypatch.setattr(steiner, name, wrapped)

    def tracking(flat, ref, width, p):
        deciding.append(ref is calls["_reference"][0][-1])
        try:
            return line_shifts(flat, ref, width, p)
        finally:
            deciding.pop()

    for name in calls:
        counting(name)
    line_shifts = steiner._line_shifts
    monkeypatch.setattr(steiner, "_line_shifts", tracking)
    taken = []
    for scan, unstable in ((validate_presentation, 0),
                           (valles_locus, 16)):
        for name in calls:
            calls[name].clear()
        report = scan(pres)
        assert len(getattr(report, "unstable", ())) == unstable
        # the top walk goes through e_last, which has full rank, and every
        # later reduction is a level walk's, over fewer coordinates
        (_, images, q, width, _, ref), *levels = calls["_reference"]
        assert q == (0, 0, 0, 0, 1) and len(ref) == width == len(images)
        assert levels and all(len(level[1]) < len(images)
                              for level in levels)
        dims_w = {len(mat) for line, mat, _ in calls["_charpoly"] if line}
        # every kernel elimination of the top walk is a line decision's,
        # one per point found, and no member is eliminated
        kernels = [call for call in calls["_reduced_kernel"] if call[0]]
        assert len(kernels) == unstable
        assert all(len(flat) == width * width and width in dims_w
                   for _, flat, width, _ in kernels)
        assert not calls["_point_kernel"]
        taken += calls["_charpoly"]
    # recovery reads the kernels the scan handed out
    assert len(pres._phis) == 16
    # over both scans: those taken in the top walk's line decisions, then
    # those of the level walks
    assert len([call for call in taken if call[0]]) < 20
    assert len([call for call in taken if not call[0]]) < 30


def test_planes_replace_line_decisions(monkeypatch):
    """diagonal_ci with K+A at p = 7 (a = m = 5): the chain of the walk
    through the vertex has two levels, families in y of widths 4 and 1,
    and the line decision runs only on the line through e_last and the
    lines that their walks flag: 5 and 9 lines, where a walk line by line
    decided all 400.  The level families are walked by the engine itself,
    with fewer decisions than the 57 planes of lines through the
    vertex."""
    scene = load_scene(str(SCENEDIR / "diagonal_ci.json"))
    pres = tautological_presentation(scene, resolve_label(scene, "K+A"),
                                     GF(7))
    decisions, depth, walks, families = [], [0], [], []
    flagged_lines, chain = steiner._flagged_lines, steiner._levels
    line_shifts = steiner._line_shifts

    def counting(flat, ref, width, p):
        if not depth[0]:
            decisions.append(width)
        depth[0] += 1
        try:
            return line_shifts(flat, ref, width, p)
        finally:
            depth[0] -= 1

    def recording(*args):
        # the lines each walk hands on, the top walk's first
        lines = []
        walks.append(lines)
        for y, cur in flagged_lines(*args):
            lines.append(y)
            yield y, cur

    def leveling(steps, width, p):
        out = chain(steps, width, p)
        families.append(out and [w for _, w in out])
        return out

    monkeypatch.setattr(steiner, "_line_shifts", counting)
    monkeypatch.setattr(steiner, "_flagged_lines", recording)
    monkeypatch.setattr(steiner, "_levels", leveling)
    planes = projective_count(7, 3)
    assert planes == 57 and projective_count(7, 4) == 400
    for scan, decided in ((validate_presentation, 5), (valles_locus, 9)):
        for log in (decisions, walks, families):
            log.clear()
        scan(pres)
        lines = walks[0]
        assert len(lines) == len(set(lines)) == decided
        assert families[0] == [4, 1]
        # one decision of width 5 per line handed on; the level walks'
        # are narrower
        assert decisions.count(5) == decided
        assert all(width < 5 for width in decisions if width != 5)
        assert 0 < len(decisions) - decided < planes


def plant_rank_one(rows, a, m, u, v, p):
    """The tensor rows changed in one column so that u (x) v is in the
    kernel: the column of u_i v_j at the leads of u and v is set to minus
    the combination of the others."""
    i0, j0 = u.index(1), v.index(1)
    out = []
    for row in rows:
        row = list(row)
        row[i0 * m + j0] = -sum(
            u[i] * v[j] * row[i * m + j] for i in range(a)
            for j in range(m) if (i, j) != (i0, j0)) % p
        out.append(tuple(row))
    return out


@pytest.mark.parametrize("a,m,b,seed", [(3, 3, 6, 1), (4, 2, 7, 2),
                                        (2, 4, 6, 3), (3, 2, 5, 4)])
@pytest.mark.parametrize("before", [True, False],
                         ids=["before_vertex", "after_vertex"])
def test_invalid_presentation_matches_the_oracle(monkeypatch, a, m, b, seed,
                                                before):
    """A rank-one kernel vector u (x) v planted at e_last of the walked
    factor, before the vertex, or at a point after it: the report gives
    the oracle's fibers_scanned and witness either way.  When the walk is
    over P(V), it stops at the line of the first bad fiber, or before any
    line when that fiber is e_last."""
    p, over_u1 = 7, a < m
    n = a if over_u1 else m
    rng = random.Random(seed)
    rows = [tuple(rng.randrange(p) for _ in range(a * m)) for _ in range(b)]
    walked = projective_unrank(p, n, 0 if before else
                               rng.randrange(2, projective_count(p, n)))
    other = normalize_projective(GF(p), [rng.randrange(1, p) for _ in
                                         range(m if over_u1 else a)])
    u, v = (walked, other) if over_u1 else (other, walked)
    rows = plant_rank_one(rows, a, m, u, v, p)
    vertex = vertex_of(rows, a, m, p, over_u1)
    assert vertex is not None and (walked < vertex) == before
    pres = SteinerPresentation(Matrix(GF(p), b, a * m, tuple(rows)), a, m, b)
    lines = []
    flagged_lines = steiner._flagged_lines

    def recording(*args):
        for y, cur in flagged_lines(*args):
            yield y, cur
            # the walk asks for the next line once y is decided
            lines.append(y)

    monkeypatch.setattr(steiner, "_flagged_lines", recording)
    report = validate_presentation(pres)
    assert not report.valid
    assert report == reference_validation(pres)
    if not over_u1:
        assert report.fibers_scanned == projective_rank(p, v) + 1
        if before:
            assert not lines
        else:
            # v lies on the line through e_last and v[:-1], the last line
            # decided; the planes before it hand on no more lines than a
            # walk line by line decides
            assert vertex == projective_unrank(p, m, 0)
            assert lines[-1] == v[:-1]
            assert len(lines) <= projective_rank(p, v[:-1]) + 1


# ---- recovery against the left kernel of the restricted matrix -------------
#
# The per-point recovery that the kept elimination of T replaced, kept as an
# oracle: the left kernel of the b x a(m-1) restricted matrix at each point.


def reference_recovery(pres, lam):
    kd = left_kernel(pres.restricted_matrix(lam))
    if kd.nullity != 1:
        raise NonUniqueQuotient(
            f"cokernel dimension is {kd.nullity}, recovery needs exactly 1")
    return normalize_projective(pres.field, kd.kernel[0])


def recovery_outcome(recover, pres, lam):
    """The recovered functional, or the message of the refusal."""
    try:
        return recover(pres, lam)
    except NonUniqueQuotient as exc:
        return str(exc)


def assert_recovery_matches_reference(pres, lams, unscaled):
    """Recovery at each lam of `lams`, then at each lam of `unscaled`
    times a scalar other than 1 (where F_p has one), on a fresh
    presentation, after one scan and after a second.  Every time the same
    psi or the same refusal message: the reference's at `lams`, and at a
    rescaled lam the same as at lam.  After a scan the presentation holds
    a phi at exactly the hyperplanes of cokernel 1 when r = b, and at none
    when r < b."""
    p = pres.field.characteristic
    scaled = [[c * x for x in lam]
              for lam, c in zip(unscaled, itertools.cycle(range(2, p)))]

    def outcomes():
        return [recovery_outcome(recover_section_point, pres, lam)
                for lam in lams + scaled]

    assert not pres._phis
    before = outcomes()
    assert before[:len(lams)] == [recovery_outcome(reference_recovery, pres,
                                                   lam) for lam in lams]
    assert before[len(lams):] == [recovery_outcome(recover_section_point,
                                                   pres, lam)
                                  for lam in unscaled[:len(scaled)]]
    r = pres._elimination()[0]
    for _ in range(2):
        report = valles_locus(pres)
        ones = {lam for lam, coker in report.unstable if coker == 1}
        assert set(pres._phis) == (ones if r == pres.dim_u0 else set())
        assert outcomes() == before
    return before


def assert_kept_elimination(pres):
    """r and K as rank_kernel gives them, R_k = E_k T at the pivots, and
    the E_k with k >= r independent rows of the left kernel."""
    r, kernel, pivots, rows = pres._elimination()
    kd = rank_kernel(pres.tensor)
    assert (r, kernel, tuple(pivots)) == (kd.rank, kd.kernel, kd.pivots)
    ech = rref(pres.tensor)
    prod = matrix(pres.field, rows).mul(pres.tensor).entries
    assert prod[:r] == ech.rows
    assert not any(map(any, prod[r:]))
    assert rank(matrix(pres.field, rows)) == pres.dim_u0


# P(V)(F_p) of more points than this is checked at its unstable points and a
# seeded sample of the rest, as the largest spaces (diagonal_ci at 7 and 11)
# would take seconds a scene
RECOVERY_CAP = 800
# the point sets leave general position at the other primes
RECOVERY_PRIMES = {"seven_on_twisted_cubic": (7, 11),
                   "seven_general_f11": (11,)}


@pytest.mark.parametrize("stem,label,p", [
    (stem, label, p) for stem, labels, _ in CATALOGUE for label in labels
    for p in RECOVERY_PRIMES.get(stem, (5, 7, 11))])
def test_recovery_matches_reference_on_the_catalogue(stem, label, p):
    unstable = [lam for lam, _ in valles_locus(
        catalogue_presentation(stem, label, p)).unstable]
    pres = catalogue_presentation(stem, label, p)
    lams = list(projective_reps(p, pres.dim_v))
    if len(lams) > RECOVERY_CAP:
        rest = sorted(set(lams) - set(unstable))
        lams = unstable + random.Random(f"{stem}:{label}:{p}").sample(
            rest, max(0, RECOVERY_CAP - len(unstable)))
    assert_recovery_matches_reference(pres, lams, unstable)


@given(st.sampled_from([2, 3, 5, 7]), SHAPES, st.integers(0, 3), st.data())
@settings(max_examples=120, deadline=None)
def test_recovery_matches_reference_on_random_tensors(p, shape, deficiency,
                                                      data):
    """r = b, b - 1 and below, a = 0 and b < am included: every lam of
    P(V)(F_p), and each of them rescaled."""
    a, m, b = shape
    r = max(0, min(b, a * m) - deficiency)
    pres = low_rank_tensor(p, a, m, b, r, data.draw(st.integers(0, 10 ** 6)))
    assert_kept_elimination(pres)
    lams = list(projective_reps(p, m))
    assert_recovery_matches_reference(pres, lams, lams)


# ---- recovery that reads the scan -------------------------------------------
#
# After `valles_locus`, recovery reads the phi the scan found at each
# hyperplane of cokernel 1 instead of solving N(lam); the helper above runs
# every recovery check with and without a prior scan.


@pytest.mark.parametrize("degree,p", [(4, 5), (3, 7)])
def test_recovery_reads_the_scan_on_a_direct_sum(degree, p):
    """The block sum of the presentation of a rational normal curve (B =
    O(5)) with itself: cokernel 2 at every curve point, where recovery
    must refuse with and without a scan; a < m for the quartic and
    a >= m for the cubic."""
    a, m, b = 6 - degree, degree + 1, 6
    tensor = P1Series(degree).multiplication_map(5 - degree, degree, GF(p))
    pad = (0,) * (a * m)
    rows = [row + pad for row in tensor.entries] + \
        [pad + row for row in tensor.entries]
    pres = SteinerPresentation(matrix(GF(p), rows), 2 * a, m, 2 * b)
    assert (2 * a < m) == (degree == 4) and pres._elimination()[0] == 2 * b
    points = [rec.phi for rec in P1Series(degree).enumerate_points(p).records]
    outcomes = assert_recovery_matches_reference(
        pres, list(projective_reps(p, m)), points)
    assert dict(valles_locus(pres).unstable)[points[0]] == 2
    assert "cokernel dimension is 2, recovery needs exactly 1" in outcomes


def test_recovery_after_the_scan_eliminates_nothing(monkeypatch):
    """The twisted cubic with B = O(5) at p = 13 (a < m, r = b): after the
    scan, recovery at every image point reads the scan's phi and makes
    no elimination."""
    pres = tc_presentation(p=13)
    valles_locus(pres)
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(steiner, "eliminate", counting)
    points = [rec.phi for rec in P1Series(3).enumerate_points(13).records]
    assert len(points) == 14
    for lam in points:
        recover_section_point(pres, lam)
    assert not calls
