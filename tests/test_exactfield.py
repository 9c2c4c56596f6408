import math
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steinertorelli.errors import (BadPrime, FieldMismatch, NonPrimeModulus,
                                   ShapeMismatch)
from steinertorelli.exactfield import (GF, QQ, Matrix, _is_prime,
                                       eliminate, kernel_basis, left_kernel,
                                       normalize_projective,
                                       projective_count, projective_rank,
                                       projective_reps, projective_unrank,
                                       rank, rank_kernel, rref,
                                       span_reduction)

PRIMES = [2, 3, 5, 7, 11, 13]


def mat_vec(m, vec):
    """M times the column vector `vec`, each entry normalized: a checking
    tool for kernels and reductions."""
    assert len(vec) == m.ncols
    zero = m.field.zero
    return tuple(m.field.normalize(sum(map(mul, row, vec), zero))
                 for row in m.entries)


def matrix(field, rows, ncols=None):
    """The Matrix with these rows, its constructor normalizing each entry;
    `ncols` defaults to the length of the first row (0 with no rows)."""
    rows = tuple(map(tuple, rows))
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return Matrix(field, len(rows), ncols, rows)


# ---- fields -------------------------------------------------------------

def test_inverse_in_f7():
    assert GF(7).inv(3) == 5


@pytest.mark.parametrize("p", PRIMES)
def test_scalar_arithmetic_exhaustive(p):
    fld = GF(p)
    for a in range(p):
        assert fld.normalize(-a) == (p - a) % p
        assert fld.normalize(a - 3 * p) == a
        if a:
            assert fld.normalize(a * fld.inv(a)) == 1
        for b in range(1, p):
            assert fld.normalize(Fraction(a, b)) * b % p == a
            assert fld.normalize(Fraction(-a, b)) * b % p == (-a) % p


@pytest.mark.parametrize("n", [1, 4, 6, 9, 15, 2 ** 31, 2 ** 31 + 11])
def test_non_prime_modulus_rejected(n):
    with pytest.raises(NonPrimeModulus):
        GF(n)


def test_is_prime_against_a_sieve():
    sieve = [False, False] + [True] * 4999
    for d in range(2, 71):
        sieve[d * d::d] = [False] * len(sieve[d * d::d])
    assert [_is_prime(n) for n in range(5001)] == sieve


@pytest.mark.parametrize("n,prime", [
    (2 ** 31 - 1, True), (46337, True),
    # 46337 ** 2 = 2,147,117,569: its only factor is exactly isqrt(n)
    (46337 ** 2, False),
    # Carmichael numbers pass Fermat's test to every coprime base
    (561, False), (1105, False), (1729, False)])
def test_is_prime_at_the_edges(n, prime):
    assert _is_prime(n) is prime
    if prime:
        assert GF(n).characteristic == n
    else:
        with pytest.raises(NonPrimeModulus):
            GF(n)


def test_fraction_reduction_mod_p():
    fld = GF(7)
    assert fld.normalize(Fraction(1, 2)) == 4      # 2*4 = 8 = 1
    assert fld.normalize(Fraction(-3, 5)) == 5     # -3 * 5^-1 = 4*3 = 12 = 5
    with pytest.raises(BadPrime):
        fld.normalize(Fraction(1, 7))


def test_zero_not_invertible():
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_field_coercion_rejects_junk():
    with pytest.raises(FieldMismatch):
        GF(5).normalize("3")
    with pytest.raises(FieldMismatch):
        QQ.normalize(0.5)


# ---- matrices -----------------------------------------------------------

def test_matrix_normalizes_entries():
    m = matrix(GF(5), [(7, -1, Fraction(1, 2))])
    assert m.entries == ((2, 4, 3),)


def test_shape_checks():
    with pytest.raises(ShapeMismatch):
        Matrix(GF(5), 2, 2, ((1, 2),))
    with pytest.raises(ShapeMismatch):
        matrix(GF(5), [(1, 2), (1,)])
    a = matrix(GF(5), [(1, 2)])
    b = matrix(GF(5), [(1, 2)])
    with pytest.raises(ShapeMismatch):
        a.mul(b)


def test_field_mismatch_on_mixing():
    a = matrix(GF(5), [(1,)])
    b = matrix(GF(7), [(1,)])
    with pytest.raises(FieldMismatch):
        a.mul(b)


def test_matmul_and_transpose():
    fld = GF(7)
    a = matrix(fld, [(1, 2), (3, 4)])
    b = matrix(fld, [(5, 6), (0, 1)])
    assert a.mul(b).entries == ((5, 1), (1, 1))    # [[5,8],[15,22]] mod 7
    assert a.transpose().entries == ((1, 3), (2, 4))
    assert mat_vec(a, (1, 1)) == (3, 0)


# The F_5 matrix [[1,2,3],[2,4,1]] has proportional rows because
# 2*(1,2,3) = (2,4,6) = (2,4,1) mod 5: rank 1, nullity 2.  The same integer
# matrix over QQ has rank 2 with one dimensional kernel spanned by
# (-2, 1, 0), orthogonal to both rows.
def test_rank_kernel_f5_example():
    m = matrix(GF(5), [(1, 2, 3), (2, 4, 1)])
    kd = rank_kernel(m)
    assert kd.rank == 1
    assert kd.kernel == ((3, 1, 0), (2, 0, 1))
    for v in kd.kernel:
        assert mat_vec(m, v) == (0, 0)


def test_rank_kernel_qq_example():
    m = matrix(QQ, [(1, 2, 3), (2, 4, 1)])
    kd = rank_kernel(m)
    assert kd.rank == 2
    assert kd.kernel == ((Fraction(-2), Fraction(1), Fraction(0)),)
    assert mat_vec(m, kd.kernel[0]) == (Fraction(0), Fraction(0))


def test_rref_canonical_form():
    m = matrix(QQ, [(0, 2, 4), (1, 1, 1)])
    ech = rref(m)
    assert ech.pivots == (0, 1)
    assert ech.rows == ((Fraction(1), Fraction(0), Fraction(-1)),
                        (Fraction(0), Fraction(1), Fraction(2)))


def test_identity_and_zero():
    fld = GF(3)
    assert not matrix(fld, [(1, 0), (0, 1)]).is_zero()
    assert Matrix(fld, 2, 3, ((0, 0, 0),) * 2).is_zero()


def test_left_kernel():
    m = matrix(GF(5), [(1, 0), (2, 0), (0, 0)])
    kd = left_kernel(m)
    assert kd.rank == 1
    # row relations: r1 - 2 r0 = 0 and r2 = 0
    assert kd.kernel == ((3, 1, 0), (0, 0, 1))


def test_map_to_reduces_rationals():
    # the Matrix constructor is the one boundary that reduces QQ data
    rows = [(Fraction(1, 2), 3)]
    assert matrix(GF(5), rows).entries == ((3, 3),)
    with pytest.raises(BadPrime):
        matrix(GF(2), rows)


# ---- hypothesis properties ----------------------------------------------

def _matrix_strategy(field_st):
    @st.composite
    def build(draw):
        fld = draw(field_st)
        nrows = draw(st.integers(1, 5))
        ncols = draw(st.integers(1, 5))
        ent = draw(st.lists(
            st.lists(st.integers(-20, 20), min_size=ncols, max_size=ncols),
            min_size=nrows, max_size=nrows))
        return matrix(fld, ent)
    return build()


any_field = st.sampled_from([GF(p) for p in PRIMES] + [QQ])
matrices = _matrix_strategy(any_field)


@given(matrices)
@settings(max_examples=120, deadline=None)
def test_rank_plus_nullity(m):
    kd = rank_kernel(m)
    assert kd.rank + kd.nullity == m.ncols


@given(matrices)
@settings(max_examples=120, deadline=None)
def test_kernel_vectors_annihilated(m):
    kd = rank_kernel(m)
    zero = (m.field.zero,) * m.nrows
    free = [j for j in range(m.ncols) if j not in kd.pivots]
    assert len(free) == kd.nullity
    for i, v in enumerate(kd.kernel):
        assert mat_vec(m, v) == zero
        # canonical form: 1 at the vector's own free coordinate, 0 at
        # every other free coordinate
        for j, f in enumerate(free):
            assert v[f] == (m.field.one if j == i else m.field.zero)


@given(matrices)
@settings(max_examples=120, deadline=None)
def test_rank_equals_transpose_rank(m):
    assert rank(m) == rank(m.transpose())


# ---- the elimination kernel ---------------------------------------------

@st.composite
def sparse_matrices(draw, fields=any_field):
    """Matrices with whole zero rows and columns, shapes 0 x n and n x 0
    included."""
    fld = draw(fields)
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    dead_rows = draw(st.sets(st.integers(0, 5)))
    dead_cols = draw(st.sets(st.integers(0, 5)))
    rows = tuple(tuple(0 if i in dead_rows or j in dead_cols
                       else draw(st.integers(-9, 9)) for j in range(ncols))
                 for i in range(nrows))
    return Matrix(fld, nrows, ncols, rows)


@given(sparse_matrices())
@example(Matrix(GF(5), 0, 3, ()))
@example(Matrix(QQ, 0, 2, ()))
@example(Matrix(GF(7), 2, 3, ((0, 0, 0),) * 2))
@example(Matrix(QQ, 1, 3, ((0, 0, 0),)))
# the kernel vector (1, 1) holds a 1 at the pivot 0 as well as at its
# free coordinate 1, so the complement is not where a kernel vector is 1
@example(Matrix(GF(5), 1, 2, ((1, 4),)))
@settings(max_examples=150, deadline=None)
def test_span_reduction_kills_rows(m):
    kd = span_reduction(m.entries, m.ncols, m.field)
    pivots = rref(m).pivots
    assert kd.pivots == pivots
    assert kd.complement == tuple(j for j in range(m.ncols)
                                  if j not in pivots)
    assert kd.rank + kd.nullity == m.ncols
    zero, one = m.field.zero, m.field.one
    reduce = matrix(m.field, kd.kernel, m.ncols)
    for row in m.entries:
        assert mat_vec(reduce, row) == (zero,) * kd.nullity
    # complement coordinates really are coordinates: reducing the unit
    # vector at complement position i gives the i-th standard vector
    for i, c in enumerate(kd.complement):
        unit = [zero] * m.ncols
        unit[c] = one
        assert mat_vec(reduce, unit) == tuple(
            one if j == i else zero for j in range(kd.nullity))


@given(sparse_matrices())
@settings(max_examples=150, deadline=None)
def test_rank_only_elimination_agrees_with_full(m):
    p = m.field.characteristic
    full = eliminate([list(r) for r in m.entries], m.ncols, p)
    short = eliminate([list(r) for r in m.entries], m.ncols, p, full=False)
    assert short == full
    assert rank(m) == rref(m).rank == len(full)


@given(sparse_matrices())
@settings(max_examples=150, deadline=None)
def test_rref_is_reduced_echelon(m):
    ech = rref(m)
    zero, one = m.field.zero, m.field.one
    assert list(ech.pivots) == sorted(set(ech.pivots))
    for i, (row, c) in enumerate(zip(ech.rows, ech.pivots)):
        assert all(x == zero for x in row[:c])
        assert row[c] == one
        assert all(other[c] == zero
                   for k, other in enumerate(ech.rows) if k != i)
    # the reduced rows span the row space of m
    both = Matrix(m.field, m.nrows + ech.rank, m.ncols,
                  m.entries + ech.rows)
    assert rank(both) == ech.rank


@given(sparse_matrices())
@settings(max_examples=150, deadline=None)
def test_kernel_vectors_annihilated_on_degenerate_shapes(m):
    kd = rank_kernel(m)
    assert kd.rank + kd.nullity == m.ncols
    for v in kd.kernel:
        assert mat_vec(m, v) == (m.field.zero,) * m.nrows
    lk = left_kernel(m)
    assert lk.rank == kd.rank
    for v in lk.kernel:
        assert mat_vec(m.transpose(), v) == (m.field.zero,) * m.ncols


def test_qq_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")

    @given(sparse_matrices(st.just(QQ)))
    @settings(max_examples=100, deadline=None)
    def check(m):
        oracle = sympy.Matrix(m.nrows, m.ncols, [
            sympy.Rational(x.numerator, x.denominator)
            for row in m.entries for x in row])
        assert rank(m) == oracle.rank()

    check()


def fraction_gauss_jordan(rows, ncols, full=True):
    """The reference for `eliminate` over QQ: Gauss-Jordan on Fractions,
    each pivot row scaled to a leading 1 and subtracted from the others.
    Returns the pivot columns and the reduced rows."""
    work = [[Fraction(x) for x in row] for row in rows]
    nrows, pivots, r = len(work), [], 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        row = work[r]
        inv = 1 / row[c]
        for j in range(c, ncols):
            row[j] = row[j] * inv
        for i in range(0 if full else r + 1, nrows):
            f = work[i][c]
            if f and i != r:
                tgt = work[i]
                for j in range(c, ncols):
                    tgt[j] -= f * row[j]
        pivots.append(c)
        r += 1
    return pivots, work


rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-10 ** 4, max_value=10 ** 4,
                 max_denominator=10 ** 6))


@st.composite
def qq_matrices(draw):
    """Rational matrices with large denominators and negative entries,
    whole zero rows and columns, 0 x n and n x 0 shapes, rank-deficient
    products A*B, and repeated rows (which repeat pivots)."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    if draw(st.booleans()):
        inner = draw(st.integers(0, 3))
        a = draw(st.lists(st.lists(rationals, min_size=inner,
                                   max_size=inner),
                          min_size=nrows, max_size=nrows))
        b = draw(st.lists(st.lists(rationals, min_size=ncols,
                                   max_size=ncols),
                          min_size=inner, max_size=inner))
        rows = [[sum((x * y for x, y in zip(ra, cb)), Fraction(0))
                 for cb in zip(*b)] if b else [Fraction(0)] * ncols
                for ra in a]
    else:
        dead_rows = draw(st.sets(st.integers(0, 5)))
        dead_cols = draw(st.sets(st.integers(0, 5)))
        rows = [[Fraction(0) if i in dead_rows or j in dead_cols
                 else draw(rationals) for j in range(ncols)]
                for i in range(nrows)]
    if rows:
        for _ in range(draw(st.integers(0, 3))):
            src = draw(st.sampled_from(rows))
            scale = draw(st.one_of(st.just(1), rationals.filter(bool)))
            rows.insert(draw(st.integers(0, len(rows))),
                        [scale * x for x in src])
    return Matrix(QQ, len(rows), ncols, tuple(map(tuple, rows)))


def _projective(row):
    """A row scaled to a leading 1, so proportional rows compare equal."""
    lead = next((x for x in row if x), 1)
    return [Fraction(x) / lead for x in row]


@given(qq_matrices(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_qq_elimination_matches_fraction_reference(m, full):
    pivots, ref = fraction_gauss_jordan(m.entries, m.ncols, full)
    work = [list(r) for r in m.entries]
    assert eliminate(work, m.ncols, 0, full) == pivots
    assert rank(m) == len(pivots)
    if full:
        assert work == ref
        assert all(type(x) is Fraction for row in work for x in row)
    else:
        # integer rows, primitive, each a multiple of the reference row
        assert all(type(x) is int for row in work for x in row)
        for row, want in zip(work, ref):
            assert math.gcd(*row) in (0, 1)
            assert _projective(row) == _projective(want)


@given(qq_matrices())
@settings(max_examples=200, deadline=None)
def test_qq_rref_and_kernel_match_fraction_reference(m):
    pivots, ref = fraction_gauss_jordan(m.entries, m.ncols)
    ref_rows = tuple(map(tuple, ref[:len(pivots)]))
    ech = rref(m)
    assert (ech.rows, ech.pivots) == (ref_rows, tuple(pivots))
    assert all(type(x) is Fraction for row in ech.rows for x in row)
    kd = rank_kernel(m)
    assert kd.rank == len(pivots)
    assert kd.kernel == kernel_basis(ref_rows, pivots, m.ncols, QQ)
    assert all(type(x) is Fraction for v in kd.kernel for x in v)


@given(st.sampled_from([2, 3, 5, 7, 13, 2 ** 31 - 1]), st.integers(0, 6),
       st.integers(1, 7), st.data())
@settings(max_examples=200, deadline=None)
def test_gf_kernel_basis_matches_rank_kernel(p, nrows, ncols, data):
    """kernel_basis mod p, read off rows that `eliminate` reduced, against
    rank_kernel of the Matrix and the entry-by-entry normalized formula:
    residues, the canonical form, and M v = 0."""
    # mostly zeros at times, so that columns are free or rows dependent
    entries = st.sampled_from([0, 0, 1, p - 1]) | st.integers(0, p - 1)
    rows = [[data.draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    m = Matrix(GF(p), nrows, ncols, tuple(map(tuple, rows)))
    work = [list(row) for row in rows]
    pivots = eliminate(work, ncols, p)
    basis = kernel_basis(work, pivots, ncols, GF(p))
    assert basis == rank_kernel(m).kernel
    assert len(basis) == ncols - len(pivots)
    free = [f for f in range(ncols) if f not in pivots]
    for f, v in zip(free, basis):
        want = [0] * ncols
        want[f] = 1
        for row, pc in zip(work, pivots):
            want[pc] = GF(p).normalize(-row[f])
        assert v == tuple(want)
        assert all(type(x) is int and 0 <= x < p for x in v)
        assert mat_vec(m, v) == (0,) * nrows


# ---- projective enumeration ---------------------------------------------

@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 3), (7, 2)])
def test_projective_reps(p, m):
    reps = list(projective_reps(p, m))
    assert len(reps) == projective_count(p, m)
    assert len(set(reps)) == len(reps)
    assert reps == sorted(reps)
    fld = GF(p)
    for v in reps:
        assert normalize_projective(fld, v) == v
        lead = next(x for x in v if x != 0)
        assert lead == 1


@pytest.mark.parametrize("p,m", [(p, m) for p in (2, 3, 5)
                                 for m in (1, 2, 3, 4)] + [(7, 2), (11, 3)])
def test_projective_unrank_follows_enumeration_order(p, m):
    reps = list(projective_reps(p, m))
    assert [projective_unrank(p, m, i) for i in range(len(reps))] == reps
    assert [projective_rank(p, v) for v in reps] == list(range(len(reps)))


def test_normalize_projective():
    fld = GF(7)
    assert normalize_projective(fld, (0, 3, 5)) == (0, 1, 4)
    assert normalize_projective(fld, (0, 0, 0)) is None
