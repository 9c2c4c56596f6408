import ast
import math
import os
import subprocess
import sys
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steinertorelli.errors import (BadPrime, FieldMismatch, NonPrimeModulus,
                                   ShapeMismatch)
from steinertorelli.exactfield import (GF, QQ, Matrix, _is_prime,
                                       eliminate, kept, kernel_basis,
                                       left_kernel,
                                       normalize_projective,
                                       projective_count, projective_rank,
                                       projective_reps, projective_unrank,
                                       rank, rank_kernel, roots, rref,
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


# ---- roots mod p ----------------------------------------------------------
#
# `roots` is checked against the sweep it replaced in the line decisions:
# Horner at every point of F_p.  The primes cover p = 2, where every
# polynomial is swept, p = 3 mod 4, where a square root is one power, and
# p = 1 mod 4, where it is Tonelli-Shanks: 1009 - 1 = 63 * 2^4 and 257 - 1
# = 2^8 take several of its rounds.

ROOT_PRIMES = [2, 3, 5, 7, 13, 1009]


def swept_roots(coeffs, p):
    """The t in F_p, ascending, where the polynomial with these
    coefficients, leading one first, vanishes: Horner at every t."""
    out = []
    for t in range(p):
        value = 0
        for c in coeffs:
            value = (value * t + c) % p
        if not value:
            out.append(t)
    return out


def poly_mul(f, g, p):
    """The product of two polynomials mod p, coefficients leading first."""
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def nonresidues(p):
    return [n for n in range(1, p) if pow(n, (p - 1) // 2, p) == p - 1]


def irreducible_quadratic(p, draw):
    """A monic quadratic with no root in F_p: x^2 + x + 1 over F_2, and
    (x - s)^2 - n for a non-residue n otherwise."""
    if p == 2:
        return [1, 1, 1]
    n, s = draw(st.sampled_from(nonresidues(p))), draw(st.integers(0, p - 1))
    return [1, -2 * s % p, (s * s - n) % p]


@given(st.sampled_from(ROOT_PRIMES), st.integers(0, 8),
       st.sampled_from(["random", "planted", "irreducible"]), st.data())
@settings(max_examples=400, deadline=None)
def test_roots_match_the_sweep(p, degree, kind, data):
    """Degrees 0 to 8: coefficients at random; planted roots, repeated
    ones among them, times a random cofactor; and an irreducible
    quadratic times such factors.  Zero leading coefficients are put in
    front at times, and residues outside [0, p)."""
    def draw(strategy):
        return data.draw(strategy)

    entries = st.sampled_from([0, 0, 1, p - 1]) | st.integers(0, p - 1)
    if kind == "random":
        coeffs = [draw(entries) for _ in range(degree + 1)]
    else:
        coeffs = [draw(st.integers(1, p - 1))]
        if kind == "irreducible" and degree >= 2:
            coeffs = poly_mul(coeffs, irreducible_quadratic(p, draw), p)
        planted = draw(st.lists(st.sampled_from(range(min(p, 3))) |
                                st.integers(0, p - 1),
                                max_size=degree + 1 - len(coeffs)))
        for r in planted:
            coeffs = poly_mul(coeffs, [1, -r % p], p)
        rest = degree + 1 - len(coeffs)
        if rest > 0:
            coeffs = poly_mul(coeffs, [1] + [draw(entries)
                                             for _ in range(rest)], p)
        want = swept_roots(coeffs, p)
        assert set(planted) <= set(want)
        if kind == "irreducible" and degree == 2:
            assert not want
    coeffs = [0] * draw(st.integers(0, 2)) + coeffs
    if draw(st.booleans()):
        coeffs = [c + p * draw(st.integers(-2, 2)) for c in coeffs]
    assert roots(coeffs, p) == swept_roots(coeffs, p)


@pytest.mark.parametrize("p", ROOT_PRIMES)
def test_roots_of_zero_and_of_every_linear_factor(p):
    """The zero polynomial vanishes everywhere, a nonzero constant
    nowhere, and the product of every x - a, x^p - x, everywhere."""
    assert roots([], p) == roots([0], p) == roots([0, 0, 0], p) == \
        list(range(p))
    assert roots([3 % p or 1], p) == roots([0, 0, 1], p) == []
    every = [1]
    for a in range(p):
        every = poly_mul(every, [1, -a % p], p)
    assert every == [1] + [0] * (p - 2) + [p - 1, 0]
    assert roots(every, p) == list(range(p))


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 257, 1009])
def test_roots_of_every_monic_pure_quadratic(p):
    """x^2 - a for every a: the square roots of a when it is a square,
    none when it is not, and one double root at a = 0."""
    squares = {}
    for s in range(p):
        squares.setdefault(s * s % p, set()).add(s)
    for a in range(p):
        assert roots([1, 0, -a % p], p) == sorted(squares.get(a, ()))


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


def _generic_normalize_projective(field, vec):
    """Every entry, and every scaled entry, through `field.normalize`."""
    vec = [field.normalize(x) for x in vec]
    for x in vec:
        if x:
            inv = field.inv(x)
            return tuple(field.normalize(inv * y) for y in vec)
    return None


@given(p=st.sampled_from([2, 3, 5, 13, 101]), data=st.data())
@settings(max_examples=200, deadline=None)
def test_normalize_projective_mod_p_matches_generic_scaling(p, data):
    """Mod p the scaled entries are reduced by `% p` alone; the result is
    the generic one for ints of either sign, Fractions whose denominator
    is prime to p, and the zero vector.  A denominator divisible by p is
    still a BadPrime."""
    fld = GF(p)
    ints = st.integers(-3 * p, 3 * p)
    prime_to_p = ints.filter(lambda d: d % p)
    entry = st.one_of(ints, st.builds(Fraction, ints, prime_to_p),
                      st.just(0))
    vec = data.draw(st.lists(entry, min_size=1, max_size=6))
    got = normalize_projective(fld, vec)
    assert got == _generic_normalize_projective(fld, vec)
    if got is None:
        assert not any(map(fld.normalize, vec))
    else:
        assert all(type(x) is int and 0 <= x < p for x in got)
    assert normalize_projective(fld, [0] * len(vec)) is None
    bad = data.draw(st.integers(0, len(vec) - 1))
    vec[bad] = Fraction(1, p * data.draw(prime_to_p))
    with pytest.raises(BadPrime):
        normalize_projective(fld, vec)


# ---- values kept per instance -------------------------------------------


class Counted:
    """A method under `kept` that records every run of its body and
    refuses a negative argument."""

    def __init__(self):
        self.runs = []

    @kept
    def table(self, k, field=QQ):
        self.runs.append((k, field))
        if k < 0:
            raise BadPrime(f"refused {k}")
        return [k, field]


class Unkept(Counted):
    """`Counted.table` without `kept`, bound as Python binds it."""

    table = Counted.table.__wrapped__


def test_kept_returns_the_same_object():
    obj = Counted()
    first = obj.table(2, GF(5))
    assert obj.table(2, GF(5)) is first
    assert obj.table(3, GF(5)) == [3, GF(5)]
    assert obj.runs == [(2, GF(5)), (3, GF(5))]


def test_kept_keeps_nothing_when_the_body_raises():
    obj = Counted()
    for _ in range(3):
        with pytest.raises(BadPrime):
            obj.table(-1)
    assert obj.runs == [(-1, QQ)] * 3
    assert all(not table for table in vars(obj).values()
               if isinstance(table, dict))


def test_kept_fills_in_defaults_before_keying():
    obj = Counted()
    first = obj.table(1)
    assert obj.table(1, QQ) is first
    assert obj.table(1, field=QQ) is first
    assert obj.table(k=1) is first
    assert obj.runs == [(1, QQ)]


def test_kept_values_are_per_instance():
    a, b = Counted(), Counted()
    assert a.table(4) is not b.table(4)
    assert a.runs == b.runs == [(4, QQ)]


def test_kept_seed_keeps_a_value_without_running_the_body():
    obj = Counted()
    Counted.table.seed(obj, 5, value="seeded")
    assert obj.table(5, QQ) == "seeded"
    assert obj.runs == []


@pytest.mark.parametrize("call", [
    lambda obj: obj.table(1, shape=QQ),             # not a parameter
    lambda obj: obj.table(1, k=2),                  # k given twice
    lambda obj: obj.table(1, QQ, field=QQ),         # field given twice
    lambda obj: obj.table(1, QQ, 3),                # one argument too many
    lambda obj: obj.table(field=QQ),                # k missing
])
def test_kept_refuses_a_call_python_refuses(call):
    obj, plain = Counted(), Unkept()
    with pytest.raises(TypeError):
        call(obj)
    with pytest.raises(TypeError):
        call(plain)
    assert obj.runs == plain.runs == []
    assert all(not table for table in vars(obj).values()
               if isinstance(table, dict))


def _instance_dict_writes(tree):
    """Lines that keep values on an instance by hand: any use of
    `__dict__`, a call on `vars(...)`, a subscript store or
    `setdefault`/`update` on an attribute of `self`, or a
    `cached_property` decorator.  `kept` itself stores with
    object.__setattr__."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "__dict__":
            lines.append(node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines += [dec.lineno for dec in node.decorator_list
                      if getattr(dec, "id", getattr(dec, "attr", None)) ==
                      "cached_property"]
        elif isinstance(node, (ast.Attribute, ast.Subscript)) and \
                isinstance(node.value, ast.Call) and \
                isinstance(node.value.func, ast.Name) and \
                node.value.func.id == "vars":
            lines.append(node.lineno)
        elif isinstance(node, ast.Subscript) and \
                isinstance(node.ctx, ast.Store) and \
                isinstance(node.value, ast.Attribute) and \
                isinstance(node.value.value, ast.Name) and \
                node.value.value.id == "self":
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in ("setdefault", "update") and \
                isinstance(node.func.value, ast.Attribute) and \
                isinstance(node.func.value.value, ast.Name) and \
                node.func.value.value.id == "self":
            lines.append(node.lineno)
    return lines


def test_every_per_instance_cache_goes_through_kept():
    package = Path(__file__).resolve().parent.parent / "src" / "steinertorelli"
    found = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
             for line in _instance_dict_writes(ast.parse(path.read_text()))]
    assert found == []


def _imported_modules(tree):
    """The top-level names of the modules an AST imports."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module.split(".")[0])
    return names


def test_the_package_imports_neither_dataclasses_nor_inspect():
    package = Path(__file__).resolve().parent.parent / "src" / "steinertorelli"
    found = [f"{path.name}: {name}" for path in sorted(package.glob("*.py"))
             for name in _imported_modules(ast.parse(path.read_text()))
             if name in ("dataclasses", "inspect")]
    assert found == []


def test_importing_the_cli_leaves_dataclasses_and_inspect_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, steinertorelli.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("decorator", ["cached_property",
                                       "functools.cached_property"])
def test_a_cached_property_is_a_hand_written_cache(decorator):
    source = f"class C:\n    @{decorator}\n    def f(self):\n        pass\n"
    assert _instance_dict_writes(ast.parse(source)) == [2]
