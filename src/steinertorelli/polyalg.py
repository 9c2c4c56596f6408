"""Graded pieces of monomial algebras and their quotients: the one
section ring behind every scene.

Monomial bases are ordered lexicographically descending with x0 most
significant, so x0^2 > x0*x1 > x0*x2 > x1^2 > ...  A ring may take any
other graded monomial basis, with integer or integer-pair degrees, such
as the Cox ring of a scroll.  A quotient by a homogeneous ideal is
handled degree by degree: the degree-k piece of the ideal is spanned by
the monomial shifts of the generators, as row lists, and one
`span_reduction` of them picks out representative monomials for the
quotient, with the kernel rows that reduce onto them.  Multiplication
tables, the only `Matrix` here, come from the ring alone, and
`restrict_right` cuts a table's right factor down to a proper series;
`action_columns` regroups a table into sparse columns, and
`signed_columns` gives the pair of them, over QQ scaled to integers,
and their negation that Koszul differentials read.  No Groebner bases;
everything is linear algebra over an exact field.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import BadPrime, ShapeMismatch, ZeroSection
from .exactfield import (KernelData, Matrix, Record, _set, kept,
                         span_reduction)


@lru_cache(maxsize=None)
def monomial_basis(num_vars: int, degree: int) -> tuple:
    """Exponent tuples of all degree-d monomials in num_vars variables."""
    if num_vars < 1:
        raise ShapeMismatch("need at least one variable")
    if degree < 0:
        return ()
    if num_vars == 1:
        return ((degree,),)
    out = []
    for e0 in range(degree, -1, -1):
        for rest in monomial_basis(num_vars - 1, degree - e0):
            out.append((e0,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(num_vars: int, degree: int) -> dict:
    return {m: i for i, m in enumerate(monomial_basis(num_vars, degree))}


def space_dim(num_vars: int, degree: int) -> int:
    if degree < 0:
        return 0
    return math.comb(num_vars - 1 + degree, degree)


def monomial_product(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def products(field, left, right, index) -> list:
    """m*f for each monomial m of `left` (major) and each form f of
    `right`, as coordinate lists over `index` (monomial -> position).
    A form is a term list of (exponents, coefficient) pairs."""
    out = []
    for m in left:
        for form in right:
            row = [field.zero] * len(index)
            for e, c in form:
                row[index[monomial_product(m, e)]] += c
            out.append(row)
    return out


def restrict_right(table, rows) -> Matrix:
    """A product table, left factor major, with its right factor cut down
    to the span of `rows`, coordinate vectors over the right factor's
    basis: column t * len(rows) + i is the t-th left element times the
    i-th row."""
    field = table.field
    width = len(rows[0]) if rows else 1
    # the (table column, coefficient) pairs of each restricted column
    terms = [[(t + w, c) for w, c in enumerate(vec) if c]
             for t in range(0, table.ncols, width) for vec in rows]
    return Matrix(field, table.nrows, len(terms), tuple(
        tuple(sum((c * row[j] for j, c in term), field.zero)
              for term in terms)
        for row in table.entries))


def action_columns(table, width) -> tuple:
    """A product table, left factor major with `width` right factors,
    regrouped right factor major as sparse columns: entry i * n + t, n =
    table.ncols / width, lists the (row, value) pairs of nonzero value of
    column t * width + i, the t-th left element times the i-th right
    one."""
    cols = table.columns()
    return tuple(tuple((w, x) for w, x in enumerate(cols[c]) if x)
                 for i in range(width) for c in range(i, table.ncols, width))


def signed_columns(columns, field) -> tuple:
    """The pair (plus, minus) that Koszul differentials read off sparse
    columns as `action_columns` gives them: mod p the columns and their
    negation; over QQ the columns times the lcm of all their
    denominators, as ints, and the negation of those.  Every entry of
    the pair is the true one times the same positive constant."""
    p = field.characteristic
    if p:
        return columns, tuple(tuple((w, -x % p) for w, x in col)
                              for col in columns)
    den = math.lcm(*[x.denominator for col in columns for _, x in col])
    plus = tuple(tuple((w, x.numerator * (den // x.denominator))
                       for w, x in col) for col in columns)
    return plus, tuple(tuple((w, -x) for w, x in col) for col in plus)


def _degree_sum(k, l, sign=1):
    """k + sign * l for degrees that are integers or integer tuples."""
    if isinstance(k, tuple):
        return tuple(x + sign * y for x, y in zip(k, l))
    return k + sign * l


class QuotientPiece(Record):
    """Degree-k piece of S/I: representative monomials plus the reduction
    of the ideal piece, whose kernel rows map ambient S_k coordinates to
    quotient coordinates."""

    __slots__ = _fields = ("degree", "monomials", "reduction")

    def __init__(self, degree, monomials, reduction: KernelData):
        _set(self, "degree", degree)
        _set(self, "monomials", monomials)    # representative exponents
        # pivots and kernel of the ideal piece's rows
        _set(self, "reduction", reduction)

    @property
    def dim(self):
        return len(self.monomials)


class GradedQuotientRing:
    """S/I for a graded monomial algebra S and I generated by homogeneous
    forms, realized one degree at a time.

    basis(num_vars, k) lists the monomials of S_k as exponent tuples, in
    the order of its coordinates; a degree k is an integer or a tuple of
    integers, and a product of monomials, the sum of their exponents, lies
    in the sum of their degrees.  The default S is the polynomial ring in
    num_vars variables; with no generators the ring is S itself."""

    def __init__(self, field, num_vars, generators=(), basis=monomial_basis):
        """generators: iterable of (degree, coefficient tuple) pairs, the
        coefficients running over basis(num_vars, degree).  A form that is
        zero is refused with ZeroSection; one that only vanishes over the
        field makes its characteristic a bad prime."""
        self.field = field
        self.num_vars = num_vars
        self.basis = basis
        gens = []
        for degree, coeffs in generators:
            amb = basis(num_vars, degree)
            if len(coeffs) != len(amb):
                raise ShapeMismatch(
                    f"degree {degree} form needs {len(amb)} coefficients, "
                    f"got {len(coeffs)}")
            if not any(coeffs):
                raise ZeroSection(f"degree {degree} generator is zero")
            terms = tuple((m, c) for m, c in
                          zip(amb, map(field.normalize, coeffs)) if c)
            if not terms:
                raise BadPrime(
                    f"degree {degree} generator vanishes over {field}")
            gens.append((degree, terms))
        self.generators = tuple(gens)   # (degree, term list) pairs

    @kept
    def _positions(self, k) -> dict:
        """Monomial -> coordinate position in S_k."""
        return {m: i for i, m in enumerate(self.basis(self.num_vars, k))}

    def ideal_rows(self, k) -> list:
        """Spanning set of I_k, canonical row lists over the monomials of
        S_k: all monomial shifts of the generators."""
        idx = self._positions(k)
        rows = []
        for degree, terms in self.generators:
            shifts = self.basis(self.num_vars, _degree_sum(k, degree, -1))
            rows += products(self.field, shifts, (terms,), idx)
        return rows

    @kept
    def piece(self, k) -> QuotientPiece:
        amb = self.basis(self.num_vars, k)
        red = span_reduction(self.ideal_rows(k), len(amb), self.field)
        return QuotientPiece(k, tuple(amb[c] for c in red.complement), red)

    def dim(self, k) -> int:
        return self.piece(k).dim

    @kept
    def multiplication(self, k, l) -> Matrix:
        """(S/I)_k (x) (S/I)_l -> (S/I)_{k+l} on representative monomials,
        left factor major."""
        kl = _degree_sum(k, l)
        out = self.piece(kl)
        idx = self._positions(kl)
        cols = [idx[monomial_product(m1, m2)]
                for m1 in self.piece(k).monomials
                for m2 in self.piece(l).monomials]
        return Matrix(self.field, out.dim, len(cols),
                      tuple(tuple(v[c] for c in cols)
                            for v in out.reduction.kernel))
