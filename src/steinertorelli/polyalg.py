"""Graded pieces of polynomial rings and their quotients.

Monomial bases are ordered lexicographically descending with x0 most
significant, so x0^2 > x0*x1 > x0*x2 > x1^2 > ...  A quotient by a
homogeneous ideal is handled degree by degree: the degree-k piece of the
ideal is spanned by monomial shifts of the generators and a row reduction
picks out representative monomials for the quotient.  No Groebner bases;
everything is linear algebra over an exact field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ShapeMismatch, ZeroSection
from .exactfield import Matrix, SpanReduction, span_reduction


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


@dataclass(frozen=True)
class QuotientPiece:
    """Degree-k piece of S/I: representative monomials plus the reduction
    matrix from ambient S_k coordinates to quotient coordinates."""

    degree: int
    monomials: tuple          # representative exponent tuples
    reduction: SpanReduction  # quotient of S_k by the ideal piece

    @property
    def dim(self):
        return len(self.monomials)


class GradedQuotientRing:
    """S/I for S = field[x0..x_{n-1}] and I generated by the given
    homogeneous forms, realized one degree at a time."""

    def __init__(self, field, num_vars, generators):
        """generators: iterable of (degree, coefficient tuple) pairs, the
        coefficients running over monomial_basis(num_vars, degree)."""
        self.field = field
        self.num_vars = num_vars
        gens = []
        for degree, coeffs in generators:
            basis = monomial_basis(num_vars, degree)
            if len(coeffs) != len(basis):
                raise ShapeMismatch(
                    f"degree {degree} form needs {len(basis)} coefficients, "
                    f"got {len(coeffs)}")
            terms = tuple((m, c) for m, c in
                          zip(basis, map(field.normalize, coeffs)) if c)
            if not terms:
                raise ZeroSection(f"degree {degree} generator is zero")
            gens.append((degree, terms))
        self.generators = tuple(gens)   # (degree, term list) pairs
        self._pieces: dict[int, QuotientPiece] = {}
        self._mults: dict[tuple, Matrix] = {}

    def ideal_rows(self, k: int) -> Matrix:
        """Spanning set of I_k: all monomial shifts of the generators."""
        idx = monomial_index(self.num_vars, k)
        rows = []
        for degree, terms in self.generators:
            rows += products(self.field,
                             monomial_basis(self.num_vars, k - degree),
                             (terms,), idx)
        return Matrix(self.field, len(rows), len(idx), tuple(rows))

    def piece(self, k: int) -> QuotientPiece:
        got = self._pieces.get(k)
        if got is not None:
            return got
        if k < 0:
            red = span_reduction(Matrix(self.field, 0, 0, ()))
            piece = QuotientPiece(k, (), red)
        else:
            amb = monomial_basis(self.num_vars, k)
            red = span_reduction(self.ideal_rows(k))
            piece = QuotientPiece(
                k, tuple(amb[c] for c in red.complement), red)
        self._pieces[k] = piece
        return piece

    def dim(self, k: int) -> int:
        return self.piece(k).dim

    def multiplication(self, k: int, l: int) -> Matrix:
        """(S/I)_k (x) (S/I)_l -> (S/I)_{k+l} on representative monomials,
        left factor major."""
        got = self._mults.get((k, l))
        if got is not None:
            return got
        pk, pl, pkl = self.piece(k), self.piece(l), self.piece(k + l)
        idx = monomial_index(self.num_vars, k + l)
        cols = []
        for m1 in pk.monomials:
            for m2 in pl.monomials:
                cols.append(
                    pkl.reduction.reduce.column(idx[monomial_product(m1, m2)]))
        out = Matrix.from_cols(self.field, cols, pkl.dim)
        self._mults[(k, l)] = out
        return out

