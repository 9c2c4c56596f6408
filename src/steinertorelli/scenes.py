"""Geometric scenes: explicit polarized varieties at desk scale.

A scene bundles a variety X, an ample series V inside H0(X, A), and
recipes for section spaces, multiplication maps, sheaf cohomology
dimensions and point enumeration over prime fields.  Five kinds:

* P1Series        -- X = P^1, A = O(a), V a subspace of the binary forms
* CompleteIntersection -- X in P^N cut by c forms, O_X(k) twists
* MonomialVariety -- image of P^m under a set of degree-a monomials
* ScrollCurve     -- a curve in |dH + eF| on the scroll P(O(a)+O(b))
* PointSet        -- d labelled points in P^r with fixed representatives

Bundle labels are plain integers k (meaning O_X(k) against the hyperplane
class, or O(k) on P^1) except for scrolls, where a label is a pair
(alpha, beta) meaning (alpha H + beta F) restricted to the curve.

Scene data is stored exactly over the rationals; every computation takes
the working field as an argument and reduces on demand.

The section spaces and multiplication maps of every kind but the point
set come from one ring, `polyalg.GradedQuotientRing`, graded by the
labels; a kind gives only its ambient basis, its generators and, for a
proper series V, the rows of V in the piece of A:

* P1Series        -- k[s, t], free; rows of the series basis if proper
* CompleteIntersection -- k[x0..xN] modulo the generators
* MonomialVariety -- k[x0..xm], free, label k in degree k*a; rows
                     picking out the listed monomials
* ScrollCurve     -- the Cox ring k[s, t, u, v] of the scroll modulo the
                     section; u^i v^(alpha-i) m(s, t) in degree
                     (alpha, beta) is the exponent tuple m + (i, alpha-i)

The shared `SectionRing` base turns the ring into `section_space`,
`series_dim`, `multiplication_map`, `action_columns` (the series acting
on a section space, as sparse columns), `signed_columns` (the pair of
them that Koszul differentials read), `evaluation_functional` and
`enumerate_points`: the candidate points (P^N(F_p), or P^1 x P^1 for a
scroll) where the generators vanish, with V's functional and, when
there are generators, their smoothness.  Every value at a point comes
from one evaluator, `_evaluator`, and the evaluators of one enumeration
share one table of powers, `_Powers`, which computes each coordinate
value's powers once.  The points are found by one walk, `_walk`, that
fixes the coordinates one at a time: the generators of each degree are
first row-reduced mod p so that each reduced form names the last
coordinate it involves, and there it filters that coordinate's values,
as a polynomial in it, before any longer prefix is tried.  Every kind keeps
its enumeration per prime, so the image X(F_p) is found once per scene
however many bundles and callers compare against it; a refused prime
keeps nothing and is refused again on every call.
"""

from __future__ import annotations

import itertools
import json
import os
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import (BadClass, BadPrime, DependentBasis, DuplicatePoints,
                     BasepointedSeries, NotGeneralPosition, SchemaError,
                     ShapeMismatch, UnsupportedLabel, UnsupportedScene,
                     ZeroEvaluation, ZeroPoint, ZeroSection)
from .exactfield import (GF, QQ, Record, _set, eliminate, kept,
                         normalize_projective, span_reduction)
from .polyalg import (GradedQuotientRing, QuotientPiece, action_columns,
                      monomial_basis, restrict_right, signed_columns,
                      space_dim)


# ---- shared small types --------------------------------------------------


class PointRecord(Record):
    """One enumerated F_p point: parameter coordinates upstairs and the
    normalized evaluation vector of the series at the point."""

    __slots__ = _fields = ("prime", "params", "phi", "smooth_ok")

    def __init__(self, prime, params, phi, smooth_ok=None):
        _set(self, "prime", prime)
        _set(self, "params", params)
        _set(self, "phi", phi)
        # True/False when a smoothness check ran
        _set(self, "smooth_ok", smooth_ok)


class PointEnumeration(Record):
    __slots__ = _fields = ("prime", "records", "smooth_checked")

    def __init__(self, prime, records, smooth_checked):
        _set(self, "prime", prime)
        _set(self, "records", records)
        _set(self, "smooth_checked", smooth_checked)

    @property
    def all_smooth(self):
        return (not self.smooth_checked) or \
            all(r.smooth_ok for r in self.records)

    def phi_set(self):
        return {r.phi for r in self.records}


class _Powers(dict):
    """Coordinate value x -> [1, x, ..., x^top] over the field, plain
    ints with field None, top the largest exponent in the term lists;
    each row is computed on first use.  One enumeration's evaluators
    share one table, so each value's powers are computed once per
    enumeration."""

    def __init__(self, field, term_lists):
        self.one, self.normalize = (field.one, field.normalize) if field \
            else (1, int)
        self.top = max((e for t in term_lists for m, _ in t for e in m),
                       default=0)

    def __missing__(self, x):
        row = [self.one]
        for _ in range(self.top):
            row.append(self.normalize(row[-1] * x))
        self[x] = row
        return row


def _evaluator(field, term_lists, powers=None):
    """The function taking a point to the values there of a list of term
    lists, (exponents, coefficient) pairs.  The powers of each coordinate
    value come from `powers`, a `_Powers` table reaching the largest
    exponent, or from a table of the evaluator's own.  With field None
    the values are those of integer coordinates and coefficients, as
    plain ints."""
    # each term as its (variable, exponent) factors of positive exponent
    # and its coefficient
    terms = [[([(k, e) for k, e in enumerate(m) if e], c) for m, c in t]
             for t in term_lists]
    if powers is None:
        powers = _Powers(field, term_lists)
    normalize = field.normalize if field else int

    def values(params):
        rows = [powers[x] for x in params]
        out = []
        for t in terms:
            acc = 0
            for factors, c in t:
                for k, e in factors:
                    c *= rows[k][e]
                acc += c
            out.append(normalize(acc))
        return out

    return values


def _monomial_terms(monomials):
    return [((m, 1),) for m in monomials]


def _independent(field, rows):
    """Whether rows with entries in the field are linearly independent:
    one rank-only elimination of copies of them, or for one row (the
    Jacobian of a single generator), whether it is nonzero."""
    if len(rows) == 1:
        return any(rows[0])
    work = [list(row) for row in rows]
    return len(eliminate(work, len(work[0]) if work else 0,
                         field.characteristic, full=False)) == len(work)


def _cleared(row):
    """The lcm of the denominators of the Fractions `row`, and the row
    times it, as ints."""
    den = lcm(*(x.denominator for x in row))
    return den, [x.numerator * (den // x.denominator) for x in row]


def _minors_nonzero(rows, p):
    """Whether every square minor of the matrix `rows`, of ints (residues
    mod p when p), is nonzero.  The minors of each size come by Laplace
    expansion along their last column from those of the size below, of
    which only one size is kept; the first zero stops it."""
    ncols = len(rows[0]) if rows else 0
    prev = {((), ()): 1}
    for k in range(1, min(len(rows), ncols) + 1):
        cur = {}
        for cols in itertools.combinations(range(ncols), k):
            c, rest = cols[-1], cols[:-1]
            for sub in itertools.combinations(range(len(rows)), k):
                det = 0
                for t, i in enumerate(sub):
                    x = rows[i][c]
                    if x:
                        minor = x * prev[(sub[:t] + sub[t + 1:], rest)]
                        det += -minor if (k - 1 - t) % 2 else minor
                if p:
                    det %= p
                if not det:
                    return False
                cur[(sub, cols)] = det
        prev = cur
    return True


def _normalized_phi(field, values, what):
    phi = normalize_projective(field, values)
    if phi is None:
        raise ZeroEvaluation(f"series vanishes identically at {what}")
    return phi


def _partials(field, form, nvars):
    """The partial derivatives of a form, one term list per variable."""
    return [tuple((m[:j] + (m[j] - 1,) + m[j + 1:], field.normalize(c * m[j]))
                  for m, c in form if m[j])
            for j in range(nvars)]


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise SchemaError(f"expected an exact scalar, got {x!r}")


# ---- labels and the shared section ring -----------------------------------


class IntegerLabels:
    """Label algebra of the integer-graded scenes: k stands for O(k), the
    k-th power of the hyperplane class."""

    def label_A(self):
        return 1

    def label_add(self, l1, l2):
        return l1 + l2

    def label_scale(self, l, c):
        return l * c

    def label_str(self, label):
        return f"O({label})"

    def _check_label(self, label):
        if not isinstance(label, int):
            raise UnsupportedLabel(f"labels are integers, got {label!r}")
        return label


class SectionRing:
    """The scenes whose section spaces are the graded pieces of one ring,
    `ring(field)`, graded by the scene's labels.  A kind supplies the
    ring (an ambient basis and generators), its label check, for a
    proper series V the coordinate rows of V in the piece of A, and, when
    they are not the points of P^N(F_p), the projective factors whose
    product holds its candidate points."""

    def _series_rows(self, field):
        return None

    @kept
    def ring(self, field) -> GradedQuotientRing:
        return self._new_ring(field)

    def section_space(self, label, field=QQ) -> QuotientPiece:
        return self.ring(field).piece(self._check_label(label))

    def series_dim(self, field=QQ):
        rows = self._series_rows(field)
        if rows is None:
            return self.section_space(self.label_A(), field).dim
        return len(rows)

    @kept
    def multiplication_map(self, l1, l2, field=QQ):
        """H0(L1) (x) H0(L2) -> H0(L1 + L2), left factor major.  When L2
        is A and V is proper, the right factor runs over the series."""
        l1, l2 = self._check_label(l1), self._check_label(l2)
        self._check_label(self.label_add(l1, l2))
        rows = self._series_rows(field) if l2 == self.label_A() else None
        table = self.ring(field).multiplication(l1, l2)
        return table if rows is None else restrict_right(table, rows)

    @kept
    def action_columns(self, label, field=QQ):
        """The series acting on H0(L), as sparse columns: entry
        i * dim H0(L) + t lists the (position, value) pairs of nonzero
        value of u_i m_t in H0(L + A)."""
        return action_columns(self.multiplication_map(
            label, self.label_A(), field), self.series_dim(field))

    @kept
    def signed_columns(self, label, field=QQ):
        """The (plus, minus) pair of `action_columns` that Koszul
        differentials read (`polyalg.signed_columns`)."""
        return signed_columns(self.action_columns(label, field), field)

    def evaluation_functional(self, params, label, field):
        """The monomials of the label's piece at params, normalized
        projectively, from one evaluator per label and field."""
        return _normalized_phi(
            field, self._label_evaluator(label, field)(params), params)

    @kept
    def _label_evaluator(self, label, field):
        return _evaluator(field, _monomial_terms(
            self.section_space(label, field).monomials))

    def _factors(self, ring):
        """The sizes of the projective spaces whose product holds the
        candidate points: P^N(F_p), one space of the ring's variables."""
        return (ring.num_vars,)

    @kept
    def enumerate_points(self, p):
        """The candidate points where every generator vanishes, each with
        the functional of V there, in the order of `_walk`, which finds
        them from the generators of each degree row-reduced mod p
        (`_triangular_forms`).  When there are generators, a point is
        smooth when the Jacobian of the generators themselves has rank
        len(generators) there.  Kept per prime."""
        field = GF(p)
        ring = self.ring(field)
        monomials = self.section_space(self.label_A(), field).monomials
        rows = self._series_rows(field)
        series_terms = _monomial_terms(monomials) if rows is None else \
            [tuple((m, c) for m, c in zip(monomials, row) if c)
             for row in rows]
        forms = [t for _, t in ring.generators]
        # the forms' exponents bound those of their partials and of the
        # walk's checks
        powers = _Powers(field, series_terms + forms)
        series = _evaluator(field, series_terms, powers)
        jacobian = [_evaluator(field, _partials(field, form, ring.num_vars),
                               powers)
                    for form in forms]
        records = []
        for params in _walk(p, self._factors(ring), _triangular_forms(ring),
                            powers):
            smooth = None
            if forms:
                smooth = _independent(field, [row(params) for row in jacobian])
            phi = _normalized_phi(field, series(params), params)
            records.append(PointRecord(p, params, phi, smooth))
        return PointEnumeration(p, tuple(records), bool(forms))


def _triangular_forms(ring):
    """The generators of each degree row-reduced mod p, one `eliminate`
    per degree that has more than one, as (k, term list) pairs, x_k the
    last coordinate of the form.  The columns, the monomials the forms
    involve, run in reverse lexicographic order, so a reduced form's pivot
    monomial names its last coordinate.  Forms of one degree combined
    invertibly keep their common zeros; a form dependent on the others mod
    p drops out.  Diagonal forms reduce to a triangle; dense ones all keep
    x_N."""
    degrees = {}
    for degree, terms in ring.generators:
        degrees.setdefault(degree, []).append(terms)
    out = []
    for forms in degrees.values():
        if len(forms) > 1:
            cols = sorted({m for form in forms for m, _ in form},
                          key=lambda m: m[::-1], reverse=True)
            work = [[row.get(m, 0) for m in cols]
                    for row in map(dict, forms)]
            rank = len(eliminate(work, len(cols), ring.field.characteristic))
            forms = [[(m, x) for m, x in zip(cols, row) if x]
                     for row in work[:rank]]
        for form in forms:
            out.append((max(k for m, _ in form for k, e in enumerate(m) if e),
                         form))
    return out


def _walk(p, factors, forms, powers):
    """The points over F_p of the product of the projective spaces with
    n coordinates, n in `factors`, where every form vanishes, each form a
    (k, term list) pair, x_k its last coordinate.  A point is a tuple of
    canonical representatives (`projective_reps`), one per factor, and
    the points come in lexicographic order.  The coordinates are fixed one
    at a time, and the forms whose last coordinate is x_k filter its
    values: each is evaluated once per prefix as a polynomial in x_k, and
    its nonzero coefficients there times the powers of x_k give its value
    at every x_k still in play, so a prefix on which a form fails is
    never extended.  Every power mod p, of x_k and of the prefix
    coordinates, is read from `powers`, the enumeration's `_Powers`
    table."""
    last = sum(factors) - 1
    checks = [[] for _ in range(last + 1)]
    for k, form in forms:
        # the form as a polynomial in x_k: its constant term and its
        # positive exponents of x_k, each coefficient a term list in the
        # earlier coordinates, evaluated as plain ints from the powers
        # mod p and reduced only in the sum
        exps = sorted({m[k] for m, _ in form} - {0})
        checks[k].append((exps, _evaluator(None, [
            [(m[:k], c) for m, c in form if m[k] == e] for e in [0] + exps],
            powers)))
    closes = [False] * (last + 1)
    for end in itertools.accumulate(factors):
        closes[end - 1] = True
    # the values of x_k after a prefix whose coordinates in x_k's factor
    # are all 0: then 0 or 1, and only 1 when x_k closes the factor
    firsts = [(1,) if end else (0, 1) for end in closes]
    every = range(p)
    # the power rows of the values of x_k
    rows = [powers[t] for t in every]
    out = []

    def extend(prefix, zero):
        k = len(prefix)
        values = firsts[k] if zero else every
        for exps, check in checks[k]:
            if not values:
                break
            c, *rest = check(prefix)
            ys = [c] * len(values)
            table = rows if values is every else [rows[t] for t in values]
            for e, c in zip(exps, rest):
                if c:
                    ys = [y + c * row[e] for y, row in zip(ys, table)]
            values = [t for t, y in zip(values, ys) if not y % p]
        if k == last:
            for t in values:
                out.append(prefix + (t,))
        else:
            for t in values:
                extend(prefix + (t,), closes[k] or (zero and not t))

    extend((), True)
    return out


# ---- P^1 with a series of binary forms -----------------------------------


class P1Series(IntegerLabels, SectionRing):
    """P^1 polarized by O(a) with V spanned by given binary forms
    (V = all of H0(O(a)) when no basis is supplied)."""

    kind = "p1_series"
    supports_cohomology = True
    dimension = 1

    def __init__(self, a, basis=None, name=None):
        if not isinstance(a, int) or a < 1:
            raise BadClass(f"series degree must be a positive int, got {a}")
        self.a = a
        if basis is not None:
            basis = tuple(tuple(_as_fraction(c) for c in row)
                          for row in basis)
            for row in basis:
                if len(row) != a + 1:
                    raise ShapeMismatch(
                        f"binary form of degree {a} has {a + 1} coefficients")
            if len(basis) < 2:
                raise BadClass("a series needs dimension at least 2")
            if not _independent(QQ, basis):
                raise DependentBasis("series basis is linearly dependent")
            # degree-a forms have no common zero over the algebraic
            # closure exactly when their multiples span S_{2a-1}, so the
            # quotient by them vanishes there: two general members are
            # then coprime, and a complete intersection of type (a, a)
            # in two variables holds every form of degree >= 2a-1
            ideal = GradedQuotientRing(QQ, 2, [(a, row) for row in basis])
            if ideal.dim(2 * a - 1):
                raise BasepointedSeries("series has a common zero")
        self.basis = basis
        self.name = name or f"p1_series(a={a})"

    # -- labels --

    def label_A(self):
        return self.a

    def canonical_label(self):
        return -2

    def degree_A(self):
        return self.a

    def series_complete(self):
        return self.basis is None

    # -- linear data --

    def _new_ring(self, field):
        return GradedQuotientRing(field, 2)

    @kept
    def _series_rows(self, field):
        """The series basis in monomial coordinates of O(a); None for the
        complete series.  A basis that degenerates over the field is
        refused."""
        if self.basis is None:
            return None
        rows = tuple(tuple(map(field.normalize, row)) for row in self.basis)
        if not _independent(field, rows):
            raise BadPrime(f"series basis degenerates over {field}")
        return rows

    def cohomology_dim(self, label, i, field=QQ):
        if i == 0:
            return max(0, label + 1)
        if i == 1:
            return max(0, -label - 1)
        return 0

    def to_json_dict(self):
        d = {"kind": self.kind, "name": self.name, "a": self.a}
        d["basis"] = None if self.basis is None else \
            [[_scalar_json(c) for c in row] for row in self.basis]
        return d


# ---- complete intersections ----------------------------------------------


class CompleteIntersection(IntegerLabels, SectionRing):
    """X in P^N cut out by c < N homogeneous forms, polarized by O_X(1),
    with V = H0(O_X(1)).  Arithmetically Cohen-Macaulay recipes: twists of
    the structure sheaf have cohomology only at the ends."""

    kind = "complete_intersection"
    supports_cohomology = True

    def __init__(self, N, generators, name=None):
        if not isinstance(N, int) or N < 2:
            raise BadClass(f"ambient dimension must be >= 2, got {N}")
        gens = []
        for degree, coeffs in generators:
            if not isinstance(degree, int) or degree < 1:
                raise BadClass(f"generator degree must be >= 1, got {degree}")
            gens.append((degree, tuple(_as_fraction(c) for c in coeffs)))
        c = len(gens)
        if not 1 <= c <= N - 1:
            raise BadClass(
                f"need between 1 and N-1 = {N - 1} generators, got {c}")
        self.N = N
        self.generators = tuple(gens)
        self.codim = c
        self.n = N - c
        self.dimension = self.n
        self.sigma = sum(d for d, _ in gens) - N - 1
        self.name = name or (
            f"ci(N={N}, degrees={tuple(d for d, _ in gens)})")
        # construct once to validate shapes and nonzeroness
        self.ring(QQ)

    def _new_ring(self, field):
        return GradedQuotientRing(field, self.N + 1, self.generators)

    # -- labels --

    def canonical_label(self):
        return self.sigma

    def degree_A(self):
        out = 1
        for d, _ in self.generators:
            out *= d
        return out

    def series_complete(self):
        return True

    def cohomology_dim(self, label, i, field=QQ):
        if i == 0:
            return self.ring(field).dim(label)
        if i == self.n:
            return self.ring(field).dim(self.sigma - label)
        return 0

    def to_json_dict(self):
        return {
            "kind": self.kind, "name": self.name, "N": self.N,
            "generators": [
                {"degree": d, "coefficients": [_scalar_json(c)
                                               for c in coeffs]}
                for d, coeffs in self.generators]}


# ---- monomial varieties ---------------------------------------------------


class MonomialVariety(IntegerLabels, SectionRing):
    """Image of P^m under distinct degree-a monomials.  Section spaces are
    the full monomial spaces upstairs, so label k stands for all degree
    k*a forms on the source; cohomology is deliberately unsupported."""

    kind = "monomial_variety"
    supports_cohomology = False

    @property
    def dimension(self):
        return self.source_vars - 1

    def __init__(self, source_vars, degree, monomials, name=None):
        if not isinstance(source_vars, int) or source_vars < 2:
            raise BadClass("need at least two source variables")
        if not isinstance(degree, int) or degree < 1:
            raise BadClass(f"degree must be >= 1, got {degree}")
        monos = []
        for m in monomials:
            m = tuple(int(x) for x in m)
            if len(m) != source_vars or any(x < 0 for x in m) or \
                    sum(m) != degree:
                raise ShapeMismatch(
                    f"{m} is not a degree {degree} exponent tuple in "
                    f"{source_vars} variables")
            monos.append(m)
        if len(set(monos)) != len(monos):
            raise DependentBasis("monomial list has repeats")
        if len(monos) < 2:
            raise BadClass("a series needs dimension at least 2")
        self.source_vars = source_vars
        self.degree = degree
        self.monomials = tuple(monos)
        self.name = name or (
            f"monomial(m={source_vars - 1}, a={degree}, "
            f"len={len(monos)})")

    def canonical_label(self):
        raise UnsupportedScene(
            "monomial scenes do not carry a canonical bundle recipe")

    def degree_A(self):
        raise UnsupportedScene(
            "monomial scenes do not certify an image degree")

    def series_complete(self):
        return len(self.monomials) == space_dim(self.source_vars,
                                                self.degree)

    def _new_ring(self, field):
        return GradedQuotientRing(
            field, self.source_vars,
            basis=lambda n, k, a=self.degree: monomial_basis(n, k * a))

    def _series_rows(self, field):
        full = self.section_space(1, field).monomials
        if self.monomials == full:
            return None
        return tuple(tuple(field.one if m == n else field.zero for n in full)
                     for m in self.monomials)

    def cohomology_dim(self, label, i, field=QQ):
        raise UnsupportedScene(
            "cohomology is not modelled for monomial scenes")

    @kept
    def enumerate_points(self, p):
        """Image points of P^m(F_p), deduplicated by evaluation vector in
        the order they are first seen."""
        seen = {}
        for rec in super().enumerate_points(p).records:
            seen.setdefault(rec.phi, rec)
        return PointEnumeration(p, tuple(seen.values()), False)

    def to_json_dict(self):
        return {"kind": self.kind, "name": self.name,
                "source_vars": self.source_vars, "degree": self.degree,
                "monomials": [list(m) for m in self.monomials]}


# ---- curves on rational normal scrolls ------------------------------------


@lru_cache(maxsize=None)
def scroll_basis(a, b, alpha, beta):
    """Ordered basis of H0(Y, alpha H + beta F) on Y = P(O(a) + O(b)) as
    exponent tuples of the Cox ring k[s, t, u, v]: u^i v^(alpha-i) times
    the binary monomial m(s, t) is m + (i, alpha - i), with i major and
    i = 0 first."""
    return tuple(m + (i, alpha - i) for i in range(alpha + 1)
                 for m in monomial_basis(2, a * i + b * (alpha - i) + beta))


class ScrollCurve(SectionRing):
    """A curve X in |dH + eF| on the two dimensional scroll
    Y = P(O(a) + O(b)) over P^1, polarized by A = H|_X.

    Labels are pairs (alpha, beta).  Section spaces are the pieces of the
    Cox ring of Y modulo the section, H0(Y, L) / section * H0(Y, L - X),
    which is H0(X, L|_X) whenever H1(Y, L - X) = 0; labels outside that
    range are refused.  h^1 on the curve goes through Serre duality
    against the canonical label."""

    kind = "scroll_curve"
    supports_cohomology = True
    dimension = 1

    def __init__(self, a, b, d, e, section, name=None):
        if not (isinstance(a, int) and isinstance(b, int) and a >= b >= 1):
            raise BadClass(f"splitting degrees need a >= b >= 1, got "
                           f"({a}, {b})")
        if not (isinstance(d, int) and isinstance(e, int) and d >= 2):
            raise BadClass(f"curve class needs d >= 2, got ({d}, {e})")
        self.a, self.b, self.d, self.e = a, b, d, e
        self.q = a + b
        basis = scroll_basis(a, b, d, e)
        section = tuple(_as_fraction(c) for c in section)
        if len(section) != len(basis):
            raise ShapeMismatch(
                f"class ({d},{e}) sections have {len(basis)} coefficients, "
                f"got {len(section)}")
        if all(c == 0 for c in section):
            raise ZeroSection("curve section is identically zero")
        self.section = section
        self.name = name or f"scroll(S({a},{b}), X in |{d}H+{e}F|)"

    # -- labels --

    def label_A(self):
        return (1, 0)

    def canonical_label(self):
        return (self.d - 2, self.e + self.q - 2)

    def label_add(self, l1, l2):
        return (l1[0] + l2[0], l1[1] + l2[1])

    def label_scale(self, l, c):
        return (l[0] * c, l[1] * c)

    def label_str(self, label):
        return f"({label[0]},{label[1]})"

    def _check_pair(self, label):
        if not (isinstance(label, tuple) and len(label) == 2 and
                all(isinstance(x, int) for x in label)):
            raise UnsupportedLabel(
                f"scroll labels are integer pairs, got {label!r}")
        return label

    def _check_label(self, label):
        """A pair whose restriction model holds: H1(Y, L - X) = 0."""
        label = self._check_pair(label)
        down = (label[0] - self.d, label[1] - self.e)
        if self.h1_Y(down) != 0:
            raise UnsupportedLabel(
                f"label {label}: restriction model needs "
                f"H1(Y, L - X) = 0, but h1{down} = {self.h1_Y(down)}")
        return label

    # -- cohomology on the scroll surface --

    def h1_Y(self, label):
        alpha, beta = label
        if alpha == -1:
            return 0
        if alpha < -1:
            alpha, beta = -2 - alpha, self.q - 2 - beta   # Serre duality
        return sum(max(0, -(self.a * i + self.b * (alpha - i) + beta) - 1)
                   for i in range(alpha + 1))

    # -- the section ring --

    def _new_ring(self, field):
        return GradedQuotientRing(
            field, 4, [((self.d, self.e), self.section)],
            basis=lambda n, k, a=self.a, b=self.b: scroll_basis(a, b, *k))

    def degree(self, label=(1, 0)):
        alpha, beta = label
        return alpha * self.d * self.q + alpha * self.e + beta * self.d

    def degree_A(self):
        return self.degree((1, 0))

    def series_complete(self):
        return True

    def cohomology_dim(self, label, i, field=QQ):
        label = self._check_pair(label)
        if i == 0:
            return self.section_space(label, field).dim
        if i == 1:
            dual = self.label_add(self.canonical_label(),
                                  self.label_scale(label, -1))
            return self.section_space(dual, field).dim
        return 0

    # -- points --

    def _factors(self, ring):
        """P^1 x P^1, the points (s, t) + (u, v)."""
        return (2, 2)

    def to_json_dict(self):
        return {"kind": self.kind, "name": self.name, "a": self.a,
                "b": self.b, "d": self.d, "e": self.e,
                "section": [_scalar_json(c) for c in self.section]}


# ---- labelled point sets ---------------------------------------------------


class PointSet(IntegerLabels):
    """d labelled points in P^r with fixed coordinate representatives."""

    kind = "point_set"
    supports_cohomology = True
    dimension = 0

    def __init__(self, r, points, name=None):
        if not isinstance(r, int) or r < 1:
            raise BadClass(f"ambient dimension must be >= 1, got {r}")
        pts = []
        for row in points:
            row = tuple(_as_fraction(c) for c in row)
            if len(row) != r + 1:
                raise ShapeMismatch(
                    f"points in P^{r} have {r + 1} coordinates")
            pts.append(row)
        self.r = r
        self.points = tuple(pts)
        norm = []
        for row in pts:
            nv = normalize_projective(QQ, row)
            if nv is None:
                raise ZeroPoint("a point representative is the zero vector")
            norm.append(nv)
        if len(set(norm)) != len(norm):
            raise DuplicatePoints("two points are projectively equal")
        PointSet.reduced_points.seed(self, QQ, value=tuple(norm))
        self.name = name or f"points(d={len(pts)}, r={r})"

    @property
    def count(self):
        return len(self.points)

    def canonical_label(self):
        raise UnsupportedScene("point sets have no canonical bundle recipe")

    def section_space(self, label, field=QQ):
        raise UnsupportedScene(
            "point sets use evaluation matrices, not section spaces")

    def multiplication_map(self, l1, l2, field=QQ):
        raise UnsupportedScene(
            "point sets use evaluation matrices, not multiplication maps")

    def cohomology_dim(self, label, i, field=QQ):
        return self.count if i == 0 else 0

    @kept
    def reduced_points(self, field):
        """Normalized representatives over the working field; refuses a
        prime where points collide or degenerate.  The constructor seeds
        the QQ entry with the points its duplicate check normalized."""
        out = []
        for row in self.points:
            nv = normalize_projective(field, row)
            if nv is None:
                raise BadPrime(f"a point reduces to zero over {field}")
            out.append(nv)
        if len(set(out)) != len(out):
            raise BadPrime(f"two points collide over {field}")
        return tuple(out)

    @kept
    def evaluation_matrix(self, k, field):
        """The d rows, canonical tuples over the monomials of S_k, of
        degree-k monomial values at the points.  Over QQ each point x is
        evaluated at its integer representative den*x, den the lcm of its
        denominators, and each value is divided once by den^k: the same
        Fractions, with no Fraction products."""
        terms = _monomial_terms(monomial_basis(self.r + 1, k))
        pts = self.reduced_points(field)
        if field.characteristic:
            values = _evaluator(field, terms)
            return tuple(tuple(values(pt)) for pt in pts)
        values, rows = _evaluator(None, terms), []
        for pt in pts:
            den, ints = _cleared(pt)
            scale = den ** k
            rows.append(tuple(Fraction(v, scale) for v in values(ints)))
        return tuple(rows)

    @kept
    def normal_form(self, field):
        """The pivots and canonical kernel basis of the (r+1) x d matrix
        whose columns are the fixed representatives over the field: one
        `span_reduction`.  The kernel is the space of linear relations
        among the representatives.  When the first r+1 of them span, the
        reduced echelon form is [I | A] and the kernel basis is
        (-A_j, e_j), one vector per later point j."""
        normalize = field.normalize
        return span_reduction([[normalize(row[i]) for row in self.points]
                               for i in range(self.r + 1)],
                              self.count, field)

    def require_general_position(self, field=QQ):
        """Refuse, with NotGeneralPosition, fewer than r+1 points or points
        not in linear general position over the field."""
        if self.count < self.r + 1:
            raise NotGeneralPosition(
                f"need at least r+1 = {self.r + 1} points, got {self.count}")
        if not self.in_general_position(field):
            raise NotGeneralPosition(
                "points are not in linear general position")

    @kept
    def in_general_position(self, field=QQ):
        """Every subset of min(r+1, d) points spans, decided from the
        normal form [I | A] of the representatives: the first min(r+1, d)
        points must span, and then the points in S span exactly when
        their minor of [I | A] is nonzero, which is up to sign the minor
        of A on the rows outside S and the columns of the later points in
        S.  So every square minor of A must be nonzero (`_minors_nonzero`).
        One elimination per field.  A prime where the points collide or
        degenerate is refused."""
        self.reduced_points(field)      # refuses a bad prime
        form = self.normal_form(field)
        k = min(self.r + 1, self.count)
        if form.pivots != tuple(range(k)):
            return False
        # the kernel vectors' entries at the pivots are the columns of
        # -A; over QQ each is scaled to integers
        cols = [v[:k] for v in form.kernel]
        if not field.characteristic:
            cols = [_cleared(col)[1] for col in cols]
        return _minors_nonzero(cols, field.characteristic)

    @kept
    def enumerate_points(self, p):
        """The reduced points over F_p, labelled by their index.  Kept
        per prime, as every kind's enumeration is."""
        field = GF(p)
        pts = self.reduced_points(field)
        records = tuple(
            PointRecord(p, (i,), pt) for i, pt in enumerate(pts))
        return PointEnumeration(p, records, False)

    def evaluation_functional(self, params, label, field):
        raise UnsupportedScene("point sets have no section bases")

    def to_json_dict(self):
        return {"kind": self.kind, "name": self.name, "r": self.r,
                "points": [[_scalar_json(c) for c in row]
                           for row in self.points]}


# ---- construction and serialization ---------------------------------------


def _scalar_json(x):
    if type(x) is int:
        return x
    x = _as_fraction(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def parse_scalar(x):
    if isinstance(x, bool):
        raise SchemaError(f"not a scalar: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            num, _, den = x.partition("/")
            return Fraction(int(num), int(den)) if den else \
                Fraction(int(num))
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad scalar string {x!r}") from exc
    raise SchemaError(f"not a scalar: {x!r}")


def _json_int(data, key):
    """An integer field: a JSON integer, not a bool, float or string."""
    x = data[key]
    if type(x) is not int:
        raise SchemaError(f"field {key!r} must be an integer, got {x!r}")
    return x


def _json_exponents(m):
    if not isinstance(m, list) or \
            any(type(e) is not int or e < 0 for e in m):
        raise SchemaError(f"an exponent vector is a list of non-negative "
                          f"integers, got {m!r}")
    return tuple(m)


def scene_from_dict(data):
    if not isinstance(data, dict):
        raise SchemaError("scene description must be a JSON object")
    kind = data.get("kind")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise SchemaError(f"field 'name' must be a string, got {name!r}")
    try:
        if kind == "p1_series":
            basis = data.get("basis")
            if basis is not None:
                basis = [[parse_scalar(c) for c in row] for row in basis]
            return P1Series(_json_int(data, "a"), basis, name)
        if kind == "complete_intersection":
            gens = [(_json_int(g, "degree"), [parse_scalar(c)
                                              for c in g["coefficients"]])
                    for g in data["generators"]]
            return CompleteIntersection(_json_int(data, "N"), gens, name)
        if kind == "monomial_variety":
            return MonomialVariety(_json_int(data, "source_vars"),
                                   _json_int(data, "degree"),
                                   [_json_exponents(m)
                                    for m in data["monomials"]], name)
        if kind == "scroll_curve":
            return ScrollCurve(*(_json_int(data, k)
                                 for k in ("a", "b", "d", "e")),
                               [parse_scalar(c) for c in data["section"]],
                               name)
        if kind == "point_set":
            return PointSet(_json_int(data, "r"),
                            [[parse_scalar(c) for c in row]
                             for row in data["points"]], name)
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"scene of kind {kind!r} is missing or has "
                          f"malformed fields: {exc}") from exc
    raise SchemaError(f"unknown scene kind {kind!r}")


def load_scene(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    return scene_from_dict(data)


def save_scene(scene, path):
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(scene.to_json_dict(), fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)
