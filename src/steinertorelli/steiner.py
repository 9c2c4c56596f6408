"""Steiner presentations and the unstable-hyperplane calculus.

A presentation is a tensor mu: U1 (x) V -> U0 stored as a b x (a*m)
matrix T over a field, with column t = i*m + j holding mu(u1_i (x) v_j).
It presents a vector bundle of rank b - a on the projective space of V
exactly when mu(u1 (x) v) != 0 for every pair of nonzero vectors, that
is when ker T holds no rank-one tensor u (x) v.

A functional lam on V is *unstable* for mu when the restriction of mu to
U1 (x) ker(lam) fails to surject onto U0; the cokernel dimension is the
basic numerical output and the left kernel of the restricted matrix
carries the recovery data.  A functional psi on U0 kills that image
exactly when every row of psi T, read as an a x m matrix, is a multiple
of lam, so with K a basis of ker T and r the rank of T

    coker(lam) = (b - r) + dim {phi in U1* : K (phi (x) lam) = 0}:

the unstable locus is a linear section of the Segre variety
P(U1*) x P(V*) (Ancona-Ottaviani, Adv. Geom. 2001).

Over F_p both scans run on one rank-one engine, `_rank_one_scan`: it
walks one projective factor, contracts a set of tensors by each point
and hands back the small matrix that results in row echelon form; a
kernel basis is built only where a caller reads more than its
dimension.  It walks the smaller factor.  When a < m, validation
contracts T over P(U1) and the instability scan contracts K over P(U1*)
(when r = b), which is p^(a-1) small eliminations instead of p^(m-1).
Otherwise both contract over P(V), the fibers of T and the maps
lam |-> K (. (x) lam).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import mul, sub

from .errors import (FieldMismatch, NonUniqueQuotient, ShapeMismatch,
                     ZeroPoint)
from .exactfield import (GF, Matrix, eliminate, kernel_basis, left_kernel,
                         normalize_projective, projective_count,
                         projective_rank, projective_reps, rank,
                         rank_kernel)


class SteinerPresentation:
    """mu: U1 (x) V -> U0 with dims (a, m, b) and left-major columns."""

    def __init__(self, field, dim_u1, dim_v, dim_u0, tensor: Matrix,
                 name=""):
        if tensor.field != field:
            raise FieldMismatch(f"tensor over {tensor.field}, "
                                f"presentation over {field}")
        if tensor.nrows != dim_u0 or tensor.ncols != dim_u1 * dim_v:
            raise ShapeMismatch(
                f"tensor is {tensor.nrows}x{tensor.ncols}, expected "
                f"{dim_u0}x{dim_u1 * dim_v}")
        self.field = field
        self.dim_u1 = dim_u1
        self.dim_v = dim_v
        self.dim_u0 = dim_u0
        self.tensor = tensor
        self.name = name

    @property
    def bundle_rank(self):
        return self.dim_u0 - self.dim_u1

    def fiber_matrix(self, v):
        """The b x a matrix of u |-> mu(u (x) v)."""
        fld = self.field
        v = [fld.normalize(x) for x in v]
        m = self.dim_v
        bases = range(0, self.dim_u1 * m, m)
        return Matrix(fld, self.dim_u0, self.dim_u1,
                      [[sum(map(mul, row[i:i + m], v), fld.zero)
                        for i in bases] for row in self.tensor.entries])

    def restricted_matrix(self, lam):
        """The b x (a*(m-1)) matrix of mu restricted to U1 (x) ker(lam).

        ker(lam) gets its canonical basis e_j - lam_j e_c0 (j != c0, c0
        the first nonzero position of the normalized functional), so each
        restricted column is a two-column combination of tensor columns.
        """
        fld = self.field
        lam = normalize_projective(fld, lam)
        if lam is None:
            raise ZeroPoint("the zero functional defines no hyperplane")
        c0 = next(j for j, x in enumerate(lam) if x)
        m = self.dim_v
        # (tensor column, its pivot column, lam_j) per restricted column
        terms = [(base + j, base + c0, x)
                 for base in range(0, self.dim_u1 * m, m)
                 for j, x in enumerate(lam) if j != c0]
        return Matrix(fld, self.dim_u0, len(terms),
                      [[row[t] - x * row[s] for t, s, x in terms]
                       for row in self.tensor.entries])

    def map_to(self, field):
        """The same tensor over another field (e.g. QQ data mod p)."""
        return SteinerPresentation(field, self.dim_u1, self.dim_v,
                                   self.dim_u0, self.tensor.map_to(field),
                                   self.name)

    def __repr__(self):
        return (f"SteinerPresentation(a={self.dim_u1}, m={self.dim_v}, "
                f"b={self.dim_u0}, field={self.field})")


def make_presentation(tensor: Matrix, a, m, b, name="") -> \
        SteinerPresentation:
    return SteinerPresentation(tensor.field, a, m, b, tensor, name)


# ---- the rank-one engine ----------------------------------------------------


def _rank_one_scan(rows, a, m, p, over_u1):
    """Contract tensors in U1 (x) V by every point of one factor.

    `rows` are sequences of a*m residues mod p, entry i*m + j the
    coefficient of u1_i (x) v_j.  For each canonical point x of P(U1)
    when `over_u1`, else of P(V), in enumeration order, yield x, the rows
    of the contracted matrix y |-> row(x (x) y) (resp. row(y (x) x)) in
    row echelon form, and their pivot columns; the vectors y killed by
    every row form the kernel, of dimension width minus the pivot count.
    """
    # images[t]: the rows contracted by the t-th basis vector, row-major;
    # the contraction by x is the sum of x_t images[t]
    if over_u1:
        n, width = a, m
        images = [[y for row in rows for y in row[t * m:t * m + m]]
                  for t in range(a)]
    else:
        n, width = m, a
        images = [[y for row in rows for y in row[t::m]] for t in range(m)]
    starts = [k * width for k in range(len(rows))]
    flat, prev = [0] * (len(rows) * width), (0,) * n
    for x in projective_reps(p, n):
        # the tail of x runs like an odometer, so the sum is updated only
        # at the few coordinates that moved
        for t, d in enumerate(map(sub, x, prev)):
            if d:
                flat = [(s + d * y) % p for s, y in zip(flat, images[t])]
        prev = x
        work = [flat[s:s + width] for s in starts]
        yield x, work, eliminate(work, width, p, full=False)


def _reduced_kernel(echelon, width, p):
    """The reduced echelon basis of the kernel of a matrix the engine
    left in row echelon form, as a tuple of tuples."""
    pivots = eliminate(echelon, width, p)
    basis = [list(v) for v in kernel_basis(echelon, pivots, width, GF(p))]
    eliminate(basis, width, p)
    return tuple(map(tuple, basis))


def _span_points(basis, p):
    """The canonical points of the span of a reduced echelon basis: a
    combination whose first nonzero coefficient is 1 has leading entry 1
    at that row's pivot."""
    for c in projective_reps(p, len(basis)):
        yield tuple(sum(map(mul, c, col)) % p for col in zip(*basis))


# ---- validity --------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    prime: int
    valid: bool
    fibers_scanned: int
    witness: object        # (u, v) pair of coordinate tuples when invalid

    def to_json_dict(self):
        out = {"prime": self.prime, "valid": self.valid,
               "fibers_scanned": self.fibers_scanned}
        out["witness"] = None if self.witness is None else {
            "u1": list(self.witness[0]), "v": list(self.witness[1])}
        return out


def validate_presentation(pres: SteinerPresentation, p: int) -> \
        ValidationReport:
    """Valid iff every fiber map over P(V)(F_p) has full rank a.

    The report reads as a fiber scan in enumeration order:
    `fibers_scanned` is the position of the first bad fiber v plus one
    (all of P(V) when valid), and the witness is the first kernel vector
    u of that fiber, so mu(u (x) v) = 0.
    """
    work = pres if pres.field == GF(p) else pres.map_to(GF(p))
    a, m = work.dim_u1, work.dim_v
    rows = work.tensor.entries
    if a < m:
        # canonical points sort in enumeration order, and the least
        # point of a subspace is the last row of its reduced echelon basis
        bad = min((_reduced_kernel(ech, m, p)[-1] for _, ech, pivots in
                   _rank_one_scan(rows, a, m, p, over_u1=True)
                   if len(pivots) < m), default=None)
    else:
        bad = next((v for v, _, pivots in
                    _rank_one_scan(rows, a, m, p, over_u1=False)
                    if len(pivots) < a), None)
    if bad is None:
        return ValidationReport(p, True, projective_count(p, m), None)
    witness = (rank_kernel(work.fiber_matrix(bad)).kernel[0], bad)
    return ValidationReport(p, False, projective_rank(p, bad) + 1, witness)


# ---- instability -----------------------------------------------------------


def unstable_test(pres: SteinerPresentation, lam):
    """(is_unstable, coker_dim) for the hyperplane ker(lam)."""
    coker = pres.dim_u0 - rank(pres.restricted_matrix(lam))
    return coker > 0, coker


def unstable_test_dual(pres: SteinerPresentation, lam):
    """(is_unstable, witness) where the witness is a nonzero functional
    psi on U0 annihilating the image of the restriction, i.e. a trivial
    quotient of the restricted bundle data."""
    kd = left_kernel(pres.restricted_matrix(lam))
    if kd.nullity == 0:
        return False, None
    psi = normalize_projective(pres.field, kd.kernel[0])
    return True, psi


def recover_section_point(pres: SteinerPresentation, lam):
    """The unique trivial quotient at an unstable hyperplane with
    one-dimensional cokernel, as a normalized functional on U0."""
    kd = left_kernel(pres.restricted_matrix(lam))
    if kd.nullity != 1:
        raise NonUniqueQuotient(
            f"cokernel dimension is {kd.nullity}, recovery needs exactly 1")
    return normalize_projective(pres.field, kd.kernel[0])


# ---- the Valles locus -------------------------------------------------------


@dataclass(frozen=True)
class VallesReport:
    prime: int
    scanned: int
    unstable: tuple     # ordered pairs (lambda tuple, coker_dim)

    def unstable_set(self):
        return {lam for lam, _ in self.unstable}

    def to_json_dict(self):
        return {"prime": self.prime, "scanned": self.scanned,
                "unstable": [{"lambda": list(lam), "coker": coker}
                             for lam, coker in self.unstable]}


def valles_locus(pres: SteinerPresentation, p: int) -> VallesReport:
    """Every unstable point of P(V)(F_p) with its cokernel dimension, in
    enumeration order; `scanned` counts the hyperplanes decided."""
    work = pres if pres.field == GF(p) else pres.map_to(GF(p))
    a, m, b = work.dim_u1, work.dim_v, work.dim_u0
    kd = rank_kernel(work.tensor)
    if a < m and kd.rank == b:
        seen = Counter(lam for _, ech, pivots in
                       _rank_one_scan(kd.kernel, a, m, p, over_u1=True)
                       if len(pivots) < m
                       for lam in _span_points(_reduced_kernel(ech, m, p), p))
        # lam turns up once per point of P(ker N(lam)), N(lam) the map
        # phi |-> K (phi (x) lam), and coker(lam) = dim ker N(lam) <= a
        dims = {projective_count(p, c): c for c in range(1, a + 1)}
        found = [(lam, dims[count]) for lam, count in sorted(seen.items())]
    else:
        found = []
        for lam, _, pivots in _rank_one_scan(kd.kernel, a, m, p,
                                             over_u1=False):
            coker = b - kd.rank + a - len(pivots)
            if coker:
                found.append((lam, coker))
    return VallesReport(p, projective_count(p, m), tuple(found))
