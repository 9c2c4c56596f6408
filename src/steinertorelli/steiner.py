"""Steiner presentations and the unstable-hyperplane calculus.

A presentation is a tensor mu: U1 (x) V -> U0 stored as a b x (a*m)
matrix over a field, with column t = i*m + j holding mu(u1_i (x) v_j).
It presents a vector bundle of rank b - a on the projective space of V
exactly when mu(u1 (x) v) != 0 for every pair of nonzero vectors, which
over a finite field is checked by scanning fibers: for each point [v] of
P(V) the b x a matrix u |-> mu(u (x) v) must have rank a.

A functional lam on V is *unstable* for mu when the restriction of mu to
U1 (x) ker(lam) fails to surject onto U0; the cokernel dimension is the
basic numerical output and the left kernel of the restricted matrix
carries the recovery data.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import (FieldMismatch, NonUniqueQuotient, ShapeMismatch,
                     ZeroPoint)
from .exactfield import (GF, Matrix, eliminate, left_kernel,
                         normalize_projective, projective_reps, rank_kernel)


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

    def column(self, i, j):
        return self.tensor.column(i * self.dim_v + j)

    def fiber_rows(self, v):
        """Rows of the b x a matrix of u |-> mu(u (x) v), as lists."""
        norm, zero = self.field.normalize, self.field.zero
        v = [norm(x) for x in v]
        m = self.dim_v
        bases = range(0, self.dim_u1 * m, m)
        return [[norm(sum(map(mul, row[i:i + m], v), zero)) for i in bases]
                for row in self.tensor.entries]

    def fiber_matrix(self, v):
        return Matrix(self.field, self.dim_u0, self.dim_u1,
                      self.fiber_rows(v))

    def restricted_rows(self, lam):
        """Rows of the b x (a*(m-1)) restriction of mu to U1 (x) ker(lam),
        as lists.

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
        norm = fld.normalize
        return [[norm(row[t] - x * row[s]) for t, s, x in terms]
                for row in self.tensor.entries]

    def restricted_matrix(self, lam):
        return Matrix(self.field, self.dim_u0,
                      self.dim_u1 * (self.dim_v - 1),
                      self.restricted_rows(lam))

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
    """Scan all fibers over P(V)(F_p); valid iff every fiber map has full
    rank a.  A rank drop yields a witness pair (u, v) with mu(u(x)v) = 0."""
    work = pres if pres.field == GF(p) else pres.map_to(GF(p))
    a = work.dim_u1
    scanned = 0
    for v in projective_reps(p, work.dim_v):
        scanned += 1
        if len(eliminate(work.fiber_rows(v), a, p, full=False)) != a:
            witness = (rank_kernel(work.fiber_matrix(v)).kernel[0], v)
            return ValidationReport(p, False, scanned, witness)
    return ValidationReport(p, True, scanned, None)


# ---- instability -----------------------------------------------------------


def unstable_test(pres: SteinerPresentation, lam):
    """(is_unstable, coker_dim) for the hyperplane ker(lam)."""
    rank = len(eliminate(pres.restricted_rows(lam),
                         pres.dim_u1 * (pres.dim_v - 1),
                         pres.field.characteristic, full=False))
    coker = pres.dim_u0 - rank
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
    """Apply unstable_test to every canonical point of P(V)(F_p), in
    enumeration order."""
    work = pres if pres.field == GF(p) else pres.map_to(GF(p))
    found = []
    scanned = 0
    for lam in projective_reps(p, work.dim_v):
        scanned += 1
        unstable, coker = unstable_test(work, lam)
        if unstable:
            found.append((lam, coker))
    return VallesReport(p, scanned, tuple(found))
