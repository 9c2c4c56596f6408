"""Steiner presentations and the unstable-hyperplane calculus.

A presentation is a tensor mu: U1 (x) V -> U0 stored as a b x (a*m)
matrix T, with column t = i*m + j holding mu(u1_i (x) v_j).  Its field
is the field of T and is stated nowhere else.  It presents a vector
bundle of rank b - a on the projective space of V exactly when
mu(u1 (x) v) != 0 for every pair of nonzero vectors, that is when ker T
holds no rank-one tensor u (x) v.  Both scans below run over the
presentation's own field F_p and read p from it; a presentation over QQ
is refused, so it is built over GF(p) at each prime instead.

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
and hands back, at each point where the small matrix that results has a
kernel, a basis of its row space; a kernel basis is built only where a
caller reads more than its dimension.  It walks the smaller factor.
When a < m, validation contracts T over P(U1) and the instability scan
contracts K over P(U1*) (when r = b).  Otherwise both contract over
P(V), the fibers of T and the maps lam |-> K (. (x) lam).

The walk goes line by line.  After e_last, the points are x = (x', t)
with x' a canonical point of the next smaller projective space and t
ascending, and the contracted matrices on a line form a pencil
N(t) = A(x') + t B, B the matrix at e_last.  A pencil leaf,
`_pencil_leaf`, decides the line.  It eliminates the transpose of N(t)
from t = 0 until a member C = N(s0) has full column rank; that
elimination gives C's rank and a basis S of its rows at once.  With
M = C_S^-1 B_S, a kernel vector at t > s0 needs det(I + (t - s0) M) = 0,
so only the t = s0 - 1/mu with mu a root of the characteristic
polynomial of M (Hessenberg reduction, then Horner at every mu in
F_p*) are eliminated, to verify them.  A line costs a few eliminations
instead of p.  The eigenvalue leaf is the part of the Kronecker form of
a pencil (Van Dooren, Linear Algebra Appl. 1979) that this code needs;
a line with no full-rank member, as on the Fermat quartic where every
hyperplane is unstable, is decided member by member.
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
    """mu: U1 (x) V -> U0 with dims (a, m, b) and left-major columns,
    over the field of its tensor."""

    def __init__(self, tensor: Matrix, dim_u1, dim_v, dim_u0, name=""):
        if tensor.nrows != dim_u0 or tensor.ncols != dim_u1 * dim_v:
            raise ShapeMismatch(
                f"tensor is {tensor.nrows}x{tensor.ncols}, expected "
                f"{dim_u0}x{dim_u1 * dim_v}")
        self.field = tensor.field
        self.dim_u1 = dim_u1
        self.dim_v = dim_v
        self.dim_u0 = dim_u0
        self.tensor = tensor
        self.name = name

    @property
    def bundle_rank(self):
        return self.dim_u0 - self.dim_u1

    def _coords(self, vec):
        """The m coordinates of a vector of V or V*, in the field."""
        vec = [self.field.normalize(x) for x in vec]
        if len(vec) != self.dim_v:
            raise ShapeMismatch(
                f"expected {self.dim_v} coordinates, got {len(vec)}")
        return vec

    def fiber_matrix(self, v):
        """The b x a matrix of u |-> mu(u (x) v)."""
        fld = self.field
        v = self._coords(v)
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
        lam = normalize_projective(fld, self._coords(lam))
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

    def __repr__(self):
        return (f"SteinerPresentation(a={self.dim_u1}, m={self.dim_v}, "
                f"b={self.dim_u0}, field={self.field})")


# ---- the rank-one engine ----------------------------------------------------


def _rank_one_scan(rows, a, m, p, over_u1):
    """Contract tensors in U1 (x) V by every point of one factor and keep
    the points where the contracted matrix loses column rank.

    `rows` are sequences of a*m residues mod p, entry i*m + j the
    coefficient of u1_i (x) v_j.  The walk is over the canonical points
    x of P(U1) when `over_u1`, else of P(V), and the contracted matrix is
    y |-> row(x (x) y) (resp. row(y (x) x)), one row per tensor.  For each
    x in enumeration order where that matrix has a kernel, yield x and a
    basis of its row space, as rows; the kernel has dimension width minus
    their count.

    The points after e_last run line by line: x = (x', t) with x' a
    canonical point of the smaller projective space and t ascending, and
    the matrix on a line is the pencil A(x') + t*B, B the matrix at
    e_last.  `_pencil_leaf` decides each line.
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
    if not n or not width:
        return
    pencil = images.pop()
    basis = _row_basis(pencil, width, p)
    if len(basis) < width:
        yield (0,) * (n - 1) + (1,), [pencil[s:s + width] for s in basis]
    base, prev = [0] * len(pencil), (0,) * (n - 1)
    for x in projective_reps(p, n - 1):
        # x runs like an odometer, so the base of the pencil is updated
        # only at the few coordinates that moved
        for i, d in enumerate(map(sub, x, prev)):
            if d:
                base = [(s + d * y) % p for s, y in zip(base, images[i])]
        prev = x
        for t, basis in _pencil_leaf(base, pencil, width, p):
            yield x + (t,), basis


def _row_basis(flat, width, p):
    """Where the rows of a basis of the row space of a row-major matrix
    with `width` columns start in `flat`: the pivot columns of the
    transpose, from one elimination of it."""
    return [k * width for k in eliminate(
        [flat[j::width] for j in range(width)], len(flat) // width, p,
        full=False)]


def _pencil_leaf(base, pencil, width, p):
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
        basis = _row_basis(c, width, p)
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
            basis = _row_basis(flat, width, p)
            if len(basis) < width:
                yield t, [flat[s:s + width] for s in basis]


def _charpoly(mat, p):
    """The characteristic polynomial det(x I - mat) of a square matrix
    mod p, as its coefficients from the leading 1 down.

    Similarity transforms bring the matrix to upper Hessenberg form H;
    the characteristic polynomials P_k of its leading k x k blocks then
    satisfy P_k = (x - h_kk) P_(k-1) - sum over i < k of h_ik times the
    subdiagonal entries h_(i+1)i ... h_k(k-1) times P_(i-1) (indices
    from 1).
    """
    n = len(mat)
    h = [list(row) for row in mat]
    for c in range(n - 2):
        piv = next((i for i in range(c + 1, n) if h[i][c]), None)
        if piv is None:
            continue
        if piv != c + 1:
            h[piv], h[c + 1] = h[c + 1], h[piv]
            for row in h:
                row[piv], row[c + 1] = row[c + 1], row[piv]
        top = h[c + 1]
        inv = pow(top[c], p - 2, p)
        # rows i -= f_i row c+1, then column c+1 += sum f_i column i
        factors = [h[i][c] * inv % p for i in range(c + 2, n)]
        for i, f in enumerate(factors, c + 2):
            if f:
                h[i] = [(x - f * y) % p for x, y in zip(h[i], top)]
        for row in h:
            row[c + 1] = (row[c + 1] +
                          sum(map(mul, row[c + 2:], factors))) % p
    # polys[k]: P_k, coefficients from the constant term up
    polys = [[1]]
    for k in range(n):
        new = [0] + polys[k]
        d = h[k][k]
        for i, y in enumerate(polys[k]):
            new[i] -= d * y
        sub_prod = 1
        for i in range(k - 1, -1, -1):
            sub_prod = sub_prod * h[i + 1][i] % p
            if not sub_prod:
                break
            f = h[i][k] * sub_prod
            for j, y in enumerate(polys[i]):
                new[j] -= f * y
        polys.append([y % p for y in new])
    return polys[n][::-1]


def _reduced_kernel(rows, width, p):
    """The reduced echelon basis of the kernel of the matrix with the
    given rows, as a tuple of tuples; the rows are eliminated in place."""
    pivots = eliminate(rows, width, p)
    basis = [list(v) for v in kernel_basis(rows, pivots, width, GF(p))]
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


def _scan_prime(pres):
    """The p of a presentation over F_p; the scans refuse QQ."""
    p = pres.field.characteristic
    if not p:
        raise FieldMismatch(f"a presentation over {pres.field} cannot "
                            "be scanned: build it over GF(p)")
    return p


def validate_presentation(pres: SteinerPresentation) -> ValidationReport:
    """Valid iff every fiber map over P(V)(F_p) has full rank a, p the
    characteristic of the presentation's field.

    The report reads as a fiber scan in enumeration order:
    `fibers_scanned` is the position of the first bad fiber v plus one
    (all of P(V) when valid), and the witness is the first kernel vector
    u of that fiber, so mu(u (x) v) = 0.
    """
    p = _scan_prime(pres)
    a, m = pres.dim_u1, pres.dim_v
    rows = pres.tensor.entries
    if a < m:
        # canonical points sort in enumeration order, and the least
        # point of a subspace is the last row of its reduced echelon basis
        bad = min((_reduced_kernel(basis, m, p)[-1] for _, basis in
                   _rank_one_scan(rows, a, m, p, over_u1=True)),
                  default=None)
    else:
        bad = next((v for v, _ in
                    _rank_one_scan(rows, a, m, p, over_u1=False)), None)
    if bad is None:
        return ValidationReport(p, True, projective_count(p, m), None)
    witness = (rank_kernel(pres.fiber_matrix(bad)).kernel[0], bad)
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


def valles_locus(pres: SteinerPresentation) -> VallesReport:
    """Every unstable point of P(V)(F_p) with its cokernel dimension, in
    enumeration order, p the characteristic of the presentation's field;
    `scanned` counts the hyperplanes decided."""
    p = _scan_prime(pres)
    a, m, b = pres.dim_u1, pres.dim_v, pres.dim_u0
    kd = rank_kernel(pres.tensor)
    if a < m and kd.rank == b:
        seen = Counter(lam for _, basis in
                       _rank_one_scan(kd.kernel, a, m, p, over_u1=True)
                       for lam in _span_points(_reduced_kernel(basis, m, p),
                                               p))
        # lam turns up once per point of P(ker N(lam)), N(lam) the map
        # phi |-> K (phi (x) lam), and coker(lam) = dim ker N(lam) <= a
        dims = {projective_count(p, c): c for c in range(1, a + 1)}
        found = [(lam, dims[count]) for lam, count in sorted(seen.items())]
    else:
        # coker(lam) = (b - r) + dim ker N(lam), N(lam) the map
        # phi |-> K (phi (x) lam): when r < b every lam is unstable
        nullity = {lam: a - len(basis) for lam, basis in
                   _rank_one_scan(kd.kernel, a, m, p, over_u1=False)}
        found = [(lam, b - kd.rank + nullity.get(lam, 0)) for lam in
                 (projective_reps(p, m) if kd.rank < b else nullity)]
    return VallesReport(p, projective_count(p, m), tuple(found))
