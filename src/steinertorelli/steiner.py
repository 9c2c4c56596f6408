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
basic numerical output.  A functional psi on U0 kills that image
exactly when every row of psi T, read as an a x m matrix, is a multiple
of lam, that is when psi T = phi (x) lam for some phi in U1*, so with K
a basis of ker T and r the rank of T

    coker(lam) = (b - r) + dim {phi in U1* : K (phi (x) lam) = 0}:

the unstable locus is a linear section of the Segre variety
P(U1*) x P(V*) (Ancona-Ottaviani, Adv. Geom. 2001).  Recovery solves
psi T = phi (x) lam for the one trivial quotient psi, from one
elimination of T that the presentation keeps and the phi that the
instability scan found at lam.

Over F_p both scans run on one rank-one engine, `_rank_one_scan`: it
walks one projective factor, contracts a set of tensors by each point
and hands back, at each point where the small matrix that results has a
kernel, the dimension of that kernel and a callable that gives its
reduced echelon basis.  Where the point's line was decided with a
reference of full column rank, the callable finds that basis from what
the decision kept; elsewhere it eliminates the point's matrix, which it
builds from the point.  Either way a caller that reads only the
dimension pays for no kernel.  It walks the smaller factor.  When a < m,
validation contracts T over P(U1) and the instability scan contracts K
over P(U1*) (when r = b).  Otherwise both contract over P(V), the fibers
of T and the maps lam |-> K (. (x) lam).

Every walk goes through one vertex q, along lines.  q is e_last
when its contracted matrix B = N(q) has full column rank.  Otherwise
the first line, through e_last and e_(n-2), is decided with B =
N(e_last): q is its first point of full rank, and when it has none, as
on the Fermat quartic where every hyperplane is unstable, q stays
e_last.  Every other point is y + t q on a line through q, y a canonical
point with y_l = 0, l the lead of q.  One elimination per scan, `_split`,
takes [B | A(e_j) ...] to [B' | A'_j ...] over [0 | D_j ...], B' the
reduced echelon rows of B, for each coordinate j != l, and along the
walk A'(y) and D(y) are running sums: N(y + t q) has the kernel of
A'(y) + t B' inside ker D(y).  When B has full column rank, B' = I, and
with M = A'(y) the point is deficient exactly when -t is an eigenvalue
of M on W, the largest M-invariant subspace of ker D(y): ker D cut by
ker D M^i until it stops shrinking.  Most such lines cost one elimination
of D(y).  The characteristic polynomial of M on W is taken only where
W != 0, and each of its roots mod p (`roots`, in closed form up to
degree 2) is a deficient point, so no candidate is verified; the kernel
there is the eigenspace of M on W, found only when it is read.  When B
is deficient, the pencil on ker D(y) has fewer rows, and it is reduced
and decided again: a step of the staircase algorithm for the Kronecker
form of a pencil (Van Dooren, Linear Algebra Appl. 27, 1979), of which
the W iteration is the case B' = I.  It ends at B' = I or at a wide B'
with D = 0, where the nullity at every t is the excess of columns over
rows plus the nullity of the transposed pencil, whose B' is I.  Each step's reduction is again
`_split`, the one reduction of a [B | A ...] block, and the next step
takes the D rows it leaves as reduced.

When B has full column rank and n >= 3, [M(y); D(y)] is linear in y,
and the chain of its common kernels gives families in y (`_levels`)
whose deficient points are the only lines where W can be nonzero: those
points are found by the walk itself, one recursive walk per family, and
the line decision runs only on them.  The points found on the lines are
sorted into enumeration order, one run of lines with the same y_0 ...
y_(l-1) at a time; when q = e_last that is one line at a time.
"""

from __future__ import annotations

from functools import partial
from heapq import merge
from itertools import groupby, islice
from operator import mul, sub

from .errors import (FieldMismatch, NonUniqueQuotient, ShapeMismatch,
                     ZeroPoint)
from .exactfield import (GF, Matrix, Record, _set, eliminate, kept,
                         kernel_basis, left_kernel, normalize_projective,
                         projective_count, projective_rank, projective_reps,
                         rank, rank_kernel, roots)


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
        # lam -> a callable that gives the basis (phi,) of ker N(lam), at
        # each hyperplane of cokernel 1 that the last `valles_locus` of
        # this presentation found; `recover_section_point` reads it
        self._phis = {}

    @property
    def bundle_rank(self):
        return self.dim_u0 - self.dim_u1

    @kept
    def _elimination(self):
        """One elimination of [T | I_b] mod p, kept: (r, K, pivots, E)
        with r the rank of T, K its kernel basis as `rank_kernel` gives
        it, `pivots` the columns c_k of its reduced echelon rows R_k, and
        E the rows with E_k T = R_k, so the E_k with k >= r span the
        left kernel of T."""
        p = _scan_prime(self)
        b, n = self.dim_u0, self.tensor.ncols
        work = [list(row) + [int(i == k) for i in range(b)]
                for k, row in enumerate(self.tensor.entries)]
        pivots = [c for c in eliminate(work, n + b, p) if c < n]
        return (len(pivots), kernel_basis(work, pivots, n, self.field),
                pivots, [row[n:] for row in work])

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
    x of P(U1) when `over_u1`, else of P(V), and the contracted matrix
    N(x) is y |-> row(x (x) y) (resp. row(y (x) x)), one row per tensor:
    `_walk` of the family of the N(x).
    """
    # images[t]: the rows contracted by the t-th basis vector, row-major;
    # the contraction by x is the sum of x_t images[t]
    if over_u1:
        return _walk([[y for row in rows for y in row[t * m:t * m + m]]
                      for t in range(a)], m, p)
    return _walk([[y for row in rows for y in row[t::m]] for t in range(m)],
                 a, p)


def _walk(images, width, p):
    """The points x of P^(n-1)(F_p), n = len(images), where the member
    N(x), the sum of the x_t images[t] (row-major, `width` columns), has
    a kernel: for each x in enumeration order, x, the dimension of that
    kernel and a callable that gives its reduced echelon basis.

    Every point but the vertex q is y + t*q with y_l = 0, l the lead of
    q, and N(y + t*q) = A(y) + t*B with B = N(q) and A(y) = N(y).
    `_reference` reduces [B | A(e_j) ...] once, so the reduced rows of
    A(y) are linear in y, and `_line_shifts` reads the deficient t of
    each line off them, on each line that `_flagged_lines` hands on.  q
    is e_last when N(e_last) has full column rank.  Otherwise e_last is
    yielded first, and the line through it and e_(n-2), the next points
    in enumeration order, is decided with B = N(e_last) and its deficient
    points yielded; on P^1 that line is the rest of the walk.  q is its
    first point of full rank, or e_last when it has none, and the walk
    through q skips that line.  On a line whose B has full column rank
    the callable is the decision's, which finds the eigenspace of M on W;
    otherwise it eliminates N(x), which it builds from x.  Either way a
    caller that reads only the dimension pays for no kernel.  The points
    found past the first line are sorted into enumeration order and
    yielded whenever y[:l] changes.
    """
    n = len(images)
    if not n or not width:
        return
    q = (0,) * (n - 1) + (1,)
    ref, steps = _reference(images, q, width, p)
    skip = len(ref) < width
    if skip:
        yield q, width - len(ref), partial(_point_kernel, images, q, width, p)
        if n == 1:
            return
        # the first line, e_(n-2) + t e_last, whose reduced rows are
        # steps[-1]; its points follow e_last and precede all others
        deficient = set()
        for t, dim, _ in sorted(_line_shifts(steps[-1], ref, width, p)):
            x = q[:-2] + (1, t)
            deficient.add(t)
            yield x, dim, partial(_point_kernel, images, x, width, p)
        if n == 2:
            return
        t0 = next((t for t in range(p) if t not in deficient), None)
        if t0 is not None:
            q = q[:-2] + (1, t0)
            ref, steps = _reference(images, q, width, p)
    lead = q.index(1)
    found, prefix = [], None
    # the lines through q that may hold deficient points, each from y with
    # y_lead = 0; the first is the line through e_last and e_(n-2),
    # decided above when skip is set.  q is e_last or (0, ..., 0, 1, t0),
    # so on every other line y leads in x = y + t q: x is y[:lead] + (t,),
    # then y_last + t t0 for the latter
    for y, cur in _flagged_lines(steps, len(ref) == width, width, p, skip):
        if y[:lead] != prefix:
            # the points x found so far all share x[:lead] = prefix and
            # precede every later one
            yield from sorted(found)
            found, prefix = [], y[:lead]
        for t, dim, kernel in _line_shifts(cur, ref, width, p):
            x = prefix + (t,)
            if lead < n - 1:
                x += ((y[-1] + t * q[-1]) % p,)
            found.append((x, dim, kernel or
                          partial(_point_kernel, images, x, width, p)))
    yield from sorted(found)


def _reference(images, q, width, p):
    """The reduction of the walk through q: `_split` of B = N(q) and the
    A(e_j) for each coordinate j other than the lead of q."""
    lead = q.index(1)
    return _split(_member(images, q, p), images[:lead] + images[lead + 1:],
                  width, p)


def _split(big, others, width, p):
    """One step of the staircase: the reduced echelon rows B' of B = `big`,
    and for each A in `others` its rows reduced with B, row-major, every
    block with `width` columns and as many rows as B.

    One elimination takes [B | A ...] to P [B | A ...] with P invertible:
    the rows with a pivot in B are [B' | A' ...], and the nonzero rows
    with no pivot in B are [0 | D ...].  B' is in reduced echelon form
    with no zero row, and A + t B has the kernel of [A' + t B'; D] at
    every t.  When B has full column rank, B' = I.
    """
    ncols = (len(others) + 1) * width
    block = [big[s:s + width] + [y for img in others for y in img[s:s + width]]
             for s in range(0, len(big), width)]
    pivots = eliminate(block, ncols, p)
    block = block[:len(pivots)]
    return [row[:width] for row, c in zip(block, pivots) if c < width], [
        [y for row in block for y in row[k:k + width]]
        for k in range(width, ncols, width)]


def _member(images, x, p):
    """N(x), the sum of the x_t images[t], for a canonical point x."""
    lead = x.index(1)
    big = images[lead]
    for c, img in zip(x[lead + 1:], images[lead + 1:]):
        if c:
            big = [(u + c * v) % p for u, v in zip(big, img)]
    return big


def _point_kernel(images, x, width, p):
    """The reduced echelon basis of the kernel of N(x)."""
    return _reduced_kernel(_member(images, x, p), width, p)


def _odometer(points, steps, p):
    """Each point x with the sum of x_i steps[i] mod p, updated from the
    point before only at the coordinates that moved: few, when the points
    run like an odometer."""
    cur, prev = [0] * len(steps[0]), (0,) * len(steps)
    for x in points:
        for i, d in enumerate(map(sub, x, prev)):
            if d:
                cur = [(s + d * z) % p for s, z in zip(cur, steps[i])]
        prev = x
        yield x, cur


def _flagged_lines(steps, full, width, p, skip):
    """Each line y of the walk through q, in enumeration order, with the
    reduced rows of A(y) when it may hold a deficient point: the first
    line y = e_last unless `skip`, then the others.

    When B has full column rank (`full`), [M(y); D(y)] is linear in y, and
    `_levels` gives families in y whose deficient points are the only
    lines where W can be nonzero: the lines handed on are the points of
    their walks, merged in enumeration order.  Otherwise, or when it
    gives none, every line is handed on.
    """
    n = len(steps)
    if n and not skip:
        yield (0,) * (n - 1) + (1,), steps[-1]
    if n < 2:
        return
    levels = _levels(steps, width, p) if full else None
    if levels is None:
        rest = islice(projective_reps(p, n), 1, None)
    else:
        walks = [(y for y, _, _ in _walk(images, w, p))
                 for images, w in levels]
        # a line that two levels flag is handed on once, and e_last, the
        # first line, is no level's to hand on
        rest = (y for y, _ in groupby(merge(*walks)) if any(y[:-1]))
    yield from _odometer(rest, steps, p)


def _levels(steps, width, p):
    """The families in y that decide the lines of the walk, when B = I: a
    list of (images, width), one image per coordinate of y as `_walk`
    takes them, or None when a level would flag every line.

    With N_j = [M_j; D_j] the steps, C_0 is the common kernel of the D_j
    and C_(i+1) that of the parts of the M_j C_i outside C_i, down to
    C_k = 0.  Each level's family is that map out of C_i (D itself for
    i = -1, C_(-1) = V) restricted to a complement of C_(i+1).  At a y
    where every level has full column rank, ker D(y) = C_0 and W lies
    in C_(i+1) whenever it lies in C_i, so W = 0 and the line holds no
    deficient point.  When some C_i is invariant under every M_j, it lies
    in W on every line, and when a level is wide it flags every line:
    None.
    """
    mats = [[step[i:i + width] for i in range(0, len(step), width)]
            for step in steps]
    # blocks[j]: the map out of C_i of step j, C_(-1) = V first; each
    # basis vector of C_i is 1 at its lead and 0 at the others' leads
    blocks = [mat[width:] for mat in mats]
    basis = [[int(i == j) for j in range(width)] for i in range(width)]
    leads = range(width)
    levels = []
    while True:
        work = [list(row) for block in blocks for row in block]
        pivots = eliminate(work, len(basis), p)
        if not pivots:
            return None
        w = len(pivots)
        if len(blocks[0]) < w:
            # a family with fewer rows than columns has a kernel everywhere
            return None
        levels.append(([[row[c] for row in block for c in pivots]
                        for block in blocks], w))
        # the canonical kernel basis is 1 at its free columns, and 0 at
        # the others
        leads = [lead for c, lead in enumerate(leads) if c not in pivots]
        basis = [[sum(map(mul, c, col)) % p for col in zip(*basis)]
                 for c in kernel_basis(work, pivots, len(basis), GF(p))]
        if not basis:
            return levels
        # M_j y less its part in C_i, read off the coordinates other than
        # the leads of the basis; D_j y = 0
        rest = [r for r in range(width) if r not in leads]
        blocks = []
        for mat in mats:
            cols = []
            for y in basis:
                z = [sum(map(mul, row, y)) % p for row in mat[:width]]
                for c, b in zip(leads, basis):
                    f = z[c]
                    if f:
                        z = [(u - f * v) % p for u, v in zip(z, b)]
                cols.append([z[r] for r in rest])
            blocks.append([list(row) for row in zip(*cols)])


def _line_shifts(flat, ref, width, p):
    """The t in F_p where the pencil [A + t*ref; D] has a kernel, each
    with the dimension of that kernel and, when ref is I, a callable that
    gives its reduced echelon basis (else None).

    `flat` is row-major with `width` columns: the rows of A, as many as
    `ref` has, then the rows of D.  `ref` is in reduced echelon form with
    no zero row.  D is eliminated from its last column to its first, so
    that the canonical basis of ker D is in reduced echelon form, and the
    pencil is decided by `_decide`.
    """
    if not width:
        return ()
    split = len(ref) * width
    work = [flat[i:i + width][::-1] for i in range(split, len(flat), width)]
    pivots = eliminate(work, width, p)
    if len(pivots) == width:
        return ()
    res = [row[::-1] for row in work[:len(pivots)]]
    return _decide(flat[:split], ref, res, [width - 1 - c for c in pivots],
                   width, p, True)


def _step_shifts(flat, ref, width, p):
    """`_decide` of a pencil as `_split` leaves it: the rows of A' then
    those of D, which are reduced already, so each leads with 1 at its
    pivot.  A step of the staircase, whose kernels nobody reads."""
    split = len(ref) * width
    res = [flat[i:i + width] for i in range(split, len(flat), width)]
    return _decide(flat[:split], ref, res, [row.index(1) for row in res],
                   width, p, False)


def _decide(top, ref, res, pivots, width, p, kernels):
    """The shifts of the pencil [A + t*ref; D], A row-major in `top`, as
    `_line_shifts` gives them, from the rows `res` of D reduced with the
    `pivots`: each row is 1 at its pivot and 0 at the others', and there
    is no zero row.  Kernels are handed back only with `kernels`.

    A kernel vector at t lies in ker D, so with Y a basis of ker D it is
    Y c with (A Y + t ref Y) c = 0: a pencil with fewer rows, which
    `_split` reduces and which is decided again.  That is a step of Van
    Dooren's staircase for the Kronecker form of a pencil (Linear Algebra
    Appl. 27, 1979).  It stops at one of two cases.

    ref = I, with D below it or not: the kernel at t is that of M + t*I,
    M = A, inside ker D, so the t are the -eigenvalues of M on W, the
    largest M-invariant subspace of ker D, and the kernels are their
    eigenspaces.  W starts as ker D and is cut by ker D M^i, i = 1, 2,
    ..., until it stops shrinking; only when W != 0 is the characteristic
    polynomial of M on W taken, and its roots found by `roots`.  M on W is
    read off the products M Y of the first round, and the basis of W is
    reduced again only when the rounds cut it.  On a W of dimension 1 or
    2 the polynomial, the nullities and the eigenspaces are closed forms;
    on a larger one each nullity is a rank and each eigenspace one
    elimination.  An eigenspace is found only when its callable is
    called.

    ref wide and D = 0: the nullity at every t is the number of columns
    less the rows, plus the nullity of the transposed pencil, which
    `_split` reduces to a reference I.
    """
    if len(pivots) == width:
        return ()
    k = len(ref)
    if k < width and not res:
        # the transposed pencil A^T + t ref^T, which has no column, and
        # no kernel, when ref has no row
        dims = {}
        if ref:
            # ref^T has full column rank, so its reduced rows are I
            eye, (dual,) = _split(
                [x for col in zip(*ref) for x in col],
                [[x for c in range(width) for x in top[c::width]]], k, p)
            dims = {t: dim for t, dim, _ in _step_shifts(dual, eye, k, p)}
        return [(t, width - k + dims.get(t, 0), None) for t in range(p)]
    fld = GF(p)
    ys = kernel_basis(res, pivots, width, fld)
    mat = [top[i:i + width] for i in range(0, len(top), width)]
    if k < width:
        # the pencil on ker D in the basis ys
        lower, (rest,) = _split(
            [sum(map(mul, row, y)) % p for row in ref for y in ys],
            [[sum(map(mul, row, y)) % p for row in mat for y in ys]],
            len(ys), p)
        return _step_shifts(rest, lower, len(ys), p)
    # ys: a basis of W so far, zs: M^i applied to it, i >= 1, and mys:
    # M ys until W is cut.  The canonical ys are 1 at their own free
    # column and 0 at the others', so M y, when it lies in W, has its
    # coordinates there
    zs = mys = [[sum(map(mul, row, y)) % p for row in mat] for y in ys]
    while res:
        cut = [[sum(map(mul, row, z)) % p for z in zs] for row in res]
        lost = eliminate(cut, len(ys), p)
        if not lost:
            break
        if len(lost) == len(ys):
            return ()
        coeffs = kernel_basis(cut, lost, len(ys), fld)
        ys = [[sum(map(mul, c, col)) % p for col in zip(*ys)] for c in coeffs]
        zs = [[sum(map(mul, row, z)) % p for row in mat]
              for z in ([sum(map(mul, c, col)) % p for col in zip(*zs)]
                        for c in coeffs)]
        mys = None
    if mys is None:
        # with the ys in reduced echelon form, the entries of M y at their
        # pivots are the coordinates of M y in the basis ys
        leads = eliminate(ys, width, p)
        restricted = [[sum(map(mul, mat[c], y)) % p for c in leads]
                      for y in ys]
    else:
        free = [c for c in range(width) if c not in pivots]
        restricted = [[z[c] for c in free] for z in mys]
    # the rows of `restricted` make the transpose of M on W, with the
    # same polynomial
    return [(-mu % p, _nullity(restricted, mu, p),
             partial(_eigenspace, restricted, ys, mu, p) if kernels else None)
            for mu in roots(_charpoly(restricted, p), p)]


def _nullity(restricted, mu, p):
    """The dimension of the eigenspace at an eigenvalue mu of M on W, from
    the transpose `restricted` of M on W: dim W less the rank of
    restricted - mu I.  That rank is below dim W, so when W is a line or
    a plane it is 0 only where restricted is mu I, and 1 elsewhere."""
    k = len(restricted)
    if k == 1:
        return 1
    if k == 2:
        (a, b), (c, d) = restricted
        return 2 if a == d == mu and not (b or c) else 1
    shifted = [[(x - mu) % p if i == j else x for j, x in enumerate(row)]
               for i, row in enumerate(restricted)]
    return k - len(eliminate(shifted, k, p, full=False))


def _eigenspace(restricted, ys, mu, p):
    """The reduced echelon basis of the eigenspace at mu of M on W, from
    the reduced echelon basis `ys` of W and the transpose `restricted` of
    M on W in it.

    The eigenspace is the combinations sum c_i ys_i with c (restricted -
    mu I) = 0, and a basis of such c in reduced echelon form gives one of
    the combinations, because ys is in reduced echelon form.  When W is a
    line, M acts on it by mu, and the eigenspace is W.  When W is a plane,
    S = restricted - mu I is 0, and the eigenspace is W, or S has rank 1
    and c is a nonzero row of its adjugate, since adj(S) S = det(S) I = 0.
    """
    k = len(ys)
    if k == 1:
        return (tuple(ys[0]),)
    if k == 2:
        (a, b), (c, d) = restricted
        a, d = (a - mu) % p, (d - mu) % p
        if not (a or b or c or d):
            return tuple(map(tuple, ys))
        u, v = (d, -b) if d or b else (-c, a)
        if not u:
            return (tuple(ys[1]),)
        f = v * pow(u, p - 2, p) % p
        return (tuple((x + f * y) % p for x, y in zip(*ys)),)
    cs = _reduced_kernel([(restricted[i][j] - mu * (i == j)) % p
                          for j in range(k) for i in range(k)], k, p)
    return tuple(tuple(sum(map(mul, c, col)) % p for col in zip(*ys))
                 for c in cs)


def _charpoly(mat, p):
    """The characteristic polynomial det(x I - mat) of a square matrix
    mod p, as its coefficients from the leading 1 down.

    Similarity transforms bring the matrix to upper Hessenberg form H;
    the characteristic polynomials P_k of its leading k x k blocks then
    satisfy P_k = (x - h_kk) P_(k-1) - sum over i < k of h_ik times the
    subdiagonal entries h_(i+1)i ... h_k(k-1) times P_(i-1) (indices
    from 1).  A 2 x 2 matrix gives x^2 - (trace) x + det at once.
    """
    n = len(mat)
    if n == 2:
        # the trace and the determinant
        (a, b), (c, d) = mat
        return [1, -(a + d) % p, (a * d - b * c) % p]
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


def _reduced_kernel(flat, width, p):
    """The reduced echelon basis of the kernel of a row-major matrix with
    `width` columns, as a tuple of tuples, from one elimination: the
    canonical kernel basis of the matrix eliminated from its last column
    to its first is in reduced echelon form, read backwards."""
    work = [flat[k:k + width][::-1] for k in range(0, len(flat), width)]
    basis = kernel_basis(work, eliminate(work, width, p), width, GF(p))
    return tuple(v[::-1] for v in reversed(basis))


def _span_points(basis, p):
    """The canonical points of the span of a reduced echelon basis: a
    combination whose first nonzero coefficient is 1 has leading entry 1
    at that row's pivot."""
    for c in projective_reps(p, len(basis)):
        yield tuple(sum(map(mul, c, col)) % p for col in zip(*basis))


# ---- validity --------------------------------------------------------------


class ValidationReport(Record):
    __slots__ = _fields = ("prime", "valid", "fibers_scanned", "witness")

    def __init__(self, prime, valid, fibers_scanned, witness):
        _set(self, "prime", prime)
        _set(self, "valid", valid)
        _set(self, "fibers_scanned", fibers_scanned)
        # (u, v) pair of coordinate tuples when invalid
        _set(self, "witness", witness)

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
        bad = min((kernel()[-1] for _, _, kernel in
                   _rank_one_scan(rows, a, m, p, over_u1=True)),
                  default=None)
    else:
        bad = next((v for v, _, _ in
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
    one-dimensional cokernel, as a normalized functional on U0.

    psi T = phi (x) lam needs phi in the kernel of N(lam), the map
    phi |-> K (phi (x) lam).  When r = b, phi (x) lam then lies in the
    row space of T, so psi is the combination of the kept rows E_k with
    the coefficients of phi (x) lam at the pivot columns c_k; when
    r = b - 1 and phi is 0, psi spans the left kernel of T.  The scale
    of lam does not matter.

    Where `valles_locus` has run on the presentation, phi is the one its
    walk found at lam, so N(lam) is solved only at a lam that no scan
    recorded: before any scan, or at a rescaled lam.
    """
    r, kernel, pivots, rows = pres._elimination()
    p = pres.field.characteristic
    a, m, b = pres.dim_u1, pres.dim_v, pres.dim_u0
    lam = pres._coords(lam)
    if not any(lam):
        raise ZeroPoint("the zero functional defines no hyperplane")
    found = pres._phis.get(tuple(lam))
    if found:
        phis = found()
    else:
        n_lam = [[sum(map(mul, vec[i:i + m], lam)) % p
                  for i in range(0, a * m, m)] for vec in kernel]
        phis = kernel_basis(n_lam, eliminate(n_lam, a, p), a, pres.field)
    coker = b - r + len(phis)
    if coker != 1:
        raise NonUniqueQuotient(
            f"cokernel dimension is {coker}, recovery needs exactly 1")
    if r < b:
        psi = rows[r]
    else:
        weights = [phis[0][c // m] * lam[c % m] for c in pivots]
        psi = [sum(map(mul, weights, col)) for col in zip(*rows)]
    return normalize_projective(pres.field, psi)


# ---- the Valles locus -------------------------------------------------------


class VallesReport(Record):
    __slots__ = _fields = ("prime", "scanned", "unstable")

    def __init__(self, prime, scanned, unstable):
        _set(self, "prime", prime)
        _set(self, "scanned", scanned)
        # ordered pairs (lambda tuple, coker_dim)
        _set(self, "unstable", unstable)

    def unstable_set(self):
        return {lam for lam, _ in self.unstable}

    def to_json_dict(self):
        return {"prime": self.prime, "scanned": self.scanned,
                "unstable": [{"lambda": list(lam), "coker": coker}
                             for lam, coker in self.unstable]}


def valles_locus(pres: SteinerPresentation) -> VallesReport:
    """Every unstable point of P(V)(F_p) with its cokernel dimension, in
    enumeration order, p the characteristic of the presentation's field;
    `scanned` counts the hyperplanes decided.  The phi it finds at the
    hyperplanes of cokernel 1 are kept on the presentation for
    `recover_section_point`."""
    p = _scan_prime(pres)
    a, m, b = pres.dim_u1, pres.dim_v, pres.dim_u0
    r, kernel, _, _ = pres._elimination()
    if a < m and r == b:
        seen = {}
        for phi, _, lam_basis in _rank_one_scan(kernel, a, m, p,
                                                over_u1=True):
            for lam in _span_points(lam_basis(), p):
                seen.setdefault(lam, []).append(phi)
        # lam turns up once per point of P(ker N(lam)), N(lam) the map
        # phi |-> K (phi (x) lam), and coker(lam) = dim ker N(lam) <= a;
        # partial(tuple, k) hands k back
        dims = {projective_count(p, c): c for c in range(1, a + 1)}
        found = [(lam, dims[len(phis)]) for lam, phis in sorted(seen.items())]
        pres._phis = {lam: partial(tuple, phis)
                      for lam, phis in seen.items() if len(phis) == 1}
    else:
        # coker(lam) = (b - r) + dim ker N(lam), N(lam) the map
        # phi |-> K (phi (x) lam): when r < b every lam is unstable
        nullity, phis = {}, {}
        for lam, dim, phi_basis in _rank_one_scan(kernel, a, m, p,
                                                  over_u1=False):
            nullity[lam] = dim
            if dim == 1:
                phis[lam] = phi_basis
        pres._phis = phis if r == b else {}
        found = [(lam, b - r + nullity.get(lam, 0)) for lam in
                 (projective_reps(p, m) if r < b else nullity)]
    return VallesReport(p, projective_count(p, m), tuple(found))
