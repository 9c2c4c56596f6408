"""Koszul cohomology of graded modules at desk scale.

A GradedModuleWindow holds the graded pieces M_lo .. M_hi of a module
over the polynomial functions of an acting space U, together with the
action of U out of each piece as sparse columns: entry i * dim M_k + t
of the degree-k table lists the (w, x) pairs with x != 0 of u_i m_t in
the basis of M_{k+1}.  Differentials read a table as the pair of it
and its negation, over QQ both times the lcm of the table's
denominators, as ints (`polyalg.signed_columns`).  A scene keeps the
tables and pairs per label and field, next to its rings and evaluators,
so every window over its whole series reads the same pairs; a window
over a subspace of the series, or over the ideal of a point set, builds
its own tables and derives each pair at most once.  Only tables and
pairs are kept: ranks, differentials and windows are computed anew at
every call.  The groups K_{p,q} are cohomology of

    Lambda^{p+1} U (x) M_{q-1}  ->  Lambda^p U (x) M_q
                                ->  Lambda^{p-1} U (x) M_{q+1}

with d(u_{i_1} ^ ... ^ u_{i_p} (x) m) = sum_j (-1)^(j+1)
(drop i_j) (x) u_{i_j} m, so a dimension is one middle dimension and
two ranks.  Each differential is assembled once, as sparse columns read
straight off the signed pairs, and its rank comes from a sparse echelon
reduction of those columns (`_differential_rank`), exact over QQ with
fraction-free integer updates.  A differential is mostly zeros: with
monomial bases it splits into weight pieces, and a reduction that only
combines columns sharing a row never fills in across them, so the
sparse reduction does no work on the zeros that a dense elimination
would.  The package's one dense kernel, exactfield.eliminate, serves
the matrices that are dense: scans, rings, point sets and the rank
oracle of the tests.  The exterior basis of Lambda^p U is
ordered as itertools.combinations(range(dim U), p) lists it, and a
differential's row and column blocks follow that order.  Windows are
built either from a scene's section ring or from the homogeneous ideal
of a finite point set.
"""

from __future__ import annotations

import itertools
from math import comb, gcd

from .errors import UnsupportedScene, WindowTooSmall
from .exactfield import Matrix, QQ, Record, _set, kept, span_reduction
from .polyalg import (action_columns, monomial_basis, monomial_index,
                      products, restrict_right, signed_columns)


def exterior_dim(dim_u, p):
    return comb(dim_u, p) if 0 <= p <= dim_u else 0


# ---- windows ----------------------------------------------------------------


class GradedModuleWindow(Record):
    """Graded pieces and action tables over a degree range.  An action
    table is a tuple of sparse columns, U-major: entry i * dim M_k + t
    lists the (w, x) pairs with x != 0 of u_i m_t = sum_w x m'_w in the
    basis m' of M_(k+1).  A scene window over the whole series takes the
    tables and signed pairs the scene keeps per label and field; a window
    over a subspace of the series, or of a point set's ideal, builds its
    own tables and derives their pairs in `signed`.  It has an instance
    __dict__, where `signed` keeps its pairs."""

    # the tables' signed pairs, when a scene keeps them, are derived from
    # mults, so they are not among the compared fields
    _fields = ("field", "dim_u", "lo", "hi", "dims", "mults")

    def __init__(self, field, dim_u, lo, hi, dims, mults, pairs=None):
        _set(self, "field", field)
        _set(self, "dim_u", dim_u)
        _set(self, "lo", lo)
        _set(self, "hi", hi)
        _set(self, "dims", dims)        # dims[k - lo] = dim M_k
        # mults[k - lo][i * dim M_k + t]: (w, x) pairs of u_i m_t
        _set(self, "mults", mults)
        _set(self, "pairs", pairs)

    def dim(self, k):
        if not self.lo <= k <= self.hi:
            raise WindowTooSmall(
                f"degree {k} outside window [{self.lo}, {self.hi}]")
        return self.dims[k - self.lo]

    def mult(self, k):
        if not self.lo <= k <= self.hi - 1:
            raise WindowTooSmall(
                f"no multiplication out of degree {k} in "
                f"window [{self.lo}, {self.hi}]")
        return self.mults[k - self.lo]

    @kept
    def signed(self, k):
        """The (plus, minus) pair of mult(k) (`polyalg.signed_columns`):
        the scene's kept pair, or derived once per window."""
        if self.pairs is not None:
            return self.pairs[k - self.lo]
        return signed_columns(self.mult(k), self.field)


def scene_window(scene, n_label, lo, hi, field=QQ, subspace=None) -> \
        GradedModuleWindow:
    """Window for the module M_k = H0(N (x) A^k) acted on by the scene's
    series (or by the span of `subspace` coordinate vectors inside it)."""
    if hi < lo + 1:
        raise WindowTooSmall("a window needs at least two degrees")
    a_label = scene.label_A()
    labels = {k: scene.label_add(n_label, scene.label_scale(a_label, k))
              for k in range(lo, hi + 1)}
    dims = tuple(scene.section_space(labels[k], field).dim
                 for k in range(lo, hi + 1))
    full_u = scene.series_dim(field)
    if subspace is None:
        mults, pairs = (tuple(table(labels[k], field) for k in range(lo, hi))
                        for table in (scene.action_columns,
                                      scene.signed_columns))
        return GradedModuleWindow(field, full_u, lo, hi, dims, mults, pairs)
    coords = tuple(tuple(field.normalize(x) for x in vec)
                   for vec in subspace)
    for vec in coords:
        if len(vec) != full_u:
            raise UnsupportedScene(
                f"subspace vectors must have length {full_u}")
    mults = tuple(action_columns(restrict_right(
        scene.multiplication_map(labels[k], a_label, field), coords),
        len(coords)) for k in range(lo, hi))
    return GradedModuleWindow(field, len(coords), lo, hi, dims, mults)


def pointset_ideal_window(points, k_lo, k_hi, field=QQ) -> \
        GradedModuleWindow:
    """Window for M_k = I_k, the degree-k forms vanishing on the point
    set, acted on by all linear forms.  Graded pieces are the canonical
    kernels of the evaluation rows, one `span_reduction` per degree, so
    coordinates in each basis can be read off at its free monomial
    positions, the reduction's complement."""
    if k_hi < k_lo + 1:
        raise WindowTooSmall("a window needs at least two degrees")
    nvars = points.r + 1
    bases, free = {}, {}
    for k in range(k_lo, k_hi + 1):
        if k < 0:
            bases[k], free[k] = (), ()
            continue
        kd = span_reduction(points.evaluation_matrix(k, field),
                            len(monomial_basis(nvars, k)), field)
        bases[k], free[k] = kd.kernel, kd.complement
    dims = tuple(len(bases[k]) for k in range(k_lo, k_hi + 1))
    linear = monomial_basis(nvars, 1)
    mults = []
    for k in range(k_lo, k_hi):
        forms = [[(m, c) for m, c in zip(monomial_basis(nvars, k), g) if c]
                 for g in bases[k]]
        mults.append(tuple(
            tuple((w, prod[f]) for w, f in enumerate(free[k + 1])
                  if prod[f])
            for prod in products(field, linear, forms,
                                 monomial_index(nvars, k + 1))))
    return GradedModuleWindow(field, nvars, k_lo, k_hi, dims, tuple(mults))


# ---- differentials and dimensions -------------------------------------------


def _differential_columns(window: GradedModuleWindow, p, q):
    """Row count and sparse columns of Lambda^p U (x) M_q ->
    Lambda^(p-1) U (x) M_(q+1), read off the signed pair out of M_q:
    column k maps the row of each of its nonzero entries to that entry.
    The terms u_(i_j) m_t of one column land in distinct exterior row
    blocks, so every entry is an entry of plus or of minus and nothing
    is summed.  Over QQ the columns are ints, the true ones times the
    pair's one constant."""
    n = window.dim_u
    dm_in = window.dim(q)
    dm_out = window.dim(q + 1)
    rows_out = exterior_dim(n, p - 1) * dm_out
    cols_in = exterior_dim(n, p) * dm_in
    if p < 1 or rows_out == 0 or cols_in == 0:
        return rows_out, [{} for _ in range(cols_in)]
    plus, minus = window.signed(q)
    base = {tup: k * dm_out for k, tup in
            enumerate(itertools.combinations(range(n), p - 1))}
    cols = []
    for tup in itertools.combinations(range(n), p):
        terms = [(base[tup[:j] + tup[j + 1:]], minus if j % 2 else plus,
                  i * dm_in) for j, i in enumerate(tup)]
        for t in range(dm_in):
            cols.append({start + w: x for start, action, at in terms
                         for w, x in action[at + t]})
    return rows_out, cols


# test oracle kept while benchmark/layertrace.py wraps it (ROADMAP item 1)
def koszul_differential(window: GradedModuleWindow, p, q) -> Matrix:
    """Lambda^p U (x) M_q -> Lambda^(p-1) U (x) M_(q+1), exterior-major
    row and column blocks, over the window's field: the columns the ranks
    read, divided by the constant of the signed pair out of M_q."""
    nrows, cols = _differential_columns(window, p, q)
    field = window.field
    unscale = field.one
    if any(cols) and not field.characteristic:
        unscale = next(true[0][1] / plus[0][1] for plus, true in
                       zip(window.signed(q)[0], window.mult(q)) if true)
    ncols = len(cols)
    rows = [[field.zero] * ncols for _ in range(nrows)]
    for c, col in enumerate(cols):
        for r, x in col.items():
            rows[r][c] = x * unscale
    return Matrix(field, nrows, ncols, tuple(map(tuple, rows)))


def _differential_rank(window: GradedModuleWindow, p, q):
    """Rank of the differential out of Lambda^p U (x) M_q, by a sparse
    echelon reduction of its columns.  A column is reduced by the kept
    vector whose pivot is its least row until that row is new, and is
    then kept with that row as pivot; the rank is the number of kept
    vectors.  Mod p a kept vector is scaled to lead 1.  Over QQ the
    columns are ints, read off the window's signed pairs; each is divided
    by its content, a kept vector is negated to a positive lead, and
    updates are fraction-free, as in `eliminate`: a column with entry f
    at the lead of a kept vector v becomes (lead/g) col - (f/g) v,
    g = gcd(lead, f), divided by its content when lead/g is not 1.

    A reduction only ever combines vectors that share a row, so fill-in
    stays inside a connected component of the differential's nonzero
    pattern (with monomial bases, a weight piece): the sparse reduction
    does the work of a blockwise one without finding the blocks."""
    p_char = window.field.characteristic
    _, cols = _differential_columns(window, p, q)
    pivots = {}
    for vec in cols:
        if not p_char and vec:
            g = gcd(*vec.values())
            if g > 1:
                vec = {r: x // g for r, x in vec.items()}
        while vec:
            lead = min(vec)
            other = pivots.get(lead)
            f = vec[lead]
            if other is None:
                if p_char and f != 1:
                    inv = pow(f, -1, p_char)
                    vec = {r: x * inv % p_char for r, x in vec.items()}
                elif f < 0:
                    vec = {r: -x for r, x in vec.items()}
                pivots[lead] = vec
                break
            if p_char:
                for r, y in other.items():
                    x = (vec.get(r, 0) - f * y) % p_char
                    if x:
                        vec[r] = x
                    else:
                        del vec[r]
                continue
            g = gcd(other[lead], f)
            a, b = other[lead] // g, f // g
            if a != 1:
                vec = {r: a * x for r, x in vec.items()}
            for r, y in other.items():
                x = vec.get(r, 0) - b * y
                if x:
                    vec[r] = x
                else:
                    del vec[r]
            if a != 1 and vec:
                g = gcd(*vec.values())
                if g > 1:
                    vec = {r: x // g for r, x in vec.items()}
    return len(pivots)


class KoszulGroupDim(Record):
    __slots__ = _fields = ("p", "q", "dim", "rank_in", "rank_out", "middle")

    def __init__(self, p, q, dim, rank_in, rank_out, middle):
        _set(self, "p", p)
        _set(self, "q", q)
        _set(self, "dim", dim)
        _set(self, "rank_in", rank_in)
        _set(self, "rank_out", rank_out)
        _set(self, "middle", middle)

    def to_json_dict(self):
        return {"p": self.p, "q": self.q, "dim": self.dim,
                "rank_in": self.rank_in, "rank_out": self.rank_out,
                "middle": self.middle}


def koszul_dim(window: GradedModuleWindow, p, q) -> KoszulGroupDim:
    middle = exterior_dim(window.dim_u, p) * window.dim(q)
    rank_out = _differential_rank(window, p, q)
    rank_in = _differential_rank(window, p + 1, q - 1)
    dim = middle - rank_out - rank_in
    return KoszulGroupDim(p, q, dim, rank_in, rank_out, middle)


# ---- duality, Green verdicts -------------------------------------------------


class DualityReport(Record):
    __slots__ = _fields = ("p", "q", "lhs_dim", "rhs_dim", "rhs_p", "rhs_q",
                           "hypotheses_ok")

    def __init__(self, p, q, lhs_dim, rhs_dim, rhs_p, rhs_q, hypotheses_ok):
        _set(self, "p", p)
        _set(self, "q", q)
        _set(self, "lhs_dim", lhs_dim)
        _set(self, "rhs_dim", rhs_dim)
        _set(self, "rhs_p", rhs_p)
        _set(self, "rhs_q", rhs_q)
        _set(self, "hypotheses_ok", hypotheses_ok)

    @property
    def match(self):
        return self.lhs_dim == self.rhs_dim

    def to_json_dict(self):
        return {"p": self.p, "q": self.q, "lhs_dim": self.lhs_dim,
                "rhs_p": self.rhs_p, "rhs_q": self.rhs_q,
                "rhs_dim": self.rhs_dim,
                "hypotheses_ok": self.hypotheses_ok,
                "match": self.match}


def duality_check(scene, n_label, p, q, field=QQ) -> DualityReport:
    """Compare dim K_{p,q}(X, N; V) with dim K_{s-n-p, n+1-q}(X,
    omega (x) N^-1; V), s = dim V - 1.  The serre-type hypotheses
    H^i(N (x) A^(q-i)) = H^i(N (x) A^(q-1-i)) = 0 for 0 < i < n are
    evaluated through the scene's cohomology; equality is only a theorem
    when they hold, but both dimensions are always reported."""
    if scene.kind == "point_set":
        raise UnsupportedScene("duality needs a linear series, and point "
                               "sets carry none")
    if not scene.supports_cohomology:
        raise UnsupportedScene(
            f"duality needs cohomology, not modelled for {scene.kind}")
    n = scene.dimension
    s = scene.series_dim(field) - 1
    a_label = scene.label_A()
    hyp_ok = True
    for i in range(1, n):
        for shift in (q - i, q - 1 - i):
            lab = scene.label_add(n_label,
                                  scene.label_scale(a_label, shift))
            if scene.cohomology_dim(lab, i, field) != 0:
                hyp_ok = False
    lhs = koszul_dim(scene_window(scene, n_label, q - 1, q + 1, field),
                     p, q)
    omega = scene.canonical_label()
    dual_label = scene.label_add(omega, scene.label_scale(n_label, -1))
    rp, rq = s - n - p, n + 1 - q
    rhs = koszul_dim(scene_window(scene, dual_label, rq - 1, rq + 1,
                                  field), rp, rq)
    return DualityReport(p, q, lhs.dim, rhs.dim, rp, rq, hyp_ok)


class GreenReport(Record):
    __slots__ = _fields = ("p", "dim", "degree", "degree_bound_ok", "verdict")

    def __init__(self, p, dim, degree, degree_bound_ok, verdict):
        _set(self, "p", p)
        _set(self, "dim", dim)
        _set(self, "degree", degree)
        _set(self, "degree_bound_ok", degree_bound_ok)
        _set(self, "verdict", verdict)

    def to_json_dict(self):
        return {"p": self.p, "dim": self.dim, "degree": self.degree,
                "degree_bound_ok": self.degree_bound_ok,
                "verdict": self.verdict}


def green_kp1(scene, field=QQ) -> GreenReport:
    """dim K_{r-n-1,1}(X; V) for the complete series V = H0(A); nonzero
    exactly when X sits on an (n+1)-fold of minimal degree, granted the
    degree bound deg_A(X) >= r - n + 3."""
    if scene.kind == "point_set":
        raise UnsupportedScene("the minimal-degree verdict needs a linear "
                               "series, and point sets carry none")
    if not scene.supports_cohomology:
        raise UnsupportedScene(
            f"minimal-degree verdict unsupported for {scene.kind}")
    if not scene.series_complete():
        raise UnsupportedScene("the verdict needs the complete series")
    r = scene.series_dim(field) - 1
    n = scene.dimension
    p = r - n - 1
    deg = scene.degree_A()
    bound_ok = deg >= r - n + 3
    zero = scene.label_scale(scene.label_A(), 0)
    group = koszul_dim(scene_window(scene, zero, 0, 2, field), p, 1)
    verdict = "minimal-degree variety detected" if group.dim else \
        "no minimal-degree variety detected"
    return GreenReport(p, group.dim, deg, bound_ok, verdict)


class GreenPointsReport(Record):
    __slots__ = _fields = ("count", "r", "dim", "on_rnc", "ideal_dims")

    def __init__(self, count, r, dim, on_rnc, ideal_dims):
        _set(self, "count", count)
        _set(self, "r", r)
        _set(self, "dim", dim)
        _set(self, "on_rnc", on_rnc)
        _set(self, "ideal_dims", ideal_dims)

    def to_json_dict(self):
        return {"count": self.count, "r": self.r, "dim": self.dim,
                "on_rnc": self.on_rnc,
                "ideal_dims": list(self.ideal_dims)}


def green_points_test(points, field=QQ) -> GreenPointsReport:
    """dim K_{r-2,2}(P^r, I; V) for d >= r+1 points in linear general
    position; nonzero iff the points lie on a rational normal curve."""
    r = points.r
    points.require_general_position(field)
    window = pointset_ideal_window(points, 1, 3, field)
    group = koszul_dim(window, r - 2, 2)
    return GreenPointsReport(points.count, r, group.dim, group.dim != 0,
                             (window.dim(1), window.dim(2),
                              window.dim(3)))
