"""Koszul cohomology of graded modules at desk scale.

A GradedModuleWindow holds the graded pieces M_lo .. M_hi of a module
over the polynomial functions of an acting space U, together with the
action of U out of each piece as sparse columns: entry i * dim M_k + t
of the degree-k table lists the (w, x) pairs with x != 0 of u_i m_t in
the basis of M_{k+1}.  A scene keeps these tables and their negations
per label and field (`SectionRing.action_columns`), next to its rings
and evaluators, so every window over its whole series reads the same
tables; a window over a subspace of the series, or over the ideal of a
point set, builds its own and negates each at most once.  Only tables
are kept: ranks, differentials and windows are computed anew at every
call.  The groups K_{p,q} are cohomology of

    Lambda^{p+1} U (x) M_{q-1}  ->  Lambda^p U (x) M_q
                                ->  Lambda^{p-1} U (x) M_{q+1}

with d(u_{i_1} ^ ... ^ u_{i_p} (x) m) = sum_j (-1)^(j+1)
(drop i_j) (x) u_{i_j} m, so a dimension is one middle dimension and
two ranks.  Each differential is assembled once, as sparse columns read
straight off the action tables, and each rank is a sum over independent
blocks: the connected components of the differential's row/column
nonzero pattern (with monomial bases, its weight pieces).  One pass
after the union-find numbers the rows of every component, each block's
rows are filled from the sparse columns, and each block is eliminated
densely by exactfield.eliminate.  The exterior basis of Lambda^p U is
ordered as itertools.combinations(range(dim U), p) lists it, and a
differential's row and column blocks follow that order.  Windows are
built either from a scene's section ring or from the homogeneous ideal
of a finite point set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field
from math import comb

from .errors import UnsupportedScene, WindowTooSmall
from .exactfield import Matrix, QQ, eliminate, span_reduction
from .polyalg import (action_columns, monomial_basis, monomial_index,
                      negated_columns, products, restrict_right)


def exterior_dim(dim_u, p):
    return comb(dim_u, p) if 0 <= p <= dim_u else 0


# ---- windows ----------------------------------------------------------------


@dataclass(frozen=True)
class GradedModuleWindow:
    """Graded pieces and action tables over a degree range.  An action
    table is a tuple of sparse columns, U-major: entry i * dim M_k + t
    lists the (w, x) pairs with x != 0 of u_i m_t = sum_w x m'_w in the
    basis m' of M_(k+1).  A scene window over the whole series takes the
    tables the scene keeps per label and field (`action_columns`), and
    their negations; a window over a subspace of the series, or of a
    point set's ideal, builds its own and negates them in `negated`."""

    field: object
    dim_u: int
    lo: int
    hi: int
    dims: tuple       # dims[k - lo] = dim M_k
    mults: tuple      # mults[k - lo][i * dim M_k + t]: (w, x) pairs of u_i m_t
    # the tables negated, when a scene keeps them; derived from mults, so
    # not compared
    negs: tuple = dataclass_field(default=None, compare=False, repr=False)

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

    def negated(self, k):
        """mult(k) with every value negated: the scene's kept table, or
        derived once per window."""
        if self.negs is not None:
            return self.negs[k - self.lo]
        kept = vars(self).setdefault("_negated", {})
        got = kept.get(k)
        if got is None:
            got = kept[k] = negated_columns(self.mult(k), self.field)
        return got


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
        mults, negs = (tuple(scene.action_columns(labels[k], field, negated)
                             for k in range(lo, hi))
                       for negated in (False, True))
        return GradedModuleWindow(field, full_u, lo, hi, dims, mults, negs)
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
    Lambda^(p-1) U (x) M_(q+1): column k lists the (row, entry) pairs of
    its nonzero entries.  The terms u_(i_j) m_t of one column land in
    distinct exterior row blocks, so every entry is plus or minus an
    action entry and nothing is summed."""
    n = window.dim_u
    dm_in = window.dim(q)
    dm_out = window.dim(q + 1)
    rows_out = exterior_dim(n, p - 1) * dm_out
    cols_in = exterior_dim(n, p) * dm_in
    if p < 1 or rows_out == 0 or cols_in == 0:
        return rows_out, [()] * cols_in
    plus = window.mult(q)
    minus = window.negated(q) if p > 1 else None
    base = {tup: k * dm_out for k, tup in
            enumerate(itertools.combinations(range(n), p - 1))}
    cols = []
    for tup in itertools.combinations(range(n), p):
        terms = [(base[tup[:j] + tup[j + 1:]], minus if j % 2 else plus,
                  i * dm_in) for j, i in enumerate(tup)]
        for t in range(dm_in):
            cols.append([(start + w, x) for start, action, at in terms
                         for w, x in action[at + t]])
    return rows_out, cols


# test oracle kept while benchmark/layertrace.py wraps it (ROADMAP item 1)
def koszul_differential(window: GradedModuleWindow, p, q) -> Matrix:
    """Lambda^p U (x) M_q -> Lambda^(p-1) U (x) M_(q+1), exterior-major
    row and column blocks."""
    nrows, cols = _differential_columns(window, p, q)
    ncols = len(cols)
    rows = [[window.field.zero] * ncols for _ in range(nrows)]
    for c, col in enumerate(cols):
        for r, x in col:
            rows[r][c] = x
    return Matrix(window.field, nrows, ncols, tuple(map(tuple, rows)))


def _differential_rank(window: GradedModuleWindow, p, q):
    """Rank of the differential out of Lambda^p U (x) M_q, as the sum of
    the ranks of the connected components of its row/column nonzero
    pattern.  Each component is eliminated densely, with the columns of
    the differential as its rows."""
    nrows, cols = _differential_columns(window, p, q)
    parent = list(range(nrows))

    def find(r):
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        return r

    for col in cols:
        if col:
            root = find(col[0][0])
            for r, _ in col[1:]:
                parent[find(r)] = root
    # one pass numbers the rows of each component; parent[r] becomes the
    # root itself
    width = [0] * nrows
    local = [0] * nrows
    for r in range(nrows):
        root = parent[r] = find(r)
        local[r] = width[root]
        width[root] += 1
    zero = window.field.zero
    blocks = {}
    for col in cols:
        if col:
            root = parent[col[0][0]]
            line = [zero] * width[root]
            for r, x in col:
                line[local[r]] = x
            blocks.setdefault(root, []).append(line)
    char = window.field.characteristic
    total = 0
    for root, block in blocks.items():
        if len(block) == 1 or width[root] == 1:
            total += 1      # a nonzero row or column
        else:
            total += len(eliminate(block, width[root], char, full=False))
    return total


@dataclass(frozen=True)
class KoszulGroupDim:
    p: int
    q: int
    dim: int
    rank_in: int
    rank_out: int
    middle: int

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


@dataclass(frozen=True)
class DualityReport:
    p: int
    q: int
    lhs_dim: int
    rhs_dim: int
    rhs_p: int
    rhs_q: int
    hypotheses_ok: bool

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


@dataclass(frozen=True)
class GreenReport:
    p: int
    dim: int
    degree: int
    degree_bound_ok: bool
    verdict: str

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


@dataclass(frozen=True)
class GreenPointsReport:
    count: int
    r: int
    dim: int
    on_rnc: bool
    ideal_dims: tuple

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
