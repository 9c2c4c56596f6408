"""Reference computations made apart from the program.

Nothing here imports steinertorelli.  Every function is a direct,
brute-force or closed-form statement of a fact the program's reports
must agree with: rational points by exhaustive evaluation, determinants
by the Leibniz expansion, Koszul dimensions from known resolutions.
"""

from __future__ import annotations

import itertools
from math import comb


def projective_count(p, n):
    """Number of points of P^(n-1)(F_p), i.e. of hyperplanes of F_p^n."""
    return (p ** n - 1) // (p - 1)


def normalize(vec, p):
    """Scale a vector mod p so its first nonzero entry is 1; None for 0."""
    vec = [x % p for x in vec]
    for x in vec:
        if x:
            inv = pow(x, p - 2, p)
            return tuple(y * inv % p for y in vec)
    return None


def projective_points(p, n):
    """Every point of P^(n-1)(F_p) once, as its normalized vector."""
    return sorted({v for v in (normalize(w, p) for w in
                               itertools.product(range(p), repeat=n))
                   if v is not None})


def exponents(nvars, degree):
    """Exponent tuples of degree-d monomials, lexicographically descending
    (x0^d first), the coordinate order of the scene files."""
    out = [e for e in itertools.product(range(degree + 1), repeat=nvars)
           if sum(e) == degree]
    return sorted(out, reverse=True)


def monomial_values(point, degree, p):
    out = []
    for e in exponents(len(point), degree):
        v = 1
        for x, k in zip(point, e):
            v = v * pow(x, k, p) % p
        out.append(v)
    return out


# ---- the rational normal curve ----------------------------------------------


def binary_point_functional(st, degree, p):
    """Evaluation at [s:t] of the degree-d binary forms, monomial basis."""
    return normalize(monomial_values(st, degree, p), p)


def series_points(basis_rows, p):
    """Image of P^1(F_p) under the binary forms given as coefficient rows
    (monomial coordinates, s^d first): {[s:t] -> normalized phi}."""
    degree = len(basis_rows[0]) - 1
    out = {}
    for st in projective_points(p, 2):
        vals = monomial_values(st, degree, p)
        phi = normalize([sum(c * v for c, v in zip(row, vals))
                         for row in basis_rows], p)
        out[st] = phi
    return out


def on_twisted_cubic(point):
    """[x0:x1:x2:x3] lies on the standard twisted cubic iff the 2x2 minors
    of [[x0, x1, x2], [x1, x2, x3]] vanish."""
    x0, x1, x2, x3 = point
    return (x0 * x2 - x1 * x1 == 0 and x0 * x3 - x1 * x2 == 0
            and x1 * x3 - x2 * x2 == 0)


# ---- hypersurfaces and complete intersections -------------------------------


def zero_locus(forms, nvars, p):
    """Points of P^(nvars-1)(F_p) where every form vanishes; a form is
    (degree, coefficient list over exponents(nvars, degree))."""
    prepared = [(d, [(e, c) for e, c in zip(exponents(nvars, d), coeffs)
                     if c % p]) for d, coeffs in forms]
    out = []
    for pt in projective_points(p, nvars):
        if all(_evaluate(terms, pt, p) == 0 for _, terms in prepared):
            out.append(pt)
    return out


def _evaluate(terms, pt, p):
    acc = 0
    for e, c in terms:
        v = c
        for x, k in zip(pt, e):
            v = v * pow(x, k, p) % p
        acc += v
    return acc % p


# ---- Koszul dimensions from known resolutions -------------------------------


def eagon_northcott_dim(d, p, q):
    """dim K_{p,q} of the degree-d rational normal curve in P^d: the
    Eagon-Northcott complex gives p*C(d, p+1) for q = 1, 1 for
    (p, q) = (0, 0), and 0 otherwise."""
    if q == 1:
        return p * comb(d, p + 1)
    return 1 if (p, q) == (0, 0) else 0


def complete_intersection_dim(codim, p, q):
    """dim K_{p,q} of a complete intersection of `codim` quadrics: the
    Koszul complex on the quadrics is the minimal resolution, so
    K_{p,q} = C(codim, p) when q = p, else 0."""
    return comb(codim, p) if q == p else 0


def general_points_ideal_dims(count, r, degrees):
    """dim I_k for `count` points in linear general position in P^r with
    count <= 2r + 1: they impose independent conditions in degrees >= 2,
    and span P^r when count >= r + 1."""
    out = []
    for k in degrees:
        out.append(max(0, comb(r + k, k) - count))
    return tuple(out)


# ---- general position -------------------------------------------------------


def det_mod(rows, p):
    """Leibniz expansion mod p; no elimination involved."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term = term * rows[i][j] % p
        total += term
    return total % p


def in_general_position(points, p):
    """Every (r+1)-subset of the points has nonzero determinant mod p."""
    k = len(points[0])
    return all(det_mod(sub, p) for sub in itertools.combinations(points, k))


# ---- seeded inputs ----------------------------------------------------------


def unimodular(rng, n, spread=2):
    """A random integer n x n matrix of determinant +-1: unit lower times
    unit upper triangular, rows permuted and signed.  It stays invertible
    modulo every prime, so a series built from it never degenerates."""
    lower = [[1 if i == j else (rng.randint(-spread, spread) if j < i else 0)
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.randint(-spread, spread) if j > i else 0)
              for j in range(n)] for i in range(n)]
    prod = [[sum(lower[i][k] * upper[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[s * x for x in prod[i]] for i, s in zip(order, signs)]
