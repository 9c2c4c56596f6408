"""Tests of the benchmark's own oracles, each against a second, unrelated
derivation.  Run with `python3 -m pytest benchmark -q`."""

import random
from fractions import Fraction
from math import comb

import pytest

import oracles as O


def rank_mod(rows, p):
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p
                           for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def det_fraction(rows):
    m = [[Fraction(x) for x in r] for r in rows]
    n, det = len(m), Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


@pytest.mark.parametrize("p,n", [(2, 2), (3, 3), (5, 3), (7, 4), (5, 5)])
def test_projective_points_match_the_count(p, n):
    pts = O.projective_points(p, n)
    assert len(pts) == len(set(pts)) == O.projective_count(p, n)
    assert all(next(x for x in pt if x) == 1 for pt in pts)


def test_exponents_count_and_order():
    for nvars in (2, 3, 5):
        for d in range(5):
            es = O.exponents(nvars, d)
            assert len(es) == comb(nvars - 1 + d, d)
            assert es[0] == (d,) + (0,) * (nvars - 1)
    assert O.exponents(3, 2)[:4] == [(2, 0, 0), (1, 1, 0), (1, 0, 1),
                                    (0, 2, 0)]


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_rational_normal_cubic_points(p):
    ident = [[int(i == j) for j in range(4)] for i in range(4)]
    pts = O.series_points(ident, p)
    assert len(pts) == len(set(pts.values())) == p + 1
    for x0, x1, x2, x3 in pts.values():
        assert (x0 * x2 - x1 * x1) % p == 0
        assert (x0 * x3 - x1 * x2) % p == 0
        assert (x1 * x3 - x2 * x2) % p == 0
    # a change of basis moves the points by the same matrix
    rng = random.Random(1)
    m = O.unimodular(rng, 4)
    moved = O.series_points(m, p)
    for st, phi in pts.items():
        img = [sum(c * x for c, x in zip(row, phi)) for row in m]
        assert O.normalize(img, p) == moved[st]


def test_binary_point_functional_is_the_evaluation():
    assert O.binary_point_functional((1, 2), 3, 7) == (1, 2, 4, 1)
    assert O.binary_point_functional((0, 1), 4, 5) == (0, 0, 0, 0, 1)


def test_zero_locus_of_small_curves():
    # the conic x0 x2 = x1^2 has p + 1 points
    conic = [(2, [0, 0, -1, 1, 0, 0])]      # exponents(3, 2) order
    assert O.exponents(3, 2)[2] == (1, 0, 1)
    assert O.exponents(3, 2)[3] == (0, 2, 0)
    for p in (5, 7, 11):
        assert len(O.zero_locus(conic, 3, p)) == p + 1
    # x^4 + y^4 + z^4 has no point over F_5: fourth powers are 0 or 1
    fermat = [(4, [1 if e in ((4, 0, 0), (0, 4, 0), (0, 0, 4)) else 0
                   for e in O.exponents(3, 4)])]
    assert O.zero_locus(fermat, 3, 5) == []
    # over F_13 count the affine solutions of the cone, minus 0, over p-1
    p = 13
    affine = sum(1 for x in range(p) for y in range(p) for z in range(p)
                 if (x ** 4 + y ** 4 + z ** 4) % p == 0)
    assert len(O.zero_locus(fermat, 3, p)) == (affine - 1) // (p - 1)


def test_det_mod_matches_elimination():
    rng = random.Random(7)
    for p in (5, 11, 101):
        for n in (1, 2, 3, 4):
            for _ in range(20):
                m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
                assert (O.det_mod(m, p) != 0) == (rank_mod(m, p) == n)
                assert O.det_mod(m, p) == int(det_fraction(m)) % p


def test_general_position():
    base = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
            (1, 1, 1, 1)]
    assert O.in_general_position(base, 11)
    assert not O.in_general_position(base + [(1, 1, 0, 0)], 11)


def test_unimodular_is_invertible_everywhere():
    rng = random.Random(3)
    for n in (2, 4, 6):
        for _ in range(10):
            m = O.unimodular(rng, n)
            assert det_fraction(m) in (1, -1)


def _hilbert_from_betti(dim, nvars, k):
    """sum (-1)^p dim K_{p,q} dim S_{k-p-q} over the grid."""
    total = 0
    for p in range(nvars + 1):
        for q in range(0, 4):
            j = k - p - q
            if j >= 0:
                total += (-1) ** p * dim(p, q) * comb(nvars - 1 + j, j)
    return total


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_eagon_northcott_gives_the_hilbert_function(d):
    # the rational normal curve of degree d has h0(O(k)) = dk + 1
    for k in range(10):
        h = _hilbert_from_betti(lambda p, q: O.eagon_northcott_dim(d, p, q),
                                d + 1, k)
        assert h == d * k + 1


def test_quadric_complete_intersection_hilbert_function():
    # three quadrics in P^4 cut a canonical curve: degree 8, genus 5
    dims = lambda p, q: O.complete_intersection_dim(3, p, q)  # noqa: E731
    assert [_hilbert_from_betti(dims, 5, k) for k in range(3)] == [1, 5, 12]
    for k in range(2, 10):
        assert _hilbert_from_betti(dims, 5, k) == 8 * k - 4


def test_general_points_ideal_dims():
    pts = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
           (1, 1, 1, 1), (1, 2, 3, 4), (1, 5, 2, 7)]
    for count in (6, 7):
        want = O.general_points_ideal_dims(count, 3, (1, 2, 3))
        got = tuple(comb(3 + k, k) - rank_mod(
            [O.monomial_values(pt, k, 101) for pt in pts[:count]], 101)
            for k in (1, 2, 3))
        assert got == want
