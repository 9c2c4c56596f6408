import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinertorelli.errors import ShapeMismatch, ZeroSection
from steinertorelli.exactfield import GF, QQ, Matrix
from steinertorelli.polyalg import (GradedQuotientRing, monomial_basis,
                                    monomial_index, monomial_product,
                                    space_dim)

from test_exactfield import mat_vec


def poly_series_coeffs(numer, denom_power, upto):
    """Coefficients of numer(t) / (1-t)**denom_power as an oracle for
    Hilbert functions; numer is a list of integer coefficients."""
    inv = [math.comb(k + denom_power - 1, denom_power - 1)
           for k in range(upto + 1)]
    return [sum(numer[j] * inv[k - j]
                for j in range(min(k, len(numer) - 1) + 1))
            for k in range(upto + 1)]


# ---- monomial bases ------------------------------------------------------

def test_monomial_basis_binary_cubics():
    assert monomial_basis(2, 3) == ((3, 0), (2, 1), (1, 2), (0, 3))


def test_monomial_basis_ternary_quadrics():
    assert monomial_basis(3, 2) == ((2, 0, 0), (1, 1, 0), (1, 0, 1),
                                    (0, 2, 0), (0, 1, 1), (0, 0, 2))


@pytest.mark.parametrize("n,d", [(2, 5), (3, 4), (4, 3), (5, 2)])
def test_monomial_basis_is_descending_lex(n, d):
    basis = monomial_basis(n, d)
    assert len(basis) == space_dim(n, d) == math.comb(n - 1 + d, d)
    assert list(basis) == sorted(basis, reverse=True)
    assert all(sum(m) == d for m in basis)


def test_negative_degree_is_empty():
    assert monomial_basis(3, -1) == ()
    assert space_dim(3, -2) == 0


def test_monomial_index_roundtrip():
    idx = monomial_index(3, 3)
    for m, i in idx.items():
        assert monomial_basis(3, 3)[i] == m


# ---- free multiplication -------------------------------------------------

def test_free_multiplication_binary_linear():
    m = GradedQuotientRing(QQ, 2, ()).multiplication(1, 1)
    # columns s*s, s*t, t*s, t*t against rows s^2, s*t, t^2
    assert [m.columns()[j] for j in range(4)] == [
        (1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 0, 1)]


def test_free_multiplication_left_major_ordering():
    m = GradedQuotientRing(GF(5), 2, ()).multiplication(2, 1)
    b1 = monomial_basis(2, 2)
    b2 = monomial_basis(2, 1)
    idx = monomial_index(2, 3)
    for i, m1 in enumerate(b1):
        for j, m2 in enumerate(b2):
            col = m.columns()[i * len(b2) + j]
            assert col[idx[monomial_product(m1, m2)]] == 1
            assert sum(1 for x in col if x) == 1


# ---- quotient rings ------------------------------------------------------

def _quadric(terms):
    idx = monomial_index(5, 2)
    v = [0] * len(idx)
    for m, c in terms.items():
        v[idx[m]] = c
    return (2, tuple(v))


# three quadrics in five variables forming a regular sequence over QQ and
# over the working primes: sum of squares plus two cyclic bilinear forms
CI_QUADRICS = [
    _quadric({(2, 0, 0, 0, 0): 1, (0, 2, 0, 0, 0): 1, (0, 0, 2, 0, 0): 1,
              (0, 0, 0, 2, 0): 1, (0, 0, 0, 0, 2): 1}),
    _quadric({(1, 1, 0, 0, 0): 1, (0, 1, 1, 0, 0): 1, (0, 0, 1, 1, 0): 1,
              (0, 0, 0, 1, 1): 1, (1, 0, 0, 0, 1): 1}),
    _quadric({(1, 0, 1, 0, 0): 1, (0, 1, 0, 1, 0): 1, (0, 0, 1, 0, 1): 1,
              (1, 0, 0, 1, 0): 1, (0, 1, 0, 0, 1): 1}),
]


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7), GF(11)])
def test_ci_of_three_quadrics_hilbert_function(field):
    ring = GradedQuotientRing(field, 5, CI_QUADRICS)
    # (1-t^2)^3 / (1-t)^5 = (1+t)^3 / (1-t)^2
    oracle = poly_series_coeffs([1, 3, 3, 1], 2, 4)
    assert oracle == [1, 5, 12, 20, 28]
    assert [ring.dim(k) for k in range(5)] == oracle


def test_ci_multiplication_surjective_in_degree_two():
    ring = GradedQuotientRing(GF(5), 5, CI_QUADRICS)
    mult = ring.multiplication(1, 1)
    assert (mult.nrows, mult.ncols) == (12, 25)
    from steinertorelli.exactfield import rank
    assert rank(mult) == 12


def test_plane_quartic_hilbert_function():
    # x^4 + y^4 + z^4 in three variables
    idx = monomial_index(3, 4)
    v = [0] * len(idx)
    for m in ((4, 0, 0), (0, 4, 0), (0, 0, 4)):
        v[idx[m]] = 1
    ring = GradedQuotientRing(QQ, 3, [(4, tuple(v))])
    oracle = poly_series_coeffs([1, 0, 0, 0, -1], 3, 6)
    assert oracle == [1, 3, 6, 10, 14, 18, 22]
    assert [ring.dim(k) for k in range(7)] == oracle


def test_quotient_piece_reduction():
    ring = GradedQuotientRing(GF(7), 5, CI_QUADRICS)
    piece = ring.piece(2)
    assert piece.dim == 12
    # every ideal element reduces to zero
    rows = ring.ideal_rows(2)
    zero = (0,) * piece.dim
    for row in rows.entries:
        assert mat_vec(piece.reduction.reduce, row) == zero
    # representative monomials reduce to the standard basis
    amb_idx = monomial_index(5, 2)
    for i, mono in enumerate(piece.monomials):
        unit = [0] * piece.reduction.ambient
        unit[amb_idx[mono]] = 1
        out = mat_vec(piece.reduction.reduce, unit)
        assert out == tuple(1 if j == i else 0 for j in range(piece.dim))


def test_negative_degree_piece_is_zero():
    ring = GradedQuotientRing(QQ, 3, ())
    assert ring.dim(-1) == 0
    assert ring.piece(-3).monomials == ()


def test_multiplication_commutes():
    ring = GradedQuotientRing(GF(7), 3, [(2, _conic())])
    a, b = ring.multiplication(1, 2), ring.multiplication(2, 1)
    d1, d2 = ring.dim(1), ring.dim(2)
    for i in range(d1):
        for j in range(d2):
            assert a.columns()[i * d2 + j] == b.columns()[j * d1 + i]


def _conic():
    idx = monomial_index(3, 2)
    v = [0] * len(idx)
    v[idx[(1, 0, 1)]] = 1
    v[idx[(0, 2, 0)]] = -1
    return tuple(v)


def test_multiplication_associative():
    ring = GradedQuotientRing(GF(7), 3, [(2, _conic())])
    d1 = ring.dim(1)
    m11 = ring.multiplication(1, 1)
    m21 = ring.multiplication(2, 1)
    m12 = ring.multiplication(1, 2)
    d2 = ring.dim(2)
    for i in range(d1):
        for j in range(d1):
            for t in range(d1):
                ab = m11.columns()[i * d1 + j]
                lhs = [0] * ring.dim(3)
                for r, c in enumerate(ab):
                    if c:
                        col = m21.columns()[r * d1 + t]
                        lhs = [(x + c * y) % 7 for x, y in zip(lhs, col)]
                bc = m11.columns()[j * d1 + t]
                rhs = [0] * ring.dim(3)
                for s, c in enumerate(bc):
                    if c:
                        col = m12.columns()[i * d2 + s]
                        rhs = [(x + c * y) % 7 for x, y in zip(rhs, col)]
                assert lhs == rhs


def test_generator_validation():
    with pytest.raises(ShapeMismatch):
        GradedQuotientRing(QQ, 3, [(2, (1, 2, 3))])
    with pytest.raises(ZeroSection):
        GradedQuotientRing(QQ, 3, [(2, (0,) * 6)])


# ---- single-form quotients have the domain Hilbert function --------------

@given(st.sampled_from([GF(3), GF(5), GF(7), QQ]),
       st.integers(2, 3), st.integers(1, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_hypersurface_hilbert_function(field, num_vars, d, data):
    n_mono = space_dim(num_vars, d)
    coeffs = data.draw(st.lists(st.integers(-6, 6), min_size=n_mono,
                                max_size=n_mono).filter(
        lambda v: any(field.normalize(c) != field.zero for c in v)))
    ring = GradedQuotientRing(field, num_vars, [(d, tuple(coeffs))])
    # any single nonzero form is a regular element, so
    # dim (S/f)_k = dim S_k - dim S_{k-d}
    for k in range(0, d + 3):
        assert ring.dim(k) == space_dim(num_vars, k) - \
            space_dim(num_vars, k - d)
