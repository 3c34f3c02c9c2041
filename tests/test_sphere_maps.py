"""Gram-matrix construction of constant-energy sphere maps."""

import math
from fractions import Fraction

import pytest

from densitylab import sphere_maps as sm
from densitylab.errors import DimensionMismatch, NotOnSphere, NotPSD, ParamViolation
from densitylab.harmonic import (
    HarmonicElement,
    Poly,
    dim_harmonics,
    inner,
    monomial_exponents,
)


# ----------------------------------------------------------------------
# bases
# ----------------------------------------------------------------------

def test_basis_degree_one_is_coordinates():
    b = sm.basis_Hm(4, 1)
    assert b.dim == 4
    assert all(n == 1 for n in b.norms)
    assert b.invariant_c == 1
    assert {tuple(e.poly.terms) for e in b.elements} == \
        {((1, 0, 0, 0),), ((0, 1, 0, 0),), ((0, 0, 1, 0),), ((0, 0, 0, 1),)}


def test_basis_degree_zero():
    b = sm.basis_Hm(4, 0)
    assert b.dim == 1 and b.elements[0].poly == Poly.one(4)


def test_basis_degree_two_orthogonal():
    b = sm.basis_Hm(4, 2)
    assert b.dim == 9
    for i, e1 in enumerate(b.elements):
        assert e1.poly.analyst_laplacian().is_zero()
        assert inner(e1, e1) == b.norms[i] > 0
        for e2 in b.elements[i + 1:]:
            assert inner(e1, e2) == 0


def test_basis_reproducing_identity():
    # sum h_a^2 / |h_a|^2 = c R^m with a single rational c > 0, exactly
    for (n_amb, m) in [(4, 1), (4, 2), (5, 2)]:
        b = sm.basis_Hm(n_amb, m)
        acc = Poly.zero(n_amb)
        for el, n2 in zip(b.elements, b.norms):
            acc = acc + (el.poly * el.poly).scale(Fraction(1) / n2)
        R = Poly.radius_squared(n_amb)
        rm = Poly.one(n_amb)
        for _ in range(m):
            rm = rm * R
        assert acc == rm.scale(b.invariant_c)
        assert b.invariant_c > 0


# ----------------------------------------------------------------------
# the quadratic map h
# ----------------------------------------------------------------------

def test_h_of_identity_on_linear_basis_is_R():
    b = sm.basis_Hm(4, 1)
    G = sm.GramMatrix.diagonal([1, 1, 1, 1])
    assert sm.h_of_G(G, b) == Poly.radius_squared(4)


def test_h_of_zero_is_zero():
    b = sm.basis_Hm(4, 1)
    assert sm.h_of_G(sm.GramMatrix.diagonal([0, 0, 0, 0]), b).is_zero()


def test_h_is_linear_in_G():
    b = sm.basis_Hm(4, 2)
    G1 = sm.scaled_identity_gram(b)
    _, ker = sm.solve_h_equals_Rm(4, 2, b)
    G2 = ker.basis[0]
    lhs = sm.h_of_G(G1.add(G2, Fraction(3, 7)), b)
    rhs = sm.h_of_G(G1, b) + sm.h_of_G(G2, b).scale(Fraction(3, 7))
    assert lhs == rhs


def test_h_dimension_guard():
    b = sm.basis_Hm(4, 1)
    with pytest.raises(DimensionMismatch):
        sm.h_of_G(sm.GramMatrix.diagonal([1, 1]), b)


# ----------------------------------------------------------------------
# affine solution space
# ----------------------------------------------------------------------

def test_solve_degree_one_kernel_trivial():
    b = sm.basis_Hm(4, 1)
    G0, ker = sm.solve_h_equals_Rm(4, 1, b)
    assert ker.dimension == 0
    assert sm.h_of_G(G0, b) == Poly.radius_squared(4)


def test_solve_degree_two_kernel():
    b = sm.basis_Hm(4, 2)
    G0, ker = sm.solve_h_equals_Rm(4, 2, b)
    R = Poly.radius_squared(4)
    assert sm.h_of_G(G0, b) == R * R
    assert ker.dimension >= 45 - 35 == 10
    for k in ker.basis:
        assert sm.h_of_G(k, b).is_zero()
    # rank-nullity against an independent rank computation (sympy)
    import sympy as sp
    from densitylab.harmonic import monomial_exponents
    monos = monomial_exponents(4, 4)
    idx = {e: i for i, e in enumerate(monos)}
    cols = []
    for a in range(9):
        for bb in range(a, 9):
            prod = b.elements[a].poly * b.elements[bb].poly
            col = [0] * len(monos)
            for e, c in prod.terms.items():
                col[idx[e]] = sp.Rational(c.numerator, c.denominator)
            cols.append(col)
    rank = sp.Matrix(cols).T.rank()
    assert ker.dimension == 45 - rank
    assert rank == 35  # products of harmonic quadratics span all of S^4
    ok, _ = G0.psd_certificate()
    assert ok


def test_solve_five_dims():
    rep = sm.nonuniqueness_report(5, 2)
    assert rep["kernel_dimension"] == 105 - 70 == 35
    assert rep["so_dimension"] == 10
    assert rep["margin"] == 25


def whole_matrix_kernel(basis):
    """The kernel of h by one elimination of the whole matrix, over E_ab."""
    pairs = sm._sym_pairs(basis.dim)
    monos = monomial_exponents(basis.n_ambient, 2 * basis.m)
    idx = {e: i for i, e in enumerate(monos)}
    rows = [[Fraction(0)] * len(pairs) for _ in monos]
    for j, (a, b) in enumerate(pairs):
        prod = basis.elements[a].poly * basis.elements[b].poly
        for e, c in prod.terms.items():
            rows[idx[e]][j] = c if a == b else 2 * c
    return sm.nullspace(rows, len(pairs))


@pytest.mark.parametrize("n_amb,m", [(4, 2), (5, 2), (4, 3)])
def test_block_kernel_equals_whole_matrix_nullspace(n_amb, m):
    b = sm.basis_Hm(n_amb, m)
    G0, ker = sm.solve_h_equals_Rm(n_amb, m, b)
    pairs = sm._sym_pairs(b.dim)
    got = [[k.entries[a][bb] for a, bb in pairs] for k in ker.basis]
    assert got == whole_matrix_kernel(b)  # entry for entry, in order
    assert G0 == sm.scaled_identity_gram(b)


@pytest.mark.parametrize("n_amb,m", [(4, 1), (4, 2), (5, 2), (6, 2), (4, 3),
                                     (4, 4), (5, 3)])
def test_kernel_dimension_oracle(n_amb, m):
    # h is onto the degree-2m polynomials, so its kernel has dimension
    # D(D+1)/2 - dim P_2m(R^n)
    D = dim_harmonics(n_amb, m)
    _, ker = sm.solve_h_equals_Rm(n_amb, m)
    assert ker.dimension == len(ker.basis) \
        == D * (D + 1) // 2 - math.comb(n_amb + 2 * m - 1, 2 * m)


def test_basis_elements_have_one_parity_each():
    for (n_amb, m) in [(4, 2), (5, 2), (4, 3)]:
        for el in sm.basis_Hm(n_amb, m).elements:
            assert len({tuple(k % 2 for k in e) for e in el.poly.terms}) == 1


def test_solve_refuses_a_mixed_parity_basis():
    b = sm.basis_Hm(4, 1)
    mixed = HarmonicElement(Poly.variable(4, 0) + Poly.variable(4, 1), 1)
    bad = sm.HarmonicBasis(4, 1, (mixed,) + b.elements[1:], b.norms,
                           b.invariant_c)
    with pytest.raises(ParamViolation, match="parity"):
        sm.solve_h_equals_Rm(4, 1, bad)


def test_solve_requires_ambient_four():
    with pytest.raises(ParamViolation):
        sm.solve_h_equals_Rm(3, 2)


# ----------------------------------------------------------------------
# PSD machinery
# ----------------------------------------------------------------------

def test_psd_certificate_accepts_and_rejects():
    good = sm.GramMatrix.from_rows([[2, 1], [1, 2]])
    assert good.psd_certificate() == (True, None)
    semi = sm.GramMatrix.from_rows([[1, 1], [1, 1]])
    assert semi.psd_certificate() == (True, None)
    bad = sm.GramMatrix.from_rows([[1, 2], [2, 1]])
    ok, w = bad.psd_certificate()
    assert not ok and bad.quadratic_form(w) < 0
    hidden = sm.GramMatrix.from_rows([[0, 1], [1, 0]])  # minors are 0, 0
    ok, w = hidden.psd_certificate()
    assert not ok and hidden.quadratic_form(w) < 0


def test_construct_map_rejects_indefinite():
    b = sm.basis_Hm(4, 1)
    G = sm.GramMatrix.diagonal([1, 1, 1, -1])
    with pytest.raises(NotPSD) as err:
        sm.construct_map(G, b)
    assert err.value.witness is not None


def test_construct_map_rejects_wrong_target():
    b = sm.basis_Hm(4, 1)
    with pytest.raises(ParamViolation):
        sm.construct_map(sm.GramMatrix.diagonal([2, 1, 1, 1]), b)


# ----------------------------------------------------------------------
# maps
# ----------------------------------------------------------------------

def test_identity_map():
    b = sm.basis_Hm(4, 1)
    G0, _ = sm.solve_h_equals_Rm(4, 1, b)
    m = sm.construct_map(G0, b)
    assert m.exact and len(m.components) == 4
    assert {tuple(c.terms) for c in m.components} == \
        {((1, 0, 0, 0),), ((0, 1, 0, 0),), ((0, 0, 1, 0),), ((0, 0, 0, 1),)}
    for p in sm.random_sphere_points(4, 10, 0):
        assert sm.energy_density(m, p) == pytest.approx(3.0, abs=1e-12)


def test_canonical_exact_quadratic_map():
    m = sm.canonical_exact_map(4, 2)
    assert m.exact and len(m.components) == 8
    assert sm._sum_sq_minus_Rm_exact(m.components, 4, 2).is_zero()
    for f in m.components:
        assert f.analyst_laplacian().is_zero()
    for p in sm.random_sphere_points(4, 25, 3):
        assert sm.energy_density(m, p) == pytest.approx(8.0, abs=1e-11)


def test_euler_relation_exact_on_components():
    # x . grad F = m F as an exact polynomial identity (restriction
    # eigenvalue bookkeeping: harmonicity plus homogeneity)
    m = sm.canonical_exact_map(4, 2)
    for f in m.components:
        euler = Poly.zero(4)
        for i in range(4):
            euler = euler + Poly.variable(4, i) * f.diff(i)
        assert euler == f.scale(2)


def test_canonical_map_gram_is_in_solution_space():
    b = sm.basis_Hm(4, 2)
    cmap = sm.canonical_exact_map(4, 2)
    G = sm.gram_of_components(cmap.components, b)
    R = Poly.radius_squared(4)
    assert sm.h_of_G(G, b) == R * R
    assert len(G.ldlt()[0]) == G.rank() == 8  # PSD elimination stops at the rank
    ok, _ = G.psd_certificate()
    assert ok
    # the pipeline reconstructs an exact map from this certificate
    rebuilt = sm.construct_map(G, b)
    assert rebuilt.exact and len(rebuilt.components) == 8
    assert sm._sum_sq_minus_Rm_exact(rebuilt.components, 4, 2).is_zero()


def test_float_route_map():
    b = sm.basis_Hm(4, 2)
    G0, _ = sm.solve_h_equals_Rm(4, 2, b)
    m = sm.construct_map(G0, b)
    assert not m.exact
    assert len(m.components) == G0.rank() == 9
    assert sm._sum_sq_residual_float(list(m.components), 4, 2) < 1e-10
    for p in sm.random_sphere_points(4, 20, 5):
        assert sm.energy_density(m, p) == pytest.approx(8.0, abs=1e-9)


def test_kernel_line_gives_inequivalent_map():
    b = sm.basis_Hm(4, 2)
    G0, ker = sm.solve_h_equals_Rm(4, 2, b)
    G, t = sm.psd_point_on_line(G0, ker.basis[0], b)
    assert t > 0
    assert sm.h_of_G(G, b) == sm.h_of_G(G0, b)
    assert G.entries != G0.entries  # different Gram matrix: inequivalent data
    m = sm.construct_map(G, b)
    for p in sm.random_sphere_points(4, 10, 7):
        assert sm.energy_density(m, p) == pytest.approx(8.0, abs=1e-9)


def test_energy_density_guards_sphere():
    m = sm.canonical_exact_map(4, 1)
    with pytest.raises(NotOnSphere):
        sm.energy_density(m, [1.0, 1.0, 0.0, 0.0])


def test_nonuniqueness_margins():
    rep = sm.nonuniqueness_report(4, 2)
    assert rep["kernel_dimension"] >= 10
    assert rep["so_dimension"] == 6
    assert rep["margin"] >= 4 and rep["nonuniqueness_assured"]
    rep1 = sm.nonuniqueness_report(4, 1)
    assert rep1["kernel_dimension"] == 0 and not rep1["nonuniqueness_assured"]
