"""Minimal-graph families: densities, slope system, topology, reconstruction.

Derived expectations are computed by the independent oracles noted inline
(symbolic differentiation, high-order ODE stepping, alternate-chart
quadrature, finite differences with Richardson extrapolation) and frozen.
"""

import math
import re
import warnings

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from densitylab import minimal_graphs as mg
from densitylab.errors import (
    DegenerateDelta,
    DomainViolation,
    LiftAmbiguity,
    ParamViolation,
)
from densitylab.jets import Jet


# ----------------------------------------------------------------------
# density families
# ----------------------------------------------------------------------

def test_density_examples():
    assert mg.density_value(mg.ScherkFifth(), 1.0, 7.3) == \
        pytest.approx(1.0 / math.tanh(1.0), abs=1e-15)
    assert mg.density_value(mg.HeliCatenoid(math.pi / 4), 1.0, 0.0) == \
        pytest.approx(math.sqrt(3.0), abs=1e-15)
    assert mg.density_value(mg.DoublyPeriodic(1.0, 1.0), 0.0, 0.0) == \
        pytest.approx(math.sqrt(3.0), abs=1e-15)
    assert mg.density_value(mg.ConstantPlane(2.0), -3.0, 5.0) == 2.0


def test_density_exceeds_one_in_domain():
    fam = mg.DoublyPeriodic(0.8, 0.5)
    for x in (0.5, 1.0, 2.0):
        for y in (0.0, 1.5, 3.0):
            if fam.contains(x, y):
                assert mg.density_value(fam, x, y) > 1.0


def test_domain_and_param_guards():
    with pytest.raises(DomainViolation):
        mg.density_value(mg.ScherkFifth(), -0.5, 0.0)
    with pytest.raises(DomainViolation):
        mg.density_value(mg.HeliCatenoid(math.pi / 4), 0.1, 0.1)
    with pytest.raises(ParamViolation):
        mg.density_value(mg.ConstantPlane(0.5), 0.0, 0.0)
    with pytest.raises(ParamViolation):
        mg.density_value(mg.HeliCatenoid(2.0), 1.0, 0.0)
    # |a - c| < 1 < a + c is the admissibility strip; (1.5, 0.2) violates it
    with pytest.raises(ParamViolation):
        mg.DoublyPeriodic(1.5, 0.2).validate()


@given(st.floats(0.2, 2.5), st.floats(-3.0, 3.0))
@settings(max_examples=100, deadline=None)
def test_doubly_periodic_C_identity(x, y):
    # algebraic identity (F^2+1)/(F^2-1) = a cosh x + c cos y, to 1e-12
    fam = mg.DoublyPeriodic(1.0, 0.9)
    if not fam.contains(x, y):
        return
    F = mg.density_value(fam, x, y)
    C = (F * F + 1.0) / (F * F - 1.0)
    assert C == pytest.approx(math.cosh(x) + 0.9 * math.cos(y), abs=1e-12)


@given(st.floats(0.8, 2.5), st.floats(-2.0, 2.0))
@settings(max_examples=100, deadline=None)
def test_helicatenoid_C_identity(x, y):
    # same identity puts the radial family in the form 2 r^2 + cos(2 phi)
    phi = math.pi / 3
    fam = mg.HeliCatenoid(phi)
    if not fam.contains(x, y):
        return
    F = mg.density_value(fam, x, y)
    C = (F * F + 1.0) / (F * F - 1.0)
    assert C == pytest.approx(2.0 * (x * x + y * y) + math.cos(2 * phi), abs=1e-12)


# ----------------------------------------------------------------------
# slope-angle system
# ----------------------------------------------------------------------

def test_compatibility_data_linear_mu_degenerate():
    data = mg.compatibility_data(Jet(0.7, dx=0.3, dy=-0.2, order=2))
    assert (data.coef_cos, data.coef_sin, data.rhs, data.P, data.Delta) == \
        (0.0, 0.0, 0.0, 0.0, 0.0)


def test_compatibility_data_against_symbolic_oracle():
    # independent symbolic-differentiation oracle for the discriminant
    x, y = sp.symbols("x y")
    mu_expr = sp.Rational(4, 5) + sp.Rational(3, 10) * x + sp.Rational(1, 5) * y \
        + sp.Rational(1, 10) * x ** 2 - sp.Rational(1, 20) * x * y \
        + sp.Rational(7, 100) * y ** 2
    P_expr = (sp.diff(mu_expr, x, 2) - sp.diff(mu_expr, y, 2)) ** 2 \
        + (2 * sp.diff(mu_expr, x, y)) ** 2 \
        - sp.cosh(2 * mu_expr) ** 2 * (sp.diff(mu_expr, x, 2)
                                       + sp.diff(mu_expr, y, 2)) ** 2
    x0, y0 = 0.3, -0.6
    expected = float(P_expr.subs({x: x0, y: y0}))
    muj = Jet(float(mu_expr.subs({x: x0, y: y0})),
              dx=float(sp.diff(mu_expr, x).subs({x: x0, y: y0})),
              dy=float(sp.diff(mu_expr, y).subs({x: x0, y: y0})),
              dxx=0.2, dxy=-0.05, dyy=0.14, order=2)
    assert mg.compatibility_data(muj).P == pytest.approx(expected, rel=1e-13)


def test_helicatenoid_discriminant_positive():
    # P > 0 throughout the domain exactly when cos^2(2 phi) < 1
    for phi in (0.3, math.pi / 4, 1.2):
        fam = mg.HeliCatenoid(phi)
        for (x, y) in [(1.0, 0.0), (0.9, 0.7), (2.0, -1.0)]:
            if fam.contains(x, y):
                assert mg.compatibility_data(mg.mu_jet(fam, x, y)).P > 0.0


def test_two_theta_merges_at_zero_discriminant():
    # build a jet with Delta = rhs^2 exactly: the branches coincide
    mu0, s = 0.5, 0.3
    c2m = math.cosh(2 * mu0)
    muj = Jet(mu0, dxx=s * (c2m + 1) / 2, dyy=s * (1 - c2m) / 2, order=2)
    plus, minus = mg.two_theta_solutions(muj)
    assert plus == pytest.approx(minus, abs=1e-12)
    assert plus[0] ** 2 + plus[1] ** 2 == pytest.approx(1.0, abs=1e-12)


def test_two_theta_branches_zero_the_relation():
    fam = mg.DoublyPeriodic(0.8, 0.5)
    for (x, y) in [(0.7, 0.3), (1.2, -1.0), (1.6, 2.0)]:
        muj = mg.mu_jet(fam, x, y)
        data = mg.compatibility_data(muj)
        for c2, s2 in mg.two_theta_solutions(muj):
            assert abs(data.coef_cos * c2 + data.coef_sin * s2 - data.rhs) < 1e-9
            assert c2 * c2 + s2 * s2 == pytest.approx(1.0, abs=1e-9)


def test_two_theta_branches_match_surface_fields():
    # branch "+" is the upper sheet z > 0, branch "-" the lower sheet
    a, c = 1.0, 1.0
    for (x, y) in [(0.5, 1.2), (1.0, 0.4), (0.3, -0.8)]:
        C = a * math.cosh(x) + c * math.cos(y)
        z = math.sqrt(C - 1.0)
        plus, minus = mg.two_theta_solutions(mg.mu_jet(mg.DoublyPeriodic(a, c), x, y))
        up = mg.cos_sin_two_theta(a, c, mg.SurfacePoint(x, y, z))
        dn = mg.cos_sin_two_theta(a, c, mg.SurfacePoint(x, y, -z))
        assert plus == pytest.approx(up, abs=1e-10)
        assert minus == pytest.approx(dn, abs=1e-10)


def test_two_theta_degenerate_delta_raises():
    with pytest.raises(DegenerateDelta):
        mg.two_theta_solutions(Jet(0.5, dx=1.0, order=2))


def test_two_theta_negative_discriminant_raises():
    # rhs dominates the off-diagonal coefficients: no real slope angle
    from densitylab.errors import NoRealSolution
    with pytest.raises(NoRealSolution):
        mg.two_theta_solutions(Jet(1.0, dxx=1.0, dyy=0.5, order=2))


def test_mu_jet_requires_C_above_one():
    with pytest.raises(DomainViolation):
        mg.mu_jet_from_C(Jet(0.9, dx=1.0, order=2))


# ----------------------------------------------------------------------
# the closure system for C and its first integrals
# ----------------------------------------------------------------------

def test_c_system_zero_on_both_families():
    heli = mg.HeliCatenoid(1.0)
    dp = mg.DoublyPeriodic(0.8, 0.5)
    for (x, y) in [(1.0, 0.3), (0.8, -0.7), (1.5, 2.0)]:
        for fam in (heli, dp):
            if fam.contains(x, y):
                res = mg.c_system_residual(mg.family_C_jet(fam, x, y))
                assert max(abs(v) for v in res) < 1e-12


def test_c_system_nonzero_on_cubic_probe():
    # C = x^3 at (1, 0): r1 = 6 - (3*6)/1 = -12, others vanish (arithmetic)
    C = Jet(1.0, dx=3.0, dxx=6.0, dxxx=6.0, order=3)
    assert mg.c_system_residual(C) == (-12.0, 0.0, 0.0, 0.0)


def test_first_integral_examples():
    # hand/symbolic differentiation oracle values
    phi = 0.6
    heli = mg.HeliCatenoid(phi)
    fi = mg.first_integrals(mg.family_C_jet(heli, 1.1, 0.4))
    assert fi.a1 == pytest.approx(0.0, abs=1e-13)
    assert fi.a2 == pytest.approx(0.0, abs=1e-13)
    assert fi.a3 == pytest.approx(8.0 * math.cos(2 * phi), abs=1e-12)

    dp = mg.DoublyPeriodic(0.8, 0.5)
    fi = mg.first_integrals(mg.family_C_jet(dp, 0.9, 2.0))
    assert fi.a1 == pytest.approx(0.0, abs=1e-13)
    assert fi.a2 == pytest.approx(1.0, abs=1e-13)
    assert fi.a3 == pytest.approx(0.8 ** 2 - 0.5 ** 2, abs=1e-12)

    const = mg.first_integrals(Jet(3.0, order=2))
    assert (const.a1, const.a2, const.a3) == (0.0, 0.0, 0.0)


def test_first_integrals_point_independent():
    for fam in (mg.HeliCatenoid(0.9), mg.DoublyPeriodic(1.0, 1.0)):
        vals = []
        for i in range(20):
            for j in range(20):
                x = 0.55 + 0.08 * i
                y = -0.9 + 0.09 * j
                if fam.contains(x, y):
                    fi = mg.first_integrals(mg.family_C_jet(fam, x, y))
                    vals.append((fi.a1, fi.a2, fi.a3))
        spread = max(max(c) - min(c) for c in zip(*vals))
        assert spread < mg.TOL_INTEGRAL


# ----------------------------------------------------------------------
# Scherk closed form
# ----------------------------------------------------------------------

def test_scherk_closed_form_values():
    u, _ = mg.scherk_closed_form(1.3, math.pi / 2)  # cos vanishes
    assert u == pytest.approx(0.0, abs=1e-15)
    u, _ = mg.scherk_closed_form(1.0, 0.0)
    assert u == pytest.approx(math.asinh(1.0 / math.sinh(1.0)), abs=1e-15)
    with pytest.raises(DomainViolation):
        mg.scherk_closed_form(0.0, 0.3)


def test_scherk_implicit_equation_exact():
    for (x, y, psi) in [(0.7, 0.2, 0.0), (1.4, -1.0, 0.5), (2.2, 3.0, 1.1)]:
        u, _ = mg.scherk_closed_form(x, y, psi)
        assert math.sinh(x) * math.sinh(u) == pytest.approx(
            math.cos(y + psi), abs=1e-14)


def test_scherk_gradient_matches_angle():
    # finite-difference oracle for the slope relation grad u = (cos, sin)/sinh
    for (x, y) in [(0.8, 0.3), (1.2, 2.0), (1.7, -0.9)]:
        u, th = mg.scherk_closed_form(x, y)
        h = 1e-6
        ux = (mg.scherk_closed_form(x + h, y)[0]
              - mg.scherk_closed_form(x - h, y)[0]) / (2 * h)
        uy = (mg.scherk_closed_form(x, y + h)[0]
              - mg.scherk_closed_form(x, y - h)[0]) / (2 * h)
        assert ux == pytest.approx(math.cos(th) / math.sinh(x), abs=1e-8)
        assert uy == pytest.approx(math.sin(th) / math.sinh(x), abs=1e-8)
        # and the analytic jet agrees exactly
        uj = mg.scherk_u_jet(x, y)
        assert uj.dx == pytest.approx(math.cos(th) / math.sinh(x), abs=1e-13)
        assert uj.dy == pytest.approx(math.sin(th) / math.sinh(x), abs=1e-13)


def test_scherk_density_and_residual_on_jets():
    for (x, y) in [(0.6, 0.1), (1.5, 2.2), (2.8, 4.0)]:
        uj = mg.scherk_u_jet(x, y, 0.4)
        assert abs(mg.minimal_residual(uj)) < 1e-10
        F = mg.density_value(mg.ScherkFifth(), x, y)
        assert 1.0 + uj.dx ** 2 + uj.dy ** 2 == pytest.approx(F * F, abs=1e-10)


# ----------------------------------------------------------------------
# doubly periodic surface fields, lifting, periods
# ----------------------------------------------------------------------

def test_abeq_fields_at_origin():
    # direct substitution into the four field formulas at a = c = 1, (0, 0)
    A, B, E, Q = mg.abeq_fields(1.0, 1.0, 0.0, 0.0)
    assert (A, B, E) == (3.0, 0.0, 0.0)
    assert Q == pytest.approx(3.0, abs=1e-15)


def test_abeq_B_vanishes_on_axes():
    assert mg.abeq_fields(0.8, 0.5, 1.3, 0.0)[1] == 0.0
    # sin(pi) is only zero to roundoff in floating point
    assert mg.abeq_fields(0.8, 0.5, 1.3, math.pi)[1] == pytest.approx(0.0, abs=1e-15)
    assert mg.abeq_fields(0.8, 0.5, 0.0, 1.1)[1] == 0.0


@given(st.floats(-2.5, 2.5), st.floats(0.0, 2 * math.pi), st.booleans())
@settings(max_examples=150, deadline=None)
def test_surface_rotation_is_unit(x, y, upper):
    a, c = 1.0, 0.9
    C = a * math.cosh(x) + c * math.cos(y)
    if C < 1.0 + 1e-6:
        return
    z = math.sqrt(C - 1.0) * (1 if upper else -1)
    c2, s2 = mg.cos_sin_two_theta(a, c, mg.SurfacePoint(x, y, z))
    assert c2 * c2 + s2 * s2 == pytest.approx(1.0, abs=1e-12)


def test_lift_windings():
    for (a, c) in [(1.0, 1.0), (0.8, 0.5), (1.5, 2.0)]:
        lift = mg.lift_theta_along(mg.gamma_rectangle(a, c, 8.0), a, c)
        assert lift.winding == pytest.approx(2.0 * math.pi, abs=1e-3)
        loop = mg.lift_theta_along(mg.sigma_loop(a, c, 2000), a, c)
        assert abs(loop.winding) < 1e-6


def test_lift_contractible_loop():
    a, c = 1.0, 1.0
    pts = []
    for k in range(201):
        t = 2.0 * math.pi * k / 200
        x = 1.0 + 0.2 * math.cos(t)
        y = 0.3 + 0.2 * math.sin(t)
        C = a * math.cosh(x) + c * math.cos(y)
        pts.append(mg.SurfacePoint(x, y, math.sqrt(C - 1.0)))
    lift = mg.lift_theta_along(pts, a, c)
    assert abs(lift.winding) < 1e-9


def test_lift_periodicity_flips_half_angle():
    # y -> y + 2 pi flips (cos th, sin th): theta steps by an odd pi
    a, c = 1.0, 1.0
    pts = []
    for k in range(600):
        y = 2.0 * math.pi * k / 599
        C = a * math.cosh(2.0) + c * math.cos(y)
        pts.append(mg.SurfacePoint(2.0, y, math.sqrt(C - 1.0)))
    lift = mg.lift_theta_along(pts, a, c)
    assert math.cos(lift.theta[-1]) == pytest.approx(-math.cos(lift.theta[0]),
                                                     abs=1e-9)
    assert math.sin(lift.theta[-1]) == pytest.approx(-math.sin(lift.theta[0]),
                                                     abs=1e-9)


def test_lift_seed_sign_flips_vector():
    a, c = 1.0, 1.0
    pts = mg.sigma_loop(a, c, 200)
    plus = mg.lift_theta_along(pts, a, c, seed_sign=1)
    minus = mg.lift_theta_along(pts, a, c, seed_sign=-1)
    for tp, tm in zip(plus.theta, minus.theta):
        assert math.cos(tm) == pytest.approx(-math.cos(tp), abs=1e-12)


def test_lift_refuses_coarse_paths():
    a, c = 1.0, 1.0
    with pytest.raises(LiftAmbiguity):
        mg.lift_theta_along(mg.sigma_loop(a, c, 6), a, c)


def test_lift_rejects_off_surface_points():
    with pytest.raises(DomainViolation):
        mg.lift_theta_along([mg.SurfacePoint(0.0, 0.0, 5.0),
                             mg.SurfacePoint(0.1, 0.0, 5.0)], 1.0, 1.0)


def _period_oracle(a, c, n=20000):
    """Midpoint-rule quadrature of the height form in the y-chart.

    Independent of period_sigma's chart: parametrize the throat loop by
    y = y* sin t with signed z, lift 2 theta along the midpoint samples,
    and Richardson-extrapolate the midpoint sums.
    """
    ystar = math.acos((1.0 - a) / c)

    def midpoint_sum(n):
        t0, t1 = -0.5 * math.pi, 1.5 * math.pi
        h = (t1 - t0) / n
        total = 0.0
        prev2 = None
        theta0 = None
        for k in range(n):
            t = t0 + (k + 0.5) * h
            y = ystar * math.sin(t)
            C = a + c * math.cos(y)
            sign = 1.0 if math.cos(t) >= 0.0 else -1.0
            z = sign * math.sqrt(max(C - 1.0, 0.0))
            c2, s2 = mg.cos_sin_two_theta(a, c, mg.SurfacePoint(0.0, y, z))
            ang = math.atan2(s2, c2)
            if prev2 is None:
                prev2 = ang
            else:
                step = (ang - prev2 + math.pi) % (2 * math.pi) - math.pi
                prev2 += step
            theta = 0.5 * prev2
            if theta0 is None:
                theta0 = theta
            dy = ystar * math.cos(t) * h
            total += math.sqrt(2.0) * math.sin(theta) * dy / z
        return total, theta0

    s1, th0 = midpoint_sum(n)
    s2, _ = midpoint_sum(2 * n)
    value = (4.0 * s2 - s1) / 3.0
    return value, th0


@pytest.mark.parametrize("a,c", [(1.0, 1.0), (0.8, 0.5), (1.1778, 1.2903),
                                 (1.0, 0.875)])
def test_period_against_independent_chart(a, c):
    lam = mg.period_sigma(a, c)
    oracle, _ = _period_oracle(a, c)
    # charts may disagree on the half-angle seed, i.e. a global sign
    assert min(abs(lam - oracle), abs(lam + oracle)) < 1e-9
    assert abs(lam) > 1e-3


def test_period_seed_flip_and_refinement():
    lam = mg.period_sigma(1.0, 1.0)
    assert abs(lam + mg.period_sigma(1.0, 1.0, seed_sign=-1)) < 1e-10
    assert abs(lam - mg.period_sigma(1.0, 1.0, samples=1024)) < 10 * mg.TOL_QUAD


def test_period_refines_an_ambiguous_start():
    # the 6-sample loop cannot be lifted (test_lift_refuses_coarse_paths),
    # so the period must refine the grid instead of refusing
    lam = mg.period_sigma(1.0, 1.0, samples=6)
    assert abs(lam - mg.period_sigma(1.0, 1.0)) < 1e-12
    with pytest.raises(ParamViolation):
        mg.period_sigma(1.0, 1.0, samples=0)


@pytest.mark.parametrize("count", [0, -1, -3, 1.5])
def test_sample_counts_must_be_integers_of_at_least_one(count):
    with pytest.raises(ParamViolation, match="^n must be"):
        mg.sigma_loop(1.0, 1.0, count)
    with pytest.raises(ParamViolation, match="^n_per_edge must be"):
        mg.gamma_rectangle(1.0, 1.0, 2.0, count)
    with pytest.raises(ParamViolation, match="^panels must be"):
        mg.reconstruct_u([(1.0, 0.3), (1.2, 0.4)], mg.ScherkFifth(), panels=count)
    with pytest.raises(ParamViolation, match="^samples must be"):
        mg.period_sigma(1.0, 1.0, samples=count)


@pytest.mark.parametrize("a,c", [(1.0, 1.0), (0.2807, 0.8615)])
def test_period_homotopy_invariance(a, c):
    lam0 = mg.period_sigma(a, c)
    lam1 = mg.period_sigma(a, c, x_section=0.3)
    assert abs(lam0 - lam1) < 10 * mg.TOL_QUAD


# ----------------------------------------------------------------------
# reconstruction
# ----------------------------------------------------------------------

def test_reconstruct_scherk_matches_closed_form():
    path = [(1.0 + 0.02 * k, 0.5 + 0.025 * k) for k in range(51)]
    us = mg.reconstruct_u(path, mg.ScherkFifth())
    base = mg.scherk_closed_form(*path[0])[0]
    for pt, u in zip(path, us):
        assert u + base == pytest.approx(mg.scherk_closed_form(*pt)[0], abs=1e-9)


def test_reconstruct_constant_plane():
    psi, cval = 0.7, 2.0
    path = [(0.04 * k, 0.05 * k) for k in range(26)]
    us = mg.reconstruct_u(path, mg.ConstantPlane(cval), psi=psi)
    g = math.sqrt(cval ** 2 - 1.0)
    for (x, y), u in zip(path, us):
        assert u == pytest.approx(g * (math.cos(psi) * x + math.sin(psi) * y),
                                  abs=1e-12)


def test_reconstruct_branches_are_inequivalent():
    # probe grid evaluation: the branch heights do not differ by +-u + const
    fam = mg.DoublyPeriodic(1.0, 1.0)
    path = [(0.3 + 0.015 * k, -0.5 + 0.018 * k) for k in range(61)]
    up = mg.reconstruct_u(path, fam, branch=1)
    dn = mg.reconstruct_u(path, fam, branch=-1)
    diff = [a - b for a, b in zip(up, dn)]
    summ = [a + b for a, b in zip(up, dn)]
    assert max(diff) - min(diff) > 1e-3
    assert max(summ) - min(summ) > 1e-3


def test_reconstruct_path_independence():
    fam = mg.DoublyPeriodic(1.0, 1.0)
    stair_a = [(0.5, 0.3), (0.9, 0.3), (0.9, 0.8)]
    stair_b = [(0.5, 0.3), (0.5, 0.8), (0.9, 0.8)]
    ua = mg.reconstruct_u(stair_a, fam, panels=24)[-1]
    ub = mg.reconstruct_u(stair_b, fam, panels=24)[-1]
    assert abs(ua - ub) < 1e-7


def test_reconstruct_closed_loop_is_exact():
    # closedness of the height form: a contractible loop integrates to ~0
    fam = mg.DoublyPeriodic(1.0, 1.0)
    loop = [(0.5, 0.3), (0.9, 0.3), (0.9, 0.8), (0.5, 0.8), (0.5, 0.3)]
    us = mg.reconstruct_u(loop, fam, panels=24)
    assert abs(us[-1]) < 1e-7


def test_reconstruct_rejects_out_of_domain():
    fam = mg.HeliCatenoid(math.pi / 4)
    with pytest.raises(DomainViolation):
        mg.reconstruct_u([(0.9, 0.2), (0.0, 0.0)], fam)


@pytest.mark.parametrize("family", [mg.ConstantPlane(2.0), mg.ScherkFifth(),
                                    mg.HeliCatenoid(0.9), mg.DoublyPeriodic(0.8, 0.5)],
                         ids=lambda f: type(f).__name__)
@pytest.mark.parametrize("vertex", [(math.nan, 0.3), (1.0, math.nan),
                                    (math.inf, 0.3), (1.0, -math.inf)])
def test_reconstruct_refuses_a_vertex_that_is_not_finite(family, vertex):
    # (1.0, 0.3) lies in every family's domain; the constant density's
    # domain test holds everywhere, nan included
    with pytest.raises(DomainViolation,
                       match=re.escape(f"path vertex {vertex} outside the domain")):
        mg.reconstruct_u([(1.0, 0.3), vertex], family)


@pytest.mark.parametrize("family,far", [
    (mg.ScherkFifth(), 400.0),            # sinh(x) ** 2 in closed_slope overflowed
    (mg.ScherkFifth(), 355.5),            # cosh 2x overflows from x = 355.24
    (mg.DoublyPeriodic(1.0, 1.0), 800.0),
    (mg.HeliCatenoid(0.7), 1e160),
    (mg.ConstantPlane(2.0), 1e300)],
    ids=["scherk-400", "scherk-355.5", "doubly-periodic-800", "heli-catenoid-1e160",
         "constant-1e300"])
def test_reconstruct_refuses_a_vertex_whose_C_overflows(family, far):
    # the family's C at the far vertex is not a finite float, except for the
    # constant density, whose heights grow linearly and stay finite
    path = [(1.5, 0.3), (far, 0.3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(family, mg.ConstantPlane):
            assert mg.reconstruct_u(path, family) \
                == pytest.approx([0.0, math.sqrt(3.0) * (far - 1.5)], rel=1e-12)
            return
        with pytest.raises(DomainViolation,
                           match=re.escape(f"path vertex ({far}, 0.3) outside the domain")):
            mg.reconstruct_u(path, family)


# ----------------------------------------------------------------------
# minimal surface residual
# ----------------------------------------------------------------------

def test_minimal_residual_examples():
    assert mg.minimal_residual(Jet(1.0, dx=0.5, dy=-2.0, order=2)) == 0.0
    # u = x^2 at (x, 0): residual 2/(1+4x^2)^(3/2)
    for x in (0.0, 0.7, 1.5):
        uj = Jet(x * x, dx=2 * x, dxx=2.0, order=2)
        assert mg.minimal_residual(uj) == pytest.approx(
            2.0 / (1.0 + 4.0 * x * x) ** 1.5, abs=1e-15)
