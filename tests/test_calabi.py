"""Band-metric Lagrangian, elliptic parametrization, compatibility data."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densitylab import calabi as cb
from densitylab.errors import (
    DegenerateAllZero,
    DensityLabError,
    NotPositiveDefinite,
    ParamViolation,
    RangeViolation,
    Singularity,
    SingularSystem,
)
from densitylab.jets import BatchStatus, Jet

# regression fixture: the probe jet of phi = pi/8 + x/10 + y^2/50 at (0, 0)
PROBE_JET = dict(value=math.pi / 8, dx=0.1, dy=0.0, dxx=0.0, dxy=0.0, dyy=0.04)
# frozen from the first exact-probing run of compatibility_extract
PROBE_A = (0.96000000000000996, 0.080000000000018778, -0.50911688245432418)
PROBE_CANDIDATES = (-0.46541227489846387, 0.54855350678692372)
# third_order_residual of the order-3 probe jet, one pair per candidate
PROBE_RESIDUALS = ((1.3479016785797233, 1.0904389757489537),
                   (0.40106383866160494, 1.0240541299233676))


def probe_jet(order=3):
    return Jet(PROBE_JET["value"], dx=PROBE_JET["dx"], dy=PROBE_JET["dy"],
               dxx=PROBE_JET["dxx"], dxy=PROBE_JET["dxy"], dyy=PROBE_JET["dyy"],
               order=order)


# ----------------------------------------------------------------------
# Lagrangian and metric
# ----------------------------------------------------------------------

def test_lagrangian_value():
    assert cb.lagrangian_L(cb.GradientPair(1.0, 1.0)) == \
        pytest.approx(2.0 / math.sqrt(3.0), abs=1e-15)


def test_lagrangian_symmetric_in_pq():
    g1 = cb.GradientPair(1.3, 0.8)
    g2 = cb.GradientPair(0.8, 1.3)
    assert cb.lagrangian_L(g1) == cb.lagrangian_L(g2)


def test_lagrangian_domain_guards():
    with pytest.raises(RangeViolation):
        cb.lagrangian_L(cb.GradientPair(-1.0, 1.0))
    with pytest.raises(RangeViolation):
        cb.lagrangian_L(cb.GradientPair(0.3, 0.3))      # p + q <= 1
    with pytest.raises(RangeViolation):
        cb.lagrangian_L(cb.GradientPair(2.5, 1.0))      # |p - q| >= 1


@given(st.floats(0.06, math.pi / 4 - 0.06), st.floats(-1.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_prescribed_density_and_ellipse_identity(phi, frac):
    theta = frac * (math.pi / 2 - phi - 0.01)
    g = cb.ellipse_param(phi, theta)
    assert cb.lagrangian_L(g) == pytest.approx(1.0 / math.sin(2 * phi), abs=1e-10)
    assert g.p ** 2 - 2 * math.cos(2 * phi) * g.p * g.q + g.q ** 2 == \
        pytest.approx(1.0, abs=1e-12)


def test_ellipse_param_values():
    phi = 0.5
    g = cb.ellipse_param(phi, 0.0)
    assert g.p == pytest.approx(1.0 / (2.0 * math.sin(phi)), abs=1e-14)
    assert g.q == pytest.approx(g.p, abs=1e-15)
    g = cb.ellipse_param(phi, phi)
    assert g.p == pytest.approx(1.0 / math.sin(2 * phi), abs=1e-14)
    assert g.q == pytest.approx(math.cos(2 * phi) / math.sin(2 * phi), abs=1e-14)


def test_ellipse_endpoints():
    # the arc limits onto (1, 0) and (0, 1) at theta -> +-(pi/2 - phi)
    phi = 0.4
    eps = 1e-7
    g = cb.ellipse_param(phi, (math.pi / 2 - phi) - eps)
    assert (g.p, g.q) == pytest.approx((1.0, 0.0), abs=1e-6)
    g = cb.ellipse_param(phi, -(math.pi / 2 - phi) + eps)
    assert (g.p, g.q) == pytest.approx((0.0, 1.0), abs=1e-6)
    with pytest.raises(RangeViolation):
        cb.ellipse_param(phi, math.pi / 2 - phi)
    with pytest.raises(RangeViolation):
        cb.ellipse_param(1.0, 0.0)


def test_strict_ellipticity_marks_the_inner_arc():
    phi = 0.3
    assert cb.ellipse_param(phi, 0.5 * phi).strictly_elliptic()
    assert not cb.ellipse_param(phi, phi + 0.4).strictly_elliptic()


def test_band_metric_values():
    s = 1.0 / math.sqrt(2.0)
    f, density = cb.band_metric(Jet(0.0, dx=s, dy=s, order=1))
    assert f == pytest.approx(0.0, abs=1e-15)
    assert density == pytest.approx(1.0, abs=1e-14)
    f, _ = cb.band_metric(Jet(0.0, dx=1.0, dy=1.0, order=1))
    assert f == pytest.approx(-0.5, abs=1e-15)
    # unit coefficients: |dx|^2 = |dy|^2 = 1 by construction of the form
    alpha, beta = 1.0, 0.0
    assert alpha ** 2 + beta ** 2 + 2 * f * alpha * beta == 1.0


def test_band_metric_guards():
    with pytest.raises(Singularity):
        cb.band_metric(Jet(0.0, dx=1.0, dy=0.0, order=1))
    with pytest.raises(NotPositiveDefinite):
        cb.band_metric(Jet(0.0, dx=3.0, dy=0.1, order=1))


# ----------------------------------------------------------------------
# Euler-Lagrange form
# ----------------------------------------------------------------------

def test_psi_components_at_unit_gradient():
    px, py = cb.psi_components(cb.GradientPair(1.0, 1.0))
    assert px == pytest.approx(-(3.0 ** -1.5), abs=1e-16)
    assert py == pytest.approx(3.0 ** -1.5, abs=1e-16)


def test_psi_antisymmetric_on_diagonal():
    for p in (0.8, 1.0, 1.3):
        px, py = cb.psi_components(cb.GradientPair(p, p))
        assert px == pytest.approx(-py, abs=1e-15)


def test_psi_smooth_on_compact_subset():
    for p in (0.9, 1.1, 1.4):
        for q in (0.9, 1.1, 1.4):
            px, py = cb.psi_components(cb.GradientPair(p, q))
            assert math.isfinite(px) and math.isfinite(py)


def test_el_residual_linear_exact_zero():
    assert cb.el_residual(Jet(0.3, dx=0.9, dy=0.8, order=2)) == 0.0


def test_el_residual_matches_finite_difference_form():
    # z = a x + b y + eps (x^2 - y^2): residual O(eps), equal to the FD curl
    a, b = 0.9, 0.8
    x0, y0 = 0.2, -0.1
    h = 1e-5
    for eps in (1e-2, 1e-3, 1e-4):
        def psi_field(x, y):
            return cb.psi_components(
                cb.GradientPair(a + 2 * eps * x, b - 2 * eps * y))

        fd = ((psi_field(x0 + h, y0)[1] - psi_field(x0 - h, y0)[1]) / (2 * h)
              - (psi_field(x0, y0 + h)[0] - psi_field(x0, y0 - h)[0]) / (2 * h))
        zj = Jet(0.0, dx=a + 2 * eps * x0, dy=b - 2 * eps * y0,
                 dxx=2 * eps, dyy=-2 * eps, order=2)
        r = cb.el_residual(zj)
        assert r == pytest.approx(fd, abs=1e-8)
        assert abs(r) < 0.5 * eps  # residual is O(eps)


def test_el_residual_odd_under_reflection():
    z = Jet(0.1, dx=0.95, dy=0.85, dxx=0.02, dxy=-0.01, dyy=0.03, order=2)
    zn = Jet(-0.1, dx=-0.95, dy=-0.85, dxx=-0.02, dxy=0.01, dyy=-0.03, order=2)
    assert cb.el_residual(z) == pytest.approx(-cb.el_residual(zn), abs=1e-15)


# ----------------------------------------------------------------------
# angle gradient and affine extraction
# ----------------------------------------------------------------------

def test_constant_phi_gives_constant_theta():
    tx, ty = cb.theta_gradient_calabi(Jet(math.pi / 8, order=2), 0.2)
    assert tx == 0.0 and ty == 0.0


def test_gradient_is_affine_in_doubled_angle():
    phij = probe_jet()
    data = cb.compatibility_extract(phij)
    for th in (0.11, -0.3, math.pi / 6, 0.52):
        pred = [(math.cos(2 * th) * data.omega1[i]
                 + math.sin(2 * th) * data.omega2[i] + data.omega3[i]) / 2.0
                for i in range(2)]
        act = cb.theta_gradient_calabi(phij, th)
        assert max(abs(pred[0] - act[0]), abs(pred[1] - act[1])) < 1e-10


def test_compatibility_extract_constant_phi():
    data = cb.compatibility_extract(Jet(math.pi / 8, order=2))
    assert (data.A1, data.A2, data.A3) == (0.0, 0.0, 0.0)


def test_compatibility_extract_probe_fixture():
    data = cb.compatibility_extract(probe_jet())
    assert data.A1 == pytest.approx(PROBE_A[0], abs=1e-9)
    assert data.A2 == pytest.approx(PROBE_A[1], abs=1e-9)
    assert data.A3 == pytest.approx(PROBE_A[2], abs=1e-9)
    assert max(abs(a) for a in PROBE_A) > 1e-3  # genuinely nonzero obstruction


def test_compatibility_extract_reads_only_the_two_jet():
    def bits(data):
        return [v.hex() for v in (*data.omega1, *data.omega2, *data.omega3,
                                  data.A1, data.A2, data.A3)]

    rng = random.Random(303)
    for _ in range(20):
        phij = Jet(rng.uniform(0.15, math.pi / 4 - 0.15),
                   *(rng.uniform(-0.3, 0.3) for _ in range(9)), order=3)
        assert bits(cb.compatibility_extract(phij)) == \
            bits(cb.compatibility_extract(phij.truncate(2)))


def test_gradient_holonomy_matches_obstruction():
    # Green's-theorem oracle: transporting theta around a small square picks
    # up (A1 cos 2th + A2 sin 2th + A3) * area / 2 to leading order
    phi0 = probe_jet()

    def phi_jet_at(x, y):
        return Jet(phi0.value + phi0.dx * x + phi0.dy * y
                   + 0.5 * phi0.dxx * x * x + phi0.dxy * x * y
                   + 0.5 * phi0.dyy * y * y,
                   dx=phi0.dx + phi0.dxx * x + phi0.dxy * y,
                   dy=phi0.dy + phi0.dxy * x + phi0.dyy * y,
                   dxx=phi0.dxx, dxy=phi0.dxy, dyy=phi0.dyy, order=2)

    def transport(theta0, side, steps):
        th = theta0
        corners = [(0.0, 0.0), (side, 0.0), (side, side), (0.0, side), (0.0, 0.0)]
        for (xa, ya), (xb, yb) in zip(corners[:-1], corners[1:]):
            hx, hy = (xb - xa) / steps, (yb - ya) / steps
            x, y = xa, ya
            for _ in range(steps):
                def rhs(t, xx, yy):
                    gx, gy = cb.theta_gradient_calabi(phi_jet_at(xx, yy), t)
                    return gx * hx + gy * hy
                k1 = rhs(th, x, y)
                k2 = rhs(th + 0.5 * k1, x + 0.5 * hx, y + 0.5 * hy)
                k3 = rhs(th + 0.5 * k2, x + 0.5 * hx, y + 0.5 * hy)
                k4 = rhs(th + k3, x + hx, y + hy)
                th += (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
                x += hx
                y += hy
        return th - theta0

    theta0 = 0.15
    data = cb.compatibility_extract(phi0)
    obstruction = (data.A1 * math.cos(2 * theta0)
                   + data.A2 * math.sin(2 * theta0) + data.A3)
    side = 1e-3
    hol = transport(theta0, side, 60)
    assert 2.0 * hol / side ** 2 == pytest.approx(obstruction, rel=2e-3)


# ----------------------------------------------------------------------
# candidate angles and the third-order residual
# ----------------------------------------------------------------------

def test_candidates_trigonometric_solve():
    # A = (1, 0, 0): 2 theta = +-pi/2, both inside the range for small phi
    out = cb.candidates_from_coefficients(1.0, 0.0, 0.0, 0.1)
    assert out == pytest.approx([-math.pi / 4, math.pi / 4], abs=1e-12)


def test_candidates_amplitude_bound():
    assert cb.candidates_from_coefficients(0.3, 0.4, 2.0, 0.1) == []


def test_candidates_degenerate_raises():
    with pytest.raises(DegenerateAllZero):
        cb.candidates_from_coefficients(0.0, 0.0, 0.0, 0.1)
    with pytest.raises(DegenerateAllZero):
        cb.two_theta_candidates(Jet(math.pi / 8, order=2))


# (A1, A2, A3, phi): a double root (one candidate, not two), two roots, no
# root, all zero, and a root just inside the amplitude bound
COEFFICIENT_CASES = [(1.0, 0.0, -1.0, 0.2), (1.0, 0.0, 0.0, 0.1),
                     (0.3, 0.4, 2.0, 0.1), (0.0, 0.0, 0.0, 0.1),
                     (0.6, -0.8, 1.0 - 1e-15, 0.3)]


def test_candidates_from_coefficients_batch_matches_scalar():
    assert cb.candidates_from_coefficients(1.0, 0.0, -1.0, 0.2) == [0.0]
    A1, A2, A3, phi = (np.array(col) for col in zip(*COEFFICIENT_CASES))
    status = BatchStatus(len(COEFFICIENT_CASES))
    with np.errstate(all="ignore"):
        got = cb.candidates_from_coefficients(A1, A2, A3, phi, status=status)
    for i, case in enumerate(COEFFICIENT_CASES):
        try:
            want = cb.candidates_from_coefficients(*case)
        except DensityLabError as exc:
            assert status.errors[i] is type(exc), i
            continue
        assert status.errors[i] is None and len(got[i]) == len(want), (i, got[i])
        assert np.allclose(got[i], want, rtol=0.0, atol=1e-12), i


def test_candidates_probe_fixture():
    cands = cb.two_theta_candidates(probe_jet())
    assert len(cands) == 2
    assert cands[0] == pytest.approx(PROBE_CANDIDATES[0], abs=1e-9)
    assert cands[1] == pytest.approx(PROBE_CANDIDATES[1], abs=1e-9)


def test_candidates_never_exceed_two():
    rng = random.Random(2024)
    for _ in range(300):
        phij = Jet(rng.uniform(0.15, math.pi / 4 - 0.15),
                   dx=rng.uniform(-0.4, 0.4), dy=rng.uniform(-0.4, 0.4),
                   dxx=rng.uniform(-0.4, 0.4), dxy=rng.uniform(-0.4, 0.4),
                   dyy=rng.uniform(-0.4, 0.4), order=2)
        try:
            assert len(cb.two_theta_candidates(phij)) <= 2
        except DegenerateAllZero:
            pass


def test_candidates_solve_the_obstruction():
    data = cb.compatibility_extract(probe_jet())
    for th in cb.two_theta_candidates(probe_jet()):
        val = (data.A1 * math.cos(2 * th) + data.A2 * math.sin(2 * th) + data.A3)
        assert abs(val) < 1e-12
        assert abs(th) < math.pi / 2 - PROBE_JET["value"]


def test_third_order_residual_generic_probe():
    phij = probe_jet(order=3)
    cands = cb.two_theta_candidates(phij)
    residuals = [cb.third_order_residual(phij, th) for th in cands]
    for rx, ry in residuals:
        assert math.isfinite(rx) and math.isfinite(ry)
    assert any(abs(rx) + abs(ry) > 1e-6 for rx, ry in residuals)


def test_third_order_residual_probe_fixture():
    phij = probe_jet(order=3)
    got = tuple(cb.third_order_residual(phij, th)
                for th in cb.two_theta_candidates(phij))
    assert got == PROBE_RESIDUALS


def test_third_order_residual_stable_under_jet_perturbation():
    phij = probe_jet(order=3)
    th = cb.two_theta_candidates(phij)[0]
    r0 = cb.third_order_residual(phij, th)
    delta = 1e-6
    pert = Jet(phij.value, dx=phij.dx + delta, dy=phij.dy,
               dxx=phij.dxx, dxy=phij.dxy, dyy=phij.dyy, order=3)
    th1 = cb.two_theta_candidates(pert)[0]
    r1 = cb.third_order_residual(pert, th1)
    assert abs(r1[0] - r0[0]) < 1e-3 and abs(r1[1] - r0[1]) < 1e-3


def test_third_order_residual_rejects_foreign_angle():
    with pytest.raises(ParamViolation):
        cb.third_order_residual(probe_jet(order=3), 1.5)


def test_third_order_residual_constant_phi_is_degenerate():
    with pytest.raises(DegenerateAllZero):
        cb.third_order_residual(Jet(math.pi / 8, order=3), 0.1)


# ----------------------------------------------------------------------
# batch path: one pass over an array jet agrees with the scalar calls
# ----------------------------------------------------------------------

def batch_of(rows, order):
    """One array jet whose element i has the slots rows[i]."""
    return Jet(*np.array(rows, dtype=float).T, order=order)


def scalar_outcome(rows, i, order):
    """Scalar (A1, A2, A3) and candidates of element i, or the class raised."""
    phij = Jet(*rows[i], order=order)
    try:
        data = cb.compatibility_extract(phij)
        return (data.A1, data.A2, data.A3), cb.two_theta_candidates(phij)
    except DensityLabError as exc:
        return type(exc)


def assert_same_outcome(got, want, i):
    """A batch outcome against scalar_outcome: same class, or same list."""
    if isinstance(want, type):
        assert got is want, (i, got, want)
    else:
        assert isinstance(got, list) and len(got) == len(want[1]), (i, got, want)
        assert np.allclose(got, want[1], rtol=0.0, atol=1e-12), (i, got, want)


def test_batch_matches_scalar_on_random_jets():
    # the distribution of the calabi branches scenario
    rng = random.Random(4242)
    rows = [[rng.uniform(0.15, math.pi / 4 - 0.15)]
            + [rng.uniform(-0.3, 0.3) for _ in range(5)] for _ in range(2000)]
    phi = batch_of(rows, 2)
    outcomes = cb.candidates_batch(phi)
    status = BatchStatus(len(rows))
    data = cb.compatibility_extract(phi, status)
    assert len(outcomes) == len(rows)
    for i, got in enumerate(outcomes):
        want = scalar_outcome(rows, i, 2)
        if isinstance(want, type):
            assert got is want and status.errors[i] is want, i
            continue
        assert status.errors[i] is None
        batch_coeffs = (data.A1[i], data.A2[i], data.A3[i])
        assert np.allclose(batch_coeffs, want[0], rtol=0.0, atol=1e-12), i
        assert_same_outcome(got, want, i)


# one element per guard, each next to good jets; the scalar call on each
# raises the class named here
GUARDED_ROWS = [
    ([0.9, 0.1, 0.0, 0.0, 0.0, 0.0], RangeViolation),       # phi > pi/4
    ([-0.1, 0.1, 0.0, 0.0, 0.0, 0.0], RangeViolation),      # phi < 0
    ([math.pi / 8, 0.0, 0.0, 0.0, 0.0, 0.0], DegenerateAllZero),  # constant phi
    ([math.pi / 4 - 1e-7, 0.1, 0.05, 0.0, 0.0, 0.0], Singularity),   # radicand
    ([math.pi / 4 - 1e-13, 0.1, 0.05, 0.0, 0.0, 0.0], SingularSystem),  # det
]


def test_batch_gives_each_element_the_class_the_scalar_call_raises():
    good = [[PROBE_JET[s] for s in ("value", "dx", "dy", "dxx", "dxy", "dyy")],
            [0.3, 0.2, -0.1, 0.05, 0.1, -0.2], [0.6, -0.25, 0.3, 0.0, 0.2, 0.1]]
    rows = [good[0]]
    for (row, _), extra in zip(GUARDED_ROWS, good[1:] * 3):
        rows += [row, extra]
    outcomes = cb.candidates_batch(batch_of(rows, 2))
    seen = set()
    for i, got in enumerate(outcomes):
        want = scalar_outcome(rows, i, 2)
        assert_same_outcome(got, want, i)
        if isinstance(want, type):
            seen.add(want)
    assert seen == {cls for _, cls in GUARDED_ROWS}
    assert outcomes[0] == pytest.approx(list(PROBE_CANDIDATES), abs=1e-12)


def test_batch_without_status_raises_the_first_failure():
    rows = [[0.3, 0.1, 0.0, 0.0, 0.0, 0.0], [0.9, 0.1, 0.0, 0.0, 0.0, 0.0]]
    with np.errstate(all="ignore"):
        with pytest.raises(RangeViolation, match=r"got 0\.9$"):
            cb.compatibility_extract(batch_of(rows, 2))


def test_batch_of_third_order_jets_matches_scalar():
    rng = random.Random(77)
    rows = [[rng.uniform(0.15, math.pi / 4 - 0.15)]
            + [rng.uniform(-0.3, 0.3) for _ in range(9)] for _ in range(50)]
    outcomes = cb.candidates_batch(batch_of(rows, 3))
    for i, got in enumerate(outcomes):
        assert_same_outcome(got, scalar_outcome(rows, i, 3), i)
