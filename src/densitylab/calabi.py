"""Calabi's band-metric Lagrangian and its compatibility coefficients.

In a region crossed by three bands of calibrated geodesics, the third
calibration z(x, y) of an extremal metric must be a critical point of

    L(p, q) = 2 p q / sqrt((2pq)^2 - (p^2 + q^2 - 1)^2),    (p, q) = grad z,

and prescribing the area density L = F = 1/sin(2 phi) confines the gradient
to the ellipse p^2 - 2 cos(2 phi) p q + q^2 = 1, parametrized by an angle
theta.  Closedness of the gradient form p dx + q dy and of the
Euler-Lagrange form psi then determine d(2 theta) as an affine expression

    d(2 theta) = cos(2 theta) w1 + sin(2 theta) w2 + w3

in 1-forms w_i built from phi and its first derivatives, and d(d 2theta) = 0
produces the obstruction A1 cos(2 theta) + A2 sin(2 theta) + A3 = 0.

The closed forms of w_i and A_i are never derived symbolically here (the
expression swell is the reason they are unprinted anywhere); instead they
are extracted exactly by probing the affine structure at three angles, with
every derivative taken analytically through the jet algebra.  One pipeline
probes on jets: on phi's 2-jet it gives the values of w_i and A_i
(:func:`compatibility_extract`), on its 3-jet it gives the A_i as 1-jets,
whose derivatives :func:`third_order_residual` needs.

The pipeline from phi's jet to the candidate angles is one implementation
for a single jet and for a batch (a jet whose slots are arrays, see
:mod:`densitylab.jets`): :func:`candidates_batch` runs it once over the
batch, and each element that a guard rejects ends as the exception class the
single-jet call raises, without stopping the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchCollision,
    DegenerateAllZero,
    NotPositiveDefinite,
    ParamViolation,
    RangeViolation,
    Singularity,
    SingularSystem,
)
from .jets import (
    BatchStatus,
    Jet,
    guard,
    jet_acos,
    jet_atan2,
    jet_cos,
    jet_sin,
    jet_sqrt,
    math_for,
)

TOL_SING = 1e-12


@dataclass(frozen=True)
class GradientPair:
    """A gradient (p, q) = (z_x, z_y) in the Lagrangian's domain.

    The domain of L is radicand positivity, p + q > 1 and |p - q| < 1
    (with the reflection normalization p, q > 0); on the prescribed-density
    ellipse that is exactly the angle window |theta| < pi/2 - phi.  The
    stricter ellipticity of the Euler-Lagrange operator, p^2 + q^2 > 1 and
    |p^2 - q^2| < 1, holds on the sub-arc |theta| < phi and is exposed as
    :meth:`strictly_elliptic`.
    """

    p: float
    q: float

    def validate(self) -> None:
        p, q = self.p, self.q
        if not (p > 0.0 and q > 0.0):
            raise RangeViolation("normalized branch requires p, q > 0")
        if not (p + q > 1.0 and abs(p - q) < 1.0):
            raise RangeViolation(
                f"(p, q) = ({p}, {q}) outside the Lagrangian domain")

    def strictly_elliptic(self) -> bool:
        p2, q2 = self.p ** 2, self.q ** 2
        return p2 + q2 > 1.0 and abs(p2 - q2) < 1.0


@dataclass(frozen=True)
class CompatibilityData:
    """Extracted 1-form coefficients w_i = (dx, dy) and obstruction A_i."""

    omega1: tuple[float, float]
    omega2: tuple[float, float]
    omega3: tuple[float, float]
    A1: float
    A2: float
    A3: float


def _radicand(p, q):
    """(2pq)^2 - (p^2+q^2-1)^2, on jets or floats."""
    return 4.0 * p * p * q * q - (p * p + q * q - 1.0) ** 2


def lagrangian_L(g: GradientPair) -> float:
    """Band-metric area density 2pq/sqrt((2pq)^2 - (p^2+q^2-1)^2) >= 1."""
    g.validate()
    r = _radicand(g.p, g.q)
    if r <= TOL_SING:
        raise Singularity(f"radicand {r} at the boundary conic")
    return 2.0 * g.p * g.q / math.sqrt(r)


def band_metric(F: Jet) -> tuple[float, float]:
    """Off-diagonal coefficient f and area density of the band metric.

    The metric making dx, dy and dz = F_x dx + F_y dy all unit-length is
    |alpha dx + beta dy|^2 = alpha^2 + beta^2 + 2 f alpha beta with
    f = (1 - F_x^2 - F_y^2)/(2 F_x F_y); it is positive definite iff
    |f| < 1, and its area density is the Lagrangian at (F_x, F_y).
    """
    if F.order < 1:
        raise ParamViolation("F jet must carry first derivatives")
    fx, fy = F.dx, F.dy
    guard(abs(fx * fy) < TOL_SING, Singularity,
          "F_x F_y vanishes; band metric undefined")
    f = (1.0 - fx * fx - fy * fy) / (2.0 * fx * fy)
    guard(abs(f) >= 1.0, NotPositiveDefinite, "|f| = {} >= 1", abs(f))
    r = _radicand(fx, fy)
    density = 2.0 * fx * fy / math.sqrt(r)
    return f, density


def ellipse_param(phi: float, theta: float) -> GradientPair:
    """Gradient on the prescribed-density ellipse at angle theta.

    p = cos(theta - phi)/sin(2 phi), q = cos(theta + phi)/sin(2 phi);
    the pair satisfies p^2 - 2 cos(2 phi) p q + q^2 = 1 identically and
    sweeps the elliptic arc between (1, 0) and (0, 1) as theta runs over
    |theta| < pi/2 - phi.
    """
    if not 0.0 < phi < math.pi / 4.0:
        raise RangeViolation(f"phi must lie in (0, pi/4), got {phi}")
    if not abs(theta) < math.pi / 2.0 - phi:
        raise RangeViolation(f"|theta| must be < pi/2 - phi, got {theta}")
    s = math.sin(2.0 * phi)
    return GradientPair(math.cos(theta - phi) / s, math.cos(theta + phi) / s)


def psi_components(g: GradientPair) -> tuple[float, float]:
    """Components of the Euler-Lagrange 1-form psi at a gradient point.

    psi = [N1(p,q) dx + N2(p,q) dy] / radicand^(3/2) with
    N1 = (p^4 - q^4 - 2p^2 + 1) p and N2 = -(q^4 - p^4 - 2q^2 + 1) q;
    closedness of psi is the Euler-Lagrange equation.
    """
    g.validate()
    px, py = _psi_raw(g.p, g.q)
    return px, py


def _psi_numerators(p, q):
    """The numerators (N1, N2) of psi, on jets or floats."""
    n1 = (p ** 4 - q ** 4 - 2.0 * p * p + 1.0) * p
    n2 = -(q ** 4 - p ** 4 - 2.0 * q * q + 1.0) * q
    return n1, n2


def _psi_raw(p, q):
    """psi components on jets or floats, no range guard."""
    r = _radicand(p, q)
    rv = r.value if isinstance(r, Jet) else r
    guard(rv <= TOL_SING, Singularity, "radicand {} at the boundary conic", rv)
    n1, n2 = _psi_numerators(p, q)
    if isinstance(r, Jet):
        den = jet_sqrt(r)
        den3 = den * den * den
    else:
        den3 = r ** 1.5
    return n1 / den3, n2 / den3


def el_residual(z: Jet) -> float:
    """Euler-Lagrange residual: the dx^dy coefficient of d(psi) for z.

    Built by analytic chain rule: (p, q) = (z_x, z_y) carry one derivative
    order less than z, psi components become order-1 jets in (x, y), and
    the residual is d/dx(psi_y) - d/dy(psi_x).  Zero iff z is extremal at
    the point.
    """
    if z.order < 2:
        raise ParamViolation("z jet must carry second derivatives")
    p = z.deriv("x")
    q = z.deriv("y")
    # only radicand positivity is needed here; the reflected quadrant
    # (p, q) -> (-p, -q) is admitted so the oddness symmetry is testable
    psi_x, psi_y = _psi_raw(p, q)
    return psi_y.dx - psi_x.dy


def _closedness_solve(phi: Jet, theta: float, status: BatchStatus | None = None):
    """Solve the two closedness conditions for the theta-gradient jets.

    Returns (theta_x, theta_y) as jets of order phi.order - 1; the guards
    record into status when one is given.  The two
    scalar equations are closedness of p dx + q dy and closedness of psi,
    expanded by the chain rule with theta held at the probe value:

        -q_th tx + p_th ty = q_ph phi_x - p_ph phi_y
        alpha tx - beta ty = -gamma phi_x + delta phi_y

    with alpha = psi_y,p p_th + psi_y,q q_th (etc. for beta, gamma, delta).
    """
    if phi.order < 1:
        raise ParamViolation("phi jet must carry first derivatives")
    v = phi.value
    guard(np.logical_not((0.0 < v) & (v < math.pi / 4.0)), RangeViolation,
          "phi value must lie in (0, pi/4), got {}", v, status=status)
    k = phi.order - 1
    ph = phi.truncate(k)
    # coefficient fields of the chain rule, as jets of order k
    s2 = jet_sin(2.0 * ph)
    c_m = jet_cos(Jet.constant(theta, k) - ph)   # cos(theta - phi)
    s_m = jet_sin(Jet.constant(theta, k) - ph)
    c_p = jet_cos(Jet.constant(theta, k) + ph)
    s_p = jet_sin(Jet.constant(theta, k) + ph)
    c2 = jet_cos(2.0 * ph)
    p = c_m / s2
    q = c_p / s2
    p_th = -s_m / s2
    q_th = -s_p / s2
    p_ph = s_m / s2 - 2.0 * c2 * c_m / (s2 * s2)
    q_ph = -s_p / s2 - 2.0 * c2 * c_p / (s2 * s2)

    # psi partials in (p, q), as jets through the field jets p, q
    r = _radicand(p, q)
    guard(r.value <= TOL_SING, Singularity, "radicand vanished along the probe",
          status=status)
    n1, n2 = _psi_numerators(p, q)
    n1_p = 5.0 * p ** 4 - q ** 4 - 6.0 * p * p + 1.0
    n1_q = -4.0 * q ** 3 * p
    n2_p = 4.0 * p ** 3 * q
    n2_q = -(5.0 * q ** 4 - p ** 4 - 6.0 * q * q + 1.0)
    r_p = 4.0 * p * (q * q - p * p + 1.0)
    r_q = 4.0 * q * (p * p - q * q + 1.0)
    den = jet_sqrt(r)
    r52 = den * den * den * den * den
    psi_x_p = (n1_p * r - 1.5 * n1 * r_p) / r52
    psi_x_q = (n1_q * r - 1.5 * n1 * r_q) / r52
    psi_y_p = (n2_p * r - 1.5 * n2 * r_p) / r52
    psi_y_q = (n2_q * r - 1.5 * n2 * r_q) / r52

    alpha = psi_y_p * p_th + psi_y_q * q_th
    beta = psi_x_p * p_th + psi_x_q * q_th
    gamma = psi_y_p * p_ph + psi_y_q * q_ph
    delta = psi_x_p * p_ph + psi_x_q * q_ph

    phx = phi.deriv("x")
    phy = phi.deriv("y")
    b1 = q_ph * phx - p_ph * phy
    b2 = -gamma * phx + delta * phy

    det = (-q_th) * (-beta) - p_th * alpha
    guard(abs(det.value) < TOL_SING, SingularSystem,
          "closedness system determinant {}", det.value, status=status)
    tx = (b1 * (-beta) - p_th * b2) / det
    ty = ((-q_th) * b2 - alpha * b1) / det
    return tx, ty


def theta_gradient_calabi(phi: Jet, theta: float) -> tuple[float, float]:
    """Gradient of the compatible angle field at a point, given phi's jet.

    The result is affine in (cos 2 theta, sin 2 theta); the coefficients
    are the unprinted 1-forms recovered by :func:`compatibility_extract`.
    """
    tx, ty = _closedness_solve(phi, theta)
    return tx.value, ty.value


_PROBES_2T = (0.0, 0.5 * math.pi, math.pi)  # probe values of 2*theta


def _affine_from_probes(at_0, at_half_pi, at_pi):
    """(a, b, c) of a cos(t) + b sin(t) + c from its values at _PROBES_2T."""
    c = 0.5 * (at_0 + at_pi)
    return 0.5 * (at_0 - at_pi), at_half_pi - c, c


def _obstruction_jets(phi: Jet, status: BatchStatus | None = None):
    """The 1-forms (w1, w2, w3) and the obstruction (A1, A2, A3), as jets.

    Each w_i is an (x, y) pair of jets of order phi.order - 1, probed from
    d(2 theta) at 2 theta in {0, pi/2, pi}; the A_i are jets of order
    phi.order - 2, probed at the same angles from the total 2-form

        T(t) = cos(t) (dw1 - w2^w3) + sin(t) (dw2 + w1^w3) + (dw3 + w1^w2),

    the dx^dy coefficient of d(d 2theta) after substituting the affine
    expression for d(2 theta).  The guards record into status when one is
    given.
    """
    g = []
    for t2 in _PROBES_2T:
        tx, ty = _closedness_solve(phi, 0.5 * t2, status)
        g.append((2.0 * tx, 2.0 * ty))
    w1, w2, w3 = zip(*(_affine_from_probes(*(gt[i] for gt in g))
                       for i in range(2)))
    k = phi.order - 2

    def d(w):
        # exterior derivative coefficient of w = wx dx + wy dy
        return w[1].deriv("x") - w[0].deriv("y")

    def wedge(u, v):
        return (u[0] * v[1] - u[1] * v[0]).truncate(k)

    cos_part = d(w1) - wedge(w2, w3)
    sin_part = d(w2) + wedge(w1, w3)
    const_part = d(w3) + wedge(w1, w2)
    A = _affine_from_probes(*(math.cos(t2) * cos_part + math.sin(t2) * sin_part
                              + const_part for t2 in _PROBES_2T))
    return (w1, w2, w3), A


def compatibility_extract(phi: Jet, status: BatchStatus | None = None
                          ) -> CompatibilityData:
    """Recover the affine data (w_i, A_i) of the angle compatibility system.

    The values of :func:`_obstruction_jets` run on phi's 2-jet; higher
    derivatives of phi do not enter.  For a batch phi every field holds one
    entry per element; with a status, guards record and mask instead of
    raising.
    """
    if phi.order < 2:
        raise ParamViolation("phi jet must carry second derivatives")
    w, A = _obstruction_jets(phi.truncate(2), status)
    return CompatibilityData(*((wx.value, wy.value) for wx, wy in w),
                             *(a.value for a in A))


def two_theta_candidates(phi: Jet) -> list[float]:
    """Angles theta in the elliptic range solving the obstruction equation.

    Solves A1 cos(2 th) + A2 sin(2 th) + A3 = 0 subject to
    |th| < pi/2 - phi; there are never more than two.  Raises
    DegenerateAllZero when all coefficients vanish (constant-phi route).
    """
    data = compatibility_extract(phi)
    return candidates_from_coefficients(data.A1, data.A2, data.A3, phi.value)


def candidates_batch(phi: Jet) -> list:
    """:func:`two_theta_candidates` for every element of a batch phi at once.

    phi.value is an array with one entry per element.  The result has one
    entry per element: its candidate list, or the exception class that
    two_theta_candidates raises for that element alone.
    """
    status = BatchStatus(len(phi.value))
    with np.errstate(all="ignore"):
        data = compatibility_extract(phi, status)
        cands = candidates_from_coefficients(data.A1, data.A2, data.A3,
                                             phi.value, status=status)
    return [c if err is None else err for c, err in zip(cands, status.errors)]


def _branch_angles(base, beta):
    """The ten angles (base + sign beta)/2 + k pi as (sign, angle) pairs.

    sign runs over (1, -1) and k over -2..2, in this fixed order, which both
    branch searches rely on; base and beta are floats, or arrays with one
    entry per element of a batch.
    """
    for sign in (1.0, -1.0):
        t2 = base + sign * beta
        for k in (-2, -1, 0, 1, 2):
            yield sign, 0.5 * t2 + k * math.pi


def candidates_from_coefficients(A1, A2, A3, phi_value, tol: float = TOL_SING,
                                 status: BatchStatus | None = None) -> list:
    """Range-filtered solutions of A1 cos(2th) + A2 sin(2th) + A3 = 0.

    On arrays (one entry per element of a batch) the result is one sorted
    candidate list per element; with a status, guards record and mask.
    """
    batch = isinstance(A1, np.ndarray)
    m = math_for(A1)
    amp = m.hypot(A1, A2)
    scale = m.maximum(m.maximum(abs(A1), abs(A2)), abs(A3))
    guard(scale < tol, DegenerateAllZero, "A1 = A2 = A3 = 0 within tolerance",
          status=status)
    real = np.logical_not(abs(A3) > amp)
    if not batch and not real:
        return []
    base = m.atan2(A2, A1)
    beta = m.acos(m.maximum(-1.0, m.minimum(1.0, -A3 / amp)))
    half_window = math.pi / 2.0 - phi_value
    # each angle is kept when it lies in the window and is not within 1e-9
    # of an angle kept before it
    ths, keeps = [], []
    for _, th in _branch_angles(base, beta):
        keep = real & (abs(th) < half_window)
        for o, kept in zip(ths, keeps):
            keep = keep & (~kept | (abs(th - o) > 1e-9))
        ths.append(th)
        keeps.append(keep)
    if not batch:
        out = sorted(th for th, kept in zip(ths, keeps) if kept)
        guard(len(out) > 2, ParamViolation, "impossible candidate count {}", len(out))
        return out
    counts = np.sum(keeps, axis=0)
    guard(counts > 2, ParamViolation, "impossible candidate count {}", counts,
          status=status)
    return [sorted(row[kept].tolist())
            for row, kept in zip(np.transpose(ths), np.transpose(keeps))]


def third_order_residual(phi: Jet, theta_branch: float) -> tuple[float, float]:
    """Residual of d(2 theta^+-) against the affine expression, per branch.

    The branch angle is differentiated analytically through the phi jet
    (requires order 3): the obstruction coefficients become order-1 jets,
    the branch formula 2 theta = atan2(A2, A1) +- acos(-A3/|A|) is composed
    in jet arithmetic, and the residual pair

        d(2 theta) - (cos(2 th) w1 + sin(2 th) w2 + w3)

    is returned.  Both components vanish exactly when phi satisfies the
    third-order closure system; generically they do not.
    """
    if phi.order < 3:
        raise ParamViolation("phi jet must carry third derivatives")
    (w1, w2, w3), (A1, A2, A3) = _obstruction_jets(phi)

    amp2 = A1 * A1 + A2 * A2
    guard(amp2.value < TOL_SING, DegenerateAllZero, "A1 = A2 = 0 within tolerance")
    amp = jet_sqrt(amp2)
    ratio = -A3 / amp
    guard(1.0 - ratio.value ** 2 < 1e-10, BranchCollision,
          "candidate branches merge (acos argument at +-1)")
    base = jet_atan2(A2, A1)
    beta = jet_acos(ratio)

    # the branch whose angle lies nearest the requested one (first if tied)
    err, sign = min(((abs(th - theta_branch), sign)
                     for sign, th in _branch_angles(base.value, beta.value)),
                    key=lambda pick: pick[0])
    guard(err > 1e-6, ParamViolation,
          "theta_branch {} is not a candidate of this jet", theta_branch)
    t2_jet = base + sign * beta

    c2, s2 = math.cos(t2_jet.value), math.sin(t2_jet.value)
    rx = t2_jet.dx - (c2 * w1[0].value + s2 * w2[0].value + w3[0].value)
    ry = t2_jet.dy - (c2 * w1[1].value + s2 * w2[1].value + w3[1].value)
    return rx, ry
