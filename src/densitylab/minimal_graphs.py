"""Minimal graphs over a plane domain that share a prescribed area density.

A graph z = u(x, y) has area density F = sqrt(1 + |grad u|^2).  Writing
F = coth(mu) with mu > 0, any minimal graph with density F has

    u_x = cos(theta) / sinh(mu),      u_y = sin(theta) / sinh(mu)

for some angle field theta.  The minimal surface equation plus equality of
mixed partials force the linear relation

    (mu_xx - mu_yy) cos(2 theta) + 2 mu_xy sin(2 theta)
        = (mu_xx + mu_yy) cosh(2 mu),

whose solvability discriminant P decides how many inequivalent graphs share
the density.  In the variable C = cosh(2 mu) the closure of the system is a
simple third-order system with three first integrals, whose closed-form
solution families are implemented here: constant densities (tilted planes),
coth x (pieces of Scherk's fifth surface), the heli-catenoid radial family,
and the doubly periodic family C = a cosh x + c cos y.

Everything is a pure function; jets are supplied analytically through the
Taylor algebra in :mod:`densitylab.jets`.

Grids run as batches.  The point functions take arrays of coordinates as
well as floats, and then return the batch of results, one per element: the
jet kernels build array-valued jets, and their guards go through
:func:`densitylab.jets.guard`, which raises the scalar call's exception or,
given a :class:`~densitylab.jets.BatchStatus`, records it per element.
Likewise a :class:`SurfacePoint` whose fields hold arrays is a whole sampled
path, and the angle lift and the throat period run over it in one numpy
pass; height reconstruction takes every quadrature node of its polyline as
one batch.  Each of these raises the error a walk along its samples meets
first.  Floats take ``math`` and give the same bits as one point at a time
always did; arrays take numpy, whose functions may differ in the last digit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateDelta,
    DomainViolation,
    LiftAmbiguity,
    NoRealSolution,
    ParamViolation,
    QuadratureFailure,
    Singularity,
)
from .jets import (
    BatchStatus,
    Jet,
    guard,
    jet_asinh,
    jet_cos,
    jet_cosh,
    jet_log,
    jet_sinh,
    jet_sqrt,
    masked_errstate,
    math_for,
)
from .tolerances import TOL_ALG, TOL_INTEGRAL, TOL_QUAD, TOL_SING

DOMAIN_MARGIN = 1e-6  # open domains are shrunk by this margin
TOL_SURFACE = 1e-9    # on-surface residual for sample points
MAX_PERIOD_NODES = 2 ** 15  # node cap of the throat-period refinement


# ----------------------------------------------------------------------
# density families
# ----------------------------------------------------------------------

class DensityFamily:
    """Base class for the four closed-form area-density families.

    contains and density take floats or arrays of points; a result that is
    the same at every point may stay a float.
    """

    def validate(self) -> None:
        raise NotImplementedError

    def contains(self, x: float, y: float) -> bool:
        raise NotImplementedError

    def density(self, x: float, y: float) -> float:
        """F(x, y) at a point of the domain (no guards)."""
        raise NotImplementedError

    def C_jet(self, X: Jet, Y: Jet) -> Jet:
        """C = cosh(2 mu) as a jet in the coordinate jets X, Y."""
        raise NotImplementedError

    def closed_slope(self, x: float, y: float, branch: int, psi: float
                     ) -> tuple[float, float, float] | None:
        """(cos theta, sin theta, sinh mu) where the slope system degenerates.

        x and y may be arrays.  None for the nondegenerate families, whose
        angle is lifted along the path instead.
        """
        return None


@dataclass(frozen=True)
class ConstantPlane(DensityFamily):
    """F identically equal to c > 1; solutions are a circle of planes."""

    c: float

    def validate(self) -> None:
        if not self.c > 1.0:
            raise ParamViolation(f"constant density must exceed 1, got {self.c}")

    def contains(self, x: float, y: float) -> bool:
        return True

    def density(self, x: float, y: float) -> float:
        return self.c

    def C_jet(self, X: Jet, Y: Jet) -> Jet:
        c2 = self.c * self.c
        C = (c2 + 1.0) / (c2 - 1.0)
        # a batch gets one entry per point, so that its guards act per point
        if isinstance(X.value, np.ndarray):
            C = np.full(X.value.shape, C)
        return Jet.constant(C, X.order)

    def closed_slope(self, x: float, y: float, branch: int, psi: float
                     ) -> tuple[float, float, float]:
        smu = 1.0 / math.sqrt(self.c ** 2 - 1.0)
        s = float(branch)
        return s * math.cos(psi), s * math.sin(psi), smu


@dataclass(frozen=True)
class ScherkFifth(DensityFamily):
    """F = coth x on the right half plane; the Scherk one-parameter family."""

    def validate(self) -> None:
        return None

    def contains(self, x: float, y: float) -> bool:
        return x >= DOMAIN_MARGIN

    def density(self, x: float, y: float) -> float:
        return 1.0 / math_for(x).tanh(x)

    def C_jet(self, X: Jet, Y: Jet) -> Jet:
        return jet_cosh(2.0 * X)

    def closed_slope(self, x: float, y: float, branch: int, psi: float
                     ) -> tuple[float, float, float]:
        m = math_for(x, y)
        c1 = m.cos(y + psi)
        w = m.sqrt(m.sinh(x) ** 2 + c1 * c1)
        s = float(branch)
        return (s * (-c1 * m.cosh(x) / w), s * (-m.sin(y + psi) * m.sinh(x) / w),
                m.sinh(x))


@dataclass(frozen=True)
class HeliCatenoid(DensityFamily):
    """Radial density sqrt((r^2+cos^2 phi)/(r^2-sin^2 phi)), 0 < phi < pi/2.

    Canonical scaling C = 2(x^2+y^2) + cos(2 phi).
    """

    phi: float

    def validate(self) -> None:
        if not 0.0 < self.phi < math.pi / 2.0:
            raise ParamViolation(f"phi must lie in (0, pi/2), got {self.phi}")

    def contains(self, x: float, y: float) -> bool:
        return x * x + y * y >= math.sin(self.phi) ** 2 + DOMAIN_MARGIN

    def density(self, x: float, y: float) -> float:
        r2 = x * x + y * y
        return math_for(r2).sqrt((r2 + math.cos(self.phi) ** 2)
                                 / (r2 - math.sin(self.phi) ** 2))

    def C_jet(self, X: Jet, Y: Jet) -> Jet:
        return 2.0 * (X * X + Y * Y) + math.cos(2.0 * self.phi)


@dataclass(frozen=True)
class DoublyPeriodic(DensityFamily):
    """Density built from C = a cosh x + c cos y with |a-c| < 1 < a+c."""

    a: float
    c: float

    def validate(self) -> None:
        a, c = self.a, self.c
        if not (a > 0.0 and c > 0.0 and abs(a - c) < 1.0 < a + c):
            raise ParamViolation(
                f"need a, c > 0 with |a-c| < 1 < a+c, got a={a}, c={c}")

    def contains(self, x: float, y: float) -> bool:
        m = math_for(x, y)
        return self.a * m.cosh(x) + self.c * m.cos(y) >= 1.0 + DOMAIN_MARGIN

    def density(self, x: float, y: float) -> float:
        m = math_for(x, y)
        C = self.a * m.cosh(x) + self.c * m.cos(y)
        return m.sqrt((C + 1.0) / (C - 1.0))

    def C_jet(self, X: Jet, Y: Jet) -> Jet:
        return self.a * jet_cosh(X) + self.c * jet_cos(Y)


@dataclass(frozen=True)
class SurfacePoint:
    """Point (x, y, z) of the surface z^2 = a cosh x + c cos y - 1.

    The fields may also hold equal-length arrays, as the slots of a batch
    jet do: the point is then a sampled path, one sample per entry, and a
    field that is the same for every sample may stay a float.
    """

    x: float
    y: float
    z: float


@dataclass
class LiftedAngle:
    """A sampled path together with a continuously lifted angle theta.

    theta is an array with one entry per sample.
    """

    path: list
    theta: np.ndarray = field(default_factory=lambda: np.zeros(0))
    branch_sign: int = 1

    @property
    def winding(self) -> float:
        return float(self.theta[-1] - self.theta[0])


@dataclass(frozen=True)
class FirstIntegrals:
    a1: float
    a2: float
    a3: float


# ----------------------------------------------------------------------
# densities and the mu / C change of variables
# ----------------------------------------------------------------------

def density_value(family: DensityFamily, x: float, y: float) -> float:
    """Area density F(x, y) >= 1 of the family at a point of its domain."""
    family.validate()
    guard(np.logical_not(family.contains(x, y)), DomainViolation,
          "({}, {}) outside the domain of {}", x, y, family)
    return family.density(x, y)


def family_C_jet(family: DensityFamily, x: float, y: float, order: int = 3) -> Jet:
    """Analytic jet of C = cosh(2 mu) for the family at (x, y)."""
    family.validate()
    return family.C_jet(*Jet.variables(x, y, order))


def mu_jet_from_C(C: Jet, status: BatchStatus | None = None) -> Jet:
    """Jet of mu = arccosh(C)/2; requires C > 1."""
    guard(np.logical_not(C.value > 1.0 + TOL_SING), DomainViolation,
          "need C > 1, got {}", C.value, status=status)
    with masked_errstate(status):
        return 0.5 * jet_log(C + jet_sqrt(C * C - 1.0))


def mu_jet(family: DensityFamily, x: float, y: float, order: int = 3,
           status: BatchStatus | None = None) -> Jet:
    """Analytic jet of mu for the family at an interior domain point."""
    guard(np.logical_not(family.contains(x, y)), DomainViolation,
          "({}, {}) outside the domain of {}", x, y, family, status=status)
    return mu_jet_from_C(family_C_jet(family, x, y, order), status)


# ----------------------------------------------------------------------
# the slope-angle system and its compatibility data
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CompatibilityData:
    """Coefficients of the linear relation determining cos/sin(2 theta)."""

    coef_cos: float   # mu_xx - mu_yy
    coef_sin: float   # 2 mu_xy
    rhs: float        # (mu_xx + mu_yy) cosh(2 mu)
    P: float          # discriminant Delta - rhs^2
    Delta: float      # coef_cos^2 + coef_sin^2


def compatibility_data(mu: Jet) -> CompatibilityData:
    """Evaluate the 2-theta relation coefficients and its discriminant P."""
    if mu.order < 2:
        raise ParamViolation("mu jet must carry second derivatives")
    coef_cos = mu.dxx - mu.dyy
    coef_sin = 2.0 * mu.dxy
    rhs = (mu.dxx + mu.dyy) * math_for(mu.value).cosh(2.0 * mu.value)
    delta = coef_cos * coef_cos + coef_sin * coef_sin
    return CompatibilityData(coef_cos, coef_sin, rhs, delta - rhs * rhs, delta)


def two_theta_solutions(mu: Jet, status: BatchStatus | None = None
                        ) -> tuple[tuple[float, float], tuple[float, float]]:
    """The two (cos 2theta, sin 2theta) pairs solving the slope relation.

    The "+" branch carries +sqrt(P); for the doubly periodic family it is
    exactly the upper sheet z = +sqrt(C-1) of the double cover (the rotation
    identity in :func:`abeq_fields` makes this algebraic, not empirical).
    A negative P within TOL_ALG of the larger of Delta and rhs^2 is rounding
    and counts as 0.
    """
    with masked_errstate(status):
        data = compatibility_data(mu)
    guard(data.Delta <= TOL_SING, DegenerateDelta, "Delta = {} below tolerance",
          data.Delta, status=status)
    m = math_for(data.P, data.Delta)
    P = data.P
    # past the Delta guard the floor is negative, so only P < 0 can fail it
    floor = -TOL_ALG * m.maximum(data.Delta, data.rhs ** 2)
    guard(P <= floor, NoRealSolution, "discriminant P = {} is negative", P,
          status=status)
    with masked_errstate(status):
        root = m.sqrt(m.maximum(P, 0.0))
        base_c = data.coef_cos * data.rhs / data.Delta
        base_s = data.coef_sin * data.rhs / data.Delta
        perp_c = -data.coef_sin * root / data.Delta
        perp_s = data.coef_cos * root / data.Delta
    return (base_c + perp_c, base_s + perp_s), (base_c - perp_c, base_s - perp_s)


def c_system_residual(C: Jet, status: BatchStatus | None = None
                      ) -> tuple[float, float, float, float]:
    """Residuals of the closed third-order system satisfied by C = cosh 2mu.

    All four vanish identically on the solution families; a generic cubic
    probe gives nonzero values.
    """
    if C.order < 3:
        raise ParamViolation("C jet must carry third derivatives")
    guard(abs(C.value) < TOL_SING, Singularity, "C is zero within tolerance",
          status=status)
    v = C.value
    with masked_errstate(status):
        r1 = C.dxxx - (C.dx * C.dxx - C.dx * C.dyy + C.dy * C.dxy) / v
        r2 = C.dxxy - (C.dx * C.dxy) / v
        r3 = C.dxyy - (C.dy * C.dxy) / v
        r4 = C.dyyy - (C.dy * C.dyy - C.dy * C.dxx + C.dx * C.dxy) / v
    return r1, r2, r3, r4


def first_integrals(C: Jet, status: BatchStatus | None = None) -> FirstIntegrals:
    """Three quantities constant along every solution of the C system."""
    if C.order < 2:
        raise ParamViolation("C jet must carry second derivatives")
    guard(abs(C.value) < TOL_SING, Singularity, "C is zero within tolerance",
          status=status)
    with masked_errstate(status):
        a1 = C.dxy / C.value
        a2 = (C.dxx - C.dyy) / C.value
    a3 = C.value * (C.dxx + C.dyy) - C.dx ** 2 - C.dy ** 2
    return FirstIntegrals(a1, a2, a3)


# ----------------------------------------------------------------------
# Scherk's fifth surface in closed form
# ----------------------------------------------------------------------

def scherk_closed_form(x: float, y: float, psi: float = 0.0) -> tuple[float, float]:
    """Height and slope angle of the Scherk graph sinh x sinh u = cos(y+psi).

    Returns (u, theta) with u = asinh(cos(y+psi)/sinh x) and theta the
    principal angle of sinh(x) * grad(u), i.e.

        (cos theta, sin theta) ~ (-cos(y+psi) cosh x, -sin(y+psi) sinh x),

    so that grad u = (cos theta, sin theta)/sinh x holds exactly.  This is
    the branch with tan(theta) = tanh(x) tan(y+psi); the reflected branch
    describes the equivalent graph obtained by y -> -y - 2 psi.
    """
    if not x > 0.0:
        raise DomainViolation(f"need x > 0, got {x}")
    s = math.sinh(x)
    u = math.asinh(math.cos(y + psi) / s)
    theta = math.atan2(-math.sin(y + psi) * s, -math.cos(y + psi) * math.cosh(x))
    return u, theta


def scherk_u_jet(x: float, y: float, psi: float = 0.0, order: int = 3,
                 status: BatchStatus | None = None) -> Jet:
    """Analytic jet of the Scherk height u = asinh(cos(y+psi)/sinh x)."""
    guard(np.logical_not(x > 0.0), DomainViolation, "need x > 0, got {}", x,
          status=status)
    X, Y = Jet.variables(x, y, order)
    with masked_errstate(status):
        return jet_asinh(jet_cos(Y + psi) / jet_sinh(X))


# ----------------------------------------------------------------------
# the doubly periodic family: fields on the double cover
# ----------------------------------------------------------------------

def abeq_fields(a: float, c: float, x: float, y: float
                ) -> tuple[float, float, float, float]:
    """The four plane fields (A, B, E, Q) of the doubly periodic family.

    They satisfy A cos(2th) + B sin(2th) = E together with the exact
    identity E^2 + Q^2 (C-1) = A^2 + B^2, so the rotation by (A, B) of the
    vector (E, Q z) defines (cos 2th, sin 2th) smoothly on the surface
    z^2 = C - 1.
    """
    DoublyPeriodic(a, c).validate()
    m = math_for(x, y)
    return _abeq_fields(a, c, _q_factor(a, c), x, y, m.cosh(x), m.cos(y))


def _q_factor(a: float, c: float) -> float:
    """The point-independent factor (1 - (a-c)^2)((a+c)^2 - 1) of Q^2.

    inf where (a+c)^2 exceeds every float (a + c > 1.3e154), as float
    arithmetic that overflows gives; float ** raises there instead.
    """
    try:
        return (1.0 - (a - c) ** 2) * ((a + c) ** 2 - 1.0)
    except OverflowError:
        return math.inf


def _abeq_fields(a: float, c: float, q_factor: float, x: float, y: float,
                 ch: float, co: float) -> tuple[float, float, float, float]:
    """:func:`abeq_fields` for a validated pair, given its :func:`_q_factor`
    and ch = cosh x, co = cos y at the point."""
    m = math_for(x, y)
    A = c * c + 2.0 * a * c * ch * co + a * a - 1.0
    B = 2.0 * a * c * m.sinh(x) * m.sin(y)
    E = a * (a * a - c * c - 1.0) * ch + c * (a * a - c * c + 1.0) * co
    Q = m.sqrt(q_factor * (a * ch + c * co + 1.0))
    return A, B, E, Q


def cos_sin_two_theta(a: float, c: float, p: SurfacePoint, *,
                      status: BatchStatus | None = None) -> tuple[float, float]:
    """(cos 2theta, sin 2theta) at a point of the double cover, or on a path.

    For a path (a SurfacePoint with array fields) both results are arrays
    with one entry per sample, and the guards act per sample (see
    :func:`densitylab.jets.guard`).  The pair is validated here.  cosh x
    and cos y are evaluated once and serve both the on-surface residual
    and the fields.
    """
    m = math_for(p.x, p.y)
    ch, co = m.cosh(p.x), m.cos(p.y)
    residual = p.z * p.z - (a * ch + c * co - 1.0)
    # the message spells out the dataclass repr, so that a path reports the
    # sample that failed
    guard(abs(residual) > TOL_SURFACE, DomainViolation,
          "SurfacePoint(x={}, y={}, z={}) is not on the surface (residual {:.3g})",
          p.x, p.y, p.z, residual, status=status)
    DoublyPeriodic(a, c).validate()
    with masked_errstate(status):
        A, B, E, Q = _abeq_fields(a, c, _q_factor(a, c), p.x, p.y, ch, co)
        d = A * A + B * B
    guard(d < TOL_SING, Singularity, "A^2 + B^2 vanished; fields undefined here",
          status=status)
    with masked_errstate(status):
        return (A * E - B * Q * p.z) / d, (B * E + A * Q * p.z) / d


def _wrap_pi(angle: float) -> float:
    """Wrap to (-pi, pi]; angle is a float or an array."""
    w = math_for(angle).fmod(angle + math.pi, 2.0 * math.pi)
    # adds 2 pi where w <= 0 and exactly 0.0 elsewhere
    return w + 2.0 * math.pi * (w <= 0.0) - math.pi


def _as_path(path) -> SurfacePoint:
    """A sequence of surface points as one SurfacePoint with array fields."""
    if isinstance(path, SurfacePoint):
        return path
    return SurfacePoint(*(np.array([getattr(p, f) for p in path])
                          for f in ("x", "y", "z")))


def _doubled_angle(a: float, c: float, pts: SurfacePoint
                   ) -> tuple[np.ndarray, BatchStatus]:
    """The principal doubled angle atan2(sin 2theta, cos 2theta) at each
    sample of a path of a validated pair, with the samples' guard status."""
    status = BatchStatus(np.broadcast(pts.x, pts.y, pts.z).size)
    c2, s2 = cos_sin_two_theta(a, c, pts, status=status)
    with masked_errstate(status):
        return np.arctan2(s2, c2), status


def _unwrap_doubled(ang: np.ndarray, failed: np.ndarray, exception) -> np.ndarray:
    """The doubled angle lifted continuously along the samples.

    failed marks the samples whose evaluation failed a guard, and
    exception(i) is the error of failed sample i.  The error raised is the
    one a walk along the samples meets first: at sample i, its own failure,
    then a principal step of pi/2 or more from sample i-1 (LiftAmbiguity).
    """
    with np.errstate(all="ignore"):   # failed samples may hold inf or nan
        step = _wrap_pi(np.diff(ang))
        stop = failed.copy()
        stop[1:] |= np.abs(step) >= math.pi / 2.0
    if stop.any():
        i = int(np.argmax(stop))
        if failed[i]:
            raise exception(i)
        raise LiftAmbiguity(
            f"2-theta step {step[i - 1]:.3f} >= pi/2 between samples {i-1} and {i}")
    return np.add.accumulate(np.concatenate((ang[:1], step)))


def lift_theta_along(path, a: float, c: float, seed_sign: int = 1) -> LiftedAngle:
    """Continuously lift theta along a sampled path on the double cover.

    path is a sequence of SurfacePoints or one SurfacePoint holding arrays.
    The doubled angle is unwrapped sample to sample; a principal step of
    pi/2 or more raises LiftAmbiguity instead of guessing, since the
    winding arguments need a genuine lift.  seed_sign = -1 starts on the
    other half-angle branch, flipping (cos theta, sin theta) globally.

    The whole path is one numpy pass.  Its error is the one a walk along
    the samples meets first: at sample i, a point off the surface, then
    vanishing fields, then the step from sample i-1 to i.
    """
    if seed_sign not in (1, -1):
        raise ParamViolation("seed_sign must be +1 or -1")
    pts = _as_path(path)
    if np.broadcast(pts.x, pts.y, pts.z).size < 2:
        raise ParamViolation("path needs at least two samples")
    DoublyPeriodic(a, c).validate()
    ang, status = _doubled_angle(a, c, pts)
    lifted2 = _unwrap_doubled(ang, status.failed, status.exception)
    offset = 0.0 if seed_sign == 1 else math.pi
    return LiftedAngle(path=path if pts is path else list(path),
                       theta=0.5 * lifted2 + offset, branch_sign=seed_sign)


def _loop_rho(k, n: int):
    """The chart values rho_k = 2 pi k / n of the section loop's nodes k.

    Node k of n nodes is node 2k of 2n bit for bit: doubling k and n
    doubles the rounded product 2 pi k and leaves the quotient alone.
    """
    return 2.0 * math.pi * k / n


class _Level(NamedTuple):
    """The n+1 nodes of one level of a :class:`_ThroatLoop`."""
    n: int
    ang: np.ndarray        # principal doubled angle at each node
    den: np.ndarray        # denominator of each node's quadrature weight
    failed: np.ndarray     # nodes whose evaluation failed a guard
    errors: dict           # failed node -> its error

    def every(self, s: int) -> "_Level":
        """The level of n/s nodes that takes every s-th node of this one."""
        return _Level(self.n // s, self.ang[::s], self.den[::s], self.failed[::s],
                      {k // s: e for k, e in self.errors.items() if k % s == 0})

    def lifted2(self) -> np.ndarray:
        """The doubled angle lifted along the nodes (:func:`_unwrap_doubled`)."""
        return _unwrap_doubled(self.ang, self.failed, self.errors.__getitem__)


class _ThroatLoop:
    """The x = x_section section loop of one pair, shared by its periods.

    Level n is the n+1 chart nodes rho_k = 2 pi k / n, k = 0..n, of
    :func:`sigma_loop`.  Since node k of level n is node 2k of level 2n
    (:func:`_loop_rho`), levels whose node counts differ by a power of two
    share their nodes.  The loop keeps, per odd part of n, the finest level
    evaluated so far; a coarser level is a stride through it, and a finer
    one evaluates only its new nodes.  So each node's doubled angle and
    quadrature weight are evaluated once, whatever the order of the levels
    asked for.  The periods evaluate the finest level they read first, so
    the nodes come in one numpy pass, and each level is unwrapped once.
    """

    def __init__(self, a: float, c: float, x_section: float = 0.0):
        DoublyPeriodic(a, c).validate()
        ap = a * math.cosh(x_section)
        if not ap - c < 1.0:
            raise ParamViolation(
                f"x = {x_section} section has no fold: a cosh(x0) - c = {ap - c} >= 1")
        self.a, self.c, self.x_section, self.ap = a, c, x_section, ap
        self.zmax = math.sqrt(ap + c - 1.0)
        self.half = math.sqrt((ap + c - 1.0) / (2.0 * c))
        self._levels: dict[int, _Level] = {}   # odd part of n -> finest level
        self._lifts: dict[int, np.ndarray] = {}   # n -> level n's lifted2()

    def chart(self, rho: np.ndarray) -> tuple[SurfacePoint, np.ndarray]:
        """The loop's points at the chart values rho, and cos rho."""
        cos_rho = np.cos(rho)
        y = 2.0 * np.arcsin(np.clip(self.half * np.sin(rho), -1.0, 1.0))
        return SurfacePoint(self.x_section, y, self.zmax * cos_rho), cos_rho

    def level(self, n: int) -> _Level:
        """Level n, evaluating only the nodes that no level kept holds."""
        odd = n
        while odd % 2 == 0:
            odd //= 2
        have = self._levels.get(odd)
        if have and have.n >= n:
            return have.every(have.n // n)
        if have:   # node k is have's node k/s where s divides k, else new
            s = n // have.n
            new = np.arange(n).reshape(-1, s)[:, 1:].ravel()
        else:
            new = np.arange(n + 1)
        pts, cos_rho = self.chart(_loop_rho(new, n))
        a, c, ap = self.a, self.c, self.ap
        ang, status = _doubled_angle(a, c, pts)
        den = np.sqrt(c + 1.0 - ap + (ap + c - 1.0) * cos_rho ** 2)
        errors = {int(new[i]): status.exception(i) for i in np.flatnonzero(status.failed)}
        if have:
            level = _Level(n, np.empty(n + 1), np.empty(n + 1),
                           np.empty(n + 1, dtype=bool), errors)
            for full, kept, part in zip(level[1:4], have[1:4], (ang, den, status.failed)):
                full[::s] = kept
                full[:n].reshape(-1, s)[:, 1:] = part.reshape(-1, s - 1)
            errors.update((j * s, e) for j, e in have.errors.items())
        else:
            level = _Level(n, ang, den, status.failed, errors)
        self._levels[odd] = level
        return level

    def period(self, seed_sign: int, tol: float, samples: int) -> float:
        """:func:`period_sigma` on this loop; seed_sign and samples are
        taken as checked."""
        offset = 0.0 if seed_sign == 1 else math.pi
        n, prev = samples, None
        while n <= MAX_PERIOD_NODES:
            if prev is None and 2 * n <= MAX_PERIOD_NODES:
                self.level(2 * n)   # T_n is compared with T_2n: one pass for both
            level = self.level(n)
            lifted2 = self._lifts.get(n)
            if lifted2 is None:
                try:
                    lifted2 = self._lifts[n] = level.lifted2()
                except LiftAmbiguity:
                    n, prev = 2 * n, None
                    continue
            theta = 0.5 * lifted2 + offset
            residue = 2.0 * (theta[-1] - theta[0])
            if abs(residue) > 1e-9:
                raise LiftAmbiguity(
                    f"angle lift failed to close around the section loop "
                    f"(winding residue {residue:.3g})")
            total = float(np.sum(np.sin(theta[:n]) / level.den[:n]))
            value = 2.0 * math.sqrt(2.0) * 2.0 * math.pi * total / n
            if prev is not None and abs(value - prev) < tol:
                return value
            n, prev = 2 * n, value
        raise QuadratureFailure(
            f"throat period not within {tol:g} at {MAX_PERIOD_NODES} nodes")

    def periods(self, tol: float, *requests: tuple[int, int]) -> list[float]:
        """period(seed_sign, tol, samples) for each (seed_sign, samples)
        request, in order, after one pass over the finest level they read."""
        reads = [2 * s for _, s in requests if 2 * s <= MAX_PERIOD_NODES]
        if reads:
            self.level(max(reads))
        return [self.period(sign, tol, samples) for sign, samples in requests]


def _require_count(name: str, n) -> None:
    """ParamViolation unless the count n is an integer >= 1."""
    if not isinstance(n, (int, np.integer)):
        raise ParamViolation(f"{name} must be an integer, got {n!r}")
    if n < 1:
        raise ParamViolation(f"{name} must be positive, got {n}")


def sigma_loop(a: float, c: float, n: int, x_section: float = 0.0
               ) -> SurfacePoint:
    """Closed x = x_section section of the surface, sampled at n+1 points.

    The samples come as one SurfacePoint whose y and z are arrays.

    Parametrized by rho in [0, 2 pi]: cos y = g(rho) with
    g = (1 - a')/c + (a' + c - 1) cos^2(rho)/c, a' = a cosh(x_section), and
    z = sqrt(a' + c - 1) cos(rho).  This chart is smooth through the folds.
    y is taken from 1 - g = (a' + c - 1) sin^2(rho)/c as
    2 asin(sqrt((a' + c - 1)/(2c)) sin(rho)), which stays at rounding
    level at the closure points rho = 0, 2 pi; acos(g) loses half the
    digits there (|y| ~ 1e-8) and the loop fails to close.
    """
    _require_count("n", n)
    return _ThroatLoop(a, c, x_section).chart(_loop_rho(np.arange(n + 1), n))[0]


def require_rectangle(a: float, R: float) -> None:
    """ParamViolation unless R > 0 and a cosh(R), the largest a cosh(x) on
    the rectangle |x| <= R, is a finite float."""
    if R <= 0.0:
        raise ParamViolation(f"rectangle half-width {R} must be positive")
    try:
        top = a * math.cosh(R)
    except OverflowError:
        top = math.inf
    if not math.isfinite(top):
        raise ParamViolation(
            f"rectangle half-width {R} gives a cosh(R) = {top} at a = {a}; "
            "it must be finite")


def gamma_rectangle(a: float, c: float, R: float, n_per_edge: int = 1200
                    ) -> SurfacePoint:
    """Counterclockwise boundary of [-R, R] x [0, 2 pi] on the upper sheet.

    The 4 n_per_edge + 1 samples come as one SurfacePoint of arrays.
    """
    _require_count("n_per_edge", n_per_edge)
    DoublyPeriodic(a, c).validate()
    require_rectangle(a, R)
    if not math.isfinite(a * math.cosh(R) + c):
        raise ParamViolation(
            f"rectangle half-width {R} gives C up to a cosh(R) + c = inf "
            f"at a = {a}, c = {c}; it must be finite")
    n = n_per_edge
    k = np.arange(n + 1)
    edge = np.ones(n)
    x = np.concatenate((-R + 2.0 * R * k / n, R * edge, R - 2.0 * R * k[1:] / n,
                        -R * edge))
    y = np.concatenate((np.zeros(n + 1), 2.0 * math.pi * k[1:] / n,
                        2.0 * math.pi * edge, 2.0 * math.pi * (1.0 - k[1:] / n)))
    w = a * np.cosh(x) + c * np.cos(y) - 1.0
    guard(w < 0.0, DomainViolation, "rectangle point ({}, {}) has C - 1 = {} < 0",
          x, y, w)
    return SurfacePoint(x, y, np.sqrt(w))


def period_sigma(a: float, c: float, seed_sign: int = 1,
                 tol: float = TOL_QUAD, samples: int = 64,
                 x_section: float = 0.0) -> float:
    """Period of the height differential around the x = x_section loop.

    On the loop dx = 0 and, in the smooth chart of :func:`sigma_loop`,
    (dy/d rho)/z = 2/sqrt(c + 1 - a' + (a' + c - 1) cos^2 rho) with signed
    z, so the integrand 2 sqrt(2) sin(theta(rho)) / sqrt(...) is smooth and
    2 pi-periodic, and the fold crossings are invisible.  theta is the
    continuous lift along the loop samples, seeded with the principal
    half-angle at rho = 0 (flip with seed_sign), and the periodic trapezoid
    rule runs on the same N nodes, so it converges geometrically.  N starts
    at samples and doubles until |T_N - T_2N| < tol; a lift that is
    ambiguous on a coarse grid is refined the same way.

    The nodes are nested: node k of N is node 2k of 2N bit for bit
    (Trefethen and Weideman, SIAM Rev. 56 (2014)), so level 2N is evaluated
    first, in one pass, and level N is a stride through it.  The loop of
    :class:`_ThroatLoop` keeps the nodes and each level's lift; several
    periods of one pair asked of one loop (the families period checks ask
    three) evaluate the finest level they read in one pass and share the
    rest.
    """
    if seed_sign not in (1, -1):
        raise ParamViolation("seed_sign must be +1 or -1")
    _require_count("samples", samples)
    return _ThroatLoop(a, c, x_section).period(seed_sign, tol, samples)


# ----------------------------------------------------------------------
# reconstruction of u by path integration
# ----------------------------------------------------------------------

def reconstruct_u(path: list[tuple[float, float]], family: DensityFamily,
                  branch: int = 1, psi: float = 0.0,
                  panels: int = 2) -> list[float]:
    """Integrate du = (cos th dx + sin th dy)/sinh mu along a polyline.

    Returns the height u at every path vertex with u[0] = 0, each edge
    integrated by Simpson's rule on 2 panels + 1 nodes.  The branch
    selects which of the two slope-angle solutions is followed (for the
    degenerate constant and Scherk families it selects u versus -u); psi
    is the family phase for those degenerate families.

    The nodes of all edges are one batch, taken edge by edge in walk order,
    and the branch's doubled angle is lifted along them by
    :func:`_unwrap_doubled`.  The error raised is the one a walk along the
    path meets first: a vertex that is not finite or lies outside the
    domain, then (branch and family valid) one so far out that its
    C = cosh(2 mu) overflows, then at node i, C <= 1, a degenerate or
    negative discriminant, then a step of pi/2 or more from node i-1
    (LiftAmbiguity).
    """
    if len(path) < 2:
        raise ParamViolation("path needs at least two vertices")
    _require_count("panels", panels)
    vx, vy = np.array(path, dtype=float).T
    with np.errstate(invalid="ignore", over="ignore"):   # such vertices are refused
        outside = ~(np.isfinite(vx) & np.isfinite(vy) & family.contains(vx, vy))
        if not outside.any():
            if branch not in (1, -1):
                raise ParamViolation("branch must be +1 or -1")
            family.validate()
            outside = ~np.isfinite(family.C_jet(*Jet.variables(vx, vy, 0)).value)
    if outside.any():
        x, y = path[int(np.argmax(outside))]
        raise DomainViolation(f"path vertex ({x}, {y}) outside the domain")
    n = 2 * panels
    dx, dy = np.diff(vx)[:, None], np.diff(vy)[:, None]
    t = np.arange(n + 1) / n
    x, y = vx[:-1, None] + t * dx, vy[:-1, None] + t * dy
    slope = family.closed_slope(x, y, branch, psi)
    if slope is None:
        status = BatchStatus(x.size)
        C = family_C_jet(family, x.ravel(), y.ravel(), order=2)
        plus, minus = two_theta_solutions(mu_jet_from_C(C, status), status)
        c2, s2 = plus if branch == 1 else minus
        with masked_errstate(status):
            ang = np.arctan2(s2, c2)
        theta = 0.5 * _unwrap_doubled(ang, status.failed, status.exception)
        smu = np.sqrt(0.5 * (C.value - 1.0))
        slope = [v.reshape(x.shape) for v in (np.cos(theta), np.sin(theta), smu)]
    ct, st, smu = slope
    weights = np.where(np.arange(n + 1) % 2, 4.0, 2.0)
    weights[[0, -1]] = 1.0
    vals = np.broadcast_to((ct * dx + st * dy) / smu, x.shape)
    return [0.0, *np.cumsum(vals @ weights / (3.0 * n)).tolist()]


def minimal_residual(u: Jet) -> float:
    """Normalized minimal surface equation residual of a height jet.

        [(1+u_y^2) u_xx - 2 u_x u_y u_xy + (1+u_x^2) u_yy]
            / (1 + u_x^2 + u_y^2)^(3/2)

    Zero exactly on minimal graphs.
    """
    if u.order < 2:
        raise ParamViolation("u jet must carry second derivatives")
    num = ((1.0 + u.dy ** 2) * u.dxx - 2.0 * u.dx * u.dy * u.dxy
           + (1.0 + u.dx ** 2) * u.dyy)
    return num / (1.0 + u.dx ** 2 + u.dy ** 2) ** 1.5
