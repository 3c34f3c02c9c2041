"""The families kernels on batches, element by element against scalar calls.

Each batch runs once with a BatchStatus; every element must then agree with
the scalar call at that point within 1e-12 (relative to the value where it
exceeds 1), or fail with the exception class that the scalar call raises.
The angle lift and the height reconstruction are checked against the
point-by-point loops they replaced, which are kept here verbatim as the
reference.

numpy's elementary functions may differ from math's in the last digit, and
near a domain edge the jets amplify that difference: as C -> 1 (x -> 0 for
Scherk's family) mu = arccosh(C)/2 and the Scherk height cancel terms of
order (C - 1)^-k.  There the two paths differ by more than 1e-12 (1e-7
relative at C - 1 = 1e-4), and so does either from the exact jet, so such
points say nothing about the batch path.  The points inside the domain keep
x >= 0.1 for the Scherk height and C - 1 >= 0.1 for mu; the points outside
it, where the guards act, are not restricted.
"""

import math
import random
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from densitylab import minimal_graphs as mg
from densitylab.errors import (
    DegenerateDelta,
    DensityLabError,
    DomainViolation,
    LiftAmbiguity,
    NoRealSolution,
    ParamViolation,
    Singularity,
)
from densitylab.jets import BatchStatus, Jet

SLOTS = ("value", "dx", "dy", "dxx", "dxy", "dyy", "dxxx", "dxxy", "dxyy", "dyyy")
N = 2000
FAMILIES = (mg.ScherkFifth(), mg.HeliCatenoid(0.9), mg.DoublyPeriodic(0.8, 0.5),
            mg.ConstantPlane(2.0))


def flat(result) -> list:
    """The numbers of a jet, a dataclass or nested tuples, in a fixed order."""
    if isinstance(result, Jet):
        return [getattr(result, s) for s in SLOTS]
    if is_dataclass(result):
        return [getattr(result, f.name) for f in fields(result)]
    if isinstance(result, tuple):
        return [v for part in result for v in flat(part)]
    return [result]


def outcome(call):
    try:
        return call()
    except DensityLabError as exc:
        return type(exc)


def assert_batch_matches(batch_call, scalar_calls) -> list:
    """batch_call(status) against each element's scalar call; returns the
    outcome classes seen (None for a result)."""
    status = BatchStatus(len(scalar_calls))
    got = [np.broadcast_to(v, (len(scalar_calls),)) for v in flat(batch_call(status))]
    seen = []
    for i, call in enumerate(scalar_calls):
        want = outcome(call)
        if isinstance(want, type):
            assert status.errors[i] is want, (i, want, status.errors[i])
            seen.append(want)
            continue
        assert status.errors[i] is None, (i, status.errors[i])
        seen.append(None)
        for g, w in zip(got, flat(want), strict=True):
            assert abs(g[i] - w) <= 1e-12 * max(1.0, abs(w)), (i, g[i], w)
    return seen


def family_points(rng, n, family=None):
    """n points over [-2, 2.5] x [-3, 3], in and out of every domain; given
    a family, the points inside its domain keep C - 1 >= 0.1."""
    xs, ys = [], []
    while len(xs) < n:
        x, y = rng.uniform(-2.0, 2.5), rng.uniform(-3.0, 3.0)
        if family is None or not family.contains(x, y) \
                or mg.family_C_jet(family, x, y).value - 1.0 >= 0.1:
            xs.append(x)
            ys.append(y)
    return xs, ys


def random_jets(rng, n, values, order=3):
    """n jets with the given values and partials uniform in [-1, 1]."""
    rows = [[v] + [rng.uniform(-1.0, 1.0) for _ in range(9)] for v in values]
    return [Jet(*r, order=order) for r in rows], Jet(*np.array(rows).T, order=order)


# ----------------------------------------------------------------------
# jet kernels
# ----------------------------------------------------------------------

def test_scherk_u_jet_batch_matches_scalar():
    rng = random.Random(71)
    # x <= 0 is outside the domain
    xs = [rng.choice((rng.uniform(-1.0, 0.0), rng.uniform(0.1, 3.0)))
          for _ in range(N)]
    xs[::97] = [0.0] * len(xs[::97])
    ys = [rng.uniform(-4.0, 4.0) for _ in range(N)]
    psis = [rng.uniform(0.0, 3.0) for _ in range(N)]
    seen = assert_batch_matches(
        lambda st: mg.scherk_u_jet(np.array(xs), np.array(ys), np.array(psis),
                                   status=st),
        [lambda x=x, y=y, p=p: mg.scherk_u_jet(x, y, p)
         for x, y, p in zip(xs, ys, psis)])
    assert set(seen) == {None, DomainViolation}


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: type(f).__name__)
def test_family_C_jet_and_mu_jet_batch_match_scalar(family):
    xs, ys = family_points(random.Random(72), N)
    X, Y = np.array(xs), np.array(ys)
    assert_batch_matches(lambda st: mg.family_C_jet(family, X, Y),
                         [lambda x=x, y=y: mg.family_C_jet(family, x, y)
                          for x, y in zip(xs, ys)])
    xs, ys = family_points(random.Random(72), N, family)
    X, Y = np.array(xs), np.array(ys)
    seen = assert_batch_matches(
        lambda st: mg.mu_jet(family, X, Y, status=st),
        [lambda x=x, y=y: mg.mu_jet(family, x, y) for x, y in zip(xs, ys)])
    expected = {None} if isinstance(family, mg.ConstantPlane) \
        else {None, DomainViolation}
    assert set(seen) == expected


def C_jets(rng):
    """Random C jets; one in ten has value 0 and one in twenty 5e-13."""
    values = [rng.uniform(-3.0, 3.0) for _ in range(N)]
    values[::10] = [0.0] * len(values[::10])
    values[5::20] = [5e-13] * len(values[5::20])
    return random_jets(rng, N, values)


def test_first_integrals_batch_matches_scalar():
    scalars, batch = C_jets(random.Random(73))
    seen = assert_batch_matches(lambda st: mg.first_integrals(batch, st),
                                [lambda j=j: mg.first_integrals(j) for j in scalars])
    assert set(seen) == {None, Singularity}


def test_c_system_residual_batch_matches_scalar():
    scalars, batch = C_jets(random.Random(74))
    seen = assert_batch_matches(lambda st: mg.c_system_residual(batch, st),
                                [lambda j=j: mg.c_system_residual(j) for j in scalars])
    assert set(seen) == {None, Singularity}


def mu_jets(rng):
    """Order-2 mu jets: random ones (P of either sign), degenerate ones with
    Delta = 0, and ones with P = -1e-11 Delta, which the clamp sets to 0.

    (P at rounding level is avoided: there sqrt(P), and so each branch, is
    only known to about 1e-8 on either path.)
    """
    rows = []
    for k in range(N):
        mu0 = rng.uniform(0.05, 1.5)
        dx, dy, dxx, dxy, dyy = (rng.uniform(-1.0, 1.0) for _ in range(5))
        if k % 5 == 1:      # dxx = dyy and dxy = 0 give Delta = 0
            dxy, dyy = 0.0, dxx
        elif k % 5 == 2:    # dxy = 0 and (dxx - dyy)^2 = (1 - 1e-11) rhs^2
            s = dxx
            t = s * math.cosh(2.0 * mu0) * math.sqrt(1.0 - 1e-11)
            dxx, dxy, dyy = (s + t) / 2.0, 0.0, (s - t) / 2.0
        rows.append([mu0, dx, dy, dxx, dxy, dyy])
    scalars = [Jet(*r, order=2) for r in rows]
    return scalars, Jet(*np.array(rows).T, order=2)


def test_compatibility_data_batch_matches_scalar():
    scalars, batch = mu_jets(random.Random(75))
    assert_batch_matches(lambda st: mg.compatibility_data(batch),
                         [lambda j=j: mg.compatibility_data(j) for j in scalars])


def test_two_theta_solutions_batch_matches_scalar():
    scalars, batch = mu_jets(random.Random(76))
    seen = assert_batch_matches(lambda st: mg.two_theta_solutions(batch, st),
                                [lambda j=j: mg.two_theta_solutions(j) for j in scalars])
    assert set(seen) == {None, DegenerateDelta, NoRealSolution}
    # P < 0 within the clamp
    clamped = [mg.compatibility_data(j) for j in scalars[2::5]]
    assert all(-1e-9 * d.Delta < d.P < 0.0 for d in clamped)


def test_batch_without_status_raises_the_first_elements_message():
    with pytest.raises(DomainViolation, match=r"^need x > 0, got -0\.2$"):
        mg.scherk_u_jet(np.array([0.5, -0.2, -0.3]), np.zeros(3))
    # a broadcast grid (families verify's psi x x x y) counts in C order
    with pytest.raises(DomainViolation, match=r"^need x > 0, got -0\.2$"):
        mg.scherk_u_jet(np.array([0.5, -0.2, -0.3]).reshape(1, 3, 1),
                        np.zeros((1, 1, 2)), np.zeros((2, 1, 1)))
    with pytest.raises(DomainViolation,
                       match=r"^\(0\.1, 0\.2\) outside the domain of HeliCatenoid"):
        mg.mu_jet(mg.HeliCatenoid(0.9), np.array([1.0, 0.1]), np.array([0.0, 0.2]))


# ----------------------------------------------------------------------
# the angle lift against the point-by-point loop
# ----------------------------------------------------------------------

def _wrap_pi(angle: float) -> float:
    """Wrap to (-pi, pi]."""
    w = math.fmod(angle + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi


def reference_lift(path, a, c, seed_sign=1):
    """The loop that lift_theta_along ran one sample at a time, verbatim."""
    if seed_sign not in (1, -1):
        raise ParamViolation("seed_sign must be +1 or -1")
    if len(path) < 2:
        raise ParamViolation("path needs at least two samples")
    mg.DoublyPeriodic(a, c).validate()
    lifted2 = []
    for i, pt in enumerate(path):
        c2, s2 = mg.cos_sin_two_theta(a, c, pt)
        ang = math.atan2(s2, c2)
        if i == 0:
            lifted2.append(ang)
            continue
        step = _wrap_pi(ang - lifted2[-1])
        if abs(step) >= math.pi / 2.0:
            raise LiftAmbiguity(
                f"2-theta step {step:.3f} >= pi/2 between samples {i-1} and {i}")
        lifted2.append(lifted2[-1] + step)
    offset = 0.0 if seed_sign == 1 else math.pi
    theta = [0.5 * t2 + offset for t2 in lifted2]
    return mg.LiftedAngle(path=list(path), theta=theta, branch_sign=seed_sign)


def points(path: mg.SurfacePoint) -> list:
    """A path of arrays as a list of float SurfacePoints."""
    return [mg.SurfacePoint(float(x), float(y), float(z))
            for x, y, z in zip(*np.broadcast_arrays(path.x, path.y, path.z))]


@pytest.mark.parametrize("a,c", [(1.0, 1.0), (0.8, 0.5), (0.9, 0.6)])
@pytest.mark.parametrize("seed_sign", [1, -1])
def test_lift_matches_the_reference_loop(a, c, seed_sign):
    for path in (mg.gamma_rectangle(a, c, 8.0), mg.sigma_loop(a, c, 2000)):
        got = mg.lift_theta_along(path, a, c, seed_sign).theta
        want = reference_lift(points(path), a, c, seed_sign).theta
        assert len(got) == len(want)
        assert np.max(np.abs(got - np.array(want))) < 1e-12


def _raised(call):
    with pytest.raises(DensityLabError) as info:
        call()
    return type(info.value), str(info.value)


OFF_SURFACE = mg.SurfacePoint(0.0, 0.0, 5.0)


@pytest.mark.parametrize("where", ["before", "at", "after"])
def test_lift_raises_the_first_error_along_the_path(where):
    # the 6-sample loop has an ambiguous step; put an off-surface point
    # before the end of that step, at it, or after it
    a, c = 1.0, 1.0
    path = points(mg.sigma_loop(a, c, 6))
    with pytest.raises(LiftAmbiguity) as info:
        reference_lift(path, a, c)
    end = int(str(info.value).rsplit(" ", 1)[1])
    k = {"before": end - 1, "at": end, "after": end + 1}[where]
    path[k] = OFF_SURFACE
    want = _raised(lambda: reference_lift(path, a, c))
    assert want[0] is (LiftAmbiguity if where == "after" else DomainViolation)
    assert _raised(lambda: mg.lift_theta_along(path, a, c)) == want


def test_lift_errors_before_the_samples_match_the_reference():
    a, c = 1.0, 1.0
    for path, seed in (([], 1), ([mg.SurfacePoint(0.0, 0.0, 1.0)], 1),
                       (points(mg.sigma_loop(a, c, 8)), 2)):
        want = _raised(lambda: reference_lift(path, a, c, seed))
        assert _raised(lambda: mg.lift_theta_along(path, a, c, seed)) == want
    path = points(mg.sigma_loop(a, c, 8))
    want = _raised(lambda: reference_lift(path, 1.5, 0.2))
    assert want[0] is ParamViolation
    assert _raised(lambda: mg.lift_theta_along(path, 1.5, 0.2)) == want


def test_cos_sin_two_theta_on_a_path_matches_each_point():
    a, c = 0.8, 0.5
    path = mg.gamma_rectangle(a, c, 3.0, 50)
    c2, s2 = mg.cos_sin_two_theta(a, c, path)
    for i, pt in enumerate(points(path)):
        want = mg.cos_sin_two_theta(a, c, pt)
        assert abs(c2[i] - want[0]) < 1e-12 and abs(s2[i] - want[1]) < 1e-12


def test_gamma_rectangle_refuses_a_boundary_off_the_surface():
    # at half-width 0.1 the rectangle's side x = R crosses C < 1
    with pytest.raises(DomainViolation, match="rectangle point"):
        mg.gamma_rectangle(0.8, 0.5, 0.1)


# ----------------------------------------------------------------------
# height reconstruction against the point-by-point tracker
# ----------------------------------------------------------------------

class ReferenceTracker:
    """The tracker that reconstruct_u ran one node at a time, verbatim."""

    def __init__(self, family, branch, psi):
        if branch not in (1, -1):
            raise ParamViolation("branch must be +1 or -1")
        family.validate()
        self.family = family
        self.branch = branch
        self.psi = psi
        self._prev2 = None
        self._half_offset = None

    def __call__(self, x, y):
        closed = self.family.closed_slope(x, y, self.branch, self.psi)
        if closed is not None:
            return closed
        # nondegenerate families: track the doubled angle of the chosen branch
        C = mg.family_C_jet(self.family, x, y, order=2)
        mu = mg.mu_jet_from_C(C)
        plus, minus = mg.two_theta_solutions(mu)
        c2, s2 = plus if self.branch == 1 else minus
        ang = math.atan2(s2, c2)
        if self._prev2 is None:
            self._prev2 = ang
            self._half_offset = 0.0
        else:
            step = _wrap_pi(ang - self._prev2)
            if abs(step) >= math.pi / 2.0:
                raise LiftAmbiguity("branch angle stepped >= pi/2; refine path")
            self._prev2 += step
        theta = 0.5 * self._prev2 + self._half_offset
        smu = math.sqrt(0.5 * (C.value - 1.0))
        return math.cos(theta), math.sin(theta), smu


def reference_reconstruct(path, family, branch=1, psi=0.0, panels=2):
    """The Simpson loop of reconstruct_u over ReferenceTracker, verbatim."""
    if len(path) < 2:
        raise ParamViolation("path needs at least two vertices")
    for (x, y) in path:
        if not family.contains(x, y):
            raise DomainViolation(f"path vertex ({x}, {y}) outside the domain")
    tracker = ReferenceTracker(family, branch, psi)
    n = 2 * panels
    us = [0.0]
    total = 0.0
    for (x0, y0), (x1, y1) in zip(path[:-1], path[1:]):
        dx, dy = x1 - x0, y1 - y0
        vals = []
        for k in range(n + 1):
            t = k / n
            ct, st, smu = tracker(x0 + t * dx, y0 + t * dy)
            vals.append((ct * dx + st * dy) / smu)
        acc = vals[0] + vals[-1]
        for k in range(1, n):
            acc += vals[k] * (4.0 if k % 2 else 2.0)
        total += acc / (3.0 * n)
        us.append(total)
    return us


def random_path(rng) -> list:
    """A random walk of 1 to 5 steps from a point of [-2, 2.5] x [-3, 3],
    or a coarse polygon round a hole where C <= 1: the heli-catenoid's at
    the origin or the doubly periodic family's at (0, pi)."""
    if rng.random() < 0.5:
        cy, r = rng.choice((0.0, math.pi)), rng.uniform(0.5, 3.0)
        k, start = rng.randint(3, 7), rng.uniform(0.0, 2.0 * math.pi)
        return [(r * math.cos(start + 2.0 * math.pi * j / k),
                 cy + r * math.sin(start + 2.0 * math.pi * j / k)) for j in range(k + 1)]
    x, y = rng.uniform(-2.0, 2.5), rng.uniform(-3.0, 3.0)
    path = [(x, y)]
    for _ in range(rng.randint(1, 5)):
        r, turn = rng.choice((0.2, 0.6, 2.0)) * rng.random(), rng.uniform(0.0, 2.0 * math.pi)
        x, y = x + r * math.cos(turn), y + r * math.sin(turn)
        path.append((x, y))
    return path


def reconstruct_outcome(call):
    """The heights, or the error's class and whether a vertex or a node
    raised it."""
    try:
        return call()
    except DensityLabError as exc:
        return type(exc), "vertex" if "path vertex" in str(exc) else "node"


def test_reconstruct_matches_the_reference_loop():
    # 1e-13 absolute is fixed in advance: numpy and math differ in the last
    # digit of each node, and the heights of these paths stay below 14
    rng = random.Random(81)
    seen = {type(f).__name__: set() for f in FAMILIES}
    for _ in range(250):
        for family in FAMILIES:
            path = random_path(rng)
            args = (family, rng.choice((1, -1)), rng.uniform(0.0, 2.0 * math.pi),
                    rng.randint(1, 6))
            want = reconstruct_outcome(lambda: reference_reconstruct(path, *args))
            got = reconstruct_outcome(lambda: mg.reconstruct_u(path, *args))
            if isinstance(want, tuple):
                assert got == want, (path, args)
                seen[type(family).__name__].add(want)
                continue
            assert type(got) is list and all(type(u) is float for u in got)
            assert got[0] == 0.0 and len(got) == len(want)
            assert max(abs(g - w) for g, w in zip(got, want)) < 1e-13, (path, args)
            seen[type(family).__name__].add(None)
    holes = {None, (DomainViolation, "vertex"), (DomainViolation, "node"),
             (LiftAmbiguity, "node")}
    assert seen == {"ScherkFifth": {None, (DomainViolation, "vertex")},
                    "HeliCatenoid": holes, "DoublyPeriodic": holes,
                    "ConstantPlane": {None}}
