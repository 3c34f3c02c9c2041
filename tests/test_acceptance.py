"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one line per criterion.
Criteria 3 and 4 include the parameter pair (1.5, 0.2), which lies outside
the admissibility strip |a - c| < 1 < a + c of the doubly periodic family.
There no slope angle exists to lift or integrate, and the library promises
to refuse rather than fabricate a winding number or a period.  At that pair
the two criteria certify the refusal: every entry point they use raises
ParamViolation naming the strip, and, independently of the library's guard,
the discriminant P of the slope relation is negative at every grid point
with C > 1, where two_theta_solutions raises NoRealSolution.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from densitylab import calabi as cb
from densitylab import cli
from densitylab import harmonic as ha
from densitylab import minimal_graphs as mg
from densitylab import sphere_maps as sm
from densitylab.errors import DensityLabError, NoRealSolution, ParamViolation
from densitylab.jets import Jet, jet_cos, jet_cosh
from sphere_map_oracles import dense, gram_of_components, h_of_G


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion:>2} [{'PASS' if ok else 'FAIL'}] {detail}"
    print(line)
    assert ok, line


# ----------------------------------------------------------------------
# 1. Scherk family: closed-form heights are minimal with density coth x
# ----------------------------------------------------------------------

def test_criterion_01_scherk_grid():
    t0 = time.perf_counter()
    # the 5 x 50 x 50 grid of (psi, x, y) as one batch of jets
    psi, x, y = (g.ravel() for g in np.meshgrid(
        [0.0, 0.7, 1.4, 2.1, 2.8], 0.5 + 2.5 * np.arange(50) / 49,
        2.0 * math.pi * np.arange(50) / 49, indexing="ij"))
    uj = mg.scherk_u_jet(x, y, psi, order=2)
    coth2 = 1.0 / np.tanh(x) ** 2
    worst_res = float(np.max(np.abs(mg.minimal_residual(uj))))
    worst_den = float(np.max(np.abs(1.0 + uj.dx ** 2 + uj.dy ** 2 - coth2)))
    elapsed = time.perf_counter() - t0
    report(1, worst_res < 1e-9 and worst_den < 1e-10 and elapsed < 5.0,
           f"scherk 50x50x5: residual {worst_res:.2e}, density {worst_den:.2e}, "
           f"{elapsed:.2f}s")


# ----------------------------------------------------------------------
# 2. first integrals of the closure system
# ----------------------------------------------------------------------

def test_criterion_02_first_integrals():
    t0 = time.perf_counter()
    phi = 0.9
    cases = [
        (mg.HeliCatenoid(phi), (0.0, 0.0, 8.0 * math.cos(2 * phi))),
        (mg.DoublyPeriodic(0.8, 0.5), (0.0, 1.0, 0.8 ** 2 - 0.5 ** 2)),
    ]
    worst_spread = worst_sys = worst_val = 0.0
    # the 20 x 20 grid as one batch of jets, masked to the domain
    x, y = (g.ravel() for g in np.meshgrid(0.6 + 0.07 * np.arange(20),
                                           -0.9 + 0.09 * np.arange(20),
                                           indexing="ij"))
    for fam, expected in cases:
        inside = fam.contains(x, y)
        C = mg.family_C_jet(fam, x[inside], y[inside])
        fi = mg.first_integrals(C)
        vals = [np.broadcast_to(v, C.value.shape) for v in (fi.a1, fi.a2, fi.a3)]
        worst_sys = max(worst_sys, *(float(np.max(np.abs(v)))
                                     for v in mg.c_system_residual(C)))
        worst_spread = max(worst_spread, *(float(np.ptp(v)) for v in vals))
        worst_val = max(worst_val, *(abs(float(np.mean(v)) - e)
                                     for v, e in zip(vals, expected)))
    elapsed = time.perf_counter() - t0
    report(2, worst_spread < 1e-9 and worst_sys < 1e-10
           and worst_val < 1e-9 and elapsed < 2.0,
           f"first integrals: spread {worst_spread:.2e}, closure {worst_sys:.2e}, "
           f"value error {worst_val:.2e}, {elapsed:.2f}s")


# ----------------------------------------------------------------------
# 3 and 4 outside the admissibility strip: the documented refusal
# ----------------------------------------------------------------------

# The refusal must name the strip: at (1.5, 0.2) sigma_loop and period_sigma
# would still raise ParamViolation from their x = 0 section check without the
# strip guard, so the exception class alone does not show which guard fired.
STRIP = "|a-c| < 1 < a+c"


def _in_strip(a, c):
    """The strip restated here, so the expected outcome of criteria 3 and 4
    does not come from the guard it checks."""
    return a > 0.0 and c > 0.0 and abs(a - c) < 1.0 < a + c


def _slope_discriminant(a, c):
    """Worst P/Delta of the slope relation on a 41 x 41 grid over
    [-4, 4] x [0, 2 pi) where C = a cosh x + c cos y exceeds 1 + 1e-3,
    the number of those points, and how many of them NoRealSolution refuses.

    The C jet is built directly, not through the family, so the answer does
    not depend on DoublyPeriodic.validate.
    """
    worst, points, refused = -math.inf, 0, 0
    for i in range(41):
        for j in range(41):
            X, Y = Jet.variables(-4.0 + 0.2 * i, 2.0 * math.pi * j / 41, 2)
            C = a * jet_cosh(X) + c * jet_cos(Y)
            if not C.value > 1.0 + 1e-3:
                continue
            mu = mg.mu_jet_from_C(C)
            data = mg.compatibility_data(mu)
            worst = max(worst, data.P / data.Delta)
            points += 1
            try:
                mg.two_theta_solutions(mu)
            except NoRealSolution:
                refused += 1
    return worst, points, refused


def _report_refusal(criterion, a, c, calls):
    """Every named entry point raises exactly the strip ParamViolation, and
    no point of the grid admits a real slope angle."""
    wrong = []
    for name, call in calls.items():
        try:
            call()
        except DensityLabError as exc:
            if type(exc) is not ParamViolation or STRIP not in str(exc):
                wrong.append(f"{name}: {type(exc).__name__}: {exc}")
        else:
            wrong.append(f"{name}: returned")
    worst, points, refused = _slope_discriminant(a, c)
    ok = not wrong and points > 0 and worst < 0.0 and refused == points
    report(criterion, ok,
           f"(a={a}, c={c}) outside {STRIP}: "
           + (f"wrong outcome {'; '.join(wrong)}" if wrong else
              f"{len(calls)} entry points raise ParamViolation")
           + f"; max P/Delta {worst:.3f} over {points} points with C > 1, "
             f"NoRealSolution at {refused}")


# ----------------------------------------------------------------------
# 3. winding numbers around the rectangle and the throat loop
# ----------------------------------------------------------------------

@pytest.mark.parametrize("a,c", [(1.0, 1.0), (0.8, 0.5), (1.5, 0.2)])
def test_criterion_03_winding(a, c):
    if not _in_strip(a, c):
        _report_refusal(3, a, c, {
            "gamma_rectangle": lambda: mg.gamma_rectangle(a, c, 8.0),
            "sigma_loop": lambda: mg.sigma_loop(a, c, 2000),
        })
        return
    try:
        rect = mg.lift_theta_along(mg.gamma_rectangle(a, c, 8.0), a, c)
        loop = mg.lift_theta_along(mg.sigma_loop(a, c, 2000), a, c)
    except DensityLabError as exc:
        report(3, False, f"(a={a}, c={c}): {type(exc).__name__}: {exc}")
        return
    err_rect = abs(rect.winding - 2.0 * math.pi)
    err_loop = abs(loop.winding)
    report(3, err_rect < 1e-3 and err_loop < 1e-6,
           f"(a={a}, c={c}): rectangle 2pi err {err_rect:.2e}, "
           f"throat err {err_loop:.2e}")


# ----------------------------------------------------------------------
# 4. throat period: nonzero, refinement-stable, seed-antisymmetric
# ----------------------------------------------------------------------

@pytest.mark.parametrize("a,c", [(1.0, 1.0), (0.8, 0.5), (1.5, 0.2)])
def test_criterion_04_period(a, c):
    if not _in_strip(a, c):
        _report_refusal(4, a, c, {
            "period_sigma": lambda: mg.period_sigma(a, c),
            "period_sigma(samples=1024)":
                lambda: mg.period_sigma(a, c, samples=1024),
            "period_sigma(seed_sign=-1)":
                lambda: mg.period_sigma(a, c, seed_sign=-1),
        })
        return
    try:
        lam = mg.period_sigma(a, c)
        lam_fine = mg.period_sigma(a, c, samples=1024)
        lam_flip = mg.period_sigma(a, c, seed_sign=-1)
    except DensityLabError as exc:
        report(4, False, f"(a={a}, c={c}): {type(exc).__name__}: {exc}")
        return
    ok = abs(lam) > 1e-3 and abs(lam - lam_fine) < 1e-7 \
        and abs(lam + lam_flip) < 1e-9
    report(4, ok, f"(a={a}, c={c}): period {lam:.6f}, refinement "
                  f"{abs(lam - lam_fine):.2e}, flip {abs(lam + lam_flip):.2e}")


# ----------------------------------------------------------------------
# 5. two-graph certificate: equal density, genuinely inequivalent heights
# ----------------------------------------------------------------------

def _u_at(fam, base, target, branch):
    """Height at target by an axis-aligned two-leg path from the base."""
    mid = (target[0], base[1])
    path = [base, mid, target] if mid != base and mid != target \
        else [base, target]
    return mg.reconstruct_u(path, fam, branch=branch, panels=4)[-1]


def _grad_richardson(fam, p, branch, h=0.004):
    """Two-level Richardson first derivatives of the reconstructed height."""
    def diff(axis, hh):
        d = [0.0, 0.0]
        d[axis] = hh
        up = _u_at(fam, p, (p[0] + d[0], p[1] + d[1]), branch)
        dn = _u_at(fam, p, (p[0] - d[0], p[1] - d[1]), branch)
        return (up - dn) / (2.0 * hh)

    return tuple((4.0 * diff(ax, h / 2) - diff(ax, h)) / 3.0 for ax in (0, 1))


def test_criterion_05_two_graph_certificate():
    cases = [
        (mg.HeliCatenoid(math.pi / 4),
         [(0.95 + 0.1 * i, 0.25 + 0.1 * j) for i in range(3) for j in range(3)],
         [(0.9 + 0.008 * k, 0.2 + 0.006 * k) for k in range(81)]),
        (mg.DoublyPeriodic(1.0, 1.0),
         [(0.45 + 0.12 * i, -0.4 + 0.12 * j) for i in range(3) for j in range(3)],
         [(0.3 + 0.015 * k, -0.5 + 0.018 * k) for k in range(61)]),
    ]
    worst_density = 0.0
    min_variation = float("inf")
    for fam, probes, path in cases:
        for p in probes:
            F2 = mg.density_value(fam, *p) ** 2
            for branch in (1, -1):
                ux, uy = _grad_richardson(fam, p, branch)
                worst_density = max(worst_density,
                                    abs(1.0 + ux * ux + uy * uy - F2))
        up = mg.reconstruct_u(path, fam, branch=1)
        dn = mg.reconstruct_u(path, fam, branch=-1)
        diff = [a - b for a, b in zip(up, dn)]
        summ = [a + b for a, b in zip(up, dn)]
        min_variation = min(min_variation,
                            max(diff) - min(diff), max(summ) - min(summ))
    report(5, worst_density < 1e-8 and min_variation > 1e-3,
           f"two-graph: density residual {worst_density:.2e}, "
           f"min (u+ -/+ u-) variation {min_variation:.3f}")


# ----------------------------------------------------------------------
# 6. Calabi prescribed density
# ----------------------------------------------------------------------

def test_criterion_06_calabi_density():
    rng = random.Random(2026)
    worst = 0.0
    for _ in range(1000):
        phi = rng.uniform(0.03, math.pi / 4 - 0.03)
        theta = rng.uniform(-1.0, 1.0) * (math.pi / 2 - phi - 1e-3)
        g = cb.ellipse_param(phi, theta)
        worst = max(worst, abs(cb.lagrangian_L(g) - 1.0 / math.sin(2 * phi)))
    linear = cb.el_residual(Jet(0.2, dx=0.9, dy=0.8, order=2))
    const = cb.compatibility_extract(Jet(math.pi / 8, order=2))
    worst_A = max(abs(const.A1), abs(const.A2), abs(const.A3))
    report(6, worst < 1e-10 and linear == 0.0 and worst_A < 1e-12,
           f"calabi density: L=F residual {worst:.2e}, linear {linear!r}, "
           f"constant-phi obstruction {worst_A:.2e}")


# ----------------------------------------------------------------------
# 7. branch bound: never more than two candidate angles
# ----------------------------------------------------------------------

def test_criterion_07_branch_bound():
    rng = random.Random(9090)
    # per jet, in this order: phi's value, dx, dy, dxx, dxy, dyy; the 10^4
    # jets run as one batch, and each outcome is the candidate list or the
    # exception class that two_theta_candidates raises for that jet alone
    draws = [[rng.uniform(0.12, math.pi / 4 - 0.12)]
             + [rng.uniform(-0.4, 0.4) for _ in range(5)] for _ in range(10000)]
    outcomes = cb.candidates_batch(Jet(*np.array(draws).T, order=2))
    failures = [o for o in outcomes if isinstance(o, type)]
    # only the degenerate route is an expected outcome, as in a scalar loop
    # that catches DegenerateAllZero alone
    assert set(failures) <= {cb.DegenerateAllZero}, set(failures)
    degenerate = len(failures)
    max_count = max((len(o) for o in outcomes if isinstance(o, list)), default=0)
    phij = Jet(math.pi / 8, dx=0.1, dy=0.0, dyy=0.04, order=3)
    data = cb.compatibility_extract(phij)
    th = math.pi / 6
    pred = [(math.cos(2 * th) * data.omega1[i] + math.sin(2 * th)
             * data.omega2[i] + data.omega3[i]) / 2.0 for i in range(2)]
    act = cb.theta_gradient_calabi(phij, th)
    held_out = max(abs(pred[0] - act[0]), abs(pred[1] - act[1]))
    report(7, max_count <= 2 and held_out < 1e-9,
           f"branch bound: max candidates {max_count} over 10^4 jets "
           f"({degenerate} degenerate), held-out {held_out:.2e}")


# ----------------------------------------------------------------------
# 8. harmonic identity suite, exact, with a mutation canary
# ----------------------------------------------------------------------

def test_criterion_08_identity_suite():
    t0 = time.perf_counter()
    for n in (3, 4, 5):
        for d in (1, 2, 3, 4):
            ha.identity_suite(n, d, 50, seed=1000 + 10 * n + d)
    mutated = False
    try:
        ha.identity_suite(3, 2, 5, seed=1, corrupt=True)
    except ha.IdentityFailure:
        mutated = True
    elapsed = time.perf_counter() - t0
    report(8, mutated and elapsed < 60.0,
           f"identities exact for n in 3..5, d <= 4, 50 trials each; "
           f"mutation detected; {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 9. spectral dichotomy, exact arithmetic
# ----------------------------------------------------------------------

def test_criterion_09_spectral_dichotomy():
    ok = True
    witness = None
    for n in (3, 4, 5):
        for lam in range(0, 41):
            p = ha.SpectralParams(n, Fraction(1), Fraction(lam))
            m = ha.admissible_lambda(p)
            seq = ha.a_sequence(p, 15)
            if m is not None:
                good = seq.first_negative is None \
                    and all(v == 0 for v in seq.values[m + 1:]) \
                    and all(v > 0 for v in seq.values[:m + 1])
            else:
                good = seq.first_negative is not None
            if not good:
                ok, witness = False, f"n={n}, lambda={lam}"
                break
    report(9, ok, f"dichotomy exact for n in 3..5, lambda <= 40"
                  + (f" (failed at {witness})" if witness else ""))


# ----------------------------------------------------------------------
# 10. map construction
# ----------------------------------------------------------------------

def sum_of_squares(components) -> ha.Poly:
    """One exact Poly product per component, summed."""
    return sum((f * f for f in components), ha.Poly.zero(components[0].nvars))


def test_criterion_10_map_construction():
    t0 = time.perf_counter()
    # degree 1: the identity map with density 3
    b41 = sm.basis_Hm(4, 1)
    G0, ker1 = sm.solve_h_equals_Rm(4, 1, b41)
    ident = sm.construct_map(G0, b41)
    id_ok = sum_of_squares(ident.components) == sm.radius_power(4, 1) \
        and len(ident.components) == 4 and all(
        abs(sm.energy_density(ident, p) - 3.0) < 1e-12
        for p in sm.random_sphere_points(4, 20, 11))

    # degree 2: exact sum of squares, kernel certificate, nonuniqueness
    b42 = sm.basis_Hm(4, 2)
    _, ker2 = sm.solve_h_equals_Rm(4, 2, b42)
    kernel_ok = ker2.dimension >= 10 and all(
        h_of_G(dense(b42.dim, k), b42).is_zero() for k in ker2.elements)
    cmap = sm.construct_map(
        gram_of_components(sm.canonical_exact_map(4, 2).components, b42), b42)
    sos_exact = sum_of_squares(cmap.components) == sm.radius_power(4, 2)
    harm = all(f.analyst_laplacian().is_zero() for f in cmap.components)
    worst_e = max(abs(sm.energy_density(cmap, p) - 8.0)
                  for p in sm.random_sphere_points(4, 100, 12))
    margin = sm.nonuniqueness_report(4, 2)["margin"]
    elapsed = time.perf_counter() - t0
    report(10, id_ok and kernel_ok and sos_exact and harm
           and worst_e < 1e-9 and margin >= 4 and elapsed < 120.0,
           f"maps: identity ok, kernel dim {ker2.dimension} (exact), "
           f"sum-of-squares exact, energy spread {worst_e:.2e}, "
           f"margin {margin} over dim SO(4) = 6, {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 11. dimension formula against brute-force kernel ranks
# ----------------------------------------------------------------------

def test_criterion_11_dimension_formula():
    from densitylab.cli_harmonic import _brute_harmonic_dim
    ok = True
    witness = None
    for n_amb in (3, 4, 5):
        for m in range(0, 7):
            if ha.dim_harmonics(n_amb, m) != _brute_harmonic_dim(n_amb, m):
                ok, witness = False, f"(n_ambient={n_amb}, m={m})"
    report(11, ok, "dimension formula equals Laplacian kernel rank for "
                   "ambient <= 5, degree <= 6"
                   + (f" (failed at {witness})" if witness else ""))


# ----------------------------------------------------------------------
# 12. determinism of report bodies
# ----------------------------------------------------------------------

def test_criterion_12_determinism():
    bodies = []
    for scenario in (
        {"suite": "harmonic", "mode": "identities",
         "params": {"dims": [3], "max_degree": 2, "trials": 10}, "seed": 42},
        {"suite": "calabi", "mode": "branches",
         "params": {"trials": 60}, "seed": 7},
        {"suite": "families", "mode": "period",
         "params": {"pairs": [[1.0, 1.0]]}, "seed": 0},
    ):
        r1 = cli.run(cli.Scenario.from_config(dict(scenario)))
        r2 = cli.run(cli.Scenario.from_config(dict(scenario)))
        bodies.append(cli.report_body(r1) == cli.report_body(r2))
    report(12, all(bodies),
           f"byte-identical report bodies across reruns: {bodies}")
