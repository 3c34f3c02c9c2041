"""Batch front end: scenario configs in, machine-readable reports out.

A scenario is a single JSON document:

    {"suite": "families", "mode": "verify", "params": {...},
     "grid": {"x_min": ..., "x_max": ..., "y_min": ..., "y_max": ...,
              "nx": ..., "ny": ...},
     "tolerances": {...}, "seed": 42}

Command verbs map onto (suite, mode):

    densitylab families verify|sample|period|winding
    densitylab calabi   residual|branches|extract
    densitylab harmonic identities|spectrum|dims
    densitylab maps     kernel|construct|verify|export

Exit codes: 0 all checks pass, 1 some check failed, 2 invalid usage.
Reports are deterministic for a fixed scenario and seed: the report body
(everything except the runtime field) is byte-identical across runs.
Rational numbers are serialized as "numerator/denominator" strings.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import calabi, harmonic, minimal_graphs as mg, sphere_maps as sm
from .errors import DensityLabError, UsageError
from .jets import BatchStatus, Jet, masked_errstate

SUITES = {
    "families": ("verify", "sample", "period", "winding"),
    "calabi": ("residual", "branches", "extract"),
    "harmonic": ("identities", "spectrum", "dims"),
    "maps": ("kernel", "construct", "verify", "export"),
}

DEFAULT_TOLERANCES = {
    "algebraic": mg.TOL_ALG,
    "quadrature": mg.TOL_QUAD,
    "integral_spread": mg.TOL_INTEGRAL,
    "singular": mg.TOL_SING,
    "winding": 1e-3,
    "energy": 1e-9,
}


@dataclass
class Scenario:
    suite: str
    mode: str
    params: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    seed: int = 0

    @staticmethod
    def from_config(doc: dict) -> "Scenario":
        suite = doc.get("suite")
        if suite not in SUITES:
            raise UsageError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
        mode = doc.get("mode", SUITES[suite][0])
        if mode not in SUITES[suite]:
            raise UsageError(f"unknown mode {mode!r} for suite {suite!r}")
        grid = doc.get("grid", {})
        if grid:
            for key in ("nx", "ny"):
                if key in grid and grid[key] < 2:
                    raise UsageError(f"grid counts must be >= 2, got {grid[key]}")
        tol = dict(DEFAULT_TOLERANCES)
        for k, v in doc.get("tolerances", {}).items():
            if not (isinstance(v, (int, float)) and v > 0):
                raise UsageError(f"tolerance override {k!r} must be positive")
            tol[k] = float(v)
        seed = int(doc.get("seed", 0))
        return Scenario(suite, mode, doc.get("params", {}), grid, tol, seed)

    def echo(self) -> dict:
        return {
            "suite": self.suite,
            "mode": self.mode,
            "params": self.params,
            "grid": self.grid,
            "tolerances": self.tolerances,
            "seed": self.seed,
        }


def _check(name: str, passed: bool, max_residual=None, exact=None, witness=None):
    rec = {"name": name, "status": "pass" if passed else "fail"}
    if max_residual is not None:
        rec["max_residual"] = float(max_residual)
    if exact is not None:
        rec["exact"] = bool(exact)
    if witness is not None:
        rec["witness"] = witness
    return rec


def _grid_points(grid: dict, defaults: tuple[float, float, float, float, int, int]):
    x0 = grid.get("x_min", defaults[0])
    x1 = grid.get("x_max", defaults[1])
    y0 = grid.get("y_min", defaults[2])
    y1 = grid.get("y_max", defaults[3])
    nx = int(grid.get("nx", defaults[4]))
    ny = int(grid.get("ny", defaults[5]))
    xs = [x0 + (x1 - x0) * i / (nx - 1) for i in range(nx)]
    ys = [y0 + (y1 - y0) * j / (ny - 1) for j in range(ny)]
    return xs, ys


def _numbers(name: str, value, length: int | None = None,
             integers: bool = False) -> list:
    """value itself if it is a non-empty list of real numbers, or of
    integers (of the given length); UsageError otherwise.  Bools are
    refused."""
    kinds = int if integers else (int, float)
    ok = (isinstance(value, (list, tuple)) and len(value) > 0
          and (length is None or len(value) == length)
          and all(isinstance(v, kinds) and not isinstance(v, bool)
                  for v in value))
    if not ok:
        size = "a non-empty list" if length is None else f"a list of {length}"
        kind = "integers" if integers else "real numbers"
        raise UsageError(f"{name} must be {size} {kind}, got {value!r}")
    return value


def _integer(params: dict, key: str, default: int) -> int:
    """The integer parameter params[key] (default if absent); UsageError
    for anything else, bools included."""
    value = params.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"{key} must be an integer, got {value!r}")
    return value


def _pairs(params: dict, key: str = "pairs", default=([1.0, 1.0], [0.8, 0.5]),
           names: str = "a, c", integers: bool = False) -> list:
    """The pairs params[key] (default if absent), checked: the (a, c) of a
    period or winding scenario, or the integer (n_ambient, m) cases of
    maps kernel."""
    pairs = params.get(key, default)
    if not (isinstance(pairs, (list, tuple)) and pairs):
        raise UsageError(f"{key} must be a non-empty list of [{names}], got {pairs!r}")
    return [_numbers(f"each entry of {key}", pair, 2, integers) for pair in pairs]


def _family_from_params(params: dict) -> mg.DensityFamily:
    kind = params.get("family", "scherk")
    if kind == "constant":
        return mg.ConstantPlane(float(params.get("c", 2.0)))
    if kind == "scherk":
        return mg.ScherkFifth()
    if kind == "helicatenoid":
        return mg.HeliCatenoid(float(params.get("phi", math.pi / 4)))
    if kind == "doubly_periodic":
        return mg.DoublyPeriodic(float(params.get("a", 1.0)),
                                 float(params.get("c", 1.0)))
    raise UsageError(f"unknown family {kind!r}")


# ----------------------------------------------------------------------
# families suite
# ----------------------------------------------------------------------

def _grid(*axes) -> list[np.ndarray]:
    """The points of the product grid of the axes, the last axis fastest."""
    return [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]


def _families_verify(sc: Scenario) -> list[dict]:
    tol = sc.tolerances
    checks = []
    # Scherk: closed-form jets on a psi x x x y grid, as one batch
    xs, ys = _grid_points(sc.grid, (0.5, 3.0, 0.0, 2.0 * math.pi, 25, 25))
    psis = _numbers("psi_values",
                    sc.params.get("psi_values", [0.0, 0.7, 1.4, 2.1, 2.8]))
    psi, x, y = _grid(psis, xs, ys)
    uj = mg.scherk_u_jet(x, y, psi, order=2)
    r = np.abs(mg.minimal_residual(uj))
    d = np.abs(1.0 + uj.dx ** 2 + uj.dy ** 2 - 1.0 / np.tanh(x) ** 2)
    # the first largest residual in psi, x, y loop order; none if all are 0
    k = int(np.argmax(r))
    worst_res, worst_den = float(r[k]), float(np.max(d))
    at = None
    if worst_res > 0.0:
        i, j, l = np.unravel_index(k, (len(psis), len(xs), len(ys)))
        at = (psis[i], xs[j], ys[l])
    checks.append(_check("scherk_minimal_residual", worst_res < tol["algebraic"],
                         worst_res, witness=str(at)))
    checks.append(_check("scherk_density_identity", worst_den < 1e-10, worst_den))

    # doubly periodic: first integrals and closure system on the grid points
    # of the domain, as one batch
    fam = mg.DoublyPeriodic(float(sc.params.get("a", 1.0)),
                            float(sc.params.get("c", 1.0)))
    fam.validate()
    x, y = _grid([0.2 + 0.15 * i for i in range(12)],
                 [-1.0 + 0.17 * j for j in range(12)])
    inside = fam.contains(x, y)
    if inside.any():
        C = mg.family_C_jet(fam, x[inside], y[inside])
        fi = mg.first_integrals(C)
        spread = max(float(np.ptp(v)) for v in (fi.a1, fi.a2, fi.a3))
        worst_sys = max(float(np.max(np.abs(v))) for v in mg.c_system_residual(C))
        checks.append(_check("dp_first_integral_spread",
                             spread < tol["integral_spread"], spread))
        checks.append(_check("dp_closure_system", worst_sys < 1e-10, worst_sys))
    else:
        empty = "no point of the 12 x 12 grid lies in the domain"
        checks.append(_check("dp_first_integral_spread", False, witness=empty))
        checks.append(_check("dp_closure_system", False, witness=empty))

    # heli-catenoid: both branches solve the slope relation on four probes,
    # as one batch; validating first keeps the scalar loop's error order
    heli = mg.HeliCatenoid(float(sc.params.get("phi", math.pi / 4)))
    heli.validate()
    mj = mg.mu_jet(heli, np.array([1.0, 0.8, 1.4, 2.0]),
                   np.array([0.2, -0.5, 1.0, 0.0]))
    data = mg.compatibility_data(mj)
    worst_plug = 0.0
    for c2, s2 in mg.two_theta_solutions(mj):
        plug = np.abs(data.coef_cos * c2 + data.coef_sin * s2 - data.rhs)
        unit = np.abs(c2 * c2 + s2 * s2 - 1.0)
        worst_plug = max(worst_plug, float(np.max(plug)), float(np.max(unit)))
    checks.append(_check("heli_branch_residual", worst_plug < tol["algebraic"],
                         worst_plug))
    return checks


def _families_period(sc: Scenario) -> list[dict]:
    tol = sc.tolerances
    pairs = _pairs(sc.params)
    checks = []
    for (a, c) in pairs:
        tag = f"a={a},c={c}"
        try:
            lam = mg.period_sigma(a, c, tol=tol["quadrature"])
            lam2 = mg.period_sigma(a, c, tol=tol["quadrature"], samples=1024)
            lamf = mg.period_sigma(a, c, tol=tol["quadrature"], seed_sign=-1)
            checks.append(_check(f"period_nonzero[{tag}]", abs(lam) > 1e-3, abs(lam)))
            checks.append(_check(f"period_refinement[{tag}]",
                                 abs(lam - lam2) < 10 * tol["quadrature"],
                                 abs(lam - lam2)))
            checks.append(_check(f"period_sign_flip[{tag}]",
                                 abs(lam + lamf) < 10 * tol["quadrature"],
                                 abs(lam + lamf)))
        except DensityLabError as exc:
            checks.append(_check(f"period[{tag}]", False,
                                 witness=f"{type(exc).__name__}: {exc}"))
    return checks


def _families_winding(sc: Scenario) -> list[dict]:
    tol = sc.tolerances
    pairs = _pairs(sc.params)
    R = float(sc.params.get("rectangle_half_width", 8.0))
    checks = []
    for (a, c) in pairs:
        tag = f"a={a},c={c}"
        try:
            lift = mg.lift_theta_along(mg.gamma_rectangle(a, c, R), a, c)
            err = abs(lift.winding - 2.0 * math.pi)
            checks.append(_check(f"winding_rectangle[{tag}]",
                                 err < tol["winding"], err))
            ls = mg.lift_theta_along(mg.sigma_loop(a, c, 2000), a, c)
            checks.append(_check(f"winding_throat[{tag}]",
                                 abs(ls.winding) < 1e-6, abs(ls.winding)))
        except DensityLabError as exc:
            checks.append(_check(f"winding[{tag}]", False,
                                 witness=f"{type(exc).__name__}: {exc}"))
    return checks


_SLOPE_FIELDS = {"cos2theta_plus": (0, 0), "sin2theta_plus": (0, 1),
                 "cos2theta_minus": (1, 0), "sin2theta_minus": (1, 1)}
_FIELDS = ("F", "P", "Delta", *_SLOPE_FIELDS)


def _field_values(fam: mg.DensityFamily, name: str, x: np.ndarray, y: np.ndarray,
                  status: BatchStatus) -> np.ndarray:
    """The field at domain points, as one batch; status masks the points
    where a guard fails."""
    if name == "F":
        values = mg.density_value(fam, x, y)
    else:
        mj = mg.mu_jet(fam, x, y, status=status)
        if name in _SLOPE_FIELDS:
            branch, part = _SLOPE_FIELDS[name]
            values = mg.two_theta_solutions(mj, status)[branch][part]
        else:
            with masked_errstate(status):
                data = mg.compatibility_data(mj)
            values = data.P if name == "P" else data.Delta
    return np.broadcast_to(values, x.shape)


def _field_rows(sc: Scenario, field_name: str) -> tuple[list[list[float]], Counter]:
    """[x, y, value] over the scenario grid in y-major order, where defined,
    and the number of dropped grid points per reason."""
    if field_name not in _FIELDS:
        raise UsageError(f"unknown field {field_name!r}")
    fam = _family_from_params(sc.params)
    xs, ys = _grid_points(sc.grid, (0.5, 3.0, 0.0, 2.0 * math.pi, 40, 40))
    y, x = _grid(ys, xs)
    inside = np.broadcast_to(fam.contains(x, y), x.shape)
    x, y = x[inside], y[inside]
    status = BatchStatus(x.size)
    values = _field_values(fam, field_name, x, y, status)
    ok = ~status.failed
    rows = np.column_stack((x[ok], y[ok], values[ok])).tolist()
    dropped = Counter({"outside the domain": int(np.sum(~inside))})
    dropped.update(err.__name__ for err in status.errors if err is not None)
    return rows, +dropped


def _write_field(rows: list, field_name: str, out_path: Path, fmt: str) -> Path:
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        out_path.write_text(json.dumps({"field": field_name, "rows": rows}) + "\n")
        return out_path
    with out_path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", field_name])
        for x, y, v in rows:
            w.writerow([f"{x:.12g}", f"{y:.12g}", f"{v:.15g}"])
    return out_path


def emit_field_csv(sc: Scenario, field_name: str, out_path: Path) -> Path:
    """Write a grid field as CSV (columns x, y, value; y-major rows)."""
    return _write_field(_field_rows(sc, field_name)[0], field_name, out_path, "csv")


def emit_field_json(sc: Scenario, field_name: str, out_path: Path) -> Path:
    """Same grid field as a JSON document (rows in y-major order)."""
    return _write_field(_field_rows(sc, field_name)[0], field_name, out_path, "json")


def _families_sample(sc: Scenario, out_dir: Path,
                     fmt: str = "csv") -> tuple[list[dict], list[str]]:
    name = sc.params.get("field", "F")
    fmt = "json" if fmt == "json" else "csv"
    rows, dropped = _field_rows(sc, name)
    path = _write_field(rows, name, out_dir / f"field_{name}.{fmt}", fmt)
    witness = f"{path}; {sum(dropped.values())} grid points dropped"
    if dropped:
        witness += " (" + ", ".join(f"{reason} {k}" for reason, k
                                    in sorted(dropped.items())) + ")"
    return [_check(f"sample_emitted[{name}]", True, witness=witness)], [str(path)]


# ----------------------------------------------------------------------
# calabi suite
# ----------------------------------------------------------------------

def _calabi_residual(sc: Scenario) -> list[dict]:
    checks = []
    z_lin = Jet(0.3, dx=0.9, dy=0.8, order=2)
    r = calabi.el_residual(z_lin)
    checks.append(_check("linear_extremal_exact", r == 0.0, abs(r), exact=True))
    rng = random.Random(sc.seed)
    worst = 0.0
    for _ in range(int(sc.params.get("probes", 25))):
        phi = rng.uniform(0.1, math.pi / 4 - 0.1)
        th = rng.uniform(-0.3, 0.3)
        gp = calabi.ellipse_param(phi, th)
        res = abs(calabi.lagrangian_L(gp) - 1.0 / math.sin(2.0 * phi))
        worst = max(worst, res)
    checks.append(_check("prescribed_density_on_ellipse", worst < 1e-10, worst))
    return checks


def _calabi_branches(sc: Scenario) -> list[dict]:
    rng = random.Random(sc.seed)
    n = int(sc.params.get("trials", 500))
    # per trial, in this order: phi's value, dx, dy, dxx, dxy, dyy
    draws = [[rng.uniform(0.15, math.pi / 4 - 0.15)]
             + [rng.uniform(-0.3, 0.3) for _ in range(5)] for _ in range(n)]
    phij = Jet(*np.array(draws, dtype=float).reshape(-1, 6).T, order=2)
    outcomes = calabi.candidates_batch(phij)
    counts = [len(o) for o in outcomes if isinstance(o, list)]
    skipped = Counter(o.__name__ for o in outcomes if isinstance(o, type))
    max_count = max(counts, default=0)
    witness = (f"max count {max_count} over {n} trials; {len(counts)} used, "
               f"{sum(skipped.values())} skipped")
    if skipped:
        witness += " (" + ", ".join(f"{name} {k}" for name, k
                                    in sorted(skipped.items())) + ")"
    return [_check("at_most_two_candidates", bool(counts) and max_count <= 2,
                   witness=witness)]


def _calabi_extract(sc: Scenario) -> list[dict]:
    checks = []
    const = calabi.compatibility_extract(Jet(math.pi / 8, order=2))
    worst = max(abs(const.A1), abs(const.A2), abs(const.A3))
    checks.append(_check("constant_phi_obstruction_zero", worst < 1e-12, worst))
    phij = Jet(math.pi / 8, dx=0.1, dy=0.05, dxy=0.02, dyy=0.04, order=3)
    data = calabi.compatibility_extract(phij)
    th = math.pi / 6
    pred = [(math.cos(2 * th) * data.omega1[i] + math.sin(2 * th) * data.omega2[i]
             + data.omega3[i]) / 2.0 for i in range(2)]
    act = calabi.theta_gradient_calabi(phij, th)
    err = max(abs(pred[0] - act[0]), abs(pred[1] - act[1]))
    checks.append(_check("held_out_angle_consistency", err < 1e-9, err))
    return checks


# ----------------------------------------------------------------------
# harmonic suite
# ----------------------------------------------------------------------

def _harmonic_identities(sc: Scenario) -> list[dict]:
    # default scenario: n = 3, d <= 3, 50 trials; widen via params
    checks = []
    trials = int(sc.params.get("trials", 50))
    for n in sc.params.get("dims", [3]):
        for d in range(1, int(sc.params.get("max_degree", 3)) + 1):
            try:
                harmonic.identity_suite(n, d, trials, seed=sc.seed)
                checks.append(_check(f"identities[n={n},d={d}]", True, exact=True))
            except harmonic.IdentityFailure as exc:
                checks.append(_check(f"identities[n={n},d={d}]", False,
                                     witness=str(exc)))
    try:
        harmonic.identity_suite(3, 2, 5, seed=sc.seed, corrupt=True)
        checks.append(_check("mutation_detected", False))
    except harmonic.IdentityFailure:
        checks.append(_check("mutation_detected", True, exact=True))
    return checks


def _harmonic_spectrum(sc: Scenario) -> list[dict]:
    checks = []
    lam_max = int(sc.params.get("lambda_max", 40))
    m_max = int(sc.params.get("m_max", 15))
    for n in sc.params.get("dims", [3, 4, 5]):
        ok = True
        witness = None
        for lam in range(lam_max + 1):
            p = harmonic.SpectralParams(n, Fraction(1), Fraction(lam))
            m = harmonic.admissible_lambda(p)
            seq = harmonic.a_sequence(p, m_max)
            if m is not None:
                good = (seq.first_negative is None
                        and seq.first_zero == m + 1
                        and all(v == 0 for v in seq.values[m + 1:]))
                # lambda = 0 gives m = 0 and zeros from index 1
            else:
                good = seq.first_negative is not None
            if not good:
                ok = False
                witness = f"lambda={lam}"
                break
        checks.append(_check(f"dichotomy[n={n}]", ok, exact=True, witness=witness))
    return checks


def _harmonic_dims(sc: Scenario) -> list[dict]:
    checks = []
    worst = None
    ok = True
    for n_amb in sc.params.get("ambient_dims", [3, 4, 5]):
        for m in range(0, int(sc.params.get("max_degree", 6)) + 1):
            formula = harmonic.dim_harmonics(n_amb, m)
            brute = _brute_harmonic_dim(n_amb, m)
            if formula != brute:
                ok = False
                worst = f"(n={n_amb}, m={m}): {formula} != {brute}"
    checks.append(_check("dimension_formula", ok, exact=True, witness=worst))
    return checks


def _brute_harmonic_dim(n_amb: int, m: int) -> int:
    monos = harmonic.monomial_exponents(n_amb, m)
    if m < 2:
        return len(monos)
    target = harmonic.monomial_exponents(n_amb, m - 2)
    tindex = {e: i for i, e in enumerate(target)}
    rows = []
    for e in monos:
        lap = harmonic.Poly(n_amb, {e: 1}).analyst_laplacian()
        row = [Fraction(0)] * len(target)
        for ee, c in lap.terms.items():
            row[tindex[ee]] = c
        rows.append(row)
    cols = [[rows[i][j] for i in range(len(monos))] for j in range(len(target))]
    _, pivots = sm.rref(cols)
    return len(monos) - len(pivots)


# ----------------------------------------------------------------------
# maps suite
# ----------------------------------------------------------------------

def _maps_kernel(sc: Scenario) -> list[dict]:
    checks = []
    for (n_amb, m) in _pairs(sc.params, "cases", ([4, 1], [4, 2]),
                             "n_ambient, m", integers=True):
        rep = sm.nonuniqueness_report(n_amb, m)
        name = f"kernel[n_ambient={n_amb},m={m}]"
        checks.append(_check(name, True, exact=True,
                             witness=json.dumps(rep, sort_keys=True)))
    return checks


def _maps_construct(sc: Scenario) -> tuple[list[dict], sm.SphericalHarmonicMap]:
    n_amb = _integer(sc.params, "n_ambient", 4)
    m = _integer(sc.params, "m", 2)
    checks = []
    if (m == 1) or (n_amb, m) == (4, 2):
        the_map = sm.canonical_exact_map(n_amb, m)
        checks.append(_check("map_exact_flag", the_map.exact, exact=the_map.exact))
        resid = sm._sum_sq_minus_Rm_exact(the_map.components, n_amb, m)
        checks.append(_check("sum_of_squares_exact", resid.is_zero(), exact=True))
        harm = all(f.analyst_laplacian().is_zero() for f in the_map.components)
        checks.append(_check("components_harmonic", harm, exact=True))
    else:
        basis = sm.basis_Hm(n_amb, m)
        G0, _ = sm.solve_h_equals_Rm(n_amb, m, basis)
        the_map = sm.construct_map(G0, basis)
        checks.append(_check("map_constructed", True, exact=the_map.exact))
    lam = the_map.eigenvalue
    pts = sm.random_sphere_points(n_amb, int(sc.params.get("points", 100)), sc.seed)
    worst = max(abs(sm.energy_density(the_map, p) - lam) for p in pts)
    checks.append(_check("energy_density_constant",
                         worst < sc.tolerances["energy"], worst,
                         witness=f"eigenvalue {lam}"))
    return checks, the_map


def _maps_verify(sc: Scenario) -> list[dict]:
    n_amb = _integer(sc.params, "n_ambient", 4)
    m = _integer(sc.params, "m", 2)
    basis = sm.basis_Hm(n_amb, m)
    G0, kernel = sm.solve_h_equals_Rm(n_amb, m, basis)
    checks = []
    rm = sm.h_of_G(G0, basis)
    checks.append(_check("base_point_exact", rm == sm.radius_power(n_amb, m),
                         exact=True))
    # solve_h_equals_Rm raises unless h(k) = 0 exactly for every element
    checks.append(_check("kernel_annihilates", True, exact=True,
                         witness=f"dimension {kernel.dimension}"))
    the_map = sm.construct_map(G0, basis)
    pts = sm.random_sphere_points(n_amb, 50, sc.seed)
    worst = max(abs(sm.energy_density(the_map, p) - the_map.eigenvalue)
                for p in pts)
    checks.append(_check("constructed_energy", worst < sc.tolerances["energy"],
                         worst))
    return checks


def export_map_json(the_map: sm.SphericalHarmonicMap, out_path: Path) -> Path:
    """Serialize a map; rational coefficients as "num/den" strings."""
    comps = []
    for comp in the_map.components:
        entry = {}
        if isinstance(comp, harmonic.Poly):
            for e, c in comp.sorted_terms():
                entry[",".join(map(str, e))] = f"{c.numerator}/{c.denominator}"
        else:
            for e in sorted(comp, key=lambda t: (sum(t), t), reverse=True):
                entry[",".join(map(str, e))] = repr(comp[e])
        comps.append(entry)
    doc = {
        "n": the_map.sphere_dim,
        "m": the_map.m,
        "lambda": the_map.eigenvalue,
        "exact": the_map.exact,
        "components": comps,
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return out_path


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------

def _maps_export(sc: Scenario, out_dir: Path,
                 fmt: str) -> tuple[list[dict], list[str]]:
    checks, the_map = _maps_construct(sc)
    path = export_map_json(the_map, out_dir / "map.json")
    checks.append(_check("map_exported", True, witness=str(path)))
    return checks, [str(path)]


def _no_artifacts(mode_fn):
    return lambda sc, out_dir, fmt: (mode_fn(sc), [])


# (suite, mode) -> f(scenario, out_dir, fmt) -> (checks, artifact paths)
_MODES = {
    ("families", "verify"): _no_artifacts(_families_verify),
    ("families", "sample"): _families_sample,
    ("families", "period"): _no_artifacts(_families_period),
    ("families", "winding"): _no_artifacts(_families_winding),
    ("calabi", "residual"): _no_artifacts(_calabi_residual),
    ("calabi", "branches"): _no_artifacts(_calabi_branches),
    ("calabi", "extract"): _no_artifacts(_calabi_extract),
    ("harmonic", "identities"): _no_artifacts(_harmonic_identities),
    ("harmonic", "spectrum"): _no_artifacts(_harmonic_spectrum),
    ("harmonic", "dims"): _no_artifacts(_harmonic_dims),
    ("maps", "kernel"): _no_artifacts(_maps_kernel),
    ("maps", "construct"): _no_artifacts(lambda sc: _maps_construct(sc)[0]),
    ("maps", "verify"): _no_artifacts(_maps_verify),
    ("maps", "export"): _maps_export,
}


def run(sc: Scenario, out_dir: Path | None = None, fmt: str = "csv") -> dict:
    """Execute a scenario and assemble its report."""
    out_dir = Path(out_dir) if out_dir else Path(".")
    t0 = time.perf_counter()
    checks, artifacts = _MODES[(sc.suite, sc.mode)](sc, out_dir, fmt)
    report = {
        "scenario": sc.echo(),
        "seed": sc.seed,
        "checks": checks,
        "overall": "pass" if all(c["status"] == "pass" for c in checks) else "fail",
    }
    if artifacts:
        report["artifacts"] = artifacts
    report["runtime_seconds"] = round(time.perf_counter() - t0, 6)
    return report


def report_body(report: dict) -> str:
    """Deterministic serialization of the report minus the runtime field."""
    body = {k: v for k, v in report.items() if k != "runtime_seconds"}
    return json.dumps(body, indent=2, sort_keys=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="densitylab",
        description="verification suites for prescribed-density extremals")
    parser.add_argument("suite", choices=sorted(SUITES))
    parser.add_argument("mode")
    parser.add_argument("--config", type=Path, default=None,
                        help="scenario JSON document")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="output directory for reports and tables")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--format", choices=("csv", "json"), default="json",
                        dest="fmt", help="artifact format where applicable")
    args = parser.parse_args(argv)

    try:
        doc = {}
        if args.config is not None:
            try:
                doc = json.loads(args.config.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise UsageError(f"cannot read config {args.config}: {exc}")
        doc.setdefault("suite", args.suite)
        doc.setdefault("mode", args.mode)
        if doc["suite"] != args.suite or doc["mode"] != args.mode:
            raise UsageError("config suite/mode disagree with command line")
        if args.seed is not None:
            doc["seed"] = args.seed
        sc = Scenario.from_config(doc)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run(sc, args.out, fmt=args.fmt)
    except DensityLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    args.out.mkdir(parents=True, exist_ok=True)
    report_path = args.out / f"report_{sc.suite}_{sc.mode}.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for check in report["checks"]:
        res = f'  max_residual={check["max_residual"]:.3g}' \
            if "max_residual" in check else ""
        print(f'[{check["status"].upper():4}] {check["name"]}{res}')
    print(f'report: {report_path}')
    return 0 if report["overall"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
