"""Batch front end: scenario configs in, machine-readable reports out.

A scenario is a single JSON document:

    {"suite": "families", "mode": "verify", "params": {...},
     "grid": {"x_min": ..., "x_max": ..., "y_min": ..., "y_max": ...,
              "nx": ..., "ny": ...},
     "tolerances": {...}, "seed": 42}

The command is ``densitylab <suite> <mode>``.  ``_MODES`` declares each
mode's handler, parameters {name: (kind, default)} and grid keys; documents
are checked against it, and the report echoes the document as written.

Exit codes: 0 all checks pass, 1 some check failed, 2 invalid usage (one
stderr line, ``error: <class>: <message>``).
Reports are deterministic for a fixed scenario and seed: the report body
(everything except the runtime field) is byte-identical across runs.
Rational numbers are serialized as "numerator/denominator" strings.

Each handler imports the suite module it runs, and numpy where it makes
arrays.  ``Scenario.from_config`` imports the module of the document's
suite, so a fresh process pays for that import before its first verdict,
and for no other suite's.  ``argparse`` is imported by ``main`` and ``csv``
by ``families sample``'s writer, where they are used.  Beyond what ``import
json, sys`` loads, a harmonic document's process then loads only
``fractions`` (with ``decimal`` and ``numbers``), ``__future__`` and
densitylab's ``cli``, ``errors``, ``tolerances`` and ``harmonic``: no numpy,
and none of ``dataclasses``, ``inspect``, ``argparse`` or ``csv``.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import cached_property
from importlib import import_module
from itertools import islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import DensityLabError, UsageError
from .tolerances import TOL_ALG, TOL_INTEGRAL, TOL_QUAD

DEFAULT_TOLERANCES = {
    "algebraic": TOL_ALG,
    "quadrature": TOL_QUAD,
    "integral_spread": TOL_INTEGRAL,
    "winding": 1e-3,
    "energy": 1e-9,
}


class Kind(NamedTuple):
    """A kind of scenario value: its name, its test, how handlers read it."""
    text: str
    accepts: Callable[[object], bool]
    read: Callable = lambda value: value


INTEGER = Kind("integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
REAL = Kind("real", lambda v: isinstance(v, float) or INTEGER.accepts(v), float)


def _at_least(low: int) -> Kind:
    return Kind(f"integer >= {low}", lambda v: INTEGER.accepts(v) and v >= low)


def _list_of(kind: Kind, length: int | None = None) -> Kind:
    """A non-empty list of kind, of the given length if one is given.  It is
    read as written, so labels built from its entries echo the document."""
    text = (f"[{', '.join([kind.text] * length)}]" if length
            else f"non-empty list of {kind.text}")
    return Kind(text, lambda v: (isinstance(v, (list, tuple)) and len(v) > 0
                                 and len(v) == (length or len(v))
                                 and all(map(kind.accepts, v))))


def _one_of(*names: str) -> Kind:
    return Kind(f"one of {', '.join(names)}",
                lambda v: isinstance(v, str) and v in names)


_OBJECT = Kind("JSON object", lambda v: isinstance(v, dict))


def _read(where: str, doc, spec: dict) -> dict:
    """doc read against spec {name: (kind, default)}, defaults filled in;
    UsageError for an unknown key or a value of the wrong kind."""
    if not isinstance(doc, dict):
        raise UsageError(f"{where} must be a JSON object, got {doc!r}")
    for name, value in doc.items():
        if name not in spec:
            raise UsageError(f"{where}: unknown key {name!r}; "
                             f"expected {', '.join(spec) or 'none'}")
        if not spec[name][0].accepts(value):
            raise UsageError(f"{where}: {name} is {value!r}; "
                             f"expected {spec[name][0].text}")
    return {name: kind.read(doc[name]) if name in doc else default
            for name, (kind, default) in spec.items()}


class Scenario:
    """A document's suite and mode, its params and grid as written, its
    tolerances and its seed."""

    _fields = ("suite", "mode", "params", "grid", "tolerances", "seed")

    def __init__(self, suite: str, mode: str, params: dict | None = None,
                 grid: dict | None = None, tolerances: dict | None = None,
                 seed: int = 0):
        self.suite, self.mode, self.seed = suite, mode, seed
        self.params = {} if params is None else params
        self.grid = {} if grid is None else grid
        self.tolerances = {} if tolerances is None else tolerances

    def __repr__(self) -> str:
        items = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"Scenario({items})"

    def __eq__(self, other) -> bool:
        if type(other) is not Scenario:
            return NotImplemented
        return all(getattr(self, n) == getattr(other, n) for n in self._fields)

    @staticmethod
    def from_config(doc) -> "Scenario":
        """The scenario of a document checked against the mode table."""
        top = _read("scenario", doc, _SCENARIO)
        suite = top["suite"]
        if suite is None:
            raise UsageError(f"scenario has no suite; expected {', '.join(SUITES)}")
        mode = SUITES[suite][0] if top["mode"] is None else top["mode"]
        if mode not in SUITES[suite]:
            raise UsageError(f"unknown mode {mode!r} for suite {suite!r}")
        tol = _read("tolerances", top["tolerances"], _TOLERANCES)
        sc = Scenario(suite, mode, dict(top["params"]), dict(top["grid"]), tol,
                      top["seed"])  # copies: the defaults in _SCENARIO are shared
        sc.args  # reads params and grid now, so a bad value fails here
        module = f"{__package__}.{_SUITE_MODULES[suite]}"
        if module not in sys.modules:   # set-up, not a verdict, pays for it
            import_module(module)
        return sc

    @cached_property
    def args(self) -> dict:
        """params and grid read against the mode's declaration."""
        mode, where = _MODES[(self.suite, self.mode)], f"{self.suite} {self.mode}"
        return {**_read(f"params of {where}", self.params, mode.params),
                **_read(f"grid of {where}", self.grid, mode.grid)}


def _check(name: str, passed: bool, max_residual=None, exact=None, witness=None):
    rec = {"name": name, "status": "pass" if passed else "fail"}
    if max_residual is not None:
        rec["max_residual"] = float(max_residual)
    if exact is not None:
        rec["exact"] = bool(exact)
    if witness is not None:
        rec["witness"] = witness
    return rec


def _tally(counts: Counter) -> str:
    """' (name count, ...)' in name order; empty when there are none."""
    return " (" + ", ".join(f"{n} {k}" for n, k in sorted(counts.items())) + ")" \
        if counts else ""


def _grid_keys(count: int) -> dict:
    """The grid of a mode that reads one: x and y ranges, count x count points."""
    return {"x_min": (REAL, 0.5), "x_max": (REAL, 3.0), "y_min": (REAL, 0.0),
            "y_max": (REAL, 2.0 * math.pi),
            "nx": (_at_least(2), count), "ny": (_at_least(2), count)}


def _grid_points(p: dict) -> tuple[list[float], list[float]]:
    x0, x1, nx = p["x_min"], p["x_max"], p["nx"]
    y0, y1, ny = p["y_min"], p["y_max"], p["ny"]
    xs = [x0 + (x1 - x0) * i / (nx - 1) for i in range(nx)]
    ys = [y0 + (y1 - y0) * j / (ny - 1) for j in range(ny)]
    return xs, ys


# family name -> the family of a sample scenario, made by minimal_graphs;
# c defaults per family
_FAMILIES = {
    "constant": lambda mg, p: mg.ConstantPlane(2.0 if p["c"] is None else p["c"]),
    "scherk": lambda mg, p: mg.ScherkFifth(),
    "helicatenoid": lambda mg, p: mg.HeliCatenoid(p["phi"]),
    "doubly_periodic": lambda mg, p: mg.DoublyPeriodic(
        p["a"], 1.0 if p["c"] is None else p["c"]),
}


# ----------------------------------------------------------------------
# families suite
# ----------------------------------------------------------------------

def _grid(*axes) -> list[np.ndarray]:
    """The points of the product grid of the axes, the last axis fastest."""
    import numpy as np
    return [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]


def _families_verify(sc: Scenario) -> list[dict]:
    import numpy as np
    from . import minimal_graphs as mg
    p, tol = sc.args, sc.tolerances
    # Scherk's grid lies between x_min and x_max; nearer to x = 0 than the
    # margin its closed-form jets overflow, while its identities still hold
    if not (p["x_min"] >= mg.DOMAIN_MARGIN and p["x_max"] >= mg.DOMAIN_MARGIN):
        raise UsageError(f"grid of families verify: x_min {p['x_min']!r} and x_max "
                         f"{p['x_max']!r} must both be at least the domain margin "
                         f"{mg.DOMAIN_MARGIN!r}")
    checks = []
    # a non-finite value fails its check: every worst value is taken by a
    # numpy reduction, which keeps a nan that Python's max would drop, so
    # numpy's warnings about such values are not needed
    with np.errstate(all="ignore"):
        # Scherk: closed-form jets on a psi x x x y grid, as one batch of shape
        # (psi, x, y) broadcast from its three axes, so that cos(y + psi) runs
        # once per (psi, y) and sinh x once per x; raveled in psi, x, y order
        xs, ys = _grid_points(p)
        psis = p["psi_values"]
        psi, x, y = (np.reshape(axis, shape) for axis, shape in
                     ((psis, (-1, 1, 1)), (xs, (1, -1, 1)), (ys, (1, 1, -1))))
        uj = mg.scherk_u_jet(x, y, psi, order=2)
        r = np.abs(mg.minimal_residual(uj)).ravel()
        # 1 + |grad u|^2 = coth^2 x relative to coth^2 x, near 1/x^2 at the edge
        coth2 = 1.0 / np.tanh(x) ** 2
        d = np.abs(1.0 + uj.dx ** 2 + uj.dy ** 2 - coth2) / coth2
        # the first largest (or first nan) residual in psi, x, y loop order;
        # none if all are 0
        k = int(np.argmax(r))
        worst_res, worst_den = float(r[k]), float(np.max(d))
        at = None
        if worst_res != 0.0:
            i, j, l = np.unravel_index(k, (len(psis), len(xs), len(ys)))
            at = (psis[i], xs[j], ys[l])
        checks.append(_check("scherk_minimal_residual", worst_res < tol["algebraic"],
                             worst_res, witness=str(at)))
        checks.append(_check("scherk_density_identity", worst_den < 1e-10, worst_den))

        # doubly periodic: first integrals and closure system on the grid points
        # of the domain, as one batch
        fam = mg.DoublyPeriodic(p["a"], p["c"])
        fam.validate()
        x, y = _grid([0.2 + 0.15 * i for i in range(12)],
                     [-1.0 + 0.17 * j for j in range(12)])
        inside = fam.contains(x, y)
        if inside.any():
            C = mg.family_C_jet(fam, x[inside], y[inside])
            fi = mg.first_integrals(C)
            spread = float(np.max([np.ptp(v) for v in (fi.a1, fi.a2, fi.a3)]))
            worst_sys = float(np.max(np.abs(mg.c_system_residual(C))))
            checks.append(_check("dp_first_integral_spread",
                                 spread < tol["integral_spread"], spread))
            checks.append(_check("dp_closure_system", worst_sys < 1e-10, worst_sys))
        else:
            empty = "no point of the 12 x 12 grid lies in the domain"
            checks.append(_check("dp_first_integral_spread", False, witness=empty))
            checks.append(_check("dp_closure_system", False, witness=empty))

        # heli-catenoid: both branches solve the slope relation on four probes,
        # as one batch; validating first keeps the scalar loop's error order
        heli = mg.HeliCatenoid(p["phi"])
        heli.validate()
        mj = mg.mu_jet(heli, np.array([1.0, 0.8, 1.4, 2.0]),
                       np.array([0.2, -0.5, 1.0, 0.0]), order=2)
        data = mg.compatibility_data(mj)
        worst_plug = float(np.max([
            (np.abs(data.coef_cos * c2 + data.coef_sin * s2 - data.rhs),
             np.abs(c2 * c2 + s2 * s2 - 1.0))
            for c2, s2 in mg.two_theta_solutions(mj)]))
        checks.append(_check("heli_branch_residual", worst_plug < tol["algebraic"],
                             worst_plug))
    return checks


def _families_period(sc: Scenario) -> list[dict]:
    from . import minimal_graphs as mg
    tol = sc.tolerances
    checks = []
    for (a, c) in sc.args["pairs"]:
        tag = f"a={a},c={c}"
        try:
            # the three periods of period_sigma, on one loop: each node of
            # the pair's throat loop is evaluated once for all of them
            loop = mg._ThroatLoop(a, c)
            lam = loop.period(1, tol["quadrature"], 64)
            lam2 = loop.period(1, tol["quadrature"], 1024)
            lamf = loop.period(-1, tol["quadrature"], 64)
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
    from . import minimal_graphs as mg
    tol = sc.tolerances
    R = sc.args["rectangle_half_width"]
    for (a, _) in sc.args["pairs"]:
        mg.require_rectangle(a, R)   # a rectangle no float can sample: exit 2
    checks = []
    for (a, c) in sc.args["pairs"]:
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
    import numpy as np
    from . import minimal_graphs as mg
    from .jets import masked_errstate
    if name == "F":
        values = mg.density_value(fam, x, y)
    else:
        mj = mg.mu_jet(fam, x, y, order=2, status=status)
        if name in _SLOPE_FIELDS:
            branch, part = _SLOPE_FIELDS[name]
            values = mg.two_theta_solutions(mj, status)[branch][part]
        else:
            with masked_errstate(status):
                data = mg.compatibility_data(mj)
            values = data.P if name == "P" else data.Delta
    return np.broadcast_to(values, x.shape)


def _write_field(rows: list, field_name: str, out_path: Path, fmt: str) -> Path:
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        out_path.write_text(json.dumps({"field": field_name, "rows": rows}) + "\n")
        return out_path
    import csv
    with out_path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", field_name])
        for x, y, v in rows:
            w.writerow([f"{x:.12g}", f"{y:.12g}", f"{v:.15g}"])
    return out_path


def _families_sample(sc: Scenario, out_dir: Path,
                     fmt: str = "csv") -> tuple[list[dict], list[str]]:
    """The field over the scenario grid, [x, y, value] in y-major order where
    defined, written as a table; the witness counts dropped points per reason."""
    import numpy as np
    from . import minimal_graphs as mg
    from .jets import BatchStatus
    p, name = sc.args, sc.args["field"]
    fam = _FAMILIES[p["family"]](mg, p)
    fam.validate()   # before contains, which a non-finite phi would crash
    xs, ys = _grid_points(p)
    y, x = _grid(ys, xs)
    inside = np.broadcast_to(fam.contains(x, y), x.shape)
    x, y = x[inside], y[inside]
    status = BatchStatus(x.size)
    values = _field_values(fam, name, x, y, status)
    ok = ~status.failed
    rows = np.column_stack((x[ok], y[ok], values[ok])).tolist()
    dropped = +Counter({"outside the domain": int(np.sum(~inside))})
    dropped.update(err.__name__ for err in status.errors if err is not None)
    fmt = "json" if fmt == "json" else "csv"
    path = _write_field(rows, name, out_dir / f"field_{name}.{fmt}", fmt)
    witness = f"{path}; {sum(dropped.values())} grid points dropped{_tally(dropped)}"
    return [_check(f"sample_emitted[{name}]", True, witness=witness)], [str(path)]


# ----------------------------------------------------------------------
# calabi suite
# ----------------------------------------------------------------------

def _calabi_residual(sc: Scenario) -> list[dict]:
    from . import calabi
    from .jets import Jet
    checks = []
    z_lin = Jet(0.3, dx=0.9, dy=0.8, order=2)
    r = calabi.el_residual(z_lin)
    checks.append(_check("linear_extremal_exact", r == 0.0, abs(r), exact=True))
    rng = random.Random(sc.seed)
    worst = 0.0
    for _ in range(sc.args["probes"]):
        phi = rng.uniform(0.1, math.pi / 4 - 0.1)
        th = rng.uniform(-0.3, 0.3)
        gp = calabi.ellipse_param(phi, th)
        res = abs(calabi.lagrangian_L(gp) - 1.0 / math.sin(2.0 * phi))
        worst = max(worst, res)
    checks.append(_check("prescribed_density_on_ellipse", worst < 1e-10, worst))
    return checks


def _calabi_branches(sc: Scenario) -> list[dict]:
    import numpy as np
    from . import calabi
    from .jets import Jet
    rng = random.Random(sc.seed)
    n = sc.args["trials"]
    # per trial, in this order: phi's value, dx, dy, dxx, dxy, dyy
    draws = [[rng.uniform(0.15, math.pi / 4 - 0.15)]
             + [rng.uniform(-0.3, 0.3) for _ in range(5)] for _ in range(n)]
    phij = Jet(*np.array(draws, dtype=float).reshape(-1, 6).T, order=2)
    outcomes = calabi.candidates_batch(phij)
    counts = [len(o) for o in outcomes if isinstance(o, list)]
    skipped = Counter(o.__name__ for o in outcomes if isinstance(o, type))
    max_count = max(counts, default=0)
    witness = (f"max count {max_count} over {n} trials; {len(counts)} used, "
               f"{sum(skipped.values())} skipped{_tally(skipped)}")
    return [_check("at_most_two_candidates", bool(counts) and max_count <= 2,
                   witness=witness)]


def _calabi_extract(sc: Scenario) -> list[dict]:
    from . import calabi
    from .jets import Jet
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
    from . import harmonic
    p, checks = sc.args, []
    for n in p["dims"]:
        for d in range(1, p["max_degree"] + 1):
            try:
                harmonic.identity_suite(n, d, p["trials"], seed=sc.seed)
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
    from . import harmonic
    p, checks = sc.args, []
    need = max((_deciding_m_max(n, p["lambda_max"]) for n in p["dims"] if n >= 3),
               default=0)
    if p["m_max"] < need:
        raise UsageError(f"params of harmonic spectrum: m_max is {p['m_max']}; "
                         f"lambda_max {p['lambda_max']} on dims {p['dims']} "
                         f"needs m_max >= {need} to decide every eigenvalue")
    for n in p["dims"]:
        ok = True
        witness = None
        for lam in range(p["lambda_max"] + 1):
            spec = harmonic.SpectralParams(n, Fraction(1), Fraction(lam))
            m = harmonic.admissible_lambda(spec)
            terms = islice(harmonic._a_terms(spec), p["m_max"] + 1)
            if m is not None:
                # A_0..A_m positive, then zeros to the end; lambda = 0 gives
                # m = 0 and zeros from index 1
                vals = list(terms)
                good = (len(vals) > m + 1 and all(v > 0 for v in vals[:m + 1])
                        and not any(vals[m + 1:]))
            else:
                # decided at the first negative term
                good = any(v < 0 for v in terms)
            if not good:
                ok = False
                witness = f"lambda={lam}"
                break
        checks.append(_check(f"dichotomy[n={n}]", ok, exact=True, witness=witness))
    return checks


def _deciding_m_max(n: int, lam_max: int) -> int:
    """The fewest terms A_1..A_m_max that decide every lambda <= lam_max on
    R^n with K = 1: k + 1, k the least integer with k(n + k - 1) >= lam_max.
    A_(k+1) is the first zero of an admissible lambda = k(n + k - 1), and
    the first negative term of any lambda between (k-1)(n + k - 2) and it."""
    k = 0
    while k * (n + k - 1) < lam_max:
        k += 1
    return k + 1


def _harmonic_dims(sc: Scenario) -> list[dict]:
    from . import harmonic
    checks = []
    worst = None
    ok = True
    for n_amb in sc.args["ambient_dims"]:
        for m in range(0, sc.args["max_degree"] + 1):
            formula = harmonic.dim_harmonics(n_amb, m)
            brute = _brute_harmonic_dim(n_amb, m)
            if formula != brute:
                ok = False
                worst = f"(n={n_amb}, m={m}): {formula} != {brute}"
    checks.append(_check("dimension_formula", ok, exact=True, witness=worst))
    return checks


def _brute_harmonic_dim(n_amb: int, m: int) -> int:
    """dim ker(Laplacian: P_m -> P_(m-2)), from the Laplacian's matrix.

    Column j is the Laplacian of monomial j, with integer coefficients; the
    kernel dimension is the column count minus the exact rank.  The rank is
    certified by the square minor on the columns x_0^2 x^beta, beta of
    degree m - 2: the Laplacian of x_0^2 x^beta is (beta_0+2)(beta_0+1) x^beta
    plus terms with a higher power of x_0, so with rows and columns ordered
    by the exponent of x_0 the minor is triangular with a nonzero diagonal,
    and the rank is the row count.  That structure is checked on the
    columns built; only where it fails is the rank taken, by the exact
    elimination of sphere_maps (which loads numpy) on the columns.
    """
    from . import harmonic
    monos = harmonic._packed_monomials(n_amb, m)
    if m < 2:
        return len(monos)
    targets = harmonic._packed_monomials(n_amb, m - 2)
    # column j holds d_i^2 x^(e_j) at row t for each (t, i) with e_j = t + 2 u_i
    columns: list[dict[int, int]] = [{} for _ in monos]
    _, mults, positions = harmonic._lowering(n_amb, m, 2)
    for k, (j, v) in enumerate(zip(positions, mults)):
        columns[j][k // n_amb] = v
    top = harmonic._shifts(n_amb)[0]   # key >> top is the exponent of x_0
    place = harmonic._place(n_amb, m)
    for row, beta in enumerate(targets):
        b0, col = beta >> top, columns[place[beta + (2 << top)]]
        if col.get(row) != (b0 + 2) * (b0 + 1) \
                or any(targets[r] >> top <= b0 for r in col if r != row):
            break
    else:
        return len(monos) - len(targets)
    from . import sphere_maps as sm
    core = sm._IntegerRref()   # the rank of the columns is the rank of the matrix
    for col in columns:
        core.add(col)
    return len(monos) - len(core.pivots)


# ----------------------------------------------------------------------
# maps suite
# ----------------------------------------------------------------------

def _maps_kernel(sc: Scenario) -> list[dict]:
    from . import sphere_maps as sm
    checks = []
    for (n_amb, m) in sc.args["cases"]:
        rep = sm.nonuniqueness_report(n_amb, m)
        name = f"kernel[n_ambient={n_amb},m={m}]"
        checks.append(_check(name, True, exact=True,
                             witness=json.dumps(rep, sort_keys=True)))
    return checks


def _maps_construct(sc: Scenario) -> tuple[list[dict], sm.SphericalHarmonicMap]:
    from . import sphere_maps as sm
    n_amb, m = sc.args["n_ambient"], sc.args["m"]
    if (m == 1) or (n_amb, m) == (4, 2):
        the_map = sm.canonical_exact_map(n_amb, m)
    else:
        basis = sm.basis_Hm(n_amb, m)
        sm._require_sphere_dim_above_2(n_amb)
        the_map = sm.construct_map(sm.scaled_identity_gram(basis), basis)
    # either route returns a map only once its sum of squares is R^m exactly;
    # each component is a nonzero multiple of its step's polynomial
    harm = all(f.analyst_laplacian().is_zero() for f, _, _ in the_map.steps)
    checks = [_check("sum_of_squares_exact", True, exact=True),
              _check("components_harmonic", harm, exact=True)]
    lam = the_map.eigenvalue
    pts = sm.random_sphere_points(n_amb, sc.args["points"], sc.seed)
    worst = abs(sm.energy_density(the_map, pts) - lam).max()
    checks.append(_check("energy_density_constant",
                         worst < sc.tolerances["energy"], worst,
                         witness=f"eigenvalue {lam}"))
    return checks, the_map


def _maps_verify(sc: Scenario) -> list[dict]:
    from . import sphere_maps as sm
    n_amb, m = sc.args["n_ambient"], sc.args["m"]
    basis = sm.basis_Hm(n_amb, m)
    G0, kernel = sm.solve_h_equals_Rm(n_amb, m, basis)
    checks = []
    base_ok = basis._blocks.h(*G0.numerators()) == sm.radius_power(n_amb, m)
    checks.append(_check("base_point_exact", base_ok, exact=True))
    # reports the kernel dimension that solve_h_equals_Rm certified by exact
    # block ranks; it builds no kernel element, so checks no h(k) = 0
    checks.append(_check("kernel_annihilates", True, exact=True,
                         witness=f"dimension {kernel.dimension}"))
    if not base_ok:   # construct_map refuses such a G0
        checks.append(_check("constructed_energy", False,
                             witness="not run: h(G0) != R^m"))
        return checks
    the_map = sm.construct_map(G0, basis)
    pts = sm.random_sphere_points(n_amb, 50, sc.seed)
    worst = abs(sm.energy_density(the_map, pts) - the_map.eigenvalue).max()
    checks.append(_check("constructed_energy", worst < sc.tolerances["energy"],
                         worst))
    return checks


def export_map_json(the_map: sm.SphericalHarmonicMap, out_path: Path) -> Path:
    """Serialize a map: each coefficient as a "num/den" string."""
    comps = [{",".join(map(str, e)): f"{c.numerator}/{c.denominator}"
              for e, c in comp.sorted_terms()}
             for comp in the_map.components]
    # top-level keys in alphabetical order; each component's monomials in
    # sorted_terms() order, which sorting the keys would lose
    doc = {
        "components": comps,
        "exact": True,   # kept so the format keeps its keys
        "lambda": the_map.eigenvalue,
        "m": the_map.m,
        "n": the_map.sphere_dim,
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(_json_text(doc, sort_keys=False) + "\n")
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


class _Mode(NamedTuple):
    run: Callable       # f(scenario, out_dir, fmt) -> (checks, artifact paths)
    params: dict        # name -> (kind, default)
    grid: dict = {}     # grid key -> (kind, default); empty: the mode reads no grid


def _checks(mode_fn, params: dict, grid: dict = {}) -> _Mode:
    """A mode that writes no artifacts: mode_fn(scenario) -> checks."""
    return _Mode(lambda sc, out_dir, fmt: (mode_fn(sc), []), params, grid)


_PAIRS = {"pairs": (_list_of(_list_of(REAL, 2)), [[1.0, 1.0], [0.8, 0.5]])}
_MAP = {"n_ambient": (_at_least(1), 4), "m": (INTEGER, 2)}
_MAP_POINTS = {**_MAP, "points": (_at_least(1), 100)}

# (suite, mode) -> handler, declared parameters and grid; the one table that
# dispatch, validation and the command line read
_MODES = {
    ("families", "verify"): _checks(_families_verify, {
        "psi_values": (_list_of(REAL), [0.0, 0.7, 1.4, 2.1, 2.8]),
        "a": (REAL, 1.0), "c": (REAL, 1.0), "phi": (REAL, math.pi / 4)},
        _grid_keys(25)),
    ("families", "sample"): _Mode(_families_sample, {
        "family": (_one_of(*_FAMILIES), "scherk"), "field": (_one_of(*_FIELDS), "F"),
        "a": (REAL, 1.0), "c": (REAL, None), "phi": (REAL, math.pi / 4)},
        _grid_keys(40)),
    ("families", "period"): _checks(_families_period, _PAIRS),
    ("families", "winding"): _checks(_families_winding, {
        **_PAIRS, "rectangle_half_width": (REAL, 8.0)}),
    ("calabi", "residual"): _checks(_calabi_residual, {"probes": (_at_least(1), 25)}),
    ("calabi", "branches"): _checks(_calabi_branches, {"trials": (_at_least(1), 500)}),
    ("calabi", "extract"): _checks(_calabi_extract, {}),
    ("harmonic", "identities"): _checks(_harmonic_identities, {
        "dims": (_list_of(INTEGER), [3]), "max_degree": (_at_least(1), 3),
        "trials": (_at_least(1), 50)}),
    ("harmonic", "spectrum"): _checks(_harmonic_spectrum, {
        "dims": (_list_of(INTEGER), [3, 4, 5]), "lambda_max": (_at_least(0), 40),
        "m_max": (INTEGER, 15)}),
    ("harmonic", "dims"): _checks(_harmonic_dims, {
        "ambient_dims": (_list_of(INTEGER), [3, 4, 5]), "max_degree": (_at_least(0), 6)}),
    ("maps", "kernel"): _checks(_maps_kernel, {
        "cases": (_list_of(_list_of(INTEGER, 2)),
                  [[4, 1], [4, 2], [5, 4], [6, 3], [6, 4], [7, 4], [9, 3]])}),
    ("maps", "construct"): _checks(lambda sc: _maps_construct(sc)[0], _MAP_POINTS),
    ("maps", "verify"): _checks(_maps_verify, _MAP),
    ("maps", "export"): _Mode(_maps_export, _MAP_POINTS),
}

# suite -> its modes, the first being the default
SUITES = {suite: tuple(m for s, m in _MODES if s == suite) for suite, _ in _MODES}
# suite -> the module its verdicts run, imported by Scenario.from_config
_SUITE_MODULES = {"families": "minimal_graphs", "calabi": "calabi",
                  "harmonic": "harmonic", "maps": "sphere_maps"}

_SCENARIO = {"suite": (_one_of(*SUITES), None),
             "mode": (Kind("string", lambda v: isinstance(v, str)), None),
             "params": (_OBJECT, {}), "grid": (_OBJECT, {}),
             "tolerances": (_OBJECT, {}), "seed": (INTEGER, 0)}
_POSITIVE = Kind("real > 0", lambda v: REAL.accepts(v) and v > 0, float)
_TOLERANCES = {name: (_POSITIVE, value) for name, value in DEFAULT_TOLERANCES.items()}


def run(sc: Scenario, out_dir: Path | None = None, fmt: str = "csv") -> dict:
    """Execute a scenario and assemble its report."""
    out_dir = Path(out_dir) if out_dir else Path(".")
    t0 = time.perf_counter()
    checks, artifacts = _MODES[(sc.suite, sc.mode)].run(sc, out_dir, fmt)
    report = {
        "scenario": {name: getattr(sc, name) for name in sc._fields},
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
    return _json_text({k: v for k, v in report.items() if k != "runtime_seconds"})


def _json_text(value, sort_keys: bool = True) -> str:
    """json.dumps(value, indent=2, sort_keys=sort_keys), byte for byte, for
    the values a report or an exported map holds: dicts with str keys,
    lists, tuples, str, int, float (nan and infinities included), bool and
    None.

    With an indent, json.dumps runs its pure-Python encoder, whose nested
    closures refer to each other: each call leaves a reference cycle that
    only the cycle collector frees.  This writer leaves none."""
    out: list[str] = []
    _write_json(value, "\n", out, sort_keys)
    return "".join(out)


def _write_json(value, newline: str, out: list[str], sort_keys: bool) -> None:
    """Append the text of value to out; newline is a line break followed
    by the indent of the line where value starts."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append("NaN" if value != value else "Infinity" if value == math.inf
                   else "-Infinity" if value == -math.inf else float.__repr__(value))
    elif isinstance(value, (list, tuple, dict)):
        if not value:
            out.append("{}" if isinstance(value, dict) else "[]")
            return
        inner = newline + "  "
        if isinstance(value, dict):
            sep = "{" + inner
            for key in sorted(value) if sort_keys else value:
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                out.append(sep + encode_basestring_ascii(key) + ": ")
                _write_json(value[key], inner, out, sort_keys)
                sep = "," + inner
            out.append(newline + "}")
        else:
            sep = "[" + inner
            for item in value:
                out.append(sep)
                _write_json(item, inner, out, sort_keys)
                sep = "," + inner
            out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def main(argv: list[str] | None = None) -> int:
    import argparse
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
            except (OSError, ValueError) as exc:
                raise UsageError(f"cannot read config {args.config}: {exc}")
        if isinstance(doc, dict):   # from_config refuses any other document
            doc = {"suite": args.suite, "mode": args.mode, **doc}
            if (doc["suite"], doc["mode"]) != (args.suite, args.mode):
                raise UsageError("config suite/mode disagree with command line")
            if args.seed is not None:
                doc["seed"] = args.seed
        sc = Scenario.from_config(doc)
        report = run(sc, args.out, fmt=args.fmt)
    except DensityLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    args.out.mkdir(parents=True, exist_ok=True)
    report_path = args.out / f"report_{sc.suite}_{sc.mode}.json"
    report_path.write_text(_json_text(report) + "\n")
    for check in report["checks"]:
        res = f'  max_residual={check["max_residual"]:.3g}' \
            if "max_residual" in check else ""
        print(f'[{check["status"].upper():4}] {check["name"]}{res}')
    print(f'report: {report_path}')
    return 0 if report["overall"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
