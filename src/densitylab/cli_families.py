"""The families suite's handlers: minimal graphs with a prescribed area
density, on numpy batches.  Imported by cli once a document names the suite."""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from . import minimal_graphs as mg
from .cli import _FAMILIES, _SLOPE_FIELDS, Scenario, _check, _tally
from .errors import DensityLabError, UsageError
from .jets import BatchStatus, masked_errstate


def _grid_points(p: dict) -> tuple[list[float], list[float]]:
    x0, x1, nx = p["x_min"], p["x_max"], p["nx"]
    y0, y1, ny = p["y_min"], p["y_max"], p["ny"]
    xs = [x0 + (x1 - x0) * i / (nx - 1) for i in range(nx)]
    ys = [y0 + (y1 - y0) * j / (ny - 1) for j in range(ny)]
    return xs, ys



def _grid(*axes) -> list[np.ndarray]:
    """The points of the product grid of the axes, the last axis fastest."""
    return [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]


def _families_verify(sc: Scenario) -> list[dict]:
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
    tol = sc.tolerances
    checks = []
    for (a, c) in sc.args["pairs"]:
        tag = f"a={a},c={c}"
        try:
            # the three periods of period_sigma, on one loop: the nodes of
            # the finest level they read are evaluated once, in one pass
            lam, lam2, lamf = mg._ThroatLoop(a, c).periods(
                tol["quadrature"], (1, 64), (1, 1024), (-1, 64))
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


def _field_values(fam: mg.DensityFamily, name: str, x: np.ndarray, y: np.ndarray,
                  status: BatchStatus) -> np.ndarray:
    """The field at domain points, as one batch; status masks the points
    where a guard fails."""
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


def _read_field(path: Path, fmt: str) -> list:
    """The rows of a table that _write_field wrote, as read back."""
    if fmt == "json":
        return json.loads(path.read_text())["rows"]
    import csv
    with path.open(newline="") as fh:
        return list(csv.reader(fh))[1:]


def _families_sample(sc: Scenario, out_dir: Path,
                     fmt: str = "csv") -> tuple[list[dict], list[str]]:
    """The field over the scenario grid, [x, y, value] in y-major order where
    defined, written as a table; the witness counts dropped points per reason."""
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
    # the table read back holds a finite row per grid point kept
    written = _read_field(path, fmt)
    kept = len(xs) * len(ys) - sum(dropped.values())
    bad = sum(not math.isfinite(float(v)) for row in written for v in row)
    if len(written) != kept:
        witness += f"; {len(written)} rows written of {kept} kept"
    if bad:
        witness += f"; {bad} non-finite values"
    return [_check(f"sample_emitted[{name}]", len(written) == kept and not bad,
                   witness=witness)], [str(path)]
