"""The maps suite's handlers: constant-energy maps between spheres and the
kernel of h.  Imported by cli once a document names the suite."""

from __future__ import annotations

import json
from math import comb
from pathlib import Path

from . import sphere_maps as sm
from .cli import Scenario, _check, export_map_json
from .poly import dim_harmonics


def _maps_kernel(sc: Scenario) -> list[dict]:
    # h maps onto the degree-2m polynomials (do Carmo & Wallach 1971), so the
    # certified dimension is D(D+1)/2 - dim P_2m, D = dim H_m; any other is
    # a defect
    checks = []
    for (n_amb, m) in sc.args["cases"]:
        rep = sm.nonuniqueness_report(n_amb, m)
        D = dim_harmonics(n_amb, m)
        onto = rep["kernel_dimension"] == D * (D + 1) // 2 - comb(n_amb + 2 * m - 1, 2 * m)
        checks.append(_check(f"kernel[n_ambient={n_amb},m={m}]", onto, exact=True,
                             witness=json.dumps(rep, sort_keys=True)))
    return checks


def _construct(sc: Scenario) -> tuple[list[dict], sm.SphericalHarmonicMap]:
    """The checks of maps construct, and the map they checked."""
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


def _maps_construct(sc: Scenario) -> list[dict]:
    return _construct(sc)[0]


def _maps_verify(sc: Scenario) -> list[dict]:
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


def _maps_export(sc: Scenario, out_dir: Path,
                 fmt: str) -> tuple[list[dict], list[str]]:
    checks, the_map = _construct(sc)
    path = export_map_json(the_map, out_dir / "map.json")
    checks.append(_check("map_exported", True, witness=str(path)))
    return checks, [str(path)]
