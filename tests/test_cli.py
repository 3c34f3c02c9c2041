"""Scenario runner: dispatch, artifacts, exit codes, determinism."""

import ast
import contextlib
import csv
import gc
import importlib
import io
import json
import math
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from densitylab import cli, cli_calabi, cli_harmonic, harmonic as ha, minimal_graphs as mg, poly
from densitylab import sphere_maps as sm
from densitylab.errors import ParamViolation, UsageError


def test_scenario_validation():
    with pytest.raises(UsageError):
        cli.Scenario.from_config({"suite": "nope"})
    with pytest.raises(UsageError):
        cli.Scenario.from_config({"suite": "families", "mode": "bogus"})
    with pytest.raises(UsageError):
        cli.Scenario.from_config({"suite": "families", "grid": {"nx": 1}})
    with pytest.raises(UsageError):
        cli.Scenario.from_config({"suite": "families",
                                  "tolerances": {"algebraic": -1}})
    sc = cli.Scenario.from_config({"suite": "maps"})
    assert sc.mode == "kernel" and sc.seed == 0


def test_run_families_verify_passes():
    sc = cli.Scenario.from_config({
        "suite": "families", "mode": "verify",
        "grid": {"nx": 8, "ny": 8}, "seed": 1})
    report = cli.run(sc)
    assert report["overall"] == "pass"
    names = {c["name"] for c in report["checks"]}
    assert "scherk_minimal_residual" in names
    assert "dp_first_integral_spread" in names


def test_run_calabi_and_harmonic_modes():
    for suite, mode, params in [
        ("calabi", "residual", {}),
        ("calabi", "branches", {"trials": 40}),
        ("calabi", "extract", {}),
        ("harmonic", "identities", {"dims": [3], "max_degree": 2, "trials": 5}),
        ("harmonic", "spectrum", {"dims": [3], "lambda_max": 12}),
        ("harmonic", "dims", {"ambient_dims": [3, 4], "max_degree": 3}),
        ("maps", "kernel", {"cases": [[4, 1]]}),
        ("maps", "verify", {"n_ambient": 4, "m": 2}),
    ]:
        sc = cli.Scenario.from_config({"suite": suite, "mode": mode,
                                       "params": params, "seed": 7})
        report = cli.run(sc)
        assert report["overall"] == "pass", (suite, mode, report["checks"])


def test_calabi_branches_reports_used_and_skipped_trials():
    sc = cli.Scenario.from_config({"suite": "calabi", "mode": "branches",
                                   "params": {"trials": 30}, "seed": 3})
    (check,) = cli.run(sc)["checks"]
    assert check["status"] == "pass"
    assert check["witness"].startswith("max count 2 over 30 trials; 30 used, ")


class _BeyondRange:
    """A stand-in for random.Random whose draws all lie above their interval."""

    def __init__(self, seed):
        pass

    def uniform(self, lo, hi):
        return hi + 1.0


def test_calabi_branches_fails_when_no_trial_is_used(monkeypatch):
    # every phi value lands above pi/4, so every trial raises RangeViolation
    monkeypatch.setattr(cli_calabi, "random", SimpleNamespace(Random=_BeyondRange))
    sc = cli.Scenario.from_config({"suite": "calabi", "mode": "branches",
                                   "params": {"trials": 20}, "seed": 0})
    report = cli.run(sc)
    (check,) = report["checks"]
    assert check["status"] == "fail" and report["overall"] == "fail"
    assert check["witness"] == ("max count 0 over 20 trials; 0 used, "
                                "20 skipped (RangeViolation 20)")


def _sample(tmp_path, cfg: dict, fmt: str = "csv") -> Path:
    """The field table that families sample writes for cfg."""
    sc = cli.Scenario.from_config(cfg)
    (path,) = cli.run(sc, tmp_path, fmt)["artifacts"]
    return Path(path)


def test_emit_field_csv_matches_density(tmp_path):
    path = _sample(tmp_path, {
        "suite": "families", "mode": "sample",
        "params": {"family": "helicatenoid", "phi": math.pi / 4, "field": "F"},
        "grid": {"x_min": 0.8, "x_max": 1.6, "y_min": 0.0, "y_max": 0.8,
                 "nx": 5, "ny": 4}})
    fam = mg.HeliCatenoid(math.pi / 4)
    rows = list(csv.DictReader(path.read_text().splitlines()))
    assert rows, "csv should have data rows"
    prev_y = None
    for row in rows:
        x, y, v = float(row["x"]), float(row["y"]), float(row["F"])
        assert v == pytest.approx(mg.density_value(fam, x, y), abs=1e-12)
        if prev_y is not None:
            assert y >= prev_y - 1e-12  # y-major row order
        prev_y = y


def test_emit_field_json_matches_csv(tmp_path):
    cfg = {"suite": "families", "mode": "sample",
           "params": {"family": "scherk", "field": "F"},
           "grid": {"x_min": 0.5, "x_max": 1.5, "y_min": 0.0, "y_max": 1.0,
                    "nx": 4, "ny": 3}}
    csv_path = _sample(tmp_path, cfg, "csv")
    json_path = _sample(tmp_path, cfg, "json")
    doc = json.loads(json_path.read_text())
    csv_rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    assert len(doc["rows"]) == len(csv_rows) == 12
    for (x, y, v), row in zip(doc["rows"], csv_rows):
        assert x == pytest.approx(float(row["x"]))
        assert v == pytest.approx(float(row["F"]), rel=1e-12)


def test_emit_field_csv_constant_family(tmp_path):
    path = _sample(tmp_path, {
        "suite": "families", "mode": "sample",
        "params": {"family": "constant", "c": 2.5, "field": "F"},
        "grid": {"x_min": -1, "x_max": 1, "y_min": -1, "y_max": 1,
                 "nx": 4, "ny": 4}})
    values = {row["F"] for row in csv.DictReader(path.read_text().splitlines())}
    assert values == {"2.5"}


def test_sample_c_defaults_per_family(tmp_path):
    # c is 2.0 for the constant plane and 1.0 for the doubly periodic family
    grid = {"x_min": 0.5, "x_max": 1.5, "y_min": -1.0, "y_max": 1.0, "nx": 4, "ny": 3}
    path = _sample(tmp_path / "c", {"suite": "families", "mode": "sample",
                                    "params": {"family": "constant"}, "grid": grid})
    assert {r["F"] for r in csv.DictReader(path.read_text().splitlines())} == {"2"}
    tables = [_sample(tmp_path / f"dp{i}", {
        "suite": "families", "mode": "sample",
        "params": {"family": "doubly_periodic", "field": "P", **params},
        "grid": grid}).read_text() for i, params in enumerate([{}, {"c": 1.0}])]
    assert tables[0] == tables[1] and tables[0].count("\n") > 1


def test_emit_field_csv_discriminant_positive(tmp_path):
    path = _sample(tmp_path, {
        "suite": "families", "mode": "sample",
        "params": {"family": "doubly_periodic", "a": 1.0, "c": 1.0,
                   "field": "P"},
        "grid": {"x_min": -2.0, "x_max": 2.0, "y_min": 0.0,
                 "y_max": 2 * math.pi, "nx": 12, "ny": 12}})
    rows = list(csv.DictReader(path.read_text().splitlines()))
    assert rows
    assert all(float(r["P"]) > 0.0 for r in rows)


def test_export_map_json_exact(tmp_path):
    m = sm.canonical_exact_map(4, 1)
    path = cli.export_map_json(m, tmp_path / "id.json")
    doc = json.loads(path.read_text())
    assert doc["n"] == 3 and doc["m"] == 1 and doc["lambda"] == 3
    assert doc["exact"] is True
    assert len(doc["components"]) == 4
    for comp in doc["components"]:
        assert len(comp) == 1
        (key, val), = comp.items()
        assert val == "1/1" and key.count(",") == 3


def test_export_map_json_scaled_identity(tmp_path):
    b = sm.basis_Hm(4, 2)
    G0, _ = sm.solve_h_equals_Rm(4, 2, b)
    m = sm.construct_map(G0, b)
    path = cli.export_map_json(m, tmp_path / "g0.json")
    doc = json.loads(path.read_text())
    assert doc["exact"] is True and doc["lambda"] == 8
    assert len(doc["components"]) == 24
    assert list(doc) == ["components", "exact", "lambda", "m", "n"]
    # each "num/den" string is exactly its coefficient, and the monomials
    # come in sorted_terms() order
    for comp, entry in zip(m.components, doc["components"]):
        assert {k: Fraction(v) for k, v in entry.items()} == \
            {",".join(map(str, e)): c for e, c in comp.terms.items()}
        assert all(v.count("/") == 1 for v in entry.values())
        assert list(entry) == [",".join(map(str, e)) for e, _ in comp.sorted_terms()]


def test_report_body_deterministic():
    cfg = {"suite": "harmonic", "mode": "identities",
           "params": {"dims": [3], "max_degree": 2, "trials": 8}, "seed": 42}
    r1 = cli.run(cli.Scenario.from_config(cfg))
    r2 = cli.run(cli.Scenario.from_config(cfg))
    assert cli.report_body(r1) == cli.report_body(r2)
    assert "runtime_seconds" not in cli.report_body(r1)


def test_harmonic_dims_certifies_the_laplacian_by_its_triangular_minor(monkeypatch):
    fed = []   # per elimination core, the number of columns it was fed

    class Counting(sm._IntegerRref):
        def __init__(self):
            super().__init__()
            fed.append(0)

        def add(self, x):
            fed[-1] += 1
            return super().add(x)

    monkeypatch.setattr(sm, "_IntegerRref", Counting)
    assert cli_harmonic._brute_harmonic_dim(7, 8) == ha.dim_harmonics(7, 8) and fed == []
    # the geometer's sign puts -(b0+2)(b0+1) on the diagonal, so the check
    # fails and the rank of the same matrix comes from elimination
    lowering = poly._lowering

    def geometers(nvars, degree, step):
        get, mults, positions = lowering(nvars, degree, step)
        return get, tuple(-v for v in mults), positions

    monkeypatch.setattr(poly, "_lowering", geometers)
    assert cli_harmonic._brute_harmonic_dim(4, 5) == ha.dim_harmonics(4, 5)
    assert fed == [56]


def test_main_exit_codes(tmp_path, capsys):
    rc = cli.main(["harmonic", "dims", "--out", str(tmp_path),
                   "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert (tmp_path / "report_harmonic_dims.json").exists()

    rc = cli.main(["families", "bogus"])
    assert rc == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = cli.main(["families", "verify", "--config", str(bad)])
    assert rc == 2


def test_main_reports_failures(tmp_path):
    # the inadmissible parameter pair surfaces as a failed check, exit 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "suite": "families", "mode": "period",
        "params": {"pairs": [[1.0, 1.0], [1.5, 0.2]]}}))
    rc = cli.main(["families", "period", "--config", str(cfg),
                   "--out", str(tmp_path)])
    assert rc == 1
    report = json.loads((tmp_path / "report_families_period.json").read_text())
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["period_nonzero[a=1.0,c=1.0]"] == "pass"
    assert any(v == "fail" for v in statuses.values())


def test_families_verify_witness_reads_python_floats():
    sc = cli.Scenario.from_config({"suite": "families", "mode": "verify",
                                   "grid": {"nx": 6, "ny": 5}})
    check = cli.run(sc)["checks"][0]
    assert check["name"] == "scherk_minimal_residual"
    psi, x, y = ast.literal_eval(check["witness"])
    assert all(type(v) is float for v in (psi, x, y))
    assert "np." not in check["witness"]


def _main_error(tmp_path, capsys, suite, mode, doc):
    """cli.main on doc (given suite and mode, if doc is an object): exit code
    and stderr."""
    cfg = tmp_path / "cfg.json"
    if isinstance(doc, dict):
        doc = dict(doc, suite=suite, mode=mode)
    cfg.write_text(json.dumps(doc))
    rc = cli.main([suite, mode, "--config", str(cfg), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    return rc, err


def test_families_verify_refuses_an_empty_psi_list(tmp_path, capsys):
    with pytest.raises(UsageError, match="psi_values"):
        cli.run(cli.Scenario.from_config({"suite": "families", "mode": "verify",
                                          "params": {"psi_values": []}}))
    rc, err = _main_error(tmp_path, capsys, "families", "verify",
                          {"params": {"psi_values": []}})
    assert rc == 2 and err.startswith("error: UsageError:") and err.count("\n") == 1


def test_families_verify_passes_near_the_scherk_edge(tmp_path, capsys):
    # at x = 1e-3, coth^2 x is about 1e6: the density identity holds to
    # about 6e-16 relative, and an absolute residual read 3.49e-10 there
    rc, _ = _main_error(tmp_path, capsys, "families", "verify", {
        "grid": {"x_min": 1e-3, "x_max": 1e-3, "nx": 2, "ny": 3,
                 "y_min": 0.0, "y_max": 1.0}})
    assert rc == 0
    report = json.loads((tmp_path / "report_families_verify.json").read_text())
    (check,) = [c for c in report["checks"] if c["name"] == "scherk_density_identity"]
    assert check["status"] == "pass" and check["max_residual"] < 1e-13


def test_families_verify_fails_a_nan_first_integral(tmp_path, capsys):
    # at a = c = 1e200 the first integral a3 is nan at every grid point of
    # the domain; Python's max over the three spreads dropped it, and the
    # check passed with max_residual 0
    rc, err = _main_error(tmp_path, capsys, "families", "verify", {
        "params": {"a": 1e200, "c": 1e200}, "grid": {"nx": 2, "ny": 2}})
    assert rc == 1 and err == ""
    report = json.loads((tmp_path / "report_families_verify.json").read_text())
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["dp_first_integral_spread"]["status"] == "fail"
    assert math.isnan(checks["dp_first_integral_spread"]["max_residual"])


def test_families_verify_fails_when_no_grid_point_is_in_the_domain():
    # a valid pair whose C stays below 1 + 1e-6 on the whole 12 x 12 grid
    fam = mg.DoublyPeriodic(1e-5, 0.9999901)
    fam.validate()
    sc = cli.Scenario.from_config({"suite": "families", "mode": "verify",
                                   "params": {"a": fam.a, "c": fam.c},
                                   "grid": {"nx": 4, "ny": 4}})
    report = cli.run(sc)
    checks = {c["name"]: c for c in report["checks"]}
    assert report["overall"] == "fail"
    for name in ("dp_first_integral_spread", "dp_closure_system"):
        assert checks[name]["status"] == "fail"
        assert checks[name]["witness"] == \
            "no point of the 12 x 12 grid lies in the domain"
    assert checks["scherk_minimal_residual"]["status"] == "pass"


@pytest.mark.parametrize("mode", ["period", "winding"])
@pytest.mark.parametrize("pairs", [[[1.0]], [["a", 1]], [], [[1.0, True]],
                                   "1.0, 1.0", [[1.0, 1.0, 2.0]]])
def test_malformed_pairs_exit_2_in_one_line(tmp_path, capsys, mode, pairs):
    rc, err = _main_error(tmp_path, capsys, "families", mode,
                          {"params": {"pairs": pairs}})
    assert rc == 2
    assert err.startswith("error: UsageError:") and err.count("\n") == 1


@pytest.mark.parametrize("half_width", [1e9, math.inf, -8.0, 0.0])
def test_winding_rectangle_too_wide_exits_2_in_one_line(tmp_path, capsys,
                                                       half_width):
    # a cosh(R) overflows, or R <= 0 gives no counterclockwise rectangle:
    # refused before any array work, so numpy warns of nothing (a warning is
    # an error under this suite's filter, and is also recorded here)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, err = _main_error(tmp_path, capsys, "families", "winding",
                              {"params": {"rectangle_half_width": half_width}})
    assert rc == 2 and caught == []
    assert err.startswith("error: ParamViolation: rectangle half-width")
    assert err.count("\n") == 1 and "Warning" not in err
    with pytest.raises(ParamViolation, match="rectangle half-width"):
        mg.gamma_rectangle(1.0, 1.0, half_width)


@pytest.mark.parametrize("cases", [[[4]], "ab", [[4.5, 2]], [[4, True]], [],
                                   [["4", 2]], [[4, 2, 1]]])
def test_malformed_maps_cases_exit_2_in_one_line(tmp_path, capsys, cases):
    rc, err = _main_error(tmp_path, capsys, "maps", "kernel",
                          {"params": {"cases": cases}})
    assert rc == 2
    assert err.startswith("error: UsageError:") and err.count("\n") == 1


@pytest.mark.parametrize("mode", ["verify", "construct", "export"])
@pytest.mark.parametrize("params", [{"n_ambient": "x"}, {"m": 2.0},
                                    {"m": True}, {"n_ambient": [4]}])
def test_non_integer_maps_sizes_exit_2_in_one_line(tmp_path, capsys, mode,
                                                   params):
    rc, err = _main_error(tmp_path, capsys, "maps", mode, {"params": params})
    assert rc == 2
    assert err.startswith("error: UsageError:") and err.count("\n") == 1


@pytest.mark.parametrize("mode", ["construct", "verify"])
def test_maps_below_ambient_dimension_4_exit_2(tmp_path, capsys, mode):
    rc, err = _main_error(tmp_path, capsys, "maps", mode,
                          {"params": {"n_ambient": 3, "m": 2}})
    assert rc == 2
    assert err == "error: ParamViolation: need ambient dimension >= 4 (sphere dim > 2)\n"


def test_maps_kernel_and_verify_build_no_dense_kernel_matrix(monkeypatch):
    # nor any kernel element: the verdicts read only the certified dimension;
    # the library holds kernel elements sparse only
    def refuse(what):
        def hook(*args):
            raise AssertionError(f"{what} was built")
        return hook

    assert not hasattr(sm, "_kernel_gram") and not hasattr(sm.KernelCertificate, "basis")
    monkeypatch.setattr(sm, "_kernel_elements", refuse("a kernel element"))
    with pytest.raises(AssertionError, match="kernel element"):
        sm.solve_h_equals_Rm(4, 2)[1].elements
    for mode, params in [("kernel", {"cases": [[4, 2], [4, 3]]}),
                         ("verify", {"n_ambient": 4, "m": 2})]:
        sc = cli.Scenario.from_config({"suite": "maps", "mode": mode,
                                       "params": params})
        report = cli.run(sc)
        assert report["overall"] == "pass", report["checks"]


@pytest.mark.parametrize("off", [-1, 1])
def test_maps_kernel_fails_a_dimension_off_the_closed_form(tmp_path, capsys,
                                                           monkeypatch, off):
    # h maps onto the degree-2m polynomials, so a certified dimension other
    # than D(D+1)/2 - dim P_2m is a defect, reported with the same witness
    report = sm.nonuniqueness_report

    def one_off(n_amb, m):
        rep = report(n_amb, m)
        return {**rep, "kernel_dimension": rep["kernel_dimension"] + off * (m == 2)}

    monkeypatch.setattr(sm, "nonuniqueness_report", one_off)
    (tmp_path / "doc.json").write_text('{"params": {"cases": [[4, 1], [4, 2]]}}')
    assert cli.main(["maps", "kernel", "--config", str(tmp_path / "doc.json"),
                     "--out", str(tmp_path)]) == 1
    checks = json.loads((tmp_path / "report_maps_kernel.json").read_text())["checks"]
    assert [(c["name"], c["status"]) for c in checks] == [
        ("kernel[n_ambient=4,m=1]", "pass"), ("kernel[n_ambient=4,m=2]", "fail")]
    assert json.loads(checks[1]["witness"])["kernel_dimension"] == 10 + off
    assert "[FAIL] kernel[n_ambient=4,m=2]" in capsys.readouterr().out


@pytest.mark.parametrize("size", [(4, 1), (4, 2), (5, 2)])
def test_maps_construct_runs_one_set_of_checks_on_either_map(size):
    # (4, 1) and (4, 2) take the catalogued map, (5, 2) construct_map(G0)
    sc = cli.Scenario.from_config({"suite": "maps", "mode": "construct",
                                   "params": {"n_ambient": size[0], "m": size[1]}})
    report = cli.run(sc)
    assert [(c["name"], c["status"]) for c in report["checks"]] == [
        ("sum_of_squares_exact", "pass"), ("components_harmonic", "pass"),
        ("energy_density_constant", "pass")]


@pytest.mark.parametrize("size", [(4, 1), (4, 2), (4, 3)])
def test_maps_construct_checks_the_sum_of_squares_once(monkeypatch, size):
    # every route to the map checks it exactly; the verdict reads that check
    calls = []
    exact = sm._sum_of_squares_is_Rm

    def counting(the_map):
        calls.append((the_map.n_ambient, the_map.m))
        return exact(the_map)

    monkeypatch.setattr(sm, "_sum_of_squares_is_Rm", counting)
    sc = cli.Scenario.from_config({"suite": "maps", "mode": "construct",
                                   "params": {"n_ambient": size[0], "m": size[1]}})
    assert cli.run(sc)["overall"] == "pass"
    assert calls == [size]


def test_maps_verify_builds_h_of_the_base_point_once(monkeypatch):
    # through the one evaluator of h, at G0; the basis is built beforehand,
    # so its reproducing identity is not among the calls
    calls = []
    h = sm._Blocks.h

    def counting(self, den, entries):
        calls.append((den, entries))
        return h(self, den, entries)

    basis = sm.basis_Hm(4, 3)
    monkeypatch.setattr(sm._Blocks, "h", counting)
    sc = cli.Scenario.from_config({"suite": "maps", "mode": "verify",
                                   "params": {"n_ambient": 4, "m": 3}})
    assert cli.run(sc)["overall"] == "pass"
    assert calls == [sm.scaled_identity_gram(basis).numerators()]


def test_maps_verify_reports_a_wrong_base_point_as_failed_checks(monkeypatch):
    scaled = sm.scaled_identity_gram
    monkeypatch.setattr(sm, "scaled_identity_gram",
                        lambda basis: scaled(basis).add(scaled(basis).numerators()))
    sc = cli.Scenario.from_config({"suite": "maps", "mode": "verify",
                                   "params": {"n_ambient": 4, "m": 2}})
    report = cli.run(sc)
    assert report["overall"] == "fail"
    assert [(c["name"], c["status"]) for c in report["checks"]] == [
        ("base_point_exact", "fail"), ("kernel_annihilates", "pass"),
        ("constructed_energy", "fail")]
    assert report["checks"][2]["witness"] == "not run: h(G0) != R^m"


def test_families_sample_counts_dropped_points(tmp_path):
    # Scherk's slope relation is degenerate (Delta = 0) at every point, and
    # x < 1e-6 lies outside its domain: every point is dropped, per reason
    sc = cli.Scenario.from_config({
        "suite": "families", "mode": "sample",
        "params": {"family": "scherk", "field": "cos2theta_plus"},
        "grid": {"x_min": -1.0, "x_max": 1.0, "y_min": 0.0, "y_max": 1.0,
                 "nx": 5, "ny": 3}})
    (check,) = cli.run(sc, tmp_path)["checks"]
    assert check["status"] == "pass"
    assert check["witness"].endswith(
        "field_cos2theta_plus.csv; 15 grid points dropped "
        "(DegenerateDelta 6, outside the domain 9)")
    # a constant density degenerates everywhere too
    sc = cli.Scenario.from_config({
        "suite": "families", "mode": "sample",
        "params": {"family": "constant", "c": 2.0, "field": "sin2theta_minus"},
        "grid": {"nx": 3, "ny": 2}})
    (check,) = cli.run(sc, tmp_path)["checks"]
    assert check["witness"].endswith("; 6 grid points dropped (DegenerateDelta 6)")
    sc = cli.Scenario.from_config({
        "suite": "families", "mode": "sample",
        "params": {"family": "doubly_periodic", "a": 1.0, "c": 1.0,
                   "field": "sin2theta_minus"},
        "grid": {"x_min": 0.0, "x_max": 1.0, "y_min": 0.0, "y_max": 3.0,
                 "nx": 5, "ny": 4}})
    (check,) = cli.run(sc, tmp_path)["checks"]
    dropped = sum(not mg.DoublyPeriodic(1.0, 1.0).contains(x, y)
                  for x in (0.0, 0.25, 0.5, 0.75, 1.0) for y in (0.0, 1.0, 2.0, 3.0))
    assert dropped > 0
    assert check["witness"].endswith(
        f"; {dropped} grid points dropped (outside the domain {dropped})")
    rows = list(csv.DictReader(
        (tmp_path / "field_sin2theta_minus.csv").read_text().splitlines()))
    assert len(rows) == 20 - dropped


@pytest.mark.parametrize("params", [
    {"family": "helicatenoid", "phi": math.inf}, {"family": "helicatenoid", "phi": math.nan},
    {"family": "doubly_periodic", "a": 1.5, "c": 0.2}, {"family": "constant", "c": 0.5}])
def test_families_sample_refuses_a_family_outside_its_range_in_one_line(
        tmp_path, capsys, params):
    # a helicatenoid's domain test reads sin(phi), which a non-finite phi
    # made raise a ValueError with a traceback
    rc, err = _main_error(tmp_path, capsys, "families", "sample",
                          {"params": params, "grid": {"nx": 2, "ny": 2}})
    assert rc == 2 and err.startswith("error: ParamViolation:") and err.count("\n") == 1
    assert not list(tmp_path.glob("field_*"))


def test_families_sample_matches_the_scalar_slope_solutions(tmp_path):
    path = _sample(tmp_path, {
        "suite": "families", "mode": "sample",
        "params": {"family": "helicatenoid", "phi": 0.7, "field": "cos2theta_minus"},
        "grid": {"x_min": 0.2, "x_max": 1.6, "y_min": -1.0, "y_max": 1.0,
                 "nx": 6, "ny": 5}}, "json")
    rows = json.loads(path.read_text())["rows"]
    fam = mg.HeliCatenoid(0.7)
    assert 0 < len(rows) < 30
    for x, y, v in rows:
        assert v == pytest.approx(mg.two_theta_solutions(mg.mu_jet(fam, x, y))[1][0],
                                  abs=1e-12)


@pytest.mark.parametrize("suite,mode,doc", [
    ("calabi", "branches", {"params": {"trials": "abc"}}),
    ("families", "verify", {"grid": {"nx": "5"}}),
    ("calabi", "branches", {"seed": "x"}),
    ("calabi", "branches", [1, 2]),
    ("harmonic", "identities", {"params": {"dims": "3"}}),
    ("calabi", "branches", {"params": {"trails": 20}}),
    ("families", "verify", {"params": {"pairs": [[1.0, 1.0]]}}),
    ("maps", "construct", {"params": {"points": "x"}}),
    ("maps", "construct", {"params": {"points": 0}}),
    ("calabi", "branches", {"tolerances": {"algebriac": 1e-9}}),
    ("families", "verify", {"tolerances": {"singular": 1e-3}}),
], ids=["trials-text", "grid-count-text", "seed-text", "top-level-array", "dims-text",
        "params-typo", "stray-pairs", "points-text", "points-zero", "tolerance-typo",
        "singular-tolerance"])
def test_malformed_documents_exit_2_in_one_line(tmp_path, capsys, suite, mode, doc):
    rc, err = _main_error(tmp_path, capsys, suite, mode, doc)
    assert rc == 2
    assert err.startswith("error: UsageError:") and err.count("\n") == 1


@pytest.mark.parametrize("suite,mode,params", [
    ("harmonic", "identities", {"trials": 0}),
    ("harmonic", "identities", {"trials": -3}),
    ("harmonic", "identities", {"max_degree": 0}),
    ("calabi", "residual", {"probes": 0}),
    ("harmonic", "spectrum", {"lambda_max": -1}),
    ("harmonic", "dims", {"max_degree": -1}),
    ("calabi", "branches", {"trials": 0}),
    ("calabi", "branches", {"trials": -3}),
], ids=["trials-zero", "trials-negative", "degree-zero", "probes-zero",
        "lambda-negative", "dims-degree-negative", "branches-trials-zero",
        "branches-trials-negative"])
def test_counts_that_check_nothing_exit_2_in_one_line(tmp_path, capsys, suite, mode,
                                                      params):
    # each of these would otherwise report a pass with nothing checked
    rc, err = _main_error(tmp_path, capsys, suite, mode, {"params": params})
    assert rc == 2
    assert err.startswith("error: UsageError:") and err.count("\n") == 1
    assert f"{next(iter(params))} is " in err


@pytest.mark.parametrize("m_max", [-2, 0, 1, 2])
def test_spectrum_with_too_few_terms_to_decide_exits_2(tmp_path, capsys, m_max):
    # lambda = 8 = 2 (3 + 2 - 1) on R^3 has its first zero at A_3; with
    # fewer terms the dichotomy read as failed (at lambda = 1 for m_max 1,
    # at lambda = 0 for m_max <= 0), though nothing had been decided
    params = {"dims": [3], "lambda_max": 8}
    rc, err = _main_error(tmp_path, capsys, "harmonic", "spectrum",
                          {"params": {**params, "m_max": m_max}})
    assert rc == 2 and err.count("\n") == 1
    assert err.startswith("error: UsageError:") and "needs m_max >= 3" in err
    rc, _ = _main_error(tmp_path, capsys, "harmonic", "spectrum",
                        {"params": {**params, "m_max": 3}})
    assert rc == 0


def _json_dumps(value) -> str:
    """The oracle of the report writer."""
    return json.dumps(value, indent=2, sort_keys=True)


def _body(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "runtime_seconds"}


@pytest.mark.parametrize("suite,mode", list(cli._MODES))
def test_default_scenarios_exit_0(tmp_path, capsys, monkeypatch, suite, mode):
    # and the report file and body are json.dumps's text, byte for byte
    reports = []
    run = cli.run
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs:
                        reports.append(run(*args, **kwargs)) or reports[-1])
    assert cli.main([suite, mode, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    (report,) = reports
    assert (tmp_path / f"report_{suite}_{mode}.json").read_text() \
        == _json_dumps(report) + "\n"
    assert cli.report_body(report) == _json_dumps(_body(report))


class _Float(float):
    """A float subclass, as numpy's float64 is one."""

    def __repr__(self):
        return f"_Float({float(self)!r})"


_REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats() | st.floats().map(_Float) | st.floats().map(np.float64),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_REPORT_VALUES)
def test_report_writer_matches_json_dumps(value):
    assert cli._json_text(value) == _json_dumps(value)


@settings(max_examples=100, deadline=None)
@given(_REPORT_VALUES)
def test_writer_keeps_the_key_order_unless_asked_to_sort(value):
    # map.json keeps its monomials in sorted_terms() order
    assert cli._json_text(value, sort_keys=False) == json.dumps(value, indent=2)


@pytest.mark.parametrize("seed", [2718, 31])
def test_report_writer_matches_json_dumps_on_every_workload_body(monkeypatch, seed):
    # the benchmark's documents: one pass of each of its four workloads
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    workloads = importlib.import_module("workloads")
    for name in workloads.GENERATORS:
        for doc in workloads.generate(name, seed):
            report = cli.run(cli.Scenario.from_config(doc))
            assert cli.report_body(report) == _json_dumps(_body(report))


@pytest.mark.parametrize("suite,mode,params", [
    ("maps", "verify", {"n_ambient": 4, "m": 3}),
    ("families", "period", {"pairs": [[1.0, 1.0]]}),
    ("harmonic", "identities", {"dims": [3], "max_degree": 2, "trials": 2})])
def test_report_body_leaves_no_garbage_for_the_collector(suite, mode, params):
    # json.dumps with an indent leaves a reference cycle per call, so that
    # memory would hang on when the collector happens to run
    report = cli.run(cli.Scenario.from_config(
        {"suite": suite, "mode": mode, "params": params}))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        cli.report_body(report)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("n,m", [(4, 1), (4, 2), (5, 2), (4, 3)])
def test_map_export_is_json_dumps_text_and_leaves_no_garbage(tmp_path, n, m):
    basis = sm.basis_Hm(n, m)
    the_map = sm.construct_map(sm.solve_h_equals_Rm(n, m, basis)[0], basis)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        path = cli.export_map_json(the_map, tmp_path / "map.json")
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    # the text json.dumps(doc, indent=2) wrote, keys in the document's order
    text = path.read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)
_KEYS = sorted({k for m in cli._MODES.values() for k in [*m.params, *m.grid]})
_SECTION = st.dictionaries(st.sampled_from(_KEYS), _JSON, max_size=3) | _JSON
_DOCS = st.fixed_dictionaries(
    {"suite": st.sampled_from(list(cli.SUITES))},
    optional={"mode": st.sampled_from(sorted({m for _, m in cli._MODES})) | _JSON,
              "params": _SECTION, "grid": _SECTION, "seed": _JSON,
              "tolerances": st.dictionaries(st.sampled_from(list(cli.DEFAULT_TOLERANCES)),
                                            _JSON, max_size=2) | _JSON})


@settings(max_examples=300, deadline=None)
@given(_JSON | _DOCS)
def test_from_config_returns_a_scenario_or_raises_usage_error(doc):
    try:
        sc = cli.Scenario.from_config(doc)
    except UsageError:
        return
    assert isinstance(sc, cli.Scenario)
    assert sc.args.keys() == {**cli._MODES[(sc.suite, sc.mode)].params,
                              **cli._MODES[(sc.suite, sc.mode)].grid}.keys()


_ODD = st.booleans() | st.floats() | st.text(max_size=4) | st.none() | st.integers(-3, 2)


def _mostly(valid):
    """valid values two times in three, odd ones otherwise."""
    return st.integers(0, 2).flatmap(lambda i: valid if i else _ODD)


def _main_answers(out, suite, mode, doc, *options):
    """cli.main on doc in the directory out answers with exit code 0, 1 or 2
    and, on 2, one stderr line, never with a traceback or a warning; no
    check of its report passes with a non-finite max_residual."""
    cfg = out / "cfg.json"
    cfg.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main([suite, mode, "--config", str(cfg), "--out", str(out), *options])
    assert rc in (0, 1, 2)
    if rc == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        return
    assert err.getvalue() == ""
    report = json.loads((out / f"report_{suite}_{mode}.json").read_text())
    for check in report["checks"]:   # a pass never rests on a nan or inf
        assert check["status"] == "fail" or math.isfinite(check.get("max_residual", 0.0))


# trials is always given: its default, 50, would make an example slow
_IDENTITY_PARAMS = st.fixed_dictionaries({"trials": _mostly(st.integers(1, 3))}, optional={
    "dims": _mostly(st.lists(_mostly(st.integers(3, 5)), max_size=3)),
    "max_degree": _mostly(st.integers(1, 3))})


@settings(max_examples=80, deadline=None)
@given(_IDENTITY_PARAMS, _mostly(st.integers(-2, 2 ** 70)))
def test_harmonic_identities_documents_exit_0_1_or_2(tmp_path_factory, params, seed):
    # sizes stay small (dims <= 5, degree <= 3, trials <= 3), so each
    # example is cheap; whatever the values, main answers with an exit code
    _main_answers(tmp_path_factory.mktemp("identities"), "harmonic", "identities",
                  {"params": params, "seed": seed})


# lambda_max <= 60, m_max <= 20, ambient_dims <= 6 and max_degree <= 5, so
# each example is cheap; small and odd sizes reach the library's guards
_HARMONIC_PARAMS = {
    "spectrum": st.fixed_dictionaries({}, optional={
        "dims": _mostly(st.lists(_mostly(st.integers(2, 6)), max_size=3)),
        "lambda_max": _mostly(st.integers(0, 60)), "m_max": _mostly(st.integers(0, 20))}),
    "dims": st.fixed_dictionaries({}, optional={
        "ambient_dims": _mostly(st.lists(_mostly(st.integers(0, 6)), max_size=3)),
        "max_degree": _mostly(st.integers(0, 5))})}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_HARMONIC_PARAMS)).flatmap(
    lambda mode: st.tuples(st.just(mode), _HARMONIC_PARAMS[mode])),
    _mostly(st.integers()))
def test_harmonic_spectrum_and_dims_documents_exit_0_1_or_2_and_repeat_their_report(
        tmp_path_factory, mode_params, seed):
    mode, params = mode_params
    bodies = []
    for _ in range(2):
        out = tmp_path_factory.mktemp(mode)
        _main_answers(out, "harmonic", mode, {"params": params, "seed": seed})
        report = out / f"report_harmonic_{mode}.json"
        bodies.append(cli.report_body(json.loads(report.read_text()))
                      if report.exists() else None)
    assert bodies[0] == bodies[1]


def _from_uv(uv):
    """(a, c) from u = a - c and v = a + c; the strip is |u| < 1 < v."""
    u, v = uv
    return [(v + u) / 2.0, (v - u) / 2.0]


_INSIDE = st.tuples(st.floats(-0.99, 0.99), st.floats(1.01, 4.0)).map(_from_uv)
_OUTSIDE = (st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 1.0))
            | st.tuples(st.floats(1.0, 3.0) | st.floats(-3.0, -1.0),
                        st.floats(0.0, 4.0))).map(_from_uv)
# any two floats (huge, tiny, inf and nan included), or a = c of any size,
# which lies inside the strip from a = 0.5 on
_ANY_PAIR = (st.lists(st.floats(), min_size=2, max_size=2)
             | st.floats(min_value=0.5).map(lambda a: [a, a]))
# one pair inside the strip, one outside it and one of any floats; each of
# them, or the whole list, may be odd
_FAMILY_PAIRS = _mostly(st.tuples(*(_mostly(p) for p in (_INSIDE, _OUTSIDE, _ANY_PAIR)))
                        .map(list))
# winding only; cosh overflows from 710 on
_HALF_WIDTH = _mostly(st.floats(0.0, 30.0) | st.sampled_from([710.0, 1e9, math.inf])
                      | st.floats())


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["period", "winding"]), _FAMILY_PAIRS, _HALF_WIDTH)
@example("period", [[6.703903964971299e+153] * 2], 8.0)   # (a + c)^2 overflows float **
@example("winding", [[8.98846567431158e+307] * 2], 0.0)   # R <= 0
@example("winding", [[8.98846567431158e+307] * 2], 1e-300)   # a cosh(R) + c overflows
def test_families_documents_exit_0_1_or_2(tmp_path_factory, mode, pairs, half_width):
    # whatever the pairs, main answers with an exit code; numpy warnings are
    # errors under this suite's filter
    params = {"pairs": pairs}
    if mode == "winding":
        params["rectangle_half_width"] = half_width
    _main_answers(tmp_path_factory.mktemp(mode), "families", mode, {"params": params})


# a grid of at most 4 x 4 points whose x_min reaches down to 1e-300
_VERIFY_GRID = st.fixed_dictionaries({}, optional={
    "x_min": _mostly(st.floats(0.0, 3.0) | st.sampled_from([1e-300, 5e-324]) | st.floats()),
    "x_max": _mostly(st.floats(0.0, 3.0) | st.floats()),
    "y_min": _mostly(st.floats()), "y_max": _mostly(st.floats()),
    "nx": _mostly(st.integers(2, 4)), "ny": _mostly(st.integers(2, 4))})
_VERIFY_PARAMS = st.fixed_dictionaries({}, optional={
    "ac": _ANY_PAIR, "phi": _mostly(st.floats(0.0, 1.6) | st.floats()),
    "psi_values": _mostly(st.lists(_mostly(st.floats()), max_size=3))})


@settings(max_examples=80, deadline=None)
@given(_VERIFY_PARAMS, _VERIFY_GRID)
@example({"ac": [1e200, 1e200]}, {"nx": 2, "ny": 2})   # a3 is nan at every point
@example({}, {"x_min": 1e-300, "nx": 2, "ny": 2})      # 1/tanh(x) divides by zero
def test_families_verify_documents_exit_0_1_or_2(tmp_path_factory, params, grid):
    # a, c of any size; whatever the values, main answers with an exit code,
    # and a non-finite residual fails its check
    params = dict(params)
    if "ac" in params:
        params["a"], params["c"] = params.pop("ac")
    _main_answers(tmp_path_factory.mktemp("verify"), "families", "verify",
                  {"params": params, "grid": grid})


# sizes up to n_ambient 6 and m 3, at most two kernel cases, so that each
# example is cheap; negative, small and odd sizes reach the library's guards
_MAP_SIZE = {"n_ambient": _mostly(st.integers(-1, 6)), "m": _mostly(st.integers(-1, 3))}
_MAPS_PARAMS = {
    "kernel": st.fixed_dictionaries({}, optional={"cases": _mostly(st.lists(
        _mostly(st.tuples(*_MAP_SIZE.values()).map(list)), max_size=2))}),
    "verify": st.fixed_dictionaries({}, optional=_MAP_SIZE),
    "construct": st.fixed_dictionaries({}, optional={
        **_MAP_SIZE, "points": _mostly(st.integers(1, 20))})}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_MAPS_PARAMS)).flatmap(
    lambda mode: st.tuples(st.just(mode), _MAPS_PARAMS[mode])),
    _mostly(st.integers(-2, 2 ** 70)))
def test_maps_documents_exit_0_1_or_2(tmp_path_factory, mode_params, seed):
    mode, params = mode_params
    _main_answers(tmp_path_factory.mktemp(mode), "maps", mode,
                  {"params": params, "seed": seed})


# the two modes that write files: grids of at most 5 x 5 points, and maps up
# to n_ambient 6 and m 3, so that each example is cheap; one value in six
# is odd, so that most documents write their files
def _rarely_odd(valid):
    return st.sampled_from(range(6)).flatmap(lambda i: _ODD if i == 5 else valid)


_SAMPLE_DOC = st.fixed_dictionaries({
    "params": st.fixed_dictionaries({}, optional={
        "family": _rarely_odd(st.sampled_from(sorted(cli._FAMILIES))),
        "field": _rarely_odd(st.sampled_from(cli._FIELDS)),
        "a": _rarely_odd(st.floats(0.0, 3.0)), "c": _rarely_odd(st.floats(0.0, 3.0)),
        "phi": _rarely_odd(st.floats(0.0, 1.6))}),
    "grid": st.fixed_dictionaries(
        {"nx": _rarely_odd(st.integers(2, 5)), "ny": _rarely_odd(st.integers(2, 5))},
        optional={"x_min": _rarely_odd(st.floats(-1.0, 3.0)),
                  "x_max": _rarely_odd(st.floats(-1.0, 3.0)),
                  "y_min": _rarely_odd(st.floats(-10.0, 10.0)),
                  "y_max": _rarely_odd(st.floats(-10.0, 10.0))})})
_EXPORT_DOC = st.fixed_dictionaries({"params": st.fixed_dictionaries({}, optional={
    "n_ambient": _rarely_odd(st.integers(3, 6)), "m": _rarely_odd(st.integers(0, 3)),
    "points": _rarely_odd(st.integers(1, 20))})},
    optional={"seed": _rarely_odd(st.integers(-2, 2 ** 70))})


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([("families", "sample", _SAMPLE_DOC), ("maps", "export", _EXPORT_DOC)])
       .flatmap(lambda mode: st.tuples(st.just(mode[:2]), mode[2])),
       st.sampled_from(["csv", "json"]))
@example((("families", "sample"), {"params": {"family": "helicatenoid", "phi": math.inf},
                                   "grid": {"nx": 2, "ny": 2}}), "json")
def test_documents_that_write_files_exit_0_1_or_2_and_repeat_their_files(
        tmp_path_factory, mode_doc, fmt):
    # run twice in one directory, the files of the first run removed before
    # the second: the same report body and the same files, byte for byte;
    # the second maps export reads the basis that the first one cached
    (suite, mode), doc = mode_doc
    out = tmp_path_factory.mktemp(mode)
    runs = []
    for _ in range(2):
        _main_answers(out, suite, mode, doc, "--format", fmt)
        files = {path.name: path.read_bytes() for path in out.iterdir()
                 if path.name != "cfg.json"}
        report = files.pop(f"report_{suite}_{mode}.json", None)
        runs.append((report and cli.report_body(json.loads(report)), files))
        for name in files:
            (out / name).unlink()
        if report is not None:
            (out / f"report_{suite}_{mode}.json").unlink()
    assert runs[0] == runs[1]
    assert (runs[0][0] is None) == (runs[0][1] == {})   # files only with a report


# trials and probes are always given and at most 30, so each example is cheap
_CALABI_PARAMS = {
    "branches": st.fixed_dictionaries({"trials": _mostly(st.integers(1, 30))}),
    "extract": st.fixed_dictionaries({}),
    "residual": st.fixed_dictionaries({"probes": _mostly(st.integers(1, 30))})}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_CALABI_PARAMS)).flatmap(
    lambda mode: st.tuples(st.just(mode), _CALABI_PARAMS[mode])),
    _mostly(st.integers()))
def test_calabi_documents_exit_0_1_or_2_and_repeat_their_report(
        tmp_path_factory, mode_params, seed):
    mode, params = mode_params
    bodies = []
    for _ in range(2):
        out = tmp_path_factory.mktemp(mode)
        _main_answers(out, "calabi", mode, {"params": params, "seed": seed})
        report = out / f"report_calabi_{mode}.json"
        bodies.append(cli.report_body(json.loads(report.read_text()))
                      if report.exists() else None)
    assert bodies[0] == bodies[1]


def test_families_verify_refuses_a_grid_below_the_domain_margin(tmp_path, capsys):
    # at x = 1e-300 Scherk's closed-form jets overflow, though both of its
    # identities hold there; the margin is where the domain is taken to begin
    for grid in ({"x_min": 1e-300}, {"x_min": 0.0}, {"x_max": 5e-7},
                 {"x_min": math.nan}, {"x_min": -1.0, "x_max": 1.0}):
        rc, err = _main_error(tmp_path, capsys, "families", "verify",
                              {"grid": {**grid, "nx": 2, "ny": 2}})
        assert rc == 2 and err.count("\n") == 1
        assert err.startswith("error: UsageError: grid of families verify:")
        assert "domain margin 1e-06" in err
    rc, _ = _main_error(tmp_path, capsys, "families", "verify",
                        {"grid": {"x_min": 1e-6, "x_max": 1e-6, "nx": 2, "ny": 2}})
    assert rc in (0, 1)


def test_readme_parameter_table_matches_the_mode_table():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if line.startswith("|") and tuple(cells[0].split()) in cli._MODES:
            for name in cells[1].split(","):
                listed[(cells[0], name.strip(" `"))] = cells[2]
    declared = {}
    for (suite, mode), spec in cli._MODES.items():
        grid = {f"grid.{k}": v for k, v in spec.grid.items()}
        empty = {"none": (cli.Kind("", None), None)}
        for name, (kind, _) in ({**spec.params, **grid} or empty).items():
            declared[(f"{suite} {mode}", name)] = kind.text
    assert listed == declared
