"""Scenario runner: dispatch, artifacts, exit codes, determinism."""

import csv
import json
import math
from types import SimpleNamespace

import pytest

from densitylab import cli, minimal_graphs as mg, sphere_maps as sm
from densitylab.errors import UsageError


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
    monkeypatch.setattr(cli, "random", SimpleNamespace(Random=_BeyondRange))
    sc = cli.Scenario.from_config({"suite": "calabi", "mode": "branches",
                                   "params": {"trials": 20}, "seed": 0})
    report = cli.run(sc)
    (check,) = report["checks"]
    assert check["status"] == "fail" and report["overall"] == "fail"
    assert check["witness"] == ("max count 0 over 20 trials; 0 used, "
                                "20 skipped (RangeViolation 20)")


def test_emit_field_csv_matches_density(tmp_path):
    sc = cli.Scenario.from_config({
        "suite": "families", "mode": "sample",
        "params": {"family": "helicatenoid", "phi": math.pi / 4, "field": "F"},
        "grid": {"x_min": 0.8, "x_max": 1.6, "y_min": 0.0, "y_max": 0.8,
                 "nx": 5, "ny": 4}})
    path = cli.emit_field_csv(sc, "F", tmp_path / "f.csv")
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
    sc = cli.Scenario.from_config(cfg)
    csv_path = cli.emit_field_csv(sc, "F", tmp_path / "f.csv")
    json_path = cli.emit_field_json(sc, "F", tmp_path / "f.json")
    doc = json.loads(json_path.read_text())
    csv_rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    assert len(doc["rows"]) == len(csv_rows) == 12
    for (x, y, v), row in zip(doc["rows"], csv_rows):
        assert x == pytest.approx(float(row["x"]))
        assert v == pytest.approx(float(row["F"]), rel=1e-12)


def test_emit_field_csv_constant_family(tmp_path):
    sc = cli.Scenario.from_config({
        "suite": "families", "mode": "sample",
        "params": {"family": "constant", "c": 2.5, "field": "F"},
        "grid": {"x_min": -1, "x_max": 1, "y_min": -1, "y_max": 1,
                 "nx": 4, "ny": 4}})
    path = cli.emit_field_csv(sc, "F", tmp_path / "c.csv")
    values = {row["F"] for row in csv.DictReader(path.read_text().splitlines())}
    assert values == {"2.5"}


def test_emit_field_csv_discriminant_positive(tmp_path):
    sc = cli.Scenario.from_config({
        "suite": "families", "mode": "sample",
        "params": {"family": "doubly_periodic", "a": 1.0, "c": 1.0,
                   "field": "P"},
        "grid": {"x_min": -2.0, "x_max": 2.0, "y_min": 0.0,
                 "y_max": 2 * math.pi, "nx": 12, "ny": 12}})
    path = cli.emit_field_csv(sc, "P", tmp_path / "p.csv")
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


def test_export_map_json_float(tmp_path):
    b = sm.basis_Hm(4, 2)
    G0, _ = sm.solve_h_equals_Rm(4, 2, b)
    m = sm.construct_map(G0, b)
    path = cli.export_map_json(m, tmp_path / "f.json")
    doc = json.loads(path.read_text())
    assert doc["exact"] is False and doc["lambda"] == 8
    sample = next(iter(doc["components"][0].values()))
    float(sample)  # decimal string, parseable
    assert "/" not in sample


def test_report_body_deterministic():
    cfg = {"suite": "harmonic", "mode": "identities",
           "params": {"dims": [3], "max_degree": 2, "trials": 8}, "seed": 42}
    r1 = cli.run(cli.Scenario.from_config(cfg))
    r2 = cli.run(cli.Scenario.from_config(cfg))
    assert cli.report_body(r1) == cli.report_body(r2)
    assert "runtime_seconds" not in cli.report_body(r1)


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
