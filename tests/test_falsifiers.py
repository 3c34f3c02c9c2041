"""Every check name can read "fail": one falsifier per check name.

A falsifier is a patch of one library function under which a mode's
default scenario reports the check as "fail" and the command line exits 1;
without the patch the same scenario passes it.  A check that no patch can
fail tells nothing (mutation analysis: DeMillo, Lipton and Sayward, IEEE
Computer 11 (1978)).  The registry covers the check names of the families
period and sample modes; `harmonic identities` keeps its own canary,
`mutation_detected`, and `kernel[...]` has
`test_maps_kernel_fails_a_dimension_off_the_closed_form` in test_cli.py.
"""

import json
import math

import pytest

from densitylab import cli, cli_families, minimal_graphs as mg


def _period_patch(change):
    """A patch of _ThroatLoop.period that returns change(seed_sign,
    samples, period) in place of the period."""
    def patch(monkeypatch):
        inner = mg._ThroatLoop.period

        def period(self, seed_sign, tol, samples):
            return change(seed_sign, samples, inner(self, seed_sign, tol, samples))
        monkeypatch.setattr(mg._ThroatLoop, "period", period)
    return patch


def _write_field_patch(change):
    """A patch of the field writer that writes change(rows) in place of the
    rows."""
    def patch(monkeypatch):
        inner = cli_families._write_field
        monkeypatch.setattr(cli_families, "_write_field",
                            lambda rows, *args: inner(change(rows), *args))
    return patch


# check name, up to its "[" -> (suite, mode, command-line options, patch)
FALSIFIERS = {
    # the default request's period read as 0
    "period_nonzero": ("families", "period", [], _period_patch(
        lambda sign, samples, value: 0.0 if (sign, samples) == (1, 64) else value)),
    # the 1024-sample period moved by 1e-6, beyond ten times the tolerance
    "period_refinement": ("families", "period", [], _period_patch(
        lambda sign, samples, value: value + 1e-6 if samples == 1024 else value)),
    # the flipped seed's period with the seed's sign
    "period_sign_flip": ("families", "period", [], _period_patch(
        lambda sign, samples, value: -value if sign == -1 else value)),
    # one row of the table lost on its way to the file
    "sample_emitted": ("families", "sample", ["--format", "csv"],
                       _write_field_patch(lambda rows: rows[:-1])),
}


def _statuses(tmp_path, suite, mode, options, name):
    """The exit code of the mode's default scenario, and the statuses of
    its checks called name[...]."""
    code = cli.main([suite, mode, "--out", str(tmp_path), *options])
    report = json.loads((tmp_path / f"report_{suite}_{mode}.json").read_text())
    return code, [c["status"] for c in report["checks"]
                  if c["name"].split("[")[0] == name]


@pytest.mark.parametrize("name", sorted(FALSIFIERS))
def test_the_falsifier_fails_its_check(tmp_path, monkeypatch, name):
    suite, mode, options, patch = FALSIFIERS[name]
    code, statuses = _statuses(tmp_path / "honest", suite, mode, options, name)
    assert code == 0 and statuses and set(statuses) == {"pass"}
    patch(monkeypatch)
    code, statuses = _statuses(tmp_path / "patched", suite, mode, options, name)
    assert code == 1 and statuses and set(statuses) == {"fail"}


def test_every_check_name_of_the_modes_has_a_falsifier(tmp_path):
    modes = {(suite, mode) for suite, mode, _, _ in FALSIFIERS.values()}
    names = set()
    for suite, mode in modes:
        report = cli.run(cli.Scenario.from_config({"suite": suite, "mode": mode}),
                         tmp_path)
        names.update(c["name"].split("[")[0] for c in report["checks"])
    assert names == set(FALSIFIERS)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sample_emitted_counts_the_non_finite_values_it_reads_back(tmp_path,
                                                                   monkeypatch, fmt):
    sc = cli.Scenario.from_config({"suite": "families", "mode": "sample",
                                   "grid": {"nx": 5, "ny": 4}})
    honest = cli.run(sc, tmp_path, fmt)["checks"][0]
    assert honest["status"] == "pass" and "non-finite" not in honest["witness"]
    _write_field_patch(lambda rows: [rows[0][:2] + [math.nan]] + rows[1:])(monkeypatch)
    check = cli.run(sc, tmp_path, fmt)["checks"][0]
    assert check["status"] == "fail"
    assert check["witness"] == honest["witness"] + "; 1 non-finite values"
