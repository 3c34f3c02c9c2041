"""Start-up: a process imports the modules its suite runs, and no others.

The import checks run in a fresh interpreter, so that the modules pytest and
the other tests have loaded cannot hide an import.
"""

import ast
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import densitylab

SRC = Path(__file__).resolve().parent.parent / "src"

# module -> the names the package exported from it when it imported every
# suite eagerly; each must still come from `from densitylab import ...`
EAGER_EXPORTS = {
    "errors": ["DensityLabError"],
    "jets": ["Jet"],
    "minimal_graphs": [
        "ConstantPlane", "DensityFamily", "DoublyPeriodic", "FirstIntegrals",
        "HeliCatenoid", "LiftedAngle", "ScherkFifth", "SurfacePoint",
        "c_system_residual", "compatibility_data", "density_value",
        "first_integrals", "lift_theta_along", "minimal_residual", "period_sigma",
        "reconstruct_u", "scherk_closed_form", "two_theta_solutions"],
    "calabi": [
        "CompatibilityData", "GradientPair", "band_metric", "candidates_batch",
        "compatibility_extract", "el_residual", "ellipse_param", "lagrangian_L",
        "theta_gradient_calabi", "third_order_residual", "two_theta_candidates"],
    "harmonic": [
        "HarmonicElement", "Poly", "SpectralParams", "a_sequence",
        "admissible_lambda", "b_coeff", "dim_harmonics", "dot", "identity_suite",
        "inner", "so_action", "vee"],
    "sphere_maps": [
        "GramMatrix", "HarmonicBasis", "KernelCertificate", "SphericalHarmonicMap",
        "basis_Hm", "canonical_exact_map", "construct_map", "energy_density",
        "nonuniqueness_report", "solve_h_equals_Rm"],
}


def _fresh(code: str, *args: str):
    """What a fresh interpreter running code prints, read as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


_LOADED = ("sorted(m for m in sys.modules "
           "if m == 'numpy' or m.startswith('densitylab'))")


def test_harmonic_verdicts_never_import_numpy(tmp_path):
    loaded = _fresh(
        "import json, sys\n"
        "from densitylab import cli\n"
        "codes = [cli.main(['harmonic', mode, '--out', sys.argv[1]])\n"
        "         for mode in ('identities', 'spectrum', 'dims')]\n"
        f"print(json.dumps([codes, {_LOADED}]))\n", str(tmp_path))
    assert loaded == [[0, 0, 0], ["densitylab", "densitylab.cli", "densitylab.errors",
                               "densitylab.harmonic", "densitylab.tolerances"]]


def test_a_package_export_imports_only_its_module():
    loaded = _fresh("import json, sys\n"
                    "import densitylab\n"
                    "densitylab.Poly\n"
                    f"print(json.dumps({_LOADED}))\n")
    assert loaded == ["densitylab", "densitylab.errors", "densitylab.harmonic"]


@pytest.mark.parametrize("suite,module", [
    ("families", "minimal_graphs"), ("calabi", "calabi"),
    ("harmonic", "harmonic"), ("maps", "sphere_maps")])
def test_a_document_imports_its_suite_before_its_first_verdict(suite, module):
    # so a process's set-up, not its first verdict, pays for the suite's
    # imports; every suite but harmonic makes arrays, so loads numpy
    loaded = _fresh("import json, sys\n"
                    "from densitylab import cli\n"
                    "cli.Scenario.from_config({'suite': sys.argv[1]})\n"
                    f"print(json.dumps({_LOADED}))\n", suite)
    assert f"densitylab.{module}" in loaded
    assert ("numpy" in loaded) == (suite != "harmonic")


def test_every_eager_export_is_still_exported():
    names = [name for names in EAGER_EXPORTS.values() for name in names]
    assert sorted(densitylab.__all__) == sorted(names)
    assert set(names) <= set(dir(densitylab))
    star = {}
    exec("from densitylab import *", star)
    for module, names in EAGER_EXPORTS.items():
        defining = import_module(f"densitylab.{module}")
        for name in names:
            assert getattr(densitylab, name) is getattr(defining, name)
            assert star[name] is getattr(defining, name)
            # bound on first access, so later lookups do not reach the hook
            assert vars(densitylab)[name] is getattr(defining, name)


def _reads(path: Path) -> set:
    """The names a module reads, as names or attributes, each outside the
    top-level definition of that name."""
    names = set()
    for stmt in ast.parse(path.read_text()).body:
        own = getattr(stmt, "name", None)
        names.update({node.id if isinstance(node, ast.Name) else node.attr
                      for node in ast.walk(stmt)
                      if isinstance(node, (ast.Name, ast.Attribute))
                      and isinstance(node.ctx, ast.Load)} - {own})
    return names


def test_every_export_backs_a_verdict():
    # an export is read by cli.py, a demo, or a library module other than
    # at its own definition.  The one exception, so_action, is the oracle
    # test_integer_identity_sides_match_the_public_pairings compares the
    # identity suite against, and the rotation action the SO(n) structure
    # of the sphere-map kernel (ROADMAP item 11) is built from
    library = [p for p in (SRC / "densitylab").glob("*.py") if p.name != "__init__.py"]
    demos = (SRC.parent / "demos").glob("*.py")
    read = set().union(*map(_reads, [*library, *demos]))
    assert set(densitylab.__all__) - read == {"so_action"}


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        densitylab.no_such_name
    with pytest.raises(ImportError):
        exec("from densitylab import no_such_name", {})
