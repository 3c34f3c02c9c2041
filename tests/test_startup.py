"""Start-up: a process imports the modules its suite runs, and no others.

The import checks run in a fresh interpreter, so that the modules pytest and
the other tests have loaded cannot hide an import.  The records that a
harmonic, calabi or maps process builds are not dataclasses, and keep the
value semantics the dataclasses had: NamedTuples, and for the two sphere-map
records that keep cached values, plain classes.
"""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest

import densitylab
from densitylab import calabi as cb, harmonic as ha, sphere_maps as sm

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
    assert loaded == [[0, 0, 0], ["densitylab", "densitylab.cli", "densitylab.cli_harmonic",
                               "densitylab.errors", "densitylab.harmonic", "densitylab.poly",
                               "densitylab.tolerances"]]


def test_a_package_export_imports_only_its_module():
    loaded = _fresh("import json, sys\n"
                    "import densitylab\n"
                    "densitylab.Poly\n"
                    f"print(json.dumps({_LOADED}))\n")
    assert loaded == ["densitylab", "densitylab.errors", "densitylab.poly"]


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


# one small document per suite, run as a benchmark verdict is
_ONE_DOCUMENT = {
    "families": {"suite": "families", "mode": "verify", "grid": {"nx": 5, "ny": 5}},
    "calabi": {"suite": "calabi", "mode": "branches", "params": {"trials": 20}},
    "harmonic": {"suite": "harmonic", "mode": "identities",
                 "params": {"max_degree": 2, "trials": 2}},
    "maps": {"suite": "maps", "mode": "verify", "params": {"n_ambient": 4, "m": 2}},
}


@pytest.mark.parametrize("suite,module,unused", [
    ("families", "minimal_graphs", {"argparse", "csv"}),
    ("calabi", "calabi", {"argparse", "csv", "dataclasses"}),
    ("harmonic", "harmonic", {"argparse", "csv", "dataclasses", "inspect"}),
    ("maps", "sphere_maps", {"argparse", "csv", "dataclasses"})])
def test_a_document_loads_no_module_its_verdicts_do_not_use(suite, module, unused):
    # argparse serves the command line and csv families sample's tables;
    # dataclasses (with inspect, ast, dis and tokenize) serves no record of
    # harmonic, calabi or maps, and numpy, which harmonic never loads, is
    # what brings inspect into the other suites; only minimal_graphs' records
    # are dataclasses
    bare = _fresh("import json, sys\nprint(json.dumps(sorted(sys.modules)))\n")
    loaded = _fresh("import json, sys\n"
                    "from densitylab import cli\n"
                    "sc = cli.Scenario.from_config(json.loads(sys.argv[1]))\n"
                    "assert json.loads(cli.report_body(cli.run(sc)))['overall'] == 'pass'\n"
                    "print(json.dumps(sorted(sys.modules)))\n",
                    json.dumps(_ONE_DOCUMENT[suite]))
    assert f"densitylab.{module}" in loaded
    assert unused & (set(loaded) - set(bare)) == set()


# suite -> numpy and the densitylab modules one document of it loads: the
# suite's own handler module and its suite's modules, and no other suite's
_SUITE_LOADS = {
    "families": ["densitylab", "densitylab.cli", "densitylab.cli_families",
                 "densitylab.errors", "densitylab.jets", "densitylab.minimal_graphs",
                 "densitylab.tolerances", "numpy"],
    "calabi": ["densitylab", "densitylab.calabi", "densitylab.cli", "densitylab.cli_calabi",
               "densitylab.errors", "densitylab.jets", "densitylab.tolerances", "numpy"],
    "harmonic": ["densitylab", "densitylab.cli", "densitylab.cli_harmonic",
                 "densitylab.errors", "densitylab.harmonic", "densitylab.poly",
                 "densitylab.tolerances"],
    "maps": ["densitylab", "densitylab.cli", "densitylab.cli_maps", "densitylab.errors",
             "densitylab.poly", "densitylab.sphere_maps", "densitylab.tolerances", "numpy"],
}


@pytest.mark.parametrize("suite", sorted(_SUITE_LOADS))
def test_a_document_loads_its_own_handlers_and_no_other_suite(suite):
    # set-up imports them all: the verdict loads nothing more
    loaded = _fresh("import json, sys\n"
                    "from densitylab import cli\n"
                    "sc = cli.Scenario.from_config(json.loads(sys.argv[1]))\n"
                    f"ready = {_LOADED}\n"
                    "assert json.loads(cli.report_body(cli.run(sc)))['overall'] == 'pass'\n"
                    f"print(json.dumps([ready, {_LOADED}]))\n",
                    json.dumps(_ONE_DOCUMENT[suite]))
    assert loaded == [_SUITE_LOADS[suite]] * 2


def test_a_scenario_built_by_hand_imports_its_handlers_when_run():
    loaded = _fresh("import json, sys\n"
                    "from densitylab import cli\n"
                    "sc = cli.Scenario('harmonic', 'dims',\n"
                    "                  {'ambient_dims': [3], 'max_degree': 2})\n"
                    f"before = {_LOADED}\n"
                    "overall = cli.run(sc)['overall']\n"
                    f"print(json.dumps([before, overall, {_LOADED}]))\n")
    assert loaded == [["densitylab", "densitylab.cli", "densitylab.errors",
                       "densitylab.tolerances"], "pass", _SUITE_LOADS["harmonic"]]


def test_a_malformed_document_loads_no_suite(tmp_path):
    # the mode table names the handlers, so checking a document needs none
    (tmp_path / "doc.json").write_text('{"params": {"cases": [[4]]}}')
    loaded = _fresh("import json, sys\n"
                    "from densitylab import cli\n"
                    "code = cli.main(['maps', 'kernel', '--config', sys.argv[1]])\n"
                    f"print(json.dumps([code, {_LOADED}]))\n",
                    str(tmp_path / "doc.json"))
    assert loaded == [2, ["densitylab", "densitylab.cli", "densitylab.errors",
                          "densitylab.tolerances"]]


@pytest.mark.parametrize("make,text", [
    (lambda: ha.SpectralParams(3, Fraction(1), Fraction(6)),
     "SpectralParams(n=3, K=Fraction(1, 1), lam=Fraction(6, 1))"),
    (lambda: ha.HarmonicElement(ha.Poly.variable(3, 0), 1),
     "HarmonicElement(poly=Poly(1*x0^1), degree=1)"),
    (lambda: ha.a_sequence(ha.SpectralParams(3, Fraction(1), Fraction(8)), 4),
     "ASequence(values=(Fraction(1, 1), Fraction(8, 1), Fraction(40, 3), "
     "Fraction(0, 1), Fraction(0, 1)), first_zero=3, first_negative=None)"),
    (lambda: cb.GradientPair(1.3, 0.8), "GradientPair(p=1.3, q=0.8)"),
    (lambda: cb.CompatibilityData((1.0, 2.0), (3.0, 4.0), (5.0, 6.0), 0.5, 0.25, 0.125),
     "CompatibilityData(omega1=(1.0, 2.0), omega2=(3.0, 4.0), omega3=(5.0, 6.0), "
     "A1=0.5, A2=0.25, A3=0.125)"),
    (lambda: sm.GramMatrix.diagonal([1, Fraction(1, 2)]),
     "GramMatrix(entries=((Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 2))))"),
    (lambda: sm.canonical_exact_map(3, 1),
     "SphericalHarmonicMap(n_ambient=3, m=1, steps=((Poly(1*x0^1), Fraction(1, 1), (1,)), "
     "(Poly(1*x1^1), Fraction(1, 1), (1,)), (Poly(1*x2^1), Fraction(1, 1), (1,))))"),
    (lambda: sm._kernel_certificate(4, 1), "KernelCertificate(D=4, dimension=0)"),
    (lambda: sm._build_basis(3, 1),
     "HarmonicBasis(n_ambient=3, m=1, elements=(HarmonicElement(poly=Poly(1*x0^1), degree=1), "
     "HarmonicElement(poly=Poly(1*x1^1), degree=1), HarmonicElement(poly=Poly(1*x2^1), "
     "degree=1)), norms=(Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)), "
     "invariant_c=Fraction(1, 1))"),
], ids=["SpectralParams", "HarmonicElement", "ASequence", "GradientPair",
        "CompatibilityData", "GramMatrix", "SphericalHarmonicMap", "KernelCertificate",
        "HarmonicBasis"])
def test_a_record_keeps_its_equality_hash_immutability_and_repr(make, text):
    # each repr is the text the record gave as a frozen dataclass
    record, twin = make(), make()
    assert record == twin and record is not twin
    assert hash(record) == hash(twin) and len({record, twin}) == 1
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(twin, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text
    if isinstance(record, tuple):
        # what changed when the records stopped being dataclasses: they are
        # tuples, so they iterate, have a length and equal a plain tuple
        assert record == tuple(record) and len(record) == len(record._fields)
    else:
        # a plain class, as a dataclass was: equal to its own class only
        assert record != tuple(getattr(record, name) for name in record._fields)


def test_a_kernel_certificate_neither_shows_nor_compares_its_basis():
    # as the dataclass field(repr=False, compare=False) did; elements, a
    # cached_property, is still kept on the frozen instance
    small, large = sm.basis_Hm(4, 1), sm.basis_Hm(4, 2)
    assert sm.KernelCertificate(4, 0, small) == sm.KernelCertificate(4, 0, large)
    assert hash(sm.KernelCertificate(4, 0, small)) == hash(sm.KernelCertificate(4, 0, large))
    assert sm.KernelCertificate(4, 0, small) != sm.KernelCertificate(4, 1, small)
    kernel = sm._kernel_certificate(4, 2)
    assert kernel.elements is kernel.elements and len(kernel.elements) == kernel.dimension
    assert "harmonics" not in repr(kernel)


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
