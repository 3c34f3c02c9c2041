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

Each suite's handlers live in a module of their own, cli_<suite>, which
imports the suite's module (and numpy where it makes arrays) at its top.
``_MODES`` names them, so a malformed document exits 2 before any suite
loads.  ``Scenario.from_config`` imports the document's handler module, so
a process's set-up pays for it and compiles no other suite's handlers.
``argparse`` and ``csv`` are imported where used, by ``main`` and by
``families sample``'s writer.  Beyond ``import json, sys``, a harmonic
document's process loads only ``fractions`` (with ``decimal`` and
``numbers``), ``__future__`` and densitylab's ``cli``, ``cli_harmonic``,
``errors``, ``tolerances``, ``poly`` and ``harmonic``; a maps document's
loads numpy and ``cli``, ``cli_maps``, ``errors``, ``tolerances``, ``poly``
and ``sphere_maps``.  Neither loads ``dataclasses``.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter
from functools import cached_property
from importlib import import_module
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
        _handlers(suite)   # set-up, not a verdict, pays for the suite's imports
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


# family name -> the family of a sample scenario, made by minimal_graphs;
# c defaults per family
_FAMILIES = {
    "constant": lambda mg, p: mg.ConstantPlane(2.0 if p["c"] is None else p["c"]),
    "scherk": lambda mg, p: mg.ScherkFifth(),
    "helicatenoid": lambda mg, p: mg.HeliCatenoid(p["phi"]),
    "doubly_periodic": lambda mg, p: mg.DoublyPeriodic(
        p["a"], 1.0 if p["c"] is None else p["c"]),
}
# the fields a sample scenario may ask for; a slope field is named for its
# (branch, part) of minimal_graphs.two_theta_solutions
_SLOPE_FIELDS = {"cos2theta_plus": (0, 0), "sin2theta_plus": (0, 1),
                 "cos2theta_minus": (1, 0), "sin2theta_minus": (1, 1)}
_FIELDS = ("F", "P", "Delta", *_SLOPE_FIELDS)


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


class _Mode(NamedTuple):
    """A mode: the name of its handler in the suite's handler module
    (_handlers), and its parameters and grid {name: (kind, default)}.  A
    mode that writes artifacts runs handler(sc, out_dir, fmt) -> (checks,
    artifact paths), any other handler(sc) -> checks."""
    handler: str
    params: dict
    grid: dict = {}     # empty: the mode reads no grid
    writes: bool = False


_PAIRS = {"pairs": (_list_of(_list_of(REAL, 2)), [[1.0, 1.0], [0.8, 0.5]])}
_MAP = {"n_ambient": (_at_least(1), 4), "m": (INTEGER, 2)}
_MAP_POINTS = {**_MAP, "points": (_at_least(1), 100)}

# (suite, mode) -> handler, declared parameters and grid; the one table that
# dispatch, validation and the command line read.  It names each handler, so
# a document is checked before any suite is imported.
_MODES = {
    ("families", "verify"): _Mode("_families_verify", {
        "psi_values": (_list_of(REAL), [0.0, 0.7, 1.4, 2.1, 2.8]),
        "a": (REAL, 1.0), "c": (REAL, 1.0), "phi": (REAL, math.pi / 4)},
        _grid_keys(25)),
    ("families", "sample"): _Mode("_families_sample", {
        "family": (_one_of(*_FAMILIES), "scherk"), "field": (_one_of(*_FIELDS), "F"),
        "a": (REAL, 1.0), "c": (REAL, None), "phi": (REAL, math.pi / 4)},
        _grid_keys(40), writes=True),
    ("families", "period"): _Mode("_families_period", _PAIRS),
    ("families", "winding"): _Mode("_families_winding", {
        **_PAIRS, "rectangle_half_width": (REAL, 8.0)}),
    ("calabi", "residual"): _Mode("_calabi_residual", {"probes": (_at_least(1), 25)}),
    ("calabi", "branches"): _Mode("_calabi_branches", {"trials": (_at_least(1), 500)}),
    ("calabi", "extract"): _Mode("_calabi_extract", {}),
    ("harmonic", "identities"): _Mode("_harmonic_identities", {
        "dims": (_list_of(INTEGER), [3]), "max_degree": (_at_least(1), 3),
        "trials": (_at_least(1), 50)}),
    ("harmonic", "spectrum"): _Mode("_harmonic_spectrum", {
        "dims": (_list_of(INTEGER), [3, 4, 5]), "lambda_max": (_at_least(0), 40),
        "m_max": (INTEGER, 15)}),
    ("harmonic", "dims"): _Mode("_harmonic_dims", {
        "ambient_dims": (_list_of(INTEGER), [3, 4, 5]), "max_degree": (_at_least(0), 6)}),
    ("maps", "kernel"): _Mode("_maps_kernel", {
        "cases": (_list_of(_list_of(INTEGER, 2)),
                  [[4, 1], [4, 2], [5, 4], [6, 3], [6, 4], [7, 4], [9, 3]])}),
    ("maps", "construct"): _Mode("_maps_construct", _MAP_POINTS),
    ("maps", "verify"): _Mode("_maps_verify", _MAP),
    ("maps", "export"): _Mode("_maps_export", _MAP_POINTS, writes=True),
}

# suite -> its modes, the first being the default
SUITES = {suite: tuple(m for s, m in _MODES if s == suite) for suite, _ in _MODES}

_SCENARIO = {"suite": (_one_of(*SUITES), None),
             "mode": (Kind("string", lambda v: isinstance(v, str)), None),
             "params": (_OBJECT, {}), "grid": (_OBJECT, {}),
             "tolerances": (_OBJECT, {}), "seed": (INTEGER, 0)}
_POSITIVE = Kind("real > 0", lambda v: REAL.accepts(v) and v > 0, float)
_TOLERANCES = {name: (_POSITIVE, value) for name, value in DEFAULT_TOLERANCES.items()}


def _handlers(suite: str):
    """The module of a suite's handlers, cli_<suite>, which imports the
    suite's module at its top; imported on first use."""
    name = f"{__package__}.cli_{suite}"
    module = sys.modules.get(name)
    return import_module(name) if module is None else module


def run(sc: Scenario, out_dir: Path | None = None, fmt: str = "csv") -> dict:
    """Execute a scenario and assemble its report."""
    out_dir = Path(out_dir) if out_dir else Path(".")
    t0 = time.perf_counter()
    mode = _MODES[(sc.suite, sc.mode)]
    handler = getattr(_handlers(sc.suite), mode.handler)
    checks, artifacts = handler(sc, out_dir, fmt) if mode.writes else (handler(sc), [])
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

