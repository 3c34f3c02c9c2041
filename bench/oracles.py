"""Expected verdicts, derived from the mathematics and never from densitylab.

Each oracle takes a scenario document and the report that ``cli.run``
produced for it, and returns the list of disagreements (empty when the
report is what the mathematics predicts).  Nothing here calls the library:
a prediction that came from the code under test could not catch it.
"""

from __future__ import annotations

import json
import re
from math import comb

# The doubly periodic family C = a cosh x + c cos y is admissible exactly on
# the open strip |a - c| < 1 < a + c.  Both sheets of the double cover carry
# the factor (1 - (a-c)^2)((a+c)^2 - 1), which vanishes on the strip's edges,
# where the two slope branches merge.  Sampling at distance STRIP_MARGIN from
# every edge keeps that factor at least (2d - d^2)(2d + d^2) ~ 0.04 for
# d = 0.1, so in-strip samples are well inside the regime the verdicts are
# about, and out-of-strip samples are unambiguously outside it.
STRIP_MARGIN = 0.1


def in_strip(a: float, c: float, margin: float = 0.0) -> bool:
    """|a - c| < 1 - margin and a + c > 1 + margin (this forces a, c > 0)."""
    return abs(a - c) < 1.0 - margin and a + c > 1.0 + margin


def outside_strip(a: float, c: float, margin: float = 0.0) -> bool:
    """At distance margin or more outside the strip, with a, c > 0."""
    return a > 0.0 and c > 0.0 and (abs(a - c) >= 1.0 + margin
                                    or a + c <= 1.0 - margin)


def harmonic_dim(n: int, m: int) -> int:
    """dim of degree-m harmonic polynomials on R^n: C(n+m-1, m) - C(n+m-3, m-2)."""
    return comb(n + m - 1, m) - (comb(n + m - 3, m - 2) if m >= 2 else 0)


def kernel_dim(n: int, m: int) -> int:
    """Kernel dimension of h: Sym^2(H_m) -> P_2m(R^n), which is onto.

    D(D+1)/2 - C(n+2m-1, 2m) with D = dim H_m (do Carmo & Wallach 1971).
    """
    d = harmonic_dim(n, m)
    return d * (d + 1) // 2 - comb(n + 2 * m - 1, 2 * m)


def _all_pass(report: dict) -> list[str]:
    out = []
    if report.get("overall") != "pass":
        out.append(f"overall is {report.get('overall')!r}, expected 'pass'")
    if not report.get("checks"):
        out.append("report has no checks")
    for chk in report.get("checks", []):
        if chk.get("status") != "pass":
            out.append(f"check {chk.get('name')} is {chk.get('status')!r}: "
                       f"{chk.get('witness', '')}")
    return out


def _by_name(report: dict) -> dict:
    return {chk.get("name"): chk for chk in report.get("checks", [])}


def _families(doc: dict, report: dict) -> list[str]:
    params = doc["params"]
    if doc["mode"] == "verify":
        pairs = [(params["a"], params["c"])]
    else:
        pairs = params["pairs"]
    if all(in_strip(a, c) for a, c in pairs):
        return _all_pass(report)
    out = []
    if report.get("overall") != "fail":
        out.append(f"overall is {report.get('overall')!r}, expected 'fail' "
                   f"outside the admissibility strip")
    for a, c in pairs:
        if in_strip(a, c):
            continue
        tag = f"a={a},c={c}"
        witnessed = any(tag in chk.get("name", "") and chk.get("status") == "fail"
                        and chk.get("witness", "").startswith("ParamViolation")
                        for chk in report.get("checks", []))
        if not witnessed:
            out.append(f"no failing check with a ParamViolation witness for {tag}")
    return out


_MAX_COUNT = re.compile(r"max count (\d+)")


def _calabi(doc: dict, report: dict) -> list[str]:
    out = _all_pass(report)
    if doc["mode"] == "branches":
        counts = [int(m.group(1)) for chk in report.get("checks", [])
                  for m in [_MAX_COUNT.search(chk.get("witness", ""))] if m]
        if not counts:
            out.append("no maximum candidate count reported")
        elif max(counts) > 2:
            out.append(f"maximum candidate count {max(counts)} exceeds 2")
    return out


def _harmonic(doc: dict, report: dict) -> list[str]:
    out = _all_pass(report)
    checks = _by_name(report)
    params = doc["params"]
    for n in params["dims"]:
        for d in range(1, params["max_degree"] + 1):
            if f"identities[n={n},d={d}]" not in checks:
                out.append(f"identities[n={n},d={d}] missing")
    canary = checks.get("mutation_detected")
    if canary is None or canary.get("status") != "pass":
        out.append("mutation canary missing or not passing")
    return out


_DIMENSION = re.compile(r"dimension (\d+)")


def _maps(doc: dict, report: dict) -> list[str]:
    out = _all_pass(report)
    checks = _by_name(report)
    params = doc["params"]
    if doc["mode"] == "kernel":
        for n, m in params["cases"]:
            chk = checks.get(f"kernel[n_ambient={n},m={m}]")
            if chk is None:
                out.append(f"kernel check for ({n},{m}) missing")
                continue
            got = json.loads(chk.get("witness", "{}")).get("kernel_dimension")
            if got != kernel_dim(n, m):
                out.append(f"kernel dimension at ({n},{m}) is {got}, "
                           f"closed form gives {kernel_dim(n, m)}")
    else:
        n, m = params["n_ambient"], params["m"]
        found = _DIMENSION.search(checks.get("kernel_annihilates", {}).get("witness", ""))
        got = int(found.group(1)) if found else None
        if got != kernel_dim(n, m):
            out.append(f"kernel dimension at ({n},{m}) is {got}, "
                       f"closed form gives {kernel_dim(n, m)}")
    return out


_BY_SUITE = {"families": _families, "calabi": _calabi,
             "harmonic": _harmonic, "maps": _maps}


def disagreements(doc: dict, report: dict) -> list[str]:
    """Ways in which the report differs from the predicted verdict."""
    return _BY_SUITE[doc["suite"]](doc, report)
