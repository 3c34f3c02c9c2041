"""Spans and call counts at densitylab's layer boundaries, recorded from outside.

A probe names a function of the library.  Installing it wraps the function at
every attribute that binds it: the defining module, every module that took it
with ``from ... import``, and every alias in its class (``Jet.__rmul__`` is
``Jet.__mul__``).  A span probe records one span per call (name, start, end,
parent span, verdict id); a count probe only counts calls, for functions too
small and too frequent to time.  Spans stay in memory until the run ends.

A probed name that does not exist at the measured commit is recorded as
absent and reads as zero, so the same benchmark runs on a tree that deleted
a module or replaced a method.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

_ELEMENTARY = ("jet_sin", "jet_cos", "jet_sinh", "jet_cosh", "jet_exp", "jet_log",
               "jet_sqrt", "jet_asinh", "jet_atan", "jet_acos", "jet_atan2")


@dataclass(frozen=True)
class Probe:
    """One function to wrap, and what to record about its calls."""

    name: str                      # metric prefix, "<module>.<function>"
    module: str                    # module that defines it
    attrs: tuple[str, ...]         # attribute paths there, class aliases included
    span: bool = True              # False: count calls only
    errors: Optional[str] = None   # prefix under which raised exceptions count
    work: Optional[Callable] = None        # f(args) -> units of work of one call
    work_stat: str = ""
    label: Optional[Callable] = None       # f(arguments, result) -> kept per span


def _rows_cells(args) -> int:
    rows = args[0]
    return len(rows) * (len(rows[0]) if rows else 0)


def _term_pairs(args) -> int:
    return len(args[0].terms) * len(args[1].terms)


PROBES = (
    Probe("cli.run", "densitylab.cli", ("run",)),
    Probe("cli.report_body", "densitylab.cli", ("report_body",)),
    Probe("jets.Jet.mul", "densitylab.jets", ("Jet.__mul__", "Jet.__rmul__")),
    Probe("jets.Jet.add", "densitylab.jets", ("Jet.__add__", "Jet.__radd__"), span=False),
    Probe("jets.Jet.compose", "densitylab.jets", ("Jet.compose",), span=False),
    *(Probe("jets.elementary", "densitylab.jets", (f,), span=False) for f in _ELEMENTARY),
    Probe("calabi.two_theta_candidates", "densitylab.calabi", ("two_theta_candidates",),
          errors="calabi.two_theta_candidates.errors"),
    Probe("calabi.compatibility_extract", "densitylab.calabi", ("compatibility_extract",)),
    Probe("minimal_graphs.period_sigma", "densitylab.minimal_graphs", ("period_sigma",),
          errors="minimal_graphs.errors",
          label=lambda a, r: (a["a"], a["c"], a.get("samples", 512),
                              a.get("seed_sign", 1))),
    Probe("minimal_graphs.lift_theta_along", "densitylab.minimal_graphs",
          ("lift_theta_along",), errors="minimal_graphs.errors"),
    Probe("minimal_graphs.cos_sin_two_theta", "densitylab.minimal_graphs",
          ("cos_sin_two_theta",), errors="minimal_graphs.errors"),
    Probe("minimal_graphs.gamma_rectangle", "densitylab.minimal_graphs",
          ("gamma_rectangle",), span=False, errors="minimal_graphs.errors"),
    Probe("minimal_graphs.sigma_loop", "densitylab.minimal_graphs",
          ("sigma_loop",), span=False, errors="minimal_graphs.errors"),
    Probe("minimal_graphs.mu_jet", "densitylab.minimal_graphs", ("mu_jet",),
          span=False, errors="minimal_graphs.errors"),
    Probe("minimal_graphs.first_integrals", "densitylab.minimal_graphs",
          ("first_integrals",), span=False, errors="minimal_graphs.errors"),
    Probe("quadrature.adaptive_simpson", "densitylab.quadrature", ("adaptive_simpson",)),
    Probe("harmonic.Poly.mul", "densitylab.harmonic", ("Poly.__mul__",),
          work=_term_pairs, work_stat="term_pairs"),
    Probe("harmonic.Poly.init", "densitylab.harmonic", ("Poly.__init__",), span=False),
    Probe("harmonic.inner", "densitylab.harmonic", ("inner",)),
    Probe("harmonic.harmonic_decompose", "densitylab.harmonic", ("harmonic_decompose",)),
    Probe("harmonic.identity_suite", "densitylab.harmonic", ("identity_suite",)),
    Probe("sphere_maps.rref", "densitylab.sphere_maps", ("rref",),
          work=_rows_cells, work_stat="cells"),
    Probe("sphere_maps.nullspace", "densitylab.sphere_maps", ("nullspace",)),
    Probe("sphere_maps.basis_Hm", "densitylab.sphere_maps", ("basis_Hm",),
          label=lambda a, r: r.dim),
    Probe("sphere_maps.h_of_G", "densitylab.sphere_maps", ("h_of_G",)),
    Probe("sphere_maps.solve_h_equals_Rm", "densitylab.sphere_maps", ("solve_h_equals_Rm",),
          label=lambda a, r: (a["n_ambient"], a["m"], r[1].dimension)),
)

# Exception classes reported by name; any other class adds to ".other".
ERROR_CLASSES = {
    "calabi.two_theta_candidates.errors": ("DegenerateAllZero", "SingularSystem",
                                           "Singularity", "RangeViolation",
                                           "ParamViolation"),
    "minimal_graphs.errors": ("ParamViolation", "LiftAmbiguity", "DomainViolation",
                              "NoRealSolution", "Singularity"),
}


class Recorder:
    """In-memory store of spans, call counts, work units and raised errors."""

    def __init__(self, n_probes: int):
        self.name_of = array("i")      # per span: index of its probe
        self.parent = array("i")       # per span: parent span index, or -1
        self.verdict_of = array("i")   # per span: verdict id
        self.start = array("q")        # per span: perf_counter_ns
        self.end = array("q")
        self.stack = [-1]
        self.verdict = -1
        self.counts = [0] * n_probes   # per probe: calls, for count probes
        self.work = [0] * n_probes     # per probe: summed work units
        self.labels: dict[int, object] = {}
        self.errors: Counter = Counter()
        self._last_error: dict[str, BaseException] = {}
        self.absent: list[str] = []

    def error(self, prefix: Optional[str], exc: BaseException) -> None:
        """Count exc once under prefix, however many probed frames it leaves."""
        if prefix is None or self._last_error.get(prefix) is exc:
            return
        self._last_error[prefix] = exc
        self.errors[(prefix, type(exc).__name__)] += 1

    def add_span(self, name: int, parent: int, verdict: int, start: int, end: int) -> int:
        """Append a finished span (used by tests to build synthetic traces)."""
        self.name_of.append(name)
        self.parent.append(parent)
        self.verdict_of.append(verdict)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1


def _span_wrapper(fn, idx: int, probe: Probe, rec: Recorder):
    name_of, parent, verdict_of = rec.name_of, rec.parent, rec.verdict_of
    start, end, stack = rec.start, rec.end, rec.stack
    clock = time.perf_counter_ns
    work, label, errors = probe.work, probe.label, probe.errors
    signature = inspect.signature(fn) if label else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = len(start)
        name_of.append(idx)
        parent.append(stack[-1])
        verdict_of.append(rec.verdict)
        end.append(0)
        if work is not None:
            rec.work[idx] += work(args)
        stack.append(i)
        start.append(clock())
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            end[i] = clock()
            stack.pop()
            rec.error(errors, exc)
            raise
        end[i] = clock()
        stack.pop()
        if label is not None:
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                rec.labels[i] = label(bound.arguments, result)
            except (TypeError, KeyError, AttributeError, IndexError):
                pass  # the signature changed; the span stays, unlabelled
        return result

    return traced


def _count_wrapper(fn, idx: int, probe: Probe, rec: Recorder):
    counts = rec.counts
    errors = probe.errors
    if errors is None:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[idx] += 1
            return fn(*args, **kwargs)
    else:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[idx] += 1
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                rec.error(errors, exc)
                raise
    return counted


class Installation:
    """Probes wrapped into the loaded densitylab modules; undo() restores them."""

    def __init__(self, probes, rec: Recorder):
        self.rec = rec
        self._saved: list[tuple[object, str, object]] = []
        self._wrappers: set = set()
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "densitylab"
                                         or name.startswith("densitylab."))]
        for idx, probe in enumerate(probes):
            try:
                mod = importlib.import_module(probe.module)
            except ImportError:
                rec.absent.append(f"{probe.name} (module {probe.module})")
                continue
            for path in probe.attrs:
                self._wrap(mod, path, idx, probe, modules)

    def _wrap(self, mod, path: str, idx: int, probe: Probe, modules) -> None:
        *owner_path, attr = path.split(".")
        owner = mod
        for part in owner_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, "__dict__", {}).get(attr)
        if original is None:
            self.rec.absent.append(f"{probe.name} ({probe.module}.{path})")
            return
        if original in self._wrappers:
            return  # an alias of a function wrapped through another path
        make = _span_wrapper if probe.span else _count_wrapper
        wrapper = make(original, idx, probe, self.rec)
        self._wrappers.add(wrapper)
        sites = modules + [s for s in (mod, owner) if s not in modules]
        for site in sites:
            for name, value in list(vars(site).items()):
                if value is original:
                    self._saved.append((site, name, original))
                    setattr(site, name, wrapper)

    def undo(self) -> None:
        for site, name, original in reversed(self._saved):
            setattr(site, name, original)
        self._saved.clear()


def self_times(rec: Recorder) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    n = len(rec.start)
    out = [rec.end[i] - rec.start[i] for i in range(n)]
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            children[p].append((rec.start[i], rec.end[i]))
    for p, intervals in children.items():
        lo, hi = rec.start[p], rec.end[p]
        covered = 0
        cur_s = cur_e = None
        for s, e in sorted(intervals):
            s, e = max(s, lo), min(e, hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


def _descendant_count(rec: Recorder, ancestor: int, name: int) -> int:
    count = 0
    for i in range(ancestor + 1, len(rec.start)):
        if rec.start[i] > rec.end[ancestor]:
            break
        if rec.name_of[i] == name:
            p = rec.parent[i]
            while p > ancestor:
                p = rec.parent[p]
            count += p == ancestor
    return count


def layer_metrics(rec: Recorder, probes=PROBES) -> dict[str, float]:
    """Per-layer metrics of everything recorded; absent probes read as zero."""
    metrics: dict[str, float] = defaultdict(float)
    index = {}
    for idx, probe in enumerate(probes):
        index.setdefault(probe.name, idx)
        metrics[f"{probe.name}.calls"] += rec.counts[idx]
        if probe.span:
            metrics[f"{probe.name}.self_s"] += 0.0
        if probe.work is not None:
            metrics[f"{probe.name}.{probe.work_stat}"] += rec.work[idx]
    selfs = self_times(rec)
    for i in range(len(rec.start)):
        name = probes[rec.name_of[i]].name
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.self_s"] += selfs[i] / 1e9
    for prefix, classes in ERROR_CLASSES.items():
        metrics[f"{prefix}.other"] += 0
        for cls in classes:
            metrics[f"{prefix}.{cls}"] += 0
    for (prefix, cls), n in rec.errors.items():
        known = cls in ERROR_CLASSES.get(prefix, ())
        metrics[f"{prefix}.{cls if known else 'other'}"] += n

    calls = metrics["calabi.two_theta_candidates.calls"]
    failed = sum(n for (prefix, _), n in rec.errors.items()
                 if prefix == "calabi.two_theta_candidates.errors")
    metrics["calabi.candidates_used_ratio"] = (calls - failed) / calls if calls else 0.0

    basis = index["sphere_maps.basis_Hm"]
    decompose = index["harmonic.harmonic_decompose"]
    kept = tried = 0
    for i in range(len(rec.start)):
        if rec.name_of[i] == basis:
            kept += rec.labels.get(i, 0)
        elif rec.name_of[i] == decompose and rec.parent[i] >= 0 \
                and rec.name_of[rec.parent[i]] == basis:
            tried += 1
    metrics["sphere_maps.basis_Hm.kept_ratio"] = kept / tried if tried else 0.0
    return dict(metrics)


def baseline_observations(rec: Recorder, probes=PROBES) -> dict[str, object]:
    """Counts comparable with the ROADMAP baseline table, where this run has them."""
    names = [p.name for p in probes]
    out: dict[str, object] = {}
    period = names.index("minimal_graphs.period_sigma")
    angle = names.index("minimal_graphs.cos_sin_two_theta")
    solve = names.index("sphere_maps.solve_h_equals_Rm")
    for i in range(len(rec.start)):
        if rec.name_of[i] == period and rec.labels.get(i) == (1.0, 1.0, 512, 1) \
                and "angle_evals_period_sigma_1_1" not in out:
            out["angle_evals_period_sigma_1_1"] = _descendant_count(rec, i, angle)
        elif rec.name_of[i] == solve and i in rec.labels:
            n, m, dim = rec.labels[i]
            out.setdefault(f"kernel_dim_{n}_{m}", dim)
    return out


def write_spans(rec: Recorder, path, probes=PROBES) -> None:
    """Write every span as gzip'd CSV: id, name, parent, verdict, start_ns, end_ns."""
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = rec.start[0] if len(rec.start) else 0
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("id,name,parent,verdict,start_ns,end_ns\n")
        for i in range(len(rec.start)):
            fh.write(f"{i},{probes[rec.name_of[i]].name},{rec.parent[i]},"
                     f"{rec.verdict_of[i]},{rec.start[i] - t0},{rec.end[i] - t0}\n")
