"""End-to-end and per-layer benchmark of densitylab's batch front end.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One caller drives the program in a closed loop, one verdict outstanding, from
a single process and thread: each verdict is ``cli.run`` on a scenario
document built with ``Scenario.from_config``, followed by ``report_body``.
The documents of one pass come from the workload seed (see workloads.py);
passes repeat until ``--seconds`` is used up, and every verdict is checked
against the oracles in oracles.py.  Verdicts are timed on the process's CPU
clock (see ``CLOCK``), each between two runs of a fixed reference kernel, and
its time is scaled by the reference's speed at that moment (see
``reference_kernel``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs untraced
passes for half the time, then one traced pass, and reports the per-layer
metrics, the tracing overhead and the ROADMAP baseline comparison; its spans
are written to bench/out/.  Human-readable lines come first; the last line
of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os

# One thread of work per process, numpy's libraries included, so that the
# process's CPU time is the time a verdict takes when it has a CPU.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from math import ceil, inf
from pathlib import Path

import oracles
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_PROCESSES = 11
MIN_PASSES = 2

# The clock of every timed interval: CPU time of this process.  On an idle
# machine it equals the wall time of a verdict, which runs in one thread and
# waits for nothing.  On a shared host other processes take the CPU away in
# the middle of a verdict; wall time counts those gaps, CPU time does not.
CLOCK = time.process_time

# Metrics of the final JSON line; BENCHMARK.json lists the same names.
END_TO_END = {"setup_s": "s", "wall_s": "s", "verdict_p50_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = (
    "cli.run.self_s", "cli.report_body.self_s",
    "jets.Jet.mul.calls", "jets.Jet.mul.self_s", "jets.Jet.add.calls",
    "jets.Jet.compose.calls", "jets.elementary.calls",
    "calabi.two_theta_candidates.calls", "calabi.two_theta_candidates.self_s",
    *(f"calabi.two_theta_candidates.errors.{c}"
      for c in tracing.ERROR_CLASSES["calabi.two_theta_candidates.errors"] + ("other",)),
    "calabi.candidates_used_ratio", "calabi.compatibility_extract.self_s",
    "minimal_graphs.period_sigma.calls", "minimal_graphs.period_sigma.self_s",
    "minimal_graphs.lift_theta_along.self_s", "minimal_graphs.cos_sin_two_theta.calls",
    "minimal_graphs.mu_jet.calls", "minimal_graphs.first_integrals.calls",
    *(f"minimal_graphs.errors.{c}"
      for c in tracing.ERROR_CLASSES["minimal_graphs.errors"] + ("other",)),
    "quadrature.adaptive_simpson.calls", "quadrature.adaptive_simpson.self_s",
    "harmonic.Poly.mul.calls", "harmonic.Poly.mul.self_s", "harmonic.Poly.mul.term_pairs",
    "harmonic.Poly.init.calls", "harmonic.inner.calls", "harmonic.inner.self_s",
    "harmonic.harmonic_decompose.self_s", "harmonic.identity_suite.self_s",
    "sphere_maps.rref.calls", "sphere_maps.rref.self_s", "sphere_maps.rref.cells",
    "sphere_maps.nullspace.self_s", "sphere_maps.basis_Hm.self_s",
    "sphere_maps.basis_Hm.kept_ratio", "sphere_maps.h_of_G.calls",
    "sphere_maps.h_of_G.self_s",
    "bench.traced_wall_s", "bench.trace_overhead_s",
)
# ROADMAP baseline table entries that a traced run can compare with.
BASELINE = {
    "angle_evals_period_sigma_1_1": 1250,
    "kernel_dim_5_3": 255,
    "kernel_dim_4_4": 160,
}


# Nominal cost of one reference_kernel run.  Scaled times are seconds on a
# machine where the kernel takes this long, about the undisturbed speed of
# the 2-vCPU cloud VM the benchmark was written on.
REFERENCE_S = 5.0e-4
REFERENCE_REPS = 3


def reference_kernel() -> None:
    """Fixed pure-Python work that owes nothing to densitylab.

    Exact Fraction sums, float arithmetic and dict stores: the kinds of work
    the verdicts do.  On a shared machine the speed of such work drifts by
    up to 1.5x over seconds to minutes, and the drift slows the kernel and
    a verdict that runs next to it alike, so their ratio does not drift.
    """
    s = Fraction(0)
    for i in range(1, 60):
        s += Fraction(i, i * i + 1)
    x = 0.0
    d = {}
    for i in range(1500):
        x += (i * 0.37) ** 0.5
        d[i & 31] = x


def reference_time() -> float:
    """The fastest of REFERENCE_REPS timed runs of reference_kernel."""
    best = inf
    for _ in range(REFERENCE_REPS):
        t0 = CLOCK()
        reference_kernel()
        best = min(best, CLOCK() - t0)
    return best


def scaled(elapsed: float, before: float, after: float) -> float:
    """elapsed in nominal seconds, given the reference times around it."""
    return elapsed * REFERENCE_S / ((before + after) / 2.0)


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least 10 of n samples beyond it.

    Nearest rank: the p-th percentile is the ceil(p n / 100)-th smallest
    sample.  None when that percentile would not lie above the median.
    """
    for p in range(99, 50, -1):
        if n - ceil(p * n / 100) >= 10:
            return p
    return None


def percentile(samples: list[float], p: int) -> float:
    ordered = sorted(samples)
    return ordered[max(ceil(p * len(ordered) / 100), 1) - 1]


class Loop:
    """The closed-loop caller: runs verdicts, times them, checks them."""

    def __init__(self, cli, docs: list[dict]):
        self.cli = cli
        self.docs = docs
        self.verdict_s: list[float] = []                  # every verdict, scaled
        self.raw_s: list[float] = []                      # every verdict, as timed
        self.doc_s: list[list[float]] = [[] for _ in docs]  # per document, scaled
        self.pass_s: list[float] = []                     # per pass, CPU, as timed
        self.pass_wall_s: list[float] = []                # per pass, wall clock
        self.pass_scaled_s: list[float] = []              # per pass, scaled
        self.attempted = 0
        self.failed = 0
        self.findings: dict[str, list[str]] = {}   # document JSON -> disagreements
        self.rec: tracing.Recorder | None = None

    def verdict(self, doc: dict) -> tuple[float, list[str]]:
        """Time one verdict; record any disagreement with the oracle as a finding."""
        cli = self.cli
        t0 = CLOCK()
        try:
            report = cli.run(cli.Scenario.from_config(doc))
            cli.report_body(report)
        except Exception as exc:  # a verdict that raises is a failed verdict
            elapsed = CLOCK() - t0
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            elapsed = CLOCK() - t0
            problems = oracles.disagreements(doc, report)
        if problems:
            self.findings.setdefault(json.dumps(doc, sort_keys=True), problems)
        return elapsed, problems

    def one_pass(self) -> float:
        """Every document once, each between two reference timings."""
        total = 0.0
        wall0 = time.perf_counter()
        before = reference_time()
        for i, doc in enumerate(self.docs):
            if self.rec is not None:
                self.rec.verdict = i
            elapsed, problems = self.verdict(doc)
            after = reference_time()
            total += elapsed
            self.raw_s.append(elapsed)
            self.verdict_s.append(scaled(elapsed, before, after))
            self.doc_s[i].append(self.verdict_s[-1])
            self.attempted += 1
            self.failed += bool(problems)
            before = after
        self.pass_s.append(total)
        self.pass_wall_s.append(time.perf_counter() - wall0)
        self.pass_scaled_s.append(sum(self.verdict_s[-len(self.docs):]))
        return total

    def estimates(self) -> list[float]:
        """Each document's median scaled verdict time over the passes run."""
        return [statistics.median(ts) for ts in self.doc_s]

    def passes_for(self, seconds: float, minimum: int, between=None) -> None:
        """Whole passes while the next one is expected to end within seconds.

        Successive passes run pinned to alternate CPUs, so that a verdict and
        the reference timings around it share one CPU, and one slow CPU
        cannot hold a whole run.  between() runs after each pass.
        """
        cpus = sorted(os.sched_getaffinity(0))
        t0 = time.perf_counter()
        try:
            while True:
                os.sched_setaffinity(0, {cpus[len(self.pass_s) % len(cpus)]})
                self.one_pass()
                if between is not None:
                    between()
                expected_end = time.perf_counter() - t0 + self.pass_wall_s[-1]
                if len(self.pass_s) >= minimum and expected_end > seconds:
                    return
        finally:
            os.sched_setaffinity(0, cpus)


def setup_time(doc: dict) -> tuple[float, float, float]:
    """CPU time a fresh process spends until it has imported densitylab and
    parsed a document, ready for its first verdict: as timed, and scaled by
    the reference timings around it.

    The child reads its own CPU clock, which starts when the process does,
    at that point, and reports it; its exit is not timed.  The wall time
    from spawn to ready comes back as well, for the printed table.
    """
    code = ("import sys, json, time; "
            "sys.path.insert(0, sys.argv[1]); "
            "from densitylab import cli; "
            "cli.Scenario.from_config(json.loads(sys.argv[2])); "
            "print(repr(time.process_time()), repr(time.perf_counter()))")
    before = reference_time()
    t0 = time.perf_counter()
    child = subprocess.run([sys.executable, "-c", code, str(SRC), json.dumps(doc)],
                           check=True, capture_output=True, text=True, timeout=120)
    cpu, ready = (float(x) for x in child.stdout.split()[-2:])
    return ready - t0, cpu, scaled(cpu, before, reference_time())


def print_findings(loop: Loop) -> None:
    for doc, problems in sorted(loop.findings.items()):
        print(f"FINDING verdict disagrees with oracle: {doc}")
        for p in problems:
            print(f"    {p}")


def end_to_end(args, cli, docs: list[dict]) -> tuple[Loop, dict]:
    warm = workloads.WARMUP[args.workload]
    loop = Loop(cli, docs)
    loop.verdict(warm)
    # set-up probes are spread over the run, one after each pass, so that
    # they sample the same machine states as the verdicts
    setups = [setup_time(warm)]
    loop.passes_for(args.seconds, MIN_PASSES, lambda: setups.append(setup_time(warm)))
    while len(setups) < SETUP_PROCESSES:
        setups.append(setup_time(warm))
    per_doc = loop.estimates()
    values = {
        "setup_s": statistics.median(s for _, _, s in setups),
        "wall_s": sum(per_doc),
        "verdict_p50_s": statistics.median(loop.verdict_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n = len(loop.verdict_s)
    p = tail_percentile(n)
    runs = f"the median of {len(loop.pass_s)} passes"
    rows = [
        ("setup_s", f"{values['setup_s']:.4f} s",
         f"median of {len(setups)} fresh processes, scaled"),
        ("wall_s", f"{values['wall_s']:.4f} s",
         f"sum over {len(docs)} documents of each one's scaled time, {runs}"),
        ("verdict_p50_s", f"{values['verdict_p50_s']:.4f} s",
         f"median of all {n} scaled verdicts"),
        ("verdict_tail_s",
         f"{percentile(loop.verdict_s, p):.4f} s" if p else "omitted",
         f"p{p} of scaled verdicts, n={n}, {n - ceil(p * n / 100)} beyond" if p
         else f"n={n}: fewer than 10 verdicts beyond any percentile above p50"),
        ("verdict_error_rate", f"{loop.failed / loop.attempted:.4f}",
         f"{loop.failed} of {loop.attempted} verdicts raised or disagree with the oracle"),
        ("peak_rss_mb", f"{values['peak_rss_mb']:.1f} MB", "ru_maxrss of this process"),
        ("  raw setup median", f"{statistics.median(c for _, c, _ in setups):.4f} s",
         "CPU time, not scaled"),
        ("  wall setup median", f"{statistics.median(w for w, _, _ in setups):.4f} s",
         "spawn to ready, wall clock"),
        ("  raw pass median", f"{statistics.median(loop.pass_s):.4f} s",
         f"n={len(loop.pass_s)} passes, CPU time, not scaled"),
        ("  wall pass median", f"{statistics.median(loop.pass_wall_s):.4f} s",
         f"n={len(loop.pass_s)} passes, wall clock"),
        ("  raw verdict p50", f"{statistics.median(loop.raw_s):.4f} s",
         f"n={n}, CPU time, not scaled"),
    ]
    for name, value, note in rows:
        print(f"  {name:<20} {value:>12}   {note}")
    return loop, {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def traced(action) -> tracing.Recorder:
    """Run action(recorder) with every probe installed; remove them after."""
    rec = tracing.Recorder(len(tracing.PROBES))
    inst = tracing.Installation(tracing.PROBES, rec)
    try:
        action(rec)
    finally:
        inst.undo()
    return rec


def per_layer(args, cli, docs: list[dict]) -> tuple[Loop, dict]:
    warm = workloads.WARMUP[args.workload]
    loop = Loop(cli, docs)
    loop.verdict(warm)
    loop.passes_for(args.seconds / 2.0, 1)
    untraced = statistics.median(loop.pass_scaled_s)

    # The baseline probes get a recorder of their own, so that their work
    # stays out of the per-layer numbers of the pass.
    probes = workloads.BASELINE_PROBES.get(args.workload, [])
    base_rec = traced(lambda rec: [loop.verdict(doc) for doc in probes])

    def one_traced_pass(rec: tracing.Recorder) -> None:
        loop.rec = rec
        loop.one_pass()
        loop.rec = None

    rec = traced(one_traced_pass)
    traced_wall = loop.pass_scaled_s[-1]
    metrics = tracing.layer_metrics(rec)
    metrics["bench.traced_wall_s"] = traced_wall
    metrics["bench.trace_overhead_s"] = traced_wall - untraced
    base = tracing.baseline_observations(base_rec)
    for key, value in tracing.baseline_observations(rec).items():
        base.setdefault(key, value)
    path = OUT / f"trace_{args.workload}.csv.gz"
    tracing.write_spans(rec, path)
    if probes:
        tracing.write_spans(base_rec, OUT / f"trace_{args.workload}_baseline.csv.gz")

    print(f"  traced pass {traced_wall:.4f} s, untraced median {untraced:.4f} s "
          f"over {len(loop.pass_s) - 1} passes: tracing overhead "
          f"{traced_wall - untraced:+.4f} s")
    print(f"  {len(rec.start)} spans of the traced pass written to "
          f"{path.relative_to(ROOT)}")
    for name in sorted(metrics):
        print(f"  {name:<52} {metrics[name]:.6g}")
    for name in rec.absent:
        print(f"  absent at this commit: {name}")
    for key, expected in BASELINE.items():
        got = base.get(key)
        if got is None:
            print(f"  baseline {key}: not exercised by this workload")
        else:
            verdict = "same" if got == expected else f"DIFFERS by {got - expected:+d}"
            print(f"  baseline {key}: traced {got}, ROADMAP table {expected}: {verdict}")
    return loop, {k: {"value": metrics.get(k, 0.0), "unit": _unit(k)} for k in PER_LAYER}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        from densitylab import cli
    except ImportError as exc:
        print(f"error: cannot import densitylab from {SRC}: {exc}", file=sys.stderr)
        return 2

    docs = workloads.generate(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}: closed loop, 1 caller, 1 verdict outstanding, "
          f"{len(docs)} documents per pass")
    if args.trace:
        loop, metrics = per_layer(args, cli, docs)
    else:
        loop, metrics = end_to_end(args, cli, docs)
    print_findings(loop)
    print(json.dumps({"correct": loop.failed == 0 and not loop.findings,
                      "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
