"""Self-tests of the benchmark's own logic.

    python3 bench/selftest.py

They cover the oracles (kernel-dimension closed form, admissibility strip),
the tail-percentile rule, self time on synthetic nested spans, probe
installation (aliases, absent names, error counting) and the agreement of
BENCHMARK.json with the metrics the benchmark prints.  They are kept out of
the repository's test suite, like the benchmark itself.
"""

from __future__ import annotations

import json
import sys
import unittest
from math import ceil
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class KernelDimension(unittest.TestCase):
    def test_closed_form_at_six_sizes(self):
        # values from exact elimination (solve_h_equals_Rm) at the parent commit
        measured = {(4, 2): 10, (5, 2): 35, (4, 3): 52, (6, 2): 84,
                    (4, 4): 160, (5, 3): 255}
        for (n, m), dim in measured.items():
            self.assertEqual(oracles.kernel_dim(n, m), dim, (n, m))

    def test_degree_one_has_trivial_kernel(self):
        for n in (3, 4, 5, 6):
            self.assertEqual(oracles.kernel_dim(n, 1), 0)

    def test_harmonic_dimension(self):
        self.assertEqual(oracles.harmonic_dim(3, 2), 5)
        self.assertEqual(oracles.harmonic_dim(5, 3), 30)
        self.assertEqual(oracles.harmonic_dim(4, 4), 25)


class Strip(unittest.TestCase):
    def test_open_strip(self):
        self.assertTrue(oracles.in_strip(1.0, 1.0))
        self.assertTrue(oracles.in_strip(0.8, 0.5))
        self.assertFalse(oracles.in_strip(1.5, 0.2))     # |a - c| > 1
        self.assertFalse(oracles.in_strip(0.3, 0.4))     # a + c < 1
        self.assertFalse(oracles.in_strip(1.0, 0.0))     # on the edge |a - c| = 1
        self.assertFalse(oracles.in_strip(0.5, 0.5))     # on the edge a + c = 1

    def test_margin(self):
        self.assertTrue(oracles.in_strip(1.0, 0.15, 0.1))
        self.assertTrue(oracles.in_strip(1.0, 0.05))
        self.assertFalse(oracles.in_strip(1.0, 0.05, 0.1))
        self.assertTrue(oracles.outside_strip(1.5, 0.2, 0.1))
        self.assertFalse(oracles.outside_strip(1.05, 0.0, 0.1))
        self.assertFalse(oracles.outside_strip(1.05, 0.1, 0.1))

    def test_generated_pairs_respect_the_margin(self):
        docs = workloads.generate("families_sweep", 11)
        inside = outside = 0
        for doc in docs:
            p = doc["params"]
            a, c = (p["a"], p["c"]) if doc["mode"] == "verify" else p["pairs"][0]
            if oracles.in_strip(a, c):
                inside += 1
                self.assertTrue(oracles.in_strip(a, c, oracles.STRIP_MARGIN))
            else:
                outside += 1
                self.assertTrue(oracles.outside_strip(a, c, oracles.STRIP_MARGIN))
                self.assertNotEqual(doc["mode"], "verify")
        self.assertEqual((inside, outside), (36, 6))


class Percentile(unittest.TestCase):
    def test_known_sizes(self):
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertEqual(run.tail_percentile(110), 90)
        self.assertEqual(run.tail_percentile(1000), 99)
        self.assertEqual(run.tail_percentile(21), 52)
        self.assertIsNone(run.tail_percentile(20))
        self.assertIsNone(run.tail_percentile(5))

    def test_at_least_ten_beyond_and_highest(self):
        for n in range(1, 600):
            p = run.tail_percentile(n)
            if p is None:
                continue
            samples = [float(i) for i in range(n)]
            value = run.percentile(samples, p)
            self.assertGreaterEqual(sum(s > value for s in samples), 10, n)
            if p < 99:
                self.assertLess(n - ceil((p + 1) * n / 100), 10, n)


class Scaling(unittest.TestCase):
    def test_nominal_reference_speed_leaves_time_unchanged(self):
        r = run.REFERENCE_S
        self.assertAlmostEqual(run.scaled(0.25, r, r), 0.25)

    def test_a_uniform_slowdown_cancels(self):
        r = run.REFERENCE_S
        fast = run.scaled(0.2, r, r)
        self.assertAlmostEqual(run.scaled(0.3, 1.5 * r, 1.5 * r), fast)
        self.assertAlmostEqual(run.scaled(0.3, 1.2 * r, 1.8 * r), fast)

    def test_reference_time_is_positive(self):
        self.assertGreater(run.reference_time(), 0.0)


class SelfTime(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        rec = tracing.Recorder(3)
        root = rec.add_span(0, -1, 0, 0, 100)
        c1 = rec.add_span(1, root, 0, 10, 30)
        rec.add_span(2, c1, 0, 12, 15)
        rec.add_span(1, root, 0, 20, 50)      # overlaps c1: union is 10..50
        rec.add_span(1, root, 0, 90, 120)     # clipped to the parent's end
        selfs = tracing.self_times(rec)
        self.assertEqual(selfs, [100 - 40 - 10, 20 - 3, 3, 30, 30])

    def test_layer_metrics_sum_self_time_by_name(self):
        names = [p.name for p in tracing.PROBES]
        run_i, mul_i = names.index("cli.run"), names.index("jets.Jet.mul")
        rec = tracing.Recorder(len(names))
        top = rec.add_span(run_i, -1, 0, 0, 1_000_000_000)
        rec.add_span(mul_i, top, 0, 100, 250_000_100)
        rec.add_span(mul_i, top, 0, 500_000_000, 750_000_000)
        m = tracing.layer_metrics(rec)
        self.assertEqual(m["cli.run.calls"], 1)
        self.assertAlmostEqual(m["cli.run.self_s"], 0.5)
        self.assertEqual(m["jets.Jet.mul.calls"], 2)
        self.assertAlmostEqual(m["jets.Jet.mul.self_s"], 0.5)


class Probes(unittest.TestCase):
    def test_aliases_imports_and_restore(self):
        from densitylab import calabi, jets, minimal_graphs
        names = [p.name for p in tracing.PROBES]
        rec = tracing.Recorder(len(names))
        original_mul, original_cos = jets.Jet.__mul__, calabi.jet_cos
        inst = tracing.Installation(tracing.PROBES, rec)
        try:
            self.assertIs(jets.Jet.__rmul__, jets.Jet.__mul__)
            self.assertIsNot(jets.Jet.__mul__, original_mul)
            self.assertIs(calabi.jet_cos, jets.jet_cos)
            x = jets.Jet(0.5, dx=1.0)
            _ = 2.0 * x      # __rmul__
            _ = x * x        # __mul__
            calabi.jet_cos(x)
            minimal_graphs.jet_cos(x)
        finally:
            inst.undo()
        self.assertIs(jets.Jet.__mul__, original_mul)
        self.assertIs(calabi.jet_cos, original_cos)
        m = tracing.layer_metrics(rec)
        self.assertEqual(m["jets.Jet.mul.calls"], 2)
        self.assertEqual(m["jets.elementary.calls"], 2)
        self.assertEqual(rec.absent, [])

    def test_absent_names_are_recorded_not_raised(self):
        probes = tracing.PROBES + (
            tracing.Probe("gone.module", "densitylab.no_such_module", ("f",)),
            tracing.Probe("gone.method", "densitylab.jets", ("Jet.__no_such__",)),
        )
        rec = tracing.Recorder(len(probes))
        tracing.Installation(probes, rec).undo()
        self.assertEqual(len(rec.absent), 2)
        m = tracing.layer_metrics(rec, probes)
        self.assertEqual(m["gone.module.calls"], 0)

    def test_an_error_counts_once_across_nested_probes(self):
        from densitylab import minimal_graphs as mg
        from densitylab.errors import DomainViolation
        off_surface = [mg.SurfacePoint(0.0, 0.0, 5.0), mg.SurfacePoint(0.0, 0.1, 5.0)]
        rec = tracing.Recorder(len(tracing.PROBES))
        inst = tracing.Installation(tracing.PROBES, rec)
        try:
            # raised in cos_sin_two_theta, then leaves lift_theta_along too
            with self.assertRaises(DomainViolation):
                mg.lift_theta_along(off_surface, 1.0, 1.0)
        finally:
            inst.undo()
        m = tracing.layer_metrics(rec)
        self.assertEqual(m["minimal_graphs.cos_sin_two_theta.calls"], 1)
        self.assertEqual(m["minimal_graphs.lift_theta_along.calls"], 1)
        self.assertEqual(m["minimal_graphs.errors.DomainViolation"], 1)


class Oracles(unittest.TestCase):
    def report(self, overall, *checks):
        return {"overall": overall,
                "checks": [dict(zip(("name", "status", "witness"), c)) for c in checks]}

    def test_outside_the_strip_expects_a_param_violation(self):
        doc = {"suite": "families", "mode": "period", "params": {"pairs": [[1.5, 0.2]]}}
        good = self.report("fail", ("period[a=1.5,c=0.2]", "fail", "ParamViolation: x"))
        self.assertEqual(oracles.disagreements(doc, good), [])
        wrong = self.report("pass", ("period_nonzero[a=1.5,c=0.2]", "pass", ""))
        self.assertTrue(oracles.disagreements(doc, wrong))

    def test_inside_the_strip_expects_pass(self):
        doc = {"suite": "families", "mode": "verify", "params": {"a": 1.0, "c": 1.0}}
        self.assertTrue(oracles.disagreements(doc, self.report("fail", ("x", "fail", ""))))

    def test_candidate_count(self):
        doc = {"suite": "calabi", "mode": "branches", "params": {"trials": 5}}
        ok = self.report("pass", ("at_most_two_candidates", "pass",
                                  "max count 2 over 5 trials"))
        bad = self.report("pass", ("at_most_two_candidates", "pass",
                                   "max count 3 over 5 trials"))
        self.assertEqual(oracles.disagreements(doc, ok), [])
        self.assertTrue(oracles.disagreements(doc, bad))

    def test_kernel_dimension_and_canary(self):
        doc = {"suite": "maps", "mode": "kernel", "params": {"cases": [[4, 2]]}}
        wit = json.dumps({"kernel_dimension": 11})
        bad = self.report("pass", ("kernel[n_ambient=4,m=2]", "pass", wit))
        self.assertTrue(oracles.disagreements(doc, bad))
        doc = {"suite": "harmonic", "mode": "identities",
               "params": {"dims": [3], "max_degree": 1}}
        no_canary = self.report("pass", ("identities[n=3,d=1]", "pass", ""))
        self.assertTrue(oracles.disagreements(doc, no_canary))


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_printed_metrics(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(run.PER_LAYER))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.GENERATORS))

    def test_documents_come_from_the_seed(self):
        for name in workloads.GENERATORS:
            self.assertEqual(workloads.generate(name, 7), workloads.generate(name, 7))
            self.assertNotEqual(workloads.generate(name, 7), workloads.generate(name, 8))


if __name__ == "__main__":
    unittest.main()
