"""Smoke test: every demo runs to completion, demo 01 prints its heights,
and demo 05 its kernel dimensions and its deformed map.

The five demos cover height reconstruction, throat periods, the Calabi
compatibility search (its 2000 random jets run as one batch), the exact
harmonic calculus and the exact sphere-map factorization in a few seconds
together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = [
    "01_equal_area_minimal_graphs.py",
    "02_doubly_periodic_topology.py",
    "03_band_metric_compatibility.py",
    "04_harmonic_polynomial_calculus.py",
    "05_constant_energy_sphere_maps.py",
]
# lines a demo must print, so that the smoke test sees a change in what it
# computes and not only in its exit code: demo 01's reconstructed heights
# (sections 1, 3 and 4, to 6 digits), and demo 05's kernel dimensions and
# the map it builds from its first kernel element
PINNED_LINES = {
    "01_equal_area_minimal_graphs.py": [
        "   psi = 0.0: reconstructed heights [0.0, 1.732051, 1.732051]",
        "   psi = 1.0: reconstructed heights [0.0, 0.935831, 2.393302]",
        "   reconstructed branch heights at path end: u+ = 0.380616, u- = 0.444855",
        "   branch heights over a staircase path: u+ = 0.734425, u- = -0.196962",
    ],
    "05_constant_energy_sphere_maps.py": [
        "   S^3, degree 2: kernel  10, dim SO(4) =  6, margin   4  (nonuniqueness assured)",
        "   S^4, degree 2: kernel  35, dim SO(5) = 10, margin  25  (nonuniqueness assured)",
        "   deformed Gram G0 + 1/2 k stays PSD: a second map with the same",
        "   energy density and a different Gram matrix (24 components from rank 9)",
    ],
}


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_exits_zero(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    for line in PINNED_LINES.get(name, []):
        assert line in lines
