"""Smoke test: every demo runs to completion.

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


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_exits_zero(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
