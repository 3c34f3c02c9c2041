"""The calabi suite's handlers: the band-metric Lagrangian.  Imported by cli
once a document names the suite."""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np

from . import calabi
from .cli import Scenario, _check, _tally
from .jets import Jet


def _calabi_residual(sc: Scenario) -> list[dict]:
    checks = []
    z_lin = Jet(0.3, dx=0.9, dy=0.8, order=2)
    r = calabi.el_residual(z_lin)
    checks.append(_check("linear_extremal_exact", r == 0.0, abs(r), exact=True))
    rng = random.Random(sc.seed)
    worst = 0.0
    for _ in range(sc.args["probes"]):
        phi = rng.uniform(0.1, math.pi / 4 - 0.1)
        th = rng.uniform(-0.3, 0.3)
        gp = calabi.ellipse_param(phi, th)
        res = abs(calabi.lagrangian_L(gp) - 1.0 / math.sin(2.0 * phi))
        worst = max(worst, res)
    checks.append(_check("prescribed_density_on_ellipse", worst < 1e-10, worst))
    return checks


def _calabi_branches(sc: Scenario) -> list[dict]:
    rng = random.Random(sc.seed)
    n = sc.args["trials"]
    # per trial, in this order: phi's value, dx, dy, dxx, dxy, dyy
    draws = [[rng.uniform(0.15, math.pi / 4 - 0.15)]
             + [rng.uniform(-0.3, 0.3) for _ in range(5)] for _ in range(n)]
    phij = Jet(*np.array(draws, dtype=float).reshape(-1, 6).T, order=2)
    outcomes = calabi.candidates_batch(phij)
    counts = [len(o) for o in outcomes if isinstance(o, list)]
    skipped = Counter(o.__name__ for o in outcomes if isinstance(o, type))
    max_count = max(counts, default=0)
    witness = (f"max count {max_count} over {n} trials; {len(counts)} used, "
               f"{sum(skipped.values())} skipped{_tally(skipped)}")
    return [_check("at_most_two_candidates", bool(counts) and max_count <= 2,
                   witness=witness)]


def _calabi_extract(sc: Scenario) -> list[dict]:
    checks = []
    const = calabi.compatibility_extract(Jet(math.pi / 8, order=2))
    worst = max(abs(const.A1), abs(const.A2), abs(const.A3))
    checks.append(_check("constant_phi_obstruction_zero", worst < 1e-12, worst))
    phij = Jet(math.pi / 8, dx=0.1, dy=0.05, dxy=0.02, dyy=0.04, order=3)
    data = calabi.compatibility_extract(phij)
    th = math.pi / 6
    pred = [(math.cos(2 * th) * data.omega1[i] + math.sin(2 * th) * data.omega2[i]
             + data.omega3[i]) / 2.0 for i in range(2)]
    act = calabi.theta_gradient_calabi(phij, th)
    err = max(abs(pred[0] - act[0]), abs(pred[1] - act[1]))
    checks.append(_check("held_out_angle_consistency", err < 1e-9, err))
    return checks
