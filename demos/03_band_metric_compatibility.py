"""Calabi's band-metric Lagrangian and its compatibility obstruction.

In a region crossed by three bands of length-calibrated geodesics, the third
calibration z(x, y) extremizes L = 2 z_x z_y / sqrt((2 z_x z_y)^2 -
(z_x^2 + z_y^2 - 1)^2).  Prescribing the density L = 1/sin(2 phi) pins the
gradient to an ellipse parametrized by an angle theta, and compatibility of
the resulting system is measured by three extracted coefficients (A1, A2, A3):
a second solution angle exists only where A1 cos 2th + A2 sin 2th + A3 = 0.
This script extracts those coefficients numerically, solves for the candidate
angles, and evaluates the third-order residuals that any two-solution density
must annihilate.  A small random search for residual zeros is reported (none
is asserted to exist; the constants are the only known solutions).
"""

import math
import random

import numpy as np

from densitylab import calabi as cb
from densitylab.errors import DensityLabError
from densitylab.jets import Jet

print(__doc__)

print("1. prescribed density on the gradient ellipse")
print("-" * 60)
phi, theta = 0.3, 0.25
g = cb.ellipse_param(phi, theta)
print(f"   phi = {phi}, theta = {theta}: (p, q) = ({g.p:.6f}, {g.q:.6f})")
print(f"   L(p, q) = {cb.lagrangian_L(g):.9f} vs 1/sin(2 phi) = "
      f"{1/math.sin(2*phi):.9f}")
print(f"   ellipse identity p^2 - 2 cos(2 phi) pq + q^2 - 1 = "
      f"{g.p**2 - 2*math.cos(2*phi)*g.p*g.q + g.q**2 - 1:.2e}")
f, density = cb.band_metric(Jet(0.0, dx=g.p, dy=g.q, order=1))
print(f"   band metric coefficient f = {f:.6f} (|f| < 1: positive definite),")
print(f"   area density = {density:.9f}")
print()

print("2. compatibility coefficients, extracted by exact angle probing")
print("-" * 60)
probe = Jet(math.pi / 8, dx=0.1, dy=0.0, dxx=0.0, dxy=0.0, dyy=0.04, order=3)
print("   probe jet: phi = pi/8 + x/10 + y^2/50 at the origin")
data = cb.compatibility_extract(probe)
print(f"   w1 = ({data.omega1[0]:+.6f} dx {data.omega1[1]:+.6f} dy)")
print(f"   w2 = ({data.omega2[0]:+.6f} dx {data.omega2[1]:+.6f} dy)")
print(f"   w3 = ({data.omega3[0]:+.6f} dx {data.omega3[1]:+.6f} dy)")
print(f"   obstruction (A1, A2, A3) = ({data.A1:.6f}, {data.A2:.6f}, "
      f"{data.A3:.6f})")
cands = cb.two_theta_candidates(probe)
print(f"   candidate angles (at most two): {[round(t, 6) for t in cands]}")
for th in cands:
    rx, ry = cb.third_order_residual(probe, th)
    print(f"   third-order residual at theta = {th:+.6f}: "
          f"({rx:+.6f}, {ry:+.6f})")
print("   nonzero residuals: this probe density admits only one solution.")
print()
const = cb.compatibility_extract(Jet(math.pi / 8, order=2))
print(f"   constant phi gives (A1, A2, A3) = ({const.A1}, {const.A2}, "
      f"{const.A3}): the known trivial case.")
print()

print("3. random search for third-order residual zeros (none expected)")
print("-" * 60)
rng = random.Random(20260808)
# per jet, in this order: phi's value and its nine partials up to order 3
draws = [[rng.uniform(0.15, math.pi / 4 - 0.15)]
         + [rng.uniform(-0.3, 0.3) for _ in range(9)] for _ in range(2000)]
# all 2000 candidate searches run as one batch; the residuals stay scalar
outcomes = cb.candidates_batch(Jet(*np.array(draws).T, order=3))
best = None
for row, cands in zip(draws, outcomes):
    if not isinstance(cands, list):
        continue                      # the exception class of a skipped jet
    phij = Jet(*row, order=3)
    try:
        for th in cands:
            rx, ry = cb.third_order_residual(phij, th)
            size = math.hypot(rx, ry)
            if best is None or size < best[0]:
                best = (size, phij.value, th)
    except DensityLabError:
        continue
print(f"   smallest residual over 2000 random 3-jets: {best[0]:.6f}")
print("   (no zero found; consistent with constants being the only")
print("    densities admitting two inequivalent extremals)")
