"""Constant-energy harmonic maps between spheres from Gram matrices.

Degree-m harmonic polynomial maps F with sum of squares R^m restrict to
harmonic maps S^n -> S^N of constant energy density m(m + n - 1).  The set
of such maps is the affine space h^{-1}(R^m) of Gram matrices; its kernel
dimension against dim SO(n+1) certifies nonuniqueness.
"""

import json
from pathlib import Path
import tempfile

from densitylab import sphere_maps as sm
from densitylab import cli

print(__doc__)

print("1. kernel dimensions and nonuniqueness margins")
print("-" * 60)
for (n_amb, m) in [(4, 1), (4, 2), (5, 2)]:
    rep = sm.nonuniqueness_report(n_amb, m)
    verdict = "nonuniqueness assured" if rep["nonuniqueness_assured"] \
        else "no slack at this degree"
    print(f"   S^{n_amb-1}, degree {m}: kernel {rep['kernel_dimension']:>3}, "
          f"dim SO({n_amb}) = {rep['so_dimension']:>2}, margin "
          f"{rep['margin']:>3}  ({verdict})")
print()

print("2. an exact map S^3 -> S^7 of energy density 8")
print("-" * 60)
cmap = sm.canonical_exact_map(4, 2)
print(f"   components ({len(cmap.components)}, all harmonic, exact "
      f"rational coefficients):")
for f in cmap.components:
    print(f"     {f!r}")
exact = sm._sum_of_squares_is_Rm(cmap)
print(f"   sum of squares minus R^2: {'exact zero' if exact else 'nonzero'}")
pts = sm.random_sphere_points(4, 5, 99)
energies = sm.energy_density(cmap, pts).tolist()
print(f"   energy density at 5 random sphere points: "
      f"{[round(e, 12) for e in energies]}")
print()

print("3. the scaled-identity solution and a kernel deformation")
print("-" * 60)
basis = sm.basis_Hm(4, 2)
G0, kernel = sm.solve_h_equals_Rm(4, 2, basis)
print(f"   basis of H_2(R^4): {basis.dim} orthogonal elements, norms "
      f"{[str(v) for v in basis.norms]}")
print(f"   invariant sum h(G0) = R^2 holds exactly; kernel dimension "
      f"{kernel.dimension}")
m0 = sm.construct_map(G0, basis)
rank0 = len(G0.ldlt()[0])   # the PSD elimination stops at the rank
print(f"   construct_map(G0): {len(m0.components)} components from rank "
      f"{rank0}, exact sum of squares")
G1, t = sm.psd_point_on_line(G0, kernel.elements[0])
m1 = sm.construct_map(G1, basis)
print(f"   deformed Gram G0 + {t} k stays PSD: a second map with the same")
print(f"   energy density and a different Gram matrix ({len(m1.components)} "
      f"components from rank {len(G1.ldlt()[0])})")
print()

print("4. export")
print("-" * 60)
with tempfile.TemporaryDirectory() as tmp:
    path = cli.export_map_json(cmap, Path(tmp) / "map.json")
    doc = json.loads(path.read_text())
    print(f"   wrote {path.name}: n = {doc['n']}, m = {doc['m']}, "
          f"lambda = {doc['lambda']}, exact = {doc['exact']}")
    first = doc["components"][0]
    print(f"   first component ({len(first)} monomials): {first}")
