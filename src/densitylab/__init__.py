"""densitylab: verification suites for extremals with a prescribed density.

Three problem families are covered, each asking when an Euler-Lagrange
equation admits several inequivalent solutions inducing the same Lagrangian
density: minimal graphs sharing an area density (:mod:`.minimal_graphs`),
Calabi's band-metric Lagrangian from extremal isosystolic geometry
(:mod:`.calabi`), and constant-energy harmonic maps between spheres
(:mod:`.harmonic`, :mod:`.sphere_maps`).  Exact rational arithmetic is used
wherever a statement is exact; everything else is checked against stated
double-precision tolerances.
"""

# module -> the names the package exports from it.  A name is imported with
# its module on first access (PEP 562), so `from densitylab import cli` or
# `densitylab.Poly` loads no suite it does not use.
_EXPORTS = {
    "errors": ("DensityLabError",),
    "jets": ("Jet",),
    "minimal_graphs": (
        "ConstantPlane", "DensityFamily", "DoublyPeriodic", "FirstIntegrals",
        "HeliCatenoid", "LiftedAngle", "ScherkFifth", "SurfacePoint",
        "c_system_residual", "compatibility_data", "density_value",
        "first_integrals", "lift_theta_along", "minimal_residual", "period_sigma",
        "reconstruct_u", "scherk_closed_form", "two_theta_solutions",
    ),
    "calabi": (
        "CompatibilityData", "GradientPair", "band_metric", "candidates_batch",
        "compatibility_extract", "el_residual", "ellipse_param", "lagrangian_L",
        "theta_gradient_calabi", "third_order_residual", "two_theta_candidates",
    ),
    "harmonic": (
        "HarmonicElement", "Poly", "SpectralParams", "a_sequence",
        "admissible_lambda", "b_coeff", "dim_harmonics", "dot", "identity_suite",
        "inner", "so_action", "vee",
    ),
    "sphere_maps": (
        "GramMatrix", "HarmonicBasis", "KernelCertificate", "SphericalHarmonicMap",
        "basis_Hm", "canonical_exact_map", "construct_map", "energy_density",
        "nonuniqueness_report", "solve_h_equals_Rm",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value   # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
