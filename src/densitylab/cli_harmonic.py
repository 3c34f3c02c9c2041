"""The harmonic suite's handlers: the pairing identities, the spectral
dichotomy and the dimension formula, exact and without numpy.  Imported by
cli once a document names the suite."""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

from . import harmonic, poly
from .cli import Scenario, _check
from .errors import UsageError


def _harmonic_identities(sc: Scenario) -> list[dict]:
    # default scenario: n = 3, d <= 3, 50 trials; widen via params
    p, checks = sc.args, []
    for n in p["dims"]:
        for d in range(1, p["max_degree"] + 1):
            try:
                harmonic.identity_suite(n, d, p["trials"], seed=sc.seed)
                checks.append(_check(f"identities[n={n},d={d}]", True, exact=True))
            except harmonic.IdentityFailure as exc:
                checks.append(_check(f"identities[n={n},d={d}]", False,
                                     witness=str(exc)))
    try:
        harmonic.identity_suite(3, 2, 5, seed=sc.seed, corrupt=True)
        checks.append(_check("mutation_detected", False))
    except harmonic.IdentityFailure:
        checks.append(_check("mutation_detected", True, exact=True))
    return checks


def _harmonic_spectrum(sc: Scenario) -> list[dict]:
    p, checks = sc.args, []
    need = max((_deciding_m_max(n, p["lambda_max"]) for n in p["dims"] if n >= 3),
               default=0)
    if p["m_max"] < need:
        raise UsageError(f"params of harmonic spectrum: m_max is {p['m_max']}; "
                         f"lambda_max {p['lambda_max']} on dims {p['dims']} "
                         f"needs m_max >= {need} to decide every eigenvalue")
    for n in p["dims"]:
        ok = True
        witness = None
        for lam in range(p["lambda_max"] + 1):
            spec = harmonic.SpectralParams(n, Fraction(1), Fraction(lam))
            m = harmonic.admissible_lambda(spec)
            terms = islice(harmonic._a_terms(spec), p["m_max"] + 1)
            if m is not None:
                # A_0..A_m positive, then zeros to the end; lambda = 0 gives
                # m = 0 and zeros from index 1
                vals = list(terms)
                good = (len(vals) > m + 1 and all(v > 0 for v in vals[:m + 1])
                        and not any(vals[m + 1:]))
            else:
                # decided at the first negative term
                good = any(v < 0 for v in terms)
            if not good:
                ok = False
                witness = f"lambda={lam}"
                break
        checks.append(_check(f"dichotomy[n={n}]", ok, exact=True, witness=witness))
    return checks


def _deciding_m_max(n: int, lam_max: int) -> int:
    """The fewest terms A_1..A_m_max that decide every lambda <= lam_max on
    R^n with K = 1: k + 1, k the least integer with k(n + k - 1) >= lam_max.
    A_(k+1) is the first zero of an admissible lambda = k(n + k - 1), and
    the first negative term of any lambda between (k-1)(n + k - 2) and it."""
    k = 0
    while k * (n + k - 1) < lam_max:
        k += 1
    return k + 1


def _harmonic_dims(sc: Scenario) -> list[dict]:
    checks = []
    worst = None
    ok = True
    for n_amb in sc.args["ambient_dims"]:
        for m in range(0, sc.args["max_degree"] + 1):
            formula = harmonic.dim_harmonics(n_amb, m)
            brute = _brute_harmonic_dim(n_amb, m)
            if formula != brute:
                ok = False
                worst = f"(n={n_amb}, m={m}): {formula} != {brute}"
    checks.append(_check("dimension_formula", ok, exact=True, witness=worst))
    return checks


def _brute_harmonic_dim(n_amb: int, m: int) -> int:
    """dim ker(Laplacian: P_m -> P_(m-2)), from the Laplacian's matrix.

    Column j is the Laplacian of monomial j, with integer coefficients; the
    kernel dimension is the column count minus the exact rank.  The rank is
    certified by the square minor on the columns x_0^2 x^beta, beta of
    degree m - 2: the Laplacian of x_0^2 x^beta is (beta_0+2)(beta_0+1) x^beta
    plus terms with a higher power of x_0, so with rows and columns ordered
    by the exponent of x_0 the minor is triangular with a nonzero diagonal,
    and the rank is the row count.  That structure is checked on the
    columns built; only where it fails is the rank taken, by the exact
    elimination of sphere_maps (which loads numpy) on the columns.
    """
    monos = poly._packed_monomials(n_amb, m)
    if m < 2:
        return len(monos)
    targets = poly._packed_monomials(n_amb, m - 2)
    # column j holds d_i^2 x^(e_j) at row t for each (t, i) with e_j = t + 2 u_i
    columns: list[dict[int, int]] = [{} for _ in monos]
    _, mults, positions = poly._lowering(n_amb, m, 2)
    for k, (j, v) in enumerate(zip(positions, mults)):
        columns[j][k // n_amb] = v
    top = poly._shifts(n_amb)[0]   # key >> top is the exponent of x_0
    place = poly._place(n_amb, m)
    for row, beta in enumerate(targets):
        b0, col = beta >> top, columns[place[beta + (2 << top)]]
        if col.get(row) != (b0 + 2) * (b0 + 1) \
                or any(targets[r] >> top <= b0 for r in col if r != row):
            break
    else:
        return len(monos) - len(targets)
    from . import sphere_maps as sm
    core = sm._IntegerRref()   # the rank of the columns is the rank of the matrix
    for col in columns:
        core.add(col)
    return len(monos) - len(core.pivots)
