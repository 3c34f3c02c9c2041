"""Exact rational calculus of harmonic polynomials on R^n: the pairings,
their identity suite and the spectral sequence.

The pairings run on poly's dense per-degree lists, splitting a Poly into
its homogeneous components at the edge, and need no numpy; harmonic.Poly,
HarmonicElement and dim_harmonics are poly's.  Every identity is exact:
the identity suite compares integer lists over f's denominator, which is
equality of polynomials.  The sign convention is pinned to the geometer's
Laplacian, the negative of the trace of the Hessian, so (-Delta)^d below is
the d-th power of the analyst's sum of pure second partials.

The degree-shifting pairings on harmonic polynomials are normalized by

    (n + 2d - 2) xi f = (f vee xi) + R (f . xi),       R = sum_i (x^i)^2,

where f . xi is the directional derivative of f along xi and f vee xi is
the harmonic projection of the product, rescaled; f vee xi and the rotation
(a ^ b) . f are one gather-sum each (poly._gather_sum).  The inner product
is the Fischer pairing <f, g> = sum_alpha alpha! f_alpha g_alpha over the
shared monomials x^alpha.  On harmonic f, g of the same degree d (its
precondition) it equals the Laplacian form (-Delta)^d (f g) / (2^d d!)
exactly.

The spectral side: b_m(lambda) = (lambda - m(n+m-1) K)/((n+2m)(n+2m-2))
controls the recursion A_{m+1} = b_m (m+n-2)(n+2m)/(m+1) A_m of squared
derived-tensor norms of an eigenfunction with constant energy; for K > 0
the sequence stays nonnegative only when lambda = m(n+m-1)K for an integer
m, which is the eigenvalue quantization used by the sphere-map module.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from itertools import islice
from math import gcd
from typing import NamedTuple, Optional

from .errors import DegreeMismatch, DegreeViolation, IdentityFailure, ParamViolation
from .poly import (HarmonicElement, Poly, _components, _copies, _difference, _directional,
                   _fischer, _fischer_weights, _from_components, _gather_sum, _harmonic_part,
                   _linear_coefficients, _packed_monomials, _require_integers, _scaled,
                   dim_harmonics)


class SpectralParams(NamedTuple):
    """Space-form dimension n >= 3, sectional curvature K > 0, eigenvalue."""

    n: int
    K: Fraction
    lam: Fraction

    def validate(self) -> None:
        if self.n < 3:
            raise ParamViolation(f"n must be >= 3, got {self.n}")
        if not self.K > 0:
            raise ParamViolation(f"K must be positive, got {self.K}")


# ----------------------------------------------------------------------
# the pairings
# ----------------------------------------------------------------------

def _require_linear(xi: HarmonicElement) -> None:
    if xi.degree != 1:
        raise DegreeViolation(f"xi must be linear, got degree {xi.degree}")


def _per_degree(p: Poly, den: int, shift: int, kernel) -> Poly:
    """The Poly over den of kernel(list, k) on p's component of each degree
    k, a list of degree k + shift."""
    return _from_components(p.nvars, den, {k + shift: kernel(v, k) for k, v
                                           in _components(p.nums, p.nvars).items()})


def dot(f: HarmonicElement, xi: HarmonicElement) -> HarmonicElement:
    """Degree-lowering pairing: the directional derivative of f along xi."""
    _require_linear(xi)
    n, x = f.poly.nvars, _linear_coefficients(xi.poly)
    return HarmonicElement(_per_degree(f.poly, f.poly.den * xi.poly.den, -1,
                                       lambda v, k: _directional(v, n, k, x)),
                           max(f.degree - 1, 0))


def _vee(v: list, nvars: int, degree: int, xi, vdx: list) -> list:
    """f vee xi = (n + 2d - 2) xi f - R (f . xi) for the list v of f of
    degree d, vdx = f . xi, in one gather-sum: the formula's one place."""
    sources = _copies(v, _scaled(xi, nvars + 2 * degree - 2)) + _scaled(vdx, -1)
    return _gather_sum(nvars, ((degree, 1), (degree - 1, 2)))(sources)


def vee(f: HarmonicElement, xi: HarmonicElement) -> HarmonicElement:
    """Degree-raising pairing from (n + 2d - 2) xi f = f vee xi + R (f . xi)."""
    _require_linear(xi)
    n, x = f.poly.nvars, _linear_coefficients(xi.poly)
    return HarmonicElement(_per_degree(f.poly, f.poly.den * xi.poly.den, 1,
                                       lambda v, k: _vee(v, n, k, x, _directional(v, n, k, x))),
                           f.degree + 1)


def _rotation(nvars: int, degree: int, a, b, fda: list, fdb: list) -> list:
    """a (f . b) - b (f . a) for f of degree `degree`, given fda = f . a and
    fdb = f . b, in one gather-sum."""
    sources = _copies(fdb, a) + _copies(fda, _scaled(b, -1))
    return _gather_sum(nvars, ((degree - 1, 1),) * 2)(sources)


def so_action(alpha: HarmonicElement, beta: HarmonicElement,
              f: HarmonicElement) -> HarmonicElement:
    """Derived rotation action (alpha ^ beta) . f = alpha (f.beta) - beta (f.alpha)."""
    _require_linear(alpha)
    _require_linear(beta)
    n = f.poly.nvars
    a, b = _linear_coefficients(alpha.poly), _linear_coefficients(beta.poly)
    return HarmonicElement(_per_degree(
        f.poly, f.poly.den * alpha.poly.den * beta.poly.den, 0,
        lambda v, k: _rotation(n, k, a, b, _directional(v, n, k, a), _directional(v, n, k, b))),
        f.degree)


def inner(f: HarmonicElement, g: HarmonicElement) -> Fraction:
    """Invariant inner product: the Fischer pairing sum alpha! f_alpha g_alpha.

    Exact: the integer Fischer sum of the numerators, degree by degree,
    over the product of the denominators.  Precondition: f and g are
    harmonic of the same degree d; then this equals the Laplacian form
    (-Delta)^d (f g) / (2^d d!).  Inputs that are not harmonic get the
    Fischer value, not the Laplacian one.
    """
    if f.degree != g.degree:
        raise DegreeMismatch(f"degrees {f.degree} != {g.degree}")
    n = f.poly.nvars
    fs, gs = _components(f.poly.nums, n), _components(g.poly.nums, n)
    total = sum(_fischer(v, gs[k], _fischer_weights(n, k)) for k, v in fs.items() if k in gs)
    return Fraction(total, f.poly.den * g.poly.den)


# ----------------------------------------------------------------------
# identity suite
# ----------------------------------------------------------------------

def _uniform_ints(rng: random.Random, size: int, span: int) -> list[int]:
    """size draws of rng.randint(-span, span), the same stream: getrandbits
    words below 2 span + 1 kept, as randrange keeps them."""
    width = 2 * span + 1
    words = iter(partial(rng.getrandbits, width.bit_length()), None)
    return [r - span for r in islice(filter(width.__gt__, words), size)]


def _random_harmonic(nvars: int, degree: int, rng: random.Random,
                     span: int = 4) -> tuple[int, list]:
    """(den, h): the harmonic part h / den, in lowest terms, of a random
    small-integer homogeneous polynomial drawn into its degree list."""
    draws = _uniform_ints(rng, len(_packed_monomials(nvars, degree)), span)
    if not any(draws):
        draws[0] = 1
    C, h = _harmonic_part(draws, nvars, degree)
    if not any(h):
        # R-multiples only; retry deterministically with a shifted seed
        return _random_harmonic(nvars, degree, rng, span + 1)
    g = gcd(C, *h)
    return C // g, [c // g for c in h]


def _random_linear(nvars: int, rng: random.Random, span: int = 4) -> list:
    """The coefficients of a random small-integer linear form, not all 0."""
    draws = _uniform_ints(rng, nvars, span)
    if not any(draws):
        draws[0] = 1
    return draws


def identity_suite(n: int, d: int, trials: int, seed: int = 0,
                   corrupt: bool = False) -> dict:
    """Exact verification of the four pairing identities on random data.

    For f in H_d and linear alpha, beta:

      1. (f v a) . b - (f v b) . a  = (n + 2d) (a ^ b) . f
      2. (f . a) v b - (f . b) v a  = -(n + 2d - 4) (a ^ b) . f
      3. (f v a) . a - (f . a) v a  = (n + 2d - 2) |a|^2 f
      4. <f v a, g> = (n + 2d - 2) <f, g . a>     (g in H_{d+1})

    Sides are integer degree lists (_identity_sides); IdentityFailure, with
    witnesses, at the first mismatch.  `corrupt` miscales identity 3 to show
    the suite has teeth.  Returns a report dict.
    """
    _require_integers(n=n, d=d, trials=trials)
    if n < 3:
        raise ParamViolation("n must be >= 3")
    if d < 0:
        raise ParamViolation(f"degree d must be >= 0, got {d}")
    if trials < 1:
        raise ParamViolation(f"trials must be >= 1, got {trials}")
    rng = random.Random(seed)
    contraction = (n + 2 * d - 2) if not corrupt else (n + 2 * d - 1)
    for t in range(trials):
        den_f, f = _random_harmonic(n, d, rng)
        a, b = _random_linear(n, rng), _random_linear(n, rng)
        _, g = _random_harmonic(n, d + 1, rng)
        for failure, (lhs, rhs) in zip(_FAILURES, _identity_sides(n, d, f, a, b, g, contraction)):
            if lhs != rhs:
                raise IdentityFailure(failure.format(
                    t=t, f=_from_components(n, den_f, {d: f}),
                    a=_from_components(n, 1, {1: a}), b=_from_components(n, 1, {1: b})))
    return {"n": n, "d": d, "trials": trials, "seed": seed, "all_exact": True}


_FAILURES = ("degree-raise/lower commutator at trial {t}: f={f!r} a={a!r} b={b!r}",
             "lower/raise commutator at trial {t}",
             "vee/dot contraction at trial {t}: f={f!r} a={a!r}",
             "adjointness at trial {t}")


def _identity_sides(n: int, d: int, f: list, a, b, g: list, contraction: int):
    """(lhs, rhs) of identities 1-4 for the degree lists of f and g and the
    coefficients of a and b (integers): 1-3 integer lists over den_f, 4
    Fischer sums over den_f den_g; identity 3's right side is
    contraction |a|^2 f.  Each is built once the last held."""
    def at(v, degree, xi):   # v . xi
        return _directional(v, n, degree, xi)

    fda, fdb = at(f, d, a), at(f, d, b)
    rot = _rotation(n, d, a, b, fda, fdb)
    fva, fvb = _vee(f, n, d, a, fda), _vee(f, n, d, b, fdb)
    yield _difference(at(fva, d + 1, b), at(fvb, d + 1, a)), _scaled(rot, n + 2 * d)
    # f . a and f . b have degree d - 1 (empty lists when d = 0)
    lhs = _difference(_vee(fda, n, d - 1, b, at(fda, d - 1, b)),
                      _vee(fdb, n, d - 1, a, at(fdb, d - 1, a)))
    yield lhs, _scaled(rot, 4 - n - 2 * d)
    lhs = _difference(at(fva, d + 1, a), _vee(fda, n, d - 1, a, at(fda, d - 1, a)))
    yield lhs, _scaled(f, contraction * _fischer(a, a, _fischer_weights(n, 1)))
    yield (_fischer(fva, g, _fischer_weights(n, d + 1)),
           (n + 2 * d - 2) * _fischer(f, at(g, d + 1, a), _fischer_weights(n, d)))


# ----------------------------------------------------------------------
# spectral combinatorics
# ----------------------------------------------------------------------

def b_coeff(params: SpectralParams, m: int) -> Fraction:
    """b_m = (lambda - m(n+m-1)K) / ((n+2m)(n+2m-2)), exact."""
    params.validate()
    n = params.n
    num = params.lam - m * (n + m - 1) * params.K
    return Fraction(num, (n + 2 * m) * (n + 2 * m - 2))



class ASequence(NamedTuple):
    values: tuple[Fraction, ...]
    first_zero: Optional[int]
    first_negative: Optional[int]


def a_sequence(params: SpectralParams, m_max: int) -> ASequence:
    """Squared norms A_0..A_m_max of the derived tensors, A_0 = 1.

    A_{m+1} = b_m (m+n-2)(n+2m)/(m+1) A_m.  Ends in exact zeros iff the
    eigenvalue is m(n+m-1)K for an integer m; otherwise it eventually turns
    strictly negative (the dichotomy that forces eigenvalue quantization).

    The recursion base A_0 = 1 is forced by <(f,f)> = 1 and A_1 = lambda.
    (The alternative printed constant n(n+4)/3 for the second norm matches
    the m = 2 recursion factor, not m = 1; the recursion is authoritative
    here and the mismatch is recorded, not silently resolved.)
    """
    params.validate()
    vals = list(islice(_a_terms(params), m_max + 1))
    first_zero = next((i for i, v in enumerate(vals) if v == 0), None)
    first_neg = next((i for i, v in enumerate(vals) if v < 0), None)
    return ASequence(tuple(vals), first_zero, first_neg)


def _a_terms(params: SpectralParams):
    """A_0 = 1, A_1, ... without end, by the recursion of a_sequence."""
    n, m, value = params.n, 0, Fraction(1)
    while True:
        yield value
        factor = b_coeff(params, m) * (m + n - 2) * (n + 2 * m)
        value = factor * value / (m + 1)
        m += 1


def admissible_lambda(params: SpectralParams) -> Optional[int]:
    """The integer m with lambda = m(n+m-1)K exactly, if one exists."""
    params.validate()
    mu, m = params.lam / params.K, 0
    while m * (params.n + m - 1) < mu:   # increasing in m
        m += 1
    return m if m * (params.n + m - 1) == mu else None


