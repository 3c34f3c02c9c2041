"""Exact rational calculus of harmonic polynomials on R^n.

A polynomial is stored as integer numerators over one shared denominator,
{exponent multi-index: int} and den, in a canonical form (see Poly), so
arithmetic runs on Python integers and no Fraction is built per term.  Every
identity in this module is an exact rational statement, checked by exact
arithmetic, never by tolerance; equality of polynomials is equality of
their numerators and denominators.
The sign convention is pinned to the geometer's Laplacian, the negative of
the trace of the Hessian, so (-Delta)^d below is the d-th power of the
analyst's sum of pure second partials.

The degree-shifting pairings on harmonic polynomials are normalized by

    (n + 2d - 2) xi f = (f vee xi) + R (f . xi),       R = sum_i (x^i)^2,

where f . xi is the directional derivative of f along xi and f vee xi is
the harmonic projection of the product, rescaled.  The inner product is
the Fischer pairing <f, g> = sum_alpha alpha! f_alpha g_alpha over the
shared monomials x^alpha.  On harmonic f, g of the same degree d (its
precondition) it equals the Laplacian form (-Delta)^d (f g) / (2^d d!)
exactly.  The bracket {f, g} in H_1 is defined by
{f, g} . alpha = <f, g . alpha>.

The spectral side: b_m(lambda) = (lambda - m(n+m-1) K)/((n+2m)(n+2m-2))
controls the recursion A_{m+1} = b_m (m+n-2)(n+2m)/(m+1) A_m of squared
derived-tensor norms of an eigenfunction with constant energy; for K > 0
the sequence stays nonnegative only when lambda = m(n+m-1)K for an integer
m, which is the eigenvalue quantization used by the sphere-map module.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd
from operator import add
from typing import Optional

from .errors import (
    DegreeMismatch,
    DegreeViolation,
    IdentityFailure,
    NotHomogeneous,
    ParamViolation,
)


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients.

    Stored as integer numerators over one denominator: the coefficient of
    x^e is nums[e] / den.  The form is canonical: den > 0, every numerator
    is nonzero, gcd(den, *nums) == 1, and the zero polynomial has den 1.
    So two polynomials are equal exactly when their dens and nums are.
    """

    __slots__ = ("nvars", "den", "nums")

    def __init__(self, nvars: int, terms: Optional[dict] = None):
        # den is the lcm of the reduced denominators, which makes the
        # numerators coprime to it: the canonical form without a gcd pass
        coefs = {}
        den = 1
        for exp, coef in (terms or {}).items():
            c = Fraction(coef)
            if c:
                coefs[tuple(exp)] = c
                q = c.denominator
                if den % q:
                    den = den * q // gcd(den, q)
        self.nvars = nvars
        self.den = den
        self.nums = {e: c.numerator * (den // c.denominator)
                     for e, c in coefs.items()}

    @classmethod
    def _make(cls, nvars: int, den: int, nums: dict) -> "Poly":
        """nums / den in canonical form; nums maps tuples to nonzero ints
        and den > 0.  Every internal result is built here."""
        if den != 1:
            g = gcd(den, *nums.values())   # den itself when nums is empty
            if g != 1:
                den //= g
                nums = {e: v // g for e, v in nums.items()}
        p = object.__new__(cls)
        p.nvars = nvars
        p.den = den
        p.nums = nums
        return p

    @property
    def terms(self) -> dict:
        """The coefficients as {exponent: Fraction}, in term order: a view
        built afresh from nums, so editing it changes nothing."""
        den = self.den
        return {e: Fraction(v, den) for e, v in self.nums.items()}

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly._make(nvars, 1, {})

    @staticmethod
    def one(nvars: int) -> "Poly":
        return Poly._make(nvars, 1, {(0,) * nvars: 1})

    @staticmethod
    def variable(nvars: int, i: int) -> "Poly":
        return Poly._make(nvars, 1, {_unit(nvars, i, 1): 1})

    @staticmethod
    def radius_squared(nvars: int) -> "Poly":
        return Poly._make(nvars, 1, {_unit(nvars, i, 2): 1 for i in range(nvars)})

    # -- ring structure --------------------------------------------------
    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other: other's terms folded into a copy of self's;
        a key whose sum cancels is dropped and re-enters at the end."""
        d1, d2 = self.den, other.den
        if d1 == d2:
            den, out, m2 = d1, dict(self.nums), sign
        else:
            den = d1 * d2 // gcd(d1, d2)
            m1 = den // d1
            out = {e: v * m1 for e, v in self.nums.items()}
            m2 = sign * (den // d2)
        for e, v in other.nums.items():
            s = out.get(e, 0) + v * m2
            if s:
                out[e] = s
            else:
                del out[e]
        return Poly._make(self.nvars, den, out)

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, -1)

    def __neg__(self) -> "Poly":
        return Poly._make(self.nvars, self.den, {e: -v for e, v in self.nums.items()})

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if not c:
            return Poly.zero(self.nvars)
        k = c.numerator
        return Poly._make(self.nvars, self.den * c.denominator,
                          {e: v * k for e, v in self.nums.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly._make(self.nvars, self.den * other.den,
                          _product_numerators(self.nums.items(), other.nums.items()))

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars \
            and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.nvars, self.den, frozenset(self.nums.items())))

    def is_zero(self) -> bool:
        return not self.nums

    # -- degree bookkeeping ----------------------------------------------
    def degree(self) -> int:
        if not self.nums:
            return -1
        return max(sum(e) for e in self.nums)

    def homogeneous_degree(self) -> int:
        """Degree if homogeneous; raises NotHomogeneous otherwise."""
        if not self.nums:
            return -1
        degs = {sum(e) for e in self.nums}
        if len(degs) != 1:
            raise NotHomogeneous(f"mixed degrees {sorted(degs)}")
        return degs.pop()

    # -- calculus ----------------------------------------------------------
    def diff(self, i: int) -> "Poly":
        out: dict = {}
        for e, v in self.nums.items():
            k = e[i]
            if k:
                e2 = list(e)
                e2[i] = k - 1
                out[tuple(e2)] = v * k
        return Poly._make(self.nvars, self.den, out)

    def analyst_laplacian(self) -> "Poly":
        """sum_i d_i d_i, summed a variable at a time, each over the terms."""
        out: dict = {}
        for i in range(self.nvars):
            for e, v in self.nums.items():
                k = e[i]
                if k > 1:
                    e2 = list(e)
                    e2[i] = k - 2
                    e2 = tuple(e2)
                    s = out.get(e2, 0) + v * k * (k - 1)
                    if s:
                        out[e2] = s
                    else:
                        del out[e2]
        return Poly._make(self.nvars, self.den, out)

    def directional(self, xi: "Poly") -> "Poly":
        """Directional derivative along the linear form xi (metric-dual).

        One pass over the terms, summing sum_i xi_i d_i f in the order of
        xi's terms.
        """
        nums = self.nums.items()
        out: dict = {}
        for ex, b in xi.nums.items():
            i = next(j for j, k in enumerate(ex) if k)
            for e, a in nums:
                k = e[i]
                if k:
                    e2 = list(e)
                    e2[i] = k - 1
                    e2 = tuple(e2)
                    s = out.get(e2, 0) + a * k * b
                    if s:
                        out[e2] = s
                    else:
                        del out[e2]
        return Poly._make(self.nvars, self.den * xi.den, out)

    def constant_value(self) -> Fraction:
        if not self.nums:
            return Fraction(0)
        const = (0,) * self.nvars
        if set(self.nums) != {const}:
            raise NotHomogeneous("polynomial is not constant")
        return Fraction(self.nums[const], self.den)

    def sorted_terms(self):
        """Graded lexicographic term order (deterministic serialization)."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]),
                      reverse=True)

    def __repr__(self):
        if not self.nums:
            return "Poly(0)"
        bits = []
        for e, c in self.sorted_terms()[:6]:
            mono = "*".join(f"x{i}^{k}" for i, k in enumerate(e) if k) or "1"
            bits.append(f"{c}*{mono}")
        more = "" if len(self.nums) <= 6 else f" +{len(self.nums)-6} terms"
        return f"Poly({' + '.join(bits)}{more})"


def _unit(nvars: int, i: int, k: int) -> tuple[int, ...]:
    """The exponent of x_i^k."""
    e = [0] * nvars
    e[i] = k
    return tuple(e)


def _product_numerators(nums1, nums2) -> dict:
    """The product of two (exponent, integer) term sequences, as exponent -> int.

    A key whose running sum cancels is dropped and re-enters at the end.
    """
    out: dict = {}
    for e1, a in nums1:
        for e2, b in nums2:
            e = tuple(map(add, e1, e2))
            s = out.get(e, 0) + a * b
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def laplacian(p: Poly) -> Poly:
    """Geometer's Laplacian: minus the trace of the Hessian."""
    return p.analyst_laplacian().scale(-1)


@dataclass(frozen=True)
class HarmonicElement:
    """A homogeneous polynomial annihilated by the Laplacian, exactly."""

    poly: Poly
    degree: int


@dataclass(frozen=True)
class SpectralParams:
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
# harmonic decomposition
# ----------------------------------------------------------------------

def harmonic_decompose(p: Poly, degree: Optional[int] = None
                       ) -> tuple[HarmonicElement, Poly]:
    """Split a homogeneous p uniquely as p = h + R r with h harmonic.

    Works by peeling the expansion p = sum_k R^k p_k (p_k harmonic) from
    the top using L^j (R^k p_k) = c_{jk} R^(k-j) p_k; everything stays in
    exact rationals and no linear systems are solved.
    """
    d = p.homogeneous_degree() if degree is None else degree
    if degree is not None and not p.is_zero() and p.homogeneous_degree() != degree:
        raise NotHomogeneous(f"expected degree {degree}")
    n = p.nvars
    if p.is_zero():
        return HarmonicElement(p, max(d, 0)), Poly.zero(n)
    K = d // 2
    powers = [p]
    for _ in range(K):
        powers.append(powers[-1].analyst_laplacian())

    def c_factor(j: int, k: int) -> Fraction:
        # L^j (R^k h) = c R^(k-j) h for h harmonic of degree d - 2k
        m = d - 2 * k
        out = Fraction(1)
        for i in range(j):
            out *= 2 * (k - i) * (n + 2 * m + 2 * (k - i) - 2)
        return out

    comps: dict[int, Poly] = {}
    R = Poly.radius_squared(n)
    for k in range(K, -1, -1):
        residue = powers[k]
        for kk in range(k + 1, K + 1):
            # subtract the contribution of higher shells: L^k(R^kk p_kk)
            term = comps[kk]
            for _ in range(kk - k):
                term = R * term
            residue = residue - term.scale(c_factor(k, kk))
        comps[k] = residue.scale(Fraction(1, c_factor(k, k)))
    h = comps[0]
    r = Poly.zero(n)
    for k in range(1, K + 1):
        term = comps[k]
        for _ in range(k - 1):
            term = R * term
        r = r + term
    return HarmonicElement(h, d), r


# ----------------------------------------------------------------------
# the pairings
# ----------------------------------------------------------------------

def _require_linear(xi: HarmonicElement) -> None:
    if xi.degree != 1:
        raise DegreeViolation(f"xi must be linear, got degree {xi.degree}")


def dot(f: HarmonicElement, xi: HarmonicElement) -> HarmonicElement:
    """Degree-lowering pairing: the directional derivative of f along xi."""
    _require_linear(xi)
    return HarmonicElement(f.poly.directional(xi.poly), max(f.degree - 1, 0))


def vee(f: HarmonicElement, xi: HarmonicElement) -> HarmonicElement:
    """Degree-raising pairing from (n + 2d - 2) xi f = f vee xi + R (f . xi)."""
    _require_linear(xi)
    n = f.poly.nvars
    d = f.degree
    prod = (xi.poly * f.poly).scale(n + 2 * d - 2)
    correction = Poly.radius_squared(n) * f.poly.directional(xi.poly)
    return HarmonicElement(prod - correction, d + 1)


def so_action(alpha: HarmonicElement, beta: HarmonicElement,
              f: HarmonicElement) -> HarmonicElement:
    """Derived rotation action (alpha ^ beta) . f = alpha (f.beta) - beta (f.alpha)."""
    _require_linear(alpha)
    _require_linear(beta)
    out = alpha.poly * f.poly.directional(beta.poly) \
        - beta.poly * f.poly.directional(alpha.poly)
    return HarmonicElement(out, f.degree)


def inner(f: HarmonicElement, g: HarmonicElement) -> Fraction:
    """Invariant inner product: the Fischer pairing sum alpha! f_alpha g_alpha.

    Exact, summed over the monomials x^alpha that f and g share.
    Precondition: f and g are harmonic of the same degree d; then this
    equals the Laplacian form (-Delta)^d (f g) / (2^d d!).  Inputs that
    are not harmonic get the Fischer value, not the Laplacian one.
    """
    if f.degree != g.degree:
        raise DegreeMismatch(f"degrees {f.degree} != {g.degree}")
    gnums = g.poly.nums
    total = 0
    for e, a in f.poly.nums.items():
        b = gnums.get(e)
        if b is not None:
            total += math.prod(map(factorial, e)) * a * b
    return Fraction(total, f.poly.den * g.poly.den)


def brace(f: HarmonicElement, g: HarmonicElement) -> HarmonicElement:
    """The H_1-valued pairing with {f, g} . alpha = <f, g . alpha>."""
    if g.degree != f.degree + 1:
        raise DegreeMismatch(
            f"need deg(g) = deg(f) + 1, got {g.degree} vs {f.degree}")
    n = f.poly.nvars
    out = Poly.zero(n)
    for i in range(n):
        xi = HarmonicElement(Poly.variable(n, i), 1)
        coef = inner(f, dot(g, xi))
        if coef:
            out = out + Poly.variable(n, i).scale(coef)
    return HarmonicElement(out, 1)


def norm_squared(alpha: HarmonicElement) -> Fraction:
    return inner(alpha, alpha)


# ----------------------------------------------------------------------
# identity suite
# ----------------------------------------------------------------------

def random_harmonic(nvars: int, degree: int, rng: random.Random,
                    span: int = 4) -> HarmonicElement:
    """Harmonic part of a random small-integer homogeneous polynomial."""
    monos = monomial_exponents(nvars, degree)
    nums = {}
    for e in monos:
        c = rng.randint(-span, span)
        if c:
            nums[e] = c
    p = Poly._make(nvars, 1, nums or {monos[0]: 1})
    h, _ = harmonic_decompose(p)
    if h.poly.is_zero():
        # R-multiples only; retry deterministically with a shifted seed
        return random_harmonic(nvars, degree, rng, span + 1)
    return h


def random_linear(nvars: int, rng: random.Random, span: int = 4) -> HarmonicElement:
    coefs = [rng.randint(-span, span) for _ in range(nvars)]
    if not any(coefs):
        coefs[0] = 1
    p = Poly._make(nvars, 1, {_unit(nvars, i, 1): c
                              for i, c in enumerate(coefs) if c})
    return HarmonicElement(p, 1)


def identity_suite(n: int, d: int, trials: int, seed: int = 0,
                   corrupt: bool = False) -> dict:
    """Exact verification of the four pairing identities on random data.

    For f in H_d and linear alpha, beta:

      1. (f v a) . b - (f v b) . a  = (n + 2d) (a ^ b) . f
      2. (f . a) v b - (f . b) v a  = -(n + 2d - 4) (a ^ b) . f
      3. (f v a) . a - (f . a) v a  = (n + 2d - 2) |a|^2 f
      4. <f v a, g> = (n + 2d - 2) <f, g . a>     (g in H_{d+1})

    Raises IdentityFailure (with the identity name and witness data) at the
    first exact mismatch.  `corrupt` deliberately miscales identity 3 to
    demonstrate the suite has teeth.  Returns a report dict.
    """
    _require_integers(n=n, d=d, trials=trials)
    if n < 3:
        raise ParamViolation("n must be >= 3")
    if d < 0:
        raise ParamViolation(f"degree d must be >= 0, got {d}")
    if trials < 1:
        raise ParamViolation(f"trials must be >= 1, got {trials}")
    rng = random.Random(seed)
    checked = 0
    for t in range(trials):
        f = random_harmonic(n, d, rng)
        a = random_linear(n, rng)
        b = random_linear(n, rng)
        g = random_harmonic(n, d + 1, rng)
        rot = so_action(a, b, f)
        # each pairing of f once per trial; the identities share them
        fva, fvb = vee(f, a), vee(f, b)
        fda, fdb = dot(f, a), dot(f, b)

        lhs1 = dot(fva, b).poly - dot(fvb, a).poly
        if lhs1 != rot.poly.scale(n + 2 * d):
            raise IdentityFailure(f"degree-raise/lower commutator at trial {t}: "
                                  f"f={f.poly!r} a={a.poly!r} b={b.poly!r}")

        lhs2 = vee(fda, b).poly - vee(fdb, a).poly
        if lhs2 != rot.poly.scale(-(n + 2 * d - 4)):
            raise IdentityFailure(f"lower/raise commutator at trial {t}")

        scale3 = (n + 2 * d - 2) if not corrupt else (n + 2 * d - 1)
        lhs3 = dot(fva, a).poly - vee(fda, a).poly
        if lhs3 != f.poly.scale(Fraction(scale3) * norm_squared(a)):
            raise IdentityFailure(f"vee/dot contraction at trial {t}: "
                                  f"f={f.poly!r} a={a.poly!r}")

        if inner(fva, g) != (n + 2 * d - 2) * inner(f, dot(g, a)):
            raise IdentityFailure(f"adjointness at trial {t}")
        checked += 1
    return {"n": n, "d": d, "trials": checked, "seed": seed, "all_exact": True}


# ----------------------------------------------------------------------
# spectral combinatorics
# ----------------------------------------------------------------------

def b_coeff(params: SpectralParams, m: int) -> Fraction:
    """b_m = (lambda - m(n+m-1)K) / ((n+2m)(n+2m-2)), exact."""
    params.validate()
    n = params.n
    num = params.lam - m * (n + m - 1) * params.K
    return Fraction(num, (n + 2 * m) * (n + 2 * m - 2))


def _require_integers(**values) -> None:
    """ParamViolation unless every value is an integer (bools refused)."""
    for name, v in values.items():
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise ParamViolation(f"{name} must be an integer, got {v!r}")


def dim_harmonics(n_ambient: int, m: int) -> int:
    """Dimension of degree-m harmonic polynomials on R^n_ambient."""
    _require_integers(n_ambient=n_ambient, m=m)
    if n_ambient < 1:
        raise ParamViolation("ambient dimension must be positive")
    if m < 0:
        return 0
    dim_sm = comb(n_ambient + m - 1, m)
    dim_sm2 = comb(n_ambient + m - 3, m - 2) if m >= 2 else 0
    return dim_sm - dim_sm2


@dataclass(frozen=True)
class ASequence:
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
    n = params.n
    vals = [Fraction(1)]
    for m in range(m_max):
        factor = b_coeff(params, m) * (m + n - 2) * (n + 2 * m)
        vals.append(factor * vals[-1] / (m + 1))
    first_zero = next((i for i, v in enumerate(vals) if v == 0), None)
    first_neg = next((i for i, v in enumerate(vals) if v < 0), None)
    return ASequence(tuple(vals), first_zero, first_neg)


def admissible_lambda(params: SpectralParams) -> Optional[int]:
    """The integer m with lambda = m(n+m-1)K exactly, if one exists."""
    params.validate()
    mu = params.lam / params.K
    if mu < 0:
        return None
    m = 0
    while True:
        val = m * (params.n + m - 1)
        if val == mu:
            return m
        if val > mu:
            return None
        m += 1


# ----------------------------------------------------------------------
# monomial bookkeeping shared with the sphere-map module
# ----------------------------------------------------------------------

def monomial_exponents(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent multi-indices of the given total degree, graded-lex order."""
    _require_integers(nvars=nvars, degree=degree)
    if nvars < 1:
        raise ParamViolation("number of variables must be positive")
    out: list[tuple[int, ...]] = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for k in range(remaining, -1, -1):
            rec(prefix + [k], remaining - k, slots - 1)

    if degree >= 0:
        rec([], degree, nvars)
    return out
