"""Exact rational calculus of harmonic polynomials on R^n.

A polynomial is stored as integer numerators over one shared denominator,
{exponent key: int} and den, in a canonical form (see Poly), so arithmetic
runs on Python integers and no Fraction is built per term.  An exponent
vector (e_0, ..., e_{n-1}) is packed into one integer key with a fixed
SLOT_BITS-bit slot per variable, x_0 in the most significant slot:

    key = e_0 << (SLOT_BITS (n-1)) | e_1 << (SLOT_BITS (n-2)) | ... | e_{n-1}.

Integer order of keys is then the lexicographic order of the tuples, the
exponents of a product add as integers (key1 + key2), and a partial
derivative subtracts 1 << shift from the key.  A product whose operands
reach the top bit of any slot raises DegreeViolation, so a carry from one
slot into the next never happens silently.  Tuples appear only at the
edges: Poly(nvars, terms) takes them, and terms, sorted_terms and repr give
them back.  Every identity here is exact, never checked by tolerance; the
identity suite compares integer numerators over f's denominator, which is
equality of polynomials, with no Poly, Fraction or gcd between its steps.
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
exactly.

The spectral side: b_m(lambda) = (lambda - m(n+m-1) K)/((n+2m)(n+2m-2))
controls the recursion A_{m+1} = b_m (m+n-2)(n+2m)/(m+1) A_m of squared
derived-tensor norms of an eigenfunction with constant energy; for K > 0
the sequence stays nonnegative only when lambda = m(n+m-1)K for an integer
m, which is the eigenvalue quantization used by the sphere-map module.
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import accumulate, chain, islice
from math import comb, factorial, gcd
from operator import or_
from typing import Optional

from .errors import (
    DegreeMismatch,
    DegreeViolation,
    IdentityFailure,
    NotHomogeneous,
    ParamViolation,
)

# ----------------------------------------------------------------------
# packed exponent keys
# ----------------------------------------------------------------------

SLOT_BITS = 16                        # bits per exponent slot of a key
_SLOT_MASK = (1 << SLOT_BITS) - 1     # the largest exponent a key holds
_SLOT_TOP = 1 << (SLOT_BITS - 1)      # a product operand must stay below it


@lru_cache(maxsize=64)
def _shifts(nvars: int) -> tuple[int, ...]:
    """The bit offset of each variable's slot, x_0's (the highest) first."""
    return tuple(SLOT_BITS * (nvars - 1 - i) for i in range(nvars))


@lru_cache(maxsize=64)
def _every_slot(nvars: int, bit: int) -> int:
    """bit placed in each of the nvars slots: with bit 1 the mask of each
    exponent's parity, with _SLOT_TOP the overflow mask of a product."""
    return sum(bit << s for s in _shifts(nvars))


def _pack(nvars: int, exp) -> int:
    """The key of an exponent vector of length nvars.

    ParamViolation for a wrong length, a negative or a non-integer entry
    (bools refused); DegreeViolation for an entry above the slot's range.
    """
    exp = tuple(exp)
    if len(exp) != nvars:
        raise ParamViolation(f"exponent {exp!r} has length {len(exp)}, not {nvars}")
    key = 0
    for k in exp:
        if isinstance(k, bool) or not isinstance(k, numbers.Integral):
            raise ParamViolation(f"exponent {exp!r} has a non-integer entry {k!r}")
        if k < 0:
            raise ParamViolation(f"exponent {exp!r} has a negative entry")
        if k > _SLOT_MASK:
            raise DegreeViolation(
                f"exponent {exp!r} has an entry above {_SLOT_MASK}, "
                f"the range of a {SLOT_BITS}-bit slot")
        key = (key << SLOT_BITS) | int(k)
    return key


def _unpack(key: int, shifts: tuple[int, ...]) -> tuple[int, ...]:
    """The exponent tuple of a key, given _shifts(nvars)."""
    return tuple((key >> s) & _SLOT_MASK for s in shifts)


def _slot_sum(key: int) -> int:
    """The total degree of a key: the sum of its slots."""
    total = 0
    while key:
        total += key & _SLOT_MASK
        key >>= SLOT_BITS
    return total


@lru_cache(maxsize=4096)
def _fischer_weight(key: int) -> int:
    """alpha! for the exponent alpha of a key, read slot by slot."""
    w = 1
    while key:
        k = key & _SLOT_MASK
        if k > 1:
            w *= factorial(k)
        key >>= SLOT_BITS
    return w


class Poly:
    """Sparse multivariate polynomial with exact rational coefficients.

    The coefficient of x^e is nums[key(e)] / den, key(e) the packed
    exponent of the module docstring.  A slot holds exponents up to
    2^16 - 1; a product raises DegreeViolation when an operand's exponent
    reaches 2^15, the top bit of its slot, so sums never carry between
    slots.  The form is canonical: den > 0, every numerator is nonzero,
    gcd(den, *nums) == 1, and the zero polynomial has den 1.  So two
    polynomials are equal exactly when their dens and nums are.
    """

    __slots__ = ("nvars", "den", "nums")

    def __init__(self, nvars: int, terms: Optional[dict] = None):
        # den is the lcm of the reduced denominators, which makes the
        # numerators coprime to it: the canonical form without a gcd pass
        coefs = {}
        den = 1
        for exp, coef in (terms or {}).items():
            key = _pack(nvars, exp)
            c = Fraction(coef)
            if c:
                coefs[key] = c
                q = c.denominator
                if den % q:
                    den = den * q // gcd(den, q)
        self.nvars = nvars
        self.den = den
        self.nums = {e: c.numerator * (den // c.denominator)
                     for e, c in coefs.items()}

    @classmethod
    def _make(cls, nvars: int, den: int, nums: dict) -> "Poly":
        """nums / den in canonical form; nums maps keys to nonzero ints
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
        """The coefficients as {exponent tuple: Fraction}, in term order: a
        view built afresh from nums, so editing it changes nothing."""
        den = self.den
        shifts = _shifts(self.nvars)
        return {_unpack(e, shifts): Fraction(v, den) for e, v in self.nums.items()}

    # -- constructors ---------------------------------------------------
    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly._make(nvars, 1, {})

    @staticmethod
    def one(nvars: int) -> "Poly":
        return Poly._make(nvars, 1, {0: 1})

    @staticmethod
    def variable(nvars: int, i: int) -> "Poly":
        return Poly._make(nvars, 1, {_unit(nvars, i, 1): 1})

    @staticmethod
    def radius_squared(nvars: int) -> "Poly":
        return Poly._make(nvars, 1, {2 << s: 1 for s in _shifts(nvars)})

    # -- ring structure --------------------------------------------------
    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other: other's terms folded into a copy of self's."""
        d1, d2 = self.den, other.den
        if d1 == d2:
            den, out, m2 = d1, dict(self.nums), sign
        else:
            den = d1 * d2 // gcd(d1, d2)
            m1 = den // d1
            out = {e: v * m1 for e, v in self.nums.items()}
            m2 = sign * (den // d2)
        return Poly._make(self.nvars, den, _add_multiple(out, m2, other.nums))

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
                          _product_numerators(self.nums, other.nums, self.nvars))

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
        return max(map(_slot_sum, self.nums))

    def homogeneous_degree(self) -> int:
        """Degree if homogeneous; raises NotHomogeneous otherwise."""
        if not self.nums:
            return -1
        degs = set(map(_slot_sum, self.nums))
        if len(degs) != 1:
            raise NotHomogeneous(f"mixed degrees {sorted(degs)}")
        return degs.pop()

    # -- calculus ----------------------------------------------------------
    def diff(self, i: int) -> "Poly":
        return self.directional(Poly.variable(self.nvars, i))

    def analyst_laplacian(self) -> "Poly":
        """sum_i d_i d_i, summed a variable at a time, each over the terms."""
        nums = self.nums.items()
        out: dict = {}
        for s in _shifts(self.nvars):
            two = 2 << s
            for e, v in nums:
                k = (e >> s) & _SLOT_MASK
                if k > 1:
                    e2 = e - two
                    s2 = out.get(e2, 0) + v * k * (k - 1)
                    if s2:
                        out[e2] = s2
                    else:
                        del out[e2]
        return Poly._make(self.nvars, self.den, out)

    def directional(self, xi: "Poly") -> "Poly":
        """Directional derivative along the linear form xi (metric-dual)."""
        return Poly._make(self.nvars, self.den * xi.den,
                          _add_directional({}, 1, self.nums, xi.nums))

    def constant_value(self) -> Fraction:
        nums = self.nums
        if not nums:
            return Fraction(0)
        if len(nums) != 1 or 0 not in nums:
            raise NotHomogeneous("polynomial is not constant")
        return Fraction(nums[0], self.den)

    def sorted_terms(self):
        """Graded lexicographic term order (deterministic serialization)."""
        nums, den, shifts = self.nums, self.den, _shifts(self.nvars)
        keys = sorted(nums, key=lambda e: (_slot_sum(e), e), reverse=True)
        return [(_unpack(e, shifts), Fraction(nums[e], den)) for e in keys]

    def __repr__(self):
        if not self.nums:
            return "Poly(0)"
        bits = []
        for e, c in self.sorted_terms()[:6]:
            mono = "*".join(f"x{i}^{k}" for i, k in enumerate(e) if k) or "1"
            bits.append(f"{c}*{mono}")
        more = "" if len(self.nums) <= 6 else f" +{len(self.nums)-6} terms"
        return f"Poly({' + '.join(bits)}{more})"


def _unit(nvars: int, i: int, k: int) -> int:
    """The key of x_i^k."""
    return k << _shifts(nvars)[i]


def _add_multiple(acc: dict, k: int, nums: dict) -> dict:
    """acc + k nums for key -> integer term dicts, in place in acc, which is
    returned; a key whose sum cancels is dropped and re-enters at the end."""
    for e, v in nums.items():
        s = acc.get(e, 0) + v * k
        if s:
            acc[e] = s
        else:
            del acc[e]
    return acc


def _add_directional(acc: dict, k: int, nums: dict, xi: dict) -> dict:
    """acc + k (nums . xi) in place, k != 0, in xi's term order (a term's
    variable is its top nonzero slot); a cancelled key re-enters last."""
    items, get = nums.items(), acc.get
    for ex, b in xi.items():
        if not ex:
            raise DegreeViolation("xi has a constant term; it must be linear")
        s = (ex.bit_length() - 1) // SLOT_BITS * SLOT_BITS
        one, kb = 1 << s, k * b
        for e, a in items:
            j = e >> s & _SLOT_MASK
            if j:
                e -= one
                v = get(e, 0) + a * j * kb
                if v:
                    acc[e] = v
                else:
                    del acc[e]
    return acc


def _require_slot_room(nvars: int, *term_dicts: dict) -> None:
    """DegreeViolation when any key of the dicts has an exponent at or
    above 2^(SLOT_BITS - 1), where the sum of two keys could carry into the
    next slot: the guard of every product of key -> integer term dicts."""
    if reduce(or_, chain.from_iterable(term_dicts), 0) & _every_slot(nvars, _SLOT_TOP):
        raise DegreeViolation(
            f"product of exponents at or above {_SLOT_TOP} could overflow "
            f"a {SLOT_BITS}-bit slot")


def _add_product(acc: dict, k: int, items1, items2) -> dict:
    """acc + k (items1 items2) in place, k != 0, for (key, int) sequences
    that passed _require_slot_room, items1 outer; a cancelled key re-enters last."""
    get = acc.get
    for e1, a in items1:
        a *= k
        for e2, b in items2:
            e = e1 + e2
            v = get(e, 0) + a * b
            if v:
                acc[e] = v
            else:
                del acc[e]
    return acc


def _product_numerators(nums1: dict, nums2: dict, nvars: int) -> dict:
    """The product of two key -> integer term dicts, after _require_slot_room."""
    _require_slot_room(nvars, nums1, nums2)
    return _add_product({}, 1, nums1.items(), nums2.items())


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
# harmonic projection
# ----------------------------------------------------------------------

def _laplacian_powers(p: Poly, d: int) -> list[Poly]:
    """[p, L p, ..., L^(d // 2) p], L the analyst's Laplacian."""
    return list(accumulate(range(d // 2), lambda q, _: q.analyst_laplacian(), initial=p))


def _harmonic_part(powers: list[Poly], d: int) -> Poly:
    """The harmonic projection of p, homogeneous of degree d on R^n, from
    powers = _laplacian_powers(p, d).  In closed form (Axler, Bourdon &
    Ramey, Harmonic Function Theory, 2nd ed., GTM 137, ch. 5),

        H[p] = sum_{j <= d/2} c_j R^j L^j p,  c_0 = 1,
        c_j = -c_{j-1} / (2j (n + 2d - 2j - 2)),

    summed by Horner from j = K = d // 2 down on integer numerators, each
    L^j p brought to p's denominator den: acc <- R acc + w_j L^j p with the
    integer weights w_j = C c_j, C = (-1)^K / c_K.  That is K products by R
    and no Poly or Fraction per step; one Poly, acc / (C den), at the end.
    """
    n, K, den = powers[0].nvars, d // 2, powers[0].den
    R = Poly.radius_squared(n).nums
    w, C = (-1) ** K, 1
    acc = _add_multiple({}, w * (den // powers[K].den), powers[K].nums)
    for j in range(K - 1, -1, -1):
        step = 2 * (j + 1) * (n + 2 * d - 2 * j - 4)
        w, C = -w * step, C * step
        acc = _add_multiple(_product_numerators(R, acc, n),
                            w * (den // powers[j].den), powers[j].nums)
    return Poly._make(n, C * den, acc)


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


def _add_vee(acc: dict, k: int, n: int, d: int, f: dict, xi: dict, fdx: dict) -> dict:
    """acc + k (f vee xi) in place, f vee xi = (n + 2d - 2) xi f - R fdx for f
    of degree d and fdx = f . xi on the denominator of xi f: the one place
    the formula lives."""
    if n + 2 * d - 2:
        _add_product(acc, k * (n + 2 * d - 2), xi.items(), f.items())
    return _add_product(acc, -k, Poly.radius_squared(n).nums.items(), fdx.items())


def vee(f: HarmonicElement, xi: HarmonicElement) -> HarmonicElement:
    """Degree-raising pairing from (n + 2d - 2) xi f = f vee xi + R (f . xi)."""
    _require_linear(xi)
    p, x = f.poly, xi.poly
    fdx = _add_directional({}, 1, p.nums, x.nums)
    _require_slot_room(p.nvars, x.nums, p.nums)
    nums = _add_vee({}, 1, p.nvars, f.degree, p.nums, x.nums, fdx)
    return HarmonicElement(Poly._make(p.nvars, p.den * x.den, nums), f.degree + 1)


def _add_rotation(acc: dict, k: int, a: dict, b: dict, fda: dict, fdb: dict) -> dict:
    """acc + k (a (f . b) - b (f . a)) in place, given fda = f . a, fdb = f . b."""
    _add_product(acc, k, a.items(), fdb.items())
    return _add_product(acc, -k, b.items(), fda.items())


def so_action(alpha: HarmonicElement, beta: HarmonicElement,
              f: HarmonicElement) -> HarmonicElement:
    """Derived rotation action (alpha ^ beta) . f = alpha (f.beta) - beta (f.alpha)."""
    _require_linear(alpha)
    _require_linear(beta)
    p, al, be = f.poly, alpha.poly, beta.poly
    fda = _add_directional({}, 1, p.nums, al.nums)
    fdb = _add_directional({}, 1, p.nums, be.nums)
    _require_slot_room(p.nvars, al.nums, fdb, be.nums, fda)
    nums = _add_rotation({}, 1, al.nums, be.nums, fda, fdb)
    return HarmonicElement(Poly._make(p.nvars, p.den * al.den * be.den, nums), f.degree)


def inner(f: HarmonicElement, g: HarmonicElement) -> Fraction:
    """Invariant inner product: the Fischer pairing sum alpha! f_alpha g_alpha.

    Exact: the integer Fischer sum of the numerators over the product of
    the denominators.  Precondition: f and g are harmonic of the same
    degree d; then this equals the Laplacian form (-Delta)^d (f g) / (2^d d!).
    Inputs that are not harmonic get the Fischer value, not the Laplacian one.
    """
    if f.degree != g.degree:
        raise DegreeMismatch(f"degrees {f.degree} != {g.degree}")
    return Fraction(_fischer_sum(f.poly.nums, g.poly.nums), f.poly.den * g.poly.den)


def _fischer_sum(nums1: dict, nums2: dict) -> int:
    """sum alpha! a_alpha b_alpha over the keys alpha that two integer term
    dicts share: their Fischer pairing."""
    return sum(_fischer_weight(e) * a * nums2[e] for e, a in nums1.items() if e in nums2)


# ----------------------------------------------------------------------
# identity suite
# ----------------------------------------------------------------------

def _uniform_ints(rng: random.Random, size: int, span: int) -> list[int]:
    """size draws of rng.randint(-span, span), the same stream: getrandbits
    words below 2 span + 1 kept, as randrange keeps them."""
    width = 2 * span + 1
    words = iter(partial(rng.getrandbits, width.bit_length()), None)
    return [r - span for r in islice(filter(width.__gt__, words), size)]


def random_harmonic(nvars: int, degree: int, rng: random.Random,
                    span: int = 4) -> HarmonicElement:
    """Harmonic part of a random small-integer homogeneous polynomial."""
    monos = _packed_monomials(nvars, degree)
    nums = {e: c for e, c in zip(monos, _uniform_ints(rng, len(monos), span)) if c}
    p = Poly._make(nvars, 1, nums or {monos[0]: 1})
    h = _harmonic_part(_laplacian_powers(p, degree), degree)
    if h.is_zero():
        # R-multiples only; retry deterministically with a shifted seed
        return random_harmonic(nvars, degree, rng, span + 1)
    return HarmonicElement(h, degree)


def random_linear(nvars: int, rng: random.Random, span: int = 4) -> HarmonicElement:
    nums = {_unit(nvars, i, 1): c for i, c in enumerate(_uniform_ints(rng, nvars, span)) if c}
    return HarmonicElement(Poly._make(nvars, 1, nums or {_unit(nvars, 0, 1): 1}), 1)


def identity_suite(n: int, d: int, trials: int, seed: int = 0,
                   corrupt: bool = False) -> dict:
    """Exact verification of the four pairing identities on random data.

    For f in H_d and linear alpha, beta:

      1. (f v a) . b - (f v b) . a  = (n + 2d) (a ^ b) . f
      2. (f . a) v b - (f . b) v a  = -(n + 2d - 4) (a ^ b) . f
      3. (f v a) . a - (f . a) v a  = (n + 2d - 2) |a|^2 f
      4. <f v a, g> = (n + 2d - 2) <f, g . a>     (g in H_{d+1})

    Sides are integer numerators (_identity_sides); IdentityFailure, with
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
        f = random_harmonic(n, d, rng)
        a, b = random_linear(n, rng), random_linear(n, rng)
        g = random_harmonic(n, d + 1, rng)
        _require_slot_room(n, f.poly.nums)   # every product's operands are f's or below
        sides = _identity_sides(n, d, *(h.poly.nums for h in (f, a, b, g)), contraction)
        for failure, (lhs, rhs) in zip(_FAILURES, sides):
            if lhs != rhs:
                raise IdentityFailure(failure.format(t=t, f=f.poly, a=a.poly, b=b.poly))
    return {"n": n, "d": d, "trials": trials, "seed": seed, "all_exact": True}


_FAILURES = ("degree-raise/lower commutator at trial {t}: f={f!r} a={a!r} b={b!r}",
             "lower/raise commutator at trial {t}",
             "vee/dot contraction at trial {t}: f={f!r} a={a!r}",
             "adjointness at trial {t}")


def _identity_sides(n: int, d: int, f: dict, a: dict, b: dict, g: dict, contraction: int):
    """(lhs, rhs) of identities 1-4 for the numerators of f, a, b, g (a, b
    over 1): 1-3 over den_f, 4 Fischer sums over den_f den_g; identity 3's
    right side is contraction |a|^2 f.  Each is built once the last held."""
    def at(nums, xi):   # nums . xi, a new dict
        return _add_directional({}, 1, nums, xi)

    fda, fdb = at(f, a), at(f, b)
    rot = _add_rotation({}, 1, a, b, fda, fdb)
    fva, fvb = _add_vee({}, 1, n, d, f, a, fda), _add_vee({}, 1, n, d, f, b, fdb)
    yield _add_directional(at(fva, b), -1, fvb, a), _add_multiple({}, n + 2 * d, rot)
    # f . a and f . b have degree d - 1 (both vanish when d = 0)
    lhs = _add_vee({}, 1, n, d - 1, fda, b, at(fda, b))
    yield _add_vee(lhs, -1, n, d - 1, fdb, a, at(fdb, a)), _add_multiple({}, 4 - n - 2 * d, rot)
    lhs = _add_vee(at(fva, a), -1, n, d - 1, fda, a, at(fda, a))
    yield lhs, _add_multiple({}, contraction * _fischer_sum(a, a), f)
    yield _fischer_sum(fva, g), (n + 2 * d - 2) * _fischer_sum(f, at(g, a))


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

@lru_cache(maxsize=64, typed=True)
def _packed_monomials(nvars: int, degree: int) -> tuple[int, ...]:
    """The keys of monomial_exponents(nvars, degree), in the same order."""
    return tuple(_pack(nvars, e) for e in monomial_exponents(nvars, degree))


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
