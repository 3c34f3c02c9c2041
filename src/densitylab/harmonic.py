"""Exact rational calculus of harmonic polynomials on R^n.

Two layouts serve two jobs.  A Poly is sparse: integer numerators over one
shared denominator, {exponent key: int} and den, in a canonical form (see
Poly), so arithmetic runs on Python integers and no Fraction is built per
term.  An exponent vector (e_0, ..., e_{n-1}) is packed into one integer
key with a fixed SLOT_BITS-bit slot per variable, x_0 in the most
significant slot:

    key = e_0 << (SLOT_BITS (n-1)) | e_1 << (SLOT_BITS (n-2)) | ... | e_{n-1}.

Integer order of keys is then the lexicographic order of the tuples, the
exponents of a product add as integers (key1 + key2), and a partial
derivative subtracts 1 << shift from the key.  A product whose operands
reach the top bit of any slot raises DegreeViolation, so a carry from one
slot into the next never happens silently.  Tuples appear only at the
edges: Poly(nvars, terms) takes them, and terms, sorted_terms and repr give
them back.  Poly stays sparse, its ring operations (they serve the
sphere-map side: products, squares and the reproducing identity) and its
derivatives alike, since a Poly may have few terms of a high degree.

The homogeneous calculus runs on dense lists instead.  A homogeneous
polynomial of degree k is one list of integer numerators, one entry per
monomial of _packed_monomials(n, k), in graded-lex order (x_0^k first), the
order the random draws fill.  Per (n, k) gather tables, cached like the
monomial lists, hold what each operation reads:

  - a partial d_i (and a second partial d_i^2) reads, for each target
    monomial t, the source position of t + u_i (t + 2 u_i) and the
    multiplier t_i + 1 ((t_i + 2)(t_i + 1)); the directional derivative
    and the Laplacian sum them over i;
  - a product by x_i (and by R = sum_i x_i^2) reads, for each target t,
    only the sources t - u_i (t - 2 u_i) that exist, padded with a 0 to
    the most at the degree; the x_i of a linear form reads the list scaled
    by its coefficient, so f vee xi and the rotation (a ^ b) . f are one
    gather-sum each over their scaled sources side by side;
  - the Fischer weights alpha! are one list.

Each kernel is a few operator.itemgetter gathers and map passes over Python
ints, so it stays exact and needs no numpy; the pairings split a Poly into
its homogeneous components at the edge.  Every identity is exact, never
checked by tolerance: the identity suite compares integer lists over f's
denominator, which is equality of polynomials.  The sign convention is
pinned to the geometer's Laplacian, the negative of the trace of the
Hessian, so (-Delta)^d below is the d-th power of the analyst's sum of pure
second partials.

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
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import chain, islice, repeat
from math import comb, factorial, gcd, perm
from operator import add, itemgetter, mul, or_, sub
from typing import NamedTuple, Optional

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
        _require_slot_room(self.nvars, self.nums, other.nums)
        return Poly._make(self.nvars, self.den * other.den,
                          _add_product({}, 1, self.nums.items(), other.nums.items()))

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
    def _partials(self, den: int, weights, step: int) -> "Poly":
        """sum_i b_i d_i^step over den, step 1 or 2, for (i, b_i) in weights:
        each partial maps the terms in their order and is added the way
        Poly addition adds (a cancelled key re-enters last)."""
        acc: dict = {}
        for i, b in weights:
            s = _shifts(self.nvars)[i]
            _add_multiple(acc, b, {e - (step << s): v * perm(k, step)
                                   for e, v in self.nums.items()
                                   if (k := (e >> s) & _SLOT_MASK) >= step})
        return Poly._make(self.nvars, den, acc)

    def diff(self, i: int) -> "Poly":
        return self._partials(self.den, [(i, 1)], 1)

    def analyst_laplacian(self) -> "Poly":
        """sum_i d_i d_i, summed a variable at a time."""
        return self._partials(self.den, [(i, 1) for i in range(self.nvars)], 2)

    def directional(self, xi: "Poly") -> "Poly":
        """Directional derivative along the linear form xi (metric-dual),
        summed in xi's term order."""
        _linear_coefficients(xi)   # refuses a term that is not linear
        place = _place(xi.nvars, 1)
        return self._partials(self.den * xi.den,
                              [(place[e], b) for e, b in xi.nums.items()], 1)

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


class HarmonicElement(NamedTuple):
    """A homogeneous polynomial annihilated by the Laplacian, exactly."""

    poly: Poly
    degree: int


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
# dense per-degree lists and their gather tables
# ----------------------------------------------------------------------

@lru_cache(maxsize=256)
def _place(nvars: int, degree: int) -> dict[int, int]:
    """key -> position in _packed_monomials(nvars, degree)."""
    return {e: j for j, e in enumerate(_packed_monomials(nvars, degree))}


def _getter(positions: tuple[int, ...]):
    """The items of a sequence at positions, as a tuple for any count."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return lambda v: tuple(v[j] for j in positions)


@lru_cache(maxsize=256)
def _lowering(nvars: int, degree: int, step: int) -> tuple:
    """The gather table of d_i^step (step 1 or 2) from degree to
    degree - step, as (getter, multipliers, positions): for each target
    monomial t, in order, and each i, the source position of t + step u_i
    and the multiplier (t_i + 1) or (t_i + 2)(t_i + 1)."""
    place, shifts = _place(nvars, degree), _shifts(nvars)
    targets = _packed_monomials(nvars, degree - step)
    positions = tuple(place[t + (step << s)] for t in targets for s in shifts)
    mults = tuple(perm(k + step, step)
                  for t in targets for s in shifts for k in [(t >> s) & _SLOT_MASK])
    return _getter(positions), mults, positions


@lru_cache(maxsize=256)
def _raising(nvars: int, degree: int, step: int) -> tuple:
    """The compact table of x_i^step times a degree list, (positions, size):
    for each target t of degree + step, in order, the sources t - step u_i
    with t_i >= step (for step 1 in copy i of the list, see _copies), then
    pads -1, read from a 0 appended, to the largest group, of size
    min(nvars, (degree + step) // step)."""
    place, shifts = _place(nvars, degree), _shifts(nvars)
    stride = len(place) if step == 1 else 0
    groups = [[place[t - (step << s)] + i * stride for i, s in enumerate(shifts)
               if (t >> s) & _SLOT_MASK >= step]
              for t in _packed_monomials(nvars, degree + step)]
    size = max(map(len, groups), default=0)
    return tuple(chain.from_iterable(g + [-1] * (size - len(g)) for g in groups)), size


@lru_cache(maxsize=256)
def _gather_sum(nvars: int, parts: tuple):
    """The sum of the raising products of (degree, step) parts, as a function
    of their sources in turn: each target's groups side by side, one gather."""
    tables, offset = [], 0
    for degree, step in parts:
        tables.append((*_raising(nvars, degree, step), offset))
        offset += len(_place(nvars, degree)) * (nvars if step == 1 else 1)
    size, count = sum(k for _, k, _ in tables), len(_packed_monomials(nvars, sum(parts[0])))
    get = _getter(tuple(p + o if p >= 0 else p for j in range(count)
                        for ps, k, o in tables for p in ps[j * k:(j + 1) * k]))
    return (lambda sources: _sums(get(sources + [0]), size)) if size else (lambda _: [0] * count)


@lru_cache(maxsize=256)
def _fischer_weights(nvars: int, degree: int) -> tuple[int, ...]:
    """alpha! for each monomial of _packed_monomials(nvars, degree)."""
    return tuple(map(_fischer_weight, _packed_monomials(nvars, degree)))


def _sums(items, size: int) -> list:
    """The sums of consecutive runs of size items: one per target."""
    return list(map(sum, zip(*[iter(items)] * size)))


def _directional(v: list, nvars: int, degree: int, xi: list) -> list:
    """v . xi for a degree list v and the coefficients xi of a linear form."""
    get, mults, positions = _lowering(nvars, degree, 1)
    weights = map(mul, mults, xi * (len(positions) // nvars))
    return _sums(map(mul, get(v), weights), nvars)


def _laplacian(v: list, nvars: int, degree: int) -> list:
    """The analyst's Laplacian sum_i d_i^2 of a degree list."""
    get, mults, _ = _lowering(nvars, degree, 2)
    return _sums(map(mul, get(v), mults), nvars)


def _copies(v: list, weights) -> list:
    """w v for each w in weights, one after the other (see _raising)."""
    return [w * c for w in weights for c in v]


def _times_linear(v: list, nvars: int, degree: int, xi: list) -> list:
    """xi v for a degree list v and the coefficients xi of a linear form."""
    return _gather_sum(nvars, ((degree, 1),))(_copies(v, xi))


def _times_R(v: list, nvars: int, degree: int) -> list:
    """R v, R = sum_i x_i^2, for a degree list v."""
    return _gather_sum(nvars, ((degree, 2),))(v)


def _fischer(v: list, w: list, weights) -> int:
    """sum alpha! v_alpha w_alpha, the Fischer pairing of two lists over the
    same monomials, given their weights alpha! (see _fischer_weights)."""
    return sum(map(mul, map(mul, v, w), weights))


def _scaled(v: list, k: int) -> list:
    return list(map(mul, v, repeat(k)))


def _difference(v: list, w: list) -> list:
    return list(map(sub, v, w))


def _components(nums: dict, nvars: int) -> dict[int, list]:
    """A key -> integer term dict as one dense list per degree it has."""
    out: dict[int, list] = {}
    for e, c in nums.items():
        k = _slot_sum(e)
        if k not in out:
            out[k] = [0] * len(_place(nvars, k))
        out[k][_place(nvars, k)[e]] = c
    return out


def _from_components(nvars: int, den: int, lists: dict) -> Poly:
    """The Poly of dense lists {degree: list} over den, higher degrees first."""
    return Poly._make(nvars, den, {e: c for k in sorted(lists, reverse=True)
                                   for e, c in zip(_packed_monomials(nvars, k), lists[k]) if c})


def _linear_coefficients(xi: Poly) -> list:
    """The coefficients (numerators over xi.den) of a linear form, by
    variable; DegreeViolation for a term of another degree."""
    lists = _components(xi.nums, xi.nvars)
    if lists.keys() - {1}:
        raise DegreeViolation("xi has a constant term; it must be linear" if 0 in lists
                              else f"xi has a term of degree {max(lists)}; it must be linear")
    return lists.get(1, [0] * xi.nvars)


# ----------------------------------------------------------------------
# harmonic projection
# ----------------------------------------------------------------------

def _harmonic_part(v: list, nvars: int, degree: int) -> tuple[int, list]:
    """(C, h) with H[p] = h / C for the integer degree list v of p.  In
    closed form (Axler, Bourdon & Ramey, Harmonic Function Theory, 2nd ed.,
    GTM 137, ch. 5),

        H[p] = sum_{j <= d/2} c_j R^j L^j p,  c_0 = 1,
        c_j = -c_{j-1} / (2j (n + 2d - 2j - 2)),

    L the analyst's Laplacian, summed by Horner from j = K = d // 2 down:
    acc <- R acc + w_j L^j p with the integer weights w_j = C c_j,
    C = (-1)^K / c_K.  That is K products by R, each one gather.
    """
    powers = [v]
    for j in range(degree // 2):
        powers.append(_laplacian(powers[-1], nvars, degree - 2 * j))
    K = degree // 2
    w, C = (-1) ** K, 1
    acc = _scaled(powers[K], w)
    for j in range(K - 1, -1, -1):
        step = 2 * (j + 1) * (nvars + 2 * degree - 2 * j - 4)
        w, C = -w * step, C * step
        acc = list(map(add, _times_R(acc, nvars, degree - 2 * j - 2),
                       map(mul, powers[j], repeat(w))))
    return C, acc


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


def random_harmonic(nvars: int, degree: int, rng: random.Random,
                    span: int = 4) -> HarmonicElement:
    """Harmonic part of a random small-integer homogeneous polynomial."""
    den, h = _random_harmonic(nvars, degree, rng, span)
    return HarmonicElement(_from_components(nvars, den, {degree: h}), degree)


def _random_linear(nvars: int, rng: random.Random, span: int = 4) -> list:
    """The coefficients of a random small-integer linear form, not all 0."""
    draws = _uniform_ints(rng, nvars, span)
    if not any(draws):
        draws[0] = 1
    return draws


def random_linear(nvars: int, rng: random.Random, span: int = 4) -> HarmonicElement:
    return HarmonicElement(_from_components(nvars, 1, {1: _random_linear(nvars, rng, span)}), 1)


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


# ----------------------------------------------------------------------
# monomial bookkeeping shared with the sphere-map module
# ----------------------------------------------------------------------

@lru_cache(maxsize=256, typed=True)
def _packed_monomials(nvars: int, degree: int) -> tuple[int, ...]:
    """The keys of monomial_exponents(nvars, degree), in the same order."""
    return tuple(_pack(nvars, e) for e in monomial_exponents(nvars, degree))


def monomial_exponents(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent multi-indices of the given total degree, graded-lex order."""
    _require_integers(nvars=nvars, degree=degree)
    if nvars < 1:
        raise ParamViolation("number of variables must be positive")
    # the exponent tuples of each remaining degree r over the last k variables
    tails = {r: [(r,)] for r in range(degree + 1)}
    for _ in range(nvars - 1):
        tails = {r: [(j, *t) for j in range(r, -1, -1) for t in tails[r - j]]
                 for r in range(degree + 1)}
    return tails.get(degree, [])
