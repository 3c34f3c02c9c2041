"""Exact polynomials on R^n: the sparse Poly and the dense degree lists.

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
    by its coefficient, so a sum of such products is one gather-sum over
    their scaled sources side by side (_gather_sum);
  - the Fischer weights alpha! are one list.

Each kernel is a few operator.itemgetter gathers and map passes over Python
ints, so it stays exact and needs no numpy; the harmonic projection is built
from them.  The sphere-map side reads this module, not harmonic.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, repeat
from math import comb, factorial, gcd, perm
from operator import add, itemgetter, mul, or_, sub
from typing import NamedTuple, Optional

from .errors import DegreeViolation, NotHomogeneous, ParamViolation

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
# dimensions and monomial lists
# ----------------------------------------------------------------------

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


@lru_cache(maxsize=256, typed=True)
def _packed_monomials(nvars: int, degree: int) -> tuple[int, ...]:
    """The keys of all monomials of the given total degree, in graded-lex
    order (x_0^degree first), packed by shifts as they are generated: every
    exponent lies in 0..degree, so no entry needs _pack's checks."""
    _require_integers(nvars=nvars, degree=degree)
    if nvars < 1:
        raise ParamViolation("number of variables must be positive")
    if degree > _SLOT_MASK:
        raise DegreeViolation(f"degree {degree} is above {_SLOT_MASK}, "
                              f"the range of a {SLOT_BITS}-bit slot")
    # the keys of each remaining degree r over the last k variables, the
    # exponent of the first of them descending
    tails = {r: [r] for r in range(degree + 1)}
    for shift in _shifts(nvars)[-2::-1]:
        tails = {r: [(j << shift) + t for j in range(r, -1, -1) for t in tails[r - j]]
                 for r in range(degree + 1)}
    return tuple(tails.get(degree, ()))


def monomial_exponents(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent multi-indices of the given total degree, graded-lex order."""
    keys = _packed_monomials(nvars, degree)   # refuses what it cannot list
    shifts = _shifts(nvars)
    return [_unpack(e, shifts) for e in keys]
