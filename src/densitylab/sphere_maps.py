"""Constant-energy harmonic maps between spheres from Gram-matrix data.

A map S^n -> S^N with constant energy density lifts to homogeneous
degree-m harmonic polynomials F^0..F^N on R^(n+1) with

    (F^0)^2 + ... + (F^N)^2 = R^m       (R = |x|^2),

and its energy density is the eigenvalue m(m+n-1).  Fixing an orthogonal
basis {h_a} of the degree-m harmonic polynomials, quadratic expressions
h(M) = sum M^{ab} h_a h_b with symmetric M realize all candidate sums of
squares, so the solution set is the affine space h^{-1}(R^m).  Its exact
kernel measures the failure of uniqueness: once the kernel dimension
exceeds dim SO(n+1), inequivalent maps with identical energy density are
guaranteed.  The matrix of h is block-diagonal by parity, and the kernel
dimension is certified from the rank of each block modulo a fixed 31-bit
prime, in numpy int64.  No product h_a h_b is built as a polynomial: the
basis's terms are listed once, as monomial places and numerators, and the
products of their pairs, reduced modulo p, are scattered straight into
one int64 stack per block shape, which is eliminated at once.  Full row
rank modulo p is full row rank over Q; a block that falls short is
retried modulo further primes, then ranked exactly.  Modular and exact
block entries come from one scatter (_Blocks.stack): without a prime it
sums the same products as Python integers.  The kernel elements are
built only on request, by fraction-free Gauss-Jordan elimination on
sparse Python integer rows (Bareiss), one block at a time.  They stay
sparse, as integer numerators over one denominator at the entries
a <= b, and no dense matrix of them is built: GramMatrix.add takes one as
it is.  The basis {h_a} is fraction-free as well (see basis_Hm), and its
term products pass one slot-overflow guard per basis.

h has one exact evaluator, _Blocks.h: for a symmetric matrix held as a
kernel element is, it sums the exact products of the term pairs of its
columns, keyed by packed monomial.  It checks the basis's reproducing
identity, h(G0) = R^m for maps verify, and h(k) = 0 for each kernel
element k as it is built.

A process keeps what depends on (n, m) alone.  basis_Hm builds each size
once, checking its reproducing identity then, and keeps the last _BASES
sizes asked for.  Each HarmonicBasis carries its parity blocks (_Blocks:
the term table, the numerators modulo each prime, and the term pairs and
cells of each stack), the ones its identity was checked with, and its
base point G0, built on first use.  Every verdict still ranks its blocks
modulo p (with the exact fallback), factors G0, checks h(G0) = R^m and
the map's sum of squares, and draws and evaluates its own points: no rank
or verdict is kept.

Gram matrices here live in the plain coordinates of the orthogonal basis
(norms recorded exactly); the scaled-identity solution of the orthonormal
picture corresponds to the rational diagonal matrix diag(1/(c n_a)), where
sum h_a^2 / n_a = c R^m is the exact reproducing identity of the basis.

A map is kept as the steps of the pivoted LDL^T of its Gram matrix: step k
is one polynomial f_k and its pivot piv_k = a/b, written as a sum of the
fewest rational squares (s_i / b)^2 with sum s_i^2 = a b (at most four, by
Lagrange).  Its components f_k s_i / b are exact polynomials (Poly), read
off the steps on demand.  sum_k piv_k f_k^2 = R^m is checked as an exact
identity on integer numerators, one product per step, and energy_density
evaluates one polynomial per step, weighted by piv_k, at many points in
one numpy pass.
"""

from __future__ import annotations

import math
import random
from functools import cached_property, lru_cache
from fractions import Fraction
from numbers import Real
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, NotOnSphere, NotPSD, ParamViolation
from .poly import (HarmonicElement, Poly, _SLOT_MASK, _add_product, _difference, _every_slot,
                   _fischer, _fischer_weight, _fischer_weights, _getter, _harmonic_part,
                   _packed_monomials, _place, _require_integers, _require_slot_room, _scaled,
                   _shifts, _unpack, dim_harmonics)

_ZERO = Fraction(0)   # immutable, so one object serves every zero entry


class _Frozen:
    """The value semantics of a frozen dataclass, for a record that keeps
    cached_property values (in vars(), which no assignment reaches).

    __init__ takes the _fields in order, and no field can be assigned or
    deleted afterwards; equality (with an instance of its own class only),
    hash and repr read the _compared fields.
    """

    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields "
                            f"{', '.join(self._fields)}; got {len(values)} values")
        vars(self).update(zip(self._fields, values))

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._compared, self._key()))
        return f"{type(self).__qualname__}({shown})"


# ----------------------------------------------------------------------
# exact linear algebra: one fraction-free elimination core
# ----------------------------------------------------------------------

class _IntegerRref:
    """Fraction-free Gauss-Jordan elimination on sparse integer rows (Bareiss).

    A row is a dict {column: nonzero int}; a column it does not name holds
    0.  Rows are added one at a time.  The kept rows are always d times the
    reduced row echelon form of the rows added so far: kept row k holds
    the integer d at its pivot column pivots[k] and 0 at every other
    pivot column, so the rref is rows / d.  A new row x reduces to
    y = d x - sum_k x[pivots[k]] rows[k], which is zero exactly when x is
    in the span of the kept rows.  Otherwise the smallest column c with
    y[c] != 0 becomes a pivot, every kept row is updated as
    (piv row - row[c] y) // d with piv = y[c], and d becomes piv.  Every
    entry is a minor of the rows added, so each division is exact
    (Bareiss, Math. Comp. 22 (1968) 565-578) and no Fraction is built.
    Every row is kept without zero entries, so only nonzeros are touched
    and no zero can become a pivot.
    """

    __slots__ = ("rows", "pivots", "d")

    def __init__(self):
        self.rows: list[dict[int, int]] = []
        self.pivots: list[int] = []
        self.d = 1

    def add(self, x: dict[int, int]) -> bool:
        """Keep x and return True if it is independent of the kept rows.

        The columns of x may come in any order; zero values are ignored."""
        d = self.d
        y = {c: d * v for c, v in x.items() if v}
        for row, p in zip(self.rows, self.pivots):
            f = x.get(p)
            if f:
                for c, b in row.items():
                    v = y.get(c, 0) - f * b
                    if v:
                        y[c] = v
                    else:
                        del y[c]
        if not y:
            return False
        c = min(y)
        piv = y[c]
        rows = self.rows
        for row in rows:   # updated in place
            f = row.get(c)
            if f:
                for j in row:
                    row[j] *= piv
                for j, b in y.items():
                    v = row.get(j, 0) - f * b
                    if v:
                        row[j] = v
                    else:
                        del row[j]
                for j in row:
                    row[j] //= d
            else:
                for j in row:
                    row[j] = piv * row[j] // d
        rows.append(y)
        self.pivots.append(c)
        self.d = piv
        return True

    def kernel(self, ncols: int) -> list[tuple[int, list[tuple[int, int]]]]:
        """(f, nonzero (column, entry) pairs of d times the rref kernel
        vector of f) for each free column f < ncols, in order of f."""
        pivot_cols = set(self.pivots)
        return [(f, [(f, self.d)] + [(p, -row[f]) for row, p
                                     in zip(self.rows, self.pivots) if f in row])
                for f in range(ncols) if f not in pivot_cols]


# fixed primes just below 2^31: a product of two residues stays below 2^62
_PRIMES = (2_147_483_629, 2_147_483_587, 2_147_483_579)


def _full_row_rank_mod(A: np.ndarray, p: int) -> np.ndarray:
    """For a stack A of B matrices r x c (int64 entries in [0, p)), True
    where the matrix has rank r modulo p.

    Step i takes row i of every matrix: its first nonzero column is the
    pivot, and each later row becomes (piv row_k - f row_i) mod p with f
    its entry at that column, so no modular inverse is needed.  A row that
    is zero when its step comes is a combination of the rows above it.
    Every factor is below p < 2^31, so no product overflows int64.
    """
    B, r, _ = A.shape
    full = np.ones(B, dtype=bool)
    at = np.arange(B)
    for i in range(r):
        row = A[:, i, :]
        col = (row != 0).argmax(axis=1)
        piv = row[at, col]
        full &= piv != 0
        rest = A[:, i + 1:, :]
        f = A[at, i + 1:, col]
        rest *= piv[:, None, None]
        rest -= f[:, :, None] * row[:, None, :]
        rest %= p
    return full


def _stack_ranks(blocks: "_Blocks", group: list[int]) -> list[int]:
    """The exact rank of each block numbered in group, all of one shape r x c.

    The blocks are stacked modulo p (_Blocks.stack) and eliminated at once.
    Rank r modulo p means a nonzero r x r minor modulo p, hence a nonzero
    integer minor: rank r over Q.  A block that falls short is retried
    modulo the next prime, and after the last one its rank comes from the
    exact elimination of its exact stack (_exact_cores): modular and exact
    entries come from one scatter.
    """
    r, c = blocks.blocks[group[0]][0], len(blocks.blocks[group[0]][1])
    ranks = dict.fromkeys(group, r)
    short = list(group)
    for p in _PRIMES if r <= c else ():   # r > c: short over Q as well
        full = _full_row_rank_mod(blocks.stack(short, p), p)
        short = [b for b, ok in zip(short, full.tolist()) if not ok]
        if not short:
            break
    for b, core in _exact_cores(blocks, short):
        ranks[b] = len(core.pivots)
    return [ranks[b] for b in group]


def _exact_cores(blocks: "_Blocks", chosen: list[int]):
    """(b, core) for each block b in chosen, in order, core the _IntegerRref
    of b's rows: one exact stack of the chosen blocks, each core built only
    when it is asked for."""
    if chosen:
        for b, rows in zip(chosen, blocks.stack(chosen)):
            core = _IntegerRref()
            for row in rows.tolist():
                core.add(dict(enumerate(row)))   # add ignores the zeros
            yield b, core


# ----------------------------------------------------------------------
# Gram matrices
# ----------------------------------------------------------------------

class GramMatrix(NamedTuple):
    """Symmetric matrix of exact rationals in basis coordinates."""

    entries: tuple[tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.entries)

    @staticmethod
    def diagonal(values: Sequence) -> "GramMatrix":
        d = len(values)
        return GramMatrix(tuple(
            tuple(Fraction(values[i]) if i == j else _ZERO
                  for j in range(d)) for i in range(d)))

    def add(self, element, scale=1) -> "GramMatrix":
        """self + scale k for k = (den, entries) held as a kernel element
        is: num / den at (a, b) and (b, a) for each ((a, b), num)."""
        den, entries = element
        s = Fraction(scale) / den
        M = [list(row) for row in self.entries]
        for (a, b), num in entries:
            if not 0 <= a <= b < self.dim:
                raise DimensionMismatch(
                    f"entry ({a}, {b}) added to a {self.dim}x{self.dim} matrix")
            M[a][b] = M[b][a] = M[a][b] + s * num
        return GramMatrix(tuple(map(tuple, M)))

    def numerators(self) -> tuple[int, tuple[tuple[tuple[int, int], int], ...]]:
        """The matrix held as a kernel element is: (den, entries), with
        ((a, b), num) for each nonzero entry num / den at a <= b."""
        upper = [((a, b), v) for a, row in enumerate(self.entries)
                 for b, v in enumerate(row[a:], a) if v]
        den = math.lcm(*(v.denominator for _, v in upper))
        return den, tuple([(ab, v.numerator * (den // v.denominator)) for ab, v in upper])

    def ldlt(self) -> tuple[list[tuple[int, list[Fraction], Fraction]],
                            Optional[list[Fraction]]]:
        """Exact pivoted symmetric elimination G = sum_k row_k^T row_k / piv_k.

        Leading principal minors alone cannot certify semidefiniteness (a
        zero pivot hides indefinite blocks), so the elimination pivots on
        the largest remaining diagonal entry and checks that rows with a
        zero diagonal vanish.  Returns the steps (k, row_k, piv_k) in
        pivot order and None when G is PSD, or the steps so far and an
        exact rational witness v with v^T G v < 0.
        """
        d = self.dim
        M = [[self.entries[i][j] for j in range(d)] for i in range(d)]
        active = list(range(d))
        steps: list[tuple[int, list[Fraction], Fraction]] = []

        def lift_witness(w: dict[int, Fraction]) -> list[Fraction]:
            vec = [Fraction(0)] * d
            for idx, val in w.items():
                vec[idx] = val
            for k, row, piv in reversed(steps):
                vec[k] = -sum(row[j] * vec[j] for j in range(d)) / piv
            return vec

        while active:
            k = max(active, key=lambda i: M[i][i])
            if M[k][k] < 0:
                return steps, lift_witness({k: Fraction(1)})
            if M[k][k] == 0:
                # all remaining diagonals are <= 0, hence exactly 0 here
                for i in active:
                    if M[i][i] < 0:
                        return steps, lift_witness({i: Fraction(1)})
                for i in active:
                    for j in active:
                        if i < j and M[i][j] != 0:
                            s = Fraction(1 if M[i][j] < 0 else -1)
                            return steps, lift_witness({i: Fraction(1), j: s})
                return steps, None
            piv = M[k][k]
            row = [M[k][j] for j in range(d)]
            steps.append((k, row, piv))
            active.remove(k)
            for i in active:
                if M[i][k]:
                    fi = M[i][k] / piv
                    for j in active:
                        if row[j]:
                            M[i][j] -= fi * row[j]
            for i in active:
                M[i][k] = M[k][i] = _ZERO
        return steps, None

    def psd_certificate(self) -> tuple[bool, Optional[list[Fraction]]]:
        """(True, None), or (False, witness) with v^T G v < 0; see ldlt."""
        _, witness = self.ldlt()
        return witness is None, witness


class KernelCertificate(_Frozen):
    """The kernel of h on symmetric D x D matrices: its certified dimension,
    and its exact basis built on request.

    dimension is exact: it comes from the rank of each parity block of the
    matrix of h (see solve_h_equals_Rm).  elements is the rref kernel
    basis, in free-column order, read off the fraction-free elimination of
    each block on first use, kept once built, and each certified h(k) = 0
    exactly; its count must equal dimension.  Each element is a pair (den,
    entries) of integer numerators over one denominator: entries holds
    ((a, b), num) with a <= b for every nonzero entry, the one at (a, b)
    and at (b, a) being num / den.
    """

    _fields = ("D", "dimension", "harmonics")
    _compared = ("D", "dimension")   # harmonics is neither shown nor compared
    D: int
    dimension: int
    harmonics: HarmonicBasis

    @cached_property
    def elements(self) -> tuple[tuple[int, tuple[tuple[tuple[int, int], int], ...]], ...]:
        elements = _kernel_elements(self.harmonics)
        if len(elements) != self.dimension:
            raise ParamViolation(
                f"{len(elements)} kernel elements against certified dimension "
                f"{self.dimension} (internal)")
        return elements


# ----------------------------------------------------------------------
# harmonic bases
# ----------------------------------------------------------------------

class HarmonicBasis(_Frozen):
    """Orthogonal basis of degree-m harmonics with exact norm data.

    invariant_c is the exact rational with sum_a h_a^2 / n_a = c R^m,
    the reproducing identity that replaces the orthonormal basis of the
    ideal construction (orthonormalization would force irrational
    square roots; conjugating by the diagonal norm matrix keeps every
    computation rational).
    """

    _fields = _compared = ("n_ambient", "m", "elements", "norms", "invariant_c")
    n_ambient: int
    m: int
    elements: tuple[HarmonicElement, ...]
    norms: tuple[Fraction, ...]
    invariant_c: Fraction

    @property
    def dim(self) -> int:
        return len(self.elements)

    # functions of the basis alone, kept on the instance, so that every
    # verdict on a cached basis shares them and a basis built by hand gets
    # its own, built on first use (basis_Hm's come with the _Blocks that
    # checked their reproducing identity)

    @cached_property
    def _scaled_identity(self) -> GramMatrix:
        return GramMatrix.diagonal([1 / (self.invariant_c * n2) for n2 in self.norms])

    @cached_property
    def _blocks(self) -> "_Blocks":
        return _Blocks(self.n_ambient, self.m, self.elements)


def radius_power(n_ambient: int, m: int) -> Poly:
    """R^m with R = |x|^2 on R^n_ambient, as an exact polynomial, in closed
    form: R^m = sum_{|alpha| = m} (m! / alpha!) x^(2 alpha)."""
    m_factorial = math.factorial(m)
    return Poly._make(n_ambient, 1, {2 * e: m_factorial // _fischer_weight(e)
                                     for e in _packed_monomials(n_ambient, m)})


def basis_Hm(n_ambient: int, m: int) -> HarmonicBasis:
    """Deterministic orthogonal basis of degree-m harmonics on R^n_ambient.

    The harmonic part of each monomial x^e, in graded-lex order (closed
    form, see poly._harmonic_part, on dense degree lists), is
    Gram-Schmidt orthogonalized without normalization against the kept
    elements of its parity class, whose supports are disjoint from other
    classes'.  The steps are fraction-free on integer numerators
    (Erlingsson, Kaltofen & Musser, ISSAC 1996): cur <- (n_g cur - t g) / q,
    t = <cur, g> the integer Fischer sum, n_g = <g, g> > 0 and
    q = gcd(n_g, t) > 0.  By induction each cur is a positive multiple of
    the classical remainder, and positive scaling changes neither the zero
    test nor the primitive part: a zero remainder means a dependent part,
    any other is kept as the same primitive integer element.  t needs no
    sum: cur = s x^e - s R q - (kept elements before g), s the running
    scale, and g is harmonic, so Fischer-orthogonal to R q and to the kept
    elements; hence t = s e! g_e, read off g's coefficient of x^e.  Norms
    squared are recorded, and the reproducing identity is one exact
    comparison, h(diag(L/n_a)) = c L R^m with L = lcm(n_a), read by
    _Blocks.h from the parity blocks the basis then keeps.

    The basis depends on (n_ambient, m) alone, so it is built, and its
    identity checked, once per size: the last _BASES sizes asked for are
    kept (_cached_basis), and every call for one of them returns the same
    frozen HarmonicBasis.  A build that raises keeps nothing.
    """
    _require_integers(n_ambient=n_ambient, m=m)
    if n_ambient < 3:
        raise ParamViolation("ambient dimension must be >= 3")
    if m < 0:
        raise ParamViolation("degree must be nonnegative")
    return _cached_basis(int(n_ambient), int(m))


# sizes whose basis a process keeps, with its block layout and base point;
# the maps kernel default scenario asks for 7
_BASES = 8


def _build_basis(n_ambient: int, m: int) -> HarmonicBasis:
    """basis_Hm without its checks of the arguments and without the cache."""
    target = dim_harmonics(n_ambient, m)
    monos, weights = _packed_monomials(n_ambient, m), _fischer_weights(n_ambient, m)
    # the places in monos of each parity class, where its elements live
    low = _every_slot(n_ambient, 1)
    places: dict[int, list[int]] = {}
    for i, e in enumerate(monos):
        places.setdefault(e & low, []).append(i)
    gathers = {c: _getter(tuple(ps)) for c, ps in places.items()}
    kept: dict[int, list[tuple[list[int], int]]] = {c: [] for c in places}
    ortho: list[HarmonicElement] = []
    norms: list[int] = []
    for i, e in enumerate(monos):
        c = e & low
        unit = [0] * len(monos)
        unit[i] = 1
        C, full = _harmonic_part(unit, n_ambient, m)
        cur = gathers[c](full)   # full vanishes off e's class
        q = math.gcd(C, *cur)
        s, cur = C // q, [v // q for v in cur]   # cur = s H[x^e], in lowest terms
        j = places[c].index(i)   # the place of x^e in its class
        for g, n_g in kept[c]:
            if g[j]:
                t = s * weights[i] * g[j]   # <cur, g>, read off x^e's coefficient
                q = math.gcd(n_g, t)
                a = n_g // q
                cur = _difference(_scaled(cur, a), _scaled(g, t // q))
                s *= a
        if not any(cur):
            continue
        # the primitive part: coprime integers, and a positive leading term,
        # the first nonzero entry in graded-lex order
        q = math.gcd(*cur) * (1 if next(filter(None, cur)) > 0 else -1)
        g = [v // q for v in cur]
        n_g = _fischer(g, g, gathers[c](weights))
        ortho.append(HarmonicElement(Poly._make(n_ambient, 1, {
            monos[k]: v for k, v in zip(places[c], g) if v}), m))
        norms.append(n_g)
        kept[c].append((g, n_g))
        if len(ortho) == target:
            break
    if len(ortho) != target:
        raise ParamViolation("failed to build a full harmonic basis")

    # reproducing identity h(diag(L/n_a)) = c L R^m, verified exactly
    L = math.lcm(*norms)
    blocks = _Blocks(n_ambient, m, ortho)
    h = blocks.h(1, tuple([((a, a), L // n_g) for a, n_g in enumerate(norms)]))
    rm = radius_power(n_ambient, m)
    lead = next(iter(rm.nums))
    cL = Fraction(h.nums.get(lead, 0) * rm.den, h.den * rm.nums[lead])
    if h != rm.scale(cL):
        raise ParamViolation("basis reproducing identity failed (internal)")
    basis = HarmonicBasis(n_ambient, m, tuple(ortho), tuple(map(Fraction, norms)), cL / L)
    vars(basis)["_blocks"] = blocks   # where the cached_property keeps it
    return basis


_cached_basis = lru_cache(maxsize=_BASES)(_build_basis)


# ----------------------------------------------------------------------
# the quadratic-form map and its affine solution space
# ----------------------------------------------------------------------

def scaled_identity_gram(basis: HarmonicBasis) -> GramMatrix:
    """The rational diagonal point diag(1/(c n_a)) with h(G0) = R^m exactly.

    This is the plain-coordinate expression of the orthonormal picture's
    scaled identity c^{-1} I.  It is built once per basis and kept on it; a
    GramMatrix is immutable, so every caller may share it.
    """
    return basis._scaled_identity


def _sym_pairs(D: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(D) for b in range(a, D)]


def _require_sphere_dim_above_2(n_ambient: int) -> None:
    """ParamViolation unless the domain sphere S^(n_ambient-1) has dim > 2."""
    if n_ambient < 4:
        raise ParamViolation("need ambient dimension >= 4 (sphere dim > 2)")


@lru_cache(maxsize=16)
def _product_layout(n_ambient: int, m: int
                    ) -> tuple[dict[int, int], np.ndarray, np.ndarray, tuple[int, ...]]:
    """Where the product of two degree-m monomials lands in the matrix of h.

    Returns (index, row, parity, rows).  index maps each degree-m key to
    its place in _packed_monomials(n_ambient, m).  For the monomials at
    places i and j, parity[i, j] numbers the parity class of x^(e_i + e_j)
    (the low bit of each exponent), classes being numbered as first met in
    _packed_monomials(n_ambient, 2m), so that the even class is 0; row[i, j]
    is the place of x^(e_i + e_j) among the monomials of its class, in the
    same order.  rows[c] counts the monomials of class c.
    """
    low = _every_slot(n_ambient, 1)
    classes: dict[int, int] = {}
    rows: list[int] = []
    # per degree-2m monomial, in order: its place in its class, and its class
    row_of, class_of = [], []
    for e in _packed_monomials(n_ambient, 2 * m):
        c = classes.setdefault(e & low, len(classes))
        if c == len(rows):
            rows.append(0)
        row_of.append(rows[c])
        class_of.append(c)
        rows[c] += 1
    # product[i, j] = product[j, i]: the place of x^(e_i + e_j), i <= j read
    monos, place = _packed_monomials(n_ambient, m), _place(n_ambient, 2 * m)
    upper = np.triu_indices(len(monos))   # row by row, as the pairs are read
    product = np.empty((len(monos), len(monos)), dtype=np.intp)
    product[upper] = [place[e + f] for i, e in enumerate(monos) for f in monos[i:]]
    product[upper[::-1]] = product[upper]
    row, parity = (np.array(v, dtype=np.intp)[product] for v in (row_of, class_of))
    for table in (row, parity):
        table.flags.writeable = False   # cached, so shared by every caller
    return {e: i for i, e in enumerate(monos)}, row, parity, tuple(rows)


@lru_cache(maxsize=16)
def _pair_arrays(D: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs a <= b of _sym_pairs(D) as three arrays: a, b, and the
    factor of column E_ab, 1 on the diagonal and 2 off it."""
    a, b = np.triu_indices(D)   # row by row, as _sym_pairs
    pairs = a, b, 1 + (a != b)
    for array in pairs:
        array.flags.writeable = False   # cached, so shared by every caller
    return pairs


class _Blocks:
    """The parity blocks of the matrix of h for the basis elements of degree
    m on R^n_ambient, and h itself, read from one table of their terms; no
    product h_a h_b is built as a polynomial.

    Column E_ab, for the pair (a, b) at place j of _sym_pairs, holds the
    integer numerators of h_a h_b, times 2 when a != b.  Each basis element
    has one parity pattern in Z_2^n (the Fischer pairing of different
    parities is 0, so Gram-Schmidt never mixes them), so every monomial of
    h_a h_b has the parity par(h_a) XOR par(h_b): the column E_ab meets
    only the rows of that class.  Blocks are numbered in the order of their
    classes; a block keeps its columns in pair order and its rows in the
    order of _product_layout.

    The term table lists every term of every element, element by element:
    the place of its monomial (mono) and its integer numerator (nums), and
    per element its (packed key, numerator) pairs (terms).  A
    term pair (t, u) of column E_ab, t a term of h_a and u one of h_b, adds
    the product of their numerators at row[mono[t], mono[u]] of the block
    (see _product_layout).  stack scatters the products of the term pairs
    of the chosen blocks into one stack, modulo p (each numerator reduced
    once) or exact, so that modular and exact entries come from one
    scatter; h sums those of the columns of one matrix, keyed by packed
    monomial, from terms.

    A basis keeps its _Blocks (HarmonicBasis._blocks), and the _Blocks
    keeps what stack reads: the numerators, exact and modulo each prime,
    and for each set of chosen blocks its term pairs, their column factors
    and the cells they add to.
    """

    def __init__(self, n_ambient: int, m: int, elements: Sequence[HarmonicElement]):
        nums = [el.poly.nums for el in elements]
        _require_slot_room(n_ambient, *nums)
        index, self.row, parity, class_rows = _product_layout(n_ambient, m)
        try:
            self.mono = np.array([index[e] for t in nums for e in t], dtype=np.intp)
        except KeyError:
            raise ParamViolation(
                f"basis element not homogeneous of degree {m} (internal)") from None
        self.n_ambient = n_ambient
        self.terms = [tuple(t.items()) for t in nums]
        self.nums = [v for t in nums for v in t.values()]
        self.dens = [el.poly.den for el in elements]
        self.count = np.array([len(t) for t in nums], dtype=np.intp)
        self.start = np.cumsum(self.count) - self.count
        first = self.mono[self.start] if self.count.all() else None
        # a term shares the parity of its element's first term exactly when
        # their product lies in the even class 0
        if first is None or parity[self.mono, np.repeat(first, self.count)].any():
            raise ParamViolation("basis element without one parity pattern (internal)")
        if self.count.max(initial=0) >= 1 << 15:   # see stack
            raise ParamViolation("basis element of 2^15 terms or more: its term "
                                 "pairs could overflow an int64 entry")
        self.pa, self.pb, self.factor = _pair_arrays(len(nums))
        # per block, in class order: its row count and its columns, as
        # places in _sym_pairs, in order (a stable sort by class)
        cls = parity[first[self.pa], first[self.pb]]
        classes, counts = np.unique(cls, return_counts=True)
        self.blocks = list(zip([class_rows[cl] for cl in classes.tolist()],
                               np.split(np.argsort(cls, kind="stable"), np.cumsum(counts)[:-1])))
        self._nums: dict[Optional[int], np.ndarray] = {}
        self._scatter: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}

    def shape_groups(self) -> dict[tuple[int, int], list[int]]:
        """The blocks of each shape (rows, columns), in order of first block."""
        groups: dict[tuple[int, int], list[int]] = {}
        for b, (r, cols) in enumerate(self.blocks):
            groups.setdefault((r, len(cols)), []).append(b)
        return groups

    def _term_pairs(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(t, u, k) for every term pair of every column in cols, t a term
        of h_a and u one of h_b for the pair (a, b) at cols[k]: t runs over
        h_a's terms, and for each t, u over h_b's."""
        a, b = self.pa[cols], self.pb[cols]
        k, t = _runs(self.start[a], self.count[a])     # one line per (k, t)
        line, u = _runs(self.start[b][k], self.count[b][k])
        return t[line], u, k[line]

    def stack(self, chosen: list[int], p: Optional[int] = None) -> np.ndarray:
        """The chosen blocks, all of one shape r x c, as one stack: modulo p
        in int64, or exact, in Python integers in an object array, without
        a prime.  Both sum the products of the same term pairs into the same
        cells (_scatter_of).  Modulo p each numerator is reduced once, so
        the product of two is below 2^62, and the entry it adds, reduced,
        below 2^31.  An entry of column E_ab sums at most |h_a| |h_b| < 2^30
        of them (__init__ refuses longer elements), so it stays below 2^61,
        and below 2^62 once the column's factor multiplies it, until the
        final reduction."""
        nums = self._nums.get(p)
        if nums is None:
            nums = self._nums[p] = (np.array(self.nums, dtype=object) if p is None else
                                    np.array([v % p for v in self.nums], dtype=np.int64))
        r, c = self.blocks[chosen[0]][0], len(self.blocks[chosen[0]][1])
        t, u, cells, factor = self._scatter_of(tuple(chosen))
        values = nums[t]
        values *= nums[u]
        if p:
            values %= p
        A = np.zeros(len(chosen) * r * c, dtype=nums.dtype)
        np.add.at(A, cells, values)
        A = A.reshape(len(chosen), r, c)
        A *= factor
        if p:
            A %= p
        return A

    def _scatter_of(self, chosen: tuple[int, ...]) -> tuple[np.ndarray, ...]:
        """(t, u, cell, factor) as stack reads them, built once for each
        tuple of blocks: for every term pair (t, u) of the chosen blocks the
        cell of the flat stack it adds to, and the factor of each column of
        the stack, shaped (blocks, 1, c).  The indices are kept as int32,
        unless the stack has 2^31 cells or more (16 GiB)."""
        scatter = self._scatter.get(chosen)
        if scatter is None:
            r, c = self.blocks[chosen[0]][0], len(self.blocks[chosen[0]][1])
            cols = np.concatenate([self.blocks[b][1] for b in chosen])
            t, u, k = self._term_pairs(cols)
            # column k is column k % c of block k // c of the stack, whose
            # row 0 starts at cell (k // c) r c + k % c
            origin = (np.arange(len(chosen))[:, None] * (r * c) + np.arange(c)).ravel()
            cells = origin[k] + self.row[self.mono[t], self.mono[u]] * c
            index = np.int32 if len(chosen) * r * c < 2 ** 31 else np.intp
            scatter = self._scatter[chosen] = (
                t.astype(index), u.astype(index), cells.astype(index),
                self.factor[cols].reshape(len(chosen), 1, c))
        return scatter

    def h(self, den: int, entries) -> Poly:
        """h(G) = sum_{a, b} G^{ab} h_a h_b, exact, for the symmetric G held
        as a kernel element is: num / den at (a, b) and (b, a) for each
        ((a, b), num) of entries, a <= b.  Column E_ab adds its factor
        times num times the products of the term pairs of h_a and h_b, at
        the packed key of each product, in Python integers and with no
        numpy call, so a small G costs a few products.  The columns are
        brought to the lcm L of their element denominators d_a d_b, so
        h(G) is the sum over den L."""
        terms, dens = self.terms, self.dens
        if not all(0 <= a <= b < len(terms) for (a, b), _ in entries):
            raise DimensionMismatch(
                f"an entry outside the {len(terms)}x{len(terms)} matrices of h")
        L = math.lcm(*(dens[a] * dens[b] for (a, b), _ in entries))
        acc: dict[int, int] = {}
        for (a, b), num in entries:
            if num:   # _add_product takes a nonzero factor
                _add_product(acc, (1 if a == b else 2) * num * (L // (dens[a] * dens[b])),
                             terms[a], terms[b])
        return Poly._make(self.n_ambient, den * L, acc)


def _runs(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(run, value) for the ranges starts[i], ..., starts[i] + counts[i] - 1
    laid end to end: each value and the number i of its range."""
    run = np.repeat(np.arange(len(counts)), counts)
    return run, np.arange(run.size) + np.repeat(starts - (np.cumsum(counts) - counts), counts)


def solve_h_equals_Rm(n_ambient: int, m: int,
                      basis: Optional[HarmonicBasis] = None
                      ) -> tuple[GramMatrix, KernelCertificate]:
    """Particular PSD solution of h(G) = R^m plus the exact kernel of h.

    The matrix of h over the symmetric-pair basis is block-diagonal by
    parity (see _Blocks), so its kernel has dimension sum(cols - rank)
    over the blocks.  Each rank is exact (see _stack_ranks): the blocks of
    one shape are assembled modulo a fixed prime into one int64 stack and
    eliminated together, and a block of full row rank modulo p has full
    row rank over Q.  When every block has full row rank, h maps onto the
    degree-2m polynomials and the dimension is the do Carmo-Wallach count
    D(D+1)/2 - dim P_2m.  No kernel element is built here; see
    KernelCertificate.elements.
    """
    kernel = _kernel_certificate(n_ambient, m, basis)
    return scaled_identity_gram(kernel.harmonics), kernel


def _kernel_certificate(n_ambient: int, m: int,
                        basis: Optional[HarmonicBasis] = None) -> KernelCertificate:
    """The kernel of h, certified as in solve_h_equals_Rm; no Gram matrix."""
    _require_sphere_dim_above_2(n_ambient)
    if basis is None:
        basis = basis_Hm(n_ambient, m)
    blocks = basis._blocks
    dimension = 0
    for (_, c), group in blocks.shape_groups().items():
        dimension += sum(c - rank for rank in _stack_ranks(blocks, group))
    return KernelCertificate(basis.dim, dimension, basis)


def _kernel_elements(basis: HarmonicBasis
                     ) -> tuple[tuple[int, tuple[tuple[tuple[int, int], int], ...]], ...]:
    """The rref kernel basis of h, sparse, each element certified exactly.

    Each parity block is eliminated on its own by _IntegerRref, from the
    exact stack of its shape group (_exact_cores), whose scatter the rank
    step has already built.  A column is free exactly when it is free in
    its block, and the block's kernel vector for a free column is the
    whole matrix's, so the basis is the one read off the rref of the whole
    matrix, in the same order.  Each element k is certified by h(k) = 0
    exactly (_Blocks.h), else ParamViolation.

    Column E_ab holds the integer numerators of h_a h_b (times 2 when
    a != b) over den_ab, the product of the two elements' denominators
    (1 for every basis_Hm element, whose coefficients are integers).
    Scaling columns keeps the pivot columns, and the rref kernel vector of
    free column f has entry den_j w_j / (den_f d) at j, where w is d times
    the kernel vector of the integer block.
    """
    blocks = basis._blocks
    pairs = _sym_pairs(basis.dim)
    element_dens = [el.poly.den for el in basis.elements]
    found: list[tuple[int, tuple]] = []  # (free column, sparse element)
    for b, core in (bc for group in blocks.shape_groups().values()
                    for bc in _exact_cores(blocks, group)):
        cols = blocks.blocks[b][1].tolist()
        dens = [element_dens[a] * element_dens[bb] for a, bb in map(pairs.__getitem__, cols)]
        for fc, w in core.kernel(len(cols)):
            # tuples from lists, not generators: a tuple grown from a
            # generator is reallocated as it grows, and that churn let
            # the heap, and so peak RSS, creep up over repeated solves
            element = (dens[fc] * core.d,
                       tuple([(pairs[cols[k]], dens[k] * wk) for k, wk in w]))
            if not blocks.h(*element).is_zero():
                raise ParamViolation("kernel verification failed (internal)")
            found.append((cols[fc], element))
    found.sort(key=lambda item: item[0])
    return tuple([element for _, element in found])


# ----------------------------------------------------------------------
# maps
# ----------------------------------------------------------------------

class SphericalHarmonicMap(NamedTuple):
    """Harmonic polynomial map with component sum of squares R^m, kept as
    the steps of its factorization.

    Step k is (f_k, piv_k, s): a polynomial f_k, a positive rational
    piv_k = a/b in lowest terms, and positive integers s_1 >= s_2 >= ...
    with sum s_i^2 = a b, so that piv_k = sum_i (s_i / b)^2.  The step
    gives the components f_k s_i / b, whose squares sum to piv_k f_k^2.
    components lists them step by step, built afresh on each read.
    """

    n_ambient: int
    m: int
    steps: tuple[tuple[Poly, Fraction, tuple[int, ...]], ...]

    @property
    def components(self) -> tuple[Poly, ...]:
        return tuple(f.scale(Fraction(s, piv.denominator))
                     for f, piv, squares in self.steps for s in squares)

    @property
    def sphere_dim(self) -> int:
        return self.n_ambient - 1

    @property
    def eigenvalue(self) -> int:
        return self.m * (self.m + self.sphere_dim - 1)


def _step(f: Poly, piv: Fraction) -> tuple[Poly, Fraction, tuple[int, ...]]:
    """The step (f, piv, s) of a map, with the fewest squares s of piv."""
    return f, piv, _fewest_squares(piv.numerator * piv.denominator)


def _sum_of_squares_is_Rm(the_map: SphericalHarmonicMap) -> bool:
    """Whether sum_k piv_k f_k^2 = R^m, exactly, over the map's steps.

    With f_k = N_k / d_k (integer numerators) and piv_k = a_k / b_k, this
    is sum_k (L a_k / (b_k d_k^2)) N_k^2 = L R^m for L = lcm(b_k d_k^2):
    one product of integer numerators per step, and one comparison.
    """
    steps, n_ambient = the_map.steps, the_map.n_ambient
    _require_slot_room(n_ambient, *(f.nums for f, _, _ in steps))
    scales = [piv.denominator * f.den ** 2 for f, piv, _ in steps]
    L = math.lcm(*scales)
    acc: dict[int, int] = {}
    for (f, piv, _), q in zip(steps, scales):
        items = f.nums.items()
        _add_product(acc, L // q * piv.numerator, items, items)
    return acc == {e: L * v for e, v in radius_power(n_ambient, the_map.m).nums.items()}


# a b at or above this is refused: the search for its squares takes time
# of order sqrt(a b), about 0.2 s at 2^40 and 2 s at 2^48
_SQUARES_BOUND = 2 ** 40


def _fewest_squares(n: int) -> tuple[int, ...]:
    """Positive integers s_1 >= s_2 >= ... with sum s_i^2 = n, as few as
    possible (at most four, by Lagrange), for an integer 0 < n < 2^40.

    Counts 1, 2, 3 and 4 are tried in turn, each by _squares, so the
    result depends on n alone.  ParamViolation when n >= 2^40.
    """
    if n >= _SQUARES_BOUND:
        raise ParamViolation(
            f"pivot numerator times denominator {n} is at least 2^40, the "
            "bound of the sum-of-squares search")
    for k in (1, 2, 3):
        found = _squares(n, k)
        if found is not None:
            return found
    return _squares(n, 4)


def _squares(n: int, k: int) -> Optional[tuple[int, ...]]:
    """n >= 0 as s_1^2 + ... + s_k^2 with s_1 >= ... >= s_k >= 0, the
    largest possible s_1 first (then s_2, ...); None if there is none.

    n = 4^a (8b + 7) is no sum of three squares (Legendre), so k = 3 is
    refused there without a search.
    """
    if k == 1:
        s = math.isqrt(n)
        return (s,) if s * s == n else None
    if k == 3:
        odd = n
        while odd and odd % 4 == 0:
            odd //= 4
        if odd % 8 == 7:
            return None
    s = math.isqrt(n)
    while k * s * s >= n:   # s_1 is the largest of the k
        rest = _squares(n - s * s, k - 1)
        if rest is not None:
            return (s,) + rest
        s -= 1
    return None


def construct_map(G: GramMatrix, basis: HarmonicBasis) -> SphericalHarmonicMap:
    """The map whose components' sum of squares is h(G) = R^m, exactly.

    The pivoted rational LDL^T writes G = sum_k row_k^T row_k / piv_k, so
    h(G) = sum_k f_k^2 piv_k with f_k = (row_k . h) / piv_k.  Each pivot
    piv_k = a/b in lowest terms is (s_1/b)^2 + ... with the fewest integer
    squares sum s_i^2 = a b (_fewest_squares), and step k gives the
    components f_k s_i / b, whose squares sum to f_k^2 piv_k.  The fewest
    rational squares of a positive rational do not depend on how it is
    written (Davenport-Cassels), so G fixes the number of components:
    rank(G) when every pivot is a rational square, at most 4 rank(G).
    ldlt returns no witness only when the Schur complement left after the
    last step is zero, so sum_k piv_k f_k^2 is h(G) itself, and the one
    exact check of it against R^m, one product per step
    (_sum_of_squares_is_Rm), decides h(G) = R^m.  Raises NotPSD (with an
    exact witness) for indefinite G, and ParamViolation when h(G) != R^m
    or a pivot has a b >= 2^40.
    """
    if G.dim != basis.dim:
        raise DimensionMismatch("Gram matrix does not match basis")
    ldlt_steps, witness = G.ldlt()
    if witness is not None:
        raise NotPSD("Gram matrix is not positive semidefinite", witness)
    steps = []
    for _, row, piv in ldlt_steps:
        f = Poly.zero(basis.n_ambient)
        for coef, el in zip(row, basis.elements):
            if coef:
                f = f + el.poly.scale(coef)
        steps.append(_step(f.scale(1 / piv), piv))
    the_map = SphericalHarmonicMap(basis.n_ambient, basis.m, tuple(steps))
    if not _sum_of_squares_is_Rm(the_map):
        raise ParamViolation("h(G) != R^m; not a sum-of-squares certificate")
    return the_map


def canonical_exact_map(n_ambient: int, m: int) -> SphericalHarmonicMap:
    """A fully rational constant-energy map, where one is known.

    m = 1: the identity map (components are the coordinates).  (4, 2): an
    eight-component map built from the 3-4-5 identity

        25 R^2 = [3(x0^2-x1^2+x2^2-x3^2)]^2 + [4(x0^2-x1^2-x2^2+x3^2)]^2
               + (10 x0 x1)^2 + (8 x0 x2)^2 + (6 x0 x3)^2
               + (6 x1 x2)^2 + (8 x1 x3)^2 + (10 x2 x3)^2,

    all components harmonic, so the scaled components give an exact map
    S^3 -> S^7 of constant energy density 8.  Like construct_map, it
    returns a map only once its sum of squares is R^m exactly.
    """
    _require_integers(n_ambient=n_ambient, m=m)
    if n_ambient < 1:
        raise ParamViolation(f"n_ambient must be >= 1, got {n_ambient}")
    if m == 1:
        steps = tuple(_step(Poly.variable(n_ambient, i), Fraction(1))
                      for i in range(n_ambient))
    elif (n_ambient, m) == (4, 2):
        # each component scale/5 p as a step p of pivot (scale/5)^2
        def quad(c0, c1, c2, c3, scale):
            return _step(Poly(4, {(2, 0, 0, 0): c0, (0, 2, 0, 0): c1,
                                  (0, 0, 2, 0): c2, (0, 0, 0, 2): c3}),
                         Fraction(scale, 5) ** 2)

        def cross(i, j, scale):
            e = [0, 0, 0, 0]
            e[i] += 1
            e[j] += 1
            return _step(Poly(4, {tuple(e): 1}), Fraction(scale, 5) ** 2)

        steps = (quad(1, -1, 1, -1, 3), quad(1, -1, -1, 1, 4),
                 cross(0, 1, 10), cross(0, 2, 8), cross(0, 3, 6),
                 cross(1, 2, 6), cross(1, 3, 8), cross(2, 3, 10))
    else:
        raise ParamViolation(
            f"no canonical exact map catalogued for (n_ambient, m) = ({n_ambient}, {m})")
    the_map = SphericalHarmonicMap(n_ambient, m, steps)
    if not _sum_of_squares_is_Rm(the_map):
        raise ParamViolation("canonical map verification failed")
    if not all(f.analyst_laplacian().is_zero() for f, _, _ in steps):
        raise ParamViolation("canonical map component not harmonic")
    return the_map


def psd_point_on_line(G0: GramMatrix, k, t_target: float = 0.5
                      ) -> tuple[GramMatrix, Fraction]:
    """A rational point G0 + t k that is exactly PSD, by line search, for
    k = (den, entries) held as a kernel element is (see GramMatrix.add).

    t starts at the exact rational value of t_target (finite, > 0) and is
    halved until the exact LDL^T of G0 + t k finds no indefiniteness
    witness; ParamViolation after 60 tries.  h(G0 + t k) = h(G0) holds
    for a kernel element k by linearity.
    """
    if not (isinstance(t_target, Real) and 0 < t_target < math.inf):
        raise ParamViolation(f"t_target must be finite and > 0, got {t_target!r}")
    t = Fraction(t_target)
    for _ in range(60):
        G = G0.add(k, t)
        if G.psd_certificate()[0]:
            return G, t
        t /= 2
    raise ParamViolation("no PSD point found along the kernel line")


# ----------------------------------------------------------------------
# verification operations
# ----------------------------------------------------------------------

def energy_density(m: SphericalHarmonicMap, points):
    """Energy density of the restricted map at unit vectors.

    points is one point or a sequence of points; the result is a float, or
    an array with one entry per point.  Uses the Euler identity
    x . grad F = m F for homogeneous components: the tangential energy is
    sum_a |grad F^a|^2 - m^2 (F^a)^2, and equals m(m + n - 1) for every
    valid map on the unit sphere.  The components of step k are multiples
    of f_k whose squares sum to piv_k f_k^2, so the sum is taken over the
    steps, one polynomial each: sum_k piv_k (|grad f_k|^2 - m^2 f_k^2).
    One pass over the terms v/den x^e of each f_k writes v/den at (k, e),
    and (v j)/den at (k n + i, e - e_i) for each x_i of exponent j > 0 in
    e: the same correctly rounded quotient as the reduced coefficient of
    f_k.diff(i), so no derivative polynomial is built.  Each table is
    evaluated at all points in one numpy pass.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None]
    if pts.ndim != 2 or pts.shape[1] != m.n_ambient:
        raise DimensionMismatch(
            f"points of shape {np.shape(points)} for a map on R^{m.n_ambient}")
    for p in pts.tolist():
        r2 = sum(x * x for x in p)
        if abs(r2 - 1.0) > 1e-12:
            raise NotOnSphere(f"|point|^2 = {r2}")
    n, count, shifts = m.n_ambient, len(m.steps), _shifts(m.n_ambient)
    value, grad = [], []     # terms (row, key, float coefficient)
    for a, (f, _, _) in enumerate(m.steps):
        for e, v in f.nums.items():
            value.append((a, e, v / f.den))
            grad += [(a * n + j, e - (1 << s), v * k / f.den)
                     for j, s in enumerate(shifts) if (k := (e >> s) & _SLOT_MASK)]
    values, grads = _eval_table(count, value, pts), _eval_table(count * n, grad, pts)
    grad_sq = (grads ** 2).reshape(len(pts), count, n)
    weights = np.array([float(piv) for _, piv, _ in m.steps])
    energy = ((grad_sq.sum(axis=2) - (m.m * values) ** 2) * weights).sum(axis=1)
    return float(energy[0]) if single else energy


def _eval_table(count: int, table: list[tuple[int, int, float]],
                pts: np.ndarray) -> np.ndarray:
    """Values at every point, as an array (points, count), of count
    polynomials given by their (row, key, float coefficient) terms."""
    exps = sorted({e for _, e, _ in table})
    column = {e: i for i, e in enumerate(exps)}
    rows = [[0.0] * len(exps) for _ in range(count)]
    for row, e, c in table:
        rows[row][column[e]] = c
    matrix = np.array(rows).reshape(count, len(exps))
    shifts = _shifts(pts.shape[1])
    powers = np.array([_unpack(e, shifts) for e in exps],
                      dtype=int).reshape(len(exps), pts.shape[1])
    monos = np.ones((len(pts), len(exps)))
    for i in range(pts.shape[1]):
        monos *= pts[:, i:i + 1] ** powers[:, i]
    return np.einsum("pe,ae->pa", monos, matrix)


def random_sphere_points(n_ambient: int, count: int, seed: int) -> list[list[float]]:
    """count Gaussian-drawn unit vectors in R^n_ambient (n_ambient >= 1)."""
    _require_integers(n_ambient=n_ambient, count=count)
    if n_ambient < 1:
        raise ParamViolation(f"n_ambient must be >= 1, got {n_ambient}")
    rng = random.Random(seed)
    pts = []
    while len(pts) < count:
        v = [rng.gauss(0.0, 1.0) for _ in range(n_ambient)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 1e-6:
            pts.append([x / norm for x in v])
    return pts


def nonuniqueness_report(n_ambient: int, m: int) -> dict:
    """Kernel dimension versus dim SO(n_ambient): the nonuniqueness margin.

    When the affine solution space has more directions than the rotation
    group of the domain sphere can account for, inequivalent maps with the
    same constant energy density exist.  Only the certified dimension is
    read, so no Gram matrix is built.
    """
    kernel = _kernel_certificate(n_ambient, m)
    so_dim = n_ambient * (n_ambient - 1) // 2
    margin = kernel.dimension - so_dim
    return {
        "n_ambient": n_ambient,
        "m": m,
        "kernel_dimension": kernel.dimension,
        "so_dimension": so_dim,
        "margin": margin,
        "nonuniqueness_assured": margin > 0,
    }
