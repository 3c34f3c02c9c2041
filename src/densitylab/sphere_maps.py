"""Constant-energy harmonic maps between spheres from Gram-matrix data.

A map S^n -> S^N with constant energy density lifts to homogeneous
degree-m harmonic polynomials F^0..F^N on R^(n+1) with

    (F^0)^2 + ... + (F^N)^2 = R^m       (R = |x|^2),

and its energy density is the eigenvalue m(m+n-1).  Fixing an orthogonal
basis {h_a} of the degree-m harmonic polynomials, quadratic expressions
h(M) = sum M^{ab} h_a h_b with symmetric M realize all candidate sums of
squares, so the solution set is the affine space h^{-1}(R^m).  Its exact
kernel (computed by rational elimination) measures the failure of
uniqueness: once the kernel dimension exceeds dim SO(n+1), inequivalent
maps with identical energy density are guaranteed.

Gram matrices here live in the plain coordinates of the orthogonal basis
(norms recorded exactly); the scaled-identity solution of the orthonormal
picture corresponds to the rational diagonal matrix diag(1/(c n_a)), where
sum h_a^2 / n_a = c R^m is the exact reproducing identity of the basis.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    NotOnSphere,
    NotPSD,
    ParamViolation,
)
from .harmonic import (
    HarmonicElement,
    Poly,
    dim_harmonics,
    harmonic_decompose,
    inner,
    monomial_exponents,
)

FLOAT_COEFF_TOL = 1e-10


# ----------------------------------------------------------------------
# exact linear algebra helpers
# ----------------------------------------------------------------------

def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Fractions; returns (rows, pivot cols)."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b if b else a for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Exact kernel basis of the matrix (rows of length ncols).

    One vector per free column f, in order of f: 1 at f, 0 at the other
    free columns.  Its other entries sit at pivot columns left of f, so its
    last nonzero entry is at f.
    """
    if not rows:
        return [[Fraction(i == j) for i in range(ncols)] for j in range(ncols)]
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


# ----------------------------------------------------------------------
# Gram matrices
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GramMatrix:
    """Symmetric matrix of exact rationals in basis coordinates."""

    entries: tuple[tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.entries)

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "GramMatrix":
        ent = tuple(tuple(Fraction(v) for v in row) for row in rows)
        d = len(ent)
        for row in ent:
            if len(row) != d:
                raise DimensionMismatch("matrix is not square")
        for i in range(d):
            for j in range(i):
                if ent[i][j] != ent[j][i]:
                    raise DimensionMismatch(f"not symmetric at ({i},{j})")
        return GramMatrix(ent)

    @staticmethod
    def diagonal(values: Sequence) -> "GramMatrix":
        d = len(values)
        return GramMatrix(tuple(
            tuple(Fraction(values[i]) if i == j else Fraction(0)
                  for j in range(d)) for i in range(d)))

    def add(self, other: "GramMatrix", scale=1) -> "GramMatrix":
        s = Fraction(scale)
        return GramMatrix(tuple(
            tuple(a + s * b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)))

    def quadratic_form(self, v: Sequence[Fraction]) -> Fraction:
        total = Fraction(0)
        for i, row in enumerate(self.entries):
            if v[i]:
                total += v[i] * sum(row[j] * v[j] for j in range(self.dim) if v[j])
        return total

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
                fi = M[i][k] / piv
                if fi:
                    for j in active:
                        M[i][j] -= fi * row[j]
            for i in active:
                M[i][k] = M[k][i] = Fraction(0)
        return steps, None

    def psd_certificate(self) -> tuple[bool, Optional[list[Fraction]]]:
        """(True, None), or (False, witness) with v^T G v < 0; see ldlt."""
        _, witness = self.ldlt()
        return witness is None, witness

    def rank(self) -> int:
        red, pivots = rref([list(r) for r in self.entries])
        return len(pivots)

    def to_float(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.entries])


@dataclass(frozen=True)
class KernelCertificate:
    """Exact basis of symmetric matrices with h(G) = 0."""

    basis: tuple[GramMatrix, ...]
    dimension: int


# ----------------------------------------------------------------------
# harmonic bases
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HarmonicBasis:
    """Orthogonal basis of degree-m harmonics with exact norm data.

    invariant_c is the exact rational with sum_a h_a^2 / n_a = c R^m,
    the reproducing identity that replaces the orthonormal basis of the
    ideal construction (orthonormalization would force irrational
    square roots; conjugating by the diagonal norm matrix keeps every
    computation rational).
    """

    n_ambient: int
    m: int
    elements: tuple[HarmonicElement, ...]
    norms: tuple[Fraction, ...]
    invariant_c: Fraction

    @property
    def dim(self) -> int:
        return len(self.elements)


def radius_power(n_ambient: int, m: int) -> Poly:
    """R^m with R = |x|^2 on R^n_ambient, as an exact polynomial."""
    R = Poly.radius_squared(n_ambient)
    out = Poly.one(n_ambient)
    for _ in range(m):
        out = out * R
    return out


def _primitive(p: Poly) -> Poly:
    """Scale to coprime integer coefficients with positive leading term."""
    if p.is_zero():
        return p
    dens = 1
    for c in p.terms.values():
        dens = dens * c.denominator // math.gcd(dens, c.denominator)
    nums = 0
    for c in p.terms.values():
        nums = math.gcd(nums, abs(c.numerator * (dens // c.denominator)))
    out = p.scale(Fraction(dens, nums))
    lead = out.sorted_terms()[0][1]
    if lead < 0:
        out = out.scale(-1)
    return out


def basis_Hm(n_ambient: int, m: int) -> HarmonicBasis:
    """Deterministic orthogonal basis of degree-m harmonics on R^n_ambient.

    Monomials in graded-lex order are projected to their harmonic parts,
    reduced to an independent spanning set by exact elimination, then
    Gram-Schmidt orthogonalized (without normalization) and rescaled to
    primitive integer coefficients.  Norms squared are recorded exactly.
    """
    if n_ambient < 3:
        raise ParamViolation("ambient dimension must be >= 3")
    if m < 0:
        raise ParamViolation("degree must be nonnegative")
    monos = monomial_exponents(n_ambient, m)
    index = {e: i for i, e in enumerate(monos)}
    target = dim_harmonics(n_ambient, m)

    # harmonic parts of monomials, kept if independent of predecessors
    chosen: list[Poly] = []
    reduced_rows: list[list[Fraction]] = []
    for e in monos:
        h, _ = harmonic_decompose(Poly(n_ambient, {e: 1}), m)
        if h.poly.is_zero():
            continue
        row = [Fraction(0)] * len(monos)
        for exp, c in h.poly.terms.items():
            row[index[exp]] = c
        red, pivots = rref(reduced_rows + [row])
        if len(pivots) > len(reduced_rows):
            reduced_rows = red
            chosen.append(h.poly)
        if len(chosen) == target:
            break
    if len(chosen) != target:
        raise ParamViolation("failed to build a full harmonic basis")

    # exact Gram-Schmidt without normalization
    ortho: list[HarmonicElement] = []
    norms: list[Fraction] = []
    for p in chosen:
        cur = p
        for g, n2 in zip(ortho, norms):
            coef = inner(HarmonicElement(cur, m), g) / n2
            if coef:
                cur = cur - g.poly.scale(coef)
        cur = _primitive(cur)
        el = HarmonicElement(cur, m)
        ortho.append(el)
        norms.append(inner(el, el))

    # reproducing identity sum h_a^2/n_a = c R^m, verified exactly
    acc = Poly.zero(n_ambient)
    for el, n2 in zip(ortho, norms):
        acc = acc + (el.poly * el.poly).scale(Fraction(1, 1) / n2)
    rm = radius_power(n_ambient, m)
    lead_exp = next(iter(rm.terms))
    c = acc.terms.get(lead_exp, Fraction(0)) / rm.terms[lead_exp]
    if acc != rm.scale(c):
        raise ParamViolation("basis reproducing identity failed (internal)")
    return HarmonicBasis(n_ambient, m, tuple(ortho), tuple(norms), c)


# ----------------------------------------------------------------------
# the quadratic-form map and its affine solution space
# ----------------------------------------------------------------------

def h_of_G(G: GramMatrix, basis: HarmonicBasis) -> Poly:
    """The degree-2m polynomial sum G^{ab} h_a h_b (linear in G, exact)."""
    if G.dim != basis.dim:
        raise DimensionMismatch(f"G is {G.dim}x{G.dim}, basis has {basis.dim}")
    out = Poly.zero(basis.n_ambient)
    for a in range(G.dim):
        pa = basis.elements[a].poly
        for b in range(a, G.dim):
            coef = G.entries[a][b]
            if coef:
                out = out + (pa * basis.elements[b].poly).scale(
                    coef if a == b else 2 * coef)
    return out


def scaled_identity_gram(basis: HarmonicBasis) -> GramMatrix:
    """The rational diagonal point diag(1/(c n_a)) with h(G0) = R^m exactly.

    This is the plain-coordinate expression of the orthonormal picture's
    scaled identity c^{-1} I.
    """
    return GramMatrix.diagonal(
        [1 / (basis.invariant_c * n2) for n2 in basis.norms])


def _sym_pairs(D: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(D) for b in range(a, D)]


def _parity(e: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(k & 1 for k in e)


def _element_parity(p: Poly) -> tuple[int, ...]:
    """The one parity pattern in Z_2^n shared by every monomial of p."""
    parities = {_parity(e) for e in p.terms}
    if len(parities) != 1:
        raise ParamViolation(
            f"basis element has {len(parities)} parity patterns (internal)")
    return parities.pop()


def solve_h_equals_Rm(n_ambient: int, m: int,
                      basis: Optional[HarmonicBasis] = None
                      ) -> tuple[GramMatrix, KernelCertificate]:
    """Particular PSD solution of h(G) = R^m plus the exact kernel of h.

    The kernel is computed by exact rational elimination on the matrix of
    h over the symmetric-pair basis; its dimension is D(D+1)/2 - rank(h).
    Every returned kernel element satisfies h(k) = 0 exactly.

    The matrix is block-diagonal by parity.  Each basis element has one
    parity pattern in Z_2^n (the Fischer pairing of different parities is
    0, so Gram-Schmidt never mixes them), so every monomial of h_a h_b has
    the parity par(h_a) XOR par(h_b): the column E_ab meets only the rows
    of that parity.  Each block is eliminated on its own.  A column is free
    exactly when it is free in its block, and the block's kernel vector
    for a free column is the whole matrix's, so the basis below is the one
    read off the rref of the whole matrix, in the same order.
    """
    if n_ambient < 4:
        raise ParamViolation("need ambient dimension >= 4 (sphere dim > 2)")
    if basis is None:
        basis = basis_Hm(n_ambient, m)
    D = basis.dim
    pairs = _sym_pairs(D)
    parity = [_element_parity(el.poly) for el in basis.elements]
    # columns: E_{ab}, grouped by parity in column order
    block_cols: dict[tuple[int, ...], list[int]] = {}
    for j, (a, b) in enumerate(pairs):
        key = tuple(x ^ y for x, y in zip(parity[a], parity[b]))
        block_cols.setdefault(key, []).append(j)
    # rows: coefficients of the degree-2m monomials, grouped by parity
    block_rows: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for e in monomial_exponents(n_ambient, 2 * m):
        rows_of = block_rows.setdefault(_parity(e), {})
        rows_of[e] = len(rows_of)

    found: list[tuple[int, list[Fraction]]] = []  # (free column, vector)
    for key, cols in block_cols.items():
        row_index = block_rows[key]
        rows = [[Fraction(0)] * len(cols) for _ in row_index]
        for k, j in enumerate(cols):
            a, b = pairs[j]
            prod = basis.elements[a].poly * basis.elements[b].poly
            if a != b:
                prod = prod.scale(2)
            for e, c in prod.terms.items():
                rows[row_index[e]][k] = c
        for block_vec in nullspace(rows, len(cols)):
            vec = [Fraction(0)] * len(pairs)
            for j, v in zip(cols, block_vec):
                vec[j] = v
            fc = max(k for k, v in enumerate(block_vec) if v)
            found.append((cols[fc], vec))
    found.sort(key=lambda item: item[0])
    kernel_vecs = [vec for _, vec in found]

    def vec_to_gram(vec: list[Fraction]) -> GramMatrix:
        M = [[Fraction(0)] * D for _ in range(D)]
        for (a, b), v in zip(pairs, vec):
            M[a][b] = M[b][a] = v
        # symmetric Fractions by construction: no from_rows re-conversion
        return GramMatrix(tuple(map(tuple, M)))

    kernel = []
    for vec in kernel_vecs:
        g = vec_to_gram(vec)
        if not h_of_G(g, basis).is_zero():
            raise ParamViolation("kernel verification failed (internal)")
        kernel.append(g)
    G0 = scaled_identity_gram(basis)
    return G0, KernelCertificate(tuple(kernel), len(kernel))


# ----------------------------------------------------------------------
# maps
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SphericalHarmonicMap:
    """Harmonic polynomial map with component sum of squares R^m."""

    n_ambient: int
    m: int
    components: tuple      # Poly (exact) or {exponents: float} dicts
    exact: bool

    @property
    def sphere_dim(self) -> int:
        return self.n_ambient - 1

    @property
    def eigenvalue(self) -> int:
        return self.m * (self.m + self.sphere_dim - 1)

    def component_eval(self, i: int, point) -> float:
        comp = self.components[i]
        if isinstance(comp, Poly):
            return comp.eval(point)
        return sum(c * math.prod(x ** k for x, k in zip(point, e))
                   for e, c in comp.items())

    def component_grad(self, i: int, point) -> list[float]:
        comp = self.components[i]
        if isinstance(comp, Poly):
            return comp.grad_eval(point)
        grad = [0.0] * self.n_ambient
        for e, c in comp.items():
            for j, k in enumerate(e):
                if k:
                    v = c * k
                    for jj, kk in enumerate(e):
                        pw = kk - 1 if jj == j else kk
                        v *= point[jj] ** pw
                    grad[j] += v
        return grad


def _sum_sq_minus_Rm_exact(components: Sequence[Poly], n_ambient: int,
                           m: int) -> Poly:
    acc = Poly.zero(n_ambient)
    for f in components:
        acc = acc + f * f
    return acc - radius_power(n_ambient, m)


def construct_map(G: GramMatrix, basis: HarmonicBasis) -> SphericalHarmonicMap:
    """Factor G = S^T S and return the map with components S . h.

    Tries the exact route first: pivoted rational LDL^T; when every pivot
    is the square of a rational, S is rational and the sum of squares is
    R^m as an exact polynomial identity.  Otherwise falls back to a
    floating spectral square root, verified to coefficient tolerance
    1e-10, with the exact flag cleared.  The number of components equals
    rank(G).  Raises NotPSD (with an exact witness) for indefinite G.
    """
    if G.dim != basis.dim:
        raise DimensionMismatch("Gram matrix does not match basis")
    steps, witness = G.ldlt()
    if witness is not None:
        raise NotPSD("Gram matrix is not positive semidefinite", witness)
    if not (h_of_G(G, basis) == radius_power(basis.n_ambient, basis.m)):
        raise ParamViolation("h(G) != R^m; not a sum-of-squares certificate")

    exact_rows = _exact_sqrt_factor(steps)
    if exact_rows is not None:
        comps = []
        for row in exact_rows:
            p = Poly.zero(basis.n_ambient)
            for coef, el in zip(row, basis.elements):
                if coef:
                    p = p + el.poly.scale(coef)
            if not p.is_zero():
                comps.append(p)
        resid = _sum_sq_minus_Rm_exact(comps, basis.n_ambient, basis.m)
        if not resid.is_zero():
            raise ParamViolation("exact factorization verification failed")
        return SphericalHarmonicMap(basis.n_ambient, basis.m, tuple(comps), True)

    # floating spectral factorization
    Gf = G.to_float()
    w, V = np.linalg.eigh(Gf)
    rank = len(steps)  # the PSD elimination stops at the rank
    order = np.argsort(w)[::-1]
    comps_f = []
    for idx in order[:rank]:
        lam = max(float(w[idx]), 0.0)
        coefrow = [math.sqrt(lam) * float(v) for v in V[:, idx]]
        cd: dict = {}
        for coef, el in zip(coefrow, basis.elements):
            if coef:
                for e, c in el.poly.terms.items():
                    cd[e] = cd.get(e, 0.0) + coef * float(c)
        comps_f.append({e: c for e, c in cd.items() if abs(c) > 1e-15})
    worst = _sum_sq_residual_float(comps_f, basis.n_ambient, basis.m)
    if worst > FLOAT_COEFF_TOL:
        raise ParamViolation(
            f"floating factorization residual {worst:.3g} exceeds tolerance")
    return SphericalHarmonicMap(basis.n_ambient, basis.m, tuple(comps_f), False)


def _exact_sqrt_factor(steps: list[tuple[int, list[Fraction], Fraction]]
                       ) -> Optional[list[list[Fraction]]]:
    """Rows row_k / sqrt(piv_k) of a rational S with G = S^T S, from the
    steps of a PSD :meth:`GramMatrix.ldlt`; None if a pivot is not a square."""
    rows: list[list[Fraction]] = []
    for _, row, piv in steps:
        root = _fraction_sqrt(piv)
        if root is None:
            return None
        rows.append([v / root for v in row])
    return rows


def _fraction_sqrt(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _sum_sq_residual_float(comps: list[dict], n_ambient: int, m: int) -> float:
    acc: dict = {}
    for comp in comps:
        for e1, c1 in comp.items():
            for e2, c2 in comp.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, 0.0) + c1 * c2
    for e, c in radius_power(n_ambient, m).terms.items():
        acc[e] = acc.get(e, 0.0) - float(c)
    return max((abs(v) for v in acc.values()), default=0.0)


def gram_of_components(components: Sequence[Poly], basis: HarmonicBasis
                       ) -> GramMatrix:
    """Exact Gram matrix T^T T of rational components in basis coordinates."""
    monos = monomial_exponents(basis.n_ambient, basis.m)
    index = {e: i for i, e in enumerate(monos)}
    brows = []
    for el in basis.elements:
        row = [Fraction(0)] * len(monos)
        for e, c in el.poly.terms.items():
            row[index[e]] = c
        brows.append(row)
    T: list[list[Fraction]] = []
    for f in components:
        target = [Fraction(0)] * len(monos)
        for e, c in f.terms.items():
            target[index[e]] = c
        # solve sum_a t_a h_a = f by elimination on the transpose system
        mat = [[brows[a][i] for a in range(basis.dim)] + [target[i]]
               for i in range(len(monos))]
        red, pivots = rref(mat)
        coeffs = [Fraction(0)] * basis.dim
        for r, pc in enumerate(pivots):
            if pc == basis.dim:
                raise ParamViolation("component is not in the basis span")
            coeffs[pc] = red[r][basis.dim]
        T.append(coeffs)
    D = basis.dim
    M = [[sum(trow[a] * trow[b] for trow in T) for b in range(D)]
         for a in range(D)]
    return GramMatrix.from_rows(M)


def canonical_exact_map(n_ambient: int, m: int) -> SphericalHarmonicMap:
    """A fully rational constant-energy map, where one is known.

    m = 1: the identity map (components are the coordinates).  (4, 2): an
    eight-component map built from the 3-4-5 identity

        25 R^2 = [3(x0^2-x1^2+x2^2-x3^2)]^2 + [4(x0^2-x1^2-x2^2+x3^2)]^2
               + (10 x0 x1)^2 + (8 x0 x2)^2 + (6 x0 x3)^2
               + (6 x1 x2)^2 + (8 x1 x3)^2 + (10 x2 x3)^2,

    all components harmonic, so the scaled components give an exact map
    S^3 -> S^7 of constant energy density 8.
    """
    if m == 1:
        comps = tuple(Poly.variable(n_ambient, i) for i in range(n_ambient))
        return SphericalHarmonicMap(n_ambient, 1, comps, True)
    if (n_ambient, m) == (4, 2):
        def quad(c0, c1, c2, c3, scale):
            return Poly(4, {(2, 0, 0, 0): c0, (0, 2, 0, 0): c1,
                            (0, 0, 2, 0): c2, (0, 0, 0, 2): c3}
                        ).scale(Fraction(scale, 5))

        def cross(i, j, scale):
            e = [0, 0, 0, 0]
            e[i] += 1
            e[j] += 1
            return Poly(4, {tuple(e): 1}).scale(Fraction(scale, 5))

        comps = (quad(1, -1, 1, -1, 3), quad(1, -1, -1, 1, 4),
                 cross(0, 1, 10), cross(0, 2, 8), cross(0, 3, 6),
                 cross(1, 2, 6), cross(1, 3, 8), cross(2, 3, 10))
        resid = _sum_sq_minus_Rm_exact(comps, 4, 2)
        if not resid.is_zero():
            raise ParamViolation("canonical map verification failed")
        for f in comps:
            if not f.analyst_laplacian().is_zero():
                raise ParamViolation("canonical map component not harmonic")
        return SphericalHarmonicMap(4, 2, comps, True)
    raise ParamViolation(
        f"no canonical exact map catalogued for (n_ambient, m) = ({n_ambient}, {m})")


def psd_point_on_line(G0: GramMatrix, k: GramMatrix, basis: HarmonicBasis,
                      t_target: float = 0.5) -> tuple[GramMatrix, Fraction]:
    """A rational point G0 + t k that is exactly PSD, by line search.

    Bisects on the floating minimum eigenvalue to find a safe parameter,
    then certifies the rational choice exactly; h(G0 + t k) = R^m holds
    automatically by linearity.
    """
    Gf0 = G0.to_float()
    kf = k.to_float()

    def min_eig(t: float) -> float:
        return float(np.linalg.eigvalsh(Gf0 + t * kf).min())

    t = t_target
    for _ in range(60):
        if min_eig(t) > 1e-9:
            break
        t *= 0.5
    else:
        raise ParamViolation("no PSD point found along the kernel line")
    tq = Fraction(t).limit_denominator(10**6)
    G = G0.add(k, tq)
    ok, _ = G.psd_certificate()
    while not ok:
        tq = tq / 2
        G = G0.add(k, tq)
        ok, _ = G.psd_certificate()
    return G, tq


# ----------------------------------------------------------------------
# verification operations
# ----------------------------------------------------------------------

def energy_density(m: SphericalHarmonicMap, point) -> float:
    """Energy density of the restricted map at a unit vector.

    Uses the Euler identity x . grad F = m F for homogeneous components:
    the tangential energy is sum_a |grad F^a|^2 - m^2 (F^a)^2, and equals
    m(m + n - 1) for every valid map on the unit sphere.
    """
    r2 = sum(x * x for x in point)
    if abs(r2 - 1.0) > 1e-12:
        raise NotOnSphere(f"|point|^2 = {r2}")
    total = 0.0
    for i in range(len(m.components)):
        grad = m.component_grad(i, point)
        val = m.component_eval(i, point)
        total += sum(g * g for g in grad) - (m.m * val) ** 2
    return total


def random_sphere_points(n_ambient: int, count: int, seed: int) -> list[list[float]]:
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
    same constant energy density exist.
    """
    _, kernel = solve_h_equals_Rm(n_ambient, m)
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
