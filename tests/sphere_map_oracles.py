"""Oracles for the sphere-map tests: h(G) and the Gram matrix of a map's
components from Poly products and Fischer inner products alone, apart from
the term tables the library reads h from; dense Gram matrices from rows or
from a kernel element, and the quadratic form a PSD witness is checked by."""

from fractions import Fraction
from typing import Sequence

from densitylab import sphere_maps as sm
from densitylab.errors import DimensionMismatch, ParamViolation
from densitylab.harmonic import HarmonicElement, Poly, inner


def gram_from_rows(rows: Sequence[Sequence]) -> sm.GramMatrix:
    """The GramMatrix of square, symmetric rows, as exact rationals."""
    ent = tuple(tuple(Fraction(v) for v in row) for row in rows)
    d = len(ent)
    for row in ent:
        if len(row) != d:
            raise DimensionMismatch("matrix is not square")
    for i in range(d):
        for j in range(i):
            if ent[i][j] != ent[j][i]:
                raise DimensionMismatch(f"not symmetric at ({i},{j})")
    return sm.GramMatrix(ent)


def quadratic_form(G: sm.GramMatrix, v: Sequence[Fraction]) -> Fraction:
    """v^T G v, exact."""
    return sum((v[i] * row[j] * v[j] for i, row in enumerate(G.entries)
                for j in range(G.dim) if v[i] and v[j]), Fraction(0))


def dense(D: int, element) -> sm.GramMatrix:
    """The symmetric D x D GramMatrix of a kernel element (den, entries)."""
    den, entries = element
    M = [[Fraction(0)] * D for _ in range(D)]
    for (a, b), num in entries:
        M[a][b] = M[b][a] = Fraction(num, den)
    return sm.GramMatrix(tuple(map(tuple, M)))


def h_of_G(G: sm.GramMatrix, basis: sm.HarmonicBasis) -> Poly:
    """The degree-2m polynomial sum G^{ab} h_a h_b: one Poly product per
    nonzero entry a <= b."""
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


def gram_of_components(components: Sequence[Poly], basis: sm.HarmonicBasis
                       ) -> sm.GramMatrix:
    """Exact Gram matrix T^T T of rational components in basis coordinates.

    The basis is Fischer-orthogonal, so the coordinates of f are
    t_a = <f, h_a> / n_a; sum t_a h_a = f is then checked exactly, and
    ParamViolation raised when f is not in the span.
    """
    T: list[list[Fraction]] = []
    for f in components:
        fe = HarmonicElement(f, basis.m)
        coeffs = [inner(fe, h) / n2 for h, n2 in zip(basis.elements, basis.norms)]
        span = Poly.zero(basis.n_ambient)
        for t, h in zip(coeffs, basis.elements):
            if t:
                span = span + h.poly.scale(t)
        if span != f:
            raise ParamViolation("component is not in the basis span")
        T.append(coeffs)
    D = basis.dim
    return gram_from_rows([[sum(trow[a] * trow[b] for trow in T)
                            for b in range(D)] for a in range(D)])
