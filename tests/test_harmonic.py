"""Exact harmonic polynomial calculus: no tolerances anywhere in this file."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from densitylab import harmonic as ha, poly
from densitylab.errors import (
    DegreeMismatch,
    DegreeViolation,
    DensityLabError,
    IdentityFailure,
    ParamViolation,
)
from densitylab.harmonic import HarmonicElement, Poly


def x(i, n=3):
    return HarmonicElement(Poly.variable(n, i), 1)


def random_harmonic(nvars, degree, rng, span=4):
    """The harmonic part of a random small-integer homogeneous polynomial,
    drawn as the identity suite draws its f and g."""
    den, h = ha._random_harmonic(nvars, degree, rng, span)
    return HarmonicElement(poly._from_components(nvars, den, {degree: h}), degree)


def random_linear(nvars, rng, span=4):
    """A random small-integer linear form, drawn as the identity suite draws
    its a and b."""
    coefficients = ha._random_linear(nvars, rng, span)
    return HarmonicElement(poly._from_components(nvars, 1, {1: coefficients}), 1)


# ----------------------------------------------------------------------
# Laplacian and harmonic projection
# ----------------------------------------------------------------------

def harmonic_part(p, d=None):
    """H[p] by the closed form, for p homogeneous of degree d."""
    d = p.homogeneous_degree() if d is None else d
    n = p.nvars
    v = ha._components(p.nums, n).get(d, [0] * len(ha._packed_monomials(n, d)))
    C, h = ha._harmonic_part(v, n, d)
    return ha._from_components(n, C * p.den, {d: h})


def quotient_by_R(p):
    """q with p = R q, or None when R does not divide p: long division on
    the lex-leading term x0^2 of R, exact since {R} is a Groebner basis."""
    rest, q = dict(p.terms), {}
    while any(e[0] >= 2 for e in rest):
        e = max(e for e in rest if e[0] >= 2)
        c = rest.pop(e)
        f = (e[0] - 2, *e[1:])
        q[f] = c
        for i in range(1, p.nvars):   # subtract c x^f (R - x0^2)
            g = f[:i] + (f[i] + 2,) + f[i + 1:]
            rest[g] = rest.get(g, 0) - c
            if not rest[g]:
                del rest[g]
    return None if rest else Poly(p.nvars, q)


def test_laplacian_examples():
    n = 3
    assert Poly(n, {(2, 0, 0): 1}).analyst_laplacian() == Poly(n, {(0, 0, 0): 2})
    assert Poly.radius_squared(n).analyst_laplacian() == Poly(n, {(0, 0, 0): 2 * n})
    assert Poly(n, {(2, 0, 0): 2, (0, 2, 0): -1, (0, 0, 2): -1}) \
        .analyst_laplacian().is_zero()


def test_decompose_examples():
    n = 3
    R = Poly.radius_squared(n)
    assert harmonic_part(R).is_zero() and quotient_by_R(R) == Poly.one(n)
    p = Poly(n, {(2, 0, 0): 1})
    h = harmonic_part(p)
    assert h == Poly(n, {(2, 0, 0): Fraction(2, 3), (0, 2, 0): Fraction(-1, 3),
                         (0, 0, 2): Fraction(-1, 3)})
    assert quotient_by_R(p - h) == Poly(n, {(0, 0, 0): Fraction(1, 3)})
    assert quotient_by_R(p) is None


def test_decompose_idempotent_on_harmonics():
    rng = random.Random(11)
    for n in (3, 4, 5):
        f = random_harmonic(n, 3, rng)
        assert harmonic_part(f.poly, 3) == f.poly


def test_decompose_reconstructs_exactly():
    rng = random.Random(13)
    for n in (3, 4):
        for d in (2, 3, 4, 5, 6):
            terms = {e: rng.randint(-9, 9) for e in poly.monomial_exponents(n, d)}
            p = Poly(n, terms)
            if p.is_zero():
                continue
            h = harmonic_part(p)
            assert h + Poly.radius_squared(n) * quotient_by_R(p - h) == p
            assert h.analyst_laplacian().is_zero()


def test_every_shell_is_harmonic_and_the_shells_rebuild_p():
    # p = sum_k R^k p_k with p_k harmonic of degree d - 2k is unique; the
    # shells are peeled by H and exact division by R, so the closed form
    # is checked at every degree d, d - 2, ... of each p
    rng = random.Random(18)
    for n in range(3, 7):
        R = Poly.radius_squared(n)
        for d in range(9):
            p = Poly(n, {e: rng.randint(-9, 9) for e in poly.monomial_exponents(n, d)})
            if p.is_zero():
                continue
            shells, rest = [], p
            for k in range(d // 2 + 1):
                shell = harmonic_part(rest, d - 2 * k)
                assert shell.is_zero() or shell.homogeneous_degree() == d - 2 * k
                assert shell.analyst_laplacian().is_zero()
                assert harmonic_part(shell, d - 2 * k) == shell
                shells.append(shell)
                rest = quotient_by_R(rest - shell)
            assert rest.is_zero()
            rebuilt = Poly.zero(n)
            for shell in reversed(shells):
                rebuilt = shell + R * rebuilt
            assert rebuilt == p


@given(st.lists(st.integers(-9, 9), min_size=15, max_size=15))
@settings(max_examples=60, deadline=None)
def test_decompose_property(coeffs):
    # p = H[p] + R r with Delta H[p] = 0, exactly, for arbitrary integer quartics
    exps = poly.monomial_exponents(3, 4)
    p = Poly(3, dict(zip(exps, coeffs)))
    if p.is_zero():
        return
    h = harmonic_part(p)
    assert h + Poly.radius_squared(3) * quotient_by_R(p - h) == p
    assert h.analyst_laplacian().is_zero()
    # projecting the harmonic part again is the identity
    assert harmonic_part(h, 4) == h


# ----------------------------------------------------------------------
# pairings
# ----------------------------------------------------------------------

def test_vee_dot_coordinate_example():
    v = ha.vee(x(0), x(0))
    assert v.poly == Poly(3, {(2, 0, 0): 2, (0, 2, 0): -1, (0, 0, 2): -1})
    assert ha.dot(x(0), x(0)).poly == Poly.one(3)
    f = HarmonicElement(Poly(3, {(1, 1, 0): 1}), 2)
    assert ha.dot(f, x(0)).poly == Poly.variable(3, 1)
    # n + 2d - 2 = 0 on constants in two variables: f vee xi = 0
    one = HarmonicElement(Poly.one(2), 0)
    assert ha.vee(one, HarmonicElement(Poly.variable(2, 0), 1)).poly.is_zero()


def test_normalization_identity_random():
    rng = random.Random(5)
    for n in (3, 4, 5):
        for d in (1, 2, 3, 4):
            f = random_harmonic(n, d, rng)
            xi = random_linear(n, rng)
            lhs = (xi.poly * f.poly).scale(n + 2 * d - 2)
            rhs = ha.vee(f, xi).poly \
                + Poly.radius_squared(n) * f.poly.directional(xi.poly)
            assert lhs == rhs
            assert ha.vee(f, xi).poly.analyst_laplacian().is_zero()


def test_so_action_examples():
    assert ha.so_action(x(0), x(0), x(1)).poly.is_zero()  # antisymmetry
    res = ha.so_action(x(0), x(1), x(0))
    assert res.poly == Poly.variable(3, 1).scale(-1)


def test_so_action_preserves_harmonicity():
    rng = random.Random(6)
    for _ in range(10):
        f = random_harmonic(4, 3, rng)
        a, b = random_linear(4, rng), random_linear(4, rng)
        out = ha.so_action(a, b, f)
        assert out.poly.analyst_laplacian().is_zero()
        assert out.poly.is_zero() or out.poly.homogeneous_degree() == 3


def test_inner_product_examples():
    assert ha.inner(x(0), x(0)) == 1
    assert ha.inner(x(0), x(1)) == 0
    v = ha.vee(x(0), x(0))
    assert ha.inner(v, v) == 12


def test_inner_against_sympy_oracle():
    # independent evaluation of (-Delta)^2 ((x1 vee x1)^2) / (2^2 2!)
    a, b, c = sp.symbols("a b c")
    q = 2 * a ** 2 - b ** 2 - c ** 2
    lap = lambda f: sp.diff(f, a, 2) + sp.diff(f, b, 2) + sp.diff(f, c, 2)
    val = sp.Rational(1, 8) * lap(lap(q * q))
    assert val == 12
    assert ha.inner(ha.vee(x(0), x(0)), ha.vee(x(0), x(0))) == 12


def laplacian_inner(f, g):
    """The Laplacian form (-Delta)^d (f g) / (2^d d!): the oracle for inner."""
    d = f.degree
    prod = f.poly * g.poly
    for _ in range(d):
        prod = prod.analyst_laplacian()
    return prod.constant_value() / (Fraction(2) ** d * math.factorial(d))


def test_inner_equals_laplacian_form_on_random_harmonics():
    rng = random.Random(21)
    for n in (3, 4, 5):
        for d in range(5):
            for _ in range(3):
                f = random_harmonic(n, d, rng)
                g = random_harmonic(n, d, rng)
                assert ha.inner(f, g) == laplacian_inner(f, g)
                assert ha.inner(f, f) == laplacian_inner(f, f) > 0
            # a rational multiple, so that denominators take part
            h = HarmonicElement(g.poly.scale(Fraction(-3, 7)), d)
            assert ha.inner(f, h) == laplacian_inner(f, h)


def naive_mul(p, q):
    """Term-pair product over Fractions; a cancelled key re-enters at the end."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def naive_directional(p, xi):
    """sum_i xi_i d_i p, one scaled partial at a time, in xi's term order."""
    out = {}
    for ex, cx in xi.terms.items():
        i = next(j for j, k in enumerate(ex) if k)
        for e, c in p.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                e2 = tuple(e2)
                s = out.get(e2, Fraction(0)) + c * e[i] * cx
                if s:
                    out[e2] = s
                else:
                    out.pop(e2, None)
    return out


def random_rational_poly(n, d, rng, density=0.6):
    terms = {}
    for e in poly.monomial_exponents(n, d):
        if rng.random() < density:
            terms[e] = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3, 6)))
    return Poly(n, terms)


def test_mul_and_directional_match_naive_fraction_reference():
    rng = random.Random(22)
    for n in (3, 4, 5):
        for d1 in range(4):
            for d2 in range(4):
                p = random_rational_poly(n, d1, rng)
                q = random_rational_poly(n, d2, rng)
                # same terms, same values, same insertion order
                assert list((p * q).terms.items()) == list(naive_mul(p, q).items())
            xi = random_rational_poly(n, 1, rng, density=0.8)
            assert list(p.directional(xi).terms.items()) == \
                list(naive_directional(p, xi).items())
    for p in (Poly.zero(3), Poly.one(3)):
        assert (p * Poly.variable(3, 1)).terms == naive_mul(p, Poly.variable(3, 1))


def test_mul_cancelled_term_reenters_at_the_end():
    # (x0 + x1 + x2)(x1 x2 - x0 x2 + x0 x1): x0 x1 x2 gets +1, then -1 (the
    # key is dropped), then +1 again, so it comes last in insertion order
    p = Poly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    q = Poly(3, {(0, 1, 1): 1, (1, 0, 1): -1, (1, 1, 0): 1})
    assert list((p * q).terms) == [(2, 0, 1), (2, 1, 0), (0, 2, 1), (1, 2, 0),
                                   (0, 1, 2), (1, 0, 2), (1, 1, 1)]
    assert (p * q).terms[(1, 1, 1)] == 1


# ----------------------------------------------------------------------
# the dense kernels against the sparse dict loops they replaced
# ----------------------------------------------------------------------

def dict_directional(nums, xi):
    """nums . xi over key -> int dicts, a term of xi at a time."""
    out = {}
    for ex, b in xi.items():
        s = (ex.bit_length() - 1) // poly.SLOT_BITS * poly.SLOT_BITS
        for e, a in nums.items():
            j = e >> s & poly._SLOT_MASK
            if j:
                out[e - (1 << s)] = out.get(e - (1 << s), 0) + a * j * b
    return {e: v for e, v in out.items() if v}


def dict_laplacian(nums, n):
    """sum_i d_i d_i over a key -> int dict, a variable at a time."""
    out = {}
    for s in poly._shifts(n):
        for e, v in nums.items():
            k = (e >> s) & poly._SLOT_MASK
            if k > 1:
                out[e - (2 << s)] = out.get(e - (2 << s), 0) + v * k * (k - 1)
    return {e: v for e, v in out.items() if v}


def dict_product(nums1, nums2):
    out = {}
    for e1, a in nums1.items():
        for e2, b in nums2.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + a * b
    return {e: v for e, v in out.items() if v}


def dict_fischer(nums1, nums2):
    return sum(poly._fischer_weight(e) * a * nums2[e] for e, a in nums1.items() if e in nums2)


def per_degree(nums, n, kernel, shift):
    """kernel(list, n, degree) on each homogeneous component of a key -> int
    dict, the results (of degree + shift) read back as one dict."""
    lists = {k + shift: kernel(v, n, k) for k, v in ha._components(nums, n).items()}
    return {e: c for k, v in lists.items() for e, c in zip(ha._packed_monomials(n, k), v) if c}


BIG = st.integers(-10 ** 30, 10 ** 30)


@st.composite
def integer_polys(draw, n, max_degree=8):
    """A key -> int dict with terms of one to three degrees in 0..max_degree."""
    nums = {}
    for k in draw(st.lists(st.integers(0, max_degree), min_size=1, max_size=3, unique=True)):
        monos = ha._packed_monomials(n, k)
        for j in draw(st.lists(st.integers(0, len(monos) - 1), max_size=12)):
            nums[monos[j]] = draw(BIG)
    return {e: v for e, v in nums.items() if v}


def times_linear(v, nvars, degree, xi):
    """xi v for a degree list v and the coefficients xi of a linear form:
    one raising gather-sum over the list's scaled copies."""
    return poly._gather_sum(nvars, ((degree, 1),))(poly._copies(v, xi))


def unfused_vee(v, n, k, xi, vdx):
    """(n + 2k - 2) xi v - R vdx, a product and a scaling at a time."""
    return [(n + 2 * k - 2) * s - r for s, r in
            zip(times_linear(v, n, k, xi), poly._times_R(vdx, n, k - 1))]


def unfused_rotation(n, k, a, b, fda, fdb):
    """a fdb - b fda, two products and a difference."""
    return [s - r for s, r in zip(times_linear(fdb, n, k - 1, a),
                                  times_linear(fda, n, k - 1, b))]


@given(st.data(), st.integers(3, 8))
@settings(max_examples=120, deadline=None)
def test_dense_kernels_match_the_dict_loops(data, n):
    max_degree = 8 if n <= 6 else 5
    p, q = data.draw(integer_polys(n, max_degree)), data.draw(integer_polys(n, max_degree))
    xi, eta = (data.draw(st.lists(BIG, min_size=n, max_size=n)) for _ in range(2))
    xi_dict = {poly._unit(n, i, 1): b for i, b in enumerate(xi) if b}
    R = Poly.radius_squared(n).nums
    assert per_degree(p, n, lambda v, n, k: ha._directional(v, n, k, xi), -1) == \
        dict_directional(p, xi_dict)
    assert per_degree(p, n, poly._laplacian, -2) == dict_laplacian(p, n)
    assert per_degree(p, n, lambda v, n, k: times_linear(v, n, k, xi), 1) == \
        dict_product(xi_dict, p)
    for i in range(n):
        unit = [int(j == i) for j in range(n)]
        assert per_degree(p, n, lambda v, n, k: times_linear(v, n, k, unit), 1) == \
            dict_product({poly._unit(n, i, 1): 1}, p)
    assert per_degree(p, n, poly._times_R, 2) == dict_product(R, p)
    ps, qs = ha._components(p, n), ha._components(q, n)
    assert sum(ha._fischer(v, qs[k], ha._fischer_weights(n, k))
               for k, v in ps.items() if k in qs) == dict_fischer(p, q)
    # the empty list of degree -1 lowers to nothing and raises to zeros
    assert ha._directional([], n, -1, xi) == poly._laplacian([], n, -1) == []
    assert times_linear([], n, -1, xi) == [0]
    assert poly._times_R([], n, -1) == [0] * n
    # the one-pass vee and rotation against their compositions, on p's
    # degrees, degree 0 and the empty degree -1 list, with vdx taken from q
    # so that it need not be v . xi
    def at(lists, k):
        return lists.get(k, [0] * len(ha._packed_monomials(n, k)))

    for k in sorted({-1, 0, *ps}):
        v, vdx = at(ps, k), at(qs, k - 1)
        assert ha._vee(v, n, k, xi, vdx) == unfused_vee(v, n, k, xi, vdx)
        fda, fdb = ha._directional(v, n, k, xi), ha._directional(v, n, k, eta)
        assert ha._rotation(n, k, xi, eta, fda, fdb) == \
            unfused_rotation(n, k, xi, eta, fda, fdb)
        assert ha._rotation(n, k, xi, eta, vdx, at(ps, k - 1)) == \
            unfused_rotation(n, k, xi, eta, vdx, at(ps, k - 1))


@pytest.mark.parametrize("n", range(1, 9))
def test_compact_raising_tables_pad_each_group_to_the_largest(n):
    # a group per target monomial t lists the sources of t - step u_i that
    # exist, by i (in copy i of the source list for step 1), then pads -1;
    # the group size is the largest support, so no column is only pads
    for step in (1, 2):
        for degree in range(-1, 7 if n <= 5 else 4):
            positions, size = poly._raising(n, degree, step)
            assert size == min(n, (degree + step) // step)
            sources = poly.monomial_exponents(n, degree)
            place = {e: j for j, e in enumerate(sources)}
            targets = poly.monomial_exponents(n, degree + step)
            assert len(positions) == len(targets) * size
            groups = [positions[j * size:(j + 1) * size] for j in range(len(targets))]
            for t, g in zip(targets, groups):
                want = [place[t[:i] + (t[i] - step,) + t[i + 1:]]
                        + (i * len(sources) if step == 1 else 0)
                        for i in range(n) if t[i] >= step]
                assert g == tuple(want) + (-1,) * (size - len(want))
            assert any(-1 not in g for g in groups)


# ----------------------------------------------------------------------
# the representation: integer numerators over one canonical denominator
# ----------------------------------------------------------------------

def assert_canonical(p):
    assert type(p.den) is int and p.den > 0
    assert all(type(v) is int and v for v in p.nums.values())
    assert math.gcd(p.den, *p.nums.values()) == 1
    if not p.nums:
        assert p.den == 1


def ref_add(p, q, sign=1):
    """q's terms folded into a copy of p's over Fractions; a cancelled key
    is dropped and re-enters at the end."""
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, Fraction(0)) + sign * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def ref_diff(p, i):
    out = {}
    for e, c in p.items():
        if e[i]:
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = c * e[i]
    return out


def ref_laplacian(p, n):
    """sum_i d_i d_i p, a variable at a time, each over p's terms."""
    out = {}
    for i in range(n):
        out = ref_add(out, ref_diff(ref_diff(p, i), i))
    return out


def ref_inner(p, q):
    return sum((math.prod(map(math.factorial, e)) * c * q[e]
                for e, c in p.items() if e in q), Fraction(0))


COEFS = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@st.composite
def rational_polys(draw, n, max_exp=3, linear=False):
    if linear:
        exps = draw(st.permutations([tuple(int(j == i) for j in range(n))
                                     for i in range(n)]))
    else:
        exps = draw(st.lists(st.tuples(*[st.integers(0, max_exp)] * n),
                             max_size=8, unique=True))
    coefs = draw(st.lists(COEFS, min_size=len(exps), max_size=len(exps)))
    return dict(zip(exps, coefs))


@given(st.data(), st.integers(2, 4), COEFS)
@settings(max_examples=150, deadline=None)
def test_poly_matches_a_fraction_reference(data, n, c):
    tp, tq = data.draw(rational_polys(n)), data.draw(rational_polys(n))
    txi = data.draw(rational_polys(n, linear=True))
    p, q, xi = Poly(n, tp), Poly(n, tq), Poly(n, txi)
    P = {e: v for e, v in tp.items() if v}
    Q = {e: v for e, v in tq.items() if v}
    XI = {e: v for e, v in txi.items() if v}
    # the view is the input, zeros dropped, in the input's order
    assert list(p.terms.items()) == list(P.items())
    cases = [(p + q, ref_add(P, Q)), (p - q, ref_add(P, Q, -1)),
             (-p, {e: -v for e, v in P.items()}),
             (p.scale(c), {e: v * c for e, v in P.items()} if c else {}),
             (p * q, naive_mul(p, q)),
             (p.directional(xi), naive_directional(p, xi)),
             (p.analyst_laplacian(), ref_laplacian(P, n))]
    cases += [(p.diff(i), ref_diff(P, i)) for i in range(n)]
    for got, want in cases + [(p, P), (q, Q), (xi, XI)]:
        assert list(got.terms.items()) == list(want.items())
        assert_canonical(got)
    assert ha.inner(HarmonicElement(p, 0), HarmonicElement(q, 0)) == ref_inner(P, Q)
    # equality is equality of the rational coefficients
    assert (p == q) == (P == Q)
    assert (p - p).is_zero() and (p - p).den == 1


@given(st.data(), st.integers(2, 4))
@settings(max_examples=100, deadline=None)
def test_scale_round_trip_is_the_same_poly(data, n):
    p = Poly(n, data.draw(rational_polys(n)))
    q = p.scale(3).scale(Fraction(1, 3))
    assert q == p and hash(q) == hash(p)
    assert (q.den, list(q.nums.items())) == (p.den, list(p.nums.items()))
    assert_canonical(p.scale(3))


def test_canonical_form_examples():
    # nums is keyed by packed exponents: x0 in the high slot, x1 in the low
    x0, x1 = 1 << poly.SLOT_BITS, 1
    p = Poly(2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)})
    assert (p.den, p.nums) == (6, {x0: 3, x1: 2})
    two_x = p + Poly(2, {(1, 0): Fraction(3, 2), (0, 1): Fraction(-1, 3)})
    assert (two_x.den, two_x.nums) == (1, {x0: 2})
    assert (Poly.zero(2).den, Poly.zero(2).nums) == (1, {})
    assert (p.scale(0).den, (p * Poly.zero(2)).den) == (1, 1)
    # the view is a copy, not the storage
    view = p.terms
    view.clear()
    assert p.terms == {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)}


@given(st.data(), st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_key_order_is_lexicographic_order(data, n):
    top = (1 << poly.SLOT_BITS) - 1
    exps = data.draw(st.lists(st.tuples(*[st.integers(0, top)] * n), max_size=20))
    assert sorted(poly._pack(n, e) for e in exps) == [poly._pack(n, e) for e in sorted(exps)]
    shifts = poly._shifts(n)
    assert [poly._unpack(poly._pack(n, e), shifts) for e in exps] == exps


def test_product_that_could_carry_between_slots_raises():
    top = 1 << (poly.SLOT_BITS - 1)
    below = Poly(2, {(top - 1, 0): 1, (0, top - 1): 1})
    square = below * below      # 2 (2^15 - 1) still fits a slot
    assert square.terms == {(2 * top - 2, 0): 1, (top - 1, top - 1): 2,
                            (0, 2 * top - 2): 1}
    # x1^(2^15) squared would carry into x0's slot: refused, as is any
    # product with an operand at or above 2^15 in some slot
    high = Poly(2, {(0, top): 1})
    for p, q in [(high, high), (high, Poly.one(2)), (Poly.variable(2, 0), square)]:
        with pytest.raises(DegreeViolation):
            p * q


@pytest.mark.parametrize("exp,exc", [
    ((1, 2), ParamViolation),               # wrong length
    ((1, -1, 0), ParamViolation),           # negative entry
    ((1.5, 0, 0), ParamViolation),          # non-integer entry
    ((True, 0, 0), ParamViolation),         # bools are refused
    ((1 << 16, 0, 0), DegreeViolation),     # above a 16-bit slot
])
def test_malformed_exponents_are_refused(exp, exc):
    with pytest.raises(exc):
        Poly(3, {exp: 1})
    with pytest.raises(exc):
        Poly(3, {exp: 0})       # a zero coefficient does not excuse the key
    assert issubclass(exc, DensityLabError)    # so the CLI exits 2 on it
    assert Poly(3, {((1 << 16) - 1, 0, 0): 1}).degree() == (1 << 16) - 1


def test_directional_along_a_constant_term_is_refused():
    # a term of xi with no variable has no slot to differentiate along
    with pytest.raises(DegreeViolation, match="constant term"):
        ha.dot(x(0), HarmonicElement(Poly.one(3), 1))


# ----------------------------------------------------------------------
# how much work the suite does, counted through wrappers
# ----------------------------------------------------------------------

def recording(monkeypatch, owner, name):
    """Wrap owner.name so that each call's arguments are appended to the
    returned list."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_one_identity_trial_takes_nine_directional_derivatives(monkeypatch):
    # counted at the one dense directional kernel, which dot, vee and
    # so_action wrap
    calls = recording(monkeypatch, ha, "_directional")
    ha.identity_suite(4, 3, 1, seed=5)
    assert len(calls) == 9
    ha.identity_suite(3, 2, 2, seed=6)
    assert len(calls) == 9 + 18


def test_harmonic_parts_are_peeled_without_the_remainder(monkeypatch, fresh_bases):
    from densitylab import sphere_maps as sm
    parts = recording(monkeypatch, ha, "_harmonic_part")
    monkeypatch.setattr(sm, "_harmonic_part", ha._harmonic_part)
    r_products = recording(monkeypatch, poly, "_times_R")
    rng = random.Random(3)
    for n, d in [(3, 4), (4, 5), (5, 4), (3, 2)]:
        random_harmonic(n, d, rng)
    # the closed form by Horner takes K = d // 2 products by R, 7 here,
    # where peeling the shells one at a time takes K(K + 1)/2, 10 here;
    # each is one gather on a degree list
    assert [d for _, _, d in parts] == [4, 5, 4, 2]
    assert len(r_products) == sum(d // 2 for _, _, d in parts) == 7
    sm.basis_Hm(4, 4)
    assert len(parts) > 4


def test_inner_positive_definite_on_basis_sweep():
    from densitylab.sphere_maps import basis_Hm
    for (n, d) in [(3, 2), (3, 3), (4, 2)]:
        basis = basis_Hm(n, d)
        # Gram matrix is diagonal with positive entries: all leading
        # principal minors positive, exactly
        assert all(v > 0 for v in basis.norms)
        for i, e1 in enumerate(basis.elements):
            for e2 in basis.elements[i + 1:]:
                assert ha.inner(e1, e2) == 0


def test_inner_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        ha.inner(x(0), ha.vee(x(0), x(0)))


# ----------------------------------------------------------------------
# identity suite
# ----------------------------------------------------------------------

def random_stream_digest():
    """Value and denominator, in sorted_terms order, of random_harmonic for
    n 3-6, d 0-6 and of random_linear for n 3-6, seeds 0-9, and where each
    leaves its generator."""
    digest = hashlib.sha256()
    for seed in range(10):
        for n in range(3, 7):
            rng_h, rng_l = random.Random(seed), random.Random(seed)
            draws = [random_harmonic(n, d, rng_h) for d in range(7)]
            draws.append(random_linear(n, rng_l))
            for h in draws:
                digest.update(repr((h.poly.den, h.poly.sorted_terms())).encode())
            digest.update(repr((rng_h.getrandbits(32), rng_l.getrandbits(32))).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("span", range(10))
def test_uniform_draws_are_the_randint_stream(span):
    for seed in range(5):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert ha._uniform_ints(ours, 50, span) == \
            [theirs.randint(-span, span) for _ in range(50)]
        assert ours.getrandbits(32) == theirs.getrandbits(32)


def test_random_draws_keep_their_stream():
    # pinned while the draws still went through sparse term dicts (whose
    # insertion order an earlier digest, 9a22184ecb8fbdc0, also hashed)
    assert random_stream_digest() == "fb7c12b8309f367a"


def test_identity_suite_passes():
    rep = ha.identity_suite(3, 2, 25, seed=42)
    assert rep["all_exact"] and rep["trials"] == 25


def test_identity_suite_zero_linear_form():
    # alpha = 0 makes every side vanish; check directly on the identities
    f = random_harmonic(3, 2, random.Random(10))
    zero = HarmonicElement(Poly.zero(3), 1)
    assert ha.vee(f, zero).poly.is_zero()
    assert ha.dot(f, zero).poly.is_zero()
    assert ha.so_action(zero, x(1), f).poly.is_zero()


def test_identity_suite_mutation_detected():
    with pytest.raises(IdentityFailure):
        ha.identity_suite(3, 2, 5, seed=42, corrupt=True)


@pytest.mark.parametrize("n,d", [(3, 1), (3, 2), (4, 3), (5, 2)])
def test_identity_suite_canary_fires_at_the_contraction(n, d):
    # identities 1 and 2 hold on the corrupted run; the shared pairings of
    # f must still reach identity 3, which the miscaling breaks at trial 0
    assert ha.identity_suite(n, d, 3, seed=7)["trials"] == 3
    with pytest.raises(IdentityFailure, match="vee/dot contraction at trial 0"):
        ha.identity_suite(n, d, 3, seed=7, corrupt=True)


def test_identity_suite_requires_n3():
    with pytest.raises(ParamViolation):
        ha.identity_suite(2, 2, 5)


def test_identity_suite_refuses_a_negative_degree():
    with pytest.raises(ParamViolation, match="degree d must be >= 0"):
        ha.identity_suite(3, -1, 1)


@pytest.mark.parametrize("trials", [0, -3])
def test_identity_suite_refuses_fewer_than_one_trial(trials):
    # with no trial nothing would be checked, yet every identity would pass
    with pytest.raises(ParamViolation, match="trials must be >= 1"):
        ha.identity_suite(3, 2, trials)


@pytest.mark.parametrize("n,d,trials", [(3, 2.0, 1), (3, 2, True), (3.0, 2, 1)])
def test_identity_suite_refuses_non_integers(n, d, trials):
    with pytest.raises(ParamViolation, match="must be an integer"):
        ha.identity_suite(n, d, trials)


def suite_trial(n, d, seed):
    """f, a, b, g of trial 0 of identity_suite(n, d, ..., seed), drawn in
    the suite's order."""
    rng = random.Random(seed)
    f = random_harmonic(n, d, rng)
    a, b = random_linear(n, rng), random_linear(n, rng)
    return f, a, b, random_harmonic(n, d + 1, rng)


@pytest.mark.parametrize("n", range(3, 7))
def test_integer_identity_sides_match_the_public_pairings(n):
    # each side the suite builds on integer degree lists over f's
    # denominator (identity 4: integer Fischer sums over den_f den_g)
    # against the same side built through dot, vee, so_action and inner
    for d in range(6):
        c = n + 2 * d - 2
        for seed in range(20):
            f, a, b, g = suite_trial(n, d, seed)
            lists = [ha._components(h.poly.nums, n)[h.degree] for h in (f, g)]
            sides = list(ha._identity_sides(n, d, lists[0], ha._linear_coefficients(a.poly),
                                            ha._linear_coefficients(b.poly), lists[1], c))
            fva, fvb, fda, fdb = ha.vee(f, a), ha.vee(f, b), ha.dot(f, a), ha.dot(f, b)
            rot = ha.so_action(a, b, f).poly
            public = [
                (ha.dot(fva, b).poly - ha.dot(fvb, a).poly, rot.scale(n + 2 * d)),
                (ha.vee(fda, b).poly - ha.vee(fdb, a).poly, rot.scale(-(n + 2 * d - 4))),
                (ha.dot(fva, a).poly - ha.vee(fda, a).poly, f.poly.scale(c * ha.inner(a, a))),
            ]
            for integer_sides, poly_sides in zip(sides, public):
                assert [ha._from_components(n, f.poly.den, {d: side})
                        for side in integer_sides] == list(poly_sides)
            den = f.poly.den * g.poly.den
            assert [Fraction(side, den) for side in sides[3]] == \
                [ha.inner(fva, g), c * ha.inner(f, ha.dot(g, a))]


@pytest.mark.parametrize("broken,message", [
    (0, "degree-raise/lower commutator at trial 0: f={f!r} a={a!r} b={b!r}"),
    (1, "lower/raise commutator at trial 0"),
    (2, "vee/dot contraction at trial 0: f={f!r} a={a!r}"),
    (3, "adjointness at trial 0"),
])
def test_each_identity_names_itself_when_it_fails(monkeypatch, broken, message):
    sides = ha._identity_sides

    def one_side_off(*args):
        for i, (lhs, rhs) in enumerate(sides(*args)):
            if i == broken:
                rhs = rhs + 1 if isinstance(rhs, int) else [rhs[0] + 1, *rhs[1:]]
            yield lhs, rhs

    monkeypatch.setattr(ha, "_identity_sides", one_side_off)
    f, a, b, _ = suite_trial(4, 2, 31)
    with pytest.raises(IdentityFailure) as failure:
        ha.identity_suite(4, 2, 3, seed=31)
    assert str(failure.value) == message.format(f=f.poly, a=a.poly, b=b.poly)


def test_the_canary_message_is_pinned():
    # witnesses with rational coefficients, as the Poly-level suite gave them
    with pytest.raises(IdentityFailure) as failure:
        ha.identity_suite(4, 3, 3, seed=7, corrupt=True)
    assert str(failure.value) == (
        "vee/dot contraction at trial 0: f=Poly(1/6*x0^3 + -1*x0^2*x1^1 + "
        "13/6*x0^2*x2^1 + -10/3*x0^2*x3^1 + -23/6*x0^1*x1^2 + "
        "4*x0^1*x1^1*x2^1 +13 terms) a=Poly(-4*x0^1 + -3*x1^1 + -1*x2^1 + -4*x3^1)")


# ----------------------------------------------------------------------
# spectral sequences
# ----------------------------------------------------------------------

def sp3(lam):
    return ha.SpectralParams(3, Fraction(1), Fraction(lam))


def test_b_coeff_examples():
    assert ha.b_coeff(sp3(8), 0) == Fraction(8, 3)          # lambda/(n(n-2))
    assert ha.b_coeff(sp3(8), 1) == Fraction(1, 3)
    assert ha.b_coeff(sp3(8), 2) == 0                        # numerator vanishes
    p = ha.SpectralParams(4, Fraction(2), Fraction(12))
    assert ha.b_coeff(p, 1) == Fraction(12 - 8, 6 * 4)


def test_b_coeff_zero_exactly_at_quantized_eigenvalues():
    for n in (3, 4, 5):
        for m in range(6):
            lam = Fraction(m * (n + m - 1))
            p = ha.SpectralParams(n, Fraction(1), lam)
            assert ha.b_coeff(p, m) == 0
            for mm in range(6):
                if mm != m:
                    assert ha.b_coeff(p, mm) != 0


def test_a_sequence_admissible_fixture():
    seq = ha.a_sequence(sp3(8), 6)
    assert seq.values[:5] == (1, 8, Fraction(40, 3), 0, 0)
    assert seq.first_zero == 3 and seq.first_negative is None


def test_a_sequence_inadmissible_fixture():
    # lambda = 5, n = 3: b_2 = -3/35 turns the sequence negative at index 3
    seq = ha.a_sequence(sp3(5), 6)
    assert seq.values[:4] == (1, 5, Fraction(10, 3), -2)
    assert seq.first_negative == 3


def test_a_sequence_lambda_zero():
    seq = ha.a_sequence(sp3(0), 5)
    assert seq.values[0] == 1
    assert all(v == 0 for v in seq.values[1:])


def test_a1_equals_lambda():
    for lam in (3, 8, 15, 7, 11):
        assert ha.a_sequence(sp3(lam), 2).values[1] == lam


def test_second_norm_constant_discrepancy_recorded():
    # The recursion gives A_2 = b_1 lambda (n-1)(n+2)/2; an alternative
    # printed constant n(n+4)/3 matches the m = 2 factor instead.  Both are
    # recorded here; the recursion is what the library implements.
    n, lam = 3, 8
    p = ha.SpectralParams(n, Fraction(1), Fraction(lam))
    b1 = ha.b_coeff(p, 1)
    recursion_A2 = b1 * lam * Fraction((n - 1) * (n + 2), 2)
    printed_A2 = b1 * lam * Fraction(n * (n + 4), 3)
    assert ha.a_sequence(p, 2).values[2] == recursion_A2 == Fraction(40, 3)
    assert printed_A2 == Fraction(56, 3) != recursion_A2
    # the m = 2 recursion factor is exactly the printed constant
    assert Fraction((2 + n - 2) * (n + 4), 3) == Fraction(n * (n + 4), 3)


def test_admissible_lambda_examples():
    assert ha.admissible_lambda(sp3(8)) == 2
    assert ha.admissible_lambda(sp3(3)) == 1
    assert ha.admissible_lambda(sp3(7)) is None
    assert ha.admissible_lambda(sp3(0)) == 0
    p = ha.SpectralParams(4, Fraction(1, 2), Fraction(5))
    assert ha.admissible_lambda(p) == 2  # 2*(4+1)/2 = 5


def test_spectral_dichotomy_sweep():
    for n in (3, 4, 5):
        for lam in range(0, 41):
            p = ha.SpectralParams(n, Fraction(1), Fraction(lam))
            m = ha.admissible_lambda(p)
            seq = ha.a_sequence(p, 15)
            if m is not None:
                assert seq.first_negative is None
                assert all(v == 0 for v in seq.values[m + 1:])
                assert all(v > 0 for v in seq.values[:m + 1])
            else:
                assert seq.first_negative is not None


# ----------------------------------------------------------------------
# dimensions
# ----------------------------------------------------------------------

def brute_dim(n_amb, m):
    """Kernel rank of the Laplacian on degree-m monomials, via sympy."""
    xs = sp.symbols(f"x0:{n_amb}")
    monos = poly.monomial_exponents(n_amb, m)
    target = poly.monomial_exponents(n_amb, max(m - 2, 0))
    rows = []
    for e in monos:
        mono = sp.prod(v ** k for v, k in zip(xs, e))
        lap = sum(sp.diff(mono, v, 2) for v in xs)
        lap = sp.Poly(lap, *xs) if lap != 0 else None
        row = [0] * len(target)
        if lap is not None:
            for ee, c in zip(lap.monoms(), lap.coeffs()):
                row[target.index(tuple(ee))] = int(c)
        rows.append(row)
    mat = sp.Matrix(rows)
    return len(monos) - mat.rank() if m >= 2 else len(monos)


@pytest.mark.parametrize("n_amb,m", [(3, 2), (3, 4), (4, 1), (4, 2), (4, 3),
                                     (5, 0), (5, 2)])
def test_dim_harmonics_vs_sympy_rank(n_amb, m):
    assert ha.dim_harmonics(n_amb, m) == brute_dim(n_amb, m)


def test_dim_harmonics_examples():
    assert ha.dim_harmonics(4, 1) == 4
    assert ha.dim_harmonics(4, 2) == 9
    assert ha.dim_harmonics(5, 0) == 1


def test_dim_matches_ambient_shell_sum():
    # dim H_m(R^(n+1)) = sum_{k<=m} dim H_k(R^n): the closed-form count
    for n in (3, 4):
        for m in range(6):
            total = sum(ha.dim_harmonics(n, k) for k in range(m + 1))
            assert total == ha.dim_harmonics(n + 1, m)


def reference_exponents(nvars, degree):
    """The exponent tuples of the given total degree in graded-lex order, as
    the library listed them before it packed keys by shifts: the tuples of
    each remaining degree over the last k variables, a variable at a time."""
    tails = {r: [(r,)] for r in range(degree + 1)}
    for _ in range(nvars - 1):
        tails = {r: [(j, *t) for j in range(r, -1, -1) for t in tails[r - j]]
                 for r in range(degree + 1)}
    return tails.get(degree, [])


def test_packed_monomials_are_the_packed_reference_tuples_in_order():
    # keys generated by shifts, without _pack's checks, against _pack of the
    # reference tuples: the same keys in the same order
    for nvars in range(1, 9):
        for degree in range(-2, 9 if nvars <= 7 else 7):
            want = reference_exponents(nvars, degree)
            assert poly._packed_monomials(nvars, degree) == \
                tuple(poly._pack(nvars, e) for e in want)
            assert poly.monomial_exponents(nvars, degree) == want
    with pytest.raises(DegreeViolation, match="16-bit slot"):
        poly._packed_monomials(1, 1 << 16)
    assert poly._packed_monomials(1, (1 << 16) - 1) == ((1 << 16) - 1,)


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
@pytest.mark.parametrize("degree", [-1, -2])
def test_monomial_exponents_empty_for_negative_degree(nvars, degree):
    assert poly.monomial_exponents(nvars, degree) == []
