"""Gram-matrix construction of constant-energy sphere maps."""

import functools
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densitylab import sphere_maps as sm
from densitylab.errors import (
    DegreeViolation,
    DimensionMismatch,
    NotOnSphere,
    NotPSD,
    ParamViolation,
)
from densitylab.harmonic import (
    HarmonicElement,
    Poly,
    _shifts,
    _unpack,
    dim_harmonics,
    inner,
    monomial_exponents,
)
from sphere_map_oracles import (
    dense,
    gram_from_rows,
    gram_of_components,
    h_of_G,
    quadratic_form,
)


# ----------------------------------------------------------------------
# the fraction-free elimination core against the Fraction reference
# ----------------------------------------------------------------------

def reference_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
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


def reference_nullspace(rows, ncols):
    if not rows:
        return [[Fraction(i == j) for i in range(ncols)] for j in range(ncols)]
    red, pivots = reference_rref(rows)
    basis = []
    for fc in [c for c in range(ncols) if c not in pivots]:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


ENTRIES = st.one_of(st.just(Fraction(0)),
                    st.fractions(min_value=-5, max_value=5, max_denominator=6),
                    st.integers(-10**40, 10**40).map(Fraction),
                    st.fractions(min_value=-1, max_value=1,
                                 max_denominator=10**20))


@st.composite
def rational_matrices(draw):
    """Small rational matrices with zero rows and columns, dependent rows,
    large entries, and no rows or no columns at all."""
    ncols = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols),
                         max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        coefs = draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)))
        combo = [sum((c * row[j] for c, row in zip(coefs, rows)), Fraction(0))
                 for j in range(ncols)]
        rows.insert(draw(st.integers(0, len(rows))), combo)
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * ncols)
    zero_cols = draw(st.sets(st.integers(0, 5), max_size=2))
    return [[Fraction(0) if j in zero_cols else v for j, v in enumerate(row)]
            for row in rows]


def reference_rank(rows) -> int:
    return len(reference_rref(rows)[1])


def integer_core(rows: list[list[Fraction]]) -> "sm._IntegerRref":
    """The core run on rational rows, each scaled to integers first (scaling
    a row does not change the rref) and passed as its nonzeros."""
    core = sm._IntegerRref()
    for row in rows:
        den = math.lcm(*(v.denominator for v in row))
        core.add({j: v.numerator * (den // v.denominator)
                  for j, v in enumerate(row) if v})
    return core


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
def test_rref_and_nullspace_match_the_fraction_reference(rows):
    ncols = len(rows[0]) if rows else 3
    core = integer_core(rows)
    # kept rows / d in pivot order, then one zero row per dependent row
    order = sorted(range(len(core.pivots)), key=core.pivots.__getitem__)
    red = [[Fraction(core.rows[k].get(j, 0), core.d) for j in range(ncols)]
           for k in order]
    red += [[Fraction(0)] * ncols for _ in range(len(rows) - len(red))]
    assert (red, [core.pivots[k] for k in order]) == reference_rref(rows)
    kernel = []
    for _, entries in core.kernel(ncols):
        vec = [Fraction(0)] * ncols
        for c, w in entries:
            vec[c] = Fraction(w, core.d)
        kernel.append(vec)
    assert kernel == reference_nullspace(rows, ncols)


P0, P1, P2 = sm._PRIMES
NEAR_P = st.sampled_from([0, 1, -1, 2, -3, P0 - 1, P0 - 2, P0 + 1, -(P0 + 1),
                          P0, -2 * P0, 5 * P0, P0 * P1, P1 - 1, P1 + 1, P1,
                          P0 * P1 * P2, 10**30 + 7])


@st.composite
def integer_blocks(draw):
    """Stacks of integer matrices of one shape, entries near the primes,
    some rows repeated or summed so that a block falls short over Q."""
    r, c = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        mat = draw(st.lists(st.lists(NEAR_P, min_size=c, max_size=c),
                            min_size=r, max_size=r))
        if r >= 2 and draw(st.booleans()):
            mat[-1] = [a + b for a, b in zip(mat[0], mat[1])]
        blocks.append(mat)
    return r, c, blocks


def sparse_block(mat):
    entries = [(i, j, v) for i, row in enumerate(mat) for j, v in enumerate(row) if v]
    return tuple(map(list, zip(*entries))) if entries else ([], [], [])


@settings(max_examples=300, deadline=None)
@given(integer_blocks())
def test_ranks_match_the_fraction_reference_near_the_primes(shape_and_blocks):
    r, c, blocks = shape_and_blocks
    got = sm._ranks((r, c), [sparse_block(mat) for mat in blocks])
    assert got == [reference_rank([[Fraction(v) for v in row] for row in mat])
                   for mat in blocks]


def spy_on_ranks(monkeypatch):
    """Record the prime and stack shape of each modular elimination, and
    count the blocks ranked exactly."""
    primes, exact = [], []
    full_row_rank_mod = sm._full_row_rank_mod

    def recording(A, p):
        primes.append((p, A.shape))
        return full_row_rank_mod(A, p)

    class Counting(sm._IntegerRref):
        def __init__(self):
            super().__init__()
            exact.append(self)

    monkeypatch.setattr(sm, "_full_row_rank_mod", recording)
    monkeypatch.setattr(sm, "_IntegerRref", Counting)
    return primes, exact


def test_ranks_retry_the_next_prime_then_eliminate_exactly(monkeypatch):
    primes, exact = spy_on_ranks(monkeypatch)
    full = [[P0 - 1, P0 - 2, 1], [P0 + 1, 1, P0 - 1]]   # minor 1 mod P0
    singular_mod_p0 = [[P0, 0, 0], [0, 1, 0]]
    zero_mod_all = [[P0 * P1 * P2, 0, 0], [0, 0, 3]]
    short_over_q = [[2, 2 * (P0 + 1), 4], [1, P0 + 1, 2]]
    blocks = [full, singular_mod_p0, zero_mod_all, short_over_q]
    assert sm._ranks((2, 3), [sparse_block(m) for m in blocks]) == [2, 2, 2, 1]
    assert primes == [(P0, (4, 2, 3)), (P1, (3, 2, 3)), (P2, (2, 2, 3))]
    assert len(exact) == 2   # zero_mod_all and short_over_q
    assert [reference_rank([[Fraction(v) for v in row] for row in m])
            for m in blocks] == [2, 2, 2, 1]


def test_ranks_of_a_tall_block_are_exact_without_a_prime(monkeypatch):
    primes, exact = spy_on_ranks(monkeypatch)
    assert sm._ranks((3, 2), [sparse_block([[1, 0], [0, P0], [1, 1]])]) == [2]
    assert sm._ranks((2, 0), [([], [], [])]) == [0]
    assert primes == [] and len(exact) == 2


def test_kernel_dimension_comes_from_stacked_blocks(monkeypatch):
    # (6,2): 31 parity blocks in three shapes, so 21 + 6 + 1 elimination
    # steps where the whole matrix would take 126
    basis = sm.basis_Hm(6, 2)
    primes, exact = spy_on_ranks(monkeypatch)
    _, ker = sm.solve_h_equals_Rm(6, 2, basis)
    assert ker.dimension == 84 and exact == []
    assert {p for p, _ in primes} == {P0}
    assert sorted(shape[:2] for _, shape in primes) == [(1, 21), (15, 1), (15, 6)]


def block_entries(basis: sm.HarmonicBasis, cols) -> tuple[int, dict]:
    """The oracle of one parity block: its row count and its nonzero
    entries {(row, column): value}, from one Poly product h_a h_b per
    column E_ab (times 2 when a != b), its rows the degree-2m exponents of
    the block's parity in monomial_exponents order."""
    pairs = sm._sym_pairs(basis.dim)
    entries, parity = {}, None
    for k, j in enumerate(cols):
        a, b = pairs[j]
        prod = basis.elements[a].poly * basis.elements[b].poly
        for e, c in prod.terms.items():
            parity = tuple(x % 2 for x in e)
            entries[e, k] = int(c) if a == b else 2 * int(c)
    rows = [e for e in monomial_exponents(basis.n_ambient, 2 * basis.m)
            if tuple(x % 2 for x in e) == parity]
    index = {e: i for i, e in enumerate(rows)}
    return len(rows), {(index[e], k): v for (e, k), v in entries.items()}


@pytest.mark.parametrize("n_amb,m", [(4, 1), (4, 2), (5, 2), (6, 2), (4, 3),
                                     (5, 3), (4, 4), (8, 3)])
def test_stacks_are_the_block_products_modulo_p(n_amb, m):
    # every pair (a, b) lies in one block, and each stack holds, entry for
    # entry, the products h_a h_b reduced modulo each prime
    basis = sm.basis_Hm(n_amb, m)
    blocks = basis._blocks
    assert sorted(j for _, cols in blocks.blocks for j in cols.tolist()) \
        == list(range(len(sm._sym_pairs(basis.dim))))
    for (r, c), group in blocks.shape_groups().items():
        oracle = [block_entries(basis, blocks.blocks[b][1].tolist()) for b in group]
        assert all(rows == r for rows, _ in oracle)
        for p in (sm._PRIMES if (n_amb, m) != (8, 3) else sm._PRIMES[:1]):
            expected = np.zeros((len(group), r, c), dtype=np.int64)
            for s, (_, entries) in enumerate(oracle):
                for (i, k), v in entries.items():
                    expected[s, i, k] = v % p
            assert np.array_equal(blocks.stack(group, p), expected)
        if n_amb + m <= 8:   # exact entries too
            for b, (_, entries) in zip(group, oracle):
                rows, ks, values = blocks.entries(b)
                assert dict(zip(zip(rows, ks), values)) == entries


@pytest.mark.parametrize("failing", [{P0}, {P0, P1, P2}], ids=["first", "every"])
@pytest.mark.parametrize("n_amb,m", [(5, 2), (4, 3)])
def test_kernel_dimension_survives_failing_primes(monkeypatch, n_amb, m, failing):
    # a prime reported as failing every block sends them on to the next
    # prime, and after the last to the exact elimination of their entries
    primes, exact = spy_on_ranks(monkeypatch)
    recording = sm._full_row_rank_mod

    def failing_mod(A, p):
        full = recording(A, p)
        return np.zeros_like(full) if p in failing else full

    monkeypatch.setattr(sm, "_full_row_rank_mod", failing_mod)
    D = dim_harmonics(n_amb, m)
    _, ker = sm.solve_h_equals_Rm(n_amb, m)
    assert ker.dimension == D * (D + 1) // 2 - math.comb(n_amb + 2 * m - 1, 2 * m)
    blocks = ker.harmonics._blocks.blocks
    assert {p for p, _ in primes} == ({P0, P1} if len(failing) == 1 else set(sm._PRIMES))
    assert len(exact) == (0 if len(failing) == 1 else len(blocks))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=5, max_size=5), max_size=7),
       st.randoms(use_true_random=False))
def test_integer_rref_add_ignores_column_order_and_explicit_zeros(rows, rnd):
    plain, shuffled = sm._IntegerRref(), sm._IntegerRref()
    for row in rows:
        items = list(enumerate(row))   # explicit zeros included
        rnd.shuffle(items)
        assert plain.add({j: v for j, v in enumerate(row) if v}) \
            == shuffled.add(dict(items))
    assert (plain.rows, plain.pivots, plain.d) \
        == (shuffled.rows, shuffled.pivots, shuffled.d)
    assert all(v for row in shuffled.rows for v in row.values())
    assert plain.kernel(5) == shuffled.kernel(5)


def test_kernel_certificate_catches_one_wrong_numerator(monkeypatch):
    kernel = sm._IntegerRref.kernel
    spoiled = []

    def off_by_one(self, ncols):
        # one entry at a pivot column, whose block column is not zero
        out = kernel(self, ncols)
        for f, entries in out:
            if len(entries) > 1 and not spoiled:
                c, w = entries[1]
                entries[1] = (c, w + 1)
                spoiled.append((f, c))
        return out

    monkeypatch.setattr(sm._IntegerRref, "kernel", off_by_one)
    _, ker = sm.solve_h_equals_Rm(4, 2)   # builds no element
    assert spoiled == [] and ker.dimension == 10
    with pytest.raises(ParamViolation, match="kernel verification failed"):
        ker.elements
    assert len(spoiled) == 1


def test_kernel_elements_must_match_the_certified_dimension(monkeypatch):
    elements = sm._kernel_elements
    monkeypatch.setattr(sm, "_kernel_elements", lambda basis: elements(basis)[1:])
    _, ker = sm.solve_h_equals_Rm(4, 2)
    with pytest.raises(ParamViolation, match="certified dimension 10"):
        ker.elements


# ----------------------------------------------------------------------
# bases
# ----------------------------------------------------------------------

BASIS_DIGESTS = {(3, 2): "2abf2fbd9d8f8ff7", (4, 2): "8d1c9b1590253a23",
                 (4, 3): "2d2f7784058f09cc", (5, 3): "8576651a1aebb345",
                 (4, 4): "948950536ce3edc5", (6, 3): "dd29007d5b0a771a",
                 (5, 4): "65b30049d6fe3e19", (6, 2): "c8c86b34515e0f91",
                 (7, 3): "1bc5053039b0ceda", (6, 4): "c3875482f3b8571e",
                 (10, 3): "e607db2bcdd31099"}


def basis_digest(b: sm.HarmonicBasis) -> str:
    data = [(el.poly.sorted_terms(), n2) for el, n2 in zip(b.elements, b.norms)]
    return hashlib.sha256(repr(data + [b.invariant_c]).encode()).hexdigest()[:16]


@pytest.mark.parametrize("size", sorted(BASIS_DIGESTS))
def test_basis_is_pinned_entry_for_entry(size):
    # every element's terms, every norm and c, in order, as first built by
    # an exact elimination followed by Gram-Schmidt over the rationals
    assert basis_digest(sm.basis_Hm(*size)) == BASIS_DIGESTS[size]


def test_basis_gram_schmidt_is_fraction_free(monkeypatch, fresh_bases):
    from densitylab import harmonic as ha

    def refuse(f, g):
        raise AssertionError("inner was called")

    monkeypatch.setattr(ha, "inner", refuse)
    assert not hasattr(sm, "inner")
    assert basis_digest(sm.basis_Hm(5, 3)) == BASIS_DIGESTS[(5, 3)]


@pytest.mark.parametrize("read", [
    lambda b: sm._kernel_certificate(4, 2, b),
    lambda b: sm.KernelCertificate(b.dim, 0, b).elements], ids=["dimension", "elements"])
def test_kernel_refuses_basis_exponents_that_could_carry(read):
    # a slot holds exponents below 2^16, and a product of operands at or
    # above 2^15 could carry into the next slot
    good = sm.basis_Hm(4, 2)
    wide = HarmonicElement(Poly(4, {(2 ** 15, 0, 0, 0): 1}), 2)
    b = sm.HarmonicBasis(4, 2, good.elements[:-1] + (wide,), good.norms,
                         good.invariant_c)
    with pytest.raises(DegreeViolation, match="overflow"):
        read(b)


def test_basis_runs_no_elimination(monkeypatch, fresh_bases):
    primes, exact = spy_on_ranks(monkeypatch)
    assert sm.basis_Hm(5, 3).dim == 30
    assert primes == [] and exact == []


# ----------------------------------------------------------------------
# the basis cache: one basis per size, every check run by every verdict
# ----------------------------------------------------------------------

def maps_document(mode: str, params: dict, seed: int = 0):
    from densitylab import cli
    return cli.Scenario.from_config({"suite": "maps", "mode": mode,
                                     "params": params, "seed": seed})


@pytest.mark.parametrize("mode,params", [
    ("kernel", {"cases": [[5, 2], [4, 3]]}), ("verify", {"n_ambient": 4, "m": 3})])
def test_identical_maps_documents_each_run_every_check(monkeypatch, fresh_bases,
                                                       mode, params):
    # the second document reads the cached basis, yet ranks its blocks and
    # checks its sum of squares again: no rank or verdict is remembered
    from densitylab import cli
    primes, _ = spy_on_ranks(monkeypatch)
    squares = []
    exact = sm._sum_of_squares_is_Rm
    monkeypatch.setattr(sm, "_sum_of_squares_is_Rm",
                        lambda the_map: squares.append(the_map) or exact(the_map))
    runs = []
    for _ in range(2):
        misses = sm._cached_basis.cache_info().misses
        body = cli.report_body(cli.run(maps_document(mode, params)))
        runs.append((body, len(primes), len(squares),
                     sm._cached_basis.cache_info().misses - misses))
        del primes[:], squares[:]
    (body, ranked, checked, built), again = runs
    assert again == (body, ranked, checked, 0)   # nothing built the second time
    assert ranked > 0 and built == (2 if mode == "kernel" else 1)
    assert checked == (1 if mode == "verify" else 0)


def test_cached_bases_are_unchanged_by_the_documents_run_on_them(tmp_path, fresh_bases):
    from densitylab import cli
    sizes = [(4, 2), (5, 2), (4, 3), (5, 3)]
    first = {size: sm.basis_Hm(*size) for size in sizes}
    cli.run(maps_document("kernel", {"cases": [list(s) for s in sizes]}))
    for n_amb, m in sizes:
        size = {"n_ambient": n_amb, "m": m}
        for mode in ("verify", "construct"):
            assert cli.run(maps_document(mode, size, seed=3))["overall"] == "pass"
        cli.run(maps_document("export", size), tmp_path)
        sm.solve_h_equals_Rm(n_amb, m)[1].elements
    for size, basis in first.items():
        assert sm.basis_Hm(*size) is basis   # still the cached one
        fresh = basis_digest(sm._build_basis(*size))
        assert basis_digest(basis) == fresh == BASIS_DIGESTS.get(size, fresh)


def test_a_build_that_raises_is_not_cached(monkeypatch, fresh_bases):
    # a wrong R^m fails the reproducing identity: nothing is kept, and the
    # next call builds the basis anew
    monkeypatch.setattr(sm, "radius_power",
                        lambda n, m: Poly(n, {(2 * m,) + (0,) * (n - 1): 1}))
    for _ in range(2):
        with pytest.raises(ParamViolation, match="reproducing identity"):
            sm.basis_Hm(4, 2)
    assert sm._cached_basis.cache_info().currsize == 0
    monkeypatch.undo()
    assert basis_digest(sm.basis_Hm(4, 2)) == BASIS_DIGESTS[(4, 2)]
    info = sm._cached_basis.cache_info()
    assert (info.misses, info.currsize) == (3, 1)


def test_the_cache_rebuilds_a_size_it_has_evicted(fresh_bases):
    first = sm.basis_Hm(4, 1)
    others = [sm.basis_Hm(3, m) for m in range(sm._BASES)]   # evicts (4, 1)
    again = sm.basis_Hm(4, 1)
    assert again is not first and again == first
    assert sm._cached_basis.cache_info().misses == sm._BASES + 2
    # the most recent sizes are still kept
    assert sm.basis_Hm(3, sm._BASES - 1) is others[-1]


def test_a_basis_keeps_its_block_layout_and_base_point():
    b = sm.basis_Hm(4, 2)
    assert b._blocks is b._blocks and sm.scaled_identity_gram(b) is sm.scaled_identity_gram(b)
    by_hand = sm.HarmonicBasis(4, 2, b.elements, b.norms, b.invariant_c)
    assert by_hand == b and by_hand._blocks is not b._blocks
    assert sm.scaled_identity_gram(by_hand) == sm.scaled_identity_gram(b)


def test_radius_power_closed_form_is_m_products_by_r():
    # R^m = sum_{|alpha| = m} (m!/alpha!) x^(2 alpha): the same numerators,
    # denominator and key order as m products by R
    for n in range(1, 9):
        power = Poly.one(n)
        for m in range(7):
            closed = sm.radius_power(n, m)
            assert (closed.den, list(closed.nums.items())) == \
                (power.den, list(power.nums.items()))
            power = power * Poly.radius_squared(n)


def test_basis_degree_one_is_coordinates():
    b = sm.basis_Hm(4, 1)
    assert b.dim == 4
    assert all(n == 1 for n in b.norms)
    assert b.invariant_c == 1
    assert {tuple(e.poly.terms) for e in b.elements} == \
        {((1, 0, 0, 0),), ((0, 1, 0, 0),), ((0, 0, 1, 0),), ((0, 0, 0, 1),)}


def test_basis_degree_zero():
    b = sm.basis_Hm(4, 0)
    assert b.dim == 1 and b.elements[0].poly == Poly.one(4)


def test_basis_degree_two_orthogonal():
    b = sm.basis_Hm(4, 2)
    assert b.dim == 9
    for i, e1 in enumerate(b.elements):
        assert e1.poly.analyst_laplacian().is_zero()
        assert inner(e1, e1) == b.norms[i] > 0
        for e2 in b.elements[i + 1:]:
            assert inner(e1, e2) == 0


def test_basis_reproducing_identity():
    # sum h_a^2 / |h_a|^2 = c R^m with a single rational c > 0, exactly
    for (n_amb, m) in [(4, 1), (4, 2), (5, 2)]:
        b = sm.basis_Hm(n_amb, m)
        acc = Poly.zero(n_amb)
        for el, n2 in zip(b.elements, b.norms):
            acc = acc + (el.poly * el.poly).scale(Fraction(1) / n2)
        R = Poly.radius_squared(n_amb)
        rm = Poly.one(n_amb)
        for _ in range(m):
            rm = rm * R
        assert acc == rm.scale(b.invariant_c)
        assert b.invariant_c > 0


# ----------------------------------------------------------------------
# the quadratic map h
# ----------------------------------------------------------------------

def h_of(basis: sm.HarmonicBasis, G: sm.GramMatrix) -> Poly:
    """h(G) through the library's one evaluator."""
    return basis._blocks.h(*G.numerators())


@functools.lru_cache(maxsize=None)
def fraction_basis() -> sm.HarmonicBasis:
    """basis_Hm(4, 2) with h_3 scaled by 2/3 and h_5 by 1/5: elements with
    a denominator, so columns E_ab over one."""
    b = sm.basis_Hm(4, 2)
    els, norms = list(b.elements), list(b.norms)
    for i, s in ((3, Fraction(2, 3)), (5, Fraction(1, 5))):
        els[i] = HarmonicElement(els[i].poly.scale(s), 2)
        norms[i] *= s * s
    return sm.HarmonicBasis(4, 2, tuple(els), tuple(norms), b.invariant_c)


@st.composite
def sparse_symmetric(draw):
    """A basis and a symmetric rational matrix held as a kernel element is,
    its entries at any pairs a <= b, across parity blocks too."""
    size = draw(st.sampled_from([(4, 1), (4, 2), (5, 2), (4, 3), None]))
    basis = sm.basis_Hm(*size) if size else fraction_basis()
    index = st.integers(0, basis.dim - 1)
    pairs = draw(st.lists(st.tuples(index, index).map(sorted).map(tuple),
                          max_size=8, unique=True))
    nums = draw(st.lists(st.integers(-60, 60).filter(bool),
                         min_size=len(pairs), max_size=len(pairs)))
    return basis, (draw(st.integers(1, 40)), tuple(zip(pairs, nums)))


@settings(max_examples=80, deadline=None)
@given(sparse_symmetric())
def test_h_evaluator_matches_the_product_oracle(drawn):
    basis, element = drawn
    got = basis._blocks.h(*element)
    G = dense(basis.dim, element)
    assert got == h_of_G(G, basis)
    assert h_of(basis, G) == got   # through the matrix's own numerators


def test_h_of_identity_on_linear_basis_is_R():
    b = sm.basis_Hm(4, 1)
    G = sm.GramMatrix.diagonal([1, 1, 1, 1])
    assert h_of(b, G) == Poly.radius_squared(4)


def test_h_of_zero_is_zero():
    b = sm.basis_Hm(4, 1)
    assert sm.GramMatrix.diagonal([0, 0, 0, 0]).numerators() == (1, ())
    assert b._blocks.h(1, ()).is_zero()


def test_h_is_linear_in_G():
    b = sm.basis_Hm(4, 2)
    G1 = sm.scaled_identity_gram(b)
    _, ker = sm.solve_h_equals_Rm(4, 2, b)
    for k in (ker.elements[0], (3, (((0, 1), 2), ((2, 7), -5), ((4, 4), 1)))):
        lhs = h_of(b, G1.add(k, Fraction(3, 7)))
        rhs = h_of(b, G1) + b._blocks.h(*k).scale(Fraction(3, 7))
        assert lhs == rhs


def test_h_dimension_guard():
    # a negative index would read an element from the other end
    b = sm.basis_Hm(4, 1)
    for entry in ((1, 4), (-1, 2), (2, 1)):
        with pytest.raises(DimensionMismatch, match="4x4"):
            b._blocks.h(1, ((entry, 1),))


def test_gram_add_refuses_another_size():
    # an entry outside 0 <= a <= b < 3 is refused: a negative index would
    # write at the other end
    G = sm.GramMatrix.diagonal([1, 2, 3])
    for entry in ((0, 3), (-1, 0), (2, 1)):
        with pytest.raises(DimensionMismatch, match="to a 3x3"):
            G.add((1, ((entry, 1),)))
    assert G.add((2, (((0, 1), 3), ((2, 2), -4))), 5) == gram_from_rows(
        [[1, Fraction(15, 2), 0], [Fraction(15, 2), 2, 0], [0, 0, -7]])


# ----------------------------------------------------------------------
# affine solution space
# ----------------------------------------------------------------------

def test_solve_degree_one_kernel_trivial():
    b = sm.basis_Hm(4, 1)
    G0, ker = sm.solve_h_equals_Rm(4, 1, b)
    assert ker.dimension == 0
    assert h_of_G(G0, b) == Poly.radius_squared(4)


def test_solve_degree_two_kernel():
    b = sm.basis_Hm(4, 2)
    G0, ker = sm.solve_h_equals_Rm(4, 2, b)
    R = Poly.radius_squared(4)
    assert h_of_G(G0, b) == R * R
    assert ker.dimension >= 45 - 35 == 10
    for k in ker.elements:
        assert h_of_G(dense(b.dim, k), b).is_zero()
    # rank-nullity against an independent rank computation (sympy)
    import sympy as sp
    from densitylab.harmonic import monomial_exponents
    monos = monomial_exponents(4, 4)
    idx = {e: i for i, e in enumerate(monos)}
    cols = []
    for a in range(9):
        for bb in range(a, 9):
            prod = b.elements[a].poly * b.elements[bb].poly
            col = [0] * len(monos)
            for e, c in prod.terms.items():
                col[idx[e]] = sp.Rational(c.numerator, c.denominator)
            cols.append(col)
    rank = sp.Matrix(cols).T.rank()
    assert ker.dimension == 45 - rank
    assert rank == 35  # products of harmonic quadratics span all of S^4
    ok, _ = G0.psd_certificate()
    assert ok


def test_solve_five_dims():
    rep = sm.nonuniqueness_report(5, 2)
    assert rep["kernel_dimension"] == 105 - 70 == 35
    assert rep["so_dimension"] == 10
    assert rep["margin"] == 25


def whole_matrix_kernel(basis):
    """The kernel of h by one elimination of the whole matrix, over E_ab."""
    pairs = sm._sym_pairs(basis.dim)
    monos = monomial_exponents(basis.n_ambient, 2 * basis.m)
    idx = {e: i for i, e in enumerate(monos)}
    rows = [[Fraction(0)] * len(pairs) for _ in monos]
    for j, (a, b) in enumerate(pairs):
        prod = basis.elements[a].poly * basis.elements[b].poly
        for e, c in prod.terms.items():
            rows[idx[e]][j] = c if a == b else 2 * c
    return reference_nullspace(rows, len(pairs))


@pytest.mark.parametrize("n_amb,m", [(4, 2), (5, 2), (6, 2), (4, 3)])
def test_block_kernel_equals_whole_matrix_nullspace(n_amb, m):
    b = sm.basis_Hm(n_amb, m)
    G0, ker = sm.solve_h_equals_Rm(n_amb, m, b)
    pairs = sm._sym_pairs(b.dim)
    kernel = [dense(b.dim, k) for k in ker.elements]
    got = [[k.entries[a][bb] for a, bb in pairs] for k in kernel]
    assert got == whole_matrix_kernel(b)  # entry for entry, in order
    assert all(gram_from_rows(k.entries) == k for k in kernel)
    # each element holds its nonzero entries at distinct pairs a <= b
    assert all(len({ab for ab, _ in entries}) == len(entries)
               and all(a <= b and num for (a, b), num in entries)
               for _, entries in ker.elements)
    assert G0 == sm.scaled_identity_gram(b)


def test_kernel_basis_is_built_once_on_demand(monkeypatch):
    built = []

    def counting(basis):
        built.append(basis)
        return elements(basis)

    elements = sm._kernel_elements
    monkeypatch.setattr(sm, "_kernel_elements", counting)
    _, ker = sm.solve_h_equals_Rm(4, 2)
    assert built == [] and ker.dimension == 10
    first = ker.elements
    assert len(built) == 1 and len(first) == ker.dimension
    assert ker.elements is first and len(built) == 1


def test_block_kernel_of_a_basis_with_fraction_coefficients():
    # columns over a denominator: scaling h_a scales the columns E_ab
    scaled = fraction_basis()
    _, ker = sm.solve_h_equals_Rm(4, 2, scaled)
    pairs = sm._sym_pairs(scaled.dim)
    kernel = [dense(scaled.dim, k) for k in ker.elements]
    got = [[k.entries[a][bb] for a, bb in pairs] for k in kernel]
    assert got == whole_matrix_kernel(scaled)
    assert all(h_of_G(k, scaled).is_zero() for k in kernel)


# dimension only: the elements would take seconds to build
DIMENSION_ONLY = {(6, 4), (8, 4), (10, 3)}


@pytest.mark.parametrize("n_amb,m", [(4, 1), (4, 2), (5, 2), (6, 2), (4, 3),
                                     (4, 4), (5, 3), (6, 3), (5, 4), (7, 3),
                                     *sorted(DIMENSION_ONLY)])
def test_kernel_dimension_oracle(n_amb, m):
    # h is onto the degree-2m polynomials, so its kernel has dimension
    # D(D+1)/2 - dim P_2m(R^n)
    D = dim_harmonics(n_amb, m)
    _, ker = sm.solve_h_equals_Rm(n_amb, m)
    assert ker.dimension == D * (D + 1) // 2 - math.comb(n_amb + 2 * m - 1, 2 * m)
    if (n_amb, m) not in DIMENSION_ONLY:
        assert len(ker.elements) == ker.dimension


def test_basis_elements_have_one_parity_each():
    for (n_amb, m) in [(4, 2), (5, 2), (4, 3)]:
        for el in sm.basis_Hm(n_amb, m).elements:
            assert len({tuple(k % 2 for k in e) for e in el.poly.terms}) == 1


def test_solve_refuses_a_mixed_parity_basis():
    b = sm.basis_Hm(4, 1)
    mixed = HarmonicElement(Poly.variable(4, 0) + Poly.variable(4, 1), 1)
    bad = sm.HarmonicBasis(4, 1, (mixed,) + b.elements[1:], b.norms,
                           b.invariant_c)
    with pytest.raises(ParamViolation, match="parity"):
        sm.solve_h_equals_Rm(4, 1, bad)


@pytest.mark.parametrize("fn,args", [
    (monomial_exponents, (4.5, 2)), (monomial_exponents, (4, 2.0)),
    (monomial_exponents, (True, 2)), (monomial_exponents, (0, 2)),
    (dim_harmonics, (4.5, 2)), (dim_harmonics, (4, True)),
    (sm.basis_Hm, (4.5, 2)), (sm.basis_Hm, (4, "2")), (sm.basis_Hm, (False, 2)),
], ids=lambda v: repr(v) if isinstance(v, tuple) else v.__name__)
def test_dimension_and_degree_must_be_integers(fn, args):
    with pytest.raises(ParamViolation):
        fn(*args)


def test_solve_requires_ambient_four():
    with pytest.raises(ParamViolation):
        sm.solve_h_equals_Rm(3, 2)


# ----------------------------------------------------------------------
# PSD machinery
# ----------------------------------------------------------------------

def test_psd_certificate_accepts_and_rejects():
    good = gram_from_rows([[2, 1], [1, 2]])
    assert good.psd_certificate() == (True, None)
    semi = gram_from_rows([[1, 1], [1, 1]])
    assert semi.psd_certificate() == (True, None)
    bad = gram_from_rows([[1, 2], [2, 1]])
    ok, w = bad.psd_certificate()
    assert not ok and quadratic_form(bad, w) < 0
    hidden = gram_from_rows([[0, 1], [1, 0]])  # minors are 0, 0
    ok, w = hidden.psd_certificate()
    assert not ok and quadratic_form(hidden, w) < 0


F = Fraction


@pytest.mark.parametrize("rows,steps,witness", [
    ([[4, 2, 0], [2, 5, F(1, 2)], [0, F(1, 2), 3]],      # PSD
     [(1, [2, 5, F(1, 2)], 5), (0, [F(16, 5), 0, F(-1, 5)], F(16, 5)),
      (2, [0, 0, F(47, 16)], F(47, 16))], None),
    ([[1, 2, 0, 1], [2, 5, 1, 1], [0, 1, 1, -1], [1, 1, -1, 2]],  # PSD, rank 2
     [(1, [2, 5, 1, 1], 5), (3, [F(3, 5), 0, F(-6, 5), F(9, 5)], F(9, 5))], None),
    ([[2, 3, 0], [3, 2, 1], [0, 1, 1]],                 # indefinite
     [(0, [2, 3, 0], 2), (2, [0, 1, 1], 1)], [F(-3, 2), 1, -1]),
], ids=["psd", "singular", "indefinite"])
def test_ldlt_steps_and_witness_are_pinned(rows, steps, witness):
    # skipping zero entries must leave every step and the witness as pinned
    G = gram_from_rows(rows)
    got_steps, got_witness = G.ldlt()
    assert got_steps == steps
    assert got_witness == witness
    if witness is not None:
        assert quadratic_form(G, got_witness) < 0


def test_construct_map_rejects_indefinite():
    b = sm.basis_Hm(4, 1)
    G = sm.GramMatrix.diagonal([1, 1, 1, -1])
    with pytest.raises(NotPSD) as err:
        sm.construct_map(G, b)
    assert err.value.witness is not None


def test_construct_map_rejects_wrong_target():
    # PSD, so the components are built; their squares sum to h(G) != R
    b = sm.basis_Hm(4, 1)
    with pytest.raises(ParamViolation, match="not a sum-of-squares certificate"):
        sm.construct_map(sm.GramMatrix.diagonal([2, 1, 1, 1]), b)


# ----------------------------------------------------------------------
# maps
# ----------------------------------------------------------------------

def sum_sq_minus_Rm(components, n_ambient: int, m: int) -> Poly:
    """Sum of the squares of the components minus R^m: one Poly product per
    component, independent of the library's one product per step."""
    return sum((f * f for f in components), Poly.zero(n_ambient)) \
        - sm.radius_power(n_ambient, m)


def test_identity_map():
    b = sm.basis_Hm(4, 1)
    G0, _ = sm.solve_h_equals_Rm(4, 1, b)
    m = sm.construct_map(G0, b)
    assert len(m.components) == 4
    assert sum_sq_minus_Rm(m.components, 4, 1).is_zero()
    assert all(isinstance(f, Poly) for f in m.components)
    assert {tuple(c.terms) for c in m.components} == \
        {((1, 0, 0, 0),), ((0, 1, 0, 0),), ((0, 0, 1, 0),), ((0, 0, 0, 1),)}
    for p in sm.random_sphere_points(4, 10, 0):
        assert sm.energy_density(m, p) == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("call,name", [
    (lambda: sm.random_sphere_points(0, 1, 0), "n_ambient"),
    (lambda: sm.random_sphere_points(-3, 2, 0), "n_ambient"),
    (lambda: sm.random_sphere_points(4.0, 2, 0), "n_ambient"),
    (lambda: sm.random_sphere_points(4, 2.5, 0), "count"),
    (lambda: sm.canonical_exact_map(0, 1), "n_ambient"),
    (lambda: sm.canonical_exact_map(-1, 1), "n_ambient"),
    (lambda: sm.canonical_exact_map(True, 1), "n_ambient"),
    (lambda: sm.canonical_exact_map(4, 2.0), "m"),
], ids=["points-zero", "points-negative", "points-float", "count-float",
        "map-zero", "map-negative", "map-bool", "map-float-m"])
def test_sphere_sizes_are_refused(call, name):
    with pytest.raises(ParamViolation, match=name):
        call()


def test_canonical_exact_quadratic_map():
    m = sm.canonical_exact_map(4, 2)
    assert len(m.components) == 8
    assert sum_sq_minus_Rm(m.components, 4, 2).is_zero()
    for f in m.components:
        assert f.analyst_laplacian().is_zero()
    for p in sm.random_sphere_points(4, 25, 3):
        assert sm.energy_density(m, p) == pytest.approx(8.0, abs=1e-11)


def test_euler_relation_exact_on_components():
    # x . grad F = m F as an exact polynomial identity (restriction
    # eigenvalue bookkeeping: harmonicity plus homogeneity)
    m = sm.canonical_exact_map(4, 2)
    for f in m.components:
        euler = Poly.zero(4)
        for i in range(4):
            euler = euler + Poly.variable(4, i) * f.diff(i)
        assert euler == f.scale(2)


def test_canonical_map_gram_is_in_solution_space():
    b = sm.basis_Hm(4, 2)
    cmap = sm.canonical_exact_map(4, 2)
    G = gram_of_components(cmap.components, b)
    R = Poly.radius_squared(4)
    assert h_of_G(G, b) == R * R
    # the PSD elimination stops at the rank
    assert len(G.ldlt()[0]) == reference_rank(G.entries) == 8
    ok, _ = G.psd_certificate()
    assert ok
    # the pipeline reconstructs an exact map from this certificate
    rebuilt = sm.construct_map(G, b)
    assert len(rebuilt.components) == 8
    assert sum_sq_minus_Rm(rebuilt.components, 4, 2).is_zero()


def test_gram_of_components_refuses_a_component_outside_the_span():
    b = sm.basis_Hm(4, 2)
    x0 = Poly.variable(4, 0)
    with pytest.raises(ParamViolation, match="not in the basis span"):
        gram_of_components([x0 * x0], b)   # not harmonic
    G = gram_of_components([b.elements[2].poly.scale(Fraction(3, 2))], b)
    assert G == sm.GramMatrix.diagonal([Fraction(9, 4) if a == 2 else 0
                                        for a in range(9)])


# (count, sha256 of every component's denominator and sorted numerators),
# as construct_map(G0) gave them when it built each component as a Poly
COMPONENT_DIGESTS = {
    (4, 1): (4, "4158aca9e20ec0873bbbd68791d59dfcdd655fe94a1a166ac6ae745d4713a7a7"),
    (4, 2): (24, "38b34488f15f62c1900a41610da4788b6a9fda633e95dba6b263f36a5f42a870"),
    (5, 2): (30, "cd5a2986265d2019a569e8d1063ef702010eda9fb9291f0e301aec10ff4bba11"),
    (4, 3): (38, "2c69a25fb99815df5b1099f198b6a89a6e35384aa7d134624ba34362646c0e9c"),
    (6, 2): (72, "65b3e2d53676431efb3b828d192e5a216df50ebfb0ff185c1c88ef75fe1a4ac4"),
}


@pytest.mark.parametrize("size", sorted(COMPONENT_DIGESTS))
def test_components_view_is_pinned(size):
    # count, order and every coefficient of the components read off the steps
    b = sm.basis_Hm(*size)
    the_map = sm.construct_map(sm.scaled_identity_gram(b), b)
    comps = the_map.components
    text = repr([(c.den, sorted(c.nums.items())) for c in comps])
    assert (len(comps), hashlib.sha256(text.encode()).hexdigest()) == COMPONENT_DIGESTS[size]
    # each step's components are the multiples s_i / b of its f_k, whose
    # squares sum to piv_k
    for f, piv, squares in the_map.steps:
        assert sum(Fraction(s, piv.denominator) ** 2 for s in squares) == piv > 0


@pytest.mark.parametrize("size", [(4, 2), (5, 2), (4, 3)])
def test_steps_satisfy_the_exact_energy_identity(size):
    # Laplacian of sum_k piv_k f_k^2 = R^m with Delta f_k = 0:
    # sum_k piv_k |grad f_k|^2 = m (n + 2m - 2) R^(m-1), as polynomials
    n, m = size
    b = sm.basis_Hm(n, m)
    the_map = sm.construct_map(sm.scaled_identity_gram(b), b)
    total = Poly.zero(n)
    for f, piv, _ in the_map.steps:
        assert f.analyst_laplacian().is_zero()
        for j in range(n):
            total = total + (f.diff(j) * f.diff(j)).scale(piv)
    assert total == sm.radius_power(n, m - 1).scale(m * (n + 2 * m - 2))


@pytest.mark.parametrize("size", [(4, 1), (4, 2), (5, 2), (4, 3)])
def test_stepped_sum_of_squares_matches_the_component_oracle(size):
    # the one product per step decides as the one product per component does,
    # on the map and on the map with its last pivot four times too large
    b = sm.basis_Hm(*size)
    the_map = sm.construct_map(sm.scaled_identity_gram(b), b)
    assert sm._sum_of_squares_is_Rm(the_map)
    assert sum_sq_minus_Rm(the_map.components, *size).is_zero()
    f, piv, _ = the_map.steps[-1]
    off = sm.SphericalHarmonicMap(
        the_map.n_ambient, the_map.m,
        the_map.steps[:-1] + (sm._step(f, 4 * piv),))
    assert not sm._sum_of_squares_is_Rm(off)
    assert not sum_sq_minus_Rm(off.components, *size).is_zero()


@pytest.mark.parametrize("n_amb,m,count,rank", [
    (4, 2, 24, 9), (5, 2, 30, 14), (4, 3, 38, 16), (5, 3, 87, 30)])
def test_scaled_identity_map_is_exact(n_amb, m, count, rank):
    # no pivot of G0 at these sizes is a rational square
    b = sm.basis_Hm(n_amb, m)
    G0, _ = sm.solve_h_equals_Rm(n_amb, m, b)
    the_map = sm.construct_map(G0, b)
    assert len(the_map.components) == count
    assert reference_rank(G0.entries) == rank
    assert sum_sq_minus_Rm(the_map.components, n_amb, m).is_zero()
    for f in the_map.components:
        assert f.analyst_laplacian().is_zero()
    lam = m * (m + n_amb - 2)
    pts = sm.random_sphere_points(n_amb, 20, 5)
    assert abs(sm.energy_density(the_map, pts) - lam).max() < 1e-9


def _oracle_square_counts(limit: int) -> list[int]:
    """The fewest squares summing to each n < limit, by dynamic programming."""
    counts = [0] + [4] * (limit - 1)
    for n in range(1, limit):
        counts[n] = 1 + min(counts[n - s * s] for s in range(1, math.isqrt(n) + 1))
    return counts


def test_fewest_squares_match_the_oracle():
    counts = _oracle_square_counts(4097)
    for n in range(1, 4097):
        found = sm._fewest_squares(n)
        assert sum(s * s for s in found) == n
        assert len(found) == counts[n]
        assert all(s > 0 for s in found) and list(found) == sorted(found, reverse=True)
        assert sm._fewest_squares(n) == found


def test_legendre_values_take_four_squares():
    # a spread of n = 4^a (8b + 7) below 2^20; by brute force over a table
    # of the sums of two squares, none is a sum of three squares
    limit = 1 << 20
    squares = np.arange(math.isqrt(limit) + 1) ** 2
    two = np.zeros(limit + 1, dtype=bool)
    for s2 in squares.tolist():
        two[s2 + squares[squares <= limit - s2]] = True
    for a in range(10):
        top = (limit // 4 ** a - 7) // 8
        for b in range(0, top + 1, max(1, top // 40)):
            n = 4 ** a * (8 * b + 7)
            assert not two[n - squares[squares <= n]].any()
            found = sm._fewest_squares(n)
            assert len(found) == 4 and sum(s * s for s in found) == n
            assert all(s > 0 for s in found)
            assert sm._fewest_squares(n) == found


def test_fewest_squares_refuse_the_bound():
    assert sm._fewest_squares((2 ** 20 - 1) ** 2) == (2 ** 20 - 1,)
    with pytest.raises(ParamViolation, match=r"2\^40"):
        sm._fewest_squares(2 ** 40)
    # a PSD point whose pivots have denominators beyond the bound
    b = sm.basis_Hm(4, 2)
    G0, ker = sm.solve_h_equals_Rm(4, 2, b)
    G, t = sm.psd_point_on_line(G0, ker.elements[0], Fraction(1, 3 ** 30))
    assert t == Fraction(1, 3 ** 30)
    with pytest.raises(ParamViolation, match=r"2\^40"):
        sm.construct_map(G, b)


def test_kernel_line_gives_inequivalent_map():
    b = sm.basis_Hm(4, 2)
    G0, ker = sm.solve_h_equals_Rm(4, 2, b)
    G, t = sm.psd_point_on_line(G0, ker.elements[0])
    assert t > 0
    assert h_of_G(G, b) == h_of_G(G0, b)
    assert G.entries != G0.entries  # different Gram matrix: inequivalent data
    m = sm.construct_map(G, b)
    for p in sm.random_sphere_points(4, 10, 7):
        assert sm.energy_density(m, p) == pytest.approx(8.0, abs=1e-9)


@pytest.mark.parametrize("n_amb,m,element,t", [
    (4, 2, 0, Fraction(1, 2)), (4, 2, 3, Fraction(1, 2)),
    (5, 2, 0, Fraction(1, 2)), (5, 2, 11, Fraction(1, 4)),
    (4, 3, 0, Fraction(1, 2)), (4, 3, 7, Fraction(1, 8))])
def test_psd_point_on_line_halves_to_a_psd_point(n_amb, m, element, t):
    b = sm.basis_Hm(n_amb, m)
    G0, ker = sm.solve_h_equals_Rm(n_amb, m, b)
    k = ker.elements[element]
    G, got = sm.psd_point_on_line(G0, k)
    assert got == t and G == G0.add(k, t)
    assert G.psd_certificate()[0]
    if t < Fraction(1, 2):   # the value before the last halving is refused
        assert not G0.add(k, 2 * t).psd_certificate()[0]
    the_map = sm.construct_map(G, b)
    assert sum_sq_minus_Rm(the_map.components, n_amb, m).is_zero()


@pytest.mark.parametrize("t_target", [0, -0.5, math.inf, math.nan, float("-inf")])
def test_psd_point_on_line_refuses_a_bad_start(t_target):
    b = sm.basis_Hm(4, 2)
    G0, ker = sm.solve_h_equals_Rm(4, 2, b)
    with pytest.raises(ParamViolation, match="t_target"):
        sm.psd_point_on_line(G0, ker.elements[0], t_target)


def test_psd_point_on_line_gives_up_after_sixty_halvings():
    G0 = sm.GramMatrix.diagonal([0, 1])
    k = (1, (((0, 0), -1),))   # G0 + t k is indefinite for t > 0
    with pytest.raises(ParamViolation, match="no PSD point"):
        sm.psd_point_on_line(G0, k)


def test_no_floating_eigensolver_is_needed(monkeypatch, fresh_bases):
    import numpy as np
    from densitylab import cli

    def refuse(*args, **kwargs):
        raise AssertionError("floating eigensolver called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    b = sm.basis_Hm(4, 2)
    G0, ker = sm.solve_h_equals_Rm(4, 2, b)
    assert len(sm.construct_map(G0, b).components) == 24
    G, _ = sm.psd_point_on_line(G0, ker.elements[0])
    assert len(sm.construct_map(G, b).components) == 24
    for mode, size in (("construct", (5, 2)), ("verify", (4, 3))):
        sc = cli.Scenario.from_config({
            "suite": "maps", "mode": mode,
            "params": {"n_ambient": size[0], "m": size[1]}})
        assert cli.run(sc)["overall"] == "pass"


def test_energy_density_guards_sphere():
    m = sm.canonical_exact_map(4, 1)
    with pytest.raises(NotOnSphere):
        sm.energy_density(m, [1.0, 1.0, 0.0, 0.0])


def test_energy_density_batch_names_the_first_point_off_the_sphere():
    m = sm.canonical_exact_map(4, 2)
    pts = sm.random_sphere_points(4, 6, 1)
    pts[3] = [0.5, 0.5, 0.5, 0.75]
    with pytest.raises(NotOnSphere, match=r"^\|point\|\^2 = 1\.3125$"):
        sm.energy_density(m, pts)
    pts[5] = [1.0, 1.0, 0.0, 0.0]
    with pytest.raises(NotOnSphere, match=r"^\|point\|\^2 = 1\.3125$"):
        sm.energy_density(m, pts)


def test_energy_density_refuses_points_of_another_dimension():
    m = sm.canonical_exact_map(4, 1)
    for points in ([1.0, 0.0, 0.0], [[1.0, 0.0, 0.0]], 1.0):
        with pytest.raises(DimensionMismatch):
            sm.energy_density(m, points)


def exact_energy(m: sm.SphericalHarmonicMap, point) -> Fraction:
    """The energy density at the float point, in exact rationals."""
    x = [Fraction(v) for v in point]

    def value(f: Poly) -> Fraction:
        return sum((c * math.prod(xi ** k for xi, k in zip(x, e))
                    for e, c in f.terms.items()), Fraction(0))

    return sum(sum(value(f.diff(j)) ** 2 for j in range(m.n_ambient))
               - (m.m * value(f)) ** 2 for f in m.components)


@pytest.mark.parametrize("n_amb,deg", [(4, 1), (4, 2), (5, 2), (4, 3), (6, 2), (5, 3)])
def test_energy_density_batch_matches_points_and_exact_values(n_amb, deg):
    if (n_amb, deg) in ((4, 1), (4, 2)):
        m = sm.canonical_exact_map(n_amb, deg)
    else:
        b = sm.basis_Hm(n_amb, deg)
        m = sm.construct_map(sm.scaled_identity_gram(b), b)
    pts = sm.random_sphere_points(n_amb, 12, 11)
    batch = sm.energy_density(m, pts)
    assert batch.shape == (12,)
    for p, e in zip(pts, batch):
        one = sm.energy_density(m, p)
        assert type(one) is float
        assert abs(one - e) <= 1e-12
        assert abs(Fraction(e) - exact_energy(m, p)) <= 1e-12
        assert abs(e - m.eigenvalue) <= 1e-11


def energy_through_derivative_polys(m: sm.SphericalHarmonicMap, pts) -> np.ndarray:
    """The energy density from f_k.diff(j) polynomials, one f_k per step
    weighted by its pivot: each list of polynomials becomes a float table
    over its sorted keys, evaluated by one einsum."""
    shifts = _shifts(m.n_ambient)

    def evaluate(polys):
        exps = sorted({e for f in polys for e in f.nums})
        coefs = np.array([[f.nums.get(e, 0) / f.den for e in exps] for f in polys],
                         dtype=float).reshape(len(polys), len(exps))
        powers = np.array([_unpack(e, shifts) for e in exps],
                          dtype=int).reshape(len(exps), m.n_ambient)
        monos = np.ones((len(pts), len(exps)))
        for i in range(m.n_ambient):
            monos *= pts[:, i:i + 1] ** powers[:, i]
        return np.einsum("pe,ae->pa", monos, coefs)

    polys = [f for f, _, _ in m.steps]
    values = evaluate(polys)
    grads = evaluate([f.diff(j) for f in polys for j in range(m.n_ambient)])
    grad_sq = (grads ** 2).reshape(len(pts), len(polys), m.n_ambient)
    weights = np.array([float(piv) for _, piv, _ in m.steps])
    return ((grad_sq.sum(axis=2) - (m.m * values) ** 2) * weights).sum(axis=1)


@pytest.mark.parametrize("n_amb,deg", [(4, 3), (5, 3)])
def test_energy_density_builds_no_derivative_polynomial(monkeypatch, n_amb, deg):
    b = sm.basis_Hm(n_amb, deg)
    m = sm.construct_map(sm.scaled_identity_gram(b), b)
    pts = np.array(sm.random_sphere_points(n_amb, 50, 23))
    expected = energy_through_derivative_polys(m, pts)

    def refuse(self, i):
        raise AssertionError("a derivative polynomial was built")

    monkeypatch.setattr(Poly, "diff", refuse)
    got = sm.energy_density(m, pts)
    assert got.tobytes() == expected.tobytes()   # bit for bit
    assert abs(sm.energy_density(m, pts[7]) - expected[7]) <= 1e-12


def test_maps_kernel_builds_no_gram_matrix(monkeypatch):
    expected = {(4, 2): (10, 6), (5, 3): (255, 10), (6, 3): (813, 15)}
    b = sm.basis_Hm(4, 2)

    def refuse(basis):
        raise AssertionError("a Gram matrix was built")

    monkeypatch.setattr(sm, "scaled_identity_gram", refuse)
    for (n_amb, m), (dim, so) in expected.items():
        assert sm.nonuniqueness_report(n_amb, m) == {
            "n_ambient": n_amb, "m": m, "kernel_dimension": dim, "so_dimension": so,
            "margin": dim - so, "nonuniqueness_assured": True}
    with pytest.raises(AssertionError, match="Gram matrix"):
        sm.solve_h_equals_Rm(4, 2, b)
    monkeypatch.undo()
    G0, ker = sm.solve_h_equals_Rm(4, 2, b)
    assert G0 == sm.scaled_identity_gram(b) and ker.dimension == 10


def test_nonuniqueness_margins():
    rep = sm.nonuniqueness_report(4, 2)
    assert rep["kernel_dimension"] >= 10
    assert rep["so_dimension"] == 6
    assert rep["margin"] >= 4 and rep["nonuniqueness_assured"]
    rep1 = sm.nonuniqueness_report(4, 1)
    assert rep1["kernel_dimension"] == 0 and not rep1["nonuniqueness_assured"]
