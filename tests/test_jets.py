"""Jet algebra against finite-difference and algebraic oracles."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densitylab.errors import RangeViolation
from densitylab.jets import (
    BatchStatus,
    Jet,
    guard,
    jet_acos,
    jet_asinh,
    jet_atan,
    jet_atan2,
    jet_cos,
    jet_cosh,
    jet_exp,
    jet_log,
    jet_sin,
    jet_sinh,
    jet_sqrt,
)

SLOTS2 = ("value", "dx", "dy", "dxx", "dxy", "dyy")
SLOTS3 = SLOTS2 + ("dxxx", "dxxy", "dxyy", "dyyy")


def composite(x, y):
    return math.asinh(math.cos(y + 0.3) / math.sinh(x)) \
        * math.sqrt(x + 2.0 * y) + math.atan(x * y)


def composite_jet(x, y):
    X, Y = Jet.variables(x, y, 3)
    return jet_asinh(jet_cos(Y + 0.3) / jet_sinh(X)) * jet_sqrt(X + 2.0 * Y) \
        + jet_atan(X * Y)


def fd_table(f, x0, y0):
    """Central differences; step sizes chosen per derivative order."""
    h1, h2, h3 = 1e-6, 1e-4, 2e-3
    out = {
        "value": f(x0, y0),
        "dx": (f(x0 + h1, y0) - f(x0 - h1, y0)) / (2 * h1),
        "dy": (f(x0, y0 + h1) - f(x0, y0 - h1)) / (2 * h1),
        "dxx": (f(x0 + h2, y0) - 2 * f(x0, y0) + f(x0 - h2, y0)) / h2 ** 2,
        "dyy": (f(x0, y0 + h2) - 2 * f(x0, y0) + f(x0, y0 - h2)) / h2 ** 2,
        "dxy": (f(x0 + h2, y0 + h2) - f(x0 + h2, y0 - h2)
                - f(x0 - h2, y0 + h2) + f(x0 - h2, y0 - h2)) / (4 * h2 ** 2),
        "dxxx": (f(x0 + 2 * h3, y0) - 2 * f(x0 + h3, y0)
                 + 2 * f(x0 - h3, y0) - f(x0 - 2 * h3, y0)) / (2 * h3 ** 3),
        "dyyy": (f(x0, y0 + 2 * h3) - 2 * f(x0, y0 + h3)
                 + 2 * f(x0, y0 - h3) - f(x0, y0 - 2 * h3)) / (2 * h3 ** 3),
    }

    def fxx(y):
        return (f(x0 + h3, y) - 2 * f(x0, y) + f(x0 - h3, y)) / h3 ** 2

    def fyy(x):
        return (f(x, y0 + h3) - 2 * f(x, y0) + f(x, y0 - h3)) / h3 ** 2

    out["dxxy"] = (fxx(y0 + h3) - fxx(y0 - h3)) / (2 * h3)
    out["dxyy"] = (fyy(x0 + h3) - fyy(x0 - h3)) / (2 * h3)
    return out


def test_composite_jet_matches_finite_differences():
    x0, y0 = 1.2, 0.4
    J = composite_jet(x0, y0)
    table = fd_table(composite, x0, y0)
    for slot in SLOTS3:
        got = getattr(J, slot)
        ref = table[slot]
        assert abs(got - ref) / max(1.0, abs(ref)) < 2e-5, (slot, got, ref)


@pytest.mark.parametrize("fn,jfn", [
    (math.sin, jet_sin), (math.cos, jet_cos), (math.sinh, jet_sinh),
    (math.cosh, jet_cosh), (math.exp, jet_exp), (math.atan, jet_atan),
    (math.asinh, jet_asinh),
])
def test_elementary_values(fn, jfn):
    X, _ = Jet.variables(0.7, 0.0, 3)
    assert jfn(X).value == pytest.approx(fn(0.7), abs=1e-15)


def test_log_sqrt_acos_values():
    X, _ = Jet.variables(0.7, 0.0, 3)
    assert jet_log(X).value == pytest.approx(math.log(0.7))
    assert jet_sqrt(X).value == pytest.approx(math.sqrt(0.7))
    assert jet_acos(X).value == pytest.approx(math.acos(0.7))


@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
@settings(max_examples=60, deadline=None)
def test_product_rule_is_exact(a, b, c, d):
    # jets of two quadratics multiply to the jet of their product
    X, Y = Jet.variables(0.3, -0.4, 3)
    f = a * X + b * Y * Y + 1.0
    g = c * X * X + d * Y + 2.0
    prod = f * g

    def fv(x, y):
        return (a * x + b * y * y + 1.0) * (c * x * x + d * y + 2.0)

    table = fd_table(fv, 0.3, -0.4)
    for slot in ("value", "dx", "dy", "dxy"):
        assert abs(getattr(prod, slot) - table[slot]) < 1e-7


def test_division_inverts_multiplication():
    X, Y = Jet.variables(0.9, 0.2, 3)
    f = jet_cosh(X) + Y * Y
    g = jet_exp(Y) + 2.0
    back = (f * g) / g
    for slot in SLOTS3:
        assert getattr(back, slot) == pytest.approx(getattr(f, slot), abs=1e-12)


def test_deriv_shifts_slots():
    J = Jet(1.0, dx=2.0, dy=3.0, dxx=4.0, dxy=5.0, dyy=6.0,
            dxxx=7.0, dxxy=8.0, dxyy=9.0, dyyy=10.0, order=3)
    dx = J.deriv("x")
    assert (dx.value, dx.dx, dx.dy) == (2.0, 4.0, 5.0)
    assert (dx.dxx, dx.dxy, dx.dyy) == (7.0, 8.0, 9.0)
    dy = J.deriv("y")
    assert (dy.value, dy.dx, dy.dy) == (3.0, 5.0, 6.0)
    assert (dy.dxx, dy.dxy, dy.dyy) == (8.0, 9.0, 10.0)
    assert dx.order == 2


def test_truncate_zeroes_higher_slots():
    J = Jet(1.0, dx=2.0, dy=3.0, dxx=4.0, dxy=5.0, dyy=6.0,
            dxxx=7.0, dxxy=8.0, dxyy=9.0, dyyy=10.0, order=3)
    t = J.truncate(1)
    assert t.order == 1 and t.dxx == 0.0 and t.dxxx == 0.0
    assert (t.value, t.dx, t.dy) == (1.0, 2.0, 3.0)


def test_atan2_jet_matches_field_derivatives():
    def ang(x, y):
        return math.atan2(-math.sin(y) * math.sinh(x),
                          -math.cos(y) * math.cosh(x))

    for (x0, y0) in [(0.8, 0.5), (0.8, 2.5), (1.2, -2.9)]:
        X, Y = Jet.variables(x0, y0, 2)
        J = jet_atan2(-jet_sin(Y) * jet_sinh(X), -jet_cos(Y) * jet_cosh(X))
        h = 1e-6
        assert J.value == pytest.approx(ang(x0, y0), abs=1e-14)
        assert J.dx == pytest.approx((ang(x0 + h, y0) - ang(x0 - h, y0)) / (2 * h),
                                     abs=1e-7)
        assert J.dy == pytest.approx((ang(x0, y0 + h) - ang(x0, y0 - h)) / (2 * h),
                                     abs=1e-7)


def test_integer_powers():
    X, Y = Jet.variables(1.1, 0.6, 3)
    f = X + Y
    assert (f ** 3).value == pytest.approx(1.7 ** 3)
    assert (f ** 3).dx == pytest.approx(3 * 1.7 ** 2)
    assert (f ** -2).value == pytest.approx(1.7 ** -2)
    with pytest.raises(TypeError):
        f ** 0.5


# ----------------------------------------------------------------------
# array slots: a batch of jets, element by element like the scalar jets
# ----------------------------------------------------------------------

def random_rows(rng, n, lo, hi):
    """n rows of ten slot values: the value in [lo, hi], partials in [-1, 1]."""
    return [[rng.uniform(lo, hi)] + [rng.uniform(-1.0, 1.0) for _ in range(9)]
            for _ in range(n)]


def batch_of(rows):
    return Jet(*np.array(rows).T, order=3)


def assert_elementwise(batch, scalars, rel):
    for slot in SLOTS3:
        got = getattr(batch, slot)
        want = np.array([getattr(j, slot) for j in scalars])
        if rel == 0.0:
            assert np.array_equal(got, want), slot
        else:
            assert np.allclose(got, want, rtol=rel, atol=rel), slot


def test_array_ring_operations_match_scalar_jets():
    rng = random.Random(11)
    f_rows, g_rows = random_rows(rng, 40, 0.5, 2.0), random_rows(rng, 40, 0.5, 2.0)
    F, G = batch_of(f_rows), batch_of(g_rows)
    fs = [Jet(*r, order=3) for r in f_rows]
    gs = [Jet(*r, order=3) for r in g_rows]
    # the same float operations in the same order: bit for bit
    assert_elementwise(F * G, [f * g for f, g in zip(fs, gs)], 0.0)
    assert_elementwise(F + G, [f + g for f, g in zip(fs, gs)], 0.0)
    assert_elementwise(F - 0.7 * G, [f - 0.7 * g for f, g in zip(fs, gs)], 0.0)
    assert_elementwise(F ** 3, [f ** 3 for f in fs], 0.0)
    assert_elementwise(2.0 - F, [2.0 - f for f in fs], 0.0)
    # integer powers of the value go through numpy's power here
    assert_elementwise(F / G, [f / g for f, g in zip(fs, gs)], 1e-13)
    assert_elementwise(F ** -2, [f ** -2 for f in fs], 1e-13)
    assert_elementwise(1.0 / F, [1.0 / f for f in fs], 1e-13)


@pytest.mark.parametrize("jfn,lo,hi", [
    (jet_sin, -3.0, 3.0), (jet_cos, -3.0, 3.0), (jet_sinh, -2.0, 2.0),
    (jet_cosh, -2.0, 2.0), (jet_exp, -2.0, 2.0), (jet_log, 0.2, 3.0),
    (jet_sqrt, 0.2, 3.0), (jet_asinh, -2.0, 2.0), (jet_atan, -2.0, 2.0),
    (jet_acos, -0.8, 0.8),
])
def test_array_elementary_functions_match_scalar_jets(jfn, lo, hi):
    rows = random_rows(random.Random(12), 40, lo, hi)
    assert_elementwise(jfn(batch_of(rows)), [jfn(Jet(*r, order=3)) for r in rows],
                       1e-13)


def test_array_atan2_takes_each_elements_branch():
    rng = random.Random(13)
    # values on all four quadrants, on both sides of the diagonal
    y_rows, x_rows = random_rows(rng, 60, -2.0, 2.0), random_rows(rng, 60, -2.0, 2.0)
    got = jet_atan2(batch_of(y_rows), batch_of(x_rows))
    want = [jet_atan2(Jet(*y, order=3), Jet(*x, order=3))
            for y, x in zip(y_rows, x_rows)]
    assert_elementwise(got, want, 1e-12)


@pytest.mark.parametrize("y_value", [0.0, -0.0, 5e-324])
def test_array_atan2_over_a_shared_float_y_at_or_next_to_zero(y_value):
    # the x / y branch that no element takes divides by the shared y; it
    # must run as a numpy division, silenced, not as Python's float one
    rng = random.Random(14)
    y_row = [y_value] + [rng.uniform(-1.0, 1.0) for _ in range(9)]
    x_rows = random_rows(rng, 30, 0.5, 2.0)
    for row in x_rows[::2]:
        row[0] = -row[0]
    got = jet_atan2(Jet(*y_row, order=3), batch_of(x_rows))
    want = [jet_atan2(Jet(*y_row, order=3), Jet(*x, order=3)) for x in x_rows]
    assert_elementwise(got, want, 1e-12)


def test_floats_and_arrays_mix_within_one_jet():
    # an order-2 batch keeps its third-order slots as float zeros
    X = Jet(np.array([0.3, 0.9]), dx=1.0, order=2)
    prod = jet_sin(X) * X
    assert prod.dxxx == 0.0 and isinstance(prod.dxxx, float)
    for i, x in enumerate((0.3, 0.9)):
        s = jet_sin(Jet(x, dx=1.0, order=2)) * Jet(x, dx=1.0, order=2)
        for slot in SLOTS2:
            assert getattr(prod, slot)[i] == pytest.approx(getattr(s, slot),
                                                           rel=1e-14, abs=1e-15)


def test_guard_records_the_first_failure_and_masks_the_element():
    status = BatchStatus(4)
    guard(np.array([False, True, False, False]), RangeViolation, "x", status=status)
    guard(np.array([False, True, True, False]), ZeroDivisionError, "y",
          status=status)
    assert status.errors == [None, RangeViolation, ZeroDivisionError, None]
    assert status.failed.tolist() == [False, True, True, False]


def test_guard_without_status_raises():
    with pytest.raises(RangeViolation, match="got 2.5"):
        guard(True, RangeViolation, "got {}", 2.5)
    guard(False, RangeViolation, "got {}", 2.5)
    with pytest.raises(RangeViolation, match="got 3.0"):
        guard(np.array([False, True]), RangeViolation, "got {}",
              np.array([1.0, 3.0]))


def test_coordinate_jets_of_arrays_are_batches():
    X, Y = Jet.variables(np.array([0.5, 1]), np.array([2.0, -1.0]), order=2)
    assert X.value.dtype == float and X.value.tolist() == [0.5, 1.0]
    assert (X.dx, X.dy, Y.dx, Y.dy) == (1.0, 0.0, 0.0, 1.0)
    f = jet_sin(X * Y)
    for i in range(2):
        x, y = Jet.variables(X.value[i], Y.value[i], 2)
        s = jet_sin(x * y)
        for slot in SLOTS2:
            assert getattr(f, slot)[i] == pytest.approx(getattr(s, slot), abs=1e-15)


def test_status_keeps_each_elements_scalar_exception():
    status = BatchStatus(3)
    values = np.array([1.0, 2.5, 3.5])
    guard(values > 3.0, RangeViolation, "got {} of {}", values, "x", status=status)
    guard(values > 2.0, ZeroDivisionError, "over {}", values, status=status)
    exc = status.exception(2)
    assert type(exc) is RangeViolation and str(exc) == "got 3.5 of x"
    exc = status.exception(1)
    assert type(exc) is ZeroDivisionError and str(exc) == "over 2.5"
    with pytest.raises(ValueError):
        status.exception(0)


# ----------------------------------------------------------------------
# only the work an order reads: the short routes give the long routes' bits
# ----------------------------------------------------------------------

FINITE = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0])


@st.composite
def jets(draw, value=FINITE, order=None):
    """A jet of order 0-3 whose slots up to the order are finite: floats, or
    for a batch each an array of three or a float shared by the three."""
    k = draw(st.integers(0, 3)) if order is None else order
    batch = draw(st.booleans())

    def slot(values):
        if batch and draw(st.booleans()):
            return np.array(draw(st.lists(values, min_size=3, max_size=3)))
        return draw(values)

    read = (1, 3, 6, 10)[k]
    return Jet(slot(value), *(slot(FINITE) for _ in range(read - 1)), order=k)


def slot_bits(jet, zeros_by_value=False):
    """The bytes of every slot, broadcast to the jet's batch shape; with
    zeros_by_value, -0.0 reads as 0.0."""
    slots = np.broadcast_arrays(*(np.asarray(getattr(jet, s), dtype=float)
                                  for s in SLOTS3))
    if zeros_by_value:
        slots = [s + 0.0 for s in slots]
    return [s.tobytes() for s in slots]


@given(jets(), st.floats(-1e3, 1e3) | st.integers(-5, 5))
@settings(max_examples=200, deadline=None)
def test_a_number_scales_each_slot_as_the_product_with_its_constant_jet(J, c):
    # scaling skips the Leibniz terms in the constant's zero slots, which
    # can only change the sign of an exact zero
    want = slot_bits(J * Jet.constant(c, J.order), zeros_by_value=True)
    for got in (c * J, J * c):
        assert got.order == J.order
        assert slot_bits(got, zeros_by_value=True) == want


def binary_power_chain(J, n):
    """J ** n as the products of binary powering, written out."""
    if n < 0:
        return binary_power_chain(J, -n)._reciprocal()
    square = J * J
    fourth = square * square
    return {0: Jet.constant(1.0, J.order), 1: J, 2: square, 3: J * square,
            4: fourth, 5: J * fourth}[n]


@given(jets(value=st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)), st.integers(-3, 5))
@settings(max_examples=200, deadline=None)
def test_integer_powers_are_the_binary_powering_products(J, n):
    got = J ** n
    assert got.order == J.order
    assert slot_bits(got) == slot_bits(binary_power_chain(J, n))


ELEMENTARY = [(jet_sin, -10.0, 10.0), (jet_cos, -10.0, 10.0), (jet_sinh, -5.0, 5.0),
              (jet_cosh, -5.0, 5.0), (jet_exp, -5.0, 5.0), (jet_log, 0.01, 100.0),
              (jet_sqrt, 0.01, 100.0), (jet_asinh, -10.0, 10.0),
              (jet_atan, -10.0, 10.0), (jet_acos, -0.99, 0.99)]


@pytest.mark.parametrize("fn,lo,hi", ELEMENTARY)
@given(data=st.data(), k=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_elementary_functions_at_each_order_truncate_their_order_3_jets(fn, lo, hi,
                                                                        data, k):
    # the factors f2 and f3 an order does not read are never computed; the
    # slots it reads keep their bits
    J = data.draw(jets(value=st.floats(lo, hi), order=3))
    assert slot_bits(fn(J.truncate(k))) == slot_bits(fn(J).truncate(k))


AWAY_FROM_0 = st.floats(0.1, 10.0) | st.floats(-10.0, -0.1)


@given(jets(value=AWAY_FROM_0, order=3), jets(value=AWAY_FROM_0, order=3),
       st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_atan2_at_each_order_truncates_its_order_3_jet(Y, X, k):
    assert (slot_bits(jet_atan2(Y.truncate(k), X.truncate(k)))
            == slot_bits(jet_atan2(Y, X).truncate(k)))
