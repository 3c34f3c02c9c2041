"""Truncated Taylor algebra in two variables up to third order.

A ``Jet`` stores the value and partial derivatives of a scalar field at a
point, up to ``order`` (0..3).  Mixed partials occupy a single slot each, so
symmetry holds by construction.  Arithmetic and the elementary functions
propagate derivatives by the chain rule, which is how every "analytic
differentiation through a formula" in this package is carried out; finite
differences are reserved for independent test oracles.

Each slot holds either a float or a numpy array, and the arrays of one jet
share one length: such a jet is a batch of that many jets, one per element
(Taylor-mode differentiation run over many points at once; Griewank and
Walther, *Evaluating Derivatives*, 2nd ed., ch. 13).  Floats and arrays mix
freely, so a slot that is the same for every element, such as a zero
derivative, stays a float.  There is one implementation for both kinds: the
arithmetic performs the same float operations in the same order, and the
elementary functions take ``math`` on float values and numpy on array values
(:func:`math_for`).  A jet with float slots therefore gives exactly the
results it always gave; an element of a batch agrees with its scalar jet up
to last-digit differences between the two libraries' functions.

Masked guards.  A library guard that fails on a float jet raises one of the
classes in :mod:`densitylab.errors`.  On a batch, one bad element must not
abort the others, so every guard that sees jet values goes through
:func:`guard`.  Given a :class:`BatchStatus` it records, for each element
that fails, the exception class the scalar call would raise, and masks the
element: its outcome stays fixed at that first failure, later guards skip
it, and its numbers, which may be inf or nan from then on, are never
reported.  Without a status the guard raises, on floats as always and on a
batch as soon as any element fails (with that element's scalar message).
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

_SLOTS = ("value", "dx", "dy", "dxx", "dxy", "dyy", "dxxx", "dxxy", "dxyy", "dyyy")

_MATH = SimpleNamespace(
    sin=math.sin, cos=math.cos, sinh=math.sinh, cosh=math.cosh, exp=math.exp,
    log=math.log, sqrt=math.sqrt, asinh=math.asinh, atan=math.atan,
    acos=math.acos, atan2=math.atan2, hypot=math.hypot, maximum=max,
    minimum=min)
_NUMPY = SimpleNamespace(
    sin=np.sin, cos=np.cos, sinh=np.sinh, cosh=np.cosh, exp=np.exp,
    log=np.log, sqrt=np.sqrt, asinh=np.arcsinh, atan=np.arctan,
    acos=np.arccos, atan2=np.arctan2, hypot=np.hypot, maximum=np.maximum,
    minimum=np.minimum)


def math_for(*values):
    """The elementary functions for these values: numpy if any is an array.

    Both namespaces offer sin, cos, sinh, cosh, exp, log, sqrt, asinh, atan,
    acos, atan2, hypot and two-argument maximum and minimum.
    """
    for v in values:
        if isinstance(v, np.ndarray):
            return _NUMPY
    return _MATH


class BatchStatus:
    """Outcome of each element of a batch: ok, or the first guard it failed.

    ``errors[i]`` is None while element i is ok and the exception class of
    its first failed guard afterwards; ``failed`` is the matching mask.
    """

    __slots__ = ("failed", "errors")

    def __init__(self, n: int):
        self.failed = np.zeros(n, dtype=bool)
        self.errors: list = [None] * n

    def record(self, bad, exc: type) -> None:
        new = np.flatnonzero(bad & ~self.failed)
        for i in new:
            self.errors[i] = exc
        self.failed[new] = True


def guard(bad, exc: type, message: str, *args, status: BatchStatus | None = None
          ) -> None:
    """The one guard for float and array jets.

    ``bad`` is a bool, or a bool array with one entry per element.  With a
    status, the failing elements are recorded as ``exc`` and masked (see the
    module docstring).  Without one, ``exc(message.format(*args))`` is raised
    where ``bad`` holds; on a batch the message is formatted with the array
    arguments taken at the first failing element.
    """
    if status is not None:
        status.record(bad, exc)
    elif isinstance(bad, np.ndarray):
        if bad.any():
            i = int(np.argmax(bad))
            raise exc(message.format(
                *(a[i] if isinstance(a, np.ndarray) else a for a in args)))
    elif bad:
        raise exc(message.format(*args))


class Jet:
    """Scalar 2-jet/3-jet: value and partials of a field at a point.

    Slots are floats or equal-length numpy arrays (a batch of jets); jets
    are values, and no operation changes one in place.
    """

    __slots__ = _SLOTS + ("order",)

    def __init__(self, value, dx=0.0, dy=0.0, dxx=0.0, dxy=0.0, dyy=0.0,
                 dxxx=0.0, dxxy=0.0, dxyy=0.0, dyyy=0.0, order: int = 3):
        self.value = value
        self.dx = dx
        self.dy = dy
        self.dxx = dxx
        self.dxy = dxy
        self.dyy = dyy
        self.dxxx = dxxx
        self.dxxy = dxxy
        self.dxyy = dxyy
        self.dyyy = dyyy
        self.order = order

    def __repr__(self) -> str:
        slots = ", ".join(f"{s}={getattr(self, s)!r}" for s in _SLOTS)
        return f"Jet({slots}, order={self.order})"

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    # numpy defers array-and-jet arithmetic to the jet's reflected operators
    __array_ufunc__ = None

    @staticmethod
    def constant(v, order: int = 3) -> "Jet":
        """The jet of a constant: a float, or an array for a batch."""
        return Jet(v if isinstance(v, np.ndarray) else float(v), order=order)

    @staticmethod
    def coordinate(name: str, at: float, order: int = 3) -> "Jet":
        """The jet of the coordinate function x or y at the given value."""
        if name == "x":
            return Jet(float(at), dx=1.0, order=order)
        if name == "y":
            return Jet(float(at), dy=1.0, order=order)
        raise ValueError(f"unknown coordinate {name!r}")

    @staticmethod
    def variables(x: float, y: float, order: int = 3) -> tuple["Jet", "Jet"]:
        return Jet.coordinate("x", x, order), Jet.coordinate("y", y, order)

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------
    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            return other
        return Jet.constant(other, self.order)

    def __add__(self, other) -> "Jet":
        f = self
        g = self._coerce(other)
        return Jet(f.value + g.value, f.dx + g.dx, f.dy + g.dy,
                   f.dxx + g.dxx, f.dxy + g.dxy, f.dyy + g.dyy,
                   f.dxxx + g.dxxx, f.dxxy + g.dxxy, f.dxyy + g.dxyy,
                   f.dyyy + g.dyyy, order=min(f.order, g.order))

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        f = self
        return Jet(-f.value, -f.dx, -f.dy, -f.dxx, -f.dxy, -f.dyy,
                   -f.dxxx, -f.dxxy, -f.dxyy, -f.dyyy, order=f.order)

    def __sub__(self, other) -> "Jet":
        # a - b rounds exactly as a + (-b), signed zeros included
        f = self
        g = self._coerce(other)
        return Jet(f.value - g.value, f.dx - g.dx, f.dy - g.dy,
                   f.dxx - g.dxx, f.dxy - g.dxy, f.dyy - g.dyy,
                   f.dxxx - g.dxxx, f.dxxy - g.dxxy, f.dxyy - g.dxyy,
                   f.dyyy - g.dyyy, order=min(f.order, g.order))

    def __rsub__(self, other) -> "Jet":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Jet":
        f = self
        g = self._coerce(other)
        k = min(f.order, g.order)
        v = f.value * g.value
        dx = dy = dxx = dxy = dyy = dxxx = dxxy = dxyy = dyyy = 0.0
        if k >= 1:
            dx = f.dx * g.value + f.value * g.dx
            dy = f.dy * g.value + f.value * g.dy
        if k >= 2:
            dxx = f.dxx * g.value + 2.0 * f.dx * g.dx + f.value * g.dxx
            dxy = f.dxy * g.value + f.dx * g.dy + f.dy * g.dx + f.value * g.dxy
            dyy = f.dyy * g.value + 2.0 * f.dy * g.dy + f.value * g.dyy
        if k >= 3:
            dxxx = (f.dxxx * g.value + 3.0 * f.dxx * g.dx
                    + 3.0 * f.dx * g.dxx + f.value * g.dxxx)
            dxxy = (f.dxxy * g.value + f.dxx * g.dy + 2.0 * f.dxy * g.dx
                    + 2.0 * f.dx * g.dxy + f.dy * g.dxx + f.value * g.dxxy)
            dxyy = (f.dxyy * g.value + f.dyy * g.dx + 2.0 * f.dxy * g.dy
                    + 2.0 * f.dy * g.dxy + f.dx * g.dyy + f.value * g.dxyy)
            dyyy = (f.dyyy * g.value + 3.0 * f.dyy * g.dy
                    + 3.0 * f.dy * g.dyy + f.value * g.dyyy)
        return Jet(v, dx, dy, dxx, dxy, dyy, dxxx, dxxy, dxyy, dyyy, order=k)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        o = self._coerce(other)
        return self * o._reciprocal()

    def __rtruediv__(self, other) -> "Jet":
        return self._coerce(other) * self._reciprocal()

    def __pow__(self, n: int) -> "Jet":
        if not isinstance(n, int):
            raise TypeError("jet powers must be integers; use jet_sqrt etc. otherwise")
        if n < 0:
            return (self ** (-n))._reciprocal()
        out = Jet.constant(1.0, self.order)
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def _reciprocal(self) -> "Jet":
        v = self.value
        return self.compose(1.0 / v, -1.0 / v**2, 2.0 / v**3, -6.0 / v**4)

    # ------------------------------------------------------------------
    # composition with a univariate function (chain rule / Faa di Bruno)
    # ------------------------------------------------------------------
    def compose(self, f0, f1, f2=0.0, f3=0.0) -> "Jet":
        """Apply a scalar function with derivatives f0..f3 at self.value."""
        u = self
        k = u.order
        dx = dy = dxx = dxy = dyy = dxxx = dxxy = dxyy = dyyy = 0.0
        if k >= 1:
            dx = f1 * u.dx
            dy = f1 * u.dy
        if k >= 2:
            dxx = f2 * u.dx * u.dx + f1 * u.dxx
            dxy = f2 * u.dx * u.dy + f1 * u.dxy
            dyy = f2 * u.dy * u.dy + f1 * u.dyy
        if k >= 3:
            dxxx = f3 * u.dx**3 + 3.0 * f2 * u.dx * u.dxx + f1 * u.dxxx
            dxxy = (f3 * u.dx * u.dx * u.dy
                    + f2 * (u.dxx * u.dy + 2.0 * u.dx * u.dxy) + f1 * u.dxxy)
            dxyy = (f3 * u.dx * u.dy * u.dy
                    + f2 * (u.dyy * u.dx + 2.0 * u.dy * u.dxy) + f1 * u.dxyy)
            dyyy = f3 * u.dy**3 + 3.0 * f2 * u.dy * u.dyy + f1 * u.dyyy
        return Jet(f0, dx, dy, dxx, dxy, dyy, dxxx, dxxy, dxyy, dyyy, order=k)

    # ------------------------------------------------------------------
    # structural helpers
    # ------------------------------------------------------------------
    def truncate(self, order: int) -> "Jet":
        vals = [getattr(self, s) for s in _SLOTS]
        if order < 3:
            vals[6:10] = [0.0] * 4
        if order < 2:
            vals[3:6] = [0.0] * 3
        if order < 1:
            vals[1:3] = [0.0] * 2
        return Jet(*vals, order=order)

    def deriv(self, name: str) -> "Jet":
        """Jet of the partial-derivative field, one order lower."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        if name == "x":
            return Jet(self.dx, self.dxx, self.dxy, self.dxxx, self.dxxy,
                       self.dxyy, order=self.order - 1)
        if name == "y":
            return Jet(self.dy, self.dxy, self.dyy, self.dxxy, self.dxyy,
                       self.dyyy, order=self.order - 1)
        raise ValueError(f"unknown coordinate {name!r}")


# ----------------------------------------------------------------------
# elementary functions on jets
# ----------------------------------------------------------------------

def jet_sin(u: Jet) -> Jet:
    m = math_for(u.value)
    s, c = m.sin(u.value), m.cos(u.value)
    return u.compose(s, c, -s, -c)


def jet_cos(u: Jet) -> Jet:
    m = math_for(u.value)
    s, c = m.sin(u.value), m.cos(u.value)
    return u.compose(c, -s, -c, s)


def jet_sinh(u: Jet) -> Jet:
    m = math_for(u.value)
    s, c = m.sinh(u.value), m.cosh(u.value)
    return u.compose(s, c, s, c)


def jet_cosh(u: Jet) -> Jet:
    m = math_for(u.value)
    s, c = m.sinh(u.value), m.cosh(u.value)
    return u.compose(c, s, c, s)


def jet_exp(u: Jet) -> Jet:
    e = math_for(u.value).exp(u.value)
    return u.compose(e, e, e, e)


def jet_log(u: Jet) -> Jet:
    v = u.value
    return u.compose(math_for(v).log(v), 1.0 / v, -1.0 / v**2, 2.0 / v**3)


def jet_sqrt(u: Jet) -> Jet:
    v = u.value
    r = math_for(v).sqrt(v)
    return u.compose(r, 0.5 / r, -0.25 / (v * r), 0.375 / (v * v * r))


def jet_asinh(u: Jet) -> Jet:
    v = u.value
    w = 1.0 + v * v
    return u.compose(math_for(v).asinh(v), w**-0.5, -v * w**-1.5,
                     (2.0 * v * v - 1.0) * w**-2.5)


def jet_atan(u: Jet) -> Jet:
    v = u.value
    w = 1.0 + v * v
    return u.compose(math_for(v).atan(v), 1.0 / w, -2.0 * v / w**2,
                     (6.0 * v * v - 2.0) / w**3)


def jet_acos(u: Jet) -> Jet:
    v = u.value
    w = 1.0 - v * v
    return u.compose(math_for(v).acos(v), -w**-0.5, -v * w**-1.5,
                     -(1.0 + 2.0 * v * v) * w**-2.5)


def jet_atan2(y: Jet, x: Jet) -> Jet:
    """Angle jet for the vector field (x, y); branch fixed by atan2 of values.

    Away from the origin the angle is smooth, and its derivatives never see
    the branch cut, so it suffices to shift one of the two atan forms.  A
    batch evaluates both forms and takes, per element, the one a float jet
    would take.
    """
    m = math_for(y.value, x.value)
    angle = m.atan2(y.value, x.value)
    use_y_over_x = abs(x.value) >= abs(y.value)

    def y_over_x():
        # atan(y/x) equals atan2 up to a constant on each half plane
        return jet_atan(y / x) + (angle - m.atan(y.value / x.value))

    def x_over_y():
        return -jet_atan(x / y) + (angle + m.atan(x.value / y.value))

    if m is _MATH:
        return y_over_x() if use_y_over_x else x_over_y()
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b = y_over_x(), x_over_y()
    return Jet(*(np.where(use_y_over_x, getattr(a, s), getattr(b, s))
                 for s in _SLOTS), order=a.order)
