"""Exact scalar rings.

Everything in this package runs on ``fractions.Fraction``; no floating
point value is ever produced.  Two small commutative ring extensions and
a type of linear forms are needed by the chart computations:

* ``QPoly``   - dense univariate polynomials over Q, used to solve for
  group elements whose coordinates are exact polynomials in a line
  parameter.
* ``Jet``     - first order jets a + b*eps with eps^2 = 0, used to take
  exact derivatives of group flows at t = 0.
* ``LinForm`` - sparse linear forms sum_i c_i a_i in formal coordinates
  a_i.  A map that is linear in its argument, evaluated once on the
  generic argument whose i-th coordinate is a_i, yields its values on
  every basis vector at once as the coefficients.  Only the linear
  operations exist, so a non-linear use raises TypeError instead of
  giving a wrong number.

All three interoperate with ``Fraction`` and ``int`` through the
reflected arithmetic hooks, so the algebra layer can stay
scalar-agnostic.
"""

from __future__ import annotations

from fractions import Fraction

Q0 = Fraction(0)
Q1 = Fraction(1)
HALF = Fraction(1, 2)
SIXTH = Fraction(1, 6)
TWELFTH = Fraction(1, 12)


def frac(x) -> Fraction:
    """Coerce ints, 'num/den' strings and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _as_fraction(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    return None


class QPoly:
    """Univariate polynomial over Q with exact coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def const(c) -> "QPoly":
        return QPoly((frac(c),))

    @staticmethod
    def x() -> "QPoly":
        return QPoly((Q0, Q1))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Q0

    def __call__(self, value):
        acc = Q0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other):
        if isinstance(other, QPoly):
            n = max(len(self.coeffs), len(other.coeffs))
            return QPoly(
                (self.coefficient(i) + other.coefficient(i) for i in range(n))
            )
        f = _as_fraction(other)
        if f is None:
            return NotImplemented
        return self + QPoly((f,))

    __radd__ = __add__

    def __neg__(self):
        return QPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = other if isinstance(other, QPoly) else None
        if o is None:
            f = _as_fraction(other)
            if f is None:
                return NotImplemented
            o = QPoly((f,))
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, QPoly):
            if not self.coeffs or not other.coeffs:
                return QPoly()
            out = [Q0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
            return QPoly(out)
        f = _as_fraction(other)
        if f is None:
            return NotImplemented
        return QPoly(tuple(c * f for c in self.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        f = _as_fraction(other)
        if f is None:
            return NotImplemented
        return self * (Q1 / f)

    def __eq__(self, other):
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        f = _as_fraction(other)
        if f is None:
            return NotImplemented
        return self.coeffs == (() if f == 0 else (f,))

    def __hash__(self):
        return hash(("QPoly", self.coeffs))

    def __repr__(self):
        return f"QPoly({list(self.coeffs)!r})"


class Jet:
    """First order jet a + b*eps, eps^2 = 0."""

    __slots__ = ("val", "eps")

    def __init__(self, val=0, eps=0):
        self.val = frac(val)
        self.eps = frac(eps)

    @staticmethod
    def variable() -> "Jet":
        return Jet(0, 1)

    def __bool__(self):
        return bool(self.val) or bool(self.eps)

    def _coerce(self, other):
        if isinstance(other, Jet):
            return other
        f = _as_fraction(other)
        if f is None:
            return None
        return Jet(f, 0)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.val + o.val, self.eps + o.eps)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.val, -self.eps)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.val - o.val, self.eps - o.eps)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.val * o.val, self.val * o.eps + self.eps * o.val)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.val == 0:
            raise ZeroDivisionError("jet with zero value part")
        v = self.val / o.val
        return Jet(v, (self.eps - v * o.eps) / o.val)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.val == o.val and self.eps == o.eps

    def __hash__(self):
        return hash(("Jet", self.val, self.eps))

    def __repr__(self):
        return f"Jet({self.val!r}, {self.eps!r})"


class LinForm:
    """Sparse linear form sum_i c_i a_i over Q in formal coordinates a_i.

    ``coeffs`` maps a coordinate index to its nonzero coefficient.  Forms
    add and subtract, and scale by ``int`` or ``Fraction``; adding the
    exact constant 0 is the identity.  A product of two forms or the sum
    of a form and a nonzero constant would leave the linear forms and
    raises TypeError.  The empty form is false and equals 0.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {} if coeffs is None else coeffs

    @staticmethod
    def coordinate(i: int) -> "LinForm":
        return LinForm({i: Q1})

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs.get(i, Q0)

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            if other:
                raise TypeError("cannot add a nonzero constant to a linear form")
            return self
        if not isinstance(other, LinForm):
            return NotImplemented
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            a = out.get(i)
            if a is None:
                out[i] = c
            else:
                s = a + c
                if s:
                    out[i] = s
                else:
                    del out[i]
        return LinForm(out)

    __radd__ = __add__

    def __neg__(self):
        return LinForm({i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, LinForm):
            raise TypeError("product of two linear forms is not linear")
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return LinForm()
        return LinForm({i: c * other for i, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, LinForm):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return not self.coeffs and not other
        return NotImplemented

    def __repr__(self):
        return f"LinForm({self.coeffs!r})"

