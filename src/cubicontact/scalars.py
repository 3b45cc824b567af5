"""Exact scalar rings.

No floating point value is ever produced.  Besides ``fractions.Fraction``
the chart computations need two small commutative ring extensions and a
type of linear forms:

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

``QPoly`` and ``LinForm`` store Python-int numerators over one positive
denominator, normalized so that gcd(den, numerators) = 1 (and, for a
``QPoly``, with no trailing zero).  Equal values therefore have equal
storage, and their ring operations run in ints: an lcm to add, one gcd
to normalize (common-denominator arithmetic; Geddes, Czapor and Labahn,
Algorithms for Computer Algebra, 1992, ch. 9).  A coefficient read out
of either is a normalized ``Fraction``.

All three interoperate with ``Fraction`` and ``int`` through the
reflected arithmetic hooks, so the algebra layer can stay
scalar-agnostic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

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


def _ratio(x):
    """(numerator, denominator) of an int or Fraction, else None."""
    return x.as_integer_ratio() if isinstance(x, (int, Fraction)) else None


def _over_lcm(values):
    """Numerators of values over the lcm of their denominators, and the lcm."""
    pairs = [frac(c).as_integer_ratio() for c in values]
    den = lcm(*[q for _n, q in pairs])
    return [n * (den // q) for n, q in pairs], den


class QPoly:
    """Univariate polynomial over Q with exact coefficients.

    ``nums`` holds the int numerators, constant term first and with no
    trailing zero, over the positive int ``den``, with
    gcd(den, *nums) = 1; the zero polynomial is ((), 1).
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs=()):
        self._store(*_over_lcm(coeffs))

    @classmethod
    def _of(cls, nums: list, den: int) -> "QPoly":
        out = object.__new__(cls)
        out._store(nums, den)
        return out

    def _store(self, nums: list, den: int) -> None:
        while nums and not nums[-1]:
            nums.pop()
        g = 1 if den == 1 else gcd(den, *nums)
        self.nums = tuple(nums) if g == 1 else tuple(n // g for n in nums)
        self.den = den // g

    @staticmethod
    def const(c) -> "QPoly":
        return QPoly((c,))

    @staticmethod
    def x() -> "QPoly":
        return QPoly._of([0, 1], 1)

    def degree(self) -> int:
        return len(self.nums) - 1

    def coefficient(self, k: int) -> Fraction:
        return Fraction(self.nums[k], self.den) if 0 <= k < len(self.nums) else Q0

    def __call__(self, value):
        acc = Q0
        for k in reversed(range(len(self.nums))):
            acc = acc * value + self.coefficient(k)
        return acc

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __add__(self, other):
        if not isinstance(other, QPoly):
            r = _ratio(other)
            if r is None:
                return NotImplemented
            other = QPoly._of([r[0]], r[1])
        a, b = self.nums, other.nums
        if not b:
            return self
        if not a:
            return other
        g = gcd(self.den, other.den)
        fa, fb = other.den // g, self.den // g
        out = [x * fa for x in a]
        out += [0] * (len(b) - len(a))
        for i, y in enumerate(b):
            out[i] += y * fb
        return QPoly._of(out, self.den * fa)

    __radd__ = __add__

    def __neg__(self):
        return QPoly._of([-n for n in self.nums], self.den)

    def __sub__(self, other):
        if not isinstance(other, (QPoly, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, QPoly):
            a, b = self.nums, other.nums
            if not a or not b:
                return QPoly()
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        out[i + j] += x * y
            return QPoly._of(out, self.den * other.den)
        r = _ratio(other)
        if r is None:
            return NotImplemented
        return QPoly._of([n * r[0] for n in self.nums], self.den * r[1])

    __rmul__ = __mul__

    def __truediv__(self, other):
        r = _ratio(other)
        if r is None:
            return NotImplemented
        n, q = r
        if not n:
            raise ZeroDivisionError("polynomial divided by zero")
        if n < 0:
            n, q = -n, -q
        return QPoly._of([c * q for c in self.nums], self.den * n)

    def __eq__(self, other):
        if isinstance(other, QPoly):
            return self.nums == other.nums and self.den == other.den
        r = _ratio(other)
        if r is None:
            return NotImplemented
        return self.nums == ((r[0],) if r[0] else ()) and self.den == r[1]

    def __hash__(self):
        return hash(("QPoly", self.nums, self.den))

    def __repr__(self):
        return f"QPoly({[self.coefficient(k) for k in range(len(self.nums))]!r})"


class Jet:
    """First order jet a + b*eps, eps^2 = 0."""

    __slots__ = ("val", "eps")

    def __init__(self, val=0, eps=0):
        self.val = frac(val)
        self.eps = frac(eps)

    def __bool__(self):
        return bool(self.val) or bool(self.eps)

    def _coerce(self, other):
        if isinstance(other, Jet):
            return other
        if isinstance(other, (int, Fraction)):
            return Jet(other, 0)
        return None

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

    ``nums`` maps a coordinate index to the nonzero int numerator of its
    coefficient over the positive int ``den``, with gcd(den, *nums) = 1;
    ``coeffs`` is a read-only view of the coefficients as Fractions.
    Forms add and subtract, and scale by ``int`` or ``Fraction``; adding
    the exact constant 0 is the identity.  A product of two forms or the
    sum of a form and a nonzero constant would leave the linear forms
    and raises TypeError.  The empty form is false and equals 0.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs=None):
        coeffs = coeffs or {}
        nums, den = _over_lcm(coeffs.values())
        self._store({i: n for i, n in zip(coeffs, nums) if n}, den)

    @classmethod
    def _of(cls, nums: dict, den: int) -> "LinForm":
        out = object.__new__(cls)
        out._store(nums, den)
        return out

    def _store(self, nums: dict, den: int) -> None:
        g = 1 if den == 1 else gcd(den, *nums.values())
        self.nums = nums if g == 1 else {i: n // g for i, n in nums.items()}
        self.den = den // g

    @staticmethod
    def coordinate(i: int) -> "LinForm":
        return LinForm._of({i: 1}, 1)

    @property
    def coeffs(self):
        return MappingProxyType({i: Fraction(n, self.den) for i, n in self.nums.items()})

    def coefficient(self, i: int) -> Fraction:
        n = self.nums.get(i)
        return Q0 if n is None else Fraction(n, self.den)

    def __bool__(self):
        return bool(self.nums)

    def __add__(self, other):
        if not isinstance(other, LinForm):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if other:
                raise TypeError("cannot add a nonzero constant to a linear form")
            return self
        if not other.nums:
            return self
        if not self.nums:
            return other
        g = gcd(self.den, other.den)
        fa, fb = other.den // g, self.den // g
        out = dict(self.nums) if fa == 1 else {i: n * fa for i, n in self.nums.items()}
        for i, n in other.nums.items():
            s = out.get(i, 0) + n * fb
            if s:
                out[i] = s
            else:
                del out[i]
        return LinForm._of(out, self.den * fa)

    __radd__ = __add__

    def __neg__(self):
        return LinForm._of({i: -n for i, n in self.nums.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, LinForm):
            raise TypeError("product of two linear forms is not linear")
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        n, q = other.as_integer_ratio()
        if not n:
            return LinForm()
        return LinForm._of({i: c * n for i, c in self.nums.items()}, self.den * q)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, LinForm):
            return self.nums == other.nums and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return not self.nums and not other
        return NotImplemented

    def __repr__(self):
        return f"LinForm({dict(self.coeffs)!r})"
