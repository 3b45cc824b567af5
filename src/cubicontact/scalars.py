"""Exact scalar rings.

No floating point value is ever produced.  Besides ``fractions.Fraction``
the chart computations need two formal sums over Q, each a finite sum
of rational multiples of symbols:

* ``QPoly``   - univariate polynomials, the symbols being the powers
  x^k.  In the line parameter z they solve for group elements whose
  coordinates are exact polynomials in z; in the flow parameter t they
  give the exact derivative of a group flow at t = 0 as the t^1
  coefficient.
* ``LinForm`` - linear forms sum_i c_i a_i in formal coordinates a_i.
  A map that is linear in its argument, evaluated once on the generic
  argument whose i-th coordinate is a_i, yields its values on every
  basis vector at once as the coefficients.  Only the linear
  operations exist, so a non-linear use raises TypeError instead of
  giving a wrong number.

Both store a dict ``nums`` from symbol to nonzero Python-int numerator
over one positive denominator ``den``, normalized so that
gcd(den, numerators) = 1.  Equal values therefore have equal storage,
and their operations run in ints: an lcm to add, one gcd to normalize
(common-denominator arithmetic; Geddes, Czapor and Labahn, Algorithms
for Computer Algebra, 1992, ch. 9).  The shared base ``_FormalSum``
holds that storage and the vector-space operations; a subclass says how
a constant embeds and what the product of two sums is.  A coefficient
read out of either is a normalized ``Fraction``.

Both interoperate with ``Fraction`` and ``int`` through the reflected
arithmetic hooks, so the algebra layer can stay scalar-agnostic.
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
    """Coerce ints, 'num/den' strings and Fractions to Fraction.

    A string in exponent notation is refused: '1e400000000' would make
    ``Fraction`` expand the power of ten.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if "e" in x.lower():
            raise ValueError(f"exponent notation in {x!r}; write 'num/den'")
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class _FormalSum:
    """Finite sum of rational multiples of symbols.

    ``nums`` maps a symbol to the nonzero int numerator of its
    coefficient over the positive int ``den``, with gcd(den, *nums) = 1.
    Sums of one class add, subtract and scale by ``int`` or
    ``Fraction``; adding 0 is the identity and the empty sum equals 0.
    Each subclass supplies two hooks: ``_embed(x)``, the nonzero int or
    Fraction x as a sum of its class or None when x has no such form,
    and ``_product(other)``, the product of two sums.  The empty sum is
    false.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs=None):
        coeffs = coeffs or {}
        pairs = [frac(c).as_integer_ratio() for c in coeffs.values()]
        den = lcm(*[q for _n, q in pairs])
        nums = {i: n * (den // q) for i, (n, q) in zip(coeffs, pairs) if n}
        self._store(nums, den)

    @classmethod
    def _of(cls, nums: dict, den: int):
        out = object.__new__(cls)
        out._store(nums, den)
        return out

    def _store(self, nums: dict, den: int) -> None:
        g = 1 if den == 1 else gcd(den, *nums.values())
        self.nums = nums if g == 1 else {i: n // g for i, n in nums.items()}
        self.den = den // g

    def coefficient(self, i) -> Fraction:
        n = self.nums.get(i)
        return Q0 if n is None else Fraction(n, self.den)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __add__(self, other):
        if type(other) is not type(self):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return self
            other = self._embed(other)
            if other is None:
                raise TypeError(f"cannot add a nonzero constant to a {type(self).__name__}")
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
        return self._of(out, self.den * fa)

    __radd__ = __add__

    def __neg__(self):
        return self._of({i: -n for i, n in self.nums.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is type(self):
            return self._product(other)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        n, q = other.as_integer_ratio()
        if not n:
            return self._of({}, 1)
        return self._of({i: c * n for i, c in self.nums.items()}, self.den * q)

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not type(self):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return not self.nums
            other = self._embed(other)
            if other is None:
                return False
        return self.nums == other.nums and self.den == other.den


class QPoly(_FormalSum):
    """Univariate polynomial over Q: ``nums`` is keyed by degree.

    The zero polynomial has empty ``nums`` and ``den`` 1.
    """

    __slots__ = ()

    def __init__(self, coeffs=()):
        super().__init__(dict(enumerate(coeffs)))

    def _embed(self, x):
        n, q = x.as_integer_ratio()
        return QPoly._of({0: n}, q)

    def _product(self, other):
        out = {}
        for i, x in self.nums.items():
            for j, y in other.nums.items():
                out[i + j] = out.get(i + j, 0) + x * y
        return QPoly._of({k: c for k, c in out.items() if c}, self.den * other.den)

    @staticmethod
    def const(c) -> "QPoly":
        return QPoly((c,))

    @staticmethod
    def x() -> "QPoly":
        return QPoly._of({1: 1}, 1)

    def degree(self) -> int:
        return max(self.nums, default=-1)

    def __call__(self, value):
        acc = Q0
        for k in range(self.degree(), -1, -1):
            acc = acc * value + self.coefficient(k)
        return acc

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial divided by zero")
        return self * (1 / Fraction(other))

    def __hash__(self):
        return hash(("QPoly", frozenset(self.nums.items()), self.den))

    def __repr__(self):
        return f"QPoly({[self.coefficient(k) for k in range(self.degree() + 1)]!r})"


class LinForm(_FormalSum):
    """Sparse linear form sum_i c_i a_i over Q: ``nums`` is keyed by the
    coordinate index i.

    ``coeffs`` is a read-only view of the coefficients as Fractions.  A
    product of two forms or the sum of a form and a nonzero constant
    would leave the linear forms and raises TypeError.
    """

    __slots__ = ()

    def _embed(self, x):
        return None

    def _product(self, other):
        raise TypeError("product of two linear forms is not linear")

    @staticmethod
    def coordinate(i: int) -> "LinForm":
        return LinForm._of({i: 1}, 1)

    @property
    def coeffs(self):
        return MappingProxyType({i: Fraction(n, self.den) for i, n in self.nums.items()})

    def __repr__(self):
        return f"LinForm({dict(self.coeffs)!r})"
