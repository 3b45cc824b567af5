"""Exact scalar rings.

No floating point value is ever produced.  Besides ``fractions.Fraction``
the chart computations need two formal sums over Q, each a finite sum
of rational multiples of symbols:

* ``QPoly``   - univariate polynomials, the symbols being the powers
  x^k: the line solver's coordinates, exact polynomials in z.
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

The same storage carries whole vectors: ``clear_denominators`` writes a
coordinate tuple as numerators (ints, or int dicts for formal sums) over
one common denominator, ``from_cleared`` is its inverse, and
``contract_cleared``, the cleared-vector kernel, runs a bilinear
contraction on them in ints, building each output coordinate once
instead of one ring operation per term.  A vector that does not clear
takes the form TERMS, its coordinates as numerators over 1, on which
the same terms run as ring operations.  A ``ClearedVector`` holds a
vector as coordinates or as its cleared form and builds each from the
other on first read; ``nilpotent.NElem`` is one.  ``contract`` reads a
ClearedVector's form, or clears a coordinate vector, and runs the
kernel.  The vector contractions go through it: ``cubic.polarize``
(and with it ``cubic_eval`` and ``trilinear``), the structure-constant
check ``nilpotent.ad_mismatches``, and ``dot``, the pairing of a
covector with a vector, which is ``contract`` with diagonal rows.  The
moment map calls the kernel on cleared forms for its B terms (theta~'s
pull-back, ``nilpotent.bracket_transpose``, the closed form and the
membership test), as ``chart_decompose`` and the tau check do, and
pairs its covector with a generator through ``dot``.  The group law
(``bch._series``) runs its own walk.
No other module reads a sum's ``nums`` or ``den``.

Ring-generic are ``contract`` (through TERMS), and so ``dot`` and
``cubic.polarize``, ``nilpotent.bracket`` and ``NElem``'s arithmetic,
for ``ad_mismatches``, ``moment_of`` and the tests' references.  The
group law, ``chart_decompose`` and ``contact.ChartPoint`` refuse all
but rational input (and a LinForm Y where linear in Y) with TypeError.
Both formal sums mix with ``Fraction`` and ``int`` through the
reflected arithmetic hooks.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import cached_property
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
    and ``_mul_nums(x, y)``, the product of two numerator dicts.  The
    empty sum is false.
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
            out = self._mul_nums(self.nums, other.nums)
            return self._of({k: c for k, c in out.items() if c}, self.den * other.den)
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

    @staticmethod
    def _mul_nums(x, y):
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                out[i + j] = out.get(i + j, 0) + a * b
        return out

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

    @staticmethod
    def _mul_nums(x, y):
        raise TypeError("product of two linear forms is not linear")

    @staticmethod
    def coordinate(i: int) -> "LinForm":
        return LinForm._of({i: 1}, 1)

    @property
    def coeffs(self):
        return MappingProxyType({i: Fraction(n, self.den) for i, n in self.nums.items()})

    def __repr__(self):
        return f"LinForm({dict(self.coeffs)!r})"


# --- the cleared-vector kernel ---------------------------------------------

def clear_denominators(coords):
    """(ring, nums, den): a coordinate tuple as numerators over its common
    denominator den, the lcm of the coordinates' denominators.

    When every coordinate is rational, an int or a Fraction, ring is
    None and nums are ints.  Over one formal-sum class, whose sums may
    be mixed with int or Fraction zeros, ring is that class and nums are
    int dicts (a zero gives 0), to be read and never written: a sum
    already over den lends its own storage.  Anything else gives None,
    and the caller keeps its per-term loop or refuses: a foreign ring,
    two formal classes, or a nonzero constant among formal sums.
    """
    kinds = set(map(type, coords))
    if kinds <= {Fraction, int}:
        pairs = [c.as_integer_ratio() for c in coords]
        d = lcm(*[q for _n, q in pairs])
        return None, [n * (d // q) for n, q in pairs], d
    formal = kinds - {Fraction, int}
    ring = formal.pop() if len(formal) == 1 else None
    if (
        ring is None
        or not issubclass(ring, _FormalSum)
        or any(c and type(c) is not ring for c in coords)
    ):
        return None
    d = lcm(*[c.den for c in coords if c])
    return ring, [
        0 if not c else c.nums if c.den == d else {s: n * (d // c.den) for s, n in c.nums.items()}
        for c in coords
    ], d


# The ring of a cleared form whose numerators are ring elements, as given,
# over an int den: the form of a vector that clear_denominators refuses.
TERMS = "terms"


def from_cleared(ring, nums, den):
    """The coordinate tuple whose cleared form is (ring, nums, den): the
    inverse of clear_denominators.

    With ring None each numerator is an int and gives a Fraction.  Over
    a formal class each is an int dict, which is not kept, and gives a
    sum of that class (zero terms dropped); a falsy entry (0, None or
    {}) gives Q0, where a per-term loop would leave nothing added.  Over
    TERMS each is a ring element or int, times 1/den.
    """
    if ring is None:
        return tuple(Fraction(n, den) for n in nums)
    if ring is TERMS:
        return tuple(n * Fraction(1, den) for n in nums)
    return tuple(
        ring._of({s: n for s, n in out.items() if n}, den) if out else Q0 for out in nums
    )


class ClearedVector:
    """An immutable coordinate vector, held as its coordinate tuple
    ``coords`` or its cleared form ``cleared``, each built from the other
    on its first read: cleared = clear_denominators(coords), None when
    they do not clear, and coords = from_cleared(*cleared).

    ``of_cleared`` takes nums over den: ints, brought to lowest terms,
    a form that is unique, so == compares it where both sides are
    rational; or int dicts over a formal class ring, or TERMS, as given.
    Otherwise == compares coordinates, with a tuple too.
    """

    def __init__(self, coords: tuple):
        self.__dict__["coords"] = coords

    @classmethod
    def of_cleared(cls, nums, den, ring=None):
        out = object.__new__(cls)
        out.__dict__["cleared"] = (
            (None, *normalize_cleared(nums, den)) if ring is None else (ring, nums, den)
        )
        return out

    def __setattr__(self, name, *_value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    @cached_property
    def coords(self) -> tuple:
        return from_cleared(*self.cleared)

    @cached_property
    def cleared(self):
        return clear_denominators(self.coords)

    def __len__(self):
        return len(self.__dict__.get("coords") or self.cleared[1])

    def __getitem__(self, i):
        return self.coords[i]

    def __eq__(self, other):
        if isinstance(other, tuple):
            return self.coords == other
        if not isinstance(other, ClearedVector):
            return NotImplemented
        a, b = self.cleared, other.cleared
        if a and b and a[0] is b[0] is None:
            return a[1:] == b[1:]
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"{type(self).__name__}(coords={self.coords!r})"


def normalize_cleared(nums, den):
    """The int vector nums / den, den > 0, in lowest terms, gcd(den, *nums)
    = 1: its one cleared form, the one clear_denominators gives."""
    g = gcd(den, *nums)
    return (nums, den) if g == 1 else ([n // g for n in nums], den // g)


def contract_cleared(rows, cu, cv, size, den=1):
    """The bilinear map of ``contract`` on two cleared forms cu = (ru, us,
    du) and cv = (rv, vs, dv): the cleared form (ring, nums, den du dv) of
    w, ring being ru or rv.  At most one formal class may occur, and
    TERMS only beside ints or TERMS.

    Over ints each w_k numerator is an int, and over TERMS a ring
    element summed one term at a time onto 0; over a formal class it is
    an int dict, or None where no term reaches it.  A product of two
    LinForms raises TypeError.
    """
    (ru, us, du), (rv, vs, dv) = cu, cv
    den *= du * dv
    ring = ru or rv
    if ring is None or ring is TERMS:
        acc = [0] * size
        for a, row in zip(us, rows):
            if a:
                for j, k, c in row:
                    b = vs[j]
                    if b:
                        acc[k] += c * a * b
        return ring, acc, den
    acc = [None] * size
    product = ring._mul_nums if ru and rv else None
    for a, row in zip(us, rows):
        if a:
            for j, k, c in row:
                b = vs[j]
                if b:
                    if product:
                        nums = product(a, b)
                    elif ru:
                        nums, c = a, c * b
                    else:
                        nums, c = b, c * a
                    out = acc[k]
                    if out is None:
                        acc[k] = {s: n * c for s, n in nums.items()}
                    else:
                        for s, n in nums.items():
                            out[s] = out.get(s, 0) + n * c
    return ring, acc, den


def contract(rows, u, v, size, den=1):
    """The bilinear map w_k = sum of c u_i v_j / den over each i and each
    (j, k, c) of rows[i], as a size-tuple.  rows is iterated alongside u;
    c and den are ints.

    u and v are coordinate sequences or ClearedVectors.  When both have
    a cleared form (see clear_denominators) over at most one formal
    class, the terms run in ints on the numerators and each w_k is built
    once, at the end.  Otherwise they run one ring operation at a time.
    Over plain numbers w_k is a Fraction; over a formal class it is a
    sum of that class.  Where no term reaches it, w_k is Q0, as a
    per-term loop leaves it.  A product of two LinForms raises
    TypeError, and so does a nonzero constant added to a LinForm.
    """
    cu, cv = (x.cleared if isinstance(x, ClearedVector) else clear_denominators(x) for x in (u, v))
    if not (cu and cv and (not cu[0] or not cv[0] or cu[0] is cv[0])):
        cu, cv = (TERMS, tuple(u), 1), (TERMS, tuple(v), 1)
    return from_cleared(*contract_cleared(rows, cu, cv, size, den))


def dot(u, v):
    """sum_i u_i v_i over any of the scalar rings: one pass of
    ``contract`` with diagonal rows."""
    n = min(len(u), len(v))
    return contract((((i, 0, 1),) for i in range(n)), u, v, 1)[0]
