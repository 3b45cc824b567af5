"""Exact scalars and the cleared-vector kernel.

No floating point value is ever produced: every coordinate the package
computes with is rational, an ``int`` or a ``fractions.Fraction``.
``rational_only`` is that rule, written once: every vector is rational
by construction and every kernel refuses any other coordinate with
TypeError, never a wrong number.

``clear_denominators`` writes a rational coordinate tuple as its cleared
form ``(nums, den)``, int numerators over one positive common
denominator, and ``from_cleared`` is its inverse.  ``contract_cleared``,
the cleared-vector kernel, runs a bilinear contraction on two cleared
forms in ints, building each output coordinate once instead of one
Fraction operation per term (common-denominator arithmetic; Geddes,
Czapor and Labahn, Algorithms for Computer Algebra, 1992, ch. 9).  A
``ClearedVector`` holds a rational vector as coordinates or as its
cleared form, builds each from the other on first read and compares
the forms; ``nilpotent.NElem`` and ``moment.MomentPoint`` are
ClearedVectors.  ``contract`` reads a ClearedVector's form, or clears a
coordinate sequence, and runs the kernel.  ``cubic.polarize`` goes
through it, and so does ``dot``, the pairing of a covector with a
vector, which is ``contract`` with diagonal rows.  The moment map,
``chart_decompose``, the tau check, ``cubic_eval``, and n's bracket in
``nilpotent.bracket``, ``nilpotent.bracket_transpose`` and the group
law (``bch._series``), all over the rows of ``nilpotent.bracket_views``,
call the kernel on cleared forms.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

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


# --- the cleared-vector kernel ---------------------------------------------

def rational_only(coords):
    """coords, unless a coordinate is not an int or a Fraction: the one
    rule every vector and kernel of the package keeps."""
    if not set(map(type, coords)) <= {Fraction, int}:
        raise TypeError("rational coordinates only: ints and Fractions")
    return coords


def clear_denominators(coords):
    """(nums, den): a rational coordinate tuple as int numerators over den,
    the lcm of the coordinates' denominators; TypeError for any other
    coordinate (``rational_only``).  For Fractions in lowest terms
    gcd(den, *nums) = 1, so equal vectors have equal forms."""
    pairs = [c.as_integer_ratio() for c in rational_only(coords)]
    d = lcm(*[q for _n, q in pairs])
    return [n * (d // q) for n, q in pairs], d


def cleared_form(v):
    """The cleared form of v, a ClearedVector or a coordinate sequence;
    TypeError when a coordinate is not rational."""
    return v.cleared if isinstance(v, ClearedVector) else clear_denominators(v)


def from_cleared(nums, den):
    """The Fraction coordinates whose cleared form is (nums, den): the
    inverse of clear_denominators."""
    return tuple(Fraction(n, den) for n in nums)


class ClearedVector:
    """An immutable rational coordinate vector, held as its coordinate
    tuple ``coords`` or its cleared form ``cleared``, each built from the
    other on its first read: cleared = clear_denominators(coords) and
    coords = from_cleared(*cleared).  A coordinate that is not an int or
    a Fraction raises TypeError when the vector is built.

    ``of_cleared`` takes int nums over den and brings them to lowest
    terms, a form that is unique, so == compares it.
    """

    def __init__(self, coords: tuple):
        self.__dict__["coords"] = rational_only(coords)

    @classmethod
    def of_cleared(cls, nums, den):
        out = object.__new__(cls)
        out.__dict__["cleared"] = normalize_cleared(nums, den)
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
        return len(self.__dict__.get("coords") or self.cleared[0])

    def __getitem__(self, i):
        return self.coords[i]

    def __eq__(self, other):
        if not isinstance(other, ClearedVector):
            return NotImplemented
        return self.cleared == other.cleared

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
    """The bilinear map of ``contract`` on two cleared forms cu = (us, du)
    and cv = (vs, dv): the cleared form (nums, den du dv) of w, each
    numerator an int summed over its terms."""
    (us, du), (vs, dv) = cu, cv
    acc = [0] * size
    for a, row in zip(us, rows):
        if a:
            for j, k, c in row:
                b = vs[j]
                if b:
                    acc[k] += c * a * b
    return acc, den * du * dv


def contract(rows, u, v, size, den=1):
    """The bilinear map w_k = sum of c u_i v_j / den over each i and each
    (j, k, c) of rows[i], as a size-tuple of Fractions.  rows is iterated
    alongside u; c and den are ints.

    u and v are rational coordinate sequences or ClearedVectors (see
    cleared_form): the terms run in ints on their numerators and each
    w_k is built once, at the end.
    """
    return from_cleared(*contract_cleared(rows, cleared_form(u), cleared_form(v), size, den))


def dot(u, v):
    """sum_i u_i v_i over rational coordinates: one pass of ``contract``
    with diagonal rows."""
    n = min(len(u), len(v))
    return contract((((i, 0, 1),) for i in range(n)), u, v, 1)[0]
