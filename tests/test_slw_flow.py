"""The sl(W) velocity against the first-order jets of the flow.

``Jet`` below is the ring a + b*eps with eps^2 = 0, and
``ref_velocity_from_slw_generator`` is the sl(W) flow written over it:
the moved z is the exact quotient (z + eps(c - za)) / (1 + eps(a + zb)),
y is scaled by the same denominator, and the moved chart element is
re-decomposed by ``test_scalar_references.ref_chart_decompose``, the
chart solve written one ring operation per term.  ``ref_one_form_value``
pairs theta~ with such a velocity one ring operation per term.  The
package instead pairs theta~'s pull-back with act_slw
(moment.moment_of); the two values are compared exactly on seeded
points of several cubics.
"""

from fractions import Fraction

import pytest
from test_scalar_references import RefElem, ref_chart_decompose

from cubicontact import moment
from cubicontact.catalog import catalog_get
from cubicontact.contact import sample_chart_point
from cubicontact.nilpotent import SlWElem
from cubicontact.sampling import SeededSampler
from cubicontact.scalars import HALF, Q0, frac


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


def ref_one_form_value(pt, velocity):
    """theta~ on a coordinate velocity, one ring operation per term."""
    p = pt.dim
    x1, x2 = pt.chart.col(1), pt.chart.n2
    acc = Q0
    for i in range(p):
        acc = acc + x1[i] * velocity[4 + p + i] - x2[i] * velocity[4 + i]
    return pt.y * (velocity[2] - pt.z * velocity[3]) + HALF * pt.y * acc


def ref_velocity_from_slw_generator(pt, A, T):
    """Coordinate velocity of the sl(W) flow, via first order jets."""
    (a, b), (c, _d) = A.mat
    p = T.dim
    eps = Jet(0, 1)
    z = Jet(pt.z)
    y = Jet(pt.y)
    lam = 1 + eps * (a + pt.z * b)
    znew = (z + eps * (c - pt.z * a)) / lam
    ynew = y * lam
    x1 = pt.chart.col(1)
    x2 = pt.chart.n2
    x3l, x3m = pt.chart.n3
    U = RefElem.from_parts(
        p,
        col1=tuple(eps * (b * t) for t in x1),
        col2=tuple(Jet(t) - eps * (a * t) for t in x1),
        n2=tuple(Jet(t) for t in x2),
        n3=(
            Jet(x3l) + eps * (a * x3l + b * x3m),
            Jet(x3m) + eps * (c * x3l - a * x3m),
        ),
    )
    chart, _w = ref_chart_decompose(U, znew, T)
    for got, want in (
        (znew.val, pt.z),
        (ynew.val, pt.y),
        (chart.n3[1].val, x3m),
    ):
        assert got == want, "the flow moved the base point"
    xdot1 = tuple(t.eps for t in chart.col(1))
    xdot2 = tuple(t.eps for t in chart.n2)
    return (ynew.eps, znew.eps, chart.n3[1].eps, chart.n3[0].eps) + xdot1 + xdot2


def test_jet_derivation_rules():
    eps = Jet(0, 1)
    a = Jet(2, 3)
    b = Jet(5, -1)
    assert a * b == Jet(10, 13)
    assert (a + b).eps == 2
    assert (a / b).val == Fraction(2, 5)
    # quotient rule: (a/b)' = (a'b - ab') / b^2
    assert (a / b).eps == Fraction(3 * 5 - 2 * (-1), 25)
    with pytest.raises(ZeroDivisionError):
        _ = a / eps


def test_jet_square_of_variable_vanishes():
    eps = Jet(0, 1)
    assert eps * eps == Jet(0, 0)
    assert not (eps * eps)


GENERATORS = (SlWElem.of(1, 0, 0), SlWElem.of(0, 1, 0), SlWElem.of(Fraction(-2, 3), 5, Fraction(1, 2)))


@pytest.mark.parametrize("name", ["x3", "xyz", "det3", "pfaff6", "j3o-norm"])
def test_slw_velocity_matches_jet_reference(name):
    T = catalog_get(name).tensor()
    sampler = SeededSampler(66)
    for _ in range(3):
        pt = sample_chart_point(sampler, T.dim)
        for g in GENERATORS:
            got = moment.moment_of(pt, g, T)
            assert got == ref_one_form_value(pt, ref_velocity_from_slw_generator(pt, g, T))
            assert type(got) is Fraction
