from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st
from test_scalar_references import RefLinForm, RefQPoly

from cubicontact.scalars import ClearedVector, clear_denominators, cleared_form, frac


def test_frac_coercions():
    assert frac("3/2") == F(3, 2)
    assert frac(4) == F(4)
    with pytest.raises(TypeError):
        frac(1.5)


# RefQPoly and RefLinForm are the tests' reference rings: the package
# computes over the rationals only, and the references over these rings
# are what its closed forms are compared with.

def test_qpoly_arithmetic():
    z = RefQPoly.x()
    p = (1 - z) * (1 + z)
    assert p == RefQPoly((F(1), F(0), F(-1)))
    assert p(F(2)) == -3
    assert p.coefficient(2) == -1
    assert (p - p) == RefQPoly()
    assert not RefQPoly()
    assert (F(1, 2) * z) / 2 == RefQPoly((F(0), F(1, 4)))


def test_qpoly_mixed_with_fraction():
    z = RefQPoly.x()
    assert F(2) + z == RefQPoly((F(2), F(1)))
    assert z - F(1) == RefQPoly((F(-1), F(1)))
    assert F(3) * z == z * 3


def test_linform_linear_operations():
    a, b = RefLinForm.coordinate(0), RefLinForm.coordinate(3)
    f = F(1, 2) * a - 2 * b
    assert f.coeffs == {0: F(1, 2), 3: F(-2)}
    assert f.coefficient(3) == -2 and f.coefficient(1) == 0
    assert (f + 2 * b) == F(1, 2) * a
    assert -f == 2 * b - a * F(1, 2)
    assert f + 0 == f and 0 + f == f and F(0) - f == -f
    assert f * 0 == 0 and not (f - f)
    assert (f - f).coeffs == {}
    assert f != 0 and f != F(1) and bool(f)
    assert RefLinForm() == 0 and RefLinForm() == F(0) and not RefLinForm()


def test_linform_rejects_nonlinear_use():
    a, b = RefLinForm.coordinate(0), RefLinForm.coordinate(1)
    with pytest.raises(TypeError):
        _ = a * b
    with pytest.raises(TypeError):
        _ = a * a
    with pytest.raises(TypeError):
        _ = a + 1
    with pytest.raises(TypeError):
        _ = F(1, 3) + a
    with pytest.raises(TypeError):
        _ = a - F(2)
    with pytest.raises(TypeError):
        _ = 1 - a
    with pytest.raises(TypeError):
        _ = a * 0.5


_q = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_coefficients = st.dictionaries(st.integers(0, 3), _q, max_size=3)
# Rational vectors, of Fractions, ints or both, clear; vectors with a
# RefLinForm coordinate are refused.
_vectors = st.one_of(
    st.lists(_q, max_size=6),
    st.lists(st.integers(-3, 3), min_size=1, max_size=6),
    st.lists(st.integers(-3, 3) | _q, min_size=1, max_size=6),
    st.lists(_coefficients.map(RefLinForm) | st.just(F(0)), min_size=1, max_size=6),
).map(tuple)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(coords=_vectors, scale=st.integers(1, 5))
def test_cleared_vector_from_coordinates_or_cleared_form(coords, scale):
    if not all(type(x) in (int, F) for x in coords):
        # One rule: the vector, the clearing and the kernels' guard all
        # refuse a coordinate that is not rational.
        for fn in (ClearedVector, clear_denominators, cleared_form):
            with pytest.raises(TypeError, match="rational coordinates only"):
                fn(coords)
        return
    u = ClearedVector(coords)
    # ints, alone or among Fractions, clear as rationals: ints over a
    # common multiple of den come to lowest terms.
    nums, den = c = u.cleared
    assert cleared_form(u) == cleared_form(coords) == clear_denominators(coords) == c and den > 0
    v = ClearedVector.of_cleared([scale * n for n in nums], scale * den)
    assert v.cleared == c and "coords" not in vars(v)
    assert u == v and v == u and not u != v
    # One equality, of cleared forms: a coordinate tuple is not a vector.
    assert u != coords and coords != v
    assert v.coords == coords and len(u) == len(v) == len(coords)
    assert ClearedVector(coords + (F(1),)) != v
    assert hash(u) == hash(v) == hash(coords)
    for x in (u, v):
        for name in ("coords", "cleared", "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, ())
            with pytest.raises(AttributeError):
                delattr(x, name)
