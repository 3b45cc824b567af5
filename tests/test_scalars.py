from fractions import Fraction as F

import pytest

from cubicontact.scalars import LinForm, QPoly, frac


def test_frac_coercions():
    assert frac("3/2") == F(3, 2)
    assert frac(4) == F(4)
    with pytest.raises(TypeError):
        frac(1.5)


def test_qpoly_arithmetic():
    z = QPoly.x()
    p = (1 - z) * (1 + z)
    assert p == QPoly((F(1), F(0), F(-1)))
    assert p(F(2)) == -3
    assert p.coefficient(2) == -1
    assert (p - p) == QPoly()
    assert not QPoly()
    assert (F(1, 2) * z) / 2 == QPoly((F(0), F(1, 4)))


def test_qpoly_mixed_with_fraction():
    z = QPoly.x()
    assert F(2) + z == QPoly((F(2), F(1)))
    assert z - F(1) == QPoly((F(-1), F(1)))
    assert F(3) * z == z * 3


def test_linform_linear_operations():
    a, b = LinForm.coordinate(0), LinForm.coordinate(3)
    f = F(1, 2) * a - 2 * b
    assert f.coeffs == {0: F(1, 2), 3: F(-2)}
    assert f.coefficient(3) == -2 and f.coefficient(1) == 0
    assert (f + 2 * b) == F(1, 2) * a
    assert -f == 2 * b - a * F(1, 2)
    assert f + 0 == f and 0 + f == f and F(0) - f == -f
    assert f * 0 == 0 and not (f - f)
    assert (f - f).coeffs == {}
    assert f != 0 and f != F(1) and bool(f)
    assert LinForm() == 0 and LinForm() == F(0) and not LinForm()


def test_linform_rejects_nonlinear_use():
    a, b = LinForm.coordinate(0), LinForm.coordinate(1)
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
