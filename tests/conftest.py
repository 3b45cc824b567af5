import pytest

from cubicontact.extraction import algebra_for
from cubicontact.nilpotent import NElem


def sparse_rows(dense):
    """A dense list-of-lists matrix as the {column: value} rows linalg reads, zeros left out."""
    return [{j: x for j, x in enumerate(row) if x} for row in dense]


def chart_elem(x1, x2, x3_m, x3_l):
    """The chart element with these chart coordinates: the NElem of the
    chart complement with f2 column x1, n2 part x2 and n3 (x3_l, x3_m)."""
    return NElem.from_parts(len(x1), col2=x1, n2=x2, n3=(x3_l, x3_m))


@pytest.fixture(scope="session")
def g2():
    return algebra_for("G", 2)


@pytest.fixture(scope="session")
def f4():
    return algebra_for("F", 4)


@pytest.fixture(scope="session")
def e6():
    return algebra_for("E", 6)


@pytest.fixture(scope="session")
def e7():
    return algebra_for("E", 7)


@pytest.fixture(scope="session")
def e8():
    return algebra_for("E", 8)
