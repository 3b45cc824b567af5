import pytest

from cubicontact.extraction import algebra_for


def sparse_rows(dense):
    """A dense list-of-lists matrix as the {column: value} rows linalg reads, zeros left out."""
    return [{j: x for j, x in enumerate(row) if x} for row in dense]


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
