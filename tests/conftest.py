import pytest

from ceisen.brandt import rational_eigensystem
from ceisen.order import build_class_set
from ceisen.qform import LevelConfig


@pytest.fixture(scope="session")
def level11():
    return build_class_set(LevelConfig.from_primes((11,), 1))


@pytest.fixture(scope="session")
def level66():
    return build_class_set(LevelConfig.from_primes((2, 3, 11), 1))


@pytest.fixture(scope="session")
def level210():
    return build_class_set(LevelConfig.from_primes((2, 3, 7), 5))


@pytest.fixture(scope="session")
def eig11(level11):
    return rational_eigensystem(level11)


@pytest.fixture(scope="session")
def eig66(level66):
    return rational_eigensystem(level66)


@pytest.fixture(scope="session")
def v11(eig11):
    """The level-11 cusp line (the only one)."""
    ((_, v),) = eig11.lines
    return v
