import os
import re
import subprocess
import sys

import pytest

import ceisen

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
def level197():
    return build_class_set(LevelConfig.from_primes((197,), 1))


@pytest.fixture(scope="session")
def level210():
    return build_class_set(LevelConfig.from_primes((2, 3, 7), 5))


@pytest.fixture(scope="session")
def level210_m2():
    return build_class_set(LevelConfig.from_primes((3, 5, 7), 2))


@pytest.fixture(scope="session")
def level389():
    return build_class_set(LevelConfig.from_primes((389,), 1))


@pytest.fixture(scope="session")
def level2310():
    return build_class_set(LevelConfig.from_primes((2, 3, 5, 7, 11), 1))


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


@pytest.fixture(scope="session")
def readme_library_run():
    """README's Library block and its one run: in a clean interpreter, so it
    imports only what is installed, and without PYTHONOPTIMIZE, so its
    asserts run under python -O too. Returns (code, completed process)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    code = re.search(r"^## Library\n\n```python\n(.*?)^```$", readme, flags=re.M | re.S).group(1)
    src = os.path.dirname(os.path.dirname(ceisen.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    return code, proc
