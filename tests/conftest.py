import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fermifields.algebra import Algebra, GeneratorId
from fermifields.lattice import FieldLattice, Lattice

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="session")
def ci_runs():
    """``tools/ci_runs.py``, the table of the CI's runs, loaded by path as
    the module ``ci_runs``, the name ``tools/reachability.py`` imports."""
    spec = importlib.util.spec_from_file_location("ci_runs", TOOLS / "ci_runs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["ci_runs"] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def alg6():
    """Six plain rational generators."""
    return Algebra([GeneratorId(0, 1, i, 0) for i in range(6)], mode="rational")


@pytest.fixture
def alg6f():
    return Algebra([GeneratorId(0, 1, i, 0) for i in range(6)], mode="float")


@pytest.fixture
def fl_rat():
    """4x2 rational field lattice, unit spacings."""
    return FieldLattice(Lattice(4, 2, 1, 1), 1, "rational")


@pytest.fixture
def fl_float():
    return FieldLattice(Lattice(4, 2, 0.5, 1.0), 1, "float")


@pytest.fixture
def mass():
    return Fraction(1)
