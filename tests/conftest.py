import os
import sys

import numpy as np
import pytest

import holo_interp as hi

# tests/references.py is imported by name; pytest puts this directory on
# sys.path in its default import mode, but not under --import-mode=importlib
HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def flat1():
    return hi.flat_space(1)


@pytest.fixture
def disk():
    return hi.hyperbolic_ball(1.0)


@pytest.fixture
def fock1():
    return hi.fock_weight(1.0)
