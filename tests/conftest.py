import os

import pytest

from leibnizkit import (
    LeibnizAlgebra,
    Matrix,
    RATIONALS as Q,
    dual_representation,
    regular_representation,
)


def pytest_configure(config):
    """Let `python -m leibnizkit` child processes import the package from this
    checkout, as the `pythonpath` setting in pyproject.toml does for pytest."""
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture(scope="session")
def l2():
    """The two-dimensional algebra with [e1,e0] = [e1,e1] = e0."""
    return LeibnizAlgebra.from_brackets(Q, 2, {(1, 0): [1, 0], (1, 1): [1, 0]})


@pytest.fixture(scope="session")
def l2_single():
    """The rejected one-bracket variant ([e1,e0] = e0 only)."""
    return LeibnizAlgebra.from_brackets(Q, 2, {(1, 0): [1, 0]})


@pytest.fixture(scope="session")
def l2_regular(l2):
    return regular_representation(l2)


@pytest.fixture(scope="session")
def l2_dual(l2_regular):
    return dual_representation(l2_regular)


def rb_matrix(a):
    return Matrix(Q, [[0, a], [0, -a]])


def nij_matrix(b11, b22):
    return Matrix(Q, [[b11, b11 - b22], [0, b22]])
