import numpy as np
import pytest

from metabasins.landscape import Landscape
from metabasins.verifydata import FixtureBundle


def dense(table):
    """The n x n array of z*(a, b), from one column read per state: the tests'
    one dense copy of a saddle table, built once per landscape."""
    return np.array([table.column(m) for m in range(len(table.at))])


@pytest.fixture(scope="session")
def L6():
    return FixtureBundle.of("L6")


@pytest.fixture(scope="session")
def L14():
    return FixtureBundle.of("L14")


@pytest.fixture(scope="session")
def L14X():
    return FixtureBundle.of("L14X")


def _make(energy, edges, coords=None):
    n = len(energy)
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return Landscape(np.asarray(energy, float),
                     tuple(tuple(sorted(s)) for s in adj),
                     None if coords is None else np.asarray(coords, float))


@pytest.fixture(scope="session")
def triangle6():
    """Three shallow minima pairwise joined through a connected saddle ring."""
    return _make(
        [0.0, 0.5, 0.9, 5.0, 5.5, 6.0],
        [(0, 3), (1, 3), (1, 4), (2, 4), (0, 5), (2, 5), (3, 4), (4, 5), (3, 5)],
        coords=[[0, 0], [1, 0], [0.5, 1], [0.5, -0.2], [0.8, 0.6], [0.1, 0.6]],
    )


@pytest.fixture(scope="session")
def shallow6():
    """A six-state path with barriers small enough to simulate at beta = 8."""
    return _make(
        [0.0, 0.45, 0.12, 0.5, 0.05, 0.52],
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
        coords=[[float(k)] for k in range(6)],
    )
