from functools import lru_cache

import pytest

from crystal_ca import AlgebraSpec, AutomatonState, crystal, enumerate_crystal, make_backend

# one line per acceptance criterion, filled by test_acceptance.py
ACCEPTANCE: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE:
            terminalreporter.write_line(line)


def memos(name):
    """The memos of the package's one store under a name, keyed by the rest
    of their keys; read without creating any."""
    return {key[1:]: m for key, m in crystal._MEMOS.items() if key[0] == name}


_pool = lru_cache(maxsize=None)(enumerate_crystal)  # one pool per (spec, capacity)


def random_state(spec, rng, pattern, k, start, width):
    """A line at offset k whose window is `width` random sites from `start` on."""
    sites = tuple(rng.choice(_pool(spec, pattern[j % len(pattern)]))
                  for j in range(start, start + width))
    return AutomatonState(spec, k, start, sites, pattern)


@pytest.fixture(scope="session")
def a1_1():
    return make_backend(AlgebraSpec("A1", 1))


@pytest.fixture(scope="session")
def a1_1_graph(tmp_path_factory):
    """Rank-1 A1 with B_1 read from a graph file: its identity is not
    "builtin", so evolve_T doubles finite carriers on it, over small tables."""
    path = tmp_path_factory.mktemp("graphs") / "b1.graph"
    path.write_text("A1 1 1\n1 1 2\n2 0 1\n")
    return make_backend(AlgebraSpec("A1", 1), (str(path),))


@pytest.fixture(scope="session")
def a1_2():
    return make_backend(AlgebraSpec("A1", 2))


@pytest.fixture(scope="session")
def a1_3():
    return make_backend(AlgebraSpec("A1", 3))
