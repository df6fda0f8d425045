import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace

import pytest
from hypothesis import settings

from latticegames.builtin import paper_gamma, paper_gamma_prime
from latticegames.engine import GameSpec, Solver

# one profile for every run: property tests draw the same examples each time,
# so a failure repeats from run to run
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def gamma_prime_game():
    return GameSpec(paper_gamma_prime())


@pytest.fixture(scope="session")
def gamma_game():
    return GameSpec(paper_gamma())


@pytest.fixture(scope="session")
def gamma_prime_solver(gamma_prime_game):
    return Solver(gamma_prime_game)


@pytest.fixture(scope="session")
def gamma_prime_grid_48(gamma_prime_solver):
    # shared by the slice-law, probe and render tests
    return gamma_prime_solver.solve_window((48, 48, 1))


@contextmanager
def _traced_peak():
    """Traces allocations in the body; the yielded record's bytes holds the
    traced peak once the body ends, also when it raises."""
    peak = SimpleNamespace(bytes=0)
    tracemalloc.start()
    try:
        yield peak
    finally:
        peak.bytes = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
