import random

import pytest

_acceptance_lines = []


def record_acceptance(line):
    """Collect a criterion verdict for the end-of-run summary."""
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)

from p3dist import corpus
from p3dist.poly import NVARS, Poly, monomials_of_degree


def make_rng(seed):
    return random.Random(seed)


def module_cache_sizes(module):
    """Sizes of a module's global containers and memoized functions."""
    sizes = {}
    for name, value in vars(module).items():
        if name.startswith("__"):
            continue
        if isinstance(value, (dict, list, set)):
            sizes[name] = len(value)
        elif hasattr(value, "cache_info"):
            sizes[name] = value.cache_info().currsize
    return sizes


def random_poly(rng, degree, nterms=4, coeff_range=5):
    """Random homogeneous polynomial of the given degree (may be zero)."""
    mons = monomials_of_degree(degree)
    terms = {}
    for _ in range(nterms):
        m = rng.choice(mons)
        c = rng.randint(-coeff_range, coeff_range)
        if c:
            terms[m] = terms.get(m, 0) + c
    return Poly({m: c for m, c in terms.items() if c})


def random_nonzero_poly(rng, degree, nterms=4, coeff_range=5):
    while True:
        p = random_poly(rng, degree, nterms, coeff_range)
        if not p.is_zero():
            return p


@pytest.fixture(scope="session")
def example1():
    return corpus.load_oneform("example1")


@pytest.fixture(scope="session")
def example2():
    return corpus.load_oneform("example2")


@pytest.fixture(scope="session")
def nullcorrelation():
    return corpus.load_oneform("nullcorrelation")


@pytest.fixture(scope="session")
def pencil_of_planes():
    return corpus.load_oneform("pencil_of_planes")
