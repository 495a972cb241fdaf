"""Shared fixture catalog memo, and a cold fixture memo for every test.

Building the catalog fixtures (especially the stereographic sphere
restriction) and their derived objects is the dominant cost of the suite,
and many tests need the same objects.  One session-scoped Fixture per name
lets every test share the derived objects cached on it.  It also matters
for correctness: charts compare by identity, so scalars from two
independently built copies of the same fixture cannot be mixed.

`constructions.fixture` keeps its own process-wide memo, and `_poly` one
per field operation on two Fracs and one of factored denominators.  Each
test starts and ends with these memos empty, so a test that patches a
builder, counts builds or gcds, or times a cold build sees its own work,
and no later test (the benchmark self-tests included) inherits what an
earlier one built or corrupted.
"""

import functools
from fractions import Fraction

import pytest

from algebroids import _poly, constructions
from algebroids.constructions import CATALOG_NAMES, fixture
from algebroids.scalars import ComplexRational

# every catalog fixture carries both J and a metric
HERMITIAN_NAMES = list(CATALOG_NAMES)
INTEGRABLE_NAMES = [n for n in CATALOG_NAMES if n != "heis_j"]

TOLERANCE = 1e-9
NUM_POINTS = 10
SEED = 42
SAMPLES = 8
# numerators and denominators of sampled points, as in the package's own
# private sampler
SAMPLE_BOUND = 97


def random_point(chart, rng):
    """Random rational point with coordinates p/q, |p|,|q| <= SAMPLE_BOUND:
    a copy of the package's private sampler."""
    return {c: ComplexRational.of(Fraction(rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND),
                                           rng.randint(1, SAMPLE_BOUND)))
            for c in chart.coords}


@pytest.fixture(scope="session")
def catalog():
    """fixture(name), built once per name for the whole session."""
    return functools.cache(fixture)


def _clear_memos():
    constructions._fixture.cache_clear()
    for memo in (_poly._fadd, _poly._fmul, _poly._fdiff, _poly._factored):
        memo.cache_clear()


@pytest.fixture(autouse=True)
def cold_fixture_memo():
    """Empty the process-wide fixture memo and the memos of the field
    operations before and after each test."""
    _clear_memos()
    yield
    _clear_memos()
