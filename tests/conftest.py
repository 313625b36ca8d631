import pytest
from hypothesis import settings

from bicoh import RingSpec, free_presentation, quotient_by_polys

# Property tests draw the same examples on every run and store none.
settings.register_profile("bicoh", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("bicoh")


@pytest.fixture(scope="session")
def ring():
    return RingSpec(2, 2)


@pytest.fixture(scope="session")
def xy(ring):
    return ring.gens()


@pytest.fixture(scope="session")
def S(ring):
    return free_presentation(ring, [(0, 0)])


@pytest.fixture(scope="session")
def hypersurface(ring, xy):
    x1, x2, y1, y2 = xy
    return quotient_by_polys(ring, [x1 * y1])


@pytest.fixture(scope="session")
def two_relations(ring, xy):
    x1, x2, y1, y2 = xy
    return quotient_by_polys(ring, [x1 * y1, x1 * y2])


@pytest.fixture(scope="session")
def q_torsion(ring, xy):
    x1, x2, y1, y2 = xy
    return quotient_by_polys(ring, [y1, y2])
