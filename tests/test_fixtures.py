import random

import pytest

from bicoh.errors import BicohError, DegreeBoundError
from bicoh.fixtures import random_bihomogeneous, random_quotients
from bicoh.poly import RingSpec


def test_two_block_draws_are_pinned():
    # existing seeds must keep giving the same modules
    rng = random.Random(11)
    assert [str(random_bihomogeneous(RingSpec(2, 2, 3), rng))
            for _ in range(3)] == \
        ["x1*y1*y2 - x2*y1*y2", "y1 + y2", "x1^2*y2 + x2^2*y2"]
    rng = random.Random(12)
    assert [str(random_bihomogeneous(RingSpec(2, 1), rng, (1, 2)))
            for _ in range(2)] == ["4673*x2*y1", "-10919*y1"]


@pytest.mark.parametrize("m, n", [(2, 0), (0, 2)])
def test_single_block_rings(m, n):
    # the empty block's entry of max_degree is taken as 0
    ring = RingSpec(m, n)
    rng = random.Random(3)
    for _ in range(20):
        f = random_bihomogeneous(ring, rng, (2, 2))
        a, b = f.bidegree()
        assert 0 < a + b <= 2 and (a if n else b) == 0
    for M in random_quotients(ring, 3, seed=4):
        assert M.ring == ring
    # no positive bidegree is left: an error, not an endless loop
    with pytest.raises(ValueError):
        random_bihomogeneous(ring, rng, (0, 0))
    with pytest.raises(ValueError):
        random_bihomogeneous(ring, rng, (0, 2) if n == 0 else (2, 0))


def test_zero_max_degree_raises_on_two_block_ring():
    with pytest.raises(ValueError) as caught:
        random_bihomogeneous(RingSpec(2, 2), random.Random(0), (0, 0))
    assert isinstance(caught.value, DegreeBoundError)
    assert isinstance(caught.value, BicohError)
