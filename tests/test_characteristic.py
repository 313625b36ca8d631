"""The whole stack over a different prime: every derived quantity must
come out the same on these monomial-ish fixtures, and p must flow through
to the tables and reports."""

import pytest

from bicoh import (
    RingSpec,
    Window,
    cech_oracle,
    free_presentation,
    hilbert_table,
    local_coh_table,
    profile,
    quotient_by_polys,
    resolve,
    tame_scan,
)
from bicoh.checks import check_corner, check_euler, check_lemma_simple


@pytest.fixture(scope="module")
def small_ring():
    return RingSpec(2, 2, p=101)


def test_ring_rejects_composite_p():
    with pytest.raises(ValueError):
        RingSpec(2, 2, p=100)


def test_invariants_match_across_characteristics(small_ring):
    big = RingSpec(2, 2, p=32003)
    for ring in (small_ring, big):
        x1, x2, y1, y2 = ring.gens()
        M = quotient_by_polys(ring, [x1 * y1, x1 * y2])
        prof = profile(M)
        assert (prof.dim, prof.depth, prof.pd) == (3, 2, 2)
        assert [mod.rank for mod in resolve(M).modules] == [1, 2, 1]


def test_tables_carry_p(small_ring):
    S = free_presentation(small_ring, [(0, 0)])
    table = hilbert_table(S, Window(0, 2, 0, 2))
    assert table.p == 101
    coh = local_coh_table(S, "Q", 2, Window(-2, 0, -4, -2))
    assert coh.p == 101


def test_suites_over_small_prime(small_ring):
    assert check_lemma_simple(small_ring, Window(-5, 0, 0, 5)).passed
    x1, x2, y1, y2 = small_ring.gens()
    M = quotient_by_polys(small_ring, [x1 * y1, x1 * y2])
    w = Window(-3, 3, -3, 3)
    assert check_corner(M, w).passed
    assert check_euler(M, w).passed
    for d in ((0, -2), (1, -3), (-1, 0)):
        assert cech_oracle(M, "Q", 2, d) == \
            local_coh_table(M, "Q", 2, w)[d]
    scan = tame_scan(M, 3, (-8, 8))
    assert scan.overall == "eventually-zero"


def test_oracle_index_out_of_range(small_ring):
    S = free_presentation(small_ring, [(0, 0)])
    assert cech_oracle(S, "Q", 5, (0, -2)) == 0
