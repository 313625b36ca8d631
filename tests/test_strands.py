import pytest

from bicoh.errors import BadTheoryError
from bicoh.poly import RingSpec, block_dim
from bicoh.resolution import (
    Presentation,
    free_presentation,
    hilbert_dim,
    quotient_by_polys,
    resolve,
)
from bicoh.strands import strand, strand_dim


def test_x_strand_of_ring_is_free(S):
    st0 = strand(S, 0, 0)
    assert len(st0.gens) == 1 and not st0.rels
    st1 = strand(S, 0, 1)
    assert len(st1.gens) == 2 and not st1.rels
    assert st1.ring == RingSpec(2, 0)


def test_x_strand_of_hypersurface(hypersurface):
    st = strand(hypersurface, 0, 1)
    assert len(st.gens) == 2
    assert len(st.rels) == 1
    entries = [str(st.matrix[k][0]) for k in range(2)]
    assert sorted(entries) == ["0", "x1"]


def test_strand_hilbert_compatibility(ring, hypersurface, two_relations):
    for M in (hypersurface, two_relations):
        for j in range(0, 4):
            st = strand(M, 0, j)
            for i in range(0, 5):
                assert hilbert_dim(st, (i, 0)) == hilbert_dim(M, (i, j))
        for a in range(0, 4):
            st = strand(M, 1, a)
            for b in range(0, 5):
                assert hilbert_dim(st, (0, b)) == hilbert_dim(M, (a, b))


def test_y_strand_of_ring(S):
    st = strand(S, 1, 1)
    assert len(st.gens) == 2 and not st.rels
    assert st.ring == RingSpec(0, 2)


def test_y_strand_of_hypersurface(hypersurface):
    st = strand(hypersurface, 1, 1)
    assert len(st.gens) == 2 and len(st.rels) == 1


def test_strand_below_all_shifts_is_zero(S):
    for k, c in ((1, -1), (0, -2)):
        assert resolve(strand(S, k, c)).betti(0) == 0
        assert strand_dim(S, k, c) == -1


def test_strand_additive_on_direct_sums(ring, xy):
    x1, x2, y1, y2 = xy
    A = quotient_by_polys(ring, [x1 * y1])
    f = x1 * y1
    # A (+) S(-1,-1) assembled as one presentation
    direct = Presentation(
        ring, ((0, 0), (1, 1)), ((1, 1),),
        ((f, ), (ring.zero(),)))
    for j in range(0, 4):
        lhs = strand(direct, 0, j)
        expected = (hilbert_dim(strand(A, 0, j), (2, 0)) +
                    hilbert_dim(strand(free_presentation(ring, [(1, 1)]),
                                       0, j), (2, 0)))
        assert hilbert_dim(lhs, (2, 0)) == expected


def test_strand_of_shifted_free_has_predicted_rank(ring):
    F = free_presentation(ring, [(0, 0), (2, 1)])
    for j in range(0, 4):
        st = strand(F, 0, j)
        want = block_dim(j, ring.n) + block_dim(j - 1, ring.n)
        assert len(st.gens) == want
        assert not st.rels


def test_strands_over_an_empty_variable_block_are_rejected():
    # the x-strands of a module over F_p[y] (and the y-strands of one over
    # F_p[x]) would live over a ring without variables, and have no
    # dimension either
    for ring, k in ((RingSpec(0, 2), 0), (RingSpec(2, 0), 1)):
        N = free_presentation(ring, [(0, 0)])
        for fn in (strand, strand_dim):
            with pytest.raises(BadTheoryError, match="need at least one"):
                fn(N, k, 0)
