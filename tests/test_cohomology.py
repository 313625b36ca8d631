import pytest

from bicoh.cohomology import (
    cd_estimate,
    cech_oracle,
    ext_into_dim,
    ext_table,
    local_coh_table,
)
from bicoh.errors import BadTheoryError
from bicoh.fixtures import gencm_fixture
from bicoh.poly import block_dim
from bicoh.resolution import (
    ext_dims,
    ext_presentation,
    free_presentation,
    hilbert_dim,
    hilbert_table,
    is_zero_module,
    profile,
    resolve,
)
from bicoh.strands import x_strand
from bicoh.tables import Window, matlis_flip


def test_ext0_of_ring_is_canonical_twist(ring, S):
    window = Window(0, 4, 0, 4)
    table = ext_table(S, 0, window)
    omega = free_presentation(ring, [ring.canonical_degree])
    reference = hilbert_table(omega, window)
    assert table.cells == reference.cells


def test_higher_ext_of_free_vanishes(S):
    window = Window(-3, 3, -3, 3)
    for j in (1, 2, 3):
        assert ext_table(S, j, window).is_zero()


def test_ext1_of_hypersurface_is_shifted_quotient(ring, hypersurface):
    # duality for a hypersurface: Ext^1 is the quotient itself with its
    # generator moved to the relation degree (coker of the transposed map)
    table = ext_table(hypersurface, 1, Window(-2, 3, -2, 3))
    for a in range(-2, 4):
        for b in range(-2, 4):
            shifted = hilbert_dim(hypersurface, (a - 1, b - 1))
            assert table[(a, b)] == shifted


def test_ext_presentation_examples(ring, S, hypersurface):
    e0 = ext_presentation(S, 0)
    assert e0.gens == (ring.canonical_degree,) and not e0.rels
    e1 = ext_presentation(hypersurface, 1)
    assert len(e1.gens) == 1 and len(e1.rels) == 1
    assert is_zero_module(ext_presentation(hypersurface, 2))
    window = Window(-2, 2, -2, 2)
    assert hilbert_table(e1, window).cells == \
        ext_table(hypersurface, 1, window).cells


def test_ext_presentation_table_agreement(ring, two_relations):
    # both Ext routes agree, including the zeros on either side of 0..pd;
    # the gencm fixture's Ext modules have several generators
    window = Window(-3, 3, -3, 3)
    for M in (two_relations, gencm_fixture(ring)):
        for j in range(-1, resolve(M).length + 2):
            pres = ext_presentation(M, j)
            assert hilbert_table(pres, window).cells == \
                ext_table(M, j, window).cells, j


def test_top_q_cohomology_closed_form(ring, S):
    window = Window(-3, 3, -6, 2)
    table = local_coh_table(S, "Q", ring.n, window)
    for d in window.cells():
        a, b = d
        assert table[d] == block_dim(a, ring.m) * block_dim(-b - ring.n,
                                                            ring.n)
    assert table[(2, -3)] == 6


def test_lower_q_cohomology_of_free_vanishes(ring, S):
    window = Window(-3, 3, -3, 3)
    for i in range(0, ring.n):
        assert local_coh_table(S, "Q", i, window).is_zero()


def test_top_maximal_ideal_cohomology(ring, S):
    window = Window(-4, -2, -4, -2)
    table = local_coh_table(S, "R+", ring.nvars, window)
    assert table[(-3, -3)] == 4
    assert table.dual_flipped


def test_matlis_flip_involution_and_values(ring, S):
    window = Window(0, 3, 0, 3)
    table = hilbert_table(S, window)
    coh = local_coh_table(S, "R+", ring.nvars, Window(-4, -2, -4, -2))
    flipped = matlis_flip(coh)
    assert matlis_flip(flipped).cells == coh.cells
    assert flipped[(3, 3)] == coh[(-3, -3)]
    assert flipped.window == Window(2, 4, 2, 4)
    zero = local_coh_table(S, "Q", 0, window)
    assert matlis_flip(zero).is_zero()


def test_flip_of_ring_table_cell(ring, S):
    # dual of the coordinate ring: cell (-2,-3) counts S_(2,3)
    table = matlis_flip(hilbert_table(S, Window(0, 4, 0, 4)))
    assert table[(-2, -3)] == 12


def test_bad_theory_rejected(S):
    from bicoh.poly import RingSpec
    with pytest.raises(BadTheoryError):
        local_coh_table(S, "X", 0, Window(0, 1, 0, 1))
    ky = RingSpec(0, 2)
    My = free_presentation(ky, [(0, 0)])
    with pytest.raises(BadTheoryError):
        local_coh_table(My, "P", 0, Window(0, 1, 0, 1))
    with pytest.raises(BadTheoryError):
        cech_oracle(My, "R+", 0, (0, 0))


def test_oracle_examples(ring, S, q_torsion):
    assert cech_oracle(S, "Q", 2, (0, -2)) == 1
    for d in ((0, 0), (1, -1), (2, 3)):
        assert cech_oracle(S, "Q", 0, d) == 0
    assert cech_oracle(q_torsion, "Q", 0, (1, 0)) == 2


def test_oracle_equals_duality_path(ring, hypersurface, two_relations):
    window = Window(-3, 3, -3, 3)
    for M in (hypersurface, two_relations):
        for theory in ("P", "Q"):
            for i in range(0, 3):
                table = local_coh_table(M, theory, i, window)
                for d in window.cells():
                    assert cech_oracle(M, theory, i, d) == table[d], \
                        (theory, i, tuple(d))


def test_grothendieck_vanishing_per_strand(ring, two_relations):
    # H^i_P cells vanish when i exceeds the strand dimension
    window = Window(-4, 4, -4, 4)
    from bicoh.resolution import krull_dim
    for b in window.b_range:
        strand = x_strand(two_relations, b)
        bound = krull_dim(strand)
        for i in range(max(0, bound + 1), ring.m + 1):
            row = local_coh_table(two_relations, "P", i,
                                  Window(-4, 4, b, b))
            assert all(row[(a, b)] == 0 for a in window.a_range)


def test_q_vanishing_outside_depth_range(ring, two_relations):
    window = Window(-4, 4, -4, 4)
    prof = profile(two_relations)
    for i in range(ring.n + 1, ring.n + 3):
        assert local_coh_table(two_relations, "Q", i, window).is_zero()
    for i in range(0, prof.depth - ring.m):
        assert local_coh_table(two_relations, "Q", i, window).is_zero()


def test_ext_table_resolution_independent(two_relations):
    window = Window(-2, 2, -2, 2)
    raw = resolve(two_relations, minimize=False)
    cells = list(window.cells())
    for j in range(0, raw.length + 1):
        table = ext_table(two_relations, j, window)
        assert ext_dims(raw, j, cells) == [table[d] for d in cells]


def test_cd_estimate_examples(ring, S, q_torsion, hypersurface):
    window = Window(-4, 4, -4, 4)
    assert cd_estimate(S, window) == 2
    assert cd_estimate(q_torsion, window) == 0
    assert cd_estimate(hypersurface, window) == 2


def test_ext_into_free_matches_canonical_route(ring, hypersurface):
    omega = free_presentation(ring, [ring.canonical_degree])
    window = Window(-2, 2, -2, 2)
    for j in (0, 1):
        table = ext_table(hypersurface, j, window)
        for d in window.cells():
            assert ext_into_dim(hypersurface, omega, j, d) == table[d]
