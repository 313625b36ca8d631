import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicoh.errors import BadTheoryError
from bicoh.fixtures import (
    gencm_fixture,
    named_fixtures,
    random_quotients,
    standard_ring,
)
from bicoh.poly import (
    Bidegree,
    Polynomial,
    RingSpec,
    block_dim,
    monomial_basis,
)
from bicoh.resolution import (
    ext_presentation,
    free_presentation,
    hilbert_dim,
    profile,
    quotient_by_polys,
    resolve,
)
from bicoh.strands import _on, strand, strand_dim, strand_range
from test_cohomology import _drawn_presentation
from test_groebner import _rows_presentation


def _strand_by_rows(N, k, c):
    """The route strand took before it built relation columns, kept as its
    referee: one Polynomial per (generator, relation) entry of the strand,
    accumulated from the entries of N's relation columns, assembled by
    rows."""
    ring = N.ring
    sizes, p = (ring.m, ring.n), ring.p
    sub = RingSpec(*_on(k, sizes[k]), p)
    other = RingSpec(*_on(1 - k, sizes[1 - k]), p) if sizes[1 - k] else None
    blocks = (slice(0, ring.m), slice(ring.m, None))

    def pieces(shifts):
        return [((g, w), Bidegree(*_on(k, s[k])))
                for g, s in enumerate(shifts)
                for w in (monomial_basis(other, _on(1 - k, c - s[1 - k]))
                          if other else [0] * (c == s[1 - k]))]

    gens, rels = pieces(N.gens), pieces(N.rels)
    gen_index = {key: i for i, (key, _) in enumerate(gens)}
    coords = [col.coords for col in N.columns]
    rows = [[{} for _ in rels] for _ in gens]
    for col, ((l, w), _) in enumerate(rels):
        for g, entry in enumerate(coords[l]):
            for mono, coeff in entry.terms:
                e = ring.exponents(mono)
                target = other.monomial(e[blocks[1 - k]]) + w if other else w
                row = gen_index.get((g, target))
                if row is not None:
                    kept = sub.monomial(e[blocks[k]])
                    acc = rows[row][col]
                    acc[kept] = (acc.get(kept, 0) + coeff) % p
    return _rows_presentation(
        sub, tuple(d for _, d in gens), tuple(d for _, d in rels),
        tuple(tuple(Polynomial.from_dict(sub, acc) for acc in row)
              for row in rows))


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
    entries = [str(f) for f in st.columns[0].coords]
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
        assert not resolve(strand(S, k, c)).shifts(0)
        assert strand_dim(S, k, c) == -1


def test_strand_additive_on_direct_sums(ring, xy):
    x1, x2, y1, y2 = xy
    A = quotient_by_polys(ring, [x1 * y1])
    f = x1 * y1
    # A (+) S(-1,-1) assembled as one presentation
    direct = _rows_presentation(
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


def test_strand_range_holds_every_dimension_that_matters():
    # below lo every strand is zero, and past c_0 no strand is larger than
    # the generic dimension read on c_0..hi, which it keeps far out; the
    # modules and their dualized tops, over both blocks
    modules = [M for p in (3, 32003) for M in (
        list(named_fixtures(standard_ring(p)).values())
        + [gencm_fixture(standard_ring(p))]
        + random_quotients(RingSpec(3, 2, p), 4, 2026))]
    modules += [ext_presentation(M, M.ring.nvars - profile(M).dim)
                for M in modules]
    for N in modules:
        for k in (0, 1):
            lo, c_0, hi = strand_range(N, k)
            assert all(strand_dim(N, k, c) < 0 for c in range(lo - 6, lo))
            generic = max(strand_dim(N, k, c) for c in range(c_0, hi + 1))
            far = [strand_dim(N, k, c) for c in range(c_0, c_0 + 30)]
            assert max(far) == generic == far[-1], (str(N), k)


@settings(max_examples=40)
@given(st.data())
def test_strand_matches_the_row_referee(data):
    # over every nonempty block and every degree within one of a
    # generator or relation shift, the strand's relation columns are the
    # ones the row-wise route assembled
    M = _drawn_presentation(data)
    sizes = (M.ring.m, M.ring.n)
    for k in (0, 1):
        if not sizes[k]:
            continue
        degrees = {s[1 - k] + step for s in M.gens + M.rels
                   for step in (-1, 0, 1)}
        for c in sorted(degrees):
            assert strand(M, k, c) == _strand_by_rows(M, k, c), (k, c)
