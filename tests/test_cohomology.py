import random
from collections import Counter
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bicoh import cohomology, linalg, resolution
from bicoh.checks import check_gencm_les
from bicoh.cli import main
from bicoh.cohomology import (
    cech_oracle,
    cohomological_dimension,
    ext_table,
    local_coh_table,
    oracle_table,
)
from bicoh.errors import BadTheoryError, ComposeError
from bicoh.fixtures import (
    gencm_fixture,
    named_fixtures,
    random_quotients,
    standard_ring,
)
from bicoh.groebner import FreeModule, ModuleElement, normal_form
from bicoh.linalg import Matrix, check_complex, homology_dim, rank_of_array
from bicoh.poly import (
    Bidegree,
    Polynomial,
    RingSpec,
    block_dim,
    mono_bidegree,
    monomial_basis,
)
from bicoh.resolution import (
    Presentation,
    ext_presentation,
    free_presentation,
    hilbert_dim,
    hilbert_table,
    initial_module,
    profile,
    quotient_by_polys,
    resolve,
    restrict_matrix,
    zero_presentation,
)
from bicoh.modfile import load_module, save_module
from bicoh.strands import strand, strand_dim
from bicoh.tables import Window, matlis_flip
from test_groebner import _rows_presentation
from test_linalg import compose, tracked_echelon
from test_resolution import (
    _ext_referee,
    _raw_resolution,
    _redundant_generator,
    count_ext_builds,
)


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
    assert not resolve(ext_presentation(hypersurface, 2)).shifts(0)
    window = Window(-2, 2, -2, 2)
    assert hilbert_table(e1, window).cells == \
        ext_table(hypersurface, 1, window).cells


def _random_presentation(rng, ring):
    """1-3 generators in bidegrees (0..1, 0..1) and 1-3 relations of random
    forms, each relation at or one step above the generators' largest
    degree in each block."""
    gens = [(rng.randint(0, 1), rng.randint(0, 1))
            for _ in range(rng.randint(1, 3))]
    top = (max(a for a, _ in gens), max(b for _, b in gens))
    rels, columns = [], []
    for _ in range(rng.randint(1, 3)):
        rel = (top[0] + rng.randint(0, 1), top[1] + rng.randint(0, 1))
        column = []
        for a, b in gens:
            basis = monomial_basis(ring, (rel[0] - a, rel[1] - b))
            terms = {mono: rng.randrange(ring.p) for mono in basis
                     if rng.random() < 0.5}
            column.append(Polynomial.from_dict(ring, terms))
        rels.append(rel)
        columns.append(column)
    return _rows_presentation(ring, tuple(gens), tuple(rels),
                              tuple(zip(*columns)))


def test_ext_presentation_table_agreement(ring, two_relations):
    # hilbert_dim of the Ext presentation (rank of its restricted relation
    # matrix) and the alternating sum over its resolution agree with
    # ext_table (the initial module of the Ext presentation), including
    # the zeros on either side of 0..pd; the gencm fixture's Ext modules
    # have several generators
    window = Window(-3, 3, -3, 3)
    for M in (two_relations, gencm_fixture(ring)):
        for j in range(-1, resolve(M).length + 2):
            pres = ext_presentation(M, j)
            table = ext_table(M, j, window)
            res = resolve(pres)
            for d in window.cells():
                assert hilbert_dim(pres, d) == table[d], (j, tuple(d))
                assert res.alternating_dim(d) == table[d], (j, tuple(d))


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_initial_module_dims_match_restrict_and_rank_random(p):
    # random presentations with several generators over rings with m, n
    # at most 2, single-block rings included; the initial module's
    # numerator must give every cell that restrict+rank gives
    rng = random.Random(11 * p)
    window = Window(-1, 4, -1, 4)
    several = 0
    for m, n in ((1, 1), (2, 1), (1, 2), (2, 2), (2, 0), (0, 2)):
        ring = RingSpec(m, n, p)
        for _ in range(3):
            P = _random_presentation(rng, ring)
            several += len(P.gens) > 1
            module = initial_module(P)
            for d in window.cells():
                assert module.dim_at(d) == hilbert_dim(P, d), (str(P), d)
                assert module.dim_at(d) == len(module.basis(d))
    assert several


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


def _locoh_label(M, theory, i, window, tmp_path, capsys):
    """The label that `bicoh locoh` prints above the table of M."""
    path = tmp_path / "module.mod"
    save_module(path, M)
    assert main(["locoh", "--module", str(path), "--theory", theory,
                 "-i", str(i), "--window", str(window)]) == 0
    return capsys.readouterr().out.splitlines()[0]


def test_top_maximal_ideal_cohomology(ring, S, tmp_path, capsys):
    window = Window(-4, -2, -4, -2)
    table = local_coh_table(S, "R+", ring.nvars, window)
    assert table[(-3, -3)] == 4
    # the R+ table is a Matlis flip, and its label says so
    assert _locoh_label(S, "R+", ring.nvars, window, tmp_path, capsys) == \
        f"H^{ring.nvars} for theory R+ (p={ring.p}, flipped=True)"
    assert _locoh_label(S, "Q", ring.n, window, tmp_path, capsys) == \
        f"H^{ring.n} for theory Q (p={ring.p}, flipped=False)"


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
        cech_oracle(My, "P", 0, (0, 0))
    with pytest.raises(BadTheoryError):
        oracle_table(S, "X", 0, Window(0, 1, 0, 1))
    # R+ is the maximal ideal of any ring, y-variables only included
    assert cech_oracle(My, "R+", 2, (0, -2)) == 1


def test_oracle_examples(ring, S, q_torsion):
    assert cech_oracle(S, "Q", 2, (0, -2)) == 1
    for d in ((0, 0), (1, -1), (2, 3)):
        assert cech_oracle(S, "Q", 0, d) == 0
    assert cech_oracle(q_torsion, "Q", 0, (1, 0)) == 2


def _two_generators(p):
    """A non-cyclic module over F_p[x1,x2,y1,y2]: generators in (0,0) and
    (1,0), relations in (1,1), (2,1) and (1,2)."""
    ring = RingSpec(2, 2, p)
    x1, x2, y1, y2 = ring.gens()
    return _rows_presentation(
        ring, ((0, 0), (1, 0)), ((1, 1), (2, 1), (1, 2)),
        ((x1 * y1, x1 * x2 * y2, x2 * y1 * y2),
         (y2, x1 * y1 + x2 * y2, ring.zero())))


def test_oracle_equals_duality_path(ring, hypersurface, two_relations):
    window = Window(-3, 3, -3, 3)
    modules = [hypersurface, two_relations]
    modules += [_two_generators(p) for p in (2, 3, 32003)]
    for M in modules:
        for theory in ("P", "Q", "R+"):
            for i in range(0, 5 if theory == "R+" else 3):
                table = local_coh_table(M, theory, i, window)
                for d in window.cells():
                    assert cech_oracle(M, theory, i, d) == table[d], \
                        (M.ring.p, theory, i, tuple(d))


# unit entries on the generators (1,0) and (0,1), both redundant
_UNIT_MODULE = """\
p=3
m=2
n=2
gens=(0,0),(1,0),(0,1)
rels=(1,0): x1, -1, 0
rels=(0,1): y2, 0, 1
rels=(1,1): x2*y1, y1, x1
rels=(2,1): 0, x2*y1, 0
"""


def _unit_presentations(tmp_path):
    """The redundant-generator presentation and a module file with unit
    entries: presentations whose initial module prunes generators."""
    path = tmp_path / "units.mod"
    path.write_text(_UNIT_MODULE)
    return [_redundant_generator(standard_ring()), load_module(path)]


def test_oracle_equals_duality_path_with_unit_relations(tmp_path):
    # the oracle multiplies in the standard monomials of the generators
    # that survive the pruning of units
    window = Window(-3, 3, -3, 3)
    nonzero = 0
    for M in _unit_presentations(tmp_path):
        assert initial_module(M).target.rank < len(M.gens)
        for theory in ("P", "Q", "R+"):
            for i in range(0, 5 if theory == "R+" else 3):
                table = local_coh_table(M, theory, i, window)
                assert oracle_table(M, theory, i, window).cells == \
                    table.cells, (str(M), theory, i)
                nonzero += not table.is_zero()
    assert nonzero


def test_initial_module_dims_with_unit_relations(tmp_path):
    # hilbert_dim ranks P's own matrix, so it referees the initial module
    # of the pruned relations independently of _prune
    for M in _unit_presentations(tmp_path):
        for d in Window(-2, 4, -2, 4).cells():
            assert initial_module(M).dim_at(d) == hilbert_dim(M, d), \
                (str(M), tuple(d))


def _block_change(P, seed):
    """P after a seeded invertible linear change of coordinates within each
    variable block, so its relations get generic coefficients."""
    ring = P.ring
    rng = random.Random(seed)
    images = []
    for block in (range(ring.m), range(ring.m, ring.nvars)):
        while True:
            rows = [[rng.randrange(ring.p) for _ in block] for _ in block]
            cols = [{i: row[j] for i, row in enumerate(rows) if row[j]}
                    for j in range(len(block))]
            if rank_of_array(Matrix((len(block),) * 2, cols),
                             ring.p) == len(block):
                break
        images += [sum((ring.variable(v).scale(a) for v, a in zip(block, row)),
                       ring.zero()) for row in rows]

    def substitute(f):
        out = ring.zero()
        for mono, coeff in f.terms:
            term = ring.one().scale(coeff)
            for v, e in enumerate(ring.exponents(mono)):
                for _ in range(e):
                    term = term * images[v]
            out = out + term
        return out

    return Presentation(ring, P.gens, P.rels, tuple(
        ModuleElement(P.target, tuple(map(substitute, col.coords)))
        for col in P.columns))


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_oracle_equals_duality_path_generic_coefficients(p):
    # the named fixtures have coefficients +-1; after a change of
    # coordinates a Koszul step can send a standard monomial to a
    # non-unit multiple of another, which the oracle must scale right
    window = Window(-2, 2, -2, 2)
    generic = 0
    for k, (name, P) in enumerate(named_fixtures(standard_ring(p)).items()):
        M = _block_change(P, seed=p + k)
        generic += any(c not in (1, p - 1) for col in M.columns
                       for _, c in col.terms)
        for theory in ("P", "Q", "R+"):
            for i in range(0, 5 if theory == "R+" else 3):
                table = local_coh_table(M, theory, i, window)
                for d in window.cells():
                    assert cech_oracle(M, theory, i, d) == table[d], \
                        (name, theory, i, tuple(d))
    assert generic or p < 5


def ext_into_dim(M, W, j, d):
    """dim_K Ext^j(M, W)_d for an arbitrary coefficient module W over the
    same ring, via the Hom complex of the minimal resolution of M, built
    by the block builder _block_hom_piece, which takes the multi-term
    entries of the resolution's maps.  It never builds an Ext module, so
    it referees the Ext tables."""
    assert M.ring == W.ring
    res = resolve(M)
    if j < 0 or j > res.length:
        return 0
    layer, d = initial_module(W), Bidegree(*d)
    spots = {i: cohomology._spot(layer, d, res.shifts(i))
             for i in (j - 1, j, j + 1)}

    def hom(i):
        """Degree-d piece of Hom(F_(i-1), W) -> Hom(F_i, W)."""
        rows = (tuple(zip(*(col.coords for col in res.maps[i - 1])))
                if 1 <= i <= res.length else ())
        return _block_hom_piece(layer, spots[i - 1], spots[i], (
            (k, l, f) for k, row in enumerate(rows)
            for l, f in enumerate(row) if f))

    return homology_dim(hom(j), hom(j + 1), W.ring.p)


# Multiplication by a monomial before it read the unit columns off the
# standard monomials and the others off the initial module's table of
# normal forms: every column through the composite of the single-variable
# steps, each step the matrix of one variable from one piece to the next,
# with a normal form per column that leaves the standard monomials.  It
# referees _mult (the basis index and normal-form table that the oracle's
# matrices read), and it builds the blocks of the referee builders below:
# those of the oracle's matrices and those of the Hom complexes of
# ext_into_dim.

_steps = {}   # (layer, var, d) -> matrix of the variable from M_d


def _step(layer, var, d):
    mat = _steps.get((layer, var, d))
    if mat is not None:
        return mat
    ring, target = layer.ring, layer.target
    index = layer.basis(d + ring.variable_degree(var))
    unit = ring.variable(var).terms[0][0]
    cols = []
    for k, mono in layer.basis(d):
        coords = [ring.zero()] * target.rank
        coords[k] = Polynomial(ring, ((mono + unit, 1),))
        nf = normal_form(ModuleElement(target, tuple(coords)), layer.gb)
        cols.append({index[(kk, mm)]: coeff
                     for kk, poly in enumerate(nf.coords)
                     for mm, coeff in poly.terms})
    mat = _steps[(layer, var, d)] = Matrix((len(index), len(cols)), cols)
    return mat


def _composite_mult(layer, mono, d):
    ring = layer.ring
    cur = Bidegree(*d)
    mat = None
    for var, e in enumerate(ring.exponents(mono)):
        for _ in range(e):
            step = _step(layer, var, cur)
            mat = step if mat is None else compose(step, mat, ring.p)
            cur = cur + ring.variable_degree(var)
    if mat is None:
        size = len(layer.basis(cur))
        return Matrix((size, size), [{i: 1} for i in range(size)])
    return mat


def _mult(layer, mono, d):
    """Matrix of multiplication by the monomial from M_d up, read off the
    initial module: a standard product is a single 1 at its position, any
    other one its normal form."""
    d = Bidegree(*d)
    index = layer.basis(d + mono_bidegree(layer.ring, mono))
    cols = []
    for k, m in layer.basis(d):
        row = index.get((k, m + mono))
        cols.append({row: 1} if row is not None else layer.nf(k, m + mono))
    return Matrix((len(index), len(cols)), cols)


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_mult_matches_the_composite_of_steps(p):
    # on every piece of the box 0..4 x 0..4: the powers v^e, e <= 5, of
    # the oracle's Koszul blocks and every monomial of degree <= 3, as in
    # the entries of ext_into_dim; the generic coefficients of the
    # block-changed fixtures make columns that leave the standard
    # monomials, so both kinds of column are compared
    ring = standard_ring(p)
    fixtures = named_fixtures(ring)
    modules = list(fixtures.values())
    modules += [_block_change(P, seed=p + k)
                for k, P in enumerate(fixtures.values())]
    modules.append(gencm_fixture(ring))
    exponents = {e for e in product(range(4), repeat=ring.nvars)
                 if sum(e) <= 3}
    exponents.update(tuple(e if v == var else 0 for v in range(ring.nvars))
                     for var in range(ring.nvars) for e in range(4, 6))
    monos = [ring.monomial(e) for e in sorted(exponents)]
    kinds = set()
    for M in modules:
        layer = initial_module(M)
        for d in Window(0, 4, 0, 4).cells():
            for mono in monos:
                ref = _composite_mult(layer, mono, d)
                mat = _mult(layer, mono, d)
                assert (mat.shape, mat.cols) == (ref.shape, ref.cols), \
                    (str(M), ring.exponents(mono), tuple(d))
                kinds.update(len(col) == 1 and 1 in col.values()
                             for col in ref.cols)
    assert kinds == {True, False}


# The Hom builder before it wrote its columns directly: one block per
# (entry, piece), the multiplication matrix of each term from the steps,
# scaled and summed mod p.  It builds the maps of ext_into_dim, whose
# entries after a change of coordinates have several terms; the oracle's
# Hom builder takes one signed monomial per entry and is refereed below.


def _poly_action_matrix(layer, entry, d):
    p, terms = layer.ring.p, entry.terms
    mono, c = terms[0]
    first = _composite_mult(layer, mono, d)
    cols = [{i: c * x for i, x in col.items()} for col in first.cols]
    for mono, c in terms[1:]:
        for acc, col in zip(cols, _composite_mult(layer, mono, d).cols):
            for i, x in col.items():
                acc[i] = acc.get(i, 0) + c * x
    return Matrix(first.shape, [{i: r for i, v in acc.items() if (r := v % p)}
                                for acc in cols])


def _block_hom_piece(layer, src, tgt, entries):
    pieces, src_dims, src_off = src
    _, tgt_dims, tgt_off = tgt
    mat = Matrix.zeros(tgt_off[-1], src_off[-1])
    if not (src_off[-1] and tgt_off[-1]):
        return mat
    for k, l, f in entries:
        if not (src_dims[k] and tgt_dims[l]):
            continue
        block = _poly_action_matrix(layer, f, pieces[k])
        for j, col in enumerate(block.cols, src_off[k]):
            for i, v in col.items():
                mat.cols[j][tgt_off[l] + i] = v
    return mat


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_oracle_normal_forms_each_monomial_once(p, monkeypatch):
    # over the oracle_table calls of one module, a product that leaves the
    # standard monomials is divided once per (position, monomial), as the
    # one-term dict {k << width | mono: 1}, and is read off the initial
    # module's table after that; the free module has no such product.
    # Each presentation gets an initial module of its own, so no earlier
    # call has filled its table
    calls = []
    divide = resolution._divide

    def counted(module, work, table, with_quotients=False):
        (key, coeff), = work.items()
        assert coeff == 1 and not with_quotients
        calls.append(key)
        return divide(module, work, table, with_quotients)

    layers = {}

    def fresh(P):
        if P not in layers:
            layers[P] = resolution.initial_module.__wrapped__(P)
        return layers[P]

    monkeypatch.setattr(resolution, "_divide", counted)
    monkeypatch.setattr(cohomology, "initial_module", fresh)
    ring = standard_ring(p)
    fixtures = named_fixtures(ring)
    modules = list(fixtures.values())
    modules += [_block_change(P, seed=p + k)
                for k, P in enumerate(fixtures.values())]
    window = Window(-2, 2, -2, 2)
    normalized = 0
    for M in modules:
        calls.clear()
        for theory in ("P", "Q"):
            oracle_table(M, theory, 1, window)
            assert len(calls) == len(set(calls)), (str(M), theory)
            if not M.rels:
                assert not calls
        layer = layers[M]
        target = layer.target
        assert sorted(calls) == sorted(k << ring.width | mono
                                       for k, mono in layer._nfs)
        for k, mono in layer._nfs:
            rem = normal_form(ModuleElement(target, tuple(
                Polynomial(ring, ((mono, 1),)) if kk == k else ring.zero()
                for kk in range(target.rank))), layer.gb)
            index = layer.basis(target.shifts[k] + mono_bidegree(ring, mono))
            assert layer.nf(k, mono) == {
                index[(kk, mm)]: c for kk, poly in enumerate(rem.coords)
                for mm, c in poly.terms}
        normalized += len(layer._nfs)
    assert normalized


# The builder of the oracle's matrices before every Koszul generator had
# its own shift: one piece degree per spot, blocks placed slot by slot.
# It referees cohomology._hom_piece on the oracle's complexes.


def _ref_monomial(ring, powers):
    return ring.monomial(tuple(powers.get(var, 0)
                               for var in range(ring.nvars)))


def _koszul_spot(layer, step, slots, p_spot, t, d):
    piece = d + Bidegree(step.a * t * p_spot, step.b * t * p_spot)
    return slots, piece, len(layer.basis(piece))


def _block_matrix(tgt, src, blocks):
    tgt_slots, _, tgt_dim = tgt
    src_slots, _, src_dim = src
    mat = Matrix.zeros(tgt_dim * len(tgt_slots), src_dim * len(src_slots))
    if src_dim and tgt_dim:
        for ti, si, block in blocks:
            for j, c in enumerate(block.cols, si * src_dim):
                for r, v in c.items():
                    mat.cols[j][ti * tgt_dim + r] = v
    return mat


def _koszul_differential(layer, variables, t, src, tgt):
    ring = layer.ring
    p = ring.p
    tgt_index = {s: i for i, s in enumerate(tgt[0])}
    built = {}

    def blocks():
        for si, T in enumerate(src[0]):
            for j, v in enumerate(variables):
                if j in T:
                    continue
                sign = sum(1 for u in T if u < j) % 2
                if (j, 0) not in built:
                    built[j, 0] = _composite_mult(
                        layer, _ref_monomial(ring, {v: t}), src[1])
                if (j, sign) not in built:
                    pos = built[j, 0]
                    built[j, 1] = Matrix(pos.shape, [
                        {r: p - x for r, x in c.items()} for c in pos.cols])
                yield tgt_index[tuple(sorted(T + (j,)))], si, built[j, sign]

    return _block_matrix(tgt, src, blocks())


class _Differential(list):
    """The entries of one Koszul differential, tagged with its level t and
    the size q of the subsets of its source slots."""


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_oracle_matrices_match_the_referee_builder(p, monkeypatch):
    # every A and B the oracle builds through _hom_piece equals, entry for
    # entry, the one of the referee builder at the same level, on the named
    # fixtures and their generic-coefficient versions
    hom_piece = cohomology._hom_piece
    differential = cohomology._koszul_differential
    built = []

    def tagged(ring, units, t, src, tgt):
        entries = _Differential(differential(ring, units, t, src, tgt))
        entries.t, entries.q = t, len(src[0])
        return entries

    def recorded(layer, src, tgt, entries):
        mat = hom_piece(layer, src, tgt, entries)
        built.append((entries.t, entries.q, mat))
        # the columns where a -1 sign meets a product that leaves the
        # standard monomials for a nonzero normal form
        for k, l, mono, c in entries:
            if c == layer.ring.p - 1 and src[1][k] and tgt[1][l]:
                index = layer.basis(tgt[0][l])
                counts["signed normal form"] += sum(
                    (g, m + mono) not in index and bool(layer.nf(g, m + mono))
                    for g, m in layer.basis(src[0][k]))
        return mat

    monkeypatch.setattr(cohomology, "_koszul_differential", tagged)
    monkeypatch.setattr(cohomology, "_hom_piece", recorded)
    window = Window(-2, 2, -2, 2)
    ring = standard_ring(p)
    fixtures = named_fixtures(ring)
    modules = list(fixtures.values())
    modules += [_block_change(P, seed=p + k)
                for k, P in enumerate(fixtures.values())]
    # leads x1*x2 and y1*y2: the second variable of each block, whose
    # Koszul entries carry the -1 signs, leaves the standard monomials
    x1, x2, y1, y2 = ring.gens()
    modules.append(quotient_by_polys(ring, [x1 * x2 + (x2 * x2).scale(2),
                                            y1 * y2 + (y2 * y2).scale(2)]))
    counts = {"differential": 0, "signed normal form": 0}
    for M in modules:
        ring, layer = M.ring, initial_module(M)
        for theory in ("P", "Q"):
            variables = (list(range(ring.m)) if theory == "P"
                         else list(range(ring.m, ring.nvars)))
            step = ring.variable_degree(variables[0])
            for i in range(0, 3):
                for d in window.cells():
                    built.clear()
                    cech_oracle(M, theory, i, d)

                    def spot(q, t):
                        slots = list(combinations(range(len(variables)), q))
                        return _koszul_spot(layer, step, slots, q, t, d)

                    for t, q, mat in built:
                        ref = _koszul_differential(
                            layer, variables, t, spot(q, t), spot(q + 1, t))
                        counts["differential"] += 1
                        assert (mat.shape, mat.cols) == \
                            (ref.shape, ref.cols), (theory, i, tuple(d), t, q)
    assert all(counts.values()), counts


def test_oracle_checks_that_its_maps_compose(S, monkeypatch):
    # the Koszul differentials without their signs have the right shapes
    # but do not compose to zero: every level must reject them, whatever
    # its kernel and rank would say
    build = cohomology._koszul_differential

    def unsigned(*args):
        for k, l, mono, _ in build(*args):
            yield k, l, mono, 1

    monkeypatch.setattr(cohomology, "_koszul_differential", unsigned)
    with pytest.raises(ComposeError, match="B\\*A is not zero"):
        cech_oracle(S, "Q", 1, (0, 0))


def test_oracle_builds_nothing_around_an_empty_middle_spot(S, monkeypatch):
    # S_(-1,0) = 0, so the one level of H^0_P(S) at (-1,0) has an empty
    # spot K_0(t): it builds that spot alone and no matrix.  At (0,0) the
    # spot is S_(0,0), and the level builds its map into K_1(t)
    calls = {"_spot": 0, "_hom_piece": 0}
    for name in calls:
        def counted(*args, _name=name, _build=getattr(cohomology, name)):
            calls[_name] += 1
            return _build(*args)
        monkeypatch.setattr(cohomology, name, counted)
    assert cech_oracle(S, "P", 0, (-1, 0)) == 0
    assert calls == {"_spot": 1, "_hom_piece": 0}
    assert cech_oracle(S, "P", 0, (0, 0)) == 0
    assert calls["_hom_piece"] == 1


def test_oracle_table_matches_the_referee_loop():
    # oracle_table and cech_oracle equal the duality path in every cell:
    # the window -3..3 and the lines a = -9 and b = -9, far below the
    # generators, where the first Koszul levels are zero for degree
    # reasons alone
    windows = (Window(-3, 3, -3, 3), Window(-9, -9, -9, 9),
               Window(-8, 9, -9, -9))
    fixtures = named_fixtures(standard_ring())
    modules = list(fixtures.values())
    modules += [_block_change(P, seed=32003 + k)
                for k, P in enumerate(fixtures.values())]
    nonzero = 0
    for M in modules:
        for theory in ("P", "Q"):
            for i in range(0, 3):
                for window in windows:
                    table = oracle_table(M, theory, i, window)
                    ref = local_coh_table(M, theory, i, window)
                    for d in window.cells():
                        assert table[d] == ref[d], (theory, i, tuple(d))
                        assert cech_oracle(M, theory, i, d) == ref[d]
                        nonzero += ref[d] > 0
    assert nonzero > 100, nonzero


def test_top_p_cohomology_far_below_the_generators(S):
    # H^2_P(S)_(a,0) = -a - 1 for a <= -2
    assert local_coh_table(S, "P", 2, Window(-9, -9, 0, 0))[(-9, 0)] == 8


def test_oracle_far_below_the_generators(S):
    assert cech_oracle(S, "P", 2, (-9, 0)) == 8


def test_oracle_on_a_random_quotient_inside_the_window():
    # S/(y1, x2*l) with l linear: H^1_P at (-5, b) is 2 for b = 0..5,
    # where the Koszul levels below t_0 still read 0
    M = random_quotients(RingSpec(2, 2), 3, 11)[1]
    assert len(resolve(M).shifts(1)) == 2
    window = Window(-5, -5, 0, 5)
    assert local_coh_table(M, "P", 1, window).cells == \
        oracle_table(M, "P", 1, window).cells == \
        {(-5, b): 2 for b in range(6)}


def _variables(ring, theory):
    return {"P": range(ring.m), "Q": range(ring.m, ring.nvars),
            "R+": range(ring.nvars)}[theory]


def _first_final_level(M, theory, i, d):
    """t_0(d) = max(1, s_k - d_k - r_k + 1) over the shifts s of
    F_(r-i-1), F_(r-i) and F_(r-i+1) of the minimal resolution and the
    blocks k of the ideal's variables, r_k of them (r in all)."""
    ring = M.ring
    r = len(_variables(ring, theory))
    blocks = {"P": ((0, ring.m),), "Q": ((1, ring.n),),
              "R+": ((0, ring.m), (1, ring.n))}[theory]
    res = resolve(M)
    return max([1] + [s[k] - d[k] - size + 1
                      for j in (r - i - 1, r - i, r - i + 1)
                      for s in res.shifts(j) for k, size in blocks])


def _oracle_level(M, theory, i, t, d):
    """(A, B, spot of K_i(t), prod_T v for the q-subsets T of K_i) of
    level t of the oracle at d, from the oracle's builders."""
    ring, layer = M.ring, initial_module(M)
    units = [ring.variable(v).terms[0][0] for v in _variables(ring, theory)]
    slots = {q: list(combinations(range(len(units)), q))
             for q in (i - 1, i, i + 1) if q >= 0}
    prods = {q: [sum(units[j] for j in T) for T in Ts]
             for q, Ts in slots.items()}
    spots = {q: cohomology._spot(layer, d, [mono_bidegree(ring, t * mono)
                                            for mono in monos])
             for q, monos in prods.items()}

    def koszul(q):
        return cohomology._hom_piece(
            layer, spots[q], spots[q + 1], cohomology._koszul_differential(
                ring, units, t, slots[q], slots[q + 1]))

    B = koszul(i)
    A = koszul(i - 1) if i > 0 else Matrix.zeros(B.shape[1], 0)
    check_complex(A, B, ring.p)
    return A, B, spots[i], prods[i]


def test_level_t0_is_final_one_level_up(monkeypatch):
    # level t_0 and level t_0 + 1 have the same homology, and the chain
    # map between them, e_T -> (prod_T v) e_T, induces an isomorphism: the
    # cycles of level t_0 mapped into level t_0 + 1 have full rank modulo
    # its boundaries.  The oracle builds its differentials at t_0 and
    # reads the homology of level t_0.  S, the block-changed fixtures and
    # S/(y1, x2*l)
    fixtures = named_fixtures(standard_ring(3))
    modules = [fixtures["S"]]
    modules += [_block_change(P, seed=3 + k)
                for k, P in enumerate(fixtures.values())]
    modules.append(random_quotients(RingSpec(2, 2), 3, 11)[1])
    levels = set()
    differential = cohomology._koszul_differential

    def recorded(ring, units, t, src, tgt):
        levels.add(t)
        return differential(ring, units, t, src, tgt)

    monkeypatch.setattr(cohomology, "_koszul_differential", recorded)
    isomorphisms = {"P": 0, "Q": 0, "R+": 0}
    for M in modules:
        p, ring, layer = M.ring.p, M.ring, initial_module(M)
        for theory, window in (("P", Window(-4, 1, -2, 1)),
                               ("Q", Window(-2, 1, -4, 1)),
                               ("R+", Window(-3, 1, -3, 1))):
            for i in range(0, len(_variables(ring, theory)) + 1):
                for d in window.cells():
                    t = _first_final_level(M, theory, i, d)
                    A, B, spot, prods = _oracle_level(M, theory, i, t, d)
                    A1, B1, spot1, _ = _oracle_level(M, theory, i, t + 1, d)
                    h = B.shape[1] - rank_of_array(B, p) - rank_of_array(A, p)
                    assert h == (B1.shape[1] - rank_of_array(B1, p)
                                 - rank_of_array(A1, p)), (theory, i, d)
                    chi = cohomology._hom_piece(
                        layer, spot, spot1,
                        [(k, k, mono, 1) for k, mono in enumerate(prods)])
                    cycles = tracked_echelon(B, p)[1]
                    pivots = tracked_echelon(A1, p)[0]
                    mapped = compose(
                        chi, Matrix((B.shape[1], len(cycles)), cycles), p)
                    assert len(tracked_echelon(mapped, p, pivots)[0]) \
                        - len(pivots) == h, (theory, i, d)
                    isomorphisms[theory] += h > 0
                    levels.clear()
                    assert cech_oracle(M, theory, i, d) == h
                    assert levels <= {t}, (theory, i, d, levels)
    assert all(n > 30 for n in isomorphisms.values()), isomorphisms


class _LeadBound:
    """Stands in for the minimal resolution in the oracle's t_0: every
    position's shifts are g_k + lcm of the lead terms in position k of
    in(M), over the generators g_k.  The Taylor resolution of in(M) has
    no larger shift, and the minimal resolution of M none larger than
    that of in(M), so this bound is independent of resolve."""

    def __init__(self, M):
        ring, layer = M.ring, initial_module(M)
        lcms = [[0] * ring.nvars for _ in M.gens]
        for k, mono, _ in layer.leads:
            lcms[k] = [max(e, f) for e, f in
                       zip(lcms[k], ring.exponents(mono))]
        self.bounds = tuple(
            Bidegree(*g) + mono_bidegree(ring, ring.monomial(tuple(e)))
            for g, e in zip(M.gens, lcms))

    def shifts(self, k):
        return self.bounds


def test_lead_term_bound_gives_the_same_tables(monkeypatch):
    # t_0 taken from the lcm of each position's lead terms, not from the
    # minimal resolution: the same oracle tables on the named fixtures and
    # their block changes, some of them read at other levels
    fixtures = named_fixtures(standard_ring(3))
    modules = list(fixtures.values())
    modules += [_block_change(P, seed=3 + k)
                for k, P in enumerate(fixtures.values())]
    windows = {"P": Window(-4, 2, -2, 2), "Q": Window(-2, 2, -4, 2),
               "R+": Window(-3, 1, -3, 1)}
    levels = set()
    differential = cohomology._koszul_differential

    def recorded(ring, units, t, src, tgt):
        levels.add(t)
        return differential(ring, units, t, src, tgt)

    def table_and_levels(M, theory, i, window):
        levels.clear()
        return oracle_table(M, theory, i, window), set(levels)

    monkeypatch.setattr(cohomology, "_koszul_differential", recorded)
    tight = {(M, theory, i): table_and_levels(M, theory, i, window)
             for M in modules for theory, window in windows.items()
             for i in range(0, 5 if theory == "R+" else 3)}
    monkeypatch.setattr(cohomology, "resolve", _LeadBound)
    moved = 0
    for (M, theory, i), (table, built) in tight.items():
        lead, lead_built = table_and_levels(M, theory, i, table.window)
        assert lead.cells == table.cells, (str(M), theory, i)
        moved += lead_built != built
    assert moved


def test_r_plus_oracle_reads_each_flipped_cell_where_it_lands(tmp_path,
                                                              capsys):
    # the R+ table reads H^i_R+(M)_d off Ext^(m+n-i)(M, omega)_(-d), and
    # `bicoh locoh` labels it flipped; the oracle computes H^i_R+(M)_d
    # with no dual, so it checks each cell where the flip puts it.  Read
    # unflipped, the Ext table differs from the oracle inside the window
    ring = standard_ring()
    fixtures = named_fixtures(ring)
    modules = list(fixtures.values())
    modules += [_block_change(P, seed=ring.p + k)
                for k, P in enumerate(fixtures.values())]
    modules.append(gencm_fixture(ring))
    window = Window(-5, 2, -5, 2)
    nonzero = unflipped = 0
    for M in modules:
        for i in range(0, ring.nvars + 1):
            table = local_coh_table(M, "R+", i, window)
            ext = ext_table(M, ring.nvars - i, -window)
            oracle = oracle_table(M, "R+", i, window)
            assert _locoh_label(M, "R+", i, window, tmp_path, capsys) \
                .endswith(", flipped=True)")
            for d in window.cells():
                assert oracle[d] == table[d] == ext[-d], (str(M), i, d)
                nonzero += oracle[d] > 0
                unflipped += oracle[d] != ext.cells.get(tuple(d), 0)
    assert nonzero > 100 and unflipped, (nonzero, unflipped)


def test_grothendieck_vanishing_per_strand(ring, two_relations):
    # H^i_P cells vanish when i exceeds the strand dimension
    window = Window(-4, 4, -4, 4)
    for b in window.b_range:
        bound = initial_module(strand(two_relations, 0, b)).krull_dim()
        for i in range(max(0, bound + 1), ring.m + 1):
            row = local_coh_table(two_relations, "P", i,
                                  Window(-4, 4, b, b))
            assert all(row[(a, b)] == 0 for a in window.a_range)


def _strand_rule_modules(p):
    """The named fixtures, gencm, a seeded quotient over each of ten ring
    shapes, and the Ext modules of all of them."""
    ring = standard_ring(p)
    modules = list(named_fixtures(ring).values()) + [gencm_fixture(ring)]
    for m, n in ((2, 2), (3, 1), (1, 3), (1, 2), (2, 1), (2, 0), (0, 2),
                 (1, 1), (1, 0), (3, 0)):
        modules += random_quotients(RingSpec(m, n, p), 1, seed=p + 10 * m + n,
                                    max_degree=(2, 2))
    return modules + [ext_presentation(M, j) for M in modules
                      for j in range(resolve(M).length + 1)]


@pytest.mark.parametrize("p", [2, 3, 11, 32003])
def test_strands_decided_by_their_dimension_match_their_ext(p):
    # local_coh_table builds no strand whose Krull dimension, read off M's
    # numerator, fixes H^i: 0 for i outside 0..dim, the strand itself for
    # dim 0.  Build every such strand, read the same cells off its Ext
    # module, and check the dimension against the strand's initial module
    windows = (Window(-6, 6, -6, 6), Window(-9, -9, -9, 9),
               Window(-9, 9, -9, -9))
    seen = Counter()
    for M in _strand_rule_modules(p):
        ring = M.ring
        for theory, k, length in (("P", 0, ring.m), ("Q", 1, ring.n)):
            if not length:
                continue
            dims = {}
            for i, window in product(range(-1, length + 2), windows):
                table = local_coh_table(M, theory, i, window)
                for c in (window.b_range, window.a_range)[k]:
                    N = strand(M, k, c)
                    if c not in dims:
                        dims[c] = strand_dim(M, k, c)
                        assert dims[c] == initial_module(N).krull_dim(), \
                            (theory, str(M), c)
                    if 0 <= i <= dims[c] > 0:
                        seen["built"] += 1
                        continue
                    line = ([(a, c) for a in window.a_range],
                            [(c, b) for b in window.b_range])[k]
                    degrees = [(-d[0], 0) if k == 0 else (0, -d[1])
                               for d in line]
                    ext = resolve(N).ext_dims(length - i, degrees)
                    assert [table[d] for d in line] == ext, \
                        (theory, i, str(M), c)
                    seen["finite" if dims[c] == 0 and i == 0 and any(ext)
                         else "vanishing"] += 1
    assert min(seen["built"], seen["finite"], seen["vanishing"]) > 50, seen


def test_a_decided_strand_is_never_built(monkeypatch):
    # with the strand cache bypassed, every table builds exactly the
    # strands that their dimension leaves undecided, in window order
    built, build = [], strand.__wrapped__
    monkeypatch.setattr(cohomology, "strand",
                        lambda *args: built.append(args) or build(*args))
    ring = standard_ring(19)
    modules = [gencm_fixture(ring)] + random_quotients(ring, 4, seed=19)
    window = Window(-4, 4, -4, 4)
    skipped = builds = 0
    for M in modules:
        for theory, k in (("P", 0), ("Q", 1)):
            for i in range(-1, 4):
                built.clear()
                local_coh_table(M, theory, i, window)
                lines = (window.b_range, window.a_range)[k]
                dims = [strand_dim(M, k, c) for c in lines]
                undecided = [c for c, dim in zip(lines, dims)
                             if 0 <= i <= dim > 0]
                assert built == [(M, k, c) for c in undecided]
                skipped += len(lines) - len(undecided)
                builds += len(undecided)
    assert skipped > 100 and builds > 20, (skipped, builds)


def test_gencm_check_on_the_benchmark_window_builds_two_strands(
        tmp_path, monkeypatch):
    # the ext_window benchmark input: gencm_fixture's relations after the
    # block change of seed 5, checked over -13..13.  Its four P and Q
    # tables run over 108 strands; only the two at degree 0, of dimension
    # 2 (the P-strand of the dual module and the Q-strand of M), are
    # built and reach an Ext module
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads
    misses = strand.cache_info().misses
    workloads.build("ext_window", 5, tmp_path)
    M = load_module(tmp_path / "gencm.mod")
    report = check_gencm_les(M, Window.parse(workloads.EXT_WINDOW))
    assert report.passed and report.checked == 729
    # a strand is built on each miss of strand's cache, from any caller
    assert strand.cache_info().misses - misses <= 2, strand.cache_info()


def _swap_blocks(P):
    """P with the two variable blocks swapped: over F_p[y, x], exponents
    listed y first, so every bidegree (a, b) becomes (b, a)."""
    ring = P.ring
    swapped = RingSpec(ring.n, ring.m, ring.p)

    def swap(f):
        return Polynomial.from_dict(swapped, {
            swapped.monomial(e[ring.m:] + e[:ring.m]): c
            for e, c in ((ring.exponents(mono), c) for mono, c in f.terms)})

    target = FreeModule(swapped, tuple((b, a) for a, b in P.gens))
    return Presentation(swapped, target.shifts,
                        tuple((b, a) for a, b in P.rels),
                        tuple(ModuleElement(target, tuple(map(swap,
                                                              col.coords)))
                              for col in P.columns))


@pytest.mark.parametrize("p", [3, 32003])
def test_p_and_q_tables_are_mirror_images(p):
    # swapping the blocks turns P into Q and fixes R+, so H^i_P(M)_(a,b) =
    # H^i_Q(swap M)_(b,a) and H^i_R+(M)_(a,b) = H^i_R+(swap M)_(b,a): the
    # strand loop over block 0 against the one over block 1
    ring = standard_ring(p)
    modules = list(named_fixtures(ring).values()) + [gencm_fixture(ring)]
    for m, n in ((2, 1), (1, 2), (3, 1), (2, 0)):
        modules += random_quotients(RingSpec(m, n, p), 2, seed=p + 10 * m + n)
    window = Window(-5, 5, -5, 5)
    cells, nonzero = 0, Counter()
    for M in modules:
        W = _swap_blocks(M)
        pairs = [("P", "Q"), ("R+", "R+")]
        if M.ring.n:
            pairs.append(("Q", "P"))
        for i, (theory, mirror) in product(range(-1, M.ring.nvars + 2),
                                           pairs):
            table = local_coh_table(M, theory, i, window)
            image = local_coh_table(W, mirror, i, window)
            for a, b in window.cells():
                assert table[(a, b)] == image[(b, a)], \
                    (str(M), theory, i, a, b)
                cells += 1
                nonzero[theory] += table[(a, b)] > 0
    assert cells == 28919 and min(nonzero.values()) > 150, nonzero


def test_p_and_q_oracles_are_mirror_images(ring):
    window = Window(-3, 3, -3, 3)
    for M in named_fixtures(ring).values():
        W = _swap_blocks(M)
        for i, (theory, mirror) in product(range(-1, ring.m + 2),
                                           (("P", "Q"), ("Q", "P"))):
            table = oracle_table(M, theory, i, window)
            image = oracle_table(W, mirror, i, window)
            for a, b in window.cells():
                assert table[(a, b)] == image[(b, a)], \
                    (str(M), theory, i, a, b)


def test_q_vanishing_outside_depth_range(ring, two_relations):
    window = Window(-4, 4, -4, 4)
    prof = profile(two_relations)
    for i in range(ring.n + 1, ring.n + 3):
        assert local_coh_table(two_relations, "Q", i, window).is_zero()
    for i in range(0, prof.depth - ring.m):
        assert local_coh_table(two_relations, "Q", i, window).is_zero()


def _restricted_ext_dim(res, j, d):
    """dim Ext^j(M, omega)_d from any resolution of M, minimal or not: the
    homology at spot j of the dualized resolution, restricted to degree d
    and ranked."""
    ring = res.ring
    c = ring.canonical_degree
    before, mid, after = (FreeModule(ring, tuple(c - s for s in res.shifts(i)))
                          for i in (j - 1, j, j + 1))

    def transpose(i, target, source):
        """The columns of the dual of maps[i], zero outside 0..len-1: the
        dual of a map is its transpose."""
        coords = ([col.coords for col in res.maps[i]]
                  if 0 <= i < res.length else [])
        return [ModuleElement(target, tuple(c[l] for c in coords))
                for l in range(source.rank)]

    return homology_dim(
        restrict_matrix(mid, before, transpose(j - 1, mid, before), d),
        restrict_matrix(after, mid, transpose(j, after, mid), d), ring.p)


def test_ext_table_resolution_independent(ring, two_relations):
    # the raw Schreyer chain, not minimal on the redundant generator,
    # gives the Ext tables read off the pruned resolution
    window = Window(-2, 2, -2, 2)
    redundant = _redundant_generator(ring)
    assert len(_raw_resolution(redundant).shifts(0)) > \
        len(resolve(redundant).shifts(0))
    for M in (two_relations, redundant):
        raw = _raw_resolution(M)
        for j in range(0, raw.length + 1):
            table = ext_table(M, j, window)
            for d in window.cells():
                assert _restricted_ext_dim(raw, j, d) == table[d], \
                    (str(M), j, tuple(d))


def test_second_q_table_builds_no_new_resolution(two_relations,
                                                 monkeypatch):
    # a second Q table over the same strands (same a range, new b range)
    # resolves no new strand, builds no new initial module and eliminates
    # no matrix: it reads the dual-cokernel numerators of the strand
    # resolutions cached by the first.  Neither table presents an Ext
    # module, through this binding or any other (the counter covers every
    # binding)
    built = count_ext_builds(monkeypatch)
    monkeypatch.setattr(resolution, "ext_presentation",
                        lambda *args: pytest.fail("built an Ext module"))
    local_coh_table(two_relations, "Q", 2, Window(-2, 2, -2, 2))
    misses = (resolve.cache_info().misses,
              initial_module.cache_info().misses)
    monkeypatch.setattr(linalg, "_echelon",
                        lambda *args, **kw: pytest.fail("eliminated"))
    table = local_coh_table(two_relations, "Q", 2, Window(-2, 2, -5, 4))
    assert (resolve.cache_info().misses,
            initial_module.cache_info().misses) == misses
    assert not built
    assert not table.is_zero()


def cd_estimate(M, theory, window):
    """The window referee of cohomological_dimension: the largest i with a
    nonzero H^i_theory cell in the window, else 0 (also for an ideal
    without variables, which is (0)).  It cannot see the -1 of the zero
    module."""
    for i in range((M.ring.m, M.ring.n)["PQ".index(theory)], 0, -1):
        if not local_coh_table(M, theory, i, window).is_zero():
            return i
    return 0


def _mod_by_irrelevant(N):
    """N / (x)N over the full ring: append the columns x_i * e_k.  The
    route tame.limit_profile_check took to dim N/(x)N before it read
    cd(Q, N), kept as the referee of cohomological_dimension."""
    ring = N.ring
    gens = N.gens
    new_rels = list(N.rels)
    new_cols = []
    for k, s in enumerate(gens):
        for var in range(ring.m):
            col = [ring.zero()] * len(gens)
            col[k] = ring.variable(var)
            new_cols.append(ModuleElement(N.target, tuple(col)))
            new_rels.append(Bidegree(*s) + ring.variable_degree(var))
    return Presentation(ring, gens, tuple(new_rels),
                        N.columns + tuple(new_cols))


def _mod_by_y(N):
    """N / (y)N, the mirror of _mod_by_irrelevant: append the columns
    y_v * e_k."""
    ring = N.ring
    pairs = [(k, v) for k in range(len(N.gens))
             for v in range(ring.m, ring.nvars)]
    rels = tuple(N.gens[k] + ring.variable_degree(v) for k, v in pairs)
    columns = tuple(ModuleElement(N.target, tuple(
        ring.variable(v) if k == kk else ring.zero()
        for kk in range(len(N.gens)))) for k, v in pairs)
    return Presentation(ring, N.gens, N.rels + rels, N.columns + columns)


def test_cd_estimate_examples(ring, S, q_torsion, hypersurface):
    window = Window(-4, 4, -4, 4)
    assert cd_estimate(S, "Q", window) == 2
    assert cd_estimate(q_torsion, "Q", window) == 0
    assert cd_estimate(hypersurface, "Q", window) == 2


def _cd_modules(p):
    """The named fixtures, the generalized CM fixture and six random
    quotients for each of five ring shapes: 35 modules per prime."""
    ring = standard_ring(p)
    return (list(named_fixtures(ring).values()) + [gencm_fixture(ring)]
            + [M for shape in ((2, 2), (3, 1), (1, 3), (2, 1), (3, 2))
               for M in random_quotients(RingSpec(*shape, p), 6, 2026)])


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_cohomological_dimension_matches_window_and_quotient(p):
    # cd(Q, M) = dim M/PM and cd(P, M) = dim M/QM on every module, and
    # both equal the largest nonzero H^i on a window of 13 x 13 cells
    window = Window(-6, 6, -6, 6)
    for M in _cd_modules(p):
        for theory, quotient in (("Q", _mod_by_irrelevant(M)),
                                 ("P", _mod_by_y(M))):
            cd = cohomological_dimension(M, theory)
            assert cd == cd_estimate(M, theory, window) == \
                initial_module(quotient).krull_dim(), (str(M), theory)


def test_cohomological_dimension_edge_cases():
    # an ideal without variables is (0), so cd is 0 on a nonzero module;
    # the zero module has cd -1, where the window referee reads 0
    window = Window(-6, 6, -6, 6)
    for m, n in ((0, 2), (2, 0)):
        ring = RingSpec(m, n)
        M = quotient_by_polys(ring, [ring.gens()[0]])
        for theory, quotient in (("Q", _mod_by_irrelevant(M)),
                                 ("P", _mod_by_y(M))):
            assert cohomological_dimension(M, theory) == \
                cd_estimate(M, theory, window) == \
                initial_module(quotient).krull_dim() == \
                (0 if (m, n)["PQ".index(theory)] == 0 else 1), (m, n, theory)
        zero = zero_presentation(ring)
        assert [cohomological_dimension(zero, t) for t in "PQ"] == [-1, -1]
    with pytest.raises(BadTheoryError):
        cohomological_dimension(named_fixtures()["S"], "R+")


def test_cohomological_dimension_reads_few_strands_far_apart(
        tmp_path, monkeypatch, capsys):
    # S/(x1^D * y1) at D = 10^7 has x-shifts 0 and D in its numerator:
    # cd(Q) is read at two x-degrees per shift, not at every degree up to D
    D = 10 ** 7
    path = tmp_path / "far.mod"
    path.write_text(f"p=32003\nm=2\nn=2\ngens=(0,0)\n"
                    f"rels=({D},1): x1^{D}*y1\n")
    calls = []
    real = cohomology.strand_dim

    def counted(N, k, c):
        calls.append(c)
        return real(N, k, c)

    monkeypatch.setattr(cohomology, "strand_dim", counted)
    assert main(["profile", "--module", str(path)]) == 0
    assert capsys.readouterr().out.rstrip().endswith(", cd=2")
    assert 0 < len(calls) <= 2 * len(initial_module(load_module(path))
                                     .numerator), calls


def _drawn_presentation(data):
    """A random bihomogeneous presentation drawn from the hypothesis data:
    1-3 generators of bidegree <= (1, 1), 0-3 relations of bidegree <=
    (3, 3), whose entries of bidegree (0, 0) are units, over F_p for p in
    {2, 3, 32003} and rings with at most two variables in each block, one
    block possibly empty."""
    p = data.draw(st.sampled_from([2, 3, 32003]))
    m, n = data.draw(st.sampled_from([(m, n) for m in range(3)
                                      for n in range(3) if m + n]))
    ring = RingSpec(m, n, p)

    def bidegree(top):
        return Bidegree(data.draw(st.integers(0, top if m else 0)),
                        data.draw(st.integers(0, top if n else 0)))

    def entry(d):
        return Polynomial.from_dict(ring, {
            mono: data.draw(st.integers(0, p - 1))
            for mono in monomial_basis(ring, d)})

    gens = [bidegree(1) for _ in range(data.draw(st.integers(1, 3)))]
    rels = [bidegree(3) for _ in range(data.draw(st.integers(0, 3)))]
    return _rows_presentation(ring, tuple(gens), tuple(rels),
                              tuple(tuple(entry(r - g) for r in rels)
                                    for g in gens))


@settings(max_examples=60)
@given(st.data())
def test_cohomological_dimension_is_the_quotient_dimension(data):
    # cd(Q, M) = dim M/PM and cd(P, M) = dim M/QM on random bihomogeneous
    # presentations (_drawn_presentation)
    M = _drawn_presentation(data)
    assert cohomological_dimension(M, "Q") == \
        initial_module(_mod_by_irrelevant(M)).krull_dim(), str(M)
    assert cohomological_dimension(M, "P") == \
        initial_module(_mod_by_y(M)).krull_dim(), str(M)


@settings(max_examples=40)
@given(st.data())
def test_oracle_equals_the_duality_path_on_random_presentations(data):
    # the limit-Koszul oracle and the duality path give the same table for
    # P, Q and R+ at every i from 0 to the ideal's variable count, on
    # random presentations (_drawn_presentation) and on windows that
    # reach |a| = 7 or |b| = 7; a theory whose ideal has no variables is
    # refused by both
    M = _drawn_presentation(data)
    ring = M.ring
    windows = (Window(-7, -5, -1, 1), Window(-1, 1, -7, -5),
               Window(-2, 2, -2, 2))
    for theory, r in (("P", ring.m), ("Q", ring.n), ("R+", ring.nvars)):
        if not r:
            for table in (local_coh_table, oracle_table):
                with pytest.raises(BadTheoryError):
                    table(M, theory, 0, windows[0])
            continue
        for i in range(r + 1):
            for window in windows:
                assert oracle_table(M, theory, i, window).cells == \
                    local_coh_table(M, theory, i, window).cells, \
                    (str(M), theory, i, str(window))


@settings(max_examples=40)
@given(st.data())
def test_dual_cokernels_match_the_ext_referee_on_random_presentations(data):
    # the Ext dimensions read off the dual cokernels equal those of the
    # initial module of ext_presentation (_ext_referee), whose relations
    # are division quotients and Schreyer syzygies, at every j from -1 to
    # pd + 1: over a 13 x 13 window and for the Krull dimension
    M = _drawn_presentation(data)
    res = resolve(M)
    cells = list(Window(-6, 6, -6, 6).cells())
    for j in range(-1, res.length + 2):
        referee = _ext_referee(M, j)
        assert res.ext_dims(j, cells) == \
            [referee.dim_at(d) for d in cells], (str(M), j)
        assert res.ext_krull_dim(j) == referee.krull_dim(), (str(M), j)


@settings(max_examples=40)
@given(st.data())
def test_euler_identity_on_random_presentations(data):
    # the alternating sum of the ranks of resolve(M) equals the dimension
    # read off the initial module's Hilbert numerator
    M = _drawn_presentation(data)
    res, layer = resolve(M), initial_module(M)
    for d in Window(-2, 6, -2, 6).cells():
        assert res.alternating_dim(d) == layer.dim_at(d), (str(M), tuple(d))


@settings(max_examples=40)
@given(st.data())
def test_auslander_buchsbaum_and_grade_on_random_presentations(data):
    # the least j with Ext^j(M, omega) != 0 is nvars - dim M (the grade),
    # where it has dimension dim M, the largest is pd M = nvars - depth M
    # (Auslander-Buchsbaum), and Ext^(nvars - i) has dimension at most i
    M = _drawn_presentation(data)
    d = initial_module(M).krull_dim()
    assume(d >= 0)
    res, nvars = resolve(M), M.ring.nvars
    nonzero = [j for j in range(-1, nvars + 2) if res.ext_krull_dim(j) >= 0]
    assert max(nonzero) == res.length, str(M)
    assert min(nonzero) == nvars - d, str(M)
    assert res.ext_krull_dim(nvars - d) == d, str(M)
    assert all(res.ext_krull_dim(nvars - i) <= i
               for i in range(nvars + 1)), str(M)


def _check_betti_numbers_are_tor(M):
    """Graded Betti numbers are the dimensions of Tor(M, k): with K the
    Koszul complex on all m + n variables, Hom(K, M) is K (x) M twisted
    by c = (m, n), so dim H^q(Hom(K, M))_d is the number of shifts of
    F_(m+n-q) in resolve(M) equal to d + c.  Checked at every q and every
    d in the box of the shifts minus c, widened by one.  Returns the
    number of cells checked."""
    ring = M.ring
    r, c = ring.nvars, ring.canonical_degree
    layer, res = initial_module(M), resolve(M)
    units = [ring.variable(v).terms[0][0] for v in range(r)]
    slots = [list(combinations(range(r), q)) for q in range(r + 1)]
    shifts = [[mono_bidegree(ring, sum(units[j] for j in T)) for T in Ts]
              for Ts in slots]
    differentials = [cohomology._koszul_differential(
        ring, units, 1, slots[q], slots[q + 1]) for q in range(r)]
    points = [s - c for i in range(res.length + 1)
              for s in res.shifts(i)] or [-c]
    box = Window(min(a for a, _ in points) - 1, max(a for a, _ in points) + 1,
                 min(b for _, b in points) - 1, max(b for _, b in points) + 1)
    cells = 0
    for d in box.cells():
        d = Bidegree(*d)
        spots = [cohomology._spot(layer, d, shifts[q]) for q in range(r + 1)]

        def hom(q):
            """Hom(K_q, M)_d -> Hom(K_(q+1), M)_d, zero outside 0..r-1."""
            if q < 0:
                return Matrix.zeros(spots[0][2][-1], 0)
            if q == r:
                return Matrix.zeros(0, spots[r][2][-1])
            return cohomology._hom_piece(layer, spots[q], spots[q + 1],
                                         differentials[q])

        for q in range(r + 1):
            betti = sum(s == d + c for s in res.shifts(r - q))
            assert homology_dim(hom(q - 1), hom(q), ring.p) == betti, \
                (str(M), q, tuple(d))
            cells += 1
    return cells


@settings(max_examples=40)
@given(st.data())
def test_betti_numbers_are_tor_on_random_presentations(data):
    # the resolution against the Koszul complex, which shares no code with
    # it past the initial module (see _check_betti_numbers_are_tor)
    _check_betti_numbers_are_tor(_drawn_presentation(data))


def test_betti_numbers_are_tor_on_fixed_modules():
    # gencm_fixture, of length 3, and four seeded quotients over F_3
    modules = [gencm_fixture()]
    modules += random_quotients(RingSpec(2, 2, 3), 4, seed=3)
    assert sum(_check_betti_numbers_are_tor(M) for M in modules) > 500


def test_ext_into_free_matches_canonical_route(ring, hypersurface,
                                               two_relations):
    # ext_into_dim works on the Hom complex into omega's standard
    # monomials and never builds an Ext module, so it referees both the
    # Ext tables and the R+ tables read from them
    window = Window(-3, 3, -3, 3)
    modules = [hypersurface, two_relations, gencm_fixture(ring)]
    modules += [_two_generators(p) for p in (2, 3, 32003)]
    nonzero = 0
    for M in modules:
        R = M.ring
        omega = free_presentation(R, [R.canonical_degree])
        for j in range(-1, resolve(M).length + 2):
            table = ext_table(M, j, window)
            for d in window.cells():
                assert ext_into_dim(M, omega, j, d) == table[d], \
                    (R.p, j, tuple(d))
        for i in range(0, R.nvars + 1):
            table = local_coh_table(M, "R+", i, window)
            for d in window.cells():
                assert ext_into_dim(M, omega, R.nvars - i, -d) == table[d], \
                    (R.p, i, tuple(d))
            nonzero += not table.is_zero()
    assert nonzero >= len(modules)


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_ext_into_non_free_module_matches_restrict_and_rank(p):
    # M = S/(f) is resolved by S(-e) --f--> S, so Hom(-, W)_d is
    # W_d --f--> W_(d+e): Ext^1(M, W)_d = (W/fW)_(d+e), and Ext^0 is the
    # kernel.  W/fW appends the columns f*e_k to W, and every dimension
    # comes from hilbert_dim (restrict and rank, no Groebner basis).  The
    # generic coefficients of W put normal forms into the Hom blocks, and f
    # a multi-term entry with a non-unit coefficient into the block builder;
    # M + M(-1,0) puts the same entry on two pieces of one spot
    ring = standard_ring(p)
    x1, x2, y1, y2 = ring.gens()
    f, zero = x1 * y1 + (x2 * y2).scale(3), ring.zero()
    e, s = Bidegree(1, 1), Bidegree(1, 0)
    M = quotient_by_polys(ring, [f])
    twice = _rows_presentation(ring, ((0, 0), s), (e, e + s),
                               ((f, zero), (zero, f)))
    assert [len(resolve(N).shifts(1)) for N in (M, twice)] == [1, 2]
    window = Window(-2, 2, -2, 2)
    nonzero = set()
    for k, P in enumerate(named_fixtures(ring).values()):
        W = _block_change(P, seed=p + k)
        r = len(W.gens)
        WfW = Presentation(ring, W.gens, W.rels + tuple(g + e for g in W.gens),
                           W.columns + tuple(
                               ModuleElement(W.target, tuple(
                                   f if c == g else zero for c in range(r)))
                               for g in range(r)))

        def ext(j, d):
            """dim Ext^j(M, W)_d by restrict and rank."""
            quotient = hilbert_dim(WfW, d + e)
            if j == 1:
                return quotient
            return hilbert_dim(W, d) - hilbert_dim(W, d + e) + quotient

        for d in window.cells():
            for j in (0, 1):
                want = ext(j, d)
                assert ext_into_dim(M, W, j, d) == want, (k, j, tuple(d))
                assert ext_into_dim(twice, W, j, d) == want + ext(j, d + s), \
                    (k, j, tuple(d))
                nonzero.update([j] if want else [])
            assert ext_into_dim(M, W, 2, d) == 0
    assert nonzero == {0, 1}
