import random
from itertools import accumulate, product

import pytest

import bicoh.cohomology as cohomology
import bicoh.groebner as groebner
import bicoh.resolution as resolution
from bicoh.checks import check_euler, check_gencm_les
from bicoh.cohomology import ext_table
from bicoh.errors import DegreeMismatchError, InvariantError, ZeroModuleError
from bicoh.fixtures import (
    gencm_fixture,
    named_fixtures,
    random_quotients,
    standard_ring,
)
from bicoh.groebner import (
    FreeModule,
    GroebnerBasis,
    ModuleElement,
    buchberger,
    kernel_basis,
    syzygies,
)
from bicoh.linalg import Matrix, homology_dim, rank_of_array
from bicoh.poly import (
    Bidegree,
    Polynomial,
    RingSpec,
    mono_divides,
    monomial_basis,
    parse_poly,
)
from bicoh.resolution import (
    FreeResolution,
    Presentation,
    _numerator,
    _pole_order,
    ext_presentation,
    free_presentation,
    hilbert_dim,
    hilbert_table,
    initial_module,
    minimal_presentation,
    profile,
    quotient_by_polys,
    quotient_presentation,
    resolve,
    restrict_matrix,
    zero_presentation,
)
from bicoh.strands import strand, strand_dim
from bicoh.tables import Window
from test_groebner import _all_pairs_syzygies, _kernel_presentation


def test_presentation_validates_degrees(ring):
    f = parse_poly("x1*x2", ring)
    with pytest.raises(DegreeMismatchError):
        Presentation(ring, ((0, 0),), ((1, 1),), ((f,),))


def test_resolution_of_free_module(S):
    res = resolve(S)
    assert res.length == 0


def test_resolution_of_hypersurface(hypersurface):
    res = resolve(hypersurface)
    assert res.length == 1
    assert res.modules[1].shifts == (Bidegree(1, 1),)


def test_resolution_two_relations(two_relations):
    # 0 <- M <- S <- S(-1,-1)^2 <- S(-1,-2) <- 0
    res = resolve(two_relations)
    assert res.length == 2
    assert sorted(res.modules[1].shifts) == [Bidegree(1, 1), Bidegree(1, 1)]
    assert res.modules[2].shifts == (Bidegree(1, 2),)


def _assert_composites_vanish(res):
    """d_i o d_(i+1) = 0 for every pair of consecutive maps."""
    for i in range(1, res.length):
        upper = res.maps[i]
        lower = res.maps[i - 1]
        rows = res.modules[i - 1].rank
        mid = res.modules[i].rank
        cols = res.modules[i + 1].rank
        for r in range(rows):
            for c in range(cols):
                acc = res.ring.zero()
                for k in range(mid):
                    acc = acc + lower[r][k] * upper[k][c]
                assert acc.is_zero(), (i, r, c)


def test_resolution_composites_vanish(two_relations):
    _assert_composites_vanish(resolve(two_relations))


def test_resolution_length_bound(ring, xy):
    x1, x2, y1, y2 = xy
    modules = [
        quotient_by_polys(ring, [x1, x2, y1, y2]),
        quotient_by_polys(ring, [x1 * y1, x2 * y2]),
        quotient_by_polys(ring, [x1 * y1, x1 * y2, x2 * y1, x2 * y2]),
    ]
    for M in modules:
        assert resolve(M).length <= ring.nvars


def _redundant_generator(ring):
    """Two generators, one of them redundant through a unit relation."""
    one, x1 = ring.one(), ring.gens()[0]
    return Presentation(ring, ((0, 0), (0, 0)), ((0, 0), (1, 0)),
                        ((one, x1), (one, ring.zero())))


def _killed(ring):
    """S/(1), the zero module on one generator."""
    return Presentation(ring, ((0, 0),), ((0, 0),), ((ring.one(),),))


def _unit_inputs():
    """Presentations with constant entries, which the resolution prunes
    from its first Groebner basis, and minimal ones: the x- and y-strands
    of the named fixtures and of gencm_fixture, the redundant-generator
    presentation and S/(1), at p in {2, 3, 32003}."""
    out = []
    for p in (2, 3, 32003):
        ring = standard_ring(p)
        for N in list(named_fixtures(ring).values()) + [gencm_fixture(ring)]:
            out += [strand(N, k, d) for k in (0, 1) for d in (1, 2)]
        out += [_redundant_generator(ring), _killed(ring)]
    return out


def _has_unit(matrix):
    return any(len(e.terms) == 1 and e.terms[0][0] == 0
               for row in matrix for e in row)


def test_no_unit_entries_in_minimal_resolution(ring, xy):
    x1, x2, y1, y2 = xy
    M = quotient_by_polys(ring, [x1 * y1 + x2 * y2, x1 * y2, x2 * y1])
    modules = [M] + _unit_inputs()
    assert any(_has_unit(N.matrix) for N in modules)
    for N in modules:
        res = resolve(N)
        assert not any(_has_unit(A) for A in res.maps), str(N)
        rows, _, _ = resolution._prune([c.coords for c in N.columns()],
                                       len(N.gens))
        assert res.betti(0) == len(rows), str(N)
    for p in (2, 3, 32003):
        assert resolve(_killed(standard_ring(p))).betti(0) == 0


def test_hilbert_table_of_ring(S):
    table = hilbert_table(S, Window(0, 3, 0, 3))
    for a in range(4):
        for b in range(4):
            assert table[(a, b)] == (a + 1) * (b + 1)


def test_hilbert_hypersurface_cell(hypersurface):
    assert hilbert_dim(hypersurface, (1, 1)) == 3


def test_hilbert_shifted_free(ring):
    F = free_presentation(ring, [(1, 2)])
    assert hilbert_dim(F, (1, 2)) == 1
    assert hilbert_dim(F, (0, 2)) == 0


def test_hilbert_window_independence(two_relations):
    small = hilbert_table(two_relations, Window(0, 2, 0, 2))
    large = hilbert_table(two_relations, Window(-1, 4, -1, 4))
    # cells equal on the intersection of the two windows
    assert all(large.cells[d] == v for d, v in small.cells.items()
               if d in large.cells)


def test_alternating_sums_match_hilbert(ring, xy, two_relations):
    x1, x2, y1, y2 = xy
    fixtures = [two_relations,
                quotient_by_polys(ring, [x1 * y1 + x2 * y2, x1 * x2]),
                quotient_by_polys(ring, [y1 * y2, x1 * y1])]
    for M in fixtures:
        res = resolve(M)
        for d in Window(-1, 4, -1, 4).cells():
            assert res.alternating_dim(d) == hilbert_dim(M, d)


def _map_data(res, i):
    """(source module, target module, matrix) of d_i : F_i -> F_{i-1}."""
    return res.modules[i], res.modules[i - 1], res.maps[i - 1]


def _raw_resolution(P):
    """The unpruned Schreyer chain: each level's reduced Groebner basis,
    whose frame syzygies are the next level's input.  Not minimal, so it
    referees every number read off the pruned resolution."""
    ring = P.ring
    modules, maps = [P.target], []
    elements = [c for c in P.columns() if c]
    while elements:
        gb = buchberger(elements, module=modules[-1])
        maps.append(tuple(tuple(g.coords[k] for g in gb.elements)
                          for k in range(modules[-1].rank)))
        modules.append(FreeModule(ring, gb.shifts))
        elements = syzygies(gb)
    return FreeResolution(ring, tuple(modules), tuple(maps))


def _resolve_by_frames(P, frame=syzygies):
    """The route resolve took before it read each level off one kernel
    Groebner basis: per level the reduced Groebner basis of the input,
    its units pruned, then its Schreyer frame (or any other generating
    set of its syzygies, `frame`), pruned, as the next level's input."""
    ring = P.ring
    ambient = P.target
    shifts = [P.gens]
    maps = []
    elements = [c for c in P.columns() if c]
    while elements:
        gb = buchberger(elements, module=ambient)
        rows, cols, basis = resolution._prune(
            [g.coords for g in gb.elements], ambient.rank)
        shifts[-1] = [shifts[-1][k] for k in rows]
        syz = [[s.coords[l] for l in cols] for s in frame(gb)]
        rows, _, syz = resolution._prune(syz, len(cols))
        maps.append([basis[k] for k in rows])
        shifts.append([gb.shifts[cols[k]] for k in rows])
        ambient = FreeModule(ring, shifts[-1])
        elements = [e for e in (ModuleElement(ambient, s) for s in syz) if e]
    while maps and not shifts[-1]:
        maps.pop()
        shifts.pop()
    modules = tuple(FreeModule(ring, s) for s in shifts)
    return FreeResolution(ring, modules, tuple(
        tuple(tuple(col[k] for col in columns) for k in range(len(target)))
        for columns, target in zip(maps, shifts)))


def _shift_lists(res):
    """The ordered shift lists of F_0, F_1, .., as `bicoh resolve` prints
    them."""
    return [list(res.shifts(i)) for i in range(res.length + 1)]


def _referee_set():
    """_random_modules at three primes, seeded cyclic quotients over four
    ring shapes, and every nonzero strand of these at other-block degrees
    0..3."""
    modules = [M for p in (2, 3, 32003) for M in _random_modules(p)]
    for shape in ((2, 2), (3, 1), (1, 3), (3, 2)):
        modules += random_quotients(RingSpec(*shape), 12, seed=11)
    out = list(modules)
    for M in modules:
        out += [strand(M, k, c) for k in (0, 1) if (M.ring.m, M.ring.n)[k]
                for c in range(4) if strand_dim(M, k, c) >= 0]
    return out


def test_resolve_matches_the_frame_referee():
    # each level lists its shifts in the order of the leads of a reduced
    # Groebner basis, so the ordered shift lists, which `bicoh resolve`
    # prints, are the referee's
    referee_set = _referee_set()
    for N in referee_set:
        res, ref = resolve.__wrapped__(N), _resolve_by_frames(N)
        assert _shift_lists(res) == _shift_lists(ref), str(N)
        assert not any(_has_unit(A) for A in res.maps), str(N)
        _assert_composites_vanish(res)
    assert len(referee_set) == 557


def test_resolve_takes_one_kernel_basis_per_level(monkeypatch):
    # one Buchberger run on the relations, in the initial module that
    # resolve starts from (built afresh here, so no cached one hides the
    # run), then one graph Buchberger run per level, the last of which
    # finds no syzygies; no Schreyer frame
    calls = []

    def counted(name, run):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return run(*args, **kwargs)
        return wrapped

    def forbidden(*args, **kwargs):
        raise AssertionError("resolve reached a removed route")

    monkeypatch.setattr(resolution, "kernel_basis",
                        counted("kernel", kernel_basis))
    monkeypatch.setattr(resolution, "buchberger",
                        counted("relations", buchberger))
    monkeypatch.setattr(resolution, "syzygies", forbidden)
    monkeypatch.setattr(resolution, "initial_module", resolution.InitialModule)
    ring = RingSpec(2, 2, 3)
    modules = _random_modules(3) + [_redundant_generator(ring), _killed(ring)]
    modules += [strand(M, 0, 1) for M in _random_modules(3)]
    for M in modules:
        calls.clear()
        res = resolve.__wrapped__(M)
        assert calls == ["relations"] * bool(res.length) + \
            ["kernel"] * res.length, str(M)


def test_resolve_and_the_tables_share_one_relations_basis(monkeypatch):
    # resolve starts from the module's initial module, so resolving a
    # module and then reading its Hilbert and oracle tables runs Buchberger
    # on its relations once in all, pruned of their units on the redundant
    # generator.  The prime, which no other test uses, keeps these
    # presentations out of the session caches
    runs = []

    def counted(*args, **kwargs):
        runs.append(args)
        return buchberger(*args, **kwargs)

    monkeypatch.setattr(resolution, "buchberger", counted)
    ring = standard_ring(23)
    window = Window(-2, 2, -2, 2)
    for M in (gencm_fixture(ring), _redundant_generator(ring)):
        runs.clear()
        resolve(M)
        hilbert_table(M, window)
        cohomology.oracle_table(M, "Q", 1, window)
        assert len(runs) == 1, str(M)


def test_resolution_degreewise_exactness_random(ring):
    # ker(d_i) = im(d_(i+1)) at every bidegree, including ker d_last = 0,
    # of the pruned and the raw chains; the inputs with constant entries
    # exercise the pruning of the first Groebner basis, the random modules
    # with several generators that of long raw chains
    modules = random_quotients(ring, 4, seed=913) + _unit_inputs()
    modules += [M for p in (2, 3, 32003) for M in _random_modules(p)]
    for M, build in product(modules, (resolve, _raw_resolution)):
        res = build(M)
        p = M.ring.p
        for i in range(1, res.length + 1):
            src, tgt, matrix = _map_data(res, i)
            for d in Window(-1, 3, -1, 3).cells():
                B = restrict_matrix(M.ring, tgt, src, matrix, d)
                if i < res.length:
                    up_src, up_tgt, up_matrix = _map_data(res, i + 1)
                    A = restrict_matrix(M.ring, up_tgt, up_src, up_matrix, d)
                else:
                    A = Matrix.zeros(B.shape[1], 0)
                assert homology_dim(A, B, p) == 0, (str(M), i, tuple(d))


def _random_modules(p, count=6):
    """Seeded presentations with 1-3 generators in bidegrees (0..1, 0..1)
    and 2-3 relations of random forms, each one step above the generators'
    largest degree in one block or both, over F_p[x1, x2, y1, y2]."""
    rng = random.Random(p)
    ring = RingSpec(2, 2, p=p)
    out = []
    for _ in range(count):
        gens = [(rng.randint(0, 1), rng.randint(0, 1))
                for _ in range(rng.randint(1, 3))]
        top = (max(a for a, _ in gens), max(b for _, b in gens))
        rels, columns = [], []
        for _ in range(rng.randint(2, 3)):
            up = rng.choice([(1, 0), (0, 1), (1, 1)])
            rel = (top[0] + up[0], top[1] + up[1])
            column = []
            for a, b in gens:
                basis = monomial_basis(ring, (rel[0] - a, rel[1] - b))
                terms = {mono: rng.randrange(1, p) for mono in basis
                         if rng.random() < 0.6}
                column.append(Polynomial.from_dict(ring, terms))
            rels.append(rel)
            columns.append(column)
        out.append(Presentation(ring, tuple(gens), tuple(rels),
                                tuple(zip(*columns))))
    return out


def _dense_quotient(shape, degrees, seed=5):
    """S/(f_1, ..) over F_32003[x1..xm, y1..yn], f_i of the i-th bidegree
    with every monomial, each with a seeded nonzero coefficient."""
    ring = RingSpec(*shape)
    rng = random.Random(seed)
    return quotient_by_polys(ring, [Polynomial.from_dict(ring, {
        mono: rng.randrange(1, ring.p) for mono in monomial_basis(ring, d)})
        for d in degrees])


def _check_rung(shape, degrees=((1, 1), (1, 2), (2, 1))):
    """A rung of the scale ladder: three dense relations of the given
    bidegrees, a complete intersection, so a Koszul resolution, whose
    alternating sum is the Hilbert table."""
    P = _dense_quotient(shape, degrees)
    res = resolve(P)
    assert [res.betti(i) for i in range(res.length + 1)] == [1, 3, 3, 1]
    window = Window(0, 4, 0, 4)
    table = hilbert_table(P, window)
    for d in window.cells():
        assert res.alternating_dim(d) == table[d], tuple(d)


def test_resolution_of_the_3_3_rung():
    _check_rung((3, 3))


def test_resolution_of_the_4_3_rung():
    _check_rung((4, 3))


def test_resolution_of_the_4_4_rung():
    _check_rung((4, 4))


def test_resolution_of_the_hard_rung():
    _check_rung((3, 3), ((2, 1), (1, 2), (2, 2)))


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_frame_syzygies_keep_betti_shifts_random(p):
    # the Schreyer frame and every same-position S-pair syzygy span the
    # same module, so the frame route of the referee gives the graded
    # Betti numbers of resolve with either
    modules = _random_modules(p)
    frame = [_resolve_by_frames(M) for M in modules]
    assert max(res.length for res in frame) >= 2
    for M, res in zip(modules, frame):
        assert [sorted(s) for s in _shift_lists(res)] == \
            [sorted(s) for s in _shift_lists(resolve(M))]
        referee = _resolve_by_frames(M, _all_pairs_syzygies)
        assert [sorted(res.shifts(i)) for i in range(res.length + 1)] == \
            [sorted(referee.shifts(i)) for i in range(referee.length + 1)]


def _eliminate_unit_every_entry(A, k, l):
    """Referee: unit elimination at the constant entry (k, l) of the
    row-major matrix A with every update run in full, over every entry
    (x - lam*0 included), the row ops whose results are deleted too."""
    p = A[k][l].ring.p
    cinv = pow(A[k][l].terms[0][1], -1, p)
    rows, cols = len(A), len(A[0])
    lams = {lp: A[k][lp].scale(cinv) for lp in range(cols)
            if lp != l and not A[k][lp].is_zero()}
    for lp, lam in lams.items():
        for r in range(rows):
            A[r][lp] = A[r][lp] - lam * A[r][l]
    mus = {kp: A[kp][l].scale(cinv) for kp in range(rows)
           if kp != k and not A[kp][l].is_zero()}
    for kp, mu in mus.items():
        for cc in range(cols):
            A[kp][cc] = A[kp][cc] - mu * A[k][cc]
    del A[k]
    for row in A:
        del row[l]


def _prune_every_entry(columns, rank):
    """Referee of resolution._prune: on a row-major copy, eliminate the
    constant entry of least Markowitz cost (nonzeros in its row - 1) *
    (nonzeros in its column - 1), the first by row, then by column, among
    equal costs, until none is left."""
    A = [[col[k] for col in columns] for k in range(rank)]
    rows, cols = list(range(rank)), list(range(len(columns)))

    def cost(k, l):
        return ((sum(not e.is_zero() for e in A[k]) - 1)
                * (sum(not row[l].is_zero() for row in A) - 1))

    while hits := [(cost(k, l), k, l) for k, row in enumerate(A)
                   for l, e in enumerate(row)
                   if len(e.terms) == 1 and e.terms[0][0] == 0]:
        _, k, l = min(hits)
        _eliminate_unit_every_entry(A, k, l)
        del rows[k], cols[l]
    return rows, cols, [[row[l] for row in A] for l in range(len(cols))]


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_unit_elimination_matches_every_entry_referee(p, monkeypatch):
    # every pruning of an initial module's relations (built afresh, not
    # read from the cache), and of each map of the raw Schreyer chains
    # (units at every level), replayed by the referee on a row-major copy,
    # keeps the same generators, columns and entries
    prune = resolution._prune
    eliminated = []

    def compared(columns, rank):
        out = prune(columns, rank)
        assert out == _prune_every_entry(columns, rank)
        eliminated.append(rank - len(out[0]))
        return out

    def prune_raw(M):
        raw = _raw_resolution(M)
        for i in range(1, raw.length + 1):
            src, tgt, matrix = _map_data(raw, i)
            compared([tuple(row[l] for row in matrix)
                      for l in range(src.rank)], tgt.rank)

    monkeypatch.setattr(resolution, "_prune", compared)
    ring = RingSpec(2, 2, p)
    modules = _random_modules(p) + [_redundant_generator(ring)]
    modules += [strand(M, k, 1) for M in modules[:-1] for k in (0, 1)]
    totals = dict.fromkeys((resolution.InitialModule, prune_raw), 0)
    for M in modules:
        for run in totals:
            eliminated.clear()
            run(M)
            totals[run] += sum(eliminated)
    assert all(totals.values()), totals
    # two units, whose eliminations in generator-first and column-first
    # order keep different generators
    x1, x2, y1, _ = ring.gens()
    assert compared([(x1, ring.one()), (ring.one(), y1)], 2)[0] == [1]
    # the unit at (1, 1) costs 1 * 1, the first one, at (0, 0), 2 * 1
    one, zero = ring.one(), ring.zero()
    assert compared([(one, x1), (y1, one), (x2, zero)], 2)[0] == [0]


def test_profile_of_ring(S):
    prof = profile(S)
    assert (prof.dim, prof.depth, prof.pd) == (4, 4, 0)
    assert prof.is_cm


def test_profile_hypersurface(hypersurface):
    prof = profile(hypersurface)
    assert (prof.dim, prof.depth, prof.pd) == (3, 3, 1)
    assert prof.is_cm


def test_profile_two_relations(two_relations):
    prof = profile(two_relations)
    assert (prof.dim, prof.depth, prof.pd) == (3, 2, 2)
    assert not prof.is_cm and not prof.is_gencm


def test_profile_gencm_fixture(ring, xy):
    x1, x2, y1, y2 = xy
    M = quotient_by_polys(ring, [x1 * y1, x1 * y2, x2 * y1, x2 * y2])
    prof = profile(M)
    assert (prof.dim, prof.depth) == (2, 1)
    assert prof.is_gencm and not prof.is_cm


def test_auslander_buchsbaum_everywhere(ring, xy, S, hypersurface,
                                        two_relations, q_torsion):
    for M in (S, hypersurface, two_relations, q_torsion):
        prof = profile(M)
        assert prof.pd + prof.depth == ring.nvars
        assert prof.depth <= prof.dim


def test_zero_module_rejected():
    ring = RingSpec(2, 2)
    with pytest.raises(ZeroModuleError):
        profile(zero_presentation(ring))
    one = parse_poly("1", ring)
    killed = Presentation(ring, ((0, 0),), ((0, 0),), ((one,),))
    assert resolve(killed).betti(0) == 0
    with pytest.raises(ZeroModuleError):
        profile(killed)


def test_krull_dim_examples(ring, xy, S, q_torsion):
    x1, x2, y1, y2 = xy
    assert initial_module(S).krull_dim() == 4
    assert initial_module(q_torsion).krull_dim() == 2
    maximal = quotient_by_polys(ring, [x1, x2, y1, y2])
    assert initial_module(maximal).krull_dim() == 0
    assert initial_module(zero_presentation(ring)).krull_dim() == -1
    for P in (S, q_torsion, maximal, zero_presentation(ring)):
        assert _support_scan_krull_dim(P) == initial_module(P).krull_dim()


def _numerator_krull_dim(P):
    """The Hilbert-series route, kept as the referee of krull_dim: nvars
    minus the order of vanishing at t = 1 of the numerator
    sum_i (-1)^i sum_shifts t^(total degree) of the minimal resolution."""
    coeffs = {}
    for i, mod in enumerate(resolve(P).modules):
        for s in mod.shifts:
            coeffs[s.total] = coeffs.get(s.total, 0) + (-1) ** i
    numerator = [coeffs.get(t, 0)
                 for t in range(min(coeffs, default=0),
                                max(coeffs, default=-1) + 1)]
    if not any(numerator):
        return -1
    order = 0
    while sum(numerator) == 0:
        # divide by (1 - t): the quotient's coefficients are partial sums
        numerator = list(accumulate(numerator))[:-1]
        order += 1
    return P.ring.nvars - order


def _support_scan_krull_dim(P):
    """The lead-term route, kept as the referee of krull_dim: dim S/J_k is
    the largest number of variables whose set contains the support of no
    lead term of J_k, and the module's is the largest over the positions
    of the initial module's target; -1 for the zero module."""
    module = initial_module(P)
    supports = [set() for _ in module.target.shifts]
    for k, mono, _ in module.leads:
        supports[k].add(sum(1 << v for v, e in
                            enumerate(P.ring.exponents(mono)) if e))
    return max((free.bit_count() for free in range(1 << P.ring.nvars)
                for leads in supports
                if not any(s & free == s for s in leads)), default=-1)


def test_krull_dim_matches_hilbert_numerator_random():
    # seeded quotients over two-block and single-block rings, their Ext
    # modules, zero ones included, and their strands (the last two have
    # several generators); their graded dimensions are refereed by
    # restrict+rank on the way
    shapes = [((2, 2), 5, (2, 2)), ((2, 1), 3, (2, 2)), ((1, 2), 3, (2, 2)),
              ((3, 0), 3, (2, 0)), ((0, 3), 3, (0, 2))]
    several = 0
    for p in (2, 3, 32003):
        for (m, n), count, degree in shapes:
            ring = RingSpec(m, n, p)
            for M in random_quotients(ring, count, seed=61 + p + m,
                                      max_degree=degree):
                modules = [M] + [ext_presentation(M, j)
                                 for j in range(-1, resolve(M).length + 2)]
                if m and n:
                    modules += [strand(M, k, d) for k in (0, 1)
                                for d in (1, 2)]
                for N in modules:
                    several += len(N.gens) > 1
                    assert initial_module(N).krull_dim() == \
                        _numerator_krull_dim(N) == \
                        _support_scan_krull_dim(N), (p, str(N))
                    for d in Window(-2, 2, -2, 2).cells():
                        assert initial_module(N).dim_at(d) == \
                            hilbert_dim(N, d), (p, str(N), tuple(d))
    assert several


def test_krull_dim_reads_each_position_on_its_own(ring, xy):
    # M = coker((x1, x2), (y1, 0)) on e0 of degree (0,1) and e1 of degree
    # (1,0): the relation x1*e0 + y1*e1 crosses positions.  In position 0
    # the leads are x1, x2 (dim 2); the S-pair leaves x2*y1 in position 1
    # (dim 3).  Pooling the leads of both positions gives (x1, x2) and 2;
    # dropping the S-pair leaves position 1 free and gives 4.
    x1, x2, y1, y2 = xy
    M = Presentation(ring, ((0, 1), (1, 0)), ((1, 1), (1, 1)),
                     ((x1, x2), (y1, ring.zero())))
    assert _numerator_krull_dim(M) == _support_scan_krull_dim(M) == 3
    assert initial_module(M).krull_dim() == 3


def _count_standard(ring, ideal, d):
    """Brute force: the monomials of bidegree d outside the ideal."""
    return sum(1 for mono in monomial_basis(ring, d)
               if not any(mono_divides(g, mono) for g in ideal))


def _numerator_dim(ring, ideal, d):
    return sum(c * len(monomial_basis(ring, d - s))
               for s, c in _numerator(ring, ideal).items())


def test_numerator_counts_standard_monomials():
    # random monomial ideals (generators need not be minimal), the empty
    # ideal (a free module), the unit ideal, and a generator that already
    # lies in the ideal, whose colon is the unit ideal
    window = Window(-1, 5, -1, 5)
    rng = random.Random(3)
    for m, n in ((2, 2), (1, 2), (3, 0)):
        ring = RingSpec(m, n)
        unit, x1 = 0, ring.variable(0).terms[0][0]
        last = ring.variable(ring.nvars - 1).terms[0][0]
        ideals = [[], [unit], [unit, x1], [x1, x1 + last]]
        for _ in range(8):
            ideals.append([ring.monomial(tuple(rng.randint(0, 3)
                                               for _ in range(ring.nvars)))
                           for _ in range(rng.randint(1, 6))])
        for ideal in ideals:
            for d in window.cells():
                assert _numerator_dim(ring, ideal, d) == \
                    _count_standard(ring, ideal, d), (ideal, tuple(d))
        assert _numerator(ring, []) == {(0, 0): 1}
        assert not any(_numerator(ring, [unit]).values())


def test_pole_order_of_laurent_numerators():
    # N(t) / (1 - t)^3: the pole loses one order per factor (1 - t) of N,
    # wherever N starts, and a zero coefficient is no term
    assert _pole_order({}, 3) == _pole_order({4: 0}, 3) == -1
    assert _pole_order({0: 1}, 3) == _pole_order({-5: 2, 7: 0}, 3) == 3
    assert _pole_order({0: 1, 1: -1}, 3) == 2
    assert _pole_order({-2: 1, -1: -2, 0: 1}, 3) == 1
    assert _pole_order({1: 1, 2: -3, 3: 3, 4: -1}, 3) == 0
    assert _pole_order({0: 1, 1: 1}, 3) == 3


def test_initial_module_of_zero_free_and_killed_modules(ring):
    one = parse_poly("1", ring)
    killed = Presentation(ring, ((0, 0),), ((0, 0),), ((one,),))
    free = free_presentation(ring, [(1, 0), (0, 2)])
    assert initial_module(zero_presentation(ring)).numerator == {}
    assert initial_module(killed).numerator == {}
    assert initial_module(free).numerator == {(1, 0): 1, (0, 2): 1}
    for d in Window(-1, 3, -1, 3).cells():
        assert initial_module(killed).dim_at(d) == 0
        assert initial_module(free).dim_at(d) == free.target.dim_at(d)


def test_profile_of_fresh_gencm_module_resolves_only_the_module():
    # the generalized-CM flag reads krull_dim of the Ext modules below dim,
    # which needs no resolution of them.  gencm_fixture's relations x_i*y_j
    # after x1 -> x1 + 3*x2, y2 -> y2 - y1.  The change leaves the ideal
    # (x1, x2)(y1, y2) and so its Ext presentations as they were; the prime,
    # which no other test uses, keeps them out of the session caches
    ring = RingSpec(2, 2, 7)
    x1, x2, y1, y2 = ring.gens()
    xs, ys = (x1 + x2.scale(3), x2), (y1, y2 - y1)
    M = quotient_by_polys(ring, [x * y for x in xs for y in ys])
    misses = resolve.cache_info().misses
    prof = profile(M)
    assert resolve.cache_info().misses - misses == 1
    assert (prof.dim, prof.depth) == (2, 1)
    assert prof.is_gencm and not prof.is_cm


def test_kernel_of_injective_map_is_zero(ring):
    src = FreeModule(ring, ((1, 0),))
    tgt = FreeModule(ring, ((0, 0),))
    P = _kernel_presentation(src, tgt, ((parse_poly("x1", ring),),))
    assert resolve(P).betti(0) == 0


def test_kernel_of_koszul_pair(ring):
    src = FreeModule(ring, ((1, 0), (0, 1)))
    tgt = FreeModule(ring, ((0, 0),))
    matrix = ((parse_poly("x1", ring), parse_poly("y1", ring)),)
    P = _kernel_presentation(src, tgt, matrix)
    assert len(P.gens) == 1
    assert P.gens[0] == Bidegree(1, 1)
    assert not P.rels


def _span_rank(ambient, elements, d):
    """dim of the degree-d piece of span(elements), by restrict and rank."""
    ring = ambient.ring
    src = FreeModule(ring, tuple(e.bidegree() for e in elements))
    matrix = tuple(tuple(e.coords[k] for e in elements)
                   for k in range(ambient.rank))
    return rank_of_array(restrict_matrix(ring, ambient, src, matrix, d),
                         ring.p)


def test_quotient_presentation_dims(ring, hypersurface):
    tgt = FreeModule(ring, ((0, 0),))
    sub = [ModuleElement(tgt, (parse_poly("x1*y1", ring),))]
    full = buchberger([tgt.unit_element(0)])
    P = quotient_presentation(sub, full)
    assert hilbert_dim(P, (1, 1)) == 3
    for d in Window(0, 3, 0, 3).cells():
        assert hilbert_dim(P, d) == hilbert_dim(hypersurface, d)
    # a span over two positions whose generators are no Groebner basis:
    # the S-pair of x1*e0 and y1*e0 leaves (x2*y1 - x1*y2)*e1
    F = FreeModule(ring, ((0, 0), (0, 0)))

    def elem(*texts):
        return ModuleElement(F, tuple(parse_poly(t, ring) for t in texts))

    gens = [elem("x1", "x2"), elem("y1", "y2")]
    span = buchberger(gens)
    assert len(span.elements) > len(gens)
    # x1*(y2*f - x2*g) lies above every basis element, so its division
    # quotients are not constant
    sub = [elem("x1^2*y2 - x1*x2*y1", "0"), elem("x1*y1", "x2*y1")]
    assert all(sub[0].bidegree() != g.bidegree() for g in span.elements)
    P = quotient_presentation(sub, span)
    assert any(hilbert_dim(P, d) for d in Window(0, 3, 0, 3).cells())
    for d in Window(-1, 4, -1, 4).cells():
        assert hilbert_dim(P, d) == \
            _span_rank(F, gens, d) - _span_rank(F, sub, d)
    for outside, basis in (([elem("0", "x1")], span),
                           (gens, GroebnerBasis(F, ()))):
        with pytest.raises(InvariantError, match="outside the ambient span"):
            quotient_presentation(outside, basis)


def test_minimal_presentation_drops_units(ring):
    one = parse_poly("1", ring)
    x1 = parse_poly("x1", ring)
    # two generators, one of them redundant through a unit relation
    P = Presentation(ring, ((0, 0), (0, 0)), ((0, 0), (1, 0)),
                     ((one, x1), (one, ring.zero())))
    minimal = minimal_presentation(P)
    assert len(minimal.gens) == 1
    for d in Window(0, 2, 0, 2).cells():
        assert hilbert_dim(minimal, d) == hilbert_dim(P, d)


def test_each_ext_module_runs_one_buchberger(monkeypatch):
    # the kernel of the outgoing map is the only Groebner basis, one graph
    # run at every j: the subquotient reads its relations off that basis,
    # and at j = pd, where no map leaves, the run returns the unit basis
    M = gencm_fixture(standard_ring(7))
    assert resolve(M).length == 3
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return buchberger(*args, **kwargs)

    monkeypatch.setattr(groebner, "buchberger", counted)
    monkeypatch.setattr(resolution, "buchberger", counted)
    for j, (runs, gens) in enumerate([(1, 0), (1, 0), (1, 2), (1, 1)]):
        calls.clear()
        E = ext_presentation.__wrapped__(M, j)
        assert (len(calls), len(E.gens)) == (runs, gens)


def test_kernel_of_the_last_dual_map_is_the_unit_basis():
    # at j = pd, delta_pd is the zero map into G^(pd+1) = 0, and its kernel
    # basis is the unit basis of G^pd in the order of its generators, so
    # ext_presentation needs no branch there
    modules = [M for p in (2, 3, 32003) for M in _random_modules(p)]
    modules += _unit_inputs()
    several = 0
    for M in modules:
        res = resolve(M)
        delta = res.dual(res.length)
        mid = delta.source
        several += mid.rank > 1
        assert kernel_basis(delta.columns(), mid) == GroebnerBasis(
            mid, tuple(mid.unit_element(k) for k in range(mid.rank))), str(M)
    assert several


def _ext_referee(N, j):
    """The initial module of the Ext presentation, from which every Ext
    dimension was read before the dual cokernels."""
    return initial_module(ext_presentation(N, j))


# the bidegrees of the relations of the Euler workload's dense quotients
_EULER_PATTERNS = (((2, 1), (2, 1), (2, 1)), ((1, 1), (1, 1)),
                   ((1, 1), (1, 2), (2, 1)), ((2, 1), (1, 2)),
                   ((1, 0), (0, 1)))


def test_dual_cokernels_match_the_ext_presentation_referee(
        monkeypatch, S, hypersurface, two_relations):
    # every module whose Ext dimensions the euler suite (on the test
    # fixtures and on dense quotients shaped like the Euler workload's)
    # and the gencm suite (on gencm_fixture) read, at every j from -1 to
    # pd + 1: the dimensions over a window and the Krull dimension
    reached = set()
    ext_hilbert = cohomology._ext_hilbert

    def recorded(N, j, degrees):
        reached.add(N)
        return ext_hilbert(N, j, degrees)

    monkeypatch.setattr(cohomology, "_ext_hilbert", recorded)
    window = Window(-4, 4, -4, 4)
    euler = [S, hypersurface, two_relations]
    euler += [_dense_quotient((2, 2), degrees, seed)
              for seed, degrees in enumerate(_EULER_PATTERNS)]
    for M in euler:
        assert check_euler(M, window).passed
    assert check_gencm_les(gencm_fixture(), window).passed
    cells = list(Window(-6, 6, -6, 6).cells())
    pairs = 0
    for N in reached:
        res = resolve(N)
        for j in range(-1, res.length + 2):
            referee = _ext_referee(N, j)
            assert res.ext_dims(j, cells) == \
                [referee.dim_at(d) for d in cells], (str(N), j)
            assert res.ext_krull_dim(j) == referee.krull_dim(), (str(N), j)
            pairs += 1
    assert len(reached) > 50 and pairs > 4 * len(reached)


def test_ext_tables_resolve_no_ext_module():
    # every Ext table reads the dual cokernels of the resolution of M, so
    # it builds no Ext presentation and resolves nothing but M; the prime,
    # which no other test uses, keeps M out of the session caches
    M = gencm_fixture(standard_ring(17))
    misses = resolve.cache_info().misses
    ext_misses = ext_presentation.cache_info().misses
    for j in range(-1, 5):
        ext_table(M, j, Window(-3, 3, -3, 3))
    assert resolve.cache_info().misses - misses == 1
    assert ext_presentation.cache_info().misses == ext_misses
    resolve(M)
    assert resolve.cache_info().misses - misses == 1
