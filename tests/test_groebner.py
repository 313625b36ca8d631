import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bicoh.groebner as groebner
from bicoh.errors import (
    BicohError,
    CoordinateCountError,
    InvariantError,
    NoGeneratorsError,
    ZeroElementError,
)
from bicoh.fixtures import random_quotients
from bicoh.groebner import (
    FreeModule,
    GroebnerBasis,
    ModuleElement,
    buchberger,
    kernel_basis,
    minimal_elements,
    normal_form,
    syzygies,
)
from bicoh.linalg import Matrix, rank_of_array
from bicoh.poly import (
    Bidegree,
    Polynomial,
    RingSpec,
    mono_coprime,
    mono_div,
    mono_divides,
    mono_degree,
    mono_lcm,
    monomial_basis,
    parse_poly,
)
from bicoh.resolution import (
    hilbert_dim,
    quotient_presentation,
    restrict_matrix,
)


@pytest.fixture(scope="module")
def r22():
    return RingSpec(2, 2)


def _zero_element(F):
    return ModuleElement(F, (F.ring.zero(),) * F.rank)


def _poly_mul(v, f):
    """The element f * v."""
    return ModuleElement(v.module, tuple(f * a for a in v.coords))


def _kernel_presentation(src: FreeModule, tgt: FreeModule, matrix):
    """Presentation of the kernel of the bihomogeneous map src -> tgt: the
    quotient presentation of its kernel basis.  No bicoh code presents a
    kernel on its own; the tests build them here."""
    columns = [ModuleElement(tgt, tuple(matrix[k][l]
                                        for k in range(tgt.rank)))
               for l in range(src.rank)]
    return quotient_presentation([], kernel_basis(columns, src))


def elem(module, *texts):
    ring = module.ring
    return ModuleElement(module, tuple(parse_poly(t, ring) for t in texts))


def submodule_dim_bruteforce(gens, d):
    """dim of the degree-d piece of the submodule spanned by gens, by rank
    of all monomial multiples over the ambient basis (no Groebner theory)."""
    module = gens[0].module
    ring = module.ring
    ambient = module.basis_at(d)
    index = {key: i for i, key in enumerate(ambient)}
    columns = []
    for g in gens:
        gdeg = g.bidegree()
        for u in monomial_basis(ring, Bidegree(*d) - gdeg):
            col = [0] * len(ambient)
            for k, poly in enumerate(g.coords):
                for mono, coeff in poly.terms:
                    col[index[(k, mono + u)]] += coeff
            columns.append(col)
    if not columns:
        return 0
    p = ring.p
    return rank_of_array(Matrix((len(ambient), len(columns)),
                                [{i: v % p for i, v in enumerate(col) if v % p}
                                 for col in columns]), p)


def submodule_dim_groebner(gb, d):
    """Same dimension via standard monomials of the Groebner basis."""
    module = gb.module
    leads = gb.lead_terms()
    total = len(module.basis_at(d))
    std = 0
    for k, mono in module.basis_at(d):
        if not any(gk == k and mono_divides(gm, mono)
                   for gk, gm, _ in leads):
            std += 1
    return total - std


def random_element(rng, module, d):
    """A nonzero element of bidegree d with random coefficients."""
    ring = module.ring
    terms = [(k, mono) for k, s in enumerate(module.shifts)
             for mono in monomial_basis(ring, Bidegree(*d) - s)]
    chosen = rng.sample(terms, rng.randint(1, len(terms)))
    coords = [{} for _ in module.shifts]
    for k, mono in chosen:
        coords[k][mono] = rng.randrange(1, ring.p)
    return ModuleElement(module, tuple(Polynomial.from_dict(ring, c)
                                       for c in coords))


def _spair_data(f, g):
    """For lead terms in the same position: (lcm, uf, ug) with
    uf*lt(f) = ug*lt(g) = lcm; None when the lead positions differ."""
    fk, fm, _ = f.lead()
    gk, gm, _ = g.lead()
    if fk != gk:
        return None
    w = mono_lcm(f.module.ring, fm, gm)
    return w, mono_div(w, fm), mono_div(w, gm)


def _all_pairs_buchberger(gens, module=None):
    """Referee: Buchberger with every same-position S-pair queued, pruned
    by the product criterion alone (for single-position elements)."""
    gens = [g for g in gens if g]
    module = module or gens[0].module
    basis, pairs = [], []

    def append(f):
        f = groebner._make_monic(f)
        for t, g in enumerate(basis):
            data = _spair_data(f, g)
            if data is None:
                continue
            w, uf, ug = data
            if (mono_coprime(module.ring, f.lead()[1], g.lead()[1])
                    and groebner._single_position(f)
                    and groebner._single_position(g)):
                continue
            heapq.heappush(pairs, (mono_degree(module.ring, w), len(basis), t,
                                   uf, ug))
        basis.append(f)

    for g in gens:
        append(g)
    while pairs:
        _, i, j, ui, uj = heapq.heappop(pairs)
        nf = normal_form(basis[i].term_mul(1, ui) - basis[j].term_mul(1, uj),
                         basis)
        if nf:
            append(nf)
    return groebner._reduce_basis(module, _minimal(basis))


def _minimal(basis):
    """The elements whose lead no other lead divides; of equal leads the
    earliest: the minimal basis that _reduce_basis interreduces."""
    leads = [g.lead() for g in basis]
    return [g for i, (g, (k, m, _)) in enumerate(zip(basis, leads))
            if not any(j != i and k2 == k and mono_divides(m2, m)
                       and (m2 != m or j < i)
                       for j, (k2, m2, _) in enumerate(leads))]


def _all_pairs_syzygies(G):
    """Referee: one Schreyer syzygy for every same-position S-pair of G,
    the generators of Schreyer's theorem before the frame rule."""
    elems = G.elements
    if not elems:
        return []
    ring = G.module.ring
    syz_module = FreeModule(ring, tuple(g.bidegree() for g in elems))
    out = []
    for i in range(len(elems)):
        for j in range(i):
            data = _spair_data(elems[i], elems[j])
            if data is None:
                continue
            _, ui, uj = data
            spair = elems[i].term_mul(1, ui) - elems[j].term_mul(1, uj)
            quotients, rem = groebner._divide(spair, G._divisors, True)
            assert rem.is_zero()
            coords = [-q for q in quotients]
            coords[i] = coords[i] + Polynomial(ring, ((ui, 1),))
            coords[j] = coords[j] - Polynomial(ring, ((uj, 1),))
            s = ModuleElement(syz_module, tuple(coords))
            if s:
                out.append(s)
    return out


def _frame_against_referee(G):
    """(frame syzygies, referee syzygies) of G, after checking that the
    frame is a subset of the referee's syzygies and generates all of them:
    each one it drops reduces to zero modulo a Groebner basis of the
    frame."""
    kept, referee = syzygies(G), _all_pairs_syzygies(G)
    frame = set(kept)
    assert frame <= set(referee)
    dropped = [s for s in referee if s not in frame]
    if dropped:
        span = buchberger(kept, module=referee[0].module)
        assert all(normal_form(s, span).is_zero() for s in dropped)
    return kept, referee


def _cross_position_pair(ring):
    """Coprime leads x1*e0 and y1*e0 whose S-pair leaves the remainder
    (x2*y1 - x1*y2)*e1: the product criterion must not drop it."""
    F = FreeModule(ring, ((0, 0), (0, 0)))
    return F, [elem(F, "x1", "x2"), elem(F, "y1", "y2")]


def _rung_relations():
    """The relations of the (3,3) rung of the scale ladder."""
    (P,) = random_quotients(RingSpec(3, 3), 1, 7, max_rels=4,
                            max_degree=(3, 2))
    return P.columns(), P.target


def test_lead_is_position_over_term(r22):
    # x1^5 is the larger monomial, but position 0 wins
    F = FreeModule(r22, ((4, 0), (0, 0)))
    x2 = parse_poly("x2", r22).terms[0][0]
    assert elem(F, "x2", "x1^5").lead() == (0, x2, 1)
    with pytest.raises(ValueError):
        _zero_element(F).lead()


def test_bad_arguments_are_typed_errors(r22):
    # each is a BicohError (one error line, exit 2) and the ValueError
    # that callers catch
    F = FreeModule(r22, ((0, 0), (1, 0)))
    cases = ((CoordinateCountError, lambda: ModuleElement(F, (r22.one(),))),
             (ZeroElementError, lambda: _zero_element(F).lead()),
             (NoGeneratorsError, lambda: buchberger([])))
    for error, call in cases:
        with pytest.raises(error) as caught:
            call()
        assert isinstance(caught.value, BicohError)
        assert isinstance(caught.value, ValueError)


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_random_bases_are_reduced_and_order_free(p):
    rng = random.Random(p)
    ring = RingSpec(2, 2, p=p)
    for rank in (1, 1, 2, 2, 2):
        F = FreeModule(ring, tuple((rng.randint(0, 1), rng.randint(0, 1))
                                   for _ in range(rank)))
        gens = [random_element(rng, F, (rng.randint(1, 2), rng.randint(1, 2)))
                for _ in range(3)]
        gb = buchberger(gens)
        for g in gb.elements:
            assert g.lead()[2] == 1
            for h in gb.elements:
                if h is g:
                    continue
                hk, hm, _ = h.lead()
                assert not any(mono_divides(hm, mono)
                               for mono, _ in g.coords[hk].terms)
        assert buchberger(list(reversed(gens))).elements == gb.elements
        for a in range(4):
            for b in range(4):
                assert submodule_dim_groebner(gb, (a, b)) == \
                    submodule_dim_bruteforce(gens, (a, b))


@pytest.mark.parametrize("p", [2, 3, 32003])
@pytest.mark.parametrize("shape", [(2, 2), (3, 1)])
def test_pair_criteria_match_all_pairs_random(p, shape):
    rng = random.Random(100 * p + shape[0])
    ring = RingSpec(*shape, p=p)
    for rank in (1, 1, 2, 2, 3, 3):
        F = FreeModule(ring, tuple((rng.randint(0, 1), rng.randint(0, 1))
                                   for _ in range(rank)))
        gens = [random_element(rng, F, (rng.randint(1, 2), rng.randint(1, 2)))
                for _ in range(rng.randint(2, 4))]
        assert buchberger(gens).elements == \
            _all_pairs_buchberger(gens).elements


def test_pair_criteria_keep_cross_position_pair(r22):
    F, gens = _cross_position_pair(r22)
    gb = buchberger(gens)
    assert gb.elements == _all_pairs_buchberger(gens).elements
    assert normal_form(elem(F, "0", "x2*y1 - x1*y2"), gb).is_zero()


def test_pair_criteria_on_the_rung_divide_less(monkeypatch):
    columns, target = _rung_relations()
    calls = []
    divide = groebner._divide

    def counted(v, table):
        calls.append(1)
        return divide(v, table)

    monkeypatch.setattr(groebner, "_divide", counted)
    gb = buchberger(columns, module=target)
    fewer = len(calls)
    calls.clear()
    referee = _all_pairs_buchberger(columns, module=target)
    assert len(gb.elements) == 15
    assert gb.elements == referee.elements
    assert fewer < len(calls)


@given(st.data())
def test_buchberger_order_free_and_equal_to_all_pairs(data):
    p = data.draw(st.sampled_from([2, 3, 32003]))
    m, n = data.draw(st.sampled_from(
        [(m, n) for m in range(3) for n in range(3) if m + n]))
    ring = RingSpec(m, n, p=p)
    rank = data.draw(st.integers(1, 2))
    F = FreeModule(ring, tuple(data.draw(st.tuples(st.integers(0, 1),
                                                   st.integers(0, 1)))
                               for _ in range(rank)))
    rng = data.draw(st.randoms(use_true_random=False))
    gens = []
    for _ in range(data.draw(st.integers(1, 3))):
        k = data.draw(st.integers(0, rank - 1))
        a = data.draw(st.integers(0, 2)) if m else 0
        b = data.draw(st.integers(0, 2)) if n else 0
        gens.append(random_element(rng, F, F.shifts[k] + Bidegree(a, b)))
    gb = buchberger(gens)
    assert buchberger(data.draw(st.permutations(gens))).elements == \
        gb.elements
    assert _all_pairs_buchberger(gens).elements == gb.elements


def _drawn_gens(data, p):
    """A free module of rank 1-2 over F_p[x1, x2, y1, y2] and 1-3 random
    generators, each 0-2 steps above a shift in each block."""
    ring = RingSpec(2, 2, p=p)
    F = FreeModule(ring, tuple(data.draw(st.tuples(st.integers(0, 1),
                                                   st.integers(0, 1)))
                               for _ in range(data.draw(st.integers(1, 2)))))
    rng = data.draw(st.randoms(use_true_random=False))
    return rng, F, [random_element(rng, F, F.shifts[rng.randrange(F.rank)]
                                   + Bidegree(rng.randint(0, 2),
                                              rng.randint(0, 2)))
                    for _ in range(data.draw(st.integers(1, 3)))]


def _spy(monkeypatch, name, record):
    """Record the arguments of every call of groebner.<name>."""
    original = getattr(groebner, name)

    def spy(*args):
        record.append(args)
        return original(*args)

    monkeypatch.setattr(groebner, name, spy)


@settings(max_examples=40)
@given(st.data(), st.sampled_from([2, 3, 32003]))
def test_padded_generators_give_the_all_pairs_basis(data, p):
    # monomial multiples, sums and duplicates of the generators, all in
    # one shuffled input: the same basis as the referee's, and every basis
    # that reaches the interreduction is minimal
    rng, F, gens = _drawn_gens(data, p)
    ring = F.ring
    padding = [g.term_mul(rng.randrange(1, p), rng.choice(monomial_basis(
                   ring, (rng.randint(0, 1), rng.randint(0, 1)))))
               for g in gens]
    padding += [a + b for a in gens for b in gens
                if a.bidegree() == b.bidegree()]
    padded = data.draw(st.permutations(gens + padding + gens))
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        _spy(mp, "_reduce_basis", seen)
        gb = buchberger(padded, module=F)
    assert gb.elements == _all_pairs_buchberger(gens, module=F).elements
    assert all(_minimal(basis) == basis for _, basis in seen)


@settings(max_examples=40)
@given(st.data(), st.sampled_from([2, 3, 32003]))
def test_generator_reducing_to_zero_forms_no_s_pair(data, p):
    # multiples of the generators above the degree of every S-pair come off
    # the queue after the last pair, reduce to zero and are dropped: the
    # run makes the same S-pairs as without them
    rng, F, gens = _drawn_gens(data, p)
    ring = F.ring
    plain, padded = [], []
    with pytest.MonkeyPatch.context() as mp:
        _spy(mp, "_spair", plain)
        gb = buchberger(gens, module=F)
    top = max([g.bidegree().total for g in gens]
              + [mono_degree(ring, ui) + table.elements[i].bidegree().total
                 for table, i, _, ui, _ in plain])
    u = ring.monomial((top, 0, 0, 0))
    with pytest.MonkeyPatch.context() as mp:
        _spy(mp, "_spair", padded)
        assert buchberger(gens + [g.term_mul(1, u) for g in gens],
                          module=F) == gb
    assert [args[1:] for args in padded] == [args[1:] for args in plain]


def test_degree_decrease_raises(r22, monkeypatch):
    # the S-pair of x1^2 and x1*x2 lies in degree 3; an element of degree 1
    # in its place would break the order that keeps the basis minimal
    F = FreeModule(r22, ((0, 0),))
    monkeypatch.setattr(groebner, "_spair", lambda *args: elem(F, "y1"))
    with pytest.raises(InvariantError, match="lower degree"):
        buchberger([elem(F, "x1^2"), elem(F, "x1*x2")])


def test_gb_of_linear_forms(r22):
    F = FreeModule(r22, ((0, 0),))
    gb = buchberger([elem(F, "x1"), elem(F, "y1")])
    polys = {str(g.coords[0]) for g in gb.elements}
    assert polys == {"x1", "y1"}


def test_gb_principal(r22):
    F = FreeModule(r22, ((0, 0),))
    gb = buchberger([elem(F, "x1*y1")])
    assert len(gb.elements) == 1


def test_gb_matches_bruteforce_span(r22):
    F = FreeModule(r22, ((0, 0),))
    gens = [elem(F, "x1^2"), elem(F, "x1*x2")]
    gb = buchberger(gens)
    for a in range(5):
        for b in range(3):
            assert submodule_dim_groebner(gb, (a, b)) == \
                submodule_dim_bruteforce(gens, (a, b))


def test_gb_mixed_positions_matches_bruteforce(r22):
    F, (f, g) = _cross_position_pair(r22)
    gb = buchberger([f, g])
    assert len(gb.elements) >= 3
    witness = elem(F, "0", "x2*y1 - x1*y2")
    assert normal_form(witness, gb).is_zero()
    for a in range(4):
        for b in range(4):
            assert submodule_dim_groebner(gb, (a, b)) == \
                submodule_dim_bruteforce([f, g], (a, b))


def test_membership_through_normal_form(r22):
    F = FreeModule(r22, ((0, 0),))
    gb = buchberger([elem(F, "x1"), elem(F, "y1")])
    assert normal_form(elem(F, "x1*y1 + x2"), gb) == elem(F, "x2")
    for i, g in enumerate(gb.elements):
        others = gb.elements[:i] + gb.elements[i + 1:]
        assert normal_form(g, others) == g
        assert normal_form(g, gb).is_zero()


def test_normal_form_idempotent(r22):
    F = FreeModule(r22, ((0, 0),))
    gb = buchberger([elem(F, "x1^2"), elem(F, "x1*x2")])
    v = elem(F, "x1^3 + x2^3 + x1*x2*y1")
    once = normal_form(v, gb)
    assert normal_form(once, gb) == once


def test_gb_of_gb_is_stable(r22):
    F = FreeModule(r22, ((0, 0),))
    gb = buchberger([elem(F, "x1^2 + x2*x1"), elem(F, "x2^2")])
    again = buchberger(list(gb.elements))
    assert again.elements == gb.elements


def test_syzygy_koszul(r22):
    F = FreeModule(r22, ((0, 0),))
    gb = buchberger([elem(F, "x1"), elem(F, "y1")])
    syz = syzygies(gb)
    assert len(syz) == 1
    # the Koszul relation up to ordering of the basis
    coords = {str(c) for c in syz[0].coords}
    assert coords == {"y1", "-x1"} or coords == {"-y1", "x1"}


def test_syzygy_principal_is_empty(r22):
    F = FreeModule(r22, ((0, 0),))
    gb = buchberger([elem(F, "x1*y1")])
    assert syzygies(gb) == []


def test_syzygy_two_monomials(r22):
    F = FreeModule(r22, ((0, 0),))
    gens = [elem(F, "x1*y1"), elem(F, "x1*y2")]
    gb = buchberger(gens)
    syz = syzygies(gb)
    assert len(syz) == 1
    assert syz[0].bidegree() == Bidegree(1, 2)
    # composing the syzygy with the generators gives zero
    total = r22.zero()
    for coeff, g in zip(syz[0].coords, gb.elements):
        total = total + coeff * g.coords[0]
    assert total.is_zero()


def test_syzygies_compose_to_zero_generally(r22):
    F = FreeModule(r22, ((0, 0), (1, 0)))
    gens = [elem(F, "x1*y1", "y1"), elem(F, "x2^2", "x1"),
            elem(F, "0", "y2^2")]
    gb = buchberger(gens)
    for s in syzygies(gb):
        acc = _zero_element(F)
        for coeff, g in zip(s.coords, gb.elements):
            acc = acc + _poly_mul(g, coeff)
        assert acc.is_zero()


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_frame_syzygies_generate_all_pair_syzygies_random(p):
    rng = random.Random(7 * p)
    ring = RingSpec(2, 2, p=p)
    for rank in (1, 1, 2, 2, 3, 3):
        F = FreeModule(ring, tuple((rng.randint(0, 1), rng.randint(0, 1))
                                   for _ in range(rank)))
        gens = [random_element(rng, F, (rng.randint(1, 2), rng.randint(1, 2)))
                for _ in range(rng.randint(2, 5))]
        _frame_against_referee(buchberger(gens))


def test_frame_keeps_one_pair_per_equal_multiplier(r22):
    # leads x1*y1 > x1*y2 > y1*y2: at y1*y2 both earlier pairs have the
    # multiplier x1, so the frame keeps two syzygies, the minimal number
    F = FreeModule(r22, ((0, 0),))
    gb = buchberger([elem(F, "x1*y1"), elem(F, "x1*y2"), elem(F, "y1*y2")])
    kept, referee = _frame_against_referee(gb)
    assert (len(kept), len(referee)) == (2, 3)


def test_frame_syzygies_on_the_rung():
    columns, target = _rung_relations()
    kept, referee = _frame_against_referee(buchberger(columns, module=target))
    assert (len(kept), len(referee)) == (61, 105)


def test_syzygies_reject_a_basis_missing_an_s_pair_remainder(r22):
    F, gens = _cross_position_pair(r22)
    with pytest.raises(InvariantError, match="S-pair of a Groebner basis"):
        syzygies(GroebnerBasis(F, tuple(gens)))


def test_basis_shifts_are_the_element_bidegrees(r22):
    # one list of bidegrees per basis, read by syzygies, resolve and
    # quotient_presentation alike; a zero element has none
    F = FreeModule(r22, ((0, 0), (1, 0)))
    gb = buchberger([elem(F, "x1*y1", "y1"), elem(F, "x2", "0")])
    assert gb.shifts == tuple(g.bidegree() for g in gb.elements)
    assert syzygies(gb)[0].module.shifts == gb.shifts
    zero = GroebnerBasis(F, (_zero_element(F),))
    with pytest.raises(InvariantError, match="zero element"):
        syzygies(zero)


def _leads_of_m_times_span(gb, d):
    """The leads of the degree-d piece of mU, U the span of gb: the pivots
    of an elimination on the x^u * g with u != 1, over the terms of F in
    descending order."""
    ring = gb.module.ring
    rows = {}
    for g, e in zip(gb.elements, gb.shifts):
        if e == d:
            continue
        for u in monomial_basis(ring, d - e):
            v = {(k, m): c for k, poly in enumerate(g.term_mul(1, u).coords)
                 for m, c in poly.terms}
            while v:
                top = min(v, key=lambda t: (t[0], -t[1]))
                row = rows.get(top)
                if row is None:
                    inv = pow(v[top], -1, ring.p)
                    rows[top] = {t: c * inv % ring.p for t, c in v.items()}
                    break
                c = v[top]
                for t, rc in row.items():
                    v[t] = (v.get(t, 0) - c * rc) % ring.p
                    if not v[t]:
                        del v[t]
    return set(rows)


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_minimal_elements_are_the_leads_outside_m_times_the_span(p):
    # against elimination on each degree piece of mU; the kept elements
    # generate U, and elements of one bidegree can be kept and dropped
    rng = random.Random(11 * p)
    ring = RingSpec(2, 2, p=p)
    mixed = 0
    for rank in (1, 1, 1, 2, 2, 2, 3, 3):
        F = FreeModule(ring, tuple((rng.randint(0, 1), rng.randint(0, 1))
                                   for _ in range(rank)))
        gens = [random_element(rng, F, (rng.randint(1, 2), rng.randint(1, 2)))
                for _ in range(rng.randint(2, 5))]
        gb = buchberger(gens)
        keep = minimal_elements(gb)
        assert keep == [
            k for k, g in enumerate(gb.elements)
            if g.lead()[:2] not in _leads_of_m_times_span(gb, gb.shifts[k])]
        assert buchberger([gb.elements[k] for k in keep], module=F) == gb
        assert len(keep) <= len(gens)
        mixed += any(gb.shifts[k] == gb.shifts[l] for k in keep
                     for l in range(len(gb.elements)) if l not in keep)
    assert mixed


def test_kernel_basis_of_injective_map(r22):
    # multiplication by x1 on the free module is injective
    F = FreeModule(r22, ((0, 0),))
    src = FreeModule(r22, ((1, 0),))
    assert kernel_basis([elem(F, "x1")], src).elements == ()


def test_kernel_basis_finds_koszul_relation(r22):
    F = FreeModule(r22, ((0, 0),))
    src = FreeModule(r22, ((1, 0), (0, 1)))
    kernel = kernel_basis([elem(F, "x1"), elem(F, "y1")], src)
    assert kernel.module == src
    assert kernel.elements == (elem(src, "y1", "-x1"),)
    assert kernel.elements[0].bidegree() == Bidegree(1, 1)


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_kernel_basis_random_maps(p):
    rng = random.Random(7 * p)
    ring = RingSpec(2, 2, p=p)
    for _ in range(6):
        tgt = FreeModule(ring, tuple((rng.randint(0, 1), rng.randint(0, 1))
                                     for _ in range(rng.randint(1, 2))))
        columns = []
        for _ in range(rng.randint(1, 3)):
            shift = tgt.shifts[rng.randrange(tgt.rank)]
            columns.append(random_element(
                rng, tgt, shift + Bidegree(rng.randint(0, 1),
                                           rng.randint(0, 1))))
        src = FreeModule(ring, tuple(c.bidegree() for c in columns))
        kernel = kernel_basis(columns, src)
        for v in kernel.elements:
            image = _zero_element(tgt)
            for coeff, col in zip(v.coords, columns):
                image = image + _poly_mul(col, coeff)
            assert image.is_zero()
        if kernel.elements:
            assert buchberger(kernel.elements, module=src) == kernel
        matrix = tuple(tuple(c.coords[k] for c in columns)
                       for k in range(tgt.rank))
        P = _kernel_presentation(src, tgt, matrix)
        for a in range(4):
            for b in range(4):
                arr = restrict_matrix(ring, tgt, src, matrix, (a, b))
                assert hilbert_dim(P, (a, b)) == \
                    src.dim_at((a, b)) - rank_of_array(arr, p)
