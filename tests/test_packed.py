"""Packed monomials against exponent tuples.

The referees here are the tuple-monomial routes the packed layer replaced:
monomial helpers written on exponent tuples, a polynomial whose terms are
a {exponent tuple: coefficient} dict, division that keeps (position,
exponent tuple) terms in the degrevlex order of an explicit sort key, and
interreduction that divides each element by the others in turn."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import bicoh.groebner as groebner
from bicoh.cli import main
from bicoh.errors import DegreeOverflowError
from bicoh.groebner import (
    FreeModule,
    GroebnerBasis,
    ModuleElement,
    buchberger,
    normal_form,
)
from bicoh.errors import NotBihomogeneousError
from bicoh.poly import (
    Bidegree,
    Polynomial,
    RingSpec,
    mono_bidegree,
    mono_coprime,
    mono_div,
    mono_divides,
    mono_lcm,
    monomial_basis,
)
from bicoh.resolution import _numerator, quotient_by_polys
from test_groebner import (
    _minimal,
    _monic,
    _reduced,
    _rows_presentation,
    random_element,
)

LIMIT = 2 ** 31
PRIMES = (2, 3, 32003)


# ---------------------------------------------------------------------------
# exponent tuples: the definitions the packed helpers must agree with


def tuple_key(e):
    """Degrevlex as a sort key: total degree, then the smaller last
    exponent wins."""
    return (sum(e), tuple(-c for c in reversed(e)))


def tuple_divides(e, f):
    return all(a <= b for a, b in zip(e, f))


@st.composite
def rings(draw):
    nvars = draw(st.integers(1, 6))
    m = draw(st.integers(0, nvars))
    return RingSpec(m, nvars - m)


def exponents_of(ring, small=False):
    """Exponent tuples of total degree below 2^31, mostly small so that
    divisibility and coprimality both occur."""
    top = (LIMIT - 1) // ring.nvars
    entry = st.integers(0, 3) if small else st.one_of(
        st.integers(0, 3), st.integers(0, top))
    return st.tuples(*[entry] * ring.nvars)


@given(st.data())
def test_packed_round_trip_and_order(data):
    ring = data.draw(rings())
    e = data.draw(exponents_of(ring))
    f = data.draw(exponents_of(ring))
    a, b = ring.monomial(e), ring.monomial(f)
    assert ring.exponents(a) == e
    assert (a < b) == (tuple_key(e) < tuple_key(f))
    assert (a == b) == (e == f)
    assert mono_bidegree(ring, a) == Bidegree(sum(e[:ring.m]),
                                              sum(e[ring.m:]))


@given(st.data())
def test_packed_helpers_match_exponent_tuples(data):
    ring = data.draw(rings())
    small = data.draw(st.booleans())
    e = data.draw(exponents_of(ring, small))
    f = data.draw(exponents_of(ring, small))
    a, b = ring.monomial(e), ring.monomial(f)
    assert mono_divides(a, b) == tuple_divides(e, f)
    if tuple_divides(e, f):
        assert mono_div(b, a) == ring.monomial(
            tuple(y - x for x, y in zip(e, f)))
    lcm = tuple(map(max, e, f))
    if sum(lcm) < LIMIT:
        assert mono_lcm(ring, a, b) == ring.monomial(lcm)
    assert mono_coprime(ring, a, b) == all(x == 0 or y == 0
                                           for x, y in zip(e, f))
    if sum(e) + sum(f) < LIMIT:
        assert a + b == ring.monomial(tuple(x + y for x, y in zip(e, f)))


@given(st.data())
def test_products_past_the_degree_limit_raise(data):
    ring = data.draw(rings())
    var = data.draw(st.integers(0, ring.nvars - 1))
    d1 = data.draw(st.integers(1, LIMIT - 1))
    d2 = data.draw(st.integers(LIMIT - d1, LIMIT - 1))
    e1 = tuple(d1 if v == var else 0 for v in range(ring.nvars))
    e2 = tuple(d2 if v == var else 0 for v in range(ring.nvars))
    f = Polynomial(ring, ((ring.monomial(e1), 1),))
    g = Polynomial(ring, ((ring.monomial(e2), 1),))
    with pytest.raises(DegreeOverflowError):
        f * g
    with pytest.raises(DegreeOverflowError):
        g * f
    with pytest.raises(DegreeOverflowError):
        ring.monomial(tuple(a + b for a, b in zip(e1, e2)))


@given(st.data())
def test_lcm_past_the_degree_limit_raises(data):
    # two monomials below the limit, in different variables, whose lcm
    # reaches total degree 2^31 or more
    ring = data.draw(rings().filter(lambda r: r.nvars > 1))
    i, j = data.draw(st.permutations(range(ring.nvars)))[:2]
    d1 = data.draw(st.integers(1, LIMIT - 1))
    d2 = data.draw(st.integers(LIMIT - d1, LIMIT - 1))
    a = ring.monomial(tuple(d1 if v == i else 0 for v in range(ring.nvars)))
    b = ring.monomial(tuple(d2 if v == j else 0 for v in range(ring.nvars)))
    with pytest.raises(DegreeOverflowError):
        mono_lcm(ring, a, b)
    with pytest.raises(DegreeOverflowError):
        mono_lcm(ring, b, a)


def test_lcm_at_the_degree_limit():
    # one below the limit, at it, and the largest lcm of two monomials
    # below it, 2 * (2^31 - 1), on small rings and the largest one
    for ring in (RingSpec(1, 1), RingSpec(2, 0), RingSpec(32, 32)):
        def power(i, d):
            return ring.monomial(tuple(d if v == i else 0
                                       for v in range(ring.nvars)))

        last = ring.nvars - 1
        assert mono_lcm(ring, power(0, LIMIT - 2), power(last, 1)) == \
            power(0, LIMIT - 2) + power(last, 1)
        assert mono_lcm(ring, power(0, LIMIT - 1), power(0, 5)) == \
            power(0, LIMIT - 1)
        for d in (1, LIMIT - 1):
            with pytest.raises(DegreeOverflowError):
                mono_lcm(ring, power(0, LIMIT - 1), power(last, d))


@given(st.data())
def test_block_part_matches_the_block_rings(data):
    # the part of a monomial in each block, with any position above it,
    # packed in that block's own ring; 0 for an empty block
    ring = data.draw(st.one_of(rings(), st.sampled_from(
        [RingSpec(32, 32), RingSpec(64, 0), RingSpec(0, 64)])))
    e = data.draw(exponents_of(ring))
    key = data.draw(st.integers(0, 5)) << ring.width | ring.monomial(e)
    m, n = ring.m, ring.n
    assert ring.block_part(key, 0) == (RingSpec(m, 0).monomial(e[:m])
                                       if m else 0)
    assert ring.block_part(key, 1) == (RingSpec(0, n).monomial(e[m:])
                                       if n else 0)


def _tuple_bidegree(v):
    """Referee: the bidegree of each term from its exponent tuple and the
    shift of its position, None for zero, an error on mixed terms."""
    ring = v.module.ring
    degrees = {Bidegree(sum(e[:ring.m]) + s.a, sum(e[ring.m:]) + s.b)
               for k, poly in enumerate(v.coords)
               for s in (v.module.shifts[k],)
               for e in map(ring.exponents, (mono for mono, _ in poly.terms))}
    if len(degrees) > 1:
        raise NotBihomogeneousError(sorted(degrees))
    return degrees.pop() if degrees else None


@pytest.mark.parametrize("p", PRIMES)
def test_element_bidegree_matches_exponent_tuples(p):
    # elements of random bidegrees over modules with negative shifts, and
    # the terms of two of them of different bidegrees merged into one,
    # also of one total degree
    rng = random.Random(53 + p)
    for m, n in ((2, 2), (3, 1), (1, 0), (0, 2)):
        ring = RingSpec(m, n, p)
        flip = (1 << ring.width) - 1
        steps = [Bidegree(1, 0) if m else Bidegree(0, 1)]
        steps += [Bidegree(1, -1)] if m and n else []
        for _ in range(10):
            F = FreeModule(ring, tuple(
                (rng.randint(-2, 2), rng.randint(-2, 2))
                for _ in range(rng.randint(1, 3))))
            d = F.shifts[rng.randrange(F.rank)] + Bidegree(
                rng.randint(0, 2) if m else 0, rng.randint(1, 2) if n else 0)
            v = random_element(rng, F, d)
            assert v.bidegree() == _tuple_bidegree(v) == d
            for step in steps:
                w = random_element(rng, F, d + step)
                assert w.bidegree() == _tuple_bidegree(w) == d + step
                mixed = ModuleElement._of(F, sorted(
                    v.terms + w.terms, key=lambda term: term[0] ^ flip))
                with pytest.raises(NotBihomogeneousError):
                    _tuple_bidegree(mixed)
                with pytest.raises(NotBihomogeneousError):
                    mixed.bidegree()
    assert ModuleElement._of(F, ()).bidegree() is None


def bidegree_numerator(ring, monos):
    """The Bigatti recursion on Bidegree keys, as it stood before the
    packed one: N(J + (m)) = N(J) - t^deg(m) N(J : m)."""
    gens, out = [], {Bidegree(0, 0): 1}
    for m in sorted(set(monos)):
        if any(mono_divides(g, m) for g in gens):
            continue
        deg = mono_bidegree(ring, m)
        colon = [mono_div(mono_lcm(ring, g, m), m) for g in gens]
        for s, c in bidegree_numerator(ring, colon).items():
            out[s + deg] = out.get(s + deg, 0) - c
        gens.append(m)
    return out


@given(st.data())
def test_numerator_matches_the_bidegree_recursion(data):
    ring = data.draw(rings())
    ideal = [ring.monomial(e) for e in data.draw(st.lists(
        exponents_of(ring, small=True), max_size=7))]
    assert _numerator(ring, ideal) == bidegree_numerator(ring, ideal)


def test_equal_presentations_built_apart_hash_equal():
    ring = RingSpec(2, 2, 7)
    x1, x2, y1, y2 = ring.gens()
    rows = ((x1 * y1 + x2 * y2, x1 * x2 * y1), (y2, x2 * y2))
    built = [quotient_by_polys(RingSpec(2, 2, 7), [x1 * y1, x2 * y2 - x1 * y2])
             for _ in range(2)]
    built += [_rows_presentation(RingSpec(2, 2, 7), ((0, 0), (1, 0)),
                                 ((1, 1), (2, 1)), rows) for _ in range(2)]
    for a, b in (built[:2], built[2:]):
        assert a is not b and a == b and hash(a) == hash(b)
    assert built[0] != built[2]


def test_ring_size_is_bounded():
    # one GUARDS mask reaches the last variable of the largest ring
    ring = RingSpec(32, 32)
    first, last = ring.gens()[0].terms[0][0], ring.gens()[-1].terms[0][0]
    assert mono_divides(last, last + first)
    assert not mono_divides(last, first)
    assert not mono_divides(first, last)
    with pytest.raises(ValueError):
        RingSpec(33, 32)


def test_cli_degree_overflow_exit_2(tmp_path, capsys):
    path = tmp_path / "huge.mod"
    path.write_text("p=32003\nm=2\nn=2\ngens=(0,0)\n"
                    "rels=(2147483648,0): x1^2147483648\n")
    code = main(["hilbert", "--module", str(path), "--window", "0:1,0:1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# the tuple-monomial polynomial and division


def to_tuples(f):
    """A Polynomial as its list of (exponent tuple, coefficient) terms."""
    return [(f.ring.exponents(mono), c) for mono, c in f.terms]


class TuplePoly:
    """{exponent tuple: coefficient}, terms listed by an explicit sort."""

    def __init__(self, ring, d):
        self.ring = ring
        self.d = {e: c % ring.p for e, c in d.items() if c % ring.p}

    @classmethod
    def of(cls, f):
        return cls(f.ring, dict(to_tuples(f)))

    def terms(self):
        return sorted(self.d.items(), key=lambda t: tuple_key(t[0]),
                      reverse=True)

    def __add__(self, other):
        d = dict(self.d)
        for e, c in other.d.items():
            d[e] = d.get(e, 0) + c
        return TuplePoly(self.ring, d)

    def __neg__(self):
        return TuplePoly(self.ring, {e: -c for e, c in self.d.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        d = {}
        for e, c in self.d.items():
            for f, k in other.d.items():
                g = tuple(a + b for a, b in zip(e, f))
                d[g] = d.get(g, 0) + c * k
        return TuplePoly(self.ring, d)

    def term_mul(self, coeff, mono):
        return TuplePoly(self.ring, {tuple(a + b for a, b in zip(e, mono)):
                                     c * coeff for e, c in self.d.items()})

    def scale(self, c):
        return TuplePoly(self.ring, {e: k * c for e, k in self.d.items()})


def random_poly(rng, ring, degree, density=0.6):
    return Polynomial.from_dict(ring, {
        mono: rng.randrange(1, ring.p)
        for mono in monomial_basis(ring, degree) if rng.random() < density})


@pytest.mark.parametrize("p", PRIMES)
def test_polynomial_arithmetic_matches_tuple_polynomials(p):
    rng = random.Random(41 + p)
    for m, n in ((2, 2), (3, 2), (1, 0), (0, 3)):
        ring = RingSpec(m, n, p)
        for _ in range(12):
            d1 = (rng.randint(0, 2) if m else 0, rng.randint(0, 2) if n else 0)
            d2 = (rng.randint(0, 2) if m else 0, rng.randint(0, 2) if n else 0)
            f, g = random_poly(rng, ring, d1), random_poly(rng, ring, d1)
            h = random_poly(rng, ring, d2)
            tf, tg, th = TuplePoly.of(f), TuplePoly.of(g), TuplePoly.of(h)
            assert to_tuples(f + g) == (tf + tg).terms()
            assert to_tuples(f - g) == (tf - tg).terms()
            assert to_tuples(f * h) == (tf * th).terms()
            c = rng.randrange(p)
            assert to_tuples(f.scale(c)) == tf.scale(c).terms()
            e = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
            term = Polynomial.from_dict(ring, {ring.monomial(e): c})
            assert to_tuples(term * f) == tf.term_mul(c, e).terms()


def tuple_normal_form(v, basis):
    """Division with (position, exponent tuple) terms: the largest term
    under position over term goes to the first element whose lead
    divides it, else to the remainder."""
    ring = v.module.ring
    p = ring.p
    work = [TuplePoly.of(c).d for c in v.coords]
    gens = [[TuplePoly.of(c).d for c in g.coords] for g in basis]
    leads = [(k, ring.exponents(mono)) for k, mono, _ in
             (g.lead() for g in basis)]
    remainder = [{} for _ in v.coords]
    for k in range(len(work)):
        while work[k]:
            mono = max(work[k], key=tuple_key)
            coeff = work[k][mono]
            hit = next((i for i, (gk, gm) in enumerate(leads)
                        if gk == k and tuple_divides(gm, mono)), None)
            if hit is None:
                remainder[k][mono] = work[k].pop(mono)
                continue
            u = tuple(b - a for a, b in zip(leads[hit][1], mono))
            for gk, coord in enumerate(gens[hit]):
                for e, c in coord.items():
                    t = tuple(a + b for a, b in zip(e, u))
                    new = (work[gk].get(t, 0) - coeff * c) % p
                    if new:
                        work[gk][t] = new
                    else:
                        work[gk].pop(t, None)
    return [TuplePoly(ring, r).terms() for r in remainder]


def random_gens(rng, module, count):
    return [random_element(rng, module, module.shifts[rng.randrange(
        module.rank)] + Bidegree(rng.randint(1, 2), rng.randint(1, 2)))
        for _ in range(count)]


def seeded_modules(p):
    rng = random.Random(97 * p)
    for m, n in ((2, 2), (2, 1), (1, 2)):
        ring = RingSpec(m, n, p)
        for rank in (1, 2, 3):
            F = FreeModule(ring, tuple((rng.randint(0, 1), rng.randint(0, 1))
                                       for _ in range(rank)))
            yield rng, F, random_gens(rng, F, rng.randint(2, 3))


@pytest.mark.parametrize("p", PRIMES)
def test_normal_form_matches_tuple_division(p):
    for rng, F, gens in seeded_modules(p):
        monic = [_monic(g) for g in gens]
        gb = buchberger(gens)
        for _ in range(4):
            k = rng.randrange(F.rank)
            v = random_element(rng, F, F.shifts[k] + Bidegree(
                rng.randint(1, 3), rng.randint(1, 3)))
            for basis in (monic, gb.elements):
                nf = normal_form(v, basis)
                assert [to_tuples(c) for c in nf.coords] == \
                    tuple_normal_form(v, basis)


# ---------------------------------------------------------------------------
# interreduction element by element


def reduce_basis_per_element(module, basis):
    """Referee: each element of a minimal basis divided by the others, the
    earlier ones already reduced."""
    kept = list(basis)
    for i in range(len(kept)):
        kept[i] = normal_form(kept[i], kept[:i] + kept[i + 1:])
    kept.sort(key=lambda g: (-g.lead()[0], g.lead()[1]), reverse=True)
    return GroebnerBasis(module, tuple(kept))


@pytest.mark.parametrize("p", PRIMES)
def test_one_table_interreduction_matches_per_element(p, monkeypatch):
    # buchberger hands over bases whose leads divide no other lead
    reduce_basis = groebner._reduce_basis
    seen = []

    def spy(module, table):
        width = module.ring.width
        seen.append((module, table.leads, [
            ModuleElement._of(module, [(k << width | mono, coeff)] + tail)
            for (k, mono, coeff), tail in zip(table.leads, table.tails)]))
        return reduce_basis(module, table)

    monkeypatch.setattr(groebner, "_reduce_basis", spy)
    for _, _, gens in seeded_modules(p):
        buchberger(gens)
    monkeypatch.undo()
    assert seen
    assert all(_minimal(leads) == list(range(len(leads)))
               for _, leads, _ in seen)
    for module, _, basis in seen:
        assert _reduced(module, basis).elements == \
            reduce_basis_per_element(module, basis).elements
