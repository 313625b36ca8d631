"""Buchberger's algorithm for submodules of free modules with shifts.

Elements live in F = (+)_k S(-shift_k); the order is position-over-term
(generator 0 largest, ties broken by the polynomial order).  All input is
bihomogeneous, so every S-pair and normal form stays bihomogeneous and the
shift bookkeeping for Schreyer syzygies is automatic.

Only elements whose leads share a position form S-pairs.  `buchberger`
puts each new element h through the pair update of Gebauer & Moeller
(1988, "On an installation of Buchberger's algorithm"), which runs within
that position:

- criterion B_k deletes a queued pair (i, j) when lt(h) divides its lcm
  and neither lcm(i, h) nor lcm(j, h) equals it;
- criteria M and F keep a new pair (h, g) only when no other new pair
  still in play has an lcm dividing its own (of equal lcms, one stays);
- the product criterion then drops the new pairs with coprime leads, where
  it is valid (below).  Up to that point such a pair stays in play, so it
  can dominate others.

The product criterion is only valid here when both elements are supported
in their common lead position: with cross-position tails the S-pair of
coprime leads need not reduce to zero, e.g. f = x1*e0 + x2*e1,
g = y1*e0 + y2*e1 leaves the remainder (x2*y1 - x1*y2)*e1.  Every other
pair with coprime leads is treated like any pair.

One heap queues the input generators beside the S-pairs (Giovini, Mora,
Niesi, Robbiano & Traverso, "One sugar cube, please", 1991), keyed by total
degree: the lead or lcm degree plus the shift of the lead position, with
generators first among equals.  A generator is divided only when a basis
lead divides its lead, and dropped if it reduces to zero, so redundant
input forms no pairs.  Elements enter in nondecreasing degree, each with a
lead that no earlier lead divides, so the basis is minimal: a later lead
dividing an earlier one would have no larger degree, so it would equal it.
A degree decrease raises InvariantError.  B_k deletes lazily: a dict holds
the live pairs, and a popped pair missing from it is skipped.

Division reads a `_Divisors` table, each divisor's lead and tail, built
once per basis: `buchberger` extends its table as elements are appended,
and a `GroebnerBasis` builds its own on first use.  Interreduction reuses
one table of the minimal basis for every element's tail: no lead divides a
monomial smaller than itself, so an element is never reduced by itself.
Division pops terms in descending order, so its remainders and quotients
are term lists sorted by construction.

`syzygies` returns Schreyer's frame: of the same-position pairs (i, j),
j < i, only those whose multiplier u_ij = lcm(lt g_i, lt g_j)/lt g_i
minimally generates (u_ij : j < i), one per equal u_ij.  Their syzygies
are a Groebner basis of the syzygy module under the Schreyer order, so
they generate it, and their S-pairs alone still certify the basis.
"""

import heapq
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    CoordinateCountError,
    InvariantError,
    NoGeneratorsError,
    NotBihomogeneousError,
    RingMismatchError,
    ZeroElementError,
)
from .poly import (
    GUARDS,
    Bidegree,
    Polynomial,
    mono_coprime,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    monomial_basis,
    piece_dim,
)


@dataclass(frozen=True)
class FreeModule:
    """F = (+)_k S(-shift_k); shifts[k] is the bidegree of generator k."""

    ring: object
    shifts: tuple

    def __post_init__(self):
        object.__setattr__(self, "shifts",
                           tuple(Bidegree(*s) for s in self.shifts))

    @property
    def rank(self):
        return len(self.shifts)

    def dim_at(self, d):
        d = Bidegree(*d)
        return sum(piece_dim(self.ring, d - s) for s in self.shifts)

    def basis_at(self, d):
        """Ordered basis of the graded piece: (generator index, monomial),
        generators ascending, monomials descending."""
        d = Bidegree(*d)
        out = []
        for k, s in enumerate(self.shifts):
            for mono in monomial_basis(self.ring, d - s):
                out.append((k, mono))
        return out

    def unit_element(self, k):
        coords = [self.ring.zero()] * self.rank
        coords[k] = self.ring.one()
        return ModuleElement(self, tuple(coords))


class ModuleElement:
    """Element of a FreeModule: one polynomial coordinate per generator."""

    __slots__ = ("module", "coords", "_hash")

    def __init__(self, module, coords):
        if len(coords) != module.rank:
            raise CoordinateCountError("coordinate count != rank")
        self.module = module
        self.coords = tuple(coords)
        self._hash = None

    def is_zero(self):
        return all(c.is_zero() for c in self.coords)

    def __bool__(self):
        return not self.is_zero()

    def _check(self, other):
        if self.module != other.module:
            raise RingMismatchError("elements of different free modules")

    def __add__(self, other):
        self._check(other)
        return ModuleElement(self.module,
                             tuple(a + b for a, b in
                                   zip(self.coords, other.coords)))

    def __sub__(self, other):
        self._check(other)
        return ModuleElement(self.module,
                             tuple(a - b for a, b in
                                   zip(self.coords, other.coords)))

    def __neg__(self):
        return ModuleElement(self.module, tuple(-a for a in self.coords))

    def scale(self, c):
        return ModuleElement(self.module,
                             tuple(a.scale(c) for a in self.coords))

    def term_mul(self, coeff, mono):
        return ModuleElement(self.module,
                             tuple(a.term_mul(coeff, mono)
                                   for a in self.coords))

    def lead(self):
        """Largest term (position k, monomial, coefficient) under POT: the
        first term of the first nonzero coordinate.  Position over term
        puts every term of a lower position above every term of a higher
        one, and each coordinate keeps its terms in descending order."""
        for k, poly in enumerate(self.coords):
            if poly.terms:
                mono, coeff = poly.terms[0]
                return k, mono, coeff
        raise ZeroElementError("zero element has no lead term")

    def bidegree(self):
        """Common bidegree d: coordinate k is bihomogeneous of d - shift_k."""
        deg = None
        for k, poly in enumerate(self.coords):
            if poly.is_zero():
                continue
            d = poly.bidegree() + self.module.shifts[k]
            if deg is None:
                deg = d
            elif deg != d:
                raise NotBihomogeneousError(
                    f"coordinates of bidegrees {deg} and {d}")
        return deg  # None for the zero element

    def __eq__(self, other):
        if not isinstance(other, ModuleElement):
            return NotImplemented
        return self.module == other.module and self.coords == other.coords

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.module, self.coords))
        return self._hash

    def __str__(self):
        parts = [f"({poly})*e{k}" for k, poly in enumerate(self.coords)
                 if not poly.is_zero()]
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis: monic, interreduced, canonically sorted."""

    module: FreeModule
    elements: tuple

    def lead_terms(self):
        return [g.lead() for g in self.elements]

    @cached_property
    def shifts(self):
        """The bidegree of each element: the shifts of its syzygy module,
        of the next level of a resolution and of a subquotient on it."""
        out = tuple(g.bidegree() for g in self.elements)
        if None in out:
            raise InvariantError("zero element in Groebner basis")
        return out

    @cached_property
    def _divisors(self):
        return _Divisors(self.elements)


def _element_sort_key(g):
    k, mono, _ = g.lead()
    return (-k, mono)


# Division works on terms keyed by one int, position << width | monomial
# (width: the bits of a packed monomial of the ring).  Keys order by
# position, then monomial, and adding a monomial u multiplies the term by
# x^u.  POT descends by ascending position and descending monomial, so the
# min-heap holds key ^ (2^width - 1), which flips the monomial bits only.


class _Divisors:
    """Division table of monic elements, extended in place: each element's
    lead and tail, and per lead position the (index, lead key) of the
    elements leading there, in ascending index.  A tail is its terms after
    the lead, as (position << width, term tuple) per nonzero position; the
    term tuples are the element's own, so a table costs no term copies."""

    __slots__ = ("elements", "leads", "tails", "by_position")

    def __init__(self, elements=()):
        self.elements = []
        self.leads = []
        self.tails = []
        self.by_position = {}
        for g in elements:
            self.append(g)

    def append(self, g):
        width = g.module.ring.width
        lead = g.lead()
        self.by_position.setdefault(lead[0], []).append(
            (len(self.elements), lead[0] << width | lead[1]))
        self.elements.append(g)
        self.leads.append(lead)
        tail = [(k << width, poly.terms) for k, poly in enumerate(g.coords)
                if poly.terms]
        tail[0] = (tail[0][0], tail[0][1][1:])
        self.tails.append([(off, terms) for off, terms in tail if terms])


def _divide(v, table, with_quotients=False):
    """Full division of v by the elements of a `_Divisors` table.

    Returns (quotients, remainder): v = sum q_i * elements[i] + remainder,
    no remainder term divisible by any lead term of the divisors; each
    term goes to the first divisor whose lead divides it.  The quotients
    (Polynomials) are built only on request, else None.  Works on a flat
    {key: coeff} dict with a lazy-deletion heap, so each reduction step
    costs O(divisor size), not a full renormalization.  Terms pop in
    strictly descending order, and each divisor's multipliers with them,
    so remainder and quotients need no sort.
    """
    module = v.module
    ring = module.ring
    p, width = ring.p, ring.width
    flip = (1 << width) - 1
    by_position = table.by_position
    tails = table.tails
    work = {k << width | mono: coeff
            for k, poly in enumerate(v.coords) for mono, coeff in poly.terms}
    heap = [key ^ flip for key in work]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    quotients = [[] for _ in tails] if with_quotients else None
    remainder = [[] for _ in v.coords]
    while heap:
        key = pop(heap) ^ flip
        coeff = work.pop(key, 0)
        if not coeff:
            continue
        k = key >> width
        for i, lead in by_position.get(k, ()):
            if not (key - lead) & GUARDS:
                break
        else:
            remainder[k].append((key & flip, coeff))
            continue
        u = key - lead
        if quotients is not None:
            quotients[i].append((u, coeff))
        for off, terms in tails[i]:
            off += u
            for t, gc in terms:
                t += off
                old = work.get(t)
                if old is None:
                    work[t] = -coeff * gc % p
                    push(heap, t ^ flip)
                else:
                    new = (old - coeff * gc) % p
                    if new:
                        work[t] = new
                    else:
                        del work[t]
    if quotients is not None:
        quotients = [Polynomial(ring, tuple(q)) for q in quotients]
    return quotients, _from_positions(module, remainder)


def _from_positions(module, positions):
    """The element whose coordinate k has the term list positions[k],
    already descending."""
    ring = module.ring
    zero = ring.zero()
    return ModuleElement(module, tuple(Polynomial(ring, tuple(terms))
                                       if terms else zero
                                       for terms in positions))


def _spair(table, i, j, ui, uj):
    """The S-pair ui*g_i - uj*g_j of two monic table elements, whose leads
    cancel: their shifted tails merged in one dict and sorted once, with
    no intermediate elements."""
    module = table.elements[i].module
    ring = module.ring
    p, width = ring.p, ring.width
    work = {}
    for off, terms in table.tails[i]:
        off += ui
        for t, c in terms:
            work[t + off] = c
    for off, terms in table.tails[j]:
        off += uj
        for t, c in terms:
            t += off
            new = (work.get(t, 0) - c) % p
            if new:
                work[t] = new
            else:
                del work[t]
    flip = (1 << width) - 1
    positions = [[] for _ in range(module.rank)]
    for key in sorted(work, reverse=True):
        positions[key >> width].append((key & flip, work[key]))
    return _from_positions(module, positions)


def normal_form(v: ModuleElement, G) -> ModuleElement:
    """Remainder of v on division by G (a GroebnerBasis, monic elements or
    a `_Divisors` table); no term divisible by a lead of G."""
    if isinstance(G, GroebnerBasis):
        G = G._divisors
    elif not isinstance(G, _Divisors):
        G = _Divisors(G)
    if not G.elements:
        return v
    if G.elements[0].module != v.module:
        raise RingMismatchError("element and basis in different modules")
    return _divide(v, G)[1]


def _make_monic(g):
    _, _, coeff = g.lead()
    if coeff == 1:
        return g
    return g.scale(pow(coeff, -1, g.module.ring.p))


def _single_position(g):
    return sum(1 for c in g.coords if not c.is_zero()) == 1


def buchberger(gens, module=None) -> GroebnerBasis:
    """Groebner basis of the submodule generated by bihomogeneous gens."""
    gens = [g for g in gens if g]
    if module is None:
        if not gens:
            raise NoGeneratorsError(
                "no generators and no ambient module given")
        module = gens[0].module
    ring = module.ring
    shifts = [s.total for s in module.shifts]
    table = _Divisors()
    basis, leads, by_position = table.elements, table.leads, table.by_position
    single = []   # single[i]: basis[i] lives in its lead position alone
    live = {}     # (i, j) -> (lead position, lcm) of the pairs not deleted
    # (degree, -1, t) for gens[t], (degree, i, j, ui, uj) for an S-pair;
    # bidegree() raises NotBihomogeneousError on mixed input
    queue = [(g.bidegree().total, -1, t) for t, g in enumerate(gens)]
    heapq.heapify(queue)

    def append(f):
        f = _make_monic(f)
        h = len(basis)
        hk, hm, _ = f.lead()
        if h and (mono_degree(ring, hm) + shifts[hk]
                  < mono_degree(ring, leads[-1][1]) + shifts[leads[-1][0]]):
            raise InvariantError("Groebner basis element of lower degree "
                                 "than its predecessor")
        for (i, j), (k, w) in list(live.items()):   # criterion B_k
            if (k == hk and mono_divides(hm, w)
                    and mono_lcm(ring, leads[i][1], hm) != w
                    and mono_lcm(ring, leads[j][1], hm) != w):
                del live[(i, j)]
        h_single = _single_position(f)
        new = [(mono_lcm(ring, hm, leads[g][1]), g, h_single and single[g]
                and mono_coprime(ring, hm, leads[g][1]))
               for g, _ in by_position.get(hk, ())]
        kept = []     # criteria M and F, then the product criterion
        for t, (w, g, product) in enumerate(new):
            if product or not any(mono_divides(v, w)
                                  for v, _, _ in new[t + 1:] + kept):
                kept.append((w, g, product))
        for w, g, product in kept:
            if not product:
                live[(h, g)] = (hk, w)
                heapq.heappush(queue, (mono_degree(ring, w) + shifts[hk], h,
                                       g, mono_div(w, hm),
                                       mono_div(w, leads[g][1])))
        single.append(h_single)
        table.append(f)

    while queue:
        _, i, j, *u = heapq.heappop(queue)
        if i < 0:     # gens[j], divided only when a basis lead divides
            f = gens[j]
            k, m, _ = f.lead()
            if any(mono_divides(leads[g][1], m)
                   for g, _ in by_position.get(k, ())):
                f = normal_form(f, table)
        elif live.pop((i, j), None) is not None:
            f = normal_form(_spair(table, i, j, *u), table)
        else:
            continue
        if f:
            append(f)
    return _reduce_basis(module, basis)


def _reduce_basis(module, basis):
    """Interreduce a minimal Groebner basis (no lead divides another) to
    the unique reduced (monic) one in one pass of tail reduction.  A lead
    divides no smaller monomial and every tail term lies below its own
    lead, so each tail divides by one table of the whole basis."""
    table = _Divisors(basis)
    ring = module.ring
    reduced = []
    for g in basis:
        k, mono, coeff = g.lead()
        coords = list(g.coords)
        coords[k] = Polynomial(ring, coords[k].terms[1:])
        rem = _divide(ModuleElement(g.module, coords), table)[1]
        coords = list(rem.coords)
        coords[k] = Polynomial(ring, ((mono, coeff),) + coords[k].terms)
        reduced.append(ModuleElement(g.module, coords))
    reduced.sort(key=_element_sort_key, reverse=True)
    return GroebnerBasis(module, tuple(reduced))


def _frame_pairs(table, i):
    """The j < i of the Schreyer frame at i: those whose multiplier
    u_ij = lcm(lt g_i, lt g_j) / lt g_i is a minimal generator of the
    monomial ideal (u_ij : j < i, same lead position), the smallest j
    among equal ones.  Returns (j, u_ij, u_ji) in ascending j."""
    k, mi, _ = table.leads[i]
    ring = table.elements[i].module.ring
    cands = []
    for j, _ in table.by_position[k]:
        if j >= i:
            break
        mj = table.leads[j][1]
        w = mono_lcm(ring, mi, mj)
        ui = mono_div(w, mi)
        cands.append((mono_degree(ring, ui), j, ui, mono_div(w, mj)))
    # a divisor of u has no larger degree, so it comes first in this order
    kept = []
    for _, j, ui, uj in sorted(cands):
        if not any(mono_divides(u, ui) for _, u, _ in kept):
            kept.append((j, ui, uj))
    return sorted(kept)


def syzygies(G: GroebnerBasis):
    """Schreyer frame of the syzygy module of G.

    Returns elements of a fresh free module with one generator per basis
    element, shifted by its bidegree, so every syzygy is bihomogeneous.

    The syzygy S_ij (j < i, same lead position) comes from the division of
    the S-pair u_ij*g_i - u_ji*g_j by G.  Under the Schreyer order on the
    syzygy module, with ties going to the larger index, its lead is
    u_ij*e_i, so the S_ij whose u_ij minimally generate (u_ij : j < i) form
    a Groebner basis of the syzygies (Schreyer 1980; Eisenbud, Thm 15.10;
    La Scala & Stillman 1998): only those are built, one per equal u_ij.
    Their lead-term syzygies also generate the syzygies of the lead terms
    of G, so by Buchberger's criterion on that generating set, each of
    their S-pairs reducing to zero proves that G is a Groebner basis; a
    remainder raises InvariantError.
    """
    elems = G.elements
    if not elems:
        return []
    ring = G.module.ring
    syz_module = FreeModule(ring, G.shifts)
    out = []
    for i in range(len(elems)):
        for j, ui, uj in _frame_pairs(G._divisors, i):
            quotients, rem = _divide(_spair(G._divisors, i, j, ui, uj),
                                     G._divisors, True)
            if not rem.is_zero():
                raise InvariantError(
                    "S-pair of a Groebner basis did not reduce")
            coords = [-q for q in quotients]
            coords[i] = coords[i] + Polynomial(ring, ((ui, 1),))
            coords[j] = coords[j] - Polynomial(ring, ((uj, 1),))
            s = ModuleElement(syz_module, tuple(coords))
            if s:
                out.append(s)
    return out


# ---------------------------------------------------------------------------
# kernels via the graph construction
#
# For a map phi: F_src -> F_tgt with columns c_l, run Buchberger on the
# elements (c_l, e_l) of F_tgt (+) F_src.  Positions of F_tgt dominate, so
# the basis elements with vanishing F_tgt block are a Groebner basis of
# ker phi, already reduced, monic and sorted under the order of F_src.


def kernel_basis(columns, src: FreeModule) -> GroebnerBasis:
    """Reduced Groebner basis of the kernel of the map F_src -> F_tgt whose
    l-th column is columns[l]."""
    if not columns:
        return GroebnerBasis(src, ())
    ring = src.ring
    rt = columns[0].module.rank
    big = FreeModule(ring, columns[0].module.shifts + src.shifts)
    graph = []
    for l, col in enumerate(columns):
        coords = list(col.coords) + [ring.zero()] * src.rank
        coords[rt + l] = ring.one()
        graph.append(ModuleElement(big, tuple(coords)))
    return GroebnerBasis(src, tuple(
        ModuleElement(src, g.coords[rt:])
        for g in buchberger(graph, module=big).elements
        if all(c.is_zero() for c in g.coords[:rt])))
