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
  can dominate others;
- an element whose lead lt(h) divides makes no further pairs.

The product criterion is only valid here when both elements are supported
in their common lead position: with cross-position tails the S-pair of
coprime leads need not reduce to zero, e.g. f = x1*e0 + x2*e1,
g = y1*e0 + y2*e1 leaves the remainder (x2*y1 - x1*y2)*e1.  Every other
pair with coprime leads is treated like any pair.

The queue is a heap of (lcm degree, i, j, ui, uj), which pops in ascending
lcm degree (the normal selection strategy).  B_k deletes lazily: one dict
holds the pairs still live, and a popped pair missing from it is skipped.

Division reads a `_Divisors` table, each divisor's lead and term list,
built once per basis: `buchberger` extends its table as elements are
appended, and a `GroebnerBasis` builds its own on first use.

`syzygies` returns Schreyer's frame: of the same-position pairs (i, j),
j < i, only those whose multiplier u_ij = lcm(lt g_i, lt g_j)/lt g_i
minimally generates (u_ij : j < i), one per equal u_ij.  Their syzygies
are a Groebner basis of the syzygy module under the Schreyer order, so
they generate it, and their S-pairs alone still certify the basis.
"""

import heapq
from dataclasses import dataclass
from functools import cached_property

from .errors import NotBihomogeneousError, RingMismatchError
from .poly import (
    Bidegree,
    Polynomial,
    mono_coprime,
    mono_div,
    mono_divides,
    mono_key,
    mono_lcm,
    mono_mul,
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

    def zero_element(self):
        z = self.ring.zero()
        return ModuleElement(self, (z,) * self.rank)

    def unit_element(self, k):
        coords = [self.ring.zero()] * self.rank
        coords[k] = self.ring.one()
        return ModuleElement(self, tuple(coords))


class ModuleElement:
    """Element of a FreeModule: one polynomial coordinate per generator."""

    __slots__ = ("module", "coords", "_hash")

    def __init__(self, module, coords):
        if len(coords) != module.rank:
            raise ValueError("coordinate count != rank")
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

    def poly_mul(self, f):
        return ModuleElement(self.module, tuple(f * a for a in self.coords))

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
        raise ValueError("zero element has no lead term")

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

    def contains(self, v):
        return normal_form(v, self).is_zero()

    @cached_property
    def _divisors(self):
        return _Divisors(self.elements)


def _element_sort_key(g):
    k, mono, _ = g.lead()
    return (-k, mono_key(mono))


def _pot_heap_key(k, mono):
    """Min-heap entry ordering that pops terms in descending POT order."""
    return (k, -sum(mono), tuple(reversed(mono)))


class _Divisors:
    """Division table of monic elements, extended in place: each element's
    lead and term list, and per lead position the (index, lead monomial)
    of the elements leading there, in ascending index."""

    __slots__ = ("elements", "leads", "terms", "by_position")

    def __init__(self, elements=()):
        self.elements = []
        self.leads = []
        self.terms = []
        self.by_position = {}
        for g in elements:
            self.append(g)

    def append(self, g):
        lead = g.lead()
        self.by_position.setdefault(lead[0], []).append(
            (len(self.elements), lead[1]))
        self.elements.append(g)
        self.leads.append(lead)
        self.terms.append([(k, mono, coeff) for k, poly in enumerate(g.coords)
                           for mono, coeff in poly.terms])


def _divide(v, table):
    """Full division of v by the elements of a `_Divisors` table.

    Returns (quotients, remainder): v = sum q_i * elements[i] + remainder,
    each q_i a {monomial: coeff} dict, no remainder term divisible by any
    lead term of the divisors; each term goes to the first divisor whose
    lead divides it.  Works on a flat {(position, monomial): coeff} dict
    with a lazy-deletion heap, so each reduction step costs O(divisor
    size), not a full renormalization.
    """
    module = v.module
    ring = module.ring
    p = ring.p
    by_position = table.by_position
    gterms = table.terms
    work = {}
    heap = []
    for k, poly in enumerate(v.coords):
        for mono, coeff in poly.terms:
            work[(k, mono)] = coeff
            heap.append(_pot_heap_key(k, mono) + ((k, mono),))
    heapq.heapify(heap)
    quotients = [dict() for _ in table.elements]
    remainder = {}
    while heap:
        entry = heapq.heappop(heap)
        key = entry[-1]
        coeff = work.get(key)
        if not coeff:
            continue
        k, mono = key
        hit = None
        for i, gmono in by_position.get(k, ()):
            if mono_divides(gmono, mono):
                hit = i
                break
        if hit is None:
            remainder[key] = coeff
            del work[key]
            continue
        u = mono_div(mono, gmono)
        qd = quotients[hit]
        qd[u] = (qd.get(u, 0) + coeff) % p
        for gk, gmono, gc in gterms[hit]:
            tkey = (gk, mono_mul(gmono, u))
            new = (work.get(tkey, 0) - coeff * gc) % p
            if new:
                if tkey not in work:
                    heapq.heappush(heap, _pot_heap_key(*tkey) + (tkey,))
                work[tkey] = new
            else:
                work.pop(tkey, None)
    rem_coords = [dict() for _ in range(module.rank)]
    for (k, mono), coeff in remainder.items():
        rem_coords[k][mono] = coeff
    rem = ModuleElement(module, tuple(Polynomial.from_dict(ring, d)
                                      for d in rem_coords))
    return quotients, rem


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
    inv = pow(coeff, -1, g.module.ring.p)
    return g.scale(inv)


def _single_position(g):
    return sum(1 for c in g.coords if not c.is_zero()) == 1


def buchberger(gens, module=None) -> GroebnerBasis:
    """Groebner basis of the submodule generated by bihomogeneous gens."""
    gens = [g for g in gens if g]
    if module is None:
        if not gens:
            raise ValueError("no generators and no ambient module given")
        module = gens[0].module
    for g in gens:
        g.bidegree()  # raises NotBihomogeneousError if mixed
    table = _Divisors()
    basis, leads = table.elements, table.leads
    single = []   # single[i]: basis[i] lives in its lead position alone
    active = []   # indices whose lead no later lead divides
    pairs = []    # heap of S-pairs (lcm degree, i, j, ui, uj)
    live = {}     # (i, j) -> (lead position, lcm) of the pairs not deleted

    def append(f):
        f = _make_monic(f)
        h = len(basis)
        hk, hm, _ = f.lead()
        for (i, j), (k, w) in list(live.items()):   # criterion B_k
            if (k == hk and mono_divides(hm, w)
                    and mono_lcm(leads[i][1], hm) != w
                    and mono_lcm(leads[j][1], hm) != w):
                del live[(i, j)]
        h_single = _single_position(f)
        new = []
        for g in active:
            gk, gm, _ = leads[g]
            if gk == hk:
                product = mono_coprime(hm, gm) and h_single and single[g]
                new.append((mono_lcm(hm, gm), g, product))
        kept = []     # criteria M and F, then the product criterion
        for t, (w, g, product) in enumerate(new):
            if product or not any(mono_divides(v, w)
                                  for v, _, _ in new[t + 1:] + kept):
                kept.append((w, g, product))
        for w, g, product in kept:
            if not product:
                live[(h, g)] = (hk, w)
                heapq.heappush(pairs, (sum(w), h, g, mono_div(w, hm),
                                       mono_div(w, leads[g][1])))
        active[:] = [g for g in active if leads[g][0] != hk
                     or not mono_divides(hm, leads[g][1])]
        active.append(h)
        single.append(h_single)
        table.append(f)

    for g in gens:
        append(g)
    while pairs:
        _, i, j, ui, uj = heapq.heappop(pairs)
        if live.pop((i, j), None) is None:
            continue
        spair = basis[i].term_mul(1, ui) - basis[j].term_mul(1, uj)
        nf = normal_form(spair, table)
        if nf:
            append(nf)
    return _reduce_basis(module, basis)


def _reduce_basis(module, basis):
    """Interreduce to the unique reduced (monic) Groebner basis."""
    # drop elements whose lead term is divisible by another's
    kept = []
    leads = [g.lead() for g in basis]
    for i, g in enumerate(basis):
        k, m, _ = leads[i]
        redundant = False
        for j, (k2, m2, _) in enumerate(leads):
            if i == j or not mono_divides(m2, m) or k2 != k:
                continue
            if m2 == m and j > i:
                continue  # identical leads: keep the earlier one
            redundant = True
            break
        if not redundant:
            kept.append(g)
    # The leads of a minimal basis divide no other lead, so tail reduction
    # keeps each monic lead and one pass against the others is final.
    for i in range(len(kept)):
        kept[i] = normal_form(kept[i], kept[:i] + kept[i + 1:])
    kept.sort(key=_element_sort_key, reverse=True)
    return GroebnerBasis(module, tuple(kept))


def _frame_pairs(table, i):
    """The j < i of the Schreyer frame at i: those whose multiplier
    u_ij = lcm(lt g_i, lt g_j) / lt g_i is a minimal generator of the
    monomial ideal (u_ij : j < i, same lead position), the smallest j
    among equal ones.  Returns (j, u_ij, u_ji) in ascending j."""
    k, mi, _ = table.leads[i]
    cands = []
    for j, mj in table.by_position[k]:
        if j >= i:
            break
        w = mono_lcm(mi, mj)
        ui = mono_div(w, mi)
        cands.append((sum(ui), j, ui, mono_div(w, mj)))
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
    remainder raises ValueError.
    """
    elems = G.elements
    if not elems:
        return []
    ring = G.module.ring
    shifts = []
    for g in elems:
        d = g.bidegree()
        if d is None:
            raise ValueError("zero element in Groebner basis")
        shifts.append(d)
    syz_module = FreeModule(ring, tuple(shifts))
    out = []
    for i in range(len(elems)):
        for j, ui, uj in _frame_pairs(G._divisors, i):
            spair = elems[i].term_mul(1, ui) - elems[j].term_mul(1, uj)
            quotients, rem = _divide(spair, G._divisors)
            if not rem.is_zero():
                raise ValueError("S-pair of a Groebner basis did not reduce")
            coords = [-Polynomial.from_dict(ring, q) for q in quotients]
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
