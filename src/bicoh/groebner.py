"""Buchberger's algorithm for submodules of free modules with shifts.

Elements live in F = (+)_k S(-shift_k); the order is position-over-term
(generator 0 largest, ties broken by the polynomial order).  All input is
bihomogeneous, so every S-pair and normal form stays bihomogeneous and the
shift bookkeeping for Schreyer syzygies is automatic.

The work is split in two.  The pair loop, `_minimal_basis`, returns a
minimal Groebner basis as its division table (below), and
`_reduce_basis` interreduces that to the reduced basis; `buchberger` and
`kernel_basis` run both, while a caller that needs only the leads, such
as the Hilbert numerator of a cokernel, runs the loop alone: a minimal
basis has the leads of the reduced one.

Only elements whose leads share a position form S-pairs.  The loop puts
each new element h through the pair update of Gebauer & Moeller (1988,
"On an installation of Buchberger's algorithm"), which runs within that
position:

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

A ModuleElement is its descending list of packed terms, and the layer
runs on such lists alone: generators and S-pairs are term dicts, and
`_divide` returns each remainder as a term list, in the order its heap
pops the terms.  The loop's `_Divisors` table, each divisor's lead and its
tail as one such list, grows as elements enter, and interreduction
divides a copy of every tail by it: it holds the minimal basis, and no
lead divides a monomial smaller than itself, so an element is never
reduced by itself.  Lcms, coprimality and degrees are read off the packed
monomials (see poly), and only `ModuleElement.coords` builds
polynomials.

`syzygies` returns Schreyer's frame: of the same-position pairs (i, j),
j < i, only those whose multiplier u_ij = lcm(lt g_i, lt g_j)/lt g_i
minimally generates (u_ij : j < i), one per equal u_ij.  Their syzygies
are a Groebner basis of the syzygy module under the Schreyer order, so
they generate it, and their S-pairs alone still certify the basis.
`minimal_elements` divides the frame S-pairs of the bidegrees of basis
elements only, and eliminates their constant quotients with the step of
`linalg._echelon`: the elements whose leads are not leads of mU, a minimal
generating set of the span U, are those left without a pivot.
"""

import heapq
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    CoordinateCountError,
    DegreeMismatchError,
    InvariantError,
    NoGeneratorsError,
    NotBihomogeneousError,
    RingMismatchError,
    ZeroElementError,
)
from .linalg import _insert
from .poly import (
    _FIELD_MASK,
    FIELD_BITS,
    GUARDS,
    Bidegree,
    Polynomial,
    mono_bidegree,
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
        return [(k, mono) for k, s in enumerate(self.shifts)
                for mono in monomial_basis(self.ring, d - s)]


class ModuleElement:
    """Element of a FreeModule, held as its terms: a tuple of (position <<
    width | monomial, coefficient) pairs in descending order (see
    _divide).  Built from one polynomial per generator, each over the
    module's ring, or by `_of` from the terms; `coords` decodes them."""

    __slots__ = ("module", "terms", "_hash")

    def __init__(self, module, coords):
        if len(coords) != module.rank:
            raise CoordinateCountError("coordinate count != rank")
        if any(poly.ring != module.ring for poly in coords):
            raise RingMismatchError("coordinate over another ring")
        width = module.ring.width
        self.module = module
        self.terms = tuple((k << width | mono, coeff)
                           for k, poly in enumerate(coords)
                           for mono, coeff in poly.terms)
        self._hash = None

    @classmethod
    def _of(cls, module, terms):
        """The element of `module` with the descending term list `terms`."""
        v = cls.__new__(cls)
        v.module, v.terms, v._hash = module, tuple(terms), None
        return v

    @property
    def coords(self):
        """One polynomial per generator."""
        module = self.module
        width = module.ring.width
        coords = [[] for _ in module.shifts]
        for key, coeff in self.terms:
            coords[key >> width].append((key & (1 << width) - 1, coeff))
        return tuple(Polynomial(module.ring, tuple(t)) for t in coords)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def lead(self):
        """Largest term (position k, monomial, coefficient) under POT: the
        first term."""
        if not self.terms:
            raise ZeroElementError("zero element has no lead term")
        key, coeff = self.terms[0]
        k, mono = divmod(key, 1 << self.module.ring.width)
        return k, mono, coeff

    def bidegree(self):
        """Common bidegree d: coordinate k is bihomogeneous of d - shift_k;
        None for the zero element."""
        return _bidegree(self.module, self.terms)

    def __eq__(self, other):
        if not isinstance(other, ModuleElement):
            return NotImplemented
        return self.module == other.module and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.module, self.terms))
        return self._hash

    def __str__(self):
        parts = [f"({poly})*e{k}" for k, poly in enumerate(self.coords)
                 if not poly.is_zero()]
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def _bidegree(module, terms):
    """The common bidegree of the term list `terms` of an element of
    `module`, None when it is empty.  Compares the (total, x) degrees of
    the terms, read off each key: the top field of its monomial, and the
    sum of its x-fields, plus the shift of its position."""
    ring, shifts = module.ring, module.shifts
    width, xmask = ring.width, ring._xmask
    top = width - FIELD_BITS
    deg = None
    for key, _ in terms:
        a, b = shifts[key >> width]
        d = ((key >> top & _FIELD_MASK) + a + b,
             (key & xmask) % _FIELD_MASK + a)
        if deg is None:
            deg = d
        elif deg != d:
            raise NotBihomogeneousError(
                f"terms of (total, x) degrees {deg} and {d}")
    return deg and Bidegree(deg[1], deg[0] - deg[1])


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
        return _Divisors(self.module, self.elements)


# Division works on terms keyed by one int, position << width | monomial
# (width: the bits of a packed monomial of the ring), in a {key: coeff}
# dict.  Keys order by position, then monomial, and adding a monomial u
# multiplies the term by x^u.  POT descends by ascending position and
# descending monomial, so the min-heap holds key ^ (2^width - 1), which
# flips the monomial bits only.  A term list holds (key, coeff) pairs in
# descending order, as ModuleElement.terms does.


class _Divisors:
    """Division table of the monic multiples of nonzero elements of
    `module`, extended in place by their descending term lists: each
    element's lead (position, monomial, 1) and its tail, a term list, and
    per lead position the (index, lead key) of the elements leading
    there, in ascending index."""

    __slots__ = ("module", "leads", "tails", "by_position")

    def __init__(self, module, elements=()):
        self.module = module
        self.leads, self.tails, self.by_position = [], [], {}
        for g in elements:
            self.append(g.terms)

    def append(self, terms):
        ring = self.module.ring
        key, coeff = terms[0]
        if coeff != 1:
            inv = pow(coeff, -1, ring.p)
            terms = [(t, c * inv % ring.p) for t, c in terms]
        k, mono = divmod(key, 1 << ring.width)
        self.by_position.setdefault(k, []).append((len(self.leads), key))
        self.leads.append((k, mono, 1))
        self.tails.append(terms[1:])


def _divide(module, work, table, with_quotients=False):
    """Full division of the term dict `work` of an element of `module` by
    the elements of a `_Divisors` table; `work` is consumed.

    Returns (quotients, remainder): the element v whose terms `work` holds
    is sum q_i * g_i + remainder over the table's elements g_i, no
    remainder term divisible by any lead term of the divisors; each term
    goes to the first divisor whose lead divides it.  The remainder is a
    term list, empty when v reduces to zero, and the quotients, one
    descending (monomial, coeff) list per divisor, are kept only on
    request, else None.  A lazy-deletion
    heap over the dict's keys (Monagan & Pearce, CASC 2007) makes each
    reduction step one pass over a divisor's tail, not a renormalization.
    Terms pop in strictly descending order, and each divisor's multipliers
    with them, so remainder and quotients need no sort.
    """
    ring = module.ring
    p, width = ring.p, ring.width
    flip = (1 << width) - 1
    by_position = table.by_position
    tails = table.tails
    heap = [key ^ flip for key in work]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    quotients = [[] for _ in tails] if with_quotients else None
    remainder = []
    while heap:
        key = pop(heap) ^ flip
        coeff = work.pop(key, 0)
        if not coeff:
            continue
        for i, lead in by_position.get(key >> width, ()):
            if not (key - lead) & GUARDS:
                break
        else:
            remainder.append((key, coeff))
            continue
        u = key - lead
        if quotients is not None:
            quotients[i].append((u, coeff))
        for t, gc in tails[i]:
            t += u
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
    return quotients, remainder


def _spair(table, i, j, ui, uj):
    """The term dict of the S-pair ui*g_i - uj*g_j of two monic table
    elements, whose leads cancel: their shifted tails merged, unsorted,
    since `_divide` orders the terms by its heap."""
    p = table.module.ring.p
    work = {t + ui: c for t, c in table.tails[i]}
    for t, c in table.tails[j]:
        t += uj
        new = (work.get(t, 0) - c) % p
        if new:
            work[t] = new
        else:
            del work[t]
    return work


def normal_form(v: ModuleElement, G) -> ModuleElement:
    """Remainder of v on division by G (a GroebnerBasis or a sequence of
    nonzero elements of v's module); no term divisible by a lead of G.
    Dividing by the monic multiples of G leaves the same remainder."""
    basis = isinstance(G, GroebnerBasis)
    for g in G.elements if basis else G:
        if g.module != v.module:
            raise RingMismatchError("element and divisor in different modules")
        if not g:
            raise ZeroElementError("division by the zero element")
    table = G._divisors if basis else _Divisors(v.module, G)
    return ModuleElement._of(v.module,
                             _divide(v.module, dict(v.terms), table)[1])


def buchberger(gens, module=None) -> GroebnerBasis:
    """Groebner basis of the submodule generated by bihomogeneous gens,
    elements of `module` when it is given."""
    gens = [g for g in gens if g]
    if module is None:
        if not gens:
            raise NoGeneratorsError(
                "no generators and no ambient module given")
        module = gens[0].module
    for g in gens:
        if g.module != module:
            raise RingMismatchError("generator of another free module")
        g.bidegree()    # raises NotBihomogeneousError on mixed input
    table = _minimal_basis(module, [dict(g.terms) for g in gens])
    return GroebnerBasis(module, tuple(
        ModuleElement._of(module, terms)
        for terms in _reduce_basis(module, table)))


def _minimal_basis(module, gens):
    """The pair loop: a minimal Groebner basis of the submodule of `module`
    generated by the consumed nonzero term dicts `gens`, bihomogeneous and
    descending (see ModuleElement.terms), as the `_Divisors` table of its
    monic elements in the order they entered.  Its leads are those of the
    reduced basis, which `_reduce_basis` makes of it."""
    ring = module.ring
    width = ring.width
    flip = (1 << width) - 1
    shifts = [s.total for s in module.shifts]
    table = _Divisors(module)
    leads, by_position = table.leads, table.by_position
    single = []   # single[i]: element i lives in its lead position alone
    live = {}     # (i, j) -> (lead position, lcm) of the pairs not deleted
    # (degree, -1, t) for gens[t], (degree, i, j, ui, uj) for an S-pair;
    # a generator's degree is that of its lead, its first key
    queue = [(mono_degree(ring, key & flip) + shifts[key >> width], -1, t)
             for t, key in enumerate(next(iter(f)) for f in gens)]
    heapq.heapify(queue)

    def append(terms):
        key = terms[0][0]
        h = len(leads)
        hk, hm = key >> width, key & flip
        if h and (mono_degree(ring, hm) + shifts[hk]
                  < mono_degree(ring, leads[-1][1]) + shifts[leads[-1][0]]):
            raise InvariantError("Groebner basis element of lower degree "
                                 "than its predecessor")
        for (i, j), (k, w) in list(live.items()):   # criterion B_k
            if (k == hk and mono_divides(hm, w)
                    and mono_lcm(ring, leads[i][1], hm) != w
                    and mono_lcm(ring, leads[j][1], hm) != w):
                del live[(i, j)]
        h_single = terms[-1][0] >> width == hk
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
        table.append(terms)

    while queue:
        _, i, j, *u = heapq.heappop(queue)
        if i < 0:     # gens[j], divided only when a basis lead divides
            key = next(iter(gens[j]))
            f = (_divide(module, gens[j], table)[1]
                 if any(not (key - lead) & GUARDS
                        for _, lead in by_position.get(key >> width, ()))
                 else list(gens[j].items()))
        elif live.pop((i, j), None) is not None:
            f = _divide(module, _spair(table, i, j, *u), table)[1]
        else:
            continue
        if f:
            append(f)
    return table


def _reduce_basis(module, table):
    """Interreduce the minimal Groebner basis of a `_Divisors` table (no
    lead divides another) to the unique reduced (monic) one in one pass of
    tail reduction, as descending term lists in descending order of their
    leads.  A lead divides no smaller monomial and every tail term lies
    below its own lead, so each tail divides by the table of the whole
    basis."""
    width = module.ring.width
    return sorted(([(k << width | mono, coeff)]
                   + _divide(module, dict(tail), table)[1]
                   for (k, mono, coeff), tail in zip(table.leads,
                                                     table.tails)),
                  key=lambda terms: (terms[0][0] >> width, -terms[0][0]))


def _frame_pairs(table, i):
    """The j < i of the Schreyer frame at i: those whose multiplier
    u_ij = lcm(lt g_i, lt g_j) / lt g_i is a minimal generator of the
    monomial ideal (u_ij : j < i, same lead position), the smallest j
    among equal ones.  Returns (j, u_ij, u_ji) in ascending j."""
    k, mi, _ = table.leads[i]
    ring = table.module.ring
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

    Every term of the S-pair, so every quotient term q*lt g_k, lies below
    u_ij*lt g_i = u_ji*lt g_j, so u_ij and -u_ji lead their positions of
    S_ij, above the negated quotients.
    """
    ring = G.module.ring
    p, width = ring.p, ring.width
    syz_module = FreeModule(ring, G.shifts)
    out = []
    for i in range(len(G.elements)):
        for j, ui, uj in _frame_pairs(G._divisors, i):
            quotients, rem = _divide(G.module,
                                     _spair(G._divisors, i, j, ui, uj),
                                     G._divisors, True)
            if rem:
                raise InvariantError(
                    "S-pair of a Groebner basis did not reduce")
            terms = []
            for k, q in enumerate(quotients):
                pos = k << width
                if k == i:
                    terms.append((pos | ui, 1))
                elif k == j:
                    terms.append((pos | uj, p - 1))
                terms += [(pos | mono, p - c) for mono, c in q]
            out.append(ModuleElement._of(syz_module, terms))
    return out


def minimal_elements(G: GroebnerBasis):
    """The indices, ascending, of the elements of G whose leads are not
    leads of mU, U the span of G and m the ideal of the variables.  Their
    images are a basis of U/mU, so they generate U minimally when U lies
    in mF; the choice depends on U and the term order alone.

    In bidegree d the lead of mU_d that is also a lead of G is the top of
    some sum c_k g_k in mU over the g_k of bidegree d, c_k constants, and
    those vectors c are the constant parts of the syzygies of G in
    bidegree d.  The frame syzygies (see syzygies) generate all of them,
    so the constant quotients of the frame S-pairs of bidegree d span the
    vectors: only those S-pairs are divided, and only where some element
    has their bidegree.  Elimination on each bidegree's vectors
    (linalg._insert), pivoting on the element of largest lead, leaves the
    dropped elements as its pivots."""
    elems = G.elements
    table = G._divisors
    ring = G.module.ring
    degrees = G.shifts
    of_degree = {}
    for k, d in enumerate(degrees):
        of_degree.setdefault(d, []).append(k)
    pivots = {d: {} for d in of_degree}    # d -> {pivot: monic rest}
    # not the constant parts of syzygies(G): that divides every frame
    # S-pair and builds each syzygy, and made the in-process gb_large
    # workload 0.0128 -> 0.0177 s and euler 0.112 -> 0.121 s (process
    # time, seed 5, medians of 5 runs, 2-vCPU host, Python 3.11.7)
    for i in range(len(elems)):
        for j, ui, uj in _frame_pairs(table, i):
            d = degrees[i] + mono_bidegree(ring, ui)
            ks = of_degree.get(d)
            if ks is None or len(pivots[d]) == len(ks):
                continue
            quotients, _ = _divide(G.module, _spair(table, i, j, ui, uj),
                                   table, True)
            _insert(pivots[d], {k: quotients[k][0][1] for k in ks
                                if quotients[k]}, ring.p)
    dropped = {k for rows in pivots.values() for k in rows}
    return [k for k in range(len(elems)) if k not in dropped]


# ---------------------------------------------------------------------------
# kernels via the graph construction
#
# For a map phi: F_src -> F_tgt with columns c_l, run Buchberger on the
# elements (c_l, e_l) of F_tgt (+) F_src.  Positions of F_tgt dominate, so
# the basis elements with vanishing F_tgt block are a Groebner basis of
# ker phi, already reduced, monic and sorted under the order of F_src.


def kernel_basis(columns, src: FreeModule) -> GroebnerBasis:
    """Reduced Groebner basis of the kernel of the map F_src -> F_tgt whose
    l-th column is columns[l], of bidegree src.shifts[l].  The graph
    generators reach the Buchberger loop as term dicts, and only the basis
    elements that lead past F_tgt are built, shifted down to F_src.  The
    input is checked: one column per shift (else CoordinateCountError), in
    one free module over src's ring (RingMismatchError), each nonzero one
    of the bidegree of its shift (DegreeMismatchError)."""
    if len(columns) != src.rank:
        raise CoordinateCountError(
            f"{len(columns)} columns for {src.rank} generators")
    if not columns:
        return GroebnerBasis(src, ())
    tgt = columns[0].module
    if tgt.ring != src.ring or any(col.module != tgt for col in columns):
        raise RingMismatchError("columns of different free modules")
    for col, shift in zip(columns, src.shifts):
        if col and col.bidegree() != shift:
            raise DegreeMismatchError(
                f"column of bidegree {col.bidegree()} for the shift {shift}")
    width, rt = src.ring.width, tgt.rank
    big = FreeModule(src.ring, tgt.shifts + src.shifts)
    graph = [dict(col.terms) | {(rt + l) << width: 1}
             for l, col in enumerate(columns)]
    low = rt << width
    return GroebnerBasis(src, tuple(
        ModuleElement._of(src, [(key - low, coeff) for key, coeff in terms])
        for terms in _reduce_basis(big, _minimal_basis(big, graph))
        if terms[0][0] >= low))
