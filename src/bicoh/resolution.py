"""Presentations, initial modules, minimal bigraded free resolutions, and
derived invariants.

A module M is carried as the cokernel of its relation columns, packed
elements of the free module on its generators (Presentation).  Its graded
dimensions, Krull dimension and standard monomials come from one object
per presentation, initial_module(P): the relations lose their units there
(_prune, and nowhere else), and InitialModule(target, relations) runs the
one Groebner basis of what is left.  F/U and F/in(U) share their
Hilbert function (Macaulay), so the lead terms of that basis decide all
three; the Krull dimension is the pole order at t = 1 of the Hilbert
series (Hilbert-Serre).  Every table of graded dimensions, Ext and
local-cohomology tables included, reads it.
resolve(P), which takes no options, is the minimal free resolution: it
starts from the basis of initial_module(P), then takes one kernel
Groebner basis per level (the graph construction of groebner.kernel_basis),
each level the minimal generators that groebner.minimal_elements reads off
the leads of its basis.  From it we read off graded Betti numbers (the
shifts of each level), projective dimension and depth
(Auslander-Buchsbaum), and the graded dimensions and Krull dimension of
every Ext^j(M, omega), from the Hilbert numerators of the cokernels of the
dual maps: FreeResolution.dual(j) regroups the terms of the columns of
maps[j] by position for InitialModule, as a minimal resolution has no unit.
ext_presentation builds the Ext module itself where a caller needs more
than its dimensions, as a subquotient that keeps its units.
minimal_presentation takes the first map F_1 -> F_0 of resolve(P) as its
columns.  hilbert_dim, which ranks the degree-restricted relation columns,
is kept as an independent referee of the initial-module dimensions.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb

from .errors import (
    DegreeMismatchError,
    InvariantError,
    NotBihomogeneousError,
    RingMismatchError,
    ZeroModuleError,
)
from .groebner import (
    FreeModule,
    GroebnerBasis,
    ModuleElement,
    _divide,
    buchberger,
    kernel_basis,
    minimal_elements,
    syzygies,
)
from .linalg import Matrix, rank_of_array
from .poly import (
    Bidegree,
    mono_bidegree,
    mono_div,
    mono_divides,
    mono_lcm,
    piece_dim,
)
from .tables import DimTable, Window

_RESOLUTION_LENGTH_SLACK = 8


@dataclass(frozen=True)
class Presentation:
    """M = coker((+) S(-rels[l]) -> (+) S(-gens[k])), the map held as its
    relation columns: columns[l] is an element of FreeModule(ring, gens),
    zero or of bidegree rels[l]."""

    ring: object
    gens: tuple
    rels: tuple
    columns: tuple

    def __post_init__(self):
        target = self.target
        object.__setattr__(self, "gens", target.shifts)
        object.__setattr__(self, "rels", self.source.shifts)
        object.__setattr__(self, "columns", tuple(self.columns))
        if len(self.columns) != len(self.rels):
            raise DegreeMismatchError(
                f"{len(self.columns)} columns for {len(self.rels)} "
                "relations")
        for l, (col, shift) in enumerate(zip(self.columns, self.rels)):
            if col.module != target:
                raise RingMismatchError(f"column {l} of another module")
            try:
                got = col.bidegree()
            except NotBihomogeneousError as exc:
                raise DegreeMismatchError(f"column {l}: {exc}") from exc
            if got not in (None, shift):
                raise DegreeMismatchError(f"column {l} has bidegree {got}, "
                                          f"its shift is {shift}")

    @property
    def matrix(self):
        """The map as rows of polynomials, matrix[k][l] the coordinate k
        of columns[l]: a read-only view, which nothing in bicoh reads."""
        coords = [col.coords for col in self.columns]
        return tuple(tuple(c[k] for c in coords)
                     for k in range(len(self.gens)))

    @property
    def target(self):
        return FreeModule(self.ring, self.gens)

    @property
    def source(self):
        return FreeModule(self.ring, self.rels)

    def __str__(self):
        return (f"presentation over {self.ring}: {len(self.gens)} gens "
                f"{list(map(str, self.gens))}, {len(self.rels)} rels")


def free_presentation(ring, shifts) -> Presentation:
    return Presentation(ring, tuple(shifts), (), ())


def zero_presentation(ring) -> Presentation:
    return Presentation(ring, (), (), ())


def quotient_by_polys(ring, polys) -> Presentation:
    """S / (f_1, ..., f_r) for bihomogeneous f_i."""
    polys = [f for f in polys if not f.is_zero()]
    target = FreeModule(ring, ((0, 0),))
    return Presentation(ring, target.shifts, [f.bidegree() for f in polys],
                        [ModuleElement(target, (f,)) for f in polys])


# ---------------------------------------------------------------------------
# degree restriction


def restrict_matrix(tgt: FreeModule, src: FreeModule, columns, d):
    """The linalg.Matrix of the degree-d piece of the map F_src -> F_tgt
    with the columns `columns`, elements of tgt, over the ordered monomial
    bases: x^u e_l goes to x^u columns[l], a term of key t to row t + u."""
    d = Bidegree(*d)
    width = tgt.ring.width
    index = {k << width | mono: i for i, (k, mono) in
             enumerate(tgt.basis_at(d))}
    src_basis = src.basis_at(d)
    # distinct terms of one column land on distinct rows
    cols = [{index[key + u]: coeff for key, coeff in columns[l].terms}
            for l, u in src_basis]
    return Matrix((len(index), len(src_basis)), cols)


@lru_cache(maxsize=None)
def hilbert_dim(P: Presentation, d) -> int:
    """Exact dim_K M_d: dim of the free piece minus the rank of the
    degree-restricted relation matrix.  No Groebner basis, no resolution:
    the referee of InitialModule.dim_at, which the tables read."""
    d = Bidegree(*d)
    free_dim = P.target.dim_at(d)
    if free_dim == 0:
        return 0
    if not P.rels:
        return free_dim
    arr = restrict_matrix(P.target, P.source, P.columns, d)
    return free_dim - rank_of_array(arr, P.ring.p)


def hilbert_table(P: Presentation, window: Window) -> DimTable:
    module = initial_module(P)
    cells = {tuple(d): module.dim_at(d) for d in window.cells()}
    return DimTable(window=window, cells=cells, p=P.ring.p)


# ---------------------------------------------------------------------------
# initial modules


def _numerator(ring, monos):
    """Hilbert-series numerator {bidegree: coefficient} of S/J for the
    monomial ideal J = (monos).  Adding the minimal generators one at a
    time, N(J + (m)) = N(J) - t^deg(m) N(J : m) (Bigatti 1997), where J : m
    is generated by the lcm(g, m) / m.  Ascending int order puts every
    divisor of m before m."""
    gens, out = [], {Bidegree(0, 0): 1}
    for m in sorted(set(monos)):
        if any(mono_divides(g, m) for g in gens):
            continue
        deg = mono_bidegree(ring, m)
        colon = [mono_div(mono_lcm(ring, g, m), m) for g in gens]
        for s, c in _numerator(ring, colon).items():
            out[s + deg] = out.get(s + deg, 0) - c
        gens.append(m)
    return out


def _pole_order(numerator, length):
    """The order of the pole at t = 1 of N(t) / (1 - t)^length, N the
    Laurent polynomial {exponent: coefficient}: length minus the
    multiplicity of t = 1 as a root of N, and -1 when N = 0.  For the
    Hilbert series of a module this is its Krull dimension (Hilbert-Serre;
    Bruns & Herzog, Cohen-Macaulay Rings, ch. 4).  The multiplicity is the
    least k with sum c * binomial(e - e_min, k) != 0, the k-th Taylor
    coefficient at t = 1 of t^(-e_min) N(t)."""
    terms = [(e, c) for e, c in numerator.items() if c]
    if not terms:
        return -1
    low = min(e for e, _ in terms)
    order = 0
    while not sum(c * comb(e - low, order) for e, c in terms):
        order += 1
    return length - order


def _dim_at(ring, numerator, d):
    """sum c * dim S_(d - s) over the numerator {s: c} of a Hilbert series:
    dim_K M_d for the module with that numerator."""
    d = Bidegree(*d)
    return sum(c * piece_dim(ring, d - s) for s, c in numerator.items())


def _krull_dim(ring, numerator):
    """The pole order at t = 1 of the Hilbert series in total degree,
    sum c * t^(s_x + s_y) / (1 - t)^(m + n) over the numerator {s: c}: the
    Krull dimension of the module, -1 for the zero module."""
    total = {}
    for s, c in numerator.items():
        total[s.total] = total.get(s.total, 0) + c
    return _pole_order(total, ring.nvars)


def _descending(terms, width):
    """The (key, coeff) pairs `terms` as a descending term list (see
    ModuleElement.terms): ascending once the monomial bits are flipped."""
    flip = (1 << width) - 1
    return sorted(terms, key=lambda term: term[0] ^ flip)


def _prune(columns, module):
    """Unit elimination on the relation columns `columns`, bihomogeneous
    nonzero elements of `module`, as term dicts.

    While some column l has a nonzero constant c at generator k, every
    other column s with a coordinate s_k != 0 becomes s - (s_k/c) * column
    l, and column l and generator k are dropped: the split summand S(-d)
    --c--> S(-d) leaves the complex.  The pivot is the unit of least
    Markowitz cost (Markowitz 1957), (nonzeros in row k - 1) * (nonzeros
    in column l - 1), the most entries the step can fill in; ties go to
    the first by generator, then by column.  The column operations are the
    Schur complement, computed only where s_k and column l are nonzero;
    they change the next map only in the row of column l, and the row
    operations that clear column l change the previous map only in the
    column of generator k, both dropped with the summand.  Returns (rows,
    {l: terms}): the surviving generators, ascending, and the descending
    term lists of the surviving columns l on them, rows[i] renumbered i.
    initial_module is its one caller, so a presentation loses its units
    there and nowhere else."""
    width, p = module.ring.width, module.ring.p
    live = {l: dict(col.terms) for l, col in enumerate(columns)}
    rows = list(range(module.rank))
    while True:
        in_row = dict.fromkeys(rows, 0)
        # (k, l, nonzeros in column l) of the constant entries: a
        # bihomogeneous coordinate with a term of monomial 0 is that term
        units = []
        for l, col in live.items():
            support = {key >> width for key in col}
            for k in support:
                in_row[k] += 1
            units += [(k, l, len(support)) for k in support
                      if k << width in col]
        if not units:
            break
        _, k, l = min(((in_row[k] - 1) * (n - 1), k, l) for k, l, n in units)
        pivot = live.pop(l)
        rows.remove(k)
        low = k << width
        cinv = pow(pivot.pop(low), -1, p)
        for col in live.values():
            lam = [(key - low, coeff * cinv % p) for key, coeff in col.items()
                   if key >> width == k]
            for u, c in lam:
                del col[u + low]
                for key, coeff in pivot.items():
                    t = key + u
                    new = (col.get(t, 0) - c * coeff) % p
                    if new:
                        col[t] = new
                    else:
                        del col[t]
    moves = {k: (i - k) << width for i, k in enumerate(rows)}
    return rows, {l: _descending([(key + moves[key >> width], coeff)
                                  for key, coeff in col.items()], width)
                  for l, col in live.items()}


class InitialModule:
    """F/in(U) for F = target and U the span of the relations, elements of
    F: the reduced Groebner basis of the relations and its lead terms.
    F/U and F/in(U) share their Hilbert function (Macaulay), and the
    monomials of F that no lead term divides, the standard monomials, are
    a K-basis of each piece of F/U.  Bases are filled in on first use, and
    the normal form of a monomial outside them once, when it is first
    asked for."""

    def __init__(self, target: FreeModule, relations):
        self.ring = target.ring
        self.target = target
        self.gb = buchberger(relations, module=target)
        self.leads = self.gb.lead_terms()
        self._bases = {}    # d -> {(generator, monomial): position}
        self._nfs = {}      # (generator, monomial) -> {position: coeff}

    @cached_property
    def numerator(self):
        """{s: c} with dim M_d = sum c * dim S_(d - s): F/in(U) is the sum
        over positions k of S(-shift_k)/J_k, J_k the monomial ideal of the
        lead terms in position k."""
        out = {}
        for k, shift in enumerate(self.target.shifts):
            ideal = [mono for kk, mono, _ in self.leads if kk == k]
            for s, c in _numerator(self.ring, ideal).items():
                out[shift + s] = out.get(shift + s, 0) + c
        return {s: c for s, c in out.items() if c}

    def dim_at(self, d) -> int:
        """dim_K M_d, from the numerator: no basis is enumerated."""
        return _dim_at(self.ring, self.numerator, d)

    def krull_dim(self) -> int:
        """The Krull dimension, -1 for the zero module."""
        return _krull_dim(self.ring, self.numerator)

    def basis(self, d):
        """The standard monomials of M_d in their order, as the index
        {(generator, monomial): position}."""
        basis = self._bases.get(d)
        if basis is None:
            standard = (key for key in self.target.basis_at(d)
                        if not any(gk == key[0] and mono_divides(gm, key[1])
                                   for gk, gm, _ in self.leads))
            basis = self._bases[d] = {key: i
                                      for i, key in enumerate(standard)}
        return basis

    def nf(self, k, mono):
        """The normal form of the monomial mono * e_k outside the standard
        monomials, as {position in its piece's basis: coefficient}:
        computed once, then read off the table."""
        out = self._nfs.get((k, mono))
        if out is None:
            ring, target = self.ring, self.target
            rem = _divide(target, {k << ring.width | mono: 1},
                          self.gb._divisors)[1]
            index = self.basis(target.shifts[k] + mono_bidegree(ring, mono))
            out = self._nfs[(k, mono)] = {
                index[divmod(key, 1 << ring.width)]: coeff
                for key, coeff in rem}
        return out


@lru_cache(maxsize=None)
def initial_module(P: Presentation) -> InitialModule:
    """The initial module of coker(P), built once per presentation.  Its
    nonzero columns lose their units first (_prune), an isomorphism, so
    the target is the surviving generators and the relations left lie in
    m*F."""
    rows, pruned = _prune([col for col in P.columns if col], P.target)
    target = FreeModule(P.ring, tuple(P.gens[k] for k in rows))
    return InitialModule(target, [ModuleElement._of(target, terms)
                                  for terms in pruned.values()])


# ---------------------------------------------------------------------------
# free resolutions


@dataclass(frozen=True)
class FreeResolution:
    """F_0 <- F_1 <- ... <- F_len with maps[i] : modules[i+1] -> modules[i],
    held as its columns, elements of modules[i]; coker(maps[0]) is the
    resolved module.

    Ext^j(M, omega) is the cohomology at G^j of the dual complex G^j =
    Hom(F_j, omega) = (+) S(s - c) over the shifts s of F_j, c the
    canonical twist (m, n), with delta_j : G^j -> G^(j+1) the transpose
    of maps[j].  From 0 -> ker -> G^j -> G^(j+1) -> coker(delta_j) -> 0,
    dim Ext^j_d = dim coker(delta_j)_d + dim coker(delta_(j-1))_d
    - dim G^(j+1)_d, with coker(delta_(-1)) = G^0 and coker(delta_len) = 0.
    The Hilbert numerator of each coker(delta_j) comes from one initial
    module on the columns of delta_j: a minimal resolution has no unit
    entry, so nothing is pruned.  It is built on first use and kept
    here."""

    ring: object
    modules: tuple
    maps: tuple
    _cokernels: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    @property
    def length(self):
        return len(self.modules) - 1

    def shifts(self, i):
        return self.modules[i].shifts if 0 <= i <= self.length else ()

    def alternating_dim(self, d):
        return sum((-1) ** i * mod.dim_at(d)
                   for i, mod in enumerate(self.modules))

    def dual(self, j):
        """delta_j : G^j -> G^(j+1) as (G^(j+1), its columns), the target
        and relations of coker(delta_j): G^(j+1) has the degrees c - s
        over the shifts s of F_(j+1), and column k, of degree c - s_k over
        the shifts of F_j, is row k of maps[j]: the terms in position k of
        the columns l of maps[j], moved to position l, which in ascending l
        come out descending.  The zero map outside 0..len-1, so
        coker(delta_(-1)) = G^0 and coker(delta_len) = 0."""
        c = self.ring.canonical_degree
        target = FreeModule(self.ring,
                            tuple(c - s for s in self.shifts(j + 1)))
        width, rows = self.ring.width, [[] for _ in self.shifts(j)]
        for l, col in enumerate(self.maps[j] if 0 <= j < self.length else ()):
            for key, coeff in col.terms:
                k = key >> width
                rows[k].append((key + (l - k << width), coeff))
        return target, [ModuleElement._of(target, row) for row in rows]

    def _dual_cokernel(self, j):
        """The Hilbert numerator of coker(delta_j)."""
        out = self._cokernels.get(j)
        if out is None:
            out = self._cokernels[j] = InitialModule(*self.dual(j)).numerator
        return out

    def _ext_numerator(self, j):
        """The Hilbert numerator of Ext^j(M, omega), zero outside 0..len."""
        out = {}
        for numerator in (self._dual_cokernel(j), self._dual_cokernel(j - 1)):
            for s, c in numerator.items():
                out[s] = out.get(s, 0) + c
        twist = self.ring.canonical_degree
        for s in self.shifts(j + 1):
            out[twist - s] = out.get(twist - s, 0) - 1
        return {s: c for s, c in out.items() if c}

    def ext_dims(self, j, degrees) -> list:
        """dim_K Ext^j(M, omega)_d for each d in degrees."""
        numerator = self._ext_numerator(j)
        return [_dim_at(self.ring, numerator, d) for d in degrees]

    def ext_krull_dim(self, j) -> int:
        """The Krull dimension of Ext^j(M, omega), -1 when it is zero."""
        return _krull_dim(self.ring, self._ext_numerator(j))


@lru_cache(maxsize=None)
def resolve(P: Presentation) -> FreeResolution:
    """The minimal free resolution of coker(P), one kernel Groebner basis
    per level.

    It starts from initial_module(P): F_0 is its target, the generators
    that survive the pruning of units, and the relations left lie in
    m*F_0.  Each level keeps, of the reduced Groebner basis of its span,
    the elements whose leads are not leads of m times the span
    (groebner.minimal_elements): minimal generators, in the basis's order.
    At the first level that basis is the initial module's; every later one
    is the reduced Groebner basis of the syzygies of the previous level's
    columns, by the graph construction (groebner.kernel_basis).  Syzygies
    of minimal generators lie in m*F again, so no level meets a unit, and
    each level lists its shifts in the order of the leads of a reduced
    Groebner basis."""
    ring = P.ring
    module = initial_module(P)
    basis = module.gb
    shifts = [module.target.shifts]
    maps = []       # the columns of each map
    while True:
        keep = minimal_elements(basis)
        if not keep:
            break
        if len(maps) >= ring.nvars + _RESOLUTION_LENGTH_SLACK:
            raise InvariantError("resolution did not terminate; "
                                 "syzygy chain exceeded the variable bound")
        maps.append(tuple(basis.elements[l] for l in keep))
        shifts.append(tuple(basis.shifts[l] for l in keep))
        basis = kernel_basis(maps[-1], FreeModule(ring, shifts[-1]))
    return FreeResolution(ring, tuple(FreeModule(ring, s) for s in shifts),
                          tuple(maps))


def minimal_presentation(P: Presentation) -> Presentation:
    """The minimal presentation F_1 -> F_0 of coker(P), read off resolve(P):
    no unit entry and no redundant relation.  Nonzero iff the result has a
    generator."""
    res = resolve(P)
    return Presentation(P.ring, res.shifts(0), res.shifts(1),
                        res.maps[0] if res.maps else ())


# ---------------------------------------------------------------------------
# numerical invariants


@dataclass(frozen=True)
class ModuleProfile:
    dim: int
    depth: int
    pd: int
    is_cm: bool
    is_gencm: bool

    def __str__(self):
        flags = []
        if self.is_cm:
            flags.append("CM")
        elif self.is_gencm:
            flags.append("generalized CM")
        extra = f" [{', '.join(flags)}]" if flags else ""
        return f"dim {self.dim}, depth {self.depth}, pd {self.pd}{extra}"


def profile(P: Presentation) -> ModuleProfile:
    """dim, depth (via Auslander-Buchsbaum), pd, CM and generalized-CM
    flags.  Rejects the zero module."""
    dim = initial_module(P).krull_dim()
    if dim < 0:
        raise ZeroModuleError("the zero module has no profile")
    nvars = P.ring.nvars
    res = resolve(P)
    depth = nvars - res.length
    if depth > dim:
        raise InvariantError(f"depth {depth} exceeds dim {dim}; "
                             "inconsistent invariants")
    is_cm = depth == dim
    is_gencm = all(res.ext_krull_dim(nvars - i) <= 0
                   for i in range(depth, dim))
    return ModuleProfile(dim=dim, depth=depth, pd=res.length, is_cm=is_cm,
                         is_gencm=is_gencm)


# ---------------------------------------------------------------------------
# Ext against the canonical module, subquotient presentations
#
# Hom_S(S(-s), S(-c)) = S(s - c) for the canonical twist c = (m, n):
# dualizing a resolution transposes each matrix and replaces each generator
# degree s by c - s (FreeResolution.dual).  Ext^j is then ker(B)/im(A) at
# the dual G^j of F_j, A the columns of delta_(j-1) and B those of
# delta_j.  The kernel comes as one reduced Groebner basis G, from
# groebner.kernel_basis at every j (at j = pd no map leaves, and G is the
# unit basis), and the subquotient is presented on the elements of G: by
# Schreyer's theorem the syzygies of the Schreyer frame of G (see
# groebner.syzygies) generate all relations among them, and the division
# quotients of each column of A by G express the image.


def quotient_presentation(sub_elements, span: GroebnerBasis) -> Presentation:
    """Presentation of span / span(sub_elements), the span given by its
    Groebner basis; sub must lie in the span.  Generated by the elements of
    the basis, with the division quotients of the sub elements and the
    Schreyer frame of the basis as relations, as they stand: units are left
    to initial_module."""
    src = FreeModule(span.module.ring, span.shifts)
    width = src.ring.width
    columns = []
    for s in sub_elements:
        if not s:
            continue
        quotients, rem = _divide(s.module, dict(s.terms), span._divisors,
                                 True)
        if rem:
            raise InvariantError(
                "submodule generator outside the ambient span")
        columns.append(ModuleElement._of(src, [
            (k << width | mono, coeff)
            for k, q in enumerate(quotients) for mono, coeff in q]))
    # the relations among the span's elements from its Schreyer frame: one
    # kernel_basis of those elements instead made ext_presentation slower,
    # 0.53-0.70 s against 0.38-0.42 s for five passes over the Ext modules
    # of the euler and ext_window benchmark inputs at seeds 3, 5 and 11
    # (2-vCPU host)
    columns.extend(syzygies(span))
    return Presentation(src.ring, src.shifts,
                        tuple(c.bidegree() for c in columns), columns)


def ext_presentation(P: Presentation, j: int) -> Presentation:
    """Ext^j(M, omega), the Matlis dual of H^(m+n-j) at the maximal ideal,
    which is finitely generated: presented on the kernel basis of delta_j,
    units and redundant relations included.  The zero presentation for j
    outside 0..pd.  Built afresh on each call."""
    res = resolve(P)
    if j < 0 or j > res.length:
        return zero_presentation(P.ring)
    g_j, image = res.dual(j - 1)
    return quotient_presentation(image, kernel_basis(res.dual(j)[1], g_j))
