"""Presentations, initial modules, minimal bigraded free resolutions, and
derived invariants.

A module M is always carried as the cokernel of a shift-decorated matrix
between free modules.  Its graded dimensions, Krull dimension and standard
monomials come from one object per presentation, initial_module(P): its
relations lose their units, and F/U and F/in(U) share their Hilbert
function (Macaulay), so the lead terms of the one Groebner basis of the
relations decide all three; the Krull dimension is the pole order at
t = 1 of the Hilbert series (Hilbert-Serre).  Every table of graded
dimensions, Ext and local-cohomology tables included, reads it.
resolve(P), which takes no options, is the minimal free resolution: it
starts from the basis of initial_module(P), then takes one kernel
Groebner basis per level (the graph construction of groebner.kernel_basis),
each level the minimal generators that groebner.minimal_elements reads off
the leads of its basis.  From it we read off graded Betti numbers,
projective dimension and depth (Auslander-Buchsbaum), and the graded
dimensions and Krull dimension of every Ext^j(M, omega), from the Hilbert
numerators of the cokernels of the dual maps (FreeResolution);
ext_presentation builds the Ext module itself where a caller needs more
than its dimensions.  Units are eliminated by one routine, _prune: the
relations of initial_module and the Ext subquotients.
minimal_presentation reads the first map F_1 -> F_0 off resolve(P).
hilbert_dim, which ranks the degree-restricted relation matrix, is kept as
an independent referee of the initial-module dimensions; no table reads it.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import comb

from .errors import DegreeMismatchError, InvariantError, ZeroModuleError
from .groebner import (
    FreeModule,
    GroebnerBasis,
    ModuleElement,
    _divide,
    buchberger,
    kernel_basis,
    minimal_elements,
    normal_form,
    syzygies,
)
from .linalg import Matrix, rank_of_array
from .poly import (
    Bidegree,
    Polynomial,
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
    """M = coker(matrix : (+) S(-rels[l]) -> (+) S(-gens[k])).

    matrix[k][l] is bihomogeneous of bidegree rels[l] - gens[k] (or zero)."""

    ring: object
    gens: tuple
    rels: tuple
    matrix: tuple

    def __post_init__(self):
        object.__setattr__(self, "gens",
                           tuple(Bidegree(*g) for g in self.gens))
        object.__setattr__(self, "rels",
                           tuple(Bidegree(*r) for r in self.rels))
        if len(self.matrix) != len(self.gens):
            raise DegreeMismatchError(
                f"matrix has {len(self.matrix)} rows for {len(self.gens)} "
                "generators")
        for k, row in enumerate(self.matrix):
            if len(row) != len(self.rels):
                raise DegreeMismatchError(
                    f"row {k} has {len(row)} entries for {len(self.rels)} "
                    "relations")
            for l, entry in enumerate(row):
                if entry.is_zero():
                    continue
                want = self.rels[l] - self.gens[k]
                got = entry.bidegree()
                if got != want:
                    raise DegreeMismatchError(
                        f"entry ({k},{l}) has bidegree {got}, shifts force "
                        f"{want}")

    @property
    def target(self):
        return FreeModule(self.ring, self.gens)

    @property
    def source(self):
        return FreeModule(self.ring, self.rels)

    def columns(self):
        tgt = self.target
        return [ModuleElement(tgt, tuple(self.matrix[k][l]
                                         for k in range(len(self.gens))))
                for l in range(len(self.rels))]

    def __str__(self):
        return (f"presentation over {self.ring}: {len(self.gens)} gens "
                f"{list(map(str, self.gens))}, {len(self.rels)} rels")


def free_presentation(ring, shifts) -> Presentation:
    shifts = tuple(Bidegree(*s) for s in shifts)
    return Presentation(ring, shifts, (), tuple(() for _ in shifts))


def zero_presentation(ring) -> Presentation:
    return Presentation(ring, (), (), ())


def quotient_by_polys(ring, polys) -> Presentation:
    """S / (f_1, ..., f_r) for bihomogeneous f_i."""
    polys = [f for f in polys if not f.is_zero()]
    rels = tuple(f.bidegree() for f in polys)
    return Presentation(ring, (Bidegree(0, 0),), rels, (tuple(polys),))


# ---------------------------------------------------------------------------
# degree restriction


def restrict_matrix(ring, tgt: FreeModule, src: FreeModule, matrix, d):
    """The linalg.Matrix of the degree-d piece of the map, over the ordered
    monomial bases of source and target."""
    d = Bidegree(*d)
    index = {key: i for i, key in enumerate(tgt.basis_at(d))}
    src_basis = src.basis_at(d)
    # distinct terms of one entry land on distinct rows, and entries of
    # one column on distinct generators, so no two terms share a row
    cols = [{index[(k, mono + u)]: coeff
             for k in range(tgt.rank) for mono, coeff in matrix[k][l].terms}
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
    arr = restrict_matrix(P.ring, P.target, P.source, P.matrix, d)
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


def _prune(columns, rank):
    """Unit elimination on the matrix with the given columns, each a
    sequence of `rank` Polynomials, one per generator of the target.

    While some entry (k, l) is a nonzero constant c, every other column s
    with s[k] != 0 becomes s - (s[k]/c) * column l, and column l and
    generator k are dropped: the split summand S(-d) --c--> S(-d) leaves
    the complex.  The pivot is the unit of least Markowitz cost (Markowitz
    1957), (nonzeros in row k - 1) * (nonzeros in column l - 1), the most
    entries the step can fill in; ties go to the first by generator, then
    by column.  The column operations are the Schur complement, computed
    only where s[k] and column l are nonzero; they change the next map
    only in the row of column l, and the row operations that clear column
    l change the previous map only in the column of generator k, both
    dropped with the summand.  Returns (rows, cols, pruned): the indices of
    the surviving generators and columns, ascending, and the surviving
    columns on the surviving generators."""
    live = {l: list(col) for l, col in enumerate(columns)}
    rows = list(range(rank))
    while True:
        in_row = dict.fromkeys(rows, 0)
        # (k, l, nonzeros in column l) of the constant entries; monomial 0
        # is the least, so an entry led by it is a constant
        units = []
        for l, col in live.items():
            support = [k for k in rows if col[k].terms]
            for k in support:
                in_row[k] += 1
            units += [(k, l, len(support)) for k in support
                      if col[k].terms[0][0] == 0]
        if not units:
            break
        _, k, l = min(((in_row[k] - 1) * (n - 1), k, l) for k, l, n in units)
        pivot = live.pop(l)
        rows.remove(k)
        cinv = pow(pivot[k].terms[0][1], -1, pivot[k].ring.p)
        rest = [(kp, pivot[kp]) for kp in rows if not pivot[kp].is_zero()]
        for col in live.values():
            if not col[k].is_zero():
                lam = col[k].scale(cinv)
                for kp, entry in rest:
                    col[kp] = col[kp].sub_mul(lam, entry)
    return rows, list(live), [[col[k] for k in rows]
                              for col in live.values()]


class InitialModule:
    """F/in(U) for a presentation F/U: the reduced Groebner basis of the
    relations and its lead terms.  The presentation's nonzero columns lose
    their units first (_prune), an isomorphism, so F is `target`, the
    surviving generators, and the relations left lie in m*F.  F/U and
    F/in(U) share their Hilbert function (Macaulay), and the monomials of F
    that no lead term divides, the standard monomials, are a K-basis of
    each piece of F/U.  Bases are filled in on first use, and the normal
    form of a monomial outside them once, when it is first asked for."""

    def __init__(self, P: Presentation):
        self.ring = P.ring
        rows, _, pruned = _prune([col.coords for col in P.columns() if col],
                                 len(P.gens))
        self.target = FreeModule(P.ring, tuple(P.gens[k] for k in rows))
        relations = [e for e in (ModuleElement(self.target, col)
                                 for col in pruned) if e]
        self.gb = (buchberger(relations, module=self.target) if relations
                   else GroebnerBasis(self.target, ()))
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
            coords = [ring.zero()] * target.rank
            coords[k] = Polynomial(ring, ((mono, 1),))
            rem = normal_form(ModuleElement(target, tuple(coords)), self.gb)
            index = self.basis(target.shifts[k] + mono_bidegree(ring, mono))
            out = self._nfs[(k, mono)] = {
                index[(kk, mm)]: coeff for kk, poly in enumerate(rem.coords)
                for mm, coeff in poly.terms}
        return out


@lru_cache(maxsize=None)
def initial_module(P: Presentation) -> InitialModule:
    """The initial module of P, built once per presentation."""
    return InitialModule(P)


# ---------------------------------------------------------------------------
# free resolutions


@dataclass(frozen=True)
class FreeResolution:
    """F_0 <- F_1 <- ... <- F_len with maps[i] : modules[i+1] -> modules[i];
    coker(maps[0]) is the resolved module.

    Ext^j(M, omega) is the cohomology at G^j of the dual complex G^j =
    Hom(F_j, omega) = (+) S(s - c) over the shifts s of F_j, c the
    canonical twist (m, n), with delta_j : G^j -> G^(j+1) the transpose
    of maps[j].  From 0 -> ker -> G^j -> G^(j+1) -> coker(delta_j) -> 0,
    dim Ext^j_d = dim coker(delta_j)_d + dim coker(delta_(j-1))_d
    - dim G^(j+1)_d, with coker(delta_(-1)) = G^0 and coker(delta_len) = 0.
    The Hilbert numerator of each coker(delta_j) comes from one initial
    module, built on first use and kept here."""

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

    def betti(self, i):
        return self.modules[i].rank if 0 <= i <= self.length else 0

    def alternating_dim(self, d):
        return sum((-1) ** i * mod.dim_at(d)
                   for i, mod in enumerate(self.modules))

    def dual(self, j) -> Presentation:
        """delta_j : G^j -> G^(j+1) as the presentation of its cokernel:
        generator degrees c - s over the shifts s of F_(j+1), relation
        degrees c - s over those of F_j, and the transpose of maps[j],
        whose column l is row l of maps[j].  The zero map outside
        0..len-1, so coker(delta_(-1)) = G^0 and coker(delta_len) = 0."""
        c = self.ring.canonical_degree
        gens = tuple(c - s for s in self.shifts(j + 1))
        rels = tuple(c - s for s in self.shifts(j))
        matrix = (tuple(zip(*self.maps[j])) if 0 <= j < self.length
                  else tuple(() for _ in gens))
        return Presentation(self.ring, gens, rels, matrix)

    def _dual_cokernel(self, j):
        """The Hilbert numerator of coker(delta_j)."""
        out = self._cokernels.get(j)
        if out is None:
            out = self._cokernels[j] = InitialModule(self.dual(j)).numerator
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
        maps.append([basis.elements[l] for l in keep])
        shifts.append(tuple(basis.shifts[l] for l in keep))
        basis = kernel_basis(maps[-1], FreeModule(ring, shifts[-1]))
    modules = tuple(FreeModule(ring, s) for s in shifts)
    return FreeResolution(ring, modules, tuple(
        tuple(tuple(col.coords[k] for col in columns)
              for k in range(len(target)))
        for columns, target in zip(maps, shifts)))


def minimal_presentation(P: Presentation) -> Presentation:
    """The minimal presentation F_1 -> F_0 of coker(P), read off resolve(P):
    no unit entry and no redundant relation.  Nonzero iff the result has a
    generator."""
    res = resolve(P)
    return Presentation(P.ring, res.shifts(0), res.shifts(1),
                        res.maps[0] if res.maps
                        else tuple(() for _ in res.shifts(0)))


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
# the dual of F_j.  The kernel comes as one reduced Groebner basis G, from
# groebner.kernel_basis at every j (at j = pd no map leaves, and G is the
# unit basis), and the subquotient is presented on the elements of G: by
# Schreyer's theorem the syzygies of the Schreyer frame of G (see
# groebner.syzygies) generate all relations among them, and the division
# quotients of each column of A by G express the image.


def quotient_presentation(sub_elements, span: GroebnerBasis) -> Presentation:
    """Presentation of span / span(sub_elements), the span given by its
    Groebner basis; sub must lie in the span."""
    src = FreeModule(span.module.ring, span.shifts)
    columns = []
    for s in sub_elements:
        if not s:
            continue
        quotients, rem = _divide(s, span._divisors, True)
        if rem:
            raise InvariantError(
                "submodule generator outside the ambient span")
        columns.append(ModuleElement(src, tuple(quotients)))
    # the relations among the span's elements from its Schreyer frame: one
    # kernel_basis of those elements instead made ext_presentation slower,
    # 0.53-0.70 s against 0.38-0.42 s for five passes over the Ext modules
    # of the euler and ext_window benchmark inputs at seeds 3, 5 and 11
    # (2-vCPU host)
    columns.extend(syzygies(span))
    # unit pruning, then without the columns it leaves zero
    rows, cols, pruned = _prune([c.coords for c in columns], src.rank)
    keep = [(columns[l].bidegree(), col) for l, col in zip(cols, pruned)
            if any(not e.is_zero() for e in col)]
    return Presentation(src.ring, tuple(src.shifts[k] for k in rows),
                        tuple(rel for rel, _ in keep),
                        tuple(tuple(col[i] for _, col in keep)
                              for i in range(len(rows))))


@lru_cache(maxsize=None)
def ext_presentation(P: Presentation, j: int) -> Presentation:
    """Ext^j(M, omega), the Matlis dual of H^(m+n-j) at the maximal ideal,
    which is finitely generated: presented on the kernel basis of delta_j
    with its units pruned, which can leave a redundant relation.  The zero
    presentation for j outside 0..pd."""
    res = resolve(P)
    if j < 0 or j > res.length:
        return zero_presentation(P.ring)
    delta = res.dual(j)
    return quotient_presentation(res.dual(j - 1).columns(),
                                 kernel_basis(delta.columns(), delta.source))
