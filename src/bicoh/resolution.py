"""Presentations, minimal bigraded free resolutions, and derived invariants.

A module M is always carried as the cokernel of a shift-decorated matrix
between free modules.  From the minimal resolution we read off graded Betti
numbers, projective dimension, depth (Auslander-Buchsbaum), and the Krull
dimension (order of vanishing of the numerator of the Hilbert series at
t = 1).  Hilbert tables are computed per bidegree by rank of the
degree-restricted relation matrix, independently of any resolution, so the
two paths cross-check each other.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegreeMismatchError, ZeroModuleError
from .groebner import (
    FreeModule,
    ModuleElement,
    SpanSolver,
    buchberger,
    syzygies,
)
from .linalg import homology_dim, rank_of_array
from .poly import Bidegree, mono_mul
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
    """The matrix of the degree-d piece of the map, over the ordered
    monomial bases of source and target (numpy int64 array)."""
    d = Bidegree(*d)
    tgt_basis = tgt.basis_at(d)
    src_basis = src.basis_at(d)
    index = {key: i for i, key in enumerate(tgt_basis)}
    arr = np.zeros((len(tgt_basis), len(src_basis)), dtype=np.int64)
    for col, (l, u) in enumerate(src_basis):
        for k in range(tgt.rank):
            entry = matrix[k][l]
            for mono, coeff in entry.terms:
                row = index[(k, mono_mul(mono, u))]
                arr[row, col] = (arr[row, col] + coeff) % ring.p
    return arr


@lru_cache(maxsize=None)
def hilbert_dim(P: Presentation, d) -> int:
    """Exact dim_K M_d: dim of the free piece minus the rank of the
    degree-restricted relation matrix.  No truncation, no resolution."""
    d = Bidegree(*d)
    free_dim = P.target.dim_at(d)
    if free_dim == 0:
        return 0
    if not P.rels:
        return free_dim
    arr = restrict_matrix(P.ring, P.target, P.source, P.matrix, d)
    return free_dim - rank_of_array(arr, P.ring.p)


def hilbert_table(P: Presentation, window: Window) -> DimTable:
    cells = {tuple(d): hilbert_dim(P, d) for d in window.cells()}
    return DimTable(window=window, cells=cells, p=P.ring.p)


# ---------------------------------------------------------------------------
# free resolutions


@dataclass(frozen=True)
class FreeResolution:
    """F_0 <- F_1 <- ... <- F_len with maps[i] : modules[i+1] -> modules[i];
    coker(maps[0]) is the resolved module."""

    ring: object
    modules: tuple
    maps: tuple
    minimal: bool

    @property
    def length(self):
        return len(self.modules) - 1

    def betti(self, i):
        return self.modules[i].rank if 0 <= i <= self.length else 0

    def shifts(self, i):
        return self.modules[i].shifts if 0 <= i <= self.length else ()

    def alternating_dim(self, d):
        return sum((-1) ** i * mod.dim_at(d)
                   for i, mod in enumerate(self.modules))

    def map_data(self, i):
        """(source module, target module, matrix) of d_i : F_i -> F_{i-1}."""
        return self.modules[i], self.modules[i - 1], self.maps[i - 1]


def _unit_entry(matrix):
    for k, row in enumerate(matrix):
        for l, entry in enumerate(row):
            if len(entry.terms) == 1:
                mono, _ = entry.terms[0]
                if not any(mono):
                    return k, l
    return None


def _eliminate_unit(mats, shifts, i, k, l):
    """Remove the split summand witnessed by the constant entry (k, l) of
    mats[i], adjusting the neighbouring matrices.  All lists are mutated."""
    A = mats[i]
    p = A[k][l].ring.p
    c = A[k][l].terms[0][1]
    cinv = pow(c, -1, p)
    rows = len(A)
    cols = len(A[0]) if rows else 0

    lams = {lp: A[k][lp].scale(cinv) for lp in range(cols)
            if lp != l and not A[k][lp].is_zero()}
    # column ops on A: col_lp -= lam_lp * col_l
    for lp, lam in lams.items():
        for r in range(rows):
            A[r][lp] = A[r][lp] - lam * A[r][l]
    # basis change of F_{i+1} hits the rows of the next matrix
    if i + 1 < len(mats) and mats[i + 1]:
        nxt = mats[i + 1]
        ncols = len(nxt[0])
        for cc in range(ncols):
            acc = nxt[l][cc]
            for lp, lam in lams.items():
                acc = acc + lam * nxt[lp][cc]
            nxt[l][cc] = acc
    # row ops on A: clear column l (only row k is nonzero there now)
    mus = {kp: A[kp][l].scale(cinv) for kp in range(rows)
           if kp != k and not A[kp][l].is_zero()}
    for kp, mu in mus.items():
        for cc in range(cols):
            A[kp][cc] = A[kp][cc] - mu * A[k][cc]
    # basis change of F_i hits the columns of the previous matrix
    if i - 1 >= 0 and mats[i - 1]:
        prev = mats[i - 1]
        for r in range(len(prev)):
            acc = prev[r][k]
            for kp, mu in mus.items():
                acc = acc + mu * prev[r][kp]
            prev[r][k] = acc
    # delete row k / column l of A, row l of next, column k of previous
    del A[k]
    for row in A:
        del row[l]
    if i + 1 < len(mats):
        del mats[i + 1][l]
    if i - 1 >= 0:
        for row in mats[i - 1]:
            del row[k]
    del shifts[i][k]      # generator k of F_i
    del shifts[i + 1][l]  # generator l of F_{i+1}


def _sweep_units(mats, shift_chain):
    changed = True
    while changed:
        changed = False
        for i, A in enumerate(mats):
            if not A or not A[0]:
                continue
            hit = _unit_entry(A)
            if hit is not None:
                _eliminate_unit(mats, shift_chain, i, *hit)
                changed = True
                break


def _mutable_matrix(elements, rank):
    return [[e.coords[k] for e in elements] for k in range(rank)]


def _columns_of(ring, shifts, matrix):
    module = FreeModule(ring, tuple(shifts))
    cols = len(matrix[0]) if matrix else 0
    out = []
    for l in range(cols):
        e = ModuleElement(module, tuple(matrix[k][l]
                                        for k in range(module.rank)))
        if e:
            out.append(e)
    return out


@lru_cache(maxsize=None)
def resolve(P: Presentation, minimize: bool = True) -> FreeResolution:
    """Free resolution of coker(P) by iterated Groebner bases and Schreyer
    syzygies.

    With minimize=True the partial chain is pruned by unit elimination
    after every level, so redundant syzygies never reach the next Groebner
    run and the finished chain is the minimal resolution.  minimize=False
    keeps the raw Schreyer chain (useful as an independent cross-check)."""
    ring = P.ring
    shift_chain = [list(P.target.shifts)]
    mats = []
    elements = [c for c in P.columns() if c]
    level = 0
    while elements:
        level += 1
        if level > ring.nvars + _RESOLUTION_LENGTH_SLACK:
            raise RuntimeError("resolution did not terminate; "
                               "syzygy chain exceeded the variable bound")
        ambient = FreeModule(ring, tuple(shift_chain[-1]))
        gb = buchberger(elements, module=ambient)
        mats.append(_mutable_matrix(gb.elements, ambient.rank))
        shift_chain.append([g.bidegree() for g in gb.elements])
        syz = [s for s in syzygies(gb) if s]
        if not syz:
            break
        if minimize:
            mats.append(_mutable_matrix(syz, len(shift_chain[-1])))
            shift_chain.append([s.bidegree() for s in syz])
            _sweep_units(mats, shift_chain)
            top = mats.pop()
            shift_chain.pop()
            elements = _columns_of(ring, shift_chain[-1], top)
        else:
            elements = syz
    if minimize:
        _sweep_units(mats, shift_chain)
    while mats and (not shift_chain[-1]):
        mats.pop()
        shift_chain.pop()
    modules = tuple(FreeModule(ring, tuple(s)) for s in shift_chain)
    out_maps = tuple(tuple(tuple(row) for row in A) for A in mats)
    return FreeResolution(ring, modules, out_maps,
                          minimal=minimize or not out_maps)


def minimal_presentation(P: Presentation) -> Presentation:
    """Minimalize just the presentation matrix (unit elimination plus
    removal of zero columns).  Nonzero iff the result has a generator."""
    if not P.rels:
        return P
    shift_chain = [list(P.target.shifts), list(P.source.shifts)]
    matrix = [list(row) for row in P.matrix]
    _sweep_units([matrix], shift_chain)
    gens = tuple(shift_chain[0])
    keep = [l for l in range(len(shift_chain[1]))
            if any(not matrix[k][l].is_zero() for k in range(len(gens)))]
    rels = tuple(shift_chain[1][l] for l in keep)
    out = tuple(tuple(matrix[k][l] for l in keep) for k in range(len(gens)))
    return Presentation(P.ring, gens, rels, out)


def is_zero_module(P: Presentation) -> bool:
    return len(minimal_presentation(P).gens) == 0


# ---------------------------------------------------------------------------
# numerical invariants


def _series_numerator(res: FreeResolution):
    """Coefficients of sum_i (-1)^i sum_shifts t^(total degree)."""
    coeffs = {}
    for i, mod in enumerate(res.modules):
        for s in mod.shifts:
            t = s.total
            coeffs[t] = coeffs.get(t, 0) + (-1) ** i
    return {k: v for k, v in coeffs.items() if v}


@lru_cache(maxsize=None)
def krull_dim(P: Presentation) -> int:
    """Krull dimension: nvars minus the order of vanishing at t = 1 of the
    numerator of the total-degree Hilbert series.  Returns -1 for the zero
    module."""
    res = resolve(P)
    coeffs = _series_numerator(res)
    if not coeffs:
        return -1
    order = 0
    while sum(coeffs.values()) == 0:
        order += 1
        lo, hi = min(coeffs), max(coeffs)
        acc = 0
        quotient = {}
        for k in range(lo, hi + 1):
            acc += coeffs.get(k, 0)
            if acc:
                quotient[k] = acc
        coeffs = quotient
        if not coeffs:
            raise RuntimeError("Hilbert numerator vanished identically")
    return P.ring.nvars - order


@dataclass(frozen=True)
class ModuleProfile:
    dim: int
    depth: int
    pd: int
    is_cm: bool
    is_gencm: bool
    cd_estimate: int | None = None

    def __str__(self):
        flags = []
        if self.is_cm:
            flags.append("CM")
        elif self.is_gencm:
            flags.append("generalized CM")
        extra = f" [{', '.join(flags)}]" if flags else ""
        cd = "" if self.cd_estimate is None else f", cd<={self.cd_estimate}"
        return (f"dim {self.dim}, depth {self.depth}, pd {self.pd}"
                f"{extra}{cd}")


@lru_cache(maxsize=None)
def profile(P: Presentation) -> ModuleProfile:
    """dim, depth (via Auslander-Buchsbaum), pd, CM and generalized-CM
    flags.  Rejects the zero module."""
    if is_zero_module(P):
        raise ZeroModuleError("the zero module has no profile")
    nvars = P.ring.nvars
    pd = resolve(P).length
    depth = nvars - pd
    dim = krull_dim(P)
    if depth > dim:
        raise RuntimeError(f"depth {depth} exceeds dim {dim}; "
                           "inconsistent invariants")
    is_cm = depth == dim
    is_gencm = True
    for i in range(depth, dim):
        ext = ext_presentation(P, nvars - i)
        if not is_zero_module(ext) and krull_dim(ext) > 0:
            is_gencm = False
            break
    return ModuleProfile(dim=dim, depth=depth, pd=pd, is_cm=is_cm,
                         is_gencm=is_gencm)


# ---------------------------------------------------------------------------
# Ext against the canonical module, homology presentations
#
# Hom_S(S(-s), S(-c)) = S(s - c) for the canonical twist c = (m, n):
# dualizing a resolution transposes each matrix and replaces each generator
# degree s by c - s.


def _transpose(matrix, rows, cols):
    return tuple(tuple(matrix[k][l] for k in range(rows))
                 for l in range(cols))


def ext_dims(res: FreeResolution, j: int, degrees) -> list:
    """dim_K Ext^j(M, omega)_d for each d in degrees, where res resolves M:
    the homology at spot j of the dualized resolution.  Zero for j outside
    0..res.length."""
    if j < 0 or j > res.length:
        return [0 for _ in degrees]
    ring = res.ring
    c = ring.canonical_degree
    before, mid, after = (FreeModule(ring, tuple(c - s for s in res.shifts(i)))
                          for i in (j - 1, j, j + 1))
    into = _transpose(res.maps[j - 1], before.rank, mid.rank) if j else ()
    out = _transpose(res.maps[j], mid.rank, after.rank) \
        if j < res.length else ()
    return [homology_dim(restrict_matrix(ring, mid, before, into, d),
                         restrict_matrix(ring, after, mid, out, d), ring.p)
            for d in degrees]


def quotient_presentation(sub_elements, span_elements,
                          ambient: FreeModule) -> Presentation:
    """Presentation of span(span_elements) / span(sub_elements), both inside
    the ambient free module; sub must lie in the span."""
    gens = [g for g in span_elements if g]
    if not gens:
        return zero_presentation(ambient.ring)
    shifts = tuple(g.bidegree() for g in gens)
    src = FreeModule(ambient.ring, shifts)
    solver = SpanSolver(gens, src)
    columns = []
    for s in sub_elements:
        if not s:
            continue
        coeffs = solver.express(s)
        if coeffs is None:
            raise ValueError("submodule generator outside the ambient span")
        columns.append(ModuleElement(src, tuple(coeffs)))
    columns.extend(solver.kernel())
    columns = [c for c in columns if c]
    rels = tuple(c.bidegree() for c in columns)
    matrix = tuple(tuple(c.coords[k] for c in columns)
                   for k in range(len(gens)))
    return minimal_presentation(
        Presentation(ambient.ring, shifts, rels, matrix))


def kernel_presentation(src: FreeModule, tgt: FreeModule,
                        matrix) -> Presentation:
    """Presentation of the kernel of the bihomogeneous map src -> tgt."""
    columns = [ModuleElement(tgt, tuple(matrix[k][l]
                                        for k in range(tgt.rank)))
               for l in range(src.rank)]
    kernel = SpanSolver(columns, src).kernel()
    return quotient_presentation([], kernel, src)


def homology_presentation(ring, mid: FreeModule, a_columns,
                          b_columns) -> Presentation:
    """Presentation of ker(B)/im(A) where A lands in mid (columns given as
    elements of mid) and B leaves mid (columns indexed by mid generators,
    given as elements of the outer module)."""
    if b_columns:
        kernel = SpanSolver(b_columns, mid).kernel()
    else:
        kernel = [mid.unit_element(k) for k in range(mid.rank)]
    return quotient_presentation([a for a in a_columns if a], kernel, mid)


@lru_cache(maxsize=None)
def ext_presentation(P: Presentation, j: int) -> Presentation:
    """Ext^j(M, omega) as a minimal presentation: the Matlis dual of
    H^(m+n-j) at the maximal ideal, which is finitely generated.  The zero
    presentation for j outside 0..pd."""
    ring = P.ring
    res = resolve(P)
    if j < 0 or j > res.length:
        return zero_presentation(ring)
    c = ring.canonical_degree
    mid, after = (FreeModule(ring, tuple(c - s for s in res.shifts(i)))
                  for i in (j, j + 1))
    # column l of a transposed differential is row l of the differential
    a_columns = [ModuleElement(mid, row) for row in res.maps[j - 1]] \
        if j else []
    b_columns = [ModuleElement(after, row) for row in res.maps[j]] \
        if j < res.length else []
    return homology_presentation(ring, mid, a_columns, b_columns)
