"""Local cohomology tables for the ideals P = (x), Q = (y) and R_+ = P + Q.

Three computation paths, all exact per bidegree:

* Ext against the canonical twist (graded local duality): Ext^j(M, omega)
  is a finitely generated module, presented from the dualized minimal
  resolution, and each graded dimension is read off the Hilbert-series
  numerator of its initial module; no Ext module is resolved.  For R_+
  this gives the whole table after a Matlis flip; omega_S = S(-m,-n),
  omega_{K[x]} = K[x](-m), omega_{K[y]} = K[y](-n).
* Strand reduction: H^i_Q(M)_(a,b) is the degree-b piece of the local
  cohomology of the K[y]-module strand M_(a,*) at its maximal ideal,
  which local duality turns into an Ext dimension over K[y]; P is the
  mirror image over K[x].
* A brute-force oracle: H^i against (v_1, .., v_r) is the direct limit
  lim_t H^i(Hom(K(v^t), M))_d of the Koszul cohomologies of the powers
  (v_1^t, .., v_r^t) (Brodmann & Sharp, Local Cohomology, ch. 5).  Each
  graded piece of a genuine Cech localization can be infinite dimensional,
  so the limit Koszul system *is* the degreewise representation of the
  localizations; the limit is detected by two successive transition
  isomorphisms past a degree floor, with a hard iteration cap.  The set-up
  that no degree changes (the floor, the Koszul slots, prod_T v, the chain
  map and the entries of each level's differentials) is done once per
  table in oracle_table, and cech_oracle runs the same code for one cell.
  A level whose middle space is zero has no homology and builds nothing
  else.  Every other level checks that its two maps compose to zero,
  eliminates A once and takes the rank of B only when the middle space is
  wider than rank A.  A transition is built only between two levels with
  the same nonzero homology: the image of the cycles of the last level is
  reduced against the pivots of A; between two zero homologies the chain
  map, which sends im A into im A, induces 0 -> 0.

One builder makes the matrices of both Hom complexes, Hom(K(v^t), M) for
the oracle and Hom(F., W) of a minimal resolution in ext_into_dim: _spot
lays out Hom(F, W)_d with one piece per generator of F, and _hom_piece
fills in the map induced by G -> F on the standard monomials of W's
initial module.  It writes every column directly: a product that is
standard is read off the target piece's basis, any other one off the
initial module's table of normal forms.
"""

from itertools import combinations

from .errors import BadTheoryError, StabilizationError
from .linalg import (
    Matrix,
    check_complex,
    homology_dim,
    kernel_of_array,
    pivot_table,
    rank_modulo,
    rank_of_array,
)
from .poly import Bidegree, Polynomial, mono_bidegree, mono_degree
from .resolution import (
    Presentation,
    ext_presentation,
    initial_module,
    resolve,
)
from .strands import x_strand, y_strand
from .tables import CohomologyTable, DimTable, Window

THEORIES = ("P", "Q", "R+")


def _check_theory(ring, theory):
    if theory not in THEORIES:
        raise BadTheoryError(f"unknown theory {theory!r}")
    if theory == "P" and ring.m < 1:
        raise BadTheoryError("theory P needs at least one x-variable")
    if theory == "Q" and ring.n < 1:
        raise BadTheoryError("theory Q needs at least one y-variable")


# ---------------------------------------------------------------------------
# Ext tables against the canonical module


def _ext_hilbert(N: Presentation, j: int, degrees) -> list:
    """dim_K Ext^j(N, omega)_d for each d in degrees, read off the initial
    module of the Ext presentation.  Zero for j outside 0..pd, where the
    Ext module is zero."""
    module = initial_module(ext_presentation(N, j))
    return [module.dim_at(d) for d in degrees]


def ext_table(M: Presentation, j: int, window: Window) -> DimTable:
    """Graded dimensions of Ext^j(M, omega) over the window."""
    degrees = list(window.cells())
    dims = _ext_hilbert(M, j, degrees)
    return DimTable(window=window, cells=dict(zip(map(tuple, degrees), dims)),
                    p=M.ring.p)


# ---------------------------------------------------------------------------
# strand-duality path


def local_coh_table(M: Presentation, theory: str, i: int,
                    window: Window) -> CohomologyTable:
    """Exact dimensions of H^i_theory(M) over the window, zero for i
    outside 0..(variables of the ideal).  For P and Q one Ext module per
    strand; a strand ring has one empty variable block, so its degrees are
    one-sided."""
    ring = M.ring
    _check_theory(ring, theory)
    cells = {}
    if theory == "Q":
        spot = ring.n - i
        for a in window.a_range:
            dims = _ext_hilbert(y_strand(M, a), spot,
                                [(0, -b) for b in window.b_range])
            cells.update(((a, b), v) for b, v in zip(window.b_range, dims))
    elif theory == "P":
        spot = ring.m - i
        for b in window.b_range:
            dims = _ext_hilbert(x_strand(M, b), spot,
                                [(-a, 0) for a in window.a_range])
            cells.update(((a, b), v) for a, v in zip(window.a_range, dims))
    else:
        degrees = list(window.cells())
        dims = _ext_hilbert(M, ring.nvars - i, [-d for d in degrees])
        cells = dict(zip(map(tuple, degrees), dims))
    return CohomologyTable(window=window, cells=cells, p=ring.p,
                           theory=theory, index=i,
                           dual_flipped=(theory == "R+"))


def cd_estimate(M: Presentation, window: Window) -> int:
    """Largest i <= n with a nonzero H^i_Q cell in the window, else 0.
    This is a window-bounded estimate of the cohomological dimension; with
    n = 0 it is 0, as Q = (0)."""
    for i in range(M.ring.n, 0, -1):
        if not local_coh_table(M, "Q", i, window).is_zero():
            return i
    return 0


# ---------------------------------------------------------------------------
# Hom complexes: Ext into any module, and the Koszul-limit oracle


def _spot(layer, d, shifts):
    """Hom(F, W)_d = (+)_k W_(d + shift_k) for the free module F with these
    shifts: the pieces d + shift_k, their dimensions and their offsets."""
    pieces, dims, offsets = [], [], [0]
    for s in shifts:
        pieces.append(d + s)
        dims.append(len(layer.basis(pieces[-1])))
        offsets.append(offsets[-1] + dims[-1])
    return pieces, dims, offsets


def _hom_piece(layer, src, tgt, entries):
    """Matrix of Hom(F, W)_d -> Hom(G, W)_d, from the spot src of F to the
    spot tgt of G, induced by the map G -> F with the nonzero entries
    (k, l, f): block (l, k) is multiplication by f from the k-th piece of
    src to the l-th of tgt.  Entries are read only if both spots are
    nonzero.  Each term c*u of f sends the standard monomial m*e_g to c
    times the basis element (g, m*u) when that is standard, else to c
    times the initial module's normal form of m*u*e_g.  A one-term entry
    writes its block directly; the terms of a longer one are summed
    before the block is reduced mod p."""
    pieces, src_dims, src_off = src
    tgt_pieces, tgt_dims, tgt_off = tgt
    mat = Matrix.zeros(tgt_off[-1], src_off[-1])
    if not (src_off[-1] and tgt_off[-1]):
        return mat
    p, nf = layer.ring.p, layer.nf
    for k, l, f in entries:
        if not (src_dims[k] and tgt_dims[l]):
            continue
        row, index = tgt_off[l], layer.basis(tgt_pieces[l])
        cols = mat.cols[src_off[k]:src_off[k + 1]]
        basis = layer.basis(pieces[k])
        if len(f.terms) == 1:
            (mono, c), = f.terms
            for col, (g, m) in zip(cols, basis):
                i = index.get((g, m + mono))
                if i is not None:
                    col[row + i] = c
                else:
                    for i, x in nf(g, m + mono).items():
                        col[row + i] = c * x % p
            continue
        sums = [{} for _ in cols]
        for mono, c in f.terms:
            for acc, (g, m) in zip(sums, basis):
                i = index.get((g, m + mono))
                if i is not None:
                    acc[i] = acc.get(i, 0) + c
                else:
                    for i, x in nf(g, m + mono).items():
                        acc[i] = acc.get(i, 0) + c * x
        for col, acc in zip(cols, sums):
            for i, v in acc.items():
                if r := v % p:
                    col[row + i] = r
    return mat


def ext_into_dim(M: Presentation, W: Presentation, j: int, d) -> int:
    """dim_K Ext^j(M, W)_d for an arbitrary coefficient module W over the
    same ring, via the Hom complex of the minimal resolution of M."""
    if M.ring != W.ring:
        raise BadTheoryError("modules over different rings")
    res = resolve(M)
    if j < 0 or j > res.length:
        return 0
    layer, d = initial_module(W), Bidegree(*d)
    spots = {i: _spot(layer, d, res.shifts(i)) for i in (j - 1, j, j + 1)}

    def hom(i):
        """Degree-d piece of Hom(F_(i-1), W) -> Hom(F_i, W)."""
        rows = res.maps[i - 1] if 1 <= i <= res.length else ()
        return _hom_piece(layer, spots[i - 1], spots[i], (
            (k, l, f) for k, row in enumerate(rows)
            for l, f in enumerate(row) if f))

    return homology_dim(hom(j), hom(j + 1), W.ring.p)


def _koszul_differential(ring, units, t, src, tgt):
    """The entries (k, l, +-v_j^t) of the Koszul differential K_(q+1) ->
    K_q, v_j the packed monomial units[j]: src lists the q-subsets T of the
    variables (by index), tgt the (q+1)-subsets, and e_(T+j) has
    (-1)^#{u in T : u < j} v_j^t at e_T."""
    signs = (1, ring.p - 1)
    tgt_index = {T: l for l, T in enumerate(tgt)}
    return [(k, tgt_index[tuple(sorted(T + (j,)))], Polynomial(
                ring, ((t * unit, signs[sum(u < j for u in T) % 2]),)))
            for k, T in enumerate(src)
            for j, unit in enumerate(units) if j not in T]


def _koszul_limit(M: Presentation, theory: str, i: int):
    """The oracle for H^i_theory(M): the set-up that no degree changes,
    done once, and the function cell(d, cap) that runs the levels of one
    degree d.

    cell raises StabilizationError if two successive transition
    isomorphisms are not observed within the iteration cap."""
    ring = M.ring
    if theory not in ("P", "Q"):
        raise BadTheoryError("the oracle covers the theories P and Q")
    _check_theory(ring, theory)
    variables = (list(range(ring.m)) if theory == "P"
                 else list(range(ring.m, ring.nvars)))
    if i < 0 or i > len(variables):
        return lambda d, cap=None: 0
    layer = initial_module(M)
    # powers below the floor can miss torsion killed only by high powers:
    # it clears every relation and basis lead degree
    degrees = [mono_degree(ring, mono) for row in M.matrix for entry in row
               for mono, _ in entry.terms]
    degrees += [mono_degree(ring, mono) for _, mono, _ in layer.leads]
    floor = max(degrees, default=0) + 1
    p = ring.p
    # K_q(t) has one generator e_T per q-subset T of the variables, of
    # degree t * deg(prod_T v); the chain map K(t+1) -> K(t) sends e_T to
    # (prod_T v) e_T.  Packed monomials multiply by adding, so v^t is
    # t * v and prod_T v is a sum.
    units = [ring.variable(v).terms[0][0] for v in variables]
    slots = {q: list(combinations(range(len(variables)), q))
             for q in (i - 1, i, i + 1) if q >= 0}
    prods = {q: [sum(units[j] for j in T) for T in Ts]
             for q, Ts in slots.items()}
    shifts = {q: [mono_bidegree(ring, mono) for mono in monos]
              for q, monos in prods.items()}
    chain_map = [(k, k, Polynomial(ring, ((mono, 1),)))
                 for k, mono in enumerate(prods[i])]
    differentials = {}  # (q, t) -> the entries of K_(q+1)(t) -> K_q(t)

    def level(t, d):
        """H^i of Hom(K(t), M)_d, with B, the pivot table of A and the spot
        of K_i(t).  An empty spot has no homology, and nothing else is
        built: B has no columns and A no rows.  Otherwise ker B holds im A,
        and B * A = 0 is checked first, so a middle space of dimension
        rank A has no homology and B needs no elimination."""
        def spot(q):
            return _spot(layer, d, [(t * a, t * b) for a, b in shifts[q]])

        middle = spot(i)
        width = middle[2][-1]
        if not width:
            return 0, None, None, middle
        spots = {q: middle if q == i else spot(q) for q in shifts}

        def koszul(q):
            entries = differentials.get((q, t))
            if entries is None:
                entries = differentials[q, t] = _koszul_differential(
                    ring, units, t, slots[q], slots[q + 1])
            return _hom_piece(layer, spots[q], spots[q + 1], entries)

        B = koszul(i)
        A = koszul(i - 1) if i > 0 else Matrix.zeros(width, 0)
        check_complex(A, B, p)
        pivots = pivot_table(A, p)
        h = (0 if width == len(pivots)
             else width - rank_of_array(B, p) - len(pivots))
        return h, B, pivots, middle

    def induced(pB, pspot, spot, pivots):
        """Rank of the map H^i(t-1) -> H^i(t): the cycles ker B of level
        t-1 under the chain map, reduced against the pivots of A at t."""
        chi = _hom_piece(layer, pspot, spot, chain_map)
        return rank_modulo(pivots, chi.compose(kernel_of_array(pB, p), p), p)

    def cell(d, cap=None):
        d = Bidegree(*d)
        if cap is None:
            radius = max(abs(d.a), abs(d.b))
            cap = max(4 + floor - 1 + radius, floor + 3)
        prev = None
        consecutive = 0
        for t in range(max(1, floor), cap + 1):
            h, B, pivots, spot = level(t, d)
            if prev is not None:
                ph, pB, pspot = prev
                # the chain map sends im A into im A, so between two zero
                # homologies it induces the isomorphism 0 -> 0
                if ph == h and (h == 0 or
                                induced(pB, pspot, spot, pivots) == h):
                    consecutive += 1
                    if consecutive >= 2:
                        return h
                else:
                    consecutive = 0
            prev = (h, B, spot)
        raise StabilizationError(
            f"Koszul limit for H^{i}_{theory} at {d} not stable within "
            f"{cap} steps")

    return cell


def cech_oracle(M: Presentation, theory: str, i: int, d,
                cap: int = None) -> int:
    """dim H^i_theory(M)_d by the limit-Koszul representation of the Cech
    complex on the ideal's variables.

    Raises StabilizationError if two successive transition isomorphisms are
    not observed within the iteration cap."""
    return _koszul_limit(M, theory, i)(d, cap)


def oracle_table(M: Presentation, theory: str, i: int,
                 window: Window) -> DimTable:
    """cech_oracle over the window, with the set-up done once."""
    cell = _koszul_limit(M, theory, i)
    return DimTable(window=window,
                    cells={tuple(d): cell(d) for d in window.cells()},
                    p=M.ring.p)
