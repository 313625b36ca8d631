"""Local cohomology tables for the ideals P = (x), Q = (y) and R_+ = P + Q.

Three computation paths, all exact per bidegree:

* Ext against the canonical twist (graded local duality): Ext^j(M, omega)
  is the cohomology of the dualized minimal resolution, and each graded
  dimension is read off the Hilbert numerators of the cokernels of the
  dual maps (resolution.FreeResolution); no Ext module is presented or
  resolved.  For R_+ this gives the whole table after a Matlis flip;
  omega_S = S(-m,-n), omega_{K[x]} = K[x](-m), omega_{K[y]} = K[y](-n).
* Strand reduction: P is the ideal of the variable block k = 0 (x) and
  Q that of k = 1 (y), and one loop serves both.  H^i(M)_d is the
  degree-d_k piece of the local cohomology of strand(M, k, d_(1-k)), a
  module over K[block k], at its maximal ideal, which local duality turns
  into an Ext dimension over K[block k].  A strand whose Krull dimension
  already fixes H^i builds nothing: H^i = 0 for i > dim (Grothendieck
  vanishing; Brodmann & Sharp, Local Cohomology, ch. 6), and a strand of
  dimension 0 has finite length, so it is its own H^0.  The dimension,
  strand_dim, is the pole order at t = 1 of the strand's Hilbert series
  (Hilbert-Serre; Bruns & Herzog, Cohen-Macaulay Rings, ch. 4), read off
  the numerator of M's initial module.  R_+ takes the same rule with
  dim M.  cohomological_dimension reads cd(P, M) and cd(Q, M), the
  largest strand dimension, off the same numerator.
* A brute-force oracle: H^i against the r variables v of the ideal (x
  for P, y for Q, all m + n for R_+) is the direct limit
  lim_t H^i(Hom(K(v^t), M))_d of the Koszul cohomologies of the powers
  (v_1^t, .., v_r^t) (Brodmann & Sharp, Local Cohomology, ch. 5).  Each
  graded piece of a genuine Cech localization can be infinite dimensional,
  so the limit Koszul system *is* the degreewise representation of the
  localizations.  The oracle computes one level per degree, the first
  one that is provably the limit there.

  Level t is Ext^i(S/(v^t), M)_d.  Take any finite free resolution F. of
  M.  The v^t are regular on each F_k, so the double complex
  Hom(K(v^t), F.) has one nonzero row, and Ext^i(S/(v^t), M) is
  H_(r-i)(F./(v^t)F.) shifted by t*deg(prod v); the transition to t + 1
  is multiplication by prod v, injective on each F_k/(v^t)F_k.  For
  F_k = (+) S(-s) and theory P, the degree-d piece of a summand, shifted
  by t*deg(prod v), has a basis indexed by the exponent vectors in
  [-t, -1]^m with sum d_x - s_x (times the y-monomials of degree
  d_y - s_y), and the transitions match these bases, so they are final
  once t >= s_x - d_x - m + 1.  Every level t >= t_0(d) =
  max(1, max_s s_x - d_x - m + 1), s over the shifts of F_(r-i-1),
  F_(r-i) and F_(r-i+1), is then the limit.
  Q is the mirror image with y and n, and R_+ takes the larger of the
  two bounds (compare Eisenbud, Mustata & Stillman, Cohomology on toric
  varieties and local cohomology with monomial supports, J. Symb.
  Comput. 2000).  The shifts are those of the minimal resolution.

  The set-up that no degree changes (the bound, the Koszul slots, prod_T
  v and the entries of each level's differentials) is done once per
  table in oracle_table, and cech_oracle runs the same code for one cell.
  A level whose middle space is zero has no homology and builds nothing
  else; every other one checks that its two maps compose to zero and
  takes the homology by two ranks.

_spot lays out Hom(F, W)_d with one piece per generator of a free module
F, and _hom_piece fills in the map Hom(F, W)_d -> Hom(G, W)_d induced by
G -> F on the standard monomials of W's initial module.  W is M, F and G
are terms of K(v^t), and every entry of G -> F is one signed monomial
+-v_j^t, passed as a packed monomial and a coefficient.  It writes every
column directly: a product that is standard is read off the target
piece's basis, any other one off the initial module's table of normal
forms.
"""

from itertools import combinations

from .errors import BadTheoryError
from .linalg import Matrix, homology_dim
from .poly import Bidegree, mono_bidegree
from .resolution import Presentation, initial_module, resolve
from .strands import strand, strand_dim
from .tables import DimTable, Window

THEORIES = ("P", "Q", "R+")


def _blocks(ring, theory):
    """The blocks of variables of the theory's ideal, by bidegree
    coordinate (x 0, y 1); BadTheoryError for an unknown theory or an
    ideal without variables."""
    blocks = {"P": (0,), "Q": (1,), "R+": (0, 1)}.get(theory)
    if blocks is None:
        raise BadTheoryError(f"unknown theory {theory!r}")
    if theory != "R+" and not (ring.m, ring.n)[blocks[0]]:
        raise BadTheoryError(f"theory {theory} needs at least one "
                             f"{'xy'[blocks[0]]}-variable")
    return blocks


# ---------------------------------------------------------------------------
# Ext tables against the canonical module


def ext_table(M: Presentation, j: int, window: Window) -> DimTable:
    """Graded dimensions of Ext^j(M, omega) over the window."""
    degrees = list(window.cells())
    dims = resolve(M).ext_dims(j, degrees)
    return DimTable(window=window, cells=dict(zip(map(tuple, degrees), dims)),
                    p=M.ring.p)


# ---------------------------------------------------------------------------
# strand-duality path


def _decided(M: Presentation, dim: int, i: int, degrees):
    """H^i at the maximal ideal of M, of Krull dimension dim, in each of
    the degrees of M, where a theorem fixes it: 0 for i outside 0..dim
    (Grothendieck vanishing), and M itself for dim = 0 (finite length).
    None for any other i."""
    if not 0 <= i <= dim:
        return [0] * len(degrees)
    if dim == 0:
        module = initial_module(M)
        return [module.dim_at(d) for d in degrees]
    return None


def local_coh_table(M: Presentation, theory: str, i: int,
                    window: Window) -> DimTable:
    """Exact dimensions of H^i_theory(M) over the window, zero for i
    outside 0..(variables of the ideal).  For P and Q one Ext module per
    strand that its dimension leaves undecided; a strand ring has one
    empty variable block, so its degrees are one-sided."""
    ring = M.ring
    blocks = _blocks(ring, theory)
    if theory == "R+":
        degrees = list(window.cells())
        dims = _decided(M, initial_module(M).krull_dim(), i, degrees)
        if dims is None:
            dims = resolve(M).ext_dims(ring.nvars - i, [-d for d in degrees])
        cells = dict(zip(map(tuple, degrees), dims))
    else:
        k, = blocks
        ranges = (window.a_range, window.b_range)
        spot = (ring.m, ring.n)[k] - i
        cells = {}
        for c in ranges[1 - k]:
            line = [(d, c) if k == 0 else (c, d) for d in ranges[k]]
            dims = _decided(M, strand_dim(M, k, c), i, line)
            if dims is None:
                dims = resolve(strand(M, k, c)).ext_dims(
                    spot, [(-d, 0) if k == 0 else (0, -d) for d in ranges[k]])
            cells.update(zip(line, dims))
    return DimTable(window=window, cells=cells, p=ring.p)


def cohomological_dimension(M: Presentation, theory: str) -> int:
    """cd(theory, M) for theory P or Q, -1 for the zero module: as
    H^i_Q(M)_(a,*) = H^i_(y)(strand(M, 1, a)), cd(Q, M) is the largest
    strand dimension (Grothendieck), read at max(r, 1) degrees from each
    shift (see strands); P is the mirror image.  An ideal without
    variables is (0), so H^0 = M."""
    k = {"P": 0, "Q": 1}.get(theory)
    if k is None:
        raise BadTheoryError(f"no cohomological dimension for theory "
                             f"{theory!r}; use P or Q")
    sizes, numerator = (M.ring.m, M.ring.n), initial_module(M).numerator
    if not sizes[k]:
        return 0 if numerator else -1
    lines = {s[1 - k] + t for s in numerator
             for t in range(max(sizes[1 - k], 1))}
    return max((strand_dim(M, k, c) for c in lines), default=-1)


# ---------------------------------------------------------------------------
# Hom complexes on the standard monomials, and the Koszul-limit oracle


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
    (k, l, u, c), c times the packed monomial u: block (l, k) is
    multiplication by c*u from the k-th piece of src to the l-th of tgt.
    Entries are read only if both spots are nonzero.  The standard
    monomial m*e_g goes to c times the basis element (g, m*u) when that
    is standard, else to c times the initial module's normal form of
    m*u*e_g."""
    pieces, src_dims, src_off = src
    tgt_pieces, tgt_dims, tgt_off = tgt
    mat = Matrix.zeros(tgt_off[-1], src_off[-1])
    if not (src_off[-1] and tgt_off[-1]):
        return mat
    p, nf = layer.ring.p, layer.nf
    for k, l, mono, c in entries:
        if not (src_dims[k] and tgt_dims[l]):
            continue
        row, index = tgt_off[l], layer.basis(tgt_pieces[l])
        for col, (g, m) in zip(mat.cols[src_off[k]:src_off[k + 1]],
                               layer.basis(pieces[k])):
            i = index.get((g, m + mono))
            if i is not None:
                col[row + i] = c
            else:
                for i, x in nf(g, m + mono).items():
                    col[row + i] = c * x % p
    return mat


def _koszul_differential(ring, units, t, src, tgt):
    """The entries (k, l, t * v_j, +-1 mod p) of the Koszul differential
    K_(q+1) -> K_q, v_j the packed monomial units[j], so t * v_j is v_j^t:
    src lists the q-subsets T of the variables (by index), tgt the
    (q+1)-subsets, and e_(T+j) has (-1)^#{u in T : u < j} v_j^t at e_T."""
    signs = (1, ring.p - 1)
    tgt_index = {T: l for l, T in enumerate(tgt)}
    return [(k, tgt_index[tuple(sorted(T + (j,)))], t * unit,
             signs[sum(u < j for u in T) % 2])
            for k, T in enumerate(src)
            for j, unit in enumerate(units) if j not in T]


def _koszul_limit(M: Presentation, theory: str, i: int):
    """The oracle for H^i_theory(M): the set-up that no degree changes,
    done once, and the function cell(d) that computes level t_0(d)."""
    ring = M.ring
    blocks = _blocks(ring, theory)
    sizes, starts = (ring.m, ring.n), (0, ring.m)
    variables = [starts[k] + v for k in blocks for v in range(sizes[k])]
    r = len(variables)
    if i < 0 or i > r:
        return lambda d: 0
    layer = initial_module(M)
    # t_0(d) = max(1, c_k - d_k) over the blocks k of the ideal: c_k is the
    # largest k-shift of F_(r-i-1), F_(r-i) and F_(r-i+1), minus the
    # block's variable count, plus one (see the module docstring)
    res = resolve(M)
    fshifts = [s for k in (r - i - 1, r - i, r - i + 1)
               for s in res.shifts(k)]
    reach = [(k, max(s[k] for s in fshifts) - sizes[k] + 1)
             for k in blocks if fshifts]
    # K_q(t) has one generator e_T per q-subset T of the variables, of
    # degree t * deg(prod_T v).  Packed monomials multiply by adding, so
    # v^t is t * v and prod_T v is a sum.
    units = [ring.variable(v).terms[0][0] for v in variables]
    slots = {q: list(combinations(range(r), q))
             for q in (i - 1, i, i + 1) if q >= 0}
    shifts = {q: [mono_bidegree(ring, sum(units[j] for j in T)) for T in Ts]
              for q, Ts in slots.items()}
    differentials = {}  # (q, t) -> the entries of K_(q+1)(t) -> K_q(t)

    def cell(d):
        """H^i of Hom(K(t), M)_d at t = t_0(d).  An empty spot K_i(t) has
        no homology, and nothing else is built."""
        d = Bidegree(*d)
        t = max([1] + [c - d[k] for k, c in reach])

        def spot(q):
            return _spot(layer, d, [(t * a, t * b) for a, b in shifts[q]])

        middle = spot(i)
        if not middle[2][-1]:
            return 0
        spots = {q: middle if q == i else spot(q) for q in shifts}

        def koszul(q):
            entries = differentials.get((q, t))
            if entries is None:
                entries = differentials[q, t] = _koszul_differential(
                    ring, units, t, slots[q], slots[q + 1])
            return _hom_piece(layer, spots[q], spots[q + 1], entries)

        B = koszul(i)
        A = koszul(i - 1) if i > 0 else Matrix.zeros(B.shape[1], 0)
        return homology_dim(A, B, ring.p)

    return cell


def cech_oracle(M: Presentation, theory: str, i: int, d) -> int:
    """dim H^i_theory(M)_d by the limit-Koszul representation of the Cech
    complex on the ideal's variables, at the level where it is final."""
    return _koszul_limit(M, theory, i)(d)


def oracle_table(M: Presentation, theory: str, i: int,
                 window: Window) -> DimTable:
    """cech_oracle over the window, with the set-up done once."""
    cell = _koszul_limit(M, theory, i)
    return DimTable(window=window,
                    cells={tuple(d): cell(d) for d in window.cells()},
                    p=M.ring.p)
