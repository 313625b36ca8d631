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
* A brute-force oracle: H^i against (f_1, .., f_r) is the direct limit of
  the Koszul cohomologies of (f_1^t, .., f_r^t).  Each graded piece of a
  genuine Cech localization can be infinite dimensional, so the limit
  Koszul system *is* the degreewise representation of the localizations;
  the limit is detected by two successive transition isomorphisms past a
  degree floor, with a hard iteration cap.  Every Koszul map is built from
  the standard monomials of the module's initial module (per-degree bases
  and variable steps), and each level eliminates each of its two maps
  once, after checking that they compose to zero.
"""

from itertools import combinations

from .errors import BadTheoryError, StabilizationError
from .linalg import (
    Matrix,
    check_complex,
    homology_dim,
    kernel_of_array,
    rank_of_array,
)
from .poly import Bidegree, mono_degree
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
    """Largest i <= n with a nonzero H^i_Q cell in the window.  This is a
    window-bounded estimate of the cohomological dimension."""
    for i in range(M.ring.n, -1, -1):
        if not local_coh_table(M, "Q", i, window).is_zero():
            return i
    return 0


# ---------------------------------------------------------------------------
# the Koszul-limit oracle


def _monomial(ring, powers):
    """The monomial with powers[var] at each var, zero elsewhere."""
    return ring.monomial(tuple(powers.get(var, 0)
                               for var in range(ring.nvars)))


def _poly_action_matrix(layer, entry, d):
    """Matrix of multiplication by the polynomial on W, from W_d to the
    piece one entry-degree up."""
    p = layer.ring.p
    cols = [{} for _ in layer.basis(d)]
    for mono, coeff in entry.terms:
        for acc, col in zip(cols, layer.mult(mono, d).cols):
            for i, x in col.items():
                acc[i] = acc.get(i, 0) + coeff * x
    return Matrix((len(layer.basis(d + entry.bidegree())), len(cols)),
                  [{i: r for i, v in acc.items() if (r := v % p)}
                   for acc in cols])


def _place(mat, row, col, block):
    """Write block into mat with its top left corner at (row, col); the
    rows it covers are still empty in its columns."""
    for j, c in enumerate(block.cols, col):
        target = mat.cols[j]
        for i, v in c.items():
            target[row + i] = v


def _hom_spot(layer, module, d):
    """Dimensions and offsets of Hom(F, W)_d = (+)_k W_(d + shift_k)."""
    dims = [len(layer.basis(d + s)) for s in module.shifts]
    offsets = [0]
    for v in dims:
        offsets.append(offsets[-1] + v)
    return dims, offsets


def _hom_map(layer, res, i, d):
    """Degree-d piece of Hom(F_(i-1), W) -> Hom(F_i, W)."""
    L = res.length
    tgt_dims, tgt_off = _hom_spot(layer, res.modules[i], d) \
        if 0 <= i <= L else ([], [0])
    src_dims, src_off = _hom_spot(layer, res.modules[i - 1], d) \
        if 0 <= i - 1 <= L else ([], [0])
    mat = Matrix.zeros(tgt_off[-1], src_off[-1])
    if i < 1 or i > L or not (tgt_off[-1] and src_off[-1]):
        return mat
    matrix = res.maps[i - 1]
    for l, s_l in enumerate(res.modules[i].shifts):
        for k, s_k in enumerate(res.modules[i - 1].shifts):
            entry = matrix[k][l]
            if entry.is_zero() or src_dims[k] == 0 or tgt_dims[l] == 0:
                continue
            block = _poly_action_matrix(layer, entry, d + s_k)
            _place(mat, tgt_off[l], src_off[k], block)
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
    A = _hom_map(layer, res, j, d)
    B = _hom_map(layer, res, j + 1, d)
    return homology_dim(A, B, W.ring.p)


def _koszul_spot(layer, step, slots, p_spot, t, d):
    """Degree-d piece of the Koszul cochain spot p_spot for the powers
    (v^t : v in variables), each variable of degree step: one copy of
    M_piece per p_spot-subset of the variables, listed in slots.  Returns
    (slot list, piece, piece dimension)."""
    piece = d + Bidegree(step.a * t * p_spot, step.b * t * p_spot)
    return slots, piece, len(layer.basis(piece))


def _block_matrix(tgt, src, blocks):
    """Matrix between two Koszul spots from (target slot index, source slot
    index, block) triples; blocks are drawn only if both pieces are
    nonzero."""
    tgt_slots, _, tgt_dim = tgt
    src_slots, _, src_dim = src
    mat = Matrix.zeros(tgt_dim * len(tgt_slots), src_dim * len(src_slots))
    if src_dim and tgt_dim:
        for ti, si, block in blocks:
            _place(mat, ti * tgt_dim, si * src_dim, block)
    return mat


def _koszul_differential(layer, variables, t, src, tgt):
    """Matrix of K^p -> K^(p+1) between the spots src (K^p) and tgt
    (K^(p+1)) of the powers v^t."""
    ring = layer.ring
    p = ring.p
    tgt_index = {s: i for i, s in enumerate(tgt[0])}

    built = {}      # (variable index, sign) -> block, shared by the slots

    def blocks():
        for si, T in enumerate(src[0]):
            for j, v in enumerate(variables):
                if j in T:
                    continue
                sign = sum(1 for u in T if u < j) % 2
                if (j, 0) not in built:
                    built[j, 0] = layer.mult(
                        _monomial(ring, {v: t}), src[1])
                if (j, sign) not in built:
                    pos = built[j, 0]
                    built[j, 1] = Matrix(pos.shape, [
                        {r: p - x for r, x in c.items()} for c in pos.cols])
                yield tgt_index[tuple(sorted(T + (j,)))], si, built[j, sign]

    return _block_matrix(tgt, src, blocks())


def _koszul_transition(layer, variables, src, tgt):
    """Comparison K^p(t) -> K^p(t+1) between the spots src and tgt: on
    slot T multiply by prod_T v."""
    ring = layer.ring
    blocks = ((si, si, layer.mult(
                  _monomial(ring, {variables[j]: 1 for j in T}), src[1]))
              for si, T in enumerate(src[0]))
    return _block_matrix(tgt, src, blocks)


def cech_oracle(M: Presentation, theory: str, i: int, d,
                cap: int = None) -> int:
    """dim H^i_theory(M)_d by the limit-Koszul representation of the Cech
    complex on the ideal's variables.

    Raises StabilizationError if two successive transition isomorphisms are
    not observed within the iteration cap."""
    ring = M.ring
    if theory not in ("P", "Q"):
        raise BadTheoryError("the oracle covers the theories P and Q")
    _check_theory(ring, theory)
    d = Bidegree(*d)
    variables = (list(range(ring.m)) if theory == "P"
                 else list(range(ring.m, ring.nvars)))
    if i < 0 or i > len(variables):
        return 0
    layer = initial_module(M)
    # powers below the floor can miss torsion killed only by high powers:
    # it clears every relation and basis lead degree
    degrees = [mono_degree(ring, mono) for row in M.matrix for entry in row
               for mono, _ in entry.terms]
    degrees += [mono_degree(ring, mono) for _, mono, _ in layer.leads]
    floor = max(degrees, default=0) + 1
    if cap is None:
        radius = max(abs(d.a), abs(d.b))
        cap = max(4 + floor - 1 + radius, floor + 3)
    p = ring.p
    # all variables in one block have the same degree
    step = ring.variable_degree(variables[0])
    slots = {q: list(combinations(range(len(variables)), q))
             for q in (i - 1, i, i + 1) if q >= 0}

    def level(t):
        """H^i of K(t) at d, from one elimination of each map: the kernel
        of B (its width is dim ker B) and the rank of A, and the spot
        K^i(t)."""
        spots = {q: _koszul_spot(layer, step, qslots, q, t, d)
                 for q, qslots in slots.items()}
        B = _koszul_differential(layer, variables, t, spots[i], spots[i + 1])
        A = (_koszul_differential(layer, variables, t, spots[i - 1], spots[i])
             if i > 0 else Matrix.zeros(B.shape[1], 0))
        check_complex(A, B, p)
        kernel = kernel_of_array(B, p)
        rank_a = rank_of_array(A, p)
        return kernel.shape[1] - rank_a, A, rank_a, kernel, spots[i]

    prev = None
    consecutive = 0
    for t in range(max(1, floor), cap + 1):
        h, A, rank_a, kernel, spot = level(t)
        if prev is not None:
            ph, pkernel, pspot = prev
            chi = _koszul_transition(layer, variables, pspot, spot)
            mapped = chi.compose(pkernel, p)
            both = Matrix((A.shape[0], mapped.shape[1] + A.shape[1]),
                          mapped.cols + A.cols)
            induced = rank_of_array(both, p) - rank_a
            if ph == h and induced == h:
                consecutive += 1
                if consecutive >= 2:
                    return h
            else:
                consecutive = 0
        prev = (h, kernel, spot)
    raise StabilizationError(
        f"Koszul limit for H^{i}_{theory} at {d} not stable within "
        f"{cap} steps")
