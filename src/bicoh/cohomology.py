"""Local cohomology tables for the ideals P = (x), Q = (y) and R_+ = P + Q.

Three computation paths, all exact per bidegree:

* Ext against the canonical twist on the dualized minimal resolution
  (graded local duality).  For R_+ this gives the whole table after a
  Matlis flip; omega_S = S(-m,-n), omega_{K[x]} = K[x](-m),
  omega_{K[y]} = K[y](-n).
* Strand reduction: H^i_Q(M)_(a,b) is the degree-b piece of the local
  cohomology of the K[y]-module strand M_(a,*) at its maximal ideal,
  which local duality turns into an Ext dimension over K[y]; P is the
  mirror image over K[x].
* A brute-force oracle: H^i against (f_1, .., f_r) is the direct limit of
  the Koszul cohomologies of (f_1^t, .., f_r^t).  Each graded piece of a
  genuine Cech localization can be infinite dimensional, so the limit
  Koszul system *is* the degreewise representation of the localizations;
  the limit is detected by two successive transition isomorphisms past a
  degree floor, with a hard iteration cap.
"""

from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import BadTheoryError, StabilizationError
from .groebner import GroebnerBasis, ModuleElement, buchberger, normal_form
from .linalg import homology_dim, kernel_of_array, rank_of_array
from .poly import Bidegree, Polynomial, mono_divides, mono_mul
from .resolution import Presentation, ext_dim_raw, resolve
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


def ext_table(M: Presentation, j: int, window: Window) -> DimTable:
    """Graded dimensions of Ext^j(M, omega) over the window."""
    cells = {tuple(d): ext_dim_raw(M, j, d) for d in window.cells()}
    return DimTable(window=window, cells=cells, p=M.ring.p)


# ---------------------------------------------------------------------------
# strand-duality path


@lru_cache(maxsize=None)
def _strand_ext_dim(strand: Presentation, spot: int, degree: int) -> int:
    """dim Ext^spot(strand, omega) in single degree `degree`; the strand
    ring has one empty variable block, so the bidegree is one-sided."""
    ring = strand.ring
    d = Bidegree(degree, 0) if ring.n == 0 else Bidegree(0, degree)
    return ext_dim_raw(strand, spot, d)


def local_coh_table(M: Presentation, theory: str, i: int,
                    window: Window) -> CohomologyTable:
    """Exact dimensions of H^i_theory(M) over the window."""
    ring = M.ring
    _check_theory(ring, theory)
    if i < 0:
        raise ValueError("cohomological index must be a natural number")
    cells = {}
    if theory == "Q":
        spot = ring.n - i
        for a in window.a_range:
            strand = y_strand(M, a)
            for b in window.b_range:
                cells[(a, b)] = _strand_ext_dim(strand, spot, -b)
    elif theory == "P":
        spot = ring.m - i
        for b in window.b_range:
            strand = x_strand(M, b)
            for a in window.a_range:
                cells[(a, b)] = _strand_ext_dim(strand, spot, -a)
    else:
        spot = ring.nvars - i
        for d in window.cells():
            cells[tuple(d)] = ext_dim_raw(M, spot, -d)
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


@lru_cache(maxsize=None)
def _relation_gb(M: Presentation):
    cols = [c for c in M.columns() if c]
    if not cols:
        return GroebnerBasis(M.target, ())
    return buchberger(cols, module=M.target)


@lru_cache(maxsize=None)
def _std_basis(M: Presentation, d):
    """Monomials of the free cover not divisible by a lead term of the
    relation basis: a K-basis of M_d."""
    d = Bidegree(*d)
    leads = _relation_gb(M).lead_terms()
    basis = []
    for k, mono in M.target.basis_at(d):
        if any(gk == k and mono_divides(gm, mono) for gk, gm, _ in leads):
            continue
        basis.append((k, mono))
    return tuple(basis)


@lru_cache(maxsize=None)
def _var_mult_matrix(M: Presentation, var: int, d):
    """Matrix of multiplication by the variable `var` from M_d to the next
    piece, in the standard-monomial bases."""
    ring = M.ring
    d = Bidegree(*d)
    d2 = d + ring.variable_degree(var)
    src = _std_basis(M, d)
    tgt = _std_basis(M, d2)
    index = {key: i for i, key in enumerate(tgt)}
    gb = _relation_gb(M)
    arr = np.zeros((len(tgt), len(src)), dtype=np.int64)
    step = tuple(1 if t == var else 0 for t in range(ring.nvars))
    for col, (k, mono) in enumerate(src):
        shifted = mono_mul(mono, step)
        if (k, shifted) in index:
            arr[index[(k, shifted)], col] = 1
            continue
        coords = [ring.zero()] * M.target.rank
        coords[k] = Polynomial(ring, ((shifted, 1),))
        nf = normal_form(ModuleElement(M.target, tuple(coords)), gb)
        for kk, poly in enumerate(nf.coords):
            for mm, coeff in poly.terms:
                arr[index[(kk, mm)], col] = coeff
    return arr


def _power_mult(M, var, d, power):
    """Multiplication by var^power starting at degree d (composite of the
    cached single steps)."""
    ring = M.ring
    step = ring.variable_degree(var)
    arr = None
    cur = Bidegree(*d)
    for _ in range(power):
        nxt = _var_mult_matrix(M, var, cur)
        arr = nxt if arr is None else (nxt @ arr) % ring.p
        cur = cur + step
    if arr is None:
        n = len(_std_basis(M, d))
        arr = np.eye(n, dtype=np.int64)
    return arr


def _mono_mult_matrix(M, mono, d):
    """Multiplication by the monomial on the graded pieces of M, starting
    at degree d."""
    ring = M.ring
    arr = None
    cur = Bidegree(*d)
    for var, e in enumerate(mono):
        if not e:
            continue
        step = _power_mult(M, var, cur, e)
        arr = step if arr is None else (step @ arr) % ring.p
        cur = cur + Bidegree(ring.variable_degree(var).a * e,
                             ring.variable_degree(var).b * e)
    if arr is None:
        n = len(_std_basis(M, d))
        arr = np.eye(n, dtype=np.int64)
    return arr


def _poly_action_matrix(W, entry, d):
    """Matrix of multiplication by the polynomial on W, from W_d to the
    piece one entry-degree up."""
    ring = W.ring
    d = Bidegree(*d)
    d2 = d + entry.bidegree()
    rows = len(_std_basis(W, d2))
    cols = len(_std_basis(W, d))
    arr = np.zeros((rows, cols), dtype=np.int64)
    for mono, coeff in entry.terms:
        arr = (arr + coeff * _mono_mult_matrix(W, mono, d)) % ring.p
    return arr


def _hom_spot(W, module, d):
    """Dimensions and offsets of Hom(F, W)_d = (+)_k W_(d + shift_k)."""
    d = Bidegree(*d)
    dims = [len(_std_basis(W, d + s)) for s in module.shifts]
    offsets = [0]
    for v in dims:
        offsets.append(offsets[-1] + v)
    return dims, offsets


def _hom_map(W, res, i, d):
    """Degree-d piece of Hom(F_(i-1), W) -> Hom(F_i, W)."""
    d = Bidegree(*d)
    L = res.length
    tgt_dims, tgt_off = _hom_spot(W, res.modules[i], d) \
        if 0 <= i <= L else ([], [0])
    src_dims, src_off = _hom_spot(W, res.modules[i - 1], d) \
        if 0 <= i - 1 <= L else ([], [0])
    arr = np.zeros((tgt_off[-1], src_off[-1]), dtype=np.int64)
    if i < 1 or i > L or arr.size == 0:
        return arr
    matrix = res.maps[i - 1]
    for l, s_l in enumerate(res.modules[i].shifts):
        for k, s_k in enumerate(res.modules[i - 1].shifts):
            entry = matrix[k][l]
            if entry.is_zero() or src_dims[k] == 0 or tgt_dims[l] == 0:
                continue
            block = _poly_action_matrix(W, entry, d + s_k)
            arr[tgt_off[l]:tgt_off[l + 1], src_off[k]:src_off[k + 1]] = block
    return arr


def ext_into_dim(M: Presentation, W: Presentation, j: int, d) -> int:
    """dim_K Ext^j(M, W)_d for an arbitrary coefficient module W over the
    same ring, via the Hom complex of the minimal resolution of M."""
    if M.ring != W.ring:
        raise BadTheoryError("modules over different rings")
    res = resolve(M)
    if j < 0 or j > res.length:
        return 0
    A = _hom_map(W, res, j, d)
    B = _hom_map(W, res, j + 1, d)
    return homology_dim(A, B, W.ring.p)


def _koszul_spot(M, variables, t, p_spot, d):
    """Degree-d piece of the Koszul cochain spot p_spot for the powers
    (v^t : v in variables): returns (slot list, block dimension)."""
    ring = M.ring
    step = sum((ring.variable_degree(v) for v in variables[:1]),
               Bidegree(0, 0))
    # all variables in one block have the same degree
    piece = Bidegree(*d) + Bidegree(step.a * t * p_spot, step.b * t * p_spot)
    slots = list(combinations(range(len(variables)), p_spot))
    dim = len(_std_basis(M, piece))
    return slots, piece, dim


def _koszul_differential(M, variables, t, p_spot, d):
    """Matrix of K^p -> K^(p+1) at bidegree d."""
    ring = M.ring
    nv = len(variables)
    src_slots, src_deg, src_dim = _koszul_spot(M, variables, t, p_spot, d)
    tgt_slots, _, tgt_dim = _koszul_spot(M, variables, t, p_spot + 1, d)
    tgt_index = {s: i for i, s in enumerate(tgt_slots)}
    A = np.zeros((tgt_dim * len(tgt_slots), src_dim * len(src_slots)),
                 dtype=np.int64)
    if src_dim == 0 or tgt_dim == 0:
        return A
    for si, T in enumerate(src_slots):
        for j in range(nv):
            if j in T:
                continue
            sign = (-1) ** sum(1 for u in T if u < j)
            block = _power_mult(M, variables[j], src_deg, t)
            ti = tgt_index[tuple(sorted(T + (j,)))]
            A[ti * tgt_dim:(ti + 1) * tgt_dim,
              si * src_dim:(si + 1) * src_dim] = (sign * block) % ring.p
    return A


def _koszul_transition(M, variables, t, p_spot, d):
    """Comparison K^p(t) -> K^p(t+1): on slot T multiply by prod_T v."""
    ring = M.ring
    slots, src_deg, src_dim = _koszul_spot(M, variables, t, p_spot, d)
    _, tgt_deg, tgt_dim = _koszul_spot(M, variables, t + 1, p_spot, d)
    A = np.zeros((tgt_dim * len(slots), src_dim * len(slots)),
                 dtype=np.int64)
    if src_dim == 0 or tgt_dim == 0:
        return A
    for si, T in enumerate(slots):
        block = None
        cur = src_deg
        for j in T:
            step = _power_mult(M, variables[j], cur, 1)
            block = step if block is None else (step @ block) % ring.p
            cur = cur + ring.variable_degree(variables[j])
        if block is None:
            block = np.eye(src_dim, dtype=np.int64)
        A[si * tgt_dim:(si + 1) * tgt_dim,
          si * src_dim:(si + 1) * src_dim] = block
    return A


def _oracle_floor(M):
    """Powers below this can miss torsion killed only by high powers: the
    floor clears every relation and basis lead degree."""
    top = 0
    for row in M.matrix:
        for entry in row:
            for mono, _ in entry.terms:
                top = max(top, sum(mono))
    for _, mono, _ in _relation_gb(M).lead_terms():
        top = max(top, sum(mono))
    return top + 1


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
    floor = _oracle_floor(M)
    if cap is None:
        radius = max(abs(d.a), abs(d.b))
        cap = max(4 + floor - 1 + radius, floor + 3)
    p = ring.p

    def level(t):
        A = _koszul_differential(M, variables, t, i - 1, d) if i > 0 else None
        B = _koszul_differential(M, variables, t, i, d)
        if A is None:
            A = np.zeros((B.shape[1], 0), dtype=np.int64)
        h = homology_dim(A, B, p)
        kernel = kernel_of_array(B, p)
        return h, A, kernel

    prev = None
    consecutive = 0
    for t in range(max(1, floor), cap + 1):
        h, A, kernel = level(t)
        if prev is not None:
            ph, pkernel = prev
            chi = _koszul_transition(M, variables, t - 1, i, d)
            mapped = (chi @ pkernel) % p
            stacked = np.hstack([mapped, A])
            induced = rank_of_array(stacked, p) - rank_of_array(A, p)
            if ph == h and induced == h:
                consecutive += 1
                if consecutive >= 2:
                    return h
            else:
                consecutive = 0
        prev = (h, kernel)
    raise StabilizationError(
        f"Koszul limit for H^{i}_{theory} at {d} not stable within "
        f"{cap} steps")
