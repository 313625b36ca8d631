"""Degreewise verification of the dualities tying the three theories.

Every suite turns an isomorphism, exact sequence or vanishing statement
into exact statements about table cells: isomorphisms become cell
equalities computed along two independent paths, exact sequences become
alternating-sum identities or neighbour inequalities.  Maps are never
constructed; dimensions are what the engine knows exactly.

Index conventions: for a module of depth t and dimension s the second-page
grid E2[i, j] = H^(m-j)_P(H^i_max(M) dual) lives in the box
[t, s] x [0, m]; the page-two differential moves (i, j) to (i+1, j-2) and
the abutment H^(i+j-m)_Q(M) dual is filtered by j.  D_u denotes the
Matlis dual of H^u_max(M), the finitely generated module
Ext^(m+n-u)(M, omega), so E2[i, j] = H^(m-j)_P(D_i).
"""

from dataclasses import dataclass, field, replace

from .cohomology import ext_table, local_coh_table
from .errors import (
    BadModuleError,
    BadProfileError,
    NotCohenMacaulayError,
    NotGeneralizedCMError,
)
from .groebner import FreeModule
from .poly import block_dim
from .resolution import (
    Presentation,
    ext_presentation,
    free_presentation,
    initial_module,
    profile,
)
from .strands import strand
from .tables import Window, matlis_flip


@dataclass(frozen=True)
class CellFailure:
    cell: tuple
    lhs: int
    rhs: int
    detail: str

    def __str__(self):
        return (f"cell {self.cell}: {self.detail}: "
                f"lhs={self.lhs} rhs={self.rhs}")


@dataclass(frozen=True)
class CheckReport:
    suite: str
    window: Window
    passed: bool
    checked: int
    failure: CellFailure | None = None
    notes: tuple = ()
    verdicts: dict = field(default_factory=dict)
    inconclusive: bool = False

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        if self.inconclusive:
            status += " (inconclusive)"
        out = f"[{status}] {self.suite}: {self.checked} comparisons"
        if self.failure is not None:
            out += f"\n  first counterexample: {self.failure}"
        for note in self.notes:
            out += f"\n  note: {note}"
        return out


def _report(suite, window, rows, notes=()):
    """rows yields (cell, ok, lhs, rhs, detail)."""
    verdicts = {}
    failure = None
    checked = 0
    for cell, ok, lhs, rhs, detail in rows:
        key = tuple(cell)
        verdicts[key] = verdicts.get(key, True) and ok
        checked += 1
        if not ok and failure is None:
            failure = CellFailure(key, lhs, rhs, detail)
    return CheckReport(suite=suite, window=window, passed=failure is None,
                       checked=checked, failure=failure, notes=tuple(notes),
                       verdicts=verdicts)


def _q_dual_table(M, u, window):
    """Table of the Matlis dual of H^u_Q(M) over the window."""
    return matlis_flip(local_coh_table(M, "Q", u, -window))


def _dual(M, u):
    """D_u = Ext^(m+n-u)(M, omega), the Matlis dual of H^u_max(M)."""
    return ext_presentation(M, M.ring.nvars - u)


def _hp(M, u, k, window):
    """Table of H^k_P(D_u) over the window."""
    return local_coh_table(_dual(M, u), "P", k, window)


def _equal(window, *pairs):
    """Rows comparing tables cell by cell, given (lhs, rhs, detail)
    pairs; at each cell one row per pair, in the order given."""
    for d in window.cells():
        for lhs, rhs, detail in pairs:
            yield (d, lhs[d] == rhs[d], lhs[d], rhs[d], detail)


def _alternating(window, terms, detail):
    """Rows stating that the alternating sum of the tables vanishes; for
    a single table, that the table vanishes."""
    for d in window.cells():
        total = sum((-1) ** idx * tab[d] for idx, tab in enumerate(terms))
        yield (d, total == 0, total, 0, detail)


# ---------------------------------------------------------------------------
# canonical and free duality


def closed_form_canonical(ring, d) -> int:
    """dim at d of the dual of the top Q-cohomology of the ring itself:
    the tensor K[x]-dual (x) K[y](-n)."""
    a, b = d
    return block_dim(-a, ring.m) * block_dim(b - ring.n, ring.n)


def check_lemma_simple(ring, window: Window) -> CheckReport:
    """Top P-cohomology of the canonical module against the flipped top
    Q-cohomology of the ring, with the closed binomial form as referee:
    the free suite for F = S, whose dual F* is the canonical module."""
    report = check_free(FreeModule(ring, ((0, 0),)), window)
    return replace(report, suite="simple")


def check_free(F: FreeModule, window: Window) -> CheckReport:
    """Duality for a free module with arbitrary shifts: H^m_P(F*) against
    the flipped H^n_Q(F), plus the shifted closed form."""
    ring = F.ring
    if ring.m < 1 or ring.n < 1:
        raise BadModuleError("both variable blocks must be nonempty")
    c = ring.canonical_degree
    f_pres = free_presentation(ring, F.shifts)
    fstar = free_presentation(ring, [c - s for s in F.shifts])
    lhs = local_coh_table(fstar, "P", ring.m, window)
    rhs = _q_dual_table(f_pres, ring.n, window)
    closed = {d: sum(closed_form_canonical(ring, d + s) for s in F.shifts)
              for d in window.cells()}
    return _report("free", window, _equal(
        window, (lhs, rhs, "H^m_P(F*) vs dual of H^n_Q(F)"),
        (lhs, closed, "H^m_P(F*) vs shifted closed form")))


# ---------------------------------------------------------------------------
# the spectral grid and its Euler characteristic


@dataclass(frozen=True)
class SpectralGrid:
    """Second-page tables E2[i, j] over the box [t, s] x [0, m] and the
    abutment tables (duals of the Q-cohomology)."""

    module: Presentation
    window: Window
    i_range: tuple
    j_range: tuple
    tables: dict
    abutment: dict


def build_spectral_grid(M: Presentation, window: Window,
                        i_range=None) -> SpectralGrid:
    ring = M.ring
    prof = profile(M)
    if i_range is None:
        i_range = (prof.depth, prof.dim)
    tables = {}
    for i in range(i_range[0], i_range[1] + 1):
        dual = _dual(M, i)
        for j in range(0, ring.m + 1):
            tables[(i, j)] = local_coh_table(dual, "P", ring.m - j, window)
    abutment = {}
    for u in range(prof.depth - ring.m, ring.n + 1):
        abutment[u] = _q_dual_table(M, u, window)
    return SpectralGrid(module=M, window=window, i_range=tuple(i_range),
                        j_range=(0, ring.m), tables=tables,
                        abutment=abutment)


def check_euler(M: Presentation, window: Window) -> CheckReport:
    """A convergent spectral sequence preserves the per-bidegree Euler
    characteristic: the signed sum of the second-page cells equals the
    signed sum of the abutment cells.  Holds for every module."""
    ring = M.ring
    grid = build_spectral_grid(M, window)

    def rows():
        for d in window.cells():
            lhs = 0
            for (i, j), table in grid.tables.items():
                sign = -1 if (i + j - ring.m) % 2 else 1
                lhs += sign * table[d]
            rhs = 0
            for u, table in grid.abutment.items():
                rhs += (-1) ** (u % 2) * table[d]
            yield (d, lhs == rhs, lhs, rhs,
                   "signed E2 sum vs signed abutment sum")

    return _report("euler", window, rows())


# ---------------------------------------------------------------------------
# degenerations, corners, exact sequences


def check_cm_degeneration(M: Presentation, window: Window) -> CheckReport:
    """For Cohen-Macaulay M the grid collapses to one column and every
    H^k_P of the dualized top cohomology matches the flipped H^(s-k)_Q.
    Checked for k in [-1, m+1]; outside [0, m] both sides must vanish."""
    ring = M.ring
    prof = profile(M)
    if not prof.is_cm:
        raise NotCohenMacaulayError(
            f"module is not CM: depth {prof.depth} < dim {prof.dim}")
    s = prof.dim
    dual = _dual(M, s)

    def rows():
        for k in range(-1, ring.m + 2):
            yield from _equal(window, (
                local_coh_table(dual, "P", k, window),
                _q_dual_table(M, s - k, window),
                f"k={k}: H^k_P(dual top) vs dual H^(s-k)_Q"))

    return _report("cm", window, rows())


def check_corner(M: Presentation, window: Window) -> CheckReport:
    """The two corner isomorphisms of the grid (no CM hypothesis), plus
    vanishing of H^i_Q(M) for i < t - m."""
    ring = M.ring
    prof = profile(M)
    t, s = prof.depth, prof.dim

    def rows():
        yield from _equal(
            window,
            (_hp(M, t, ring.m, window), _q_dual_table(M, t - ring.m, window),
             "corner (t,0): H^m_P(dual H^t) vs dual H^(t-m)_Q"),
            (_hp(M, s, 0, window), _q_dual_table(M, s, window),
             "corner (s,m): H^0_P(dual H^s) vs dual H^s_Q"))
        for i in range(0, t - ring.m):
            yield from _alternating(
                window, [local_coh_table(M, "Q", i, window)],
                f"vanishing H^{i}_Q below the corner")

    return _report("corner", window, rows())


def check_gencm_les(M: Presentation, window: Window) -> CheckReport:
    """For strictly generalized CM modules: the long exact sequence tying
    H^r_P(dual top), duals of H^(s-r)_Q and duals of H^(s-r)_max has
    vanishing alternating sums, and the Q- and max-ideal cohomologies agree
    below s - m."""
    ring = M.ring
    prof = profile(M)
    if prof.is_cm or not prof.is_gencm:
        raise NotGeneralizedCMError(
            "suite needs a generalized CM module that is not CM "
            f"(got depth {prof.depth}, dim {prof.dim}, "
            f"gencm={prof.is_gencm})")
    s = prof.dim
    dual_top = _dual(M, s)
    terms = []
    for r in range(1, ring.m + 1):
        terms.append(local_coh_table(dual_top, "P", r, window))
        terms.append(_q_dual_table(M, s - r, window))
        terms.append(ext_table(M, ring.nvars - (s - r), window))

    def rows():
        yield from _alternating(window, terms, "alternating sum of the LES")
        for i in range(0, s - ring.m):
            yield from _equal(window, (
                local_coh_table(M, "R+", i, window),
                local_coh_table(M, "Q", i, window),
                f"H^{i}_max vs H^{i}_Q below s - m"))

    return _report("gencm", window, rows())


def check_dim_r0_le1(M: Presentation, window: Window) -> CheckReport:
    """dim R_0 = m <= 1.  m = 0: the Q- and max-ideal theories coincide.
    m = 1: the short exact sequences force per-cell additivity
    dual H^i_Q = H^1_P(dual H^(i+1)_max) + H^0_P(dual H^i_max)."""
    ring = M.ring
    if ring.m > 1:
        raise BadModuleError(f"suite needs m <= 1, ring has m={ring.m}")

    def rows_m0():
        for i in range(0, ring.n + 1):
            yield from _equal(window, (
                local_coh_table(M, "R+", i, window),
                local_coh_table(M, "Q", i, window),
                f"i={i}: H^i_max vs H^i_Q (m=0)"))

    def rows_m1():
        for i in range(0, ring.nvars + 1):
            q = _q_dual_table(M, i, window)
            h1 = _hp(M, i + 1, 1, window)
            h0 = _hp(M, i, 0, window)
            pieces = {d: h1[d] + h0[d] for d in window.cells()}
            yield from _equal(window, (
                q, pieces, f"i={i}: dual H^i_Q vs H^1_P + H^0_P pieces"))

    rows = rows_m0() if ring.m == 0 else rows_m1()
    return _report("dimle1", window, rows)


def check_structure1(M: Presentation, window: Window) -> CheckReport:
    """For CM M: every y-strand of the dualized top cohomology satisfies
    Ext^(m-k)(strand_j, omega over K[x]) = H^(s-k)_Q(M) in row -j (the
    strand index negates under the dual), and the Krull dimension of that
    Ext is at most k."""
    ring = M.ring
    prof = profile(M)
    if not prof.is_cm:
        raise NotCohenMacaulayError("structure suite needs a CM module")
    s = prof.dim
    dual_top = _dual(M, s)
    qwin = Window(window.amin, window.amax, -window.bmax, -window.bmin)
    row_win = Window(window.amin, window.amax, 0, 0)

    def rows():
        for k in range(0, ring.m + 1):
            qtab = local_coh_table(M, "Q", s - k, qwin)
            for j in window.b_range:
                N = strand(dual_top, 0, j)
                row = ext_table(N, ring.m - k, row_win)
                for i in window.a_range:
                    lhs, rhs = row[(i, 0)], qtab[(i, -j)]
                    yield ((i, j), lhs == rhs, lhs, rhs,
                           f"k={k}, strand j={j}: Ext over K[x] vs "
                           "Q-table row -j")
                ext = ext_presentation(N, ring.m - k)
                dim = initial_module(ext).krull_dim()
                yield ((0, j), dim <= k, dim, k,
                       f"k={k}, strand j={j}: Krull dim bound")

    return _report("structure", window, rows())


def _exactness_rows(tables, window, exact_positions, label):
    """Inequalities implied by exactness at the listed positions of a
    bounded complex: dim(term) <= dim(left neighbour) + dim(right
    neighbour), with missing neighbours counted as zero."""
    for pos in exact_positions:
        name, tab = tables[pos]
        left = tables[pos - 1][1] if pos - 1 >= 0 else None
        right = tables[pos + 1][1] if pos + 1 < len(tables) else None
        for d in window.cells():
            bound = (left[d] if left is not None else 0) + \
                    (right[d] if right is not None else 0)
            yield (d, tab[d] <= bound, tab[d], bound,
                   f"{label}: {name} exceeds its neighbours")


def check_five_term(M: Presentation, window: Window) -> CheckReport:
    """Neighbour inequalities for the two five-term corner sequences.

    Corner (t,0):  dual H^(t+2-m)_Q -> H^(m-2)_P(D_t) -> H^m_P(D_(t+1))
                   -> dual H^(t+1-m)_Q -> H^(m-1)_P(D_t) -> 0,
    exact from the second spot on.  Corner (s,m):
    0 -> H^1_P(D_s) -> dual H^(s-1)_Q -> H^0_P(D_(s-1)) -> H^2_P(D_s)
    -> dual H^(s-2)_Q, exact up to the last arrow (D_u is the dual of
    H^u at the maximal ideal)."""
    ring = M.ring
    prof = profile(M)
    t, s = prof.depth, prof.dim
    d_t, d_s = _dual(M, t), _dual(M, s)
    seq1 = [
        ("dual H^(t+2-m)_Q", _q_dual_table(M, t + 2 - ring.m, window)),
        ("H^(m-2)_P(D_t)", local_coh_table(d_t, "P", ring.m - 2, window)),
        ("H^m_P(D_(t+1))", _hp(M, t + 1, ring.m, window)),
        ("dual H^(t+1-m)_Q", _q_dual_table(M, t + 1 - ring.m, window)),
        ("H^(m-1)_P(D_t)", local_coh_table(d_t, "P", ring.m - 1, window)),
    ]
    seq2 = [
        ("H^1_P(D_s)", local_coh_table(d_s, "P", 1, window)),
        ("dual H^(s-1)_Q", _q_dual_table(M, s - 1, window)),
        ("H^0_P(D_(s-1))", _hp(M, s - 1, 0, window)),
        ("H^2_P(D_s)", local_coh_table(d_s, "P", 2, window)),
        ("dual H^(s-2)_Q", _q_dual_table(M, s - 2, window)),
    ]

    def rows():
        # seq1 is exact from its second term on (last map surjective)
        yield from _exactness_rows(seq1, window, [1, 2, 3, 4],
                                   "corner (t,0)")
        # seq2 is exact up to its last arrow (no claim at the final term)
        yield from _exactness_rows(seq2, window, [0, 1, 2, 3],
                                   "corner (s,m)")

    return _report("fiveterm", window, rows())


def check_depth_sminus1_les(M: Presentation, window: Window) -> CheckReport:
    """depth = dim - 1: the grid has two columns and unrolls into one long
    exact sequence; its alternating sum vanishes per bidegree."""
    ring = M.ring
    prof = profile(M)
    t, s = prof.depth, prof.dim
    if t != s - 1:
        raise BadProfileError(
            f"suite needs depth = dim - 1, got depth {t}, dim {s}")
    d_s, d_s1 = _dual(M, s), _dual(M, s - 1)
    terms = []
    for jj in range(ring.m, -2, -1):
        terms.append(local_coh_table(d_s, "P", ring.m - jj, window))
        terms.append(_q_dual_table(M, s - ring.m + jj, window))
        terms.append(local_coh_table(d_s1, "P", ring.m - jj - 1, window))
    return _report("depthles", window, _alternating(
        window, terms, "alternating sum of the two-column LES"))
