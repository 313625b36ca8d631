import hashlib
import sys

import pytest

from bicoh import strands
from bicoh.checks import check_structure1
from bicoh.cohomology import local_coh_table
from bicoh.errors import NotCohenMacaulayError, UnsupportedIndexError
from bicoh.fixtures import named_fixtures, random_quotients, standard_ring
from bicoh.poly import RingSpec
from bicoh.resolution import (
    ext_presentation,
    free_presentation,
    profile,
    quotient_by_polys,
)
from bicoh.strands import strand_dim
from bicoh.tables import Window
from bicoh.tame import (
    EVENTUALLY_NONZERO,
    INCONCLUSIVE,
    limit_profile_check,
    reg_scan,
    strand_nonvanishing,
    tame_scan,
)


def test_strand_nonvanishing_free(ring):
    omega = free_presentation(ring, [ring.canonical_degree])
    for j in range(ring.n, ring.n + 4):
        assert strand_nonvanishing(omega, ring.m, j)
        for k in range(0, ring.m):
            assert not strand_nonvanishing(omega, k, j)
    assert not strand_nonvanishing(omega, ring.m + 1, ring.n)
    assert not strand_nonvanishing(omega, -1, ring.n)


def test_strand_nonvanishing_matches_table_rows(ring, two_relations):
    # the decision procedure and the table path must agree on column support
    N = ext_presentation(two_relations, 1)
    window = Window(-6, 6, -4, 4)
    for k in range(0, ring.m + 1):
        table = local_coh_table(N, "P", k, window)
        for j in window.b_range:
            has_cell = any(table[(a, j)] for a in window.a_range)
            if has_cell:
                assert strand_nonvanishing(N, k, j)


def test_tame_scan_free_module_at_top_index(ring, S):
    report = tame_scan(S, ring.n, (-10, 10))
    assert report.overall == EVENTUALLY_NONZERO
    assert all(report.verdicts[j] for j in range(-10, -ring.n))


def test_tame_scan_corner_indices_on_fixtures(ring):
    for name, M in named_fixtures(ring).items():
        prof = profile(M)
        for k in {prof.dim, prof.depth - ring.m}:
            report = tame_scan(M, k, (-10, 10))
            assert report.overall != INCONCLUSIVE, (name, k, report)


def test_tame_scan_rejects_unsupported_index(two_relations):
    with pytest.raises(UnsupportedIndexError):
        tame_scan(two_relations, 1, (-5, 5))


def test_tame_scan_cm_module_any_index(hypersurface):
    for k in range(0, 4):
        report = tame_scan(hypersurface, k, (-8, 8))
        assert report.overall != INCONCLUSIVE


def test_limit_profile_of_dual_of_ring(ring, S):
    # strands of the dualized top cohomology of the ring are free K[x]
    N = ext_presentation(S, 0)
    report = limit_profile_check(N, (0, 8))
    assert report.passed and not report.inconclusive
    scan = tame_scan(S, ring.n, (-8, 8))
    assert scan.limit_depth == ring.m and scan.limit_dim == ring.m


def test_limit_profile_formula_on_hypersurface_quotient(ring, xy):
    x1, x2, y1, y2 = xy
    N = quotient_by_polys(ring, [x1])
    report = limit_profile_check(N, (0, 8))
    assert report.passed
    assert any("depth 1" in note for note in report.notes)


def test_limit_profile_small_window_inconclusive(ring, xy):
    # relations pushing the stable range past a one-cell window
    x1, x2, y1, y2 = xy
    N = quotient_by_polys(ring, [y1 * y1 * y1 * y2])
    report = limit_profile_check(N, (0, 1))
    assert report.inconclusive or report.passed


def test_limit_profile_needs_two_trailing_strands():
    # on 0..2 the last strand alone reads depth 1, dim 1, which would fail
    # the limit-depth identity; wider windows show depth 0, dim 1 and the
    # identity holding
    N = random_quotients(RingSpec(2, 2), 8, 2026)[5]
    report = limit_profile_check(N, (0, 2))
    assert report.inconclusive and report.passed
    assert report.notes == ("the trailing half holds one strand; window "
                            "too small to decide",)
    for jwindow in ((0, 6), (0, 8)):
        report = limit_profile_check(N, jwindow)
        assert report.passed and not report.inconclusive, jwindow
        assert report.notes == ("stable strand profile: depth 0, dim 1",
                                "limit depth identity holds: 0 = dim N - "
                                "dim N/(x)N")


@pytest.mark.parametrize("jwindow", [(0, 8), (0, 7)])
def test_limit_profile_decides_on_the_trailing_half(ring, S, monkeypatch,
                                                    jwindow):
    # the strand profiles are forced: (2, 2) everywhere but at one strand.
    # The scan is decided exactly when that strand lies before the
    # trailing floor(n/2) of the n strands (j >= 5 on 0..8, where the
    # middle strand j = 4 is left out, and j >= 4 on 0..7), and the
    # verdict of tame_scan's patterns, read toward either end, follows the
    # same rule
    import bicoh.tame as tame
    N = ext_presentation(S, 0)
    lo, hi = jwindow
    first = hi + 1 - (hi + 1 - lo) // 2
    for odd in range(lo, hi + 1):
        monkeypatch.setattr(
            tame, "_strand_profile",
            lambda N, j, odd=odd: (1, 2) if j == odd else (2, 2))
        report = limit_profile_check(N, jwindow)
        assert report.inconclusive == (odd >= first), (jwindow, odd)
        pattern = {j: tame._strand_profile(N, j) for j in range(lo, hi + 1)}
        assert (tame._decide(pattern, toward_min=False) is None) == \
            (odd >= first), (jwindow, odd)
        mirrored = {-j: value for j, value in pattern.items()}
        assert (tame._decide(mirrored, toward_min=True) is None) == \
            (odd >= first), (jwindow, odd)
        if odd < first:
            assert report.passed
            assert report.notes[0] == ("stable strand profile: depth 2, "
                                       "dim 2")
    monkeypatch.setattr(tame, "_strand_profile",
                        lambda N, j: (2, 2) if j < 4 else None)
    report = limit_profile_check(N, jwindow)
    assert not report.inconclusive
    assert report.notes == ("trailing strands are zero modules",)


def _implied_lower_bound(report, k):
    """(slope, intercept) of the line below a(H^k_Q(M)_j): the initial
    degree of row j sits on or above slope*j + intercept."""
    return (report.slope, report.top_dim - k - report.intercept)


def test_reg_scan_of_ring(ring, S):
    report = reg_scan(S, (0, 6))
    # strands of the dualized top cohomology are free on degree-m
    # generators: regularity is the constant m, the fitted slope is 0
    for j in range(ring.n, 7):
        assert report.reg[j] == ring.m
    assert report.slope == 0 and report.intercept == ring.m
    assert all(res <= 0 for res in report.residuals.values())
    # H^n_Q(S)_(a,j) is nonzero from a = 0 on, in every row j <= -n
    assert _implied_lower_bound(report, ring.n) == (0, 0)


def test_reg_scan_degenerate_window(ring, S):
    report = reg_scan(S, (ring.n, ring.n))
    assert report.degenerate


def test_reg_scan_hypersurface(ring, hypersurface):
    report = reg_scan(hypersurface, (-4, 4))
    assert not report.degenerate
    assert all(res <= 0 for res in report.residuals.values())


def test_reg_scan_rejects_non_cm(two_relations):
    with pytest.raises(NotCohenMacaulayError):
        reg_scan(two_relations, (0, 2))


def test_verdict_monotone_under_widening(ring):
    for name, M in named_fixtures(ring).items():
        prof = profile(M)
        for k in {prof.dim, prof.depth - ring.m}:
            small = tame_scan(M, k, (-6, 6))
            wide = tame_scan(M, k, (-14, 14))
            if small.overall != INCONCLUSIVE:
                assert wide.overall == small.overall, (name, k)


def test_cm_limits_predict_vanishing_pattern(ring, hypersurface):
    # with limit depth t0 and limit dimension s0 of the dualized-top
    # strands, the scan at index k <= s - s0 or k >= s - t0 must come out
    # nonzero exactly when s - k hits s0 resp. t0
    prof = profile(hypersurface)
    s = prof.dim
    probe = tame_scan(hypersurface, s, (-10, 10))
    t0, s0 = probe.limit_depth, probe.limit_dim
    assert t0 is not None and s0 is not None
    for k in range(0, s + 1):
        if not (k <= s - s0 or k >= s - t0):
            continue
        report = tame_scan(hypersurface, k, (-10, 10))
        expect_nonzero = (s - k) in (s0, t0)
        assert report.overall != INCONCLUSIVE, (k, report)
        assert (report.overall == EVENTUALLY_NONZERO) == expect_nonzero, \
            (k, t0, s0, report)


def test_no_limit_where_the_dual_strands_vanish_far_out(ring):
    # a single nonzero strand inside the window is no limit: the dual's
    # strands over K[x] at -j are zero for every j far below the window
    fixtures = named_fixtures(ring)
    for name, ks in (("S/(y1,y2)", range(-1, 4)), ("S/(x1y1,x1y2)", [0])):
        M = fixtures[name]
        prof = profile(M)
        dual = ext_presentation(M, ring.nvars - prof.depth)
        assert all(strand_dim(dual, 0, c) < 0 for c in range(7, 40)), name
        for k in ks:
            report = tame_scan(M, k, (-6, 4))
            assert (report.limit_depth, report.limit_dim) == (None, None), \
                (name, k, str(report))


def test_strand_consumers_are_pinned():
    # the reports of every consumer of the strands over K[x] (tame scans at
    # every supported k, regularity scans of the CM modules, limit-profile
    # checks on three windows) hash to one digest.  It was re-recorded
    # once, when the tame scans' limit dim became exact: seven scans, of
    # S/(y1,y2) at k = -1..3, S/(x1y1,x1y2) at k = 0 and the second random
    # quotient at k = -2, lost their limit suffix and nothing else moved
    ring = standard_ring()
    modules = (list(named_fixtures(ring).values())
               + random_quotients(RingSpec(2, 2), 8, 2026))
    lines = []
    for M in modules:
        prof = profile(M)
        ks = (range(-1, ring.n + 2) if prof.is_cm
              else sorted({prof.dim, prof.depth - ring.m}))
        lines += [str(tame_scan(M, k, (-6, 4))) for k in ks]
        if prof.is_cm:
            lines.append(str(reg_scan(M, (-3, 5))))
        lines += [str(limit_profile_check(M, w))
                  for w in ((0, 2), (0, 6), (-4, 4))]
    assert len(lines) == 100
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "d96e0bd6c6207ee6ae855cbdc94231e0de70ec3556b542874de2c71c7a486b49")


def test_zero_strands_are_never_built(ring, monkeypatch):
    # a strand whose Hilbert series is zero (strand_dim -1) has no
    # cohomology and a zero Ext: tame_scan at k = dim and k = depth - m and
    # the structure suite read it off strand_dim and build nothing for it
    real_strand, real_dim = strands.strand, strands.strand_dim
    zeros = []

    def guarded(N, k, c):
        assert real_dim(N, k, c) >= 0, ("zero strand built", str(N), k, c)
        return real_strand(N, k, c)

    def counted(N, k, c):
        dim = real_dim(N, k, c)
        if dim < 0:
            zeros.append((N, k, c))
        return dim

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "bicoh":
            if getattr(module, "strand", None) is real_strand:
                monkeypatch.setattr(module, "strand", guarded)
            if getattr(module, "strand_dim", None) is real_dim:
                monkeypatch.setattr(module, "strand_dim", counted)
    scanned = structured = 0
    for name, M in named_fixtures(ring).items():
        prof = profile(M)
        for k in {prof.dim, prof.depth - ring.m}:
            tame_scan(M, k, (-6, 6))
        scanned += len(zeros)
        zeros.clear()
        if prof.is_cm:
            assert check_structure1(M, Window(-2, 2, -4, 4)).passed, name
            structured += len(zeros)
            zeros.clear()
    assert scanned and structured, (scanned, structured)
