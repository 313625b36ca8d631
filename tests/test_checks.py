from dataclasses import replace

import pytest

from bicoh import checks
from bicoh.checks import (
    build_spectral_grid,
    check_cm_degeneration,
    check_corner,
    check_depth_sminus1_les,
    check_dim_r0_le1,
    check_euler,
    check_five_term,
    check_free,
    check_gencm_les,
    check_lemma_simple,
    check_structure1,
    closed_form_canonical,
)
from bicoh.errors import (
    BadModuleError,
    BadProfileError,
    NotCohenMacaulayError,
    NotGeneralizedCMError,
)
from bicoh.fixtures import gencm_fixture
from bicoh.groebner import FreeModule
from bicoh.poly import RingSpec
from bicoh.resolution import free_presentation, quotient_by_polys
from bicoh.tables import Window


def test_closed_form_values(ring):
    assert closed_form_canonical(ring, (-3, 3)) == 8
    assert closed_form_canonical(ring, (-1, 3)) == 4
    assert closed_form_canonical(ring, (0, 0)) == 0


def test_lemma_simple_windows(ring):
    report = check_lemma_simple(ring, Window(-8, 0, 0, 8))
    assert report.passed
    report23 = check_lemma_simple(RingSpec(2, 3), Window(-6, 0, 0, 6))
    assert report23.passed


def test_lemma_simple_rejects_degenerate_ring():
    with pytest.raises(BadModuleError):
        check_lemma_simple(RingSpec(0, 2), Window(0, 1, 0, 1))


def test_free_suite(ring):
    w = Window(-5, 5, -5, 5)
    assert check_free(FreeModule(ring, ((0, 0),)), w).passed
    assert check_free(FreeModule(ring, ((1, 2),)), w).passed
    assert check_free(FreeModule(ring, ((0, 0), (1, 0), (2, 1))), w).passed


def test_euler_on_fixtures(S, hypersurface, two_relations):
    w = Window(-4, 4, -4, 4)
    for M in (S, hypersurface, two_relations):
        report = check_euler(M, w)
        assert report.passed, report


def test_cm_degeneration(ring, xy, hypersurface):
    x1, x2, y1, y2 = xy
    w = Window(-5, 5, -5, 5)
    assert check_cm_degeneration(hypersurface, w).passed
    diagonal = quotient_by_polys(ring, [x1 * y1 + x2 * y2])
    assert check_cm_degeneration(diagonal, w).passed


def test_cm_suite_rejects_non_cm(two_relations):
    with pytest.raises(NotCohenMacaulayError):
        check_cm_degeneration(two_relations, Window(0, 1, 0, 1))


def test_corner_suite(two_relations, hypersurface):
    w = Window(-4, 4, -4, 4)
    assert check_corner(two_relations, w).passed
    assert check_corner(hypersurface, w).passed


def test_gencm_suite(ring):
    w = Window(-4, 4, -4, 4)
    report = check_gencm_les(gencm_fixture(ring), w)
    assert report.passed


def test_gencm_rejects_cm_and_wild_modules(S, two_relations):
    with pytest.raises(NotGeneralizedCMError):
        check_gencm_les(S, Window(0, 1, 0, 1))
    with pytest.raises(NotGeneralizedCMError):
        check_gencm_les(two_relations, Window(0, 1, 0, 1))


def test_gencm_with_nonvacuous_low_range(ring):
    # a free summand plus a shifted finite-length summand: generalized CM
    # of dimension 4 and depth 0, so the identification of the Q- and
    # maximal-ideal cohomologies below s - m covers i = 0, 1 for real
    from bicoh.poly import parse_poly
    from bicoh.resolution import Presentation, profile
    z = ring.zero()
    gens = ((0, 0), (1, 1))
    rels = ((2, 1), (2, 1), (1, 2), (1, 2))
    matrix = (
        (z, z, z, z),
        (parse_poly("x1", ring), parse_poly("x2", ring),
         parse_poly("y1", ring), parse_poly("y2", ring)),
    )
    M = Presentation(ring, gens, rels, matrix)
    prof = profile(M)
    assert (prof.dim, prof.depth) == (4, 0)
    assert prof.is_gencm and not prof.is_cm
    report = check_gencm_les(M, Window(-4, 4, -4, 4))
    assert report.passed, report


def test_structure_row_convention_is_forced(ring, hypersurface):
    # the strand index negates under the dual: comparing the strand Ext
    # dims against row +j instead of row -j must break somewhere
    from bicoh.cohomology import ext_table, local_coh_table
    from bicoh.resolution import ext_presentation, profile
    from bicoh.strands import strand
    s = profile(hypersurface).dim
    dual = ext_presentation(hypersurface, ring.nvars - s)
    qtab = local_coh_table(hypersurface, "Q", s - 1, Window(-6, 6, -6, 6))
    right = wrong = 0
    for j in range(-4, 5):
        row = ext_table(strand(dual, 0, j), ring.m - 1, Window(-6, 6, 0, 0))
        for i in range(-6, 7):
            lhs = row[(i, 0)]
            right += lhs != qtab[(i, -j)]
            wrong += lhs != qtab[(i, j)]
    assert right == 0
    assert wrong > 0


def test_dimle1_zero_x_block():
    ky = RingSpec(0, 2)
    w = Window(-4, 4, -4, 4)
    y1, y2 = ky.gens()
    assert check_dim_r0_le1(free_presentation(ky, [(0, 0)]), w).passed
    assert check_dim_r0_le1(quotient_by_polys(ky, [y1]), w).passed


def test_dimle1_one_x_variable():
    r12 = RingSpec(1, 2)
    x1, y1, y2 = r12.gens()
    w = Window(-4, 4, -4, 4)
    assert check_dim_r0_le1(free_presentation(r12, [(0, 0)]), w).passed
    assert check_dim_r0_le1(quotient_by_polys(r12, [x1 * y1]), w).passed


def test_dimle1_rejects_big_x_block(S):
    with pytest.raises(BadModuleError):
        check_dim_r0_le1(S, Window(0, 1, 0, 1))


def test_structure_suite(hypersurface, S):
    assert check_structure1(hypersurface, Window(-5, 5, -3, 3)).passed
    assert check_structure1(S, Window(-4, 4, -2, 2)).passed
    # dim 1 < m: the Q-index s - k runs below 0, where H^i is zero
    x1, x2, y1, _ = S.ring.gens()
    line = quotient_by_polys(S.ring, [x1, x2, y1])
    assert check_structure1(line, Window(-4, 4, -2, 2)).passed


def test_structure_rejects_non_cm(two_relations):
    with pytest.raises(NotCohenMacaulayError):
        check_structure1(two_relations, Window(0, 1, 0, 1))


def test_five_term_suites(two_relations, hypersurface, S):
    w = Window(-4, 4, -4, 4)
    assert check_five_term(two_relations, w).passed
    # CM modules: non-corner terms vanish, inequalities trivially hold
    assert check_five_term(hypersurface, w).passed
    assert check_five_term(S, w).passed


def test_depth_les_suite(two_relations):
    assert check_depth_sminus1_les(two_relations,
                                   Window(-4, 4, -4, 4)).passed


def test_depth_les_rejects_cm(hypersurface):
    with pytest.raises(BadProfileError):
        check_depth_sminus1_les(hypersurface, Window(0, 1, 0, 1))


def test_depth_les_cross_check_with_dimle1():
    # with one x-variable both suites constrain the same cells
    r12 = RingSpec(1, 2)
    x1, y1, y2 = r12.gens()
    M = quotient_by_polys(r12, [x1 * y1, x1 * y2])
    w = Window(-4, 4, -4, 4)
    assert check_dim_r0_le1(M, w).passed
    from bicoh.resolution import profile
    prof = profile(M)
    if prof.depth == prof.dim - 1:
        assert check_depth_sminus1_les(M, w).passed


def test_suites_on_one_y_variable():
    # the n = 1 lane: theory Q has only H^0 and H^1
    r21 = RingSpec(2, 1)
    x1, x2, y1 = r21.gens()
    w = Window(-4, 4, -4, 4)
    assert check_lemma_simple(r21, Window(-5, 0, 0, 5)).passed
    M = quotient_by_polys(r21, [x1 * y1])
    assert check_euler(M, w).passed
    assert check_corner(M, w).passed
    assert check_cm_degeneration(M, w).passed


def test_suites_on_three_x_variables():
    r31 = RingSpec(3, 1)
    x1, x2, x3, y1 = r31.gens()
    w = Window(-4, 4, -4, 4)
    assert check_lemma_simple(r31, Window(-5, 0, 0, 5)).passed
    M = quotient_by_polys(r31, [x1 * y1, x2 * y1])
    report = check_euler(M, w)
    assert report.passed, report
    assert check_corner(M, w).passed


def test_spectral_grid_support(two_relations, ring):
    from bicoh.resolution import profile
    w = Window(-3, 3, -3, 3)
    prof = profile(two_relations)
    grid = build_spectral_grid(two_relations, w,
                               i_range=(prof.depth - 1, prof.dim + 1))
    for (i, j), table in grid.tables.items():
        if i < prof.depth or i > prof.dim:
            assert table.is_zero(), (i, j)


def test_window_monotone(hypersurface):
    small = check_cm_degeneration(hypersurface, Window(-2, 2, -2, 2))
    large = check_cm_degeneration(hypersurface, Window(-4, 4, -4, 4))
    assert small.passed and large.passed
    for cell, verdict in small.verdicts.items():
        assert large.verdicts.get(cell, verdict) == verdict


def test_failure_reporting(ring):
    # compare two genuinely different tables through the report machinery
    from bicoh.checks import _report
    rows = [((0, 0), False, 1, 2, "forced mismatch"),
            ((0, 1), True, 3, 3, "fine")]
    report = _report("synthetic", Window(0, 0, 0, 1), rows)
    assert not report.passed
    assert report.failure.cell == (0, 0)
    assert report.failure.lhs == 1 and report.failure.rhs == 2
    assert "forced mismatch" in str(report)


def test_suite_reports_are_pinned(ring, hypersurface, two_relations):
    # the report of every suite (its name and number of comparisons) on
    # fixtures where the suite applies
    r12 = RingSpec(1, 2)
    x1, y1, _ = r12.gens()
    r02 = RingSpec(0, 2)
    w4 = Window(-4, 4, -4, 4)
    w5 = Window(-5, 5, -5, 5)
    pinned = [
        (check_lemma_simple(ring, Window(-8, 0, 0, 8)),
         "[PASS] simple: 162 comparisons"),
        (check_lemma_simple(RingSpec(2, 3), Window(-6, 0, 0, 6)),
         "[PASS] simple: 98 comparisons"),
        (check_free(FreeModule(ring, ((0, 0), (1, 0), (2, 1))), w5),
         "[PASS] free: 242 comparisons"),
        (check_free(FreeModule(ring, ((1, 2),)), w5),
         "[PASS] free: 242 comparisons"),
        (check_euler(two_relations, w4), "[PASS] euler: 81 comparisons"),
        (check_cm_degeneration(hypersurface, w5),
         "[PASS] cm: 605 comparisons"),
        (check_corner(two_relations, w4), "[PASS] corner: 162 comparisons"),
        (check_gencm_les(gencm_fixture(ring), w4),
         "[PASS] gencm: 81 comparisons"),
        (check_dim_r0_le1(quotient_by_polys(r12, [x1 * y1]), w4),
         "[PASS] dimle1: 324 comparisons"),
        (check_dim_r0_le1(quotient_by_polys(r02, [r02.gens()[0]]), w4),
         "[PASS] dimle1: 243 comparisons"),
        (check_structure1(hypersurface, Window(-5, 5, -3, 3)),
         "[PASS] structure: 252 comparisons"),
        (check_five_term(two_relations, w4),
         "[PASS] fiveterm: 648 comparisons"),
        (check_depth_sminus1_les(two_relations, w4),
         "[PASS] depthles: 81 comparisons"),
    ]
    for report, text in pinned:
        assert str(report) == text


def _bump_tables(monkeypatch, bumps):
    """Make call number k (from 0) of checks.local_coh_table return its
    table with cell bumps[k] raised by one."""
    real = checks.local_coh_table
    calls = []

    def bumped(*args):
        table = real(*args)
        cell = bumps.get(len(calls))
        calls.append(args[1:3])
        if cell is None:
            return table
        return replace(table, cells={**table.cells,
                                     cell: table.cells[cell] + 1})

    monkeypatch.setattr(checks, "local_coh_table", bumped)
    return calls


def test_simple_counterexample_is_pinned(ring, monkeypatch):
    # call 0 is H^m_P of the canonical module, call 1 the Q-table that
    # gets flipped, so its cell (3, -3) lands on (-3, 3)
    for bumps, sides in (({0: (-3, 3)}, (9, 8)), ({1: (3, -3)}, (8, 9))):
        with monkeypatch.context() as mp:
            calls = _bump_tables(mp, bumps)
            failure = check_lemma_simple(ring, Window(-6, 0, 0, 6)).failure
        assert calls == [("P", ring.m), ("Q", ring.n)]
        assert (failure.cell, (failure.lhs, failure.rhs)) == ((-3, 3), sides)


def test_free_counterexample_is_pinned(ring, monkeypatch):
    F = FreeModule(ring, ((0, 0), (1, 0), (2, 1)))
    w = Window(-5, 5, -5, 5)
    with monkeypatch.context() as mp:
        calls = _bump_tables(mp, {0: (-2, 3)})
        failure = check_free(F, w).failure
    assert calls == [("P", ring.m), ("Q", ring.n)]
    assert (failure.cell, failure.lhs, failure.rhs, failure.detail) == (
        (-2, 3), 14, 13, "H^m_P(F*) vs dual of H^n_Q(F)")
    # both tables raised alike: the closed form is the one that objects
    _bump_tables(monkeypatch, {0: (-2, 3), 1: (2, -3)})
    failure = check_free(F, w).failure
    assert (failure.cell, failure.lhs, failure.rhs, failure.detail) == (
        (-2, 3), 14, 13, "H^m_P(F*) vs shifted closed form")


def test_corner_counterexample_is_pinned(two_relations, monkeypatch):
    # both corners compared cell by cell, so the corner (s,m) cell at
    # (-3, -3) comes before the corner (t,0) cell at (2, 2)
    calls = _bump_tables(monkeypatch, {0: (2, 2), 2: (-3, -3)})
    failure = check_corner(two_relations, Window(-4, 4, -4, 4)).failure
    assert calls == [("P", 2), ("Q", 0), ("P", 0), ("Q", 3)]
    assert (failure.cell, failure.lhs, failure.rhs, failure.detail) == (
        (-3, -3), 1, 0, "corner (s,m): H^0_P(dual H^s) vs dual H^s_Q")


def test_cm_counterexample_is_pinned(hypersurface, monkeypatch):
    # index k runs outside the cells: the k = 0 cell at (3, 3) comes
    # before the k = 1 cell at (-3, -3)
    calls = _bump_tables(monkeypatch, {2: (3, 3), 4: (-3, -3)})
    failure = check_cm_degeneration(hypersurface,
                                    Window(-5, 5, -5, 5)).failure
    assert calls[:6] == [("P", -1), ("Q", 4), ("P", 0), ("Q", 3),
                         ("P", 1), ("Q", 2)]
    assert (failure.cell, failure.lhs, failure.rhs, failure.detail) == (
        (3, 3), 1, 0, "k=0: H^k_P(dual top) vs dual H^(s-k)_Q")
