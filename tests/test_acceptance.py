"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime.  Every comparison is exact (integer dimensions over F_p);
the only tolerances are the per-criterion wall-clock budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

from bicoh.checks import (
    check_cm_degeneration,
    check_corner,
    check_depth_sminus1_les,
    check_dim_r0_le1,
    check_euler,
    check_five_term,
    check_free,
    check_lemma_simple,
    check_structure1,
    closed_form_canonical,
)
from bicoh.cohomology import cech_oracle, local_coh_table
from bicoh.fixtures import gencm_fixture, named_fixtures, random_quotients
from bicoh.groebner import FreeModule
from bicoh.poly import RingSpec
from bicoh.resolution import (
    ext_presentation,
    free_presentation,
    hilbert_table,
    profile,
    quotient_by_polys,
    resolve,
)
from bicoh.tables import Window
from bicoh.tame import INCONCLUSIVE, limit_profile_check, tame_scan

EULER_SEED = 2026


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds
        self.start = time.perf_counter()

    def done(self, detail=""):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if elapsed < self.seconds else "FAIL (over budget)"
        print(f"{status} {self.name}: {detail} "
              f"[{elapsed:.2f}s < {self.seconds}s]")
        assert elapsed < self.seconds, \
            f"{self.name} took {elapsed:.2f}s, budget {self.seconds}s"


def test_criterion_01_canonical_duality():
    budget = Budget("criterion 1 (canonical duality)", 5.0)
    window = Window(-8, 0, 0, 8)
    checked = 0
    for m, n in ((2, 2), (2, 3)):
        ring = RingSpec(m, n)
        report = check_lemma_simple(ring, window)
        assert report.passed, report
        # the closed binomial form is verified inside the suite; spot-check
        lhs = local_coh_table(
            free_presentation(ring, [ring.canonical_degree]), "P", m, window)
        for d in window.cells():
            assert lhs[d] == closed_form_canonical(ring, d)
        checked += report.checked
    budget.done(f"{checked} exact cell comparisons for (m,n)=(2,2),(2,3)")


def test_criterion_02_free_duality():
    budget = Budget("criterion 2 (free-module duality)", 5.0)
    ring = RingSpec(2, 2)
    F = FreeModule(ring, ((0, 0), (1, 0), (2, 1)))
    report = check_free(F, Window(-6, 6, -6, 6))
    assert report.passed, report
    budget.done(f"S(0,0)+S(-1,0)+S(-2,-1), {report.checked} comparisons")


def test_criterion_03_oracle_equivalence():
    budget = Budget("criterion 3 (oracle equivalence)", 60.0)
    # R+ on a window that reaches the Artinian side, below the generators
    windows = {"P": Window(-5, 5, -5, 5), "Q": Window(-5, 5, -5, 5),
               "R+": Window(-6, 1, -6, 1)}
    fixtures = named_fixtures()
    cells = 0
    for name, M in fixtures.items():
        for theory, window in windows.items():
            for i in range(0, 5 if theory == "R+" else 3):
                table = local_coh_table(M, theory, i, window)
                for d in window.cells():
                    assert cech_oracle(M, theory, i, d) == table[d], \
                        (name, theory, i, tuple(d))
                    cells += 1
    budget.done(f"{cells} cells, duality path == limit-Koszul oracle "
                "for P, Q and R+")


def test_criterion_04_cm_degeneration():
    budget = Budget("criterion 4 (CM degeneration)", 60.0)
    ring = RingSpec(2, 2)
    x1, x2, y1, y2 = ring.gens()
    window = Window(-6, 6, -6, 6)
    total = 0
    for M in (quotient_by_polys(ring, [x1 * y1]),
              quotient_by_polys(ring, [x1 * y1 + x2 * y2])):
        report = check_cm_degeneration(M, window)
        assert report.passed, report
        total += report.checked
    budget.done(f"{total} comparisons across k = -1..3 on two CM quotients")


def test_criterion_05_euler_identity():
    budget = Budget("criterion 5 (universal Euler identity)", 120.0)
    ring = RingSpec(2, 2)
    window = Window(-5, 5, -5, 5)
    mods = random_quotients(ring, 5, EULER_SEED)
    profiles = []
    for M in mods:
        report = check_euler(M, window)
        assert report.passed, report
        prof = profile(M)
        profiles.append((prof.dim, prof.depth))
    assert any(d != t for d, t in profiles), \
        "seeded fixtures should include a non-CM module"
    budget.done(f"5 seeded quotients (seed {EULER_SEED}), "
                f"(dim,depth)={profiles}")


def test_criterion_06_corners_and_vanishing():
    budget = Budget("criterion 6 (corner isomorphisms)", 30.0)
    ring = RingSpec(2, 2)
    x1, x2, y1, y2 = ring.gens()
    M = quotient_by_polys(ring, [x1 * y1, x1 * y2])
    prof = profile(M)
    assert (prof.depth, prof.dim) == (2, 3)
    report = check_corner(M, Window(-5, 5, -5, 5))
    assert report.passed, report
    budget.done(f"both corners on S/(x1y1,x1y2), {report.checked} cells")


def test_criterion_07_dim_r0_le_1():
    budget = Budget("criterion 7 (dim R_0 <= 1)", 30.0)
    window = Window(-5, 5, -5, 5)
    total = 0
    ky = RingSpec(0, 2)
    yy1, yy2 = ky.gens()
    for M in (free_presentation(ky, [(0, 0)]),
              quotient_by_polys(ky, [yy1])):
        report = check_dim_r0_le1(M, window)
        assert report.passed, report
        total += report.checked
    r12 = RingSpec(1, 2)
    x1, y1, y2 = r12.gens()
    for M in (free_presentation(r12, [(0, 0)]),
              quotient_by_polys(r12, [x1 * y1])):
        report = check_dim_r0_le1(M, window)
        assert report.passed, report
        total += report.checked
    budget.done(f"m=0 equality and m=1 additivity, {total} comparisons")


def test_criterion_08_structure():
    budget = Budget("criterion 8 (strandwise structure)", 60.0)
    ring = RingSpec(2, 2)
    x1, x2, y1, y2 = ring.gens()
    M = quotient_by_polys(ring, [x1 * y1])
    report = check_structure1(M, Window(-6, 6, -4, 4))
    assert report.passed, report
    budget.done(f"k=0..2, j=-4..4 with dimension bounds, "
                f"{report.checked} comparisons")


def test_criterion_09_homological_bookkeeping():
    budget = Budget("criterion 9 (homological bookkeeping)", 10.0)
    ring = RingSpec(2, 2)
    window = Window(-4, 4, -4, 4)
    fixtures = list(named_fixtures().values())
    fixtures.append(gencm_fixture())
    fixtures.extend(random_quotients(ring, 5, EULER_SEED))
    count = 0
    for M in fixtures:
        prof = profile(M)
        res = resolve(M)
        assert prof.pd + prof.depth == ring.nvars
        assert res.length <= ring.nvars
        table = hilbert_table(M, window)
        for d in window.cells():
            assert res.alternating_dim(d) == table[d]
        count += 1
    budget.done(f"{count} modules: AB identity, length bound, "
                "alternating sums == hilbert table")


def test_criterion_10_tameness_evidence():
    budget = Budget("criterion 10 (tameness evidence)", 60.0)
    ring = RingSpec(2, 2)
    scans = 0
    for name, M in named_fixtures().items():
        prof = profile(M)
        for k in sorted({prof.dim, prof.depth - ring.m}):
            report = tame_scan(M, k, (-10, 10))
            assert report.overall != INCONCLUSIVE, (name, k, report)
            scans += 1
        if prof.is_cm:
            dual = ext_presentation(M, ring.nvars - prof.dim)
            check = limit_profile_check(dual, (0, 8))
            assert check.passed and not check.inconclusive, (name, check)
    budget.done(f"{scans} decided scans, limit-depth identity on CM duals")


def test_criterion_11_five_term_and_depth_les():
    budget = Budget("criterion 11 (five-term and depth LES)", 30.0)
    ring = RingSpec(2, 2)
    x1, x2, y1, y2 = ring.gens()
    M = quotient_by_polys(ring, [x1 * y1, x1 * y2])
    window = Window(-5, 5, -5, 5)
    five = check_five_term(M, window)
    assert five.passed, five
    les = check_depth_sminus1_les(M, window)
    assert les.passed, les
    budget.done(f"{five.checked} inequalities, {les.checked} alternating "
                "sums on S/(x1y1,x1y2)")
