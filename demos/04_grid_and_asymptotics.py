"""The second-page grid, its Euler characteristic, and what happens far
out along the grading.

For any finitely generated bigraded module the signed sum of the grid
cells E2[i,j] = H^(m-j)_P(dual of H^i at the maximal ideal) equals the
signed sum of the dualized Q-cohomologies, bidegree by bidegree.  For
Cohen-Macaulay modules the grid collapses to one column and the tameness
of every H^k_Q becomes a statement about single strands, which the scans
below decide exactly.
"""

from bicoh import RingSpec, Window, quotient_by_polys
from bicoh.checks import build_spectral_grid, check_euler
from bicoh.fixtures import random_quotients
from bicoh.resolution import ext_presentation, profile
from bicoh.tame import limit_profile_check, reg_scan, tame_scan

ring = RingSpec(2, 2)
x1, x2, y1, y2 = ring.gens()
M = quotient_by_polys(ring, [x1 * y1, x1 * y2])
window = Window(-4, 4, -4, 4)

prof = profile(M)
print(f"S/(x1y1, x1y2): {prof}")
grid = build_spectral_grid(M, window)
print(f"grid support: i in {grid.i_range}, j in {grid.j_range}")
for (i, j), table in sorted(grid.tables.items()):
    nz = table.nonzero_cells()
    print(f"  E2[{i},{j}] nonzero at {len(nz)} cells"
          + (f", e.g. {nz[0]}" if nz else ""))

print()
print(check_euler(M, window))
for Q in random_quotients(ring, 3, seed=424242):
    report = check_euler(Q, window)
    assert report.passed
    print(f"euler identity on a random quotient ({profile(Q)}): PASS")

print()
hyper = quotient_by_polys(ring, [x1 * y1])
for k in (1, 2, 3):
    print(tame_scan(hyper, k, (-9, 9)))
dual = ext_presentation(hyper, 1)
print(limit_profile_check(dual, (0, 8)))
print(reg_scan(hyper, (-3, 5)))
