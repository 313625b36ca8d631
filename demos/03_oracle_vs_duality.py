"""Two independent computations of the same local cohomology table.

The duality path resolves strands and takes Ext against the canonical
twist.  The oracle path never dualizes anything: it runs the limit-Koszul
representation of the Cech complex on the ideal's variables, at the power
from which every level provably equals the limit.  Agreement cell by cell
is the strongest internal consistency check the engine has.
"""

from bicoh import RingSpec, Window, quotient_by_polys
from bicoh.cohomology import cech_oracle, local_coh_table, oracle_table

ring = RingSpec(2, 2)
x1, x2, y1, y2 = ring.gens()
M = quotient_by_polys(ring, [x1 * y1, x1 * y2])
window = Window(-4, 4, -4, 4)

for theory, i in (("Q", 1), ("Q", 2), ("P", 2)):
    table = local_coh_table(M, theory, i, window)
    oracle = oracle_table(M, theory, i, window)
    same = table.cells == oracle.cells
    print(table.render(
        f"H^{i} for theory {theory} of S/(x1y1, x1y2), duality path:"))
    print(f"oracle agrees on all {window.size} cells: {same}\n")
    assert same

# a module with honest torsion: the oracle reads it off one Koszul level
T = quotient_by_polys(ring, [y1 * y1 * y1])
print("H^0 for Q of S/(y1^3) at (0,2):",
      cech_oracle(T, "Q", 0, (0, 2)),
      "(equals the table value",
      str(local_coh_table(T, "Q", 0, Window(0, 0, 2, 2))[(0, 2)]) + ")")
