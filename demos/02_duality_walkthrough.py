"""The canonical duality, cell by cell.

The top P-cohomology of the canonical module omega = S(-m,-n) and the
Matlis-flipped top Q-cohomology of S itself are isomorphic bigraded
modules; both collapse to the closed binomial form

    dim = dim K[x]_(-a) * dim K[y]_(b-n).

We compute the two sides along entirely different routes (x-strands with
Ext over K[x] versus y-strands with Ext over K[y], flipped) and print all
three tables.
"""

from bicoh import DimTable, RingSpec, Window, free_presentation, matlis_flip
from bicoh.checks import check_lemma_simple, closed_form_canonical
from bicoh.cohomology import local_coh_table

ring = RingSpec(2, 2)
window = Window(-6, 0, 0, 6)

omega = free_presentation(ring, [ring.canonical_degree])
ring_module = free_presentation(ring, [(0, 0)])

lhs = local_coh_table(omega, "P", ring.m, window)
rhs = matlis_flip(local_coh_table(ring_module, "Q", ring.n, -window))
closed = DimTable(
    window=window,
    cells={tuple(d): closed_form_canonical(ring, d) for d in window.cells()},
    p=ring.p)

print(lhs.render(f"H^{ring.m} for P of the canonical module (p={ring.p}):"))
print()
print(rhs.render("flip of H^2 for Q of the ring:"))
print()
print(closed.render("closed binomial form:"))
print()

report = check_lemma_simple(ring, window)
print(report)
assert report.passed

# the same equality with generator shifts thrown in
from bicoh.checks import check_free
from bicoh.groebner import FreeModule

free_report = check_free(FreeModule(ring, ((0, 0), (1, 0), (2, 1))),
                         Window(-5, 5, -5, 5))
print(free_report)
assert free_report.passed
