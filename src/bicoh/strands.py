"""Single-graded strands of a bigraded module.

The variable blocks of S are named by their bidegree coordinate: x is
block 0, y is block 1.  The strand of N over block k at degree c of the
other block is the sum of the pieces N_d with d_(1-k) = c, a finitely
generated module over F_p[block k]: over F_p[x] at y-degree c for k = 0,
over F_p[y] at x-degree c for k = 1.  It has one generator for every pair
(generator g of N, other-block monomial of degree c - shift_g), and the
relations are the other-block monomial expansions of the S-relations.
Its Krull dimension is read off N's Hilbert series, with no strand built.

Only finitely many strand dimensions need to be read.  Let r be the size
of the other block.  The strand at c is zero below the least other-block
shift in N's numerator.  Between two consecutive shifts s < s' (or past
the largest, c_0), the terms of shift at most s are the ones that count,
each carrying dim K[other]_(c - s), a polynomial in c of degree r - 1, so
every Taylor coefficient at t = 1 is a polynomial in c of degree below r.
The least order whose coefficient is not the zero polynomial fixes one
dimension for all c in s..s' - 1 but at most r - 1 roots, where it is
smaller: the largest dimension there is reached on s..s + max(r, 1) - 1,
which cohomological_dimension reads at each shift, and the generic one g
past c_0 on c_0..c_0 + r - 1 (strand_range); with r = 0, g = -1.
"""

from functools import lru_cache

from .errors import BadTheoryError
from .groebner import FreeModule, ModuleElement
from .poly import Bidegree, RingSpec, block_dim, monomial_basis
from .resolution import Presentation, _descending, _pole_order, initial_module


def _on(k, v):
    """The pair with v at coordinate k and 0 at the other."""
    return (v, 0) if k == 0 else (0, v)


def _check_block(ring, k):
    if not (ring.m, ring.n)[k]:
        name = "xy"[k]
        raise BadTheoryError(f"{name}-strands need at least one "
                             f"{name}-variable; {ring} has none")


@lru_cache(maxsize=None)
def strand(N: Presentation, k: int, c: int) -> Presentation:
    """The strand of N over the variable block k (x 0, y 1) at degree c of
    the other block, as a module over F_p[block k]: x^e e_g in relation l
    at w lands at generator (g, w * x^e_other), if any, one key per term."""
    ring = N.ring
    _check_block(ring, k)
    sizes, p = (ring.m, ring.n), ring.p
    sub = RingSpec(*_on(k, sizes[k]), p)
    other = RingSpec(*_on(1 - k, sizes[1 - k]), p) if sizes[1 - k] else None

    def pieces(shifts):
        """((owner g, other-block monomial), shift over F_p[block k]) for
        each summand, ordered by (owner, monomial descending); an empty
        other block has the one monomial 1, in degree 0."""
        return [((g, w), Bidegree(*_on(k, s[k])))
                for g, s in enumerate(shifts)
                for w in (monomial_basis(other, _on(1 - k, c - s[1 - k]))
                          if other else [0] * (c == s[1 - k]))]

    gens, rels = pieces(N.gens), pieces(N.rels)
    gen_index = {key: i for i, (key, _) in enumerate(gens)}
    target = FreeModule(sub, tuple(d for _, d in gens))
    width, columns = sub.width, []
    for (l, w), _ in rels:
        terms = []
        for key, coeff in N.columns[l].terms:
            row = gen_index.get((key >> ring.width,
                                 ring.block_part(key, 1 - k) + w))
            if row is not None:
                terms.append((row << width | ring.block_part(key, k), coeff))
        columns.append(ModuleElement._of(target, _descending(terms, width)))
    return Presentation(sub, target.shifts, [d for _, d in rels], columns)


def strand_dim(N: Presentation, k: int, c: int) -> int:
    """Krull dimension of strand(N, k, c), read off N's numerator, and -1
    for the zero strand: the strand's Hilbert series is sum_s coef_s *
    dim K[other]_(c - s_other) * t^(s_k) / (1 - t)^(block size)."""
    _check_block(N.ring, k)
    sizes = (N.ring.m, N.ring.n)
    numerator = {}
    for s, coef in initial_module(N).numerator.items():
        numerator[s[k]] = (numerator.get(s[k], 0)
                           + coef * block_dim(c - s[1 - k], sizes[1 - k]))
    return _pole_order(numerator, sizes[k])


def strand_range(N: Presentation, k: int) -> tuple:
    """(lo, c_0, hi) for the strands of N over block k: the strand at c is
    zero for c < lo, and the largest strand dimension at any c >= c_0 is
    the generic one, reached on c_0..hi = c_0 + r - 1 for the other
    block's size r (the module docstring gives the argument).  Any range
    serves the zero module, whose strands all vanish."""
    others = [s[1 - k] for s in initial_module(N).numerator] or [0]
    c_0 = max(others)
    return min(others), c_0, c_0 + (N.ring.m, N.ring.n)[1 - k] - 1
