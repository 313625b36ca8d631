"""Single-graded strands of a bigraded module.

For a bigraded module N over S the y-degree-j strand N_j = (+)_i N_(i,j)
is a finitely generated module over F_p[x], with one generator for every
pair (generator k of N, y-monomial of degree j - b_k).  The relations are
the y-monomial expansions of the S-relations.  The x-degree-a strand over
F_p[y] is the mirror image.
"""

from functools import lru_cache

from .errors import BadTheoryError
from .poly import Bidegree, Polynomial, RingSpec, monomial_basis
from .resolution import Presentation


def _strand(N: Presentation, index: int, block: str) -> Presentation:
    """block 'y' collapses the y-variables (K[x]-strand at y-degree index);
    block 'x' collapses the x-variables (K[y]-strand at x-degree index)."""
    ring = N.ring
    m, n = ring.m, ring.n
    kept = "x" if block == "y" else "y"
    if not (m if block == "y" else n):
        raise BadTheoryError(f"{kept}-strands need at least one "
                             f"{kept}-variable; {ring} has none")
    if block == "y":
        sub = RingSpec(m, 0, ring.p)
        collapse = RingSpec(0, n, ring.p) if n else None
        keep_deg = lambda s: Bidegree(s.a, 0)
        lost_deg = lambda s: s.b
        split = lambda e: (e[:m], e[m:])
    else:
        sub = RingSpec(0, n, ring.p)
        collapse = RingSpec(m, 0, ring.p) if m else None
        keep_deg = lambda s: Bidegree(0, s.b)
        lost_deg = lambda s: s.a
        split = lambda e: (e[m:], e[:m])

    def gen_list(shifts):
        """(owner index, collapsed monomial) pairs, plus their sub-ring
        shifts, ordered by (owner, monomial descending)."""
        out = []
        degs = []
        for k, s in enumerate(shifts):
            want = index - lost_deg(s)
            if collapse is None:
                monos = [0] if want == 0 else []
            else:
                monos = monomial_basis(
                    collapse,
                    (0, want) if block == "y" else (want, 0))
            for w in monos:
                out.append((k, w))
                degs.append(keep_deg(s))
        return out, degs

    gens, gen_degs = gen_list(N.gens)
    rels, rel_degs = gen_list(N.rels)
    gen_index = {key: i for i, key in enumerate(gens)}

    rows = [[dict() for _ in rels] for _ in gens]
    for col, (l, w) in enumerate(rels):
        for k in range(len(N.gens)):
            entry = N.matrix[k][l]
            for mono, coeff in entry.terms:
                kept, lost = split(ring.exponents(mono))
                target = collapse.monomial(lost) + w if collapse else w
                row = gen_index.get((k, target))
                if row is None:
                    continue
                kept = sub.monomial(kept)
                acc = rows[row][col]
                acc[kept] = (acc.get(kept, 0) + coeff) % ring.p
    matrix = tuple(
        tuple(Polynomial.from_dict(sub, rows[r][c]) for c in range(len(rels)))
        for r in range(len(gens)))
    return Presentation(sub, tuple(gen_degs), tuple(rel_degs), matrix)


@lru_cache(maxsize=None)
def x_strand(N: Presentation, j: int) -> Presentation:
    """The y-degree-j strand of N as a module over F_p[x]."""
    return _strand(N, j, "y")


@lru_cache(maxsize=None)
def y_strand(M: Presentation, a: int) -> Presentation:
    """The x-degree-a strand of M as a module over F_p[y]."""
    return _strand(M, a, "x")
