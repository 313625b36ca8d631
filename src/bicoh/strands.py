"""Single-graded strands of a bigraded module.

The variable blocks of S are named by their bidegree coordinate: x is
block 0, y is block 1.  The strand of N over block k at degree c of the
other block is the sum of the pieces N_d with d_(1-k) = c, a finitely
generated module over F_p[block k]: over F_p[x] at y-degree c for k = 0,
over F_p[y] at x-degree c for k = 1.  It has one generator for every pair
(generator g of N, other-block monomial of degree c - shift_g), and the
relations are the other-block monomial expansions of the S-relations.
Its Krull dimension is read off N's Hilbert series, with no strand built.
"""

from functools import lru_cache

from .errors import BadTheoryError
from .poly import Bidegree, Polynomial, RingSpec, block_dim, monomial_basis
from .resolution import Presentation, _pole_order, initial_module


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
    the other block, as a module over F_p[block k]."""
    ring = N.ring
    _check_block(ring, k)
    sizes, p = (ring.m, ring.n), ring.p
    sub = RingSpec(*_on(k, sizes[k]), p)
    other = RingSpec(*_on(1 - k, sizes[1 - k]), p) if sizes[1 - k] else None
    blocks = (slice(0, ring.m), slice(ring.m, None))

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
    rows = [[{} for _ in rels] for _ in gens]
    for col, ((l, w), _) in enumerate(rels):
        for g, entries in enumerate(N.matrix):
            for mono, coeff in entries[l].terms:
                e = ring.exponents(mono)
                target = other.monomial(e[blocks[1 - k]]) + w if other else w
                row = gen_index.get((g, target))
                if row is not None:
                    kept = sub.monomial(e[blocks[k]])
                    acc = rows[row][col]
                    acc[kept] = (acc.get(kept, 0) + coeff) % p
    return Presentation(
        sub, tuple(d for _, d in gens), tuple(d for _, d in rels),
        tuple(tuple(Polynomial.from_dict(sub, acc) for acc in row)
              for row in rows))


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
