"""Reproducible example modules used by the demos and the test suite."""

import random

from .errors import DegreeBoundError
from .linalg import DEFAULT_PRIME
from .poly import Polynomial, RingSpec, monomial_basis
from .resolution import free_presentation, quotient_by_polys


def standard_ring(p=DEFAULT_PRIME):
    return RingSpec(2, 2, p)


def named_fixtures(ring=None):
    """The four workhorse quotients of S = F_p[x1,x2,y1,y2]."""
    ring = ring or standard_ring()
    x1, x2, y1, y2 = ring.gens()
    return {
        "S": free_presentation(ring, [(0, 0)]),
        "S/(x1y1)": quotient_by_polys(ring, [x1 * y1]),
        "S/(y1,y2)": quotient_by_polys(ring, [y1, y2]),
        "S/(x1y1,x1y2)": quotient_by_polys(ring, [x1 * y1, x1 * y2]),
    }


def gencm_fixture(ring=None):
    """Two planes glued at the origin: generalized CM but not CM."""
    ring = ring or standard_ring()
    x1, x2, y1, y2 = ring.gens()
    return quotient_by_polys(ring, [x1 * y1, x1 * y2, x2 * y1, x2 * y2])


def random_bihomogeneous(ring, rng, max_degree=(2, 2)):
    """A random nonzero bihomogeneous polynomial of bidegree <= max_degree
    (componentwise), with at least one term.  The entry of an empty
    variable block is taken as 0."""
    max_degree = (max_degree[0] if ring.m else 0,
                  max_degree[1] if ring.n else 0)
    if not any(max_degree):
        raise DegreeBoundError(f"max_degree {max_degree} leaves no "
                               "positive bidegree")
    while True:
        da = rng.randint(0, max_degree[0])
        db = rng.randint(0, max_degree[1])
        if da + db > 0:
            break
    basis = monomial_basis(ring, (da, db))
    terms = {}
    for mono in basis:
        if rng.random() < 0.6:
            terms[mono] = rng.randrange(1, ring.p)
    if not terms:
        terms[basis[rng.randrange(len(basis))]] = rng.randrange(1, ring.p)
    return Polynomial.from_dict(ring, terms)


def random_quotients(ring, count, seed, max_rels=3, max_degree=(2, 2)):
    """Pseudo-random cyclic quotients S/I with at most max_rels relations
    of entry bidegree <= max_degree; fully determined by the seed."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        nrels = rng.randint(1, max_rels)
        polys = [random_bihomogeneous(ring, rng, max_degree)
                 for _ in range(nrels)]
        out.append(quotient_by_polys(ring, polys))
    return out
