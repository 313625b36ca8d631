import random

import pytest

from bicoh.errors import (
    BadRingError,
    BicohError,
    NotBihomogeneousError,
    ParseError,
    RingMismatchError,
    UnknownVariableError,
    ZeroPolynomialError,
)
from bicoh.poly import (
    Bidegree,
    Polynomial,
    RingSpec,
    block_dim,
    monomial_basis,
    parse_poly,
    piece_dim,
)


@pytest.fixture(scope="module")
def r22():
    return RingSpec(2, 2)


def test_ring_validation():
    with pytest.raises(ValueError):
        RingSpec(0, 0)
    with pytest.raises(ValueError):
        RingSpec(2, 2, p=10)
    with pytest.raises(ValueError):
        RingSpec(2, 2, p=1048583)   # smallest prime above 2^20
    assert RingSpec(3, 0) == RingSpec(3, 0, 32003)
    assert RingSpec(0, 2) == RingSpec(0, 2, 32003)
    assert RingSpec(1, 1).nvars == 2


def test_invalid_ring_is_a_typed_error():
    # a bad ring is both a BicohError (one error line, exit 2) and the
    # ValueError that callers catch
    for m, n, p in ((0, 0, 32003), (-1, 2, 32003), (2, 2, 10),
                    (2, 2, 1048583), (1, 1, 2**61 - 1)):
        with pytest.raises(BadRingError) as caught:
            RingSpec(m, n, p)
        assert isinstance(caught.value, BicohError)
        assert isinstance(caught.value, ValueError)


def test_bidegree_arithmetic():
    d = Bidegree(2, 3)
    assert d + Bidegree(1, -1) == Bidegree(3, 2)
    assert d - (1, 1) == Bidegree(1, 2)
    assert -d == Bidegree(-2, -3)
    assert d.total == 5


def test_polynomial_bidegree(r22):
    x1, x2, y1, y2 = r22.gens()
    assert (x1 * y2).bidegree() == Bidegree(1, 1)
    assert (x1 * x1 + x1 * x2).bidegree() == Bidegree(2, 0)


def test_bidegree_errors(r22):
    x1, x2, y1, y2 = r22.gens()
    with pytest.raises(NotBihomogeneousError):
        (x1 + y1).bidegree()
    with pytest.raises(ZeroPolynomialError):
        r22.zero().bidegree()


def test_monomial_basis_small(r22):
    basis = monomial_basis(r22, (1, 1))
    assert len(basis) == 4
    assert monomial_basis(r22, (-1, 0)) == []
    assert len(monomial_basis(r22, (2, 0))) == 3


def test_monomial_basis_matches_closed_form(r22):
    for a in range(-1, 5):
        for b in range(-1, 5):
            count = len(monomial_basis(r22, (a, b)))
            assert count == piece_dim(r22, (a, b))
            if a >= 0 and b >= 0:
                assert count == block_dim(a, 2) * block_dim(b, 2)


def test_monomial_order_head(r22):
    # degrevlex with x1 > x2 > y1 > y2
    basis = monomial_basis(r22, (1, 0))
    x1, x2, y1, y2 = r22.gens()
    assert basis[0] == x1.terms[0][0]
    assert basis[1] == x2.terms[0][0]


def test_product_examples(r22):
    x1, x2, y1, y2 = r22.gens()
    assert x1 * y1 == parse_poly("x1*y1", r22)
    assert (x1 + x2) * (x1 - x2) == parse_poly("x1^2 - x2^2", r22)
    f = 3 * x1 * y2 + x2 * x2
    assert (f + (-f)).is_zero()


def test_ring_mismatch(r22):
    other = RingSpec(1, 1)
    with pytest.raises(RingMismatchError):
        r22.gens()[0] + other.gens()[0]


def test_mul_commutes_and_assoc(r22):
    rng = random.Random(2)

    def rand_poly():
        d = {}
        for mono in monomial_basis(r22, (rng.randint(0, 2),
                                         rng.randint(0, 2))):
            if rng.random() < 0.5:
                d[mono] = rng.randrange(1, r22.p)
        return Polynomial.from_dict(r22, d)

    for _ in range(15):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        if f and g:
            assert (f * g).bidegree() == f.bidegree() + g.bidegree()


def test_parse_collects_like_terms(r22):
    f = parse_poly("3*x1^2*y1 - y1*x1^2", r22)
    assert f == parse_poly("2*x1^2*y1", r22)


def test_parse_unknown_variable(r22):
    with pytest.raises(UnknownVariableError):
        parse_poly("x3", r22)
    with pytest.raises(UnknownVariableError):
        parse_poly("y5 + x1", r22)


def test_parse_coefficient_reduction(r22):
    f = parse_poly("x1*y1 + 32003*x2*y2", r22)
    assert f == parse_poly("x1*y1", r22)


def test_parse_error_reports_position(r22):
    with pytest.raises(ParseError) as info:
        parse_poly("x1 + @", r22)
    assert info.value.position == 5
    with pytest.raises(ParseError):
        parse_poly("x1 * * x2", r22)
    with pytest.raises(ParseError):
        parse_poly("x1^0", r22)


def test_parse_print_roundtrip(r22):
    rng = random.Random(7)
    for _ in range(25):
        d = {}
        for mono in monomial_basis(r22, (rng.randint(0, 3),
                                         rng.randint(0, 3))):
            if rng.random() < 0.5:
                d[mono] = rng.randrange(1, r22.p)
        f = Polynomial.from_dict(r22, d)
        assert parse_poly(str(f), r22) == f
    assert parse_poly(str(r22.zero()), r22).is_zero()
    const = Polynomial.constant(r22, 17)
    assert parse_poly(str(const), r22) == const


def test_single_block_rings():
    kx = RingSpec(2, 0)
    assert len(monomial_basis(kx, (3, 0))) == 4
    assert monomial_basis(kx, (0, 1)) == []
    f = parse_poly("x1^2 + x2^2", kx)
    assert f.bidegree() == Bidegree(2, 0)
    with pytest.raises(UnknownVariableError):
        parse_poly("y1", kx)
