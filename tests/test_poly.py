"""Monomials, polynomial arithmetic, the text grammar, the truncated chart."""

import random
from math import comb

import pytest

from coeffmod.errors import ParseError, RingMismatchError
from coeffmod.linalg import QQ, PrimeField
from coeffmod.poly import (
    Monomial,
    MonomialIndex,
    PolyElement,
    RingDescriptor,
    parse_poly,
    t_basis,
)

R21 = RingDescriptor(QQ, d=2, p=1)
R22 = RingDescriptor(QQ, d=2, p=2)
R11 = RingDescriptor(QQ, d=1, p=1)


def P(text, ring=R21):
    return parse_poly(text, ring)


def test_monomial_degrees_and_divisibility():
    m = Monomial((2, 1), (1, 0))
    assert m.xdeg == 3 and m.tdeg == 1
    assert Monomial((1, 0), (1, 0)).divides(m)
    assert not Monomial((0, 2), (1, 0)).divides(m)


def test_monomial_order_is_t_degree_then_x():
    a = Monomial((5, 5), (0, 0))
    b = Monomial((0, 0), (1, 0))
    assert a < b  # any t-degree beats any x-degree
    # t1 sorts before t2 in the canonical ascending order, x1 before x2
    t1 = Monomial((0, 0), (1, 0))
    t2 = Monomial((0, 0), (0, 1))
    assert sorted([t2, t1]) == [t1, t2]
    x1 = Monomial((1, 0), (0, 0))
    x2 = Monomial((0, 1), (0, 0))
    assert sorted([x2, x1]) == [x1, x2]


def test_multiply_monomials_and_identity():
    a = parse_poly("x1*t1", RingDescriptor(QQ, 2, 2))
    b = parse_poly("x2*t2", RingDescriptor(QQ, 2, 2))
    assert a.mul(b).text() == "x1*x2*t1*t2"
    one = parse_poly("1", RingDescriptor(QQ, 2, 2))
    assert a.mul(one) == a


def test_multiply_difference_of_squares():
    ring = RingDescriptor(QQ, 1, 2)
    s = parse_poly("t1 + t2", ring)
    d = parse_poly("t1 - t2", ring)
    assert s.mul(d) == parse_poly("t1^2 - t2^2", ring)


def test_parse_simple_and_cancellation():
    assert len(P("x1^2 + 3*x1*x2").coeffs) == 2
    assert P("0").is_zero()
    assert P("2*x1 - 2*x1").is_zero()


def test_parse_rejects_unknown_variable_and_syntax():
    with pytest.raises(ParseError):
        P("x3")
    with pytest.raises(ParseError):
        P("t2", R21)
    with pytest.raises(ParseError):
        P("x1 +")
    with pytest.raises(ParseError):
        P("")
    with pytest.raises(ParseError):
        P("x1 x2")


def test_parse_exponent_overflow():
    with pytest.raises(ParseError):
        P("x1^99999999")


def test_ring_mismatch_on_multiply():
    with pytest.raises(RingMismatchError):
        P("x1").mul(parse_poly("x1", R22))


def test_serialize_round_trip_random():
    rng = random.Random(5)
    ring = RingDescriptor(QQ, 2, 2)
    for _ in range(25):
        coeffs = {}
        for _ in range(rng.randint(1, 6)):
            m = Monomial(
                (rng.randint(0, 3), rng.randint(0, 3)),
                (rng.randint(0, 2), rng.randint(0, 2)),
            )
            coeffs[m] = QQ.of(rng.randint(-9, 9))
        poly = PolyElement(ring, coeffs)
        assert parse_poly(poly.text(), ring) == poly


def test_serialize_round_trip_prime_field():
    field = PrimeField(10007)
    ring = RingDescriptor(field, 2, 1)
    poly = parse_poly("10006*x1 + 3*x2", ring)
    assert parse_poly(poly.text(), ring) == poly


def test_multiply_commutes_associates_distributes():
    rng = random.Random(9)
    ring = R21

    def rand_poly():
        coeffs = {}
        for _ in range(rng.randint(0, 4)):
            m = Monomial((rng.randint(0, 2), rng.randint(0, 2)), (rng.randint(0, 2),))
            coeffs[m] = QQ.of(rng.randint(-4, 4))
        return PolyElement(ring, coeffs)

    for _ in range(15):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a.mul(b) == b.mul(a)
        assert a.mul(b.mul(c)) == a.mul(b).mul(c)
        assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))


def test_t_degree_adds_for_homogeneous_elements():
    ring = R22
    a = parse_poly("x1*t1 + x2*t2", ring)
    b = parse_poly("t1^2", ring)
    assert a.tdeg() == 1 and b.tdeg() == 2
    assert a.mul(b).tdeg() == 3


def test_enumerate_basis_examples():
    def columns(ring, n, bound, texts):
        index = MonomialIndex(ring, n, bound)
        assert index.dim == len(texts)
        return [list(index.vector(P(t, ring).terms())).index(1) for t in texts]

    assert columns(R11, 1, 2, ["t1", "x1*t1"]) == [0, 1]
    assert columns(R22, 1, 1, ["t1", "t2"]) == [0, 1]
    assert columns(R21, 2, 2, ["t1^2", "x1*t1^2", "x2*t1^2"]) == [0, 1, 2]


def test_enumerate_basis_count_formula():
    rng = random.Random(2)
    for _ in range(10):
        d, p = rng.randint(1, 3), rng.randint(1, 3)
        n, bound = rng.randint(0, 4), rng.randint(1, 4)
        index = MonomialIndex(RingDescriptor(QQ, d, p), n, bound)
        assert index.dim == comb(n + p - 1, p - 1) * comb(bound - 1 + d, d)
        # column order is the global monomial order
        chart = [Monomial(tuple(int(e) for e in x), t) for t in index.texps for x in index.xexps]
        assert len(chart) == index.dim
        assert chart == sorted(chart)


def test_t_basis_is_free_module_basis():
    ring = R22
    assert [m.text() for m in t_basis(ring, 1)] == ["t1", "t2"]
    assert len(t_basis(ring, 3)) == 4
