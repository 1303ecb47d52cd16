from fractions import Fraction
from math import gcd

import pytest

from colouralg import rings
from colouralg.checks import SplitMix64
from colouralg.errors import BadPrime, EvenModulus, NotAUnit, ParseError, WrongRing


def ext_euclid(a, b):
    """Oracle: returns (g, x, y) with a*x + b*y = g."""
    if b == 0:
        return a, 1, 0
    g, x, y = ext_euclid(b, a % b)
    return g, y, x - (a // b) * y


RINGS = [
    rings.RationalField(),
    rings.PrimeField(7),
    rings.IntegersMod(15),
    rings.PolynomialRing(rings.RationalField(), ["t0", "t1"]),
    rings.PolynomialRing(rings.PrimeField(7), ["t0", "t1", "t2"]),
]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.kind)
def test_ring_axioms_on_samples(ring):
    rng = SplitMix64(20240901)
    for _ in range(120):
        a, b, c = ring.sample(rng), ring.sample(rng), ring.sample(rng)
        assert ring.add(a, b) == ring.add(b, a)
        assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
        assert ring.mul(a, b) == ring.mul(b, a)
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
        assert ring.add(a, ring.zero) == a
        assert ring.mul(a, ring.one) == a
        assert ring.add(a, ring.neg(a)) == ring.zero
        assert ring.sub(a, b) == ring.add(a, ring.neg(b))


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.kind)
def test_parse_format_roundtrip(ring):
    rng = SplitMix64(77)
    for _ in range(200):
        x = ring.sample(rng)
        assert ring.parse(ring.format(x)) == x


def test_make_ring_specs_roundtrip():
    for ring in RINGS:
        again = rings.make_ring(ring.to_spec())
        assert again == ring


def test_two_invertible_in_supported_rings():
    q = rings.RationalField()
    assert q.mul(q.inv(q.of_int(2)), q.of_int(2)) == q.one
    z15 = rings.IntegersMod(15)
    g, x, _ = ext_euclid(2, 15)
    assert g == 1
    assert z15.inv(2) == x % 15 == 8


def test_modular_constructor_rejections():
    with pytest.raises(EvenModulus):
        rings.IntegersMod(4)
    with pytest.raises(EvenModulus):
        rings.IntegersMod(1)
    with pytest.raises(BadPrime):
        rings.PrimeField(9)
    with pytest.raises(BadPrime):
        rings.PrimeField(2)


def test_prime_check_is_exact():
    # Miller-Rabin against trial division, and on strong pseudoprimes to
    # every prime base up to 23 and up to 37 (the latter is 399165290221 *
    # 798330580441; only the thirteenth base, 41, exposes it)
    def trial(p):
        return p > 2 and p % 2 == 1 and all(p % d for d in range(3, int(p**0.5) + 1, 2))

    assert [p for p in range(5000) if rings._is_odd_prime(p)] == [p for p in range(5000) if trial(p)]
    assert not rings._is_odd_prime(3825123056546413051)
    assert not rings._is_odd_prime(318665857834031151167461)
    assert rings.PrimeField(2**61 - 1).p == 2**61 - 1
    with pytest.raises(BadPrime):
        rings.PrimeField(rings.PRIME_LIMIT + 2)


def test_invert_examples():
    f7 = rings.PrimeField(7)
    assert f7.inv(2) == 4  # 2*4 = 8 = 1 mod 7
    q = rings.RationalField()
    assert q.inv(Fraction(3, 4)) == Fraction(4, 3)
    poly = rings.PolynomialRing(q, ["t0"])
    with pytest.raises(NotAUnit):
        poly.inv(poly.var("t0"))


@pytest.mark.parametrize("n", [9, 15, 21, 45, 99])
def test_units_match_exhaustive_enumeration(n):
    ring = rings.IntegersMod(n)
    for x in range(n):
        has_inverse = any((x * y) % n == 1 for y in range(n))
        assert ring.is_unit(x) == has_inverse == (gcd(x, n) == 1)
        if has_inverse:
            assert ring.mul(ring.inv(x), x) == ring.one
        else:
            with pytest.raises(NotAUnit):
                ring.inv(x)


def test_parse_examples():
    q = rings.RationalField()
    assert q.parse("3/4") == Fraction(3, 4)
    assert q.parse(" -3/4 + 1 ") == Fraction(1, 4)
    z15 = rings.IntegersMod(15)
    assert z15.parse("1/2") == 8
    poly = rings.PolynomialRing(q, ["t0", "t1"])
    p = poly.parse("2*t0^2*t1 + 1")
    assert p == {(2, 1): Fraction(2), (0, 0): Fraction(1)}
    assert poly.format(p) == "2*t0^2*t1 + 1"


def test_parse_errors_carry_position():
    q = rings.RationalField()
    with pytest.raises(ParseError) as err:
        q.parse("3 + @")
    assert err.value.position == 4
    with pytest.raises(ParseError):
        q.parse("")
    with pytest.raises(ParseError):
        q.parse("3 +")
    with pytest.raises(ParseError):
        q.parse("t0")  # variables only exist in polynomial rings


def test_wrong_ring_fraction():
    z15 = rings.IntegersMod(15)
    with pytest.raises(WrongRing):
        z15.parse("1/3")  # 3 divides 15
    assert z15.parse("2/7") == (2 * pow(7, -1, 15)) % 15


def test_poly_canonical_no_zero_coefficients():
    f7 = rings.PrimeField(7)
    poly = rings.PolynomialRing(f7, ["t0"])
    t0 = poly.var("t0")
    p = poly.add(t0, poly.smul(f7.of_int(6), t0))  # t0 + 6 t0 = 0 mod 7
    assert p == poly.zero == {}


def test_poly_grlex_formatting_order():
    q = rings.RationalField()
    poly = rings.PolynomialRing(q, ["t0", "t1"])
    p = poly.parse("t1 + t0 + t0*t1 + 1 + t1^2")
    # graded-lex descending: degree-2 terms first (t0*t1 before t1^2), then
    # degree 1 (t0 before t1), then the constant
    assert poly.format(p) == "t0*t1 + t1^2 + t0 + t1 + 1"


def test_poly_homogeneous_helpers():
    q = rings.RationalField()
    poly = rings.PolynomialRing(q, ["t0", "t1"])
    p = poly.parse("t0^2 + 2*t0*t1 + t1 + 3")
    assert poly.degree(p) == 2
    assert poly.homogeneous_component(p, 2) == poly.parse("t0^2 + 2*t0*t1")
    assert poly.is_homogeneous(poly.parse("t0^2 + 2*t0*t1"), 2)
    assert not poly.is_homogeneous(p, 2)
    assert poly.degree(poly.zero) == -1


def test_poly_unit_detection():
    z15 = rings.IntegersMod(15)
    poly = rings.PolynomialRing(z15, ["t0"])
    assert poly.is_unit(poly.of_int(2))
    assert not poly.is_unit(poly.of_int(3))
    assert not poly.is_unit(poly.var("t0"))
    assert poly.inv(poly.of_int(2)) == poly.of_int(8)


def test_poly_base_restriction():
    q = rings.RationalField()
    inner = rings.PolynomialRing(q, ["x"])
    with pytest.raises(WrongRing):
        rings.PolynomialRing(inner, ["y"])


def test_monomials_of_degree_counts():
    from math import comb

    for nvars in (2, 3, 4):
        for d in range(0, 6):
            monos = rings.monomials_of_degree(nvars, d)
            assert len(monos) == comb(d + nvars - 1, nvars - 1)
            assert len(set(monos)) == len(monos)
            assert all(sum(e) == d for e in monos)
