from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def _coefficient(base, num, den):
    """num/den in a scalar base ring; the denominator is dropped when it is
    not a unit there."""
    if isinstance(base, rings.RationalField):
        return Fraction(num, den)
    n = base.n
    return num * pow(den, -1, n) % n if gcd(den, n) == 1 else num % n


def _element(ring, terms):
    """The element described by ``{exponents: (num, den)}``: the sparse
    polynomial of those terms, or for a scalar ring the first coefficient."""
    if not isinstance(ring, rings.PolynomialRing):
        return next((_coefficient(ring, *c) for c in terms.values()), ring.zero)
    out = {}
    for exps, c in terms.items():
        out[exps[: ring.nvars]] = _coefficient(ring.base, *c)
    return {e: c for e, c in out.items() if c != 0}


# numerators and denominators far beyond the sampler's +-10
_TERMS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.integers(), st.integers(min_value=1)),
    max_size=4,
)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.kind)
@settings(max_examples=60, deadline=None)
@example(terms=None)  # the fixed draws: 200 samples of SplitMix64(77)
@example(terms={(0, 0, 0): (-(10**40) - 1, 10**30), (2, 1, 0): (0, 1), (1, 0, 3): (7, 10**25 + 13)})
@given(terms=_TERMS)
def test_parse_format_roundtrip(ring, terms):
    if terms is None:
        rng = SplitMix64(77)
        xs = [ring.sample(rng) for _ in range(200)]
    else:
        xs = [_element(ring, terms)]
    for x in xs:
        assert ring.parse(ring.format(x)) == x


def test_fraction_slot_layout():
    # RationalField builds its results by filling exactly these two slots
    assert Fraction.__slots__ == ("_numerator", "_denominator")


_BIG_FRACTIONS = st.builds(Fraction, st.integers(), st.integers(min_value=1))


@settings(max_examples=300, deadline=None)
@example(a=Fraction(0), b=Fraction(0))
@example(a=Fraction(-1, 2), b=Fraction(1, 2))
@example(a=Fraction(3, 4), b=Fraction(-3, 4))
@example(a=Fraction(5, 6), b=Fraction(7, 10))
@example(a=Fraction(-(10**40) + 3, 6 * 10**35), b=Fraction(10**38, 9 * 10**35 + 1))
@given(a=_BIG_FRACTIONS, b=_BIG_FRACTIONS)
def test_rational_ops_match_fraction_operators(a, b):
    Q = rings.RationalField()
    for got, want in (
        (Q.add(a, b), a + b),
        (Q.sub(a, b), a - b),
        (Q.mul(a, b), a * b),
        (Q.neg(a), -a),
        (Q.add(a, Q.neg(a)), Fraction(0)),
    ):
        assert type(got) is Fraction
        assert got == want
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert got.denominator > 0
        assert gcd(got.numerator, got.denominator) == 1
        assert hash(got) == hash(want)
    assert Q.is_zero(a) == (a == 0)
    assert Q.is_zero(b) == (b == 0)


def _reference_ops(base):
    """Base-ring add, mul and zero test through the payloads' own operators."""
    if isinstance(base, rings.RationalField):
        return (lambda x, y: x + y), (lambda x, y: x * y), (lambda x: x == 0)
    n = base.n
    return (lambda x, y: (x + y) % n), (lambda x, y: x * y % n), (lambda x: x == 0)


def _reference_add(base, a, b):
    # the per-term loop of the original PolynomialRing.add
    add, _, is_zero = _reference_ops(base)
    out = dict(a)
    for e, c in b.items():
        s = add(out.get(e, base.zero), c)
        if is_zero(s):
            out.pop(e, None)
        else:
            out[e] = s
    return out


def _reference_mul(base, a, b):
    # the per-term loop of the original PolynomialRing.mul
    add, mul, is_zero = _reference_ops(base)
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = add(out.get(e, base.zero), mul(c1, c2))
            if is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
    return out


def _reference_neg(base, a):
    _, mul, _ = _reference_ops(base)
    return {e: mul(c, base.of_int(-1)) for e, c in a.items()}


_POLY_TERMS = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.just(0)),
    st.tuples(st.integers(-4, 4) | st.integers(), st.integers(1, 6) | st.integers(min_value=1)),
    max_size=5,
)


@pytest.mark.parametrize(
    "base", [rings.RationalField(), rings.PrimeField(7), rings.IntegersMod(15)], ids=lambda r: r.kind
)
@settings(max_examples=150, deadline=None)
# (t0 + t1)(t0 - t1): the cross terms cancel
@example(a={(1, 0, 0): (1, 1), (0, 1, 0): (1, 1)}, b={(1, 0, 0): (1, 1), (0, 1, 0): (-1, 1)})
# (1/2 + t0)(-1/2 + t0) = t0^2 - 1/4: the t0 terms cancel
@example(a={(0, 0, 0): (1, 2), (1, 0, 0): (1, 1)}, b={(0, 0, 0): (-1, 2), (1, 0, 0): (1, 1)})
# 3 t0 * 5 t1 is zero in Z/15; a - a is zero everywhere
@example(a={(1, 0, 0): (3, 1)}, b={(0, 1, 0): (5, 1)})
@example(a={(2, 1, 0): (10**30 + 1, 3)}, b={(2, 1, 0): (10**30 + 1, 3)})
@given(a=_POLY_TERMS, b=_POLY_TERMS)
def test_poly_ops_match_per_term_reference(base, a, b):
    P = rings.PolynomialRing(base, ["t0", "t1"])
    x, y = _element(P, a), _element(P, b)
    assert P.mul(x, y) == _reference_mul(base, x, y)
    assert P.add(x, y) == _reference_add(base, x, y)
    assert P.sub(x, y) == _reference_add(base, x, _reference_neg(base, y))
    assert P.sub(x, x) == {}
    for z in (P.mul(x, y), P.add(x, y), P.sub(x, y)):
        assert all(not base.is_zero(c) for c in z.values())


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
        poly.inv(poly.parse("t0"))


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
    t0 = poly.parse("t0")
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
    assert max(sum(e) for e in p) == 2
    assert {e: c for e, c in p.items() if sum(e) == 2} == poly.parse("t0^2 + 2*t0*t1")
    assert poly.is_homogeneous(poly.parse("t0^2 + 2*t0*t1"), 2)
    assert not poly.is_homogeneous(p, 2)
    assert max((sum(e) for e in poly.zero), default=-1) == -1


def test_poly_unit_detection():
    z15 = rings.IntegersMod(15)
    poly = rings.PolynomialRing(z15, ["t0"])
    assert poly.is_unit(poly.of_int(2))
    assert not poly.is_unit(poly.of_int(3))
    assert not poly.is_unit(poly.parse("t0"))
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
