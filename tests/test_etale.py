from itertools import product

import pytest

from colouralg import etale, rings
from colouralg.checks import SplitMix64
from colouralg.errors import NotAUnit, WrongRing

Q = rings.RationalField()
F7 = rings.PrimeField(7)

ALGEBRAS = [
    etale.SplitTorus(Q),
    etale.SplitTorus(F7),
    etale.KummerExtension(F7, 3),
    etale.KummerExtension(Q, Q.of_int(5)),
]


def test_split_orthogonal_idempotents():
    S = etale.SplitTorus(Q)
    e1, e2 = (Q.one, Q.zero), (Q.zero, Q.one)
    assert S.mul(e1, e2) == S.zero
    assert S.mul(e1, e1) == e1
    assert S.add(e1, e2) == S.one


def test_kummer_3_mod_7_is_a_field():
    # squares mod 7 are {1, 2, 4}, so 3 is a non-square and F7[sqrt(3)] = F49
    squares = {(x * x) % 7 for x in range(1, 7)}
    assert squares == {1, 2, 4} and 3 not in squares
    K = etale.KummerExtension(F7, 3)
    elements = list(product(range(7), repeat=2))
    assert len(elements) == 49 == len(set(elements))
    for x in elements:
        if x != K.zero:
            assert K.is_unit(x)
            assert K.mul(K.inv(x), x) == K.one


def test_kummer_requires_unit_parameter():
    poly = rings.PolynomialRing(Q, ["t0"])
    with pytest.raises(NotAUnit):
        etale.KummerExtension(poly, poly.parse("t0"))


def test_conj_examples():
    S = etale.SplitTorus(Q)
    assert S.conj((Q.of_int(3), Q.of_int(5))) == (Q.of_int(5), Q.of_int(3))
    K = etale.KummerExtension(F7, 3)
    assert K.conj((2, 1)) == (2, 6)  # 2 + sqrt(3) -> 2 - sqrt(3)


@pytest.mark.parametrize("S", ALGEBRAS, ids=lambda s: f"{s.kind}/{s.ring.kind}")
def test_conj_is_a_multiplicative_involution(S):
    rng = SplitMix64(11)
    for _ in range(100):
        x, y = S.sample(rng), S.sample(rng)
        assert S.conj(S.conj(x)) == x
        assert S.conj(S.mul(x, y)) == S.mul(S.conj(x), S.conj(y))
        assert S.conj(S.add(x, y)) == S.add(S.conj(x), S.conj(y))


def test_norm_trace_examples():
    S = etale.SplitTorus(Q)
    x = (Q.of_int(2), Q.of_int(3))
    assert (S.norm(x), S.trace(x)) == (Q.of_int(6), Q.of_int(5))
    K = etale.KummerExtension(F7, 3)
    assert (K.norm((2, 1)), K.trace((2, 1))) == (1, 4)  # a^2 - d b^2 = 4 - 3 = 1, 2a = 4
    assert (K.norm(K.one), K.trace(K.one)) == (1, 2)


@pytest.mark.parametrize("S", ALGEBRAS, ids=lambda s: f"{s.kind}/{s.ring.kind}")
def test_norm_is_multiplicative(S):
    rng = SplitMix64(29)
    R = S.ring
    for _ in range(150):
        x, y = S.sample(rng), S.sample(rng)
        assert S.norm(S.mul(x, y)) == R.mul(S.norm(x), S.norm(y))


@pytest.mark.parametrize("S", ALGEBRAS, ids=lambda s: f"{s.kind}/{s.ring.kind}")
def test_quadratic_relation(S):
    # x^2 - t(x) x + n(x) 1 = 0
    rng = SplitMix64(31)
    for _ in range(150):
        x = S.sample(rng)
        n, t = S.norm(x), S.trace(x)
        acc = S.add(S.sub(S.mul(x, x), S.smul(t, x)), S.smul(n, S.one))
        assert acc == S.zero


@pytest.mark.parametrize("S", ALGEBRAS, ids=lambda s: f"{s.kind}/{s.ring.kind}")
def test_norm_lands_in_fixed_ring(S):
    rng = SplitMix64(37)
    for _ in range(100):
        x = S.sample(rng)
        y = S.mul(x, S.conj(x))
        assert S.conj(y) == y
        assert S.scalar(S.norm(x)) == y


def test_unit_iff_norm_unit_over_z15():
    z15 = rings.IntegersMod(15)
    S = etale.SplitTorus(z15)
    for x in product(range(15), repeat=2):
        assert S.is_unit(x) == z15.is_unit(S.norm(x))


def test_json_roundtrip_and_spec():
    K = etale.KummerExtension(F7, 3)
    x = (2, 5)
    assert K.from_json(K.to_json(x)) == x
    again = etale.make_etale(F7, K.to_spec())
    assert again == K
    S = etale.make_etale(Q, {"kind": "split"})
    assert isinstance(S, etale.SplitTorus)
    with pytest.raises(WrongRing):
        etale.make_etale(Q, {"kind": "mystery"})


def test_as_scalar_rejects_non_fixed():
    S = etale.SplitTorus(Q)
    with pytest.raises(WrongRing):
        S.as_scalar((Q.one, Q.zero))
