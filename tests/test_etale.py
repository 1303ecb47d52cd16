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


Z15 = rings.IntegersMod(15)


def reference_ops(S):
    """The S ops written from the base ring's own ops: the path every ring took before the Z/n int path."""
    R = S.ring
    ops = {
        "add": lambda x, y: (R.add(x[0], y[0]), R.add(x[1], y[1])),
        "sub": lambda x, y: (R.sub(x[0], y[0]), R.sub(x[1], y[1])),
        "neg": lambda x: (R.neg(x[0]), R.neg(x[1])),
    }
    if S.kind == "split":
        return ops | {
            "mul": lambda x, y: (R.mul(x[0], y[0]), R.mul(x[1], y[1])),
            "conj": lambda x: (x[1], x[0]),
            "norm": lambda x: R.mul(x[0], x[1]),
            "trace": lambda x: R.add(x[0], x[1]),
        }
    d = S.d
    return ops | {
        "mul": lambda x, y: (
            R.add(R.mul(x[0], y[0]), R.mul(d, R.mul(x[1], y[1]))),
            R.add(R.mul(x[0], y[1]), R.mul(x[1], y[0])),
        ),
        "conj": lambda x: (x[0], R.neg(x[1])),
        "norm": lambda x: R.sub(R.mul(x[0], x[0]), R.mul(d, R.mul(x[1], x[1]))),
        "trace": lambda x: R.add(x[0], x[0]),
    }


INT_PATH = [
    etale.SplitTorus(F7),
    etale.SplitTorus(Z15),
    etale.KummerExtension(F7, 3),
    etale.KummerExtension(Z15, 2),
]


@pytest.mark.parametrize("S", INT_PATH, ids=lambda s: f"{s.kind}/{s.ring.kind}")
def test_int_path_equals_ring_ops(S):
    R, ref = S.ring, reference_ops(S)
    assert S.n == R.n
    elements = list(product(range(R.n), repeat=2))
    for x in elements:
        for op in ("neg", "conj", "norm", "trace"):
            assert getattr(S, op)(x) == ref[op](x), (op, x)
        for r in range(R.n):
            assert S.smul(r, x) == (R.mul(r, x[0]), R.mul(r, x[1])), (r, x)
        for y in elements:
            for op in ("add", "sub", "mul"):
                assert getattr(S, op)(x, y) == ref[op](x, y), (op, x, y)


@pytest.mark.parametrize("S", INT_PATH, ids=lambda s: f"{s.kind}/{s.ring.kind}")
def test_int_path_sample_draws_as_the_ring_does(S):
    ours, ring = SplitMix64(41), SplitMix64(41)
    for _ in range(200):
        assert S.sample(ours) == (S.ring.sample(ring), S.ring.sample(ring))
    assert ours.next_u64() == ring.next_u64()


def test_ring_op_path_off_z_mod_n():
    poly = rings.PolynomialRing(Q, ["t0"])
    for S in (etale.SplitTorus(Q), etale.KummerExtension(Q, Q.of_int(5)), etale.SplitTorus(poly)):
        assert S.n == 0
    assert etale.KummerExtension(poly, poly.one).n == 0
