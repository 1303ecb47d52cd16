from fractions import Fraction

import pytest

from colouralg import algebras, etale, rings
from colouralg.algebras import (
    CayElement,
    CayleyAlgebra,
    ColHermAlgebra,
    ColHermElement,
    ColSplitAlgebra,
    ColSplitElement,
    WHermAlgebra,
    WSplitAlgebra,
    WSplitElement,
    ZornAlgebra,
    ZornElement,
    quadratic_decompose,
    vector_product_of_quadratic,
)
from colouralg.checks import SplitMix64
from colouralg.errors import NotTraceZero, WrongRing
from colouralg.graded import GradedAlgebra, GradedElement, GradedSpec
from colouralg.trivec import HermitianSpace, mat_identity

Q = rings.RationalField()
F5 = rings.PrimeField(5)
F7 = rings.PrimeField(7)
Z15 = rings.IntegersMod(15)


def split_space(ring, lam):
    S = etale.SplitTorus(ring)
    return HermitianSpace(S, mat_identity(S), (lam, ring.inv(lam)))


def kummer_space():
    K = etale.KummerExtension(F7, 3)
    return HermitianSpace(K, mat_identity(K), K.one)


def e_elt(ring, i):
    return tuple(ring.one if k == i else ring.zero for k in range(3))


def zvec(ring):
    return (ring.zero,) * 3


UNITAL = [
    ColSplitAlgebra(Q, Fraction(1)),
    ColSplitAlgebra(Z15, 2),
    ZornAlgebra(Q, Fraction(2)),
    ZornAlgebra(F7, 1),
    CayleyAlgebra(split_space(Q, Fraction(1))),
    CayleyAlgebra(kummer_space()),
    ColHermAlgebra(split_space(F7, 3)),
    ColHermAlgebra(kummer_space()),
]

ALL = UNITAL + [
    WSplitAlgebra(Q, Fraction(1)),
    WSplitAlgebra(F7, 2),
    WHermAlgebra(split_space(F5, 1)),
    WHermAlgebra(kummer_space()),
]


def _id(A):
    return f"{A.family}/{A.ring.kind}"


# ---------------------------------------------------------------- col split


def test_col_split_basis_relation():
    A = ColSplitAlgebra(Q, Fraction(1))
    u1 = ColSplitElement(Q.zero, e_elt(Q, 0), zvec(Q))
    u2 = ColSplitElement(Q.zero, e_elt(Q, 1), zvec(Q))
    assert A.mul(u1, u2) == ColSplitElement(Q.zero, zvec(Q), e_elt(Q, 2))
    # the half-weighted pairing: u1 * v1 = 1/2
    v1 = ColSplitElement(Q.zero, zvec(Q), e_elt(Q, 0))
    assert A.mul(u1, v1) == ColSplitElement(Fraction(1, 2), zvec(Q), zvec(Q))


def test_col_split_worked_product():
    A = ColSplitAlgebra(Q, Fraction(1))
    x = ColSplitElement(Fraction(1), e_elt(Q, 0), e_elt(Q, 1))
    y = ColSplitElement(Fraction(2), e_elt(Q, 1), e_elt(Q, 0))
    p = A.mul(x, y)
    assert p == ColSplitElement(
        Fraction(3),
        tuple(map(Fraction, (2, 1, 1))),
        tuple(map(Fraction, (1, 2, 1))),
    )


def test_col_split_norm_trace():
    A = ColSplitAlgebra(Q, Fraction(1))
    assert (A.norm(A.one()), A.trace(A.one())) == (Fraction(1), Fraction(2))
    x = ColSplitElement(Fraction(2), e_elt(Q, 0), tuple(map(Fraction, (3, 0, 0))))
    assert (A.norm(x), A.trace(x)) == (Fraction(1), Fraction(4))  # 4 - 3, 2*2


# ---------------------------------------------------------------- zorn


def test_zorn_idempotents():
    A = ZornAlgebra(Q, Fraction(1))
    e11 = ZornElement(Q.one, zvec(Q), zvec(Q), Q.zero)
    e22 = ZornElement(Q.zero, zvec(Q), zvec(Q), Q.one)
    assert A.mul(e11, e22) == A.zero()
    assert A.mul(e11, e11) == e11
    assert A.add(e11, e22) == A.one()


def test_zorn_worked_product_and_norm():
    A = ZornAlgebra(Q, Fraction(1))
    x = ZornElement(Fraction(1), e_elt(Q, 0), zvec(Q), Fraction(0))
    y = ZornElement(Fraction(0), zvec(Q), e_elt(Q, 0), Fraction(1))
    # hand expansion: diagonal (1*0 + <e1, e1d>, <0, 0> + 0*1), vectors (e1, 0)
    assert A.mul(x, y) == ZornElement(Fraction(1), e_elt(Q, 0), zvec(Q), Fraction(0))
    z = ZornElement(Fraction(2), e_elt(Q, 0), e_elt(Q, 0), Fraction(3))
    assert A.norm(z) == Fraction(5)  # 6 - 1


def test_zorn_involution_preserves_norm():
    A = ZornAlgebra(F7, 2)
    rng = SplitMix64(61)
    for _ in range(200):
        x = A.sample(rng)
        xb = A.involution(x)
        assert A.norm(xb) == A.norm(x)
        # x + conj(x) = trace * 1 and x * conj(x) = norm * 1
        assert A.add(x, xb) == A.smul(A.trace(x), A.one())
        assert A.mul(x, xb) == A.smul(A.norm(x), A.one())


# ---------------------------------------------------------------- cay


def test_cay_left_unit_and_involution_example():
    A = CayleyAlgebra(split_space(Q, Fraction(1)))
    S = A.S
    rng = SplitMix64(67)
    for _ in range(50):
        x = A.sample(rng)
        assert A.mul(A.one(), x) == x
        assert A.mul(x, A.one()) == x
    x = CayElement((Fraction(1), Fraction(2)), ((S.zero),) * 3)
    sx, n, t = A.involution(x), A.norm(x), A.trace(x)
    assert sx == CayElement((Fraction(2), Fraction(1)), (S.zero,) * 3)
    assert n == Fraction(2)
    assert t == Fraction(3)


@pytest.mark.parametrize(
    "A",
    [CayleyAlgebra(split_space(Q, Fraction(1))), CayleyAlgebra(kummer_space())],
    ids=_id,
)
def test_cay_scalar_involution(A):
    rng = SplitMix64(71)
    for _ in range(200):
        x = A.sample(rng)
        sx = A.involution(x)
        assert A.involution(sx) == x
        assert A.mul(sx, x) == A.smul(A.norm(x), A.one())
        assert A.mul(x, sx) == A.smul(A.norm(x), A.one())


# ---------------------------------------------------------------- w families


@pytest.mark.parametrize(
    "A",
    [
        WSplitAlgebra(Q, Fraction(1)),
        WSplitAlgebra(F7, 2),
        WHermAlgebra(split_space(F5, 1)),
        WHermAlgebra(kummer_space()),
    ],
    ids=_id,
)
def test_w_anticommutative_and_square_zero(A):
    rng = SplitMix64(73)
    for _ in range(200):
        x, y = A.sample(rng), A.sample(rng)
        assert A.mul(x, x) == A.zero()
        assert A.add(A.mul(x, y), A.mul(y, x)) == A.zero()


@pytest.mark.parametrize(
    "A",
    [
        WSplitAlgebra(Q, Fraction(1)),
        WSplitAlgebra(F7, 2),
        WHermAlgebra(split_space(F5, 1)),
        WHermAlgebra(kummer_space()),
    ],
    ids=_id,
)
def test_w_quartic_identity(A):
    # ((x v) v) v = -n(v) (x v); the +n(v) variant is false (checked below)
    rng = SplitMix64(79)
    seen_positive_failure = False
    for _ in range(300):
        x, v = A.sample(rng), A.sample(rng)
        xv = A.mul(x, v)
        lhs = A.mul(A.mul(xv, v), v)
        assert lhs == A.smul(A.ring.neg(A.norm(v)), xv)
        if lhs != A.smul(A.norm(v), xv):
            seen_positive_failure = True
    assert seen_positive_failure, "the opposite-sign variant should fail somewhere"


def test_w_split_norm_convention():
    A = WSplitAlgebra(Q, Fraction(1))
    v = WSplitElement(e_elt(Q, 0), e_elt(Q, 0))
    assert A.norm(v) == Fraction(-1)  # n((v, vd)) = -<v, vd>


# ------------------------------------------------------- shared properties


@pytest.mark.parametrize("A", UNITAL, ids=_id)
def test_unit_laws(A):
    rng = SplitMix64(83)
    one = A.one()
    for _ in range(100):
        x = A.sample(rng)
        assert A.mul(one, x) == x
        assert A.mul(x, one) == x


@pytest.mark.parametrize("A", UNITAL, ids=_id)
def test_quadratic_relation(A):
    rng = SplitMix64(89)
    for _ in range(300):
        x = A.sample(rng)
        n, t = A.norm(x), A.trace(x)
        acc = A.add(A.sub(A.mul(x, x), A.smul(t, x)), A.smul(n, A.one()))
        assert acc == A.zero()


@pytest.mark.parametrize("A", ALL, ids=_id)
def test_flexible_law(A):
    rng = SplitMix64(97)
    for _ in range(250):
        x, y = A.sample(rng), A.sample(rng)
        assert A.mul(A.mul(x, y), x) == A.mul(x, A.mul(y, x))


@pytest.mark.parametrize("A", UNITAL, ids=_id)
def test_jordan_identity(A):
    rng = SplitMix64(101)
    for _ in range(250):
        x, y = A.sample(rng), A.sample(rng)
        x2 = A.mul(x, x)
        assert A.mul(A.mul(x, y), x2) == A.mul(x, A.mul(y, x2))


@pytest.mark.parametrize("A", UNITAL, ids=_id)
def test_power_associativity_spot_checks(A):
    rng = SplitMix64(103)
    for _ in range(150):
        x = A.sample(rng)
        x2 = A.mul(x, x)
        assert A.mul(x2, x) == A.mul(x, x2)
        assert A.mul(x2, x2) == A.mul(A.mul(x2, x), x)


@pytest.mark.parametrize(
    "A",
    [
        ZornAlgebra(Q, Fraction(1)),
        ZornAlgebra(Q, Fraction(2)),
        ZornAlgebra(F7, 2),
        CayleyAlgebra(split_space(Q, Fraction(1))),
        CayleyAlgebra(kummer_space()),
    ],
    ids=_id,
)
def test_norm_composition_octonion_families(A):
    rng = SplitMix64(107)
    R = A.ring
    for _ in range(300):
        x, y = A.sample(rng), A.sample(rng)
        assert A.norm(A.mul(x, y)) == R.mul(A.norm(x), A.norm(y))


def test_norm_composition_fails_for_colour():
    # colour norms are not multiplicative; the first counterexample is cheap
    A = ColSplitAlgebra(Q, Fraction(1))
    rng = SplitMix64(109)
    failures = 0
    for _ in range(50):
        x, y = A.sample(rng), A.sample(rng)
        if A.norm(A.mul(x, y)) != Q.mul(A.norm(x), A.norm(y)):
            failures += 1
    assert failures > 0


# ------------------------------------------------------- decomposition


def test_quadratic_decompose_examples():
    A = ColSplitAlgebra(Q, Fraction(1))
    r, x0 = quadratic_decompose(A, A.one())
    assert (r, x0) == (Fraction(1), A.zero())
    x = ColSplitElement(Fraction(3), e_elt(Q, 0), e_elt(Q, 1))
    r, x0 = quadratic_decompose(A, x)
    assert r == Fraction(3)
    assert x0 == ColSplitElement(Fraction(0), e_elt(Q, 0), e_elt(Q, 1))
    Z = ZornAlgebra(Q, Fraction(1))
    z = ZornElement(Fraction(5), e_elt(Q, 0), zvec(Q), Fraction(1))
    r, z0 = quadratic_decompose(Z, z)
    assert r == Fraction(3)
    assert (z0.a, z0.ap) == (Fraction(2), Fraction(-2))
    assert Z.trace(z0) == Q.zero


@pytest.mark.parametrize("A", UNITAL, ids=_id)
def test_trace_zero_decomposition_identity(A):
    # x0 y0 = -(1/2) n(x0, y0) 1 + x0 X y0, n the polarized norm
    R = A.ring
    rng = SplitMix64(113)
    half = R.inv(R.of_int(2))
    for _ in range(150):
        _, x0 = quadratic_decompose(A, A.sample(rng))
        _, y0 = quadratic_decompose(A, A.sample(rng))
        prod = A.mul(x0, y0)
        cross = vector_product_of_quadratic(A, x0, y0)
        n_pol = R.sub(
            A.norm(A.add(x0, y0)), R.add(A.norm(x0), A.norm(y0))
        )
        expected = A.add(A.smul(R.neg(R.mul(half, n_pol)), A.one()), cross)
        assert prod == expected
        # antisymmetry of the induced product
        assert vector_product_of_quadratic(A, x0, x0) == A.zero()


def test_vector_product_requires_trace_zero():
    A = ColSplitAlgebra(Q, Fraction(1))
    with pytest.raises(NotTraceZero):
        vector_product_of_quadratic(A, A.one(), A.zero())


def test_vector_product_matches_zorn_slots():
    # for trace-zero Zorn elements the projection keeps the vector slots
    Z = ZornAlgebra(F5, 1)
    rng = SplitMix64(127)
    for _ in range(100):
        _, x0 = quadratic_decompose(Z, Z.sample(rng))
        _, y0 = quadratic_decompose(Z, Z.sample(rng))
        p = Z.mul(x0, y0)
        proj = vector_product_of_quadratic(Z, x0, y0)
        assert (proj.u, proj.ud) == (p.u, p.ud)
        assert Z.trace(proj) == F5.zero


# ------------------------------------------------------- identifications


def test_cay_split_matches_zorn_on_all_basis_products():
    ring = F5
    S = etale.SplitTorus(ring)
    space = HermitianSpace(S, mat_identity(S), S.one)
    cay = CayleyAlgebra(space)
    zorn = ZornAlgebra(ring, ring.one)

    def phi(x):
        return ZornElement(
            x.a[0],
            tuple(ring.neg(c[0]) for c in x.u),
            tuple(c[1] for c in x.u),
            x.a[1],
        )

    basis = cay.basis()
    assert len(basis) == 8
    for x in basis:
        for y in basis:
            assert phi(cay.mul(x, y)) == zorn.mul(phi(x), phi(y))
    assert phi(cay.one()) == zorn.one()
    rng = SplitMix64(131)
    for _ in range(100):
        x = cay.sample(rng)
        assert zorn.norm(phi(x)) == cay.norm(x)


@pytest.mark.parametrize("lam", [1, 2])
def test_col_herm_split_matches_col_split(lam):
    ring = F5
    col = ColSplitAlgebra(ring, lam)
    herm = ColHermAlgebra(split_space(ring, lam))

    def iota(x):
        return ColHermElement(x.a, tuple((ring.neg(x.u[i]), x.ud[i]) for i in range(3)))

    basis = col.basis()
    for x in basis:
        for y in basis:
            assert iota(col.mul(x, y)) == herm.mul(iota(x), iota(y))
    rng = SplitMix64(137)
    for _ in range(200):
        x, y = col.sample(rng), col.sample(rng)
        assert iota(col.mul(x, y)) == herm.mul(iota(x), iota(y))
        assert herm.norm(iota(x)) == col.norm(x)


def test_w_split_is_zorn_projection():
    ring = F5
    zorn = ZornAlgebra(ring, 2)
    w = WSplitAlgebra(ring, 2)
    rng = SplitMix64(139)
    for _ in range(200):
        x, y = w.sample(rng), w.sample(rng)
        zx = ZornElement(ring.zero, x.u, x.ud, ring.zero)
        zy = ZornElement(ring.zero, y.u, y.ud, ring.zero)
        p = zorn.mul(zx, zy)
        assert WSplitElement(p.u, p.ud) == w.mul(x, y)


def test_w_split_is_col_split_projection():
    ring = F7
    col = ColSplitAlgebra(ring, 3)
    w = WSplitAlgebra(ring, 3)
    rng = SplitMix64(149)
    for _ in range(200):
        x, y = w.sample(rng), w.sample(rng)
        cx = ColSplitElement(ring.zero, x.u, x.ud)
        cy = ColSplitElement(ring.zero, y.u, y.ud)
        p = col.mul(cx, cy)
        assert WSplitElement(p.u, p.ud) == w.mul(x, y)


def test_w_herm_is_col_herm_projection():
    space = kummer_space()
    col = ColHermAlgebra(space)
    w = WHermAlgebra(space)
    rng = SplitMix64(151)
    for _ in range(200):
        x, y = w.sample(rng), w.sample(rng)
        cx = ColHermElement(space.ring.zero, x.u)
        cy = ColHermElement(space.ring.zero, y.u)
        assert col.mul(cx, cy).u == w.mul(x, y).u
    # same for the octonion family
    cay = CayleyAlgebra(space)
    for _ in range(200):
        x, y = w.sample(rng), w.sample(rng)
        cx = CayElement(space.S.zero, x.u)
        cy = CayElement(space.S.zero, y.u)
        assert cay.mul(cx, cy).u == w.mul(x, y).u


# ------------------------------------------------------- serialization


@pytest.mark.parametrize("A", ALL, ids=_id)
def test_element_json_roundtrip(A):
    rng = SplitMix64(157)
    for _ in range(50):
        x = A.sample(rng)
        assert A.element_from_json(A.element_to_json(x)) == x


@pytest.mark.parametrize("A", ALL, ids=_id)
def test_coords_roundtrip_and_rank(A):
    rng = SplitMix64(163)
    assert len(A.basis()) == A.rank == len(A.basis_labels())
    for _ in range(50):
        x = A.sample(rng)
        c = A.coords(x)
        assert len(c) == A.rank
        assert A.from_coords(c) == x


# ---------------------------------------------------------------- draw order


def field_order_draw(A, rng):
    """Reference draw: the slots in field order, one ``K.sample`` per coefficient."""
    return A.element(
        *[K.sample(rng) if n is None else tuple(K.sample(rng) for _ in range(n)) for _, K, n, _ in A._slots]
    )


def _split_families(R):
    out = [ColSplitAlgebra(R, R.one), ZornAlgebra(R, R.one), WSplitAlgebra(R, R.one)]
    return out if isinstance(R, rings.PolynomialRing) else out + [GradedAlgebra(GradedSpec(1, 1, 1), R)]


def _hermitian_families(S):
    P = HermitianSpace(S, mat_identity(S), S.one)
    return [CayleyAlgebra(P), ColHermAlgebra(P), WHermAlgebra(P)]


# every family over F7, Z/15 and Q, all but graded (no polynomial base) over F7[t0], and Kummer S
DRAW_HANDLES = [
    A
    for R in (F7, Z15, Q, rings.PolynomialRing(F7, ["t0"]))
    for A in _split_families(R) + _hermitian_families(etale.SplitTorus(R))
] + _hermitian_families(etale.KummerExtension(F7, 3))


def _draw_id(A):
    S = getattr(A, "S", None)
    return f"{A.family}/{A.ring.kind}" + (f"/{S.kind}" if S else "")


@pytest.mark.parametrize("A", DRAW_HANDLES, ids=_draw_id)
def test_draw_order_is_field_order_permuted_into_coordinates(A):
    seed = 277 + A.rank
    r1, r2 = SplitMix64(seed), SplitMix64(seed)
    for _ in range(30):
        assert A.sample(r1) == field_order_draw(A, r2)
    assert r1.state == r2.state
    r1, r2 = SplitMix64(seed), SplitMix64(seed)
    for _ in range(30):
        assert A.coords(A.sample(r1)) == A.sample_coords(r2)
    assert r1.state == r2.state


def test_draw_order_covers_seven_families():
    assert {A.family for A in DRAW_HANDLES} == {
        "col_split", "zorn", "w_split", "cay_hermitian", "col_hermitian", "w_hermitian", "graded"
    }
    assert len(DRAW_HANDLES) == 3 * 7 + 6 + 3


# ---------------------------------------------- trace and involution from the norm
#
# The base derives t(x) = n(x + 1) - n(x) - n(1) and x-bar = t(x) 1 - x; each
# family's own formula for them is pinned here as the reference.


def _negated(K, v):
    return tuple(K.neg(c) for c in v)


OWN_TRACE_AND_INVOLUTION = {
    "col_split": (
        lambda A, x: A.ring.add(x.a, x.a),
        lambda A, x: ColSplitElement(x.a, _negated(A.ring, x.u), _negated(A.ring, x.ud)),
    ),
    "zorn": (
        lambda A, x: A.ring.add(x.a, x.ap),
        lambda A, x: ZornElement(x.ap, _negated(A.ring, x.u), _negated(A.ring, x.ud), x.a),
    ),
    "cay_hermitian": (
        lambda A, x: A.S.trace(x.a),
        lambda A, x: CayElement(A.S.conj(x.a), _negated(A.S, x.u)),
    ),
    "col_hermitian": (
        lambda A, x: A.ring.add(x.a, x.a),
        lambda A, x: ColHermElement(x.a, _negated(A.S, x.u)),
    ),
    "graded": (
        lambda A, x: A.ring.add(x.a, x.a),
        lambda A, x: GradedElement(x.a, *(_negated(A.ring, f) for f in (x.fl, x.fm, x.flm))),
    ),
}

# every family over Q, F7, Z/15 and F7[t0] (graded has no polynomial base), on split and Kummer S
QUADRATIC_HANDLES = [
    A
    for R in (Q, F7, Z15, rings.PolynomialRing(F7, ["t0"]))
    for A in _split_families(R)
    + _hermitian_families(etale.SplitTorus(R))
    + _hermitian_families(etale.KummerExtension(R, R.of_int(2)))
]


@pytest.mark.parametrize("A", [A for A in QUADRATIC_HANDLES if A.unital], ids=_draw_id)
def test_trace_and_involution_from_the_norm_equal_the_family_formulas(A):
    trace, involution = OWN_TRACE_AND_INVOLUTION[A.family]
    rng = SplitMix64(613 + A.rank)
    for x in [A.one(), *A.basis(), *(A.sample(rng) for _ in range(25))]:
        assert A.trace(x) == trace(A, x)
        assert A.involution(x) == involution(A, x)


@pytest.mark.parametrize("A", [A for A in QUADRATIC_HANDLES if not A.unital], ids=_draw_id)
def test_trace_and_involution_need_a_unit(A):
    x = A.sample(SplitMix64(613))
    for derived in (A.trace, A.involution):
        with pytest.raises(WrongRing, match=f"{A.family} has no unit"):
            derived(x)
