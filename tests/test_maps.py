from fractions import Fraction

import pytest

from colouralg import etale, maps, rings
from colouralg.algebras import (
    CayleyAlgebra,
    ColHermAlgebra,
    ColSplitAlgebra,
    WHermAlgebra,
    ZornAlgebra,
)
from colouralg.checks import Sampler, SplitMix64
from colouralg.errors import (
    MorphismConditionFailed,
    NotCubeRoot,
    NotIsometry,
    NotSLinear,
)
from colouralg.trivec import HermitianSpace, mat_identity, mat_vec

Q = rings.RationalField()
F5 = rings.PrimeField(5)
F7 = rings.PrimeField(7)

EXH = Sampler(seed=0, mode="exhaustive")
SEEDED = Sampler(seed=42, count=300)


def split_space(ring, lam=None):
    S = etale.SplitTorus(ring)
    lam = S.one if lam is None else lam
    return HermitianSpace(S, mat_identity(S), lam)


def diag_matrix(ring, c):
    z = ring.zero
    return ((c, z, z), (z, c, z), (z, z, c))


def s_matrix(S, int_rows):
    return tuple(tuple(S.scalar(S.ring.of_int(v)) for v in row) for row in int_rows)


THREE_CYCLE = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]      # e1 -> e2 -> e3 -> e1, det = 1
TRANSPOSITION = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]    # det = -1


# ----------------------------------------------------------- diagonal iso


def test_diagonal_iso_identity():
    A = ColSplitAlgebra(Q, Fraction(3))
    m = maps.diagonal_iso(A, mat_identity(Q), Fraction(3))
    rng = SplitMix64(1)
    for _ in range(20):
        x = A.sample(rng)
        assert m.apply(x) == x
    assert maps.is_homomorphism(m, EXH).passed


def test_diagonal_iso_phi_2I():
    # det(2I) = 8 carries lam = 8 to lam' = 1
    A = ColSplitAlgebra(Q, Fraction(8))
    m = maps.diagonal_iso(A, diag_matrix(Q, Fraction(2)), Fraction(1))
    assert m.codomain.lam == Fraction(1)
    assert maps.is_homomorphism(m, EXH).passed
    assert maps.is_homomorphism(m, SEEDED).passed
    # the inverse-transpose really is applied on the dual slot
    x = A.basis()[4]  # first dual basis vector
    assert m.apply(x).ud == (Fraction(1, 2), Fraction(0), Fraction(0))


def test_diagonal_iso_morphism_condition_failure():
    A = ColSplitAlgebra(Q, Fraction(1))
    with pytest.raises(MorphismConditionFailed):
        maps.diagonal_iso(A, diag_matrix(Q, Fraction(2)), Fraction(1))


def test_unchecked_diagonal_map_fails_homomorphism():
    # skipping the condition produces a map the checker must reject
    A = ColSplitAlgebra(Q, Fraction(1))
    m = maps.diagonal_iso(A, diag_matrix(Q, Fraction(2)), Fraction(1), check=False)
    report = maps.is_homomorphism(m, EXH)
    assert not report.passed
    assert report.counterexample is not None


def test_diagonal_iso_transports_zorn_too():
    Z = ZornAlgebra(F7, 2)
    phi = ((2, 0, 0), (0, 1, 0), (0, 0, 1))  # det 2 carries lam 2 to lam 1
    m = maps.diagonal_iso(Z, phi, 1)
    assert maps.is_homomorphism(m, EXH).passed
    assert maps.is_homomorphism(m, Sampler(seed=3, count=300)).passed


def test_same_phi_data_works_on_both_split_families():
    phi = ((0, 1, 0), (0, 0, 1), (1, 0, 0))  # 3-cycle, det 1
    for handle in (ColSplitAlgebra(F7, 3), ZornAlgebra(F7, 3)):
        m = maps.diagonal_iso(handle, phi, 3)
        assert maps.is_homomorphism(m, EXH).passed


# ----------------------------------------------------------- dual iso


def test_dual_iso_unit_and_involutive():
    A = ColSplitAlgebra(Q, Fraction(2))
    m = maps.dual_iso(A)
    assert m.codomain.lam == Fraction(1, 2)
    assert m.apply(A.one()) == m.codomain.one()
    back = maps.dual_iso(m.codomain)
    rng = SplitMix64(5)
    for _ in range(50):
        x = A.sample(rng)
        assert back.apply(m.apply(x)) == x


def test_dual_iso_is_homomorphism():
    for A in (ColSplitAlgebra(Q, Fraction(1)), ColSplitAlgebra(F7, 2)):
        m = maps.dual_iso(A)
        assert maps.is_homomorphism(m, EXH).passed
        assert maps.is_homomorphism(m, Sampler(seed=9, count=500)).passed


# ----------------------------------------------------------- cube roots


def test_cube_root_autos_mod_7():
    A = ColSplitAlgebra(F7, 1)
    for mu in (1, 2, 4):  # the cube roots of unity mod 7
        m = maps.cube_root_auto(A, mu)
        assert maps.is_homomorphism(m, EXH).passed
    with pytest.raises(NotCubeRoot):
        maps.cube_root_auto(A, 3)  # 27 = 6 mod 7
    # mu = 1 is the identity automorphism
    ident = maps.cube_root_auto(A, 1)
    rng = SplitMix64(3)
    for _ in range(30):
        x = A.sample(rng)
        assert ident.apply(x) == x


def test_cube_root_acts_diagonally():
    A = ColSplitAlgebra(F7, 1)
    m = maps.cube_root_auto(A, 2)
    x = A.from_coords([0, 1, 0, 0, 1, 0, 0])
    y = m.apply(x)
    assert y.u == (2, 0, 0)
    assert y.ud == (4, 0, 0)  # 2^-1 = 4 mod 7


def test_cube_root_on_zorn():
    Z = ZornAlgebra(F7, 1)
    m = maps.cube_root_auto(Z, 4)
    assert maps.is_homomorphism(m, EXH).passed


# ----------------------------------------------------------- isometry lifts


def test_lift_three_cycle_is_automorphism():
    P = split_space(F5)
    phi = s_matrix(P.S, THREE_CYCLE)
    for target, algebra in (("colour", ColHermAlgebra), ("cayley", CayleyAlgebra)):
        m = maps.lift_isometry(P, P, phi, target)
        assert isinstance(m.domain, algebra)
        assert maps.is_homomorphism(m, EXH).passed
        assert maps.is_homomorphism(m, SEEDED).passed


def test_lift_transposition_needs_flipped_alpha():
    P = split_space(F5)
    phi = s_matrix(P.S, TRANSPOSITION)
    # det = -1 carries alpha' = -alpha back to alpha
    P_neg = HermitianSpace(P.S, P.gram, P.S.neg(P.alpha))
    m = maps.lift_isometry(P, P_neg, phi, "colour")
    assert maps.is_homomorphism(m, EXH).passed
    with pytest.raises(MorphismConditionFailed):
        maps.lift_isometry(P, P, phi, "colour")


def test_lift_rejects_non_isometry():
    P = split_space(F5)
    phi = s_matrix(P.S, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(NotIsometry):
        maps.lift_isometry(P, P, phi, "colour")


def test_lift_rejects_malformed_matrix():
    P = split_space(F5)
    with pytest.raises(NotSLinear):
        maps.lift_isometry(P, P, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "colour")


def test_cross_product_transport():
    # phi(u x v) = phi(u) x' phi(v) for accepted isometries
    P = split_space(F7)
    phi = s_matrix(P.S, THREE_CYCLE)
    maps.lift_isometry(P, P, phi, "colour")  # validates
    S = P.S
    rng = SplitMix64(11)
    for _ in range(200):
        u, v = P.sample_vec(rng), P.sample_vec(rng)
        assert mat_vec(S, phi, P.cross(u, v)) == P.cross(
            mat_vec(S, phi, u), mat_vec(S, phi, v)
        )


def test_lift_restricts_to_vector_algebra():
    P = split_space(F5)
    phi = s_matrix(P.S, THREE_CYCLE)
    m = maps.lift_isometry(P, P, phi, "colour")
    w = maps.vector_restriction(m)
    assert isinstance(w.domain, WHermAlgebra)
    assert maps.is_homomorphism(w, EXH).passed
    assert maps.is_homomorphism(w, SEEDED).passed


# ----------------------------------------------------------- custom maps


def test_custom_map_identity_table():
    A = ColSplitAlgebra(F7, 2)
    table = [[F7.one if i == j else F7.zero for j in range(7)] for i in range(7)]
    m = maps.custom_map(A, A, table)
    assert maps.is_homomorphism(m, EXH).passed


def test_custom_map_expressing_dual_iso():
    # the dual isomorphism as an explicit 7x7 coordinate table
    A = ColSplitAlgebra(F7, 1)
    dual = maps.dual_iso(A)
    table = [[F7.zero] * 7 for _ in range(7)]
    for j, b in enumerate(A.basis()):
        img = dual.codomain.coords(dual.apply(b))
        for i in range(7):
            table[i][j] = img[i]
    m = maps.custom_map(A, dual.codomain, table)
    rng = SplitMix64(200)
    for _ in range(50):
        x = A.sample(rng)
        assert m.apply(x) == dual.apply(x)
    assert maps.is_homomorphism(m, EXH).passed


def test_custom_map_detects_non_homomorphism():
    A = ColSplitAlgebra(F7, 1)
    table = [[F7.zero] * 7 for _ in range(7)]
    table[1][2] = F7.one  # u2 |-> u1, everything else to zero: not a map of algebras
    m = maps.custom_map(A, A, table)
    report = maps.is_homomorphism(m, EXH)
    assert not report.passed


def test_custom_map_columns_are_coordinate_unit_images_on_col_hermitian():
    # column j maps the j-th coordinate unit vector, which the hermitian
    # families order apart from their basis: basis element p12 is coordinate 3
    S = etale.SplitTorus(F7)
    A = ColHermAlgebra(HermitianSpace(S, mat_identity(S), (1, 1)))
    r = A.rank
    table = [[(i * r + j) % 7 for j in range(r)] for i in range(r)]
    m = maps.custom_map(A, A, table)
    for j in range(r):
        unit = A.from_coords([int(c == j) for c in range(r)])
        assert A.coords(m.apply(unit)) == tuple(row[j] for row in table)
    p12 = A.basis()[A.basis_labels().index("p12")]
    assert A.coords(p12) == tuple(int(c == 3) for c in range(r))
    assert A.coords(m.apply(p12)) != tuple(row[A.basis().index(p12)] for row in table)


def test_custom_map_rejects_bad_shape():
    A = ColSplitAlgebra(F7, 1)
    with pytest.raises(NotSLinear):
        maps.custom_map(A, A, [[F7.zero] * 3] * 3)


# ----------------------------------------------------------- lambda maps


def test_lambda_map_worked_example():
    P = split_space(Q)
    e = P.basis()
    M = maps.lambda_map(P, e[0], e[1])
    assert mat_vec(P.S, M, e[0]) == e[1]
    assert mat_vec(P.S, M, e[1]) == tuple(P.S.neg(c) for c in e[0])
    assert mat_vec(P.S, M, e[2]) == (P.S.zero,) * 3


def test_lambda_map_vanishes_on_diagonal():
    P = split_space(F7)
    rng = SplitMix64(13)
    zero = ((P.S.zero,) * 3,) * 3
    for _ in range(100):
        u = P.sample_vec(rng)
        assert maps.lambda_map(P, u, u) == zero


def test_lambda_map_in_skew_lie_algebra():
    for P in (split_space(F7), split_space(Q)):
        rng = SplitMix64(17)
        for _ in range(100):
            u, v = P.sample_vec(rng), P.sample_vec(rng)
            f = maps.lambda_map(P, u, v)
            assert maps.in_lie_unitary(P, f)


def test_lambda_basis_maps_are_special():
    P = split_space(F7)
    e = P.basis()
    for i, j in ((0, 1), (0, 2), (1, 2)):
        f = maps.lambda_map(P, e[i], e[j])
        assert maps.in_lie_unitary(P, f, special=True)


# ----------------------------------------------------------- unitary groups


def test_unitary_membership_examples():
    P = split_space(Q)
    S = P.S
    ident = s_matrix(S, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert maps.in_unitary(P, ident, special=True)
    # diag(s,s,s) with s = (c, 1/c): conj(s) s = 1, in U; in SU iff s^3 = 1
    s = (Fraction(2), Fraction(1, 2))
    f = ((s, S.zero, S.zero), (S.zero, s, S.zero), (S.zero, S.zero, s))
    assert maps.in_unitary(P, f)
    assert not maps.in_unitary(P, f, special=True)
    cube1 = (Fraction(1), Fraction(1))
    g = tuple(
        tuple(cube1 if i == j else S.zero for j in range(3)) for i in range(3)
    )
    assert maps.in_unitary(P, g, special=True)
    # transposition: unitary but det = -1
    t = s_matrix(S, TRANSPOSITION)
    assert maps.in_unitary(P, t)
    assert not maps.in_unitary(P, t, special=True)


def test_lie_unitary_examples():
    P = split_space(Q)
    S = P.S
    zero = ((S.zero,) * 3,) * 3
    assert maps.in_lie_unitary(P, zero, special=True)
    ident = s_matrix(S, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert not maps.in_lie_unitary(P, ident)


def test_su_elements_give_automorphisms():
    # det-1 isometries lift to automorphisms of both hermitian families
    P = split_space(F7)
    phi = s_matrix(P.S, THREE_CYCLE)
    assert maps.in_unitary(P, phi, special=True)
    for target in ("colour", "cayley"):
        m = maps.lift_isometry(P, P, phi, target)
        assert maps.is_homomorphism(m, EXH).passed


# ----------------------------------------------------------- derivations


def lambda_derivation(P, i, j):
    e = P.basis()
    return maps.lambda_map(P, e[i], e[j])


@pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2)])
def test_lambda_maps_are_derivations_three_ways(pair):
    P = split_space(F7)
    d = lambda_derivation(P, *pair)
    for A in (WHermAlgebra(P), ColHermAlgebra(P), CayleyAlgebra(P)):
        report = maps.is_derivation(d, A, Sampler(seed=23, count=300))
        assert report.passed, (A.family, report.counterexample)


def test_zero_map_is_derivation():
    P = split_space(F5)
    zero = ((P.S.zero,) * 3,) * 3
    assert maps.is_derivation(zero, WHermAlgebra(P), SEEDED).passed


def test_identity_map_is_not_derivation():
    P = split_space(F5)
    ident = s_matrix(P.S, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    report = maps.is_derivation(ident, WHermAlgebra(P), SEEDED)
    assert not report.passed
    assert report.counterexample is not None


def test_derivation_agreement_on_kummer_space():
    K = etale.KummerExtension(F7, 3)
    P = HermitianSpace(K, mat_identity(K), K.one)
    d = lambda_derivation(P, 0, 1)
    for A in (WHermAlgebra(P), ColHermAlgebra(P), CayleyAlgebra(P)):
        assert maps.is_derivation(d, A, Sampler(seed=29, count=200)).passed
