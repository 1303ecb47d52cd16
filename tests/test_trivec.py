from fractions import Fraction
from itertools import permutations

import pytest

from colouralg import etale, rings, trivec
from colouralg.checks import SplitMix64
from colouralg.errors import Degenerate, DeterminantNotTrivial, NotAUnit, NotHermitian
from colouralg.trivec import (
    HermitianSpace,
    Trivialization,
    classical_cross,
    det3,
    mat_identity,
    pairing,
    vec_add,
    vec_smul,
)

Q = rings.RationalField()
F7 = rings.PrimeField(7)


def perm_det(K, cols):
    """Oracle: determinant via the signed permutation sum."""
    total = K.zero
    for perm in permutations(range(3)):
        sign = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if perm[i] > perm[j]:
                    sign = -sign
        term = K.one
        for j, i in enumerate(perm):
            term = K.mul(term, cols[j][i])
        total = K.add(total, term if sign > 0 else K.neg(term))
    return total


def cofactor_cross(K, u, v):
    """Oracle: (u x v)_i = det(e_i | u | v)."""
    out = []
    for i in range(3):
        e = tuple(K.one if k == i else K.zero for k in range(3))
        out.append(perm_det(K, (e, u, v)))
    return tuple(out)


def rvec(K, rng):
    return tuple(K.sample(rng) for _ in range(3))


def test_classical_cross_standard_basis():
    e = [tuple(Q.one if k == i else Q.zero for k in range(3)) for i in range(3)]
    assert classical_cross(Q, e[0], e[1]) == e[2]
    assert classical_cross(Q, e[1], e[2]) == e[0]
    assert classical_cross(Q, e[2], e[0]) == e[1]


def test_classical_cross_worked_value():
    u = tuple(map(Fraction, (1, 2, 3)))
    v = tuple(map(Fraction, (4, 5, 6)))
    expected = cofactor_cross(Q, u, v)
    assert expected == tuple(map(Fraction, (-3, 6, -3)))
    assert classical_cross(Q, u, v) == expected


def test_classical_cross_matches_cofactor_oracle():
    rng = SplitMix64(101)
    for _ in range(100):
        u, v = rvec(Q, rng), rvec(Q, rng)
        assert classical_cross(Q, u, v) == cofactor_cross(Q, u, v)
        assert classical_cross(Q, u, u) == (Q.zero,) * 3


def test_classical_cross_bilinear_antisymmetric():
    rng = SplitMix64(103)
    for _ in range(60):
        u, v, w = rvec(Q, rng), rvec(Q, rng), rvec(Q, rng)
        r = Q.sample(rng)
        assert classical_cross(Q, u, v) == tuple(map(Q.neg, classical_cross(Q, v, u)))
        assert classical_cross(Q, vec_add(Q, u, w), v) == vec_add(
            Q, classical_cross(Q, u, v), classical_cross(Q, w, v)
        )
        assert classical_cross(Q, vec_smul(Q, r, u), v) == vec_smul(
            Q, r, classical_cross(Q, u, v)
        )


def test_twisted_cross_pairing_identity():
    # <w, u x v> = lam * det(u | v | w), with the permutation-sum determinant
    for ring, lam in [(Q, Fraction(2)), (F7, 2), (F7, 1)]:
        alpha = Trivialization(ring, lam)
        rng = SplitMix64(107)
        for _ in range(100):
            u, v, w = rvec(ring, rng), rvec(ring, rng), rvec(ring, rng)
            lhs = pairing(ring, w, alpha.cross(u, v))
            assert lhs == ring.mul(lam, perm_det(ring, (u, v, w)))


def test_twisted_cross_example_mod_7():
    alpha = Trivialization(F7, 2)
    e1, e2 = (1, 0, 0), (0, 1, 0)
    assert alpha.cross(e1, e2) == (0, 0, 2)  # 2 * e3-dual


def test_trivialization_requires_unit():
    with pytest.raises(NotAUnit):
        Trivialization(rings.IntegersMod(15), 3)


def test_dual_trivialization():
    assert Trivialization(Q, Q.one).dual().lam == Q.one
    assert Trivialization(F7, 2).dual().lam == 4  # 2^-1 mod 7
    # defining relation on the standard bases: lam_alpha * lam_beta * det(I) = 1
    alpha = Trivialization(F7, 3)
    beta = alpha.dual()
    assert F7.mul(alpha.lam, beta.lam) == F7.one


def split_space(ring, lam=None, gram=None):
    S = etale.SplitTorus(ring)
    if gram is None:
        gram = mat_identity(S)
    if lam is None:
        lam = S.one
    return HermitianSpace(S, gram, lam)


def test_make_hermitian_space_validations():
    S = etale.SplitTorus(Q)
    I = mat_identity(S)
    # valid: identity Gram, alpha = 1
    HermitianSpace(S, I, S.one)
    # valid: alpha = (c, 1/c) has norm 1
    HermitianSpace(S, I, (Fraction(5), Fraction(1, 5)))
    # conj-symmetry failure
    bad = [list(r) for r in I]
    bad[0][1] = (Fraction(1), Fraction(2))
    with pytest.raises(NotHermitian):
        HermitianSpace(S, bad, S.one)
    # degenerate Gram
    deg = [list(r) for r in I]
    deg[2][2] = S.zero
    with pytest.raises(Degenerate):
        HermitianSpace(S, deg, S.one)
    # det 2 with alpha = 1: n_S(alpha) * det = 2 != 1
    d2 = [list(r) for r in I]
    d2[2][2] = (Fraction(2), Fraction(2))
    with pytest.raises(DeterminantNotTrivial):
        HermitianSpace(S, d2, S.one)


def kummer_space(gram=None, lam=None):
    K = etale.KummerExtension(F7, 3)
    if gram is None:
        gram = mat_identity(K)
    if lam is None:
        lam = K.one
    return HermitianSpace(K, gram, lam)


def nontrivial_kummer_space():
    # H = [[1, 2+s, 0], [2-s, 2, 0], [0, 0, 1]] has det 1 over F7[sqrt(3)]
    K = etale.KummerExtension(F7, 3)
    s = (2, 1)
    z, o = K.zero, K.one
    gram = ((o, s, z), (K.conj(s), (2, 0), z), (z, z, o))
    return HermitianSpace(K, gram, K.one)


SPACES = [
    ("split/Q/I", lambda: split_space(Q)),
    ("split/F7/I,lam=(3,5)", lambda: split_space(F7, lam=(3, 5))),
    ("kummer/F7/I", lambda: kummer_space),
    ("kummer/F7/H", nontrivial_kummer_space),
]


def make_space(factory):
    space = factory()
    return space() if callable(space) else space


@pytest.mark.parametrize("name,factory", SPACES, ids=lambda x: x if isinstance(x, str) else "")
def test_herm_form_properties(name, factory):
    P = make_space(factory)
    S = P.S
    rng = SplitMix64(211)
    for _ in range(150):
        u, v = P.sample_vec(rng), P.sample_vec(rng)
        s = S.sample(rng)
        # hermitian symmetry
        assert P.h(u, v) == S.conj(P.h(v, u))
        # conjugate-linear first slot, linear second slot
        assert P.h(vec_smul(S, s, u), v) == S.mul(S.conj(s), P.h(u, v))
        assert P.h(u, vec_smul(S, s, v)) == S.mul(s, P.h(u, v))


def test_herm_identity_gram_examples():
    P = split_space(Q)
    e1 = P.basis()[0]
    assert P.h(e1, e1) == P.S.one
    assert P.bilinear(e1, e1) == Q.of_int(2)


@pytest.mark.parametrize("name,factory", SPACES, ids=lambda x: x if isinstance(x, str) else "")
def test_bilinearize_symmetric_and_fixed(name, factory):
    P = make_space(factory)
    rng = SplitMix64(223)
    R = P.ring
    for _ in range(150):
        u, v = P.sample_vec(rng), P.sample_vec(rng)
        n = P.bilinear(u, v)
        assert n == P.bilinear(v, u)
        # equals h + conj(h) embedded back in S
        h = P.h(u, v)
        assert P.S.scalar(n) == P.S.add(h, P.S.conj(h))
        assert isinstance(n, type(R.zero)) or n == R.zero or True  # R payload


def test_herm_cross_reduces_to_classical():
    P = split_space(Q)
    e = P.basis()
    assert P.cross(e[0], e[1]) == e[2]
    assert P.cross(e[1], e[2]) == e[0]


@pytest.mark.parametrize("name,factory", SPACES, ids=lambda x: x if isinstance(x, str) else "")
def test_herm_cross_defining_relation(name, factory):
    # h(v x w, u) = alpha * det(u | v | w)
    P = make_space(factory)
    S = P.S
    rng = SplitMix64(227)
    for _ in range(150):
        u, v, w = P.sample_vec(rng), P.sample_vec(rng), P.sample_vec(rng)
        assert P.h(P.cross(v, w), u) == S.mul(P.alpha, perm_det(S, (u, v, w)))


@pytest.mark.parametrize("name,factory", SPACES, ids=lambda x: x if isinstance(x, str) else "")
def test_herm_cross_orthogonality(name, factory):
    P = make_space(factory)
    S = P.S
    rng = SplitMix64(229)
    for _ in range(200):
        u, v = P.sample_vec(rng), P.sample_vec(rng)
        uv = P.cross(u, v)
        assert P.h(u, uv) == S.zero
        assert P.h(uv, v) == S.zero
        # polarized norm orthogonality n(u x v, u) = 0
        c = P.h(uv, u)
        assert S.add(c, S.conj(c)) == S.zero


@pytest.mark.parametrize("name,factory", SPACES, ids=lambda x: x if isinstance(x, str) else "")
def test_herm_cross_double_cross(name, factory):
    # u x (u x v) = -h(u,u) v + h(u,v) u  and  (u x v) x v = -h(v,v) u + h(v,u) v
    P = make_space(factory)
    S = P.S
    rng = SplitMix64(233)
    for _ in range(200):
        u, v = P.sample_vec(rng), P.sample_vec(rng)
        lhs = P.cross(u, P.cross(u, v))
        rhs = vec_add(S, vec_smul(S, S.neg(P.h(u, u)), v), vec_smul(S, P.h(u, v), u))
        assert lhs == rhs
        lhs2 = P.cross(P.cross(u, v), v)
        rhs2 = vec_add(S, vec_smul(S, S.neg(P.h(v, v)), u), vec_smul(S, P.h(v, u), v))
        assert lhs2 == rhs2


@pytest.mark.parametrize("name,factory", SPACES, ids=lambda x: x if isinstance(x, str) else "")
def test_herm_cross_semilinearity_and_symmetry(name, factory):
    P = make_space(factory)
    S = P.S
    rng = SplitMix64(239)
    for _ in range(200):
        a = S.sample(rng)
        u, v, w = P.sample_vec(rng), P.sample_vec(rng), P.sample_vec(rng)
        assert vec_smul(S, a, P.cross(u, v)) == P.cross(vec_smul(S, S.conj(a), u), v)
        assert vec_smul(S, a, P.cross(u, v)) == P.cross(u, vec_smul(S, S.conj(a), v))
        t1 = P.h(u, P.cross(v, w))
        assert t1 == S.conj(P.h(P.cross(u, v), w))
        assert t1 == P.h(w, P.cross(u, v))
        assert P.cross(P.cross(u, v), u) == P.cross(u, P.cross(v, u))


def test_nondiagonal_split_gram_with_det_minus_one():
    # H = diag(1, 1, -1), det = -1, alpha = (1, -1) has norm -1
    S = etale.SplitTorus(Q)
    gram = [list(r) for r in mat_identity(S)]
    gram[2][2] = S.neg(S.one)
    P = HermitianSpace(S, gram, (Fraction(1), Fraction(-1)))
    rng = SplitMix64(241)
    for _ in range(100):
        u, v = P.sample_vec(rng), P.sample_vec(rng)
        assert P.h(P.cross(u, v), u) == S.mul(P.alpha, perm_det(S, (u, u, v)))
        uv = P.cross(u, v)
        assert P.h(u, uv) == S.zero


def test_matrix_helpers_against_oracles():
    rng = SplitMix64(251)
    for _ in range(50):
        M = tuple(tuple(Q.sample(rng) for _ in range(3)) for _ in range(3))
        cols = tuple(tuple(M[i][j] for i in range(3)) for j in range(3))
        assert trivec.mat_det(Q, M) == perm_det(Q, cols)
        adj = trivec.mat_adjugate(Q, M)
        prod = trivec.mat_mul(Q, M, adj)
        d = trivec.mat_det(Q, M)
        expected = tuple(
            tuple(d if i == j else Q.zero for j in range(3)) for i in range(3)
        )
        assert prod == expected
        if Q.is_unit(d):
            inv = trivec.mat_inv(Q, M)
            assert trivec.mat_mul(Q, M, inv) == mat_identity(Q)


def test_det3_column_convention():
    rng = SplitMix64(257)
    for _ in range(60):
        u, v, w = rvec(Q, rng), rvec(Q, rng), rvec(Q, rng)
        assert det3(Q, u, v, w) == perm_det(Q, (u, v, w))
