from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from colouralg import checks, etale, maps, rings
from colouralg.algebras import (
    CayleyAlgebra,
    ColHermAlgebra,
    ColSplitAlgebra,
    WHermAlgebra,
    WSplitAlgebra,
    ZornAlgebra,
)
from colouralg.checks import CheckReport, Sampler, SplitMix64, pair_json
from colouralg.errors import (
    MorphismConditionFailed,
    NotCubeRoot,
    NotIsometry,
    NotSLinear,
)
from colouralg.graded import GradedAlgebra, GradedSpec
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


# ------------------------------------------- seeded settlement on basis pairs
#
# A map built from a matrix is linear and every family product is bilinear,
# so a seeded check settles on the ordered basis pairs and draws only to
# locate a failure.  The references below are the draw loop alone: the same
# map with ``linear`` off, and a derivation loop written out here.

def table_of(m):
    """The coordinate matrix of a map: column j is the image of coordinate unit vector j."""
    A, B = m.domain, m.codomain
    R, r = A.ring, A.rank
    cols = [B.coords(m.apply(A.from_coords([R.one if k == j else R.zero for k in range(r)]))) for j in range(r)]
    return [[cols[j][i] for j in range(r)] for i in range(B.rank)]


def perturbed(m, i, j):
    """``m`` as a custom table with entry (i, j) raised by one."""
    table = table_of(m)
    table[i][j] = m.domain.ring.add(table[i][j], m.domain.ring.one)
    return maps.custom_map(m.domain, m.codomain, table)


def draw_only_derivation(d, A, sampler):
    """The seeded Leibniz check on the draws alone."""
    S = A.S

    def fn(x):
        return replace(A.zero(), u=mat_vec(S, d, x.u))

    rng = sampler.rng()
    for index in range(sampler.count):
        x, y = A.sample(rng), A.sample(rng)
        if fn(A.mul(x, y)) != A.add(A.mul(fn(x), y), A.mul(x, fn(y))):
            return CheckReport(f"derivation:{A.family}", index + 1, False, pair_json(A, x, y, index=index))
    return CheckReport(f"derivation:{A.family}", sampler.count, True, None)


def _spaces(R):
    if R is Q:
        return {"split": split_space(Q)}
    K = etale.KummerExtension(R, R.of_int(3))
    return {"split": split_space(R), "kummer": HermitianSpace(K, mat_identity(K), K.one)}


def settlement_maps(R):
    """label -> map, covering every map-check kind over R, passing and failing."""
    two, mu = R.of_int(2), (R.of_int(2) if R is F7 else R.one)  # 2^3 = 1 in F7
    half = R.inv(two)
    phi2 = ((two, R.zero, R.zero), (R.zero, R.one, R.zero), (R.zero, R.zero, R.one))
    out = {"dual": maps.dual_iso(ColSplitAlgebra(R, two))}
    for cls in (ColSplitAlgebra, ZornAlgebra, WSplitAlgebra):
        A = cls(R, two)
        out[f"cube-root/{A.family}"] = maps.cube_root_auto(A, mu)
        out[f"diagonal/{A.family}"] = maps.diagonal_iso(A, phi2, R.one)
        out[f"unchecked-diagonal/{A.family}"] = maps.diagonal_iso(A, phi2, half, check=False)
    for label, P in _spaces(R).items():
        phi = s_matrix(P.S, THREE_CYCLE)
        g = maps.lift_isometry(P, P, phi, "colour")
        out[f"G-phi/{label}"] = g
        out[f"H-phi/{label}"] = maps.lift_isometry(P, P, phi, "cayley")
        out[f"w-phi/{label}"] = maps.vector_restriction(g)
    sources = [out["dual"], out["cube-root/zorn"], out["diagonal/w_split"], out["G-phi/split"], out["H-phi/split"]]
    sources += [maps.vector_restriction(out["G-phi/split"])]
    graded = GradedAlgebra(GradedSpec(1, 1, 1), R)
    sources += [maps.custom_map(graded, graded, [[R.one if i == j else R.zero for j in range(8)] for i in range(8)])]
    for m in sources:
        r = m.domain.rank
        out[f"custom/{m.domain.family}/{m.kind}"] = maps.custom_map(m.domain, m.codomain, table_of(m))
        out[f"custom/{m.domain.family}/{m.kind}/+1@(1,2)"] = perturbed(m, 1, 2)
        out[f"custom/{m.domain.family}/{m.kind}/+1@({r - 1},0)"] = perturbed(m, r - 1, 0)
    return out


def settlement_derivations(R):
    """label -> (matrix, algebra): lambda maps (derivations), the identity and zero (not, and trivially)."""
    out = {}
    for label, P in _spaces(R).items():
        S = P.S
        for A in (WHermAlgebra(P), ColHermAlgebra(P), CayleyAlgebra(P)):
            out[f"lambda/{A.family}/{label}"] = (lambda_derivation(P, 0, 1), A)
            out[f"identity/{A.family}/{label}"] = (mat_identity(S), A)
        out[f"zero/w_hermitian/{label}"] = (((S.zero,) * 3,) * 3, WHermAlgebra(P))
    return out


SETTLEMENT_SAMPLERS = [Sampler(seed=seed, count=count) for seed in (0, 11, 42) for count in (2, 90)]
SETTLEMENT_RINGS = {"F7": F7, "Q": Q}
MAP_CASES = [(ring, label) for ring, R in SETTLEMENT_RINGS.items() for label in settlement_maps(R)]
DERIVATION_CASES = [(ring, label) for ring, R in SETTLEMENT_RINGS.items() for label in settlement_derivations(R)]


@pytest.fixture
def no_draws(monkeypatch):
    def refuse(self):
        raise AssertionError("a settled check drew a sample")

    monkeypatch.setattr(SplitMix64, "next_u64", refuse)


def test_settled_map_checks_never_draw(no_draws):
    # basis pairs: 36 (w_split, w_hermitian) to 64 (zorn, cay_hermitian, graded)
    for R in SETTLEMENT_RINGS.values():
        passing = {k: m for k, m in settlement_maps(R).items() if "+1" not in k and "unchecked" not in k}
        for label, m in passing.items():
            assert m.linear, label
            done = int(bool(getattr(m.domain, "unital", False) and getattr(m.codomain, "unital", False)))
            for count in (1, 40, 5000):
                report = maps.is_homomorphism(m, Sampler(seed=7, count=count))
                assert report.to_json() == {
                    "identity": f"homomorphism:{m.kind}", "samples": done + count, "pass": True, "counterexample": None
                }, label
        for label, (d, A) in settlement_derivations(R).items():
            if not label.startswith("identity"):
                for count in (1, 40, 5000):
                    report = maps.is_derivation(d, A, Sampler(seed=7, count=count))
                    assert (report.passed, report.samples, report.counterexample) == (True, count, None), label


@pytest.mark.parametrize("ring, label", MAP_CASES)
def test_settled_homomorphism_report_equals_draw_loop(ring, label):
    m = settlement_maps(SETTLEMENT_RINGS[ring])[label]
    reference = replace(m, linear=False)
    for sampler in SETTLEMENT_SAMPLERS:
        expected = maps.is_homomorphism(reference, sampler).to_json()
        assert maps.is_homomorphism(m, sampler).to_json() == expected, (sampler, expected)


@pytest.mark.parametrize("ring, label", DERIVATION_CASES)
def test_settled_derivation_report_equals_draw_loop(ring, label):
    d, A = settlement_derivations(SETTLEMENT_RINGS[ring])[label]
    for sampler in SETTLEMENT_SAMPLERS:
        expected = draw_only_derivation(d, A, sampler).to_json()
        assert maps.is_derivation(d, A, sampler).to_json() == expected, (sampler, expected)


def test_failing_basis_pair_falls_back_to_draws_that_may_pass(monkeypatch):
    # u1 |-> u1 + u2 on w_split over F3 fails a basis pair, yet both draws of
    # seed 3 hold: the report is the draws' pass, not the basis failure
    A = WSplitAlgebra(rings.PrimeField(3), 1)
    table = [[int(i == j) for j in range(6)] for i in range(6)]
    table[1][0] = 1
    m = maps.custom_map(A, A, table)
    assert not maps.is_homomorphism(m, EXH).passed
    sampler = Sampler(seed=3, count=2)
    expected = maps.is_homomorphism(replace(m, linear=False), sampler).to_json()
    drawn = []
    real = SplitMix64.next_u64

    def counted(self):
        drawn.append(1)
        return real(self)

    monkeypatch.setattr(SplitMix64, "next_u64", counted)
    report = maps.is_homomorphism(m, sampler)
    assert drawn
    assert report.to_json() == expected == {
        "identity": "homomorphism:custom", "samples": 2, "pass": True, "counterexample": None
    }


def planted_product(A, i, j, k):
    """A copy of the split algebra A whose product gains x_i y_j in coordinate k: a bilinear fault seen by one basis pair."""
    B, R = type(A)(A.ring, A.lam), A.ring
    real = B.mul

    def mul(x, y):
        c = list(B.coords(real(x, y)))
        c[k] = R.add(c[k], R.mul(B.coords(x)[i], B.coords(y)[j]))
        return B.from_coords(c)

    B.mul = mul
    return B


def test_fault_at_any_one_basis_pair_falls_back_to_draws():
    # the identity table into w_split/F7 with one planted structure constant:
    # only basis pair (e_i, e_j) fails, and the report is the draws'
    A = WSplitAlgebra(F7, 1)
    table = [[int(a == b) for b in range(6)] for a in range(6)]
    for i, j in product(range(6), repeat=2):
        m = maps.custom_map(A, planted_product(A, i, j, 0), table)
        assert not maps.is_homomorphism(m, EXH).passed
        sampler = Sampler(seed=i * 6 + j, count=20)
        report = maps.is_homomorphism(m, sampler)
        assert not report.passed
        assert report.to_json() == maps.is_homomorphism(replace(m, linear=False), sampler).to_json()


def test_hand_built_map_stays_on_draws(no_draws):
    dual = maps.dual_iso(ColSplitAlgebra(F7, 1))
    m = maps.AlgebraMap("hand", dual.domain, dual.codomain, dual.fn)
    assert not m.linear
    with pytest.raises(AssertionError, match="drew a sample"):
        maps.is_homomorphism(m, Sampler(seed=1, count=3))


def test_non_bilinear_product_fault_is_sent_to_scalar_draws_by_the_guard(monkeypatch):
    # negating w_split products whose x.u[0] is off {0, 1, 2} spares every
    # basis pair of a diag(2, 1, 1) map, so the settled check passes: the
    # settlement trusts the product to be bilinear.  Scalar draws see the fault.
    real = WSplitAlgebra.mul

    def faulty(self, x, y):
        z = real(self, x, y)
        return self.neg(z) if x.u[0] not in (self.ring.zero, self.ring.one, self.ring.of_int(2)) else z

    monkeypatch.setattr(WSplitAlgebra, "mul", faulty)
    sampler = Sampler(seed=42, count=300)
    for R in (F7, Q):
        two = R.of_int(2)
        phi2 = ((two, R.zero, R.zero), (R.zero, R.one, R.zero), (R.zero, R.zero, R.one))
        m = maps.diagonal_iso(WSplitAlgebra(R, two), phi2, R.one)
        assert maps.is_homomorphism(m, sampler).to_json() == {
            "identity": "homomorphism:diagonal", "samples": 300, "pass": True, "counterexample": None
        }
        assert not maps.is_homomorphism(replace(m, linear=False), sampler).passed
        # the view is built from basis products, which the fault spares; its guard
        # sees the difference and sends the element-identity suites to scalar draws
        A = WSplitAlgebra(R, two)
        assert not checks._guarded(checks._CoordView(A), A, type(A).sample_coords)
        assert not all(r.passed for r in checks.run_suite(A, "all-applicable", sampler))
    assert not checks.cross_construction_check(F7, 3, sampler).passed
    # over Q at this count both identities settle on their grids, whose coordinates
    # (at most the degree, 3) the fault spares: without the guard the suite passes
    A = WSplitAlgebra(Q, Q.of_int(2))
    assert all(checks._settling_grid(A, name, sampler.count) for name in ("anticommutative", "quartic"))
    monkeypatch.setattr(checks, "_guarded", lambda view, owner, sample: view)
    assert all(r.passed for r in checks.run_suite(A, "all-applicable", sampler))
