"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success; sample counts and
configurations are pinned here and are not tunable.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction
from math import comb

import pytest

from colouralg import algebras, checks, etale, maps, rings
from colouralg.algebras import (
    CayleyAlgebra,
    ColHermAlgebra,
    ColSplitAlgebra,
    WHermAlgebra,
    WSplitAlgebra,
    ZornAlgebra,
)
from colouralg.checks import Sampler, SplitMix64
from colouralg.errors import MorphismConditionFailed, SuiteNotApplicable
from colouralg.graded import (
    GradedAlgebra,
    GradedSpec,
    graded_rank,
    n1_shortcut_report,
    radical_analysis,
)
from colouralg.trivec import HermitianSpace, mat_identity, vec_add, vec_smul

Q = rings.RationalField()
F3 = rings.PrimeField(3)
F5 = rings.PrimeField(5)
F7 = rings.PrimeField(7)
Z15 = rings.IntegersMod(15)

SEED = 20240817


def split_space(ring, lam=None, gram=None):
    S = etale.SplitTorus(ring)
    return HermitianSpace(
        S,
        mat_identity(S) if gram is None else gram,
        S.one if lam is None else lam,
    )


def kummer_space(gram=None):
    K = etale.KummerExtension(F7, 3)
    return HermitianSpace(K, mat_identity(K) if gram is None else gram, K.one)


def split_gram_det1_over_q():
    # [[1, (1,2), 0], [(2,1), 3, 0], [0, 0, 1]]: det = 3 - 2 = 1
    S = etale.SplitTorus(Q)
    z, o = S.zero, S.one
    s = (Fraction(1), Fraction(2))
    three = (Fraction(3), Fraction(3))
    return HermitianSpace(S, ((o, s, z), (S.conj(s), three, z), (z, z, o)), S.one)


def kummer_gram_det1():
    # [[1, 2+r, 0], [2-r, 2, 0], [0, 0, 1]] over F7[r], r^2 = 3: det = 2 - 1 = 1
    K = etale.KummerExtension(F7, 3)
    z, o = K.zero, K.one
    s = (2, 1)
    return HermitianSpace(K, ((o, s, z), (K.conj(s), (2, 0), z), (z, z, o)), K.one)


def run(A, identity, count):
    return checks.run_identity(A, identity, Sampler(seed=SEED, count=count))


def assert_clean(report, label):
    assert report.passed, f"{label}: counterexample {report.counterexample}"


# --------------------------------------------------------------------------


def test_criterion_01_flexible_exhaustive_mod3():
    A = ColSplitAlgebra(F3, F3.one)
    t0 = time.perf_counter()
    report = checks.run_identity(A, "flexible", Sampler(seed=0, mode="exhaustive"))
    elapsed = time.perf_counter() - t0
    assert report.samples == 3**7 * 3**7
    assert_clean(report, "flexible/F3 exhaustive")
    assert elapsed < 300, f"exhaustive run took {elapsed:.1f}s, budget is 300s"
    print(
        f"\nACCEPTANCE 1: PASS - flexible law on all {report.samples} ordered pairs "
        f"over F3 in {elapsed:.1f}s (< 300s)"
    )


def test_criterion_02_jordan_identity_10k():
    configs = [
        ("col_split/Q", ColSplitAlgebra(Q, Fraction(1))),
        ("col_split/Z15", ColSplitAlgebra(Z15, 1)),
        ("col_herm/split/F7", ColHermAlgebra(split_space(F7))),
        ("col_herm/kummer3/F7", ColHermAlgebra(kummer_space())),
        ("graded(1,1,1)/F7", GradedAlgebra(GradedSpec(1, 1, 1), F7)),
    ]
    for label, A in configs:
        assert_clean(run(A, "jordan", 10_000), f"jordan {label}")
    print(f"\nACCEPTANCE 2: PASS - Jordan identity on 10000 seeded pairs x {len(configs)} configs")


def test_criterion_03_quadratic_relation_10k():
    configs = [
        ("col_split/Q", ColSplitAlgebra(Q, Fraction(1))),
        ("col_herm/split/F7", ColHermAlgebra(split_space(F7, lam=(3, 5)))),
        ("cay/kummer3/F7", CayleyAlgebra(kummer_space())),
        ("zorn/Z15", ZornAlgebra(Z15, 2)),
        ("graded(1,1,1)/F7", GradedAlgebra(GradedSpec(1, 1, 1), F7)),
    ]
    for label, A in configs:
        assert_clean(run(A, "quadratic-relation", 10_000), f"quadratic {label}")
    print(
        f"\nACCEPTANCE 3: PASS - quadratic relation x^2 - t(x)x + n(x)1 = 0 on "
        f"10000 seeded elements x {len(configs)} unital families"
    )


def test_criterion_04_norm_composition_10k_with_negative_control():
    octonion_configs = [
        ("zorn lam=1/Q", ZornAlgebra(Q, Fraction(1))),
        ("zorn lam=2/Q", ZornAlgebra(Q, Fraction(2))),
        ("zorn lam=1/F7", ZornAlgebra(F7, 1)),
        ("zorn lam=2/F7", ZornAlgebra(F7, 2)),
        ("cay split H=I/Q", CayleyAlgebra(split_space(Q))),
        ("cay split H!=I det1/Q", CayleyAlgebra(split_gram_det1_over_q())),
        ("cay kummer H=I/F7", CayleyAlgebra(kummer_space())),
        ("cay kummer H!=I det1/F7", CayleyAlgebra(kummer_gram_det1())),
    ]
    for label, A in octonion_configs:
        assert_clean(run(A, "norm-composition", 10_000), f"composition {label}")
    # negative control: colour norms are not multiplicative, and the suite
    # gate refuses to even schedule composition for the colour family
    colour = ColSplitAlgebra(Q, Fraction(1))
    control = run(colour, "norm-composition", 10_000)
    assert not control.passed and control.counterexample is not None
    with pytest.raises(SuiteNotApplicable):
        checks.run_suite(colour, "composition", Sampler(seed=SEED))
    print(
        f"\nACCEPTANCE 4: PASS - n(xy) = n(x)n(y) on 10000 seeded pairs x "
        f"{len(octonion_configs)} octonion configs; negative control on the "
        f"colour family failed as required (first counterexample at stream "
        f"index {control.counterexample['index']})"
    )


def test_criterion_05_quartic_identity_10k():
    # the identity that holds is ((x v) v) v = -n(v) (x v); the opposite
    # sign fails immediately (negative demonstration below)
    w_split = WSplitAlgebra(Q, Fraction(1))
    w_herm = WHermAlgebra(kummer_space())
    assert_clean(run(w_split, "quartic", 10_000), "quartic w_split/Q")
    assert_clean(run(w_herm, "quartic", 10_000), "quartic w_herm/kummer3/F7")

    def positive_sign_fails(A):
        rng = SplitMix64(SEED)
        for _ in range(10_000):
            x, v = A.sample(rng), A.sample(rng)
            xv = A.mul(x, v)
            if A.mul(A.mul(xv, v), v) != A.smul(A.norm(v), xv):
                return True
        return False

    assert positive_sign_fails(w_split) and positive_sign_fails(w_herm)
    print(
        "\nACCEPTANCE 5: PASS - quartic identity ((x v) v) v = -n(v)(x v) on "
        "10000 seeded pairs (split with n = -<v,vd>, hermitian with n = h(v,v)); "
        "the +n(v) sign variant fails as expected"
    )


def test_criterion_06_hermitian_cross_identities_10k():
    spaces = [
        ("split torus/F7", split_space(F7)),
        ("kummer3/F7", kummer_space()),
    ]
    sampler = Sampler(seed=SEED, count=10_000)
    for label, space in spaces:
        reports = checks.run_suite(WHermAlgebra(space), "herm-cross", sampler)
        for r in reports:
            assert_clean(r, f"{r.identity} over {label}")

    # the conjugation-swapped double-cross variants fail: the suite detects them
    def swapped_double_cross_fails(space):
        S = space.S
        rng = SplitMix64(SEED)
        for _ in range(10_000):
            u, v = space.sample_vec(rng), space.sample_vec(rng)
            lhs = space.cross(u, space.cross(u, v))
            wrong = vec_add(
                S,
                vec_smul(S, S.neg(space.h(u, u)), v),
                vec_smul(S, space.h(v, u), u),
            )
            if lhs != wrong:
                return True
        return False

    assert all(swapped_double_cross_fails(s) for _, s in spaces)
    print(
        "\nACCEPTANCE 6: PASS - all 7 hermitian cross-product identities on "
        "10000 samples over the split torus and over F7[sqrt(3)]; the "
        "conjugation-swapped double-cross variant fails as expected"
    )


def test_criterion_07_map_suite_exhaustive_basis_products():
    exh = Sampler(seed=0, mode="exhaustive")
    passed = []
    # dual isomorphism
    dual = maps.dual_iso(ColSplitAlgebra(Q, Fraction(1)))
    assert maps.is_homomorphism(dual, exh).passed
    passed.append("dual")
    # both primitive cube roots of unity mod 7
    for mu in (2, 4):
        m = maps.cube_root_auto(ColSplitAlgebra(F7, 1), mu)
        assert maps.is_homomorphism(m, exh).passed
        passed.append(f"cube-root mu={mu}")
    # SU-induced lifts for the 3-cycle on the identity Gram
    P = split_space(F7)
    cycle = tuple(
        tuple(P.S.scalar(F7.of_int(v)) for v in row) for row in ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    )
    assert maps.in_unitary(P, cycle, special=True)
    for target in ("colour", "cayley"):
        m = maps.lift_isometry(P, P, cycle, target)
        assert maps.is_homomorphism(m, exh).passed
        passed.append(f"{target} 3-cycle")
    # diagonal isomorphism phi = 2I with lam/lam' = 8
    A8 = ColSplitAlgebra(Q, Fraction(8))
    two_i = tuple(
        tuple(Fraction(2) if i == j else Fraction(0) for j in range(3)) for i in range(3)
    )
    m = maps.diagonal_iso(A8, two_i, Fraction(1))
    assert maps.is_homomorphism(m, exh).passed
    passed.append("diagonal 2I (8 -> 1)")
    # mismatched trivializations must be rejected
    with pytest.raises(MorphismConditionFailed):
        maps.diagonal_iso(ColSplitAlgebra(Q, Fraction(1)), two_i, Fraction(1))
    print(
        f"\nACCEPTANCE 7: PASS - map suite on exhaustive basis products "
        f"({', '.join(passed)}); mismatched trivialization rejected"
    )


def test_criterion_08_derivation_three_way_agreement_5k():
    P = split_space(F7)
    e = P.basis()
    sampler = Sampler(seed=SEED, count=5_000)
    pairs = [(0, 1), (0, 2), (1, 2)]
    for i, j in pairs:
        d = maps.lambda_map(P, e[i], e[j])
        assert maps.in_lie_unitary(P, d, special=True)
        for A in (WHermAlgebra(P), ColHermAlgebra(P), CayleyAlgebra(P)):
            report = maps.is_derivation(d, A, sampler)
            assert_clean(report, f"derivation e{i+1},e{j+1} on {A.family}")
    print(
        "\nACCEPTANCE 8: PASS - the three skew maps from basis pairs act as "
        "derivations on the vector, colour and octonion families (5000 seeded "
        "pairs each, 9 combinations)"
    )


def test_criterion_09_graded_counts_and_radical():
    checked = 0
    for l in range(1, 11):
        for m in range(1, 11):
            for n in range(1, 11):
                if l + m + n > 12:
                    continue
                spec = GradedSpec(l, m, n)
                A = GradedAlgebra(spec, F7)
                enumerated = 1 + len(A.basis_l) + len(A.basis_m) + len(A.basis_lm)
                assert graded_rank(spec) == enumerated == A.rank
                checked += 1
    assert graded_rank(GradedSpec(1, 1, 1)) == 8
    assert graded_rank(GradedSpec(1, 1, 2)) == 13
    assert graded_rank(GradedSpec(2, 3, 2)) == 38
    for lmn in ((1, 1, 1), (1, 2, 1), (2, 2, 2)):
        l, m, n = lmn
        A = GradedAlgebra(GradedSpec(l, m, n), F7)
        _, dim, nilpotency, _ = radical_analysis(A)
        assert dim == comb(l + n, n) + comb(m + n, n) + comb(l + m + n, n)
        assert nilpotency == 3
    # the n = 1 shortcut must be flagged as disagreeing with the rank,
    # both in the library and in the CLI report
    flag = n1_shortcut_report(GradedSpec(1, 1, 1))
    assert flag is not None and not flag["agrees"]
    assert flag["shortcut_value"] == 9 and flag["rank"] == 8
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "g.json"
        cfg.write_text(
            json.dumps(
                {
                    "ring": {"kind": "Fp", "p": 7},
                    "construction": {"kind": "graded", "l": 1, "m": 1, "n": 1},
                }
            )
        )
        proc = subprocess.run(
            [sys.executable, "-m", "colouralg", "graded-info", str(cfg)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        emitted = json.loads(proc.stdout)["n1_shortcut"]
        assert emitted == {"agrees": False, "rank": 8, "shortcut_value": 9}
    print(
        f"\nACCEPTANCE 9: PASS - rank formula matches enumeration for all "
        f"{checked} specs with l+m+n <= 12 (values 8/13/38 pinned); radical "
        f"dimension, ideal property and nilpotency index 3 verified for three "
        f"specs over F7; n=1 shortcut flagged (9 != 8)"
    )


def test_criterion_10_cross_construction_coherence():
    report = checks.cross_construction_check(F5, 1, Sampler(seed=SEED, count=300))
    assert_clean(report, "cross-construction")
    assert report.samples >= 300 + 49
    cz = checks.cay_zorn_check(F5)
    assert_clean(cz, "cay-zorn")
    assert cz.samples == 64
    # mutation control: a corrupted Gram must be caught
    bad = checks.cross_construction_check(
        F5, 1, Sampler(seed=SEED, count=300), corrupt_gram=True
    )
    assert not bad.passed
    print(
        "\nACCEPTANCE 10: PASS - split identifications hold (49 basis products "
        "+ 300 samples + Zorn projection; octonion identification on all 64 "
        "basis products); corrupted-Gram mutation detected"
    )


def test_criterion_11_determinism_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "ring": {"kind": "Fp", "p": 7},
                "construction": {"kind": "zorn", "lam": "2"},
                "seed": 1234,
                "samples": 400,
                "mode": "seeded",
            }
        )
    )
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "colouralg", "check", str(cfg), "--suite", "all-applicable"],
            capture_output=True,
        )
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    print(
        "\nACCEPTANCE 11: PASS - two CLI runs with identical config and seed "
        "produced byte-identical JSON reports"
    )
