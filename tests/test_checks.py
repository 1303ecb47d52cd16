import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colouralg import algebras, checks, etale, rings
from colouralg.checks import CheckReport, Sampler, SplitMix64, report_json_line
from colouralg.errors import ExhaustiveTooLarge, SuiteNotApplicable
from colouralg.graded import GradedAlgebra, GradedSpec
from colouralg.trivec import HermitianSpace, mat_identity

Q = rings.RationalField()
F3 = rings.PrimeField(3)
F5 = rings.PrimeField(5)
F7 = rings.PrimeField(7)


def reference_splitmix64(seed, count):
    """Independent transcription of the reference mixing steps."""
    mask = (1 << 64) - 1
    out = []
    state = seed & mask
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_splitmix64_matches_reference():
    for seed in (0, 1, 42, 2**63 + 17):
        rng = SplitMix64(seed)
        assert [rng.next_u64() for _ in range(16)] == reference_splitmix64(seed, 16)


def test_splitmix64_stream_is_reproducible():
    a = SplitMix64(1234)
    b = SplitMix64(1234)
    assert [a.below(97) for _ in range(64)] == [b.below(97) for _ in range(64)]
    assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()


def test_sampler_validation():
    with pytest.raises(ValueError):
        Sampler(seed=1, mode="random")


def test_sample_stream_deterministic():
    A = algebras.ColSplitAlgebra(F7, 1)
    s = Sampler(seed=42, count=25)
    xs = list(checks.sample_stream(s, A))
    ys = list(checks.sample_stream(s, A))
    assert xs == ys
    assert len(xs) == 25


def test_sample_stream_exhaustive_count():
    A = algebras.ColSplitAlgebra(F3, 1)
    s = Sampler(seed=0, mode="exhaustive")
    elems = list(checks.sample_stream(s, A))
    assert len(elems) == 3**7 == 2187
    assert len(set(elems)) == 2187


def test_sample_stream_exhaustive_too_large():
    with pytest.raises(ExhaustiveTooLarge):
        list(checks.sample_stream(Sampler(mode="exhaustive"), algebras.ColSplitAlgebra(Q, Q.one)))
    with pytest.raises(ExhaustiveTooLarge):
        list(checks.sample_stream(Sampler(mode="exhaustive"), algebras.ColSplitAlgebra(F5, 1)))


def test_suite_gating():
    A = algebras.ColSplitAlgebra(Q, Q.one)
    with pytest.raises(SuiteNotApplicable):
        checks.run_suite(A, "composition", Sampler(seed=1))
    with pytest.raises(SuiteNotApplicable):
        checks.run_suite(A, "no-such-suite", Sampler(seed=1))
    W = algebras.WSplitAlgebra(Q, Q.one)
    with pytest.raises(SuiteNotApplicable):
        checks.run_suite(W, "quadratic", Sampler(seed=1))


def test_all_applicable_runs_every_suite():
    A = algebras.ZornAlgebra(F7, 1)
    reports = checks.run_suite(A, "all-applicable", Sampler(seed=7, count=50))
    names = {r.identity for r in reports}
    assert "flexible" in names
    assert "norm-composition" in names
    assert all(r.passed for r in reports)


def test_reports_byte_identical_across_runs():
    A = algebras.CayleyAlgebra(
        HermitianSpace(etale.SplitTorus(F7), mat_identity(etale.SplitTorus(F7)), (1, 1))
    )
    s = Sampler(seed=99, count=120)
    lines1 = [report_json_line(r) for r in checks.run_suite(A, "all-applicable", s)]
    lines2 = [report_json_line(r) for r in checks.run_suite(A, "all-applicable", s)]
    assert lines1 == lines2
    for line in lines1:
        payload = json.loads(line)
        assert set(payload) == {"identity", "samples", "pass", "counterexample"}


def test_report_counterexample_iff_failed():
    A = algebras.ColSplitAlgebra(Q, Q.one)
    ok = checks.run_identity(A, "flexible", Sampler(seed=3, count=40))
    assert ok.passed and ok.counterexample is None
    bad = checks.run_identity(A, "norm-composition", Sampler(seed=3, count=400))
    assert not bad.passed
    assert bad.counterexample is not None
    assert "inputs" in bad.counterexample
    # deterministic counterexample index (lowest failing stream position)
    again = checks.run_identity(A, "norm-composition", Sampler(seed=3, count=400))
    assert bad.counterexample == again.counterexample


def _kummer_det1_space(ring):
    # non-identity Gram matrix [[1, a, 0], [conj a, 2, 0], [0, 0, 1]] with n(a) = 1
    K = etale.KummerExtension(ring, 3)
    z, o = K.zero, K.one
    a = (2, 1)
    return HermitianSpace(K, [[o, a, z], [K.conj(a), K.scalar(2), z], [z, z, o]], o)


F_BIG = rings.PrimeField(1048573)  # r^2 (p-1)^3 >= 2^63: the kernel runs on Python integers

KERNEL_HANDLES = [
    algebras.ColSplitAlgebra(F3, 2),
    algebras.ColSplitAlgebra(rings.IntegersMod(15), 7),
    algebras.ZornAlgebra(F5, 3),
    algebras.WSplitAlgebra(F7, 2),
    algebras.CayleyAlgebra(_kummer_det1_space(F7)),
    algebras.ColHermAlgebra(HermitianSpace(etale.SplitTorus(F5), mat_identity(etale.SplitTorus(F5)), (2, 3))),
    algebras.WHermAlgebra(_kummer_det1_space(F7)),
    GradedAlgebra(GradedSpec(1, 2, 1), F5),
    algebras.ColSplitAlgebra(F_BIG, 5),
]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_batch_kernel_agrees_with_scalar_multiplication(data):
    # the structure-constant kernel against the scalar mul, norm and trace,
    # on batch-by-batch products and on both single-row shortcuts
    A = data.draw(st.sampled_from(KERNEL_HANDLES), label="algebra")
    n, r = A.ring.n, A.rank
    row = st.lists(st.integers(0, n - 1), min_size=r, max_size=r)
    k = data.draw(st.integers(1, 4), label="rows")
    xs = data.draw(st.lists(row, min_size=k, max_size=k), label="x")
    ys = data.draw(st.lists(row, min_size=k, max_size=k), label="y")
    B = checks._BatchView(A)
    assert (B.dtype is object) == (A.ring is F_BIG)
    X, Y = B.rows(xs), B.rows(ys)
    ex = [A.from_coords(c) for c in xs]
    ey = [A.from_coords(c) for c in ys]

    def elements(P):
        return [A.from_coords([int(c) for c in p]) for p in P]

    assert elements(checks.colsplit_mul_batch(B, X, Y)) == [A.mul(x, y) for x, y in zip(ex, ey)]
    assert elements(checks.colsplit_mul_batch(B, X[:1], Y)) == [A.mul(ex[0], y) for y in ey]
    assert elements(checks.colsplit_mul_batch(B, X, Y[:1])) == [A.mul(x, ey[0]) for x in ex]
    assert [int(v) for v in B.norm(X)[:, 0]] == [A.norm(x) for x in ex]
    if A.unital:
        assert [int(v) for v in B.trace(X)[:, 0]] == [A.trace(x) for x in ex]
        assert elements(B.one()) == [A.one()]


def test_exhaustive_flexible_kernel_runs_all_pairs():
    A = algebras.ColSplitAlgebra(F3, 2)
    report = checks.run_identity(A, "flexible", Sampler(mode="exhaustive"))
    assert report.passed
    assert report.samples == 3**7 * 3**7


def test_exhaustive_jordan_kernel_runs_all_pairs():
    A = algebras.ColSplitAlgebra(F3, 1)
    report = checks.run_identity(A, "jordan", Sampler(mode="exhaustive"))
    assert report.passed
    assert report.samples == 3**7 * 3**7


def test_exhaustive_kernel_detects_planted_corruption(monkeypatch):
    # corrupt one row of the first x*y batch for x = 1, whose index in the
    # lexicographic order is 3^6 (products with 1 propagate unchanged); the
    # kernel must report exactly the pair (3^6, 5), and since the scalar
    # identity holds there, only its index and inputs
    A = algebras.ColSplitAlgebra(F3, 1)
    i, j = 3**6, 5
    one = list(A.coords(A.one()))
    real = checks.colsplit_mul_batch
    planted = []

    def corrupted(B, X, Y):
        out = real(B, X, Y)
        if not planted and len(X) == 1 and len(Y) == 3**7 and X[0].tolist() == one:
            planted.append(True)
            out = out.copy()
            out[j, 1] = (out[j, 1] + 1) % 3
        return out

    monkeypatch.setattr(checks, "colsplit_mul_batch", corrupted)
    report = checks.run_identity(A, "flexible", Sampler(mode="exhaustive"))
    assert planted
    assert not report.passed
    assert report.samples == i * 3**7 + j + 1
    elems = list(A.enumerate_elements())
    assert report.counterexample == {
        "index": i * 3**7 + j,
        "inputs": [A.element_to_json(elems[i]), A.element_to_json(elems[j])],
    }


def test_planted_scalar_fault_same_counterexample_seeded_and_exhaustive(monkeypatch):
    # a wrong half-weight breaks the quadratic relation; with the seeded draws
    # replaced by the enumeration order both modes visit the same inputs, so
    # the kernel's report must equal the scalar path's field for field
    A = algebras.ColSplitAlgebra(F3, 1)
    A._half = 1  # correct value is inv(2) = 2 mod 3
    exhaustive = checks.run_identity(A, "quadratic-relation", Sampler(mode="exhaustive"))
    stream = A.enumerate_elements()
    monkeypatch.setattr(A, "sample", lambda rng: next(stream))
    seeded = checks.run_identity(A, "quadratic-relation", Sampler(count=3**7))
    assert not exhaustive.passed and not seeded.passed
    assert set(exhaustive.counterexample) == {"residual", "index", "inputs"}
    assert exhaustive.counterexample == seeded.counterexample
    assert exhaustive.samples == seeded.samples


def test_generic_exhaustive_loop_detects_planted_failure():
    # a wrong half-weight breaks the quadratic relation (it pins the weight)
    A = algebras.ColSplitAlgebra(F3, 1)
    A._half = 1  # correct value is inv(2) = 2 mod 3
    report = checks.run_identity(A, "quadratic-relation", Sampler(mode="exhaustive"))
    assert not report.passed
    assert report.counterexample is not None


def test_exhaustive_quadratic_generic_loop():
    A = algebras.ColSplitAlgebra(F3, 1)
    report = checks.run_identity(A, "quadratic-relation", Sampler(mode="exhaustive"))
    assert report.passed
    assert report.samples == 3**7


def test_w_split_exhaustive_pairs_small():
    # the batch kernel on all pairs of the rank-6 family over F3
    A = algebras.WSplitAlgebra(F3, 1)
    report = checks.run_identity(A, "anticommutative", Sampler(mode="exhaustive"))
    assert report.passed
    assert report.samples == 3**6 * 3**6


def test_cross_identity_exhaustive_rejected():
    S = etale.SplitTorus(F3)
    A = algebras.WHermAlgebra(HermitianSpace(S, mat_identity(S), S.one))
    with pytest.raises(ExhaustiveTooLarge):
        checks.run_identity(A, "cross-defining", Sampler(mode="exhaustive"))


def test_herm_cross_suite_passes():
    K = etale.KummerExtension(F7, 3)
    A = algebras.WHermAlgebra(HermitianSpace(K, mat_identity(K), K.one))
    reports = checks.run_suite(A, "herm-cross", Sampler(seed=5, count=200))
    assert [r.identity for r in reports] == list(checks.CROSS_IDENTITIES)
    assert all(r.passed for r in reports)


def test_cross_construction_check_passes():
    report = checks.cross_construction_check(F5, 1, Sampler(seed=11, count=300))
    assert report.passed
    assert report.samples >= 300 + 49


def test_cross_construction_check_with_twist():
    report = checks.cross_construction_check(F7, 3, Sampler(seed=13, count=200))
    assert report.passed


def test_cross_construction_detects_corrupted_gram():
    report = checks.cross_construction_check(
        F5, 1, Sampler(seed=11, count=300), corrupt_gram=True
    )
    assert not report.passed
    assert report.counterexample is not None
    assert report.counterexample["part"] == "col-identification"


def test_cay_zorn_check():
    report = checks.cay_zorn_check(F5)
    assert report.passed
    assert report.samples == 64
    assert checks.cay_zorn_check(Q).passed


def test_report_json_is_stable():
    r = CheckReport("demo", 5, True, None, elapsed_ms=123)
    assert report_json_line(r) == '{"counterexample":null,"identity":"demo","pass":true,"samples":5}'
