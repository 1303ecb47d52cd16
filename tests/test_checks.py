import copy
import json
import subprocess
import sys
from itertools import product
from math import prod
from operator import eq

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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


class _BatchView:
    """An algebra over Z/n acting on (rows, rank) numpy coordinate arrays: the
    reference of the exhaustive descent, on the product ``checks.colsplit_mul_batch``.

    Scalars are (rows, 1) columns, so they broadcast against elements.  Every
    intermediate sum is at most r^2 (n-1)^3 for rank r, so the rows are int64
    when that fits and Python integers (dtype object) when it does not.
    """

    def __init__(self, A):
        r, n = A.rank, A.ring.n
        self.n, self.rank = n, r
        self.dtype = np.int64 if r * r * (n - 1) ** 3 < 2**63 else object
        C, form, trace, one = checks._constants(A)
        self.C = self.rows(C)
        self.Q = self.rows(form)
        # L_x = x . C[i, :, :] and R_y = C[:, j, :] . y as single matrix products
        self.CL = self.C.reshape(r, r * r)
        self.CR = self.C.transpose(0, 2, 1).reshape(r * r, r)
        self.T = self.rows([[t] for t in trace]) if A.unital else None
        self._one = self.rows([one]) if A.unital else None
        self._zero = self.rows([[0] * r])
        self.ring = checks._BatchRing(n)

    def rows(self, values):
        return np.array(values, dtype=self.dtype)

    def table(self):
        """Every coordinate row, in ``enumerate_elements`` order (coordinate 0 most significant)."""
        n, r = self.n, self.rank
        idx = np.arange(n**r)
        out = np.empty((n**r, r), dtype=self.dtype)
        for k in range(r):
            out[:, k] = idx // n ** (r - 1 - k) % n
        return out

    def mul(self, X, Y):
        return checks.colsplit_mul_batch(self, X, Y)

    def add(self, X, Y):
        return (X + Y) % self.n

    def sub(self, X, Y):
        return (X - Y) % self.n

    def smul(self, t, X):
        return t * X % self.n

    def norm(self, X):
        return (X @ self.Q % self.n * X).sum(-1, keepdims=True) % self.n

    def trace(self, X):
        return X @ self.T % self.n

    def one(self):
        return self._one

    def zero(self):
        return self._zero


def full_table_report(A, identity):
    """The exhaustive report from every input in enumeration order: the whole
    table at once for arity 1, and the whole y table at each x for pairs."""
    arity, sides, _ = checks.ELEMENT_IDENTITIES[identity]
    B = _BatchView(A)
    table = B.table()
    size = len(table)
    for head, xs in enumerate(product(range(size), repeat=arity - 1)):
        lhs, rhs = sides(B, *[table[i : i + 1] for i in xs], table)
        agree = lhs == rhs
        if not agree.all():
            j = int(agree.all(-1).argmin())
            elems = [A.from_coords([int(c) for c in table[i]]) for i in (*xs, j)]
            index = head * size + j
            return CheckReport(identity, index + 1, False, checks._failure(A, identity, index, elems))
    return CheckReport(identity, size**arity, True, None)


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
    B = _BatchView(A)
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


def test_per_argument_degrees():
    degrees = {
        name: checks._degrees(sides, arity) for name, (arity, sides, _) in checks.ELEMENT_IDENTITIES.items()
    }
    assert degrees == {
        "flexible": [2, 1],
        "jordan": [3, 1],
        "quadratic-relation": [2],
        "norm-composition": [2, 2],
        "anticommutative": [1, 1],
        "quartic": [1, 3],
        "power-associativity-deg3": [3],
        "power-associativity-deg4": [4],
    }


def _prime_factors(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % f for f in range(2, p))]


def _monomials_invertible(n, rows):
    """Whether the matrix of the monomials x^a (a in rows) at the points x of rows has a unit determinant mod n."""
    for p in _prime_factors(n):
        M = [[prod(pow(c, e, p) for c, e in zip(x, a)) % p for a in rows] for x in rows]
        for col in range(len(M)):
            pivot = next((i for i in range(col, len(M)) if M[i][col]), None)
            if pivot is None:
                return False
            M[col], M[pivot] = M[pivot], M[col]
            inv = pow(M[col][col], -1, p)
            for i in range(col + 1, len(M)):
                f = M[i][col] * inv % p
                M[i] = [(u - f * v) % p for u, v in zip(M[i], M[col])]
    return True


@settings(max_examples=80, deadline=None)
@given(n=st.sampled_from([3, 5, 7, 9, 15]), r=st.integers(1, 4), d=st.integers(0, 5))
@example(n=7, r=4, d=5)
@example(n=3, r=4, d=5)
@example(n=15, r=4, d=2)
@example(n=9, r=2, d=3)
def test_grid_is_unisolvent_or_absent(n, r, d):
    # L(d) settles degree d over Z/n exactly when its monomial matrix is
    # invertible; the helper declines composite n with d >= q
    q = _prime_factors(n)[0]
    rows = checks._grid(n, r, d)
    if q < n and d >= q:
        assert rows is None
        return
    top = min(d, q - 1)
    assert rows == [a for a in product(range(top + 1), repeat=r) if sum(a) <= d]
    assert _monomials_invertible(n, rows)


def _split_f3_space():
    S = etale.SplitTorus(F3)
    return HermitianSpace(S, mat_identity(S), (1, 1))


# (algebra, identity): one per law, and the families whose coordinates
# interleave S components; the grid pass and the descent against the
# full-table reference
GRID_CASES = [
    (algebras.ColSplitAlgebra(F3, 2), "flexible"),
    (algebras.ColSplitAlgebra(F3, 1), "jordan"),
    (algebras.WSplitAlgebra(F3, 1), "anticommutative"),
    (algebras.WSplitAlgebra(F3, 2), "anticommutative"),
    (algebras.WSplitAlgebra(F3, 1), "norm-composition"),
    (algebras.WSplitAlgebra(F3, 1), "quartic"),
    (algebras.ColSplitAlgebra(F3, 1), "quadratic-relation"),
    (algebras.ZornAlgebra(F3, 2), "quadratic-relation"),
    (algebras.ColSplitAlgebra(F3, 2), "power-associativity-deg3"),
    (algebras.ZornAlgebra(F3, 2), "power-associativity-deg4"),
    (algebras.ColHermAlgebra(_split_f3_space()), "flexible"),
    (algebras.ColHermAlgebra(_split_f3_space()), "quadratic-relation"),
    (algebras.WHermAlgebra(_split_f3_space()), "quartic"),
    (GradedAlgebra(GradedSpec(1, 1, 1), F3), "power-associativity-deg4"),
]
# examples only: the full table at every x up to a late failing one costs seconds
ZORN_COMPOSITION = (algebras.ZornAlgebra(F3, 1), "norm-composition")


@settings(max_examples=30, deadline=None)
@given(
    case=st.sampled_from(GRID_CASES),
    ijk=st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7)),
    delta=st.integers(1, 2),
)
@example(case=GRID_CASES[2], ijk=(0, 5, 0), delta=1)
# faults seen only at grid points of weight d >= 2, which the affine probes 0, e_1, ..., e_r miss
@example(case=GRID_CASES[0], ijk=(0, 0, 1), delta=1)  # x = e_0 + e_3
@example(case=GRID_CASES[5], ijk=(0, 0, 1), delta=1)  # v = e_0 + e_4
@example(case=GRID_CASES[6], ijk=(0, 1, 0), delta=1)  # x = e_0 + e_1
@example(case=GRID_CASES[9], ijk=(0, 0, 0), delta=1)
@example(case=ZORN_COMPOSITION, ijk=(7, 0, 0), delta=1)  # y = e_0 + e_4
def test_probe_path_report_equals_full_table_pass(case, ijk, delta):
    # one wrong structure constant C[i, j, k] (coordinate k of e_i e_j); the
    # grid pass and the descent must give the report of the full-table reference
    A, identity = copy.copy(case[0]), case[1]
    r = A.rank
    assume(max(ijk) < r)
    i, j, k = ijk
    units = [A.from_coords([int(c == m) for c in range(r)]) for m in range(r)]
    real = A.mul

    def planted(x, y):
        out = real(x, y)
        if x == units[i] and y == units[j]:
            c = list(A.coords(out))
            c[k] = (c[k] + delta) % 3
            out = A.from_coords(c)
        return out

    A.mul = planted
    probed = checks.run_identity(A, identity, Sampler(mode="exhaustive"))
    assert probed.to_json() == full_table_report(A, identity).to_json()


def test_quadratic_identity_runs_every_y():
    # norm-composition is quadratic in y; on w_split over F3 the first
    # failing x (index 28) agrees on 0 and every unit row, so only the whole
    # y table finds its lowest failing pair, which a scalar enumeration confirms
    A = algebras.WSplitAlgebra(F3, 1)
    report = checks.run_identity(A, "norm-composition", Sampler(mode="exhaustive"))
    elems = list(A.enumerate_elements())
    _, sides, _ = checks.ELEMENT_IDENTITIES["norm-composition"]
    index = next(
        i * len(elems) + j
        for i, x in enumerate(elems)
        for j, y in enumerate(elems)
        for lhs, rhs in [sides(A, x, y)]
        if lhs != rhs
    )
    assert index // len(elems) == 28
    B = _BatchView(A)
    lhs, rhs = sides(B, B.table()[28:29], B.rows([[0] * 6] + [[int(c == m) for c in range(6)] for m in range(6)]))
    assert (lhs == rhs).all()
    assert not report.passed
    assert report.counterexample["index"] == index
    assert report.samples == index + 1


def test_seeded_suites_do_not_import_numpy():
    # numpy is a test dependency only: colouralg never imports it
    code = (
        "import sys\n"
        "from colouralg import algebras, checks, rings\n"
        "A = algebras.ColSplitAlgebra(rings.PrimeField(7), 3)\n"
        "reports = checks.run_suite(A, 'all-applicable', checks.Sampler(seed=5, count=50))\n"
        "assert reports and all(r.passed for r in reports)\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_seeded_suites_of_every_family_do_not_import_numpy():
    # the coordinate view of seeded mode over Z/n is pure Python for all seven families
    code = (
        "import sys\n"
        "from colouralg import algebras, checks, etale, rings\n"
        "from colouralg.graded import GradedAlgebra, GradedSpec\n"
        "from colouralg.trivec import HermitianSpace, mat_identity\n"
        "F7, Z15 = rings.PrimeField(7), rings.IntegersMod(15)\n"
        "K = etale.KummerExtension(F7, 3)\n"
        "P = HermitianSpace(K, mat_identity(K), K.one)\n"
        "handles = [algebras.ColSplitAlgebra(Z15, 2), algebras.ZornAlgebra(F7, 3), algebras.WSplitAlgebra(Z15, 1),\n"
        "           algebras.CayleyAlgebra(P), algebras.ColHermAlgebra(P), algebras.WHermAlgebra(P),\n"
        "           GradedAlgebra(GradedSpec(1, 1, 1), F7)]\n"
        "for A in handles:\n"
        "    reports = checks.run_suite(A, 'all-applicable', checks.Sampler(seed=5, count=10))\n"
        "    assert reports and all(r.passed for r in reports), A.family\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_exhaustive_grid_passes_do_not_import_numpy():
    # a pass settled on the degree grid runs on the coordinate view alone
    code = (
        "import json, sys\n"
        "from colouralg import algebras, checks, rings\n"
        "F3, ex = rings.PrimeField(3), checks.Sampler(mode='exhaustive')\n"
        "col, zorn = algebras.ColSplitAlgebra(F3, 1), algebras.ZornAlgebra(F3, 1)\n"
        "runs = [(col, 'flexible'), (zorn, 'quadratic'), (zorn, 'power-assoc'), (zorn, 'composition')]\n"
        "reports = [r for A, suite in runs for r in checks.run_suite(A, suite, ex)]\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
        "print(json.dumps([r.to_json() for r in reports]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    reports = json.loads(proc.stdout)
    # samples = 3^(arity * rank): rank 7 for col_split, 8 for zorn
    assert [(r["identity"], r["samples"]) for r in reports] == [
        ("flexible", 3**14),
        ("quadratic-relation", 3**8),
        ("power-associativity-deg3", 3**8),
        ("power-associativity-deg4", 3**8),
        ("norm-composition", 3**16),
    ]
    assert all(r["pass"] and r["counterexample"] is None for r in reports)


def test_exhaustive_failures_do_not_import_numpy():
    # the descent locates a failure on the coordinate view, so colouralg runs
    # with numpy blocked: the golden control and a planted half-weight fault
    code = (
        "import json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from colouralg import algebras, checks, rings\n"
        "ex = checks.Sampler(mode='exhaustive')\n"
        "A, B = algebras.ColSplitAlgebra(rings.PrimeField(3), 1), algebras.ColSplitAlgebra(rings.PrimeField(3), 1)\n"
        "B._half = 1\n"
        "reports = [checks.run_identity(A, 'norm-composition', ex), checks.run_identity(B, 'quadratic-relation', ex)]\n"
        "print(json.dumps([r.to_json() for r in reports]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    control, half = json.loads(proc.stdout)
    assert not control["pass"] and control["samples"] == 2215 and control["counterexample"]["index"] == 2214
    # x = u3 + ud3 (index 28) is the first input with <u, ud> != 0
    assert not half["pass"] and half["samples"] == 29 and half["counterexample"]["index"] == 28


def test_exhaustive_suite_with_cross_identities_fails_before_any_identity(monkeypatch):
    # the hermitian families' cross identities are seeded only, so an
    # exhaustive all-applicable run must refuse before its element identities run
    calls = []

    def recorded(A, identity):
        calls.append(identity)
        return CheckReport(identity, 1, True, None)

    monkeypatch.setattr(checks, "_colsplit_exhaustive_pairs", recorded)
    S3, S5 = etale.SplitTorus(F3), etale.SplitTorus(F5)
    cay = algebras.CayleyAlgebra(HermitianSpace(S3, mat_identity(S3), S3.one))
    with pytest.raises(ExhaustiveTooLarge, match="^cross identities support seeded sampling only$"):
        checks.run_suite(cay, "all-applicable", Sampler(mode="exhaustive"))
    # an algebra past the cap keeps the error its first element identity gave
    col = algebras.ColHermAlgebra(HermitianSpace(S5, mat_identity(S5), S5.one))
    with pytest.raises(ExhaustiveTooLarge, match="exceed the cap"):
        checks.run_suite(col, "all-applicable", Sampler(mode="exhaustive"))
    assert calls == []


def _twisted_space(S):
    """Gram [[1, a, 0], [conj a, 1 + n(a), 0], [0, 0, 1]] (det 1) with a = (1, 2), alpha 1."""
    a = (S.ring.one, S.ring.of_int(2))
    z, o = S.zero, S.one
    gram = [[o, a, z], [S.conj(a), S.scalar(S.ring.add(S.ring.one, S.norm(a))), z], [z, z, o]]
    return HermitianSpace(S, gram, o)


def _view_handles(R):
    spaces = [_twisted_space(etale.SplitTorus(R)), _twisted_space(etale.KummerExtension(R, R.of_int(2)))]
    return [
        algebras.ColSplitAlgebra(R, R.of_int(2)),
        algebras.ZornAlgebra(R, R.of_int(2)),
        algebras.WSplitAlgebra(R, R.one),
        GradedAlgebra(GradedSpec(1, 1, 1), R),
        *[cls(P) for P in spaces for cls in (algebras.CayleyAlgebra, algebras.ColHermAlgebra, algebras.WHermAlgebra)],
    ]


VIEW_HANDLES = [A for R in (F3, F7, rings.IntegersMod(15)) for A in _view_handles(R)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_coordinate_view_agrees_with_scalar_multiplication(data):
    # the seeded fast path against the scalar mul, norm, trace and unit
    A = data.draw(st.sampled_from(VIEW_HANDLES), label="algebra")
    row = st.tuples(*[st.integers(0, A.ring.n - 1)] * A.rank)
    x, y = data.draw(row, label="x"), data.draw(row, label="y")
    t = data.draw(st.integers(0, A.ring.n - 1), label="t")
    V = checks._CoordView(A)
    ex, ey = A.from_coords(x), A.from_coords(y)
    assert V.mul(x, y) == A.coords(A.mul(ex, ey))
    assert V.norm(x) == A.norm(ex)
    assert V.add(x, y) == A.coords(A.add(ex, ey))
    assert V.sub(x, y) == A.coords(A.sub(ex, ey))
    assert V.smul(t, x) == A.coords(A.smul(t, ex))
    if A.unital:
        assert V.trace(x) == A.trace(ex)
        assert V.one() == A.coords(A.one())


def scalar_report(A, identity, sampler):
    """The seeded verdict through the algebra's own product: the oracle of the coordinate view."""
    arity, sides, _ = checks.ELEMENT_IDENTITIES[identity]
    return checks.first_failure(
        identity,
        checks.draws(sampler, lambda rng: [A.sample(rng) for _ in range(arity)]),
        lambda xs: eq(*sides(A, *xs)),
        lambda index, xs: checks._failure(A, identity, index, xs),
    )


def _half_weight_3():
    A = algebras.ColSplitAlgebra(rings.IntegersMod(15), 2)
    A._half = 3  # inv(2) = 8 mod 15; 2*3 - 1 = 5 kills <u, ud> = 0 mod 3
    return A


def _planted_constant(A, i, j, k):
    """A with 1 added to coordinate k of e_i e_j, a fault that keeps mul bilinear."""
    A, n = copy.copy(A), A.ring.n
    real = A.mul

    def planted(x, y):
        c = list(A.coords(real(x, y)))
        c[k] = (c[k] + A.coords(x)[i] * A.coords(y)[j]) % n
        return A.from_coords(c)

    A.mul = planted
    return A


def _alpha_doubled(S):
    P = _twisted_space(S)
    P.alpha = S.add(S.one, S.one)
    return P


SEEDED_ORACLE_CASES = {
    **{f"{A.family}-{A.ring.n}-{i}": A for i, A in enumerate(VIEW_HANDLES) if A.ring.n != 3},
    "half-weight-3": _half_weight_3(),
    "planted-constant-graded": _planted_constant(GradedAlgebra(GradedSpec(1, 1, 1), F7), 2, 3, 4),
    "planted-constant-zorn": _planted_constant(algebras.ZornAlgebra(F7, 2), 2, 5, 0),
    "alpha-doubled-cay-kummer": algebras.CayleyAlgebra(_alpha_doubled(etale.KummerExtension(F7, 3))),
    "alpha-doubled-w-split": algebras.WHermAlgebra(_alpha_doubled(etale.SplitTorus(rings.IntegersMod(15)))),
}


@pytest.mark.parametrize("name", list(SEEDED_ORACLE_CASES))
def test_seeded_reports_equal_scalar_oracle(name):
    # every element identity, applicable or not (so most cases hold some
    # failures), through run_suite's shared view and through run_identity
    A = SEEDED_ORACLE_CASES[name]
    sampler = Sampler(seed=17, count=25)
    names = [i for i in checks.ELEMENT_IDENTITIES if A.unital or i != "quadratic-relation"]
    want = {i: scalar_report(A, i, sampler).to_json() for i in names}
    assert {i: checks.run_identity(A, i, sampler).to_json() for i in names} == want
    suite = [r.to_json() for r in checks.run_suite(A, "all-applicable", sampler) if r.identity in want]
    assert suite and suite == [want[r["identity"]] for r in suite]
    assert not all(w["pass"] for w in want.values())


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
