import ast
import copy
import importlib
import json
import pkgutil
import re
import subprocess
import sys
import typing
from functools import reduce
from itertools import product
from math import comb, prod
from operator import eq

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import colouralg
from colouralg import algebras, checks, etale, rings
from colouralg.checks import CheckReport, Sampler, SplitMix64, report_json_line
from colouralg.errors import ExhaustiveTooLarge, SuiteNotApplicable, WrongRing
from colouralg.graded import GradedAlgebra, GradedSpec
from colouralg.trivec import HermitianSpace, mat_identity
from test_golden import _kummer, _RareCross, _split_f7
from test_trivec import SPARSE_CASES

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


def test_seeded_sample_count_is_bounded_by_the_work_bound():
    assert Sampler(count=checks.EXHAUSTIVE_WORK).count == 10**6
    with pytest.raises(ValueError, match=f"work bound {checks.EXHAUSTIVE_WORK}"):
        Sampler(count=checks.EXHAUSTIVE_WORK + 1)


def test_draws_deterministic():
    A = algebras.ColSplitAlgebra(F7, 1)
    s = Sampler(seed=42, count=25)
    xs = list(checks.draws(s, A.sample))
    ys = list(checks.draws(s, A.sample))
    assert xs == ys
    assert len(xs) == 25


def enumerate_elements(A):
    """Every element of A over Z/n, in lexicographic coordinate order (the order exhaustive indices count)."""
    return map(A.from_coords, product(range(A.ring.n), repeat=A.rank))


def test_enumerate_elements_count():
    A = algebras.ColSplitAlgebra(F3, 1)
    elems = list(enumerate_elements(A))
    assert len(elems) == 3**7 == 2187
    assert len(set(elems)) == 2187


def test_exhaustive_refusal_names_the_ring_or_the_estimate():
    ex = Sampler(mode="exhaustive")
    with pytest.raises(ExhaustiveTooLarge, match="^col_split over Q is not enumerable$"):
        checks.run_identity(algebras.ColSplitAlgebra(Q, Q.one), "flexible", ex)
    # graded(2,2,2) has rank 28: flexible, of degrees (2, 1), would take up to
    # (1 + 28*3 + 28*2) * |L(2)| * |L(1)| = 141 * 435 * 29 evaluations
    with pytest.raises(ExhaustiveTooLarge, match="^flexible needs an estimated 1778715 evaluations, past the bound 1000000$"):
        checks.run_identity(GradedAlgebra(GradedSpec(2, 2, 2), F7), "flexible", ex)
    # the work bound, not the element count, decides: col_split over F5 has 5^7 elements
    report = checks.run_identity(algebras.ColSplitAlgebra(F5, 1), "flexible", ex)
    assert report.passed and report.samples == 5**14


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
        self.ring = A.ring

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


def _kempner(n):
    """The least m with n | m!, by running m! to the end."""
    m, f = 1, 1
    while f % n:
        m += 1
        f *= m
    return m


@pytest.mark.parametrize("n", [3, 5, 7, 9, 15, 21, 25, 27])
def test_capped_grid_reproduces_every_monomial(n):
    # for r <= 3, d <= 5 and each monomial x^e with |e| <= d, the forward
    # differences of x^e at 0 over the rows a of the capped grid L(d), times
    # the binomials C(x, a), give x^e back at every point of (Z/n)^r
    binom = np.array([[comb(x, a) % n for x in range(n)] for a in range(6)], dtype=np.int64)
    for r in (1, 2, 3):
        points = np.indices((n,) * r).reshape(r, -1)
        for d in range(6):
            top = min(d, _kempner(n) - 1)
            rows = checks._grid(n, r, d)
            assert rows == [a for a in product(range(top + 1), repeat=r) if sum(a) <= d]
            assert checks._grid_size(n, r, d) == len(rows)
            basis = np.array([np.prod([binom[a[i]][points[i]] for i in range(r)], axis=0) % n for a in rows])
            for e in (a for a in product(range(d + 1), repeat=r) if sum(a) <= d):
                value = {a: prod(c**k for c, k in zip(a, e)) for a in rows}
                diffs = [
                    sum(
                        (-1) ** (sum(a) - sum(b)) * prod(comb(i, j) for i, j in zip(a, b)) * value[b]
                        for b in product(*[range(i + 1) for i in a])
                    )
                    % n
                    for a in rows
                ]
                want = np.prod([points[i] ** e[i] % n for i in range(r)], axis=0) % n
                assert (np.array(diffs, dtype=np.int64) @ basis % n == want).all(), (n, r, d, e)


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


Z9 = rings.IntegersMod(9)
_SPLIT_Z9 = etale.SplitTorus(Z9)
# rank 6, so the full table has 9^6 rows; the grids of degree 3 and 4 need
# coordinates past 2, where the least prime factor 3 of 9 is not a unit
Z9_HANDLES = [algebras.WSplitAlgebra(Z9, 2), algebras.WHermAlgebra(HermitianSpace(_SPLIT_Z9, mat_identity(_SPLIT_Z9), (1, 1)))]


@settings(max_examples=3, deadline=None)
@given(
    A=st.sampled_from(Z9_HANDLES),
    identity=st.sampled_from(["power-associativity-deg3", "power-associativity-deg4"]),
    ijk=st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
)
@example(A=Z9_HANDLES[0], identity="power-associativity-deg4", ijk=(0, 3, 1))
@example(A=Z9_HANDLES[1], identity="power-associativity-deg3", ijk=(2, 2, 4))
def test_composite_modulus_descent_equals_full_table(A, identity, ijk):
    # one wrong structure constant over Z/9: the capped grid pass and the
    # descent must give the report of the full-table reference
    planted = _planted_constant(A, *ijk)
    assert checks.run_identity(planted, identity, Sampler(mode="exhaustive")).to_json() == full_table_report(
        planted, identity
    ).to_json()


def test_quadratic_identity_runs_every_y():
    # norm-composition is quadratic in y; on w_split over F3 the first
    # failing x (index 28) agrees on 0 and every unit row, so only the whole
    # y table finds its lowest failing pair, which a scalar enumeration confirms
    A = algebras.WSplitAlgebra(F3, 1)
    report = checks.run_identity(A, "norm-composition", Sampler(mode="exhaustive"))
    elems = list(enumerate_elements(A))
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
    # and before any structure constant is computed
    calls, built = [], []

    def recorded(A, identity, view):
        calls.append(identity)
        return CheckReport(identity, 1, True, None)

    monkeypatch.setattr(checks, "_colsplit_exhaustive_pairs", recorded)
    monkeypatch.setattr(checks, "_constants", lambda A: built.append(A.family))
    S3 = etale.SplitTorus(F3)
    cay = algebras.CayleyAlgebra(HermitianSpace(S3, mat_identity(S3), S3.one))
    with pytest.raises(ExhaustiveTooLarge, match="^cross identities support seeded sampling only$"):
        checks.run_suite(cay, "all-applicable", Sampler(mode="exhaustive"))
    # an algebra that is not enumerable keeps the error its first element identity gave
    SQ = etale.SplitTorus(Q)
    col = algebras.ColHermAlgebra(HermitianSpace(SQ, mat_identity(SQ), SQ.one))
    with pytest.raises(ExhaustiveTooLarge, match="^col_hermitian over Q is not enumerable$"):
        checks.run_suite(col, "all-applicable", Sampler(mode="exhaustive"))
    # the cross suite alone has no element identity to refuse first
    w = algebras.WHermAlgebra(HermitianSpace(SQ, mat_identity(SQ), SQ.one))
    with pytest.raises(ExhaustiveTooLarge, match="^cross identities support seeded sampling only$"):
        checks.run_suite(w, "herm-cross", Sampler(mode="exhaustive"))
    # and an element identity ahead of the cross identities is refused past the bound
    monkeypatch.setattr(checks, "EXHAUSTIVE_WORK", 1000)
    with pytest.raises(ExhaustiveTooLarge, match="^flexible needs an estimated 16605 evaluations, past the bound 1000$"):
        checks.run_suite(cay, "all-applicable", Sampler(mode="exhaustive"))
    assert calls == [] and built == []


@pytest.mark.parametrize(
    "identity, mode, error, message",
    [
        ("nope", "seeded", SuiteNotApplicable, "unknown identity 'nope'"),
        ("cross-defining", "seeded", SuiteNotApplicable, "col_split has no hermitian space"),
        ("cross-defining", "exhaustive", ExhaustiveTooLarge, "cross identities support seeded sampling only"),
    ],
)
def test_run_identity_refuses_before_any_work(identity, mode, error, message, monkeypatch):
    # an unknown name, and a cross identity on a family without a hermitian space: the exhaustive
    # refusal comes first, and no view is built
    built = []
    monkeypatch.setattr(checks, "_constants", lambda A: built.append(A.family))
    monkeypatch.setattr(checks, "_SpaceView", lambda P: built.append("space"))
    with pytest.raises(error) as caught:
        checks.run_identity(algebras.ColSplitAlgebra(F7, 1), identity, Sampler(mode=mode))
    assert str(caught.value) == message and type(caught.value) is error
    assert built == []


def test_exhaustive_suite_past_the_bound_fails_before_any_identity(monkeypatch):
    # graded(1,2,2) has rank 20: flexible is within the bound, jordan is not,
    # so the suite refuses before flexible runs, naming jordan's estimate
    calls = []
    monkeypatch.setattr(checks, "_colsplit_exhaustive_pairs", lambda A, identity, view: calls.append(identity))
    A = GradedAlgebra(GradedSpec(1, 2, 2), F7)
    assert A.rank == 20
    with pytest.raises(ExhaustiveTooLarge, match="^jordan needs an estimated 4500111 evaluations"):
        checks.run_suite(A, "all-applicable", Sampler(mode="exhaustive"))
    assert calls == []


def test_exhaustive_suite_builds_one_coordinate_view(monkeypatch):
    # the suite's identities share its view: one set of structure constants per call
    built = []
    real = checks._constants

    def counted(A):
        built.append(A.family)
        return real(A)

    monkeypatch.setattr(checks, "_constants", counted)
    S3 = etale.SplitTorus(F3)
    handles = [algebras.ZornAlgebra(F3, 1), algebras.ColHermAlgebra(HermitianSpace(S3, mat_identity(S3), S3.one))]
    for A in handles:
        built.clear()
        reports = checks.run_suite(A, "power-assoc", Sampler(mode="exhaustive"))
        assert [r.passed for r in reports] == [True, True]
        assert built == [A.family]


def test_exhaustive_suites_over_a_large_prime_finish():
    # the capped grids do not grow with n, so over F_1048573 a suite costs
    # what it costs over F7, and the descent tries each digit only up to its degree
    ex, p = Sampler(mode="exhaustive"), F_BIG.n
    reports = checks.run_suite(algebras.ZornAlgebra(F_BIG, 5), "all-applicable", ex)
    assert [(r.identity, r.passed, r.samples) for r in reports] == [
        ("flexible", True, p**16),
        ("jordan", True, p**16),
        ("quadratic-relation", True, p**8),
        ("power-associativity-deg3", True, p**8),
        ("power-associativity-deg4", True, p**8),
        ("norm-composition", True, p**16),
    ]
    A = algebras.ColSplitAlgebra(F_BIG, 5)
    control = checks.run_identity(A, "norm-composition", ex)
    index = control.counterexample["index"]
    digits = [index // p**k % p for k in reversed(range(14))]
    x, y = A.from_coords(digits[:7]), A.from_coords(digits[7:])
    assert control.counterexample["inputs"] == [A.element_to_json(x), A.element_to_json(y)]
    lhs, rhs = checks.ELEMENT_IDENTITIES["norm-composition"][1](A, x, y)
    assert lhs != rhs and control.samples == index + 1
    # x = v3, y = u3: the pair the F3 golden control reports (index 3^7 + 3^3)
    assert index == p**7 + p**3


def test_constants_over_q_are_ring_elements():
    # the norm form is padded with the ring's zero, so Q's own ops take every entry
    A = algebras.ColSplitAlgebra(Q, Q.one)
    _, form, _, _ = checks._constants(A)
    for x in checks.draws(Sampler(seed=3, count=5), A.sample):
        c = A.coords(x)
        terms = [Q.mul(q, Q.mul(c[i], c[j])) for i, row in enumerate(form) for j, q in enumerate(row) if not Q.is_zero(q)]
        assert reduce(Q.add, terms, Q.zero) == A.norm(x)


def test_type_hints_resolve_for_public_callables():
    # every exported name exists, so a removed name cannot linger in __all__
    names = [m.name for m in pkgutil.iter_modules(colouralg.__path__) if m.name != "__main__"]
    for module in [colouralg, *[importlib.import_module(f"colouralg.{name}") for name in names]]:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"
            if callable(getattr(module, name)):
                typing.get_type_hints(getattr(module, name))


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
        *([] if isinstance(R, rings.PolynomialRing) else [GradedAlgebra(GradedSpec(1, 1, 1), R)]),
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
    stream = enumerate_elements(A)
    monkeypatch.setattr(A, "sample_coords", lambda rng: A.coords(next(stream)))
    seeded = checks.run_identity(A, "quadratic-relation", Sampler(count=3**7))
    assert not exhaustive.passed and not seeded.passed
    assert set(exhaustive.counterexample) == {"residual", "index", "inputs"}
    assert exhaustive.counterexample == seeded.counterexample
    assert exhaustive.samples == seeded.samples


F7T = rings.PolynomialRing(F7, ["t0", "t1"])
QT = rings.PolynomialRing(Q, ["t0"])


def _half_one(A):
    """A with the half weight of its product set to one: a structure-constant fault."""
    A = copy.copy(A)
    A._half = A.ring.one
    return A


def _settle_cases():
    cases = {}
    for R in (Q, F7, rings.IntegersMod(15), F7T, QT):
        two, P = R.of_int(2), _twisted_space(etale.SplitTorus(R))
        handles = [algebras.ColSplitAlgebra(R, two), algebras.ZornAlgebra(R, two), algebras.WSplitAlgebra(R, R.one)]
        handles += [cls(P) for cls in (algebras.CayleyAlgebra, algebras.ColHermAlgebra, algebras.WHermAlgebra)]
        cases.update({f"{A.family}/{R.kind}": A for A in handles})
        if not isinstance(R, rings.PolynomialRing):
            cases[f"half-one-col_hermitian/{R.kind}"] = _half_one(algebras.ColHermAlgebra(P))
    P = _twisted_space(etale.KummerExtension(F7, 3))
    for cls in (algebras.CayleyAlgebra, algebras.ColHermAlgebra, algebras.WHermAlgebra):
        cases[f"{cls(P).family}/kummer-F7"] = cls(P)
    cases["graded(1,1,1)/F7"] = GradedAlgebra(GradedSpec(1, 1, 1), F7)
    for R in (Q, F7, F7T):
        cases[f"half-one-col_split/{R.kind}"] = _half_one(algebras.ColSplitAlgebra(R, R.one))
    P = _gram_t0_space()
    for cls in (algebras.CayleyAlgebra, algebras.ColHermAlgebra):
        cases[f"{cls(P).family}/gram-t0/{QT.kind}"] = cls(P)
    return cases


def _gram_t0_space():
    """Gram [[1, t0, 0], [t0, 1 + t0^2, 0], [0, 0, 1]] (det 1) over the split torus of Q[t0], alpha 1: its
    structure constants involve t0."""
    S, t = etale.SplitTorus(QT), QT.parse("t0")
    z, o = S.zero, S.one
    return HermitianSpace(S, [[o, S.scalar(t), z], [S.scalar(t), S.scalar(QT.parse("1 + t0^2")), z], [z, z, o]], o)


SETTLE_CASES = _settle_cases()


def _threshold(A, identity):
    """The least count at which a seeded identity settles on its grid: |grid| over the points per draw."""
    arity, sides, _ = checks.ELEMENT_IDENTITIES[identity]
    n = A.ring.n if isinstance(A.ring, rings.IntegersMod) else 0
    size = prod(checks._grid_size(n, A.rank, d) for d in checks._degrees(sides, arity))
    return -(-size // checks._points_per_draw(A.ring))


@pytest.fixture
def drawn(monkeypatch):
    """The counts of the seeded draw loops started, in order."""
    counts, real = [], checks.draws
    monkeypatch.setattr(checks, "draws", lambda sampler, draw: counts.append(sampler.count) or real(sampler, draw))
    return counts


@pytest.mark.parametrize("name", list(SETTLE_CASES))
def test_settled_reports_equal_drawn_reports(name, drawn, monkeypatch):
    # every element identity at one draw and at the count where it settles on
    # its grid, and the suite at a count that settles some of its identities:
    # the reports equal those of the draws alone (no grid settles when a grid
    # point costs a draw's 0 points)
    A = SETTLE_CASES[name]
    names = [i for i in checks.ELEMENT_IDENTITIES if A.unital or i != "quadratic-relation"]
    for i in names:
        assert checks._settling_grid(A, i, _threshold(A, i) - 1) is None and checks._settling_grid(A, i, _threshold(A, i))
    runs = [(i, c) for i in names for c in (1, _threshold(A, i))]

    def reports():
        # one view for the identity runs, chosen as run_suite chooses it for the largest count
        views = checks._views(A, Sampler(count=max(c for _, c in runs)), names)
        out = [checks.run_identity(A, i, Sampler(seed=5, count=c), views[i]).to_json() for i, c in runs]
        return out + [r.to_json() for r in checks.run_suite(A, "all-applicable", Sampler(seed=5, count=20))]

    settled = reports()
    settled_draws = len(drawn)
    monkeypatch.setattr(checks, "_points_per_draw", lambda ring: 0)
    assert reports() == settled
    assert settled_draws < len(drawn) - settled_draws
    if name.startswith("half-one"):
        assert not all(r["pass"] for r in settled)


def test_grid_runs_in_the_coefficient_ring_exactly_when_the_constants_are_constant():
    # every polynomial case but the t0 Gram takes the view over B for its grid, Z/n and Q views their own
    for name, A in SETTLE_CASES.items():
        V = checks._CoordView(A)
        if not isinstance(A.ring, rings.PolynomialRing) or "gram-t0" in name:
            assert V.grid is V
            continue
        B = A.ring.base
        assert V.grid is not V and V.grid.ring == B and V.grid.n == getattr(B, "n", 0)
        # on constant coordinates the view over B is the view over B[t] read at its constant terms
        lift = lambda xs: tuple(map(A.ring.of_int, xs))  # noqa: E731
        for x, y in product(checks._grid(0, A.rank, 1)[:4], checks._grid(0, A.rank, 2)[-4:]):
            bx, by = (tuple(map(B.of_int, xs)) for xs in (x, y))
            assert lift(V.grid.mul(bx, by)) == V.mul(lift(x), lift(y))
            assert A.ring.of_int(V.grid.norm(bx)) == V.norm(lift(x))
            if A.unital:
                assert A.ring.of_int(V.grid.trace(bx)) == V.trace(lift(x))
    assert any("gram-t0" in name for name in SETTLE_CASES)


@pytest.mark.parametrize(
    "A, count", [(algebras.ColSplitAlgebra(F7T, F7T.one), 20), (algebras.WSplitAlgebra(QT, QT.one), 40)], ids=["F7T", "QT"]
)
def test_polynomial_suites_settle_without_drawing(A, count, drawn, monkeypatch):
    # with grid points in the coefficient ring every identity of these suites settles at these counts
    settled = [r.to_json() for r in checks.run_suite(A, "all-applicable", Sampler(seed=3, count=count))]
    assert drawn == [] and all(r["pass"] for r in settled)
    monkeypatch.setattr(checks, "_points_per_draw", lambda ring: 0)
    assert [r.to_json() for r in checks.run_suite(A, "all-applicable", Sampler(seed=3, count=count))] == settled
    assert drawn == [count] * len(settled)


@pytest.mark.parametrize(
    "R, mode", [(F7, "seeded"), (F7, "exhaustive"), (Q, "seeded")], ids=["F7-seeded", "F7-exhaustive", "Q-seeded"]
)
def test_quadratic_relation_without_a_unit_is_the_scalar_error(R, mode):
    # the view's one and trace raise the error of the algebra's own
    P = _twisted_space(etale.SplitTorus(R))
    for A in (algebras.WSplitAlgebra(R, R.one), algebras.WHermAlgebra(P)):
        with pytest.raises(WrongRing, match=f"{A.family} has no unit"):
            A.trace(A.zero())
        with pytest.raises(WrongRing, match=f"{A.family} has no unit"):
            checks.run_identity(A, "quadratic-relation", Sampler(mode=mode, count=5))


def _cube_of_trace(A, x):
    """t^3 = t for t = t(x) = 2 x_0 on col_split: of degree 3, and true on F3 alone."""
    t = A.trace(x)
    return A.ring.mul(t, A.ring.mul(t, t)), t


def test_grid_is_refused_where_it_would_prove_nothing(drawn, monkeypatch):
    monkeypatch.setitem(checks.ELEMENT_IDENTITIES, "cube-of-trace", (1, _cube_of_trace, checks._x_json))
    big, F3T = 10**6, rings.PolynomialRing(F3, ["t"])
    # 3! and 4! are not units in F3[t] and (Z/9)[t]: those laws draw
    for R, identity in ((F3T, "jordan"), (rings.PolynomialRing(rings.IntegersMod(9), ["t"]), "power-associativity-deg4")):
        A = algebras.ColSplitAlgebra(R, R.one)
        assert checks._settling_grid(A, identity, big) is None
        drawn.clear()
        assert checks.run_identity(A, identity, Sampler(count=20)).passed and drawn == [20]
    # over Z/9 itself the capped grid proves it on every input, though 3 divides 4!
    A = algebras.ColSplitAlgebra(rings.IntegersMod(9), 1)
    assert checks._settling_grid(A, "power-associativity-deg4", big) == (9, [4])
    drawn.clear()
    assert checks.run_identity(A, "power-associativity-deg4", Sampler(count=big)).to_json()["samples"] == big
    assert drawn == []
    # the cube law holds on F3 (Fermat) and settles on its capped grid, coordinates at most 2
    A = algebras.ColSplitAlgebra(F3, 1)
    assert checks._settling_grid(A, "cube-of-trace", big) == (3, [3])
    drawn.clear()
    assert checks.run_identity(A, "cube-of-trace", Sampler(count=big)).passed and drawn == []
    # over F3[t] it holds on every point of that grid and of the uncapped L(3), yet fails at x_0 = t
    B = algebras.ColSplitAlgebra(F3T, F3T.one)
    V, table = checks._CoordView(B), [F3T.of_int(c) for c in range(4)]
    for n in (3, 0):
        assert all(eq(*_cube_of_trace(V, tuple([table[c] for c in row]))) for row in checks._grid(n, 7, 3))
    t = F3T.parse("t")
    x = B.from_coords([t] + [F3T.zero] * 6)
    assert not eq(*_cube_of_trace(B, x))
    assert checks._settling_grid(B, "cube-of-trace", big) is None
    report = checks.run_identity(B, "cube-of-trace", Sampler(seed=1, count=50))
    assert not report.passed and drawn == [50]


def test_seeded_view_is_built_once_and_only_when_a_grid_settles(monkeypatch):
    built = []
    real = checks._constants
    monkeypatch.setattr(checks, "_constants", lambda A: built.append(A.family) or real(A))
    # rank 128 over Q at 500 samples: no grid is cheaper than the draws, so no r^2 products
    big = GradedAlgebra(GradedSpec(31, 31, 1), Q)
    assert big.rank == 128
    assert set(checks._views(big, Sampler(count=500), list(checks.ELEMENT_IDENTITIES)[:5]).values()) == {None}
    assert built == []
    # a product that is not bilinear: the suite builds one view, its guard refuses it,
    # and every identity draws on the scalar product
    A = copy.copy(algebras.ColSplitAlgebra(Q, Q.one))
    bilinear = A.mul
    A.mul = lambda x, y: A.neg(bilinear(x, y)) if x.a not in (Q.zero, Q.one) else bilinear(x, y)
    sampler = Sampler(seed=3, count=300)
    reports = checks.run_suite(A, "all-applicable", sampler)
    assert built == ["col_split"]
    assert [r.to_json() for r in reports] == [scalar_report(A, r.identity, sampler).to_json() for r in reports]
    assert not all(r.passed for r in reports)
    # a norm or trace off its form (basis values kept) is refused alike
    for op in ("norm", "trace"):
        B = copy.copy(algebras.ColSplitAlgebra(Q, Q.one))
        setattr(B, op, lambda x, form=getattr(B, op): form(x) if x.a in (Q.zero, Q.one) else Q.add(form(x), Q.one))
        assert not checks._guarded(checks._CoordView(B), B, type(B).sample_coords)


def test_coordinate_view_over_q_and_polynomials_agrees_with_scalar_ops():
    # the ring-op path of the view: what the guard checks on its 32 pairs, here on every op
    for R in (Q, F7T, QT):
        for A in _view_handles(R):
            V = checks._CoordView(A)
            for x, y, t in checks.draws(Sampler(seed=9, count=6), lambda rng: (A.sample(rng), A.sample(rng), R.sample(rng))):
                cx, cy = A.coords(x), A.coords(y)
                assert V.mul(cx, cy) == A.coords(A.mul(x, y))
                assert V.add(cx, cy) == A.coords(A.add(x, y)) and V.sub(cx, cy) == A.coords(A.sub(x, y))
                assert V.smul(t, cx) == A.coords(A.smul(t, x)) and V.norm(cx) == A.norm(x)
                if A.unital:
                    assert V.trace(cx) == A.trace(x) and V.one() == A.coords(A.one())
            assert checks._guarded(V, A, type(A).sample_coords)


class _RecordingView(checks._CoordView):
    """A coordinate view that records the pairs its product is asked for, and is off by one on the pair ``bad``."""

    def __init__(self, A, bad=None):
        super().__init__(A)
        self.pairs, self.bad = [], bad

    def mul(self, x, y):
        self.pairs.append((x, y))
        z = super().mul(x, y)
        return (self.ring.add(z[0], self.ring.one), *z[1:]) if (x, y) == self.bad else z


@pytest.mark.parametrize("R", [rings.IntegersMod(15), Q], ids=["Z15", "Q"])
def test_element_guard_compares_the_pairs_of_its_own_stream(R):
    # the guard compares exactly GUARD_PAIRS pairs, each drawn x then y through the class's draw
    # from SplitMix64(GUARD_SEED); a view off on the last of them alone is refused
    A = algebras.ColSplitAlgebra(R, R.one)
    rng = SplitMix64(checks.GUARD_SEED)
    pairs = [(A.sample_coords(rng), A.sample_coords(rng)) for _ in range(checks.GUARD_PAIRS)]
    assert len(set(pairs)) == checks.GUARD_PAIRS
    V = _RecordingView(A)
    assert checks._guarded(V, A, type(A).sample_coords) is V and V.pairs == pairs
    V = _RecordingView(A, bad=pairs[-1])
    assert checks._guarded(V, A, type(A).sample_coords) is None and V.pairs == pairs


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


# ----- the cross-construction check settled on guarded basis pairs

CROSS_CONSTRUCTION_RINGS = {"F7": F7, "F3": F3, "Z15": rings.IntegersMod(15), "Q": Q}
CROSS_CONSTRUCTION_SAMPLERS = [Sampler(seed=seed, count=count) for seed in (0, 13) for count in (1, 20, 300)]


def drawn_cross_construction(ring, lam, sampler, corrupt_gram=False):
    """The report of the draws alone: every guard refuses, so neither relation settles."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(checks, "_guarded", lambda view, owner, sample: None)
        return checks.cross_construction_check(ring, lam, sampler, corrupt_gram).to_json()


def count_streams(monkeypatch):
    """The draws of each SplitMix64 stream that draws, as ``{id: [stream, state at its first draw, draws]}``."""
    streams = {}
    real = SplitMix64.next_u64

    def counted(self):
        streams.setdefault(id(self), [self, self.state, 0])[2] += 1
        return real(self)

    monkeypatch.setattr(SplitMix64, "next_u64", counted)
    return streams


@pytest.mark.parametrize("ring", list(CROSS_CONSTRUCTION_RINGS))
def test_passing_cross_construction_settles_without_drawing(monkeypatch, ring):
    # the 49 col basis pairs, the 36 w basis pairs and the four guards, each on its own stream, decide a
    # pass: the sampler's stream draws nothing, and the report is the one of the draws
    R = CROSS_CONSTRUCTION_RINGS[ring]
    streams = count_streams(monkeypatch)
    for lam, sampler in product((R.one, R.of_int(2)), CROSS_CONSTRUCTION_SAMPLERS):
        streams.clear()
        report = checks.cross_construction_check(R, lam, sampler).to_json()
        assert report == {
            "identity": "cross-construction", "samples": 49 + 2 * sampler.count, "pass": True, "counterexample": None
        }
        assert [start for _, start, _ in streams.values()] == [checks.GUARD_SEED] * 4
        assert drawn_cross_construction(R, lam, sampler) == report


@pytest.mark.parametrize("ring", list(CROSS_CONSTRUCTION_RINGS))
def test_corrupt_gram_and_exhaustive_cross_construction_report_as_the_draws(monkeypatch, ring):
    # a corrupt Gram fails a col basis pair, reported at once; an exhaustive sampler draws as it always has.
    # Neither builds a coordinate view.
    R = CROSS_CONSTRUCTION_RINGS[ring]
    drawn = {
        (lam, s, corrupt): drawn_cross_construction(R, lam, s, corrupt)
        for lam, s, corrupt in product((R.one, R.of_int(2)), CROSS_CONSTRUCTION_SAMPLERS, (False, True))
    }
    monkeypatch.setattr(checks, "_CoordView", None)
    streams = count_streams(monkeypatch)
    for (lam, s, corrupt), expected in drawn.items():
        if corrupt:
            streams.clear()
            report = checks.cross_construction_check(R, lam, s, corrupt_gram=True).to_json()
            assert report == expected and not streams
            assert not report["pass"] and report["samples"] <= 49
            assert report["counterexample"]["part"] == "col-identification"
        exhaustive = Sampler(seed=s.seed, count=s.count, mode="exhaustive")
        assert checks.cross_construction_check(R, lam, exhaustive, corrupt).to_json() == expected


def _off_the_basis(R):
    """Whether the first coordinate of an element's ``u`` slot is off {0, 1, -1}, the coordinates of the
    basis elements and of their images in the check: a fault planted there spares every basis pair."""
    spared = (R.zero, R.one, R.neg(R.one))

    def wrong(x, y):
        c = x.u[0]
        return (c[0] if isinstance(c, tuple) else c) not in spared

    return wrong


PLANTED_FAMILIES = {
    algebras.ColSplitAlgebra: lambda R, lam: algebras.ColSplitAlgebra(R, lam),
    algebras.ColHermAlgebra: lambda R, lam: algebras.ColHermAlgebra(checks._split_space(R, lam, False)),
    algebras.ZornAlgebra: lambda R, lam: algebras.ZornAlgebra(R, lam),
    algebras.WSplitAlgebra: lambda R, lam: algebras.WSplitAlgebra(R, lam),
}
PLANTED_CASES = [(cls, ring) for cls in PLANTED_FAMILIES for ring in ("F7", "Z15", "Q")]


@pytest.mark.parametrize("cls, ring", PLANTED_CASES, ids=[f"{c.__name__}-{r}" for c, r in PLANTED_CASES])
def test_product_fault_off_the_basis_is_refused_by_its_guard(monkeypatch, cls, ring):
    # a product negated off the basis, as golden cross-construction:rare-w_split-fault plants it: the
    # basis pairs miss it, its algebra's guard refuses, and the report is the draws' failure
    R = CROSS_CONSTRUCTION_RINGS[ring]
    lam, sampler = R.of_int(2), Sampler(seed=13, count=40)
    wrong, real = _off_the_basis(R), cls.mul
    monkeypatch.setattr(cls, "mul", lambda self, x, y: self.neg(real(self, x, y)) if wrong(x, y) else real(self, x, y))
    B = PLANTED_FAMILIES[cls](R, lam)
    assert not checks._guarded(checks._CoordView(B), B, type(B).sample_coords)
    report = checks.cross_construction_check(R, lam, sampler).to_json()
    assert not report["pass"] and report["samples"] > 49
    assert report == drawn_cross_construction(R, lam, sampler)
    monkeypatch.setattr(checks, "_guarded", lambda view, owner, sample: view)  # unguarded, the settlement is blind
    assert checks.cross_construction_check(R, lam, sampler).passed


# the first coordinate of the u slot: e11, e22 come first in zorn
@pytest.mark.parametrize("cls, u", [(algebras.ZornAlgebra, 2), (algebras.WSplitAlgebra, 0)])
@pytest.mark.parametrize("ring", ["F7", "Z15", "Q"])
def test_bilinear_fault_at_a_projection_basis_pair_is_reported_by_the_draws(monkeypatch, cls, u, ring):
    # u2 of a product gains x_u1 y_ud1: the view carries the fault, so the guards pass, but the w basis
    # pairs see it, and the report is the draws' failure
    R = CROSS_CONSTRUCTION_RINGS[ring]
    lam, sampler, real = R.of_int(2), Sampler(seed=13, count=40), cls.mul

    def mul(self, x, y):
        c = list(self.coords(real(self, x, y)))
        c[u + 1] = R.add(c[u + 1], R.mul(self.coords(x)[u], self.coords(y)[u + 3]))
        return self.from_coords(c)

    monkeypatch.setattr(cls, "mul", mul)
    B = PLANTED_FAMILIES[cls](R, lam)
    assert checks._guarded(checks._CoordView(B), B, type(B).sample_coords)
    report = checks.cross_construction_check(R, lam, sampler).to_json()
    assert not report["pass"] and report["samples"] > 49
    assert report == drawn_cross_construction(R, lam, sampler)


def test_cay_zorn_check():
    report = checks.cay_zorn_check(F5)
    assert report.passed
    assert report.samples == 64
    assert checks.cay_zorn_check(Q).passed


def test_report_json_is_stable():
    r = CheckReport("demo", 5, True, None, elapsed_ms=123)
    assert report_json_line(r) == '{"counterexample":null,"identity":"demo","pass":true,"samples":5}'


# ----- fused draws and the int module ops over Z/n


def test_fused_draws_equal_ring_op_draws():
    # over Z/n each residue is next_u64() % n, in the order of the ring's own samples:
    # equal values and an equal final generator state, for every family and both kinds of S
    for A in VIEW_HANDLES:
        R = A.ring
        fused, ring_ops = SplitMix64(17), SplitMix64(17)
        for _ in range(20):
            assert A.sample_coords(fused) == A._draw_to_coords([R.sample(ring_ops) for _ in range(A.rank)])
        P = getattr(A, "space", None)
        if P is not None:
            for _ in range(20):
                assert P.S.sample(fused) == (R.sample(ring_ops), R.sample(ring_ops))
                assert P.sample_vec(fused) == tuple((R.sample(ring_ops), R.sample(ring_ops)) for _ in range(3))
        assert fused.state == ring_ops.state, A.family


def test_coordinate_view_int_ops_equal_ring_ops():
    # the view's plain-int ops over Z/15 and F3 against the same view on its ring's own ops (n = 0)
    for A in [A for A in VIEW_HANDLES if A.ring.n in (3, 15)]:
        V, ring_ops = checks._CoordView(A), checks._CoordView(A)
        ring_ops.n = 0
        rng = SplitMix64(23)
        top = (A.ring.n - 1,) * A.rank
        for x, y, t in [(top, top, A.ring.n - 1)] + [
            (A.sample_coords(rng), A.sample_coords(rng), A.ring.sample(rng)) for _ in range(50)
        ]:
            for op in ("mul", "add", "sub"):
                assert getattr(V, op)(x, y) == getattr(ring_ops, op)(x, y), (A.family, op)
            assert V.smul(t, x) == ring_ops.smul(t, x)
            assert V.norm(x) == ring_ops.norm(x)
            if A.unital:
                assert V.trace(x) == ring_ops.trace(x)


# ----- the seeded cross identities over Z/n on the hermitian space view


def _cross_view_spaces():
    """Hermitian spaces over Z/n: split and Kummer (d = 2) S over F3, F7 and Z/15 with Gram I and a
    twisted Gram, and the trivec tests' spaces over Z/n (dense Grams, alpha != 1, a reassigned alpha)."""
    spaces = {}
    for R in (F3, F7, rings.IntegersMod(15)):
        for S in (etale.SplitTorus(R), etale.KummerExtension(R, R.of_int(2))):
            spaces[f"{S.kind}/{R.n}/I"] = HermitianSpace(S, mat_identity(S), S.one)
            spaces[f"{S.kind}/{R.n}/twisted"] = _twisted_space(S)
    spaces.update({f"trivec:{name}": make() for name, make in SPARSE_CASES.items()})
    return {name: P for name, P in spaces.items() if P.S.n}


CROSS_VIEW_SPACES = _cross_view_spaces()


def space_view(P):
    """The view ``_views`` chooses for the seeded cross identities of P."""
    return checks._views(algebras.WHermAlgebra(P), Sampler(), ["cross-defining"])["cross-defining"]


# the coordinate unit vectors of P: R-coordinate k is component k % 2 of entry k // 2
UNIT_VECTORS = [tuple(tuple(int(divmod(k, 2) == (i, c)) for c in range(2)) for i in range(3)) for k in range(6)]


@pytest.mark.parametrize("name", list(CROSS_VIEW_SPACES))
def test_space_view_h_and_cross_equal_the_space(name):
    P = CROSS_VIEW_SPACES[name]
    V = checks._SpaceView(P)
    assert V.S is P.S and V.alpha is P.alpha
    rng = SplitMix64(277)
    pairs = [*product(UNIT_VECTORS, repeat=2), *[(P.sample_vec(rng), P.sample_vec(rng)) for _ in range(200)]]
    for u, v in pairs:
        assert V.h(u, v) == P.h(u, v)
        assert V.cross(u, v) == P.cross(u, v)
    assert checks._guarded(V, P, type(P).sample_vec)


def test_space_view_source_holds_only_coordinates_and_int_literals():
    allowed = (ast.Expression, ast.Tuple, ast.BinOp, ast.UnaryOp, ast.Add, ast.Sub, ast.Mult, ast.Mod, ast.USub, ast.Load)
    for P in CROSS_VIEW_SPACES.values():
        for source in checks._SpaceView(P).sources.values():
            for node in ast.walk(ast.parse(source, mode="eval")):
                if isinstance(node, ast.Name):
                    assert re.fullmatch("[xy][0-5]", node.id), source
                elif isinstance(node, ast.Constant):
                    assert type(node.value) is int, source
                else:
                    assert isinstance(node, allowed), source


def test_space_view_is_built_over_z_n_only(monkeypatch):
    # over Z/n the suite calls P's own h and cross only for the view's 36 constants and its guard
    calls = {"h": 0, "cross": 0}
    for name in calls:

        def counted(self, u, v, name=name, real=getattr(HermitianSpace, name)):
            calls[name] += 1
            return real(self, u, v)

        monkeypatch.setattr(HermitianSpace, name, counted)
    A = algebras.WHermAlgebra(CROSS_VIEW_SPACES["kummer/15/twisted"])
    assert all(r.passed for r in checks.run_suite(A, "herm-cross", Sampler(seed=3, count=50)))
    assert calls == {"h": 36 + checks.GUARD_PAIRS, "cross": 36 + checks.GUARD_PAIRS}
    S = etale.KummerExtension(Q, Q.of_int(2))
    assert space_view(HermitianSpace(S, mat_identity(S), S.one)) is None


def test_space_guard_refuses_the_golden_rare_cross_spaces():
    # the golden herm-cross:rare-cross cases stay on the scalar path by the guard's verdict, not by luck
    for P in (_RareCross(*_split_f7(), (1, 1)), _RareCross(*_kummer(F7), (1, 0))):
        assert not checks._guarded(checks._SpaceView(P), P, type(P).sample_vec)
        assert space_view(P) is None


class _RareH(HermitianSpace):
    """h plus 1 when u[0][0] = v[1][1] is past 1 (~1 in 10 draws over F7): every basis pair is spared,
    so the view's constants are those of the true h."""

    def h(self, u, v):
        z = HermitianSpace.h(self, u, v)
        return self.S.add(z, self.S.one) if u[0][0] == v[1][1] > 1 else z


def scalar_cross_reports(A, sampler):
    return [checks.run_identity(A, name, sampler, None).to_json() for name in checks.CROSS_IDENTITIES]


def test_space_guard_refuses_a_rare_h_fault(monkeypatch):
    sampler = Sampler(seed=11, count=20)
    for S in (etale.SplitTorus(F7), etale.KummerExtension(F7, 3)):
        P = _RareH(S, mat_identity(S), S.one)
        V = checks._SpaceView(P)
        assert V.sources == checks._SpaceView(HermitianSpace(S, mat_identity(S), S.one)).sources
        assert not checks._guarded(V, P, type(P).sample_vec)
        A = algebras.WHermAlgebra(P)
        scalar = scalar_cross_reports(A, sampler)
        assert not all(r["pass"] for r in scalar)
        assert [r.to_json() for r in checks.run_suite(A, "herm-cross", sampler)] == scalar
        with monkeypatch.context() as m:  # unguarded, the view is blind to the fault
            m.setattr(checks, "_guarded", lambda view, owner, sample: view)
            assert all(r.passed for r in checks.run_suite(A, "herm-cross", sampler))


def _settles(A, name, count):
    """Whether a seeded cross identity at ``count`` samples settles on its grid over A's guarded space view."""
    grid, (inputs, sides) = checks._settling_grid(A, name, count), checks.CROSS_IDENTITIES[name]
    return bool(grid) and not checks._fails(space_view(A.space), sides, *grid, ranks=checks._ranks(A, inputs))


def test_cross_degrees_equal_the_hand_table():
    # h and cross are R-bilinear and mat_det R-trilinear: degrees in each input's R-coordinates
    degrees = {name: checks._degrees(sides, inputs) for name, (inputs, sides) in checks.CROSS_IDENTITIES.items()}
    assert degrees == {
        "cross-defining": [1, 1, 1],
        "cross-orthogonality": [2, 2],
        "cross-semilinearity": [1, 1, 1],
        "cross-trilinear-symmetry": [1, 1, 1],
        "cross-double-left": [2, 1],
        "cross-double-right": [1, 2],
        "cross-flexibility": [2, 1],
    }
    # so over F7 at 300 samples (4 grid points a draw) every law settles, on 147 to 784 points
    A = algebras.WHermAlgebra(CROSS_VIEW_SPACES["split/7/I"])
    sizes = [
        prod(checks._grid_size(7, r, d) for r, d in zip(checks._ranks(A, inputs), checks._degrees(sides, inputs)))
        for inputs, sides in checks.CROSS_IDENTITIES.values()
    ]
    assert (min(sizes), max(sizes)) == (147, 784)
    assert all(checks._settling_grid(A, name, 300) for name in checks.CROSS_IDENTITIES)


def test_seeded_cross_reports_on_the_view_equal_the_scalar_path():
    # every space of CROSS_VIEW_SPACES and bilinear planted faults (an alpha set after validation, h with
    # swapped arguments), at counts where no grid, some grids and every grid fits (300); the scalar path
    # reads A's space alone, so its reports at 300 are computed once for the three families
    swapped = type("SwappedH", (HermitianSpace,), {"h": lambda self, u, v: HermitianSpace.h(self, v, u)})
    faults = [
        _alpha_doubled(etale.SplitTorus(rings.IntegersMod(15))),
        _alpha_doubled(etale.KummerExtension(F7, 3)),
        swapped(*_kummer(F7), (1, 0)),
    ]
    failing = 0
    for P in [*CROSS_VIEW_SPACES.values(), *faults]:
        assert space_view(P) is not None
        families = [cls(P) for cls in (algebras.CayleyAlgebra, algebras.ColHermAlgebra, algebras.WHermAlgebra)]
        for A in families:
            for sampler in (Sampler(seed=5, count=1), Sampler(seed=11, count=60)):
                scalar = scalar_cross_reports(A, sampler)
                assert [r.to_json() for r in checks.run_suite(A, "herm-cross", sampler)] == scalar
                failing += sum(not r["pass"] for r in scalar)
        sampler = Sampler(seed=13, count=300)
        scalar = scalar_cross_reports(families[0], sampler)
        for A in families:
            assert [r.to_json() for r in checks.run_suite(A, "herm-cross", sampler)] == scalar
        # every law that holds settles on its grid; a fault that keeps h and cross bilinear fails there
        settled = [_settles(families[0], name, 300) for name in checks.CROSS_IDENTITIES]
        assert settled == [r["pass"] for r in scalar]
        if any(P is fault for fault in faults):
            assert not all(settled)
        failing += sum(not r["pass"] for r in scalar)
    assert failing


def test_seeded_herm_cross_draws_only_for_identities_the_grid_leaves_open(monkeypatch):
    # the guard draws 12 residues per pair from a stream of its own, first; then one stream per identity
    # its grid does not settle, drawing 6 residues per vector and 2 per scalar up to its verdict, as the
    # scalar path does; a settled identity draws none
    streams = {}
    real = SplitMix64.next_u64

    def counted(self):
        streams.setdefault(id(self), [self, 0])[1] += 1
        return real(self)

    monkeypatch.setattr(SplitMix64, "next_u64", counted)
    fault = _alpha_doubled(etale.KummerExtension(F7, 3))
    for P in (CROSS_VIEW_SPACES["kummer/15/twisted"], CROSS_VIEW_SPACES["split/7/I"], fault):
        A = algebras.CayleyAlgebra(P)
        for count in (1, 40, 300):
            sampler = Sampler(seed=3, count=count)
            settled = [_settles(A, name, count) for name in checks.CROSS_IDENTITIES]
            streams.clear()
            scalar = scalar_cross_reports(A, sampler)
            drawn = [
                r["samples"] * sum(2 if c == "a" else 6 for c in checks.CROSS_IDENTITIES[r["identity"]][0])
                for r in scalar
            ]
            assert [c for _, c in streams.values()] == drawn
            streams.clear()
            assert [r.to_json() for r in checks.run_suite(A, "herm-cross", sampler)] == scalar
            open_ = [d for d, s in zip(drawn, settled) if not s]
            assert [c for _, c in streams.values()] == [12 * checks.GUARD_PAIRS, *open_]
            # at one sample no grid fits; at 40 only the 147 points of cross-semilinearity do; on a sound
            # space at 300 all seven settle
            if count == 1:
                assert not any(settled)
            elif count == 40:
                assert settled == [name == "cross-semilinearity" for name in checks.CROSS_IDENTITIES]
            elif P is not fault:
                assert all(settled)
            else:
                assert not all(settled) and any(settled)


def test_cross_identity_alone_reports_as_in_its_suite():
    # at 30 samples and at 300, where every cross identity on a guarded view takes its grid
    for sampler in (Sampler(seed=7, count=30), Sampler(seed=7, count=300)):
        for P in (
            CROSS_VIEW_SPACES["split/7/twisted"],
            _alpha_doubled(etale.SplitTorus(rings.IntegersMod(15))),
            _RareH(*_split_f7(), (1, 1)),
        ):
            for cls in (algebras.CayleyAlgebra, algebras.ColHermAlgebra):
                A = cls(P)
                suite = [r.to_json() for r in checks.run_suite(A, "all-applicable", sampler)]
                alone = [checks.run_identity(A, r["identity"], sampler).to_json() for r in suite]
                assert alone == suite
                assert [r["identity"] for r in suite][-7:] == list(checks.CROSS_IDENTITIES)
