"""Deterministic identity-verification harness.

Sampling is driven by SplitMix64 (64-bit state s; each draw advances
s += 0x9E3779B97F4A7C15 and mixes z = s; z = (z ^ z>>30) * 0xBF58476D1CE4E5B9;
z = (z ^ z>>27) * 0x94D049BB133111EB; output z ^ z>>31), so streams are
reproducible across implementations from the seed alone.  Every identity in
a suite restarts the generator from the configured seed, which makes reports
independent of suite composition and byte-identical across runs.

All comparisons are exact ring equality; there are no tolerances anywhere.
Exhaustive mode enumerates the coordinate space of an algebra over Z/n (the
only finite rings), gated by an element-count cap (default 3^8).  Every
element identity of every family runs there through one numpy batch kernel
built from the algebra's structure constants (``_BatchView``); the report at
the lowest failing index comes from the scalar identity, so it is the one a
scalar enumeration would give.  numpy is imported by the kernel only.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import product

from .algebras import (
    CayleyAlgebra,
    ColHermElement,
    ColHermAlgebra,
    ColSplitAlgebra,
    WSplitAlgebra,
    WSplitElement,
    ZornAlgebra,
    ZornElement,
)
from .errors import ExhaustiveTooLarge, SuiteNotApplicable
from .etale import SplitTorus
from .rings import Ring
from .trivec import HermitianSpace, det3, vec_add, vec_smul

__all__ = [
    "SplitMix64",
    "Sampler",
    "CheckReport",
    "report_json_line",
    "run_identity",
    "run_suite",
    "sample_stream",
    "suites_for",
    "cross_construction_check",
    "cay_zorn_check",
    "colsplit_mul_batch",
    "SUITES",
    "APPLICABLE",
    "EXHAUSTIVE_CAP",
]

EXHAUSTIVE_CAP = 3 ** 8


class SplitMix64:
    """The fixed 64-bit mixing generator behind every sample stream."""

    MASK = (1 << 64) - 1
    GAMMA = 0x9E3779B97F4A7C15
    MIX1 = 0xBF58476D1CE4E5B9
    MIX2 = 0x94D049BB133111EB

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + self.GAMMA) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * self.MIX1) & self.MASK
        z = ((z ^ (z >> 27)) * self.MIX2) & self.MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n)."""
        return self.next_u64() % n

    def int_between(self, lo: int, hi: int) -> int:
        """Inclusive range draw."""
        return lo + self.below(hi - lo + 1)


@dataclass(frozen=True)
class Sampler:
    seed: int = 0
    mode: str = "seeded"
    count: int = 500
    cap: int = EXHAUSTIVE_CAP

    def __post_init__(self):
        if self.mode not in ("seeded", "exhaustive"):
            raise ValueError(f"unknown sampler mode {self.mode!r}")
        if self.count < 1:
            raise ValueError(f"the sample count must be positive, got {self.count}")

    def rng(self) -> SplitMix64:
        return SplitMix64(self.seed)


@dataclass
class CheckReport:
    identity: str
    samples: int
    passed: bool
    counterexample: dict | None
    elapsed_ms: int = 0

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "samples": self.samples,
            "pass": self.passed,
            "counterexample": self.counterexample,
        }


def report_json_line(report: CheckReport) -> str:
    return json.dumps(report.to_json(), sort_keys=True, separators=(",", ":"))


# ------------------------------------------------------------------ streams


def _exhaustive_size(shape, cap: int) -> int:
    size = shape.size
    if size is None:
        raise ExhaustiveTooLarge(f"{shape.family} over {shape.ring.kind} is not enumerable")
    if size > cap:
        raise ExhaustiveTooLarge(f"{size} elements exceed the cap {cap}")
    return size


def sample_stream(sampler: Sampler, shape):
    """Deterministic element stream for an algebra handle."""
    if sampler.mode == "exhaustive":
        _exhaustive_size(shape, sampler.cap)
        yield from shape.enumerate_elements()
        return
    rng = sampler.rng()
    for _ in range(sampler.count):
        yield shape.sample(rng)


# ------------------------------------------------------------ identities
#
# An element identity is ``sides(A, *xs) -> (lhs, rhs)``, written against
# ``mul``, ``add``, ``sub``, ``smul``, ``norm``, ``trace``, ``one``, ``zero``,
# ``ring.mul`` and ``ring.neg`` only, so the same function runs on an algebra
# handle (seeded mode, and every report) and on its ``_BatchView`` (the
# exhaustive kernel).  ``describe(A, xs, lhs, rhs)`` gives the counterexample
# fields of a failing input.  Cross-product identities draw vectors from the
# ambient hermitian space directly and are sampled-only.


def _flexible(A, x, y):
    return A.mul(A.mul(x, y), x), A.mul(x, A.mul(y, x))


def _jordan(A, x, y):
    x2 = A.mul(x, x)
    return A.mul(A.mul(x, y), x2), A.mul(x, A.mul(y, x2))


def _quadratic(A, x):
    acc = A.add(A.sub(A.mul(x, x), A.smul(A.trace(x), x)), A.smul(A.norm(x), A.one()))
    return acc, A.zero()


def _composition(A, x, y):
    return A.norm(A.mul(x, y)), A.ring.mul(A.norm(x), A.norm(y))


def _anticommutative(A, x, y):
    return A.add(A.mul(x, y), A.mul(y, x)), A.zero()


def _quartic(A, x, v):
    """((x v) v) v = -n(v) (x v) on the rank-6 vector algebras."""
    xv = A.mul(x, v)
    return A.mul(A.mul(xv, v), v), A.smul(A.ring.neg(A.norm(v)), xv)


def _power3(A, x):
    x2 = A.mul(x, x)
    return A.mul(x2, x), A.mul(x, x2)


def _power4(A, x):
    x2 = A.mul(x, x)
    return A.mul(x2, x2), A.mul(A.mul(x2, x), x)


def _sides_json(A, xs, lhs, rhs):
    return {"lhs": A.element_to_json(lhs), "rhs": A.element_to_json(rhs)}


def _residual_json(A, xs, lhs, rhs):
    return {"residual": A.element_to_json(lhs)}


def _norms_json(A, xs, lhs, rhs):
    return {"n(xy)": A.ring.format(lhs), "n(x)n(y)": A.ring.format(rhs)}


def _products_json(A, xs, lhs, rhs):
    x, y = xs
    return {"xy": A.element_to_json(A.mul(x, y)), "yx": A.element_to_json(A.mul(y, x))}


def _x_json(A, xs, lhs, rhs):
    return {"x": A.element_to_json(xs[0])}


# name -> (arity, sides, describe)
ELEMENT_IDENTITIES = {
    "flexible": (2, _flexible, _sides_json),
    "jordan": (2, _jordan, _sides_json),
    "quadratic-relation": (1, _quadratic, _residual_json),
    "norm-composition": (2, _composition, _norms_json),
    "anticommutative": (2, _anticommutative, _products_json),
    "quartic": (2, _quartic, _sides_json),
    "power-associativity-deg3": (1, _power3, _x_json),
    "power-associativity-deg4": (1, _power4, _x_json),
}


# ----- hermitian cross-product identities (space-level, sampled only) -----


def _vec_json(S, u):
    return [S.to_json(c) for c in u]


def _hc_draw(P: HermitianSpace, rng, nvecs, nscalars=0):
    vecs = [P.sample_vec(rng) for _ in range(nvecs)]
    scalars = [P.S.sample(rng) for _ in range(nscalars)]
    return vecs, scalars


def _hc_defining(P, rng):
    S = P.S
    (u, v, w), _ = _hc_draw(P, rng, 3)
    lhs = P.h(P.cross(v, w), u)
    rhs = S.mul(P.alpha, det3(S, u, v, w))
    if lhs != rhs:
        return {"u": _vec_json(S, u), "v": _vec_json(S, v), "w": _vec_json(S, w)}
    return None


def _hc_orthogonality(P, rng):
    S = P.S
    (u, v), _ = _hc_draw(P, rng, 2)
    uv = P.cross(u, v)
    a = P.h(u, uv)
    b = P.h(uv, v)
    c = P.h(uv, u)
    polar = S.add(c, S.conj(c))
    if a != S.zero or b != S.zero or polar != S.zero:
        return {"u": _vec_json(S, u), "v": _vec_json(S, v)}
    return None


def _hc_semilinearity(P, rng):
    S = P.S
    (u, v), (a,) = _hc_draw(P, rng, 2, 1)
    base = vec_smul(S, a, P.cross(u, v))
    left = P.cross(vec_smul(S, S.conj(a), u), v)
    right = P.cross(u, vec_smul(S, S.conj(a), v))
    if base != left or base != right:
        return {"a": S.to_json(a), "u": _vec_json(S, u), "v": _vec_json(S, v)}
    return None


def _hc_trilinear(P, rng):
    S = P.S
    (u, v, w), _ = _hc_draw(P, rng, 3)
    x1 = P.h(u, P.cross(v, w))
    x2 = S.conj(P.h(P.cross(u, v), w))
    x3 = P.h(w, P.cross(u, v))
    if x1 != x2 or x1 != x3:
        return {"u": _vec_json(S, u), "v": _vec_json(S, v), "w": _vec_json(S, w)}
    return None


def _hc_double_left(P, rng):
    """u x (u x v) = -h(u,u) v + h(u,v) u."""
    S = P.S
    (u, v), _ = _hc_draw(P, rng, 2)
    lhs = P.cross(u, P.cross(u, v))
    rhs = vec_add(S, vec_smul(S, S.neg(P.h(u, u)), v), vec_smul(S, P.h(u, v), u))
    if lhs != rhs:
        return {"u": _vec_json(S, u), "v": _vec_json(S, v)}
    return None


def _hc_double_right(P, rng):
    """(u x v) x v = -h(v,v) u + h(v,u) v."""
    S = P.S
    (u, v), _ = _hc_draw(P, rng, 2)
    lhs = P.cross(P.cross(u, v), v)
    rhs = vec_add(S, vec_smul(S, S.neg(P.h(v, v)), u), vec_smul(S, P.h(v, u), v))
    if lhs != rhs:
        return {"u": _vec_json(S, u), "v": _vec_json(S, v)}
    return None


def _hc_flex(P, rng):
    S = P.S
    (u, v), _ = _hc_draw(P, rng, 2)
    if P.cross(P.cross(u, v), u) != P.cross(u, P.cross(v, u)):
        return {"u": _vec_json(S, u), "v": _vec_json(S, v)}
    return None


CROSS_IDENTITIES = {
    "cross-defining": _hc_defining,
    "cross-orthogonality": _hc_orthogonality,
    "cross-semilinearity": _hc_semilinearity,
    "cross-trilinear-symmetry": _hc_trilinear,
    "cross-double-left": _hc_double_left,
    "cross-double-right": _hc_double_right,
    "cross-flexibility": _hc_flex,
}


SUITES = {
    "flexible": ["flexible"],
    "jordan": ["jordan"],
    "quadratic": ["quadratic-relation"],
    "composition": ["norm-composition"],
    "anticommutative": ["anticommutative"],
    "quartic": ["quartic"],
    "power-assoc": ["power-associativity-deg3", "power-associativity-deg4"],
    "herm-cross": list(CROSS_IDENTITIES),
}

APPLICABLE = {
    "col_split": {"flexible", "jordan", "quadratic", "power-assoc"},
    "zorn": {"flexible", "jordan", "quadratic", "power-assoc", "composition"},
    "cay_hermitian": {"flexible", "jordan", "quadratic", "power-assoc", "composition", "herm-cross"},
    "col_hermitian": {"flexible", "jordan", "quadratic", "power-assoc", "herm-cross"},
    "w_split": {"anticommutative", "quartic"},
    "w_hermitian": {"anticommutative", "quartic", "herm-cross"},
    "graded": {"flexible", "jordan", "quadratic", "power-assoc"},
}

_SUITE_ORDER = [
    "flexible",
    "jordan",
    "quadratic",
    "power-assoc",
    "composition",
    "anticommutative",
    "quartic",
    "herm-cross",
]


def suites_for(A) -> list[str]:
    return [s for s in _SUITE_ORDER if s in APPLICABLE[A.family]]


# ------------------------------------------------------------------ drivers


def run_identity(A, identity: str, sampler: Sampler) -> CheckReport:
    """Check one named identity.  Ungated: the caller chooses applicability."""
    t0 = time.perf_counter()
    if identity in CROSS_IDENTITIES:
        report = _run_cross_identity(A, identity, sampler)
    elif identity in ELEMENT_IDENTITIES:
        report = _run_element_identity(A, identity, sampler)
    else:
        raise SuiteNotApplicable(f"unknown identity {identity!r}")
    report.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return report


def _run_cross_identity(A, identity, sampler) -> CheckReport:
    if sampler.mode == "exhaustive":
        raise ExhaustiveTooLarge("cross identities support seeded sampling only")
    space = getattr(A, "space", None)
    if space is None:
        raise SuiteNotApplicable(f"{A.family} has no hermitian space")
    fn = CROSS_IDENTITIES[identity]
    rng = sampler.rng()
    for i in range(sampler.count):
        bad = fn(space, rng)
        if bad is not None:
            bad["index"] = i
            return CheckReport(identity, i + 1, False, bad)
    return CheckReport(identity, sampler.count, True, None)


def _run_element_identity(A, identity, sampler) -> CheckReport:
    arity, sides, _ = ELEMENT_IDENTITIES[identity]
    if sampler.mode == "exhaustive":
        _exhaustive_size(A, sampler.cap)
        return _colsplit_exhaustive_pairs(A, identity)
    rng = sampler.rng()
    for i in range(sampler.count):
        elems = [A.sample(rng) for _ in range(arity)]
        lhs, rhs = sides(A, *elems)
        if lhs != rhs:
            return _failure(A, identity, i, elems)
    return CheckReport(identity, sampler.count, True, None)


def _failure(A, identity, index, elems) -> CheckReport:
    """The report of the lowest failing input, from the scalar identity."""
    _, sides, describe = ELEMENT_IDENTITIES[identity]
    lhs, rhs = sides(A, *elems)
    bad = describe(A, elems, lhs, rhs) if lhs != rhs else {}
    bad["index"] = index
    bad["inputs"] = [A.element_to_json(x) for x in elems]
    return CheckReport(identity, index + 1, False, bad)


# ------------------------------------------------------------ batch kernel
#
# Over Z/n an algebra is fixed by its structure constants: the product
# C[i, j, k] (coordinate k of e_i e_j), the norm as an upper-triangular
# quadratic form and the trace as a linear form, with e_i the coordinate unit
# vectors.  ``_BatchView`` holds them and evaluates the identities on whole
# arrays of coordinate rows, reducing mod n after every step.  Every
# intermediate sum is at most r^2 (n-1)^3 for rank r, so the rows are int64
# when that fits and Python integers (dtype object) when it does not.

_BLOCK = 1024  # rows per arity-1 block (64 KB at rank 8); pairs run y over the whole table


class _BatchView:
    """An algebra over Z/n acting on (rows, rank) coordinate arrays.

    Scalars are (rows, 1) columns, so they broadcast against elements.
    """

    def __init__(self, A):
        import numpy as np

        R, r = A.ring, A.rank
        self.np, self.n, self.rank = np, R.n, r
        self.dtype = np.int64 if r * r * (R.n - 1) ** 3 < 2**63 else object
        e = [A.from_coords([R.one if k == i else R.zero for k in range(r)]) for i in range(r)]
        norms = [A.norm(x) for x in e]
        form = [[0] * r for _ in range(r)]
        for i in range(r):
            form[i][i] = norms[i]
            for j in range(i + 1, r):
                form[i][j] = R.sub(R.sub(A.norm(A.add(e[i], e[j])), norms[i]), norms[j])
        self.C = self.rows([[A.coords(A.mul(x, y)) for y in e] for x in e])
        self.Q = self.rows(form)
        # L_x = x . C[i, :, :] and R_y = C[:, j, :] . y as single matrix products
        self.CL = self.C.reshape(r, r * r)
        self.CR = self.C.transpose(0, 2, 1).reshape(r * r, r)
        self.T = self.rows([[A.trace(x)] for x in e]) if A.unital else None
        self._one = self.rows([A.coords(A.one())]) if A.unital else None
        self._zero = self.rows([[0] * r])
        self.ring = _BatchRing(R.n)

    def rows(self, values):
        return self.np.array(values, dtype=self.dtype)

    def table(self):
        """Every coordinate row, in ``enumerate_elements`` order (coordinate 0 most significant)."""
        n, r = self.n, self.rank
        idx = self.np.arange(n**r)
        out = self.np.empty((n**r, r), dtype=self.dtype)
        for k in range(r):
            out[:, k] = idx // n ** (r - 1 - k) % n
        return out

    def mul(self, X, Y):
        return colsplit_mul_batch(self, X, Y)

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


class _BatchRing:
    """Z/n on (rows, 1) scalar columns."""

    def __init__(self, n):
        self.n = n

    def mul(self, a, b):
        return a * b % self.n

    def neg(self, a):
        return -a % self.n


def colsplit_mul_batch(B: _BatchView, X, Y):
    """Batch product X Y mod n for every family; perfbench's tracer times the kernel under this name."""
    n, r = B.n, B.rank
    if len(X) == 1:  # Y L_x
        return Y @ (X[0] @ B.CL % n).reshape(r, r) % n
    if len(Y) == 1:  # X R_y
        return X @ (B.CR @ Y[0] % n).reshape(r, r) % n
    out = 0
    for i in range(r):
        out = out + X[:, i : i + 1] * (Y @ B.C[i])
    return out % n


def _colsplit_exhaustive_pairs(A, identity: str) -> CheckReport:
    """Exhaustive driver for every family and arity; perfbench's tracer counts kernel runs by this name."""
    arity, sides, _ = ELEMENT_IDENTITIES[identity]
    B = _BatchView(A)
    table = B.table()
    size = len(table)
    block = _BLOCK if arity == 1 else size
    for head, xs in enumerate(product(range(size), repeat=arity - 1)):
        fixed = [table[i : i + 1] for i in xs]
        for start in range(0, size, block):
            lhs, rhs = sides(B, *fixed, table[start : start + block])
            eq = lhs == rhs
            if not eq.all():
                j = start + int(eq.all(-1).argmin())
                elems = [A.from_coords([int(c) for c in table[i]]) for i in (*xs, j)]
                return _failure(A, identity, head * size + j, elems)
    return CheckReport(identity, size**arity, True, None)


def run_suite(A, suite: str, sampler: Sampler) -> list[CheckReport]:
    """Run a named suite (or ``all-applicable``) against an algebra handle."""
    if suite == "all-applicable":
        reports = []
        for s in suites_for(A):
            reports.extend(run_suite(A, s, sampler))
        return reports
    if suite not in SUITES:
        raise SuiteNotApplicable(f"unknown suite {suite!r}")
    if suite not in APPLICABLE[A.family]:
        raise SuiteNotApplicable(f"suite {suite!r} does not apply to {A.family}")
    return [run_identity(A, ident, sampler) for ident in SUITES[suite]]


# --------------------------------------------------- cross-construction


def _split_space(ring: Ring, lam, corrupt_gram: bool) -> HermitianSpace:
    S = SplitTorus(ring)
    z, o = S.zero, S.one
    gram = [[o, z, z], [z, o, z], [z, z, o]]
    alpha = (lam, ring.inv(lam))
    if corrupt_gram:
        gram[2][2] = S.neg(o)
        alpha = (ring.neg(lam), ring.inv(lam))
    return HermitianSpace(S, gram, alpha)


def cross_construction_check(
    ring: Ring, lam, sampler: Sampler, corrupt_gram: bool = False
) -> CheckReport:
    """Coherence of the split constructions.

    (a) The split colour algebra embeds isomorphically into the hermitian
        colour algebra over the split torus with the induced Gram matrix,
        via (a, u, ud) |-> (a, ((-u_i, ud_i))_i).
    (b) Projecting the Zorn multiplication onto the off-diagonal slots
        reproduces the rank-6 vector algebra.

    ``corrupt_gram`` flips one Gram sign (keeping the space valid) so the
    mismatch detector can be exercised.
    """
    t0 = time.perf_counter()
    col = ColSplitAlgebra(ring, lam)
    herm = ColHermAlgebra(_split_space(ring, lam, corrupt_gram))
    zorn = ZornAlgebra(ring, lam)
    w = WSplitAlgebra(ring, lam)

    def iota(x):
        return ColHermElement(x.a, tuple((ring.neg(x.u[i]), x.ud[i]) for i in range(3)))

    checked = 0

    def mismatch(part, x, y):
        return CheckReport(
            "cross-construction",
            checked,
            False,
            {
                "part": part,
                "x": col.element_to_json(x) if part == "col-identification" else w.element_to_json(x),
                "y": col.element_to_json(y) if part == "col-identification" else w.element_to_json(y),
            },
            int((time.perf_counter() - t0) * 1000),
        )

    if iota(col.one()) != herm.one():
        return CheckReport("cross-construction", 1, False, {"part": "unit"}, 0)

    basis = col.basis()
    pairs = [(x, y) for x in basis for y in basis]
    rng = sampler.rng()
    for _ in range(sampler.count):
        pairs.append((col.sample(rng), col.sample(rng)))
    for x, y in pairs:
        checked += 1
        if iota(col.mul(x, y)) != herm.mul(iota(x), iota(y)):
            return mismatch("col-identification", x, y)

    def w_embed(x):
        return ZornElement(ring.zero, x.u, x.ud, ring.zero)

    def w_project(z):
        return WSplitElement(z.u, z.ud)

    rng = sampler.rng()
    for _ in range(sampler.count):
        x, y = w.sample(rng), w.sample(rng)
        checked += 1
        if w_project(zorn.mul(w_embed(x), w_embed(y))) != w.mul(x, y):
            return mismatch("zorn-projection", x, y)

    return CheckReport(
        "cross-construction", checked, True, None, int((time.perf_counter() - t0) * 1000)
    )


def cay_zorn_check(ring: Ring) -> CheckReport:
    """Octonion identification: Cay over the split torus (Gram I, alpha 1)
    matches the Zorn vector-matrix algebra on all 64 basis products via
    (a, u) |-> [[a_1, -u^(1)], [u^(2), a_2]].
    """
    t0 = time.perf_counter()
    S = SplitTorus(ring)
    z, o = S.zero, S.one
    space = HermitianSpace(S, [[o, z, z], [z, o, z], [z, z, o]], S.one)
    cay = CayleyAlgebra(space)
    zorn = ZornAlgebra(ring, ring.one)

    def phi(x):
        u1 = tuple(ring.neg(c[0]) for c in x.u)
        u2 = tuple(c[1] for c in x.u)
        return ZornElement(x.a[0], u1, u2, x.a[1])

    checked = 0
    if phi(cay.one()) != zorn.one():
        return CheckReport("cay-zorn-identification", 1, False, {"part": "unit"}, 0)
    basis = cay.basis()
    for x in basis:
        for y in basis:
            checked += 1
            if phi(cay.mul(x, y)) != zorn.mul(phi(x), phi(y)):
                return CheckReport(
                    "cay-zorn-identification",
                    checked,
                    False,
                    {"x": cay.element_to_json(x), "y": cay.element_to_json(y)},
                    int((time.perf_counter() - t0) * 1000),
                )
        if zorn.norm(phi(x)) != cay.norm(x):
            return CheckReport(
                "cay-zorn-identification",
                checked,
                False,
                {"part": "norm", "x": cay.element_to_json(x)},
                int((time.perf_counter() - t0) * 1000),
            )
    return CheckReport(
        "cay-zorn-identification", checked, True, None, int((time.perf_counter() - t0) * 1000)
    )
