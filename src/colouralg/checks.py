"""Deterministic identity-verification harness.

Sampling is driven by SplitMix64 (64-bit state s; each draw advances
s += 0x9E3779B97F4A7C15 and mixes z = s; z = (z ^ z>>30) * 0xBF58476D1CE4E5B9;
z = (z ^ z>>27) * 0x94D049BB133111EB; output z ^ z>>31), so streams are
reproducible across implementations from the seed alone.  Every identity in
a suite restarts the generator from the configured seed, which makes reports
independent of suite composition and byte-identical across runs.

All comparisons are exact ring equality; there are no tolerances anywhere.
Exhaustive mode enumerates coordinate space and is gated by an element-count
cap (default 3^8); pairwise exhaustive runs over the split colour algebra on
a modular ring use a vectorized numpy kernel.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

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
from .rings import IntegersMod, Ring
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
# Element identities carry an arity and receive sampled (or enumerated)
# algebra elements.  Cross-product identities draw vectors from the ambient
# hermitian space directly and are sampled-only.


def _lin_comb_json(A, elems):
    return [A.element_to_json(x) for x in elems]


def _flexible(A, x, y):
    lhs = A.mul(A.mul(x, y), x)
    rhs = A.mul(x, A.mul(y, x))
    if lhs != rhs:
        return {"lhs": A.element_to_json(lhs), "rhs": A.element_to_json(rhs)}
    return None


def _jordan(A, x, y):
    x2 = A.mul(x, x)
    lhs = A.mul(A.mul(x, y), x2)
    rhs = A.mul(x, A.mul(y, x2))
    if lhs != rhs:
        return {"lhs": A.element_to_json(lhs), "rhs": A.element_to_json(rhs)}
    return None


def _quadratic(A, x):
    n, t = A.norm_trace(x)
    acc = A.add(A.sub(A.mul(x, x), A.smul(t, x)), A.smul(n, A.one()))
    if acc != A.zero():
        return {"residual": A.element_to_json(acc)}
    return None


def _composition(A, x, y):
    R = A.ring
    lhs = A.norm(A.mul(x, y))
    rhs = R.mul(A.norm(x), A.norm(y))
    if lhs != rhs:
        return {"n(xy)": R.format(lhs), "n(x)n(y)": R.format(rhs)}
    return None


def _anticommutative(A, x, y):
    if A.add(A.mul(x, y), A.mul(y, x)) != A.zero():
        return {"xy": A.element_to_json(A.mul(x, y)), "yx": A.element_to_json(A.mul(y, x))}
    return None


def _quartic(A, x, v):
    """((x v) v) v = -n(v) (x v) on the rank-6 vector algebras."""
    xv = A.mul(x, v)
    lhs = A.mul(A.mul(xv, v), v)
    rhs = A.smul(A.ring.neg(A.norm(v)), xv)
    if lhs != rhs:
        return {"lhs": A.element_to_json(lhs), "rhs": A.element_to_json(rhs)}
    return None


def _power3(A, x):
    x2 = A.mul(x, x)
    if A.mul(x2, x) != A.mul(x, x2):
        return {"x": A.element_to_json(x)}
    return None


def _power4(A, x):
    x2 = A.mul(x, x)
    if A.mul(x2, x2) != A.mul(A.mul(x2, x), x):
        return {"x": A.element_to_json(x)}
    return None


ELEMENT_IDENTITIES = {
    "flexible": (2, _flexible),
    "jordan": (2, _jordan),
    "quadratic-relation": (1, _quadratic),
    "norm-composition": (2, _composition),
    "anticommutative": (2, _anticommutative),
    "quartic": (2, _quartic),
    "power-associativity-deg3": (1, _power3),
    "power-associativity-deg4": (1, _power4),
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
    arity, fn = ELEMENT_IDENTITIES[identity]
    if sampler.mode == "exhaustive":
        return _run_exhaustive(A, identity, arity, fn, sampler)
    rng = sampler.rng()
    for i in range(sampler.count):
        elems = [A.sample(rng) for _ in range(arity)]
        bad = fn(A, *elems)
        if bad is not None:
            bad["index"] = i
            bad["inputs"] = _lin_comb_json(A, elems)
            return CheckReport(identity, i + 1, False, bad)
    return CheckReport(identity, sampler.count, True, None)


def _run_exhaustive(A, identity, arity, fn, sampler) -> CheckReport:
    size = _exhaustive_size(A, sampler.cap)
    if (
        identity in ("flexible", "jordan")
        and isinstance(A, ColSplitAlgebra)
        and isinstance(A.ring, IntegersMod)
    ):
        return _colsplit_exhaustive_pairs(A, identity)
    if arity == 1:
        for i, x in enumerate(A.enumerate_elements()):
            bad = fn(A, x)
            if bad is not None:
                bad["index"] = i
                bad["inputs"] = _lin_comb_json(A, [x])
                return CheckReport(identity, i + 1, False, bad)
        return CheckReport(identity, size, True, None)
    elems = list(A.enumerate_elements())
    checked = 0
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            checked += 1
            bad = fn(A, x, y)
            if bad is not None:
                bad["index"] = i * size + j
                bad["inputs"] = _lin_comb_json(A, [x, y])
                return CheckReport(identity, checked, False, bad)
    return CheckReport(identity, checked, True, None)


def colsplit_mul_batch(A: ColSplitAlgebra, X, Y):
    """Vectorized split-colour product on (..., 7) coordinate arrays over Z/p.

    Coordinate order matches ``ColSplitAlgebra.coords``: (a, u1..u3, v1..v3).
    """
    p = A.ring.n
    lam = A.lam % p
    lam_inv = pow(lam, -1, p)
    half = pow(2, -1, p)
    xa, xu, xd = X[..., 0], X[..., 1:4], X[..., 4:7]
    ya, yu, yd = Y[..., 0], Y[..., 1:4], Y[..., 4:7]
    diag = (xa * ya + half * ((xu * yd).sum(-1) + (yu * xd).sum(-1))) % p
    t = (xa[..., None] * yu + ya[..., None] * xu - lam_inv * np.cross(xd, yd)) % p
    d = (ya[..., None] * xd + xa[..., None] * yd + lam * np.cross(xu, yu)) % p
    return np.concatenate([diag[..., None], t, d], axis=-1)


def _colsplit_exhaustive_pairs(A: ColSplitAlgebra, identity: str) -> CheckReport:
    """All-pairs flexible/Jordan check over Z/p via the batch kernel.

    The kernel is cross-validated against the scalar multiplication in the
    test suite; x varies in an outer loop while y runs vectorized.
    """
    p = A.ring.n
    size = p ** 7
    idx = np.arange(size, dtype=np.int64)
    tab = np.empty((size, 7), dtype=np.int64)
    for k in range(7):
        tab[:, k] = (idx // p ** k) % p

    for i in range(size):
        x = tab[i : i + 1]
        xy = colsplit_mul_batch(A, x, tab)
        if identity == "flexible":
            lhs = colsplit_mul_batch(A, xy, x)
            rhs = colsplit_mul_batch(A, x, colsplit_mul_batch(A, tab, x))
        else:  # jordan
            x2 = colsplit_mul_batch(A, x, x)
            lhs = colsplit_mul_batch(A, xy, x2)
            rhs = colsplit_mul_batch(A, x, colsplit_mul_batch(A, tab, x2))
        eq = (lhs == rhs).all(-1)
        if not eq.all():
            j = int(np.nonzero(~eq)[0][0])
            xe = A.from_coords([int(c) for c in tab[i]])
            ye = A.from_coords([int(c) for c in tab[j]])
            return CheckReport(
                identity,
                i * size + j + 1,
                False,
                {"index": i * size + j, "inputs": _lin_comb_json(A, [xe, ye])},
            )
    return CheckReport(identity, size * size, True, None)


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
