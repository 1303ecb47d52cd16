"""Deterministic identity-verification harness.

Sampling is driven by SplitMix64 (64-bit state s; each draw advances
s += 0x9E3779B97F4A7C15 and mixes z = s; z = (z ^ z>>30) * 0xBF58476D1CE4E5B9;
z = (z ^ z>>27) * 0x94D049BB133111EB; output z ^ z>>31), so streams are
reproducible across implementations from the seed alone.  Every identity in
a suite restarts the generator from the configured seed, which makes reports
independent of suite composition and byte-identical across runs.

All comparisons are exact ring equality; there are no tolerances anywhere.
Every law is a ``sides`` function returning the two sides it equates (a
multi-part law compares tuples), and every sampled or basis-pair verdict goes
through ``first_failure``: the cases in order, and the report of the first
that fails, with ``samples`` counting the cases checked.
Exhaustive mode enumerates the coordinate space of an algebra over Z/n (the
only finite rings), gated by a fixed element-count cap.  Every element
identity of every family runs there on the algebra's structure constants,
one coordinate tuple at a time (``_CoordView``); the report at the lowest
failing index comes from the scalar identity, so it is the one a scalar
enumeration would give.  Seeded element identities over Z/n run on
``_CoordView`` too.  So over Z/n the seeded and exhaustive verdicts
both hold for the bilinear algebra fixed by the basis products, and every
report comes from the scalar identity.

Every checked law is a polynomial in the coordinates of its arguments over
Z/n, of degree at most d in each argument (the bound comes from running the
identity on ``_Degree``).  With q the least prime factor of n, the grid
L(d) = {a in N^r : |a| <= d, every a_i <= min(d, q - 1)} of coordinate rows
settles such a law when n is prime (reduced with x^p = x the monomials keep
their degree, and L(d) is unisolvent for them) or when d < q (every node
difference 1..d is a unit): a polynomial of degree at most d vanishing on
L(d) vanishes on all of (Z/n)^r, by Newton interpolation on lower sets
(Dyn and Floater, "Multivariate polynomial interpolation on lower sets",
J. Approx. Theory 177, 2014), one argument after the other.  So an
exhaustive identity first runs on the product of its arguments' grids; if
every point agrees it passes.  Otherwise the lowest failing input is found
by descent: its coordinates are fixed one at a time in enumeration order
(x's coordinate 0 first, y last), each to the least c for which the law
still disagrees somewhere on the grid of the coordinates left.  Fixing
coordinates keeps each argument's degree at most d, so every step is settled
by the same grid, and a search costs at most n * arity * rank grid passes.
The fixed digits, read in base n, are the failing index; ``samples`` counts
the inputs the verdict covers: every input on a pass, the inputs up to the
failing one on a fail.  The cap admits only algebras over Z/3 (rank 6 to 8),
where every grid exists.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from itertools import chain, product
from operator import eq, mul

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
    "first_failure",
    "draws",
    "pair_json",
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


def first_failure(name, cases, holds, describe, done=0) -> CheckReport:
    """Check ``holds(case)`` on each case in order; report the first that fails.

    ``describe(index, case)`` gives the counterexample of a failing case, and
    ``samples`` counts the cases checked on top of ``done`` checked before.
    """
    checked = done
    for index, case in enumerate(cases):
        checked += 1
        if not holds(case):
            return CheckReport(name, checked, False, describe(index, case))
    return CheckReport(name, checked, True, None)


def pair_json(A, x, y, **fields) -> dict:
    """The counterexample fields of a failing pair of elements of A."""
    return {"x": A.element_to_json(x), "y": A.element_to_json(y), **fields}


# ------------------------------------------------------------------ streams


def _require_enumerable(shape) -> None:
    size = shape.size
    if size is None:
        raise ExhaustiveTooLarge(f"{shape.family} over {shape.ring.kind} is not enumerable")
    if size > EXHAUSTIVE_CAP:
        raise ExhaustiveTooLarge(f"{size} elements exceed the cap {EXHAUSTIVE_CAP}")


def draws(sampler: Sampler, draw):
    """``sampler.count`` cases ``draw(rng)``, drawn lazily from a generator restarted at the seed."""
    rng = sampler.rng()
    return (draw(rng) for _ in range(sampler.count))


def sample_stream(sampler: Sampler, shape):
    """Deterministic element stream for an algebra handle."""
    if sampler.mode == "exhaustive":
        _require_enumerable(shape)
        yield from shape.enumerate_elements()
        return
    yield from draws(sampler, shape.sample)


# ------------------------------------------------------------ identities
#
# An element identity is ``sides(A, *xs) -> (lhs, rhs)``, written against
# ``mul``, ``add``, ``sub``, ``smul``, ``norm``, ``trace``, ``one``, ``zero``,
# ``ring.mul`` and ``ring.neg`` only, so the same function runs on an algebra
# handle (every report, and seeded mode off Z/n) and on its ``_CoordView``
# (over Z/n, seeded and exhaustive).  ``describe(A, xs, lhs, rhs)`` gives the
# counterexample fields of a failing input.  A cross-product identity is
# ``sides(P, *inputs)`` on the ambient hermitian space, sampled only.


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


def _cross_defining(P, u, v, w):
    """h(v x w, u) = alpha det(u | v | w)."""
    return P.h(P.cross(v, w), u), P.S.mul(P.alpha, det3(P.S, u, v, w))


def _cross_orthogonality(P, u, v):
    """h(u, u x v) = h(u x v, v) = 0, and h(u x v, u) + conj h(u x v, u) = 0."""
    S = P.S
    uv = P.cross(u, v)
    a, b, c = P.h(u, uv), P.h(uv, v), P.h(uv, u)
    return (a, b, S.add(c, S.conj(c))), (S.zero, S.zero, S.zero)


def _cross_semilinearity(P, u, v, a):
    """a (u x v) = (conj(a) u) x v = u x (conj(a) v)."""
    S = P.S
    base = vec_smul(S, a, P.cross(u, v))
    ca = S.conj(a)
    return (base, base), (P.cross(vec_smul(S, ca, u), v), P.cross(u, vec_smul(S, ca, v)))


def _cross_trilinear(P, u, v, w):
    """h(u, v x w) = conj h(u x v, w) = h(w, u x v)."""
    uv = P.cross(u, v)
    x = P.h(u, P.cross(v, w))
    return (x, x), (P.S.conj(P.h(uv, w)), P.h(w, uv))


def _cross_double_left(P, u, v):
    """u x (u x v) = -h(u,u) v + h(u,v) u."""
    S = P.S
    return P.cross(u, P.cross(u, v)), vec_add(S, vec_smul(S, S.neg(P.h(u, u)), v), vec_smul(S, P.h(u, v), u))


def _cross_double_right(P, u, v):
    """(u x v) x v = -h(v,v) u + h(v,u) v."""
    S = P.S
    return P.cross(P.cross(u, v), v), vec_add(S, vec_smul(S, S.neg(P.h(v, v)), u), vec_smul(S, P.h(v, u), v))


def _cross_flexibility(P, u, v):
    return P.cross(P.cross(u, v), u), P.cross(u, P.cross(v, u))


# name -> (inputs, sides): one draw per input letter, vectors of P first and
# the S scalar ``a`` last; a counterexample names each input by its letter
CROSS_IDENTITIES = {
    "cross-defining": ("uvw", _cross_defining),
    "cross-orthogonality": ("uv", _cross_orthogonality),
    "cross-semilinearity": ("uva", _cross_semilinearity),
    "cross-trilinear-symmetry": ("uvw", _cross_trilinear),
    "cross-double-left": ("uv", _cross_double_left),
    "cross-double-right": ("uv", _cross_double_right),
    "cross-flexibility": ("uv", _cross_flexibility),
}


# in run order
SUITES = {
    "flexible": ["flexible"],
    "jordan": ["jordan"],
    "quadratic": ["quadratic-relation"],
    "power-assoc": ["power-associativity-deg3", "power-associativity-deg4"],
    "composition": ["norm-composition"],
    "anticommutative": ["anticommutative"],
    "quartic": ["quartic"],
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


def suites_for(A) -> list[str]:
    return [s for s in SUITES if s in APPLICABLE[A.family]]


# ------------------------------------------------------------------ drivers


def run_identity(A, identity: str, sampler: Sampler, view=None) -> CheckReport:
    """Check one named identity.  Ungated: the caller chooses applicability.
    ``view``: A's ``_CoordView`` shared by the caller, else built when needed."""
    t0 = time.perf_counter()
    if identity in CROSS_IDENTITIES:
        report = _run_cross_identity(A, identity, sampler)
    elif identity in ELEMENT_IDENTITIES:
        report = _run_element_identity(A, identity, sampler, view or _coord_view(A, sampler))
    else:
        raise SuiteNotApplicable(f"unknown identity {identity!r}")
    report.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return report


def _run_cross_identity(A, identity, sampler) -> CheckReport:
    if sampler.mode == "exhaustive":
        raise ExhaustiveTooLarge("cross identities support seeded sampling only")
    P = getattr(A, "space", None)
    if P is None:
        raise SuiteNotApplicable(f"{A.family} has no hermitian space")
    inputs, sides = CROSS_IDENTITIES[identity]
    S = P.S

    def draw(rng):
        return [S.sample(rng) if name == "a" else P.sample_vec(rng) for name in inputs]

    def describe(index, xs):
        bad = {n: S.to_json(x) if n == "a" else [S.to_json(c) for c in x] for n, x in zip(inputs, xs)}
        bad["index"] = index
        return bad

    return first_failure(identity, draws(sampler, draw), lambda xs: eq(*sides(P, *xs)), describe)


def _run_element_identity(A, identity, sampler, view) -> CheckReport:
    arity, sides, _ = ELEMENT_IDENTITIES[identity]
    if sampler.mode == "exhaustive":
        _require_enumerable(A)
        return _colsplit_exhaustive_pairs(A, identity)
    cases = draws(sampler, lambda rng: [A.sample(rng) for _ in range(arity)])
    if view is None:
        holds = lambda xs: eq(*sides(A, *xs))  # noqa: E731
    else:
        holds = lambda xs: eq(*sides(view, *map(A.coords, xs)))  # noqa: E731
    return first_failure(identity, cases, holds, lambda index, xs: _failure(A, identity, index, xs))


def _coord_view(A, sampler):
    """A's coordinate view when its seeded element identities run on one (over Z/n), else None."""
    return _CoordView(A) if sampler.mode == "seeded" and isinstance(A.ring, IntegersMod) else None


def _failure(A, identity, index, elems) -> dict:
    """The counterexample of the lowest failing input, from the scalar identity."""
    _, sides, describe = ELEMENT_IDENTITIES[identity]
    lhs, rhs = sides(A, *elems)
    bad = describe(A, elems, lhs, rhs) if lhs != rhs else {}
    bad["index"] = index
    bad["inputs"] = [A.element_to_json(x) for x in elems]
    return bad


# ------------------------------------------------------- structure constants
#
# Over Z/n an algebra is fixed by its structure constants: the product
# C[i, j, k] (coordinate k of e_i e_j), the norm as an upper-triangular
# quadratic form and the trace as a linear form, with e_i the coordinate unit
# vectors.  ``_constants`` computes them from r^2 products and r(r+1)/2 norms,
# and ``_CoordView`` evaluates the identities on coordinate tuples with them.


def _constants(A):
    """C, the norm form, the trace form and the unit's coordinates (None without a unit), as plain ints."""
    R, r = A.ring, A.rank
    e = [A.from_coords([R.one if k == i else R.zero for k in range(r)]) for i in range(r)]
    norms = [A.norm(x) for x in e]

    def polar(i, j):
        return R.sub(R.sub(A.norm(A.add(e[i], e[j])), norms[i]), norms[j])

    form = [[0] * i + [norms[i]] + [polar(i, j) for j in range(i + 1, r)] for i in range(r)]
    C = [[A.coords(A.mul(x, y)) for y in e] for x in e]
    if not A.unital:
        return C, form, None, None
    return C, form, [A.trace(x) for x in e], A.coords(A.one())


class _CoordView:
    """An algebra over Z/n on coordinate tuples of plain ints, each output coordinate reduced once.
    Product row i lists (j, k, C[i][j][k]) for each nonzero structure constant."""

    def __init__(self, A):
        C, form, self._trace, self._one = _constants(A)
        self.n, self.ring, self._zero = A.ring.n, _BatchRing(A.ring.n), (0,) * A.rank
        self._C = [[(j, k, c) for j, p in enumerate(row) for k, c in enumerate(p) if c] for row in C]
        self._Q = [(i, j, q) for i, row in enumerate(form) for j, q in enumerate(row) if q]

    def mul(self, x, y):
        out = [0] * len(x)
        for xi, row in zip(x, self._C):
            if xi:
                for j, k, c in row:
                    out[k] += xi * y[j] * c
        n = self.n
        return tuple([v % n for v in out])

    def add(self, x, y):
        return tuple([(a + b) % self.n for a, b in zip(x, y)])

    def sub(self, x, y):
        return tuple([(a - b) % self.n for a, b in zip(x, y)])

    def smul(self, t, x):
        return tuple([t * a % self.n for a in x])

    def norm(self, x):
        return sum([q * x[i] * x[j] for i, j, q in self._Q]) % self.n

    def trace(self, x):
        return sum(map(mul, self._trace, x)) % self.n

    def one(self):
        return self._one

    def zero(self):
        return self._zero


class _BatchRing:
    """Z/n on plain ints; the tests' reference view runs it on arrays too."""

    def __init__(self, n):
        self.n = n

    def mul(self, a, b):
        return a * b % self.n

    def neg(self, a):
        return -a % self.n


def colsplit_mul_batch(B: _BatchView, X, Y):
    """The tests' reference product: X Y mod n on numpy coordinate arrays of their ``_BatchView``.

    No code in colouralg calls it.  It stays here, under this name, because
    perfbench's tracer times it as its kernel layer.
    """
    n, r = B.n, B.rank
    if len(X) == 1:  # Y L_x
        return Y @ (X[0] @ B.CL % n).reshape(r, r) % n
    if len(Y) == 1:  # X R_y
        return X @ (B.CR @ Y[0] % n).reshape(r, r) % n
    out = 0
    for i in range(r):
        out = out + X[:, i : i + 1] * (Y @ B.C[i])
    return out % n


class _Degree:
    """Upper bounds on degrees in one argument, through the ``sides`` protocol.

    Each value bounds the degree of a coordinate polynomial of an element or
    scalar in that argument's coordinates; the other arguments and the
    constants have degree 0.
    """

    def __init__(self):
        self.ring = self  # ring.mul and ring.neg act on scalar degrees alike

    def mul(self, a, b):
        return a + b

    def add(self, a, b):
        return max(a, b)

    sub = add

    def smul(self, t, a):
        return t + a

    def norm(self, a):
        return 2 * a

    def trace(self, a):
        return a

    def neg(self, a):
        return a

    def one(self):
        return 0

    def zero(self):
        return 0


def _degrees(sides, arity) -> list[int]:
    """Upper bounds on the degree of an identity in each of its arguments."""
    return [max(sides(_Degree(), *[int(k == m) for k in range(arity)])) for m in range(arity)]


def _grid(n, r, d):
    """L(d) over Z/n as coordinate rows, or None where it does not settle degree d (module docstring)."""
    q = next(p for p in range(2, n + 1) if n % p == 0)
    if q <= d and q < n:
        return None
    top, rows = min(d, q - 1), [()]
    for _ in range(r):
        rows = [a + (c,) for a in rows for c in range(min(top, d - sum(a)) + 1)]
    return rows


def _colsplit_exhaustive_pairs(A, identity: str) -> CheckReport:
    """Exhaustive driver for every family and arity: a grid pass, then a descent (module docstring).
    perfbench's tracer counts its calls by this name."""
    arity, sides, _ = ELEMENT_IDENTITIES[identity]
    n, r = A.ring.n, A.rank
    V, degrees = _CoordView(A), _degrees(sides, arity)

    def fails(prefix):
        """Whether the law disagrees at some input whose leading coordinates are ``prefix``."""
        heads = [prefix[m * r : (m + 1) * r] for m in range(arity)]
        grids = [[h + t for t in _grid(n, r - len(h), d)] for h, d in zip(heads, degrees)]
        return not all(eq(*sides(V, *xs)) for xs in product(*grids))

    if not fails(()):
        return CheckReport(identity, n ** (arity * r), True, None)
    prefix, index = (), 0
    for _ in range(arity * r):
        c = next(c for c in range(n) if fails(prefix + (c,)))
        prefix, index = prefix + (c,), index * n + c
    elems = [A.from_coords(prefix[m * r : (m + 1) * r]) for m in range(arity)]
    return CheckReport(identity, index + 1, False, _failure(A, identity, index, elems))


def run_suite(A, suite: str, sampler: Sampler) -> list[CheckReport]:
    """Run a named suite (or ``all-applicable``) against an algebra handle."""
    if suite == "all-applicable":
        names = [name for s in suites_for(A) for name in SUITES[s]]
    elif suite not in SUITES:
        raise SuiteNotApplicable(f"unknown suite {suite!r}")
    elif suite not in APPLICABLE[A.family]:
        raise SuiteNotApplicable(f"suite {suite!r} does not apply to {A.family}")
    else:
        names = SUITES[suite]
    if sampler.mode == "exhaustive" and any(name in CROSS_IDENTITIES for name in names):
        # fail before any work, with the error the first identity to run would raise
        if names[0] in ELEMENT_IDENTITIES:
            _require_enumerable(A)
        raise ExhaustiveTooLarge("cross identities support seeded sampling only")
    view = _coord_view(A, sampler) if any(name in ELEMENT_IDENTITIES for name in names) else None
    return [run_identity(A, name, sampler, view) for name in names]


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
        via (a, u, ud) |-> (a, ((-u_i, ud_i))_i), on every basis pair and
        the sampled pairs.
    (b) Projecting the Zorn multiplication onto the off-diagonal slots
        reproduces the rank-6 vector algebra, on sampled pairs.

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

    def w_embed(x):
        return ZornElement(ring.zero, x.u, x.ud, ring.zero)

    def col_embeds(pair):
        x, y = pair
        return iota(col.mul(x, y)) == herm.mul(iota(x), iota(y))

    def zorn_projects(pair):
        x, y = pair
        z = zorn.mul(w_embed(x), w_embed(y))
        return WSplitElement(z.u, z.ud) == w.mul(x, y)

    if iota(col.one()) != herm.one():
        return CheckReport("cross-construction", 1, False, {"part": "unit"}, 0)
    pairs = chain(product(col.basis(), repeat=2), draws(sampler, lambda rng: (col.sample(rng), col.sample(rng))))
    report = first_failure(
        "cross-construction", pairs, col_embeds, lambda i, p: pair_json(col, *p, part="col-identification")
    )
    if report.passed:
        report = first_failure(
            "cross-construction",
            draws(sampler, lambda rng: (w.sample(rng), w.sample(rng))),
            zorn_projects,
            lambda i, p: pair_json(w, *p, part="zorn-projection"),
            report.samples,
        )
    report.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return report


def cay_zorn_check(ring: Ring) -> CheckReport:
    """Octonion identification: Cay over the split torus (Gram I, alpha 1)
    matches the Zorn vector-matrix algebra on all 64 basis products via
    (a, u) |-> [[a_1, -u^(1)], [u^(2), a_2]], and the norm of each basis
    element x agrees, compared at x's last pair after its product.
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

    if phi(cay.one()) != zorn.one():
        return CheckReport("cay-zorn-identification", 1, False, {"part": "unit"}, 0)
    basis = cay.basis()

    def multiplies(x, y):
        return phi(cay.mul(x, y)) == zorn.mul(phi(x), phi(y))

    def holds(pair):
        x, y = pair
        return multiplies(x, y) and (y is not basis[-1] or zorn.norm(phi(x)) == cay.norm(x))

    def describe(index, pair):
        x, y = pair
        return pair_json(cay, x, y) if not multiplies(x, y) else {"part": "norm", "x": cay.element_to_json(x)}

    report = first_failure("cay-zorn-identification", product(basis, repeat=2), holds, describe)
    report.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return report
