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
Exhaustive mode decides an identity on every input over Z/n (the only finite
rings), before any work refused past a fixed bound on the evaluations it may
take.  Every element identity of every family runs there on the algebra's
structure constants, one coordinate tuple at a time (``_CoordView``); the
report at the lowest failing index comes from the scalar identity, so it is
the one a scalar enumeration would give.

The seeded cross identities over Z/n run on a view of the hermitian space
(``_SpaceView``): its own S and alpha, with ``h`` and ``cross`` compiled to
straight-line int functions from their values on the 36 pairs of coordinate
unit vectors, as both maps are R-bilinear.  Off Z/n the cross identities
always take the scalar path.

One chooser, ``_views``, picks a call's views before any work, and one draw
loop, ``_run``, runs every seeded identity: over Z/n it feeds the draws'
coordinate tuples (``Algebra.sample_coords``, or the space's vectors) to the
view, elsewhere the drawn elements to the handle.  So over Z/n the seeded
and exhaustive verdicts both hold for the bilinear algebra fixed by the
basis products, and every report comes from the scalar identity.  Before a
seeded call uses a view, ``_guarded`` checks that it ``agrees`` with the
scalar ops (product, norm and trace of the algebra; h and cross of the
space) on ``GUARD_PAIRS`` pairs drawn from a SplitMix64 stream of their own
(``GUARD_SEED``), so no identity's stream moves; if one pair disagrees, as a
``mul`` that is not bilinear or a cross product off by one on a rare input
makes it, the call runs scalar draws.  Draws and reports are those of the
scalar path either way, and on the view an identity may settle on its grid
without drawing (below).

Every checked law is the reduction mod n of an integer polynomial in the
coordinates of its arguments, of degree at most d in each argument (the
bound comes from running the identity on ``_Degree``).  Write mu(n) for the
least m with n | m!.  Over Z such a polynomial is the sum of
c_a C(x_1, a_1) ... C(x_r, a_r) over |a| <= d, where c_a is its forward
difference at 0, an integer combination of its values at the rows b <= a,
and a_1! ... a_r! divides c_a; a term with some a_i >= mu(n) vanishes mod n.
So the lower set L(d) = {a in N^r : |a| <= d, every a_i <= min(d, mu(n) - 1)}
of coordinate rows settles the law over every Z/n: if it vanishes at every
row of L(d) all its c_a vanish mod n, and it vanishes on all of (Z/n)^r,
one argument after the other.  An exhaustive identity first runs on the
product of its arguments' grids; if every point agrees it passes.  Otherwise
the lowest failing input is found by descent: its coordinates are fixed one
at a time in enumeration order (x's coordinate 0 first, y last), each to the
least c for which the law still disagrees somewhere on the grid of the
coordinates left.  Fixing coordinates keeps each argument's degree at most
d, so every step is settled by the same grids, and the least c is at most
min(d, mu(n) - 1), since some failing row of the grid has it.  So an
identity costs at most (1 + sum_m r (min(d_m, mu(n) - 1) + 1)) prod_m |L(d_m)|
evaluations for rank r and argument degrees d_m, whatever n is, and that
estimate is what ``EXHAUSTIVE_WORK`` bounds.  The fixed digits, read in base
n, are the failing index; ``samples`` counts the inputs the verdict covers:
every input on a pass, the inputs up to the failing one on a fail.  One grid
pass, ``_fails``, serves this pass, every step of the descent and the seeded
settlement below.

A seeded identity is settled on the product of its grids when that proves
it: it passes, reporting ``samples = count`` without drawing, when every grid
point agrees.  Over Z/n the grids are the capped L(d) above.  Over a ring R
where every d_m! is a unit the binomials C(x, a), a in L(d), are
polynomials over R, and the law is the sum of its forward differences c_a
times C(x, a) (Newton interpolation on lower sets), so the uncapped L(d)
(n = 0 in ``_grid``) settles it as a polynomial over R, hence on every
input.  That covers Q, polynomial rings over Q, and polynomial rings over
Z/n whose least prime exceeds max d_m; a polynomial ring over any other Z/n
draws (x^3 - x vanishes on F_3, not at t).  Over R = B[t] the grid pass runs
in B when every structure constant, norm- and trace-form entry and unit
coordinate of the view is a constant polynomial (``_CoordView.grid``: over
B = F_p on ints, over B = Q on Fractions).  That is exact: the constants of
B[t] are a subring, the image of the injective c -> c 1, closed under every
op the laws use, and a grid point has small-integer coordinates, so each grid
value is the constant of the B[t] value and the two sides agree in B exactly
when they agree in B[t].  The interpolation argument still runs over B[t],
under the same rule that every d_m! is a unit.  When a constant involves t
(a Gram entry t0, say) the grid runs on the B[t] view.  The guard and the
draws always run on B[t].  A cross identity settles only
on a ``_SpaceView`` that passed ``_guarded``, hence over Z/n.  There h
and cross are R-bilinear and S's ops R-polynomial, so the law is an integer
polynomial in the six R-coordinates of each vector and the two of the S
scalar ``a``, of the degrees ``_SpaceDegree`` reads off its ``sides``; its
grids are the capped L(d) on those coordinates.  When a grid point fails the
draws run as if no grid had been tried, so a failing report is the draws'
own.  Before any work each identity takes its grid when |grid| <= w count,
with w = ``_points_per_draw`` the grid points that cost about one draw: 4
over Z/n, whose draws run on the view as the grid does; 16 over Q, whose
draws run the scalar ``mul``; and 64 over polynomial rings, whose draws run
the scalar ``mul`` on dense random polynomials while their grid points are
in B.  Measured on col_split over F7[t0, t1] and w_split over Q[t0], one draw
costs 35 (anticommutative) to 250 (jordan) grid points in B, and 23 to 83
points of a grid on the B[t] view.  Off Z/n the view is built, and guarded,
only when some identity of the call takes its grid.

A relation between bilinear products, such as each part of
``cross_construction_check``, is bilinear in its pair, so it holds on every
pair once it holds on every pair of basis elements.  ``_relation`` settles
it that way in seeded mode, behind guards: when it holds on its basis pairs
and the ``_CoordView`` of each algebra it compares passes ``_guarded``, it
reports the pass of its draws and makes no draw.  Otherwise its draws run as
if nothing had been tried, so a failing report is the draws' own; exhaustive
mode always draws.  The verdict proves the relation for the bilinear
products the basis pairs fix.  A product that is not bilinear is caught only
when a guard pair hits it, where the draws might hit it too: the caveat of
every guarded view above.  Map checks (``maps`` module docstring) settle on
unguarded basis pairs, as they trust the family products, which the element
suites guard; a relation compares the products themselves, so it settles on
guarded ones.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import accumulate, chain, product, repeat
from math import comb, factorial, gcd, prod
from operator import eq

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
from .errors import ExhaustiveTooLarge, SuiteNotApplicable, WrongRing
from .etale import SplitTorus
from .rings import IntegersMod, PolynomialRing, Ring
from .trivec import HermitianSpace, mat_det, mat_identity, vec_add, vec_smul

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
    "suites_for",
    "cross_construction_check",
    "cay_zorn_check",
    "colsplit_mul_batch",
    "SUITES",
    "APPLICABLE",
    "EXHAUSTIVE_WORK",
]

# the bound on an exhaustive identity's evaluation estimate (module docstring)
EXHAUSTIVE_WORK = 10**6

# the pairs on which a seeded view must agree with the scalar ops (``_guarded``), and their seed
GUARD_PAIRS, GUARD_SEED = 32, 0x6775617264


def _points_per_draw(ring) -> int:
    """w of the seeded grid rule |grid| <= w count: the grid points that cost about as much as one draw
    (module docstring)."""
    if isinstance(ring, IntegersMod):
        return 4
    return 64 if isinstance(ring, PolynomialRing) else 16


class SplitMix64:
    """The fixed 64-bit mixing generator behind every sample stream."""

    MASK = (1 << 64) - 1
    GAMMA = 0x9E3779B97F4A7C15
    MIX1 = 0xBF58476D1CE4E5B9
    MIX2 = 0x94D049BB133111EB

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        # the class constants as literals: no attribute lookups on the hottest call of a seeded run
        z = self.state = (self.state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
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
        if self.mode == "seeded" and self.count > EXHAUSTIVE_WORK:
            raise ValueError(f"the sample count {self.count} is past the work bound {EXHAUSTIVE_WORK}")

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


def draws(sampler: Sampler, draw):
    """``sampler.count`` cases ``draw(rng)``, drawn lazily from a generator restarted at the seed."""
    rng = sampler.rng()
    return (draw(rng) for _ in range(sampler.count))


# ------------------------------------------------------------ identities
#
# An element identity is ``sides(A, *xs) -> (lhs, rhs)``, written against
# ``mul``, ``add``, ``sub``, ``smul``, ``norm``, ``trace``, ``one``, ``zero``,
# ``ring.mul`` and ``ring.neg`` only, so the same function runs on an algebra
# handle (every report, and seeded mode off Z/n) and on its ``_CoordView``
# (over Z/n, seeded and exhaustive).  ``describe(A, xs, lhs, rhs)`` gives the
# counterexample fields of a failing input.  A cross-product identity is
# ``sides(P, *inputs)`` on the ambient hermitian space, seeded only.


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


# ----- hermitian cross-product identities (space-level, seeded only) -----


def _cross_defining(P, u, v, w):
    """h(v x w, u) = alpha det(u | v | w)."""
    return P.h(P.cross(v, w), u), P.S.mul(P.alpha, mat_det(P.S, (u, v, w)))


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


_BUILD = object()  # run_identity's default view: chosen for that identity alone


def run_identity(A, identity: str, sampler: Sampler, view=_BUILD) -> CheckReport:
    """Check one named identity.  Ungated: the caller chooses applicability.
    ``view``: the view ``_views`` chose for the caller's whole call (None: the scalar path), else chosen
    for this identity alone."""
    t0 = time.perf_counter()
    if identity not in ELEMENT_IDENTITIES and identity not in CROSS_IDENTITIES:
        raise SuiteNotApplicable(f"unknown identity {identity!r}")
    if view is _BUILD:
        view = _views(A, sampler, [identity])[identity]
    report = _run(A, identity, sampler, view)
    report.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return report


def _views(A, sampler, names) -> dict:
    """The view each identity of ``names`` runs on (None: the scalar path), chosen for the whole call and
    before any work: A's ``_CoordView`` for the element identities, the ``_SpaceView`` of A's hermitian
    space for the cross identities.  In exhaustive mode the coordinate view is built once ``names`` are
    admitted.  In seeded mode a view is built over Z/n, where the draws run on it, and elsewhere only when
    an element identity of ``names`` settles on its grid; it is used only if it passes ``_guarded``."""
    cross = [name for name in names if name in CROSS_IDENTITIES]
    element = [name for name in names if name not in cross]
    if sampler.mode == "exhaustive":
        if element:  # the error that running them in order would raise: cross identities run last
            _require_enumerable(A, element)
        if cross:
            raise ExhaustiveTooLarge("cross identities support seeded sampling only")
        return dict.fromkeys(names, _CoordView(A))
    P = getattr(A, "space", None)
    if cross and P is None:
        raise SuiteNotApplicable(f"{A.family} has no hermitian space")
    finite = isinstance(A.ring, IntegersMod)
    coord = space = None
    if element and (finite or any(_settling_grid(A, name, sampler.count) for name in element)):
        coord = _guarded(_CoordView(A), A, type(A).sample_coords)
    if cross and finite:
        space = _guarded(_SpaceView(P), P, type(P).sample_vec)
    return {name: space if name in cross else coord for name in names}


def _guarded(view, owner, sample):
    """The view if it ``agrees`` with its owner on ``GUARD_PAIRS`` pairs drawn, x then y, by the class's
    draw ``sample`` from a stream of their own, else None.  The class's draw keeps a draw hook set on the
    handle for the identities' streams."""
    rng = SplitMix64(GUARD_SEED)
    return view if all(view.agrees(owner, sample(owner, rng), sample(owner, rng)) for _ in range(GUARD_PAIRS)) else None


def _run(A, identity, sampler, view) -> CheckReport:
    """One identity on its view: the exhaustive driver, else a pass on the grids when they settle it, else
    ``sampler.count`` draws, on the view over Z/n and on the scalar ops elsewhere or when the guard refused
    the view."""
    if sampler.mode == "exhaustive":
        return _colsplit_exhaustive_pairs(A, identity, view)
    args, sides = _law(identity)
    grid = None if view is None else _settling_grid(A, identity, sampler.count)
    if grid and not _fails(view, sides, *grid, _ranks(A, args)):  # a pass on the grids proves the law
        return CheckReport(identity, sampler.count, True, None)
    on_view = view is not None and view.n
    if isinstance(args, int):  # an element identity: coordinate tuples on the view, elements off it
        handle, samples = (view, [A.sample_coords] * args) if on_view else (A, [A.sample] * args)
        describe = lambda i, xs: _failure(A, identity, i, [*map(A.from_coords, xs)] if on_view else xs)  # noqa: E731
    else:  # a cross identity: vectors of A's space and S scalars, on the view and off it
        P = A.space
        handle, samples = view if on_view else P, [P.S.sample if name == "a" else P.sample_vec for name in args]

        def describe(index, xs):
            bad = {n: P.S.to_json(x) if n == "a" else [P.S.to_json(c) for c in x] for n, x in zip(args, xs)}
            bad["index"] = index
            return bad

    cases = draws(sampler, lambda rng: [sample(rng) for sample in samples])
    return first_failure(identity, cases, lambda xs: eq(*sides(handle, *xs)), describe)


def _law(identity):
    """``(args, sides)``: an element identity's arity or a cross identity's inputs, and its ``sides``."""
    return (CROSS_IDENTITIES.get(identity) or ELEMENT_IDENTITIES[identity])[:2]


def _settling_grid(A, identity, count):
    """``(n, degrees)`` when the grids ``_grid(n, r, d)`` of the identity's argument degrees d settle it
    over A.ring and cost no more than ``count`` draws (module docstring), else None; r is each argument's
    coordinate count (``_ranks``)."""
    args, sides = _law(identity)
    degrees = _degrees(sides, args)
    n = A.ring.n if isinstance(A.ring, IntegersMod) else 0
    base = getattr(A.ring, "base", None)
    if isinstance(base, IntegersMod) and gcd(factorial(max(degrees)), base.n) > 1:
        return None
    if prod(_grid_size(n, r, d) for r, d in zip(_ranks(A, args), degrees)) > _points_per_draw(A.ring) * count:
        return None
    return n, degrees


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

    form = [[R.zero] * i + [norms[i]] + [polar(i, j) for j in range(i + 1, r)] for i in range(r)]
    C = [[A.coords(A.mul(x, y)) for y in e] for x in e]
    if not A.unital:
        return C, form, None, None
    return C, form, [A.trace(x) for x in e], A.coords(A.one())


def _constant_terms(R, constants):
    """``_constants`` over B from those over R = B[t] when every one is a constant polynomial: their
    constant terms; else None, and None off polynomial rings."""
    base = getattr(R, "base", None)
    if base is None:
        return None
    C, form, trace, one = constants
    key = next(iter(R.one))  # the constant monomial
    values = [*chain.from_iterable(chain(*C, form)), *(trace or ()), *(one or ())]
    if any(p.keys() - {key} for p in values):
        return None
    low = lambda p: p.get(key, base.zero)  # noqa: E731
    C, form = [[[*map(low, p)] for p in row] for row in C], [[*map(low, row)] for row in form]
    return C, form, trace and [*map(low, trace)], one and tuple(map(low, one))


def _no_unit(family, *_):
    """``one`` and ``trace`` of a view of an algebra without a unit: the scalar path's error."""
    raise WrongRing(f"{family} has no unit")


class _CoordView:
    """An algebra on coordinate tuples, on its ring's own ops.  Product row i lists (j, k, C[i][j][k])
    for each nonzero structure constant; a ring's zero is falsy on every ring, so zero coordinates are
    skipped.  Over Z/n the coordinates are plain ints, and every op sums them unreduced and reduces each
    output coordinate once (``n``, 0 off Z/n).  ``grid`` is the view the grid pass runs on (``_fails``):
    over B[t] with constant structure constants the view over B of their constant terms (module
    docstring), else the view itself.  ``over = (B, constants)`` builds A's view on B's ops from
    ``_constants`` over B."""

    def __init__(self, A, over=None):
        R, constants = over or (A.ring, _constants(A))
        C, form, self._trace, self._one = constants
        self.ring = R
        self.n, self.rank, self._zero = R.n if isinstance(R, IntegersMod) else 0, A.rank, (R.zero,) * A.rank
        self._C = [[(j, k, c) for j, p in enumerate(row) for k, c in enumerate(p) if c] for row in C]
        self._Q = [(i, j, q) for i, row in enumerate(form) for j, q in enumerate(row) if q]
        if self._one is None:
            self.one = self.trace = partial(_no_unit, A.family)
        lowered = _constant_terms(R, constants)
        self._base = lowered and _CoordView(A, (R.base, lowered))

    @property
    def grid(self):  # a property: a view that stored itself would be a reference cycle
        return self._base or self

    def mul(self, x, y):
        n = self.n
        if n:
            out = [0] * len(x)
            for xi, row in zip(x, self._C):
                if xi:
                    for j, k, c in row:
                        out[k] += xi * y[j] * c
            return tuple([v % n for v in out])
        add, mul = self.ring.add, self.ring.mul
        out = list(self._zero)
        for xi, row in zip(x, self._C):
            if xi:
                for j, k, c in row:
                    if y[j]:
                        out[k] = add(out[k], mul(mul(xi, y[j]), c))
        return tuple(out)

    # tuples from lists: a tuple built from an iterator is allocated larger and shrunk
    def add(self, x, y):
        n = self.n
        if n:
            return tuple([(a + b) % n for a, b in zip(x, y)])
        return tuple([*map(self.ring.add, x, y)])

    def sub(self, x, y):
        n = self.n
        if n:
            return tuple([(a - b) % n for a, b in zip(x, y)])
        return tuple([*map(self.ring.sub, x, y)])

    def smul(self, t, x):
        n = self.n
        if n:
            return tuple([t * a % n for a in x])
        return tuple([*map(self.ring.mul, repeat(t), x)])

    def norm(self, x):
        n = self.n
        if n:
            return sum([q * x[i] * x[j] for i, j, q in self._Q]) % n
        R = self.ring
        return reduce(R.add, [R.mul(q, R.mul(x[i], x[j])) for i, j, q in self._Q if x[i] and x[j]], R.zero)

    def trace(self, x):
        n = self.n
        if n:
            return sum([t * a for t, a in zip(self._trace, x)]) % n
        R = self.ring
        return reduce(R.add, map(R.mul, self._trace, x), R.zero)

    def one(self):
        return self._one

    def zero(self):
        return self._zero

    def agrees(self, A, x, y) -> bool:
        """Whether the product of coordinate tuples x, y and the norm and trace of x equal A's own (``_guarded``)."""
        a = A.from_coords(x)
        if A.coords(A.mul(a, A.from_coords(y))) != self.mul(x, y) or A.norm(a) != self.norm(x):
            return False
        return not A.unital or A.trace(a) == self.trace(x)


# ------------------------------------------------------------ hermitian space view
#
# Over Z/n the seeded cross identities run on a view of the hermitian space P:
# P's own S and alpha, with h and cross as straight-line int functions.  Both
# maps are R-bilinear in the six R-coordinates x_{2i+c} = u[i][c] of each
# vector, since conj is R-linear, so coordinate k of f(u, v) is
# sum_ij f(e_i, e_j)_k x_i y_j mod n, e_i the coordinate unit vectors.  The
# view writes that sum with its constants as int literals, one reduction mod n
# per output coordinate, and compiles it.

# e_0 .. e_5: R-coordinate k of a vector is component k % 2 of its entry k // 2
_UNIT_VECTORS = [tuple(tuple(int(2 * i + c == k) for c in range(2)) for i in range(3)) for k in range(6)]

_KERNEL = """def f(u, v):
    (x0, x1), (x2, x3), (x4, x5) = u
    (y0, y1), (y2, y3), (y4, y5) = v
    return {}
"""


def _linear_source(terms) -> str:
    """The source of sum c t over ``terms`` (c, t): c a nonzero int, t the source of a product."""
    out = ""
    for c, t in terms:
        t = t if abs(c) == 1 else f"{abs(c)}*{t}"
        out += (" - " if c < 0 else " + ") + t if out else ("-" if c < 0 else "") + t
    return out


def _bilinear_source(f, n) -> str:
    """The value of the bilinear ``f(u, v)`` as a tuple expression in the names x0..x5, y0..y5 (the
    R-coordinates of u and v) and int literals only: coordinate k is sum_i x_i (sum_j C_ijk y_j) % n,
    each residue C_ijk written as the int of least absolute value."""
    values = [[f(x, y) for y in _UNIT_VECTORS] for x in _UNIT_VECTORS]
    vector = isinstance(values[0][0][0], tuple)  # a vector of S-pairs (cross), else one S-pair (h)
    C = [[(*chain.from_iterable(v),) if vector else v for v in row] for row in values]
    out = []
    for k in range(len(C[0][0])):
        terms = []
        for i, row in enumerate(C):
            inner = [(c - n if 2 * c > n else c, f"y{j}") for j, c in enumerate(p[k] for p in row) if c]
            if len(inner) == 1:
                terms.append((inner[0][0], f"x{i}*{inner[0][1]}"))
            elif inner:
                terms.append((1, f"x{i}*({_linear_source(inner)})"))
        out.append(f"({_linear_source(terms)}) % {n}" if terms else "0")
    pairs = [f"({a}, {b})" for a, b in zip(out[::2], out[1::2])]
    return f"({', '.join(pairs)})" if vector else pairs[0]


def _compile(source):
    """``f(u, v)`` returning the expression ``source`` of ``_bilinear_source``."""
    namespace = {"__builtins__": {}}
    exec(_KERNEL.format(source), namespace)
    return namespace["f"]


class _SpaceView:
    """A hermitian space over Z/n (``n``) for the cross identities: P's ``S`` and ``alpha``, and ``h`` and
    ``cross`` compiled from their structure constants; ``sources`` keeps each one's generated expression."""

    def __init__(self, P):
        self.S, self.alpha, self.n = P.S, P.alpha, P.S.n
        self.sources = {name: _bilinear_source(getattr(P, name), P.S.n) for name in ("h", "cross")}
        self.h, self.cross = _compile(self.sources["h"]), _compile(self.sources["cross"])

    grid = property(lambda self: self)  # its grid pass runs on the view itself (``_fails``)

    def agrees(self, P, u, v) -> bool:
        """Whether h and cross of the vectors u, v equal P's own (``_guarded``)."""
        return self.h(u, v) == P.h(u, v) and self.cross(u, v) == P.cross(u, v)


def colsplit_mul_batch(B, X, Y):
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


class _SpaceDegree(_Degree):
    """``_Degree`` for the cross identities, through the ``sides(P, *inputs)`` protocol: the space and its
    S at once.  An S value is its degree in one input's R-coordinates and a vector the 3-tuple of its
    entries' degrees; ``zero`` and ``alpha`` are constants, ``conj`` is R-linear, and ``h`` and ``cross``,
    R-bilinear, add their arguments' degrees."""

    zero = alpha = 0
    conj = _Degree.neg

    def __init__(self):
        self.S = self

    def h(self, u, v):
        return max(u) + max(v)

    def cross(self, u, v):
        return (self.h(u, v),) * 3


def _top(value) -> int:
    """The largest degree in a nested tuple of degrees."""
    return max(map(_top, value)) if isinstance(value, tuple) else value


@lru_cache(maxsize=None)
def _degrees(sides, args) -> list[int]:
    """Upper bounds on the degree of a law in each argument's coordinates, ``args`` as in ``_law``: an
    element identity runs on ``_Degree``, a cross identity on ``_SpaceDegree`` with a vector's degree a
    3-tuple.  Memoised on ``sides``, not the name, as a law's bounds are fixed; the list is shared, so
    callers must not change it."""
    element = isinstance(args, int)
    vectors = [False] * args if element else [name != "a" for name in args]

    def at(m):  # argument m of degree 1, the others of degree 0
        return [(int(k == m),) * 3 if vector else int(k == m) for k, vector in enumerate(vectors)]

    return [_top(sides(_Degree() if element else _SpaceDegree(), *at(m))) for m in range(len(vectors))]


def _ranks(A, args) -> list[int]:
    """The coordinate count of each argument, ``args`` as in ``_law``: A's rank for an element, and for a
    cross identity's inputs 2 for the S scalar ``a`` and 6 for a vector."""
    return [A.rank] * args if isinstance(args, int) else [2 if name == "a" else 6 for name in args]


def _cap(n, d):
    """min(d, mu(n) - 1), mu(n) the least m with n | m!, in at most d steps (so for any prime accepted);
    d for n = 0, the uncapped grids off Z/n."""
    if not n:
        return d
    f = 1
    for m in range(1, d + 1):
        f = f * m % n
        if not f:
            return m - 1
    return d


@lru_cache(maxsize=256)
def _grid(n, r, d):
    """L(d) over Z/n (uncapped for n = 0) as int coordinate rows, each coordinate at most ``_cap(n, d)``:
    it settles degree d (module docstring).  Memoised: the rows are shared, so callers must not change them."""
    top, rows = _cap(n, d), [()]
    for _ in range(r):
        rows = [a + (c,) for a in rows for c in range(min(top, d - sum(a)) + 1)]
    return rows


def _grid_size(n, r, d):
    """|L(d)| by inclusion-exclusion over the coordinates past the cap, without building the rows
    (on a large graded rank, millions of them)."""
    t = _cap(n, d) + 1
    return sum((-1) ** j * comb(r, j) * comb(d - j * t + r, r) for j in range(d // t + 1))


def _require_enumerable(A, names) -> None:
    """Refuse exhaustive mode, before any work: off Z/n, or when an element identity of ``names``
    has an evaluation estimate past ``EXHAUSTIVE_WORK`` (module docstring)."""
    if not isinstance(A.ring, IntegersMod):
        raise ExhaustiveTooLarge(f"{A.family} over {A.ring.kind} is not enumerable")
    n, r = A.ring.n, A.rank
    for name in names:
        arity, sides, _ = ELEMENT_IDENTITIES[name]
        degrees = _degrees(sides, arity)
        work = (1 + sum(r * (_cap(n, d) + 1) for d in degrees)) * prod(_grid_size(n, r, d) for d in degrees)
        if work > EXHAUSTIVE_WORK:
            raise ExhaustiveTooLarge(f"{name} needs an estimated {work} evaluations, past the bound {EXHAUSTIVE_WORK}")


def _fails(view, sides, n, degrees, ranks, prefix=()) -> bool:
    """Whether ``sides`` disagrees on the view's ``grid`` somewhere on the product of its arguments' grids
    ``_grid(n, r, d)`` with leading coordinates ``prefix``, r each argument's coordinate count in ``ranks``
    (``_ranks``).  On a grid view over Z/n the int rows are residues already (an uncapped row of B[t], B =
    Z/n, has coordinates at most max d, below n as d! is a unit); off Z/n they are read through one table of
    constants.  On a ``_SpaceView`` a row of six is read as a vector of three S-pairs, and a row of two is
    the S scalar itself."""
    view = view.grid
    heads = [prefix[end - r : end] for r, end in zip(ranks, accumulate(ranks))]
    grids = [[h + t for t in _grid(n, r - len(h), d)] for h, r, d in zip(heads, ranks, degrees)]
    if not view.n:
        table = [view.ring.of_int(c) for c in range(max(degrees) + 1)]
        grids = [[tuple([table[c] for c in row]) for row in rows] for rows in grids]
    if isinstance(view, _SpaceView):
        grids = [[row if len(row) == 2 else (row[:2], row[2:4], row[4:]) for row in rows] for rows in grids]
    return not all(eq(*sides(view, *xs)) for xs in product(*grids))


def _colsplit_exhaustive_pairs(A, identity: str, view) -> CheckReport:
    """Exhaustive driver for every family, arity and Z/n: a pass on the capped grids, then a descent
    that tries each coordinate only up to its argument's cap (module docstring).
    ``view``: A's ``_CoordView`` from ``_views``, shared by the suite.
    perfbench's tracer counts its calls by this name."""
    arity, sides, _ = ELEMENT_IDENTITIES[identity]
    n, r, ranks = A.ring.n, A.rank, _ranks(A, arity)
    degrees = _degrees(sides, arity)
    if not _fails(view, sides, n, degrees, ranks):
        return CheckReport(identity, n ** (arity * r), True, None)
    prefix, index = (), 0
    for cap in [_cap(n, d) for d in degrees for _ in range(r)]:  # each coordinate's, in enumeration order
        c = next(c for c in range(cap + 1) if _fails(view, sides, n, degrees, ranks, prefix + (c,)))
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
    views = _views(A, sampler, names)
    return [run_identity(A, name, sampler, views[name]) for name in names]


# --------------------------------------------------- cross-construction


def _split_space(ring: Ring, lam, corrupt_gram: bool) -> HermitianSpace:
    S = SplitTorus(ring)
    gram = [list(row) for row in mat_identity(S)]
    alpha = (lam, ring.inv(lam))
    if corrupt_gram:
        gram[2][2] = S.neg(S.one)
        alpha = (ring.neg(lam), ring.inv(lam))
    return HermitianSpace(S, gram, alpha)


def _relation(name, sampler, A, holds, describe, owners, basis, done) -> CheckReport:
    """A relation ``holds`` between bilinear products on pairs of A's elements, after ``done`` cases: in
    seeded mode it settles when it holds on the pairs ``basis`` and the ``_CoordView`` of each algebra of
    ``owners`` passes ``_guarded``, reporting the pass of its draws without drawing (module docstring);
    otherwise ``sampler.count`` drawn pairs decide it, the first failing one reported."""
    if sampler.mode == "seeded" and all(map(holds, basis)):
        if all(_guarded(_CoordView(B), B, type(B).sample_coords) for B in owners):
            return CheckReport(name, done + sampler.count, True, None)
    pairs = draws(sampler, lambda rng: (A.sample(rng), A.sample(rng)))
    return first_failure(name, pairs, holds, describe, done)


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

    The unit and the 49 basis pairs of (a) are cases of the check: the first
    that fails is reported at once.  Then each part is a ``_relation``: in
    seeded mode (a) settles when the coordinate views of col and herm pass
    their guards, and (b) when it holds on the 36 basis pairs of w and the
    views of zorn and w pass theirs, each reporting the pass of its draws
    without drawing, so a passing check reports ``samples = 49 + 2 count``
    and makes no draw.  A part that does not settle draws ``count`` pairs,
    and its report is the draws' own.  The verdict holds for the bilinear
    products the basis pairs fix; a product fault off the basis is caught
    when a guard pair or a draw hits it (module docstring).

    ``corrupt_gram`` flips one Gram sign (keeping the space valid) so the
    mismatch detector can be exercised.
    """
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

    name = "cross-construction"
    if iota(col.one()) != herm.one():
        return CheckReport(name, 1, False, {"part": "unit"})
    col_json = lambda i, p: pair_json(col, *p, part="col-identification")  # noqa: E731
    report = first_failure(name, product(col.basis(), repeat=2), col_embeds, col_json)
    if report.passed:
        report = _relation(name, sampler, col, col_embeds, col_json, (col, herm), (), report.samples)
    if report.passed:
        w_json = lambda i, p: pair_json(w, *p, part="zorn-projection")  # noqa: E731
        basis = product(w.basis(), repeat=2)
        report = _relation(name, sampler, w, zorn_projects, w_json, (zorn, w), basis, report.samples)
    return report


def cay_zorn_check(ring: Ring) -> CheckReport:
    """Octonion identification: Cay over the split torus (Gram I, alpha 1)
    matches the Zorn vector-matrix algebra on all 64 basis products via
    (a, u) |-> [[a_1, -u^(1)], [u^(2), a_2]], and the norm of each basis
    element x agrees, compared at x's last pair after its product.
    """
    cay = CayleyAlgebra(_split_space(ring, ring.one, False))
    zorn = ZornAlgebra(ring, ring.one)

    def phi(x):
        u1 = tuple(ring.neg(c[0]) for c in x.u)
        u2 = tuple(c[1] for c in x.u)
        return ZornElement(x.a[0], u1, u2, x.a[1])

    if phi(cay.one()) != zorn.one():
        return CheckReport("cay-zorn-identification", 1, False, {"part": "unit"})
    basis = cay.basis()

    def multiplies(x, y):
        return phi(cay.mul(x, y)) == zorn.mul(phi(x), phi(y))

    def holds(pair):
        x, y = pair
        return multiplies(x, y) and (y is not basis[-1] or zorn.norm(phi(x)) == cay.norm(x))

    def describe(index, pair):
        x, y = pair
        return pair_json(cay, x, y) if not multiplies(x, y) else {"part": "norm", "x": cay.element_to_json(x)}

    return first_failure("cay-zorn-identification", product(basis, repeat=2), holds, describe)
