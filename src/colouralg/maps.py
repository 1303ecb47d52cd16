"""Structure-preserving maps and their verification.

Diagonal and dual isomorphisms of the split families, cube-root-of-unity
automorphisms, isometry-lifted maps of the hermitian families, skew maps
``x |-> h(u,x)v - h(v,x)u``, unitary / special-unitary membership, and the
generic homomorphism / derivation checkers.

A linear map on a rank-3 module is a plain 3x3 matrix (row tuples) acting by
left multiplication, over R for the split families and over S for the
hermitian ones.  ``AlgebraMap`` wraps an element-level function together with
its domain and codomain handles; ``is_homomorphism`` / ``is_derivation``
treat failures as data (a report with a counterexample), never as errors.

Every map constructor here builds its map from a matrix, so the map is linear
(``AlgebraMap.linear``), and every family product is bilinear.  The
homomorphism and derivation laws are then bilinear in (x, y), so they hold
on every pair exactly when they hold on every ordered pair of basis
elements, over any commutative base ring.  Seeded checks of such maps
(and every derivation check) settle on those basis pairs first: if all
hold, the report is the pass the draws would give, and no draw is made.
When a basis pair fails, the draws run and their verdict stands: the
lowest failing draw, or a pass when every draw holds, exactly as a check on
draws alone.  The settlement trusts the product code to be bilinear, so a
``mul`` fault off the basis is left to the element-identity suites.  A
hand-built ``AlgebraMap`` (``linear`` off) is checked on the draws alone.
A relation between two family products, as in the cross-construction
check, settles on guarded basis pairs instead (``checks`` module docstring).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import product
from operator import attrgetter
from typing import Callable

from .algebras import CayleyAlgebra, ColHermAlgebra, ColSplitAlgebra, WHermAlgebra
from .checks import CheckReport, Sampler, draws, first_failure, pair_json
from .errors import (
    MorphismConditionFailed,
    NotCubeRoot,
    NotIsometry,
    NotSLinear,
    SuiteNotApplicable,
)
from .trivec import HermitianSpace, mat_cofactor, mat_det, mat_smul, mat_vec, vec_neg, vec_smul, vec_sub

__all__ = [
    "AlgebraMap",
    "diagonal_iso",
    "dual_iso",
    "cube_root_auto",
    "lift_isometry",
    "vector_restriction",
    "custom_map",
    "lambda_map",
    "is_isometry",
    "in_unitary",
    "in_lie_unitary",
    "is_homomorphism",
    "is_derivation",
]


@dataclass
class AlgebraMap:
    kind: str
    domain: object
    codomain: object
    fn: Callable
    data: dict = field(default_factory=dict)
    linear: bool = False  # built from a matrix: seeded checks settle on basis pairs

    def apply(self, x):
        return self.fn(x)


def _transport(A, base=None, **slots):
    """``x |-> A.element(...)`` built positionally in field order (the layout order).

    A field named in ``slots`` is computed from x by its function; every
    other field is copied from x, or from ``base`` when one is given.
    """
    parts = [
        slots.get(f.name) or (attrgetter(f.name) if base is None else (lambda x, v=getattr(base, f.name): v))
        for f in fields(A.element)
    ]
    element = A.element
    return lambda x: element(*[part(x) for part in parts])


# ----------------------------------------------------------- split maps


def diagonal_iso(domain, phi, lam_prime, check: bool = True) -> AlgebraMap:
    """(a, u, ud) |-> (a, phi u, phi^-T ud) into the lam_prime-twisted algebra.

    Requires det(phi) * lam_prime = lam (so the trivializations correspond);
    the same data transports both the rank-7 and the rank-8 split family.
    ``check=False`` skips the condition, producing a deliberately broken map
    for negative tests.
    """
    R = domain.ring
    det = mat_det(R, phi)
    if check and R.mul(det, lam_prime) != domain.lam:
        raise MorphismConditionFailed(
            f"det(phi) * lam' = {R.format(R.mul(det, lam_prime))}, expected lam = {R.format(domain.lam)}"
        )
    phi_inv_t = mat_smul(R, R.inv(det), mat_cofactor(R, phi))
    codomain = type(domain)(R, lam_prime)
    fn = _transport(codomain, u=lambda x: mat_vec(R, phi, x.u), ud=lambda x: mat_vec(R, phi_inv_t, x.ud))
    return AlgebraMap("diagonal", domain, codomain, fn, {"phi": phi, "lam_prime": lam_prime}, linear=True)


def dual_iso(domain: ColSplitAlgebra) -> AlgebraMap:
    """(a, u, ud) |-> (a, -ud, -u) into the dual-trivialized algebra."""
    R = domain.ring
    codomain = ColSplitAlgebra(R, R.inv(domain.lam))
    fn = _transport(codomain, u=lambda x: vec_neg(R, x.ud), ud=lambda x: vec_neg(R, x.u))
    return AlgebraMap("dual", domain, codomain, fn, {}, linear=True)


def cube_root_auto(domain, mu) -> AlgebraMap:
    """(a, u, ud) |-> (a, mu u, mu^-1 ud) for a cube root of unity mu."""
    R = domain.ring
    if R.mul(mu, R.mul(mu, mu)) != R.one:
        raise NotCubeRoot(f"{R.format(mu)}^3 != 1 in {R.kind}")
    z = R.zero
    phi = ((mu, z, z), (z, mu, z), (z, z, mu))
    m = diagonal_iso(domain, phi, domain.lam)
    m.kind = "cube-root"
    m.data = {"mu": mu}
    return m


# -------------------------------------------------------- hermitian maps


def _validate_s_matrix(S, phi):
    try:
        rows = tuple(tuple(phi[i][j] for j in range(3)) for i in range(3))
        for row in rows:
            for e in row:
                if len(e) != 2:
                    raise TypeError
    except (TypeError, IndexError, KeyError):
        raise NotSLinear("map data is not a 3x3 matrix over S") from None
    return rows


def is_isometry(P: HermitianSpace, P2: HermitianSpace, phi) -> bool:
    """h'(phi u, phi v) = h(u, v) on every pair of basis vectors, hence on all of P."""
    images = [(e, mat_vec(P.S, phi, e)) for e in P.basis()]
    return all(P2.h(fu, fv) == P.h(u, v) for (u, fu), (v, fv) in product(images, repeat=2))


_LIFTS = {"colour": ("G-phi", ColHermAlgebra), "cayley": ("H-phi", CayleyAlgebra)}


def lift_isometry(P: HermitianSpace, P2: HermitianSpace, phi, target: str) -> AlgebraMap:
    """Lift an isometry (P,h,alpha) -> (P',h',alpha') to the rank-7 or rank-8
    hermitian family, as (a, u) |-> (a, phi u).

    Raises ``NotIsometry`` when the Gram matrices do not correspond and
    ``MorphismConditionFailed`` when det(phi) * alpha' != alpha.
    """
    S = P.S
    phi = _validate_s_matrix(S, phi)
    if not is_isometry(P, P2, phi):
        raise NotIsometry("phi does not carry h' back to h")
    det = mat_det(S, phi)
    if S.mul(det, P2.alpha) != P.alpha:
        raise MorphismConditionFailed(
            f"det(phi) * alpha' = {S.format(S.mul(det, P2.alpha))}, expected alpha = {S.format(P.alpha)}"
        )
    if target not in _LIFTS:
        raise SuiteNotApplicable(f"unknown lift target {target!r}")
    kind, cls = _LIFTS[target]
    codomain = cls(P2)
    fn = _transport(codomain, u=lambda x: mat_vec(S, phi, x.u))
    return AlgebraMap(kind, cls(P), codomain, fn, {"phi": phi}, linear=True)


def vector_restriction(m: AlgebraMap) -> AlgebraMap:
    """Restrict a lifted map to the rank-6 vector algebra."""
    if m.kind not in ("G-phi", "H-phi"):
        raise SuiteNotApplicable(f"cannot restrict a {m.kind} map")
    P, P2 = m.domain.space, m.codomain.space
    phi = m.data["phi"]
    S = P.S
    codomain = WHermAlgebra(P2)
    fn = _transport(codomain, u=lambda x: mat_vec(S, phi, x.u))
    return AlgebraMap("w-phi", WHermAlgebra(P), codomain, fn, {"phi": phi}, linear=True)


def custom_map(domain, codomain, table) -> AlgebraMap:
    """An arbitrary R-linear map given by a rank x rank coordinate matrix.

    Column j of ``table`` holds the codomain coordinates of the image of the
    j-th domain coordinate unit vector.  On the hermitian families that is not
    the j-th element of ``basis()``, which lists S components first.  No
    structure is assumed; feed the result to ``is_homomorphism`` to find out
    what it preserves.
    """
    R = domain.ring
    n, m = codomain.rank, domain.rank
    if len(table) != n or any(len(row) != m for row in table):
        raise NotSLinear(f"custom table must be {n} x {m}")

    def fn(x):
        c = domain.coords(x)
        out = [R.zero] * n
        for i in range(n):
            acc = R.zero
            for j in range(m):
                acc = R.add(acc, R.mul(table[i][j], c[j]))
            out[i] = acc
        return codomain.from_coords(out)

    return AlgebraMap("custom", domain, codomain, fn, {"table": table}, linear=True)


def lambda_map(P: HermitianSpace, u, v):
    """The S-linear skew map x |-> h(u,x) v - h(v,x) u, as a matrix.

    (The form is linear in its second slot, so this is the S-linear member
    of the family; it lies in the h-skew Lie algebra u(P,h).)
    """
    S = P.S
    cols = [vec_sub(S, vec_smul(S, P.h(u, e), v), vec_smul(S, P.h(v, e), u)) for e in P.basis()]
    return tuple(zip(*cols))


def in_unitary(P: HermitianSpace, f, special: bool = False) -> bool:
    """Membership in U(P,h) (isometries), or SU(P,h) when ``special``."""
    S = P.S
    det = mat_det(S, f)
    return S.is_unit(det) and is_isometry(P, P, f) and (not special or det == S.one)


def in_lie_unitary(P: HermitianSpace, f, special: bool = False) -> bool:
    """Membership in u(P,h): h(f u, v) + h(u, f v) = 0 on the basis;
    su(P,h) additionally requires trace_S(f) = 0."""
    S = P.S
    images = [(e, mat_vec(S, f, e)) for e in P.basis()]
    if any(S.add(P.h(fei, ej), P.h(ei, fej)) != S.zero for (ei, fei), (ej, fej) in product(images, repeat=2)):
        return False
    return not special or S.add(S.add(f[0][0], f[1][1]), f[2][2]) == S.zero


# ------------------------------------------------------------- checkers


def is_homomorphism(m: AlgebraMap, sampler: Sampler) -> CheckReport:
    """Unit preservation, linearity and multiplicativity.

    Seeded mode draws element pairs plus a scalar for the linearity probe;
    exhaustive mode checks every ordered pair of basis products (which pins
    a linear map completely).  A seeded check of a map built from a matrix
    (``m.linear``) runs those basis pairs first and, when all hold, reports
    the pass of the draws without drawing: the map is linear and the products
    bilinear, so multiplicativity on the basis pairs gives it on every pair
    (module docstring).  When a basis pair fails, the draws' verdict
    stands, a pass included.  ``samples`` counts the unit check, when both
    algebras are unital, as one.
    """
    A, B = m.domain, m.codomain
    name = f"homomorphism:{m.kind}"
    done = 0
    if getattr(A, "unital", False) and getattr(B, "unital", False):
        done = 1
        if m.apply(A.one()) != B.one():
            return CheckReport(name, done, False, {"part": "unit"})

    def multiplicative(x, y):
        return m.apply(A.mul(x, y)) == B.mul(m.apply(x), m.apply(y))

    pairs = product(A.basis(), repeat=2)
    if sampler.mode == "exhaustive":
        return first_failure(name, pairs, lambda p: multiplicative(*p), lambda i, p: pair_json(A, *p), done)
    if m.linear and all(multiplicative(*p) for p in pairs):
        return CheckReport(name, done + sampler.count, True, None)

    def homomorphic(case):
        x, y, r = case
        return (
            m.apply(A.add(x, y)) == B.add(m.apply(x), m.apply(y))
            and m.apply(A.smul(r, x)) == B.smul(r, m.apply(x))
            and multiplicative(x, y)
        )

    cases = draws(sampler, lambda rng: (A.sample(rng), A.sample(rng), A.ring.sample(rng)))
    return first_failure(name, cases, homomorphic, lambda i, c: pair_json(A, c[0], c[1], index=i), done)


def is_derivation(d, A, sampler: Sampler) -> CheckReport:
    """Leibniz rule d(xy) = d(x) y + x d(y) against the family product, on
    every ordered basis pair (exhaustive mode) or on drawn pairs.

    ``d`` is a 3x3 matrix over S acting on the vector slot; it is extended by
    zero on the scalar slot of the rank-7 and rank-8 hermitian families.
    That map is linear and the product bilinear, so a seeded check settles
    on the basis pairs first and reports the pass of the draws without
    drawing when all hold.  When a basis pair fails, the draws' verdict
    stands, a pass included.
    """
    S = A.S
    d = _validate_s_matrix(S, d)
    fn = _transport(A, A.zero(), u=lambda x: mat_vec(S, d, x.u))
    name = f"derivation:{A.family}"

    def leibniz(pair):
        x, y = pair
        return fn(A.mul(x, y)) == A.add(A.mul(fn(x), y), A.mul(x, fn(y)))

    pairs = product(A.basis(), repeat=2)
    if sampler.mode == "seeded":
        if all(map(leibniz, pairs)):
            return CheckReport(name, sampler.count, True, None)
        pairs = draws(sampler, lambda rng: (A.sample(rng), A.sample(rng)))
    return first_failure(name, pairs, leibniz, lambda i, p: pair_json(A, *p, index=i))
