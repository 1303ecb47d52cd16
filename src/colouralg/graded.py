"""Graded colour algebras on homogeneous polynomial slots.

For positive integers l, m and projective dimension n, the algebra C(l, m)
lives on R + S_l + S_m + S_{l+m} where S_d is the degree-d homogeneous slice
of R[t_0, ..., t_n].  Multiplication keeps the diagonal scalar and pushes the
commutator of the middle slots into the top slot::

    (a, f_l + f_m, f_{l+m}) (b, g_l + g_m, g_{l+m})
        = (ab, (a g_l + b f_l) + (a g_m + b f_m),
           b f_{l+m} + a g_{l+m} + f_l g_m - f_m g_l)

The degenerate norm is n0 = a^2 and the trace is 2a, so the quadratic
relation reads x^2 - 2a x + a^2 = 0.  The free rank is

    s = 1 + C(l+n, n) + C(m+n, n) + C(l+m+n, n).

Note the n = 1 closed form: the rank is 4 + 2(l+m) (even); the sometimes
quoted shortcut 5 + 2(l+m) overcounts by one, and ``n1_shortcut_report``
surfaces the discrepancy.

Embedding: sending f_l, f_m to the first two column slots and f_{l+m} to the
third dual slot realizes C(l, m) inside the split colour algebra over the
full polynomial ring (all pairing terms vanish on disjoint slots); see
``embed_into_col_split``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .algebras import Algebra, ColSplitAlgebra, ColSplitElement
from .errors import BadDegrees, BaseNotField, WrongRing
from .rings import PolynomialRing, Ring, monomials_of_degree

__all__ = [
    "GradedSpec",
    "GradedElement",
    "GradedAlgebra",
    "graded_rank",
    "radical_analysis",
    "n1_shortcut_report",
]


@dataclass(frozen=True)
class GradedSpec:
    l: int
    m: int
    n: int

    def __post_init__(self):
        if self.l < 1 or self.m < 1 or self.n < 1:
            raise BadDegrees(f"l, m, n must be positive, got ({self.l}, {self.m}, {self.n})")


@dataclass(frozen=True)
class GradedElement:
    a: object
    fl: tuple   # dense coefficients over the degree-l monomial basis
    fm: tuple
    flm: tuple


def graded_rank(spec: GradedSpec) -> int:
    l, m, n = spec.l, spec.m, spec.n
    return 1 + comb(l + n, n) + comb(m + n, n) + comb(l + m + n, n)


def n1_shortcut_report(spec: GradedSpec) -> dict | None:
    """Compare the rank against the 5 + 2(l+m) shortcut quoted for n = 1.

    Returns None unless n == 1.  The shortcut disagrees with the binomial
    formula (which gives 4 + 2(l+m)), so ``agrees`` is always False.
    """
    if spec.n != 1:
        return None
    s = graded_rank(spec)
    shortcut = 5 + 2 * (spec.l + spec.m)
    return {"shortcut_value": shortcut, "rank": s, "agrees": shortcut == s}


class GradedAlgebra(Algebra):
    """The graded family; its slot widths are the monomial counts of (l, m, n)."""

    family = "graded"

    def __init__(self, spec: GradedSpec, base: Ring):
        if isinstance(base, PolynomialRing):
            raise WrongRing("graded base ring must not be polynomial")
        self.spec = spec
        nvars = spec.n + 1
        self.poly = PolynomialRing(base, [f"t{i}" for i in range(nvars)])
        self.basis_l = monomials_of_degree(nvars, spec.l)
        self.basis_m = monomials_of_degree(nvars, spec.m)
        self.basis_lm = monomials_of_degree(nvars, spec.l + spec.m)
        self._index_l = {e: i for i, e in enumerate(self.basis_l)}
        self._index_m = {e: i for i, e in enumerate(self.basis_m)}
        self._index_lm = {e: i for i, e in enumerate(self.basis_lm)}
        slots = [
            ("a", base, None),
            ("fl", base, len(self.basis_l)),
            ("fm", base, len(self.basis_m)),
            ("flm", base, len(self.basis_lm)),
        ]
        super().__init__(base, GradedElement, slots, unit=["a"])

    # dense <-> sparse ------------------------------------------------
    def _to_poly(self, coeffs, basis):
        return {e: c for e, c in zip(basis, coeffs) if not self.ring.is_zero(c)}

    def _to_dense(self, p, basis, index, degree):
        if not self.poly.is_homogeneous(p, degree):
            raise WrongRing(f"polynomial {self.poly.format(p)} is not homogeneous of degree {degree}")
        coeffs = [self.ring.zero] * len(basis)
        for e, c in p.items():
            coeffs[index[e]] = c
        return tuple(coeffs)

    def polys_of(self, x: GradedElement):
        """The three slots of x as sparse polynomials."""
        return (
            self._to_poly(x.fl, self.basis_l),
            self._to_poly(x.fm, self.basis_m),
            self._to_poly(x.flm, self.basis_lm),
        )

    def from_polys(self, a, fl, fm, flm) -> GradedElement:
        return GradedElement(
            a,
            self._to_dense(fl, self.basis_l, self._index_l, self.spec.l),
            self._to_dense(fm, self.basis_m, self._index_m, self.spec.m),
            self._to_dense(flm, self.basis_lm, self._index_lm, self.spec.l + self.spec.m),
        )

    # the family's maths -----------------------------------------------
    def mul(self, x, y):
        R, P = self.ring, self.poly
        fl, fm, flm = self.polys_of(x)
        gl, gm, glm = self.polys_of(y)
        hl = P.add(P.smul(x.a, gl), P.smul(y.a, fl))
        hm = P.add(P.smul(x.a, gm), P.smul(y.a, fm))
        hlm = P.add(
            P.add(P.smul(y.a, flm), P.smul(x.a, glm)),
            P.add(P.mul(fl, gm), P.neg(P.mul(fm, gl))),
        )
        return self.from_polys(R.mul(x.a, y.a), hl, hm, hlm)

    def norm(self, x):
        """The degenerate norm n0 = a^2."""
        return self.ring.mul(x.a, x.a)

    def trace(self, x):
        return self.ring.add(x.a, x.a)

    def involution(self, x):
        return GradedElement(
            x.a,
            tuple(self.ring.neg(c) for c in x.fl),
            tuple(self.ring.neg(c) for c in x.fm),
            tuple(self.ring.neg(c) for c in x.flm),
        )

    def basis_labels(self):
        P = self.poly
        labels = ["1"]
        for tag, basis in (("l", self.basis_l), ("m", self.basis_m), ("lm", self.basis_lm)):
            labels += [f"{tag}:{P._monomial_str(e) or '1'}" for e in basis]
        return labels

    def element_to_json(self, x):
        P = self.poly
        fl, fm, flm = self.polys_of(x)
        return {
            "a": self.ring.format(x.a),
            "fl": P.format(fl),
            "fm": P.format(fm),
            "flm": P.format(flm),
        }

    def element_from_json(self, d):
        P = self.poly
        return self.from_polys(
            self.ring.parse(d["a"]), P.parse(d["fl"]), P.parse(d["fm"]), P.parse(d["flm"])
        )


def radical_analysis(A: GradedAlgebra):
    """Radical of the degenerate norm over a field base.

    Returns ``(basis, dimension, nilpotency_index)`` where the basis spans
    the three polynomial slots.  Verifies on basis products that the span is
    a two-sided ideal, that its square lands in the top slot, and that its
    cube vanishes.
    """
    if not A.ring.is_field:
        raise BaseNotField(f"radical analysis needs a field base, got {A.ring.kind}")
    rad = A.basis()[1:]  # everything except the unit
    full = A.basis()
    zero = A.zero()

    def in_radical(x):
        return A.ring.is_zero(x.a)

    def in_top_slot(x):
        return (
            A.ring.is_zero(x.a)
            and all(A.ring.is_zero(c) for c in x.fl)
            and all(A.ring.is_zero(c) for c in x.fm)
        )

    for r in rad:
        for b in full:
            if not in_radical(A.mul(r, b)) or not in_radical(A.mul(b, r)):
                raise AssertionError("radical is not an ideal")
    squares = []
    for r1 in rad:
        for r2 in rad:
            p = A.mul(r1, r2)
            if not in_top_slot(p):
                raise AssertionError("rad^2 escapes the top slot")
            if p != zero:
                squares.append(p)
    if not squares:
        raise AssertionError("rad^2 vanished; nilpotency index would be below 3")
    for p in squares:
        for r in rad:
            if A.mul(p, r) != zero or A.mul(r, p) != zero:
                raise AssertionError("rad^3 is nonzero")
    return rad, len(rad), 3


def embed_into_col_split(A: GradedAlgebra):
    """The containing split colour algebra over R[t_0..t_n] and the embedding.

    Returns ``(col, embed)`` with ``embed(x)`` a ColSplitElement whose column
    slots carry (f_l, f_m, 0) and whose dual slots carry (0, 0, f_{l+m}).
    """
    P = A.poly
    col = ColSplitAlgebra(P, P.one)

    def embed(x: GradedElement) -> ColSplitElement:
        fl, fm, flm = A.polys_of(x)
        a = P.smul(x.a, P.one)
        return ColSplitElement(a, (fl, fm, P.zero), (P.zero, P.zero, flm))

    return col, embed
