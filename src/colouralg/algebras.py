"""The algebra families built from trivialized rank-3 modules.

Split families over (R, lam), writing x (cross) for the lam-twisted product
on T and its lam^-1-twisted dual on dual(T):

* ``ColSplitAlgebra``  rank 7 on R + T + dual(T)::

      (a,u,ud)(b,v,vd) = (ab + (1/2)(<u,vd> + <v,ud>),
                          av + bu - ud x vd,
                          b ud + a vd + u x v)

  with norm a^2 - <u,ud> and trace 2a.  The half weight on the pairing terms
  is what makes the quadratic relation x^2 - t(x)x + n(x)1 = 0 hold.

* ``ZornAlgebra``  rank 8 vector matrices [[a, u], [ud, a']] with norm
  aa' - <u,ud>; the split octonion algebra (norm composes).

* ``WSplitAlgebra``  rank 6, the multiplication of the split colour algebra
  projected onto T + dual(T): (u,ud)(v,vd) = (-(ud x vd), u x v), with
  norm -<u,ud>.

Hermitian families over a space (S, P, h, alpha) with cross product x:

* ``CayleyAlgebra``    rank 8 on S + P:
  (a,u)(b,v) = (ab - h(v,u), av + conj(b)u + u x v), norm n_S(a) + h(u,u);
  an octonion algebra with scalar involution (conj(a), -u).
* ``ColHermAlgebra``   rank 7 on R + P:
  (a,u)(b,v) = (ab - (1/2)(h(u,v)+conj h(u,v)), av + bu + u x v),
  norm a^2 + h(u,u), trace 2a.
* ``WHermAlgebra``     rank 6, (P, x) with norm h(v,v).

Element model.  Every family is an ``Algebra`` built from a *layout*: its
element dataclass and that dataclass's slots in field order.  A slot is
``(field, K, width)`` with K the coefficient object (the base ring R, or the
etale algebra S, whose elements are pairs of R payloads) and ``width`` None
for a field holding one coefficient or n for an n-tuple of them.  From the
layout the base derives everything that is not the family's own maths:

* the module structure: ``zero``, ``one`` (the ``unit`` fields set to K's
  one; a family is unital when it names any), ``add``, ``sub``, ``neg`` and
  ``smul`` (by an R payload), slot by slot;
* draw order: ``sample_coords`` makes ``rank`` base-ring samples in field
  order, one per R coefficient (two per S coefficient), and permutes them
  once into coordinate order; ``sample`` is its element, so every stream is
  fixed by the layout;
* coordinate order: ``coords`` and ``from_coords``
  run over the slots in ``coord_order`` (field order unless given; Zorn's
  fields are a, u, ud, ap but its coordinates a, ap, u, ud), within a slot
  vector index first, then S component;
* basis order: slots in coordinate order, within a slot S component first,
  then vector index (hence the hermitian labels p11, p12, p13, p21, ...);
* ``rank``, ``basis`` and the element JSON: one key per field, an
  R coefficient as its ring string and an S coefficient as a pair of them.

From the norm the base derives the quadratic structure: every unital family
here satisfies x^2 - t(x)x + n(x)1 = 0, so ``trace`` is the norm's polar form
at the unit, t(x) = n(x + 1) - n(x) - n(1), and ``involution`` is
x-bar = t(x)1 - x.  On a family without a unit both raise ``WrongRing`` from
``one``.

A family supplies its constructor, which builds the layout from its data,
and its maths: ``mul``, ``norm`` and ``basis_labels``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate, chain, repeat
from operator import attrgetter, itemgetter

from .errors import NotTraceZero, WrongRing
from .etale import EtaleAlgebra
from .rings import IntegersMod, Ring, spec_key
from .trivec import (
    HermitianSpace,
    Trivialization,
    pairing,
    vec_add,
    vec_neg,
    vec_smul,
    vec_sub,
)

__all__ = [
    "Algebra",
    "ColSplitElement",
    "ZornElement",
    "CayElement",
    "ColHermElement",
    "WSplitElement",
    "WHermElement",
    "ColSplitAlgebra",
    "ZornAlgebra",
    "CayleyAlgebra",
    "ColHermAlgebra",
    "WSplitAlgebra",
    "WHermAlgebra",
    "quadratic_decompose",
    "vector_product_of_quadratic",
]


# ------------------------------------------------------------- elements


@dataclass(frozen=True)
class ColSplitElement:
    a: object
    u: tuple
    ud: tuple


@dataclass(frozen=True)
class ZornElement:
    a: object
    u: tuple
    ud: tuple
    ap: object


@dataclass(frozen=True)
class CayElement:
    a: tuple
    u: tuple


@dataclass(frozen=True)
class ColHermElement:
    a: object
    u: tuple


@dataclass(frozen=True)
class WSplitElement:
    u: tuple
    ud: tuple


@dataclass(frozen=True)
class WHermElement:
    u: tuple


# ------------------------------------------------------------- the base


class Algebra:
    """Element plumbing derived from a layout; see the module docstring."""

    family: str

    def __init__(self, ring: Ring, element: type, slots, unit=(), coord_order=None):
        self.ring = ring
        self._n = ring.n if isinstance(ring, IntegersMod) else 0  # the fused draw's modulus (``sample_coords``)
        self.element = element
        self.unital = bool(unit)
        self._slots = [(name, K, n, isinstance(K, EtaleAlgebra)) for name, K, n in slots]
        by_name = {s[0]: s for s in self._slots}
        width = {name: (n or 1) * (2 if pair else 1) for name, _, n, pair in self._slots}
        drawn = dict(zip(by_name, accumulate(width.values(), initial=0)))  # a slot's first draw
        # coordinate slots carry their [start, stop) range in the coordinate tuple
        self._coord_slots, start, order = [], 0, []
        for name in coord_order or by_name:
            name, K, n, pair = by_name[name]
            self._coord_slots.append((name, K, n, pair, start, start + width[name]))
            start += width[name]
            order.extend(range(drawn[name], drawn[name] + width[name]))
        self.rank = start
        self._draw_to_coords = itemgetter(*order)  # field-order draws -> coordinate tuple
        # (getter, coefficient op, vector?) per slot, for the hot module operations
        parts = [(attrgetter(name), K, pair, n is not None) for name, K, n, pair in self._slots]
        self._add = [(get, K.add, vec) for get, K, _, vec in parts]
        self._sub = [(get, K.sub, vec) for get, K, _, vec in parts]
        self._neg = [(get, K.neg, vec) for get, K, _, vec in parts]
        self._smul = [(get, K.smul if pair else K.mul, vec) for get, K, pair, vec in parts]
        # elements are frozen and ring payloads shared, so zero and one are built once
        self._zero = element(*[K.zero if n is None else (K.zero,) * n for _, K, n, _ in self._slots])
        self._one = replace(self._zero, **{name: by_name[name][1].one for name in unit})

    def zero(self):
        return self._zero

    def one(self):
        if not self.unital:
            raise WrongRing(f"{self.family} has no unit")
        return self._one

    def trace(self, x):
        """The norm's polar form at the unit, t(x) = n(x + 1) - n(x) - n(1)."""
        R, one = self.ring, self.one()
        return R.sub(R.sub(self.norm(self.add(x, one)), self.norm(x)), self.norm(one))

    def involution(self, x):
        """The scalar involution x-bar = t(x) 1 - x."""
        return self.sub(self.smul(self.trace(x), self.one()), x)

    # tuples from lists: a tuple built from an iterator is allocated larger and shrunk
    def add(self, x, y):
        return self.element(
            *[tuple([*map(op, get(x), get(y))]) if vec else op(get(x), get(y)) for get, op, vec in self._add]
        )

    def sub(self, x, y):
        return self.element(
            *[tuple([*map(op, get(x), get(y))]) if vec else op(get(x), get(y)) for get, op, vec in self._sub]
        )

    def neg(self, x):
        return self.element(*[tuple([*map(op, get(x))]) if vec else op(get(x)) for get, op, vec in self._neg])

    def smul(self, r, x):
        """Scale by an R payload."""
        return self.element(
            *[tuple([*map(op, repeat(r), get(x))]) if vec else op(r, get(x)) for get, op, vec in self._smul]
        )

    def sample(self, rng):
        return self.from_coords(self.sample_coords(rng))

    def sample_coords(self, rng):
        """A draw's coordinate tuple: ``rank`` base-ring samples in field order, permuted once.  Over Z/n
        each is ``rng.next_u64() % n``, the draw of ``IntegersMod.sample``."""
        n = self._n
        if n:
            draw = rng.next_u64
            return self._draw_to_coords([draw() % n for _ in range(self.rank)])
        sample = self.ring.sample
        return self._draw_to_coords([sample(rng) for _ in range(self.rank)])

    def coords(self, x):
        out = []
        for name, _, n, pair, _, _ in self._coord_slots:
            cells = (getattr(x, name),) if n is None else getattr(x, name)
            out.extend(chain.from_iterable(cells) if pair else cells)
        return tuple(out)

    def from_coords(self, c):
        values = {}
        for name, _, n, pair, lo, hi in self._coord_slots:
            cells = tuple(zip(c[lo:hi:2], c[lo + 1 : hi : 2])) if pair else tuple(c[lo:hi])
            values[name] = cells[0] if n is None else cells
        return self.element(**values)

    def basis(self):
        R = self.ring
        out = []
        for name, K, n, pair, _, _ in self._coord_slots:
            for comp in range(2 if pair else 1):
                one = tuple(R.one if k == comp else R.zero for k in range(2)) if pair else R.one
                for i in range(n or 1):
                    cell = one if n is None else tuple(one if k == i else K.zero for k in range(n))
                    out.append(replace(self._zero, **{name: cell}))
        return out

    def element_to_json(self, x):
        out = {}
        for name, K, n, pair in self._slots:
            fmt = K.to_json if pair else K.format
            v = getattr(x, name)
            out[name] = fmt(v) if n is None else [fmt(c) for c in v]
        return out

    def element_from_json(self, d):
        values = {}
        for name, K, n, pair in self._slots:
            parse = K.from_json if pair else K.parse
            v = spec_key(d, name, f"a {self.family} element")
            if n is None:
                values[name] = parse(v)
            elif isinstance(v, list) and len(v) == n:
                values[name] = tuple(parse(c) for c in v)
            else:
                raise WrongRing(f"{self.family} element field {name!r} must be a list of {n} coefficients")
        return self.element(**values)


# ------------------------------------------------------------- split families


class ColSplitAlgebra(Algebra):
    family = "col_split"

    def __init__(self, ring: Ring, lam):
        self.lam = lam
        self.alpha = Trivialization(ring, lam)
        self.beta = self.alpha.dual()
        self._half = ring.inv(ring.of_int(2))
        super().__init__(ring, ColSplitElement, [("a", ring, None), ("u", ring, 3), ("ud", ring, 3)], unit=["a"])

    def mul(self, x, y):
        R = self.ring
        diag = R.add(
            R.mul(x.a, y.a),
            R.mul(self._half, R.add(pairing(R, x.u, y.ud), pairing(R, y.u, x.ud))),
        )
        t_part = vec_sub(
            R,
            vec_add(R, vec_smul(R, x.a, y.u), vec_smul(R, y.a, x.u)),
            self.beta.cross(x.ud, y.ud),
        )
        d_part = vec_add(
            R,
            vec_add(R, vec_smul(R, y.a, x.ud), vec_smul(R, x.a, y.ud)),
            self.alpha.cross(x.u, y.u),
        )
        return ColSplitElement(diag, t_part, d_part)

    def norm(self, x):
        R = self.ring
        return R.sub(R.mul(x.a, x.a), pairing(R, x.u, x.ud))

    def basis_labels(self):
        return ["1", "u1", "u2", "u3", "v1", "v2", "v3"]


class ZornAlgebra(Algebra):
    family = "zorn"

    def __init__(self, ring: Ring, lam):
        self.lam = lam
        self.alpha = Trivialization(ring, lam)
        self.beta = self.alpha.dual()
        super().__init__(
            ring,
            ZornElement,
            [("a", ring, None), ("u", ring, 3), ("ud", ring, 3), ("ap", ring, None)],
            unit=["a", "ap"],
            coord_order=["a", "ap", "u", "ud"],
        )

    def mul(self, x, y):
        R = self.ring
        s1 = R.add(R.mul(x.a, y.a), pairing(R, x.u, y.ud))
        s2 = R.add(pairing(R, y.u, x.ud), R.mul(x.ap, y.ap))
        t_part = vec_sub(
            R,
            vec_add(R, vec_smul(R, x.a, y.u), vec_smul(R, y.ap, x.u)),
            self.beta.cross(x.ud, y.ud),
        )
        d_part = vec_add(
            R,
            vec_add(R, vec_smul(R, y.a, x.ud), vec_smul(R, x.ap, y.ud)),
            self.alpha.cross(x.u, y.u),
        )
        return ZornElement(s1, t_part, d_part, s2)

    def norm(self, x):
        R = self.ring
        return R.sub(R.mul(x.a, x.ap), pairing(R, x.u, x.ud))

    def basis_labels(self):
        return ["e11", "e22", "u1", "u2", "u3", "v1", "v2", "v3"]


class WSplitAlgebra(Algebra):
    """Anticommutative rank-6 algebra (u,ud)(v,vd) = (-(ud x vd), u x v)."""

    family = "w_split"

    def __init__(self, ring: Ring, lam):
        self.lam = lam
        self.alpha = Trivialization(ring, lam)
        self.beta = self.alpha.dual()
        super().__init__(ring, WSplitElement, [("u", ring, 3), ("ud", ring, 3)])

    def mul(self, x, y):
        R = self.ring
        return WSplitElement(
            vec_neg(R, self.beta.cross(x.ud, y.ud)),
            self.alpha.cross(x.u, y.u),
        )

    def norm(self, x):
        return self.ring.neg(pairing(self.ring, x.u, x.ud))

    def basis_labels(self):
        return ["u1", "u2", "u3", "v1", "v2", "v3"]


# --------------------------------------------------------- hermitian families


class CayleyAlgebra(Algebra):
    """Octonion algebra S + P from a rank-3 hermitian space."""

    family = "cay_hermitian"

    def __init__(self, space: HermitianSpace):
        self.space = space
        self.S = S = space.S
        super().__init__(space.ring, CayElement, [("a", S, None), ("u", S, 3)], unit=["a"])

    def mul(self, x, y):
        S, P = self.S, self.space
        sc = S.sub(S.mul(x.a, y.a), P.h(y.u, x.u))
        vec = vec_add(
            S,
            vec_add(S, vec_smul(S, x.a, y.u), vec_smul(S, S.conj(y.a), x.u)),
            P.cross(x.u, y.u),
        )
        return CayElement(sc, vec)

    def norm(self, x):
        return self.ring.add(self.S.norm(x.a), self.space.norm_vec(x.u))

    def basis_labels(self):
        s0, s1 = ("e1", "e2") if self.S.kind == "split" else ("1", "s")
        return [s0, s1] + [f"{p}{i}" for p in (s0 + ".", s1 + ".") for i in (1, 2, 3)]


class ColHermAlgebra(Algebra):
    """Rank-7 flexible quadratic algebra R + P from a hermitian space."""

    family = "col_hermitian"

    def __init__(self, space: HermitianSpace):
        self.space = space
        self.S = space.S
        R = space.ring
        self._half = R.inv(R.of_int(2))
        super().__init__(R, ColHermElement, [("a", R, None), ("u", space.S, 3)], unit=["a"])

    def mul(self, x, y):
        R, S, P = self.ring, self.S, self.space
        sc = R.sub(R.mul(x.a, y.a), R.mul(self._half, P.bilinear(x.u, y.u)))
        vec = vec_add(
            S,
            vec_add(
                S,
                vec_smul(S, S.scalar(x.a), y.u),
                vec_smul(S, S.scalar(y.a), x.u),
            ),
            P.cross(x.u, y.u),
        )
        return ColHermElement(sc, vec)

    def norm(self, x):
        R = self.ring
        return R.add(R.mul(x.a, x.a), self.space.norm_vec(x.u))

    def basis_labels(self):
        return ["1"] + [f"p{comp}{i}" for comp in (1, 2) for i in (1, 2, 3)]


class WHermAlgebra(Algebra):
    """The vector algebra (P, x) of the hermitian construction."""

    family = "w_hermitian"

    def __init__(self, space: HermitianSpace):
        self.space = space
        self.S = space.S
        super().__init__(space.ring, WHermElement, [("u", space.S, 3)])

    def mul(self, x, y):
        return WHermElement(self.space.cross(x.u, y.u))

    def norm(self, x):
        return self.space.norm_vec(x.u)

    def basis_labels(self):
        return [f"p{comp}{i}" for comp in (1, 2) for i in (1, 2, 3)]


# --------------------------------------------- quadratic-algebra helpers


def quadratic_decompose(A, x):
    """Split x = r*1 + x0 with trace(x0) = 0; returns (r, x0) = (t(x)/2, ...)."""
    if not A.unital:
        raise WrongRing(f"{A.family} has no unit; cannot decompose")
    R = A.ring
    r = R.mul(R.inv(R.of_int(2)), A.trace(x))
    x0 = A.sub(x, A.smul(r, A.one()))
    return (r, x0)


def vector_product_of_quadratic(A, x0, y0):
    """Product of trace-zero parts projected back onto the trace-zero module.

    For trace-zero x0, y0 the product decomposes as
    x0*y0 = -(1/2) n(x0,y0) 1 + x0 X y0 with n the polarized norm.
    """
    R = A.ring
    if A.trace(x0) != R.zero or A.trace(y0) != R.zero:
        raise NotTraceZero("vector product requires trace-zero arguments")
    p = A.mul(x0, y0)
    _, proj = quadratic_decompose(A, p)
    return proj
