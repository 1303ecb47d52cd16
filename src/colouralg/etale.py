"""Quadratic etale algebras S over a base ring R.

Two families cover all test configurations:

* ``SplitTorus(R)``        -- R x R with componentwise operations and the
  swap involution; the norm n((a,b)) = ab is isotropic.
* ``KummerExtension(R,d)`` -- R[x]/(x^2 - d) for a unit d, elements a + b*sqrt(d)
  with conjugation a - b*sqrt(d).

Elements are pairs ``(a, b)`` of base-ring payloads in both cases, matching
the wire format ``["a", "b"]``.  Since S is commutative, the canonical
involution is a ring automorphism, and norm and trace land in R.
"""

from __future__ import annotations

from .errors import BadSpec, NotAUnit, WrongRing
from .rings import Ring

__all__ = ["EtaleAlgebra", "SplitTorus", "KummerExtension", "make_etale"]


class EtaleAlgebra:
    """Common handle interface; elements are pairs of R payloads."""

    kind: str

    def __init__(self, ring: Ring):
        self.ring = ring
        self.zero = (ring.zero, ring.zero)

    # pair-wise structure shared by both families --------------------
    def add(self, x, y):
        R = self.ring
        return (R.add(x[0], y[0]), R.add(x[1], y[1]))

    def sub(self, x, y):
        R = self.ring
        return (R.sub(x[0], y[0]), R.sub(x[1], y[1]))

    def neg(self, x):
        R = self.ring
        return (R.neg(x[0]), R.neg(x[1]))

    def smul(self, r, x):
        """Scale by a base-ring payload."""
        R = self.ring
        return (R.mul(r, x[0]), R.mul(r, x[1]))

    def is_zero(self, x):
        return x == self.zero

    def norm(self, x):
        """n_S(x) = x * conj(x), as a base-ring payload."""
        return self.as_scalar(self.mul(x, self.conj(x)))

    def trace(self, x):
        """t_S(x) = x + conj(x), as a base-ring payload."""
        return self.as_scalar(self.add(x, self.conj(x)))

    def norm_trace(self, x):
        return (self.norm(x), self.trace(x))

    def is_unit(self, x) -> bool:
        return self.ring.is_unit(self.norm(x))

    def inv(self, x):
        n = self.norm(x)
        if not self.ring.is_unit(n):
            raise NotAUnit(f"{self.format(x)} is not a unit in {self.kind}")
        return self.smul(self.ring.inv(n), self.conj(x))

    def sample(self, rng):
        return (self.ring.sample(rng), self.ring.sample(rng))

    def elements(self):
        for a in self.ring.elements():
            for b in self.ring.elements():
                yield (a, b)

    @property
    def size(self):
        return None if self.ring.size is None else self.ring.size ** 2

    def format(self, x) -> str:
        return f"({self.ring.format(x[0])}, {self.ring.format(x[1])})"

    def to_json(self, x) -> list[str]:
        return [self.ring.format(x[0]), self.ring.format(x[1])]

    def from_json(self, data) -> tuple:
        if not isinstance(data, (list, tuple)) or len(data) != 2:
            raise WrongRing("etale element must be a pair of ring-element strings")
        return (self.ring.parse(data[0]), self.ring.parse(data[1]))

    # family-specific -------------------------------------------------
    def mul(self, x, y):
        raise NotImplementedError

    def conj(self, x):
        raise NotImplementedError

    def scalar(self, r):
        """Embed a base-ring payload into S."""
        raise NotImplementedError

    def as_scalar(self, x):
        """Extract a conjugation-fixed element back into R."""
        raise NotImplementedError


class SplitTorus(EtaleAlgebra):
    kind = "split"

    def __init__(self, ring: Ring):
        super().__init__(ring)
        self.one = (ring.one, ring.one)

    def mul(self, x, y):
        R = self.ring
        return (R.mul(x[0], y[0]), R.mul(x[1], y[1]))

    def conj(self, x):
        return (x[1], x[0])

    def scalar(self, r):
        return (r, r)

    def as_scalar(self, x):
        if x[0] != x[1]:
            raise WrongRing(f"{self.format(x)} is not conjugation-fixed")
        return x[0]

    def to_spec(self):
        return {"kind": "split"}

    def __eq__(self, other):
        return type(other) is SplitTorus and other.ring == self.ring

    def __hash__(self):
        return hash(("split", self.ring))


class KummerExtension(EtaleAlgebra):
    """R[sqrt(d)] for a unit d; etale because 2 is invertible in R."""

    kind = "kummer"

    def __init__(self, ring: Ring, d):
        if not ring.is_unit(d):
            raise NotAUnit(f"kummer parameter {ring.format(d)} is not a unit")
        super().__init__(ring)
        self.d = d
        self.one = (ring.one, ring.zero)

    def mul(self, x, y):
        R = self.ring
        a, b = x
        c, e = y
        return (
            R.add(R.mul(a, c), R.mul(self.d, R.mul(b, e))),
            R.add(R.mul(a, e), R.mul(b, c)),
        )

    def conj(self, x):
        return (x[0], self.ring.neg(x[1]))

    def scalar(self, r):
        return (r, self.ring.zero)

    def as_scalar(self, x):
        if not self.ring.is_zero(x[1]):
            raise WrongRing(f"{self.format(x)} is not conjugation-fixed")
        return x[0]

    def to_spec(self):
        return {"kind": "kummer", "d": self.ring.format(self.d)}

    def __eq__(self, other):
        return type(other) is KummerExtension and other.ring == self.ring and other.d == self.d

    def __hash__(self):
        return hash(("kummer", self.ring))


def make_etale(ring: Ring, spec: dict) -> EtaleAlgebra:
    """Build S from ``{"kind":"split"}`` or ``{"kind":"kummer","d":"3"}``."""
    if not isinstance(spec, dict):
        raise BadSpec(f"an etale spec must be an object, got {spec!r}")
    kind = spec.get("kind")
    if kind == "split":
        return SplitTorus(ring)
    if kind == "kummer":
        return KummerExtension(ring, ring.parse(str(spec["d"])))
    raise WrongRing(f"unknown etale kind {kind!r}")
