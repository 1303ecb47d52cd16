"""Exact arithmetic over the supported base rings.

Four families are implemented, all with 2 invertible:

* ``RationalField``  -- arbitrary-precision fractions,
* ``PrimeField(p)``  -- Z/p for an odd prime p,
* ``IntegersMod(n)`` -- Z/n for odd n >= 3 (n may be composite, e.g. 15),
* ``PolynomialRing(base, vars)`` -- sparse multivariate polynomials over one
  of the above.

A ring is a *handle*: it owns ``zero``/``one`` and the operations, while
elements are plain payloads (``Fraction``, ``int`` residue in ``[0, n)``, or
a sparse ``{exponent-tuple: coefficient}`` dict with no zero coefficients).
Payload equality is structural, so ``==`` decides element equality.

Element grammar (whitespace insignificant)::

    element  :=  ['-'] term (('+' | '-') term)*
    term     :=  factor ('*' factor)*
    factor   :=  INT ['/' INT]  |  VAR ['^' INT]

Fractions are legal in modular rings when the denominator is a unit
(``"1/2"`` parses to 8 in Z/15).  Formatting is canonical; parsing the
formatted string returns the identical payload.  Polynomials print in
descending graded-lexicographic order (t0 > t1 > ...).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Iterator

from .errors import BadPrime, BadSpec, EvenModulus, NotAUnit, ParseError, WrongRing

__all__ = [
    "Ring",
    "RationalField",
    "IntegersMod",
    "PrimeField",
    "PolynomialRing",
    "make_ring",
    "spec_int",
    "monomials_of_degree",
]


# --------------------------------------------------------------------------
# tokenizer shared by every ring's parser

_TOKEN = re.compile(r"(?P<ws>\s+)|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^])")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    """Generic sum-of-terms parser; ring subclasses supply the literals."""

    def __init__(self, ring: "Ring", text: str):
        self.ring = ring
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, -1)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse(self):
        ring = self.ring
        if not self.tokens:
            raise ParseError("empty element text", 0)
        total = ring.zero
        first = True
        while True:
            sign = 1
            kind, val, pos = self.peek()
            if kind == "op" and val in "+-":
                if val == "-":
                    sign = -1
                self.take()
            elif not first:
                raise ParseError(f"expected '+' or '-', got {val!r}", pos)
            value = self.parse_term()
            if sign < 0:
                value = ring.neg(value)
            total = ring.add(total, value)
            first = False
            if self.peek()[0] is None:
                return total

    def parse_term(self):
        ring = self.ring
        value = self.parse_factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                value = ring.mul(value, self.parse_factor())
            else:
                return value

    def parse_factor(self):
        ring = self.ring
        kind, val, pos = self.take()
        if kind == "int":
            num = int(val)
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.take()
                k3, v3, p3 = self.take()
                if k3 != "int":
                    raise ParseError("expected integer denominator", p3)
                return ring._literal_fraction(num, int(v3), pos)
            return ring._literal_int(num)
        if kind == "name":
            exp = 1
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "^":
                self.take()
                k3, v3, p3 = self.take()
                if k3 != "int":
                    raise ParseError("expected integer exponent", p3)
                exp = int(v3)
            return ring._literal_var(val, exp, pos)
        raise ParseError(f"unexpected token {val!r}", pos)


# --------------------------------------------------------------------------


class Ring:
    """Common interface of the ring handles."""

    kind: str
    size: int | None  # number of elements, None when infinite
    is_field: bool

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def of_int(self, k: int):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return a == self.zero

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError

    def parse(self, text: str):
        if not isinstance(text, str):
            raise ParseError(f"element text must be a string, got {text!r}", 0)
        return _Parser(self, text).parse()

    def sample(self, rng):
        """Draw one element from the deterministic stream ``rng``."""
        raise NotImplementedError

    def elements(self) -> Iterator:
        raise NotImplementedError(f"{self.kind} is not enumerable")

    def to_spec(self) -> dict:
        raise NotImplementedError

    # literal hooks for the parser ----------------------------------
    def _literal_int(self, num: int):
        return self.of_int(num)

    def _literal_fraction(self, num: int, den: int, pos: int):
        if den == 0:
            raise ParseError("zero denominator", pos)
        d = self.of_int(den)
        if not self.is_unit(d):
            raise WrongRing(f"denominator {den} is not a unit in {self.kind}")
        return self.mul(self.of_int(num), self.inv(d))

    def _literal_var(self, name: str, exp: int, pos: int):
        raise ParseError(f"variable {name!r} not allowed in {self.kind}", pos)

    def __repr__(self):
        return f"<{type(self).__name__} {self.kind}>"


class RationalField(Ring):
    kind = "Q"
    size = None
    is_field = True

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def of_int(self, k):
        return Fraction(k)

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise NotAUnit("0 is not a unit in Q")
        return 1 / a

    def format(self, a):
        return str(a)

    def sample(self, rng):
        # numerators and denominators bounded by 10
        return Fraction(rng.int_between(-10, 10), rng.int_between(1, 10))

    def to_spec(self):
        return {"kind": "Q"}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")


class IntegersMod(Ring):
    """Z/n with odd modulus n >= 3; residues normalized to [0, n)."""

    is_field = False

    def __init__(self, n: int):
        if n % 2 == 0:
            raise EvenModulus(f"modulus {n} is even, so 2 is not invertible")
        if n < 3:
            raise EvenModulus(f"modulus must be at least 3, got {n}")
        self.n = n
        self.kind = f"Z/{n}"
        self.size = n
        self.zero = 0
        self.one = 1 % n

    def add(self, a, b):
        return (a + b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def of_int(self, k):
        return k % self.n

    def is_unit(self, a):
        return gcd(a % self.n, self.n) == 1

    def inv(self, a):
        try:
            return pow(a, -1, self.n)
        except ValueError:
            raise NotAUnit(f"{a} is not a unit modulo {self.n}") from None

    def format(self, a):
        return str(a % self.n)

    def sample(self, rng):
        return rng.below(self.n)

    def elements(self):
        return iter(range(self.n))

    def to_spec(self):
        return {"kind": "Zmod", "n": self.n}

    def __eq__(self, other):
        return type(other) is type(self) and other.n == self.n

    def __hash__(self):
        return hash((self.kind, self.n))


# The first 13 primes as Miller-Rabin bases decide primality exactly below
# PRIME_LIMIT (Sorenson & Webster, 2015); larger p are refused, not guessed.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def _is_odd_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for odd p below ``PRIME_LIMIT``."""
    if p < 3 or p % 2 == 0:
        return False
    if p in _MR_BASES:
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField(IntegersMod):
    is_field = True

    def __init__(self, p: int):
        if p >= PRIME_LIMIT:
            raise BadPrime(f"{p} is too large: primality is decided exactly only below {PRIME_LIMIT}")
        if not _is_odd_prime(p):
            raise BadPrime(f"{p} is not an odd prime")
        super().__init__(p)
        self.kind = f"F{p}"
        self.p = p

    def to_spec(self):
        return {"kind": "Fp", "p": self.p}


def monomials_of_degree(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, grlex-descending."""
    out: list[tuple[int, ...]] = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, nvars)
    return out


class PolynomialRing(Ring):
    """Sparse multivariate polynomials over Q, F_p, or Z/n.

    Payloads are dicts mapping exponent tuples (one entry per variable) to
    nonzero base coefficients; the empty dict is zero.  Units are the
    constant polynomials with a unit constant.
    """

    size = None
    is_field = False

    def __init__(self, base: Ring, variables: list[str]):
        if isinstance(base, PolynomialRing):
            raise WrongRing("polynomial base ring must not itself be polynomial")
        if not variables:
            raise WrongRing("polynomial ring needs at least one variable")
        if len(set(variables)) != len(variables):
            raise WrongRing("duplicate variable names")
        self.base = base
        self.variables = list(variables)
        self.nvars = len(variables)
        self._var_index = {v: i for i, v in enumerate(variables)}
        self.kind = f"{base.kind}[{','.join(variables)}]"
        self.zero = {}
        self.one = {(0,) * self.nvars: base.one}

    def _norm(self, d: dict) -> dict:
        return {e: c for e, c in d.items() if not self.base.is_zero(c)}

    def add(self, a, b):
        out = dict(a)
        for e, c in b.items():
            s = self.base.add(out.get(e, self.base.zero), c)
            if self.base.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return out

    def neg(self, a):
        return {e: self.base.neg(c) for e, c in a.items()}

    def mul(self, a, b):
        out: dict = {}
        base = self.base
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = base.add(out.get(e, base.zero), base.mul(c1, c2))
                if base.is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return out

    def of_int(self, k):
        c = self.base.of_int(k)
        return {} if self.base.is_zero(c) else {(0,) * self.nvars: c}

    def smul(self, c, a):
        """Multiply by a base-ring coefficient."""
        if self.base.is_zero(c):
            return {}
        return self._norm({e: self.base.mul(c, x) for e, x in a.items()})

    def is_unit(self, a):
        if len(a) != 1:
            return False
        (e, c), = a.items()
        return e == (0,) * self.nvars and self.base.is_unit(c)

    def inv(self, a):
        if not self.is_unit(a):
            raise NotAUnit(f"{self.format(a)} is not a unit in {self.kind}")
        (_, c), = a.items()
        return {(0,) * self.nvars: self.base.inv(c)}

    def var(self, name: str):
        e = [0] * self.nvars
        e[self._var_index[name]] = 1
        return {tuple(e): self.base.one}

    def degree(self, a) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in a), default=-1)

    def is_homogeneous(self, a, degree: int) -> bool:
        return all(sum(e) == degree for e in a)

    def homogeneous_component(self, a, degree: int):
        return {e: c for e, c in a.items() if sum(e) == degree}

    def coefficient(self, a, exps: tuple[int, ...]):
        return a.get(exps, self.base.zero)

    def _monomial_str(self, exps) -> str:
        parts = []
        for v, e in zip(self.variables, exps):
            if e == 1:
                parts.append(v)
            elif e > 1:
                parts.append(f"{v}^{e}")
        return "*".join(parts)

    def format(self, a):
        if not a:
            return "0"
        terms = []
        for e in sorted(a, key=lambda e: (sum(e), e), reverse=True):
            c = a[e]
            mono = self._monomial_str(e)
            if not mono:
                terms.append(self.base.format(c))
            elif c == self.base.one:
                terms.append(mono)
            elif c == self.base.neg(self.base.one):
                terms.append(f"-{mono}")
            else:
                terms.append(f"{self.base.format(c)}*{mono}")
        return " + ".join(terms).replace("+ -", "- ")

    def sample(self, rng):
        # a few low-degree terms; coefficients drawn from the base stream
        out = {}
        for _ in range(rng.below(3) + 1):
            exps = tuple(rng.below(3) for _ in range(self.nvars))
            out = self.add(out, {exps: self.base.sample(rng)})
        return out

    def to_spec(self):
        return {"kind": "poly", "base": self.base.to_spec(), "vars": list(self.variables)}

    # parser hooks ---------------------------------------------------
    def _literal_int(self, num):
        return self.of_int(num)

    def _literal_fraction(self, num, den, pos):
        c = self.base._literal_fraction(num, den, pos)
        return {} if self.base.is_zero(c) else {(0,) * self.nvars: c}

    def _literal_var(self, name, exp, pos):
        if name not in self._var_index:
            raise ParseError(f"unknown variable {name!r}", pos)
        e = [0] * self.nvars
        e[self._var_index[name]] = exp
        return {tuple(e): self.base.one}

    def __eq__(self, other):
        return (
            type(other) is PolynomialRing
            and other.base == self.base
            and other.variables == self.variables
        )

    def __hash__(self):
        return hash((self.kind, tuple(self.variables)))


# --------------------------------------------------------------------------


def make_ring(spec: dict) -> Ring:
    """Build a ring handle from its JSON spec.

    ``{"kind":"Q"}``, ``{"kind":"Fp","p":7}``, ``{"kind":"Zmod","n":15}`` or
    ``{"kind":"poly","base":{...},"vars":["t0","t1"]}``.
    """
    if not isinstance(spec, dict):
        raise BadSpec(f"a ring spec must be an object, got {spec!r}")
    kind = spec.get("kind")
    if kind == "Q":
        return RationalField()
    if kind == "Fp":
        return PrimeField(spec_int(spec, "p"))
    if kind == "Zmod":
        return IntegersMod(spec_int(spec, "n"))
    if kind == "poly":
        names = spec["vars"]
        if not (isinstance(names, list) and all(isinstance(v, str) for v in names)):
            raise BadSpec(f"'vars' must be a list of variable names, got {names!r}")
        return PolynomialRing(make_ring(spec["base"]), names)
    raise WrongRing(f"unknown ring kind {kind!r}")


def spec_int(spec: dict, key: str, default=None) -> int:
    """The integer field ``key`` of a JSON spec (``default`` when absent).

    Floats, strings and booleans are rejected rather than truncated or
    coerced, so ``"p": 7.5`` is an error instead of F7.
    """
    value = spec.get(key, default)
    if type(value) is not int:
        raise BadSpec(f"{key!r} must be an integer, got {value!r}")
    return value
