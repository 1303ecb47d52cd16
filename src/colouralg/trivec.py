"""Rank-3 modules: cross products, trivializations, hermitian spaces.

Column vectors and row functionals are 3-tuples of coefficient payloads; the
coefficient object (a ring or an etale algebra) is passed explicitly, so the
same helpers serve T = R^3 and P = S^3.

A trivialization is a unit scalar ``lam`` weighting the determinant; it turns
the classical cross product into the twisted product T x T -> dual(T),
``u x v = lam * cross(u, v)`` read as a functional.  The dual module carries
the inverse scalar (forced by pairing the two top exterior powers).

A hermitian space is a rank-3 module over a quadratic etale S together with a
Gram matrix H (conjugate-symmetric, unit determinant) and a trivialization
scalar ``alpha`` with n_S(alpha) * det(H) = 1.  The form is conjugate-linear
in the first slot::

    h(u, v) = sum_ij conj(u_i) H_ij v_j

and the hermitian cross product is the unique p = v x w with

    h(p, u) = alpha * det(u | v | w)   for all u,

concretely ``p = conj(H^-T (alpha * C))`` where C is the classical cross
product of (v, w).  H^-T is cof(H) / det(H), and row i of the cofactor matrix
cof(H) is the classical cross product of the other two Gram rows, so the whole
construction runs on that one product, over any ring.

Both run on the nonzero entries of H and H^-T, kept as sparse rows: a unit
entry is added as it is, a conjugation-fixed one scaled by its R value
(``S.smul``), any other multiplied in S.  So ``h(u, v) = sum_i conj(u_i)
(H v)_i`` takes 3 S-products plus one per general entry of H, and ``cross``
the 6 of C, one per general entry of H^-T and 3 for alpha unless alpha is
one.  ``alpha`` is read on every call, never folded into the rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Degenerate, DeterminantNotTrivial, NotAUnit, NotHermitian
from .etale import EtaleAlgebra
from .rings import Ring

__all__ = [
    "vec_add",
    "vec_sub",
    "vec_neg",
    "vec_smul",
    "vec_conj",
    "classical_cross",
    "pairing",
    "mat_vec",
    "mat_det",
    "mat_cofactor",
    "mat_identity",
    "mat_smul",
    "Trivialization",
    "HermitianSpace",
]


# ------------------------------------------------------------- vectors
# tuples from lists: a tuple built from an iterator is allocated larger and shrunk

def vec_add(K, u, v):
    return tuple([K.add(a, b) for a, b in zip(u, v)])


def vec_sub(K, u, v):
    return tuple([K.sub(a, b) for a, b in zip(u, v)])


def vec_neg(K, u):
    return tuple([K.neg(a) for a in u])


def vec_smul(K, s, u):
    return tuple([K.mul(s, a) for a in u])


def vec_conj(S: EtaleAlgebra, u):
    return tuple([S.conj(a) for a in u])


def classical_cross(K, u, v):
    """(u x v)_k = sum_ij eps_ijk u_i v_j with eps_123 = 1."""
    return (
        K.sub(K.mul(u[1], v[2]), K.mul(u[2], v[1])),
        K.sub(K.mul(u[2], v[0]), K.mul(u[0], v[2])),
        K.sub(K.mul(u[0], v[1]), K.mul(u[1], v[0])),
    )


def pairing(K, u, ud):
    """Canonical evaluation <u, ud> = sum_i ud_i u_i."""
    t = K.zero
    for a, b in zip(u, ud):
        t = K.add(t, K.mul(b, a))
    return t


# ------------------------------------------------------------- matrices
# 3x3 matrices are tuples of three row tuples.

def mat_identity(K):
    z, o = K.zero, K.one
    return ((o, z, z), (z, o, z), (z, z, o))


def mat_vec(K, M, x):
    return tuple(
        K.add(K.add(K.mul(M[i][0], x[0]), K.mul(M[i][1], x[1])), K.mul(M[i][2], x[2]))
        for i in range(3)
    )


def mat_smul(K, s, M):
    return tuple(tuple(K.mul(s, M[i][j]) for j in range(3)) for i in range(3))


def mat_det(K, M):
    """Row 0 paired with the cross product of rows 1 and 2; det is transpose-invariant, so
    ``mat_det(K, (u, v, w))`` is det(u | v | w)."""
    return pairing(K, M[0], classical_cross(K, M[1], M[2]))


def mat_cofactor(K, M):
    """Row i is the cross product of rows i + 1 and i + 2 (mod 3), so M cof(M)^T = det(M) I over any ring."""
    return tuple(classical_cross(K, M[(i + 1) % 3], M[(i + 2) % 3]) for i in range(3))


def _sparse_rows(S: EtaleAlgebra, M):
    """M's rows as (j, c, fixed) per nonzero entry: c None for a unit entry (added as it is), else
    the R value of a conjugation-fixed entry (``fixed``, applied by ``S.smul``) or the entry itself
    (applied by ``S.mul``).  No op is stored: ``_apply_rows`` looks them up on each call, so a
    wrapper installed on S's class sees every product."""
    rows = []
    for row in M:
        entries = []
        for j, g in enumerate(row):
            if not S.is_zero(g):
                fixed = S.conj(g) == g
                entries.append((j, None if g == S.one else S.as_scalar(g) if fixed else g, fixed))
        rows.append(tuple(entries))
    return tuple(rows)


def _apply_rows(S: EtaleAlgebra, rows, x):
    """M x from the rows of ``_sparse_rows``; an invertible M has no empty row."""
    add, smul, mul = S.add, S.smul, S.mul
    out = []
    for row in rows:
        t = None
        for j, c, fixed in row:
            y = x[j] if c is None else smul(c, x[j]) if fixed else mul(c, x[j])
            t = y if t is None else add(t, y)
        out.append(t)
    return out


# ------------------------------------------------------- trivializations


@dataclass(frozen=True)
class Trivialization:
    """alpha(u ^ v ^ w) = lam * det(u | v | w) on T = R^3; lam a unit."""

    ring: Ring
    lam: object

    def __post_init__(self):
        if not self.ring.is_unit(self.lam):
            raise NotAUnit("trivialization scalar must be a unit")

    def cross(self, u, v):
        """Twisted product T x T -> dual(T), coordinates lam * (u x v)."""
        return vec_smul(self.ring, self.lam, classical_cross(self.ring, u, v))

    def dual(self) -> "Trivialization":
        """The trivialization beta of the dual module, with scalar lam^-1.

        Pinned by alpha(u1^u2^u3) * beta(ud1^ud2^ud3) = det(<u_i, ud_j>) on
        the standard bases, where the pairing matrix is the identity.
        """
        return Trivialization(self.ring, self.ring.inv(self.lam))


# ------------------------------------------------------- hermitian space


class HermitianSpace:
    """Free rank-3 hermitian space (P, h) over S with trivialization alpha."""

    def __init__(self, S: EtaleAlgebra, gram, alpha):
        gram = tuple(tuple(row) for row in gram)
        for i in range(3):
            for j in range(3):
                if gram[j][i] != S.conj(gram[i][j]):
                    raise NotHermitian(
                        f"gram[{j}][{i}] != conj(gram[{i}][{j}])"
                    )
        det = mat_det(S, gram)
        if not S.is_unit(det):
            raise Degenerate(f"det(H) = {S.format(det)} is not a unit")
        n_alpha = S.norm(alpha)
        prod = S.ring.mul(n_alpha, S.as_scalar(det))
        if prod != S.ring.one:
            raise DeterminantNotTrivial(
                f"n_S(alpha) * det(H) = {S.ring.format(prod)} != 1"
            )
        self.S = S
        self.ring = S.ring
        self.gram = gram
        self.alpha = alpha
        self.det = det
        # H and H^-T = cof(H) / det(H) on their nonzero entries
        self._gram_rows = _sparse_rows(S, gram)
        self._hinv_t_rows = _sparse_rows(S, mat_smul(S, S.inv(det), mat_cofactor(S, gram)))

    def h(self, u, v):
        """h(u, v) = sum_i conj(u_i) (H v)_i; conjugate-linear in u."""
        S = self.S
        conj, mul = S.conj, S.mul
        hv = _apply_rows(S, self._gram_rows, v)
        return S.add(S.add(mul(conj(u[0]), hv[0]), mul(conj(u[1]), hv[1])), mul(conj(u[2]), hv[2]))

    def cross(self, v, w):
        """Hermitian cross product: the unique p with h(p,u) = alpha*det(u|v|w)."""
        S = self.S
        c = classical_cross(S, v, w)
        if self.alpha != S.one:
            c = vec_smul(S, self.alpha, c)
        return vec_conj(S, _apply_rows(S, self._hinv_t_rows, c))

    def bilinear(self, u, v):
        """The symmetric R-bilinear form n(u,v) = h(u,v) + conj(h(u,v))."""
        return self.S.trace(self.h(u, v))

    def norm_vec(self, v):
        """n(v) = h(v, v), conjugation-fixed, returned as an R payload."""
        return self.S.as_scalar(self.h(v, v))

    def basis(self):
        return list(mat_identity(self.S))

    def sample_vec(self, rng):
        S = self.S
        n = S.n
        if n:  # the six draws of three ``S.sample`` calls, in their order
            d = rng.next_u64
            return ((d() % n, d() % n), (d() % n, d() % n), (d() % n, d() % n))
        return tuple(S.sample(rng) for _ in range(3))

    def __eq__(self, other):
        return (
            isinstance(other, HermitianSpace)
            and other.S == self.S
            and other.gram == self.gram
            and other.alpha == self.alpha
        )
