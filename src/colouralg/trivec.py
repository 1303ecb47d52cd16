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

concretely ``p = conj(H^-T (alpha * C))`` where C is the classical cofactor
column of (v, w).
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
    "det3",
    "mat_vec",
    "mat_mul",
    "mat_transpose",
    "mat_conj",
    "mat_det",
    "mat_adjugate",
    "mat_identity",
    "mat_smul",
    "Trivialization",
    "HermitianSpace",
]


# ------------------------------------------------------------- vectors

def vec_add(K, u, v):
    return tuple(K.add(a, b) for a, b in zip(u, v))


def vec_sub(K, u, v):
    return tuple(K.sub(a, b) for a, b in zip(u, v))


def vec_neg(K, u):
    return tuple(K.neg(a) for a in u)


def vec_smul(K, s, u):
    return tuple(K.mul(s, a) for a in u)


def vec_conj(S: EtaleAlgebra, u):
    return tuple(S.conj(a) for a in u)


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


def det3(K, u, v, w):
    """Determinant of the column matrix (u | v | w)."""
    return pairing(K, u, classical_cross(K, v, w))


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


def mat_mul(K, A, B):
    return tuple(
        tuple(
            K.add(K.add(K.mul(A[i][0], B[0][j]), K.mul(A[i][1], B[1][j])), K.mul(A[i][2], B[2][j]))
            for j in range(3)
        )
        for i in range(3)
    )


def mat_transpose(M):
    return tuple(tuple(M[j][i] for j in range(3)) for i in range(3))


def mat_conj(S: EtaleAlgebra, M):
    return tuple(tuple(S.conj(M[i][j]) for j in range(3)) for i in range(3))


def mat_smul(K, s, M):
    return tuple(tuple(K.mul(s, M[i][j]) for j in range(3)) for i in range(3))


def mat_det(K, M):
    cols = mat_transpose(M)
    return det3(K, cols[0], cols[1], cols[2])


def mat_adjugate(K, M):
    """Adjugate matrix: M * adj(M) = det(M) * I.  Valid over any ring."""

    def cof(i, j):
        rows = [r for r in range(3) if r != i]
        cols = [c for c in range(3) if c != j]
        a = M[rows[0]][cols[0]]
        b = M[rows[0]][cols[1]]
        c = M[rows[1]][cols[0]]
        d = M[rows[1]][cols[1]]
        m = K.sub(K.mul(a, d), K.mul(b, c))
        return m if (i + j) % 2 == 0 else K.neg(m)

    return tuple(tuple(cof(j, i) for j in range(3)) for i in range(3))


def mat_inv(K, M):
    """Inverse via adjugate over det; requires det(M) to be a unit."""
    d = mat_det(K, M)
    if not K.is_unit(d):
        raise NotAUnit("matrix determinant is not a unit")
    dinv = K.inv(d)
    return mat_smul(K, dinv, mat_adjugate(K, M))


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
        # H^-T, precomputed via the adjugate (valid over rings with zero divisors)
        self._hinv_t = mat_transpose(mat_smul(S, S.inv(det), mat_adjugate(S, gram)))

    def h(self, u, v):
        """h(u, v) = sum_ij conj(u_i) H_ij v_j; conjugate-linear in u."""
        S = self.S
        t = S.zero
        for i in range(3):
            ci = S.conj(u[i])
            for j in range(3):
                t = S.add(t, S.mul(S.mul(ci, self.gram[i][j]), v[j]))
        return t

    def cross(self, v, w):
        """Hermitian cross product: the unique p with h(p,u) = alpha*det(u|v|w)."""
        S = self.S
        c = classical_cross(S, v, w)
        return vec_conj(S, mat_vec(S, self._hinv_t, vec_smul(S, self.alpha, c)))

    def bilinear(self, u, v):
        """The symmetric R-bilinear form n(u,v) = h(u,v) + conj(h(u,v))."""
        x = self.h(u, v)
        return self.S.as_scalar(self.S.add(x, self.S.conj(x)))

    def norm_vec(self, v):
        """n(v) = h(v, v), conjugation-fixed, returned as an R payload."""
        return self.S.as_scalar(self.h(v, v))

    def basis(self):
        S = self.S
        z, o = S.zero, S.one
        return [(o, z, z), (z, o, z), (z, z, o)]

    def sample_vec(self, rng):
        S = self.S
        return tuple(S.sample(rng) for _ in range(3))

    def gram_to_json(self):
        return [[self.S.to_json(e) for e in row] for row in self.gram]

    def __eq__(self, other):
        return (
            isinstance(other, HermitianSpace)
            and other.S == self.S
            and other.gram == self.gram
            and other.alpha == self.alpha
        )
