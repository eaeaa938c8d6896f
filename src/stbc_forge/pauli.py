"""Realization of F2 + F4^m vectors as 2^m x 2^m complex matrices.

The four 2x2 generators are

    psi_inv: 0 -> I2,  1 -> iX,  w -> iZ,  w2 -> ZX

and a vector v = [lam | x1,...,xm] maps to

    phi_inv(v) = i^lam * psi_inv(x1) (x) ... (x) psi_inv(xm).

The 2*4^m images form a real-linear basis of the 2^m x 2^m matrices;
together with their negatives they exhaust the Pauli group.  Key parity
facts used throughout:

  * phi_inv(v) is Hermitian  iff  weight(v) is even,
  * A^H B + B^H A = 0        iff  weight(phi(A) + phi(B)) is odd,
  * Re Tr(A^H B) = 2^m * 1{A == B},
  * weight(a + b) = weight(a) + weight(b) + <a, b>  (mod 2), where
    <a, b> = sum_k hi_k(a) lo_k(b) + lo_k(a) hi_k(b) over the two bits
    (hi, lo) of each coordinate is the symplectic (trace) form of GF(4)
    codes; it makes the HR-orthogonality parity of all pairs of a design
    one matrix product (design._even_table).
"""

import numpy as np

from .f4 import O, I, W, W2, F4Vec, weight

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
ZX = Z @ X  # [[0,1],[-1,0]]

_PSI_INV = {O: I2, I: 1j * X, W: 1j * Z, W2: ZX}

TOL = 1e-9
# the scalars a 1x1 realization may carry: (value, lam, sign)
_SCALARS = ((1, 0, 1), (1j, 1, 1), (-1, 0, -1), (-1j, 1, -1))


class NotInLambdaError(ValueError):
    """Matrix is not the realization of any vector (e.g. it is a negative)."""


def psi_inv(e):
    """2x2 realization of a single GF(4) element."""
    return _PSI_INV[e].copy()


def phi_inv(v):
    """i^lam scaled Kronecker product of the coordinate realizations."""
    if v.m > 8:
        raise ValueError("m > 8 unsupported")
    A = np.array([[1j ** v.lam]])
    for x in v.xs:
        A = np.kron(A, _PSI_INV[x])
    return A


def _extract(A):
    """Recursive per-factor identification of A = sign * phi_inv(v).

    Returns (lam, coords, sign) with sign in {+1, -1}, or None.
    """
    n = A.shape[0]
    if n == 1:
        s = A[0, 0]
        for value, lam, sign in _SCALARS:
            if abs(s - value) < TOL:
                return lam, (), sign
        return None
    h = n // 2
    b00, b01 = A[:h, :h], A[:h, h:]
    b10, b11 = A[h:, :h], A[h:, h:]
    off = max(np.abs(b01).max(), np.abs(b10).max())
    if off < TOL:
        # diagonal factor: I2 (blocks equal) or iZ (blocks negated, i folded)
        if np.abs(b00 - b11).max() < TOL:
            sub, factor = b00, O
        elif np.abs(b00 + b11).max() < TOL:
            sub, factor = -1j * b00, W
        else:
            return None
    else:
        # antidiagonal factor: iX (blocks equal) or ZX (blocks negated)
        if np.abs(b01 - b10).max() < TOL:
            sub, factor = -1j * b01, I
        elif np.abs(b01 + b10).max() < TOL:
            sub, factor = b01, W2
        else:
            return None
    inner = _extract(sub)
    if inner is None:
        return None
    lam, rest, sign = inner
    return lam, (factor,) + rest, sign


def phi_signed(A):
    """(vector, sign) with A == sign * phi_inv(vector), sign in {+1,-1}."""
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    if n < 1 or A.shape != (n, n) or n & (n - 1):
        raise NotInLambdaError("shape %r is not 2^m square" % (A.shape,))
    got = _extract(A)
    if got is not None:
        lam, xs, sign = got
        v = F4Vec(lam, xs)
        if np.abs(sign * phi_inv(v) - A).max() < TOL:
            return v, sign
    raise NotInLambdaError("matrix matches no realization at m=%d"
                           % (n.bit_length() - 1))


def phi(A):
    """Inverse of phi_inv; raises NotInLambdaError when no vector matches
    (a negated realization included)."""
    v, sign = phi_signed(A)
    if sign < 0:
        raise NotInLambdaError("matrix is a negated realization")
    return v


def is_hermitian_parity(v):
    """Hermitian iff even weight."""
    return weight(v) % 2 == 0


def anticommute_parity(v1, v2):
    """A^H B + B^H A = 0 iff the vector sum has odd weight."""
    return weight(v1 + v2) % 2 == 1


def hr_orthogonal_numeric(A, B, tol=TOL):
    if A.shape != B.shape:
        raise ValueError("dimension mismatch")
    return np.linalg.norm(A.conj().T @ B + B.conj().T @ A) < tol


def hr_orthogonal_table(A, tol=TOL):
    """(K, K) bool table of a (K, N, N) stack: entry (i, j) is True when
    A_i^H A_j + A_j^H A_i vanishes (an HR-orthogonal pair)."""
    A = np.asarray(A, dtype=complex)
    P = np.einsum("iab,jac->ijbc", A.conj(), A)
    return np.linalg.norm(P + P.transpose(1, 0, 2, 3), axis=(2, 3)) < tol


def trace_inner(A, B):
    """Re Tr(A^H B); equals 2^m * 1{A == B} on realizations."""
    if A.shape != B.shape:
        raise ValueError("dimension mismatch")
    return float(np.real(np.trace(A.conj().T @ B)))
