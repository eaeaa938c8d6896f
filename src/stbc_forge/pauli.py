"""Realization of F2 + F4^m vectors as 2^m x 2^m complex matrices.

The four 2x2 generators are

    psi_inv: 0 -> I2,  1 -> iX,  w -> iZ,  w2 -> ZX

and a vector v = [lam | x1,...,xm] maps to

    phi_inv(v) = i^lam * psi_inv(x1) (x) ... (x) psi_inv(xm).

Each image is Z^hi X^lo up to a power of i (the binary symplectic
picture of GF(4) codes).  With bit m-1-k for coordinate k (x1 most
significant, as in f4.code), lo has the bit set when x_k in {1, w2} and
hi when x_k in {w, w2}, and row r has one nonzero entry,

    phi_inv(v)[r, r ^ lo] = i^(lam + #{k : x_k in {1, w}}) * (-1)^popcount(r & hi).

phi_signed(A) reads lo, hi, lam and a sign back from rows 0 and 2^s and
returns (v, sign) when A is within TOL of sign * phi_inv(v) entrywise.

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
    one matrix product (design.even_table).
"""

from functools import cache

import numpy as np

from .f4 import O, I, W, W2, MAX_M, F4Vec, weight

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
ZX = Z @ X  # [[0,1],[-1,0]]

_PSI_INV = {O: I2, I: 1j * X, W: 1j * Z, W2: ZX}

TOL = 1e-9
# i^k for k = 0..3, and the (lam, sign) with sign * i^lam == i^k
_POWERS = np.array([1, 1j, -1, -1j])
_LAM_SIGN = ((0, 1), (1, 1), (0, -1), (1, -1))


class NotInLambdaError(ValueError):
    """Matrix is not the realization of any vector (e.g. it is a negative)."""


def psi_inv(e):
    """2x2 realization of a single GF(4) element."""
    return _PSI_INV[e].copy()


@cache
def _rows(m):
    """Row indices r < 2^m and 2 * popcount(r), the exponent of i in
    (-1)^popcount(r)."""
    r = range(1 << m)
    return np.array(r), 2 * np.array([k.bit_count() for k in r])


def phi_inv(v):
    """i^lam scaled Kronecker product of the coordinate realizations, as
    one scatter of row r's entry into column r ^ lo."""
    if v.m > MAX_M:
        raise ValueError("m > %d unsupported" % MAX_M)
    lo = hi = 0
    for x in map(int, v.xs):
        lo = lo << 1 | x & 1
        hi = hi << 1 | x >> 1
    r, twice_popcount = _rows(v.m)
    A = np.zeros((r.size, r.size), dtype=complex)
    A[r, r ^ lo] = _POWERS[(v.lam + (lo ^ hi).bit_count()
                            + twice_popcount[r & hi]) % 4]
    return A


def phi_signed(A):
    """(vector, sign) with A within TOL of sign * phi_inv(vector), sign in
    {+1,-1}."""
    A = np.asarray(A, dtype=complex)
    n = A.shape[0] if A.ndim else 0
    if n < 1 or A.shape != (n, n) or n & (n - 1):
        raise NotInLambdaError("shape %r is not 2^m square" % (A.shape,))
    m = n.bit_length() - 1
    if m > MAX_M:
        raise NotInLambdaError("shape %r is m=%d; realizations stop at m <= %d"
                               % (A.shape, m, MAX_M))
    lo = int(np.abs(A[0]).argmax())
    a0 = A[0, lo]
    hi = sum(r for r in (1 << s for s in range(m))
             if (A[r, r ^ lo] * a0.conjugate()).real < 0)
    k = int(np.abs(_POWERS - a0).argmin()) - (lo ^ hi).bit_count()
    lam, sign = _LAM_SIGN[k % 4]
    v = F4Vec(lam, tuple((hi >> s & 1) << 1 | lo >> s & 1
                         for s in range(m - 1, -1, -1)))
    if np.abs(sign * phi_inv(v) - A).max() < TOL:
        return v, sign
    raise NotInLambdaError("matrix matches no realization at m=%d" % m)


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
    """A^H B + B^H A vanishes: entry (0, 1) of the pair's table."""
    if A.shape != B.shape:
        raise ValueError("dimension mismatch")
    return hr_orthogonal_table([A, B], tol)[0, 1]


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
