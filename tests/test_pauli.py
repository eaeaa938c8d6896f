"""Matrix realization of F2 + F4^m vectors and its parity shortcuts."""

import numpy as np
import pytest

from stbc_forge.f4 import O, I, W, W2, F4Vec, zero, delta, enumerate_all
from stbc_forge.pauli import (I2, X, Z, ZX, psi_inv, phi_inv, phi, phi_signed,
                              is_hermitian_parity, anticommute_parity,
                              hr_orthogonal_numeric, trace_inner,
                              NotInLambdaError)


def test_generators():
    assert np.allclose(psi_inv(O), I2)
    assert np.allclose(psi_inv(I), 1j * X)
    assert np.allclose(psi_inv(W), 1j * Z)
    assert np.allclose(psi_inv(W2), ZX)
    assert np.allclose(ZX, np.array([[0, 1], [-1, 0]]))


def test_phi_inv_fixtures():
    assert np.allclose(phi_inv(zero(3)), np.eye(8))
    # i * (iX)x(iX) = -i * XxX
    assert np.allclose(phi_inv(F4Vec(1, (I, I))), -1j * np.kron(X, X))
    # (iZ)x(iZ) = -ZxZ
    assert np.allclose(phi_inv(F4Vec(0, (W, W))), -np.kron(Z, Z))
    assert np.allclose(phi_inv(delta(2)), 1j * np.eye(4))


def test_phi_round_trip_exhaustive():
    for m in (1, 2, 3):
        for v in enumerate_all(m):
            A = phi_inv(v)
            assert phi(A) == v
            assert phi_signed(A) == (v, 1)
            assert phi_signed(-A) == (v, -1)


def test_phi_rejects_negatives():
    for v in enumerate_all(2)[:8]:
        with pytest.raises(NotInLambdaError):
            phi(-phi_inv(v))


def test_phi_rejects_non_members():
    with pytest.raises(NotInLambdaError):
        phi(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
    with pytest.raises(NotInLambdaError):
        phi(np.ones((2, 3), dtype=complex))


def test_phi_signed():
    for v in enumerate_all(2)[:8]:
        A = phi_inv(v)
        assert phi_signed(A) == (v, 1)
        assert phi_signed(-A) == (v, -1)


def test_images_distinct():
    for m in (1, 2):
        mats = [phi_inv(v) for v in enumerate_all(m)]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                assert np.abs(mats[i] - mats[j]).max() > 0.5
                assert np.abs(mats[i] + mats[j]).max() > 0.5  # no negatives


def test_hermitian_parity_exhaustive():
    for m in (1, 2, 3):
        for v in enumerate_all(m):
            A = phi_inv(v)
            numeric = np.abs(A - A.conj().T).max() < 1e-9
            assert is_hermitian_parity(v) == numeric


def test_hr_orthogonality_parity_exhaustive():
    for m in (1, 2):
        vs = enumerate_all(m)
        mats = [phi_inv(v) for v in vs]
        for i, vi in enumerate(vs):
            for j, vj in enumerate(vs):
                assert (anticommute_parity(vi, vj)
                        == hr_orthogonal_numeric(mats[i], mats[j]))


def test_trace_inner_orthonormal_basis():
    for m in (1, 2):
        vs = enumerate_all(m)
        mats = [phi_inv(v) for v in vs]
        for i in range(len(vs)):
            for j in range(len(vs)):
                want = 2 ** m if i == j else 0.0
                assert abs(trace_inner(mats[i], mats[j]) - want) < 1e-9


def test_unitarity():
    for v in enumerate_all(2):
        A = phi_inv(v)
        assert np.allclose(A.conj().T @ A, np.eye(4))
