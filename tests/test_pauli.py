"""Matrix realization of F2 + F4^m vectors and its parity shortcuts."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from stbc_forge.bundles import silver_stbc
from stbc_forge.constructions import catalog, catalog_names
from stbc_forge.design import to_linear_design
from stbc_forge.fdfgd import family
from stbc_forge.f4 import O, I, W, W2, F4Vec, zero, delta, enumerate_all
from stbc_forge.pauli import (I2, X, Z, ZX, TOL, psi_inv, phi_inv, phi,
                              phi_signed, is_hermitian_parity,
                              anticommute_parity, hr_orthogonal_numeric,
                              hr_orthogonal_table, sign_patterns, trace_inner,
                              NotInLambdaError)


def kron_reference(v):
    """i^lam * psi_inv(x1) (x) ... (x) psi_inv(xm), factor by factor."""
    A = np.array([[1j ** v.lam]])
    for x in v.xs:
        A = np.kron(A, psi_inv(x))
    return A


def all_vectors(m):
    """Every vector of F2 + F4^m, m = 0 included."""
    return [F4Vec(lam, xs) for lam in (0, 1)
            for xs in itertools.product((O, I, W, W2), repeat=m)]


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
    for m in range(5):
        for v in all_vectors(m):
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


@pytest.mark.parametrize("fn", [hr_orthogonal_numeric, trace_inner])
def test_pairwise_checks_refuse_mismatched_sizes(fn):
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        fn(np.eye(2), np.eye(4))


def test_unitarity():
    for v in enumerate_all(2):
        A = phi_inv(v)
        assert np.allclose(A.conj().T @ A, np.eye(4))


@pytest.mark.parametrize("m", range(6))
def test_phi_inv_equals_the_kronecker_product(m):
    for v in all_vectors(m):
        assert np.array_equal(phi_inv(v), kron_reference(v))


def test_phi_inv_equals_the_kronecker_product_at_m8():
    for v in (zero(8), delta(8), F4Vec(1, (I, W, W2, O) * 2),
              F4Vec(0, (W2,) * 8), F4Vec(1, (W, I, I, W2, O, W, W2, I)),
              F4Vec(1, tuple(np.int8(x) for x in (I,) * 7 + (W2,)))):
        assert np.array_equal(phi_inv(v), kron_reference(v))
    with pytest.raises(ValueError, match="m > 8 unsupported"):
        phi_inv(zero(9))


def test_phi_signed_accepts_noise_below_tol():
    rng = np.random.default_rng(12)
    for v in all_vectors(3):
        A = phi_inv(v)
        noise = 0.4 * TOL * np.exp(2j * np.pi * rng.random(A.shape))
        assert phi_signed(A + noise) == (v, 1)
        assert phi_signed(-A + noise) == (v, -1)


def test_phi_signed_rejects_an_entry_moved_by_twice_tol():
    for v in all_vectors(2)[::5]:
        A = phi_inv(v)
        for r, c in itertools.product(range(4), repeat=2):
            for step in (2 * TOL, 2j * TOL):
                B = A.copy()
                B[r, c] += step
                with pytest.raises(NotInLambdaError):
                    phi_signed(B)


def test_phi_signed_rejects_a_cyclic_shift():
    # a permutation matrix, but r -> r + 1 mod 4 is no r -> r ^ lo
    for shift in (1, 3):
        with pytest.raises(NotInLambdaError):
            phi_signed(np.roll(np.eye(4), shift, axis=1))


def test_phi_signed_on_diagonal_signs_accepts_only_characters():
    # diag(s_r) is +-phi_inv(v) iff s_r = +-(-1)^popcount(r & hi) for some hi
    characters = {tuple((-1) ** bin(r & hi).count("1") for r in range(4))
                  for hi in range(4)}
    for signs in itertools.product((1, -1), repeat=4):
        D = np.diag(np.array(signs, dtype=complex))
        if signs in characters or tuple(-s for s in signs) in characters:
            v, sign = phi_signed(D)
            assert np.array_equal(sign * phi_inv(v), D)
        else:
            with pytest.raises(NotInLambdaError):
                phi_signed(D)


def test_phi_signed_rejects_nan():
    for v in all_vectors(2)[::7]:
        for r, c in ((0, 0), (1, 2), (3, 3)):
            A = phi_inv(v)
            A[r, c] = np.nan
            with pytest.raises(NotInLambdaError):
                phi_signed(A)


def test_phi_signed_rejects_bad_shapes_and_m_above_8():
    for shape in ((), (2, 3), (3, 3)):
        with pytest.raises(NotInLambdaError, match="is not 2\\^m square"):
            phi_signed(np.ones(shape, dtype=complex))
    with pytest.raises(NotInLambdaError, match="m=9.*m <= 8"):
        phi_signed(np.eye(512))


def _symmetries(A):
    """Reference: the sign pattern of every X -> P V(X) P^H, P a Pauli
    Z^hi X^lo and V the identity, transposition, conjugation or both,
    that sends each A_k to exactly +-A_k, by matrix products."""
    N = A.shape[-1]
    out = set()
    for hi in range(N):
        for lo in range(N):
            P = np.zeros((N, N))
            for r in range(N):
                P[r, r ^ lo] = (-1) ** (r & hi).bit_count()
            for V in (lambda B: B, lambda B: B.T, np.conj,
                      lambda B: B.conj().T):
                T = [P @ V(B) @ P.T for B in A]
                if all(np.array_equal(t, B) or np.array_equal(t, -B)
                       for t, B in zip(T, A)):
                    out.add(tuple(not np.array_equal(t, B)
                                  for t, B in zip(T, A)))
    return out


@pytest.mark.parametrize("m", [1, 2])
def test_sign_patterns_are_the_symmetries_of_the_stack(m):
    # every realization at m = 1, a sample at m = 2, against matrix
    # products; a one-ulp change of one entry loses the symmetries that
    # negate or move it; a stack of N = 3, which no Pauli acts on, keeps
    # the identity alone
    A = np.stack([phi_inv(v) for v in all_vectors(m)[::3]])
    got = sign_patterns(A)
    assert set(map(tuple, got.tolist())) == _symmetries(A)
    assert (False,) * len(A) in _symmetries(A)
    B = A.copy()
    B[0, 0, 0] = np.nextafter(B[0, 0, 0].real, 2) + 1j * B[0, 0, 0].imag
    fewer = set(map(tuple, sign_patterns(B).tolist()))
    assert fewer == _symmetries(B) and len(fewer) < len(_symmetries(A))
    C = np.stack([np.eye(3), np.diag([1.0, -1.0, 1.0])])
    assert sign_patterns(C).tolist() == [[False, False]]


def _hr_reference(A, tol=TOL):
    """The HR-orthogonality table as one einsum of every pair's product
    A_i^H A_j, the form hr_orthogonal_table replaced."""
    A = np.asarray(A, dtype=complex)
    P = np.einsum("iab,jac->ijbc", A.conj(), A)
    return np.linalg.norm(P + P.transpose(1, 0, 2, 3), axis=(2, 3)) < tol


# integer parameters of each catalog design, as perfbench builds them
_CATALOG_PARAMS = {"rate1_2x2": {"l": 1}, "scod": {"m": 3}, "ciod": {"m": 3},
                   "precoded_ciod": {"n": 2}, "dast": {"n": 2},
                   "ggroup": {"g": 4, "a": 1}}


def _hr_stacks():
    """Every catalog design, family m=2..4 at R = 1, 5/4 and 2, and
    Silver's folded R=2 stack, by name."""
    stacks = {name: catalog(name, **_CATALOG_PARAMS.get(name, {}))
              .linear.matrices() for name in catalog_names()}
    for m, R in itertools.product((2, 3, 4), (1, Fraction(5, 4), 2)):
        stacks["family m=%d R=%s" % (m, R)] = to_linear_design(
            family(m, R).design()).matrices()
    stacks["silver folded R=2"] = silver_stbc(4, 2).matrices
    return stacks


def test_hr_table_equals_the_pairwise_reference():
    # one product and its block transpose give the einsum's table on every
    # stack the package builds
    for name, A in _hr_stacks().items():
        got = hr_orthogonal_table(A)
        assert got.dtype == bool and np.array_equal(got, _hr_reference(A)), \
            name


@pytest.mark.parametrize("seed", range(4))
def test_hr_table_equals_the_reference_near_tol(seed):
    # A_0 = U unitary and A_j = U (iI + e_j H_j), H_j Hermitian of unit
    # norm: A_0^H A_j + A_j^H A_0 = 2 e_j H_j, planted at norm 0.5 TOL
    # (orthogonal) or 2 TOL (not); pairs j, k >= 1 sum to about 2I
    rng = np.random.default_rng(seed)
    N, K = (2, 4, 8)[seed % 3], 9
    U, _ = np.linalg.qr(rng.normal(size=(N, N))
                        + 1j * rng.normal(size=(N, N)))
    small = rng.random(K - 1) < 0.5
    A = [U]
    for s in small:
        H = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        H = H + H.conj().T
        H /= np.linalg.norm(H)
        A.append(U @ (1j * np.eye(N) + (0.25 if s else 1.0) * TOL * H))
    order = rng.permutation(K)
    A = np.stack(A)[order]
    got = hr_orthogonal_table(A)
    assert np.array_equal(got, _hr_reference(A))
    first = int(np.flatnonzero(order == 0)[0])
    want = np.concatenate([[False], small])[order]
    assert np.array_equal(got[first], want)
    assert np.array_equal(got[:, first], want)
