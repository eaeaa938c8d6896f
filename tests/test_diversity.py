"""Cubic shaping, rotation search, certification and constellation growth."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stbc_forge.design import LinearDesign, LDEntry, to_linear_design
from stbc_forge.constructions import catalog, construct_A, XI_ORDERS
from stbc_forge.diversity import (generator_matrix, cubic_shaping_check,
                                  rotation_search, full_diversity_check,
                                  grow_constellation, grow_with_pam_prefix,
                                  difference_classes, DiversityCapError,
                                  DET_TOL, DIFF_CAP, TIE_RTOL,
                                  _prior_differences, _qam_diffs,
                                  _laurent_coefficients, _pair_dets)
from stbc_forge.fdfgd import build_base, puncture, extend, family_pairs
from stbc_forge.pauli import phi_inv
from stbc_forge.signalset import (pam_points, qam_signal_set, SignalSet,
                                  BlockValues)
from stbc_forge.simulate import STBCInstance
from stbc_forge.bundles import (alamouti_stbc, qod4_stbc, assemble_stbc,
                                silver_stbc)


E11 = np.diag([1.0, 0.0]).astype(complex)
E22 = np.diag([0.0, 1.0]).astype(complex)


def _random_orthogonal(K, seed):
    rng = np.random.default_rng(seed)
    Q, _r = np.linalg.qr(rng.standard_normal((K, K)))
    return Q


@pytest.mark.parametrize("name,params", [
    ("alamouti", {}), ("qod4", {}), ("scod", {"m": 2}),
    ("ciod", {"m": 2}), ("fgd_ren", {}), ("rate1_2x2", {"l": 1}),
])
def test_cubic_shaping_catalog(name, params):
    entry = catalog(name, **params)
    ld = to_linear_design(entry.design)
    gm = generator_matrix(ld)
    assert cubic_shaping_check(gm)
    # Gram is exactly 2^m I
    want = 2 ** entry.design.m * np.eye(ld.K)
    assert np.abs(gm.gram() - want).max() < 1e-9
    # still scalar for any orthogonal symbol rotation
    gmq = generator_matrix(ld, Q=_random_orthogonal(ld.K, 42))
    assert cubic_shaping_check(gmq)


def test_cubic_shaping_constructed():
    d = construct_A(catalog("qod4").design, 2)
    gm = generator_matrix(to_linear_design(d))
    assert cubic_shaping_check(gm)


def test_generator_matrix_q_validation():
    ld = to_linear_design(catalog("alamouti").design)
    with pytest.raises(ValueError):
        generator_matrix(ld, Q=np.eye(3))
    with pytest.raises(ValueError):
        generator_matrix(ld, Q=2 * np.eye(4))


def test_cubic_shaping_negative():
    # scaling one column breaks the scalar Gram
    ld = to_linear_design(catalog("alamouti").design)
    entries = list(ld.entries)
    entries[0] = LDEntry(label="x1", matrix=2.0 * entries[0].matrix)
    bad = LinearDesign(m=1, entries=tuple(entries))
    assert not cubic_shaping_check(generator_matrix(bad))


# ---------------------------------------------------------------------------
# rotation search on the 2x2 single-symbol-decodable diagonal design

def _ciod_pairs():
    # X = diag(x1 + i x2, x3 + i x4) paired across the diagonal:
    # complex symbol 1 -> (E11, E22), complex symbol 2 -> (iE11, iE22)
    return ((E11, E22), (1j * E11, 1j * E22))


def test_unrotated_diagonal_design_not_full_diversity():
    (A1, A2), (A3, A4) = _ciod_pairs()
    entries = tuple(LDEntry(label="x%d" % (k + 1), matrix=A)
                    for k, A in enumerate((A1, A2, A3, A4)))
    lin = LinearDesign(m=1, entries=entries)
    stbc = STBCInstance(linear=lin,
                        signals=qam_signal_set(((0, 1), (2, 3)), 4))
    assert full_diversity_check(stbc) < DET_TOL  # zero diagonal difference


def test_rotation_search_fixes_diagonal_design():
    (A1, A2), (A3, A4) = _ciod_pairs()
    prior = [np.zeros((2, 2), complex)]
    th1 = rotation_search(prior, A1, A2, 4)
    pam = pam_points(2)
    z1 = np.exp(1j * th1) * np.array([a + 1j * b for a in pam for b in pam])
    prior = [z.real * A1 + z.imag * A2 for z in z1]
    th2 = rotation_search(prior, A3, A4, 4)
    entries = tuple(LDEntry(label="x%d" % (k + 1), matrix=A)
                    for k, A in enumerate((A1, A2, A3, A4)))
    lin = LinearDesign(m=1, entries=entries)
    stbc = STBCInstance(linear=lin,
                        signals=qam_signal_set(((0, 1), (2, 3)), 4,
                                               (th1, th2)))
    assert full_diversity_check(stbc) > DET_TOL


# ---------------------------------------------------------------------------
# rotation search against a brute-force reference

def _qam_points(M):
    pam = pam_points(int(round(M ** 0.5)))
    return np.array([a + 1j * b for a in pam for b in pam])


def _extend(prior, A1, A2, M, theta):
    z = np.exp(1j * theta) * _qam_points(M)
    return [C + zz.real * A1 + zz.imag * A2 for C in prior for zz in z]


def _brute_force_angle(prior, A1, A2, M, grid_size=720):
    """Smallest maximiser over the full (0, 2pi] grid of the min |det| of
    all codeword pairs of the extended code, by direct determinants."""
    thetas = 2 * np.pi * np.arange(1, grid_size + 1) / grid_size
    mins = []
    for th in thetas:
        C = np.asarray(_extend(prior, A1, A2, M, th))
        i, j = np.triu_indices(len(C), 1)
        mins.append(np.abs(np.linalg.det(C[i] - C[j])).min())
    mins = np.asarray(mins)
    return float(thetas[np.argmax(mins >= mins.max() * (1 - TIE_RTOL))])


def _family_pairs_matrices(fd):
    A = [phi_inv(v) for v in fd.vectors]
    return [(A[i], A[j]) for i, j in family_pairs(fd)]


def test_rotation_search_matches_brute_force_family():
    # priors of 1, 4 and 16 codewords
    prior = [np.zeros((4, 4), complex)]
    for A1, A2 in _family_pairs_matrices(build_base(2))[:3]:
        th = rotation_search(prior, A1, A2, 4)
        assert th == _brute_force_angle(prior, A1, A2, 4)
        assert 0 < th <= np.pi / 2
        prior = _extend(prior, A1, A2, 4, th)


def test_rotation_search_matches_brute_force_ciod():
    prior = [np.zeros((2, 2), complex)]
    for A1, A2 in _ciod_pairs():
        th = rotation_search(prior, A1, A2, 4)
        assert th == _brute_force_angle(prior, A1, A2, 4)
        prior = _extend(prior, A1, A2, 4, th)


def test_rotation_search_grid_not_divisible_by_four():
    # no pi/2 shortcut on such a grid; the answer is still the reference's
    (A1, A2), _second = _ciod_pairs()
    prior = [np.zeros((2, 2), complex)]
    assert rotation_search(prior, A1, A2, 4, 90) == \
        _brute_force_angle(prior, A1, A2, 4, 90)


def test_rotation_search_rejects_failing_prior():
    # the prior's own difference diag(1, 0) is singular at every angle
    (A1, A2), _second = _ciod_pairs()
    prior = [np.zeros((2, 2), complex), np.diag([1.0, 0.0]) + 0j]
    with pytest.raises(ValueError, match="no grid angle"):
        rotation_search(prior, A1, A2, 4)


def _interpolation_case(which):
    """(D, w, Bp, Bm) of a family pair over a prior of 1/4/16 codewords,
    or of the second diagonal pair over a 4-codeword prior."""
    if which < 3:
        pairs = _family_pairs_matrices(build_base(2))
        prior = [np.zeros((4, 4), complex)]
        for A1, A2 in pairs[:which]:
            prior = _extend(prior, A1, A2, 4, 0.5)
        A1, A2 = pairs[which]
    else:
        (B1, B2), (A1, A2) = _ciod_pairs()
        prior = _extend([np.zeros((2, 2), complex)], B1, B2, 4, 0.5)
    D = _prior_differences(np.asarray(prior))
    return D, _qam_diffs(4), (A1 - 1j * A2) / 2, (A1 + 1j * A2) / 2


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(which=st.integers(0, 3),
       theta=st.floats(0.0, 2 * np.pi, allow_nan=False))
def test_interpolated_det_equals_direct(which, theta):
    D, w, Bp, Bm = _interpolation_case(which)
    coeffs = _laurent_coefficients(D, w, Bp, Bm)
    L = coeffs.shape[1]
    k = np.fft.fftfreq(L, 1.0 / L)
    interp = coeffs @ np.exp(1j * k * theta)
    direct = _pair_dets(D, np.exp(1j * theta) * w, Bp, Bm).ravel()
    # relative to the polynomial's scale sum |c_k| >= max |det| on the
    # circle: near a root no finite-precision method is relatively exact
    scale = np.abs(coeffs).sum(axis=1)
    assert np.all(np.abs(interp - direct) <= 1e-9 * scale)
    assert abs(np.abs(interp).min() - np.abs(direct).min()) \
        <= 1e-9 * max(np.abs(direct).min(), 1e-3 * scale.max())


def test_rotation_search_rank_deficient_pair():
    with pytest.raises(ValueError, match="rank deficient"):
        rotation_search([np.zeros((2, 2), complex)], E11, 1j * E11, 4)


def test_full_diversity_alamouti():
    assert full_diversity_check(alamouti_stbc(4)) > DET_TOL


# ---------------------------------------------------------------------------
# difference-set certification against every codeword pair

def _pairwise_min_det(stbc):
    C = np.tensordot(stbc.symbol_table, stbc.matrices, axes=(1, 0))
    i, j = np.triu_indices(len(C), 1)
    return float(np.abs(np.linalg.det(C[i] - C[j])).min())


def _family_r1():
    fd = puncture(build_base(2), Fraction(1))
    return assemble_stbc(fd, [0.5] * (fd.K // 2), 4)


@pytest.mark.parametrize("make", [
    lambda: alamouti_stbc(4), qod4_stbc, lambda: silver_stbc(4), _family_r1,
], ids=["alamouti4", "qod4", "silver", "family-r1"])
def test_full_diversity_equals_pairwise(make):
    stbc = make()
    got, want = full_diversity_check(stbc), _pairwise_min_det(stbc)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
    # half the nonzero differences of a product of symmetric sets
    sizes = [len({tuple(np.round(a - b, 9)) for a in u.values()
                  for b in u.values()}) for u in stbc.signals.units]
    assert difference_classes(stbc.signals) == (np.prod(sizes) - 1) // 2


def test_full_diversity_repeated_codeword_is_zero():
    (A1, A2), (A3, A4) = _ciod_pairs()
    lin = LinearDesign(m=1, entries=tuple(
        LDEntry(label="x%d" % (k + 1), matrix=A)
        for k, A in enumerate((A1, A2, A3, A4))))
    rows = ((0.0, 1.0, 0.5, 0.5), (1.0, 0.0, 0.5, 0.5),
            (0.0, 1.0, 0.5, 0.5))
    stbc = STBCInstance(linear=lin, signals=SignalSet(
        units=(BlockValues((0, 1, 2, 3), rows),)))
    assert full_diversity_check(stbc) == 0.0


def test_single_cap_counts_difference_classes():
    fd = extend(build_base(2), Fraction(2))
    stbc = assemble_stbc(fd, [0.5] * (fd.K // 2), 4)
    assert stbc.count == 65536
    assert difference_classes(stbc.signals) == (9 ** 8 - 1) // 2
    assert difference_classes(stbc.signals) > DIFF_CAP
    with pytest.raises(DiversityCapError, match="21523360 difference"):
        full_diversity_check(stbc)
    fd = build_base(2)
    stbc = assemble_stbc(fd, [0.5] * (fd.K // 2), 4)
    assert difference_classes(stbc.signals) == (9 ** 5 - 1) // 2


# ---------------------------------------------------------------------------
# constellation growth

def test_grow_constellation_alamouti():
    ld = to_linear_design(catalog("alamouti").design)
    points = grow_constellation(ld, (2, 2, 2, 2), seed=0)
    assert all(len(p) == 2 for p in points)
    assert all(tuple(sorted(p)) == p for p in points)
    # certify the result independently
    from stbc_forge.diversity import _min_det_from_points
    assert _min_det_from_points(ld.matrices(), [list(p) for p in points]) \
        > DET_TOL


def test_grow_constellation_rejects_singular_matrix():
    entries = (LDEntry(label="x1", matrix=E11),
               LDEntry(label="x2", matrix=E22))
    ld = LinearDesign(m=1, entries=entries)
    with pytest.raises(ValueError, match="singular"):
        grow_constellation(ld, (2, 2))


def test_grow_constellation_size_checks():
    ld = to_linear_design(catalog("alamouti").design)
    with pytest.raises(ValueError):
        grow_constellation(ld, (2, 2))
    with pytest.raises(DiversityCapError):
        grow_constellation(ld, (100, 100, 100, 100))


def test_grow_with_pam_prefix_ggroup21():
    # keep PAM on two mutually orthogonal reals, grow the other two;
    # catalog order lists intra-group reals first, so interleave
    entry = catalog("ggroup", g=2, a=1)
    ents = entry.linear.entries
    ld = LinearDesign(m=entry.design.m,
                      entries=(ents[0], ents[2], ents[1], ents[3]))
    pam = pam_points(2)
    points = grow_with_pam_prefix(ld, 2, (pam, pam), seed=0)
    assert points[0] == pam and points[1] == pam
    assert all(len(p) == 2 for p in points[2:])
    from stbc_forge.diversity import _min_det_from_points
    assert _min_det_from_points(ld.matrices(), [list(p) for p in points]) \
        > DET_TOL


def test_grow_with_pam_prefix_rejects_bad_prefix():
    # intra-group reals are not HR-orthogonal
    entry = catalog("ggroup", g=2, a=1)
    with pytest.raises(ValueError, match="Hurwitz-Radon"):
        grow_with_pam_prefix(entry.linear, 2,
                             (pam_points(2), pam_points(2)))


def test_grow_with_pam_prefix_argument_checks():
    entry = catalog("ggroup", g=2, a=1)
    ents = entry.linear.entries
    ld = LinearDesign(m=entry.design.m,
                      entries=(ents[0], ents[2], ents[1], ents[3]))
    with pytest.raises(ValueError):
        grow_with_pam_prefix(ld, 2, (pam_points(2),))
    with pytest.raises(ValueError):
        grow_with_pam_prefix(ld, 2, (pam_points(2), pam_points(2)),
                             sizes=(2,))
