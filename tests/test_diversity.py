"""Cubic shaping, rotation search, certification and constellation growth."""

import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stbc_forge.design import (LinearDesign, LDEntry, to_linear_design,
                               finest_partition)
from stbc_forge.constructions import catalog, construct_A
from stbc_forge.diversity import (generator_matrix, cubic_shaping_check,
                                  rotation_search, full_diversity_check,
                                  grow_constellation, grow_with_pam_prefix,
                                  difference_classes,
                                  DiversityCapError, DiversityFloorError,
                                  DET_TOL, DIFF_CAP, GRID, TIE_RTOL,
                                  _class_blocks, _class_count, _grid_min,
                                  _laurent_coefficients, _laurent_tables,
                                  _sample_offsets,
                                  _group_min, _det_batch, _grow,
                                  _groups, _unit_flips)
from stbc_forge.fdfgd import (build_base, puncture, extend, family,
                              family_pairs)
from stbc_forge.pauli import (I2, X, Z, phi_inv, hr_orthogonal_table,
                              sign_patterns)
from stbc_forge.signalset import (pam_points, qam_signal_set, SignalSet,
                                  PairQAM, RealPoints, _difference_table,
                                  _qam_differences, product_sums)
from stbc_forge.simulate import STBCInstance
from stbc_forge.bundles import (alamouti_stbc, qod4_stbc, assemble_stbc,
                                silver_stbc, group_stbc, family_bundle)
from stbc_forge.cli import main

from pinned_builds import BUILDS, case_id


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_generator_matrix_refuses_a_non_finite_q(bad):
    # a NaN makes the orthogonality residual NaN, which must not pass
    Q = np.eye(4)
    Q[0, 0] = bad
    with pytest.raises(ValueError, match="^Q is not orthogonal$"):
        generator_matrix(to_linear_design(catalog("alamouti").design), Q=Q)


def test_cubic_shaping_negative():
    # scaling one column breaks the scalar Gram
    ld = to_linear_design(catalog("alamouti").design)
    entries = list(ld.entries)
    entries[0] = LDEntry(matrix=2.0 * entries[0].matrix)
    bad = LinearDesign(m=1, entries=tuple(entries))
    assert not cubic_shaping_check(generator_matrix(bad))


# ---------------------------------------------------------------------------
# rotation search on the 2x2 single-symbol-decodable diagonal design

def _ciod_pairs():
    # X = diag(x1 + i x2, x3 + i x4) paired across the diagonal:
    # complex symbol 1 -> (E11, E22), complex symbol 2 -> (iE11, iE22)
    return ((E11, E22), (1j * E11, 1j * E22))


def _ciod_matrices():
    return np.stack([A for pair in _ciod_pairs() for A in pair])


def test_unrotated_diagonal_design_not_full_diversity():
    (A1, A2), (A3, A4) = _ciod_pairs()
    entries = tuple(LDEntry(matrix=A) for A in (A1, A2, A3, A4))
    lin = LinearDesign(m=1, entries=entries)
    stbc = STBCInstance(linear=lin,
                        signals=qam_signal_set(((0, 1), (2, 3)), 4))
    assert full_diversity_check(stbc) < DET_TOL  # zero diagonal difference


def _certify(A, units):
    """The group certifier's smallest minimum on the units'
    HR-orthogonal groups."""
    patterns = sign_patterns(A)
    return min((_group_min(A, g, _unit_flips(patterns, g))
                for g in _groups(hr_orthogonal_table(A), units)),
               default=np.inf)


def _pm(units):
    """The sign group of +-1 alone on the units, the +- classes: row 0
    flips no unit, row 1 every unit."""
    return [0b10] * len(units)


def _flip_rows(flips):
    """The rows of a sign group given as one row set per unit
    (_unit_flips): each row's flips of the units, 0 or 1, in row order
    up to the last row that flips one."""
    n = max(f.bit_length() for f in flips)
    return [tuple(f >> r & 1 for f in flips) for r in range(n)]


def _pm_blocks(A, units, rows=None):
    """The +- classes of the units' nonzero differences, as blocks."""
    return [b for b, _keep in _class_blocks(A, units, _pm(units), rows)]


def _qam_diffs(M):
    """Reference: nonzero differences of the unrotated unit-distance
    M-QAM, the integers 1 - sqrt(M)..sqrt(M) - 1 on each axis."""
    side = int(round(M ** 0.5))
    d = range(1 - side, side)
    return np.asarray([complex(x, y) for x in d for y in d
                       if (x, y) != (0, 0)])


@pytest.mark.parametrize("M", [4, 16, 64])
def test_qam_differences_come_from_the_pair_unit(M):
    # the rotation search's QAM differences, the nonzero rows of the
    # unrotated pair's unit differences as x_I + i x_Q, in their order
    d, _pick = PairQAM((0, 1), M).differences
    w = d[d.any(axis=1)].view(complex)[:, 0]
    assert w.tobytes() == _qam_diffs(M).tobytes()


def test_rotation_search_fixes_diagonal_design():
    A = _ciod_matrices()
    th1, th2 = rotation_search(A, [], [(0, 1), (2, 3)], 4)
    entries = tuple(LDEntry(matrix=a) for a in A)
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


def _brute_force_angle(prior, A1, A2, M):
    """Smallest maximiser over the full (0, 2pi] grid of the min |det| of
    all codeword pairs of the extended code, by direct determinants."""
    thetas = 2 * np.pi * np.arange(1, GRID + 1) / GRID
    mins = []
    for th in thetas:
        C = np.asarray(_extend(prior, A1, A2, M, th))
        i, j = np.triu_indices(len(C), 1)
        mins.append(np.abs(np.linalg.det(C[i] - C[j])).min())
    mins = np.asarray(mins)
    return float(thetas[np.argmax(mins >= mins.max() * (1 - TIE_RTOL))])


def _search_against_brute_force(A, pairs, M=4):
    """rotation_search over the pairs gives, for each pair, the
    codeword-pair reference on the code of the pairs before it as a
    codeword list."""
    N = A.shape[-1]
    prior = [np.zeros((N, N), complex)]
    thetas = rotation_search(A, [], pairs, M)
    assert len(thetas) == len(pairs)
    for pair, th in zip(pairs, thetas):
        A1, A2 = A[pair[0]], A[pair[1]]
        assert th == _brute_force_angle(prior, A1, A2, M)
        assert 0 < th <= np.pi / 2
        prior = _extend(prior, A1, A2, M, th)


def _family_matrices(fd):
    return np.stack([phi_inv(v) for v in fd.vectors])


def test_rotation_search_matches_brute_force_family():
    # priors of 1, 4 and 16 codewords
    fd = build_base(2)
    _search_against_brute_force(_family_matrices(fd), family_pairs(fd)[:3])


def test_rotation_search_matches_brute_force_ciod():
    _search_against_brute_force(_ciod_matrices(), ((0, 1), (2, 3)))


def test_rotation_search_makes_one_pass_over_the_grid(monkeypatch):
    # no grid angle clears DET_TOL, and the search gives up after its one
    # pass of GRID / 4 angles: there is no finer grid to try
    passes = []

    def zeros(coeffs, E, out):
        passes.append(E.shape[1])
        out[:] = 0
    monkeypatch.setattr("stbc_forge.diversity._grid_min", zeros)
    A = catalog("ciod", m=1).linear.matrices()
    with pytest.raises(ValueError, match="no grid angle certifies"):
        rotation_search(A, [], [(0, 1)], 4)
    assert passes == [180]


def test_rotation_search_rejects_failing_prior():
    # the prior {0, diag(1, 0)} has the difference diag(1, 0), singular at
    # every angle
    A = np.concatenate([_ciod_matrices()[:2], [E11]])
    with pytest.raises(ValueError, match="no grid angle"):
        rotation_search(A, [RealPoints(2, (0.0, 1.0))], [(0, 1)], 4)


def test_rotation_search_direct_check_rejects_grid_angle(monkeypatch):
    # both pairs write conj(z) I, so the pair searched at the prior's own
    # angle cancels it: e^{it} w = -e^{ia} d for w = -d.  With the grid
    # seeing the zero block only, every angle ties and the first grid
    # angle, the prior's, wins; only the direct determinants over the
    # prior's classes can reject it, and the search is then refused
    A = np.stack([np.eye(2), -1j * np.eye(2)] * 2)
    a = 2 * np.pi / 720
    units = [PairQAM((2, 3), 4, a)]
    assert _certify(A, units + [PairQAM((0, 1), 4, a)]) < DET_TOL
    # the zero class leads the pair's first block: its coefficient rows,
    # one per +- pair of QAM differences, come first
    n_zero, blocks = len(_qam_diffs(4)) // 2, []

    def zero_only(c, E, out):
        blocks.append(len(c))
        return _grid_min(c[:n_zero if len(blocks) == 1 else 0], E, out)
    monkeypatch.setattr("stbc_forge.diversity._grid_min", zero_only)
    with pytest.raises(ValueError, match="no grid angle") as exc:
        rotation_search(A, units, [(0, 1)], 4)
    # the refusal reports the direct check's minimum at the grid angle
    found = re.search(r"min \|det\| = (\S+) at theta = (\S+)\)$",
                      str(exc.value))
    assert found, str(exc.value)
    assert float(found[1]) <= DET_TOL
    assert float(found[2]) == pytest.approx(a, rel=1e-5)


def test_rotation_search_prior_under_the_cap(monkeypatch):
    # pairs 1 and 2 are HR-orthogonal, but the last pair joins them into
    # one group: the cap is checked on that finished group's
    # (9^3 - 1) / 2 = 364 classes before any search, and the prior's 40
    # are a sub-product of them
    fd = build_base(2)
    A, pairs = _family_matrices(fd), family_pairs(fd)
    units = [PairQAM(p, 4, 0.5) for p in pairs[1:3]]

    def no_search(*_args):
        raise AssertionError("a pair was searched above the cap")
    monkeypatch.setattr("stbc_forge.diversity._laurent_coefficients",
                        no_search)
    monkeypatch.setattr("stbc_forge.diversity.DIFF_CAP", 39)
    with pytest.raises(DiversityCapError, match="^364 difference classes "
                       "exceed the cap of 39$"):
        rotation_search(A, units, [pairs[4]], 4)


def _class_keys(D):
    """Sign-canonical integer keys of difference matrices."""
    rows = np.concatenate([D.real, D.imag], axis=1).reshape(len(D), -1)
    keys = np.rint(rows * 1e9).astype(np.int64)
    first = keys[np.arange(len(keys)), (keys != 0).argmax(axis=1)]
    return {tuple(k) for k in np.where(first[:, None] < 0, -keys, keys)}


@pytest.mark.parametrize("rows", [None, 1, 7])
def test_class_blocks_are_codeword_difference_classes(rows):
    # three family pairs: 64 codewords, (9^3 - 1) / 2 = 364 classes
    fd = build_base(2)
    A, pairs = _family_matrices(fd), family_pairs(fd)
    thetas = (0.5, 0.25, 1.0)
    C = [np.zeros((4, 4), complex)]
    for pair, th in zip(pairs, thetas):
        C = _extend(C, A[pair[0]], A[pair[1]], 4, th)
    C = np.asarray(C)
    i, j = np.triu_indices(len(C), 1)
    want = _class_keys(C[i] - C[j])
    units = [PairQAM(p, 4, th) for p, th in zip(pairs, thetas)]
    blocks = _pm_blocks(A, units, rows)
    if rows:
        assert max(len(b) for b in blocks) <= max(rows, 9)
    D = np.concatenate(blocks)
    assert len(D) == len(want) == (9 ** 3 - 1) // 2
    assert _class_keys(D) == want


def _interpolation_case(which):
    """(D, w, Bp, Bm) of a family pair over a prior of 1/4/16 codewords,
    or of the second diagonal pair over a 4-codeword prior; D is zero
    followed by the prior's classes."""
    if which < 3:
        fd = build_base(2)
        A, pairs = _family_matrices(fd), family_pairs(fd)
        units = [PairQAM(p, 4, 0.5) for p in pairs[:which]]
        pair = pairs[which]
    else:
        A = _ciod_matrices()
        units, pair = [PairQAM((0, 1), 4, 0.5)], (2, 3)
    N = A.shape[-1]
    D = np.concatenate([np.zeros((1, N, N), complex),
                        *_pm_blocks(A, units)])
    A1, A2 = A[pair[0]], A[pair[1]]
    return D, _qam_diffs(4), (A1 - 1j * A2) / 2, (A1 + 1j * A2) / 2


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(which=st.integers(0, 3),
       theta=st.floats(0.0, 2 * np.pi, allow_nan=False))
def test_interpolated_det_equals_direct(which, theta):
    D, w, Bp, Bm = _interpolation_case(which)
    coeffs = _coefficients(D, w, Bp, Bm)
    L = coeffs.shape[1]
    k = np.fft.fftfreq(L, 1.0 / L)
    interp = coeffs @ np.exp(1j * k * theta)
    dz = np.exp(1j * theta) * w
    direct = np.linalg.det(D[:, None] + dz[:, None, None] * Bp
                           + np.conj(dz)[:, None, None] * Bm).ravel()
    # relative to the polynomial's scale sum |c_k| >= max |det| on the
    # circle: near a root no finite-precision method is relatively exact
    scale = np.abs(coeffs).sum(axis=1)
    assert np.all(np.abs(interp - direct) <= 1e-9 * scale)
    assert abs(np.abs(interp).min() - np.abs(direct).min()) \
        <= 1e-9 * max(np.abs(direct).min(), 1e-3 * scale.max())


def _coefficients(D, w, Bp, Bm):
    """_laurent_coefficients with the search's tables of w and the
    offsets of the pair (Bp, Bm)."""
    u, mono = _laurent_tables(w, Bp.shape[-1])
    return _laurent_coefficients(D, _sample_offsets(u, Bp, Bm), mono)


def _laurent_reference(D, w, Bp, Bm):
    """Laurent rows by direct sampling: for each (D_i, w_j), an FFT of
    det(D_i + z w_j Bp + conj(w_j) Bm / z) at the 2N+1 roots of unity."""
    L = 2 * Bp.shape[-1] + 1
    dz = (w[:, None] * np.exp(2j * np.pi * np.arange(L) / L)).ravel()
    samples = np.linalg.det(D[:, None] + dz[:, None, None] * Bp
                            + np.conj(dz)[:, None, None] * Bm)
    return np.fft.fft(samples.reshape(-1, L), axis=1) / L


def _coefficient_case(N, M):
    """(D, Bp, Bm): zero and the classes of one prior pair at 0.5, against
    the next pair, of the N = 2 diagonal design or the m = 2, 3 family."""
    if N == 2:
        A, pairs = _ciod_matrices(), ((0, 1), (2, 3))
    else:
        fd = build_base({4: 2, 8: 3}[N])
        A, pairs = _family_matrices(fd), family_pairs(fd)
    D = np.concatenate([np.zeros((1, N, N), complex),
                        *_pm_blocks(A, [PairQAM(pairs[0], M, 0.5)])])
    A1, A2 = A[pairs[1][0]], A[pairs[1][1]]
    return D, (A1 - 1j * A2) / 2, (A1 + 1j * A2) / 2


@pytest.mark.parametrize("M", [4, 16])
@pytest.mark.parametrize("N", [2, 4, 8])
def test_bivariate_coefficients_equal_direct_sampling(N, M):
    # (N+1)^2 samples of det(D + s Bp + t Bm) per D give every w's Laurent
    # row, in the (D_i, w_j) row order and FFT column order of the
    # reference's 2N+1 direct samples per (D_i, w_j)
    D, Bp, Bm = _coefficient_case(N, M)
    w = _qam_diffs(M)
    got = _coefficients(D, w, Bp, Bm)
    want = _laurent_reference(D, w, Bp, Bm)
    assert got.shape == want.shape == (len(D) * len(w), 2 * N + 1)
    scale = np.abs(want).sum(axis=1)
    assert np.all(np.abs(got - want) <= 1e-9 * scale[:, None])


def test_grid_pass_takes_n_plus_1_squared_determinants_per_class(
        monkeypatch):
    # the last pair of m=2 R=5/4 searches over zero and one
    # representative of each of the 124 orbits of its group's
    # (9^3 - 1) / 2 = 364 prior classes under the group's 16 sign
    # patterns, as one block of 125 classes: (N+1)^2 = 25 determinants
    # each, where sampling each of the 8 QAM differences at 2N+1 points
    # took 72 (26,280 in all for the 365 +- classes)
    import stbc_forge.diversity as div
    asked, grid = [], []
    det, laurent = div._det_batch, div._laurent_coefficients

    def det_spy(A):
        if grid:
            asked.append(int(np.prod(A.shape[:-2])))
        return det(A)

    def laurent_spy(*args):
        grid.append(True)
        try:
            return laurent(*args)
        finally:
            grid.pop()
    monkeypatch.setattr(div, "_det_batch", det_spy)
    monkeypatch.setattr(div, "_laurent_coefficients", laurent_spy)
    fd = family(2, Fraction(5, 4))
    *prior, last = family_pairs(fd)
    units = [PairQAM(p, 4, 2 * np.pi * 27 / GRID) for p in prior]
    [theta] = rotation_search(_family_matrices(fd), units, [last], 4)
    assert theta == 2 * np.pi * 72 / GRID
    assert asked == [25 * 125] == [3125]


def _pair_minima(monkeypatch, skip, A, units, pairs):
    """The angles of a 4-QAM search with _grid_min's skipping on or off,
    each searched pair's per-angle minima after its last grid chunk, and
    the grid rows evaluated against those in the blocks."""
    outs, rows = [], [0, 0]

    def spy(coeffs, E, out):
        rows[0] += _grid_min(coeffs, E, out, skip=skip)
        rows[1] += len(coeffs)
        if not any(o is out for o in outs):
            outs.append(out)
    monkeypatch.setattr("stbc_forge.diversity._grid_min", spy)
    angles = rotation_search(A, units, pairs, 4)
    return angles, [o.tobytes() for o in outs], rows


@pytest.mark.parametrize("R, prior, chunk", [
    (Fraction(5, 4), 0, 128), (Fraction(3, 2), 0, None),
    (Fraction(5, 4), 2, 128)],
    ids=["m2-r5_4", "m2-r3_2", "m2-r5_4-prior2"])
def test_skipped_grid_rows_leave_the_minima_bit_for_bit(R, prior, chunk,
                                                        monkeypatch):
    # rows whose lower bound clears every running minimum are skipped;
    # the same sort and chunks with every chunk evaluated give the same
    # per-angle minima bit for bit, whatever the BLAS, and so the angles.
    # R=5/4's last pair has 500 rows, in two chunks of _GRID_ROWS, of
    # which none is skipped; in chunks of 128, 116 of its rows are
    if chunk:
        monkeypatch.setattr("stbc_forge.diversity._GRID_ROWS", chunk)
    fd = family(2, R)
    A, pairs = _family_matrices(fd), family_pairs(fd)
    units = [PairQAM(p, 4, 2 * np.pi * 27 / GRID) for p in pairs[:prior]]
    pruned = _pair_minima(monkeypatch, True, A, units, pairs[prior:])
    full = _pair_minima(monkeypatch, False, A, units, pairs[prior:])
    assert pruned[:2] == full[:2]
    assert len(pruned[1]) == len(pairs) - prior
    evaluated, total = pruned[2]
    assert full[2] == [total, total]
    assert evaluated < total


def test_search_tables_once_and_sample_offsets_once_per_pair(monkeypatch):
    # the monomial matrix and the angle table once per search, each
    # pair's sample offsets once, and one Laurent call per pair: its
    # classes, at most 365, and zero stream as one block
    import stbc_forge.diversity as div
    calls = []

    def spy_on(name):
        built = getattr(div, name)

        def spy(*args):
            calls.append(name)
            return built(*args)
        monkeypatch.setattr(div, name, spy)
    for name in ("_monomials", "_angle_table", "_sample_offsets",
                 "_laurent_coefficients"):
        spy_on(name)
    fd = family(2, Fraction(5, 4))
    A, pairs = _family_matrices(fd), family_pairs(fd)
    for searches in (1, 2):
        rotation_search(A, [], pairs, 4)
        assert calls.count("_monomials") == searches
        assert calls.count("_angle_table") == searches
        assert calls.count("_sample_offsets") == 5 * searches
        assert calls.count("_laurent_coefficients") == 5 * searches


def test_rotation_search_rank_deficient_pair():
    with pytest.raises(ValueError, match="rank deficient"):
        rotation_search(np.stack([E11, 1j * E11]), [], [(0, 1)], 4)


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


# ---------------------------------------------------------------------------
# certification one HR-orthogonal group at a time

def _det4_stacks(seed):
    # 5,000 matrices take two of _det4's slices
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for shape in ((5000, 4, 4), (3, 7, 4, 4))]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_det_batch_4x4_equals_lapack(seed):
    for A in _det4_stacks(seed):
        got, want = _det_batch(A), np.linalg.det(A)
        assert got.shape == want.shape == A.shape[:-2]
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_det_batch_4x4_is_exact_on_gaussian_integers():
    rng = np.random.default_rng(7)
    A = (rng.integers(-6, 7, (500, 4, 4))
         + 1j * rng.integers(-6, 7, (500, 4, 4)))
    # the reference: Laplace expansion along row 0 in Python complex
    # arithmetic, exact here, as every partial result is a small integer
    def det(M):
        if len(M) == 1:
            return M[0][0]
        return sum((-1) ** j * M[0][j] * det([r[:j] + r[j + 1:]
                                              for r in M[1:]])
                   for j in range(len(M)))
    ints = [[[complex(int(x.real), int(x.imag)) for x in r] for r in M]
            for M in A]
    assert _det_batch(A).tolist() == [det(M) for M in ints]
    # singular: a repeated row, a zero column, a row sum of two others
    S = A[:3].copy()
    S[0, 3] = S[0, 1]
    S[1, :, 2] = 0
    S[2, 0] = S[2, 1] + S[2, 2]
    assert _det_batch(S).tolist() == [0.0, 0.0, 0.0]


def _whole_min(A, units):
    """min |det| over the classes of the whole product, the reference."""
    return min((float(np.abs(_det_batch(b)).min())
                for b in _pm_blocks(A, units)), default=np.inf)


def _family_auto(R):
    """Family m=2 bundle at its auto angles: 2 pi k / 720 per pair."""
    k = {Fraction(1): (27,) * 4, Fraction(5, 4): (27,) * 4 + (72,),
         Fraction(3, 2): (27,) * 4 + (72, 46)}[Fraction(R)]
    return assemble_stbc(family(2, R), [2 * np.pi * x / 720 for x in k], 4)


@pytest.mark.parametrize("make", [
    lambda: alamouti_stbc(4), qod4_stbc, lambda: silver_stbc(4),
    lambda: group_stbc(catalog("ggroup", g=2, a=1)),
    lambda: _family_auto(1), lambda: _family_auto(Fraction(5, 4)),
    lambda: _family_auto(Fraction(3, 2)),
], ids=["alamouti4", "qod4", "silver", "ggroup21", "family-r1",
        "family-r5_4", "family-r3_2"])
def test_grouped_min_equals_whole_product(make):
    # Minkowski: the minimum is a single group's, and a group's classes
    # sum the same unit differences as the whole product's, bit for bit
    stbc = make()
    assert full_diversity_check(stbc) == \
        _whole_min(stbc.matrices, stbc.signals.units)


def test_group_classes_of_the_family():
    # 4-QAM pairs: (9^n - 1) / 2 classes for a group of n pairs
    counts = {Fraction(1): [4] * 4, Fraction(5, 4): [4, 3280],
              Fraction(3, 2): [265720]}
    for R, want in counts.items():
        stbc = _family_auto(R)
        assert [_class_count(g) for g in _groups(
            stbc.hr_orthogonal, stbc.signals.units)] == want


@pytest.mark.parametrize("m", [2, 3])
def test_unit_groups_are_the_finest_partition(m):
    for k in range(4, 4 * 2 ** m + 1):
        R = Fraction(k, 2 ** (m + 1))
        try:
            fd = family(m, R)
        except ValueError:  # not a rate of the family
            continue
        pairs = family_pairs(fd)
        groups = _groups(hr_orthogonal_table(_family_matrices(fd)),
                         [PairQAM(p, 4) for p in pairs])
        got = {tuple(i for u in g for i in u.indices) for g in groups}
        assert got == set(finest_partition(fd.design()).groups), R


def _ggroup21_interleaved():
    """ggroup g=2 a=1 with its reals reordered 0, 2, 1, 3: the catalog
    lists intra-group reals first, so the first two are now mutually
    HR-orthogonal."""
    entry = catalog("ggroup", g=2, a=1)
    e = entry.linear.entries
    return LinearDesign(m=entry.design.m, entries=(e[0], e[2], e[1], e[3]))


def _whole_growth(ld, points, sizes, start, rng):
    """Reference growth: each candidate drawn as growth draws it, and kept
    when the whole product, every real, still certifies."""
    A = ld.matrices()
    for k in range(start, len(points)):
        while len(points[k]) < sizes[k - start]:
            cand = float(rng.uniform(-10, 10))
            if any(abs(cand - p) < 1e-9 for p in points[k]):
                continue
            units = [RealPoints(j, sorted(p + [cand] * (j == k)))
                     for j, p in enumerate(points)]
            if _whole_min(A, units) > DET_TOL:
                points[k].append(cand)
    return tuple(tuple(sorted(p)) for p in points)


@pytest.mark.parametrize("seed", range(5))
def test_growth_matches_the_whole_product(seed):
    # growth certifies only the new classes of the candidate's group; by
    # Minkowski and the group's earlier certificate that is the whole
    # product's verdict, so both keep the same points, at equal and
    # unequal sizes.  qod4's groups are pairs of grown reals, so its
    # second real of a pair reads the first's own table
    ala = to_linear_design(catalog("alamouti").design)
    qod4 = catalog("qod4").linear
    for ld, sizes in ((ala, (2, 2, 2, 2)), (ala, (4, 3, 5, 2)),
                      (qod4, (2,) * 8), (qod4, (3, 3) + (2,) * 6)):
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        points = [[float(rng.uniform(-10, 10))] for _ in sizes]
        assert grow_constellation(ld, sizes, seed=seed) == \
            _whole_growth(ld, points, sizes, 0, rng)
    gg = _ggroup21_interleaved()
    pam = pam_points(2)
    for sizes in ((2, 2), (3, 3)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        points = [list(pam), list(pam)] + [[float(rng.uniform(-10, 10))]
                                           for _ in range(2)]
        assert grow_with_pam_prefix(gg, 2, (pam, pam), sizes, seed) == \
            _whole_growth(gg, points, sizes, 2, rng)


class _Draws:
    """A generator whose uniform draws are the given values, in order."""

    def __init__(self, *values):
        self.values = iter(values)

    def uniform(self, _low, _high):
        return next(self.values)


def test_growth_rejects_a_point_singular_only_with_another_real():
    # I and diag(1, 2) are not HR-orthogonal, so reals 0 and 1 form one
    # group.  Real 0 holds 2-PAM-like points 0, 1, real 1 starts at 3.
    # The candidate 4 adds the difference 1, whose code difference
    # -I + diag(1, 2) is singular, though diag(1, 2) alone is not: it is
    # rejected, and 3.25 is kept (its sums with -1, 0, 1 are nonzero).
    # A certifier of the grown real alone would keep 4
    A = np.stack([np.eye(2), np.diag([1.0, 2.0])]).astype(complex)
    got = _grow(A, hr_orthogonal_table(A), [RealPoints(0, (0.0, 1.0))],
                    (2,), _Draws(3.0, 4.0, 3.25))
    assert got == ((0.0, 1.0), (3.0, 3.25))
    assert _whole_min(A, [RealPoints(0, (0.0, 1.0)),
                          RealPoints(1, (3.0, 4.0))]) == 0.0


def test_growth_rejects_a_point_singular_only_with_an_earlier_grown_real():
    # the same group with no prefix: reals 0 and 1 start at 0 and 3, and
    # real 0 grows to 0, 1.  Real 1's candidate 4 adds the difference 1,
    # singular with real 0's difference -1, read from real 0's own
    # table, so it is rejected and 3.25 kept.  A certifier of the grown
    # real alone would keep 4
    A = np.stack([np.eye(2), np.diag([1.0, 2.0])]).astype(complex)
    got = _grow(A, hr_orthogonal_table(A), [], (2, 2),
                _Draws(0.0, 3.0, 1.0, 4.0, 3.25))
    assert got == ((0.0, 1.0), (3.0, 3.25))


def test_each_verdict_reads_one_hr_orthogonality_table(monkeypatch):
    # one table per rotation search over all of a code's pairs and per
    # growth run; a certification of an instance reads the instance's
    # cached table
    import stbc_forge.diversity as div
    calls = []

    def spy(A, *args):
        calls.append(len(A))
        return hr_orthogonal_table(A, *args)
    monkeypatch.setattr(div, "hr_orthogonal_table", spy)
    fd = family(2, Fraction(5, 4))
    assert len(rotation_search(_family_matrices(fd), [], family_pairs(fd),
                               4)) == 5
    assert len(calls) <= 1
    stbc = _family_auto(Fraction(5, 4))
    calls.clear()
    assert full_diversity_check(stbc) > DET_TOL
    assert calls == []
    ala = to_linear_design(catalog("alamouti").design)
    grow_constellation(ala, (2, 2, 2, 2), seed=3)
    assert len(calls) <= 1
    calls.clear()
    pam = pam_points(2)
    grow_with_pam_prefix(_ggroup21_interleaved(), 2, (pam, pam), seed=5)
    assert len(calls) <= 1


@pytest.mark.parametrize("m, R, prior", [
    (2, 1, 0), (2, Fraction(5, 4), 0), (2, Fraction(3, 2), 0), (3, 1, 0),
    (2, Fraction(5, 4), 2)],
    ids=["m2-r1", "m2-r5_4", "m2-r3_2", "m3-r1", "m2-r5_4-prior2"])
def test_carried_minima_equal_fresh_ones(m, R, prior):
    # one search over the pairs carries each group's certified minimum
    # from pair to pair; one-pair searches certify their whole prior from
    # scratch, and give the same angles bit for bit.  m=3 R=1 has four
    # groups of two pairs, so groups merge; the last case gives the
    # first two pairs as a prior at 3 pi / 40
    fd = family(m, R)
    A, pairs = _family_matrices(fd), family_pairs(fd)
    units = [PairQAM(p, 4, 2 * np.pi * 27 / GRID) for p in pairs[:prior]]
    carried = rotation_search(A, units, pairs[prior:], 4)
    fresh = []
    for pair in pairs[prior:]:
        fresh += rotation_search(A, units, [pair], 4)
        units = units + [PairQAM(pair, 4, fresh[-1])]
    assert carried == fresh


def test_auto_build_tables_once_and_certifies_each_pair_once(monkeypatch):
    # one HR-orthogonality table for the search over all five pairs, and
    # one certification per pair: the accepting one, with no prior
    # re-certified
    import stbc_forge.diversity as div
    tables, certified, inside = [], [], []
    search, table, certify = (div.rotation_search, div.hr_orthogonal_table,
                              div._group_min)

    def search_spy(*args):
        inside.append(True)
        try:
            return search(*args)
        finally:
            inside.pop()

    def table_spy(*args):
        tables.append(bool(inside))
        return table(*args)

    def certify_spy(*args):
        certified.append(bool(inside))
        return certify(*args)
    monkeypatch.setattr("stbc_forge.bundles.rotation_search", search_spy)
    monkeypatch.setattr(div, "hr_orthogonal_table", table_spy)
    monkeypatch.setattr(div, "_group_min", certify_spy)
    stbc = assemble_stbc(family(2, Fraction(5, 4)), "auto", 4)
    assert len(stbc.signals.units) == 5
    assert tables.count(True) <= 1
    assert certified == [True] * 5


@pytest.mark.parametrize("rate, suite, build, verify", [
    ("5/4", "all", 3, 2), ("7/4", "diversity", 5, 4)], ids=["r5_4", "r7_4"])
def test_each_unit_builds_its_difference_table_once(
        rate, suite, build, verify, tmp_path, capsys):
    # a QAM table per (M, theta), not per pair: an auto build tables the
    # unrotated 4-QAM once, for every pair's cap check and the QAM
    # differences, then each distinct accepted angle (R=5/4: 3 pi / 40
    # for four pairs and pi / 5; R=7/4: two more); a verify, from a
    # cleared cache, tables each distinct angle of the file once for the
    # check and both class counts
    path = str(tmp_path / "fd.txt")
    _qam_differences.cache_clear()
    assert main(["build-fd", "--m", "2", "--rate", rate, "--angles", "auto",
                 "--M", "4", "--out", path]) == 0
    assert _qam_differences.cache_info().misses == build
    _qam_differences.cache_clear()
    capsys.readouterr()
    assert main(["verify", "--in", path, "--suite", suite]) == 0
    assert BUILDS[2, rate, 4].line in capsys.readouterr().out.splitlines()
    assert _qam_differences.cache_info().misses == verify


def test_floor_refuses_a_group_under_the_lu_error():
    # one unrotated 4-QAM pair has a singular difference, |det| 0: at
    # N = 4 that is a failing minimum, at N = 8 it does not clear the
    # floor 8 eps beta^8 (beta = 2: spread 1 per real, unit norms);
    # rotated by 3 pi / 40 the pair certifies at both sizes
    for m, want in ((2, 0.7938926261466158), (3, 0.6302655018499703)):
        fd = family(m, 1)
        A, pair = _family_matrices(fd), family_pairs(fd)[0]
        rotated = [PairQAM(pair, 4, 2 * np.pi * 27 / 720)]
        assert _certify(A, rotated) == pytest.approx(want)
        unrotated = [PairQAM(pair, 4, 0.0)]
        if m == 2:
            assert _certify(A, unrotated) == 0.0
        else:
            with pytest.raises(DiversityFloorError,
                               match="floor 4.55e-13 at N=8"):
                _certify(A, unrotated)


def test_rotation_search_refuses_an_angle_under_the_lu_floor():
    # family m=4 R=1: the first group's third pair has a best grid angle,
    # but the certifier on its group of three pairs finds a minimum under
    # the LU error floor, so the search refuses the angle itself
    fd = family(4, 1)
    A, pairs = _family_matrices(fd), family_pairs(fd)
    first = [u.indices for u in _groups(hr_orthogonal_table(A),
                                        [PairQAM(p, 4) for p in pairs])[0]]
    with pytest.raises(DiversityFloorError,
                       match=r"group of 6 reals .* at N=16"):
        rotation_search(A, [], first[:3], 4)


@pytest.mark.parametrize("prior, pair", [
    ([(0, 1)], (0, 1)),  # a real the prior owns
    ([], (3, 3)),        # one real twice
    ([], (-2, -1)),      # negative reals would wrap to 8, 9
    ([], (9, 10)),       # past K - 1
    ([], (0, 1, 2)),
])
def test_rotation_search_refuses_a_malformed_pair(prior, pair):
    # the prior's pairs given as prior units, or as pairs searched before
    # the malformed one in the same call
    A = _family_matrices(family(2, Fraction(5, 4)))  # K = 10
    units = [PairQAM(p, 4, 0.5) for p in prior]
    for given, earlier in ((units, []), ([], list(prior))):
        with pytest.raises(ValueError, match="^pair %s needs two distinct "
                           r"reals of 0\.\.9 that no prior unit owns$"
                           % re.escape(repr(pair))):
            rotation_search(A, given, earlier + [pair], 4)


@pytest.mark.parametrize("prior, owned", [
    ([(0, 1), (1, 2)], "[0, 1, 1, 2]"),
    ([(8, 10)], "[8, 10]"),
    ([(-1, 0)], "[-1, 0]"),
])
def test_rotation_search_refuses_a_malformed_prior(prior, owned):
    A = _family_matrices(family(2, Fraction(5, 4)))
    units = [PairQAM(p, 4, 0.5) for p in prior]
    with pytest.raises(ValueError, match=r"^prior units own reals %s, need "
                       r"distinct reals of 0\.\.9$" % re.escape(owned)):
        rotation_search(A, units, [(4, 5)], 4)


@pytest.mark.parametrize("far", [1e10, 1e300])
def test_a_unit_past_the_difference_keys_is_refused(far):
    # differences are keyed as int64 multiples of 1e-9, so one of 1e10 or
    # more would take a garbage key and drop out of every class: on the
    # singular design the code would certify inf, a false PASS
    singular = LinearDesign(m=1, entries=(LDEntry(matrix=E11),))
    for ld in (singular, catalog("alamouti").linear):
        stbc = STBCInstance(linear=ld, signals=SignalSet(units=tuple(
            RealPoints(k, (0.0, far)) for k in range(ld.K))))
        msg = ("RealPoints(index=0, points=(0.0, %r)): difference %.3g is "
               "too large for the 1e-9 difference keys" % (far, far))
        with pytest.raises(ValueError, match="^%s$" % re.escape(msg)):
            full_diversity_check(stbc)
    # 1e9 is keyed exactly and still certifies
    for ld, want in ((singular, 0.0), (catalog("alamouti").linear, 1e18)):
        assert full_diversity_check(STBCInstance(linear=ld, signals=SignalSet(
            units=tuple(RealPoints(k, (0.0, 1e9))
                        for k in range(ld.K))))) == want


def test_units_store_their_sequences_as_tuples():
    # a list or an array gives the same unit as the tuple, with the same
    # hash, so it can key the codebook weights and prior a search
    for unit, want in (
            (RealPoints(0, [-0.5, 0.5]), RealPoints(0, (-0.5, 0.5))),
            (RealPoints(0, np.array([-0.5, 0.5])),
             RealPoints(0, (-0.5, 0.5))),
            (PairQAM([0, 1], 4), PairQAM((0, 1), 4))):
        assert unit == want and hash(unit) == hash(want)
        assert isinstance(unit.indices, tuple)
        assert SignalSet(units=(unit,)).weights == {want: 1}
        assert unit.differences[0].tobytes() == \
            want.differences[0].tobytes()
    A = np.concatenate([_ciod_matrices()[:2], [I2]])
    assert rotation_search(A, [RealPoints(2, np.array([0.0, 1.0]))],
                           [[0, 1]], 4) == \
        rotation_search(A, [RealPoints(2, (0.0, 1.0))], [(0, 1)], 4)


def test_units_of_one_geometry_share_a_read_only_table():
    # a QAM table depends on M and theta, not the reals: equal M and
    # theta on other reals give the same arrays, which no caller can
    # write into; one bit apart, 0.0 against -0.0 included, is another
    # geometry
    theta = 3 * np.pi / 40
    a, b = PairQAM((0, 1), 16, theta), PairQAM((4, 7), 16, theta)
    assert a != b
    assert all(x is y for x, y in zip(a.differences, b.differences))
    for table in a.differences:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = table[-1]
    up = float(np.nextafter(theta, 4.0))
    for a, b in ((PairQAM((0, 1), 4, theta), PairQAM((0, 1), 4, up)),
                 (PairQAM((0, 1), 4, 0.0), PairQAM((2, 3), 4, -0.0))):
        assert not any(x is y for x, y in zip(a.differences, b.differences))
    # a point set, of 3 values or of 65 (a grown real), owns its table:
    # equal points on other reals give equal bytes in other arrays, as
    # read-only
    for pts in ((-1.5, 0.25, 2.0), tuple(float(k) for k in range(65))):
        a, b = RealPoints(0, pts), RealPoints(5, list(pts))
        assert not any(x is y for x, y in zip(a.differences, b.differences))
        for x, y in zip(a.differences, b.differences):
            assert x.tobytes() == y.tobytes() and not x.flags.writeable


def test_point_sets_stay_out_of_the_shared_cache():
    # growth draws, certifies and keeps point sets only, so it leaves
    # the QAM cache as it found it; a 65-point set's own table is the
    # builder's, bit for bit and read-only
    ala = to_linear_design(catalog("alamouti").design)
    pam = pam_points(2)
    info = _qam_differences.cache_info()
    grow_constellation(ala, (3, 3, 3, 3), seed=0)
    grow_with_pam_prefix(_ggroup21_interleaved(), 2, (pam, pam), (3, 3), 0)
    assert _qam_differences.cache_info() == info
    unit = RealPoints(0, tuple(float(k) for k in range(65)))
    for x, y in zip(unit.differences, _difference_table(unit)):
        assert x.tobytes() == y.tobytes() and not x.flags.writeable


def test_full_diversity_repeated_codeword_is_zero():
    # 0 and 1e-12 coincide on the 1e-9 difference grid: two codewords
    # repeat, and their zero difference certifies as det exactly 0
    lin = LinearDesign(m=1, entries=(LDEntry(matrix=I2),))
    stbc = STBCInstance(linear=lin, signals=SignalSet(
        units=(RealPoints(0, (0.0, 1e-12, 1.0)),)))
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


def test_certification_checks_every_group_cap_before_any_class(monkeypatch):
    # full_diversity_check refuses an over-cap group before it builds any
    # class of another group: m=2 R=5/4 at M = 4 has groups of 4 and 3,280
    # +- classes, and under a cap of 100 the first is never enumerated
    import stbc_forge.diversity as div
    stbc = _pinned(2, "5/4", 4)
    assert [_class_count(g) for g in _groups(
        stbc.hr_orthogonal, stbc.signals.units)] == [4, 3280]

    def no_classes(*_args):
        raise AssertionError("a class was built before every cap check")
    monkeypatch.setattr(div, "DIFF_CAP", 100)
    monkeypatch.setattr(div, "product_sums", no_classes)
    with pytest.raises(DiversityCapError, match="^3280 difference classes "
                       "exceed the cap of 100$"):
        full_diversity_check(stbc)


# ---------------------------------------------------------------------------
# orbits of the sign patterns

def _pinned(m, R, M, angles=None):
    """The family bundle a design file with these meta lines gives; by
    default the angles of the pinned auto build, "" for every angle 0."""
    if angles is None:
        angles = BUILDS[m, R, M].angles
    return family_bundle(m, R, M, angles, None).stbc


def _verdict(mn):
    """verify's verdict and printed minimum."""
    return "%s min_det=%.6g" % ("PASS" if mn > DET_TOL else "FAIL", mn)


def _reduced_and_full(stbc):
    """((min, determinants) on the orbits of the instance's sign
    patterns, the same on the +- classes)."""
    A, groups = stbc.matrices, _groups(stbc.hr_orthogonal,
                                       stbc.signals.units)

    def certify(sign_group):
        mins = [_group_min(A, g, sign_group(g)) for g in groups]
        return min(mins, default=np.inf), sum(m.checked for m in mins)
    patterns = sign_patterns(A)
    return (certify(lambda g: _unit_flips(patterns, g)), certify(_pm))


@pytest.mark.parametrize("make, verdict, taken, classes", [
    # the pinned builds, with their determinant counts over the +- classes
    *[pytest.param(lambda key=key: _pinned(*key), BUILDS[key].verdict,
                   BUILDS[key].checked, c, id=case_id(key))
      for key, c in (((2, "1", 4), 16), ((2, "5/4", 4), 3284),
                     ((2, "3/2", 4), 265720), ((2, "7/4", 4), 2391484),
                     ((2, "1", 16), 96), ((2, "5/4", 16), 2882424),
                     ((3, "1", 4), 160), ((3, "1", 16), 4800),
                     ((3, "9/8", 4), 2391524))],
    *[pytest.param(lambda R=R: silver_stbc(4, Fraction(R)),
                   BUILDS[1, R, 4].verdict, BUILDS[1, R, 4].checked, c,
                   id="silver-r" + R.replace("/", "_"))
      for R, c in (("1", 8), ("3/2", 364), ("2", 3280))],
    pytest.param(lambda: qod4_stbc(2), "FAIL min_det=0", 12, 16, id="qod4-M4"),
    pytest.param(lambda: qod4_stbc(4), "FAIL min_det=0", 60, 96,
                 id="qod4-M16"),
    pytest.param(lambda: _pinned(2, "1", 4, ""), "FAIL min_det=0", 16, 16,
                 id="m2-r1-angle0"),
    pytest.param(lambda: _pinned(2, "5/4", 4, ""), "FAIL min_det=0", 628,
                 3284, id="m2-r5_4-angle0"),
])
def test_orbit_minimum_prints_as_the_full_one(make, verdict, taken, classes):
    # one determinant per orbit of each group's differences under its
    # sign patterns gives the +- classes' minimum, printed and judged as
    # verify prints and judges it, on every code that certifies today and
    # on codes whose minimum is 0
    stbc = make()
    (reduced, n_reduced), (full, n_full) = _reduced_and_full(stbc)
    assert _verdict(reduced) == _verdict(full) == verdict
    assert reduced == pytest.approx(full, rel=1e-9, abs=0)
    assert (n_reduced, n_full) == (taken, classes)
    assert n_full == sum(_class_count(g) for g in _groups(
        stbc.hr_orthogonal, stbc.signals.units))


@pytest.mark.parametrize("seed", range(3))
def test_growth_keeps_the_points_of_the_full_check(seed, monkeypatch):
    # both growth entry points keep the same candidates whether each is
    # certified on orbits or on every +- class
    import stbc_forge.diversity as div
    ala = to_linear_design(catalog("alamouti").design)
    pam = pam_points(2)

    def grow():
        return (grow_constellation(ala, (3, 3, 2, 2), seed=seed),
                grow_with_pam_prefix(_ggroup21_interleaved(), 2, (pam, pam),
                                     sizes=(3, 3), seed=seed))
    reduced = grow()
    monkeypatch.setattr(div, "sign_patterns",
                        lambda A: np.zeros((1, len(A)), bool))
    assert grow() == reduced


def _old_class_blocks(A, units, rows=None):
    """The +- enumerator the orbits replaced, as it was: for each unit
    with a picked difference, the units before it zero, it picked, the
    later ones any difference."""
    N = A.shape[-1]
    flat = A.reshape(len(A), -1)
    mats = [(u.differences[0] @ flat[list(u.indices)]).reshape(-1, N, N)
            for u in units]
    rows = rows or max(1, 2 ** 20 // (N * N))
    for p, u in enumerate(units):
        if u.differences[1].any():
            yield from product_sums([mats[p][u.differences[1]]]
                                    + mats[p + 1:], rows)


@pytest.mark.parametrize("make, rows", [
    (lambda: _pinned(2, "3/2", 4), None),
    (lambda: _pinned(2, "5/4", 4), 7),
    (lambda: silver_stbc(16, 2), None),
    (lambda: qod4_stbc(4), 5),
    (lambda: STBCInstance(linear=to_linear_design(catalog("alamouti").design),
                          signals=SignalSet(units=(
                              RealPoints(0, (0.0,)), RealPoints(1, (0.0, 1.0)),
                              RealPoints(2, (0.0,)),
                              RealPoints(3, (-1.0, 0.5, 2.0))))), 2),
], ids=["m2-r3_2", "m2-r5_4-rows7", "silver-r2-M16", "qod4-M16-rows5",
        "one-point-units"])
def test_plus_minus_one_alone_is_the_old_stream(make, rows):
    # with the sign group of +-1 alone the orbit walk yields the old +-
    # stream, block for block and bit for bit, one-point units skipped
    stbc = make()
    A = stbc.matrices
    for g in _groups(stbc.hr_orthogonal, stbc.signals.units):
        new = (b for b, _keep in _class_blocks(A, g, _pm(g), rows))
        for got, want in itertools.zip_longest(new, _old_class_blocks(
                A, g, rows)):
            assert got is not None and want is not None
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_sign_groups_of_the_family_and_silver():
    # distinct sign patterns, -1 included, on each group's units: 16 on
    # m=2 R=5/4's group of four pairs, 32 on the groups of six to eight
    # pairs and on m=3 R=9/8's group of seven; Silver's J conj(X) J^H,
    # J = ZX, fixes s1, s2 and negates z3, z4
    def sizes(stbc):
        patterns = sign_patterns(stbc.matrices)
        return [len(set(_flip_rows(_unit_flips(patterns, g))))
                for g in _groups(stbc.hr_orthogonal, stbc.signals.units)]
    assert sizes(_pinned(2, "5/4", 4)) == [2, 16]
    for rate in ("3/2", "7/4"):
        assert sizes(_pinned(2, rate, 4)) == [32]
    assert sizes(_pinned(2, "2", 4, "")) == [32]
    assert sizes(_pinned(3, "9/8", 4)) == [4, 32]
    silver = silver_stbc(4)
    assert set(map(tuple, sign_patterns(silver.matrices).tolist())) == {
        (False,) * 8, (False,) * 4 + (True,) * 4}
    assert sizes(silver) == [4]


def _orbit_case(draw):
    """The weight matrices of family m=2 R=2 or Silver R=2, and up to four
    units on distinct reals: a 4-QAM pair at one of three angles, or one
    or two RealPoints units of one to three points on a pair's reals."""
    if draw(st.booleans()):
        fd = family(2, 2)
        A, pairs = _family_matrices(fd), family_pairs(fd)
    else:
        A, pairs = silver_stbc(4).matrices, [(0, 1), (2, 3), (4, 5), (6, 7)]
    picked = draw(st.lists(st.sampled_from(range(len(pairs))), min_size=1,
                           max_size=3, unique=True))
    units = []
    for p in picked:
        kind = draw(st.integers(0, 2))
        if kind == 0:
            units.append(PairQAM(pairs[p], 4, draw(st.sampled_from(
                (0.0, 0.5, 2 * np.pi * 27 / GRID)))))
            continue
        for i in pairs[p][:kind]:
            n = draw(st.integers(1, 3))
            units.append(RealPoints(i, tuple(sorted(draw(st.sets(
                st.integers(-3, 3), min_size=n, max_size=n))))))
    return A, units[:4]


def _x_keys(X):
    """Integer keys of real-symbol rows on the 1e-9 grid."""
    return {tuple(k) for k in np.rint(X * 1e9).astype(np.int64).tolist()}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_every_class_lies_in_the_orbit_of_one_representative(data):
    # summed on 4 x 4 matrix units, one per real (each representative
    # reads as its x), the representatives' orbits under
    # the units' sign group are disjoint, cover every nonzero difference
    # of the product, and keep |det| on the real weight matrices
    A, units = _orbit_case(data.draw)
    K = len(A)
    flips = _unit_flips(sign_patterns(A), units)
    basis = np.eye(K, 16, dtype=complex).reshape(K, 4, 4)
    reps = [b.reshape(len(b), 16)[:, :K].real
            for b, _keep in _class_blocks(basis, units, flips)]
    reps = np.concatenate(reps) if reps else np.zeros((0, K))
    rows = np.array(_flip_rows(flips))
    sign = np.ones((len(rows), K))
    for f, u in zip(rows.T, units):
        sign[:, list(u.indices)] = np.where(f, -1.0, 1.0)[:, None]
    orbits = [_x_keys(x * sign) for x in reps]
    covered = set().union(*orbits)
    assert sum(map(len, orbits)) == len(covered)
    every = np.zeros((1, K))
    for u in units:
        d = np.zeros((len(u.differences[0]), K))
        d[:, list(u.indices)] = u.differences[0]
        every = (every[:, None] + d[None]).reshape(-1, K)
    assert covered == _x_keys(every[np.abs(every).max(axis=1) > 0])
    for x in reps:
        dets = np.abs(_det_batch(np.tensordot(x * sign, A, axes=1)))
        assert np.all(np.abs(dets - dets[0]) <= 1e-9 * max(dets[0], 1.0))


def test_checked_is_the_determinants_taken(tmp_path, capsys, monkeypatch):
    # verify's checked= is what the certifier counts, every matrix handed
    # to _det_batch, on a symmetric family file and on Silver R=2
    import stbc_forge.diversity as div
    det = div._det_batch
    taken = []

    def spy(A):
        taken.append(int(np.prod(A.shape[:-2])))
        return det(A)
    for key, angles in (((2, "5/4", 4), ("--angles", "auto")),
                        ((1, "2", 4), ())):
        p = str(tmp_path / "code.txt")
        assert main(["build-fd", "--m", str(key[0]), "--rate", key[1],
                     *angles, "--out", p]) == 0
        monkeypatch.setattr(div, "_det_batch", spy)
        taken.clear()
        capsys.readouterr()
        assert main(["verify", "--in", p, "--suite", "diversity"]) == 0
        assert capsys.readouterr().out.strip() == BUILDS[key].line
        assert sum(taken) == BUILDS[key].checked
        monkeypatch.setattr(div, "_det_batch", det)


# ---------------------------------------------------------------------------
# constellation growth

def _grown_min(ld, points):
    """full_diversity_check of the code over grown per-real points."""
    return full_diversity_check(STBCInstance(linear=ld, signals=SignalSet(
        units=tuple(RealPoints(k, p) for k, p in enumerate(points)))))


def test_growth_outputs_are_pinned():
    # recorded before growth certified its points as sorted RealPoints
    # units: the representative of each difference key may not move
    ala = to_linear_design(catalog("alamouti").design)
    assert grow_constellation(ala, (3, 3, 3, 3), seed=0) == (
        (2.739233746429086, 6.265404784005447, 8.255111545554435),
        (-4.604265724722594, 2.132715515343598, 4.589931219679968),
        (-9.180529521276107, 0.8724998293084578, 8.701448475755363),
        (-9.945229996597039, -9.669447289429417, 6.317071082430644))
    assert grow_constellation(ala, (3, 3, 3, 3), seed=1) == (
        (-3.763370959790291, -1.533471020548486, 0.23643249400513433),
        (-1.816017272616774, 6.554051876408835, 9.009273926518706),
        (-9.448817735138633, -7.116807745607325, 0.9918737534611903),
        (0.7628662643855648, 5.070262173496133, 8.972988942744877))
    gg, pam = _ggroup21_interleaved(), pam_points(2)
    assert grow_with_pam_prefix(gg, 2, (pam, pam), (3, 3), seed=0) == (
        pam, pam,
        (-8.38351921653625, -7.097995295690449, 2.0257841247553188),
        (-7.693625919352551, -3.4612259825278073, -1.9512441601282564))
    assert grow_with_pam_prefix(gg, 2, (pam, pam), (3, 3), seed=1) == (
        pam, pam,
        (-4.459532466137364, -1.6000174121561557, -1.0316971333545606),
        (-9.005002328163522, -1.3823602491132476, 6.438252165966773))


@pytest.mark.parametrize("ld, prefix, sizes, seed, tables", [
    ("ggroup21", True, (3, 3), 0, [2, 2]),
    ("ggroup21", True, (2, 2), 5, [2, 2]),
    ("alamouti", False, (3, 3, 3, 3), 0, []),
    ("qod4", False, (3,) * 8, 0, [3, 3, 3, 3])],
    ids=["ggroup21-3_3-seed0", "ggroup21-seed5", "alamouti-3333-seed0",
         "qod4-3x8-seed0"])
def test_growth_tables_each_changed_unit_once(ld, prefix, sizes, seed,
                                             tables, monkeypatch):
    # growth tables its prefix units, the two 2-PAM units of ggroup21,
    # and no candidate: a candidate adds its differences to its real's
    # current points, and a grown real's own table is built, once, when
    # the next real of its group starts growing.  ggroup21's and
    # alamouti's grown reals share no group; qod4's groups are pairs of
    # reals, so each pair's first real is tabled once, at its 3 points
    built = []

    def spy(unit):
        built.append(unit.size)
        return _difference_table(unit)
    monkeypatch.setattr("stbc_forge.signalset._difference_table", spy)
    ld = {"ggroup21": _ggroup21_interleaved(),
          "alamouti": to_linear_design(catalog("alamouti").design),
          "qod4": catalog("qod4").linear}[ld]
    if prefix:
        pam = pam_points(2)
        grow_with_pam_prefix(ld, 2, (pam, pam), sizes, seed)
    else:
        grow_constellation(ld, sizes, seed)
    assert built == tables


def test_grow_constellation_alamouti():
    ld = to_linear_design(catalog("alamouti").design)
    points = grow_constellation(ld, (2, 2, 2, 2), seed=0)
    assert all(len(p) == 2 for p in points)
    assert all(tuple(sorted(p)) == p for p in points)
    # certify the result independently
    assert _grown_min(ld, points) > DET_TOL


def test_grow_constellation_rejects_singular_matrix():
    entries = (LDEntry(matrix=E11), LDEntry(matrix=E22))
    ld = LinearDesign(m=1, entries=entries)
    with pytest.raises(ValueError, match="singular"):
        grow_constellation(ld, (2, 2))


def test_grow_constellation_size_checks():
    ld = to_linear_design(catalog("alamouti").design)
    with pytest.raises(ValueError, match="^need one target size per grown "
                       "symbol$"):
        grow_constellation(ld, (2, 2))
    # the cap bounds each HR-orthogonal group: alamouti's four reals are
    # four groups, and 4,473 points on one real give 10,001,628 classes
    with pytest.raises(DiversityCapError, match="10001628"):
        grow_constellation(ld, (4473, 2, 2, 2))
    # qod4's groups are pairs of reals: (100*99+1)^2 differences
    with pytest.raises(DiversityCapError, match="49014900"):
        grow_constellation(catalog("qod4").linear, (100,) * 8)
    # 4,950 classes per group, far under the cap though the whole code
    # would have ~4.8e15
    points = grow_constellation(ld, (100, 100, 100, 100))
    assert [len(p) for p in points] == [100] * 4


@pytest.mark.parametrize("size", [0, -3, 1.5, "2", None])
def test_growth_refuses_a_target_size_that_is_not_a_count(size):
    ala = to_linear_design(catalog("alamouti").design)
    with pytest.raises(ValueError, match="^real 0: target size %s is not "
                       "an integer >= 1$" % re.escape(repr(size))):
        grow_constellation(ala, (size, 2, 2, 2))
    # the grown reals of a PAM-prefix growth are named by their index
    pam = pam_points(2)
    with pytest.raises(ValueError, match="^real 3: target size %s is not "
                       "an integer >= 1$" % re.escape(repr(size))):
        grow_with_pam_prefix(_ggroup21_interleaved(), 2, (pam, pam),
                             sizes=(2, size))


@pytest.mark.parametrize("pams, msg", [
    (((), (-0.5, 0.5)), "PAM set 0 () is empty or not finite"),
    (((-0.5, 0.5), (0.0, np.nan)), "PAM set 1 (0.0, nan) is empty or not "
     "finite"),
    (((0.5, -np.inf), (-0.5, 0.5)), "PAM set 0 (0.5, -inf) is empty or not "
     "finite"),
])
def test_grow_with_pam_prefix_refuses_an_empty_or_non_finite_set(pams, msg):
    with pytest.raises(ValueError, match="^%s$" % re.escape(msg)):
        grow_with_pam_prefix(_ggroup21_interleaved(), 2, pams)


def test_growth_gives_up_after_its_retry_budget(monkeypatch):
    # with a check that certifies no candidate, each growth rejects
    # RETRIES candidates for its first grown symbol, then names it
    import stbc_forge.diversity as div
    calls = []
    ld = _ggroup21_interleaved()
    A = ld.matrices()
    groups = len(_groups(hr_orthogonal_table(A),
                         [RealPoints(k, (0.0,)) for k in range(len(A))]))

    def certify_prefix_only(A, units, flips, *incremental):
        calls.append(1)
        return 1.0 if len(calls) <= groups else 0.0

    monkeypatch.setattr(div, "_group_min", lambda *a: 0.0)
    with pytest.raises(RuntimeError, match="^growth retry budget exhausted "
                       "at symbol 0$"):
        grow_constellation(to_linear_design(catalog("alamouti").design),
                           (2, 2, 2, 2))
    # grow_with_pam_prefix certifies its PAM prefix first, one call per
    # group, then grows
    monkeypatch.setattr(div, "_group_min", certify_prefix_only)
    pam = pam_points(2)
    with pytest.raises(RuntimeError, match="^growth retry budget exhausted "
                       "at symbol 2$"):
        grow_with_pam_prefix(ld, 2, (pam, pam))
    assert len(calls) == groups + div.RETRIES


def test_grow_with_pam_prefix_ggroup21():
    # keep PAM on two mutually orthogonal reals, grow the other two
    ld = _ggroup21_interleaved()
    pam = pam_points(2)
    points = grow_with_pam_prefix(ld, 2, (pam, pam), seed=0)
    assert points[0] == pam and points[1] == pam
    assert all(len(p) == 2 for p in points[2:])
    assert _grown_min(ld, points) > DET_TOL


def test_grow_with_pam_prefix_rejects_bad_prefix():
    # intra-group reals are not HR-orthogonal
    entry = catalog("ggroup", g=2, a=1)
    with pytest.raises(ValueError, match="Hurwitz-Radon"):
        grow_with_pam_prefix(entry.linear, 2,
                             (pam_points(2), pam_points(2)))


@pytest.mark.parametrize("mats, pair", [
    ((I2, 2j * X, I2), "0,2"),  # A_0^H A_2 + A_2^H A_0 = 2 I
    ((I2, 2j * X, 1j * Z), "1,1"),  # A_1^H A_1 = 4 I
])
def test_grow_with_pam_prefix_names_the_first_failing_pair(mats, pair):
    # pairs (i, j >= i) are checked in row-major order
    ld = LinearDesign(m=1, entries=tuple(LDEntry(A) for A in mats))
    with pytest.raises(ValueError, match="^matrices %s violate the "
                       "Hurwitz-Radon equations$" % pair):
        grow_with_pam_prefix(ld, 3, (pam_points(2),) * 3)


def test_grow_with_pam_prefix_argument_checks():
    ld = _ggroup21_interleaved()
    with pytest.raises(ValueError):
        grow_with_pam_prefix(ld, 2, (pam_points(2),))
    with pytest.raises(ValueError):
        grow_with_pam_prefix(ld, 2, (pam_points(2), pam_points(2)),
                             sizes=(2,))


def test_grow_with_pam_prefix_refuses_a_repeated_pam_point():
    # refused at the boundary, not by the prefix's failed certification
    ld = _ggroup21_interleaved()
    with pytest.raises(ValueError, match=r"^PAM set 0 \(-0\.5, -0\.5\) "
                       r"repeats a point$"):
        grow_with_pam_prefix(ld, 2, ((-0.5, -0.5), pam_points(2)))


def test_grow_with_pam_prefix_refuses_an_uncertified_prefix():
    # PAM sets (0, 1e-5) on two HR-orthogonal reals: the initial code's
    # min |det| is (1e-5)^2 = 1e-10, under DET_TOL, so nothing is grown
    ld = _ggroup21_interleaved()
    with pytest.raises(RuntimeError, match="^initial configuration failed "
                       "certification$"):
        grow_with_pam_prefix(ld, 2, ((0.0, 1e-5), (0.0, 1e-5)))


@pytest.mark.parametrize("L", [5, -1])
def test_grow_with_pam_prefix_checks_the_prefix_length_first(L):
    # alamouti has K = 4 symbols; a prefix longer than K or negative is
    # refused before the PAM sets and sizes are read
    ld = catalog("alamouti").linear
    with pytest.raises(ValueError, match=r"^PAM prefix of L=%d symbols, "
                       r"need 0 <= L <= K=4$" % L):
        grow_with_pam_prefix(ld, L, (pam_points(2),) * max(L, 0))
