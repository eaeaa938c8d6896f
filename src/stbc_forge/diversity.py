"""Generator matrices, cubic shaping, and full-diversity constellations.

The generator matrix stacks the real and imaginary parts of each
vectorized weight matrix as a column; a design has cubic shaping when
(GQ)^T (GQ) is a scalar matrix for the orthogonal symbol rotation Q.
For weight matrices realizing F2 + F4^m vectors this Gram is always
2^m I_K, so shaping holds for any rotated integer-lattice constellation.

Full diversity of a finite code means every nonzero codeword difference
has nonzero determinant.  Every codebook here is the Cartesian product
of its signal-set units, so its difference set is the product of the
per-unit difference sets, and |det| is the same for D and -D.
Certification therefore takes one determinant per +- class of distinct
differences, (prod_u |D_u| - 1) / 2 of them, instead of one per codeword
pair.  That class count, known from the per-unit difference counts
before anything is allocated, is the single cap (DIFF_CAP) shared by
certification, `verify` and constellation growth.

Rotating each QAM pair by a suitable angle achieves full diversity when
the pair matrices combine to a full-rank matrix.  For a prior difference
D and a QAM difference w, det(D + e^{it} w B+ + e^{-it} w* B-) is a
Laurent polynomial of degree <= N in e^{it}: 2N+1 samples and one FFT
give its coefficients exactly, and one matrix product evaluates it on
the whole angle grid.  The square-QAM difference set is invariant under
multiplication by i, so the minimum |det| has period pi/2 and only grid
angles in (0, pi/2] are evaluated.  The search returns the smallest grid
angle whose minimum |det| is within a relative TIE_RTOL of the best,
re-certified by direct determinants, and refines the grid when no angle
clears DET_TOL.  Arbitrary per-real point sets achieving full diversity
are grown greedily, accepting each sampled point only if the enlarged
code still passes the exhaustive check.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .signalset import pam_points, qam_side

DET_TOL = 1e-8
# most +- classes of distinct codeword differences one check evaluates
DIFF_CAP = 10 ** 7
# grid angles whose minimum |det| is this close (relative) to the best tie
TIE_RTOL = 1e-9
# complex entries per working block (16 MiB)
_BLOCK = 2 ** 20


class DiversityCapError(ValueError):
    """The difference set has more than DIFF_CAP +- classes."""


@dataclass(frozen=True)
class GeneratorMatrix:
    G: object  # (2*N*T, K) real
    Q: object  # (K, K) orthogonal

    @property
    def rotated(self):
        return self.G @ self.Q

    def gram(self):
        GQ = self.rotated
        return GQ.T @ GQ


def generator_matrix(ld, Q=None):
    """Columns are [Re vec(A_k); Im vec(A_k)]; Q defaults to identity."""
    cols = []
    for e in ld.entries:
        v = np.asarray(e.matrix).reshape(-1, order="F")
        cols.append(np.concatenate([v.real, v.imag]))
    G = np.stack(cols, axis=1)
    K = G.shape[1]
    Q = np.eye(K) if Q is None else np.asarray(Q, dtype=float)
    if Q.shape != (K, K):
        raise ValueError("Q must be %dx%d" % (K, K))
    if np.linalg.norm(Q.T @ Q - np.eye(K)) > 1e-9:
        raise ValueError("Q is not orthogonal")
    return GeneratorMatrix(G=G, Q=Q)


def cubic_shaping_check(gm, tol=1e-9):
    """True when the rotated Gram is a scalar matrix."""
    M = gm.gram()
    a = float(np.mean(np.diag(M)))
    return bool(np.linalg.norm(M - a * np.eye(M.shape[0])) < tol)


def _det_batch(A):
    """Determinants of a (..., n, n) stack; explicit for n <= 2."""
    n = A.shape[-1]
    if n == 1:
        return A[..., 0, 0]
    if n == 2:
        return A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]
    return np.linalg.det(A)


# ---------------------------------------------------------------------------
# exact distinct differences

def _keys(rows):
    """Integer keys of real rows on the 1e-9 grid; -0.0 keys as 0."""
    return np.rint(np.asarray(rows) * 1e9).astype(np.int64)


def _distinct(keys):
    """Index of the first row with each distinct key, in key order."""
    order = np.lexsort(keys.T[::-1])
    k = keys[order]
    new = np.ones(len(k), bool)
    new[1:] = (k[1:] != k[:-1]).any(axis=1)
    return order[new]


def _positive(keys):
    """Rows whose first nonzero key is positive: one of each +- pair."""
    return keys[np.arange(len(keys)), (keys != 0).argmax(axis=1)] > 0


def _unit_differences(V):
    """Distinct differences of one unit's value rows, and a mask picking
    one of each +- pair.  Zero is picked as well when two rows coincide on
    the 1e-9 grid, so repeated codewords certify as det 0."""
    V = np.asarray(V, dtype=float)
    d = (V[:, None] - V[None, :]).reshape(-1, V.shape[1])
    keys = _keys(d)
    repeated = np.count_nonzero(~keys.any(axis=1)) > len(V)
    idx = _distinct(keys)
    keys = keys[idx]
    pick = _positive(keys) | (repeated & ~keys.any(axis=1))
    return d[idx], pick


def _class_count(diffs):
    """+- classes of the product: the first nonzero unit takes a picked
    difference, later units any difference, earlier units zero."""
    total, tail = 0, 1
    for d, pick in reversed(diffs):
        total += int(np.count_nonzero(pick)) * tail
        tail *= len(d)
    return total


def _sum_blocks(tables, step):
    """Every sum tables[0][i0] + ... + tables[-1][ir], first table slowest,
    in blocks of at most max(step, len(tables[-1])) matrices."""
    s = len(tables) - 1
    tail = tables[s]
    while s > 0 and len(tables[s - 1]) * len(tail) <= step:
        s -= 1
        tail = (tables[s][:, None] + tail[None]).reshape(-1, *tail.shape[1:])
    for head in itertools.product(*tables[:s]):
        yield sum(head, tail)


def _min_abs_det_product(A, units):
    """Exact min |det| over the nonzero differences of the code
    sum_k x_k A_k with x drawn from the product of (indices, values) units."""
    diffs = [_unit_differences(V) for _idx, V in units]
    n = _class_count(diffs)
    if n > DIFF_CAP:
        raise DiversityCapError("%d difference classes exceed the cap of %d"
                                % (n, DIFF_CAP))
    N = A.shape[-1]
    mats = [(d @ A[list(idx)].reshape(len(idx), -1)).reshape(-1, N, N)
            for (idx, _V), (d, _pick) in zip(units, diffs)]
    step = max(1, _BLOCK // (N * N))
    best = np.inf
    for p, (_d, pick) in enumerate(diffs):
        if not pick.any():
            continue
        for block in _sum_blocks([mats[p][pick]] + mats[p + 1:], step):
            best = min(best, float(np.abs(_det_batch(block)).min()))
    return best


def difference_classes(signals):
    """Number of +- classes of distinct nonzero codeword differences."""
    return _class_count([_unit_differences(u.values())
                         for u in signals.units])


def full_diversity_check(stbc):
    """Minimum |det| over all nonzero codeword differences.

    Takes one determinant per +- class of distinct differences, built
    from the units' value differences; raises DiversityCapError, before
    allocating any class, when there are more than DIFF_CAP.
    """
    units = [(u.indices, u.values()) for u in stbc.signals.units]
    return _min_abs_det_product(stbc.matrices, units)


def _min_det_from_points(matrices, point_lists):
    units = [((k,), np.reshape(p, (-1, 1)))
             for k, p in enumerate(point_lists)]
    return _min_abs_det_product(np.asarray(matrices), units)


def _check_growth_cap(sizes):
    """Refuse point-set targets whose code could exceed DIFF_CAP classes;
    q points have at most q(q-1)+1 distinct differences."""
    total = 1
    for q in sizes:
        total *= q * (q - 1) + 1
    if (total - 1) // 2 > DIFF_CAP:
        raise DiversityCapError(
            "requested codebook may have %d difference classes, over the "
            "cap of %d" % ((total - 1) // 2, DIFF_CAP))


# ---------------------------------------------------------------------------
# rotation search

def _qam_diffs(M):
    """Nonzero differences of the unrotated unit-distance M-QAM."""
    pam = pam_points(qam_side(M))
    d = sorted({round(a - b, 9) for a in pam for b in pam})
    out = [complex(x, y) for x in d for y in d if (x, y) != (0.0, 0.0)]
    return np.asarray(out)


def _prior_differences(C):
    """Zero, then one of each +- pair of distinct nonzero differences of
    the codewords C."""
    d = (C[:, None] - C[None, :]).reshape(len(C) ** 2, -1)
    keys = _keys(np.concatenate([d.real, d.imag], axis=1))
    idx = _distinct(keys)
    keep = idx[_positive(keys[idx])]
    zero = np.zeros((1,) + C.shape[1:], complex)
    return np.concatenate([zero, d[keep].reshape(-1, *C.shape[1:])])


def _pair_dets(D, dz, Bp, Bm):
    """det(D_i + dz_j Bp + conj(dz_j) Bm) as a (len(D), len(dz)) array."""
    P = dz[:, None, None] * Bp + np.conj(dz)[:, None, None] * Bm
    step = max(1, _BLOCK // P.size)
    out = np.empty((len(D), len(dz)), complex)
    for i in range(0, len(D), step):
        out[i:i + step] = _det_batch(D[i:i + step, None] + P[None])
    return out


def _laurent_coefficients(D, w, Bp, Bm):
    """One row per (D_i, w_j): the coefficients c_k, k = 0..N, -N..-1
    (FFT order), of det(D_i + z w_j Bp + conj(w_j) Bm / z) = sum c_k z^k,
    from its values at the 2N+1 roots of unity."""
    L = 2 * Bp.shape[-1] + 1
    z = np.exp(2j * np.pi * np.arange(L) / L)
    samples = _pair_dets(D, (w[:, None] * z).ravel(), Bp, Bm)
    return np.fft.fft(samples.reshape(-1, L), axis=1) / L


def _grid_min(coeffs, thetas):
    """min over rows of |sum_k c_k e^{ik theta}| at each theta."""
    L = coeffs.shape[1]
    E = np.exp(1j * np.outer(np.fft.fftfreq(L, 1.0 / L), thetas))
    out = np.full(len(thetas), np.inf)
    step = max(1, _BLOCK // len(thetas))
    for i in range(0, len(coeffs), step):
        np.minimum(out, np.abs(coeffs[i:i + step] @ E).min(axis=0), out=out)
    return out


def rotation_search(C_prior, A1, A2, M, grid_size=720):
    """Angle making C_prior extended by an e^{i theta} QAM pair full diversity.

    Maximizes the minimum |det| over all nonzero codeword differences of
    the extended code on the grid theta_k = 2 pi k / grid_size.  Each
    distinct prior difference (one of each +- pair) plus a rotated QAM
    difference has a determinant that is a Laurent polynomial of degree
    <= N in e^{i theta}; its coefficients come from 2N+1 samples and one
    FFT, and one matrix product evaluates the grid.  The minimum has
    period pi/2, so for grid sizes divisible by 4 only (0, pi/2] is
    evaluated.  The result is the smallest grid angle within a relative
    TIE_RTOL of the best minimum, accepted once direct determinants at
    that angle clear DET_TOL; otherwise the grid is refined 4x, up to
    three times, before giving up.
    """
    A1 = np.asarray(A1, complex)
    A2 = np.asarray(A2, complex)
    sv = np.linalg.svd(A1 + 1j * A2, compute_uv=False)
    if sv[-1] <= DET_TOL:
        raise ValueError("A1 + i*A2 is rank deficient; no angle can work")
    D = _prior_differences(np.asarray(list(C_prior), complex))
    base_min = (float(np.abs(_det_batch(D[1:])).min()) if len(D) > 1
                else np.inf)
    best_min = base_min
    w = _qam_diffs(M)
    # half of A1 -+ i A2: x_I A1 + x_Q A2 = z*Bp + conj(z)*Bm
    Bp = (A1 - 1j * A2) / 2.0
    Bm = (A1 + 1j * A2) / 2.0
    coeffs = _laurent_coefficients(D, w, Bp, Bm)
    # a prior that is not full diversity cannot be rescued by any angle
    for _ in range(4 if base_min > DET_TOL else 0):
        n = grid_size // 4 if grid_size % 4 == 0 else grid_size
        thetas = 2 * np.pi * np.arange(1, n + 1) / grid_size
        mins = np.minimum(_grid_min(coeffs, thetas), base_min)
        best_min = float(mins.max())
        theta = float(thetas[np.argmax(mins >= best_min * (1 - TIE_RTOL))])
        if best_min > DET_TOL:
            direct = np.abs(_pair_dets(D, np.exp(1j * theta) * w, Bp, Bm))
            if float(direct.min()) > DET_TOL:
                return theta
        grid_size *= 4
    raise ValueError("no grid angle certifies full diversity "
                     "(best min |det| = %.3g)" % best_min)


def _check_full_rank(A, start=0):
    for k, a in enumerate(A[start:], start=start):
        sv = np.linalg.svd(a, compute_uv=False)
        if sv[-1] <= DET_TOL:
            raise ValueError("weight matrix %d is singular" % k)


def _grow(A, points, sizes, start, rng, retries):
    """Grow points[k] to sizes[k - start] points for every k >= start.

    Candidates are drawn uniformly from [-10, 10); each is kept only if
    the enlarged code still passes the exhaustive check, and each symbol
    may reject `retries` candidates.  Returns sorted point tuples.
    """
    for k in range(start, len(points)):
        budget = retries
        while len(points[k]) < sizes[k - start]:
            cand = float(rng.uniform(-10, 10))
            if any(abs(cand - p) < 1e-9 for p in points[k]):
                continue
            trial = [list(p) for p in points]
            trial[k].append(cand)
            if _min_det_from_points(A, trial) > DET_TOL:
                points[k].append(cand)
            else:
                budget -= 1
                if budget == 0:
                    raise RuntimeError(
                        "growth retry budget exhausted at symbol %d" % k)
    return tuple(tuple(sorted(p)) for p in points)


def grow_constellation(ld, sizes, seed=0, retries=200):
    """Greedy per-real point growth keeping the code full diversity.

    Requires every weight matrix to be full rank; each accepted point is
    certified by an exhaustive difference-determinant check, so the
    returned point lists always produce a full-diversity code.
    """
    A = ld.matrices()
    _check_full_rank(A)
    K = ld.K
    if len(sizes) != K:
        raise ValueError("need one size per real symbol")
    _check_growth_cap(sizes)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    points = [[float(rng.uniform(-10, 10))] for _ in range(K)]
    return _grow(A, points, sizes, 0, rng, retries)


def grow_with_pam_prefix(ld, L, pam_sets, sizes=None, seed=0, retries=200):
    """Keep PAM sets on the first L orthogonal symbols, grow the rest.

    The first L weight matrices must satisfy the Hurwitz-Radon equations
    A_i^H A_j + A_j^H A_i = 2*1{i=j}*I.  sizes gives the target point
    counts for symbols L+1..K (default 2 each).
    """
    A = ld.matrices()
    N = A.shape[1]
    for i in range(L):
        for j in range(i, L):
            want = 2.0 * np.eye(N) if i == j else np.zeros((N, N))
            got = A[i].conj().T @ A[j] + A[j].conj().T @ A[i]
            if np.linalg.norm(got - want) > 1e-9:
                raise ValueError(
                    "matrices %d,%d violate the Hurwitz-Radon equations"
                    % (i, j))
    if len(pam_sets) != L:
        raise ValueError("need %d PAM sets" % L)
    K = ld.K
    if sizes is None:
        sizes = (2,) * (K - L)
    if len(sizes) != K - L:
        raise ValueError("need one target size per grown symbol")
    _check_full_rank(A, L)
    _check_growth_cap([len(p) for p in pam_sets] + list(sizes))
    rng = np.random.default_rng(np.random.SeedSequence([seed, L]))
    points = [sorted(map(float, p)) for p in pam_sets] + \
        [[float(rng.uniform(-10, 10))] for _ in range(L, K)]
    if _min_det_from_points(A, points) <= DET_TOL:
        raise RuntimeError("initial configuration failed certification")
    return _grow(A, points, sizes, L, rng, retries)
