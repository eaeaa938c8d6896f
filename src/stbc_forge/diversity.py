"""Generator matrices, cubic shaping, and full-diversity constellations.

The generator matrix stacks the real and imaginary parts of each
vectorized weight matrix as a column; a design has cubic shaping when
(GQ)^T (GQ) is a scalar matrix for the orthogonal symbol rotation Q.
For weight matrices realizing F2 + F4^m vectors this Gram is always
2^m I_K, so shaping holds for any rotated integer-lattice constellation.

Full diversity of a finite code means every nonzero codeword difference
has nonzero determinant.  Every codebook here is the Cartesian product
of its signal-set units, so its difference set is the product of the
per-unit difference sets, and |det| is the same for D and -D.  One
enumerator over (weight matrices, units) yields a representative of
each +- class of distinct differences, (prod_u |D_u| - 1) / 2 of them,
in blocks summed in the codebook order by signalset.product_sums.

Certification works one HR-orthogonal group at a time.  The units split
into groups whose weight matrices are pairwise HR-orthogonal across
groups (A_i^H A_j + A_j^H A_i = 0; for family codes these are
design.finest_partition's groups), read from one numeric table per
weight-matrix stack, an instance's cached `hr_orthogonal`.  A difference
D = sum_g D_g with parts in such groups has D^H D = sum_g D_g^H D_g, and
Minkowski's determinant inequality gives |det D|^{2/N} >= sum_g
|det D_g|^{2/N}.  So the minimum |det| over the code is the smallest of
the groups' minima, attained by a difference inside one group, and
certification takes sum_g classes(g) determinants instead of their
product.  The single cap DIFF_CAP applies to each group's class count,
checked from the per-unit counts before any class is allocated; it
governs certification, `verify`, the rotation search and the finished
code of an auto-angle build.  Constellation growth bounds each group of
the grown code by q(q-1)+1 differences per q-point real before it starts.

A minimum is compared with DET_TOL, absolute, at N <= 4.  At N >= 8 a
computed determinant's LU backward error grows like N eps ||D||_2^N, so
a group's minimum also has to clear the floor N eps beta^N, where
beta = sum_k max|dx_k| ||A_k||_2 over the group's reals bounds ||D||_2
(||A_k||_2 = 1 for family codes).  A group at or below its floor raises
DiversityFloorError: its minimum certifies neither way, and `verify`
reports the suite infeasible.  m=3 R=1 (floor ~1e-9, minimum 0.037)
certifies; m=4 R=1 (floors of order 1 against minima near 1e-6) does
not.

Rotating each QAM pair by a suitable angle achieves full diversity when
the pair matrices combine to a full-rank matrix.  The prior code is
given as units.  Only the prior units in the pair's own group combine
with it; every other group enters through the prior's minimum.  For
each class D of the own-group prior (and zero) and each QAM difference
w, det(D + e^{it} w B+ + e^{-it} w* B-) is a Laurent polynomial of
degree <= N in e^{it}: 2N+1 samples and one FFT give its coefficients
exactly, and one matrix product evaluates it on the whole angle grid.
The square-QAM difference set is invariant under multiplication by i,
so the minimum |det| has period pi/2 and only the GRID / 4 grid angles
in (0, pi/2] are evaluated, in one pass over one fixed grid.  The search
takes the smallest grid angle whose minimum |det| is within a relative
TIE_RTOL of the best and accepts it only through the group certifier,
run on the pair's own group with the rotated pair's values: DET_TOL,
DIFF_CAP and, at N >= 8, the LU error floor, as in every other verdict.
Every auto-angle family code that builds finds its angles on this grid.
Arbitrary per-real point sets achieving full diversity are grown
greedily: a sampled point changes only its real's group, every other
group has certified, so the point is kept when its group still does.
"""

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .design import components
from .pauli import TOL, hr_orthogonal_table
from .signalset import PairQAM, product_sums

DET_TOL = 1e-8
# most +- classes of distinct codeword differences one check evaluates
DIFF_CAP = 10 ** 7
# the rotation search's angles 2 pi k / GRID, k = 1..GRID / 4
GRID = 720
# candidates constellation growth may reject per symbol before it gives up
RETRIES = 200
# grid angles whose minimum |det| is this close (relative) to the best tie
TIE_RTOL = 1e-9
# complex entries per working block (16 MiB)
_BLOCK = 2 ** 20


class DiversityCapError(ValueError):
    """A group's difference set has more than DIFF_CAP +- classes."""


class DiversityFloorError(ValueError):
    """At N >= 8, a group's min |det| does not clear its LU error floor,
    so the computed value can certify neither way."""


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
    if not (np.isfinite(Q).all()
            and np.linalg.norm(Q.T @ Q - np.eye(K)) <= 1e-9):
        raise ValueError("Q is not orthogonal")
    return GeneratorMatrix(G=G, Q=Q)


def cubic_shaping_check(gm, tol=1e-9):
    """True when the rotated Gram is a scalar matrix."""
    M = gm.gram()
    a = float(np.mean(np.diag(M)))
    return bool(np.linalg.norm(M - a * np.eye(M.shape[0])) < tol)


def _det_batch(A):
    """Determinants of a (..., n, n) stack; explicit for n = 2."""
    n = A.shape[-1]
    if n == 2:
        return A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]
    return np.linalg.det(A)


# ---------------------------------------------------------------------------
# +- classes of distinct differences

def _unit_differences(V):
    """Distinct differences of one unit's value rows (keyed on the 1e-9
    grid, -0.0 as 0), and a mask picking one of each +- pair.  Zero is
    picked as well when two rows coincide, so repeated codewords certify
    as det 0."""
    V = np.asarray(V, dtype=float)
    d = (V[:, None] - V[None, :]).reshape(-1, V.shape[1])
    keys = np.rint(d * 1e9).astype(np.int64)
    repeated = np.count_nonzero(~keys.any(axis=1)) > len(V)
    order = np.lexsort(keys.T[::-1])
    keys, d = keys[order], d[order]
    new = np.ones(len(keys), bool)
    new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    keys, d = keys[new], d[new]
    first = keys[np.arange(len(keys)), (keys != 0).argmax(axis=1)]
    return d, (first > 0) | (repeated & ~keys.any(axis=1))


def _class_count(diffs):
    """+- classes of the product: the first nonzero unit takes a picked
    difference, later units any difference, earlier units zero."""
    total, tail = 0, 1
    for d, pick in reversed(diffs):
        total += int(np.count_nonzero(pick)) * tail
        tail *= len(d)
    return total


def check_class_cap(n):
    """Raise DiversityCapError when n +- classes exceed DIFF_CAP."""
    if n > DIFF_CAP:
        raise DiversityCapError("%d difference classes exceed the cap of %d"
                                % (n, DIFF_CAP))


def _class_blocks(A, units, rows=None):
    """One representative of each +- class of nonzero differences of the
    code sum_k x_k A_k, x drawn from the product of (indices, values)
    units, as (n, N, N) stacks of at most max(rows, last unit's difference
    count) matrices, 16 MiB by default.  The class count is checked
    against DIFF_CAP on the call, before any class is allocated."""
    diffs = [_unit_differences(V) for _idx, V in units]
    check_class_cap(_class_count(diffs))
    return _blocks(A, units, diffs, rows)


def _blocks(A, units, diffs, rows):
    N = A.shape[-1]
    mats = [(d @ A[list(idx)].reshape(len(idx), -1)).reshape(-1, N, N)
            for (idx, _V), (d, _pick) in zip(units, diffs)]
    rows = rows or max(1, _BLOCK // (N * N))
    for p, (_d, pick) in enumerate(diffs):
        if pick.any():
            yield from product_sums([mats[p][pick]] + mats[p + 1:], rows)


def _groups(orth, units):
    """The (indices, values) units split into mutually HR-orthogonal
    groups, read from the (K, K) table orth of the weight matrices: the
    connected components of units joined by a pair of weight matrices
    that is not HR-orthogonal.  Each group keeps the units' order; groups
    are ordered by their first unit."""
    U = np.zeros((len(units), len(orth)), np.int64)
    for u, (idx, _V) in enumerate(units):
        U[u, list(idx)] = 1
    return [[units[u] for u in g] for g in components(U @ ~orth @ U.T > 0)]


def _check_floor(A, units, mn):
    """At N >= 8 a group's minimum certifies only above the LU
    backward-error floor N eps beta^N, beta = sum_k max|dx_k| ||A_k||_2
    over the group's reals, a bound on ||D||_2 and so on |det D|^{1/N};
    raises DiversityFloorError at or below it.  N <= 4 keeps DET_TOL
    alone."""
    N = A.shape[-1]
    if N < 8:
        return
    idx = [i for ix, _V in units for i in ix]
    spread = np.concatenate([np.ptp(V, axis=0) for _ix, V in units])
    beta = float(spread @ np.linalg.norm(A[idx], ord=2, axis=(1, 2)))
    floor = N * np.finfo(float).eps * beta ** N
    if mn <= floor:
        raise DiversityFloorError(
            "min |det| %.3g of a group of %d reals does not clear its LU "
            "error floor %.3g at N=%d" % (mn, len(idx), floor, N))


def _min_abs_det_product(A, groups):
    """Exact min |det| over the nonzero differences of the code over units
    split into their HR-orthogonal groups: by Minkowski's inequality the
    smallest group minimum, inf for a single codeword.  Every group's
    class count is checked against DIFF_CAP before any class is built."""
    blocks = [_class_blocks(A, part) for part in groups]
    best = np.inf
    for part, group in zip(groups, blocks):
        mn = min((float(np.abs(_det_batch(b)).min()) for b in group),
                 default=np.inf)
        _check_floor(A, part, mn)
        best = min(best, mn)
    return best


def difference_classes(signals):
    """Number of +- classes of distinct nonzero codeword differences."""
    return _class_count([_unit_differences(u.values())
                         for u in signals.units])


def group_classes(orth, signals):
    """+- class count of each HR-orthogonal group of the code over the
    signal set, grouped by the (K, K) HR-orthogonality table orth of its
    weight matrices; their sum is the number of determinants
    full_diversity_check takes."""
    units = [(u.indices, u.values()) for u in signals.units]
    return [_class_count([_unit_differences(V) for _idx, V in part])
            for part in _groups(orth, units)]


def full_diversity_check(stbc):
    """Minimum |det| over all nonzero codeword differences.

    Takes one determinant per +- class of distinct differences inside
    each HR-orthogonal group, built from the units' value differences;
    raises DiversityCapError, before allocating any class, when a group
    has more than DIFF_CAP, and DiversityFloorError when at N >= 8 a
    group's minimum does not clear its LU error floor.
    """
    units = [(u.indices, u.values()) for u in stbc.signals.units]
    return _min_abs_det_product(stbc.matrices,
                                _groups(stbc.hr_orthogonal, units))


# ---------------------------------------------------------------------------
# rotation search

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


def rotation_search(A, units, pair, M):
    """Angle making the prior code extended by an e^{i theta} QAM pair
    full diversity.

    The prior is the code over the (indices, values) units, the zero
    codeword when there are none; pair = (i_I, i_Q) names the weight
    matrices of the rotated M-QAM symbol.  Maximizes the minimum |det|
    over the extended code's differences on the grid
    theta_k = 2 pi k / GRID, k = 1..GRID / 4: min(c, own(theta)), where
    c is the prior's minimum and own(theta) the minimum over zero or a
    class of the prior units in the pair's HR-orthogonal group (from the
    certification enumerator, in blocks and under DIFF_CAP) plus a QAM
    difference.  By Minkowski's inequality a difference with a part in
    another group is no smaller than that part, so c covers it.
    Takes the smallest grid angle within a relative TIE_RTOL of the best
    minimum and returns it when the certifier, on the prior's units in
    the pair's group plus the pair at that angle, finds a minimum above
    DET_TOL.  Raises ValueError naming the failed minimum (and angle)
    otherwise; the certifier itself raises DiversityCapError for a group
    over DIFF_CAP and, at N >= 8, DiversityFloorError for a minimum
    under the group's LU error floor.  A pair that is not two distinct
    reals of 0..K-1 outside the prior's, or a prior whose units do not
    own distinct reals of 0..K-1, is refused with a ValueError.
    """
    A = np.asarray(A, complex)
    owned = [i for idx, _V in units for i in idx]
    if not _distinct_reals(owned, len(A)):
        raise ValueError("prior units own reals %r, need distinct reals of "
                         "0..%d" % (owned, len(A) - 1))
    if len(pair) != 2 or not _distinct_reals(owned + list(pair), len(A)):
        raise ValueError("pair %r needs two distinct reals of 0..%d that no "
                         "prior unit owns" % (tuple(pair), len(A) - 1))
    A1, A2 = A[pair[0]], A[pair[1]]
    sv = np.linalg.svd(A1 + 1j * A2, compute_uv=False)
    if sv[-1] <= DET_TOL:
        raise ValueError("A1 + i*A2 is rank deficient; no angle can work")
    orth = hr_orthogonal_table(A)
    best_min = _min_abs_det_product(A, _groups(orth, units))
    # the prior units in the pair's group: the group ending in the
    # unrotated pair, whose nonzero differences are x_I + i x_Q
    probe = units + [(pair, PairQAM(pair, M).values())]
    *own, (_pair, V) = next(g for g in _groups(orth, probe)
                            if g[-1] is probe[-1])
    d, _pick = _unit_differences(V)
    w = d[d.any(axis=1)].view(complex)[:, 0]
    # half of A1 -+ i A2: x_I A1 + x_Q A2 = z*Bp + conj(z)*Bm
    Bp = (A1 - 1j * A2) / 2.0
    Bm = (A1 + 1j * A2) / 2.0
    N = A.shape[-1]
    rows = max(1, _BLOCK // (len(w) * (2 * N + 1)))
    # a prior that is not full diversity cannot be rescued by any angle
    if best_min > DET_TOL:
        thetas = 2 * np.pi * np.arange(1, GRID // 4 + 1) / GRID
        mins = np.full(len(thetas), best_min)
        for D in itertools.chain([np.zeros((1, N, N), complex)],
                                 _class_blocks(A, own, rows)):
            np.minimum(mins, _grid_min(_laurent_coefficients(D, w, Bp, Bm),
                                       thetas), out=mins)
        best_min = float(mins.max())
        theta = float(thetas[np.argmax(mins >= best_min * (1 - TIE_RTOL))])
        if best_min > DET_TOL:
            direct = _min_abs_det_product(
                A, [own + [(pair, PairQAM(pair, M, theta).values())]])
            if direct > DET_TOL:
                return theta
            raise ValueError("no grid angle certifies full diversity "
                             "(direct min |det| = %.3g at theta = %.6g)"
                             % (direct, theta))
    raise ValueError("no grid angle certifies full diversity "
                     "(best min |det| = %.3g)" % best_min)


def _distinct_reals(idx, K):
    """True when idx are distinct integer reals of 0..K-1."""
    return len(set(idx)) == len(idx) and all(
        isinstance(i, numbers.Integral) and 0 <= i < K for i in idx)


def _check_full_rank(A, start=0):
    for k, a in enumerate(A[start:], start=start):
        sv = np.linalg.svd(a, compute_uv=False)
        if sv[-1] <= DET_TOL:
            raise ValueError("weight matrix %d is singular" % k)


def _real_groups(orth, sizes):
    """The HR-orthogonal groups of the reals, as lists of indices read
    from the table orth, for point-set targets sizes, one per real.
    Refuses a target that is not an integer >= 1, and targets under
    which a group could exceed DIFF_CAP classes; q points have at most
    q(q-1)+1 distinct differences."""
    for k, q in enumerate(sizes):
        if not (isinstance(q, numbers.Integral) and q >= 1):
            raise ValueError("real %d: target size %r is not an integer "
                             ">= 1" % (k, q))
    groups = [[k for (k,), _V in g]
              for g in _groups(orth, [((k,), None) for k in range(len(orth))])]
    for g in groups:
        check_class_cap(
            (math.prod(sizes[k] * (sizes[k] - 1) + 1 for k in g) - 1) // 2)
    return groups


def _certifies(A, points, groups):
    """min |det| of the code over the point lists' groups > DET_TOL."""
    return _min_abs_det_product(A, [[((k,), np.reshape(points[k], (-1, 1)))
                                     for k in g] for g in groups]) > DET_TOL


def _grow(A, groups, points, sizes, start, rng):
    """Grow points[k] to sizes[k - start] points for every k >= start.

    Candidates are drawn uniformly from [-10, 10); each is kept only if
    real k's group, the one group it changes, still certifies (so does
    the code), and each symbol may reject RETRIES candidates.  Returns
    sorted point tuples.
    """
    group = {k: g for g in groups for k in g}
    for k in range(start, len(points)):
        budget = RETRIES
        while len(points[k]) < sizes[k - start]:
            cand = float(rng.uniform(-10, 10))
            if any(abs(cand - p) < 1e-9 for p in points[k]):
                continue
            points[k].append(cand)
            if not _certifies(A, points, [group[k]]):
                points[k].pop()
                budget -= 1
                if budget == 0:
                    raise RuntimeError(
                        "growth retry budget exhausted at symbol %d" % k)
    return tuple(tuple(sorted(p)) for p in points)


def grow_constellation(ld, sizes, seed=0):
    """Greedy per-real point growth keeping the code full diversity.

    Requires every weight matrix to be full rank and every target size
    to be an integer >= 1; each accepted point is certified by an
    exhaustive difference-determinant check of its group, so the
    returned point lists always produce a full-diversity code.
    """
    A = ld.matrices()
    _check_full_rank(A)
    K = ld.K
    if len(sizes) != K:
        raise ValueError("need one size per real symbol")
    groups = _real_groups(hr_orthogonal_table(A), sizes)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    points = [[float(rng.uniform(-10, 10))] for _ in range(K)]
    return _grow(A, groups, points, sizes, 0, rng)


def grow_with_pam_prefix(ld, L, pam_sets, sizes=None, seed=0):
    """Keep PAM sets on the first L orthogonal symbols, grow the rest.

    The first L weight matrices must satisfy the Hurwitz-Radon equations
    A_i^H A_j + A_j^H A_i = 2*1{i=j}*I, and each PAM set must be
    non-empty, finite and free of repeats.  sizes gives the target
    point counts, integers >= 1, for symbols L+1..K (default 2 each).
    """
    if not 0 <= L <= ld.K:
        raise ValueError("PAM prefix of L=%d symbols, need 0 <= L <= K=%d"
                         % (L, ld.K))
    points = [sorted(map(float, p)) for p in pam_sets]
    for k, p in enumerate(points):
        if not (p and np.isfinite(p).all()):
            raise ValueError("PAM set %d %r is empty or not finite"
                             % (k, tuple(pam_sets[k])))
        if any(b - a < 1e-9 for a, b in zip(p, p[1:])):
            raise ValueError("PAM set %d %r repeats a point"
                             % (k, tuple(pam_sets[k])))
    A = ld.matrices()
    orth = hr_orthogonal_table(A)
    # HR-orthogonal pairs, and A_i^H A_i = I on the diagonal
    ok = orth[:L, :L].copy()
    unit = A[:L].conj().transpose(0, 2, 1) @ A[:L] - np.eye(A.shape[1])
    np.fill_diagonal(ok, 2 * np.linalg.norm(unit, axis=(1, 2)) <= TOL)
    bad = np.triu(~ok)
    if bad.any():
        raise ValueError("matrices %d,%d violate the Hurwitz-Radon equations"
                         % divmod(int(bad.argmax()), L))
    if len(pam_sets) != L:
        raise ValueError("need %d PAM sets" % L)
    K = ld.K
    if sizes is None:
        sizes = (2,) * (K - L)
    if len(sizes) != K - L:
        raise ValueError("need one target size per grown symbol")
    _check_full_rank(A, L)
    groups = _real_groups(orth, [len(p) for p in points] + list(sizes))
    rng = np.random.default_rng(np.random.SeedSequence([seed, L]))
    points += [[float(rng.uniform(-10, 10))] for _ in range(L, K)]
    if not _certifies(A, points, groups):
        raise RuntimeError("initial configuration failed certification")
    return _grow(A, groups, points, sizes, L, rng)
