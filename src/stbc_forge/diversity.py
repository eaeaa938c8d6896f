"""Generator matrices, cubic shaping, and full-diversity constellations.

The generator matrix stacks the real and imaginary parts of each
vectorized weight matrix as a column; a design has cubic shaping when
(GQ)^T (GQ) is a scalar matrix for the orthogonal symbol rotation Q.
For weight matrices realizing F2 + F4^m vectors this Gram is always
2^m I_K, so shaping holds for any rotated integer-lattice constellation.

Full diversity of a finite code means every nonzero codeword difference
has nonzero determinant.  Every codebook here is the Cartesian product
of its signal-set units, so its difference set is the product of the
per-unit difference sets, (prod_u |D_u| - 1) / 2 +- classes of distinct
nonzero differences.  Most of them repeat a |det| already taken.
Conjugation by a Pauli P, alone or after transposition or complex
conjugation, keeps |det|, and for the Pauli realizations of the family
it sends each weight matrix A_k to +-A_k (Calderbank, Rains, Shor and
Sloane, IEEE Trans. IT 1998); pauli.sign_patterns lists the signs of
every such symmetry of a weight-matrix stack, found by exact equality
on the matrices (Silver's folded z3, z4 have one, J conj(X) J^H with
J = ZX).  A pattern s constant on every unit of a group sends the
group's difference sum_u d_u to sum_u s_u d_u, a difference of the same
code, since each unit's difference set is symmetric, with the same
|det|.  Those patterns and their negations form the group's sign group,
and the minimum over one representative of each orbit is exact.
The one enumerator, _class_blocks, picks the representatives by a normal
form: it walks the units in codebook order, keeping the rows of the sign
group that fix every earlier nonzero unit, and a unit takes zero or a
picked difference (one of each +- pair) when a kept row flips it, after
which only the rows that do not flip it are kept, or else any
difference.  Each orbit has exactly one normal form.  With +-1 alone
this is the +- class rule, the first nonzero unit picked; the family's
groups have 16 or 32 patterns (m=2 R=5/4: 3,284 determinants become
628).  The representatives are summed from the units' own cached
difference tables in codebook order by signalset.product_sums.

Certification works one HR-orthogonal group at a time.  The units split
into groups whose weight matrices are pairwise HR-orthogonal across
groups (A_i^H A_j + A_j^H A_i = 0; for family codes these are
design.finest_partition's groups), read by _groups from one numeric
table per weight-matrix stack, an instance's cached `hr_orthogonal`.
Verify, the rotation search and growth all group their units this way
and certify each group with one call of _group_min.  A difference
D = sum_g D_g with parts in such groups has D^H D = sum_g D_g^H D_g, and
Minkowski's determinant inequality gives |det D|^{2/N} >= sum_g
|det D_g|^{2/N}.  So the minimum |det| over the code is the smallest of
the groups' minima, attained by a difference inside one group, and
certification takes one determinant per orbit of each group instead of
one per class of their product; full_diversity_check returns the
smallest group minimum with the groups' summed count (MinDet.checked,
verify's checked=).  The single cap DIFF_CAP applies to each group's
+- class count, not its orbit count, checked from the per-unit counts
before any class is allocated; it governs certification, `verify`, the
rotation search and the finished code of an auto-angle build.
Constellation growth bounds each group of the grown code by q(q-1)+1
differences per q-point real before it starts.

At N = 2 and 4 a determinant is a closed-form sum of products of 2x2
minors, exact on Gaussian-integer entries; other N take an LU
factorization.  A minimum is compared with DET_TOL, absolute, at N <= 4.
At N >= 8 a computed determinant's LU backward error grows like
N eps ||D||_2^N, so a group's minimum also has to clear the floor
N eps beta^N, where beta = sum_k max|dx_k| ||A_k||_2 over the group's
reals bounds ||D||_2 (||A_k||_2 = 1 for family codes).  A group at or
below its floor raises DiversityFloorError: its minimum certifies
neither way, and `verify` reports the suite infeasible.  m=3 R=1 (floor
~1e-9, minimum 0.037) certifies; m=4 R=1 (floors of order 1 against
minima near 1e-6) does not.

Rotating each QAM pair by a suitable angle achieves full diversity when
the pair matrices combine to a full-rank matrix.  One rotation search
takes a prior code of signal-set units and all of a code's pairs, each
searched against the prior and the pairs before it.  It reads one
HR-orthogonality table, checks each group of the finished code against
DIFF_CAP before any search and certifies each prior group once.  It
carries the code's minimum as one number: a pair's merged group holds
every class of the groups it joins, so its certified minimum is at most
theirs.  Only the units in the pair's own group combine with it; every
other group enters through that minimum.
The search's rows are the same walk with the new pair last: zero and a
representative D of each orbit of the own group's differences, under
the sign group of the own group plus the pair, each with every nonzero
QAM difference w, or with the picked w alone when a row kept at D flips
the pair.  For each row, det(D + e^{it} w B+ + e^{-it} w* B-) is a
Laurent polynomial of degree
<= N in e^{it}, whose coefficients for every w take (N+1)^2 determinants
and one 2-D FFT (_laurent_coefficients); one more matrix product
evaluates them on the angle grid.  The square-QAM difference set is
invariant under multiplication by i, so the minimum |det| has period
pi/2 and only the GRID / 4 grid angles in (0, pi/2] are evaluated, in
one pass.  A search builds its tables once (the sample points, the
monomial matrix from FFT to coefficients and the angle table), each
pair its sample offsets once, and a pair walks zero and its group's
classes as one stream of blocks.  The grid pass takes a block's
coefficient rows in order of a lower bound on their values,
|c_0| - sum_{k != 0} |c_k| less a rounding margin, in cache-sized
chunks folded into the pair's running minimum at each angle, and stops
at the first chunk whose least bound reaches the largest running
minimum: no later row can lower any minimum, so the minima are bit for
bit those of evaluating every row (a branch and bound made exact by
the triangle inequality).  The search takes the smallest grid angle
whose minimum |det| is within a relative TIE_RTOL of the best and
accepts it only through the group certifier on the pair's own group
with the rotated pair's values, whose minimum the merged group then
carries: DET_TOL, DIFF_CAP and, at N >= 8, the LU error floor, as in
every other verdict.
Every auto-angle family code that builds finds its angles on this grid.
Arbitrary per-real point sets achieving full diversity are grown
greedily on one RealPoints unit per real, from the first drawn point to
the result: a sampled point c changes only its real's unit and group,
every other group has certified, so the point is kept when its group
still does.  That group certified before c, and an orbit whose
difference on the grown real is zero is one it held then, so its
certifier takes the new classes only: the grown real's differences
+-(c - p) to its current points p, walked in its codebook place with its
zero leaves skipped, with any difference of the group's earlier units.
These are exactly the full walk's representatives of the new orbits:
a real not yet grown holds its one drawn point, whose only difference
is zero, so it adds no class, determinant or floor term and is left
out.  No table is built per candidate.  A grown real joins its group's
certification when the group's next real starts growing, with its own
table (`differences`), built once.
"""

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .design import components
from .pauli import TOL, hr_orthogonal_table, sign_patterns
from .signalset import PairQAM, RealPoints, product_sums

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
# Laurent rows per chunk of the grid pass, its unit of skipping: 256 x
# GRID / 4 = 46,080 complex grid values (0.7 MiB) and their magnitudes
# stay in cache where 5,825-row steps took 16 MiB; on the m=2 R=5/4 and
# R=3/2 searches at M = 4, 128 to 1,024 rows time within 3% of each
# other, 64 rows up to 15% and 4,096 rows 8-12% slower
_GRID_ROWS = 256


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
    """Determinants of a (..., n, n) stack; explicit for n = 2 and 4."""
    n = A.shape[-1]
    if n == 2:
        return A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]
    if n == 4:
        return _det4(A)
    return np.linalg.det(A)


# Laplace expansion of a 4x4 determinant along rows 0, 1: the column
# pairs of each 2x2 minor of rows 0, 1 and of its complementary minor of
# rows 2, 3, the sign (-1)^(j + k + 1) folded into the first pair's order
_LAPLACE = (((0, 1), (2, 3)), ((2, 0), (1, 3)), ((0, 3), (1, 2)),
            ((1, 2), (0, 3)), ((3, 1), (0, 2)), ((2, 3), (0, 1)))
# 4x4 matrices per slice of _det4: 1 MiB of stack and 64 KiB temporaries
# stay in cache, 2-3x faster than whole-stack temporaries at 8,100 and
# 65,536 matrices
_DET4_ROWS = 4096


def _det4(A):
    """Determinants of a (..., 4, 4) stack: six products of 2x2 minors,
    each an array over a slice of _DET4_ROWS matrices built from column
    views.  Exact on Gaussian-integer entries, so a singular integer
    difference gives 0.0."""
    flat = A.reshape(-1, 4, 4)
    out = np.empty(len(flat), complex)
    (p0, q0), *rest = _LAPLACE
    for i in range(0, len(flat), _DET4_ROWS):
        col = [flat[i:i + _DET4_ROWS, :, j] for j in range(4)]
        det = out[i:i + _DET4_ROWS]
        np.multiply(_minor(col, 0, *p0), _minor(col, 2, *q0), out=det)
        for p, q in rest:
            det += _minor(col, 0, *p) * _minor(col, 2, *q)
    return out.reshape(A.shape[:-2])


def _minor(col, r, j, k):
    """The 2x2 minor of rows r, r + 1 and columns j, k over a stack given
    by its (n, 4) columns."""
    m = col[j][:, r] * col[k][:, r + 1]
    m -= col[k][:, r] * col[j][:, r + 1]
    return m


# ---------------------------------------------------------------------------
# orbits of distinct differences

def _class_count(units, tables=None):
    """+- classes of the units' product: the first nonzero unit takes a
    picked difference, later units any difference, earlier units zero;
    tables are the units' (d, pick) tables, by default their own."""
    total, tail = 0, 1
    for d, pick in reversed(tables or [u.differences for u in units]):
        total += int(np.count_nonzero(pick)) * tail
        tail *= len(d)
    return total


def _check_class_cap(n):
    """Raise DiversityCapError when n +- classes exceed DIFF_CAP."""
    if n > DIFF_CAP:
        raise DiversityCapError("%d difference classes exceed the cap of %d"
                                % (n, DIFF_CAP))


def _unit_flips(patterns, units):
    """The units' sign group, as one int per unit whose bit r is set when
    row r flips the unit: rows 0..P-1 are the (P, K) sign_patterns rows,
    rows P..2P-1 their negations, and a row not constant on some unit's
    reals flips no unit (the identity's effect)."""
    reals = [i for u in units for i in u.indices]
    packed = np.packbits(patterns[:, reals], axis=0, bitorder="little")
    cols = iter([int.from_bytes(c.tobytes(), "little") for c in packed.T])
    heads, varies = [], 0
    for u in units:
        head = next(cols)
        for _i in u.indices[1:]:
            varies |= head ^ next(cols)
        heads.append(head)
    const = ((1 << len(patterns)) - 1) & ~varies
    return [head & const | (const & ~head) << len(patterns) for head in heads]


# a unit's kind at a leaf of the normal form: a picked difference of each
# +- pair, zero, or any difference
_PICK, _ZERO, _ALL = range(3)


def _leaves(flips, U):
    """The leaves of the normal form's walk over units 0..U-1, in
    codebook order, with the sign group flips (_unit_flips, one row set
    per unit, U or more): per leaf, each unit's kind (_PICK, _ZERO or
    _ALL) and the set of rows kept at its end, -1 (every bit) being all.

    A unit that a kept row flips takes a picked difference, after which
    only the rows not flipping it are kept, or zero; a unit no kept row
    flips takes any difference.  -1 is a row, so the units before the
    first picked one are zero; with +-1 alone the leaves are the +-
    classes' first nonzero units, in order, and then the zero leaf."""
    leaves = [((), -1)]
    for rows in flips[:U]:
        walked = []
        for kinds, keep in leaves:
            if keep & rows:
                walked.append((kinds + (_PICK,), keep & ~rows))
                walked.append((kinds + (_ZERO,), keep))
            else:
                walked.append((kinds + (_ALL,), keep))
        leaves = walked
    return leaves


def _class_blocks(A, units, flips, rows=None, grown=None):
    """One representative of each orbit of nonzero differences of the
    code sum_k x_k A_k over the signal-set units under their sign group
    flips (_unit_flips; row sets past the units', a search's pair, are
    only carried), summed from the units' own (d, pick) difference
    tables, as ((n, N, N) block, kept rows) per block of a leaf of
    _leaves: each block at most max(rows, last unit's difference count)
    matrices, 16 MiB by default.  With flips of +-1 alone these are the
    +- classes, the first nonzero unit picked.

    grown = (position, table) names a unit and the (d, pick) table of
    only the nonzero differences it gained since the code last
    certified, read in place of its own: the leaves where it is zero are
    skipped, so the blocks are the full walk's representatives of
    exactly the orbits new with it.  The +- class count of the tables is
    checked against DIFF_CAP on the call, before any allocation."""
    at, table = grown or (None, None)
    tables = [table if u == at else unit.differences
              for u, unit in enumerate(units)]
    _check_class_cap(_class_count(units, tables))
    N = A.shape[-1]
    flat = A.reshape(len(A), -1)
    mats = [(d @ flat[list(u.indices)]).reshape(-1, N, N)
            for u, (d, _pick) in zip(units, tables)]
    rows = rows or max(1, _BLOCK // (N * N))

    def blocks():
        for kinds, keep in _leaves(flips, len(units)):
            if at is not None and kinds[at] == _ZERO:
                continue
            parts = [mats[u][tables[u][1]] if k == _PICK else mats[u]
                     for u, k in enumerate(kinds) if k != _ZERO]
            if parts and all(map(len, parts)):
                for block in product_sums(parts, rows):
                    yield block, keep
    return blocks()


def _coalesce(pairs, rows):
    """(block, key) pairs with the blocks of each key joined, in order, up
    to rows matrices, a larger block staying whole, as (block, key); each
    key's last block comes out when the pairs end."""
    parts = {}
    for block, key in pairs:
        part, size = parts.pop(key, ([], 0))
        if part and size + len(block) > rows:
            yield _joined(part), key
            part, size = [], 0
        part.append(block)
        parts[key] = (part, size + len(block))
    for key, (part, _size) in parts.items():
        yield _joined(part), key


def _joined(blocks):
    """The blocks as one stack; a single block as it is."""
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _groups(orth, units):
    """The signal-set units split into mutually HR-orthogonal groups,
    read from the (K, K) table orth of the weight matrices: the connected
    components of units joined by a pair of weight matrices that is not
    HR-orthogonal.  Each group keeps the units' order; groups
    are ordered by their first unit."""
    U = np.zeros((len(units), len(orth)), np.int64)
    U[[u for u, unit in enumerate(units) for _i in unit.indices],
      [i for unit in units for i in unit.indices]] = 1
    return [[units[u] for u in g.tolist()]
            for g in components(U @ ~orth @ U.T > 0)]


def _check_floor(A, units, mn):
    """At N >= 8 a group's minimum certifies only above the LU
    backward-error floor N eps beta^N, beta = sum_k max|dx_k| ||A_k||_2
    over the group's reals, a bound on ||D||_2 and so on |det D|^{1/N};
    raises DiversityFloorError at or below it.  N <= 4 keeps DET_TOL
    alone."""
    N = A.shape[-1]
    if N < 8:
        return
    idx = [i for u in units for i in u.indices]
    spread = np.concatenate([np.ptp(u.values(), axis=0) for u in units])
    beta = float(spread @ np.linalg.norm(A[idx], ord=2, axis=(1, 2)))
    floor = N * np.finfo(float).eps * beta ** N
    if mn <= floor:
        raise DiversityFloorError(
            "min |det| %.3g of a group of %d reals does not clear its LU "
            "error floor %.3g at N=%d" % (mn, len(idx), floor, N))


def _group_min(A, units, flips, grown=None, least=np.inf):
    """The MinDet of one HR-orthogonal group: min |det| over the nonzero
    differences of the code over the units, inf for a single codeword,
    taken on one representative per orbit under the group's sign group
    flips (_unit_flips).  With grown = (position, table) (_class_blocks)
    it takes only the orbits new with that unit, and least, the certified
    minimum of the others, joins the minimum.  The +- class count is
    checked against DIFF_CAP before any class is built, and at N >= 8 the
    minimum has to clear the group's LU error floor.  Blocks join up to
    _DET4_ROWS matrices, a larger one going whole: joining pays on small
    blocks and only copies large ones.  full_diversity_check on the
    pinned m=2 builds at M=4, medians of six rounds (best of 30/10/3
    calls), joining up to _DET4_ROWS, up to 65,536 and not at all: R=5/4
    0.89, 0.90 and 1.94 ms; R=3/2 6.4, 7.5 and 10.5 ms; R=7/4 42, 55 and
    47 ms."""
    rows = max(1, _BLOCK // A.shape[-1] ** 2)
    mn, taken = least, 0
    for block, _key in _coalesce(
            ((block, None) for block, _keep in
             _class_blocks(A, units, flips, rows, grown)),
            _DET4_ROWS):
        mn = min(mn, float(np.abs(_det_batch(block)).min()))
        taken += len(block)
    _check_floor(A, units, mn)
    return MinDet(mn, taken)


def difference_classes(signals):
    """Number of +- classes of distinct nonzero codeword differences."""
    return _class_count(signals.units)


class MinDet(float):
    """A certified minimum |det|, carrying `checked`, the number of
    determinants the certification took."""

    def __new__(cls, value, checked):
        self = super().__new__(cls, value)
        self.checked = checked
        return self


def full_diversity_check(stbc):
    """Minimum |det| over all nonzero codeword differences, a MinDet.

    Takes one determinant per orbit of distinct differences under the
    weight matrices' sign patterns inside each HR-orthogonal group, one
    group certifier call per group, built from
    the units' value differences; raises DiversityCapError, before
    allocating any class, when a group has more than DIFF_CAP +- classes,
    and DiversityFloorError when at N >= 8 a group's minimum does not
    clear its LU error floor.
    """
    A, groups = stbc.matrices, _groups(stbc.hr_orthogonal, stbc.signals.units)
    for g in groups:  # a code over the cap needs no sign patterns
        _check_class_cap(_class_count(g))
    patterns = sign_patterns(A)
    mins = [_group_min(A, g, _unit_flips(patterns, g)) for g in groups]
    return MinDet(min(mins, default=np.inf), sum(m.checked for m in mins))


# ---------------------------------------------------------------------------
# rotation search

def _laurent_tables(w, N):
    """The search's tables for the QAM differences w at N: the sample
    points u_a = rho omega^a, a = 0..N, omega = e^{2 pi i / (N + 1)},
    rho = max |w_j|, and _monomials(w / rho, N)."""
    rho = float(np.abs(w).max())
    u = rho * np.exp(2j * np.pi * np.arange(N + 1) / (N + 1))
    return u, _monomials(w / rho, N)


def _sample_offsets(u, Bp, Bm):
    """(N + 1, N + 1, N, N) stack of u_a Bp + u_b Bm, one pair's offsets
    of the (N + 1)^2 samples of every class."""
    return u[:, None, None, None] * Bp + u[None, :, None, None] * Bm


def _laurent_coefficients(D, offsets, mono):
    """One row per (D_i, w_j): the coefficients c_k, k = 0..N, -N..-1
    (FFT order), of det(D_i + z w_j Bp + conj(w_j) Bm / z) = sum c_k z^k,
    from the pair's _sample_offsets and the search's monomial matrix
    (_laurent_tables).

    f(s, t) = det(D_i + s Bp + t Bm) has total degree <= N, so its values
    at s = u_a, t = u_b, a, b = 0..N, and one 2-D FFT give its
    coefficients C_ab; then c_k = sum_{a - b = k} C_ab
    w_j^a conj(w_j)^b is one product with the fixed monomial matrix.
    That is (N + 1)^2 determinants per D_i, whatever the number of w_j."""
    n = len(offsets)
    F = _det_batch(D[:, None, None] + offsets)
    C = np.fft.fft2(F).reshape(len(D), n * n)
    return (C @ mono).reshape(-1, 2 * n - 1)


def _monomials(v, N):
    """The ((N + 1)^2, len(v) (2N + 1)) matrix taking the 2-D FFT of an
    (N + 1) x (N + 1) grid, index (a, b), to Laurent coefficients, index
    (j, k) with k in FFT order: v_j^a conj(v_j)^b / (N + 1)^2 at
    k = a - b, for the a + b <= N within the determinant's degree."""
    n, L = N + 1, 2 * N + 1
    a, b = np.divmod(np.arange(n * n), n)
    out = np.zeros((n * n, len(v), L), complex)
    for i in np.flatnonzero(a + b <= N):
        out[i, :, (a[i] - b[i]) % L] = v ** a[i] * np.conj(v) ** b[i]
    return out.reshape(n * n, -1) / (n * n)


def _angle_table(L, thetas):
    """(L, len(thetas)) values e^{ik theta}, k in FFT order: a row of L
    Laurent coefficients times it is the row's values on the grid."""
    return np.exp(1j * np.outer(np.fft.fftfreq(L, 1.0 / L), thetas))


def _grid_min(coeffs, E, out, skip=True):
    """Fold min over rows of |sum_k c_k e^{ik theta}| at each grid angle
    (the columns of E, _angle_table) into out, in place; returns the
    number of rows evaluated.

    Rows go in ascending order of a lower bound beta on their values and
    are evaluated _GRID_ROWS at a time; the fold stops at the first chunk
    whose least beta is >= max(out) (skip=False evaluates every chunk, in
    the same order).  On |z| = 1 the triangle inequality gives
    |sum c_k z^k| >= |c_0| - sum_{k != 0} |c_k|, so with S = sum_k |c_k|
    beta = 2 |c_0| - (1 + 4 L eps) S.  The margin 4 L eps S = 8 L u S,
    u = eps / 2, covers the rounding, each term a multiple of u S: the
    grid product's complex dot product of L terms, sqrt(2) (L + 2); the
    computed e^{ik theta}, of modulus up to 1 + 2u, 2; |.|, 1; and beta's
    own magnitudes, sum and scaling, L + 2: (2.5 L + 8) u S in all, below
    the margin for L >= 2.  A skipped row's computed value is then >= its
    beta >= max(out) at every angle, so out is bit for bit what
    evaluating every chunk gives."""
    L = coeffs.shape[1]
    mag = np.abs(coeffs)
    beta = 2 * mag[:, 0] - (1 + 4 * L * np.finfo(float).eps) * mag.sum(axis=1)
    order = np.argsort(beta, kind="stable")
    for i in range(0, len(order), _GRID_ROWS):
        rows = order[i:i + _GRID_ROWS]
        if skip and beta[rows[0]] >= out.max():
            return i
        np.minimum(out, np.abs(coeffs[rows] @ E).min(axis=0), out=out)
    return len(order)


def _class_stream(A, units, flips, rows):
    """(D, flipped) stacks: zero, then one representative of each orbit of
    nonzero differences of the units (_class_blocks) under the sign group
    flips, whose last row set is the searched pair's; flipped when a row
    kept at D's leaf flips the pair, so D + w and D - w are one orbit.
    The blocks of each flag coalesce up to rows matrices (_coalesce)."""
    zero = np.zeros((1,) + A.shape[1:], complex)
    pair = flips[len(units)]
    blocks = itertools.chain([(zero, -1)],
                             _class_blocks(A, units, flips, rows))
    return _coalesce(((D, bool(keep & pair)) for D, keep in blocks), rows)


def rotation_search(A, units, pairs, M):
    """Angles making the prior code extended by e^{i theta} M-QAM pairs
    full diversity, one per pair, searched in the given order.

    The prior is the code over the signal-set units, the zero codeword
    when there are none; pair = (i_I, i_Q), the reals of the symbol
    PairQAM(pair, M, theta), is searched against the prior plus the
    pairs before it.  Raises DiversityCapError before any search when a
    group of the finished code (the prior plus every pair, unrotated)
    exceeds DIFF_CAP.  Each pair takes the smallest grid angle
    2 pi k / GRID, k = 1..GRID / 4, within a relative TIE_RTOL of the
    best min(c, own(theta)): c the smallest minimum of the current
    groups, own(theta) that over zero or a class of the units in the
    pair's group plus a QAM difference.  The angle stands when the
    certifier finds that group plus the rotated pair above DET_TOL, and
    the merged group carries the minimum; a ValueError names the failed
    minimum (and angle) otherwise, and at N >= 8 the certifier raises
    DiversityFloorError under the group's LU error floor.  A prior whose
    units do not own distinct reals of 0..K-1, a pair that is not two
    distinct reals outside the prior's and the earlier pairs', and a
    pair with A1 + i A2 rank deficient are refused with a ValueError
    before any search.
    """
    A = np.asarray(A, complex)
    owned = [i for u in units for i in u.indices]
    if not _distinct_reals(owned, len(A)):
        raise ValueError("prior units own reals %r, need distinct reals of "
                         "0..%d" % (owned, len(A) - 1))
    for pair in pairs:
        owned += list(pair)
        if len(pair) != 2 or not _distinct_reals(owned, len(A)):
            raise ValueError("pair %r needs two distinct reals of 0..%d that "
                             "no prior unit owns" % (tuple(pair), len(A) - 1))
        sv = np.linalg.svd(A[pair[0]] + 1j * A[pair[1]], compute_uv=False)
        if sv[-1] <= DET_TOL:
            raise ValueError("A1 + i*A2 is rank deficient; no angle can work")
    orth = hr_orthogonal_table(A)
    unrotated = [PairQAM(pair, M) for pair in pairs]
    units, found = list(units), []
    for g in _groups(orth, units + unrotated):
        _check_class_cap(_class_count(g))
    patterns = sign_patterns(A)
    # the code's minimum: a merged group holds the classes of the groups
    # it joins, so its minimum is at most theirs
    least = min((_group_min(A, g, _unit_flips(patterns, g))
                 for g in _groups(orth, units)), default=np.inf)
    # the nonzero differences x_I + i x_Q of the unrotated M-QAM, and
    # which of them the +- pick keeps
    d, pick = PairQAM((0, 1), M).differences
    nonzero = d.any(axis=1)
    w = d[nonzero].view(complex)[:, 0]
    N = A.shape[-1]
    # prior classes per block: their (N+1)^2 samples and their Laurent
    # rows each fit _BLOCK
    rows = max(1, _BLOCK // max((N + 1) ** 2 * N * N, len(w) * (2 * N + 1)))
    thetas = 2 * np.pi * np.arange(1, GRID // 4 + 1) / GRID
    u, mono = _laurent_tables(w, N)
    # a flipped class's rows: the picked differences' columns of mono
    monos = {False: mono, True: mono.reshape((N + 1) ** 2, len(w), -1)[
        :, pick[nonzero]].reshape((N + 1) ** 2, -1)}
    E = _angle_table(2 * N + 1, thetas)
    for unit in unrotated:
        # the units in the pair's group, ahead of the unrotated pair
        *own, _ = next(g for g in _groups(orth, units + [unit])
                       if g[-1] is unit)
        flips = _unit_flips(patterns, own + [unit])
        # half of A1 -+ i A2: x_I A1 + x_Q A2 = z*Bp + conj(z)*Bm
        A1, A2 = A[list(unit.indices)]
        Bp, Bm = (A1 - 1j * A2) / 2.0, (A1 + 1j * A2) / 2.0
        best_min = least
        # a prior that is not full diversity cannot be rescued by any angle
        if best_min > DET_TOL:
            mins = np.full(len(thetas), best_min)
            offsets = _sample_offsets(u, Bp, Bm)
            for D, flipped in _class_stream(A, own, flips, rows):
                _grid_min(_laurent_coefficients(D, offsets, monos[flipped]),
                          E, mins)
            best_min = float(mins.max())
        if best_min <= DET_TOL:
            raise ValueError("no grid angle certifies full diversity "
                             "(best min |det| = %.3g)" % best_min)
        theta = float(thetas[np.argmax(mins >= best_min * (1 - TIE_RTOL))])
        group = own + [PairQAM(unit.indices, M, theta)]
        direct = _group_min(A, group, flips)
        if direct <= DET_TOL:
            raise ValueError("no grid angle certifies full diversity "
                             "(direct min |det| = %.3g at theta = %.6g)"
                             % (direct, theta))
        least = min(least, direct)
        units.append(group[-1])
        found.append(theta)
    return found


def _distinct_reals(idx, K):
    """True when idx are distinct integer reals of 0..K-1."""
    return len(set(idx)) == len(idx) and all(
        isinstance(i, numbers.Integral) and 0 <= i < K for i in idx)


def _grow(A, orth, prefix, sizes, rng):
    """Point sets of every real: the prefix's RealPoints units on reals
    0..L-1 as given, and one grown to sizes[k - L] points on each later
    real k, read in groups from the HR-orthogonality table orth.

    Refuses a size count other than one per grown real, a singular grown
    weight matrix, a target that is not an integer >= 1 and targets under
    which a group could exceed DIFF_CAP classes (q points have at most
    q(q-1)+1 distinct differences).  Each grown real starts at one point;
    a prefix is then certified with them, group by group.  Candidates are
    drawn uniformly from [-10, 10); each is kept only if real k's group,
    the one group it changes, still certifies (so does the code), and each
    symbol may reject RETRIES candidates.  The group certified before the
    candidate, so only the orbits new with it are taken: real k's
    differences c - p and p - c to its current points p, with any
    difference of the group's units before k (_group_min's grown).  A
    real not yet grown holds one point and adds no difference, so the
    prefix certifies on each group's prefix units and a candidate on its
    group's units up to k; a grown real's own table is built once, when
    the next real of its group starts growing.  Returns sorted point
    tuples.
    """
    L = len(prefix)
    if len(sizes) != len(A) - L:
        raise ValueError("need one target size per grown symbol")
    singular = np.linalg.svd(A[L:], compute_uv=False)[:, -1] <= DET_TOL
    if singular.any():
        raise ValueError("weight matrix %d is singular"
                         % (L + int(singular.argmax())))
    for k, q in enumerate(sizes, start=L):
        if not (isinstance(q, numbers.Integral) and q >= 1):
            raise ValueError("real %d: target size %r is not an integer "
                             ">= 1" % (k, q))
    target = [u.size for u in prefix] + list(sizes)
    units = list(prefix) + [RealPoints(k, (float(rng.uniform(-10, 10)),))
                            for k in range(L, len(A))]
    groups = _groups(orth, units)
    for g in groups:
        _check_class_cap((math.prod(target[k] * (target[k] - 1) + 1
                                    for u in g for k in u.indices) - 1) // 2)
    # a group of one unit has its +- classes as orbits under any patterns
    patterns = (sign_patterns(A) if any(len(g) > 1 for g in groups)
                else np.zeros((1, len(A)), bool))
    flips = [_unit_flips(patterns, g) for g in groups]
    # each real's group, as its reals, and its place there: units keep
    # their reals, one unit per real
    reals = [[u.indices[0] for u in g] for g in groups]
    place = {j: (gi, pos) for gi, g in enumerate(reals)
             for pos, j in enumerate(g)}
    # a real not yet grown holds one point, adding only zero: it is left out
    least = [np.inf] * len(groups)
    if prefix:
        lead = [[units[j] for j in r if j < L] for r in reals]
        least = [_group_min(A, g, f) if g else np.inf
                 for g, f in zip(lead, flips)]
        if not min(least) > DET_TOL:
            raise RuntimeError("initial configuration failed certification")
    for k in range(L, len(A)):
        gi, pos = place[k]
        budget = RETRIES
        while units[k].size < target[k]:
            cand = float(rng.uniform(-10, 10))
            points = units[k].points
            if any(abs(cand - p) < 1e-9 for p in points):
                continue
            trial = RealPoints(k, tuple(sorted(points + (cand,))))
            p = np.array(points)
            new = np.concatenate([cand - p, p - cand])[:, None]
            # each new difference is 1e-9 or more from zero, so its key
            # has its sign
            mn = _group_min(A, [units[j] for j in reals[gi][:pos]] + [trial],
                            flips[gi], (pos, (new, new[:, 0] > 0)),
                            least[gi])
            if mn > DET_TOL:
                units[k], least[gi] = trial, mn
            else:
                budget -= 1
                if budget == 0:
                    raise RuntimeError(
                        "growth retry budget exhausted at symbol %d" % k)
    return tuple(u.points for u in units)


def grow_constellation(ld, sizes, seed=0):
    """Greedy per-real point growth keeping the code full diversity.

    Requires one target size per real, every weight matrix to be full
    rank and every target size to be an integer >= 1; each accepted point
    is certified by an exhaustive difference-determinant check of its
    group, so the returned point lists always produce a full-diversity
    code.
    """
    A = ld.matrices()
    return _grow(A, hr_orthogonal_table(A), [], sizes,
                 np.random.default_rng(np.random.SeedSequence([seed])))


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
    if sizes is None:
        sizes = (2,) * (ld.K - L)
    rng = np.random.default_rng(np.random.SeedSequence([seed, L]))
    return _grow(A, orth, [RealPoints(k, p) for k, p in enumerate(points)],
                 sizes, rng)
