"""Quasi-static Rayleigh MIMO simulation with exact ML decoders.

Both decoders minimize ||Y - XH||_F^2 over the codebook.  Dropping the
constant ||Y||^2, the metric of a symbol vector x is

    f(x) = -2 x.b + x.G.x,   b_i = ReTr(Y^H A_i H),
                             G_ij = ReTr((A_i H)^H (A_j H)).

ReTr(U^H V) is the dot product of the real views of U and V (real and
imaginary parts side by side), so with R the (K, 2 N n_rx) real view of
the stack A_i H and y that of Y, b = R.y and G = R.R^T: the equivalent
real channel's two products.  G is set to exactly 0 on the
HR-orthogonal pairs, where it vanishes in exact arithmetic, so neither
decoder reads rounding noise between groups.

The oracle enumerates the whole codebook.  The structured decoder
follows the instance's DecodePlan, compiled once when the STBCInstance
is built.  Compiling checks the plan against the design and the signal
set (raising PlanError) and turns every node into static tables from
the SignalSet, which owns the codebook order: its conditioning values
(SignalSet.table), digit weights (SignalSet.weights) and unit axes
(unit.axes(), the only view of a unit's geometry).

Plans compile onto two kernels.  A Cond enumerates its conditioning
symbols and, since G vanishes between HR-orthogonal groups, decodes
each child separately after folding the hypothesis into the linear
term; a bare leaf is a Cond without conditioning, and a joint leaf a
Cond on its units without children, whose candidates are its values.
A hard-limit leaf hard-limits one axis of one unit, an exact 1-D
quadratic minimization.  A hard_last leaf is a Cond on all its units
but the last and on the last's outer axis (a QAM pair's sqrt(M) PAM
values) over the hard-limit leaf of its inner axis, or that leaf alone
for a real.  A hard_all leaf is one hard-limit leaf per axis of its
units, exact when the axes' weight matrices are pairwise
HR-orthogonal, as compiling checks.  Both decoders break metric ties by
lowest codeword index, so their outputs are comparable by equality.

Both decoders take a batch of T trials per call: linear terms b of shape
(T, K) against Grams of shape (T, K, K).

The structured decoder works in projected coordinates.  Every compiled
node keeps `rows`, the linear-term rows its kernel reads, leaf by leaf:
a hard-limit leaf its one row 2d, and a Cond leaf its conditioning
values followed by its rows of each child.  The decoder
forms rows @ b once, at the root, and no node ever sees the K columns
of b again.  A Cond folds hypothesis v into a child's projections as
P_child - rows_child.G.v, one (rows, hypotheses) product per leaf and
trial broadcast over the parent's hypotheses, so each node's arrays are
as wide as its own rows.  The node kernels cost a few numpy calls per
plan level, each on one large array:

  - Candidates ahead of hypotheses.  A Cond lays out its values (joint
    values, outer PAM values, conditioning hypotheses) on an axis before
    the hypotheses and picks with min over that axis, then the lowest
    codeword index among the exact ties, so its pick does not depend on
    the candidates' order.
  - Sibling groups.  At compile time sibling nodes of one signature
    fuse into one node with a leaf axis: Conds whose conditioning
    tables have one value count and whose children's signatures agree
    in order, their j-th children fusing in turn, and hard-limit leaves
    whose points agree.  A leaf keeps its own rows and index digits, a
    fused Cond folds a leaf's values into that leaf's child rows only,
    and every node returns per-leaf metrics, which the parent sums.
  - No quotient in a metric.  A hard-limit leaf divides only to pick
    its point; the metric is then formed from products and sums of the
    picked point, the projections and the Gram, so integer channels
    give exact metrics and exact ties, as in the oracle.
  - Batch-invariant bits.  b and G are one real product each per trial,
    C-contiguous as products are; projections are (rows, K) @ (K, n)
    products per trial on them, folds such products per trial and leaf,
    and Gram terms _quad forms, whose BLAS shapes do not depend on T;
    everything else is elementwise.  A metric's bits are the same
    whether its trial is decoded alone or in a batch.
  - Few live temporaries.  Nodes form metrics and indexes in place, a
    Cond adds its own metrics into its first child's, and each node's
    `width` bounds the float64 elements one trial of its subtree holds
    at once, numpy's broadcast buffers included.

Metric-evaluation counts match the plan's complexity terms exactly: a
joint leaf costs its candidate count (a Cond without children), a
hard-limit leaf one (a hard_all leaf's, its first axis), and a Cond
multiplies by its hypothesis count: a hard_last pair's is sqrt(M).

The oracle needs neither the plan nor the HR-orthogonality table, nor
the symbol table.  It splits the signal set's units, in codebook order,
into a head and a tail whose counts n_A and n_B are closest (family R=2
at M=4: 256 x 256; a single unit: an empty head, n_A = 1), and reads
the codebook as the row-major (n_A, n_B) grid of head row a next to
tail row b; the head units are the slow digits, so grid order is
codebook order.  With x = (x_A, x_B) split the same way,

    f(x) = f_A(x_A) + f_B(x_B) + 2 x_A.G_AB.x_B,

f_A and f_B each half's own linear and quadratic terms.  Per trial the
whole grid is one product of the head rows [2 x_A G_AB, 1, f_A]
against the tail columns [x_B, f_B, 1].  The tail is taken in blocks of
rows whose columns and f_B's product fit _CHUNK_BYTES, each against all
n_A head rows, and trials in blocks whose grid blocks and half tables
fit it too.  The head is never split: a grid block holds at most
n_A n_B <= ORACLE_CAP metrics, and 8 ORACLE_CAP bytes fit _CHUNK_BYTES.
Each block's argmin takes the first of its minima, which is its lowest
index, and a block wins over the best so far with a strictly smaller
metric, or with an equal metric at a lower index, so ties go to the
lowest codeword index in any block order.  Every product has a
per-trial shape that does not depend on T, so the oracle's metric bits
do not depend on the batch either.

simulate walks one stream of (snr index, trial) keys, SNR by SNR, and
decodes it in chunks whose metric terms, root projections and
structured-decoder widths stay within _CHUNK_BYTES; the oracle scans its
grid in blocks of that budget on its own.  A chunk may span SNRs: it is
drawn in one call over per-key SNR indexes, noise deviations and trial
indexes, errors are counted per SNR, and a decoder disagreement names
the trial's own SNR and index.  Results are therefore independent of the
chunk size.  Key (k, t) draws from its own PCG64 generator, bit-identical
to seeding it with SeedSequence([seed, k, t]) and making four
standard_normal calls.  numpy's SeedSequence mixes each key's uint32
words into its pool; the pool's output hash, which numpy would run
word by word on scalars, runs for the whole chunk as a few uint32 array
operations, and each PCG64 is seeded from its precomputed words.  One
loop over the keys then draws the sent index and all of the trial's
standard normals in one call; the codewords and the channel outputs
Y = XH + W of the whole chunk take a fixed number of numpy calls.  A
codeword's reals come from the mixed-radix digits of its index
(SignalSet.symbols), and the noise deviation from the average codeword
energy, which the signal set's per-unit moments give exactly
(SignalSet.mean_quadratic).  So no run builds the codebook's symbol
table, which STBCInstance.symbol_table keeps as a reference only.
SimConfig.workers is accepted and validated for compatibility only: it
does not change how a run executes.  An SNR must give a finite positive
noise deviation, at unit energy in SimConfig and at the instance's
energy before simulate draws any trial.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .pauli import hr_orthogonal_table
from .design import Cond, JOINT, HARD_LAST, check_plan, plan_indices

_BIG = np.iinfo(np.int64).max

ORACLE_CAP = 10 ** 5    # largest codebook the exhaustive decoder scans
_CHUNK_BYTES = 1 << 20  # working-set budget of one decode batch (1 MiB)
MAX_TRIALS = 2 ** 32    # trial indexes fill one uint32 word of the RNG key


def _nearest(mids, v):
    """The number of midpoints below v: the nearest point's index, ties
    going to the lower point."""
    i = np.zeros(np.shape(v), dtype=np.intp)
    for mid in mids:
        i += v > mid
    return i


class PlanError(ValueError):
    """Plan is inconsistent with the design / signal set structure."""


@dataclass
class STBCInstance:
    linear: object       # LinearDesign
    signals: object      # SignalSet
    plan: object = None  # DecodePlan root or None

    def __post_init__(self):
        if self.signals.K != self.linear.K:
            raise ValueError("signal set covers %d reals, design has %d"
                             % (self.signals.K, self.linear.K))
        if self.count > _BIG:
            raise ValueError("codebook of %d codewords exceeds the int64 "
                             "range of codeword indexes" % self.count)
        self.compiled = None
        if self.plan is not None:
            check_plan(self.plan, self.linear.K)
            self.compiled = _compile(self)

    @property
    def N(self):
        return self.linear.N

    @property
    def count(self):
        return self.signals.count

    @cached_property
    def grid(self):
        """The exhaustive decoder's head x tail grid (_grid), built on
        first use."""
        return _grid(self.signals)

    @cached_property
    def matrices(self):
        return self.linear.matrices()

    @cached_property
    def hr_orthogonal(self):
        """(K, K) table of the HR-orthogonal pairs, where G_ij is 0."""
        return hr_orthogonal_table(self.matrices)

    @cached_property
    def symbol_table(self):
        """The whole codebook's real-symbol vectors, a reference that
        nothing in simulate reads; built on first use."""
        return self.signals.symbol_table()

    @cached_property
    def average_energy(self):
        """Mean ||X||_F^2 over the whole codebook, E[x.Gamma.x] with
        Gamma_ij = ReTr(A_i^H A_j), the product of A's real views, from
        the signal set's per-unit moments: no codebook table."""
        A = self.matrices.view(np.float64).reshape(self.linear.K, -1)
        return self.signals.mean_quadratic(A @ A.T)


# ---------------------------------------------------------------------------
# compiled decode plan

def _compile(stbc):
    """Check the plan against the instance and build its decode tables.

    The helpers are module functions, not closures over the instance, so
    compiling leaves no reference cycle that would keep a dropped
    instance and its cached tables alive until the cyclic collector runs.
    """
    A = stbc.matrices
    plan = stbc.plan if isinstance(stbc.plan, Cond) else Cond((), (stbc.plan,))
    spec = _spec(plan, stbc.signals, A, stbc.hr_orthogonal)
    return _fuse([spec], 1, stbc.signals)


class _Spec(NamedTuple):
    """A Cond to compile: its conditioning parts (units, or (unit, axis)
    for one axis of a unit), their SignalSet.table, and its children,
    each a _Spec or a hard-limit leaf (unit, axis, charge)."""
    parts: tuple
    table: tuple
    children: tuple


def _units_for(units, indices):
    """Units (in signal-set order) exactly covering the index set.  The
    plan and the signal set each cover 0..K-1 once, so every index lies
    in a unit that is either picked or split."""
    want = set(indices)
    picked = []
    for u in units:
        us = set(u.indices)
        if us <= want:
            picked.append(u)
        elif us & want:
            raise PlanError("plan node splits unit %r" % (u,))
    return tuple(picked)


def _check_orthogonal(orth, groups, what):
    """PlanError unless orth holds for every pair from different groups."""
    for ga, gb in itertools.combinations(groups, 2):
        for i, j in itertools.product(ga, gb):
            if not orth[i, j]:
                raise PlanError("%s; (%d,%d) are not" % (what, i, j))


def _spec(node, signals, A, orth):
    """The _Spec of a plan Cond, checked against the units and A.  A joint
    leaf is a Cond on its units without children; a hard_last leaf a Cond
    on all its units but the last and on every axis of the last but its
    inner one, over the hard-limit leaf of that inner axis, or that leaf
    alone for a real; a hard_all leaf one hard-limit leaf per axis of its
    units, once checked separable on A, its one evaluation charged to its
    first axis."""
    cond = _units_for(signals.units, node.conditioning)
    _check_orthogonal(orth, [sorted(plan_indices(c)) for c in node.children],
                      "Cond children must be HR-orthogonal")
    children = []
    for child in node.children:
        if isinstance(child, Cond):
            children.append(_spec(child, signals, A, orth))
            continue
        units = _units_for(signals.units, child.indices)
        if child.kind == JOINT:
            children.append(_Spec(units, signals.table(units), ()))
        elif not all(u.axes() for u in units):
            raise PlanError("cannot hard-limit a value block")
        elif child.kind == HARD_LAST:
            *prefix, u = units
            *outer, inner = u.axes()
            parts = tuple(prefix) + tuple((u, axis) for axis in outer)
            leaf = (u, inner, 1)
            children.append(_Spec(parts, signals.table(parts), (leaf,))
                            if parts else leaf)
        else:
            leaves = [(u, axis, 0) for u in units for axis in u.axes()]
            leaves[0] = leaves[0][:2] + (1,)   # the leaf's one evaluation
            # limiting each axis alone is exact for every channel H when
            # the axes' weight matrices B = rows.A are pairwise
            # HR-orthogonal: then ReTr((B_k H)^H B_l H) = 0
            B = np.tensordot(_axis_rows(leaves, signals.K), A, axes=1)
            _check_orthogonal(hr_orthogonal_table(B),
                              [[k] for k in range(len(B))], "hard_all needs "
                              "HR-orthogonal axes (in leaf order)")
            children += leaves
    return _Spec(cond, signals.table(cond), tuple(children))


def _signature(spec):
    """What sibling specs share to fuse into one node: a Cond's
    conditioning value count and its children's signatures in order, a
    hard-limit leaf's points."""
    if isinstance(spec, _Spec):
        return (_Cond, len(spec.table[1])) + tuple(
            map(_signature, spec.children))
    return (_HardLimit, spec[1][1])


def _fuse(specs, hyps, signals):
    """One node over sibling specs of one _signature, a leaf each.  The
    j-th children of fused Conds, and a Cond's children of one signature,
    fuse in turn: a child node's leaves run over the node's leaves first."""
    if not isinstance(specs[0], _Spec):
        return _HardLimit(specs, signals, hyps)
    groups = {}
    for j, child in enumerate(specs[0].children):
        groups.setdefault(_signature(child), []).append(j)
    n_c = len(specs[0].table[1])
    children = tuple(_fuse([s.children[j] for s in specs for j in js],
                           hyps * n_c, signals) for js in groups.values())
    return _Cond(specs, children, hyps)


def _axis_rows(leaves, K):
    """Axis rows (L, K) of hard-limit leaves (unit, axis, charge)."""
    d = np.zeros((len(leaves), K))
    for k, (u, axis, _charge) in enumerate(leaves):
        d[k, list(u.indices)] = axis[0]
    return d


def _block(rows, cols):
    """Index of the (T, rows, cols) sub-block of a stack of Grams."""
    return (slice(None), rows[:, None], cols[None, :])


def _quad(X, G):
    """x.G.x for every row x of X (n, k) or (T, n, k), G (T, k, k)."""
    XG = X @ G
    XG *= X
    return XG @ np.ones(X.shape[-1])


def _pick(m, idx):
    """Minimum of m over the candidate axis 2 and the lowest index among
    its exact ties, whatever order the candidates come in."""
    best = m.min(axis=2, keepdims=True)
    tied = m == best
    return best.squeeze(2), np.where(tied, idx, _BIG).min(axis=2)


def _leaf_sum(m, idx):
    """Totals over the leaf axis -2, added leaf by leaf in a fixed order;
    views of the one leaf when there is one."""
    if m.shape[-2] == 1:
        return m[..., 0, :], idx[..., 0, :]
    total = m[..., 0, :] + m[..., 1, :]
    for k in range(2, m.shape[-2]):
        total += m[..., k, :]
    return total, idx.sum(axis=-2)


def _own(P, vGv):
    """-2 P + v.G.v of a Cond's values, P's leading rows for each leaf."""
    own = -2.0 * P[:, :, :vGv.shape[2]]
    own += vGv
    return own


# Each node is built from its specs and the SignalSet, and holds L
# sibling leaves of one signature.  It keeps `rows`, the linear-term rows
# (r, K) its kernel reads, leaf by leaf, and decodes P: (T, r, n_hyp),
# those rows applied to the folded linear terms of every hypothesis,
# against G: (T, K, K), returning per-leaf (metrics (T, L, n_hyp),
# codeword indexes (T, L, n_hyp)), which the caller owns and may change
# in place; the parent Cond sums them.  `count` is the node's metric
# evaluations per hypothesis and `width` bounds the float64 elements one
# trial of the node and its subtree holds at once, its results included.

class _HardLimit:
    """For each leaf, hard-limit one axis of a unit exactly.

    A leaf is (unit, axis, charge): the axis's point p lies along its
    direction d, every other real held by the Conds above, which fold
    their values into b.  With u = b.d and g_dd = d.G.d the metric is

        -2 p u + p^2 g_dd = p (p g_dd - 2u).

    The quotient 2u / (2 g_dd) only picks p; no quotient enters a metric,
    so integer channels give exact metrics and exact ties.  A leaf's one
    row is 2d, its index digit p's index times the axis digit factor
    times the unit weight, and its charge one evaluation, or none for a
    hard_all leaf's axes after the first, whose metrics the parent sums.
    """

    def __init__(self, leaves, signals, hyps):
        units, axes, charges = zip(*leaves)
        # the leaves share the axis points
        self.points = np.asarray(axes[0][1])
        self.mids = (self.points[:-1] + self.points[1:]) / 2.0
        self.d = _axis_rows(leaves, signals.K)
        self.rows = 2.0 * self.d
        self.digit = np.array([signals.weights[u] * axis[2]
                               for u, axis in zip(units, axes)],
                              dtype=np.int64)[:, None]
        self.leaves = L = len(leaves)
        self.count = sum(charges)
        # the quotient (then p), the indexes, the metrics and a broadcast
        # buffer, and the Gram product with its broadcast buffer
        self.width = 4 * hyps * L + 2 * self.d.size

    def decode(self, P, G):
        g_dd = _quad(self.d, G)[..., None]                         # (T, L, 1)
        p = P / (2.0 * g_dd)
        pi = _nearest(self.mids, p)
        np.take(self.points, pi, out=p, mode="clip")
        m = p * g_dd
        m -= P
        m *= p
        pi *= self.digit
        return m, pi


class _Cond:
    """For each leaf, enumerate its conditioning values and decode its
    children for each hypothesis: a plan Cond, a bare leaf (no
    conditioning), a hard_last leaf's prefix and outer axes, or with no
    children a joint leaf.  A leaf's rows are its conditioning values Vc,
    then its rows of each child.  Hypothesis v of leaf l folds into the
    linear terms b of leaf l's children as b - G v, that is into their
    projections as P_child - rows_child.G.v, broadcast over the parent's
    hypotheses, one product per leaf of its child rows and its V.G.
    Hypothesis c of parent row h becomes row c * H + h, so a leaf's
    values are the leading candidate axis of its totals: its first
    child's metrics plus -2 P + v.G.v, plus its other children's."""

    def __init__(self, specs, children, hyps):
        Vc, cidx = zip(*(s.table for s in specs))
        L, n_c, K = np.shape(Vc)
        self.leaves = L
        self.Vc = np.concatenate(Vc) if specs[0].parts else None  # no fold
        self.cidx = np.stack(cidx)[..., None]              # (L, n_c, 1)
        self.children = children
        parts = [c.rows.reshape(L, -1, K) for c in children]
        ends = np.cumsum([p.shape[1] for p in parts])
        self.slices = [slice(e - p.shape[1], e) for e, p in zip(ends, parts)]
        rows = self.leaf_rows = np.concatenate([np.zeros((L, 0, K)), *parts], 1)
        values = [] if self.Vc is None else [np.stack(Vc)]
        self.rows = np.concatenate(values + [rows], 1).reshape(-1, K)
        self.count = n_c * (sum(c.count for c in children) or L)
        # float64 words one trial holds at once, a buffer per broadcast
        # operand counted at its result's size: the fold (V.G and the
        # folded projections, next to F, a block per leaf, and their
        # buffer, or to V.G's own buffer) and the pick; then, while each
        # child decodes, the folded projections, a copy of the child's
        # block, and its subtree or its results with their leaf sums and
        # this node's own metrics or running totals
        res = hyps * n_c * L  # the metrics, or the indexes, of all leaves
        r_c = rows[..., 0].size
        fold = hyps * n_c * r_c if self.Vc is not None else 0
        live = [] if self.Vc is None else [
            fold + L * n_c * K + max(n_c * r_c + fold, L * n_c * K),
            25 * res // 8 + 2 * hyps * L]
        for j, c in enumerate(children):
            k, copy = c.leaves // L, L > 1 and len(children) > 1
            live.append(fold + copy * hyps * n_c * len(c.rows) + max(
                c.width + 2 * res * (j > 0),
                2 * res * (k + (k > 1) + (j > 0 or self.Vc is not None))))
        self.width = max(live)

    def decode(self, P, G):
        T, _r, H = P.shape
        L, n_c = self.cidx.shape[:2]
        Pc = P = P.reshape(T, L, -1, H)
        if self.Vc is not None:
            VG = self.Vc @ G   # (T, L n_c, K): the fold, v.G.v's product
            if self.children:  # each leaf's rows against its own values
                F = self.leaf_rows @ VG.reshape(T, L, n_c, -1).swapaxes(2, 3)
                Pc = (P[:, :, n_c:, None] - F[..., None]).reshape(
                    T, L, -1, n_c * H)
                del F
            VG *= self.Vc
            vGv = (VG @ np.ones(VG.shape[-1])).reshape(T, L, n_c, 1)
            del VG
        m = i = None
        for child, rows in zip(self.children, self.slices):
            cm, ci = child.decode(Pc[:, :, rows].reshape(T, -1, n_c * H), G)
            # the child's leaves under each of this node's leaves
            cm, ci = _leaf_sum(cm.reshape(T, L, -1, n_c * H),
                               ci.reshape(T, L, -1, n_c * H))
            cm, ci = cm.reshape(T, L, n_c, H), ci.reshape(T, L, n_c, H)
            if m is None:
                m, i = cm, ci
                if self.Vc is not None:  # its own, after its first child
                    m += _own(P, vGv)
                    i += self.cidx
            else:
                m += cm
                i += ci
        del Pc
        if self.Vc is None:
            return m[:, :, 0], i[:, :, 0]
        if m is None:  # a joint leaf: its values are the candidates
            m, i = _own(P, vGv), self.cidx
        return _pick(m, i)


# ---------------------------------------------------------------------------
# metric terms and decoders

def _metric_terms(stbc, Y, H):
    """b = R.y (T, K) and G = R.R^T (T, K, K), R and y the real views of
    A_i H and Y: (T, N, n_rx); G is exactly 0 on HR-orthogonal pairs."""
    K, N = len(stbc.matrices), stbc.N
    AH = stbc.matrices.reshape(K * N, N) @ H  # (T, K N, n_rx)
    R = AH.view(np.float64).reshape(len(H), K, -1)
    G = R @ R.swapaxes(1, 2)
    G[:, stbc.hr_orthogonal] = 0
    return (R @ Y.view(np.float64).reshape(len(Y), -1, 1))[..., 0], G


def _grid(signals):
    """The codebook as the exhaustive decoder's head x tail grid.

    The units split, in codebook order, at the boundary that makes the
    head's count n_A and the tail's count n_B closest, the smaller head
    on a tie; one unit gives an empty head, n_A = 1.  The head units are
    the slow digits, so codeword a * n_B + b is head row a next to tail
    row b and row-major grid order is codebook order.  Returns the head
    and the tail, each as (its reals, its SignalSet.table rows on them).
    """
    units, sizes = signals.units, [u.size for u in signals.units]
    s = min(range(len(units)), key=lambda s: max(math.prod(sizes[:s]),
                                                 math.prod(sizes[s:])))
    halves = []
    for part in (units[:s], units[s:]):
        cols = np.array([i for u in part for i in u.indices], dtype=np.intp)
        halves.append((cols, signals.table(part)[0][:, cols]))
    return tuple(halves)


def _half_metric(X, cols, b, G):
    """x.G.x - 2 x.b over one half's reals for every row x of X (n, k):
    (T, n) for b (T, K), G (T, K, K), summed as _quad sums."""
    XG = X @ G[_block(cols, cols)]
    XG -= 2.0 * b[:, None, cols]
    XG *= X
    return XG @ np.ones(len(cols))


def _oracle(stbc, b, G):
    """Exhaustive argmin over the codebook for b: (T, K), G: (T, K, K).

    Returns (codeword indexes (T,), metrics (T,)), ties going to the
    lowest index.  Codeword (a, b) of the instance's head x tail grid
    scores f_A[a] + f_B[b] + 2 x_A[a].G_AB.x_B[b], each half's own terms
    plus the cross term, as one product per trial of the head rows
    [2 x_A G_AB, 1, f_A] against the tail columns [x_B, f_B, 1].  The
    tail is taken in blocks of rows whose columns, and f_B's product,
    fit _CHUNK_BYTES per trial, each against all head rows, since a
    codebook within ORACLE_CAP keeps any grid block within the budget,
    and trials in blocks within the same budget.
    """
    (cA, XA), (cB, XB) = stbc.grid
    T, K = b.shape
    n_A, (n_B, k_B) = len(XA), XB.shape
    cols = min(n_B, max(1, _CHUNK_BYTES // (8 * (2 * k_B + 2))))
    per = max(1, _CHUNK_BYTES // (8 * (n_A * cols + (n_A + cols) * (K + 2))))
    best_i, best_m = np.empty(T, dtype=np.int64), np.empty(T)
    for t0 in range(0, T, per):
        bt, Gt = b[t0:t0 + per], G[t0:t0 + per]
        L = np.empty((len(bt), n_A, k_B + 2))
        L[..., :k_B] = 2.0 * (XA @ Gt[_block(cA, cB)])
        L[..., k_B] = 1.0
        L[..., k_B + 1] = _half_metric(XA, cA, bt, Gt)
        t, bi = np.arange(len(bt)), None
        for b0 in range(0, n_B, cols):
            XBb = XB[b0:b0 + cols]
            R = np.empty((len(bt), k_B + 2, len(XBb)))
            R[:, :k_B] = XBb.T
            R[:, k_B] = _half_metric(XBb, cB, bt, Gt)
            R[:, k_B + 1] = 1.0
            m = (L @ R).reshape(len(bt), -1)
            arg = np.argmin(m, axis=1)
            m, i = m[t, arg], arg + b0
            if len(XBb) < n_B:  # grid row arg // len(XBb) of the block
                i += arg // len(XBb) * (n_B - len(XBb))
            if bi is None:
                bi, bm = i, m
            else:  # a strictly smaller metric, or a tie at a lower index
                upd = (m < bm) | ((m == bm) & (i < bi))
                bi, bm = np.where(upd, i, bi), np.where(upd, m, bm)
        best_i[t0:t0 + per], best_m[t0:t0 + per] = bi, bm
    return best_i, best_m


def _structured(stbc, b, G):
    """Plan decode of b: (T, K), G: (T, K, K); (indexes, metrics)."""
    root = stbc.compiled
    m, idx = root.decode(root.rows @ b[..., None], G)
    return idx[:, 0, 0], m[:, 0, 0]


# ---------------------------------------------------------------------------
# Monte Carlo driver

@dataclass(frozen=True)
class SimConfig:
    n_rx: int
    snr_db: tuple
    trials: int
    seed: int
    decoder: str = "both"  # oracle | structured | both
    workers: int = 1       # validated, kept for compatibility; no effect

    def __post_init__(self):
        if self.decoder not in ("oracle", "structured", "both"):
            raise ValueError("decoder must be oracle, structured or both")
        for name in ("n_rx", "trials", "workers"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be at least 1, got %d"
                                 % (name, getattr(self, name)))
        if self.trials > MAX_TRIALS:
            raise ValueError("trials must be at most %d, got %d"
                             % (MAX_TRIALS, self.trials))
        if self.seed < 0:
            raise ValueError("seed must be non-negative, got %d" % self.seed)
        if len(self.snr_db) == 0 or not all(map(math.isfinite, self.snr_db)):
            raise ValueError("snr_db must be a non-empty list of finite "
                             "values, got %r" % (self.snr_db,))
        for snr in self.snr_db:  # at unit energy per transmit antenna
            _noise_std(1.0, 1, snr)


def _noise_std(energy, n_tx, snr_db):
    """Noise deviation at snr_db for average codeword energy `energy` over
    n_tx transmit antennas; ValueError unless it is finite and positive."""
    try:
        sigma = np.sqrt(energy / (n_tx * 10 ** (snr_db / 10.0)))
    except (OverflowError, ZeroDivisionError):  # 10^(snr/10) out of range
        sigma = 0.0
    if not 0.0 < sigma < math.inf:
        raise ValueError("snr_db %.12g gives no finite positive noise "
                         "deviation" % snr_db)
    return sigma


@dataclass(frozen=True)
class SimResult:
    config: SimConfig
    n_tx: int
    codebook: int
    energy: float
    errors: tuple
    oracle_evals: float
    structured_evals: float

    def cer(self, k):
        return self.errors[k] / self.config.trials

    def to_text(self):
        c = self.config
        lines = ["stbc-simresult v1",
                 "seed=%d" % c.seed,
                 "decoder=%s" % c.decoder,
                 "n_tx=%d" % self.n_tx,
                 "n_rx=%d" % c.n_rx,
                 "trials=%d" % c.trials,
                 "codebook=%d" % self.codebook,
                 "energy=%.12g" % self.energy,
                 "oracle_evals=%.12g" % self.oracle_evals,
                 "structured_evals=%.12g" % self.structured_evals,
                 "snr_db\terrors\tcer\tagree"]
        # v1's agree column: every trial, as a disagreement raises
        for k, snr in enumerate(c.snr_db):
            lines.append("%.12g\t%d\t%.12g\t%d"
                         % (snr, self.errors[k], self.cer(k), c.trials))
        return "\n".join(lines) + "\n"


def _trial_words(stbc, cfg):
    """Float64 words one trial of a decode batch holds at most: b, G,
    the real view of A_i H and, for the structured decoder, the root's
    projections and the compiled nodes' widths; the oracle scans its grid
    in blocks within _CHUNK_BYTES on its own."""
    K = stbc.linear.K
    words = K * (K + 1) + 2 * K * stbc.N * cfg.n_rx
    if cfg.decoder != "oracle":
        words += len(stbc.compiled.rows) + stbc.compiled.width
    return words


def _chunk(stbc, cfg):
    """Trials per decode batch: as many as _CHUNK_BYTES holds, at least one."""
    return max(1, _CHUNK_BYTES // (8 * _trial_words(stbc, cfg)))


def _words(n):
    """Little-endian 32-bit words of an int >= 0, one zero word for 0: how
    SeedSequence reads each int of an entropy list."""
    words = [n & 0xFFFFFFFF]
    while n >> 32:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


def _hash_constants(n_words):
    """SeedSequence.generate_state's per-word constants: word i is xored
    with INIT_B * MULT_B^i and multiplied by INIT_B * MULT_B^(i + 1)."""
    init_b, mult_b = 0x8b51f9dd, 0x58f38ded
    consts = [init_b]
    for _ in range(n_words):
        consts.append(consts[-1] * mult_b & 0xFFFFFFFF)
    return (np.array(consts[:-1], dtype=np.uint32),
            np.array(consts[1:], dtype=np.uint32))


_HASH_XOR, _HASH_MULT = _hash_constants(8)  # PCG64 reads 4 uint64 words


def _pcg64_words(pools):
    """The 4 uint64 words SeedSequence.generate_state(4, np.uint64) gives
    for each row of pools (T, 4), for all rows at once: the pool cycled
    to 8 words, each hashed with its constants, then read as
    little-endian uint64 pairs in native order, as numpy does."""
    state = np.tile(pools, 2)
    state ^= _HASH_XOR
    state *= _HASH_MULT
    state ^= state >> 16
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _Seeded(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands PCG64 its precomputed words."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("_Seeded holds 4 uint64 words, asked for %d %s"
                             % (n_words, np.dtype(dtype)))
        return self.words


def _draw(stbc, cfg, sigma, snr_idx, trials):
    """Sent indexes and stacked Y, H of the given trials.

    sigma and snr_idx are scalars or per-key arrays broadcast against
    trials.  Key k draws from its own generator, seeded exactly as by
    SeedSequence([seed, snr_idx[k], trials[k]]): numpy mixes each key's
    words into its pool, the pools' output hash runs for all keys in one
    array operation, and PCG64 is seeded from the hashed words.  Each
    generator draws the sent index, then one block of standard normals
    for H and the noise.  Codewords and channel outputs are then formed
    for the whole block at once.
    """
    snr_idx, trials = np.broadcast_arrays(snr_idx, trials)
    seed = _words(cfg.seed)
    keys = np.empty((len(trials), len(seed) + 2), dtype=np.uint32)
    keys[:, :-2] = seed
    keys[:, -2] = snr_idx
    keys[:, -1] = trials
    seed_seq = np.random.SeedSequence
    words = _pcg64_words(np.array([seed_seq(key).pool for key in keys]))
    sent = np.empty(len(trials), dtype=np.int64)
    Z = np.empty((len(trials), 4, stbc.N, cfg.n_rx))
    count = stbc.count
    generator, pcg64 = np.random.Generator, np.random.PCG64
    for k, row in enumerate(words):
        rng = generator(pcg64(_Seeded(row)))
        sent[k] = rng.integers(count)
        rng.standard_normal(out=Z[k])
    X = np.tensordot(stbc.signals.symbols(sent), stbc.matrices, axes=(1, 0))
    # Y = XH + W: Z holds the real and imaginary parts of the unit-variance
    # CSCG channel H, then those of the noise W before scaling by sigma
    H = (Z[:, 0] + 1j * Z[:, 1]) / np.sqrt(2)
    W = np.reshape(sigma, (-1, 1, 1)) * (Z[:, 2] + 1j * Z[:, 3]) / np.sqrt(2)
    return sent, X @ H + W, H


def simulate(cfg, stbc):
    """Seeded CER run; identical output for any worker count or batch size."""
    use_o = cfg.decoder in ("oracle", "both")
    use_s = cfg.decoder in ("structured", "both")
    if use_o and stbc.count > ORACLE_CAP:
        raise ValueError(
            "codebook of %d codewords is above the exhaustive-decoding cap "
            "of %d; the structured decoder (--decoder structured) decodes it"
            % (stbc.count, ORACLE_CAP))
    if use_s and stbc.plan is None:
        raise ValueError("instance has no decode plan")
    N = stbc.N
    es_avg = stbc.average_energy
    sigmas = np.array([_noise_std(es_avg, N, snr) for snr in cfg.snr_db])
    chunk = _chunk(stbc, cfg)
    n = cfg.trials
    errors = np.zeros(len(sigmas), dtype=np.int64)
    # one stream of (snr index, trial) keys, key k * trials + t, cut into
    # chunks that may span SNRs and drawn one chunk at a time
    for s0 in range(0, len(sigmas) * n, chunk):
        snr_idx, trial = np.divmod(np.arange(s0, min(s0 + chunk,
                                                     len(sigmas) * n)), n)
        sent, Y, H = _draw(stbc, cfg, sigmas[snr_idx], snr_idx, trial)
        b, G = _metric_terms(stbc, Y, H)
        if use_o:
            got, m_o = _oracle(stbc, b, G)
        if use_s:
            got_s, m_s = _structured(stbc, b, G)
        if use_o and use_s:
            _check_agreement(cfg.snr_db, snr_idx, trial, got, m_o, got_s,
                             m_s)
        elif use_s:
            got = got_s
        errors += np.bincount(snr_idx[got != sent], minlength=len(sigmas))
    return SimResult(config=cfg, n_tx=N, codebook=stbc.count,
                     energy=es_avg, errors=tuple(map(int, errors)),
                     oracle_evals=float(stbc.count if use_o else 0),
                     structured_evals=float(stbc.compiled.count if use_s
                                            else 0))


def _check_agreement(snr_db, snr_idx, trial, got_o, m_o, got_s, m_s):
    """Raise on the first trial of a batch where the decoders disagree,
    naming its own SNR, SNR index and trial index."""
    bad = np.flatnonzero(got_o != got_s)
    if bad.size:
        k = bad[0]
        raise AssertionError(
            "decoder disagreement at snr %.12g dB (snr index %d), trial %d: "
            "oracle codeword %d metric %.17g, structured codeword %d metric "
            "%.17g" % (snr_db[snr_idx[k]], snr_idx[k], trial[k], got_o[k],
                       m_o[k], got_s[k], m_s[k]))
