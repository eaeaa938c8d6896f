"""Quasi-static Rayleigh MIMO simulation with exact ML decoders.

Both decoders minimize ||Y - XH||_F^2 over the codebook.  Dropping the
constant ||Y||^2, the metric of a symbol vector x is

    f(x) = -2 x.b + x.G.x,   b_i = ReTr(Y^H A_i H),
                             G_ij = ReTr((A_i H)^H (A_j H)).

The oracle enumerates the whole codebook.  The structured decoder
follows the instance's DecodePlan, compiled once when the STBCInstance
is built.  Compiling checks the plan against the design and the signal
set (raising PlanError) and turns every node into static tables from
the SignalSet, which owns the codebook order: its conditioning and
prefix values (SignalSet.table), digit weights (SignalSet.weights) and
unit axes (unit.axes(), the only view of a unit's geometry).
A Cond node enumerates its conditioning symbols and, since G vanishes
between HR-orthogonal groups, decodes each child separately after
folding the hypothesis into the linear term; leaves either scan
jointly, scan all but the last unit and hard-limit the final real (an
exact 1-D quadratic minimization, so no orthogonality is needed inside
the last pair; a real is a pair with a zero outer axis), or hard-limit
every axis in one shot, which is exact when the axes' weight matrices
are pairwise HR-orthogonal, as compiling checks.  Both decoders break
metric ties by lowest codeword index, so their outputs are comparable by
equality.

Both decoders take a batch of T trials per call: linear terms b of shape
(T, K) against Grams of shape (T, K, K).

The structured decoder works in projected coordinates.  Every compiled
node keeps `rows`, the linear-term rows its kernel reads: a joint leaf
its values, a hard_last leaf its 2d and 2o e rows and its prefix values,
a hard_all leaf its axes, and a Cond its conditioning values followed by
its children's rows.  The decoder forms rows @ b once, at the root, and
no node ever sees the K columns of b again.  A Cond folds hypothesis v
into a child's projections as P_child - rows_child.G.v, one
(rows, hypotheses) product per trial broadcast over the parent's
hypotheses, so each node's arrays are as wide as its own rows.  The node
kernels cost a few numpy calls per plan level, each on one large array:

  - Candidates ahead of hypotheses.  A node lays out its candidates
    (joint values, prefix and outer PAM value, Cond hypotheses) on an
    axis before the hypotheses and picks with min over that axis, then
    the lowest codeword index among the exact ties, so its pick does
    not depend on the candidates' order.
  - Sibling groups.  At compile time a Cond fuses its leaf children of
    one kind (joint or hard_last) whose tables share a shape, and for
    hard_last the last unit's axis points, into one node with a leaf
    axis; each leaf keeps its own rows and index offsets, and the
    node returns the sums over its leaves.  A lone leaf is a group of
    one; hard_all leaves stay single.
  - No quotient in a metric.  hard_last divides only to pick the inner
    PAM value; the metric is then formed from products and sums of the
    picked point, the projections and the Gram, so integer channels
    give exact metrics and exact ties, as in the oracle.
  - Batch-invariant bits.  Projections and folds are (rows, K) @ (K, n)
    products per trial and Gram terms _quad forms, whose BLAS shapes do
    not depend on T; everything else is elementwise.  A metric's bits
    are the same whether its trial is decoded alone or in a batch.
  - Few live temporaries.  hard_last forms its metrics and indexes in
    place, and each node's `width` bounds the float64 elements one trial
    of its subtree holds at once.

Metric-evaluation counts match the plan's complexity terms exactly: a
joint leaf costs its candidate count, a hard-limited last pair costs
sqrt(M) per prefix, hard_all costs one, and a Cond multiplies by its
hypothesis count.

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
rows whose columns and f_B's product fit _CHUNK_BYTES, each against
blocks of head rows whose grid block fits it, and trials in blocks whose
grid blocks and half tables fit it too.  Each block's argmin takes the
first of its minima, which is its lowest index, and a block wins over
the best so far with a strictly smaller metric, or with an equal metric
at a lower index, so ties go to the lowest codeword index in any block
order.  Every product has a per-trial shape that does not depend on T,
so the oracle's metric bits do not depend on the batch either.

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
Y = XH + W of the whole chunk take a fixed number of numpy calls.
SimConfig.workers is accepted and validated for compatibility only: it
does not change how a run executes.  An SNR must give a finite positive
noise deviation, at unit energy in SimConfig and at the instance's
energy before simulate draws any trial.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pauli import hr_orthogonal_table
from .design import (Leaf, JOINT, HARD_LAST, HARD_ALL, check_plan,
                     plan_indices)

_BIG = np.iinfo(np.int64).max

ORACLE_CAP = 10 ** 5    # largest codebook the exhaustive decoder scans
_CHUNK_BYTES = 1 << 20  # working-set budget of one decode batch (1 MiB)
MAX_TRIALS = 2 ** 32    # trial indexes fill one uint32 word of the RNG key


def _midpoints(points):
    return (points[:-1] + points[1:]) / 2.0


def _nearest(mids, v):
    """The number of midpoints below v: the nearest point's index, ties
    going to the lower point.  mids (..., n) broadcasts against v."""
    i = np.zeros(np.broadcast_shapes(np.shape(v), mids.shape[:-1]),
                 dtype=np.intp)
    for k in range(mids.shape[-1]):
        i += v > mids[..., k]
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
    def symbol_table(self):
        return self.signals.symbol_table()

    @cached_property
    def base_gram(self):
        A = self.matrices
        return np.real(np.einsum("iab,jab->ij", A.conj(), A))

    @cached_property
    def average_energy(self):
        """Empirical mean ||X||_F^2 over the whole codebook."""
        V = self.symbol_table
        return float(np.mean(np.einsum("ni,ij,nj->n", V, self.base_gram, V)))


# ---------------------------------------------------------------------------
# compiled decode plan

def _compile(stbc):
    """Check the plan against the instance and build its decode tables.

    The helpers are module functions, not closures over the instance, so
    compiling leaves no reference cycle that would keep a dropped
    instance and its cached tables alive until the cyclic collector runs.
    """
    A = stbc.matrices
    return _compile_node(stbc.plan, 1, stbc.signals, A, hr_orthogonal_table(A))


def _units_for(units, indices):
    """Units (in signal-set order) exactly covering the index set."""
    want = set(indices)
    picked = []
    for u in units:
        us = set(u.indices)
        if us <= want:
            picked.append(u)
        elif us & want:
            raise PlanError("plan node splits unit %r" % (u,))
    if set(i for u in picked for i in u.indices) != want:
        raise PlanError("no unit covering some of %r" % (sorted(want),))
    return tuple(picked)


def _check_orthogonal(orth, groups, what):
    """PlanError unless orth holds for every pair from different groups."""
    for ga, gb in itertools.combinations(groups, 2):
        for i, j in itertools.product(ga, gb):
            if not orth[i, j]:
                raise PlanError("%s; (%d,%d) are not" % (what, i, j))


def _compile_node(node, hyps, signals, A, orth):
    if isinstance(node, Leaf):
        return _compile_leaves([node], hyps, signals, A)[0]
    cond = _units_for(signals.units, node.conditioning)
    _check_orthogonal(orth, [sorted(plan_indices(c)) for c in node.children],
                      "Cond children must be HR-orthogonal")
    n_c = math.prod(u.size for u in cond)
    leaves = [c for c in node.children if isinstance(c, Leaf)]
    children = _compile_leaves(leaves, hyps * n_c, signals, A) + [
        _compile_node(c, hyps * n_c, signals, A, orth)
        for c in node.children if not isinstance(c, Leaf)]
    return _Cond(cond, tuple(children), signals, hyps)


def _compile_leaves(leaves, hyps, signals, A):
    """Kernel nodes of sibling leaves.  Leaves of one kind whose tables
    have one signature (table shape, and for hard_last the last unit's
    axis points and digit factors) share one node with a leaf axis;
    hard_all leaves stay single, each checked separable on A."""
    groups = {}
    for leaf in leaves:
        picked = _units_for(signals.units, leaf.indices)
        if leaf.kind == HARD_ALL:
            key = (HARD_ALL, leaf)
        elif leaf.kind == HARD_LAST:
            axes = picked[-1].axes()
            if not axes:
                raise PlanError("cannot hard-limit a value block")
            key = (HARD_LAST, _table_shape(picked[:-1]),
                   tuple((points, f) for _d, points, f in axes))
        else:
            key = (JOINT, _table_shape(picked))
        groups.setdefault(key, []).append(picked)
    kernel = {JOINT: _Joint, HARD_LAST: _HardLast, HARD_ALL: _HardAll}
    nodes = [kernel[key[0]](members, signals, hyps)
             for key, members in groups.items()]
    for node in nodes:
        if isinstance(node, _HardAll):
            # limiting each axis alone is exact for every channel H when
            # the axes' weight matrices B = rows.A are pairwise
            # HR-orthogonal: then ReTr((B_k H)^H B_l H) = 0
            B = np.tensordot(node.rows, A, axes=1)
            _check_orthogonal(hr_orthogonal_table(B),
                              [[k] for k in range(len(B))], "hard_all needs "
                              "HR-orthogonal axes (in leaf order)")
    return nodes


def _table_shape(units):
    """Shape of the enumerated value table of a unit list."""
    return (math.prod(u.size for u in units),
            sum(len(u.indices) for u in units))


def _leaf_tables(members, signals):
    """(rows (L, n, K), partial indexes (L, n)): the SignalSet tables of
    the unit lists of L leaves with one table shape."""
    V, idx = zip(*(signals.table(units) for units in members))
    return np.stack(V), np.stack(idx)


def _block(rows, cols):
    """Index of the (T, rows, cols) sub-block of a stack of Grams."""
    return (slice(None), rows[:, None], cols[None, :])


def _quad(X, G, Y=None):
    """x.G.y for every row x of X and matching row y of Y (default X);
    X, Y (n, k) or (T, n, k), G (T, k, k)."""
    XG = X @ G
    XG *= X if Y is None else Y
    return XG @ np.ones(X.shape[-1])


def _pick(m, idx, axis):
    """Minimum of m over the candidate axis and the lowest index among
    its exact ties, whatever order the candidates come in."""
    best = m.min(axis=axis, keepdims=True)
    tied = m == best
    return best.squeeze(axis), np.where(tied, idx, _BIG).min(axis=axis)


def _leaf_sum(m, idx):
    """Totals over the leaf axis 1, added leaf by leaf in a fixed order."""
    total = m[:, 0]
    for k in range(1, m.shape[1]):
        total = total + m[:, k]
    return total, idx.sum(axis=1)


# Each node is built from its units and the SignalSet.  It keeps `rows`,
# the linear-term rows (r, K) its kernel reads, and decodes
# P: (T, r, n_hyp), those rows applied to the folded linear terms of
# every hypothesis, against G: (T, K, K), returning (metrics (T, n_hyp),
# codeword indexes (T, n_hyp)); a leaf node holds L sibling leaves and
# returns the sums over them.  `count` is the node's metric evaluations
# per hypothesis and `width` bounds the float64 elements one trial of
# the node and its subtree holds at once.

class _Joint:
    """Scan every joint value of each leaf's units."""

    def __init__(self, members, signals, hyps):
        V, idx = _leaf_tables(members, signals)
        self.leaves, n, K = V.shape
        self.rows = V.reshape(self.leaves * n, K)
        self.idx = idx[..., None]                          # (L, n, 1)
        self.count = self.leaves * n
        # the Gram product, then the metrics, ties and picked indexes
        self.width = (K + 3 * hyps) * self.count

    def decode(self, P, G):
        T, _r, H = P.shape
        L, n = self.idx.shape[:2]
        m = -2.0 * P
        m += _quad(self.rows, G)[..., None]
        return _leaf_sum(*_pick(m.reshape(T, L, n, H), self.idx, 2))


class _HardLast:
    """Scan all units but the last; for each prefix and each outer PAM
    value o of the last unit, hard-limit its final real p exactly.

    The last unit's point is x = o e + p d on its outer and inner axes,
    e = (c, s) and d = (-s, c) for a QAM pair rotated by theta; a real
    is a pair with a zero outer axis and the one outer value o = 0.
    With b the linear term folded by the prefix v, w = b.e, u = b.d and
    the Gram's g_ee, g_ed and g_dd, the metric is

        pre(v) - 2 (o w + p u) + o^2 g_ee + 2 o p g_ed + p^2 g_dd
          = pre(v) + o^2 g_ee - 2 o w + p (p g_dd - 2 t),
        2 t = 2 u - 2 o g_ed.

    The quotient t / g_dd only picks p; no quotient enters a metric, so
    integer channels give exact metrics and exact ties.  The rows are
    each leaf's 2d, read once and broadcast over the outer values, and
    its 2o e for every o, then the prefix values: one projection gives
    2u, 2o w and v.b of every hypothesis.
    """

    def __init__(self, members, signals, hyps):
        Vp, pidx = _leaf_tables([u[:-1] for u in members], signals)
        lasts = [u[-1] for u in members]
        L, P, K = Vp.shape
        self.leaves = L
        # each leaf's axes e and d over all K reals; the leaves share the
        # axes' points and digit factors.  A real is a pair with a zero
        # outer axis and the one outer value 0, which adds exact zeros.
        e, d = np.zeros((L, 1, K)), np.zeros((L, 1, K))
        for k, u in enumerate(lasts):
            *rest, (d_k, inner, _) = u.axes()
            e_k, outer, f_o = rest[0] if rest else (0.0, (0.0,), 1)
            e[k, 0, list(u.indices)] = e_k
            d[k, 0, list(u.indices)] = d_k
        self.points = np.asarray(inner)
        self.mids = _midpoints(self.points)
        n_o = len(outer)
        oe = np.asarray(outer)[:, None] * e                      # (L, n_o, K)
        R = np.concatenate([2.0 * d, 2.0 * oe], 1)         # (L, 1 + n_o, K)
        # quadratic rows: g_dd, then 2o g_ed and o^2 g_ee per o
        self.gx = np.concatenate([d, 2.0 * oe, oe], 1).reshape(-1, K)
        self.gy = np.concatenate([d, np.repeat(d, n_o, 1), oe],
                                 1).reshape(-1, K)
        aoff = np.arange(n_o, dtype=np.int64) * f_o
        self.n_R = L * R.shape[1]
        self.rows = R.reshape(-1, K)                 # (leaf, 2d | 2oe per o)
        self.prefix = len(members[0]) > 1
        if self.prefix:
            self.Vp = Vp.reshape(L * P, K)
            self.rows = np.concatenate([self.rows, self.Vp])
            # the fold v.G.r of each (prefix, row) pair of one leaf
            self.Vp_R = np.repeat(Vp, R.shape[1], axis=1).reshape(-1, K)
            self.R_P = np.tile(R, (1, P, 1)).reshape(-1, K)
        self.w_last = np.array([signals.weights[u] for u in lasts],
                               dtype=np.int64)[:, None, None, None]
        # codeword index of (leaf, prefix, outer value) at inner digit 0
        self.offsets = pidx[:, :, None, None] + aoff[:, None] * self.w_last
        self.count = L * P * len(aoff)
        # t2, the quotient (then p), the inner indexes and the metrics,
        # the prefix metrics and the Gram products
        products = len(self.gx) + (len(self.Vp_R) if self.prefix else 0)
        self.width = hyps * (4 * self.count + L * P) + K * products

    def decode(self, P, G):
        T, _r, H = P.shape
        L, n_p, n_o = self.offsets.shape[:3]
        X = P[:, :self.n_R].reshape(T, L, 1, -1, H)           # 2u | 2o w
        g = _quad(self.gx, G, self.gy).reshape(T, L, 1, -1, 1)
        # g_dd, then 2o g_ed and o^2 g_ee, plus the prefix's fold
        g_dd, ed, ee = (g[:, :, :, :1], g[:, :, :, 1:1 + n_o],
                        g[:, :, :, 1 + n_o:])
        if self.prefix:
            pre = -2.0 * P[:, self.n_R:].reshape(T, L, n_p, 1, H)
            pre += _quad(self.Vp, G).reshape(T, L, n_p, 1, 1)
            # the prefix folds into u and w once per (trial, prefix)
            fold = _quad(self.Vp_R, G, self.R_P).reshape(T, L, n_p, -1, 1)
            ed = ed + fold[:, :, :, :1]
            ee = ee + fold[:, :, :, 1:]
        t2 = X[:, :, :, :1] - ed                         # (T, L, P, n_o, H)
        p = t2 / (2.0 * g_dd)
        pi = _nearest(self.mids, p)
        np.take(self.points, pi, out=p, mode="clip")
        m = p * g_dd
        m -= t2
        m *= p
        del t2, p
        m += ee
        m -= X[:, :, :, 1:]
        if self.prefix:
            m += pre
        pi *= self.w_last
        pi += self.offsets
        shape = (T, L, n_p * n_o, H)
        return _leaf_sum(*_pick(m.reshape(shape), pi.reshape(shape), 2))


class _HardAll:
    """One metric evaluation: every unit axis hard-limited independently.

    Exact when the axes' weight matrices are pairwise HR-orthogonal, so
    that the Gram is diagonal in axis coordinates for every channel,
    which compiling checks.  The rows are the axes, so the projected
    linear terms are each axis's own; the axes' point sets are padded to
    one length so that every axis is limited at once.
    """

    def __init__(self, members, signals, hyps):
        (units,) = members                  # hard_all leaves stay single
        self.cols = np.array([i for u in units for i in u.indices],
                             dtype=np.intp)
        self.sub = _block(self.cols, self.cols)
        self.rows = np.zeros((len(self.cols), signals.K))  # unit axes
        points, digit = [], []
        for u in units:
            if not u.axes():
                raise PlanError("hard_all cannot limit a value block")
            for direction, pts, f in u.axes():
                self.rows[len(points), list(u.indices)] = direction
                points.append(pts)
                digit.append(f * signals.weights[u])
        self.E_cols = self.rows[:, self.cols]
        n = max(map(len, points))
        self.points = np.array([tuple(p) + (0.0,) * (n - len(p))
                                for p in points])
        self.mids = np.array([tuple(_midpoints(np.asarray(p)))
                              + (np.inf,) * (n - len(p)) for p in points]
                             )[:, None, :]                 # (k, 1, n - 1)
        self.axis = np.arange(len(points))[:, None]
        self.digit = np.array(digit, dtype=np.int64)[:, None]
        self.count = 1
        self.width = 6 * hyps * len(points)

    def decode(self, P, G):
        i = _nearest(self.mids, P / _quad(self.rows, G)[..., None])
        p = self.points[self.axis, i].swapaxes(1, 2)         # (T, H, k)
        # x.G.x - 2 x.b, with x.b the sum of each axis's p times its term
        x = p @ self.E_cols
        m = x @ G[self.sub]
        m *= x
        p *= P.swapaxes(1, 2)
        p *= 2.0
        m -= p
        return m @ np.ones(m.shape[-1]), (i * self.digit).sum(axis=1)


class _Cond:
    """Enumerate the conditioning values and decode the children for each
    hypothesis.  The rows are the conditioning values Vc, then the
    children's rows.  Hypothesis v folds into the children's linear
    terms b as b - G v, that is into their projections as
    P_child - rows_child.G.v: one product per trial, broadcast over the
    parent's hypotheses.  Hypothesis c of parent row h becomes row
    c * H + h, so the conditioning values are the leading candidate axis
    of the totals."""

    def __init__(self, units, children, signals, hyps):
        Vc, cidx = signals.table(units)
        self.Vc = Vc if units else None   # no conditioning: nothing to fold
        self.cidx = cidx[:, None]                          # (n_c, 1)
        self.children = children
        n_c = len(cidx)
        sizes = [len(c.rows) for c in children]
        ends = np.cumsum(sizes)
        self.slices = [slice(e - r, e) for e, r in zip(ends, sizes)]
        self.child_rows = np.concatenate([c.rows for c in children])
        self.rows = (self.child_rows if self.Vc is None else
                     np.concatenate([self.Vc, self.child_rows]))
        self.count = n_c * sum(c.count for c in children)
        # the folded projections and the running totals stay live while
        # the children decode; the fold's products only before
        r_c, K = self.child_rows.shape
        own = hyps * n_c * (4 + (r_c if self.Vc is not None else 0))
        self.width = own + max([n_c * (K + r_c)]
                               + [c.width for c in children])

    def decode(self, P, G):
        T, _r, H = P.shape
        n_c = len(self.cidx)
        total_m, total_i, Pc = None, self.cidx, P
        if self.Vc is not None:
            VG = self.Vc @ G              # (T, n_c, K): _quad's product, the fold
            total_m = -2.0 * P[:, :n_c]                        # (T, n_c, H)
            total_m += ((VG * self.Vc) @ np.ones(VG.shape[-1]))[..., None]
            F = self.child_rows @ VG.swapaxes(1, 2)          # (T, r_c, n_c)
            Pc = (P[:, n_c:, None] - F[..., None]).reshape(T, -1, n_c * H)
            del VG, F
        for child, rows in zip(self.children, self.slices):
            cm, ci = child.decode(Pc[:, rows], G)
            cm, ci = cm.reshape(T, n_c, H), ci.reshape(T, n_c, H)
            if total_m is None:
                total_m = cm
            else:
                total_m += cm
            total_i = total_i + ci
        if n_c == 1:
            return total_m[:, 0], total_i[:, 0]
        return _pick(total_m, total_i, 1)


# ---------------------------------------------------------------------------
# metric terms and decoders

def _metric_terms(stbc, Y, H):
    """b (T, K) and G (T, K, K) of a stack of trials Y, H: (T, N, n_rx)."""
    AH = np.einsum("iab,...bc->...iac", stbc.matrices, H)
    b = np.real(np.einsum("...ab,...iab->...i", Y.conj(), AH))
    G = np.real(np.einsum("...iab,...jab->...ij", AH.conj(), AH))
    return b, G


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
    fit _CHUNK_BYTES per trial, each against blocks of head rows whose
    grid block fits it, and trials in blocks within the same budget.
    """
    (cA, XA), (cB, XB) = stbc.grid
    T, K = b.shape
    n_A, (n_B, k_B) = len(XA), XB.shape
    cols = min(n_B, max(1, _CHUNK_BYTES // (8 * (2 * k_B + 2))))
    rows = min(n_A, max(1, _CHUNK_BYTES // (8 * cols)))
    per = max(1, _CHUNK_BYTES // (8 * (rows * cols + (n_A + cols) * (K + 2))))
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
            for a0 in range(0, n_A, rows):
                m = (L[:, a0:a0 + rows] @ R).reshape(len(bt), -1)
                arg = np.argmin(m, axis=1)
                m, i = m[t, arg], arg + (a0 * n_B + b0)
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
    return idx[:, 0], m[:, 0]


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
    agreements: tuple
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
        for k, snr in enumerate(c.snr_db):
            lines.append("%.12g\t%d\t%.12g\t%d"
                         % (snr, self.errors[k], self.cer(k),
                            self.agreements[k]))
        return "\n".join(lines) + "\n"


def _trial_words(stbc, cfg):
    """Float64 words one trial of a decode batch holds at most: b, G,
    A_i H and, for the structured decoder, the root's projections and
    the compiled nodes' widths; the oracle scans its grid in blocks
    within _CHUNK_BYTES on its own."""
    K = stbc.linear.K
    words = K * (K + 1) + 4 * K * stbc.N * cfg.n_rx
    if cfg.decoder != "oracle":
        words += len(stbc.compiled.rows) + stbc.compiled.width
    return words


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
    X = np.tensordot(stbc.symbol_table[sent], stbc.matrices, axes=(1, 0))
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
    chunk = max(1, _CHUNK_BYTES // (8 * _trial_words(stbc, cfg)))
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
                     agreements=(cfg.trials,) * len(cfg.snr_db),
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
