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
prefix values (SignalSet.table) and the last unit's axes and digit
weight (SignalSet.weights).
A Cond node enumerates its conditioning symbols and, since G vanishes
between HR-orthogonal groups, decodes each child separately after
folding the hypothesis into the linear term; leaves either scan
jointly, scan all but the last unit and hard-limit the final real (an
exact 1-D quadratic minimization, so no orthogonality is needed inside
the last pair), or hard-limit every real in one shot when the Gram is
diagonal in unit-local coordinates.  Both decoders break metric ties by
lowest codeword index, so their outputs are comparable by equality.

Both decoders take a batch of T trials per call: linear terms of shape
(T, hypotheses, K) against Grams of shape (T, K, K).  ml_oracle and
ml_structured are the T = 1 case of the same code.

The structured decoder's node kernels cost a few numpy calls per plan
level, each on one large array:

  - Candidates ahead of hypotheses.  A node lays out its candidates
    (joint values, prefix and outer PAM value, Cond hypotheses) on an
    axis before the hypotheses and picks with min over that axis, then
    the lowest codeword index among the exact ties, so the pick does
    not depend on the candidates' order.
  - Sibling groups.  At compile time a Cond fuses its leaf children of
    one kind (joint or hard_last) whose tables share a shape, and for
    hard_last the last unit's type and points, into one node with a
    leaf axis; each leaf keeps its own rows and index offsets, and the
    node returns the sums over its leaves.  A lone leaf is a group of
    one; hard_all leaves stay single.
  - No quotient in a metric.  hard_last divides only to pick the inner
    PAM value; the metric is then formed from products and sums of the
    picked point, the linear terms and the Gram, so integer channels
    give exact metrics and exact ties, as in the oracle.
  - Batch-invariant bits.  Linear terms are (rows, K) @ (K, hypotheses)
    products per trial and Gram terms _quad forms, whose BLAS shapes do
    not depend on T; everything else is elementwise.  A metric's bits
    are the same whether its trial is decoded alone or in a batch.

Metric-evaluation counts match the plan's complexity terms exactly: a
joint leaf costs its candidate count, a hard-limited last pair costs
sqrt(M) per prefix, hard_all costs one, and a Cond multiplies by its
hypothesis count.

simulate draws each trial from its own generator keyed by (seed, snr
index, trial index) and decodes the trials in chunks whose draw, metric
terms and structured-decoder tables stay within _CHUNK_BYTES; the oracle
scans the codebook in blocks of that budget on its own.  Results are
therefore independent of the chunk size.  A chunk is drawn with one loop
over its trials that seeds each generator from a reused uint32 key,
draws the sent index and then all of the trial's standard normals in one
call; the codewords and the channel outputs Y = XH + W of the whole
chunk then take a fixed number of numpy calls.  The draws are
bit-identical to seeding each trial with SeedSequence([seed, snr index,
trial]) and making four standard_normal calls.  SimConfig.workers is
accepted and validated for compatibility only: it does not change how a
run executes.  An SNR must give a finite positive noise deviation, at
unit energy in SimConfig and at the instance's energy before simulate
draws any trial.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pauli import hr_orthogonal_table
from .design import (Leaf, JOINT, HARD_LAST, HARD_ALL, check_plan,
                     plan_indices)
from .signalset import PairQAM, RealPoints, BlockValues, pam_points, qam_side

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
    def matrices(self):
        return self.linear.matrices()

    @cached_property
    def symbol_table(self):
        return self.signals.symbol_table()

    def codeword(self, index):
        x = self.symbol_table[index]
        return np.tensordot(x, self.matrices, axes=(0, 0))

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
    orth = hr_orthogonal_table(stbc.matrices)
    return _compile_node(stbc.plan, 1, stbc.signals, orth)


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
    for a in range(len(groups)):
        for bI in range(a + 1, len(groups)):
            for i in groups[a]:
                for j in groups[bI]:
                    if not orth[i, j]:
                        raise PlanError("%s; (%d,%d) are not" % (what, i, j))


def _compile_node(node, hyps, signals, orth):
    if isinstance(node, Leaf):
        return _compile_leaves([node], hyps, signals, orth)[0]
    cond = _units_for(signals.units, node.conditioning)
    _check_orthogonal(orth, [sorted(plan_indices(c)) for c in node.children],
                      "Cond children must be HR-orthogonal")
    n_c = math.prod(u.size for u in cond)
    leaves = [c for c in node.children if isinstance(c, Leaf)]
    children = _compile_leaves(leaves, hyps * n_c, signals, orth) + [
        _compile_node(c, hyps * n_c, signals, orth)
        for c in node.children if not isinstance(c, Leaf)]
    return _Cond(cond, tuple(children), signals, hyps)


def _compile_leaves(leaves, hyps, signals, orth):
    """Kernel nodes of sibling leaves.  Leaves of one kind whose tables
    have one signature (table shape, and for hard_last the last unit's
    type and points) share one node with a leaf axis; hard_all leaves
    stay single."""
    groups = {}
    for leaf in leaves:
        picked = _units_for(signals.units, leaf.indices)
        if leaf.kind == HARD_ALL:
            _check_orthogonal(orth, [[i] for u in picked for i in u.indices],
                              "hard_all needs HR-orthogonal reals")
            key = (HARD_ALL, leaf)
        elif leaf.kind == HARD_LAST:
            last = picked[-1]
            if isinstance(last, BlockValues):
                raise PlanError("cannot hard-limit a value block")
            key = (HARD_LAST, _table_shape(picked[:-1]), type(last),
                   _last_points(last))
        else:
            key = (JOINT, _table_shape(picked))
        groups.setdefault(key, []).append(picked)
    kernel = {JOINT: _Joint, HARD_LAST: _HardLast, HARD_ALL: _HardAll}
    return [kernel[key[0]](members, signals, hyps)
            for key, members in groups.items()]


def _table_shape(units):
    """Shape of the enumerated value table of a unit list."""
    return (math.prod(u.size for u in units),
            sum(len(u.indices) for u in units))


def _last_points(unit):
    """The hard-limited real's points: PAM for a QAM pair."""
    if isinstance(unit, PairQAM):
        return pam_points(qam_side(unit.M))
    return tuple(unit.points)


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
    best = m.min(axis=axis)
    tied = m == np.expand_dims(best, axis)
    return best, np.where(tied, idx, _BIG).min(axis=axis)


def _leaf_sum(m, idx):
    """Totals over the leaf axis 1, added leaf by leaf in a fixed order."""
    total = m[:, 0]
    for k in range(1, m.shape[1]):
        total = total + m[:, k]
    return total, idx.sum(axis=1)


# Each node is built from its units and the SignalSet, and decodes
# B: (T, n_hyp, K) adjusted linear terms against G: (T, K, K), returning
# (metrics (T, n_hyp), codeword indexes (T, n_hyp)); a leaf node holds L
# sibling leaves and returns the sums over them.  `count` is the node's
# metric evaluations per hypothesis and `width` estimates the float64
# elements one trial of the node and its subtree holds at once.

class _Joint:
    """Scan every joint value of each leaf's units."""

    def __init__(self, members, signals, hyps):
        V, idx = _leaf_tables(members, signals)
        self.leaves, n, K = V.shape
        self.V = V.reshape(self.leaves * n, K)
        self.idx = idx[..., None]                          # (L, n, 1)
        self.count = self.leaves * n
        self.width = (5 * hyps + K) * self.count

    def decode(self, B, G):
        T, H = B.shape[:2]
        L, n = self.idx.shape[:2]
        m = (_quad(self.V, G)[..., None]
             - 2.0 * (self.V @ B.swapaxes(1, 2))).reshape(T, L, n, H)
        return _leaf_sum(*_pick(m, self.idx, 2))


class _HardLast:
    """Scan all units but the last; for each prefix and each outer PAM
    value o of the last unit, hard-limit its final real p exactly.

    The last unit's point is x = o e + p d, with e = (c, s) and
    d = (-s, c) for a QAM pair rotated by theta, and o = 0, d = (1) for a
    real.  With b the linear term folded by the prefix v, w = b.e,
    u = b.d and the Gram's g_ee, g_ed and g_dd, the metric is

        pre(v) - 2 (o w + p u) + o^2 g_ee + 2 o p g_ed + p^2 g_dd
          = pre(v) + o^2 g_ee - 2 o w + p (p g_dd - 2 t),
        2 t = 2 u - 2 o g_ed.

    The quotient t / g_dd only picks p; no quotient enters a metric, so
    integer channels give exact metrics and exact ties.  The rows 2d and
    2o e, spread over all K columns, give 2u and 2o w of every hypothesis
    in one product.
    """

    def __init__(self, members, signals, hyps):
        Vp, pidx = _leaf_tables([u[:-1] for u in members], signals)
        lasts = [u[-1] for u in members]
        L, P, K = Vp.shape
        self.leaves = L
        self.points = np.asarray(_last_points(lasts[0]))
        self.mids = _midpoints(self.points)
        self.pair = isinstance(lasts[0], PairQAM)
        # each leaf's axes d = (-s, c) and e = (c, s), or d = (1) for a real
        d, e = np.zeros((L, 1, K)), np.zeros((L, 1, K))
        for k, u in enumerate(lasts):
            if self.pair:
                c, s = np.cos(u.theta), np.sin(u.theta)
                d[k, 0, list(u.indices)] = -s, c
                e[k, 0, list(u.indices)] = c, s
            else:
                d[k, 0, u.index] = 1.0
        if self.pair:
            n_o = len(self.points)
            oe = self.points[:, None] * e                        # (L, n_o, K)
            R = np.stack([np.repeat(2.0 * d, n_o, 1), 2.0 * oe], 1)
            # quadratic rows: g_dd, then 2o g_ed and o^2 g_ee per o
            self.gx = np.concatenate([d, 2.0 * oe, oe], 1).reshape(-1, K)
            self.gy = np.concatenate([d, np.repeat(d, n_o, 1), oe],
                                     1).reshape(-1, K)
            aoff = np.arange(n_o, dtype=np.int64) * n_o
        else:  # RealPoints: the last real is the whole unit
            R = 2.0 * d[:, None]
            self.gx = self.gy = d[:, 0]
            aoff = np.zeros(1, dtype=np.int64)
        self.R = R.reshape(-1, K)                    # rows (leaf, 2d | 2oe, o)
        self.Vp = None
        if len(members[0]) > 1:
            self.Vp = Vp.reshape(L * P, K)
            # the fold v.G.r of each (prefix, row) pair of one leaf
            rows = R.shape[1] * R.shape[2]
            self.Vp_R = np.repeat(Vp, rows, axis=1).reshape(-1, K)
            self.R_P = np.tile(R.reshape(L, rows, K), (1, P, 1)).reshape(-1, K)
        self.w_last = np.array([signals.weights[u] for u in lasts],
                               dtype=np.int64)[:, None, None, None]
        # codeword index of (leaf, prefix, outer value) at inner digit 0
        self.offsets = pidx[:, :, None, None] + aoff[:, None] * self.w_last
        self.count = L * P * len(aoff)
        self.width = hyps * (8 * self.count + len(self.R) + L * P)

    def decode(self, B, G):
        T, H = B.shape[:2]
        L, P, n_o = self.offsets.shape[:3]
        Bt = B.swapaxes(1, 2)                                  # (T, K, H)
        X = (self.R @ Bt).reshape(T, L, -1, n_o, H)            # 2u | 2o w
        g = _quad(self.gx, G, self.gy).reshape(T, L, 1, -1, 1)
        g_dd = g[:, :, :, :1]
        ed = ee = 0.0        # 2o g_ed and o^2 g_ee, plus the prefix's fold
        if self.pair:
            ed, ee = g[:, :, :, 1:1 + n_o], g[:, :, :, 1 + n_o:]
        if self.Vp is not None:
            pre = (_quad(self.Vp, G)[..., None]
                   - 2.0 * (self.Vp @ Bt)).reshape(T, L, P, 1, H)
            # the prefix folds into u and w once per (trial, prefix)
            fold = _quad(self.Vp_R, G, self.R_P).reshape(T, L, P, -1, n_o, 1)
            ed = ed + fold[:, :, :, 0]
            if self.pair:
                ee = ee + fold[:, :, :, 1]
        t2 = X[:, :, :1] - ed                                  # (T, L, P, n_o, H)
        pi = _nearest(self.mids, t2 / (2.0 * g_dd))
        p = self.points[pi]
        m = p * g_dd
        m -= t2
        m *= p
        if self.pair:
            m += ee - X[:, :, 1:]
        if self.Vp is not None:
            m += pre
        idx = self.offsets + pi * self.w_last
        best = _pick(m.reshape(T, L, P * n_o, H),
                     idx.reshape(T, L, P * n_o, H), 2)
        return _leaf_sum(*best)


class _HardAll:
    """One metric evaluation: every real hard-limited independently.

    Exact when the Gram is diagonal in unit-local coordinates (a real, or
    a QAM pair's rotated axes (c, s) and (-s, c)), which decode checks
    for every channel.  Each axis, spread over all K columns, projects
    the linear terms in one product; the axes' point sets are padded to
    one length so that every axis is limited at once.
    """

    def __init__(self, members, signals, hyps):
        (units,) = members                  # hard_all leaves stay single
        self.cols = np.array([i for u in units for i in u.indices],
                             dtype=np.intp)
        self.sub = _block(self.cols, self.cols)
        self.E = np.zeros((len(self.cols), signals.K))     # unit axes
        points, digit, pairs = [], [], []
        for u in units:
            at, cols, w = len(points), list(u.indices), signals.weights[u]
            if isinstance(u, RealPoints):
                self.E[at, cols] = 1.0
                points.append(u.points)
                digit.append(w)
            elif isinstance(u, PairQAM):
                pam = pam_points(qam_side(u.M))
                c, s = np.cos(u.theta), np.sin(u.theta)
                pairs.append(at)
                self.E[at, cols] = c, s
                self.E[at + 1, cols] = -s, c
                points += [pam, pam]
                digit += [len(pam) * w, w]
            else:
                raise PlanError("hard_all cannot limit a value block")
        self.E_cols = self.E[:, self.cols]
        # each pair's axes must stay uncoupled by the channel
        self.e1, self.e2 = self.E[pairs], self.E[[a + 1 for a in pairs]]
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

    def decode(self, B, G):
        Z = self.E @ B.swapaxes(1, 2)                      # (T, k, H)
        if len(self.e1):
            cross = _quad(self.e1, G, self.e2)
            scale = np.maximum(np.abs(G).max(axis=(1, 2)), 1e-30)
            if np.any(np.abs(cross) > 1e-6 * scale[:, None]):
                raise PlanError("hard_all pair is not separable")
        i = _nearest(self.mids, Z / _quad(self.E, G)[..., None])
        x = self.points[self.axis, i].swapaxes(1, 2) @ self.E_cols
        m = (-2.0 * np.sum(B[..., self.cols] * x, axis=-1)
             + _quad(x, G[self.sub]))
        return m, (i * self.digit).sum(axis=1)


class _Cond:
    """Enumerate the conditioning values and decode the children for each
    hypothesis, folded into the linear terms.  Hypothesis c of parent row
    h becomes row c * H + h, so the conditioning values are the leading
    candidate axis of the totals."""

    def __init__(self, units, children, signals, hyps):
        Vc, cidx = signals.table(units)
        self.Vc = Vc if units else None   # no conditioning: nothing to fold
        self.cidx = cidx[:, None]                          # (n_c, 1)
        self.children = children
        n_c = len(cidx)
        self.count = n_c * sum(c.count for c in children)
        # Bd and the running totals stay live while the children decode
        self.width = (hyps * n_c * (signals.K + 4)
                      + max(c.width for c in children))

    def decode(self, B, G):
        T, H, K = B.shape
        n_c = len(self.cidx)
        total_m, total_i, Bd = None, self.cidx, B
        if self.Vc is not None:
            VG = self.Vc @ G              # (T, n_c, K): _quad's product, the fold
            total_m = (((VG * self.Vc) @ np.ones(K))[..., None]
                       - 2.0 * (self.Vc @ B.swapaxes(1, 2)))   # (T, n_c, H)
            # every column is folded; each child reads only its own
            Bd = (B[:, None] - VG[:, :, None]).reshape(T, n_c * H, K)
        for child in self.children:
            cm, ci = child.decode(Bd, G)
            cm = cm.reshape(T, n_c, H)
            total_m = cm if total_m is None else total_m + cm
            total_i = total_i + ci.reshape(T, n_c, H)
        if n_c == 1:
            return total_m[:, 0], total_i[:, 0]
        return _pick(total_m, total_i, 1)


# ---------------------------------------------------------------------------
# metric terms and decoders

def _channel(X, Z, noise_std):
    """Y = XH + W for codewords X (..., N, N) from standard normals
    Z (..., 4, N, n_rx): the real and imaginary parts of the unit-variance
    CSCG channel H, then those of the noise W before scaling."""
    H = (Z[..., 0, :, :] + 1j * Z[..., 1, :, :]) / np.sqrt(2)
    W = noise_std * (Z[..., 2, :, :] + 1j * Z[..., 3, :, :]) / np.sqrt(2)
    return X @ H + W, H


def channel_step(X, rng, n_rx, noise_std):
    """Y = XH + W with unit-variance CSCG H and given noise deviation."""
    return _channel(X, rng.standard_normal((4, X.shape[0], n_rx)), noise_std)


def _metric_terms(stbc, Y, H):
    """b and G of one trial (Y, H: (N, n_rx)) or of a stack of trials
    (T, N, n_rx)."""
    AH = np.einsum("iab,...bc->...iac", stbc.matrices, H)
    b = np.real(np.einsum("...ab,...iab->...i", Y.conj(), AH))
    G = np.real(np.einsum("...iab,...jab->...ij", AH.conj(), AH))
    return b, G


def _check_oracle_cap(stbc):
    if stbc.count > ORACLE_CAP:
        raise ValueError(
            "codebook of %d codewords is above the exhaustive-decoding cap "
            "of %d; the structured decoder (--decoder structured) decodes it"
            % (stbc.count, ORACLE_CAP))


def _oracle(V, b, G):
    """Exhaustive argmin over the rows of V for b: (T, K), G: (T, K, K).

    Returns (codeword indexes (T,), metrics (T,)); the codebook is scanned
    in blocks within _CHUNK_BYTES, ties going to the lowest index.
    """
    T, K = b.shape
    step = max(1, _CHUNK_BYTES // (8 * (K + 2) * T))
    rows = np.arange(T)
    best_i = best_m = None
    for at in range(0, V.shape[0], step):
        Vb = V[at:at + step]
        m = -2.0 * (b @ Vb.T) + _quad(Vb, G)
        arg = np.argmin(m, axis=1)
        m = m[rows, arg]
        if best_i is None:
            best_i, best_m = arg, m
        else:  # a later block wins only with a strictly smaller metric
            upd = m < best_m
            best_i = np.where(upd, arg + at, best_i)
            best_m = np.where(upd, m, best_m)
    return best_i, best_m


def _structured(stbc, b, G):
    """Plan decode of b: (T, K), G: (T, K, K); (indexes, metrics, count)."""
    m, idx = stbc.compiled.decode(b[:, None, :], G)
    return idx[:, 0], m[:, 0], stbc.compiled.count


def ml_oracle(Y, H, stbc):
    """Full-enumeration argmin; ties to the lowest codeword index."""
    _check_oracle_cap(stbc)
    b, G = _metric_terms(stbc, Y[None], H[None])
    index, _metric = _oracle(stbc.symbol_table, b, G)
    return int(index[0]), stbc.count


def ml_structured(Y, H, stbc):
    """Plan-driven exact ML decode; returns (codeword index, metric count)."""
    if stbc.plan is None:
        raise ValueError("instance has no decode plan")
    b, G = _metric_terms(stbc, Y[None], H[None])
    index, _metric, count = _structured(stbc, b, G)
    return int(index[0]), count


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
    """Float64 words one trial of a decode batch holds at most; the
    oracle scans the codebook in blocks within _CHUNK_BYTES on its own."""
    K = stbc.linear.K
    words = K * (K + 1) + 4 * K * stbc.N * cfg.n_rx  # b, G and A_i H
    if cfg.decoder != "oracle":
        words += stbc.compiled.width
    return words


def _words(n):
    """Little-endian 32-bit words of an int >= 0, one zero word for 0: how
    SeedSequence reads each int of an entropy list."""
    words = [n & 0xFFFFFFFF]
    while n >> 32:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


def _draw(stbc, cfg, sigma, snr_idx, trials):
    """Sent indexes and stacked Y, H of the given trials.

    Trial t draws from its own generator, seeded by SeedSequence over the
    words of (seed, snr_idx, t) held in one uint32 key, exactly as from
    the list [seed, snr_idx, t]: the sent index, then one block of
    standard normals for H and the noise.  Codewords and channel outputs
    are then formed for the whole block at once.
    """
    key = np.array(_words(cfg.seed) + _words(snr_idx) + [0], dtype=np.uint32)
    sent = np.empty(len(trials), dtype=np.int64)
    Z = np.empty((len(trials), 4, stbc.N, cfg.n_rx))
    count = stbc.count
    for k, t in enumerate(trials):
        key[-1] = t
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))
        sent[k] = rng.integers(count)
        rng.standard_normal(out=Z[k])
    X = np.tensordot(stbc.symbol_table[sent], stbc.matrices, axes=(1, 0))
    Y, H = _channel(X, Z, sigma)
    return sent, Y, H


def simulate(cfg, stbc):
    """Seeded CER run; identical output for any worker count or batch size."""
    use_o = cfg.decoder in ("oracle", "both")
    use_s = cfg.decoder in ("structured", "both")
    if use_o:
        _check_oracle_cap(stbc)
    if use_s and stbc.plan is None:
        raise ValueError("instance has no decode plan")
    N = stbc.N
    es_avg = stbc.average_energy
    sigmas = [_noise_std(es_avg, N, snr) for snr in cfg.snr_db]
    chunk = max(1, _CHUNK_BYTES // (8 * _trial_words(stbc, cfg)))
    errors = []
    for snr_idx, (snr, sigma) in enumerate(zip(cfg.snr_db, sigmas)):
        wrong = 0
        for t0 in range(0, cfg.trials, chunk):
            trials = range(t0, min(t0 + chunk, cfg.trials))
            sent, Y, H = _draw(stbc, cfg, sigma, snr_idx, trials)
            b, G = _metric_terms(stbc, Y, H)
            if use_o:
                got, m_o = _oracle(stbc.symbol_table, b, G)
            if use_s:
                got_s, m_s, _count = _structured(stbc, b, G)
            if use_o and use_s:
                _check_agreement(snr, snr_idx, trials, got, m_o, got_s, m_s)
            elif use_s:
                got = got_s
            wrong += int(np.count_nonzero(got != sent))
        errors.append(wrong)
    return SimResult(config=cfg, n_tx=N, codebook=stbc.count,
                     energy=es_avg, errors=tuple(errors),
                     agreements=(cfg.trials,) * len(cfg.snr_db),
                     oracle_evals=float(stbc.count if use_o else 0),
                     structured_evals=float(stbc.compiled.count if use_s
                                            else 0))


def _check_agreement(snr, snr_idx, trials, got_o, m_o, got_s, m_s):
    bad = np.flatnonzero(got_o != got_s)
    if bad.size:
        k = bad[0]
        raise AssertionError(
            "decoder disagreement at snr %.12g dB (snr index %d), trial %d: "
            "oracle codeword %d metric %.17g, structured codeword %d metric "
            "%.17g" % (snr, snr_idx, trials[k], got_o[k], m_o[k], got_s[k],
                       m_s[k]))
