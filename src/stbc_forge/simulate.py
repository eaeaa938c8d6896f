"""Quasi-static Rayleigh MIMO simulation with exact ML decoders.

Both decoders minimize ||Y - XH||_F^2 over the codebook.  Dropping the
constant ||Y||^2, the metric of a symbol vector x is

    f(x) = -2 x.b + x.G.x,   b_i = ReTr(Y^H A_i H),
                             G_ij = ReTr((A_i H)^H (A_j H)).

The oracle enumerates the whole codebook.  The structured decoder
follows the instance's DecodePlan, compiled once when the STBCInstance
is built.  Compiling checks the plan against the design and the signal
set (raising PlanError) and turns every node into static tables: column
index arrays, the enumerated conditioning and prefix values with their
mixed-radix partial indexes, and the last unit's PAM points, rotation
and offsets.  A Cond node enumerates its conditioning symbols and, since
G vanishes between HR-orthogonal groups, decodes each child separately
after folding the hypothesis into the linear term; leaves either scan
jointly, scan all but the last unit and hard-limit the final real (an
exact 1-D quadratic minimization, so no orthogonality is needed inside
the last pair), or hard-limit every real in one shot when the Gram is
diagonal in unit-local coordinates.  Both decoders break metric ties by
lowest codeword index, so their outputs are comparable by equality.

Both decoders take a batch of T trials per call: linear terms of shape
(T, hypotheses, K) against Grams of shape (T, K, K).  ml_oracle and
ml_structured are the T = 1 case of the same code.

Metric-evaluation counts match the plan's complexity terms exactly: a
joint leaf costs its candidate count, a hard-limited last pair costs
sqrt(M) per prefix, hard_all costs one, and a Cond multiplies by its
hypothesis count.

simulate draws each trial from its own generator keyed by (seed, snr
index, trial index) and decodes the trials in chunks whose working set
stays within _CHUNK_BYTES; the oracle also scans the codebook in blocks
within that budget.  Results are therefore independent of the chunk
size.  A chunk is drawn with one loop over its trials that seeds each
generator from a reused uint32 key, draws the sent index and then all
of the trial's standard normals in one call; the codewords and the
channel outputs Y = XH + W of the whole chunk then take a fixed number
of numpy calls.  The draws are bit-identical to seeding each trial with
SeedSequence([seed, snr index, trial]) and making four standard_normal
calls.  SimConfig.workers is accepted and validated for compatibility
only: it does not change how a run executes.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .design import Leaf, JOINT, HARD_LAST, check_plan, plan_indices
from .signalset import PairQAM, RealPoints, BlockValues, pam_points, qam_side

_BIG = np.iinfo(np.int64).max

ORACLE_CAP = 10 ** 5    # largest codebook the exhaustive decoder scans
_CHUNK_BYTES = 1 << 20  # working-set budget of one decode batch (1 MiB)
MAX_TRIALS = 2 ** 32    # trial indexes fill one uint32 word of the RNG key


def hard_limit_pam(v, points):
    """Index of the nearest point, ties to the lower point; v array-like."""
    points = np.asarray(points)
    if points.size == 0:
        raise ValueError("empty point set")
    return _nearest(_midpoints(points), np.asarray(v))


def _midpoints(points):
    return (points[:-1] + points[1:]) / 2.0


def _nearest(mids, v):
    return np.searchsorted(mids, v, side="left")


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

    @cached_property
    def unit_weights(self):
        """Mixed-radix digit weight of each unit (first unit slowest)."""
        sizes = [u.size for u in self.signals.units]
        w, out = 1, [0] * len(sizes)
        for k in range(len(sizes) - 1, -1, -1):
            out[k] = w
            w *= sizes[k]
        return tuple(out)

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
    A, units = stbc.matrices, stbc.signals.units
    # orth[i, j]: A_i^H A_j + A_j^H A_i vanishes (HR-orthogonal pair)
    P = np.einsum("iab,jac->ijbc", A.conj(), A)
    orth = np.linalg.norm(P + P.transpose(1, 0, 2, 3), axis=(2, 3)) < 1e-9
    weight = dict(zip(units, stbc.unit_weights))
    return _compile_node(stbc.plan, 1, units, weight, orth, stbc.linear.K)


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


def _compile_node(node, hyps, units, weight, orth, K):
    if isinstance(node, Leaf):
        picked = _units_for(units, node.indices)
        if node.kind == JOINT:
            return _Joint(_enumerate_units(picked, weight), hyps)
        if node.kind == HARD_LAST:
            if isinstance(picked[-1], BlockValues):
                raise PlanError("cannot hard-limit a value block")
            return _HardLast(picked, weight, hyps)
        _check_orthogonal(orth, [[i] for u in picked for i in u.indices],
                          "hard_all needs HR-orthogonal reals")
        return _HardAll(picked, weight, hyps)
    tables = _enumerate_units(_units_for(units, node.conditioning), weight)
    _check_orthogonal(orth, [sorted(plan_indices(c)) for c in node.children],
                      "Cond children must be HR-orthogonal")
    desc = sorted(i for c in node.children for i in plan_indices(c))
    n_c = len(tables[2])
    return _Cond(tables, desc,
                 tuple(_compile_node(c, hyps * n_c, units, weight, orth, K)
                       for c in node.children), hyps, K)


def _enumerate_units(units, weight):
    """(values (n, k), columns (k,), partial indexes (n,)) for a unit list,
    in increasing index order."""
    cols = []
    vals = np.zeros((1, 0))
    idxs = np.zeros(1, dtype=np.int64)
    for u in units:
        V = u.values()
        n = V.shape[0]
        vals = np.concatenate(
            [np.repeat(vals, n, axis=0), np.tile(V, (vals.shape[0], 1))],
            axis=1)
        idxs = (np.repeat(idxs, n) +
                np.tile(np.arange(n, dtype=np.int64) * weight[u],
                        idxs.shape[0]))
        cols.extend(u.indices)
    return vals, np.array(cols, dtype=np.intp), idxs


def _block(rows, cols):
    """Index of the (T, rows, cols) sub-block of a stack of Grams."""
    return (slice(None), rows[:, None], cols[None, :])


def _quad(X, G):
    """x.G.x for every row x of X ((n, k) or (T, n, k)); G (T, k, k)."""
    XG = X @ G
    XG *= X
    return XG @ np.ones(X.shape[-1])


# Each node decodes B: (T, n_hyp, K) adjusted linear terms against
# G: (T, K, K), returning (metrics (T, n_hyp), codeword indexes (T, n_hyp),
# metric evaluations per hypothesis).  `width` estimates the float64
# elements one trial of the node and its subtree holds at once.

class _Joint:
    """Scan every joint value of the leaf's units."""

    def __init__(self, tables, hyps):
        self.V, self.cols, self.idx = tables
        self.sub = _block(self.cols, self.cols)
        self.count = self.V.shape[0]
        self.width = (2 * hyps + self.V.shape[1]) * self.count

    def decode(self, B, G):
        m = (-2.0 * (B[..., self.cols] @ self.V.T)
             + _quad(self.V, G[self.sub])[:, None, :])
        arg = np.argmin(m, axis=-1)  # first minimum: lowest codeword index
        return (np.take_along_axis(m, arg[..., None], -1)[..., 0],
                self.idx[arg], self.count)


class _HardLast:
    """Scan all units but the last; for each prefix and each outer PAM
    value of the last unit, hard-limit its final real exactly."""

    def __init__(self, units, weight, hyps):
        last = units[-1]
        self.Vp, self.pcols, pidx = _enumerate_units(units[:-1], weight)
        self.lcols = np.array(last.indices, dtype=np.intp)
        if isinstance(last, PairQAM):
            r = qam_side(last.M)
            self.points = np.asarray(pam_points(r))
            c, s = np.cos(last.theta), np.sin(last.theta)
            self.d = np.array([-s, c])                # direction of b
            self.ca = np.outer(self.points, [c, s])   # (c a, s a) per a
            aoff = np.arange(r, dtype=np.int64) * r
        else:  # RealPoints: the last real is the whole unit
            self.points = np.asarray(last.points)
            self.d = np.ones(1)
            self.ca = np.zeros((1, 1))
            aoff = np.zeros(1, dtype=np.int64)
        self.mids = _midpoints(self.points)
        self.w_last = weight[last]
        # codeword index of (prefix p, outer value a) at inner digit 0
        self.offsets = pidx[:, None] + aoff[None, :] * self.w_last
        self.ll = _block(self.lcols, self.lcols)
        self.lp = _block(self.lcols, self.pcols)
        self.pp = _block(self.pcols, self.pcols)
        self.count = self.offsets.size
        self.width = hyps * self.count * (3 * len(self.lcols) + 6)

    def decode(self, B, G):
        T, H = B.shape[:2]
        Gll = G[self.ll]
        b_eff = B[..., None, self.lcols]                       # (T, H, 1, l)
        if self.pcols.size:
            pre = (-2.0 * (B[..., self.pcols] @ self.Vp.T)
                   + _quad(self.Vp, G[self.pp])[:, None, :])   # (T, H, P)
            b_eff = b_eff - (self.Vp @ G[self.lp].swapaxes(1, 2))[:, None]
        else:
            pre = np.zeros((T, H, 1))
        Gd = Gll @ self.d                                      # (T, l)
        caGd = (Gd @ self.ca.T)[:, None, None]                 # (T, 1, 1, a)
        t_star = (((b_eff @ self.d)[..., None] - caGd)
                  / (Gd @ self.d)[:, None, None, None])        # (T, H, P, a)
        bi = _nearest(self.mids, t_star)
        x = self.ca + self.points[bi][..., None] * self.d      # (..., a, l)
        quad = _quad(x.reshape(T, -1, len(self.lcols)), Gll)
        m = (pre[..., None] - 2.0 * np.sum(b_eff[..., None, :] * x, axis=-1)
             + quad.reshape(bi.shape))
        # candidates run in increasing codeword index along the last
        # axis, so the first minimum is the lowest-index one
        m = m.reshape(T, H, -1)
        arg = np.argmin(m, axis=-1)[..., None]
        idx = (self.offsets + bi * self.w_last).reshape(T, H, -1)
        return (np.take_along_axis(m, arg, -1)[..., 0],
                np.take_along_axis(idx, arg, -1)[..., 0], self.count)


class _HardAll:
    """One metric evaluation: every real hard-limited independently.

    Exact when the Gram is diagonal in unit-local coordinates, which
    decode checks for every channel.
    """

    def __init__(self, units, weight, hyps):
        self.cols = np.array([i for u in units for i in u.indices],
                             dtype=np.intp)
        self.sub = _block(self.cols, self.cols)
        self.reals, self.pairs = [], []
        at = 0
        for u in units:
            if isinstance(u, RealPoints):
                pts = np.asarray(u.points)
                self.reals.append((u.index, at, pts, _midpoints(pts),
                                   weight[u]))
            elif isinstance(u, PairQAM):
                pam = np.asarray(pam_points(qam_side(u.M)))
                c, s = np.cos(u.theta), np.sin(u.theta)
                pair = np.array(u.indices, dtype=np.intp)
                self.pairs.append((_block(pair, pair), pair, at, pam,
                                   _midpoints(pam), weight[u], c, s))
            else:
                raise PlanError("hard_all cannot limit a value block")
            at += len(u.indices)
        self.count = 1
        self.width = 4 * hyps * len(self.cols)

    def decode(self, B, G):
        x = np.zeros(B.shape[:2] + (len(self.cols),))
        idxs = np.zeros(B.shape[:2], dtype=np.int64)
        for i, at, pts, mids, w in self.reals:
            bi = _nearest(mids, B[..., i] / G[:, i, i][:, None])
            x[..., at] = pts[bi]
            idxs += bi * w
        if self.pairs:
            scale = np.maximum(np.abs(G).max(axis=(1, 2)), 1e-30)
        for sub, pair, at, pam, mids, w, c, s in self.pairs:
            e1, e2 = np.array([c, s]), np.array([-s, c])
            e1G, e2G = e1 @ G[sub], e2 @ G[sub]                # (T, 2)
            if np.any(np.abs(e1G @ e2) > 1e-6 * scale):
                raise PlanError("hard_all pair is not separable")
            Bu = B[..., pair]
            ai = _nearest(mids, (Bu @ e1) / (e1G @ e1)[:, None])
            bi = _nearest(mids, (Bu @ e2) / (e2G @ e2)[:, None])
            x[..., at] = c * pam[ai] - s * pam[bi]
            x[..., at + 1] = s * pam[ai] + c * pam[bi]
            idxs += (ai * len(pam) + bi) * w
        m = (-2.0 * np.sum(B[..., self.cols] * x, axis=-1)
             + _quad(x, G[self.sub]))
        return m, idxs, 1


class _Cond:
    """Enumerate the conditioning values and decode the children for each
    hypothesis, folded into the linear terms along the batch's axis 1."""

    def __init__(self, tables, desc, children, hyps, K):
        self.Vc, self.ccols, self.cidx = tables
        self.desc = np.array(desc, dtype=np.intp)
        self.cc = _block(self.ccols, self.ccols)
        self.cd = _block(self.ccols, self.desc)
        self.children = children
        n_c = len(self.cidx)
        self.count = n_c * sum(c.count for c in children)
        # Bd and the running totals stay live while the children decode
        self.width = (hyps * n_c * (K + 4)
                      + max(c.width for c in children))

    def decode(self, B, G):
        T, H, K = B.shape
        n_c = len(self.cidx)
        if self.ccols.size:
            q = (-2.0 * (B[..., self.ccols] @ self.Vc.T)
                 + _quad(self.Vc, G[self.cc])[:, None, :])    # (T, H, n_c)
            # hypothesis c of parent row h becomes row h * n_c + c
            Bd = np.repeat(B, n_c, axis=1)
            Bd.reshape(T, H, n_c, K)[..., self.desc] -= (
                self.Vc @ G[self.cd])[:, None]
        else:
            q = np.zeros((T, H, n_c))
            Bd = B
        total_m = q.reshape(T, H * n_c)
        total_i = np.tile(self.cidx, (T, H))
        count = 0
        for child in self.children:
            cm, ci, cc = child.decode(Bd, G)
            total_m = total_m + cm
            total_i = total_i + ci
            count += cc
        total_m = total_m.reshape(T, H, n_c)
        total_i = total_i.reshape(T, H, n_c)
        best = np.min(total_m, axis=-1, keepdims=True)
        cand = np.where(total_m == best, total_i, _BIG)
        return best[..., 0], np.min(cand, axis=-1), n_c * count


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
    m, idx, count = stbc.compiled.decode(b[:, None, :], G)
    return idx[:, 0], m[:, 0], count


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
    """Float64 words one trial of a decode batch holds at most."""
    K = stbc.linear.K
    words = K * (K + 1) + 4 * K * stbc.N * cfg.n_rx  # b, G and A_i H
    if cfg.decoder != "structured":
        words += (K + 2) * stbc.count
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
    for k, t in enumerate(trials):
        key[-1] = t
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))
        sent[k] = rng.integers(stbc.count)
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
    chunk = max(1, _CHUNK_BYTES // (8 * _trial_words(stbc, cfg)))
    errors = []
    es = 0
    for snr_idx, snr in enumerate(cfg.snr_db):
        sigma = np.sqrt(es_avg / (N * 10 ** (snr / 10.0)))
        wrong = 0
        for t0 in range(0, cfg.trials, chunk):
            trials = range(t0, min(t0 + chunk, cfg.trials))
            sent, Y, H = _draw(stbc, cfg, sigma, snr_idx, trials)
            b, G = _metric_terms(stbc, Y, H)
            if use_o:
                got, m_o = _oracle(stbc.symbol_table, b, G)
            if use_s:
                got_s, m_s, es = _structured(stbc, b, G)
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
                     structured_evals=float(es))


def _check_agreement(snr, snr_idx, trials, got_o, m_o, got_s, m_s):
    bad = np.flatnonzero(got_o != got_s)
    if bad.size:
        k = bad[0]
        raise AssertionError(
            "decoder disagreement at snr %.12g dB (snr index %d), trial %d: "
            "oracle codeword %d metric %.17g, structured codeword %d metric "
            "%.17g" % (snr, snr_idx, trials[k], got_o[k], m_o[k], got_s[k],
                       m_s[k]))
