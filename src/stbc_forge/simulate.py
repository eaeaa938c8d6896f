"""Quasi-static Rayleigh MIMO simulation with exact ML decoders.

Both decoders minimize ||Y - XH||_F^2 over the codebook.  Dropping the
constant ||Y||^2, the metric of a symbol vector x is

    f(x) = -2 x.b + x.G.x,   b_i = ReTr(Y^H A_i H),
                             G_ij = ReTr((A_i H)^H (A_j H)).

The oracle enumerates the whole codebook.  The structured decoder walks
a DecodePlan: a Cond node enumerates its conditioning symbols and, since
G vanishes between HR-orthogonal groups, decodes each child separately
after folding the hypothesis into the linear term; leaves either scan
jointly, scan all but the last unit and hard-limit the final real (an
exact 1-D quadratic minimization, so no orthogonality is needed inside
the last pair), or hard-limit every real in one shot when the Gram is
diagonal in unit-local coordinates.  Both decoders break metric ties by
lowest codeword index, so their outputs are comparable by equality.

Metric-evaluation counts are instrumented and match the plan's
complexity terms exactly: a joint leaf costs its candidate count, a
hard-limited last pair costs sqrt(M) per prefix, hard_all costs one, and
a Cond multiplies by its hypothesis count.

Trial randomness is keyed by (seed, snr index, trial index), so results
are independent of execution order and worker count.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .design import (Leaf, Cond, JOINT, HARD_LAST, HARD_ALL, check_plan,
                     plan_indices)
from .signalset import PairQAM, RealPoints, BlockValues, pam_points, qam_side
from .pauli import hr_orthogonal_numeric

_BIG = np.iinfo(np.int64).max


def hard_limit_pam(v, points):
    """Index of the nearest point, ties to the lower point; v array-like."""
    points = np.asarray(points)
    if points.size == 0:
        raise ValueError("empty point set")
    mids = (points[:-1] + points[1:]) / 2.0
    return np.searchsorted(mids, np.asarray(v), side="left")


def _rel_zero(x, scale):
    return abs(x) <= 1e-6 * max(scale, 1e-30)


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
        if self.plan is not None:
            check_plan(self.plan, self.linear.K)
            self._validate_plan()

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

    # -- plan structure -----------------------------------------------------

    def _units_for(self, indices):
        """Units (in signal-set order) exactly covering the index set."""
        want = set(indices)
        picked = []
        for u in self.signals.units:
            us = set(u.indices)
            if us <= want:
                picked.append(u)
            elif us & want:
                raise PlanError("plan node splits unit %r" % (u,))
        if set(i for u in picked for i in u.indices) != want:
            raise PlanError("no unit covering some of %r" % (sorted(want),))
        return tuple(picked)

    def _validate_plan(self):
        A = self.matrices

        def orth(i, j):
            return hr_orthogonal_numeric(A[i], A[j], tol=1e-9)

        def walk(node):
            if isinstance(node, Leaf):
                units = self._units_for(node.indices)
                if node.kind == HARD_LAST:
                    if isinstance(units[-1], BlockValues):
                        raise PlanError("cannot hard-limit a value block")
                if node.kind == HARD_ALL:
                    idx = [i for u in units for i in u.indices]
                    for a in range(len(idx)):
                        for bI in range(a + 1, len(idx)):
                            if not orth(idx[a], idx[bI]):
                                raise PlanError(
                                    "hard_all needs HR-orthogonal reals; "
                                    "(%d,%d) are not" % (idx[a], idx[bI]))
                return
            self._units_for(node.conditioning)
            owned = [sorted(i for i in plan_indices(c)) for c in node.children]
            for a in range(len(owned)):
                for bI in range(a + 1, len(owned)):
                    for i in owned[a]:
                        for j in owned[bI]:
                            if not orth(i, j):
                                raise PlanError(
                                    "Cond children must be HR-orthogonal; "
                                    "(%d,%d) are not" % (i, j))
            for c in node.children:
                walk(c)

        walk(self.plan)


def _enumerate_units(units, weights):
    """(values (n, k), columns, partial indexes (n,)) for a unit list."""
    cols, vals, idxs = [], None, None
    vals = np.zeros((1, 0))
    idxs = np.zeros(1, dtype=np.int64)
    for u, w in zip(units, weights):
        V = u.values()
        n = V.shape[0]
        vals = np.concatenate(
            [np.repeat(vals, n, axis=0), np.tile(V, (vals.shape[0], 1))],
            axis=1)
        idxs = (np.repeat(idxs, n) + np.tile(np.arange(n, dtype=np.int64) * w,
                                             idxs.shape[0]))
        cols.extend(u.indices)
    return vals, cols, idxs


def channel_step(X, rng, n_rx, noise_std):
    """Y = XH + W with unit-variance CSCG H and given noise deviation."""
    N = X.shape[0]
    H = (rng.standard_normal((N, n_rx)) +
         1j * rng.standard_normal((N, n_rx))) / np.sqrt(2)
    W = noise_std * (rng.standard_normal((N, n_rx)) +
                     1j * rng.standard_normal((N, n_rx))) / np.sqrt(2)
    return X @ H + W, H


def _metric_terms(stbc, Y, H):
    AH = np.einsum("iab,bc->iac", stbc.matrices, H)
    b = np.real(np.einsum("ab,iab->i", Y.conj(), AH))
    G = np.real(np.einsum("iab,jab->ij", AH.conj(), AH))
    return b, G


def ml_oracle(Y, H, stbc):
    """Full-enumeration argmin; ties to the lowest codeword index."""
    n = stbc.count
    if n > 10 ** 5:
        raise ValueError("codebook too large for exhaustive decoding")
    b, G = _metric_terms(stbc, Y, H)
    V = stbc.symbol_table
    metrics = -2.0 * (V @ b) + np.einsum("ni,ij,nj->n", V, G, V)
    return int(np.argmin(metrics)), n


def ml_structured(Y, H, stbc):
    """Plan-driven exact ML decode; returns (codeword index, metric count)."""
    if stbc.plan is None:
        raise ValueError("instance has no decode plan")
    b, G = _metric_terms(stbc, Y, H)
    dec = _PlanDecoder(stbc, G)
    metric, index, count = dec.run(stbc.plan, b[None, :])
    return int(index[0]), count


class _PlanDecoder:
    def __init__(self, stbc, G):
        self.stbc = stbc
        self.G = G
        self.weights = {u: w for u, w in zip(stbc.signals.units,
                                             stbc.unit_weights)}

    def _enum(self, units):
        return _enumerate_units(units, [self.weights[u] for u in units])

    def run(self, node, B):
        """B: (n_hyp, K) adjusted linear terms.

        Returns (metrics (n_hyp,), indexes (n_hyp,), count per hypothesis).
        """
        if isinstance(node, Cond):
            return self._cond(node, B)
        units = self.stbc._units_for(node.indices)
        if node.kind == JOINT:
            return self._joint(units, B)
        if node.kind == HARD_LAST:
            return self._hard_last(units, B)
        return self._hard_all(units, B)

    def _quad(self, V, cols):
        Gll = self.G[np.ix_(cols, cols)]
        return np.einsum("ni,ij,nj->n", V, Gll, V)

    def _joint(self, units, B):
        V, cols, idxs = self._enum(units)
        metrics = -2.0 * (B[:, cols] @ V.T) + self._quad(V, cols)[None, :]
        arg = np.argmin(metrics, axis=1)  # first occurrence = lowest index
        rows = np.arange(B.shape[0])
        return metrics[rows, arg], idxs[arg], V.shape[0]

    def _hard_last(self, units, B):
        last = units[-1]
        pre_units = units[:-1]
        Vp, pcols, pidx = self._enum(pre_units)
        lcols = list(last.indices)
        w_last = self.weights[last]
        Gll = self.G[np.ix_(lcols, lcols)]
        Glp = self.G[np.ix_(lcols, pcols)]
        n_hyp = B.shape[0]
        best_m = np.full(n_hyp, np.inf)
        best_i = np.zeros(n_hyp, dtype=np.int64)
        count = 0
        for p in range(Vp.shape[0]):
            xp = Vp[p]
            pre_metric = -2.0 * (B[:, pcols] @ xp) + xp @ self.G[
                np.ix_(pcols, pcols)] @ xp
            b_eff = B[:, lcols] - (Glp @ xp)[None, :]
            if isinstance(last, PairQAM):
                r = qam_side(last.M)
                pam = np.asarray(pam_points(r))
                c, s = np.cos(last.theta), np.sin(last.theta)
                d = np.array([-s, c])
                dGd = d @ Gll @ d
                for ai, a in enumerate(pam):
                    ca = np.array([c * a, s * a])
                    t_star = (b_eff @ d - ca @ Gll @ d) / dGd
                    bi = hard_limit_pam(t_star, pam)
                    x_last = ca[None, :] + pam[bi][:, None] * d[None, :]
                    m = pre_metric - 2.0 * np.sum(b_eff * x_last, axis=1) \
                        + np.einsum("ni,ij,nj->n", x_last, Gll, x_last)
                    ii = pidx[p] + (np.int64(ai) * r + bi) * w_last
                    upd = (m < best_m) | ((m == best_m) & (ii < best_i))
                    best_m = np.where(upd, m, best_m)
                    best_i = np.where(upd, ii, best_i)
                    count += 1
            else:  # RealPoints: hard-limit directly, one evaluation
                pts = np.asarray(last.points)
                t_star = b_eff[:, 0] / Gll[0, 0]
                bi = hard_limit_pam(t_star, pts)
                x = pts[bi]
                m = pre_metric - 2.0 * b_eff[:, 0] * x + Gll[0, 0] * x * x
                ii = pidx[p] + bi.astype(np.int64) * w_last
                upd = (m < best_m) | ((m == best_m) & (ii < best_i))
                best_m = np.where(upd, m, best_m)
                best_i = np.where(upd, ii, best_i)
                count += 1
        return best_m, best_i, count

    def _hard_all(self, units, B):
        """One metric evaluation: every real hard-limited independently.

        Exact when the Gram is diagonal in unit-local coordinates, which
        the per-call check below enforces.
        """
        n_hyp = B.shape[0]
        cols = [i for u in units for i in u.indices]
        scale = float(np.abs(self.G).max())
        x_full = np.zeros((n_hyp, len(cols)))
        idxs = np.zeros(n_hyp, dtype=np.int64)
        at = 0
        for u in units:
            w = self.weights[u]
            if isinstance(u, RealPoints):
                i = u.index
                pts = np.asarray(u.points)
                bi = hard_limit_pam(B[:, i] / self.G[i, i], pts)
                x_full[:, at] = pts[bi]
                idxs += bi.astype(np.int64) * w
                at += 1
            elif isinstance(u, PairQAM):
                iI, iQ = u.indices
                r = qam_side(u.M)
                pam = np.asarray(pam_points(r))
                c, s = np.cos(u.theta), np.sin(u.theta)
                e1, e2 = np.array([c, s]), np.array([-s, c])
                Gu = self.G[np.ix_([iI, iQ], [iI, iQ])]
                if not _rel_zero(e1 @ Gu @ e2, scale):
                    raise PlanError("hard_all pair is not separable")
                a_star = (B[:, [iI, iQ]] @ e1) / (e1 @ Gu @ e1)
                b_star = (B[:, [iI, iQ]] @ e2) / (e2 @ Gu @ e2)
                ai = hard_limit_pam(a_star, pam)
                bi = hard_limit_pam(b_star, pam)
                x_full[:, at] = c * pam[ai] - s * pam[bi]
                x_full[:, at + 1] = s * pam[ai] + c * pam[bi]
                idxs += (ai.astype(np.int64) * r + bi) * w
                at += 2
            else:
                raise PlanError("hard_all cannot limit a value block")
        m = -2.0 * np.sum(B[:, cols] * x_full, axis=1) \
            + self._quad(x_full, cols)
        return m, idxs, 1

    def _cond(self, node, B):
        units = self.stbc._units_for(node.conditioning)
        Vc, ccols, cidx = self._enum(units)
        n_c = Vc.shape[0]
        n_hyp = B.shape[0]
        q = -2.0 * (B[:, ccols] @ Vc.T) + self._quad(Vc, ccols)[None, :] \
            if ccols else np.zeros((n_hyp, n_c))
        desc = sorted(i for c in node.children for i in plan_indices(c))
        # fold every hypothesis of every parent row into one batch
        Bd = np.repeat(B, n_c, axis=0)
        if ccols:
            adj = Vc @ self.G[np.ix_(ccols, desc)]
            Bd[:, desc] -= np.tile(adj, (n_hyp, 1))
        total_m = q.reshape(-1)
        total_i = np.tile(cidx, n_hyp)
        count = 0
        for child in node.children:
            cm, ci, cc = self.run(child, Bd)
            total_m = total_m + cm
            total_i = total_i + ci
            count += cc
        total_m = total_m.reshape(n_hyp, n_c)
        total_i = total_i.reshape(n_hyp, n_c)
        best = np.min(total_m, axis=1, keepdims=True)
        cand = np.where(total_m == best, total_i, _BIG)
        return best[:, 0], np.min(cand, axis=1), n_c * count


# ---------------------------------------------------------------------------
# Monte Carlo driver

@dataclass(frozen=True)
class SimConfig:
    n_rx: int
    snr_db: tuple
    trials: int
    seed: int
    decoder: str = "both"  # oracle | structured | both
    workers: int = 1

    def __post_init__(self):
        if self.decoder not in ("oracle", "structured", "both"):
            raise ValueError("decoder must be oracle, structured or both")
        for name in ("n_rx", "trials", "workers"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be at least 1, got %d"
                                 % (name, getattr(self, name)))
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


def _run_trial(stbc, cfg, sigma, snr_idx, trial):
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, snr_idx, trial]))
    sent = int(rng.integers(stbc.count))
    Y, H = channel_step(stbc.codeword(sent), rng, cfg.n_rx, sigma)
    got_o = got_s = None
    eo = es = 0
    if cfg.decoder in ("oracle", "both"):
        got_o, eo = ml_oracle(Y, H, stbc)
    if cfg.decoder in ("structured", "both"):
        got_s, es = ml_structured(Y, H, stbc)
    got = got_o if got_o is not None else got_s
    agree = 1 if (cfg.decoder != "both" or got_o == got_s) else 0
    if cfg.decoder == "both" and not agree:
        raise AssertionError("decoder disagreement at snr %d trial %d"
                             % (snr_idx, trial))
    return (0 if got == sent else 1), agree, eo, es


def simulate(cfg, stbc):
    """Seeded CER run; identical output for any worker count."""
    N = stbc.N
    es_avg = stbc.average_energy
    errors, agrees = [], []
    eo_last = es_last = 0
    for snr_idx, snr in enumerate(cfg.snr_db):
        sigma = np.sqrt(es_avg / (N * 10 ** (snr / 10.0)))
        results = [None] * cfg.trials
        if cfg.workers > 1:
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(max_workers=cfg.workers) as ex:
                futs = {ex.submit(_run_trial, stbc, cfg, sigma, snr_idx, t): t
                        for t in range(cfg.trials)}
                for f, t in futs.items():
                    results[t] = f.result()
        else:
            for t in range(cfg.trials):
                results[t] = _run_trial(stbc, cfg, sigma, snr_idx, t)
        errors.append(sum(r[0] for r in results))
        agrees.append(sum(r[1] for r in results))
        if results:
            eo_last, es_last = results[0][2], results[0][3]
    return SimResult(config=cfg, n_tx=N, codebook=stbc.count,
                     energy=es_avg, errors=tuple(errors),
                     agreements=tuple(agrees),
                     oracle_evals=float(eo_last),
                     structured_evals=float(es_last))
