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
follows the instance's DecodePlan.  Building the STBCInstance checks the
plan against the design and the signal set (raising PlanError) and
records each plan node's conditioning parts and their value count; it
builds no table, so build-fd and verify build none.  The first
structured decode compiles the plan once (STBCInstance.compiled): it
builds every node's static tables from the SignalSet, which owns the
codebook order: its conditioning values (SignalSet.table, refused past
TABLE_WORDS, so simulate on build-fd --m 2 --rate 3 --M 16 exits 1),
digit weights (SignalSet.weights) and unit axes (unit.axes(), the only
view of a unit's geometry); it fuses sibling nodes and stacks their
Gram-facing rows into Q.

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
values scaled by -2 (an exact scaling) followed by its rows of each
child.  The decoder forms rows @ b once, at the root, and no node ever
sees the K columns of b again.  The Gram side is shared the same way:
the root stacks every node's Gram-facing rows (each fold's values v,
each hard-limit leaf's direction d) into one table Q, and per batch the
decoder forms Q.G and each row's form x.G.x once, which every node
reads as views.  A Cond folds hypothesis v into a child's projections
as P_child - rows_child.G.v, one (rows, hypotheses) product per leaf
and trial of the child rows against its rows of Q.G, broadcast over the
parent's hypotheses, so each node's arrays are as wide as its own rows,
and its own metrics -2 v.b + v.G.v are one add of its projections and
its forms.  The node kernels cost a few numpy calls per plan level,
each on one large array:

  - Candidates ahead of hypotheses.  A Cond lays out its values (joint
    values, outer PAM values, conditioning hypotheses) on an axis before
    the hypotheses and picks with min over that axis, then the lowest
    codeword index among the exact ties, so its pick does not depend on
    the candidates' order.  The pick takes no mask: a tied candidate's
    index less _BIG sorts below every untied one.
  - Sibling groups.  At compile time sibling nodes of one signature
    fuse into one node with a leaf axis: Conds whose conditioning
    tables have one value count and whose children's signatures agree
    in order, their j-th children fusing in turn, and hard-limit leaves
    whose points agree.  A leaf keeps its own rows and index digits, a
    fused Cond folds a leaf's values into that leaf's child rows only,
    and every node returns per-leaf metrics, which the parent sums.
  - No quotient in a metric.  A hard-limit leaf never divides: it
    counts the inner points below its vertex by comparison, forms the
    metrics of the two points around the vertex and keeps the smaller
    (np.minimum), ties to the lower point, on an axis of any size.  An
    axis of two points -s < s, s a power of two (every axis at M = 4),
    takes five passes that keep those bits and ties, but for the sign
    of an exact zero metric at the upper point.  A metric is formed
    from products and sums of the point, the projections and the Gram,
    so integer channels give exact metrics and exact ties, as in the
    oracle.
  - Batch-invariant bits.  b and G are one real product each per trial,
    C-contiguous as products are; projections, Q.G and the forms' sums
    are (rows, K) @ (K, n) products per trial on them, and folds such
    products per trial and leaf, whose BLAS shapes do not depend on T;
    everything else is elementwise.  A metric's bits are the same
    whether its trial is decoded alone or in a batch.
  - Few live temporaries.  Nodes form metrics and indexes in place, a
    Cond adds its own metrics into its first child's, and each node's
    `width` bounds the float64 elements one trial of its subtree holds
    at once next to the Gram terms, numpy's broadcast and cast buffers
    included; _decode_words adds the Gram terms, n_q (K + 1) words per
    trial for n_q rows of Q.

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
rows whose columns and f_B's product fit _CHUNK_BYTES per trial, each
against all n_A head rows.  Trials go in blocks whose half tables, with
the products that form them, fit it too, so the head rows and each
block of tail columns are built once per trial block; the grid is then
formed in sub-blocks of the block's trials whose metrics fit the budget
next to their own tables, one sub-block at a time (family R=2: trial
blocks of 14, the grid one trial at a time).  The head is never split:
a grid block holds at most n_A n_B <= ORACLE_CAP metrics per trial, and
8 ORACLE_CAP bytes fit _CHUNK_BYTES.
Each block's argmin takes the first of its minima, which is its lowest
index, and a block wins over the best so far with a strictly smaller
metric, or with an equal metric at a lower index, so ties go to the
lowest codeword index in any block order.  Every product has a
per-trial shape that does not depend on T, so the oracle's metric bits
do not depend on the batch either.

simulate walks one stream of (snr index, trial) keys, SNR by SNR, and
decodes it in chunks whose metric terms and structured-decoder words
(Gram terms, root projections and widths) stay within _CHUNK_BYTES; the
oracle scans its grid in blocks of that budget on its own.  A chunk may
span SNRs: it is drawn in one call over per-key SNR indexes, noise
deviations and trial indexes, errors are counted per SNR, and a decoder
disagreement names the trial's own SNR and index.  Results are therefore
independent of the chunk size.  Key (k, t) draws from its own PCG64 generator, bit-identical
to default_rng(SeedSequence([seed, k, t])) drawing integers(count) and
then four blocks of standard normals.  Two published rules make the
keying array work.  numpy's SeedSequence is O'Neill's seed_seq_fe hash
(PCG, 2014), pure uint32 arithmetic whose constants do not depend on
the data, so once per chunk the entropy mixing of every key's words
into its pool (_pools) and the pools' output hash (_pcg64_words) run as
a few dozen uint32 array operations.  Generator.integers is Lemire's
bounded-integer method (ACM TOMACS, 2019) on the generator's raw words,
so _bounded takes the sent index from them.  Per key there remain
three calls into numpy: PCG64 from its precomputed words, its raw word
(more only on a rare redraw) and one standard_normal call for all of
the trial's normals.  The codewords and the channel outputs Y = XH + W
of the whole chunk then take a fixed number of numpy calls.  A
codeword's reals are the sum of per-level rows at the digits of its
index (SignalSet.symbols), and its matrix is one (1, K) @ (K, N^2)
product per key, whose shape does not depend on the chunk, so a key
draws the same bits alone or in a chunk of any size, dense weight
matrices included.  The noise deviation comes from the average codeword
energy, which the signal set's per-unit moments give exactly
(SignalSet.mean_quadratic).  A level holds at most
signalset._LEVEL_ROWS rows or one unit's values, so no run builds the
symbol table of a larger codebook, which STBCInstance.symbol_table
keeps as a reference only.
SimConfig.workers is accepted and validated for compatibility only: it
does not change how a run executes.  An SNR must give a finite positive
noise deviation, at unit energy in SimConfig and at the instance's
energy before simulate draws any trial.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .pauli import hr_orthogonal_table
from .design import Cond, JOINT, HARD_LAST, check_plan, plan_indices

_BIG = np.iinfo(np.int64).max

ORACLE_CAP = 10 ** 5    # largest codebook the exhaustive decoder scans
_CHUNK_BYTES = 1 << 20  # working-set budget of one decode batch (1 MiB)
MAX_TRIALS = 2 ** 32    # trial indexes fill one uint32 word of the RNG key
_SQRT2 = math.sqrt(2)   # the CSCG scale, the same double as np.sqrt(2)


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
        # the plan is checked here, so every PlanError is raised on
        # construction; its tables, fusing and Q wait for the first
        # structured decode
        self._plan_spec = None
        if self.plan is not None:
            check_plan(self.plan, self.linear.K)
            plan = (self.plan if isinstance(self.plan, Cond)
                    else Cond((), (self.plan,)))
            self._plan_spec = _spec(plan, self.signals, self.matrices,
                                    self.hr_orthogonal)

    @cached_property
    def compiled(self):
        """The decode plan's root node (_compile), None without a plan;
        built on first use, so a run that decodes nothing structured
        never builds it."""
        return (None if self._plan_spec is None
                else _compile(self._plan_spec, self.signals))

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
    def gram_keep(self):
        """(K, K) float table, 0 on the HR-orthogonal pairs and 1 elsewhere:
        _metric_terms multiplies G by it."""
        return np.where(self.hr_orthogonal, 0.0, 1.0)

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

def _compile(spec, signals):
    """The decode tables of a checked plan, given as the _Spec of its root:
    each node's SignalSet.table is built here, on first use.

    The helpers are module functions, not closures over the instance, so
    compiling leaves no reference cycle that would keep a dropped
    instance and its cached tables alive until the cyclic collector runs.
    The root keeps Q, the Gram-facing rows of every node stacked (each
    fold's values, each hard-limit leaf's direction), and each node the
    slice `q` of its own rows.
    """
    root = _fuse([spec], 1, signals)
    Q, stop = [np.zeros((0, signals.K))], 0
    for node in _walk(root):
        if node.grams is not None:
            node.q = slice(stop, stop + len(node.grams))
            stop = node.q.stop
            Q.append(node.grams)
    root.Q = np.concatenate(Q)
    return root


def _walk(node):
    """A compiled node and its subtree, parents first."""
    yield node
    for child in getattr(node, "children", ()):
        yield from _walk(child)


class _Spec(NamedTuple):
    """A Cond to compile: its conditioning parts (units, or (unit, axis)
    for one axis of a unit), their joint value count (the rows of their
    SignalSet.table, which _compile builds), and its children, each a
    _Spec or a hard-limit leaf (unit, axis, charge)."""
    parts: tuple
    count: int
    children: tuple


def _cond_spec(parts, children):
    """The _Spec of conditioning parts over children, its table unbuilt."""
    return _Spec(parts, math.prod(len(p[1][1]) if isinstance(p, tuple)
                                  else p.size for p in parts), children)


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
            children.append(_cond_spec(units, ()))
        elif child.kind == HARD_LAST:
            *prefix, u = units
            *outer, inner = u.axes()
            parts = tuple(prefix) + tuple((u, axis) for axis in outer)
            leaf = (u, inner, 1)
            children.append(_cond_spec(parts, (leaf,)) if parts else leaf)
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
    return _cond_spec(cond, tuple(children))


def _signature(spec):
    """What sibling specs share to fuse into one node: a Cond's
    conditioning value count and its children's signatures in order, a
    hard-limit leaf's points."""
    if isinstance(spec, _Spec):
        return (_Cond, spec.count) + tuple(map(_signature, spec.children))
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
    n_c = specs[0].count
    children = tuple(_fuse([s.children[j] for s in specs for j in js],
                           hyps * n_c, signals) for js in groups.values())
    return _Cond(specs, children, hyps, signals)


def _axis_rows(leaves, K):
    """Axis rows (L, K) of hard-limit leaves (unit, axis, charge)."""
    d = np.zeros((len(leaves), K))
    for k, (u, axis, _charge) in enumerate(leaves):
        d[k, list(u.indices)] = axis[0]
    return d


def _block(rows, cols):
    """Index of the (T, rows, cols) sub-block of a stack of Grams."""
    return (slice(None), rows[:, None], cols[None, :])


def _gram_terms(Q, G):
    """Q.G (T, n, K) and x.G.x (T, n) for every row x of Q (n, K), G
    (T, K, K): one product per trial, and the forms summed by one more."""
    QG = Q @ G
    return QG, (QG * Q) @ np.ones(Q.shape[-1])


def _pick(m, idx):
    """Minimum of m over the candidate axis 2 and the lowest index among
    its exact ties, whatever order the candidates come in: a tie's index
    less _BIG stays below every other index, and is the least of them."""
    best = m.min(axis=2, keepdims=True)
    key = (m == best) * _BIG
    np.subtract(idx, key, out=key)
    i = key.min(axis=2)
    i += _BIG
    return best.squeeze(2), i


def _leaf_sum(m, idx):
    """Totals over the leaf axis -2, added leaf by leaf in a fixed order;
    views of the one leaf when there is one."""
    if m.shape[-2] == 1:
        return m[..., 0, :], idx[..., 0, :]
    total = m[..., 0, :] + m[..., 1, :]
    for k in range(2, m.shape[-2]):
        total += m[..., k, :]
    return total, idx.sum(axis=-2)


# Each node is built from its specs and the SignalSet, and holds L
# sibling leaves of one signature.  It keeps `rows`, the linear-term rows
# (r, K) its kernel reads, leaf by leaf, and `grams`, its Gram-facing
# rows (or None), whose slice `q` of the root's stacked table Q _compile
# sets.  It decodes P: (T, r, n_hyp), those rows applied to the folded
# linear terms of every hypothesis, against the batch's Gram terms
# (_gram_terms of Q: QG (T, n_q, K) and forms (T, n_q)), returning
# per-leaf (metrics (T, L, n_hyp), codeword indexes (T, L, n_hyp)), which
# the caller owns and may change in place; the parent Cond sums them.
# `count` is the node's metric evaluations per hypothesis and `width`
# bounds the float64 elements one trial of the node and its subtree
# holds at once, its results included, next to the Gram terms.

class _HardLimit:
    """For each leaf, hard-limit one axis of a unit exactly.

    A leaf is (unit, axis, charge): the axis's point p lies along its
    direction d, every other real held by the Conds above, which fold
    their values into b.  With u = b.d and g = d.G.d (its Gram form) the
    metric is

        -2 p u + p^2 g = p (p g - 2u).

    It is a convex quadratic in p, smallest at one of the two points
    around its vertex u / g: points j and j + 1, j the number of inner
    points p with 2u > 2p g, a comparison and no quotient.  Both
    metrics are formed and the smaller kept, ties going to the lower
    point as the oracle's lowest index does; a comparison that rounds the
    wrong way puts the vertex next to a point both brackets hold.  No
    quotient enters a metric, so integer channels give exact metrics and
    exact ties.

    An axis of two points -s < s, s a power of two (every axis at
    M = 4), takes five passes instead.  With p0 = -s, a = p0 g,
    lo = a - 2u and hi = a + 2u, the two metrics are p0 lo and p0 hi,
    products by a power of two that keep the order of lo and hi: the
    upper point wins where hi > lo, and the metric is p0 max(lo, hi):
    the two-metric form's bits and ties, but for an exact zero metric at
    the upper point, p0 times +0 = -0 where that form gives +0, and for
    subnormal lo and hi, whose products may round to a tie.

    A leaf's one row is 2d and its Gram row d, its index digit p's index
    times the axis digit factor times the unit weight, and its charge
    one evaluation, or none for a hard_all leaf's axes after the first,
    whose metrics the parent sums.
    """

    def __init__(self, leaves, signals, hyps):
        units, axes, charges = zip(*leaves)
        # the leaves share the axis points
        self.points = np.asarray(axes[0][1])
        self.grams = _axis_rows(leaves, signals.K)  # d
        self.rows = 2.0 * self.grams
        self.digit = np.array([signals.weights[u] * axis[2]
                               for u, axis in zip(units, axes)],
                              dtype=np.int64)[:, None]
        self.leaves = L = len(leaves)
        self.count = sum(charges)
        lo, hi = self.points[0], self.points[-1]
        self.pam2 = (len(self.points) == 2 and lo == -hi
                     and math.frexp(hi)[0] == 0.5)
        # the metrics of both points, their flags, the indexes and their
        # cast buffer, and p g, a word per leaf; on wider axes the bracket
        # count, a gathered point and a product too
        res = hyps * L
        self.width = (4 + 2 * (len(self.points) > 2)) * res + res // 8 + L

    def decode(self, P, QG, forms):
        g = forms[:, self.q, None]                                 # (T, L, 1)
        if self.pam2:
            p0 = self.points[0]
            a = p0 * g
            lo = a - P
            hi = a + P
            up = hi > lo  # ties to the lower point
            m = np.maximum(lo, hi, out=lo)
            del hi
            m *= p0
            return m, up * self.digit
        j = np.intp(0)  # the inner points below the vertex
        for p in self.points[1:-1]:
            j += P > 2.0 * p * g
        p = self.points[j]
        m = p * g - P
        m *= p
        p = self.points[j + 1]
        m_hi = p * g - P
        m_hi *= p
        up = m_hi < m  # ties to the lower point
        np.minimum(m, m_hi, out=m)
        del m_hi, p
        i = j + up
        i *= self.digit
        return m, i


class _Cond:
    """For each leaf, enumerate its conditioning values and decode its
    children for each hypothesis: a plan Cond, a bare leaf (no
    conditioning), a hard_last leaf's prefix and outer axes, or with no
    children a joint leaf.  A leaf's rows are its conditioning values Vc
    scaled by -2, then its rows of each child; its Gram rows are Vc.
    Hypothesis v of leaf l folds into the linear terms b of leaf l's
    children as b - G v, that is into their projections as
    P_child - rows_child.G.v, broadcast over the parent's hypotheses, one
    product per leaf of its child rows and its rows of QG.  Hypothesis c
    of parent row h becomes row c * H + h, so a leaf's values are the
    leading candidate axis of its totals: its first child's metrics plus
    -2 v.b + v.G.v, one add of its projections and its forms, plus its
    other children's."""

    def __init__(self, specs, children, hyps, signals):
        Vc, cidx = zip(*(signals.table(s.parts) for s in specs))
        L, n_c, K = np.shape(Vc)
        self.leaves = L
        self.grams = self.Vc = (np.concatenate(Vc) if specs[0].parts
                                else None)  # no fold
        self.cidx = np.stack(cidx)[..., None]              # (L, n_c, 1)
        self.children = children
        parts = [c.rows.reshape(L, -1, K) for c in children]
        ends = np.cumsum([p.shape[1] for p in parts])
        self.slices = [slice(e - p.shape[1], e) for e, p in zip(ends, parts)]
        rows = self.leaf_rows = np.concatenate([np.zeros((L, 0, K)), *parts], 1)
        values = [] if self.Vc is None else [-2.0 * np.stack(Vc)]
        self.rows = np.concatenate(values + [rows], 1).reshape(-1, K)
        self.count = n_c * (sum(c.count for c in children) or L)
        # float64 words one trial holds at once, a buffer per broadcast
        # or cast operand counted at its result's size: the fold (the
        # folded projections next to F, a block per leaf, and their
        # buffer) and the pick (the metrics, the indexes, the ties, their
        # keys and their cast buffer); then, while each child decodes,
        # the folded projections, a copy of the child's block, and its
        # subtree or its results with their leaf sums, next to this
        # node's running totals or, after its first child, its own
        # metrics with their two buffers
        res = hyps * n_c * L  # the metrics, or the indexes, of all leaves
        r_c = rows[..., 0].size
        fold = hyps * n_c * r_c if self.Vc is not None else 0
        live = [] if self.Vc is None else [
            2 * fold + n_c * r_c * (fold > 0), 33 * res // 8 + 2 * hyps * L]
        for j, c in enumerate(children):
            k, copy = c.leaves // L, L > 1 and len(children) > 1
            own = 3 * res * (j == 0 and self.Vc is not None)
            live.append(fold + copy * hyps * n_c * len(c.rows) + max(
                c.width + 2 * res * (j > 0),
                2 * res * (k + (k > 1) + (j > 0)) + own))
        self.width = max(live)

    def decode(self, P, QG, forms):
        T, _r, H = P.shape
        L, n_c = self.cidx.shape[:2]
        Pc = P = P.reshape(T, L, -1, H)
        if self.Vc is not None:
            if self.children:  # each leaf's rows against its own values
                VG = QG[:, self.q].reshape(T, L, n_c, -1)
                F = self.leaf_rows @ VG.swapaxes(2, 3)
                Pc = (P[:, :, n_c:, None] - F[..., None]).reshape(
                    T, L, -1, n_c * H)
                del F
            vGv = forms[:, self.q].reshape(T, L, n_c, 1)
        m = i = None
        for child, rows in zip(self.children, self.slices):
            cm, ci = child.decode(Pc[:, :, rows].reshape(T, -1, n_c * H),
                                  QG, forms)
            # the child's leaves under each of this node's leaves
            cm, ci = _leaf_sum(cm.reshape(T, L, -1, n_c * H),
                               ci.reshape(T, L, -1, n_c * H))
            cm, ci = cm.reshape(T, L, n_c, H), ci.reshape(T, L, n_c, H)
            if m is None:
                m, i = cm, ci
                if self.Vc is not None:  # its own, after its first child
                    m += P[:, :, :n_c] + vGv
                    i += self.cidx
            else:
                m += cm
                i += ci
        del Pc
        if self.Vc is None:
            return m[:, :, 0], i[:, :, 0]
        if m is None:  # a joint leaf: its values are the candidates
            m, i = P[:, :, :n_c] + vGv, self.cidx
        return _pick(m, i)


# ---------------------------------------------------------------------------
# metric terms and decoders

def _metric_terms(stbc, Y, H):
    """b = R.y (T, K) and G = R.R^T (T, K, K), R and y the real views of
    A_i H and Y: (T, N, n_rx); G is exactly 0 on HR-orthogonal pairs,
    multiplied by the instance's 0/1 table (a negative entry becomes -0,
    which every sum and comparison reads as 0)."""
    K, N = len(stbc.matrices), stbc.N
    AH = stbc.matrices.reshape(K * N, N) @ H  # (T, K N, n_rx)
    R = AH.view(np.float64).reshape(len(H), K, -1)
    G = R @ R.swapaxes(1, 2)
    np.multiply(G, stbc.gram_keep, out=G)
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
    (T, n) for b (T, K), G (T, K, K), summed as _gram_terms sums."""
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
    fit _CHUNK_BYTES per trial, each against all head rows.  Trials go
    in blocks whose head rows and tail columns, with the products that
    form them, fit the same budget, so each table is built once per
    trial block; the grid is formed in sub-blocks of those trials whose
    metrics fit it next to their tables, one sub-block at a time, since
    a codebook within ORACLE_CAP keeps one trial's grid block within the
    budget.
    """
    (cA, XA), (cB, XB) = stbc.grid
    T, K = b.shape
    n_A, (n_B, k_B) = len(XA), XB.shape
    cols = min(n_B, max(1, _CHUNK_BYTES // (8 * (2 * k_B + 2))))
    tables = (n_A + cols) * (K + 2)
    per = max(1, _CHUNK_BYTES // (8 * tables))
    sub = max(1, _CHUNK_BYTES // (8 * (n_A * cols + tables)))
    best_i, best_m = np.empty(T, dtype=np.int64), np.empty(T)
    for t0 in range(0, T, per):
        bt, Gt = b[t0:t0 + per], G[t0:t0 + per]
        L = np.empty((len(bt), n_A, k_B + 2))
        L[..., :k_B] = 2.0 * (XA @ Gt[_block(cA, cB)])
        L[..., k_B] = 1.0
        L[..., k_B + 1] = _half_metric(XA, cA, bt, Gt)
        for b0 in range(0, n_B, cols):
            XBb = XB[b0:b0 + cols]
            R = np.empty((len(bt), k_B + 2, len(XBb)))
            R[:, :k_B] = XBb.T
            R[:, k_B] = _half_metric(XBb, cB, bt, Gt)
            R[:, k_B + 1] = 1.0
            for s0 in range(0, len(bt), sub):
                m = L[s0:s0 + sub] @ R[s0:s0 + sub]
                m = m.reshape(len(m), -1)
                arg = np.argmin(m, axis=1)
                m, i = m[np.arange(len(m)), arg], arg + b0
                if len(XBb) < n_B:  # grid row arg // len(XBb) of the block
                    i += arg // len(XBb) * (n_B - len(XBb))
                s = slice(t0 + s0, t0 + s0 + len(m))
                if b0 == 0:
                    best_i[s], best_m[s] = i, m
                else:  # a strictly smaller metric, or a tie at a lower index
                    bi, bm = best_i[s], best_m[s]
                    upd = (m < bm) | ((m == bm) & (i < bi))
                    np.copyto(bi, i, where=upd)
                    np.copyto(bm, m, where=upd)
    return best_i, best_m


def _structured(stbc, b, G):
    """Plan decode of b: (T, K), G: (T, K, K); (indexes, metrics).  The
    Gram terms of every node are formed once, for the whole batch."""
    root = stbc.compiled
    QG, forms = _gram_terms(root.Q, G)
    m, idx = root.decode(root.rows @ b[..., None], QG, forms)
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
    the real view of A_i H and, for the structured decoder, its own
    (_decode_words); the oracle scans its grid in blocks within
    _CHUNK_BYTES on its own."""
    K = stbc.linear.K
    words = K * (K + 1) + 2 * K * stbc.N * cfg.n_rx
    if cfg.decoder != "oracle":
        words += _decode_words(stbc.compiled)
    return words


def _decode_words(root):
    """Float64 words one trial of _structured holds at most: the Gram
    terms QG and forms, next to the forms' product and its broadcast
    buffer, then next to the root's projections and the compiled nodes'
    widths."""
    n_q, K = root.Q.shape
    return n_q * (K + 1) + max(2 * n_q * K, len(root.rows) + root.width)


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


def _hash_constants(init, mult, n_words):
    """The per-word constants of SeedSequence's hashmix from (init, mult):
    word i is xored with init * mult^i and multiplied by
    init * mult^(i + 1), as (n_words,) uint32 arrays."""
    consts = [init]
    for _ in range(n_words):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return (np.array(consts[:-1], dtype=np.uint32),
            np.array(consts[1:], dtype=np.uint32))


# generate_state's output hash (INIT_B, MULT_B): PCG64 reads 4 uint64 words
_HASH_XOR, _HASH_MULT = _hash_constants(0x8b51f9dd, 0x58f38ded, 8)
_MIX_L = np.array(0xca01f9dd, dtype=np.uint32)  # MIX_MULT_L
_MIX_R = np.array(0x4973f715, dtype=np.uint32)  # MIX_MULT_R
# the pool words each pool word is mixed into, in numpy's order
_OTHERS = [[dst for dst in range(4) if dst != src] for src in range(4)]


@lru_cache(maxsize=None)
def _mix_constants(n_words):
    """The entropy mixing's hash constants (INIT_A, MULT_A) for keys of
    n_words words, as (n, 1) columns: 4 to fill the pool, 12 for the
    cross-mixes and 4 for each word past the fourth."""
    n = 16 + 4 * max(n_words - 4, 0)
    return tuple(c[:, None] for c in _hash_constants(0x43b0d7e5, 0x931e8875,
                                                      n))


def _hashmix(words, xor, mult):
    """SeedSequence's hashmix of words under each (xor, mult) constant,
    broadcast: wrapping uint32 array arithmetic."""
    h = words ^ xor
    h *= mult
    h ^= h >> 16
    return h


def _mix(x, y):
    """SeedSequence's mix(x, y) = xorshift16(MIX_MULT_L x - MIX_MULT_R y)."""
    x = x * _MIX_L
    x -= y * _MIX_R
    x ^= x >> 16
    return x


def _pools(keys):
    """SeedSequence(key).pool for every row of keys (T, n) uint32, n >= 1,
    as (T, 4) uint32, all rows at once.

    numpy's entropy mixing, step by step as numpy runs it per key, with
    every step on a (steps, T) lane-major array: the first 4 words (zeros
    past a short key) hashed into the pool, then each pool word hashed 3
    times and mixed into the other three, then each word past the fourth
    hashed 4 times and mixed into all four.  The hash constants do not
    depend on the data, so a source word's hashes are one array step."""
    n_words = keys.shape[1]
    xor, mult = _mix_constants(n_words)
    words = np.zeros((max(n_words, 4), len(keys)), dtype=np.uint32)
    words[:n_words] = keys.T
    pool = _hashmix(words[:4], xor[:4], mult[:4])
    k = 4
    for src, dst in enumerate(_OTHERS):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[k:k + 3],
                                             mult[k:k + 3]))
        k += 3
    for word in words[4:]:
        pool = _mix(pool, _hashmix(word, xor[k:k + 4], mult[k:k + 4]))
        k += 4
    return pool.T


def _pcg64_words(pools):
    """The 4 uint64 words SeedSequence.generate_state(4, np.uint64) gives
    for each row of pools (T, 4), for all rows at once: the pool cycled
    to 8 words, each hashed with its constants, then read as
    little-endian uint64 pairs in native order, as numpy does."""
    state = _hashmix(np.tile(pools, 2), _HASH_XOR, _HASH_MULT)
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


def _halves(raw, high):
    """PCG64's uint32 stream after a draw that left `high` buffered: high,
    then each next raw word's low half and high half."""
    yield high
    for word in iter(raw, None):
        yield word & 0xFFFFFFFF
        yield word >> 32


def _bounded(count, raw):
    """Generator.integers(count) of a fresh PCG64, raw() giving its next
    raw 64-bit word, drawing the same words: Lemire's method on a uint32
    (a raw word's low half, the high half buffered for a redraw) when
    count <= 2^32, which takes the low half as it is at count = 2^32, on
    a uint64 above, and no draw for count 1.  A draw whose low product
    word falls below 2^bits mod count is redrawn, with odds below
    count / 2^bits; numpy tests the low word against count first."""
    if count == 1:
        return 0
    bits = 32 if count <= 1 << 32 else 64
    low = (1 << bits) - 1
    word = raw()
    product = (word & low) * count
    if product & low < count:
        floor = (1 << bits) % count
        draws = _halves(raw, word >> 32) if bits == 32 else iter(raw, None)
        while product & low < floor:
            product = next(draws) * count
    return product >> bits


def _draw(stbc, cfg, sigma, snr_idx, trials):
    """Sent indexes and stacked Y, H of the given trials.

    sigma and snr_idx are scalars or per-key arrays broadcast against
    trials.  Key k draws from its own PCG64, seeded exactly as by
    SeedSequence([seed, snr_idx[k], trials[k]]), and draws what
    default_rng of that seed sequence would: the sent index as
    integers(count), then one block of standard normals for H and the
    noise.  Once per chunk, for all keys in a few dozen array
    operations: the entropy mixing of the keys' words into their pools
    (_pools), the pools' output hash (_pcg64_words), and after the loop
    the codewords and the channel outputs.  Per key: PCG64 from its
    words, the sent index from its raw words (_bounded, one word but on
    a rare redraw) and one standard_normal call.
    """
    seed = _words(cfg.seed)
    keys = np.empty((len(trials), len(seed) + 2), dtype=np.uint32)
    keys[:, :-2] = seed
    keys[:, -2] = snr_idx
    keys[:, -1] = trials
    words = _pcg64_words(_pools(keys))
    sent = np.empty(len(trials), dtype=np.int64)
    Z = np.empty((len(trials), 4, stbc.N, cfg.n_rx))
    count = stbc.count
    generator, pcg64 = np.random.Generator, np.random.PCG64
    for k, row in enumerate(words):
        bits = pcg64(_Seeded(row))
        sent[k] = _bounded(count, bits.random_raw)
        generator(bits).standard_normal(out=Z[k])
    K, N = len(stbc.matrices), stbc.N
    # one (1, K) @ (K, N^2) product per key: its bits do not depend on
    # the chunk, where a (T, K) product's may
    X = stbc.signals.symbols(sent)[:, None] @ stbc.matrices.reshape(K, N * N)
    # Y = XH + W: Z holds the real and imaginary parts of the unit-variance
    # CSCG channel H, then those of the noise W before scaling by sigma
    HW = Z[:, 0::2] + 1j * Z[:, 1::2]
    HW[:, 1] *= np.reshape(sigma, (-1, 1, 1))
    HW /= _SQRT2
    H, W = HW[:, 0], HW[:, 1]
    return sent, X.reshape(-1, N, N) @ H + W, H


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
