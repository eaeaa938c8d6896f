"""Signal sets: the constellations feeding the real symbols of a design.

A SignalSet is an ordered list of units, each unit owning one or more
real-symbol indices:

  PairQAM     two reals (I, Q) drawn jointly from a rotated square QAM,
              x_I + i x_Q = e^{i theta} (a + i b) with a, b PAM
  RealPoints  one real drawn from an explicit ascending point list

A linear precoder of the symbols belongs in the design's weight
matrices, not in the signal set (bundles.silver_stbc).

QAM constellations are zero mean with unit minimum distance; PAM is the
projection of such a QAM onto one axis.  This module owns the codebook
order: the mixed-radix product over units in unit order, first unit
slowest; within a PairQAM the PAM index of a is the outer digit.  This
fixed order is what makes lowest-index tie-breaking well defined.
SignalSet.weights, SignalSet.table and product_sums are its one
enumerator, behind the symbol table, the decoder's tables and the
difference classes of certification.  Simulation reads no table of the
whole codebook past _LEVEL_ROWS codewords: SignalSet.symbols splits a
codeword index into the digits of levels (runs of consecutive units
with at most _LEVEL_ROWS joint values, one table each) and sums the
levels' rows, and SignalSet.mean_quadratic takes codebook means from
per-unit moments, the units being independent.  symbol_table() is a
reference for both.

A unit has indices, size, values() and axes(): (direction on its
indices, points, digit factor) per independent real, outer first, so
value row sum_k f_k i_k is sum_k points_k[i_k] direction_k.  A PairQAM
has e = (c, s) with factor sqrt(M), then d = (-s, c); a RealPoints its
one axis, (1,) with factor 1.  Units hold tuples, so equal units hash
equal.  A unit's +- difference table, `differences`, is read-only and
cached on the unit.  A RealPoints builds its own.  A PairQAM's depends
only on M and the exact bits of theta, and pairs of one (M, theta)
recur (a search's unrotated pairs, its accepted angles, a build then a
verify), so the process keeps one QAM table per (M, theta), the last
_DIFFERENCE_TABLES of them, shared by every pair on any reals.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .design import qam_side

_LEVEL_ROWS = 1024  # most value rows of one level of SignalSet.symbols
# most 8-byte words of one SignalSet.table, its rows and indexes (8 GiB):
# the largest table any family member that builds asks for is m=2
# R=11/4's plan root at 16-QAM, 16^6 rows of 23 words (385,875,968 words,
# 2.9 GiB; at 4-QAM, R=4's 4^11 rows of 33 words); R=3 at 16-QAM
# would ask for 16^7 rows of 25 words, 6.7e9 words (50 GiB)
TABLE_WORDS = 2 ** 30
_DIFFERENCE_TABLES = 64  # most shared QAM +- tables, one per (M, theta)


def pam_points(Q):
    """Q-ary PAM: zero mean, unit spacing, ascending."""
    if Q < 1:
        raise ValueError("PAM size must be positive")
    return tuple(k - (Q - 1) / 2.0 for k in range(Q))


def _check_finite(values, what):
    """ValueError naming `what` and the first value that is not finite."""
    for v in values:
        if not math.isfinite(v):
            raise ValueError("%s %r is not finite" % (what, v))


def _difference_table(unit):
    """Distinct differences of the unit's value rows (keyed on the 1e-9
    grid, -0.0 as 0; a unit past the int64 keys is refused) and a mask
    picking one of each +- pair, both read-only.  Zero is picked as well
    when two rows coincide, so repeated codewords certify as det 0."""
    V = np.asarray(unit.values(), dtype=float)
    # in Python floats an overflow gives inf, not a warning
    span = max(float(c.max()) - float(c.min()) for c in V.T)
    if not span * 1e9 < 2.0 ** 63:  # the keys are int64
        raise ValueError("%r: difference %.3g is too large for the "
                         "1e-9 difference keys" % (unit, span))
    d = (V[:, None] - V[None, :]).reshape(-1, V.shape[1])
    keys = np.rint(d * 1e9).astype(np.int64)
    repeated = np.count_nonzero(~keys.any(axis=1)) > len(V)
    order = np.lexsort(keys.T[::-1])
    keys, d = keys[order], d[order]
    new = np.ones(len(keys), bool)
    new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    keys, d = keys[new], d[new]
    first = keys[np.arange(len(keys)), (keys != 0).argmax(axis=1)]
    pick = (first > 0) | (repeated & ~keys.any(axis=1))
    d.flags.writeable = pick.flags.writeable = False
    return d, pick


@lru_cache(maxsize=_DIFFERENCE_TABLES)
def _qam_differences(M, theta):
    """The table of the M-QAM pair rotated by float.fromhex(theta), keyed
    by the angle's exact bits: 0.0 and -0.0 are two keys."""
    return _difference_table(PairQAM((0, 1), M, float.fromhex(theta)))


@dataclass(frozen=True)
class PairQAM:
    indices: tuple  # (i_I, i_Q)
    M: int
    theta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(self.indices))
        if len(self.indices) != 2:
            raise ValueError("PairQAM owns exactly two real indices")
        qam_side(self.M)
        _check_finite((self.theta,), "QAM pair %r: rotation angle"
                      % (self.indices,))

    @property
    def size(self):
        return self.M

    @cached_property
    def differences(self):
        """The shared table of this pair's M and theta (_qam_differences)."""
        return _qam_differences(self.M, float(self.theta).hex())

    def axes(self):
        """The outer axis e = (c, s) carrying a, then the inner axis
        d = (-s, c) carrying b."""
        pam = pam_points(qam_side(self.M))
        c, s = np.cos(self.theta), np.sin(self.theta)
        return ((c, s), pam, len(pam)), ((-s, c), pam, 1)

    def values(self):
        """(M, 2) array of (x_I, x_Q) = a e + b d; a is the outer digit."""
        (e, pam, _), (d, _, _) = self.axes()
        return np.array([[a * e[0] + b * d[0], a * e[1] + b * d[1]]
                         for a in pam for b in pam])


@dataclass(frozen=True)
class RealPoints:
    index: int
    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if not self.points:
            raise ValueError("real %d: empty point list" % self.index)
        _check_finite(self.points, "real %d: point" % self.index)
        if any(b <= a for a, b in zip(self.points, self.points[1:])):
            raise ValueError("real %d: points %r are not strictly increasing"
                             % (self.index, self.points))

    @property
    def indices(self):
        return (self.index,)

    @property
    def size(self):
        return len(self.points)

    @cached_property
    def differences(self):
        """This unit's own table (_difference_table)."""
        return _difference_table(self)

    def axes(self):
        return (((1.0,), self.points, 1),)

    def values(self):
        return np.asarray(self.points).reshape(-1, 1)


@dataclass(frozen=True)
class SignalSet:
    units: tuple

    def __post_init__(self):
        idx = [i for u in self.units for i in u.indices]
        if sorted(idx) != list(range(len(idx))):
            raise ValueError("units must cover real indices 0..K-1 exactly once")

    @property
    def K(self):
        return sum(len(u.indices) for u in self.units)

    @property
    def count(self):
        return math.prod(u.size for u in self.units)

    @cached_property
    def weights(self):
        """Each unit's digit weight in the codeword index, the product of
        the later units' sizes, keyed by unit in unit order."""
        sizes = [u.size for u in self.units]
        return {u: math.prod(sizes[k + 1:]) for k, u in enumerate(self.units)}

    def table(self, parts):
        """(rows (n, K), indexes (n,)): every joint value of the given
        parts of this set, in the order they are given, first part
        slowest, each row placed among all K reals (zero elsewhere), and
        the sum of the codeword-index digits that row sets.  A part is a
        unit, or (unit, axis) for one of its axes: the axis points along
        its direction, point i setting digit i x the axis digit factor x
        the unit weight.  No parts give the one zero row at index 0.
        A table of more than TABLE_WORDS words is refused with a
        ValueError before it is built."""
        rows, digits = self._parts(parts)
        n = math.prod(map(len, rows))
        if n * (self.K + 1) > TABLE_WORDS:
            raise ValueError(
                "a table over reals %s has %d rows of %d words, past the "
                "budget of %d words" % (", ".join(
                    "%s axis" % (p[0].indices,) if isinstance(p, tuple)
                    else str(p.indices) for p in parts),
                    n, self.K + 1, TABLE_WORDS))
        return (next(product_sums(rows, math.inf)),
                next(product_sums(digits, math.inf)))

    def symbol_table(self):
        """(count, K) array of all real-symbol vectors in enumeration order:
        a reference, since symbols and mean_quadratic need no table."""
        return next(product_sums(self._parts(self.units)[0], math.inf))

    @cached_property
    def _levels(self):
        """(size, rows) per level of the codeword index, fastest first: a
        level is a run of consecutive units, grouped from the last while
        its value count stays within _LEVEL_ROWS (a larger unit is a
        level alone), and rows is the run's table (size, K)."""
        runs, run = [], []
        for u in reversed(self.units):
            if run and math.prod(v.size for v in run) * u.size > _LEVEL_ROWS:
                runs.append(run)
                run = []
            run.insert(0, u)
        runs.append(run)
        return [(math.prod(u.size for u in run), self.table(run)[0])
                for run in runs]

    def symbols(self, index):
        """(n, K) real-symbol vectors of the codeword indexes (n,): the sum
        of each level's rows at the level's digit of the index,
        symbol_table()[index] bit for bit without the table.  A real is
        nonzero in one level's rows at most, so the sum adds +0.0 to it,
        which turns -0.0 into +0.0 exactly where the table's sums do:
        whenever there are two units or more."""
        rest, picks = np.asarray(index, dtype=np.int64), []
        for size, rows in self._levels[:-1]:
            rest, digit = np.divmod(rest, size)
            picks.append(rows[digit])
        out = self._levels[-1][1][rest]
        for pick in picks:
            out += pick
        return out

    def mean_quadratic(self, gram):
        """E[x.gram.x] over the uniform codebook, sum_ij gram_ij E[x_i x_j]
        for a (K, K) gram.  The units are independent, so E[x_i x_j] is a
        moment of one unit's values inside a unit and E[x_i] E[x_j]
        across units; every sum is math.fsum, exactly rounded and so
        independent of the order of the terms."""
        mean, rows, cols, moments = np.zeros(self.K), [], [], []
        for u in self.units:
            V, n = u.values().tolist(), u.size
            for a, i in enumerate(u.indices):
                mean[i] = math.fsum(v[a] for v in V) / n
                for b, j in enumerate(u.indices):
                    rows.append(i)
                    cols.append(j)
                    moments.append(math.fsum(v[a] * v[b] for v in V) / n)
        S = np.multiply.outer(mean, mean)
        S[rows, cols] = moments
        return math.fsum((gram * S).ravel().tolist())

    def _parts(self, parts):
        """Each part's value rows among all K reals and index digits."""
        rows, digits = [], []
        for part in parts:
            if isinstance(part, tuple):  # one axis of a unit
                u, (direction, points, factor) = part
                values = np.multiply.outer(points, direction)
            else:
                u, values, factor = part, part.values(), 1
            R = np.zeros((len(values), self.K))
            R[:, list(u.indices)] = values
            rows.append(R)
            digits.append(np.arange(len(values), dtype=np.int64)
                          * (factor * self.weights[u]))
        return (rows or [np.zeros((1, self.K))],
                digits or [np.zeros(1, dtype=np.int64)])


def product_sums(tables, step):
    """Every sum tables[0][i0] + ... + tables[-1][ir], first table slowest,
    in blocks of at most max(step, len(tables[-1])) entries."""
    s = len(tables) - 1
    tail = tables[s]
    while s > 0 and len(tables[s - 1]) * len(tail) <= step:
        s -= 1
        tail = (tables[s][:, None] + tail[None]).reshape(-1, *tail.shape[1:])
    for head in itertools.product(*tables[:s]):
        yield sum(head, tail)


def qam_signal_set(pairs, M, thetas=None):
    """PairQAM unit per index pair, common M, optional per-pair angles."""
    thetas = [0.0] * len(pairs) if thetas is None else thetas
    return SignalSet(units=tuple(PairQAM(p, M, float(th))
                                 for p, th in zip(pairs, thetas, strict=True)))


def pam_signal_set(K, Q):
    """Independent Q-ary PAM on every real symbol."""
    return SignalSet(units=tuple(RealPoints(i, pam_points(Q)) for i in range(K)))
