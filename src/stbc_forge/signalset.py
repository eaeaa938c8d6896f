"""Signal sets: the constellations feeding the real symbols of a design.

A SignalSet is an ordered list of units, each unit owning one or more
real-symbol indices:

  PairQAM     two reals (I, Q) drawn jointly from a rotated square QAM,
              x_I + i x_Q = e^{i theta} (a + i b) with a, b PAM
  RealPoints  one real drawn from an explicit ascending point list
  BlockValues several reals drawn jointly from an explicit value table
              (used e.g. for unitarily precoded symbol pairs)

QAM constellations are zero mean with unit minimum distance; PAM is the
projection of such a QAM onto one axis.  This module owns the codebook
order: the mixed-radix product over units in unit order, first unit
slowest; within a PairQAM the PAM index of a is the outer digit.  This
fixed order is what makes lowest-index tie-breaking well defined.
SignalSet.weights, SignalSet.table and product_sums are its one
enumerator, behind the symbol table, the decoder's tables and the
difference classes of certification.  Simulation reads no table of the
whole codebook: SignalSet.symbols gathers a codeword's reals from its
mixed-radix digits, and SignalSet.mean_quadratic takes codebook means
from per-unit moments, the units being independent.  symbol_table() is
a reference for both.

A unit has indices, size, values() and axes(): (direction on its
indices, points, digit factor) per independent real, outer first, so
value row sum_k f_k i_k is sum_k points_k[i_k] direction_k.  A PairQAM
has e = (c, s) with factor sqrt(M), then d = (-s, c); a BlockValues none.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .design import qam_side


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


@dataclass(frozen=True)
class PairQAM:
    indices: tuple  # (i_I, i_Q)
    M: int
    theta: float = 0.0

    def __post_init__(self):
        if len(self.indices) != 2:
            raise ValueError("PairQAM owns exactly two real indices")
        qam_side(self.M)
        _check_finite((self.theta,), "QAM pair %r: rotation angle"
                      % (tuple(self.indices),))

    @property
    def size(self):
        return self.M

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
        if not self.points:
            raise ValueError("empty point list")
        _check_finite(self.points, "real %d: point" % self.index)
        if any(b <= a for a, b in zip(self.points, self.points[1:])):
            raise ValueError("points must be strictly increasing")

    @property
    def indices(self):
        return (self.index,)

    @property
    def size(self):
        return len(self.points)

    def axes(self):
        return (((1.0,), self.points, 1),)

    def values(self):
        return np.asarray(self.points).reshape(-1, 1)


@dataclass(frozen=True)
class BlockValues:
    indices: tuple
    table: tuple  # tuple of value tuples, each len(indices) long

    def __post_init__(self):
        if not self.table:
            raise ValueError("empty value table")
        if any(len(row) != len(self.indices) for row in self.table):
            raise ValueError("table rows must match index count")
        _check_finite([v for row in self.table for v in row],
                      "value block %r: value" % (tuple(self.indices),))

    @property
    def size(self):
        return len(self.table)

    def axes(self):  # the table is not a sum of independent reals
        return ()

    def values(self):
        return np.asarray(self.table, dtype=float)


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
        the unit weight.  No parts give the one zero row at index 0."""
        rows, digits = self._parts(parts)
        return (next(product_sums(rows, math.inf)),
                next(product_sums(digits, math.inf)))

    def symbol_table(self):
        """(count, K) array of all real-symbol vectors in enumeration order:
        a reference, since symbols and mean_quadratic need no table."""
        return next(product_sums(self._parts(self.units)[0], math.inf))

    @cached_property
    def _digits(self):
        """(weights (U,), sizes (U,), unit (K,), offset (K,), flat): real
        i of codeword n is flat[offset[i] + digit of unit[i] in n], flat
        holding each real's column of its unit's values."""
        unit, offset, columns, start = [0] * self.K, [0] * self.K, [], 0
        for p, u in enumerate(self.units):
            for i, column in zip(u.indices, u.values().T):
                unit[i], offset[i] = p, start
                columns.append(column)
                start += len(column)
        flat = np.concatenate(columns)
        if len(self.units) > 1:  # the table's sums add +0.0: -0.0 -> +0.0
            flat += 0.0
        return (np.array(list(self.weights.values()), dtype=np.int64),
                np.array([u.size for u in self.units], dtype=np.int64),
                np.array(unit, dtype=np.intp), np.array(offset, dtype=np.intp),
                flat)

    def symbols(self, index):
        """(n, K) real-symbol vectors of the codeword indexes (n,), each
        real gathered from its own unit's values at the unit's digit of
        the index: symbol_table()[index] bit for bit, without the table."""
        weights, sizes, unit, offset, flat = self._digits
        digits = np.asarray(index, dtype=np.int64)[:, None] // weights % sizes
        return flat[digits[:, unit] + offset]

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
    units = []
    for k, p in enumerate(pairs):
        th = 0.0 if thetas is None else float(thetas[k])
        units.append(PairQAM(indices=tuple(p), M=M, theta=th))
    return SignalSet(units=tuple(units))


def pam_signal_set(K, Q):
    """Independent Q-ary PAM on every real symbol."""
    return SignalSet(units=tuple(RealPoints(i, pam_points(Q)) for i in range(K)))
