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
difference classes of certification.

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


@dataclass(frozen=True)
class PairQAM:
    indices: tuple  # (i_I, i_Q)
    M: int
    theta: float = 0.0

    def __post_init__(self):
        if len(self.indices) != 2:
            raise ValueError("PairQAM owns exactly two real indices")
        qam_side(self.M)
        if not math.isfinite(self.theta):
            raise ValueError("QAM pair %r: rotation angle %r is not finite"
                             % (tuple(self.indices), self.theta))

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

    def table(self, units):
        """(rows (n, K), indexes (n,)): every joint value of the given
        units of this set, in the order they are given, first unit
        slowest, each row placed among all K reals (zero elsewhere), and
        the sum of the codeword-index digits that row sets.  No units
        give the one zero row at index 0."""
        digits = [np.arange(u.size, dtype=np.int64) * self.weights[u]
                  for u in units] or [np.zeros(1, dtype=np.int64)]
        return self._rows(units), next(product_sums(digits, math.inf))

    def symbol_table(self):
        """(count, K) array of all real-symbol vectors in enumeration order."""
        return self._rows(self.units)

    def _rows(self, units):
        """The rows of table(units)."""
        rows = ([np.zeros((u.size, self.K)) for u in units]
                or [np.zeros((1, self.K))])
        for R, u in zip(rows, units):
            R[:, list(u.indices)] = u.values()
        return next(product_sums(rows, math.inf))


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
