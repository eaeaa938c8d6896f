"""Designs over F2 + F4^m: partitions, rate, and decoding-complexity plans.

A Design is a set of distinct vectors whose realizations are the weight
matrices of a linear STBC.  Two symbols can be ML-decoded in separate
groups exactly when their vectors sum to odd weight, so the finest valid
decoding partition is the set of connected components of the graph with
an edge between vectors summing to even weight.

A DecodePlan is a tree: Cond nodes enumerate a conditioning set of
symbols and decode their children independently for each hypothesis
(fast decoding); Leaf nodes scan candidates directly.  Leaf kinds:

  joint      scan every joint value                        -> M^(k)
  hard_last  scan all reals but one, hard-limit the last   -> M^(k-0.5)
  hard_all   hard-limit every real, one metric evaluation  -> M^0

with k = (number of real symbols)/2.  A Cond over 2c reals multiplies
every child term by M^c.  The term list is exact; the dominant term is
what the complexity tables quote.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .f4 import F4Vec, weight
from .pauli import phi_inv


@dataclass(frozen=True)
class Design:
    m: int
    vectors: tuple
    partition: tuple = None  # tuple of tuples of 0-based indices, or None

    def __post_init__(self):
        if len(set(self.vectors)) != len(self.vectors):
            raise ValueError("design vectors must be distinct")
        if any(v.m != self.m for v in self.vectors):
            raise ValueError("all vectors must have m=%d" % self.m)
        if self.partition is not None:
            _check_cover(self.partition, len(self.vectors))

    @property
    def K(self):
        return len(self.vectors)


def _check_cover(partition, K):
    seen = []
    for grp in partition:
        if len(grp) == 0:
            raise ValueError("empty group in partition")
        seen.extend(grp)
    if sorted(seen) != list(range(K)):
        raise ValueError("partition must cover indices 0..%d exactly once" % (K - 1))


@dataclass(frozen=True)
class PartitionReport:
    groups: tuple
    valid: bool
    witness: tuple = None  # offending (i, j) when invalid

    @property
    def g(self):
        return len(self.groups)


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def finest_partition(d):
    """Connected components over even-sum pairs; always a valid partition."""
    K = d.K
    uf = _UnionFind(K)
    for i in range(K):
        for j in range(i + 1, K):
            if weight(d.vectors[i] + d.vectors[j]) % 2 == 0:
                uf.union(i, j)
    comps = {}
    for i in range(K):
        comps.setdefault(uf.find(i), []).append(i)
    groups = tuple(tuple(comps[r]) for r in sorted(comps))
    return PartitionReport(groups=groups, valid=True)


def validate_partition(d, partition):
    """Valid iff every cross-group pair sums to odd weight."""
    partition = tuple(tuple(g) for g in partition)
    _check_cover(partition, d.K)
    group_of = {}
    for gi, grp in enumerate(partition):
        for i in grp:
            group_of[i] = gi
    for i in range(d.K):
        for j in range(i + 1, d.K):
            if group_of[i] != group_of[j]:
                if weight(d.vectors[i] + d.vectors[j]) % 2 == 0:
                    return PartitionReport(partition, False, witness=(i, j))
    return PartitionReport(partition, True)


def rate(d):
    """K / (2N) complex symbols per channel use, N = 2^m antennas."""
    return Fraction(d.K, 2 * 2 ** d.m)


def conditional_partition(d, gamma):
    """finest_partition of the sub-design indexed by gamma (original indices)."""
    gamma = tuple(gamma)
    if not gamma or len(set(gamma)) != len(gamma):
        raise ValueError("gamma must be a nonempty set of indices")
    if not set(gamma) <= set(range(d.K)) or len(gamma) >= d.K:
        raise ValueError("gamma must be a proper subset of 0..%d" % (d.K - 1))
    sub = Design(d.m, tuple(d.vectors[i] for i in gamma))
    rep = finest_partition(sub)
    groups = tuple(tuple(gamma[i] for i in grp) for grp in rep.groups)
    return PartitionReport(groups=groups, valid=True)


# ---------------------------------------------------------------------------
# decode plans and complexity accounting

JOINT = "joint"
HARD_LAST = "hard_last"
HARD_ALL = "hard_all"


@dataclass(frozen=True)
class Leaf:
    indices: tuple
    kind: str = JOINT

    def __post_init__(self):
        if self.kind not in (JOINT, HARD_LAST, HARD_ALL):
            raise ValueError("unknown leaf kind %r" % self.kind)
        if not self.indices:
            raise ValueError("empty leaf")


@dataclass(frozen=True)
class Cond:
    conditioning: tuple
    children: tuple

    def __post_init__(self):
        if not self.children:
            raise ValueError("Cond node needs children")


def plan_indices(node):
    if isinstance(node, Leaf):
        return list(node.indices)
    out = list(node.conditioning)
    for c in node.children:
        out.extend(plan_indices(c))
    return out


def check_plan(plan, K):
    """Plan must cover symbol indices 0..K-1 exactly once."""
    idx = plan_indices(plan)
    if sorted(idx) != list(range(K)):
        raise ValueError("plan does not cover 0..%d exactly once" % (K - 1))


@dataclass(frozen=True)
class ComplexityReport:
    """c*M^a candidate-metric evaluations; dominant term plus exact side list."""
    terms: tuple  # ((coefficient, exponent as Fraction), ...) sorted desc

    @property
    def coefficient(self):
        return self.terms[0][0]

    @property
    def exponent(self):
        return self.terms[0][1]

    def evaluate(self, M):
        """Exact integer sum of c*M^a over all terms (M a perfect square)."""
        r = isqrt(M)
        if r * r != M:
            raise ValueError("M must be a perfect square")
        return sum(c * r ** int(2 * a) for c, a in self.terms)

    def __str__(self):
        return format_term(self.coefficient, self.exponent)


def format_term(c, a):
    a = Fraction(a)
    exp = str(a.numerator) if a.denominator == 1 else str(float(a))
    return ("M^%s" % exp) if c == 1 else ("%d·M^%s" % (c, exp))


def _terms(node):
    if isinstance(node, Leaf):
        k = Fraction(len(node.indices), 2)
        if node.kind == JOINT:
            return [(1, k)]
        if node.kind == HARD_LAST:
            return [(1, k - Fraction(1, 2))]
        return [(1, Fraction(0))]
    c = Fraction(len(node.conditioning), 2)
    out = []
    for child in node.children:
        out.extend((coef, a + c) for coef, a in _terms(child))
    return out


def plan_complexity(plan):
    """Exact term list of the plan; dominant term first.

    The report is symbolic; use .evaluate(M) for the integer count.
    """
    merged = {}
    for coef, a in _terms(plan):
        merged[a] = merged.get(a, 0) + coef
    terms = tuple(sorted(((c, a) for a, c in merged.items()),
                         key=lambda t: t[1], reverse=True))
    return ComplexityReport(terms=terms)


# ---------------------------------------------------------------------------
# linear designs

@dataclass(frozen=True)
class LDEntry:
    label: str
    matrix: object  # ndarray
    vector: F4Vec = None
    sign: int = 1


@dataclass(frozen=True)
class LinearDesign:
    m: int
    entries: tuple

    @property
    def K(self):
        return len(self.entries)

    @property
    def N(self):
        return 2 ** self.m

    def matrices(self):
        return np.stack([e.matrix for e in self.entries])


def to_linear_design(d, labels=None):
    """Realize a Design: A_k = phi_inv(y_k), labels x1..xK by default."""
    entries = []
    for i, v in enumerate(d.vectors):
        label = labels[i] if labels else "x%d" % (i + 1)
        entries.append(LDEntry(label=label, matrix=phi_inv(v), vector=v, sign=1))
    return LinearDesign(m=d.m, entries=tuple(entries))


def matrix_form(ld, symbols):
    """X(x1..xK) = sum_i x_i A_i (entry matrices already carry their signs)."""
    if len(symbols) != ld.K:
        raise ValueError("expected %d symbols, got %d" % (ld.K, len(symbols)))
    N = ld.N
    X = np.zeros((N, N), dtype=complex)
    for x, e in zip(symbols, ld.entries):
        X = X + x * e.matrix
    return X
