"""Rate-5/4 fast-group-decodable family and its punctured/extended codes.

For 2^m antennas, m >= 2, start from S_w = {[0|z1..zm] : zi in {0, w}}.
Split by weight parity into S_A (even) and S_B, then

    S_C = nu + S_A,   S_D = nu + S_B,   S_E = dlt + S_A,

where nu = [m even | xi2,...,xi2] with xi2 in {1, w2}, and dlt flips the
F2 component.  S1 = S_A and S2 = S_B u S_C u S_D u S_E give a rate-5/4
design: every vector outside S_A has odd weight, so {S_A,...,S_D} is
4-group decodable and {S1, S2} is 2-group decodable.

Rates below 5/4 puncture S_E and rates above add a complement subset O.
Both keep the vector set closed under addition of t = [0|0..0,w,w], so
symbols pair up as {x_y, x_{y+t}} and each pair carries one rotated QAM
symbol.  phi_inv(y) + i*phi_inv(y+t) is always full rank, which is the
sufficient condition for rotation angles achieving full diversity.

Pair selection for puncturing (lexicographically largest first) and for
O (lexicographically smallest first) is a deterministic choice; any
t-closed choice works.

For 2 antennas (m = 1) the family is the Silver code punctured pairwise,
with decoding complexity M^{2(R-1)}.

This module is pure algebra; bundles.assemble_stbc and bundles.silver_stbc
attach signal sets and decode plans to its designs.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .f4 import O as F0, I as F1, W, W2, F4Vec, weight, enumerate_all, delta
from .design import Design, Leaf, Cond, ComplexityReport, HARD_LAST
from .pauli import phi_inv


def t_vector(m):
    if m < 2:
        raise ValueError("t is defined for m >= 2")
    return F4Vec(0, (F0,) * (m - 2) + (W, W))


@dataclass(frozen=True)
class FamilyDesign:
    m: int
    xi2: int
    R: Fraction
    subsets: tuple  # ((name, (vectors...)), ...): S_A, S_B, S_C, S_D, S_E, O

    @property
    def t(self):
        return t_vector(self.m)

    def subset(self, name):
        for n, vs in self.subsets:
            if n == name:
                return vs
        raise KeyError(name)

    @property
    def vectors(self):
        return tuple(v for _n, vs in self.subsets for v in vs)

    @property
    def K(self):
        return len(self.vectors)

    def design(self):
        """Design with the 2-group partition (S1, S2') when it is one."""
        vs = self.vectors
        n1 = len(self.subset("S_A"))
        partition = None
        if not self.subset("O"):
            partition = (tuple(range(n1)), tuple(range(n1, len(vs))))
        return Design(self.m, vs, partition)


def _sorted_pairs(vectors, t):
    """Pairs {y, y+t} ordered by (and vectors within a pair by) lex order."""
    vs = set(vectors)
    if {v + t for v in vs} != vs:
        missing = next(v for v in sorted(vs) if v + t not in vs)
        raise ValueError("set not closed under +t (partner of %r missing)"
                         % (missing,))
    pairs = sorted({tuple(sorted((v, v + t))) for v in vs})
    return pairs


def _ordered(vectors, t):
    """Flatten pairs so each y_I is immediately followed by y_I + t."""
    return tuple(v for pair in _sorted_pairs(vectors, t) for v in pair)


def build_base(m, xi2=W2):
    if m < 2:
        raise ValueError("base family needs m >= 2 (m = 1 is the Silver code)")
    if xi2 not in (F1, W2):
        raise ValueError("xi2 must be 1 or w2")
    t = t_vector(m)
    s_w = [v for v in enumerate_all(m)
           if v.lam == 0 and all(x in (F0, W) for x in v.xs)]
    s_a = [v for v in s_w if weight(v) % 2 == 0]
    s_b = [v for v in s_w if weight(v) % 2 == 1]
    nu = F4Vec(1 if m % 2 == 0 else 0, (xi2,) * m)
    dlt = delta(m)
    subsets = (("S_A", _ordered(s_a, t)),
               ("S_B", _ordered(s_b, t)),
               ("S_C", _ordered([nu + v for v in s_a], t)),
               ("S_D", _ordered([nu + v for v in s_b], t)),
               ("S_E", _ordered([dlt + v for v in s_a], t)),
               ("O", ()))
    return FamilyDesign(m=m, xi2=xi2, R=Fraction(5, 4),
                        subsets=subsets)


def puncture(base, R):
    """Drop lexicographically largest pairs {y, y+t} from S_E."""
    R = Fraction(R)
    if not 1 <= R < Fraction(5, 4):
        raise ValueError("puncture targets rates in [1, 5/4)")
    if base.subset("O"):
        raise ValueError("cannot puncture an extended design")
    target = 2 ** (base.m + 1) * (R - 1)
    if target.denominator != 1:
        raise ValueError("rate %s leaves a fractional S_E size" % R)
    target = int(target)
    s_e = base.subset("S_E")
    if (len(s_e) - target) % 2 != 0:
        raise ValueError("rate %s needs an odd number of removals; "
                         "puncturing works in pairs" % R)
    pairs = _sorted_pairs(s_e, base.t)
    kept = pairs[:target // 2]
    subsets = tuple((n, tuple(v for p in kept for v in p)) if n == "S_E"
                    else (n, vs) for n, vs in base.subsets)
    return FamilyDesign(m=base.m, xi2=base.xi2, R=R,
                        subsets=subsets)


def extend(base, R):
    """Add lexicographically smallest complement pairs as the set O."""
    R = Fraction(R)
    if R <= Fraction(5, 4):
        raise ValueError("extend targets rates above 5/4")
    size = 2 ** (base.m - 1) * (4 * R - 5)
    if size.denominator != 1 or int(size) % 2 != 0:
        raise ValueError("|O| = 2^(m-1)(4R-5) = %s is not an even integer" % size)
    size = int(size)
    used = set(base.vectors)
    comp = [v for v in enumerate_all(base.m) if v not in used]
    pairs = _sorted_pairs(comp, base.t)
    if size // 2 > len(pairs):
        raise ValueError("rate %s exceeds the ambient space" % R)
    chosen = pairs[:size // 2]
    subsets = tuple((n, tuple(v for p in chosen for v in p)) if n == "O"
                    else (n, vs) for n, vs in base.subsets)
    return FamilyDesign(m=base.m, xi2=base.xi2, R=R,
                        subsets=subsets)


def family(m, R, xi2=W2):
    """Family member of rate R: the base design at R = 5/4, punctured
    below and extended above."""
    R = Fraction(R)
    base = build_base(m, xi2=xi2)
    if R < Fraction(5, 4):
        return puncture(base, R)
    if R > Fraction(5, 4):
        return extend(base, R)
    return base


def pair_split(d):
    """(S_I, S_Q) with S_I the lex-smaller of each {y, y+t} pair."""
    vectors = d.vectors if hasattr(d, "vectors") else tuple(d)
    m = vectors[0].m
    t = t_vector(m)
    pairs = _sorted_pairs(vectors, t)
    s_i = tuple(p[0] for p in pairs)
    return s_i, tuple(t + v for v in s_i)


def check_prop16(y):
    """phi_inv(y) + i*phi_inv(y+t) has full rank (always true, m >= 2)."""
    if y.m < 2:
        raise ValueError("defined for m >= 2")
    A = phi_inv(y) + 1j * phi_inv(y + t_vector(y.m))
    sv = np.linalg.svd(A, compute_uv=False)
    return bool(sv[-1] > 1e-8)


def predicted_complexity(m, R):
    """Dominant-plus-side-term decoding cost of the rate-R family member."""
    R = Fraction(R)
    if m < 1:
        raise ValueError("m >= 1")
    if m == 1:
        if not 1 <= R <= 2:
            raise ValueError("2-antenna family covers 1 <= R <= 2")
        return ComplexityReport(terms=((1, 2 * (R - 1)),))
    if not 1 < R <= 2 ** m:
        raise ValueError("family covers 1 < R <= N for m >= 2")
    q = Fraction(2 ** (m - 2))
    lead = (3, q * (4 * R - 3) - Fraction(1, 2))
    side = (1, q * (4 * R - 4) - Fraction(1, 2)) if R > Fraction(5, 4) \
        else (1, q - Fraction(1, 2))
    return ComplexityReport(terms=(lead, side))


def family_plan(fd):
    """Decode plan over real-symbol indices in fd.vectors order.

    Condition on O (when present), decode S1 = S_A on its own, and
    condition on S_E' to split the rest into S_B, S_C, S_D.  Every leaf
    hard-limits its last real symbol.
    """
    pos, k = {}, 0
    for name, vs in fd.subsets:
        pos[name] = tuple(range(k, k + len(vs)))
        k += len(vs)
    leaves = [Leaf(pos["S_A"], HARD_LAST)]
    inner = [Leaf(pos[n], HARD_LAST) for n in ("S_B", "S_C", "S_D")]
    if pos["S_E"]:
        leaves.append(Cond(conditioning=pos["S_E"], children=tuple(inner)))
    else:
        leaves.extend(inner)
    return Cond(conditioning=pos["O"], children=tuple(leaves))


def family_pairs(fd):
    """(i_I, i_Q) index pairs in vector order; partners are adjacent."""
    return tuple((i, i + 1) for i in range(0, fd.K, 2))
