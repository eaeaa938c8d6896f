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
t-closed choice works.  Pairs are found on packed codes (f4.code), where
+t is XOR with code(t) and integer order is lex order; only the chosen
pairs become F4Vecs.

For 2 antennas (m = 1) the family is the Silver code punctured pairwise,
with decoding complexity M^{2(R-1)}: R = 3/2 punctures the information
symbol z4, R = 1 also z3, never a precoded symbol s3 or s4.

This module is pure algebra; bundles.family_bundle turns its members,
and the m = 1 Silver code, into bundles with signal sets and plans.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .f4 import O as F0, I as F1, W, W2, MAX_M, F4Vec, code, from_code, delta
from .design import (Design, Leaf, Cond, ComplexityReport, HARD_LAST,
                     from_groups)
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
        if self.subset("O"):
            return Design(self.m, self.vectors)
        s1 = self.subset("S_A")
        return from_groups(self.m, [s1, self.vectors[len(s1):]])


def _sorted_pairs(codes, m):
    """Pairs {y, y+t} of a set of packed codes closed under +t (XOR with
    code(t)), as the ascending list of their lower codes: the pairs in
    lex order, each led by its lex-smaller vector."""
    codes = set(codes)
    tc = code(t_vector(m))
    unpaired = [c for c in codes if c ^ tc not in codes]
    if unpaired:
        raise ValueError("set not closed under +t (partner of %r missing)"
                         % (from_code(min(unpaired), m),))
    return sorted(c for c in codes if c < c ^ tc)


def _pair_vectors(lower, m):
    """Vectors of the pairs with these lower codes, each y_I immediately
    followed by y_I + t."""
    tc = code(t_vector(m))
    return tuple(from_code(c, m) for lo in lower for c in (lo, lo ^ tc))


def _ordered(codes, m):
    """Flatten pairs so each y_I is immediately followed by y_I + t."""
    return _pair_vectors(_sorted_pairs(codes, m), m)


def build_base(m, xi2=W2):
    if m < 2:
        raise ValueError("base family needs m >= 2 (m = 1 is the Silver code)")
    if xi2 not in (F1, W2):
        raise ValueError("xi2 must be 1 or w2")
    s_a, s_b = [], []  # S_w over the digits {0, w}, split by weight parity
    for xs in product((F0, W), repeat=m):
        (s_b if xs.count(W) % 2 else s_a).append(code(F4Vec(0, xs)))
    nu = code(F4Vec(1 if m % 2 == 0 else 0, (xi2,) * m))
    dlt = code(delta(m))
    subsets = (("S_A", _ordered(s_a, m)),
               ("S_B", _ordered(s_b, m)),
               ("S_C", _ordered([nu ^ c for c in s_a], m)),
               ("S_D", _ordered([nu ^ c for c in s_b], m)),
               ("S_E", _ordered([dlt ^ c for c in s_a], m)),
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
    pairs = _sorted_pairs(map(code, s_e), base.m)
    kept = _pair_vectors(pairs[:target // 2], base.m)
    subsets = tuple((n, kept) if n == "S_E"
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
    comp = set(range(2 << 2 * base.m)) - set(map(code, base.vectors))
    pairs = _sorted_pairs(comp, base.m)
    if size // 2 > len(pairs):
        raise ValueError("rate %s exceeds the ambient space" % R)
    chosen = _pair_vectors(pairs[:size // 2], base.m)
    subsets = tuple((n, chosen) if n == "O"
                    else (n, vs) for n, vs in base.subsets)
    return FamilyDesign(m=base.m, xi2=base.xi2, R=R,
                        subsets=subsets)


def family(m, R, xi2=W2):
    """Family member of rate R: the base design at R = 5/4, punctured
    below and extended above; m past MAX_M is refused before building."""
    R = Fraction(R)
    if m > MAX_M:
        raise ValueError("family m=%d: weight matrices are realized up to "
                         "m=%d" % (m, MAX_M))
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
    lower = _sorted_pairs(map(code, vectors), m)
    tc = code(t_vector(m))
    return (tuple(from_code(c, m) for c in lower),
            tuple(from_code(c ^ tc, m) for c in lower))


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
