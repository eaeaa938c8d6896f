"""Exact arithmetic over GF(4) and vectors in F2 + F4^m.

GF(4) = {0, 1, w, w2} with w2 = w*w and 1 + w = w2.  Elements are stored
as two-bit integers:

    0 <-> 00, 1 <-> 01, w <-> 10, w2 <-> 11

so that addition (characteristic 2) is bitwise XOR.  The nonzero elements
form the cyclic group {w^0, w^1, w^2}, which gives multiplication by
adding discrete logs mod 3.

A vector [lam | x1,...,xm] has a single F2 component lam followed by m
F4 coordinates.  Its weight counts all nonzero components including lam.
The canonical text form is "lam|x1,...,xm" over the alphabet {0,1,w,w2},
e.g. "1|w,w2".

The packed code of a vector is one integer: lam as its top bit, then the
coordinates as two-bit digits, x1 most significant,

    code([lam | x1,...,xm]) = lam * 4^m + sum_k x_k * 4^(m-k).

Integer order of codes is then F4Vec order (lam first, then the
coordinates lexicographically), vector addition is XOR of codes, and
range(2 * 4^m) is enumerate_all(m) in order.
"""

from dataclasses import dataclass
from functools import cache
from itertools import product

# element constants
O, I, W, W2 = 0, 1, 2, 3
_ELEMENTS = frozenset((O, I, W, W2))

_NAMES = {O: "0", I: "1", W: "w", W2: "w2"}
_VALUES = {v: k for k, v in _NAMES.items()}

# discrete logs base w for nonzero elements: 1 = w^0, w = w^1, w2 = w^2
_LOG = {I: 0, W: 1, W2: 2}
_EXP = {0: I, 1: W, 2: W2}

MAX_M = 8  # largest m: realizations stop at 256 x 256 matrices


def f4_add(a, b):
    """Sum in GF(4); XOR under the two-bit encoding."""
    return a ^ b


def f4_mul(a, b):
    """Product in GF(4) via discrete logs."""
    if a == O or b == O:
        return O
    return _EXP[(_LOG[a] + _LOG[b]) % 3]


def f4_pow_w(l):
    """w^l for l in {0,1,2}."""
    return _EXP[l % 3]


@dataclass(frozen=True, order=True)
class F4Vec:
    """Element of F2 + F4^m: F2 component lam, F4 coordinates xs.

    Ordering is lexicographic, lam first then coordinates with
    0 < 1 < w < w2 (the natural order of the two-bit encoding); used for
    deterministic tie-breaking everywhere.
    """

    lam: int
    xs: tuple

    def __post_init__(self):
        if self.lam not in (0, 1):
            raise ValueError("lam must be 0 or 1")
        if not _ELEMENTS.issuperset(self.xs):
            raise ValueError("coordinates must be GF(4) elements")

    @property
    def m(self):
        return len(self.xs)

    def __add__(self, other):
        if self.m != other.m:
            raise ValueError("dimension mismatch: m=%d vs m=%d" % (self.m, other.m))
        return F4Vec(self.lam ^ other.lam,
                     tuple(a ^ b for a, b in zip(self.xs, other.xs)))


def add(a, b):
    return a + b


def weight(v):
    """Hamming weight: nonzero components including lam."""
    return (v.lam != 0) + sum(x != O for x in v.xs)


def zero(m):
    return F4Vec(0, (O,) * m)


def delta(m):
    """[1 | 0,...,0]: the vector flipping only the F2 component."""
    return F4Vec(1, (O,) * m)


def enumerate_all(m):
    """All 2*4^m vectors of F2 + F4^m in lexicographic order."""
    if not 1 <= m <= MAX_M:
        raise ValueError("m out of range (1..%d)" % MAX_M)
    return [F4Vec(lam, xs)
            for lam in (0, 1)
            for xs in product((O, I, W, W2), repeat=m)]


def code(v):
    """Packed integer code of v: lam as the top bit, then the coordinates
    as two-bit digits, x1 most significant.  A Python int whatever
    integer types v holds."""
    c = v.lam
    for x in v.xs:
        c = c << 2 | x
    if type(c) is int:
        return c
    # numpy integers wrap at their fixed width: pack Python ints instead
    return code(F4Vec(int(v.lam), tuple(map(int, v.xs))))


@cache
def _coordinates(m):
    """Every coordinate tuple of F4^m, indexed by its packed code."""
    return tuple(product((O, I, W, W2), repeat=m))


def from_code(c, m):
    """The vector of F2 + F4^m whose packed code is c."""
    if not 0 <= c < 2 << 2 * m:
        raise ValueError("code %d out of range for m=%d" % (c, m))
    return F4Vec(c >> 2 * m, _coordinates(m)[c & (1 << 2 * m) - 1])


def format_vec(v):
    return "%d|%s" % (v.lam, ",".join(_NAMES[x] for x in v.xs))


def parse_vec(text):
    head, sep, tail = text.strip().partition("|")
    if not sep:
        raise ValueError("missing '|' separator in %r" % text)
    if head not in ("0", "1"):
        raise ValueError("F2 component must be 0 or 1, got %r" % head)
    xs = []
    for tok in tail.split(",") if tail else ():  # "lam|" is an m=0 vector
        tok = tok.strip()
        if tok not in _VALUES:
            raise ValueError("bad GF(4) token %r" % tok)
        xs.append(_VALUES[tok])
    return F4Vec(int(head), tuple(xs))
