"""Recursive constructions A/B/C and the catalog of known designs.

Construction A doubles the antenna count of any multigroup design while
keeping the group count and rate.  Constructions B and C consume 2-group
designs whose intra-group sums are all even; B keeps 2 groups, C splits
them into 4.  A coordinate permutation never changes weights, so it maps
valid designs to valid designs; the shift-to-front permutation turns the
appended coordinate into the leading Kronecker factor, which is what
produces the familiar block matrix forms.

The catalog holds the known designs as F4 codes.  Printed weight
matrices from the literature are stored verbatim; each entry records the
sign relating the printed matrix to the canonical realization, since the
sources only fix matrices up to sign.
"""

from dataclasses import dataclass, field
from functools import reduce
from itertools import permutations

import numpy as np

from .f4 import (O, I, W, W2, MAX_M, F4Vec, weight, f4_pow_w, zero, delta,
                 enumerate_all)
from .design import (Design, LinearDesign, LDEntry, even_table,
                     finest_partition, from_groups, groups_of,
                     to_linear_design)
from .pauli import I2, X, Z, ZX, phi_signed


def _two_even_groups(d, op):
    """The vectors of each group of d, a 2-group design whose intra-group
    sums are all even, as constructions B and C (op) need."""
    groups = groups_of(d)
    if len(groups) != 2:
        raise ValueError("%s needs exactly 2 groups, got %d"
                         % (op, len(groups)))
    even = even_table(d)
    for grp in groups:
        odd = np.triu(~even[np.ix_(grp, grp)], 1)
        if odd.any():
            a, b = divmod(int(odd.argmax()), len(grp))
            raise ValueError("intra-group pair (%d,%d) sums to odd weight"
                             % (grp[a], grp[b]))
    return [[d.vectors[i] for i in grp] for grp in groups]


def _append(y, xi):
    return F4Vec(y.lam, y.xs + (xi,))


def construct_A(d, l):
    """Per group: {[y,0]} and {[y,w^l] + delta}; g and rate preserved."""
    _check_l(l)
    wl = f4_pow_w(l)
    dlt = delta(d.m + 1)
    groups = groups_of(d)
    out = []
    for grp in groups:
        ys = [d.vectors[i] for i in grp]
        out.append([_append(y, O) for y in ys] +
                   [_append(y, wl) + dlt for y in ys])
    return from_groups(d.m + 1, out)


def construct_B(d, l):
    """2-group intra-even input -> 2-group intra-even output, same rate."""
    _check_l(l)
    s1, s2 = _two_even_groups(d, "construct_B")
    wl = f4_pow_w(l)
    g1 = [_append(y, O) for y in s1] + [_append(y, wl) for y in s2]
    g2 = [_append(y, O) for y in s2] + [_append(y, wl) for y in s1]
    return from_groups(d.m + 1, [g1, g2])


def construct_C(d, xi_order):
    """2-group intra-even input -> 4-group output via 4 distinct suffixes."""
    xi_order = tuple(xi_order)
    if sorted(xi_order) != [O, I, W, W2]:
        raise ValueError("xi_order must be 4 distinct GF(4) elements")
    s1, s2 = _two_even_groups(d, "construct_C")
    x1, x2, x3, x4 = xi_order
    dlt = delta(d.m + 1)
    out = [[_append(y, x1) for y in s1],
           [_append(y, x2) for y in s1],
           [_append(y, x3) + dlt for y in s2],
           [_append(y, x4) + dlt for y in s2]]
    return from_groups(d.m + 1, out)


# the four inequivalent suffix orders for construct_C
XI_ORDERS = ((O, I, W, W2), (W, W2, O, I), (I, W2, O, W), (W, I, O, W2))


def apply_sigma(d, sigma):
    """Coordinate permutation: new coordinate k is old coordinate sigma[k-1]."""
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(1, d.m + 1)):
        raise ValueError("sigma must be a permutation of 1..%d" % d.m)
    vecs = tuple(F4Vec(v.lam, tuple(v.xs[s - 1] for s in sigma))
                 for v in d.vectors)
    return Design(d.m, vecs, d.partition)


def shift_front(d):
    """Move the last coordinate to the front (leading Kronecker factor)."""
    return apply_sigma(d, (d.m,) + tuple(range(1, d.m)))


def _group_sets(d):
    # as given, not validated by groups_of: runs once per permutation
    groups = (d.partition if d.partition is not None
              else finest_partition(d).groups)
    return frozenset(frozenset(d.vectors[i] for i in grp) for grp in groups)


def designs_equivalent(d1, d2):
    """Same partitioned vector sets under some coordinate permutation.

    Groups are compared as unordered sets of unordered vector sets, i.e.
    variable and group relabeling is free.
    """
    if d1.m != d2.m or d1.K != d2.K:
        return False
    target = _group_sets(d2)
    for perm in permutations(range(1, d1.m + 1)):
        if _group_sets(apply_sigma(d1, perm)) == target:
            return True
    return False


# ---------------------------------------------------------------------------
# catalog

@dataclass(frozen=True)
class CatalogEntry:
    name: str
    design: Design
    linear: LinearDesign
    labels: tuple
    notes: dict = field(default_factory=dict)


def _entry(name, design, labels=None, printed=None, notes=None):
    labels = labels or tuple("x%d" % (i + 1) for i in range(design.K))
    if printed is None:
        linear = to_linear_design(design)
    else:
        entries = []
        for i, (v, A) in enumerate(zip(design.vectors, printed)):
            got, sign = phi_signed(A)
            if got != v:
                raise AssertionError("printed matrix %d realizes %s, expected %s"
                                     % (i, got, v))
            entries.append(LDEntry(matrix=np.asarray(A, complex), vector=v,
                                   sign=sign))
        linear = LinearDesign(m=design.m, entries=tuple(entries))
    return CatalogEntry(name=name, design=design, linear=linear,
                        labels=labels, notes=notes or {})


def _v(lam, *xs):
    return F4Vec(lam, tuple(xs))


def _check_m(m, params):
    """ValueError naming the parameters unless a design on m coordinates
    can be realized, before any of it is built."""
    if m > MAX_M:
        raise ValueError("%s gives m=%d; weight matrices are realized up to "
                         "m=%d" % (params, m, MAX_M))


def _check_l(l):
    if l not in (0, 1, 2):
        raise ValueError("l must be in {0,1,2}")


def _alamouti():
    d = Design(1, (_v(0, O), _v(0, I), _v(0, W), _v(0, W2)),
               ((0,), (1,), (2,), (3,)))
    return _entry("alamouti", d)


def _rate1_2x2(l):
    _check_l(l)
    wl = f4_pow_w(l)
    d = Design(1, (_v(0, O), _v(1, wl), _v(0, wl), _v(1, O)), ((0, 1), (2, 3)))
    return _entry("rate1_2x2", d, notes={"l": l})


_HAD2 = np.array([[1.0, -1.0], [1.0, 1.0]])


def _doubled(d, n):
    """n rounds of shift_front(construct_A(., 1)): 2^n times the antennas."""
    for _ in range(n):
        d = shift_front(construct_A(d, 1))
    return d


def _had2_power(k):
    """HAD2^{(x)k}, the 1 x 1 identity for k = 0."""
    return reduce(np.kron, [_HAD2] * k, np.eye(1))


def _ciod(m):
    """Single-complex-symbol decodable block-diagonal design, 2^m antennas."""
    if m < 1:
        raise ValueError("ciod needs m >= 1")
    _check_m(m, "ciod m=%d" % m)
    d = _rate1_2x2(1).design if m == 1 else _doubled(_scod(m - 1).design, 1)
    return _entry("ciod", d, notes={"pair_transform": _HAD2})


def _qod4():
    vs = (_v(0, O, O), _v(1, W, W), _v(0, O, W2), _v(1, W, I),
          _v(0, W2, O), _v(1, I, W), _v(0, W2, W2), _v(1, I, I))
    d = Design(2, vs, ((0, 6), (1, 7), (2, 4), (3, 5)))
    printed = (np.kron(I2, I2), np.kron(1j * Z, Z),
               np.kron(I2, ZX), np.kron(1j * Z, X),
               np.kron(ZX, I2), np.kron(1j * X, Z),
               np.kron(ZX, ZX), np.kron(1j * X, X))
    return _entry("qod4", d, printed=printed)


def _scod(m):
    """Maximal rate square complex orthogonal design, 2m+2 singleton groups."""
    if m < 1:
        raise ValueError("scod needs m >= 1")
    _check_m(m, "scod m=%d" % m)
    vs = []
    for head in (W2, I):
        for k in range(1, m + 1):
            lam = 1 if k % 2 == 0 else 0
            vs.append(F4Vec(lam, (O,) * (m - k) + (head,) + (W,) * (k - 1)))
    vs.append(F4Vec(1 if m % 2 == 0 else 0, (W,) * m))
    vs.append(zero(m))
    d = Design(m, tuple(vs), tuple((i,) for i in range(2 * m + 2)))
    return _entry("scod", d)


def _trivial():
    """One-antenna design X = x1 + i x2 (m = 0)."""
    d = Design(0, (F4Vec(0, ()), F4Vec(1, ())), ((0,), (1,)))
    return _entry("trivial", d)


def _precoded_ciod(n):
    if n < 0:
        raise ValueError("precoded_ciod needs n >= 0")
    _check_m(n + 1, "precoded_ciod n=%d" % n)
    return _entry("precoded_ciod", _doubled(_alamouti().design, n),
                  notes={"group_precoder": _had2_power(n)})


def _dast(n):
    if n < 0:
        raise ValueError("dast needs n >= 0")
    _check_m(n + 1, "dast n=%d" % n)
    return _entry("dast", _doubled(_rate1_2x2(1).design, n),
                  notes={"group_precoder": _had2_power(n + 1)})


def _ggroup(g, a):
    """g groups of 2^a real symbols each; rate g / 2^floor((g+1)/2)."""
    if g < 2 or a < 0:
        raise ValueError("need g >= 2 and a >= 0")
    g_even = g if g % 2 == 0 else g + 1
    m0 = g_even // 2 - 1
    _check_m(m0 + a, "ggroup g=%d a=%d" % (g, a))
    d = _trivial().design if m0 == 0 else _scod(m0).design
    for _ in range(a):
        d = construct_A(d, 0)
    if g % 2 == 1:
        # odd g: drop the last group of the even design
        d = from_groups(d.m, [[d.vectors[i] for i in grp]
                              for grp in d.partition[:-1]])
    return _entry("ggroup", d, notes={"g": g, "a": a})


def _fgd_ren():
    """Rate 17/8 fast-group-decodable design: zero vector plus all odd weights."""
    odd = [v for v in enumerate_all(2) if weight(v) % 2 == 1]
    vs = (zero(2),) + tuple(odd)
    d = from_groups(2, [vs[:1], vs[1:]])
    scod_odd = [v for v in _scod(2).design.vectors if weight(v) % 2 == 1]
    ortho = tuple(sorted(vs.index(v) for v in scod_odd))
    return _entry("fgd_ren", d, notes={"ortho_indices": ortho})


def _pavan2x2():
    vs = (_v(0, O), _v(1, W), _v(1, O), _v(0, W),
          _v(1, I), _v(0, W2), _v(0, I), _v(1, W2))
    d = Design(1, vs, None)
    printed = (I2, Z, 1j * I2, 1j * Z, X, ZX, 1j * X, 1j * ZX)
    t24 = 0.5 * np.array([[1, -1], [1, 1]])
    t34 = 0.5 * np.array([[1, 1], [-1, 1]])
    t58 = (1 / (2 * np.sqrt(2))) * np.array(
        [[1, -1, 1, 1], [1, -1, -1, -1], [1, 1, 1, -1], [1, 1, -1, 1]])
    notes = {"encoding_groups": ((0, 1), (2, 3), (4, 5, 6, 7)),
             "conditional_groups": ((0, 1), (2, 3)),
             "conditioning": (4, 5, 6, 7),
             "transforms": (t24, t34, t58)}
    return _entry("pavan2x2", d, printed=printed, notes=notes)


def _bhv():
    qod = _qod4()
    T = np.kron(Z, I2)
    mats = [e.matrix for e in qod.linear.entries]
    mats += [A @ T for A in mats[:8]]
    vecs, printed = [], []
    for A in mats:
        v, _s = phi_signed(A)
        vecs.append(v)
        printed.append(A)
    d = Design(2, tuple(vecs), None)
    notes = {"conditioning": tuple(range(8, 16)),
             "conditional_groups": qod.design.partition}
    return _entry("bhv", d, printed=tuple(printed), notes=notes)


SILVER_U = (1 / np.sqrt(7)) * np.array([[1 + 1j, -1 + 2j], [1 + 2j, 1 - 1j]])


def _silver():
    vs = (_v(0, O), _v(0, W), _v(0, W2), _v(0, I),
          _v(1, W), _v(1, O), _v(1, I), _v(1, W2))
    labels = ("s1I", "s1Q", "s2I", "s2Q", "s3I", "s3Q", "s4I", "s4Q")
    printed = (I2, 1j * Z, ZX, 1j * X, Z, 1j * I2, X, 1j * ZX)
    d = Design(1, vs, None)
    notes = {"encoding_groups": ((0, 1), (2, 3), (4, 5, 6, 7)),
             "conditional_groups": ((0, 1), (2, 3)),
             "conditioning": (4, 5, 6, 7),
             "pairing_unitary": SILVER_U}
    return _entry("silver", d, labels=labels, printed=printed, notes=notes)


_CATALOG = {
    "alamouti": (_alamouti, ()),
    "rate1_2x2": (_rate1_2x2, ("l",)),
    "qod4": (_qod4, ()),
    "scod": (_scod, ("m",)),
    "ciod": (_ciod, ("m",)),
    "precoded_ciod": (_precoded_ciod, ("n",)),
    "dast": (_dast, ("n",)),
    "ggroup": (_ggroup, ("g", "a")),
    "fgd_ren": (_fgd_ren, ()),
    "pavan2x2": (_pavan2x2, ()),
    "bhv": (_bhv, ()),
    "silver": (_silver, ()),
}


def catalog_names():
    return sorted(_CATALOG)


def catalog_params(name):
    """The names of a catalog design's integer parameters."""
    if name not in _CATALOG:
        raise KeyError("unknown catalog design %r" % name)
    return _CATALOG[name][1]


def catalog(name, **params):
    argnames = catalog_params(name)
    if set(params) != set(argnames):
        raise ValueError("%s takes parameters %r" % (name, argnames))
    return _CATALOG[name][0](*[params[k] for k in argnames])
