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
from itertools import permutations

import numpy as np

from .f4 import (O, I, W, W2, F4Vec, weight, f4_pow_w, zero, delta,
                 enumerate_all)
from .design import (Design, LinearDesign, LDEntry, finest_partition,
                     validate_partition, to_linear_design)
from .pauli import I2, X, Z, ZX, phi_signed


def _groups_of(d):
    """Partition to use: the design's own (validated) or the finest."""
    if d.partition is not None:
        rep = validate_partition(d, d.partition)
        if not rep.valid:
            i, j = rep.witness
            raise ValueError("invalid partition: even-sum cross pair (%d,%d)"
                             % (i, j))
        return rep.groups
    return finest_partition(d).groups


def _intra_even_check(d, groups):
    for grp in groups:
        for a in range(len(grp)):
            for b in range(a + 1, len(grp)):
                i, j = grp[a], grp[b]
                if weight(d.vectors[i] + d.vectors[j]) % 2 == 1:
                    raise ValueError(
                        "intra-group pair (%d,%d) sums to odd weight" % (i, j))


def _append(y, xi):
    return F4Vec(y.lam, y.xs + (xi,))


def _from_groups(m, vector_groups):
    vectors, partition, k = [], [], 0
    for grp in vector_groups:
        partition.append(tuple(range(k, k + len(grp))))
        vectors.extend(grp)
        k += len(grp)
    return Design(m, tuple(vectors), tuple(partition))


def construct_A(d, l):
    """Per group: {[y,0]} and {[y,w^l] + delta}; g and rate preserved."""
    if l not in (0, 1, 2):
        raise ValueError("l must be in {0,1,2}")
    wl = f4_pow_w(l)
    dlt = delta(d.m + 1)
    groups = _groups_of(d)
    out = []
    for grp in groups:
        ys = [d.vectors[i] for i in grp]
        out.append([_append(y, O) for y in ys] +
                   [_append(y, wl) + dlt for y in ys])
    return _from_groups(d.m + 1, out)


def construct_B(d, l):
    """2-group intra-even input -> 2-group intra-even output, same rate."""
    if l not in (0, 1, 2):
        raise ValueError("l must be in {0,1,2}")
    groups = _groups_of(d)
    if len(groups) != 2:
        raise ValueError("construct_B needs exactly 2 groups, got %d" % len(groups))
    _intra_even_check(d, groups)
    wl = f4_pow_w(l)
    s1 = [d.vectors[i] for i in groups[0]]
    s2 = [d.vectors[i] for i in groups[1]]
    g1 = [_append(y, O) for y in s1] + [_append(y, wl) for y in s2]
    g2 = [_append(y, O) for y in s2] + [_append(y, wl) for y in s1]
    return _from_groups(d.m + 1, [g1, g2])


def construct_C(d, xi_order):
    """2-group intra-even input -> 4-group output via 4 distinct suffixes."""
    xi_order = tuple(xi_order)
    if sorted(xi_order) != [O, I, W, W2]:
        raise ValueError("xi_order must be 4 distinct GF(4) elements")
    groups = _groups_of(d)
    if len(groups) != 2:
        raise ValueError("construct_C needs exactly 2 groups, got %d" % len(groups))
    _intra_even_check(d, groups)
    x1, x2, x3, x4 = xi_order
    dlt = delta(d.m + 1)
    s1 = [d.vectors[i] for i in groups[0]]
    s2 = [d.vectors[i] for i in groups[1]]
    out = [[_append(y, x1) for y in s1],
           [_append(y, x2) for y in s1],
           [_append(y, x3) + dlt for y in s2],
           [_append(y, x4) + dlt for y in s2]]
    return _from_groups(d.m + 1, out)


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
        linear = to_linear_design(design, labels=labels)
    else:
        entries = []
        for i, (v, A) in enumerate(zip(design.vectors, printed)):
            got, sign = phi_signed(A)
            if got != v:
                raise AssertionError("printed matrix %d realizes %s, expected %s"
                                     % (i, got, v))
            entries.append(LDEntry(label=labels[i], matrix=np.asarray(A, complex),
                                   vector=v, sign=sign))
        linear = LinearDesign(m=design.m, entries=tuple(entries))
    return CatalogEntry(name=name, design=design, linear=linear,
                        labels=labels, notes=notes or {})


def _v(lam, *xs):
    return F4Vec(lam, tuple(xs))


def _alamouti():
    d = Design(1, (_v(0, O), _v(0, I), _v(0, W), _v(0, W2)),
               ((0,), (1,), (2,), (3,)))
    return _entry("alamouti", d)


def _rate1_2x2(l):
    wl = f4_pow_w(l)
    d = Design(1, (_v(0, O), _v(1, wl), _v(0, wl), _v(1, O)), ((0, 1), (2, 3)))
    return _entry("rate1_2x2", d, notes={"l": l})


_HAD2 = np.array([[1.0, -1.0], [1.0, 1.0]])


def _ciod(m):
    """Single-complex-symbol decodable block-diagonal design, 2^m antennas."""
    if m < 1:
        raise ValueError("ciod needs m >= 1")
    if m == 1:
        base = _rate1_2x2(1)
        d = base.design
    else:
        d = shift_front(construct_A(_scod(m - 1).design, 1))
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
    d = _alamouti().design
    for _ in range(n):
        d = shift_front(construct_A(d, 1))
    U = np.array([[1.0]])
    for _ in range(n):
        U = np.kron(_HAD2, U)
    return _entry("precoded_ciod", d, notes={"group_precoder": U})


def _dast(n):
    if n < 0:
        raise ValueError("dast needs n >= 0")
    d = _rate1_2x2(1).design
    for _ in range(n):
        d = shift_front(construct_A(d, 1))
    U = np.array([[1.0]])
    for _ in range(n + 1):
        U = np.kron(_HAD2, U)
    return _entry("dast", d, notes={"group_precoder": U})


def _ggroup(g, a):
    """g groups of 2^a real symbols each; rate g / 2^floor((g+1)/2)."""
    if g < 2 or a < 0:
        raise ValueError("need g >= 2 and a >= 0")
    g_even = g if g % 2 == 0 else g + 1
    m0 = g_even // 2 - 1
    d = _trivial().design if m0 == 0 else _scod(m0).design
    for _ in range(a):
        d = construct_A(d, 0)
    if g % 2 == 1:
        # odd g: drop the last group of the even design
        keep = d.partition[:-1]
        idx = [i for grp in keep for i in grp]
        remap = {old: new for new, old in enumerate(idx)}
        part = tuple(tuple(remap[i] for i in grp) for grp in keep)
        d = Design(d.m, tuple(d.vectors[i] for i in idx), part)
    return _entry("ggroup", d, notes={"g": g, "a": a})


def _fgd_ren():
    """Rate 17/8 fast-group-decodable design: zero vector plus all odd weights."""
    odd = [v for v in enumerate_all(2) if weight(v) % 2 == 1]
    vs = (zero(2),) + tuple(odd)
    d = Design(2, vs, ((0,), tuple(range(1, 17))))
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


def catalog(name, **params):
    if name not in _CATALOG:
        raise KeyError("unknown catalog design %r" % name)
    fn, argnames = _CATALOG[name]
    if set(params) != set(argnames):
        raise ValueError("%s takes parameters %r" % (name, argnames))
    return fn(*[params[k] for k in argnames])
