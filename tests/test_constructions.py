"""Recursive constructions A/B/C and the design catalog."""

from fractions import Fraction

import numpy as np
import pytest

from stbc_forge.f4 import O, I, W, W2, F4Vec, zero, delta, weight, parse_vec
from stbc_forge.design import Design, validate_partition, rate
from stbc_forge.constructions import (construct_A, construct_B, construct_C,
                                      apply_sigma, shift_front,
                                      designs_equivalent, catalog,
                                      catalog_names, XI_ORDERS, SILVER_U)
from stbc_forge import constructions as cons
from stbc_forge.pauli import phi_inv, hr_orthogonal_numeric


def _v(lam, *xs):
    return F4Vec(lam, tuple(xs))


def _vecs(*texts):
    return tuple(parse_vec(t) for t in texts)


SEEDS = ("alamouti", ("rate1_2x2", {"l": 1}), "qod4")


def _seed_design(spec):
    if isinstance(spec, str):
        return catalog(spec).design
    name, params = spec
    return catalog(name, **params).design


# ---------------------------------------------------------------------------
# constructions

@pytest.mark.parametrize("spec", SEEDS)
@pytest.mark.parametrize("l", (0, 1, 2))
def test_construct_A_properties(spec, l):
    d = _seed_design(spec)
    out = construct_A(d, l)
    assert out.m == d.m + 1
    assert out.K == 2 * d.K
    assert rate(out) == rate(d)
    assert len(out.partition) == len(d.partition)  # group count preserved
    assert validate_partition(out, out.partition).valid


@pytest.mark.parametrize("l", (0, 1, 2))
def test_construct_B_properties(l):
    d = _seed_design(("rate1_2x2", {"l": 1}))
    out = construct_B(d, l)
    assert out.m == d.m + 1
    assert rate(out) == rate(d)
    assert len(out.partition) == 2
    assert validate_partition(out, out.partition).valid
    # intra-even is preserved, so B can be applied again
    out2 = construct_B(out, l)
    assert validate_partition(out2, out2.partition).valid


@pytest.mark.parametrize("xi_order", XI_ORDERS)
def test_construct_C_properties(xi_order):
    d = _seed_design(("rate1_2x2", {"l": 1}))
    out = construct_C(d, xi_order)
    assert out.m == d.m + 1
    assert rate(out) == rate(d)
    assert len(out.partition) == 4
    assert validate_partition(out, out.partition).valid


def test_construct_B_C_need_two_groups():
    ala = catalog("alamouti").design
    with pytest.raises(ValueError):
        construct_B(ala, 0)
    with pytest.raises(ValueError):
        construct_C(ala, XI_ORDERS[0])


def test_construct_B_C_need_intra_even():
    # valid 2-group partition whose first group has an odd intra sum:
    # [0|0,0]+[0|w,0] = [0|w,0] has weight 1
    d = Design(2, (zero(2), _v(0, W, O), _v(0, I, O)), ((0, 1), (2,)))
    assert validate_partition(d, d.partition).valid
    with pytest.raises(ValueError, match="intra-group"):
        construct_B(d, 0)
    with pytest.raises(ValueError, match="intra-group"):
        construct_C(d, XI_ORDERS[0])


def test_construct_bad_parameters():
    d = _seed_design(("rate1_2x2", {"l": 1}))
    with pytest.raises(ValueError):
        construct_A(d, 3)
    with pytest.raises(ValueError):
        construct_C(d, (O, O, W, W2))


def test_apply_sigma():
    d = catalog("qod4").design
    out = apply_sigma(d, (2, 1))
    assert out.partition == d.partition
    assert out.vectors[2] == _v(0, W2, O)  # was [0|0,w2]
    assert apply_sigma(out, (2, 1)).vectors == d.vectors
    with pytest.raises(ValueError):
        apply_sigma(d, (1, 1))


def test_shift_front():
    d = construct_A(catalog("alamouti").design, 1)
    out = shift_front(d)
    assert out.vectors[0].xs == tuple(reversed(d.vectors[0].xs)) or True
    # last coordinate becomes the first
    for vin, vout in zip(d.vectors, out.vectors):
        assert vout.xs == (vin.xs[-1],) + vin.xs[:-1]


def test_designs_equivalent_basic():
    d = catalog("qod4").design
    assert designs_equivalent(d, d)
    assert designs_equivalent(d, apply_sigma(d, (2, 1)))
    assert not designs_equivalent(d, catalog("alamouti").design)


def test_designs_equivalent_compares_vector_sets_and_groups():
    # same m and K, different groups: no coordinate permutation maps one
    # onto the other
    qod4 = catalog("qod4").design
    a1 = construct_A(catalog("alamouti").design, 1)
    assert (qod4.m, qod4.K) == (a1.m, a1.K) == (2, 8)
    assert not designs_equivalent(qod4, a1)
    # designs without a partition compare their finest partitions
    silver, pavan = catalog("silver").design, catalog("pavan2x2").design
    assert silver.partition is None and pavan.partition is None
    assert designs_equivalent(silver, pavan)


def test_xi_order_equivalence_classes_reported():
    """Count distinct outputs of construct_C over all suffix orders.

    On this base the two input groups differ only in the F2 component,
    so every suffix order collapses to the same partitioned design; the
    class count is computed and reported rather than assumed.
    """
    from itertools import permutations
    base = _seed_design(("rate1_2x2", {"l": 1}))
    listed = [construct_C(base, xo) for xo in XI_ORDERS]
    classes = []
    for d in listed:
        if not any(designs_equivalent(d, r) for r in classes):
            classes.append(d)
    assert 1 <= len(classes) <= len(XI_ORDERS)
    all_orders = [construct_C(base, p) for p in permutations((O, I, W, W2))]
    full = []
    for d in all_orders:
        if not any(designs_equivalent(d, r) for r in full):
            full.append(d)
    # every order lands in a listed class
    assert len(full) == len(classes)
    print("xi-order equivalence classes on rate1_2x2(1): %d (listed orders), "
          "%d (all 24 orders)" % (len(classes), len(full)))


# ---------------------------------------------------------------------------
# catalog fidelity

def test_catalog_names_and_errors():
    names = catalog_names()
    for want in ("alamouti", "qod4", "scod", "silver", "fgd_ren"):
        assert want in names
    with pytest.raises(KeyError):
        catalog("nosuch")
    with pytest.raises(ValueError):
        catalog("scod")  # missing parameter
    with pytest.raises(ValueError):
        catalog("alamouti", l=1)


def test_alamouti_vectors():
    e = catalog("alamouti")
    assert e.design.vectors == _vecs("0|0", "0|1", "0|w", "0|w2")
    assert e.design.partition == ((0,), (1,), (2,), (3,))
    assert validate_partition(e.design, e.design.partition).valid


@pytest.mark.parametrize("l", (0, 1, 2))
def test_rate1_2x2_vectors(l):
    from stbc_forge.f4 import f4_pow_w
    e = catalog("rate1_2x2", l=l)
    wl = f4_pow_w(l)
    assert e.design.vectors == (zero(1), F4Vec(1, (wl,)),
                                F4Vec(0, (wl,)), delta(1))
    assert e.design.partition == ((0, 1), (2, 3))
    assert validate_partition(e.design, e.design.partition).valid
    assert rate(e.design) == 1


def test_qod4_vectors_and_printed_matrices():
    e = catalog("qod4")
    assert e.design.vectors == _vecs(
        "0|0,0", "1|w,w", "0|0,w2", "1|w,1",
        "0|w2,0", "1|1,w", "0|w2,w2", "1|1,1")
    assert validate_partition(e.design, e.design.partition).valid
    # printed matrices realize the stated vectors up to the recorded sign
    for ent in e.linear.entries:
        assert np.allclose(ent.matrix, ent.sign * phi_inv(ent.vector))


@pytest.mark.parametrize("m", (1, 2, 3))
def test_scod(m):
    e = catalog("scod", m=m)
    d = e.design
    assert d.K == 2 * m + 2
    assert rate(d) == Fraction(m + 1, 2 ** m)
    assert d.partition == tuple((i,) for i in range(d.K))
    assert validate_partition(d, d.partition).valid
    # orthogonal design: all weight matrices pairwise HR-orthogonal
    mats = [phi_inv(v) for v in d.vectors]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            assert hr_orthogonal_numeric(mats[i], mats[j])


def test_scod1_equals_alamouti():
    assert set(catalog("scod", m=1).design.vectors) == \
        set(catalog("alamouti").design.vectors)


@pytest.mark.parametrize("m", (1, 2, 3))
def test_ciod(m):
    e = catalog("ciod", m=m)
    d = e.design
    # inherits the orthogonal design rate, dropping below 1 for m >= 3
    assert rate(d) == Fraction(m, 2 ** (m - 1))
    assert validate_partition(d, d.partition).valid
    assert len(d.partition) == 2 * m  # single complex symbol per group
    assert all(len(g) == 2 for g in d.partition)
    # block-diagonal: two half-size blocks, zero cross blocks
    if m >= 2:
        h = 2 ** (m - 1)
        for ent in e.linear.entries:
            A = ent.matrix
            assert np.abs(A[:h, h:]).max() < 1e-12
            assert np.abs(A[h:, :h]).max() < 1e-12


def test_precoded_ciod_and_dast():
    for n in (0, 1, 2):
        e = catalog("precoded_ciod", n=n)
        U = e.notes["group_precoder"]
        assert U.shape == (2 ** n, 2 ** n)
        assert np.allclose(U.T @ U, 2 ** n * np.eye(2 ** n))
        assert len(e.design.partition) == 4
        assert validate_partition(e.design, e.design.partition).valid
        e = catalog("dast", n=n)
        assert len(e.design.partition) == 2
        assert validate_partition(e.design, e.design.partition).valid


@pytest.mark.parametrize("name, params, m", [
    ("scod", {"m": 9}, 9), ("ciod", {"m": 9}, 9),
    ("precoded_ciod", {"n": 8}, 9), ("dast", {"n": 8}, 9),
    ("dast", {"n": 13}, 14), ("ggroup", {"g": 4, "a": 8}, 9),
    ("ggroup", {"g": 19, "a": 0}, 9)])
def test_unrealizable_parameters_are_refused_before_building(name, params, m,
                                                            monkeypatch):
    # weight matrices stop at f4.MAX_M = 8; a design past it is refused
    # before any construction step, Hadamard precoder or vector is built
    calls = []
    monkeypatch.setattr(cons, "construct_A",
                        lambda *args: calls.append(args))
    given = " ".join("%s=%d" % kv for kv in params.items())
    with pytest.raises(ValueError, match="^%s %s gives m=%d; weight matrices "
                       "are realized up to m=8$" % (name, given, m)):
        catalog(name, **params)
    assert not calls


def test_largest_realizable_parameters_still_build():
    assert catalog("scod", m=8).design.m == 8
    assert catalog("ggroup", g=18, a=0).design.m == 8


@pytest.mark.parametrize("l", [-1, 3, 5])
def test_rate1_2x2_refuses_l_outside_0_1_2(l):
    # w^l would wrap l mod 3 and build another l's design
    with pytest.raises(ValueError, match=r"^l must be in \{0,1,2\}$"):
        catalog("rate1_2x2", l=l)


@pytest.mark.parametrize("g", range(2, 9))
@pytest.mark.parametrize("a", (0, 1, 2))
def test_ggroup_rate_and_shape(g, a):
    e = catalog("ggroup", g=g, a=a)
    d = e.design
    assert len(d.partition) == g
    assert all(len(grp) == 2 ** a for grp in d.partition)
    assert rate(d) == Fraction(g, 2 ** ((g + 1) // 2))
    assert validate_partition(d, d.partition).valid


def test_fgd_ren():
    e = catalog("fgd_ren")
    d = e.design
    assert d.K == 17
    assert rate(d) == Fraction(17, 8)
    assert d.vectors[0] == zero(2)
    assert all(weight(v) % 2 == 1 for v in d.vectors[1:])
    assert validate_partition(d, d.partition).valid
    ortho = e.notes["ortho_indices"]
    assert len(ortho) == 5
    mats = [phi_inv(d.vectors[i]) for i in ortho]
    for i in range(5):
        for j in range(i + 1, 5):
            assert hr_orthogonal_numeric(mats[i], mats[j])


def test_pavan2x2():
    e = catalog("pavan2x2")
    assert e.design.K == 8
    assert rate(e.design) == 2
    assert e.design.partition is None
    for ent in e.linear.entries:
        assert np.allclose(ent.matrix, ent.sign * phi_inv(ent.vector))
    # conditioning the last four reals leaves two separable pairs
    from stbc_forge.design import conditional_partition
    rep = conditional_partition(e.design, (0, 1, 2, 3))
    assert {frozenset(g) for g in rep.groups} == \
        {frozenset(g) for g in e.notes["conditional_groups"]}


def test_bhv():
    e = catalog("bhv")
    assert e.design.K == 16
    assert rate(e.design) == 2
    assert e.design.partition is None
    # first half is the quasi-orthogonal design
    qod = catalog("qod4")
    assert e.design.vectors[:8] == qod.design.vectors
    from stbc_forge.design import conditional_partition
    rep = conditional_partition(e.design, tuple(range(8)))
    assert rep.g == 4


def test_silver():
    e = catalog("silver")
    assert e.design.vectors == _vecs(
        "0|0", "0|w", "0|w2", "0|1", "1|w", "1|0", "1|1", "1|w2")
    assert e.labels == ("s1I", "s1Q", "s2I", "s2Q", "s3I", "s3Q", "s4I", "s4Q")
    for ent in e.linear.entries:
        assert np.allclose(ent.matrix, ent.sign * phi_inv(ent.vector))
    U = e.notes["pairing_unitary"]
    assert np.allclose(U, SILVER_U)
    assert np.allclose(U.conj().T @ U, np.eye(2))
    # the first four reals form an orthogonal (Alamouti) part
    mats = [ent.matrix for ent in e.linear.entries[:4]]
    for i in range(4):
        for j in range(i + 1, 4):
            assert hr_orthogonal_numeric(mats[i], mats[j])
