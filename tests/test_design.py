"""Partitions, rate, and decode-plan complexity accounting."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stbc_forge.f4 import O, I, W, W2, F4Vec, zero, delta, weight, code
from stbc_forge.design import (Design, finest_partition, validate_partition,
                               rate, conditional_partition, Leaf, Cond,
                               JOINT, HARD_LAST, HARD_ALL, check_plan,
                               plan_complexity, format_term, to_linear_design,
                               matrix_form, components, even_table,
                               groups_of, from_groups)
from stbc_forge.constructions import catalog
from stbc_forge.fdfgd import family


def _v(lam, *xs):
    return F4Vec(lam, tuple(xs))


def test_design_validation():
    with pytest.raises(ValueError):
        Design(1, (zero(1), zero(1)))  # duplicates
    with pytest.raises(ValueError):
        Design(2, (zero(1),))  # wrong m
    with pytest.raises(ValueError):
        Design(1, (zero(1), delta(1)), ((0,),))  # partition not covering
    with pytest.raises(ValueError):
        Design(1, (zero(1), delta(1)), ((0,), (), (1,)))  # empty group


def test_finest_partition_alamouti():
    rep = finest_partition(catalog("alamouti").design)
    assert rep.groups == ((0,), (1,), (2,), (3,))
    assert rep.valid


def test_finest_partition_qod4():
    d = catalog("qod4").design
    rep = finest_partition(d)
    assert rep.g == 4
    assert sorted(len(g) for g in rep.groups) == [2, 2, 2, 2]
    # finest partition refines (here: equals) the stored one
    assert {frozenset(g) for g in rep.groups} == \
        {frozenset(g) for g in d.partition}


def test_validate_partition_witness():
    # [0|0]+[0|w] and [0|0]+[1|0] are odd weight (separable);
    # [0|w]+[1|0] = [1|w] is even, so 1 and 2 must share a group
    d = Design(1, (zero(1), _v(0, W), delta(1)))
    assert validate_partition(d, ((0,), (1, 2))).valid
    assert validate_partition(d, ((0, 1, 2),)).valid
    for bad_part in (((0,), (1,), (2,)), ((0, 2), (1,)), ((0, 1), (2,))):
        bad = validate_partition(d, bad_part)
        assert not bad.valid
        assert bad.witness == (1, 2)


# ---------------------------------------------------------------------------
# the parity table against pairwise weights

def _even(d, i, j):
    return weight(d.vectors[i] + d.vectors[j]) % 2 == 0


def _union_find_partition(d):
    """Components over even-sum pairs by union-find, groups ordered by
    their smallest member."""
    parent = list(range(d.K))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i
    for i in range(d.K):
        for j in range(i + 1, d.K):
            if _even(d, i, j):
                ri, rj = find(i), find(j)
                parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(d.K):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(groups[r]) for r in sorted(groups))


# multi-group designs, whose sub-designs have several components
_STRUCTURED = [catalog(name).design for name in ("qod4", "fgd_ren")] + \
    [family(m, R).design() for m in (2, 3, 4)
     for R in (1, Fraction(5, 4), Fraction(3, 2))]


@st.composite
def _designs_and_labels(draw):
    if draw(st.booleans()):
        m = draw(st.integers(1, 6))
        vec = st.builds(F4Vec, st.integers(0, 1),
                        st.tuples(*[st.sampled_from((O, I, W, W2))] * m))
        vs = draw(st.lists(vec, min_size=1, max_size=48, unique=True))
    else:
        d = draw(st.sampled_from(_STRUCTURED))
        m = d.m
        order = draw(st.permutations(range(d.K)))
        n = draw(st.integers(1, min(d.K, 48)))
        vs = [d.vectors[i] for i in order[:n]]
    labels = draw(st.lists(st.integers(0, 3), min_size=len(vs),
                           max_size=len(vs)))
    return Design(m, tuple(vs)), labels


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_designs_and_labels())
def test_parity_table_partition_and_witness(case):
    d, labels = case
    even = even_table(d)
    assert even.shape == (d.K, d.K) and even.dtype == bool
    assert [[bool(e) for e in row] for row in even] == \
        [[_even(d, i, j) for j in range(d.K)] for i in range(d.K)]
    assert finest_partition(d).groups == _union_find_partition(d)
    part = [tuple(i for i in range(d.K) if labels[i] == g) for g in range(4)]
    part = [g for g in part if g]
    want = next(((i, j) for i in range(d.K) for j in range(i + 1, d.K)
                 if labels[i] != labels[j] and _even(d, i, j)), None)
    rep = validate_partition(d, part)
    assert rep.valid == (want is None)
    assert rep.witness == want


def test_code_and_parity_table_read_numpy_integer_coordinates():
    # F4Vec accepts numpy integers; packing must not wrap at their fixed
    # width, so codes and the parity table match the int vectors'
    assert code(F4Vec(0, (np.int8(W2),) * 4)) == 255
    d = family(4, 1).design()
    for dtype in (np.int8, np.uint8, np.int64):
        vs = tuple(F4Vec(dtype(v.lam), tuple(map(dtype, v.xs)))
                   for v in d.vectors)
        codes = [code(v) for v in vs]
        assert codes == [code(v) for v in d.vectors]
        assert all(type(c) is int for c in codes)
        assert np.array_equal(even_table(Design(d.m, vs)), even_table(d))


def test_components_orders_groups_by_smallest_member():
    # a path through 0..11 in scrambled order, which one round of
    # min-labels cannot settle, the path 15-13-14-12 and the isolated 16
    adj = [[False] * 17 for _ in range(17)]
    for path in ((9, 3, 8, 4, 7, 5, 6, 0, 11, 1, 10, 2), (15, 13, 14, 12)):
        for i, j in zip(path, path[1:]):
            adj[i][j] = adj[j][i] = True
    assert ([g.tolist() for g in components(adj)]
            == [list(range(12)), [12, 13, 14, 15], [16]])
    assert [g.tolist() for g in components([[False]])] == [[0]]
    assert components(np.zeros((0, 0), bool)) == []


def test_rate():
    assert rate(catalog("alamouti").design) == 1
    assert rate(catalog("qod4").design) == 1
    assert rate(catalog("fgd_ren").design) == Fraction(17, 8)


def test_conditional_partition():
    d = catalog("fgd_ren").design
    sub = catalog("fgd_ren").notes["ortho_indices"]
    rep = conditional_partition(d, sub)
    assert rep.g == len(sub)  # mutually HR-orthogonal once conditioned
    with pytest.raises(ValueError):
        conditional_partition(d, ())
    with pytest.raises(ValueError):
        conditional_partition(d, tuple(range(d.K)))


@pytest.mark.parametrize("name", ["fgd_ren", "qod4"])
def test_conditional_partition_is_the_sub_designs_finest(name):
    # reference: the sub-design on gamma, in gamma's order, searched anew
    d = catalog(name).design
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, d.K))
        gamma = tuple(rng.permutation(d.K)[:n].tolist())
        sub = Design(d.m, tuple(d.vectors[i] for i in gamma))
        want = tuple(tuple(gamma[i] for i in grp)
                     for grp in finest_partition(sub).groups)
        assert conditional_partition(d, gamma).groups == want, gamma


def test_leaf_and_cond_validation():
    with pytest.raises(ValueError):
        Leaf((0,), "bogus")
    with pytest.raises(ValueError):
        Leaf(())
    with pytest.raises(ValueError):
        Cond((0,), ())
    with pytest.raises(ValueError):
        check_plan(Leaf((0, 1)), 3)
    with pytest.raises(ValueError):
        check_plan(Cond((0,), (Leaf((0, 1)),)), 2)


def test_joint_leaf_terms():
    rep = plan_complexity(Leaf((0, 1, 2, 3), JOINT))
    assert rep.terms == ((1, Fraction(2)),)
    assert rep.evaluate(4) == 16
    assert str(rep) == "M^2"


def test_g_group_joint_plan():
    # g groups of 2k reals each scan gM^k candidates in total
    g, k = 4, 2
    plan = Cond((), tuple(Leaf(tuple(range(2 * k * i, 2 * k * (i + 1))), JOINT)
                          for i in range(g)))
    rep = plan_complexity(plan)
    assert rep.terms == ((g, Fraction(k)),)
    assert rep.evaluate(16) == g * 16 ** k
    assert str(rep) == "4·M^2"


def test_g_group_hard_last_plan():
    # hard-limiting the last real saves a factor sqrt(M) per group
    g, k = 2, 3
    plan = Cond((), tuple(Leaf(tuple(range(2 * k * i, 2 * k * (i + 1))),
                               HARD_LAST) for i in range(g)))
    rep = plan_complexity(plan)
    assert rep.terms == ((g, Fraction(2 * k - 1, 2)),)
    assert rep.evaluate(4) == g * 2 ** (2 * k - 1)
    assert str(rep) == "2·M^2.5"


def test_cond_multiplies_children():
    plan = Cond((0, 1), (Leaf((2, 3), HARD_LAST), Leaf((4, 5), JOINT)))
    rep = plan_complexity(plan)
    assert rep.terms == ((1, Fraction(2)), (1, Fraction(3, 2)))
    assert rep.evaluate(4) == 16 + 8


def test_hard_all_leaf():
    rep = plan_complexity(Leaf((0, 1, 2, 3), HARD_ALL))
    assert rep.terms == ((1, Fraction(0)),)
    assert rep.evaluate(16) == 1


def test_terms_merge():
    plan = Cond((), (Leaf((0, 1), JOINT), Leaf((2, 3), JOINT),
                     Leaf((4,), JOINT)))
    rep = plan_complexity(plan)
    assert rep.terms == ((2, Fraction(1)), (1, Fraction(1, 2)))
    assert rep.coefficient == 2 and rep.exponent == 1


def test_evaluate_requires_square():
    rep = plan_complexity(Leaf((0, 1), JOINT))
    with pytest.raises(ValueError):
        rep.evaluate(8)


@pytest.mark.parametrize("M", [0, 1, 2])
def test_evaluate_checks_the_qam_size(M):
    # qod4's plan, four 2-real joint leaves, would count 4 * M
    plan = Cond((), tuple(Leaf(g, JOINT)
                          for g in ((0, 6), (1, 7), (2, 4), (3, 5))))
    with pytest.raises(ValueError, match="^QAM size M=%d is not a perfect "
                       "square of at least 4$" % M):
        plan_complexity(plan).evaluate(M)


def test_groups_of_validates_the_design_partition():
    # [1|0] + [0|w] has even weight, so 0 and 1 must share a group
    vs = (F4Vec(1, (O,)), F4Vec(0, (W,)), F4Vec(0, (O,)))
    assert groups_of(Design(1, vs)) == finest_partition(Design(1, vs)).groups
    assert groups_of(Design(1, vs, ((0, 1, 2),))) == ((0, 1, 2),)
    with pytest.raises(ValueError, match=r"^invalid partition: even-sum "
                       r"cross pair \(0, 1\)$"):
        groups_of(Design(1, vs, ((0,), (1, 2))))


def test_from_groups_partitions_the_vectors_by_group():
    # the groups' vectors in turn, each group one block of the partition;
    # the constructions and the design-file parser both build this way
    vs = (F4Vec(1, (O,)), F4Vec(0, (W,)), F4Vec(0, (O,)))
    assert from_groups(1, [vs[:2], vs[2:]]) == Design(1, vs, ((0, 1), (2,)))
    assert from_groups(1, [vs]) == Design(1, vs, ((0, 1, 2),))
    with pytest.raises(ValueError, match="empty group"):
        from_groups(1, [vs, ()])


def test_format_term():
    assert format_term(1, 1) == "M^1"
    assert format_term(3, Fraction(9, 2)) == "3·M^4.5"
    assert format_term(5, 6) == "5·M^6"


def test_linear_design_and_matrix_form():
    d = catalog("alamouti").design
    ld = to_linear_design(d)
    assert ld.K == 4 and ld.N == 2
    X = matrix_form(ld, [1.0, 2.0, 3.0, 4.0])
    want = sum(c * ld.entries[i].matrix for i, c in enumerate([1, 2, 3, 4]))
    assert np.allclose(X, want)
    with pytest.raises(ValueError):
        matrix_form(ld, [1.0])
