"""Partitions, rate, and decode-plan complexity accounting."""

from fractions import Fraction

import pytest

from stbc_forge.f4 import O, I, W, W2, F4Vec, zero, delta
from stbc_forge.design import (Design, finest_partition, validate_partition,
                               rate, conditional_partition, Leaf, Cond,
                               JOINT, HARD_LAST, HARD_ALL, check_plan,
                               plan_complexity, format_term, to_linear_design,
                               matrix_form)
from stbc_forge.constructions import catalog


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


def test_format_term():
    assert format_term(1, 1) == "M^1"
    assert format_term(3, Fraction(9, 2)) == "3·M^4.5"
    assert format_term(5, 6) == "5·M^6"


def test_linear_design_and_matrix_form():
    import numpy as np
    d = catalog("alamouti").design
    ld = to_linear_design(d)
    assert ld.K == 4 and ld.N == 2
    X = matrix_form(ld, [1.0, 2.0, 3.0, 4.0])
    want = sum(c * ld.entries[i].matrix for i, c in enumerate([1, 2, 3, 4]))
    assert np.allclose(X, want)
    with pytest.raises(ValueError):
        matrix_form(ld, [1.0])
