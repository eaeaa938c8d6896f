"""Rate-5/4 fast-group-decodable family: base, puncture, extend, plans."""

from fractions import Fraction

import numpy as np
import pytest

from stbc_forge.f4 import O, I, W, W2, F4Vec, weight, parse_vec, delta
from stbc_forge.design import (Design, validate_partition, finest_partition,
                               rate, plan_complexity)
from stbc_forge.fdfgd import (t_vector, build_base, puncture, extend,
                              pair_split, check_prop16, predicted_complexity,
                              family_plan, family_pairs, SUBSET_ORDER)
from stbc_forge.bundles import silver_stbc, assemble_stbc


def _vecs(*texts):
    return set(parse_vec(t) for t in texts)


def test_t_vector():
    assert t_vector(2) == parse_vec("0|w,w")
    assert t_vector(3) == parse_vec("0|0,w,w")
    with pytest.raises(ValueError):
        t_vector(1)


def test_base_m2_xi2_1_exact_subsets():
    fd = build_base(2, xi2=I)
    assert _vecs("0|0,0", "0|w,w") == set(fd.subset("S_A"))
    assert _vecs("0|w,0", "0|0,w") == set(fd.subset("S_B"))
    assert _vecs("1|1,1", "1|w2,w2") == set(fd.subset("S_C"))
    assert _vecs("1|w2,1", "1|1,w2") == set(fd.subset("S_D"))
    assert _vecs("1|0,0", "1|w,w") == set(fd.subset("S_E"))
    assert fd.subset("O") == ()


@pytest.mark.parametrize("m", (2, 3, 4, 5))
@pytest.mark.parametrize("xi2", (I, W2))
def test_base_sizes_and_rate(m, xi2):
    fd = build_base(m, xi2=xi2)
    assert len(fd.subset("S_A")) == 2 ** (m - 1)
    assert len(fd.subset("S_B")) == 2 ** (m - 1)
    assert fd.K == 5 * 2 ** (m - 1)
    assert fd.R == Fraction(5, 4)
    assert rate(fd.design()) == Fraction(5, 4)
    assert len(set(fd.vectors)) == fd.K


@pytest.mark.parametrize("m", (2, 3, 4, 5))
@pytest.mark.parametrize("xi2", (I, W2))
def test_two_group_decodability(m, xi2):
    # every vector outside S_A has odd weight relative to S_A members,
    # so {S1, S2} is a valid decoding partition
    fd = build_base(m, xi2=xi2)
    d = fd.design()
    assert d.partition is not None
    assert validate_partition(d, d.partition).valid


@pytest.mark.parametrize("m", (2, 3, 4, 5))
@pytest.mark.parametrize("xi2", (I, W2))
def test_four_group_rate1_subdesign(m, xi2):
    # S_A..S_D alone form a 4-group decodable rate-1 design
    fd = build_base(m, xi2=xi2)
    vs, part, at = [], [], 0
    for name in ("S_A", "S_B", "S_C", "S_D"):
        sub = fd.subset(name)
        part.append(tuple(range(at, at + len(sub))))
        vs.extend(sub)
        at += len(sub)
    d = Design(m, tuple(vs), tuple(part))
    assert rate(d) == 1
    assert validate_partition(d, d.partition).valid


@pytest.mark.parametrize("m", (2, 3, 4, 5))
@pytest.mark.parametrize("xi2", (I, W2))
def test_conditioned_groups_separate(m, xi2):
    # with S_E fixed, S_B / S_C / S_D decode independently: all cross
    # pairs among them sum to odd weight (already covered by the 4-group
    # sub-design) and S_A stays separate from everything
    fd = build_base(m, xi2=xi2)
    s_a = set(fd.subset("S_A"))
    for name in ("S_B", "S_C", "S_D", "S_E"):
        for v in fd.subset(name):
            assert all(weight(v + a) % 2 == 1 for a in s_a)


@pytest.mark.parametrize("m", (2, 3, 4, 5))
@pytest.mark.parametrize("xi2", (I, W2))
def test_t_closure_of_subsets(m, xi2):
    fd = build_base(m, xi2=xi2)
    t = fd.t
    for name in ("S_A", "S_B", "S_C", "S_D", "S_E"):
        sub = set(fd.subset(name))
        assert {v + t for v in sub} == sub


def test_build_base_errors():
    with pytest.raises(ValueError):
        build_base(1)
    with pytest.raises(ValueError):
        build_base(2, xi1=I)
    with pytest.raises(ValueError):
        build_base(2, xi2=W)


# ---------------------------------------------------------------------------
# puncture / extend

def test_puncture_to_rate1():
    fd = puncture(build_base(2), 1)
    assert fd.subset("S_E") == ()
    assert fd.K == 8
    assert finest_partition(fd.design()).g >= 4


def test_puncture_granularity_error():
    with pytest.raises(ValueError):
        puncture(build_base(2), Fraction(9, 8))  # |S_E'| = 1, not a pair


def test_puncture_m3():
    fd = puncture(build_base(3), Fraction(9, 8))
    assert len(fd.subset("S_E")) == 2  # one pair kept
    assert fd.K == 18
    d = fd.design()
    assert validate_partition(d, d.partition).valid
    # lexicographically largest pairs were removed: kept pair is smallest
    full = sorted(build_base(3).subset("S_E"))
    assert sorted(fd.subset("S_E"))[0] == full[0]


def test_puncture_range_errors():
    base = build_base(2)
    with pytest.raises(ValueError):
        puncture(base, Fraction(5, 4))
    with pytest.raises(ValueError):
        puncture(base, Fraction(7, 8))
    with pytest.raises(ValueError):
        puncture(extend(base, 2), 1)


def test_extend_m2_rate2():
    fd = extend(build_base(2), 2)
    assert len(fd.subset("O")) == 6  # 2^(m-1)(4R-5) = 2*3
    assert fd.K == 16
    assert rate(Design(2, fd.vectors)) == 2
    # O stays t-closed and disjoint from the base
    t = fd.t
    o = set(fd.subset("O"))
    assert {v + t for v in o} == o
    assert not o & set(build_base(2).vectors)


def test_extend_granularity_error():
    with pytest.raises(ValueError):
        extend(build_base(2), Fraction(17, 8))  # |O| = 7, odd
    with pytest.raises(ValueError):
        extend(build_base(2), Fraction(13, 10))  # |O| = 2/5, fractional


def test_extend_range_errors():
    base = build_base(2)
    with pytest.raises(ValueError):
        extend(base, Fraction(5, 4))
    with pytest.raises(ValueError):
        extend(base, 100)  # exceeds the ambient space


def test_extended_design_has_no_partition():
    fd = extend(build_base(2), 2)
    assert fd.design().partition is None


def test_extend_m3_17_8():
    fd = extend(build_base(3), Fraction(17, 8))
    assert len(fd.subset("O")) == 2 ** 2 * (4 * Fraction(17, 8) - 5)
    assert fd.K == 2 * 2 ** 3 * Fraction(17, 8)


# ---------------------------------------------------------------------------
# pairing and rank

def test_pair_split_round_trip():
    fd = build_base(2)
    s_i, s_q = pair_split(fd)
    assert len(s_i) == fd.K // 2
    assert set(s_i) | set(s_q) == set(fd.vectors)
    t = fd.t
    assert all(q == i + t for i, q in zip(s_i, s_q))
    assert all(i < q for i, q in zip(s_i, s_q))  # lex-smaller first


def test_pair_split_fixture():
    s_i, _sq = pair_split(build_base(2).subset("S_A"))
    assert s_i == (parse_vec("0|0,0"),)


def test_pair_split_not_closed():
    with pytest.raises(ValueError):
        pair_split(build_base(2).subset("S_A")[:1])


@pytest.mark.parametrize("m", (2, 3))
def test_check_prop16_spot(m):
    from stbc_forge.f4 import enumerate_all
    for v in enumerate_all(m):
        assert check_prop16(v)


def test_check_prop16_error():
    with pytest.raises(ValueError):
        check_prop16(F4Vec(0, (O,)))


# ---------------------------------------------------------------------------
# complexity

@pytest.mark.parametrize("m,R,want", [
    (1, 2, "M^2"),
    (2, Fraction(5, 4), "3·M^1.5"),
    (2, Fraction(3, 2), "3·M^2.5"),
    (2, 2, "3·M^4.5"),
    (2, 3, "3·M^8.5"),
    (2, 4, "3·M^12.5"),
    (3, Fraction(5, 4), "3·M^3.5"),
    (3, 2, "3·M^9.5"),
    (3, Fraction(17, 8), "3·M^10.5"),
    (3, 3, "3·M^17.5"),
    (3, 4, "3·M^25.5"),
    (3, 5, "3·M^33.5"),
    (3, 6, "3·M^41.5"),
])
def test_predicted_complexity_table(m, R, want):
    assert str(predicted_complexity(m, R)) == want


def test_predicted_complexity_m1():
    assert str(predicted_complexity(1, 1)) == "M^0"
    assert str(predicted_complexity(1, Fraction(3, 2))) == "M^1"


def test_predicted_complexity_errors():
    with pytest.raises(ValueError):
        predicted_complexity(1, 3)
    with pytest.raises(ValueError):
        predicted_complexity(2, 1)
    with pytest.raises(ValueError):
        predicted_complexity(2, 5)


@pytest.mark.parametrize("m,R", [
    (2, Fraction(5, 4)), (2, Fraction(3, 2)), (2, 2),
    (3, Fraction(5, 4)), (3, 2), (3, Fraction(17, 8)),
])
def test_family_plan_matches_prediction(m, R):
    base = build_base(m)
    fd = base if R == Fraction(5, 4) else extend(base, R)
    assert plan_complexity(family_plan(fd)).terms == \
        predicted_complexity(m, R).terms


def test_family_plan_rate1():
    fd = puncture(build_base(2), 1)
    rep = plan_complexity(family_plan(fd))
    # four hard-limited pairs under an empty conditioning
    assert rep.terms == ((4, Fraction(1, 2)),)


def test_family_pairs():
    fd = build_base(2)
    pairs = family_pairs(fd)
    assert pairs == tuple((i, i + 1) for i in range(0, 10, 2))
    vs = fd.vectors
    assert all(vs[q] == vs[i] + fd.t for i, q in pairs)


# ---------------------------------------------------------------------------
# assembled instances

def test_assemble_stbc_explicit_angles():
    fd = build_base(2)
    stbc = assemble_stbc(fd, [0.1] * 5, 4)
    assert stbc.linear.K == 10
    assert stbc.count == 4 ** 5
    assert plan_complexity(stbc.plan).terms == \
        predicted_complexity(2, Fraction(5, 4)).terms
    with pytest.raises(ValueError):
        assemble_stbc(fd, [0.1] * 4, 4)


@pytest.mark.parametrize("R,count,evals", [
    (1, 16, 1),
    (Fraction(3, 2), 64, 4),
    (2, 256, 16),
])
def test_silver_stbc_counts(R, count, evals):
    stbc = silver_stbc(4, R)
    assert stbc.count == count
    assert plan_complexity(stbc.plan).evaluate(4) == evals
    assert plan_complexity(stbc.plan).evaluate(4) == \
        4 ** (2 * (Fraction(R) - 1))


def test_silver_stbc_bad_rate():
    with pytest.raises(ValueError):
        silver_stbc(4, Fraction(5, 4))
