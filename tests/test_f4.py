"""GF(4) element arithmetic and F2 + F4^m vector behavior."""

import itertools

import pytest

from stbc_forge.f4 import (O, I, W, W2, f4_add, f4_mul, f4_pow_w, F4Vec,
                           add, weight, zero, delta, enumerate_all,
                           format_vec, parse_vec)

ELEMS = (O, I, W, W2)


def test_addition_table():
    # characteristic 2: x + x = 0, 1 + w = w2
    assert f4_add(I, W) == W2
    assert f4_add(W, W2) == I
    assert f4_add(I, W2) == W
    for a in ELEMS:
        assert f4_add(a, a) == O
        assert f4_add(a, O) == a


def test_multiplication_table():
    assert f4_mul(W, W) == W2
    assert f4_mul(W, W2) == I
    assert f4_mul(W2, W2) == W
    for a in ELEMS:
        assert f4_mul(a, I) == a
        assert f4_mul(a, O) == O


def test_field_axioms_exhaustive():
    for a, b, c in itertools.product(ELEMS, repeat=3):
        assert f4_add(a, b) == f4_add(b, a)
        assert f4_mul(a, b) == f4_mul(b, a)
        assert f4_add(f4_add(a, b), c) == f4_add(a, f4_add(b, c))
        assert f4_mul(f4_mul(a, b), c) == f4_mul(a, f4_mul(b, c))
        assert f4_mul(a, f4_add(b, c)) == f4_add(f4_mul(a, b), f4_mul(a, c))


def test_pow_w():
    assert f4_pow_w(0) == I
    assert f4_pow_w(1) == W
    assert f4_pow_w(2) == W2
    assert f4_pow_w(3) == I


def test_vector_add_and_weight():
    v1 = F4Vec(0, (W, O))
    v2 = F4Vec(1, (W, W2))
    s = v1 + v2
    assert s == F4Vec(1, (O, W2))
    assert add(v1, v2) == s
    assert weight(s) == 2
    assert weight(zero(3)) == 0
    assert weight(delta(3)) == 1
    assert weight(F4Vec(1, (I, W, W2))) == 4


def test_vector_add_self_is_zero():
    for v in enumerate_all(2):
        assert v + v == zero(2)


def test_vector_dimension_mismatch():
    with pytest.raises(ValueError):
        F4Vec(0, (O,)) + F4Vec(0, (O, O))


def test_vector_validation():
    with pytest.raises(ValueError):
        F4Vec(2, (O,))
    with pytest.raises(ValueError):
        F4Vec(0, (4,))


def test_enumerate_all():
    vs = enumerate_all(2)
    assert len(vs) == 32
    assert len(set(vs)) == 32
    assert vs[0] == zero(2)
    assert vs == sorted(vs)  # lexicographic order
    with pytest.raises(ValueError):
        enumerate_all(0)
    with pytest.raises(ValueError):
        enumerate_all(9)


def test_lex_order():
    assert zero(1) < delta(1)
    assert F4Vec(0, (O, I)) < F4Vec(0, (O, W))
    assert F4Vec(0, (W2, O)) < F4Vec(1, (O, O))


def test_format_parse_round_trip():
    for v in enumerate_all(2):
        assert parse_vec(format_vec(v)) == v
    assert format_vec(F4Vec(1, (W, W2))) == "1|w,w2"
    assert parse_vec(" 0| w , w2 ") == F4Vec(0, (W, W2))


def test_parse_errors():
    for bad in ("1", "2|w", "1|", "0|q", "0|w;w"):
        with pytest.raises(ValueError):
            parse_vec(bad)
