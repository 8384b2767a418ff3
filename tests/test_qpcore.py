from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from ppm.errors import NotPIntegral
from ppm.linalg import Lattice, QMatrix
from ppm.qpcore import INFINITY, PContext, ResidueScalar, as_fraction, format_scalar, \
    is_prime, parse_scalar, reduce_mod, vp

CTX3 = PContext(3)
CTX5 = PContext(5)

nonzero_rationals = st.fractions(min_value=-10**6, max_value=10**6,
                                 max_denominator=10**6).filter(lambda x: x != 0)


def test_vp_of_zero_is_the_distinguished_infinity():
    v = vp(0, CTX3)
    assert v is INFINITY
    assert v > 10**9
    assert not (v < 5)
    assert v + 3 is INFINITY


def test_vp_examples():
    assert vp(F(1, 3), CTX3) == -1
    assert vp(F(18, 5), CTX3) == 2  # 18 = 2 * 3^2
    assert vp(45, CTX3) == 2
    assert vp(F(-8, 9), PContext(2)) == 3


@given(x=nonzero_rationals, y=nonzero_rationals)
def test_vp_is_multiplicative(x, y):
    assert vp(x * y, CTX3) == vp(x, CTX3) + vp(y, CTX3)


@given(x=nonzero_rationals, y=nonzero_rationals)
def test_vp_ultrametric(x, y):
    if x + y == 0:
        return
    vx, vy = vp(x, CTX5), vp(y, CTX5)
    assert vp(x + y, CTX5) >= min(vx, vy)
    if vx != vy:
        assert vp(x + y, CTX5) == min(vx, vy)


def test_reduce_mod_examples():
    assert reduce_mod(F(1, 2), 2, CTX3) == ResidueScalar(5, 2, 3)  # 2 * 5 = 10 = 1 mod 9
    assert reduce_mod(0, 3, CTX5).value == 0
    with pytest.raises(NotPIntegral):
        reduce_mod(F(1, 3), 1, CTX3)


@given(x=st.fractions(max_denominator=500), y=st.fractions(max_denominator=500),
       m=st.integers(min_value=1, max_value=6))
def test_reduce_mod_is_a_ring_homomorphism(x, y, m):
    p = 5
    ctx = PContext(p)
    if x.denominator % p == 0 or y.denominator % p == 0 \
            or (x + y).denominator % p == 0 or (x * y).denominator % p == 0:
        return
    mod = p ** m
    rx, ry = reduce_mod(x, m, ctx).value, reduce_mod(y, m, ctx).value
    assert reduce_mod(x + y, m, ctx).value == (rx + ry) % mod
    assert reduce_mod(x * y, m, ctx).value == (rx * ry) % mod


def test_context_rejects_composites_and_bad_precision():
    with pytest.raises(ValueError):
        PContext(4)
    with pytest.raises(ValueError):
        PContext(1)
    with pytest.raises(ValueError):
        PContext(3, 0)
    assert PContext(2).p == 2
    assert PContext(1_000_003).p == 1_000_003


def test_is_prime_basics():
    primes = [2, 3, 5, 7, 11, 97, 7919]
    assert all(is_prime(q) for q in primes)
    assert not any(is_prime(q) for q in [0, 1, 4, 9, 91, 7917])


def test_scalar_parse_and_format_roundtrip():
    for text in ["3", "-7", "1/2", "-18/5", "+4"]:
        x = parse_scalar(text)
        assert parse_scalar(format_scalar(x)) == x
    with pytest.raises(ValueError):
        parse_scalar("a/b")
    with pytest.raises(ValueError):
        parse_scalar("1/0")


def test_booleans_are_not_scalars():
    # bool is a subclass of int, so QMatrix([[True]]) could pass as [[1]]
    for build in (lambda x: as_fraction(x), lambda x: QMatrix([[x]]),
                  lambda x: QMatrix.diagonal([1, x]), lambda x: Lattice(CTX3, [[x]]),
                  lambda x: QMatrix([[1]]) * x):
        for x in (True, False):
            with pytest.raises(TypeError):
                build(x)
    assert as_fraction(1) == 1 and QMatrix([[0]]).rows == ((0,),)


def test_parse_scalar_rejects_decimals_and_exponents():
    for text in ["1.5", "1e3", "1E3", "-2.0", ".5", "1/2.5", "3/1e1", "inf", "nan", " "]:
        with pytest.raises(ValueError):
            parse_scalar(text)
    assert parse_scalar(" -3/4 ") == F(-3, 4)
    assert parse_scalar("+12") == 12
