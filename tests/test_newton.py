"""Laws of the one Newton lift, ``modmat.inverse_root``, and of its two
callers: ``mat_inv`` (k = 1) and ``roots.congruence_root`` (k prime to p).
The level-by-level lift that congruence_root used before is kept here as
the reference its roots must equal."""
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from ppm import modmat
from ppm.errors import InternalInvariantViolation
from ppm.linalg import QMatrix
from ppm.qpcore import PContext
from ppm.roots import FOUND, PadicApproxMatrix, congruence_root

SETTINGS = settings(max_examples=60, deadline=None)


def _square(n, cell):
    return st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n).map(
        lambda rows: tuple(map(tuple, rows)))


def level_by_level_root(a, k, p, level):
    """X with X^k = a mod p^level in 1 + pM (1 + 4M at p = 2), lifted one
    level at a time: X' = X(1 + p^m Y) with k Y = (a - X^k) / p^m mod p."""
    base = 2 if p == 2 else 1
    n = len(a)
    ident = modmat.identity_mat(n)
    if level <= base:
        return ident
    mod = p ** level
    kinv = pow(k, -1, p)
    x = ident
    for m in range(base, level):
        xk = modmat.mat_pow(x, k, mod)
        step = p ** m
        assert all((ae - xe) % step == 0 for ra, rx in zip(a, xk) for ae, xe in zip(ra, rx))
        defect = tuple(tuple(((ae - xe) // step) % p for ae, xe in zip(ra, rx))
                       for ra, rx in zip(a, xk))
        bump = tuple(tuple((int(i == j) + step * (kinv * d % p)) % mod for j, d in enumerate(row))
                     for i, row in enumerate(defect))
        x = modmat.mat_mul(x, bump, mod)
    return x


@st.composite
def congruence_cases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 3))
    level = draw(st.integers(1, 40))
    k = draw(st.integers(1, 40).filter(lambda k: gcd(k, p) == 1))
    mod = p ** level
    unit = 4 if p == 2 else p
    b = draw(_square(n, st.integers(0, mod - 1)))
    a = tuple(tuple((int(i == j) + unit * x) % mod for j, x in enumerate(row))
              for i, row in enumerate(b))
    return p, a, k, level


@SETTINGS
@given(case=congruence_cases())
def test_congruence_root_is_the_level_by_level_root(case):
    p, a, k, level = case
    res = congruence_root(PadicApproxMatrix(PContext(p), level, a), k)
    assert res.status == FOUND
    x = res.root.entries
    assert x == level_by_level_root(a, k, p, level)
    unit = 4 if p == 2 else p
    assert modmat.reduce_mat(x, unit) == modmat.identity_mat(len(a))


@st.composite
def seeded_cases(draw):
    """(a, k, seed, p, m) with a seed^k = 1 mod p and the seed commuting
    with a mod p^m: a = c^(-k) (1 + p c^2) and seed = c, c invertible mod p."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 40))
    k = draw(st.integers(1, 40).filter(lambda k: gcd(k, p) == 1))
    mod = p ** m
    c = draw(_square(n, st.integers(0, mod - 1)).filter(
        lambda c: modmat.invertible_mod(c, p)))
    one_plus = tuple(tuple((int(i == j) + p * x) % mod for j, x in enumerate(row))
                     for i, row in enumerate(modmat.mat_mul(c, c, mod)))
    a = modmat.mat_mul(modmat.mat_inv(modmat.mat_pow(c, k, mod), p, m), one_plus, mod)
    return a, k, c, p, m


@SETTINGS
@given(case=seeded_cases())
def test_inverse_root_lifts_its_seed(case):
    a, k, seed, p, m = case
    mod = p ** m
    y = modmat.inverse_root(a, k, seed, p, m)
    assert modmat.mat_mul(a, modmat.mat_pow(y, k, mod), mod) == modmat.identity_mat(len(a))
    assert modmat.reduce_mat(y, p) == modmat.reduce_mat(seed, p)


@st.composite
def invertible_cases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 40))
    a = draw(_square(n, st.integers(0, p ** m - 1)).filter(
        lambda a: modmat.invertible_mod(a, p)))
    return a, p, m


@SETTINGS
@given(case=invertible_cases())
def test_inverse_root_at_k_one_is_the_inverse(case):
    a, p, m = case
    mod = p ** m
    y = modmat.inverse_root(a, 1, modmat.mat_inv(a, p, 1), p, m)
    assert y == modmat.mat_inv(a, p, m)
    ident = modmat.identity_mat(len(a))
    assert modmat.mat_mul(a, y, mod) == ident == modmat.mat_mul(y, a, mod)


def test_congruence_root_powers_logarithmically_often(monkeypatch):
    real_pow = modmat.mat_pow
    calls = []

    def counted(a, e, mod):
        calls.append(e)
        return real_pow(a, e, mod)

    monkeypatch.setattr(modmat, "mat_pow", counted)
    res = congruence_root(PadicApproxMatrix(PContext(3, 100), 100, ((4, 3), (6, 7))), 5)
    assert res.status == FOUND
    assert len(calls) <= 10  # ceil(log2 100) + 1 residual checks, y^(k-1), the final check


def test_a_newton_lift_that_does_not_converge_is_an_invariant_violation():
    # 2 is no inverse of 1 mod 5: y <- y(2 - y) runs 2, 0, 0, ...
    with pytest.raises(InternalInvariantViolation):
        modmat.inverse_root(((1,),), 1, ((2,),), 5, 8)


def test_square_and_multiply_makes_no_wasted_product(monkeypatch):
    real_mul = modmat.mat_mul
    calls = []

    def counted(a, b, mod):
        calls.append(mod)
        return real_mul(a, b, mod)

    monkeypatch.setattr(modmat, "mat_mul", counted)
    a = ((1, 2), (3, 5))
    assert modmat.mat_pow(a, 2, 9) == real_mul(a, a, 9)
    assert len(calls) == 1
    calls.clear()
    modmat.mat_pow(a, 19, 9)
    assert len(calls) == 6  # four squarings, two products for the set bits below the top
    assert modmat.mat_pow(a, 0, 9) == modmat.identity_mat(2)
    assert modmat.mat_pow(((10, 11), (12, 13)), 1, 9) == ((1, 2), (3, 4))


# sizes on both sides of mat_mul's unroll limit; det != 0, so each q below is invertible
POWER_BASES = {
    1: ((-3,),),
    2: ((1, 2), (3, -5)),
    3: ((1, 2, 0), (3, 5, 7), (2, 0, 1)),
    4: ((2, -1, 0, 3), (1, 4, 2, 0), (0, 3, -2, 1), (5, 0, 1, 1)),
    5: ((1, 0, 2, 0, -1), (3, 1, 0, 4, 0), (0, -2, 1, 0, 3), (2, 0, 0, 1, 1), (0, 1, 3, -1, 2)),
}


@pytest.mark.parametrize("n", sorted(POWER_BASES))
def test_powers_agree_with_repeated_products(n):
    a = POWER_BASES[n]
    out = modmat.identity_mat(n)
    for e in range(40):
        assert modmat.mat_pow(a, e, 25) == out
        out = modmat.mat_mul(out, a, 25)
    q = QMatrix([[F(x, 2) for x in row] for row in a])
    out = QMatrix.identity(n)
    for e in range(20):
        assert q ** e == out
        assert q ** -e == out.inverse()
        out = out * q
