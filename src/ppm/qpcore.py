"""Exact scalar arithmetic: rationals, p-adic valuations, residue levels.

All computation is exact: scalars are ``fractions.Fraction`` or ints, never
bools, and matrices and lattices are integers over a common denominator.
p-adic data enters only through the valuation ``vp`` and through residue
reductions mod p^m, so no rounding can occur anywhere upstream.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import NotPIntegral

Scalar = Union[int, Fraction]


class PAdicInfinity:
    """The valuation of zero. A distinguished value, not a big integer.

    Compares above every integer and Fraction; adding an integer yields
    infinity again (v(0 * x) = v(0)). Any other arithmetic is a bug and
    raises via the default object behaviour.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "+inf"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("ppm.PAdicInfinity")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        if isinstance(other, (int, Fraction)) or other is self:
            return self
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        raise ArithmeticError("negative infinite valuation has no meaning here")


INFINITY = PAdicInfinity()

ExtendedInt = Union[int, PAdicInfinity]

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality check for n below the Miller-Rabin limit."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n == q:
            return True
        if n % q == 0:
            return False
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} exceeds the deterministic primality range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, slots=True)
class PContext:
    """A fixed prime p and the working residue precision N.

    precision_n only bounds *outputs* that are typed as residue data;
    exact operations ignore it.
    """

    p: int
    precision_n: int = 20

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.precision_n < 1:
            raise ValueError("precision_n must be >= 1")


def as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


_SCALAR = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_scalar(text: str) -> Fraction:
    """Parse "a/b" or "a" with optional sign, exact. Decimal points and
    exponents are outside the grammar and rejected, not rounded."""
    if _SCALAR.fullmatch(text.strip()):
        try:
            return Fraction(text)
        except ZeroDivisionError:
            pass
    raise ValueError(f"cannot parse scalar {text!r}")


def format_scalar(x: Scalar) -> str:
    x = as_fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def vp_int(n: int, p: int) -> ExtendedInt:
    """Valuation of an integer; INFINITY for zero."""
    if n == 0:
        return INFINITY
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_frac(x: Fraction, p: int) -> ExtendedInt:
    """Valuation of a rational at the prime p; INFINITY for zero."""
    if x == 0:
        return INFINITY
    return vp_int(x.numerator, p) - vp_int(x.denominator, p)


def vp(x: Scalar, ctx: PContext) -> ExtendedInt:
    """p-adic valuation. v(0) = +inf, |x|_p = p^(-v(x))."""
    return vp_frac(as_fraction(x), ctx.p)


@dataclass(frozen=True, slots=True)
class ResidueScalar:
    """An integer reduced mod p^level."""

    value: int
    level: int
    p: int

    def __post_init__(self):
        if not 0 <= self.value < self.p ** self.level:
            raise ValueError("residue value out of range")

    def __str__(self):
        return f"{self.value} (mod {self.p}^{self.level})"


def reduce_mod(x: Scalar, m: int, ctx: PContext) -> ResidueScalar:
    """Reduce a p-integral scalar mod p^m via the denominator's inverse.

    Raises NotPIntegral when v_p(x) < 0.
    """
    x = as_fraction(x)
    if m < 1:
        raise ValueError("level must be >= 1")
    den = x.denominator
    if den % ctx.p == 0:
        raise NotPIntegral(f"{format_scalar(x)} has negative {ctx.p}-adic valuation")
    mod = ctx.p ** m
    value = x.numerator * pow(den, -1, mod) % mod
    return ResidueScalar(value, m, ctx.p)
