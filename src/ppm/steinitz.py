"""Supernatural (Steinitz) numbers and pro-orders of catalog compact groups.

A supernatural number is a formal product of p^n(p) with n(p) a positive
integer or qpcore.INFINITY, stored as one sorted tuple of (prime, exponent)
pairs. Products add exponents and lcm takes their maximum, both through
one merge. These house the orders of profinite groups, and the coprimality
test against them decides surjectivity of the power maps there.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from math import prod
from operator import add

from .errors import UnknownCatalogEntry
from .qpcore import INFINITY, is_prime


def _factor(n: int) -> dict:
    if n < 1:
        raise ValueError("can only factor positive integers")
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _merge(pairs, combine) -> "Supernatural":
    """Combine the exponents of each prime over (prime, exponent) pairs; a
    prime not seen yet has exponent 0, which neither add nor max changes."""
    exps = {}
    for p, e in pairs:
        exps[p] = combine(exps.get(p, 0), e)
    out = object.__new__(Supernatural)
    object.__setattr__(out, "factors", tuple(sorted(exps.items())))
    return out


@dataclass(frozen=True, init=False)
class Supernatural:
    """Formal product over primes with exponents in N or infinity.

    Built from finite (prime, exponent) pairs with exponent >= 1 (0 is
    dropped) and infinite primes; a repeated prime multiplies, and a prime
    may not be both finite and infinite. factors holds the sorted (prime,
    exponent) pairs, each exponent an int >= 1 or INFINITY. The empty
    product is 1.
    """

    factors: tuple

    def __init__(self, finite=(), infinite=()):
        finite = [(int(p), int(e)) for p, e in finite if e]
        infinite = [(int(p), INFINITY) for p in infinite]
        if any(e < 1 for _, e in finite):
            raise ValueError("finite exponents must be positive")
        if {p for p, _ in finite} & {p for p, _ in infinite}:
            raise ValueError("a prime cannot be both finite and infinite")
        for p, _ in finite + infinite:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "factors", _merge(finite + infinite, add).factors)

    @classmethod
    def one(cls) -> "Supernatural":
        return cls()

    @classmethod
    def from_int(cls, n: int) -> "Supernatural":
        return cls(tuple(_factor(n).items()))

    def exponent(self, p: int):
        """Exponent of p: an int >= 0 or INFINITY."""
        return dict(self.factors).get(p, 0)

    def primes(self):
        return tuple(p for p, _ in self.factors)

    def __str__(self):
        parts = [str(p) if e == 1 else f"{p}^{'inf' if e is INFINITY else e}"
                 for p, e in self.factors]
        return " · ".join(parts) if parts else "1"

    def __mul__(self, other):
        if isinstance(other, int):
            other = Supernatural.from_int(other)
        if not isinstance(other, Supernatural):
            return NotImplemented
        return _merge(self.factors + other.factors, add)

    __rmul__ = __mul__

    def divides(self, other: "Supernatural") -> bool:
        return all(e <= other.exponent(p) for p, e in self.factors)


_TOKEN = re.compile(r"^(\d+)(?:\^(\d+|inf|∞))?$")


def parse_supernatural(text: str) -> Supernatural:
    """Read the text form, e.g. "2^4 · 3^inf · 5" (or with *): the product
    of its factors, so a repeated prime multiplies."""
    text = text.strip()
    if text in ("1", ""):
        return Supernatural.one()
    factors = []
    for token in re.split(r"[·*]", text):
        m = _TOKEN.match(token.strip())
        if not m:
            raise ValueError(f"cannot parse supernatural factor {token!r}")
        p, e = int(m.group(1)), m.group(2) or "1"
        factors.append(Supernatural((), (p,)) if e in ("inf", "∞")
                       else Supernatural(((p, int(e)),)))
    return prod(factors, start=Supernatural.one())


def lcm(a: Supernatural, b: Supernatural) -> Supernatural:
    """Componentwise max of exponents; infinity dominates."""
    return _merge(a.factors + b.factors, max)


def coprime(k: int, n: Supernatural) -> bool:
    """True iff no prime factor of k appears in n."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return set(_factor(k)).isdisjoint(n.primes())


def profinite_surjective(k: int, order: Supernatural) -> bool:
    """The power map x -> x^k is onto a profinite group of this order
    exactly when k is coprime to the order."""
    return coprime(k, order)


def general_linear_order(n: int, p: int) -> int:
    """|GL(n, F_p)| = prod_{i<n} (p^n - p^i)."""
    return prod(p ** n - p ** i for i in range(n))


# catalog compact group -> the finite part of its pro-order at (p, n); the
# pro-order is that part times p^inf, at every congruence level
CATALOG_ORDERS = {
    "GLn_Zp": lambda p, n: general_linear_order(n, p),
    # Z_p^* is Z/(p-1) x Z_p for odd p, but Z_2^* is Z/2 x Z_2: just 2^inf
    "UnitsZp": lambda p, n: p - 1 if p > 2 else 1,
    "AdditiveZp": lambda p, n: 1,
    "PrincipalCongruence": lambda p, n: 1,
}


def ord_catalog(group: str, p: int, n: int = 1) -> Supernatural:
    """Pro-order of a catalog compact group: its finite part in
    CATALOG_ORDERS times p^inf, e.g. 2^4 · 3^inf for GLn_Zp at n = 2, p = 3.
    The dimension n must be >= 1, and 1 for UnitsZp and AdditiveZp."""
    finite = CATALOG_ORDERS.get(group)
    if finite is None:
        raise UnknownCatalogEntry(f"no catalog group named {group!r}")
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if n != 1 and group in ("UnitsZp", "AdditiveZp"):
        raise ValueError(f"{group} does not take a dimension")
    return finite(p, n) * Supernatural((), (p,))
