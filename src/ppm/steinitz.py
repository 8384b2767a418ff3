"""Supernatural (Steinitz) numbers and pro-orders of catalog compact groups.

A supernatural number is a formal product of p^n(p) with n(p) a positive
integer or infinity; only primes actually present are stored. These house
the orders of profinite groups, and the coprimality test against them
decides surjectivity of the power maps there.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from math import prod

from .errors import UnknownCatalogEntry
from .qpcore import is_prime


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


@dataclass(frozen=True)
class Supernatural:
    """Formal product over primes with exponents in N or infinity.

    finite: sorted (prime, exponent) pairs with exponent >= 1.
    infinite: sorted primes carrying exponent infinity. A prime never
    appears in both. The empty product is 1.
    """

    finite: tuple = field(default=())
    infinite: tuple = field(default=())

    def __post_init__(self):
        fin = tuple(sorted((int(p), int(e)) for p, e in dict(self.finite).items() if e))
        inf = tuple(sorted(set(int(p) for p in self.infinite)))
        if any(e < 1 for _, e in fin):
            raise ValueError("finite exponents must be positive")
        if any(p in inf for p, _ in fin):
            raise ValueError("a prime cannot be both finite and infinite")
        for p in [q for q, _ in fin] + list(inf):
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        object.__setattr__(self, "finite", fin)
        object.__setattr__(self, "infinite", inf)

    @classmethod
    def one(cls) -> "Supernatural":
        return cls()

    @classmethod
    def from_int(cls, n: int) -> "Supernatural":
        return cls(tuple(_factor(n).items()), ())

    def exponent(self, p: int):
        """Exponent of p: an int >= 0 or the string 'inf'."""
        if p in self.infinite:
            return "inf"
        return dict(self.finite).get(p, 0)

    def primes(self):
        return tuple(sorted([p for p, _ in self.finite] + list(self.infinite)))

    def __str__(self):
        parts = []
        for p in self.primes():
            e = self.exponent(p)
            if e == "inf":
                parts.append(f"{p}^inf")
            elif e == 1:
                parts.append(str(p))
            else:
                parts.append(f"{p}^{e}")
        return " · ".join(parts) if parts else "1"

    def __mul__(self, other):
        if isinstance(other, int):
            other = Supernatural.from_int(other)
        if not isinstance(other, Supernatural):
            return NotImplemented
        fin, inf = {}, set(self.infinite) | set(other.infinite)
        for p, e in list(self.finite) + list(other.finite):
            if p not in inf:
                fin[p] = fin.get(p, 0) + e
        return Supernatural(tuple(fin.items()), tuple(inf))

    __rmul__ = __mul__

    def divides(self, other: "Supernatural") -> bool:
        for p in self.primes():
            mine, theirs = self.exponent(p), other.exponent(p)
            if theirs == "inf":
                continue
            if mine == "inf" or mine > theirs:
                return False
        return True


_TOKEN = re.compile(r"^(\d+)(?:\^(\d+|inf|∞))?$")


def parse_supernatural(text: str) -> Supernatural:
    text = text.strip()
    if text in ("1", ""):
        return Supernatural.one()
    fin, inf = [], []
    for token in re.split(r"[·*]", text):
        m = _TOKEN.match(token.strip())
        if not m:
            raise ValueError(f"cannot parse supernatural factor {token!r}")
        p = int(m.group(1))
        e = m.group(2) or "1"
        if e in ("inf", "∞"):
            inf.append(p)
        else:
            fin.append((p, int(e)))
    return Supernatural(tuple(fin), tuple(inf))


def lcm(a: Supernatural, b: Supernatural) -> Supernatural:
    """Componentwise max of exponents; infinity dominates."""
    fin, inf = {}, set(a.infinite) | set(b.infinite)
    for p, e in list(a.finite) + list(b.finite):
        if p not in inf:
            fin[p] = max(fin.get(p, 0), e)
    return Supernatural(tuple(fin.items()), tuple(inf))


def coprime(k: int, n: Supernatural) -> bool:
    """True iff no prime factor of k appears in n."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    present = set(n.primes())
    return not (set(_factor(k)) & present)


def profinite_surjective(k: int, order: Supernatural) -> bool:
    """The power map x -> x^k is onto a profinite group of this order
    exactly when k is coprime to the order."""
    return coprime(k, order)


def general_linear_order(n: int, p: int) -> int:
    """|GL(n, F_p)| = prod_{i<n} (p^n - p^i)."""
    return prod(p ** n - p ** i for i in range(n))


def ord_catalog(group: str, p: int, n: int = 1, level: int = 1) -> Supernatural:
    """Pro-order of a catalog compact group.

    GLn_Zp                |GL(n, F_p)| * p^inf
    UnitsZp               (p-1) * p^inf for odd p, 2^inf at p = 2
    AdditiveZp            p^inf
    PrincipalCongruence   p^inf (any level, any n)
    """
    pinf = Supernatural((), (p,))
    if group == "GLn_Zp":
        return general_linear_order(n, p) * pinf
    if group == "UnitsZp":
        # Z_2^* is Z/2 x Z_2, so the generic (p-1) * p^inf formula is wrong at 2
        if p == 2:
            return pinf
        return (p - 1) * pinf
    if group == "AdditiveZp":
        return pinf
    if group == "PrincipalCongruence":
        if level < 1:
            raise ValueError("congruence level must be >= 1")
        return pinf
    raise UnknownCatalogEntry(f"no catalog group named {group!r}")
