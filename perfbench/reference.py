"""Independent arithmetic the benchmark checks ppm's answers with.

Nothing here imports ppm, and the algorithms deliberately differ from
ppm's: the characteristic polynomial comes from Faddeev-LeVerrier (ppm
uses Berkowitz), inverses from row reduction on plain lists, and powers
mod p^m from a left-to-right square-and-multiply on flat lists.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd


# ---- rationals ---------------------------------------------------------

def vp(x: Fraction, p: int) -> int | None:
    """p-adic valuation of a rational; None for zero."""
    if x == 0:
        return None
    num, den, v = abs(x.numerator), x.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def is_p_integral(x: Fraction, p: int) -> bool:
    return x.denominator % p != 0


def identity(n: int):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols]
            for row in a]


def inverse(a):
    """Inverse over Q by Gauss-Jordan elimination; raises on singular input."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        lead = m[c][c]
        m[c] = [x / lead for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def char_poly(a):
    """Monic characteristic polynomial, leading coefficient first
    (Faddeev-LeVerrier: M_k = A M_{k-1} + c_{k-1} I, c_k = -tr(A M_k) / k)."""
    n = len(a)
    coeffs = [Fraction(1)]
    m = identity(n)
    for k in range(1, n + 1):
        am = matmul(a, m)
        c = -sum((am[i][i] for i in range(n)), Fraction(0)) / k
        coeffs.append(c)
        m = [[am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]
    return coeffs


def is_type_r(a, p: int) -> bool:
    """Every eigenvalue is a p-adic unit: all coefficients of the monic
    characteristic polynomial are p-integral and its constant term is a unit."""
    poly = char_poly(a)
    return all(is_p_integral(c, p) for c in poly) and vp(poly[-1], p) == 0


def in_gl_zp(a, p: int) -> bool:
    """a lies in GL(n, Z_p): p-integral entries and a unit determinant."""
    if not all(is_p_integral(x, p) for row in a for x in row):
        return False
    return vp(char_poly(a)[-1], p) == 0


def word_matrix(gens, word: str):
    """Multiply out a word such as 'g1·g2^-1' over the generator list."""
    n = len(gens[0])
    out = identity(n)
    for letter in word.split("·"):
        inv = letter.endswith("^-1")
        idx = int(letter[1:-3] if inv else letter[1:]) - 1
        out = matmul(out, inverse(gens[idx]) if inv else gens[idx])
    return out


# ---- integers mod p^m ---------------------------------------------------

def mod_matmul(a, b, mod: int):
    n = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(n)) % mod for j in range(n)]
            for i in range(n)]


def mod_matpow(a, k: int, mod: int):
    """a^k mod `mod` for k >= 1, scanning the bits of k from the top."""
    out = [[x % mod for x in row] for row in a]
    for bit in bin(k)[3:]:
        out = mod_matmul(out, out, mod)
        if bit == "1":
            out = mod_matmul(out, a, mod)
    return out


def axb_power(a: int, b: int, k: int, mod: int):
    """(a, b)^k in the group with (a, b)(c, d) = (ac, b + ad), by k products."""
    x, y = 1, 0
    for _ in range(k):
        x, y = x * a % mod, (y + x * b) % mod
    return x, y


# ---- orders and closed forms --------------------------------------------

def prime_factors(n: int) -> set:
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def gl_order(n: int, p: int, m: int = 1) -> int:
    """|GL(n, Z/p^m)| = |GL(n, F_p)| * p^(n^2 (m - 1))."""
    out = 1
    for i in range(n):
        out *= p ** n - p ** i
    return out * p ** (n * n * (m - 1))


def units_order(p: int, m: int) -> int:
    """|(Z/p^m)^*|."""
    return (p - 1) * p ** (m - 1)


def coprime(k: int, n: int) -> bool:
    return gcd(k, n) == 1


def catalog_surjective(variant: str, n: int, p: int, k: int) -> bool:
    """Closed-form truth for x -> x^k on the compact catalog groups: onto
    iff k is prime to the pro-order (GL(n, Z_p): |GL(n, F_p)| p^inf;
    Z_p^* and Z_p^* x Z_p: (p - 1) p^inf, or 2^inf at p = 2)."""
    if k == 1:
        return True
    if variant == "GL_Zp":
        order_primes = prime_factors(gl_order(n, p)) | {p}
    elif variant in ("UnitsZp", "AxB_ZpUnits"):
        order_primes = {2} if p == 2 else prime_factors(p - 1) | {p}
    else:
        raise ValueError(f"no closed form for {variant}")
    return not (prime_factors(k) & order_primes)
