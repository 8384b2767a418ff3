"""Integer matrix helpers modulo p^m. Internal.

Matrices are tuples of tuples of ints, entries reduced mod p^m.

Every product mod p^m goes through this module: ``mat_mul`` for n x n
operands, ``row_images`` for the rows v -> (v g_1, ..., v g_c) that the
oracle's row orbit maps by c generators at once. For n <= 4 each runs a
straight-line kernel, one unpack-multiply-reduce expression compiled on
first use of each n (and c) by one builder, ``_product``; larger n run a
comprehension over the columns. A kernel's compile time and memory grow as
n^3, or c n^2, which the few products of larger n would not repay.

Every Gaussian elimination over F_p goes through one kernel,
``rref_mod``: it returns the reduced row echelon form mod p, the pivot
columns and the determinant mod p. Determinants, inverses mod p and the
affine solutions of ``roots.finite_root`` are read off it; since the
reduced form is unique, so are their results. Every Newton lift from mod
p to mod p^m, of ``mat_inv`` and of ``roots.congruence_root``, is one
iteration, ``inverse_root``.
"""
from __future__ import annotations

from functools import cache
from itertools import product
from operator import mul

from .errors import InternalInvariantViolation, Singular

Mat = tuple


def require_ints(*mats):
    """ValueError unless every entry is an int: reduce_mat truncates the rest."""
    if any(type(x) is not int for m in mats for row in m for x in row):
        raise ValueError("matrix entries must be integers")


def reduce_mat(rows, mod: int) -> Mat:
    return tuple(tuple(int(x) % mod for x in row) for row in rows)


def identity_mat(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


# Products of n x n operands with n <= _UNROLLED run a compiled straight-line
# kernel. Its source holds 2n^2 names and n^3 products, so its compile time
# and memory grow as n^3: 0.7-3.1 ms and at most 158 KiB up to n = 4, but
# 19 ms and 1 MiB at n = 9, 95 ms and 5.5 MiB at n = 16 (CPython 3.11 on a
# 2 vCPU Linux host). Larger products are rare: a perfbench `modular` pass
# makes 10 of its 12,085 at n = 9, on the Ad-sum operators of 3 x 3 roots.
# Row kernels (``row_images``) have the same limit. The kernel for c
# generators holds c n^2 products, so its cost grows as c n^2: 0.1-0.3 ms up
# to n = 3 with 3 generators, 1.8 ms and 39 KiB kept at n = 4 with 13 (GL(4)'s
# generators), but 141 ms and 1.5 MiB at n = 9 with 72, where it runs a row
# only 1.4x faster. The oracle's row orbits are of n <= 2 with 2-4 generators
# in a perfbench `modular` pass.
_UNROLLED = 4


@cache
def _product(n: int, count: int = 0):
    """A kernel mod `mod` built as one unpack-multiply-reduce expression and
    compiled on first use, as dataclasses builds __init__. With count = 0 it is
    the n x n product, product(a, b, mod); with count = c >= 1 it is
    product(gens, mod), which binds c n x n generators g_1, ..., g_c and returns
    the row map v -> (v g_1, ..., v g_c). Unpacking raises ValueError on
    operands of any other shape."""
    def names(x):
        return [[f"{x}{i}_{j}" for j in range(n)] for i in range(n)]

    def times(rows, b):  # each row times the matrix b, its cells reduced mod `mod`
        return [[f"({' + '.join(f'{row[t]} * {b[t][j]}' for t in range(n))}) % mod"
                 for j in range(n)] for row in rows]

    def matrix(cells):  # a tuple-of-tuples display, or an unpacking target
        return "(" + "".join(f"({', '.join(row)},), " for row in cells) + ")"

    if count:
        v, gens = [f"v{t}" for t in range(n)], [names(f"g{c}_") for c in range(count)]
        source = (f"def product(gens, mod):\n"
                  f"    ({''.join(matrix(g) + ', ' for g in gens)}) = gens\n"
                  f"    def images(v):\n        ({', '.join(v)},) = v\n"
                  f"        return {matrix(times([v], g)[0] for g in gens)}\n"
                  f"    return images\n")
    else:
        a, b = names("a"), names("b")
        source = (f"def product(a, b, mod):\n    {matrix(a)} = a\n    {matrix(b)} = b\n"
                  f"    return {matrix(times(a, b))}\n")
    namespace = {}
    exec(compile(source, f"<modmat kernel n={n} count={count}>", "exec"), namespace)
    return namespace["product"]


def mat_mul(a: Mat, b: Mat, mod: int) -> Mat:
    """a b reduced mod `mod`, for square a and b of one size n (n >= 0);
    ValueError on any other pair."""
    n = len(a)
    if 0 < n <= _UNROLLED:
        try:
            return _product(n)(a, b, mod)
        except ValueError:
            raise ValueError("mat_mul needs two square operands of one size") from None
    if len(b) != n or any(len(row) != n for m in (a, b) for row in m):
        raise ValueError("mat_mul needs two square operands of one size")
    bt = list(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) % mod for col in bt]) for row in a])


def row_images(gens, mod: int):
    """The map v -> (v g_1, ..., v g_c), each row product reduced mod `mod`,
    for c >= 1 generators, n x n of one size n >= 1; ValueError on generators,
    or later rows, of any other shape."""
    n = len(gens[0]) if gens else 0
    if 0 < n <= _UNROLLED:
        try:
            return _product(n, len(gens))(gens, mod)
        except ValueError:
            raise ValueError("row_images needs generators n x n of one size") from None
    if not n or any(len(g) != n or any(len(row) != n for row in g) for g in gens):
        raise ValueError("row_images needs generators n x n of one size")
    cols = [tuple(zip(*g)) for g in gens]

    def images(v):
        if len(v) != n:
            raise ValueError("row_images needs rows of the generators' size")
        return tuple([tuple([sum(map(mul, v, col)) % mod for col in cs]) for cs in cols])
    return images


def mat_pow(a: Mat, e: int, mod: int) -> Mat:
    """a^e reduced mod `mod`, by left-to-right square-and-multiply: one
    squaring per bit below the top one, one product per set bit there."""
    if e < 0:
        raise ValueError("negative exponent: invert explicitly with mat_inv")
    if e == 0:
        return identity_mat(len(a))
    out = reduce_mat(a, mod)
    for bit in bin(e)[3:]:
        out = mat_mul(out, out, mod)
        if bit == "1":
            out = mat_mul(out, a, mod)
    return out


def rref_mod(rows, p: int, width=None, det_only=False):
    """Gauss-Jordan elimination over F_p on a copy of rows, reduced mod p.

    Pivots are sought top down in the first width columns (default: all);
    later columns are carried along, as for augmented systems. Returns
    (reduced rows, pivot columns, det mod p of a square first-width block).
    det_only leaves the rows in echelon form and stops at the first column
    without a pivot (det 0).
    """
    m = [[x % p for x in row] for row in rows]
    width = len(m[0]) if width is None else width
    pivots, det, r = [], 1, 0
    for c in range(width):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            if det_only:
                return m, pivots, 0
            det = 0
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            det = -det
        top = m[r]
        det = det * top[c] % p
        inv = pow(top[c], -1, p)
        if not det_only:  # a determinant needs no unit pivots
            top = m[r] = [x * inv % p for x in top]
        for i in range(r + 1 if det_only else 0, len(m)):
            if m[i][c] and i != r:
                f = m[i][c] * inv % p if det_only else m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], top)]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots, det % p


def det_mod(a: Mat, p: int) -> int:
    """Determinant mod a prime p, read off the forward pass of the kernel."""
    return rref_mod(a, p, det_only=True)[2]


def invertible_mod(a: Mat, p: int) -> bool:
    return det_mod(a, p) != 0


def inverse_root(a: Mat, k: int, y: Mat, p: int, m: int) -> Mat:
    """Lift a seed y with a y^k = 1 mod p, k prime to p, to the y' = y
    mod p with a y'^k = 1 mod p^m.

    Newton's iteration for a^(-1/k): y <- y ((k + 1) - a y^k) / k. Its
    residual 1 - a y^k squares on each step when k = 1, and for every k
    when the seed commutes with a (1, say), so ceil(log2 m) steps reach
    mod p^m. Raises InternalInvariantViolation when ceil(log2 m) + 1
    residual checks do not reach it.
    """
    mod = p ** m
    one = identity_mat(len(a))
    kinv = pow(k, -1, mod)
    for _ in range((m - 1).bit_length() + 1):
        ayk = mat_mul(a, mat_pow(y, k, mod), mod)
        if ayk == one:
            return reduce_mat(y, mod)
        y = mat_mul(y, tuple(tuple(((k + 1) * (i == j) - x) * kinv % mod
                                   for j, x in enumerate(row)) for i, row in enumerate(ayk)),
                    mod)
    raise InternalInvariantViolation(f"Newton lift did not reach mod {p}^{m}")


def mat_inv(a: Mat, p: int, m: int = 1) -> Mat:
    """Inverse mod p^m: invert mod p by the kernel on [a | 1], then lift
    by ``inverse_root`` with k = 1."""
    n = len(a)
    red, pivots, _ = rref_mod([(*row, *e) for row, e in zip(a, identity_mat(n))], p, width=n)
    if len(pivots) < n:
        raise Singular("matrix not invertible mod p")
    return inverse_root(a, 1, tuple(tuple(row[n:]) for row in red), p, m)


def all_invertible_mats(n: int, p: int, cap: int = 1_000_000):
    """Iterate GL(n, F_p) in lexicographic entry order."""
    if p ** (n * n) > cap:
        raise ValueError(f"GL({n}, F_{p}) enumeration exceeds cap {cap}")
    for entries in product(range(p), repeat=n * n):
        rows = tuple(tuple(entries[i * n:(i + 1) * n]) for i in range(n))
        if det_mod(rows, p) != 0:
            yield rows
