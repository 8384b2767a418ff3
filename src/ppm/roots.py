"""Constructive k-th roots: exact on unipotents, residue-level elsewhere.

Roots inside compact p-adic groups are generally irrational, so they are
returned at residue precision; roots of unipotent matrices are exact
rationals. Every Found root is re-verified by powering. One lifting
search serves finite quotients and the unit part of the ax+b group.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
from operator import mul
from typing import Optional, Union

from . import modmat
from .errors import BadDomain, CapExceeded, InternalInvariantViolation, NotUnipotent, \
    PDividesK, PrecisionExhausted
from .linalg import QMatrix
from .qpcore import PContext, ResidueScalar, as_fraction, reduce_mod, vp_int

FOUND = "found"
OBSTRUCTED = "obstructed"
NO_ROOT = "no_root"


@dataclass(frozen=True)
class PadicApproxMatrix:
    """n x n integer matrix known mod p^level, invertible mod p."""

    ctx: PContext
    level: int
    entries: tuple

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be >= 1")
        if not self.entries or any(len(row) != len(self.entries) for row in self.entries):
            raise ValueError("matrix must be square and non-empty")
        modmat.require_ints(self.entries)
        mod = self.ctx.p ** self.level
        ent = modmat.reduce_mat(self.entries, mod)
        object.__setattr__(self, "entries", ent)
        if not modmat.invertible_mod(ent, self.ctx.p):
            raise ValueError("matrix is singular mod p")

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def from_rational(cls, ctx: PContext, mat: QMatrix, level: int) -> "PadicApproxMatrix":
        ent = tuple(tuple(reduce_mod(x, level, ctx).value for x in row) for row in mat.rows)
        return cls(ctx, level, ent)

    def __str__(self):
        return f"{self.entries} (mod {self.ctx.p}^{self.level})"


@dataclass(frozen=True)
class RootResult:
    """Outcome of a root extraction.

    status is one of FOUND / OBSTRUCTED / NO_ROOT. A FOUND root has been
    re-verified by powering before construction. NO_ROOT carries the
    level at which every lifting branch died.
    """

    status: str
    root: Union[QMatrix, PadicApproxMatrix, tuple, None] = None
    reason: Optional[str] = None
    witness_level: Optional[int] = None

    @classmethod
    def found(cls, root) -> "RootResult":
        return cls(FOUND, root=root)

    @classmethod
    def obstructed(cls, reason: str) -> "RootResult":
        return cls(OBSTRUCTED, reason=reason)

    @classmethod
    def no_root(cls, level: int) -> "RootResult":
        return cls(NO_ROOT, witness_level=level)


def nilpotent_log(u: QMatrix) -> QMatrix:
    """Exact logarithm of a unipotent matrix: the alternating series in
    (u - 1), which terminates because (u - 1)^n = 0."""
    n = u.n
    nil = u - QMatrix.identity(n)
    power = nil
    for _ in range(n - 1):
        power = power * nil
    if any(x != 0 for row in power.rows for x in row):
        raise NotUnipotent("(u - 1)^n != 0")
    out = QMatrix.identity(n) * 0
    term = QMatrix.identity(n)
    for j in range(1, n):
        term = term * nil
        out = out + term * Fraction((-1) ** (j + 1), j)
    return out


def _nilpotent_exp(m: QMatrix) -> QMatrix:
    n = m.n
    out = QMatrix.identity(n)
    term = QMatrix.identity(n)
    fact = 1
    for j in range(1, n):
        term = term * m
        fact *= j
        out = out + term * Fraction(1, fact)
    return out


def unipotent_root(u: QMatrix, k: int) -> RootResult:
    """The unique unipotent k-th root exp(log(u)/k), exact."""
    if k < 1:
        raise ValueError("k must be positive")
    root = _nilpotent_exp(nilpotent_log(u) * Fraction(1, k))
    if root ** k != u:
        raise InternalInvariantViolation("unipotent root failed the powering check")
    return RootResult.found(root)


def _as_approx(a, ctx: Optional[PContext], level: Optional[int]):
    """(a as a PadicApproxMatrix reduced mod p^level, its context, the
    working level). A PadicApproxMatrix brings its own context and default
    level, and bounds the level: past it the entries are unknown. A ctx
    given with it must have its prime."""
    if level is not None and level < 1:
        raise ValueError("level must be >= 1")
    if isinstance(a, PadicApproxMatrix):
        if ctx is not None and ctx.p != a.ctx.p:
            raise ValueError(f"matrix is over p = {a.ctx.p}, context is p = {ctx.p}")
        if level is not None and level > a.level:
            raise PrecisionExhausted(
                f"matrix is known mod {a.ctx.p}^{a.level}, not mod {a.ctx.p}^{level}")
        a, ctx, level = a.entries, a.ctx, a.level if level is None else level
    if ctx is None:
        raise ValueError("need a PContext")
    if level is None:
        level = ctx.precision_n
    if isinstance(a, QMatrix):
        return PadicApproxMatrix.from_rational(ctx, a, level), ctx, level
    return PadicApproxMatrix(ctx, level, a), ctx, level


def congruence_root(a, k: int, ctx: Optional[PContext] = None,
                    level: Optional[int] = None) -> RootResult:
    """k-th root in the principal congruence subgroup 1 + pM (1 + 4M at
    p = 2), for gcd(k, p) = 1.

    Newton lifting: y = A^(-1/k) by ``modmat.inverse_root`` from the seed
    1, then X = A y^(k-1). Mod p^level the subgroup is a p-group, so this
    root is its only k-th root of A there. No search.
    """
    if k < 1:
        raise ValueError("k must be positive")
    a, ctx, level = _as_approx(a, ctx, level)
    p, n = ctx.p, a.n
    if gcd(k, p) != 1:
        raise PDividesK(f"gcd({k}, {p}) != 1")
    ident = modmat.identity_mat(n)
    start_mod = 4 if p == 2 else p
    if modmat.reduce_mat(a.entries, start_mod) != ident:
        raise BadDomain(f"matrix is not congruent to 1 mod {start_mod}")
    mod = p ** level
    y = modmat.inverse_root(a.entries, k, ident, p, level)
    x = modmat.mat_mul(a.entries, modmat.mat_pow(y, k - 1, mod), mod)
    if modmat.mat_pow(x, k, mod) != a.entries:
        raise InternalInvariantViolation("congruence root failed the powering check")
    return RootResult.found(PadicApproxMatrix(ctx, level, x))


def _ad_sum_operator(x: modmat.Mat, k: int, p: int) -> modmat.Mat:
    """Matrix over F_p of Y -> sum_{i<k} T^i(Y) on n x n matrices, T = Ad(X^{-1}):
    Y -> X^{-1} Y X, by doubling on (T^j, sum_{i<j} T^i) in about log2(k) steps."""
    n = len(x)
    xinv = modmat.mat_inv(x, p, 1)
    # entry (r, c) of X^{-1} E_ab X is X^{-1}[r][a] X[b][c]; rows and
    # columns are indexed by (r, c) and by the basis matrix E_ab, row-major
    t = tuple(tuple(xinv[r][a] * x[b][c] % p for a in range(n) for b in range(n))
              for r in range(n) for c in range(n))
    power, total = t, modmat.identity_mat(n * n)
    for bit in bin(k)[3:]:
        # j -> 2j: sum_{i<2j} T^i = S + T^j S; then j -> j + 1 adds T^j
        total = _mat_add(total, modmat.mat_mul(power, total, p), p)
        power = modmat.mat_mul(power, power, p)
        if bit == "1":
            total = _mat_add(total, power, p)
            power = modmat.mat_mul(power, t, p)
    return total


def _mat_add(a: modmat.Mat, b: modmat.Mat, mod: int) -> modmat.Mat:
    return tuple(tuple((u + v) % mod for u, v in zip(r, s)) for r, s in zip(a, b))


def _row_reduced(mat: list, p: int):
    """[mat | 1] reduced over F_p: mat's reduced form, then the row operations."""
    ident = modmat.identity_mat(len(mat))
    return modmat.rref_mod([(*r, *e) for r, e in zip(mat, ident)], p, width=len(mat[0]))


def _solutions(reduced, rhs: list, p: int):
    """Every solution of mat*y = rhs over F_p, none when inconsistent, read off
    ``_row_reduced(mat, p)``. The free coordinates run through F_p in
    lexicographic order."""
    m, pivots, _ = reduced
    cols = len(m[0]) - len(m)
    b = [sum(map(mul, row[cols:], rhs)) % p for row in m]  # rhs under the row operations
    if any(b[len(pivots):]):
        return
    free = [c for c in range(cols) if c not in pivots]
    for coeffs in product(range(p), repeat=len(free)):
        y = [0] * cols
        for c, t in zip(free, coeffs):
            y[c] = t
        for i, pc in enumerate(pivots):
            y[pc] = (b[i] - sum(m[i][c] * t for c, t in zip(free, coeffs))) % p
        yield y


_SEED_CAP = 1_000_000  # mod-p candidates the seed search may enumerate
_NODE_CAP = 200_000  # lift branches finite_root may explore


def _mod_p_roots(t: modmat.Mat, k: int, p: int) -> list:
    """Every X mod p with X^k = t, in lexicographic entry order.

    Such an X commutes with X^k = t, so the search runs over the
    centralizer {X : Xt = tX} only: the kernel of an n^2 x n^2 system
    over F_p, usually p^n matrices instead of all p^(n^2). Raises
    CapExceeded when the centralizer has more than _SEED_CAP elements.
    """
    n = len(t)
    size = n * n
    # (Xt - tX)[a][b] = sum_c X[a][c] t[c][b] - t[a][c] X[c][b]; X[a][c] is unknown a*n + c
    system = [[0] * size for _ in range(size)]
    for a in range(n):
        for b in range(n):
            row = system[a * n + b]
            for c in range(n):
                row[a * n + c] += t[c][b]
                row[c * n + b] -= t[a][c]
    reduced = _row_reduced(system, p)
    dim = size - len(reduced[1])
    if p ** dim > _SEED_CAP:
        raise CapExceeded(f"the centralizer of the target mod {p} has {p}^{dim} elements, "
                          f"past the seed cap {_SEED_CAP}")
    centralizer = (tuple(tuple(y[i * n:(i + 1) * n]) for i in range(n))
                   for y in _solutions(reduced, [0] * size, p))
    return sorted(x for x in centralizer if modmat.mat_pow(x, k, p) == t)


def _lifted_roots(target: modmat.Mat, k: int, p: int, level: int):
    """Yields every X mod p^level with X^k = target (reduced mod p^level),
    each once, in branch order; returns the deepest level where a branch died.

    The seeds ``_mod_p_roots`` finds mod p are lifted one level at a time
    by a linear system over F_p, its operator reduced once per seed; a lift
    can die along one branch and survive along another. Seeds and lifts go
    in lexicographic order; past _NODE_CAP lift branches, CapExceeded.
    """
    n = len(target)
    target_p = modmat.reduce_mat(target, p)
    # every node x above a seed has x = seed and x^k = target_p mod p, so
    # X^(-k) mod p is target_p^(-1) and the Ad-sum operator is the seed's
    target_inv = modmat.mat_inv(target_p, p, 1)
    operators = {}
    deepest_death = 1
    nodes = 0
    stack = [(x, 1, x) for x in reversed(_mod_p_roots(target_p, k, p))]
    while stack:
        x, m, seed = stack.pop()
        nodes += 1
        if nodes > _NODE_CAP:
            raise CapExceeded(f"the root search explored more than {_NODE_CAP} branches")
        if m == level:
            yield x
            continue
        mod_next = p ** (m + 1)
        xk = modmat.mat_pow(x, k, mod_next)
        step = p ** m
        # the target is reduced mod p^level, a multiple of mod_next
        diff = tuple(tuple((ae - xe) % mod_next for ae, xe in zip(ra, rx))
                     for ra, rx in zip(target, xk))
        lifts = []
        if not any(d % step for row in diff for d in row):
            # solve X^k * T(Y) = D with T the Ad-power sum; fold X^{-k} into D
            d_mat = modmat.mat_mul(
                target_inv, tuple(tuple((d // step) % p for d in row) for row in diff), p)
            op = operators.get(seed)
            if op is None:  # built and reduced when the seed is first expanded
                op = operators[seed] = _row_reduced(_ad_sum_operator(seed, k, p), p)
            for y in _solutions(op, [d for row in d_mat for d in row], p):
                # X(1 + p^m Y) = X + p^m (XY mod p) mod p^(m+1)
                xy = modmat.mat_mul(x, tuple(tuple(y[i * n:(i + 1) * n]) for i in range(n)), p)
                lifts.append((tuple(tuple((u + step * v) % mod_next for u, v in zip(r, s))
                                    for r, s in zip(x, xy)), m + 1, seed))
        if not lifts:  # x^k misses the target mod p^(m+1), or the system is inconsistent
            deepest_death = max(deepest_death, m)
        stack.extend(sorted(lifts, reverse=True))
    return deepest_death


def finite_root(a, k: int, ctx: Optional[PContext] = None,
                level: Optional[int] = None) -> RootResult:
    """k-th root of an invertible matrix mod p^level: the first root the
    lifting search ``_lifted_roots`` yields, re-verified by powering, or
    NO_ROOT at the deepest level where a branch died once every branch is
    explored. A centralizer mod p past 10^6 elements, or more than
    _NODE_CAP lift branches, raises CapExceeded.
    """
    if k < 1:
        raise ValueError("k must be positive")
    a, ctx, level = _as_approx(a, ctx, level)
    try:
        x = next(_lifted_roots(a.entries, k, ctx.p, level))
    except StopIteration as dead:
        return RootResult.no_root(dead.value)
    if modmat.mat_pow(x, k, ctx.p ** level) != a.entries:
        raise InternalInvariantViolation("finite root failed the powering check")
    return RootResult.found(PadicApproxMatrix(ctx, level, x))


def _affine_power(alpha: int, beta: int, k: int, mod: int):
    """(alpha, beta)^k = (alpha^k, (1 + alpha + ... + alpha^(k-1)) beta) mod
    `mod`: the top row of the k-th power of the matrix ((alpha, beta), (0, 1))."""
    return modmat.mat_pow(((alpha, beta), (0, 1)), k, mod)[0]


def axb_root(elem, k: int, ctx: PContext, level: Optional[int] = None) -> RootResult:
    """k-th root of (a, b) in the solvable group with product
    (a, b)(a', b') = (aa', b + a b'), a a unit of Z_p, b in Z_p.

    Power formula: (a, b)^k = (a^k, (1 + a + ... + a^{k-1}) b), the
    k-th power of the affine matrix ((a, b), (0, 1)). Every k-th root
    alpha of a mod p^level, from ``finite_root``'s search on the 1 x 1
    matrix (a) and with its caps, is tried in ascending order; the unipotent
    coordinate needs the geometric sum to be invertible enough to divide b.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if level is None:
        level = ctx.precision_n
    p = ctx.p
    a, b = elem
    a_res = reduce_mod(as_fraction(a), level, ctx).value
    b_res = reduce_mod(as_fraction(b), level, ctx).value
    if a_res % p == 0:
        raise BadDomain("first coordinate must be a unit")
    mod = p ** level
    alphas = sorted(x[0][0] for x in _lifted_roots(((a_res,),), k, p, level))
    obstructions = []
    saw_undecidable = False
    for alpha in alphas:
        s = _affine_power(alpha, 1, k, mod)[1]
        if s == 0:
            saw_undecidable = True
            continue
        sval = vp_int(s, p)
        ss = s // p ** sval
        bval = level if b_res == 0 else vp_int(b_res, p)
        if sval == 0:
            beta = b_res * pow(s, -1, mod) % mod
            return _verified_axb(alpha, beta, k, level, ctx, (a_res, b_res))
        if bval >= sval:
            out_level = level - sval
            out_mod = p ** out_level
            beta = (b_res // p ** sval) * pow(ss % out_mod, -1, out_mod) % out_mod
            return _verified_axb(alpha % out_mod, beta, k, out_level, ctx,
                                 (a_res % out_mod, b_res % out_mod))
        obstructions.append(
            f"root {alpha} of the unit part gives geometric sum of valuation {sval} "
            f"> v({b_res}) = {bval}: the second coordinate has a root in Q_p "
            f"(divide by p^{sval}) but none in Z_p")
    if saw_undecidable:
        raise PrecisionExhausted(
            "a geometric sum vanishes mod p^level; raise precision and retry")
    if obstructions:
        return RootResult.obstructed("; ".join(obstructions))
    return RootResult.no_root(level)


def _verified_axb(alpha: int, beta: int, k: int, level: int, ctx: PContext,
                  target) -> RootResult:
    mod = ctx.p ** level
    if _affine_power(alpha, beta, k, mod) != (target[0] % mod, target[1] % mod):
        raise InternalInvariantViolation("semidirect root failed the powering check")
    return RootResult.found((ResidueScalar(alpha % mod, level, ctx.p),
                             ResidueScalar(beta % mod, level, ctx.p)))
