"""Constructive k-th roots: exact on unipotents, residue-level elsewhere.

Roots inside compact p-adic groups are generally irrational, so they are
returned at residue precision; roots of unipotent matrices are exact
rationals. Every Found root is re-verified by powering before it is
returned, exactly or mod p^level.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd
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
    """(a as a PadicApproxMatrix, its context, the working level). A
    PadicApproxMatrix brings its own context and default level, and
    bounds the level: past it the entries are unknown."""
    if level is not None and level < 1:
        raise ValueError("level must be >= 1")
    if isinstance(a, PadicApproxMatrix):
        if level is not None and level > a.level:
            raise PrecisionExhausted(
                f"matrix is known mod {a.ctx.p}^{a.level}, not mod {a.ctx.p}^{level}")
        return a, a.ctx, a.level if level is None else level
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
    base = 2 if p == 2 else 1
    ident = modmat.identity_mat(n)
    start_mod = p ** base
    if modmat.reduce_mat(a.entries, start_mod) != ident:
        raise BadDomain(f"matrix is not congruent to 1 mod {start_mod}")
    if level <= base:
        return RootResult.found(PadicApproxMatrix(ctx, level, ident))
    mod = p ** level
    y = modmat.inverse_root(a.entries, k, ident, p, level)
    x = modmat.mat_mul(a.entries, modmat.mat_pow(y, k - 1, mod), mod)
    if modmat.mat_pow(x, k, mod) != a.entries:
        raise InternalInvariantViolation("congruence root failed the powering check")
    return RootResult.found(PadicApproxMatrix(ctx, level, x))


def _ad_sum_operator(x: modmat.Mat, k: int, p: int) -> list:
    """Matrix over F_p of Y -> sum_{i<k} X^{-i} Y X^i on n x n matrices."""
    n = len(x)
    xinv = modmat.mat_inv(x, p, 1)
    powers = [(modmat.identity_mat(n), modmat.identity_mat(n))]
    for _ in range(k - 1):
        prev_inv, prev = powers[-1]
        powers.append((modmat.mat_mul(prev_inv, xinv, p), modmat.mat_mul(prev, x, p)))
    # entry (r, c) of X^{-i} E_ab X^i is X^{-i}[r][a] X^i[b][c]; rows and
    # columns are indexed by (r, c) and by the basis matrix E_ab, row-major
    return [[sum(xi[r][a] * xp[b][c] for xi, xp in powers) % p
             for a in range(n) for b in range(n)] for r in range(n) for c in range(n)]


def _affine_solutions(mat: list, rhs: list, p: int):
    """Every solution of mat*y = rhs over F_p, none when inconsistent,
    read off the reduced form of [mat | rhs]. The free coordinates run
    through F_p in lexicographic order."""
    cols = len(mat[0])
    m, pivots, _ = modmat.rref_mod([list(r) + [b] for r, b in zip(mat, rhs)], p, width=cols)
    if any(row[cols] for row in m[len(pivots):]):
        return
    free = [c for c in range(cols) if c not in pivots]
    for coeffs in product(range(p), repeat=len(free)):
        y = [0] * cols
        for c, t in zip(free, coeffs):
            y[c] = t
        for i, pc in enumerate(pivots):
            y[pc] = (m[i][cols] - sum(m[i][c] * t for c, t in zip(free, coeffs))) % p
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
    dim = size - len(modmat.rref_mod(system, p)[1])
    if p ** dim > _SEED_CAP:
        raise CapExceeded(f"the centralizer of the target mod {p} has {p}^{dim} elements, "
                          f"past the seed cap {_SEED_CAP}")
    centralizer = (tuple(tuple(y[i * n:(i + 1) * n]) for i in range(n))
                   for y in _affine_solutions(system, [0] * size, p))
    return sorted(x for x in centralizer if modmat.mat_pow(x, k, p) == t)


def finite_root(a, k: int, ctx: Optional[PContext] = None,
                level: Optional[int] = None) -> RootResult:
    """k-th root of an invertible matrix mod p^level by exhaustive mod-p
    search plus level-by-level linear lifting.

    All mod-p roots are explored before declaring NO_ROOT, because a lift
    can die along one branch and survive along another. Branches are
    visited in lexicographic candidate order, so the Found answer is
    deterministic. The mod-p roots are drawn from the centralizer of the
    target (``_mod_p_roots``); a centralizer past 10^6 elements, or more
    than _NODE_CAP lift branches, raises CapExceeded.
    """
    if k < 1:
        raise ValueError("k must be positive")
    a, ctx, level = _as_approx(a, ctx, level)
    p, n = ctx.p, a.n
    target_p = modmat.reduce_mat(a.entries, p)
    seeds = _mod_p_roots(target_p, k, p)
    if not seeds:
        return RootResult.no_root(1)
    # every node x above a seed has x = seed and x^k = target_p mod p, so
    # X^(-k) mod p is target_p^(-1) and the Ad-sum operator is the seed's
    target_inv = modmat.mat_inv(target_p, p, 1)
    operators = {}
    deepest_death = 1
    nodes = 0
    stack = [(x, 1, x) for x in reversed(seeds)]
    while stack:
        x, m, seed = stack.pop()
        nodes += 1
        if nodes > _NODE_CAP:
            raise CapExceeded(f"finite_root explored more than {_NODE_CAP} branches")
        if m == level:
            mod = p ** level
            if modmat.mat_pow(x, k, mod) != a.entries:
                raise InternalInvariantViolation("finite root failed the powering check")
            return RootResult.found(PadicApproxMatrix(ctx, level, x))
        mod_next = p ** (m + 1)
        xk = modmat.mat_pow(x, k, mod_next)
        step = p ** m
        diff = tuple(tuple((ae - xe) % mod_next for ae, xe in zip(ra, rx))
                     for ra, rx in zip(modmat.reduce_mat(a.entries, mod_next), xk))
        if any(d % step for row in diff for d in row):
            deepest_death = max(deepest_death, m)
            continue
        # solve X^k * T(Y) = D with T the Ad-power sum; fold X^{-k} into D
        d_mat = modmat.mat_mul(target_inv,
                               tuple(tuple((d // step) % p for d in row) for row in diff), p)
        op = operators.get(seed)
        if op is None:  # built when the seed is first expanded
            op = operators[seed] = _ad_sum_operator(seed, k, p)
        rhs = [d_mat[i][j] for i in range(n) for j in range(n)]
        lifts = []
        for yvec in _affine_solutions(op, rhs, p):
            y = tuple(tuple(yvec[i * n + j] for j in range(n)) for i in range(n))
            xy = modmat.mat_mul(x, y, p)  # X(1 + p^m Y) = X + p^m (XY mod p) mod p^(m+1)
            lifts.append((tuple(tuple((u + step * v) % mod_next for u, v in zip(r, s))
                                for r, s in zip(x, xy)), m + 1, seed))
        if not lifts:  # inconsistent: this branch dies here
            deepest_death = max(deepest_death, m)
        stack.extend(sorted(lifts, reverse=True))
    return RootResult.no_root(deepest_death)


def _affine_power(alpha: int, beta: int, k: int, mod: int):
    """(alpha, beta)^k = (alpha^k, (1 + alpha + ... + alpha^(k-1)) beta) mod
    `mod`: the top row of the k-th power of the matrix ((alpha, beta), (0, 1))."""
    return modmat.mat_pow(((alpha, beta), (0, 1)), k, mod)[0]


def axb_root(elem, k: int, ctx: PContext, level: Optional[int] = None) -> RootResult:
    """k-th root of (a, b) in the solvable group with product
    (a, b)(a', b') = (aa', b + a b'), a a unit of Z_p, b in Z_p.

    Power formula: (a, b)^k = (a^k, (1 + a + ... + a^{k-1}) b), the
    k-th power of the affine matrix ((a, b), (0, 1)). Every k-th root
    alpha of a is tried; the unipotent coordinate needs the geometric sum
    to be invertible enough to divide b.
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
    alphas = _unit_roots(a_res, k, ctx, level)
    if not alphas:
        return RootResult.no_root(level)
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


def _unit_roots(a: int, k: int, ctx: PContext, level: int):
    """All k-th roots of a unit mod p^level, ascending."""
    p = ctx.p
    mod = p ** level
    roots = []
    seeds = [x for x in range(1, p) if pow(x, k, p) == a % p]
    for seed in seeds:
        found = _lift_unit_root(a, k, seed, p, level)
        roots.extend(found)
    return sorted(set(r % mod for r in roots))


def _lift_unit_root(a: int, k: int, seed: int, p: int, level: int):
    """Lift x^k = a from a mod-p seed through all levels (branching DFS)."""
    out = []
    stack = [(seed, 1)]
    while stack:
        x, m = stack.pop()
        if m == level:
            out.append(x)
            continue
        mod_next = p ** (m + 1)
        step = p ** m
        diff = (a - pow(x, k, mod_next)) % mod_next
        if diff % step:
            continue
        d = (diff // step) % p
        # derivative k * x^{k-1}; invertible unless p | k
        deriv = k * pow(x, k - 1, p) % p
        if deriv:
            t = d * pow(deriv, -1, p) % p
            stack.append((x + t * step, m + 1))
        else:
            if d == 0:
                for t in range(p):
                    stack.append((x + t * step, m + 1))
            # else: branch dies
    return out


def _verified_axb(alpha: int, beta: int, k: int, level: int, ctx: PContext,
                  target) -> RootResult:
    mod = ctx.p ** level
    if _affine_power(alpha, beta, k, mod) != (target[0] % mod, target[1] % mod):
        raise InternalInvariantViolation("semidirect root failed the powering check")
    return RootResult.found((ResidueScalar(alpha % mod, level, ctx.p),
                             ResidueScalar(beta % mod, level, ctx.p)))
