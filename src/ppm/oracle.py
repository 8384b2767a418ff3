"""Exhaustive ground truth on finite matrix groups over Z/p^m.

Everything here is brute force by design: these tables validate the
coprimality criteria and the root machinery on honest finite quotients.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import modmat
from .errors import CapExceeded
from .qpcore import PContext
from .steinitz import Supernatural, _factor, coprime, general_linear_order


def _key(mat) -> tuple:
    return tuple(x for row in mat for x in row)


@dataclass(frozen=True)
class FiniteGroupTable:
    """The subgroup of GL(n, Z/p^m) generated by the given matrices.

    elements are stored flattened row-major and canonically sorted, so
    tables are reproducible and membership is a set lookup. Closure under
    products holds structurally (breadth-first fixpoint); closure under
    inverses is checked element by element on construction.
    """

    ctx: PContext
    level: int
    n: int
    elements: tuple
    generators: tuple

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, mat) -> bool:
        return _key(modmat.reduce_mat(mat, self.ctx.p ** self.level)) in self._index()

    def _index(self):
        # soft cache on first use
        if not hasattr(self, "_idx"):
            object.__setattr__(self, "_idx", frozenset(_key(m) for m in self.elements))
        return self._idx


def enumerate_group(gens, ctx: PContext, level: int, cap: int = 1_000_000) -> FiniteGroupTable:
    """Breadth-first closure of the generators under product and inverse."""
    p = ctx.p
    mod = p ** level
    n = len(gens[0])
    gens = [modmat.reduce_mat(g, mod) for g in gens]
    for g in gens:
        if not modmat.invertible_mod(g, p):
            raise ValueError("generator is singular mod p")
    step_mats = []
    for g in gens:
        step_mats.append(g)
        step_mats.append(modmat.mat_inv(g, p, level))
    ident = modmat.identity_mat(n)
    seen = {_key(ident): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in step_mats:
                y = modmat.mat_mul(x, g, mod)
                ky = _key(y)
                if ky not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(f"group closure exceeded cap {cap}")
                    seen[ky] = y
                    nxt.append(y)
        frontier = nxt
    elements = tuple(sorted(seen.values(), key=_key))
    table = FiniteGroupTable(ctx, level, n, elements, tuple(gens))
    _verify_closure(table)
    return table


def _verify_closure(table: FiniteGroupTable):
    idx = frozenset(_key(m) for m in table.elements)
    for x in table.elements:
        if _key(modmat.mat_inv(x, table.ctx.p, table.level)) not in idx:
            raise AssertionError("table is not closed under inversion")
    full = general_linear_order(table.n, table.ctx.p) \
        * table.ctx.p ** (table.n * table.n * (table.level - 1))
    if full % len(table.elements):
        raise AssertionError("table order does not divide |GL(n, Z/p^m)|")


@dataclass(frozen=True)
class PowerImage:
    surjective: bool
    image_size: int


def power_surjective(table: FiniteGroupTable, k: int) -> PowerImage:
    """Compute {x^k} exhaustively; surjective iff the image is everything."""
    mod = table.ctx.p ** table.level
    image = {_key(modmat.mat_pow(x, k, mod)) for x in table.elements}
    return PowerImage(len(image) == table.order, len(image))


@dataclass(frozen=True)
class F1Check:
    """Exhaustive power map vs the coprimality criterion on one table."""

    agree: bool
    surjective: bool
    k_coprime_to_order: bool
    order: int
    image_size: int


def validate_f1(table: FiniteGroupTable, k: int) -> F1Check:
    img = power_surjective(table, k)
    cop = coprime(k, Supernatural.from_int(table.order))
    return F1Check(img.surjective == cop, img.surjective, cop, table.order,
                   img.image_size)


def full_gl_generators(n: int, p: int, m: int = 1):
    """A generating set of GL(n, Z/p^m): elementary transvections (these
    generate SL over the local ring) plus diagonal matrices carrying
    generators of the unit group, to reach every determinant."""
    def identity_but(i, j, x):
        return tuple(tuple(x if (a, b) == (i, j) else int(a == b) for b in range(n))
                     for a in range(n))

    gens = [identity_but(i, j, 1) for i in range(n) for j in range(n) if i != j]
    for scalar_gen in unit_group_generators(p, m):
        unit = scalar_gen[0][0]
        if unit % p ** m != 1:
            gens.append(identity_but(0, 0, unit))
    if not gens:  # n = 1 over Z/2
        gens.append(((1,),))
    return gens


def _primitive_root(p: int) -> int:
    if p == 2:
        return 1
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in _factor(p - 1)):
            return g
    raise AssertionError("no primitive root found")


def unit_group_generators(p: int, m: int):
    """Generators of (Z/p^m)^* as 1x1 matrices."""
    if p == 2:
        gens = [((3,),), ((2 ** m - 1,),)] if m >= 3 else [((max(2 ** m - 1, 1),),)]
        return gens
    return [((_primitive_root(p),),), ((1 + p if m > 1 else 1,),)]


def is_subgroup(small: FiniteGroupTable, big: FiniteGroupTable) -> bool:
    if (small.ctx.p, small.level, small.n) != (big.ctx.p, big.level, big.n):
        return False
    big_idx = frozenset(_key(m) for m in big.elements)
    return all(_key(m) in big_idx for m in small.elements)


def lagrange_consistent(big: FiniteGroupTable, small: FiniteGroupTable) -> bool:
    """|K| = [K : L] * |L| for a subgroup L of K."""
    return is_subgroup(small, big) and big.order % small.order == 0
