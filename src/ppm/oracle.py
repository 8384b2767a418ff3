"""Exhaustive ground truth on finite matrix groups over Z/p^m.

Everything here is brute force by design: these tables validate the
coprimality criteria and the root machinery on honest finite quotients.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass

from . import modmat
from .errors import CapExceeded
from .qpcore import PContext
from .steinitz import Supernatural, _factor, coprime, general_linear_order


def _code(mat, mod: int) -> int:
    """The entries, flattened row-major, as the digits of one base-mod
    integer. Entries lie in [0, mod), so codes sort exactly as the
    flattened entry tuples do."""
    code = 0
    for row in mat:
        for x in row:
            code = code * mod + x
    return code


@dataclass(frozen=True)
class FiniteGroupTable:
    """The subgroup of GL(n, Z/p^m) generated by the given matrices.

    elements are sorted by their flattened row-major entries, so tables
    are reproducible; membership is a lookup of the element's code.
    Closure under products holds structurally (breadth-first fixpoint).
    Closure under inverses is checked on construction by the cyclic
    walks, which also give every power of every element (``_cycles``).
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
        mod = self.ctx.p ** self.level
        return _code(modmat.reduce_mat(mat, mod), mod) in self._index()

    def _index(self) -> dict:
        """code -> position in elements; a soft cache built on first use."""
        if not hasattr(self, "_idx"):
            mod = self.ctx.p ** self.level
            object.__setattr__(self, "_idx",
                               {_code(m, mod): i for i, m in enumerate(self.elements)})
        return self._idx

    def _cycles(self):
        """The cyclic walks through the table, built and checked on first use.

        From each element y that no earlier walk passed, walk 1, y, y^2, ...
        by multiplication until the walk returns to 1. Every power must be
        in the table, so y^(d-1) is, and y * y^(d-1) = 1: each element on a
        walk has its inverse in the table. Returns (walk, step, start,
        flat), arrays of element positions: element i is y^step[i] for the
        walk w = walk[i] of y, whose powers 1, y, ..., y^(d-1) are
        flat[start[w]:start[w + 1]].
        """
        if hasattr(self, "_walks"):
            return self._walks
        mod = self.ctx.p ** self.level
        index = self._index()
        size = len(self.elements)
        one = index.get(_code(modmat.identity_mat(self.n), mod))
        if one is None:
            raise AssertionError("table does not contain the identity")
        walk = array("i", [-1]) * size
        step = array("i", [0]) * size
        walk[one] = 0
        start, flat = array("i", [0]), array("i", [one])  # walk 0 is the walk of 1
        for i, y in enumerate(self.elements):
            if walk[i] >= 0:
                continue
            w = len(start)
            start.append(len(flat))
            flat.append(one)
            x = y
            for j in range(1, size + 1):
                pos = index.get(_code(x, mod))
                if pos is None:
                    raise AssertionError("table is not closed under powers, so not "
                                         "under inversion")
                if pos == one:
                    break
                flat.append(pos)
                if walk[pos] < 0:
                    walk[pos], step[pos] = w, j
                x = modmat.mat_mul(x, y, mod)
            else:
                raise AssertionError("a power walk does not return to 1: the table "
                                     "is not closed under inversion")
        start.append(len(flat))
        object.__setattr__(self, "_walks", (walk, step, start, flat))
        return self._walks


def enumerate_group(gens, ctx: PContext, level: int, cap: int = 1_000_000) -> FiniteGroupTable:
    """Breadth-first closure of the identity under right multiplication by
    the generators, keyed by element codes. In a finite group that is the
    generated subgroup, since g^-1 = g^(ord g - 1); the cyclic walks then
    check closure under inverses, and the order must divide
    |GL(n, Z/p^m)|."""
    if level < 1:
        raise ValueError("level must be >= 1")
    if not gens:
        raise ValueError("need at least one generator")
    p = ctx.p
    mod = p ** level
    n = len(gens[0])
    gens = [modmat.reduce_mat(g, mod) for g in gens]
    for g in gens:
        if not modmat.invertible_mod(g, p):
            raise ValueError("generator is singular mod p")
    ident = modmat.identity_mat(n)
    seen = {_code(ident, mod): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = modmat.mat_mul(x, g, mod)
                code = _code(y, mod)
                if code not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded(f"group closure exceeded cap {cap}")
                    seen[code] = y
                    nxt.append(y)
        frontier = nxt
    elements = tuple(seen[c] for c in sorted(seen))
    del seen  # the table indexes its elements afresh, by position
    table = FiniteGroupTable(ctx, level, n, elements, tuple(gens))
    _verify_closure(table)
    return table


def _verify_closure(table: FiniteGroupTable):
    table._cycles()  # raises unless every element's inverse is in the table
    full = general_linear_order(table.n, table.ctx.p) \
        * table.ctx.p ** (table.n * table.n * (table.level - 1))
    if full % len(table.elements):
        raise AssertionError("table order does not divide |GL(n, Z/p^m)|")


@dataclass(frozen=True)
class PowerImage:
    surjective: bool
    image_size: int


def power_surjective(table: FiniteGroupTable, k: int) -> PowerImage:
    """Compute {x^k} exhaustively; surjective iff the image is everything.

    x = y^j on a walk of length d has x^k = y^(jk mod d), which the walk
    holds: every power is read off a multiplication already made."""
    if k < 0:
        raise ValueError("k must be non-negative")
    walk, step, start, flat = table._cycles()
    hit = bytearray(table.order)  # hit[i] = 1 when element i is a k-th power
    for w, j in zip(walk, step):
        s = start[w]
        hit[flat[s + j * k % (start[w + 1] - s)]] = 1
    size = hit.count(1)
    return PowerImage(size == table.order, size)


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
    mod = big.ctx.p ** big.level
    big_idx = big._index()
    return all(_code(m, mod) in big_idx for m in small.elements)


def lagrange_consistent(big: FiniteGroupTable, small: FiniteGroupTable) -> bool:
    """|K| = [K : L] * |L| for a subgroup L of K."""
    return is_subgroup(small, big) and big.order % small.order == 0
