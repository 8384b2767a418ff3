"""Exhaustive ground truth on finite matrix groups over Z/p^m.

Everything here is brute force by design: these tables validate the
coprimality criteria and the root machinery on honest finite quotients.
A table is the Cayley graph of its generators, searched on tuples of row
indices once the orbit of the standard rows has given each generator its row
table; the orbit maps each row by every generator in one call of a
``modmat.row_images`` kernel, so every product mod p^m here is modmat's.
Powers are walked by applying an element's word as permutations, and each
power image is read off the walks once per divisor of the order.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cache, cached_property
from math import gcd
from operator import itemgetter

from . import modmat
from .errors import CapExceeded
from .qpcore import PContext
from .steinitz import Supernatural, coprime, general_linear_order


def _code(mat, mod: int) -> int:
    """The entries, flattened row-major, as the digits of one base-mod
    integer. Entries lie in [0, mod), so codes sort exactly as the
    flattened entry tuples do; the row codes are its base-mod^n digits."""
    code = 0
    for row in mat:
        for x in row:
            code = code * mod + x
    return code


def _key(mat, mod: int) -> tuple:  # the row codes: keys sort as codes do
    return tuple(_code((row,), mod) for row in mat)


def _digits(code: int, count: int, mod: int) -> tuple:
    """The last `count` base-mod digits of code, most significant first."""
    out = ()
    for _ in range(count):
        code, x = divmod(code, mod)
        out = (x,) + out
    return out


def _search(points: list, images, count: int, cap: int):
    """Breadth-first search by `count` generators, images(x) listing each x·g, that
    grows the points list from its start points to at most `cap` points per start
    point (else CapExceeded). Returns (parent, via, perms): x_i = x_parent[i] ·
    gens[via[i]] past the start, perms[g][i] the position of x_i · gens[g]."""
    pos = {x: i for i, x in enumerate(points)}
    parent, via = array("i", [-1]) * len(points), array("i", [-1]) * len(points)
    perms, limit = [[] for _ in range(count)], len(points) * cap
    for i, x in enumerate(points):  # points grows as the search goes
        for g, y in enumerate(images(x)):
            j = pos.get(y)
            if j is None:
                if len(points) >= limit:
                    raise CapExceeded(f"group closure exceeded cap {cap}")
                j = pos[y] = len(points)
                points.append(y)
                parent.append(i)
                via.append(g)
            perms[g].append(j)
    return parent, via, perms


def _cayley(gens, n: int, mod: int, cap: int):
    """The Cayley graph of gens by right multiplication, searched from 1 to at most
    `cap` elements. First the rows: the orbit of e_1, ..., e_n under v -> v·g gives
    each generator g its row table (row index -> index of row·g), one
    ``modmat.row_images`` call mapping a row by every generator; an element has n
    rows, so more than n·cap rows prove the group past cap. Then the elements, each
    held as the tuple of its row indices: x·g is itemgetter(*x)(table_g). Returns
    (keys, parent, via, perms) as ``_search`` does, the keys as row codes."""
    rows = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    tree = _search(rows, modmat.row_images(gens, mod), len(gens), cap)
    codes = [_code((row,), mod) for row in rows]
    if n == 1:  # the rows are the elements (and itemgetter(r) returns no tuple)
        return [(c,) for c in codes], *tree
    keys, tables = [tuple(range(n))], tree[2]
    tree = _search(keys, lambda x: map(itemgetter(*x), tables), len(gens), cap)
    for i, x in enumerate(keys):  # the search's dict of keys is gone: replace in place
        keys[i] = itemgetter(*x)(codes)
    return keys, *tree


class FiniteGroupTable:
    """The subgroup of GL(n, Z/p^m) generated by the given matrices.

    The table is its keys (``_key``): sorted when enumerated, as the flattened
    row-major entries sort, and in the order given when hand-built (one or more
    distinct n x n matrices over [0, p^m), generators too, else ValueError). Elements
    are decoded from the keys when first read, the index for membership built.
    Closure under products holds structurally (a search to a fixpoint).
    Closure under inverses is checked by the cyclic walks, which also give
    every power of every element (``_cycles``); they are kept, the graph is not.
    So are the power images, one per divisor of the order (``power_surjective``).
    """

    def __init__(self, ctx: PContext, level: int, n: int, elements, generators):
        mod = ctx.p ** level
        if not elements or any(len(m) != n or any(len(row) != n or not all(
                type(x) is int and 0 <= x < mod for x in row) for row in m)
               for m in (*elements, *generators)):
            raise ValueError(f"elements (at least one) and generators must be {n} x {n} "
                             f"over [0, {mod})")
        self.ctx, self.level, self.n, self.generators = ctx, level, n, generators
        self.elements = elements  # as given: it shadows the decoding property
        self._keys = tuple(_key(m, mod) for m in elements)
        if len(self._index) < self.order:
            raise ValueError("an element is listed twice")

    @cached_property
    def elements(self) -> tuple:
        row = cache(lambda r: _digits(r, self.n, self.ctx.p ** self.level))  # shared rows
        return tuple(tuple(map(row, key)) for key in self._keys)

    @property
    def order(self) -> int:
        return len(self._keys)

    def __contains__(self, mat) -> bool:
        modmat.require_ints(mat)
        mod = self.ctx.p ** self.level
        return _key(modmat.reduce_mat(mat, mod), mod) in self._index

    @cached_property
    def _index(self) -> dict:
        """key -> position in the table."""
        return {key: i for i, key in enumerate(self._keys)}

    @cached_property
    def _power_images(self) -> dict:
        """gcd(k, order) -> the PowerImage of x -> x^k (``power_surjective``)."""
        return {}

    @cached_property
    def _order_factors(self) -> Supernatural:
        return Supernatural.from_int(self.order)

    def _cycles(self, graph=None):
        """The cyclic walks, built once from the Cayley graph (found, parent, via,
        perms), found[t] the search position of the table's element t (searched
        afresh if not given: it must reach exactly the keys). From each y, in table
        order, that no walk passed yet, walk 1, y, y^2, ... back to 1, a step
        applying y's word, read once off the search tree, as permutations. Returns
        (walk, step, start, flat): element i is y^step[i] for the walk w = walk[i]
        of y, whose powers 1, y, ..., y^(d-1) are at flat[start[w]:start[w + 1]]."""
        if hasattr(self, "_walks"):
            return self._walks
        if graph is None:
            try:
                keys, *tree = _cayley(self.generators, self.n, self.ctx.p ** self.level,
                                      self.order)
            except CapExceeded:
                keys = ()  # the generators reach past the table
            pos = {key: i for i, key in enumerate(keys)}
            if len(pos) < self.order or not all(c in pos for c in self._keys):
                raise AssertionError("the generators do not generate exactly the table")
            graph = (list(map(pos.__getitem__, self._keys)), *tree)
        found, parent, via, perms = graph
        rank = array("i", [0]) * self.order  # search -> table position
        for i, x in enumerate(found):
            rank[x] = i
        one, size = rank[0], len(rank)
        walk, step = array("i", [-1]) * size, array("i", [0]) * size
        walk[one] = 0
        start, flat = array("i", [0]), array("i", [one])  # walk 0 is the walk of 1
        for i, x in enumerate(found):
            if walk[i] >= 0:
                continue
            word, b = [], x
            while b:  # x_b = x_parent[b] · gens[via[b]]
                word.append(perms[via[b]])
                b = parent[b]
            word.reverse()
            start.append(len(flat))
            flat.append(one)
            for j in range(1, size + 1):
                if x == 0:  # back at 1, the search's first element
                    break
                at = rank[x]
                flat.append(at)
                if walk[at] < 0:
                    walk[at], step[at] = len(start) - 1, j
                for perm in word:
                    x = perm[x]
            else:
                raise AssertionError("a power walk does not return to 1: the table "
                                     "is not closed under inversion")
        start.append(len(flat))
        self._walks = (walk, step, start, flat)
        return self._walks


def enumerate_group(gens, ctx: PContext, level: int, cap: int = 1_000_000) -> FiniteGroupTable:
    """The subgroup generated by gens (in a finite group, g^-1 = g^(ord g - 1)),
    by ``_cayley``'s search to at most cap >= 1 elements, its keys sorted once. Its
    walks are built from the graph, which is then dropped; they check closure under
    inverses. The order must divide |GL(n, Z/p^m)|."""
    for name, value in (("level", level), ("cap", cap)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer")
    if level < 1:
        raise ValueError("level must be >= 1")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if not gens:
        raise ValueError("need at least one generator")
    p, mod, n = ctx.p, ctx.p ** level, len(gens[0])
    if not n or any(len(g) != n or any(len(row) != n for row in g) for g in gens):
        raise ValueError("every generator must be n x n, n >= 1")
    modmat.require_ints(*gens)
    gens = tuple(modmat.reduce_mat(g, mod) for g in gens)
    if not all(modmat.invertible_mod(g, p) for g in gens):
        raise ValueError("generator is singular mod p")
    keys, parent, via, perms = _cayley(gens, n, mod, cap)
    # table -> search position: perms[0] lists each position once, sharing its ints
    found = sorted(perms[0], key=keys.__getitem__)
    table = FiniteGroupTable.__new__(FiniteGroupTable)  # its elements are decoded when read
    vars(table).update(ctx=ctx, level=level, n=n, generators=gens,
                       _keys=tuple(map(keys.__getitem__, found)))
    _verify_closure(table, (found, parent, via, perms))
    return table


def _verify_closure(table: FiniteGroupTable, graph=None):
    table._cycles(graph)  # raises unless every element's inverse is in the table
    full = general_linear_order(table.n, table.ctx.p) \
        * table.ctx.p ** (table.n * table.n * (table.level - 1))
    if full % table.order:
        raise AssertionError("table order does not divide |GL(n, Z/p^m)|")


@dataclass(frozen=True)
class PowerImage:
    surjective: bool
    image_size: int


def power_surjective(table: FiniteGroupTable, k: int) -> PowerImage:
    """Compute {x^k} exhaustively; surjective iff the image is everything.

    The k-th powers of a cyclic group <y> of order d are <y^gcd(k, d)>, so on
    a walk 1, y, ..., y^(d-1) they are the slice flat[s:e:gcd(k, d)]; the image
    is the union of those slices (for k = 0, flat[s:e:d], which is {1}). Every
    d divides |G|, so gcd(k, d) = gcd(g, d) for g = gcd(k, |G|) (for k = 0 both
    are d): the image is computed once per g and kept on the table."""
    if k < 0:
        raise ValueError("k must be non-negative")
    g = gcd(k, table.order)
    if g not in table._power_images:
        _, _, start, flat = table._cycles()
        image = set()
        for s, e in zip(start, start[1:]):
            image.update(flat[s:e:gcd(g, e - s)])
        table._power_images[g] = PowerImage(len(image) == table.order, len(image))
    return table._power_images[g]


@dataclass(frozen=True)
class F1Check:
    """Exhaustive power map vs the coprimality criterion on one table."""

    agree: bool
    surjective: bool
    k_coprime_to_order: bool
    order: int
    image_size: int


def validate_f1(table: FiniteGroupTable, k: int) -> F1Check:
    if k < 1:
        raise ValueError("k must be a positive integer")
    img = power_surjective(table, k)
    cop = coprime(k, table._order_factors)
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
    primes = Supernatural.from_int(p - 1).primes()
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in primes):
            return g
    raise AssertionError("no primitive root found")


def unit_group_generators(p: int, m: int):
    """Generators of (Z/p^m)^* as 1x1 matrices."""
    if p == 2:
        return [((3,),), ((2 ** m - 1,),)] if m >= 3 else [((max(2 ** m - 1, 1),),)]
    return [((_primitive_root(p),),)] + ([((1 + p,),)] if m > 1 else [])


def is_subgroup(small: FiniteGroupTable, big: FiniteGroupTable) -> bool:
    if (small.ctx.p, small.level, small.n) != (big.ctx.p, big.level, big.n):
        return False
    return all(key in big._index for key in small._keys)


def lagrange_consistent(big: FiniteGroupTable, small: FiniteGroupTable) -> bool:
    """|K| = [K : L] * |L| for a subgroup L of K."""
    return is_subgroup(small, big) and big.order % small.order == 0
