"""Linear dynamics of finitely generated matrix groups over Q_p.

Three layers: a type-R sampler over short words (a necessary condition
only, flagged as such), a boundedness decision by lattice saturation
with an exactly verified invariant-lattice certificate, and a flag
decomposition splitting the space so that every quotient action is
bounded. The decision is one loop, ``bounded_group``: it checks each
generator once, grows Z_p^n by the generators alone (``linalg.sum_chain``)
until the index is 0, and runs the sampler once, when 2n rounds have not
stopped. The flag climbs the tower of common fixed subspaces by linear
algebra alone, carrying one basis, and runs that loop once, on the last
quotient; its certificate is re-checked by containment
(``linalg.maps_into``), with no Hermite form. Every UNBOUNDED verdict is
certified by the scale criterion: a word in the generators is not type
R, a generator at round 0 or a sampled word at round 2n. Otherwise the
verdict is BOUNDED or INCONCLUSIVE (the round cap ran out).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate
from operator import mul
from typing import Optional

from .errors import InternalInvariantViolation, NotTypeR, Singular
from .linalg import Lattice, QMatrix, eliminate, maps_into, sum_chain
from .qpcore import PContext, vp_frac
from .scale import type_r

_DEFAULT_WORD_LEN = 4
_DEFAULT_ROUNDS = 64


@dataclass(frozen=True)
class GeneratorSet:
    ctx: PContext
    n: int
    gens: tuple

    def __post_init__(self):
        gens = tuple(self.gens)
        if not gens:
            raise ValueError("need at least one generator")
        if any(g.n != self.n for g in gens):
            raise ValueError("generator dimensions disagree")
        object.__setattr__(self, "gens", gens)
        if 0 in self.dets:
            raise Singular("matrix is singular")

    @cached_property
    def dets(self) -> tuple:
        """Each generator's determinant, computed once."""
        return tuple(g.det() for g in self.gens)

    @cached_property
    def inverses(self) -> tuple:
        """Each generator inverted once, on first read."""
        return tuple(g.inverse() for g in self.gens)

    @classmethod
    def of(cls, ctx: PContext, matrices) -> "GeneratorSet":
        matrices = tuple(matrices)
        return cls(ctx, matrices[0].n if matrices else 0, matrices)


def type_r_matrix(a: QMatrix, ctx: PContext) -> bool:
    """True iff every eigenvalue of a has p-adic absolute value 1, by
    scale.type_r on a's determinant; Singular for a singular a."""
    det = a.det()
    if det == 0:
        raise Singular("type R is only defined for invertible matrices")
    return type_r(a, vp_frac(det, ctx.p), ctx)


@dataclass(frozen=True)
class Witness:
    """A word in the generators whose matrix is not type R."""

    word: tuple  # (generator index, +1 | -1) letters
    matrix: QMatrix

    def word_str(self) -> str:
        def letter(idx, sign):
            return f"g{idx + 1}" if sign > 0 else f"g{idx + 1}^-1"
        return "·".join(letter(i, s) for i, s in self.word)


def type_r_witness_search(group: GeneratorSet, word_len: int = _DEFAULT_WORD_LEN
                          ) -> Optional[Witness]:
    """Check all reduced words up to word_len; return the first failure
    in breadth-first order, or None when every sampled word is type R.

    Words are QMatrix products, deduplicated on their values, and decided
    by scale.type_r, v_p(det) being the sum of the letters' valuations.

    This samples a necessary condition: words beyond the bound are not
    inspected, so None never certifies that the whole group is type R.
    """
    if word_len < 0:
        raise ValueError("word_len must be non-negative")
    ctx = group.ctx
    letters = [((i, sign), h, sign * vp_frac(group.dets[i], ctx.p))  # h = g_i^sign, v_p(det h)
               for i, pair in enumerate(zip(group.gens, group.inverses))
               for sign, h in zip((1, -1), pair)]
    one = QMatrix.identity(group.n)
    seen = {one}
    frontier = [(one, (), 0)]
    for _ in range(word_len):
        nxt = []
        for mat, word, val in frontier:
            for (i, sign), h, v in letters:
                if word and word[-1] == (i, -sign):
                    continue  # immediate cancellation
                m2 = mat * h
                if m2 in seen:
                    continue
                seen.add(m2)
                w2, v2 = word + ((i, sign),), val + v
                if not type_r(m2, v2, ctx):
                    return Witness(w2, m2)
                nxt.append((m2, w2, v2))
        frontier = nxt
    return None


BOUNDED = "bounded"
UNBOUNDED = "unbounded"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class BoundednessResult:
    """Verdict on whether the generated group has bounded orbits.

    BOUNDED carries a lattice fixed exactly by every generator (a real
    certificate): the least one containing Z_p^n, where the sum chain
    stopped. UNBOUNDED carries a word that is not type R, so its
    powers are unbounded and no invariant lattice exists: a generator at
    round 0, or the sampler's word at round min(2n, cap). INCONCLUSIVE
    reports the caps that ran out. rounds counts the saturation rounds run.
    """

    verdict: str
    invariant: Optional[Lattice] = None
    rounds: int = 0
    caps: Optional[dict] = None
    witness: Optional[Witness] = None


def bounded_group(group: GeneratorSet, rounds_cap: int = _DEFAULT_ROUNDS) -> BoundednessResult:
    """UNBOUNDED, with no rounds, at the first generator that is not type R
    (the scale criterion; complete for one generator). Otherwise round k + 1
    reads the index [F_{k+1} : F_k] = p^e_k of the sum chain F_0 = Z_p^n,
    F_{k+1} = F_k + sum_i g_i(F_k) (linalg.sum_chain), with no inverse
    taken. e_k = 0 certifies BOUNDED with F_k: F_{k+1} = F_k, so each g maps
    F_k into itself, and with its unit det g(F_k) = F_k. That F_k is the
    least lattice containing Z_p^n that every generator maps into itself,
    so it is the least group-invariant one. rounds_cap rounds end
    INCONCLUSIVE. If it still grows at round min(2n, rounds_cap), the word
    search runs once: a witness ends the loop UNBOUNDED at that round."""
    if rounds_cap < 0:
        raise ValueError("rounds_cap must be non-negative")
    ctx = group.ctx
    for i, g in enumerate(group.gens):
        if not type_r(g, vp_frac(group.dets[i], ctx.p), ctx):
            return BoundednessResult(UNBOUNDED, witness=Witness(((i, 1),), g))
    chain = sum_chain(Lattice.standard(ctx, group.n), group.gens)
    # range comes first: zip stops at the cap without reducing one more sum
    for round_no, (lat, e) in zip(range(1, rounds_cap + 1), chain):
        if e == 0:
            return BoundednessResult(BOUNDED, invariant=lat, rounds=round_no)
        if round_no == min(2 * group.n, rounds_cap):
            witness = type_r_witness_search(group)
            if witness is not None:
                return BoundednessResult(UNBOUNDED, rounds=round_no, witness=witness)
    return BoundednessResult(INCONCLUSIVE, rounds=rounds_cap, caps={"rounds": rounds_cap})


@dataclass(frozen=True)
class FlagDecomposition:
    """A flag 0 = V_0 < V_1 < ... < V_m = V with bounded quotient actions.

    flag_basis columns list bases of V_1, then lifts of V_2/V_1, etc.
    dims are the cumulative dimensions (0, d_1, ..., n). Conjugating any
    generator by flag_basis is block upper triangular at those cuts, and
    the diagonal block on each quotient fixes the recorded lattice; the
    strictly upper part is the split-unipotent sleeve, the bounded
    diagonal actions are the compact one.
    """

    flag_basis: QMatrix
    dims: tuple
    quotient_lattices: tuple
    conjugated_gens: tuple

    def block(self, mat: QMatrix, i: int) -> QMatrix:
        return mat.block(self.dims[i], self.dims[i + 1])


def _verify_flag(group: GeneratorSet, flag: FlagDecomposition):
    """Re-check the flag with no Hermite form: g t = t conj, conj block
    triangular, and each diagonal block maps its lattice into itself, so its
    det has v_p >= 0; these sum to v_p(det g) = 0, so each block fixes it."""
    basis = flag.flag_basis  # invertible: a product of the steps ku_flag inverted
    for g, det, conj in zip(group.gens, group.dets, flag.conjugated_gens):
        if g * basis != basis * conj or vp_frac(det, group.ctx.p):
            raise InternalInvariantViolation("conjugated generator mismatch, or a non-unit det")
        for i, lat in enumerate(flag.quotient_lattices):
            lo, hi = flag.dims[i], flag.dims[i + 1]
            if any(any(row[lo:hi]) for row in conj.numerators[hi:]):
                raise InternalInvariantViolation("flag certificate is not block triangular")
            if not maps_into(flag.block(conj, i), lat):
                raise InternalInvariantViolation(
                    "diagonal block does not fix its quotient lattice")


def common_fixed_space(group: GeneratorSet):
    """Basis of the subspace fixed pointwise by every generator: the
    nullspace of the stacked integer rows of d (g - 1), d = g's denominator
    (scaling keeps it). One vector per free column c, 1 at c and zero past
    it (a pivot row's entries sit right of its pivot), and -m[i][c] / P at
    pivot i, P the last pivot, by which eliminate scales the reduced form."""
    m = [[x - g.denominator * (i == j) for j, x in enumerate(row)]
         for g in group.gens for i, row in enumerate(g.numerators)]
    pivots, _, _ = eliminate(m, group.n)
    last = m[len(pivots) - 1][pivots[-1]] if pivots else 1
    basis = []
    for c in [j for j in range(group.n) if j not in pivots]:
        vec = [Fraction(int(k == c)) for k in range(group.n)]
        for i, pc in enumerate(pivots):
            vec[pc] = Fraction(-m[i][c], last)
        basis.append(tuple(vec))
    return basis


def _complete_basis(cols, n):
    """Extend the columns to a basis using standard vectors, with no
    elimination: e_j joins when it lies outside the span of cols and
    e_0, ..., e_(j-1). Each column is 1 at its last nonzero coordinate, and
    no two share it (unit vectors, and common_fixed_space's vectors at their
    free columns), so e_j joins iff j is no such coordinate."""
    lasts = {max(i for i, x in enumerate(c) if x) for c in cols}
    added = [[Fraction(int(i == j)) for i in range(n)] for j in range(n) if j not in lasts]
    return QMatrix.from_columns([list(c) for c in cols] + added)


def ku_flag(group: GeneratorSet) -> Optional[FlagDecomposition]:
    """Finest certified flag with bounded quotient actions, climbing the
    tower of common fixed subspaces.

    Raises NotTypeR when bounded_group finds a word that is not type R
    (the decomposition cannot exist then). Each step splits off, by linear
    algebra alone, the space the current quotient fixes pointwise, where
    the action is the identity and fixes the standard lattice; the steps
    exhibit the largest unipotent sleeve the generators share, and an
    irreducible bounded action stays one block. The climb carries the
    basis t and the conjugates t^-1 g t: a step embeds its basis
    completion as D = diag(1, completion), inverts D once, sets t <- t D,
    conj <- D^-1 conj D, and reads the next quotient off conj's last block.

    Only the last quotient is saturated, once. Its invariant lattice is
    the last block's; INCONCLUSIVE there returns None. Saturating the
    whole group first would add nothing: if a finitely generated group
    preserves a flag whose diagonal blocks fix lattices L_1, ..., L_m,
    then in the flag basis it fixes the lattice sum_i p^(N i) L_i once N
    beats the p-adic denominators of the generators' off-diagonal blocks,
    so the group is bounded. Any returned decomposition has passed the
    exact certificate checks.

    The answer is that of searching the whole group's short words first:
    each climbing step has an identity block, so char w = (x - 1)^d char w'
    for a word w and its image w' on the last quotient, and the search
    there finds the same first witness, which is raised as a product of
    the original generators.
    """
    ctx, n = group.ctx, group.n
    t, conj = QMatrix.identity(n), group.gens  # conj[k] = t^-1 gens[k] t
    dims, lattices = [], []
    rest = group  # the action on the trailing quotient V / V_i
    while True:
        fixed = common_fixed_space(rest)
        if not 0 < len(fixed) < rest.n:  # a fixed space is always invariant
            break
        cut, d = n - rest.n, len(fixed)
        unit = [[int(i == j) for i in range(n)] for j in range(cut)]  # step = diag(1, completion)
        step = _complete_basis(unit + [[0] * cut + list(v) for v in fixed], n)
        step_inv = step.inverse()
        t, conj = t * step, tuple(step_inv * c * step for c in conj)
        rest = GeneratorSet(ctx, rest.n - d, tuple(c.block(cut + d, n) for c in conj))
        dims.append(d)
        lattices.append(Lattice.standard(ctx, d))
    res = bounded_group(rest)
    if res.verdict == UNBOUNDED:  # the same word is not type R on the whole space
        word = res.witness.word
        letters = ((group.gens if sign > 0 else group.inverses)[i] for i, sign in word)
        raise NotTypeR(Witness(word, reduce(mul, letters)))
    if res.verdict != BOUNDED:
        return None
    dims.append(rest.n)
    lattices.append(res.invariant)
    flag = FlagDecomposition(t, (0, *accumulate(dims)), tuple(lattices), conj)
    _verify_flag(group, flag)
    return flag
