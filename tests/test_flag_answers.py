"""Identical-answer guard for the flag layer: a sha256 digest of the
saturation verdicts and flags on a fixed-seed sample of generator sets.

For each set it records bounded_group's verdict, rounds, caps,
invariant lattice and witness word, and ku_flag's answer: the flag's
dims, basis and quotient lattices, None, or the witness word. The
families are conjugated p-power diagonals, conjugated elementary
products, unipotents with 1/p entries and an expanding corner, at p in
{2, 3} and n in {2, 3}. A deliberate change of any answer updates DIGEST
and says why. It last changed when bounded_group came to grow Z_p^n by
the generators alone (the sum chain L + sum g(L), with no inverses): the
parent's hashed tuples diffed entry by entry against the new ones differ
in one field of one entry of 40, the rounds of a single unipotent with
1/3 entries at p = 3, n = 3 (entry 34), BOUNDED at round 3 for 2. Every
verdict, invariant lattice, witness word and ku_flag answer stayed the
same. Before that, it changed when BoundednessResult lost its divisor
trace (the elementary divisors of each grown lattice against Z_p^n),
which left the hashed tuple; the code before that change gives the same
new digest on the trace-free tuple, so no answer changed. Before that,
it changed when bounded_group's witness word joined the hashed tuple, so
that a change of word shows even where rounds and traces stay; the same
code gave the new digest before and after that edit, so no answer
changed. Before that, it changed when bounded_group
came to run the word search itself,
once the lattice still grows after 2n rounds, and ku_flag lost its
word_len and the column of answers with the sampler off: the 2
upper/lower unipotent pairs at p = 2, whose generators are all type R,
went from INCONCLUSIVE at the 64-round cap to UNBOUNDED with witness
g1·g2, at round 4 (n = 2) and round 6 (n = 3), their divisor traces cut
to those rounds. Every other bounded_group result and every ku_flag
answer stayed the same. Before that, UNBOUNDED came to need a
certificate: the 20 UNBOUNDED sets, called after 30-32 rounds of
divergence evidence, came to be called at round 0 with a generator that
is not type R as witness.

The second test checks the lemma behind ku_flag on the same sample: a
group that preserves a flag whose diagonal blocks fix lattices L_1, ...,
L_m fixes the lattice sum_i p^(N i) L_i in the flag basis, once N beats
the denominators of the off-diagonal blocks; so each returned flag
certifies a bounded group. The third checks that every UNBOUNDED result
carries its certificate: a witness word, multiplied out in the
generators, that is not type R."""
import hashlib
import random
from fractions import Fraction as F
from functools import cache, reduce
from operator import mul

from ppm.dynamics import UNBOUNDED, FlagDecomposition, GeneratorSet, bounded_group, ku_flag
from ppm.errors import NotTypeR
from ppm.linalg import Lattice, QMatrix, apply
from ppm.qpcore import PContext
from ppm.scale import scale_newton

from test_identical_answers import _canon, _conjugator, _elementary

DIGEST = "68c450d11f7efce3050710e2d82826bf8d9a8a6b4428c4d3e0959cf0831298f6"


def _unipotent(rng, p, n):
    rows = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = F(rng.randint(-2, 2), rng.choice([1, p]))
    return QMatrix(rows)


def _corner(rng, p, n):
    """Identity on the first n - 1 coordinates, p^-1 times a unit on the
    last, with integer entries above it: the last direction expands."""
    rows = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        rows[i][n - 1] = F(rng.randint(-2, 2))
    rows[n - 1][n - 1] = F(rng.choice([1, -1, p + 1]), p)
    return QMatrix(rows)


def _sample():
    """About forty (ctx, generators) pairs, the same on every run."""
    rng = random.Random(20261019)
    sets = []
    for p in (2, 3):
        ctx = PContext(p)
        for n in (2, 3):
            c = _conjugator(rng, p, n)
            c_inv = c.inverse()
            for _ in range(2):
                exps = [rng.randint(-1, 1) for _ in range(n)]
                units = [rng.choice([1, -1, p + 1]) for _ in range(n)]
                diag = QMatrix.diagonal([F(u) * F(p) ** e for u, e in zip(units, exps)])
                sets.append((ctx, [c_inv * diag * c]))
            for count in (1, 2):
                sets.append((ctx, [c_inv * _elementary(rng, n) * c for _ in range(count)]))
            for count in (1, 2):
                sets.append((ctx, [_unipotent(rng, p, n) for _ in range(count)]))
            # an upper and a lower unipotent: not type R, unbounded
            lower = QMatrix([list(col) for col in zip(*_unipotent(rng, p, n).rows)])
            sets.append((ctx, [_unipotent(rng, p, n), lower]))
            for count in (1, 2):
                gens = [_corner(rng, p, n)] + [_unipotent(rng, p, n) for _ in range(count - 1)]
                sets.append((ctx, [c_inv * g * c for g in gens]))
            sets.append((ctx, [_corner(rng, p, n)]))
    return sets


def _flag(group):
    """ku_flag's answer: a FlagDecomposition, None, or the witness word."""
    try:
        return ku_flag(group)
    except NotTypeR as exc:
        return ("not type R", exc.witness.word_str())


@cache
def _results():
    out = []
    for ctx, gens in _sample():
        group = GeneratorSet.of(ctx, gens)
        out.append((group, bounded_group(group), _flag(group)))
    return out


def _flag_canon(flag):
    if isinstance(flag, FlagDecomposition):
        return (flag.dims, flag.flag_basis, flag.quotient_lattices)
    return flag


def test_answers_match_the_recorded_digest():
    answers = []
    for group, res, flag in _results():
        caps = None if res.caps is None else sorted(res.caps.items())
        answers.append((group.ctx.p, group.gens, res.verdict, res.rounds, caps,
                        res.invariant, res.witness.word if res.witness else None,
                        _flag_canon(flag)))
    text = repr(_canon(answers))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST


def _sleeved_lattice(flag, exponent):
    """sum_i p^(exponent * i) L_i in the flag basis, blocks on the diagonal."""
    n = flag.dims[-1]
    cols = []
    for i, lat in enumerate(flag.quotient_lattices):
        lo = flag.dims[i]
        scale = F(lat.ctx.p) ** (exponent * i)
        for col in map(lat.basis.column, range(lat.n)):
            cols.append([F(0)] * lo + [scale * x for x in col] + [F(0)] * (n - lo - lat.n))
    return Lattice(flag.quotient_lattices[0].ctx, cols)


def test_every_sampled_flag_fixes_a_sleeved_lattice():
    flags = [flag for _, _, flag in _results() if isinstance(flag, FlagDecomposition)]
    assert flags
    for flag in flags:
        assert any(all(apply(conj, lat) == lat for conj in flag.conjugated_gens)
                   for lat in (_sleeved_lattice(flag, e) for e in range(65)))


def test_every_unbounded_result_carries_a_word_that_is_not_type_r():
    unbounded = [(group, res.witness) for group, res, _ in _results()
                 if res.verdict == UNBOUNDED]
    assert unbounded
    for group, witness in unbounded:
        letters = [group.gens[i] if sign > 0 else group.gens[i].inverse()
                   for i, sign in witness.word]
        assert witness.matrix == reduce(mul, letters)
        w = witness.matrix
        assert scale_newton(w, group.ctx) > 0 or scale_newton(w.inverse(), group.ctx) > 0
