"""Identical-answer guard for the flag layer: a sha256 digest of the
saturation verdicts and flags on a fixed-seed sample of generator sets.

For each set it records bounded_group's verdict, rounds, divisor trace,
caps and invariant lattice, and ku_flag's answer with the word sampler off
and at its default length: the flag's dims, basis and quotient lattices,
None, or the sampler's witness word. The families are conjugated p-power
diagonals, conjugated elementary products, unipotents with 1/p entries
and an expanding corner, at p in {2, 3} and n in {2, 3}; the diagonals
and the corners are unbounded, so with the sampler off they reach the
flag search past an UNBOUNDED verdict. A deliberate change of any answer
updates DIGEST and says why. It last changed when UNBOUNDED came to need
a certificate: the 20 UNBOUNDED sets, called after 30-32 rounds
of divergence evidence, are now called at round 0 with a generator that
is not type R as witness; the 2 upper/lower unipotent pairs, whose
generators are all type R, went from UNBOUNDED at round 63 to
INCONCLUSIVE at the 64-round cap. The 18 BOUNDED results and every flag
stayed the same.

The second test checks the lemma behind ku_flag on the same sample: a
group that preserves a flag whose diagonal blocks fix lattices L_1, ...,
L_m fixes the lattice sum_i p^(N i) L_i in the flag basis, once N beats
the denominators of the off-diagonal blocks; so each returned flag
certifies a bounded group. The third checks that every UNBOUNDED result
carries its certificate: a one-letter witness, the generator that is not
type R."""
import hashlib
import random
from fractions import Fraction as F
from functools import cache

from ppm.dynamics import UNBOUNDED, FlagDecomposition, GeneratorSet, bounded_group, ku_flag
from ppm.errors import NotTypeR
from ppm.linalg import Lattice, QMatrix, apply
from ppm.qpcore import PContext
from ppm.scale import scale_newton

from test_identical_answers import _canon, _conjugator, _elementary

DIGEST = "36f0ec2258c282fc4241922dca4738c6de414242e698d40578a00683896de573"


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


def _flag(group, **kwargs):
    """ku_flag's answer: a FlagDecomposition, None, or the witness word."""
    try:
        return ku_flag(group, **kwargs)
    except NotTypeR as exc:
        return ("not type R", exc.witness.word_str())


@cache
def _results():
    out = []
    for ctx, gens in _sample():
        group = GeneratorSet.of(ctx, gens)
        out.append((group, bounded_group(group), _flag(group, word_len=0), _flag(group)))
    return out


def _flag_canon(flag):
    if isinstance(flag, FlagDecomposition):
        return (flag.dims, flag.flag_basis, flag.quotient_lattices)
    return flag


def test_answers_match_the_recorded_digest():
    answers = []
    for group, res, flag_off, flag in _results():
        caps = None if res.caps is None else sorted(res.caps.items())
        answers.append((group.ctx.p, group.gens, res.verdict, res.rounds, res.divisor_trace,
                        caps, res.invariant, _flag_canon(flag_off), _flag_canon(flag)))
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
    flags = [flag for _, _, *answers in _results() for flag in answers
             if isinstance(flag, FlagDecomposition)]
    assert flags
    for flag in flags:
        assert any(all(apply(conj, lat) == lat for conj in flag.conjugated_gens)
                   for lat in (_sleeved_lattice(flag, e) for e in range(65)))


def test_every_unbounded_result_carries_a_generator_that_is_not_type_r():
    unbounded = [(group, res.witness) for group, res, *_ in _results()
                 if res.verdict == UNBOUNDED]
    assert unbounded
    for group, witness in unbounded:
        (i, sign), = witness.word
        assert sign == 1 and witness.matrix == group.gens[i]
        w = witness.matrix
        assert scale_newton(w, group.ctx) > 0 or scale_newton(w.inverse(), group.ctx) > 0
