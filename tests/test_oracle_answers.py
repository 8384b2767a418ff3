"""Identical-answer guard for the oracle: a sha256 digest of each table's
order, sorted elements, cyclic walks (the four ``_cycles`` arrays) and
power images ``power_surjective(t, k)`` for k in 0..40, over a fixed
sample: full GL_2(Z/p^m) for p^m in {2, 4, 3, 9, 5}, GL_2(Z/8), GL_3(F_2),
the unit groups (Z/p^m)^* that the modular bench enumerates, and 40
seeded random 2-generator tables. GL_2(Z/25) (300,000 elements) is left
out for time. How the tables are built and walked may change; the
answers read off them must not. A deliberate change of any answer
updates DIGEST and says why."""
import hashlib
import random

from ppm import modmat
from ppm.errors import CapExceeded
from ppm.oracle import enumerate_group, full_gl_generators, power_surjective, \
    unit_group_generators
from ppm.qpcore import PContext

DIGEST = "e5716d2c5b5c1288f71205e18694546c9297c8740e47ab0b34ea878f3d5d041a"

FULL_GL = ((2, 2, 1), (2, 2, 2), (2, 3, 1), (2, 3, 2), (2, 5, 1), (2, 2, 3), (3, 2, 1))
# (p, m) of the bench's unit-group tables
BENCH_UNITS = ((3, 5), (5, 3), (2, 7), (7, 3), (3, 6), (11, 2), (13, 2), (2, 9))
RANDOM_SHAPES = ((2, 1, 1), (2, 1, 3), (2, 2, 1), (2, 2, 2), (3, 1, 2), (3, 2, 1),
                 (3, 2, 2), (5, 1, 2), (5, 2, 1), (2, 3, 1))  # (p, n, m)


def _random_tables(count, seed=20):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p, n, m = rng.choice(RANDOM_SHAPES)
        gens = []
        while len(gens) < 2:
            cand = tuple(tuple(rng.randrange(p ** m) for _ in range(n)) for _ in range(n))
            if modmat.invertible_mod(cand, p):
                gens.append(cand)
        try:
            out.append(enumerate_group(gens, PContext(p), m, cap=2_000))
        except CapExceeded:
            continue
    return out


def _tables():
    yield from (enumerate_group(full_gl_generators(n, p, m), PContext(p), m)
                for n, p, m in FULL_GL)
    yield from (enumerate_group(unit_group_generators(p, m), PContext(p), m)
                for p, m in BENCH_UNITS)
    yield from _random_tables(40)


def _answers():
    return [(t.ctx.p, t.level, t.n, t.order, t.elements,
             tuple(tuple(a) for a in t._cycles()),
             [power_surjective(t, k) for k in range(41)]) for t in _tables()]


def test_oracle_answers_match_the_recorded_digest():
    text = repr(_answers())
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
