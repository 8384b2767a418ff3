"""Identical-answer guard: a sha256 digest of canonical outputs on a
fixed-seed sample of the lattice and flag layers. Scale-tidy lattices and
traces, invariant lattices and flag dims and bases are all unique answers.
Smith directions are not unique, but they are pinned too: the Smith kernel
performs the same row operations up to units of Z_(p), which fixes them.
So a change to the exact arithmetic below them (an elimination kernel, a
matrix representation) must leave the digest as it is. A deliberate change
of any answer updates DIGEST and says why."""
import hashlib
import random
from fractions import Fraction as F

from ppm.dynamics import GeneratorSet, ku_flag
from ppm.errors import NotTypeR
from ppm.linalg import Lattice, QMatrix, elementary_divisors_with_directions
from ppm.qpcore import PContext
from ppm.scale import invariant_lattice, scale_tidy

DIGEST = "7bf2f8d7f9fb261be8bcfb8d61174b113a9476ff3a62e2d0e9bb91fc97e7ad94"


def _canon(x):
    """A plain nested tuple of strings: the same answer gives the same text."""
    if isinstance(x, QMatrix):
        return ("Q", tuple(tuple(str(v) for v in row) for row in x.rows))
    if isinstance(x, Lattice):
        return ("L", x.ctx.p, _canon(x.basis))
    if isinstance(x, (tuple, list)):
        return tuple(_canon(v) for v in x)
    return str(x)


def _elementary(rng, n, bound=2):
    m = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-bound, bound)
        for r in range(n):
            m[r][j] += c * m[r][i]
    return QMatrix(m)


def _conjugator(rng, p, n):
    """c = E diag(1, .., p^k) E' for integer elementary products E, E'."""
    diag = [1] * (n - 1) + [p ** rng.randint(0, 2)]
    return _elementary(rng, n) * QMatrix.diagonal(diag) * _elementary(rng, n)


def _answers(eight_cycle):
    rng = random.Random(20261018)
    out = []
    for p in (2, 3, 5):
        ctx = PContext(p)
        for n in (2, 3, 4):
            c = _conjugator(rng, p, n)
            exps = [rng.randint(-2, 2) for _ in range(n)]
            units = [rng.choice([1, -1, p + 1, 2 * p - 1]) for _ in range(n)]
            a = c.inverse() * QMatrix.diagonal([F(u) * F(p) ** e
                                                for u, e in zip(units, exps)]) * c
            for m in (a, a.inverse()):
                report = scale_tidy(m, ctx)
                out.append(("tidy", report.scale_exponent, report.minimizing_lattice,
                            report.iteration_trace))
            unit = c.inverse() * _elementary(rng, n) * c  # type R: an invariant lattice
            out.append(("invariant", invariant_lattice(unit, ctx), invariant_lattice(a, ctx)))
            ref = Lattice(ctx, _conjugator(rng, p, n))
            lat = Lattice(ctx, _conjugator(rng, p, n) * QMatrix.diagonal(
                [F(p) ** rng.randint(-3, 3) for _ in range(n)]))
            out.append(("smith", elementary_divisors_with_directions(ref, lat)))
    ctx3 = PContext(3)
    groups = [[eight_cycle],
              [QMatrix([[1, 1], [0, 1]]), QMatrix([[1, F(1, 3)], [0, 1]])],
              [QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
               QMatrix([[1, 0, 0], [0, 1, F(1, 3)], [0, 0, 1]])]]
    for gens in groups[1:] + groups[1:]:  # unipotent towers in a skew basis
        c = _conjugator(rng, 3, gens[0].n)
        groups.append([c.inverse() * g * c for g in gens])
    for _ in range(4):
        n = rng.choice([2, 3])
        c = _conjugator(rng, 3, n)
        groups.append([c.inverse() * _elementary(rng, n) * c for _ in range(2)])
    for gens in groups:
        try:
            flag = ku_flag(GeneratorSet.of(ctx3, gens))
        except NotTypeR as exc:
            out.append(("flag", "not type R", exc.witness.word_str()))
            continue
        out.append(("flag", None) if flag is None else
                   ("flag", flag.dims, flag.flag_basis, flag.quotient_lattices))
    return out


def test_answers_match_the_recorded_digest(eight_cycle):
    text = repr(_canon(_answers(eight_cycle)))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
