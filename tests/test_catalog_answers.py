"""Identical-answer guard for the catalog verdicts: a sha256 digest of the
conclusion, justification and certificate of every catalog variant at
p in {2, 3, 5} and k in 1..12, in dimensions 1 and 2 where the variant
takes one, with and without spot roots (fixed rng), and of every
analyze_subgroup pair among those groups; and the pro-order of each
ord_catalog name, in dimensions 1 and 2 where it takes one. The catalog facts, the pro-orders and the coprimality
criterion behind them are data and one decision, so a change to how they
are stored or looked up must leave the digest as it is.
A deliberate change of any answer updates DIGEST and says why."""
import hashlib
import random

from ppm.analyzer import ADDITIVE_QP, ADDITIVE_ZP, AXB_ZP_UNITS, BOREL_QP, GL_QP, GL_ZP, \
    UNITS_ZP, UPPER_UNIPOTENT_QP, GroupSpec, analyze, analyze_subgroup
from ppm.errors import NotASubgroup
from ppm.qpcore import PContext
from ppm.steinitz import ord_catalog

CATALOG_ORDERS = ("GLn_Zp", "UnitsZp", "AdditiveZp", "PrincipalCongruence")
DIMENSIONLESS = ("UnitsZp", "AdditiveZp")

# Re-recorded (was d039d15e…) when ord_catalog lost its unread level and
# began to reject a dimension for UnitsZp and AdditiveZp: the pro-order
# entries at level 2 (copies of those at level 1) and at n = 2 for those two
# names are gone, and each of the 1,962 remaining entries is unchanged.
DIGEST = "5674c2d739eb86a599d81afbd0b3c811315ddaf0947756d52483583a8ec12d92"

WITH_DIMENSION = (ADDITIVE_QP, GL_ZP, GL_QP, UPPER_UNIPOTENT_QP, BOREL_QP)
WITHOUT_DIMENSION = (ADDITIVE_ZP, UNITS_ZP, AXB_ZP_UNITS)


def _specs(ctx):
    return ([GroupSpec(v, ctx, n) for v in WITH_DIMENSION for n in (1, 2)]
            + [GroupSpec(v, ctx) for v in WITHOUT_DIMENSION])


def _canon(verdict):
    return (verdict.k, verdict.conclusion, verdict.justification,
            sorted(verdict.certificate.items()))


def _answers():
    out = []
    for p in (2, 3, 5):
        ctx = PContext(p)
        specs = _specs(ctx)
        for k in range(1, 13):
            for spec in specs:
                for spots in (0, 2):
                    verdict = analyze(spec, k, spot_checks=spots, rng=random.Random(k))
                    out.append((spec.variant, spec.n, p, spots, _canon(verdict)))
            for parent in specs:
                for sub in specs:
                    try:
                        pair = analyze_subgroup(parent, sub, k)
                    except NotASubgroup:
                        continue
                    out.append((parent.variant, parent.n, sub.variant, sub.n, p,
                                _canon(pair.parent), _canon(pair.subgroup),
                                pair.relation, pair.note))
        for name in CATALOG_ORDERS:
            out += [(name, p, n, str(ord_catalog(name, p, n=n)))
                    for n in ((1,) if name in DIMENSIONLESS else (1, 2))]
    return out


def test_catalog_answers_match_the_recorded_digest():
    text = repr(_answers())
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
