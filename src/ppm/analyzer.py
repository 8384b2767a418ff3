"""Density/surjectivity verdicts for power maps on catalog p-adic groups
and user-supplied finitely generated matrix groups.

The catalog carries its structural facts (which quotient is compact and
its pro-order, which radical is a split unipotent group) as data, one
table row per variant: they are classical, and computing them from
defining equations is out of scope. A group keeping a split torus is
never dense; every other one is a compact extension of split unipotent
groups, and x -> x^k is onto exactly when k is prime to the compact
part's pro-order. ``analyze`` decides that once and returns through one
shared tail, drawing spot roots in one loop. For these groups density and
surjectivity coincide, and the verdict cites that equivalence explicitly.
Finitely generated inputs only ever receive necessary-condition verdicts.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .dynamics import GeneratorSet, ku_flag
from .errors import InputError, InternalInvariantViolation, NotASubgroup, NotTypeR, \
    UnsupportedCharacteristic
from .linalg import QMatrix
from .qpcore import PContext
from .roots import FOUND, axb_root, finite_root, unipotent_root
from .steinitz import ord_catalog, profinite_surjective
from . import modmat

ADDITIVE_QP = "AdditiveQp"
ADDITIVE_ZP = "AdditiveZp"
UNITS_ZP = "UnitsZp"
GL_ZP = "GL_Zp"
GL_QP = "GL_Qp"
UPPER_UNIPOTENT_QP = "UpperUnipotent_Qp"
BOREL_QP = "Borel_Qp"
AXB_ZP_UNITS = "AxB_ZpUnits"
FINITELY_GENERATED = "FinitelyGenerated"

# structural kinds of the quasi-reductive quotient
_SPLIT_UNIPOTENT = "split_unipotent"          # the whole group is one
_COMPACT = "compact"                          # group itself compact, pro-order known
_COMPACT_EXTENSION = "compact_over_unipotent"  # compact quotient over a split radical
_NONCOMPACT = "noncompact_quasireductive"     # quotient keeps a split torus

# variant -> (description at {p} and {n}, structural kind, ord_catalog name
# of the compact part or None, whether it takes a dimension)
_CATALOG = {
    ADDITIVE_QP: ("(Q_{p}^{n}, +)", _SPLIT_UNIPOTENT, None, True),
    ADDITIVE_ZP: ("(Z_{p}, +)", _COMPACT, "AdditiveZp", False),
    UNITS_ZP: ("Z_{p}^*", _COMPACT, "UnitsZp", False),
    GL_ZP: ("GL({n}, Z_{p})", _COMPACT, "GLn_Zp", True),
    GL_QP: ("GL({n}, Q_{p})", _NONCOMPACT, None, True),
    UPPER_UNIPOTENT_QP: ("upper unitriangular {n}x{n} over Q_{p}", _SPLIT_UNIPOTENT, None,
                         True),
    BOREL_QP: ("upper triangular invertible {n}x{n} over Q_{p}", _NONCOMPACT, None, True),
    AXB_ZP_UNITS: ("Z_{p}^* acting on the line (ax+b, a unit)", _COMPACT_EXTENSION,
                   "UnitsZp", False),
}


@dataclass(frozen=True)
class GroupSpec:
    """A group from the catalog, or a finitely generated matrix group."""

    variant: str
    ctx: PContext
    n: int = 1
    gens: Optional[GeneratorSet] = None

    def __post_init__(self):
        if self.variant not in _CATALOG and self.variant != FINITELY_GENERATED:
            raise InputError(f"unknown group variant {self.variant!r}")
        if self.n < 1:
            raise InputError("dimension must be positive")
        if self.n != 1 and self.variant in _CATALOG and not _CATALOG[self.variant][3]:
            raise InputError(f"{self.variant} does not take a dimension")
        if (self.variant == FINITELY_GENERATED) != (self.gens is not None):
            raise InputError("generator sets go with FinitelyGenerated, only")
        if self.gens is not None and self.gens.n != self.n:
            raise InputError("generator dimension disagrees with the group dimension")

    def describe(self) -> str:
        if self.gens is not None:
            return f"matrix group on {len(self.gens.gens)} generators"
        return _CATALOG[self.variant][0].format(p=self.ctx.p, n=self.n)

    def structure(self):
        """(kind, pro-order of the compact part or None) of a catalog group."""
        _, kind, compact, _ = _CATALOG[self.variant]
        return kind, None if compact is None else ord_catalog(compact, self.ctx.p, n=self.n)


SURJECTIVE_AND_DENSE = "SurjectiveAndDense"
NOT_DENSE = "NotDense"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class PowerVerdict:
    """Conclusion for (group, k) plus the criteria that produced it.

    justification is an ordered list of (criterion, detail) steps;
    certificate optionally carries computed witnesses (roots, invariant
    lattices, order computations).
    """

    k: int
    conclusion: str
    justification: tuple
    certificate: dict = field(default_factory=dict)

    def citations(self):
        return [name for name, _ in self.justification]


def _verdict(k, conclusion, steps, certificate=None) -> PowerVerdict:
    steps = list(steps)
    if conclusion in (SURJECTIVE_AND_DENSE, NOT_DENSE):
        steps.append(("density-surjectivity-equivalence",
                      "for these groups the k-th power image is dense iff onto"))
    return PowerVerdict(k, conclusion, tuple(steps), certificate or {})


def analyze(spec: GroupSpec, k: int, spot_checks: int = 0,
            rng: Optional[random.Random] = None, characteristic: int = 0) -> PowerVerdict:
    """Decide whether x -> x^k has dense (equivalently surjective) image.

    spot_checks > 0 additionally extracts that many random k-th roots as
    a certificate wherever the verdict promises surjectivity. Only
    characteristic-0 base fields are computed.
    """
    if characteristic != 0:
        raise UnsupportedCharacteristic(
            "verdicts over positive-characteristic local fields are documented "
            "but not computed")
    if k < 1:
        raise InputError("k must be a positive integer")
    if spot_checks < 0:
        raise InputError("the spot-check count must be >= 0")
    if k == 1:
        return _verdict(k, SURJECTIVE_AND_DENSE,
                        [("identity-power", "k = 1 is the identity map")])
    if spec.variant == FINITELY_GENERATED:
        return _finitely_generated_verdict(spec, k)
    kind, order = spec.structure()
    if kind == _NONCOMPACT:
        return _verdict(k, NOT_DENSE, [
            ("noncompact-quasireductive-quotient",
             f"{spec.describe()} has a noncompact quotient with trivial split "
             "unipotent radical, so the power image cannot be dense for k > 1"),
            ("split-torus-obstruction",
             "a split torus survives in the quotient and its k-th powers are "
             "a proper closed subgroup"),
        ])
    onto = order is None or profinite_surjective(k, order)
    cert = {}
    if kind == _SPLIT_UNIPOTENT:
        steps = [("split-unipotent-divisibility",
                  f"{spec.describe()} is split unipotent over a characteristic-0 field, "
                  "so k-th roots exist and are unique for every k")]
    elif kind == _COMPACT:
        steps = [("compact-group-order", f"{spec.describe()} is compact with pro-order {order}"),
                 ("coprimality", f"k = {k} shares a prime with the order: {not onto}")]
        cert["order"] = str(order)
    else:  # _COMPACT_EXTENSION
        steps = [("split-unipotent-radical",
                  "the translation part is a split unipotent normal subgroup; "
                  "the quotient by it is compact"),
                 ("compact-quotient-order", f"quotient pro-order {order}"),
                 ("coprimality", f"gcd-free({k}, {order}) = {onto}")]
        if onto:
            steps.append(("congruence-lift",
                          "surjectivity on the compact quotient lifts through the "
                          "nilpotent normal subgroup level by level"))
    if not onto:
        return _verdict(k, NOT_DENSE, steps, cert)
    cert.update(_spot_roots(spec, kind, k, spot_checks, rng or random.Random(0)))
    return _verdict(k, SURJECTIVE_AND_DENSE, steps, cert)


def _finitely_generated_verdict(spec, k):
    try:
        flag = ku_flag(spec.gens)  # its saturation runs the type-R word search
    except NotTypeR as exc:
        word = exc.witness.word_str()
        return _verdict(k, NOT_DENSE, [
            ("eigenvalue-witness",
             f"word {word} has an eigenvalue of absolute value != 1, "
             "which dense power images forbid"),
        ], {"witness_word": word})
    if flag is None:  # the saturation ran out, past a word search that found nothing
        return _verdict(k, INCONCLUSIVE, [
            ("sampler-necessary-only",
             "all short words are type R; this is a necessary condition, not a proof"),
            ("flag-unresolved", "no certified flag within the caps"),
        ], {})
    return _verdict(k, INCONCLUSIVE, [
        ("flag-certified",
         f"flag dimensions {flag.dims}: the group sits inside "
         "compact-by-split-unipotent, consistent with dense powers"),
    ], {"flag_dims": list(flag.dims)})


def _spot_roots(spec, kind, k, count, rng):
    """Certificate entries for count random k-th roots, each found and
    re-verified by the root routine of the group's kind."""
    if not count:
        return {}
    ctx, level = spec.ctx, spec.ctx.precision_n
    mod = ctx.p ** level
    for _ in range(count):
        if kind == _SPLIT_UNIPOTENT:
            n = spec.n if spec.variant == UPPER_UNIPOTENT_QP else 2
            found = unipotent_root(_random_unipotent(n, rng), k).status == FOUND
        elif spec.variant == ADDITIVE_ZP:
            # the k-th "power" is k * x; k is a unit, so the root b / k lies in Z_p
            b = rng.randrange(mod)
            found = k * (b * pow(k, -1, mod) % mod) % mod == b
        elif kind == _COMPACT_EXTENSION:
            a = _random_gl(1, ctx.p, level, rng)[0][0]
            found = axb_root((a, rng.randrange(mod)), k, ctx, level).status == FOUND
        else:
            target = _random_gl(spec.n, ctx.p, level, rng)
            found = finite_root(target, k, ctx, level).status == FOUND
        if not found:
            raise InternalInvariantViolation(
                f"verdict promised a {k}-th root in {spec.describe()} that was not found")
    if kind == _COMPACT:
        return {"spot_roots": count, "spot_level": level}
    return {"spot_roots": count}


def _random_unipotent(n, rng):
    rows = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return QMatrix(rows)


def _random_gl(n, p, level, rng):
    mod = p ** level
    while True:
        rows = tuple(tuple(rng.randrange(mod) for _ in range(n)) for _ in range(n))
        if modmat.invertible_mod(rows, p):
            return rows


# containment witnesses between catalog groups: True marks an algebraic
# subgroup (inheritance applies), "profinite" a closed subgroup of a
# compact parent (inheritance via pro-order divisibility), "closed" a
# merely closed subgroup (no inheritance).
def _containment(parent: GroupSpec, sub: GroupSpec):
    pv, sv = parent.variant, sub.variant
    if parent.ctx.p != sub.ctx.p:
        return None
    if pv == sv and parent.n == sub.n:
        return True
    if pv == ADDITIVE_QP and sv == ADDITIVE_QP and sub.n <= parent.n:
        return True
    if pv == ADDITIVE_QP and sv == ADDITIVE_ZP:
        return "closed"
    if pv == GL_ZP and sv == UNITS_ZP:
        return "profinite"
    if pv == GL_QP and sv in (GL_ZP, UNITS_ZP) and (sv != GL_ZP or sub.n == parent.n):
        return "closed"
    if pv == GL_QP and sv in (BOREL_QP, UPPER_UNIPOTENT_QP) and sub.n == parent.n:
        return True
    if pv == BOREL_QP and sv == UPPER_UNIPOTENT_QP and sub.n == parent.n:
        return True
    return None


@dataclass(frozen=True)
class SubgroupVerdict:
    parent: PowerVerdict
    subgroup: PowerVerdict
    relation: str
    note: str = ""


def analyze_subgroup(parent: GroupSpec, sub: GroupSpec, k: int) -> SubgroupVerdict:
    """Verdicts for a catalog pair, applying inheritance when the
    containment supports it and flagging the classic counterexample when
    it does not."""
    how = _containment(parent, sub)
    if how is None:
        raise NotASubgroup(
            f"no containment witness for {sub.describe()} inside {parent.describe()}")
    parent_verdict = analyze(parent, k)
    independent = analyze(sub, k)
    if parent_verdict.conclusion == SURJECTIVE_AND_DENSE and how in (True, "profinite"):
        reason = ("algebraic-subgroup-inheritance" if how is True
                  else "profinite-order-divisibility")
        inherited = _verdict(k, SURJECTIVE_AND_DENSE, [
            (reason, f"surjectivity on {parent.describe()} passes to {sub.describe()}")])
        if independent.conclusion not in (SURJECTIVE_AND_DENSE,):
            raise InternalInvariantViolation(
                "inheritance and the independent analysis disagree")
        return SubgroupVerdict(parent_verdict, inherited, "inherited")
    note = ""
    if parent_verdict.conclusion == SURJECTIVE_AND_DENSE and how == "closed" \
            and independent.conclusion != SURJECTIVE_AND_DENSE:
        note = ("closed non-algebraic subgroups do not inherit surjectivity: "
                f"{sub.describe()} fails at k = {k} although {parent.describe()} does not")
    return SubgroupVerdict(parent_verdict, independent, "independent", note)


_ALIASES = {"AxB": AXB_ZP_UNITS, "Zp": ADDITIVE_ZP, "Qp": ADDITIVE_QP}


def is_catalog_name(text: str) -> bool:
    """True when text names a catalog group, valid dimension or not."""
    name = text.strip().split("(", 1)[0]
    return _ALIASES.get(name, name) in _CATALOG


def parse_group(text: str, ctx: PContext) -> GroupSpec:
    """Parse CLI group syntax: "GL_Zp(2)", "UnitsZp", "AxB", "AdditiveQp(3)"..."""
    text = text.strip()
    name, arg = text, None
    if "(" in text and text.endswith(")"):
        name, inner = text[:-1].split("(", 1)
        try:
            arg = int(inner)
        except ValueError as exc:
            raise InputError(f"bad dimension in {text!r}") from exc
    name = _ALIASES.get(name, name)
    if name not in _CATALOG:
        raise InputError(f"unknown group {text!r}")
    if _CATALOG[name][3]:
        if arg is None:
            raise InputError(f"{name} needs a dimension, e.g. {name}(2)")
        return GroupSpec(name, ctx, arg)
    if arg is not None:
        raise InputError(f"{name} does not take a dimension")
    return GroupSpec(name, ctx)
