import random
from fractions import Fraction as F
from math import gcd

import pytest

from ppm.analyzer import ADDITIVE_QP, ADDITIVE_ZP, AXB_ZP_UNITS, BOREL_QP, \
    FINITELY_GENERATED, GL_QP, GL_ZP, INCONCLUSIVE, NOT_DENSE, SURJECTIVE_AND_DENSE, \
    UNITS_ZP, UPPER_UNIPOTENT_QP, GroupSpec, analyze, analyze_subgroup, parse_group
from ppm.dynamics import GeneratorSet
from ppm.errors import InputError, NotASubgroup, UnsupportedCharacteristic
from ppm.linalg import QMatrix
from ppm.oracle import enumerate_group, full_gl_generators, power_surjective, \
    unit_group_generators
from ppm.qpcore import PContext

CTX2, CTX3, CTX5 = PContext(2), PContext(3), PContext(5)


def test_zp_additive_fails_at_k_equal_p():
    for ctx in (CTX2, CTX3, CTX5):
        v = analyze(GroupSpec(ADDITIVE_ZP, ctx), ctx.p)
        assert v.conclusion == NOT_DENSE
        assert "coprimality" in v.citations()


def test_qp_additive_always_surjective():
    for k in range(1, 61):
        assert analyze(GroupSpec(ADDITIVE_QP, CTX3, 1), k).conclusion \
            == SURJECTIVE_AND_DENSE


def test_axb_worked_case():
    v = analyze(GroupSpec(AXB_ZP_UNITS, CTX5), 3, spot_checks=4, rng=random.Random(2))
    assert v.conclusion == SURJECTIVE_AND_DENSE
    assert v.certificate["spot_roots"] == 4
    names = v.citations()
    assert "compact-quotient-order" in names and "congruence-lift" in names
    assert analyze(GroupSpec(AXB_ZP_UNITS, CTX5), 5).conclusion == NOT_DENSE


def test_gl_qp_never_dense_past_one():
    for k in (2, 3, 5, 60):
        v = analyze(GroupSpec(GL_QP, CTX3, 2), k)
        assert v.conclusion == NOT_DENSE
        assert "split-torus-obstruction" in v.citations()
    assert analyze(GroupSpec(GL_QP, CTX3, 2), 1).conclusion == SURJECTIVE_AND_DENSE


def test_gl_zp_matches_gcd_rule():
    for k in range(1, 16):
        v = analyze(GroupSpec(GL_ZP, CTX3, 2), k)
        expect = SURJECTIVE_AND_DENSE if gcd(k, 6) == 1 else NOT_DENSE
        assert v.conclusion == expect


def test_only_split_unipotent_variants_are_divisible_for_every_k():
    groups = {
        ADDITIVE_QP: GroupSpec(ADDITIVE_QP, CTX3, 2),
        UPPER_UNIPOTENT_QP: GroupSpec(UPPER_UNIPOTENT_QP, CTX3, 3),
        ADDITIVE_ZP: GroupSpec(ADDITIVE_ZP, CTX3),
        UNITS_ZP: GroupSpec(UNITS_ZP, CTX3),
        GL_ZP: GroupSpec(GL_ZP, CTX3, 2),
        GL_QP: GroupSpec(GL_QP, CTX3, 2),
        BOREL_QP: GroupSpec(BOREL_QP, CTX3, 2),
        AXB_ZP_UNITS: GroupSpec(AXB_ZP_UNITS, CTX3),
    }
    for variant, spec in groups.items():
        always = all(analyze(spec, k).conclusion == SURJECTIVE_AND_DENSE
                     for k in range(1, 61))
        assert always == (variant in (ADDITIVE_QP, UPPER_UNIPOTENT_QP))


def test_verdict_coprimality_agrees_with_finite_oracle():
    cases = [
        (GroupSpec(GL_ZP, CTX3, 2), enumerate_group(full_gl_generators(2, 3, 2), CTX3, 2)),
        (GroupSpec(GL_ZP, CTX2, 2), enumerate_group(full_gl_generators(2, 2, 2), CTX2, 2)),
        (GroupSpec(UNITS_ZP, CTX5), enumerate_group(unit_group_generators(5, 2), CTX5, 2)),
        (GroupSpec(UNITS_ZP, CTX2), enumerate_group(unit_group_generators(2, 3), CTX2, 3)),
    ]
    for spec, table in cases:
        for k in range(1, 13):
            verdict_surjective = analyze(spec, k).conclusion == SURJECTIVE_AND_DENSE
            assert verdict_surjective == power_surjective(table, k).surjective


def test_compact_spot_roots_all_succeed():
    rng = random.Random(31)
    v = analyze(GroupSpec(GL_ZP, PContext(3, 12), 2), 5, spot_checks=50, rng=rng)
    assert v.certificate["spot_roots"] == 50
    v = analyze(GroupSpec(UNITS_ZP, PContext(5, 20)), 3, spot_checks=50, rng=rng)
    assert v.certificate["spot_roots"] == 50
    v = analyze(GroupSpec(ADDITIVE_ZP, PContext(5, 10)), 3, spot_checks=50, rng=rng)
    assert v.certificate["spot_roots"] == 50


def test_finitely_generated_pipeline():
    u1 = QMatrix([[1, 1], [0, 1]])
    low = QMatrix([[1, 0], [F(1, 3), 1]])
    bad = GroupSpec(FINITELY_GENERATED, CTX3, 2, GeneratorSet.of(CTX3, [u1, low]))
    v = analyze(bad, 4)
    assert v.conclusion == NOT_DENSE
    assert v.certificate["witness_word"] == "g1·g2"

    pair = GroupSpec(FINITELY_GENERATED, CTX3, 2,
                     GeneratorSet.of(CTX3, [u1, QMatrix([[1, F(1, 3)], [0, 1]])]))
    v = analyze(pair, 4)
    assert v.conclusion == INCONCLUSIVE
    assert v.certificate["flag_dims"] == [0, 1, 2]
    # never a positive density claim for finitely generated input past k = 1
    assert analyze(pair, 1).conclusion == SURJECTIVE_AND_DENSE


def test_only_an_unresolved_flag_cites_the_word_sampler(monkeypatch):
    # a certified flag proves the group bounded and samples no word; the
    # necessary-only search ran where the flag is unresolved
    import ppm.analyzer
    u1 = QMatrix([[1, 1], [0, 1]])
    pair = GroupSpec(FINITELY_GENERATED, CTX3, 2,
                     GeneratorSet.of(CTX3, [u1, QMatrix([[1, F(1, 3)], [0, 1]])]))
    assert [name for name, _ in analyze(pair, 4).justification] == ["flag-certified"]
    monkeypatch.setattr(ppm.analyzer, "ku_flag", lambda gens: None)
    assert [name for name, _ in analyze(pair, 4).justification] \
        == ["sampler-necessary-only", "flag-unresolved"]


def test_subgroup_inheritance_within_compact_parent():
    pair = analyze_subgroup(GroupSpec(GL_ZP, CTX3, 2), GroupSpec(UNITS_ZP, CTX3), 5)
    assert pair.parent.conclusion == SURJECTIVE_AND_DENSE
    assert pair.subgroup.conclusion == SURJECTIVE_AND_DENSE
    assert pair.relation == "inherited"


def test_subgroup_coordinate_projection():
    pair = analyze_subgroup(GroupSpec(ADDITIVE_QP, CTX3, 2),
                            GroupSpec(ADDITIVE_QP, CTX3, 1), 9)
    assert pair.parent.conclusion == SURJECTIVE_AND_DENSE
    assert pair.subgroup.conclusion == SURJECTIVE_AND_DENSE


def test_subgroup_non_inheritance_example():
    pair = analyze_subgroup(GroupSpec(ADDITIVE_QP, CTX3, 1),
                            GroupSpec(ADDITIVE_ZP, CTX3), 3)
    assert pair.parent.conclusion == SURJECTIVE_AND_DENSE
    assert pair.subgroup.conclusion == NOT_DENSE
    assert pair.relation == "independent"
    assert "non-algebraic" in pair.note


def test_subgroup_rejects_unwitnessed_pairs():
    with pytest.raises(NotASubgroup):
        analyze_subgroup(GroupSpec(UNITS_ZP, CTX3), GroupSpec(GL_ZP, CTX3, 2), 2)


def test_normal_subgroup_composition_rule():
    # the semidirect product is surjective exactly when both the normal
    # line and the unit quotient are
    for p, ctx in ((3, CTX3), (5, CTX5)):
        for k in range(1, 20):
            whole = analyze(GroupSpec(AXB_ZP_UNITS, ctx), k).conclusion
            line = analyze(GroupSpec(ADDITIVE_QP, ctx, 1), k).conclusion
            units = analyze(GroupSpec(UNITS_ZP, ctx), k).conclusion
            both = SURJECTIVE_AND_DENSE if (line == units == SURJECTIVE_AND_DENSE) \
                else NOT_DENSE
            assert whole == both


def test_characteristic_guard():
    with pytest.raises(UnsupportedCharacteristic):
        analyze(GroupSpec(ADDITIVE_ZP, CTX3), 2, characteristic=3)


def test_parse_group_grammar():
    assert parse_group("GL_Zp(2)", CTX3).variant == GL_ZP
    assert parse_group("AxB", CTX3).variant == AXB_ZP_UNITS
    assert parse_group("UnitsZp", CTX3).variant == UNITS_ZP
    assert parse_group("AdditiveQp(3)", CTX3).n == 3
    with pytest.raises(InputError):
        parse_group("GL_Zp", CTX3)
    with pytest.raises(InputError):
        parse_group("UnitsZp(2)", CTX3)
    with pytest.raises(InputError):
        parse_group("Sporadic", CTX3)


def test_finitely_generated_analyze_searches_past_the_letters_only_when_unresolved(
        monkeypatch):
    # the saturation decides the letters, and the full search runs only
    # when it has not stopped within 2n rounds, so a bounded group is not
    # searched at all
    import ppm.analyzer
    import ppm.dynamics
    depths = []
    search = ppm.dynamics.type_r_witness_search

    def recording(group, word_len=4):
        depths.append(word_len)
        return search(group, word_len)

    # patch every namespace that could hold the search
    monkeypatch.setattr(ppm.dynamics, "type_r_witness_search", recording)
    monkeypatch.setattr(ppm.analyzer, "type_r_witness_search", recording, raising=False)
    u1 = QMatrix([[1, 1], [0, 1]])
    type_r_pair = [u1, QMatrix([[1, F(1, 3)], [0, 1]])]
    witness_pair = [u1, QMatrix([[1, 0], [F(1, 3), 1]])]
    for gens, conclusion, expected in [(type_r_pair, INCONCLUSIVE, []),
                                       (witness_pair, NOT_DENSE, [4])]:
        depths.clear()
        v = analyze(GroupSpec(FINITELY_GENERATED, CTX3, 2, GeneratorSet.of(CTX3, gens)), 4)
        assert v.conclusion == conclusion
        assert depths == expected
    assert v.justification[0] == (
        "eigenvalue-witness",
        "word g1·g2 has an eigenvalue of absolute value != 1, "
        "which dense power images forbid")
    assert v.certificate == {"witness_word": "g1·g2"}


def test_a_negative_spot_check_count_is_an_input_error():
    specs = [GroupSpec(ADDITIVE_QP, CTX3, 1), GroupSpec(AXB_ZP_UNITS, CTX3),
             GroupSpec(UNITS_ZP, CTX3), GroupSpec(GL_ZP, CTX5, 2), GroupSpec(GL_QP, CTX3, 2)]
    for spec in specs:
        for k in (1, 2):
            with pytest.raises(InputError):
                analyze(spec, k, spot_checks=-3)


def test_a_catalog_group_without_a_dimension_rejects_one():
    # these groups are not matrix groups of a chosen size: an n = 2 spec was
    # accepted and then was no subgroup of the same group at n = 1
    for variant in (ADDITIVE_ZP, UNITS_ZP, AXB_ZP_UNITS):
        with pytest.raises(InputError):
            GroupSpec(variant, CTX3, 2)
        assert analyze_subgroup(GroupSpec(variant, CTX3), GroupSpec(variant, CTX3), 5) \
            .relation == "inherited"


def test_a_spot_root_that_is_not_found_breaks_the_verdict(monkeypatch):
    import ppm.analyzer
    from ppm.errors import InternalInvariantViolation
    from ppm.roots import RootResult

    for name in ("finite_root", "axb_root", "unipotent_root"):
        monkeypatch.setattr(ppm.analyzer, name, lambda *args, **kw: RootResult.no_root(1))
    specs = [GroupSpec(GL_ZP, CTX3, 2), GroupSpec(UNITS_ZP, CTX3), parse_group("AxB", CTX3),
             GroupSpec(UPPER_UNIPOTENT_QP, CTX3, 2), GroupSpec(ADDITIVE_QP, CTX3, 1)]
    for spec in specs:
        assert analyze(spec, 5).conclusion == SURJECTIVE_AND_DENSE
        with pytest.raises(InternalInvariantViolation):
            analyze(spec, 5, spot_checks=1)
