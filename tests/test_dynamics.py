import random
from fractions import Fraction as F
from functools import reduce

import pytest
from conftest import reference_rref
from hypothesis import assume, example, given, settings, strategies as st

import ppm.dynamics
import ppm.linalg
import ppm.scale
from ppm.analyzer import FINITELY_GENERATED, GroupSpec, analyze
from ppm.dynamics import BOUNDED, INCONCLUSIVE, GeneratorSet, UNBOUNDED, Witness, \
    _complete_basis, bounded_group, common_fixed_space, ku_flag, type_r_matrix, \
    type_r_witness_search
from ppm.errors import NotTypeR, Singular
from ppm.linalg import Lattice, QMatrix, apply, char_poly, char_poly_valuations, \
    elementary_divisors, eliminate, lattice_sum
from ppm.qpcore import PContext, vp, vp_frac
from ppm.scale import invariant_lattice, scale_newton, type_r

CTX3 = PContext(3)

U1 = QMatrix([[1, 1], [0, 1]])
U_THIRD = QMatrix([[1, F(1, 3)], [0, 1]])
LOWER_THIRD = QMatrix([[1, 0], [F(1, 3), 1]])
ROT = QMatrix([[0, -1], [1, 0]])


def test_type_r_examples():
    assert type_r_matrix(U1, CTX3)
    assert not type_r_matrix(QMatrix.diagonal([F(1, 3), 1]), CTX3)
    assert type_r_matrix(ROT, CTX3)
    with pytest.raises(Singular):
        type_r_matrix(QMatrix([[1, 1], [1, 1]]), CTX3)


def test_type_r_iff_both_scales_trivial():
    rng = random.Random(71)
    for _ in range(25):
        while True:
            a = QMatrix([[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2)]
                         for _ in range(2)])
            if a.det() != 0:
                break
        both_trivial = scale_newton(a, CTX3) == 0 and scale_newton(a.inverse(), CTX3) == 0
        assert type_r_matrix(a, CTX3) == both_trivial


def test_witness_search_examples():
    assert type_r_witness_search(GeneratorSet.of(CTX3, [U1]), 3) is None
    assert type_r_witness_search(GeneratorSet.of(CTX3, [QMatrix.identity(2)]), 4) is None
    w = type_r_witness_search(GeneratorSet.of(CTX3, [U1, LOWER_THIRD]), 2)
    assert w is not None
    assert w.word_str() == "g1·g2"
    assert not type_r_matrix(w.matrix, CTX3)


def test_single_type_r_matrix_generates_a_bounded_group():
    # characteristic-0 completeness for one generator
    rng = random.Random(77)
    tested = 0
    while tested < 12:
        a = QMatrix([[F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(2)]
                     for _ in range(2)])
        if a.det() == 0 or not type_r_matrix(a, CTX3):
            continue
        tested += 1
        res = bounded_group(GeneratorSet.of(CTX3, [a]))
        assert res.verdict == BOUNDED
        assert apply(a, res.invariant) == res.invariant


def test_bounded_integer_generators():
    res = bounded_group(GeneratorSet.of(CTX3, [U1, ROT]))
    assert res.verdict == BOUNDED
    assert res.invariant == Lattice.standard(CTX3, 2)
    res = bounded_group(GeneratorSet.of(CTX3, [QMatrix.identity(2)]))
    assert res.verdict == BOUNDED
    assert res.invariant == Lattice.standard(CTX3, 2)


def test_commuting_unipotent_pair_is_bounded_with_enlarged_lattice():
    # <1, 1/p> only generates (1/p) Z in the corner, so the pair fixes the
    # lattice p^{-1}Z_p + Z_p: saturation certifies boundedness exactly
    res = bounded_group(GeneratorSet.of(CTX3, [U1, U_THIRD]))
    assert res.verdict == BOUNDED
    assert res.invariant == Lattice(CTX3, QMatrix.diagonal([F(1, 3), 1]))
    for g in (U1, U_THIRD):
        assert apply(g, res.invariant) == res.invariant


def test_unbounded_by_a_letter_at_round_0_or_by_a_word_at_round_2n():
    # UNBOUNDED is certified before any round: the generator is not type R
    g1 = QMatrix.diagonal([F(1, 3), 1])
    res = bounded_group(GeneratorSet.of(CTX3, [g1]))
    assert res.verdict == UNBOUNDED
    assert (res.rounds, res.invariant) == (0, None)
    assert res.witness.word_str() == "g1" and res.witness.matrix == g1
    w = res.witness.matrix
    assert scale_newton(w, CTX3) > 0 or scale_newton(w.inverse(), CTX3) > 0

    # both generators are type R (their product is not): the lattice still
    # grows after 2n = 4 rounds, so the word search runs once and finds g1·g2
    res = bounded_group(GeneratorSet.of(CTX3, [U1, LOWER_THIRD]))
    assert res.verdict == UNBOUNDED
    assert res.rounds == 4 and res.caps is None and res.invariant is None
    assert res.witness.word_str() == "g1·g2" and res.witness.matrix == U1 * LOWER_THIRD
    assert not type_r_matrix(res.witness.matrix, CTX3)


def _two_sided_round(group, lat):
    """L + sum g(L) + g^-1(L) over the generators, one canonical lattice
    per image: a saturation round that grows by the inverses too."""
    images = (apply(h, lat) for pair in zip(group.gens, group.inverses) for h in pair)
    return reduce(lattice_sum, images, lat)


def test_divergence_evidence_never_overrules_a_type_r_generator(eight_cycle):
    # the first four two-sided rounds look like divergence (minimum divisors
    # against Z_3^8 from -10 down to -40), but a type-R generator has an
    # invariant lattice, so saturation must go on until it is reached
    group = GeneratorSet.of(CTX3, [eight_cycle])
    std = lat = Lattice.standard(CTX3, 8)
    mins = []
    for _ in range(4):
        lat = _two_sided_round(group, lat)
        mins.append(min(elementary_divisors(std, lat)))
    assert mins == [-10, -20, -30, -40]
    res = bounded_group(group)
    assert res.verdict == BOUNDED and res.rounds > 4
    assert apply(eight_cycle, res.invariant) == res.invariant
    assert ku_flag(group).dims == (0, 1, 8)
    verdict = analyze(GroupSpec(FINITELY_GENERATED, CTX3, 8, group), 4)
    assert "flag-certified" in [step for step, _ in verdict.justification]


def test_a_saturation_past_its_round_cap_is_inconclusive(eight_cycle):
    res = bounded_group(GeneratorSet.of(CTX3, [eight_cycle]), rounds_cap=2)
    assert res.verdict == INCONCLUSIVE
    assert res.rounds == 2 and res.invariant is None
    assert res.caps == {"rounds": 2}


def test_one_canonicalisation_per_saturation_round(eight_cycle, hermite_calls):
    # each round triangularises its sum once and reads its index off the
    # diagonal; only a round that grows reduces the sum to the next lattice,
    # and the fixpoint, index 0, costs no reduction: no whole Hermite form
    calls = hermite_calls
    for gens, rounds in (([eight_cycle], 8), ([U1, U_THIRD], 2)):
        group = GeneratorSet.of(CTX3, gens)
        calls.update(dict.fromkeys(calls, 0))
        res = bounded_group(group)
        assert (res.verdict, res.rounds) == (BOUNDED, rounds)
        assert calls == {"triangular": rounds, "reduce": rounds - 1, "hermite": 0}


@pytest.mark.parametrize("c", [10, 20, 40])
@pytest.mark.parametrize("n", [6, 8])
def test_steeply_conjugated_symmetric_groups_are_bounded(steep_symmetric, n, c):
    # S_n is finite however steep the conjugation, and steep conjugations
    # once passed for divergence
    group = GeneratorSet.of(CTX3, steep_symmetric(n, c))
    res = bounded_group(group)
    assert res.verdict == BOUNDED
    assert all(apply(g, res.invariant) == res.invariant for g in group.gens)
    assert ku_flag(group).dims == (0, 1, n)


@st.composite
def steep_signed_permutations(draw):
    """(p, e, letters): 1-3 signed permutations (perm, signs) of size n <= 5
    and exponents e in [-30, 30], for a group conjugated by diag(p^e)."""
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 5))
    exps = draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n))
    signs = st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)
    letters = draw(st.lists(st.tuples(st.permutations(range(n)), signs), min_size=1, max_size=3))
    return p, exps, letters


@settings(max_examples=100, deadline=None)
@given(steep_signed_permutations())
# divergence evidence once called this finite group UNBOUNDED after 3 rounds
@example((2, [-26, 5, -10, -9, 29], [([2, 3, 0, 1, 4], [-1, 1, 1, -1, -1]),
                                     ([3, 4, 2, 0, 1], [1, 1, 1, 1, 1])]))
def test_law_conjugated_finite_groups_are_bounded_with_a_flag(case):
    p, exps, letters = case
    n = len(exps)
    group = GeneratorSet.of(PContext(p), [
        QMatrix([[signs[i] * F(p) ** (exps[j] - exps[i]) if perm[i] == j else 0
                  for j in range(n)] for i in range(n)]) for perm, signs in letters])
    res = bounded_group(group)
    assert res.verdict == BOUNDED
    assert ku_flag(group) is not None


def test_flag_for_the_shear_pair():
    flag = ku_flag(GeneratorSet.of(CTX3, [U1, U_THIRD]))
    assert flag.dims == (0, 1, 2)
    # V_1 is the common fixed line e_1
    col = flag.flag_basis.column(0)
    assert col[1] == 0 and col[0] != 0
    std1 = Lattice.standard(CTX3, 1)
    assert flag.quotient_lattices == (std1, std1)
    for conj in flag.conjugated_gens:
        assert conj.rows[1][0] == 0


def test_flag_bounded_irreducible_is_one_block():
    flag = ku_flag(GeneratorSet.of(CTX3, [U1, ROT]))
    assert flag.dims == (0, 2)
    assert flag.quotient_lattices[0] == Lattice.standard(CTX3, 2)


def test_flag_semisimple_unit_diagonal_is_one_block():
    g = GeneratorSet.of(CTX3, [QMatrix.diagonal([2, F(1, 2)])])
    flag = ku_flag(g)
    assert flag.dims == (0, 2)


def test_flag_rejects_non_type_r_input():
    with pytest.raises(NotTypeR) as info:
        ku_flag(GeneratorSet.of(CTX3, [U1, LOWER_THIRD]))
    assert info.value.witness.word_str() == "g1·g2"


def test_flag_extraction_path_stays_honest():
    # a contracting diagonal map reaches the flag search; its saturation
    # ends UNBOUNDED at round 0, and ku_flag raises that letter, since a
    # group with a certified flag is bounded
    g1 = QMatrix.diagonal([F(1, 3), 1])
    with pytest.raises(NotTypeR) as info:
        ku_flag(GeneratorSet.of(CTX3, [g1]))
    assert info.value.witness.word_str() == "g1" and info.value.witness.matrix == g1


def test_a_witness_found_on_the_last_quotient_is_raised_in_the_original_generators():
    # the climb splits off e_1; on the quotient both letters are type R,
    # the lattice still grows after 2n = 4 rounds, and the search finds
    # g1·g2 there, which ku_flag multiplies out in the given generators
    g1 = QMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    g2 = QMatrix([[1, 0, 1], [0, 1, 0], [0, F(1, 3), 1]])
    with pytest.raises(NotTypeR) as info:
        ku_flag(GeneratorSet.of(CTX3, [g1, g2]))
    witness = info.value.witness
    assert witness.word_str() == "g1·g2" and witness.matrix == g1 * g2
    assert not type_r_matrix(witness.matrix, CTX3)


def test_flag_three_step_tower():
    heis_a = QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    heis_b = QMatrix([[1, 0, 0], [0, 1, F(1, 3)], [0, 0, 1]])
    flag = ku_flag(GeneratorSet.of(CTX3, [heis_a, heis_b]))
    assert flag.dims[0] == 0 and flag.dims[-1] == 3
    assert len(flag.dims) >= 3  # the fixed-space tower refines at least once
    for conj in flag.conjugated_gens:
        for i in range(len(flag.dims) - 1):
            hi = flag.dims[i + 1]
            for r in range(hi, 3):
                for c in range(flag.dims[i], hi):
                    assert conj.rows[r][c] == 0


def test_ku_flag_saturates_once(monkeypatch):
    # the fixed-space tower is linear algebra; only the last quotient is saturated
    heis_a = QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    heis_b = QMatrix([[1, 0, 0], [0, 1, F(1, 3)], [0, 0, 1]])
    calls, hermites = [], []
    hermite = ppm.linalg._hermite

    def counting_hermite(p, span):
        hermites.append(p)
        return hermite(p, span)

    def counting(group, *args, **kwargs):
        before = len(hermites)
        res = bounded_group(group, *args, **kwargs)
        calls.append((group.n, res.verdict, res.rounds, len(hermites) - before))
        return res

    monkeypatch.setattr(ppm.linalg, "_hermite", counting_hermite)
    monkeypatch.setattr(ppm.dynamics, "bounded_group", counting)
    flag = ku_flag(GeneratorSet.of(CTX3, [heis_a, heis_b]))
    assert flag.dims == (0, 1, 2, 3)
    assert [n for n, *_ in calls] == [1]

    # one elimination per climbing step, and one more that finds the last
    # quotient fixed: the basis completion reads its pivots off the fixed space.
    # That quotient is the identity, so its saturation ends BOUNDED at round 1
    # by containment, and neither it nor the flag's re-check forms a Hermite form
    eliminations = []

    def counting_eliminate(m, width, *args):
        eliminations.append(len(m))
        return eliminate(m, width, *args)

    monkeypatch.setattr(ppm.dynamics, "eliminate", counting_eliminate)
    calls.clear()
    hermites.clear()
    flag = ku_flag(GeneratorSet.of(CTX3, [QMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]])]))
    assert flag.dims == (0, 1, 2, 3)
    assert calls == [(1, BOUNDED, 1, 0)] and len(eliminations) == 3
    assert hermites == []


def _record_saturations_and_searches(monkeypatch):
    """Patch ppm.dynamics so that each bounded_group call records
    (n, rounds_cap) and each type_r_witness_search call its word_len."""
    saturations, depths = [], []

    def saturating(group, rounds_cap=64):
        saturations.append((group.n, rounds_cap))
        return bounded_group(group, rounds_cap)

    def searching(group, word_len=4):
        depths.append(word_len)
        return type_r_witness_search(group, word_len)

    monkeypatch.setattr(ppm.dynamics, "bounded_group", saturating)
    monkeypatch.setattr(ppm.dynamics, "type_r_witness_search", searching)
    return saturations, depths


def test_a_bounded_flag_checks_only_the_letters(eight_cycle, steep_symmetric, monkeypatch):
    # one saturation with the default cap decides the letters and stops
    # within 2n rounds, so the word search, which a bounded group cannot
    # fail, never runs
    heis = [QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
            QMatrix([[1, 0, 0], [0, 1, F(1, 3)], [0, 0, 1]])]
    saturations, depths = _record_saturations_and_searches(monkeypatch)
    for gens, dims in (([eight_cycle], (0, 1, 8)), (steep_symmetric(8, 20), (0, 1, 8)),
                       (heis, (0, 1, 2, 3))):
        saturations.clear()
        depths.clear()
        flag = ku_flag(GeneratorSet.of(CTX3, gens))
        assert flag.dims == dims
        last = dims[-1] - dims[-2]
        assert saturations == [(last, 64)]
        assert depths == []


def test_an_unresolved_saturation_falls_back_to_the_word_search(monkeypatch):
    # both generators are type R, the group is not bounded: the lattice
    # still grows after 4 rounds, so the one saturation runs the search,
    # which finds g1·g2 and ends it
    saturations, depths = _record_saturations_and_searches(monkeypatch)
    with pytest.raises(NotTypeR) as info:
        ku_flag(GeneratorSet.of(CTX3, [U1, LOWER_THIRD]))
    assert info.value.witness.word_str() == "g1·g2"
    assert saturations == [(2, 64)]
    assert depths == [4]


def test_witness_search_rejects_a_negative_word_length():
    group = GeneratorSet.of(CTX3, [U1])
    with pytest.raises(ValueError, match="word_len"):
        type_r_witness_search(group, -1)
    assert type_r_witness_search(group, 0) is None


def test_an_empty_generator_list_is_rejected():
    with pytest.raises(ValueError, match="need at least one generator"):
        GeneratorSet.of(CTX3, [])


def test_saturation_rejects_a_negative_round_cap():
    with pytest.raises(ValueError, match="rounds_cap"):
        bounded_group(GeneratorSet.of(CTX3, [U1]), rounds_cap=-1)
    assert bounded_group(GeneratorSet.of(CTX3, [U1]), rounds_cap=0).caps == {"rounds": 0}


def test_a_non_unit_determinant_decides_a_generator_without_a_char_poly(monkeypatch):
    calls = []

    def counting(a, p):
        calls.append(a)
        return char_poly_valuations(a, p)

    # the type-R rule, scale.type_r, reads the char poly's valuations
    monkeypatch.setattr(ppm.scale, "char_poly_valuations", counting)
    steep = QMatrix([[0, 1], [F(1, 3), 1]])  # det -1/3, not p-integral
    group = GeneratorSet.of(CTX3, [U1, steep])
    res = bounded_group(group)
    assert res.verdict == UNBOUNDED and res.rounds == 0
    assert res.witness == type_r_witness_search(group, 1) == Witness(((1, 1),), steep)
    assert calls == []


def test_common_fixed_space():
    basis = common_fixed_space(GeneratorSet.of(CTX3, [U1, U_THIRD]))
    assert len(basis) == 1
    assert basis[0][1] == 0
    assert common_fixed_space(GeneratorSet.of(CTX3, [ROT])) == []


def reference_fixed_space(group):
    """The Fraction reference: rref of the stacked g - 1 over Q, one vector
    per free column c, 1 at c and minus column c of the reduced rows at the
    pivots."""
    stacked = []
    ident = QMatrix.identity(group.n)
    for g in group.gens:
        stacked.extend((g - ident).rows)
    m, pivots, _ = reference_rref(stacked)
    basis = []
    for c in range(group.n):
        if c in pivots:
            continue
        vec = [F(0)] * group.n
        vec[c] = F(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][c]
        basis.append(tuple(vec))
    return basis


@settings(max_examples=80, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), n=st.integers(1, 5), count=st.integers(1, 3),
       rank=st.integers(0, 5), data=st.data())
def test_law_the_integer_fixed_space_is_the_fraction_reference(p, n, count, rank, data):
    # g = 1 + U_g V^T with V shared, so the stack of g - 1 has rank at most
    # min(rank, n) and the fixed space contains the kernel of V^T; entries
    # carry p-power denominators (and 7)
    entry = st.sampled_from([0, 0, 1, -1, 2, F(1, p), F(-2, p * p), F(3, p ** 3), F(1, 7)])

    def block(cols):
        return [[data.draw(entry) for _ in range(cols)] for _ in range(n)]

    r = min(rank, n)
    v = block(r)
    gens = [QMatrix.identity(n) + QMatrix([[sum(u[i][k] * v[j][k] for k in range(r))
                                            for j in range(n)] for i in range(n)])
            for u in (block(r) for _ in range(count))]
    assume(all(g.det() != 0 for g in gens))
    group = GeneratorSet.of(PContext(p), gens)
    assert common_fixed_space(group) == reference_fixed_space(group)


def test_flag_certificates_on_random_integral_groups():
    # random integer generators with unit determinant are bounded; every
    # returned flag must block-triangularize them exactly
    rng = random.Random(91)
    produced = 0
    while produced < 8:
        rows = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        a = QMatrix(rows)
        if abs(a.det()) != 1:
            continue
        produced += 1
        group = GeneratorSet.of(CTX3, [a, U1])
        flag = ku_flag(group)
        assert flag is not None
        binv = flag.flag_basis.inverse()
        for g in group.gens:
            conj = binv * g * flag.flag_basis
            for i in range(len(flag.dims) - 1):
                assert apply(flag.block(conj, i), flag.quotient_lattices[i]) \
                    == flag.quotient_lattices[i]


def test_generators_are_inverted_only_when_the_inverses_are_read(monkeypatch):
    calls = []
    inverse = QMatrix.inverse

    def counting(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(QMatrix, "inverse", counting)
    a = QMatrix.diagonal([F(1, 3), 1])  # not type R: UNBOUNDED at round 0
    assert invariant_lattice(a, CTX3) is None
    assert calls == []
    group = GeneratorSet.of(CTX3, [a])
    assert calls == []
    assert group.inverses == (QMatrix.diagonal([3, 1]),) and calls == [a]
    group.inverses  # noqa: B018
    assert calls == [a]
    with pytest.raises(Singular, match="singular"):
        GeneratorSet.of(CTX3, [U1, QMatrix([[1, 1], [2, 2]])])


def test_one_determinant_per_generator(monkeypatch):
    calls = []
    det = QMatrix.det

    def counting(self):
        calls.append(self)
        return det(self)

    monkeypatch.setattr(QMatrix, "det", counting)
    for gens in ([U1, LOWER_THIRD], [ROT, U1, QMatrix.diagonal([3, 1])], [U_THIRD]):
        calls.clear()
        group = GeneratorSet.of(CTX3, gens)
        type_r_witness_search(group)
        assert calls == gens  # one each, shared by the singularity check and the search


def _greedy_completion(cols, n):
    """The reference: try e_0, ..., e_(n-1) in turn, one elimination each."""
    chosen = [list(c) for c in cols]
    for j in range(n):
        e = [F(int(i == j)) for i in range(n)]
        if len(reference_rref(chosen + [e])[1]) == len(chosen) + 1:
            chosen.append(e)
    return QMatrix.from_columns(chosen)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), count=st.integers(1, 2), data=st.data())
def test_basis_completion_matches_the_greedy_reference(n, count, data):
    # the completion's only inputs: fixed spaces of near-identity groups,
    # identity plus a sparse perturbation
    entries = st.sampled_from([0] * 8 + [1, -1, F(1, 3), F(-2, 3)])
    perturbation = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    gens = [QMatrix.identity(n) + QMatrix(data.draw(perturbation)) for _ in range(count)]
    assume(all(g.det() != 0 for g in gens))
    cols = common_fixed_space(GeneratorSet.of(CTX3, gens))
    assume(cols)
    assert _complete_basis(cols, n) == _greedy_completion(cols, n)


# -- the QMatrix-product search the integer-view search must reproduce --------

def reference_witness_search(group, word_len):
    """Every reduced word up to word_len as a normalised QMatrix product,
    breadth first and deduplicated, each decided by its characteristic
    polynomial."""
    ctx = group.ctx
    alphabet = [(i, sign, h) for i, pair in enumerate(zip(group.gens, group.inverses))
                for sign, h in zip((1, -1), pair)]
    seen = {QMatrix.identity(group.n)}
    frontier = [(QMatrix.identity(group.n), ())]
    for _ in range(word_len):
        nxt = []
        for mat, word in frontier:
            for i, sign, g in alphabet:
                if word and word[-1] == (i, -sign):
                    continue
                m2 = mat * g
                if m2 in seen:
                    continue
                seen.add(m2)
                w2 = word + ((i, sign),)
                if not type_r_matrix(m2, ctx):
                    return Witness(w2, m2)
                nxt.append((m2, w2))
        frontier = nxt
    return None


@st.composite
def word_search_groups(draw):
    """1 or 2 generators c^-1 L D U c, n = 1..4, p in {2, 3, 5}: L, U integral
    unitriangular, D diagonal with entries among +-1, 2, p and 1/p (so the
    determinant is a unit or not, and D may be non-integral with a unit
    determinant), c = diag(p^e) with e in {-1, 0, 1} (so the generator may be
    integral or not)."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 4))
    small = st.integers(-2, 2)
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        lower = QMatrix([[draw(small) if j < i else int(i == j) for j in range(n)]
                         for i in range(n)])
        upper = QMatrix([[draw(small) if j > i else int(i == j) for j in range(n)]
                         for i in range(n)])
        # half the time units only: else a nonzero v_p(det) makes most searches end at once
        scalars = st.sampled_from([1, -1] if draw(st.booleans()) else [1, -1, 2, p, F(1, p)])
        diag = QMatrix.diagonal([draw(scalars) for _ in range(n)])
        c = QMatrix.diagonal([F(p) ** draw(st.sampled_from([0, -1, 1])) for _ in range(n)])
        gens.append(c.inverse() * lower * diag * upper * c)
    return GeneratorSet.of(PContext(p), gens)


@settings(max_examples=80, deadline=None)
@given(group=word_search_groups(), word_len=st.integers(0, 4))
def test_witness_search_equals_the_qmatrix_product_reference(group, word_len):
    assert type_r_witness_search(group, word_len) == reference_witness_search(group, word_len)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), n=st.integers(1, 4), data=st.data())
def test_an_integral_matrix_is_type_r_iff_its_determinant_is_a_unit(p, n, data):
    entries = st.builds(F, st.integers(-2 * p, 2 * p),
                        st.sampled_from([d for d in (1, 2, 3, 5, 7) if d % p]))
    a = QMatrix(data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                   min_size=n, max_size=n)))
    assume(a.det() != 0)
    assert type_r_matrix(a, PContext(p)) == (vp(a.det(), PContext(p)) == 0)


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), n=st.integers(1, 4), integral=st.booleans(),
       data=st.data())
def test_law_the_determinant_first_rule_is_type_r_matrix(p, n, integral, data):
    # p-integral matrices, or such a matrix times diag(p^e) with sum(e) = 0,
    # which puts p in a denominator, keeps v_p(det) and seldom keeps type R;
    # half of them are conjugated by diag(p^e), which keeps type R but not
    # integrality
    entries = st.builds(F, st.integers(-2 * p, 2 * p),
                        st.sampled_from([d for d in (1, 2, 3, 5, 7) if d % p]))
    a = QMatrix(data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                   min_size=n, max_size=n)))
    if not integral:
        exps = data.draw(st.lists(st.integers(-1, 1), min_size=n - 1, max_size=n - 1))
        a = a * QMatrix.diagonal([F(p) ** e for e in [*exps, -sum(exps)]])
    if data.draw(st.booleans()):
        c = QMatrix.diagonal([F(p) ** data.draw(st.integers(-1, 1)) for _ in range(n)])
        a = c.inverse() * a * c
    assume(a.det() != 0)
    ctx = PContext(p)
    # the definition: every char poly coefficient p-integral, the constant term a unit
    poly = char_poly(a)
    want = vp_frac(poly[-1], p) == 0 and all(vp_frac(c, p) >= 0 for c in poly)
    assert type_r(a, vp(a.det(), ctx), ctx) == type_r_matrix(a, ctx) == want


# -- ku_flag answers as if it searched all words first -----------------------

def searching_first(group):
    """The order ku_flag's answer must match: the whole word search at its
    default length, then the flag, whose search then finds nothing."""
    witness = type_r_witness_search(group)
    if witness is not None:
        raise NotTypeR(witness)
    return ku_flag(group)


def _flag_outcome(find, group):
    try:
        flag = find(group)
    except NotTypeR as exc:
        return "witness", exc.witness.word, exc.witness.matrix
    if flag is None:
        return None
    return "flag", flag.dims, flag.flag_basis, flag.quotient_lattices


FLAG_FAMILIES = ("separate", "one-conjugator", "rational", "unipotent")


@st.composite
def flag_groups(draw, family):
    """1-3 generators, n <= 3, p in {2, 3, 5}, from one of four families:
    unimodular integral matrices conjugated each by its own rational matrix
    (all type R, mostly unbounded), or all by one (bounded); random rational
    matrices; unitriangular matrices with entries in {0, +-1, +-1/p}, upper
    only or an upper and a lower one."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    small = st.integers(-2, 2)

    def triangular(entry, upper):
        return QMatrix([[draw(entry) if (j > i if upper else j < i) else int(i == j)
                         for j in range(n)] for i in range(n)])

    def invertible(entry):
        m = QMatrix([[draw(entry) for _ in range(n)] for _ in range(n)])
        assume(m.det() != 0)
        return m

    def unimodular():  # nonzero off-diagonal entries keep it far from the identity
        signs = QMatrix.diagonal([draw(st.sampled_from([1, -1])) for _ in range(n)])
        shear = st.sampled_from([1, -1, 2, -2])
        return triangular(shear, False) * signs * triangular(shear, True)

    rational = st.builds(F, small, st.sampled_from([1, p, p * p]))
    count = draw(st.integers(1, 3))
    if family == "separate":
        conjugators = [invertible(rational) for _ in range(max(count, 2))]
        gens = [c.inverse() * unimodular() * c for c in conjugators]
    elif family == "one-conjugator":
        c = invertible(rational)
        gens = [c.inverse() * unimodular() * c for _ in range(count)]
    elif family == "rational":
        gens = [invertible(rational) for _ in range(count)]
    else:
        entry = st.sampled_from([0, 1, -1, F(1, p), F(-1, p)])
        gens = [triangular(entry, True)]
        gens.append(triangular(entry, draw(st.booleans())))
    return GeneratorSet.of(PContext(p), gens)


@pytest.mark.parametrize("family", FLAG_FAMILIES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_law_ku_flag_answers_as_if_it_searched_first(family, data):
    group = data.draw(flag_groups(family))
    assert _flag_outcome(ku_flag, group) == _flag_outcome(searching_first, group)


def _two_sided_saturation(group, rounds_cap=64):
    """bounded_group's verdict and lattice by the two-sided saturation: the
    same round-0 letter check, then each round checks the lattice by
    canonical images and grows it by the generators and their inverses,
    with the word search at round min(2n, rounds_cap)."""
    if not all(type_r_matrix(g, group.ctx) for g in group.gens):
        return UNBOUNDED, None
    lat = Lattice.standard(group.ctx, group.n)
    for round_no in range(1, rounds_cap + 1):
        if all(apply(g, lat) == lat for g in group.gens):
            return BOUNDED, lat
        if round_no == min(2 * group.n, rounds_cap) and type_r_witness_search(group):
            return UNBOUNDED, None
        lat = _two_sided_round(group, lat)
    return INCONCLUSIVE, None


@pytest.mark.parametrize("family", FLAG_FAMILIES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_law_the_forward_saturation_is_the_two_sided_one(family, data):
    """Growing by the generators alone reaches the lattice that growing by
    them and their inverses reaches: the least one containing Z_p^n that
    the group fixes."""
    group = data.draw(flag_groups(family))
    res = bounded_group(group)
    assert (res.verdict, res.invariant) == _two_sided_saturation(group)
    if res.verdict == BOUNDED:
        assert all(apply(g, res.invariant) == res.invariant for g in group.gens)


@pytest.mark.parametrize("gens", [
    [U1, LOWER_THIRD],  # type-R letters, unbounded: the search runs at round 4
    [QMatrix.diagonal([F(1, 3), 1])],  # the saturation ends UNBOUNDED at round 0
], ids=["unipotent-pair", "contracting-diagonal"])
def test_ku_flag_answers_as_if_it_searched_first_on_the_fallback_paths(gens):
    group = GeneratorSet.of(CTX3, gens)
    assert _flag_outcome(ku_flag, group) == _flag_outcome(searching_first, group)


@pytest.mark.parametrize("gens, dims", [
    ([ROT], (0, 2)),
    ("eight_cycle", (0, 1, 8)),
    ([QMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
      QMatrix([[1, 0, 0], [0, 1, F(1, 3)], [0, 0, 1]])], (0, 1, 2, 3)),
], ids=["rotation", "eight-cycle", "heisenberg-pair"])
def test_ku_flag_inverts_once_per_climbing_step(gens, dims, request, monkeypatch):
    # one inverse per step carries the basis and the conjugates; the last
    # quotient's saturation inverts nothing, though the eight-cycle's grows
    gens = [request.getfixturevalue(gens)] if isinstance(gens, str) else gens
    group = GeneratorSet.of(CTX3, gens)
    calls = []
    inverse = QMatrix.inverse

    def counting(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(QMatrix, "inverse", counting)
    flag = ku_flag(group)
    assert flag.dims == dims
    assert len(calls) == len(dims) - 2


@pytest.mark.parametrize("gens, rounds", [
    ([ROT], 1),
    ([QMatrix.identity(1)], 1),
    ([U_THIRD], 2),
    ("eight_cycle", 8),
], ids=["rotation", "identity-quotient", "shear-by-a-third", "eight-cycle"])
def test_a_saturation_inverts_nothing(gens, rounds, request, monkeypatch):
    # the sum chain grows by the generators alone: a lattice every generator
    # maps into itself is fixed by each, and so by the inverses
    gens = [request.getfixturevalue(gens)] if isinstance(gens, str) else gens
    group = GeneratorSet.of(CTX3, gens)  # inverts nothing yet
    calls = []
    inverse = QMatrix.inverse

    def counting(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(QMatrix, "inverse", counting)
    res = bounded_group(group)
    assert (res.verdict, res.rounds, calls) == (BOUNDED, rounds, [])
