import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ppm import modmat
from ppm.errors import CapExceeded
from ppm.oracle import FiniteGroupTable, _verify_closure, enumerate_group, full_gl_generators, \
    is_subgroup, lagrange_consistent, power_surjective, unit_group_generators, validate_f1
from ppm.oracle import _code
from ppm.qpcore import PContext
from ppm.steinitz import general_linear_order

CTX2, CTX3, CTX5 = PContext(2), PContext(3), PContext(5)

SWAP = ((0, 1), (1, 0))
SHEAR = ((1, 1), (0, 1))


def test_enumerate_gl2_f2():
    table = enumerate_group([SWAP, SHEAR], CTX2, 1)
    assert table.order == 6
    assert table.order == general_linear_order(2, 2)


def test_enumerate_trivial():
    table = enumerate_group([modmat.identity_mat(2)], CTX5, 1)
    assert table.order == 1


def test_enumerate_cyclic_units_mod_9():
    table = enumerate_group([((2,),)], CTX3, 2)
    assert table.order == 6
    assert {m[0][0] for m in table.elements} == {1, 2, 4, 8, 7, 5}


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        enumerate_group(full_gl_generators(2, 3, 2), CTX3, 2, cap=100)


def test_power_surjective_examples():
    table = enumerate_group([SWAP, SHEAR], CTX2, 1)
    assert power_surjective(table, 5).surjective
    img = power_surjective(table, 3)
    assert not img.surjective and img.image_size == 4  # cubes kill the 3-cycles
    assert power_surjective(table, 1).surjective


def test_validate_f1_examples():
    units9 = enumerate_group([((2,),)], CTX3, 2)
    ok5 = validate_f1(units9, 5)
    assert ok5.agree and ok5.surjective
    ok2 = validate_f1(units9, 2)
    assert ok2.agree and not ok2.surjective
    trivial = enumerate_group([((1,),)], CTX3, 1)
    assert validate_f1(trivial, 12).agree


def test_validate_f1_on_random_small_groups():
    rng = random.Random(99)
    for p, ctx in ((2, CTX2), (3, CTX3), (5, CTX5)):
        for _ in range(6):
            n = rng.choice([1, 2])
            m = rng.choice([1, 2])
            mod = p ** m
            gens = []
            while len(gens) < 2:
                cand = tuple(tuple(rng.randrange(mod) for _ in range(n)) for _ in range(n))
                if modmat.invertible_mod(cand, p):
                    gens.append(cand)
            try:
                table = enumerate_group(gens, ctx, m, cap=10 ** 5)
            except CapExceeded:
                continue  # GL(2, Z/25) itself is past the cap; the law needs a table
            for k in (2, 3, 5, 7, 12):
                assert validate_f1(table, k).agree


def test_full_gl_generators_hit_the_whole_group():
    assert enumerate_group(full_gl_generators(2, 2, 2), CTX2, 2).order == 96
    assert enumerate_group(full_gl_generators(2, 3, 1), CTX3, 1).order == 48
    assert enumerate_group(full_gl_generators(2, 3, 2), CTX3, 2).order == 3888
    assert enumerate_group(unit_group_generators(5, 3), CTX5, 3).order == 100
    assert enumerate_group(unit_group_generators(2, 3), CTX2, 3).order == 4


def test_lagrange_law_on_enumerated_pair():
    big = enumerate_group(full_gl_generators(2, 3, 2), CTX3, 2)
    # principal congruence subgroup 1 + 3M inside GL(2, Z/9)
    congr_gens = []
    for i in range(2):
        for j in range(2):
            g = [[1 if a == b else 0 for b in range(2)] for a in range(2)]
            g[i][j] += 3
            congr_gens.append(tuple(tuple(r) for r in g))
    small = enumerate_group(congr_gens, CTX3, 2)
    assert small.order == 81
    assert is_subgroup(small, big)
    assert lagrange_consistent(big, small)
    assert big.order == (big.order // small.order) * small.order


def test_surjectivity_passes_to_enumerated_subgroups():
    big = enumerate_group(full_gl_generators(2, 3, 1), CTX3, 1)
    sub_gens = [((2, 0), (0, 1)), ((1, 1), (0, 1))]
    small = enumerate_group(sub_gens, CTX3, 1)
    assert is_subgroup(small, big)
    for k in range(1, 20):
        if power_surjective(big, k).surjective:
            assert power_surjective(small, k).surjective


def test_reduction_compatibility():
    table2 = enumerate_group(full_gl_generators(2, 2, 2), CTX2, 2)
    table1 = enumerate_group(full_gl_generators(2, 2, 1), CTX2, 1)
    reduced = {tuple(tuple(x % 2 for x in row) for row in m) for m in table2.elements}
    assert reduced == set(table1.elements)


def test_a_cap_below_one_is_rejected():
    # c < 1 raised CapExceeded, as if the group had been searched past it
    for cap in (0, -5):
        with pytest.raises(ValueError, match="cap must be >= 1"):
            enumerate_group([SHEAR], CTX5, 1, cap=cap)
    assert enumerate_group([modmat.identity_mat(2)], CTX5, 1, cap=1).order == 1


def test_the_row_orbit_proves_a_huge_group_past_the_cap(monkeypatch):
    # GL_2(Z/101^2) has more than 200 = n·cap rows in the orbit of e_1 and
    # e_2, so the row search raises before any element is searched
    def no_element_search(*indices):
        raise AssertionError("the element search ran")

    monkeypatch.setattr("ppm.oracle.itemgetter", no_element_search)
    with pytest.raises(CapExceeded):
        enumerate_group(full_gl_generators(2, 101, 2), PContext(101), 2, cap=100)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_no_unit_group_generator_is_the_identity(p, m):
    # (Z/p)^* listed ((1,),) as a second generator, a self-loop in every search
    gens = unit_group_generators(p, m)
    assert ((1,),) not in gens
    table = enumerate_group(gens, PContext(p), m)
    with_identity = enumerate_group(gens + [((1,),)], PContext(p), m)
    assert table.order == (p - 1) * p ** (m - 1) == with_identity.order
    assert [list(a) for a in table._cycles()] == [list(a) for a in with_identity._cycles()]


def test_table_membership():
    table = enumerate_group([((2,),)], CTX3, 2)
    assert ((4,),) in table
    assert ((13,),) in table  # reduced mod 9 first
    assert ((3,),) not in table


@st.composite
def small_tables(draw):
    """Tables of random invertible matrices mod p^m, at most 2x2, or 3x3 mod 2
    or 3: up to three generators, one possibly repeated, when their table has
    at most 1,000 elements, else the cyclic table of the first."""
    n, m = draw(st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]))
    p = draw(st.sampled_from([2, 3] if n == 3 else [2, 3, 5]))
    mod = p ** m
    mats = st.lists(st.integers(0, mod - 1), min_size=n * n, max_size=n * n).map(
        lambda e: tuple(tuple(e[i * n:(i + 1) * n]) for i in range(n)))
    invertible = mats.filter(lambda g: modmat.invertible_mod(g, p))
    distinct = draw(st.lists(invertible, min_size=1, max_size=3))
    gens = [distinct[i] for i in draw(
        st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=3))]
    try:
        return enumerate_group(gens, PContext(p), m, cap=1_000)
    except CapExceeded:
        return enumerate_group(gens[:1], PContext(p), m)


@settings(max_examples=30, deadline=None)
@given(table=small_tables())
def test_power_images_read_off_the_walks_are_the_powered_images(table):
    mod = table.ctx.p ** table.level
    for k in range(1, 41):
        image = {modmat.mat_pow(x, k, mod) for x in table.elements}
        img = power_surjective(table, k)
        assert img.image_size == len(image)
        assert img.surjective == (len(image) == table.order)


def test_a_table_missing_an_inverse_fails_the_closure_check():
    # SHEAR has order 3 mod 3: its inverse SHEAR^2 is not in {1, SHEAR}
    table = FiniteGroupTable(CTX3, 1, 2, (modmat.identity_mat(2), SHEAR), (SHEAR,))
    with pytest.raises(AssertionError):
        _verify_closure(table)


def test_a_non_positive_level_is_rejected():
    # level 0 was reported as "generator is singular mod p", -1 as a TypeError
    for level in (0, -1):
        with pytest.raises(ValueError, match="level must be >= 1"):
            enumerate_group([SHEAR], CTX5, level)


def test_an_empty_generator_list_is_rejected():
    with pytest.raises(ValueError, match="need at least one generator"):
        enumerate_group([], CTX5, 1)


def test_a_negative_power_is_rejected_with_a_table_message():
    table = enumerate_group([SHEAR], CTX5, 1)
    with pytest.raises(ValueError, match="k must be non-negative"):
        power_surjective(table, -1)
    assert power_surjective(table, 0).image_size == 1


def test_generators_of_mixed_sizes_are_rejected():
    # they were multiplied anyway and failed with "a power walk does not return to 1"
    for gens in ([SHEAR, ((2,),)], [((1, 1), (0,))]):
        with pytest.raises(ValueError, match="every generator must be n x n"):
            enumerate_group(gens, CTX5, 1)


def _reference_table(gens, p, level):
    """The table as it was built before the Cayley graph: a breadth-first
    closure by modmat.mat_mul, then the cyclic walks 1, y, y^2, ... by
    mat_mul, each y taken in table order unless an earlier walk passed it.
    Returns the sorted elements and the walks (walk, step, start, flat)."""
    mod = p ** level
    gens = [modmat.reduce_mat(g, mod) for g in gens]
    ident = modmat.identity_mat(len(gens[0]))
    seen, frontier = {_code(ident, mod): ident}, [ident]
    while frontier:
        nxt = []
        for y in (modmat.mat_mul(x, g, mod) for x in frontier for g in gens):
            if _code(y, mod) not in seen:
                seen[_code(y, mod)] = y
                nxt.append(y)
        frontier = nxt
    elements = tuple(seen[c] for c in sorted(seen))
    index = {_code(m, mod): i for i, m in enumerate(elements)}
    one = index[_code(ident, mod)]
    walk, step = [-1] * len(elements), [0] * len(elements)
    walk[one] = 0
    start, flat = [0], [one]
    for i, y in enumerate(elements):
        if walk[i] >= 0:
            continue
        start.append(len(flat))
        flat.append(one)
        x, j = y, 1
        while (pos := index[_code(x, mod)]) != one:
            flat.append(pos)
            if walk[pos] < 0:
                walk[pos], step[pos] = len(start) - 1, j
            x, j = modmat.mat_mul(x, y, mod), j + 1
    start.append(len(flat))
    return elements, (walk, step, start, flat)


@settings(max_examples=40, deadline=None)
@given(table=small_tables())
def test_the_cayley_graph_table_is_the_matrix_product_table(table):
    elements, walks = _reference_table(table.generators, table.ctx.p, table.level)
    assert table.elements == elements
    assert [list(a) for a in table._cycles()] == [list(a) for a in walks]


def test_a_hand_built_copy_walks_as_the_enumerated_table_does():
    table = enumerate_group(full_gl_generators(2, 3, 1), CTX3, 1)
    copy = FiniteGroupTable(CTX3, 1, 2, table.elements, table.generators)
    assert [list(a) for a in copy._cycles()] == [list(a) for a in table._cycles()]


def test_a_hand_built_table_must_be_exactly_what_its_generators_generate():
    gl = enumerate_group(full_gl_generators(2, 3, 1), CTX3, 1)
    lower = ((1, 0), (1, 1))
    cases = (
        FiniteGroupTable(CTX3, 1, 2, gl.elements, (SHEAR,)),  # a group, not <SHEAR>
        FiniteGroupTable(CTX3, 1, 2, gl.elements[:-1], gl.generators),  # one element short
        FiniteGroupTable(CTX3, 1, 2, enumerate_group([SHEAR], CTX3, 1).elements, (lower,)),
    )
    for table in cases:
        # an AssertionError, not the CapExceeded of the search capped at the table's order
        with pytest.raises(AssertionError, match="do not generate exactly the table"):
            _verify_closure(table)


def test_membership_and_subgroups_work_before_the_elements_are_decoded():
    big = enumerate_group(full_gl_generators(2, 3, 1), CTX3, 1)
    small = enumerate_group([SHEAR], CTX3, 1)
    assert "elements" not in vars(big) and "elements" not in vars(small)
    assert SHEAR in big and ((1, 2), (0, 1)) in small and ((0, 1), (1, 0)) not in small
    assert ((4, 3), (3, 4)) in big  # reduced mod 3 first
    assert is_subgroup(small, big) and not is_subgroup(big, small)
    assert lagrange_consistent(big, small)
    assert "elements" not in vars(big) and "elements" not in vars(small)
    assert len(big.elements) == big.order == 48


def test_a_hand_built_table_keeps_its_elements_in_the_order_given():
    table = enumerate_group(full_gl_generators(2, 3, 1), CTX3, 1)
    given = tuple(reversed(table.elements))
    copy = FiniteGroupTable(CTX3, 1, 2, given, table.generators)
    assert copy.elements == given and copy.order == 48
    assert all(m in copy for m in given) and is_subgroup(copy, table)
    walk, step, start, flat = copy._cycles()
    assert given[flat[start[1] + 1]] == given[0]  # the first walk is of the first element


def test_the_zeroth_power_image_is_the_identity():
    for table in (enumerate_group(full_gl_generators(2, 3, 1), CTX3, 1),
                  enumerate_group(unit_group_generators(5, 3), CTX5, 3),
                  enumerate_group([modmat.identity_mat(2)], CTX5, 1)):
        img = power_surjective(table, 0)
        assert img.image_size == 1 and img.surjective == (table.order == 1)


@settings(max_examples=30, deadline=None)
@given(table=small_tables(), data=st.data())
def test_power_images_read_as_slices_are_the_per_element_steps(table, data):
    """x = y^j on a walk of length d has x^k = y^(jk mod d): the image the
    walks give element by element is the image read as one slice per walk."""
    walk, step, start, flat = table._cycles()
    drawn = data.draw(st.lists(st.integers(0, 3 * table.order), max_size=8))
    for k in [0, 3 * table.order] + drawn:
        image = set()
        for w, j in zip(walk, step):
            s, d = start[w], start[w + 1] - start[w]
            image.add(flat[s + j * k % d])
        img = power_surjective(table, k)
        assert img.image_size == len(image)
        assert img.surjective == (len(image) == table.order)


def test_validate_f1_rejects_a_non_positive_k_before_the_image(monkeypatch):
    # k = 0 built the whole image, then failed in steinitz.coprime; k = -2
    # failed in power_surjective with its own "k must be non-negative"
    table = enumerate_group([SHEAR], CTX5, 1)

    def no_image(table, k):
        raise AssertionError("the power image was computed")

    monkeypatch.setattr("ppm.oracle.power_surjective", no_image)
    for k in (0, -2):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            validate_f1(table, k)


def test_a_malformed_hand_built_table_is_rejected():
    one, two = ((1,),), ((2,),)
    cases = [
        ((one, ((5,),)), (two,)),  # 5 is not reduced mod 3: it was keyed as it stood
        ((one, ((-1,),)), (two,)),
        ((one, two, two), (two,)),  # a repeated element made the order 3
        ((one, ((1, 0), (0, 1))), (two,)),  # not 1 x 1
        ((one, two), (((2, 0),),)),
        ((one, two), (((F(1, 2),),),)),
        ((), (two,)),  # no element: the walks failed with an IndexError
    ]
    for elements, generators in cases:
        with pytest.raises(ValueError):
            FiniteGroupTable(CTX3, 1, 1, elements, generators)
    table = FiniteGroupTable(CTX3, 1, 1, (one, two), (two,))
    assert table.order == 2 and ((5,),) in table
    _verify_closure(table)


def test_entries_that_are_not_integers_are_rejected():
    # 5/2 = 1 mod 3 was truncated to 2, which generates a group of order 2
    for entry in (F(5, 2), 2.0, True, F(2)):
        with pytest.raises(ValueError, match="integer"):
            enumerate_group([((entry,),)], CTX3, 1)
    table = enumerate_group([((2,),)], CTX3, 1)
    for entry in (F(5, 2), 2.0, True):
        with pytest.raises(ValueError, match="integer"):
            ((entry,),) in table
    with pytest.raises(ValueError):
        FiniteGroupTable(CTX3, 1, 1, (((1,),), ((2,),)), (((True,),),))
