import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

import ppm.dynamics
import ppm.linalg
import ppm.scale
from ppm.dynamics import BOUNDED, GeneratorSet, bounded_group, type_r_matrix
from ppm.errors import CapExceeded, Singular
from ppm.linalg import Lattice, QMatrix, apply, char_poly, char_poly_valuations, \
    lattice_index, lattice_intersect, lattice_sum, newton_polygon, sum_chain
from ppm.qpcore import PContext, vp, vp_frac
from ppm.scale import default_iteration_cap, invariant_lattice, scale_newton, scale_tidy

CTX3 = PContext(3)


def _rand_invertible(rng, n, bound=12):
    while True:
        m = QMatrix([[F(rng.randint(-bound, bound), rng.randint(1, bound))
                      for _ in range(n)] for _ in range(n)])
        if m.det() != 0:
            return m


def test_newton_examples():
    assert scale_newton(QMatrix.identity(2), CTX3) == 0
    assert scale_newton(QMatrix.diagonal([F(1, 3), 1]), CTX3) == 1
    assert scale_newton(QMatrix([[0, 3], [1, 0]]).inverse(), CTX3) == 1
    with pytest.raises(Singular):
        scale_newton(QMatrix([[1, 1], [2, 2]]), CTX3)


def test_tidy_examples():
    r = scale_tidy(QMatrix.identity(2), CTX3)
    assert (r.scale_exponent, r.iteration_trace) == (0, ((0, 0),))
    assert r.minimizing_lattice == Lattice.standard(CTX3, 2)

    r = scale_tidy(QMatrix.diagonal([F(1, 3), 1]), CTX3)
    assert r.scale_exponent == 1
    assert r.iteration_trace[0] == (0, 1)  # attained at the standard lattice already

    inv = QMatrix([[0, 3], [1, 0]]).inverse()
    assert apply(inv, Lattice.standard(CTX3, 2)) \
        == Lattice.from_diagonal_exponents(CTX3, [0, -1])
    r = scale_tidy(inv, CTX3)
    assert r.scale_exponent == 1 and r.iteration_trace[0] == (0, 1)


def test_tidy_rejects_a_negative_cap():
    a = QMatrix.diagonal([F(1, 3), 1])
    with pytest.raises(ValueError, match="cap"):
        scale_tidy(a, CTX3, cap=-1)
    assert scale_tidy(a, CTX3, cap=0).iteration_trace == ((0, 1),)


def test_tidy_report_invariants():
    rng = random.Random(101)
    for p in (2, 3, 5):
        ctx = PContext(p)
        for n in (2, 3):
            for _ in range(6):
                a = _rand_invertible(rng, n)
                r = scale_tidy(a, ctx)
                assert r.method_agreement
                assert r.scale_exponent == scale_newton(a, ctx)
                exps = [e for _, e in r.iteration_trace]
                assert all(x >= y for x, y in zip(exps, exps[1:]))
                assert exps[-1] == r.scale_exponent
                # the reported lattice really attains the minimum
                from ppm.linalg import lattice_index, lattice_intersect
                img = apply(a, r.minimizing_lattice)
                attained = lattice_index(img, lattice_intersect(img, r.minimizing_lattice))
                assert attained == r.scale_exponent


def test_power_law_small():
    rng = random.Random(5)
    for _ in range(10):
        a = _rand_invertible(rng, 2)
        base = scale_newton(a, CTX3)
        for n in range(1, 6):
            assert scale_newton(a ** n, CTX3) == n * base


def test_determinant_relation():
    rng = random.Random(9)
    for _ in range(10):
        a = _rand_invertible(rng, 3)
        assert scale_newton(a, CTX3) - scale_newton(a.inverse(), CTX3) \
            == -vp(a.det(), CTX3)


def test_invariant_lattice_examples():
    assert invariant_lattice(QMatrix([[1, 1], [0, 1]]), CTX3) \
        == Lattice.standard(CTX3, 2)
    assert invariant_lattice(QMatrix.diagonal([F(1, 3), 1]), CTX3) is None
    lat = invariant_lattice(QMatrix([[1, F(1, 3)], [0, 1]]), CTX3)
    assert lat == Lattice.from_diagonal_exponents(CTX3, [-1, 0])
    # v_p(0) is INFINITY, which is truthy: a determinant-first check must
    # test det == 0 before it reads the valuation
    with pytest.raises(Singular):
        invariant_lattice(QMatrix([[1, 1], [2, 2]]), CTX3)


def test_invariant_lattice_is_exactly_invariant():
    rng = random.Random(13)
    found = 0
    for _ in range(40):
        a = _rand_invertible(rng, 2, bound=6)
        lat = invariant_lattice(a, CTX3)
        if lat is not None:
            found += 1
            assert apply(a, lat) == lat
            assert apply(a.inverse(), lat) == lat
    assert found >= 3  # unit-eigenvalue matrices do occur in the sample


def test_at_most_one_char_poly_per_tidy_and_per_invariant_lattice(monkeypatch):
    calls = []

    def counting(a, p):
        calls.append(a)
        return char_poly_valuations(a, p)

    # scale reads every char poly it needs through its valuations
    monkeypatch.setattr(ppm.scale, "char_poly_valuations", counting)
    steep = QMatrix.diagonal([F(1, 3), 1])
    for a in (steep, QMatrix([[1, F(1, 3)], [0, 1]])):
        for query in (scale_tidy, invariant_lattice):
            calls.clear()
            query(a, CTX3)
            # v_3(det) = -1 decides that steep has no invariant lattice
            assert calls == ([] if query is invariant_lattice and a is steep else [a])


def test_invariant_lattice_inverts_nothing_and_grows_at_most_n_rounds(hermite_calls,
                                                                      monkeypatch):
    # each round of the sum chain triangularises its sum once and stops at
    # index 0; only a round that grows reduces the sum, so a chain grows at
    # most n - 1 times and forms no whole Hermite form; the conjugated
    # Jordan block has 1/3 above its diagonal and takes the n - 1 grows,
    # the bound exactly
    jordan = QMatrix([[int(j in (i, i + 1)) for j in range(4)] for i in range(4)])
    c = QMatrix.diagonal([27, 9, 3, 1]) * QMatrix([[1, 2, 0, -1], [0, 1, 1, 0], [0, 0, 1, 2],
                                                   [0, 0, 0, 1]])
    cases = [QMatrix([[1, F(1, 3)], [0, 1]]), c.inverse() * jordan * c]
    inverses, calls = [], hermite_calls
    real_inverse = QMatrix.inverse
    monkeypatch.setattr(QMatrix, "inverse", lambda m: inverses.append(m) or real_inverse(m))
    for a, grows in zip(cases, (1, 3)):
        calls.update(dict.fromkeys(calls, 0))
        lat = invariant_lattice(a, CTX3)
        assert inverses == [] and grows <= a.n - 1
        assert calls == {"triangular": grows + 1, "reduce": grows, "hermite": 0}
        assert lat is not None and apply(a, lat) == lat


small = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(3), F(1, 3), F(-2, 9), F(5, 2)])


@st.composite
def invertible(draw):
    """Random invertible 2x2 or 3x3 matrices, and as many type-R ones:
    c^-1 L U c with L, U integral unitriangular and c = diag(p^e), e in {-1, 0, 1}."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        a = QMatrix(draw(st.lists(st.lists(small, min_size=n, max_size=n),
                                  min_size=n, max_size=n)))
    else:
        ints = st.integers(-3, 3)
        lower = QMatrix([[1 if i == j else draw(ints) if j < i else 0 for j in range(n)]
                         for i in range(n)])
        upper = QMatrix([[1 if i == j else draw(ints) if j > i else 0 for j in range(n)]
                         for i in range(n)])
        c = QMatrix.diagonal([F(p) ** draw(st.integers(-1, 1)) for _ in range(n)])
        a = c.inverse() * lower * upper * c
    assume(a.det() != 0)
    return a, PContext(p)


@settings(max_examples=60, deadline=None)
@given(invertible())
def test_invariant_lattice_is_the_saturation_of_one_type_r_generator(case):
    a, ctx = case
    lat = invariant_lattice(a, ctx)
    if not type_r_matrix(a, ctx):
        assert lat is None  # not saturated, which keeps the test time bounded
        return
    res = bounded_group(GeneratorSet.of(ctx, [a]))
    assert res.verdict == BOUNDED
    assert lat == res.invariant


@settings(max_examples=40, deadline=None)
@given(invertible(), st.integers(1, 4))
def test_law_scale_of_a_power(case, k):
    """s(a^k) = s(a)^k, and tidying certifies the scale of the power too."""
    a, ctx = case
    power = a ** k
    assert scale_newton(power, ctx) == k * scale_newton(a, ctx)
    assert scale_tidy(power, ctx).scale_exponent == k * scale_newton(a, ctx)


@settings(max_examples=100, deadline=None)
@given(invertible())
def test_law_the_scale_is_the_lowest_point_of_the_newton_polygon(case):
    """-min v_p(c_i) is the total expansion read off the hull's slopes, and
    the default cap is never below 4n(1 + the largest rise of one segment)."""
    a, ctx = case
    poly = char_poly(a)
    slopes = newton_polygon(poly, ctx).slopes
    assert scale_newton(a, ctx) == sum(-s * m for s, m in slopes if s < 0)
    vals = [vp_frac(c, ctx.p) for c in poly]
    assert default_iteration_cap(vals, a.n) >= 4 * a.n * (1 + max(abs(s * m) for s, m in slopes))


def test_the_scale_builds_no_newton_polygon(monkeypatch):
    def refuse(*args):
        raise AssertionError("newton_polygon called")

    monkeypatch.setattr(ppm.linalg, "newton_polygon", refuse)
    monkeypatch.setattr(ppm.scale, "newton_polygon", refuse, raising=False)
    for a, m in ((QMatrix.diagonal([F(1, 9), 1, 3]), 2), (QMatrix([[3, F(1, 9)], [0, 1]]), 0),
                 (QMatrix([[0, 3], [1, 0]]).inverse(), 1), (QMatrix.identity(2), 0)):
        assert scale_newton(a, CTX3) == m
        assert scale_tidy(a, CTX3).scale_exponent == m


def test_a_tidying_run_intersects_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("lattice_intersect called")

    monkeypatch.setattr(ppm.linalg, "lattice_intersect", refuse)
    monkeypatch.setattr(ppm.scale, "lattice_intersect", refuse, raising=False)
    for a, m in ((QMatrix([[1, F(1, 3)], [0, 1]]), 0), (QMatrix([[1, F(1, 27)], [0, 1]]), 0),
                 (QMatrix([[3, F(1, 9)], [0, 1]]), 0), (QMatrix.diagonal([F(1, 9), 1, 3]), 2)):
        report = scale_tidy(a, CTX3)
        assert report.scale_exponent == m and len(report.iteration_trace) == (1 if m else 2)


def test_hermite_forms_per_tidy_call(hermite_calls):
    # each step triangularises the sum F + a(F) and reduces it only when
    # the run goes on; the returned lattice is the chain's own F_k, so it
    # costs no Hermite form
    calls = hermite_calls
    for a, steps in ((QMatrix([[1, F(1, 3)], [0, 1]]), 2),
                     (QMatrix([[1, F(1, 27)], [0, 1]]), 2),
                     (QMatrix([[3, F(1, 9)], [0, 1]]), 2),
                     (QMatrix.diagonal([F(1, 9), 1, 3]), 1)):
        calls.update(dict.fromkeys(calls, 0))
        assert len(scale_tidy(a, CTX3).iteration_trace) == steps
        assert calls == {"triangular": steps, "reduce": steps - 1, "hermite": 0}


def _reference_sum_chain(a, ctx, cap=None):
    """The forward chain F_{k+1} = F_k + a(F_k) from Z_p^n with every sum a
    canonical lattice (lattice_sum), each index v(det F_k) - v(det F_{k+1}) read
    off two canonical lattices, and F_k returned at the scale."""
    target = scale_newton(a, ctx)
    if cap is None:
        cap = default_iteration_cap(char_poly_valuations(a, ctx.p), a.n)
    cur, trace = Lattice.standard(ctx, a.n), []
    for k in range(cap + 1):
        grown = lattice_sum(cur, apply(a, cur))
        trace.append((k, cur.det_valuation() - grown.det_valuation()))
        if trace[-1][1] == target:
            return target, cur, tuple(trace)
        cur = grown
    raise CapExceeded("reference cap", tuple(trace))


@settings(max_examples=60, deadline=None)
@given(invertible())
def test_law_a_tidying_index_read_off_the_sum_is_the_index_of_the_intersection(case):
    """[L + a(L) : L] = [a(L) : L ^ a(L)] at every lattice of a tidying run,
    and sum_chain's first step from L reads it off. scale_tidy, which reduces
    only the sums its chain goes on from, reports the scale, the trace and
    the lattice of the chain that canonicalises every sum."""
    a, ctx = case
    report = scale_tidy(a, ctx)
    lat = Lattice.standard(ctx, a.n)
    for _ in range(len(report.iteration_trace)):
        image = apply(a, lat)
        meet = lattice_intersect(image, lat)
        grown = lattice_sum(lat, image)
        assert next(sum_chain(lat, [a]))[1] == lat.det_valuation() - grown.det_valuation() \
            == lattice_index(image, meet)
        lat = meet
    assert (report.scale_exponent, report.minimizing_lattice, report.iteration_trace) \
        == _reference_sum_chain(a, ctx)


@settings(max_examples=60, deadline=None)
@given(invertible())
def test_law_the_tidy_lattice_contains_the_standard_one_and_is_invariant_for_type_r(case):
    """The forward chain only grows, so the returned lattice contains Z_p^n;
    for type-R a it is invariant_lattice's, the same chain with the same
    stop (index 0 is a(F) <= F)."""
    a, ctx = case
    lat = scale_tidy(a, ctx).minimizing_lattice
    assert lat.contains_lattice(Lattice.standard(ctx, a.n))
    if type_r_matrix(a, ctx):
        assert invariant_lattice(a, ctx) == lat


def test_the_trace_rejects_a_unit_determinant_before_any_char_poly(monkeypatch):
    # c^-1 diag(1/9, 1, 9) c has det 1 and trace 82/9, so it is not type R
    # (c_1 = -tr); the shear has det 1 and trace 2, so it needs its char poly
    calls = []

    def counting(a, p):
        calls.append(a)
        return char_poly_valuations(a, p)

    monkeypatch.setattr(ppm.scale, "char_poly_valuations", counting)
    c = QMatrix([[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    steep = c.inverse() * QMatrix.diagonal([F(1, 9), 1, 9]) * c
    shear = QMatrix([[1, F(1, 3)], [0, 1]])
    for a, type_r, polys in ((steep, False, 0), (shear, True, 1)):
        calls.clear()
        assert (invariant_lattice(a, CTX3) is not None) == type_r_matrix(a, CTX3) == type_r
        assert len(calls) == 2 * polys
    singular = QMatrix([[F(1, 3), 1], [0, 0]])  # trace 1/3, but Singular comes first
    for query in (invariant_lattice, type_r_matrix):
        with pytest.raises(Singular):
            query(singular, CTX3)


def test_a_tidying_cap_raises_with_the_trace_so_far():
    # a = c^-1 [[3, 1], [0, 1/3]] c tidies in one step, trace ((0, 6), (1, 1))
    c = QMatrix([[1, 0], [F(1, 27), 1]])
    a = c.inverse() * QMatrix([[3, 1], [0, F(1, 3)]]) * c
    assert scale_tidy(a, CTX3).iteration_trace == ((0, 6), (1, 1))
    with pytest.raises(CapExceeded) as exc:
        scale_tidy(a, CTX3, cap=0)
    assert exc.value.trace == ((0, 6),)


def _reference_tidy(a, ctx, cap=None):
    """The intersection chain L_{k+1} = L_k ^ a(L_k) from Z_p^n, each index
    read off the intersection itself: the textbook iteration, whose scale
    scale_tidy must reach."""
    vals = [vp_frac(c, ctx.p) for c in char_poly(a)]
    target = -min(vals)
    cap = default_iteration_cap(vals, a.n) if cap is None else cap
    lat, trace = Lattice.standard(ctx, a.n), []
    for k in range(cap + 1):
        image = apply(a, lat)
        meet = lattice_intersect(image, lat)
        trace.append((k, lattice_index(image, meet)))
        if trace[-1][1] == target:
            return target, lat, tuple(trace)
        lat = meet
    raise CapExceeded("reference cap", tuple(trace))


@st.composite
def steep_conjugate(draw):
    """a = c^-1 diag(u_i p^e_i) c, c a product of elementary matrices whose
    off-diagonal entries have p-power denominators, so the standard lattice
    can lie several tidying steps from a tidy one."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(2, 6))
    units = [u for u in (1, -1, 2, -2, 3, 4, 7) if u % p]
    diag = QMatrix.diagonal([F(draw(st.sampled_from(units))) * F(p) ** draw(st.integers(-3, 3))
                             for _ in range(n)])
    c = QMatrix.identity(n)
    for _ in range(draw(st.integers(1, 2 * n))):
        i, j = draw(st.permutations(range(n)))[:2]
        rows = [[F(int(r == s)) for s in range(n)] for r in range(n)]
        rows[i][j] = F(draw(st.integers(-4, 4)), p ** draw(st.integers(0, 3)))
        c = c * QMatrix(rows)
    return c.inverse() * diag * c, PContext(p)


@settings(max_examples=40, deadline=None)
@given(steep_conjugate())
def test_law_tidying_matches_the_forward_sum_chain(case):
    """scale_tidy's report, or its CapExceeded trace, is the forward sum
    chain's at every cap; the scale is the intersection chain's, and the
    returned lattice's index, measured directly, is the scale."""
    a, ctx = case
    assert scale_tidy(a, ctx).scale_exponent == _reference_tidy(a, ctx)[0]
    for cap in (None, 0, 1):
        try:
            want = _reference_sum_chain(a, ctx, cap)
        except CapExceeded as exc:
            with pytest.raises(CapExceeded) as got:
                scale_tidy(a, ctx, cap)
            assert got.value.trace == exc.trace
            continue
        report = scale_tidy(a, ctx, cap)
        assert (report.scale_exponent, report.minimizing_lattice, report.iteration_trace) == want
        assert report.method_agreement
        img = apply(a, report.minimizing_lattice)
        assert lattice_index(img, lattice_intersect(img, report.minimizing_lattice)) \
            == report.scale_exponent


@settings(max_examples=40, deadline=None)
@given(steep_conjugate())
def test_law_a_lattice_tidy_for_a_is_tidy_for_its_inverse(case):
    """Willis: U tidy for a is tidy for a^-1, so its index under a^-1 is
    the scale of a^-1."""
    a, ctx = case
    lat = scale_tidy(a, ctx).minimizing_lattice
    inv = a.inverse()
    img = apply(inv, lat)
    assert lattice_index(img, lattice_intersect(img, lat)) == scale_newton(inv, ctx)
