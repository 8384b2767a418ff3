import random
from fractions import Fraction as F
from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import ppm.linalg
from ppm.errors import NotNested, Singular
from ppm.linalg import Lattice, QMatrix, apply, char_poly, char_poly_valuations, \
    elementary_divisors, elementary_divisors_with_directions, lattice_index, lattice_intersect, \
    lattice_sum, maps_into, newton_polygon
from ppm.qpcore import INFINITY, PContext, vp, vp_frac
from ppm.scale import scale_tidy

CTX2, CTX3, CTX5 = PContext(2), PContext(3), PContext(5)


# -- independent oracle: characteristic polynomial by cofactor expansion of xI - A,
#    with entries represented as coefficient lists (ascending degree)

def _padd(a, b):
    out = [F(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def _pmul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return out


def _naive_charpoly(mat):
    n = mat.n
    entries = [[[-mat.rows[i][j]] if i != j else [-mat.rows[i][j], F(1)]
                for j in range(n)] for i in range(n)]

    def det(rows, cols):
        if len(cols) == 1:
            return entries[rows[0]][cols[0]]
        total = [F(0)]
        for idx, c in enumerate(cols):
            minor = det(rows[1:], cols[:idx] + cols[idx + 1:])
            term = _pmul(entries[rows[0]][c], minor)
            if idx % 2:
                term = [-x for x in term]
            total = _padd(total, term)
        return total

    poly = det(list(range(n)), list(range(n)))
    return tuple(reversed(poly))  # leading-first, monic


def _rand_matrix(rng, n, bound=9):
    while True:
        m = QMatrix([[F(rng.randint(-bound, bound), rng.randint(1, bound))
                      for _ in range(n)] for _ in range(n)])
        if m.det() != 0:
            return m


def _rand_unimodular_local(rng, n, p):
    """Random element of GL(n, Z_(p)): elementary ops with p-unit pivots."""
    m = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
    units = [1, -1, p + 1, 2 * p + 1, F(1, p + 1), F(2 * p + 1, p + 1)]
    for _ in range(3 * n):
        op = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if op == 0 and i != j:
            c = F(rng.randint(-4, 4))
            for r in range(n):
                m[r][j] += c * m[r][i]
        elif op == 1:
            u = F(units[rng.randrange(len(units))])
            for r in range(n):
                m[r][j] *= u
        elif i != j:
            for r in range(n):
                m[r][i], m[r][j] = m[r][j], m[r][i]
    return QMatrix(m)


class TestCharPoly:
    def test_identity(self):
        assert char_poly(QMatrix.identity(2)) == (1, -2, 1)

    def test_diagonal(self):
        assert char_poly(QMatrix.diagonal([F(1, 3), 1])) == (1, F(-4, 3), F(1, 3))

    def test_antidiagonal(self):
        assert char_poly(QMatrix([[0, 3], [1, 0]])) == (1, 0, -3)

    def test_matches_cofactor_expansion(self):
        rng = random.Random(11)
        for n in (2, 3, 4):
            for _ in range(8):
                m = _rand_matrix(rng, n)
                assert char_poly(m) == _naive_charpoly(m)

    def test_constant_term_is_signed_determinant(self):
        rng = random.Random(7)
        for _ in range(10):
            m = _rand_matrix(rng, 3)
            assert char_poly(m)[-1] == (-1) ** 3 * m.det()


class TestNewtonPolygon:
    def test_linear(self):
        np = newton_polygon([1, -1], CTX5)
        assert np.slopes == ((0, 1),)

    def test_x2_minus_p(self):
        np = newton_polygon([1, 0, -3], CTX3)
        assert np.slopes == ((F(1, 2), 2),)

    def test_mixed_slopes(self):
        np = newton_polygon([1, F(-4, 3), F(1, 3)], CTX3)
        assert np.slopes == ((-1, 1), (0, 1))

    def test_known_rational_roots(self):
        # the polygon of prod (x - r_i) must report exactly the v_p(r_i)
        rng = random.Random(5)
        for _ in range(25):
            roots = [F(rng.randint(-60, 60), rng.randint(1, 60)) for _ in range(4)]
            roots = [r for r in roots if r != 0] or [F(1)]
            poly = [F(1)]
            for r in roots:
                poly = [a - r * b for a, b in
                        zip(poly + [F(0)], [F(0)] + poly)]
            np = newton_polygon(poly, CTX2)
            assert sorted(s for s, m in np.slopes for _ in range(m)) == sorted(vp(r, CTX2) for r in roots)

    def test_zero_roots_counted_separately(self):
        # x^3 - p x^2 = x^2 (x - p)
        np = newton_polygon([1, -3, 0, 0], CTX3)
        assert np.infinite_count == 2
        assert np.slopes == ((1, 1),)

    def test_slope_sum_identity(self):
        rng = random.Random(3)
        for _ in range(15):
            m = _rand_matrix(rng, 3)
            np = newton_polygon(char_poly(m), CTX5)
            assert sum(s * mult for s, mult in np.slopes) == vp(m.det(), CTX5)

    def test_requires_monic(self):
        with pytest.raises(ValueError):
            newton_polygon([2, 1], CTX3)


class TestLattice:
    def test_canonical_form_is_unique(self):
        rng = random.Random(23)
        for p, ctx in ((2, CTX2), (3, CTX3), (5, CTX5)):
            for n in (2, 3):
                for _ in range(10):
                    b = _rand_matrix(rng, n)
                    lat = Lattice(ctx, b)
                    u = _rand_unimodular_local(rng, n, p)
                    assert Lattice(ctx, b * u) == lat
                    assert Lattice(ctx, lat.basis) == lat  # idempotent

    def test_sum_examples(self):
        l1 = Lattice.from_diagonal_exponents(CTX3, [1, 0])
        l2 = Lattice.from_diagonal_exponents(CTX3, [0, 1])
        std = Lattice.standard(CTX3, 2)
        assert lattice_sum(l1, l2) == std
        assert lattice_sum(l1, l1) == l1
        assert lattice_sum(l1, std).contains_lattice(std)

    def test_intersect_examples(self):
        l1 = Lattice.from_diagonal_exponents(CTX3, [1, 0])
        l2 = Lattice.from_diagonal_exponents(CTX3, [0, 1])
        assert lattice_intersect(l1, l2) == Lattice.from_diagonal_exponents(CTX3, [1, 1])
        assert lattice_intersect(l1, l1) == l1
        std = Lattice.standard(CTX3, 2)
        scaled = Lattice.from_diagonal_exponents(CTX3, [1, 1])
        assert lattice_intersect(std, scaled) == scaled

    def test_index_examples(self):
        std = Lattice.standard(CTX3, 2)
        assert lattice_index(std, Lattice.from_diagonal_exponents(CTX3, [1, 0])) == 1
        assert lattice_index(std, std) == 0
        big = Lattice.from_diagonal_exponents(CTX3, [-1, 0])
        small = Lattice.from_diagonal_exponents(CTX3, [1, 2])
        assert lattice_index(big, small) == 4
        with pytest.raises(NotNested):
            lattice_index(small, big)

    def test_apply_examples(self):
        std = Lattice.standard(CTX3, 2)
        assert apply(QMatrix.identity(2), std) == std
        assert apply(QMatrix.diagonal([3, 1]), std) \
            == Lattice.from_diagonal_exponents(CTX3, [1, 0])
        shear = apply(QMatrix([[1, F(1, 3)], [0, 1]]), std)
        assert shear.basis == QMatrix([[1, F(1, 3)], [0, 1]])
        with pytest.raises(Singular):
            apply(QMatrix([[1, 1], [1, 1]]), std)

    def test_apply_respects_composition(self):
        rng = random.Random(41)
        std = Lattice.standard(CTX5, 3)
        for _ in range(8):
            a, b = _rand_matrix(rng, 3), _rand_matrix(rng, 3)
            assert apply(a * b, std) == apply(a, apply(b, std))

    def test_duality_involution_and_exchange(self):
        rng = random.Random(17)
        for _ in range(10):
            l1 = Lattice(CTX3, _rand_matrix(rng, 3))
            l2 = Lattice(CTX3, _rand_matrix(rng, 3))
            assert l1.dual().dual() == l1
            assert lattice_sum(l1, l2).dual() == lattice_intersect(l1.dual(), l2.dual())

    def test_index_additivity(self):
        rng = random.Random(29)
        for _ in range(10):
            l1 = Lattice(CTX2, _rand_matrix(rng, 2))
            l2 = lattice_intersect(l1, Lattice(CTX2, _rand_matrix(rng, 2)))
            l3 = lattice_intersect(l2, Lattice(CTX2, _rand_matrix(rng, 2)))
            assert lattice_index(l1, l3) \
                == lattice_index(l1, l2) + lattice_index(l2, l3)

    def test_sum_intersect_determinant_valuations(self):
        rng = random.Random(31)
        for _ in range(10):
            l1 = Lattice(CTX5, _rand_matrix(rng, 3))
            l2 = Lattice(CTX5, _rand_matrix(rng, 3))
            assert lattice_sum(l1, l2).det_valuation() \
                + lattice_intersect(l1, l2).det_valuation() \
                == l1.det_valuation() + l2.det_valuation()

    def test_membership(self):
        lat = Lattice(CTX3, QMatrix([[1, F(1, 3)], [0, 1]]))
        assert lat.contains_vector([F(1, 3), 1])
        assert lat.contains_vector([1, 0])
        assert not lat.contains_vector([F(1, 3), 0])
        assert [F(2, 3), 2] in lat  # 2 * (1/3, 1)
        assert [F(1, 9), F(1, 3)] not in lat  # (1/3) * (1/3, 1): 1/3 is not local-integral


class TestElementaryDivisors:
    def test_equal_lattices(self):
        lat = Lattice(CTX3, QMatrix([[1, F(1, 3)], [0, 1]]))
        assert elementary_divisors(lat, lat) == (0, 0)

    def test_diagonal(self):
        std = Lattice.standard(CTX3, 2)
        assert elementary_divisors(std, Lattice.from_diagonal_exponents(CTX3, [1, -1])) \
            == (-1, 1)

    def test_shear(self):
        # span{(1,0), (1/p,1)} against the standard lattice: divisors sum to
        # v_p(det) = 0, and the lattice meets the standard one in index p each way
        std = Lattice.standard(CTX3, 2)
        shear = Lattice(CTX3, QMatrix([[1, F(1, 3)], [0, 1]]))
        divs = elementary_divisors(std, shear)
        assert divs == (-1, 1)
        assert sum(divs) == 0
        meet = lattice_intersect(std, shear)
        assert lattice_index(std, meet) == 1 and lattice_index(shear, meet) == 1

    def test_directions_reconstruct_the_lattice(self):
        rng = random.Random(53)
        std = Lattice.standard(CTX2, 3)
        for _ in range(10):
            lat = Lattice(CTX2, _rand_matrix(rng, 3))
            divs, dirs = elementary_divisors_with_directions(std, lat)
            scaled = dirs * QMatrix.diagonal([F(2) ** e for e in divs])
            assert Lattice(CTX2, scaled) == lat
            assert Lattice(CTX2, dirs) == std

    def test_divisor_sum_matches_determinant(self):
        rng = random.Random(59)
        std = Lattice.standard(CTX5, 2)
        for _ in range(10):
            lat = Lattice(CTX5, _rand_matrix(rng, 2))
            assert sum(elementary_divisors(std, lat)) == lat.det_valuation()


# -- lattice laws, property-based ---------------------------------------------

LAWS = settings(max_examples=40, deadline=None)
PRIMES = (2, 3, 5)


def _scalars(p):
    """Rationals whose denominators carry p, the prime 7, or both (p < 7)."""
    return st.builds(F, st.integers(-p ** 4, p ** 4), st.sampled_from([1, p, p * p, 7, 7 * p]))


def _invertible(draw, p, n):
    rows = draw(st.lists(st.lists(_scalars(p), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    m = QMatrix(rows)
    assume(m.det() != 0)
    return m


@st.composite
def lattices(draw, count, max_n=4):
    """(ctx, n, count lattices of Q_p^n), each spanned by an invertible matrix."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, max_n))
    ctx = PContext(p)
    return ctx, n, [Lattice(ctx, _invertible(draw, p, n)) for _ in range(count)]


@st.composite
def generator_sets(draw, max_n=5):
    """(ctx, n, columns): 1 to 2n generator columns in Q^n, full rank or not."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, max_n))
    cols = draw(st.lists(st.lists(_scalars(p), min_size=n, max_size=n),
                         min_size=1, max_size=2 * n))
    return PContext(p), n, cols


@st.composite
def matrices(draw, count, max_n=5):
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, max_n))
    return [QMatrix(draw(st.lists(st.lists(_scalars(p), min_size=n, max_size=n),
                                  min_size=n, max_size=n))) for _ in range(count)]


@LAWS
@given(lattices(3))
def test_law_sum_and_intersection_form_a_lattice(case):
    _, _, (l1, l2, l3) = case
    assert lattice_sum(l1, l2) == lattice_sum(l2, l1)
    assert lattice_intersect(l1, l2) == lattice_intersect(l2, l1)
    assert lattice_sum(lattice_sum(l1, l2), l3) == lattice_sum(l1, lattice_sum(l2, l3))
    assert lattice_intersect(lattice_intersect(l1, l2), l3) \
        == lattice_intersect(l1, lattice_intersect(l2, l3))
    assert lattice_sum(l1, lattice_intersect(l1, l2)) == l1  # absorption
    assert lattice_intersect(l1, lattice_sum(l1, l2)) == l1


@LAWS
@given(lattices(2))
def test_law_duality_is_an_involution_exchanging_sum_and_intersection(case):
    _, _, (l1, l2) = case
    assert l1.dual().dual() == l1
    assert lattice_sum(l1, l2).dual() == lattice_intersect(l1.dual(), l2.dual())
    assert lattice_intersect(l1, l2).dual() == lattice_sum(l1.dual(), l2.dual())


@LAWS
@given(generator_sets(max_n=4), st.randoms(use_true_random=False))
def test_law_canonical_form_is_idempotent_and_order_free(case, rng):
    ctx, _, cols = case
    try:
        lat = Lattice(ctx, cols)
    except ValueError:
        assume(False)
    assert Lattice(ctx, lat.basis) == lat
    assert Lattice(ctx, zip(*lat.basis.rows)).basis == lat.basis
    shuffled = list(cols)
    rng.shuffle(shuffled)
    assert Lattice(ctx, shuffled) == lat
    assert Lattice(ctx, shuffled + [tuple(2 * x for x in shuffled[0])]) == lat


@LAWS
@given(lattices(3))
def test_law_index_is_additive_along_chains(case):
    _, _, (l1, m2, m3) = case
    l2 = lattice_intersect(l1, m2)
    l3 = lattice_intersect(l2, m3)
    assert lattice_index(l1, l3) == lattice_index(l1, l2) + lattice_index(l2, l3)
    assert lattice_index(l1, l1) == 0


@LAWS
@given(st.data())
def test_law_apply_respects_composition(data):
    ctx, n, (lat,) = data.draw(lattices(1))
    a, b = _invertible(data.draw, ctx.p, n), _invertible(data.draw, ctx.p, n)
    assert apply(a * b, lat) == apply(a, apply(b, lat))
    assert apply(QMatrix.identity(n), lat) == lat


@LAWS
@given(st.data())
def test_law_maps_into_is_containment_of_the_image(data):
    """maps_into(a, L) is L >= a(L), and with v_p(det a) = 0 it is a(L) = L.
    Half the maps are B u B^-1 for L's basis B and u = lower * diagonal *
    upper, whose entries may carry p in their denominators, so a(L) lies
    in L (u integral) about as often as not; the rest are random."""
    ctx, n, (lat,) = data.draw(lattices(1))
    p = ctx.p
    if data.draw(st.booleans()):
        a = _invertible(data.draw, p, n)
    else:
        entry = st.sampled_from([0, 0, 1, -1, p, F(1, p), F(2, 7)])
        unit = st.sampled_from([1, -1, 7, p, F(1, p)])

        def triangular(lower):
            return QMatrix([[data.draw(entry) if (j < i if lower else j > i) else int(i == j)
                             for j in range(n)] for i in range(n)])

        u = triangular(True) * QMatrix.diagonal([data.draw(unit) for _ in range(n)]) \
            * triangular(False)
        a = lat.basis * u * lat.basis.inverse()
    image = apply(a, lat)
    assert maps_into(a, lat) == lat.contains_lattice(image)
    if vp(a.det(), ctx) == 0:
        assert maps_into(a, lat) == (image == lat)
    with pytest.raises(ValueError):
        maps_into(QMatrix.identity(n + 1), lat)


# -- the Fraction references the integer core must reproduce -------------------

def _reference_rep(x, e, p):
    """The element of Z[1/p] in [0, p^e) congruent to x modulo p^e Z_(p)."""
    if x == 0 or vp(x, PContext(p)) >= e:
        return F(0)
    t = 0
    while x.denominator % p ** (t + 1) == 0:
        t += 1
    mod = p ** (e + t)
    unit = x.denominator // p ** t
    return F(x.numerator * pow(unit, -1, mod) % mod, p ** t)


def _reference_canonical_columns(p, cols):
    """Hermite basis over Z_(p) in Fraction arithmetic: upper triangular,
    diagonal p^e_i, entry (i, j) reduced to its representative mod p^e_i."""
    ctx = PContext(p)
    n = len(cols[0])
    work = [[F(x) for x in col] for col in cols]
    unassigned = list(range(len(work)))
    assigned = [None] * n
    for i in range(n - 1, -1, -1):
        best, bestv = None, None
        for j in unassigned:
            if work[j][i] != 0:
                v = vp(work[j][i], ctx)
                if bestv is None or v < bestv:
                    best, bestv = j, v
        if best is None:
            raise ValueError("generators do not span a full-rank lattice")
        piv = work[best]
        unassigned.remove(best)
        scale = 1 / (piv[i] / F(p) ** bestv)
        for r in range(i + 1):
            piv[r] *= scale
        for j in unassigned:
            if work[j][i] != 0:
                q = work[j][i] / piv[i]
                for r in range(i + 1):
                    work[j][r] -= q * piv[r]
        assigned[i] = piv
    exps = [vp(assigned[i][i], ctx) for i in range(n)]
    for j in range(n):
        col = assigned[j]
        for i in range(j - 1, -1, -1):
            rep = _reference_rep(col[i], exps[i], p)
            q = (col[i] - rep) / assigned[i][i]
            for r in range(i + 1):
                col[r] -= q * assigned[i][r]
            col[i] = rep
    return QMatrix.from_columns(assigned)


def _reference_char_poly(a):
    """Berkowitz's recursion in Fraction arithmetic, leading-first."""
    poly = [F(1)]
    for k in range(1, a.n + 1):
        row = a.rows[k - 1][: k - 1]
        cur = [a.rows[i][k - 1] for i in range(k - 1)]
        minor = [a.rows[i][: k - 1] for i in range(k - 1)]
        toep = [F(1), -a.rows[k - 1][k - 1]]
        for _ in range(k - 1):
            toep.append(-sum(r * c for r, c in zip(row, cur)))
            cur = [sum(m * c for m, c in zip(m_row, cur)) for m_row in minor]
        poly = [sum(toep[i - j] * poly[j] for j in range(len(poly)) if 0 <= i - j < len(toep))
                for i in range(k + 1)]
    return tuple(poly)


def _reference_product(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b.rows))
                 for row in a.rows)


@LAWS
@given(generator_sets())
def test_canonical_basis_equals_the_fraction_reference(case):
    ctx, _, cols = case
    try:
        want = _reference_canonical_columns(ctx.p, cols)
    except ValueError:
        with pytest.raises(ValueError):
            Lattice(ctx, cols)
        return
    assert Lattice(ctx, cols).basis == want


@LAWS
@given(matrices(1))
def test_char_poly_equals_the_fraction_reference(case):
    (a,) = case
    assert char_poly(a) == _reference_char_poly(a)


@st.composite
def sparse_matrices(draw, max_n=6):
    """(p, a): a rational matrix of order n <= 6 with many zero entries, so
    that zero coefficients (a singular a, a nilpotent block) occur."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, max_n))
    entries = st.one_of(st.just(F(0)), _scalars(p))
    return p, QMatrix(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                    min_size=n, max_size=n)))


@settings(max_examples=80, deadline=None)
@given(sparse_matrices())
@example((3, QMatrix([[0, 3], [1, 0]])))
@example((2, QMatrix([[0] * 3] * 3)))
@example((5, QMatrix([[0, F(1, 5), 7], [0, 0, F(2, 25)], [0, 0, 0]])))
def test_law_char_poly_valuations_are_those_of_the_fraction_coefficients(case):
    p, a = case
    assert char_poly_valuations(a, p) == [vp_frac(c, p) for c in char_poly(a)]


def test_a_zero_char_poly_coefficient_has_infinite_valuation():
    assert char_poly_valuations(QMatrix([[0, 3], [1, 0]]), 3) == [0, INFINITY, 1]
    assert char_poly_valuations(QMatrix([[F(1, 9), 0], [0, 3]]), 3) == [0, -2, -1]


@LAWS
@given(matrices(2))
def test_product_equals_the_fraction_reference(case):
    a, b = case
    assert (a * b).rows == _reference_product(a, b)
    assert (a * b * a).rows == _reference_product(QMatrix(_reference_product(a, b)), a)


def test_a_tidying_step_inverts_nothing(monkeypatch):
    """One scale_tidy step (apply, intersect, index) runs on the integer
    Hermite bases alone: no QMatrix.inverse and no Lattice.dual."""
    calls = []

    def counting(name, original):
        def wrapper(self):
            calls.append(name)
            return original(self)
        return wrapper

    monkeypatch.setattr(QMatrix, "inverse", counting("inverse", QMatrix.inverse))
    monkeypatch.setattr(Lattice, "dual", counting("dual", Lattice.dual))
    a = QMatrix([[3, 1], [0, F(1, 3)]])
    report = scale_tidy(a, CTX3)
    assert report.iteration_trace == ((0, 1),)
    assert calls == []


def test_a_tidying_run_of_several_steps_inverts_nothing(monkeypatch):
    """A whole scale_tidy run that goes on past its first step, and builds
    its lattice from a dual, still calls no QMatrix.inverse and no
    Lattice.dual."""
    c = QMatrix([[1, 0], [F(1, 27), 1]])
    a = c.inverse() * QMatrix([[3, 1], [0, F(1, 3)]]) * c
    calls = []

    def counting(name, original):
        def wrapper(self):
            calls.append(name)
            return original(self)
        return wrapper

    monkeypatch.setattr(QMatrix, "inverse", counting("inverse", QMatrix.inverse))
    monkeypatch.setattr(Lattice, "dual", counting("dual", Lattice.dual))
    report = scale_tidy(a, CTX3)
    assert report.iteration_trace == ((0, 6), (1, 1))
    assert calls == []


def test_membership_rejects_vectors_of_the_wrong_length():
    lat = Lattice.standard(CTX3, 2)
    for vec in ([1, 0, F(1, 3)], [1], []):
        with pytest.raises(ValueError):
            lat.contains_vector(vec)
        with pytest.raises(ValueError):
            vec in lat  # noqa: B015


def _reference_newton_polygon(poly, p):
    """The Newton polygon by a lower hull on Fraction points: (slopes, zero roots)."""
    coeffs = [F(c) for c in poly]
    infinite = 0
    while coeffs[-1] == 0:
        coeffs.pop()
        infinite += 1
    d = len(coeffs) - 1
    pts = [(i, F(vp(coeffs[d - i], PContext(p)))) for i in range(d + 1) if coeffs[d - i] != 0]
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    slopes = [(-(y2 - y1) / (x2 - x1), x2 - x1) for (x1, y1), (x2, y2) in zip(hull, hull[1:])]
    return tuple(sorted(slopes, key=lambda t: t[0])), infinite


@LAWS
@given(p=st.sampled_from(PRIMES), data=st.data())
def test_newton_polygon_equals_the_fraction_hull_reference(p, data):
    """Monic polynomials with p-adically large, small and non-integral
    coefficients, and with zero roots (trailing zero coefficients)."""
    coeff = st.one_of(st.just(0), _scalars(p), st.builds(lambda e: F(p) ** e, st.integers(-4, 4)))
    poly = [1, *data.draw(st.lists(coeff, max_size=6)), *[0] * data.draw(st.integers(0, 2))]
    got = newton_polygon(poly, PContext(p))
    assert (got.slopes, got.infinite_count) == _reference_newton_polygon(poly, p)
    assert all(type(s) is F for s, _ in got.slopes)


def test_the_standard_lattice_is_built_in_canonical_form():
    for ctx in (CTX2, CTX3, CTX5):
        for n in range(1, 6):
            std, hermite = Lattice.standard(ctx, n), Lattice(ctx, QMatrix.identity(n))
            assert (std._shift, std._cols, std._exps) == (hermite._shift, hermite._cols,
                                                         hermite._exps)
            assert std == hermite and hash(std) == hash(hermite)
            assert Lattice.standard(ctx, n) is not std  # a fresh object on each call
    with pytest.raises(ValueError):
        Lattice.standard(CTX3, 0)


def test_the_smith_kernel_takes_no_fraction_valuation(monkeypatch):
    """Both Smith functions run on integers alone: no vp_frac call."""
    std = Lattice.standard(CTX3, 3)
    lat = Lattice(CTX3, QMatrix([[3, F(1, 3), 0], [1, 9, F(2, 7)], [0, 1, F(1, 9)]]))

    def refuse(*args):
        raise AssertionError("vp_frac called in the Smith kernel")

    monkeypatch.setattr(ppm.linalg, "vp_frac", refuse)
    divs = elementary_divisors(std, lat)
    assert elementary_divisors_with_directions(std, lat)[0] == divs
    assert sum(divs) == lat.det_valuation()


def _leibniz(rows):
    total = 0
    for perm in permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(len(perm)), 2))
        total += (-1) ** inversions * prod(row[c] for row, c in zip(rows, perm))
    return total


@st.composite
def smith_cases(draw):
    p = draw(st.sampled_from(PRIMES))
    return PContext(p), _invertible(draw, p, draw(st.integers(1, 4)))


@LAWS
@given(smith_cases())
def test_law_divisor_sums_are_the_least_minor_valuations(case):
    """e_1 + ... + e_j is the least v_p over the j x j minors of M, the
    determinantal divisors of M over Z_(p); the directions span Z_p^n."""
    ctx, m = case
    n, rows = m.n, m.rows
    std, lat = Lattice.standard(ctx, n), Lattice(ctx, m)
    divs = elementary_divisors(std, lat)
    for j in range(1, n + 1):
        minors = (_leibniz([[rows[r][c] for c in cs] for r in rs])
                  for rs in combinations(range(n), j) for cs in combinations(range(n), j))
        assert sum(divs[:j]) == min(vp(x, ctx) for x in minors if x != 0)
    exps, directions = elementary_divisors_with_directions(std, lat)
    assert exps == divs
    assert Lattice(ctx, directions) == std
