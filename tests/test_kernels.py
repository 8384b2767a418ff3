"""Laws of the two elimination kernels (linalg.eliminate over Q, on integer
rows, and modmat.rref_mod over F_p), of what is read off them and of the
products mod p^m (modmat.mat_mul and modmat.row_images), checked against
independent arithmetic: the Fraction Gauss-Jordan reference_rref, Berkowitz
char polys, Leibniz minors, a triple loop, row-column sums and brute force."""
from fractions import Fraction as F
from itertools import combinations, permutations, product
from math import lcm
from operator import mul

import pytest
from conftest import reference_rref
from hypothesis import given, settings, strategies as st

from ppm import modmat
from ppm.dynamics import GeneratorSet, common_fixed_space, type_r_matrix
from ppm.errors import Singular
from ppm.linalg import QMatrix, char_poly, eliminate, newton_polygon
from ppm.qpcore import PContext
from ppm.roots import _row_reduced, _solutions

SETTINGS = settings(max_examples=40, deadline=None)

entries = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(3), F(1, 3), F(-2, 9), F(5, 2)])
primes = st.sampled_from([2, 3, 5])


def square(n, elem=entries):
    return st.lists(st.lists(elem, min_size=n, max_size=n), min_size=n, max_size=n)


qmatrices = st.integers(1, 4).flatmap(square).map(QMatrix)


def _sign(perm):
    inversions = sum(1 for i, j in combinations(range(len(perm)), 2) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def leibniz_det(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        term = _sign(perm)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def minor_rank(rows):
    """Largest k with a nonzero k x k minor."""
    if not rows:
        return 0
    for k in range(min(len(rows), len(rows[0])), 0, -1):
        for rs in combinations(range(len(rows)), k):
            for cs in combinations(range(len(rows[0])), k):
                if leibniz_det([[rows[r][c] for c in cs] for r in rs]) != 0:
                    return k
    return 0


# ---- over Q ---------------------------------------------------------------

wide_entries = st.one_of(entries, st.integers(-9, 9),
                         st.fractions(min_value=-40, max_value=40, max_denominator=30))


@st.composite
def systems(draw):
    """Rows with the pivot search limited to the first width columns; some
    rows are combinations of others, so the rank is often deficient."""
    cols = draw(st.integers(1, 6))
    row = st.lists(wide_entries, min_size=cols, max_size=cols)
    rows = draw(st.lists(row, min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        c = draw(wide_entries)
        rows.insert(draw(st.integers(0, len(rows))), [x + c * y for x, y in zip(a, b)])
    return rows, draw(st.integers(1, cols))


@settings(max_examples=200, deadline=None)
@given(system=systems())
def test_eliminate_matches_the_fraction_reference(system):
    # on the rows cleared of their denominators: the reference's pivots, its
    # rows up to the rank times the last pivot P, and its square determinant
    rows, width = system
    ints = [[int(x * d) for x in row] for row in rows
            for d in [lcm(*(x.denominator for x in row))]]
    want, want_pivots, want_det = reference_rref(ints, width)
    m = [row[:] for row in ints]
    pivots, order, det = eliminate(m, width)
    rank, last = len(pivots), m[len(pivots) - 1][pivots[-1]] if pivots else 1
    assert pivots == want_pivots and sorted(order) == list(range(len(m)))
    assert m[:rank] == [[last * x for x in row] for row in want[:rank]]
    assert all(type(x) is int for row in m for x in row)
    if len(rows) == width:  # det is defined for a square block only
        assert det == want_det
        assert eliminate([row[:] for row in ints], width, det_only=True)[2] == want_det


def test_eliminate_is_exact_on_integer_rows():
    # a pivot inverted as 1 / int would give floats
    m = [[2, 1], [1, 1]]
    assert eliminate(m, 2) == ([0, 1], [0, 1], 1) and m == [[1, 0], [0, 1]]
    assert all(type(x) is int for row in m for x in row)
    assert type(QMatrix([[2, 1], [1, 1]]).det()) is F


def test_no_fraction_arithmetic_in_elimination(monkeypatch):
    a = QMatrix([[F(1, 3), 2, 0], [F(-5, 2), 1, F(1, 7)], [4, F(2, 9), 1]])
    rows = [list(row) for row in a.rows]
    want = a.det(), a.inverse()

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in the kernel")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__"):
        monkeypatch.setattr(F, name, refuse)
    fresh = QMatrix(rows)
    assert (fresh.det(), fresh.inverse()) == want


@st.composite
def matrix_routes(draw):
    """One Fraction matrix, reached by every way of building a QMatrix."""
    n = draw(st.integers(1, 3))
    rows = draw(square(n, wide_entries))
    want = tuple(tuple(rows[i][j] for j in range(n)) for i in range(n))
    ident = QMatrix.identity(n)
    a = QMatrix(rows)
    d = lcm(*(x.denominator for row in rows for x in row)) * draw(st.integers(1, 4))
    k = draw(st.integers(-5, 5).filter(bool))  # k < 0: a negative denominator
    routes = [a, QMatrix([[F(2 * x.numerator, 2 * x.denominator) for x in row]
                          for row in rows]),
              QMatrix._from_ints(k * d, [[k * int(x * d) for x in row] for row in rows]),
              a * ident, ident * a, a * 1, (a + a) * F(1, 2), a - QMatrix([[0] * n] * n)]
    if a.det() != 0:
        routes += [a.inverse().inverse(), a * a.inverse() * a]
    return want, routes


@SETTINGS
@given(case=matrix_routes(), other=st.integers(1, 3).flatmap(square).map(QMatrix))
def test_qmatrix_equality_and_hash_follow_the_fraction_rows(case, other):
    want, routes = case
    for m in routes:
        assert m.rows == want
        assert m == routes[0] and hash(m) == hash(routes[0])
        assert (m == other) == (m.rows == other.rows)
    n = len(want)
    for ident in (QMatrix([[int(i == j) for j in range(n)] for i in range(n)]),
                  QMatrix._from_ints(-3, [[-3 * (i == j) for j in range(n)] for i in range(n)]),
                  routes[0] * routes[0].inverse() if routes[0].det() else QMatrix.identity(n)):
        assert ident == QMatrix.identity(n) and hash(ident) == hash(QMatrix.identity(n))

@SETTINGS
@given(a=qmatrices)
def test_det_is_the_signed_char_poly_constant_term(a):
    assert a.det() == (-1) ** a.n * char_poly(a)[-1]


@SETTINGS
@given(a=qmatrices)
def test_inverse_round_trips(a):
    if a.det() == 0:
        with pytest.raises(Singular):
            a.inverse()
        return
    ident = QMatrix.identity(a.n)
    assert a * a.inverse() == ident
    assert a.inverse() * a == ident


near_identity = st.sampled_from([F(0)] * 6 + [F(1), F(-1), F(1, 3)])


@SETTINGS
@given(data=st.data(), n=st.integers(1, 3), count=st.integers(1, 2))
def test_common_fixed_space_is_fixed_and_has_n_minus_rank_vectors(data, n, count):
    ident = QMatrix.identity(n)
    gens = []
    while len(gens) < count:
        g = ident + QMatrix(data.draw(square(n, near_identity)))
        if g.det() != 0:
            gens.append(g)
    fixed = common_fixed_space(GeneratorSet.of(PContext(3), gens))
    for vec in fixed:
        for g in gens:
            assert tuple(sum(x * v for x, v in zip(row, vec)) for row in g.rows) == vec
    stacked = [row for g in gens for row in (g - ident).rows]
    assert len(fixed) == n - minor_rank(stacked)
    assert minor_rank([list(v) for v in fixed]) == len(fixed)


def type_r_reference(a, ctx):
    """The definition type_r_matrix replaced: a flat Newton polygon."""
    if a.det() == 0:
        raise Singular("type R is only defined for invertible matrices")
    polygon = newton_polygon(char_poly(a), ctx)
    return polygon.infinite_count == 0 and all(s == 0 for s, _ in polygon.slopes)


@SETTINGS
@given(a=qmatrices, p=primes)
def test_type_r_matches_the_flat_newton_polygon(a, p):
    ctx = PContext(p)
    if a.det() == 0:
        with pytest.raises(Singular):
            type_r_matrix(a, ctx)
        return
    assert type_r_matrix(a, ctx) == type_r_reference(a, ctx)


def test_type_r_examples_on_both_sides():
    ctx = PContext(3)
    for rows, expected in [([[1, 1], [0, 1]], True), ([[0, -1], [1, 0]], True),
                           ([[3, 0], [0, F(1, 3)]], False), ([[2, 0], [0, 1]], True),
                           ([[1, F(1, 3)], [F(1, 3), 1]], False)]:
        a = QMatrix(rows)
        assert type_r_matrix(a, ctx) == type_r_reference(a, ctx) == expected


# ---- over F_p -------------------------------------------------------------

@st.composite
def mod_pairs(draw):
    p = draw(primes)
    n = draw(st.integers(1, 3))
    cell = st.integers(0, p ** 3 - 1)
    return p, draw(square(n, cell)), draw(square(n, cell))


@SETTINGS
@given(case=mod_pairs())
def test_det_mod_is_multiplicative_and_matches_leibniz(case):
    p, a, b = case
    assert modmat.det_mod(a, p) == leibniz_det(a) % p
    ab = modmat.mat_mul(a, b, p)
    assert modmat.det_mod(ab, p) == modmat.det_mod(a, p) * modmat.det_mod(b, p) % p


def test_det_mod_tracks_row_swaps():
    # scaled permutation matrices need a swap at every zero pivot
    for perm in permutations(range(3)):
        a = tuple(tuple(2 + i if j == perm[i] else 0 for j in range(3)) for i in range(3))
        assert modmat.det_mod(a, 5) == leibniz_det(a) % 5
        assert QMatrix(a).det() == leibniz_det(a)


@SETTINGS
@given(case=mod_pairs(), level=st.integers(2, 4))
def test_mat_inv_round_trips_above_level_one(case, level):
    p, a, _ = case
    mod = p ** level
    a = modmat.reduce_mat(a, mod)
    if not modmat.invertible_mod(a, p):
        with pytest.raises(Singular):
            modmat.mat_inv(a, p, level)
        return
    inv = modmat.mat_inv(a, p, level)
    ident = modmat.identity_mat(len(a))
    assert modmat.mat_mul(a, inv, mod) == ident
    assert modmat.mat_mul(inv, a, mod) == ident


@st.composite
def product_cases(draw):
    """A modulus p^m, an n x n operand and one to four more, n on both sides
    of mat_mul's unroll limit, with unreduced and negative entries."""
    mod = draw(primes) ** draw(st.integers(1, 30))
    n = draw(st.integers(1, 6))
    cell = st.integers(-3 * mod, 3 * mod)
    return mod, draw(square(n, cell)), draw(st.lists(square(n, cell), min_size=1, max_size=4))


def reference_product(a, b, mod):
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for t in range(n):
                out[i][j] += a[i][t] * b[t][j]
    return tuple(tuple(x % mod for x in row) for row in out)


@settings(max_examples=100, deadline=None)
@given(case=product_cases())
def test_mat_mul_matches_the_triple_loop(case):
    mod, a, (b, *_) = case
    assert modmat.mat_mul(a, b, mod) == reference_product(a, b, mod)


@settings(max_examples=100, deadline=None)
@given(case=product_cases())
def test_row_images_are_the_row_times_column_sums(case):
    # the rows of a, each times every generator, as the oracle's row orbit
    # took them before the kernel
    mod, a, gens = case
    images = modmat.row_images(gens, mod)
    for v in a:
        assert images(v) == tuple(tuple(sum(map(mul, v, col)) % mod for col in zip(*g))
                                  for g in gens)


@pytest.mark.parametrize("n", [1, 2, 4, 5, 6])  # kernels up to 4, the comprehension above
def test_mat_mul_rejects_operands_that_are_not_square_of_one_size(n):
    with pytest.raises(ValueError):  # zip used to drop the unmatched column
        modmat.mat_mul(((1, 2), (3, 4)), ((1,),), 5)
    one = modmat.identity_mat(n)
    for bad in (modmat.identity_mat(n + 1), one[:-1], tuple(row[:-1] for row in one),
                (*one[:-1], (*one[-1], 0))):
        for a, b in ((one, bad), (bad, one)):
            with pytest.raises(ValueError):
                modmat.mat_mul(a, b, 5)
            with pytest.raises(ValueError):  # and the row kernel's generators
                modmat.row_images((a, b), 5)
    for v in ((1,) * (n + 1), (1,) * (n - 1)):
        with pytest.raises(ValueError):
            modmat.row_images((one,), 5)(v)


@st.composite
def affine_systems(draw):
    p = draw(primes)
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    mat = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols),
                        min_size=rows, max_size=rows))
    rhs = draw(st.lists(st.integers(0, p - 1), min_size=rows, max_size=rows))
    return p, mat, rhs


@SETTINGS
@given(system=affine_systems())
def test_affine_solutions_are_exactly_the_brute_force_solutions(system):
    p, mat, rhs = system
    sols = list(_solutions(_row_reduced(mat, p), rhs, p))
    for y in sols:
        assert [sum(m * v for m, v in zip(row, y)) % p for row in mat] == rhs
    brute = [list(y) for y in product(range(p), repeat=len(mat[0]))
             if [sum(m * v for m, v in zip(row, y)) % p for row in mat] == rhs]
    assert sorted(sols) == brute


def test_inconsistent_affine_system_has_no_solution():
    assert list(_solutions(_row_reduced([[1, 2], [2, 4]], 5), [1, 0], 5)) == []
    assert list(_solutions(_row_reduced([[0, 0]], 3), [1], 3)) == []
