import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ppm import modmat
from ppm.errors import BadDomain, CapExceeded, NotUnipotent, PDividesK, PrecisionExhausted
from ppm.linalg import QMatrix
from ppm.qpcore import PContext
from ppm.roots import FOUND, NO_ROOT, OBSTRUCTED, PadicApproxMatrix, axb_root, \
    _mod_p_roots, congruence_root, finite_root, nilpotent_log, unipotent_root

CTX3 = PContext(3)
CTX5 = PContext(5)


def _random_unipotent(rng, n):
    rows = [[F(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = F(rng.randint(-6, 6), rng.randint(1, 6))
    conj = QMatrix([[1 if i == j else (1 if j == i + 1 else 0) for j in range(n)]
                    for i in range(n)])
    return conj.inverse() * QMatrix(rows) * conj


class TestUnipotent:
    def test_log_examples(self):
        assert nilpotent_log(QMatrix.identity(3)) == QMatrix.identity(3) * 0
        assert nilpotent_log(QMatrix([[1, 1], [0, 1]])) == QMatrix([[0, 1], [0, 0]])
        log3 = nilpotent_log(QMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]]))
        assert log3 == QMatrix([[0, 1, F(-1, 2)], [0, 0, 1], [0, 0, 0]])

    def test_log_rejects_non_unipotent(self):
        with pytest.raises(NotUnipotent):
            nilpotent_log(QMatrix([[2, 0], [0, 1]]))

    def test_log_exp_inverse(self):
        rng = random.Random(3)
        from ppm.roots import _nilpotent_exp
        for n in (2, 3, 4):
            for _ in range(5):
                u = _random_unipotent(rng, n)
                assert _nilpotent_exp(nilpotent_log(u)) == u

    def test_root_examples(self):
        r = unipotent_root(QMatrix([[1, 1], [0, 1]]), 2)
        assert r.root == QMatrix([[1, F(1, 2)], [0, 1]])
        assert unipotent_root(QMatrix.identity(4), 7).root == QMatrix.identity(4)
        u3 = QMatrix([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        assert unipotent_root(u3, 3).root ** 3 == u3

    def test_root_roundtrip_random(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.choice([2, 3, 4, 5])
            k = rng.randint(1, 12)
            u = _random_unipotent(rng, n)
            r = unipotent_root(u, k)
            assert r.status == FOUND
            assert r.root ** k == u


class TestCongruence:
    def test_scalar_example(self):
        ctx = PContext(5, 2)
        r = congruence_root(PadicApproxMatrix(ctx, 2, ((6,),)), 3)
        assert r.root.entries == ((11,),)

    def test_identity(self):
        ctx = PContext(7, 4)
        r = congruence_root(PadicApproxMatrix(ctx, 4, modmat.identity_mat(2)), 5)
        assert r.root.entries == modmat.identity_mat(2)

    def test_two_by_two(self):
        ctx = PContext(3, 3)
        a = ((4, 0), (0, 7))  # 1 + 3 diag(1, 2)
        r = congruence_root(PadicApproxMatrix(ctx, 3, a), 2)
        assert modmat.mat_pow(r.root.entries, 2, 27) == a

    def test_domain_checks(self):
        ctx = PContext(3, 3)
        with pytest.raises(BadDomain):
            congruence_root(PadicApproxMatrix(ctx, 3, ((2,),)), 2)
        with pytest.raises(PDividesK):
            congruence_root(PadicApproxMatrix(ctx, 3, ((4,),)), 3)
        ctx2 = PContext(2, 5)
        with pytest.raises(BadDomain):
            # 1 + 2M is not enough at p = 2; the domain is 1 + 4M
            congruence_root(PadicApproxMatrix(ctx2, 5, ((3,),)), 3)

    def test_rejects_a_non_positive_k(self):
        ctx = PContext(3, 5)
        for k, level in ((0, 5), (-1, 1), (-1, 5)):
            with pytest.raises(ValueError, match="k must be positive"):
                congruence_root(PadicApproxMatrix(ctx, 5, ((4,),)), k, level=level)

    def test_p2_domain(self):
        ctx2 = PContext(2, 8)
        a = ((5, 4), (8, 13))  # congruent to 1 mod 4
        r = congruence_root(PadicApproxMatrix(ctx2, 8, a), 3)
        assert modmat.mat_pow(r.root.entries, 3, 2 ** 8) == a

    def test_uniqueness_against_exhaustive_search(self):
        # at low level the congruence root must be the only root landing in
        # the congruence subgroup, and finite_root must find a root too
        ctx = PContext(3, 2)
        rng = random.Random(23)
        for _ in range(10):
            a = tuple(tuple((1 if i == j else 0) + 3 * rng.randint(0, 2) for j in range(2))
                      for i in range(2))
            if not modmat.invertible_mod(a, 3):
                continue
            r = congruence_root(PadicApproxMatrix(ctx, 2, a), 2)
            brute = [x for x in _all_mats_mod(2, 9)
                     if modmat.invertible_mod(x, 3) and modmat.mat_pow(x, 2, 9) == a
                     and modmat.reduce_mat(x, 3) == modmat.identity_mat(2)]
            assert brute == [r.root.entries]


def _all_mats_mod(n, mod):
    from itertools import product
    for entries in product(range(mod), repeat=n * n):
        yield tuple(tuple(entries[i * n + j] for j in range(n)) for i in range(n))


class TestFiniteRoot:
    def test_unit_example(self):
        ctx = PContext(3, 2)
        r = finite_root(PadicApproxMatrix(ctx, 2, ((2,),)), 5)
        assert r.status == FOUND and r.root.entries == ((5,),)

    def test_identity_has_root(self):
        ctx = PContext(3, 2)
        r = finite_root(PadicApproxMatrix(ctx, 2, modmat.identity_mat(2)), 7)
        assert r.status == FOUND
        assert modmat.mat_pow(r.root.entries, 7, 9) == modmat.identity_mat(2)

    def test_no_root(self):
        ctx = PContext(3, 2)
        r = finite_root(PadicApproxMatrix(ctx, 2, ((2,),)), 2)
        assert r.status == NO_ROOT
        assert r.witness_level == 1  # 2 is not even a square mod 3

    def test_branch_death_above_level_one(self):
        # 7 = 1 + 2*3 is a square mod 3 (1^2) but not mod 9:
        # squares mod 9 are {0,1,4,7}... 7 = 16 mod 9, so pick 2 mod 9 instead
        ctx = PContext(3, 2)
        r = finite_root(PadicApproxMatrix(ctx, 2, ((4,),)), 2)
        assert r.status == FOUND and r.root.entries in (((2,),), ((7,),))

    def test_matches_brute_force_enumeration(self):
        ctx = PContext(3, 2)
        rng = random.Random(41)
        for _ in range(12):
            a = tuple(tuple(rng.randrange(9) for _ in range(2)) for _ in range(2))
            if not modmat.invertible_mod(a, 3):
                continue
            k = rng.randint(1, 8)
            r = finite_root(PadicApproxMatrix(ctx, 2, a), k)
            brute = [x for x in _all_mats_mod(2, 9)
                     if modmat.invertible_mod(x, 3) and modmat.mat_pow(x, k, 9) == a]
            assert (r.status == FOUND) == bool(brute)
            if brute:
                assert r.root.entries in brute

    def test_surjectivity_matches_coprimality_on_small_groups(self):
        # finite_root succeeds on EVERY element iff k is coprime to the order
        from ppm.oracle import enumerate_group, unit_group_generators
        from math import gcd
        ctx = PContext(3, 3)
        table = enumerate_group(unit_group_generators(3, 3), ctx, 3)  # (Z/27)^*
        for k in (2, 3, 5, 6, 9, 13):
            all_found = all(
                finite_root(PadicApproxMatrix(ctx, 3, x), k).status == FOUND
                for x in table.elements)
            assert all_found == (gcd(k, table.order) == 1)


@st.composite
def seed_targets(draw):
    """(t, k, p): t invertible mod p, half of them k-th powers, for n <= 2
    at p in {2, 3, 5} and n = 3 at p = 2."""
    n, p = draw(st.sampled_from([(1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (2, 5), (3, 2)]))
    k = draw(st.integers(1, 12))
    mats = st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n).map(
        lambda e: tuple(tuple(e[i * n:(i + 1) * n]) for i in range(n)))
    t = draw(mats.filter(lambda m: modmat.invertible_mod(m, p)))
    if draw(st.booleans()):
        t = modmat.mat_pow(t, k, p)
    return t, k, p


@settings(max_examples=60, deadline=None)
@given(case=seed_targets())
def test_centralizer_seeds_are_the_brute_force_seeds_in_order(case):
    t, k, p = case
    brute = [x for x in modmat.all_invertible_mats(len(t), p) if modmat.mat_pow(x, k, p) == t]
    assert _mod_p_roots(t, k, p) == brute


def test_seed_search_past_the_cap_is_inconclusive():
    # the centralizer of the identity is everything: 5^9 > 10^6 candidates
    with pytest.raises(CapExceeded):
        finite_root(PadicApproxMatrix(CTX5, 2, modmat.identity_mat(3)), 2)


def test_finite_root_linearises_once_per_expanded_seed(monkeypatch):
    from ppm import roots as roots_mod
    calls = {"_ad_sum_operator": 0, "mat_inv": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(roots_mod, "_ad_sum_operator")
    counted(modmat, "mat_inv")
    a = ((1, 2), (3, 5))
    ctx = PContext(3, 10)
    res = finite_root(PadicApproxMatrix(ctx, 10, modmat.mat_pow(a, 2, 3 ** 10)), 2)
    assert res.status == FOUND
    # three seeds expanded, one operator each, plus the target's inverse mod p
    assert calls == {"_ad_sum_operator": 3, "mat_inv": 4}


class TestAxb:
    def test_trivial(self):
        r = axb_root((F(1), F(0)), 3, CTX5, 2)
        assert r.status == FOUND
        assert (r.root[0].value, r.root[1].value) == (1, 0)

    def test_worked_example(self):
        r = axb_root((F(6), F(1)), 3, CTX5, 2)
        assert r.status == FOUND
        alpha, beta = r.root
        assert alpha.value == 11
        assert (1 + 11 + 11 ** 2) * beta.value % 25 == 1

    def test_obstruction_surfaces_the_rational_root(self):
        r = axb_root((F(1), F(1)), 5, CTX5, 20)
        assert r.status == OBSTRUCTED
        assert "valuation 1" in r.reason
        assert "Q_p" in r.reason

    def test_divisible_second_coordinate_succeeds_at_reduced_precision(self):
        # same geometric-sum valuation 1, but now v(b) = 1 >= 1
        r = axb_root((F(1), F(5)), 5, CTX5, 6)
        assert r.status == FOUND
        alpha, beta = r.root
        assert alpha.level == 5  # one level spent dividing by the sum
        assert beta.value == 1

    def test_precision_exhausted_branch(self):
        with pytest.raises(PrecisionExhausted):
            axb_root((F(1), F(1)), 2, PContext(2, 6), 6)  # alpha = -1 kills the sum

    def test_no_unit_root(self):
        r = axb_root((F(2), F(0)), 2, PContext(3, 2), 2)
        assert r.status == NO_ROOT  # 2 is not a square mod 3

    def test_rejects_non_units(self):
        with pytest.raises(BadDomain):
            axb_root((F(3), F(1)), 2, CTX3, 3)


def test_a_root_level_above_the_known_level_is_not_claimed():
    """6 is known only mod 5^2; its lifts have different cube roots mod 5^6,
    so no root mod 5^6 may be returned."""
    a = PadicApproxMatrix(CTX5, 2, ((6,),))
    for solve in (congruence_root, finite_root):
        with pytest.raises(PrecisionExhausted):
            solve(a, 3, level=6)
        assert solve(a, 3, level=2).status == FOUND


def test_a_context_with_another_prime_is_refused():
    """4 is known mod 3^2; a context at p = 5 would have the roots read
    mod 3^2 all the same, so it is refused; one at p = 3 is accepted."""
    a = PadicApproxMatrix(CTX3, 2, ((4, 0), (0, 1)))
    for solve in (congruence_root, finite_root):
        with pytest.raises(ValueError, match="p = 3"):
            solve(a, 2, CTX5)
        assert solve(a, 2, PContext(3, 7)).status == FOUND


def test_found_constructor_is_only_reachable_verified(monkeypatch):
    # powering checks guard every found path; forcing a wrong root must raise
    from ppm.errors import InternalInvariantViolation
    from ppm import roots as roots_mod
    real_pow = modmat.mat_pow

    def corrupted(a, e, mod):
        out = real_pow(a, e, mod)
        return tuple(tuple((x + 1) % mod for x in row) for row in out)

    monkeypatch.setattr(roots_mod.modmat, "mat_pow", corrupted)
    ctx = PContext(5, 3)
    with pytest.raises(InternalInvariantViolation):
        congruence_root(PadicApproxMatrix(ctx, 3, ((6,),)), 3)


def test_a_non_positive_level_is_rejected():
    # level 0 used to pass as "singular mod p", level -1 as a pow() TypeError,
    # and finite_root at level <= 0 never returned: its lift never reaches it
    for level in (0, -1):
        with pytest.raises(ValueError, match="level must be >= 1"):
            PadicApproxMatrix(CTX3, level, ((2,),))
    a = PadicApproxMatrix(CTX3, 3, ((4,),))
    for solve in (congruence_root, finite_root):
        for level in (0, -1):
            with pytest.raises(ValueError, match="level must be >= 1"):
                solve(a, 1, level=level)
            with pytest.raises(ValueError, match="level must be >= 1"):
                solve(((4,),), 1, CTX3, level)


@pytest.mark.parametrize("entries", [((1, 0), (0, 1), (0, 0)), ((),), (), ((1, 2), (3,))],
                         ids=["three-by-two", "one-by-zero", "empty", "ragged"])
def test_residue_entries_that_are_not_square_are_rejected(entries):
    # the first two passed as "invertible mod p", the last two raised IndexError
    with pytest.raises(ValueError, match="square and non-empty"):
        PadicApproxMatrix(CTX3, 2, entries)


def test_residue_entries_that_are_not_integers_are_rejected():
    # 7/2 = 16 mod 25 was truncated to 3
    for entry in (F(7, 2), 3.0, True, F(3)):
        with pytest.raises(ValueError, match="integer"):
            PadicApproxMatrix(CTX5, 2, ((entry,),))
        with pytest.raises(ValueError, match="integer"):
            congruence_root(((entry,),), 1, CTX5, 2)


def test_axb_root_powers_in_logarithmic_time():
    # a k-step geometric sum never finished at this k
    k, p, level = 2 ** 61 - 1, 5, 10
    mod = p ** level
    res = axb_root((2, 1), k, CTX5, level)
    assert res.status == FOUND
    alpha, beta = res.root[0].value, res.root[1].value
    assert pow(alpha, k, mod) == 2
    assert (alpha - 1) % p  # a unit, so the geometric sum has the closed form
    geometric_sum = (pow(alpha, k, mod) - 1) * pow(alpha - 1, -1, mod) % mod
    assert geometric_sum * beta % mod == 1


def test_finite_root_sums_the_ad_powers_in_logarithmic_time():
    # the Ad-sum operator used to take k - 1 products: this call never returned
    k, p, level = 2 ** 61 - 1, 5, 2
    res = finite_root(((2,),), k, PContext(p), level)
    assert res.status == FOUND
    assert pow(res.root.entries[0][0], k, p ** level) == 2


def test_axb_root_past_the_seed_cap_is_inconclusive(tmp_path):
    # the unit part's seeds are all 1,000,003 residues: past the seed cap,
    # where a plain scan of every residue used to run unbounded in p
    from ppm.cli import EXIT_INCONCLUSIVE, main
    with pytest.raises(CapExceeded):
        axb_root((2, 1), 3, PContext(1_000_003), 2)
    axb = tmp_path / "axb.json"
    axb.write_text('{"p": 1000003, "a": "2", "b": "1"}')
    assert main(["root", "--kind", "axb", "-k", "3", "--level", "2",
                 str(axb)]) == EXIT_INCONCLUSIVE


@st.composite
def unit_targets(draw):
    """(a, k, p, m): a a unit mod p^m, p in {2, 3, 5}, m <= 4, k <= 12, so p | k
    comes up; half of them k-th powers."""
    p, m, k = draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 4)), draw(st.integers(1, 12))
    a = draw(st.integers(1, p ** m - 1).filter(lambda x: x % p))
    return (pow(a, k, p ** m) if draw(st.booleans()) else a), k, p, m


@settings(max_examples=150, deadline=None)
@given(case=unit_targets())
def test_axb_root_tries_every_unit_root_in_ascending_order(case):
    from ppm import roots as roots_mod
    a, k, p, m = case
    mod = p ** m
    brute = [x for x in range(mod) if x % p and pow(x, k, mod) == a]
    tried = []

    def recording(alpha, beta, k, mod):
        tried.append(alpha)
        return pow(alpha, k, mod), 0  # a vanishing geometric sum: go to the next root

    real, roots_mod._affine_power = roots_mod._affine_power, recording
    try:
        assert axb_root((a, 0), k, PContext(p), m).status == NO_ROOT
    except PrecisionExhausted:  # raised after the last root, when there was one
        assert brute
    finally:
        roots_mod._affine_power = real
    assert tried == brute


def test_a_level_below_the_known_level_reduces_the_target():
    # 19 is known mod 3^3; mod 3^2 it is 1, whose square roots are +-1. The
    # target used to be compared unreduced, so the powering check failed
    a = PadicApproxMatrix(CTX3, 3, ((19,),))
    for solve in (congruence_root, finite_root):
        res = solve(a, 2, level=2)
        assert res.status == FOUND and res.root.level == 2
        assert modmat.mat_pow(res.root.entries, 2, 9) == ((1,),)


def test_the_lift_search_reduces_each_seed_operator_once(monkeypatch):
    # every lift node re-reduced [operator | rhs]; now the node only applies
    # the row operations recorded when the seed's operator was reduced
    from ppm import roots as roots_mod
    calls = {"_row_reduced": 0, "_solutions": 0}

    def counted(name):
        real = getattr(roots_mod, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(roots_mod, name, wrapper)

    counted("_row_reduced")
    counted("_solutions")
    a = ((1, 2), (3, 5))
    ctx = PContext(3, 10)
    res = finite_root(PadicApproxMatrix(ctx, 10, modmat.mat_pow(a, 2, 3 ** 10)), 2)
    assert res.status == FOUND
    # the centralizer system once, then one operator per expanded seed (three)
    assert calls["_row_reduced"] == 4
    assert calls["_solutions"] > 10
