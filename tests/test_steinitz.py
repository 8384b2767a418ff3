import pytest
from hypothesis import given, strategies as st

from ppm.errors import UnknownCatalogEntry
from ppm.qpcore import INFINITY
from ppm.steinitz import Supernatural, coprime, general_linear_order, lcm, ord_catalog, \
    parse_supernatural, profinite_surjective

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def sn(finite=(), infinite=()):
    return Supernatural(tuple(finite), tuple(infinite))


@st.composite
def supernaturals(draw):
    infinite = draw(st.sets(st.sampled_from(SMALL_PRIMES), max_size=2))
    finite = draw(st.dictionaries(st.sampled_from(SMALL_PRIMES), st.integers(1, 8),
                                  max_size=3))
    return sn(tuple((p, e) for p, e in finite.items() if p not in infinite),
              tuple(infinite))


def test_lcm_examples():
    a = sn([(3, 1)], [2])           # 2^inf * 3
    b = sn([(2, 1), (3, 2)])        # 2 * 3^2
    assert lcm(a, b) == sn([(3, 2)], [2])
    assert lcm(Supernatural.one(), a) == a
    assert lcm(sn([(2, 2)], [5]), sn([(3, 1)])) == sn([(2, 2), (3, 1)], [5])


@given(a=supernaturals(), b=supernaturals(), c=supernaturals())
def test_lcm_laws(a, b, c):
    assert lcm(a, b) == lcm(b, a)
    assert lcm(a, a) == a
    assert lcm(lcm(a, b), c) == lcm(a, lcm(b, c))


@given(a=supernaturals(), b=supernaturals(), k=st.integers(1, 400))
def test_coprime_against_lcm(a, b, k):
    assert coprime(k, lcm(a, b)) == (coprime(k, a) and coprime(k, b))


def test_coprime_examples():
    n = sn([(2, 4)], [3])
    assert coprime(5, n)
    assert not coprime(6, n)
    assert coprime(1, n)
    with pytest.raises(ValueError):
        coprime(0, n)


def test_a_prime_cannot_be_finite_and_infinite():
    with pytest.raises(ValueError):
        Supernatural(((2, 3),), (2,))


def test_printing_and_parsing():
    n = sn([(2, 4), (5, 1)], [3])
    assert str(n) == "2^4 · 3^inf · 5"
    assert parse_supernatural(str(n)) == n
    assert parse_supernatural("1") == Supernatural.one()
    assert str(Supernatural.one()) == "1"
    assert parse_supernatural("2^inf * 7") == sn([(7, 1)], [2])


def test_multiplication_absorbs_into_infinity():
    assert sn([(3, 1)], []) * sn([], [3]) == sn([], [3])
    assert 48 * sn([], [3]) == sn([(2, 4)], [3])


def test_ord_catalog_examples():
    assert general_linear_order(2, 3) == 48
    assert ord_catalog("GLn_Zp", 3, n=2) == sn([(2, 4)], [3])
    assert ord_catalog("UnitsZp", 5) == sn([(2, 2)], [5])
    assert ord_catalog("UnitsZp", 2) == sn([], [2])  # Z/2 x Z_2, the even-prime trap
    assert ord_catalog("AdditiveZp", 2) == sn([], [2])
    assert ord_catalog("PrincipalCongruence", 7, n=3) == sn([], [7])
    with pytest.raises(UnknownCatalogEntry):
        ord_catalog("Sporadic", 3)


def test_open_subgroup_order_law():
    # Ord(K) = [K : L] * Ord(L) for the principal congruence subgroup of
    # level m inside GL(n, Z_p), and for 1 + pZ_p inside the units; the
    # subgroup's pro-order is the same at every level m
    for p in (2, 3, 5):
        for n in (1, 2):
            for m in (1, 2, 3):
                k_ord = ord_catalog("GLn_Zp", p, n=n)
                l_ord = ord_catalog("PrincipalCongruence", p, n=n)
                index = general_linear_order(n, p) * p ** (n * n * (m - 1))
                assert index * l_ord == k_ord
    for p in (3, 5):
        assert (p - 1) * ord_catalog("PrincipalCongruence", p) == ord_catalog("UnitsZp", p)
    assert 2 * ord_catalog("PrincipalCongruence", 2) == ord_catalog("UnitsZp", 2)


def test_profinite_surjective_examples():
    assert profinite_surjective(5, ord_catalog("UnitsZp", 3))
    assert not profinite_surjective(3, ord_catalog("AdditiveZp", 3))
    assert profinite_surjective(1, sn([(2, 4)], [3, 5]))


def test_divides():
    assert sn([(2, 1)]).divides(sn([(2, 4)], [3]))
    assert sn([(2, 1)], [3]).divides(sn([], [2, 3]))
    assert not sn([], [2]).divides(sn([(2, 10)]))
    assert not sn([(7, 1)]).divides(sn([(2, 4)], [3]))


def test_a_repeated_prime_multiplies():
    assert parse_supernatural("3 · 3") == sn([(3, 2)])
    assert str(parse_supernatural("2^2 * 3 * 2")) == "2^3 · 3"
    assert parse_supernatural("3 · 3^inf") == sn([], [3])
    assert Supernatural(((3, 1), (3, 1))) == sn([(3, 2)])


def test_ord_catalog_rejects_a_dimension_below_one():
    for name in ("GLn_Zp", "UnitsZp", "AdditiveZp", "PrincipalCongruence"):
        for n in (0, -1):
            with pytest.raises(ValueError):
                ord_catalog(name, 3, n=n)


def test_ord_catalog_rejects_a_dimension_for_the_groups_that_take_none():
    # UnitsZp(2) is an input error in the analyzer, yet ord_catalog answered
    for name in ("UnitsZp", "AdditiveZp"):
        for n in (2, 5):
            with pytest.raises(ValueError, match="does not take a dimension"):
                ord_catalog(name, 3, n=n)


@given(a=supernaturals(), b=supernaturals(), c=supernaturals())
def test_product_and_lcm_laws(a, b, c):
    assert a.divides(lcm(a, b)) and b.divides(lcm(a, b))
    assert a.divides(a * b) and b.divides(a * b)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert lcm(a, b).divides(a * b)


@given(a=supernaturals())
def test_text_round_trip_and_infinite_exponents(a):
    assert parse_supernatural(str(a)) == a
    for p in a.primes():
        e = a.exponent(p)
        assert (e is INFINITY) == (f"{p}^inf" in str(a).split(" · "))
        assert e is INFINITY or (isinstance(e, int) and e >= 1)
    assert a.exponent(17) == 0
