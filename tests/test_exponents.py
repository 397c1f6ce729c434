import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from extrapkit.errors import DomainError
from extrapkit.exponents import (
    INF,
    Exponent,
    WeightClassSpec,
    as_exponent,
    conjugate_ratio,
    exp_str,
    from_rec,
    harmonic_sum,
    rec,
)

positive_exponents = st.fractions(min_value=Fraction(1, 50), max_value=100).map(Exponent)


def test_conjugate_endpoints():
    assert conjugate_ratio(1, 1) == INF
    assert conjugate_ratio(INF, 1) == Exponent(1)
    assert conjugate_ratio(2, 1) == Exponent(2)
    assert conjugate_ratio(Fraction(4, 3), 1) == Exponent(4)


def test_conjugate_rejects_below_one():
    with pytest.raises(DomainError):
        conjugate_ratio(Fraction(1, 2), 1)


def test_conjugate_ratio_endpoints():
    assert conjugate_ratio(INF, Fraction(3, 2)) == Exponent(1)  # (inf/p)' = 1
    assert conjugate_ratio(Fraction(7, 3), Fraction(7, 3)) == INF  # (a/a)' = inf
    assert conjugate_ratio(4, 2) == Exponent(2)


@pytest.mark.parametrize("a, b", [(2, 3), (Fraction(3, 2), INF), (2, 0)])
def test_conjugate_ratio_needs_a_ge_b_gt_0(a, b):
    with pytest.raises(DomainError):
        conjugate_ratio(a, b)


def test_conjugate_ratio_matches_conjugate_of_the_ratio():
    rnd = random.Random(20261019)
    for _ in range(500):
        b = Fraction(rnd.randint(1, 400), rnd.randint(1, 40))
        a = b + Fraction(rnd.randint(1, 400), rnd.randint(1, 40))
        assert conjugate_ratio(a, b) == conjugate_ratio(Exponent(a / b), 1)


def test_harmonic_sum_examples():
    assert harmonic_sum([2, 2]) == Exponent(1)
    assert harmonic_sum([INF, 3]) == Exponent(3)
    assert harmonic_sum([4, 4]) == Exponent(2)


def test_harmonic_sum_rejects_zero():
    with pytest.raises(DomainError):
        harmonic_sum([2, 0])


def test_reciprocal_convention():
    # 1/inf = 0 and 1/0 = inf, through the reciprocal form
    assert rec(INF) == 0
    assert from_rec(Fraction(0)) == INF
    assert rec(Exponent(Fraction(3, 2))) == Fraction(2, 3)


def test_negative_rejected_at_boundary():
    with pytest.raises(DomainError):
        Exponent(Fraction(-1, 2))
    with pytest.raises(DomainError):
        Exponent("-3/2")


def test_parse_and_str_roundtrip():
    for text in ("inf", "2", "3/2", "0", "17/12"):
        assert str(Exponent(text)) == text
    with pytest.raises(DomainError):
        Exponent("2.5")
    with pytest.raises(DomainError):
        Exponent("1e3")
    with pytest.raises(DomainError):  # was a bare ZeroDivisionError
        Exponent("1/0")


def test_exp_str_signed_fraction():
    assert exp_str(Fraction(-1, 6)) == "-1/6"
    assert exp_str(INF) == "inf"


def test_arithmetic_conventions():
    # Exponent is a pure value type: quotients are Fractions through rec
    with pytest.raises(TypeError):
        Exponent(3) / INF
    assert 3 * rec(INF) == 0  # 3/inf = 0
    with pytest.raises(DomainError):  # 1/0 = inf is an exponent, not a reciprocal
        rec(Exponent(0))


def test_ordering_total_with_inf_max():
    vals = [Exponent(0), Exponent(Fraction(1, 3)), Exponent(1), Exponent(7), INF]
    assert sorted(vals, key=lambda e: (e.is_inf, e._num)) == vals
    assert all(v <= INF for v in vals)
    assert INF > 10**9


COMPARISONS = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)
plain_values = st.one_of(st.integers(-3, 30), st.fractions(min_value=-3, max_value=30, max_denominator=12))
exponent_values = st.one_of(st.just(INF), st.fractions(min_value=0, max_value=30, max_denominator=12).map(Exponent))


def _order_key(x) -> tuple:
    """Infinity above every finite value, finite values by their value."""
    if isinstance(x, Exponent):
        return (True, 0) if x.is_inf else (False, x.frac)
    return (False, Fraction(x))


@given(exponent_values, st.one_of(exponent_values, plain_values), st.booleans())
def test_ordering_follows_inf_then_value(e, other, swap):
    a, b = (other, e) if swap else (e, other)
    for op in COMPARISONS:
        assert op(a, b) == op(_order_key(a), _order_key(b)), (op.__name__, a, b)
    # a string is not an exponent: never equal, and never ordered
    assert e != "2" and "2" != e and not e == "2"
    for op in COMPARISONS[2:]:
        with pytest.raises(TypeError):
            op(e, "2")
        with pytest.raises(TypeError):
            op("2", e)


def test_seeded_conjugate_identity_corpus():
    # 1/p + 1/p' = 1 exactly on 1000 seeded rationals in (1, inf)
    rnd = random.Random(20240601)
    for _ in range(1000):
        p = Exponent(1 + Fraction(rnd.randint(1, 400), rnd.randint(1, 40)))
        pp = conjugate_ratio(p, 1)
        assert rec(p) + rec(pp) == 1
        assert conjugate_ratio(pp, 1) == p


@given(positive_exponents, positive_exponents, positive_exponents)
def test_harmonic_sum_commutes_and_associates(a, b, c):
    assert harmonic_sum([a, b]) == harmonic_sum([b, a])
    assert harmonic_sum([harmonic_sum([a, b]), c]) == harmonic_sum([a, b, c])


@given(st.fractions(min_value=Fraction(1, 100), max_value=100))
def test_reciprocal_form_roundtrip(v):
    r = rec(Exponent(v))
    assert from_rec(r) == Exponent(v)
    assert rec(from_rec(r)) == r


def test_reciprocal_form_negative_rejected():
    with pytest.raises(DomainError):
        from_rec(Fraction(-1, 2))


# -- the limited-range class rule ---------------------------------------------


@given(st.fractions(min_value=Fraction(1, 20), max_value=20), st.integers(1, 40), st.integers(1, 40))
def test_for_range_is_q_over_r_minus_and_conjugate_of_r_plus_over_q(q, lo, hi):
    r_minus, r_plus = q * Fraction(lo, lo + 1), q * Fraction(hi + 1, hi)
    spec = WeightClassSpec.for_range(Exponent(q), Exponent(r_minus), Exponent(r_plus))
    assert spec == WeightClassSpec(Exponent(q / r_minus), Exponent(r_plus / (r_plus - q)))


def test_for_range_edges():
    assert WeightClassSpec.for_range(3, 2, INF) == WeightClassSpec(Exponent(Fraction(3, 2)), Exponent(1))  # RH_1
    assert WeightClassSpec.for_range(2, 2, 8) == WeightClassSpec(Exponent(1), Exponent(Fraction(4, 3)))  # A_1
    assert WeightClassSpec.for_range(4, 1, 4) == WeightClassSpec(Exponent(4), INF)  # q = r_+ gives RH_inf


@pytest.mark.parametrize("q, r_minus, r_plus", [(5, 2, 4), (2, 3, 8), (INF, 2, INF), (2, 0, 4)])
def test_for_range_needs_r_minus_le_q_le_r_plus(q, r_minus, r_plus):
    with pytest.raises(DomainError):
        WeightClassSpec.for_range(q, r_minus, r_plus)


@pytest.mark.parametrize("value", [-1, Fraction(-1, 2), "-1/2"], ids=["int", "fraction", "string"])
def test_negative_exponent_names_its_value(value):
    # ints, Fractions and parsed strings share the one sign check
    with pytest.raises(DomainError) as exc:
        Exponent(value)
    assert str(exc.value) == f"exponent must be nonnegative, got {Fraction(value)}"


def test_as_exponent_is_the_one_coercion_of_an_exponent():
    # Exponent builds from an int, a Fraction or a string; an Exponent passes through as_exponent
    with pytest.raises(DomainError, match=r"^cannot build an exponent from Exponent\('inf'\)$"):
        Exponent(INF)
    assert as_exponent(INF) is INF
    assert Exponent(" Infinity ") == INF and Exponent("oo") == INF
