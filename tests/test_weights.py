import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from extrapkit.errors import DomainError
from extrapkit.exponents import INF, Exponent, WeightClassSpec, cjn_index, power_membership
from extrapkit.grid import Grid
from extrapkit.weights import GridWeight, PowerWeight, estimate_class_constants

GRID = Grid(8.0, 2**12)


# -- index transform ---------------------------------------------------------


def test_cjn_index_examples():
    assert cjn_index(5, 1) == Exponent(5)  # s = 1 identity
    assert cjn_index(1, 7) == Exponent(1)  # p = 1 stays A_1
    t = Fraction(7, 3)
    assert cjn_index(Fraction(1 + t, 2), 2) == Exponent(t)


def test_cjn_index_domain():
    with pytest.raises(DomainError):
        cjn_index(Fraction(1, 2), 2)
    with pytest.raises(DomainError):
        cjn_index(2, INF)


def test_cjn_roundtrip_against_power_closed_forms():
    # v in A_p & RH_s  <=>  v^s in A_{s(p-1)+1}, both sides in closed form
    rnd = random.Random(911)
    checked = 0
    while checked < 1000:
        p = 1 + Fraction(rnd.randint(0, 40), 8)
        s = 1 + Fraction(rnd.randint(0, 24), 8)
        alpha = Fraction(rnd.randint(-40, 40), 16)
        q = cjn_index(p, s)
        lhs = power_membership(alpha, WeightClassSpec(p, s))[0]
        # closed form for |x|^{alpha*s} in A_q
        a_s = alpha * s.numerator / s.denominator if False else alpha * s
        if q == 1:
            rhs = Fraction(-1) < a_s <= 0
        else:
            rhs = Fraction(-1) < a_s < q.frac - 1
        assert lhs == rhs, (p, s, alpha)
        checked += 1


# -- power weight closed forms ----------------------------------------------


def test_power_in_class_lebesgue():
    assert power_membership(0, WeightClassSpec(2, 2))[0]
    assert power_membership(0, WeightClassSpec(1, INF))[0]


def test_power_in_class_boundaries():
    # RH_2 excludes alpha = -1/2
    assert not power_membership(Fraction(-1, 2), WeightClassSpec(2, 2))[0]
    # A_2 on R is -1 < alpha < 1
    assert power_membership(Fraction(99, 100), WeightClassSpec(2, 1))[0]
    assert not power_membership(1, WeightClassSpec(2, 1))[0]
    # A_1 allows alpha = 0 but not positive
    assert power_membership(0, WeightClassSpec(1, 1))[0]
    assert not power_membership(Fraction(1, 8), WeightClassSpec(1, 1))[0]
    # RH_inf needs alpha >= 0
    assert power_membership(Fraction(1, 8), WeightClassSpec(2, INF))[0]
    assert not power_membership(Fraction(-1, 8), WeightClassSpec(2, INF))[0]


def test_bht_base_window_closed_form():
    # w = |x|^{-a} as w_i^{q_i}: member of A_{max(1, q/2)} & RH_{max(1, 2/q)}
    # iff 1 - max(1, q/2) < a < min(1, q/2)  (a = 0 allowed when max = 1)
    for q in (Fraction(3, 2), Fraction(2), Fraction(3), Fraction(8)):
        spec = WeightClassSpec(
            Exponent(max(Fraction(1), q / 2)),
            Exponent(max(Fraction(1), 2 / q)),
        )
        lo = 1 - max(Fraction(1), q / 2)
        hi = min(Fraction(1), q / 2)
        for num in range(-32, 33):
            a = Fraction(num, 16)
            expected = lo < a < hi or (a == 0)
            got = power_membership(-a, spec)[0]
            if spec.p == 1:
                # A_1 edge: alpha = -a <= 0 allowed, so a = 0 passes
                assert got == (lo < a < hi or a == 0), (q, a)
            else:
                assert got == expected or (a == 0 and got), (q, a)


# -- factorization -----------------------------------------------------------


def test_factorization_power_exponent_algebra():
    # |x|^{a1/s} * |x|^{a2(1-p)} with a1, a2 in the A_1 window lands in A_p & RH_s
    rnd = random.Random(42)
    for _ in range(200):
        a1 = Fraction(-rnd.randint(0, 15), 16)
        a2 = Fraction(-rnd.randint(0, 15), 16)
        p = 1 + Fraction(rnd.randint(0, 24), 8)
        s = 1 + Fraction(rnd.randint(1, 24), 8)
        out_alpha = a1 / s + a2 * (1 - p)
        assert power_membership(out_alpha, WeightClassSpec(p, s))[0], (
            a1, a2, p, s, out_alpha,
        )


# -- constant estimation ------------------------------------------------------


def test_estimate_unit_weight_exact_ones():
    ap, rh = estimate_class_constants(PowerWeight(0).on_grid(GRID), WeightClassSpec(2, 2), 10)[-1]
    assert ap == 1.0 and rh == 1.0
    # constant weight too
    w = GridWeight(np.full(GRID.N, 3.7), GRID)
    ap, rh = estimate_class_constants(w, WeightClassSpec(3, 4), 6)[-1]
    assert ap == pytest.approx(1.0, abs=1e-12)
    assert rh == pytest.approx(1.0, abs=1e-12)


def test_estimate_monotone_in_depth():
    w = PowerWeight(Fraction(1, 4)).on_grid(GRID)
    spec = WeightClassSpec(2, 2)
    prev = (0.0, 0.0)
    for d in range(1, 12):
        cur = estimate_class_constants(w, spec, d)[-1]
        assert cur[0] >= prev[0] and cur[1] >= prev[1]
        prev = cur


def test_estimate_in_range_stability():
    # |x|^{1/4} against (2, 2): successive depth ratios -> 1 within 5%
    w = PowerWeight(Fraction(1, 4)).on_grid(Grid(8.0, 2**14))
    spec = WeightClassSpec(2, 2)
    vals = {d: estimate_class_constants(w, spec, d)[-1] for d in range(6, 13)}
    for d in range(7, 13):
        assert vals[d][0] / vals[d - 1][0] < 1.05
        assert vals[d][1] / vals[d - 1][1] < 1.05


def test_estimate_out_of_range_divergence_rate():
    # |x|^{3/2} against (2, 2) is out of class (alpha >= p-1).  Under the
    # coupled refinement study (depth d on a grid with N = 2^(d+2)) the
    # A_2 functional grows like sqrt(2) per depth: the derived rate
    # 2^(alpha - (p-1)) per halving, i.e. >= 1.35x observed per increment.
    spec = WeightClassSpec(2, 2)
    prev = None
    for d in range(6, 11):
        w = PowerWeight(Fraction(3, 2)).on_grid(Grid(8.0, 2 ** (d + 2)))
        ap, _ = estimate_class_constants(w, spec, d)[-1]
        if prev is not None:
            assert ap / prev >= 1.35, (d, ap / prev)
            assert ap / prev < 1.5  # the rate really is sqrt(2), not more
        prev = ap


def test_estimate_strong_divergence_rate():
    # |x|^2 against (2, 2) doubles per increment (rate 2^(alpha-(p-1)) = 2)
    spec = WeightClassSpec(2, 2)
    prev = None
    for d in range(6, 11):
        w = PowerWeight(Fraction(2)).on_grid(Grid(8.0, 2 ** (d + 2)))
        ap, _ = estimate_class_constants(w, spec, d)[-1]
        if prev is not None:
            assert ap / prev >= 1.5
        prev = ap


def test_estimate_depth_capped_by_grid():
    # depth log2 N puts one sample in each interval; one more halving is an error
    w = PowerWeight(0).on_grid(Grid(8.0, 64))
    assert estimate_class_constants(w, WeightClassSpec(2, 2), 6)[-1] == (1.0, 1.0)
    with pytest.raises(DomainError, match="depth 7 needs at least 2\\^7 samples, got 64"):
        estimate_class_constants(w, WeightClassSpec(2, 2), 7)


# -- grid weight type ---------------------------------------------------------


def test_grid_weight_rejects_nonpositive():
    vals = np.ones(GRID.N)
    vals[3] = 0.0
    with pytest.raises(DomainError):
        GridWeight(vals, GRID)


@given(st.fractions(min_value=Fraction(-3, 4), max_value=2))
def test_power_weight_grid_positive(alpha):
    w = PowerWeight(alpha).on_grid(Grid(4.0, 256))
    assert np.all(w.samples > 0)
