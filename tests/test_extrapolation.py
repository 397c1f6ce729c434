import random
import time
from fractions import Fraction

import pytest
import sympy as sp

from corpus import range_tuples
from extrapkit.errors import DomainError, Infeasible
from extrapkit.exponents import INF, Exponent, harmonic_sum, rec
from extrapkit.extrapolation import (
    Case,
    ExtrapolationRange,
    case_select,
    dual_range,
    multilinear_plan,
    proof_exponents,
    target_exponent,
)


# -- symbolic substitution oracle -------------------------------------------
#
# Recomputes every proof exponent from the *first* displayed form of each
# definition (ratio/conjugate route) in sympy rationals, independently of the
# implementation's reciprocal-difference route.


def _conj(r):
    if r == sp.oo:
        return sp.Integer(1)
    return sp.oo if r == 1 else r / (r - 1)


def oracle_exponents(pm, pp, p0, q0, p):
    pm, p0, q0, p = map(sp.Rational, (pm, p0, q0, p))
    pp = sp.oo if pp is None else sp.Rational(pp)
    q = 1 / (1 / p - (1 / p0 - 1 / q0))
    tau = _conj(pp / p) * (p / pm - 1) + 1
    tau_p = tau / (tau - 1)
    s = q0 - (q0 / p0) * (q / tau) * (p0 / pm - 1)
    alpha = 0 if s == q0 else s / _conj(q0 / s)
    phi = sp.oo if s == q else _conj(q / s) * q0 / p0
    delta = q / tau
    eps = (q - p * _conj(pp / p)) / tau
    sigma = p * (_conj(p / pm) - 1)
    beta = sp.oo if s == q else _conj(q / s) / tau_p
    gamma = (sigma + q) / tau_p
    return dict(
        q=q, tau=tau, tau_prime=tau_p, s=s, alpha=alpha, phi=phi,
        delta=delta, epsilon=eps, sigma=sigma, beta=beta, gamma=gamma,
    )


def _assert_matches_oracle(rng, p, pe):
    pp = None if rng.p_plus.is_inf else rng.p_plus.frac
    orc = oracle_exponents(rng.p_minus.frac, pp, rng.p0.frac, rng.q0.frac, p.frac)
    for name, mine in (
        ("q", pe.q), ("tau", pe.tau), ("tau_prime", pe.tau_prime), ("s", pe.s),
        ("alpha", pe.alpha), ("delta", pe.delta), ("epsilon", pe.epsilon),
        ("sigma", pe.sigma), ("gamma", pe.gamma),
    ):
        assert sp.Rational(mine) == orc[name], (name, mine, orc[name])
    for name, mine in (("phi", pe.phi), ("beta", pe.beta)):
        if mine.is_inf:
            assert orc[name] == sp.oo, name
        else:
            assert sp.Rational(mine.frac) == orc[name], name


# -- range basics -------------------------------------------------------------


def test_range_validity_examples():
    ExtrapolationRange(1, 4, 2, 3)  # 1/3 - 1/2 + 1/4 = 1/12 >= 0
    with pytest.raises(Infeasible, match="validity failed"):
        ExtrapolationRange(1, 3, 2, 12)  # 1/12 - 1/2 + 1/3 = -1/12


def test_range_ordering_enforced():
    with pytest.raises(Infeasible, match=r"need p_- <= p0 <= p_\+"):
        ExtrapolationRange(3, 2, Fraction(5, 2), 2)
    with pytest.raises(Infeasible, match=r"need p_- < p_\+"):
        ExtrapolationRange(1, 1, 1, 1)  # p_- < p_+ strict


def test_dual_range_diagonal():
    rng = ExtrapolationRange(Fraction(3, 2), 7, 2, 2)
    assert dual_range(rng) == (Exponent(Fraction(3, 2)), Exponent(7))


def test_dual_range_shifted():
    rng = ExtrapolationRange(1, 2, 2, 3)
    qm, qp = dual_range(rng)
    assert rng.shift == Fraction(1, 6)
    assert qm == Exponent(Fraction(6, 5))
    assert qp == Exponent(3)


def test_target_exponent_substitution():
    rng = ExtrapolationRange(1, 2, 2, 3)
    assert target_exponent(Fraction(3, 2), rng) == Exponent(2)


def test_target_exponent_diagonal_identity():
    rng = ExtrapolationRange(1, INF, 2, 2)
    for p in (Fraction(5, 4), 2, 17):
        assert target_exponent(p, rng) == Exponent(p)


def test_target_exponent_boundary_rejected():
    rng = ExtrapolationRange(1, 2, 2, 3)
    for bad in (1, 2, Fraction(1, 2), 5):
        with pytest.raises(Infeasible, match="is not inside"):
            target_exponent(bad, rng)


def test_case_select():
    assert case_select(ExtrapolationRange(1, INF, 2, 2)) is Case.I
    assert case_select(ExtrapolationRange(1, INF, 1, 1)) is Case.II
    assert case_select(ExtrapolationRange(1, 3, 3, 3)) is Case.III
    assert case_select(ExtrapolationRange(0, 1, 1, 1)) is Case.IV
    # p_- = 0 wins even when p0 sits at an endpoint
    assert case_select(ExtrapolationRange(0, 2, 2, 2)) is Case.IV


def test_case4_needs_reduction():
    rng = ExtrapolationRange(0, 2, 1, 1)
    with pytest.raises(DomainError, match="Case IV"):
        proof_exponents(rng, 1)


# -- proof exponents -----------------------------------------------------------


def test_hand_worked_case1():
    rng = ExtrapolationRange(1, INF, 2, 2)
    pe = proof_exponents(rng, 3)
    assert pe.case is Case.I
    assert (pe.tau, pe.tau_prime, pe.s) == (3, Fraction(3, 2), 1)
    assert (pe.alpha, pe.phi) == (Fraction(1, 2), Exponent(Fraction(3, 2)))
    assert (pe.delta, pe.epsilon) == (1, 0)
    assert (pe.sigma, pe.beta, pe.gamma) == (Fraction(3, 2), Exponent(1), 3)
    _assert_matches_oracle(rng, Exponent(3), pe)


def test_case2_s_equals_q0():
    rng = ExtrapolationRange(1, 8, 1, Fraction(9, 8))
    pe = proof_exponents(rng, 2)
    assert pe.case is Case.II
    assert pe.s == Fraction(9, 8)
    assert pe.alpha == 0
    _assert_matches_oracle(rng, Exponent(2), pe)


def test_case3_s_equals_q():
    rng = ExtrapolationRange(1, 4, 4, 4)
    p = Exponent(2)
    pe = proof_exponents(rng, p)
    assert pe.case is Case.III
    assert pe.s == pe.q
    assert pe.phi.is_inf and pe.beta.is_inf
    _assert_matches_oracle(rng, p, pe)


def corpus_1000():
    return range_tuples(515151, 1000)


def test_identities_exact_on_corpus():
    tuples = corpus_1000()
    cases = set()
    t0 = time.monotonic()
    for rng, p in tuples:
        pe = proof_exponents(rng, p)
        cases.add(pe.case)
        assert {"exp1", "exp2", "exp3", "s1=s2"} <= set(pe.certified)
        # definitional round-trips, exact
        assert pe.delta * pe.tau == pe.q
        assert pe.gamma * pe.tau_prime == pe.sigma + pe.q
        cpp = Fraction(1) if rng.p_plus.is_inf else (
            (rng.p_plus.frac / p.frac) / (rng.p_plus.frac / p.frac - 1)
        )
        assert pe.epsilon * pe.tau == pe.q - p.frac * cpp
        if not pe.beta.is_inf:
            qs_conj = (pe.q / pe.s) / (pe.q / pe.s - 1)
            assert pe.beta.frac * pe.tau_prime == qs_conj
    elapsed = time.monotonic() - t0
    assert cases == {Case.I, Case.II, Case.III}
    assert elapsed < 5.0


def test_structural_claims_on_corpus():
    for rng, p in corpus_1000():
        pe = proof_exponents(rng, p)
        assert 0 < pe.s <= min(pe.q, rng.q0.frac)
        if pe.case is Case.I:
            assert pe.s < min(pe.q, rng.q0.frac)
            assert pe.phi > 1
        elif pe.case is Case.II:
            assert pe.s == rng.q0.frac
        else:
            assert pe.s == pe.q


def test_oracle_agreement_on_sample():
    # the sympy route and the implementation agree on a 60-tuple sample
    for rng, p in range_tuples(77, 60):
        pe = proof_exponents(rng, p)
        _assert_matches_oracle(rng, p, pe)


def test_dual_target_consistency_on_corpus():
    for rng, p in range_tuples(31337, 300):
        qm, qp = dual_range(rng)
        q = target_exponent(p, rng)
        assert qm < q < qp


# -- multilinear reduction ------------------------------------------------------


def test_multilinear_single_coordinate_is_target():
    steps = multilinear_plan([2], [1], [INF], [3])
    rng = ExtrapolationRange(1, INF, 2, 2)
    assert steps[0].aggregate_out == target_exponent(3, rng)


def test_multilinear_two_coordinate_example():
    steps = multilinear_plan(
        [4, 4], [Fraction(8, 5)] * 2, [8] * 2, [2, 2]
    )
    assert len(steps) == 2
    assert steps[0].range.q0 == Exponent(2)
    assert steps[1].aggregate_out == Exponent(1)
    # every intermediate range passed validity: 1/agg - 1/p_j + 1/r_j^+ >= 0
    for s in steps:
        assert rec(s.range.q0) - rec(s.range.p0) + rec(s.range.p_plus) >= 0


def test_multilinear_boundary_target_invalid():
    with pytest.raises(DomainError, match=r"step 0: p=8/5 is not inside \(8/5, 8\)"):
        multilinear_plan([4, 4], [Fraction(8, 5)] * 2, [8] * 2, [Fraction(8, 5), 2])


def test_multilinear_final_aggregate_matches_harmonic_sum():
    rnd = random.Random(5)
    for _ in range(50):
        m = rnd.randint(1, 4)
        pjs = [Exponent(1 + Fraction(rnd.randint(1, 16), 8)) for _ in range(m)]
        qjs = [Exponent(1 + Fraction(rnd.randint(1, 16), 8)) for _ in range(m)]
        steps = multilinear_plan(pjs, [1] * m, [INF] * m, qjs)
        assert steps[-1].aggregate_out == harmonic_sum(qjs)


def test_multilinear_order_independent_feasibility():
    # the coordinate order is fixed 1..m, but feasibility and the final
    # aggregate are order-independent
    pjs = [3, 4]
    qjs = [2, 5]
    fwd = multilinear_plan(pjs, [1, 1], [INF, INF], qjs)
    rev = multilinear_plan(pjs[::-1], [1, 1], [INF, INF], qjs[::-1])
    assert fwd[-1].aggregate_out == rev[-1].aggregate_out


def test_dual_range_maps_p_minus_zero_to_zero():
    # 1/0 has no reciprocal: p_- = 0 gives q_- = 0 directly; q_+ = 1/(1/4 + 1/4)
    assert dual_range(ExtrapolationRange(0, 4, 4, 2)) == (0, 2)


def test_linear_step_reads_its_base_pair_from_its_range():
    # step j's range has base pair (p_j, aggregate in): (4, 2), then (4, (1/2 + 1/4)^-1)
    steps = multilinear_plan([4, 4], [Fraction(8, 5)] * 2, [8] * 2, [2, 2])
    assert [(s.range.p0, s.range.q0) for s in steps] == [(4, 2), (4, Fraction(4, 3))]
    for s in steps:
        d = s.as_dict()
        assert list(d) == ["index", "p_minus", "p_plus", "base", "target", "aggregate_in",
                           "aggregate_out", "q_minus", "q_plus"]
        assert (d["base"], d["aggregate_in"]) == (s.range.p0, s.range.q0)
