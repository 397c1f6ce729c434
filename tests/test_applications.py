import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from corpus import admissible_q_pairs, admissible_section5_tuples, admissible_vv_tuples
from extrapkit.applications import (
    bht_base_class,
    bht_plan,
    bht_power_range,
    bht_vv_plan,
    bht_vv_power_range,
    mz_plan,
    section5_plan,
    section5_weight_classes,
)
from extrapkit.errors import DomainError, Infeasible
from extrapkit.exponents import INF, Exponent, WeightClassSpec, cjn_index, conjugate_ratio, from_rec, rec

HALF = Fraction(1, 2)


def in_window(pr, a) -> bool:
    """a lies in the PowerRange window {0} u (a_-, a_+)."""
    return (pr.includes_zero and a == 0) or pr.a_minus < a < pr.a_plus


# -- base classes --------------------------------------------------------------


def test_base_class_substitution():
    specs = bht_base_class(4, 4)
    assert specs[0].p == Exponent(Fraction(5, 2)) and specs[0].s == Exponent(2)
    assert specs[1].p == Exponent(Fraction(5, 2)) and specs[1].s == Exponent(2)


def test_base_class_cjn_roundtrip():
    for p in (Fraction(3, 2), 2, 3, Fraction(7, 2)):
        spec, _ = bht_base_class(p, 4)
        assert cjn_index(spec.p, 2) == Exponent(p)


def test_base_class_boundary_infeasible():
    with pytest.raises(Infeasible, match=r"1/p1 \+ 1/p2 = 1 >= 1"):
        bht_base_class(2, 2)


# -- scalar planner --------------------------------------------------------------


def test_plan_q22_reference_values():
    plan = bht_plan(2, 2)
    assert plan.eta1 == plan.eta2 == Fraction(1, 8)
    assert plan.p1 == Exponent(4) and plan.p2 == Exponent(4)
    assert plan.p == Exponent(2)
    assert plan.r_minus == (Exponent(Fraction(8, 5)),) * 2
    assert plan.r_plus == (Exponent(8),) * 2


def test_plan_oracle_q22():
    # independent exact-arithmetic walk of the construction
    q = Fraction(2)
    mx = max(HALF, 1 / q)
    budget = Fraction(3, 2) - 2 * mx
    caps = min(1 / q, 1 - 1 / q)
    eta = min(budget / 2, caps, caps) / 2
    inv_p = 2 * (mx - HALF + eta)
    assert eta == Fraction(1, 8) and inv_p == Fraction(1, 4)
    plan = bht_plan(2, 2)
    assert rec(plan.p1) == inv_p
    assert rec(plan.r_minus[0]) == inv_p / 2 + HALF
    assert rec(plan.r_plus[0]) == inv_p / 2


def test_plan_boundary_infeasible():
    with pytest.raises(Infeasible):
        bht_plan(Fraction(4, 3), Fraction(4, 3))


def test_plan_rejects_endpoint_exponents():
    with pytest.raises(DomainError):
        bht_plan(1, 2)
    with pytest.raises(DomainError):
        bht_plan(INF, 2)


def test_plan_invariants_on_corpus():
    for q1, q2 in admissible_q_pairs(2024, 1000):
        plan = bht_plan(q1, q2)
        assert rec(plan.p1) + rec(plan.p2) < 1
        assert plan.p == Exponent(1 / (rec(plan.p1) + rec(plan.p2)))
        for i, q in enumerate((plan.q1, plan.q2)):
            assert plan.r_minus[i] < q < plan.r_plus[i]
            # equivalent-form index in (1, inf)
            inv_r = 2 * rec(q) - rec((plan.p1, plan.p2)[i])
            assert 0 < inv_r < 1
            assert plan.r_equiv[i] == Exponent(1 / inv_r)
            # class spec consistency
            assert plan.weight_specs[i].p == Exponent(q.frac * rec(plan.r_minus[i]))
            assert plan.weight_specs[i].s == conjugate_ratio(Exponent(plan.r_plus[i].frac / q.frac), 1)


def test_eta_monotone_shrinking_stays_feasible():
    # any eta below the documented choice keeps every constraint satisfied
    for q1, q2 in admissible_q_pairs(99, 100):
        plan = bht_plan(q1, q2)
        for k in (2, 4, 16):
            eta = plan.eta1 / k
            for q in (q1, q2):
                inv_p = 2 * (max(HALF, rec(q)) - HALF + eta)
                assert 0 < inv_p < 1
                assert inv_p / 2 < rec(q) < inv_p / 2 + HALF
            total = sum(2 * (max(HALF, rec(q)) - HALF + eta) for q in (q1, q2))
            assert total < 1


# -- scalar power range --------------------------------------------------------


def test_power_range_q22():
    pr = bht_power_range(2, 2)
    assert pr.a_minus == 0 and pr.a_plus == 1
    assert in_window(pr, 0) and in_window(pr, Fraction(9, 10)) and not in_window(pr, 1)


def test_power_range_small_q():
    d = Fraction(1, 30)
    q = Fraction(4, 3) + d  # 41/30
    pr = bht_power_range(q, q)
    assert pr.a_plus == q / 2 == Fraction(41, 60)


def test_power_range_contains_half_interval_on_corpus():
    for q1, q2 in admissible_q_pairs(7, 1000):
        pr = bht_power_range(q1, q2)
        # the scalar formula, written out apart from the vector-valued one it reuses
        f1, f2 = q1.frac, q2.frac
        want = (1 - min(max(1, f1 / 2), max(1, f2 / 2)), min(1, f1 / 2, f2 / 2))
        assert (pr.a_minus, pr.a_plus) == want
        assert type(pr.a_minus) is Fraction and type(pr.a_plus) is Fraction
        assert pr.a_minus <= 0 < pr.a_plus
        assert pr.a_plus >= HALF  # [0, 1/2) always admissible
        assert in_window(pr, 0) and in_window(pr, Fraction(49, 100))


# -- vector-valued planner --------------------------------------------------------


def test_vv_reduces_to_scalar_bit_exact():
    for q1, q2 in admissible_q_pairs(55, 200):
        scalar = bht_plan(q1, q2)
        vv = bht_vv_plan(q1, q2, q1, q2)
        assert (vv.p1, vv.p2, vv.eta1, vv.eta2) == (
            scalar.p1, scalar.p2, scalar.eta1, scalar.eta2,
        )
        assert vv.r_minus == scalar.r_minus and vv.r_plus == scalar.r_plus
        assert vv.weight_specs == scalar.weight_specs


def test_vv_remark_family_feasible():
    # q1 = s1 = 2, q2 = 2, s2 = t in (1, 2)
    for t in (Fraction(3, 2), Fraction(5, 4), Fraction(15, 8)):
        plan = bht_vv_plan(2, 2, 2, t)
        for i, (q, s) in enumerate(((plan.q1, plan.s1), (plan.q2, plan.s2))):
            assert plan.r_minus[i] < min(q, s)
            assert max(q, s) < plan.r_plus[i]


def test_vv_boundary_infeasible():
    # s2 = 1 itself is outside the open domain (the |1/s - 1/q| = 1/2 edge)
    with pytest.raises(DomainError):
        bht_vv_plan(2, 2, 2, 1)


def test_vv_violated_constraint_named():
    # |1/s2 - 1/q2| = |8/9 - 1/8| = 55/72 >= 1/2 while both aggregates pass
    with pytest.raises(Infeasible) as exc:
        bht_vv_plan(2, 8, 2, Fraction(9, 8))
    assert "|1/s2 - 1/q2|" in str(exc.value)
    # aggregate target sum violation is named too
    with pytest.raises(Infeasible) as exc2:
        bht_vv_plan(8, 8, Fraction(8, 7), Fraction(8, 7))
    assert "3/2" in str(exc2.value)


def test_vv_invariants_on_corpus():
    for q1, q2, s1, s2 in admissible_vv_tuples(31415, 1000):
        plan = bht_vv_plan(q1, q2, s1, s2)
        assert rec(plan.p1) + rec(plan.p2) < 1
        pr = bht_vv_power_range(q1, q2, s1, s2)
        assert pr.a_minus <= 0 < pr.a_plus
        for i, (q, s) in enumerate(((q1, s1), (q2, s2))):
            assert plan.r_minus[i] < min(q, s)
            assert max(q, s) < plan.r_plus[i]


# -- vector-valued power range ------------------------------------------------


def test_vv_power_range_remark_values():
    for t in (Fraction(3, 2), Fraction(5, 4), Fraction(17, 16)):
        pr = bht_vv_power_range(2, 2, 2, t)
        assert pr.a_minus == 0
        assert pr.a_plus == 2 * (1 - 1 / t)


def test_vv_power_range_monitored_limit():
    # a_+ -> 0 as t -> 1+
    widths = [
        bht_vv_power_range(2, 2, 2, 1 + Fraction(1, n)).a_plus for n in (4, 8, 16, 64)
    ]
    assert all(b > c for b, c in zip(widths, widths[1:]))
    assert widths[-1] == 2 * (1 - 1 / (1 + Fraction(1, 64)))


def test_vv_power_range_scalar_degeneration():
    pr = bht_vv_power_range(2, 2, 2, 2)
    assert (pr.a_minus, pr.a_plus) == (0, 1)


# -- three-parameter system -----------------------------------------------------


def test_section5_recovery_reproduces_base_classes():
    for p1, p2 in ((4, 4), (3, 5), (Fraction(7, 2), Fraction(12, 5))):
        specs, r_minus, r_plus, p = section5_weight_classes(
            p1, p2, (HALF, HALF, HALF)
        )
        assert specs == bht_base_class(p1, p2)
        # and the window is the familiar one: r^- = 2p/(1+p), r^+ = 2p
        for i, pi in enumerate((Fraction(p1), Fraction(p2))):
            assert rec(r_plus[i]) == 1 / (2 * pi)
            assert rec(r_minus[i]) == 1 / (2 * pi) + HALF


def test_section5_worked_example():
    g = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    plan = section5_plan(2, 2, 2, 2, *g)
    assert plan.m1 == plan.m2 == HALF
    assert plan.mt1 == plan.mt2 == 2
    assert plan.eta1 == plan.eta2 == HALF
    # reciprocal-midpoint rule on the open interval (2, 8) for p1
    assert plan.p1 == Exponent(Fraction(16, 5))
    assert plan.p2 == Exponent(Fraction(16, 5))
    assert plan.p == Exponent(Fraction(8, 5))
    # theta system, exact
    c1 = plan.theta1 * (1 - rec(plan.p1))
    c2 = plan.theta2 * (1 - rec(plan.p2))
    c3 = plan.theta3 * rec(plan.p)
    assert c1 == c2 == Fraction(3, 8) and c3 == Fraction(1, 4)
    assert c1 + c2 + c3 == 1


def test_section5_gamma_validation():
    with pytest.raises(DomainError, match=r"gamma_1 \+ gamma_2 \+ gamma_3 = 3/2 != 1"):
        section5_plan(2, 2, 2, 2, HALF, HALF, HALF)  # sums to 3/2
    with pytest.raises(DomainError, match=r"gamma_i must lie in \[0, 1\), got 1, 0, 0$"):
        section5_plan(2, 2, 2, 2, 1, 0, 0)  # gamma_1 = 1 excluded
    with pytest.raises(DomainError, match=r"thetas must be three values in \(0,1\), got 1, 1/2, 1/2$"):
        section5_weight_classes(3, 3, [1, HALF, HALF])


def test_section5_strict_boundary_infeasible():
    # gamma3 = 0 and min-sum exactly 1/2: the strict condition fails
    with pytest.raises(Infeasible):
        section5_plan(4, 4, 4, 4, HALF, HALF, 0)


def test_section5_corpus_certifications():
    for tup in admissible_section5_tuples(606, 500):
        plan = section5_plan(*tup)
        assert plan.eta1 + plan.eta2 == 1
        assert 0 < plan.eta1 < 1 and 0 < plan.eta2 < 1
        assert plan.eta1 < plan.mt1 and plan.eta2 < plan.mt2
        c1 = plan.theta1 * (1 - rec(plan.p1))
        c2 = plan.theta2 * (1 - rec(plan.p2))
        c3 = plan.theta3 * rec(plan.p)
        assert c1 <= HALF and c2 <= HALF and c3 <= HALF
        assert c1 + c2 + c3 == 1
        for i, (q, s) in enumerate(((tup[0], tup[2]), (tup[1], tup[3]))):
            assert rec(plan.r_plus[i]) < min(rec(q), rec(s))
            assert max(rec(q), rec(s)) < rec(plan.r_minus[i])
        assert all(0 < t < 1 for t in (plan.theta1, plan.theta2, plan.theta3))
        # the displayed classes w_i^{p_i} in A_{1+(1-theta_i)(p_i-1)} & RH_{1/(1-theta_3)}
        for spec, p, th in zip(plan.weight_specs, (plan.p1, plan.p2), (plan.theta1, plan.theta2)):
            assert spec == WeightClassSpec(Exponent(1 + (1 - th) * (p.frac - 1)), Exponent(1 / (1 - plan.theta3)))


# -- Marcinkiewicz-Zygmund -------------------------------------------------------


def test_mz_classes_are_a_q_and_rh_1():
    rnd = random.Random(38)
    for _ in range(200):
        qs = [from_rec(Fraction(rnd.randint(1, 23), 24)) for _ in range(rnd.randint(1, 4))]
        r = rnd.choice([2, Fraction(rnd.randint(25, 47), 24)])
        specs = mz_plan(qs, r)["data"]["weight_specs"]
        assert specs == [{"ap": q, "rh": Exponent(1)} for q in qs]


def test_mz_plan_valid():
    rep = mz_plan([3, 3], Fraction(3, 2))
    assert rep["feasible"] and not rep["data"]["base_case"]
    assert len(rep["data"]["steps"]) == 2
    assert rep["data"]["aggregate_q"] == Exponent(Fraction(3, 2))
    assert all(sp["ap"] == Exponent(3) for sp in rep["data"]["weight_specs"])


def test_mz_plan_base_case_r2():
    rep = mz_plan([3, 3], 2)
    assert rep["feasible"] and rep["data"]["base_case"]


def test_mz_plan_r_outside_interval():
    with pytest.raises(Infeasible):
        mz_plan([3, 3], Fraction(5, 2))


def test_mz_targets_not_restricted_by_r():
    # q_j above r is fine: the point of the extrapolated version
    rep = mz_plan([8, Fraction(3, 2), 5], Fraction(6, 5))
    assert rep["feasible"] and len(rep["data"]["steps"]) == 3


def test_mz_rejects_bad_targets():
    with pytest.raises(DomainError):
        mz_plan([1, 3], Fraction(3, 2))
    with pytest.raises(DomainError):
        mz_plan([], Fraction(3, 2))


# -- what a planner raises -----------------------------------------------------

# the messages of each planner's input hypotheses; every clause its own
# construction implies is a `require`, so it can only raise CertificationFailed
ENTRY_HYPOTHESES = {
    bht_plan: ("1/q = ",),
    bht_vv_plan: ("1/q = ", "1/s = ", "|1/s", "sum of max{1/q_i, 1/s_i} >= 3/2"),
    section5_plan: ("1/q = ", "1/s = ", "max(1/s", "min-sum <= "),
}


def _sweep_args(rnd, planner):
    def inv():  # a reciprocal in (0, 1); small denominators put ties such as 1/q = 1/2 in
        d = rnd.choice((2, 3, 4, 5, 6, 8, 12, 24, 60, 97))
        return Fraction(rnd.randint(1, d - 1), d)

    if planner is bht_plan:
        return [from_rec(inv()) for _ in range(2)]
    qs = [from_rec(inv()) for _ in range(4)]
    if planner is bht_vv_plan:
        return qs
    d = rnd.choice((2, 3, 4, 8, 16, 60))
    a, b = sorted(rnd.randint(1, d - 1) for _ in range(2))
    return qs + [Fraction(a, d), Fraction(b - a, d), Fraction(d - b, d)]


@pytest.mark.parametrize("planner", list(ENTRY_HYPOTHESES), ids=lambda f: f.__name__)
def test_only_entry_hypotheses_are_infeasible(planner):
    # a seeded sweep over the whole domain: a plan is built or an input
    # hypothesis fails; a CertificationFailed from an implied clause would escape
    rnd, outcomes = random.Random(38), set()
    for _ in range(1500):
        try:
            planner(*_sweep_args(rnd, planner))
            outcomes.add("feasible")
        except Infeasible as e:
            assert str(e).startswith(ENTRY_HYPOTHESES[planner]), str(e)
            outcomes.add("infeasible")
    assert outcomes == {"feasible", "infeasible"}


# -- checks that python -O keeps ---------------------------------------------

_BROKEN_ETA = """
import extrapkit.applications as app
from extrapkit.errors import CertificationFailed

assert False, "assert statements must be stripped in this run"
app._eta_rule = lambda budget, caps: 0
try:
    app.bht_plan(2, 2)
except CertificationFailed as e:
    print("CertificationFailed:", e)
"""


def test_violated_invariant_raises_under_python_O():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-O", "-c", _BROKEN_ETA],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("CertificationFailed: eta = 0 must satisfy")


# -- the 3/2 hypothesis and the Section-5 class system ----------------------------


@pytest.mark.parametrize(
    "planner,args,reason",
    [
        (bht_plan, (Fraction(4, 3), Fraction(4, 3)), "1/q = 3/2 >= 3/2"),
        (bht_vv_plan, (Fraction(6, 5), Fraction(6, 5), Fraction(6, 5), Fraction(6, 5)), "1/q = 5/3 >= 3/2"),
        (bht_vv_plan, (8, 8, Fraction(8, 7), Fraction(8, 7)), "1/s = 7/4 >= 3/2"),
        (section5_plan, (Fraction(6, 5), Fraction(6, 5), 2, 2, *[Fraction(1, 3)] * 3), "1/q = 5/3 >= 3/2"),
        (section5_plan, (2, 2, Fraction(6, 5), Fraction(6, 5), *[Fraction(1, 3)] * 3), "1/s = 5/3 >= 3/2"),
    ],
    ids=["bht-q", "vv-q-first", "vv-s", "section5-q", "section5-s"],
)
def test_three_halves_hypothesis_names_its_sum(planner, args, reason):
    with pytest.raises(Infeasible) as exc:
        planner(*args)
    assert str(exc.value) == reason


def test_three_halves_hypothesis_leads_the_certified_clauses():
    assert bht_plan(2, 2).certified[0] == "1/q-lt-3/2"
    vv = ("1/q-lt-3/2", "1/s-lt-3/2", "|1/s-1/q|-lt-1/2", "sum-max-qs-lt-3/2")
    assert bht_vv_plan(2, 2, 3, 3).certified[:4] == vv
    assert section5_plan(3, 3, 3, 3, *[Fraction(1, 3)] * 3).certified[0] == "aggregate-targets-lt-3/2"


@pytest.mark.parametrize(
    "p,thetas,reason",
    [
        (Fraction(3, 2), (HALF,) * 3, "1/p = 4/3 >= 1"),
        (4, (Fraction(9, 10), HALF, HALF), "a theta_i/p_i' (or theta_3/p) exceeds 1/2"),
        (4, (Fraction(1, 3),) * 3, "theta system sum = 2/3 != 1"),
    ],
    ids=["p-not-above-1", "theta-over-half", "theta-sum"],
)
def test_section5_weight_classes_names_the_failed_condition(p, thetas, reason):
    with pytest.raises(Infeasible) as exc:
        section5_weight_classes(p, p, thetas)
    assert str(exc.value) == reason
