"""Application-level exponent planners for the bilinear Hilbert transform.

Given target exponents, these planners construct the auxiliary base
exponents, the limited ranges and the weight classes under which the
weighted estimates extrapolate, certifying every strict inequality exactly.

Scalar planner.  For targets (q1, q2) with 1/q1 + 1/q2 < 3/2, base
exponents are chosen by

    1/p_i = 2*(max{1/2, 1/q_i} - 1/2 + eta_i),

with eta_i > 0 small enough that eta_1 + eta_2 stays under the budget
3/2 - sum_i max{1/2, 1/q_i} and eta_i < min{1/q_i, 1/q_i'}.  This yields
1/p = 1/p1 + 1/p2 < 1 and r_i^- = 2p_i/(1+p_i) < q_i < 2p_i = r_i^+, with
weight classes w_i^{q_i} in A_{q_i/r_i^-} & RH_{(r_i^+/q_i)'}: the one
limited-range rule :meth:`WeightClassSpec.for_range`, which every planner
here uses.

The existence proof leaves eta free; for reproducibility this module fixes
the canonical choice

    eta_1 = eta_2 = (1/2) * min(budget/2, per-index caps),

which reproduces, e.g., q1 = q2 = 2 -> eta = 1/8, p_i = 4, r^- = 8/5,
r^+ = 8.

Vector-valued planner: same construction with max/min over {1/2, 1/q_i,
1/s_i} and the extra caps 1/s_i, 1/s_i', 1/2 - |1/s_i - 1/q_i|; setting
s_i = q_i reproduces the scalar planner bit for bit.

A plan's power-weight window is :meth:`BHTPlan.power_range`, computed from
the plan in hand.  The generalized three-parameter feasibility system
(gamma/theta) and the Marcinkiewicz-Zygmund reduction are the remaining
entry points.  Each planner raises Infeasible when an input hypothesis
fails and `require`s every clause that its own construction implies; it
records what was certified, and holds its exponents as exact values that
only `reports.to_jsonable` writes as strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, Infeasible, require
from .exponents import (
    INF,
    Exponent,
    ExponentLike,
    WeightClassSpec,
    as_exponent,
    cjn_index,
    from_rec,
    harmonic_sum,
    rec,
)
from .extrapolation import multilinear_plan

__all__ = [
    "BHTPlan",
    "Section5Plan",
    "PowerRange",
    "bht_base_class",
    "bht_plan",
    "bht_power_range",
    "bht_vv_plan",
    "bht_vv_power_range",
    "section5_plan",
    "section5_weight_classes",
    "mz_plan",
]

HALF = Fraction(1, 2)
THREE_HALVES = Fraction(3, 2)


def _window(plan) -> dict:
    """Flat r_i^-, r_i^+ and weight-class index keys of a BHT or Section-5 plan."""
    w1, w2 = plan.weight_specs
    return {
        "r1_minus": plan.r_minus[0],
        "r2_minus": plan.r_minus[1],
        "r1_plus": plan.r_plus[0],
        "r2_plus": plan.r_plus[1],
        "ap_index_1": w1.p,
        "rh_index_1": w1.s,
        "ap_index_2": w2.p,
        "rh_index_2": w2.s,
    }


def _open(**named: ExponentLike) -> list[Exponent]:
    """The named values as exponents, in the order given; DomainError unless each is in (1, inf)."""
    xs = [as_exponent(x) for x in named.values()]
    for name, x in zip(named, xs):
        if x.is_inf or not (x > 1):
            raise DomainError(f"{name} must satisfy 1 < {name} < inf, got {x}")
    return xs


def _below_three_halves(name: str, a: Exponent, b: Exponent) -> None:
    """The paper's hypothesis 1/a + 1/b < 3/2 on a target pair; Infeasible naming 1/`name` otherwise."""
    total = rec(a) + rec(b)
    if not total < THREE_HALVES:
        raise Infeasible(f"1/{name} = {total} >= 3/2")


# --------------------------------------------------------------------------
# scalar planner
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BHTPlan:
    """Certified exponent/weight-class plan for a bilinear estimate."""

    q1: Exponent
    q2: Exponent
    s1: Exponent | None
    s2: Exponent | None
    p1: Exponent
    p2: Exponent
    eta1: Fraction
    eta2: Fraction
    r_minus: tuple[Exponent, Exponent]
    r_plus: tuple[Exponent, Exponent]
    weight_specs: tuple[WeightClassSpec, WeightClassSpec]
    q: Exponent
    p: Exponent
    s: Exponent | None
    r_equiv: tuple[Exponent, Exponent]  # r_i with w_i^{2 r_i} in A_{r_i}
    certified: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            **{k: getattr(self, k) for k in ("q1", "q2", "s1", "s2", "p1", "p2", "eta1", "eta2")},
            **_window(self),
            "q": self.q,
            "p": self.p,
            "s": self.s,
            "r_equiv_1": self.r_equiv[0],
            "r_equiv_2": self.r_equiv[1],
            "certified": list(self.certified),
        }

    def power_range(self) -> PowerRange:
        """Power-weight window of the plan, a in {0} union (a_-, a_+):

            a_- = 1 - min_i max{1, q_i/2, q_i/s_i}
            a_+ = min{1, q_1/2, q_2/2, 1-q_1(1/s_1-1/2), 1-q_2(1/s_2-1/2)}

        A scalar plan is the case s_i = q_i, where the window reads
        1 - min_i max{1, q_i/2} < a < min{1, q_1/2, q_2/2} and contains
        [0, 1/2).  Never empty: each max is at least 1, and each term of
        a_+ is positive once |1/s_i - 1/q_i| < 1/2; a_- <= 0 < a_+ is
        certified.
        """
        fq = [self.q1.frac, self.q2.frac]
        fs = fq if self.s1 is None else [self.s1.frac, self.s2.frac]
        a_minus = 1 - min(max(Fraction(1), q / 2, q / s) for q, s in zip(fq, fs))
        a_plus = min([Fraction(1)] + [q / 2 for q in fq] + [1 - q * (1 / s - HALF) for q, s in zip(fq, fs)])
        require(a_minus <= 0 < a_plus, f"power window: need a_- <= 0 < a_+, got {a_minus}, {a_plus}")
        return PowerRange(a_minus, a_plus)


def bht_base_class(p1: ExponentLike, p2: ExponentLike):
    """Weight classes of the base bilinear estimate: w_i^{p_i} in
    A_{(p_i+1)/2} & RH_2, equivalently w_i^{2 p_i} in A_{p_i}.

    Requires 1 < p_i < inf and 1/p1 + 1/p2 < 1.
    """
    p1, p2 = _open(p1=p1, p2=p2)
    if rec(p1) + rec(p2) >= 1:
        raise Infeasible(f"1/p1 + 1/p2 = {rec(p1) + rec(p2)} >= 1")
    specs = (
        WeightClassSpec(Exponent((p1.frac + 1) / 2), Exponent(2)),
        WeightClassSpec(Exponent((p2.frac + 1) / 2), Exponent(2)),
    )
    require(
        cjn_index(specs[0].p, 2) == p1 and cjn_index(specs[1].p, 2) == p2,
        "index round-trip: the cjn transform must return the plain A index",
    )
    return specs


def _eta_rule(budget: Fraction, caps: list[Fraction]) -> Fraction:
    """Canonical deterministic eta: half the tightest constraint."""
    return min([budget / 2] + caps) / 2


def _build_plan(q1, q2, s1, s2, certified_extra: list[str]) -> BHTPlan:
    """Shared construction on checked exponents; s_i = None means scalar (s_i = q_i)."""
    vv = s1 is not None
    qf = [q1.frac, q2.frac]
    sf = [s1.frac, s2.frac] if vv else qf

    certified = list(certified_extra)

    maxes = [max(HALF, 1 / qf[i], 1 / sf[i]) for i in range(2)]
    total = maxes[0] + maxes[1]
    require(total < THREE_HALVES, f"sum of max terms = {total} >= 3/2")
    certified.append("sum-max-lt-3/2")

    budget = THREE_HALVES - total
    # with s_i = q_i the extra caps are no tighter: min(1/q, 1 - 1/q) <= 1/2
    caps = [
        min(1 / qf[i], 1 - 1 / qf[i], 1 / sf[i], 1 - 1 / sf[i], HALF - abs(1 / sf[i] - 1 / qf[i]))
        for i in range(2)
    ]
    eta = _eta_rule(budget, caps)
    require(
        eta > 0 and 2 * eta < budget and all(eta < c for c in caps),
        f"eta = {eta} must satisfy 0 < eta < every cap and 2 eta < budget = {budget}",
    )
    certified.append("eta-constraints")

    inv_p = [2 * (maxes[i] - HALF + eta) for i in range(2)]
    p1, p2 = from_rec(inv_p[0]), from_rec(inv_p[1])
    inv_p_sum = inv_p[0] + inv_p[1]
    require(inv_p_sum < 1, f"1/p = {inv_p_sum} >= 1")
    certified.append("1/p-lt-1")

    r_minus = tuple(from_rec(inv_p[i] / 2 + HALF) for i in range(2))
    r_plus = tuple(from_rec(inv_p[i] / 2) for i in range(2))
    require(
        all(rec(hi) < 1 / x < rec(lo) for lo, hi, q, s in zip(r_minus, r_plus, qf, sf) for x in (q, s)),
        "r_i^- < q_i, s_i < r_i^+ failed",
    )
    certified.append("r-window")

    inv_r = [2 / qf[i] - inv_p[i] for i in range(2)]
    require(all(0 < t < 1 for t in inv_r), f"equivalent indices 1/r_i = {inv_r[0]}, {inv_r[1]} not in (0, 1)")
    certified.append("equivalent-A-form")

    return BHTPlan(
        q1=q1,
        q2=q2,
        s1=s1 if vv else None,
        s2=s2 if vv else None,
        p1=p1,
        p2=p2,
        eta1=eta,
        eta2=eta,
        r_minus=r_minus,
        r_plus=r_plus,
        weight_specs=tuple(map(WeightClassSpec.for_range, (q1, q2), r_minus, r_plus)),
        q=harmonic_sum([q1, q2]),
        p=from_rec(inv_p_sum),
        s=harmonic_sum([s1, s2]) if vv else None,
        r_equiv=tuple(map(from_rec, inv_r)),
        certified=tuple(certified),
    )


def bht_plan(q1: ExponentLike, q2: ExponentLike) -> BHTPlan:
    """Scalar plan for targets (q1, q2); requires 1/q1 + 1/q2 < 3/2."""
    q1, q2 = _open(q1=q1, q2=q2)
    _below_three_halves("q", q1, q2)
    return _build_plan(q1, q2, None, None, ["1/q-lt-3/2"])


def bht_vv_plan(
    q1: ExponentLike, q2: ExponentLike, s1: ExponentLike, s2: ExponentLike
) -> BHTPlan:
    """Vector-valued plan; checks its four constraints strictly: 1/q < 3/2,
    1/s < 3/2, |1/s_i - 1/q_i| < 1/2 and sum_i max{1/q_i, 1/s_i} < 3/2.

    With s_i = q_i this reduces bit-exactly to :func:`bht_plan`.
    """
    q1, q2, s1, s2 = _open(q1=q1, q2=q2, s1=s1, s2=s2)
    _below_three_halves("q", q1, q2)
    _below_three_halves("s", s1, s2)
    for i, (s, q) in enumerate(((s1, q1), (s2, q2)), start=1):
        if not abs(rec(s) - rec(q)) < HALF:
            raise Infeasible(f"|1/s{i} - 1/q{i}| = {abs(rec(s) - rec(q))} >= 1/2")
    if not max(rec(q1), rec(s1)) + max(rec(q2), rec(s2)) < THREE_HALVES:
        raise Infeasible("sum of max{1/q_i, 1/s_i} >= 3/2")
    return _build_plan(q1, q2, s1, s2, ["1/q-lt-3/2", "1/s-lt-3/2", "|1/s-1/q|-lt-1/2", "sum-max-qs-lt-3/2"])


# --------------------------------------------------------------------------
# power-weight windows
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerRange:
    """Admissible a-window for |x|^{-a} weights: a in {0} union (a_-, a_+)."""

    a_minus: Fraction
    a_plus: Fraction
    includes_zero: bool = True


def bht_power_range(q1: ExponentLike, q2: ExponentLike) -> PowerRange:
    """Scalar power-weight window of the admissible (q1, q2): :meth:`BHTPlan.power_range`."""
    return bht_plan(q1, q2).power_range()


def bht_vv_power_range(
    q1: ExponentLike, q2: ExponentLike, s1: ExponentLike, s2: ExponentLike
) -> PowerRange:
    """Vector-valued power-weight window: :meth:`BHTPlan.power_range`."""
    return bht_vv_plan(q1, q2, s1, s2).power_range()


# --------------------------------------------------------------------------
# generalized three-parameter system
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Section5Plan:
    """Plan produced by the gamma-parametrized feasibility system.

    theta_i are the interpolation parameters; the constraint system

        theta_1/p_1' <= 1/2,  theta_2/p_2' <= 1/2,  theta_3/p <= 1/2,
        theta_1/p_1' + theta_2/p_2' + theta_3/p = 1

    is certified exactly, as are the strict window inequalities

        1/r_i^+ = theta_3/p_i < min{1/s_i, 1/q_i}
        max{1/s_i, 1/q_i} < 1/r_i^- = 1 - theta_i/p_i'.
    """

    gamma: tuple[Fraction, Fraction, Fraction]
    m1: Fraction
    m2: Fraction
    mt1: Fraction
    mt2: Fraction
    eta1: Fraction
    eta2: Fraction
    p1: Exponent
    p2: Exponent
    p: Exponent
    theta1: Fraction
    theta2: Fraction
    theta3: Fraction
    r_minus: tuple[Exponent, Exponent]
    r_plus: tuple[Exponent, Exponent]
    weight_specs: tuple[WeightClassSpec, WeightClassSpec]
    certified: tuple[str, ...]

    def as_dict(self) -> dict:
        names = ("m1", "m2", "mt1", "mt2", "eta1", "eta2",
                 "p1", "p2", "p", "theta1", "theta2", "theta3")
        return {
            **{f"gamma{i}": g for i, g in enumerate(self.gamma, start=1)},
            **{k: getattr(self, k) for k in names},
            **_window(self),
            "certified": list(self.certified),
        }


def section5_weight_classes(p1: ExponentLike, p2: ExponentLike, thetas):
    """Weight classes and range endpoints for given (p1, p2, thetas).

    Evaluates  w_i^{p_i} in A_{1+(1-theta_i)(p_i-1)} & RH_{1/(1-theta_3)}
    and  1/r_i^- = 1 - theta_i/p_i',  1/r_i^+ = theta_3/p_i,  after
    certifying the theta constraint system for p = (1/p1 + 1/p2)^(-1).
    """
    p1, p2 = _open(p1=p1, p2=p2)
    f1, f2 = p1.frac, p2.frac
    th = [Fraction(t) for t in thetas]
    if len(th) != 3 or any(not (0 < t < 1) for t in th):
        raise DomainError(f"thetas must be three values in (0,1), got {', '.join(map(str, th))}")
    inv_p = rec(p1) + rec(p2)
    if not inv_p < 1:
        raise Infeasible(f"1/p = {inv_p} >= 1")
    p = from_rec(inv_p)
    c1 = th[0] * (1 - 1 / f1)  # theta_1/p_1'
    c2 = th[1] * (1 - 1 / f2)
    c3 = th[2] * inv_p
    if c1 > HALF or c2 > HALF or c3 > HALF:
        raise Infeasible("a theta_i/p_i' (or theta_3/p) exceeds 1/2")
    if c1 + c2 + c3 != 1:
        raise Infeasible(f"theta system sum = {c1 + c2 + c3} != 1")
    r_minus = tuple(from_rec(1 - c) for c in (c1, c2))
    r_plus = (from_rec(th[2] / f1), from_rec(th[2] / f2))
    # the display A_{1+(1-theta_i)(p_i-1)} & RH_{1/(1-theta_3)}
    specs = tuple(map(WeightClassSpec.for_range, (p1, p2), r_minus, r_plus))
    return specs, r_minus, r_plus, p


def section5_plan(
    q1: ExponentLike,
    q2: ExponentLike,
    s1: ExponentLike,
    s2: ExponentLike,
    gamma1,
    gamma2,
    gamma3,
) -> Section5Plan:
    """Solve the gamma-parametrized system for (q, s) targets.

    Feasibility requires gamma_i in [0,1) with gamma_1+gamma_2+gamma_3 = 1,

        max{1/s_i, 1/q_i} < (1 + gamma_i)/2          (i = 1, 2)
        min{1/s_1, 1/q_1} + min{1/s_2, 1/q_2} > (1 - gamma_3)/2,

    both strict.  eta is chosen by the two documented branches; the open
    interval of 1/p, ((1 - gamma_3)/2, 1/max eta_i), is resolved to its
    midpoint and 1/p_i = eta_i/p.
    """
    q1, q2, s1, s2 = _open(q1=q1, q2=q2, s1=s1, s2=s2)
    g = [Fraction(gamma1), Fraction(gamma2), Fraction(gamma3)]
    if any(not (0 <= gi < 1) for gi in g):
        raise DomainError(f"gamma_i must lie in [0, 1), got {', '.join(map(str, g))}")
    if sum(g) != 1:
        raise DomainError(f"gamma_1 + gamma_2 + gamma_3 = {sum(g)} != 1")

    _below_three_halves("q", q1, q2)
    _below_three_halves("s", s1, s2)
    certified = ["aggregate-targets-lt-3/2"]

    pairs = [(rec(s1), rec(q1)), (rec(s2), rec(q2))]
    for i, (si, qi) in enumerate(pairs, start=1):
        if not max(si, qi) < (1 + g[i - 1]) / 2:
            raise Infeasible(f"max(1/s{i}, 1/q{i}) >= (1+gamma{i})/2")
    certified.append("new-cond-vv:1")

    m1 = min(pairs[0])
    m2 = min(pairs[1])
    if not m1 + m2 > (1 - g[2]) / 2:
        raise Infeasible("min-sum <= (1 - gamma3)/2")
    certified.append("new-cond-vv:2")

    mt1 = 2 * m1 / (1 - g[2])
    mt2 = 2 * m2 / (1 - g[2])

    if abs(mt1 - mt2) < 1:
        eta1 = HALF + (mt1 - mt2) / 2
        eta2 = HALF + (mt2 - mt1) / 2
    else:
        # scale-aware eps assigned to the smaller side
        small = min(mt1, mt2)
        eps = min(small, HALF) / 2
        if mt1 >= 1:
            eta1, eta2 = 1 - eps, eps
        else:
            eta1, eta2 = eps, 1 - eps
    require(
        eta1 + eta2 == 1 and 0 < eta1 < min(1, mt1) and 0 < eta2 < min(1, mt2),
        f"eta choice ({eta1}, {eta2}) must sum to 1 with 0 < eta_i < min(1, mt_i)",
    )
    certified.append("eta-choice")

    # 1/p at the midpoint of its open interval; 1/p1 + 1/p2 = 1/p as eta1 + eta2 = 1
    inv_p = ((1 - g[2]) / 2 + 1 / (2 * max(eta1, eta2))) / 2
    inv_p1, inv_p2 = eta1 * inv_p, eta2 * inv_p
    p1, p2, p = from_rec(inv_p1), from_rec(inv_p2), from_rec(inv_p)
    require(p1 > 2 and p2 > 2 and inv_p < 1, f"need p1, p2 > 2 and p > 1, got {p1}, {p2}, {p}")

    theta1 = (1 - g[0]) / 2 / (1 - inv_p1)  # p_1' * (1-gamma_1)/2
    theta2 = (1 - g[1]) / 2 / (1 - inv_p2)
    theta3 = (1 - g[2]) / 2 / inv_p
    specs, r_minus, r_plus, p_check = section5_weight_classes(
        p1, p2, (theta1, theta2, theta3)
    )
    require(p_check == p, f"weight classes give p = {p_check}, not {p}")
    certified.append("p1-2-3:conds")

    require(
        all(rec(hi) < min(x) and max(x) < rec(lo) for lo, hi, x in zip(r_minus, r_plus, pairs)),
        "needed-finish window: 1/r_i^+ < min(1/s_i, 1/q_i) and max(1/s_i, 1/q_i) < 1/r_i^- failed",
    )
    certified.append("needed-finish")

    return Section5Plan(
        gamma=tuple(g),
        m1=m1,
        m2=m2,
        mt1=mt1,
        mt2=mt2,
        eta1=eta1,
        eta2=eta2,
        p1=p1,
        p2=p2,
        p=p,
        theta1=theta1,
        theta2=theta2,
        theta3=theta3,
        r_minus=r_minus,
        r_plus=r_plus,
        weight_specs=specs,
        certified=tuple(certified),
    )


# --------------------------------------------------------------------------
# Marcinkiewicz-Zygmund reduction
# --------------------------------------------------------------------------


def mz_plan(qjs, r: ExponentLike) -> dict:
    """Validate an l^r-aggregated m-linear plan with full range (1, inf).

    For 1 < r < 2 the plan extrapolates from base exponents inside (1, r)
    (midpoint (1+r)/2 in each coordinate) to arbitrary targets q_j in
    (1, inf) with weight classes w_j^{q_j} in A_{q_j}; the earlier
    restriction q_j < r is not needed.  r = 2 is reported as the base case
    rather than planned.  Returns the report's envelope fields (feasible,
    data, certified, caveats), which the CLI passes to `envelope` as they are.
    """
    r = as_exponent(r)
    if not qjs:
        raise DomainError("need at least one coordinate")
    qjs = _open(**{f"q{j}": q for j, q in enumerate(qjs, start=1)})
    specs = [WeightClassSpec.for_range(q, 1, INF) for q in qjs]
    base_data = {
        "r": r,
        "q": qjs,
        "aggregate_q": harmonic_sum(qjs),
        "weight_specs": [{"ap": sp.p, "rh": sp.s} for sp in specs],
    }
    if r == 2:
        return {
            "feasible": True,
            "data": {**base_data, "base_case": True, "steps": []},
            "certified": ["r=2-base-case"],
            "caveats": ["r = 2 is the assumed base inequality; nothing to plan"],
        }
    if not (Exponent(1) < r < Exponent(2)):
        raise Infeasible(f"r = {r} outside (1, 2)")
    m = len(qjs)
    base = Exponent((1 + r.frac) / 2)
    steps = multilinear_plan([base] * m, [1] * m, [INF] * m, qjs)
    return {
        "feasible": True,
        "data": {
            **base_data,
            "base_case": False,
            "base_exponents": [base] * m,
            "steps": [s.as_dict() for s in steps],
        },
        "certified": ["r-in-(1,2)", "steps-valid", "q_j-unrestricted-by-r"],
    }
