"""Exponent logic of limited-range, off-diagonal extrapolation.

A range holds the data (p_-, p_+, p0, q0): the limited range (p_-, p_+), a
base source exponent p0 inside it, and a base target exponent q0.  The
off-diagonal shift 1/p0 - 1/q0 is preserved when moving from p to its target
q, i.e. 1/p - 1/q = 1/p0 - 1/q0 throughout.

For each admissible p the planner derives, exactly, the full set of proof
exponents used by the constructive argument (Rubio de Francia iteration on
two weighted spaces):

    tau   = (1/p_- - 1/p_+) / (1/p - 1/p_+)        tau' its conjugate
    s     = q0*q*(1/q - (1/tau)(1/p_- - 1/p0))      (display s1)
          = q0*q*(1/q0 - (1 - 1/tau)(1/p0 - 1/p_+)) (display s2, certified)
    alpha = s / (q0/s)'          phi  = (q/s)' * q0/p0
    delta*tau = q                eps*tau = q - p*(p_+/p)'
    beta*tau' = (q/s)'           gamma*tau' = sigma + q
    sigma = p*((p/p_-)' - 1)

together with the three exponent-matching identities (labels exp1..exp3 in
reports) that make the constructed weight factor through two A_1 weights:

    exp1:  alpha*p0/s = (q/tau)(p0/p_- - 1)
    exp2:  p0/q0 = (1/tau')(q/s)'/(p_+/p0)'
    exp3:  q*p0/q0 = (sigma/tau' + q/tau')/(p_+/p0)'
                     + (q/tau - (p/tau)(p_+/p)')(1 - p0/p_-)

All of these are certified as exact rational identities at construction
time; the numeric layer re-checks nothing symbolic.  A conjugate of a ratio,
(a/b)', is `conjugate_ratio`, exact through 1/(a/b)' = 1 - b/a, so a ratio
that degenerates to 1 (conjugate inf) needs no special case.

Case split on the range:

    I:   p_- > 0 and p_- < p0 < p_+      (both iterations needed)
    II:  p0 = p_-                        (s = q0; only the dual-side iteration)
    III: p0 = p_+ and p_- > 0            (s = q; only the direct iteration)
    IV:  p_- = 0                         (not planned: proof_exponents refuses it)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, Infeasible, require
from .exponents import (
    Exponent,
    ExponentLike,
    as_exponent,
    conjugate_ratio,
    from_rec,
    harmonic_sum,
    rec,
)

__all__ = [
    "Case",
    "ExtrapolationRange",
    "ProofExponents",
    "LinearStep",
    "dual_range",
    "target_exponent",
    "case_select",
    "proof_exponents",
    "multilinear_plan",
]


class Case(enum.Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"


@dataclass(frozen=True)
class ExtrapolationRange:
    """Limited range (p_-, p_+) with base pair (p0, q0).

    Invariants checked at construction:

    * 0 <= p_- <= p0 <= p_+ <= inf with p_- < p_+, and p0, q0 finite positive;
    * validity: 1/q0 - 1/p0 + 1/p_+ >= 0 (otherwise targets near p_+ would
      have nonpositive reciprocals and the statement is vacuous).
    """

    p_minus: Exponent
    p_plus: Exponent
    p0: Exponent
    q0: Exponent

    def __post_init__(self):
        for name in ("p_minus", "p_plus", "p0", "q0"):
            object.__setattr__(self, name, as_exponent(getattr(self, name)))
        for name in ("p0", "q0"):
            x = getattr(self, name)
            if x.is_inf or x <= 0:
                raise Infeasible(f"{name} must be finite positive, got {x}")
        if not (self.p_minus <= self.p0 <= self.p_plus):
            raise Infeasible(
                f"need p_- <= p0 <= p_+, got {self.p_minus}, {self.p0}, {self.p_plus}"
            )
        if not (self.p_minus < self.p_plus):
            raise Infeasible("need p_- < p_+")
        if rec(self.q0) - rec(self.p0) + rec(self.p_plus) < 0:
            raise Infeasible(
                "validity failed: 1/q0 - 1/p0 + 1/p_+ = "
                f"{rec(self.q0) - rec(self.p0) + rec(self.p_plus)} < 0"
            )

    @property
    def shift(self) -> Fraction:
        """The off-diagonal shift 1/p0 - 1/q0 (signed, exact)."""
        return rec(self.p0) - rec(self.q0)


def dual_range(rng: ExtrapolationRange) -> tuple[Exponent, Exponent]:
    """The target-side endpoints (q_-, q_+) with 1/q_pm - 1/p_pm = 1/q0 - 1/p0.

    The range's validity inequality is exactly what makes 1/q_+ >= 0; the
    returned pair always satisfies 0 <= q_- <= q0 <= q_+ <= inf.
    """
    if rng.p_minus == 0:
        q_minus = Exponent(0)
    else:
        q_minus = from_rec(rec(rng.p_minus) - rng.shift)
    q_plus = from_rec(rec(rng.p_plus) - rng.shift)
    require(q_minus <= rng.q0 <= q_plus, "dual endpoints must bracket q0")
    return q_minus, q_plus


def target_exponent(p: ExponentLike, rng: ExtrapolationRange) -> Exponent:
    """The target q with 1/q = 1/p - (1/p0 - 1/q0), for p in (p_-, p_+).

    Once p < p_+ holds, 1/q > 1/p_+ - 1/p0 + 1/q0 >= 0 by the range's validity
    inequality, so a nonpositive 1/q is a certificate failure, not an input.
    """
    p = as_exponent(p)
    if not (rng.p_minus < p < rng.p_plus):
        raise Infeasible(f"p={p} is not inside ({rng.p_minus}, {rng.p_plus})")
    t = rec(p) - rng.shift
    require(t > 0, f"target reciprocal 1/q = {t} is not positive")
    return from_rec(t)


def case_select(rng: ExtrapolationRange) -> Case:
    """Which proof case the range falls in (IV whenever p_- = 0)."""
    if rng.p_minus == 0:
        return Case.IV
    if rng.p0 == rng.p_minus:
        return Case.II
    if rng.p0 == rng.p_plus:
        return Case.III
    return Case.I


@dataclass(frozen=True)
class ProofExponents:
    """All derived proof exponents for one (range, p), exact.

    epsilon may be negative (it is a weight exponent, not a Lebesgue index);
    phi and beta degenerate to +inf in Case III (where s = q), so those two
    fields are extended exponents while the rest are plain rationals.
    """

    case: Case
    q: Fraction
    tau: Fraction
    tau_prime: Fraction
    s: Fraction
    alpha: Fraction
    phi: Exponent
    delta: Fraction
    epsilon: Fraction
    beta: Exponent
    gamma: Fraction
    sigma: Fraction
    certified: tuple[str, ...]


def proof_exponents(rng: ExtrapolationRange, p: ExponentLike) -> ProofExponents:
    """Derive and certify every proof exponent for Cases I-III.

    Raises DomainError for Case IV ranges (p_- = 0), which the paper
    reduces to Case I or III through the openness of the A_p classes, and
    Infeasible when p is not strictly inside (p_-, p_+).
    """
    case = case_select(rng)
    if case is Case.IV:
        raise DomainError("p_- = 0 (Case IV) is not planned; give a range with p_- > 0")
    p = as_exponent(p)
    q = target_exponent(p, rng)

    a = rec(rng.p_minus)  # 1/p_-  (finite: p_- > 0 in cases I-III)
    b = rec(rng.p_plus)  # 1/p_+  (0 when p_+ = inf)
    u = rec(p)
    p0f, q0f = rng.p0.frac, rng.q0.frac
    pf, qf = p.frac, q.frac

    tau = (a - b) / (u - b)
    tau_prime = (a - b) / (a - u)
    require(tau > 1 and tau_prime > 1, f"need tau, tau' > 1, got {tau}, {tau_prime}")
    require(1 / tau + 1 / tau_prime == 1, "tau and tau' must be conjugate")

    certified: list[str] = []

    # s from display (s1), certified against display (s2).
    s = q0f * qf * (1 / qf - (1 / tau) * (a - 1 / p0f))
    s_alt = q0f * qf * (1 / q0f - (1 - 1 / tau) * (1 / p0f - b))
    require(s == s_alt, f"s displays disagree: {s} vs {s_alt}")
    certified.append("s1=s2")

    require(0 < s <= min(qf, q0f), f"s={s} outside (0, min(q, q0)]")
    if case is Case.I:
        require(s < min(qf, q0f), "Case I needs s < min(q, q0) strictly")
    elif case is Case.II:
        require(s == q0f, "Case II needs s = q0")
    else:
        require(s == qf, "Case III needs s = q")
    certified.append("s-bounds")

    # alpha = s/(q0/s)' = s*(1 - s/q0); valid uniformly (0 in Case II).
    alpha = s * (1 - s / q0f)

    # phi = (q/s)' * q0/p0 and beta = (q/s)'/tau', inf exactly when s = q (Case III).
    qs = conjugate_ratio(q, s)
    phi = from_rec(rec(qs) * p0f / q0f)
    require(case is not Case.I or phi > 1, f"phi={phi} must exceed 1 in Case I")
    beta = from_rec(rec(qs) * tau_prime)

    cpp = conjugate_ratio(rng.p_plus, p).frac
    delta = qf / tau
    epsilon = (qf - pf * cpp) / tau
    sigma = pf * (conjugate_ratio(p, rng.p_minus).frac - 1)
    gamma = (sigma + qf) / tau_prime

    # The three matching identities, cleared of degenerate conjugates via
    # 1/(r)' = 1 - 1/r (all terms below are finite rationals).
    lhs1 = p0f * (1 - s / q0f)  # alpha*p0/s
    rhs1 = (qf / tau) * (p0f * a - 1)
    require(lhs1 == rhs1, f"exp1 failed: {lhs1} != {rhs1}")
    certified.append("exp1")

    lhs2 = (p0f / q0f) * (1 - s / qf)  # (p0/q0) / (q/s)'
    rhs2 = (1 / tau_prime) * (1 - p0f * b)  # (1/tau') / (p_+/p0)'
    require(lhs2 == rhs2, f"exp2 failed: {lhs2} != {rhs2}")
    certified.append("exp2")

    lhs3 = qf * p0f / q0f
    rhs3 = ((sigma + qf) / tau_prime) * (1 - p0f * b) + (
        qf / tau - (pf / tau) * cpp
    ) * (1 - p0f * a)
    require(lhs3 == rhs3, f"exp3 failed: {lhs3} != {rhs3}")
    certified.append("exp3")

    return ProofExponents(
        case=case,
        q=qf,
        tau=tau,
        tau_prime=tau_prime,
        s=s,
        alpha=alpha,
        phi=phi,
        delta=delta,
        epsilon=epsilon,
        beta=beta,
        gamma=gamma,
        sigma=sigma,
        certified=tuple(certified),
    )


@dataclass(frozen=True)
class LinearStep:
    """One coordinate of a multilinear plan, fully certified: its range's base
    pair (p0, q0) is the coordinate's base exponent p_j and the aggregate in."""

    index: int
    range: ExtrapolationRange
    target: Exponent  # q_j, the coordinate's target exponent
    aggregate_out: Exponent
    dual: tuple[Exponent, Exponent]

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "p_minus": self.range.p_minus,
            "p_plus": self.range.p_plus,
            "base": self.range.p0,
            "target": self.target,
            "aggregate_in": self.range.q0,
            "aggregate_out": self.aggregate_out,
            "q_minus": self.dual[0],
            "q_plus": self.dual[1],
        }


def multilinear_plan(pjs, r_minus_js, r_plus_js, qjs) -> list[LinearStep]:
    """Reduce an m-linear extrapolation to m certified linear steps.

    Step j freezes every coordinate but the j-th and extrapolates that one
    from p_j to q_j inside (r_j^-, r_j^+); the aggregate exponent plays the
    target role, so step j's range is (r_j^-, r_j^+) with base pair
    (p_j, current aggregate).  Each new aggregate lies in step j's dual
    interval: r_j^- < q_j < r_j^+ shifted by the step's off-diagonal shift
    gives q_j^- < aggregate < q_j^+, which is certified with `require`.  The
    final aggregate provably equals the harmonic sum of the targets, and that
    equality is asserted exactly.
    Each step validates its own range and target, raising DomainError("step
    j: ..."); a zero p_j already fails the harmonic sum of the bases.
    """
    pjs = [as_exponent(x) for x in pjs]
    rms = [as_exponent(x) for x in r_minus_js]
    rps = [as_exponent(x) for x in r_plus_js]
    qjs = [as_exponent(x) for x in qjs]
    m = len(pjs)
    if not (len(rms) == len(rps) == len(qjs) == m) or m == 0:
        raise DomainError("step 0: coordinate lists must share a positive length")

    steps: list[LinearStep] = []
    aggregate = harmonic_sum(pjs)
    for j in range(m):
        try:
            rng = ExtrapolationRange(rms[j], rps[j], pjs[j], aggregate)
            dual = dual_range(rng)
            agg_next = target_exponent(qjs[j], rng)
        except Infeasible as e:
            raise DomainError(f"step {j}: {e}") from e
        require(dual[0] < agg_next < dual[1], f"step {j}: aggregate left the dual interval")
        steps.append(LinearStep(index=j, range=rng, target=qjs[j], aggregate_out=agg_next, dual=dual))
        aggregate = agg_next

    expected = harmonic_sum(qjs)
    require(aggregate == expected, f"final aggregate {aggregate} != {expected}")
    return steps
