"""Rubio de Francia iteration and the constructive majorant certificates.

The iteration runs on the dyadic maximal operator S = maximal(., "sliding"),
the O(N log^2 N) sup over dyadic window lengths, with B an upper bound for
its norm on the configured weighted space:

    R_K G = sum_{k=0}^{K-1} S^k G / (2B)^k,    T_K = S^K G / (2B)^K.

The series stops at the first term T_K whose norm is at most
2^-DEFAULT_TERMS ||G||, or at K = DEFAULT_TERMS; T_K is the first dropped
term.  Provided every ||S^k G / (2B)^k|| stays below 2^-k ||G||, the
construction guarantees

    G <= R G,    ||R G|| <= 2 ||G||,    S(R_K G) <= 2B (R_K G - G + T_K),

the last by sublinearity.  On power-of-two grids the exact maximal
operator M (the sup over all grid-aligned intervals) obeys M <= 2S
pointwise, since every interval lies in a window of dyadic length less
than twice its own.  So

    M(R_K G) <= 4B (R_K G + T_K),

the A_1-type bound, checked with one exact M call per majorant; that call
also gives `a1_ratio` = max M(RG)/RG.

On top of the iteration the engine builds the proof objects for the
two-sided construction (the `Case I` regime of the planner):

    h1 = f/||f||_{L^q(w^q)} + g^{p/q} w^{p/q-1} / ||g||_{L^p(w^p)}^{p/q}
    H1 = R1(h1^delta w^eps)^{1/delta} w^{-eps/delta}     (R1 on L^tau(w^{p (p_+/p)'}))
    H2 = R2(h2^beta w^gam)^{1/beta} w^{-gam/beta}        (R2 on L^tau'(w^{-sigma}))
    mu1 = R1(h1^delta w^eps),  mu2 = R2(h2^beta w^gam)
    W^{q0} = H1^{-alpha q0/s} H2 w^q

with the twelve certificates

    h1-norm:     ||h1||_{L^q(w^q)} <= 2^max(1, 1/q)   (q-triangle inequality below 1)
    H1-norm:     ||H1||_{L^q(w^q)} <= 2^(max(1, 1/q) + 1/delta)
    H1-f:        f <= H1 ||f||
    H1-pt3:      g^{p/q} w^{p/q-1} <= H1 ||g||^{p/q}
    H2-norm:     ||H2||_{L^{(q/s)'}(w^q)} <= 2^(1/beta)
    H2-pt:       h2 <= H2
    R1-majorant: h1^delta w^eps <= mu1
    R2-majorant: h2^beta w^gam <= mu2
    R1-doubling: ||mu1||_{L^tau(w^{p (p_+/p)'})} <= 2 ||h1^delta w^eps||
    R2-doubling: ||mu2||_{L^tau'(w^{-sigma})} <= 2 ||h2^beta w^gam||
    R1-A1:       M(mu1) <= 4 B1 (mu1 + T_K of R1)
    R2-A1:       M(mu2) <= 4 B2 (mu2 + T_K of R2)

where B1, B2 are the bounds on S that the iterations ran with, after any
retries: mu_i is r_i.function and B_i is r_i.norm_bound.  The norm
certificates pass within a relative NORM_SLACK of 1%, the pointwise ones
within a relative 1e-9 (POINTWISE_SLACK).  Each norm certificate compares
two discrete norms on one grid, so no quadrature enters it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CertificationFailed, DomainError, NormBoundTooSmall
from .exponents import ExponentLike, WeightClassSpec, as_exponent, conjugate_ratio
from .extrapolation import Case, ExtrapolationRange, ProofExponents
from .gridfn import GridFunction, maximal, measure_norm, weighted_norm
from .weights import GridWeight, estimate_class_constants

__all__ = [
    "IterationResult",
    "ProofObjects",
    "rdf_iterate",
    "estimate_maximal_norm",
    "build_proof_objects",
    "verify_case1_weight",
]

DEFAULT_TERMS = 24
POINTWISE_SLACK = 1e-9
NORM_SLACK = 0.01
GROWTH_SLACK = 1e-6
PROBE_CEILING = 1e8
PROBE_SAFETY = 2.0
BOUND_ATTEMPTS = 5
WEIGHT_DEPTH = 6  # dyadic halvings of the W^{p0} class-constant estimate


@dataclass
class IterationResult:
    """One truncated series: summed on the dyadic operator S, checked with
    the exact maximal M."""

    function: GridFunction  # R_K G, summed with the dyadic operator S
    a1_ratio: float  # max M(RG)/RG with the exact maximal M
    norm_bound: float  # the bound B on S that the series ran with
    output_norm: float
    term_norms: list  # norms of the K added terms, ||G|| first
    exact_maximal: GridFunction  # exact M(R_K G), the oracle for the A_1 certificate
    dropped: GridFunction  # T_K = S^K G / (2B)^K, the first term left out


def rdf_iterate(
    G: GridFunction,
    norm_bound: float,
    weight: GridWeight,
    exponent: ExponentLike,
) -> IterationResult:
    """Truncated majorant series on S with certified geometric decay.

    `weight` is the measure density of the space (already fully powered) and
    `exponent` its Lebesgue index, 0 < p < inf; `norm_bound` B stands in for
    the norm of S = maximal(., "sliding") on that space.  Term k is
    S(term_{k-1})/(2B); the series stops at the first term whose norm is at
    most 2^-DEFAULT_TERMS ||G||, or at k = DEFAULT_TERMS, and that term T_K
    is returned as `dropped`, not added.  The exact maximal of the sum is
    computed once, for `a1_ratio` and the A_1 certificate.  Raises
    NormBoundTooSmall when an observed ||term_k|| exceeds 2^-k ||G|| (the
    series would not be summable as configured).
    """
    if not (norm_bound >= 1):
        raise DomainError(f"norm bound must be >= 1, got {norm_bound}")
    exponent = as_exponent(exponent)
    if exponent.is_inf or exponent.frac <= 0:
        raise DomainError(f"iteration space exponent must satisfy 0 < p < inf, got {exponent}")
    if np.iscomplexobj(G.samples) or np.any(G.samples < 0):
        raise DomainError("iteration input must be nonnegative")
    G.grid.require_same(weight.grid)
    base_norm = measure_norm(G, weight, exponent)
    negligible = base_norm * 2.0**-DEFAULT_TERMS
    term = G
    total = G.samples.copy()
    term_norms = [base_norm]
    scale = 2.0 * norm_bound
    for k in range(1, DEFAULT_TERMS + 1):
        term = GridFunction(maximal(term, "sliding").samples / scale, G.grid)
        tn = measure_norm(term, weight, exponent)
        if base_norm > 0 and tn > base_norm * 2.0**-k * (1.0 + GROWTH_SLACK):
            raise NormBoundTooSmall(
                f"term {k} norm {tn:.3e} exceeds {base_norm:.3e} * 2^-{k}: "
                "the configured norm bound underestimates the operator"
            )
        if tn <= negligible or k == DEFAULT_TERMS:
            break
        total += term.samples
        term_norms.append(tn)
    out = GridFunction(total, G.grid)
    m_out = maximal(out)
    mratio = m_out.samples / np.where(total > 0, total, np.inf)
    return IterationResult(
        function=out,
        a1_ratio=float(np.max(mratio)),
        norm_bound=norm_bound,
        output_norm=measure_norm(out, weight, exponent),
        term_norms=term_norms,
        exact_maximal=m_out,
        dropped=term,
    )


def estimate_maximal_norm(p: ExponentLike, w: GridWeight, probe: GridFunction) -> float:
    """Empirical upper bound for the norm of S = maximal(., "sliding") on
    L^p(w) (w the measure density), the operator the series runs on.

    Takes the ratio ||S probe||/||probe||, floored at 1, times a safety
    factor of 2; the result is >= 2.  The floor is the exact ratio of a
    constant (S1 = 1 on the grid), and a zero probe gives it.  DomainError
    is raised if the ratio exceeds the ceiling.
    """
    p = as_exponent(p)
    if p.is_inf or p <= 1:
        raise DomainError(f"maximal norm estimate needs 1 < p < inf, got {p}")
    denom = measure_norm(probe, w, p)
    ratio = measure_norm(maximal(probe, "sliding"), w, p) / denom if denom else 1.0
    if ratio > PROBE_CEILING:
        raise DomainError(f"probe ratio {ratio:.3e} exceeds ceiling {PROBE_CEILING:.3e}")
    return PROBE_SAFETY * max(1.0, ratio)


# --------------------------------------------------------------------------
# proof objects
# --------------------------------------------------------------------------


@dataclass
class ProofObjects:
    h1: GridFunction
    H1: GridFunction
    h2: GridFunction
    H2: GridFunction
    W: GridWeight
    W_q0: np.ndarray  # H1^{-alpha q0/s} H2 w^q, stored for bitwise replay
    C1: float  # 2^(max(1, 1/q) + 1/delta)
    C2: float  # 2^(1/beta)
    certificates: dict
    r1: IterationResult  # mu1 = r1.function
    r2: IterationResult  # mu2 = r2.function

    def as_dict(self) -> dict:
        return {
            "C1": self.C1,
            "C2": self.C2,
            "certificates": self.certificates,
            "norm_bound_1": self.r1.norm_bound,
            "norm_bound_2": self.r2.norm_bound,
            "a1_ratio_mu1": self.r1.a1_ratio,
            "a1_ratio_mu2": self.r2.a1_ratio,
        }


def build_proof_objects(
    f: GridFunction,
    g: GridFunction,
    w: GridWeight,
    pe: ProofExponents,
    rng: ExtrapolationRange,
    p: ExponentLike,
) -> ProofObjects:
    """Construct and certify the majorant pair (H1, H2) for one scenario.

    f, g must be nonnegative and nonzero; `pe` must come from the planner's
    two-sided regime (Case I) for this `rng` and `p`, and the target q is
    read from it.  h2 is the extremal dual function
    (f/||f||)^{q-s}, which saturates its norm constraint.  Raises
    CertificationFailed listing any certificate that misses its bound by
    more than the slack.
    """
    if pe.case is not Case.I:
        raise DomainError("proof objects are built in the two-sided regime (Case I)")
    for name, fn in (("f", f), ("g", g)):
        if np.iscomplexobj(fn.samples) or np.any(fn.samples < 0):
            raise DomainError(f"{name} must be nonnegative")
    p = as_exponent(p)
    pf, qf = p.frac, pe.q
    grid = f.grid
    grid.require_same(w.grid)

    w_q = w.power(qf)
    nf = measure_norm(f, w_q, qf)
    ng = weighted_norm(g, w, p)
    if nf == 0 or ng == 0:
        raise DomainError("f and g must be nonzero on the grid")

    ratio = pf / qf
    dual_term = g.samples**float(ratio) * w.power(ratio - 1).samples / ng ** float(ratio)
    h1 = GridFunction(f.samples / nf + dual_term, grid)

    # h2, normalized in L^{(q/s)'}(w^q)
    h2 = GridFunction((f.samples / nf) ** float(qf - pe.s), grid)
    qs_conj = conjugate_ratio(qf, pe.s)
    nh2 = measure_norm(h2, w_q, qs_conj)
    if nh2 == 0:
        raise DomainError("h2 must be nonzero")
    h2 = GridFunction(h2.samples / nh2, grid)

    def _majorant(h: GridFunction, power: Fraction, w_exp: Fraction, space_p: Fraction, v: GridWeight):
        """seed = h^power w^w_exp, r = R seed on L^space_p(v), and
        H = r^(1/power) w^(-w_exp/power); the norm bound doubles after each
        NormBoundTooSmall, and the last of BOUND_ATTEMPTS attempts re-raises."""
        seed = GridFunction(h.samples ** float(power) * w.power(w_exp).samples, grid)
        bound = estimate_maximal_norm(space_p, v, seed)
        for attempt in range(1, BOUND_ATTEMPTS + 1):
            try:
                r = rdf_iterate(seed, bound, v, space_p)
                break
            except NormBoundTooSmall:
                if attempt == BOUND_ATTEMPTS:
                    raise
                bound *= 2.0  # rare: probe estimate too optimistic; retry
        H = GridFunction(r.function.samples ** float(1 / power) * w.power(-w_exp / power).samples, grid)
        return seed, r, H

    # R1 runs on L^tau(w^{p (p_+/p)'}), R2 on L^tau'(w^{-sigma})
    v1 = w.power(pf * conjugate_ratio(rng.p_plus, p).frac)  # (p_+/p)' = 1 when p_+ = inf
    seed1, r1, H1 = _majorant(h1, pe.delta, pe.epsilon, pe.tau, v1)
    beta = pe.beta.frac
    seed2, r2, H2 = _majorant(h2, beta, pe.gamma, pe.tau_prime, w.power(-pe.sigma))

    C1 = 2.0 ** float(max(1, 1 / qf) + 1 / pe.delta)
    C2 = 2.0 ** float(1 / beta)

    # certificates
    certs = {}
    failures = []

    def _norm_cert(tag, value, bound):
        ok = value <= bound * (1 + NORM_SLACK)
        certs[tag] = {"value": value, "bound": bound, "ok": ok}
        if not ok:
            failures.append(f"{tag}: {value:.6g} > {bound:.6g}")

    def _pt_cert(tag, lhs, rhs):
        scale = np.maximum(np.abs(rhs), np.finfo(float).tiny)
        worst = float(np.max((lhs - rhs) / scale))
        ok = worst <= POINTWISE_SLACK
        certs[tag] = {"max_violation": worst, "ok": ok}
        if not ok:
            failures.append(f"{tag}: pointwise violation {worst:.3e}")

    _norm_cert("h1-norm", measure_norm(h1, w_q, qf), 2.0 ** float(max(1, 1 / qf)))
    _norm_cert("H1-norm", measure_norm(H1, w_q, qf), C1)
    _pt_cert("H1-f", f.samples / nf, H1.samples)
    _pt_cert("H1-pt3", dual_term, H1.samples)
    _norm_cert("H2-norm", measure_norm(H2, w_q, qs_conj), C2)
    _pt_cert("H2-pt", h2.samples, H2.samples)
    _pt_cert("R1-majorant", seed1.samples, r1.function.samples)
    _pt_cert("R2-majorant", seed2.samples, r2.function.samples)
    _norm_cert("R1-doubling", r1.output_norm, 2.0 * r1.term_norms[0])
    _norm_cert("R2-doubling", r2.output_norm, 2.0 * r2.term_norms[0])
    for tag, r in (("R1-A1", r1), ("R2-A1", r2)):
        _pt_cert(tag, r.exact_maximal.samples, 4.0 * r.norm_bound * (r.function.samples + r.dropped.samples))

    if failures:
        raise CertificationFailed(failures)

    q0f = rng.q0.frac
    W_q0 = H1.samples ** float(-pe.alpha * q0f / pe.s) * H2.samples * w_q.samples
    W = GridWeight._checked(lambda: W_q0 ** float(1 / q0f), f"W = (W^q0)^(1/{rng.q0})", grid)

    return ProofObjects(
        h1=h1,
        H1=H1,
        h2=h2,
        H2=H2,
        W=W,
        W_q0=W_q0,
        C1=C1,
        C2=C2,
        certificates=certs,
        r1=r1,
        r2=r2,
    )


def verify_case1_weight(
    po: ProofObjects,
    pe: ProofExponents,
    rng: ExtrapolationRange,
    w: GridWeight,
) -> dict:
    """Check the constructed weight W against the caller's proof exponents.

    `pe` must be the exponents the proof objects were built from (the
    planner's for `rng`); they are read, not derived again.  Returns a
    report with (i) the identities `pe` certifies, (ii) the empirical A_1
    ratios of mu1/mu2 that the iteration measured, (iii) estimated
    A_{p0/p_-} and RH_{(p_+/p0)'} constants of W^{p0} down to WEIGHT_DEPTH
    halvings (N >= 2^WEIGHT_DEPTH), and (iv) a bitwise replay of the
    defining identity W^{q0} = H1^{-alpha q0/s} H2 w^q.
    """
    q0f = rng.q0.frac
    replay = po.H1.samples ** float(-pe.alpha * q0f / pe.s) * po.H2.samples * w.power(pe.q).samples
    bitwise = bool(np.array_equal(replay, po.W_q0))
    if not bitwise:
        raise CertificationFailed(["W^{q0} replay differs from stored array"])

    spec = WeightClassSpec.for_range(rng.p0, rng.p_minus, rng.p_plus)  # p0 < p_+ in Case I
    w_p0 = GridWeight._checked(lambda: po.W_q0 ** float(rng.p0.frac / q0f), f"W^p0 = W^{rng.p0}", w.grid)
    ap_c, rh_c = estimate_class_constants(w_p0, spec, WEIGHT_DEPTH)[-1]
    finite = bool(np.isfinite(ap_c) and np.isfinite(rh_c))
    if not finite:
        raise CertificationFailed(
            [f"W^p0 class constants not finite: ap={ap_c}, rh={rh_c}"]
        )

    return {
        "identities": list(pe.certified),
        "W_q0_bitwise": bitwise,
        "a1_ratio_mu1": po.r1.a1_ratio,
        "a1_ratio_mu2": po.r2.a1_ratio,
        "W_p0_ap_index": spec.p,
        "W_p0_rh_index": spec.s,
        "W_p0_ap_const": ap_c,
        "W_p0_rh_const": rh_c,
        "depth": WEIGHT_DEPTH,
    }
