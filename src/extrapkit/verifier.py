"""Empirical ratio sweeps for weighted scalar / vector-valued /
Marcinkiewicz-Zygmund inequalities on seeded families.

All four sweeps run through one engine.  At each resolution in turn it
realizes a deterministic test family and the weights, groups consecutive
members into blocks, aggregates each block through an aggregation tree,
and computes the ratio

    || op(members) ||_target / product of factor norms

per block, with the exponents `exps` = (q1, q2, q) of the factor and
target norms read from the caller's plan (1/q = 1/q1 + 1/q2).  The tree
is a list of levels from the inside out, each (size, (s1, s2, s_out)) with
exponents from the plan: a level takes the l^s1 / l^s2 / l^s_out norm of
`size` consecutive entries of the f / g / op-output columns.  A block
holds the product of the sizes; a trailing partial block is dropped.  The
operator is a group map: it takes an innermost group of (f_i, g_i)
members and returns its output samples in aggregation order.

    sweep               levels                  op output per group
    ratio_sweep         [(1, q)]                op(f_i, g_i)
    vv_sweep            [(K, s)]                op(f_i, g_i)
    iterated_vv_sweep   [(K, s), (J, t)]        op(f_i, g_i)
    mz_sweep            [(K, (r, r, r))]        u(f_i) * u(g_j), every i, j

The MZ surrogates are tensor products of a per-factor map u, which
transforms each factor of a group once.

Each resolution must be twice the one before (one resolution alone is
allowed, none is not).  The sup ratio's behaviour under resolution doubling is
classified as

    BOUNDED-STABLE  sup changes < 10% under one doubling (0 -> 0 is no change)
    DIVERGENT       grows >= 50% per doubling, twice in a row
    UNSTABLE        anything else

These verdicts are evidence about the truncated quadrature at desk scale,
never proof; every report carries that caveat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .applications import bht_plan, bht_vv_plan, mz_plan
from .errors import DomainError
from .exponents import ExponentLike, as_exponent, harmonic_sum
from .grid import Grid
from .gridfn import (
    FamilySpec,
    GridFunction,
    bht,
    hilbert,
    make_family,
    measure_norm,
)
from .weights import GridWeight, PowerWeight, power_in_class

__all__ = [
    "RatioReport",
    "ratio_sweep",
    "vv_sweep",
    "iterated_vv_sweep",
    "mz_sweep",
]

EVIDENCE_CAVEAT = (
    "empirical verdict from truncated quadrature at desk scale: evidence, not proof"
)

STABLE_TOL = 0.10
DIVERGENT_GROWTH = 1.5


# --------------------------------------------------------------------------
# weight descriptors (realized per resolution)
# --------------------------------------------------------------------------

def realize_weight(desc, grid: Grid) -> GridWeight:
    if desc == "unit":
        return GridWeight.unit(grid)
    if isinstance(desc, PowerWeight):
        return desc.on_grid(grid)
    if callable(desc):
        return desc(grid)
    raise DomainError(f"cannot realize weight descriptor {desc!r}")


def _describe_weight(desc) -> str:
    if desc == "unit":
        return "unit"
    if isinstance(desc, PowerWeight):
        return f"power:{desc.alpha}"
    return str(desc)


# --------------------------------------------------------------------------
# reports and verdicts
# --------------------------------------------------------------------------


@dataclass
class RatioReport:
    op: str
    ratios: list  # per-member ratios at the finest resolution
    sup_ratio: float
    resolutions: list
    sup_by_resolution: list
    stability: float  # |g - 1| for the last doubling (0.0 if single resolution)
    verdict: str
    skipped: list
    seed: int
    config: dict
    caveat: str = EVIDENCE_CAVEAT


def _verdict(sups: list) -> tuple[str, float]:
    if len(sups) < 2:
        return "UNSTABLE", 0.0
    # 0 -> 0 is no growth, 0 -> positive unbounded growth
    growths = [b / a if a > 0 else float("inf") if b > 0 else 1.0 for a, b in zip(sups, sups[1:])]
    if len(growths) >= 2 and growths[-1] >= DIVERGENT_GROWTH and growths[-2] >= DIVERGENT_GROWTH:
        return "DIVERGENT", abs(growths[-1] - 1.0)
    stability = abs(growths[-1] - 1.0)
    if stability < STABLE_TOL:
        return "BOUNDED-STABLE", stability
    return "UNSTABLE", stability


# --------------------------------------------------------------------------
# operators by name
# --------------------------------------------------------------------------


def _tensor(u):
    """The group map of the surrogate u(f) * u(g): u(f_i) * u(g_j) for every
    pair of the group, i outer, j inner, with each factor transformed once."""

    def products(grp):
        us = [u(f).samples for f, _ in grp]
        vs = [u(g).samples for _, g in grp]
        return [a * b for a in us for b in vs]

    return products


# Lambdas, not the functions themselves: each call looks `bht` / `hilbert`
# up in this module, so a patched attribute (perfbench's --trace) sees it.
_OPS = {
    "bht": lambda grp: [bht(f, g).samples for f, g in grp],
    "product": lambda grp: [(f * g).samples for f, g in grp],
}
_MZ_OPS = {
    "tensor-hilbert": _tensor(lambda f: hilbert(f)),
    "product-identity": _tensor(lambda f: f),
}
SURROGATES = tuple(_MZ_OPS)


def _aggregate(values: list[np.ndarray], s: float) -> np.ndarray:
    """l^s aggregation across a member list; len == 1 skips the power
    round-trip so single-member aggregation is bitwise the scalar path."""
    if len(values) == 1:
        return np.abs(values[0])
    acc = np.zeros_like(np.abs(values[0]))
    for v in values:
        acc += np.abs(v) ** s
    return acc ** (1.0 / s)


# --------------------------------------------------------------------------
# the sweep engine
# --------------------------------------------------------------------------


def _block_arrays(op, block, levels):
    """(op output, f, g) samples of one block, aggregated through `levels`."""
    inner = levels[0][0]
    outs = [a for k in range(0, len(block), inner) for a in op(block[k : k + inner])]
    cols = [outs, [f.samples for f, _ in block], [g.samples for _, g in block]]
    for size, (s1, s2, s_out) in levels:
        # a group of `size` members gave `size` outputs, or size**2 if a tensor product
        widths = (len(cols[0]) * size // len(cols[1]), size, size)
        cols = [
            [_aggregate(col[k : k + m], s) for k in range(0, len(col), m)]
            for col, m, s in zip(cols, widths, (s_out, s1, s2))
        ]
    return [col[0] for col in cols]


def _sweep(op, op_name, exps, weights, spec, seed, resolutions, L, config, levels) -> RatioReport:
    """The one per-resolution loop behind every sweep.

    `exps` = (q1, q2, q): the factor and target norm exponents; `weights`
    = (w1, w2) descriptors; `op` and `levels` as in the module docstring.
    """
    if not resolutions or any(b != 2 * a for a, b in zip(resolutions, resolutions[1:])):
        raise DomainError(f"resolutions must be nonempty, each twice the one before, got {list(resolutions)}")
    if any(n < 1 for n, _ in levels):
        raise DomainError(f"block sizes must be >= 1, got {[n for n, _ in levels]}")
    levels = [(n, tuple(float(e.frac) for e in es)) for n, es in levels]
    q1, q2, q = exps
    size = math.prod(n for n, _ in levels)
    if size > spec.count:
        raise DomainError(f"block size {size} exceeds the family count {spec.count}: nothing to measure")
    sups, ratios, skipped = [], [], []
    for N in resolutions:
        grid = Grid(L, N)
        members = make_family(spec, seed, grid).members
        w1, w2 = (realize_weight(d, grid) for d in weights)
        # the densities w^p that `weighted_norm` would take, once per resolution
        v, v1, v2 = (wt.power(p.frac) for wt, p in ((w1 * w2, q), (w1, q1), (w2, q2)))
        ratios, skipped = [], []
        for idx, k in enumerate(range(0, len(members) - size + 1, size)):
            out, f, g = (
                GridFunction(a, grid)
                for a in _block_arrays(op, members[k : k + size], levels)
            )
            num = measure_norm(out, v, q)
            d1 = measure_norm(f, v1, q1)
            d2 = measure_norm(g, v2, q2)
            if d1 == 0 or d2 == 0:
                skipped.append(idx)
                continue
            ratios.append(num / (d1 * d2))
        sups.append(max(ratios) if ratios else 0.0)
    verdict, stability = _verdict(sups)
    return RatioReport(
        op=op_name,
        ratios=ratios,
        sup_ratio=sups[-1],
        resolutions=list(resolutions),
        sup_by_resolution=sups,
        stability=stability,
        verdict=verdict,
        skipped=skipped,
        seed=seed,
        config=config,
    )


# --------------------------------------------------------------------------
# sweeps
# --------------------------------------------------------------------------


def ratio_sweep(
    op,
    q1: ExponentLike,
    q2: ExponentLike,
    w1_desc,
    w2_desc,
    family_spec: FamilySpec,
    *,
    seed: int = 7,
    resolutions,
    L: float = 8.0,
) -> RatioReport:
    """Scalar ratio sweep of a bilinear operator against factor norms,
    with the target norm exponent q = (1/q1 + 1/q2)^(-1).

    `op` is "bht" or "product".  For "bht" the (q1, q2) pair is
    certified through the scalar planner before sweeping, and power weights
    are checked against its class windows; the verdict of that check is
    recorded (sweeps against out-of-class weights are legitimate divergence
    probes, so membership failure is noted, not fatal).
    """
    if op not in _OPS:
        raise DomainError(f"unknown operator {op!r}")
    q1, q2 = as_exponent(q1), as_exponent(q2)
    plan = bht_plan(q1, q2) if op == "bht" else None
    q = plan.q if plan else harmonic_sum([q1, q2])
    config = {
        "q1": q1,
        "q2": q2,
        "q": q,
        "w1": _describe_weight(w1_desc),
        "w2": _describe_weight(w2_desc),
        "family": family_spec.kind,
        "count": family_spec.count,
        "L": L,
        "weights_in_class": _class_check(plan, w1_desc, w2_desc),
    }
    return _sweep(
        _OPS[op], op, (q1, q2, q), (w1_desc, w2_desc), family_spec,
        seed, resolutions, L, config, [(1, (q1, q2, q))],
    )


def _class_check(plan, w1_desc, w2_desc):
    """Closed-form membership of power-weight factors in the planned classes."""
    if plan is None or not (isinstance(w1_desc, PowerWeight) and isinstance(w2_desc, PowerWeight)):
        return None
    ok = True
    for desc, spec, qi in (
        (w1_desc, plan.weight_specs[0], plan.q1),
        (w2_desc, plan.weight_specs[1], plan.q2),
    ):
        powered = PowerWeight(desc.alpha * qi.frac)  # class is on w_i^{q_i}
        ok = ok and power_in_class(powered, spec)
    return ok


def vv_sweep(
    q1: ExponentLike,
    q2: ExponentLike,
    s1: ExponentLike,
    s2: ExponentLike,
    w1_desc,
    w2_desc,
    family_spec: FamilySpec,
    *,
    K: int,
    seed: int = 7,
    resolutions,
    L: float = 8.0,
) -> RatioReport:
    """l^s-aggregated sweep over K-member blocks of the family.

    K = 1 reproduces :func:`ratio_sweep` bit for bit (the aggregation path
    degenerates to the scalar one).  Feasibility of the (q, s) tuple is
    certified through the vector-valued planner before sweeping.
    """
    plan = bht_vv_plan(q1, q2, s1, s2)
    config = {
        "q1": plan.q1,
        "q2": plan.q2,
        "s1": plan.s1,
        "s2": plan.s2,
        "K": K,
        "w1": _describe_weight(w1_desc),
        "w2": _describe_weight(w2_desc),
        "family": family_spec.kind,
        "L": L,
    }
    return _sweep(
        _OPS["bht"], "bht", (plan.q1, plan.q2, plan.q), (w1_desc, w2_desc), family_spec,
        seed, resolutions, L, config, [(K, (plan.s1, plan.s2, plan.s))],
    )


def iterated_vv_sweep(
    ts,
    ss,
    qs,
    family_spec: FamilySpec,
    *,
    J: int,
    K: int,
    seed: int = 7,
    resolutions,
    L: float = 8.0,
) -> RatioReport:
    """Doubly aggregated sweep: outer l^t over J blocks of inner l^s over K.

    With t = s the nested aggregation collapses to one flat l^s aggregation
    over J*K members (norm identity, checked in tests to 1e-12).
    """
    inner = bht_vv_plan(*qs, *ss)
    outer = bht_vv_plan(*qs, *ts)
    config = {
        "t": [outer.s1, outer.s2],
        "s": [inner.s1, inner.s2],
        "q": [inner.q1, inner.q2],
        "J": J,
        "K": K,
        "family": family_spec.kind,
        "L": L,
    }
    return _sweep(
        _OPS["bht"], "bht", (inner.q1, inner.q2, inner.q), ("unit", "unit"),
        family_spec, seed, resolutions, L, config,
        [(K, (inner.s1, inner.s2, inner.s)), (J, (outer.s1, outer.s2, outer.s))],
    )


def mz_sweep(
    qjs,
    r: ExponentLike,
    wjs,
    family_spec: FamilySpec,
    surrogate: str = "tensor-hilbert",
    *,
    seed: int = 7,
    resolutions,
    K: int,
    L: float = 8.0,
) -> RatioReport:
    """l^r Marcinkiewicz-Zygmund aggregation over a K x K double index,
    using a surrogate bilinear operator (m = 2 coordinates).

    The surrogate is the tensor product u(f_i) * u(g_j) of a per-factor map
    u (the Hilbert transform or the identity); each factor of a K-block is
    transformed once, and its K x K products are formed from those.

    The plan (weight classes, range endpoints, r in (1,2)) is validated by
    :func:`mz_plan` first; r = 2 runs as the base case.
    """
    if len(qjs) != 2 or len(wjs) != 2:
        raise DomainError("the sweep drives two coordinates (m = 2)")
    data = mz_plan(qjs, r)["data"]  # raises Infeasible when r is outside (1, 2) u {2}
    if surrogate not in SURROGATES:
        raise DomainError(f"unknown surrogate {surrogate!r}; expected one of {SURROGATES}")
    r = data["r"]
    config = {
        "q": data["q"],
        "r": r,
        "surrogate": surrogate,
        "K": K,
        "base_case": data["base_case"],
        "family": family_spec.kind,
        "L": L,
    }
    return _sweep(
        _MZ_OPS[surrogate], f"mz:{surrogate}", (*data["q"], data["aggregate_q"]), wjs, family_spec,
        seed, resolutions, L, config, [(K, (r, r, r))],
    )
