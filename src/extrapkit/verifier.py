"""Empirical ratio sweeps for weighted scalar / vector-valued /
Marcinkiewicz-Zygmund inequalities on seeded families.

All four sweeps run through one engine.  At each resolution in turn it
realizes a deterministic test family and the weights, groups consecutive
members into blocks, aggregates each block through an aggregation tree,
and computes the ratio

    || op(members) ||_target / product of factor norms

per block, with the exponents `exps` = (q_1, ..., q_m, q) of the m factor
norms and the target norm read from the caller's plan (1/q = sum of 1/q_j).
The tree is a list of levels from the inside out, each (size, (s_1, ...,
s_m, s_out)) with exponents from the plan: a level takes the l^s_j /
l^s_out norm of `size` consecutive entries of the f_j / op-output columns.
A block holds the product of the sizes; a trailing partial block is
dropped.  The operator is a group map: it takes an innermost group of
(f_1, ..., f_m) members and yields its output samples in aggregation order.

    sweep               levels                  op output per group
    ratio_sweep         [(1, q)]                bht(f_i, g_i)
    vv_sweep            [(K, s)]                bht(f_i, g_i)
    iterated_vv_sweep   [(K, s), (J, t)]        bht(f_i, g_i)
    mz_sweep            [(K, (r, ..., r))]      u(f_{1,i_1}) ... u(f_{m,i_m}), every i_1, ..., i_m

Every sweep takes the factor exponents (q_1, ..., q_m) first, then the
aggregation exponents, then the m factor weights, then the family.  The
Hoelder baseline, the plain product f g against the factor norms, is the
`product-identity` surrogate of :func:`mz_sweep` with r = 2 and K = 1.

The MZ surrogates are tensor products of a per-factor map u, which
transforms each factor of a group once; a block holds O(m K) arrays at a
time, never its K^m products.

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

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .applications import bht_plan, bht_vv_plan, mz_plan
from .errors import DomainError
from .exponents import ExponentLike, power_membership
from .grid import Grid
from .gridfn import FamilySpec, GridFunction, bht, hilbert, make_family, measure_norm
from .weights import PowerWeight

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
# group maps
# --------------------------------------------------------------------------


def _bht(grp):
    # looks `bht` up in this module at each call, so a patched attribute (perfbench's --trace) sees it
    return (bht(f, g).samples for f, g in grp)


def _tensor(u):
    """The group map of the surrogate u(f_1) ... u(f_m): it yields the product over
    every m-tuple of the group, first factor outermost, each factor transformed once
    and each prefix product formed once, in the left fold of `reduce(operator.mul, t)`."""

    def products(grp):
        cols = [[u(f).samples for f in col] for col in zip(*grp)]
        return functools.reduce(lambda ps, col: (p * a for p in ps for a in col), cols[1:], cols[0])

    return products


# A lambda, not `hilbert` itself, for the call-time lookup that `_bht` makes.
_MZ_OPS = {
    "tensor-hilbert": _tensor(lambda f: hilbert(f)),
    "product-identity": _tensor(lambda f: f),
}
SURROGATES = tuple(_MZ_OPS)


def _aggregate(values, s: float) -> np.ndarray:
    """l^s aggregation of arrays, adding |v|^s as each arrives; one value skips the
    power round-trip so single-member aggregation is bitwise the scalar path."""
    values = iter(values)
    first, second = np.abs(next(values)), next(values, None)
    if second is None:
        return first
    acc = first**s + np.abs(second) ** s  # the sum from 0.0, since 0.0 + x == x
    for v in values:
        acc += np.abs(v) ** s
    return acc ** (1.0 / s)


# --------------------------------------------------------------------------
# the sweep engine
# --------------------------------------------------------------------------


def _block_arrays(op, block, levels):
    """(op output, f_1, ..., f_m) samples of one block, aggregated through `levels`: level 0
    sums each innermost group's outputs as the group map yields them, and its members."""
    (inner, (*ss, s_out)), *outer = levels
    groups = (block[k : k + inner] for k in range(0, len(block), inner))
    cols = zip(*(
        [_aggregate(op(g), s_out), *(_aggregate([f.samples for f in c], s) for c, s in zip(zip(*g), ss))]
        for g in groups
    ))
    for size, (*ss, s_out) in outer:
        cols = [
            [_aggregate(col[k : k + size], s) for k in range(0, len(col), size)]
            for col, s in zip(cols, (s_out, *ss))
        ]
    return [col[0] for col in cols]


def _sweep(op, op_name, exps, weights, spec, seed, resolutions, L, config, levels) -> RatioReport:
    """The one per-resolution loop behind every sweep.

    `exps` = (q_1, ..., q_m, q): the factor and target norm exponents;
    `weights` = m PowerWeights; `op` and `levels` as in the module docstring.
    """
    *qs, q = exps
    if not len(weights) == len(qs) == spec.arity:
        raise DomainError(f"need one weight and one family factor for each of the {len(qs)} targets")
    if not resolutions or any(b != 2 * a for a, b in zip(resolutions, resolutions[1:])):
        raise DomainError(f"resolutions must be nonempty, each twice the one before, got {list(resolutions)}")
    if any(n < 1 for n, _ in levels):
        raise DomainError(f"block sizes must be >= 1, got {[n for n, _ in levels]}")
    levels = [(n, tuple(float(e.frac) for e in es)) for n, es in levels]
    size = math.prod(n for n, _ in levels)
    if size > spec.count:
        raise DomainError(f"block size {size} exceeds the family count {spec.count}: nothing to measure")
    sups, ratios, skipped = [], [], []
    for N in resolutions:
        grid = Grid(L, N)
        members = make_family(spec, seed, grid).members
        ws = [d.on_grid(grid) for d in weights]
        # the densities w^p that `weighted_norm` would take, once per resolution
        v = functools.reduce(operator.mul, ws).power(q.frac)
        vs = [wt.power(p.frac) for wt, p in zip(ws, qs)]
        ratios, skipped = [], []
        for idx, k in enumerate(range(0, len(members) - size + 1, size)):
            block = _block_arrays(op, members[k : k + size], levels)
            out, *fs = (GridFunction(a, grid) for a in block)
            num = measure_norm(out, v, q)
            ds = [measure_norm(f, vj, qj) for f, vj, qj in zip(fs, vs, qs)]
            if 0 in ds:
                skipped.append(idx)
                continue
            ratios.append(num / math.prod(ds))
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
    qs,
    ws,
    family_spec: FamilySpec,
    *,
    seed: int = 7,
    resolutions,
    L: float = 8.0,
) -> RatioReport:
    """Scalar ratio sweep of the bilinear Hilbert transform against the factor
    norms, with the target norm exponent q = (1/q1 + 1/q2)^(-1).

    The targets qs = (q1, q2) are certified through the scalar planner before
    sweeping, and the weights ws = (w1, w2) are checked against its class
    windows; the verdict of that check is recorded (sweeps against out-of-class
    weights are legitimate divergence probes, so membership failure is noted,
    not fatal).  The weights are :class:`PowerWeight`s; alpha = 0 is the unit
    weight, reported as `unit`, and with it `weights_in_class` is None (null in
    JSON).
    """
    plan = bht_plan(*qs)
    config = {
        "q1": plan.q1,
        "q2": plan.q2,
        "q": plan.q,
        **{f"w{j}": str(w) for j, w in enumerate(ws, 1)},
        "family": family_spec.kind,
        "count": family_spec.count,
        "L": L,
        "weights_in_class": _class_check(plan, ws),
    }
    exps = (plan.q1, plan.q2, plan.q)
    return _sweep(_bht, "bht", exps, ws, family_spec, seed, resolutions, L, config, [(1, exps)])


def _class_check(plan, ws):
    """Closed-form membership of the factor weights in the planned classes;
    None with a unit weight."""
    if not all(w.alpha for w in ws):
        return None
    pairs = zip(ws, plan.weight_specs, (plan.q1, plan.q2))
    return all(power_membership(w.alpha * qi.frac, spec)[0] for w, spec, qi in pairs)  # class is on w_i^{q_i}


def vv_sweep(
    qs,
    ss,
    ws,
    family_spec: FamilySpec,
    *,
    K: int,
    seed: int = 7,
    resolutions,
    L: float = 8.0,
) -> RatioReport:
    """l^s-aggregated sweep over K-member blocks of the family.

    K = 1 reproduces :func:`ratio_sweep` bit for bit (the aggregation path
    degenerates to the scalar one).  Feasibility of the targets qs = (q1, q2)
    with ss = (s1, s2) is certified through the vector-valued planner before
    sweeping.  The weights ws = (w1, w2) are :class:`PowerWeight`s, as in
    :func:`ratio_sweep`; alpha = 0 is the unit weight, reported as `unit`.
    """
    plan = bht_vv_plan(*qs, *ss)
    config = {
        "q1": plan.q1,
        "q2": plan.q2,
        "s1": plan.s1,
        "s2": plan.s2,
        "K": K,
        **{f"w{j}": str(w) for j, w in enumerate(ws, 1)},
        "family": family_spec.kind,
        "L": L,
    }
    return _sweep(
        _bht, "bht", (plan.q1, plan.q2, plan.q), ws, family_spec,
        seed, resolutions, L, config, [(K, (plan.s1, plan.s2, plan.s))],
    )


def iterated_vv_sweep(
    qs,
    ss,
    ts,
    family_spec: FamilySpec,
    *,
    J: int,
    K: int,
    seed: int = 7,
    resolutions,
    L: float = 8.0,
) -> RatioReport:
    """Doubly aggregated sweep with unit weights: outer l^t over J blocks of
    inner l^s over K, for the targets qs = (q1, q2), ss = (s1, s2) and
    ts = (t1, t2).

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
        _bht, "bht", (inner.q1, inner.q2, inner.q), (PowerWeight(0), PowerWeight(0)),
        family_spec, seed, resolutions, L, config,
        [(K, (inner.s1, inner.s2, inner.s)), (J, (outer.s1, outer.s2, outer.s))],
    )


def mz_sweep(
    qs,
    r: ExponentLike,
    ws,
    family_spec: FamilySpec,
    surrogate: str = "tensor-hilbert",
    *,
    seed: int = 7,
    resolutions,
    K: int,
    L: float = 8.0,
) -> RatioReport:
    """l^r Marcinkiewicz-Zygmund aggregation over the K^m multi-index of an
    m-linear surrogate, m = len(qs).

    The surrogate is the tensor product u(f_{1,i_1}) ... u(f_{m,i_m}) of a
    per-factor map u (the Hilbert transform or the identity); each factor of
    a K-block is transformed once, and its K^m products are summed one by one.
    `product-identity` at r = 2 and K = 1 is the Hoelder baseline.

    The plan (weight classes, range endpoints, r in (1,2)) is validated by
    :func:`mz_plan` first; r = 2 runs as the base case.  `ws` has one
    :class:`PowerWeight` per target (alpha = 0 the unit); the report omits them.
    """
    data = mz_plan(qs, r)["data"]  # raises Infeasible when r is outside (1, 2) u {2}
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
        _MZ_OPS[surrogate], f"mz:{surrogate}", (*data["q"], data["aggregate_q"]), ws, family_spec,
        seed, resolutions, L, config, [(K, (r,) * (len(qs) + 1))],
    )
