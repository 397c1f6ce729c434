"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from corpus import (
    admissible_q_pairs,
    admissible_section5_tuples,
    case1_scenarios,
    range_tuples,
)
from extrapkit.applications import (
    bht_base_class,
    bht_plan,
    bht_power_range,
    bht_vv_power_range,
    section5_plan,
    section5_weight_classes,
)
from extrapkit.exponents import Exponent, WeightClassSpec, cjn_index, power_membership, rec
from extrapkit.extrapolation import Case, proof_exponents
from extrapkit.grid import Grid
from extrapkit.gridfn import (
    FamilySpec,
    GridFunction,
    bht,
    hilbert,
    make_family,
    maximal,
)
from extrapkit.rdf import build_proof_objects
from extrapkit.verifier import mz_sweep, ratio_sweep
from extrapkit.weights import PowerWeight, estimate_class_constants

HALF = Fraction(1, 2)


def report(num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_01_exact_identities():
    t0 = time.monotonic()
    tuples = range_tuples(515151, 1000)
    cases = set()
    for rng, p in tuples:
        pe = proof_exponents(rng, p)  # raises on any inexact identity
        cases.add(pe.case)
        assert {"exp1", "exp2", "exp3", "s1=s2"} <= set(pe.certified)
    elapsed = time.monotonic() - t0
    ok = cases == {Case.I, Case.II, Case.III} and elapsed < 5.0
    report(1, ok, f"exp1-exp3 and s1=s2 exact on 1000 tuples "
                  f"(cases {sorted(c.value for c in cases)}) in {elapsed:.2f}s < 5s")


def test_criterion_02_case1_structure():
    tuples = range_tuples(515151, 1000)
    n_case1 = 0
    for rng, p in tuples:
        pe = proof_exponents(rng, p)
        assert 0 < pe.s <= min(pe.q, rng.q0.frac)
        if pe.case is Case.I:
            n_case1 += 1
            assert pe.s < min(pe.q, rng.q0.frac)
            assert pe.phi > 1
    report(2, n_case1 > 0, f"0<s<min(q,q0) and phi>1 exact on {n_case1} Case-I tuples")


def test_criterion_03_bht_planner():
    pairs = admissible_q_pairs(2024, 1000)
    for q1, q2 in pairs:
        plan = bht_plan(q1, q2)
        assert rec(plan.p1) + rec(plan.p2) < 1
        for i, q in enumerate((plan.q1, plan.q2)):
            assert plan.r_minus[i] < q < plan.r_plus[i]
    ref = bht_plan(2, 2)
    exact = (
        ref.p1 == Exponent(4)
        and ref.p2 == Exponent(4)
        and ref.eta1 == Fraction(1, 8)
        and ref.eta2 == Fraction(1, 8)
        and ref.r_minus == (Exponent(Fraction(8, 5)), Exponent(Fraction(8, 5)))
        and ref.r_plus == (Exponent(8), Exponent(8))
    )
    report(3, exact, "1000 plans: 1/p<1, r-<q<r+ exact; (2,2) -> p=4, eta=1/8, "
                     "r-=8/5, r+=8 bit-exact")


def test_criterion_04_power_ranges():
    for q1, q2 in admissible_q_pairs(7, 1000):
        pr = bht_power_range(q1, q2)
        assert pr.a_minus <= 0 and pr.a_plus >= HALF  # window contains [0, 1/2)
    exact = True
    for t in (Fraction(9, 8), Fraction(3, 2), Fraction(15, 8)):
        pr = bht_vv_power_range(2, 2, 2, t)
        exact = exact and pr.a_minus == 0 and pr.a_plus == 2 * (1 - 1 / t)
    report(4, exact, "scalar window contains [0,1/2) on 1000 pairs; "
                     "vv window at (2,2,2,t) is [0, 2(1-1/t)) exact")


def test_criterion_05_section5_system():
    # recovery configuration: theta = (1/2, 1/2, 1/2) reproduces the base classes
    recovered = True
    for p1, p2 in ((4, 4), (3, 5), (Fraction(7, 2), Fraction(12, 5)), (6, Fraction(9, 4))):
        specs, _, _, _ = section5_weight_classes(p1, p2, (HALF, HALF, HALF))
        recovered = recovered and specs == bht_base_class(p1, p2)
    count = 0
    for tup in admissible_section5_tuples(606, 500):
        plan = section5_plan(*tup)
        c1 = plan.theta1 * (1 - rec(plan.p1))
        c2 = plan.theta2 * (1 - rec(plan.p2))
        c3 = plan.theta3 * rec(plan.p)
        assert c1 <= HALF and c2 <= HALF and c3 <= HALF and c1 + c2 + c3 == 1
        for i, (q, s) in enumerate(((tup[0], tup[2]), (tup[1], tup[3]))):
            assert rec(plan.r_plus[i]) < min(rec(q), rec(s))     # strict
            assert max(rec(q), rec(s)) < rec(plan.r_minus[i])    # strict
        count += 1
    report(5, recovered and count == 500,
           f"theta=(1/2,1/2,1/2) recovery + {count} seeded tuples: "
           "sum-to-1 exact, needed-finish strict")


def test_criterion_06_weight_calculus():
    t0 = time.monotonic()
    import random

    rnd = random.Random(911)
    for _ in range(1000):
        p = 1 + Fraction(rnd.randint(0, 40), 8)
        s = 1 + Fraction(rnd.randint(0, 24), 8)
        alpha = Fraction(rnd.randint(-40, 40), 16)
        q = cjn_index(p, s)
        lhs = power_membership(alpha, WeightClassSpec(p, s))[0]
        a_s = alpha * s
        rhs = (Fraction(-1) < a_s <= 0) if q == 1 else (Fraction(-1) < a_s < q.frac - 1)
        assert lhs == rhs

    # in-range stability, depths 10 -> 12 at N = 2^14
    w = PowerWeight(Fraction(1, 4)).on_grid(Grid(8.0, 2**14))
    spec = WeightClassSpec(2, 2)
    e10 = estimate_class_constants(w, spec, 10)[-1]
    e12 = estimate_class_constants(w, spec, 12)[-1]
    stable = e12[0] / e10[0] <= 1.05 and e12[1] / e10[1] <= 1.05

    # out-of-range probes: >= 1.5x per depth increment for 4 increments
    # (coupled refinement study; rate 2^(alpha-(p-1)) per halving)
    divergent = True
    for alpha in (Fraction(2), Fraction(5, 2)):
        prev = None
        for d in range(6, 11):
            wd = PowerWeight(alpha).on_grid(Grid(8.0, 2 ** (d + 2)))
            ap, _ = estimate_class_constants(wd, spec, d)[-1]
            if prev is not None:
                divergent = divergent and ap / prev >= 1.5
            prev = ap
    elapsed = time.monotonic() - t0
    ok = stable and divergent and elapsed < 60.0
    report(6, ok, f"cjn vs closed form 1000 exact; stability "
                  f"{e12[0]/e10[0]:.4f}/{e12[1]/e10[1]:.4f} <= 1.05; "
                  f"divergence >= 1.5x/depth x4; {elapsed:.1f}s < 60s")


def test_criterion_07_operator_oracles():
    g = Grid(8.0, 2**14)
    x = g.x()

    chi = GridFunction.indicator(0.0, 1.0, g)
    truth = np.where((x >= 0) & (x <= 1), 1.0, np.where(x > 1, 1 / x, 1 / (1 - x)))
    m_err = float(np.max(np.abs(maximal(chi).samples - truth)))

    a, b = -1.0, 1.0
    chi_ab = GridFunction.indicator(a, b, g)
    h_truth = (1 / np.pi) * np.log(np.abs((x - a) / (x - b)))
    mid = (x >= a + (b - a) / 4) & (x <= b - (b - a) / 4)
    got = hilbert(chi_ab).samples
    h_err = float(np.linalg.norm(got[mid] - h_truth[mid]) / np.linalg.norm(h_truth[mid]))

    def bump(x, c, wd):
        u = (x - c) / wd
        out = np.zeros_like(x)
        m = np.abs(u) < 1
        out[m] = np.exp(1 - 1 / (1 - u[m] ** 2))
        return out

    f = GridFunction(bump(x, 0.0, 1.0), g)
    window = GridFunction(((x >= -5.5) & (x <= 5.5)).astype(float), g)
    mid_f = np.abs(x) <= 0.5
    B = bht(f, window).samples
    piH = np.pi * hilbert(f).samples
    w_err = float(np.linalg.norm(B[mid_f] - piH[mid_f]) / np.linalg.norm(piH[mid_f]))

    am, bm = -20.0, 20.0
    wv = bump(x, 0.0, 1.0)
    fm = GridFunction(wv * np.exp(1j * am * x), g)
    gm = GridFunction(wv * np.exp(1j * bm * x), g)
    pred = 1j * np.pi * np.sign(bm - am) * np.exp(1j * (am + bm) * x) * wv**2
    Bm = bht(fm, gm).samples
    mod_err = float(np.linalg.norm(Bm[mid_f] - pred[mid_f]) / np.linalg.norm(pred[mid_f]))

    # swap identity from the t -> -t substitution: BH(g, f) = -BH(f, g),
    # exact under the paired-cell quadrature
    f2 = GridFunction(bump(x, 0.4, 0.6), g)
    swap = bht(f2, f).samples
    base = bht(f, f2).samples
    sym_err = float(np.max(np.abs(swap + base)) / np.max(np.abs(base)))

    ok = m_err <= 0.02 and h_err <= 0.01 and w_err <= 0.02 and mod_err <= 0.05 and sym_err <= 1e-10
    report(7, ok, f"M-chi sup {m_err:.4f}<=2%; H-chi L2 {h_err:.4f}<=1%; "
                  f"BH-window {w_err:.4f}<=2%; modulation {mod_err:.4f}<=5%; "
                  f"swap {sym_err:.1e}<=1e-10")


def test_criterion_08_rdf_certificates():
    scenarios = case1_scenarios(1000, 50)
    assert len(scenarios) == 50
    weights = [None, Fraction(1, 8), Fraction(-1, 8), Fraction(1, 4)]
    grid = Grid(4.0, 2**9)
    n_pass = 0
    for i, (rng, p, pe) in enumerate(scenarios):
        fam = make_family(FamilySpec("smooth-bumps", count=1, arity=2), 100 + i, grid)
        f, gfn = fam.members[0][0].abs(), fam.members[0][1].abs()
        alpha = weights[i % len(weights)]
        w = PowerWeight(alpha or 0).on_grid(grid)
        po = build_proof_objects(f, gfn, w, pe, rng, p)
        for tag in ("H1-norm", "H1-f", "H1-pt3", "H2-norm", "H2-pt"):
            assert po.certificates[tag]["ok"], (i, tag)
        # R G >= G exactly, ||R G|| <= 2 ||G|| within 1%
        assert po.certificates["R1-majorant"]["max_violation"] <= 0
        assert po.certificates["R2-majorant"]["max_violation"] <= 0
        assert po.r1.output_norm <= 2 * po.r1.term_norms[0] * 1.01
        assert po.r2.output_norm <= 2 * po.r2.term_norms[0] * 1.01
        # M(RG) <= 4B (RG + T_K) with the exact maximal, to 1e-9
        assert po.certificates["R1-A1"]["ok"] and po.certificates["R2-A1"]["ok"], i
        n_pass += 1
    report(8, n_pass == 50, f"five H-certificates at <=1% slack, RG>=G exact, "
                            f"||RG||<=2||G|| within 1%, M(RG)<=4B(RG+T_K) "
                            f"on {n_pass}/50 scenarios")


def test_criterion_09_verification_sweeps():
    t0 = time.monotonic()
    fam = FamilySpec("smooth-bumps", count=64, arity=2)
    res = (2**12, 2**13)
    runs = {}
    runs["unweighted"] = ratio_sweep([2, 2], [PowerWeight(0)] * 2, fam, seed=7, resolutions=res)
    for a in (Fraction(1, 4), Fraction(2, 5)):
        runs[f"a={a}"] = ratio_sweep([2, 2], [PowerWeight(-a / 2)] * 2, fam, seed=7, resolutions=res)
    # the Hoelder baseline: the plain product f g, the product-identity surrogate at r = 2 and K = 1
    holder = mz_sweep([2, 2], 2, [PowerWeight(0)] * 2, fam, "product-identity", K=1,
                      seed=7, resolutions=res)
    elapsed = time.monotonic() - t0
    ok = (
        all(r.verdict == "BOUNDED-STABLE" for r in runs.values())
        and all(r.config["weights_in_class"] in (None, True) for r in runs.values())
        and holder.sup_ratio <= 1 + 1e-10
        and elapsed < 600.0
    )
    detail = ", ".join(f"{k}:{r.verdict}@{r.sup_ratio:.3f}" for k, r in runs.items())
    report(9, ok, f"{detail}; holder sup {holder.sup_ratio:.12f}<=1+1e-10; "
                  f"{elapsed:.0f}s < 600s")


def test_criterion_10_coherence():
    from extrapkit.verifier import iterated_vv_sweep, vv_sweep

    fam = FamilySpec("smooth-bumps", count=8, arity=2)
    res = (1024, 2048)
    scalar = ratio_sweep([2, 2], [PowerWeight(0)] * 2, fam, seed=5, resolutions=res)
    vv1 = vv_sweep([2, 2], [2, 2], [PowerWeight(0)] * 2, fam, K=1, seed=5, resolutions=res)
    bit_exact = scalar.ratios == vv1.ratios and scalar.sup_by_resolution == vv1.sup_by_resolution

    fam16 = FamilySpec("smooth-bumps", count=16, arity=2)
    nested = iterated_vv_sweep((2, 2), (2, 2), (2, 2), fam16, J=2, K=2,
                               seed=7, resolutions=(1024,))
    flat = vv_sweep([2, 2], [2, 2], [PowerWeight(0)] * 2, fam16, K=4, seed=7, resolutions=(1024,))
    max_diff = max(abs(a - b) for a, b in zip(nested.ratios, flat.ratios))
    ok = bit_exact and max_diff <= 1e-12 and len(nested.ratios) == len(flat.ratios) > 0
    report(10, ok, f"vv(K=1) == ratio_sweep bit-exact: {bit_exact}; "
                   f"iterated t=s vs flat max diff {max_diff:.2e} <= 1e-12")
