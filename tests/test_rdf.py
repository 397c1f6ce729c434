import dataclasses
import json

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import assume, given
from hypothesis import strategies as st

from corpus import case1_scenarios
from extrapkit.errors import CertificationFailed, DomainError, NormBoundTooSmall
from extrapkit.exponents import Exponent
from extrapkit.extrapolation import ExtrapolationRange, proof_exponents
from extrapkit.grid import Grid
from extrapkit.gridfn import FamilySpec, GridFunction, make_family, maximal, measure_norm
from extrapkit import cli, gridfn, rdf
from extrapkit.rdf import (
    build_proof_objects,
    estimate_maximal_norm,
    rdf_iterate,
    verify_case1_weight,
)
from extrapkit.weights import PowerWeight

GRID = Grid(4.0, 2**10)


def _pair(seed=42, grid=GRID):
    fam = make_family(FamilySpec("smooth-bumps", count=1, arity=2), seed, grid)
    return fam.members[0][0].abs(), fam.members[0][1].abs()


# -- iteration ---------------------------------------------------------------


def test_iterate_constant_closed_form():
    # term k is 2.5 * 4^-k, first at most 2^-24 of the input at k = 12,
    # which is dropped, so K = 12 terms are summed
    c = GridFunction(np.full(GRID.N, 2.5), GRID)
    nb = 2.0
    res = rdf_iterate(c, nb, PowerWeight(0).on_grid(GRID), 2)
    assert len(res.term_norms) == 12
    expected = 2.5 * sum((2 * nb) ** -k for k in range(12))
    assert np.allclose(res.function.samples, expected, rtol=1e-12)
    assert np.allclose(res.dropped.samples, 2.5 * (2 * nb) ** -12, rtol=1e-12)
    assert res.a1_ratio == pytest.approx(1.0, abs=1e-9)


def test_iterate_majorizes_input_exactly():
    f, _ = _pair()
    res = rdf_iterate(f, 4.0, PowerWeight(0).on_grid(GRID), 2)
    assert np.all(res.function.samples >= f.samples)


def test_iterate_norm_doubling_bound():
    f, _ = _pair(7)
    w = PowerWeight(Fraction(1, 8)).on_grid(GRID)
    nb = estimate_maximal_norm(2, w, f)
    res = rdf_iterate(f, nb, w, 2)
    assert res.output_norm <= 2.0 * res.term_norms[0] * 1.01


def test_iterate_truncation_control():
    # every summed term k obeys ||S^k G / (2B)^k|| <= 2^-k ||G||, and so
    # does the dropped term T_K
    f, _ = _pair(9)
    w = PowerWeight(0).on_grid(GRID)
    nb = estimate_maximal_norm(2, w, f)
    res = rdf_iterate(f, nb, w, 2)
    K = len(res.term_norms)
    assert 1 < K <= 24 and res.term_norms[0] == measure_norm(f, w, 2) and res.norm_bound == nb
    for k, tn in enumerate(res.term_norms):
        assert tn <= 2.0**-k * res.term_norms[0] * (1 + 1e-6)
    assert measure_norm(res.dropped, w, 2) <= 2.0**-K * res.term_norms[0] * (1 + 1e-6)


SAMPLES = st.sampled_from([0.0, 1e-3, 0.5, 1.0, 7.0, 1e3])


@given(
    st.integers(1, 6).flatmap(lambda k: st.lists(SAMPLES, min_size=2**k, max_size=2**k)),
    st.one_of(st.none(), st.fractions(Fraction(-1, 2), Fraction(1, 2), max_denominator=8)),
    st.sampled_from([Fraction(3, 2), Fraction(2), Fraction(3)]),
)
def test_iterate_sum_is_positive_in_every_cell(values, alpha, p):
    # S G >= mean(G) > 0 in every cell (its longest window covers the grid),
    # and the first term, ||G||/4 with the probed bound, is always added:
    # so mu = R G needs no floor to be a weight
    assume(any(values))
    grid = Grid(4.0, len(values))
    w = PowerWeight(alpha or 0).on_grid(grid)
    G = GridFunction(np.array(values), grid)
    res = rdf_iterate(G, estimate_maximal_norm(p, w, G), w, p)
    assert len(res.term_norms) >= 2 and np.all(res.function.samples > 0)


def test_iterate_a1_ratio_bound():
    # the series runs on S = maximal(., "sliding"): S(RG) <= 2B (RG + T_K);
    # with M <= 2S the exact maximal obeys M(RG) <= 4B (RG + T_K)
    f, _ = _pair(13)
    w = PowerWeight(0).on_grid(GRID)
    nb = estimate_maximal_norm(2, w, f)
    res = rdf_iterate(f, nb, w, 2)
    rg, tail = res.function.samples, res.dropped.samples
    slide = maximal(res.function, "sliding").samples
    exact = maximal(res.function).samples
    assert np.all(slide <= 2.0 * nb * (rg + tail) * (1 + 1e-9))
    assert np.all(exact <= 4.0 * nb * (rg + tail) * (1 + 1e-9))
    assert np.array_equal(res.exact_maximal.samples, exact)
    assert res.a1_ratio == np.max(exact / rg)


def test_iterate_rejects_small_norm_bound():
    f, _ = _pair(21)
    with pytest.raises(NormBoundTooSmall):
        rdf_iterate(f, 1.0, PowerWeight(0).on_grid(GRID), 2)


def test_iterate_rejects_negative_input():
    f = GridFunction(-np.ones(GRID.N), GRID)
    with pytest.raises(DomainError):
        rdf_iterate(f, 2.0, PowerWeight(0).on_grid(GRID), 2)


@pytest.mark.parametrize(
    "norm_bound, exponent", [(0.5, 2), (float("nan"), 2), (2.0, 0), (2.0, "inf")]
)
def test_iterate_rejects_bad_space(norm_bound, exponent):
    f, _ = _pair(5)
    with pytest.raises(DomainError):
        rdf_iterate(f, norm_bound, PowerWeight(0).on_grid(GRID), exponent)


# -- norm estimation -----------------------------------------------------------


def test_estimate_constant_probe_ratio_one():
    # S1 = 1 exactly on the grid, so a constant probe gives the floor, as
    # does the zero probe
    w = PowerWeight(0).on_grid(GRID)
    assert estimate_maximal_norm(2, w, GridFunction(np.full(GRID.N, 3.0), GRID)) == 2.0
    assert estimate_maximal_norm(2, w, GridFunction(np.zeros(GRID.N), GRID)) == 2.0


def test_estimate_stable_under_refinement():
    vals = []
    for n in (2**10, 2**11):
        grid = Grid(4.0, n)
        w = PowerWeight(Fraction(1, 4)).on_grid(grid)
        vals.append([estimate_maximal_norm(2, w, h) for h in _pair(3, grid)])
    for coarse, fine in zip(*vals):
        assert abs(fine / coarse - 1) < 0.10


# -- proof objects ---------------------------------------------------------------


def test_proof_objects_unit_weight_diagonal():
    rng = ExtrapolationRange(1, "inf", 2, 2)
    pe = proof_exponents(rng, 3)
    f, g = _pair(42)
    po = build_proof_objects(f, g, PowerWeight(0).on_grid(GRID), pe, rng, 3)
    assert all(v["ok"] for v in po.certificates.values())
    assert po.C1 == 2.0 ** float(1 + 1 / pe.delta)
    assert po.C2 == 2.0 ** float(1 / pe.beta.frac)
    # h1 norm display: <= 2
    assert po.certificates["h1-norm"]["value"] <= 2.0 * 1.01
    # mu definitions: mu1 = R1(h1^delta w^eps) etc., replayed majorants
    assert np.all(po.h1.samples <= po.H1.samples * (1 + 1e-9))
    assert np.all(po.h2.samples <= po.H2.samples * (1 + 1e-9))


def test_proof_objects_scale_invariance_in_f():
    rng = ExtrapolationRange(1, "inf", 2, 2)
    pe = proof_exponents(rng, 3)
    f, g = _pair(17)
    w = PowerWeight(0).on_grid(GRID)
    po1 = build_proof_objects(f, g, w, pe, rng, 3)
    po2 = build_proof_objects(f * 10.0, g, w, pe, rng, 3)
    # h1 is normalized, so H1 is scale-invariant up to roundoff
    assert np.allclose(po1.H1.samples, po2.H1.samples, rtol=1e-9)


def test_proof_objects_power_weight_certificates():
    rng = ExtrapolationRange(1, "inf", 2, 2)
    pe = proof_exponents(rng, 3)
    f, g = _pair(42)
    w = PowerWeight(Fraction(1, 8)).on_grid(GRID)
    po = build_proof_objects(f, g, w, pe, rng, 3)
    assert all(v["ok"] for v in po.certificates.values())
    rep = verify_case1_weight(po, pe, rng, w)
    assert rep["W_q0_bitwise"]
    assert np.isfinite(rep["W_p0_ap_const"]) and np.isfinite(rep["W_p0_rh_const"])


def test_verify_unit_weight_constants_near_one():
    # with w = 1 and f = g the construction is nearly flat, so the W^{p0}
    # class constants stay close to 1
    rng = ExtrapolationRange(1, "inf", 2, 2)
    pe = proof_exponents(rng, 2)  # diagonal: q = p = 2
    f, _ = _pair(4)
    po = build_proof_objects(f, f, PowerWeight(0).on_grid(GRID), pe, rng, 2)
    rep = verify_case1_weight(po, pe, rng, PowerWeight(0).on_grid(GRID))
    assert rep["W_p0_ap_const"] < 50
    assert rep["W_p0_rh_const"] < 10


def test_a1_certificate_can_fail(monkeypatch):
    # with S the identity the series no longer spreads mass, and the exact
    # maximal of R G exceeds 4B (R G + T_K) where G vanishes
    monkeypatch.setattr(gridfn, "_maximal_sliding", lambda a: a)
    rng, p, pe = case1_scenarios(1000, 1)[0]
    grid = Grid(4.0, 2**9)
    fam = make_family(FamilySpec("smooth-bumps", count=1, arity=2), 100, grid)
    f, g = fam.members[0][0].abs(), fam.members[0][1].abs()
    with pytest.raises(CertificationFailed) as exc:
        build_proof_objects(f, g, PowerWeight(0).on_grid(grid), pe, rng, p)
    assert any(x.startswith("R1-A1:") for x in exc.value.failures)


def test_norm_certificate_can_fail(monkeypatch):
    # an iteration whose output norm is three times its first term's misses the
    # doubling bound ||R G|| <= 2 ||G||; the failure names the value and the bound
    runs = []

    def inflated(*args, **kwargs):
        r = rdf_iterate(*args, **kwargs)
        runs.append(dataclasses.replace(r, output_norm=3.0 * r.term_norms[0]))
        return runs[-1]

    monkeypatch.setattr(rdf, "rdf_iterate", inflated)
    rng, p, pe = case1_scenarios(1000, 1)[0]
    f, g = _pair(1)
    with pytest.raises(CertificationFailed) as exc:
        build_proof_objects(f, g, PowerWeight(0).on_grid(GRID), pe, rng, p)
    assert exc.value.failures == [
        f"R{i}-doubling: {r.output_norm:.6g} > {2.0 * r.term_norms[0]:.6g}" for i, r in enumerate(runs, 1)
    ]


def test_proof_objects_case_guard():
    rng = ExtrapolationRange(1, 8, 1, Fraction(9, 8))  # Case II
    pe = proof_exponents(rng, 2)
    f, g = _pair(1)
    with pytest.raises(DomainError):
        build_proof_objects(f, g, PowerWeight(0).on_grid(GRID), pe, rng, 2)


def test_seeded_scenarios_certify():
    # a slice of the acceptance corpus, kept small here
    for i, (rng, p, pe) in enumerate(case1_scenarios(1000, 5)):
        grid = Grid(4.0, 2**9)
        fam = make_family(FamilySpec("smooth-bumps", count=1, arity=2), 100 + i, grid)
        f, g = fam.members[0][0].abs(), fam.members[0][1].abs()
        w = PowerWeight(Fraction(1, 8)).on_grid(grid) if i % 2 else PowerWeight(0).on_grid(grid)
        po = build_proof_objects(f, g, w, pe, rng, p)
        assert all(v["ok"] for v in po.certificates.values())


def test_demo_weight_class_is_p0_over_p_minus_and_conjugate_of_p_plus_over_p0(capsys):
    # W^{p0} is checked against A_{p0/p_-} & RH_{(p_+/p0)'}, written out here
    for rng, p, _ in case1_scenarios(1000, 8):
        argv = [str(x) for x in (rng.p_minus, rng.p_plus, rng.p0, rng.q0, p)]
        assert cli.main(["rdf", "demo", *sum(zip(cli.RANGE_FLAGS, argv), ()), "--N", "256"]) == 0, argv
        rep = json.loads(capsys.readouterr().out)["data"]["weight_report"]
        p0, pm, pp = rng.p0.frac, rng.p_minus.frac, rng.p_plus
        rh = Fraction(1) if pp.is_inf else pp.frac / (pp.frac - p0)  # (p_+/p0)' = p_+/(p_+ - p0)
        assert (rep["W_p0_ap_index"], rep["W_p0_rh_index"]) == (str(p0 / pm), str(rh)), argv


def _case1(grid=Grid(4.0, 2**9)):
    rng = ExtrapolationRange(1, "inf", 2, 2)
    f, g = _pair(42, grid)
    return f, g, PowerWeight(Fraction(1, 8)).on_grid(grid), proof_exponents(rng, 3), rng


def test_proof_objects_retry_doubles_a_low_norm_bound(monkeypatch):
    # a norm estimate of 1 underestimates ||M||, so the first iteration raises
    # NormBoundTooSmall and the bound is doubled until the series decays
    monkeypatch.setattr(rdf, "estimate_maximal_norm", lambda *args: 1.0)
    f, g, w, pe, rng = _case1()
    po = build_proof_objects(f, g, w, pe, rng, 3)
    assert all(v["ok"] for v in po.certificates.values())
    assert all(b in (2.0, 4.0, 8.0, 16.0) for b in (po.r1.norm_bound, po.r2.norm_bound))


def test_proof_objects_retry_gives_up_after_five_attempts(monkeypatch):
    bounds = []

    def always_too_small(G, norm_bound, *args, **kwargs):
        bounds.append(norm_bound)
        raise NormBoundTooSmall("forced")

    monkeypatch.setattr(rdf, "rdf_iterate", always_too_small)
    f, g, w, pe, rng = _case1()
    with pytest.raises(NormBoundTooSmall):
        build_proof_objects(f, g, w, pe, rng, 3)
    assert bounds == [bounds[0] * 2.0**k for k in range(5)]
