import numpy as np
import pytest
from fractions import Fraction

from corpus import case1_scenarios
from extrapkit.errors import CertificationFailed, DomainError, NormBoundTooSmall
from extrapkit.exponents import Exponent
from extrapkit.extrapolation import ExtrapolationRange, proof_exponents
from extrapkit.grid import Grid
from extrapkit.gridfn import FamilySpec, GridFunction, make_family, maximal, measure_norm
from extrapkit import gridfn, rdf
from extrapkit.rdf import (
    build_proof_objects,
    estimate_maximal_norm,
    rdf_iterate,
    verify_case1_weight,
)
from extrapkit.weights import GridWeight, PowerWeight

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
    res = rdf_iterate(c, nb, GridWeight.unit(GRID), 2)
    assert len(res.term_norms) == 12
    expected = 2.5 * sum((2 * nb) ** -k for k in range(12))
    assert np.allclose(res.function.samples, expected, rtol=1e-12)
    assert np.allclose(res.dropped.samples, 2.5 * (2 * nb) ** -12, rtol=1e-12)
    assert res.a1_ratio == pytest.approx(1.0, abs=1e-9)


def test_iterate_majorizes_input_exactly():
    f, _ = _pair()
    res = rdf_iterate(f, 4.0, GridWeight.unit(GRID), 2)
    assert np.all(res.function.samples >= f.samples)


def test_iterate_norm_doubling_bound():
    f, _ = _pair(7)
    w = PowerWeight(Fraction(1, 8)).on_grid(GRID)
    nb = estimate_maximal_norm(2, w, f)
    res = rdf_iterate(f, nb, w, 2)
    assert res.output_norm <= 2.0 * res.input_norm * 1.01


def test_iterate_truncation_control():
    # every summed term k obeys ||S^k G / (2B)^k|| <= 2^-k ||G||, and so
    # does the dropped term T_K
    f, _ = _pair(9)
    w = GridWeight.unit(GRID)
    nb = estimate_maximal_norm(2, w, f)
    res = rdf_iterate(f, nb, w, 2)
    K = len(res.term_norms)
    assert 1 < K <= 24 and res.term_norms[0] == res.input_norm
    for k, tn in enumerate(res.term_norms):
        assert tn <= 2.0**-k * res.input_norm * (1 + 1e-6)
    assert measure_norm(res.dropped, w, 2) <= 2.0**-K * res.input_norm * (1 + 1e-6)


def test_iterate_a1_ratio_bound():
    # the series runs on S = maximal(., "sliding"): S(RG) <= 2B (RG + T_K);
    # with M <= 2S the exact maximal obeys M(RG) <= 4B (RG + T_K)
    f, _ = _pair(13)
    w = GridWeight.unit(GRID)
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
        rdf_iterate(f, 1.0, GridWeight.unit(GRID), 2)


def test_iterate_rejects_negative_input():
    f = GridFunction(-np.ones(GRID.N), GRID)
    with pytest.raises(DomainError):
        rdf_iterate(f, 2.0, GridWeight.unit(GRID), 2)


@pytest.mark.parametrize(
    "norm_bound, exponent", [(0.5, 2), (float("nan"), 2), (2.0, 0), (2.0, "inf")]
)
def test_iterate_rejects_bad_space(norm_bound, exponent):
    f, _ = _pair(5)
    with pytest.raises(DomainError):
        rdf_iterate(f, norm_bound, GridWeight.unit(GRID), exponent)


# -- norm estimation -----------------------------------------------------------


def test_estimate_constant_probe_ratio_one():
    # S1 = 1 exactly on the grid, so a constant probe gives the floor, as
    # does the zero probe
    w = GridWeight.unit(GRID)
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
    po = build_proof_objects(f, g, GridWeight.unit(GRID), pe, rng, 3)
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
    w = GridWeight.unit(GRID)
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
    po = build_proof_objects(f, f, GridWeight.unit(GRID), pe, rng, 2)
    rep = verify_case1_weight(po, pe, rng, GridWeight.unit(GRID))
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
        build_proof_objects(f, g, GridWeight.unit(grid), pe, rng, p)
    assert any(x.startswith("R1-A1:") for x in exc.value.failures)


def test_proof_objects_case_guard():
    rng = ExtrapolationRange(1, 8, 1, Fraction(9, 8))  # Case II
    pe = proof_exponents(rng, 2)
    f, g = _pair(1)
    with pytest.raises(DomainError):
        build_proof_objects(f, g, GridWeight.unit(GRID), pe, rng, 2)


def test_seeded_scenarios_certify():
    # a slice of the acceptance corpus, kept small here
    for i, (rng, p, pe) in enumerate(case1_scenarios(1000, 5)):
        grid = Grid(4.0, 2**9)
        fam = make_family(FamilySpec("smooth-bumps", count=1, arity=2), 100 + i, grid)
        f, g = fam.members[0][0].abs(), fam.members[0][1].abs()
        w = PowerWeight(Fraction(1, 8)).on_grid(grid) if i % 2 else GridWeight.unit(grid)
        po = build_proof_objects(f, g, w, pe, rng, p)
        assert all(v["ok"] for v in po.certificates.values())


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
    assert all(b in (2.0, 4.0, 8.0, 16.0) for b in po.norm_bounds)


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
