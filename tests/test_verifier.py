import numpy as np
import pytest
from fractions import Fraction

from extrapkit.errors import DomainError, Infeasible
from extrapkit.exponents import Exponent
from extrapkit.grid import Grid
from extrapkit.gridfn import FamilySpec, make_family
from extrapkit.verifier import (
    _verdict,
    iterated_vv_sweep,
    mz_sweep,
    ratio_sweep,
    realize_weight,
    vv_sweep,
)
from extrapkit.weights import PowerWeight

SMOOTH8 = FamilySpec("smooth-bumps", count=8, arity=2)
SMOOTH16 = FamilySpec("smooth-bumps", count=16, arity=2)
RES = (1024, 2048)


# -- Hoelder baseline -----------------------------------------------------------


def test_product_operator_holder_baseline():
    rr = ratio_sweep("product", 2, 2, "unit", "unit", SMOOTH8, resolutions=RES)
    assert rr.sup_ratio <= 1 + 1e-10
    assert rr.verdict == "BOUNDED-STABLE"


def test_product_holder_with_weights():
    w = PowerWeight(Fraction(-1, 8))
    rr = ratio_sweep("product", 3, Fraction(3, 2), w, w, SMOOTH8, resolutions=RES)
    assert rr.sup_ratio <= 1 + 1e-10


# -- scalar bht sweeps -----------------------------------------------------------


def test_bht_unweighted_bounded_stable():
    rr = ratio_sweep("bht", 2, 2, "unit", "unit", SMOOTH8, resolutions=RES)
    assert rr.verdict == "BOUNDED-STABLE"
    assert rr.sup_ratio == max(rr.ratios)
    assert rr.config["weights_in_class"] is None  # unit weights: no check


def test_bht_weighted_in_class_flag():
    a = Fraction(1, 4)
    rr = ratio_sweep(
        "bht", 2, 2, PowerWeight(-a / 2), PowerWeight(-a / 2),
        SMOOTH8, resolutions=RES,
    )
    assert rr.config["weights_in_class"] is True
    assert rr.verdict == "BOUNDED-STABLE"


def test_bht_divergence_probe():
    # concentration family against |x|^{-1} per factor (outside every
    # admissible window: alpha * q_i = -2 fails power_in_class)
    spec = FamilySpec("dyadic-concentration", count=6, arity=2)
    w = PowerWeight(Fraction(-1))
    rr = ratio_sweep("bht", 2, 2, w, w, spec, seed=3, resolutions=(2048, 4096, 8192))
    assert rr.config["weights_in_class"] is False
    assert rr.verdict == "DIVERGENT"


@pytest.mark.parametrize("resolutions", [(512, 512), (1024, 512), (256, 1024), ()],
                         ids=["repeated", "descending", "skipped-doubling", "none"])
def test_sweep_resolutions_must_double(resolutions):
    with pytest.raises(DomainError, match="twice the one before"):
        ratio_sweep("product", 2, 2, "unit", "unit", SMOOTH8, resolutions=resolutions)


def test_verdict_growth_from_zero():
    assert _verdict([0.0, 0.0, 0.0]) == ("BOUNDED-STABLE", 0.0)
    assert _verdict([0.0, 0.0, 1.0])[0] == "UNSTABLE"
    assert _verdict([0.0, 1.0, 2.0]) == ("DIVERGENT", 1.0)


def test_determinism_same_seed_same_report():
    a = ratio_sweep("bht", 2, 2, "unit", "unit", SMOOTH8, seed=5, resolutions=RES)
    b = ratio_sweep("bht", 2, 2, "unit", "unit", SMOOTH8, seed=5, resolutions=RES)
    assert a.ratios == b.ratios and a.sup_by_resolution == b.sup_by_resolution


def test_rescaling_invariance():
    # scaling every member leaves ratios invariant: custom op on a scaled family
    grid = Grid(8.0, 1024)
    fam = make_family(SMOOTH8, 5, grid)

    calls = {"n": 0}

    def scaled_op(f, g):
        calls["n"] += 1
        from extrapkit.gridfn import bht

        return bht(f, g)

    rr1 = ratio_sweep(scaled_op, 2, 2, "unit", "unit", SMOOTH8, seed=5, resolutions=(1024,))

    def scaling_op(f, g):
        from extrapkit.gridfn import bht

        return bht(f * 4.0, g * 4.0) * Fraction(1, 16)

    rr2 = ratio_sweep(scaling_op, 2, 2, "unit", "unit", SMOOTH8, seed=5, resolutions=(1024,))
    for x, y in zip(rr1.ratios, rr2.ratios):
        assert x == pytest.approx(y, rel=1e-12)


# -- vector-valued ---------------------------------------------------------------


def test_vv_k1_bit_exact_coherence():
    a = ratio_sweep("bht", 2, 2, "unit", "unit", SMOOTH8, seed=5, resolutions=RES)
    b = vv_sweep(2, 2, 2, 2, "unit", "unit", SMOOTH8, K=1, seed=5, resolutions=RES)
    assert a.ratios == b.ratios
    assert a.sup_by_resolution == b.sup_by_resolution


def test_vv_aggregated_bounded():
    rr = vv_sweep(2, 2, 2, 2, "unit", "unit", SMOOTH16, K=8, seed=5, resolutions=RES)
    assert rr.verdict == "BOUNDED-STABLE"


def test_vv_weighted_power_window():
    # (q1,q2,s1,s2) = (2,2,2,t): window is [0, 2(1-1/t)); take a inside
    t = Fraction(3, 2)
    a = Fraction(1, 4)
    w1 = PowerWeight(-a / 2)
    w2 = PowerWeight(-a / 2)
    rr = vv_sweep(2, 2, 2, t, w1, w2, SMOOTH16, K=4, seed=11, resolutions=RES)
    assert rr.verdict == "BOUNDED-STABLE"


def test_vv_infeasible_plan_rejected():
    with pytest.raises(Infeasible):
        vv_sweep(2, 8, 2, Fraction(9, 8), "unit", "unit", SMOOTH8)


# -- iterated ---------------------------------------------------------------------


def test_iterated_single_outer_reduces_to_vv():
    flat = vv_sweep(2, 2, 2, 2, "unit", "unit", SMOOTH8, K=2, seed=7, resolutions=(1024,))
    nested = iterated_vv_sweep((2, 2), (2, 2), (2, 2), SMOOTH8, J=1, K=2, seed=7, resolutions=(1024,))
    for x, y in zip(flat.ratios, nested.ratios):
        assert x == pytest.approx(y, rel=1e-14)


def test_iterated_t_equals_s_flattens():
    nested = iterated_vv_sweep((2, 2), (2, 2), (2, 2), SMOOTH16, J=2, K=2, seed=7, resolutions=(1024,))
    flat = vv_sweep(2, 2, 2, 2, "unit", "unit", SMOOTH16, K=4, seed=7, resolutions=(1024,))
    assert len(nested.ratios) == len(flat.ratios) > 0
    for x, y in zip(nested.ratios, flat.ratios):
        assert abs(x - y) <= 1e-12


def test_iterated_bounded_stable():
    rr = iterated_vv_sweep((2, 2), (2, 2), (2, 2), SMOOTH16, J=2, K=2, resolutions=RES)
    assert rr.verdict == "BOUNDED-STABLE"


# -- Marcinkiewicz-Zygmund ---------------------------------------------------------


def test_mz_product_identity_r2_cauchy_schwarz():
    rr = mz_sweep([3, 3], 2, ["unit", "unit"], SMOOTH8, "product-identity", resolutions=(1024,), K=4)
    assert rr.sup_ratio <= 1 + 1e-10


def test_mz_tensor_hilbert_bounded():
    rr = mz_sweep([3, 3], Fraction(3, 2), ["unit", "unit"], SMOOTH8, "tensor-hilbert", resolutions=RES, K=4)
    assert rr.verdict == "BOUNDED-STABLE"


def test_mz_r_outside_window_rejected():
    with pytest.raises(Infeasible):
        mz_sweep([3, 3], Fraction(5, 2), ["unit", "unit"], SMOOTH8)


def test_mz_unknown_surrogate():
    with pytest.raises(DomainError, match="unknown surrogate"):
        mz_sweep([3, 3], Fraction(3, 2), ["unit", "unit"], SMOOTH8, "bogus")


# -- weight descriptors ---------------------------------------------------------------


def test_realize_weight_descriptors():
    grid = Grid(4.0, 512)
    assert np.all(realize_weight("unit", grid).samples == 1.0)
    pw = realize_weight(PowerWeight(Fraction(1, 2)), grid)
    assert np.allclose(pw.samples, np.abs(grid.x()) ** 0.5)
