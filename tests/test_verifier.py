import tracemalloc

import numpy as np
import pytest
from fractions import Fraction

from extrapkit import verifier
from extrapkit.errors import DomainError, Infeasible
from extrapkit.exponents import Exponent
from extrapkit.grid import Grid
from extrapkit.gridfn import FamilySpec, hilbert, make_family
from extrapkit.verifier import (
    _MZ_OPS,
    _aggregate,
    _block_arrays,
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


@pytest.mark.parametrize("op", ["hilbert", lambda f, g: f * g], ids=["name", "callable"])
def test_unknown_operator_rejected(op):
    # the sweep runs "bht" and "product" only; an operator is named, never passed
    with pytest.raises(DomainError, match="unknown operator"):
        ratio_sweep(op, 2, 2, "unit", "unit", SMOOTH8, resolutions=RES)


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
        vv_sweep(2, 8, 2, Fraction(9, 8), "unit", "unit", SMOOTH8, K=1, resolutions=RES)


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
        mz_sweep([3, 3], Fraction(5, 2), ["unit", "unit"], SMOOTH8, K=4, resolutions=RES)


def test_mz_unknown_surrogate():
    with pytest.raises(DomainError, match="unknown surrogate"):
        mz_sweep([3, 3], Fraction(3, 2), ["unit", "unit"], SMOOTH8, "bogus", K=4, resolutions=RES)


# The surrogates as pairwise operators, each pair transformed afresh: the
# reference that the once-per-factor block must match bit for bit.
PAIR_OPS = {
    "tensor-hilbert": lambda f, g: hilbert(f) * hilbert(g),
    "product-identity": lambda f, g: f * g,
}


def _pairwise_block_arrays(pair_op):
    """`_block_arrays` for one MZ level, with `pair_op` on every (f_i, g_j)."""

    def block_arrays(op, block, levels):
        ((_, (r, _, _)),) = levels  # an MZ block is one innermost group
        outs = [pair_op(f, g).samples for f, _ in block for _, g in block]
        cols = (outs, [f.samples for f, _ in block], [g.samples for _, g in block])
        return [_aggregate(col, r) for col in cols]

    return block_arrays


MZ_CASES = [
    (surrogate, kind, K, count)
    for surrogate in PAIR_OPS
    for kind in ("smooth-bumps", "modulated")
    for K, count in ((1, 3), (2, 5), (3, 7), (4, 9))  # count % K != 0 from K = 2 on
]


@pytest.mark.parametrize("surrogate,kind,K,count", MZ_CASES)
def test_mz_block_bitwise_against_pairwise(surrogate, kind, K, count, monkeypatch):
    spec = FamilySpec(kind, count=count, arity=2)
    r = Fraction(3, 2)
    levels = [(K, (1.5, 1.5, 1.5))]
    block = make_family(spec, 3, Grid(8.0, 512)).members[:K]
    got = _block_arrays(_MZ_OPS[surrogate], block, levels)
    want = _pairwise_block_arrays(PAIR_OPS[surrogate])(None, block, levels)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    args = ([2, 2], r, ["unit", "unit"], spec, surrogate)
    kw = dict(seed=3, resolutions=(512, 1024), K=K)
    rr = mz_sweep(*args, **kw)
    monkeypatch.setattr(verifier, "_block_arrays", _pairwise_block_arrays(PAIR_OPS[surrogate]))
    ref = mz_sweep(*args, **kw)
    assert len(rr.ratios) == count // K
    assert np.array(rr.ratios).tobytes() == np.array(ref.ratios).tobytes()
    assert np.array(rr.sup_by_resolution).tobytes() == np.array(ref.sup_by_resolution).tobytes()


@pytest.mark.parametrize("surrogate,calls", [("tensor-hilbert", 32), ("product-identity", 0)])
def test_mz_transforms_each_factor_once(surrogate, calls, monkeypatch):
    # 2 resolutions x 2 blocks x (4 f + 4 g) transforms; pairwise would take 128.
    # Patching the module attribute also pins the call-time lookup of `hilbert`.
    seen = []

    def counting_hilbert(f):
        seen.append(f)
        return hilbert(f)

    monkeypatch.setattr(verifier, "hilbert", counting_hilbert)
    mz_sweep([2, 2], Fraction(3, 2), ["unit", "unit"], SMOOTH8, surrogate, resolutions=(512, 1024), K=4)
    assert len(seen) == calls


def test_mz_block_memory_peak_stays_small():
    # K transforms of f and of g, then the K^2 products: about 1.6 MB here
    # (each complex output at N = 4096 is 64 kB)
    block = make_family(FamilySpec("modulated", count=4, arity=2), 1, Grid(8.0, 4096)).members
    hilbert(block[0][0])  # the kernel spectrum is cached per grid size, outside the block
    tracemalloc.start()
    try:
        _block_arrays(_MZ_OPS["tensor-hilbert"], block, [(4, (1.5, 1.5, 1.5))])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000


# -- weight descriptors ---------------------------------------------------------------


def test_realize_weight_descriptors():
    grid = Grid(4.0, 512)
    assert np.all(realize_weight("unit", grid).samples == 1.0)
    pw = realize_weight(PowerWeight(Fraction(1, 2)), grid)
    assert np.allclose(pw.samples, np.abs(grid.x()) ** 0.5)
