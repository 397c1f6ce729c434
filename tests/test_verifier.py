import itertools
import json
import tracemalloc

import numpy as np
import pytest
from fractions import Fraction

from extrapkit import verifier
from extrapkit.applications import bht_vv_plan
from extrapkit.cli import main
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
    vv_sweep,
)
from extrapkit.weights import PowerWeight

SMOOTH8 = FamilySpec("smooth-bumps", count=8, arity=2)
SMOOTH16 = FamilySpec("smooth-bumps", count=16, arity=2)
RES = (1024, 2048)


# -- Hoelder baseline -----------------------------------------------------------


def test_product_operator_holder_baseline():
    # the plain product f g is the r = 2 base case of the product-identity surrogate at K = 1
    rr = mz_sweep([2, 2], 2, [PowerWeight(0)] * 2, SMOOTH8, "product-identity", K=1, resolutions=RES)
    assert rr.sup_ratio <= 1 + 1e-10
    assert rr.verdict == "BOUNDED-STABLE"


def test_product_holder_with_weights():
    w = PowerWeight(Fraction(-1, 8))
    rr = mz_sweep([3, Fraction(3, 2)], 2, [w, w], SMOOTH8, "product-identity", K=1, resolutions=RES)
    assert rr.sup_ratio <= 1 + 1e-10


# -- scalar bht sweeps -----------------------------------------------------------


def test_bht_unweighted_bounded_stable():
    rr = ratio_sweep([2, 2], [PowerWeight(0)] * 2, SMOOTH8, resolutions=RES)
    assert rr.verdict == "BOUNDED-STABLE"
    assert rr.sup_ratio == max(rr.ratios)
    assert rr.config["weights_in_class"] is None  # unit weights: no check


def test_bht_weighted_in_class_flag():
    a = Fraction(1, 4)
    rr = ratio_sweep([2, 2], [PowerWeight(-a / 2)] * 2, SMOOTH8, resolutions=RES)
    assert rr.config["weights_in_class"] is True
    assert rr.verdict == "BOUNDED-STABLE"


def test_bht_divergence_probe():
    # concentration family against |x|^{-1} per factor (outside every
    # admissible window: alpha * q_i = -2 fails power_membership)
    spec = FamilySpec("dyadic-concentration", count=6, arity=2)
    w = PowerWeight(Fraction(-1))
    rr = ratio_sweep([2, 2], [w, w], spec, seed=3, resolutions=(2048, 4096, 8192))
    assert rr.config["weights_in_class"] is False
    assert rr.verdict == "DIVERGENT"


@pytest.mark.parametrize("resolutions", [(512, 512), (1024, 512), (256, 1024), ()],
                         ids=["repeated", "descending", "skipped-doubling", "none"])
def test_sweep_resolutions_must_double(resolutions):
    with pytest.raises(DomainError, match="twice the one before"):
        ratio_sweep([2, 2], [PowerWeight(0)] * 2, SMOOTH8, resolutions=resolutions)


def test_verdict_growth_from_zero():
    assert _verdict([0.0, 0.0, 0.0]) == ("BOUNDED-STABLE", 0.0)
    assert _verdict([0.0, 0.0, 1.0])[0] == "UNSTABLE"
    assert _verdict([0.0, 1.0, 2.0]) == ("DIVERGENT", 1.0)


def test_determinism_same_seed_same_report():
    a = ratio_sweep([2, 2], [PowerWeight(0)] * 2, SMOOTH8, seed=5, resolutions=RES)
    b = ratio_sweep([2, 2], [PowerWeight(0)] * 2, SMOOTH8, seed=5, resolutions=RES)
    assert a.ratios == b.ratios and a.sup_by_resolution == b.sup_by_resolution


# -- vector-valued ---------------------------------------------------------------


def test_vv_k1_bit_exact_coherence():
    a = ratio_sweep([2, 2], [PowerWeight(0)] * 2, SMOOTH8, seed=5, resolutions=RES)
    b = vv_sweep([2, 2], [2, 2], [PowerWeight(0)] * 2, SMOOTH8, K=1, seed=5, resolutions=RES)
    assert a.ratios == b.ratios
    assert a.sup_by_resolution == b.sup_by_resolution


def test_vv_aggregated_bounded():
    rr = vv_sweep([2, 2], [2, 2], [PowerWeight(0)] * 2, SMOOTH16, K=8, seed=5, resolutions=RES)
    assert rr.verdict == "BOUNDED-STABLE"


def test_vv_weighted_power_window():
    # (q1,q2,s1,s2) = (2,2,2,t): window is [0, 2(1-1/t)); take a inside
    t = Fraction(3, 2)
    a = Fraction(1, 4)
    w1 = PowerWeight(-a / 2)
    w2 = PowerWeight(-a / 2)
    rr = vv_sweep([2, 2], [2, t], [w1, w2], SMOOTH16, K=4, seed=11, resolutions=RES)
    assert rr.verdict == "BOUNDED-STABLE"


def test_vv_infeasible_plan_rejected():
    with pytest.raises(Infeasible):
        vv_sweep([2, 8], [2, Fraction(9, 8)], [PowerWeight(0)] * 2, SMOOTH8, K=1, resolutions=RES)


# -- iterated ---------------------------------------------------------------------


def test_iterated_single_outer_reduces_to_vv():
    flat = vv_sweep([2, 2], [2, 2], [PowerWeight(0)] * 2, SMOOTH8, K=2, seed=7, resolutions=(1024,))
    nested = iterated_vv_sweep((2, 2), (2, 2), (2, 2), SMOOTH8, J=1, K=2, seed=7, resolutions=(1024,))
    for x, y in zip(flat.ratios, nested.ratios):
        assert x == pytest.approx(y, rel=1e-14)


def test_iterated_t_equals_s_flattens():
    nested = iterated_vv_sweep((2, 2), (2, 2), (2, 2), SMOOTH16, J=2, K=2, seed=7, resolutions=(1024,))
    flat = vv_sweep([2, 2], [2, 2], [PowerWeight(0)] * 2, SMOOTH16, K=4, seed=7, resolutions=(1024,))
    assert len(nested.ratios) == len(flat.ratios) > 0
    for x, y in zip(nested.ratios, flat.ratios):
        assert abs(x - y) <= 1e-12


def test_iterated_bounded_stable():
    rr = iterated_vv_sweep((2, 2), (2, 2), (2, 2), SMOOTH16, J=2, K=2, resolutions=RES)
    assert rr.verdict == "BOUNDED-STABLE"


def test_iterated_keeps_q_s_and_t_apart():
    # q, s and t all differ, so a swap of any two shows in the config or the ratios
    q, s, t = (Exponent(2), Exponent(2)), (Exponent(3), Exponent(3)), (Exponent(Fraction(3, 2)), Exponent(3))
    for agg in (s, t):
        bht_vv_plan(*q, *agg)  # raises unless the tuple is admissible
    rr = iterated_vv_sweep(q, s, t, SMOOTH16, J=2, K=2, seed=7, resolutions=(1024,))
    assert (rr.config["q"], rr.config["s"], rr.config["t"]) == (list(q), list(s), list(t))
    swapped = iterated_vv_sweep(q, t, s, SMOOTH16, J=2, K=2, seed=7, resolutions=(1024,))
    assert (swapped.config["s"], swapped.config["t"]) == (list(t), list(s))
    assert len(rr.ratios) == len(swapped.ratios) == 4 and rr.ratios != swapped.ratios
    # one outer block leaves the inner l^s level alone: the vv sweep with s, not with t
    inner = iterated_vv_sweep(q, s, t, SMOOTH16, J=1, K=2, seed=7, resolutions=(1024,))
    flat = vv_sweep(q, s, [PowerWeight(0)] * 2, SMOOTH16, K=2, seed=7, resolutions=(1024,))
    assert len(inner.ratios) == 8 and inner.ratios == pytest.approx(flat.ratios, rel=1e-14)


# -- Marcinkiewicz-Zygmund ---------------------------------------------------------


def test_mz_product_identity_r2_cauchy_schwarz():
    rr = mz_sweep([3, 3], 2, [PowerWeight(0), PowerWeight(0)], SMOOTH8, "product-identity", resolutions=(1024,), K=4)
    assert rr.sup_ratio <= 1 + 1e-10


def test_mz_tensor_hilbert_bounded():
    rr = mz_sweep([3, 3], Fraction(3, 2), [PowerWeight(0), PowerWeight(0)], SMOOTH8, "tensor-hilbert", resolutions=RES, K=4)
    assert rr.verdict == "BOUNDED-STABLE"


def test_mz_r_outside_window_rejected():
    with pytest.raises(Infeasible):
        mz_sweep([3, 3], Fraction(5, 2), [PowerWeight(0), PowerWeight(0)], SMOOTH8, K=4, resolutions=RES)


def test_mz_unknown_surrogate():
    with pytest.raises(DomainError, match="unknown surrogate"):
        mz_sweep([3, 3], Fraction(3, 2), [PowerWeight(0), PowerWeight(0)], SMOOTH8, "bogus", K=4, resolutions=RES)


@pytest.mark.parametrize("a", [Fraction(0), Fraction(1, 2)])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_mz_three_factor_product_identity_holder(K, a):
    # the l^r sum over the K^3 tensor factorizes into the three factors' l^r sums,
    # so Hoelder in L^q(w^q) with w = w1 w2 w3 and 1/q = sum 1/q_j bounds every ratio by 1
    qs = [3, 3, Fraction(3, 2)]
    ws = [PowerWeight(-a / q) for q in qs]
    spec = FamilySpec("smooth-bumps", count=9, arity=3)
    block = make_family(spec, 7, Grid(8.0, 1024)).members[:K]
    out, *fs = _block_arrays(_MZ_OPS["product-identity"], block, [(K, (1.5,) * 4)])
    np.testing.assert_allclose(out, fs[0] * fs[1] * fs[2], rtol=1e-12, atol=0)
    rr = mz_sweep(qs, Fraction(3, 2), ws, spec, "product-identity", resolutions=(512, 1024), K=K)
    assert len(rr.ratios) == 9 // K and max(rr.ratios) > 0
    assert max(rr.ratios) <= 1 + 1e-12


@pytest.mark.parametrize("w", [PowerWeight(0), PowerWeight(Fraction(1, 8))])
@pytest.mark.parametrize("kind", ["smooth-bumps", "modulated", "dyadic-concentration"])
def test_mz_one_factor_product_identity_is_exactly_one(kind, w):
    # one factor and the identity: the output column is the factor column, so
    # numerator and denominator are the same float
    spec = FamilySpec(kind, count=6, arity=1)
    rr = mz_sweep([3], Fraction(3, 2), [w], spec, "product-identity", resolutions=(256, 512), K=2)
    assert rr.ratios == [1.0] * 3 and rr.sup_by_resolution == [1.0, 1.0]


@pytest.mark.parametrize(
    "qs,ws,arity",
    [([3, 3, 3], [PowerWeight(0)] * 2, 3), ([3], [PowerWeight(0)] * 2, 1), ([3, 3], [PowerWeight(0)] * 2, 3)],
    ids=["fewer-weights", "more-weights", "arity"],
)
def test_mz_needs_one_weight_and_factor_per_target(qs, ws, arity):
    spec = FamilySpec("smooth-bumps", count=8, arity=arity)
    with pytest.raises(DomainError, match="one weight and one family factor"):
        mz_sweep(qs, Fraction(3, 2), ws, spec, K=2, resolutions=(256,))


UNIT2 = [PowerWeight(0)] * 2
SWEEPS = {
    "ratio": lambda spec: ratio_sweep([2, 2], UNIT2, spec, resolutions=(256,)),
    "vv": lambda spec: vv_sweep([2, 2], [2, 2], UNIT2, spec, K=2, resolutions=(256,)),
    "iterated": lambda spec: iterated_vv_sweep([2, 2], [2, 2], [2, 2], spec, J=2, K=2, resolutions=(256,)),
    "mz": lambda spec: mz_sweep([3, 3], Fraction(3, 2), UNIT2, spec, K=2, resolutions=(256,)),
}


@pytest.mark.parametrize("arity", [1, 3])
@pytest.mark.parametrize("sweep", SWEEPS)
def test_every_sweep_needs_one_family_factor_per_target(sweep, arity):
    # the engine checks the count before any group map unpacks a member
    with pytest.raises(DomainError, match="one weight and one family factor for each of the 2 targets"):
        SWEEPS[sweep](FamilySpec("smooth-bumps", count=8, arity=arity))


def test_skipped_blocks_are_the_members_without_a_midpoint_in_their_support(capsys):
    # a dyadic-concentration member lives on [delta, 2 delta], delta = L / 2^(j+2); at the
    # finest grid the members whose support holds no midpoint have zero norm and are skipped
    argv = ["verify", "bht", "--q1", "2", "--q2", "2", "--family", "dyadic-concentration",
            "--count", "12", "--N", "1024,2048"]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)["data"]
    x = Grid(8.0, 2048).x()
    empty = [j for j in range(12) if not np.any((x >= 8.0 / 2 ** (j + 2)) & (x <= 2 * 8.0 / 2 ** (j + 2)))]
    assert data["skipped"] == empty == [11]
    assert len(data["ratios"]) == 12 - len(empty)


# The per-factor maps of the surrogates, applied afresh to every factor of
# every m-tuple: the reference that the once-per-factor block must match bit
# for bit.
FACTOR_MAPS = {
    "tensor-hilbert": hilbert,
    "product-identity": lambda f: f,
}


def _bruteforce_block_arrays(u):
    """`_block_arrays` for one MZ level, by an m-fold loop over every
    (f_{1,i_1}, ..., f_{m,i_m}), the first index outermost."""

    def block_arrays(op, block, levels):
        ((_, (r, *_)),) = levels  # an MZ block is one innermost group
        m = len(block[0])
        outs = []
        for idx in itertools.product(range(len(block)), repeat=m):
            out = u(block[idx[0]][0])
            for j in range(1, m):
                out = out * u(block[idx[j]][j])
            outs.append(out.samples)
        cols = [outs, *([tup[j].samples for tup in block] for j in range(m))]
        return [_aggregate(col, r) for col in cols]

    return block_arrays


MZ_CASES = [
    # m = 2 keeps the ids it had when the engine drove two factors only
    pytest.param(surrogate, kind, K, count, m, id=f"{surrogate}-{kind}-{K}-{count}" + ("" if m == 2 else f"-m{m}"))
    for m in (2, 1, 3, 4)
    for surrogate in FACTOR_MAPS
    for kind in ("smooth-bumps", "modulated")
    for K, count in ((1, 3), (2, 5), (3, 7), (4, 9))  # count % K != 0 from K = 2 on
]


@pytest.mark.parametrize("surrogate,kind,K,count,m", MZ_CASES)
def test_mz_block_bitwise_against_pairwise(surrogate, kind, K, count, m, monkeypatch):
    spec = FamilySpec(kind, count=count, arity=m)
    r = Fraction(3, 2)
    levels = [(K, (1.5,) * (m + 1))]
    block = make_family(spec, 3, Grid(8.0, 512)).members[:K]
    got = _block_arrays(_MZ_OPS[surrogate], block, levels)
    want = _bruteforce_block_arrays(FACTOR_MAPS[surrogate])(None, block, levels)
    assert len(got) == m + 1
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    args = ([2] * m, r, [PowerWeight(0)] * m, spec, surrogate)
    kw = dict(seed=3, resolutions=(512, 1024), K=K)
    rr = mz_sweep(*args, **kw)
    monkeypatch.setattr(verifier, "_block_arrays", _bruteforce_block_arrays(FACTOR_MAPS[surrogate]))
    ref = mz_sweep(*args, **kw)
    assert len(rr.ratios) == count // K
    assert np.array(rr.ratios).tobytes() == np.array(ref.ratios).tobytes()
    assert np.array(rr.sup_by_resolution).tobytes() == np.array(ref.sup_by_resolution).tobytes()


@pytest.mark.parametrize(
    "surrogate,calls,m",
    [
        ("tensor-hilbert", 32, 2), ("product-identity", 0, 2), ("tensor-hilbert", 48, 3), ("product-identity", 0, 3),
        ("tensor-hilbert", 64, 4),
    ],
    ids=["tensor-hilbert-32", "product-identity-0", "tensor-hilbert-48-m3", "product-identity-0-m3", "tensor-hilbert-64-m4"],
)
def test_mz_transforms_each_factor_once(surrogate, calls, m, monkeypatch):
    # 2 resolutions x 2 blocks x m factors x K = 4 transforms; pairwise would
    # take 128 at m = 2 (and m-fold 768 at m = 3, 4,096 at m = 4).
    # Patching the module attribute also pins the call-time lookup of `hilbert`.
    seen = []

    def counting_hilbert(f):
        seen.append(f)
        return hilbert(f)

    monkeypatch.setattr(verifier, "hilbert", counting_hilbert)
    spec = FamilySpec("smooth-bumps", count=8, arity=m)
    mz_sweep([2] * m, Fraction(3, 2), [PowerWeight(0)] * m, spec, surrogate, resolutions=(512, 1024), K=4)
    assert len(seen) == calls


@pytest.mark.parametrize("m", [2, 3, 4])
def test_mz_block_memory_peak_stays_small(m):
    # the K transforms of each factor, and one running product per factor, not
    # the K^m products: about 1.0, 1.3 and 1.5 MB here, where holding every
    # product took 1.6, 5.1 and 17.9 MB (each complex output at N = 4096 is 64 kB)
    block = make_family(FamilySpec("modulated", count=4, arity=m), 1, Grid(8.0, 4096)).members
    hilbert(block[0][0])  # the kernel spectrum is cached per grid size, outside the block
    tracemalloc.start()
    try:
        _block_arrays(_MZ_OPS["tensor-hilbert"], block, [(4, (1.5,) * (m + 1))])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000


# -- the unit weight -----------------------------------------------------------------


def test_power_weight_zero_is_the_unit_weight(capsys):
    # |x|^0.0 is exactly 1.0 at every midpoint, so PowerWeight(0) is the unit weight bit for bit
    for N in (2, 1024, 8192):
        assert np.array_equal(PowerWeight(0).on_grid(Grid(8.0, N)).samples, np.ones(N))
    assert [str(PowerWeight(a)) for a in (0, Fraction(1, 8), Fraction(-1, 4))] == ["unit", "power:1/8", "power:-1/4"]
    rr = ratio_sweep([2, 2], [PowerWeight(0), PowerWeight(Fraction(1, 8))], SMOOTH8, resolutions=RES)
    assert rr.config["weights_in_class"] is None and rr.config["w1"] == "unit"
    demo = ["rdf", "demo", "--pm", "1", "--pp", "inf", "--p0", "2", "--q0", "2", "--p", "3", "--N", "256"]
    outs = []
    for w in ("unit", "power:0"):
        assert main(demo + ["--w", w]) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1]
