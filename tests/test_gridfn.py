import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from extrapkit.cli import main
from extrapkit.errors import DomainError
from extrapkit.exponents import INF, Exponent
from extrapkit.grid import Grid
from extrapkit.gridfn import (
    _BHT_BLOCK as B,
    _EXACT_BLOCK as B_EXACT,
    FamilySpec,
    GridFunction,
    _hilbert_kernel_spectrum,
    _maximal_exact,
    _smooth_bump,
    bht,
    hilbert,
    make_family,
    maximal,
    measure_norm,
    weighted_norm,
)
from extrapkit.weights import GridWeight, PowerWeight

G = Grid(8.0, 2**12)
X = G.x()


def bump(x, c=0.0, wd=1.0):
    u = (x - c) / wd
    out = np.zeros_like(x)
    m = np.abs(u) < 1
    out[m] = np.exp(1 - 1 / (1 - u[m] ** 2))
    return out


# -- norms ----------------------------------------------------------------------


def test_grid_rejects_half_width_whose_cell_width_overflows():
    # 2L = inf used to give h = inf and an all-inf midpoint grid
    with pytest.raises(DomainError, match="half-width"):
        Grid(1e308, 256)
    assert Grid(8e307, 256).h == 2.0 * 8e307 / 256


def test_grid_rejects_half_width_whose_cell_width_is_subnormal():
    # h = 8e-323 used to build a grid on which the operators overflow
    with pytest.raises(DomainError, match="half-width"):
        Grid(1e-320, 256)
    tiny = np.finfo(float).tiny
    with pytest.raises(DomainError, match="half-width"):
        Grid(tiny * 64, 256)  # h = tiny / 2
    assert Grid(tiny * 128, 256).h == 2.0 * (tiny * 128) / 256 == tiny


def test_weighted_norm_indicator_unit_weight():
    f = GridFunction.indicator(-1.0, 1.0, G)
    val = weighted_norm(f, PowerWeight(0).on_grid(G), 2)
    assert val == pytest.approx(np.sqrt(2.0), rel=2e-3)


def test_weighted_norm_power_weight_closed_form():
    # f = X_[0,1], w = |x|^{1/2}, p = 2: (int_0^1 x dx)^(1/2) = 1/sqrt(2)
    f = GridFunction.indicator(0.0, 1.0, G)
    w = PowerWeight(Fraction(1, 2)).on_grid(G)
    val = weighted_norm(f, w, 2)
    assert val == pytest.approx(1 / np.sqrt(2.0), rel=0.01)


def test_weighted_norm_homogeneous():
    f = GridFunction(bump(X), G)
    w = PowerWeight(Fraction(1, 4)).on_grid(G)
    for c in (3.0, -2.5, 0.125):
        lhs = weighted_norm(f * c, w, Fraction(3, 2))
        rhs = abs(c) * weighted_norm(f, w, Fraction(3, 2))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_weighted_norm_triangle_inequality():
    rng = np.random.default_rng(11)
    w = GridWeight(np.exp(rng.standard_normal(G.N) * 0.2), G)
    for p in (1, Fraction(3, 2), 2, 7):
        f = GridFunction(rng.standard_normal(G.N), G)
        g = GridFunction(rng.standard_normal(G.N), G)
        lhs = weighted_norm(GridFunction(f.samples + g.samples, G), w, p)
        rhs = weighted_norm(f, w, p) + weighted_norm(g, w, p)
        assert lhs <= rhs * (1 + 1e-12)


def test_weighted_norm_sup_mode():
    # the norms are for 0 < p < inf: p = inf has no sup-norm mode
    f = GridFunction(bump(X) * 3.0, G)
    for norm in (weighted_norm, measure_norm):
        with pytest.raises(DomainError, match="infinite exponent"):
            norm(f, PowerWeight(0).on_grid(G), INF)


def test_norm_grid_mismatch():
    f = GridFunction(bump(X), G)
    w = PowerWeight(0).on_grid(Grid(8.0, 2**10))
    with pytest.raises(DomainError, match="grids differ"):
        weighted_norm(f, w, 2)


# -- maximal ---------------------------------------------------------------------


def test_maximal_constant_fixed():
    c = GridFunction(np.full(G.N, 2.5), G)
    out = maximal(c)
    assert np.allclose(out.samples, 2.5, rtol=1e-10)


def test_maximal_indicator_closed_form():
    g = Grid(8.0, 2**14)
    f = GridFunction.indicator(0.0, 1.0, g)
    x = g.x()
    truth = np.where((x >= 0) & (x <= 1), 1.0, np.where(x > 1, 1.0 / x, 1.0 / (1.0 - x)))
    err = np.max(np.abs(maximal(f).samples - truth))
    assert err <= 0.02


def test_maximal_dominates_input():
    rng = np.random.default_rng(3)
    f = GridFunction(rng.standard_normal(G.N), G)
    out = maximal(f)
    assert np.all(out.samples >= np.abs(f.samples) - 1e-15)


def test_maximal_sublinear():
    rng = np.random.default_rng(5)
    f = GridFunction(rng.standard_normal(512), Grid(4.0, 512))
    g = GridFunction(rng.standard_normal(512), Grid(4.0, 512))
    lhs = maximal(GridFunction(f.samples + g.samples, f.grid)).samples
    rhs = maximal(f).samples + maximal(g).samples
    assert np.all(lhs <= rhs + 1e-12)


def test_maximal_positive_homogeneous():
    rng = np.random.default_rng(8)
    f = GridFunction(rng.random(512), Grid(4.0, 512))
    assert np.allclose(maximal(f * 4.0).samples, 4.0 * maximal(f).samples, rtol=1e-13)


def test_maximal_sliding_brackets_exact():
    # M_slide <= M <= 2 M_slide: the RDF A_1 certificate's 4B rests on it
    rng = np.random.default_rng(17)
    for n in (64, 256, 1024):
        spike = np.zeros(n)
        spike[n // 3] = 1.0
        edge = (np.arange(n) < n // 5).astype(float)  # an indicator touching x = -L
        for a in [rng.random(n) for _ in range(5)] + [spike, edge, edge[::-1]]:
            f = GridFunction(a, Grid(2.0, n))
            exact = maximal(f, "exact").samples
            slide = maximal(f, "sliding").samples
            assert np.all(slide <= exact + 1e-12)
            assert np.all(exact <= 2 * slide + 1e-12)


def _maximal_exact_reference(a):
    # per left endpoint, the suffix max of the averages over the lengths,
    # then the one-cell interval: O(N^2) in N numpy rows
    n = a.size
    pref = np.concatenate(([0.0], np.cumsum(a)))
    lengths = np.arange(1, n + 1, dtype=float)
    out = np.full(n, -np.inf)
    for lo in range(n):
        avgs = (pref[lo + 1 :] - pref[lo]) / lengths[: n - lo]
        suff = np.maximum.accumulate(avgs[::-1])[::-1]
        np.maximum(out[lo:], suff, out=out[lo:])
    # the degenerate one-cell interval, free of prefix-sum rounding
    np.maximum(out, a, out=out)
    return out


def _maximal_exact_inputs(n, rng):
    spike = np.zeros(n)
    spike[n // 3] = 1.0
    edge = (np.arange(n) < max(1, n // 5)).astype(float)  # touches x = -L; reversed, x = L
    sparse = rng.random(n) * (rng.random(n) < 0.1)
    return rng.random(n), sparse, spike, edge, edge[::-1], np.zeros(n), rng.lognormal(0.0, 20.0, n)


@pytest.mark.parametrize("n", range(1, 13))
def test_maximal_exact_reference_is_the_sup_over_intervals(n):
    # anchor the reference: a pure-Python max over every interval containing i
    rng = np.random.default_rng(40 + n)
    for a in _maximal_exact_inputs(n, rng):
        pref = np.concatenate(([0.0], np.cumsum(a)))
        want = [
            max([a[i]] + [(pref[hi] - pref[lo]) / (hi - lo) for lo in range(i + 1) for hi in range(i + 1, n + 1)])
            for i in range(n)
        ]
        assert _maximal_exact_reference(a).tobytes() == np.array(want).tobytes()


def _assert_maximal_exact_bitwise(a):
    assert _maximal_exact(a).tobytes() == _maximal_exact_reference(a).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 31, 32, 33, 64, 100, 1024])
def test_maximal_exact_matches_reference_bitwise(n):
    # below, at and around the block of B_EXACT lengths, and off its multiples
    assert B_EXACT == 16
    rng = np.random.default_rng(34)
    for a in _maximal_exact_inputs(n, rng):
        _assert_maximal_exact_bitwise(a)


@given(
    log2n=st.integers(1, 9),
    odd=st.booleans(),
    density=st.floats(0, 1),
    sigma=st.floats(0, 30),
    seed=st.integers(0, 2**16),
)
def test_maximal_exact_matches_reference_property(log2n, odd, density, sigma, seed):
    n = 2**log2n - odd
    rng = np.random.default_rng(seed)
    _assert_maximal_exact_bitwise(rng.lognormal(0.0, sigma, n) * (rng.random(n) < density))


def test_maximal_exact_through_maximal_bitwise():
    rng = np.random.default_rng(35)
    f = GridFunction(rng.standard_normal(512), Grid(2.0, 512))
    assert maximal(f).samples.tobytes() == _maximal_exact_reference(np.abs(f.samples)).tobytes()


def _maximal_sliding_reference(a):
    # brute force: for each i and dyadic m, the max over the starts j of the
    # windows [j, j+m) that contain i, then the max with a[i]
    n = a.size
    pref = np.concatenate(([0.0], np.cumsum(a)))
    out = a.copy()
    m = 2
    while m <= n:
        avg = (pref[m:] - pref[:-m]) / m
        for i in range(n):
            out[i] = max(out[i], avg[max(0, i - m + 1) : min(i, n - m) + 1].max())
        m *= 2
    return out


def _assert_maximal_sliding_bitwise(a):
    got = maximal(GridFunction(a, Grid(2.0, a.size)), "sliding").samples
    assert got.tobytes() == _maximal_sliding_reference(a).tobytes()


@pytest.mark.parametrize("n", [2, 4, 64, 1024])
def test_maximal_sliding_matches_brute_force_bitwise(n):
    rng = np.random.default_rng(33)
    spike = np.zeros(n)
    spike[n // 3] = 1.0
    edge = (np.arange(n) < max(1, n // 5)).astype(float)
    sparse = rng.random(n) * (rng.random(n) < 0.1)
    for a in (rng.random(n), sparse, spike, edge, edge[::-1], rng.lognormal(0.0, 20.0, n)):
        _assert_maximal_sliding_bitwise(a)


@given(
    log2n=st.integers(1, 9),
    density=st.floats(0, 1),
    sigma=st.floats(0, 30),
    seed=st.integers(0, 2**16),
)
def test_maximal_sliding_matches_brute_force_property(log2n, density, sigma, seed):
    # sparse to dense, flat to a huge dynamic range
    n = 2**log2n
    rng = np.random.default_rng(seed)
    _assert_maximal_sliding_bitwise(rng.lognormal(0.0, sigma, n) * (rng.random(n) < density))


def test_maximal_unknown_mode():
    with pytest.raises(DomainError, match="unknown maximal mode"):
        maximal(GridFunction(np.ones(256), Grid(2.0, 256)), "bogus")


# -- hilbert ---------------------------------------------------------------------


def test_hilbert_indicator_closed_form():
    g = Grid(8.0, 2**14)
    x = g.x()
    a, b = -1.0, 1.0
    f = GridFunction.indicator(a, b, g)
    truth = (1 / np.pi) * np.log(np.abs((x - a) / (x - b)))
    mid = (x >= a + (b - a) / 4) & (x <= b - (b - a) / 4)
    got = hilbert(f).samples
    rel = np.linalg.norm(got[mid] - truth[mid]) / np.linalg.norm(truth[mid])
    assert rel <= 0.01


def test_hilbert_even_to_odd():
    f = GridFunction(np.exp(-X**2), G)
    Hf = hilbert(f).samples
    assert np.max(np.abs(Hf + Hf[::-1])) < 1e-12


def test_hilbert_involution_minus_identity():
    g = Grid(8.0, 2**14)
    x = g.x()
    f = GridFunction(bump(x, 0.0, 0.5), g)
    HHf = hilbert(hilbert(f)).samples
    mid = np.abs(x) <= 0.25
    rel = np.linalg.norm(HHf[mid] + f.samples[mid]) / np.linalg.norm(f.samples[mid])
    assert rel <= 0.02


def test_hilbert_translation_equivariance():
    # shifting by whole cells commutes with the convolution (supports kept
    # well inside the window)
    f = GridFunction(bump(X, -1.0, 0.5), G)
    shift = 64
    shifted = GridFunction(np.roll(f.samples, shift), G)
    lhs = hilbert(shifted).samples
    rhs = np.roll(hilbert(f).samples, shift)
    interior = slice(2 * shift, G.N - 2 * shift)
    assert np.allclose(lhs[interior], rhs[interior], atol=1e-10)


def test_hilbert_anti_self_adjoint():
    rng = np.random.default_rng(23)
    f = GridFunction(bump(X, -0.5, 0.7) * rng.random(G.N), G)
    g = GridFunction(bump(X, 0.5, 0.7), G)
    h = G.h
    lhs = np.sum(hilbert(f).samples * g.samples) * h
    rhs = -np.sum(f.samples * hilbert(g).samples) * h
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_hilbert_kernel_spectrum_cached_per_size():
    # alternate two grid sizes; each call must match a freshly built kernel
    rng = np.random.default_rng(5)
    for n in (512, 2048, 512, 2048):
        grid = Grid(8.0, n)
        s = rng.standard_normal(n)
        d = np.arange(1 - n, n, dtype=float)
        with np.errstate(divide="ignore"):
            ker = np.where(d == 0, 0.0, 1.0 / (np.pi * d))
        m = 1 << (3 * n - 3).bit_length()
        fresh = np.fft.ifft(np.fft.fft(s, m) * np.fft.fft(ker, m))[n - 1 : 2 * n - 1].real
        assert hilbert(GridFunction(s, grid)).samples.tobytes() == fresh.tobytes()
    spec = _hilbert_kernel_spectrum(512)
    assert spec is _hilbert_kernel_spectrum(512)
    assert not spec.flags.writeable
    with pytest.raises(ValueError):
        spec[0] = 0.0


# -- bilinear hilbert -------------------------------------------------------------


def test_bht_constants_cancel_exactly():
    c = GridFunction(np.full(G.N, 1.7), G)
    d = GridFunction(np.full(G.N, -2.2), G)
    assert np.all(bht(c, d).samples == 0.0)


def test_bht_window_reduction_to_hilbert():
    g = Grid(8.0, 2**13)
    x = g.x()
    f = GridFunction(bump(x, 0.0, 1.0), g)
    window = GridFunction(((x >= -5.5) & (x <= 5.5)).astype(float), g)
    B = bht(f, window).samples
    piH = np.pi * hilbert(f).samples
    mid = np.abs(x) <= 0.5
    rel = np.linalg.norm(B[mid] - piH[mid]) / np.linalg.norm(piH[mid])
    assert rel <= 0.02


def test_bht_modulation_identity():
    g = Grid(8.0, 2**14)
    x = g.x()
    wv = bump(x, 0.0, 1.0)
    a, b = -20.0, 20.0
    f = GridFunction(wv * np.exp(1j * a * x), g)
    h = GridFunction(wv * np.exp(1j * b * x), g)
    B = bht(f, h).samples
    pred = 1j * np.pi * np.sign(b - a) * np.exp(1j * (a + b) * x) * wv**2
    mid = np.abs(x) <= 0.5
    rel = np.linalg.norm(B[mid] - pred[mid]) / np.linalg.norm(pred[mid])
    assert rel <= 0.05


def test_bht_swap_antisymmetry():
    # t -> -t in the kernel integral flips the sign under argument swap; the
    # paired-cell quadrature realizes BH(g, f) = -BH(f, g) exactly
    f = GridFunction(bump(X, -0.3, 0.8), G)
    g = GridFunction(bump(X, 0.4, 0.6), G)
    lhs = bht(g, f).samples
    rhs = -bht(f, g).samples
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale


def test_bht_bilinear():
    f1 = GridFunction(bump(X, -0.5, 0.5), G)
    f2 = GridFunction(bump(X, 0.5, 0.5), G)
    g = GridFunction(bump(X, 0.0, 1.5), G)
    lhs = bht(GridFunction(f1.samples + f2.samples, G), g).samples
    rhs = bht(f1, g).samples + bht(f2, g).samples
    assert np.allclose(lhs, rhs, atol=1e-12 * np.max(np.abs(lhs)))


def _bht_reference(f, g, t_max=None):
    # the unclipped k-loop: every shift over the full grid, kept as the oracle
    grid = f.grid
    if t_max is None:
        t_max = grid.L / 2
    n = grid.N
    k_max = min(n - 1, math.floor(t_max / grid.h + 1e-12))

    F, G = f.samples, g.samples
    dtype = np.result_type(F, G)
    out = np.zeros(n, dtype=dtype)
    for k in range(1, k_max + 1):
        if 2 * k >= n:
            break
        seg = slice(k, n - k)
        out[seg] += (F[: n - 2 * k] * G[2 * k :] - F[2 * k :] * G[: n - 2 * k]) / k
    return out


def _on_cells(rng, n, lo, hi, cplx=False):
    a = np.zeros(n, dtype=complex if cplx else float)
    a[lo:hi] = rng.standard_normal(hi - lo)
    if cplx:
        a[lo:hi] += 1j * rng.standard_normal(hi - lo)
    return a


def _bht_cases():
    # (name, n, f samples, g samples, t_max), t_max in units of h
    rng = np.random.default_rng(1704)
    for n in (8, 4096):
        q = n // 4
        yield "real", n, _on_cells(rng, n, q, 2 * q), _on_cells(rng, n, q + 1, 3 * q), None
        yield "complex", n, _on_cells(rng, n, q, 3 * q, True), _on_cells(rng, n, 1, 2 * q, True), None
        yield "real-by-complex", n, _on_cells(rng, n, q, 3 * q), _on_cells(rng, n, q, 2 * q, True), None
        yield "f-zero", n, np.zeros(n), _on_cells(rng, n, 0, n), None
        yield "g-zero", n, _on_cells(rng, n, 0, n, True), np.zeros(n), None
        yield "disjoint-far", n, _on_cells(rng, n, 0, 2), _on_cells(rng, n, n - 2, n), None
        yield "disjoint-far-reversed", n, _on_cells(rng, n, n - 3, n), _on_cells(rng, n, 0, 1, True), None
        yield "touch-left", n, _on_cells(rng, n, 0, q), _on_cells(rng, n, 0, 2 * q), None
        yield "touch-right", n, _on_cells(rng, n, 3 * q, n, True), _on_cells(rng, n, 2 * q, n), None
        yield "full", n, _on_cells(rng, n, 0, n), _on_cells(rng, n, 0, n), None
        yield "full-complex", n, _on_cells(rng, n, 0, n, True), _on_cells(rng, n, 0, n, True), None
        scattered = np.where(rng.random(n) < 0.1, rng.standard_normal(n), 0.0)
        yield "scattered", n, scattered, _on_cells(rng, n, q, 3 * q), None
        yield "t-window", n, _on_cells(rng, n, q, 3 * q), _on_cells(rng, n, q, 2 * q), 3.0
        yield "t-max-L", n, _on_cells(rng, n, 0, n), _on_cells(rng, n, q, n, True), float(n)


@pytest.mark.parametrize("case", list(_bht_cases()), ids=lambda c: f"{c[0]}-N{c[1]}")
def test_bht_support_clipping_is_bitwise_exact(case):
    _, n, fs, gs, t_max = case
    _assert_bht_bitwise(fs, gs, t_max)


def _assert_bht_bitwise(fs, gs, t_max=None):
    # t_max in units of h, as in _bht_cases
    grid = Grid(8.0, fs.size)
    f, g = GridFunction(fs, grid), GridFunction(gs, grid)
    t_max = None if t_max is None else min(t_max * grid.h, grid.L)
    got = bht(f, g, t_max=t_max).samples
    ref = _bht_reference(f, g, t_max)
    assert got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


_DTYPES = {"real": (False, False), "complex": (True, True), "real-by-complex": (False, True)}


def _bht_block_edge_cases():
    # (name, n, f support, g support, t_max); supports are [lo, hi) cell
    # ranges, t_max in units of h.  Blocks start at k = 1, 1 + B, ...; a
    # window ends mid-block.
    n, q = 256, 64
    for ks in (B - 1, B, B + 1):
        yield f"k_stop={ks}-by-t_max", n, (q, 3 * q), (q, 3 * q), float(ks)
        # +t spans nonempty only at k = ks - 1 and ks, the last two shifts
        yield f"k_stop={ks}-by-support", n, (q, q + 2), (q + 2 * ks - 1, q + 2 * ks + 1), None
    yield "window-ends-mid-block", n, (q, 3 * q), (q + 5, 2 * q), 2 * B + 5.5
    yield "window-ends-at-block-end", n, (q, 3 * q), (q + 5, 2 * q), 2.0 * B
    # the gap makes k = B, the last row of the first block, the first active shift
    yield "disjoint-plus-only", n, (q, q + 10), (q + 9 + 2 * B, q + 2 * B + 38), None
    yield "disjoint-minus-only", n, (q + 9 + 2 * B, q + 2 * B + 38), (q, q + 10), None
    yield "disjoint-plus-only-one-block", n, (q, q + 3), (q + 3, q + 9), None
    yield "both-edges", n, (0, n // 2 + 3), (n // 2 - 3, n), None
    yield "both-edges-reversed", n, (n // 2 - 3, n), (0, n // 2 + 3), float(n)
    yield "both-edges-full", n, (0, n), (0, n), float(n)


@pytest.mark.parametrize("dtypes", list(_DTYPES), ids=str)
@pytest.mark.parametrize("case", list(_bht_block_edge_cases()), ids=lambda c: c[0])
def test_bht_block_edges_are_bitwise_exact(case, dtypes):
    _, n, (fa, fb), (ga, gb), t_max = case
    rng = np.random.default_rng(1733)
    fc, gc = _DTYPES[dtypes]
    _assert_bht_bitwise(_on_cells(rng, n, fa, fb, fc), _on_cells(rng, n, ga, gb, gc), t_max)


@pytest.mark.parametrize("kind", ["smooth-bumps", "modulated", "dyadic-concentration"])
def test_bht_pool_family_members_are_bitwise_exact(kind):
    # the families, count and seed of the benchmark's `verify bht` tasks
    for f, g in make_family(FamilySpec(kind, count=4, arity=2), 1, Grid(8.0, 8192)).members:
        _assert_bht_bitwise(f.samples, g.samples)


def test_bht_sums_shifts_in_k_order():
    # terms over 12 orders of magnitude: summing the 16 shifts of a block
    # first, then adding the block to the output, changes the bits, so
    # this pins the row-by-row order of the block reduction
    n = 256
    rng = np.random.default_rng(5)
    fs = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6, n)
    gs = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6, n)
    grid = Grid(8.0, n)
    k_max = round(grid.L / 2 / grid.h)
    terms = np.zeros((k_max, n))
    for k in range(1, k_max + 1):
        terms[k - 1, k : n - k] = (fs[: n - 2 * k] * gs[2 * k :] - fs[2 * k :] * gs[: n - 2 * k]) / k
    blockwise = np.zeros(n)
    for k0 in range(0, k_max, B):
        blockwise += terms[k0 : k0 + B].sum(axis=0)
    ref = _bht_reference(GridFunction(fs, grid), GridFunction(gs, grid))
    assert blockwise.tobytes() != ref.tobytes()
    _assert_bht_bitwise(fs, gs)


def test_complex_division_by_k_is_scaling_by_its_reciprocal():
    # bht scales a complex term's float view by fl(1/k) where the oracle
    # divides by k: equal as values, and bit for bit on every nonzero part
    rng = np.random.default_rng(41)
    parts = rng.standard_normal(2048) * 10.0 ** rng.uniform(-320, 300, 2048)
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1e-315, 1e300, -1e300, 1.7e308, -1.7e308]
    parts[rng.choice(parts.size, 512, replace=False)] = rng.choice(special, 512)
    a = parts.view(complex)
    for k in range(1, 4097):
        want = a / k
        got = (parts * (1.0 / k)).view(complex)
        assert np.array_equal(got, want)
        w, g = want.view(float), got.view(float)
        nonzero = w != 0
        assert g[nonzero].tobytes() == w[nonzero].tobytes()


@given(
    log2n=st.integers(1, 9),
    cuts=st.lists(st.floats(0, 1), min_size=4, max_size=4),
    cplx=st.tuples(st.booleans(), st.booleans()),
    t_max=st.floats(0, 1),
    seed=st.integers(0, 2**16),
)
def test_bht_matches_reference_property(log2n, cuts, cplx, t_max, seed):
    # random supports, empty or touching an edge included, and t-windows
    n = 2**log2n
    fa, fb, ga, gb = (round(c * n) for c in sorted(cuts[:2]) + sorted(cuts[2:]))
    rng = np.random.default_rng(seed)
    fs = _on_cells(rng, n, fa, fb, cplx[0])
    gs = _on_cells(rng, n, ga, gb, cplx[1])
    _assert_bht_bitwise(fs, gs, 1.0 + t_max * (n / 2 - 1))


def test_bht_memory_peak_stays_small():
    # the block buffers hold B + 1 rows of a support hull, not of the whole grid
    fam = make_family(FamilySpec("modulated", count=4, arity=2), 1, Grid(8.0, 8192))
    peaks = []
    for f, g in fam.members:
        tracemalloc.start()
        try:
            bht(f, g)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 2_000_000


def test_bht_truncation_validation():
    f = GridFunction(bump(X), G)
    need = r"need h <= t_max <= L"
    with pytest.raises(DomainError, match=need):
        bht(f, f, t_max=100.0)
    with pytest.raises(DomainError, match=need):
        bht(f, f, t_max=G.h / 2)
    with pytest.raises(TypeError):  # t_max is keyword-only
        bht(f, f, 1.0)


# -- families ----------------------------------------------------------------------


def test_family_deterministic():
    spec = FamilySpec("smooth-bumps", count=4, arity=2)
    f1 = make_family(spec, 99, G)
    f2 = make_family(spec, 99, G)
    for a, b in zip(f1.members, f2.members):
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.samples, fb.samples)


def test_family_unit_l2_norm():
    fam = make_family(FamilySpec("smooth-bumps", count=8, arity=2), 1, G)
    u = PowerWeight(0).on_grid(G)
    for fn in fam.functions():
        assert measure_norm(fn, u, 2) == pytest.approx(1.0, rel=0.005)


def test_family_supports_inside_half_window():
    for kind in ("smooth-bumps", "modulated", "dyadic-concentration"):
        fam = make_family(FamilySpec(kind, count=6, arity=2), 5, G)
        for fn in fam.functions():
            outside = np.abs(X) > G.L / 2
            assert np.all(fn.samples[outside] == 0)


def test_dyadic_family_unit_lp_norm():
    p = Fraction(2)
    fam = make_family(FamilySpec("dyadic-concentration", count=5, arity=2), 2, G)
    u = PowerWeight(0).on_grid(G)
    for fn in fam.functions():
        assert measure_norm(fn, u, p) == pytest.approx(1.0, rel=0.02)


def test_dyadic_family_fills_extra_factors_with_the_right_indicator(capsys):
    # arity >= 3: every factor beyond the second is the right-hand indicator again, bit for
    # bit, and the first two are the arity-2 family's; `verify mz` runs on such a family
    pairs = make_family(FamilySpec("dyadic-concentration", count=4, arity=2), 2, G).members
    for arity in (3, 4):
        members = make_family(FamilySpec("dyadic-concentration", count=4, arity=arity), 2, G).members
        for tup, pair in zip(members, pairs):
            assert len(tup) == arity
            assert [f.samples.tobytes() for f in tup] == [f.samples.tobytes() for f in pair + (pair[0],) * (arity - 2)]
    argv = ["verify", "mz", "--q", "3,3,3", "--r", "3/2", "--K", "2", "--count", "4",
            "--family", "dyadic-concentration", "--N", "256,512"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["data"]["config"]["family"] == "dyadic-concentration"


def test_family_unknown_kind():
    with pytest.raises(DomainError, match="unknown family kind"):
        FamilySpec("sawtooth", count=2)


def test_modulated_family_complex():
    fam = make_family(FamilySpec("modulated", count=2, arity=2), 3, G)
    assert np.iscomplexobj(fam.members[0][0].samples)


def test_modulated_family_matches_the_whole_grid_phase():
    # the phase is taken on the bump's support only; the oracle takes it on
    # the whole grid, with the same draws, and agrees bit for bit on every
    # nonzero part
    spec = FamilySpec("modulated", count=4, arity=2)
    for n in (1024, 8192):
        grid = Grid(8.0, n)
        x, L, unit = grid.x(), grid.L, PowerWeight(0).on_grid(grid)
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            for fn in make_family(spec, seed, grid).functions():
                center = rng.uniform(-L / 4, L / 4)
                width = rng.uniform(L / 16, L / 8)
                freq = rng.uniform(4.0, 48.0) / L * (1 if rng.random() < 0.5 else -1)
                vals = _smooth_bump(x, center, width) * np.exp(1j * 2 * np.pi * freq * x)
                ref = (vals / measure_norm(GridFunction(vals, grid), unit, 2)).view(float)
                got = fn.samples.view(float)
                nonzero = got != 0
                assert got[nonzero].tobytes() == ref[nonzero].tobytes()
                assert np.all(ref[~nonzero] == 0)


def test_grid_function_rejects_a_wrong_shape_or_a_non_finite_sample():
    grid = Grid(8.0, 4)
    with pytest.raises(DomainError, match=r"^expected 4 samples, got shape \(3,\)$"):
        GridFunction(np.ones(3), grid)
    with pytest.raises(DomainError, match="^samples must be finite$"):
        GridFunction(np.array([1.0, np.nan, 1.0, 1.0]), grid)
    with pytest.raises(DomainError, match=r"^expected 4 samples, got shape \(3,\)$"):
        GridWeight(np.ones(3), grid)


def test_measure_norm_needs_a_positive_exponent():
    grid = Grid(8.0, 4)
    with pytest.raises(DomainError, match="^norm exponent must be positive, got 0$"):
        measure_norm(GridFunction(np.ones(4), grid), GridWeight(np.ones(4), grid), 0)
