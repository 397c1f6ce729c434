"""Grid-function numerics: weighted norms, maximal operator, Hilbert and
truncated bilinear Hilbert transforms, and seeded test families.

All operators act on midpoint-sampled functions over [-L, L] (see
:mod:`extrapkit.grid`).  Conventions:

* the Hilbert transform carries 1/pi, so H(Hf) ~ -f:
      Hf(x) = (1/pi) p.v. Int f(t)/(x - t) dt;
* the bilinear transform carries no 1/pi, kernel dt/t:
      BH(f, g)(x) = p.v. Int f(x - t) g(x + t) dt/t,
  discretized as a symmetric truncated sum over whole-cell shifts
  t = k*h, h <= |t| <= t_max, with the +t/-t cells paired so the odd
  kernel cancels exactly on constants.  Under the pairing, swapping the
  two arguments flips the sign: BH(g, f) = -BH(f, g), the discrete image
  of the t -> -t substitution in the integral.

The singular cell t = 0 is always skipped; t_max defaults to L/2, which
keeps the principal-value error controlled at desk scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .exponents import Exponent, ExponentLike, as_exponent
from .grid import Grid
from .weights import GridWeight, PowerWeight

__all__ = [
    "GridFunction",
    "FamilySpec",
    "TestFamily",
    "weighted_norm",
    "measure_norm",
    "maximal",
    "hilbert",
    "bht",
    "make_family",
]


@dataclass(eq=False)
class GridFunction:
    """Real or complex samples on a midpoint grid."""

    samples: np.ndarray
    grid: Grid

    def __post_init__(self):
        arr = np.asarray(self.samples)
        if not np.iscomplexobj(arr):
            arr = arr.astype(float, copy=False)
        self.samples = arr
        n = self.grid.N
        if arr.shape != (n,):
            raise DomainError(f"expected {n} samples, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("samples must be finite")

    def __mul__(self, c) -> "GridFunction":
        if isinstance(c, GridFunction):
            self.grid.require_same(c.grid)
            return GridFunction(self.samples * c.samples, self.grid)
        return GridFunction(self.samples * c, self.grid)

    def abs(self) -> "GridFunction":
        return GridFunction(np.abs(self.samples), self.grid)

    @classmethod
    def indicator(cls, a: float, b: float, grid: Grid) -> "GridFunction":
        x = grid.x()
        return cls(((x >= a) & (x <= b)).astype(float), grid)


# --------------------------------------------------------------------------
# norms
# --------------------------------------------------------------------------


def measure_norm(f: GridFunction, v: GridWeight, p: ExponentLike) -> float:
    """(Int |f|^p v dx)^(1/p) with v as the measure density, for 0 < p < inf."""
    f.grid.require_same(v.grid)
    p = as_exponent(p)
    pf = float(p.frac)
    if pf <= 0:
        raise DomainError(f"norm exponent must be positive, got {p}")
    with np.errstate(over="ignore"):
        norm = float((np.abs(f.samples) ** pf * v.samples).sum() * f.grid.h) ** (1.0 / pf)
    if not math.isfinite(norm):
        raise DomainError(f"the L^{p} norm overflows on the grid (L={f.grid.L}, N={f.grid.N})")
    return norm


def weighted_norm(f: GridFunction, w: GridWeight, p: ExponentLike) -> float:
    """The norm of f in L^p(w^p): (Int |f|^p w^p dx)^(1/p), for 0 < p < inf.

    This is the convention in which a weight w multiplies the function
    before the p-th power is taken: `measure_norm`, the raw-measure variant
    used for the iteration spaces, with the density w^p.
    """
    return measure_norm(f, w.power(as_exponent(p).frac), p)


# --------------------------------------------------------------------------
# maximal operator
# --------------------------------------------------------------------------


_EXACT_BLOCK = 16  # interval lengths per numpy call in `_maximal_exact`


def _shift_rows(a: np.ndarray, start: int, step: int, b: int, w: int) -> np.ndarray:
    """Read-only (b, w) view with element (r, j) = a[start + j + step*r]."""
    s = a.itemsize
    return np.lib.stride_tricks.as_strided(a[start:], shape=(b, w), strides=(step * s, s), writeable=False)


def _maximal_exact(a: np.ndarray) -> np.ndarray:
    # sup over all grid-aligned intervals, by length m from n down to 1.
    # Invariant: best[j] is the largest average, over the lengths done so
    # far, of an interval that starts at j.  Once length m is done, cell
    # j+m-1 takes best[j]: every interval from j of length >= m contains it.
    # A block of lengths m1..m0 fills X[1:] with (P[j+m] - P[j])/m over the
    # w = n-m0+1 starts (windows past the end read the -inf padding of P),
    # runs X[0] = best down the rows with np.maximum, and takes the column
    # max of the skewed view V of X (row stride w+1) in which row r lines up
    # with cell m0-1+c; a cell left of a row's start reads the row above
    # past its last window, which is -inf.  Each average is the expression
    # fl(fl(P[j+m] - P[j])/m) and max is exact, so the result does not
    # depend on the order.  O(N^2) element operations in O(N) numpy calls.
    n, B = a.size, _EXACT_BLOCK
    pref = np.concatenate(([0.0], np.cumsum(a), np.full(B, -np.inf)))
    best = np.full(n, -np.inf)
    out = a.copy()  # the one-cell intervals, free of prefix-sum rounding
    for m1 in range(n, 0, -B):
        m0 = max(1, m1 - B + 1)
        b, w = m1 - m0 + 1, n - m0 + 1
        X = np.empty((b + 1, w))
        X[0] = best[:w]
        np.subtract(_shift_rows(pref, m1, -1, b, w), pref[:w], out=X[1:])
        np.divide(X[1:], np.arange(m1, m0 - 1, -1, dtype=float)[:, None], out=X[1:])
        for r in range(1, b + 1):
            np.maximum(X[r - 1], X[r], out=X[r])
        best[:w] = X[b]
        V = _shift_rows(X.ravel(), w + 1 - b, w + 1, b, w)
        np.maximum(out[m0 - 1 :], V.max(axis=0), out=out[m0 - 1 :])
    return out


def _maximal_sliding(a: np.ndarray) -> np.ndarray:
    # dyadic window lengths m in every position, the lower bound
    # M_slide <= M_exact <= 2 * M_slide.  The window averages, padded with
    # m-1 -inf on each side, fold in log2(m) doublings to c[i] = the max
    # over windows [j, j+m) with i-m < j <= i: those containing i.
    # O(N log^2 N) element operations in O(log^2 N) numpy calls.
    n = a.size
    pref = np.concatenate(([0.0], np.cumsum(a)))
    out = a.copy()
    m = 2
    while m <= n:
        pad = np.full(m - 1, -np.inf)
        c = np.concatenate((pad, (pref[m:] - pref[:-m]) / m, pad))
        w = 1
        while w < m:
            c = np.maximum(c[:-w], c[w:])
            w *= 2
        np.maximum(out, c, out=out)
        m *= 2
    return out


def maximal(f: GridFunction, mode: str = "exact") -> GridFunction:
    """Discrete uncentered maximal function over grid-aligned intervals.

    mode="exact" is the O(N^2) reference, the supremum over *all* aligned
    intervals: the test oracle, `operator apply --op maximal`, and the A_1
    check of the RDF majorants.  mode="sliding" restricts to dyadic window
    lengths in every position, an O(N log^2 N) two-sided approximation with
    M_slide <= M_exact <= 2 M_slide (N a power of two); the RDF series and
    its norm-bound probe run on it.
    """
    a = np.abs(f.samples)
    if mode == "exact":
        out = _maximal_exact(a)
    elif mode == "sliding":
        out = _maximal_sliding(a)
    else:
        raise DomainError(f"unknown maximal mode {mode!r}")
    return GridFunction(out, f.grid)


# --------------------------------------------------------------------------
# Hilbert transform
# --------------------------------------------------------------------------


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


@functools.lru_cache(maxsize=8)
def _hilbert_kernel_spectrum(n: int) -> np.ndarray:
    """Read-only FFT of the displacement kernel 1/(pi d), d = 1-n..n-1, d != 0.

    It depends on n alone, so it is computed once per grid size.
    """
    d = np.arange(1 - n, n, dtype=float)
    with np.errstate(divide="ignore"):
        ker = np.where(d == 0, 0.0, 1.0 / (np.pi * d))
    spec = np.fft.fft(ker, _next_pow2(3 * n - 2))
    spec.flags.writeable = False
    return spec


def hilbert(f: GridFunction) -> GridFunction:
    """Principal-value Hilbert transform, singular cell omitted.

    Hf(x_i) = (1/pi) sum_{j != i} f(x_j)/(x_i - x_j) * h
            = (1/pi) sum_{j != i} f(x_j)/(i - j),

    evaluated as one zero-padded (non-circular) FFT convolution.  The
    displacement kernel is odd, so the quadrature is anti-self-adjoint.
    """
    n = f.grid.N
    s = f.samples
    spec = _hilbert_kernel_spectrum(n)
    conv = np.fft.ifft(np.fft.fft(s, spec.size) * spec)
    out = conv[n - 1 : 2 * n - 1]
    if not np.iscomplexobj(s):
        out = out.real
    # a copy, not a view: the padded convolution is freed on return
    return GridFunction(out.copy(), f.grid)


# --------------------------------------------------------------------------
# truncated bilinear Hilbert transform
# --------------------------------------------------------------------------

_BHT_BLOCK = 16  # shifts per numpy call in `bht`


def bht(f: GridFunction, g: GridFunction, *, t_max: float | None = None) -> GridFunction:
    """Symmetric truncated quadrature of p.v. Int f(x-t) g(x+t) dt/t.

    Sums whole-cell shifts t = k*h with h <= |t| <= t_max, each +-t
    pair combined as (f_{i-k} g_{i+k} - f_{i+k} g_{i-k})/k, which is exact
    cancellation for constant inputs.  Out-of-window samples are treated
    as zero; keep supports away from the boundary.

    The work is clipped to the supports.  With [af, bf] and [ag, bg] the
    first and last nonzero indices of f and g, the +t product of shift k
    is nonzero only for i in [max(af+k, ag-k), min(bf+k, bg-k)] and the -t
    product only for i in [max(af-k, ag+k), min(bf-k, bg+k)]; these spans
    are nonempty exactly for ag-bf <= 2k <= bg-af and af-bg <= 2k <= bf-ag,
    so no shift beyond max(bg-af, bf-ag)/2 contributes.

    Shifts run _BHT_BLOCK at a time, one numpy call per step for the whole
    block.  A block k0..k1 updates the hull of its rows' nonempty spans,
    taken at its extreme shifts (max(af+k0, ag-k1) to min(bf+k1, bg-k0) for
    +t, likewise for -t) and clamped to [k0, n-k0); a block with no
    nonempty span is skipped.  The blocks and their widest hull wmax are
    found first.  Each of F and G is then copied once, with _BHT_BLOCK zeros
    before it and _BHT_BLOCK + wmax after, and read through one window view
    W[s, j] = padded[s + j] of width wmax; a block's operands F[i+k], G[i+k]
    are the ascending row slice W[B+lo+k0 : B+lo+k1+1] and F[i-k], G[i-k]
    the descending one W[B+lo-k0 : B+lo-k1-1 : -1] (the stop is >= 0, as
    lo >= k0), cut to the hull's width.  A cell of the hull outside row k's
    own span reads zeros where the grid ends.  The rows and the second
    product are written into two buffers allocated once per call.  A
    product with no nonempty span in the block is not formed: if only -t is
    active the rows are -p2/k, not (+-0 - p2)/k.  The rows, each divided by
    its k, are added to the running sum in k order by `np.add.reduce` over
    axis 0, which adds row after row.

    A real row is divided by k.  A complex row is scaled on its float view
    by fl(1/k): numpy divides by k + 0j on Smith's branch, with ratio 0 and
    scale fl(1/k), as ((re + im*0)*fl(1/k), (im - re*0)*fl(1/k)), which is
    re*fl(1/k), im*fl(1/k) bit for bit on every nonzero part and differs at
    most in the sign of a zero part.

    This is exact, bit for bit, against the unclipped loop over every shift:
    every cell that a shift's span reaches gets the same expression on the
    same operands in the same shift order, and every other term is +-0
    (a product with a zero factor, all samples being finite, or a skipped
    product, which differs from the computed one only in the sign of a
    zero).  Adding +-0 changes no bit of an output that starts at +0.0,
    since no sum reaches -0.0 from there; the same absorbs the zero signs
    of the complex scaling.
    """
    f.grid.require_same(g.grid)
    grid = f.grid
    h = grid.h
    if t_max is None:
        t_max = grid.L / 2
    if not (h <= t_max <= grid.L):
        raise DomainError(f"need h <= t_max <= L, got h={h}, t_max={t_max}, L={grid.L}")
    n = grid.N
    k_max = min(n - 1, math.floor(t_max / h + 1e-12))

    F, G = f.samples, g.samples
    out = np.zeros(n, dtype=np.result_type(F, G))
    nz_f, nz_g = np.flatnonzero(F), np.flatnonzero(G)
    if nz_f.size == 0 or nz_g.size == 0:
        return GridFunction(out, grid)
    af, bf, ag, bg = int(nz_f[0]), int(nz_f[-1]), int(nz_g[0]), int(nz_g[-1])
    # the shifts whose +t (f(x-t) g(x+t)) or -t (f(x+t) g(x-t)) span is nonempty
    plus_ks = ((ag - bf + 1) // 2, (bg - af) // 2)
    minus_ks = ((af - bg + 1) // 2, (bf - ag) // 2)
    k_stop = min(k_max, (n - 1) // 2, max(plus_ks[1], minus_ks[1]))  # also 2k < n
    B = _BHT_BLOCK
    blocks = []
    for k0 in range(1, k_stop + 1, B):
        k1 = min(k0 + B - 1, k_stop)
        plus = max(k0, plus_ks[0]) <= min(k1, plus_ks[1])
        minus = max(k0, minus_ks[0]) <= min(k1, minus_ks[1])
        spans = []
        if plus:
            spans.append((max(af + k0, ag - k1), min(bf + k1, bg - k0)))
        if minus:
            spans.append((max(af - k1, ag + k0), min(bf - k0, bg + k1)))
        if spans:
            lo = max(k0, min(s[0] for s in spans))
            hi = min(n - k0, max(s[1] for s in spans) + 1)
            blocks.append((k0, k1, plus, minus, lo, hi))
    if not blocks:
        return GridFunction(out, grid)
    wmax = max(hi - lo for *_, lo, hi in blocks)
    Fw, Gw = (
        np.lib.stride_tricks.sliding_window_view(
            np.concatenate((np.zeros(B, a.dtype), a, np.zeros(B + wmax, a.dtype))), wmax
        )
        for a in (F, G)
    )
    T_buf = np.empty((B + 1) * wmax, dtype=out.dtype)
    p2_buf = np.empty(B * wmax, dtype=out.dtype)
    ks, scale = np.arange(1, k_stop + 1, dtype=float)[:, None], np.divide
    if np.iscomplexobj(out):  # by fl(1/k), the scale of numpy's division by k + 0j
        ks, scale = 1.0 / ks, np.multiply
    for k0, k1, plus, minus, lo, hi in blocks:
        b, w = k1 - k0 + 1, hi - lo
        asc, desc = slice(B + lo + k0, B + lo + k1 + 1), slice(B + lo - k0, B + lo - k1 - 1, -1)
        # T[0] is the running sum, T[1 + r] the term of shift k0 + r
        T = T_buf[: (b + 1) * w].reshape(b + 1, w)
        T[0] = out[lo:hi]
        terms = T[1:]
        if plus:
            np.multiply(Fw[desc, :w], Gw[asc, :w], out=terms)
        if minus:
            p2 = p2_buf[: b * w].reshape(b, w)
            np.multiply(Fw[asc, :w], Gw[desc, :w], out=p2)
            if plus:
                np.subtract(terms, p2, out=terms)
            else:
                np.negative(p2, out=terms)
        parts = terms.view(float)
        scale(parts, ks[k0 - 1 : k1], out=parts)
        np.add.reduce(T, axis=0, out=out[lo:hi])
    return GridFunction(out, grid)


# --------------------------------------------------------------------------
# test families
# --------------------------------------------------------------------------

FAMILY_KINDS = ("smooth-bumps", "modulated", "dyadic-concentration")


@dataclass(frozen=True)
class FamilySpec:
    """Generator recipe for a deterministic test family.

    The random draws depend only on (kind, count, arity, seed), never on the
    grid, so regenerating the family at a finer resolution samples the same
    continuum functions.
    """

    kind: str
    count: int = 8
    arity: int = 2

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise DomainError(
                f"unknown family kind {self.kind!r}; expected one of {FAMILY_KINDS}"
            )
        if self.count < 1 or self.arity < 1:
            raise DomainError("count and arity must be >= 1")


@dataclass
class TestFamily:
    members: list  # one tuple of `arity` GridFunctions per member, `count` of them

    def functions(self):
        """All member components flattened (probe use)."""
        return [fn for tup in self.members for fn in tup]


def _smooth_bump(x: np.ndarray, center: float, width: float) -> np.ndarray:
    u = (x - center) / width
    out = np.zeros_like(x)
    inside = np.abs(u) < 1
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
    return out


def make_family(spec: FamilySpec, seed: int, grid: Grid) -> TestFamily:
    """Deterministic family of compactly supported tuples on the grid.

    * smooth-bumps: random centers/widths, unit L^2 norm;
    * modulated: smooth bumps times e^{i omega x} with random frequency,
      the phase taken on the bump's support only, so samples off it are +0;
    * dyadic-concentration: delta^{-1/2} X_[delta, 2*delta], its reflection,
      then the right-hand indicator again in every factor beyond the second,
      over dyadic delta (unit L^2 norm) -- matched to weights singular at 0.

    Supports stay inside [-L/2, L/2].  Same (spec, seed) => identical family
    bit for bit.
    """
    if seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    x = grid.x()
    L = grid.L
    members = []
    if spec.kind in ("smooth-bumps", "modulated"):
        unit = PowerWeight(0).on_grid(grid)
        for _ in range(spec.count):
            tup = []
            for _ in range(spec.arity):
                center = rng.uniform(-L / 4, L / 4)
                width = rng.uniform(L / 16, L / 8)
                freq = rng.uniform(4.0, 48.0) / L * (1 if rng.random() < 0.5 else -1)
                vals = _smooth_bump(x, center, width)
                if spec.kind == "modulated":
                    on = vals != 0
                    vals = vals.astype(complex)
                    vals[on] *= np.exp(1j * 2 * np.pi * freq * x[on])
                fn = GridFunction(vals, grid)
                nrm = measure_norm(fn, unit, Exponent(2))
                if nrm > 0:
                    fn = GridFunction(fn.samples / nrm, grid)
                tup.append(fn)
            members.append(tuple(tup))
    else:  # dyadic-concentration
        for j in range(spec.count):
            delta = L / 2 ** (j + 2)
            amp = delta ** -0.5
            right = ((x >= delta) & (x <= 2 * delta)).astype(float) * amp
            left = ((x >= -2 * delta) & (x <= -delta)).astype(float) * amp
            tup = [GridFunction(right, grid), GridFunction(left, grid)]
            while len(tup) < spec.arity:
                tup.append(GridFunction(right.copy(), grid))
            members.append(tuple(tup[: spec.arity]))
    return TestFamily(members)
