"""Per-layer tracing from outside the program.

A Tracer replaces each layer's public functions, at every module of the
package that imported them, with a wrapper that records a span (name,
parent, start, end) in memory and bumps the layer's counters.  Nothing in
`src/` is changed; `uninstall` puts the original functions back.  A name
that is no longer found is reported in `missing` instead of failing.

Self time of a span is its duration minus the part of it that its child
spans cover; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

from extrapkit.errors import CertificationFailed, NormBoundTooSmall


def _cells(tracer, group, result, exc, seconds):
    if result is not None:
        samples = result.samples
        tracer.counters[f"{group}.cells"] += samples.size
        key = (group, samples.size, "complex" if samples.dtype.kind == "c" else "real")
        calls, total = tracer.by_size.get(key, (0, 0.0))
        tracer.by_size[key] = (calls + 1, total + seconds)


def _iterate(tracer, group, result, exc, seconds):
    if isinstance(exc, NormBoundTooSmall):
        tracer.counters[f"{group}.retries"] += 1
    if result is not None:
        tracer.counters[f"{group}.terms"] += len(result.term_norms)


def _certificates(tracer, group, result, exc, seconds):
    if isinstance(exc, CertificationFailed):
        tracer.counters["rdf.certificates.failed"] += len(exc.failures)
    if result is not None:
        tracer.counters["rdf.certificates.failed"] += sum(not c["ok"] for c in result.certificates.values())


def _members(tracer, group, result, exc, seconds):
    if result is not None:
        tracer.counters["verifier.members"] += len(result.ratios)
        tracer.counters["verifier.skipped"] += len(result.skipped)


def _bytes(tracer, group, result, exc, seconds):
    if result is not None:
        tracer.counters["reports.bytes"] += len(result)


# (span group, defining module, public function, counter hook)
WRAPPED = [
    ("gridfn.maximal", "extrapkit.gridfn", "maximal", _cells),
    ("gridfn.hilbert", "extrapkit.gridfn", "hilbert", _cells),
    ("gridfn.bht", "extrapkit.gridfn", "bht", _cells),
    ("gridfn.make_family", "extrapkit.gridfn", "make_family", None),
    ("gridfn.norms", "extrapkit.gridfn", "weighted_norm", None),
    ("gridfn.norms", "extrapkit.gridfn", "measure_norm", None),
    ("rdf.rdf_iterate", "extrapkit.rdf", "rdf_iterate", _iterate),
    ("rdf.estimate_maximal_norm", "extrapkit.rdf", "estimate_maximal_norm", None),
    ("rdf.build_proof_objects", "extrapkit.rdf", "build_proof_objects", _certificates),
    ("rdf.verify_case1_weight", "extrapkit.rdf", "verify_case1_weight", None),
    ("weights.estimate_class_constants", "extrapkit.weights", "estimate_class_constants", None),
    ("verifier.sweep", "extrapkit.verifier", "ratio_sweep", _members),
    ("verifier.sweep", "extrapkit.verifier", "vv_sweep", _members),
    ("verifier.sweep", "extrapkit.verifier", "iterated_vv_sweep", _members),
    ("verifier.sweep", "extrapkit.verifier", "mz_sweep", _members),
    ("planners", "extrapkit.extrapolation", "proof_exponents", None),
    ("planners", "extrapkit.applications", "bht_plan", None),
    ("planners", "extrapkit.applications", "bht_vv_plan", None),
    ("planners", "extrapkit.applications", "bht_power_range", None),
    ("planners", "extrapkit.applications", "bht_vv_power_range", None),
    ("planners", "extrapkit.applications", "section5_plan", None),
    ("planners", "extrapkit.applications", "mz_plan", None),
    ("cli.build_parser", "extrapkit.cli", "build_parser", None),
    ("reports", "extrapkit.reports", "envelope", None),
    ("reports", "extrapkit.reports", "dumps", _bytes),
]

ROOT = "cli"  # the span around extrapkit.cli.main; its self time is the CLI's own


def self_times(spans) -> dict[str, float]:
    """Sum of self seconds per span name.

    `spans` is a list of [name, parent_index, start, end]; a parent of None
    marks a root.  Child intervals are merged and clipped to the parent
    before they are subtracted.
    """
    children = defaultdict(list)
    for name, parent, t0, t1 in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out: dict[str, float] = defaultdict(float)
    for i, (name, parent, t0, t1) in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, t0), min(hi, t1)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[name] += (t1 - t0) - covered
    return dict(out)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        # (group, N, "real" | "complex") -> (calls, seconds) of the grid operators
        self.by_size: dict[tuple, tuple[int, float]] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (module, attribute, original, wrapper)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "extrapkit" or name.startswith("extrapkit."))]
        for group, modname, attr, hook in WRAPPED:
            try:
                orig = getattr(importlib.import_module(modname), attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(group, orig, hook)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, name, orig, wrapper))

    def _wrap(self, group, fn, hook):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [group, stack[-1] if stack else None, time.perf_counter(), None]
            spans.append(span)
            stack.append(idx)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                counters[f"{group}.calls"] += 1
                if hook is not None:
                    hook(self, group, result, exc, span[3] - span[2])

        return wrapper

    def root(self, main):
        """`main` wrapped as the root span of one task."""
        return self._wrap(ROOT, main, None)

    def install(self) -> None:
        """Point every import site of a wrapped function at its wrapper."""
        for mod, name, orig, wrapper in self._patches:
            setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, orig, wrapper in self._patches:
            setattr(mod, name, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
