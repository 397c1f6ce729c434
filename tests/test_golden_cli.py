"""Golden CLI outputs: a fixed list of seeded invocations at small N.

Each case's exit code and output are compared with the file recorded in
tests/golden/: every field exactly, floats to a relative 1e-12.  The
verify, rdf and weights-estimate files were recorded before the sweep
engine and the verify handlers were merged; the plan, CSV, weights-check
and operator files before the handlers stopped building their own
reports.  rdf_demo was re-recorded when its weight report dropped
`re_derived_equal`: the check re-derived the proof exponents the command
had just derived from the same range, so it could not be false.  It was
re-recorded again when the RDF series moved to the dyadic maximal and
stopped at its first negligible term, which changed its certificate
values, norm bounds, a1 ratios and W constants and added the R1-A1 and
R2-A1 certificates.
weights_check_csv was re-recorded when `weights check`, which has
no table, stopped accepting `--emit csv`: it is now a usage error (exit
1, nothing on stdout) instead of a JSON report under a CSV flag.
plan_bht_with_s now runs `plan bht-vv`, the one spelling of the
vector-valued plan (`plan bht` no longer takes --s1/--s2); only its argv
changed, its recorded output is the same.  operator_maximal and
operator_bht_complex (a complex x real pair) were recorded before
`operator apply` stopped writing its own CSV and printed through `main`.
operator_bht_tmax was recorded before `bht` dropped its `t_min` (and
`operator apply` its --tmin), which could only skip the singular cell
that `bht` always skips; it pins the surviving --tmax, whose window
t_max = 1 gives a different output from the t_max = L/2 default.
plan_extrapolate_case2 (p_+ = inf), plan_extrapolate_case3 (phi = beta =
inf), plan_section5_eta2 (eta_1 < eta_2) and plan_section5_eta1 (eta_1 >
eta_2) were recorded before the planners computed every conjugate of a
ratio through `conjugate_ratio` and the Section-5 p interval through one
closed form; they pin the paths that rewrite touched.
A refactor that changes any report shows up here.

Re-record (only when a report is meant to change):

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import csv
import io
import json
import math
import os
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> argv; paths are relative to tests/golden/, the working directory
CASES = {
    "verify_bht_unit": ["verify", "bht", "--q1", "2", "--q2", "2", "--count", "4",
                        "--seed", "3", "--N", "512,1024"],
    "verify_bht_power": ["verify", "bht", "--q1", "2", "--q2", "2", "--a", "1/4",
                         "--count", "4", "--N", "512,1024"],
    "verify_bht_modulated": ["verify", "bht", "--q1", "3", "--q2", "3/2", "--a", "1/8",
                             "--family", "modulated", "--count", "4", "--seed", "5",
                             "--N", "256,512,1024"],
    "verify_vv_k1": ["verify", "vv", "--q1", "2", "--q2", "2", "--s1", "2", "--s2", "2",
                     "--K", "1", "--count", "4", "--N", "512,1024"],
    "verify_vv_k4": ["verify", "vv", "--q1", "2", "--q2", "2", "--s1", "2", "--s2", "3/2",
                     "--a", "1/4", "--K", "4", "--count", "8", "--seed", "11",
                     "--N", "512,1024"],
    "verify_iterated": ["verify", "iterated", "--q1", "2", "--q2", "2", "--s1", "2",
                        "--s2", "2", "--t1", "3", "--t2", "3", "--J", "2", "--K", "2",
                        "--count", "8", "--N", "512,1024"],
    "verify_mz_tensor": ["verify", "mz", "--q", "3,3", "--r", "3/2", "--count", "8",
                         "--K", "4", "--N", "512,1024"],
    "verify_mz_product": ["verify", "mz", "--q", "3,3", "--r", "2", "--surrogate",
                          "product-identity", "--count", "6", "--K", "3", "--seed", "2",
                          "--N", "512,1024", "--emit", "csv"],
    "weights_estimate": ["weights", "estimate", "--file", "weight.csv", "--ap", "2",
                         "--rh", "2", "--depth", "5"],
    "plan_bht_grid_csv": ["plan", "bht", "--q1", "2", "--q2", "2", "--grid", "4/3,2,3",
                          "--emit", "csv"],
    "rdf_demo": ["rdf", "demo", "--pm", "1", "--pp", "inf", "--p0", "2", "--q0", "2",
                 "--p", "3", "--w", "power:1/8", "--N", "256"],
    "plan_extrapolate": ["plan", "extrapolate", "--pm", "1", "--pp", "inf", "--p0", "2",
                         "--q0", "2", "--p", "3"],
    "plan_extrapolate_csv": ["plan", "extrapolate", "--pm", "1", "--pp", "6", "--p0", "2",
                             "--q0", "3", "--p", "3", "--emit", "csv"],
    "plan_bht": ["plan", "bht", "--q1", "2", "--q2", "3"],
    "plan_bht_csv": ["plan", "bht", "--q1", "3/2", "--q2", "4", "--emit", "csv"],
    "plan_bht_vv": ["plan", "bht-vv", "--q1", "2", "--q2", "2", "--s1", "2", "--s2", "3/2"],
    "plan_bht_vv_csv": ["plan", "bht-vv", "--q1", "3", "--q2", "2", "--s1", "2", "--s2", "2",
                        "--emit", "csv"],
    "plan_bht_with_s": ["plan", "bht-vv", "--q1", "2", "--q2", "2", "--s1", "3/2", "--s2", "2"],
    "plan_section5_csv": ["plan", "section5", "--q1", "2", "--q2", "2", "--s1", "2", "--s2", "2",
                          "--g1", "1/4", "--g2", "1/4", "--g3", "1/2", "--emit", "csv"],
    "plan_extrapolate_case2": ["plan", "extrapolate", "--pm", "3", "--pp", "inf", "--p0", "3",
                               "--q0", "24/19", "--p", "4"],
    "plan_extrapolate_case3": ["plan", "extrapolate", "--pm", "3/2", "--pp", "4", "--p0", "4",
                               "--q0", "12/5", "--p", "192/113"],
    "plan_section5_eta2": ["plan", "section5", "--q1", "8/3", "--q2", "4", "--s1", "24/5",
                           "--s2", "8/3", "--g1", "5/16", "--g2", "1/4", "--g3", "7/16"],
    "plan_section5_eta1": ["plan", "section5", "--q1", "12/5", "--q2", "24", "--s1", "24/17",
                           "--s2", "6", "--g1", "7/16", "--g2", "3/16", "--g3", "3/8"],
    "plan_mz": ["plan", "mz", "--q", "3,3", "--r", "3/2"],
    "plan_mz_csv": ["plan", "mz", "--q", "3,3/2,4", "--r", "3/2", "--emit", "csv"],
    "plan_mz_base_csv": ["plan", "mz", "--q", "3,3", "--r", "2", "--emit", "csv"],
    "plan_bht_infeasible": ["plan", "bht", "--q1", "4/3", "--q2", "4/3"],
    "weights_check_csv": ["weights", "check", "--alpha", "1/4", "--ap", "2", "--rh", "2",
                          "--emit", "csv"],
    "weights_estimate_csv": ["weights", "estimate", "--file", "weight.csv", "--ap", "2",
                             "--rh", "2", "--depth", "3", "--emit", "csv"],
    "operator_hilbert": ["operator", "apply", "--op", "hilbert", "--in", "weight.csv"],
    "operator_maximal": ["operator", "apply", "--op", "maximal", "--in", "weight.csv"],
    "operator_bht_complex": ["operator", "apply", "--op", "bht", "--in", "complex.csv",
                             "--in2", "weight.csv"],
    "operator_bht_tmax": ["operator", "apply", "--op", "bht", "--in", "complex.csv",
                          "--in2", "weight.csv", "--tmax", "1"],
}


def _run(argv):
    from extrapkit.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(list(argv))
        except SystemExit as e:  # argparse usage errors
            code = e.code
    text = buf.getvalue()
    try:
        out = json.loads(text)
    except json.JSONDecodeError:
        out = list(csv.reader(io.StringIO(text)))
    return {"argv": list(argv), "exit": code, "stdout": out}


def _same(got, want, path="$"):
    """First difference between two decoded outputs, or None."""
    if isinstance(want, float) or isinstance(got, float):
        if not (isinstance(got, (int, float)) and isinstance(want, (int, float))):
            return f"{path}: {got!r} != {want!r}"
        if got == want or math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0):
            return None
        return f"{path}: {got!r} != {want!r}"
    if isinstance(want, str) and isinstance(got, str) and got != want:
        try:  # CSV cells are strings; compare numeric ones as floats
            g, w = float(got), float(want)
        except ValueError:
            return f"{path}: {got!r} != {want!r}"
        return _same(g, w, path)
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            return f"{path}: keys {list(got) if isinstance(got, dict) else got!r} != {list(want)}"
        for k in want:
            diff = _same(got[k], want[k], f"{path}.{k}")
            if diff:
                return diff
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: {got!r} != {want!r}"
        for i, (g, w) in enumerate(zip(got, want)):
            diff = _same(g, w, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if type(got) is not type(want) or got != want:
        return f"{path}: {got!r} != {want!r}"
    return None


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    with open(GOLDEN / f"{name}.json") as fh:
        want = json.load(fh)
    got = _run(CASES[name])
    assert got["argv"] == want["argv"]
    assert _same(got, want) is None, _same(got, want)


def test_same_flags_float_drift():
    assert _same({"a": [1.0, "x"]}, {"a": [1.0 + 1e-15, "x"]}) is None
    assert _same({"a": [1.0]}, {"a": [1.0 + 1e-9]}) is not None
    assert _same({"a": 1}, {"a": 1.0 + 1e-9}) is not None
    assert _same({"a": "3/2"}, {"a": "2"}) is not None
    assert _same({"a": 1, "b": 2}, {"b": 2, "a": 1}) is not None


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for name, argv in CASES.items():
        with open(f"{name}.json", "w") as fh:
            json.dump(_run(argv), fh, indent=1)
            fh.write("\n")
        print(name, file=sys.stderr)
