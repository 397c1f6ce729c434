import csv
import io
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from extrapkit.cli import main
from extrapkit.errors import CertificationFailed, DomainError, ExtrapkitError, Infeasible, NormBoundTooSmall
from extrapkit.grid import Grid
from extrapkit.gridfn import GridFunction, hilbert
from extrapkit.reports import SCHEMA


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(argv, capsys):
    code, out = run_cli(argv, capsys)
    return code, json.loads(out)


def test_plan_bht_reference(capsys):
    code, rep = run_json(["plan", "bht", "--q1", "2", "--q2", "2"], capsys)
    assert code == 0
    assert rep["schema"] == SCHEMA
    assert rep["feasible"] is True
    d = rep["data"]
    assert d["p1"] == "4" and d["p2"] == "4"
    assert d["eta1"] == "1/8"
    assert d["r1_minus"] == "8/5" and d["r1_plus"] == "8"
    assert d["p"] == "2"


def test_plan_bht_infeasible_exit_2(capsys):
    code, rep = run_json(["plan", "bht", "--q1", "4/3", "--q2", "4/3"], capsys)
    assert code == 2
    assert rep["feasible"] is False
    assert "3/2" in rep["reason"]


def test_plan_bht_rejects_float_literal(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["plan", "bht", "--q1", "2.5", "--q2", "2"])
    assert exc.value.code == 1


def test_usage_error_exit_1(capsys):
    # `verify truncation` is gone: it checked a bound its truncation met by
    # construction; so is `--tmin`, which could only skip the cell bht skips
    for argv in (
        ["plan", "nonsense"],
        ["verify", "truncation", "--q", "2", "--ncuts", "1,2"],
        ["operator", "apply", "--op", "bht", "--in", "f.csv", "--in2", "g.csv", "--tmin", "0.01"],
        ["rdf", "demo", "--pm", "1", "--pp", "inf", "--p0", "2", "--q0", "2", "--p", "3", "--w", "bogus"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert capsys.readouterr().out == ""


def test_plan_extrapolate_fields(capsys):
    code, rep = run_json(
        ["plan", "extrapolate", "--pm", "1", "--pp", "inf", "--p0", "2", "--q0", "2", "--p", "3"],
        capsys,
    )
    assert code == 0
    d = rep["data"]
    assert d["case"] == "I"
    assert (d["tau"], d["s"], d["alpha"]) == ("3", "1", "1/2")
    assert set(rep["certified"]) >= {"exp1", "exp2", "exp3", "s1=s2"}


def test_plan_extrapolate_invalid_range_exit2(capsys):
    code, rep = run_json(
        ["plan", "extrapolate", "--pm", "1", "--pp", "3", "--p0", "2", "--q0", "12", "--p", "2"],
        capsys,
    )
    assert code == 2 and rep["feasible"] is False


def test_plan_section5(capsys):
    code, rep = run_json(
        ["plan", "section5", "--q1", "2", "--q2", "2", "--s1", "2", "--s2", "2",
         "--g1", "1/4", "--g2", "1/4", "--g3", "1/2"],
        capsys,
    )
    assert code == 0
    assert rep["data"]["eta1"] == "1/2"
    assert "p1-2-3:conds" in rep["certified"]
    assert "needed-finish" in rep["certified"]


def test_plan_section5_error_prints_rationals(capsys):
    argv = ["plan", "section5", "--q1", "2", "--q2", "2", "--s1", "2", "--s2", "2", "--g1", "1", "--g2", "0", "--g3", "0"]
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: gamma_i must lie in [0, 1), got 1, 0, 0\n"


def test_plan_mz(capsys):
    code, rep = run_json(["plan", "mz", "--q", "3,3", "--r", "3/2"], capsys)
    assert code == 0
    assert len(rep["data"]["steps"]) == 2


def test_plan_mz_target_outside_open_range(capsys):
    # the planners share one open-exponent check and its wording
    assert main(["plan", "mz", "--q", "1/2,3", "--r", "3/2"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: q1 must satisfy 1 < q1 < inf, got 1/2\n"


def test_weights_check(capsys):
    code, rep = run_json(
        ["weights", "check", "--alpha", "0", "--ap", "2", "--rh", "2"], capsys
    )
    assert code == 0 and rep["data"]["member"] is True
    code, rep = run_json(
        ["weights", "check", "--alpha=-1/2", "--ap", "2", "--rh", "2"], capsys
    )
    assert rep["data"]["member"] is False and rep["data"]["reasons"]


def test_negative_rational_after_its_flag(capsys):
    # argparse alone reads only -1 and -0.5 as values; -N/D after its flag is
    # one too, and means what the --flag=-N/D spelling means
    verify = ["verify", "bht", "--q1", "2", "--q2", "2", "--count", "2", "--N", "256,512"]
    check = ["weights", "check", "--ap", "2", "--rh", "2"]
    for spaced, joined in (
        (verify + ["--a", "-1/8"], verify + ["--a=-1/8"]),
        (check + ["--alpha", "-1/2"], check + ["--alpha=-1/2"]),
    ):
        assert run_cli(spaced, capsys) == run_cli(joined, capsys)
    assert run_json(check + ["--alpha", "-1/2"], capsys)[1]["data"]["member"] is False
    # the value reaches the planner, which names it
    argv = ["plan", "section5", "--q1", "2", "--q2", "2", "--s1", "2", "--s2", "2",
            "--g1", "-1/2", "--g2", "1/4", "--g3", "1/2"]
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: gamma_i must lie in [0, 1), got -1/2, 1/4, 1/2\n"
    # an exponent flag still reports its own error, not a missing argument
    with pytest.raises(SystemExit) as exc:
        main(["plan", "bht", "--q1", "-1/2", "--q2", "2"])
    assert exc.value.code == 1
    assert "argument --q1: exponent must be nonnegative, got -1/2" in capsys.readouterr().err


def test_weights_estimate_csv_roundtrip(tmp_path, capsys):
    grid = Grid(4.0, 512)
    x = grid.x()
    path = tmp_path / "w.csv"
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["x", "value"])
        for xi in x:
            wr.writerow([f"{xi:.17g}", f"{abs(xi) ** 0.25:.17g}"])
    code, rep = run_json(
        ["weights", "estimate", "--file", str(path), "--ap", "2", "--rh", "2", "--depth", "6"],
        capsys,
    )
    assert code == 0
    consts = rep["data"]["constants"]
    assert len(consts) == 6
    assert all(c["ap_const"] >= 1.0 for c in consts)
    # monotone in depth
    aps = [c["ap_const"] for c in consts]
    assert all(a <= b + 1e-12 for a, b in zip(aps, aps[1:]))


def test_weights_estimate_a1_and_rh_inf(tmp_path, capsys):
    # v = 1, 2, 3, 4 on [-1, 1]: A_1 takes mean(v) max(1/v), RH_inf max(v) / mean(v);
    # the whole interval gives the supremum 2.5 and 1.6 at both depths
    path = tmp_path / "w.csv"
    _write_rows(path, [["x", "value"]] + [[x, v] for x, v in zip(("-0.75", "-0.25", "0.25", "0.75"), "1234")])
    argv = ["weights", "estimate", "--file", str(path), "--ap", "1", "--rh", "inf", "--depth", "2"]
    code, rep = run_json(argv, capsys)
    assert code == 0 and rep["feasible"] is True
    assert (rep["data"]["ap"], rep["data"]["rh"]) == ("1", "inf")
    assert rep["data"]["constants"] == [{"depth": d, "ap_const": 2.5, "rh_const": 1.6} for d in (1, 2)]


def test_weights_estimate_rejects_nonuniform(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["x", "value"])
        for xi in (0.0, 0.1, 0.3, 0.35):
            wr.writerow([xi, 1.0])
    code = main(["weights", "estimate", "--file", str(path), "--ap", "2", "--rh", "2", "--depth", "2"])
    assert code == 1


def test_operator_apply_hilbert(tmp_path, capsys):
    grid = Grid(4.0, 512)
    x = grid.x()
    vals = np.exp(-(x**2))
    path = tmp_path / "f.csv"
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["x", "re"])
        for xi, vi in zip(x, vals):
            wr.writerow([f"{xi:.17g}", f"{vi:.17g}"])
    code, out = run_cli(["operator", "apply", "--op", "hilbert", "--in", str(path)], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    got = np.array([float(r[1]) for r in rows[1:]])
    ref = hilbert(GridFunction(vals, grid)).samples
    assert np.allclose(got, ref, atol=1e-12)


def test_rdf_demo_json_and_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, rep = run_json(
        ["rdf", "demo", "--pm", "1", "--pp", "inf", "--p0", "2", "--q0", "2",
         "--p", "3", "--w", "power:1/8", "--N", "512", "--trace", str(trace)],
        capsys,
    )
    assert code == 0 and rep["feasible"]
    assert rep["data"]["weight_report"]["W_q0_bitwise"] is True
    rows = list(csv.reader(open(trace)))
    assert rows[0] == ["x", "h1", "H1", "h2", "H2", "mu1", "mu2", "W"]
    assert len(rows) == 513
    # the majorants are written unfloored: each is a positive weight as summed
    assert all(float(row[5]) > 0 and float(row[6]) > 0 for row in rows[1:])


def test_rdf_demo_reports_its_failed_certificates(tmp_path, monkeypatch, capsys):
    # with S the identity the A_1 certificates miss (as in test_a1_certificate_can_fail):
    # the demo reports the failures, exits 2 and writes no trace
    from extrapkit import gridfn

    monkeypatch.setattr(gridfn, "_maximal_sliding", lambda a: a)
    trace = tmp_path / "trace.csv"
    code, rep = run_json(RDF_DEMO + ["--N", "256", "--trace", str(trace)], capsys)
    assert code == 2 and rep["feasible"] is False
    assert any(x.startswith("R1-A1:") for x in rep["data"]["failures"])
    assert rep["reason"] == "; ".join(rep["data"]["failures"])
    assert rep["certified"] and "H-certificates" not in rep["certified"]
    assert not trace.exists()


def test_rdf_demo_certifies_a_target_below_one(capsys):
    # q = 16/19: ||h1|| passes Minkowski's 2 but stays under the q-triangle
    # bound 2^(1/q), and C1 = 2^(1/q + 1/delta) carries the same factor
    code, rep = run_json(
        ["rdf", "demo", "--pm", "32/21", "--pp", "32/5", "--p0", "16/5", "--q0", "8/7",
         "--p", "8/5", "--N", "512"],
        capsys,
    )
    assert code == 0 and rep["feasible"] is True
    pe, objs = rep["data"]["proof_exponents"], rep["data"]["objects"]
    assert pe["q"] == "16/19"
    h1 = objs["certificates"]["h1-norm"]
    assert 2.0 < h1["value"] <= h1["bound"] == 2.0 ** float(Fraction(19, 16))
    assert objs["C1"] == 2.0 ** float(Fraction(19, 16) + 1 / Fraction(pe["delta"]))


def test_verify_bht_report_shape(capsys):
    code, rep = run_json(
        ["verify", "bht", "--q1", "2", "--q2", "2", "--a", "2/5",
         "--family", "smooth-bumps", "--count", "8", "--seed", "7",
         "--N", "1024,2048"],
        capsys,
    )
    assert code == 0
    d = rep["data"]
    assert d["verdict"] == "BOUNDED-STABLE"
    assert d["seed"] == 7
    assert d["resolutions"] == [1024, 2048]
    assert "evidence" in d["caveat"]
    assert rep["grid"]["N"] == [1024, 2048]


def test_verify_iterated_reports_q_s_and_t_as_given(capsys):
    # --t1/--t2 equal --q1/--q2 in every benchmark task, so only distinct values pin the order
    argv = ["verify", "iterated", "--q1", "2", "--q2", "2", "--s1", "3", "--s2", "3", "--t1", "3/2", "--t2", "3",
            "--J", "2", "--K", "2", "--count", "16", "--N", "1024"]
    code, rep = run_json(argv, capsys)
    assert code == 0
    cfg = rep["data"]["config"]
    assert (cfg["q"], cfg["s"], cfg["t"]) == (["2", "2"], ["3", "3"], ["3/2", "3"])


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--q1", "2"], "the following arguments are required: --q2"),
        (["--plan-file", "x.json", "--q1", "2", "--q2", "2"], "unrecognized arguments: --plan-file x.json"),
    ],
    ids=["missing-q2", "plan-file"],
)
def test_verify_bht_takes_its_exponents_as_q1_q2(capsys, extra, message):
    # `--plan-file` read only data.q1 and data.q2 of a saved plan: --q1/--q2 spelled twice
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bht", *extra, "--count", "2", "--N", "256"])
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.endswith(f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "bht", "--q1", "inf", "--q2", "2"],
        ["verify", "vv", "--q1", "inf", "--q2", "2", "--s1", "2", "--s2", "2"],
    ],
    ids=["bht", "vv"],
)
def test_infinite_q_with_a_names_the_planner_rule(capsys, argv):
    # the weight |x|^(-a/q1) used to ask inf for a rational value first
    assert main(argv + ["--a", "1/2", "--count", "2", "--N", "256,512"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: q1 must satisfy 1 < q1 < inf, got inf\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "bht", "--q1", "0", "--q2", "2"],
        ["verify", "vv", "--q1", "0", "--q2", "2", "--s1", "2", "--s2", "2"],
    ],
    ids=["bht", "vv"],
)
def test_zero_q_with_a_names_the_planner_rule(capsys, argv):
    # the weight |x|^(-a/q1) used to ask for 1/0 first
    assert main(argv + ["--a", "1/2", "--count", "2", "--N", "256,512"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: q1 must satisfy 1 < q1 < inf, got 0\n"


@pytest.mark.parametrize("q", ["3", "3,3,3"], ids=["m1", "m3"])
def test_plan_and_verify_mz_take_the_same_m(capsys, q):
    code, plan = run_json(["plan", "mz", "--q", q, "--r", "3/2"], capsys)
    assert code == 0 and plan["feasible"] is True
    m = len(plan["data"]["q"])
    assert m == len(q.split(",")) and len(plan["data"]["steps"]) == m
    for surrogate in ("tensor-hilbert", "product-identity"):
        code, rep = run_json(
            ["verify", "mz", "--q", q, "--r", "3/2", "--surrogate", surrogate, "--K", "2",
             "--count", "4", "--N", "256,512"],
            capsys,
        )
        assert code == 0 and rep["feasible"] is True
        assert rep["data"]["verdict"] == "BOUNDED-STABLE"
        assert rep["data"]["config"]["q"] == plan["data"]["q"]


def test_verify_mz_zero_sups_are_stable(capsys):
    # the one member's f and g have disjoint supports, so f*g = 0 at every N;
    # a sup that stays 0 has not grown (it used to be DIVERGENT, exit 2)
    code, rep = run_json(
        ["verify", "mz", "--q", "3,3", "--r", "3/2", "--surrogate", "product-identity",
         "--K", "1", "--count", "1", "--N", "256,512,1024", "--seed", "5"],
        capsys,
    )
    assert rep["data"]["sup_by_resolution"] == [0.0, 0.0, 0.0]
    assert rep["data"]["verdict"] == "BOUNDED-STABLE"
    assert code == 0 and rep["feasible"] is True


def test_verify_mz(capsys):
    code, rep = run_json(
        ["verify", "mz", "--q", "3,3", "--r", "3/2", "--count", "8", "--K", "4",
         "--N", "512,1024"],
        capsys,
    )
    assert code == 0
    assert rep["data"]["verdict"] == "BOUNDED-STABLE"


def test_emit_csv_plan(capsys):
    code, out = run_cli(["plan", "bht", "--q1", "2", "--q2", "2", "--emit", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    header = rows[0]
    assert "p1" in header and "eta1" in header
    idx = header.index("p1")
    assert rows[1][idx] == "4"


def test_console_script_installed():
    out = subprocess.run(
        [sys.executable, "-m", "extrapkit.cli", "plan", "bht", "--q1", "2", "--q2", "2"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["feasible"] is True


@pytest.mark.parametrize("emit", ["json", "csv"])
def test_closed_stdout_exits_1_without_traceback(emit):
    # the pipe's read end is closed before the child starts, so its first write
    # fails however small the report is (a pipe buffer would otherwise hide it)
    r, w = os.pipe()
    os.close(r)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "extrapkit.cli", "plan", "bht", "--q1", "2", "--q2", "2", "--emit", emit],
            stdout=w, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(w)
    assert (out.returncode, out.stderr) == (1, "")


def test_root_help_is_for_users(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0
    out = capsys.readouterr().out
    assert "{plan,weights,operator,rdf,verify}" in out
    assert "(fields, rows)" not in out


def _write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.mark.parametrize(
    "rows",
    [None, [["x", "re"], ["0.5", "1.0"]], [["x", "re"], ["-0.5", "1.0"], ["0.5"]],
     [["x", "re"], ["-0.5", "1.0"], ["0.5", "one"]],
     # uniform x columns that are not the midpoints of [-L, L]: each used to be
     # read as a different grid (or against a reversed x) with exit 0
     [["x", "re"]] + [[x, "1.0"] for x in ("0.5", "1.5", "2.5", "3.5")],
     [["x", "re"]] + [[x, "1.0"] for x in ("1.5", "0.5", "-0.5", "-1.5")],
     [["x", "re"], ["-0.5", "1.0"], ["-0.5", "1.0"]]],
    ids=["missing-file", "one-row", "short-row", "non-numeric", "off-centre", "descending",
         "duplicate-x"],
)
@pytest.mark.parametrize("cmd", ["weights", "operator"])
def test_bad_csv_input_exit_1(tmp_path, capsys, rows, cmd):
    path = tmp_path / "in.csv"
    if rows is not None:
        _write_rows(path, rows)
    if cmd == "weights":
        argv = ["weights", "estimate", "--file", str(path), "--ap", "2", "--rh", "2", "--depth", "2"]
    else:
        argv = ["operator", "apply", "--op", "hilbert", "--in", str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "bht", "--q1", "2", "--q2", "2", "--N", "3"],
        ["verify", "bht", "--q1", "2", "--q2", "2", "--L", "inf", "--N", "256"],
        ["verify", "vv", "--q1", "2", "--q2", "2", "--s1", "2", "--s2", "2", "--K", "0",
         "--count", "2", "--N", "256"],
        ["verify", "vv", "--q1", "2", "--q2", "2", "--s1", "2", "--s2", "2", "--K", "4",
         "--count", "2", "--N", "256,512"],
        ["verify", "bht", "--q1", "2", "--q2", "2", "--count", "2", "--N", "256", "--seed", "-1"],
        ["rdf", "demo", "--pm", "1", "--pp", "inf", "--p0", "2", "--q0", "2", "--p", "3",
         "--N", "256", "--seed", "-1"],
        ["verify", "bht", "--q1", "inf", "--q2", "2", "--count", "2", "--N", "256,512"],
        # the verdict rules compare sups one resolution doubling apart
        ["verify", "bht", "--q1", "2", "--q2", "2", "--a", "3/2", "--count", "2", "--N", "256,256"],
        ["verify", "bht", "--q1", "2", "--q2", "2", "--family", "dyadic-concentration",
         "--count", "4", "--N", "1024,512,256"],
        # the weight |x|^(-a/q1) divided by q1 = 0 with a ZeroDivisionError
        ["verify", "bht", "--q1", "0", "--q2", "2", "--a", "1/2", "--count", "2", "--N", "256"],
    ],
    ids=["odd-grid", "infinite-width", "zero-block", "block-over-count",
         "negative-seed", "rdf-negative-seed", "bht-pair-outside-planner", "repeated-resolution",
         "descending-resolutions", "zero-q-with-a"],
)
def test_bad_verify_input_exit_1(capsys, argv):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_subnormal_cell_width_is_one_clean_error(capsys):
    # the grid used to build with h = 8e-323; bht then overflowed with
    # RuntimeWarnings and the run failed on "samples must be finite"
    argv = ["verify", "bht", "--q1", "2", "--q2", "2", "--L", "1e-320", "--N", "256", "--count", "2"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert caught == []
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: half-width 1e-320")


def test_norm_overflow_on_tiny_half_width_is_one_clean_error(capsys):
    # h = 7.8e-303 is a normal cell width, but unit-L^2 samples of size
    # ~1e150 overflow in |f|^3; this used to warn and fail on "h2 must be nonzero"
    argv = ["rdf", "demo", "--pm", "1", "--pp", "inf", "--p0", "2", "--q0", "2", "--p", "3",
            "--L", "1e-300", "--N", "256"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert caught == []
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: the L^3 norm overflows on the grid (L=1e-300, N=256)\n"


def test_non_finite_numbers_serialize_as_strings():
    from extrapkit.reports import dumps, envelope, to_jsonable

    values = [float("nan"), float("inf"), float("-inf"), np.float64("nan"),
              np.float64("inf"), np.float64("-inf"), np.array([np.nan, 1.5])]
    want = ["nan", "inf", "-inf", "nan", "inf", "-inf", ["nan", 1.5]]
    assert to_jsonable(values) == want

    def reject(token):
        raise ValueError(f"bare {token} is not JSON")

    rep = envelope("test", feasible=True, data={"v": values})
    assert json.loads(dumps(rep), parse_constant=reject)["data"] == {"v": want}


def test_numpy_values_serialize_as_python_values():
    # np.bool_ and 0-d arrays used to reach json.dumps unconverted
    from extrapkit.reports import dumps, envelope, to_jsonable

    values = [np.float32("inf"), np.int64(3), np.bool_(True), np.array(2.5),
              np.array([[1, 2], [3, -np.inf]])]
    want = ["inf", 3, True, 2.5, [[1.0, 2.0], [3.0, "-inf"]]]
    got = to_jsonable(values)
    assert got == want and [type(v) for v in got] == [str, int, bool, float, list]
    assert json.loads(dumps(envelope("test", feasible=True, data=values)))["data"] == want


def test_plan_bht_grid_needs_csv(capsys):
    argv = ["plan", "bht", "--q1", "2", "--q2", "2", "--grid", "2,3"]
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error:") and "--grid" in out.err
    code, text = run_cli(argv + ["--emit", "csv"], capsys)
    assert code == 0 and len(list(csv.reader(io.StringIO(text)))) == 1 + 4
    # --grid ignores --q1/--q2, so it does not need them
    assert run_cli(["plan", "bht", "--grid", "2,3", "--emit", "csv"], capsys) == (code, text)


@pytest.mark.parametrize(
    "cmd, extra",
    [("bht", []), ("bht", ["--q1", "2"]), ("bht-vv", ["--q2", "2", "--s1", "3/2", "--s2", "3/2"])],
    ids=["bht", "bht-q1-only", "bht-vv-q2-only"],
)
def test_plan_bht_without_grid_needs_q1_and_q2(capsys, cmd, extra):
    assert main(["plan", cmd, *extra]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: plan {cmd} needs --q1 and --q2, or --grid\n"


def test_infeasible_report_exits_2(tmp_path, capsys):
    code, rep = run_json(["weights", "check", "--alpha=-1/2", "--ap", "2", "--rh", "2"], capsys)
    assert code == 2 and rep["feasible"] is False and rep["data"]["member"] is False
    # a subnormal weight is positive and finite, but its A_2 constant overflows
    x = Grid(2.0, 64).x()
    path = tmp_path / "w.csv"
    _write_rows(path, [["x", "re"]] + [[repr(float(v)), "1e-320" if abs(v) < 0.5 else "1"] for v in x])
    code, rep = run_json(["weights", "estimate", "--file", str(path), "--ap", "2", "--rh", "2",
                          "--depth", "2"], capsys)
    assert code == 2 and rep["feasible"] is False
    assert rep["data"]["constants"][0]["ap_const"] == "inf"
    # a pair that `plan bht` rejects is not swept
    code, rep = run_json(["verify", "bht", "--q1", "6/5", "--q2", "6/5", "--count", "2", "--N", "256,512"],
                         capsys)
    assert code == 2 and rep["feasible"] is False and rep["reason"] == "1/q = 5/3 >= 3/2"


def test_plan_bht_vv_grid_tabulates_vector_valued_plans(capsys):
    argv = ["plan", "bht-vv", "--q1", "2", "--q2", "2", "--s1", "3/2", "--s2", "3/2",
            "--grid", "2,3", "--emit", "csv"]
    code, text = run_cli(argv, capsys)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert code == 0 and len(rows) == 4
    assert all(r["s1"] == "3/2" and r["s2"] == "3/2" and r["s"] == "3/4" for r in rows)
    assert "1/s-lt-3/2" in rows[0]["certified"]
    assert run_cli(["plan", "bht-vv", *argv[6:]], capsys) == (code, text)  # without --q1/--q2
    # each row is the plan `plan bht-vv` prints for that (q1, q2)
    code, one = run_cli(argv[:-4] + ["--emit", "csv"], capsys)
    single = next(csv.DictReader(io.StringIO(one)))
    assert all(rows[0][k] == v for k, v in single.items() if not k.startswith("power_range."))


def test_plan_bht_takes_no_s(capsys):
    # the vector-valued plan is spelled `plan bht-vv`; `plan bht --s1/--s2`
    # printed a `plan bht-vv` report under the wrong command
    with pytest.raises(SystemExit) as exc:
        main(["plan", "bht", "--q1", "2", "--q2", "2", "--s1", "3/2", "--s2", "2"])
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert out.out == "" and "unrecognized arguments: --s1 3/2 --s2 2" in out.err


def test_rdf_demo_case_has_one_value(capsys):
    argv = ["rdf", "demo", "--pm", "1", "--pp", "inf", "--p0", "2", "--q0", "2", "--p", "3",
            "--N", "256", "--case", "II"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "invalid choice" in capsys.readouterr().err


RDF_DEMO = ["rdf", "demo", "--pm", "1", "--pp", "inf", "--p0", "2", "--q0", "2", "--p", "3"]


@pytest.mark.parametrize("base", [RDF_DEMO], ids=["rdf-demo"])
@pytest.mark.parametrize("family", ["modulated", "dyadic-concentration"])
def test_one_member_commands_reject_other_families(capsys, base, family):
    # the handler builds one smooth-bumps member; another family was ignored
    with pytest.raises(SystemExit) as exc:
        main(base + ["--N", "256", "--family", family])
    assert exc.value.code == 1
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("base", [RDF_DEMO], ids=["rdf-demo"])
def test_one_member_commands_reject_several_resolutions(capsys, base):
    # every --N after the first was ignored
    assert main(base + ["--N", "256,512"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "one resolution" in err and "256,512" in err


@pytest.mark.parametrize("base", [RDF_DEMO], ids=["rdf-demo"])
def test_one_member_commands_still_parse_count(capsys, base):
    code, rep = run_json(base + ["--N", "256", "--family", "smooth-bumps", "--count", "16", "--emit", "json"], capsys)
    assert code == 0 and rep["feasible"] is True and rep["grid"]["N"] == 256


@pytest.mark.parametrize(
    "argv",
    [["weights", "check", "--alpha", "1/4", "--ap", "2", "--rh", "2"], RDF_DEMO + ["--N", "256"]],
    ids=["weights-check", "rdf-demo"],
)
def test_commands_without_a_table_accept_only_emit_json(capsys, argv):
    # neither report has a table: --emit csv used to print JSON and exit 0
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--emit", "csv"])
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert out.out == "" and "invalid choice: 'csv'" in out.err
    code, rep = run_json(argv + ["--emit", "json"], capsys)
    assert code == 0 and rep["feasible"] is True


@pytest.mark.parametrize("token", ["abc", "1/0", "1.5", "2,,3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "bht", "--q1", "2", "--q2", "2", "--emit", "csv", "--grid"],
        ["plan", "mz", "--r", "3/2", "--q"],
        ["verify", "mz", "--r", "3/2", "--N", "256", "--q"],
    ],
    ids=["grid", "plan-mz-q", "verify-mz-q"],
)
def test_bad_list_token_is_a_usage_error(capsys, argv, token):
    with pytest.raises(SystemExit) as exc:
        main(argv + [token])
    assert exc.value.code == 1
    out = capsys.readouterr()
    assert out.out == "" and f"error: argument {argv[-1]}:" in out.err


def test_cached_parser_carries_nothing_between_calls(capsys):
    from extrapkit.cli import build_parser

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        out = capsys.readouterr()
        return code, out.out, out.err

    verify = ["verify", "bht", "--q1", "2", "--q2", "2", "--count", "2"]
    plan = ["plan", "bht", "--q1", "2", "--q2", "2"]
    # a usage error, then explicit --N / --w / --emit, then the same commands on their defaults
    explicit = [["plan", "nonsense"], verify + ["--N", "512"], RDF_DEMO + ["--w", "power:1/8"],
                plan + ["--emit", "csv"]]
    defaults = [["plan", "nonsense"], verify, RDF_DEMO, plan]
    warm = [run(argv) for argv in explicit + defaults]
    fresh = []
    for argv in explicit + defaults:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert warm == fresh
    assert [code for code, _, _ in warm] == [1, 0, 0, 0] * 2
    assert build_parser() is build_parser()


def test_rdf_demo_unwritable_trace_exit_1(tmp_path, capsys):
    trace = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert main(RDF_DEMO + ["--N", "256", "--trace", str(trace)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error:") and str(trace) in out.err and out.err.count("\n") == 1


def test_rdf_demo_grid_too_coarse_for_weight_depth(monkeypatch, capsys):
    # the W^p0 class constants need 2^6 samples: a coarser grid is refused
    # before the construction starts, naming --N rather than the depth
    from extrapkit import cli

    def no_work(*args, **kwargs):
        raise AssertionError("rdf demo built a family on a grid it must refuse")

    monkeypatch.setattr(cli, "make_family", no_work)
    assert main(RDF_DEMO + ["--N", "32"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: rdf demo needs --N of at least 64 samples, got 32\n"


def _uniform_rows(n, L=2.0):
    h = 2 * L / n
    return [["x", "re"]] + [[repr(-L + (i + 0.5) * h), "1"] for i in range(n)]


@pytest.mark.parametrize(
    "n, depth, message",
    [
        (64, "0", "depth must be >= 1, got 0"),
        (64, "7", "depth 7 needs at least 2^7 samples, got 64"),
        (6, "2", "{path}: sample count must be a power of two >= 2, got 6"),
    ],
    ids=["depth-0", "depth-beyond-grid", "six-samples"],
)
def test_weights_estimate_bad_input_exit_1(tmp_path, capsys, n, depth, message):
    path = tmp_path / "w.csv"
    _write_rows(path, _uniform_rows(n))
    argv = ["weights", "estimate", "--file", str(path), "--ap", "2", "--rh", "2", "--depth", depth]
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message.format(path=path)}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["operator", "apply", "--op", "bht", "--in", "{f}"], "--op bht needs --in2"),
        (["weights", "check", "--alpha", "0", "--ap", "inf", "--rh", "2"], "A_p index must be finite"),
        (["verify", "bht", "--q1", "2", "--q2", "2", "--count", "0", "--N", "256"], "count and arity must be >= 1"),
    ],
    ids=["bht-without-in2", "infinite-ap", "zero-count"],
)
def test_bad_input_names_its_rule_exit_1(tmp_path, capsys, argv, message):
    path = tmp_path / "f.csv"
    _write_rows(path, _uniform_rows(8))
    assert main([a.format(f=path) for a in argv]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"


def test_operator_apply_names_the_bad_second_input(tmp_path, capsys):
    good, bad = tmp_path / "f.csv", tmp_path / "g.csv"
    _write_rows(good, _uniform_rows(8))
    _write_rows(bad, _uniform_rows(6))
    assert main(["operator", "apply", "--op", "bht", "--in", str(good), "--in2", str(bad)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {bad}: sample count must be a power of two >= 2, got 6\n"


@pytest.mark.parametrize("extra", [["--in2", "g.csv"], ["--tmax", "1"]], ids=["in2", "tmax"])
@pytest.mark.parametrize("op", ["maximal", "hilbert"])
def test_operator_apply_rejects_bht_options_for_other_ops(tmp_path, capsys, op, extra):
    path = tmp_path / "f.csv"
    _write_rows(path, _uniform_rows(8))
    assert main(["operator", "apply", "--op", op, "--in", str(path)] + extra) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: --in2 and --tmax apply to --op bht only, not --op {op}\n"


@pytest.mark.parametrize(
    "argv, runs",
    [
        (["plan", "bht", "--q1", "2", "--q2", "2"], 1),
        (["plan", "bht-vv", "--q1", "2", "--q2", "2", "--s1", "3/2", "--s2", "3/2"], 1),
        (["plan", "bht", "--q1", "2", "--q2", "2", "--grid", "2,3", "--emit", "csv"], 4),
    ],
    ids=["bht", "bht-vv", "grid"],
)
def test_plan_runs_its_planner_once_per_pair(monkeypatch, capsys, argv, runs):
    from extrapkit import applications as app

    calls = []
    for name in ("bht_plan", "bht_vv_plan"):
        planner = getattr(app, name)
        monkeypatch.setattr(app, name, lambda *a, _p=planner: calls.append(a) or _p(*a))
    assert main(argv) == 0
    capsys.readouterr()
    assert len(calls) == runs


@pytest.mark.parametrize("literal", ["3/2", "+3", "1_0", "1.5", "1e0", "0x10", "1/0"])
def test_rational_and_exponent_flags_share_one_grammar(literal):
    import argparse

    from extrapkit.cli import _exp, _frac

    def parse(convert):
        try:
            return convert(literal)
        except argparse.ArgumentTypeError:
            return None

    exp, frac = parse(_exp), parse(_frac)
    assert (exp is None) == (frac is None)
    assert exp is None or exp.frac == frac


@pytest.mark.parametrize(
    "error, code",
    [
        (ExtrapkitError("boom"), 1),
        (DomainError("boom"), 1),
        (NormBoundTooSmall("boom"), 1),
        (Infeasible("boom"), 2),
        (CertificationFailed(["boom"]), 2),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_error_class_decides_exit_code(monkeypatch, capsys, error, code):
    from extrapkit import cli

    def handler(args):
        raise error

    # the parser exists before the patch: it must not hold the handler it found
    assert main(["plan", "mz", "--q", "3,3", "--r", "3/2"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "_cmd_plan_mz", handler)
    assert main(["plan", "mz", "--q", "3,3", "--r", "3/2"]) == code
    out = capsys.readouterr()
    if code == 1:
        assert out.out == "" and out.err == "error: boom\n"
    else:
        rep = json.loads(out.out)
        assert out.err == "" and rep["feasible"] is False and rep["reason"] == "boom"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "bht", "--q1", "2", "--q2", "2", "--a", "300", "--N", "1024,2048", "--count", "4"],
         "error: the weight |x|^-150 overflows on the grid (L=8.0, N=1024)\n"),
        (["verify", "vv", "--q1", "24/5", "--q2", "24/5", "--s1", "24/11", "--s2", "24", "--a", "400",
          "--K", "2", "--count", "4", "--N", "1024"],
         "error: the weight product w1*w2 overflows on the grid (L=8.0, N=1024)\n"),
        (["verify", "bht", "--q1", "24", "--q2", "24", "--a", "300", "--N", "1024", "--count", "2"],
         "error: the weight power w^12 overflows on the grid (L=8.0, N=1024)\n"),
        (["verify", "bht", "--q1", "2", "--q2", "2", "--a", "-400", "--N", "1024", "--count", "2"],
         "error: the weight |x|^200 underflows to 0 on the grid (L=8.0, N=1024)\n"),
        (["verify", "bht", "--q1", "2", "--q2", "2", "--a", "-300", "--N", "1024", "--count", "2"],
         "error: the weight product w1*w2 underflows to 0 on the grid (L=8.0, N=1024)\n"),
        (["verify", "bht", "--q1", "2", "--q2", "2", "--a", "-170", "--N", "1024", "--count", "2"],
         "error: the weight product w1*w2 underflows to 0 on the grid (L=8.0, N=1024)\n"),
        (["verify", "bht", "--q1", "24", "--q2", "24", "--a", "-300", "--N", "1024", "--count", "2"],
         "error: the weight power w^12 underflows to 0 on the grid (L=8.0, N=1024)\n"),
        # the weight that `rdf` builds: W is 0 in 226 of the 256 cells
        (["rdf", "demo", "--pm", "1", "--pp", "inf", "--p0", "2", "--q0", "2", "--p", "1001/1000", "--N", "256"],
         "error: the weight W = (W^q0)^(1/2) underflows to 0 on the grid (L=8.0, N=256)\n"),
    ],
    ids=["power-weight", "product", "power", "underflow-power-weight", "underflow-product",
         "underflow-product-a170", "underflow-power", "underflow-rdf-W"],
)
def test_weight_overflow_is_one_clean_error(capsys, argv, message):
    # numpy's overflow RuntimeWarning used to reach stderr before a generic error,
    # and an underflow to 0 failed that generic positivity check naming no weight
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert caught == []
    out = capsys.readouterr()
    assert out.out == "" and out.err == message


def test_zero_weight_file_keeps_the_positivity_error(tmp_path, capsys):
    grid = Grid(8.0, 256)
    path = tmp_path / "w.csv"
    _write_rows(path, [["x", "re"]] + [[f"{x:.17g}", "0" if i == 5 else "1"] for i, x in enumerate(grid.x())])
    assert main(RDF_DEMO + ["--w", f"file:{path}", "--N", "256"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {path}: data row 6: weight samples must be strictly positive and finite\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_weights_estimate_names_the_bad_weight_row(tmp_path, capsys, value):
    path = tmp_path / "w.csv"
    rows = _uniform_rows(8)
    rows[3][1] = value
    _write_rows(path, [["# a comment line"]] + rows)
    assert main(["weights", "estimate", "--file", str(path), "--ap", "2", "--rh", "2", "--depth", "1"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {path}: data row 3: weight samples must be strictly positive and finite\n"


def test_weights_estimate_on_huge_constants_warns_nothing(tmp_path, capsys):
    # the mean of two 1e308 samples overflows, and inf / inf leaked numpy's
    # "invalid value encountered in divide" RuntimeWarning to stderr
    path = tmp_path / "w.csv"
    _write_rows(path, [["x", "re"], ["-0.5", "1e308"], ["0.5", "1e308"]])
    assert main(["weights", "estimate", "--file", str(path), "--ap", "2", "--rh", "2", "--depth", "1"]) == 2
    out = capsys.readouterr()
    assert out.err == ""
    assert json.loads(out.out)["data"]["constants"] == [{"depth": 1, "ap_const": "inf", "rh_const": "inf"}]


def test_rdf_demo_reads_a_weight_file(tmp_path, capsys):
    # the samples of --w power:1/8 on the L = 8, N = 256 grid give the same report
    from extrapkit.weights import PowerWeight

    grid = Grid(8.0, 256)
    path = tmp_path / "w.csv"
    samples = PowerWeight(Fraction(1, 8)).on_grid(grid).samples
    _write_rows(path, [["x", "re"]] + [[f"{x:.17g}", f"{v:.17g}"] for x, v in zip(grid.x(), samples)])
    code, want = run_cli(RDF_DEMO + ["--w", "power:1/8", "--N", "256"], capsys)
    assert code == 0
    assert run_cli(RDF_DEMO + ["--w", f"file:{path}", "--N", "256"], capsys) == (0, want)
    assert main(RDF_DEMO + ["--w", f"file:{path}", "--N", "512"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {path}: the weight file and run grids differ: (L=8.0, N=256) vs (L=8.0, N=512)\n"


BIG = str(10**400)  # an exact rational that no float holds
WEIGHT_CSV = str(Path(__file__).parent / "golden" / "weight.csv")


@pytest.mark.parametrize(
    "argv",
    [
        ["rdf", "demo", "--pm", "1", "--pp", "4", "--p0", "2", "--q0", "2", "--p", "3999/1000", "--N", "256"],
        ["verify", "bht", "--q1", BIG, "--q2", "2", "--count", "2", "--N", "256"],
        ["verify", "vv", "--q1", BIG, "--q2", "2", "--s1", "2", "--s2", "2", "--count", "4", "--N", "256"],
        ["verify", "mz", "--q", f"{BIG},3", "--r", "3/2", "--count", "4", "--N", "256"],
        ["verify", "iterated", "--q1", "2", "--q2", "2", "--s1", BIG, "--s2", "2", "--t1", "2", "--t2", "2",
         "--count", "4", "--N", "256"],
        RDF_DEMO + ["--N", "256", "--w", f"power:{BIG}"],
        ["weights", "estimate", "--file", WEIGHT_CSV, "--ap", BIG, "--rh", "2", "--depth", "2"],
        ["weights", "estimate", "--file", WEIGHT_CSV, "--ap", "2", "--rh", BIG, "--depth", "2"],
    ],
    ids=["rdf-C1", "bht", "vv", "mz", "iterated", "rdf-power-weight", "estimate-ap", "estimate-rh"],
)
def test_value_beyond_the_float_range_is_one_clean_error(capsys, argv):
    # 2^(1 + 1/delta) with 1/delta = 3000, or float() of a 401-digit exponent,
    # used to end in an OverflowError traceback
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: a value is outside the float range (")
    assert out.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "bht", "--q1", BIG, "--q2", "2"],
        ["plan", "mz", "--q", f"{BIG},3", "--r", "3/2"],
        ["plan", "extrapolate", "--pm", "1", "--pp", "inf", "--p0", "2", "--q0", "2", "--p", BIG],
    ],
    ids=["bht", "mz", "extrapolate"],
)
def test_exact_planners_take_values_beyond_the_float_range(capsys, argv):
    assert run_cli(argv, capsys)[0] == 0


@pytest.mark.parametrize(
    "op, value", [("hilbert", "1e308"), ("maximal", "1e308"), ("bht", "1e308"), ("bht", "1e200")]
)
def test_operator_overflow_is_one_named_error(tmp_path, capsys, op, value):
    # numpy's RuntimeWarnings used to reach stderr before a generic `samples must be finite`
    path = tmp_path / "f.csv"
    _write_rows(path, [["x", "re"]] + [[x, value] for x in ("-1.5", "-0.5", "0.5", "1.5")])
    extra = ["--in2", str(path)] if op == "bht" else []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["operator", "apply", "--op", op, "--in", str(path)] + extra) == 1
    assert caught == []
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: the operator {op} overflows on the grid (L=2.0, N=4)\n"
