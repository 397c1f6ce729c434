"""Command-line surface.

Subcommands:

    plan {extrapolate|bht|bht-vv|section5|mz}
    weights {check|estimate}
    operator apply --op {maximal|hilbert|bht}
    rdf demo
    verify {bht|vv|iterated|mz}

`plan bht-vv --s1 S1 --s2 S2` is the one spelling of the vector-valued
BHT plan; `plan bht` takes no --s1/--s2.

Every rational flag, exponent or signed (--a, --alpha, --g1..3),
has the one grammar of `exponents.parse_rational`: exact rationals such as
"2" or "-3/2", never floating literals; exponent flags also take "inf".
Reports are JSON envelopes on stdout; --emit csv switches a command with a
table to CSV, and the commands without one (weights check, rdf demo)
accept only --emit json.

Each handler returns (fields, rows): the `envelope` keyword fields and a
callable that builds the CSV rows (None when the command has no table).
`main` alone adds the command name, turns a planner's infeasibility or a
failed certificate into an infeasible report, prints the envelope or the
CSV table, and picks the exit code: 0 when the report is feasible, 2 when
it is not (the report is still printed), 1 for usage errors, bad input and
a stdout that closed before the report was written.  The class of an error
alone decides between 1 and 2; `extrapkit.errors` lists which class gives
which.  `operator apply` is a table command whose output is always its CSV
table (it takes no --emit); the only file a handler writes itself is the
`rdf demo --trace` CSV.  The parser is built once per process; it holds
each handler's name, which `main` looks up in this module at call time, so
a patched handler is the one that runs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import re
import sys
from fractions import Fraction

import numpy as np

from . import applications as app
from . import verifier as ver
from .errors import CertificationFailed, DomainError, ExtrapkitError, Infeasible
from .exponents import Exponent, WeightClassSpec, parse_rational, power_membership, rec
from .extrapolation import ExtrapolationRange, dual_range, proof_exponents
from .grid import Grid
from .gridfn import FAMILY_KINDS, FamilySpec, GridFunction, bht, hilbert, maximal, make_family
from .rdf import WEIGHT_DEPTH, build_proof_objects, verify_case1_weight
from .reports import dumps, envelope, to_jsonable
from .weights import GridWeight, PowerWeight, estimate_class_constants

USAGE_EXIT = 1
INFEASIBLE_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only -1 and -0.5 as values after a flag; -1/8 too
        self._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")

    def error(self, message):  # argparse default exits 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _arg(parse):
    """argparse type: `parse`, with its DomainError as a usage error."""
    def convert(text: str):
        try:
            return parse(text)
        except DomainError as e:
            raise argparse.ArgumentTypeError(str(e))
    return convert


_exp = _arg(Exponent)
_frac = _arg(parse_rational)


def _list(item):
    """argparse type for a comma-separated list of `item` values."""
    return lambda text: [item(tok) for tok in text.split(",")]


def _weight_descriptor(text: str):
    """argparse type of `rdf demo --w`: the map from a grid to the weight on
    it.  `unit` is the power weight |x|^0, so it equals `power:0` bit for bit;
    `file:PATH` reads the weight from a CSV and checks it is on that grid."""
    if text == "unit":
        return PowerWeight(0).on_grid
    if text.startswith("power:"):
        return PowerWeight(_frac(text[len("power:"):])).on_grid
    if text.startswith("file:"):
        return functools.partial(_read_weight_csv, text[len("file:"):])
    raise argparse.ArgumentTypeError(
        f"weight descriptor {text!r} must be unit | power:NUM/DEN | file:PATH"
    )


def _read_csv(path: str) -> tuple[Grid, np.ndarray, np.ndarray]:
    """Grid and real / imaginary columns of an `x,re[,im]` sample file.

    The x column must be the ascending midpoints of a `Grid` on [-L, L];
    a missing im column reads as zero.
    """
    rows = []
    try:
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0].startswith("#") or row[0] == "x":
                    continue
                rows.append([float(row[0]), float(row[1]), float(row[2]) if len(row) > 2 else 0.0])
    except OSError as e:
        raise DomainError(f"{path}: cannot read: {e.strerror}")
    except (IndexError, ValueError):
        raise DomainError(f"{path}: data row {len(rows) + 1}: need numeric x and value columns")
    if len(rows) < 2:
        raise DomainError(f"{path}: need at least two samples")
    xs, re_part, im_part = np.array(rows).T
    steps = np.diff(xs)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
        raise DomainError(f"{path}: grid spacing is not uniform")
    h = float(steps[0])
    try:
        grid = Grid(float(abs(xs[0]) + h / 2), xs.size)
    except DomainError as e:
        raise DomainError(f"{path}: {e}")
    if not np.allclose(xs, grid.x(), rtol=0, atol=1e-9 * grid.h):
        raise DomainError(f"{path}: x is not the ascending midpoint grid on [-{grid.L:g}, {grid.L:g}]")
    return grid, re_part, im_part


def _read_weight_csv(path: str, grid: Grid | None = None) -> GridWeight:
    inferred, vals, _ = _read_csv(path)
    if grid is not None:
        inferred.require_same(grid, f"{path}: the weight file and run grids")
    bad = np.flatnonzero(~(np.isfinite(vals) & (vals > 0)))
    if bad.size:
        raise DomainError(f"{path}: data row {bad[0] + 1}: weight samples must be strictly positive and finite")
    return GridWeight(vals, inferred)


def _read_function_csv(path: str) -> GridFunction:
    grid, re_part, im_part = _read_csv(path)
    return GridFunction(re_part + 1j * im_part if im_part.any() else re_part, grid)


def _flatten(obj, prefix: str = "") -> dict:
    """One CSV row: the JSON form of `obj` with nested dicts as dotted keys."""
    out = {}
    for k, v in to_jsonable(obj).items():
        if isinstance(v, dict):
            out.update(_flatten(v, f"{prefix}{k}."))
        else:
            out[f"{prefix}{k}"] = v
    return out


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------


RANGE_FLAGS = ("--pm", "--pp", "--p0", "--q0", "--p")


def _range(args):
    """(range, proof exponents) of the RANGE_FLAGS."""
    rng = ExtrapolationRange(args.pm, args.pp, args.p0, args.q0)
    return rng, proof_exponents(rng, args.p)


def _cmd_plan_extrapolate(args):
    rng, pe = _range(args)
    qm, qp = dual_range(rng)
    data = {
        "case": pe.case,  # leads the keys; the proof exponents below repeat it
        "q_minus": qm,
        "q_plus": qp,
        "target_q": pe.q,
        "shift": rng.shift,
        **to_jsonable(pe),
    }
    return {"feasible": True, "data": data, "certified": pe.certified}, lambda: [_flatten(data)]


def _bht(q1, q2, s1=None, s2=None):
    """The plan and power window for (q1, q2), vector-valued when s1 is given."""
    plan = app.bht_plan(q1, q2) if s1 is None else app.bht_vv_plan(q1, q2, s1, s2)
    return plan, plan.power_range()


def _grid_rows(qs, s1=None, s2=None) -> list[dict]:
    """One CSV row per (q1, q2) in qs x qs, infeasible pairs included."""
    rows = []
    for q1 in qs:
        for q2 in qs:
            row = {"q1": q1, "q2": q2}
            try:
                plan, pr = _bht(q1, q2, s1, s2)
                row.update({**_flatten(plan), **_flatten(pr), "feasible": True})
            except Infeasible as e:
                row.update({"feasible": False, "reason": str(e)})
            rows.append(row)
    keys = sorted({k for r in rows for k in r}, key=str)
    return [{k: r.get(k, "") for k in keys} for r in rows]


def _cmd_plan_bht(args):
    if args.grid:
        if args.emit != "csv":
            raise DomainError("--grid tabulates plans and needs --emit csv")
        return {"feasible": True, "data": {}}, lambda: _grid_rows(args.grid, args.s1, args.s2)
    if args.q1 is None or args.q2 is None:
        raise DomainError(f"plan {args.cmd} needs --q1 and --q2, or --grid")
    plan, pr = _bht(args.q1, args.q2, args.s1, args.s2)
    data = {**plan.as_dict(), "power_range": pr}
    return {"feasible": True, "data": data, "certified": plan.certified}, lambda: [_flatten(data)]


def _cmd_plan_section5(args):
    plan = app.section5_plan(args.q1, args.q2, args.s1, args.s2, args.g1, args.g2, args.g3)
    return {"feasible": True, "data": plan, "certified": plan.certified}, lambda: [_flatten(plan)]


def _cmd_plan_mz(args):
    plan = app.mz_plan(args.q, args.r)
    # the r = 2 base case has no steps: its one row is the flattened data
    return plan, lambda: [_flatten(s) for s in plan["data"]["steps"]] or [_flatten(plan["data"])]


def _cmd_weights_check(args):
    spec = WeightClassSpec(args.ap, args.rh)
    member, reasons = power_membership(args.alpha, spec)
    data = {"alpha": args.alpha, "ap": spec.p, "rh": spec.s, "member": member, "reasons": reasons}
    return {"feasible": member, "data": data}, None


def _cmd_weights_estimate(args):
    w = _read_weight_csv(args.file)
    spec = WeightClassSpec(args.ap, args.rh)
    rows = [
        {"depth": d, "ap_const": ap_c, "rh_const": rh_c}
        for d, (ap_c, rh_c) in enumerate(estimate_class_constants(w, spec, args.depth), start=1)
    ]
    fields = {
        "feasible": all(np.isfinite(r["ap_const"]) and np.isfinite(r["rh_const"]) for r in rows),
        "data": {"file": args.file, "ap": spec.p, "rh": spec.s, "constants": rows},
        "grid": {"L": w.grid.L, "N": w.grid.N},
    }
    return fields, lambda: rows


def _cmd_operator_apply(args):
    """The output function as `x,re[,im]` rows of `.17g` strings."""
    if args.op != "bht" and (args.in2, args.tmax) != (None, None):
        raise DomainError(f"--in2 and --tmax apply to --op bht only, not --op {args.op}")
    f = _read_function_csv(getattr(args, "in"))
    if args.op == "bht" and args.in2 is None:
        raise DomainError("--op bht needs --in2")
    g = _read_function_csv(args.in2) if args.op == "bht" else None
    try:
        with np.errstate(over="raise", invalid="raise"):
            if g is None:
                out = (maximal if args.op == "maximal" else hilbert)(f)
            else:
                out = bht(f, g, t_max=args.tmax)
    except FloatingPointError:
        raise DomainError(f"the operator {args.op} overflows on the grid (L={f.grid.L}, N={f.grid.N})")
    cols = [out.grid.x(), out.samples.real, out.samples.imag][: 2 + np.iscomplexobj(out.samples)]
    rows = [dict(zip(("x", "re", "im"), (f"{v:.17g}" for v in vals))) for vals in zip(*cols)]
    return {"feasible": True}, lambda: rows


def _cmd_rdf_demo(args):
    if len(args.N) != 1:
        raise DomainError(f"rdf demo runs on one resolution, got --N {','.join(map(str, args.N))}")
    if args.N[0] < 2**WEIGHT_DEPTH:  # the W^p0 class constants take WEIGHT_DEPTH halvings
        raise DomainError(f"rdf demo needs --N of at least {2**WEIGHT_DEPTH} samples, got {args.N[0]}")
    rng, pe = _range(args)
    grid = Grid(args.L, args.N[0])
    w = args.w(grid)
    fam = make_family(FamilySpec("smooth-bumps", count=1), args.seed, grid)
    f, g = (c.abs() for c in fam.members[0])
    try:
        po = build_proof_objects(f, g, w, pe, rng, args.p)
        report = verify_case1_weight(po, pe, rng, w)
        certified = True
        data = {"proof_exponents": pe, "objects": po, "weight_report": report}
        reason = None
    except CertificationFailed as e:
        certified = False
        data = {"proof_exponents": pe, "failures": [str(x) for x in e.failures]}
        reason = str(e)
    if args.trace and certified:
        try:
            with open(args.trace, "w", newline="") as fh:
                wr = csv.writer(fh)
                wr.writerow(["x", "h1", "H1", "h2", "H2", "mu1", "mu2", "W"])
                objs = (po.h1, po.H1, po.h2, po.H2, po.r1.function, po.r2.function, po.W)
                wr.writerows(np.column_stack([grid.x(), *(o.samples for o in objs)]).tolist())
        except OSError as e:
            raise DomainError(f"{args.trace}: cannot write: {e.strerror}")
    fields = {
        "feasible": certified,
        "data": data,
        "certified": list(pe.certified) + (["H-certificates"] if certified else []),
        "seed": args.seed,
        "grid": {"L": args.L, "N": args.N[0]},
        "reason": reason,
    }
    return fields, None


def _cmd_verify_sweep(args):
    """verify bht | vv | iterated | mz: one ratio sweep, one report."""
    qs = args.q if args.cmd == "mz" else [args.q1, args.q2]
    a = getattr(args, "a", Fraction(0))
    # w_i = |x|^(-a/q_i), so w_i^{q_i} = |x|^(-a); a = 0 or q = 0 reads no 1/q: the planner judges q = 0
    ws = [PowerWeight(-a * rec(q) if a and q != 0 else 0) for q in qs]
    spec = FamilySpec(kind=args.family, count=args.count, arity=len(qs))
    common = dict(seed=args.seed, resolutions=args.N, L=args.L)
    if args.cmd == "bht":
        rr = ver.ratio_sweep(qs, ws, spec, **common)
    elif args.cmd == "vv":
        rr = ver.vv_sweep(qs, (args.s1, args.s2), ws, spec, K=args.K, **common)
    elif args.cmd == "iterated":
        rr = ver.iterated_vv_sweep(qs, (args.s1, args.s2), (args.t1, args.t2), spec, J=args.J, K=args.K, **common)
    else:
        rr = ver.mz_sweep(qs, args.r, ws, spec, args.surrogate, K=args.K, **common)
    fields = {
        "feasible": rr.verdict != "DIVERGENT",
        "data": rr,
        "caveats": [rr.caveat],
        "seed": rr.seed,
        "grid": {"L": rr.config.get("L"), "N": rr.resolutions},
    }
    return fields, lambda: [{"member": i, "ratio": r} for i, r in enumerate(rr.ratios)]


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _command(sub, name, handler, table=True):
    """A subcommand whose report `--emit csv` can switch to its CSV table;
    without a table the report is JSON only."""
    p = sub.add_parser(name)
    p.add_argument("--emit", choices=("json", "csv") if table else ("json",), default="json")
    p.set_defaults(handler=handler.__name__)
    return p


def _add_common(p, grid_default="4096", one_member=False):
    """Options of the commands that draw a test family; with one_member the
    handler builds one smooth-bumps member on one resolution."""
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--L", type=float, default=8.0)
    p.add_argument(
        "--N",
        type=_list(int),
        default=grid_default,
        help="one resolution" if one_member else "comma-separated resolutions",
    )
    p.add_argument("--family", choices=("smooth-bumps",) if one_member else FAMILY_KINDS, default="smooth-bumps")
    p.add_argument(
        "--count",
        type=int,
        default=16,
        help="not used: this command uses one family member" if one_member else "family members",
    )


@functools.cache
def build_parser() -> _Parser:
    root = _Parser(prog="extrapkit", description="Exact planners for limited-range multilinear extrapolation, "
                   "and grid-scale checks of the weighted inequalities they plan. Reports are JSON on stdout; "
                   "the exit code is 0 when feasible, 2 when infeasible and 1 for bad input.")
    sub = root.add_subparsers(dest="group", required=True, parser_class=_Parser)

    plan = sub.add_parser("plan")
    plan_sub = plan.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    pe = _command(plan_sub, "extrapolate", _cmd_plan_extrapolate)
    for flag in RANGE_FLAGS:
        pe.add_argument(flag, type=_exp, required=True)

    for name in ("bht", "bht-vv"):
        pb = _command(plan_sub, name, _cmd_plan_bht)
        for flag in ("--q1", "--q2"):  # --grid ignores them
            pb.add_argument(flag, type=_exp)
        if name == "bht-vv":
            pb.add_argument("--s1", type=_exp, required=True)
            pb.add_argument("--s2", type=_exp, required=True)
        else:
            pb.set_defaults(s1=None, s2=None)
        pb.add_argument("--grid", type=_list(_exp), default=None)

    ps = _command(plan_sub, "section5", _cmd_plan_section5)
    for flag in ("--q1", "--q2", "--s1", "--s2"):
        ps.add_argument(flag, type=_exp, required=True)
    for flag in ("--g1", "--g2", "--g3"):
        ps.add_argument(flag, type=_frac, required=True)

    pm = _command(plan_sub, "mz", _cmd_plan_mz)
    pm.add_argument("--q", type=_list(_exp), required=True, help="comma-separated targets, e.g. 3,3")
    pm.add_argument("--r", type=_exp, required=True)

    wts = sub.add_parser("weights")
    wts_sub = wts.add_subparsers(dest="cmd", required=True, parser_class=_Parser)
    wc = _command(wts_sub, "check", _cmd_weights_check, table=False)
    wc.add_argument("--alpha", type=_frac, required=True)
    wc.add_argument("--ap", type=_exp, required=True)
    wc.add_argument("--rh", type=_exp, required=True)
    we = _command(wts_sub, "estimate", _cmd_weights_estimate)
    we.add_argument("--file", required=True)
    we.add_argument("--ap", type=_exp, required=True)
    we.add_argument("--rh", type=_exp, required=True)
    we.add_argument("--depth", type=int, required=True)

    op = sub.add_parser("operator")
    op_sub = op.add_subparsers(dest="cmd", required=True, parser_class=_Parser)
    oa = op_sub.add_parser("apply")
    oa.add_argument("--op", choices=("maximal", "hilbert", "bht"), required=True)
    oa.add_argument("--in", dest="in", required=True)
    oa.add_argument("--in2", default=None)
    oa.add_argument("--tmax", type=float, default=None)
    oa.set_defaults(handler=_cmd_operator_apply.__name__, emit="csv")

    rdf = sub.add_parser("rdf")
    rdf_sub = rdf.add_subparsers(dest="cmd", required=True, parser_class=_Parser)
    rd = _command(rdf_sub, "demo", _cmd_rdf_demo, table=False)
    rd.add_argument("--case", choices=("I",), default="I")
    rd.add_argument("--w", type=_weight_descriptor, default="unit")
    for flag in RANGE_FLAGS:
        rd.add_argument(flag, type=_exp, required=True)
    rd.add_argument("--trace", default=None)
    _add_common(rd, grid_default="1024", one_member=True)

    vf = sub.add_parser("verify")
    vf_sub = vf.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    vb = _command(vf_sub, "bht", _cmd_verify_sweep)
    for flag in ("--q1", "--q2"):
        vb.add_argument(flag, type=_exp, required=True)
    vb.add_argument("--a", type=_frac, default=Fraction(0))
    _add_common(vb, grid_default="4096,8192")

    vv = _command(vf_sub, "vv", _cmd_verify_sweep)
    for flag in ("--q1", "--q2", "--s1", "--s2"):
        vv.add_argument(flag, type=_exp, required=True)
    vv.add_argument("--a", type=_frac, default=Fraction(0))
    vv.add_argument("--K", type=int, default=4)
    _add_common(vv, grid_default="2048,4096")

    vi = _command(vf_sub, "iterated", _cmd_verify_sweep)
    for flag in ("--q1", "--q2", "--s1", "--s2", "--t1", "--t2"):
        vi.add_argument(flag, type=_exp, required=True)
    vi.add_argument("--J", type=int, default=2)
    vi.add_argument("--K", type=int, default=2)
    _add_common(vi, grid_default="1024,2048")

    vm = _command(vf_sub, "mz", _cmd_verify_sweep)
    vm.add_argument("--q", type=_list(_exp), required=True)
    vm.add_argument("--r", type=_exp, required=True)
    vm.add_argument("--surrogate", choices=ver.SURROGATES, default="tensor-hilbert")
    vm.add_argument("--K", type=int, default=4)
    _add_common(vm, grid_default="1024,2048")

    return root


def main(argv=None) -> int:
    """Run one subcommand; the only place that emits a report and picks the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        fields, rows = globals()[args.handler](args)
        table = rows() if rows is not None and args.emit == "csv" else None
    except (Infeasible, CertificationFailed) as e:
        fields, table = {"feasible": False, "data": {}, "reason": str(e)}, None
    except (ExtrapkitError, OverflowError) as e:
        message = f"a value is outside the float range ({e.args[-1]})" if isinstance(e, OverflowError) else e
        print(f"error: {message}", file=sys.stderr)
        return USAGE_EXIT
    try:
        if table:
            wr = csv.writer(sys.stdout)
            keys = list(table[0])
            wr.writerow(keys)
            for row in table:
                wr.writerow([to_jsonable(row.get(k)) for k in keys])
        else:
            print(dumps(envelope(**{"command": f"{args.group} {args.cmd}", **fields})))
        sys.stdout.flush()  # a closed pipe fails here, not in the flush at exit
    except BrokenPipeError:  # the reader left early (`| head`); /dev/null takes the rest
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0 if fields["feasible"] else INFEASIBLE_EXIT


if __name__ == "__main__":
    sys.exit(main())
