"""Reference fields per workload, and the check of one task's output.

What is compared, and what is deliberately not:

* certify: exit 0, every `certificates.*.ok` true, `W_q0_bitwise` true,
  and a written `--trace` CSV of N + 1 rows.  Certificate values and the
  set of certificate names are not compared, so a change that tightens the
  RDF loop or adds certificates keeps passing.
* sweep, aggregate: `ratios` and `sup_by_resolution` within RTOL of the
  reference.  Verdicts, `feasible` and exit codes are not compared.
* plan: exit code, `data` and `certified` exactly (as digests); for
  `--emit csv` the whole table except its `feasible` column.

No workload looks at `schema`, `verdict`, `feasible` or any extra key such
as a `trace` block in the envelope.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

# Well under 1e-6, well above the ~3e-15 that summing the +t and -t shifts
# of a bilinear Hilbert sum separately produces.
RTOL = 1e-9


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def _csv_table(text: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if rows and "feasible" in rows[0]:
        drop = rows[0].index("feasible")
        rows = [r[:drop] + r[drop + 1:] for r in rows]
    return rows


def _is_csv(task: dict) -> bool:
    argv = task["argv"]
    return "--emit" in argv and argv[argv.index("--emit") + 1] == "csv"


def reference(workload: str, task: dict, res) -> dict:
    """The reference fields of one task, from its output at this commit."""
    if workload == "certify":
        return {"exit": res.code}
    if workload in ("sweep", "aggregate"):
        data = json.loads(res.stdout)["data"]
        return {"ratios": data["ratios"], "sup_by_resolution": data["sup_by_resolution"]}
    if _is_csv(task):
        return {"exit": res.code, "table": digest(_csv_table(res.stdout))}
    rep = json.loads(res.stdout)
    return {"exit": res.code, "data": digest(rep["data"]), "certified": digest(rep["certified"])}


def _close(got, want) -> bool:
    if isinstance(got, list) or isinstance(want, list):
        return (
            isinstance(got, list) and isinstance(want, list)
            and len(got) == len(want) and all(_close(g, w) for g, w in zip(got, want))
        )
    if isinstance(got, (int, float)) and isinstance(want, (int, float)):
        return math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0)
    return got == want


def check(workload: str, task: dict, res) -> str | None:
    """None when the output matches the task's reference, else the reason."""
    if res.error is not None:
        return f"exception escaped main: {res.error.strip().splitlines()[-1]}"
    ref = task.get("ref")
    if ref is None:
        return "no reference recorded for this task"
    if workload == "plan" and res.code != ref["exit"]:
        return f"exit {res.code}, reference {ref['exit']}"
    if workload == "plan" and _is_csv(task):
        return None if digest(_csv_table(res.stdout)) == ref["table"] else "CSV table differs"
    try:
        rep = json.loads(res.stdout)
    except json.JSONDecodeError:
        return "stdout is not one JSON report"
    data = rep.get("data") or {}
    if workload == "certify":
        if res.code != ref["exit"]:
            return f"exit {res.code}, reference {ref['exit']}"
        certs = (data.get("objects") or {}).get("certificates") or {}
        bad = sorted(k for k, c in certs.items() if not c.get("ok"))
        if not certs or bad:
            return f"certificates not ok: {bad or 'none reported'}"
        if (data.get("weight_report") or {}).get("W_q0_bitwise") is not True:
            return "W_q0_bitwise is not true"
        if res.csv_rows is not None:
            N = int(task["argv"][task["argv"].index("--N") + 1])
            if res.csv_rows != N + 1:
                return f"--trace CSV has {res.csv_rows} rows, expected {N + 1}"
        return None
    if workload in ("sweep", "aggregate"):
        for key in ("ratios", "sup_by_resolution"):
            if not _close(data.get(key), ref[key]):
                return f"{key} differs from the reference beyond rtol {RTOL:g}"
        return None
    if digest(data) != ref["data"]:
        return "data differs from the reference"
    if digest(rep.get("certified")) != ref["certified"]:
        return "certified differs from the reference"
    return None
