"""The extrapkit benchmark: seeded CLI workloads, timed in one process.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Each workload is a seeded stream of real `extrapkit` command lines drawn
from a recorded pool (refs/<workload>.json, written by record.py).  They
run in-process through `extrapkit.cli.main(argv)` with stdout captured,
one at a time: a closed loop with one client and no threads.  A run makes
a fixed number of cycles of the pool's strata, --seconds times the
workload's cycle rate in CYCLES_PER_SECOND, so it takes about --seconds
at the commit the refs were recorded at.  Every output is checked against
its reference (checker.py) as it comes; checking is not loop time.

--trace 0 prints the end-to-end metrics of an untraced run.  --trace 1 runs
every task twice, untraced and traced (tracer.py), in alternating order;
it checks that both outputs are equal and prints the per-layer metrics.
The last line of stdout is one JSON object; lines before it, starting with
"#", record the environment, input properties and timing details.

Why these workloads:
  certify    rdf demo; the exact O(N^2) maximal operator dominates.
  sweep      verify bht; the scalar bilinear Hilbert k-loop dominates.
  aggregate  verify vv / iterated / mz; the same sweep layer through its
             aggregation trees, with hilbert FFTs and l^s norms.
  plan       every plan subcommand; exact Fraction planners, argparse and
             report serialisation.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import tasks  # noqa: E402

# Workload names and the (name, unit) of every metric, in output order.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]

SETUP_REPEATS = 4  # fresh interpreters timed before the loop, and again after it

# Schedule cycles a run makes per second of --seconds: about the cycle rate
# of each workload at the commit the refs were recorded at, on a 2-vCPU
# x86-64 host.  A run makes this fixed number of cycles rather than running
# for a fixed time, so its task count, and with it which task is the median
# and which the tail, does not depend on the program's speed: a faster
# program finishes the same tasks sooner.
CYCLES_PER_SECOND = {"certify": 0.25, "sweep": 0.9, "aggregate": 0.6, "plan": 30.0}
# A run still making cycles after this many times --seconds of loop time
# stops at the end of its cycle, so a much slower program ends in time.
STRETCH_LIMIT = 6


def info(tag: str, obj) -> None:
    print(f"# {tag} {json.dumps(obj, sort_keys=True)}")


def environment(seed: int, workload: str) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "EXTRAPKIT_THREADS": os.environ.get("EXTRAPKIT_THREADS", "unset"),
    }


def setup_once(env: dict) -> float:
    """Wall time of one fresh interpreter running `import extrapkit.cli`.

    No timeout here: with one, subprocess polls the child with sleeps of up
    to 50 ms, which would round the measurement up to that grid.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import extrapkit.cli"], env=env, cwd=ROOT,
                   stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def setup_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "EXTRAPKIT_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    probe = subprocess.run(
        [sys.executable, "-c", "import extrapkit.cli; print(extrapkit.cli.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )  # also the warm-up: byte-compiles the package once
    if Path(probe.stdout.strip()).resolve() != ROOT / "src" / "extrapkit" / "cli.py":
        raise RuntimeError(f"fresh interpreter imported {probe.stdout.strip()}")
    return env


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten tasks beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def input_properties(ran: list[dict]) -> dict:
    n_mix = Counter(N for task in ran for N in task["props"].get("N", []))
    total = sum(n_mix.values())
    supports = [t["props"]["support"] for t in ran if "support" in t["props"]]
    return {
        "tasks": len(ran),
        "strata": dict(Counter(t["stratum"] for t in ran)),
        "N_mix": {str(N): round(c / total, 4) for N, c in sorted(n_mix.items())} if total else {},
        "support_frac": statistics.fmean(supports) if supports else 0.0,
        "complex_frac": statistics.fmean(bool(t["props"].get("complex")) for t in ran),
        "infeasible_frac": statistics.fmean(bool(t["props"].get("infeasible")) for t in ran),
    }


def planned_cycles(workload: str, seconds: float) -> int:
    return max(1, round(seconds * CYCLES_PER_SECOND[workload]))


def timed_loop(workload: str, seed: int, cycles: int, limit_s: float, step) -> tuple[list, float]:
    """Call step(task) in schedule order for `cycles` whole cycles of the pool's strata.

    The run stops early, at the end of a cycle, once `limit_s` of loop time
    has passed.  step returns (record, check_s).  check_s, the time the step
    spent checking outputs, is not loop time.  Outputs are checked as they
    come and then dropped, so the run's memory does not grow with its length.
    """
    ran, check_total = [], 0.0
    t0 = time.perf_counter()
    for cycle, task in tasks.schedule(tasks.load_pool(workload), seed):
        if cycle == cycles:
            break
        if ran and cycle != ran[-1][0] and time.perf_counter() - t0 - check_total >= limit_s:
            break
        record, check_s = step(task)
        check_total += check_s
        ran.append((cycle, task, record))
    return [(task, record) for _, task, record in ran], time.perf_counter() - t0 - check_total


def report_failures(failures: list[tuple[dict, str]]) -> None:
    for task, why in failures[:20]:
        info("failed", {"argv": task["argv"], "why": why})


def untraced(workload: str, seed: int, seconds: float, main, tmp) -> tuple[dict, int, int]:
    env = setup_env()
    setup_samples = [setup_once(env) for _ in range(SETUP_REPEATS)]

    def step(task):
        res = tasks.run_task(main, task["argv"], tmp)
        t0 = time.perf_counter()
        why = checker.check(workload, task, res)
        return (res.seconds, why), time.perf_counter() - t0

    cycles = planned_cycles(workload, seconds)
    ran, loop_s = timed_loop(workload, seed, cycles, STRETCH_LIMIT * seconds, step)
    setup_samples += [setup_once(env) for _ in range(SETUP_REPEATS)]
    failures = [(task, why) for task, (_, why) in ran if why]
    times = [secs for _, (secs, _) in ran]
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "tasks_per_s": (len(ran) - len(failures)) / loop_s,
        "task_ms_p50": 1000 * statistics.median(times),
        "task_ms_tail": 1000 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info("inputs", input_properties([task for task, _ in ran]))
    info("timing", {"samples": len(times), "cycles_planned": cycles, "tail_percentile": round(tail_pct, 2),
                    "loop_s": loop_s, "setup_samples_s": setup_samples})
    report_failures(failures)
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}, len(ran), len(failures)


def traced(workload: str, seed: int, seconds: float, main, tmp) -> tuple[dict, int, int]:
    from tracer import Tracer, self_times  # imports extrapkit, so only once src/ is on the path

    tracer = Tracer()
    traced_main = tracer.root(main)
    turn = itertools.count()

    def with_trace(argv):
        with tracer:
            return tasks.run_task(traced_main, argv, tmp)

    def step(task):
        argv = task["argv"]
        if next(turn) % 2:  # alternate which run goes first
            res_t, res_u = with_trace(argv), tasks.run_task(main, argv, tmp)
        else:
            res_u, res_t = tasks.run_task(main, argv, tmp), with_trace(argv)
        t0 = time.perf_counter()
        why = checker.check(workload, task, res_u) or checker.check(workload, task, res_t)
        same = (res_u.code, res_u.stdout, res_u.csv_rows) == (res_t.code, res_t.stdout, res_t.csv_rows)
        if not same:
            why = why or "traced output differs from untraced output"
        return (res_u.seconds, res_t.seconds, same, why), time.perf_counter() - t0

    cycles = max(1, planned_cycles(workload, seconds) // 2)  # every task runs twice
    ran, loop_s = timed_loop(workload, seed, cycles, STRETCH_LIMIT * seconds, step)
    n = len(ran)
    failures = [(task, why) for task, (*_, why) in ran if why]
    untraced_s = sum(rec[0] for _, rec in ran)
    traced_s = sum(rec[1] for _, rec in ran)

    selfs = {k: 1000 * v / n for k, v in self_times(tracer.spans).items()}
    values = {name: tracer.counters.get(name, 0.0) / n for name, _ in PER_LAYER}
    for name, _ in PER_LAYER:
        if name.endswith(".ms"):
            values[name] = selfs.get(name[:-3], 0.0)
    values.update({
        "cli.self_ms": selfs.get("cli", 0.0),
        "trace.tasks": n,
        "trace.task_ms": 1000 * traced_s / n,
        "trace.overhead_ms": 1000 * (traced_s - untraced_s) / n,
        "trace.overhead_pct": 100 * (traced_s - untraced_s) / untraced_s,
        "trace.mismatches": sum(not rec[2] for _, rec in ran),
        "trace.missing": len(tracer.missing),
    })

    info("inputs", input_properties([task for task, _ in ran]))
    info("timing", {"traced_tasks": n, "cycles_planned": cycles, "loop_s": loop_s, "untraced_s": untraced_s, "traced_s": traced_s})
    info("per_call_ms", {
        f"{group} N={N} {kind}": {"calls": calls, "ms": round(1000 * secs / calls, 4)}
        for (group, N, kind), (calls, secs) in sorted(tracer.by_size.items())
    })
    if tracer.missing:
        info("missing", tracer.missing)
    print_share_table(workload, selfs, 1000 * traced_s / n)
    report_failures(failures)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}, n, len(failures)


def print_share_table(workload: str, selfs: dict[str, float], task_ms: float) -> None:
    """Self time per layer (the span group's first name part) and per span group."""
    layers = Counter()
    for group, ms in selfs.items():
        layers[group.split(".")[0]] += ms
    print(f"# share of traced task time, workload {workload} ({task_ms:.3f} ms/task)")
    print(f"# {'layer / span':40s} {'self ms/task':>14s} {'share':>8s}")
    for name, ms in layers.most_common():
        print(f"# {name:40s} {ms:14.3f} {100 * ms / task_ms:7.2f}%")
        for group, gms in sorted(selfs.items(), key=lambda kv: -kv[1]):
            if group.split(".")[0] == name and group != name:
                print(f"#   {group:38s} {gms:14.3f} {100 * gms / task_ms:7.2f}%")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "extrapkit" / "cli.py").is_file():
        print(f"error: no extrapkit source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.pop("EXTRAPKIT_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    import extrapkit.cli

    if Path(extrapkit.cli.__file__).resolve() != ROOT / "src" / "extrapkit" / "cli.py":
        print(f"error: imported extrapkit from {extrapkit.cli.__file__}", file=sys.stderr)
        return 2

    info("env", environment(args.seed, args.workload))
    run = traced if args.trace else untraced
    with tasks.scratch_dir(ROOT) as tmp:
        metrics, attempted, failed = run(args.workload, args.seed, args.seconds, extrapkit.cli.main, tmp)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
