"""Tests of the benchmark itself: schedule, run length, checker, tracer.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import run  # noqa: E402
import tasks  # noqa: E402
import tracer  # noqa: E402
from extrapkit.cli import main as cli_main  # noqa: E402


def first(pool, seed, n=200):
    stream = tasks.schedule(pool, seed)
    return [next(stream) for _ in range(n)]


def ids(items):
    return [(cycle, " ".join(task["argv"])) for cycle, task in items]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_same_task_list(workload):
    pool = tasks.load_pool(workload)
    assert ids(first(pool, 11)) == ids(first(pool, 11))
    assert ids(first(pool, 11)) != ids(first(pool, 12))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_cycle_follows_the_pool_cycle(workload):
    pool = tasks.load_pool(workload)
    assert set(pool["cycle"]) == {t["stratum"] for t in pool["tasks"]}
    items = first(pool, 3, 5 * len(pool["cycle"]))
    for c in range(5):
        assert [t["stratum"] for cycle, t in items if cycle == c] == pool["cycle"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_pool_task_has_a_reference(workload):
    assert all("ref" in t for t in tasks.load_pool(workload)["tasks"])


def _raise(argv):
    raise IndexError("list index out of range")


def _usage_error(argv):
    raise SystemExit(1)


@pytest.mark.parametrize("fake_main", [_raise, _usage_error])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_checker_counts_an_escaping_exception_as_failure(workload, fake_main, tmp_path):
    task = tasks.load_pool(workload)["tasks"][0]
    res = tasks.run_task(fake_main, task["argv"], tmp_path)
    assert res.code is None and res.error
    assert checker.check(workload, task, res)


def _sweep_result(task, scale=1.0, **extra):
    ref = task["ref"]
    data = {
        "ratios": [r * scale for r in ref["ratios"]],
        "sup_by_resolution": ref["sup_by_resolution"],
        "verdict": "ANYTHING",
    }
    body = {"schema": "extrapkit-report/1", "feasible": False, "data": data, **extra}
    return tasks.Result(0, json.dumps(body), None, 0.1)


@pytest.mark.parametrize("workload", ["sweep", "aggregate"])
def test_checker_tolerance_on_sweep_ratios(workload):
    task = tasks.load_pool(workload)["tasks"][0]
    assert checker.check(workload, task, _sweep_result(task)) is None
    assert checker.check(workload, task, _sweep_result(task, 1 + 1e-12)) is None
    assert checker.check(workload, task, _sweep_result(task, 1 + 1e-6))
    assert checker.check(workload, task, _sweep_result(task, 1 - 1e-6))


def test_checker_accepts_report_schema_2_with_trace_block(tmp_path):
    trace_block = {"trace": {"stages": {"sweep": 0.1}, "calls": {"bht": 12}}}
    for workload in ("sweep", "aggregate"):
        task = tasks.load_pool(workload)["tasks"][0]
        res = _sweep_result(task, **trace_block)
        body = json.loads(res.stdout)
        body["schema"] = "extrapkit-report/2"
        res.stdout = json.dumps(body)
        assert checker.check(workload, task, res) is None

    plan = [t for t in tasks.load_pool("plan")["tasks"] if "json" in t["argv"]]
    for task in plan[:3] + [t for t in plan if t["ref"]["exit"] == 2][:3]:
        res = tasks.run_task(cli_main, task["argv"], tmp_path)
        body = json.loads(res.stdout)
        body.update(schema="extrapkit-report/2", feasible=not body["feasible"], **trace_block)
        res.stdout = json.dumps(body)
        assert checker.check("plan", task, res) is None

    task = tasks.load_pool("certify")["tasks"][0]
    body = {
        "schema": "extrapkit-report/2",
        "data": {
            "objects": {"certificates": {"H1-norm": {"ok": True, "value": 9.0}, "R1-A1": {"ok": True}}},
            "weight_report": {"W_q0_bitwise": True},
        },
        **trace_block,
    }
    csv_rows = int(task["argv"][task["argv"].index("--N") + 1]) + 1 if tasks.TRACE_SLOT in task["argv"] else None
    res = tasks.Result(0, json.dumps(body), None, 0.1, csv_rows)
    assert checker.check("certify", task, res) is None
    body["data"]["objects"]["certificates"]["R1-A1"]["ok"] = False
    res.stdout = json.dumps(body)
    assert checker.check("certify", task, res)


def test_checker_rejects_changed_plan_data(tmp_path):
    task = next(t for t in tasks.load_pool("plan")["tasks"] if t["ref"]["exit"] == 0 and "json" in t["argv"])
    res = tasks.run_task(cli_main, task["argv"], tmp_path)
    assert checker.check("plan", task, res) is None
    body = json.loads(res.stdout)
    body["data"]["extra"] = "1/2"
    res.stdout = json.dumps(body)
    assert checker.check("plan", task, res)
    res.code = 2
    assert checker.check("plan", task, res)


def test_self_times_on_nested_spans():
    spans = [
        ["cli", None, 0.0, 10.0],         # 0: root
        ["planners", 0, 1.0, 4.0],        # 1
        ["gridfn.norms", 1, 2.0, 3.0],    # 2: grandchild
        ["reports", 0, 5.0, 9.0],         # 3
        ["gridfn.norms", 3, 5.5, 6.5],    # 4
        ["gridfn.norms", 3, 6.0, 7.0],    # 5: overlaps 4, counted once in the parent
        ["gridfn.norms", None, 20.0, 21.5],  # 6: a second root
    ]
    got = tracer.self_times(spans)
    assert got["cli"] == pytest.approx(10 - 3 - 4)
    assert got["planners"] == pytest.approx(3 - 1)
    assert got["reports"] == pytest.approx(4 - 1.5)
    assert got["gridfn.norms"] == pytest.approx(1 + 1 + 1 + 1.5)


def test_tracer_wraps_every_import_site_and_restores(tmp_path):
    import extrapkit.cli
    import extrapkit.gridfn
    import extrapkit.rdf
    import extrapkit.verifier

    orig = extrapkit.gridfn.maximal
    tr = tracer.Tracer()
    assert tr.missing == []
    with tr:
        assert extrapkit.rdf.maximal is not orig
        assert extrapkit.rdf.maximal is extrapkit.gridfn.maximal is extrapkit.cli.maximal
        assert extrapkit.verifier.bht is extrapkit.gridfn.bht is extrapkit.cli.bht
        task = tasks.load_pool("plan")["tasks"][0]
        res = tasks.run_task(tr.root(cli_main), task["argv"], tmp_path)
    assert extrapkit.rdf.maximal is orig
    assert checker.check("plan", task, res) is None
    roots = [s for s in tr.spans if s[1] is None]
    assert len(roots) == 1 and roots[0][0] == tracer.ROOT
    assert tr.counters["cli.build_parser.calls"] == 1
    assert sum(tracer.self_times(tr.spans).values()) == pytest.approx(roots[0][3] - roots[0][2])


def test_tracer_reports_missing_names(monkeypatch):
    monkeypatch.setattr(tracer, "WRAPPED", tracer.WRAPPED + [("gridfn.gone", "extrapkit.gridfn", "no_such_op", None)])
    assert tracer.Tracer().missing == ["extrapkit.gridfn.no_such_op"]


def test_tail_percentile_keeps_ten_tasks_beyond():
    value, pct = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0


def _fake_step(seconds):
    def step(task):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            pass
        return task["stratum"], 0.0
    return step


def test_run_length_does_not_depend_on_program_speed():
    cycle = tasks.load_pool("certify")["cycle"]
    fast, _ = run.timed_loop("certify", 5, 3, 60.0, _fake_step(0.0))
    slow, _ = run.timed_loop("certify", 5, 3, 60.0, _fake_step(0.002))
    assert [t["argv"] for t, _ in fast] == [t["argv"] for t, _ in slow]
    assert len(fast) == 3 * len(cycle)


def test_slow_run_stops_at_a_cycle_end_after_the_limit():
    cycle = tasks.load_pool("certify")["cycle"]
    ran, loop_s = run.timed_loop("certify", 5, 1000, 0.01, _fake_step(0.002))
    assert len(ran) == len(cycle) and loop_s >= 0.01


def test_certify_run_length_keeps_median_and_tail_in_one_stratum():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert 2 <= run.planned_cycles("certify", spec["run_seconds"]) <= 10


@pytest.mark.parametrize("cycles", range(2, 11))
def test_certify_median_and_tail_fall_in_the_n1024_stratum(cycles):
    cost = {"N=512": 0.5, "N=1024": 1.0, "N=2048": 3.0}
    ran = []
    for cycle, task in tasks.schedule(tasks.load_pool("certify"), 9):
        if cycle == cycles:
            break
        jitter = 1 + 0.2 * ((len(ran) * 7919) % 13 - 6) / 6  # within +-20% of the stratum cost
        ran.append((cost[task["stratum"]] * jitter, task["stratum"]))
    ordered = sorted(ran)
    tail_value, _ = run.tail([t for t, _ in ran])
    tail_stratum = next(s for t, s in ordered if t == tail_value)
    middle = {ordered[(len(ordered) - 1) // 2][1], ordered[len(ordered) // 2][1]}
    assert tail_stratum == "N=1024" and middle == {"N=1024"}
