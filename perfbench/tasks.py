"""Task pools, the seeded schedule, and in-process execution of one task."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Placeholder in a pooled argv for the `rdf demo --trace` CSV path; it is
# replaced by a file in the run's scratch directory inside the checkout.
TRACE_SLOT = "{trace_csv}"


@dataclass
class Result:
    code: int | None  # None when an exception escaped main
    stdout: str
    error: str | None  # traceback text, or the SystemExit code
    seconds: float
    csv_rows: int | None = None  # rows in the --trace CSV, when one was asked for


def load_pool(workload: str) -> dict:
    """The recorded pool: {"tasks": [...], "cycle": [stratum, ...]}."""
    with open(HERE / "refs" / f"{workload}.json") as fh:
        return json.load(fh)


def schedule(pool: dict, seed: int):
    """Endless seeded task stream, following the pool's cycle of strata.

    Each stratum's tasks are shuffled by the seed and reshuffled when used
    up.  Yields (cycle_index, task): one cycle visits the strata listed in
    pool["cycle"], so a run that stops at a cycle boundary holds every
    stratum in the same proportion.
    """
    rnd = random.Random(seed)
    strata: dict[str, list[dict]] = {}
    for task in pool["tasks"]:
        strata.setdefault(task["stratum"], []).append(task)
    queues = {name: [] for name in strata}
    for cycle in itertools.count():
        for name in pool["cycle"]:
            if not queues[name]:
                queues[name] = rnd.sample(strata[name], len(strata[name]))
            yield cycle, queues[name].pop()


@contextlib.contextmanager
def scratch_dir(root: Path):
    """A fresh directory for task output files inside the checkout, removed after."""
    path = Path(tempfile.mkdtemp(prefix=".perfbench_tmp-", dir=root))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run_task(main, argv: list[str], tmp: Path) -> Result:
    """Run `main(argv)` with stdout and stderr captured; time only the call."""
    csv_path = tmp / "rdf_trace.csv"
    argv = [str(csv_path) if a == TRACE_SLOT else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as e:  # argparse usage errors
            error = f"SystemExit({e.code}): {err.getvalue().strip()}"
        except Exception:
            error = traceback.format_exc()
        seconds = time.perf_counter() - t0
    rows = None
    if str(csv_path) in argv:
        if csv_path.exists():
            with open(csv_path) as fh:
                rows = sum(1 for _ in fh)
            csv_path.unlink()
        else:
            rows = 0
    return Result(code, out.getvalue(), error, seconds, rows)
