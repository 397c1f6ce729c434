"""One sha256 per benchmark pool task, for bit-for-bit checks of a refactor.

    python3 tools/pool_digests.py SRC OUT

Runs every argv of perfbench/refs/*.json (read only) through `extrapkit.cli.main`
imported from the package directory SRC, and writes to OUT, one per line, a
digest of each task's stdout, stderr, exit code and `--trace` CSV bytes.  Two
checkouts agree bit for bit on the pool when `diff` finds their OUT files equal.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def main(src: str, out: str) -> None:
    sys.path[:0] = [str(Path(src).resolve()), str(PERFBENCH)]
    from extrapkit.cli import main as cli_main
    from tasks import TRACE_SLOT, load_pool

    out, digests = Path(out).resolve(), {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # a relative trace path reads the same in every run's messages
        for name in sorted(p.stem for p in (PERFBENCH / "refs").glob("*.json")):
            for i, task in enumerate(load_pool(name)["tasks"]):
                argv = ["trace.csv" if a == TRACE_SLOT else a for a in task["argv"]]
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    try:
                        code = cli_main(argv)
                    except SystemExit as e:
                        code = f"SystemExit({e.code})"
                    except Exception as e:  # repr, not a traceback, which names the checkout
                        code = repr(e)
                trace = Path("trace.csv")
                blob = trace.read_bytes() if trace.exists() else b""
                trace.unlink(missing_ok=True)
                text = json.dumps([stdout.getvalue(), stderr.getvalue(), str(code)]).encode()
                digests[f"{name}/{i:04d}"] = hashlib.sha256(text + blob).hexdigest()
    out.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: pool_digests.py SRC OUT")
    main(*sys.argv[1:])
