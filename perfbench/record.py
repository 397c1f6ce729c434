"""Build the benchmark's task pools and record their reference outputs.

    python3 perfbench/record.py            # rewrite perfbench/refs/*.json
    python3 perfbench/record.py plan sweep # only the named workloads

Each workload draws its tasks from a fixed pool of CLI invocations.  The
pools are generated here from POOL_SEED, every task is run once through
`extrapkit.cli.main`, and the pool is written together with the fields the
checker compares (see checker.py).  A benchmark run only reads these files,
so a later change to the program cannot change which inputs it is given.

Recording refuses to write a pool in which any task fails its own check:
a benchmark workload must be one on which no operation fails.
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checker  # noqa: E402
import tasks  # noqa: E402
from extrapkit.exponents import INF, exp_str, from_rec  # noqa: E402
from extrapkit.extrapolation import ExtrapolationRange, proof_exponents  # noqa: E402
from extrapkit.grid import Grid  # noqa: E402
from extrapkit.gridfn import FamilySpec, make_family  # noqa: E402

POOL_SEED = 20170424
DEN = 24  # common denominator of reciprocal draws, as in the test corpus
L = "8"


def _rec(rnd: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rnd.randint(lo, hi), DEN)


# --------------------------------------------------------------------------
# input properties
# --------------------------------------------------------------------------


def support_fraction(family: str, count: int, seed: int, arity: int, Ns) -> float:
    """Share of grid cells inside the family members' supports, over Ns."""
    shares = []
    for N in Ns:
        fam = make_family(FamilySpec(family, count=count, arity=arity), seed, Grid(float(L), N))
        shares.extend(float(np.mean(fn.samples != 0)) for fn in fam.functions())
    return float(np.mean(shares))


# --------------------------------------------------------------------------
# pools
# --------------------------------------------------------------------------


def case1_scenarios(rnd: random.Random, count: int):
    """Case-I (range, p) pairs inside the test corpus's float-friendly window."""
    out = []
    while len(out) < count:
        b = Fraction(0) if rnd.random() < 0.3 else _rec(rnd, 1, 12)
        a = b + _rec(rnd, 2, DEN)
        u0 = b + (a - b) * Fraction(rnd.randint(1, 7), 8)
        inv_q0 = (u0 - b) + Fraction(rnd.randint(0, DEN), DEN)
        if inv_q0 == 0:
            continue
        u = b + (a - b) * Fraction(rnd.randint(1, 15), 16)
        rng = ExtrapolationRange(from_rec(a), from_rec(b) if b else INF, from_rec(u0), from_rec(inv_q0))
        p = from_rec(u)
        pe = proof_exponents(rng, p)
        tame = (
            Fraction(1, 4) < pe.delta < 6
            and not pe.beta.is_inf
            and Fraction(1, 4) < pe.beta.frac < 6
            and abs(pe.epsilon) < 8
            and pe.gamma < 10
            and pe.sigma < 10
            and 1 <= pe.q < 8
            and p.frac < 8
            and pe.tau < 12
            and pe.tau_prime < 12
        )
        if tame:
            out.append((rng, p))
    return out


def certify_pool(rnd: random.Random) -> list[dict]:
    pool = []
    for rng, p in case1_scenarios(rnd, 8):
        for w in ("unit", "power:1/8", "power:-1/4"):
            for N in (512, 1024, 2048):
                for seed in (1, 2):
                    argv = [
                        "rdf", "demo", "--case", "I", "--w", w,
                        "--pm", exp_str(rng.p_minus), "--pp", exp_str(rng.p_plus),
                        "--p0", exp_str(rng.p0), "--q0", exp_str(rng.q0), "--p", exp_str(p),
                        "--N", str(N), "--L", L, "--seed", str(seed),
                        "--family", "smooth-bumps", "--count", "16", "--emit", "json",
                    ]
                    if rnd.random() < 0.25:
                        argv += ["--trace", tasks.TRACE_SLOT]
                    pool.append({
                        "argv": argv,
                        "stratum": f"N={N}",
                        "props": {
                            "N": [N],
                            "complex": False,
                            "support": support_fraction("smooth-bumps", 1, seed, 2, [N]),
                        },
                    })
    return pool


def q_pairs(rnd: random.Random, count: int):
    """(q1, q2) with 1 < q_i < inf and 1/q1 + 1/q2 < 3/2; (2, 2) first."""
    out = [(Fraction(1, 2), Fraction(1, 2))]
    while len(out) < count:
        i1, i2 = _rec(rnd, 1, DEN - 1), _rec(rnd, 1, DEN - 1)
        if i1 + i2 < Fraction(3, 2) and (i1, i2) not in out:
            out.append((i1, i2))
    return [(from_rec(a), from_rec(b)) for a, b in out]


def vv_tuples(rnd: random.Random, count: int):
    """(q1, q2, s1, s2) satisfying the vector-valued planner's constraints."""
    out = []
    while len(out) < count:
        iq1, iq2, is1, is2 = (_rec(rnd, 1, DEN - 1) for _ in range(4))
        if iq1 + iq2 >= Fraction(3, 2) or is1 + is2 >= Fraction(3, 2):
            continue
        if abs(is1 - iq1) >= Fraction(1, 2) or abs(is2 - iq2) >= Fraction(1, 2):
            continue
        if max(iq1, is1) + max(iq2, is2) >= Fraction(3, 2):
            continue
        out.append(tuple(from_rec(t) for t in (iq1, iq2, is1, is2)))
    return out


SWEEP_N = (2048, 4096, 8192)
SWEEP_COUNT = 4
AGG_N = (1024, 2048, 4096)


def _grid_opts(family: str, count: int, seed: int, Ns) -> list[str]:
    return [
        "--family", family, "--count", str(count), "--seed", str(seed),
        "--N", ",".join(map(str, Ns)), "--L", L, "--emit", "json",
    ]


def _sweep_props(family, count, seed, Ns, arity=2):
    return {
        "N": list(Ns),
        "complex": family == "modulated",
        "support": support_fraction(family, count, seed, arity, Ns),
    }


def sweep_pool(rnd: random.Random) -> list[dict]:
    pool = []
    for q1, q2 in q_pairs(rnd, 6):
        for family in ("smooth-bumps", "modulated", "dyadic-concentration"):
            for a in ("0", "2/5", "3/2"):
                for seed in (1, 2):
                    argv = ["verify", "bht", "--q1", exp_str(q1), "--q2", exp_str(q2), "--a", a]
                    argv += _grid_opts(family, SWEEP_COUNT, seed, SWEEP_N)
                    pool.append({
                        "argv": argv,
                        "stratum": family,
                        "props": _sweep_props(family, SWEEP_COUNT, seed, SWEEP_N),
                    })
    return pool


def aggregate_pool(rnd: random.Random) -> list[dict]:
    pool = []
    families = ("smooth-bumps", "modulated")
    vv = vv_tuples(rnd, 8)
    for family in families:
        for seed in (1, 2):
            for i, (q1, q2, s1, s2) in enumerate(vv[:4]):
                for K in (2, 4):
                    a = ("0", "2/5")[(i + K) % 2]
                    count = 2 * K
                    argv = ["verify", "vv", "--q1", exp_str(q1), "--q2", exp_str(q2), "--s1", exp_str(s1),
                            "--s2", exp_str(s2), "--a", a, "--K", str(K)]
                    argv += _grid_opts(family, count, seed, AGG_N)
                    pool.append({"argv": argv, "stratum": f"vv-K{K}-{family}",
                                 "props": _sweep_props(family, count, seed, AGG_N)})
            for q1, q2, s1, s2 in vv[4:]:
                t1, t2 = q1, q2  # (q, q) always passes the vector-valued planner
                argv = ["verify", "iterated", "--q1", exp_str(q1), "--q2", exp_str(q2), "--s1", exp_str(s1),
                        "--s2", exp_str(s2), "--t1", exp_str(t1), "--t2", exp_str(t2), "--J", "2", "--K", "2"]
                argv += _grid_opts(family, 8, seed, AGG_N)
                pool.append({"argv": argv, "stratum": f"iterated-{family}",
                             "props": _sweep_props(family, 8, seed, AGG_N)})
            for q1, q2 in q_pairs(rnd, 4):
                r = from_rec(Fraction(rnd.randint(DEN // 2, DEN - 1), DEN))  # r in (1, 2]
                for surrogate in ("tensor-hilbert", "product-identity"):
                    argv = ["verify", "mz", "--q", f"{exp_str(q1)},{exp_str(q2)}", "--r", exp_str(r),
                            "--surrogate", surrogate, "--K", "4"]
                    argv += _grid_opts(family, 8, seed, AGG_N)
                    pool.append({"argv": argv, "stratum": f"mz-{surrogate}-{family}",
                                 "props": _sweep_props(family, 8, seed, AGG_N)})
    return pool


def plan_pool(rnd: random.Random) -> list[dict]:
    pool = []

    def add(argv, stratum):
        pool.append({"argv": argv + ["--emit", "json"], "stratum": stratum, "props": {}})

    n = 0
    while n < 200:
        b = Fraction(0) if rnd.random() < 0.3 else _rec(rnd, 1, 12)
        a = b + _rec(rnd, 2, DEN)
        kind = n % 4
        u0 = (b + (a - b) * Fraction(rnd.randint(1, 7), 8), a, b, b + (a - b) / 2)[kind]
        if u0 == 0:
            continue
        inv_q0 = (u0 - b) + Fraction(rnd.randint(1, DEN), DEN)
        u = b + (a - b) * Fraction(rnd.randint(1, 15), 16)
        if kind == 3:  # infeasible: validity fails (q0 too large) or p outside
            if rnd.random() < 0.5:
                inv_q0 = u0 - b - Fraction(rnd.randint(1, 6), DEN)
                if inv_q0 <= 0:
                    continue
            else:
                u = a + Fraction(rnd.randint(1, 6), DEN)
        pp = from_rec(b) if b else INF
        add(["plan", "extrapolate", "--pm", exp_str(from_rec(a)), "--pp", exp_str(pp), "--p0",
             exp_str(from_rec(u0)), "--q0", exp_str(from_rec(inv_q0)), "--p", exp_str(from_rec(u))],
            "extrapolate")
        n += 1

    for _ in range(200):
        i1, i2 = _rec(rnd, 1, DEN - 1), _rec(rnd, 1, DEN - 1)  # about 1 in 8 with 1/q >= 3/2
        add(["plan", "bht", "--q1", exp_str(from_rec(i1)), "--q2", exp_str(from_rec(i2))], "bht")

    for _ in range(200):
        q1, q2, s1, s2 = (from_rec(_rec(rnd, 1, DEN - 1)) for _ in range(4))
        add(["plan", "bht-vv", "--q1", exp_str(q1), "--q2", exp_str(q2),
             "--s1", exp_str(s1), "--s2", exp_str(s2)], "bht-vv")

    for _ in range(200):
        q1, q2, s1, s2 = (from_rec(_rec(rnd, 1, DEN - 1)) for _ in range(4))
        g1 = Fraction(rnd.randint(0, 7), 16)
        g2 = Fraction(rnd.randint(1 if g1 == 0 else 0, 7), 16)  # keeps gamma_3 < 1
        add(["plan", "section5", "--q1", exp_str(q1), "--q2", exp_str(q2),
             "--s1", exp_str(s1), "--s2", exp_str(s2),
             "--g1", exp_str(g1), "--g2", exp_str(g2), "--g3", exp_str(1 - g1 - g2)], "section5")

    for _ in range(200):
        qs = ",".join(exp_str(from_rec(_rec(rnd, 1, DEN - 1))) for _ in range(2))
        r = rnd.choice([  # r in (1, 2), the base case r = 2, or infeasible r > 2
            from_rec(_rec(rnd, DEN // 2 + 1, DEN - 1)), Fraction(2), from_rec(_rec(rnd, 2, DEN // 2 - 1)),
        ])
        add(["plan", "mz", "--q", qs, "--r", exp_str(r)], "mz")

    for _ in range(200):
        grid = ",".join(exp_str(from_rec(_rec(rnd, 1, DEN - 1))) for _ in range(3))
        pool.append({
            "argv": ["plan", "bht", "--q1", "2", "--q2", "2", "--grid", grid, "--emit", "csv"],
            "stratum": "bht-grid",
            "props": {},
        })
    return pool


# The order of strata in one schedule cycle, where it is not one of each.
# A certify task at N=2048 costs about three times one at N=1024, and one
# at N=512 about half.  A run makes a fixed number of cycles C (see
# run.py), so with 2:5:1 tasks per cycle its median and its tail order
# statistic (ten tasks beyond it) both fall inside the N=1024 stratum for
# every C from 2 to 10, instead of on the edge between two strata, where
# a one-task change would move them by a factor.
CYCLES = {"certify": ["N=512", "N=1024", "N=1024", "N=2048", "N=1024", "N=512", "N=1024", "N=1024"]}

POOLS = {
    "certify": certify_pool,
    "sweep": sweep_pool,
    "aggregate": aggregate_pool,
    "plan": plan_pool,
}


def record(workload: str) -> None:
    from extrapkit.cli import main

    pool = POOLS[workload](random.Random(f"{POOL_SEED}-{workload}"))
    t0 = time.perf_counter()
    with tasks.scratch_dir(ROOT) as tmp:
        for task in pool:
            res = tasks.run_task(main, task["argv"], tmp)
            if res.error is not None or res.code not in (0, 2):
                raise SystemExit(f"{workload}: {' '.join(task['argv'])}: exit {res.code}: {res.error}")
            task["ref"] = checker.reference(workload, task, res)
            problem = checker.check(workload, task, res)
            if problem:
                raise SystemExit(f"{workload}: {' '.join(task['argv'])}: {problem}")
            if workload == "plan":
                task["props"]["infeasible"] = res.code == 2
    cycle = CYCLES.get(workload) or list(dict.fromkeys(t["stratum"] for t in pool))
    doc = {"workload": workload, "pool_seed": POOL_SEED, "cycle": cycle, "tasks": pool}
    path = HERE / "refs" / f"{workload}.json"
    path.write_text(json.dumps(doc, indent=0) + "\n")
    print(f"{workload}: {len(pool)} tasks recorded in {time.perf_counter() - t0:.1f}s -> {path.relative_to(ROOT)}")


if __name__ == "__main__":
    for name in sys.argv[1:] or list(POOLS):
        record(name)
