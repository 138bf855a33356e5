"""Self-checks of the benchmark; exits non-zero on the first failure.

    python3 perfbench/selfcheck.py

1. Self-time arithmetic on a synthetic span tree, with nested,
   overlapping and overhanging children.
2. The tracer on a stand-in package that lacks some instrumented
   functions and the p_poly cache statistics: those metrics come out
   absent (None), the rest are counted, nothing crashes.
3. Each workload run traced and untraced gives the same job output.
4. ``oracle-check --inject-fault`` drives the oracle workload to
   failed_frac = 1.

Checks 3 and 4 run the real jobs, about a minute in all.
"""

import json
import subprocess
import sys
import types
from pathlib import Path

from tracer import Tracer, self_times

HERE = Path(__file__).resolve().parent


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {what}")
    print(f"ok  {what}")


def check_self_times() -> None:
    #   0 [0, 10]
    #   ├─ 1 [1, 4]          ├─ 2 [3, 6]   (overlaps 1)
    #   │  └─ 4 [2, 3]       └─ 3 [9, 12]  (overhangs 0)
    parents = [-1, 0, 0, 0, 1]
    starts = [0.0, 1.0, 3.0, 9.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    got = self_times(parents, starts, ends)
    # 0: 10 - |[1,6] ∪ [9,10]| = 10 - 6 = 4;  1: 3 - 1 = 2;  others are leaves
    check(got == [4.0, 2.0, 3.0, 3.0, 1.0], f"self times of a synthetic tree: {got}")

    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return None

    def inner():
        tracer.span("leaf", leaf)
        tracer.span("leaf", leaf)

    tracer.span("root", inner)
    # root opens at 0, leaves at [1,2] and [3,4], root closes at 5
    rows = tracer.summary()
    check(
        rows == {
            "root": {"calls": 1, "busy_s": 5.0, "self_s": 3.0},
            "leaf": {"calls": 2, "busy_s": 2.0, "self_s": 2.0},
        },
        f"tracer totals on a fake clock: {rows}",
    )
    check(list(tracer.parents) == [-1, 0, 0], "spans record their parent ids")


def check_missing_paths() -> None:
    """A later version of the package may lose wrapped names or caches."""
    pkg = types.ModuleType("standin")
    hook = types.ModuleType("standin.hookcontent")
    search = types.ModuleType("standin.search")

    class Poly:
        coefficients = (1, 2, 1)

    def p_poly(lam, d):  # no lru_cache, so no cache_info
        return Poly()

    def enumerate_classes(w, d):
        return [hook.p_poly((1,), 1), hook.p_poly((2,), 1)]

    def classify_gl(cls, bound=50):
        return {"direct": [(0, 1)], "twistable": []}  # no obstructed/unresolved

    hook.p_poly = p_poly
    search.p_poly = p_poly
    search.enumerate_classes = enumerate_classes
    search.classify_gl = classify_gl
    modules = {"standin": pkg, "standin.hookcontent": hook, "standin.search": search}
    sys.modules.update(modules)
    try:
        tracer = Tracer()
        tracer.install("standin")
        check(search.p_poly is hook.p_poly is not p_poly, "p_poly rebound in every module holding it")
        tracer.span("job", lambda: [search.classify_gl(c) for c in search.enumerate_classes(3, 3)])
        metrics = tracer.layer_metrics("job")
        tracer.uninstall()
        check(hook.p_poly is p_poly, "uninstall restores the originals")
    finally:
        for name in modules:
            del sys.modules[name]
    expect = {
        "hookcontent.p_poly.calls": 2,
        "hookcontent.p_poly.cache_misses": None,
        "hookcontent.p_poly.coeffs_computed": 6,
        "search.classes": 2,
        "search.pairs.direct": 2,
        "search.pairs.twistable": 0,
        "search.pairs.unresolved": None,
        "twist.solve_twist.calls": None,
        "twist.nu2_obstruction.calls": None,
        "staircase.main_family.busy_s": None,
        "oracle.specialize_ssyt.calls": None,
    }
    got = {name: metrics[name] for name in expect}
    check(got == expect, f"missing names and caches are absent, not 0: {got}")


def bench(workload: str, trace: int, *extra: str) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), *extra],
        capture_output=True,
        text=True,
        timeout=170,
    )
    if proc.returncode != 0:
        raise SystemExit(f"selfcheck FAILED: run.py {workload} exited {proc.returncode}: {proc.stderr}")
    meta, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return meta, result


def check_jobs() -> None:
    for workload in ("squares", "search", "oracle"):
        plain, plain_result = bench(workload, 0)
        traced, traced_result = bench(workload, 1)
        check(
            plain_result["correct"] and traced_result["correct"]
            and plain["output_sha256"] == traced["output_sha256"],
            f"{workload}: traced and untraced runs give the same correct output",
        )
    meta, result = bench("oracle", 0, "--inject-fault")
    check(
        meta["failed_frac"] == 1 and not result["correct"] and result["failed"] == result["attempted"] >= 1,
        f"oracle --inject-fault gives failed_frac = 1 ({result['failed']}/{result['attempted']})",
    )


if __name__ == "__main__":
    check_self_times()
    check_missing_paths()
    check_jobs()
