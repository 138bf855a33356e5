"""plethykit benchmark: the three jobs users run, end to end or traced.

    python3 perfbench/run.py --workload search --seed 0 --seconds 40 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  squares  check all 17,451 four-member staircase squares pairwise
  search   ``plethykit search`` at a bound picked by the seed
  oracle   ``plethykit oracle-check`` at a bound picked by the seed

Every job runs in its own fresh single-threaded process (job.py), one
after another in a closed loop, until the next one would end after
``--seconds``; at least one always runs.  A few extra processes only
import plethykit and build the inputs, to sample set-up time.  Each
job's output is checked against references.json.

With ``--trace 0`` the result carries the end-to-end metrics, as
medians over the jobs:

  wall_ref_s    the job's wall time (tracing off) in reference seconds.
                The host's speed moves by up to 1.6x within tens of
                seconds, with its other tenants, and raw wall time with
                it.  So a fixed slice of pure-Python work is timed every
                0.2 s during the job (job.py, SpeedSampler), and the
                job's time is divided by the slice's mean time and
                multiplied by the slice's time on the baseline machine
                (REFERENCE_SLICE_S).  A change to plethykit moves this
                as it moves wall time; a change in the host's speed
                mostly cancels out.
  setup_s       spawn until ``plethykit.cli`` is imported and the inputs
                exist, sampled in every job process and in extra
                processes that stop there, and scaled to reference
                seconds the same way by slices timed right after set-up.
  peak_rss_mib  the job process's ru_maxrss.

The raw wall_s and setup time and failed_frac (failed ops over
attempted ops; an exception or a wrong output is a failed op) are
printed with them on stderr and in the record line.  With ``--trace 1`` the jobs run
instrumented (tracer.py) and the result carries the per-layer metrics
instead.  The last stdout line is the result; the line before it
records the run: seed, git SHA, Python version, CPU count, load
average at start, every sample and the output digests.
A human-readable summary goes to stderr.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from job import REFERENCE_SLICE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5  # set-up-only processes per run, besides the jobs
DEADLINE_S = 170  # every run must end well within 180 s

END_TO_END_UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_sha256() -> str:
    """Digest of every source file under src/, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def spawn(args, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "job.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(args.trace),
    ]
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--inject-fault"] if args.inject_fault else []
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"job did not finish within {exc.timeout:.0f} s") from exc
    ended = time.monotonic()
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"job exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_raw_s"] = record["ready"] - started
    record["setup_s"] = record["setup_raw_s"] * REFERENCE_SLICE_S / record["setup_slice_s"]
    record["elapsed_s"] = ended - started
    return record


def run(args) -> tuple[dict, dict]:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }
    if not (ROOT / "src" / "plethykit").is_dir():
        raise BenchError(f"no plethykit sources under {ROOT / 'src'}")
    probes = [spawn(args, deadline, setup_only=True) for _ in range(SETUP_PROBES)]
    jobs = []
    while True:
        jobs.append(spawn(args, deadline, setup_only=False))
        next_end = time.monotonic() - start + median(j["elapsed_s"] for j in jobs)
        if next_end > args.seconds:
            break

    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    meta.update(
        jobs=len(jobs),
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted,
        output_sha256=sorted({j["output_sha256"] for j in jobs}),
        setup_s_samples=[p["setup_s"] for p in probes + jobs],
        setup_raw_s_samples=[p["setup_raw_s"] for p in probes + jobs],
        wall_s_samples=[j["wall_s"] for j in jobs],
        wall_ref_s_samples=[j["wall_ref_s"] for j in jobs],
        peak_rss_mib_samples=[j["peak_rss_mib"] for j in jobs],
        measured_s=time.monotonic() - start,
    )
    if args.trace:
        values = {name: [j["layers"][name] for j in jobs] for name in jobs[0]["layers"]}
        meta["absent"] = sorted(n for n, v in values.items() if None in v)
        metrics = {n: median(v) for n, v in values.items() if None not in v}
        meta["spans"] = {
            name: {stat: median(j["spans"].get(name, {}).get(stat, 0) for j in jobs) for stat in ("calls", "busy_s", "self_s")}
            for name in jobs[0]["spans"]
        }
        units = {n: "count" for n in metrics}
        units.update({n: "s" for n in metrics if n.endswith("_s")})
        units["cli.stdout_bytes"] = "bytes"
    else:
        metrics = {
            "wall_ref_s": median(meta["wall_ref_s_samples"]),
            "setup_s": median(meta["setup_s_samples"]),
            "peak_rss_mib": median(meta["peak_rss_mib_samples"]),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    return meta, result


def summarize(meta: dict, result: dict) -> str:
    lines = [
        f"{meta['workload']} seed={meta['seed']} jobs={meta['jobs']} "
        f"failed_frac={meta['failed_frac']:.4g} ({meta['failed']}/{meta['attempted']}) "
        f"correct={result['correct']}",
        f"  {'wall_s (raw, median)':42s} {median(meta['wall_s_samples']):>14.6g} s",
        f"  {'setup time (raw, median)':42s} {median(meta['setup_raw_s_samples']):>14.6g} s",
    ]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    if meta.get("spans"):
        wall = result["metrics"]["job.traced_wall_s"]["value"]
        lines.append(f"  {'span':34s} {'calls':>9s} {'busy_s':>9s} {'self_s':>9s} {'self%':>6s}")
        for name, s in sorted(meta["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(
                f"  {name:34s} {s['calls']:>9.0f} {s['busy_s']:>9.3f} {s['self_s']:>9.3f} "
                f"{100 * s['self_s'] / wall:>5.1f}%"
            )
    if meta.get("absent"):
        lines.append(f"  absent: {', '.join(meta['absent'])}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("squares", "search", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--inject-fault",
        action="store_true",
        help="oracle only: pass the hidden --inject-fault flag, so every job must fail",
    )
    args = parser.parse_args(argv)
    if args.inject_fault and args.workload != "oracle":
        parser.error("--inject-fault applies to the oracle workload only")
    try:
        meta, result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(summarize(meta, result), file=sys.stderr)
    print(json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
