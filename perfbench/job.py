"""One benchmark job, run in a fresh single-threaded process by run.py.

    python3 perfbench/job.py --workload squares --seed 0 --trace 0

The process imports ``plethykit.cli`` from the checkout's ``src/``,
builds the workload's inputs from the seed and notes the time
(``time.monotonic``, which run.py compares with the time it spawned
the process, for setup_s).  ``--setup-only`` stops there.  Otherwise
it runs the job once under a SpeedSampler, checks every output against
``references.json`` and prints one JSON line.  With ``--trace 1`` the
plethykit functions are instrumented first (tracer.py) and the line
also carries the per-layer metrics.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from functools import partial
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# A seed picks one of these neighbouring bounds; the first is the seed-0
# input.  For search only the twist search bound moves: every bound here
# is past the largest (l, m) any pair needs, so the output stays the
# same, and the cost moves by about 2%.  Moving --max-weight/--max-d by
# one instead moves the cost by 10-20% and peak RSS by up to 15%.  The
# oracle bounds cost the same within a few percent.
SEARCH_ARGV = ("search", "--max-weight", "16", "--max-d", "14", "--bound")
TWIST_BOUNDS = (50, 49, 51)
ORACLE_BOUNDS = ((9, 7), (8, 8), (7, 9))
SQUARES_WINDOW = (832, 4832)


def square_params() -> list[tuple]:
    """The (x, y, u, v, z) of every four-member staircase square with
    len(x) = len(y) <= 2 and entries <= 3, skipping the parameters
    whose diagrams are all empty (main_family raises EmptyDiagram)."""
    out = []
    for n in range(3):
        for x in product(range(4), repeat=n):
            for y in product(range(4), repeat=n):
                for u, v, z in product(range(4), repeat=3):
                    if z == 0 and not any(x) and not any(y) and 0 in (u, v):
                        continue
                    out.append((x, y, u, v, z))
    return out


def make_inputs(workload: str, seed: int, inject_fault: bool = False):
    """The job's input for a seed: the rotated square list, or argv."""
    if workload == "squares":
        # Seed 0 keeps the list order (16,332 p_poly cache misses).
        # Other seeds start it inside a window where the cache's working
        # set stays put (16,714 to 16,966 misses, same peak RSS).
        # Starting inside the first 832 squares or past the 12,000th
        # moves misses by up to 6% and peak RSS by up to 16%, so wall
        # time and memory would depend on the seed.
        k = 0 if seed == 0 else SQUARES_WINDOW[0] + (seed * 1543) % (SQUARES_WINDOW[1] - SQUARES_WINDOW[0])
        params = square_params()
        return params[k:] + params[:k]
    if workload == "search":
        return [*SEARCH_ARGV, str(TWIST_BOUNDS[seed % len(TWIST_BOUNDS)])]
    if workload == "oracle":
        w, d = ORACLE_BOUNDS[seed % len(ORACLE_BOUNDS)]
        argv = ["oracle-check", "--max-weight", str(w), "--max-d", str(d)]
        return argv + ["--inject-fault"] if inject_fault else argv
    raise ValueError(f"unknown workload {workload!r}")


def run_squares(params, staircase, call):
    """One op per square: build it, then check it pairwise.

    Returns (outputs, failed) with one byte per square: 1 verified,
    0 not verified, E raised.
    """

    def one_square(p):
        return staircase.pairwise_sl_isomorphic(staircase.main_family(*p))

    outputs = bytearray()
    for p in params:
        try:
            outputs += b"1" if call("bench.op", one_square, p) is True else b"0"
        except Exception:  # any exception is a failed op, not a crash
            outputs += b"E"
    return bytes(outputs), len(params) - outputs.count(b"1")


def run_cli(argv, cli, call):
    """cli.main in-process with stdout captured; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            call("cli.main", cli.main, argv, prog_name="plethykit")
            code = 0
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an internal failure is a failed op
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def cli_failed(argv, code, stdout: str, references: dict) -> bool:
    """Whether a CLI job failed: a non-zero exit or other stdout than the
    reference recorded for the same command line."""
    expected = references.get(" ".join(a for a in argv if a != "--inject-fault"))
    if expected is None:
        raise KeyError(f"no reference output for {argv}")
    return code != 0 or hashlib.sha256(stdout.encode()).hexdigest() != expected["stdout_sha256"]


# The slice's time on the machine the first baseline was measured on
# (2-vCPU Xeon VM at 2.1 GHz, Python 3.11).  Times scaled by it read as
# seconds at that machine's usual speed.
REFERENCE_SLICE_S = 0.0015


def reference_slice_s() -> float:
    """Seconds taken by a fixed slice of pure-Python work."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(10_000):
        total += (i * i) % 7
        table[i & 1023] = total
    return time.perf_counter() - start


def mean_slice_s(samples) -> float:
    """Harmonic mean, so that the mean speed is the time-weighted one."""
    return len(samples) / sum(1 / x for x in samples)


class SpeedSampler:
    """Times a reference slice every ``interval`` seconds while a job runs.

    The host's speed moves by up to 1.6x within tens of seconds, with
    its other tenants, and a 10-second job often spans such a change.
    The job's time divided by the slice's mean time over the job is its
    cost in slices, which stays put when the host speeds up or slows
    down; times REFERENCE_SLICE_S it reads as seconds again.  A slice
    takes about 1% of the job's time; that time is taken out of the
    job's wall time.
    """

    def __init__(self, first: list[float], interval: float = 0.2):
        self.interval = interval
        self.samples = list(first)
        self.during: list[float] = []

    def _sample(self, signum, frame):
        self.during.append(reference_slice_s())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, wall: float) -> tuple[float, float]:
        """(wall time net of the slices, the same in reference seconds)."""
        net = wall - sum(self.during)
        return net, net * REFERENCE_SLICE_S / mean_slice_s(self.samples + self.during)


def plain_call(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def run_job(workload: str, inputs, call, references: dict):
    """Run the workload once; returns (output bytes, attempted, failed)."""
    from plethykit import cli, staircase

    if workload == "squares":
        outputs, failed = run_squares(inputs, staircase, call)
        if len(inputs) != references["squares"]:
            failed = len(inputs)
        return outputs, len(inputs), failed
    code, stdout = run_cli(inputs, cli, call)
    return stdout.encode(), 1, int(cli_failed(inputs, code, stdout, references))


def import_plethykit():
    """Import plethykit.cli from the checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import plethykit.cli
    except ImportError as exc:
        sys.exit(f"job: cannot import plethykit from {SRC}: {exc}")
    if Path(plethykit.__file__).resolve().parent.parent != SRC:
        sys.exit(f"job: plethykit was imported from {plethykit.__file__}, not {SRC}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("squares", "search", "oracle"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args(argv)

    import_plethykit()
    inputs = make_inputs(args.workload, args.seed, args.inject_fault)
    ready = time.monotonic()
    # the speed right after set-up, to scale setup_s like wall_ref_s
    first = [reference_slice_s() for _ in range(10)]
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_slice_s": mean_slice_s(first)}))
        return
    references = json.loads((HERE / "references.json").read_text())

    tracer, run = None, run_job
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run = partial(tracer.span, "job", run_job)
    sampler = SpeedSampler(first)
    with sampler:
        start = time.perf_counter()
        job = run(args.workload, inputs, tracer.span if tracer else plain_call, references)
    wall = time.perf_counter() - start
    outputs, attempted, failed = job
    wall, wall_ref = sampler.scale(wall)
    layers = spans = None
    if tracer:
        layers = tracer.layer_metrics("job")
        layers["job.traced_wall_ref_s"] = wall_ref
        layers["cli.stdout_bytes"] = 0 if args.workload == "squares" else len(outputs)
        spans = tracer.summary()
    print(
        json.dumps(
            {
                "ready": ready,
                "wall_s": wall,
                "wall_ref_s": wall_ref,
                "setup_slice_s": mean_slice_s(first),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "attempted": attempted,
                "failed": failed,
                "output_sha256": hashlib.sha256(outputs).hexdigest(),
                "layers": layers,
                "spans": spans,
            }
        )
    )


if __name__ == "__main__":
    main()
