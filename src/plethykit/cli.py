"""Command-line front end.

Machine-readable JSON goes to stdout, human diagnostics to stderr.
Exit codes: 0 = isomorphic / found / all checks pass, 1 = not
isomorphic / nothing found / a check failed, 2 = invalid input,
3 = internal failure (an invariant the mathematics guarantees broke,
or any other unexpected exception).

Each command takes the parsed arguments and returns its exit code;
``main`` alone exits.
"""

import argparse
import inspect
import json
import sys

from .errors import BudgetExceeded, ConsistencyError, EmptyDiagram, LengthExceedsDimension, NotSLIsomorphic
from .hookcontent import p_poly, sl_key
from .partition import b_statistic, partitions_of
from .plethysm import PlethysmInstance, SLInstance, gl_isomorphic, sl_isomorphic
from .oracle import specialize_bialternant, specialize_ssyt
from .search import classify_gl, enumerate_classes
from .staircase import FAMILIES, Sequence, pairwise_sl_isomorphic
from .twist import solve_twist, verify_twist


class UsageError(Exception):
    """Invalid input found after parsing: exit 2 with stdout empty."""


def _emit(obj) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is not in the range x>=0")
    return value


def _unique_keys(pairs: list) -> dict:
    """The object_pairs_hook of json.loads: a repeated key is a
    ValueError, never resolved to its last value."""
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError(f"repeated key {max(keys, key=keys.count)!r}")
    return dict(pairs)


def _parse_instance(text: str, mode: str):
    kind = SLInstance if mode == "sl" else PlethysmInstance
    try:
        return kind.from_json(json.loads(text, object_pairs_hook=_unique_keys))
    except (LengthExceedsDimension, ValueError, TypeError, RecursionError) as exc:
        raise UsageError(f"bad instance {text!r}: {exc}") from exc


def verify(args) -> int:
    """Decide whether two instances are isomorphic."""
    a = _parse_instance(args.instance_a, args.mode)
    b = _parse_instance(args.instance_b, args.mode)
    isomorphic = sl_isomorphic(a, b) if args.mode == "sl" else gl_isomorphic(a, b)
    _emit({"mode": args.mode, "isomorphic": isomorphic})
    print(f"{args.mode}-isomorphic: {'yes' if isomorphic else 'no'}", file=sys.stderr)
    return 0 if isomorphic else 1


def family(args) -> int:
    """Generate an isomorphism family and verify it pairwise."""
    try:
        instances = FAMILIES[args.kind](*(getattr(args, name) for name in args.params))
    except (EmptyDiagram, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    verified = pairwise_sl_isomorphic(instances)
    _emit({"instances": [inst.to_json() for inst in instances], "verified": verified})
    print(
        f"{len(instances)} instances, pairwise SL check {'passed' if verified else 'FAILED'}",
        file=sys.stderr,
    )
    return 0 if verified else 1


def twist(args) -> int:
    """Find column/delta twists making an SL pair GL-isomorphic."""
    a = _parse_instance(args.instance_a, "sl")
    b = _parse_instance(args.instance_b, "sl")
    try:
        solution = solve_twist(a, b, args.bound)
    except NotSLIsomorphic as exc:
        raise UsageError(str(exc)) from exc
    if solution is None:
        _emit({"found": False, "l": None, "m": None, "x": None, "y": None, "verified": False})
        print(f"no twist with l, m <= {args.bound}", file=sys.stderr)
        return 1
    # twist.py proves every solution a GL-isomorphism: a failed check is a bug
    if not verify_twist(a, b, solution):
        raise ConsistencyError(f"{solution} fails the GL check on {a} against {b}")
    _emit({"found": True, **solution._asdict(), "verified": True})
    print(
        f"twist l={solution.l} m={solution.m} x={solution.x} y={solution.y}, verification passed",
        file=sys.stderr,
    )
    return 0


def search(args) -> int:
    """Enumerate SL-equivalence classes, one JSON line per class."""
    try:
        classes = enumerate_classes(args.max_weight, args.max_d)
    except BudgetExceeded as exc:  # the bound is the user's: invalid input
        raise UsageError(str(exc)) from exc
    for cls in classes:
        gl = {label: [list(pair) for pair in pairs] for label, pairs in classify_gl(cls).items()}
        _emit({"P": [str(c) for c in cls.poly], "members": [inst.to_json() for inst in cls.members], "gl": gl})
    print(f"{len(classes)} classes", file=sys.stderr)
    return 0


def oracle_check(args) -> int:
    """Check bialternant, tableau, and hook-content routes against
    each other on every instance within the bounds."""
    checked = 0
    memo = {}  # one tableau memo: shapes recur along each d loop and across partitions
    dens = {}  # one denominator memo, apart: a (d+1, B) key could equal a two-part shape
    for n in range(1, args.max_weight + 1):
        for lam in partitions_of(n, n):
            for d in range(len(lam) - 1, args.max_d + 1):
                expected = (0,) * b_statistic(lam) + p_poly(sl_key(lam, d))
                if args.inject_fault:  # a new top coefficient, so it always differs
                    expected += (1,)
                routes = {
                    "bialternant": specialize_bialternant(lam, d, dens),
                    "tableau": specialize_ssyt(lam, d, memo),
                    "hook_content": expected,
                }
                values = list(routes.values())
                odd = [name for name, f in routes.items() if values.count(f) == 1]
                if odd:
                    routes = {name: [str(c) for c in f] for name, f in routes.items()}
                    _emit({"agree": False, "lambda": list(lam), "d": d, "routes": routes})
                    verb = "differs" if len(odd) == 1 else "differ"
                    print(
                        f"disagreement at lambda={list(lam)} d={d}: {', '.join(odd)} {verb}",
                        file=sys.stderr,
                    )
                    return 1
                checked += 1
    _emit({"agree": True, "instances": checked})
    print(f"{checked} instances agree", file=sys.stderr)
    return 0


# Built once at import: building it per call would cost every run.  No
# parser accepts abbreviated options, so a typo is never read as a flag.
parser = argparse.ArgumentParser(
    prog="plethykit",
    description="Exact SL(2)/GL(2) isomorphism tooling for plethysms.",
    allow_abbrev=False,
)
commands = parser.add_subparsers(metavar="COMMAND", required=True)

cmd = commands.add_parser("verify", help=verify.__doc__, allow_abbrev=False)
cmd.add_argument("instance_a")
cmd.add_argument("instance_b")
cmd.add_argument(
    "--mode",
    choices=["sl", "gl"],
    default="sl",
    help="sl takes {'lambda':[...],'d':n}; gl takes {'lambda':[...],'delta':[d1,d2]} (default: sl).",
)
cmd.set_defaults(run=verify)

cmd = commands.add_parser("family", help=family.__doc__, allow_abbrev=False)
kinds = cmd.add_subparsers(dest="kind", required=True)
# One parser per family kind, its options the builder's parameters, so
# argparse rejects a stray or missing option.  A Sequence parameter is
# a repeatable option, one entry per use; every other is a required int.
for kind, build in FAMILIES.items():
    sub = kinds.add_parser(kind, allow_abbrev=False)
    params = inspect.signature(build).parameters
    for name, param in params.items():
        if param.annotation is Sequence:
            sub.add_argument(f"--{name}", action="append", type=int, default=[])
        else:
            sub.add_argument(f"--{name}", required=True, type=int)
    sub.set_defaults(run=family, params=tuple(params))

cmd = commands.add_parser("twist", help=twist.__doc__, allow_abbrev=False)
cmd.add_argument("instance_a")
cmd.add_argument("instance_b")
cmd.add_argument("--bound", type=_nonnegative, default=50, help="l, m search bound (default: 50).")
cmd.set_defaults(run=twist)

cmd = commands.add_parser("search", help=search.__doc__, allow_abbrev=False)
cmd.add_argument("--max-weight", required=True, type=_nonnegative)
cmd.add_argument("--max-d", required=True, type=_nonnegative)
cmd.add_argument("--bound", type=_nonnegative, default=50, help="ignored; kept so old command lines still run.")
cmd.set_defaults(run=search)

cmd = commands.add_parser("oracle-check", help=oracle_check.__doc__, allow_abbrev=False)
cmd.add_argument("--max-weight", required=True, type=_nonnegative)
cmd.add_argument("--max-d", required=True, type=_nonnegative)
cmd.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
cmd.set_defaults(run=oracle_check)


def main(argv=None, prog_name="plethykit"):
    """Run the command named in argv (default: sys.argv[1:]) and exit
    with its code.  Usage messages always name the program plethykit;
    prog_name is accepted and ignored, because perfbench/job.py passes it.
    An internal failure's stderr line names the command line and the
    innermost frame, since the exception alone may carry no message."""
    args = parser.parse_args(argv)
    try:
        code = args.run(args)
    except UsageError as exc:
        parser.error(str(exc))
    except Exception as exc:  # never reported as a "no" (exit 1)
        _emit({"error": type(exc).__name__, "message": str(exc)})
        # Imported here, so that runs that do not fail never load them.
        import shlex
        import traceback

        at = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{shlex.join(sys.argv[1:] if argv is None else argv)}; at {at.filename}:{at.lineno} in {at.name}"
        print(f"internal error: {type(exc).__name__}: {exc} (in plethykit {where})", file=sys.stderr)
        code = 3
    sys.exit(code)


if __name__ == "__main__":
    main()
