"""Command-line front end.

Machine-readable JSON goes to stdout, human diagnostics to stderr.
Exit codes: 0 = isomorphic / found / all checks pass, 1 = not
isomorphic / nothing found / a check failed, 2 = invalid input.
"""

import json
import sys

import click

from .errors import PlethykitError
from .hookcontent import p_poly
from .partition import b_statistic, partitions_of
from .plethysm import PlethysmInstance, SLInstance, gl_isomorphic, sl_isomorphic
from .oracle import specialize_bialternant, specialize_ssyt
from .qpoly import QPolynomial
from .search import classify_gl, enumerate_classes
from .staircase import (
    corollary_I_family,
    corollary_II_family,
    main_family,
    pairwise_sl_isomorphic,
)
from .twist import solve_twist, verify_twist

NONNEGATIVE = click.IntRange(min=0)


def _emit(obj) -> None:
    click.echo(json.dumps(obj, separators=(",", ":")))


def _parse_instance(text: str, mode: str):
    kind = SLInstance if mode == "sl" else PlethysmInstance
    try:
        return kind.from_json(json.loads(text))
    except (PlethykitError, ValueError, TypeError, RecursionError) as exc:
        raise click.UsageError(f"bad instance {text!r}: {exc}") from exc


@click.group()
def main():
    """Exact SL(2)/GL(2) isomorphism tooling for plethysms."""


@main.command()
@click.argument("instance_a")
@click.argument("instance_b")
@click.option(
    "--mode",
    type=click.Choice(["sl", "gl"]),
    default="sl",
    show_default=True,
    help="sl takes {'lambda':[...],'d':n}; gl takes {'lambda':[...],'delta':[d1,d2]}.",
)
def verify(instance_a, instance_b, mode):
    """Decide whether two instances are isomorphic."""
    a = _parse_instance(instance_a, mode)
    b = _parse_instance(instance_b, mode)
    isomorphic = sl_isomorphic(a, b) if mode == "sl" else gl_isomorphic(a, b)
    _emit({"mode": mode, "isomorphic": isomorphic})
    click.echo(f"{mode}-isomorphic: {'yes' if isomorphic else 'no'}", err=True)
    sys.exit(0 if isomorphic else 1)


@main.command()
@click.argument("kind", type=click.Choice(["main", "cor1", "cor2"]))
@click.option("--x", "xs", multiple=True, type=int, help="x entries (main only; repeatable).")
@click.option("--y", "ys", multiple=True, type=int, help="y entries (main only; repeatable).")
@click.option("--s", "s", type=int, default=None, help="family depth (cor1/cor2 only).")
@click.option("--u", required=True, type=int)
@click.option("--v", required=True, type=int)
@click.option("--z", required=True, type=int)
def family(kind, xs, ys, s, u, v, z):
    """Generate an isomorphism family and verify it pairwise."""
    try:
        if kind == "main":
            if s is not None:
                raise ValueError("--s only applies to cor1/cor2")
            instances = main_family(xs, ys, u, v, z)
        else:
            if xs or ys:
                raise ValueError("--x/--y only apply to the main family")
            if s is None:
                raise ValueError(f"{kind} needs --s")
            build = corollary_I_family if kind == "cor1" else corollary_II_family
            instances = build(s, u, v, z)
        verified = pairwise_sl_isomorphic(instances)
    except (PlethykitError, ValueError) as exc:
        raise click.UsageError(str(exc)) from exc
    _emit({"instances": [inst.to_json() for inst in instances], "verified": verified})
    click.echo(
        f"{len(instances)} instances, pairwise SL check "
        f"{'passed' if verified else 'FAILED'}",
        err=True,
    )
    sys.exit(0 if verified else 1)


@main.command()
@click.argument("instance_a")
@click.argument("instance_b")
@click.option("--bound", type=NONNEGATIVE, default=50, show_default=True, help="l, m search bound.")
def twist(instance_a, instance_b, bound):
    """Find column/delta twists making an SL pair GL-isomorphic."""
    a = _parse_instance(instance_a, "sl")
    b = _parse_instance(instance_b, "sl")
    try:
        solution = solve_twist(a, b, bound)
    except PlethykitError as exc:
        raise click.UsageError(str(exc)) from exc
    if solution is None:
        _emit({"found": False, "l": None, "m": None, "x": None, "y": None, "verified": False})
        click.echo(f"no twist with l, m <= {bound}", err=True)
        sys.exit(1)
    verified = verify_twist(a, b, solution)
    _emit(
        {
            "found": True,
            "l": solution.l,
            "m": solution.m,
            "x": solution.x,
            "y": solution.y,
            "verified": verified,
        }
    )
    click.echo(
        f"twist l={solution.l} m={solution.m} x={solution.x} y={solution.y}, "
        f"verification {'passed' if verified else 'FAILED'}",
        err=True,
    )
    sys.exit(0)


@main.command()
@click.option("--max-weight", required=True, type=NONNEGATIVE)
@click.option("--max-d", required=True, type=NONNEGATIVE)
@click.option(
    "--bound", type=NONNEGATIVE, default=50, help="ignored; kept so existing command lines still run."
)
def search(max_weight, max_d, bound):
    """Enumerate SL-equivalence classes, one JSON line per class."""
    try:
        classes = enumerate_classes(max_weight, max_d)
    except PlethykitError as exc:
        raise click.UsageError(str(exc)) from exc
    for cls in classes:
        gl = classify_gl(cls)
        _emit(
            {
                "P": cls.key.to_json(),
                "members": [inst.to_json() for inst in cls.members],
                "gl": {label: [list(pair) for pair in pairs] for label, pairs in gl.items()},
            }
        )
    click.echo(f"{len(classes)} classes", err=True)
    sys.exit(0)


@main.command("oracle-check")
@click.option("--max-weight", required=True, type=NONNEGATIVE)
@click.option("--max-d", required=True, type=NONNEGATIVE)
@click.option("--inject-fault", is_flag=True, hidden=True)
def oracle_check(max_weight, max_d, inject_fault):
    """Check bialternant, tableau, and hook-content routes against
    each other on every instance within the bounds."""
    checked = 0
    for n in range(1, max_weight + 1):
        for lam in partitions_of(n, n):
            memo = {}  # the shapes of (lam, d) recur in (lam, d + 1), never in another lam
            for d in range(len(lam) - 1, max_d + 1):
                expected = p_poly(lam, d).shifted(b_statistic(lam))
                if inject_fault:
                    coeffs = [*expected.coefficients, 0]
                    coeffs[1] += 1
                    expected = QPolynomial(coeffs)
                routes = {
                    "bialternant": specialize_bialternant(lam, d),
                    "tableau": specialize_ssyt(lam, d, memo),
                    "hook_content": expected,
                }
                values = list(routes.values())
                odd = [name for name, f in routes.items() if values.count(f) == 1]
                if odd:
                    routes = {name: f.to_json() for name, f in routes.items()}
                    _emit({"agree": False, "lambda": list(lam), "d": d, "routes": routes})
                    verb = "differs" if len(odd) == 1 else "differ"
                    click.echo(
                        f"disagreement at lambda={list(lam)} d={d}: {', '.join(odd)} {verb}", err=True
                    )
                    sys.exit(1)
                checked += 1
    _emit({"agree": True, "instances": checked})
    click.echo(f"{checked} instances agree", err=True)
    sys.exit(0)


if __name__ == "__main__":
    main()
