"""Score a module of src/plethykit by mutation: one mutant per site.

Each mutant changes one site of the module: it flips a comparison,
swaps + and - or * and //, swaps and and or, or adds 1 to an integer
constant.  It is written into a temporary copy of the repository, where
the test files mapped to the module run with ``pytest -x``; a mutant
that passes them all survives.  A mutant that runs past five times the
unmutated run plus 30 s, or past 300 s, counts as killed: it made the
code slow, if not wrong.  One line per mutant, then the score:

    python3 tools/mutants.py hookcontent.py

This runs the mapped tests once per mutant, so it stays outside tier-1.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = {
    "hookcontent.py": ["tests/test_hookcontent.py", "tests/test_search.py", "tests/test_readme.py"],
    "plethysm.py": ["tests/test_plethysm.py", "tests/test_cli.py"],
    "partition.py": ["tests/test_partition.py", "tests/test_plethysm.py"],
    "oracle.py": ["tests/test_oracle.py", "tests/test_cli.py"],
    "staircase.py": ["tests/test_staircase.py", "tests/test_hookcontent.py", "tests/test_cli.py"],
    "twist.py": ["tests/test_twist.py", "tests/test_cli.py"],
    "search.py": ["tests/test_search.py", "tests/test_cli.py"],
    "cli.py": ["tests/test_cli.py", "tests/test_readme.py", "tests/test_api_surface.py"],
}
SWAP = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.Eq: ast.NotEq,
        ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
        ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
        ast.And: ast.Or, ast.Or: ast.And}
TIMEOUT_S = 300  # the most a mutant may run; see main for the usual limit


class Mutator(ast.NodeTransformer):
    """Numbers the sites in visiting order, with what each mutant would
    change, and applies the mutant numbered ``target``."""

    def __init__(self, target=-1):
        self.target, self.sites = target, []

    def _site(self, node, was, now):
        self.sites.append(f"line {node.lineno}: {was} -> {now}")
        return len(self.sites) - 1 == self.target

    def _swap_op(self, node):
        self.generic_visit(node)
        new = SWAP.get(type(node.op))
        if new and self._site(node, type(node.op).__name__, new.__name__):
            node.op = new()
        return node

    visit_BinOp = visit_AugAssign = visit_BoolOp = _swap_op

    def visit_Compare(self, node):
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            if self._site(node, type(op).__name__, SWAP[type(op)].__name__):
                node.ops[i] = SWAP[type(op)]()
        return node

    def visit_Constant(self, node):
        if type(node.value) is int and self._site(node, node.value, node.value + 1):
            return ast.copy_location(ast.Constant(node.value + 1), node)
        return node


def passes(copy: Path, tests: list[str], timeout: float) -> bool:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        run = subprocess.run(argv, cwd=copy, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def main(module: str) -> None:
    source = (ROOT / "src" / "plethykit" / module).read_text()
    sites = Mutator()
    sites.visit(ast.parse(source))
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis"))
        target = copy / "src" / "plethykit" / module
        start = time.monotonic()
        if not passes(copy, TESTS[module], TIMEOUT_S):
            sys.exit(f"the mapped tests fail on the unmutated {module}")
        timeout = min(TIMEOUT_S, 5 * (time.monotonic() - start) + 30)
        print(f"each mutant runs at most {timeout:.0f} s", flush=True)
        killed = 0
        for i, site in enumerate(sites.sites):
            target.write_text(ast.unparse(Mutator(i).visit(ast.parse(source))))
            survived = passes(copy, TESTS[module], timeout)
            killed += not survived
            print(f"{i:3} {site}: {'SURVIVED' if survived else 'killed'}", flush=True)
    print(f"{module}: {killed}/{len(sites.sites)} mutants killed")


if __name__ == "__main__":
    main(sys.argv[1])
