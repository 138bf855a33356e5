"""The package is what its users reach.

The README's Python quick start and one success and one error
invocation of each CLI command (every family kind) run under a profiler
hook.  Every function and method defined under ``src/plethykit``,
dunder methods aside, must be called at least once, with no exemption
list: a helper that only tests call belongs in ``tests/reference.py``
instead.
"""

import ast
import doctest
import sys
from pathlib import Path

import plethykit
from plethykit.hookcontent import _block_counts, p_poly
from plethykit.staircase import _instance, _member

from .test_cli import SL_A, SL_B, run
from .test_readme import README

SRC = Path(plethykit.__file__).resolve().parent

PARAMS = ("--u", "2", "--v", "1", "--z", "1")

# (argv, exit code): one success and one error per command.
INVOCATIONS = [
    (["verify", '{"lambda": [2], "delta": [4, 0]}', '{"lambda": [4], "delta": [2, 0]}', "--mode", "gl"], 0),
    (["verify", '{"lambda": [2, 2], "d": 0}', SL_B], 2),
    (["family", "main", "--x", "1", "--y", "1", *PARAMS], 0),
    (["family", "cor1", "--s", "1", *PARAMS], 0),
    (["family", "cor2", "--s", "1", *PARAMS], 0),
    (["family", "main", "--u", "0", "--v", "0", "--z", "0"], 2),
    (["twist", SL_A, SL_B], 0),
    (["twist", '{"lambda": [1], "d": 1}', '{"lambda": [2], "d": 1}'], 2),
    (["search", "--max-weight", "4", "--max-d", "4"], 0),
    (["search", "--max-weight", "-1", "--max-d", "2"], 2),
    (["oracle-check", "--max-weight", "3", "--max-d", "3"], 0),
    (["oracle-check", "--max-weight", "2", "--max-d", "-1"], 2),
]


def _defined_functions():
    """{(file, first line of the code object): qualified name} for every
    def under src/plethykit.  A decorated function's code starts at its
    first decorator."""
    out = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(path, first)] = prefix + child.name
                visit(child, f"{prefix}{child.name}.", path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), "", path)
    return out


def _reached_code():
    """(file, first line) of every code object called while the quick
    start and the invocations run."""
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno))

    codes = []
    p_poly.cache_clear()  # a cached call would not enter p_poly or its helpers
    _block_counts.cache_clear()  # nor would a remembered partition enter _block_counts
    _member.cache_clear()  # nor would a remembered member enter _member
    _instance.cache_clear()  # nor would a remembered instance enter SLInstance
    sys.setprofile(profile)
    try:
        doctest_result = doctest.testfile(str(README), module_relative=False)
        for argv, _ in INVOCATIONS:
            codes.append(run(*argv).exit_code)
    finally:
        sys.setprofile(None)
    assert doctest_result.failed == 0
    assert codes == [code for _, code in INVOCATIONS]
    return {(Path(name).resolve(), line) for name, line in reached}


def test_every_src_function_is_reached():
    defined = _defined_functions()
    reached = _reached_code()
    unreached = [
        f"{path.name}:{line} {name}"
        for (path, line), name in sorted(defined.items())
        if (path, line) not in reached
        and not (name.rsplit(".", 1)[-1].startswith("__") and name.endswith("__"))
    ]
    assert not unreached, "reached only from tests (move to tests/reference.py): " + ", ".join(unreached)
