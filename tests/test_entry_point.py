"""The ``plethykit`` command in a fresh interpreter, through the real
exit path rather than an in-process call."""

import os
import subprocess
import sys
from pathlib import Path

import plethykit

from .test_readme import CLI_EXAMPLES

ENV = {**os.environ, "PYTHONPATH": str(Path(plethykit.__file__).resolve().parent.parent)}


def _python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=ENV, timeout=60)


def test_readme_oracle_check_in_a_fresh_interpreter():
    argv = ["oracle-check", "--max-weight", "4", "--max-d", "3"]
    [stdout] = [out for args, out, _ in CLI_EXAMPLES if args == argv]
    proc = _python("-m", "plethykit.cli", *argv)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == stdout


def test_bad_instance_exits_2_in_a_fresh_interpreter():
    proc = _python("-m", "plethykit.cli", "verify", "not json", '{"lambda": [1], "d": 1}')
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_the_cli_imports_only_the_standard_library():
    # -S leaves site-packages off the path, so any third-party import fails.
    code = (
        "import sys, plethykit.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} - sys.stdlib_module_names - {'__main__', 'plethykit'}))"
    )
    proc = _python("-S", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
