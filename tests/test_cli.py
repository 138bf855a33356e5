import contextlib
import io
import json
import shlex
from typing import NamedTuple

import pytest

from plethykit import cli, search, staircase, twist
from plethykit.cli import main
from plethykit.errors import ConsistencyError, InexactDivision
from plethykit.hookcontent import p_poly, sl_key
from plethykit.oracle import specialize_bialternant, specialize_ssyt
from plethykit.partition import partitions_of
from plethykit.plethysm import SLInstance

from .reference import ONE


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def run(*argv):
    """``plethykit *argv`` in-process: its exit code and both streams."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exited:
        main(list(argv))
    return Result(exited.value.code, out.getvalue(), err.getvalue())


def lines(result):
    return [json.loads(line) for line in result.stdout.splitlines()]


SL_A = '{"lambda": [2], "d": 2}'
SL_B = '{"lambda": [1, 1], "d": 3}'


def test_verify_sl_isomorphic():
    result = run("verify", SL_A, SL_B)
    assert result.exit_code == 0
    assert lines(result) == [{"mode": "sl", "isomorphic": True}]
    assert "sl-isomorphic: yes" in result.stderr


def test_verify_sl_negative():
    result = run("verify", '{"lambda": [1], "d": 1}', '{"lambda": [2], "d": 1}')
    assert result.exit_code == 1
    assert lines(result) == [{"mode": "sl", "isomorphic": False}]


def test_verify_gl_mode():
    result = run(
        "verify",
        '{"lambda": [3], "delta": [4, 0]}',
        '{"lambda": [4], "delta": [3, 0]}',
        "--mode",
        "gl",
    )
    assert result.exit_code == 0
    assert lines(result) == [{"mode": "gl", "isomorphic": True}]
    # same pair fails at the GL level once one weight is padded
    result = run(
        "verify",
        '{"lambda": [3], "delta": [5, 1]}',
        '{"lambda": [4], "delta": [3, 0]}',
        "--mode",
        "gl",
    )
    assert result.exit_code == 1


# SL instances the parser must reject, each mapped to the instance a
# coercing parser would read it as.
COERCED_SL = {
    '{"lambda": [1], "d": 1.7}': '{"lambda": [1], "d": 1}',
    '{"lambda": [1], "d": true}': '{"lambda": [1], "d": 1}',
    '{"lambda": [1], "d": "3"}': '{"lambda": [1], "d": 3}',
    '{"lambda": [1], "d": 1, "delta": [2, 0]}': '{"lambda": [1], "d": 1}',  # stray key
}


def _bad(text, mode="sl", id=None):
    return pytest.param(text, mode, id=id or text)


@pytest.mark.parametrize(
    "bad, mode",
    [
        _bad("not json"),
        _bad('{"lambda": [2, 2], "d": 0}'),  # too many rows for the dimension
        _bad('{"lambda": [1, 2], "d": 3}'),  # not weakly decreasing
        _bad('{"d": 3}'),  # missing lambda
        _bad('{"lambda": [1], "delta": [2, 0]}'),  # delta given in sl mode
        *(_bad(text) for text in COERCED_SL),
        _bad('[{"lambda": [1], "d": 1}]'),  # not an object
        _bad("[" * 100_000 + "]" * 100_000, id="nested too deep to decode"),
        _bad('{"lambda": [1], "delta": [2.5, 0]}', "gl"),
        _bad('{"lambda": [1], "delta": "30"}', "gl"),
        _bad('{"lambda": [1], "delta": [true, 0]}', "gl"),
        _bad('{"lambda": [1], "delta": [3, 0, 0]}', "gl"),
        _bad('{"lambda": [1], "delta": 3}', "gl"),
    ],
)
def test_verify_rejects_bad_instances(bad, mode):
    good = SL_A if mode == "sl" else '{"lambda": [1], "delta": [3, 0]}'
    result = run("verify", bad, good, "--mode", mode)
    assert result.exit_code == 2
    assert result.stdout == ""


@pytest.mark.parametrize(
    "argv, key",
    [
        (("verify", '{"lambda": [1], "d": 1, "d": 2}', '{"lambda": [1], "d": 2}'), "d"),
        (
            (
                "verify",
                '{"lambda": [1], "delta": [3, 0], "delta": [2, 0]}',
                '{"lambda": [1], "delta": [2, 0]}',
                "--mode",
                "gl",
            ),
            "delta",
        ),
        (("twist", SL_A, '{"lambda": [2], "d": 3, "lambda": [1, 1]}'), "lambda"),
    ],
)
def test_repeated_keys_are_invalid_input(argv, key):
    # json.loads alone keeps a repeated key's last value, which would
    # answer a different question (each pair above is a "yes" then)
    result = run(*argv)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"repeated key {key!r}" in result.stderr


def test_verify_gl_mode_requires_delta():
    result = run("verify", SL_A, SL_B, "--mode", "gl")
    assert result.exit_code == 2


def test_family_main():
    result = run(
        "family", "main", "--x", "1", "--y", "1", "--u", "2", "--v", "1", "--z", "1"
    )
    assert result.exit_code == 0
    assert lines(result) == [
        {
            "instances": [
                {"lambda": [4, 3, 1], "d": 3},
                {"lambda": [3, 2, 1, 1], "d": 4},
                {"lambda": [4, 3, 1], "d": 3},
                {"lambda": [3, 2, 2, 1], "d": 4},
            ],
            "verified": True,
        }
    ]
    assert "4 instances" in result.stderr


def test_family_corollaries():
    result = run("family", "cor1", "--s", "0", "--u", "1", "--v", "2", "--z", "3")
    assert result.exit_code == 0
    payload = lines(result)[0]
    assert payload["verified"] is True
    assert len(payload["instances"]) == 6
    result = run("family", "cor2", "--s", "1", "--u", "2", "--v", "1", "--z", "1")
    assert result.exit_code == 0
    assert lines(result)[0]["verified"] is True


def test_family_failing_its_pairwise_check_is_a_no(monkeypatch):
    # Each family is a theorem, so only a fault fails the pairwise check;
    # the CLI must still report it as a "no" (exit 1), not as success.
    monkeypatch.setattr(cli, "pairwise_sl_isomorphic", lambda instances: False)
    result = run(*FAMILY_MAIN)
    assert result.exit_code == 1
    assert lines(result)[0]["verified"] is False
    assert result.stderr == "4 instances, pairwise SL check FAILED\n"


# family command lines that must exit 2, each mapped to what stderr
# must name: the offending option or parameter.
BAD_FAMILY = {
    ("family", "main", "--x", "1", "--u", "1", "--v", "2", "--z", "1"): "len(x)",
    ("family", "main", "--s", "1", "--u", "1", "--v", "2", "--z", "1"): "--s",
    ("family", "main", "--u", "0", "--v", "0", "--z", "0"): "heights and the slack",  # empty diagrams
    ("family", "cor1", "--u", "1", "--v", "2", "--z", "3"): "--s",  # missing
    ("family", "cor1", "--s", "0", "--x", "1", "--u", "1", "--v", "2", "--z", "3"): "--x",
    ("family", "cor1", "--s", "0", "--u", "0", "--v", "2", "--z", "3"): "u, v, z",
    ("family", "nope", "--u", "1", "--v", "2", "--z", "3"): "nope",
    ("family", "--u", "2", "--v", "1", "--z", "1", "cor1", "--s", "0"): "argument kind",  # options before the kind
}


@pytest.mark.parametrize("args", BAD_FAMILY)
def test_family_rejects_bad_parameters(args):
    result = run(*args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert BAD_FAMILY[args] in result.stderr, result.stderr


def test_twist_witness():
    result = run("twist", SL_A, SL_B)
    assert result.exit_code == 0
    assert lines(result) == [
        {"found": True, "l": 1, "m": 2, "x": 2, "y": 0, "verified": True}
    ]


def test_twist_default_bound_is_50():
    # (52, 51) is (1,) with 51 full columns at d = 1: its least twist,
    # (l, m) = (51, 0), lies one step past the default bound, which
    # answers with l = 17 instead.
    pair = ('{"lambda": [1], "d": 1}', '{"lambda": [52, 51], "d": 1}')
    assert lines(run("twist", *pair)) == [{"found": True, "l": 17, "m": 1, "x": 1, "y": 0, "verified": True}]
    assert lines(run("twist", *pair, "--bound", "51"))[0]["l"] == 51


def test_twist_bound_zero_finds_nothing():
    result = run("twist", SL_A, SL_B, "--bound", "0")
    assert result.exit_code == 1
    assert lines(result) == [
        {"found": False, "l": None, "m": None, "x": None, "y": None, "verified": False}
    ]


def test_twist_failing_its_own_check_is_an_internal_failure(monkeypatch):
    # twist.py proves every solution a GL-isomorphism, so a failed check
    # is a bug (exit 3), never "found and verified" (exit 0).
    monkeypatch.setattr(cli, "verify_twist", lambda a, b, t: False)
    result = run("twist", SL_A, SL_B)
    assert result.exit_code == 3
    [line] = lines(result)
    assert line["error"] == "ConsistencyError"
    named = ("TwistSolution(l=1, m=2, x=2, y=0)", "SLInstance(lam=(2,), d=2)", "SLInstance(lam=(1, 1), d=3)")
    assert all(part in line["message"] for part in named), line["message"]


@pytest.mark.parametrize("bad", COERCED_SL)
def test_twist_rejects_coerced_instances(bad):
    read_as = COERCED_SL[bad]
    assert run("twist", read_as, read_as).exit_code == 0
    assert run("twist", bad, read_as).exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        ("twist", SL_A, SL_B, "--bound", "-1"),
        ("search", "--max-weight", "-3", "--max-d", "2"),
        ("search", "--max-weight", "2", "--max-d", "-1"),
        ("search", "--max-weight", "2", "--max-d", "2", "--bound", "-1"),
        ("oracle-check", "--max-weight", "-1", "--max-d", "2"),
        ("oracle-check", "--max-weight", "2", "--max-d", "-1"),
    ],
)
def test_negative_parameters_are_invalid_input(args):
    result = run(*args)
    assert result.exit_code == 2
    assert result.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ("search", "--max-w", "3", "--max-d", "3"),  # abbreviated --max-weight
        ("verify", SL_A, SL_B, "--mod", "sl"),  # abbreviated --mode
        ("search", "--max-weight", "3", "--max-d", "3", "--nope"),  # unknown option
        ("--nope",),
        (),  # no command
        ("family", "main", "--x", "-1", "--y", "1", "--u", "1", "--v", "1", "--z", "1"),
    ],
    ids=["abbreviated", "abbreviated-mode", "unknown-option", "unknown-top-option", "no-command", "negative-x"],
)
def test_malformed_command_lines_are_invalid_input(args):
    # No option is read from a prefix, and a negative step is rejected,
    # not read as an option or coerced.
    result = run(*args)
    assert result.exit_code == 2
    assert result.stdout == ""


def test_twist_requires_sl_isomorphic_inputs():
    result = run("twist", '{"lambda": [1], "d": 1}', '{"lambda": [2], "d": 1}')
    assert result.exit_code == 2


def test_search_small():
    result = run("search", "--max-weight", "3", "--max-d", "3")
    assert result.exit_code == 0
    payloads = lines(result)
    assert len(payloads) == 4
    assert payloads[0] == {
        "P": ["1", "1", "1"],
        "members": [
            {"lambda": [2], "d": 1},
            {"lambda": [1], "d": 2},
            {"lambda": [1, 1], "d": 2},
        ],
        "gl": {
            "direct": [[0, 1]],
            "twistable": [[0, 2], [1, 2]],
            "obstructed": [],
            "unresolved": [],
        },
    }
    assert all(p["gl"]["unresolved"] == [] for p in payloads)
    assert "4 classes" in result.stderr


def test_search_ignores_bound():
    # Labels come from the nu2 predicate, not a twist scan, so even a
    # zero bound leaves the output unchanged.
    args = ("search", "--max-weight", "6", "--max-d", "5")
    plain, bounded = run(*args), run(*args, "--bound", "0")
    assert plain.exit_code == bounded.exit_code == 0
    assert bounded.stdout == plain.stdout
    assert all(p["gl"]["unresolved"] == [] for p in lines(plain))


def test_oracle_check():
    result = run("oracle-check", "--max-weight", "4", "--max-d", "3")
    assert result.exit_code == 0
    assert lines(result) == [{"agree": True, "instances": 33}]


def test_oracle_check_detects_injected_fault():
    result = run(
        "oracle-check", "--max-weight", "2", "--max-d", "2", "--inject-fault"
    )
    assert result.exit_code == 1
    assert lines(result) == [
        {
            "agree": False,
            "lambda": [1],
            "d": 0,
            "routes": {"bialternant": ["1"], "tableau": ["1"], "hook_content": ["1", "1"]},
        }
    ]
    assert result.stderr == "disagreement at lambda=[1] d=0: hook_content differs\n"


def test_oracle_check_names_a_faulty_tableau_route(monkeypatch):
    # A tableau route stuck at 1 first differs at s_(1)(1, q) = 1 + q.
    monkeypatch.setattr(cli, "specialize_ssyt", lambda p, d, memo=None: ONE)
    result = run("oracle-check", "--max-weight", "2", "--max-d", "2")
    assert result.exit_code == 1
    assert lines(result)[0]["routes"] == {
        "bialternant": ["1", "1"],
        "tableau": ["1"],
        "hook_content": ["1", "1"],
    }
    assert result.stderr == "disagreement at lambda=[1] d=1: tableau differs\n"


def test_oracle_check_shares_one_tableau_memo(monkeypatch):
    memos = []

    def recording(p, d, memo=None):
        memos.append(memo)
        return specialize_ssyt(p, d, memo)

    monkeypatch.setattr(cli, "specialize_ssyt", recording)
    result = run("oracle-check", "--max-weight", "6", "--max-d", "5")
    assert result.exit_code == 0
    assert len(memos) > 1
    assert all(memo is memos[0] for memo in memos)


def test_oracle_check_shares_one_denominator_memo(monkeypatch):
    # The bialternant's denominator depends only on (d+1, B): 519 calls
    # at 9/7 meet 22 of them, kept in one dict apart from the tableau memo.
    memos = []

    def recording(p, d, dens=None):
        memos.append(dens)
        return specialize_bialternant(p, d, dens)

    monkeypatch.setattr(cli, "specialize_bialternant", recording)
    result = run("oracle-check", "--max-weight", "9", "--max-d", "7")
    assert lines(result) == [{"agree": True, "instances": 519}]
    assert len(memos) == 519
    assert all(dens is memos[0] for dens in memos)
    assert len(memos[0]) == 22


def test_oracle_check_expands_p_once_per_key():
    # The hook-content route expands P from each instance's key, so
    # SL-isomorphic instances share one expansion: 519 instances, 296 keys.
    p_poly.cache_clear()
    result = run("oracle-check", "--max-weight", "9", "--max-d", "7")
    assert lines(result) == [{"agree": True, "instances": 519}]
    info = p_poly.cache_info()
    assert (info.misses, info.hits) == (296, 223)


def test_oracle_check_expands_the_keys_the_parser_builds(monkeypatch):
    # The hook-content route keys each (lambda, d) of the grid with no
    # instance, so every key it expands must be SLInstance(lambda, d).key.
    asked, expanded = [], []

    def counting_sl_key(p, d):
        asked.append((p, d))
        return sl_key(p, d)

    def recording_p_poly(key):
        expanded.append(key)
        return p_poly(key)

    monkeypatch.setattr(cli, "sl_key", counting_sl_key)
    monkeypatch.setattr(cli, "p_poly", recording_p_poly)
    result = run("oracle-check", "--max-weight", "9", "--max-d", "7")
    assert lines(result) == [{"agree": True, "instances": 519}]
    grid = [(lam, d) for n in range(1, 10) for lam in partitions_of(n, n) for d in range(len(lam) - 1, 8)]
    assert asked == grid
    assert expanded == [SLInstance(lam, d).key for lam, d in grid]


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc("injected")

    return fail


FAMILY_MAIN = ("family", "main", "--x", "1", "--y", "1", "--u", "2", "--v", "1", "--z", "1")


@pytest.mark.parametrize(
    "module, name, exc, args",
    [
        (cli, "sl_isomorphic", ConsistencyError, ("verify", SL_A, SL_B)),
        (staircase, "sl_isomorphic", ConsistencyError, FAMILY_MAIN),
        (staircase, "_member", MemoryError, FAMILY_MAIN),
        (twist, "sl_isomorphic", ConsistencyError, ("twist", SL_A, SL_B)),
        (search, "p_poly", InexactDivision, ("search", "--max-weight", "3", "--max-d", "3")),
        (cli, "specialize_bialternant", InexactDivision, ("oracle-check", "--max-weight", "2", "--max-d", "2")),
    ],
    ids=["verify", "family", "family-memory", "twist", "search", "oracle-check"],
)
def test_internal_failure_exits_3(monkeypatch, module, name, exc, args):
    # An internal failure is neither a "no" (1) nor invalid input (2).
    monkeypatch.setattr(module, name, _raise(exc))
    result = run(*args)
    assert result.exit_code == 3
    assert lines(result) == [{"error": exc.__name__, "message": "injected"}]
    # stderr names the command line and the innermost frame, here the
    # injected ``fail`` below.
    prefix = f"internal error: {exc.__name__}: injected (in plethykit {shlex.join(args)}; at {__file__}:"
    assert result.stderr.startswith(prefix), result.stderr
    assert result.stderr.endswith(" in fail)\n")
    assert result.stderr.count("\n") == 1


def test_internal_failure_names_the_process_command_line(monkeypatch):
    # With no argv, main reads sys.argv, whose first entry is the program.
    monkeypatch.setattr(cli, "sl_isomorphic", _raise(ConsistencyError))
    monkeypatch.setattr(cli.sys, "argv", ["plethykit", "verify", SL_A, SL_B])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exited:
        main()
    assert exited.value.code == 3
    prefix = f"internal error: ConsistencyError: injected (in plethykit verify {shlex.join([SL_A, SL_B])}; at "
    assert err.getvalue().startswith(prefix), err.getvalue()


def test_search_budget_is_invalid_input(monkeypatch):
    # The instance cap bounds what the user asked for, so passing it is exit 2.
    monkeypatch.setattr(search, "INSTANCE_CAP", 13)
    result = run("search", "--max-weight", "3", "--max-d", "3")
    assert result.exit_code == 2
    assert result.stdout == ""
