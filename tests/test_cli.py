import json

import pytest
from click.testing import CliRunner

from plethykit import cli
from plethykit.cli import main
from plethykit.qpoly import ONE


def run(*args):
    return CliRunner().invoke(main, list(args))


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


@pytest.mark.parametrize(
    "args",
    [
        ("family", "main", "--x", "1", "--u", "1", "--v", "2", "--z", "1"),  # len mismatch
        ("family", "main", "--s", "1", "--u", "1", "--v", "2", "--z", "1"),  # stray --s
        ("family", "main", "--u", "0", "--v", "0", "--z", "0"),  # empty diagrams
        ("family", "cor1", "--u", "1", "--v", "2", "--z", "3"),  # missing --s
        ("family", "cor1", "--s", "0", "--x", "1", "--u", "1", "--v", "2", "--z", "3"),
        ("family", "cor1", "--s", "0", "--u", "0", "--v", "2", "--z", "3"),  # u < 1
        ("family", "nope", "--u", "1", "--v", "2", "--z", "3"),
    ],
)
def test_family_rejects_bad_parameters(args):
    assert run(*args).exit_code == 2


def test_twist_witness():
    result = run("twist", SL_A, SL_B)
    assert result.exit_code == 0
    assert lines(result) == [
        {"found": True, "l": 1, "m": 2, "x": 2, "y": 0, "verified": True}
    ]


def test_twist_bound_zero_finds_nothing():
    result = run("twist", SL_A, SL_B, "--bound", "0")
    assert result.exit_code == 1
    assert lines(result) == [
        {"found": False, "l": None, "m": None, "x": None, "y": None, "verified": False}
    ]


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
