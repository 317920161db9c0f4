"""The command-line reader: ``cli.parse_config`` against the argparse parser
it replaced (``argparse_oracle.build_parser``), its help, and its messages."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gspimage import cli

from argparse_oracle import build_parser

ROOT = Path(__file__).resolve().parents[1]

COMMANDS = ("m1", "verify-mumford", "stabilizer", "degrees", "scenario", "sweep")
FLAGS = ("--ell", "--level", "--g", "--H", "--scenario-file", "--format", "--out", "--cap")
# flag: (a value it accepts, one it rejects or None when it takes any text)
VALUES = {
    "--ell": ("3,5", "3,4"),
    "--level": ("2", "two"),
    "--g": ("2", "2.0"),
    "--H": ("[[1,0]]", None),
    "--scenario-file": ("s.txt", None),
    "--format": ("json", "xml"),
    "--out": ("o.txt", None),
    "--cap": ("7", "0"),
}


def shortest_prefix(flag):
    others = [f for f in (*FLAGS, "--help") if f != flag]
    return next(
        flag[:k]
        for k in range(3, len(flag) + 1)
        if not any(f.startswith(flag[:k]) for f in others)
    )


def oracle(argv):
    """("ok", attributes), ("help", None) or ("error", message) from argparse."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return "ok", vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        assert exc.code == 0
        return "help", None
    except cli.UsageError as exc:
        return "error", str(exc)


def table(argv):
    """The same for ``cli.parse_config``."""
    try:
        return "ok", vars(cli.parse_config(argv))
    except cli.HelpRequested:
        return "help", None
    except cli.UsageError as exc:
        return "error", str(exc)


def mismatch(argv):
    """None when the two readers agree on ``argv``: both accept it with
    equal values on every attribute argparse sets, both print help, or both
    reject it and ``main`` exits 1 with a usage error.  Else a description."""
    want, got = oracle(argv), table(argv)
    if want[0] != got[0]:
        return f"{argv}: argparse {want}, table {got}"
    if want[0] == "ok":
        unset = object()
        diff = {k: (v, got[1].get(k)) for k, v in want[1].items() if got[1].get(k, unset) != v}
        return f"{argv}: {diff}" if diff else None
    if want[0] == "error":
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 1 or not err.getvalue().startswith("usage error: "):
            return f"{argv}: main exited {code} with {err.getvalue()!r}"
    return None


def grid(command):
    """Every flag in every spelling with a good and a bad value, missing
    values, an unknown flag, scenario names and repeated flags."""
    for flag in FLAGS:
        for value in VALUES[flag]:
            if value is None:
                continue
            for spelled in (flag, shortest_prefix(flag)):
                yield [command, spelled, value]
                yield [command, f"{spelled}={value}"]
        yield [command, flag]
        yield [command, flag, "--ell", "5"]
        yield [command, "--ell", "5", flag]
    yield [command, "--threads", "4"]
    yield [command, "--threads=4", "--ell", "5"]
    for name in ("cm", "selfproduct", "mumford", "custom"):
        yield [command, name]
        yield [command, "--ell", "5", name, "--format", "json"]
        yield [command, "--ell", "5", "--format", "json", name]
    yield [command, "cm", "mumford"]
    yield [command, "--ell", "3", "--ell", "5"]
    yield [command, "--ell", "4", "--ell", "5"]
    yield [command, "--format", "json", "--form", "table"]
    yield [command, "--cap", "9", "--c=10"]


TOP_LEVEL = [[], ["nope"], ["--ell", "5", "m1"], ["-5"], ["--bogus", "m1", "--ell", "5"]]


@pytest.mark.parametrize("command", COMMANDS)
def test_table_reads_the_grid_as_argparse_did(command):
    problems = [m for m in map(mismatch, grid(command)) if m]
    assert problems == []


def test_table_reads_the_top_level_as_argparse_did():
    assert [m for m in map(mismatch, TOP_LEVEL) if m] == []


TOKENS = (
    *COMMANDS, *FLAGS, *(shortest_prefix(f) for f in FLAGS),
    *(f"{f}={v}" for f, vs in VALUES.items() for v in vs if v is not None),
    *(v for vs in VALUES.values() for v in vs if v is not None),
    "cm", "selfproduct", "mumford", "custom", "5", "-1", "-x", "-", "", "a b",
    "--threads", "--threads=4", "-h", "--help", "--he", "-hh", "-hx", "-h=h", "--help=x",
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.sampled_from(COMMANDS), st.sampled_from(TOKENS)),
    st.lists(st.sampled_from(TOKENS), max_size=7),
)
def test_table_reads_token_sequences_as_argparse_did(first, rest):
    assert mismatch([first, *rest]) is None


def test_double_dash_ends_the_flags():
    """After the first "--" every token is a positional; a "--" next to the
    scenario name is dropped, and no flag takes "--" as its value."""
    assert cli.parse_config(["degrees", "--ell", "5", "--", "cm"]).name == "cm"
    assert cli.parse_config(["sweep", "cm", "--"]).name == "cm"
    assert cli.parse_config(["sweep", "--"]).name is None
    with pytest.raises(cli.UsageError, match=r"^unrecognized arguments: --ell 5$"):
        cli.parse_config(["degrees", "cm", "--", "--ell", "5"])
    with pytest.raises(cli.UsageError, match=r"^argument --out: expected one argument$"):
        cli.parse_config(["m1", "--out", "--", "x"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["m1", "--level", "two"], "argument --level: invalid int value: 'two'"),
        (
            ["m1", "--form", "xml"],
            "argument --format: invalid choice: 'xml' (choose from 'table', 'json')",
        ),
        (
            ["degrees", "custom"],
            "argument name: invalid choice: 'custom' (choose from 'cm', 'selfproduct', 'mumford')",
        ),
        (
            ["nope"],
            "argument command: invalid choice: 'nope' (choose from 'm1', 'verify-mumford', "
            "'stabilizer', 'degrees', 'scenario', 'sweep')",
        ),
        (["m1", "--ell"], "argument --ell: expected one argument"),
        (["m1", "--ell", "--g", "1"], "argument --ell: expected one argument"),
        ([], "the following arguments are required: command"),
        (["m1", "--help=x"], "argument -h/--help: ignored explicit argument 'x'"),
        (["m1", "--s=x", "--c", "3"], "unrecognized arguments: --s=x --c 3"),
    ],
)
def test_usage_error_messages(capsys, argv, message):
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"usage error: {message}\n")


def _flags(text):
    return set(re.findall(r"--[\w-]+", text))


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_lists_exactly_the_flags_of_the_command(capsys, command):
    argv = [] if command is None else [command]
    for spelled in ("--help", "-h", "--he"):
        assert cli.main([*argv, spelled]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.startswith(f"usage: gspimage {command or '<command>'}")
    if command is None:
        assert all(name in out for name in COMMANDS)
    with pytest.raises(SystemExit):
        build_parser().parse_args([*argv, "--help"])
    assert _flags(out) == _flags(capsys.readouterr().out)


def test_cli_loads_neither_argparse_nor_locale():
    code = (
        "import sys\n"
        "import gspimage.cli\n"
        "assert not {'argparse', 'locale'} & set(sys.modules), 'loaded on import'\n"
        "assert gspimage.cli.main(['m1', '--ell', '5', '--g', '1', '--H', '[[1,0],[0,1]]']) == 0\n"
        "assert not {'argparse', 'locale'} & set(sys.modules), 'loaded by main'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "m1 = 1\n"
