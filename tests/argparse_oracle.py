"""The argparse parser that ``gspimage.cli`` used before its flag table.

``build_parser`` and ``_add_flags`` are kept as they were, as the reference
that ``cli.parse_config`` is compared against (``test_cli_parse.py``).  The
value parsers are the package's own, adapted to argparse's convention of
raising ``ArgumentTypeError`` for a message it prints as is.
"""

from __future__ import annotations

import argparse

from gspimage import cli
from gspimage import galois_model as gm


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise cli.UsageError(message)


def _argparse_type(parse):
    def convert(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    convert.__name__ = parse.__name__
    return convert


_ells = _argparse_type(cli._ells)
_cap = _argparse_type(cli._cap)


def _add_flags(p: argparse.ArgumentParser, *extra: str) -> None:
    """The flags every command reads, plus the named ``extra`` ones; argparse
    rejects any other flag."""
    p.add_argument("--ell", type=_ells, default=(), help="comma-separated primes")
    p.add_argument("--level", type=int)
    if "g" in extra:
        p.add_argument("--g", type=int)
    p.add_argument("--H", dest="h_rows", help="generator rows, e.g. [[1,0],[0,1]]")
    if "scenario-file" in extra:
        p.add_argument("--scenario-file", dest="input_path")
    p.add_argument("--format", default="table", choices=("table", "json"))
    p.add_argument("--out", dest="output_path")
    if "cap" in extra:
        p.add_argument("--cap", type=_cap, default=gm.DEFAULT_CAP)


def build_parser() -> _Parser:
    parser = _Parser(prog="gspimage", description=cli.__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_flags(sub.add_parser("m1"), "g")
    p = sub.add_parser("verify-mumford")
    _add_flags(p, "cap")
    # the mumford scenario without a scenario file; its g is fixed
    p.set_defaults(name="mumford", g=None, input_path=None)
    for name in ("stabilizer", "degrees", "scenario", "sweep"):
        p = sub.add_parser(name)
        # optional: a scenario file may name the scenario
        p.add_argument("name", nargs="?", choices=("cm", "selfproduct", "mumford"))
        _add_flags(p, "g", "scenario-file", "cap")
    return parser
