"""Batch front-end: flags or scenario files in, tables or JSON reports out.

Exit codes: 0 success, 1 usage or IO error (including CapExceeded), 2 when a
structurally guaranteed expectation or an internal divisibility invariant
fails to hold.
"""

from __future__ import annotations

import json
import re
import sys
from contextlib import nullcontext
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii as _ascii
from types import SimpleNamespace
from typing import Iterator, Optional, Sequence

from . import galois_model as gm
from . import mumford as mf
from .modring import MatrixMod, ResidueRing, is_prime
from .symplectic import m1, standard_form
from .torsion import subgroup_from_generators

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EXPECTATION = 2


class UsageError(ValueError):
    pass


class HelpRequested(Exception):
    """``-h`` or ``--help``: its one argument is the usage text to print."""


# -- command line --------------------------------------------------------------
#
# One table of flags and one of commands; ``parse_config`` reads ``argv``
# against them the way the argparse parser this module used to build read it
# (tests/argparse_oracle.py keeps that parser as the reference): ``--flag
# value``, ``--flag=value`` or any unique prefix of the flag, the last of a
# repeated flag winning, and an optional scenario name anywhere among them.


def _one_of(*choices: str):
    """The value parser that accepts exactly ``choices``."""

    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(
                f"invalid choice: {text!r} (choose from {', '.join(map(repr, choices))})"
            )
        return text

    return parse


def _parsed(what: str, parse, text: str):
    """``parse(text)``; its ValueError becomes a UsageError naming ``what``."""
    try:
        return parse(text)
    except ValueError as exc:
        raise UsageError(f"argument {what}: {exc}") from None


def _ells(text: str) -> tuple[int, ...]:
    """``--ell``: comma-separated primes, sorted and deduplicated so that
    reports come in a deterministic (scenario, ell) order."""
    try:
        ells = tuple(sorted({int(t) for t in text.split(",") if t.strip()}))
    except ValueError:
        raise ValueError(f"bad list: {text!r}") from None
    for ell in ells:
        if not is_prime(ell):
            raise ValueError(f"entries must be prime, got {ell}")
    return ells


def _cap(text: str) -> int:
    """``--cap``: an integer >= 1."""
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"must be an integer >= 1, got {text!r}")
    return cap


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None


# flag: (namespace attribute, value parser, default, metavar, help); a value
# parser raises ValueError with the message that follows "argument --flag: "
_FLAGS = {
    "--ell": ("ell", _ells, (), "L[,L...]", "comma-separated primes"),
    "--level": ("level", _int, None, "N", "work over Z/l^N (default 1)"),
    "--g": ("g", _int, None, "G", "the group is GSp_2G (default 1, or the scenario's)"),
    "--H": ("h_rows", str, None, "ROWS", "generator rows of H, e.g. [[1,0],[0,1]]"),
    "--scenario-file": ("input_path", str, None, "PATH", "a key-value scenario file"),
    "--format": ("format", _one_of("table", "json"), "table", "table|json", "(default table)"),
    "--out": ("output_path", str, None, "PATH", "write the output to PATH, not stdout"),
    "--cap": ("cap", _cap, gm.DEFAULT_CAP, "N", f"enumeration cap (default {gm.DEFAULT_CAP})"),
}
_DEFAULTS = {attr: default for attr, _, default, _, _ in _FLAGS.values()}

_NAMES = ("cm", "selfproduct", "mumford")
_SCENARIO_FLAGS = tuple(_FLAGS)
# command: (the flags it reads, the names its optional positional takes, the
# scenario it runs when none is named, what it does)
_COMMANDS = {
    "m1": (
        ("--ell", "--level", "--g", "--H", "--format", "--out"), (), None,
        "the pairing invariant m1(H) of the subgroup H",
    ),
    # the mumford scenario without a scenario file; its g is fixed
    "verify-mumford": (
        ("--ell", "--level", "--H", "--format", "--out", "--cap"), (), "mumford",
        "the tensor-cube counterexample battery (degrees mumford)",
    ),
    "stabilizer": (_SCENARIO_FLAGS, _NAMES, None, "the pointwise stabilizer of H in G"),
    "degrees": (_SCENARIO_FLAGS, _NAMES, None, "the degree report of a scenario"),
    "scenario": (_SCENARIO_FLAGS, _NAMES, None, "the same as degrees"),
    "sweep": (_SCENARIO_FLAGS, _NAMES, None, "degree reports over primes, with a summary"),
}

_HELP = ("-h", "--help")
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _read(token: str, flags: Sequence[str]):
    """How ``token`` reads where the flags are ``flags`` (``_HELP`` among
    them): None for a positional, else ``(flag, value)`` with the value
    given after '=' (None without one), and flag "" for an unknown flag.  A
    long flag may be shortened to any unique prefix; a token that starts
    with '-' is still a positional when it is '-', a negative number, or
    contains a space."""
    if token in flags:
        return token, None
    if token[:1] != "-" or token in ("-", "--"):
        return None
    name, eq, value = token.partition("=")
    if eq and name in flags:
        return name, value
    if token[1] == "-":
        matches = [flag for flag in flags if flag.startswith(name)]
        if len(matches) > 1:
            raise UsageError(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif token.startswith("-h"):  # -hX: X is the value of -h
        return "-h", token[2:]
    if _NEGATIVE.match(token) or " " in token:
        return None
    return "", None


def _help(flag: str, value: Optional[str], command: Optional[str]) -> None:
    """Raise HelpRequested, or UsageError when ``-h``/``--help`` was given a
    value (``-hh`` is ``-h`` twice)."""
    if value is not None:
        rest = value if flag == "--help" else value.lstrip("h")
        if rest or not value:
            raise UsageError(f"argument -h/--help: ignored explicit argument {rest!r}")
    raise HelpRequested(_usage(command))


def _usage(command: Optional[str]) -> str:
    """The help text of ``command``, or of the program when None."""
    if command is None:
        lines = ["usage: gspimage <command> [flags]", "", __doc__.strip(), "", "commands:"]
        lines += [f"  {name:<16}{about}" for name, (*_, about) in _COMMANDS.items()]
        lines += ["", "Run gspimage <command> --help for the flags a command accepts."]
    else:
        flags, names, _, about = _COMMANDS[command]
        name = f" [{'|'.join(names)}]" if names else ""
        lines = [f"usage: gspimage {command}{name} [flags]", "", about, "", "flags:"]
        for flag in flags:
            _, _, _, metavar, text = _FLAGS[flag]
            lines.append(f"  {flag + ' ' + metavar:<26}{text}")
        lines.append(f"  {'-h, --help':<26}print this help and exit")
    return "\n".join(lines) + "\n"


def _parse_command(command: str, tokens: list[str]) -> tuple[SimpleNamespace, list[str]]:
    """The settings of ``command`` from the tokens after it, and the tokens
    it does not read.  The first "--" makes every later token a positional;
    it is dropped when it sits next to the scenario name, and is otherwise
    one of the tokens not read.  No flag takes "--" as its value."""
    flags, names, name, _ = _COMMANDS[command]
    marker = tokens.index("--") if "--" in tokens else len(tokens)
    kinds = [None if i >= marker else _read(t, (*_HELP, *flags)) for i, t in enumerate(tokens)]
    ns = SimpleNamespace(command=command, name=name, **_DEFAULTS)
    extras: list[str] = []
    name_pending = bool(names)

    def past_marker(i: int) -> int:  # past the "--" if it is at i
        return i + 1 if i == marker < len(tokens) else i

    i = 0
    while i < len(tokens):
        kind = kinds[i]
        if kind is None:  # a positional, or the "--"
            if name_pending:
                name_pending = False
                i = past_marker(i)
                if i < len(tokens):
                    ns.name = _parsed("name", _one_of(*names), tokens[i])
                    i = past_marker(i + 1)
            else:
                extras.append(tokens[i])
                i += 1
            continue
        flag, value = kind
        if not flag:  # an unknown flag
            extras.append(tokens[i])
            i += 1
            continue
        if flag in _HELP:
            _help(flag, value, command)
        i += 1
        if value is None:
            if i == len(tokens) or i == marker or kinds[i] is not None:
                raise UsageError(f"argument {flag}: expected one argument")
            value = tokens[i]
            i += 1
        attr, parse, *_ = _FLAGS[flag]
        setattr(ns, attr, _parsed(flag, parse, value))
    return ns, extras


def parse_config(argv: Sequence[str]) -> SimpleNamespace:
    """The command and its settings from ``argv``: ``command``, ``name``
    and one attribute per flag, unset flags at their defaults.  Raises
    UsageError, or HelpRequested for ``-h``/``--help``."""
    argv = list(argv)
    extras: list[str] = []
    for i, token in enumerate(argv):  # the command is the first positional
        kind = _read(token, _HELP)
        if kind is None:
            if argv[i:] == ["--"]:  # a last "--" is no command
                continue
            break
        flag, value = kind
        if flag:
            _help(flag, value, None)
        extras.append(token)
    else:
        raise UsageError("the following arguments are required: command")
    command = _parsed("command", _one_of(*_COMMANDS), argv[i])
    ns, more = _parse_command(command, argv[i + 1 :])
    extras += more
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return ns


# -- input -------------------------------------------------------------------


def _json(text: str, source: str, what: str):
    """``text`` parsed as JSON; text that is not JSON raises ValueError
    naming ``source`` and the ``what`` it should hold."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source} is not JSON {what}: {exc}") from None


def integer_rows(data, what: str, *, square: bool = False) -> list[list[int]]:
    """``data``, as parsed from JSON, checked to be a list of rows of integers
    (with ``square``, as many rows as each row is long).  Anything else
    raises ValueError naming ``what``: bool, float and string entries are
    rejected, not converted."""
    if not (
        isinstance(data, list)
        and all(isinstance(row, list) and all(type(x) is int for x in row) for row in data)
        and not (square and any(len(row) != len(data) for row in data))
    ):
        raise ValueError(f"{what} must be a {'square matrix' if square else 'list'} of integer rows")
    return data


def parse_generator_rows(text: str) -> list[tuple[int, ...]]:
    """Parse the row-per-generator text format `[[c11,..,c1d],..]` of the
    ``--H`` flag.  Text that is not JSON raises ValueError naming the flag
    and echoing the text."""
    data = _json(text, f"--H {text!r}", "integer rows")
    return [tuple(row) for row in integer_rows(data, "H")]


_SCENARIO_NAMES = ("cm", "selfproduct", "mumford", "custom")


def parse_scenario_text(text: str) -> dict:
    """Parse the key-value scenario format.

    Recognized keys: scenario, ell, level, g, generators, H, each at most
    once.  Lines starting with '#' (or trailing comments) are ignored.
    """
    out: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed scenario line: {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key in out:
            raise ValueError(f"duplicate scenario key {key!r}")
        if key == "scenario":
            if val not in _SCENARIO_NAMES:
                raise ValueError(f"unknown scenario {val!r}")
            out[key] = val
        elif key in ("ell", "level", "g"):
            try:
                out[key] = _int(val)
            except ValueError as exc:
                raise ValueError(f"scenario key {key!r}: {exc}") from None
        elif key == "H":
            out[key] = integer_rows(_json(val, f"scenario key {key!r}", "integer rows"), "H")
        elif key == "generators":
            mats = _json(val, f"scenario key {key!r}", "integer matrices")
            if not isinstance(mats, list):
                raise ValueError("generators must be a list of square integer matrices")
            out[key] = [integer_rows(m, "each generator", square=True) for m in mats]
        else:
            raise ValueError(f"unknown scenario key {key!r}")
    if "scenario" not in out:
        raise ValueError("scenario file must set 'scenario'")
    return out


# -- scenario resolution -----------------------------------------------------


def _load_scenario_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario_text(fh.read())


def _check_rows(what: str, rows, dim: int) -> None:
    """Every row of ``rows`` has length ``dim`` = 2g; else a UsageError
    naming ``what``."""
    for row in rows:
        if len(row) != dim:
            raise UsageError(f"{what} rows must have length 2g = {dim}, got {len(row)}")


def _check_g(g: int) -> None:
    """g >= 1, and a 2g x 2g form of at most ``DEFAULT_CAP`` entries.  The
    form is built as lists of Python ints before any cap is read, and only
    rows of H or generators tie g to the input, so a huge g is refused here
    rather than by running out of memory."""
    if g < 1:
        raise UsageError("g must be >= 1")
    entries = (2 * g) ** 2
    if entries > gm.DEFAULT_CAP:
        raise gm.CapExceeded(f"the form of GSp_{2 * g} has {entries} entries, cap={gm.DEFAULT_CAP}")


def _custom_scenario(ell: int, data: dict):
    """A custom scenario's space, generators and subgroup H."""
    ring = ResidueRing(ell, data["level"])
    space = standard_form(data["g"], ring)
    gens = [MatrixMod(ring, rows) for rows in data["generators"]]
    return space, gens, subgroup_from_generators(data["H"], ring, ambient_dim=space.dim)


def _scenario_instance(name: str, ell: int, data: dict, cap: int):
    """The group G and subgroup H of a cm or selfproduct scenario;
    ``data["H"]``, when set, replaces the scenario's H."""
    if name == "cm":
        G, H = gm.scenario_cm(data["g"], ell, data["level"], cap)
    else:
        G, H = gm.scenario_selfproduct(ell, data["level"], cap)
    if "H" in data:
        H = subgroup_from_generators(data["H"], G.ring, ambient_dim=G.dim)
    return G, H


# scenarios whose group has one fixed dimension 2g
_FIXED_G = {"selfproduct": 2, "mumford": 4}


def _resolve(ns) -> tuple[str, tuple[int, ...], dict]:
    """The scenario name, primes and parameters, from flags plus file."""
    data = _load_scenario_file(ns.input_path) if ns.input_path else {}
    name = ns.name or data.get("scenario")
    if name is None:
        raise UsageError("no scenario given (positional name or --scenario-file)")
    ells = ns.ell  # checked when parsed; it overrides the file's ell
    if not ells and "ell" in data:
        ells = (data["ell"],)
        if not is_prime(data["ell"]):
            raise UsageError(f"ell must be prime, got {data['ell']}")
    if not ells:
        raise UsageError("no --ell given")
    if name == "mumford" and 2 in ells:
        raise UsageError("ell must be odd")
    for key, flag in (("level", ns.level), ("g", ns.g)):
        if flag is not None and data.setdefault(key, flag) != flag:
            raise UsageError(
                f"--{key} {flag} conflicts with {key} = {data[key]} in the scenario file"
            )
    data.setdefault("level", 1)
    fixed_g = _FIXED_G.get(name)
    if fixed_g is not None and data.get("g", fixed_g) != fixed_g:
        raise UsageError(f"the {name} scenario lives in GSp_{2 * fixed_g}; g must be {fixed_g}")
    data.setdefault("g", fixed_g or 1)
    if name == "mumford" and data["level"] != 1:
        raise UsageError("the mumford scenario runs at level 1")
    for what, given in (("--H", ns.h_rows is not None), ("scenario key 'H'", "H" in data)):
        if name == "mumford" and given:
            raise UsageError(f"the mumford scenario fixes H to its Lagrangian; {what} is not accepted")
    if name != "custom" and "generators" in data:
        raise UsageError(
            f"the {name} scenario builds its own G; scenario key 'generators' is not accepted"
        )
    dim = 2 * data["g"]
    if name == "custom":
        for key in ("generators", "H"):
            if key not in data:
                raise UsageError(f"custom scenario needs {key!r}")
    if "H" in data:
        _check_rows("scenario key 'H'", data["H"], dim)
    if name == "custom":
        for rows in data["generators"]:
            if len(rows) != dim:
                raise UsageError(
                    f"scenario key 'generators' needs 2g x 2g = {dim}x{dim} matrices, "
                    f"got {len(rows)}x{len(rows)}"
                )
    # from here data["H"], when set, is the H to use: --H replaces the file's
    if ns.h_rows is not None:
        data["H"] = parse_generator_rows(ns.h_rows)
        _check_rows("--H", data["H"], dim)
    _check_g(data["g"])
    return name, ells, data


# -- output ------------------------------------------------------------------


def _table_line(d: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in d.items() if k != "stabilizer_elements")


@cache
def _row_template(width: int, pad: str) -> str:
    """One row of ``width`` ``%d`` fields in ``_int_rows``' layout, built
    once per (width, pad)."""
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(["%d"] * width) + pad + "]" if width else "[]"


def _int_rows(flat: list, count: int, width: int, pad: str) -> str:
    """``count`` rows of ``width`` ints, given in row-major order as
    ``flat``, as the items of a JSON list indented by ``pad`` (a newline and
    spaces) in ``json.dumps(indent=2)``'s layout: one row template
    (``_row_template``), repeated and filled by one ``%``.  ``%d`` prints a
    plain int as ``int.__repr__`` does."""
    return ("," + pad).join([_row_template(width, pad)] * count) % tuple(flat)


def _write_json(doc, write) -> None:
    """Write ``json.dumps(doc, indent=2) + "\\n"`` through ``write``.

    Plain str, int, True, False and None, dicts with str keys and lists
    are formatted here, a list of equal-length rows of plain ints by
    ``_int_rows``; any other value goes to ``json.dumps`` (indented to its
    place), so that it prints, or fails, as it does there.  An iterator is
    taken for blocks of integer rows (2-D arrays) and printed as the one
    list of all their rows, each block written as soon as it is formatted,
    so that the rows are never held whole.  The rest is written at the end.
    """
    parts: list[str] = []

    def put(o, pad: str) -> None:
        t = type(o)
        if t is str:
            parts.append(_ascii(o))
        elif t is int:
            parts.append(int.__repr__(o))
        elif o is None or o is True or o is False:
            parts.append("null" if o is None else "true" if o else "false")
        elif t is dict and all(type(k) is str for k in o):
            inner, sep = pad + "  ", "{"
            for k, v in o.items():
                parts.append(sep + inner + _ascii(k) + ": ")
                put(v, inner)
                sep = ","
            parts.append(pad + "}" if o else "{}")
        elif t is list:
            inner = pad + "  "
            width = len(o[0]) if o and type(o[0]) is list else -1
            if width >= 0 and all(type(r) is list and len(r) == width for r in o):
                flat = list(chain.from_iterable(o))
                if set(map(type, flat)) <= {int}:  # a bool is no int here
                    parts.append("[" + inner + _int_rows(flat, len(o), width, inner) + pad + "]")
                    return
            sep = "["
            for v in o:
                parts.append(sep + inner)
                put(v, inner)
                sep = ","
            parts.append(pad + "]" if o else "[]")
        elif isinstance(o, Iterator):
            inner, sep = pad + "  ", "["
            for block in o:
                if len(block):
                    text = _int_rows(block.reshape(-1).tolist(), *block.shape, inner)
                    parts.append(sep + inner + text)
                    write("".join(parts))
                    parts.clear()
                    sep = ","
            parts.append(pad + "]" if sep == "," else "[]")
        else:  # json escapes a newline inside a string, so each "\n" is layout
            parts.append(json.dumps(o, indent=2).replace("\n", pad))

    put(doc, "\n")
    parts.append("\n")
    write("".join(parts))


def _emit(ns, doc: dict, table_lines: list[str]) -> None:
    """Write ``doc`` as ``json.dumps(doc, indent=2)`` would (``_write_json``,
    streaming any blocks of rows in it), or ``table_lines``, to stdout or to
    the ``--out`` file."""
    sink = open(ns.output_path, "w", encoding="utf-8") if ns.output_path else nullcontext(sys.stdout)
    with sink as fh:
        if ns.format == "json":
            _write_json(doc, fh.write)
        else:
            fh.write("\n".join(table_lines) + "\n")


def _summary(reports: Sequence[gm.DegreeReport]) -> dict:
    ratios = [r.ratio for r in reports]
    monotone = all(a < b for a, b in zip(ratios, ratios[1:]))
    return {
        "max_ratio": str(max(ratios)),
        "min_ratio": str(min(ratios)),
        "monotone": monotone,
    }


# -- command handlers ---------------------------------------------------------


def _cmd_m1(ns) -> tuple[dict, list[str]]:
    if not ns.ell:
        raise UsageError("m1 needs --ell")
    if ns.h_rows is None:
        raise UsageError("m1 needs --H")
    rows = parse_generator_rows(ns.h_rows)
    g = 1 if ns.g is None else ns.g
    level = 1 if ns.level is None else ns.level
    _check_rows("--H", rows, 2 * g)
    _check_g(g)
    reports = []
    for ell in ns.ell:
        ring = ResidueRing(ell, level)
        space = standard_form(g, ring)
        H = subgroup_from_generators(rows, ring, ambient_dim=2 * g)
        reports.append({"ell": ell, "level": level, "m1": m1(H, space)})
    doc = {"reports": reports}
    if len(reports) == 1:
        lines = [f"m1 = {reports[0]['m1']}"]
    else:
        lines = [f"ell={r['ell']}: m1 = {r['m1']}" for r in reports]
    return doc, lines


_MUMFORD_NOTE = "note: stabilizer within the enumerated image"


def _cmd_reports(ns) -> tuple[dict, list[str]]:
    """The degree reports of ``degrees``, ``scenario``, ``verify-mumford``
    and ``sweep``; ``sweep`` adds a summary."""
    name, ells, data = _resolve(ns)
    if name == "mumford":
        reports = mf.verify_mu_s_failure(ells, cap=ns.cap)
    elif name == "custom":  # from the generators; G is never closed
        reports = [gm.orbit_degree_report(*_custom_scenario(ell, data), ns.cap) for ell in ells]
    else:
        reports = [
            gm.build_degree_report(*_scenario_instance(name, ell, data, ns.cap)) for ell in ells
        ]
    doc = {"reports": [r.to_json_dict() for r in reports]}
    lines = [
        _table_line(d) + (" ramified-type" if r.ramified_type else "")
        for r, d in zip(reports, doc["reports"])
    ]
    if name == "mumford":
        lines.append(_MUMFORD_NOTE)
    if ns.command == "sweep":
        summary = doc["summary"] = _summary(reports)
        lines.append(
            "summary: max_ratio={max_ratio} min_ratio={min_ratio} monotone={monotone}".format(
                **summary
            )
        )
    return doc, lines


def _cmd_stabilizer(ns) -> tuple[dict, list[str]]:
    """The pointwise stabilizer T of H in G, one report per prime.  Past
    the tensor-cube solver's short list, T's elements are ``T.blocks()``,
    decoded from its row ids one block at a time as ``_emit`` writes them,
    and its size is ``T.order``: no group is joined, and the elements are
    never held as one list or one string."""
    name, ells, data = _resolve(ns)
    out = []
    for ell in ells:
        if name == "mumford":
            stab = mf.pointwise_stabilizer_in_image(ell, cap=ns.cap)
            size, elements = len(stab), [list(M.flat()) for M in stab]
        else:  # one row-id scan, on a builder's group or a closure
            if name == "custom":
                space, gens, H = _custom_scenario(ell, data)
                G = gm.close(space, gens, ns.cap)
            else:
                G, H = _scenario_instance(name, ell, data, ns.cap)
            T = gm.stabilizer(G, H)
            size, elements = T.order, T.blocks()
        out.append(
            {
                "ell": ell,
                "level": data["level"],
                "stabilizer_size": size,
                "stabilizer_elements": elements,
            }
        )
    lines = [_table_line(d) for d in out]
    if name == "mumford":
        lines.append(_MUMFORD_NOTE)
    return {"reports": out}, lines


_HANDLERS = {
    "m1": _cmd_m1,
    "stabilizer": _cmd_stabilizer,
    **dict.fromkeys(("degrees", "scenario", "sweep", "verify-mumford"), _cmd_reports),
}


def run(ns: SimpleNamespace) -> int:
    """Execute one command; returns the process exit status."""
    try:
        doc, lines = _HANDLERS[ns.command](ns)
        _emit(ns, doc, lines)
        return EXIT_OK
    except (mf.ExpectationFailed, AssertionError) as exc:
        # AssertionError: a divisibility invariant of the degree bookkeeping
        print(f"expectation failed: {exc}", file=sys.stderr)
        return EXIT_EXPECTATION
    except (gm.CapExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        ns = parse_config(sys.argv[1:] if argv is None else argv)
    except HelpRequested as exc:
        sys.stdout.write(exc.args[0])
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run(ns)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
