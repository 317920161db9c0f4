"""Batch front-end: flags or scenario files in, tables or JSON reports out.

Exit codes: 0 success, 1 usage or IO error (including CapExceeded), 2 when a
structurally guaranteed expectation or an internal divisibility invariant
fails to hold.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


def _ells(text: str) -> tuple[int, ...]:
    """``--ell``: comma-separated primes, sorted and deduplicated so that
    reports come in a deterministic (scenario, ell) order."""
    try:
        ells = tuple(sorted({int(t) for t in text.split(",") if t.strip()}))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad list: {text!r}") from None
    for ell in ells:
        if not is_prime(ell):
            raise argparse.ArgumentTypeError(f"entries must be prime, got {ell}")
    return ells


def _cap(text: str) -> int:
    """``--cap``: an integer >= 1."""
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return cap


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
    parser = _Parser(prog="gspimage", description=__doc__)
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


def parse_config(argv: Sequence[str]) -> argparse.Namespace:
    return build_parser().parse_args(argv)


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
            out[key] = int(val)
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


def _custom_scenario(ell: int, data: dict):
    """A custom scenario's space, generators and subgroup H."""
    ring = ResidueRing(ell, data["level"])
    space = standard_form(data["g"], ring)
    gens = [MatrixMod(ring, rows) for rows in data["generators"]]
    return space, gens, subgroup_from_generators(data["H"], ring, ambient_dim=space.dim)


def _scenario_instance(name: str, ell: int, data: dict, cap: int):
    """The group G and subgroup H of a custom, cm or selfproduct scenario;
    ``data["H"]``, when set, replaces a named scenario's H."""
    if name == "custom":
        space, gens, H = _custom_scenario(ell, data)
        return gm.close(space, gens, cap), H
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
    return name, ells, data


# -- output ------------------------------------------------------------------


def _table_line(d: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in d.items() if k != "stabilizer_elements")


def _emit(ns, doc: dict, table_lines: list[str]) -> None:
    if ns.format == "json":
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = "\n".join(table_lines) + "\n"
    if ns.output_path:
        with open(ns.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    name, ells, data = _resolve(ns)
    out = []
    for ell in ells:
        if name == "mumford":
            stab = mf.pointwise_stabilizer_in_image(ell, cap=ns.cap)
            elements = [list(M.flat()) for M in stab]
        else:
            G, H = _scenario_instance(name, ell, data, ns.cap)
            elements = gm.stabilizer(G, H).array.tolist()
        out.append(
            {
                "ell": ell,
                "level": data["level"],
                "stabilizer_size": len(elements),
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


def run(ns: argparse.Namespace) -> int:
    """Execute one command; returns the process exit status."""
    try:
        doc, lines = _HANDLERS[ns.command](ns)
        _emit(ns, doc, lines)
        return EXIT_OK
    except (mf.ExpectationFailed, AssertionError) as exc:
        # AssertionError: a divisibility invariant of the degree bookkeeping
        print(f"expectation failed: {exc}", file=sys.stderr)
        return EXIT_EXPECTATION
    except (UsageError, gm.CapExceeded, gm.ChainNotIncreasing, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        ns = parse_config(list(sys.argv[1:] if argv is None else argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run(ns)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
