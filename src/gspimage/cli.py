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
from .torsion import TorsionSubgroup, parse_generator_rows, subgroup_from_generators

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


# -- scenario resolution -----------------------------------------------------


def _load_scenario_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return gm.parse_scenario_text(fh.read())


def _subgroup_H(ns, ring: ResidueRing, dim: int, rows=None) -> Optional[TorsionSubgroup]:
    """The subgroup generated by the ``--H`` rows when given, else by
    ``rows``; None when neither is."""
    if ns.h_rows is not None:
        rows = parse_generator_rows(ns.h_rows)
    return None if rows is None else subgroup_from_generators(rows, ring, ambient_dim=dim)


def _custom_scenario(ell: int, data: dict, ns):
    """A custom scenario's space, generators and subgroup H; ``--H`` replaces H."""
    for key in ("g", "generators", "H"):
        if key not in data:
            raise UsageError(f"custom scenario needs {key!r}")
    ring = ResidueRing(ell, data["level"])
    space = standard_form(data["g"], ring)
    gens = [MatrixMod(ring, rows) for rows in data["generators"]]
    return space, gens, _subgroup_H(ns, ring, space.dim, data["H"])


def _scenario_instance(name: str, ell: int, data: dict, ns):
    """The scenario's group G and subgroup H; ``--H`` replaces H."""
    if name == "custom":
        space, gens, H = _custom_scenario(ell, data, ns)
        return gm.close(space, gens, ns.cap), H
    if name == "cm":
        G, H = gm.scenario_cm(data["g"], ell, data["level"], ns.cap)
    elif name == "selfproduct":
        G, H = gm.scenario_selfproduct(ell, data["level"], ns.cap)
    else:
        raise UsageError(f"scenario {name!r} has no group model")
    return G, _subgroup_H(ns, G.ring, G.dim) or H


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
    if name == "mumford" and ns.h_rows is not None:
        raise UsageError("the mumford scenario fixes H to its Lagrangian; --H is not accepted")
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
    reports = []
    for ell in ns.ell:
        ring = ResidueRing(ell, level)
        space = standard_form(g, ring)
        if any(len(r) != 2 * g for r in rows):
            raise UsageError("--H rows must have length 2g")
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
        reports = [gm.orbit_degree_report(*_custom_scenario(ell, data, ns), ns.cap) for ell in ells]
    else:
        reports = [gm.build_degree_report(*_scenario_instance(name, ell, data, ns)) for ell in ells]
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
            G, H = _scenario_instance(name, ell, data, ns)
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
