"""Batch front-end: flags or scenario files in, tables or JSON reports out.

Exit codes: 0 success, 1 usage or IO error (including CapExceeded), 2 when a
structurally guaranteed expectation or an internal divisibility invariant
fails to hold.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from . import galois_model as gm
from . import mumford as mf
from .modring import MatrixMod, ResidueRing, is_prime
from .symplectic import m1, standard_form
from .torsion import parse_generator_rows, subgroup_from_generators

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EXPECTATION = 2


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


@dataclass
class RunConfig:
    command: str
    ell_list: tuple[int, ...] = ()
    level: Optional[int] = None  # None: the scenario file's level, else 1
    g: Optional[int] = None  # None: the scenario's own g (1 where it has none)
    input_path: Optional[str] = None
    output_path: Optional[str] = None
    format: str = "table"
    cap: int = gm.DEFAULT_CAP
    scenario: Optional[str] = None
    h_rows: Optional[str] = None

    def __post_init__(self):
        if self.cap < 1:
            raise UsageError("--cap must be >= 1")
        if self.format not in ("table", "json"):
            raise UsageError("--format must be table or json")
        for ell in self.ell_list:
            if not is_prime(ell):
                raise UsageError(f"--ell entries must be prime, got {ell}")


def _parse_ells(text: Optional[str]) -> tuple[int, ...]:
    # report order is deterministic by (scenario, ell): sorted, deduped
    if not text:
        return ()
    try:
        return tuple(sorted({int(t) for t in text.split(",") if t.strip()}))
    except ValueError:
        raise UsageError(f"bad --ell list: {text!r}") from None


def _add_flags(p: argparse.ArgumentParser, *extra: str) -> None:
    """The flags every command reads, plus the named ``extra`` ones; argparse
    rejects any other flag."""
    p.add_argument("--ell", help="comma-separated primes")
    p.add_argument("--level", type=int)
    if "g" in extra:
        p.add_argument("--g", type=int)
    p.add_argument("--H", dest="h_rows", help="generator rows, e.g. [[1,0],[0,1]]")
    if "scenario-file" in extra:
        p.add_argument("--scenario-file", dest="input_path")
    p.add_argument("--format", default="table", choices=("table", "json"))
    p.add_argument("--out", dest="output_path")
    if "cap" in extra:
        p.add_argument("--cap", type=int, default=gm.DEFAULT_CAP)


def build_parser() -> _Parser:
    parser = _Parser(prog="gspimage", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_flags(sub.add_parser("m1"), "g")
    _add_flags(sub.add_parser("verify-mumford"), "cap")
    for name in ("stabilizer", "degrees", "scenario", "sweep"):
        p = sub.add_parser(name)
        # optional: a scenario file may name the scenario
        p.add_argument("name", nargs="?", choices=("cm", "selfproduct", "mumford"))
        _add_flags(p, "g", "scenario-file", "cap")
    return parser


def parse_config(argv: Sequence[str]) -> RunConfig:
    ns = build_parser().parse_args(argv)
    return RunConfig(
        command=ns.command,
        ell_list=_parse_ells(ns.ell),
        level=ns.level,
        g=getattr(ns, "g", None),
        input_path=getattr(ns, "input_path", None),
        output_path=ns.output_path,
        format=ns.format,
        cap=getattr(ns, "cap", gm.DEFAULT_CAP),
        scenario=getattr(ns, "name", None),
        h_rows=ns.h_rows,
    )


# -- scenario resolution -----------------------------------------------------


def _load_scenario_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return gm.parse_scenario_text(fh.read())


def _custom_scenario(ell: int, data: dict, config: RunConfig):
    """A custom scenario's space, generators and subgroup H; ``--H`` replaces H."""
    for key in ("g", "generators", "H"):
        if key not in data:
            raise UsageError(f"custom scenario needs {key!r}")
    ring = ResidueRing(ell, data.get("level", 1))
    space = standard_form(data["g"], ring)
    gens = [MatrixMod(ring, rows) for rows in data["generators"]]
    rows = parse_generator_rows(config.h_rows) if config.h_rows else [tuple(r) for r in data["H"]]
    return space, gens, subgroup_from_generators(rows, ring, ambient_dim=space.dim)


def _scenario_instance(name: str, ell: int, data: dict, config: RunConfig):
    """The scenario's group G and subgroup H; ``--H`` replaces H."""
    if name == "custom":
        space, gens, H = _custom_scenario(ell, data, config)
        return gm.close(space, gens, config.cap), H
    if name == "cm":
        G, H = gm.scenario_cm(data["g"], ell, data["level"], config.cap)
    elif name == "selfproduct":
        G, H = gm.scenario_selfproduct(ell, data["level"], config.cap)
    else:
        raise UsageError(f"scenario {name!r} has no group model")
    if config.h_rows:
        rows = parse_generator_rows(config.h_rows)
        H = subgroup_from_generators(rows, G.ring, ambient_dim=G.dim)
    return G, H


# scenarios whose group has one fixed dimension 2g
_FIXED_G = {"selfproduct": 2, "mumford": 4}


def _resolve(config: RunConfig) -> tuple[str, dict]:
    """Figure out the scenario name and parameters from flags plus file."""
    data: dict = {}
    if config.input_path:
        data = _load_scenario_file(config.input_path)
    name = config.scenario or data.get("scenario")
    if name is None:
        raise UsageError("no scenario given (positional name or --scenario-file)")
    ells = config.ell_list or ((data["ell"],) if "ell" in data else ())
    if not ells:
        raise UsageError("no --ell given")
    for ell in ells:
        if not is_prime(ell):
            raise UsageError(f"ell must be prime, got {ell}")
    merged = dict(data)
    for key, flag in (("level", config.level), ("g", config.g)):
        if flag is None:
            continue
        if merged.setdefault(key, flag) != flag:
            raise UsageError(
                f"--{key} {flag} conflicts with {key} = {merged[key]} in the scenario file"
            )
    merged.setdefault("level", 1)
    fixed_g = _FIXED_G.get(name)
    if fixed_g is not None and merged.get("g", fixed_g) != fixed_g:
        raise UsageError(f"the {name} scenario lives in GSp_{2 * fixed_g}; g must be {fixed_g}")
    merged.setdefault("g", fixed_g or 1)
    if name == "mumford":
        _check_mumford_flags(config, merged["level"])
    return name, {"ells": ells, "data": merged}


def _check_mumford_flags(config: RunConfig, level: int) -> None:
    if level != 1:
        raise UsageError("the mumford scenario runs at level 1")
    if config.h_rows:
        raise UsageError("the mumford scenario fixes H to its Lagrangian; --H is not accepted")


def _degree_reports(name: str, ells, config: RunConfig, data: dict) -> list[gm.DegreeReport]:
    reports: list[gm.DegreeReport] = []
    for ell in ells:
        if name == "mumford":
            reports.extend(mf.verify_mu_s_failure([ell], cap=config.cap))
        elif name == "custom":  # from the generators; G is never closed
            space, gens, H = _custom_scenario(ell, data, config)
            reports.append(gm.orbit_degree_report(space, gens, H, config.cap))
        else:
            G, H = _scenario_instance(name, ell, data, config)
            reports.append(gm.build_degree_report(G, H))
    return reports


# -- output ------------------------------------------------------------------


def _table_line(d: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in d.items() if k != "stabilizer_elements")


def _emit(config: RunConfig, doc: dict, table_lines: list[str]) -> None:
    if config.format == "json":
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = "\n".join(table_lines) + "\n"
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8") as fh:
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


def _cmd_m1(config: RunConfig) -> tuple[dict, list[str]]:
    if not config.ell_list:
        raise UsageError("m1 needs --ell")
    if not config.h_rows:
        raise UsageError("m1 needs --H")
    rows = parse_generator_rows(config.h_rows)
    g = 1 if config.g is None else config.g
    level = 1 if config.level is None else config.level
    reports = []
    for ell in config.ell_list:
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


def _report_lines(name: str, reports) -> list[str]:
    lines = []
    for r in reports:
        line = _table_line(r.to_json_dict())
        if getattr(r, "ramified_type", False):
            line += " ramified-type"
        lines.append(line)
    if name == "mumford":
        lines.append(_MUMFORD_NOTE)
    return lines


def _cmd_degrees(config: RunConfig) -> tuple[dict, list[str]]:
    name, resolved = _resolve(config)
    reports = _degree_reports(name, resolved["ells"], config, resolved["data"])
    dicts = [r.to_json_dict() for r in reports]
    return {"reports": dicts}, _report_lines(name, reports)


def _cmd_sweep(config: RunConfig) -> tuple[dict, list[str]]:
    name, resolved = _resolve(config)
    reports = _degree_reports(name, resolved["ells"], config, resolved["data"])
    dicts = [r.to_json_dict() for r in reports]
    summary = _summary(reports)
    lines = _report_lines(name, reports)
    lines.append(
        "summary: max_ratio={max_ratio} min_ratio={min_ratio} monotone={monotone}".format(
            **summary
        )
    )
    return {"reports": dicts, "summary": summary}, lines


def _cmd_stabilizer(config: RunConfig) -> tuple[dict, list[str]]:
    name, resolved = _resolve(config)
    data = resolved["data"]
    out = []
    for ell in resolved["ells"]:
        if name == "mumford":
            stab = mf.pointwise_stabilizer_in_image(ell, cap=config.cap)
            elements = [list(M.flat()) for M in stab]
        else:
            G, H = _scenario_instance(name, ell, data, config)
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


def _cmd_verify_mumford(config: RunConfig) -> tuple[dict, list[str]]:
    if not config.ell_list:
        raise UsageError("verify-mumford needs --ell")
    _check_mumford_flags(config, 1 if config.level is None else config.level)
    reports = mf.verify_mu_s_failure(config.ell_list, cap=config.cap)
    dicts = [r.to_json_dict() for r in reports]
    return {"reports": dicts}, _report_lines("mumford", reports)


_HANDLERS = {
    "m1": _cmd_m1,
    "degrees": _cmd_degrees,
    "scenario": _cmd_degrees,
    "sweep": _cmd_sweep,
    "stabilizer": _cmd_stabilizer,
    "verify-mumford": _cmd_verify_mumford,
}


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    try:
        doc, lines = _HANDLERS[config.command](config)
        _emit(config, doc, lines)
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
        config = parse_config(list(sys.argv[1:] if argv is None else argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run(config)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
