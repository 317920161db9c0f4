"""The four workloads: their jobs, seeded inputs and output checks.

Each workload puts most of its time in one layer, so that a change to that
layer moves one workload and leaves the others alone:

* ``closure``: breadth-first closure (``galois_model.close``) of custom
  scenarios, for matrix sizes 4 and 2; pins the element order of a closed
  group.
* ``tensor-cube``: the tensor-cube stabilizer solver
  (``mumford.pointwise_stabilizer_in_image``); no closure runs.
* ``materialized``: groups built directly (``gl2_group``, scenario builders)
  and the numpy batch kernels over them, plus one in-process library job.
* ``deep-level``: a 3-adic group at level 20, past the int64 guard of the
  batch kernels, so the pure-Python ``symplectic.multiplier`` and
  ``MatrixMod`` products do the work.

The seed picks the ``H`` rows of the custom-scenario and ``m1`` jobs from a
family whose members cost the same and have the same degree report.  The
benchmark writes the scenario files itself; the program sees only those
files and its argv.  Every check compares against a value derived here in
closed form or by an independent oracle, never against the program's own
answer.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"

STABILIZER_KEYS = ["ell", "level", "stabilizer_size", "stabilizer_elements"]

# The primitive vectors of (Z/27)^2 that the seed picks H = <v> from for the
# GL2(Z/27) stabilizer job.  Their stabilizer lists, in printed order, are
# pinned in pins.json.
GL2_27_FAMILY = ((1, 0), (0, 1), (1, 1), (2, 5), (3, 1), (7, 9), (13, 26), (1, 24))

DEEP_LEVEL = 20
DEEP_MOD = 3 ** DEEP_LEVEL


@dataclass
class Job:
    name: str
    spec: dict  # {"kind": "cli", "argv": [...]} or {"kind": "library"}
    check: Callable[[str], list]  # stdout -> list of problems


# -- arithmetic the checks and inputs rest on, independent of the program ----


def phi(ell: int, n: int) -> int:
    """|(Z/l^n)^*|; 1 at n = 0."""
    return 1 if n == 0 else (ell - 1) * ell ** (n - 1)


def gl2_order(ell: int, n: int = 1) -> int:
    return ell ** (4 * (n - 1)) * (ell * ell - 1) * (ell * ell - ell)


def standard_psi(g: int) -> list:
    """The antidiagonal form: +1 in rows 1..g, -1 in rows g+1..2g."""
    n = 2 * g
    return [[(1 if i < g else -1) if j == n - 1 - i else 0 for j in range(n)] for i in range(n)]


def pair(v, w, psi) -> int:
    return sum(v[i] * psi[i][j] * w[j] for i in range(len(v)) for j in range(len(w)))


def transvection(v, psi, mod: int) -> list:
    """x -> x + psi(x, v) v, a symplectic matrix over any Z/m."""
    n = len(v)
    w = [sum(psi[i][j] * v[j] for j in range(n)) for i in range(n)]
    return [[((1 if i == j else 0) + v[i] * w[j]) % mod for j in range(n)] for i in range(n)]


def matmul(a, b, mod: int) -> list:
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) % mod for j in range(n)] for i in range(n)]


def apply(a, v, mod: int) -> list:
    return [sum(a[i][k] * v[k] for k in range(len(v))) % mod for i in range(len(a))]


def random_word(gens, length: int, mod: int, rng: random.Random) -> list:
    n = len(gens[0])
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(length):
        out = matmul(out, rng.choice(gens), mod)
    return out


def expected_report(ell, level, g_order, t_order, lam_g, m1, lam_t=1) -> dict:
    """A degree report from closed-form group data.

    ``lam_g(n)`` is the size of the multiplier image of G mod l^n and
    ``lam_t`` that of the stabilizer T at full level.
    """
    inter = lam_g(level) // lam_t
    at_m1 = lam_g(m1)
    witness = next((n for n in range(level + 1) if lam_g(n) == inter), None)
    return {
        "ell": ell,
        "level": level,
        "m1": m1,
        "deg_KH": g_order // t_order,
        "deg_cyclo_intersection": inter,
        "deg_cyclo_at_m1": at_m1,
        "ratio": str(Fraction(inter, at_m1)),
        "mu_w_witness_n": witness,
    }


def elements_digest(elements) -> str:
    return hashlib.sha256(json.dumps(elements, separators=(",", ":")).encode()).hexdigest()


# -- checks ------------------------------------------------------------------


def _load_reports(stdout: str, keys) -> tuple[list, list]:
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [], [f"output is not JSON: {exc}"]
    if json.dumps(doc, indent=2) + "\n" != stdout:
        return [], ["JSON output does not round-trip byte for byte"]
    problems = [f"report keys {list(r)} != {keys}" for r in doc["reports"] if list(r) != keys]
    return doc["reports"], problems


def check_reports(expected: list, summary: dict | None = None) -> Callable[[str], list]:
    """Reports must equal ``expected`` field for field, in order."""
    keys = list(expected[0])

    def check(stdout: str) -> list:
        reports, problems = _load_reports(stdout, keys)
        if problems:
            return problems
        if reports != expected:
            problems.append(f"reports {reports} != expected {expected}")
        if summary is not None and json.loads(stdout).get("summary") != summary:
            problems.append(f"summary {json.loads(stdout).get('summary')} != {summary}")
        return problems

    return check


def sweep_summary(reports: list) -> dict:
    ratios = [Fraction(r["ratio"]) for r in reports]
    return {
        "max_ratio": str(max(ratios)),
        "min_ratio": str(min(ratios)),
        "monotone": all(a < b for a, b in zip(ratios, ratios[1:])),
    }


def tensor_cube_stabilizer(ell: int) -> list:
    """{I, diag(1,-1,-1,1,-1,1,1,-1)} mod l, as sorted flat lists."""
    flip = (1, -1, -1, 1, -1, 1, 1, -1)
    mats = []
    for diag in ((1,) * 8, flip):
        mats.append([diag[i] % ell if i == j else 0 for i in range(8) for j in range(8)])
    return sorted(mats)


def mumford_report(ell: int) -> dict:
    n = gl2_order(ell)
    image = (n // (ell - 1)) ** 2 * n
    # the multiplier of rho(a,b,c) is det(a)det(b)det(c): every unit occurs;
    # the stabilizer's multipliers are {1, -1}
    report = expected_report(ell, 1, image, 2, lambda k: phi(ell, k), 0, lam_t=2)
    report.update(
        stabilizer_size=2,
        stabilizer_elements=tensor_cube_stabilizer(ell),
        image_order=image,
    )
    return report


def check_gl2_stabilizer(v, pinned: str, oracle_order: int) -> Callable[[str], list]:
    """The 486 elements of GL2(Z/27) fixing v, in the group's element order.

    The ``level`` field is not checked: with a scenario file it echoes the
    ``--level`` default rather than the file's level.
    """
    mod = 27
    size = gl2_order(3, 3) // (mod * mod - 9 * 9)  # |GL2| / #primitive vectors

    def check(stdout: str) -> list:
        reports, problems = _load_reports(stdout, STABILIZER_KEYS)
        if problems:
            return problems
        (r,) = reports
        elems = r["stabilizer_elements"]
        if r["ell"] != 3 or r["stabilizer_size"] != size or len(elems) != size:
            problems.append(f"ell {r['ell']}, size {r['stabilizer_size']}/{len(elems)} != 3, {size}")
        if size != oracle_order:
            problems.append(f"FullGL2Group.stabilizer_order gives {oracle_order}, not {size}")
        if len({tuple(e) for e in elems}) != len(elems):
            problems.append("duplicate stabilizer elements")
        for a, b, c, d in elems:
            if (a * d - b * c) % 3 == 0 or apply([[a, b], [c, d]], v, mod) != list(v):
                problems.append(f"{[a, b, c, d]} is not invertible or does not fix {v}")
                break
        if elements_digest(elems) != pinned:
            problems.append("stabilizer elements differ from the pinned list or its order")
        return problems

    return check


def check_text(expected: str) -> Callable[[str], list]:
    return lambda stdout: [] if stdout == expected else [f"output {stdout!r} != {expected!r}"]


# -- oracles from the package's reference implementations ---------------------


def _m1_exhaustive(rows, ell, level, psi) -> int:
    from gspimage.modring import MatrixMod, ResidueRing
    from gspimage.symplectic import SymplecticSpace, m1_exhaustive
    from gspimage.torsion import subgroup_from_generators

    ring = ResidueRing(ell, level)
    space = SymplecticSpace(len(psi) // 2, MatrixMod(ring, psi), ring)
    return m1_exhaustive(subgroup_from_generators(rows, ring, ambient_dim=len(psi)), space)


def _oracle(name: str, got: int, want: int) -> None:
    if got != want:
        raise AssertionError(f"{name} oracle gives {got}, closed form gives {want}")


# -- workloads ------------------------------------------------------------------


def _scenario(path: Path, ell, level, g, gens, rows) -> None:
    path.write_text(
        "scenario = custom\n"
        f"ell = {ell}\nlevel = {level}\ng = {g}\n"
        f"generators = {json.dumps(gens)}\nH = {json.dumps(rows)}\n",
        encoding="utf-8",
    )


def closure(seed: int, workdir: Path, rel: str) -> list[Job]:
    rng = random.Random(f"closure-{seed}")
    # GSp4(F_3): two transvections and diag(2,2,1,1); order 2 * |Sp4(F_3)|
    psi = standard_psi(2)
    gens = [transvection((0, 1, 1, 0), psi, 3), transvection((1, 1, 1, 1), psi, 3),
            [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]]
    # H: a random hyperbolic pair.  Its pointwise stabilizer is Sp2(F_3) on
    # the orthogonal plane (order 24), and m1 = 1.
    while True:
        v, w = ([rng.randrange(3) for _ in range(4)] for _ in range(2))
        if pair(v, w, psi) % 3:
            break
    gsp4 = workdir / "gsp4_f3.txt"
    _scenario(gsp4, 3, 1, 2, gens, [v, w])
    _oracle("m1_exhaustive", _m1_exhaustive([v, w], 3, 1, psi), 1)
    gsp4_report = expected_report(3, 1, 2 * 3**4 * 8 * 80, 24, lambda n: phi(3, n), 1)

    # GL2(Z/27) from the README's generators; H = <v>, v picked by the seed
    v27 = GL2_27_FAMILY[rng.randrange(len(GL2_27_FAMILY))]
    gl2 = workdir / "gl2_27.txt"
    _scenario(gl2, 3, 3, 1, [[[1, 1], [0, 1]], [[1, 0], [1, 1]], [[2, 0], [0, 1]]], [list(v27)])
    from gspimage.galois_model import FullGL2Group
    from gspimage.modring import ResidueRing
    from gspimage.torsion import subgroup_from_generators

    ring = ResidueRing(3, 3)
    oracle_order = FullGL2Group(ring).stabilizer_order(subgroup_from_generators([v27], ring))
    pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))["gl2_27"]
    return [
        Job("degrees-gsp4-f3", {"kind": "cli", "argv": ["degrees", "--scenario-file", f"{rel}/{gsp4.name}", "--format", "json"]},
            check_reports([gsp4_report])),
        Job("stabilizer-gl2-27", {"kind": "cli", "argv": ["stabilizer", "--scenario-file", f"{rel}/{gl2.name}", "--format", "json"]},
            check_gl2_stabilizer(v27, pins[",".join(map(str, v27))], oracle_order)),
    ]


TENSOR_CUBE_ELLS = (3, 5, 7, 11, 13)


def tensor_cube(seed: int, workdir: Path, rel: str) -> list[Job]:
    # The Lagrangian is totally isotropic, so m1 = 0: confirm on the tensor
    # form, and by exhaustive scan where H is small.
    psi = standard_psi(1)
    tform = [[psi[i >> 2][j >> 2] * psi[(i >> 1) & 1][(j >> 1) & 1] * psi[i & 1][j & 1]
              for j in range(8)] for i in range(8)]
    lagrangian = [[int(k == i) for k in range(8)] for i in (0, 3, 5, 6)]
    if any(pair(a, b, tform) for a in lagrangian for b in lagrangian):
        raise AssertionError("the Lagrangian is not isotropic for the tensor form")
    for ell in (3, 5, 7):
        _oracle("m1_exhaustive", _m1_exhaustive(lagrangian, ell, 1, [[x % ell for x in r] for r in tform]), 0)
    reports = [mumford_report(ell) for ell in TENSOR_CUBE_ELLS]
    stab = {"ell": 13, "level": 1, "stabilizer_size": 2, "stabilizer_elements": tensor_cube_stabilizer(13)}
    ells = ",".join(map(str, TENSOR_CUBE_ELLS))
    return [
        Job("sweep-mumford", {"kind": "cli", "argv": ["sweep", "mumford", "--ell", ells, "--format", "json"]},
            check_reports(reports, sweep_summary(reports))),
        Job("stabilizer-mumford-13", {"kind": "cli", "argv": ["stabilizer", "mumford", "--ell", "13", "--format", "json"]},
            check_reports([stab])),
    ]


def materialized(seed: int, workdir: Path, rel: str) -> list[Job]:
    # selfproduct: G = {diag(g, g)} ~ GL2(Z/l^n), H = <(1,0,0,1)> is fixed by
    # the identity only; cm: G = diagonal similitudes, order phi(l^n)^3 for
    # g = 2, H = <(1,1,1,1)> likewise.  Both multiplier images are all units,
    # and a cyclic H has m1 = 0.
    def family(ells, level, g_order, psi, vec):
        out = []
        for ell in ells:
            _oracle("m1_exhaustive", _m1_exhaustive([vec], ell, level, psi), 0)
            out.append(expected_report(ell, level, g_order(ell), 1, lambda n, e=ell: phi(e, n), 0))
        return out

    block = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    selfp = family((3, 5), 2, lambda e: gl2_order(e, 2), block, (1, 0, 0, 1))
    cm3 = family((3, 5), 3, lambda e: phi(e, 3) ** 3, standard_psi(2), (1, 1, 1, 1))
    cm1 = family((5, 13, 17, 29), 1, lambda e: phi(e, 1) ** 3, standard_psi(2), (1, 1, 1, 1))
    orders = {"gl2": gl2_order(3, 3), "level2": gl2_order(3, 2), "level1": gl2_order(3, 1),
              # I mod 3, and first column e1 mod 9: 3^8 / 3^2
              "filtered": gl2_order(3, 3) // gl2_order(3, 1) // 9}
    return [
        Job("sweep-selfproduct", {"kind": "cli", "argv": ["sweep", "selfproduct", "--ell", "3,5", "--level", "2", "--format", "json"]},
            check_reports(selfp, sweep_summary(selfp))),
        Job("sweep-cm-level3", {"kind": "cli", "argv": ["sweep", "cm", "--g", "2", "--ell", "3,5", "--level", "3", "--format", "json"]},
            check_reports(cm3, sweep_summary(cm3))),
        Job("sweep-cm-level1", {"kind": "cli", "argv": ["sweep", "cm", "--g", "2", "--ell", "5,13,17,29", "--format", "json"]},
            check_reports(cm1, sweep_summary(cm1))),
        Job("library-gl2-27", {"kind": "library"}, check_text(json.dumps(orders) + "\n")),
    ]


def deep_level(seed: int, workdir: Path, rel: str) -> list[Job]:
    rng = random.Random(f"deep-level-{seed}")
    mod, t = DEEP_MOD, 3 ** 16
    # <[[1,3^16],[0,1]], [[1,0],[3^16,1]]> ~ (Z/3^4)^2, extended by the
    # signed permutations: order 8 * 3^8
    gens = [[[1, t], [0, 1]], [[1, 0], [t, 1]], [[mod - 1, 0], [0, 1]], [[0, 1], [mod - 1, 0]]]
    # H = M <e1, 3^12 e2> for a random M in G.  The stabilizer is conjugate
    # to {[[1, 3^16 a], [0, 1]]} (order 81); det M = +-1 keeps m1 = 8.
    M = random_word(gens, 16, mod, rng)
    rows = [apply(M, [1, 0], mod), apply(M, [0, 3 ** 12], mod)]
    deep = workdir / "deep_level20.txt"
    _scenario(deep, 3, DEEP_LEVEL, 1, gens, rows)
    report = expected_report(3, DEEP_LEVEL, 8 * 3**8, 81, lambda n: 2 if n else 1, 8)
    # m1: H0 = <e1, 3^12 e4, 3^16 e2> has m1 = 8 (e1 pairs with e4 only);
    # a random symplectic S keeps every pairing, so m1(S H0) = 8.
    psi = standard_psi(2)
    S = [[int(i == j) for j in range(4)] for i in range(4)]
    for _ in range(6):
        S = matmul(S, transvection([rng.randrange(mod) for _ in range(4)], psi, mod), mod)
    h_rows = [apply(S, h, mod) for h in ([1, 0, 0, 0], [0, 0, 0, 3 ** 12], [0, t, 0, 0])]
    return [
        Job("degrees-level20", {"kind": "cli", "argv": ["degrees", "--scenario-file", f"{rel}/{deep.name}", "--format", "json"]},
            check_reports([report])),
        Job("m1-level20", {"kind": "cli", "argv": ["m1", "--ell", "3", "--level", str(DEEP_LEVEL), "--g", "2", "--H", json.dumps(h_rows, separators=(",", ":"))]},
            check_text("m1 = 8\n")),
    ]


WORKLOADS = {
    "closure": closure,
    "tensor-cube": tensor_cube,
    "materialized": materialized,
    "deep-level": deep_level,
}
