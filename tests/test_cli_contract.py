"""The CLI contract as properties, and the report paths against each other.

A named cm or selfproduct scenario reports on its built group (the
materialized path); a custom scenario file with the same generators and H
reports from the orbit of H (``orbit_degree_report``), never building G.
Both must print the same bytes.  The mumford scenario, which runs on the
tensor cube's closed forms, and its custom twin must print the same
stabilizer list and the same degree fields.  The property test drives
``cli.main`` with argv and scenario text mixing valid and broken input, and
checks the exit codes, stdout, ``--out`` and ``--H`` against a scenario
file's ``H``.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from gspimage import cli
from gspimage import galois_model as gm
from gspimage.modring import MatrixMod, ResidueRing
from gspimage.symplectic import standard_form, tensor_form

from conftest import symplectic_transvection, tensor_generators


def _main(argv):
    """Exit code, stdout and stderr of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _scenario_text(ell, level, g, generators, H) -> str:
    return (
        f"scenario = custom\nell = {ell}\nlevel = {level}\ng = {g}\n"
        f"generators = {json.dumps(generators)}\nH = {json.dumps(H)}\n"
    )


# e0, e1, e2, e3 -> f0, f3, f1, f2: P^T F_std P is the selfproduct form psi + psi
_SELFPRODUCT_TO_STANDARD = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 0, 0]]


def _twin(name, ell, level, g):
    """The named scenario's argv, and the text of its custom twin: its
    generators and H's basis, conjugated into the standard form."""
    if name == "cm":
        G, H = gm.scenario_cm(g, ell, level)
        argv = ["cm", "--g", str(g)]
        P = MatrixMod.identity(G.ring, G.dim)
    else:
        G, H = gm.scenario_selfproduct(ell, level)
        argv = ["selfproduct"]
        P = MatrixMod(G.ring, _SELFPRODUCT_TO_STANDARD)
    assert P.transpose() @ standard_form(G.space.g, G.ring).form @ P == G.space.form
    Pinv = P.inverse()
    gens = [[list(row) for row in (P @ x @ Pinv).rows] for x in G.generators]
    rows = [list(P.apply(v)) for v in H.basis]
    argv += ["--ell", str(ell), "--level", str(level)]
    return argv, _scenario_text(ell, level, G.space.g, gens, rows)


@pytest.mark.parametrize(
    "name, ell, level, g",
    [
        ("cm", 5, 1, 2),
        ("cm", 3, 3, 1),
        ("cm", 7, 1, 3),
        ("selfproduct", 5, 1, 2),
        ("selfproduct", 3, 2, 2),
        ("selfproduct", 7, 1, 2),
    ],
)
def test_custom_twin_prints_the_named_report(tmp_path, name, ell, level, g):
    argv, text = _twin(name, ell, level, g)
    path = tmp_path / "twin.txt"
    path.write_text(text)
    named = _main(["degrees", *argv, "--format", "json"])
    custom = _main(["degrees", "--scenario-file", str(path), "--format", "json"])
    assert named[0] == 0, named[2]
    assert custom == named


# D^T F_std D is the tensor form: both pair e_i with e_(7-i), with opposite
# signs on the pairs of e1 and e2
_TENSOR_TO_STANDARD = [1, -1, -1, 1, 1, 1, 1, 1]


def test_custom_twin_of_the_tensor_cube(tmp_path):
    ring = ResidueRing(3, 1)
    D = MatrixMod.diagonal(ring, _TENSOR_TO_STANDARD)
    assert D.transpose() @ standard_form(4, ring).form @ D == tensor_form(3, ring).form
    # D is its own inverse, and fixes the Lagrangian's e111, e122, e212, e221
    gens = [[list(row) for row in (D @ x @ D).rows] for x in tensor_generators(3)]
    H = [[int(i == j) for i in range(8)] for j in (0, 3, 5, 6)]
    path = tmp_path / "twin.txt"
    path.write_text(_scenario_text(3, 1, 4, gens, H))
    named = _main(["stabilizer", "mumford", "--ell", "3", "--format", "json"])
    assert named[0] == 0, named[2]
    assert _main(["stabilizer", "--scenario-file", str(path), "--format", "json"]) == named
    code, out, err = _main(["degrees", "--scenario-file", str(path), "--format", "json"])
    assert code == 0, err
    battery = json.loads(_main(["verify-mumford", "--ell", "3", "--format", "json"])[1])
    [report] = json.loads(out)["reports"]
    assert list(report.items()) == list(battery["reports"][0].items())[:8]


def test_a_level_past_the_word_is_refused_without_forming_its_power():
    # l^(2^64) has 2^64 digits; the level alone shows that it passes 2^63
    with pytest.raises(ValueError, match="64-bit word"):
        ResidueRing(3, 2**64)
    with pytest.raises(ValueError, match="64-bit word"):
        ResidueRing(2, 63)
    assert ResidueRing(2, 62).modulus == 2**62


@pytest.mark.parametrize(
    "argv",
    [
        ["m1", "--ell", "3", "--H", "[]"],
        ["degrees", "cm", "--ell", "3"],
        ["stabilizer", "cm", "--ell", "3", "--cap", str(2**64)],
    ],
    ids=["m1", "degrees-cm", "stabilizer-cm"],
)
def test_a_huge_g_exits_one_before_building_its_form(argv):
    # an H with no rows ties g to no input; GSp_(2^65) has a 2^65 x 2^65
    # form, and cm's torus phi^(2^64 + 1) elements
    code, out, err = _main([*argv, "--g", str(2**64)])
    assert (code, out) == (1, "")
    assert err == f"error: the form of GSp_{2**65} has {2**130} entries, cap={gm.DEFAULT_CAP}\n"


def test_a_huge_g_in_a_custom_file_exits_one(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text(_scenario_text(3, 1, 2**64, [], []))
    code, out, err = _main(["degrees", "--scenario-file", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: the form of GSp_{2**65} has ")


# -- the contract as a property -------------------------------------------------

HUGE = 2**64
BIG_PRIME = 2**61 - 1  # a Mersenne prime below 2^63

# valid values; 3 is the one small odd prime: at 5 or 7 and level 2 a
# stabilizer of the trivial H prints every element of GL2(Z/l^2), megabytes
# per example
ELL = st.sampled_from(["3", "3", "3", str(BIG_PRIME)])
LEVEL = st.sampled_from(["1", "2"])
G = st.sampled_from(["1", "2"])
CAP = st.sampled_from(["1", "2", "1000", str(HUGE)])
# the edge values 0, 1, 2 and huge, and text that is no integer
BROKEN = st.sampled_from(["0", "1", "2", str(HUGE), "5.0", "five", "[3]", "", "-"])

# generators and H for g = 1 and g = 2, and broken ones
GENERATORS = st.sampled_from(
    [
        "[]",
        "[[[1,1],[0,1]],[[2,0],[0,1]]]",  # a transvection and diag(2, 1)
        "[[[1,0],[0,1]]]",
        "[[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]],[[2,0,0,0],[0,2,0,0],[0,0,1,0],[0,0,0,1]]]",
    ]
)
BROKEN_GENERATORS = st.sampled_from(
    [
        "[[[1,1,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]]",  # not a similitude
        "[[[1,0],[0,0]]]",  # singular
        "[[[1,0,0],[0,1,0]]]",  # not square
        "[[[1.5,0],[0,1]]]",
        "7",
        "not json",
    ]
)
H_ROWS = st.sampled_from(
    ["[]", "[[1,0]]", "[[0,1],[1,0]]", "[[0,0]]", f"[[{HUGE},-1]]",
     "[[1,0,0,0]]", "[[1,0,0,1]]", "[[1,1,1,1]]"]
)
BROKEN_H_ROWS = st.sampled_from(["[[1,0,0]]", "[[true,0]]", "[1,0]", "{}", ""])
COMMANDS = st.sampled_from(["m1", "degrees", "scenario", "sweep", "stabilizer", "verify-mumford"])
NAMES = st.sampled_from(["cm", "selfproduct", "mumford"])


def _mostly(draw, valid, broken):
    """A draw from ``valid`` most of the time, else from ``broken``."""
    return draw(broken if draw(st.integers(0, 5)) == 5 else valid)


@st.composite
def scenario_texts(draw):
    """Scenario file text: each key present or not, mostly valid, the keys
    in a drawn order, and now and then an unknown or repeated key."""
    lines = []
    if draw(st.integers(0, 7)):
        lines.append(("scenario", _mostly(draw, NAMES | st.just("custom"), st.just("bogus"))))
    for key, valid in (("ell", ELL), ("level", LEVEL), ("g", G)):
        if draw(st.booleans()):
            lines.append((key, _mostly(draw, valid, BROKEN)))
    if draw(st.integers(0, 3)):
        lines.append(("generators", _mostly(draw, GENERATORS, BROKEN_GENERATORS)))
    if draw(st.integers(0, 3)):
        lines.append(("H", _mostly(draw, H_ROWS, BROKEN_H_ROWS)))
    if draw(st.integers(0, 9)) == 0:
        lines.append(draw(st.sampled_from([("threads", "2"), ("ell", "3")])))
    lines = draw(st.permutations(lines))
    return "".join(f"{key} = {value}\n" for key, value in lines)


@st.composite
def invocations(draw):
    """argv without --out, and the scenario file's text (None without one)."""
    command = draw(COMMANDS)
    argv = [command]
    text = None
    if command not in ("m1", "verify-mumford"):
        if draw(st.booleans()):
            text = draw(scenario_texts())
        if text is None or draw(st.booleans()):
            argv.append(draw(NAMES))
    if draw(st.integers(0, 4)):
        count = draw(st.integers(1, 2))
        argv += ["--ell", ",".join(_mostly(draw, ELL, BROKEN) for _ in range(count))]
    reads = cli._COMMANDS[command][0]
    for flag, valid in (("--level", LEVEL), ("--g", G), ("--cap", CAP)):
        # now and then a flag the command does not read
        if draw(st.booleans()) and (flag in reads or draw(st.integers(0, 5)) == 5):
            argv += [flag, _mostly(draw, valid, BROKEN)]
    if draw(st.integers(0, 2)) or command == "m1":
        argv += ["--H", _mostly(draw, H_ROWS, BROKEN_H_ROWS)]
    argv += ["--format", _mostly(draw, st.sampled_from(["table", "json"]), st.just("xml"))]
    return argv, text


def _value(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _work_grows_with_l(argv, text) -> bool:
    """Whether the run may do work in proportion to l = 2^61 - 1 that its
    cap allows: the mumford battery tries l - 1 candidates under a cap past
    that, and a custom orbit (a transvection's has l points) runs up to the
    cap, 10^7 by default.  That is the contract, not a breach of it, and
    far too much for one example."""
    if str(BIG_PRIME) not in " ".join(argv) + (text or ""):
        return False
    cap = _value(argv, "--cap")
    return cap == str(HUGE) or (cap is None and "custom" in (text or ""))


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=invocations())
def test_cli_contract_holds_on_generated_input(case):
    argv, text = case
    assume(not _work_grows_with_l(argv, text))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if text is not None:
            (tmp / "scenario.txt").write_text(text)
            argv = argv + ["--scenario-file", str(tmp / "scenario.txt")]
        code, out, err = _main(argv)
        assert code in (0, 1, 2)
        if code == 1:
            assert out == ""
        if code == 0 and _value(argv, "--format") == "json":
            json.loads(out)
        # --out writes the bytes stdout gets, and nothing to stdout
        path = tmp / "report.out"
        assert _main(argv + ["--out", str(path)]) == (code, "", err)
        if code == 0:
            assert path.read_text() == out
        # the file's H given through --H, over an H of no rows in the file,
        # gives the same exit code and bytes
        if text is not None and "--H" not in argv:
            lines = text.splitlines(keepends=True)
            h_lines = [line for line in lines if line.startswith("H = ")]
            if len(h_lines) == 1:
                (tmp / "scenario.txt").write_text(
                    "".join("H = []\n" if line in h_lines else line for line in lines)
                )
                moved = _main(argv + ["--H", h_lines[0][4:].rstrip("\n")])
                assert moved[:2] == (code, out)


# the named scenarios of the conjugation property: |G| runs 36 to 3888
_CONJUGATED = [("cm", 5, 1, 2), ("cm", 3, 2, 1), ("selfproduct", 5, 1, 2), ("selfproduct", 3, 2, 2)]


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(_CONJUGATED), rng=st.randoms(use_true_random=False))
def test_random_symplectic_conjugate_prints_the_named_report(case, rng):
    # the named scenario's generators conjugated into the standard form (P,
    # as in _twin) and then by a random Q in Sp_2g, a product of symplectic
    # transvections, and a random H of rank 1..d with entries divisible by
    # random powers of l, given through --H: R = QP carries the named H to
    # the twin's.  degrees prints the same bytes (the built path against the
    # orbit path), and the twin's T, conjugated back by R, is the named T
    # as a set (the built scan against the closure scan)
    name, ell, level, g = case
    argv, _ = _twin(name, ell, level, g)
    if name == "cm":
        G, _ = gm.scenario_cm(g, ell, level)
        P = MatrixMod.identity(G.ring, G.dim)
    else:
        G, _ = gm.scenario_selfproduct(ell, level)
        P = MatrixMod(G.ring, _SELFPRODUCT_TO_STANDARD)
    ring, space = G.ring, standard_form(g, G.ring)
    d, mod = space.dim, ring.modulus
    Q = MatrixMod.identity(ring, d)
    for _ in range(rng.randrange(1, 7)):
        Q = Q @ symplectic_transvection(space, [rng.randrange(mod) for _ in range(d)])
    assert Q.transpose() @ space.form @ Q == space.form
    R = Q @ P
    Rinv = R.inverse()
    gens = [[list(row) for row in (R @ x @ Rinv).rows] for x in G.generators]
    H = [
        [rng.randrange(mod) * ell ** rng.randrange(level) % mod for _ in range(d)]
        for _ in range(rng.randrange(1, d + 1))
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "twin.txt"
        path.write_text(_scenario_text(ell, level, g, gens, []))
        custom = ["--scenario-file", str(path), "--H", json.dumps([list(R.apply(v)) for v in H])]
        named = [*argv, "--H", json.dumps(H)]
        report = _main(["degrees", *named, "--format", "json"])
        assert report[0] == 0, report[2]
        assert _main(["degrees", *custom, "--format", "json"]) == report
        lists = []
        for args in (named, custom):
            code, out, err = _main(["stabilizer", *args, "--format", "json"])
            assert code == 0, err
            (rep,) = json.loads(out)["reports"]
            assert rep["stabilizer_size"] == len(rep["stabilizer_elements"])
            lists.append(rep["stabilizer_elements"])
    back = [(Rinv @ MatrixMod.from_flat(ring, d, flat) @ R).flat() for flat in lists[1]]
    assert sorted(map(tuple, lists[0])) == sorted(back)
    assert len(set(back)) == len(back)
