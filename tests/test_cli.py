import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gspimage import cli, galois_model as gm
from gspimage.modring import MatrixMod, ResidueRing
from gspimage.symplectic import standard_form
from gspimage.torsion import subgroup_from_generators

from conftest import spy_decodes
from oracles import elements, numbered
from test_closure import reference_close

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_m1_command_exact_output(capsys):
    code, out, _ = run_cli(
        capsys, "m1", "--ell", "5", "--level", "1", "--g", "1", "--H", "[[1,0],[0,1]]"
    )
    assert code == 0
    assert out == "m1 = 1\n"


def test_m1_multiple_ells(capsys):
    code, out, _ = run_cli(
        capsys, "m1", "--ell", "3,5", "--g", "1", "--H", "[[1,0],[0,1]]"
    )
    assert code == 0
    assert out == "ell=3: m1 = 1\nell=5: m1 = 1\n"


def test_scenario_cm_reports_ratio(capsys):
    code, out, _ = run_cli(capsys, "scenario", "cm", "--ell", "13", "--level", "1")
    assert code == 0
    assert "ratio=12" in out


def test_verify_mumford_json(capsys):
    code, out, _ = run_cli(capsys, "verify-mumford", "--ell", "3,5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [r["ell"] for r in doc["reports"]] == [3, 5]
    assert all(r["stabilizer_size"] == 2 for r in doc["reports"])
    assert [r["ratio"] for r in doc["reports"]] == ["1", "2"]


def test_json_roundtrip_is_byte_identical(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "cm", "--ell", "5,13", "--g", "2", "--format", "json"
    )
    assert code == 0
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def _written(doc) -> tuple[str, int]:
    """``doc`` as the CLI's JSON writer prints it, and the writes it takes."""
    writes = []
    cli._write_json(doc, writes.append)
    return "".join(writes), len(writes)


def _int_rows_of(elements):
    """Lists of equal-length rows of ``elements``, some of them empty."""
    return st.integers(0, 4).flatmap(
        lambda width: st.lists(st.lists(elements, min_size=width, max_size=width), max_size=5)
    )


_BIG_INTS = st.integers(-(2**80), 2**80) | st.sampled_from([2**63 - 1, 2**63, -(2**63) - 1])
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | _BIG_INTS
    | st.floats()
    | st.text()  # non-ASCII characters, quotes, backslashes, control characters
    | _int_rows_of(st.integers() | _BIG_INTS)
    | _int_rows_of(st.booleans())  # a bool row must not print as ints
    | _int_rows_of(st.integers() | st.booleans())
    | st.lists(st.lists(st.integers(), max_size=3), max_size=4)  # ragged rows
)
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    | st.dictionaries(st.integers(), inner, max_size=2),  # keys json.dumps converts
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(doc=_JSON_DOCS)
def test_json_writer_prints_what_json_dumps_prints(doc):
    assert _written(doc)[0] == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("value", [object(), {1, 2}, {"rows": [[1, 2], [3, object()]]}, {(1,): 2}])
def test_json_writer_fails_where_json_dumps_fails(value):
    with pytest.raises(TypeError) as expected:
        json.dumps({"a": [value]}, indent=2)
    with pytest.raises(TypeError, match=re.escape(str(expected.value))):
        _written({"a": [value]})


def _streamed_groups():
    """Groups whose elements the writer streams: a closure (decoded from
    its BFS levels), a stabilizer of it (one batch of surviving ids), a
    builder's torus, the signed permutations mod 3^39 (object dtype, entries
    past 2^62) and the empty group."""
    ring = ResidueRing(3, 2)
    G = gm.close(standard_form(1, ring), gm.gl2_standard_generators(ring))
    T = gm.stabilizer(G, subgroup_from_generators([(1, 0)], ring))
    big = ResidueRing(3, 39)
    m = big.modulus
    signed = gm.close(
        standard_form(1, big), [MatrixMod(big, [[m - 1, 0], [0, 1]]), MatrixMod(big, [[0, 1], [1, 0]])]
    )
    empty = numbered(standard_form(1, ring), [])
    return [G, T, gm.scenario_cm(2, 5, 2)[0], signed, empty]


@pytest.mark.parametrize("batch", [1, 2, 7, gm._BATCH])
def test_streamed_blocks_print_the_bytes_of_the_plain_list(monkeypatch, batch):
    monkeypatch.setattr(gm, "_BATCH", batch)
    decoded = spy_decodes(monkeypatch)
    groups = _streamed_groups()
    assert decoded == []  # building and scanning decode nothing

    def doc(elements):
        reports = [{"ell": 3, "stabilizer_size": G.order, "stabilizer_elements": e}
                   for G, e in zip(groups, elements)]
        return {"reports": reports, "after": [[1, 2], [3, 4]]}

    blocks = [len(b) for G in groups for b in G.blocks() if len(b)]
    assert max(blocks) <= batch and (batch > 7 or len(blocks) > len(groups))
    decoded.clear()
    text, writes = _written(doc([G.blocks() for G in groups]))
    # the writer decodes each element once, and joins no group
    assert sum(n for _, n in decoded) == sum(G.order for G in groups)
    assert text == json.dumps(doc([elements(G).tolist() for G in groups]), indent=2) + "\n"
    # one write a block, as it is formatted, and one for the rest
    assert writes == len(blocks) + 1


def test_stabilizer_joins_no_group_and_writes_its_out_file_as_stdout(tmp_path, capsys, monkeypatch):
    # T = G: the cm torus at 5^3 (10^6 elements) and the closure of GL2(Z/27)
    # (314,928, in 77 blocks), the first only counted, the second printed
    decoded = spy_decodes(monkeypatch)
    code, out, err = run_cli(
        capsys, "stabilizer", "cm", "--g", "2", "--ell", "5", "--level", "3", "--H", "[[0,0,0,0]]"
    )
    assert (code, out, err) == (0, "ell=5 level=3 stabilizer_size=1000000\n", "")
    path = tmp_path / "gl2_27.txt"
    path.write_text(
        "scenario = custom\nell = 3\nlevel = 3\ng = 1\n"
        "generators = [[[1,1],[0,1]],[[1,0],[1,1]],[[2,0],[0,1]]]\nH = [[0,0]]\n"
    )
    argv = ["stabilizer", "--scenario-file", str(path), "--format", "json"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    order = gm.gl2_order(3, 3)
    assert f'"stabilizer_size": {order},' in out
    assert out.count("\n        [\n") == order  # one row opens per element
    target = tmp_path / "T.json"
    assert run_cli(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == out.encode()
    # the torus is not decoded, and each print decodes each element once
    assert sum(n for _, n in decoded) == 2 * order


def test_sweep_summary(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "selfproduct", "--ell", "3,5", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["monotone"] is True
    assert doc["summary"]["min_ratio"] == "2"
    assert doc["summary"]["max_ratio"] == "4"


def test_verify_mumford_large_primes(capsys):
    code, out, _ = run_cli(capsys, "verify-mumford", "--ell", "101,199", "--format", "json")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [r["stabilizer_size"] for r in reports] == [2, 2]
    assert [r["deg_cyclo_intersection"] for r in reports] == [50, 99]
    for r in reports:
        ell = r["ell"]
        gl2 = (ell * ell - 1) * (ell * ell - ell)
        assert r["image_order"] == (gl2 // (ell - 1)) ** 2 * gl2


def test_verify_mumford_runs_past_the_square_of_the_candidate_count(capsys):
    # (l - 1)^2 = 10036224 passes the default cap of 10^7, l - 1 does not
    code, out, _ = run_cli(capsys, "verify-mumford", "--ell", "3169", "--format", "json")
    assert code == 0
    (report,) = json.loads(out)["reports"]
    assert report["stabilizer_size"] == 2
    assert report["deg_cyclo_intersection"] == 1584


def test_stabilizer_command_mumford(capsys):
    code, out, _ = run_cli(
        capsys, "stabilizer", "mumford", "--ell", "3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["reports"][0]["stabilizer_size"] == 2
    elems = doc["reports"][0]["stabilizer_elements"]
    assert len(elems) == 2 and all(len(e) == 64 for e in elems)


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "m1", "--ell", "6", "--g", "1", "--H", "[[1,0]]")[0] == 1
    assert run_cli(capsys, "m1", "--ell", "5")[0] == 1  # missing --H
    assert run_cli(capsys, "scenario", "cm")[0] == 1  # missing --ell
    assert run_cli(capsys, "degrees")[0] == 1  # no scenario at all
    with pytest.raises(cli.UsageError):
        cli.parse_config(["no-such-command"])


def test_cap_exceeded_exit_one(capsys):
    code, _, err = run_cli(capsys, "scenario", "cm", "--ell", "13", "--g", "2", "--cap", "10")
    assert code == 1
    assert "cap" in err


def test_mumford_level_must_be_one(capsys):
    code, _, _ = run_cli(capsys, "scenario", "mumford", "--ell", "3", "--level", "2")
    assert code == 1
    code, out, err = run_cli(capsys, "stabilizer", "mumford", "--ell", "3", "--level", "2")
    assert code == 1
    assert out == ""
    assert "level 1" in err
    code, out, err = run_cli(capsys, "verify-mumford", "--ell", "3", "--level", "2")
    assert code == 1
    assert out == ""
    assert "level 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("stabilizer", "mumford", "--ell", "2"),
        ("stabilizer", "mumford", "--ell", "2,3"),
        ("degrees", "mumford", "--ell", "2"),
        ("verify-mumford", "--ell", "2"),
    ],
)
def test_mumford_rejects_even_ell(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", "error: ell must be odd\n")


def test_threads_flag_is_gone(capsys):
    code, out, err = run_cli(capsys, "verify-mumford", "--ell", "3", "--threads", "4")
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --threads 4" in err


@pytest.mark.parametrize(
    "argv, unread",
    [
        (
            ["verify-mumford", "--ell", "3", "--g", "5", "--scenario-file", "/nonexistent"],
            "--g 5 --scenario-file /nonexistent",
        ),
        (
            ["m1", "--ell", "5", "--g", "1", "--H", "[[1,0],[0,1]]",
             "--scenario-file", "/nonexistent", "--cap", "1"],
            "--scenario-file /nonexistent --cap 1",
        ),
    ],
)
def test_flags_a_command_does_not_read_are_rejected(capsys, argv, unread):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: {unread}" in err


def test_selfproduct_g_must_be_two(tmp_path, capsys):
    code, default, _ = run_cli(capsys, "scenario", "selfproduct", "--ell", "3")
    assert code == 0
    assert run_cli(capsys, "scenario", "selfproduct", "--ell", "3", "--g", "2")[1] == default
    code, out, err = run_cli(capsys, "scenario", "selfproduct", "--ell", "3", "--g", "7")
    assert code == 1
    assert out == ""
    assert "g must be 2" in err
    path = tmp_path / "selfproduct.txt"
    path.write_text("scenario = selfproduct\nell = 3\ng = 3\n")
    code, out, err = run_cli(capsys, "degrees", "--scenario-file", str(path))
    assert code == 1
    assert out == ""
    assert "g must be 2" in err


def test_mumford_g_must_be_four(capsys):
    code, out, err = run_cli(capsys, "degrees", "mumford", "--ell", "3", "--g", "2")
    assert code == 1
    assert out == ""
    assert "g must be 4" in err
    assert run_cli(capsys, "degrees", "mumford", "--ell", "3", "--g", "4")[0] == 0


@pytest.mark.parametrize("command", ["degrees", "scenario", "sweep"])
def test_H_overrides_scenario_subgroup(capsys, command):
    args = [command, "cm", "--ell", "5", "--g", "2", "--format", "json"]
    _, plain, _ = run_cli(capsys, *args)
    code, out, _ = run_cli(capsys, *args, "--H", "[[1,0,0,0]]")
    assert code == 0
    assert out != plain
    (rep,) = json.loads(out)["reports"]
    # diagonal similitudes with d_1 = 1: 4^3 elements over 4^2, so [K(H):K] = 4
    assert rep["deg_KH"] == 4
    assert rep["m1"] == 0


def test_H_overrides_stabilizer_subgroup(capsys):
    code, out, _ = run_cli(capsys, "stabilizer", "cm", "--ell", "5", "--g", "2", "--H", "[[1,0,0,0]]")
    assert code == 0
    assert out == "ell=5 level=1 stabilizer_size=16\n"


def _fixers_of_e1(rows, mod):
    """The rows (row-major matrices) M with M e1 = e1 mod ``mod``, in order:
    column 0 of M is e1."""
    d = math.isqrt(len(rows[0]))
    return [M for M in rows if [M[i * d] % mod for i in range(d)] == [1] + [0] * (d - 1)]


def test_stabilizer_of_e1_in_the_built_groups_matches_an_enumeration(capsys):
    # the fixing vector e1 meets the structural zeros of both builders: the
    # off-diagonal entries of the cm torus and the off-block ones of the
    # self-product.  cm: diag(d1, d2, lam/d2, lam/d1) in (lam, d1, d2)
    # lexicographic order over the units mod 25
    units = [u for u in range(1, 25) if u % 5]
    cm = []
    for lam, d1, d2 in itertools.product(units, repeat=3):
        diag = [d1, d2, lam * pow(d2, -1, 25) % 25, lam * pow(d1, -1, 25) % 25]
        cm.append([diag[i] if i == j else 0 for i in range(4) for j in range(4)])
    # selfproduct: diag-block(g, g) for g = (a, b, c, d) in lexicographic
    # order over Z/9 with ad - bc a unit
    selfproduct = [
        [a, b, 0, 0, c, d, 0, 0, 0, 0, a, b, 0, 0, c, d]
        for a, b, c, d in itertools.product(range(9), repeat=4)
        if (a * d - b * c) % 3
    ]
    for argv, rows, mod in (
        (["cm", "--g", "2", "--ell", "5"], cm, 25),
        (["selfproduct", "--ell", "3"], selfproduct, 9),
    ):
        code, out, err = run_cli(
            capsys, "stabilizer", *argv, "--level", "2", "--H", "[[1,0,0,0]]", "--format", "json"
        )
        assert code == 0, err
        (rep,) = json.loads(out)["reports"]
        expected = _fixers_of_e1(rows, mod)
        assert rep["stabilizer_elements"] == expected
        assert rep["stabilizer_size"] == len(expected) == {25: 400, 9: 54}[mod]


@pytest.mark.parametrize(
    "argv",
    [
        ["degrees", "mumford", "--ell", "3"],
        ["sweep", "mumford", "--ell", "3,5"],
        ["stabilizer", "mumford", "--ell", "3"],
        ["verify-mumford", "--ell", "3"],
    ],
)
def test_H_rejected_for_mumford(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--H", "[[1,0,0,0,0,0,0,0]]")
    assert code == 1
    assert out == ""
    assert "--H" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["degrees", "cm", "--ell", "5", "--g", "2"],
        ["stabilizer", "cm", "--ell", "5", "--g", "2"],
        ["degrees", "mumford", "--ell", "3"],
        ["m1", "--ell", "5"],
    ],
)
def test_empty_H_is_not_ignored(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--H", "")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("text", ["", "nope"])
@pytest.mark.parametrize(
    "argv", [["m1", "--ell", "5"], ["degrees", "cm", "--ell", "5", "--g", "2"]]
)
def test_unparsable_H_names_the_flag_and_the_text(capsys, argv, text):
    code, out, err = run_cli(capsys, *argv, "--H", text)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: --H {text!r} ")


def test_stabilizer_reports_scenario_file_level(tmp_path, capsys):
    custom = tmp_path / "custom.txt"
    custom.write_text(
        "scenario = custom\nell = 3\nlevel = 2\ng = 1\n"
        "generators = [[[1,1],[0,1]],[[1,0],[1,1]],[[2,0],[0,1]]]\n"
        "H = [[1,0]]\n"
    )
    code, out, _ = run_cli(
        capsys, "stabilizer", "--scenario-file", str(custom), "--format", "json"
    )
    assert code == 0
    (rep,) = json.loads(out)["reports"]
    assert rep["level"] == 2
    # matrices of GL2(Z/9) with first column (1, 0): 9 choices of b, 6 units d
    assert rep["stabilizer_size"] == 54
    assert all(e[0] == 1 and e[2] == 0 for e in rep["stabilizer_elements"])
    named = tmp_path / "cm.txt"
    named.write_text("scenario = cm\nell = 5\nlevel = 2\ng = 2\n")
    code, out, _ = run_cli(capsys, "stabilizer", "--scenario-file", str(named))
    assert code == 0
    assert out == "ell=5 level=2 stabilizer_size=1\n"


def test_duplicate_scenario_key_exit_one(tmp_path, capsys):
    path = tmp_path / "dup.txt"
    path.write_text("scenario = cm\nell = 5\nell = 7\ng = 2\n")
    code, out, err = run_cli(capsys, "degrees", "--scenario-file", str(path))
    assert code == 1
    assert out == ""
    assert "duplicate scenario key 'ell'" in err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("H", "nope", "scenario key 'H' is not JSON integer rows: Expecting value"),
        (
            "generators",
            "[[[1,1],[0,1]],[[1,0]",
            "scenario key 'generators' is not JSON integer matrices: Expecting ',' delimiter",
        ),
    ],
    ids=["H", "generators"],
)
def test_unparsable_scenario_value_names_the_key(tmp_path, capsys, key, value, message):
    values = {"generators": "[[[1,1],[0,1]],[[1,0],[1,1]],[[2,0],[0,1]]]", "H": "[[1,0]]", key: value}
    path = tmp_path / "bad.txt"
    path.write_text(
        "scenario = custom\nell = 3\nlevel = 1\ng = 1\n"
        + "".join(f"{k} = {v}\n" for k, v in values.items())
    )
    code, out, err = run_cli(capsys, "degrees", "--scenario-file", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("key", ["ell", "level", "g"])
@pytest.mark.parametrize("value", ["5.0", "five"])
def test_non_integer_scenario_value_names_the_key(tmp_path, capsys, key, value):
    values = {"ell": "5", "level": "1", "g": "2", key: value}
    path = tmp_path / "bad.txt"
    path.write_text("scenario = cm\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
    code, out, err = run_cli(capsys, "degrees", "--scenario-file", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: scenario key {key!r}: invalid int value: {value!r}\n"


def test_scenario_file_custom(tmp_path, capsys):
    path = tmp_path / "scenario.txt"
    path.write_text(
        "scenario = custom\n"
        "ell = 3\n"
        "level = 1\n"
        "g = 1\n"
        "generators = [[[1,1],[0,1]],[[1,0],[1,1]],[[2,0],[0,1]]]\n"
        "H = [[1,0]]\n"
    )
    code, out, _ = run_cli(
        capsys, "degrees", "--scenario-file", str(path), "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["reports"][0]["deg_KH"] == 8  # index of the line stabilizer in GL2(F3)


def test_scenario_file_named(tmp_path, capsys):
    path = tmp_path / "cm.txt"
    path.write_text("scenario = cm\nell = 5\nlevel = 1\ng = 2\n")
    code, out, _ = run_cli(capsys, "degrees", "--scenario-file", str(path))
    assert code == 0
    assert "deg_KH=64" in out


def test_scenario_file_H_is_read_like_the_flag(tmp_path, capsys):
    path = tmp_path / "cm.txt"
    path.write_text("scenario = cm\nell = 5\ng = 2\nH = [[1,0,0,0]]\n")
    flags = ["cm", "--ell", "5", "--g", "2"]
    for fmt in ("table", "json"):
        code, out, err = run_cli(capsys, "degrees", "--scenario-file", str(path), "--format", fmt)
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, "degrees", *flags, "--H", "[[1,0,0,0]]", "--format", fmt)[1]
    # diagonal similitudes with d_1 = 1: 4^3 elements over 4^2
    assert "deg_KH=4 " in run_cli(capsys, "degrees", "--scenario-file", str(path))[1]
    assert run_cli(capsys, "stabilizer", "--scenario-file", str(path)) == (
        0,
        "ell=5 level=1 stabilizer_size=16\n",
        "",
    )
    # --H replaces the file's H
    other = "[[1,0,0,0],[0,1,0,0]]"
    assert run_cli(capsys, "degrees", "--scenario-file", str(path), "--H", other) == run_cli(
        capsys, "degrees", *flags, "--H", other
    )


def test_selfproduct_scenario_file_H_is_read(tmp_path, capsys):
    path = tmp_path / "selfproduct.txt"
    path.write_text("scenario = selfproduct\nell = 3\nH = [[1,0,0,0]]\n")
    code, out, _ = run_cli(capsys, "degrees", "--scenario-file", str(path))
    assert code == 0
    flagged = run_cli(capsys, "degrees", "selfproduct", "--ell", "3", "--H", "[[1,0,0,0]]")[1]
    assert out == flagged
    assert out != run_cli(capsys, "degrees", "selfproduct", "--ell", "3")[1]


@pytest.mark.parametrize("command", ["degrees", "scenario", "sweep", "stabilizer"])
def test_mumford_scenario_file_H_is_rejected(tmp_path, capsys, command):
    path = tmp_path / "mumford.txt"
    path.write_text("scenario = mumford\nell = 3\nH = [[1,0,0,0,0,0,0,0]]\n")
    code, out, err = run_cli(capsys, command, "--scenario-file", str(path))
    assert (code, out) == (1, "")
    assert err == (
        "error: the mumford scenario fixes H to its Lagrangian; "
        "scenario key 'H' is not accepted\n"
    )


@pytest.mark.parametrize(
    "text, argv",
    [
        pytest.param("scenario = cm\nell = 5\ng = 2\n", ["degrees"], id="cm"),
        pytest.param("scenario = selfproduct\nell = 3\n", ["stabilizer"], id="selfproduct"),
        pytest.param("scenario = mumford\nell = 3\n", ["sweep"], id="mumford"),
        pytest.param("scenario = custom\nell = 5\ng = 2\nH = [[1,0,0,0]]\n", ["degrees", "cm"], id="named-by-flag"),
    ],
)
def test_named_scenario_file_generators_are_rejected(tmp_path, capsys, text, argv):
    path = tmp_path / "named.txt"
    path.write_text(text + "generators = [[[1,1],[0,1]]]\n")
    code, out, err = run_cli(capsys, *argv, "--scenario-file", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "scenario key 'generators'" in err


@pytest.mark.parametrize("command", ["degrees", "stabilizer"])
def test_named_scenario_file_H_of_the_wrong_length_names_the_key(
    tmp_path, capsys, monkeypatch, command
):
    for name in ("scenario_cm", "scenario_selfproduct", "close", "orbit_degree_report"):
        monkeypatch.setattr(cli.gm, name, _no_work)
    path = tmp_path / "cm.txt"
    path.write_text("scenario = cm\nell = 5\ng = 2\nH = [[1,0,0]]\n")
    assert run_cli(capsys, command, "--scenario-file", str(path)) == (
        1,
        "",
        "error: scenario key 'H' rows must have length 2g = 4, got 3\n",
    )


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--g", "3"], ["--g 3", "g = 2"]),
        (["--level", "2"], ["--level 2", "level = 1"]),
        # the level is checked first; --ell alone would override the file
        (["--g", "3", "--level", "2", "--ell", "13"], ["--level 2", "level = 1"]),
    ],
)
def test_scenario_file_conflicting_flag_exits_one(tmp_path, capsys, flags, named):
    path = tmp_path / "cm.txt"
    path.write_text("scenario = cm\nell = 5\nlevel = 1\ng = 2\n")
    code, out, err = run_cli(capsys, "degrees", "--scenario-file", str(path), *flags)
    assert code == 1
    assert out == ""
    assert "conflicts with" in err
    assert all(text in err for text in named)


def test_scenario_file_agreeing_flags_and_ell_override(tmp_path, capsys):
    path = tmp_path / "cm.txt"
    path.write_text("scenario = cm\nell = 5\nlevel = 1\ng = 2\n")
    code, out, _ = run_cli(capsys, "degrees", "--scenario-file", str(path))
    assert code == 0
    code, same, _ = run_cli(
        capsys, "degrees", "--scenario-file", str(path), "--g", "2", "--level", "1"
    )
    assert code == 0
    assert same == out
    # --ell overrides the file's ell
    code, out13, _ = run_cli(capsys, "degrees", "--scenario-file", str(path), "--ell", "13")
    assert code == 0
    assert out13.startswith("ell=13 level=1 ")
    assert "deg_KH=1728" in out13  # phi(13)^3 / 1


def test_scenario_file_level_used_without_flag(tmp_path, capsys):
    path = tmp_path / "cm.txt"
    path.write_text("scenario = cm\nell = 5\nlevel = 2\ng = 1\n")
    code, out, _ = run_cli(capsys, "degrees", "--scenario-file", str(path))
    assert code == 0
    assert out.startswith("ell=5 level=2 ")
    code, flagged, _ = run_cli(capsys, "degrees", "--scenario-file", str(path), "--level", "2")
    assert code == 0
    assert flagged == out


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "scenario",
        "cm",
        "--ell",
        "5",
        "--g",
        "2",
        "--format",
        "json",
        "--out",
        str(target),
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["reports"][0]["deg_KH"] == 64


def test_missing_scenario_file(capsys):
    code, _, _ = run_cli(capsys, "degrees", "--scenario-file", "/no/such/file")
    assert code == 1


def test_expectation_failure_exits_two(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise cli.mf.ExpectationFailed("forced for the exit-code path")

    monkeypatch.setattr(cli.mf, "verify_mu_s_failure", boom)
    code, _, err = run_cli(capsys, "verify-mumford", "--ell", "3")
    assert code == 2
    assert "expectation failed" in err


def test_divisibility_invariant_failure_exits_two(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise AssertionError("stabilizer order must divide the group order")

    monkeypatch.setattr(cli.gm, "build_degree_report", broken)
    code, out, err = run_cli(capsys, "scenario", "cm", "--ell", "5", "--g", "2")
    assert code == 2
    assert out == ""
    assert err == "expectation failed: stabilizer order must divide the group order\n"


GL2_125 = (
    "scenario = custom\nell = 5\nlevel = 3\ng = 1\n"
    "generators = [[[1,1],[0,1]],[[1,0],[1,1]],[[2,0],[0,1]]]\n"
    "H = [[1,0]]\n"
)


def test_custom_report_past_the_closure_cap(tmp_path, capsys):
    # |GL2(Z/125)| = 1.875 * 10^8 is past the default cap; the orbit of e1 is
    # the 15000 vectors of order 125
    path = tmp_path / "gl2_125.txt"
    path.write_text(GL2_125)
    code, out, _ = run_cli(capsys, "degrees", "--scenario-file", str(path), "--format", "json")
    assert code == 0
    (rep,) = json.loads(out)["reports"]
    assert rep["deg_KH"] == 15000
    # stabilizer still closes G, which --cap bounds
    code, out, err = run_cli(capsys, "stabilizer", "--scenario-file", str(path), "--cap", "10000")
    assert code == 1
    assert out == ""
    assert "closure exceeds cap=10000" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("scenario", "cm", "--ell", "13", "--g", "2", "--cap", "10"), "cm torus exceeds cap=10: 1728 elements"),
        (
            ("degrees", "selfproduct", "--ell", "5", "--level", "2", "--cap", "10"),
            "gl2 group exceeds cap=10: GL2(Z/5^2) has 300000 elements",
        ),
        (
            ("stabilizer", "selfproduct", "--ell", "5", "--level", "2", "--cap", "10"),
            "gl2 group exceeds cap=10: GL2(Z/5^2) has 300000 elements",
        ),
    ],
)
def test_builder_caps_name_their_stage(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


def test_closure_past_the_level_budget_exits_one(tmp_path, capsys, monkeypatch):
    # the closure of GL2(Z/125) passes a 1 MB level budget (40 bytes a
    # product: 2 row ids, 32 bytes of key and temporaries) long before the
    # cap, and exits 1 with the stage, the depth and the bytes
    monkeypatch.setattr(gm, "_LEVEL_BYTES", 10**6)
    path = tmp_path / "gl2_125.txt"
    path.write_text(GL2_125)
    code, out, err = run_cli(capsys, "stabilizer", "--scenario-file", str(path))
    assert (code, out) == (1, "")
    found = re.fullmatch(
        r"error: closure exceeds the BFS level budget of 1000000 bytes: depth (\d+) needs (\d+) bytes\n", err
    )
    assert found and int(found[2]) > 10**6 and int(found[2]) % (3 * 40) == 0


def test_cap_bounds_the_orbit_on_custom_reports(tmp_path, capsys):
    path = tmp_path / "gl2_125.txt"
    path.write_text(GL2_125)
    assert run_cli(capsys, "degrees", "--scenario-file", str(path), "--cap", "15000")[0] == 0
    code, out, err = run_cli(capsys, "degrees", "--scenario-file", str(path), "--cap", "14999")
    assert code == 1
    assert out == ""
    assert re.fullmatch(
        r"error: orbit exceeds cap=14999: \d+ points through BFS depth \d+\n", err
    )


@pytest.mark.parametrize("command", ["degrees", "scenario", "sweep"])
def test_H_overrides_custom_subgroup(tmp_path, capsys, command):
    path = tmp_path / "custom.txt"
    path.write_text(
        "scenario = custom\nell = 3\nlevel = 2\ng = 1\n"
        "generators = [[[1,1],[0,1]],[[1,0],[1,1]],[[2,0],[0,1]]]\n"
        "H = [[1,0]]\n"
    )
    args = [command, "--scenario-file", str(path), "--format", "json"]
    code, plain, _ = run_cli(capsys, *args)
    assert code == 0
    assert [r["deg_KH"] for r in json.loads(plain)["reports"]] == [72]  # order-9 vectors
    code, out, _ = run_cli(capsys, *args, "--H", "[[3,0],[0,3]]")
    assert code == 0
    (rep,) = json.loads(out)["reports"]
    # GL2(Z/9) acting on the 3-torsion: |GL2(F_3)| = 48
    assert rep["deg_KH"] == 48
    assert rep["m1"] == 1


def test_sweep_cm_does_not_import_numpy_ma():
    code = (
        "import sys\n"
        "from gspimage import cli\n"
        "assert cli.main(['sweep', 'cm', '--g', '2', '--ell', '5']) == 0\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "ratio=4" in proc.stdout


def _custom_text(**keys):
    """A custom GL2(Z/9) scenario file, with ``keys`` replacing its lines."""
    lines = {
        "generators": "[[[1,1],[0,1]],[[1,0],[1,1]],[[2,0],[0,1]]]",
        "H": "[[1,0]]",
        **keys,
    }
    return "scenario = custom\nell = 3\nlevel = 2\ng = 1\n" + "".join(
        f"{key} = {val}\n" for key, val in lines.items()
    )


@pytest.mark.parametrize(
    "command, text, flags",
    [
        pytest.param("degrees", _custom_text(generators="7"), [], id="generators-not-a-list"),
        pytest.param("stabilizer", _custom_text(generators="7"), [], id="stabilizer-generators"),
        pytest.param("degrees", _custom_text(H="[[1.5,0]]"), [], id="H-float"),
        pytest.param("stabilizer", _custom_text(H="[[1.5,0]]"), [], id="stabilizer-H-float"),
        pytest.param(
            "degrees", _custom_text(generators="[[[2.9,1],[0,1]],[[1,0],[1,1]]]"), [],
            id="generators-float",
        ),
        pytest.param("degrees", _custom_text(generators="[[[true,1],[0,1]]]"), [], id="generators-true"),
        pytest.param("degrees", _custom_text(H="[[true,0]]"), [], id="H-true"),
        pytest.param("degrees", _custom_text(H='[["1",0]]'), [], id="H-string"),
        pytest.param("degrees", _custom_text(generators="[[[1,1]]]"), [], id="generator-not-square"),
        pytest.param("degrees", _custom_text(), ["--H", "[[1.7,0],[0,1]]"], id="flag-H-float"),
        pytest.param("degrees", None, ["cm", "--ell", "5", "--g", "2", "--H", "[[1.5,0,0,0]]"], id="cm-flag-H-float"),
        pytest.param("m1", None, ["--ell", "5", "--g", "1", "--H", "[[1.7,0],[0,1]]"], id="m1-H-float"),
        pytest.param("m1", None, ["--ell", "5", "--g", "1", "--H", '[["1",0]]'], id="m1-H-string"),
        pytest.param("m1", None, ["--ell", "5", "--g", "1", "--H", "[[true,0]]"], id="m1-H-true"),
        pytest.param("m1", None, ["--ell", "5", "--g", "1", "--H", "5"], id="m1-H-not-a-list"),
    ],
)
def test_malformed_generators_and_H_exit_one(tmp_path, capsys, command, text, flags):
    argv = [command, *flags]
    if text is not None:
        path = tmp_path / "scenario.txt"
        path.write_text(text)
        argv += ["--scenario-file", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "integer" in err


def _no_work(*args, **kwargs):
    pytest.fail("a builder ran before the input was checked")


@pytest.mark.parametrize("command", ["degrees", "scenario", "sweep", "stabilizer"])
@pytest.mark.parametrize(
    "scenario, text, flags, message",
    [
        pytest.param(
            "cm", None, ["--g", "2", "--H", "[[1,0,0]]"],
            "--H rows must have length 2g = 4, got 3", id="cm-flag-H",
        ),
        pytest.param(
            "selfproduct", None, ["--H", "[[1,0,0,1],[1,0]]"],
            "--H rows must have length 2g = 4, got 2", id="selfproduct-flag-H",
        ),
        pytest.param(
            None, _custom_text(), ["--H", "[[1,0,0,0]]"],
            "--H rows must have length 2g = 2, got 4", id="custom-flag-H",
        ),
        pytest.param(
            None, _custom_text(H="[[1,0,0]]"), [],
            "scenario key 'H' rows must have length 2g = 2, got 3", id="custom-file-H",
        ),
        pytest.param(
            None, _custom_text(generators="[[[1,1],[0,1]],[[1,0,0],[0,1,0],[0,0,1]]]"), [],
            "scenario key 'generators' needs 2g x 2g = 2x2 matrices, got 3x3",
            id="custom-generator",
        ),
    ],
)
def test_dimension_errors_name_the_input_before_any_work(
    tmp_path, capsys, monkeypatch, command, scenario, text, flags, message
):
    for name in ("scenario_cm", "scenario_selfproduct", "close", "orbit_degree_report"):
        monkeypatch.setattr(cli.gm, name, _no_work)
    argv = [command, *([scenario] if scenario else []), "--ell", "3", *flags]
    if text is not None:
        path = tmp_path / "scenario.txt"
        path.write_text(text)
        argv += ["--scenario-file", str(path)]
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


def test_m1_H_of_the_wrong_length_names_the_flag(capsys):
    code, out, err = run_cli(capsys, "m1", "--ell", "5", "--g", "2", "--H", "[[1,0]]")
    assert (code, out, err) == (1, "", "error: --H rows must have length 2g = 4, got 2\n")


@pytest.mark.parametrize(
    "flags, message",
    [
        pytest.param(["--ell", "3,x"], "argument --ell: bad list", id="ell-not-int"),
        pytest.param(
            ["--ell", "3,6"], "argument --ell: entries must be prime, got 6", id="ell-not-prime"
        ),
        pytest.param(["--ell", "5", "--cap", "0"], "argument --cap: must be", id="cap-zero"),
        pytest.param(["--ell", "5", "--cap", "many"], "argument --cap: must be", id="cap-not-int"),
    ],
)
@pytest.mark.parametrize("command", [["degrees", "cm"], ["verify-mumford"]], ids=lambda c: c[0])
def test_ell_and_cap_are_checked_when_parsed(capsys, command, flags, message):
    code, out, err = run_cli(capsys, *command, *flags)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: ") and message in err


def test_scenario_file_ell_must_be_prime(tmp_path, capsys):
    path = tmp_path / "cm.txt"
    path.write_text("scenario = cm\nell = 4\ng = 2\n")
    code, out, err = run_cli(capsys, "degrees", "--scenario-file", str(path))
    assert (code, out, err) == (1, "", "error: ell must be prime, got 4\n")
    # --ell overrides the file's ell, so the file's is not checked
    assert run_cli(capsys, "degrees", "--scenario-file", str(path), "--ell", "5")[0] == 0


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_scenario_and_degrees_print_the_same_bytes(tmp_path, capsys, fmt):
    path = tmp_path / "custom.txt"
    path.write_text(_custom_text())
    for args in (["cm", "--ell", "5,13", "--g", "2"], ["--scenario-file", str(path)]):
        code, degrees, _ = run_cli(capsys, "degrees", *args, "--format", fmt)
        assert code == 0 and degrees
        assert run_cli(capsys, "scenario", *args, "--format", fmt) == (0, degrees, "")


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_verify_mumford_prints_the_degrees_mumford_reports(capsys, fmt):
    code, verify, _ = run_cli(capsys, "verify-mumford", "--ell", "3,5", "--format", fmt)
    assert code == 0
    assert run_cli(capsys, "degrees", "mumford", "--ell", "3,5", "--format", fmt) == (0, verify, "")
    if fmt == "table":
        assert verify.splitlines()[-1] == "note: stabilizer within the enumerated image"


@pytest.mark.parametrize("name", ["cm", "selfproduct", "mumford"])
def test_sweep_is_degrees_plus_one_summary(capsys, name):
    args = [name, "--ell", "3,5"]
    _, degrees, _ = run_cli(capsys, "degrees", *args)
    code, sweep, _ = run_cli(capsys, "sweep", *args)
    assert code == 0
    assert sweep.startswith(degrees)
    (summary,) = sweep[len(degrees) :].splitlines()
    assert summary.startswith("summary: max_ratio=")
    _, degrees, _ = run_cli(capsys, "degrees", *args, "--format", "json")
    _, sweep, _ = run_cli(capsys, "sweep", *args, "--format", "json")
    doc = json.loads(sweep)
    assert list(doc) == ["reports", "summary"]
    assert doc["reports"] == json.loads(degrees)["reports"]


def _diag_block(x):
    (a, b), (c, d) = x
    return [[a, b, 0, 0], [c, d, 0, 0], [0, 0, a, b], [0, 0, c, d]]


@pytest.mark.parametrize(
    "name, argv, size",
    [
        ("cm", ["--g", "2", "--ell", "5", "--level", "2", "--H", "[[1,0,0,0]]"], 400),
        ("selfproduct", ["--ell", "3", "--level", "2", "--H", "[[1,0,0,0]]"], 54),
        ("cm", ["--g", "2", "--ell", "5", "--level", "2", "--H", "[[0,0,0,0]]"], 20**3),
        ("selfproduct", ["--ell", "3", "--level", "2", "--H", "[[0,0,0,0]]"], 3888),
    ],
)
def test_stabilizer_prints_the_fixing_builder_rows_in_builder_order(capsys, name, argv, size):
    # G enumerated independently, in the builder's documented order: the
    # diagonal similitudes diag(d1, d2, lam/d2, lam/d1) by (lam, d1, d2), or
    # diag-block(x, x) for x in GL2 by the entries of x; T is the elements
    # fixing v, all of G for v = 0, so every builder row is pinned
    ring = ResidueRing(int(argv[argv.index("--ell") + 1]), 2)
    mod = ring.modulus
    if name == "cm":
        units = list(ring.units())
        G = [
            MatrixMod.diagonal(ring, [d1, d2, lam * ring.inverse(d2), lam * ring.inverse(d1)])
            for lam, d1, d2 in itertools.product(units, repeat=3)
        ]
    else:
        G = [
            MatrixMod(ring, _diag_block(((a, b), (c, d))))
            for a, b, c, d in itertools.product(range(mod), repeat=4)
            if (a * d - b * c) % ring.ell
        ]
    (v,) = json.loads(argv[argv.index("--H") + 1])
    expected = [list(M.flat()) for M in G if list(M.apply(v)) == v]
    assert len(expected) == size
    code, out, _ = run_cli(capsys, "stabilizer", name, *argv, "--format", "json")
    assert code == 0
    (report,) = json.loads(out)["reports"]
    assert report["stabilizer_size"] == size
    assert report["stabilizer_elements"] == expected


@pytest.mark.parametrize("v", [(1, 0), (0, 1), (1, 1), (2, 7), (3, 0), (0, 0)])
def test_stabilizer_prints_the_fixing_closure_rows_in_closure_order(tmp_path, capsys, v):
    # GL2(Z/9) from the README's generators, closed by the one-product-at-a-
    # time reference search: T is its elements with M v = v, in its order;
    # all of them for v = 0
    ring = ResidueRing(3, 2)
    rows = [[[1, 1], [0, 1]], [[1, 0], [1, 1]], [[2, 0], [0, 1]]]
    G = reference_close(standard_form(1, ring), [MatrixMod(ring, r) for r in rows])
    expected = [list(flat) for flat in G if MatrixMod.from_flat(ring, 2, flat).apply(v) == v]
    path = tmp_path / "gl2_9.txt"
    path.write_text(
        f"scenario = custom\nell = 3\nlevel = 2\ng = 1\ngenerators = {rows}\nH = [{list(v)}]\n"
    )
    code, out, err = run_cli(capsys, "stabilizer", "--scenario-file", str(path), "--format", "json")
    assert (code, err) == (0, "")
    (report,) = json.loads(out)["reports"]
    assert report["stabilizer_size"] == len(expected)
    assert report["stabilizer_elements"] == expected
