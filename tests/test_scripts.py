"""Smoke tests for the scripts under ``scripts/``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_mu_s_sweep_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "mu_s_sweep.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    headers = [line for line in proc.stdout.splitlines() if line.startswith("== ")]
    assert headers == ["== cm ==", "== selfproduct ==", "== mumford =="]


MALFORMED_SCENARIO = "scenario = custom\nell = 3\ng = 1\ngenerators = {generators}\nH = {H}\n"
GL2_GENERATORS = "[[[1,1],[0,1]],[[1,0],[1,1]],[[2,0],[0,1]]]"


@pytest.mark.parametrize(
    "argv, scenario",
    [
        (["m1", "--ell", "5", "--g", "1", "--H", "[[1.7,0],[0,1]]"], None),
        (["stabilizer"], {"generators": "7", "H": "[[1,0]]"}),
        (["degrees"], {"generators": GL2_GENERATORS, "H": "[[1.5,0]]"}),
        (["scenario"], {"generators": "[[[2.9,1],[0,1]]]", "H": "[[1,0]]"}),
        (["sweep"], {"generators": GL2_GENERATORS, "H": "[[true,0]]"}),
        (["verify-mumford", "--ell", "3", "--cap", "0"], None),
    ],
    ids=["m1", "stabilizer", "degrees", "scenario", "sweep", "verify-mumford"],
)
def test_cli_rejects_malformed_input_without_a_traceback(tmp_path, argv, scenario):
    # in a subprocess: an uncaught exception also exits 1, and only stderr tells
    if scenario is not None:
        path = tmp_path / "scenario.txt"
        path.write_text(MALFORMED_SCENARIO.format(**scenario))
        argv = [*argv, "--scenario-file", str(path)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "gspimage.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(("error: ", "usage error: "))
