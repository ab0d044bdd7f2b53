"""Command line surface: output shapes, exit codes, JSON reports."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crystal_ca.cli import main

ROOT = Path(__file__).resolve().parent.parent

ROWS = [
    "1112211211111111",
    "1111122121111111",
    "1111111212211111",
    "1111111121122111",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rmatrix_oracle(capsys):
    code, out, _ = run(capsys, "rmatrix", "--algebra", "A1", "--rank", "3",
                       "--lhs", "111223", "--rhs", "344")
    assert code == 0
    assert out.strip() == "223.111344"


def test_rmatrix_factorized_chain(capsys):
    code, out, _ = run(capsys, "rmatrix", "--algebra", "A1", "--rank", "3",
                       "--lhs", "111223", "--rhs", "344",
                       "--mode", "factorized", "--k", "3", "--margin", "1")
    assert code == 0
    assert out.splitlines() == [
        "111223.344",
        "S_0 -> 112234.344",
        "S_3 -> 112234.334",
        "S_2 -> 112224.334",
        "-> 223.111344",
    ]


def test_rmatrix_factorized_declines(capsys):
    code, out, err = run(capsys, "rmatrix", "--algebra", "A1", "--rank", "3",
                         "--lhs", "11223", "--rhs", "344",
                         "--mode", "factorized", "--k", "3", "--margin", "1")
    assert code == 1
    assert "inapplicable (domain)" in err


def test_simulate_all_modes_rows(capsys):
    code, out, err = run(capsys, "simulate", "--algebra", "A1", "--rank", "1",
                         "--background-k", "1", "--state", ".".join(ROWS[0]),
                         "--steps", "3", "--mode", "all", "--sep", "", "--pad", "3")
    assert code == 0
    assert out.splitlines() == ROWS
    assert err == ""


def test_simulate_emit_json(tmp_path, capsys):
    path = tmp_path / "sim.json"
    code, _, _ = run(capsys, "simulate", "--algebra", "A1", "--rank", "1",
                     "--background-k", "1", "--state", "2.2", "--steps", "1",
                     "--mode", "carrier", "--M", "4", "--emit-json", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["schema"] == 1 and doc["mode"] == "carrier" and doc["k"] == 1
    assert doc["steps"][1]["carrier"] == ["1111", "1112", "1122", "1112", "1111"]
    sites = doc["steps"][1]["sites"]
    assert "".join(sites).strip("1").startswith("2")


def test_simulate_fine_mode(capsys):
    code, out, _ = run(capsys, "simulate", "--algebra", "A1", "--rank", "1",
                       "--background-k", "1", "--state", "2.2", "--steps", "1",
                       "--mode", "fine", "--sep", "", "--pad", "0")
    assert code == 0
    # rank 1 has a single chain color, so the one fine step is the full step
    assert out.splitlines() == ["2211", "1122"]


def test_malformed_state_exit_2(capsys):
    code, _, err = run(capsys, "simulate", "--algebra", "A1", "--rank", "1",
                       "--background-k", "1", "--state", "2.z")
    assert code == 2
    assert "position" in err


def test_backend_missing_exit_3(capsys):
    code, _, err = run(capsys, "rmatrix", "--algebra", "A2odd", "--rank", "3",
                       "--lhs", "111", "--rhs", "11")
    assert code == 3
    assert "crystal-graph" in err or "backend" in err.lower()


def test_cap_exceeded_exit_4(tmp_path, capsys):
    code, _, err = run(capsys, "graph", "export", "--algebra", "A1", "--rank", "8",
                       "--l", "60", "--out", str(tmp_path / "big.graph"))
    assert code == 4
    assert "exceeds cap" in err


def test_verify_theorem_json_deterministic(tmp_path, capsys):
    paths = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, out, _ = run(capsys, "verify", "theorem", "--algebra", "A1",
                           "--rank", "2", "--shape", "2,1", "--trials", "20",
                           "--seed", "9", "--emit-json", str(path))
        assert code == 0
        assert json.loads(out)["passes"] == 20
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_verify_yb(capsys):
    code, out, _ = run(capsys, "verify", "yb", "--algebra", "A1", "--rank", "1",
                       "--sizes", "1,2,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["cases"] == 18 and doc["mismatches"] == 0


def test_verify_yb_bad_sizes(capsys):
    code, _, err = run(capsys, "verify", "yb", "--algebra", "A1", "--rank", "1",
                       "--sizes", "1,2")
    assert code == 2


def test_verify_tmap(capsys):
    code, out, _ = run(capsys, "verify", "tmap", "--algebra", "A1", "--rank", "2",
                       "--l", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == [] and doc["elements"] == 3 + 6 + 10


def test_verify_corollary(capsys):
    code, out, _ = run(capsys, "verify", "corollary", "--algebra", "A1",
                       "--rank", "2", "--trials", "6", "--seed", "2",
                       "--max-window", "4", "--max-cap", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["passes"] == 6 and doc["failures"] == []


def test_verify_columns(capsys):
    code, out, _ = run(capsys, "verify", "columns", "--algebra", "A1",
                       "--rank", "2", "--l", "2", "--trials", "10", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["passes"] + doc["flagged"] == 10 and doc["failures"] == []


def test_graph_export_check_roundtrip(tmp_path, capsys):
    path = tmp_path / "a1_b2.graph"
    code, _, _ = run(capsys, "graph", "export", "--algebra", "A1", "--rank", "1",
                     "--l", "2", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "graph", "check", str(path))
    assert code == 0 and out.startswith("ok: A1 rank 1 B_2")


def test_graph_check_tampered_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_text("A1 1 2\n11 1 22\n22 0 12\n12 0 11\n")
    code, _, err = run(capsys, "graph", "check", str(path))
    assert code == 1
    assert "admission failed" in err


def test_graph_export_without_backend(capsys):
    code, _, err = run(capsys, "graph", "export", "--algebra", "C1", "--rank", "2",
                       "--l", "1")
    assert code == 3


def console_script(*argv):
    """Run the `crystal-ca` entry point that pyproject.toml declares, the way
    an installed console script calls it, in a fresh interpreter."""
    import tomllib  # Python 3.11+; only these tests read pyproject.toml

    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["crystal-ca"]
    module, func = target.split(":")
    code = f"import sys; from {module} import {func}; sys.argv[0] = 'crystal-ca'; sys.exit({func}())"
    return run_python("-c", code, *argv)


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=ROOT)


def test_console_script_help():
    for proc in (console_script("--help"), run_python("-m", "crystal_ca", "--help")):
        assert proc.returncode == 0
        assert "simulate" in proc.stdout and "verify" in proc.stdout


def test_console_script_end_to_end():
    proc = console_script("rmatrix", "--algebra", "A1", "--rank", "3",
                          "--lhs", "111223", "--rhs", "344")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "223.111344"
