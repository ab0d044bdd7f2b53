"""Command line surface: output shapes, exit codes, JSON reports."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crystal_ca import AlgebraSpec, AutomatonState, automaton, cli, rmatrix
from crystal_ca import clear_tables, make_backend, parse_element
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


def test_rmatrix_factorized_decline_prints_steps_reached(capsys):
    code, out, err = run(capsys, "rmatrix", "--algebra", "A1", "--rank", "3",
                         "--lhs", "3344", "--rhs", "44",
                         "--mode", "factorized", "--k", "1", "--margin", "0")
    assert code == 1
    assert out.splitlines() == ["3344.44", "S_2 -> 2244.44", "S_1 -> 1144.44"]
    assert err.startswith("inapplicable (orientation): eps_0=2 <= phi_0=4 before step 4")


def test_simulate_all_modes_rows(capsys):
    code, out, err = run(capsys, "simulate", "--algebra", "A1", "--rank", "1",
                         "--background-k", "1", "--state", ".".join(ROWS[0]),
                         "--steps", "3", "--mode", "all", "--sep", "", "--pad", "3")
    assert code == 0
    assert out.splitlines() == ROWS
    assert err == ""


def test_simulate_factorized_rows(capsys):
    code, out, err = run(capsys, "simulate", "--algebra", "A1", "--rank", "1",
                         "--background-k", "1", "--state", ".".join(ROWS[0]),
                         "--steps", "3", "--mode", "factorized", "--sep", "", "--pad", "3")
    assert (code, err) == (0, "")
    assert out.splitlines() == ROWS


def test_simulate_all_background_line(capsys):
    # no row has a window, so the rows span -pad..pad around site 0
    code, out, err = run(capsys, "simulate", "--algebra", "A1", "--rank", "1",
                         "--background-k", "1", "--state", "1.1", "--steps", "2",
                         "--sep", "", "--pad", "2")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["11111"] * 3


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


def test_simulate_carrier_pass_only_for_json(tmp_path, monkeypatch, capsys):
    # under --M auto the finite pass at the returned M only fills the JSON
    # carrier words; evolve_T's one pass on builtin A1 makes the steps
    import crystal_ca.cli as cli

    passes = []
    finite = cli.evolve_carrier

    def counted(bk, state, M):
        passes.append(M)
        return finite(bk, state, M)

    monkeypatch.setattr(cli, "evolve_carrier", counted)
    argv = ("simulate", "--algebra", "A1", "--rank", "1", "--background-k", "1",
            "--state", ".".join(ROWS[0]), "--steps", "3", "--mode", "carrier",
            "--sep", "", "--pad", "3")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.splitlines() == ROWS
    assert passes == []
    path = tmp_path / "sim.json"
    code, out, _ = run(capsys, *argv, "--emit-json", str(path))
    assert code == 0 and out.splitlines() == ROWS
    assert passes == [4, 4, 4]  # dev + max(pattern)
    steps = json.loads(path.read_text())["steps"]
    assert steps[0]["carrier"] == []
    assert all(st["carrier"][0] == "1111" for st in steps[1:])


def test_simulate_empty_capacities_exit_2(capsys):
    code, out, err = run(capsys, "simulate", "--algebra", "A1", "--rank", "1",
                         "--state", "2.2", "--capacities", "")
    assert (code, out) == (2, "")
    assert err == "error: --capacities must be comma-separated integers, got ''\n"


@pytest.mark.parametrize("argv", [
    ("simulate", "--algebra", "A1", "--rank", "1", "--state", "2.2"),
    ("verify", "theorem", "--algebra", "A1", "--rank", "1", "--shape", "1",
     "--trials", "2"),
])
def test_empty_emit_json_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--emit-json", ""])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "argument --emit-json: must be a file path, got ''" in captured.err
    assert list(tmp_path.iterdir()) == []


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
    code, _, err = run(capsys, "simulate", "--algebra", "C1", "--rank", "2", "--state", "1.1")
    assert (code, err) == (3, "error: no backend for C1 rank 2 B_1; supply a crystal-graph file\n")


def test_cap_exceeded_exit_4(tmp_path, capsys):
    code, _, err = run(capsys, "graph", "export", "--algebra", "A1", "--rank", "8",
                       "--l", "60", "--out", str(tmp_path / "big.graph"))
    assert code == 4
    assert "exceeds cap" in err


def test_internal_error_exit_6(monkeypatch, capsys):
    # a vertex cell that only ever emits makes the sweep's own invariant check fire
    import crystal_ca.automaton as automaton

    monkeypatch.setattr(automaton, "vertex_step", lambda bk, i, s, b: (b, s + 1))
    code, out, err = run(capsys, "simulate", "--algebra", "A1", "--rank", "1",
                         "--background-k", "1", "--state", "2.2", "--steps", "1",
                         "--mode", "factorized")
    assert code == 6
    assert err == "internal error: background site failed to absorb the sweep\n"


def test_verify_theorem_margin0_mismatch_outside_domain_is_flagged(capsys):
    # at margin 0 the per-step checks alone can pass a wrong chain image; every
    # such draw here has a domain gap of 2-3 against sum(shape) = 6
    argv = ("verify", "theorem", "--algebra", "A1", "--rank", "3", "--shape", "3,3",
            "--margin", "0", "--seed", "1")
    code, out, _ = run(capsys, *argv, "--trials", "400")
    report = json.loads(out)
    assert code == 0
    assert (report["passes"], report["flagged"], report["failures"]) == (153, 247, [])
    code, out, _ = run(capsys, *argv[:-1], "78", "--trials", "1")
    [entry] = json.loads(out)["flagged_examples"]
    assert code == 0 and entry["reason"] == "outside-domain"
    assert entry["input"] == "34444.223.124"
    assert [p["check"] for p in entry["problems"]] == ["image", "t-final"]


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


@pytest.mark.parametrize("suite, args, margin", [
    ("theorem", ("--shape", "1,2"), 3),
    ("theorem", ("--shape", "1", "--margin", "5"), 5),
    ("columns", ("--l", "2"), 2),
], ids=["theorem", "theorem-explicit-margin", "columns"])
def test_M_below_margin_exit_2(capsys, suite, args, margin):
    # no element of B_M is margin-dominated when M < margin: bad input, not a fault
    argv = ("verify", suite, "--algebra", "A1", "--rank", "2", *args, "--trials", "5")
    code, _, err = run(capsys, *argv, "--M", str(margin - 1))
    assert code == 2
    assert err == f"error: M={margin - 1} is below the domain margin {margin}\n"
    code, out, _ = run(capsys, *argv, "--M", str(margin))
    assert code == 0
    assert json.loads(out)["M"] == margin


@pytest.mark.parametrize("argv", [
    ("verify", "theorem", "--shape", "1", "--trials", "2", "--seed", "3"),
    ("verify", "theorem", "--shape", "1", "--trials", "20", "--margin", "0", "--seed", "3"),
    ("verify", "tmap", "--l", "1"),
], ids=["theorem-passing", "theorem-flagged", "tmap"])
def test_unprintable_rank_refused_up_front(capsys, argv):
    # A1 letters stop fitting one character at rank 9: refused before any
    # trial runs, whether or not a report would have printed a word
    code, out, err = run(capsys, *argv, "--algebra", "A1", "--rank", "9")
    assert code == 2
    assert out == ""
    assert err == "error: rank 9 A1 letters do not fit single characters\n"


@pytest.mark.parametrize("argv, flag, value", [
    (("verify", "corollary"), "--max-cap", "0"),
    (("verify", "corollary"), "--max-window", "0"),
    (("verify", "theorem", "--shape", "1"), "--trials", "0"),
    (("verify", "corollary"), "--trials", "-2"),
    (("verify", "columns"), "--trials", "0"),
    (("verify", "tmap"), "--l", "-1"),
    (("verify", "columns"), "--l", "0"),
    (("graph", "export"), "--l", "-2"),
    (("simulate", "--state", "2.2"), "--M", "0"),
    (("verify", "theorem", "--shape", "1"), "--M", "-5"),
    (("verify", "columns"), "--M", "x"),
], ids=["max-cap", "max-window", "theorem-trials", "corollary-trials",
        "columns-trials", "tmap-l", "columns-l", "export-l", "simulate-M",
        "theorem-M", "columns-M"])
def test_count_flags_must_be_positive(capsys, argv, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--algebra", "A1", "--rank", "2", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be a positive integer, got '{value}'" in err


@pytest.mark.parametrize("argv, flag, value", [
    (("verify", "columns"), "--margin", "-4"),
    (("verify", "theorem", "--shape", "1,2"), "--margin", "-3"),
    (("rmatrix", "--lhs", "111223", "--rhs", "344", "--mode", "factorized"), "--margin", "-1"),
    (("simulate", "--state", "2.2"), "--steps", "-3"),
    (("simulate", "--state", "2.2"), "--pad", "-1"),
], ids=["columns", "theorem", "rmatrix", "steps", "pad"])
def test_margin_must_be_nonnegative(capsys, argv, flag, value):
    # the error names the flag, not a capacity derived from it
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--algebra", "A1", "--rank", "3", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be a nonnegative integer, got '{value}'" in err
    assert "capacity" not in err


@pytest.mark.parametrize("argv, code, message", [
    (("yb", "--algebra", "A1", "--rank", "1", "--sizes=-1,1,1"), 2,
     "error: capacity must be positive, got -1"),
    (("tmap", "--algebra", "C1", "--rank", "2", "--l", "2"), 3,
     "error: no backend for C1 rank 2 at levels 1..2"),
    # the backend is asked before B_12 is enumerated, so no size cap fires first
    (("theorem", "--algebra", "D2", "--rank", "4", "--shape", "1,1", "--trials", "4",
      "--seed", "60", "--margin", "3"), 3, "error: no backend for D2 rank 4 B_12;"),
], ids=["yb-negative-size", "tmap-uncovered", "theorem-uncovered"])
def test_suite_that_checks_nothing_fails(capsys, argv, code, message):
    got, out, err = run(capsys, "verify", *argv)
    assert got == code
    assert out == ""
    assert err.startswith(message)


@pytest.mark.parametrize("suite, args", [
    ("theorem", ("--shape", "1,1", "--trials", "4")),
    ("yb", ("--sizes", "1,1,2")),
    ("tmap", ("--l", "2")),
    ("corollary", ("--trials", "3", "--max-window", "3", "--max-cap", "2")),
    ("columns", ("--l", "1", "--trials", "4")),
], ids=["theorem", "yb", "tmap", "corollary", "columns"])
def test_verify_suites_share_head(tmp_path, capsys, suite, args):
    path = tmp_path / f"{suite}.json"
    code, out, _ = run(capsys, "verify", suite, "--algebra", "A1", "--rank", "2",
                       "--brace", "lower", *args, "--emit-json", str(path))
    assert code == 0
    head = {"schema": 1, "suite": suite, "algebra": "A1", "rank": 2, "brace": "lower"}
    for doc in (json.loads(out), json.loads(path.read_text())):
        assert {key: doc.get(key) for key in head} == head
        assert doc["failures"] == []


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


def _shifted(state, by):
    return AutomatonState(state.spec, state.k, state.window_start + by, state.window,
                          state.pattern)


def _factorized_off_by_one_site(monkeypatch):
    # one step lands one site too far right and its inverse undoes that, so
    # only the comparison with the carrier step can see it
    real = cli.evolve_T_factorized

    def step(bk, state, t):
        if t == 1:
            return _shifted(real(bk, state, 1), 1)
        return real(bk, _shifted(state, -1) if t == -1 else state, t)
    monkeypatch.setattr(cli, "evolve_T_factorized", step)


def _fine_stuck_at(steps):
    # evolve_fine leaves the line as it is at chain position k + steps d
    real = cli.evolve_fine
    return lambda bk, state, m: (state if m == state.k + steps * state.spec.d
                                 else real(bk, state, m))


@pytest.mark.parametrize("check, patch", [
    ("factorized-vs-carrier", _factorized_off_by_one_site),
    ("fine-vs-carrier",
     lambda mp: mp.setattr(cli, "evolve_fine", _fine_stuck_at(1))),
    ("inverse", lambda mp: mp.setattr(cli, "evolve_T_factorized", lambda bk, state, t: (
        state if t == -1 else automaton.evolve_T_factorized(bk, state, t)))),
    ("conservation", lambda mp: mp.setattr(
        automaton.AutomatonState, "weight_profile", lambda state: {"at": state.window_start})),
    ("two-step", lambda mp: mp.setattr(cli, "evolve_fine", _fine_stuck_at(2))),
])
def test_verify_corollary_checks_fire(monkeypatch, capsys, check, patch):
    patch(monkeypatch)
    code, out, _ = run(capsys, "verify", "corollary", "--algebra", "A1",
                       "--rank", "2", "--trials", "6", "--seed", "0",
                       "--max-window", "4", "--max-cap", "2")
    doc = json.loads(out)
    assert code == 1 and doc["failures"]
    assert {p["check"] for f in doc["failures"] for p in f["problems"]} == {check}


def test_verify_columns_cell_failure_fires(monkeypatch, capsys):
    # a raising cell that never changes its site disagrees with the chain
    real = automaton.vertex_step
    monkeypatch.setattr(automaton, "vertex_step",
                        lambda bk, i, s, b: (b, real(bk, i, s, b)[1]))
    code, out, _ = run(capsys, "verify", "columns", "--algebra", "A1",
                       "--rank", "2", "--l", "2", "--trials", "10", "--seed", "1")
    doc = json.loads(out)
    assert code == 1 and doc["failures"]
    for entry in doc["failures"]:
        report = entry["report"]
        assert not report["ok"] and not report["cells_ok"]
        assert report["outputs"] == report["oracle_t"]


def test_simulate_all_modes_disagree_exit_5(monkeypatch, capsys):
    monkeypatch.setattr(cli, "evolve_fine", _fine_stuck_at(2))
    code, out, err = run(capsys, "simulate", "--algebra", "A1", "--rank", "1",
                         "--background-k", "1", "--state", ".".join(ROWS[0]),
                         "--steps", "3", "--mode", "all", "--sep", "", "--pad", "3")
    assert code == 5
    assert out.splitlines() == ROWS  # the rows are the carrier's
    assert err == "modes disagree at step 2\n"


def test_missing_table_pair_is_internal_error(tmp_path, monkeypatch, capsys):
    # a stored table holds every pair of valid elements, so a pair missing
    # from one is a fault inside the package, not a bad R table
    path = tmp_path / "b1.graph"
    path.write_text("A1 1 1\n1 1 2\n2 0 1\n")
    monkeypatch.setattr(rmatrix, "get_table", lambda bk, l, m: {})
    spec = AlgebraSpec("A1", 1)
    clear_tables()
    try:
        bk = make_backend(spec, (str(path),))
        with pytest.raises(AssertionError, match="pair 1.2 missing from a complete R table"):
            rmatrix.r_elementary(bk, parse_element(spec, "1"), parse_element(spec, "2"))
        code, out, err = run(capsys, "rmatrix", "--algebra", "A1", "--rank", "1",
                             "--crystal-graph", str(path), "--lhs", "1", "--rhs", "2")
    finally:
        clear_tables()
    assert (code, out) == (6, "")
    assert err == "internal error: pair 1.2 missing from a complete R table\n"


def test_graph_export_check_roundtrip(tmp_path, capsys):
    path = tmp_path / "a1_b2.graph"
    code, _, _ = run(capsys, "graph", "export", "--algebra", "A1", "--rank", "1",
                     "--l", "2", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "graph", "check", str(path))
    assert code == 0 and out.startswith("ok: A1 rank 1 B_2")


def test_graph_export_to_stdout(tmp_path, capsys):
    argv = ("graph", "export", "--algebra", "A1", "--rank", "1", "--l", "2")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    path = tmp_path / "a1_b2.graph"
    assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
    assert out == path.read_text()


TAMPERED = "A1 1 2\n11 1 22\n22 0 12\n12 0 11\n"


def test_graph_check_tampered_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_text(TAMPERED)
    code, _, err = run(capsys, "graph", "check", str(path))
    assert code == 1
    assert "admission failed" in err


def test_command_with_tampered_graph_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_text(TAMPERED)
    code, out, err = run(capsys, "rmatrix", "--algebra", "A1", "--rank", "1",
                         "--crystal-graph", str(path), "--lhs", "11", "--rhs", "2")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: admission failed: ")


@pytest.mark.parametrize("error", [
    rmatrix.RMatrixError("declined"),
    rmatrix.InapplicableError("domain", "declined"),
], ids=["rmatrix", "inapplicable"])
def test_declined_swap_exit_1(monkeypatch, capsys, error):
    # no command lets these escape today; main still reports them as exit 1
    def fail(bk, t):
        raise error
    monkeypatch.setattr(cli, "r_composite", fail)
    code, out, err = run(capsys, "rmatrix", "--algebra", "A1", "--rank", "1",
                         "--lhs", "11", "--rhs", "2")
    assert (code, out, err) == (1, "", "error: declined\n")


def test_graph_check_unprintable_rank_names_header(tmp_path, capsys):
    # the header's rank is refused on line 1, before any arrow is read
    path = tmp_path / "rank9.graph"
    path.write_text("A1 9 1\n1 1 2\n")
    code, out, err = run(capsys, "graph", "check", str(path))
    assert code == 1 and out == ""
    assert err == f"{path}:1: rank 9 A1 letters do not fit single characters\n"


def test_graph_check_not_utf8_exit_1(tmp_path, capsys):
    # undecodable bytes are a malformed graph like any other, named by path
    path = tmp_path / "binary.graph"
    path.write_bytes(b"A1 1 1\n\xb0\xff\x00\x81 0 2\n")
    code, out, err = run(capsys, "graph", "check", str(path))
    assert code == 1 and out == ""
    assert err.startswith(f"{path}: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("graph", "check", "{missing}/in.graph"),
    ("simulate", "--algebra", "A1", "--rank", "1", "--state", "2.2",
     "--crystal-graph", "{missing}/in.graph"),
    ("verify", "tmap", "--algebra", "A1", "--rank", "1", "--l", "1",
     "--emit-json", "{missing}/out.json"),
], ids=["graph-check", "simulate-graph", "emit-json"])
def test_file_error_exit_2(tmp_path, argv):
    missing = tmp_path / "missing"
    proc = run_python("-m", "crystal_ca", *(a.format(missing=missing) for a in argv))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_graph_export_without_backend(capsys):
    code, _, err = run(capsys, "graph", "export", "--algebra", "C1", "--rank", "2",
                       "--l", "1")
    assert code == 3
    assert err == "error: no backend for C1 rank 2 B_1; supply a crystal-graph file\n"


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


def test_theorem_has_no_jobs_flag(capsys):
    # the trials run in one thread; --jobs is gone
    argv = ("verify", "theorem", "--algebra", "A1", "--rank", "2", "--shape", "1")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["verify", "theorem", "--help"])
    assert "--jobs" not in capsys.readouterr().out


# no thread pool, and none of the code-generating or source-reading stdlib
# modules: each costs set-up time in every process that imports the package
NOT_LOADED_BY_IMPORT = ("concurrent.futures", "hashlib", "dataclasses", "inspect", "ast",
                        "dis", "tokenize")


def test_import_loads_no_thread_pool():
    proc = run_python("-c", "import sys, crystal_ca; "
                            f"print([m for m in {NOT_LOADED_BY_IMPORT!r} if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_import_leaves_the_memo_store_empty():
    # every memo fills on first use, never at import
    proc = run_python("-c", "import crystal_ca; print(crystal_ca.crystal._MEMOS)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "{}\n"


def test_console_script_end_to_end():
    proc = console_script("rmatrix", "--algebra", "A1", "--rank", "3",
                          "--lhs", "111223", "--rhs", "344")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "223.111344"
