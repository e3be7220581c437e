import json
import time

import pytest

from iterant_lab import groups
from iterant_lab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_group_table_json(capsys):
    code, out = run_cli(capsys, "group", "table", "--group", "s3", "--gtable",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["table"] == groups.g_table_names(groups.symmetric(3))


def test_group_table_text_aligned(capsys):
    code, out = run_cli(capsys, "group", "table", "--group", "c3")
    assert code == 0
    assert "S^2" in out


def test_group_table_deterministic(capsys):
    _, first = run_cli(capsys, "group", "table", "--group", "c6", "--format", "json")
    _, second = run_cli(capsys, "group", "table", "--group", "c6", "--format", "json")
    assert first == second


def test_lof_reduce_exit_codes(capsys):
    code, out = run_cli(capsys, "lof", "reduce", "(())")
    assert code == 1
    assert out.strip().endswith("unmarked")
    code, out = run_cli(capsys, "lof", "reduce", "()()")
    assert code == 0
    assert out.strip().endswith("marked")


def test_lof_reduce_trace(capsys):
    code, out = run_cli(capsys, "lof", "reduce", "((()())())()", "--trace")
    assert code == 0
    assert "calling" in out or "crossing" in out


def test_lof_random_fuzz(capsys):
    code, out = run_cli(capsys, "lof", "reduce", "--random", "50", "5", "11")
    assert code == 0
    assert "disagreements: 0" in out


def test_matrep_decompose(tmp_path, capsys):
    matrix_file = tmp_path / "m.json"
    matrix_file.write_text(json.dumps({"matrix": [[1, 2], [3, 4]]}))
    code, out = run_cli(capsys, "matrep", "decompose", "--matrix", str(matrix_file))
    assert code == 0
    payload = json.loads(out)
    assert payload["reassembly_exact"] is True
    perms = {t["perm"] for t in payload["terms"]}
    assert perms == {"()", "(12)"}


def test_matrep_isocheck(capsys):
    code, out = run_cli(capsys, "matrep", "isocheck", "--group", "c3",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["isomorphism"] is True


def test_matrep_isocheck_natural(capsys):
    code, out = run_cli(capsys, "matrep", "isocheck", "--group", "s3", "--natural",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["algebra_dim"] == 18
    assert payload["isomorphism"] is False


def test_iterant_eval(capsys):
    code, out = run_cli(capsys, "iterant", "eval", "[-1,1]e", "[-1,1]e",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["product"] == "[-1,-1]"


def test_clifford_quaternions(capsys):
    code, out = run_cli(capsys, "clifford", "quaternions", "--variant", "klein4",
                        "--verify", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["table_holds"] is True
    assert payload["dim"] == 4


def test_clifford_braid_compare(capsys):
    code, out = run_cli(capsys, "clifford", "braid", "--n", "4", "--word", "1 2 1",
                        "--compare", "2 1 2", "--format", "json")
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_clifford_braid_unequal_words(capsys):
    code, out = run_cli(capsys, "clifford", "braid", "--n", "3", "--word", "1",
                        "--compare", "2", "--format", "json")
    assert code == 1
    assert json.loads(out)["equal"] is False


def test_clifford_fusion(capsys):
    code, out = run_cli(capsys, "clifford", "fusion", "--power", "10",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["powers"][10] == {"n": 10, "unit": 34, "p": 55}


def test_dirac_verify(capsys):
    code, out = run_cli(capsys, "dirac", "verify", "--E", "5", "--p", "3", "--m", "4",
                        "--version", "time_reversed", "--dim", "1d")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    names = {c["check"] for c in payload["checks"]}
    assert {"u_squared_zero", "anticommutator", "plane_wave_residual"} <= names


def test_dirac_verify_3d(capsys):
    code, out = run_cli(capsys, "dirac", "verify", "--E", "5", "--p", "1,2,2",
                        "--m", "4", "--version", "conjugate", "--dim", "3d")
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_dirac_majorana_generators(capsys):
    code, out = run_cli(capsys, "dirac", "majorana-generators", "--emit-matrices")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_real"] is True
    assert "ax" in payload["matrices"]


def test_discrete_commutator(capsys):
    code, out = run_cli(capsys, "discrete", "commutator", "--seq", "0,1,0,1,0",
                        "--dt", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is True


def test_schrodinger_run_csv(tmp_path, capsys):
    out_file = tmp_path / "run.csv"
    code, _ = run_cli(capsys, "schrodinger", "run", "--n", "16", "--dt", "0.05",
                      "--steps", "20", "--init", "gaussian:mu=8,sigma=2",
                      "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "t_index,cell,psi_e,psi_o,re,im,abs2"
    assert len(lines) == 1 + 11 * 16  # initial sample + 10 pairs, 16 cells each


def test_schrodinger_dispersion_json(capsys):
    code, out = run_cli(capsys, "schrodinger", "run", "--n", "64", "--dt", "0.05",
                        "--steps", "400", "--dispersion", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["rel_error"] < 0.02


def test_verify_all_seeded_subprocess_free(capsys):
    # full run is exercised by the acceptance suite; here just check the parser
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["group", "table"])  # missing --group
    assert err.value.code == 2


def test_bad_inputs_exit_two(capsys):
    assert main(["group", "table", "--group", "nosuch"]) == 2
    assert main(["lof", "reduce", "(()"]) == 2
    assert main(["dirac", "verify", "--E", "5", "--p", "1,2", "--m", "0",
                 "--dim", "3d"]) == 2
    assert main(["matrep", "isocheck", "--group", "c3", "--natural"]) == 2


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, _ = run_cli(capsys, "group", "table", "--group", "c3", "--format", "json",
                      "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["group"] == "c3"


def one_error_line(err: str) -> bool:
    return len([line for line in err.splitlines() if "error" in line.lower()]) == 1


def test_discrete_commutator_zero_dt(capsys):
    code = main(["discrete", "commutator", "--seq", "0,1,0,1,0", "--dt", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert one_error_line(captured.err)


def test_clifford_fusion_negative_power(capsys):
    code = main(["clifford", "fusion", "--power", "-1", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert one_error_line(captured.err)


def test_schrodinger_dispersion_overflow_fails_without_nan(capsys):
    code = main(["schrodinger", "run", "--dt", "1", "--dispersion", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "nan" not in captured.out.lower()


@pytest.mark.parametrize("argv", [
    ["group", "table", "--group", "s9"],
    ["matrep", "isocheck", "--group", "s7", "--natural"],
])
def test_symmetric_degree_cap_exits_two_at_once(capsys, argv):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    assert code == 2
    assert one_error_line(capsys.readouterr().err)
    assert elapsed < 1.0


DIRAC_OFF_SHELL_ROWS = [
    ("on_shell", "1", "4", False),
    ("u_squared_zero", "U^2", "0", False),
    ("dagger_squared_zero", "U+^2", "0", False),
    ("anticommutator", "U U+ + U+ U", "4E^2", False),
    ("split_squares", "A^2, B^2", "1, 1", False),
    ("split_anticommute", "AB + BA", "0", True),
    ("split_rebuild", "(A + iB)E, (A - iB)E", "U, U+", True),
    ("plane_wave_residual", "D ba U", "defect -3", True),
]
DIRAC_3D_ROWS = [
    ("on_shell", "25", "25", True),
    ("u_squared_zero", "U^2", "0", True),
    ("dagger_squared_zero", "U+^2", "0", True),
    ("anticommutator", "U U+ + U+ U", "4E^2", True),
    ("split_squares", "A^2, B^2", "1, 1", True),
    ("split_anticommute", "AB + BA", "0", True),
    ("split_rebuild", "(A + iB)E, (A - iB)E", "U, U+", True),
    ("plane_wave_residual", "D ba U", "0", True),
]


def _conjugate_rows(rows):
    return [(c, lhs, "2(p+m)^2" if c == "anticommutator" else rhs, ok)
            for c, lhs, rhs, ok in rows]


@pytest.mark.parametrize("argv, code, rows", [
    (["--E", "2", "--p", "1", "--m", "0"], 1, DIRAC_OFF_SHELL_ROWS),
    (["--E", "2", "--p", "1", "--m", "0", "--version", "conjugate"], 1,
     _conjugate_rows(DIRAC_OFF_SHELL_ROWS)),
    # E = 0: the Majorana split divides by E, so its rows are left out.
    (["--E", "0", "--p", "0", "--m", "0"], 0, [
        ("on_shell", "0", "0", True),
        ("u_squared_zero", "U^2", "0", True),
        ("dagger_squared_zero", "U+^2", "0", True),
        ("anticommutator", "U U+ + U+ U", "4E^2", True),
        ("plane_wave_residual", "D ba U", "0", True),
    ]),
    (["--E", "0", "--p", "1", "--m", "2", "--version", "conjugate"], 1, [
        ("on_shell", "5", "0", False),
        ("u_squared_zero", "U^2", "0", False),
        ("dagger_squared_zero", "U+^2", "0", False),
        ("anticommutator", "U U+ + U+ U", "2(p+m)^2", False),
        ("plane_wave_residual", "D ba U", "defect 5", True),
    ]),
    (["--E", "5", "--p", "1,2,2", "--m", "4", "--dim", "3d"], 0, DIRAC_3D_ROWS),
    (["--E", "5", "--p", "1,2,2", "--m", "4", "--dim", "3d", "--version", "conjugate"], 0,
     _conjugate_rows(DIRAC_3D_ROWS)),
])
def test_dirac_verify_rows(capsys, argv, code, rows):
    got_code, out = run_cli(capsys, "dirac", "verify", *argv)
    payload = json.loads(out)
    assert got_code == code
    assert [(c["check"], c["lhs"], c["rhs"], c["pass"]) for c in payload["checks"]] == rows
    assert payload["all_pass"] is (code == 0)


def test_lof_random_fuzz_json(capsys):
    code, out = run_cli(capsys, "lof", "reduce", "--random", "50", "5", "11",
                        "--format", "json")
    assert code == 0
    assert out == '{\n  "disagreements": 0,\n  "trials": 50\n}\n'


@pytest.mark.parametrize("argv, matrix", [
    (["discrete", "commutator", "--seq", "1/0,1"], None),
    (["discrete", "commutator", "--seq", "0,1,0", "--dt", "1/0"], None),
    (["dirac", "verify", "--E", "1/0", "--p", "1", "--m", "1"], None),
    (["iterant", "eval", "[1/0,2]", "[1,2]"], None),
    (["matrep", "decompose"], [["1/0", 1], [2, 3]]),
    (["matrep", "decompose"], [[[1, 0], 1], [2, 3]]),
])
def test_zero_denominator_is_a_usage_error(tmp_path, capsys, argv, matrix):
    if matrix is not None:
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"matrix": matrix}))
        argv = argv + ["--matrix", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: zero denominator in '1/0'\n"


@pytest.mark.parametrize("cell, message", [
    (0.5, "error: matrix cell (0, 0) is 0.5; "),
    (None, "error: matrix cell (0, 0) is None; "),
    ([1, 2, 3], "error: matrix cell (0, 0) is [1, 2, 3]; "),
    (True, "error: matrix cell (0, 0) is True; "),
    ([None, 1], "error: cannot read None/1 as a rational"),
    ([0.5, 1], "error: cannot read 0.5/1 as a rational"),
    ([1e400, 1], "error: cannot read inf/1 as a rational"),
    ({"re": [0.5, 1]}, "error: cannot read 0.5/1 as a rational"),
])
def test_decompose_bad_cell_is_a_usage_error(tmp_path, capsys, cell, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"matrix": [[cell, 1], [2, 3]]}))
    code = main(["matrep", "decompose", "--matrix", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(message)


def test_schrodinger_csv_overflow_fails_without_rows(tmp_path, capsys):
    code = main(["schrodinger", "run", "--n", "8", "--dt", "1", "--steps", "400",
                 "--init", "planewave:1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "schrodinger run failed: the fields overflowed at r = 1.0000"]


@pytest.mark.parametrize("flags, message", [
    (["--sample-every", "0"], "error: --sample-every must be positive, got 0"),
    (["--init", "gaussian:mu"], "error: cannot read init 'gaussian:mu'; "
                                "use gaussian:mu=..,sigma=.. or planewave:k"),
    (["--init", "planewave:x"], "error: cannot read init 'planewave:x'; "
                                "use gaussian:mu=..,sigma=.. or planewave:k"),
    # numpy's divide-by-zero warning would print its own stderr lines
    pytest.param(["--init", "gaussian:mu=4,sigma=0"],
                 "error: cannot read init 'gaussian:mu=4,sigma=0'; "
                 "use gaussian:mu=..,sigma=.. or planewave:k",
                 marks=pytest.mark.filterwarnings("error")),
])
def test_schrodinger_bad_flags_give_our_message(capsys, flags, message):
    code = main(["schrodinger", "run", "--n", "8", "--steps", "4", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


@pytest.mark.parametrize("argv", [
    ["group", "table", "--group", "c100000"],
    ["matrep", "isocheck", "--group", "c100000"],
    ["clifford", "fusion", "--power", "1001"],
    ["clifford", "braid", "--n", "100000", "--word", "1"],
    ["matrep", "isocheck", "--group", "c9"],
])
def test_size_caps_exit_two_at_once(capsys, argv):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    assert code == 2
    assert one_error_line(capsys.readouterr().err)
    assert elapsed < 1.0


def test_clifford_fusion_rows_are_fibonacci(capsys):
    code, out = run_cli(capsys, "clifford", "fusion", "--power", "300", "--format", "json")
    assert code == 0
    fib = [0, 1]
    while len(fib) < 302:
        fib.append(fib[-1] + fib[-2])
    expected = [{"n": 0, "unit": 1, "p": 0}] + [
        {"n": n, "unit": fib[n - 1], "p": fib[n]} for n in range(1, 301)]
    assert json.loads(out)["powers"] == expected
