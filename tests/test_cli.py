import json
import os

import pytest

from tessella.cli import main

HERE = os.path.dirname(__file__)
INSTANCES = os.path.join(HERE, os.pardir, "instances")


def inst(name):
    return os.path.join(INSTANCES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_covol_heisenberg(capsys):
    code, rep = run_json(capsys, "covol", inst("heis_integer.json"))
    assert code == 0
    assert rep["covolume"] == "1"
    assert rep["schema"] == "tessella-report/1"
    assert rep["timing_ms"] is None


def test_covol_euclidean(capsys):
    code, rep = run_json(capsys, "covol", inst("pair_square_rectangle.json"))
    assert code == 0
    assert rep["covolume"] == "1"


def test_check_obstruction_exits_3(capsys):
    code, rep = run_json(capsys, "check",
                         inst("obstruction_two_components.json"))
    assert code == 3
    assert rep["verdict"] == "FAIL"
    assert rep["ratios"] == ["2", "1/2"]
    assert rep["offending"] == [0, 1]


def test_common_fd_obstruction_message(capsys):
    code, rep = run_json(capsys, "common-fd",
                         inst("obstruction_two_components.json"))
    assert code == 3
    assert rep["verdict"] == "obstruction"
    assert "2" in rep["reason"] and "1/2" in rep["reason"]


def test_common_fd_euclidean(capsys):
    code, rep = run_json(capsys, "common-fd",
                         inst("pair_square_rectangle.json"))
    assert code == 0
    assert rep["measure"] == "1"
    assert rep["verdict"] == "ok"
    assert rep["domain"]["frame"] == [["1/2", "0"], ["0", "1"]]


def test_verify_tiling_pass(capsys):
    code, rep = run_json(capsys, "verify", inst("square_tiling.json"))
    assert code == 0
    assert rep["verdict"] == "PASS"


def test_finite_check_and_construct(capsys):
    code, rep = run_json(capsys, "finite", "check",
                         inst("z6_one_plus_half.json"))
    assert code == 0
    assert rep["verdict"] == "PASS"

    code, rep = run_json(capsys, "finite", "construct",
                         inst("z6_one_plus_half.json"))
    assert code == 0
    assert rep["fs"] == [[0, 1]]
    assert rep["f_eps"] == [2]
    assert rep["f_eps_measure"] == "1/6"


def test_finite_oracle_reports_nonexistence(capsys):
    code, rep = run_json(capsys, "finite", "oracle",
                         inst("z6_one_plus_half.json"))
    assert code == 0
    assert rep["common_fd_exists"] is False


def test_heis_reduce_frozen(capsys):
    code, rep = run_json(capsys, "heis", "reduce", inst("heis_reduce.json"))
    assert code == 0
    assert rep["exponents"] == [1, -1, 3]
    assert rep["gamma"] == {"x1": "1", "x2": "-1", "c": "2"}
    assert rep["omega"] == {"x1": "1/2", "x2": "3/4", "c": "9/20"}


def test_heis_mc_verify(capsys):
    code, rep = run_json(capsys, "heis", "mc-verify",
                         inst("heis_psi_cell.json"), "--samples", "64")
    assert code == 0
    assert rep["verdict"] == "tiling-evidence"
    assert rep["histogram"] == {"1": 64}


def test_growth(capsys):
    code, rep = run_json(capsys, "growth", "6")
    assert code == 0
    assert rep["sizes"] == [1, 5, 17, 53, 135, 299, 593]


def test_boundary_series(capsys):
    code, rep = run_json(capsys, "boundary", inst("boundary_cubes.json"))
    assert code == 0
    first = rep["series"][0]
    assert first["interior"] == 1
    assert first["boundary"] == 3
    ratios = [
        eval_frac(e["ratio"]) for e in rep["series"]  # "p/q" strings
    ]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def eval_frac(s):
    from fractions import Fraction

    return Fraction(s)


def test_reports_are_byte_identical(capsys):
    _, first = run(capsys, "check", inst("z6_one_plus_half.json"))
    _, second = run(capsys, "check", inst("z6_one_plus_half.json"))
    assert first == second


def test_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(capsys, "covol", inst("heis_integer.json"),
                    "--out", str(target))
    assert code == 0
    assert target.read_bytes().decode() == out


def test_plots_written_next_to_out(tmp_path, capsys):
    target = tmp_path / "growth.json"
    code, _ = run(capsys, "growth", "6", "--out", str(target),
                  "--svg", "--csv")
    assert code == 0
    svg = (tmp_path / "growth.svg").read_text()
    assert svg.startswith("<svg") or "<svg" in svg
    csv = (tmp_path / "growth.csv").read_text()
    assert csv.splitlines()[0] == "n,ball_size"
    assert csv.splitlines()[1] == "0,1"


def test_timing_flag_fills_duration(capsys):
    code, rep = run_json(capsys, "growth", "4", "--timing")
    assert code == 0
    assert isinstance(rep["timing_ms"], float)
    assert rep["timing_ms"] >= 0


def test_verify_failure_exits_2_with_witness(tmp_path, capsys):
    doc = {
        "schema": "tessella-euclidean/1",
        "lattice": {"dim": 2, "basis": [["1", "0"], ["0", "1"]]},
        "region": {
            "frame": [["1", "0"], ["0", "1"]],
            "boxes": [{"lo": ["0", "0"], "hi": ["1/2", "1"]}],
        },
        "mode": "tiling",
    }
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, rep = run_json(capsys, "verify", str(path))
    assert code == 2
    assert rep["verdict"] == "FAIL"
    assert rep["witness"]["multiplicity"] == 0


def test_check_dimension_mismatch_exits_4(tmp_path, capsys):
    doc = {
        "schema": "tessella-euclidean/1",
        "lattice": {"dim": 3, "basis": [["1", "0", "0"], ["0", "1", "0"],
                                        ["0", "0", "2"]]},
        "lattice2": {"dim": 2, "basis": [["1", "0"], ["0", "1"]]},
    }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("check", "common-fd"):
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "different dimension" in captured.err


def test_missing_file_exits_4(capsys):
    code = main(["covol", "/nonexistent/nope.json"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("error:")


def test_svg_without_out_exits_4(capsys):
    code = main(["growth", "5", "--svg"])
    err = capsys.readouterr().err
    assert code == 4
    assert "error:" in err


def test_unknown_subcommand_exits_4(capsys):
    code = main(["frobnicate"])
    assert code == 4
    assert "error:" in capsys.readouterr().err


def test_wrong_schema_for_command_exits_4(capsys):
    code = main(["covol", inst("z6_one_plus_half.json")])
    assert code == 4
    assert "error:" in capsys.readouterr().err
