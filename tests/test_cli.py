"""Command-line behavior: outputs, exit codes, determinism, round-trips."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bikoszul import cli, core, koszul, oracle, selftest
from test_koszul import reference_entries


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_dims_command(capsys):
    code, out = run(capsys, "dims", "--type", "1,1,1,2,1",
                    "--degree-vector", "0,-1,1", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["determinantal"] is True
    assert payload["dim_k1"] == payload["dim_k0"] == 10


def test_dims_invalid_type_is_domain_error(capsys):
    code, out = run(capsys, "dims", "--type", "1,2,1,1,3", "--degree-vector", "0,0,0")
    assert code == 1
    record = json.loads(out)
    assert record["error"]["kind"] == "DomainError"
    assert "2-bilinear" in record["error"]["message"]


def test_malformed_values_and_missing_files_report_errors(capsys):
    code, out = run(capsys, "dims", "--type", "a,b,c,d,e", "--degree-vector", "0,0,0")
    assert code == 1 and "error" in json.loads(out)
    code, out = run(capsys, "resultant", "--system", "/no/such/file.json")
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "FileNotFoundError"


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["dims", "--type", "1,1,1,2,1"])  # missing --degree-vector
    assert info.value.code == 2


@pytest.mark.parametrize("argv, missing", [
    (["solve"], "--system"),
    (["resultant", "--field", "fp:101"], "--system"),
    (["oracle", "--field", "fp:31"], "--system"),
    (["dims", "--degree-vector", "0,-1,1"], "--type"),
    (["search-dv", "--box=-2:3"], "--type"),
    (["matrix", "--field", "fp:101"], "--system --type"),
], ids=["solve", "resultant", "oracle", "dims", "search-dv", "matrix"])
def test_a_missing_system_or_type_is_a_usage_error(capsys, argv, missing):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and missing in captured.err


def test_matrix_takes_a_system_or_a_type_not_both(capsys):
    # --type was ignored beside --system
    with pytest.raises(SystemExit) as info:
        cli.main(["matrix", "--system", "paper", "--type", "2,2,2,3,3"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--type: not allowed with argument --system" in captured.err


@pytest.mark.parametrize("argv", [
    ["dims", "--type", "1,1,1,2,1", "--degree-vector", "0,-1,3"],
    ["search-dv", "--type", "1,1,1,2,1"],
    ["resultant", "--system", "paper"],
    ["solve", "--system", "paper"],
    ["oracle", "--system", "paper", "--field", "fp:31"],
], ids=["dims", "search-dv", "resultant", "solve", "oracle"])
def test_csv_output_is_a_usage_error_where_there_is_no_table(capsys, argv):
    # these printed text for --output csv
    with pytest.raises(SystemExit) as info:
        cli.main(argv + ["--output", "csv"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and "invalid choice: 'csv'" in captured.err


def test_matrix_field_without_a_system_is_a_domain_error(capsys):
    # the symbolic matrix was printed and the field dropped
    code, out = run(capsys, "matrix", "--type", "1,1,1,2,1", "--field", "fp:7")
    assert code == 1
    record = json.loads(out)["error"]
    assert record["kind"] == "DomainError"
    assert "--system" in record["message"]


@pytest.mark.parametrize("source", [["--type", "1,1,1,2,1"], ["--system", "paper"]])
def test_matrix_csv_parses_to_size_plus_one_fields_a_line(capsys, source):
    """Labels and entries hold commas; the header read 61 fields and the
    rows 27 or 33 while they went unquoted."""
    code, out = run(capsys, "matrix", *source, "--output", "csv")
    assert code == 0
    lines = list(csv.reader(io.StringIO(out)))
    assert len(lines) == 11 and all(len(line) == 11 for line in lines)
    assert lines[0][0] == "" and all(label.startswith("L1") for label in lines[0][1:])
    assert all(line[0].startswith("L0") for line in lines[1:])
    payload = json.loads(run(capsys, "matrix", *source, "--output", "json")[1])
    assert [line[1:] for line in lines[1:]] == payload["entries"]
    assert [line[0] for line in lines[1:]] == payload["rows"] and lines[0][1:] == payload["cols"]
    assert sum(cell.startswith(("+u[", "-u[")) for line in lines for cell in line) == \
        (48 if source[0] == "--type" else 0)


def test_search_dv_contains_known_vectors(capsys):
    code, out = run(capsys, "search-dv", "--type", "1,1,1,2,1", "--box=-2:3")
    assert code == 0
    lines = out.strip().splitlines()
    for vec in ("0,-1,1", "2,2,-1", "0,2,-1", "2,-1,1"):
        assert vec in lines


def test_search_dv_box_with_its_low_end_above_its_high_end_is_a_domain_error(capsys):
    code, out = run(capsys, "search-dv", "--type", "1,1,1,2,1", "--box", "3:1")
    assert code == 1
    record = json.loads(out)
    assert record["error"]["kind"] == "DomainError" and "3:1" in record["error"]["message"]


def test_search_dv_one_point_box_is_valid(capsys):
    code, out = run(capsys, "search-dv", "--type", "1,1,1,2,1", "--box=0:0", "--output", "json")
    assert code == 0
    assert json.loads(out)["box"] == [[0, 0]] * 3
    code, out = run(capsys, "search-dv", "--type", "1,1,1,2,1", "--box=3:3")
    assert (code, out) == (0, "")


def test_matrix_symbolic_and_specialized(capsys, tmp_path):
    code, out = run(capsys, "matrix", "--type", "1,1,1,2,1", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 10
    assert sum(1 for row in payload["entries"] for v in row if v != "0") == 48
    code, out = run(capsys, "matrix", "--system", "paper", "--output", "json",
                    "--theta", "1,0|1,0|1,0")
    payload = json.loads(out)
    assert payload["theta"]["split"] == 8
    flat = [int(v) for row in payload["entries"] for v in row]
    assert flat.count(0) == 52


def test_matrix_symbolic_grid_matches_the_reference_assembly(capsys):
    t = core.SystemType(2, 2, 2, 3, 3)
    code, out = run(capsys, "matrix", "--type", "2,2,2,3,3", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    want = [["0"] * payload["size"] for _ in range(payload["size"])]
    for (i, j), entry in reference_entries(t).items():
        want[i][j] = koszul.entry_str(entry)
    assert payload["entries"] == want


def test_resultant_exact_and_mod_p(capsys):
    code, out = run(capsys, "resultant", "--system", "paper", "--output", "json")
    payload = json.loads(out)
    assert code == 0 and payload["vanishes"] is False
    exact = int(payload["det"])
    code, out = run(capsys, "resultant", "--system", "paper",
                    "--field", "fp:10007", "--output", "json")
    payload = json.loads(out)
    assert int(payload["det"]) == exact % 10007


def test_resultant_rejects_composite_modulus(capsys):
    # mod 10 the Fermat inverse is wrong, and the det -3402 came out as 0
    code, out = run(capsys, "resultant", "--system", "paper", "--field", "fp:10")
    assert code == 1
    record = json.loads(out)
    assert record["error"]["kind"] == "ValueError"
    assert "not a prime" in record["error"]["message"]


@pytest.mark.parametrize("command", ["matrix", "resultant", "oracle"])
@pytest.mark.parametrize("modulus", [2 ** 64 + 13, 3317044064679887385961981])
def test_field_flag_at_large_moduli_prints_a_result_or_an_error_record(capsys, command,
                                                                       modulus):
    """A prime above 2^63 (matrix and resultant ended in an OverflowError
    traceback) and the least strong pseudoprime to every Miller-Rabin base
    (accepted as a prime): a result, or the JSON error record and exit 1."""
    code, out = run(capsys, command, "--system", "paper", "--field", f"fp:{modulus}",
                    "--output", "json")
    payload = json.loads(out)
    if modulus > 2 ** 80:
        assert code == 1 and payload["error"]["kind"] == "ValueError"
        assert f"not below {modulus}" in payload["error"]["message"]
        return
    if command == "oracle":  # P^1 x P^1 x P^1 over F_p has (p + 1)^3 points
        assert code == 1 and payload["error"]["kind"] == "DomainError"
        assert "exceeds budget" in payload["error"]["message"]
        return
    assert code == 0
    _, exact = run(capsys, command, "--system", "paper", "--output", "json")
    exact = json.loads(exact)
    if command == "resultant":
        assert int(payload["det"]) == int(exact["det"]) % modulus != 0
    else:
        assert payload["entries"] == [[str(int(v) % modulus) for v in row]
                                      for row in exact["entries"]]


def set_coefficient(value):
    return lambda obj: (terms := obj["polys"][0]["terms"]).update({next(iter(terms)): value})


def set_nx(value):
    return lambda obj: obj["type"].update(nx=value)


@pytest.mark.parametrize("mangle, message", [
    (lambda obj: obj.pop("type"), "'type'"),
    (lambda obj: obj.pop("polys"), "'polys'"),
    (lambda obj: obj["polys"][0].pop("degree"), "'degree'"),
    (lambda obj: obj["polys"][0].pop("terms"), "'terms'"),
    (set_coefficient("1/0"), "zero denominator"),
    # each of these was accepted silently or ended in a traceback
    (set_coefficient(0.5), "not 0.5"),
    (set_coefficient(True), "not True"),
    (set_coefficient(None), "not None"),
    (set_nx("1"), "not '1'"),
    (set_nx(1.0), "not 1.0"),
    (lambda obj: obj["polys"][0].update(terms=[]), "'terms' of a polynomial must be dict"),
])
def test_malformed_system_file_is_domain_error(capsys, tmp_path, mangle, message):
    code, out = run(capsys, "example-system")
    obj = json.loads(out)
    mangle(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out = run(capsys, "resultant", "--system", str(path))
    assert code == 1
    record = json.loads(out)
    assert record["error"]["kind"] == "DomainError"
    assert message in record["error"]["message"]


@pytest.mark.parametrize("command", ["resultant", "matrix", "oracle"])
def test_a_coefficient_with_no_image_mod_p_is_domain_error(capsys, tmp_path, command):
    # each of these ended in a ZeroDivisionError traceback
    code, out = run(capsys, "example-system")
    obj = json.loads(out)
    set_coefficient("1/3")(obj)
    path = tmp_path / "third.json"
    path.write_text(json.dumps(obj))
    code, out = run(capsys, command, "--system", str(path), "--field", "fp:3")
    assert code == 1
    record = json.loads(out)["error"]
    assert record["kind"] == "DomainError"
    assert record["message"].startswith("coefficient 1/3 of x1y1 in f1 has no image mod 3")
    code, out = run(capsys, command, "--system", str(path), "--field", "fp:5")
    assert code == 0


def test_resultant_vanishes_on_planted_file(capsys, tmp_path):
    t = core.SystemType(1, 1, 1, 2, 1)
    alpha = core.ProjectiveSolution((1, 2), (1, 3), (1, 4))
    sys_ = core.planted_root_system(t, alpha, 7, include_f0=True)
    path = tmp_path / "planted.json"
    path.write_text(json.dumps(core.system_to_obj(sys_)))
    code, out = run(capsys, "resultant", "--system", str(path), "--output", "json")
    assert code == 0
    assert json.loads(out)["vanishes"] is True


def test_solve_is_deterministic_and_roundtrips(capsys, tmp_path):
    code, first = run(capsys, "solve", "--system", "paper", "--seed", "5",
                      "--output", "json")
    assert code == 0
    code, second = run(capsys, "solve", "--system", "paper", "--seed", "5",
                       "--output", "json")
    assert first == second
    payload = json.loads(first)
    assert payload["version"]
    assert len(payload["solutions"]) == 2
    assert all(sol["residual"] < 1e-8 for sol in payload["solutions"])
    # the emitted f0 record parses back through the system parser
    t = core.SystemType(**payload["type"])
    f0 = core.poly_from_obj(payload["f0"], t.nvars)
    assert f0.degree == (1, 1, 1)


def test_solve_tol_below_every_residual_is_an_error_record(capsys):
    code, out = run(capsys, "solve", "--system", "paper", "--tol", "1e-30")
    assert code == 1
    record = json.loads(out)["error"]
    assert record["kind"] == "SolveError"
    assert "above tol 1e-30" in record["message"]


@pytest.mark.parametrize("tol", ["nan", "-1e-6"])
def test_solve_rejects_nan_or_negative_tol(capsys, tol):
    # with tol nan the residual gate was off: no residual compares above it
    code, out = run(capsys, "solve", "--system", "paper", f"--tol={tol}")
    assert code == 1
    record = json.loads(out)["error"]
    assert record["kind"] == "DomainError"
    assert "tol must be a nonnegative number" in record["message"]


def test_oracle_command(capsys):
    code, out = run(capsys, "oracle", "--system", "paper", "--field", "fp:31",
                    "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert [[1, 1], [1, 1], [1, 1]] in payload["solutions"]
    assert [[1, 3], [1, 2], [1, 3]] in payload["solutions"]
    assert payload["count"] == 2
    code, out = run(capsys, "oracle", "--system", "paper")
    assert code == 1  # needs a finite field


@pytest.mark.parametrize("modulus", ["10", "1", "561"])
def test_oracle_rejects_composite_modulus(capsys, modulus):
    # mod 10 the oracle used to list 4 "projective solutions over F_10"
    code, out = run(capsys, "oracle", "--system", "paper", "--field", f"fp:{modulus}")
    assert code == 1
    record = json.loads(out)
    assert record["error"]["kind"] == "ValueError"
    assert "not a prime" in record["error"]["message"]
    with pytest.raises(ValueError, match="not a prime"):
        oracle.ff_solve(selftest.paper_system(), int(modulus))


def test_closed_stdout_ends_quietly():
    """A reader that stops early gets no traceback on stderr."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    # about 160 kB of csv overfills the pipe, so the writer meets the closed end
    proc = subprocess.Popen(
        [sys.executable, "-m", "bikoszul.cli", "matrix", "--type", "3,2,2,4,3",
         "--output", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    assert proc.stdout.readline().startswith(",")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_example_system_roundtrips(capsys):
    code, out = run(capsys, "example-system")
    assert code == 0
    sys_ = core.system_from_obj(json.loads(out))
    assert sys_.type == core.SystemType(1, 1, 1, 2, 1)
    assert sys_.f0 is not None


def test_selftest_paper_passes(capsys):
    code, out = run(capsys, "selftest-paper")
    assert code == 0
    assert "FAIL" not in out
