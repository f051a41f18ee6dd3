import json

import pytest

from oddflag.cli import main


def run(capsys, *args):
    try:
        code = main(list(args))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2")
    assert code == 0 and len(out.splitlines()) == 16
    code, out, _ = run(capsys, "enumerate", "--n", "3")
    assert code == 0 and len(out.splitlines()) == 36


def test_enumerate_rejects_small_rank(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "1")
    assert code == 2 and "rank" in err


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "oddflag.labels/1"
    assert payload["labels"][0] == {"label": "1|2", "length": 0}


def test_nbhd_examples(capsys):
    code, out, _ = run(capsys, "nbhd", "--n", "2", "--w", "1|2", "--d", "1,1")
    assert code == 0 and out.strip() == "-3|2, -2|1"
    code, out, _ = run(capsys, "nbhd", "--n", "2", "--w", "1|2", "--d", "0,0")
    assert code == 0 and out.strip() == "1|2"
    code, out, _ = run(capsys, "nbhd", "--n", "3", "--w", "1|2", "--d", "1,2")
    assert code == 0 and out.strip() == "-2|-3"


def test_nbhd_oracle_json(capsys):
    code, out, _ = run(
        capsys, "nbhd", "--n", "2", "--w", "2|1", "--d", "0,1",
        "--oracle", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["components"] == ["1|-2", "2|-3"]
    assert payload["oracle"] == payload["components"]


def test_nbhd_bad_inputs(capsys):
    code, _, err = run(capsys, "nbhd", "--n", "2", "--w", "5|1", "--d", "1,1")
    assert code == 2
    code, _, err = run(capsys, "nbhd", "--n", "2", "--w", "1|2", "--d", "x")
    assert code == 2
    code, _, err = run(capsys, "nbhd", "--n", "2", "--w", "1|2", "--d", "-1,0")
    assert code == 2


def test_moment_graph_formats(capsys):
    code, out, _ = run(capsys, "moment-graph", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["edges"]) == 48
    code, dot, _ = run(capsys, "moment-graph", "--n", "2", "--format", "dot")
    assert code == 0 and dot.startswith("graph moment_n2 {")
    code, dot2, _ = run(capsys, "moment-graph", "--n", "2", "--format", "dot")
    assert dot2 == dot  # byte determinism across runs


def test_lattice_command(capsys):
    code, out, _ = run(
        capsys, "lattice", "--n", "2", "--w", "1|-3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["shape"] == "diamond"
    code, out, _ = run(
        capsys, "lattice", "--n", "2", "--w", "1|2", "--format", "table"
    )
    assert code == 0 and "diamond-plus-top" in out


def test_qbg_command(capsys):
    code, out, _ = run(capsys, "qbg", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["holds"] is True
    assert len(payload["edges"]) == 48
    code, out, _ = run(
        capsys, "qbg", "--n", "2", "--strict-qbg", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["strict"] is True and "verdict" not in payload
    assert len(payload["edges"]) == 47


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    statuses = {c["name"]: c["status"] for c in payload["checks"]}
    assert statuses["qbg-golden"] == "flagged"
    assert statuses["dimension-formula"] == "flagged"

    code, out, _ = run(capsys, "verify", "--n-max", "2", "--strict-qbg")
    assert code == 1
    assert json.loads(out)["passed"] is False

    code, _, err = run(capsys, "verify", "--n-max", "1")
    assert code == 2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "graph.json"
    code, out, _ = run(
        capsys, "moment-graph", "--n", "2", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["n"] == 2


def test_usage_error_without_command():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_barred_first_letter_in_space_separated_form(capsys):
    code, out, _ = run(capsys, "nbhd", "--n", "2", "--w", "-2|1", "--d", "1,1")
    assert code == 0 and out.strip() == "-2|-3"
    code, out, _ = run(
        capsys, "nbhd", "--n", "3", "--w", "-3|2", "--d", "0,1", "--oracle"
    )
    assert code == 0 and out.strip() == "-3|-2"
    code, same, _ = run(capsys, "nbhd", "--n", "3", "--w=-3|2", "--d=0,1")
    assert code == 0 and same == out
    code, out, _ = run(
        capsys, "lattice", "--n", "2", "--w", "-3|2", "--format", "json"
    )
    assert code == 0 and json.loads(out)["base"] == "-3|2"


def test_negative_degree_is_a_domain_error(capsys):
    code, _, err = run(capsys, "nbhd", "--n", "2", "--w", "1|2", "--d", "-1,0")
    assert code == 2 and "nonnegative" in err and "expected one argument" not in err


def test_small_rank_reports_the_given_value(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "0")
    assert code == 2 and "got 0" in err
    code, _, err = run(capsys, "verify", "--n-max", "0")
    assert code == 2 and "got 0" in err


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "labels.txt"
    code, out, err = run(capsys, "enumerate", "--n", "2", "--out", str(target))
    assert code == 2 and out == ""
    assert err == f"oddflag: cannot write {target}: No such file or directory\n"
    code, _, err = run(capsys, "moment-graph", "--n", "2", "--out", str(tmp_path))
    assert code == 2 and err.startswith(f"oddflag: cannot write {tmp_path}:")
