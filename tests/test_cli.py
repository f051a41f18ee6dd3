import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oddflag.cli import MAX_RANK, main
from oddflag.moment import build_moment_graph
from oddflag.qbg import build_qbg
from oddflag.weyl import _rank, top_label


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


def test_nbhd_oracle_at_a_huge_degree(capsys):
    # The search stops at its first window however large the degree is,
    # and agrees with the closed form on the top cell.
    code, out, _ = run(
        capsys, "nbhd", "--n", "3", "--w", "2|1", "--d", "1000000,1000000", "--oracle"
    )
    assert code == 0 and out.strip() == str(top_label(3))


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


@pytest.mark.parametrize(
    "args, flag",
    [
        (["--w", "--d", "1,0"], "--w"),
        (["--w", "1|2", "--d", "--oracle"], "--d"),
    ],
)
def test_an_option_is_never_taken_as_a_label_or_degree(capsys, args, flag):
    # A value starting with "--" is the next option, so --w or --d keeps
    # no value and argparse names the option that lacks one.
    code, out, err = run(capsys, "nbhd", "--n", "3", *args)
    assert code == 2 and out == ""
    assert f"argument {flag}: expected one argument" in err


def test_negative_degree_is_a_domain_error(capsys):
    code, _, err = run(capsys, "nbhd", "--n", "2", "--w", "1|2", "--d", "-1,0")
    assert code == 2 and "nonnegative" in err and "expected one argument" not in err


@pytest.mark.parametrize("text", ["1_0,0", "0,1_0", "\uff12,0", "+,0", "1,", "1 0,0"])
def test_degree_parts_are_a_sign_and_ascii_digits(capsys, text):
    code, out, err = run(capsys, "nbhd", "--n", "2", "--w", "1|2", "--d", text)
    assert code == 2 and out == ""
    assert err == f"oddflag: degree parts must be integers, got {text!r}\n"


@pytest.mark.parametrize("text", ["1_0|2", "\uff12|1"])
def test_a_label_with_underscores_or_wide_digits_exits_2(capsys, text):
    code, out, err = run(capsys, "nbhd", "--n", "12", "--w", text, "--d", "0,0")
    assert code == 2 and out == ""
    assert err == f"oddflag: label sides must be integers, got {text!r}\n"


def test_signed_and_spaced_degree_parts_still_parse(capsys):
    _, want, _ = run(capsys, "nbhd", "--n", "2", "--w", "1|2", "--d", "1,0")
    for text in ("1 , 0", "+1,0", " 1,+0 "):
        code, out, _ = run(capsys, "nbhd", "--n", "2", "--w", "1|2", "--d", text)
        assert code == 0 and out == want


@pytest.mark.parametrize(
    "flag, command, text",
    [
        ("--n", "enumerate", "1_2"),
        ("--n", "enumerate", "\uff11\uff12"),  # full-width 12
        ("--n-max", "verify", "\u0663"),  # Arabic-Indic 3
    ],
)
def test_rank_flags_take_the_grammar_of_labels_and_degrees(capsys, flag, command, text):
    code, out, err = run(capsys, command, flag, text)
    assert code == 2 and out == ""
    assert f"argument {flag}: invalid int value: {text!r}" in err


def test_a_spaced_or_signed_rank_still_parses(capsys):
    _, want, _ = run(capsys, "enumerate", "--n", "3")
    for text in (" 3", "+3", "3 "):
        code, out, _ = run(capsys, "enumerate", "--n", text)
        assert code == 0 and out == want


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


@pytest.mark.parametrize("rank", [MAX_RANK + 1, 10**9])
@pytest.mark.parametrize("command", ["enumerate", "qbg", "verify"])
def test_rank_above_the_ceiling_fails_before_any_work(capsys, command, rank):
    before = _rank.cache_info()
    flag = "--n-max" if command == "verify" else "--n"
    code, out, err = run(capsys, command, flag, str(rank))
    assert code == 2 and out == ""
    assert err == f"oddflag: rank must be at most {MAX_RANK}, got {rank}\n"
    assert _rank.cache_info() == before


def test_ceiling_admits_the_documented_ranks(capsys):
    # The README times qbg --n 12 and the benchmark builds rank 12.
    assert MAX_RANK >= 12
    code, out, _ = run(capsys, "enumerate", "--n", str(MAX_RANK))
    assert code == 0 and len(out.splitlines()) == 4 * MAX_RANK**2


# Every subcommand in every format it offers.
EVERY_FORMAT = [
    ("enumerate", "--n", "3", "--format", "table"),
    ("enumerate", "--n", "3", "--format", "json"),
    ("moment-graph", "--n", "3", "--format", "json"),
    ("moment-graph", "--n", "3", "--format", "dot"),
    ("moment-graph", "--n", "3", "--format", "table"),
    ("nbhd", "--n", "3", "--w", "2|1", "--d", "0,1", "--format", "table"),
    ("nbhd", "--n", "3", "--w", "2|1", "--d", "0,1", "--oracle", "--format", "json"),
    ("lattice", "--n", "3", "--w", "1|2", "--format", "json"),
    ("lattice", "--n", "3", "--w", "1|2", "--format", "dot"),
    ("lattice", "--n", "3", "--w", "1|2", "--format", "table"),
    ("qbg", "--n", "3", "--format", "json"),
    ("qbg", "--n", "3", "--format", "dot"),
    ("qbg", "--n", "3", "--format", "table"),
    ("qbg", "--n", "3", "--strict-qbg", "--format", "table"),
    ("verify", "--n-max", "2"),
]


@pytest.mark.parametrize("argv", EVERY_FORMAT, ids=" ".join)
def test_out_file_gets_the_bytes_of_stdout(tmp_path, capsys, argv):
    code, want, _ = run(capsys, *argv)
    assert code == 0 and want
    target = tmp_path / "out"
    code, out, _ = run(capsys, *argv, "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_bytes() == want.encode()


class _RecordingStdout:
    """A stdout that keeps each string written to it as one chunk."""

    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)
        return len(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def flush(self):
        pass


@pytest.mark.parametrize(
    "argv", [a for a in EVERY_FORMAT if a[0] in ("moment-graph", "qbg")], ids=" ".join
)
def test_graph_formats_write_at_least_one_chunk_per_edge(monkeypatch, argv):
    # No format of a graph builds its whole text before writing it.
    n = int(argv[2])
    edges = (
        build_moment_graph(n) if argv[0] == "moment-graph" else build_qbg(n, "--strict-qbg" in argv)
    ).edges
    stdout = _RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(list(argv)) == 0
    assert len(stdout.chunks) >= len(edges) > 0


# sha256 of stdout for fixed flags, recorded before letters became signed
# ints.  The bases cover every letter type in both columns, so a comparison
# of letters in integer order instead of alphabet order changes a digest.
PINNED_STDOUT_SHA256 = {
    "enumerate --n 9 --format json": "50b60f0745860a181703a7dd588fd9ddef7ccfa5d25bbc4fad4722d82ebca23d",
    "moment-graph --n 4 --format json": "f64d02ee49ae2ce00122dda055f385741150bbf9ea083ded69b239839c37cd13",
    "moment-graph --n 4 --format dot": "d649eb4aeb7fb94afc4612b573cee5c9b1855f3eb0c29bd0235397c8f3063763",
    "nbhd --n 4 --w=1|2 --d 0,0 --oracle --format json": "31ee40b9183fcabae18c5290c51b2f0dbba8d2c752ba8a8377eed41ec8551466",
    "nbhd --n 4 --w=1|2 --d 1,0 --oracle --format json": "32f017d4206e7e02c5522294224ded86da96a500e91d27b31452ffc5fd853c59",
    "nbhd --n 4 --w=1|2 --d 0,1 --oracle --format json": "ad2681daac622f607d40767c7308a31f2aa24619a8861a3bfd1b94f01b563dc2",
    "nbhd --n 4 --w=1|2 --d 1,1 --oracle --format json": "4fd4942178b298f5ad93f58b48f1fbcfbc0c0b4d2b520693314df9ee6e0ae5d5",
    "nbhd --n 4 --w=1|2 --d 1,2 --oracle --format json": "4d503eff5ecfebf8accf0fbe77473d0587be257c2ba253636f74763fa53ce0bb",
    "nbhd --n 4 --w=1|2 --d 3,5 --oracle --format json": "17183694f2fa3dd14e3b00fb182d2fd8faf1fe5155339a76e2c27cf2f888fe21",
    "nbhd --n 4 --w=2|1 --d 0,0 --oracle --format json": "a8f5e4fa26147ba975abdd54a686be741a70295e39808b4310799e7f4d5f928d",
    "nbhd --n 4 --w=2|1 --d 1,0 --oracle --format json": "6737f2b980e890257b20cfef750f99da0e4c8cd6c575430cc8b51b7d790e3556",
    "nbhd --n 4 --w=2|1 --d 0,1 --oracle --format json": "f3b7d8a381c9955023b29d03116d06f90a7945e0e7952f74b1704fe609ac8131",
    "nbhd --n 4 --w=2|1 --d 1,1 --oracle --format json": "f74144b2651d10b90481cff5acb9e4612db54987a1a145c31a9699d618350308",
    "nbhd --n 4 --w=2|1 --d 1,2 --oracle --format json": "ed5ae97465858a6f8d0c2b184addf820358a54564bf1d89fb10b4f2969746840",
    "nbhd --n 4 --w=2|1 --d 3,5 --oracle --format json": "19ea9ffc3953c5205309c27f69f2e31ae7c24caaac7a6389b47606f1e76dae31",
    "nbhd --n 4 --w=-2|1 --d 0,0 --oracle --format json": "9f1e23a363959dea2cc121cf0853a7fe06ab59374142decc228aefee571cabdc",
    "nbhd --n 4 --w=-2|1 --d 1,0 --oracle --format json": "aa9126fb5f0075d40b7e42dd5b750f57cfdbc4172472d8e8f950757a7e589fc5",
    "nbhd --n 4 --w=-2|1 --d 0,1 --oracle --format json": "78758ec6c5ae8a466e0f3bbfcb1208d95d6c9556a336313cfc8ea8c128b7d792",
    "nbhd --n 4 --w=-2|1 --d 1,1 --oracle --format json": "9b97c305f60fa4f6a3a2f9bca974a7aac9f7576310b3977ea81a7b384be47547",
    "nbhd --n 4 --w=-2|1 --d 1,2 --oracle --format json": "e7649e6b82527093693a768d25eb1c1774af4b669a5aa7a03fb0143857281306",
    "nbhd --n 4 --w=-2|1 --d 3,5 --oracle --format json": "0b956987e9a9a0699b6f42f6f62dddeb66b689337e72095e2b225f64a944c599",
    "nbhd --n 4 --w=1|-3 --d 0,0 --oracle --format json": "8c4b3f1ae285697347c642b2310554c0727f9ba4d7a41f47b83e0c5d3d7aacc3",
    "nbhd --n 4 --w=1|-3 --d 1,0 --oracle --format json": "0d2eef473cdb03f21237c5ed4bad0bc944a407478cad1a767f8c8175295b0327",
    "nbhd --n 4 --w=1|-3 --d 0,1 --oracle --format json": "9c6f81b482b78cab9212cb6297129ca50dd014c1edb7eec13fb46ef0eeb19013",
    "nbhd --n 4 --w=1|-3 --d 1,1 --oracle --format json": "bf413ae02b29ed1c15f08bed6491d6ccd65551879a63338d87c023debbdf1541",
    "nbhd --n 4 --w=1|-3 --d 1,2 --oracle --format json": "c9aadba79158d0782969f3670b7af5a79d886a5aab6d171589476daa2c2b72c5",
    "nbhd --n 4 --w=1|-3 --d 3,5 --oracle --format json": "a22035fd54629f1cfdc4d580965c5b927d15270b9290f4fff0c616f11370f49c",
    "nbhd --n 4 --w=-3|-2 --d 0,0 --oracle --format json": "4995784c1c9caa09984fd3a51c8def40c959fbd68a2522ae9d0d5c22bb29a69c",
    "nbhd --n 4 --w=-3|-2 --d 1,0 --oracle --format json": "ad6dc04315bd60f639d07be8d8a587616ea5bc095b156805131a1eaff471e065",
    "nbhd --n 4 --w=-3|-2 --d 0,1 --oracle --format json": "b59af893dcd4643fbc7848beb3e800e6b58dc7544feecd4e696a84b4d3f40dd8",
    "nbhd --n 4 --w=-3|-2 --d 1,1 --oracle --format json": "8fe5ab552025bac65549e2971145b16d75bc02dded8c156d5a3c88d1195cda41",
    "nbhd --n 4 --w=-3|-2 --d 1,2 --oracle --format json": "9bb666a545b7fe2a2a3503b6eb782aa6c68e4298f1677e3e1fef3a35f3ce6890",
    "nbhd --n 4 --w=-3|-2 --d 3,5 --oracle --format json": "9d574822990b151bd83a8e0060e59ea6e209dd241bcb3049037336df16911d04",
    "nbhd --n 4 --w=3|-4 --d 0,0 --oracle --format json": "0ec78db5808d65c0063ca701f0cb67cb069b77d9c4778c5f6948191175f153cd",
    "nbhd --n 4 --w=3|-4 --d 1,0 --oracle --format json": "ed2f1741d5b9aadb1137ee90b0232bffeffadceef081d3c5f11b07e2d90bec41",
    "nbhd --n 4 --w=3|-4 --d 0,1 --oracle --format json": "1ab5030044e753f2b6a18e7d642953d47cfa7bff320d7758aff7507a3662d92d",
    "nbhd --n 4 --w=3|-4 --d 1,1 --oracle --format json": "ecad320df6321cf363a7e3613d8cc6edd259596572062e9bfbbe6a28dd8e9cd2",
    "nbhd --n 4 --w=3|-4 --d 1,2 --oracle --format json": "da420089a24c08849a61ad7dfd08a8ce6f12f9184a4cb2c7c25143c8c893a785",
    "nbhd --n 4 --w=3|-4 --d 3,5 --oracle --format json": "85c28067c5f4197378b664e42553cb7ec7f0db74dc6fa80c7a98ec09da50286a",
    "nbhd --n 4 --w=-4|3 --d 0,0 --oracle --format json": "e27ccbdc13bba2ed06fd882ec26dff5acc7838ebd68c1a08f3cb2b7784a45d4d",
    "nbhd --n 4 --w=-4|3 --d 1,0 --oracle --format json": "60289c8b78e1830ca469a7f09e993809608cb90684645dc3f7963d1ad78a8b3a",
    "nbhd --n 4 --w=-4|3 --d 0,1 --oracle --format json": "1aecdc930260fa22c0e0c96812200864a6a7e977ed7eaf2f22e871fdad0c2232",
    "nbhd --n 4 --w=-4|3 --d 1,1 --oracle --format json": "a0e2aabf6b44ffb694f50a4ed671077d99265e03e1d725b8823eac3622a7ee21",
    "nbhd --n 4 --w=-4|3 --d 1,2 --oracle --format json": "95ecddd926be84110fec93834ac8f6d84e12c80fedc414c3a8f7fabc9a1391d9",
    "nbhd --n 4 --w=-4|3 --d 3,5 --oracle --format json": "1dc5cc93800a3db72d53a8c2cb33b6fad3c15c738040b056d11a170b0a6af56a",
    "lattice --n 4 --w=1|2 --format table": "96c779cb6d18a5866d42e3fef0499f0b7639c29eff6bd5b166d9539941c0cd88",
    "lattice --n 4 --w=2|1 --format table": "e97df3a4d7981b71c30d08a21f347d46d01ab806a6cc52f032de576883461951",
    "lattice --n 4 --w=-2|1 --format table": "6ea7c69c8073102c6961aa59c4dd5c52e0d8c81a7657945a2f8660364f404ced",
    "lattice --n 4 --w=1|-3 --format table": "55f12ee78352cdd3e8848996ff185dd761958da8fb6f6fea881c3e05171d214f",
    "lattice --n 4 --w=-3|-2 --format table": "be069f0c47a44a67290e176cf629c49215fa317b5ca9a3d2664f4b8bc3b06395",
    "lattice --n 4 --w=3|-4 --format table": "bfcc04a706e1768cbf001932d7861a6db0ddf28d910637937f77761073589d2a",
    "lattice --n 4 --w=-4|3 --format table": "e18a56111895c06d8ece21fa8601ab6e5e7375af81b226ead82e135803880902",
    # The lattice json and dot exports of the same bases, and two rank-16
    # lattices in every format, recorded before the lattice kept its rows.
    "lattice --n 4 --w=1|2 --format json": "8dceb0935d6b9e16d4d1cab2f9e5e887848b33fd1e129aafc3337551038cb985",
    "lattice --n 4 --w=1|2 --format dot": "e3bf0cdcee98dfa0a64072030a0b9f79627fd9ff41fef76d261b9f737748e997",
    "lattice --n 4 --w=2|1 --format json": "bde205ed20ce591cebc87f5dc62266bf07c884c79a1e44a5fb058210ec95f9c7",
    "lattice --n 4 --w=2|1 --format dot": "0128afb8c08726efeac3219e5d143cb9a2a45ff9beb211217c1eedd77d80f672",
    "lattice --n 4 --w=-2|1 --format json": "5f56e31a9d6020b40366c056a0ad6c36adba446193ea2505552fc8ecca93547a",
    "lattice --n 4 --w=-2|1 --format dot": "4db5ffb516c4c8991e5e507c0dace2d5db5834abffa70e11b6cd901a411f16ff",
    "lattice --n 4 --w=1|-3 --format json": "c56047f70d197419502deb36d385b6f6671a1a50323112e5405bf16d858683f9",
    "lattice --n 4 --w=1|-3 --format dot": "9325f8ebee398d7278052ebb17311bccb6bdb67111f08c7f9ffa3e32f64c3baf",
    "lattice --n 4 --w=-3|-2 --format json": "ada367a2bdeb52e5e5cfa770e31dc68ea059071b85b83b66c6f8ac461281825b",
    "lattice --n 4 --w=-3|-2 --format dot": "d450dd1b5aeb2d49147193cdcdf7547f6dbc4b5d2af69be36c827addb1a250ea",
    "lattice --n 4 --w=3|-4 --format json": "cb7a10ae41d5ec847ef4413f0756b46637f0a77c4ccdc197ffd4f1d94f5d30f6",
    "lattice --n 4 --w=3|-4 --format dot": "f8333f923f01556dff13df8e0827f99926bea675b42b6ae145d2acb8b3cd277e",
    "lattice --n 4 --w=-4|3 --format json": "c564debc11bf866b5f234dff104c0c7fe472c660eb5299fd6cfcc8be0ff8f50e",
    "lattice --n 4 --w=-4|3 --format dot": "061115f43c82108be0a49128d22455c5acad6d5e9029d6343b36b7f9f59057c9",
    "lattice --n 16 --w=1|2 --format json": "8dceb0935d6b9e16d4d1cab2f9e5e887848b33fd1e129aafc3337551038cb985",
    "lattice --n 16 --w=1|2 --format dot": "e3bf0cdcee98dfa0a64072030a0b9f79627fd9ff41fef76d261b9f737748e997",
    "lattice --n 16 --w=1|2 --format table": "96c779cb6d18a5866d42e3fef0499f0b7639c29eff6bd5b166d9539941c0cd88",
    "lattice --n 16 --w=2|-3 --format json": "70a313a56f71c1e3e25f81653e2f8bfea0416d2d59b6a4355b3ce4ecd1faea5c",
    "lattice --n 16 --w=2|-3 --format dot": "07d9cfec1794b5dd7ad7bdf5ebb53cbf4e8bfeda3d20ea7911cb15b00d700e1a",
    "lattice --n 16 --w=2|-3 --format table": "e3b34015c95a24937eacb0d7d95deccb128011744c7cc9884ddc152ee13d1679",
    "qbg --n 3 --format table": "b1b433c4c1cc9bad6d6d5b254a80b64b3d5a73013d4a8f78a5ca1a6765c5e186",
    "qbg --n 3 --strict-qbg --format json": "0bb7daa7b833653ec78a862c56d5e1dcba8655de4246eefd9113f783cce7f251",
    "qbg --n 8 --strict-qbg --format json": "1c94f70725993351b2aef04d82131ebffa902d0d19bbed78a879a6eae8dbce1e",
    "qbg --n 16 --format json": "3128d497e23902215531c6ebbb6f9cccd627d401efb1f7aa1a948cd5b7430c2b",
    "qbg --n 16 --strict-qbg --format json": "bf0314c8d47ab499ca045158e3b667576c745458249f2ccdcd411deeb7be130e",
    "verify --n-max 6": "a8a406fdc4877d2fc3e1a5860ea263a6278578de4fa9ba3f98559e77afd1534e",
    # The rank-16 moment graph in both formats, the rank-16 search at a
    # huge degree and a wider verify, recorded before the search read the
    # moment graph as row and column masks.
    "moment-graph --n 16 --format json": "662becc3dee32892b0a10c991db174720457c0639b55f452b0dde02ed321e5fe",
    "moment-graph --n 16 --format dot": "808be39169e5bb872a5e8942200b8b6910bf8d10e7ef58d879f79c636d54fda3",
    "nbhd --n 16 --w=2|1 --d 1000000,1000000 --oracle --format json": "71e788487ae4cae2a8a0beee095f02a3638a7ac4bdca3034bb9b8be5c58fe827",
    "verify --n-max 10": "48b7f3c254ef92abb968ceda35e23a65e74833ae5dff9580d24acc5027192ec1",
    # A rank-16 lattice of each shape tag not pinned at rank 16 above, and
    # the two two-component closed-form values without the search, recorded
    # before the poset facts were cached per order matrix.
    "lattice --n 16 --w=-2|-3 --format json": "ba89b74af32e003141d247366939cfadc6cc7ba3def1b392eb952bf4c71bd6c2",
    "lattice --n 16 --w=-2|1 --format json": "5f56e31a9d6020b40366c056a0ad6c36adba446193ea2505552fc8ecca93547a",
    "lattice --n 16 --w=-3|2 --format json": "be13e237fac37f3789a897e7571fcf68410444cd8dc9ce4f325af4d4862e1759",
    "lattice --n 16 --w=1|-2 --format json": "5d00a561885c76292192e0f6e499129d61c34d96af805f2723f7bd7de38c0ca7",
    "lattice --n 16 --w=2|1 --format json": "bde205ed20ce591cebc87f5dc62266bf07c884c79a1e44a5fb058210ec95f9c7",
    "nbhd --n 16 --w=2|1 --d 0,1 --format json": "93a71a4cdb55e48b78449a5404c1e26fcf72a869e817ee2a565a7e7118af7ac7",
    "nbhd --n 16 --w=1|2 --d 1,1 --format json": "427efef559b805459e9662acdf6e4aa1beba824b353499c5620aaa2b0b2534c6",
    # A verify whose cross-check covers ranks 2..12, recorded before the
    # search kept a base's cells between calls.
    "verify --n-max 12": "630429bf619396a2b58e8808cbb46449895c2a95eb0e451c6f12f584d53be5a7",
    # The table and DOT texts no digest above covers, recorded while each
    # graph module still built its own DOT text and every format was
    # written whole.
    "moment-graph --n 16 --format table": "aaa27140ce51d8b2f0e7baf7faff544f2f9c4c025a609fb62ca94bbafd7236a2",
    "qbg --n 4 --format dot": "b94fb1b5fa74eab1fd164862c6535fb9c8f9faa108bb1a0e24d443cef32a9077",
    "qbg --n 3 --strict-qbg --format dot": "2f9133735680a650952bbea416d56d9961ef42e2f280452169dbdaf678bb99e7",
    "qbg --n 16 --format table": "ff2a5bc7eda9f0e3b93f612c620e73a90f1e7ea930022b0a35ad070580339d3d",
    "enumerate --n 9": "659d0220ee9f6dd12f60df2564a265cefe48df49da93769b3e46d4091ae713c8",
}


@pytest.mark.parametrize("argv", list(PINNED_STDOUT_SHA256))
def test_output_matches_pinned_digest(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT_SHA256[argv]


# The strict suite fails by design (qbg-strict-golden at rank 2), so its
# digest is pinned together with its exit code.
PINNED_STRICT_VERIFY = (
    "verify --n-max 3 --strict-qbg",
    1,
    "94e2cdb3f4b51d3c9431ebeb1b002fd7b642e28d6612501d6f371ab94f6994fa",
)


def test_strict_verify_matches_pinned_digest(capsys):
    argv, want_code, digest = PINNED_STRICT_VERIFY
    code, out, _ = run(capsys, *argv.split())
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "args",
    [
        ("enumerate", "--n", "16"),  # fails inside the write
        ("nbhd", "--n", "2", "--w", "1|2", "--d", "1,1"),  # fails at the flush
    ],
)
def test_a_failed_stdout_write_is_a_usage_error(args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "oddflag.cli", *args],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    assert proc.returncode == 2
    assert proc.stderr == "oddflag: cannot write <stdout>: No space left on device\n"


def test_starting_the_cli_imports_no_dataclasses():
    # A fresh interpreter, since pytest itself imports dataclasses; -S
    # keeps site from importing anything first.  The value classes write
    # their own methods, so no process pays for dataclasses (with inspect,
    # ast and tokenize) or for generating them.  Nor for typing: the
    # annotations are never evaluated, and the abstract types come from
    # collections.abc.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "import sys, oddflag.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
