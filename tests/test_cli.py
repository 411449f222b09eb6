"""Command line front end: grammar, output text, exit codes."""

import contextlib
import csv
import io
import json
import os
import re
import stat
from fractions import Fraction

import pytest

import bindex.cli as cli
import bindex.verify as verify
from bindex.cli import _default_threads, _emit_report, _parse, build_parser, run
from bindex.verify import VerificationReport


def test_binding_text(capsys):
    assert run(["binding", "--g6", "Bw", "--method", "brute"]) == 0
    out = capsys.readouterr().out
    assert out == "b = 2/1\nwitness = {0}\nmethod = brute\n"


def test_binding_flow_matches(capsys):
    assert run(["binding", "--g6", "Bw", "--method", "flow"]) == 0
    assert "b = 2/1" in capsys.readouterr().out


def test_toughness_and_spectral(capsys):
    assert run(["toughness", "--g6", "Bg"]) == 0
    assert capsys.readouterr().out == "tau = 1/2\n"
    assert run(["spectral", "--g6", "Cr"]) == 0
    assert capsys.readouterr().out.startswith("rho = 2.0000000")


def test_construct_general(capsys):
    assert run(["construct", "general", "--n", "10", "--r", "2"]) == 0
    out = capsys.readouterr().out
    assert "label = K1_join(10,2)" in out
    assert "edges = 24" in out
    assert "graph6 = " in out


def test_construct_dnest(capsys):
    assert run(["construct", "dnest", "--p", "2,3", "--q", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "label = D(2,3;1,2)" in out
    assert "edges = 9" in out


def test_construct_bip_variants(capsys):
    assert run(["construct", "bipK", "--n", "13", "--r", "2"]) == 0
    assert "label = Kab(9,4)" in capsys.readouterr().out
    assert run(["construct", "bipD", "--n", "25", "--r", "3",
                "--variant", "floor"]) == 0
    out = capsys.readouterr().out
    assert "label = D(10,4;1,10)" in out and "edges = 114" in out


def test_regime_thm6_tie(capsys):
    assert run(["regime", "thm6", "--n", "25", "--r", "3"]) == 0
    out = capsys.readouterr().out
    assert "regime = bip_tie" in out
    assert "max = 114" in out
    assert "extremal = Kab(19,6), D(11,4;1,9), D(10,4;1,10)" in out


def test_regime_thm7_certified(capsys):
    assert run(["regime", "thm7", "--n", "13", "--r", "2"]) == 0
    out = capsys.readouterr().out
    assert "regime = bip_f_gt_g" in out
    assert "max = 6.000000000000 in [" in out
    assert "extremal = Kab(9,4)" in out


def test_verify_lemma6_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = run(["verify", "lemma6", "--p", "5", "--q", "3", "--r", "2",
                "--out", str(path), "--format", "json"])
    capsys.readouterr()
    assert code == 0
    data = json.loads(path.read_text())
    assert data["verdict"] == "pass"
    assert data["counters"]["max_found"] == 9
    assert data["params"] == {"p": 5, "q": 3, "r": 2}


def test_scan_json_to_stdout(capsys):
    assert run(["scan", "lemma12", "--n", "13", "--r", "2",
                "--format", "json", "--out", "-"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["claim_id"] == "lemma12_scan"
    assert data["counters"]["argmax_q"] == [5]


def test_scan_family_csv(capsys):
    assert run(["scan", "family", "--n", "10", "--r", "1",
                "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t1,edges,rho,rho_lo,rho_hi"
    assert len(lines) == 4


def test_verify_identities(capsys):
    assert run(["verify", "identities"]) == 0
    out = capsys.readouterr().out
    assert "verdict = pass" in out
    # nested counters print as one line of JSON each, in counter order
    lines = out.splitlines()
    assert lines[2] == (
        'checked = {"f3_f4_f5": 741, "g1_g2_g3": 1324, "g5_g6_g7": 1324, '
        '"g5_g4_g8": 1324, "h1_h2_h3": 878}'
    )
    assert lines[3:5] == ["total = 5591", "failures = []"]
    assert run(["verify", "identities", "--format", "csv"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == (
        "checked.f3_f4_f5,checked.g1_g2_g3,checked.g5_g6_g7,checked.g5_g4_g8,"
        "checked.h1_h2_h3,total,elapsed_ms"
    )
    assert row.startswith("741,1324,1324,1324,878,5591,")


def test_verify_properties(capsys, monkeypatch):
    assert run(["verify", "properties", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "verdict = pass" in out
    assert 'failures = {"independence": 0, "toughness": 0, "isolated": 0, "flow": 0}\n' in out
    assert run(["verify", "properties", "--n", "4", "--format", "csv"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == (
        "graphs_scanned,mode,seed,failures.independence,failures.toughness,"
        "failures.isolated,failures.flow,elapsed_ms"
    )
    assert row.startswith("64,exhaustive,None,0,0,0,0,")
    # a failing sweep names the failed property outside json as well
    monkeypatch.setattr(verify, "toughness_bruteforce", lambda g: Fraction(9))
    assert run(["verify", "properties", "--n", "4"]) == 1
    out = capsys.readouterr().out
    assert "verdict = fail" in out
    assert re.search(r'^failures = \{"independence": 0, "toughness": [1-9]\d*, ', out, re.M)
    assert run(["verify", "properties", "--n", "4", "--format", "csv"]) == 1
    assert re.match(r"64,exhaustive,None,0,[1-9]\d*,0,0,", capsys.readouterr().out.splitlines()[1])


def test_verify_lemma6_csv_quotes_the_label(capsys):
    # the predicted_extremal label D(1,3;1,2) holds commas, so a csv reader
    # sees one field for it only if it is quoted
    assert run(["verify", "lemma6", "--p", "4", "--q", "3", "--r", "2", "--format", "csv"]) == 0
    header, row = csv.reader(io.StringIO(capsys.readouterr().out))
    assert len(header) == len(row), (header, row)
    fields = dict(zip(header, row))
    assert fields["predicted_extremal"] == "D(1,3;1,2)"
    assert fields["regime"] == "le6_case_iii"


def test_encode_decode_roundtrip(tmp_path, capsys):
    edges = tmp_path / "g.txt"
    edges.write_text("3 3\n0 1\n0 2\n1 2\n")
    assert run(["encode", "--in", str(edges)]) == 0
    assert capsys.readouterr().out.strip() == "Bw"
    assert run(["decode", "--g6", "Bw"]) == 0
    assert capsys.readouterr().out == "3 3\n0 1\n0 2\n1 2\n"


def test_exit_two_on_malformed_graph6(capsys):
    assert run(["decode", "--g6", "B?x"]) == 2
    err = capsys.readouterr().err
    assert "byte offset" in err
    assert run(["binding", "--g6", "A\u00e9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-ASCII" in captured.err and "byte offset 1" in captured.err
    assert run(["decode", "--g6", "~@?@"]) == 2  # n = 4097, past the vertex cap
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the vertex cap 4096 (byte offset 0)" in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "identities", "--format", "json"],
    ["regime", "thm6", "--n", "25", "--r", "3", "--format", "json"],
])
def test_out_file_gets_the_stdout_bytes(argv, tmp_path, capsys):
    assert run(argv) == 0
    stdout = capsys.readouterr().out
    path = tmp_path / "out.json"
    assert run([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    written = path.read_text(encoding="utf-8")
    assert written.endswith("}\n")
    # the two runs may differ in their timing counter only
    untimed = [re.sub(r'"elapsed_ms": \d+', "", t) for t in (written, stdout)]
    assert untimed[0] == untimed[1]


@pytest.mark.parametrize("argv", [
    ["construct", "bipK", "--n", "5", "--r", "-1"],
    ["construct", "bipK", "--n", "5", "--r", "0"],
    ["construct", "bipD", "--n", "9", "--r", "0"],
])
def test_construct_rejects_r_below_one(argv, capsys):
    # outside the paper's domain: no graph, no traceback, the usage code
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: r must be at least 1\n"


def test_exit_two_on_usage_errors(capsys):
    assert run(["binding"]) == 2
    assert "provide --g6 or --in" in capsys.readouterr().err
    assert run(["nonsense"]) == 2
    capsys.readouterr()
    assert run(["regime", "thm6", "--n", "4", "--r", "3"]) == 2
    assert "error:" in capsys.readouterr().err
    assert run(["verify", "lemma6", "--p", "6", "--q", "5", "--r", "2"]) == 2
    assert "28" in capsys.readouterr().err
    assert run(["binding", "--g6", "Bw", "--bogus"]) == 2
    capsys.readouterr()
    assert run(["spectral", "--g6", "DQw", "--tol", "1e-9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --tol" in captured.err


@pytest.mark.parametrize("argv", [
    ["binding", "--g6", "DQw", "--format", "json"],
    ["toughness", "--g6", "Bg", "--format", "text"],
    ["spectral", "--g6", "Cr", "--format", "csv"],
    ["encode", "--g6", "Bw", "--format", "json"],
    ["decode", "--g6", "Bw", "--format", "text"],
    ["construct", "general", "--n", "10", "--r", "2", "--format", "csv"],
    ["construct", "dnest", "--p", "2,3", "--q", "1,2", "--format", "csv"],
    ["regime", "thm6", "--n", "25", "--r", "3", "--format", "csv"],
])
def test_format_only_where_it_is_read(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --format" in err or "invalid choice" in err


def test_json_where_it_is_read_and_threads_everywhere(capsys):
    assert run(["construct", "general", "--n", "10", "--r", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["label"] == "K1_join(10,2)"
    assert run(["regime", "thm6", "--n", "25", "--r", "3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["regime"] == "bip_tie"
    assert run(["binding", "--g6", "Bw", "--threads", "1"]) == 0
    assert capsys.readouterr().out == "b = 2/1\nwitness = {0}\nmethod = brute\n"


def test_exit_one_on_fail_verdict(capsys):
    rep = VerificationReport(
        claim_id="lemma6_max", params={"p": 2, "q": 2, "r": 1},
        verdict="fail", witnesses=(), counters={})
    ns = type("Args", (), {"out": None, "format": "text"})()
    assert _emit_report(ns, rep) == 1
    capsys.readouterr()


def test_unreadable_input(tmp_path, capsys):
    assert run(["binding", "--in", str(tmp_path / "missing.g6")]) == 2
    assert "error:" in capsys.readouterr().err


def test_default_threads_env(monkeypatch):
    monkeypatch.setenv("BINDEX_THREADS", "3")
    assert _default_threads() == 3
    monkeypatch.delenv("BINDEX_THREADS")
    assert _default_threads() >= 1


@pytest.mark.parametrize("argv", [
    ["binding", "--g6", "DQw"],
    ["verify", "identities", "--format", "json"],
    ["regime", "thm6", "--n", "25", "--r", "3", "--format", "json"],
])
@pytest.mark.parametrize("old", [bytes(range(256)) * 40, b"x"], ids=["longer", "shorter"])
def test_out_rewrites_an_old_file_to_the_stdout_bytes(argv, old, tmp_path, capsys):
    assert run(argv) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    path = tmp_path / "out.txt"
    path.write_bytes(old)
    assert run([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    # no stale bytes of the old file survive; only the timing counter may differ
    untimed = [re.sub(rb'"elapsed_ms": \d+', b"", t) for t in (path.read_bytes(), stdout)]
    assert untimed[0] == untimed[1]


def test_out_to_a_device_is_not_truncated(capsys):
    assert run(["binding", "--g6", "Cr", "--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


def test_new_out_file_mode_follows_the_umask(tmp_path, capsys):
    path = tmp_path / "new.txt"
    old_mask = os.umask(0o027)
    try:
        assert run(["binding", "--g6", "Cr", "--out", str(path)]) == 0
    finally:
        os.umask(old_mask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~0o027
    assert path.read_text(encoding="utf-8") == "b = 1/1\nwitness = {0, 3}\nmethod = brute\n"


@pytest.mark.parametrize("target", ["missing/out.txt", "."], ids=["no-parent", "directory"])
def test_unwritable_out_exits_two(target, tmp_path, capsys):
    path = tmp_path / target
    assert run(["binding", "--g6", "Cr", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in captured.err


def _outcome(parse, argv):
    """(Namespace or exit code, stdout, stderr) of one parse of argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(list(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def assert_parses_as_the_top_level_parser(argv):
    assert _outcome(_parse, argv) == _outcome(build_parser().parse_args, argv), argv


# every README example, the usage-error argvs above, the benchmark's query,
# and the edges of argparse's grammar: help, abbreviations, "=" values,
# "--", repeated and unknown options, nested subcommands, bad choices and
# type errors, leftovers at every depth
_README_ARGVS = [
    "binding --g6 DQw", "toughness --g6 Bg", "spectral --g6 Cr",
    "construct general --n 14 --r 1", "construct dnest --p 2,3 --q 1,2",
    "regime thm6 --n 25 --r 3", "regime thm7 --n 13 --r 2",
    "verify lemma6 --p 5 --q 3 --r 2", "verify thm6 --n 9 --r 1",
    "verify properties --n 6", "verify identities",
    "scan family --n 16 --r 1", "scan bipfamily --p 8 --q 3 --r 3",
    "scan lemma12 --n 21 --r 4 --format json --out report.json",
    "encode --in p3.el", "decode --g6 DQw",
]
_USAGE_ERROR_ARGVS = [
    "binding", "nonsense", "regime thm6 --n 4 --r 3", "verify lemma6 --p 6 --q 5 --r 2",
    "binding --g6 Bw --bogus", "spectral --g6 DQw --tol 1e-9",
    "binding --g6 DQw --format json", "toughness --g6 Bg --format text",
    "spectral --g6 Cr --format csv", "encode --g6 Bw --format json",
    "decode --g6 Bw --format text", "construct general --n 10 --r 2 --format csv",
    "construct dnest --p 2,3 --q 1,2 --format csv", "regime thm6 --n 25 --r 3 --format csv",
]
_EDGE_ARGVS = [
    "", "-h", "--help", "--h", "binding -h", "binding --h", "construct -h",
    "construct general -h", "verify lemma6 --help", "-h binding",
    "binding --g6 Bw --method auto --threads 1 --out q.txt",
    "binding --g6=Bw --meth=flow", "binding --g6 Bw --meth brute --thr 2",
    "binding --g6 Bw --g6 Cr", "binding --g6 Bw --method fast", "binding --g6",
    "binding --g6 Bw -- extra", "binding -- --g6 Bw", "-- binding --g6 Bw",
    "binding --g6 Bw extra", "binding --threads 0 --g6 Bw", "binding --threads x",
    "construct", "construct nonsense", "construct general --n 10", "construct general --n x --r 2",
    "construct general --n 10 --r 2 --bogus", "construct dnest --p 2,x --q 1",
    "construct bipD --n 25 --r 3 --variant middle", "verify properties --n 6 --samples -1",
    "verify identities extra", "scan", "scan lemma12 --n 13 --r 2 --format xml",
    "--g6 Bw binding", "Binding --g6 Bw", "toughness --in",
]
_CORPUS = [a.split() for a in _README_ARGVS + _USAGE_ERROR_ARGVS + _EDGE_ARGVS]


@pytest.mark.parametrize("argv", _CORPUS, ids=" ".join)
def test_dispatch_parses_as_the_top_level_parser(argv):
    assert_parses_as_the_top_level_parser(argv)


def test_a_binding_query_skips_the_top_level_parser(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser ran")

    top = build_parser()
    monkeypatch.setattr(top, "parse_args", refuse)
    monkeypatch.setattr(top, "parse_known_args", refuse)
    path = tmp_path / "q.txt"
    argv = ["binding", "--g6", "DQw", "--method", "auto", "--threads", "1", "--out", str(path)]
    assert run(argv) == 0
    assert path.read_text(encoding="utf-8") == "b = 1/1\nwitness = {3}\nmethod = brute\n"


def test_default_threads_only_where_it_is_read(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "_default_threads", lambda: calls.append(None) or 1)
    assert run(["binding", "--g6", "Bw"]) == 0
    assert run(["verify", "identities"]) == 0
    assert run(["verify", "lemma6", "--p", "3", "--q", "2", "--r", "1", "--threads", "1"]) == 0
    assert not calls
    assert run(["verify", "lemma6", "--p", "3", "--q", "2", "--r", "1"]) == 0
    assert run(["verify", "thm6", "--n", "5", "--r", "1"]) == 0
    assert len(calls) == 2
    capsys.readouterr()
