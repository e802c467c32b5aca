import hashlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import choreswap
from choreswap import pipelines
from choreswap.cli import CSV_HEADER, _report_row, main, render_decimal
from choreswap.errors import (
    CertificateInvalid,
    CouplingUnsatisfiable,
    InvariantViolation,
    RhoNotLessThanK,
    RoundedInputInvalid,
)
from choreswap.model import UniformInt, serialize_allocation, serialize_instance, serialize_prices
from fractions import Fraction

from conftest import pef1_start, rounded_fixture

I1 = "2 3\n1 1 10\n1 1 10\n"
I2 = "2 4\n1 2 3 4\n4 3 2 1\n"
DOM = "2 2\n1 10\n10 1\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_render_decimal():
    assert render_decimal(Fraction(2, 7)) == "0.28571428571428571429"
    assert render_decimal(Fraction(1, 10)) == "0.1"


def test_gen_reproducible(tmp_path, capsys):
    assert main(["gen", "--n", "3", "--m", "6", "--seed", "1",
                 "--dist", "uniform-int:1..10"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--n", "3", "--m", "6", "--seed", "1",
                 "--dist", "uniform-int:1..10"]) == 0
    assert capsys.readouterr().out == first
    assert first.splitlines()[1] == "3 6"


def test_gen_bivalued_support(tmp_path, capsys):
    assert main(["gen", "--n", "2", "--m", "4", "--seed", "3",
                 "--dist", "bivalued:4"]) == 0
    out = capsys.readouterr().out
    values = {tok for ln in out.splitlines()[2:] for tok in ln.split()}
    assert values <= {"1", "4"}


def test_gen_rejects_low_bound(capsys):
    assert main(["gen", "--n", "2", "--m", "2", "--seed", "1",
                 "--dist", "uniform-int:0..5"]) == 1


@pytest.mark.parametrize(
    "size", [["--m", "-3"], ["--m", "3", "--count", "0"]], ids=["negative-m", "zero-count"]
)
def test_gen_rejects_bad_sizes(tmp_path, capsys, size):
    out = tmp_path / "corpus"
    assert main(["gen", "--n", "2", *size, "--seed", "1",
                 "--dist", "uniform-int:1..5", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("choreswap: error: ")
    assert not out.exists()


def test_gen_count_directory(tmp_path):
    out = tmp_path / "corpus"
    assert main(["gen", "--n", "2", "--m", "3", "--seed", "5", "--count", "3",
                 "--dist", "uniform-int:1..9", "--out", str(out)]) == 0
    assert len(list(out.glob("*.txt"))) == 3


def test_solve_small_m_i2(tmp_path, capsys):
    inst = write(tmp_path, "i2.txt", I2)
    assert main(["solve", inst, "--method", "small-m"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == CSV_HEADER
    fields = out[1].split(",")
    assert fields[1] == "small-m" and fields[2] == "2/7"
    assert fields[3] == "0.28571428571428571429"
    assert fields[4] == "0"


def test_solve_pef1_i1_with_outputs(tmp_path, capsys):
    inst = write(tmp_path, "i1.txt", I1)
    alloc = str(tmp_path / "i1.alloc")
    trace = str(tmp_path / "i1.trace")
    assert main(["solve", inst, "--method", "pef1",
                 "--out", alloc, "--trace", trace]) == 0
    fields = capsys.readouterr().out.splitlines()[1].split(",")
    assert fields[2] == "1/10" and fields[6] == "po"
    assert (tmp_path / "i1.alloc").read_text() == "1 1 2\n"
    assert (tmp_path / "i1.trace").read_text().strip().endswith("FACTOR 1/10")


def test_solve_pef1_without_start_is_a_finding(tmp_path, capsys, monkeypatch):
    bad = pef1_start(choreswap.Allocation(2, (1, 0, 0)), (1, 1, 1))
    monkeypatch.setattr(pipelines, "search_pef1_mpb", lambda inst: bad)
    inst = write(tmp_path, "i1.txt", I1)
    assert main(["solve", inst, "--method", "pef1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "solve: finding: solution is not an MPB allocation\n"


def test_solve_pef1_needs_no_search_budget(tmp_path, capsys):
    # 2^23 owner vectors, past the default budget of 2^22; three values
    # route auto to pef1, and the market start walks no owner vectors.
    row = " ".join("123"[j % 3] for j in range(23))
    inst = write(tmp_path, "big.txt", f"2 23\n{row}\n{row}\n")
    assert main(["solve", inst, "--verify"]) == 0
    captured = capsys.readouterr()
    fields = captured.out.splitlines()[1].split(",")
    assert fields[1:3] == ["pef1", "23/21"]
    assert fields[4] == "0" and fields[6] == "po"
    assert captured.err == "verify: ok\n"


def test_solve_bivalued_needs_no_search_budget(tmp_path, capsys):
    # The same shape with two values: the market start walks no owner vectors.
    row = " ".join("12"[j % 2] for j in range(23))
    inst = write(tmp_path, "big.txt", f"2 23\n{row}\n{row}\n")
    assert main(["solve", inst, "--verify"]) == 0
    fields = capsys.readouterr().out.splitlines()[1].split(",")
    assert fields[1] == "bivalued" and fields[6] == "po"


def test_solve_exits_2_when_a_start_fails_its_gate(tmp_path, capsys, monkeypatch):
    bad = pef1_start(choreswap.Allocation(2, (0, 0, 0)), (1, 1, 2))
    monkeypatch.setattr(pipelines, "search_pef1_mpb", lambda inst: bad)
    inst = write(tmp_path, "biv.txt", "2 3\n1 1 2\n1 1 2\n")
    assert main(["solve", inst, "--method", "bivalued"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "solve: finding: solution is not pEF1\n"


@pytest.mark.parametrize("method, text", [("pef1", I1), ("small-m", I2)])
def test_solve_verify_replays_the_trace(tmp_path, capsys, method, text):
    inst = write(tmp_path, "inst.txt", text)
    assert main(["solve", inst, "--method", method, "--verify"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "verify: ok\n"
    assert captured.out.splitlines()[1].split(",")[1] == method


@pytest.mark.parametrize("solve, seed, n, m, po", [
    (pipelines.solve_2efx, 0, 3, 7, "po"),  # the start's prices are MPB for x
    (pipelines.solve_small_m, 5, 3, 5, "po"),  # mpb_price_feasibility finds prices
    (pipelines.solve_small_m, 3, 3, 5, "budget-exceeded"),  # a cycle: brute force
    (pipelines.solve_small_m, 0, 3, 2, "budget-exceeded"),  # an empty bundle: brute force
])
def test_report_row_certifies_po_from_prices(solve, seed, n, m, po):
    inst = choreswap.generate_random(seed, n, m, UniformInt(1, 20))
    res = solve(inst)
    assert choreswap.fairness.is_po_bruteforce(inst, res.x, 1).status == "budget-exceeded"
    assert _report_row("x", "auto", res, inst, 0.0, 1).split(",")[6] == po


def test_solve_verify_skips_without_framework(tmp_path, capsys):
    inst = write(tmp_path, "dom.txt", DOM)
    assert main(["solve", inst, "--verify"]) == 0
    assert capsys.readouterr().err == "verify: skipped (no framework run)\n"


def test_solve_verify_catches_forged_swap(tmp_path, capsys, monkeypatch):
    def forged(inst):
        res = pipelines.solve_small_m(inst)
        res.trace.swaps.append((0, 1, 0))
        return res

    monkeypatch.setattr("choreswap.cli.solve_small_m", forged)
    inst = write(tmp_path, "i2.txt", I2)
    assert main(["solve", inst, "--method", "small-m", "--verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("solve: verify: swaps diverge: replay [], trace [(0, 1, 0)]\n")
    assert "SWAP 1 2 1" in captured.err


def test_solve_auto_picks_small_m(tmp_path, capsys):
    inst = write(tmp_path, "i2.txt", I2)
    assert main(["solve", inst]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[1] == "small-m"


def test_solve_er4_requires_companions(tmp_path, capsys):
    inst = write(tmp_path, "i1.txt", I1)
    assert main(["solve", inst, "--method", "er4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "choreswap: error: --method er4 requires --alloc and --prices\n"


def test_bench_er4_requires_companions(tmp_path, capsys):
    # One rounded input fits one instance, so bench has no er4 method:
    # er4 in --methods is an unknown method, rejected before any run.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write(corpus, "i1.txt", I1)
    assert main(["bench", str(corpus), "--methods", "auto,er4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "choreswap: error: unknown method 'er4'; choose from auto, pef1, bivalued, small-m\n"
    )


def _write_rounded(tmp_path, inst, x, p):
    """The instance, allocation and prices of a rounded input, as files."""
    return (write(tmp_path, "er.txt", serialize_instance(inst)),
            write(tmp_path, "er.alloc", serialize_allocation(x)),
            write(tmp_path, "er.prices", serialize_prices(p)))


def test_solve_er4_from_rounded_files(tmp_path, capsys):
    inst, x, p = rounded_fixture(0, [1, 1], [2, 2])
    rounded, violations = pipelines.validate_rounded_er(inst, x, p)
    assert violations == []
    path, alloc, prices = _write_rounded(tmp_path, inst, x, p)
    out = tmp_path / "er.out"
    assert main(["solve", path, "--method", "er4", "--alloc", alloc, "--prices", prices,
                 "--verify", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "verify: ok\n"
    assert captured.out.splitlines()[1].split(",")[1] == "er4"
    assert out.read_text() == serialize_allocation(pipelines.solve_4efx(inst, rounded).x)


def test_solve_er4_rejects_an_invalid_rounded_input(tmp_path, capsys):
    inst, x, p = rounded_fixture(0, [1, 1], [2, 2])
    x = choreswap.Allocation(inst.n, (0,) * inst.m)  # agent 1 holds both high chores
    _, violations = pipelines.validate_rounded_er(inst, x, p)
    assert violations
    path, alloc, prices = _write_rounded(tmp_path, inst, x, p)
    assert main(["solve", path, "--method", "er4", "--alloc", alloc, "--prices", prices]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"solve: error: {RoundedInputInvalid(violations)}\n"


def test_solve_bivalued_on_nonbivalued_errors(tmp_path):
    inst = write(tmp_path, "bad.txt", "2 5\n1 2 3 4 5\n5 4 3 2 1\n")
    assert main(["solve", inst, "--method", "bivalued"]) == 1


def test_check_efx_and_po_pass(tmp_path, capsys):
    inst = write(tmp_path, "i1.txt", I1)
    alloc = write(tmp_path, "i1.alloc", "1 1 2\n")
    assert main(["check", inst, "--alloc", alloc, "--props", "efx:2,po"]) == 0
    out = capsys.readouterr().out
    assert "PASS efx:2" in out and "PASS po" in out


def test_check_po_fail_with_witness(tmp_path, capsys):
    inst = write(tmp_path, "dom.txt", DOM)
    alloc = write(tmp_path, "dom.alloc", "2 1\n")
    assert main(["check", inst, "--alloc", alloc, "--props", "po"]) == 2
    out = capsys.readouterr().out
    assert "FAIL po witness 1 2" in out


def test_check_cert_strict_pass(tmp_path, capsys):
    inst = write(tmp_path, "i1.txt", I1)
    alloc = write(tmp_path, "i1.alloc", "1 1 2\n")
    cert = write(tmp_path, "i1.cert", "2\n")
    assert main(["check", inst, "--alloc", alloc, "--cert", cert,
                 "--props", "cert:2:strict"]) == 0
    assert "PASS cert:2:strict" in capsys.readouterr().out


def test_check_cert_rejects_unassigned_chore(tmp_path, capsys):
    inst = write(tmp_path, "i1.txt", I1)
    alloc = write(tmp_path, "i1.alloc", "1 0 2\n")
    cert = write(tmp_path, "i1.cert", "2\n")
    assert main(["check", inst, "--alloc", alloc, "--cert", cert,
                 "--props", "cert:2:strict"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "choreswap: error: agent index 0 out of range 1..2\n"
    assert captured.out == ""


def test_check_mpb_requires_prices(tmp_path, capsys):
    inst = write(tmp_path, "i1.txt", I1)
    alloc = write(tmp_path, "i1.alloc", "1 1 2\n")
    assert main(["check", inst, "--alloc", alloc, "--props", "mpb"]) == 1
    # A negative k is an input error, not a verdict.
    prices = write(tmp_path, "i1.prices", "1 1 10\n")
    for prop in ("efk:1:-1", "pefk:1:-1"):
        assert main(["check", inst, "--alloc", alloc, "--prices", prices, "--props", prop]) == 1


def test_check_mpb_and_pefk(tmp_path, capsys):
    inst = write(tmp_path, "i1.txt", I1)
    alloc = write(tmp_path, "i1.alloc", "1 1 2\n")
    prices = write(tmp_path, "i1.prices", "1 1 10\n")
    assert main(["check", inst, "--alloc", alloc, "--prices", prices,
                 "--props", "mpb,pefk:1:1,pefx:1"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3


def test_bench_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.txt").write_text(I1)
    (corpus / "b.txt").write_text(I2)
    assert main(["bench", str(corpus), "--methods", "auto"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == CSV_HEADER
    assert len(out) == 3
    for row in out[1:]:
        fields = row.split(",")
        assert Fraction(fields[2]) <= 2
        assert fields[8] == ""


def test_bench_exits_1_when_a_case_fails_without_a_finding(tmp_path, capsys):
    # m = 23 > 2n: small-m refuses the file with TooManyChores, which is
    # no finding, yet the run must not report success.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    row = " ".join("123"[j % 3] for j in range(23))
    (corpus / "big.txt").write_text(f"2 23\n{row}\n{row}\n")
    (corpus / "i2.txt").write_text(I2)
    assert main(["bench", str(corpus), "--methods", "small-m"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1].endswith(",error:TooManyChores")
    assert "bench: 1 ok, 1 failed" in captured.err


def test_bench_empty_corpus(tmp_path, capsys):
    corpus = tmp_path / "empty"
    corpus.mkdir()
    assert main(["bench", str(corpus), "--methods", "pef1"]) == 0
    assert capsys.readouterr().out == CSV_HEADER + "\n"


@pytest.mark.parametrize("target", ["missing", "i1.txt"])
def test_bench_corpus_must_be_a_directory(tmp_path, capsys, target):
    write(tmp_path, "i1.txt", I1)
    corpus = tmp_path / target
    assert main(["bench", str(corpus), "--methods", "auto"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"choreswap: error: corpus {corpus} is not a directory\n"


@pytest.mark.parametrize("methods, bad", [("bogus", "bogus"), ("", ""), ("auto,", ""), ("pef1,x", "x")])
def test_bench_rejects_unknown_methods(tmp_path, capsys, monkeypatch, methods, bad):
    def must_not_run(*args):
        raise AssertionError("an instance ran before --methods was checked")

    monkeypatch.setattr("choreswap.cli._run_method", must_not_run)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write(corpus, "i1.txt", I1)
    assert main(["bench", str(corpus), "--methods", methods]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"choreswap: error: unknown method {bad!r}; choose from auto,")


@pytest.mark.parametrize(
    "finding",
    [
        RhoNotLessThanK("injected"),
        CouplingUnsatisfiable("injected"),
        InvariantViolation("injected"),
        CertificateInvalid(["injected"]),
    ],
    ids=lambda e: type(e).__name__,
)
def test_bench_exits_2_on_a_finding(tmp_path, capsys, monkeypatch, finding):
    def raises(inst):
        raise finding

    monkeypatch.setattr("choreswap.cli.solve_bivalued", raises)
    corpus = tmp_path / "corpus"
    assert main(["gen", "--n", "2", "--m", "6", "--seed", "1",
                 "--dist", "bivalued:3", "--out", str(corpus), "--count", "2"]) == 0
    assert main(["bench", str(corpus), "--methods", "bivalued"]) == 2
    captured = capsys.readouterr()
    rows = captured.out.splitlines()[1:]
    assert len(rows) == 2
    assert all(row.endswith(f",error:{type(finding).__name__}") for row in rows)
    assert "bench: 0 ok, 2 failed" in captured.err


def test_bench_verify_replays_every_run(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, text in (("dom.txt", DOM), ("i1.txt", I1), ("i2.txt", I2)):
        write(corpus, name, text)
    assert main(["bench", str(corpus), "--methods", "pef1,small-m", "--verify"]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 7
    assert captured.err.splitlines()[0] == "bench: verify: 5 ok, 1 skipped"
    assert "verify: ok" not in captured.err


def test_bench_verify_catches_forged_swap(tmp_path, capsys, monkeypatch):
    def forged(inst):
        res = pipelines.solve_small_m(inst)
        res.trace.swaps.append((0, 1, 0))
        return res

    monkeypatch.setattr("choreswap.cli.solve_small_m", forged)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write(corpus, "i2.txt", I2)
    assert main(["bench", str(corpus), "--methods", "small-m", "--verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1].startswith("i2.txt,small-m,,,,,,")
    assert captured.out.splitlines()[1].endswith(",error:PostconditionViolated")
    assert captured.err.splitlines()[:2] == [
        "bench: i2.txt [small-m]: verify: swaps diverge: replay [], trace [(0, 1, 0)]",
        "bench: verify: 0 ok, 0 skipped",
    ]


def test_bench_golden_pinned_seeds(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert main(["gen", "--n", "2", "--m", "5", "--seed", "21", "--count", "2",
                 "--dist", "uniform-int:1..9", "--out", str(corpus)]) == 0
    capsys.readouterr()
    assert main(["bench", str(corpus), "--methods", "pef1"]) == 0
    rows = capsys.readouterr().out.splitlines()
    masked = [re.sub(r",[0-9.]+,(?=[^,]*$)", ",MS,", r) for r in rows[1:]]
    assert masked == [
        "gen-n2-m5-s21.txt,pef1,14/13,1.0769230769230769231,0,strict,po,MS,",
        "gen-n2-m5-s22.txt,pef1,7/11,0.63636363636363636364,0,strict,po,MS,",
    ]


def test_missing_file_io_error(tmp_path, capsys):
    # A missing file, and a file that is not UTF-8 text, for every
    # command that reads one.
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe2 2\n")
    for argv in (
        ["solve", str(tmp_path / "nope.txt")],
        ["solve", str(bad)],
        ["check", str(bad), "--alloc", str(bad), "--props", "efx:2"],
        ["bench", str(tmp_path), "--methods", "auto"],
    ):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("choreswap: io error: "), argv


CHECK = ["check", "i1.txt", "--alloc", "i1.alloc"]
CHECK_ALL = [*CHECK, "--prices", "i1.prices", "--cert", "nh", "--props"]


# (files that replace or join the base files, argv, the one stderr line).
# Each input is rejected with exit 1 and an empty stdout; the line and
# column show where the error carries them.
BOUNDARY = {
    "empty-file": ({"in.txt": "# no data\n\n"}, ["solve", "in.txt"],
                   "choreswap: error: empty instance file"),
    "header-not-n-m": ({"in.txt": "2\n1 1\n"}, ["solve", "in.txt"],
                       "choreswap: error: expected 'n m', got '2' (line 1)"),
    "header-not-integer": ({"in.txt": "# c\n2 x\n"}, ["solve", "in.txt"],
                           "choreswap: error: expected integers in header, got '2 x' (line 2)"),
    "no-agent": ({"in.txt": "0 2\n"}, ["solve", "in.txt"],
                 "choreswap: error: need n >= 1 and m >= 0, got n=0 m=2 (line 1)"),
    "negative-m": ({"in.txt": "1 -1\n"}, ["solve", "in.txt"],
                   "choreswap: error: need n >= 1 and m >= 0, got n=1 m=-1 (line 1)"),
    "rows-when-m-is-0": ({"in.txt": "1 0\n5\n"}, ["solve", "in.txt"],
                         "choreswap: error: expected no matrix rows when m = 0"),
    "short-row": ({"in.txt": "2 2\n1 2\n3\n"}, ["solve", "in.txt"],
                  "choreswap: error: row 2 has 1 entries, expected 2 (line 3)"),
    "header-arabic-indic": ({"in.txt": "\u0662 \u0661\n1\n2\n"}, ["solve", "in.txt"],
                            "choreswap: error: expected integers in header, "
                            "got '\u0662 \u0661' (line 1)"),
    "entry-arabic-indic": ({"in.txt": "2 2\n1 \u0663\n2 1\n"}, ["solve", "in.txt"],
                           "choreswap: error: not a rational: '\u0663' (line 2, col 2)"),
    "price-arabic-indic": ({"i1.prices": "1 \u0662 10\n"}, [*CHECK_ALL, "mpb"],
                           "choreswap: error: not a rational: '\u0662' (col 2)"),
    "price-count": ({"i1.prices": "1 1\n"}, [*CHECK_ALL, "mpb"],
                    "choreswap: error: expected 3 prices, found 2"),
    "alloc-token": ({"i1.alloc": "1 x 2\n"}, [*CHECK, "--props", "po"],
                    "choreswap: error: not an agent index: 'x' (col 2)"),
    "alloc-plus": ({"i1.alloc": "1 +2 2\n"}, [*CHECK, "--props", "po"],
                   "choreswap: error: not an agent index: '+2' (col 2)"),
    "alloc-underscore": ({"i1.alloc": "1 2_0 2\n"}, [*CHECK, "--props", "po"],
                         "choreswap: error: not an agent index: '2_0' (col 2)"),
    "alloc-arabic-indic": ({"i1.alloc": "1 \u0661 2\n"}, [*CHECK, "--props", "po"],
                           "choreswap: error: not an agent index: '\u0661' (col 2)"),
    "alloc-not-utf8": ({"i1.alloc": b"\xff1 1 2\n"}, [*CHECK, "--props", "po"],
                       "choreswap: io error: TMP/i1.alloc is not UTF-8 text: 'utf-8' codec "
                       "can't decode byte 0xff in position 0: invalid start byte"),
    "cert-token": ({"nh": "x\n"}, [*CHECK_ALL, "cert:2:strict"],
                   "check: error: cert:2:strict: not an agent index: 'x' (col 1)"),
    "cert-plus": ({"nh": "+2\n"}, [*CHECK_ALL, "cert:2:strict"],
                  "check: error: cert:2:strict: not an agent index: '+2' (col 1)"),
    "cert-underscore": ({"nh": "2_0\n"}, [*CHECK_ALL, "cert:2:strict"],
                        "check: error: cert:2:strict: not an agent index: '2_0' (col 1)"),
    "cert-arabic-indic": ({"nh": "\u0662\n"}, [*CHECK_ALL, "cert:2:strict"],
                          "check: error: cert:2:strict: not an agent index: '\u0662' (col 1)"),
    "efx-extra-field": ({}, [*CHECK_ALL, "efx:2:9"], "check: error: efx:2:9: expected efx:L"),
    "po-extra-field": ({}, [*CHECK_ALL, "po:1"], "check: error: po:1: expected po"),
    "efk-missing-field": ({}, [*CHECK_ALL, "efk:1"], "check: error: efk:1: expected efk:A:K"),
    "empty-props": ({}, [*CHECK_ALL, ""], "check: error: : unknown property ''"),
    "comma-props": ({}, [*CHECK_ALL, ","], "check: error: : unknown property ''"),
    "unknown-prop": ({}, [*CHECK_ALL, "efy:2"], "check: error: efy:2: unknown property 'efy:2'"),
    "bad-rational": ({}, [*CHECK_ALL, "efx:x"], "check: error: efx:x: not a rational: 'x'"),
    "l-arabic-indic": ({}, [*CHECK_ALL, "efx:\u0662"],
                       "check: error: efx:\u0662: not a rational: '\u0662'"),
    "a-arabic-indic": ({}, [*CHECK_ALL, "efk:\u0661:1"],
                       "check: error: efk:\u0661:1: not a rational: '\u0661'"),
    "bad-k": ({}, [*CHECK_ALL, "efk:1:x"],
              "check: error: efk:1:x: invalid literal for int() with base 10: 'x'"),
    "negative-k": ({}, [*CHECK_ALL, "efk:1:-1"],
                   "check: error: efk:1:-1: k must be a non-negative int, got -1"),
    "k-plus": ({}, [*CHECK_ALL, "efk:1:+2"], "check: error: efk:1:+2: not an integer K: '+2'"),
    "k-underscore": ({}, [*CHECK_ALL, "pefk:1:2_0"],
                     "check: error: pefk:1:2_0: not an integer K: '2_0'"),
    "k-arabic-indic": ({}, [*CHECK_ALL, "efk:1:\u0661"],
                       "check: error: efk:1:\u0661: not an integer K: '\u0661'"),
    "cert-mode": ({}, [*CHECK_ALL, "cert:2:loose"],
                  "check: error: cert:2:loose: cert mode must be strict or weak, got 'loose'"),
    "mpb-without-prices": ({}, [*CHECK, "--props", "mpb"],
                           "check: error: mpb: mpb requires --prices"),
    "pefk-without-prices": ({}, [*CHECK, "--props", "pefk:1:1"],
                            "check: error: pefk:1:1: pefk requires --prices"),
    "pefx-without-prices": ({}, [*CHECK, "--props", "pefx:1"],
                            "check: error: pefx:1: pefx requires --prices"),
    "cert-without-cert": ({}, [*CHECK, "--props", "cert:2:strict"],
                          "check: error: cert:2:strict: cert requires --cert"),
}


@pytest.mark.parametrize("files, argv, err", BOUNDARY.values(), ids=BOUNDARY)
def test_boundary_rejects_bad_input(tmp_path, capsys, files, argv, err):
    files = {"i1.txt": I1, "i1.alloc": "1 1 2\n", "i1.prices": "1 1 10\n", "nh": "2\n", **files}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data if isinstance(data, bytes) else data.encode())
    assert main([str(tmp_path / a) if a in files else a for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.replace(str(tmp_path), "TMP") == err + "\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])
    assert exc.value.code == 1


def test_python_m_choreswap_runs_gen(capsys):
    args = ["gen", "--n", "2", "--m", "3", "--seed", "4", "--dist", "uniform-int:1..9"]
    assert main(args) == 0
    src = str(Path(choreswap.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "choreswap", *args], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == capsys.readouterr().out


PUBLIC_API = [
    "Allocation", "ChoreSwapError", "FriendlyCertificate", "INFINITE", "Instance",
    "best_efx_factor", "efx_factor", "envy_report", "generate_random", "hat_d",
    "mpb_price_feasibility", "parse_instance", "run_framework", "search_pef1_mpb",
    "solve_2efx", "solve_4efx", "solve_bivalued", "solve_small_m", "validate_certificate",
    "validate_rounded_er", "verify_trace",
]


def test_public_api():
    # The package exports the calls the README names; every other public
    # name bound on it is a submodule, so each name has one import path.
    assert sorted(choreswap.__all__) == PUBLIC_API
    assert all(hasattr(choreswap, name) for name in PUBLIC_API)
    assert {
        name for name, value in vars(choreswap).items()
        if not name.startswith("_") and name not in PUBLIC_API
        and not (isinstance(value, types.ModuleType) and value.__name__ == f"choreswap.{name}")
    } == set()
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert [name for name in PUBLIC_API if f"`{name}`" not in readme] == []


# A fractional file with three values and m > 2n, so auto routes it to pef1.
FRAC = "2 5\n1/2 3/4 2 5/3 1\n2 1/3 7/4 1 5/2\n"
PROPS = "efx:2,efx:1/2,efk:1:1,efk:1/3:0,pefk:1:1,pefk:1/2:1,pefx:1,mpb,po,cert:2:strict,cert:1:weak"
# sha256 of the lines test_cli_output_digest collects.
CLI_DIGEST = "1a25df6ae24f4766539a78bd5e81bc2a8b49081da984109666f80b6512cb4f6e"


def test_cli_output_digest(tmp_path, capsys):
    # Pins what solve --verify, check --report and bench print, with their
    # exit codes, over uniform, bivalued and fractional files: the CSV
    # rows (ms masked), each check line, the envy report and every error
    # line. The prices are each chore's value to its owner, the N_H file
    # names agent 1.
    corpus, work = tmp_path / "corpus", tmp_path / "work"
    for args in (("2", "6", "9", "uniform-int:1..20"), ("3", "5", "13", "uniform-int:1..20"),
                 ("2", "6", "1", "bivalued:3"), ("3", "7", "5", "bivalued:5/2")):
        n, m, seed, dist = args
        assert main(["gen", "--n", n, "--m", m, "--seed", seed, "--count", "2",
                     "--dist", dist, "--out", str(corpus)]) == 0
    write(corpus, "frac.txt", FRAC)
    work.mkdir()
    cert = write(work, "nh", "1\n")
    lines = []

    def run(*args):
        code = main([str(a) for a in args])
        captured = capsys.readouterr()
        out = captured.out
        if args[0] != "check":
            out = re.sub(r",[0-9.]+,(?=[^,\n]*$)", ",MS,", out, flags=re.M)
        lines.extend([f"{args[0]} exit {code}", out, captured.err])
        return code

    capsys.readouterr()
    for path in sorted(corpus.glob("*.txt")):
        inst = choreswap.parse_instance(path.read_text())
        alloc = work / f"{path.stem}.alloc"
        assert run("solve", path, "--verify", "--out", alloc) == 0
        x = choreswap.model.parse_allocation(alloc.read_text(), inst.n, inst.m)
        prices = write(work, f"{path.stem}.prices", choreswap.model.serialize_prices(
            [inst.d[o][j] for j, o in enumerate(x.owners)]))
        run("check", path, "--alloc", alloc, "--prices", prices, "--cert", cert,
            "--props", PROPS, "--report")
        run("check", path, "--alloc", alloc, "--props", "efx:2,mpb")
        run("solve", path, "--method", "small-m")
        run("solve", path, "--method", "bivalued")
        run("solve", path, "--method", "er4")
    run("bench", corpus, "--methods", "auto,pef1", "--verify")
    text = "\n".join(lines).replace(str(tmp_path), "TMP")
    assert {"exit 0", "exit 1", "exit 2"} <= {ln[-6:] for ln in lines}
    assert hashlib.sha256(text.encode()).hexdigest() == CLI_DIGEST, text
