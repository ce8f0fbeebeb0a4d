from __future__ import annotations

import json
import os
import subprocess
import sys as _sys
from fractions import Fraction
from pathlib import Path

import pytest

import formalpde
from conftest import BENCH_TEXTS, CORPUS_TEXTS
from formalpde import corpus
from formalpde.completion import complete
from formalpde.cli import (
    EXIT_CORPUS_MISMATCH,
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    build_report,
    main,
)
from formalpde.parser import ParseError, parse, render


def test_parse_flagship_text():
    doc = parse(CORPUS_TEXTS["example7"])
    assert (doc.n, doc.m) == (4, 1)
    assert len(doc.system.equations) == 4
    assert doc.system.order == 2


def test_parse_fractional_coefficient():
    doc = parse("vars=3; eq: 1/2*y[1] = 0")
    assert list(doc.system.equations[0].terms.values()) == [Fraction(1, 2)]


def test_parse_order_zero_jet():
    doc = parse("vars=2; eq: y[] - y[1] = 0")
    orders = sorted(sum(jc.mu) for jc in doc.system.equations[0].terms)
    assert orders == [0, 1]


def test_parse_index_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse("vars=3; eq: y[5]")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("vars=3;\neq: y[1,$]")
    assert err.value.line == 2


def test_round_trip_all_corpus_texts():
    for name, text in CORPUS_TEXTS.items():
        doc = parse(text)
        again = parse(render(doc))
        assert again.system == doc.system, name


def test_round_trip_multi_unknown():
    doc = parse("vars=3; unknowns=4; eq: z1[3]-z4[]; eq: z2[2]-2*z3[1]")
    assert doc.m == 4
    assert parse(render(doc)).system == doc.system


def test_cli_examples_single_entry(capsys):
    code = main(["examples", "run", "example7"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.startswith("PASS example7")
    assert "discrepancy" in out


def test_cli_examples_unknown_name(capsys):
    assert main(["examples", "run", "nosuch"]) == EXIT_PARSE_ERROR
    assert capsys.readouterr().err == "usage error: unknown corpus entry 'nosuch'\n"


def test_cli_examples_mismatch_exit_code(capsys, monkeypatch):
    def broken():
        return corpus.CorpusResult(
            "broken",
            "synthetic",
            (corpus.Check("value", "trivial", 1, 2),),
            (),
        )

    monkeypatch.setitem(corpus.ENTRIES, "broken", broken)
    code = main(["examples", "run", "broken"])
    out = capsys.readouterr().out
    assert code == EXIT_CORPUS_MISMATCH
    assert "FAIL broken" in out
    assert "expected 1" in out


def test_cli_hilbert_series(capsys):
    code = main(["hilbert", "--vars", "3", "--degrees", "3,2", "--trunc", "6"])
    out = capsys.readouterr().out.strip()
    assert code == EXIT_OK
    assert out == "1,3,5,6,6,6,6"


def test_cli_analyze_empty_system(tmp_path, capsys):
    f = tmp_path / "empty.pde"
    f.write_text("vars=3;\n", encoding="utf-8")
    code = main(["--report", "json", "analyze", str(f)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["codimension"] == 0
    assert report["purity"]["pure"] is True
    assert report["inverse"]["finite_dimension"] is None
    assert any("infinite dimensional" in note for note in report["notes"])


def test_cli_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.pde"
    f.write_text("vars=3; eq: y[9]\n", encoding="utf-8")
    assert main(["analyze", str(f)]) == EXIT_PARSE_ERROR


def test_cli_purity_example8(tmp_path, capsys):
    # the classical frame change is applied in the source text
    f = tmp_path / "ex8.pde"
    f.write_text("vars=3; eq: y[3,3]-y[1,3]=0; eq: y[2,3]=0\n", encoding="utf-8")
    code = main(["--report", "json", "purity", str(f)])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert report["pure"] is False
    assert report["torsion"] == ["z4"]
    assert report["localized_dimension"] == 1


def test_cli_involution(tmp_path, capsys):
    f = tmp_path / "ex4.pde"
    f.write_text(CORPUS_TEXTS["example4"], encoding="utf-8")
    code = main(["--report", "json", "involution", str(f)])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert report["involution"]["involutive"] is True
    assert report["involution"]["alpha"] == [3, 0, 0]


def test_report_json_deterministic():
    text = CORPUS_TEXTS["example3"]
    doc = parse(text)
    a = json.dumps(build_report(text, doc.system, seed=0), sort_keys=True, ensure_ascii=False)
    doc2 = parse(text)
    b = json.dumps(build_report(text, doc2.system, seed=0), sort_keys=True, ensure_ascii=False)
    assert a == b


def _child_env() -> dict:
    """The environment of a child interpreter that imports the same formalpde
    as this process, installed or not."""
    paths = (str(Path(formalpde.__file__).parent.parent), os.environ.get("PYTHONPATH"))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def test_report_json_byte_identical_across_processes(tmp_path):
    f = tmp_path / "ex3.pde"
    f.write_text(CORPUS_TEXTS["example3"], encoding="utf-8")
    cmd = [_sys.executable, "-m", "formalpde.cli", "--report", "json", "analyze", str(f)]
    runs = [subprocess.run(cmd, capture_output=True, check=True, env=_child_env()).stdout for _ in range(2)]
    assert runs[0] == runs[1]


def test_cli_import_pulls_in_no_dataclasses_or_inspect():
    # start-up cost: `dataclasses` brings in `inspect`, `ast`, `dis` and
    # `tokenize`, a few milliseconds of every CLI call; the records are
    # NamedTuples and slotted classes instead.  `hashlib` loads on the first
    # report digest, so commands that print none never load it
    code = (
        "import sys; before = set(sys.modules); import formalpde.cli; "
        "print(' '.join(sorted({'dataclasses', 'inspect', 'hashlib', '_hashlib'} & (set(sys.modules) - before))))"
    )
    run = subprocess.run([_sys.executable, "-c", code], capture_output=True, check=True, env=_child_env(), text=True)
    assert run.stdout.strip() == ""


def test_report_flagship_notes_and_values():
    text = CORPUS_TEXTS["example7"]
    doc = parse(text)
    report = build_report(text, doc.system, seed=0)
    assert report["completion"]["verdict"] == "formally_integrable"
    assert report["codimension"] == 4
    assert report["hilbert"]["function"][:5] == [1, 4, 6, 4, 1]
    assert report["hilbert"]["series_matches"] is True
    assert report["inverse"]["finite_dimension"] == 16
    assert report["purity"]["pure"] is True
    assert sorted(report["characteristic_ideal"]) == [
        "(χ_1)^2 - χ_2*χ_4",
        "(χ_2)^2 - χ_3*χ_4",
        "(χ_3)^2",
        "(χ_4)^2",
    ]


def test_corpus_provenance_tags_present():
    for name, fn in corpus.ENTRIES.items():
        result = fn()
        assert result.source
        for check in result.checks:
            assert check.provenance in ("literature", "derived", "trivial"), (name, check.key)


@pytest.mark.parametrize("name", ["example7", "example3"])
def test_report_bytes_do_not_depend_on_the_memo(name):
    # one system analysed at seed 0, then 1, then 2 keeps every memo entry of
    # the earlier seeds; each report must equal that of a fresh parse.  The
    # example3 report differs from seed to seed, the flagship's does not.
    text = CORPUS_TEXTS[name]
    shared = parse(text).system
    completion = complete(shared)  # held, so the completed system and its memo persist

    def report_bytes(system, seed):
        return json.dumps(build_report(text, system, seed=seed), sort_keys=True, indent=2, ensure_ascii=False)

    for seed in (0, 1, 2):
        fresh = report_bytes(parse(text).system, seed)
        assert report_bytes(shared, seed) == fresh
        assert report_bytes(shared, seed) == fresh
    assert complete(shared) is completion


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{zero_denominator}"],
        ["analyze", "{directory}"],
        ["hilbert", "--vars", "2", "--degrees", "0"],
        ["hilbert", "--vars", "2", "--degrees", "a"],
        ["hilbert", "--vars", "1", "--degrees", "1,1"],
        ["analyze", "--trunc", "abc", "{valid}"],
        ["analyze"],
        ["nosuch", "{valid}"],
        ["--report", "xml", "analyze", "{valid}"],
        ["analyze", "--trunc", "-1", "{valid}"],
        ["analyze", "--trunc", "-2", "{valid}"],
        ["hilbert", "--file", "{valid}", "--trunc", "-1"],
        ["hilbert", "--vars", "3", "--degrees", "2", "--trunc", "-1"],
        ["involution", "--order", "-1", "{valid}"],
        ["examples", "list", "nosuch"],
        ["hilbert", "--file", "{valid}", "--vars", "7"],
        ["hilbert", "--vars", "0", "--degrees", "1"],
        ["hilbert", "--vars", "2", "--degrees", ""],
    ],
    ids=[
        "zero-denominator",
        "directory",
        "degree-zero",
        "degree-not-int",
        "degrees-exceed-vars",
        "trunc-not-int",
        "missing-file",
        "unknown-command",
        "unknown-report-mode",
        "analyze-trunc-minus-1",
        "analyze-trunc-minus-2",
        "hilbert-file-negative-trunc",
        "hilbert-series-negative-trunc",
        "involution-negative-order",
        "examples-list-name",
        "hilbert-file-and-vars",
        "hilbert-zero-vars",
        "hilbert-empty-degrees",
    ],
)
def test_cli_input_error_exit_code(argv, tmp_path, capsys):
    bad = tmp_path / "zero.pde"
    bad.write_text("vars=1; eq: 1/0*y[1]=0\n", encoding="utf-8")
    valid = tmp_path / "valid.pde"
    valid.write_text(CORPUS_TEXTS["example3"], encoding="utf-8")
    argv = [a.format(zero_denominator=bad, directory=tmp_path, valid=valid) for a in argv]
    assert main(argv) == EXIT_PARSE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--vars", "0", "--degrees", "1"], "invalid --degrees '1': rank exceeds variable count"),
        (["--vars", "2", "--degrees", ""], "invalid --degrees '': invalid literal for int() with base 10: ''"),
    ],
    ids=["zero-vars", "empty-degrees"],
)
def test_cli_hilbert_reports_the_degree_error_when_both_options_are_given(argv, message, capsys):
    # a given option counts even when its value is false: 0 variables, no degrees
    assert main(["hilbert", *argv]) == EXIT_PARSE_ERROR
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--trunc", "-1", "{valid}"], "formalpde analyze: argument --trunc: must not be negative: -1"),
        (["hilbert", "--file", "{valid}", "--vars", "7"], "formalpde hilbert: argument --vars: not allowed with argument --file"),
        (["analyze"], "formalpde analyze: the following arguments are required: file"),
        (["--report", "xml", "analyze", "{valid}"], "formalpde: argument --report: invalid choice: 'xml' (choose from 'text', 'json')"),
    ],
    ids=["subcommand-type", "subcommand-conflict", "subcommand-required", "top-level-choice"],
)
def test_cli_usage_error_names_the_program_once(argv, message, tmp_path, capsys):
    valid = tmp_path / "valid.pde"
    valid.write_text(CORPUS_TEXTS["example3"], encoding="utf-8")
    assert main([a.format(valid=valid) for a in argv]) == EXIT_PARSE_ERROR
    assert capsys.readouterr().err == f"usage error: {message}\n"


def test_cli_internal_error_exit_code(monkeypatch, capsys):
    from formalpde import cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_examples", broken)
    assert main(["examples", "list"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["internal error: RuntimeError: boom"]


@pytest.mark.parametrize("text", ["vars=1; eq: y[]=0", "vars=2; eq: y[1,1]=0; eq: y[]=0"])
def test_cli_analyze_order_zero_equation(text, tmp_path, capsys):
    # a generator of degree 0 has no principal-class series to compare with
    f = tmp_path / "zero.pde"
    f.write_text(text, encoding="utf-8")
    assert main(["--report", "json", "analyze", str(f)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert "principal_class_series" not in report["hilbert"]


HIDDEN_ZERO_TEXT = "vars=3; unknowns=2; eq: z2[1,1]=0; eq: z1[1,3]-z2[]=0; eq: z1[]=0;"


def test_cli_analyze_completes_a_system_whose_prolongation_forces_zero(tmp_path, capsys):
    # z1 = 0 gives z1_13 = 0 in R_2, hence z2 = 0, and R_3 adds z2_i = 0
    f = tmp_path / "hidden-zero.pde"
    f.write_text(HIDDEN_ZERO_TEXT, encoding="utf-8")
    assert main(["--report", "json", "analyze", str(f)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["completion"]["verdict"] == "completed"
    assert report["completion"]["steps"] == 1
    assert report["inverse"]["finite_dimension"] == 0
    assert set(report["hilbert"]["function"]) == {0}


@pytest.mark.parametrize("command", ["purity", "inverse"])
def test_cli_inconclusive_completion_exit_code(command, tmp_path, capsys, monkeypatch):
    f = tmp_path / "window.pde"
    f.write_text(HIDDEN_ZERO_TEXT, encoding="utf-8")
    monkeypatch.setattr("formalpde.completion.is_s_acyclic", lambda *a: (False, False))  # no order certifies
    assert main(["--report", "json", "analyze", str(f)]) == EXIT_INCONCLUSIVE
    assert json.loads(capsys.readouterr().out)["completion"]["verdict"] == "window_inconclusive"
    assert main(["--report", "json", command, str(f)]) == EXIT_INCONCLUSIVE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("inconclusive: completion inconclusive")


def test_cli_hilbert_inconclusive_completion_exit_code(tmp_path, capsys, monkeypatch):
    f = tmp_path / "example3.pde"
    f.write_text(CORPUS_TEXTS["example3"], encoding="utf-8")
    argv = ["hilbert", "--file", str(f), "--trunc", "5"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == "function: [1, 3, 2, 2, 2, 2]\n"
    monkeypatch.setattr("formalpde.completion.is_s_acyclic", lambda *a: (False, False))  # no order certifies
    assert main(argv) == EXIT_INCONCLUSIVE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["inconclusive: completion inconclusive; Hilbert function undecided"]


def test_analyze_flagship_builds_tableaux_at_orders_2_and_5_only(tmp_path, capsys, monkeypatch):
    # the order-2 certificate rules out orders 3 and 4, so no frame search runs there
    from formalpde import spencer

    orders = set()
    tableau = spencer.janet_tableau

    def spy(sys, order, *frame):
        orders.add(order)
        return tableau(sys, order, *frame)

    monkeypatch.setattr(spencer, "janet_tableau", spy)
    f = tmp_path / "flagship.pde"
    f.write_text(BENCH_TEXTS["flagship"], encoding="utf-8")
    assert main(["--report", "json", "analyze", str(f)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["involution"]["involutive_prolongation_order"] == 5
    assert orders == {2, 5}


@pytest.mark.parametrize(
    "name, argv, top",
    [("five-var", ["hilbert", "--file", "{}", "--trunc", "8"], 6), ("flagship", ["analyze", "{}"], 5)],
)
def test_no_symbol_matrix_above_a_vanished_symbol(name, argv, top, tmp_path, capsys, monkeypatch):
    # g_6 of five-var and g_5 of the flagship are 0, so every higher symbol is
    from formalpde import pdesystem

    orders = set()
    build = pdesystem.symbol_matrix

    def spy(sys, order):
        orders.add(order)
        return build(sys, order)

    monkeypatch.setattr(pdesystem, "symbol_matrix", spy)
    f = tmp_path / f"{name}.pde"
    f.write_text(BENCH_TEXTS[name], encoding="utf-8")
    assert main(["--report", "json"] + [a.format(f) for a in argv]) == EXIT_OK
    capsys.readouterr()
    assert top in orders and max(orders) == top


def test_rational_symbols_build_no_fraction_kernel(tmp_path, capsys, monkeypatch):
    # over QQ a symbol is built from shifted integer rows and reduced once over
    # the integers; nothing on the hilbert path reads an exact kernel basis
    import inspect

    from formalpde import pdesystem, ratlinalg

    calls = {"kernel": 0, "symbol rref": 0, "shift in symbol_matrix": 0}
    inside = []
    kernel, rref = ratlinalg.RrefResult.kernel, pdesystem.rref
    build, shift = pdesystem.symbol_matrix, pdesystem.Equation.shift

    def kernel_spy(result):
        calls["kernel"] += 1
        return kernel(result)

    def rref_spy(matrix):
        caller = inspect.currentframe().f_back
        if caller.f_code.co_name == "_symbol_rref" and not caller.f_locals["sys"].params:
            calls["symbol rref"] += 1
        return rref(matrix)

    def build_spy(sys, order):
        inside.append(order)
        try:
            return build(sys, order)
        finally:
            inside.pop()

    def shift_spy(equation, nu):
        calls["shift in symbol_matrix"] += bool(inside)
        return shift(equation, nu)

    monkeypatch.setattr(ratlinalg.RrefResult, "kernel", kernel_spy)
    monkeypatch.setattr(pdesystem, "rref", rref_spy)
    monkeypatch.setattr(pdesystem, "symbol_matrix", build_spy)
    monkeypatch.setattr(pdesystem.Equation, "shift", shift_spy)
    f = tmp_path / "five-var.pde"
    f.write_text(BENCH_TEXTS["five-var"], encoding="utf-8")
    assert main(["--report", "json", "hilbert", "--file", str(f), "--trunc", "8"]) == EXIT_OK
    capsys.readouterr()
    assert calls == {"kernel": 0, "symbol rref": 0, "shift in symbol_matrix": 0}
