import argparse
import os
import re
import shlex
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from pmcsynth import cli, eqsys, gba, product
from pmcsynth.ltl import parse_formula
from pmcsynth.pmc import parse_model
from pmcsynth.ratfunc import RationalFunction

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"
BRANCH = str(MODELS / "branch13.pmc")
LOOP_PAIR = str(MODELS / "loop_pair.pmc")
SPLIT_CYCLE = str(MODELS / "split_cycle.pmc")
INTERVAL_ROW = str(MODELS / "interval_row.imc")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# translate
# ---------------------------------------------------------------------------


def test_translate_dump(capsys):
    code, out, _ = run(capsys, "translate", "-f", "G F a")
    assert code == 0
    assert out.startswith("ap: a\n")
    assert "state 4 init" in out
    assert "acc 0:" in out and "acc 1:" in out


def test_translate_to_file(capsys, tmp_path):
    target = tmp_path / "gfa.aut"
    code, out, _ = run(capsys, "translate", "-f", "G F a", "-o", str(target))
    assert code == 0
    assert "5 states" in out and str(target) in out
    text = target.read_text()
    assert text.startswith("ap: a\n")
    n_edges = sum(1 for line in text.splitlines() if line.startswith("edge "))
    assert f", {n_edges} edges," in out


def test_translate_el_cap(capsys, monkeypatch):
    monkeypatch.setattr(gba, "EL_BUDGET", 1)
    code, _, err = run(capsys, "translate", "-f", "G F a")
    assert code == 4
    assert "above the cap" in err


def test_check_many_propositions_exit_4(capsys):
    # |el| 1 + |AP| 21 tableau rounds in log2, past gba.EL_BUDGET = 20
    conj = " & ".join(f"a{i}" for i in range(21))
    code, out, err = run(capsys, "check", "-m", BRANCH, "-q", f"P > 0 [ F ({conj}) ]")
    assert code == 4
    assert "21 atomic propositions" in err and "above the cap" in err
    assert out == ""


def test_translate_bad_formula(capsys):
    code, _, err = run(capsys, "translate", "-f", "G F (")
    assert code == 3
    assert "error:" in err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_positive_verdict_with_oracle(capsys):
    code, out, _ = run(
        capsys, "check", "-m", BRANCH, "-q", "P >= 1/4 [ F success ]", "--oracle"
    )
    assert code == 0
    assert "probability = 1/3" in out
    assert "verdict: probability in [1/4, 1]: yes" in out
    assert "(agrees)" in out


def test_check_negative_verdict(capsys):
    code, out, _ = run(capsys, "check", "-m", BRANCH, "-q", "P > 1/3 [ F success ]")
    assert code == 1
    assert "verdict: probability in (1/3, 1]: no" in out


def test_check_bare_formula(capsys):
    code, out, _ = run(capsys, "check", "-m", BRANCH, "-f", "F success")
    assert code == 0
    assert "probability = 1/3" in out
    assert "verdict" not in out
    assert "|S_M|=3" in out


def test_check_oracle_skips_outside_fragment(capsys):
    code, out, _ = run(capsys, "check", "-m", BRANCH, "-f", "X X success", "--oracle")
    assert code == 0
    assert "outside the closed-form fragment" in out


def test_check_with_evaluation(capsys):
    code, out, _ = run(
        capsys, "check", "-m", SPLIT_CYCLE, "-f", "X y", "-e", "eps=1/4"
    )
    assert code == 0
    assert "probability = 3/4" in out


def test_check_tsv_report(capsys):
    code, out, _ = run(capsys, "check", "-m", BRANCH, "-f", "F success", "--report", "tsv")
    assert code == 0
    lines = out.splitlines()
    header = lines[0].split("\t")
    values = lines[1].split("\t")
    assert header == ["|S_M|", "|V_G|", "SCC_G", "SCC_pos", "T_G", "T_mc"]
    assert values[0] == "3" and values[1] == "9"


def test_check_requires_query_or_formula(capsys):
    # classify shares the rule and the message
    for command in ("check", "classify"):
        code, out, err = run(capsys, command, "-m", BRANCH)
        assert (code, out) == (2, "")
        assert err == f"{command} needs -q or -f\n"


@pytest.mark.parametrize("command", ["check", "classify"])
def test_query_and_formula_together_exit_2(capsys, monkeypatch, command):
    monkeypatch.setattr(eqsys, "analyze", _no_product)
    both = ("-q", "P >= 1/2 [ X y ]", "-f", "G F z")
    code, out, err = run(capsys, command, "-m", SPLIT_CYCLE, *both)
    assert (code, out, err) == (2, "", f"{command} takes -q or -f, not both\n")
    # the model and the query are read first
    code, _, err = run(capsys, command, "-m", "no-such-file.pmc", *both)
    assert code == 3 and "no-such-file.pmc" in err
    code, _, err = run(capsys, command, "-m", SPLIT_CYCLE, "-q", "P ~ 1 [ X y ]", "-f", "G F z")
    assert code == 3 and "not both" not in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("check", "-m", "no-such-file.pmc", "-f", "F a"), 3),
        (("check", "-m", BRANCH, "-q", "P ~ 1 [ F a ]"), 3),
        (("check", "-m", BRANCH, "-f", "F ("), 3),
        (("check", "-m", SPLIT_CYCLE, "-f", "X y"), 3),  # missing evaluation
        (("check", "-m", SPLIT_CYCLE, "-f", "X y", "-e", "eps=1/2"), 5),  # kills an entry
        # no exponents: 1e-5000 would be a 5001-digit denominator
        (("check", "-m", SPLIT_CYCLE, "-q", "P >= 1e-5000 [ F y ]", "-e", "eps=0"), 3),
        (("check", "-m", SPLIT_CYCLE, "-f", "X y", "-e", "eps=1e-3"), 3),
        (("check", "-m", SPLIT_CYCLE, "-f", "X y", "-e", "eps=1/0"), 3),
        (("check", "-m", SPLIT_CYCLE, "-q", "P >= 1/0 [ G F y ]", "-e", "eps=0"), 3),
        # past Python's 4,300-digit limit on int conversion
        (("check", "-m", SPLIT_CYCLE, "-f", "X y", "-e", f"eps={'9' * 5000}/3"), 3),
        (("check", "-m", SPLIT_CYCLE, "-q", f"P >= 1/{'9' * 5000} [ F y ]", "-e", "eps=0"), 3),
    ],
)
def test_check_error_codes(capsys, argv, expected):
    code, _, err = run(capsys, *argv)
    assert code == expected
    assert err.strip()
    # the message is the program's, not Python's text for the failed conversion,
    # and it quotes at most the ends of a long numeral
    assert "Fraction(" not in err and "set_int_max_str_digits" not in err
    assert len(err) < 200


def test_exact_result_too_long_to_print_exit_4(capsys, tmp_path):
    # eps has a 3,000-digit denominator, and the probability is a polynomial
    # of degree 2 in eps: past Python's 4,300 digits for a printed int
    eps = "0." + "1" * 3000
    code, out, err = run(
        capsys, "check", "-m", SPLIT_CYCLE, "-f", "X X X X y & X y", "-e", f"eps={eps}"
    )
    assert (code, out, err) == (4, "", "error: exact result of 6001 digits is too long to print\n")
    # a witness p = 1/10^3001 prints, its probability p^2 does not
    model = tmp_path / "tiny.pmc"
    model.write_text(
        f"pmc\nparam p in [0, 1/1{'0' * 3000}];\nstate s;\nstate m;\nstate g {{goal}};\n"
        "state b;\ninit s;\ntrans s -> m : p;\ntrans s -> b : 1 - p;\ntrans m -> g : p;\n"
        "trans m -> b : 1 - p;\ntrans g -> g : 1;\ntrans b -> b : 1;\n"
    )
    code, out, err = run(
        capsys, "synth", "-m", str(model), "-q", "P >= 0 [ F goal ]", "--solve", "grid:11"
    )
    assert (code, out, err) == (4, "", "error: exact result of 6003 digits is too long to print\n")


def test_check_product_cap_exit_4(capsys, monkeypatch):
    monkeypatch.setattr(product, "NODE_BUDGET", 2)
    code, _, err = run(capsys, "check", "-m", BRANCH, "-f", "F success")
    assert code == 4
    assert err.strip()


@pytest.mark.parametrize(
    "query",
    ["P >= -1 [ F a ]", "P <= 3/2 [ F a ]", "P in [-1/2, 2] [ F a ]"],
)
def test_check_query_bound_outside_unit_interval_exit_3(capsys, query):
    # probability bounds lie in [0, 1]
    code, out, err = run(capsys, "check", "-m", BRANCH, "-q", query)
    assert (code, out) == (3, "")
    assert err.strip()


def _no_product(*_args, **_kwargs):
    raise AssertionError("the product was built")


@pytest.mark.parametrize(
    "evaluation, message",
    [
        (("-e", "eps=1/4,q=1/2"), "error: unknown parameter 'q'\n"),
        ((), "error: evaluation misses parameters: eps\n"),
    ],
    ids=["unknown", "missing"],
)
def test_check_evaluation_names_before_product(capsys, monkeypatch, evaluation, message):
    monkeypatch.setattr(eqsys, "analyze", _no_product)
    code, out, err = run(capsys, "check", "-m", SPLIT_CYCLE, "-f", "X y", *evaluation)
    assert (code, out, err) == (3, "", message)


def test_check_parameter_outside_range_exit_5(capsys):
    # the row sums to 1, but p_s_t = 9/10 lies outside [1/5, 7/10] (and
    # p_s_w = 1/10 outside [3/10, 1/2]): no chain of the interval model has it
    code, out, err = run(
        capsys, "check", "-m", INTERVAL_ROW, "-q", "P > 3/4 [ F goal ]",
        "-e", "p_s_t=9/10,p_s_w=1/10,p_t_t=1,p_w_w=1",
    )
    assert (code, out) == (5, "")
    assert err.splitlines() == [
        "error: evaluation does not induce a Markov chain:",
        "  parameter p_s_t = 9/10 is outside its range [1/5, 7/10]",
        "  parameter p_s_w = 1/10 is outside its range [3/10, 1/2]",
    ]
    code, out, _ = run(
        capsys, "check", "-m", INTERVAL_ROW, "-q", "P > 3/4 [ F goal ]",
        "-e", "p_s_t=7/10,p_s_w=3/10,p_t_t=1,p_w_w=1",
    )
    assert code == 1 and "probability = 7/10" in out


def test_check_fill_budget_exit_4(capsys, monkeypatch):
    M = parse_model(Path(SPLIT_CYCLE).read_text())
    system = eqsys.analyze(M, parse_formula("G F y")).system
    [block] = [r for r in system.partition.sccs if r.reachable and len(r.members) > 1]
    monkeypatch.setattr(eqsys, "FILL_BUDGET", 3)
    code, out, err = run(capsys, "check", "-m", SPLIT_CYCLE, "-f", "G F y", "-e", "eps=1/4")
    assert code == 4
    assert "probability" not in out
    assert (
        f"error: SCC {block.index}: elimination of a {len(block.members)}-node block "
        "exceeds the fill budget of 3 entries"
    ) in err


def test_check_malformed_model(capsys, tmp_path):
    bad = tmp_path / "bad.pmc"
    bad.write_text("pmc\nstate s;\ninit s;\ntrans s -> s : 1/2;\n")
    code, _, err = run(capsys, "check", "-m", str(bad), "-f", "F a")
    assert code == 3
    assert "sums to 1/2" in err


def _write(path: Path, data: bytes) -> str:
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize(
    "files",
    [
        lambda d: ("-m", str(d)),
        lambda d: ("-m", _write(d / "latin1.pmc", "pmc\nstate s {café};\n".encode("latin-1"))),
        lambda d: ("-m", SPLIT_CYCLE, "-o", str(d)),
        lambda d: (
            "-m", SPLIT_CYCLE, "-o", str(d / "q.smt2"),
            "--solver", _write(d / "solver", b"#!/bin/sh\necho sat\n"),
        ),
    ],
    ids=["model-is-directory", "model-not-utf8", "out-is-directory", "solver-not-executable"],
)
def test_unreadable_file_exit_3(capsys, tmp_path, files):
    args = files(tmp_path)
    code, _, err = run(capsys, "synth", "-q", "P >= 1 [ G F y ]", *args)
    assert code == 3
    assert err.startswith("error: ")
    assert args[-1] in err  # the offending path is the last argument


def test_deeply_nested_formula_exit_4(capsys):
    code, out, err = run(capsys, "check", "-m", SPLIT_CYCLE, "-e", "eps=1/8", "-f", "!" * 3000 + "y")
    assert (code, out) == (4, "")
    assert err == "error: input is nested too deeply\n"


def test_deeply_nested_transition_exit_4(capsys, tmp_path):
    model = tmp_path / "deep.pmc"
    model.write_text(
        "pmc\nstate x {};\nstate y {};\ninit x;\n"
        f"trans x -> y : {'(' * 3000}1{')' * 3000};\ntrans y -> y : 1;\n"
    )
    code, out, err = run(capsys, "check", "-m", str(model), "-f", "F y")
    assert (code, out) == (4, "")
    assert err == "error: input is nested too deeply\n"


def test_check_product_cap_before_translate(capsys, monkeypatch):
    # 17 X give |el| = 17, so the tableau has 2^17 + 1 states: over the cap
    # of 1000 nodes with the 3 states that the chain lumps to over {x}
    # (y and z merge), decided before translating
    def translate(*_args, **_kwargs):
        raise AssertionError("translate ran for a product over the cap")

    monkeypatch.setattr(eqsys, "translate", translate)
    monkeypatch.setattr(product, "NODE_BUDGET", 1000)
    formula = "X " * 17 + "x"
    code, out, err = run(capsys, "check", "-m", SPLIT_CYCLE, "-e", "eps=1/8", "-f", formula)
    assert (code, out) == (4, "")
    assert err == "error: product would have 393219 nodes, above the cap of 1000\n"


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_text_report(capsys):
    code, out, _ = run(capsys, "classify", "-m", LOOP_PAIR, "-f", "G F x | G F w")
    assert code == 0
    scc_lines = [l for l in out.splitlines() if l.startswith("scc ")]
    assert scc_lines
    positive = [l for l in scc_lines if "locally_positive=yes" in l]
    assert len(positive) == 1
    assert "proj={z,w}" in positive[0]
    # an accepting SCC over the non-bottom chain component is not positive
    assert any(
        "proj={x,y}" in l and "accepting=yes" in l and "locally_positive=no" in l
        for l in scc_lines
    )


def test_classify_forced_oracle_matches(capsys):
    code1, out1, _ = run(capsys, "classify", "-m", LOOP_PAIR, "-f", "G F x | G F w")
    code2, out2, _ = run(
        capsys, "classify", "-m", LOOP_PAIR, "-f", "G F x | G F w", "--oracle"
    )
    assert code1 == code2 == 0
    lines = lambda s: [l for l in s.splitlines() if l.startswith("scc ")]
    assert lines(out1) == lines(out2)


def test_classify_tsv_suppresses_detail(capsys):
    code, out, _ = run(
        capsys, "classify", "-m", LOOP_PAIR, "-f", "G F x", "--report", "tsv"
    )
    assert code == 0
    assert len(out.splitlines()) == 2
    assert "scc " not in out


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_grid_witness(capsys):
    code, out, _ = run(
        capsys, "synth", "-m", SPLIT_CYCLE, "-q", "P >= 3/4 [ X y ]", "--solve", "grid:5"
    )
    assert code == 0
    assert "witness: eps=1/4" in out
    assert "probability = 3/4" in out
    assert "tried 3 points, 3 admitted" in out


def test_synth_grid_no_witness(capsys):
    code, out, _ = run(
        capsys, "synth", "-m", SPLIT_CYCLE, "-q", "P > 9/10 [ X y ]", "--solve", "grid:5"
    )
    assert code == 1
    assert "no witness on the grid" in out


def test_synth_interval_model(capsys):
    code, out, _ = run(capsys, "synth", "-m", INTERVAL_ROW, "-q", "P > 3/5 [ F goal ]")
    assert code == 0
    assert "p_s_t=7/10" in out
    # the scan stops at the first witness, 111 combinations in
    assert "tried 111 points, 3 admitted" in out


def test_synth_interval_grid_solves_the_last_axis_of_each_row(capsys, monkeypatch):
    # row s forces p_s_w = 1 - p_s_t and rows t, w force their sinks to 1, so
    # only p_s_t's 101 values are scanned, not the 10,201 points
    calls = 0
    evaluate = RationalFunction.evaluate

    def counted(self, assignment):
        nonlocal calls
        calls += 1
        return evaluate(self, assignment)

    monkeypatch.setattr(RationalFunction, "evaluate", counted)
    code, out, _ = run(
        capsys, "synth", "-m", INTERVAL_ROW, "-q", "P > 9/10 [ F goal ]", "--solve", "grid:101"
    )
    assert code == 1
    assert "no witness on the grid (tried 10201 points, 21 admitted)" in out
    assert calls <= 4 * 101


def test_synth_interval_model_with_many_parameters(capsys, tmp_path):
    # interval_row.imc's free row, then a chain of [1, 1] transitions: 1,200
    # states, each one parameter and one axis of the grid
    chain = [f"c{i}" for i in range(1, 1198)]
    lines = ["imc", "state s {};", "state t {goal};", "state w {};"]
    lines += [f"state {c} {{}};" for c in chain]
    lines += ["init s;", "trans s -> t : [1/5, 7/10];", "trans s -> w : [3/10, 1/2];"]
    lines += [f"trans {a} -> {b} : [1, 1];" for a, b in zip(["t", *chain], [*chain, chain[-1]])]
    lines += ["trans w -> w : [1, 1];"]
    model = tmp_path / "long.imc"
    model.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "synth", "-m", str(model), "-q", "P > 3/5 [ F goal ]")
    assert (code, err) == (0, "")
    assert "p_s_t=7/10" in out
    assert "tried 111 points, 3 admitted" in out


def test_synth_grid_budget_exit_4(capsys, monkeypatch, tmp_path):
    # two free axes of 1001 points each: 1,002,001 points, past GRID_BUDGET
    code, out, err = run(
        capsys, "synth", "-m", INTERVAL_ROW, "-q", "P > 3/5 [ F goal ]", "--solve", "grid:1001"
    )
    assert code == 4
    assert out == ""
    assert err == (
        f"error: grid of 1002001 points exceeds the grid budget of {eqsys.GRID_BUDGET} points\n"
    )
    # one axis far past the budget is refused before its points are built
    code, out, err = run(
        capsys, "synth", "-m", SPLIT_CYCLE, "-q", "P >= 1/2 [ X y ]", "--solve", "grid:1000000000"
    )
    assert (code, out) == (4, "")
    assert "grid of 999999998 points" in err
    # with -o too: nothing is built or written
    target = tmp_path / "q.smt2"
    monkeypatch.setattr(eqsys, "analyze", _no_product)
    code, out, err = run(
        capsys, "synth", "-m", INTERVAL_ROW, "-q", "P > 3/5 [ F goal ]", "--solve", "grid:1001",
        "-o", str(target),
    )
    assert (code, out) == (4, "")
    assert "grid of 1002001 points" in err
    assert not target.exists()


def test_synth_emit_only(capsys, tmp_path):
    target = tmp_path / "sys.smt2"
    code, out, _ = run(
        capsys, "synth", "-m", SPLIT_CYCLE, "-q", "P >= 1 [ G F y ]", "-o", str(target)
    )
    assert code == 0
    assert f"smt: wrote {target}" in out
    text = target.read_text()
    assert text.startswith("(set-logic QF_NRA)")
    assert "(check-sat)" in text


def test_synth_emit_rejects_reserved_parameter(capsys, tmp_path):
    model = tmp_path / "reserved.pmc"
    model.write_text(
        "pmc\nparam true in (0, 1);\nstate s;\nstate t {goal};\ninit s;\n"
        "trans s -> t : true;\ntrans s -> s : 1 - true;\ntrans t -> t : 1;\n"
    )
    target = tmp_path / "sys.smt2"
    code, _, err = run(
        capsys, "synth", "-m", str(model), "-q", "P >= 1 [ F goal ]", "-o", str(target)
    )
    assert code == 3
    assert "'true'" in err
    assert not target.exists()


@pytest.mark.parametrize(
    "param, state, culprit",
    [("pé", "s", "parameter 'pé'"), ("p", "é", "state 'é'")],
)
def test_synth_emit_rejects_non_ascii_names(capsys, tmp_path, param, state, culprit):
    model = tmp_path / "names.pmc"
    model.write_text(
        f"pmc\nparam {param} in (0, 1);\nstate {state};\nstate t {{goal}};\n"
        f"init {state};\ntrans {state} -> t : {param};\n"
        f"trans {state} -> {state} : 1 - {param};\ntrans t -> t : 1;\n"
    )
    target = tmp_path / "sys.smt2"
    code, _, err = run(
        capsys, "synth", "-m", str(model), "-q", "P >= 1 [ F goal ]", "-o", str(target)
    )
    assert code == 3
    assert culprit in err and "simple symbol" in err
    assert not target.exists()


def _fake_solver(tmp_path, body):
    path = tmp_path / "solver.sh"
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
    return str(path)


def test_synth_solver_sat(capsys, tmp_path):
    solver = _fake_solver(tmp_path, "echo sat\necho '(model)'\n")
    code, out, _ = run(
        capsys,
        "synth", "-m", SPLIT_CYCLE, "-q", "P >= 1 [ G F y ]",
        "-o", str(tmp_path / "q.smt2"), "--solver", solver,
    )
    assert code == 0
    assert "solver: sat" in out
    assert "(model)" in out


@pytest.mark.parametrize(
    "body, relayed",
    [("printf sat\n", ""), ("echo\necho sat\necho '(model)'\n", "(model)\n")],
    ids=["no-newline", "blank-line-first"],
)
def test_synth_solver_sat_relays_only_what_follows_the_answer(capsys, tmp_path, body, relayed):
    solver = _fake_solver(tmp_path, body)
    out_file = str(tmp_path / "q.smt2")
    code, out, _ = run(
        capsys,
        "synth", "-m", SPLIT_CYCLE, "-q", "P >= 1 [ G F y ]", "-o", out_file, "--solver", solver,
    )
    assert code == 0
    assert out == f"smt: wrote {out_file}\nsolver: sat\n" + relayed


def test_synth_solver_unsat(capsys, tmp_path):
    solver = _fake_solver(tmp_path, "echo unsat\n")
    code, out, _ = run(
        capsys,
        "synth", "-m", SPLIT_CYCLE, "-q", "P >= 1 [ G F y ]",
        "-o", str(tmp_path / "q.smt2"), "--solver", solver,
    )
    assert code == 1
    assert "solver: unsat" in out


def test_synth_solver_garbage(capsys, tmp_path):
    solver = _fake_solver(tmp_path, "echo it-broke >&2\n")
    code, out, err = run(
        capsys,
        "synth", "-m", SPLIT_CYCLE, "-q", "P >= 1 [ G F y ]",
        "-o", str(tmp_path / "q.smt2"), "--solver", solver,
    )
    assert code == 5
    assert "solver: (no output)" in out


@pytest.mark.parametrize(
    "spec, expected",
    [
        pytest.param("grid:zero", 2, id="grid:zero"),
        pytest.param("bisect:3", 2, id="bisect:3"),
        pytest.param("grid:1", 3, id="grid:1"),
        # int() reads these three as 11, 11 and 5
        pytest.param("grid:1_1", 2, id="grid:1_1"),
        pytest.param("grid:\u0661\u0661", 2, id="grid:arabic-indic-11"),
        pytest.param("grid: 5 ", 2, id="grid:space-5-space"),
        # len() of its index range is past sys.maxsize
        pytest.param("grid:99999999999999999999", 4, id="grid:20-nines"),
        # past Python's 4,300-digit limit on int conversion
        pytest.param("grid:" + "9" * 5000, 4, id="grid:5000-nines"),
    ],
)
def test_synth_bad_solve_spec(capsys, monkeypatch, tmp_path, spec, expected):
    code, _, err = run(
        capsys, "synth", "-m", SPLIT_CYCLE, "-q", "P >= 1/2 [ X y ]", "--solve", spec
    )
    assert code == expected
    assert err.strip()
    # with -o, the spec is refused before the product is built or FILE written
    target = tmp_path / "q.smt2"
    monkeypatch.setattr(eqsys, "analyze", _no_product)
    code, out, err_o = run(
        capsys, "synth", "-m", SPLIT_CYCLE, "-q", "P >= 1/2 [ X y ]", "--solve", spec,
        "-o", str(target),
    )
    assert (code, out, err_o) == (expected, "", err)
    assert not target.exists()


@pytest.mark.parametrize(
    "flags",
    [(), ("-o", "q.smt2", "--solve", "grid:3")],
    ids=["solver-without-out", "solver-with-solve"],
)
def test_synth_solver_flag_combinations_exit_2(capsys, monkeypatch, tmp_path, flags):
    solver = _fake_solver(tmp_path, "echo sat\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(eqsys, "analyze", _no_product)
    code, out, err = run(
        capsys, "synth", "-m", SPLIT_CYCLE, "-q", "P >= 1 [ G F y ]", "--solver", solver, *flags
    )
    assert (code, out) == (2, "")
    assert err == "synth: --solver needs -o FILE and excludes --solve\n"
    assert [p.name for p in tmp_path.iterdir()] == ["solver.sh"]  # nothing written


PIPELINE_COMMANDS = [
    ["check", "-m", BRANCH, "-q", "P >= 1/4 [ F success ]"],
    ["check", "-m", LOOP_PAIR, "-q", "P > 1/2 [ X (x U z) ]"],
    ["check", "-m", SPLIT_CYCLE, "-f", "G F y", "-e", "eps=1/4"],
    ["classify", "-m", LOOP_PAIR, "-f", "G F x | G F w"],
    ["classify", "-m", BRANCH, "-f", "F success", "--oracle"],
    ["synth", "-m", SPLIT_CYCLE, "-q", "P >= 1/2 [ G F y ]", "-o", "{out}"],
    ["synth", "-m", INTERVAL_ROW, "-q", "P >= 1/2 [ F goal ]", "-o", "{out}"],
    ["synth", "-m", SPLIT_CYCLE, "-q", "P >= 3/4 [ X y ]", "--solve", "grid:3"],
    ["synth", "-m", INTERVAL_ROW, "-q", "P >= 1/2 [ F goal ]", "--solve", "grid:3"],
]


def test_pipeline_never_reads_the_scc_view(capsys, monkeypatch, tmp_path):
    """``SccPartition.sccs`` is a view for tests and tracing: every command
    runs the same with it raising."""

    def results():
        found = []
        for argv in PIPELINE_COMMANDS:
            out_file = tmp_path / "out.smt2"
            code, out, err = run(capsys, *(a.format(out=out_file) for a in argv))
            written = out_file.read_text() if out_file.exists() else None
            out_file.unlink(missing_ok=True)
            found.append((code, re.sub(r"T_(G|mc)=\S+", "T", out), err, written))
        return found

    expected = results()

    def no_view(_partition):
        raise AssertionError("the pipeline read SccPartition.sccs")

    monkeypatch.setattr(product.SccPartition, "sccs", property(no_view))
    assert results() == expected
    assert [code for code, *_ in expected] == [0, 1, 0, 0, 0, 0, 0, 1, 0]


def eager_zeros(system):
    """The zero set by the formula ``build_system`` once applied eagerly:
    the reachable nodes whose SCC reaches no positive SCC."""
    part = system.partition
    reaches = part.reaching(system.positives)
    return tuple(
        u for u in part.order if part.reachable[part.comp_of[u]] and not reaches[part.comp_of[u]]
    )


# The pipeline commands with each formula whose zero set holds only arcless
# nodes (reachable no more) swapped for one whose zeros have moves, so that
# every command of the list has zeros to compare.
ZERO_COMMANDS = [
    ["check", "-m", BRANCH, "-q", "P >= 1/4 [ F success ]"],
    ["check", "-m", LOOP_PAIR, "-q", "P > 1/2 [ F y ]"],
    ["check", "-m", SPLIT_CYCLE, "-f", "F G y", "-e", "eps=1/4"],
    ["classify", "-m", LOOP_PAIR, "-f", "G F x | G F w"],
    ["classify", "-m", BRANCH, "-f", "F success", "--oracle"],
    ["synth", "-m", SPLIT_CYCLE, "-q", "P >= 1/2 [ F G y ]", "-o", "{out}"],
    ["synth", "-m", INTERVAL_ROW, "-q", "P >= 1/2 [ F goal ]", "-o", "{out}"],
    ["synth", "-m", SPLIT_CYCLE, "-q", "P >= 3/4 [ F G y ]", "--solve", "grid:3"],
    ["synth", "-m", INTERVAL_ROW, "-q", "P >= 1/2 [ F goal ]", "--solve", "grid:3"],
]


def test_zero_set_is_built_only_when_read(capsys, monkeypatch, tmp_path):
    """``classify`` builds no zero set; ``check``, ``synth -o`` and the grid
    read the one the eager formula gives."""
    analyze = eqsys.analyze
    systems = []

    def recording(*args, **kwargs):
        analysis = analyze(*args, **kwargs)
        systems.append(analysis.system)
        return analysis

    monkeypatch.setattr(eqsys, "analyze", recording)
    for argv in ZERO_COMMANDS:
        run(capsys, *(a.format(out=tmp_path / "out.smt2") for a in argv))
    assert len(systems) == len(ZERO_COMMANDS)
    for argv, system in zip(ZERO_COMMANDS, systems):
        built = system.__dict__
        if argv[0] == "classify":
            assert "zeros" not in built and "zero_sccs" not in built, argv
            continue
        # check and the grid solve through the per-SCC flags, -o writes the nodes
        assert "zero_sccs" in built and ("zeros" in built) == ("-o" in argv), argv
        assert system.zeros and system.zeros == eager_zeros(system), argv


def test_main_builds_its_parser_once(capsys):
    cli._parser.cache_clear()
    for _ in range(2):
        assert run(capsys, "translate", "-f", "F a")[0] == 0
    # each miss is one build_parser call
    assert cli._parser.cache_info().misses == 1


def test_missing_required_arguments_exit_2(capsys):
    for argv in (
        ["synth", "-m", SPLIT_CYCLE],  # -q is required
        ["check"],  # -m is required
        [],  # a subcommand is required
        # the caps are constants, and synth prints no statistics
        ["check", "-m", BRANCH, "-f", "F success", "--max-product-nodes", "5"],
        ["translate", "-f", "F a", "--el-cap", "5"],
        ["synth", "-m", SPLIT_CYCLE, "-q", "P >= 1 [ G F y ]", "--report", "tsv"],
    ):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2, argv
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["translate", "-f", "F a", "-o", "{tmp}/a.aut"],
        ["check", "-m", SPLIT_CYCLE, "-f", "X y", "-e", "eps=1/4", "--oracle", "--report", "tsv"],
        ["classify", "-m", LOOP_PAIR, "-f", "G F x", "--oracle"],
        ["synth", "-m", SPLIT_CYCLE, "-q", "P >= 3/4 [ X y ]", "--solve", "grid:5", "-o", "{tmp}/q.smt2"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_option_is_read(capsys, tmp_path, argv):
    # an option that its command never reads would be accepted and ignored
    parser = cli.build_parser()
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    defined = {a.dest for a in subparsers.choices[argv[0]]._actions if a.dest != "help"}
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    args = parser.parse_args([a.format(tmp=tmp_path) for a in argv], namespace=Recording())
    reads.clear()  # parsing reads them too
    assert args.func(args) == 0
    capsys.readouterr()
    assert sorted(defined - reads) == []


def test_readme_commands_run_as_printed(capsys, monkeypatch, tmp_path):
    # every "$ pmc-synth ..." line of README.md, with the output lines shown
    # under it ("..." skipped, timings masked) appearing in order
    (tmp_path / "models").symlink_to(MODELS)
    monkeypatch.chdir(tmp_path)
    mask = lambda text: re.sub(r"\b(T_G|T_mc)=\S+", r"\1=?", text)
    examples = []
    shown = None  # the output lines of the example being read
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("$ pmc-synth "):
            shown = []
            examples.append((shlex.split(line)[2:], shown))
        elif not line or line.startswith("```"):
            shown = None
        elif shown is not None and line != "...":
            shown.append(mask(line))
    assert len(examples) == 5
    for argv, shown in examples:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        lines = iter(mask(out).splitlines())
        for expected in shown:
            assert expected in lines, (argv, expected)


def test_plain_pytest_finds_the_package():
    # README "Tests" runs bare `python3 -m pytest` from the repository root,
    # with nothing on PYTHONPATH; the pytest config must put src/ on the path
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--collect-only", "-p", "no:cacheprovider",
         "tests/test_sccs.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
