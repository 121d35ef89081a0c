import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from pmcsynth import cli, eqsys
from pmcsynth.ltl import parse_formula
from pmcsynth.pmc import parse_model

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
    assert target.read_text().startswith("ap: a\n")


def test_translate_el_cap(capsys):
    code, _, err = run(capsys, "translate", "-f", "G F a", "--el-cap", "1")
    assert code == 4
    assert "above the cap" in err


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


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("check", "-m", "no-such-file.pmc", "-f", "F a"), 3),
        (("check", "-m", BRANCH, "-q", "P ~ 1 [ F a ]"), 3),
        (("check", "-m", BRANCH, "-f", "F ("), 3),
        (("check", "-m", SPLIT_CYCLE, "-f", "X y"), 3),  # missing evaluation
        (("check", "-m", SPLIT_CYCLE, "-f", "X y", "-e", "eps=1/2"), 5),  # kills an entry
        (("check", "-m", BRANCH, "-f", "F success", "--max-product-nodes", "2"), 4),
    ],
)
def test_check_error_codes(capsys, argv, expected):
    code, _, err = run(capsys, *argv)
    assert code == expected
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
    # of 1000 nodes with 4 chain states, decided before translating
    def translate(*_args, **_kwargs):
        raise AssertionError("translate ran for a product over the cap")

    monkeypatch.setattr(eqsys, "translate", translate)
    formula = "X " * 17 + "x"
    code, out, err = run(
        capsys, "check", "-m", SPLIT_CYCLE, "-e", "eps=1/8", "-f", formula,
        "--max-product-nodes", "1000",
    )
    assert (code, out) == (4, "")
    assert err == "error: product would have 524292 nodes, above the cap of 1000\n"


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


def test_synth_grid_budget_exit_4(capsys):
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


@pytest.mark.parametrize("spec", ["grid:zero", "bisect:3"])
def test_synth_bad_solve_spec(capsys, spec):
    code, _, err = run(
        capsys, "synth", "-m", SPLIT_CYCLE, "-q", "P >= 1/2 [ X y ]", "--solve", spec
    )
    assert code == 2
    assert err.strip()


def test_missing_required_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["synth", "-m", SPLIT_CYCLE])  # -q is required
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["check"])  # -m is required
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main([])  # a subcommand is required
    assert info.value.code == 2
    capsys.readouterr()


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
