"""The benchmark's tracer (``perfbench/layers.py``) rebinds program names and
reads result attributes, and its input generator and verifier
(``perfbench/workloads.py``, ``perfbench/verify.py``) import program names
and read parameter ranges; a rename or deletion on either side must fail
here."""

import json
from pathlib import Path

from pmcsynth import cli, eqsys
from pmcsynth.pmc import parse_model

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"
SPLIT_CYCLE = str(MODELS / "split_cycle.pmc")
LOOP_PAIR = str(MODELS / "loop_pair.pmc")


def test_tracer_counts_every_layer(capsys, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from layers import Tracer

    build_system = eqsys.build_system
    tracer = Tracer()
    restore = tracer.install()
    try:
        codes = [
            cli.main(argv)
            for argv in (
                ["check", "-m", SPLIT_CYCLE, "-e", "eps=1/8", "-f", "G F y"],
                ["classify", "-m", LOOP_PAIR, "-f", "G F x | G F w"],
                ["synth", "-m", SPLIT_CYCLE, "-q", "P >= 1 [ G F y ]", "-o", str(tmp_path / "q.smt2")],
                ["synth", "-m", SPLIT_CYCLE, "-q", "P >= 3/4 [ X y ]", "--solve", "grid:3"],
            )
        ]
    finally:
        restore()
    capsys.readouterr()
    assert codes == [0, 0, 0, 1]
    assert eqsys.build_system is build_system
    for counter in (
        "pmc.transitions",
        "ratfunc.make_calls",
        "ratfunc.evaluate_calls",
        "pmc.well_defined_calls",
        "product.sccs",
        "eqsys.solve_calls",
        "eqsys.max_block",
        "eqsys.grid_tried",
        "smtlib.bytes",
    ):
        assert tracer.counts[counter] > 0, counter


def test_workload_inputs_parse_and_verify(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import verify
    import workloads

    workloads.setup("synth-grid", 1, ROOT, tmp_path)
    models = sorted(p for p in tmp_path.iterdir() if p.suffix in (".pmc", ".imc"))
    assert models
    for path in models:
        parse_model(path.read_text())
    # a witness is checked against the parameter ranges the verifier reads
    monkeypatch.chdir(tmp_path)
    ops = json.loads((tmp_path / "ops.json").read_text())
    witnessed = [op for op in ops if not op["verify"]["unsat"]]
    assert witnessed
    for op in witnessed:
        code, stdout = verify.run_cli(op["argv"])
        assert verify.verify(op, {"stdout": stdout, "code": code, "error": None}, {}) is None


def test_each_command_analyzes_once(capsys, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from layers import Tracer

    out = str(tmp_path / "q.smt2")
    query = ["-m", SPLIT_CYCLE, "-q", "P >= 3/4 [ X y ]"]
    ops = [
        ["check", "-m", SPLIT_CYCLE, "-e", "eps=1/8", "-f", "G F y"],
        ["classify", "-m", SPLIT_CYCLE, "-f", "G F y"],
        ["synth", *query, "-o", out],
        ["synth", *query, "--solve", "grid:3"],
        ["synth", *query, "-o", out, "--solve", "grid:3"],
    ]
    tracer = Tracer()
    restore = tracer.install()
    try:
        codes = []
        for i, argv in enumerate(ops):
            tracer.begin_op(i)
            codes.append(cli.main(argv))
    finally:
        restore()
    capsys.readouterr()
    assert codes == [0, 0, 0, 1, 1]
    # one SCC decomposition per analysis, timed by the tracer's binding of
    # ``product.tarjan``, so ``sccs.tarjan_s`` cannot read 0
    analyses = [0] * len(ops)
    decompositions = [0] * len(ops)
    for name, *_, op in tracer.spans:
        if name == "eqsys.analyze":
            analyses[op] += 1
        elif name == "sccs.tarjan":
            decompositions[op] += 1
    assert analyses == decompositions == [1] * len(ops)
