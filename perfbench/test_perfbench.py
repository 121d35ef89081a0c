"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import contextlib
import json
import random
import shutil
from pathlib import Path

import pytest

import hostspeed
import layers
import replay
import run
import verify
import workloads
from pmcsynth.modelgen import crowds_like, random_mc
from pmcsynth.pmc import parse_model

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"


def replayed(tmp_path: Path, ops: list[dict], models: tuple[str, ...]) -> dict:
    """Replay ``ops`` once on bundled models; returns a replay result."""
    for name in models:
        shutil.copy(MODELS / name, tmp_path / name)
    with contextlib.chdir(tmp_path):
        _, latencies, outputs = replay.run_pass(ops, None)
    return {
        "samples": [[latency] for latency in latencies],
        "runs": [1] * len(ops),
        "outputs": outputs,
        "mismatches": [0] * len(ops),
    }


def failures(tmp_path: Path, ops: list[dict], result: dict) -> int:
    with contextlib.chdir(tmp_path):
        return verify.count_failures(ops, result)[0]


CHECK_ORACLE = {
    "argv": ["check", "-m", "branch13.pmc", "-q", "P >= 1/4 [ F success ]"],
    "verify": {"kind": "check", "formula": "F success", "evaluation": {}, "oracle": True},
}
CHECK_COMPLEMENT = {
    "argv": ["check", "-m", "loop_pair.pmc", "-q", "P > 1/2 [ X (x U z) ]"],
    "verify": {"kind": "check", "formula": "X (x U z)", "evaluation": {}, "oracle": False},
}
CLASSIFY = {
    "argv": ["classify", "-m", "loop_pair.pmc", "-f", "G F x | G F w"],
    "verify": {"kind": "classify"},
}
EMIT = {
    "argv": ["synth", "-m", "split_cycle.pmc", "-q", "P >= 1/2 [ G F y ]", "-o", "out.smt2"],
    "verify": {"kind": "emit", "out": "out.smt2"},
}
SYNTH = {
    "argv": ["synth", "-m", "interval_row.imc", "-q", "P >= 1/2 [ F goal ]", "--solve", "grid:11"],
    "verify": {"kind": "synth", "query": "P >= 1/2 [ F goal ]", "unsat": False},
}
SYNTH_UNSAT = {
    "argv": ["synth", "-m", "interval_row.imc", "-q", "P > 7/10 [ F goal ]", "--solve", "grid:11"],
    "verify": {"kind": "synth", "query": "P > 7/10 [ F goal ]", "unsat": True},
}
OPS = [CHECK_ORACLE, CHECK_COMPLEMENT, CLASSIFY, EMIT, SYNTH, SYNTH_UNSAT]
BUNDLED = ("branch13.pmc", "loop_pair.pmc", "split_cycle.pmc", "interval_row.imc")


def test_correct_answers_pass(tmp_path):
    result = replayed(tmp_path, OPS, BUNDLED)
    assert failures(tmp_path, OPS, result) == 0


def plant(result: dict, op: int, old: str, new: str) -> None:
    stdout = result["outputs"][op]["stdout"]
    assert old in stdout
    result["outputs"][op]["stdout"] = stdout.replace(old, new)


def test_wrong_probability_fails(tmp_path):
    result = replayed(tmp_path, [CHECK_ORACLE, CHECK_COMPLEMENT], BUNDLED)
    plant(result, 0, "probability = 1/3", "probability = 1/2")
    assert failures(tmp_path, [CHECK_ORACLE, CHECK_COMPLEMENT], result) == 1
    value = verify._value_after(result["outputs"][1]["stdout"], "probability = ")
    plant(result, 1, f"probability = {value}", "probability = 1/7")
    assert failures(tmp_path, [CHECK_ORACLE, CHECK_COMPLEMENT], result) == 2


def test_wrong_exit_code_fails(tmp_path):
    result = replayed(tmp_path, [CHECK_ORACLE], BUNDLED)
    result["outputs"][0]["code"] = 1
    assert failures(tmp_path, [CHECK_ORACLE], result) == 1


def test_wrong_scc_set_fails(tmp_path):
    result = replayed(tmp_path, [CLASSIFY], BUNDLED)
    plant(result, 0, "locally_positive=yes", "locally_positive=no")
    assert failures(tmp_path, [CLASSIFY], result) == 1


def test_malformed_smt_fails(tmp_path):
    result = replayed(tmp_path, [EMIT], BUNDLED)
    (tmp_path / "out.smt2").write_text("(set-logic QF_NRA)\n(assert (> p 0)\n")
    assert failures(tmp_path, [EMIT], result) == 1


def test_bad_witness_fails(tmp_path):
    result = replayed(tmp_path, [SYNTH, SYNTH_UNSAT], BUNDLED)
    plant(result, 0, "p_s_t=1/2, p_s_w=1/2", "p_s_t=1/2, p_s_w=9/10")
    assert failures(tmp_path, [SYNTH, SYNTH_UNSAT], result) == 1
    missing = dict(SYNTH_UNSAT, verify=dict(SYNTH_UNSAT["verify"], unsat=False))
    assert failures(tmp_path, [SYNTH, missing], result) == 2


def test_raised_and_changed_outputs_fail(tmp_path):
    result = replayed(tmp_path, [CHECK_ORACLE, CLASSIFY], BUNDLED)
    result["outputs"][0]["error"] = "ValueError: planted"
    result["runs"] = [3, 3]
    result["mismatches"] = [0, 2]
    # a wrong answer fails in every run; a changed one in each run that changed
    assert failures(tmp_path, [CHECK_ORACLE, CLASSIFY], result) == 3 + 2


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_setup_is_deterministic(tmp_path, workload):
    workloads.setup(workload, 7, ROOT, tmp_path / "a")
    workloads.setup(workload, 7, ROOT, tmp_path / "b")
    assert run.digest(tmp_path / "a") == run.digest(tmp_path / "b")
    workloads.setup(workload, 8, ROOT, tmp_path / "c")
    assert run.digest(tmp_path / "a") != run.digest(tmp_path / "c")


def test_traced_counts_repeat(tmp_path):
    """Two traced replays of the same operations count the same work."""
    ops = []
    for workload, n_ops in (("check-mix", 8), ("synth-grid", 3)):
        workloads.setup(workload, 7, ROOT, tmp_path)
        listed = json.loads((tmp_path / "ops.json").read_text())
        ops += [op for op in listed if not op["argv"][2].startswith("crowds")][:n_ops]
    counts = []
    for _ in range(2):
        tracer = layers.Tracer()
        restore = tracer.install()
        try:
            with contextlib.chdir(tmp_path):
                replay.run_pass(ops, tracer)
        finally:
            restore()
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1]
    for name in ("product.nodes", "product.sccs", "product.completeness_checks",
                 "ratfunc.make_calls", "eqsys.grid_tried"):
        assert counts[0][name] > 0


def test_gauge_keeps_its_share_and_scales_to_nominal(monkeypatch):
    monkeypatch.setattr(hostspeed, "measure", lambda: 0.1)
    gauge = hostspeed.Gauge()
    for seconds in (0.5, 0.05, 2.0):
        gauge.after(seconds)
    assert sum(gauge.times) >= hostspeed.SHARE * 2.55 > sum(gauge.times[:-1])
    assert hostspeed.scale([hostspeed.NOMINAL_S, 3 * hostspeed.NOMINAL_S]) == pytest.approx(0.5)


def test_pmc_text_round_trips():
    for M in (random_mc(random.Random(3), 30), crowds_like(3, 4, 1)):
        parsed = parse_model(workloads.pmc_text(M))
        assert parsed.states == M.states and parsed.labels == M.labels
        assert parsed.params == M.params and parsed.trans.keys() == M.trans.keys()
        assert all(parsed.trans[k] == f for k, f in M.trans.items())


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    reported = layers.layer_metrics([], {}, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: layers.unit(name) for name in reported
    }
