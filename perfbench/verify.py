"""Check every answer a replay printed, outside the timed region.

``verify(op, output, cache)`` returns None for a correct answer and a
one-line reason otherwise; it runs in the directory that holds the
workload's files.  An answer is wrong if the operation
raised or returned an unexpected exit code, or if:

* check: the printed probability differs from ``oracle.prob_of_formula``
  (formulas in the oracle fragment) or breaks P(phi) + P(!phi) = 1 (other
  formulas), or the verdict and exit code disagree with the query;
* classify: the locally positive SCCs differ from those printed by the same
  command with ``--oracle`` (the survivor-set completeness decider);
* synth: a witness lies outside the parameter box, is not well-defined, or
  its re-solved value differs from the printed one or misses the query; "no
  witness" is accepted only where the query is unsatisfiable by
  construction;
* emit: ``smtlib.check_wellformed`` rejects the emitted file.
"""

from __future__ import annotations

import contextlib
import io
import re
from fractions import Fraction
from pathlib import Path

from pmcsynth import cli, oracle, smtlib
from pmcsynth.eqsys import analyze, parse_pltl, solve_concrete
from pmcsynth.ltl import Not, parse_formula
from pmcsynth.pmc import Imc, Pmc, imc_to_pmc, parse_model, well_defined


def _lines(text: str, prefix: str) -> list[str]:
    return [line for line in text.splitlines() if line.startswith(prefix)]


def _value_after(text: str, prefix: str) -> str | None:
    lines = _lines(text, prefix)
    return lines[0][len(prefix):].strip() if len(lines) == 1 else None


def load_model(path: str, cache: dict) -> Pmc:
    if path not in cache:
        model = parse_model(Path(path).read_text())
        cache[path] = imc_to_pmc(model) if isinstance(model, Imc) else model
    return cache[path]


def solve(M: Pmc, formula, evaluation: dict[str, Fraction]) -> Fraction:
    return solve_concrete(analyze(M, formula).system, evaluation).target


def verify_check(op: dict, output: dict, cache: dict) -> str | None:
    spec = op["verify"]
    printed = _value_after(output["stdout"], "probability = ")
    if printed is None:
        return "no probability printed"
    value = Fraction(printed)
    query = parse_pltl(op["argv"][op["argv"].index("-q") + 1])
    expected_code = 0 if query.admits(value) else 1
    if output["code"] != expected_code:
        return f"exit code {output['code']} for probability {value} and {query.interval_str()}"
    verdict = "yes" if expected_code == 0 else "no"
    if not output["stdout"].rstrip().endswith(f": {verdict}"):
        return f"verdict line does not say {verdict!r}"
    M = load_model(op["argv"][op["argv"].index("-m") + 1], cache)
    evaluation = {k: Fraction(v) for k, v in spec["evaluation"].items()}
    formula = parse_formula(spec["formula"])
    if spec["oracle"]:
        ref = oracle.prob_of_formula(oracle.ConcreteMc.from_pmc(M, evaluation), formula)
        if ref is None:
            return f"{spec['formula']!r} is outside the oracle fragment"
        if ref != value:
            return f"probability {value}, oracle says {ref}"
        return None
    complement = solve(M, Not(formula), evaluation)
    if value + complement != 1:
        return f"P(phi) = {value} and P(!phi) = {complement} do not add up to 1"
    return None


_POSITIVE = re.compile(r"^scc (\d+): size=(\d+) proj=\{([^}]*)\}.* locally_positive=yes$")


def positive_sccs(stdout: str) -> set[tuple[str, ...]]:
    return {m.groups() for line in stdout.splitlines() if (m := _POSITIVE.match(line))}


def run_cli(argv: list[str]) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, stdout.getvalue()


def verify_classify(op: dict, output: dict, cache: dict) -> str | None:
    if output["code"] != 0:
        return f"exit code {output['code']}"
    code, reference = run_cli(op["argv"] + ["--oracle"])
    if code != 0:
        return f"the --oracle run exited with {code}"
    got, want = positive_sccs(output["stdout"]), positive_sccs(reference)
    if got != want:
        return f"locally positive SCCs {sorted(got)} differ from --oracle's {sorted(want)}"
    return None


def verify_synth(op: dict, output: dict, cache: dict) -> str | None:
    spec = op["verify"]
    witness = _value_after(output["stdout"], "witness: ")
    if witness is None:
        if not spec["unsat"]:
            return "no witness for a query that has one by construction"
        if output["code"] != 1 or not _lines(output["stdout"], "no witness on the grid"):
            return f"exit code {output['code']} without a witness"
        return None
    if output["code"] != 0:
        return f"exit code {output['code']} with a witness"
    M = load_model(op["argv"][op["argv"].index("-m") + 1], cache)
    assignment = {}
    for item in witness.split(", "):
        name, _, value = item.partition("=")
        assignment[name] = Fraction(value)
    if set(assignment) != set(M.params):
        return f"witness assigns {sorted(assignment)}, the model has {sorted(M.params)}"
    for name, value in assignment.items():
        if not M.params[name].admits(value):
            return f"witness {name}={value} is outside {M.params[name].bounds_str()}"
    if not well_defined(M, assignment).ok:
        return "witness is not well-defined"
    query = parse_pltl(spec["query"])
    value = solve(M, query.formula, assignment)
    if _value_after(output["stdout"], "probability = ") != str(value):
        return f"printed probability differs from the re-solved {value}"
    if not query.admits(value):
        return f"re-solved value {value} misses {query.interval_str()}"
    return None


def verify_emit(op: dict, output: dict, cache: dict) -> str | None:
    if output["code"] != 0:
        return f"exit code {output['code']}"
    path = Path(op["verify"]["out"])
    if not path.exists():
        return f"{path.name} was not written"
    try:
        smtlib.check_wellformed(path.read_text())
    except smtlib.SmtlibError as exc:
        return f"{path.name} is malformed: {exc}"
    return None


VERIFIERS = {
    "check": verify_check,
    "classify": verify_classify,
    "synth": verify_synth,
    "emit": verify_emit,
}


def verify(op: dict, output: dict, cache: dict) -> str | None:
    """None if the operation's answer is correct, else why it is not."""
    if output["error"] is not None:
        return f"raised {output['error']}"
    return VERIFIERS[op["verify"]["kind"]](op, output, cache)


def count_failures(ops: list[dict], result: dict) -> tuple[int, list[str]]:
    """Failed operations over all runs of a replay result, and why.

    Only each operation's first answer is kept: a wrong one fails every run
    of the operation, and a later run that printed anything else counts as
    one more failure.
    """
    failed = 0
    reasons: list[str] = []
    cache: dict = {}
    for i, (op, output) in enumerate(zip(ops, result["outputs"])):
        try:
            reason = verify(op, output, cache)
        except Exception as exc:  # an answer the verifier cannot read is a wrong one
            reason = f"unreadable answer ({type(exc).__name__}: {exc})"
        if reason is not None:
            failed += result["runs"][i]
            reasons.append(f"op {i} ({' '.join(op['argv'])}): {reason}")
        elif result["mismatches"][i]:
            failed += result["mismatches"][i]
            reasons.append(f"op {i}: output changed between runs")
    return failed, reasons
