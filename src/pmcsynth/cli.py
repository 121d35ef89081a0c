"""Command-line front end.

    pmc-synth translate -f FORMULA [-o FILE]
    pmc-synth check    -m MODEL (-q QUERY | -f FORMULA) [-e EVALS] [--oracle]
    pmc-synth classify -m MODEL (-q QUERY | -f FORMULA) [--oracle]
    pmc-synth synth    -m MODEL -q QUERY [--solve grid:N] [-o FILE] [--solver PATH]

Exit codes: 0 success (and positive verdict where applicable); 1 completed
with a negative answer (verdict false, no witness, solver unsat); 2 usage;
3 malformed or unreadable input; 4 a size cap, search budget or nesting depth
was exceeded; 5 numeric or semantic failure (ill-defined evaluation,
singular system, oracle mismatch).
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

from . import eqsys, oracle, smtlib
from .eqsys import (
    Analysis,
    GridError,
    PltlQuery,
    QuerySyntaxError,
    SolveError,
    parse_pltl,
)
from .gba import CapacityError, GbaError, dump, translate
from .ltl import LtlError, LtlFormula, parse_formula
from .pmc import (
    Imc,
    ModelError,
    Pmc,
    imc_to_pmc,
    parse_evaluation,
    parse_model,
)
from .product import ProductError
from .ratfunc import RatFuncError

_INPUT_ERRORS = (
    LtlError,
    ModelError,
    GbaError,
    QuerySyntaxError,
    GridError,
    ProductError,
    smtlib.SmtlibError,
    oracle.OracleError,
    OSError,
    UnicodeDecodeError,
)
_NUMERIC_ERRORS = (SolveError, RatFuncError)


def _load_model(path: str) -> Pmc:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ModelError(f"{path}: {exc}") from None
    model = parse_model(text)
    return imc_to_pmc(model) if isinstance(model, Imc) else model


def _query_from_args(args: argparse.Namespace) -> PltlQuery | None:
    return parse_pltl(args.pltl) if args.pltl else None


def _query_and_formula(
    args: argparse.Namespace,
) -> tuple[PltlQuery | None, LtlFormula | None]:
    """The -q query and its formula, else no query and the -f formula; with
    neither, prints the usage message and returns no formula (exit 2)."""
    query = _query_from_args(args)
    if query is not None:
        return query, query.formula
    if args.formula:
        return None, parse_formula(args.formula)
    print(f"{args.command} needs -q or -f", file=sys.stderr)
    return None, None


def _stats_row(M: Pmc, analysis: Analysis, t_mc: float) -> dict[str, str]:
    t_g = sum(
        analysis.times.get(k, 0.0) for k in ("translate", "product", "scc", "classify")
    )
    system = analysis.system
    return {
        "|S_M|": str(M.n_states()),
        "|V_G|": str(system.n_nodes()),
        "SCC_G": str(len(system.partition.sccs)),
        "SCC_pos": str(len(system.positives)),
        "T_G": f"{t_g:.4f}",
        "T_mc": f"{t_mc:.4f}",
    }


def _print_stats(row: dict[str, str], report: str) -> None:
    if report == "tsv":
        print("\t".join(row))
        print("\t".join(row.values()))
    else:
        print("  ".join(f"{k}={v}" for k, v in row.items()))


def _flag(value: bool | None) -> str:
    return "-" if value is None else ("yes" if value else "no")


def cmd_translate(args: argparse.Namespace) -> int:
    formula = parse_formula(args.formula)
    A = translate(formula, el_cap=args.el_cap)
    text = dump(A)
    if args.out:
        Path(args.out).write_text(text)
        print(
            f"automaton: {len(A.states)} states, {len(A.edges())} edges, "
            f"{len(A.acceptance)} acceptance sets -> {args.out}"
        )
    else:
        sys.stdout.write(text)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    M = _load_model(args.model)
    query, formula = _query_and_formula(args)
    if formula is None:
        return 2
    evaluation = parse_evaluation(args.evaluation) if args.evaluation else {}
    analysis = eqsys.analyze(M, formula, max_nodes=args.max_product_nodes)
    t0 = time.perf_counter()
    result = eqsys.solve_concrete(analysis.system, evaluation)
    t_mc = time.perf_counter() - t0
    _print_stats(_stats_row(M, analysis, t_mc), args.report)
    print(f"probability = {result.target}")

    code = 0
    if query is not None:
        verdict = query.admits(result.target)
        print(f"verdict: probability in {query.interval_str()}: {'yes' if verdict else 'no'}")
        code = 0 if verdict else 1

    if args.oracle:
        mc = oracle.ConcreteMc.from_pmc(M, evaluation)
        ref = oracle.prob_of_formula(mc, formula)
        if ref is None:
            print("oracle: formula outside the closed-form fragment; skipped")
        elif ref == result.target:
            print(f"oracle probability = {ref} (agrees)")
        else:
            print(
                f"oracle probability = {ref} DISAGREES with {result.target}",
                file=sys.stderr,
            )
            return 5
    return code


def cmd_classify(args: argparse.Namespace) -> int:
    M = _load_model(args.model)
    _, formula = _query_and_formula(args)
    if formula is None:
        return 2
    analysis = eqsys.analyze(
        M,
        formula,
        max_nodes=args.max_product_nodes,
        use_oracle=args.oracle,
    )
    _print_stats(_stats_row(M, analysis, 0.0), args.report)
    if args.report == "text":
        for r in analysis.system.partition.sccs:
            if r.trivial or not r.reachable:
                continue
            proj = ",".join(M.states[s] for s in sorted(r.projection))
            print(
                f"scc {r.index}: size={len(r.members)} proj={{{proj}}} "
                f"accepting={_flag(r.accepting)} complete={_flag(r.complete)} "
                f"bottom_projection={_flag(r.projection_is_bottom)} "
                f"locally_positive={_flag(r.locally_positive)}"
            )
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    M = _load_model(args.model)
    query = _query_from_args(args)
    if query is None:
        print("synth needs -q", file=sys.stderr)
        return 2

    if args.out or args.solver:
        analysis = eqsys.analyze(M, query.formula, max_nodes=args.max_product_nodes)
        script = smtlib.emit_smtlib(analysis.system, query)
        out_path = args.out or "query.smt2"
        Path(out_path).write_text(script)
        print(f"smt: wrote {out_path}")
        if args.solver:
            proc = subprocess.run(
                [args.solver, out_path], capture_output=True, text=True, timeout=600
            )
            answer = (proc.stdout.strip().splitlines() or ["(no output)"])[0]
            print(f"solver: {answer}")
            if answer == "sat":
                sys.stdout.write(proc.stdout[proc.stdout.find("\n") + 1 :])
                return 0
            if answer == "unsat":
                return 1
            print(proc.stderr, file=sys.stderr)
            return 5
        if not args.solve:
            return 0

    spec = args.solve or "grid:11"
    if not spec.startswith("grid:"):
        print(f"unknown --solve method {spec!r} (expected grid:<n>)", file=sys.stderr)
        return 2
    try:
        resolution = int(spec.split(":", 1)[1])
    except ValueError:
        print(f"bad grid resolution in {spec!r}", file=sys.stderr)
        return 2
    result = eqsys.synth_grid(
        M, query, resolution=resolution, max_nodes=args.max_product_nodes
    )
    if result.witness is None:
        print(
            f"no witness on the grid (tried {result.tried} points, "
            f"{result.admitted} admitted)"
        )
        return 1
    assignment = ", ".join(f"{k}={v}" for k, v in result.witness.items())
    print(f"witness: {assignment}")
    print(f"probability = {result.value}")
    print(f"grid: tried {result.tried} points, {result.admitted} admitted")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmc-synth",
        description="Parameter synthesis for parametric/interval Markov chains against LTL",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("-m", "--model", required=True, help="model file (.pmc or .imc)")
        p.add_argument(
            "--max-product-nodes",
            type=int,
            default=5_000_000,
            help="refuse to build products larger than this (default 5000000)",
        )
        p.add_argument(
            "--report",
            choices=("text", "tsv"),
            default="text",
            help="statistics format",
        )

    p = sub.add_parser("translate", help="LTL -> generalized Buchi automaton")
    p.add_argument("-f", "--formula", required=True)
    p.add_argument("-o", "--out", help="write the automaton dump here")
    p.add_argument("--el-cap", type=int, default=20, help="max elementary subformulas")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("check", help="probability of a formula under an evaluation")
    common(p)
    p.add_argument("-q", "--pltl", help="query like 'P >= 1/2 [ G F a ]'")
    p.add_argument("-f", "--formula", help="bare LTL formula (no probability bound)")
    p.add_argument("-e", "--eval", dest="evaluation", help="evaluation like 'eps=1/10,p=0.3'")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against the closed-form reference (X/F/G/GF/FG/U on atoms)",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify", help="SCC classification of the product")
    common(p)
    p.add_argument("-q", "--pltl")
    p.add_argument("-f", "--formula")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="force the survivor-set completeness decider",
    )
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("synth", help="find parameter values meeting a query")
    common(p)
    p.add_argument("-q", "--pltl", required=True)
    p.add_argument("--solve", help="search method, grid:<resolution> (default grid:11)")
    p.add_argument("-o", "--out", help="emit the SMT-LIB system here")
    p.add_argument("--solver", help="SMT-LIB2 solver binary to run on the emission")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except RecursionError:
        print("error: input is nested too deeply", file=sys.stderr)
        return 4
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except subprocess.TimeoutExpired as exc:
        print(f"error: solver timed out: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
