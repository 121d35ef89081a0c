"""Command-line front end.

    pmc-synth translate -f FORMULA [-o FILE]
    pmc-synth check    -m MODEL (-q QUERY | -f FORMULA) [-e EVALS] [--oracle]
    pmc-synth classify -m MODEL (-q QUERY | -f FORMULA) [--oracle]
    pmc-synth synth    -m MODEL -q QUERY [-o FILE] [--solve grid:N | --solver PATH]

``check`` and ``synth`` run on the chain lumped for the formula's atomic
propositions (``pmc.lump``); the quotient knows the chain it was lumped
from, and evaluations are checked on that chain.  ``classify`` runs on the
given chain.

Exit codes: 0 success (and positive verdict where applicable); 1 completed
with a negative answer (verdict false, no witness, solver unsat); 2 usage;
3 malformed or unreadable input; 4 a size cap, search budget or nesting depth
was exceeded, or an exact result is too long to print; 5 numeric or semantic
failure (ill-defined evaluation, singular system, oracle mismatch).  The
caps are module constants, not options: ``gba.EL_BUDGET``,
``product.NODE_BUDGET``, ``product.SURVIVOR_BUDGET``, ``eqsys.FILL_BUDGET``,
``eqsys.GRID_BUDGET`` and ``ratfunc.TERM_BUDGET``.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import subprocess
import sys
import time
from fractions import Fraction
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
from .ltl import LtlError, LtlFormula, atomic_props, parse_formula
from .pmc import (
    Imc,
    ModelError,
    Pmc,
    check_evaluation_names,
    imc_to_pmc,
    lump,
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


def _query_and_formula(
    args: argparse.Namespace,
) -> tuple[PltlQuery | None, LtlFormula | None]:
    """The -q query and its formula, else no query and the -f formula; given
    both or neither, prints the usage rule and returns no formula (exit 2)."""
    query = parse_pltl(args.pltl) if args.pltl else None
    if query is not None and not args.formula:
        return query, query.formula
    if query is None and args.formula:
        return None, parse_formula(args.formula)
    rule = "takes -q or -f, not both" if query is not None else "needs -q or -f"
    print(f"{args.command} {rule}", file=sys.stderr)
    return None, None


def _stats_row(M: Pmc, analysis: Analysis, t_mc: float) -> dict[str, str]:
    t_g = sum(
        analysis.times.get(k, 0.0) for k in ("translate", "product", "scc", "classify")
    )
    system = analysis.system
    return {
        "|S_M|": str(M.n_states()),
        "|V_G|": str(system.graph.n_nodes()),
        "SCC_G": str(len(system.partition)),
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


def _exact(value: Fraction) -> str:
    """``str(value)``; a numerator or denominator past Python's limit on the
    digits of a printed int is a CapacityError (exit 4) that names its
    digit count."""
    try:
        return str(value)
    except ValueError:
        n = max(abs(value.numerator), value.denominator)
        # counted up from a lower bound that the bit length gives
        digits = max(int(n.bit_length() * math.log10(2)) - 1, 0)
        while 10**digits <= n:
            digits += 1
        raise CapacityError(f"exact result of {digits} digits is too long to print") from None


def _flag(value: bool | None) -> str:
    return "-" if value is None else ("yes" if value else "no")


def cmd_translate(args: argparse.Namespace) -> int:
    formula = parse_formula(args.formula)
    A = translate(formula)
    text = dump(A)
    if args.out:
        Path(args.out).write_text(text)
        print(
            f"automaton: {len(A.states)} states, "
            f"{sum(map(len, A.transitions.values()))} edges, "
            f"{A.n_sets} acceptance sets -> {args.out}"
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
    check_evaluation_names(M, evaluation)
    analysis = eqsys.analyze(lump(M, atomic_props(formula)), formula)
    t0 = time.perf_counter()
    result = eqsys.solve_concrete(analysis.system, evaluation)
    t_mc = time.perf_counter() - t0
    probability = _exact(result.target)
    _print_stats(_stats_row(M, analysis, t_mc), args.report)
    print(f"probability = {probability}")

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
            print(f"oracle probability = {probability} (agrees)")
        else:
            print(
                f"oracle probability = {_exact(ref)} DISAGREES with {probability}",
                file=sys.stderr,
            )
            return 5
    return code


def cmd_classify(args: argparse.Namespace) -> int:
    M = _load_model(args.model)
    _, formula = _query_and_formula(args)
    if formula is None:
        return 2
    analysis = eqsys.analyze(M, formula, use_oracle=args.oracle)
    _print_stats(_stats_row(M, analysis, 0.0), args.report)
    if args.report == "text":
        for r in analysis.system.partition.blocks.values():
            if not r.reachable:
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
    if not args.pltl:
        print("synth needs -q", file=sys.stderr)
        return 2
    query = parse_pltl(args.pltl)
    # every argument is checked and the grid sized before the product is built
    if args.solver and (args.solve or not args.out):
        print("synth: --solver needs -o FILE and excludes --solve", file=sys.stderr)
        return 2
    axes = None
    if args.solve or not args.out:
        spec = args.solve or "grid:11"
        if not spec.startswith("grid:"):
            print(f"unknown --solve method {spec!r} (expected grid:<n>)", file=sys.stderr)
            return 2
        # int() would also read '1_1', non-ASCII digits and spaces
        n = spec.split(":", 1)[1]
        if not re.fullmatch(r"[+-]?[0-9]+", n):
            print(f"bad grid resolution in {spec!r}", file=sys.stderr)
            return 2
        try:
            resolution = int(n)
        except ValueError:  # past Python's limit on digits in an int
            digits = len(n.lstrip("+-"))
            raise CapacityError(f"grid resolution of {digits} digits is too long") from None
        axes = eqsys.grid_axes(M, resolution)

    system = eqsys.analyze(lump(M, atomic_props(query.formula)), query.formula).system
    if args.out:
        Path(args.out).write_text(smtlib.emit_smtlib(system, query))
        print(f"smt: wrote {args.out}")
        if args.solver:
            proc = subprocess.run(
                [args.solver, args.out], capture_output=True, text=True, timeout=600
            )
            answer, _, model = proc.stdout.lstrip().partition("\n")
            answer = answer.strip() or "(no output)"
            print(f"solver: {answer}")
            if answer == "sat":
                sys.stdout.write(model)
                return 0
            if answer == "unsat":
                return 1
            print(proc.stderr, file=sys.stderr)
            return 5
    if axes is None:
        return 0

    result = eqsys.synth_grid(system, query, axes)
    if result.witness is None:
        print(
            f"no witness on the grid (tried {result.tried} points, "
            f"{result.admitted} admitted)"
        )
        return 1
    assignment = ", ".join(f"{k}={_exact(v)}" for k, v in result.witness.items())
    probability = _exact(result.value)
    print(f"witness: {assignment}")
    print(f"probability = {probability}")
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
            "--report",
            choices=("text", "tsv"),
            default="text",
            help="statistics format",
        )

    p = sub.add_parser("translate", help="LTL -> generalized Buchi automaton")
    p.add_argument("-f", "--formula", required=True)
    p.add_argument("-o", "--out", help="write the automaton dump here")
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
    p.add_argument("-m", "--model", required=True, help="model file (.pmc or .imc)")
    p.add_argument("-q", "--pltl", required=True)
    p.add_argument("--solve", help="search method, grid:<resolution> (default grid:11 without -o)")
    p.add_argument("-o", "--out", help="emit the SMT-LIB system here")
    p.add_argument("--solver", help="SMT-LIB2 solver binary to run on the -o file")
    p.set_defaults(func=cmd_synth)
    return parser


_parser = functools.cache(build_parser)  # main's, built once per process


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
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
