"""SMT-LIB 2 (QF_NRA) emission of the equation system, plus a structural
checker and a ground evaluator for the emitted scripts.

The emission is self-contained text: parameter declarations and range
assertions, and the equation system of ``eqsys`` — one mu variable and flow
equation per product node reachable from an initial node, normalization
rows, zeros and mu range bounds — so ``solve_concrete``'s ``mu`` is a full
model of the mu variables; when a query is given, the membership of the
target sum in the probability interval.

``check_wellformed`` parses the script back (balanced s-expressions, known
commands, every declared name a simple symbol and no reserved word, every
symbol declared before use, ASCII numerals, sane operator arities).
Emission fails with SmtlibError on a parameter or state name that is not a
simple symbol, so an emitted script always passes that check.
``evaluate_assertions`` substitutes a full rational assignment and decides
every assertion exactly — enough to validate a model without a solver.
"""

from __future__ import annotations

import itertools
import operator
import re
from fractions import Fraction
from typing import Iterator, Mapping

from .eqsys import EquationSystem, PltlQuery
from .ratfunc import Polynomial, RationalFunction


class SmtlibError(Exception):
    pass


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def _frac(x: Fraction) -> str:
    if x < 0:
        return f"(- {_frac(-x)})"
    if x.denominator == 1:
        return str(x.numerator)
    return f"(/ {x.numerator} {x.denominator})"


def _monomial(m: tuple[tuple[str, int], ...], c: Fraction) -> str:
    factors = []
    if c != 1 or not m:
        factors.append(_frac(c))
    for name, e in m:
        factors.extend([name] * e)
    if len(factors) == 1:
        return factors[0]
    return "(* " + " ".join(factors) + ")"


def _poly(p: Polynomial) -> str:
    if p.is_zero:
        return "0"
    parts = [_monomial(m, c) for m, c in p.terms]
    return parts[0] if len(parts) == 1 else "(+ " + " ".join(parts) + ")"


def _rf(f: RationalFunction) -> str:
    if f.den.is_const and f.den.const_value() == 1:
        return _poly(f.num)
    return f"(/ {_poly(f.num)} {_poly(f.den)})"


def _sum(terms: list[str]) -> str:
    if not terms:
        return "0"
    if len(terms) == 1:
        return terms[0]
    return "(+ " + " ".join(terms) + ")"


def mu_name(system: EquationSystem, node: int) -> str:
    """``mu_<q>.<state>``: no model identifier contains '.', so a mu symbol
    never collides with a parameter name."""
    q, s = system.graph.pair(node)
    return f"mu_{q}.{system.graph.pmc.states[s]}"


def emit_smtlib(system: EquationSystem, query: PltlQuery | None = None) -> str:
    G = system.graph
    M = G.pmc
    lines: list[str] = []
    out = lines.append
    out("(set-logic QF_NRA)")
    out(f"; product of {len(G.gba.states)} automaton states x {M.n_states()} chain states")

    for name in sorted(M.params):
        if name in _RESERVED:
            raise SmtlibError(f"parameter {name!r} is a reserved word of SMT-LIB")
        if not _SIMPLE_SYMBOL.fullmatch(name):
            raise SmtlibError(f"parameter {name!r} is not an SMT-LIB simple symbol")
        out(f"(declare-const {name} Real)")
    for name in M.states:
        if not _SIMPLE_SYMBOL.fullmatch(name):
            raise SmtlibError(f"state {name!r} is not an SMT-LIB simple symbol")
    reachable, comp_of = system.partition.reachable, system.partition.comp_of
    nodes = [u for u in range(G.n_nodes()) if reachable[comp_of[u]]]
    names = {u: mu_name(system, u) for u in nodes}
    for n in names.values():
        out(f"(declare-const {n} Real)")

    out("; parameter ranges")
    for name in sorted(M.params):
        p = M.params[name]
        op = "<" if p.lower_strict else "<="
        out(f"(assert ({op} {_frac(p.lower)} {name}))")
        op = "<" if p.upper_strict else "<="
        out(f"(assert ({op} {name} {_frac(p.upper)}))")

    # generated models share a few function objects among thousands of entries
    text_of = {i: _rf(f) for i, f in {id(f): f for f in M.trans.values()}.items()}
    out("; support positivity and row sums")
    for s in range(M.n_states()):
        row = M.succ(s)
        if all(f.is_const for _, f in row):
            continue
        for _, f in row:
            if not f.is_const:
                out(f"(assert (> {text_of[id(f)]} 0))")
        out(f"(assert (= {_sum([text_of[id(f)] for _, f in row])} 1))")

    out("; flow equations")
    ns = M.n_states()
    for u in names:
        s = u % ns
        # build_product lays out a node's arcs grouped by chain successor
        terms = [
            f"(* {text_of[id(M.trans[s, t])]} {_sum([names[v] for v in group])})"
            for t, group in itertools.groupby(G.succ(u), key=lambda v: v % ns)
        ]
        out(f"(assert (= {names[u]} {_sum(terms)}))")

    out("; normalization on locally positive SCCs")
    if not system.positives:
        out("; target provably 0: no locally positive SCC")
    for groups in system.positives.values():
        for nodes in groups:
            out(f"(assert (= {_sum([names[u] for u in nodes])} 1))")

    out("; zeros on nodes that cannot reach a locally positive SCC")
    for u in system.zeros:
        out(f"(assert (= {names[u]} 0))")

    out("; probabilities lie in [0,1]")
    for n in names.values():
        out(f"(assert (and (<= 0 {n}) (<= {n} 1)))")

    target = _sum([names[u] for u in G.initial])
    if query is not None:
        lo_op = "<" if query.lo_strict else "<="
        hi_op = "<" if query.hi_strict else "<="
        out(f"; target in {query.interval_str()}")
        out(f"(assert ({lo_op} {_frac(query.lo)} {target}))")
        out(f"(assert ({hi_op} {target} {_frac(query.hi)}))")
    else:
        out(f"; target value: {target}")
    out("(check-sat)")
    out("(get-model)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Parsing / checking
# ---------------------------------------------------------------------------

Sexpr = str | list  # atoms are strings


def _tokens(text: str) -> Iterator[str]:
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c.isspace():
            i += 1
        elif c in "()":
            yield c
            i += 1
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 1
            if j >= n:
                raise SmtlibError("unterminated string literal")
            yield text[i : j + 1]
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in '();"':
                j += 1
            yield text[i:j]
            i = j


def parse_script(text: str) -> list[Sexpr]:
    """All top-level s-expressions; raises on imbalance."""
    stack: list[list] = [[]]
    for tok in _tokens(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise SmtlibError("unbalanced ')'")
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise SmtlibError("unbalanced '('")
    return stack[0]


_OPERATORS = {"+", "-", "*", "/", "=", "<", "<=", ">", ">=", "and", "or", "not", "ite"}
# symbols a script may not declare: the operators, SMT-LIB's reserved words
# and the other predefined symbols of its core theory
_RESERVED = _OPERATORS | {
    "true", "false", "let", "forall", "exists", "match", "par", "as", "_", "!", "xor", "=>",
    "distinct",
}
_COMMANDS = {
    "set-logic",
    "set-info",
    "set-option",
    "declare-const",
    "declare-fun",
    "assert",
    "check-sat",
    "get-model",
    "get-value",
    "echo",
    "exit",
}


# SMT-LIB's numerals and decimals, in ASCII digits with no leading 0
_NUMERAL = re.compile(r"(?:0|[1-9][0-9]*)(?:\.[0-9]+)?")
# a simple symbol: ASCII letters, digits and ~!@$%^&*_-+=<>.?/, not starting
# with a digit
_SIMPLE_SYMBOL = re.compile(r"[A-Za-z~!@$%^&*_\-+=<>.?/][0-9A-Za-z~!@$%^&*_\-+=<>.?/]*")


def _is_numeral(tok: str) -> bool:
    return _NUMERAL.fullmatch(tok) is not None


def _check_term(term: Sexpr, declared: set[str]) -> None:
    if isinstance(term, str):
        if _is_numeral(term) or term in ("true", "false"):
            return
        if term in declared:
            return
        raise SmtlibError(f"symbol {term!r} used before declaration")
    if not term:
        raise SmtlibError("empty application")
    head = term[0]
    if not isinstance(head, str) or head not in _OPERATORS:
        raise SmtlibError(f"unknown operator {head!r}")
    arity = len(term) - 1
    if head == "not" and arity != 1:
        raise SmtlibError("'not' takes one argument")
    if head in ("-",) and arity not in (1, 2):
        raise SmtlibError("'-' takes one or two arguments")
    if head in ("+", "*", "and", "or", "=", "<", "<=", ">", ">=", "/") and arity < 1:
        raise SmtlibError(f"{head!r} needs arguments")
    if head == "/" and arity != 2:
        raise SmtlibError("'/' takes two arguments")
    if head == "ite" and arity != 3:
        raise SmtlibError("'ite' takes three arguments")
    for sub in term[1:]:
        _check_term(sub, declared)


def check_wellformed(text: str) -> list[Sexpr]:
    """Structural validity of an SMT-LIB script; returns the parsed forms."""
    forms = parse_script(text)
    declared: set[str] = set()
    for form in forms:
        if isinstance(form, str) or not form or not isinstance(form[0], str):
            raise SmtlibError(f"not a command: {form!r}")
        cmd = form[0]
        if cmd not in _COMMANDS:
            raise SmtlibError(f"unknown command {cmd!r}")
        if cmd in ("declare-const", "declare-fun"):
            if cmd == "declare-const":
                ok = len(form) == 3 and form[2] == "Real"
            else:
                ok = len(form) == 4 and form[2] == [] and form[3] == "Real"
            if not ok or not isinstance(form[1], str):
                raise SmtlibError(f"malformed {cmd}: {form!r}")
            if form[1] in _RESERVED:
                raise SmtlibError(f"{cmd} of the reserved symbol {form[1]!r}")
            if not _SIMPLE_SYMBOL.fullmatch(form[1]):
                raise SmtlibError(f"{cmd} of {form[1]!r}, not a simple symbol")
            if form[1] in declared:
                raise SmtlibError(f"{form[1]!r} declared twice")
            declared.add(form[1])
        elif cmd == "assert":
            if len(form) != 2:
                raise SmtlibError("assert takes exactly one term")
            _check_term(form[1], declared)
    return forms


# ---------------------------------------------------------------------------
# Ground evaluation
# ---------------------------------------------------------------------------


def _eval_term(term: Sexpr, env: Mapping[str, Fraction]):
    if isinstance(term, str):
        if term == "true":
            return True
        if term == "false":
            return False
        if _is_numeral(term):
            return Fraction(term)
        if term in env:
            return env[term]
        raise SmtlibError(f"no value for symbol {term!r}")
    head, args = term[0], [_eval_term(t, env) for t in term[1:]]
    if head == "+":
        return sum(args, Fraction(0))
    if head == "*":
        out = Fraction(1)
        for a in args:
            out *= a
        return out
    if head == "-":
        return -args[0] if len(args) == 1 else args[0] - args[1]
    if head == "/":
        if args[1] == 0:
            raise SmtlibError("division by zero in ground term")
        return args[0] / args[1]
    if head == "not":
        return not args[0]
    if head == "and":
        return all(args)
    if head == "or":
        return any(args)
    if head == "ite":
        return args[1] if args[0] else args[2]
    if head in ("=", "<", "<=", ">", ">="):
        ops = {
            "=": operator.eq,
            "<": operator.lt,
            "<=": operator.le,
            ">": operator.gt,
            ">=": operator.ge,
        }
        return all(ops[head](a, b) for a, b in zip(args, args[1:]))
    raise SmtlibError(f"unknown operator {head!r}")


def evaluate_assertions(
    forms: list[Sexpr], assignment: Mapping[str, Fraction]
) -> list[int]:
    """Indices (into the assert commands, 0-based) of assertions that are
    FALSE under the assignment; empty list means the assignment is a model."""
    failures = []
    k = 0
    for form in forms:
        if isinstance(form, list) and form and form[0] == "assert":
            value = _eval_term(form[1], assignment)
            if value is not True:
                failures.append(k)
            k += 1
    return failures
