"""SMT-LIB 2 (QF_NRA) emission of the equation system, plus a structural
checker and a ground evaluator for the emitted scripts.

The emission is self-contained text: parameter declarations and range
assertions, and the equation system of ``eqsys`` — one mu variable and flow
equation per product node reachable from an initial node, normalization
rows, zeros and mu range bounds — so ``solve_concrete``'s ``mu`` is a full
model of the mu variables; and the membership of the target sum in the
query's probability interval.  The system may be that of a quotient made by
``pmc.lump``: its mu variables are then named after each block's first
state, while the parameters and the support section come from the
quotient's given chain (``Pmc.given``), so the script's parameter models
are those of the unlumped script.  The support section
asserts each distinct non-constant function positive once and each
distinct row to sum to 1 once.  ``(/ x 0)`` is not an error in SMT-LIB
but a value a solver may choose, so each distinct non-constant denominator
of a transition is asserted to be nonzero.

``parse_script`` reads a script in one pass: one regular expression matches
each token with the whitespace and ``;`` comments before it, and the
s-expressions are built on a stack as the tokens come.  A string literal
(``""`` inside it is an escaped quote) and a quoted symbol (``|...|``, no
``\\`` inside) are one atom each, delimiters included.
``check_wellformed`` parses the script back (balanced s-expressions, known
commands, every declared name a simple symbol and no reserved word, every
symbol declared before use, ASCII numerals, sane operator arities).
Emission fails with SmtlibError on a parameter or state name that is not a
simple symbol, so an emitted script always passes that check.
``evaluate_assertions`` substitutes a full rational assignment and decides
every assertion exactly — enough to validate a model without a solver.
The checker and the evaluator read one table, ``_OPERATORS``: the argument
counts each operator takes and its value.  A division by 0 has no value,
nor has a term around one, so an assertion that divides by 0 is not true.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction
from typing import Mapping

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


def _within(x: str, lo: Fraction, hi: Fraction, lo_strict: bool, hi_strict: bool) -> list[str]:
    """The two assertions that put the term ``x`` in the interval from lo to hi."""
    return [
        f"(assert ({'<' if lo_strict else '<='} {_frac(lo)} {x}))",
        f"(assert ({'<' if hi_strict else '<='} {x} {_frac(hi)}))",
    ]


def mu_name(system: EquationSystem, node: int) -> str:
    """``mu_<q>.<state>``: no model identifier contains '.', so a mu symbol
    never collides with a parameter name."""
    q, s = system.graph.pair(node)
    return f"mu_{q}.{system.graph.pmc.states[s]}"


def emit_smtlib(system: EquationSystem, query: PltlQuery) -> str:
    """The script of the system and the query.  The given chain M of the
    system's chain (see ``pmc.lump``) has its parameters declared, its
    states' names checked, its entries asserted positive and its rows to
    sum to 1, so the script's parameter models do not depend on the
    lumping."""
    G = system.graph
    Q = G.pmc
    M = Q.given
    lines: list[str] = []
    out = lines.append
    out("(set-logic QF_NRA)")
    out(
        f"; product of {len(G.gba.states)} automaton states x {Q.n_states()} blocks "
        f"of {M.n_states()} chain states"
    )

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
        lines += _within(name, p.lower, p.upper, p.lower_strict, p.upper_strict)

    # generated models have a few functions among thousands of entries, and
    # their rows repeat: each function is named and asserted positive once,
    # and each distinct row of function indices to sum to 1 once
    text = [_rf(f) for f in M.functions]
    out("; support positivity and row sums")
    for den in dict.fromkeys(_poly(f.den) for f in M.functions if not f.den.is_const):
        out(f"(assert (not (= {den} 0)))")
    positive: set[int] = set()
    rows = dict.fromkeys(tuple(M.entries[a:b]) for a, b in itertools.pairwise(M.offsets))
    for key in rows:
        if all(M.functions[i].is_const for i in key):
            continue
        for i in key:
            if i not in positive and not M.functions[i].is_const:
                positive.add(i)
                out(f"(assert (> {text[i]} 0))")
        out(f"(assert (= {_sum([text[i] for i in key])} 1))")

    # the quotient's functions are M's or sums of them
    if Q is not M:
        text = [_rf(f) for f in Q.functions]
    ns = Q.n_states()
    row_text = [{t: text[i] for t, i in Q.row(s)} for s in range(ns)]
    out("; flow equations")
    for u in names:
        s = u % ns
        # build_product lays out a node's arcs grouped by chain successor
        terms = [
            f"(* {row_text[s][t]} {_sum([names[v] for v in group])})"
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

    out(f"; target in {query.interval_str()}")
    target = _sum([names[u] for u in G.initial])
    lines += _within(target, query.lo, query.hi, query.lo_strict, query.hi_strict)
    out("(check-sat)")
    out("(get-model)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Parsing / checking
# ---------------------------------------------------------------------------

Sexpr = str | list  # atoms are strings


def parse_script(text: str) -> list[Sexpr]:
    """All top-level s-expressions; raises on imbalance."""
    stack: list[list] = [[]]
    for m in re.finditer(
        r'(?:\s|;[^\n]*)*'  # whitespace and comments before the token
        r'(?:(?P<open>\()|(?P<close>\))'
        r'|(?P<atom>"(?:[^"]|"")*"|\|[^|\\]*\||[^\s();"|]+)'
        r'|(?P<quote>")|(?P<bar>\|)|(?P<eof>\Z))',
        text,
    ):
        kind = m.lastgroup
        if kind == "open":
            stack.append([])
        elif kind == "close":
            if len(stack) == 1:
                raise SmtlibError("unbalanced ')'")
            done = stack.pop()
            stack[-1].append(done)
        elif kind == "atom":
            stack[-1].append(m[kind])
        elif kind == "quote":
            raise SmtlibError("unterminated string literal")
        elif kind == "bar":
            raise SmtlibError("unterminated quoted symbol")
        else:
            break  # an empty match may follow at the end of the text
    if len(stack) != 1:
        raise SmtlibError("unbalanced '('")
    return stack[0]


def _chain(compare):
    """A comparison of every two adjacent arguments, as SMT-LIB chains them."""
    return lambda *args: all(compare(a, b) for a, b in zip(args, args[1:]))


# every operator: the fewest and most arguments it takes (None: no upper
# limit) and its value as a function of its arguments' values
_OPERATORS = {
    "+": (1, None, lambda *args: sum(args, Fraction(0))),
    "-": (1, 2, lambda *args: -args[0] if len(args) == 1 else args[0] - args[1]),
    "*": (1, None, lambda *args: math.prod(args, start=Fraction(1))),
    "/": (2, 2, lambda a, b: a / b if b else None),  # (/ x 0) has no value
    "=": (1, None, _chain(operator.eq)),
    "<": (1, None, _chain(operator.lt)),
    "<=": (1, None, _chain(operator.le)),
    ">": (1, None, _chain(operator.gt)),
    ">=": (1, None, _chain(operator.ge)),
    "and": (1, None, lambda *args: all(args)),
    "or": (1, None, lambda *args: any(args)),
    "not": (1, 1, operator.not_),
    "ite": (3, 3, lambda c, a, b: a if c else b),
}
# symbols a script may not declare: the operators, SMT-LIB's reserved words
# and the other predefined symbols of its core theory
_RESERVED = set(_OPERATORS) | {
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


def _operator(term: list):
    """The value function of the application ``term``, its head and arity checked."""
    if not term:
        raise SmtlibError("empty application")
    head, arity = term[0], len(term) - 1
    if not isinstance(head, str) or head not in _OPERATORS:
        raise SmtlibError(f"unknown operator {head!r}")
    fewest, most, value = _OPERATORS[head]
    if arity < fewest or (most is not None and arity > most):
        takes = str(fewest) if most == fewest else f"{fewest} or {most or 'more'}"
        raise SmtlibError(f"wrong number of arguments for {head!r}: {arity}, expected {takes}")
    return value


def _check_term(term: Sexpr, declared: set[str]) -> None:
    if isinstance(term, str):
        if _NUMERAL.fullmatch(term) or term in ("true", "false") or term in declared:
            return
        raise SmtlibError(f"symbol {term!r} used before declaration")
    _operator(term)
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
    """The value of ``term``; None when it divides by 0 somewhere."""
    if isinstance(term, str):
        if term == "true":
            return True
        if term == "false":
            return False
        if _NUMERAL.fullmatch(term):
            return Fraction(term)
        if term in env:
            return env[term]
        raise SmtlibError(f"no value for symbol {term!r}")
    value = _operator(term)
    args = [_eval_term(t, env) for t in term[1:]]
    return None if None in args else value(*args)


def evaluate_assertions(
    forms: list[Sexpr], assignment: Mapping[str, Fraction]
) -> list[int]:
    """Indices (into the assert commands, 0-based) of assertions that are
    not true under the assignment; empty list means the assignment is a model.
    One that divides by zero is not true: SMT-LIB leaves ``(/ x 0)``
    unspecified.  A symbol with no value raises SmtlibError."""
    asserts = (form[1] for form in forms if isinstance(form, list) and form and form[0] == "assert")
    return [k for k, term in enumerate(asserts) if _eval_term(term, assignment) is not True]
