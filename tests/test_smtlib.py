import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest
from random_inputs import formula_corpus
from hypothesis import example, given
from hypothesis import strategies as st

from pmcsynth import smtlib
from pmcsynth.eqsys import PltlQuery, analyze, build_system, parse_pltl, solve_concrete
from pmcsynth.gba import translate
from pmcsynth.ltl import parse_formula
from pmcsynth.modelgen import crowds_like, random_mc
from pmcsynth.pmc import Imc, imc_to_pmc, parse_model
from pmcsynth.product import build_product
from pmcsynth.smtlib import (
    SmtlibError,
    check_wellformed,
    emit_smtlib,
    evaluate_assertions,
    mu_name,
    parse_script,
)

F = Fraction
MODELS = Path(__file__).resolve().parent.parent / "models"


def system_for(model_name, formula_text):
    M = parse_model((MODELS / model_name).read_text())
    if isinstance(M, Imc):
        M = imc_to_pmc(M)
    A = translate(parse_formula(formula_text))
    return M, build_system(build_product(A, M))


def test_parse_script():
    forms = parse_script("(a (b 1) 2) (c)")
    assert forms == [["a", ["b", "1"], "2"], ["c"]]
    assert parse_script("; only a comment\n") == []
    for bad in ("(a", "a)", "(a))"):
        with pytest.raises(SmtlibError):
            parse_script(bad)


def _reference_tokens(text):
    """The character-by-character tokenizer that the regex reader replaced,
    with SMT-LIB 2.6's escaped quote ``""`` in a string literal and its
    ``|...|`` quoted symbols (which hold no ``\\``)."""
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
            while j < n and (text[j] != '"' or text[j + 1 : j + 2] == '"'):
                j += 2 if text[j] == '"' else 1
            if j >= n:
                raise SmtlibError("unterminated string literal")
            yield text[i : j + 1]
            i = j + 1
        elif c == "|":
            j = i + 1
            while j < n and text[j] not in "|\\":
                j += 1
            if j >= n or text[j] == "\\":
                raise SmtlibError("unterminated quoted symbol")
            yield text[i : j + 1]
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in '();"|':
                j += 1
            yield text[i:j]
            i = j


def test_parse_script_quoted_forms():
    assert parse_script('(echo "a""b")') == [["echo", '"a""b"']]
    assert parse_script("(declare-const |a b| Real)") == [["declare-const", "|a b|", "Real"]]
    for bad, message in [
        ('(echo "a""b)', "unterminated string literal"),
        ("(declare-const |a b Real)", "unterminated quoted symbol"),
        ("(declare-const |a\\b| Real)", "unterminated quoted symbol"),
    ]:
        with pytest.raises(SmtlibError, match=message):
            parse_script(bad)
    with pytest.raises(SmtlibError, match="not a simple symbol"):
        check_wellformed("(declare-const |a b| Real)")


def _reference_parse(text):
    stack = [[]]
    for tok in _reference_tokens(text):
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


def _forms_or_error(parse, text):
    try:
        return parse(text)
    except SmtlibError as exc:
        return str(exc)


# pieces of atoms and strings, parentheses, quotes, comments, whitespace
# (also Unicode's), and non-ASCII letters, digits and numeric characters
_SCRIPT = st.lists(
    st.sampled_from(
        ["(", ")", '"', '"a b"', '""', "assert", "x", "mu_0.s", "1.5", "-", "->", "é", "½", "²", "٣"]
        + [";", "; c (", "\n", " ", "\t", "\r", "\u00a0", "\u2028", "|", "|a b|", "\\", "#"]
    ),
    max_size=30,
).map("".join)


@given(_SCRIPT)
@example("a -")
@example("->->")
@example("½a")
@example("a²")
@example("٣")
@example("(a\u00a0b)")
@example('(echo "abc')
@example('(echo "a""b")')
@example('(echo "a""')
@example("(declare-const |a b| Real)")
@example("(a|b c|)")
@example("(|a\\b|)")
@example("(|a b")
@example("(check-sat) ; a comment at the end, no newline")
@example("(check-sat)" + " " * 100_000)
@example("")
def test_parse_script_matches_reference(text):
    assert _forms_or_error(parse_script, text) == _forms_or_error(_reference_parse, text)


def test_check_wellformed_rejects_garbage():
    cases = [
        "(declare-const x Real) (assert (= x y))",  # y undeclared
        "(declare-const x Real) (declare-const x Real)",  # duplicate
        "(frobnicate)",  # unknown command
        "(assert)",  # wrong arity
        "(declare-const x Bool)",  # only Real is emitted
        "(declare-const x Real) (assert (bogus x))",  # unknown operator
        "(declare-const x Real) (assert (not x x))",  # 'not' arity
        "(declare-const x Real) (assert (/ x))",  # '/' arity
        "(declare-const x Real) (assert (ite x x))",  # 'ite' arity
        "(declare-const and Real)",  # an operator
        "(declare-fun true () Real)",  # a core constant
        "(declare-const distinct Real)",  # a core symbol
        "(declare-const é Real)",  # letters of a simple symbol are ASCII
        "(declare-const 1x Real)",  # a simple symbol starts with no digit
        "(declare-const x Real) (assert (= x ²))",  # numerals are ASCII digits
        "(declare-const x Real) (assert (= x ٣))",
        "(declare-const x Real) (assert (= x 01))",  # no leading 0
        "(declare-const x Real) (assert (= x 1.))",  # a decimal has digits after '.'
    ]
    for text in cases:
        with pytest.raises(SmtlibError):
            check_wellformed(text)
    # and a well-formed one passes, returning the parsed forms
    forms = check_wellformed("(set-logic QF_NRA) (declare-const x Real) (assert (< 0 x)) (check-sat)")
    assert len(forms) == 4
    # mu symbols and decimals pass too
    forms = check_wellformed("(declare-const mu_0.s Real) (assert (< 0 mu_0.s 0.75 10))")
    assert evaluate_assertions(forms, {"mu_0.s": F(1, 2)}) == []


def test_evaluate_assertions_arithmetic():
    text = """
    (declare-const x Real)
    (assert (= (+ x x) (* 2 x)))
    (assert (< 0 x 1))
    (assert (ite (< x (/ 1 2)) true false))
    (assert (= (- x) (- 0 x)))
    (assert (> x 1))
    """
    forms = check_wellformed(text)
    failures = evaluate_assertions(forms, {"x": F(1, 3)})
    assert failures == [4]  # only the last assertion is false
    # chained comparison is conjunctive: 0 < x < 1 fails at x = 2
    assert 1 in evaluate_assertions(forms, {"x": F(2)})
    # (/ x 0) is unspecified in SMT-LIB: an assertion dividing by zero is not true
    assert evaluate_assertions(check_wellformed("(assert (/ 1 0))"), {}) == [0]
    with pytest.raises(SmtlibError):
        evaluate_assertions(check_wellformed("(declare-const y Real) (assert (= y 0))"), {})


def test_evaluator_refuses_the_arities_the_checker_refuses():
    # evaluated without the checker, these read an argument too many or too few
    for text in ["(assert (= (- 5 1 1) 3))", "(assert (ite false 1))"]:
        with pytest.raises(SmtlibError, match="wrong number of arguments"):
            evaluate_assertions(parse_script(text), {})


# The checker and the evaluator as if-chains over the operator names: the
# references that the one operator table is compared with.
_REFERENCE_OPERATORS = {"+", "-", "*", "/", "=", "<", "<=", ">", ">=", "and", "or", "not", "ite"}


def _reference_check_term(term, declared):
    if isinstance(term, str):
        if smtlib._NUMERAL.fullmatch(term) or term in ("true", "false"):
            return
        if term in declared:
            return
        raise SmtlibError(f"symbol {term!r} used before declaration")
    if not term:
        raise SmtlibError("empty application")
    head = term[0]
    if not isinstance(head, str) or head not in _REFERENCE_OPERATORS:
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
        _reference_check_term(sub, declared)


def _reference_eval_term(term, env):
    if isinstance(term, str):
        if term == "true":
            return True
        if term == "false":
            return False
        if smtlib._NUMERAL.fullmatch(term):
            return Fraction(term)
        if term in env:
            return env[term]
        raise SmtlibError(f"no value for symbol {term!r}")
    head, args = term[0], [_reference_eval_term(t, env) for t in term[1:]]
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
        return args[0] / args[1]  # ZeroDivisionError on a zero divisor
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


def _reference_eval_symbols(term, env):
    if isinstance(term, str):
        _reference_eval_term(term, env)
    else:
        for sub in term[1:]:
            _reference_eval_symbols(sub, env)


def _reference_evaluate_assertions(forms, assignment):
    failures = []
    asserts = (form[1] for form in forms if isinstance(form, list) and form and form[0] == "assert")
    for k, term in enumerate(asserts):
        try:
            if _reference_eval_term(term, assignment) is not True:
                failures.append(k)
        except ZeroDivisionError:
            _reference_eval_symbols(term, assignment)
            failures.append(k)
    return failures


def _outcome(function, *args):
    """What ``function`` returns, or "raises" when it raises SmtlibError."""
    try:
        return function(*args)
    except SmtlibError:
        return "raises"


# x and z are declared, y is not; only x has a value
_ATOMS = st.sampled_from(["0", "1", "2", "x", "y", "z", "true", "false"])
_HEADS = st.sampled_from(sorted(_REFERENCE_OPERATORS) + ["bogus"])


def _terms(depth):
    """Atoms, and applications of 0-4 arguments nested at most ``depth`` deep."""
    if depth == 0:
        return _ATOMS
    apply = st.builds(lambda head, args: [head, *args], _HEADS, st.lists(_terms(depth - 1), max_size=4))
    return _ATOMS | apply


@given(_terms(3), st.sampled_from([F(0), F(1, 2), F(2)]))
@example(["-", "1", "1", "1"], F(0))
@example(["ite", "false", "1"], F(0))
@example(["+", ["/", "1", "x"], "z"], F(0))
@example(["<", ["/", "1", "x"], ["/", "true", "true"]], F(0))
def test_operator_table_matches_reference(term, x):
    declared = {"x", "z"}
    accepted = _outcome(_reference_check_term, term, declared) is None
    assert (_outcome(smtlib._check_term, term, declared) is None) == accepted
    if accepted:
        forms = [["assert", term]]
        assert _outcome(evaluate_assertions, forms, {"x": x}) == _outcome(
            _reference_evaluate_assertions, forms, {"x": x}
        )


def test_emitted_script_is_wellformed():
    M, system = system_for("split_cycle.pmc", "G F y")
    script = emit_smtlib(system, parse_pltl("P >= 1 [ G F y ]"))
    forms = check_wellformed(script)
    assert forms[0] == ["set-logic", "QF_NRA"]
    assert forms[-2] == ["check-sat"]
    assert forms[-1] == ["get-model"]
    # one declaration per parameter and per reachable product node
    decls = [f[1] for f in forms if f[0] == "declare-const"]
    part = system.partition
    reachable = [u for i in range(len(part)) if part.reachable[i] for u in part.members(i)]
    assert len(reachable) < system.graph.n_nodes()
    assert sorted(decls) == sorted(list(M.params) + [mu_name(system, u) for u in reachable])


@pytest.mark.parametrize(
    "model_name, formula_text, ranges",
    [
        (
            "split_cycle.pmc",
            "G F y",
            ["(assert (< (- (/ 1 2)) eps))", "(assert (< eps (/ 1 2)))"],
        ),
        (
            "interval_row.imc",
            "F goal",
            [
                "(assert (<= (/ 1 5) p_s_t))",
                "(assert (<= p_s_t (/ 7 10)))",
                "(assert (<= (/ 3 10) p_s_w))",
                "(assert (<= p_s_w (/ 1 2)))",
                "(assert (<= 1 p_t_t))",
                "(assert (<= p_t_t 1))",
                "(assert (<= 1 p_w_w))",
                "(assert (<= p_w_w 1))",
            ],
        ),
    ],
)
def test_parameter_range_lines(model_name, formula_text, ranges):
    M, system = system_for(model_name, formula_text)
    lines = emit_smtlib(system, parse_pltl(f"P >= 1/2 [ {formula_text} ]")).splitlines()
    start = lines.index("; parameter ranges") + 1
    assert lines[start : lines.index("; support positivity and row sums")] == ranges


def test_vanishing_denominator_is_excluded():
    # both entries of s are over 2p - 1: in SMT-LIB (/ x 0) is a value a
    # solver may choose, so without the guard p = 1/2 could satisfy every
    # assertion, though no chain has entries there
    M = parse_model(
        "pmc\nparam p in [0, 1];\nstate s;\nstate t {goal};\nstate u;\ninit s;\n"
        "trans s -> t : p / (2*p - 1);\ntrans s -> u : (p - 1) / (2*p - 1);\n"
        "trans t -> t : 1;\ntrans u -> u : 1;\n"
    )
    system = analyze(M, parse_formula("F goal")).system
    script = emit_smtlib(system, parse_pltl("P >= 1/2 [ F goal ]"))
    lines = script.splitlines()
    guard = "(assert (not (= (+ 1 (* (- 2) p)) 0)))"
    assert lines[lines.index("; support positivity and row sums") + 1] == guard
    assert lines.count(guard) == 1
    guards = [f for f in check_wellformed(script) if f[0] == "assert" and f[1][0] == "not"]
    assert len(guards) == 1
    assert evaluate_assertions(guards, {"p": F(1, 2)}) == [0]
    assert evaluate_assertions(guards, {"p": F(1, 3)}) == []


VANISHING = """
pmc
param p in [0, 1];
state s;
state t {goal};
state u;
init s;
trans s -> t : p / (2*p - 1);
trans s -> u : (p - 1) / (2*p - 1);
trans t -> t : 1;
trans u -> u : 1;
"""


def test_vanishing_denominator_fails_its_guard_in_the_whole_script():
    # at p = 1/2 the entries of s divide by zero: the whole script lists the
    # false (not (= D 0)) guard, assertion 2 after the two parameter ranges
    M = parse_model(VANISHING)
    system = analyze(M, parse_formula("F goal")).system
    forms = check_wellformed(emit_smtlib(system, parse_pltl("P >= 1/2 [ F goal ]")))
    asserts = [f[1] for f in forms if f[0] == "assert"]
    assert asserts[2] == ["not", ["=", ["+", "1", ["*", ["-", "2"], "p"]], "0"]]
    symbols = [f[1] for f in forms if f[0] == "declare-const"]
    assert 2 in evaluate_assertions(forms, dict.fromkeys(symbols, F(1, 2)))
    # a symbol with no value still raises, also beside a division by zero
    with pytest.raises(SmtlibError, match="no value for symbol 'y'"):
        evaluate_assertions(check_wellformed("(declare-const y Real) (assert (= (/ 1 0) y))"), {})


def test_exact_solution_is_a_model():
    # solve a parameterized system at a concrete point, substitute the values
    # into the emitted script, and re-check every assertion arithmetically
    M, system = system_for("split_cycle.pmc", "G F y")
    script = emit_smtlib(system, parse_pltl("P >= 1 [ G F y ]"))
    forms = check_wellformed(script)
    result = solve_concrete(system, {"eps": F(1, 8)})
    assignment = {mu_name(system, u): v for u, v in result.mu.items()}
    assignment["eps"] = F(1, 8)
    assert evaluate_assertions(forms, assignment) == []


def test_exact_solution_is_a_model_parameter_free():
    M, system = system_for("branch13.pmc", "F success")
    target = solve_concrete(system, {}).target
    script = emit_smtlib(system, parse_pltl(f"P in [{target}, {target}] [ F success ]"))
    forms = check_wellformed(script)
    result = solve_concrete(system, {})
    assignment = {mu_name(system, u): v for u, v in result.mu.items()}
    assert evaluate_assertions(forms, assignment) == []
    # the off-by-anything interval is refuted by the same assignment
    wrong = emit_smtlib(system, parse_pltl("P in [2/3, 2/3] [ F success ]"))
    assert evaluate_assertions(check_wellformed(wrong), assignment) != []


def test_emission_marks_provably_zero_systems():
    from test_product import loop_automaton

    M = parse_model((MODELS / "loop_pair.pmc").read_text())
    system = build_system(build_product(loop_automaton(), M))
    # emission reads only the query's interval, which the zero target meets
    script = emit_smtlib(system, parse_pltl("P <= 1/2 [ G F x ]"))
    assert "; target provably 0: no locally positive SCC" in script
    forms = check_wellformed(script)
    # all-zero assignment is a model of the degenerate system
    assignment = {mu_name(system, u): F(0) for u in range(system.graph.n_nodes())}
    assert evaluate_assertions(forms, assignment) == []


def test_mu_names_are_distinct():
    M, system = system_for("loop_pair.pmc", "G F x | G F w")
    names = [mu_name(system, u) for u in range(system.graph.n_nodes())]
    assert len(names) == len(set(names))
    assert all(n.startswith("mu_") for n in names)


def test_parameter_named_like_a_mu_symbol():
    # a parameter named like node (0, x) under a mu_<q>_<state> spelling
    M = parse_model(
        """pmc
        param mu_0_x in (0, 1);
        state x {};
        state y {goal};
        init x;
        trans x -> y : mu_0_x;
        trans x -> x : 1 - mu_0_x;
        trans y -> y : 1;
        """
    )
    A = translate(parse_formula("F goal"))
    system = build_system(build_product(A, M))
    forms = check_wellformed(emit_smtlib(system, parse_pltl("P >= 1 [ F goal ]")))
    point = {"mu_0_x": F(1, 2)}
    result = solve_concrete(system, point)
    assignment = {mu_name(system, u): v for u, v in result.mu.items()}
    assert set(assignment).isdisjoint(point)
    assert evaluate_assertions(forms, {**assignment, **point}) == []


@st.composite
def chains_with_points(draw):
    """A seeded random_mc chain (transient self-loops, single-node blocks,
    several bottom SCCs) or a small crowds_like model at a grid value of p."""
    if draw(st.booleans()):
        M = random_mc(random.Random(draw(st.integers(0, 2**32 - 1))), draw(st.integers(2, 8)))
        return M, {}, ("a", "b")
    members = draw(st.integers(2, 4))
    M = crowds_like(draw(st.integers(1, 3)), members, draw(st.integers(1, members)))
    lo, hi = M.params["p"].lower, M.params["p"].upper
    p = lo + draw(st.integers(0, 10)) * (hi - lo) / 10
    return M, {"p": p}, ("fresh", "observed", "delivered")


@given(chains_with_points(), st.integers(0, 2**32 - 1))
def test_emit_check_evaluate_round_trip(model, formula_seed):
    M, point, ap = model
    for formula in formula_corpus(random.Random(formula_seed), 3, 3, ap):
        system = analyze(M, formula).system
        result = solve_concrete(system, point)
        target = result.target
        assignment = {mu_name(system, u): v for u, v in result.mu.items()} | point

        forms = check_wellformed(emit_smtlib(system, PltlQuery(formula, target, target)))
        assert evaluate_assertions(forms, assignment) == []

        # pinned anywhere else, only the target's bound is refuted
        other = target + Fraction(1, 2) if target <= Fraction(1, 2) else target - Fraction(1, 2)
        forms = check_wellformed(emit_smtlib(system, PltlQuery(formula, other, other)))
        n_asserts = sum(1 for form in forms if form[0] == "assert")
        failures = evaluate_assertions(forms, assignment)
        assert len(failures) == 1 and failures[0] >= n_asserts - 2


def test_emission_renders_each_function_object_once(monkeypatch):
    # crowds_like has four distinct functions among all its entries
    M = crowds_like(3, 6, 2)
    system = build_system(build_product(translate(parse_formula("G F fresh")), M))
    rendered = []
    render = smtlib._rf
    monkeypatch.setattr(smtlib, "_rf", lambda f: rendered.append(f) or render(f))
    check_wellformed(emit_smtlib(system, parse_pltl("P >= 1/2 [ G F fresh ]")))
    assert len(rendered) <= len(M.functions) < len(M.trans)


def test_functions_spelled_apart_are_asserted_positive_once():
    # p/2 and 1/2*p are one function, and so are 1 - p/2 and 1 - 1/2*p
    M = parse_model(
        """pmc
        param p in (0, 1);
        state s {a}; state t;
        init s;
        trans s -> t : p/2;
        trans s -> s : 1 - p/2;
        trans t -> s : 1/2*p;
        trans t -> t : 1 - 1/2*p;
        """
    )
    query = parse_pltl("P >= 1/2 [ G F a ]")
    script = emit_smtlib(analyze(M, query.formula).system, query)
    positive = [line for line in script.splitlines() if line.startswith("(assert (> ")]
    assert len(positive) == len(set(positive)) == 2
    check_wellformed(script)
