import random
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import formula_corpus
from hypothesis import given
from hypothesis import strategies as st

from pmcsynth.eqsys import PltlQuery, analyze, build_system, parse_pltl, solve_concrete
from pmcsynth.gba import translate
from pmcsynth.ltl import parse_formula
from pmcsynth.modelgen import crowds_like, random_mc
from pmcsynth.pmc import parse_model
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
    A = translate(parse_formula(formula_text))
    return M, build_system(build_product(A, M))


def test_parse_script():
    forms = parse_script("(a (b 1) 2) (c)")
    assert forms == [["a", ["b", "1"], "2"], ["c"]]
    assert parse_script("; only a comment\n") == []
    for bad in ("(a", "a)", "(a))"):
        with pytest.raises(SmtlibError):
            parse_script(bad)


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
    with pytest.raises(SmtlibError):
        evaluate_assertions(check_wellformed("(assert (/ 1 0))"), {})
    with pytest.raises(SmtlibError):
        evaluate_assertions(check_wellformed("(declare-const y Real) (assert (= y 0))"), {})


def test_emitted_script_is_wellformed():
    M, system = system_for("split_cycle.pmc", "G F y")
    script = emit_smtlib(system, parse_pltl("P >= 1 [ G F y ]"))
    forms = check_wellformed(script)
    assert forms[0] == ["set-logic", "QF_NRA"]
    assert forms[-2] == ["check-sat"]
    assert forms[-1] == ["get-model"]
    # one declaration per parameter and per reachable product node
    decls = [f[1] for f in forms if f[0] == "declare-const"]
    reachable = [u for r in system.partition.sccs if r.reachable for u in r.members]
    assert len(reachable) < system.n_nodes()
    assert sorted(decls) == sorted(list(M.params) + [mu_name(system, u) for u in reachable])


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
    script = emit_smtlib(system)
    assert "; target provably 0: no locally positive SCC" in script
    forms = check_wellformed(script)
    # all-zero assignment is a model of the degenerate system
    assignment = {mu_name(system, u): F(0) for u in range(system.n_nodes())}
    assert evaluate_assertions(forms, assignment) == []


def test_mu_names_are_distinct():
    M, system = system_for("loop_pair.pmc", "G F x | G F w")
    names = [mu_name(system, u) for u in range(system.n_nodes())]
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
