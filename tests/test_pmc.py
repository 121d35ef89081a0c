import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from random_inputs import interval_chains

import pmcsynth.pmc as pmc_module
from pmcsynth.modelgen import chain_mc, crowds_like, random_mc
from pmcsynth.pmc import (
    Imc,
    InfeasibleRowError,
    ModelError,
    ModelSyntaxError,
    Param,
    Pmc,
    StagedCheck,
    WellDefinedReport,
    check_evaluation_names,
    imc_to_pmc,
    parse_evaluation,
    parse_model,
    well_defined,
    _parse_const,
    _parse_expr,
    _validate_rows,
    _Tokens,
    _TOKEN,
)
from pmcsynth.ratfunc import RF_ONE, RationalFunction, ZeroDenominatorError

MODELS = Path(__file__).resolve().parent.parent / "models"

COIN = """
pmc
param p in (0, 1);
state s {start};
state h {heads};
state t {tails};
init s;
trans s -> h : p;
trans s -> t : 1 - p;
trans h -> h : 1;
trans t -> t : 1;
"""


def test_parse_pmc():
    M = parse_model(COIN)
    assert isinstance(M, Pmc)
    assert M.states == ("s", "h", "t")
    assert M.initial == 0
    assert M.labels[0] == {"start"}
    assert set(M.params) == {"p"}
    assert M.params["p"].lower_strict and M.params["p"].upper_strict
    assert set(M.trans) == {(0, 1), (0, 2), (1, 1), (2, 2)}


def test_parse_comments_and_fractions():
    M = parse_model(
        """
        # tiny two-state chain
        pmc
        state a {x, y};
        state b;          # no label
        init a;
        trans a -> b : 3/10;  # fractions and decimals both work
        trans a -> a : 0.7;
        trans b -> b : 1;
        """
    )
    assert M.labels == (frozenset({"x", "y"}), frozenset())
    assert M.trans[(0, 1)].value() == Fraction(3, 10)
    assert M.trans[(0, 0)].value() == Fraction(7, 10)


# a chain that has read the body p/3 twice
_TWO_COPIES = (
    "pmc\nparam p in (0, 1);\nstate x;\nstate y;\ninit x;\n"
    "trans x -> x : p/3;\ntrans x -> y : p/3;\n"
)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("mc\nstate s;\ninit s;", "must start"),
        ("pmc\nstate s;\nstate s;\ninit s;\ntrans s -> s : 1;", "declared twice"),
        ("pmc\nparam p in (0,1);\nparam p in (0,1);\nstate s;\ninit s;\ntrans s -> s : 1;", "declared twice"),
        ("pmc\nparam p in (1,0);\nstate s;\ninit s;\ntrans s -> s : 1;", "empty range"),
        ("pmc\nstate s;\ntrans s -> s : 1;", "missing init"),
        ("pmc\nstate s;\ninit t;\ntrans s -> s : 1;", "not declared"),
        ("pmc\nstate s;\ninit s;", "no outgoing"),
        ("pmc\nstate s;\ninit s;\ntrans s -> s : 1/2;", "sums to 1/2"),
        # a constant row is summed over the lcm of its denominators
        (
            "pmc\nstate s;\nstate t;\nstate u;\ninit s;\ntrans s -> s : 1/3;\n"
            "trans s -> t : 1/4;\ntrans s -> u : 1/6;\ntrans t -> t : 1;\ntrans u -> u : 1;",
            "state s: constant row sums to 3/4, not 1",
        ),
        (
            "pmc\nstate s;\nstate t;\ninit s;\ntrans s -> s : 1/2;\ntrans s -> t : 2/3;\n"
            "trans t -> t : 1;",
            "state s: constant row sums to 7/6, not 1",
        ),
        ("pmc\nstate s;\nstate t;\ninit s;\ntrans s -> t : 0;\ntrans s -> s : 1;\ntrans t -> t : 1;", "omit it"),
        ("pmc\nstate s;\ninit s;\ntrans s -> s : 3/2;", "outside"),
        ("pmc\nstate s;\ninit s;\ntrans s -> s : 1;\ntrans s -> s : 1;", "given twice"),
        ("pmc\nstate s;\ninit s;\ninit s;\ntrans s -> s : 1;", "more than one init"),
        ("imc\nparam p in (0,1);\nstate s;\ninit s;", "do not declare"),
        # a [0, 0] entry is dropped from the model, but it still counts as given
        ("imc\nstate s;\ninit s;\ntrans s -> s : [0, 0];\ntrans s -> s : [1, 1];", "given twice"),
        ("imc\nstate s;\ninit s;\ntrans s -> s : [1, 1];\ntrans s -> s : [0, 0];", "given twice"),
        ("imc\nstate s;\ninit s;\ntrans s -> s : [0, 0];\ntrans s -> s : [0, 0];", "given twice"),
        (
            "pmc\nparam e in (-1/2, 1/2);\nstate s;\nstate t;\ninit s;\n"
            "trans s -> t : 1/2 + e;\ntrans s -> s : 1/2;\ntrans t -> t : 1;",
            "state s: row does not sum to 1",
        ),
        ("pmc\nparam p in", "for the parameter range"),
        ("pmc\nstate s;\ninit s;\ntrans s -> s : 1; !", "unexpected character '!'"),
        # a label list is {} or names separated by single commas
        ("pmc\nstate s {a b};\ninit s;\ntrans s -> s : 1;", "expected '}', found 'b'"),
        ("pmc\nstate s {a,};\ninit s;\ntrans s -> s : 1;", "expected a name, found '}'"),
        ("pmc\nstate s {a, b;\ninit s;\ntrans s -> s : 1;", "expected '}', found ';'"),
        # a body read before, then a copy of it with more after it or cut
        # by eof, which fails as a body not read before does
        (_TWO_COPIES + "trans y -> y : p/3 $;", r"unexpected character '\$'"),
        (_TWO_COPIES + "trans y -> y : p/3 3;", "expected ';', found '3'"),
        (_TWO_COPIES + "trans y -> y : p/3", "expected ';', found ''$"),
        (_TWO_COPIES.replace(": p/3", ": 1/2") + "trans y -> y : p/3", "expected ';', found ''$"),
        pytest.param(  # past Python's 4,300-digit limit on int conversion
            "pmc\nstate s;\ninit s;\ntrans s -> s : 0." + "0" * 4999 + "1;",
            "numeral of 5001 digits is too long",
            id="numeral-too-long",
        ),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ModelSyntaxError, match=fragment):
        parse_model(text)


_ONE_TRANS = "pmc\nparam p in (0, 1);\nstate x;\ninit x;\ntrans x -> x : "


@pytest.mark.parametrize("end", [" ;", ""], ids=["semicolon", "eof"])
@pytest.mark.parametrize(
    "body, message",
    [
        ("", "unexpected token {end!r} in expression"),
        ("1/2 +", "unexpected token {end!r} in expression"),
        ("1/2 3", "expected ';', found '3'"),
        ("(1/2", "expected ')', found {end!r}"),
        ("q", "unknown parameter 'q'"),
        ("1/0", "division by the zero rational function"),
        ("1/2 )", "expected ';', found ')'"),
    ],
    ids=["empty", "open-sum", "two-terms", "open-paren", "unknown-param", "zero-division", "stray-paren"],
)
def test_expression_error_messages(body, message, end):
    # the statement's end (';' or eof) is the token the parser meets next
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model(_ONE_TRANS + body + end)
    assert str(exc.value) == message.format(end=end.strip())


@pytest.mark.parametrize(
    "text, message",
    [
        ("pmc\nstate s;\ninit s;\ntrans s -> s : 1 " + "9" * 5000 + ";", "expected ';', found "),
        ("pmc\nstate " + "9" * 5000 + ";", "expected a name, found "),
    ],
    ids=["expect", "ident"],
)
def test_overlong_token_is_quoted_by_its_ends(text, message):
    # a 5,000-digit token is cut to its first and last 15 characters
    result = _outcome(parse_model, text)
    assert result == (ModelSyntaxError, message + f"'{'9' * 15}...{'9' * 15}'")
    assert result == _outcome(_reference_parse_model, text)


def test_constant_entries_are_checked_once_per_function(monkeypatch):
    # 50 transitions share the body 1: it is asked whether it is constant
    # once while the transitions are resolved and once for the rows, which
    # all hold the same object
    calls = 0
    is_const = RationalFunction.is_const

    def counted(self):
        nonlocal calls
        calls += 1
        return is_const.fget(self)

    text = "pmc\n" + "".join(f"state s{i};\n" for i in range(50)) + "init s0;\n"
    text += "".join(f"trans s{i} -> s{(i + 1) % 50} : 1;\n" for i in range(50))
    monkeypatch.setattr(RationalFunction, "is_const", property(counted))
    M = parse_model(text)
    assert len(M.trans) == 50
    assert calls < 5
    # the error still names the first transition that holds a bad constant
    text = text.replace("s1 -> s2 : 1", "s1 -> s2 : 2").replace("s3 -> s4 : 1", "s3 -> s4 : 2")
    with pytest.raises(ModelSyntaxError, match="transition s1 -> s2 has constant probability 2"):
        parse_model(text)


def test_first_error_in_file_order():
    # good copies of an expression first, then a bad one, then another error
    text = (
        "pmc\nparam p in (0, 1);\nstate x;\nstate y;\ninit x;\n"
        "trans x -> x : (p)/(20);\ntrans x -> y : (p)/(20) # again\n;\n"
        "trans y -> x : (p)/(20 ;\ntrans y -> y : q;\n"
    )
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model(text)
    assert str(exc.value) == "expected ')', found ';'"


def test_equal_expressions_share_one_function():
    M = parse_model(
        """
        pmc
        param p in (0, 1);
        state a; state b; state c;
        init a;
        trans a -> b : (p)/(20);
        trans a -> a : 1 - (p)/(20);
        trans b -> c : ( p )/(20);
        trans b -> b : 1 - ( p ) / ( 20 );
        trans c -> a : (p)/(20) # a comment
        ;
        trans c -> c : 1 - (p)/(20);
        state d; state e;
        trans d -> d : p/3;
        trans d -> a : 1 - p/3;
        trans e -> e : p/3 # ; in a comment
        ;
        trans e -> a : 1 - p/3;
        """
    )
    assert M.trans[(4, 4)] is M.trans[(3, 3)]
    shared = M.trans[(0, 1)]
    assert M.trans[(1, 2)] is shared and M.trans[(2, 0)] is shared
    assert M.trans[(1, 1)] is M.trans[(0, 0)] is M.trans[(2, 2)]
    assert M.trans[(0, 0)] is not shared


@pytest.mark.parametrize(
    "third, message",
    [
        ("trans c -> a : 1/3;\ntrans c -> c : 1/3;", "state c: constant row sums to 2/3, not 1"),
        ("trans c -> a : p/3;\ntrans c -> c : 2/3 - p/3;", "state c: row does not sum to 1"),
    ],
    ids=["constant", "symbolic"],
)
def test_row_after_equal_rows_still_checked(third, message):
    text = (
        "pmc\nparam p in (0, 1);\nstate a;\nstate b;\nstate c;\ninit a;\n"
        "trans a -> a : p/3;\ntrans a -> b : 1 - p/3;\n"
        "trans b -> a : p/3;\ntrans b -> b : 1 - p/3;\n" + third
    )
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model(text)
    assert str(exc.value) == message


def test_parse_imc():
    M = parse_model(
        """
        imc
        state s;
        state t {goal};
        init s;
        trans s -> t : [1/5, 7/10];
        trans s -> s : [3/10, 1/2];
        trans t -> t : [1, 1];
        """
    )
    assert isinstance(M, Imc)
    assert M.lower[(0, 1)] == Fraction(1, 5)
    assert M.upper[(0, 1)] == Fraction(7, 10)


def test_imc_zero_interval_dropped():
    M = parse_model(
        """
        imc
        state s;
        state t;
        init s;
        trans s -> t : [0, 0];
        trans s -> s : [1, 1];
        trans t -> t : [1, 1];
        """
    )
    assert (0, 1) not in M.upper


def test_imc_infeasible_row():
    with pytest.raises(InfeasibleRowError):
        parse_model(
            """
            imc
            state s;
            state t;
            init s;
            trans s -> t : [0, 1/3];
            trans s -> s : [0, 1/3];
            trans t -> t : [1, 1];
            """
        )


def test_imc_rows_checked_on_construction():
    F = Fraction
    lower = {(0, 0): F(0), (0, 1): F(0), (1, 1): F(1)}
    upper = {(0, 0): F(1, 3), (0, 1): F(1, 3), (1, 1): F(1)}
    with pytest.raises(InfeasibleRowError, match=r"state s: .*lower sum 0, upper sum 2/3"):
        Imc(("s", "t"), (frozenset(), frozenset()), 0, lower, upper)
    del lower[(1, 1)], upper[(1, 1)]
    upper[(0, 0)] = F(1)
    with pytest.raises(ModelSyntaxError, match="state t has no outgoing transition"):
        Imc(("s", "t"), (frozenset(), frozenset()), 0, lower, upper)


def test_imc_to_pmc():
    I = parse_model(
        """
        imc
        state s;
        state t {goal};
        init s;
        trans s -> t : [1/5, 7/10];
        trans s -> s : [3/10, 1/2];
        trans t -> t : [1, 1];
        """
    )
    M = imc_to_pmc(I)
    # rows in state order, each sorted by target: s -> s before s -> t
    assert list(M.params) == ["p_s_s", "p_s_t", "p_t_t"]
    p = M.params["p_s_t"]
    assert (p.lower, p.upper) == (Fraction(1, 5), Fraction(7, 10))
    assert not p.lower_strict and not p.upper_strict
    rep = well_defined(
        M,
        {"p_s_t": Fraction(1, 2), "p_s_s": Fraction(1, 2), "p_t_t": Fraction(1)},
    )
    assert rep.ok


def test_param_admits():
    p = Param("p", Fraction(0), Fraction(1), lower_strict=True, upper_strict=False)
    assert not p.admits(Fraction(0))
    assert p.admits(Fraction(1))
    assert p.admits(Fraction(1, 2))
    assert not p.admits(Fraction(3, 2))
    assert p.bounds_str() == "(0, 1]"


def test_parse_evaluation():
    ev = parse_evaluation("eps=1/10, p=0.3")
    assert ev == {"eps": Fraction(1, 10), "p": Fraction(3, 10)}
    with pytest.raises(ModelError):
        parse_evaluation("p")
    with pytest.raises(ModelError):
        parse_evaluation("p=1,p=2")
    with pytest.raises(ModelError):
        parse_evaluation("p=one")
    with pytest.raises(ModelError, match="'1e-3'"):
        parse_evaluation("eps=1e-3")
    # a numeral past Python's limit on digits in an int is quoted by its ends
    with pytest.raises(ModelError) as exc:
        parse_evaluation(f"eps={'9' * 5000}/3")
    assert str(exc.value) == (
        f"bad value '{'9' * 15}...{'9' * 13}/3' for 'eps': numeral of 5000 digits is too long"
    )


def test_well_defined():
    M = parse_model(COIN)
    assert well_defined(M, {"p": Fraction(1, 2)}).ok
    bad = well_defined(M, {"p": Fraction(0)})
    assert not bad.ok
    assert any("evaluates to 0" in p for p in bad.problems)
    with pytest.raises(ModelError):
        well_defined(M, {})
    with pytest.raises(ModelError):
        well_defined(M, {"p": Fraction(1, 2), "q": Fraction(1, 2)})


def test_symbolic_row_sums_accepted():
    M = parse_model(
        """
        pmc
        param p in (0, 1);
        param q in (0, 1);
        state s;
        state t;
        state u;
        init s;
        trans s -> t : p / (1 + p) - q / 4;
        trans s -> u : 1 / (2 + 2*p);
        trans s -> s : 1 / (2 + 2*p) + 1/8*q + (q)/(8);
        trans t -> t : 1/3 + 2*p/3 - 2/3*p;
        trans t -> u : (2 - p*p) / 3 + p*p / 3;
        trans u -> u : 1;
        """
    )
    assert len(M.trans) == 6


def test_well_defined_row_sum():
    # a row of p + p breaks the parse-time row-sum check, so build it directly
    p = RationalFunction.var("p")
    M = Pmc(
        ("s", "t"),
        (frozenset(), frozenset()),
        0,
        {"p": Param("p", Fraction(0), Fraction(1), True, True)},
        {(0, 1): p, (0, 0): p, (1, 1): RF_ONE},
    )
    rep = well_defined(M, {"p": Fraction(1, 3)})
    assert not rep.ok
    assert any("sums to 2/3" in x for x in rep.problems)
    assert well_defined(M, {"p": Fraction(1, 2)}).ok


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


def test_well_defined_reports_every_problem():
    # the row sums to 1 as a rational function, so it parses
    M = parse_model(VANISHING)
    assert well_defined(M, {"p": Fraction(1, 2)}).problems == (
        "entry s -> t: denominator vanishes",
        "entry s -> u: denominator vanishes",
        "row s sums to 0, not 1",
    )
    rep = well_defined(M, {"p": Fraction(3, 4)})
    assert rep.problems == (
        "entry s -> t evaluates to 3/2, outside [0,1]",
        "entry s -> u evaluates to -1/2, outside [0,1]",
    )
    assert rep.values[_indices(M)[0, 1]] == Fraction(3, 2)
    assert well_defined(M, {"p": Fraction(0)}).problems == (
        "entry s -> t evaluates to 0 but is in the support",
    )
    with pytest.raises(ModelError, match="misses parameters: p"):
        well_defined(M, {})
    with pytest.raises(ModelError, match="unknown parameter 'q'"):
        well_defined(M, {"p": Fraction(1, 3), "q": Fraction(1)})


def test_functions_equal_in_structure_share_an_index():
    # p/2 and 1/2*p are one function, and so are 1/2, 0.5 and 2/4
    M = parse_model(
        """pmc
        param p in (0, 1);
        state s; state t; state u; state v;
        init s;
        trans s -> t : p/2;
        trans s -> s : 1 - p/2;
        trans t -> s : 1/2*p;
        trans t -> t : 1 - 1/2*p;
        trans u -> s : 1/2;
        trans u -> t : 0.5;
        trans v -> s : 2/4;
        trans v -> v : 1/2;
        """
    )
    assert len(M.functions) == 3
    index = _indices(M)
    assert index[0, 1] == index[1, 0] and index[0, 0] == index[1, 1]
    assert index[2, 0] == index[2, 1] == index[3, 0] == index[3, 3]


def test_no_table_is_keyed_by_object_identity():
    # functions are compared by value, through their indices: an id() call
    # in the program would bring object identity back
    src = Path(__file__).resolve().parent.parent / "src" / "pmcsynth"
    calls = [
        f"{path.name}:{n}"
        for path in sorted(src.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\bid\(", line)
    ]
    assert calls == []


def test_parse_checks_each_shared_constant_once(monkeypatch):
    # 1,000 transitions share one parsed 1/2: its value is taken once, for
    # its range, and the one distinct row sums that value twice
    lines = ["pmc", *(f"state s{i};" for i in range(500)), "init s0;"]
    for i in range(500):
        lines += [f"trans s{i} -> s{(i + 1) % 500} : 1/2;", f"trans s{i} -> s{i} : 1/2;"]
    calls = []
    value = RationalFunction.value
    monkeypatch.setattr(RationalFunction, "value", lambda f: calls.append(f) or value(f))
    M = parse_model("\n".join(lines))
    assert len(M.trans) == 1000
    assert len(calls) == 1


def test_token_stream_parses_each_body_text_once(monkeypatch):
    # non-ASCII names leave the generated form, so the token stream reads
    # every transition; its 100 bodies are two texts
    lines = ["pmc", *(f"state é{i};" for i in range(50)), "init é0;"]
    for i in range(50):
        lines += [f"trans é{i} -> é{(i + 1) % 50} : 1/4;", f"trans é{i} -> é{i} : 3/4;"]
    parsed = []
    parse_expr = pmc_module._parse_expr
    monkeypatch.setattr(pmc_module, "_parse_expr", lambda tk, params: parsed.append(1) or parse_expr(tk, params))
    M = parse_model("\n".join(lines))
    assert len(M.trans) == 100 and len(M.functions) == 2
    assert len(parsed) == 2


def test_well_defined_evaluates_each_function_once(monkeypatch):
    # five rows of p and 1 - p share two parsed functions, the last row a third
    lines = ["pmc", "param p in (0, 1);", *(f"state s{i};" for i in range(6)), "init s0;"]
    for i in range(5):
        lines += [f"trans s{i} -> s{i + 1} : p;", f"trans s{i} -> s{i} : 1 - p;"]
    lines.append("trans s5 -> s5 : 1;")
    M = parse_model("\n".join(lines))
    calls = []
    evaluate = RationalFunction.evaluate

    def counting(f, assignment):
        calls.append(f)
        return evaluate(f, assignment)

    monkeypatch.setattr(RationalFunction, "evaluate", counting)
    rep = well_defined(M, {"p": Fraction(1, 3)})
    assert rep.ok and len(rep.values) == len(M.functions) == 3 and len(M.trans) == 11
    assert rep.values[_indices(M)[0, 1]] == Fraction(1, 3)
    assert rep.values[_indices(M)[4, 4]] == Fraction(2, 3)
    # the parsed constant 1 is valued once, not evaluated
    assert len(calls) == 2


def _reference_entry(f, evaluation):
    try:
        v = f.evaluate(evaluation)
    except ZeroDenominatorError:
        return None, ": denominator vanishes"
    if v == 0:
        return v, " evaluates to 0 but is in the support"
    if v < 0 or v > 1:
        return v, f" evaluates to {v}, outside [0,1]"
    return v, None


def _reference_row(total):
    return None if total == 1 else f"sums to {total}, not 1"


def _indices(M):
    """The function index of each entry, {(s, t): index}."""
    return {(s, t): i for s in range(M.n_states()) for t, i in M.row(s)}


def _by_entry(M, values):
    """Function values by function index as {(s, t): value}, without the
    entries whose value is None."""
    return {key: values[i] for key, i in _indices(M).items() if values[i] is not None}


def _reference_well_defined(M, evaluation):
    """The loop that well_defined ran before it became StagedCheck's single
    stage: ranges, then row by row each entry and the row's sum, with one
    evaluation per distinct function and one sum per distinct row; the
    values by entry, {(s, t): value}."""
    check_evaluation_names(M, evaluation)
    evaluation = {name: Fraction(evaluation[name]) for name in M.params}
    problems = [
        f"parameter {name} = {v} is outside its range {M.params[name].bounds_str()}"
        for name, v in evaluation.items()
        if not M.params[name].admits(v)
    ]
    values = {}
    entries = {}
    rows = {}
    for s in range(M.n_states()):
        row = M.succ(s)
        for t, f in row:
            checked = entries.get((f.num, f.den))
            if checked is None:
                checked = entries[f.num, f.den] = _reference_entry(f, evaluation)
            v, problem = checked
            if v is not None:
                values[(s, t)] = v
            if problem is not None:
                problems.append(f"entry {M.states[s]} -> {M.states[t]}{problem}")
        key = tuple((f.num, f.den) for _, f in row)
        if key in rows:
            problem = rows[key]
        else:
            total = sum((entries[i][0] or 0 for i in key), Fraction(0))
            problem = rows[key] = _reference_row(total)
        if problem is not None:
            problems.append(f"row {M.states[s]} {problem}")
    return WellDefinedReport(not problems, tuple(problems), values)


class _ReferenceStagedCheck:
    """The staged check as it was before it became the one loop over the
    rules: separate tables of entries and of rows per stage, and an order
    that names every parameter."""

    def __init__(self, M, order):
        check_evaluation_names(M, dict.fromkeys(order))
        position = {name: i for i, name in enumerate(order)}
        self.params = [M.params[name] for name in order]
        self.entries = [[] for _ in range(len(order) + 1)]
        self.rows = [[] for _ in range(len(order) + 1)]
        for s in range(M.n_states()):
            row_stage = 0
            keys = []
            for t, f in M.succ(s):
                stage = 1 + max((position[name] for name in f.variables()), default=-1)
                self.entries[stage].append(((s, t), f))
                row_stage = max(row_stage, stage)
                keys.append((s, t))
            self.rows[row_stage].append(keys)

    def passes(self, stage, evaluation, values):
        if stage:
            param = self.params[stage - 1]
            if not param.admits(evaluation[param.name]):
                return False
        for key, f in self.entries[stage]:
            v, problem = _reference_entry(f, evaluation)
            if problem is not None:
                return False
            values[key] = v
        return all(
            _reference_row(sum((values[key] for key in keys), Fraction(0))) is None
            for keys in self.rows[stage]
        )


def _verdicts(check, order, point):
    """The verdicts of check's stages along ``order`` at ``point``, up to
    the first that fails; the parameters not in ``order`` are fixed first."""
    evaluation = {name: point[name] for name in point if name not in order}
    # the reference keeps values by entry, StagedCheck by function index
    values = {} if isinstance(check, _ReferenceStagedCheck) else [None] * len(check.functions)
    verdicts = [check.passes(0, evaluation, values)]
    for k, name in enumerate(order, 1):
        if not verdicts[-1]:
            break
        evaluation[name] = point[name]
        verdicts.append(check.passes(k, evaluation, values))
    return verdicts


_SIXTHS = st.integers(-1, 7).map(lambda i: Fraction(i, 6))
_P, _Q = RationalFunction.var("p"), RationalFunction.var("q")
_HALF, _THIRD = RationalFunction.const(Fraction(1, 2)), RationalFunction.const(Fraction(1, 3))
# the rows of a parametric chain draw from these, so rows share function
# objects: p/(p+q) and q/(p+q) vanish at p = q = 0, (p-1)/(2p-1) and
# p/(2p-1) at p = 1/2.  The first six rows sum to 1 identically, so a
# model of them parses; the last three sum to 1 at few points or none
_IDENTICAL_ROWS = (
    (_P, RF_ONE - _P),
    (_Q, RF_ONE - _Q),
    (_P / (_P + _Q), _Q / (_P + _Q)),
    ((_P - RF_ONE) / (_P + _P - RF_ONE), _P / (_P + _P - RF_ONE)),
    (_HALF, _HALF),
    (RF_ONE,),
)
_ROWS = _IDENTICAL_ROWS + (
    (_P, _P),
    (_HALF, _THIRD),
    (_P * _Q, _Q, _THIRD),
)


@st.composite
def _param_at_a_point(draw, name, sink=False):
    """A parameter and its value: the range in sixths of [0, 1] (a sink's is
    [1, 1]), the value in sixths of [-1/6, 7/6], inside the range 7 times
    in 8 where it can be."""
    ends = [Fraction(1)] * 2 if sink else draw(st.lists(_SIXTHS, min_size=2, max_size=2))
    lo, hi = sorted(ends)
    open_ends = (draw(st.booleans()), draw(st.booleans())) if lo < hi else (False, False)
    p = Param(name, lo, hi, *open_ends)
    inside = [Fraction(i, 6) for i in range(-1, 8) if p.admits(Fraction(i, 6))]
    if inside and draw(st.sampled_from((True,) * 7 + (False,))):
        return p, draw(st.sampled_from(inside))
    return p, draw(_SIXTHS)


@st.composite
def _chain_at_a_point(draw):
    """A chain, a point inside or outside its ranges, a shuffled order of
    its parameters and a position in that order.  The chain is either an
    interval chain as imc_to_pmc gives it (one parameter per entry: one or
    two rows of up to 3 entries, then 3 sinks), where the last entry of a
    row may take what the others leave, or a chain over p and q whose rows
    draw from ``_ROWS``."""
    trans, params, point = {}, {}, {}
    if draw(st.booleans()):
        n_rows = draw(st.integers(1, 2))
        states = tuple(f"r{i}" for i in range(n_rows)) + ("g", "b", "c")
        for s, name in enumerate(states):
            targets = [s] if s >= n_rows else draw(
                st.lists(st.integers(s + 1, n_rows + 2), min_size=1, max_size=3, unique=True)
            )
            names = [f"p_{name}_{states[t]}" for t in targets]
            for t, x in zip(targets, names):
                trans[s, t] = RationalFunction.var(x)
                params[x], point[x] = draw(_param_at_a_point(x, sink=s >= n_rows))
            if draw(st.booleans()):
                point[names[-1]] = 1 - sum((point[x] for x in names[:-1]), Fraction(0))
    else:
        states = tuple(f"s{i}" for i in range(draw(st.integers(1, 4))))
        for x in ("p", "q"):
            params[x], point[x] = draw(_param_at_a_point(x))
        for s in range(len(states)):
            row = draw(st.sampled_from(_ROWS + ((),)))
            targets = draw(st.permutations(range(len(states))))
            trans.update(((s, t), f) for t, f in zip(targets, row))
    M = Pmc(states, tuple(frozenset() for _ in states), 0, params, trans)
    return M, point, draw(st.permutations(list(params))), draw(st.integers(0, len(params)))


def _chain(rows, params):
    """A chain of the given rows of (successor, function) pairs."""
    trans = {(s, t): f for s, row in enumerate(rows) for t, f in row}
    states = tuple(f"s{i}" for i in range(len(rows)))
    return Pmc(states, tuple(frozenset() for _ in rows), 0, params, trans)


@settings(max_examples=300)
@given(_chain_at_a_point())
# an empty row sums to 0
@example((_chain([[(1, RF_ONE)], []], {}), {}, [], 0))
# a bad constant row after a bad parametric row: the rows' messages come in
# state order, not the constant row first
@example(
    (
        _chain(
            [[(0, _P), (1, _P)], [(0, _HALF), (1, _THIRD)]],
            {"p": Param("p", Fraction(0), Fraction(1))},
        ),
        {"p": Fraction(1, 3)},
        ["p"],
        1,
    )
)
def test_staged_check_matches_reference(case):
    _assert_staged_check_matches_reference(*case)


def _assert_staged_check_matches_reference(M, point, order, split):
    report = well_defined(M, point)
    reference = _reference_well_defined(M, point)
    assert (report.ok, report.problems, _by_entry(M, report.values)) == (
        reference.ok, reference.problems, reference.values
    )
    verdicts = _verdicts(_ReferenceStagedCheck(M, order), order, point)
    assert _verdicts(StagedCheck(M, order), order, point) == verdicts
    assert all(verdicts) == report.ok
    # with the first ``split`` parameters of the order fixed before the scan,
    # stage 0 checks what the first split + 1 stages checked
    tail = order[split:]
    assert _verdicts(StagedCheck(M, tail), tail, point) == (
        [all(verdicts[: split + 1])] + verdicts[split + 1 :]
    )


@st.composite
def _parsed_chain_at_a_point(draw):
    """A chain over p and q whose rows draw from ``_IDENTICAL_ROWS``,
    written as a model text and parsed, so that ``parse_model`` has proved
    it; a point inside or outside its ranges, a shuffled order of its
    parameters and a position in that order."""
    params, point, trans = {}, {}, {}
    for x in ("p", "q"):
        params[x], point[x] = draw(_param_at_a_point(x))
    states = tuple(f"s{i}" for i in range(draw(st.integers(2, 4))))
    for s in range(len(states)):
        row = draw(st.sampled_from(_IDENTICAL_ROWS))
        targets = draw(st.permutations(range(len(states))))
        trans.update(((s, t), f) for t, f in zip(targets, row))
    M = parse_model(_pmc_text(Pmc(states, tuple(frozenset() for _ in states), 0, params, trans)))
    return M, point, draw(st.permutations(list(params))), draw(st.integers(0, len(params)))


OUTSIDE_A_RANGE = """
pmc
param p in (0, 1/2];
state s;
state t;
init s;
trans s -> t : p;
trans s -> s : 1 - p;
trans t -> t : 1;
"""


@settings(max_examples=300)
@given(_parsed_chain_at_a_point())
# two vanishing denominators: the row's sum follows the entries' messages
@example((parse_model(VANISHING), {"p": Fraction(1, 2)}, ["p"], 0))
@example((parse_model(OUTSIDE_A_RANGE), {"p": Fraction(2, 3)}, ["p"], 0))
def test_proven_chain_matches_reference(case):
    M, point, order, split = case
    assert M.proven
    _assert_staged_check_matches_reference(M, point, order, split)
    # the same chain built in memory is checked by every rule, to the same end
    twin = Pmc(M.states, M.labels, M.initial, M.params, M.trans)
    assert not twin.proven
    report, twin_report = well_defined(M, point), well_defined(twin, point)
    assert (twin_report.ok, twin_report.problems) == (report.ok, report.problems)
    assert _by_entry(twin, twin_report.values) == _by_entry(M, report.values)


def test_parsed_constant_chain_evaluates_nothing(monkeypatch):
    M = parse_model(_pmc_text(random_mc(random.Random(1), 120)))
    reference = _reference_well_defined(M, {})
    calls = []
    evaluate = RationalFunction.evaluate
    monkeypatch.setattr(
        RationalFunction, "evaluate", lambda f, a: calls.append(f) or evaluate(f, a)
    )
    report = well_defined(M, {})
    assert calls == []
    assert report.ok and _by_entry(M, report.values) == reference.values
    assert reference.values.keys() == M.trans.keys()


def _entry_keys(check):
    """Every (s, t) that some stage of ``check`` evaluates, in table order."""
    return [(s, t) for rows in check.rows for s, entries, _ in rows for t, _ in entries]


def test_proven_chain_checks_only_what_an_evaluation_can_break():
    built = crowds_like(2, 4, 2)
    M = parse_model(_pmc_text(built))
    check = StagedCheck(M, ["p"])
    # no constant entry in any stage, no row summed, no value forced
    assert not any(M.trans[key].is_const for key in _entry_keys(check))
    assert all(earlier is None for rows in check.rows for _, _, earlier in rows)
    assert check.forcing == {}
    # the constants are valued at stage 0
    constants = [f.value() if f.is_const else None for f in M.functions]
    assert check.valued == [i for i, v in enumerate(constants) if v is not None]
    values = [None] * len(M.functions)
    assert check.passes(0, {}, values) and values == constants
    # chains built in memory keep every entry and every row sum, and an
    # interval row's bare last entry forces its value
    interval = imc_to_pmc(parse_model((MODELS / "interval_row.imc").read_text()))
    for N, forcing in ((built, 0), (interval, 3)):
        check = StagedCheck(N, list(N.params))
        assert check.valued == []
        assert sorted(_entry_keys(check)) == sorted(N.trans)
        summed = [s for rows in check.rows for s, _, earlier in rows if earlier is not None]
        assert sorted(summed) == list(range(N.n_states()))
        assert len(check.forcing) == forcing


# every axis of the forced-value test: a quarter's grid over [0, 1] and a
# point past each end
_QUARTERS = [Fraction(i, 4) for i in range(-1, 6)]


def _assert_forced_value_is_the_only_pass(check, order, k, evaluation, values):
    """Under a prefix of ``order`` whose first k stages passed, at every
    stage that forces a value, every other value on the axis fails."""
    if k == len(order):
        return
    forced = check.forced(k + 1, values)
    for x in _QUARTERS:
        point, point_values = {**evaluation, order[k]: x}, list(values)
        if check.passes(k + 1, point, point_values):
            assert forced is None or x == forced
            _assert_forced_value_is_the_only_pass(check, order, k + 1, point, point_values)


@settings(max_examples=60)
@given(interval_chains(), st.randoms(use_true_random=False))
def test_forced_value_is_the_only_one_that_passes(text, rng):
    M = imc_to_pmc(parse_model(text))
    order = list(M.params)
    rng.shuffle(order)
    check = StagedCheck(M, order)
    # the last entry of each row in the order, a bare parameter, forces it
    assert len(check.forcing) == M.n_states()
    assert check.passes(0, {}, [None] * len(M.functions))
    _assert_forced_value_is_the_only_pass(check, order, 0, {}, [None] * len(M.functions))
    # the single stage of well_defined forces nothing
    assert StagedCheck(M, ()).forcing == {}


def test_forced_value_needs_a_bare_parameter():
    # p's stage completes rows s0 and s1: s1 has two entries of the stage,
    # and s0 forces p only if its entry is p itself, not 2p; the constant
    # row s2 completes at stage 0
    for entry, forced in [(RationalFunction.const(2) * _P, None), (_P, Fraction(1, 2))]:
        M = _chain(
            [[(1, _HALF), (2, entry)], [(0, _P), (1, RF_ONE - _P)], [(0, RF_ONE)]],
            {"p": Param("p", Fraction(0), Fraction(1))},
        )
        check, values = StagedCheck(M, ["p"]), [None] * len(M.functions)
        assert check.passes(0, {}, values)
        assert check.forced(1, values) == forced


def _reference_tokenize(text):
    """The character-by-character tokenizer that the regex one replaced."""
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isspace():
            i += 1
            continue
        if text.startswith("->", i):
            yield ("sym", "->")
            i += 2
            continue
        if c in ";:,{}()[]+-*/":
            yield ("sym", c)
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            yield ("num", text[i:j])
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield ("ident", text[i:j])
            i = j
            continue
        raise ModelSyntaxError(f"unexpected character {c!r}")
    yield ("eof", "")


def _stream(text, pos=0):
    """The tokens that _Tokens reads from pos on, each recorded as the
    lookahead before it is taken, so the token before a bad character is
    kept."""
    tk = _Tokens(text, pos)
    while True:
        yield tk.peek()
        if tk.take()[0] == "eof":
            return


def _tokens_then_error(tokenize, text):
    out = []
    try:
        for tok in tokenize(text):
            out.append(tok)
    except ModelSyntaxError as exc:
        out.append(str(exc))
    return out


# pieces of tokens, every symbol, whitespace (also Unicode's), comments, a
# non-ASCII letter and decimal digit, and characters no token starts with
_TEXT = st.lists(
    st.sampled_from(
        ["0", "12", "3.", "4.5", "1.2.3", ".", "a", "b_2", "p.q", "_", "Zé", "٣", "->"]
        + list(";:,{}()[]+-*/>")
        + [" ", "\t", "\n", "\r", "\u00a0", "\u2028", "#", "# c;"]
        + ["!", "½", "$"]
    ),
    max_size=30,
).map("".join)


@given(_TEXT)
@example("x 3.;p.q ½a 1.2.3")
@example("a#b\n->-> ٣é")
@example("")
@example("x ; # a comment at the end, no newline")
@example("x;" + " \t\n" * 100_000)
def test_tokenize_matches_reference(text):
    assert _tokens_then_error(_stream, text) == _tokens_then_error(_reference_tokenize, text)


def test_non_decimal_digits_are_unexpected_characters():
    # the old tokenizer read '²' as a number, which Fraction then refused
    # with a ValueError; it is now a syntax error like any stray character
    assert list(_reference_tokenize("1²")) == [("num", "1²"), ("eof", "")]
    with pytest.raises(ModelSyntaxError, match="unexpected character '²'"):
        list(_stream("1²"))


@given(_TEXT)
@example("x 3.;p.q ½a 1.2.3")
@example("a#b\n->-> ٣é")
@example("x ; # a comment at the end, no newline")
def test_stream_restarts_at_any_token(text):
    # started where a token's match starts, or where the token itself does,
    # the stream reads the rest of the full stream, up to the same error
    full = _tokens_then_error(_stream, text)
    for i, m in zip(range(len(full)), _TOKEN.finditer(text)):
        for pos in (m.start(), m.start(m.lastgroup)):
            assert _tokens_then_error(lambda t: _stream(t, pos), text) == full[i:]


def test_tokens_stream_with_one_lookahead():
    tk = _Tokens("state s ; ! never read")
    assert tk.take() == ("ident", "state")
    assert tk.peek() == ("ident", "s")
    assert tk.take() == ("ident", "s")  # the lookahead moves onto ';'
    with pytest.raises(ModelSyntaxError, match="unexpected character '!'"):
        tk.take()  # ';', and the lookahead would move onto '!'
    tk = _Tokens("x")
    assert [tk.take() for _ in range(3)] == [("ident", "x"), ("eof", ""), ("eof", "")]


def _pmc_text(M: Pmc) -> str:
    lines = ["pmc"] + [f"param {p.name} in {p.bounds_str()};" for p in M.params.values()]
    lines += [f"state {s} {{{', '.join(sorted(ls))}}};" for s, ls in zip(M.states, M.labels)]
    lines.append(f"init {M.states[M.initial]};")
    lines += [f"trans {M.states[a]} -> {M.states[b]} : {f};" for (a, b), f in M.trans.items()]
    return "\n".join(lines)


@given(st.integers(0, 2**32), st.booleans())
def test_written_models_parse_back(seed, crowds):
    rng = random.Random(seed)
    if crowds:
        M = crowds_like(rng.randint(1, 3), rng.randint(1, 4), 1)
    else:
        M = random_mc(rng, rng.randint(1, 12), max_branching=4)
    N = parse_model(_pmc_text(M))
    assert (N.states, N.labels, N.initial, N.params) == (M.states, M.labels, M.initial, M.params)
    assert list(N.trans) == list(M.trans)
    for key, f in M.trans.items():
        assert (N.trans[key].num.terms, N.trans[key].den.terms) == (f.num.terms, f.den.terms)
        # a shared function is the one its own text parses to alone
        alone = _parse_expr(_Tokens(str(f)), N.params)
        assert (N.trans[key].num.terms, N.trans[key].den.terms) == (alone.num.terms, alone.den.terms)


def _reference_parse_model(text):
    """The token-at-a-time reader that the bulk one replaced."""
    tk = _Tokens(text)
    kind = tk.ident()
    if kind not in ("pmc", "imc"):
        raise ModelSyntaxError(f"model must start with 'pmc' or 'imc', not {kind!r}")

    params: dict[str, Param] = {}
    states: list[str] = []
    idx: dict[str, int] = {}
    labels: list[frozenset[str]] = []
    init_name: str | None = None
    # raw transition statements, processed after all declarations are known;
    # an entry is an expression (pmc) or an interval's ends (imc)
    raw: list[tuple[str, str, RationalFunction | tuple[Fraction, Fraction]]] = []

    while tk.peek()[0] != "eof":
        word = tk.ident()
        if word == "param":
            if kind == "imc":
                raise ModelSyntaxError("imc files do not declare parameters")
            name = tk.ident()
            if name in params:
                raise ModelSyntaxError(f"parameter {name!r} declared twice")
            kw = tk.ident()
            if kw != "in":
                raise ModelSyntaxError(f"expected 'in', found {kw!r}")
            open_b = tk.take()[1]
            if open_b not in ("(", "["):
                raise ModelSyntaxError("expected '(' or '[' for the parameter range")
            lo = _parse_const(tk)
            tk.expect(",")
            hi = _parse_const(tk)
            close_b = tk.take()[1]
            if close_b not in (")", "]"):
                raise ModelSyntaxError("expected ')' or ']' after the parameter range")
            if lo > hi or (lo == hi and (open_b == "(" or close_b == ")")):
                raise ModelSyntaxError(f"empty range for parameter {name!r}")
            params[name] = Param(name, lo, hi, open_b == "(", close_b == ")")
        elif word == "state":
            name = tk.ident()
            if name in idx:
                raise ModelSyntaxError(f"state {name!r} declared twice")
            props: set[str] = set()
            if tk.peek()[1] == "{":
                tk.take()
                if tk.peek()[1] != "}":
                    props.add(tk.ident())
                    while tk.peek()[1] == ",":
                        tk.take()
                        props.add(tk.ident())
                tk.expect("}")
            idx[name] = len(states)
            states.append(name)
            labels.append(frozenset(props))
        elif word == "init":
            if init_name is not None:
                raise ModelSyntaxError("more than one init statement")
            init_name = tk.ident()
        elif word == "trans":
            src = tk.ident()
            tk.expect("->")
            dst = tk.ident()
            tk.expect(":")
            if kind == "imc":
                tk.expect("[")
                lo = _parse_const(tk)
                tk.expect(",")
                hi = _parse_const(tk)
                tk.expect("]")
                raw.append((src, dst, (lo, hi)))
            else:
                raw.append((src, dst, _parse_expr(tk, params)))
        else:
            raise ModelSyntaxError(f"unknown statement {word!r}")
        tk.expect(";")

    if not states:
        raise ModelSyntaxError("no states declared")
    if init_name is None:
        raise ModelSyntaxError("missing init statement")
    if init_name not in idx:
        raise ModelSyntaxError(f"init state {init_name!r} not declared")

    trans: dict[tuple[int, int], RationalFunction] = {}
    lower: dict[tuple[int, int], Fraction] = {}
    upper: dict[tuple[int, int], Fraction] = {}
    given: set[tuple[int, int]] = set()
    # a function is checked at the first transition that holds one equal in structure
    checked: set = set()
    for src, dst, entry in raw:
        if src not in idx or dst not in idx:
            raise ModelSyntaxError(f"transition {src} -> {dst} uses an undeclared state")
        key = (idx[src], idx[dst])
        if key in given:
            raise ModelSyntaxError(f"transition {src} -> {dst} given twice")
        given.add(key)
        if isinstance(entry, tuple):
            lo, hi = entry
            if not (0 <= lo <= hi <= 1):
                raise ModelSyntaxError(
                    f"transition {src} -> {dst} has an invalid interval [{lo}, {hi}]"
                )
            if hi != 0:  # a certainly-zero transition is the same as absent
                lower[key], upper[key] = lo, hi
            continue
        if entry.is_const and (entry.num, entry.den) not in checked:
            checked.add((entry.num, entry.den))
            v = entry.value()
            if v == 0:
                raise ModelSyntaxError(
                    f"transition {src} -> {dst} has probability 0; omit it instead"
                )
            if v < 0 or v > 1:
                raise ModelSyntaxError(
                    f"transition {src} -> {dst} has constant probability {v} outside [0,1]"
                )
        trans[key] = entry

    if kind == "imc":
        return Imc(tuple(states), tuple(labels), idx[init_name], lower, upper)
    pmc = Pmc(tuple(states), tuple(labels), idx[init_name], params, trans)
    _validate_rows(pmc, [f.value() if f.is_const else None for f in pmc.functions])
    return pmc


def _outcome(parse, text):
    """What a reader makes of a text: the model, with the transitions whose
    functions are equal in structure marked by the first key that holds
    one, or the exception's type and message."""
    try:
        M = parse(text)
    except Exception as exc:  # every outcome is compared, whatever it is
        return type(exc), str(exc)
    if isinstance(M, Imc):
        return M.states, M.labels, M.initial, list(M.lower.items()), list(M.upper.items())
    first = {}
    return (
        M.states,
        M.labels,
        M.initial,
        M.params,
        [
            (key, f.num.terms, f.den.terms, first.setdefault((f.num, f.den), key))
            for key, f in M.trans.items()
        ],
    )


# whole statements, a few of them malformed, and pieces of tokens as in _TEXT
_STATEMENTS = [
    "param p in (0, 1);",
    "param q in [0, 1/2];",
    "state x;",
    "state y {a};",
    "state z {a, b};",
    "state x {};",
    "init x;",
    "trans x -> y : p;",
    "trans x -> x : 1 - p;",
    "trans x -> y : 1/2;",
    "trans x -> x : 1/2;",
    "trans x -> x :1/2 ;",
    "trans y -> y : 1;",
    "trans z -> x : (p)/(2);",
    "trans z -> z : 1 - (p)/(2);",
    "trans y -> x : [0, 1];",
    "trans x -> y : [1/2, 1];",
    "trans x -> y : 1/2 # c\n;",
    "state y {a b};",
    "state y {a,};",
    "transx -> y : 1;",
]
_MODEL_TEXT = st.tuples(
    st.sampled_from(["pmc\n", "imc\n", "pmc", "# c\npmc ", ""]),
    st.lists(
        st.sampled_from(
            _STATEMENTS * 3
            + ["0", "1.5", "a", "x", "y", "é", "->", ":", "trans", "state"]
            + list(";:,{}()[]+-*/")
            + [" ", "\t", "\n", "\r\n", "\u00a0", "#", "# c;"]
            + ["!", "½", "$"]
        ),
        max_size=25,
    ),
).map(lambda parts: parts[0] + "".join(parts[1]))


@given(_MODEL_TEXT)
@example("pmc\nstate x;\ninit x;\ntrans x -> x : 1/2;trans x -> x : 1/2;")
@example(
    "pmc\nparam p in (0, 1);\nstate x;\nstate y {a};\ninit x;\ntrans x -> y : p;"
    "trans x -> x : 1 - p;trans y -> y : p;trans y -> x : 1 - p;"
)
@example("imc\nstate x;\ninit x;\ntrans x -> x : [1/2, 1];")
def test_parse_model_matches_reference(text):
    assert _outcome(parse_model, text) == _outcome(_reference_parse_model, text)


def _mutant_bases():
    """Texts of whole models: generated ones, written as _pmc_text does,
    and the bundled models, with their comments and parameter ranges."""
    rng = random.Random(0)
    models = [crowds_like(1, 4, 1), crowds_like(2, 3, 1)]
    models += [random_mc(rng, rng.randint(2, 10), max_branching=4) for _ in range(4)]
    models += [chain_mc(rng, 12) for _ in range(2)]
    texts = [_pmc_text(M) + "\n" for M in models]
    return texts + [path.read_text() for path in sorted(MODELS.iterdir())]


# a changed character is one of these: every symbol, a digit, ASCII and
# non-ASCII letters, whitespace, a comment start and characters no token
# starts with
_MUTANT_CHARS = list(";:,{}()[]+-*/>._#") + ["0", "7", "a", "x", "é", "½", "$", " ", "\n", "\r"]


def test_mutated_models_match_reference():
    # the same model and sharing, or the same error, on models with one line
    # deleted or duplicated, or with one character changed
    bases = _mutant_bases()
    rng = random.Random(20261020)
    for _ in range(300):
        text = rng.choice(bases)
        lines = text.splitlines(keepends=True)
        how = rng.randrange(3)
        if how < 2:
            i = rng.randrange(len(lines))
            lines[i:i + 1] = [] if how == 0 else [lines[i]] * 2
            text = "".join(lines)
        else:
            i = rng.randrange(len(text))
            text = text[:i] + rng.choice(_MUTANT_CHARS) + text[i + 1:]
        assert _outcome(parse_model, text) == _outcome(_reference_parse_model, text), text


_COIN_HEAD = "pmc\nparam p in (0, 1);\nstate s;\nstate t;\ninit s;\n"


@pytest.mark.parametrize(
    "text, outcome",
    [
        # a label list is {} or names separated by single commas
        ("pmc\nstate s {a b};\ninit s;\ntrans s -> s : 1;", "expected '}', found 'b'"),
        ("pmc\nstate s {a,};\ninit s;\ntrans s -> s : 1;", "expected a name, found '}'"),
        ("pmc\nstate s {,a};\ninit s;\ntrans s -> s : 1;", "expected a name, found ','"),
        # a keyword runs into the name after it, also after a body seen before
        ("pmc\nstate x;\nstate y;\ninit x;\ntrans x -> y : 1;\ntransx -> y : 1;", "unknown statement 'transx'"),
        ("pmc\nstatex;\ninit x;\ntrans x -> x : 1;", "unknown statement 'statex'"),
        # a comment inside a statement, before its ';', one with a ';' in it too
        ("pmc\nstate a;\nstate b;\ninit a;\ntrans a -> b : 1 # c\n;\ntrans b -> b : 1;", ("a", "b")),
        ("pmc\nstate a;\nstate b;\ninit a;\ntrans a -> b : 1 # ;\n;\ntrans b -> b : 1 # ;\n;", ("a", "b")),
        # parentheses and unary minus in bodies
        (_COIN_HEAD + "trans s -> t : -(-(p));\ntrans s -> s : 1 - -(-p);\ntrans t -> t : (1);", ("s", "t")),
        (_COIN_HEAD + "trans s -> t : -;", "unexpected token ';' in expression"),
        (_COIN_HEAD + "trans s -> t : (p));", "expected ';', found ')'"),
        ("pmc\nstate état {é};\ninit état;\ntrans état -> état : 1;", ("état",)),
        ("pmc\nstate s;\nstate ½;\ninit s;\ntrans s -> s : 1;", "unexpected character '½'"),
        ("pmc\nstate s;\ninit s;\ntrans s -> ½ : 1;", "unexpected character '½'"),
        ("pmc\nstate s½;\ninit s½;\ntrans s½ -> s½ : 1;", ("s½",)),  # '½' goes on a name
        ("pmc\nstate trans;\ninit trans;\ntrans trans -> trans : 1;", ("trans",)),
        ("pmc\r\nstate s {a, b};\r\ninit s;\r\ntrans s -> s : 1;\r\n", ("s",)),
        ("pmc\nstate s;\ninit s;\ntrans s -> s : 1;", ("s",)),  # no final newline
        ("pmc\nstate s;\ninit s;\ntrans s -> s : 1", "expected ';', found ''"),
        ("pmc\nstate s;\ninit s;\ntrans s -> s : 1;\nstate t", "expected ';', found ''"),
        # a lone ';' is a statement without a name
        ("pmc\nstate s;;\ninit s;\ntrans s -> s : 1;", "expected a name, found ';'"),
        # a state the token stream reads keeps its place between generated ones
        (
            "pmc\nstate a;\nstate s½ {x};\nstate b;\ninit a;\n"
            "trans a -> s½ : 1;\ntrans s½ -> b : 1;\ntrans b -> a : 1;",
            ("a", "s½", "b"),
        ),
        # a statement after a ';' in a comment in a generated body is comment
        (
            "pmc\nstate a;\nstate b;\ninit a;\n"
            "trans a -> b : 1 # ; state c; trans c -> c : 1;\n;\ntrans b -> b : 1;",
            ("a", "b"),
        ),
        ("pmc\nstate s;\ninit s;\ntrans s -> s : 1; # the end", ("s",)),
        ("pmc\nstate s;\ninit s;\n\u00a0trans s -> s : 1;", ("s",)),
    ],
)
def test_statement_pattern_edges(text, outcome):
    # where a statement form must not accept more than the token stream
    result = _outcome(parse_model, text)
    assert result == _outcome(_reference_parse_model, text)
    if isinstance(outcome, str):
        assert result == (ModelSyntaxError, outcome)
    else:
        assert result[0] == outcome


_SMALL = "pmc\nstate s;\ninit s;\ntrans s -> s : 1;"


@pytest.mark.parametrize(
    "tail",
    [" " * 200_000, "\n " * 100_000, "# " + "c" * 199_998],
    ids=["spaces", "newline-space-pairs", "comment-without-newline"],
)
def test_trailing_text_is_read_in_linear_time(tail):
    # the statement pattern matches at the end of the text too, so a long
    # tail is scanned once, not once from each of its characters
    start = time.perf_counter()
    assert _outcome(parse_model, _SMALL + tail) == _outcome(parse_model, _SMALL)
    assert time.perf_counter() - start < 1


_TWO_STATES = "pmc\nparam p in (0, 1);\nstate s;\nstate t;\ninit s;\ntrans t -> s : 1;\n"


@pytest.mark.parametrize(
    "transitions, message",
    [
        (
            ["s -> u : p", "s -> t : p", "s -> t : p", "s -> s : 1 - p"],
            "transition s -> u uses an undeclared state",
        ),
        (
            ["s -> t : p", "s -> t : p", "s -> u : p", "s -> s : 1 - p"],
            "transition s -> t given twice",
        ),
        (
            ["s -> t : 1/2", "s -> t : 1/2", "s -> s : 0"],
            "transition s -> t given twice",
        ),
        (
            ["s -> s : 0", "s -> t : 1/2", "s -> t : 1/2"],
            "transition s -> s has probability 0; omit it instead",
        ),
        (
            ["s -> s : 0", "s -> t : 3/2"],
            "transition s -> s has probability 0; omit it instead",
        ),
        (
            ["s -> t : 3/2", "s -> s : 0"],
            "transition s -> t has constant probability 3/2 outside [0,1]",
        ),
    ],
    ids=[
        "undeclared-before-repeat",
        "repeat-before-undeclared",
        "repeat-before-zero",
        "zero-before-repeat",
        "zero-before-out-of-range",
        "out-of-range-before-zero",
    ],
)
def test_first_transition_fault_in_file_order(transitions, message):
    # the transitions are checked in bulk; of two faults, the one named is
    # the first in the file, as the file-order loop finds it
    text = _TWO_STATES + "".join(f"trans {t};\n" for t in transitions)
    result = _outcome(parse_model, text)
    assert result == (ModelSyntaxError, message)
    assert result == _outcome(_reference_parse_model, text)


def test_workload_sized_models_match_reference():
    # the mutant bases have at most 12 states; these have thousands of
    # transitions and hundreds of distinct bodies
    for M in [
        crowds_like(18, 20, 3),
        chain_mc(random.Random(1), 1100),
        random_mc(random.Random(1), 120),
    ]:
        text = _pmc_text(M)
        assert _outcome(parse_model, text) == _outcome(_reference_parse_model, text)


@pytest.mark.parametrize(
    "numeral", ["0", "1", "1.", "0.25", "007.500", "٣.٥", "9" * 4300 + "." + "1" * 4300]
)
def test_numerals_read_as_fraction_reads_them(numeral):
    # each side of the point may hold up to Python's limit on digits in an int
    assert _parse_expr(_Tokens(numeral), {}).value() == Fraction(numeral)
