import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pmcsynth.modelgen import crowds_like, random_mc
from pmcsynth.pmc import (
    Imc,
    InfeasibleRowError,
    ModelError,
    ModelSyntaxError,
    Param,
    Pmc,
    imc_to_pmc,
    parse_evaluation,
    parse_model,
    well_defined,
    _parse_expr,
    _Tokens,
    _tokenize,
)
from pmcsynth.ratfunc import RF_ONE, RationalFunction

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
        """
    )
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
    assert rep.values[(0, 1)] == Fraction(3, 2)
    assert well_defined(M, {"p": Fraction(0)}).problems == (
        "entry s -> t evaluates to 0 but is in the support",
    )
    with pytest.raises(ModelError, match="misses parameters: p"):
        well_defined(M, {})
    with pytest.raises(ModelError, match="unknown parameter 'q'"):
        well_defined(M, {"p": Fraction(1, 3), "q": Fraction(1)})


def test_well_defined_evaluates_each_function_once(monkeypatch):
    # five rows of p and 1 - p share two parsed functions, the last row a third
    lines = ["pmc", "param p in (0, 1);", *(f"state s{i};" for i in range(6)), "init s0;"]
    for i in range(5):
        lines += [f"trans s{i} -> s{i + 1} : p;", f"trans s{i} -> s{i} : 1 - p;"]
    lines.append("trans s5 -> s5 : 1;")
    M = parse_model("\n".join(lines))
    distinct = {id(f) for f in M.trans.values()}
    calls = []
    evaluate = RationalFunction.evaluate

    def counting(f, assignment):
        calls.append(f)
        return evaluate(f, assignment)

    monkeypatch.setattr(RationalFunction, "evaluate", counting)
    rep = well_defined(M, {"p": Fraction(1, 3)})
    assert rep.ok and len(rep.values) == len(M.trans) == 11
    assert rep.values[(0, 1)] == Fraction(1, 3) and rep.values[(4, 4)] == Fraction(2, 3)
    assert len(calls) <= len(distinct) == 3


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
    assert _tokens_then_error(_tokenize, text) == _tokens_then_error(_reference_tokenize, text)


def test_non_decimal_digits_are_unexpected_characters():
    # the old tokenizer read '²' as a number, which Fraction then refused
    # with a ValueError; it is now a syntax error like any stray character
    assert list(_reference_tokenize("1²")) == [("num", "1²"), ("eof", "")]
    with pytest.raises(ModelSyntaxError, match="unexpected character '²'"):
        list(_tokenize("1²"))


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
