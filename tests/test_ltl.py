import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from random_inputs import random_formula, random_lasso
from pmcsynth.ltl import (
    FALSE,
    TRUE,
    And,
    Atom,
    LassoWord,
    LtlError,
    LtlSyntaxError,
    Next,
    Not,
    Top,
    Until,
    _KEYWORDS,
    _tokenize,
    atomic_props,
    eval_lasso,
    parse_formula,
    pretty,
    subformulas,
)


def test_parse_atoms_and_constants():
    assert parse_formula("a") == Atom("a")
    assert parse_formula("true") == TRUE
    assert parse_formula("false") == FALSE
    assert parse_formula("( a )") == Atom("a")


def test_derived_operators_lower_to_core():
    a, b = Atom("a"), Atom("b")
    assert parse_formula("F a") == Until(TRUE, a)
    assert parse_formula("G a") == Not(Until(TRUE, Not(a)))
    assert parse_formula("a | b") == Not(And(Not(a), Not(b)))
    assert parse_formula("a -> b") == Not(And(a, Not(b)))
    assert parse_formula("X a") == Next(a)


def test_precedence():
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    # unary binds tighter than U, U tighter than &, -> is weakest
    assert parse_formula("F a & b") == And(Until(TRUE, a), b)
    assert parse_formula("a & b U c") == And(a, Until(b, c))
    assert parse_formula("! a U b") == Until(Not(a), b)
    # U and -> associate to the right
    assert parse_formula("a U b U c") == Until(a, Until(b, c))
    assert parse_formula("a -> b -> c") == parse_formula("a -> (b -> c)")


def test_parse_errors():
    for text in ("", "a &", "(a", "a b", "U a", "a ->", "G", "a !"):
        with pytest.raises(LtlSyntaxError):
            parse_formula(text)


def _reference_tokenize(text):
    """The character-by-character tokenizer that the regex one replaced."""
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()!&|":
            yield (c, c)
            i += 1
            continue
        if c == "-":
            if text.startswith("->", i):
                yield ("->", "->")
                i += 2
                continue
            raise LtlSyntaxError(f"stray '-' at position {i}")
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            yield ("kw" if word in _KEYWORDS else "ident", word)
            i = j
            continue
        raise LtlSyntaxError(f"unexpected character {c!r} at position {i}")
    yield ("eof", "")


def _tokens_then_error(tokenize, text):
    out = []
    try:
        for tok in tokenize(text):
            out.append(tok)
    except LtlSyntaxError as exc:
        out.append(str(exc))
    return out


# pieces of tokens, every symbol and keyword, whitespace (also Unicode's), a
# lone '-', non-ASCII letters, digits and numeric characters, and characters
# no token starts with
_TEXT = st.lists(
    st.sampled_from(
        ["a", "b_2", "_", "Zé", "a²", "true", "false", "X", "F", "G", "U", "Xa", "0", "٣", "½"]
        + ["->", "-", ">"]
        + list("()!&|")
        + [" ", "\t", "\n", "\r", "\u00a0", "\u2028"]
        + ["$", "#", ";", '"']
    ),
    max_size=30,
).map("".join)


@given(_TEXT)
@example("a -")
@example("->->")
@example("½a")
@example("a²")
@example("٣")
@example("a\u00a0& b")
@example('(echo "abc')
@example("a ; a comment at the end, no newline")
@example("a" + " " * 100_000)
@example("")
def test_tokenize_matches_reference(text):
    assert _tokens_then_error(_tokenize, text) == _tokens_then_error(_reference_tokenize, text)


def test_bad_character_is_reported_before_a_syntax_error():
    # the parser reads the whole token list before it parses
    with pytest.raises(LtlSyntaxError, match="unexpected character '\\$' at position 4"):
        parse_formula("a a $")


def test_atomic_props():
    assert atomic_props(parse_formula("a U (X b & ! c)")) == {"a", "b", "c"}
    assert atomic_props(TRUE) == frozenset()
    assert atomic_props(parse_formula("G F a")) == {"a"}


def test_subformulas_bottom_up():
    f = parse_formula("a U X b")
    subs = subformulas(f)
    assert subs[-1] == f
    assert subs.index(Atom("b")) < subs.index(Next(Atom("b")))
    assert len(subs) == len(set(subs))


def test_pretty_round_trips():
    rng = random.Random(5)
    for _ in range(300):
        f = random_formula(rng)
        assert parse_formula(pretty(f)) == f


def test_lasso_word_basics():
    w = LassoWord((frozenset({"a"}),), (frozenset(), frozenset({"b"})))
    assert w.letters() == (frozenset({"a"}), frozenset(), frozenset({"b"}))
    with pytest.raises(LtlError):
        LassoWord((), ())


A = frozenset({"a"})
B = frozenset({"b"})
E = frozenset()


def test_eval_lasso_hand_cases():
    Ga = parse_formula("G a")
    assert eval_lasso(Ga, LassoWord((), (A,)))
    assert not eval_lasso(Ga, LassoWord((A,), (E,)))

    Fa = parse_formula("F a")
    assert eval_lasso(Fa, LassoWord((E, E), (A, E)))
    assert eval_lasso(Fa, LassoWord((A,), (E,)))  # satisfied in the stem only
    assert not eval_lasso(Fa, LassoWord((B,), (E,)))

    assert eval_lasso(parse_formula("X b"), LassoWord((A,), (B,)))
    assert not eval_lasso(parse_formula("X b"), LassoWord((B,), (A,)))

    aUb = parse_formula("a U b")
    assert eval_lasso(aUb, LassoWord((A, A), (B,)))
    assert not eval_lasso(aUb, LassoWord((A, E), (B,)))  # a breaks before b

    # GF a: a must recur in the loop, the stem does not matter
    GFa = parse_formula("G F a")
    assert eval_lasso(GFa, LassoWord((E, E, E), (E, A)))
    assert not eval_lasso(GFa, LassoWord((A, A), (E,)))

    FGa = parse_formula("F G a")
    assert eval_lasso(FGa, LassoWord((E,), (A, A)))
    assert not eval_lasso(FGa, LassoWord((A,), (A, E)))


def test_eval_lasso_unroll_invariance():
    # stem.loop^w and (stem+loop).loop^w are the same word
    rng = random.Random(11)
    for _ in range(200):
        f = random_formula(rng)
        w = random_lasso(rng)
        assert eval_lasso(f, w) == eval_lasso(f, LassoWord(w.stem + w.loop, w.loop))


@given(st.integers(0, 3), st.data())
def test_eval_lasso_negation(stem_len, data):
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    f = random_formula(rng)
    w = random_lasso(rng, max_stem=stem_len)
    assert eval_lasso(Not(f), w) == (not eval_lasso(f, w))


def test_pretty_constants():
    assert pretty(TRUE) == "true"
    assert pretty(Not(TRUE)) == "false"
    assert parse_formula(pretty(Not(Top()))) == FALSE
