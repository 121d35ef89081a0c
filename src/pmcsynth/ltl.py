"""LTL formulas over atomic propositions, and their evaluation on lasso words.

The core connectives are atoms, negation, conjunction, X and U; everything
else (true/false aside, which are first-class constants) is lowered at parse
time:

    F phi        ==  true U phi
    G phi        ==  !(true U !phi)
    phi | psi    ==  !(!phi & !psi)
    phi -> psi   ==  !(phi & !psi)

The tokenizer is one regular expression, as the ``.pmc`` reader's is: each
match is one token with the whitespace before it, and a character that
starts no token is reported with its position.  The parser reads the whole
token list, so such a character is reported before any syntax error.

A lasso word stem . loop^omega is the standard finite presentation of an
ultimately periodic word; ``eval_lasso`` decides phi on it exactly by
computing one truth row per subformula over the stem+loop positions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

Letter = frozenset[str]


class LtlError(Exception):
    """Base class for errors raised by this module."""


class LtlSyntaxError(LtlError):
    pass


# ---------------------------------------------------------------------------
# Syntax
# ---------------------------------------------------------------------------


class LtlFormula:
    """Base class; concrete nodes are frozen dataclasses below."""

    __slots__ = ()

    def __str__(self) -> str:
        return pretty(self)


@dataclass(frozen=True)
class Top(LtlFormula):
    """The constant true."""


@dataclass(frozen=True)
class Atom(LtlFormula):
    name: str


@dataclass(frozen=True)
class Not(LtlFormula):
    arg: LtlFormula


@dataclass(frozen=True)
class And(LtlFormula):
    left: LtlFormula
    right: LtlFormula


@dataclass(frozen=True)
class Next(LtlFormula):
    arg: LtlFormula


@dataclass(frozen=True)
class Until(LtlFormula):
    left: LtlFormula
    right: LtlFormula


TRUE = Top()
FALSE = Not(TRUE)


def lnot(f: LtlFormula) -> LtlFormula:
    return Not(f)


def land(a: LtlFormula, b: LtlFormula) -> LtlFormula:
    return And(a, b)


def lor(a: LtlFormula, b: LtlFormula) -> LtlFormula:
    return Not(And(Not(a), Not(b)))


def implies(a: LtlFormula, b: LtlFormula) -> LtlFormula:
    return Not(And(a, Not(b)))


def eventually(f: LtlFormula) -> LtlFormula:
    return Until(TRUE, f)


def always(f: LtlFormula) -> LtlFormula:
    return Not(Until(TRUE, Not(f)))


def subformulas(formula: LtlFormula) -> list[LtlFormula]:
    """All distinct subformulas in bottom-up order; ``formula`` itself is last."""
    seen: list[LtlFormula] = []
    seen_set: set[LtlFormula] = set()

    def walk(f: LtlFormula) -> None:
        if f in seen_set:
            return
        match f:
            case Not(a) | Next(a):
                walk(a)
            case And(l, r) | Until(l, r):
                walk(l)
                walk(r)
        seen_set.add(f)
        seen.append(f)

    walk(formula)
    return seen


def atomic_props(formula: LtlFormula) -> frozenset[str]:
    return frozenset(f.name for f in subformulas(formula) if isinstance(f, Atom))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_KEYWORDS = {"true", "false", "X", "F", "G", "U"}


def _tokenize(text: str) -> Iterator[tuple[str, str]]:
    for m in re.finditer(
        r"\s*(?:(?P<sym>->|[()!&|])|(?P<word>[^\W\d]\w*)|(?P<eof>\Z)|(?P<bad>.))", text, re.DOTALL
    ):
        kind = m.lastgroup
        v = m[kind]
        # [^\W\d] also admits numeric characters such as '½'; a word starts
        # with a letter or '_'
        if kind == "bad" or (kind == "word" and not (v[0].isalpha() or v[0] == "_")):
            if v == "-":
                raise LtlSyntaxError(f"stray '-' at position {m.start(kind)}")
            raise LtlSyntaxError(f"unexpected character {v[0]!r} at position {m.start(kind)}")
        if kind == "sym":
            yield (v, v)
        elif kind == "word":
            yield ("kw" if v in _KEYWORDS else "ident", v)
        else:
            yield ("eof", "")
            return  # an empty match may follow at the end of the text


class _Parser:
    """Recursive descent; precedence (loosest first): ->, |, &, U, unary."""

    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> None:
        tok = self.take()
        if tok[0] != kind:
            raise LtlSyntaxError(f"expected {kind!r}, found {tok[1]!r}")

    def formula(self) -> LtlFormula:
        left = self.disjunct()
        if self.peek()[0] == "->":
            self.take()
            return implies(left, self.formula())  # right associative
        return left

    def disjunct(self) -> LtlFormula:
        f = self.conjunct()
        while self.peek()[0] == "|":
            self.take()
            f = lor(f, self.conjunct())
        return f

    def conjunct(self) -> LtlFormula:
        f = self.until()
        while self.peek()[0] == "&":
            self.take()
            f = And(f, self.until())
        return f

    def until(self) -> LtlFormula:
        f = self.unary()
        if self.peek() == ("kw", "U"):
            self.take()
            return Until(f, self.until())  # right associative
        return f

    def unary(self) -> LtlFormula:
        kind, word = self.peek()
        if kind == "!":
            self.take()
            return Not(self.unary())
        if kind == "kw" and word in ("X", "F", "G"):
            self.take()
            arg = self.unary()
            if word == "X":
                return Next(arg)
            if word == "F":
                return eventually(arg)
            return always(arg)
        return self.primary()

    def primary(self) -> LtlFormula:
        kind, word = self.take()
        if kind == "ident":
            return Atom(word)
        if kind == "kw" and word == "true":
            return TRUE
        if kind == "kw" and word == "false":
            return FALSE
        if kind == "(":
            f = self.formula()
            self.expect(")")
            return f
        raise LtlSyntaxError(f"unexpected token {word!r}")


def parse_formula(text: str) -> LtlFormula:
    """Parse ``text`` and lower all sugar to the core connectives."""
    parser = _Parser(text)
    f = parser.formula()
    if parser.peek()[0] != "eof":
        raise LtlSyntaxError(f"trailing input after formula: {parser.peek()[1]!r}")
    return f


def pretty(formula: LtlFormula) -> str:
    """Core-syntax rendering; ``parse_formula(pretty(f)) == f``."""

    # precedence levels: 2 = &, 3 = U, 4 = unary, 5 = atom/constant
    def go(f: LtlFormula, level: int) -> str:
        match f:
            case Top():
                return "true"
            case Not(Top()):
                return "false"
            case Atom(name):
                return name
            case Not(a):
                s = "!" + go(a, 4)
                mine = 4
            case Next(a):
                s = "X " + go(a, 4)
                mine = 4
            case Until(l, r):
                s = go(l, 4) + " U " + go(r, 3)
                mine = 3
            case And(l, r):
                s = go(l, 2) + " & " + go(r, 3)
                mine = 2
            case _:
                raise LtlError(f"not an LTL node: {f!r}")
        return "(" + s + ")" if mine < level else s

    return go(formula, 0)


# ---------------------------------------------------------------------------
# Lasso words
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LassoWord:
    """The ultimately periodic word stem[0] .. stem[-1] (loop[0] .. loop[-1])^omega."""

    stem: tuple[Letter, ...]
    loop: tuple[Letter, ...]

    def __post_init__(self) -> None:
        if not self.loop:
            raise LtlError("lasso word needs a nonempty loop")

    def letters(self) -> tuple[Letter, ...]:
        return self.stem + self.loop


def eval_lasso(formula: LtlFormula, word: LassoWord) -> bool:
    """Decide word |= formula exactly.

    One boolean row per subformula over the len(stem)+len(loop) positions,
    computed bottom-up.  X reads through the successor index (the last
    position wraps to the start of the loop).  U on the loop is resolved by
    scanning at most one full period ahead of each loop position — the first
    position where the right argument can hold is reached within one period
    or never — and then by backward induction over the stem.
    """
    letters = word.letters()
    n = len(letters)
    first_loop = len(word.stem)
    loop_len = len(word.loop)
    succ = [i + 1 for i in range(n)]
    succ[n - 1] = first_loop

    rows: dict[LtlFormula, list[bool]] = {}
    for sub in subformulas(formula):
        match sub:
            case Top():
                row = [True] * n
            case Atom(name):
                row = [name in letters[i] for i in range(n)]
            case Not(a):
                ra = rows[a]
                row = [not v for v in ra]
            case And(l, r):
                rl, rr = rows[l], rows[r]
                row = [x and y for x, y in zip(rl, rr)]
            case Next(a):
                ra = rows[a]
                row = [ra[succ[i]] for i in range(n)]
            case Until(l, r):
                rl, rr = rows[l], rows[r]
                row = [False] * n
                for i in range(first_loop, n):
                    pos = i
                    for _ in range(loop_len):
                        if rr[pos]:
                            row[i] = True
                            break
                        if not rl[pos]:
                            break
                        pos = succ[pos]
                for i in range(first_loop - 1, -1, -1):
                    row[i] = rr[i] or (rl[i] and row[i + 1])
            case _:
                raise LtlError(f"not an LTL node: {sub!r}")
        rows[sub] = row
    return rows[formula][0]
