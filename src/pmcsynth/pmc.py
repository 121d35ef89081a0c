"""Parametric and interval Markov chains, and the model file format.

A PMC stores one rational function per transition with nonzero probability;
absent pairs are zero.  The *support* — which pairs are stored — is part of
the model: an evaluation under which a stored entry vanishes is rejected as
ill-defined, so every admitted evaluation induces a chain with the same
underlying graph.  ``StagedCheck`` holds these rules, and ``well_defined`` is
its single stage.  An IMC gives closed probability intervals per transition
and converts to a PMC with one parameter per interval.

``parse_model`` reads a file a statement at a time, keeping no list of its
tokens or statements.  At each statement start one pattern tries the two
forms generated models are made of, ``trans A -> B : body;`` and ``state s
{p, q};`` with ASCII names and no comment.  Anything else is read from where
it starts by the token stream, one regular expression read with one token of
lookahead, which gives every error message in file order.  Each distinct
``trans`` expression is parsed once per file, and its immutable
``RationalFunction`` shared by every transition that has it: a body is
looked up by its text, a new text by its tokens (whatever the spacing and
comments), and only a new token sequence is parsed.  After the declarations,
one loop in file order resolves the transitions of both formats: their state
names, a repeated pair (rejected whatever its expression or interval, a
``[0, 0]`` one too), and the format's own entry checks.  Every ``.pmc`` row
is checked to sum to 1 as a rational function (constant rows as Fractions,
the others by an exact symbolic sum grouped by denominator); a row whose
entries are the same objects as those of a row already checked is not
checked again.  ``imc_to_pmc`` rows are range constraints and are not
checked that way.  Every ``Imc`` checks on construction that each row admits
a distribution.

``lump`` cuts a chain down to the part reachable from its initial state and
merges bisimilar states there, for the labels cut down to a formula's
atomic propositions.  Refinement compares function objects by identity, so
the sharing above is what lets states merge.  A quotient knows its given
chain, the one it was lumped from (``Pmc.given``; a chain that is not a
quotient is its own), and an evaluation is checked on that chain, with its
state names and its entries.  ``lumped_values`` then evaluates the
quotient's entries, each distinct one once; each is a sum of given entries,
so it is exact wherever the check has passed.

File format (line comments with #, statements end with ';'):

    pmc
    param eps in (-1/2, 1/2) ;
    state x { a } ;
    state y ;
    init x ;
    trans x -> y : 1/2 + eps ;

    imc
    state s ;
    trans s -> t : [0.2, 0.7] ;
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .ratfunc import (
    P_ONE,
    RF_ONE,
    RF_ZERO,
    Monomial,
    Polynomial,
    RationalFunction,
    RatFuncError,
    ZeroDenominatorError,
)


class ModelError(Exception):
    pass


class ModelSyntaxError(ModelError):
    pass


class InfeasibleRowError(ModelError):
    """An IMC row admits no probability distribution."""


Evaluation = Mapping[str, Fraction]


@dataclass(frozen=True)
class Param:
    """A parameter with its admitted range, bounded at both ends."""

    name: str
    lower: Fraction
    upper: Fraction
    lower_strict: bool = False
    upper_strict: bool = False

    def admits(self, value: Fraction) -> bool:
        if value < self.lower or (self.lower_strict and value == self.lower):
            return False
        if value > self.upper or (self.upper_strict and value == self.upper):
            return False
        return True

    def bounds_str(self) -> str:
        lo = "(" if self.lower_strict else "["
        hi = ")" if self.upper_strict else "]"
        return f"{lo}{self.lower}, {self.upper}{hi}"


@dataclass
class Pmc:
    states: tuple[str, ...]
    labels: tuple[frozenset[str], ...]
    initial: int
    params: dict[str, Param]
    trans: dict[tuple[int, int], RationalFunction]
    # the chain ``lump`` made this quotient from; None for any other chain
    lumped_from: Pmc | None = None

    def n_states(self) -> int:
        return len(self.states)

    @property
    def given(self) -> Pmc:
        """The chain this one was lumped from, or itself if it is not a
        quotient: the chain an evaluation is checked on."""
        return self if self.lumped_from is None else self.lumped_from

    @cached_property
    def rows(self) -> list[list[tuple[int, RationalFunction]]]:
        """Per state, its (successor, function) pairs sorted by successor."""
        lists: list[list[tuple[int, RationalFunction]]] = [[] for _ in self.states]
        for (a, b), f in sorted(self.trans.items(), key=lambda kv: kv[0]):
            lists[a].append((b, f))
        return lists

    def succ(self, s: int) -> list[tuple[int, RationalFunction]]:
        return self.rows[s]


@dataclass
class Imc:
    states: tuple[str, ...]
    labels: tuple[frozenset[str], ...]
    initial: int
    lower: dict[tuple[int, int], Fraction]
    upper: dict[tuple[int, int], Fraction]

    def __post_init__(self) -> None:
        """Every row must admit a distribution: lower sum <= 1 <= upper sum."""
        for s, row in enumerate(_rows(len(self.states), self.upper)):
            if not row:
                raise ModelSyntaxError(f"state {self.states[s]} has no outgoing transition")
            lo_sum = sum((self.lower[k] for k in row), Fraction(0))
            hi_sum = sum((self.upper[k] for k in row), Fraction(0))
            if lo_sum > 1 or hi_sum < 1:
                raise InfeasibleRowError(
                    f"state {self.states[s]}: interval row admits no distribution "
                    f"(lower sum {lo_sum}, upper sum {hi_sum})"
                )

    def n_states(self) -> int:
        return len(self.states)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"(?:\s|#[^\n]*)*"  # whitespace and comments before the token
    r"(?:(?P<sym>->|[;:,{}()\[\]+\-*/])"
    r"|(?P<num>\d+(?:\.\d*)?)"
    r"|(?P<ident>[^\W\d]\w*)"
    r"|(?P<eof>\Z)"
    r"|(?P<bad>.))",
    re.DOTALL,
)


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_STATEMENT = re.compile(
    rf"\s*(?:trans\s+({_NAME})\s*->\s*({_NAME})\s*:([^;#]*);"
    rf"|state\s+({_NAME})\s*(?:\{{\s*({_NAME}(?:\s*,\s*{_NAME})*)?\s*\}})?\s*;)"
)


class _Tokens:
    """The tokens of a text from offset ``pos`` on, with one token of
    lookahead; at the end, every further take() returns eof again.  A
    character that starts no token is raised when the lookahead reaches it."""

    def __init__(self, text: str, pos: int = 0):
        self._matches = _TOKEN.finditer(text, pos)
        self._next = ("", "")
        self.take()  # moves the lookahead onto the first token

    def peek(self) -> tuple[str, str]:
        return self._next

    def take(self) -> tuple[str, str]:
        t = self._next
        if t[0] != "eof":  # an empty match may follow at the end of the text
            m = self._match = next(self._matches)
            kind = m.lastgroup
            v = m[kind]
            # [^\W\d] also admits numeric characters such as '½'; a name
            # starts with a letter or '_'
            if kind == "bad" or (kind == "ident" and not (v[0].isalpha() or v[0] == "_")):
                raise ModelSyntaxError(f"unexpected character {v[0]!r}")
            self._next = (kind, v)
        return t

    def expect(self, value: str) -> None:
        kind, v = self.take()
        if v != value or kind == "eof":
            raise ModelSyntaxError(f"expected {value!r}, found {short_repr(v)}")

    def ident(self) -> str:
        kind, v = self.take()
        if kind != "ident":
            raise ModelSyntaxError(f"expected a name, found {short_repr(v)}")
        return v

    def take_statement(self) -> tuple[int, tuple[tuple[str, str], ...] | None]:
        """The offset where the lookahead starts, and the tokens from it up
        to the next ';' or eof, which becomes the lookahead.  None in place
        of the tokens if a character that starts no token comes first: the
        stream is then spent, and one restarted at the offset meets the
        error where a parser reaches it.  The loop is take()'s, inlined:
        most tokens of a generated model are in trans bodies."""
        m, t, toks = self._match, self._next, []
        start = m.start()
        while t[1] != ";" and t[0] != "eof":
            toks.append(t)
            m = next(self._matches)
            kind = m.lastgroup
            v = m[kind]
            if kind == "bad" or (kind == "ident" and not (v[0].isalpha() or v[0] == "_")):
                return start, None
            t = (kind, v)
        self._match, self._next = m, t
        return start, tuple(toks)


def _parse_expr(tk: _Tokens, params: Mapping[str, Param]) -> RationalFunction:
    def factor() -> RationalFunction:
        kind, v = tk.take()
        if v == "-":
            return -factor()
        if kind == "num":
            try:
                return RationalFunction.const(Fraction(v))
            except ValueError:  # past Python's limit on digits in an int
                digits = len(v) - v.count(".")
                raise ModelSyntaxError(f"numeral of {digits} digits is too long") from None
        if kind == "ident":
            if v not in params:
                raise ModelSyntaxError(f"unknown parameter {v!r}")
            return RationalFunction.var(v)
        if v == "(":
            e = expr()
            tk.expect(")")
            return e
        raise ModelSyntaxError(f"unexpected token {short_repr(v)} in expression")

    def term() -> RationalFunction:
        e = factor()
        while tk.peek()[1] in ("*", "/"):
            op = tk.take()[1]
            rhs = factor()
            try:
                e = e * rhs if op == "*" else e / rhs
            except ZeroDenominatorError as exc:
                raise ModelSyntaxError(str(exc)) from None
        return e

    def expr() -> RationalFunction:
        e = term()
        while tk.peek()[1] in ("+", "-") and tk.peek()[0] == "sym":
            op = tk.take()[1]
            rhs = term()
            e = e + rhs if op == "+" else e - rhs
        return e

    return expr()


def _parse_const(tk: _Tokens) -> Fraction:
    f = _parse_expr(tk, {})
    try:
        return f.value()
    except RatFuncError:
        raise ModelSyntaxError("expected a constant") from None


def parse_model(text: str) -> Pmc | Imc:
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
    # each distinct expression, by its tokens, parsed once and shared
    shared: dict[tuple[tuple[str, str], ...], RationalFunction] = {}
    by_text: dict[str, RationalFunction] = {}  # the same by body text, for _STATEMENT

    pos = tk._match.start()  # where the lookahead starts, after the last token
    while True:
        m = _STATEMENT.match(text, pos)
        src, dst, expr, state, props = m.groups() if m else (None,) * 5
        if state is not None and state not in idx:
            idx[state] = len(states)
            states.append(state)
            labels.append(frozenset(map(str.strip, props.split(","))) if props else frozenset())
            pos = m.end()
            continue
        if expr in by_text:
            raw.append((src, dst, by_text[expr]))
            pos = m.end()
            continue
        # the token stream reads the rest, a repeated state and a new body
        tk = _Tokens(text, pos)
        if tk.peek()[0] == "eof":
            break
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
                start, body = tk.take_statement()
                f = shared.get(body)
                # a new body is read from where it starts; one with a bad
                # character (None) raises on the way
                if f is None:
                    tk = _Tokens(text, start)
                    f = shared[body] = _parse_expr(tk, params)
                raw.append((src, dst, f))
                if expr is not None:
                    by_text[expr] = f
        else:
            raise ModelSyntaxError(f"unknown statement {word!r}")
        tk.expect(";")
        pos = tk._match.start()

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
    # a shared function is checked at the first transition that holds it
    checked: set[int] = set()
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
        if id(entry) not in checked:
            checked.add(id(entry))
            v = entry.value() if entry.is_const else None
            if v == 0:
                raise ModelSyntaxError(
                    f"transition {src} -> {dst} has probability 0; omit it instead"
                )
            if v is not None and (v < 0 or v > 1):
                raise ModelSyntaxError(
                    f"transition {src} -> {dst} has constant probability {v} outside [0,1]"
                )
        trans[key] = entry

    if kind == "imc":
        return Imc(tuple(states), tuple(labels), idx[init_name], lower, upper)
    pmc = Pmc(tuple(states), tuple(labels), idx[init_name], params, trans)
    _validate_rows(pmc)
    return pmc


def _rows(n: int, keys: Iterable[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """The transition keys grouped by source state, each row sorted."""
    rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for key in sorted(keys):
        rows[key[0]].append(key)
    return rows


def _validate_rows(M: Pmc) -> None:
    # a row's sum depends only on its entries, and shared functions make
    # many rows hold the same ones: each distinct row is checked once
    passed: set[tuple[int, ...]] = set()
    for s in range(M.n_states()):
        row = M.succ(s)
        if not row:
            raise ModelSyntaxError(f"state {M.states[s]} has no outgoing transition")
        key = tuple(id(f) for _, f in row)
        if key in passed:
            continue
        # constant rows (most rows of generated models) are summed as
        # integer numerators over the lcm of their denominators, and the
        # Fraction sum is built only for the message: check-mix's set-up
        # models are checked a fifth faster than with Fraction sums,
        # and three times faster than through _row_sum
        if all(f.is_const for _, f in row):
            values = [f.value() for _, f in row]
            den = math.lcm(*(v.denominator for v in values))
            if sum(v.numerator * (den // v.denominator) for v in values) != den:
                total = sum(values, Fraction(0))
                raise ModelSyntaxError(
                    f"state {M.states[s]}: constant row sums to {total}, not 1"
                )
        elif _row_sum(f for _, f in row) != RF_ONE:
            raise ModelSyntaxError(f"state {M.states[s]}: row does not sum to 1")
        passed.add(key)


def _row_sum(fs: Iterable[RationalFunction]) -> RationalFunction:
    """Sum of the entries, grouped by denominator.

    Each distinct object is taken once, times the number of entries that
    hold it.  Numerators over one denominator are added term by term in one
    dict, and constant denominators join the group over 1 by scaling their
    numerators, so a row of n entries over one denominator costs no
    polynomial product.
    """
    counts: dict[int, list] = {}
    for f in fs:
        counts.setdefault(id(f), [f, 0])[1] += 1
    groups: dict[Polynomial, dict[Monomial, Fraction]] = {}
    for f, k in counts.values():
        num, den = f.num, f.den
        scale = Fraction(k)
        if den.is_const:
            scale, den = scale / den.const_value(), P_ONE
        acc = groups.setdefault(den, {})
        for m, c in num.terms:
            acc[m] = acc.get(m, 0) + scale * c
    total = RF_ZERO
    for den, acc in groups.items():
        total = total + RationalFunction.make(Polynomial._from_dict(acc), den)
    return total


# ---------------------------------------------------------------------------
# Lumping
# ---------------------------------------------------------------------------


def lump(M: Pmc, ap: Iterable[str]) -> Pmc:
    """The quotient of the part of M reachable from its initial state by a
    probabilistic bisimulation on the labels cut down to ``ap``; M itself if
    every state is reachable and no two merge.

    The partition starts from ``label & ap`` and is refined until it is
    stable.  A state's signature is its block and the sorted multiset of
    (successor block, ``id`` of the entry's function object); equal
    multisets give equal sums into every block, so the result is a
    bisimulation, though it may be finer than the coarsest one.  Bisimilar
    states give every LTL formula over ``ap`` the same probability under
    every evaluation, and the states that the initial one cannot reach give
    it none.

    A quotient state is named and labelled by its block's first state in
    state order, and its entry into a block is the sum of that state's
    entries into the block.  A block pair of one entry keeps its function
    object, and one object is built per distinct tuple of summed objects,
    so the quotient's function objects are shared as M's are.  A sum that
    is identically 0 keeps its arc: no evaluation makes all its summands
    positive, so ``well_defined`` on M rejects every evaluation that would
    use it.  The quotient records M's given chain (M itself unless M is a
    quotient), so a given chain is never itself a quotient.
    """
    ap = frozenset(ap)
    seen = {M.initial}
    stack = [M.initial]
    while stack:
        for t, _ in M.rows[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    live = sorted(seen)
    n = len(live)
    # the refinement reads positions in ``live``, and function objects by id
    at = {s: k for k, s in enumerate(live)}
    rows = [[(at[t], id(f)) for t, f in M.rows[s]] for s in live]
    # blocks are numbered by their first state, so a stable partition
    # keeps its numbers
    numbers: dict = {}
    block = [numbers.setdefault(M.labels[s] & ap, len(numbers)) for s in live]
    count = len(numbers)
    while count < n:
        # a state alone in its block stays alone: its block is its key
        size = Counter(block)
        numbers = {}
        block = [
            numbers.setdefault(
                (b, *sorted([(block[t], i) for t, i in rows[k]])) if size[b] > 1 else b,
                len(numbers),
            )
            for k, b in enumerate(block)
        ]
        if len(numbers) == count:
            break
        count = len(numbers)
    if count == M.n_states():
        return M

    reps: list[int] = []  # per block, its first state
    for k, b in enumerate(block):
        if b == len(reps):
            reps.append(live[k])
    trans: dict[tuple[int, int], RationalFunction] = {}
    shared: dict[tuple[int, ...], RationalFunction] = {}
    for b, r in enumerate(reps):
        into: dict[int, list[RationalFunction]] = {}
        for t, f in M.rows[r]:
            into.setdefault(block[at[t]], []).append(f)
        for c, fs in into.items():
            if len(fs) == 1:
                trans[b, c] = fs[0]
                continue
            key = tuple(sorted(map(id, fs)))
            if key not in shared:
                shared[key] = _row_sum(fs)
            trans[b, c] = shared[key]
    return Pmc(
        tuple(M.states[r] for r in reps),
        tuple(M.labels[r] for r in reps),
        block[at[M.initial]],
        M.params,
        trans,
        M.given,
    )


def lumped_values(
    Q: Pmc, values: Mapping[tuple[int, int], Fraction], evaluation: Evaluation
) -> Mapping[tuple[int, int], Fraction]:
    """Q's entries under a total evaluation, {(b, c): value}, given
    ``values``, the entries of ``Q.given`` evaluated and checked by
    ``StagedCheck``: ``values`` itself if Q is its own given chain, and
    otherwise each distinct entry of Q evaluated once (see ``lump``)."""
    if Q.lumped_from is None:
        return values
    evaluation = {name: Fraction(v) for name, v in evaluation.items()}
    value_of: dict[int, Fraction] = {}
    for f in Q.trans.values():
        if id(f) not in value_of:
            value_of[id(f)] = f.evaluate(evaluation)
    return {key: value_of[id(f)] for key, f in Q.trans.items()}


# The number forms of evaluations and query bounds.  Fraction accepts more,
# exponents among them, and builds 10**N for "1e-N" before anything could
# check the size: "1e-999999999" would need a 415 MB integer.
_NUMBER = re.compile(r"[+-]?[0-9]+(?:\.[0-9]+|/[0-9]+)?")


def parse_number(text: str) -> Fraction:
    """An optionally signed integer, decimal or quotient of integers ('3',
    '-0.3', '1/10') as a Fraction; ValueError for any other text, for a zero
    denominator and for a numeral past Python's limit on digits in an int."""
    if not _NUMBER.fullmatch(text):
        raise ValueError("expected an integer, a decimal such as 0.3 or a quotient such as 1/10")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator") from None
    except ValueError:
        digits = max(map(len, text.lstrip("+-").replace(".", "").split("/")))
        raise ValueError(f"numeral of {digits} digits is too long") from None


def short_repr(text: str) -> str:
    """``repr(text)`` with the middle of a text over 40 characters cut to
    '...', for a message quoting a typed numeral of any length."""
    return repr(text if len(text) <= 40 else f"{text[:15]}...{text[-15:]}")


def parse_evaluation(text: str) -> dict[str, Fraction]:
    """Parse 'eps=1/10,p=0.3' into an evaluation."""
    out: dict[str, Fraction] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, eq, value = chunk.partition("=")
        if not eq:
            raise ModelError(f"expected name=value, found {short_repr(chunk)}")
        name = name.strip()
        if name in out:
            raise ModelError(f"parameter {name!r} assigned twice")
        value = value.strip()
        try:
            out[name] = parse_number(value)
        except ValueError as exc:
            raise ModelError(f"bad value {short_repr(value)} for {name!r}: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# Semantics helpers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WellDefinedReport:
    ok: bool
    problems: tuple[str, ...]
    # every entry that evaluated without a vanishing denominator
    values: dict[tuple[int, int], Fraction]


def check_evaluation_names(M: Pmc, evaluation: Evaluation) -> None:
    """The evaluation must assign exactly M's parameters (ModelError otherwise)."""
    for name in evaluation:
        if name not in M.params:
            raise ModelError(f"unknown parameter {name!r}")
    missing = [p for p in M.params if p not in evaluation]
    if missing:
        raise ModelError(f"evaluation misses parameters: {', '.join(missing)}")


def _entry(f: RationalFunction, evaluation: Evaluation) -> tuple[Fraction | None, str | None]:
    """The entry rules: a support entry's value under the evaluation (None
    when its denominator vanishes), and what is wrong with it — a vanishing
    denominator, 0 in the support, a value outside [0, 1] — or None."""
    try:
        v = f.evaluate(evaluation)
    except ZeroDenominatorError:
        return None, ": denominator vanishes"
    if v == 0:
        return v, " evaluates to 0 but is in the support"
    if v < 0 or v > 1:
        return v, f" evaluates to {v}, outside [0,1]"
    return v, None


def well_defined(M: Pmc, evaluation: Evaluation) -> WellDefinedReport:
    """Does the total evaluation induce a genuine Markov chain on M's support?

    The evaluation must assign exactly M's parameters (ModelError otherwise).
    It is ``StagedCheck`` in a single stage, with every violation collected:
    parameters first, then row by row each entry and the row's sum.  The
    report carries the evaluated entries for the caller to reuse.
    """
    check_evaluation_names(M, evaluation)
    evaluation = {name: Fraction(evaluation[name]) for name in M.params}
    values: dict[tuple[int, int], Fraction] = {}
    problems = tuple(StagedCheck(M, ()).problems(0, evaluation, values))
    return WellDefinedReport(not problems, problems, values)


class StagedCheck:
    """The rules for an evaluation to make M a Markov chain — each
    parameter's range, the entry rules and the row rule (a row sums to 1) —
    split along an order of M's parameters for a scan that fixes them one
    at a time.  Parameters not in ``order`` count as fixed before the scan:
    stage 0 checks their ranges, stage k > 0 the range of ``order[k - 1]``.
    An entry's stage is the position in ``order``, from 1, of the last
    parameter it reads (0 if none), and a row's sum is checked at the
    highest stage of its entries (0 for a row without any).  A point passes
    every stage exactly when it breaks no rule, and a failed stage fails
    every point that shares the prefix, so a scan can skip them all.
    A stage whose parameter is the only entry it adds to a row it completes,
    as the last entry of an interval row is, admits at most one value of
    that parameter (see ``forced``).
    """

    def __init__(self, M: Pmc, order: Sequence[str]):
        position = {name: i for i, name in enumerate(order, 1)}
        self.states = M.states
        self.params = [[p for p in M.params.values() if p.name not in position]]
        self.params += [[M.params[name]] for name in order]
        # per stage, in state order: a state, its row's entries of the stage,
        # and the keys of the row's earlier entries if the stage completes it
        self.rows: list[list[tuple]] = [[] for _ in self.params]
        # per stage, the keys of the earlier entries of one row that the
        # stage completes with its bare parameter alone
        self.forcing: dict[int, list[tuple[int, int]]] = {}
        stage_of: dict[int, int] = {}
        for s in range(M.n_states()):
            split: dict[int, list[tuple[int, RationalFunction]]] = {}
            for t, f in M.succ(s):
                if id(f) not in stage_of:
                    stage_of[id(f)] = max((position.get(n, 0) for n in f.variables()), default=0)
                split.setdefault(stage_of[id(f)], []).append((t, f))
            last = max(split, default=0)
            earlier = [(s, t) for k, entries in split.items() if k < last for t, _ in entries]
            for k in split.keys() | {last}:
                self.rows[k].append((s, split.get(k, []), earlier if k == last else None))
            if last and len(split[last]) == 1:
                f = split[last][0][1]
                if f.den == P_ONE and f.num == Polynomial.var(order[last - 1]):
                    self.forcing.setdefault(last, earlier)

    def forced(self, stage: int, values: dict[tuple[int, int], Fraction]) -> Fraction | None:
        """The one value of ``stage``'s parameter that can pass the stage,
        or None if the stage forces none: 1 minus the earlier entries of a
        row whose last entry is the bare parameter.  Those entries must be
        in ``values``, as they are once the earlier stages have passed."""
        earlier = self.forcing.get(stage)
        if earlier is None:
            return None
        return 1 - sum((values[key] for key in earlier), Fraction(0))

    def problems(
        self, stage: int, evaluation: Evaluation, values: dict[tuple[int, int], Fraction]
    ) -> Iterator[str]:
        """What breaks the rules of ``stage`` under ``evaluation``: its
        ranges, then row by row its entries and the row's sum if it completes
        the row.  Its entries are evaluated into ``values``, each function
        object once, except one whose denominator vanishes, which adds
        nothing to the sum; the earlier stages' entries must be there."""
        for p in self.params[stage]:
            v = evaluation[p.name]
            if not p.admits(v):
                yield f"parameter {p.name} = {v} is outside its range {p.bounds_str()}"
        checked: dict[int, tuple[Fraction | None, str | None]] = {}
        for s, entries, earlier in self.rows[stage]:
            total = Fraction(0)
            for t, f in entries:
                if id(f) not in checked:
                    checked[id(f)] = _entry(f, evaluation)
                v, problem = checked[id(f)]
                if v is not None:
                    values[s, t] = v
                    if earlier is not None:
                        total += v
                if problem is not None:
                    yield f"entry {self.states[s]} -> {self.states[t]}{problem}"
            if earlier is not None:
                total = sum((values[key] for key in earlier), total)
                if total != 1:
                    yield f"row {self.states[s]} sums to {total}, not 1"

    def passes(
        self, stage: int, evaluation: Evaluation, values: dict[tuple[int, int], Fraction]
    ) -> bool:
        """Does ``evaluation`` break no rule of ``stage`` (see ``problems``)?"""
        return next(self.problems(stage, evaluation, values), None) is None


def imc_to_pmc(I: Imc) -> Pmc:
    """One closed-interval parameter per transition."""
    params: dict[str, Param] = {}
    trans: dict[tuple[int, int], RationalFunction] = {}
    for row in _rows(I.n_states(), I.upper):
        for (a, b) in row:
            name = f"p_{I.states[a]}_{I.states[b]}"
            if name in params:
                raise ModelError(f"parameter name collision: {name}")
            params[name] = Param(name, I.lower[(a, b)], I.upper[(a, b)])
            trans[(a, b)] = RationalFunction.var(name)
    return Pmc(I.states, I.labels, I.initial, params, trans)
