"""Parametric and interval Markov chains, and the model file format.

A PMC stores its rows over one table of distinct rational functions, and
each entry is an index into it: entries equal in structure (numerator and
denominator), however they were spelled or built, share one.  Absent pairs
are zero.  The *support* — which pairs are stored — is part of the model:
an evaluation under which a stored entry vanishes is rejected as
ill-defined, so every admitted evaluation induces a chain with the same
underlying graph.  ``StagedCheck`` holds these rules, and ``well_defined``
is its single stage.  An IMC gives closed probability intervals per
transition and converts to a PMC with one parameter per interval.

``parse_model`` cuts the comments first (``#`` always starts one), so ``;``
ends every statement.  After the header, one ``findall`` of one statement
pattern splits the file into its statements in file order: the two forms
generated models are made of, ``trans A -> B : body;`` and ``state s {p,
q};`` with ASCII names, come as groups, and any other statement as its own
text, which the token stream reads (one regular expression read with one
token of lookahead, which gives every error message).  Each distinct
``trans`` body text is parsed once.  The ``.pmc`` transitions are then
resolved in bulk: one dict of their keys, the chain, and the value of each
constant function.  Only on a fault, and for every ``.imc`` file, one loop
in file order resolves them one by one, so an error names the first faulty
transition.  Every distinct ``.pmc`` row is checked to sum to 1 as a
rational function, and a product past ``ratfunc.TERM_BUDGET`` names its
transition or state.  The chain records that it passed (``Pmc.proven``), so
``StagedCheck`` checks neither the rows nor the constant entries again.
``imc_to_pmc`` rows are range constraints and are not checked that way, and
a chain built in memory is not proven.  Every ``Imc`` checks on
construction that each row admits a distribution.

``lump`` cuts a chain down to the part reachable from its initial state and
merges bisimilar states there, for the labels cut down to a formula's
atomic propositions, comparing each state's sums of entries into blocks
(constants by value, others by structure).  A quotient knows its given
chain, the one it was lumped from (``Pmc.given``), and an evaluation is
checked on that chain; each quotient function is a sum of given functions,
so ``lumped_values`` adds up their checked values.

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
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, pairwise
from types import MappingProxyType
from typing import Iterable, Iterator, Sequence

from .capacity import CapacityError
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


class Pmc:
    """A parametric Markov chain: rows over ``functions``, each distinct
    function once by (numerator, denominator), interned from the {(s, t):
    function} the constructor takes.  Row s is arcs ``offsets[s]`` to
    ``offsets[s + 1]`` of ``targets`` (ascending) and ``entries`` (function
    indices)."""

    def __init__(
        self, states: tuple[str, ...], labels: tuple[frozenset[str], ...], initial: int,
        params: dict[str, Param], trans: Mapping[tuple[int, int], RationalFunction],
    ):
        # the function of the entry before is not hashed again
        index: dict[tuple[Polynomial, Polynomial], int] = {}
        functions: list[RationalFunction] = []
        rows: list[list[tuple[int, int]]] = [[] for _ in states]
        last, i = None, 0
        for (s, t), f in trans.items():
            if f is not last:
                last, i = f, index.setdefault((f.num, f.den), len(index))
                if i == len(functions):
                    functions.append(f)
            rows[s].append((t, i))
        self._set_rows(states, labels, initial, params, tuple(functions), rows)

    @classmethod
    def from_rows(
        cls, states: tuple[str, ...], labels: tuple[frozenset[str], ...], initial: int,
        params: dict[str, Param], functions: tuple[RationalFunction, ...],
        rows: list[list[tuple[int, int]]],
    ) -> Pmc:
        """The chain whose row s is ``rows[s]``, its (successor, index into
        ``functions``) pairs, without interning: ``functions`` must be
        distinct by (numerator, denominator), as the constructor leaves
        them.  The rows are sorted in place."""
        M = cls.__new__(cls)
        M._set_rows(states, labels, initial, params, functions, rows)
        return M

    def _set_rows(
        self, states: tuple[str, ...], labels: tuple[frozenset[str], ...], initial: int,
        params: dict[str, Param], functions: tuple[RationalFunction, ...],
        rows: list[list[tuple[int, int]]],
    ) -> None:
        self.states, self.labels, self.initial, self.params = states, labels, initial, params
        # set by ``lump`` on a quotient: its given chain, and per function
        # index the given chain's indices the function sums
        self.lumped_from: Pmc | None = None
        self.summands: tuple[tuple[int, ...], ...] | None = None
        self.proven = False  # set by ``parse_model``: rows and constants checked
        self.functions = functions
        for row in rows:
            row.sort()  # successors differ, so no index is compared
        arcs = [arc for row in rows for arc in row]
        self.offsets = [0, *accumulate(map(len, rows))]
        self.targets = [t for t, _ in arcs]
        self.entries = [i for _, i in arcs]

    def n_states(self) -> int:
        return len(self.states)

    @property
    def given(self) -> Pmc:
        """The chain this one was lumped from, or itself if it is not a
        quotient: the chain an evaluation is checked on."""
        return self if self.lumped_from is None else self.lumped_from

    def successors(self, s: int) -> list[int]:
        """State s's successors, ascending."""
        return self.targets[self.offsets[s] : self.offsets[s + 1]]

    def row(self, s: int) -> Iterator[tuple[int, int]]:
        """State s's (successor, function index) pairs, by successor."""
        a, b = self.offsets[s], self.offsets[s + 1]
        return zip(self.targets[a:b], self.entries[a:b])

    def succ(self, s: int) -> list[tuple[int, RationalFunction]]:
        """State s's (successor, function) pairs, by successor."""
        return [(t, self.functions[i]) for t, i in self.row(s)]

    @property
    def trans(self) -> Mapping[tuple[int, int], RationalFunction]:
        """The entries {(s, t): function} in row order, read-only; built on each read."""
        fs, targets, entries = self.functions, self.targets, self.entries
        rows = enumerate(pairwise(self.offsets))
        return MappingProxyType(
            {(s, targets[k]): fs[entries[k]] for s, (a, b) in rows for k in range(a, b)}
        )


@dataclass
class Imc:
    states: tuple[str, ...]
    labels: tuple[frozenset[str], ...]
    initial: int
    lower: dict[tuple[int, int], Fraction]
    upper: dict[tuple[int, int], Fraction]

    def __post_init__(self) -> None:
        """Every row must admit a distribution: lower sum <= 1 <= upper sum."""
        rows: list[list[tuple[int, int]]] = [[] for _ in self.states]
        for key in self.upper:
            rows[key[0]].append(key)
        for s, row in enumerate(rows):
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


_COMMENT = re.compile(r"#[^\n]*")

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
# one statement of a text without comments, from where the last one ends:
# the two forms generated models are made of as groups, and any other
# statement as its text through its ';' (a lone ';' too).  Where no ';' is
# left, the last group takes the rest of the text, which is empty at its
# end: the pattern matches at every statement start, so findall never
# retries it a character further on.
_STATEMENT = re.compile(
    rf"\s*(?:trans\s+({_NAME})\s*->\s*({_NAME})\s*:([^;]*);"
    rf"|state\s+({_NAME})\s*(?:\{{\s*({_NAME}(?:\s*,\s*{_NAME})*)?\s*\}})?\s*;"
    rf"|([^;]*(?:;|\Z)))"
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


def _parse_expr(tk: _Tokens, params: Mapping[str, Param]) -> RationalFunction:
    def factor() -> RationalFunction:
        kind, v = tk.take()
        if v == "-":
            return -factor()
        if kind == "num":
            # read as Fraction(v) reads it, without its string pattern: the
            # whole and the decimal part converted apart, each to the limit
            whole, _, part = v.partition(".")
            scale = 10 ** len(part)
            try:
                return RationalFunction.const(Fraction(int(whole) * scale + int(part or 0), scale))
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
    if "#" in text:  # '#' always starts a comment; then ';' ends every statement
        text = _COMMENT.sub("", text)
    tk = _Tokens(text)
    kind = tk.ident()
    if kind not in ("pmc", "imc"):
        raise ModelSyntaxError(f"model must start with 'pmc' or 'imc', not {kind!r}")

    params: dict[str, Param] = {}
    states: list[str] = []
    idx: dict[str, int] = {}
    labels: list[frozenset[str]] = []
    init_name: str | None = None
    # the transitions, resolved after all declarations are known; an entry
    # is an expression (pmc) or an interval's ends (imc)
    srcs: list[str] = []
    dsts: list[str] = []
    entries: list[RationalFunction | tuple[Fraction, Fraction]] = []
    # each entry by its body text, the text between its ':' and its ';',
    # parsed once in either form of statement
    by_text: dict[str, RationalFunction | tuple[Fraction, Fraction]] = {}

    def entry(tail: str, src: str, dst: str) -> RationalFunction | tuple[Fraction, Fraction]:
        """The entry of transition src -> dst, read from the text after its
        ':' through its ';'."""
        tk = _Tokens(tail)
        if kind == "imc":
            tk.expect("[")
            lo = _parse_const(tk)
            tk.expect(",")
            hi = _parse_const(tk)
            tk.expect("]")
            tk.expect(";")
            return lo, hi
        try:
            f = _parse_expr(tk, params)
        except CapacityError as exc:
            raise CapacityError(f"transition {src} -> {dst}: {exc}") from None
        tk.expect(";")
        return f

    for src, dst, body, state, props, chunk in _STATEMENT.findall(text, tk._match.start()):
        if src:
            e = by_text.get(body)
            if e is None:
                e = by_text[body] = entry(body + ";", src, dst)
            srcs.append(src)
            dsts.append(dst)
            entries.append(e)
            continue
        if state:
            if state in idx:
                raise ModelSyntaxError(f"state {state!r} declared twice")
            idx[state] = len(states)
            states.append(state)
            labels.append(frozenset(map(str.strip, props.split(","))) if props else frozenset())
            continue
        if not chunk:  # the end of the text
            break
        # the token stream reads every other statement
        tk = _Tokens(chunk)
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
            labelset: set[str] = set()
            if tk.peek()[1] == "{":
                tk.take()
                if tk.peek()[1] != "}":
                    labelset.add(tk.ident())
                    while tk.peek()[1] == ",":
                        tk.take()
                        labelset.add(tk.ident())
                tk.expect("}")
            idx[name] = len(states)
            states.append(name)
            labels.append(frozenset(labelset))
        elif word == "init":
            if init_name is not None:
                raise ModelSyntaxError("more than one init statement")
            init_name = tk.ident()
        elif word == "trans":
            srcs.append(tk.ident())
            tk.expect("->")
            dsts.append(tk.ident())
            tk.expect(":")
            body, end, _ = chunk[tk._match.start():].partition(";")
            e = by_text.get(body) if end else None
            if e is None:  # entry() fails where the text has no ';'
                e = by_text[body] = entry(body + end, srcs[-1], dsts[-1])
            entries.append(e)
            continue
        else:
            raise ModelSyntaxError(f"unknown statement {word!r}")
        tk.expect(";")

    if not states:
        raise ModelSyntaxError("no states declared")
    if init_name is None:
        raise ModelSyntaxError("missing init statement")
    if init_name not in idx:
        raise ModelSyntaxError(f"init state {init_name!r} not declared")

    if kind == "imc":
        lower, upper = _resolve(srcs, dsts, entries, idx)
        return Imc(tuple(states), tuple(labels), idx[init_name], lower, upper)
    # the transitions in bulk, with the value of each distinct constant
    # function taken once; on a fault, the file-order loop names the first one
    try:
        trans = dict(zip([(idx[a], idx[b]) for a, b in zip(srcs, dsts)], entries))
    except KeyError:  # an undeclared state
        trans = {}
    if len(trans) < len(entries):
        _resolve(srcs, dsts, entries, idx)  # raises
    pmc = Pmc(tuple(states), tuple(labels), idx[init_name], params, trans)
    values = [f.value() if f.is_const else None for f in pmc.functions]
    if not all(0 < v <= 1 for v in values if v is not None):
        _resolve(srcs, dsts, entries, idx)  # raises
    _validate_rows(pmc, values)
    pmc.proven = True
    return pmc


def _resolve(
    srcs: Sequence[str],
    dsts: Sequence[str],
    entries: Sequence[RationalFunction | tuple[Fraction, Fraction]],
    idx: Mapping[str, int],
) -> tuple[dict[tuple[int, int], Fraction], dict[tuple[int, int], Fraction]]:
    """Resolves the transitions in file order and raises at the first that
    uses an undeclared state, repeats a pair or has an invalid entry; the
    lower and upper ends of the intervals that are not certainly zero."""
    lower: dict[tuple[int, int], Fraction] = {}
    upper: dict[tuple[int, int], Fraction] = {}
    given: set[tuple[int, int]] = set()
    for src, dst, entry in zip(srcs, dsts, entries):
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
        v = entry.value() if entry.is_const else None
        if v == 0:
            raise ModelSyntaxError(f"transition {src} -> {dst} has probability 0; omit it instead")
        if v is not None and (v < 0 or v > 1):
            raise ModelSyntaxError(
                f"transition {src} -> {dst} has constant probability {v} outside [0,1]"
            )
    return lower, upper


def _validate_rows(M: Pmc, values: Sequence[Fraction | None]) -> None:
    """Checks that every row sums to 1; ``values`` holds the value of each
    constant function, None for the others."""
    # a row's sum depends only on its function indices, and shared
    # functions make many rows hold the same ones: each is checked once
    passed: set[tuple[int, ...]] = set()
    for s in range(M.n_states()):
        key = tuple(M.entries[M.offsets[s] : M.offsets[s + 1]])
        if not key:
            raise ModelSyntaxError(f"state {M.states[s]} has no outgoing transition")
        if key in passed:
            continue
        # constant rows (most rows of generated models) are summed as
        # integer numerators over the lcm of their denominators
        vs = [values[i] for i in key]
        if all(v is not None for v in vs):
            den = math.lcm(*(v.denominator for v in vs))
            if sum(v.numerator * (den // v.denominator) for v in vs) != den:
                total = sum(vs, Fraction(0))
                raise ModelSyntaxError(
                    f"state {M.states[s]}: constant row sums to {total}, not 1"
                )
        else:
            try:
                total = _row_sum(M.functions, key)
            except CapacityError as exc:
                raise CapacityError(f"state {M.states[s]}: {exc}") from None
            if total != RF_ONE:
                raise ModelSyntaxError(f"state {M.states[s]}: row does not sum to 1")
        passed.add(key)


def _row_sum(functions: Sequence[RationalFunction], indices: Iterable[int]) -> RationalFunction:
    """Sum of the functions at ``indices`` (with repeats), grouped by
    denominator: each distinct index once, times its count.  Numerators over
    one denominator are added term by term in one dict, and constant
    denominators join the group over 1 by scaling their numerators, so a
    row of n entries over one denominator costs no polynomial product."""
    groups: dict[Polynomial, dict[Monomial, Fraction]] = {}
    for i, k in Counter(indices).items():
        f = functions[i]
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

    The states of a block have the same labels in ``ap`` and sums of entries
    equal in value into every block (a sum identically 0 counting as no
    entry), so they give every LTL formula over ``ap`` the same probability
    under every evaluation.  Sums are compared by structure, which is their
    value for constants (1/4 + 3/4 is 1): on a chain of constants the
    partition is the coarsest one and lumping the quotient again returns
    it; with parametric entries it may be finer (p/(1+p) + 1/(1+p) is not 1).

    It is refined by splitters (Paige and Tarjan 1987; Derisavi, Hermanns
    and Sanders 2003).  One search from the initial state files each live
    arc under its target.  A splitter is a block C: each state with entries
    into C gets the number of their sum, and every block splits by them,
    its states that C does not touch (or touches with a sum identically 0)
    staying together.  The touched states leave their block, so a split
    costs what the splitter touches.  Every initial block is queued; a
    split block's pieces are queued, all of them if the block was, else all
    but the largest, whose sums into it are those into the block less those
    into the others.  So a state is in O(log n) splitters, and the
    refinement takes O(m log n) for m live arcs, up to sorting and summing.

    A quotient state is named and labelled by its block's first state (the
    blocks are numbered by it), and its entry into a block is that state's
    sum into it.  The quotient records M's given chain and the given
    chain's indices each of its functions sums.  A sum identically 0 keeps
    its arc: no evaluation makes all its summands positive, so
    ``well_defined`` on M rejects every evaluation that would use it.  A
    sum past ``ratfunc.TERM_BUDGET`` names the state.
    """
    ap = frozenset(ap)
    # per live state, its predecessors with the function index of each
    # entry into it; None for a state the search has not found
    offsets, targets, entries = M.offsets, M.targets, M.entries
    into: list[list[tuple[int, int]] | None] = [None] * M.n_states()
    into[M.initial] = []
    stack = [M.initial]
    while stack:
        s = stack.pop()
        a, b = offsets[s], offsets[s + 1]
        for t, i in zip(targets[a:b], entries[a:b]):
            arcs = into[t]
            if arcs is None:
                arcs = into[t] = []
                stack.append(t)
            arcs.append((s, i))
    live = [s for s, arcs in enumerate(into) if arcs is not None]
    n = len(live)

    # A sum of two or more entries is numbered by its value if constant,
    # else by its structure: M's index of an equal function, else a new
    # number from len(fs) on, with its function and the tuple it sums.
    fs = M.functions
    zero = {i for i, f in enumerate(fs) if f.is_zero}  # the sums identically 0
    number_of: dict[tuple[int, ...], int] = {}  # per sorted tuple of indices
    pairs: list[tuple[int, int] | None] = []  # per function of M, if constant
    by_key: dict[tuple, int] = {}  # by a constant's pair or a function's (num, den)
    made: list[tuple[RationalFunction, tuple[int, ...]]] = []

    def number(mine: list[int], s: int) -> int:  # state s's indices, summed once
        mine.sort()
        key = tuple(mine)
        k = number_of.get(key)
        if k is not None:
            return k
        if not pairs:
            pairs.extend(f.value().as_integer_ratio() if f.is_const else None for f in fs)
            for i, f in enumerate(fs):
                by_key.setdefault(pairs[i] or (f.num, f.den), i)
        f = None
        if all(pairs[i] for i in key):  # constants as pairs of ints
            num, den = 0, 1
            for i in key:
                a, b = pairs[i]
                num, den = num * b + a * den, den * b
            g = math.gcd(num, den)
            kf = num // g, den // g
        else:
            try:
                f = _row_sum(fs, key)
            except CapacityError as exc:
                raise CapacityError(f"lump: state {M.states[s]}: {exc}") from None
            kf = f.value().as_integer_ratio() if f.is_const else (f.num, f.den)
        k = number_of[key] = by_key.setdefault(kf, len(fs) + len(made))
        if k == len(fs) + len(made):
            made.append((f or RationalFunction.const(Fraction(*kf)), key))
        if kf == (0, 1):
            zero.add(k)
        return k

    numbers: dict = {}
    block_of = [0] * M.n_states()
    for s in live:
        block_of[s] = numbers.setdefault(M.labels[s] & ap, len(numbers))
    members: list[set[int]] = [set() for _ in numbers]
    for s in live:
        members[block_of[s]].add(s)
    queue = list(range(len(members)))
    queued = [True] * len(members)
    while queue and len(members) < n:
        c = queue.pop()
        queued[c] = False
        # the function indices of each touched state's entries into c; a
        # state alone in its block stays alone
        indices: dict[int, list[int]] = {}
        for t in members[c]:
            for s, i in into[t]:
                mine = indices.get(s)
                if mine is None:
                    if len(members[block_of[s]]) == 1:
                        continue
                    mine = indices[s] = []
                mine.append(i)
        # each touched state by its block and the number of its sum into
        # c; one whose sum is identically 0 stays with the untouched states
        groups: dict[int, dict[int, list[int]]] = {}
        for s, mine in indices.items():
            k = mine[0] if len(mine) == 1 else number(mine, s)
            if k not in zero:
                groups.setdefault(block_of[s], {}).setdefault(k, []).append(s)
        for b, by_sum in groups.items():
            rest = members[b]
            pieces = sorted(by_sum.values(), key=len)
            if sum(map(len, pieces)) == len(rest):
                # every state was touched: the largest group keeps the number
                if len(pieces) == 1:
                    continue
                pieces.pop()
            new = []
            for piece in pieces:
                rest.difference_update(piece)
                for s in piece:
                    block_of[s] = len(members)
                new.append(len(members))
                members.append(set(piece))
                queued.append(False)
            # a piece of a queued block is queued; of any other block,
            # every piece but the largest, which is the remainder unless
            # the last new piece is larger
            if not queued[b] and len(pieces[-1]) > len(rest):
                new[-1] = b
            for k in new:
                queued[k] = True
            queue += new
    # blocks are numbered by their first state
    numbers = {}
    reps: list[int] = []  # per block, its first state
    for s in live:
        block_of[s] = b = numbers.setdefault(block_of[s], len(numbers))
        if b == len(reps):
            reps.append(s)
    if len(reps) == M.n_states():
        return M

    # Q's rows, its functions numbered as they come; distinct numbers are
    # distinct functions, so Q needs no interning
    rows: list[list[tuple[int, int]]] = []
    order: dict[int, int] = {}  # per number of one of Q's functions, Q's index
    for r in reps:
        into: dict[int, list[int]] = {}
        a, b = offsets[r], offsets[r + 1]
        for t, i in zip(targets[a:b], entries[a:b]):
            into.setdefault(block_of[t], []).append(i)
        rows.append([
            (c, order.setdefault(mine[0] if len(mine) == 1 else number(mine, r), len(order)))
            for c, mine in into.items()
        ])
    Q = Pmc.from_rows(
        tuple(M.states[r] for r in reps),
        tuple(M.labels[r] for r in reps),
        block_of[M.initial],
        M.params,
        tuple(fs[k] if k < len(fs) else made[k - len(fs)][0] for k in order),
        rows,
    )
    Q.lumped_from = M.given
    parts = [(k,) if k < len(fs) else made[k - len(fs)][1] for k in order]
    if M.summands is not None:
        parts = [sum((M.summands[i] for i in key), ()) for key in parts]
    Q.summands = tuple(parts)
    return Q


def lumped_values(Q: Pmc, values: Sequence[Fraction]) -> Sequence[Fraction]:
    """The values of Q's functions given ``values``, those of ``Q.given``'s
    checked by ``StagedCheck``: ``values`` itself, or each quotient
    function's summands added up, which is its value, so nothing is
    evaluated again."""
    if Q.lumped_from is None:
        return values
    return [sum([values[i] for i in key[1:]], values[key[0]]) for key in Q.summands]


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
    # per function index, its value; None where the denominator vanishes
    values: list[Fraction | None]


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


def exact(name: str, value: int | Fraction) -> int | Fraction:
    """A parameter's value, if it is an int or a Fraction; a ModelError
    naming the parameter for anything else.  A float is refused, not
    converted: 0.1 is not 1/10."""
    if not isinstance(value, (int, Fraction)):
        raise ModelError(f"parameter {name!r}: {value!r} is not an int or a Fraction")
    return value


def well_defined(M: Pmc, evaluation: Evaluation) -> WellDefinedReport:
    """Does the total evaluation induce a genuine Markov chain on M's support?

    The evaluation must assign exactly M's parameters, each an int or a
    Fraction (ModelError otherwise).  It is ``StagedCheck`` in a single
    stage, with every violation collected: parameters first, then row by
    row each entry and the row's sum.  On a chain ``parse_model`` proved,
    only what an evaluation can break is checked: the parametric entries,
    and a row's sum only where one of them has no value (see
    ``StagedCheck``).  The report carries the value of every function,
    constant ones included, for the caller to reuse.
    """
    check_evaluation_names(M, evaluation)
    evaluation = {name: Fraction(exact(name, evaluation[name])) for name in M.params}
    values: list[Fraction | None] = [None] * len(M.functions)
    problems = tuple(StagedCheck(M, ()).problems(0, evaluation, values))
    return WellDefinedReport(not problems, problems, values)


class StagedCheck:
    """The rules for an evaluation to make M a Markov chain — each
    parameter's range, the entry rules and the row rule (a row sums to 1) —
    split along an order of M's parameters for a scan that fixes them one
    at a time.  Parameters not in ``order`` count as fixed before the scan:
    stage 0 checks their ranges, stage k > 0 the range of ``order[k - 1]``.
    A function's stage is the position in ``order``, from 1, of the last
    parameter it reads (0 if none), and a row's sum is checked at the
    highest stage of its entries (0 for a row without any).  A point passes
    every stage exactly when it breaks no rule, and a failed stage fails
    every point that shares the prefix, so a scan can skip them all.
    A stage whose parameter is the only entry it adds to a row it completes,
    as the last entry of an interval row is, admits at most one value of
    that parameter (see ``forced``).  Values are kept by function index.

    On a chain ``parse_model`` proved (``Pmc.proven``), the rules no
    evaluation can break are left out.  Stage 0 values its constant
    functions, which lie in (0, 1], and checks none of their entries.  Its
    rows sum to 1 identically, so a row is summed only where an entry of its
    last stage has a vanishing denominator, so that the row's message still
    follows the entries'; one whose entries of that stage have constant
    denominators is never summed and forces no value (its other entries do
    not read the last parameter).  Chains built in memory (``imc_to_pmc``,
    ``modelgen``, ``lump``) are checked by every rule.
    """

    def __init__(self, M: Pmc, order: Sequence[str]):
        position = {name: i for i, name in enumerate(order, 1)}
        self.states = M.states
        self.functions = M.functions
        self.proven = M.proven
        self.params = [[p for p in M.params.values() if p.name not in position]]
        self.params += [[M.params[name]] for name in order]
        # per function, its stage; -1 for a constant of a proven chain
        self.stage_of = stage_of = [
            -1 if self.proven and f.is_const
            else max((position.get(n, 0) for n in f.variables()), default=0)
            for f in M.functions
        ]
        # the functions stage 0 values without checking their entries
        self.valued = [i for i, k in enumerate(stage_of) if k < 0]
        # per stage, in state order: a state, its row's (successor, function
        # index) pairs of the stage, and the function indices of the row's
        # earlier entries if the stage sums the row
        self.rows: list[list[tuple]] = [[] for _ in self.params]
        # per stage, the function indices of the earlier entries of one row
        # that the stage completes with its bare parameter alone
        self.forcing: dict[int, list[int]] = {}
        for s in range(M.n_states()):
            split: dict[int, list[tuple[int, int]]] = {}
            earlier: list[int] | None = []
            for t, i in M.row(s):
                k = stage_of[i]
                if k < 0:
                    earlier.append(i)
                else:
                    split.setdefault(k, []).append((t, i))
            if self.proven and not split:
                continue
            last = max(split, default=0)
            earlier += [i for k, entries in split.items() if k < last for _, i in entries]
            if self.proven and all(M.functions[i].den.is_const for _, i in split[last]):
                earlier = None  # the row's entries always have values
            for k in split.keys() | {last}:
                self.rows[k].append((s, split.get(k, []), earlier if k == last else None))
            if not self.proven and last and len(split[last]) == 1:
                f = M.functions[split[last][0][1]]
                if f.den == P_ONE and f.num == Polynomial.var(order[last - 1]):
                    self.forcing.setdefault(last, earlier)

    def forced(self, stage: int, values: Sequence[Fraction | None]) -> Fraction | None:
        """The one value of ``stage``'s parameter that can pass the stage,
        or None if the stage forces none: 1 minus the earlier entries of a
        row whose last entry is the bare parameter.  Those entries must
        have values, as they do once the earlier stages have passed."""
        earlier = self.forcing.get(stage)
        if earlier is None:
            return None
        return 1 - sum((values[i] for i in earlier), Fraction(0))

    def problems(
        self, stage: int, evaluation: Evaluation, values: list[Fraction | None]
    ) -> Iterator[str]:
        """What breaks the rules of ``stage`` under ``evaluation``: its
        ranges, then row by row its entries and the row's sum if it completes
        the row.  Its functions are evaluated into ``values``, by function
        index, each once; one whose denominator vanishes gets None and adds
        nothing to the sum.  The earlier stages' values must be there.
        Stage 0 also values a proven chain's constant functions."""
        if stage == 0:
            for i in self.valued:
                values[i] = self.functions[i].value()
        for p in self.params[stage]:
            v = evaluation[p.name]
            if not p.admits(v):
                yield f"parameter {p.name} = {v} is outside its range {p.bounds_str()}"
        checked: dict[int, tuple[Fraction | None, str | None]] = {}
        for s, entries, earlier in self.rows[stage]:
            total, defined = Fraction(0), True
            for t, i in entries:
                if i not in checked:
                    checked[i] = _entry(self.functions[i], evaluation)
                    values[i] = checked[i][0]
                v, problem = checked[i]
                if v is None:
                    defined = False
                elif earlier is not None:
                    total += v
                if problem is not None:
                    yield f"entry {self.states[s]} -> {self.states[t]}{problem}"
            if earlier is not None and not (defined and self.proven):
                total = sum((values[i] for i in earlier), total)
                if total != 1:
                    yield f"row {self.states[s]} sums to {total}, not 1"

    def passes(
        self, stage: int, evaluation: Evaluation, values: list[Fraction | None]
    ) -> bool:
        """Does ``evaluation`` break no rule of ``stage`` (see ``problems``)?"""
        return next(self.problems(stage, evaluation, values), None) is None


def imc_to_pmc(I: Imc) -> Pmc:
    """One closed-interval parameter per transition."""
    params: dict[str, Param] = {}
    trans: dict[tuple[int, int], RationalFunction] = {}
    for a, b in sorted(I.upper):
        name = f"p_{I.states[a]}_{I.states[b]}"
        if name in params:
            raise ModelError(f"parameter name collision: {name}")
        params[name] = Param(name, I.lower[(a, b)], I.upper[(a, b)])
        trans[(a, b)] = RationalFunction.var(name)
    return Pmc(I.states, I.labels, I.initial, params, trans)
