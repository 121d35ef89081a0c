"""Parametric and interval Markov chains, and the model file format.

A PMC stores one rational function per transition with nonzero probability;
absent pairs are zero.  The *support* — which pairs are stored — is part of
the model: an evaluation under which a stored entry vanishes is rejected as
ill-defined, so every admitted evaluation induces a chain with the same
underlying graph.  An IMC gives closed probability intervals per transition
and converts to a PMC with one parameter per interval.

``parse_model`` reads a file in one pass: the tokenizer is one compiled
regular expression whose matches stream to the parser with one token of
lookahead, so no token list of the file is kept.  Generated models repeat
a few expression texts many times, so each distinct ``trans`` expression
(its token sequence, whatever the spacing and comments) is parsed once per
file, and its immutable ``RationalFunction`` is shared by every transition
that has it.  After the declarations, one loop in file order resolves the
transitions of both formats: their state names, a repeated pair (rejected
whatever its expression or interval, a ``[0, 0]`` one too), and the format's
own entry checks.  Every ``.pmc`` row is checked to sum to 1 as a rational
function (constant rows as Fractions, the others by an exact symbolic sum
grouped by denominator); a row whose entries are the same objects as those
of a row already checked is not checked again.  ``imc_to_pmc`` rows are range
constraints and are not checked that way.  Every ``Imc`` checks on
construction that each row admits a distribution.

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

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
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

    def n_states(self) -> int:
        return len(self.states)

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


def _tokenize(text: str) -> Iterator[tuple[str, str]]:
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        v = m[kind]
        # [^\W\d] also admits numeric characters such as '½'; a name starts
        # with a letter or '_'
        if kind == "bad" or (kind == "ident" and not (v[0].isalpha() or v[0] == "_")):
            raise ModelSyntaxError(f"unexpected character {v[0]!r}")
        yield (kind, v)
        if kind == "eof":
            return  # an empty match may follow at the end of the text


def _raising(exc: ModelSyntaxError) -> Iterator[tuple[str, str]]:
    raise exc
    yield  # a generator: the error is raised when the first token is asked for


class _Tokens:
    """The token stream with one token of lookahead; at the end, every
    further take() returns eof again.  Built from a text, or from tokens
    already read."""

    def __init__(self, source: str | Iterator[tuple[str, str]]):
        self._toks = _tokenize(source) if isinstance(source, str) else source
        self._next = next(self._toks)

    def peek(self) -> tuple[str, str]:
        return self._next

    def take(self) -> tuple[str, str]:
        t = self._next
        if t[0] != "eof":
            self._next = next(self._toks)
        return t

    def expect(self, value: str) -> None:
        kind, v = self.take()
        if v != value or kind == "eof":
            raise ModelSyntaxError(f"expected {value!r}, found {v!r}")

    def ident(self) -> str:
        kind, v = self.take()
        if kind != "ident":
            raise ModelSyntaxError(f"expected a name, found {v!r}")
        return v

    def at_end(self) -> bool:
        """Is the lookahead the end of a statement, ';' or eof?"""
        return self._next[1] == ";" or self._next[0] == "eof"

    def take_statement(self) -> tuple[tuple[tuple[str, str], ...], ModelSyntaxError | None]:
        """Take the tokens before the next ';' or eof, which stays the
        lookahead.  A character that does not tokenize stops the taking; it
        is returned with the tokens before it, not raised."""
        toks: list[tuple[str, str]] = []
        t = self._next
        try:
            while t[1] != ";" and t[0] != "eof":
                toks.append(t)
                t = self._next = next(self._toks)
        except ModelSyntaxError as exc:
            return tuple(toks), exc
        return tuple(toks), None

    def reread(self, toks: Iterable[tuple[str, str]], error: ModelSyntaxError | None) -> "_Tokens":
        """A stream of what take_statement returned, then the rest of this
        stream, or the error, raised when the lookahead reaches it.  A
        parser of it meets every token and every error where it would have
        met them here."""
        return _Tokens(chain(toks, _raising(error) if error else (self._next,), self._toks))


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
        raise ModelSyntaxError(f"unexpected token {v!r} in expression")

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
                while tk.peek()[1] != "}":
                    props.add(tk.ident())
                    if tk.peek()[1] == ",":
                        tk.take()
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
                body, error = tk.take_statement()
                f = None if error else shared.get(body)
                if f is None:
                    sub = tk.reread(body, error)
                    f = _parse_expr(sub, params)
                    if not sub.at_end():
                        sub.expect(";")  # raises: tokens follow the expression
                    shared[body] = f
                raw.append((src, dst, f))
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
        if entry.is_const:
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
        # Fractions: sending them through _row_sum instead made the rows
        # of check-mix's set-up models three times slower to check
        if all(f.is_const for _, f in row):
            total = sum((f.value() for _, f in row), Fraction(0))
            if total != 1:
                raise ModelSyntaxError(
                    f"state {M.states[s]}: constant row sums to {total}, not 1"
                )
        elif _row_sum(f for _, f in row) != RF_ONE:
            raise ModelSyntaxError(f"state {M.states[s]}: row does not sum to 1")
        passed.add(key)


def _row_sum(fs: Iterable[RationalFunction]) -> RationalFunction:
    """Sum of the entries, grouped by denominator.

    Numerators over one denominator are added term by term in one dict, and
    constant denominators join the group over 1 by scaling their numerators,
    so a row of n entries over one denominator costs no polynomial product.
    """
    groups: dict[Polynomial, dict[Monomial, Fraction]] = {}
    for f in fs:
        num, den = f.num, f.den
        if den.is_const:
            num, den = num.scale(1 / den.const_value()), P_ONE
        acc = groups.setdefault(den, {})
        for m, c in num.terms:
            acc[m] = acc.get(m, 0) + c
    total = RF_ZERO
    for den, acc in groups.items():
        total = total + RationalFunction.make(Polynomial._from_dict(acc), den)
    return total


# The number forms of evaluations and query bounds.  Fraction accepts more,
# exponents among them, and builds 10**N for "1e-N" before anything could
# check the size: "1e-999999999" would need a 415 MB integer.
_NUMBER = re.compile(r"[+-]?[0-9]+(?:\.[0-9]+|/[0-9]+)?")


def parse_number(text: str) -> Fraction:
    """An optionally signed integer, decimal or quotient of integers ('3',
    '-0.3', '1/10') as a Fraction; ValueError for any other text, and
    ZeroDivisionError for a zero denominator."""
    if not _NUMBER.fullmatch(text):
        raise ValueError("expected an integer, a decimal such as 0.3 or a quotient such as 1/10")
    return Fraction(text)


def parse_evaluation(text: str) -> dict[str, Fraction]:
    """Parse 'eps=1/10,p=0.3' into an evaluation."""
    out: dict[str, Fraction] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, eq, value = chunk.partition("=")
        if not eq:
            raise ModelError(f"expected name=value, found {chunk!r}")
        name = name.strip()
        if name in out:
            raise ModelError(f"parameter {name!r} assigned twice")
        value = value.strip()
        try:
            out[name] = parse_number(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelError(f"bad value {value!r} for {name!r}: {exc}") from None
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


def _row(total: Fraction) -> str | None:
    """The row rule: what is wrong with a row whose evaluated entries sum to
    ``total``, or None."""
    return None if total == 1 else f"sums to {total}, not 1"


def well_defined(M: Pmc, evaluation: Evaluation) -> WellDefinedReport:
    """Does the total evaluation induce a genuine Markov chain on M's support?

    The evaluation must assign exactly M's parameters (ModelError otherwise).
    Every parameter value is checked against its declared range, every entry
    by the entry rules and every row by the row rule; all violations are
    collected, parameters first, then row by row each entry and the row's
    sum, instead of stopping at the first.  The report carries the
    evaluated entries, so a caller need not evaluate them again.
    """
    check_evaluation_names(M, evaluation)
    evaluation = {name: Fraction(evaluation[name]) for name in M.params}
    problems = [
        f"parameter {name} = {v} is outside its range {M.params[name].bounds_str()}"
        for name, v in evaluation.items()
        if not M.params[name].admits(v)
    ]
    values: dict[tuple[int, int], Fraction] = {}
    # parsing shares one function object per distinct expression, so each
    # object is evaluated once and each distinct row of objects summed once
    entries: dict[int, tuple[Fraction | None, str | None]] = {}
    rows: dict[tuple[int, ...], str | None] = {}
    for s in range(M.n_states()):
        row = M.succ(s)
        for t, f in row:
            checked = entries.get(id(f))
            if checked is None:
                checked = entries[id(f)] = _entry(f, evaluation)
            v, problem = checked
            if v is not None:
                values[(s, t)] = v
            if problem is not None:
                problems.append(f"entry {M.states[s]} -> {M.states[t]}{problem}")
        key = tuple(id(f) for _, f in row)
        if key in rows:
            problem = rows[key]
        else:
            # an entry whose denominator vanishes (value None) adds nothing
            problem = rows[key] = _row(sum((entries[i][0] or 0 for i in key), Fraction(0)))
        if problem is not None:
            problems.append(f"row {M.states[s]} {problem}")
    return WellDefinedReport(not problems, tuple(problems), values)


class StagedCheck:
    """``well_defined`` split along an order of M's parameters, for a scan
    that fixes them one at a time.

    An entry's stage is 1 + the position of the last parameter it reads in
    ``order``, or 0 when it reads none; a row's stage is the highest stage
    of its entries (0 for a row without any).  ``passes(k, ...)`` checks what
    fixing the first k parameters decides: the range of parameter k, then
    the entry rules on the entries of stage k and the row rule on the rows of
    stage k.  A point passes every stage exactly when ``well_defined`` finds
    no problem at it, and a failed stage fails every point that shares the
    prefix, so a scan can skip them all.  Stage 0 is checked once per scan.
    """

    def __init__(self, M: Pmc, order: Sequence[str]):
        check_evaluation_names(M, dict.fromkeys(order))
        position = {name: i for i, name in enumerate(order)}
        self.params = [M.params[name] for name in order]
        self.entries: list[list[tuple[tuple[int, int], RationalFunction]]] = [
            [] for _ in range(len(order) + 1)
        ]
        self.rows: list[list[list[tuple[int, int]]]] = [[] for _ in range(len(order) + 1)]
        for s in range(M.n_states()):
            row_stage = 0
            keys = []
            for t, f in M.succ(s):
                stage = 1 + max((position[name] for name in f.variables()), default=-1)
                self.entries[stage].append(((s, t), f))
                row_stage = max(row_stage, stage)
                keys.append((s, t))
            self.rows[row_stage].append(keys)

    def passes(
        self,
        stage: int,
        evaluation: Evaluation,
        values: dict[tuple[int, int], Fraction],
    ) -> bool:
        """Do the first ``stage`` parameters of ``evaluation`` pass the
        checks of that stage?  The entries of the stage are evaluated into
        ``values``; the earlier stages' entries must be there already."""
        if stage:
            param = self.params[stage - 1]
            if not param.admits(evaluation[param.name]):
                return False
        for key, f in self.entries[stage]:
            v, problem = _entry(f, evaluation)
            if problem is not None:
                return False
            values[key] = v
        return all(
            _row(sum((values[key] for key in keys), Fraction(0))) is None
            for keys in self.rows[stage]
        )


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
