"""Parametric and interval Markov chains, and the model file format.

A PMC stores one rational function per transition with nonzero probability;
absent pairs are zero.  The *support* — which pairs are stored — is part of
the model: an evaluation under which a stored entry vanishes is rejected as
ill-defined, so every admitted evaluation induces a chain with the same
underlying graph.  An IMC gives closed probability intervals per transition
and converts to a PMC with one parameter per interval.

``parse_model`` reads a file in one pass: the tokenizer is one compiled
regular expression whose matches stream to the parser with one token of
lookahead, so no token list is kept.  Every ``.pmc`` row is checked to sum to
1 as a rational function (constant rows as Fractions, the others by an exact
symbolic sum grouped by denominator); ``imc_to_pmc`` rows are range
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
from typing import Iterable, Iterator, Mapping

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
    """A parameter with its admitted range; None bounds mean unbounded."""

    name: str
    lower: Fraction | None
    upper: Fraction | None
    lower_strict: bool = False
    upper_strict: bool = False

    def admits(self, value: Fraction) -> bool:
        if self.lower is not None:
            if value < self.lower or (self.lower_strict and value == self.lower):
                return False
        if self.upper is not None:
            if value > self.upper or (self.upper_strict and value == self.upper):
                return False
        return True

    def bounds_str(self) -> str:
        lo = "(" if self.lower_strict else "["
        hi = ")" if self.upper_strict else "]"
        a = "-inf" if self.lower is None else str(self.lower)
        b = "inf" if self.upper is None else str(self.upper)
        return f"{lo}{a}, {b}{hi}"


@dataclass
class Pmc:
    states: tuple[str, ...]
    labels: tuple[frozenset[str], ...]
    initial: int
    params: dict[str, Param]
    trans: dict[tuple[int, int], RationalFunction]

    def __post_init__(self) -> None:
        self._succ: list[list[tuple[int, RationalFunction]]] | None = None

    def n_states(self) -> int:
        return len(self.states)

    def index(self, name: str) -> int:
        try:
            return self.states.index(name)
        except ValueError:
            raise ModelError(f"no state named {name!r}") from None

    def succ(self, s: int) -> list[tuple[int, RationalFunction]]:
        if self._succ is None:
            lists: list[list[tuple[int, RationalFunction]]] = [
                [] for _ in self.states
            ]
            for (a, b), f in sorted(self.trans.items(), key=lambda kv: kv[0]):
                lists[a].append((b, f))
            self._succ = lists
        return self._succ[s]


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
    r"(?P<skip>(?:\s|#[^\n]*)+)"
    r"|(?P<sym>->|[;:,{}()\[\]+\-*/])"
    r"|(?P<num>\d+(?:\.\d*)?)"
    r"|(?P<ident>[^\W\d]\w*)"
    r"|(?P<bad>.)",
    re.DOTALL,
)


def _tokenize(text: str) -> Iterator[tuple[str, str]]:
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        v = m.group()
        # [^\W\d] also admits numeric characters such as '½'; a name starts
        # with a letter or '_'
        if kind == "bad" or (kind == "ident" and not (v[0].isalpha() or v[0] == "_")):
            raise ModelSyntaxError(f"unexpected character {v[0]!r}")
        yield (kind, v)
    yield ("eof", "")


class _Tokens:
    """The token stream with one token of lookahead; at the end, every
    further take() returns eof again."""

    def __init__(self, text: str):
        self._toks = _tokenize(text)
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


def _parse_expr(tk: _Tokens, params: Mapping[str, Param]) -> RationalFunction:
    def factor() -> RationalFunction:
        kind, v = tk.take()
        if v == "-":
            return -factor()
        if kind == "num":
            return RationalFunction.const(Fraction(v))
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
    # raw transition statements, processed after all declarations are known
    raw_pmc: list[tuple[str, str, RationalFunction]] = []
    raw_imc: list[tuple[str, str, Fraction, Fraction]] = []

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
                raw_imc.append((src, dst, lo, hi))
            else:
                raw_pmc.append((src, dst, _parse_expr(tk, params)))
        else:
            raise ModelSyntaxError(f"unknown statement {word!r}")
        tk.expect(";")

    if not states:
        raise ModelSyntaxError("no states declared")
    if init_name is None:
        raise ModelSyntaxError("missing init statement")
    if init_name not in idx:
        raise ModelSyntaxError(f"init state {init_name!r} not declared")

    if kind == "pmc":
        trans: dict[tuple[int, int], RationalFunction] = {}
        for src, dst, f in raw_pmc:
            if src not in idx or dst not in idx:
                raise ModelSyntaxError(f"transition {src} -> {dst} uses an undeclared state")
            key = (idx[src], idx[dst])
            if key in trans:
                raise ModelSyntaxError(f"transition {src} -> {dst} given twice")
            if f.is_const:
                v = f.value()
                if v == 0:
                    raise ModelSyntaxError(
                        f"transition {src} -> {dst} has probability 0; omit it instead"
                    )
                if v < 0 or v > 1:
                    raise ModelSyntaxError(
                        f"transition {src} -> {dst} has constant probability {v} outside [0,1]"
                    )
            trans[key] = f
        pmc = Pmc(tuple(states), tuple(labels), idx[init_name], params, trans)
        _validate_rows(pmc)
        return pmc

    lower: dict[tuple[int, int], Fraction] = {}
    upper: dict[tuple[int, int], Fraction] = {}
    for src, dst, lo, hi in raw_imc:
        if src not in idx or dst not in idx:
            raise ModelSyntaxError(f"transition {src} -> {dst} uses an undeclared state")
        key = (idx[src], idx[dst])
        if key in lower:
            raise ModelSyntaxError(f"transition {src} -> {dst} given twice")
        if not (0 <= lo <= hi <= 1):
            raise ModelSyntaxError(
                f"transition {src} -> {dst} has an invalid interval [{lo}, {hi}]"
            )
        if hi == 0:
            continue  # certainly-zero transition: same as absent
        lower[key], upper[key] = lo, hi
    return Imc(tuple(states), tuple(labels), idx[init_name], lower, upper)


def _rows(n: int, keys: Iterable[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """The transition keys grouped by source state, each row sorted."""
    rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for key in sorted(keys):
        rows[key[0]].append(key)
    return rows


def _validate_rows(M: Pmc) -> None:
    for s in range(M.n_states()):
        row = M.succ(s)
        if not row:
            raise ModelSyntaxError(f"state {M.states[s]} has no outgoing transition")
        if all(f.is_const for _, f in row):
            total = sum((f.value() for _, f in row), Fraction(0))
            if total != 1:
                raise ModelSyntaxError(
                    f"state {M.states[s]}: constant row sums to {total}, not 1"
                )
        elif _row_sum(f for _, f in row) != RF_ONE:
            raise ModelSyntaxError(f"state {M.states[s]}: row does not sum to 1")


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
        try:
            out[name] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelError(f"bad value for {name!r}: {exc}") from None
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


def well_defined(M: Pmc, evaluation: Evaluation) -> WellDefinedReport:
    """Does the total evaluation induce a genuine Markov chain on M's support?

    The evaluation must assign exactly M's parameters (ModelError otherwise).
    Every parameter value is checked against its declared range, every entry
    is evaluated to a Fraction and checked for a vanishing denominator, for
    range and for nonzero support, and every row for its sum; all violations
    are collected, parameters first, instead of stopping at the first.  The
    report carries the evaluated entries, so a caller need not evaluate them
    again.
    """
    for name in evaluation:
        if name not in M.params:
            raise ModelError(f"unknown parameter {name!r}")
    missing = [p for p in M.params if p not in evaluation]
    if missing:
        raise ModelError(f"evaluation misses parameters: {', '.join(missing)}")
    evaluation = {name: Fraction(evaluation[name]) for name in M.params}
    problems = [
        f"parameter {name} = {v} is outside its range {M.params[name].bounds_str()}"
        for name, v in evaluation.items()
        if not M.params[name].admits(v)
    ]
    values: dict[tuple[int, int], Fraction] = {}
    for s in range(M.n_states()):
        total = Fraction(0)
        for t, f in M.succ(s):
            try:
                v = f.evaluate(evaluation)
            except ZeroDenominatorError:
                problem = ": denominator vanishes"
            else:
                values[(s, t)] = v
                total += v
                if v == 0:
                    problem = " evaluates to 0 but is in the support"
                elif v < 0 or v > 1:
                    problem = f" evaluates to {v}, outside [0,1]"
                else:
                    continue
            problems.append(f"entry {M.states[s]} -> {M.states[t]}{problem}")
        if total != 1:
            problems.append(f"row {M.states[s]} sums to {total}, not 1")
    return WellDefinedReport(not problems, tuple(problems), values)


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
