"""Closed-form probabilities on concrete Markov chains.

Independent reference implementations for the formula fragment
{X a, F a, G a, GF a, FG a, a U b} via reachability equations and bottom-SCC
analysis.  This module deliberately shares no machinery with the
automaton-product pipeline (it has its own little Gaussian elimination), so
the two can be tested against each other.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .ltl import Atom, LtlFormula, Next, Not, Top, Until
from .pmc import Evaluation, ModelError, Pmc
from .sccs import tarjan


class OracleError(Exception):
    pass


@dataclass
class ConcreteMc:
    states: tuple[str, ...]
    labels: tuple[frozenset[str], ...]
    initial: int
    trans: dict[tuple[int, int], Fraction]

    def __post_init__(self) -> None:
        succ: list[list[tuple[int, Fraction]]] = [[] for _ in self.states]
        for (a, b), p in sorted(self.trans.items()):
            if not 0 < p <= 1:
                raise ModelError(
                    f"transition {self.states[a]} -> {self.states[b]} has probability {p}"
                )
            succ[a].append((b, p))
        for s, row in enumerate(succ):
            total = sum((p for _, p in row), Fraction(0))
            if total != 1:
                raise ModelError(f"row {self.states[s]} sums to {total}")
        self._succ = succ

    @staticmethod
    def from_pmc(M: Pmc, evaluation: Evaluation) -> "ConcreteMc":
        trans = {key: f.evaluate(evaluation) for key, f in M.trans.items()}
        return ConcreteMc(M.states, M.labels, M.initial, trans)

    def succ(self, s: int) -> list[tuple[int, Fraction]]:
        return self._succ[s]

    def states_with(self, prop: str) -> frozenset[int]:
        return frozenset(s for s, l in enumerate(self.labels) if prop in l)


def _solve(rows: list[list[Fraction]]) -> list[Fraction]:
    """Solve a square system given as [A | b] rows; raises if not unique."""
    n = len(rows)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            raise OracleError("reachability system is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * w for v, w in zip(rows[r], rows[col])]
    return [rows[r][n] for r in range(n)]


def _constrained_reach(
    mc: ConcreteMc, allowed: frozenset[int], targets: frozenset[int]
) -> list[Fraction]:
    """Per-state probability of reaching ``targets`` while passing only
    through ``allowed`` states (the until semantics: targets absorb, a
    non-allowed non-target state loses)."""
    n = len(mc.states)
    preds: list[list[int]] = [[] for _ in range(n)]
    for (a, b) in mc.trans:
        preds[b].append(a)
    # states that can reach targets moving backwards through allowed\targets
    can = set(targets)
    frontier = list(targets)
    while frontier:
        t = frontier.pop()
        for p in preds[t]:
            if p not in can and p in allowed and p not in targets:
                can.add(p)
                frontier.append(p)
    unknowns = sorted(can - targets)
    pos = {s: i for i, s in enumerate(unknowns)}
    k = len(unknowns)
    rows = []
    for s in unknowns:
        row = [Fraction(0)] * (k + 1)
        row[pos[s]] = Fraction(1)
        for t, p in mc.succ(s):
            if t in targets:
                row[k] += p
            elif t in pos:
                row[pos[t]] -= p
        rows.append(row)
    sol = _solve(rows) if unknowns else []
    out = [Fraction(0)] * n
    for s in targets:
        out[s] = Fraction(1)
    for s, i in pos.items():
        out[s] = sol[i]
    return out


def reach_prob(mc: ConcreteMc, targets: Iterable[int]) -> Fraction:
    """Probability of eventually visiting ``targets`` from the initial state."""
    t = frozenset(targets)
    return _constrained_reach(mc, frozenset(range(len(mc.states))), t)[mc.initial]


def prob_until(mc: ConcreteMc, hold: Iterable[int], targets: Iterable[int]) -> Fraction:
    """P(hold U targets) from the initial state."""
    return _constrained_reach(mc, frozenset(hold), frozenset(targets))[mc.initial]


def prob_next(mc: ConcreteMc, targets: Iterable[int]) -> Fraction:
    t = frozenset(targets)
    return sum((p for s, p in mc.succ(mc.initial) if s in t), Fraction(0))


def prob_always(mc: ConcreteMc, good: Iterable[int]) -> Fraction:
    """P(G good) = 1 - P(F not-good)."""
    bad = frozenset(range(len(mc.states))) - frozenset(good)
    return 1 - reach_prob(mc, bad)


def bottom_sccs(mc: ConcreteMc) -> list[frozenset[int]]:
    """The SCCs of the chain that no transition leaves, in topological order."""
    n = len(mc.states)
    offsets = array("q", [0])
    targets = array("q")
    for s in range(n):
        targets.extend(t for t, _ in mc.succ(s))
        offsets.append(len(targets))
    comp_of, order, starts = tarjan(offsets, targets)
    bottoms = []
    for i in range(len(starts) - 1):
        members = order[starts[i] : starts[i + 1]]
        if all(comp_of[t] == i for u in members for t in targets[offsets[u] : offsets[u + 1]]):
            bottoms.append(frozenset(members))
    return bottoms


def prob_gf(mc: ConcreteMc, good: Iterable[int]) -> Fraction:
    """P(GF good): reach a bottom SCC containing a good state."""
    g = frozenset(good)
    lucky = [b for b in bottom_sccs(mc) if b & g]
    return reach_prob(mc, frozenset().union(*lucky) if lucky else frozenset())


def prob_fg(mc: ConcreteMc, good: Iterable[int]) -> Fraction:
    """P(FG good): reach a bottom SCC contained in the good states."""
    g = frozenset(good)
    lucky = [b for b in bottom_sccs(mc) if b <= g]
    return reach_prob(mc, frozenset().union(*lucky) if lucky else frozenset())


def prob_of_formula(mc: ConcreteMc, formula: LtlFormula) -> Fraction | None:
    """Closed-form probability for the supported fragment; None otherwise.

    Recognized (in lowered core form): X a, F a, G a, GF a, FG a, a U b.
    """
    match formula:
        case Next(Atom(a)):
            return prob_next(mc, mc.states_with(a))
        case Until(Top(), Atom(a)):
            return reach_prob(mc, mc.states_with(a))
        case Not(Until(Top(), Not(Atom(a)))):
            return prob_always(mc, mc.states_with(a))
        case Not(Until(Top(), Not(Until(Top(), Atom(a))))):
            return prob_gf(mc, mc.states_with(a))
        case Until(Top(), Not(Until(Top(), Not(Atom(a))))):
            return prob_fg(mc, mc.states_with(a))
        case Until(Atom(a), Atom(b)):
            return prob_until(mc, mc.states_with(a), mc.states_with(b))
    return None
