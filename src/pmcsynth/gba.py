"""Tableau translation of LTL into generalized Buchi automata over subsets
of elementary formulas, the reverse-determinism check the completeness
decider needs, and a stable text dump.  Whether an automaton accepts a lasso
word is decided on the product (``product.accepting_states_lasso``).

States of a translated automaton are the subsets of el(phi) — the X-guarded
formulas X psi occurring in phi, plus X(psi1 U psi2) for every until — with
one extra (non-reenterable) initial state.  The satisfaction relation
(V, a) |= psi decides membership of psi given the promise set V and letter a;
the transition function is the inverse of the predecessor map

    pred(U, a)  =  { X psi in el(phi) : (U, a) |= psi },

which makes the reenterable part of the automaton reverse deterministic by
construction.  Acceptance has one set per until subformula psi1 U psi2: an
edge with letter a into V belongs to it iff (V, a) |= psi2 or (V, a) |= not
(psi1 U psi2) — i.e. the until is not being procrastinated.  The alphabet is
the formula's own atomic propositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .ltl import (
    And,
    Atom,
    LtlError,
    LtlFormula,
    Next,
    Not,
    Top,
    Until,
    atomic_props,
    pretty,
    subformulas,
)
# Not used here: the benchmark's tracer (perfbench/layers.py) rebinds
# ``gba.tarjan`` and fails if the name is missing.
from .sccs import tarjan


class GbaError(Exception):
    pass


class CapacityError(GbaError):
    """A configured size cap would be exceeded; raised before any big allocation."""


# ---------------------------------------------------------------------------
# Automaton representation
# ---------------------------------------------------------------------------


@dataclass
class Gba:
    """Generalized Buchi automaton with edge-based acceptance.

    ``transitions`` maps (state id, letter mask) to the sorted tuple of
    successor ids; absent keys mean no successor.  Letter masks are bitmasks
    over ``ap`` (bit i set iff ap[i] in the letter).  ``acceptance[k]`` is a
    set of (src, letter mask, dst) edge triples.  For automata built by
    ``translate`` from phi, with n = |elementary(phi)|: subset states have
    id == their el bitmask (0 .. 2^n - 1) and the initial state is id 2^n.
    """

    ap: tuple[str, ...]
    states: tuple[str, ...]
    initial: tuple[int, ...]
    transitions: dict[tuple[int, int], tuple[int, ...]]
    acceptance: tuple[frozenset[tuple[int, int, int]], ...]

    def letter_mask(self, letter: frozenset[str]) -> int:
        """Bitmask of ``letter`` projected onto this automaton's ap set."""
        mask = 0
        for i, name in enumerate(self.ap):
            if name in letter:
                mask |= 1 << i
        return mask

    def mask_letter(self, mask: int) -> frozenset[str]:
        return frozenset(name for i, name in enumerate(self.ap) if mask >> i & 1)

    def n_letters(self) -> int:
        return 1 << len(self.ap)

    def edges(self) -> list[tuple[int, int, int]]:
        """All (src, letter mask, dst) triples, sorted."""
        out = []
        for (src, a), dsts in self.transitions.items():
            for dst in dsts:
                out.append((src, a, dst))
        out.sort()
        return out


def make_gba(
    ap: Sequence[str],
    states: Sequence[str],
    initial: Iterable[str],
    edges: Iterable[tuple[str, Iterable[str], str]],
    acceptance: Iterable[Iterable[tuple[str, Iterable[str], str]]] = (),
) -> Gba:
    """Build an automaton from named states and letters-as-prop-sets."""
    ap_t = tuple(ap)
    states_t = tuple(states)
    index = {name: i for i, name in enumerate(states_t)}
    if len(index) != len(states_t):
        raise GbaError("duplicate state names")
    dummy = Gba(ap_t, states_t, (), {}, ())

    def triple(e: tuple[str, Iterable[str], str]) -> tuple[int, int, int]:
        src, letter, dst = e
        return index[src], dummy.letter_mask(frozenset(letter)), index[dst]

    trans: dict[tuple[int, int], list[int]] = {}
    for e in edges:
        s, a, d = triple(e)
        trans.setdefault((s, a), []).append(d)
    transitions = {k: tuple(sorted(set(v))) for k, v in trans.items()}
    acc = tuple(frozenset(triple(e) for e in f) for f in acceptance)
    for f in acc:
        for t in f:
            src, a, dst = t
            if dst not in transitions.get((src, a), ()):
                raise GbaError(f"acceptance triple {t} is not a transition")
    return Gba(ap_t, states_t, tuple(sorted(index[s] for s in initial)), transitions, acc)


# ---------------------------------------------------------------------------
# Elementary subformulas and the satisfaction relation
# ---------------------------------------------------------------------------


def elementary(formula: LtlFormula) -> tuple[LtlFormula, ...]:
    """el(phi): X-formulas of phi plus X(until) for every until subformula.

    Ordered by first occurrence in the bottom-up subformula traversal, which
    fixes the bit layout of subset states.
    """
    members: dict[LtlFormula, None] = {}
    for sub in subformulas(formula):
        match sub:
            case Next():
                members.setdefault(sub)
            case Until():
                members.setdefault(Next(sub))
    return tuple(members)


def sat_relation(V: frozenset[LtlFormula], a: frozenset[str], psi: LtlFormula) -> bool:
    """(V, a) |= psi — the tableau satisfaction relation.

    V is a set of X-formulas (promises); a is a letter.  Used directly by
    tests as the reference semantics; ``translate`` inlines the same clauses
    in table form.
    """
    match psi:
        case Top():
            return True
        case Atom(name):
            return name in a
        case Not(arg):
            return not sat_relation(V, a, arg)
        case And(l, r):
            return sat_relation(V, a, l) and sat_relation(V, a, r)
        case Next():
            return psi in V
        case Until(l, r):
            return sat_relation(V, a, r) or (
                sat_relation(V, a, l) and Next(psi) in V
            )
    raise LtlError(f"not an LTL node: {psi!r}")


# Upper bound on |el(formula)|: the tableau has 2^|el| + 1 states and is
# built for every letter, so each member doubles the translation's work.
EL_BUDGET = 20


def translate(formula: LtlFormula) -> Gba:
    """Tableau automaton of ``formula`` over its own atomic propositions.

    ``build_product`` projects every chain label onto this alphabet, so
    propositions the formula does not mention need no letters.  Raises
    CapacityError before building anything if el(formula) has more than
    ``EL_BUDGET`` members.
    """
    el = elementary(formula)
    if len(el) > EL_BUDGET:
        raise CapacityError(
            f"el(formula) has {len(el)} members, above the cap of {EL_BUDGET}"
        )
    props = tuple(sorted(atomic_props(formula)))

    n = len(el)
    n_subsets = 1 << n
    n_letters = 1 << len(props)
    el_bit = {x: i for i, x in enumerate(el)}
    subs = subformulas(formula)
    untils = [s for s in subs if isinstance(s, Until)]

    init_id = n_subsets
    transitions: dict[tuple[int, int], list[int]] = {}
    acc_sets: list[set[tuple[int, int, int]]] = [set() for _ in untils]

    for a in range(n_letters):
        letter_bits = {name for i, name in enumerate(props) if a >> i & 1}
        for U in range(n_subsets):
            val: dict[LtlFormula, bool] = {}
            for sub in subs:
                match sub:
                    case Top():
                        v = True
                    case Atom(name):
                        v = name in letter_bits
                    case Not(arg):
                        v = not val[arg]
                    case And(l, r):
                        v = val[l] and val[r]
                    case Next():
                        v = bool(U >> el_bit[sub] & 1)
                    case Until(l, r):
                        v = val[r] or (val[l] and bool(U >> el_bit[Next(sub)] & 1))
                    case _:
                        raise LtlError(f"not an LTL node: {sub!r}")
                val[sub] = v
            # U in T(V, a) exactly for V = pred(U, a)
            V = 0
            for i, x in enumerate(el):
                if val[x.arg]:
                    V |= 1 << i
            transitions.setdefault((V, a), []).append(U)
            if val[formula]:
                transitions.setdefault((init_id, a), []).append(U)
            srcs = [V, init_id] if val[formula] else [V]
            for k, u in enumerate(untils):
                if val[u.right] or not val[u]:
                    for src in srcs:
                        acc_sets[k].add((src, a, U))

    def subset_name(mask: int) -> str:
        return "{" + ", ".join(pretty(el[i]) for i in range(n) if mask >> i & 1) + "}"

    states = tuple(subset_name(m) for m in range(n_subsets)) + ("init",)
    return Gba(
        ap=props,
        states=states,
        initial=(init_id,),
        transitions={k: tuple(sorted(v)) for k, v in transitions.items()},
        acceptance=tuple(frozenset(s) for s in acc_sets),
    )


# ---------------------------------------------------------------------------
# Structural analyses
# ---------------------------------------------------------------------------


def reenterable_states(A: Gba) -> frozenset[int]:
    """States with at least one incoming transition."""
    seen: set[int] = set()
    for dsts in A.transitions.values():
        seen.update(dsts)
    return frozenset(seen)


@dataclass(frozen=True)
class RdReport:
    """Reverse-determinism of the reenterable subautomaton.

    exactly_one: every (reenterable state, letter) pair has exactly one
    predecessor among reenterable states — the property the SCC-comparison
    completeness check needs in both directions.  at_most_one: no such pair
    has two.  ``violations`` samples offending (state, letter mask, count)
    triples, at most 20.
    """

    exactly_one: bool
    at_most_one: bool
    reenterable: frozenset[int]
    violations: tuple[tuple[int, int, int], ...] = ()


def check_reverse_deterministic(A: Gba) -> RdReport:
    reent = reenterable_states(A)
    counts: dict[tuple[int, int], int] = {}
    for (src, a), dsts in A.transitions.items():
        if src not in reent:
            continue
        for d in dsts:
            counts[(d, a)] = counts.get((d, a), 0) + 1
    violations = []
    at_most_one = True
    exactly_one = True
    for q in sorted(reent):
        for a in range(A.n_letters()):
            c = counts.get((q, a), 0)
            if c > 1:
                at_most_one = False
            if c != 1:
                exactly_one = False
                if len(violations) < 20:
                    violations.append((q, a, c))
    return RdReport(exactly_one, at_most_one, frozenset(reent), tuple(violations))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def dump(A: Gba) -> str:
    """Stable text form: ap/init headers, state lines, edge lines, acc lines.

    Acceptance sets refer to edges by their 0-based position among the edge
    lines, which are sorted by (src, letter mask, dst).
    """
    lines = ["ap: " + " ".join(A.ap)]
    lines.append("init: " + " ".join(str(q) for q in A.initial))
    for i, name in enumerate(A.states):
        lines.append(f"state {i} {name}")
    edge_list = A.edges()
    edge_id = {e: i for i, e in enumerate(edge_list)}
    for src, a, dst in edge_list:
        letter = ",".join(sorted(A.mask_letter(a)))
        lines.append(f"edge {src} --{{{letter}}}--> {dst}")
    for k, f in enumerate(A.acceptance):
        ids = sorted(edge_id[e] for e in f)
        lines.append(f"acc {k}: " + " ".join(str(i) for i in ids))
    return "\n".join(lines) + "\n"

