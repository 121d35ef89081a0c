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
(psi1 U psi2) — i.e. the until is not being procrastinated; an edge stores
the sets it is in as one bitmask.  The alphabet is the formula's own atoms.

``translate`` numbers the subformulas once and compiles each into a row of
subformula positions and a letter or subset bit, so each of the 2^|el| x
2^|AP| (subset, letter) rounds evaluates every subformula with list reads
and bit tests; no round hashes a formula.  ``EL_BUDGET`` bounds |el| + |AP|,
the log2 of the rounds.
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
    over ``ap`` (bit i set iff ap[i] in the letter).  ``acceptance`` maps an
    edge (src, letter mask, dst) to a mask with bit k set iff the edge is in
    set k < ``n_sets``; edges in no set have no entry.  For automata built by
    ``translate`` from phi, with n = |elementary(phi)|: subset states have
    id == their el bitmask (0 .. 2^n - 1) and the initial state is id 2^n.
    """

    ap: tuple[str, ...]
    states: tuple[str, ...]
    initial: tuple[int, ...]
    transitions: dict[tuple[int, int], tuple[int, ...]]
    acceptance: dict[tuple[int, int, int], int]
    n_sets: int

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
    """Build an automaton from named states, prop-set letters and edge lists."""
    index = {name: i for i, name in enumerate(states)}
    if len(index) != len(states):
        raise GbaError("duplicate state names")

    def state(name: str) -> int:
        if name not in index:
            raise GbaError(f"unknown state {name!r}")
        return index[name]

    def triple(e: tuple[str, Iterable[str], str]) -> tuple[int, int, int]:
        src, letter, dst = e
        return state(src), A.letter_mask(frozenset(letter)), state(dst)

    sets = [list(f) for f in acceptance]
    A = Gba(tuple(ap), tuple(states), tuple(sorted(map(state, initial))), {}, {}, len(sets))
    trans: dict[tuple[int, int], set[int]] = {}
    for e in edges:
        s, a, d = triple(e)
        trans.setdefault((s, a), set()).add(d)
    A.transitions = {k: tuple(sorted(v)) for k, v in trans.items()}
    for k, f in enumerate(sets):
        for e in f:
            t = triple(e)
            if t[2] not in A.transitions.get(t[:2], ()):
                letter = ",".join(sorted(A.mask_letter(t[1])))
                raise GbaError(
                    f"acceptance edge {e[0]} --{{{letter}}}--> {e[2]} is not a transition"
                )
            A.acceptance[t] = A.acceptance.get(t, 0) | 1 << k
    return A


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
    tests as the reference semantics; ``translate`` compiles the same clauses
    onto subformula positions and evaluates them on bitmasks.
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


# Upper bound on |el(formula)| + |AP(formula)|: the tableau has 2^|el| + 1
# states and is built for each of the 2^|AP| letters, so each elementary
# member and each proposition doubles the translation's work.
EL_BUDGET = 20


def translate(formula: LtlFormula) -> Gba:
    """Tableau automaton of ``formula`` over its own atomic propositions.

    ``build_product`` projects every chain label onto this alphabet, so
    propositions the formula does not mention need no letters.  Raises
    CapacityError before building anything if el(formula) and the atomic
    propositions together have more than ``EL_BUDGET`` members.
    """
    el = elementary(formula)
    props = tuple(sorted(atomic_props(formula)))
    n = len(el)
    if n + len(props) > EL_BUDGET:
        raise CapacityError(
            f"el(formula) has {n} members and the formula {len(props)} atomic "
            f"propositions: 2^{n + len(props)} tableau rounds, above the cap of "
            f"2^{EL_BUDGET}"
        )

    subs = subformulas(formula)
    # Compile: node k of ``subs`` becomes (op, i, j, bit) over positions in
    # ``subs``; ``bit`` masks the letter (atoms) or the subset state (X psi,
    # and the promise X(psi1 U psi2) of an until).
    pos = {s: k for k, s in enumerate(subs)}
    el_bit = {x: 1 << i for i, x in enumerate(el)}
    code: list[tuple[str, int, int, int]] = []
    for sub in subs:
        match sub:
            case Top():
                code.append(("top", 0, 0, 0))
            case Atom(name):
                code.append(("atom", 0, 0, 1 << props.index(name)))
            case Not(arg):
                code.append(("not", pos[arg], 0, 0))
            case And(l, r):
                code.append(("and", pos[l], pos[r], 0))
            case Next():
                code.append(("next", 0, 0, el_bit[sub]))
            case Until(l, r):
                code.append(("until", pos[l], pos[r], el_bit[Next(sub)]))
            case _:
                raise LtlError(f"not an LTL node: {sub!r}")
    pred = [pos[x.arg] for x in el]
    top = len(subs) - 1
    untils = [(k, pos[s.right]) for k, s in enumerate(subs) if isinstance(s, Until)]

    n_subsets = 1 << n
    n_letters = 1 << len(props)
    init_id = n_subsets
    transitions: dict[tuple[int, int], list[int]] = {}
    acceptance: dict[tuple[int, int, int], int] = {}
    val = [False] * len(subs)

    for a in range(n_letters):
        for U in range(n_subsets):
            for k, (op, i, j, bit) in enumerate(code):
                if op == "and":
                    val[k] = val[i] and val[j]
                elif op == "not":
                    val[k] = not val[i]
                elif op == "atom":
                    val[k] = a & bit != 0
                elif op == "next":
                    val[k] = U & bit != 0
                elif op == "until":
                    val[k] = val[j] or (val[i] and U & bit != 0)
                else:  # "top"
                    val[k] = True
            # U in T(V, a) exactly for V = pred(U, a)
            V = 0
            for i, k in enumerate(pred):
                if val[k]:
                    V |= 1 << i
            mask = 0  # bit b: the round's edges are in set b
            for b, (k, r) in enumerate(untils):
                if val[r] or not val[k]:
                    mask |= 1 << b
            for src in (V, init_id) if val[top] else (V,):
                transitions.setdefault((src, a), []).append(U)
                if mask:
                    acceptance[(src, a, U)] = mask

    names = [pretty(x) for x in el]

    def subset_name(mask: int) -> str:
        return "{" + ", ".join(names[i] for i in range(n) if mask >> i & 1) + "}"

    states = tuple(subset_name(m) for m in range(n_subsets)) + ("init",)
    return Gba(
        ap=props,
        states=states,
        initial=(init_id,),
        # each list filled in ascending U, so it is already sorted
        transitions={k: tuple(v) for k, v in transitions.items()},
        acceptance=acceptance,
        n_sets=len(untils),
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
    for src, a, dst in edge_list:
        letter = ",".join(sorted(A.mask_letter(a)))
        lines.append(f"edge {src} --{{{letter}}}--> {dst}")
    masks = [A.acceptance.get(e, 0) for e in edge_list]
    for k in range(A.n_sets):
        ids = [str(i) for i, m in enumerate(masks) if m >> k & 1]
        lines.append(f"acc {k}: " + " ".join(ids))
    return "\n".join(lines) + "\n"

