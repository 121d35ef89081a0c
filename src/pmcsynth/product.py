"""Product of a GBA with a (parametric) Markov chain, SCC classification.

The product graph has one node per (automaton state, chain state) pair —
all pairs, including isolated ones — and an arc (q,s) -> (q',s') whenever
the chain moves s -> s' with nonzero probability and q' in T(q, L(s)),
reading the *source* state's label (projected onto the automaton's ap set).

An SCC C is classified

  * accepting       — C has a cycle and, for every acceptance set F_k, some
                      internal arc whose (q, letter, q') triple lies in F_k;
  * complete        — every finite path of the chain's induced subgraph on
                      H(C) (C's projection) lifts to a path inside C;
  * locally positive — accepting, complete, and H(C) is a bottom SCC of the
                      chain.

Classification decides completeness only for SCCs that are accepting and
project onto a bottom SCC of the chain, the only ones where it can change
the verdict.

Completeness has two deciders: ``is_complete_oracle`` (survivor-set subset
construction, always correct, worst-case exponential, budgeted) and
``is_complete_rd`` (SCC comparison, linear, sound exactly when the
reenterable part of the automaton is reverse deterministic with *exactly*
one predecessor per letter — it refuses to answer otherwise).

A lasso word is a chain whose every step has probability 1, so whether an
automaton accepts it is decided on the same product: a state q accepts the
word iff node (q, first position) reaches an accepting SCC.
"""

from __future__ import annotations

from array import array
from collections.abc import Container
from dataclasses import dataclass

from .gba import CapacityError, Gba, RdReport, check_reverse_deterministic
from .ltl import LassoWord
from .pmc import Pmc
from .ratfunc import RF_ONE
from .sccs import tarjan


class ProductError(Exception):
    pass


class ReverseDeterminismError(ProductError):
    """is_complete_rd requires exactly-one reverse determinism; use
    is_complete_oracle when the automaton does not provide it."""


class CompletenessBudgetError(CapacityError):
    """The survivor-set construction exceeded its node budget."""


@dataclass
class ProductGraph:
    gba: Gba
    pmc: Pmc
    letters: tuple[int, ...]  # per chain state: letter mask of its label
    offsets: array  # CSR row offsets, length n_nodes + 1
    targets: array  # CSR arc targets
    initial: tuple[int, ...]

    def __post_init__(self) -> None:
        self._rd: RdReport | None = None

    def n_mc(self) -> int:
        return self.pmc.n_states()

    def n_nodes(self) -> int:
        return len(self.offsets) - 1

    def n_arcs(self) -> int:
        return len(self.targets)

    def node(self, q: int, s: int) -> int:
        return q * self.n_mc() + s

    def pair(self, node: int) -> tuple[int, int]:
        return divmod(node, self.n_mc())

    def node_name(self, node: int) -> str:
        q, s = self.pair(node)
        return f"({self.gba.states[q]}, {self.pmc.states[s]})"

    def succ(self, u: int):
        return self.targets[self.offsets[u] : self.offsets[u + 1]]

    def rd_report(self) -> RdReport:
        if self._rd is None:
            self._rd = check_reverse_deterministic(self.gba)
        return self._rd


def check_product_size(nq: int, ns: int, max_nodes: int) -> None:
    """Raise CapacityError if ``nq * ns`` product nodes would exceed ``max_nodes``."""
    if nq * ns > max_nodes:
        raise CapacityError(f"product would have {nq * ns} nodes, above the cap of {max_nodes}")


def build_product(A: Gba, M: Pmc, max_nodes: int = 5_000_000) -> ProductGraph:
    """A x M on all state pairs, arcs in CSR form.

    Raises CapacityError before allocating anything if |Q| * |S| exceeds
    ``max_nodes``.
    """
    nq = len(A.states)
    ns = M.n_states()
    check_product_size(nq, ns, max_nodes)
    letters = tuple(A.letter_mask(M.labels[s]) for s in range(ns))
    mc_succ = [[t for t, _ in M.succ(s)] for s in range(ns)]

    offsets = array("q", [0])
    targets = array("q")
    for q in range(nq):
        for s in range(ns):
            succs = A.transitions.get((q, letters[s]), ())
            if succs:
                targets.extend([q2 * ns + t for t in mc_succ[s] for q2 in succs])
            offsets.append(len(targets))
    init = tuple(sorted(q0 * ns + M.initial for q0 in A.initial))
    return ProductGraph(A, M, letters, offsets, targets, init)


# ---------------------------------------------------------------------------
# SCC structure
# ---------------------------------------------------------------------------


@dataclass
class SccRecord:
    """One SCC of the product.  ``scc_decompose`` fills the structural
    fields; ``classify_locally_positive`` fills the verdicts, leaving
    ``complete`` None where the SCC is not accepting or its projection is
    not a bottom SCC of the chain."""

    index: int  # position in topological order (arcs go to higher indices)
    members: tuple[int, ...]
    projection: frozenset[int]
    trivial: bool  # single node without a self-arc
    reachable: bool  # from an initial product node
    accepting: bool | None = None
    complete: bool | None = None
    projection_is_bottom: bool | None = None
    locally_positive: bool | None = None


@dataclass
class SccPartition:
    sccs: list[SccRecord]  # topological order: arcs go index -> higher index
    succ: list[tuple[int, ...]]  # condensation arcs, per scc index; () if bottom

    def __post_init__(self) -> None:
        self._by_projection: dict[frozenset[int], list[int]] | None = None

    def by_projection(self) -> dict[frozenset[int], list[int]]:
        if self._by_projection is None:
            groups: dict[frozenset[int], list[int]] = {}
            for r in self.sccs:
                groups.setdefault(r.projection, []).append(r.index)
            self._by_projection = groups
        return self._by_projection

    def nontrivial(self) -> list[SccRecord]:
        return [r for r in self.sccs if not r.trivial]

    def reaching(self, targets: Container[int]) -> list[bool]:
        """Per SCC index: does it reach an SCC whose index is in ``targets``
        (itself included)?"""
        succ = self.succ
        reaches = [False] * len(self.sccs)
        # arcs go to higher indices, so a backward sweep sees targets first
        for i in range(len(reaches) - 1, -1, -1):
            if i in targets:
                reaches[i] = True
                continue
            for j in succ[i]:
                if reaches[j]:
                    reaches[i] = True
                    break
        return reaches


def scc_decompose(G: ProductGraph) -> SccPartition:
    n = G.n_nodes()
    offsets, targets = G.offsets, G.targets
    comps = tarjan(n, G.succ)
    comps.reverse()  # topological: arcs point to later components
    comp_of = [0] * n
    for ci, comp in enumerate(comps):
        for u in comp:
            comp_of[u] = ci

    # every arc into a component comes from an earlier one, so one forward
    # pass settles reachability from the initial nodes
    reached = [False] * len(comps)
    for u in G.initial:
        reached[comp_of[u]] = True
    ns = G.n_mc()
    records: list[SccRecord] = []
    cond_succ: list[tuple[int, ...]] = []
    for ci, comp in enumerate(comps):
        members = tuple(sorted(comp))
        out: set[int] = set()
        self_arc = False
        for u in members:
            for i in range(offsets[u], offsets[u + 1]):
                cj = comp_of[targets[i]]
                if cj != ci:
                    out.add(cj)
                elif targets[i] == u:
                    self_arc = True
        if reached[ci]:
            for cj in out:
                reached[cj] = True
        records.append(
            SccRecord(
                index=ci,
                members=members,
                projection=frozenset(u % ns for u in members),
                trivial=len(members) == 1 and not self_arc,
                reachable=reached[ci],
            )
        )
        cond_succ.append(tuple(sorted(out)))
    return SccPartition(records, cond_succ)


def is_accepting(G: ProductGraph, record: SccRecord) -> bool:
    """Cycle inside the SCC whose arcs cover every acceptance set."""
    if record.trivial:
        return False
    acc = G.gba.acceptance
    missing = set(range(len(acc)))
    members = set(record.members)
    ns = G.n_mc()
    for u in record.members:
        q, s = divmod(u, ns)
        a = G.letters[s]
        for i in range(G.offsets[u], G.offsets[u + 1]):
            v = G.targets[i]
            if v in members and missing:
                q2 = v // ns
                for k in list(missing):
                    if (q, a, q2) in acc[k]:
                        missing.discard(k)
        if not missing:
            return True
    return not missing


# ---------------------------------------------------------------------------
# Lasso-word membership
# ---------------------------------------------------------------------------


def accepting_states_lasso(A: Gba, word: LassoWord) -> frozenset[int]:
    """All automaton states q such that A started in q accepts the word.

    The word becomes a chain: position i is state "i", labelled by its
    letter, and moves with probability 1 to i + 1, the last position back to
    the first loop position.
    """
    letters = word.letters()
    n = len(letters)
    trans = {(i, i + 1): RF_ONE for i in range(n - 1)}
    trans[(n - 1, len(word.stem))] = RF_ONE
    G = build_product(A, Pmc(tuple(map(str, range(n))), letters, 0, {}, trans))
    partition = scc_decompose(G)
    reaches = partition.reaching({r.index for r in partition.sccs if is_accepting(G, r)})
    return frozenset(
        u // n  # node (q, 0) has id q * n
        for r in partition.sccs
        if reaches[r.index]
        for u in r.members
        if u % n == 0
    )


def accepts_lasso(A: Gba, word: LassoWord) -> bool:
    """Does A accept the ultimately periodic word?"""
    acc = accepting_states_lasso(A, word)
    return any(q in acc for q in A.initial)


# ---------------------------------------------------------------------------
# Completeness
# ---------------------------------------------------------------------------


def is_complete_rd(G: ProductGraph, partition: SccPartition, record: SccRecord) -> bool:
    """SCC-comparison check: C is complete iff no other SCC with the same
    projection precedes it.

    Sound for automata whose reenterable part is reverse deterministic with
    exactly one predecessor per (state, letter); refuses otherwise.  SCCs
    containing nodes over non-reenterable automaton states (the tableau
    initial state) are not valid comparison candidates — at-most-one fails
    there — and are skipped.
    """
    report = G.rd_report()
    if not report.exactly_one:
        raise ReverseDeterminismError(
            "the automaton's reenterable part is not exactly-one reverse "
            "deterministic; use is_complete_oracle"
        )
    ns = G.n_mc()
    reent = report.reenterable
    group = partition.by_projection()[record.projection]
    candidates = [
        i
        for i in group
        if i < record.index  # condensation arcs only go forward
        and all(u // ns in reent for u in partition.sccs[i].members)
    ]
    target = record.index
    seen = set(candidates)
    stack = candidates
    while stack:
        c = stack.pop()
        for d in partition.succ[c]:
            if d == target:
                return False
            if d not in seen and d < target:
                seen.add(d)
                stack.append(d)
    return True


def is_complete_oracle(
    G: ProductGraph, record: SccRecord, budget: int = 200_000
) -> bool:
    """Survivor-set decision of completeness, correct for any automaton.

    Walking a path of H(C) backwards, the survivor set after reading
    s_0 .. s_k is the set of automaton states q such that (q, s_0) in C and
    the path lifts to a C-path starting there.  C is complete iff no
    reachable survivor set is empty.  States are (first chain state, set)
    pairs; at most ``budget`` of them are explored before giving up.
    """
    ns = G.n_mc()
    members = set(record.members)
    K = record.projection
    collect: dict[int, set[int]] = {}
    for u in record.members:
        q, s = divmod(u, ns)
        collect.setdefault(s, set()).add(q)
    qs_of = {s: frozenset(v) for s, v in collect.items()}

    # internal arc structure: preds[(s, t)][q_t] = automaton preds over s
    preds: dict[tuple[int, int], dict[int, set[int]]] = {}
    for u in record.members:
        p, s = divmod(u, ns)
        for i in range(G.offsets[u], G.offsets[u + 1]):
            v = G.targets[i]
            if v in members:
                q, t = divmod(v, ns)
                preds.setdefault((s, t), {}).setdefault(q, set()).add(p)

    # arcs of the chain's induced subgraph on K, as t -> list of s
    k_preds: dict[int, list[int]] = {t: [] for t in K}
    for s in K:
        for t, _ in G.pmc.succ(s):
            if t in K:
                k_preds[t].append(s)

    visited: set[tuple[int, frozenset[int]]] = set()
    work: list[tuple[int, frozenset[int]]] = []
    for t in sorted(K):
        item = (t, qs_of[t])
        visited.add(item)
        work.append(item)
    while work:
        u_state, B = work.pop()
        for s in k_preds[u_state]:
            arc_preds = preds.get((s, u_state), {})
            B2: set[int] = set()
            for q in B:
                B2.update(arc_preds.get(q, ()))
            if not B2:
                return False
            item = (s, frozenset(B2))
            if item not in visited:
                if len(visited) >= budget:
                    raise CompletenessBudgetError(
                        f"survivor-set search exceeded {budget} states"
                    )
                visited.add(item)
                work.append(item)
    return True


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def chain_bottom_sccs(M: Pmc) -> set[frozenset[int]]:
    """The bottom SCCs of the chain's support graph, as state sets."""
    n = M.n_states()
    succ_lists = [[t for t, _ in M.succ(s)] for s in range(n)]
    bottoms: set[frozenset[int]] = set()
    for comp in tarjan(n, succ_lists.__getitem__):
        members = frozenset(comp)
        if all(t in members for u in comp for t in succ_lists[u]):
            bottoms.add(members)
    return bottoms


def classify_locally_positive(
    G: ProductGraph,
    partition: SccPartition,
    use_oracle: bool = False,
) -> tuple[list[SccRecord], list[SccRecord]]:
    """Fill the classification fields of every SCC and return (pos, neg).

    pos: locally positive SCCs; neg: bottom SCCs of the product that are not
    locally positive (their nodes carry probability zero).  Both include
    unreachable SCCs; filter on ``reachable`` for the initial state's view.
    ``accepting`` and ``projection_is_bottom`` are decided for every SCC,
    ``complete`` only where both hold (elsewhere it stays None): by the
    SCC-comparison check when the automaton supports it and by the
    survivor-set oracle otherwise; ``use_oracle`` forces the oracle.
    """
    use_rd = not use_oracle and G.rd_report().exactly_one
    bottoms = chain_bottom_sccs(G.pmc)
    pos: list[SccRecord] = []
    neg: list[SccRecord] = []
    for record in partition.sccs:
        record.accepting = is_accepting(G, record)
        record.projection_is_bottom = record.projection in bottoms
        record.locally_positive = False
        if record.accepting and record.projection_is_bottom:
            if use_rd:
                record.complete = is_complete_rd(G, partition, record)
            else:
                record.complete = is_complete_oracle(G, record)
            record.locally_positive = record.complete
        if record.locally_positive:
            pos.append(record)
        elif not partition.succ[record.index]:
            neg.append(record)
    return pos, neg
