"""Product of a GBA with a (parametric) Markov chain, SCC classification.

The product graph has one node per (automaton state, chain state) pair —
all pairs, numbered q * |S| + s — and an arc (q,s) -> (q',s') whenever the
chain moves s -> s' with nonzero probability, q' in T(q, L(s)) reading the
*source* state's label (projected onto the automaton's ap set), and q' has
a move on L(s'): T(q', L(s')) is not empty.  A node without a move has no
arcs, value 0 and reaches nothing, so no path between other nodes passes
through it, and leaving out the arcs into it (Couvreur, Saheb and Sutre,
LPAR 2003, trim the product the same way) changes no SCC with a cycle, no
verdict and no value.  Such a node is not reachable unless it is initial.
The trim is one step: a node whose every arc went into such nodes keeps
no arcs, and its value is 0 through the zero set.

``scc_decompose`` returns the SCC partition as arrays over the same node
numbering: each node's SCC and the nodes grouped by SCC, both straight from
``sccs.tarjan``'s one DFS over the CSR arrays, and one reachability flag per
SCC.  It keeps a record only for the SCCs with a cycle: nearly every SCC of
a product is a single node without a self-arc, and such an SCC is never
accepting.  The condensation is read off the CSR arcs.

An SCC C is classified

  * accepting       — C has a cycle and the acceptance masks of its internal
                      arcs' (q, letter, q') edges together set every bit;
  * complete        — every finite path of the chain's induced subgraph on
                      H(C) (C's projection) lifts to a path inside C;
  * locally positive — accepting, complete, and H(C) is a bottom SCC of the
                      chain.

Classification decides completeness only for SCCs that are accepting and
project onto a bottom SCC of the chain, the only ones where it can change
the verdict.  Whether H(C) is a bottom SCC is read off the product (see
``classify_locally_positive``), so an analysis runs one SCC decomposition.

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
from dataclasses import dataclass, replace
from functools import cached_property

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
    targets: array  # CSR arc targets; node (q, s)'s follow chain row s, by successor
    initial: tuple[int, ...]

    def n_mc(self) -> int:
        return self.pmc.n_states()

    def n_nodes(self) -> int:
        return len(self.offsets) - 1

    def n_arcs(self) -> int:
        return len(self.targets)

    def pair(self, node: int) -> tuple[int, int]:
        return divmod(node, self.n_mc())

    def node_name(self, node: int) -> str:
        q, s = self.pair(node)
        return f"({self.gba.states[q]}, {self.pmc.states[s]})"

    def succ(self, u: int):
        return self.targets[self.offsets[u] : self.offsets[u + 1]]

    @cached_property
    def rd_report(self) -> RdReport:
        return check_reverse_deterministic(self.gba)


# Upper bound on the nodes of one product: the CSR offsets take 8 bytes a
# node and the SCC partition's arrays up to 25 more, before any arc.
NODE_BUDGET = 5_000_000


def check_product_size(nq: int, ns: int) -> None:
    """Raise CapacityError if ``nq * ns`` product nodes would exceed ``NODE_BUDGET``."""
    if nq * ns > NODE_BUDGET:
        raise CapacityError(f"product would have {nq * ns} nodes, above the cap of {NODE_BUDGET}")


def build_product(A: Gba, M: Pmc) -> ProductGraph:
    """A x M on all state pairs, arcs in CSR form, each into a node with a
    move.

    Raises CapacityError before allocating anything if |Q| * |S| exceeds
    ``NODE_BUDGET``.
    """
    nq = len(A.states)
    ns = M.n_states()
    check_product_size(nq, ns)
    trans = A.transitions
    letters = tuple(A.letter_mask(M.labels[s]) for s in range(ns))
    mc_succ = [[(t, letters[t]) for t in M.successors(s)] for s in range(ns)]
    # per letter a, the letters b of the chain steps from an a-state to a b-state
    steps: dict[int, set[int]] = {}
    for s in range(ns):
        steps.setdefault(letters[s], set()).update(b for _, b in mc_succ[s])
    # (successor states, letter b) -> q' * ns for each q' among them with a
    # move on b: the arcs that a chain step into a b-state keeps
    live: dict[tuple[tuple[int, ...], int], list[int]] = {}

    offsets = array("q", [0])
    targets = array("q")
    for q in range(nq):
        # per letter a that q moves on, per letter b after it: the kept bases
        moves = {}
        for a, bs in steps.items():
            succs = trans.get((q, a))
            if succs:
                kept = moves[a] = {}
                for b in bs:
                    bases = live.get((succs, b))
                    if bases is None:
                        bases = live[succs, b] = [q2 * ns for q2 in succs if (q2, b) in trans]
                    kept[b] = bases
        for s in range(ns):
            kept = moves.get(letters[s])
            if kept is not None:
                targets.extend([base + t for t, b in mc_succ[s] for base in kept[b]])
            offsets.append(len(targets))
    init = tuple(sorted(q0 * ns + M.initial for q0 in A.initial))
    return ProductGraph(A, M, letters, offsets, targets, init)


# ---------------------------------------------------------------------------
# SCC structure
# ---------------------------------------------------------------------------


@dataclass
class SccRecord:
    """One SCC of the product with a cycle (a block).  ``scc_decompose``
    fills the structural fields; ``classify_locally_positive`` fills the
    verdicts, leaving ``complete`` None where the SCC is not accepting or
    its projection is not a bottom SCC of the chain."""

    index: int  # position in topological order (arcs go to higher indices)
    members: tuple[int, ...]
    projection: frozenset[int]
    trivial: bool  # single node without a self-arc; only ``SccPartition.sccs`` has these
    reachable: bool  # from an initial product node
    accepting: bool | None = None
    complete: bool | None = None
    projection_is_bottom: bool | None = None
    locally_positive: bool | None = None


@dataclass
class SccPartition:
    """The SCCs of a product graph, numbered in topological order: every arc
    goes from an SCC to itself or to one with a higher index.

    SCC i holds the nodes ``order[starts[i]:starts[i + 1]]`` (ascending), and
    ``comp_of[u]`` is the SCC of node u, so the condensation is read off the
    graph's CSR arcs through ``comp_of``.  Only the SCCs with a cycle get a
    record (``blocks``, keyed by index); every other SCC is a single node
    without a self-arc, which is never accepting.
    """

    graph: ProductGraph
    comp_of: array  # per node: its SCC index
    order: array  # the nodes grouped by SCC, ascending within each group
    starts: array  # per SCC index, its first position in ``order``; length len + 1
    reachable: bytearray  # per SCC index: 1 if reached from an initial node
    blocks: dict[int, SccRecord]  # the SCCs with a cycle, by index, ascending

    def __len__(self) -> int:
        return len(self.starts) - 1

    def members(self, i: int) -> array:
        return self.order[self.starts[i] : self.starts[i + 1]]

    def reaching(self, targets: Container[int]) -> bytearray:
        """Per SCC index: 1 if the SCC is reachable from an initial node and
        reaches an SCC whose index is in ``targets`` (itself included); 0
        for every SCC that is not reachable."""
        G = self.graph
        offsets, arcs, comp_of, reachable = G.offsets, G.targets, self.comp_of, self.reachable
        reaches = bytearray(len(self))
        reached, scc_of = reaches.__getitem__, comp_of.__getitem__
        # arcs go to higher indices, so a sweep over the nodes from the last
        # SCC to the first sees every SCC an arc leaves to before the arc;
        # the successors of a reachable SCC are reachable, so skipping the
        # others changes no reachable SCC's value
        for u in reversed(self.order):
            i = comp_of[u]
            if reaches[i] or not reachable[i]:
                continue
            lo, hi = offsets[u], offsets[u + 1]
            if i in targets or (lo != hi and any(map(reached, map(scc_of, arcs[lo:hi])))):
                reaches[i] = 1
        return reaches

    @cached_property
    def sccs(self) -> list[SccRecord]:
        """One record per SCC, in index order: the block where the SCC has a
        cycle, else a trivial record whose verdicts are fixed (not
        accepting, so never complete or locally positive; its projection
        {s} is bottom when s is absorbing).  Built on first use for tests
        and tracing; the pipeline reads the arrays."""
        G = self.graph
        ns = G.n_mc()
        view = []
        for i in range(len(self)):
            record = self.blocks.get(i)
            if record is None:
                u = self.order[self.starts[i]]
                s = u % ns
                record = SccRecord(
                    index=i,
                    members=(u,),
                    projection=frozenset({s}),
                    trivial=True,
                    reachable=bool(self.reachable[i]),
                    accepting=False,
                    projection_is_bottom=all(t == s for t in G.pmc.successors(s)),
                    locally_positive=False,
                )
            view.append(record)
        return view


def scc_decompose(G: ProductGraph) -> SccPartition:
    """``tarjan``'s partition of G, with reachability from the initial
    nodes and a record for each SCC with a cycle."""
    offsets, targets = G.offsets, G.targets
    comp_of, order, starts = tarjan(offsets, targets)
    n_sccs = len(starts) - 1

    # every arc into an SCC comes from an earlier one, so one pass over the
    # nodes in SCC order settles reachability from the initial nodes; the
    # SCCs with a cycle are those of two or more nodes, and the single
    # nodes with a self-arc, which the same pass finds
    reachable = bytearray(n_sccs)
    for u in G.initial:
        reachable[comp_of[u]] = 1
    cyclic = {i for i in range(n_sccs) if starts[i + 1] - starts[i] > 1}
    for u in order:
        lo, hi = offsets[u], offsets[u + 1]
        if lo != hi:
            arcs = targets[lo:hi]
            if reachable[comp_of[u]]:
                for v in arcs:
                    reachable[comp_of[v]] = 1
            if u in arcs:
                cyclic.add(comp_of[u])

    ns = G.n_mc()
    blocks = {}
    for i in sorted(cyclic):
        members = tuple(order[starts[i] : starts[i + 1]])
        blocks[i] = SccRecord(
            index=i,
            members=members,
            projection=frozenset(u % ns for u in members),
            trivial=False,
            reachable=bool(reachable[i]),
        )
    return SccPartition(G, comp_of, order, starts, reachable, blocks)


def is_accepting(G: ProductGraph, record: SccRecord) -> bool:
    """Cycle inside the SCC whose arcs cover every acceptance set."""
    if record.trivial:
        return False
    acc = G.gba.acceptance
    full = (1 << G.gba.n_sets) - 1
    covered = 0
    members = set(record.members)
    ns = G.n_mc()
    for u in record.members:
        q, s = divmod(u, ns)
        a = G.letters[s]
        for i in range(G.offsets[u], G.offsets[u + 1]):
            v = G.targets[i]
            if v in members:
                covered |= acc.get((q, a, v // ns), 0)
        if covered == full:
            return True
    return False


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
    # every automaton state initial, so that every node (q, 0) is reachable
    A = replace(A, initial=tuple(range(len(A.states))))
    G = build_product(A, Pmc(tuple(map(str, range(n))), letters, 0, {}, trans))
    partition = scc_decompose(G)
    reaches = partition.reaching({i for i, r in partition.blocks.items() if is_accepting(G, r)})
    # node (q, 0) has id q * n
    return frozenset(q for q in range(len(A.states)) if reaches[partition.comp_of[q * n]])


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
    report = G.rd_report
    if not report.exactly_one:
        q, a, count = report.violations[0]
        raise ReverseDeterminismError(
            "the automaton's reenterable part is not exactly-one reverse deterministic: "
            f"state {G.gba.states[q]} has {count} predecessors on "
            f"{{{','.join(sorted(G.gba.mask_letter(a)))}}}; use is_complete_oracle"
        )
    ns = G.n_mc()
    reent = report.reenterable
    comp_of, blocks = partition.comp_of, partition.blocks
    target = record.index
    K = record.projection
    # every SCC with projection K has a node over min(K); one without a
    # cycle is a single node, so its projection is K only when |K| = 1
    s0 = min(K)
    candidates: set[int] = set()
    stack: list[int] = []  # one node per candidate, then the nodes they reach
    for q in range(len(G.gba.states)):
        u = q * ns + s0
        i = comp_of[u]
        if i < target and i not in candidates:  # condensation arcs only go forward
            block = blocks.get(i)
            projection = frozenset({s0}) if block is None else block.projection
            if projection == K and all(v // ns in reent for v in partition.members(i)):
                candidates.add(i)
                stack.append(u)
    # search the nodes the candidates reach for an arc into C; each SCC is
    # strongly connected, so one node of it leads to all of it
    seen = set(stack)
    offsets, arcs = G.offsets, G.targets
    while stack:
        u = stack.pop()
        for v in arcs[offsets[u] : offsets[u + 1]]:
            if v not in seen:
                d = comp_of[v]
                if d == target:
                    return False
                if d < target:
                    seen.add(v)
                    stack.append(v)
    return True


# Upper bound on the survivor-set states one completeness decision explores:
# their number can grow exponentially in the automaton's states.
SURVIVOR_BUDGET = 200_000


def is_complete_oracle(G: ProductGraph, record: SccRecord) -> bool:
    """Survivor-set decision of completeness, correct for any automaton.

    Walking a path of H(C) backwards, the survivor set after reading
    s_0 .. s_k is the set of automaton states q such that (q, s_0) in C and
    the path lifts to a C-path starting there.  C is complete iff no
    reachable survivor set is empty.  States are (first chain state, set)
    pairs; at most ``SURVIVOR_BUDGET`` of them are explored before giving up.
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
        for t in G.pmc.successors(s):
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
                if len(visited) >= SURVIVOR_BUDGET:
                    raise CompletenessBudgetError(
                        f"survivor-set search exceeded {SURVIVOR_BUDGET} states"
                    )
                visited.add(item)
                work.append(item)
    return True


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def classify_locally_positive(
    G: ProductGraph,
    partition: SccPartition,
    use_oracle: bool = False,
) -> tuple[list[SccRecord], list[SccRecord]]:
    """Fill the verdicts of every SCC with a cycle (``partition.blocks``) and
    return them split in two: the locally positive ones and the rest.

    Both lists include unreachable SCCs; filter on ``reachable`` for the
    initial state's view.  An SCC without a cycle is never accepting, so it
    gets no verdict here.  ``accepting`` and ``projection_is_bottom`` are
    decided for every block, ``complete`` only where both hold (elsewhere it
    stays None): by the SCC-comparison check when the automaton supports it
    and by the survivor-set oracle otherwise; ``use_oracle`` forces the
    oracle.

    H(C) is a bottom SCC of the chain exactly when no chain arc leaves it:
    every product arc projects onto a chain arc, so H(C) is strongly
    connected, and such a set is a bottom SCC exactly when it is closed
    ({s} when s is absorbing).  Each distinct projection is tested once.
    """
    use_rd = not use_oracle and G.rd_report.exactly_one
    closed: dict[frozenset[int], bool] = {}
    pos: list[SccRecord] = []
    rest: list[SccRecord] = []
    for record in partition.blocks.values():
        record.accepting = is_accepting(G, record)
        proj = record.projection
        bottom = closed.get(proj)
        if bottom is None:
            bottom = closed[proj] = all(t in proj for s in proj for t in G.pmc.successors(s))
        record.projection_is_bottom = bottom
        record.locally_positive = False
        if record.accepting and record.projection_is_bottom:
            if use_rd:
                record.complete = is_complete_rd(G, partition, record)
            else:
                record.complete = is_complete_oracle(G, record)
            record.locally_positive = record.complete
        (pos if record.locally_positive else rest).append(record)
    return pos, rest
