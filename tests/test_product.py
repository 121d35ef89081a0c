import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pmcsynth import eqsys, product
from pmcsynth.gba import CapacityError, elementary, make_gba, translate
from pmcsynth.ltl import parse_formula
from pmcsynth.modelgen import random_mc
from pmcsynth.pmc import parse_model
from pmcsynth.product import (
    CompletenessBudgetError,
    ReverseDeterminismError,
    SccRecord,
    build_product,
    classify_locally_positive,
    is_accepting,
    is_complete_oracle,
    is_complete_rd,
    scc_decompose,
)
from pmcsynth.sccs import tarjan
from random_inputs import random_formula

MODELS = Path(__file__).resolve().parent.parent / "models"


def load(name):
    return parse_model((MODELS / name).read_text())


def loop_automaton():
    """Three automaton states over the four-letter chain alphabet; the
    reenterable part is at-most-one but not exactly-one reverse
    deterministic."""
    return make_gba(
        ap=("w", "x", "y", "z"),
        states=("q1", "q2", "q3"),
        initial=("q1",),
        edges=[
            ("q1", {"x"}, "q2"),
            ("q1", {"w"}, "q2"),
            ("q2", {"y"}, "q1"),
            ("q2", {"z"}, "q1"),
            ("q2", {"y"}, "q3"),
            ("q3", {"y"}, "q2"),
        ],
        acceptance=[[("q2", {"y"}, "q1")]],
    )


def test_build_product_shape():
    M = load("branch13.pmc")
    A = translate(parse_formula("F success"))
    G = build_product(A, M)
    assert G.n_nodes() == len(A.states) * M.n_states()
    q0 = A.initial[0]
    u0 = q0 * M.n_states() + M.initial
    assert G.pair(u0) == (q0, M.initial)
    assert G.node_name(u0) == "(init, s0)"
    assert G.initial == (u0,)


def test_build_product_arcs_are_exactly_the_joint_steps():
    M = load("loop_pair.pmc")
    A = translate(parse_formula("G F x"))
    G = build_product(A, M)
    ns = M.n_states()
    expected = set()
    for q in range(len(A.states)):
        for s in range(ns):
            for q2 in A.transitions.get((q, G.letters[s]), ()):
                for t, _ in M.succ(s):
                    expected.add((q * ns + s, q2 * ns + t))
    actual = {(u, v) for u in range(G.n_nodes()) for v in G.succ(u)}
    assert actual == expected
    assert G.n_arcs() == len(expected)


def test_build_product_capacity(monkeypatch):
    M = load("branch13.pmc")
    A = translate(parse_formula("F success"))
    monkeypatch.setattr(product, "NODE_BUDGET", G_nodes_minus_one(A, M))
    with pytest.raises(CapacityError):
        build_product(A, M)


def G_nodes_minus_one(A, M):
    return len(A.states) * M.n_states() - 1


def test_scc_partition_is_topological():
    M = load("loop_pair.pmc")
    A = translate(parse_formula("G F x | G F w"))
    G = build_product(A, M)
    part = scc_decompose(G)
    for u in range(G.n_nodes()):
        for v in G.succ(u):
            assert part.comp_of[v] >= part.comp_of[u]
    # every node is in exactly one component, listed under it
    assert sorted(part.order) == list(range(G.n_nodes()))
    for i in range(len(part)):
        members = list(part.members(i))
        assert members == sorted(members) and members
        assert all(part.comp_of[u] == i for u in members)
    assert [r.index for r in part.sccs] == list(range(len(part)))


def test_reachable_flags():
    M = load("branch13.pmc")
    A = translate(parse_formula("F success"))
    G = build_product(A, M)
    part = scc_decompose(G)
    reachable = set()
    stack = list(G.initial)
    while stack:
        u = stack.pop()
        if u in reachable:
            continue
        reachable.add(u)
        stack.extend(G.succ(u))
    for r in part.sccs:
        assert r.reachable == any(u in reachable for u in r.members)


def test_classification_on_branching_chain():
    # initial state branches 1/3 to an absorbing success state and 2/3 to an
    # absorbing failure state; eventually-success must have exactly one
    # locally positive SCC, over the success state.
    M = load("branch13.pmc")
    A = translate(parse_formula("F success"))
    G = build_product(A, M)
    part = scc_decompose(G)
    pos, _ = classify_locally_positive(G, part)
    ok = M.states.index("ok")
    assert [r.projection for r in pos if r.reachable] == [frozenset({ok})]
    assert any(r.reachable for r in pos)
    # the failure state's bottom SCC is not accepting
    bad = M.states.index("bad")
    assert any(
        r.projection == frozenset({bad}) and not r.locally_positive
        for r in part.sccs
        if all(part.comp_of[v] == r.index for u in r.members for v in G.succ(u))
    )


def test_rd_and_survivor_deciders_agree_on_tableau_products(rng):
    texts = ["F a", "G F a", "a U b", "F G a"]
    for n in (4, 6, 8):
        for _ in range(6):
            M = random_mc(rng, n)
            for text in texts:
                A = translate(parse_formula(text))
                G = build_product(A, M)
                part = scc_decompose(G)
                for r in [r for r in part.sccs if not r.trivial]:
                    if not r.reachable:
                        continue
                    assert is_complete_rd(G, part, r) == is_complete_oracle(G, r), (
                        text,
                        r.members,
                    )
                # completeness is decided exactly where the verdict needs it
                classify_locally_positive(G, part)
                for r in part.sccs:
                    assert r.locally_positive == (
                        r.accepting and r.projection_is_bottom and is_complete_oracle(G, r)
                    ), (text, r.members)
                    if not (r.accepting and r.projection_is_bottom):
                        assert r.complete is None, (text, r.members)


def loop_pair_product():
    M = load("loop_pair.pmc")
    A = loop_automaton()
    G = build_product(A, M)
    return G, scc_decompose(G)


def _scc_by_projection(G, part, names):
    want = frozenset(G.pmc.states.index(n) for n in names)
    found = [r for r in part.sccs if not r.trivial and r.projection == want]
    assert len(found) == 1
    return found[0]


def test_survivor_oracle_on_hand_built_loop():
    # Both nontrivial SCCs of this product are incomplete: the chain can
    # read "x y y x" (resp. "z z") but no run of the automaton lifts it.
    G, part = loop_pair_product()
    c1 = _scc_by_projection(G, part, ["x", "y"])
    c2 = _scc_by_projection(G, part, ["z", "w"])
    assert not is_complete_oracle(G, c1)
    assert not is_complete_oracle(G, c2)
    # the comparison shortcut refuses: this automaton is not exactly-one
    with pytest.raises(ReverseDeterminismError, match=r"state q1 has 0 predecessors on \{\}"):
        is_complete_rd(G, part, c1)


def test_survivor_budget(monkeypatch):
    G, part = loop_pair_product()
    c1 = _scc_by_projection(G, part, ["x", "y"])
    monkeypatch.setattr(product, "SURVIVOR_BUDGET", 2)
    with pytest.raises(CompletenessBudgetError):
        is_complete_oracle(G, c1)


def test_classify_falls_back_to_survivor_oracle():
    # classify must not raise on a non-reverse-deterministic automaton
    G, part = loop_pair_product()
    pos, _ = classify_locally_positive(G, part)
    assert pos == []
    assert not any(r.reachable for r in pos)
    c1 = _scc_by_projection(G, part, ["x", "y"])
    assert c1.accepting and not c1.complete and not c1.projection_is_bottom
    c2 = _scc_by_projection(G, part, ["z", "w"])
    assert c2.projection_is_bottom and not c2.accepting


def test_is_accepting_covers_all_sets():
    M = load("loop_pair.pmc")
    A = translate(parse_formula("G F x & G F y"))
    G = build_product(A, M)
    part = scc_decompose(G)
    pos, _ = classify_locally_positive(G, part)
    # x and y recur only in the chain SCC {x, y}, which is not bottom, so
    # nothing is locally positive; but some SCC still satisfies both
    # acceptance sets in its cycles
    assert [r for r in pos if r.reachable] == []
    assert any(r.accepting for r in part.sccs if not r.trivial and r.reachable is not None)
    # classified records carry the same verdict as the standalone decider
    for r in part.sccs:
        if r.accepting is not None:
            assert is_accepting(G, r) == r.accepting


def reference_bottom_sccs(M):
    """The bottom SCCs of the chain's support graph, as state sets, from an
    SCC decomposition of the chain itself."""
    n = M.n_states()
    succ_lists = [[t for t, _ in M.succ(s)] for s in range(n)]
    bottoms = set()
    for comp in tarjan(n, succ_lists.__getitem__):
        members = frozenset(comp)
        if all(t in members for u in comp for t in succ_lists[u]):
            bottoms.add(members)
    return bottoms


def test_chain_bottom_sccs():
    M = load("loop_pair.pmc")
    x, y, z, w = (M.states.index(n) for n in "xyzw")
    comps = tarjan(M.n_states(), lambda s: [t for t, _ in M.succ(s)])
    assert {frozenset(c) for c in comps} == {frozenset({x, y}), frozenset({z, w})}
    # {x, y} is a component but not a bottom one
    assert reference_bottom_sccs(M) == {frozenset({z, w})}


def _assert_bottom_projections(G, part):
    classify_locally_positive(G, part)
    bottoms = reference_bottom_sccs(G.pmc)
    for r in part.sccs:
        assert r.projection_is_bottom == (r.projection in bottoms), r.members


def test_bottom_projection_matches_chain_decomposition(rng):
    seen = set()  # (trivial, reachable, bottom) kinds of SCC met
    for n in (3, 5, 8, 12):
        for _ in range(8):
            M = random_mc(rng, n)
            for text in ("F a", "G F a", "a U b", "F G a"):
                G = build_product(translate(parse_formula(text)), M)
                part = scc_decompose(G)
                _assert_bottom_projections(G, part)
                seen.update((r.trivial, r.reachable, r.projection_is_bottom) for r in part.sccs)
    # absorbing chain states give trivial SCCs over a bottom projection
    assert {(True, False, True), (True, True, True), (True, False, False)} <= seen
    assert (False, True, True) in seen and (False, True, False) in seen
    _assert_bottom_projections(*loop_pair_product())


def test_analyze_decomposes_once(monkeypatch):
    calls = []

    def counting(n, successors):
        calls.append(n)
        return tarjan(n, successors)

    monkeypatch.setattr(product, "tarjan", counting)
    eqsys.analyze(load("loop_pair.pmc"), parse_formula("G F x"))
    assert len(calls) == 1


def reference_scc_decompose(G):
    """The record-per-SCC decomposition the array partition replaced: one
    SccRecord for every SCC, trivial ones included, in topological order,
    and each SCC's condensation successors as a sorted tuple."""
    n = G.n_nodes()
    offsets, targets = G.offsets, G.targets
    comps = tarjan(n, G.succ)
    comps.reverse()  # topological: arcs point to later components
    comp_of = [0] * n
    for ci, comp in enumerate(comps):
        for u in comp:
            comp_of[u] = ci
    reached = [False] * len(comps)
    for u in G.initial:
        reached[comp_of[u]] = True
    ns = G.n_mc()
    records, cond_succ = [], []
    for ci, comp in enumerate(comps):
        members = tuple(sorted(comp))
        out = set()
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
    return records, cond_succ


def reference_classify(G, records):
    """Fill every record's verdicts from the definitions: the chain's own
    bottom SCCs and the survivor-set completeness decider."""
    bottoms = reference_bottom_sccs(G.pmc)
    for r in records:
        r.accepting = is_accepting(G, r)
        r.projection_is_bottom = r.projection in bottoms
        if r.accepting and r.projection_is_bottom:
            r.complete = is_complete_oracle(G, r)
        r.locally_positive = bool(r.complete)


@given(st.integers(0, 2**32 - 1), st.integers(1, 7))
def test_array_partition_matches_reference(seed, n):
    rng = random.Random(seed)
    M = random_mc(rng, n)
    formula = random_formula(rng)
    while len(elementary(formula)) > 4:
        formula = random_formula(rng)
    G = build_product(translate(formula), M)
    part = scc_decompose(G)
    records, cond_succ = reference_scc_decompose(G)

    assert len(part) == len(records)
    assert list(part.comp_of) == [
        r.index for u in range(G.n_nodes()) for r in records if u in r.members
    ]
    for r in records:
        i = r.index
        assert tuple(part.members(i)) == r.members
        assert part.reachable[i] == r.reachable
        out = {part.comp_of[v] for u in part.members(i) for v in G.succ(u)} - {i}
        assert sorted(out) == list(cond_succ[i])
        assert (i in part.blocks) == (not r.trivial)

    classify_locally_positive(G, part)
    reference_classify(G, records)
    assert list(part.blocks.values()) == [r for r in records if not r.trivial]
    assert part.sccs == records
