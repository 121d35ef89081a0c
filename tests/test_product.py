from pathlib import Path

import pytest

from pmcsynth.gba import CapacityError, make_gba, translate
from pmcsynth.ltl import parse_formula
from pmcsynth.modelgen import random_mc
from pmcsynth.pmc import parse_model
from pmcsynth.product import (
    CompletenessBudgetError,
    ReverseDeterminismError,
    build_product,
    chain_bottom_sccs,
    classify_locally_positive,
    is_accepting,
    is_complete_oracle,
    is_complete_rd,
    scc_decompose,
)
from pmcsynth.sccs import tarjan

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
    # node/pair round trip and naming
    for u in range(G.n_nodes()):
        q, s = G.pair(u)
        assert G.node(q, s) == u
    q0 = A.initial[0]
    assert G.node_name(G.node(q0, M.initial)) == "(init, s0)"
    assert G.initial == (G.node(q0, M.initial),)


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


def test_build_product_capacity():
    M = load("branch13.pmc")
    A = translate(parse_formula("F success"))
    with pytest.raises(CapacityError):
        build_product(A, M, max_nodes=G_nodes_minus_one(A, M))


def G_nodes_minus_one(A, M):
    return len(A.states) * M.n_states() - 1


def test_scc_partition_is_topological():
    M = load("loop_pair.pmc")
    A = translate(parse_formula("G F x | G F w"))
    G = build_product(A, M)
    part = scc_decompose(G)
    assert sorted(r.index for r in part.sccs) == list(range(len(part.sccs)))
    for r in part.sccs:
        for j in part.succ[r.index]:
            assert j > r.index
    # every node is in exactly one component
    assert sorted(u for r in part.sccs for u in r.members) == list(
        range(G.n_nodes())
    )


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
    pos, neg = classify_locally_positive(G, part)
    ok = M.index("ok")
    assert [r.projection for r in pos if r.reachable] == [frozenset({ok})]
    assert any(r.reachable for r in pos)
    # the failure state's bottom SCC is not accepting
    bad = M.index("bad")
    assert any(r.projection == frozenset({bad}) for r in neg)


def test_rd_and_survivor_deciders_agree_on_tableau_products(rng):
    texts = ["F a", "G F a", "a U b", "F G a"]
    for n in (4, 6, 8):
        for _ in range(6):
            M = random_mc(rng, n)
            for text in texts:
                A = translate(parse_formula(text))
                G = build_product(A, M)
                part = scc_decompose(G)
                for r in part.nontrivial():
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
    want = frozenset(G.pmc.index(n) for n in names)
    found = [r for r in part.nontrivial() if r.projection == want]
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
    with pytest.raises(ReverseDeterminismError):
        is_complete_rd(G, part, c1)


def test_survivor_budget():
    G, part = loop_pair_product()
    c1 = _scc_by_projection(G, part, ["x", "y"])
    with pytest.raises(CompletenessBudgetError):
        is_complete_oracle(G, c1, budget=2)


def test_classify_falls_back_to_survivor_oracle():
    # classify must not raise on a non-reverse-deterministic automaton
    G, part = loop_pair_product()
    pos, neg = classify_locally_positive(G, part)
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
    assert any(r.accepting for r in part.nontrivial() if r.reachable is not None)
    # classified records carry the same verdict as the standalone decider
    for r in part.sccs:
        if r.accepting is not None:
            assert is_accepting(G, r) == r.accepting


def test_chain_bottom_sccs():
    M = load("loop_pair.pmc")
    x, y, z, w = (M.index(n) for n in "xyzw")
    comps = tarjan(M.n_states(), lambda s: [t for t, _ in M.succ(s)])
    assert {frozenset(c) for c in comps} == {frozenset({x, y}), frozenset({z, w})}
    # {x, y} is a component but not a bottom one
    assert chain_bottom_sccs(M) == {frozenset({z, w})}
