import random
from array import array
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pmcsynth import eqsys, product
from pmcsynth.gba import CapacityError, elementary, make_gba, translate
from pmcsynth.ltl import parse_formula
from pmcsynth.modelgen import chain_mc, random_mc
from pmcsynth.pmc import parse_model
from pmcsynth.product import (
    CompletenessBudgetError,
    ProductGraph,
    ReverseDeterminismError,
    SccRecord,
    build_product,
    check_product_size,
    classify_locally_positive,
    is_accepting,
    is_complete_oracle,
    is_complete_rd,
    scc_decompose,
)
from pmcsynth.sccs import tarjan
from random_inputs import random_formula
from test_sccs import reference_tarjan

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
    """The joint steps (q,s) -> (q',t) into a node (q',t) with a move."""
    M = load("loop_pair.pmc")
    A = translate(parse_formula("G F x"))
    G = build_product(A, M)
    ns = M.n_states()
    expected = set()
    for q in range(len(A.states)):
        for s in range(ns):
            for q2 in A.transitions.get((q, G.letters[s]), ()):
                for t, _ in M.succ(s):
                    if (q2, G.letters[t]) in A.transitions:
                        expected.add((q * ns + s, q2 * ns + t))
    actual = {(u, v) for u in range(G.n_nodes()) for v in G.succ(u)}
    assert actual == expected
    assert G.n_arcs() == len(expected)


@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.sampled_from(["formula", 0, 1, 3]))
def test_every_arc_goes_into_a_node_with_a_move(seed, n, kind):
    """A translated random formula or a random automaton, on a random chain:
    the automaton state of every arc target moves on the target's letter."""
    rng = random.Random(seed)
    M = random_mc(rng, n)
    A = translate(random_formula(rng)) if kind == "formula" else random_gba(rng, kind)
    G = build_product(A, M)
    ns = M.n_states()
    for v in G.targets:
        q2, t = divmod(v, ns)
        assert (q2, G.letters[t]) in A.transitions


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
    for i in range(len(part)):
        assert bool(part.reachable[i]) == any(u in reachable for u in part.members(i))


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
                for r in part.blocks.values():
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
    found = [r for r in part.blocks.values() if r.projection == want]
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
    assert any(r.accepting for r in part.blocks.values() if r.reachable is not None)
    # classified records carry the same verdict as the standalone decider
    for r in part.sccs:
        if r.accepting is not None:
            assert is_accepting(G, r) == r.accepting


def reference_is_accepting(G, record):
    """The decider the acceptance masks replaced: one set of (q, letter, q')
    triples per acceptance set, probed for each set not yet covered."""
    if record.trivial:
        return False
    A = G.gba
    acc = [frozenset(e for e, m in A.acceptance.items() if m >> k & 1) for k in range(A.n_sets)]
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


def random_gba(rng, n_sets):
    """A random automaton over the chain alphabet {a, b} whose acceptance
    sets each take every edge with probability 1/2, so edges fall in several."""
    states = [f"q{i}" for i in range(rng.randint(1, 4))]
    letters = [(), ("a",), ("b",), ("a", "b")]
    edges = [(p, l, q) for p in states for l in letters for q in states if rng.random() < 0.4]
    sets = [[e for e in edges if rng.random() < 0.5] for _ in range(n_sets)]
    return make_gba(("a", "b"), states, states[:1], edges, sets)


@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.sampled_from(["formula", 0, 1, 3]))
def test_is_accepting_matches_triple_reference(seed, n, kind):
    """Every SCC of random products: a translated random formula, or a
    random automaton with 0, 1 or 3 acceptance sets."""
    rng = random.Random(seed)
    M = random_mc(rng, n)
    if kind == "formula":
        formula = random_formula(rng)
        while len(elementary(formula)) > 4:
            formula = random_formula(rng)
        A = translate(formula)
    else:
        A = random_gba(rng, kind)
    G = build_product(A, M)
    for r in scc_decompose(G).sccs:
        assert is_accepting(G, r) == reference_is_accepting(G, r), r.members


def reference_bottom_sccs(M):
    """The bottom SCCs of the chain's support graph, as state sets, from an
    SCC decomposition of the chain itself."""
    n = M.n_states()
    succ_lists = [[t for t, _ in M.succ(s)] for s in range(n)]
    bottoms = set()
    for comp in reference_tarjan(n, succ_lists.__getitem__):
        members = frozenset(comp)
        if all(t in members for u in comp for t in succ_lists[u]):
            bottoms.add(members)
    return bottoms


def test_chain_bottom_sccs():
    M = load("loop_pair.pmc")
    x, y, z, w = (M.states.index(n) for n in "xyzw")
    comps = reference_tarjan(M.n_states(), lambda s: [t for t, _ in M.succ(s)])
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
    assert {(True, False, True), (True, False, False)} <= seen
    assert (False, True, True) in seen and (False, True, False) in seen
    _assert_bottom_projections(*loop_pair_product())

    # an absorbing initial state: the tableau's initial node is reachable,
    # and trivial over a bottom projection, since no arc enters it
    M = parse_model("pmc\nstate s {a};\nstate t {};\ninit s;\ntrans s -> s : 1;\ntrans t -> s : 1;")
    A = translate(parse_formula("F a"))
    G = build_product(A, M)
    part = scc_decompose(G)
    _assert_bottom_projections(G, part)
    [u0] = G.initial
    init = part.sccs[part.comp_of[u0]]
    assert (init.trivial, init.reachable, init.projection_is_bottom) == (True, True, True)


def test_analyze_decomposes_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return tarjan(*args)

    monkeypatch.setattr(product, "tarjan", counting)
    eqsys.analyze(load("loop_pair.pmc"), parse_formula("G F x"))
    assert len(calls) == 1


def reference_scc_decompose(G):
    """The record-per-SCC decomposition the array partition replaced: one
    SccRecord for every SCC, trivial ones included, in topological order,
    and each SCC's condensation successors as a sorted tuple."""
    n = G.n_nodes()
    offsets, targets = G.offsets, G.targets
    comps = reference_tarjan(n, G.succ)
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


def reference_reaching(part, targets):
    """The sweep that ``SccPartition.reaching`` replaced, over every SCC,
    reachable or not."""
    reaches = bytearray(len(part))
    for u in reversed(part.order):
        i = part.comp_of[u]
        if i in targets or any(reaches[part.comp_of[v]] for v in part.graph.succ(u)):
            reaches[i] = 1
    return reaches


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

    # reaching agrees with the full sweep on the reachable SCCs, and is 0 on the others
    targets = {i for i in range(len(part)) if rng.random() < 0.1}
    full = reference_reaching(part, targets)
    assert list(part.reaching(targets)) == [v & part.reachable[i] for i, v in enumerate(full)]


def reference_build_product(A, M):
    """The builder before arcs into nodes without a move were left out: an
    arc for every joint step."""
    nq = len(A.states)
    ns = M.n_states()
    check_product_size(nq, ns)
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


def _formula(rng, ap):
    formula = random_formula(rng, ap)
    while not 1 <= len(elementary(formula)) <= 5:
        formula = random_formula(rng, ap)
    return formula


def _trim_cases(rng):
    """(automaton, chain, evaluations): seeded random and sparse chains with
    random formulas, and the bundled models with random formulas over their
    labels and with the hand-built loop automaton."""
    for n in (2, 3, 5, 8, 12):
        for _ in range(6):
            yield translate(_formula(rng, ("a", "b"))), random_mc(rng, n), [{}]
    for n in (6, 15, 30):
        for _ in range(4):
            yield translate(_formula(rng, ("a",))), chain_mc(rng, n), [{}]
    labels = ("x", "y", "z", "w")
    for name, ap in (("loop_pair.pmc", labels), ("split_cycle.pmc", labels),
                     ("branch13.pmc", ("success",))):
        M = load(name)
        evaluations = [{}]
        if M.params:
            evaluations = [{"eps": Fraction(rng.randint(-7, 7), 16)} for _ in range(3)]
        for _ in range(6):
            yield translate(_formula(rng, ap)), M, evaluations
    yield loop_automaton(), load("loop_pair.pmc"), [{}]


def test_trimmed_product_agrees_with_the_full_product(rng):
    """Leaving out the arcs into nodes without a move changes no SCC with a
    cycle, no verdict and no value: it takes the arcless non-initial nodes
    out of the reachable part, and out of the zero set."""
    for A, M, evaluations in _trim_cases(rng):
        G, full = build_product(A, M), reference_build_product(A, M)
        ns = M.n_states()
        moves = [(v // ns, G.letters[v % ns]) in A.transitions for v in range(G.n_nodes())]
        assert G.n_nodes() == full.n_nodes() and G.initial == full.initial
        for u in range(G.n_nodes()):
            assert list(G.succ(u)) == [v for v in full.succ(u) if moves[v]]
        gone = {u for u in range(G.n_nodes()) if not moves[u] and u not in G.initial}
        for use_oracle in (False, True):
            systems = [eqsys.build_system(g, use_oracle=use_oracle) for g in (G, full)]
            trimmed, reference = systems
            assert len(trimmed.partition) == len(reference.partition)
            verdicts = [
                {
                    r.members: (r.reachable, r.accepting, r.complete, r.projection_is_bottom,
                                r.locally_positive)
                    for r in system.partition.blocks.values()
                }
                for system in systems
            ]
            assert verdicts[0] == verdicts[1], (A.states, M.states)
            assert set(trimmed.zeros) == set(reference.zeros) - gone
        for evaluation in evaluations:
            got = eqsys.solve_concrete(trimmed, evaluation)
            want = eqsys.solve_concrete(reference, evaluation)
            assert got.target == want.target
            assert set(got.mu) == set(want.mu) - gone
            assert all(want.mu[u] == value for u, value in got.mu.items())
