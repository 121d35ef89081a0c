from collections import Counter, deque

from hypothesis import given
from hypothesis import strategies as st

from pmcsynth.sccs import tarjan


def reference_tarjan(n, successors):
    """The earlier iterative Tarjan, which pushes a (node, successors,
    position) triple on every descent: the output order to keep."""
    index = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    stack = []
    sccs = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, None, 0)]
        while work:
            u, succs, i = work.pop()
            if succs is None:
                index[u] = low[u] = counter
                counter += 1
                stack.append(u)
                on_stack[u] = 1
                succs = successors(u)
            while i < len(succs):
                v = succs[i]
                i += 1
                if index[v] == -1:
                    work.append((u, succs, i))
                    work.append((v, None, 0))
                    break
                if on_stack[v]:
                    low[u] = min(low[u], index[v])
            else:
                if low[u] == index[u]:
                    comp = []
                    while True:
                        v = stack.pop()
                        on_stack[v] = 0
                        comp.append(v)
                        if v == u:
                            break
                    sccs.append(comp)
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[u])
    return sccs


def reachable(succ, u):
    """Nodes reachable from u (u included), breadth first."""
    seen = {u}
    queue = deque([u])
    while queue:
        v = queue.popleft()
        for w in succ[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


@st.composite
def digraphs(draw):
    """Successor lists of a digraph on up to 40 nodes; self-loops and
    repeated arcs included."""
    n = draw(st.integers(0, 40))
    return [draw(st.lists(st.integers(0, n - 1), max_size=4)) for _ in range(n)]


@given(digraphs())
def test_tarjan_matches_reachability(succ):
    n = len(succ)
    calls = Counter()

    def successors(u):
        calls[u] += 1
        return succ[u]

    comps = tarjan(n, successors)
    assert calls == Counter(range(n))  # once per node

    # the components partition the nodes
    assert all(comps)
    comp_of = {}
    for ci, comp in enumerate(comps):
        for u in comp:
            assert u not in comp_of
            comp_of[u] = ci
    assert sorted(comp_of) == list(range(n))

    # two nodes share a component exactly when each reaches the other
    reach = [reachable(succ, u) for u in range(n)]
    for u in range(n):
        for v in range(n):
            assert (comp_of[u] == comp_of[v]) == (v in reach[u] and u in reach[v])

    # every arc that leaves a component points to an earlier one
    for u in range(n):
        for v in succ[u]:
            assert comp_of[v] <= comp_of[u]


@given(digraphs())
def test_tarjan_matches_reference_order(succ):
    assert tarjan(len(succ), succ.__getitem__) == reference_tarjan(len(succ), succ.__getitem__)
