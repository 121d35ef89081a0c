from array import array
from collections import deque

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


def csr(succ):
    """The successor lists as CSR arrays (offsets, targets)."""
    offsets, targets = [0], []
    for vs in succ:
        targets += vs
        offsets.append(len(targets))
    return array("q", offsets), array("q", targets)


@st.composite
def digraphs(draw):
    """Successor lists of a digraph on up to 40 nodes; self-loops and
    repeated arcs included."""
    n = draw(st.integers(0, 40))
    return [draw(st.lists(st.integers(0, n - 1), max_size=4)) for _ in range(n)]


@given(digraphs())
def test_tarjan_matches_reachability(succ):
    n = len(succ)
    comp_of, order, starts = tarjan(*csr(succ))

    # order lists every node once, each SCC ascending, and comp_of agrees
    assert sorted(order) == list(range(n))
    assert starts[0] == 0 and starts[-1] == n
    for i in range(len(starts) - 1):
        members = list(order[starts[i] : starts[i + 1]])
        assert members and members == sorted(members)
        assert all(comp_of[u] == i for u in members)

    # two nodes share an SCC exactly when each reaches the other
    reach = [reachable(succ, u) for u in range(n)]
    for u in range(n):
        for v in range(n):
            assert (comp_of[u] == comp_of[v]) == (v in reach[u] and u in reach[v])

    # every arc goes to its own SCC or to a later one
    for u in range(n):
        for v in succ[u]:
            assert comp_of[u] <= comp_of[v]


@st.composite
def mostly_arcless_digraphs(draw):
    """Successor lists on up to 40 nodes of which at most a third have arcs,
    so that most nodes, and most DFS roots, have none."""
    n = draw(st.integers(1, 40))
    live = draw(st.sets(st.integers(0, n - 1), max_size=n // 3))
    arcs = st.lists(st.integers(0, n - 1), max_size=4)
    return [draw(arcs) if u in live else [] for u in range(n)]


@given(st.one_of(digraphs(), mostly_arcless_digraphs()))
def test_tarjan_matches_reference_order(succ):
    """The SCCs are the reference's, numbered in the reverse of the order
    it completes them, also where most roots are completed without a frame."""
    comp_of, order, starts = tarjan(*csr(succ))
    reference = reference_tarjan(len(succ), succ.__getitem__)[::-1]
    assert [list(order[starts[i] : starts[i + 1]]) for i in range(len(starts) - 1)] == [
        sorted(comp) for comp in reference
    ]


@given(digraphs())
def test_tarjan_reads_successor_callables(succ):
    """``tarjan(n, successors)``: the same SCCs as lists, in reverse
    topological order."""
    _, order, starts = tarjan(*csr(succ))
    assert tarjan(len(succ), succ.__getitem__) == [
        list(order[starts[i] : starts[i + 1]]) for i in range(len(starts) - 2, -1, -1)
    ]


def test_tarjan_needs_no_recursion():
    """A path of 100,000 nodes is searched 100,000 deep: one SCC when the
    last node points back to the first, one per node in path order when
    it does not."""
    n = 100_000
    succ = [[u + 1] for u in range(n - 1)] + [[0]]
    comp_of, order, starts = tarjan(*csr(succ))
    assert list(starts) == [0, n] and not any(comp_of)
    succ[-1] = []
    comp_of, order, starts = tarjan(*csr(succ))
    assert list(comp_of) == list(order) == list(range(n)) and list(starts) == list(range(n + 1))
