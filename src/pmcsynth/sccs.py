"""Iterative Tarjan SCC decomposition over CSR arrays, shared by the
graph-heavy modules.

``tarjan(offsets, targets)`` is one depth-first search straight over a
graph's CSR arrays, in the single-array form of Pearce ("A space-efficient
algorithm for finding strongly connected components", IPL 2016): one
integer per node holds its DFS index while the node is open and its
component's finish number once the component is complete.  DFS indices are
reused as components complete, so every open index stays below every
finish number, and one comparison tells an open node from a finished one.
The stack of open nodes is the DFS-index order itself, so a completing
component is the top of the stack from its root up.  A node without arcs,
met as a child or taken as a root, is a component of its own at once and
gets no frame: most nodes of a trimmed product are such roots.

Kept free of recursion on purpose: product graphs reach hundreds of
thousands of nodes and Python's recursion limit is not negotiable there.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterable, Sequence, overload


@overload
def tarjan(offsets: Sequence[int], targets: Sequence[int]) -> tuple[array, array, array]: ...


@overload
def tarjan(offsets: int, targets: Callable[[int], Iterable[int]]) -> list[list[int]]: ...


def tarjan(offsets, targets):
    """SCCs of the graph on nodes 0..n-1 whose arcs out of u are
    ``targets[offsets[u]:offsets[u + 1]]`` (n = ``len(offsets) - 1``).

    Returns ``(comp_of, order, starts)``: the SCCs are numbered in
    topological order (every arc goes from an SCC to itself or to one with
    a higher number), ``comp_of[u]`` is the SCC of node u, and SCC i holds
    the nodes ``order[starts[i]:starts[i + 1]]``, ascending.  Roots are
    taken in ascending order and arcs in CSR order, so the numbering is
    that of the classic recursive algorithm.

    ``tarjan(n, successors)``, the earlier form, still works: it lays the
    successor lists out as CSR and returns the SCCs as lists of nodes in
    reverse topological order, each ascending.  ``perfbench/workloads.py``
    calls it so, and the benchmark's files change only with the benchmark.
    """
    if callable(targets):
        return _components(offsets, targets)
    n = len(offsets) - 1
    # -1: not yet visited; below the next finish number: the DFS index of an
    # open node (its low-link while it waits for a child); else the finish
    # number of its component, counted down from n - 1
    rindex = [-1] * n
    stack: list[int] = []  # the open nodes; a node's DFS index is its position
    order = [0] * n  # filled from the end, a completed component at a time
    first = [0] * n  # per finish number: its component's first position in order
    pos = n
    finish = n - 1
    for root in range(n):
        if rindex[root] != -1:
            continue
        lo, hi = offsets[root], offsets[root + 1]
        if lo == hi:  # a root without arcs is completed as such a child is
            rindex[root] = finish
            pos -= 1
            order[pos] = root
            first[finish] = pos
            finish -= 1
            continue
        rindex[root] = 0
        stack.append(root)
        # one (node, its DFS index, iterator over its unread arcs) triple
        # per node on the DFS path; the low-link of the node whose arcs are
        # read is kept in a local, and in rindex while a child is searched
        work = [(root, 0, iter(targets[lo:hi]))]
        while work:
            u, index_u, arcs = work[-1]
            low_u = rindex[u]
            for v in arcs:
                r = rindex[v]
                if r == -1:
                    lo, hi = offsets[v], offsets[v + 1]
                    if lo == hi:  # v has no arcs: a component of its own at once
                        rindex[v] = finish
                        pos -= 1
                        order[pos] = v
                        first[finish] = pos
                        finish -= 1
                        continue
                    # descend into v, resume u's iterator later
                    rindex[u] = low_u
                    rindex[v] = index_v = len(stack)
                    stack.append(v)
                    work.append((v, index_v, iter(targets[lo:hi])))
                    break
                if r < low_u:  # v is open: a finished v's number is above every index
                    low_u = r
            else:  # every arc is read, so u's search is done
                work.pop()
                if low_u == index_u:  # u roots a component: the stack from u up
                    if index_u == len(stack) - 1:
                        stack.pop()
                        rindex[u] = finish
                        pos -= 1
                        order[pos] = u
                    else:
                        comp = stack[index_u:]
                        del stack[index_u:]
                        comp.sort()
                        for v in comp:
                            rindex[v] = finish
                        order[pos - len(comp) : pos] = comp
                        pos -= len(comp)
                    first[finish] = pos
                    finish -= 1
                else:  # u's root is below it on the path
                    rindex[u] = low_u
                    parent = work[-1][0]
                    if low_u < rindex[parent]:
                        rindex[parent] = low_u
    # components completed last come first in topological order, so the
    # finish numbers in use run from finish + 1 to n - 1
    shift = finish + 1
    comp_of = array("q", map((-shift).__add__, rindex))
    starts = array("q", first[shift:])
    starts.append(n)
    return comp_of, array("q", order), starts


def _components(n: int, successors: Callable[[int], Iterable[int]]) -> list[list[int]]:
    offsets = array("q", [0])
    targets = array("q")
    for u in range(n):
        targets.extend(successors(u))
        offsets.append(len(targets))
    _, order, starts = tarjan(offsets, targets)
    return [order[starts[i] : starts[i + 1]].tolist() for i in range(len(starts) - 2, -1, -1)]
