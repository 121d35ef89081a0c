"""Iterative Tarjan SCC decomposition shared by the graph-heavy modules.

Kept free of recursion on purpose: product graphs reach hundreds of
thousands of nodes and Python's recursion limit is not negotiable there.
"""

from __future__ import annotations

from typing import Callable, Iterable


def tarjan(n: int, successors: Callable[[int], Iterable[int]]) -> list[list[int]]:
    """SCCs of the graph on nodes 0..n-1, in reverse topological order.

    (Every arc leaving an SCC points to an SCC that appears *earlier* in the
    returned list.)  ``successors(u)`` is consulted once per node.
    """
    index = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        # one (node, iterator over its unread successors) pair per node on
        # the DFS path; low[u] is kept in a local while u's successors are read
        work = [(root, iter(successors(root)))]
        while work:
            u, succs = work[-1]
            low_u = low[u]
            for v in succs:
                index_v = index[v]
                if index_v == -1:  # descend into v, resume u's iterator later
                    low[u] = low_u
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                    on_stack[v] = 1
                    work.append((v, iter(successors(v))))
                    break
                if index_v < low_u and on_stack[v]:
                    low_u = index_v
            else:  # every successor is done, so u is finished
                work.pop()
                if low_u == index[u]:
                    comp = []
                    while True:
                        v = stack.pop()
                        on_stack[v] = 0
                        comp.append(v)
                        if v == u:
                            break
                    sccs.append(comp)
                else:  # u's root is below it on the path
                    low[u] = low_u
                    parent = work[-1][0]
                    if low_u < low[parent]:
                        low[parent] = low_u
    return sccs
