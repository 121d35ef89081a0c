"""Iterative Tarjan SCC decomposition shared by the graph-heavy modules.

Kept free of recursion on purpose: product graphs reach hundreds of
thousands of nodes and Python's recursion limit is not negotiable there.
"""

from __future__ import annotations

from typing import Callable, Sequence


def tarjan(n: int, successors: Callable[[int], Sequence[int]]) -> list[list[int]]:
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
        # work items: (node, its successors or None before its visit, position)
        work: list[tuple[int, Sequence[int] | None, int]] = [(root, None, 0)]
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
            else:  # every successor is done, so u is finished
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
