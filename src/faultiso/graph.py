"""Graph queries behind the verification and synthesis stages.

Every function takes the graph as a successor callable: ``succ(node)``
returns the ``(label, successor)`` pairs leaving ``node`` in a fixed order.
Nodes only need to be hashable, except in ``strongly_connected``, which
runs on positions.  Each traversal is iterative, so graph depth
is bounded by memory, not by the interpreter's recursion limit, and each
visits a node's successors in ``succ`` order, so results are deterministic.
"""
from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable, Optional

Succ = Callable[[Hashable], Iterable[tuple[Hashable, Hashable]]]


def reach(roots: Iterable[Hashable], succ: Succ) -> list:
    """Nodes reachable from ``roots``, in breadth-first discovery order.

    ``succ`` is called exactly once per reached node, in that same order, so
    a caller may record the edges it returns as they are produced.
    """
    seen = dict.fromkeys(roots)
    order = list(seen)
    for node in order:
        for _, nxt in succ(node):
            if nxt not in seen:
                seen[nxt] = None
                order.append(nxt)
    return order


def shortest_path(start: Hashable, succ: Succ,
                  is_goal: Callable[[Hashable], bool]) -> Optional[list]:
    """Fewest ``(label, node)`` steps from ``start`` to a goal node, or None.

    The goal test runs on every discovered node before the visited check and
    never on ``start`` itself, so ``is_goal = lambda n: n == start`` yields a
    shortest cycle through ``start``.
    """
    parent = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for label, nxt in succ(node):
            if is_goal(nxt):
                steps = [(label, nxt)]
                while parent[node] is not None:
                    prev, lab = parent[node]
                    steps.append((lab, node))
                    node = prev
                return steps[::-1]
            if nxt not in parent:
                parent[nxt] = (node, label)
                queue.append(nxt)
    return None


def find_cycle(roots: Iterable[Hashable], succ: Succ) -> Optional[list]:
    """The cycle closed by the first back edge of a depth-first search from
    ``roots`` in order, as ``[n0, label1, n1, ..., n0]``; None if acyclic."""
    depth: dict = {}  # node -> stack index while on the stack, None once done
    for root in roots:
        if root in depth:
            continue
        depth[root] = 0
        stack = [(root, None, iter(succ(root)))]
        while stack:
            node, _, edges = stack[-1]
            for label, nxt in edges:
                if nxt not in depth:
                    depth[nxt] = len(stack)
                    stack.append((nxt, label, iter(succ(nxt))))
                    break
                if depth[nxt] is not None:
                    cycle = [nxt]
                    for member, lab, _ in stack[depth[nxt] + 1:]:
                        cycle += [lab, member]
                    return cycle + [label, nxt]
            else:
                depth[node] = None
                stack.pop()
    return None


def strongly_connected(n: int, succ: Callable[[int], Iterable[tuple[Hashable, int]]]) -> list:
    """The strongly connected components of positions ``0 .. n-1``, sinks
    first: every component comes after the components it reaches (Tarjan,
    SIAM J. Comput. 1972).  A position's index is 0 until it is visited and
    ``n + 1`` once its component is out, so a finished position never lowers
    a low-link and no on-stack mark is kept."""
    index, low, component, components = [0] * n, [0] * n, [], []
    count = 0
    for root in range(n):
        if index[root]:
            continue
        count += 1
        index[root] = low[root] = count
        component.append(root)
        stack = [(root, iter(succ(root)))]
        while stack:
            node, edges = stack[-1]
            for _, nxt in edges:
                if not index[nxt]:
                    count += 1
                    index[nxt] = low[nxt] = count
                    component.append(nxt)
                    stack.append((nxt, iter(succ(nxt))))
                    break
                if index[nxt] < low[node]:
                    low[node] = index[nxt]
            else:
                stack.pop()
                if stack and low[node] < low[stack[-1][0]]:
                    low[stack[-1][0]] = low[node]
                if low[node] == index[node]:
                    members = [component.pop()]
                    while members[-1] != node:
                        members.append(component.pop())
                    for m in members:
                        index[m] = n + 1
                    components.append(members)
    return components
