"""Graph queries behind the verification and synthesis stages.

Every function takes the graph as a successor callable: ``succ(node)``
returns the ``(label, successor)`` pairs leaving ``node`` in a fixed order.
Nodes only need to be hashable.  Each traversal is iterative, so graph depth
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


def cyclic_nodes(nodes: Iterable[Hashable], succ: Succ) -> set:
    """Nodes reachable from ``nodes`` that lie on a cycle: the members of
    non-trivial strongly connected components and the nodes with a self-loop
    (Tarjan, SIAM J. Comput. 1972)."""
    index: dict = {}
    low: dict = {}
    component: list = []
    on_component = set()
    cyclic = set()
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        component.append(root)
        on_component.add(root)
        stack = [(root, iter(succ(root)))]
        while stack:
            node, edges = stack[-1]
            for _, nxt in edges:
                if nxt == node:
                    cyclic.add(node)
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    component.append(nxt)
                    on_component.add(nxt)
                    stack.append((nxt, iter(succ(nxt))))
                    break
                if nxt in on_component:
                    low[node] = min(low[node], index[nxt])
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    members = [component.pop()]
                    while members[-1] != node:
                        members.append(component.pop())
                    on_component.difference_update(members)
                    if len(members) > 1:
                        cyclic.update(members)
    return cyclic


def longest_path(nodes: Iterable[Hashable], succ: Succ) -> Optional[int]:
    """Edges on a longest path among the nodes reachable from ``nodes``, or
    None when they contain a cycle (Kahn's topological order)."""
    targets = {n: [m for _, m in succ(n)] for n in reach(nodes, succ)}
    pending = dict.fromkeys(targets, 0)
    for out in targets.values():
        for m in out:
            pending[m] += 1
    ready = [n for n, count in pending.items() if count == 0]
    depth = dict.fromkeys(targets, 0)
    for n in ready:
        for m in targets[n]:
            depth[m] = max(depth[m], depth[n] + 1)
            pending[m] -= 1
            if pending[m] == 0:
                ready.append(m)
    if len(ready) < len(targets):
        return None
    return max(depth.values(), default=0)
