"""The graph kernel against brute-force references on small random digraphs."""
from __future__ import annotations

from hypothesis import given, strategies as st

from faultiso.graph import find_cycle, reach, shortest_path, strongly_connected
from oracles import cyclic_nodes, longest_path


@st.composite
def digraphs(draw):
    """Up to 8 nodes with labelled edges; self-loops, parallel edges,
    unreachable nodes and empty root lists all occur."""
    n = draw(st.integers(1, 8))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=14))
    graph = {v: [] for v in range(n)}
    for k, (u, v) in enumerate(edges):
        graph[u].append((f"e{k}", v))
    roots = draw(st.lists(node, max_size=3))
    return graph, roots


def succ_of(graph):
    return lambda v: graph[v]


def naive_reach(graph, roots):
    seen = set(roots)
    while True:
        grown = seen | {w for v in seen for _, w in graph[v]}
        if grown == seen:
            return seen
        seen = grown


def paths_from(graph, start):
    """Every path from ``start`` that repeats no node, except that it may
    end where it began; as node lists with their edge labels."""
    out = []
    stack = [([start], [])]
    while stack:
        nodes, labels = stack.pop()
        out.append((nodes, labels))
        if len(nodes) > 1 and nodes[-1] == start:
            continue
        for label, w in graph[nodes[-1]]:
            if w not in nodes or w == start:
                stack.append((nodes + [w], labels + [label]))
    return out


def on_cycle(graph, v):
    return any(len(nodes) > 1 and nodes[-1] == v for nodes, _ in paths_from(graph, v))


def is_walk(graph, nodes, labels):
    return all((label, w) in graph[v] for v, label, w in zip(nodes, labels, nodes[1:]))


def recursive_first_cycle(graph, roots):
    state = {}

    def visit(v, stack, labels):
        state[v] = "open"
        for label, w in graph[v]:
            if w not in state:
                found = visit(w, stack + [w], labels + [label])
                if found:
                    return found
            elif state[w] == "open":
                i = stack.index(w)
                out = [w]
                for lab, m in zip(labels[i:], stack[i + 1:]):
                    out += [lab, m]
                return out + [label, w]
        state[v] = "done"
        return None

    for r in roots:
        if r not in state:
            found = visit(r, [r], [])
            if found:
                return found
    return None


@given(digraphs())
def test_reach(case):
    graph, roots = case
    calls = []

    def succ(v):
        calls.append(v)
        return graph[v]

    order = reach(roots, succ)
    assert set(order) == naive_reach(graph, roots)
    assert len(order) == len(set(order)) and calls == order
    assert order[:len(set(roots))] == list(dict.fromkeys(roots))
    # breadth-first: distance from the roots never decreases along the order
    dist = dict.fromkeys(roots, 0)
    layer, d = set(roots), 0
    while layer:
        d += 1
        layer = {w for v in layer for _, w in graph[v] if w not in dist}
        dist.update(dict.fromkeys(layer, d))
    assert [dist[v] for v in order] == sorted(dist[v] for v in order)


@given(digraphs(), st.sets(st.integers(0, 7)))
def test_shortest_path(case, goals):
    graph, roots = case
    for start in graph:
        got = shortest_path(start, succ_of(graph), lambda v: v in goals)
        lengths = [len(labels) for nodes, labels in paths_from(graph, start)
                   if labels and nodes[-1] in goals]
        if not lengths:
            assert got is None
            continue
        assert len(got) == min(lengths)
        nodes = [start] + [v for _, v in got]
        assert is_walk(graph, nodes, [label for label, _ in got])
        assert nodes[-1] in goals


@given(digraphs())
def test_shortest_cycle(case):
    graph, _ = case
    for v in graph:
        got = shortest_path(v, succ_of(graph), lambda w: w == v)
        lengths = [len(labels) for nodes, labels in paths_from(graph, v)
                   if len(nodes) > 1 and nodes[-1] == v]
        assert (got is None) == (not lengths)
        if got is not None:
            assert len(got) == min(lengths) and got[-1][1] == v


@given(digraphs())
def test_find_cycle(case):
    graph, roots = case
    got = find_cycle(roots, succ_of(graph))
    reachable = naive_reach(graph, roots)
    assert (got is None) == (not any(on_cycle(graph, v) for v in reachable))
    assert got == recursive_first_cycle(graph, roots)
    if got is not None:
        nodes, labels = got[0::2], got[1::2]
        assert nodes[0] == nodes[-1] and nodes[0] in reachable
        assert len(set(nodes[:-1])) == len(nodes) - 1
        assert is_walk(graph, nodes, labels)


@given(digraphs())
def test_strongly_connected(case):
    graph, _ = case
    components = strongly_connected(len(graph), succ_of(graph))
    assert all(components) and sorted(v for c in components for v in c) == list(graph)
    where = {v: k for k, c in enumerate(components) for v in c}
    reaches = {v: naive_reach(graph, [v]) for v in graph}
    for v in graph:
        for w in graph:
            assert (where[v] == where[w]) == (w in reaches[v] and v in reaches[w])
        # sinks first: an edge stays in its component or enters an earlier one
        assert all(where[w] <= where[v] for _, w in graph[v])


@given(digraphs())
def test_cyclic_nodes(case):
    graph, roots = case
    expected = {v for v in naive_reach(graph, roots) if on_cycle(graph, v)}
    assert cyclic_nodes(roots, succ_of(graph)) == expected


@given(digraphs())
def test_longest_path(case):
    graph, roots = case
    reachable = naive_reach(graph, roots)
    got = longest_path(roots, succ_of(graph))
    if any(on_cycle(graph, v) for v in reachable):
        assert got is None
    else:
        assert got == max((len(labels) for v in reachable
                           for _, labels in paths_from(graph, v)), default=0)
