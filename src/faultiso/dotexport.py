"""Graphviz DOT rendering for diagnosers, bipartite systems, and supervisors.

Y-states (estimates) render as ellipses, Z-states (estimate + decision) as
boxes.  Initial states are blue, marked states green, deadlocks red; good
states are filled and chosen policy edges are bold.  Node order is
deterministic so output can be used in golden tests.
"""
from __future__ import annotations

from typing import AbstractSet, Mapping, Optional

from .diagnosis import Diagnoser, StateEstimate
from .synthesis import BTSGraph, SupervisorPolicy, SynthesisResult, ZState


def _quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def export_diagnoser_dot(diag: Diagnoser) -> str:
    # each estimate named once; sorted by its raw name, written quoted
    order = sorted(diag.states, key=str)
    name = {est: _quote(str(est)) for est in order}
    rank = {est: i for i, est in enumerate(order)}
    lines = ["digraph diagnoser {", "  rankdir=LR;"]
    for est in order:
        attrs = ["shape=ellipse"]
        if est == diag.initial:
            attrs.append("color=blue")
        lines.append(f"  {name[est]} [{', '.join(attrs)}];")
    for (src, obs), dst in sorted(diag.transitions.items(),
                                  key=lambda kv: (rank[kv[0][0]], kv[0][1])):
        lines.append(f"  {name[src]} -> {name[dst]} [label={_quote(obs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_bts_dot(bts: BTSGraph,
                   deadlocks: AbstractSet[ZState] = frozenset(),
                   result: Optional[SynthesisResult] = None) -> str:
    good_y = result.good_y if result else frozenset()
    good_z = result.good_z if result else frozenset()
    policy = dict(result.policy) if result else {}
    ys = sorted(bts.y_states, key=str)
    name = {y: _quote(str(y)) for y in ys}
    # per Y-state by name, its Z-states in decision order: each built and named once
    rows = [(y, [(dec, z, _quote(str(z))) for dec in bts.decisions_of(y)
                 for z in (ZState(y, dec),)]) for y in ys]
    lines = ["digraph bts {", "  rankdir=LR;"]
    for y in ys:
        attrs = ["shape=ellipse"]
        if y in bts.initial:
            attrs.append("color=blue")
        if y in bts.marked:
            attrs.append("color=green")
        if y in good_y:
            attrs.append('style=filled, fillcolor=lightblue')
        lines.append(f"  {name[y]} [{', '.join(attrs)}];")
    for _, row in rows:
        for _, z, z_name in row:
            attrs = ["shape=box"]
            if z in deadlocks:
                attrs.append("color=red")
            if z in good_z:
                attrs.append('style=filled, fillcolor=lightblue')
            lines.append(f"  {z_name} [{', '.join(attrs)}];")
    for y, row in rows:
        for dec, _, z_name in row:
            attrs = [f"label={_quote(str(dec))}"]
            if policy.get(y) == dec:
                attrs.append("color=red, penwidth=2")
            lines.append(f"  {name[y]} -> {z_name} [{', '.join(attrs)}];")
    for _, row in rows:
        for _, z, z_name in row:
            for obs, dst in bts.observations_of(z):
                lines.append(f"  {z_name} -> {name[dst]} [label={_quote(obs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_supervisor_dot(policy: SupervisorPolicy,
                          graph: Mapping[StateEstimate, tuple] = None,
                          marked: frozenset[StateEstimate] = frozenset()) -> str:
    """Render the policy: each estimate annotated with its decision, edges per
    observation.  ``graph`` comes from ``synthesis.policy_graph``."""
    graph = graph or {}
    lines = ["digraph supervisor {", "  rankdir=LR;"]
    for est in sorted(graph or policy.decisions, key=str):
        dec = policy.decision_for(est)
        label = f"{est}\\n{dec}"
        attrs = [f"label={_quote(label)}", "shape=ellipse"]
        if est in policy.initial_frontier:
            attrs.append("color=blue")
        if est in marked:
            attrs.append("color=green")
        lines.append(f"  {_quote(str(est))} [{', '.join(attrs)}];")
    for est in sorted(graph, key=str):
        for obs, dst in graph[est]:
            lines.append(f"  {_quote(str(est))} -> {_quote(str(dst))} [label={_quote(obs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"

