"""Graphviz DOT rendering for diagnosers and bipartite systems.

Y-states (estimates) render as ellipses, Z-states (estimate + decision) as
boxes.  Initial states are blue, marked states green, deadlocks red; good
states are filled and chosen policy edges are bold.  Node order is
deterministic so output can be used in golden tests.
"""
from __future__ import annotations

from typing import Optional

from .diagnosis import Diagnoser
from .errors import InvalidArgumentError
from .synthesis import BTSGraph, SynthesisResult


def _quote(s: str) -> str:
    # backslash first, so the backslash that escapes a quote is not doubled
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


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


def export_bts_dot(bts: BTSGraph, *, result: Optional[SynthesisResult] = None) -> str:
    """Render ``bts``: deadlocked members red (a live graph has none) and,
    with ``result``, good states filled and policy edges bold.  ``result``
    must come from ``good_fixpoint`` on ``bts``; InvalidArgumentError
    otherwise."""
    if result and getattr(result.good_z, "_graph", None) is not bts:
        raise InvalidArgumentError("export_bts_dot takes a result computed on the same graph")
    good_y = result.good_y if result else frozenset()
    policy = dict(result.policy) if result else {}
    is_good = result.good_z._holds if result else lambda e, mask: False
    texts = [str(y) for y in bts.y_states]
    name_of = [_quote(text) for text in texts]
    ys = sorted(range(len(texts)), key=texts.__getitem__)
    # per Y-state by name, its members in decision order: each named once
    rows = [(i, [(dec, e, mask, _quote(dec_text), _quote(f"({texts[i]},{dec_text})"))
                 for dec, e, mask in bts._members_of(i) for dec_text in (str(dec),)])
            for i in ys]
    lines = ["digraph bts {", "  rankdir=LR;"]
    for i in ys:
        y = bts.y_states[i]
        attrs = ["shape=ellipse"]
        if y in bts.initial:
            attrs.append("color=blue")
        if y in bts.marked:
            attrs.append("color=green")
        if y in good_y:
            attrs.append('style=filled, fillcolor=lightblue')
        lines.append(f"  {name_of[i]} [{', '.join(attrs)}];")
    for _, row in rows:
        for _, e, mask, _, z_name in row:
            attrs = ["shape=box"]
            if bts._effects[e].blocked(mask):
                attrs.append("color=red")
            if is_good(e, mask):
                attrs.append('style=filled, fillcolor=lightblue')
            lines.append(f"  {z_name} [{', '.join(attrs)}];")
    for i, row in rows:
        chosen = policy.get(bts.y_states[i])
        for dec, _, _, label, z_name in row:
            attrs = [f"label={label}"]
            if chosen == dec:
                attrs.append("color=red, penwidth=2")
            lines.append(f"  {name_of[i]} -> {z_name} [{', '.join(attrs)}];")
    for _, row in rows:
        for _, e, mask, _, z_name in row:
            for obs, j in bts._effects[e].edges_under(mask):
                lines.append(f"  {z_name} -> {name_of[j]} [label={_quote(obs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
