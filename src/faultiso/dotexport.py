"""Graphviz DOT rendering for diagnosers and bipartite systems.

Y-states (estimates) render as ellipses, Z-states (estimate + decision) as
boxes.  Initial states are blue, marked states green, deadlocks red; good
states are filled and chosen policy edges are bold.  Node order is
deterministic so output can be used in golden tests.  Both renderers format
text straight from what the graphs store: no estimate is interned and no
decision or Z-state is built.
"""
from __future__ import annotations

from typing import Optional

from .diagnosis import Diagnoser
from .errors import InvalidArgumentError
from .synthesis import BTSGraph, SynthesisResult

_GOOD = ", style=filled, fillcolor=lightblue"


def _escape(s: str) -> str:
    # backslash first, so the backslash that escapes a quote is not doubled
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _quote(s: str) -> str:
    return '"' + _escape(s) + '"'


class _Escaped(dict):
    """Event names and their escaped text, each escaped on first use."""

    def __missing__(self, name: str) -> str:
        self[name] = text = _escape(name)
        return text


def export_diagnoser_dot(diag: Diagnoser) -> str:
    # names joined on the estimate graph's masks; sorted by raw name, then
    # by position, and written quoted
    states, rows = diag.states, diag.transitions._rows
    texts = states._index.printed(states._masks)
    name = [_quote(text) for text in texts]
    order = sorted(range(len(texts)), key=texts.__getitem__)
    label = {obs: _quote(obs) for obs in diag.alphabet}
    lines = ["digraph diagnoser {", "  rankdir=LR;"]
    lines += [f"  {name[i]} [shape=ellipse{', color=blue' if i == 0 else ''}];" for i in order]
    for i in order:  # each row is in event order
        src = name[i]
        lines += [f"  {src} -> {name[j]} [label={label[obs]}];" for obs, j in rows[i].items()]
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
    is_good = result.good_z._holds if result else lambda e, mask: False
    chosen = {y: (dec.enforce, tuple(sorted(dec.disable)))
              for y, dec in (result.policy.items() if result else ())}
    ys, effects, esc = bts.y_states, bts._effects, _Escaped()
    texts = [str(y) for y in ys]
    inner = [_escape(text) for text in texts]
    name_of = [f'"{text}"' for text in inner]
    lines = ["digraph bts {", "  rankdir=LR;"]
    boxes: list[str] = []
    picks: list[str] = []
    edges: list[str] = []
    for i in sorted(range(len(ys)), key=texts.__getitem__):
        y, y_name, z_open = ys[i], name_of[i], f'"({inner[i]},'
        attrs = "shape=ellipse"
        if y in bts.initial:
            attrs += ", color=blue"
        if y in bts.marked:
            attrs += ", color=green"
        if y in good_y:
            attrs += _GOOD
        lines.append(f"  {y_name} [{attrs}];")
        pick, shared = chosen.get(y), {}
        for ev, names, e, mask in bts._members_of(i):
            dec = f"<{esc[ev or '~']},{{{','.join(map(esc.__getitem__, names))}}}>"
            z = f"{z_open}{dec})\""
            at = shared.get((e, mask))
            if at is None:  # once per member of the effect, whatever free events it adds
                eff = effects[e]
                at = shared[e, mask] = (
                    f"shape=box{', color=red' if eff.blocked(mask) else ''}"
                    f"{_GOOD if is_good(e, mask) else ''}",
                    [f' -> {name_of[j]} [label="{esc[obs]}"];' for obs, j in eff.edges_under(mask)])
            boxes.append(f"  {z} [{at[0]}];")
            bold = ", color=red, penwidth=2" if (ev, names) == pick else ""
            picks.append(f'  {y_name} -> {z} [label="{dec}"{bold}];')
            edges += [f"  {z}{tail}" for tail in at[1]]
    lines += boxes
    lines += picks
    lines += edges
    lines.append("}")
    return "\n".join(lines) + "\n"
