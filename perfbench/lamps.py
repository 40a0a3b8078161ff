"""The lamp ladder: the office-lighting case study scaled to ``n`` lamps.

Built from the public ``faultiso.automata`` API only.  ``n`` lamps that can
break down silently while on, a monitor that admits one failure per run,
and a poller that forces one sensor reading ``e<k>`` after every switching
action or failure; the reading is kept only where ``k`` equals the number of
lamps actually lit.  ``lamps_text(3, ...)`` reproduces the bundled
``models/three_lamps.des`` byte for byte, which every benchmark run checks.
"""
from __future__ import annotations

from faultiso.automata import Automaton, Event, EventTable, accessible_part, parallel_compose
from faultiso.modelio import ModelDocument, serialize_model

LAMP_NAMES = "abcdefgh"
THREE_LAMPS_META = ("three-lamps", "office lighting with silent lamp breakdowns "
                    "and a polled intensity sensor")


def _switch(name: str) -> tuple[Event, Event]:
    return (Event(f"{name}_on", observable=True, controllable=True, forcible=True),
            Event(f"{name}_off", observable=True, controllable=True, forcible=True))


def _lamp(index: int, name: str) -> Automaton:
    on, off = _switch(name)
    fault = Event(f"{name}_f", fault_type=index + 1)
    # a dead lamp still accepts switch commands; they just do nothing
    trans = {
        ("off", on.name): "on",
        ("on", off.name): "off",
        ("on", fault.name): "dead",
        ("dead", on.name): "dead",
        ("dead", off.name): "dead",
    }
    return Automaton(EventTable((on, off, fault)), frozenset({"off", "on", "dead"}),
                     "off", trans)


def _monitor(names: str) -> Automaton:
    table = EventTable(tuple(Event(f"{l}_f", fault_type=i + 1) for i, l in enumerate(names)))
    trans = {("m0", f"{l}_f"): f"m{l}" for l in names}
    return Automaton(table, frozenset({"m0"} | {f"m{l}" for l in names}), "m0", trans)


def _poller(names: str) -> Automaton:
    events = []
    trans = {}
    for i, l in enumerate(names):
        events += [*_switch(l), Event(f"{l}_f", fault_type=i + 1)]
        for ev in (f"{l}_on", f"{l}_off", f"{l}_f"):
            trans[("idle", ev)] = "sense"
    for k in range(len(names) + 1):
        events.append(Event(f"e{k}", observable=True))
        trans[("sense", f"e{k}")] = "idle"
    return Automaton(EventTable(tuple(events)), frozenset({"idle", "sense"}), "idle", trans)


def lamps(n: int) -> Automaton:
    """The composed, sensor-filtered, accessible ``n``-lamp plant."""
    if not 1 <= n <= len(LAMP_NAMES):
        raise ValueError(f"lamp count must be in 1..{len(LAMP_NAMES)}")
    names = LAMP_NAMES[:n]
    plant = _lamp(0, names[0])
    for i, l in enumerate(names[1:], start=1):
        plant = parallel_compose(plant, _lamp(i, l))
    plant = parallel_compose(parallel_compose(plant, _monitor(names)), _poller(names))
    trans = {}
    for (src, ev), dst in plant.transitions.items():
        if ev[0] == "e" and ev[1:].isdigit():
            # composite names nest as (((a,b),c),...); lamp states come first
            lit = src.replace("(", "").replace(")", "").split(",")[:n].count("on")
            if ev != f"e{lit}":
                continue
        trans[(src, ev)] = dst
    return accessible_part(Automaton(plant.table, plant.states, plant.initial, trans))


def lamps_text(n: int, name: str, description: str) -> str:
    """``lamps(n)`` serialised in the model grammar, transitions sorted."""
    aut = lamps(n)
    doc = ModelDocument(name, description, aut.table.events, (), aut.initial,
                        tuple(sorted((s, e, d) for (s, e), d in aut.transitions.items())))
    return serialize_model(doc)
