"""Ready-made example systems used by the demos, the tests and the docs.

``twin_branch`` is a small two-fault plant whose branches stay observationally
twinned until the supervisor intervenes; it exercises every stage of the
pipeline and is the worked example in the README.

``lamps(n)`` is the office-lighting case study scaled to ``n`` lamps: lamps
that can break down silently while on, a light-intensity sensor, and a
polling cycle that forces a reading after every switching action or failure.
Which lamp failed can only be told apart by actively switching lamps off and
watching the light level.  ``lamps(3)`` is the bundled
``models/three_lamps.des``.
"""
from __future__ import annotations

from functools import reduce

from .automata import Automaton, Event, EventTable, accessible_part, parallel_compose
from .errors import InvalidArgumentError
from .modelio import ModelDocument, serialize_model, to_system


def twin_branch_document() -> ModelDocument:
    events = (
        Event("sf1", fault_type=1),
        Event("sf2", fault_type=2),
        Event("a", forcible=True),
        Event("o1", observable=True, forcible=True),
        Event("o2", observable=True, forcible=True),
        Event("o3", observable=True, controllable=True, forcible=True),
        Event("o4", observable=True),
    )
    transitions = (
        ("0", "sf1", "1"), ("0", "sf2", "6"),
        ("1", "o1", "1"), ("1", "o2", "2"),
        ("6", "o1", "6"), ("6", "o2", "7"),
        ("2", "o3", "3"), ("2", "a", "4"),
        ("7", "o3", "8"), ("7", "a", "11"),
        ("4", "o4", "5"), ("11", "o4", "9"),
        ("5", "o3", "5"), ("9", "o3", "9"),
        ("3", "o1", "3"), ("8", "o2", "8"),
    )
    return ModelDocument(
        name="twin-branch",
        description="two fault classes, twinned until actively separated",
        events=events,
        explicit_states=(),
        initial="0",
        transitions=transitions,
    )


def twin_branch() -> tuple[Automaton, EventTable]:
    return to_system(twin_branch_document())


# -- the office-lighting case study, scaled to n lamps ---------------------------

LAMP_NAMES = "abcdefgh"


def _lamp_events(i: int, name: str) -> tuple[Event, Event, Event]:
    return (Event(f"{name}_on", observable=True, controllable=True, forcible=True),
            Event(f"{name}_off", observable=True, controllable=True, forcible=True),
            Event(f"{name}_f", fault_type=i + 1))


def _lamp(i: int, name: str) -> Automaton:
    on, off, fault = (e.name for e in _lamp_events(i, name))
    # a dead lamp still accepts switch commands; they just do nothing
    trans = {("off", on): "on", ("on", off): "off", ("on", fault): "dead",
             ("dead", on): "dead", ("dead", off): "dead"}
    return Automaton(EventTable(_lamp_events(i, name)), frozenset({"off", "on", "dead"}),
                     "off", trans)


def _monitor(names: str) -> Automaton:
    # at most one lamp fails per run
    table = EventTable(tuple(_lamp_events(i, l)[2] for i, l in enumerate(names)))
    trans = {("m0", f"{l}_f"): f"m{l}" for l in names}
    return Automaton(table, frozenset({"m0"} | {f"m{l}" for l in names}), "m0", trans)


def _poller(names: str) -> Automaton:
    # every switching action or failure forces one sensor reading before the
    # next action; which reading is possible is filtered in afterwards
    events = [e for i, l in enumerate(names) for e in _lamp_events(i, l)]
    trans = {("idle", e.name): "sense" for e in events}
    for k in range(len(names) + 1):
        events.append(Event(f"e{k}", observable=True))
        trans[("sense", f"e{k}")] = "idle"
    return Automaton(EventTable(tuple(events)), frozenset({"idle", "sense"}), "idle", trans)


def lamps(n: int) -> Automaton:
    """``n`` lamps, the single-fault monitor and the polling cycle composed,
    keeping only the reading ``e<k>`` with ``k`` lamps lit; accessible part."""
    if not 1 <= n <= len(LAMP_NAMES):
        raise InvalidArgumentError(f"lamp count must be in 1..{len(LAMP_NAMES)}, got {n}")
    names = LAMP_NAMES[:n]
    parts = [_lamp(i, l) for i, l in enumerate(names)] + [_monitor(names), _poller(names)]
    plant = reduce(parallel_compose, parts)
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
    """``lamps(n)`` in the model grammar, transitions sorted."""
    aut = lamps(n)
    return serialize_model(ModelDocument(
        name, description, aut.table.events, (), aut.initial,
        tuple(sorted((s, e, d) for (s, e), d in aut.transitions.items()))))


def three_lamps_text() -> str:
    return lamps_text(3, "three-lamps", "office lighting with silent lamp breakdowns "
                      "and a polled intensity sensor")


def twin_branch_text() -> str:
    return serialize_model(twin_branch_document())
