"""Ready-made example systems used by the demos, the tests and the docs.

``twin_branch`` is a small two-fault plant whose branches stay observationally
twinned until the supervisor intervenes; it exercises every stage of the
pipeline and is the worked example in the README.

``three_lamps`` is an office-lighting case study: three lamps that can break
down silently, a light-intensity sensor, and a polling cycle that forces a
reading after every switching action or failure.  Which lamp failed can only
be told apart by actively switching lamps off and watching the light level.
"""
from __future__ import annotations

from .automata import Automaton, Event, EventTable, accessible_part, parallel_compose
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


# -- three-lamp lighting case study ---------------------------------------------

_LAMPS = ("a", "b", "c")
_LEVELS = 4  # 0..3 lamps lit


def _lamp(name: str) -> Automaton:
    on, off, fault = f"{name}_on", f"{name}_off", f"{name}_f"
    table = EventTable((
        Event(on, observable=True, controllable=True, forcible=True),
        Event(off, observable=True, controllable=True, forcible=True),
        Event(fault, fault_type=_LAMPS.index(name) + 1),
    ))
    # a dead lamp still accepts switch commands; they just do nothing
    trans = {
        ("off", on): "on",
        ("on", off): "off",
        ("on", fault): "dead",
        ("dead", on): "dead",
        ("dead", off): "dead",
    }
    return Automaton(table, frozenset({"off", "on", "dead"}), "off", trans)


def _single_fault_monitor() -> Automaton:
    table = EventTable(tuple(
        Event(f"{l}_f", fault_type=i + 1) for i, l in enumerate(_LAMPS)))
    trans = {("m0", f"{l}_f"): f"m{l}" for l in _LAMPS}
    states = frozenset({"m0"} | {f"m{l}" for l in _LAMPS})
    return Automaton(table, states, "m0", trans)


def _poller() -> Automaton:
    # every switching action or failure forces one sensor reading before the
    # next action; which reading is possible is filtered in afterwards
    events = []
    for l in _LAMPS:
        events.append(Event(f"{l}_on", observable=True, controllable=True, forcible=True))
        events.append(Event(f"{l}_off", observable=True, controllable=True, forcible=True))
        events.append(Event(f"{l}_f", fault_type=_LAMPS.index(l) + 1))
    for k in range(_LEVELS):
        events.append(Event(f"e{k}", observable=True))
    table = EventTable(tuple(events))
    trans = {}
    for l in _LAMPS:
        trans[("idle", f"{l}_on")] = "sense"
        trans[("idle", f"{l}_off")] = "sense"
        trans[("idle", f"{l}_f")] = "sense"
    for k in range(_LEVELS):
        trans[("sense", f"e{k}")] = "idle"
    return Automaton(table, frozenset({"idle", "sense"}), "idle", trans)


def _lit_count(composite: str) -> int:
    # composite names look like ((((a,b),c),m),p) with lamp states first
    inner = composite.replace("(", "").replace(")", "").split(",")
    return sum(1 for part in inner[:3] if part == "on")


def three_lamps() -> tuple[Automaton, EventTable]:
    """Compose lamps, single-fault monitor and polling cycle, then keep only
    the sensor reading that matches each state's actual light level."""
    plant = _lamp("a")
    for component in (_lamp("b"), _lamp("c"), _single_fault_monitor(), _poller()):
        plant = parallel_compose(plant, component)
    trans = {}
    for (src, ev), dst in plant.transitions.items():
        if ev.startswith("e") and ev[1:].isdigit():
            if ev != f"e{_lit_count(src)}":
                continue
        trans[(src, ev)] = dst
    filtered = Automaton(plant.table, plant.states, plant.initial, trans)
    aut = accessible_part(filtered)
    return aut, aut.table


def three_lamps_document() -> ModelDocument:
    aut, table = three_lamps()
    return ModelDocument(
        name="three-lamps",
        description="office lighting with silent lamp breakdowns and a "
                    "polled intensity sensor",
        events=table.events,
        explicit_states=(),
        initial=aut.initial,
        transitions=tuple(sorted((s, e, d) for (s, e), d in aut.transitions.items())),
    )


def three_lamps_text() -> str:
    return serialize_model(three_lamps_document())


def twin_branch_text() -> str:
    return serialize_model(twin_branch_document())
