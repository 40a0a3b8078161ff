"""Finite-automaton core: event attributes, deterministic automata, composition.

A plant is a deterministic finite automaton over an alphabet whose events
carry observability, controllability, forcibility and fault-type attributes.
Everything here is immutable after construction, except that an automaton
caches its assumption report on first use.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence

from .errors import AssumptionError, InvalidArgumentError, ModelError, ResourceLimitError
from .graph import Succ, find_cycle, reach, shortest_path


@dataclass(frozen=True)
class Event:
    """One alphabet symbol and its control/observation attributes.

    ``fault_type`` is a positive index identifying which fault class the
    event belongs to, or ``None`` for regular events.
    """

    name: str
    observable: bool = False
    controllable: bool = False
    forcible: bool = False
    fault_type: Optional[int] = None


@dataclass(frozen=True)
class EventTable:
    """Alphabet with derived attribute sets.

    Invariants enforced at construction: event names are unique and
    non-empty, fault events are unobservable, and fault-type indices are
    positive.  Component alphabets may type only a slice of the fault
    classes; a complete model needs the gap-free range ``1..k``, which is
    checked where the fault labelling is built.
    """

    events: tuple[Event, ...]

    def __post_init__(self):
        names = [e.name for e in self.events]
        if any(not n for n in names):
            raise ModelError("event names must be non-empty")
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise ModelError(f"duplicate event names: {', '.join(dup)}")
        for e in self.events:
            if e.fault_type is not None:
                if e.fault_type < 1:
                    raise ModelError(f"event {e.name}: fault type must be >= 1")
                if e.observable:
                    raise ModelError(f"fault event {e.name} must be unobservable")
        types = sorted({e.fault_type for e in self.events if e.fault_type is not None})
        by_name = {e.name: e for e in self.events}
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "observable_events",
                           frozenset(e.name for e in self.events if e.observable))
        object.__setattr__(self, "unobservable_events",
                           frozenset(e.name for e in self.events if not e.observable))
        object.__setattr__(self, "controllable_events",
                           frozenset(e.name for e in self.events if e.controllable))
        object.__setattr__(self, "enforceable_events",
                           frozenset(e.name for e in self.events if e.forcible))
        object.__setattr__(self, "fault_events",
                           frozenset(e.name for e in self.events if e.fault_type is not None))
        object.__setattr__(self, "fault_types", tuple(types))
        object.__setattr__(self, "fault_type_count", len(types))

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Event:
        try:
            return self._by_name[name]
        except KeyError:
            raise InvalidArgumentError(f"unknown event: {name}") from None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.events)

    def require(self, name: str) -> str:
        """Return ``name`` if it is in the alphabet, else raise
        ``InvalidArgumentError``."""
        if name not in self:
            raise InvalidArgumentError(f"unknown event: {name}")
        return name

    def merged_with(self, other: "EventTable") -> "EventTable":
        """Union of two alphabets; shared names must agree on attributes."""
        combined = {e.name: e for e in self.events}
        for e in other.events:
            if e.name in combined and combined[e.name] != e:
                raise ModelError(f"event {e.name} declared with conflicting attributes")
            combined.setdefault(e.name, e)
        return EventTable(tuple(combined[n] for n in sorted(combined)))


@dataclass(frozen=True)
class Automaton:
    """Deterministic finite automaton with a partial transition function.

    ``transitions`` maps ``(state, event) -> state``.  State identifiers are
    opaque strings.  Transitions are stored in sorted order so every
    downstream construction iterates deterministically.
    """

    table: EventTable
    states: frozenset[str]
    initial: str
    transitions: Mapping[tuple[str, str], str]

    def __post_init__(self):
        if self.initial not in self.states:
            raise ModelError(f"initial state {self.initial!r} not in state set")
        ordered = dict(sorted(self.transitions.items()))
        states = self.states
        # checked in bulk; only a failed check scans, to name the first bad transition
        if not (states.issuperset(src for src, _ in ordered) and states.issuperset(ordered.values())
                and not {ev for _, ev in ordered}.difference(self.table._by_name)):
            for (src, ev), dst in ordered.items():
                if src not in states or dst not in states:
                    raise ModelError(f"transition {src} -{ev}-> {dst} uses unknown state")
                if ev not in self.table:
                    raise ModelError(f"transition {src} -{ev}-> {dst} uses unknown event")
        object.__setattr__(self, "transitions", ordered)
        outgoing: dict[str, list[tuple[str, str]]] = {q: [] for q in self.states}
        for (src, ev), dst in ordered.items():
            outgoing[src].append((ev, dst))
        object.__setattr__(self, "_outgoing", {q: tuple(v) for q, v in outgoing.items()})

    def outgoing(self, q: str) -> tuple[tuple[str, str], ...]:
        """Sorted ``(event, target)`` pairs leaving ``q``."""
        return self._outgoing[q]

    @cached_property
    def assumptions(self) -> "AssumptionReport":
        """The standing-assumption checks, run once per automaton."""
        return _assumption_report(self)


def active_events(aut: Automaton, q: str) -> frozenset[str]:
    """Events with a transition defined at ``q``."""
    if q not in aut.states:
        raise InvalidArgumentError(f"unknown state: {q}")
    return frozenset(ev for ev, _ in aut.outgoing(q))


def run(aut: Automaton, s: Sequence[str]) -> Optional[str]:
    """Follow ``s`` from the initial state; ``None`` once a step is undefined."""
    q: Optional[str] = aut.initial
    for ev in s:
        aut.table.require(ev)
        if q is None:
            return None
        q = aut.transitions.get((q, ev))
    return q


def project(table: EventTable, s: Sequence[str]) -> tuple[str, ...]:
    """Natural projection: erase unobservable events, preserve order."""
    out = []
    for ev in s:
        table.require(ev)
        if ev in table.observable_events:
            out.append(ev)
    return tuple(out)


def unobservable_reach(aut: Automaton, x: Iterable[str],
                       disabled: Iterable[str] = ()) -> frozenset[str]:
    """Closure of ``x`` under unobservable transitions not in ``disabled``.

    Includes ``x`` itself.  Disabled observable events are irrelevant here but
    accepted, so callers can pass a raw disablement set.
    """
    disabled = frozenset(disabled)
    for ev in disabled:
        aut.table.require(ev)
    frontier = []
    for q in x:
        if q not in aut.states:
            raise InvalidArgumentError(f"unknown state: {q}")
        frontier.append(q)
    seen = set(frontier)
    unobs = aut.table.unobservable_events
    while frontier:
        q = frontier.pop()
        for ev, dst in aut.outgoing(q):
            if ev in unobs and ev not in disabled and dst not in seen:
                seen.add(dst)
                frontier.append(dst)
    return frozenset(seen)


def reachable_automaton(table: EventTable, init: Hashable, moves: Succ,
                        name: Callable[[Hashable], str],
                        max_states: Optional[int] = None) -> tuple[Automaton, dict]:
    """The automaton of the nodes reachable from ``init`` under ``moves``,
    which returns a node's ``(event, successor)`` pairs.  Each node is named
    once, by ``name``; ModelError when two nodes get the same name, and
    ResourceLimitError past ``max_states`` nodes.  Also returns each node's
    name, in breadth-first discovery order."""
    names = {init: name(init)}
    taken = {names[init]}
    trans: dict[tuple[str, str], str] = {}

    def succ(node):
        out = moves(node)
        src = names[node]
        for ev, dst in out:
            if dst not in names:
                if max_states is not None and len(names) >= max_states:
                    raise ResourceLimitError(f"automaton exceeded {max_states} states",
                                             stats={"states": len(names)})
                names[dst] = dst_name = name(dst)
                if dst_name in taken:
                    raise ModelError(f"state name {dst_name} stands for two states")
                taken.add(dst_name)
            trans[(src, ev)] = names[dst]
        return out

    reach([init], succ)
    return Automaton(table, frozenset(taken), names[init], trans), names


def accessible_part(aut: Automaton) -> Automaton:
    """Restrict to states reachable from the initial state."""
    return reachable_automaton(aut.table, aut.initial, aut.outgoing, str)[0]


def parallel_compose(a: Automaton, b: Automaton) -> Automaton:
    """Synchronous composition on shared events, interleaving on private ones.

    The result is the accessible product.  Composite states are named
    ``(a,b)``; ModelError when two state pairs render to the same name.
    Each pair's moves come from its components' outgoing transitions.
    """
    a_events, b_events = frozenset(a.table.names), frozenset(b.table.names)

    def moves(pair):
        qa, qb = pair
        out = [(ev, (da, qb)) for ev, da in a.outgoing(qa) if ev not in b_events]
        out += [(ev, (qa, db)) for ev, db in b.outgoing(qb) if ev not in a_events]
        out += [(ev, (da, db)) for ev, da in a.outgoing(qa) if ev in b_events
                if (db := b.transitions.get((qb, ev))) is not None]
        return out

    return reachable_automaton(a.table.merged_with(b.table), (a.initial, b.initial), moves,
                               lambda pair: f"({pair[0]},{pair[1]})")[0]


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the standing-assumption checks.

    ``live`` fails when some state has no outgoing transition;
    ``unobservable_cycle`` is an alternating ``[state, event, ..., state]``
    witness of a cycle of unobservable events; ``multi_fault_witness`` is an
    event string along which two distinct fault types occur.
    """

    live: bool
    non_live_states: tuple[str, ...]
    unobservable_cycle: Optional[tuple[str, ...]]
    multi_fault_witness: Optional[tuple[str, ...]]

    @property
    def passing(self) -> bool:
        return self.live and self.unobservable_cycle is None \
            and self.multi_fault_witness is None

    def explain(self) -> str:
        if self.passing:
            return "pass (live; no unobservable cycles; single fault type per run)"
        parts = []
        if not self.live:
            parts.append(f"non-live states: {', '.join(self.non_live_states)}")
        if self.unobservable_cycle is not None:
            parts.append("unobservable cycle: " + " ".join(self.unobservable_cycle))
        if self.multi_fault_witness is not None:
            parts.append("two fault types along: " + " ".join(self.multi_fault_witness))
        return "fail (" + "; ".join(parts) + ")"


def _find_multi_fault_path(aut: Automaton) -> Optional[tuple[str, ...]]:
    # shortest run over (state, fault type seen); an edge of a second type
    # leads to the goal None
    type_of = {e.name: e.fault_type for e in aut.table.events}

    def succ(node):
        q, seen_type = node
        out = []
        for ev, dst in aut.outgoing(q):
            t = type_of[ev]
            if t is None or seen_type is None or t == seen_type:
                out.append((ev, (dst, seen_type if t is None else t)))
            else:
                out.append((ev, None))
        return out

    path = shortest_path((aut.initial, None), succ, lambda node: node is None)
    return None if path is None else tuple(ev for ev, _ in path)


def check_assumptions(aut: Automaton) -> AssumptionReport:
    """Check liveness, absence of unobservable cycles, and single-fault-type
    behaviour; findings are reported, never raised, and cached on ``aut``."""
    return aut.assumptions


def _assumption_report(aut: Automaton) -> AssumptionReport:
    states = sorted(aut.states)
    non_live = tuple(q for q in states if not aut.outgoing(q))
    unobs = aut.table.unobservable_events
    cycle = find_cycle(states, lambda q: [(ev, d) for ev, d in aut.outgoing(q) if ev in unobs])
    multi = _find_multi_fault_path(aut)
    return AssumptionReport(
        live=not non_live,
        non_live_states=non_live,
        unobservable_cycle=None if cycle is None else tuple(cycle),
        multi_fault_witness=multi,
    )


def require_assumptions(aut: Automaton) -> AssumptionReport:
    """Raise AssumptionError unless all standing assumptions hold."""
    report = aut.assumptions
    if not report.passing:
        raise AssumptionError(f"assumption check failed: {report.explain()}", report)
    return report

