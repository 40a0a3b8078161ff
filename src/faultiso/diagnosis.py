"""Fault labelling, state estimation, diagnosers, and the two verification
questions that drive everything else: can the occurrence of a fault always be
detected, and can its type always be pinned down?

Fault labels are plain strings: ``"N"`` for no fault, ``"F1" .. "Fk"`` for the
fault classes declared in the event table.  A labelled plant pairs every plant
state with the label of the fault class seen so far; labels never revert.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, Mapping, Optional, Sequence

from .automata import (Automaton, EventTable, reachable_automaton, require_assumptions,
                       unobservable_reach)
from .errors import InvalidArgumentError, ModelError, NotDiagnosableError, ResourceLimitError
from .graph import find_cycle, reach, shortest_path, strongly_connected

NORMAL = "N"


@dataclass(frozen=True, order=True)
class LabeledState:
    """A plant state together with the fault label accumulated so far."""

    base: str
    label: str

    def __str__(self):
        return f"{self.base}{self.label}"


@dataclass(frozen=True)
class StateEstimate:
    """Canonically ordered set of labelled states; the currency of all
    estimation.  Equality and hashing are structural; the hash is computed
    once, at construction, because estimates key every synthesis table."""

    members: tuple[LabeledState, ...]

    @classmethod
    def of(cls, members: Iterable[LabeledState]) -> "StateEstimate":
        return cls._of_sorted(tuple(sorted(set(members))))

    @classmethod
    def _of_sorted(cls, members: tuple[LabeledState, ...]) -> "StateEstimate":
        """An estimate of members already sorted and unique, unchecked."""
        est = object.__new__(cls)
        object.__setattr__(est, "members", members)  # not __dict__: that doubles its size
        object.__setattr__(est, "_hash", hash((members,)))
        return est

    def __post_init__(self):
        if list(self.members) != sorted(set(self.members)):
            raise InvalidArgumentError(
                "estimate members must be sorted and unique; use StateEstimate.of")
        object.__setattr__(self, "_hash", hash((self.members,)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # hashed again where loaded: str hashes vary per process
        return StateEstimate._of_sorted, (self.members,)

    def __str__(self):
        return "{" + ",".join([f"{m.base}{m.label}" for m in self.members]) + "}"

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    @property
    def empty(self) -> bool:
        return not self.members

    def labels(self) -> frozenset[str]:
        return frozenset(m.label for m in self.members)

    def fault_labels(self) -> frozenset[str]:
        return frozenset(l for l in self.labels() if l != NORMAL)


@dataclass(frozen=True)
class DiagnosisVerdict:
    """Joint output of the detection and isolation agents.

    ``detection`` is ``N`` (surely no fault), ``F`` (surely some fault) or
    ``U`` (cannot tell).  ``isolation`` is a specific class label once the
    estimate is pure, ``FU`` otherwise.
    """

    detection: str
    isolation: str

    def __post_init__(self):
        if self.detection not in ("N", "F", "U"):
            raise InvalidArgumentError(f"bad detection verdict: {self.detection}")
        if self.isolation != "FU" and self.detection != "F":
            raise InvalidArgumentError("a specific fault class implies detection F")

    def __str__(self):
        return f"{self.detection}/{self.isolation}"


def classify(est: StateEstimate) -> DiagnosisVerdict:
    """Classify an estimate: N/F/U detection and FU/F_i isolation.  The
    verdict is kept on the estimate, so it is computed once per estimate."""
    verdict = est.__dict__.get("_verdict")
    if verdict is None:
        if est.empty:
            raise InvalidArgumentError("cannot classify an empty estimate")
        fault = est.fault_labels()
        detection = "N" if not fault else "U" if NORMAL in est.labels() else "F"
        verdict = DiagnosisVerdict(detection, next(iter(fault))
                                   if detection == "F" and len(fault) == 1 else "FU")
        object.__setattr__(est, "_verdict", verdict)
    return verdict


@dataclass(frozen=True)
class LabeledPlant:
    """A plant whose states carry fault labels.

    ``automaton`` is the labelled system; ``base_of``/``label_of`` decompose
    each of its states into plant state and label; ``id_of`` maps the pair
    back to the state identifier.
    """

    automaton: Automaton
    base_of: Mapping[str, str]
    label_of: Mapping[str, str]
    id_of: Mapping[tuple[str, str], str]

    @property
    def table(self) -> EventTable:
        return self.automaton.table

    def member_of(self, state_id: str) -> LabeledState:
        try:
            return LabeledState(self.base_of[state_id], self.label_of[state_id])
        except KeyError:
            raise InvalidArgumentError(f"unknown labelled state: {state_id}") from None

    def estimate_of(self, state_ids: Iterable[str]) -> StateEstimate:
        return StateEstimate.of(self.member_of(s) for s in state_ids)

    @property
    def initial_estimate(self) -> StateEstimate:
        index = self.index
        return index.estimate(1 << index._bit[self.member_of(self.automaton.initial)])

    @cached_property
    def diagnosability(self) -> "DiagnosabilityReport":
        """The twin construction, run once per plant."""
        return _twin_construction(self)

    @cached_property
    def index(self) -> "StateIndex":
        """The labelled states as bits, built once per plant."""
        aut, base_of, label_of = self.automaton, self.base_of, self.label_of
        keys = sorted((base_of[q], label_of[q], q) for q in aut.states)  # LabeledState order
        ids = [q for _, _, q in keys]
        bit = {q: i for i, q in enumerate(ids)}
        return StateIndex(
            tuple(LabeledState(base, label) for base, label, _ in keys),
            tuple(sum(1 << bit[r] for r in unobservable_reach(aut, [q])) for q in ids),
            tuple({ev: bit[d] for ev, d in aut.outgoing(q)} for q in ids),
            self.table.observable_events)


def build_labeled_plant(g: Automaton) -> LabeledPlant:
    """Pair every plant state with the label of the fault class seen so far.

    A class-``i`` fault moves ``N`` to ``Fi`` and ``Fi`` keeps class-``i``
    faults; a fault of another class is undefined at ``Fi``.  Under the
    standing assumptions, which are checked first, that never blocks a plant
    move, so the plant language is preserved.  The pair ``(q, L)`` is named
    ``<q><L>``: no label is a proper suffix of another, so distinct pairs get
    distinct names, and ``reachable_automaton`` checks that they do.
    """
    require_assumptions(g)
    table = g.table
    k = table.fault_type_count
    if k == 0:
        raise ModelError("no fault events declared; nothing to label")
    if table.fault_types != tuple(range(1, k + 1)):
        raise ModelError("a complete model must number its fault types 1..k "
                         f"without gaps, got {list(table.fault_types)}")
    fault_label = {e.name: f"F{e.fault_type}" for e in table.events
                   if e.fault_type is not None}

    def moves(pair):
        q, label = pair
        return [(ev, (dst, nxt)) for ev, dst in g.outgoing(q)
                if (nxt := fault_label.get(ev, label)) == label or label == NORMAL]

    labeled = EventTable(tuple(sorted(table.events, key=lambda e: e.name)))
    aut, id_of = reachable_automaton(labeled, (g.initial, NORMAL), moves,
                                     lambda pair: pair[0] + pair[1])
    return LabeledPlant(aut, {s: q for (q, _), s in id_of.items()},
                        {s: label for (_, label), s in id_of.items()}, id_of)


# -- state estimation ---------------------------------------------------------

def _bits(mask: int):
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class StateIndex:
    """Labelled-state sets as integer masks: bit ``i`` is ``members[i]``, in
    ``LabeledState`` order, so a mask lists its members sorted.  ``normal``
    and ``faults`` (one per fault label) are label masks, and ``class_of``
    gives each bit its label's mask.  Per state,
    ``succ`` maps events to successor bits, ``observable_out`` lists the
    observable ones and ``closure`` is its unobservable closure.  No
    reference back to the plant: the plant is freed without the cyclic GC.
    A plain class, not a dataclass: the package is imported per CLI process."""

    def __init__(self, members: tuple[LabeledState, ...], closure: tuple[int, ...],
                 succ: tuple[dict[str, int], ...], observable: frozenset[str]):
        self.members, self.closure, self.succ, self.observable = members, closure, succ, observable
        self.observable_out = tuple(tuple((ev, d) for ev, d in s.items() if ev in observable)
                                    for s in succ)
        by_label: dict[str, int] = {}
        for i, m in enumerate(members):
            by_label[m.label] = by_label.get(m.label, 0) | 1 << i
        self.class_of = tuple(by_label[m.label] for m in members)
        self.normal = by_label.pop(NORMAL, 0)
        self.faults = tuple(by_label.values())
        self._bit = {m: i for i, m in enumerate(members)}
        self._rows: dict[int, dict[str, int]] = {}  # bit -> observe(closure[bit]), on first use
        self._closures: dict[frozenset[str], tuple[int, ...]] = {frozenset(): closure}
        self._estimates: dict[int, StateEstimate] = {}
        self._mask_of: dict[StateEstimate, int] = {}
        self._steps: dict[tuple, dict[str, StateEstimate]] = {}  # synthesis._admitted
        self._engine: dict[tuple, object] = {}  # runtime.engine_step: EngineState
        self._forcible: Optional[tuple] = None  # synthesis._enforceable, on first use
        self._graph: Optional[tuple] = None  # estimate_graph, once complete
        self._frontier: Optional[frozenset] = None  # fault_frontier, once found

    def closure_under(self, disabled: frozenset[str]) -> tuple[int, ...]:
        """Each state's closure under the unobservable events not in
        ``disabled``, memoised per part.  With no unobservable cycles a
        closure strictly contains its successors', so fewest bits go first."""
        part = disabled - self.observable
        table = self._closures.get(part)
        if table is None:
            built = [0] * len(self.members)
            for i in sorted(range(len(built)), key=lambda i: self.closure[i].bit_count()):
                built[i] = reduce(or_, (built[d] for ev, d in self.succ[i].items()
                                        if ev not in self.observable and ev not in part), 1 << i)
            table = self._closures[part] = tuple(built)
        return table

    def release(self, mask: int, disabled: frozenset[str] = frozenset()) -> int:
        """The states ``mask`` can reach by unobservable events not in ``disabled``."""
        closure = self.closure_under(disabled)
        return reduce(or_, map(closure.__getitem__, _bits(mask)), 0)

    def after(self, mask: int) -> list[tuple[str, int]]:
        """The uncontrolled step: ``(obs, mask)`` for each observation possible
        from ``release(mask)``, in event order.  ``observe`` distributes over
        union, so it joins the rows of the mask's own bits, releases nothing and
        takes a one-bit mask's row, or a successor one row gives alone, as is."""
        rows, step = self._rows, {}
        while mask:
            low = mask & -mask
            mask ^= low
            b = low.bit_length() - 1
            row = rows.get(b)
            if row is None:
                row = rows[b] = self.observe(self.closure[b])
            if step:
                for obs, d in row.items():
                    step[obs] = step[obs] | d if obs in step else d
            elif mask:
                step = row.copy()
            else:
                return sorted(row.items())
        return sorted(step.items())

    def observe(self, released: int) -> dict[str, int]:
        """Each observation possible from ``released``, with the mask it leads to."""
        out, step = self.observable_out, {}
        for b in _bits(released):
            for obs, d in out[b]:
                step[obs] = step.get(obs, 0) | 1 << d
        return step

    def printed(self, masks: Iterable[int]) -> list[str]:
        """``str`` of each mask's estimate, joined from the members' names:
        none is interned."""
        names = [f"{m.base}{m.label}" for m in self.members]
        return ["{" + ",".join([names[b] for b in _bits(m)]) + "}" for m in masks]

    def estimate(self, mask: int) -> StateEstimate:
        est = self._estimates.get(mask)
        if est is None:
            est = self._estimates[mask] = StateEstimate._of_sorted(
                tuple(map(self.members.__getitem__, _bits(mask))))
            self._mask_of[est] = mask
        return est

    def mask_of(self, est: StateEstimate) -> int:
        mask = self._mask_of.get(est)
        if mask is None:
            try:
                mask = sum(1 << self._bit[m] for m in est)
            except KeyError as exc:
                raise InvalidArgumentError(f"unknown labelled state: {exc.args[0]}") from None
        return mask


def estimate_after(plant: LabeledPlant, t: Sequence[str]) -> StateEstimate:
    """Estimate after observing ``t``, walked on ``estimate_graph``'s
    positions.  An empty result means the observation is infeasible."""
    masks, rows, _ = estimate_graph(plant)
    i, _ = _walk(rows, plant.table, t)
    return StateEstimate(()) if i is None else plant.index.estimate(masks[i])


def _walk(rows: list, table: EventTable, t: Sequence[str]) -> tuple[Optional[int], Optional[str]]:
    """The position after ``t``, or ``None`` and the first infeasible
    observation.  An unknown or unobservable event, in no row, raises once reached."""
    i = 0
    for obs in t:
        i = rows[i].get(obs)
        if i is None:
            if obs not in table.observable_events:
                table.require(obs)
                raise InvalidArgumentError(f"event {obs} is not observable")
            return None, obs
    return i, None


class Diagnoser:
    """Deterministic estimate automaton over the observable alphabet, built
    by ``build_diagnoser`` only.  ``states[0]`` is the initial estimate."""

    def __init__(self, states: Sequence[StateEstimate], table: EventTable,
                 transitions: Mapping[tuple[StateEstimate, str], StateEstimate]):
        self.states, self.alphabet, self.initial = states, table.observable_events, states[0]
        self.transitions, self._table = transitions, table

    def walk(self, t: Sequence[str]) -> StateEstimate:
        i, at = _walk(self.transitions._rows, self._table, t)
        if i is None:
            raise InvalidArgumentError(f"observation infeasible: {' '.join(t)} (at {at})")
        return self.states[i]


def estimate_graph(plant: LabeledPlant, max_states: Optional[int] = None) -> tuple:
    """``(masks, rows, count)``: the masks reachable on ``index.after`` in
    breadth-first order, each position's ``{obs: position}`` row in event order
    and the edge count.  Kept on ``plant.index`` once complete, so each mask is
    stepped once per plant; a kept graph over ``max_states`` is walked again."""
    index, graph = plant.index, plant.index._graph
    if graph is not None and (max_states is None or len(graph[0]) <= max_states):
        return graph
    pos = {index.mask_of(plant.initial_estimate): 0}
    masks, rows, count = list(pos), [], 0
    for mask in masks:  # grows as masks are found
        rows.append(row := {})
        for obs, nxt in index.after(mask):
            j = pos.get(nxt)
            if j is None:
                if max_states is not None and len(masks) >= max_states:
                    raise ResourceLimitError(
                        f"diagnoser exceeded {max_states} states",
                        stats={"states": len(masks), "transitions": count + 1})
                j = pos[nxt] = len(masks)
                masks.append(nxt)
            row[obs] = j
            count += 1
    index._graph = graph = (masks, rows, count)
    return graph


class _Estimates(Sequence):
    """The estimate graph's masks as a read-only tuple of estimates, each
    interned on ``plant.index`` only when read; a slice is a tuple.  A lookup
    by estimate goes through ``index.mask_of`` and a ``{mask: position}``
    map built on the first lookup."""

    def __init__(self, index: StateIndex, masks: list):
        self._index, self._masks, self._pos = index, masks, None

    def __len__(self):
        return len(self._masks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._index.estimate, self._masks[i]))
        return self._index.estimate(self._masks[i])

    def __iter__(self):
        return map(self._index.estimate, self._masks)

    def __contains__(self, est):
        return self._position(est) is not None

    def __eq__(self, other):
        if not isinstance(other, (tuple, _Estimates)):
            return NotImplemented
        return len(self) == len(other) and tuple(self) == tuple(other)

    def _position(self, est) -> Optional[int]:
        """The position of ``est``; None for anything else, an estimate over
        unknown labelled states included."""
        if not isinstance(est, StateEstimate):
            return None
        if self._pos is None:
            self._pos = {mask: i for i, mask in enumerate(self._masks)}
        try:
            return self._pos.get(self._index.mask_of(est))
        except InvalidArgumentError:
            return None


class _Transitions(Mapping):
    """``(estimate, obs) -> estimate`` read from the estimate graph's rows,
    not a copy of them: by source in discovery order, then by observation."""

    def __init__(self, states: _Estimates, rows: list, count: int):
        self._states, self._rows, self._count = states, rows, count

    def __getitem__(self, key):
        i = self._states._position(key[0]) if isinstance(key, tuple) and len(key) == 2 else None
        j = None if i is None else self._rows[i].get(key[1])
        if j is None:
            raise KeyError(key)
        return self._states[j]

    def __iter__(self):
        return ((est, obs) for est, row in zip(self._states, self._rows) for obs in row)

    def __len__(self):
        return self._count


def build_diagnoser(plant: LabeledPlant, max_states: int = 1_000_000) -> Diagnoser:
    """The labelled plant determinised over observations: a view of
    ``estimate_graph`` whose estimates are interned on ``plant.index`` as read."""
    masks, rows, count = estimate_graph(plant, max_states)
    states = _Estimates(plant.index, masks)
    return Diagnoser(states, plant.table, _Transitions(states, rows, count))


# -- diagnosability (twin construction) ---------------------------------------

@dataclass(frozen=True)
class DiagnosabilityReport:
    """``witness``: a faulty run and an observation-equivalent normal run,
    present exactly when the plant is not ``diagnosable``."""

    diagnosable: bool
    witness: Optional[tuple[tuple[str, ...], tuple[str, ...]]]


def check_diagnosability(plant: LabeledPlant) -> DiagnosabilityReport:
    """Twin construction: pair every run with a label-normal run carrying the
    same observation.  The plant is not diagnosable exactly when the pairing
    can cycle while the first component is label-faulty; with no unobservable
    cycles, every such product cycle extends both runs indefinitely.
    Returns the report cached on ``plant``.
    """
    return plant.diagnosability


def _twin_construction(plant: LabeledPlant) -> DiagnosabilityReport:
    aut = plant.automaton
    normal = frozenset(q for q in aut.states if plant.label_of[q] == NORMAL)
    obs_events = plant.table.observable_events
    init = (aut.initial, aut.initial)

    # product edges are labelled (event, side): the faulty run moves alone
    # ("run"), the normal twin moves alone ("twin"), or both observe ("both")
    succ: dict[tuple[str, str], list] = {}

    def expand(pair):
        q1, q2 = pair
        edges = []
        for ev, dst in aut.outgoing(q1):
            if ev in obs_events:
                dst2 = aut.transitions.get((q2, ev))
                if dst2 is not None and dst2 in normal:
                    edges.append(((ev, "both"), (dst, dst2)))
            else:
                edges.append(((ev, "run"), (dst, q2)))
        for ev, dst2 in aut.outgoing(q2):
            if ev not in obs_events and dst2 in normal:
                edges.append(((ev, "twin"), (q1, dst2)))
        succ[pair] = edges
        return edges

    # labels never revert, so every edge out of a faulty pair stays faulty
    faulty = sorted(p for p in reach([init], expand) if plant.label_of[p[0]] != NORMAL)
    cycle = find_cycle(faulty, succ.__getitem__)
    if cycle is None:
        return DiagnosabilityReport(True, None)

    node = cycle[0]

    def is_node(pair):
        return pair == node

    stem = shortest_path(init, succ.__getitem__, is_node)
    # the loop takes the first edge out of the node that leads back, then the
    # shortest way back
    for step in succ[node]:
        rest = [] if step[1] == node else shortest_path(step[1], succ.__getitem__, is_node)
        if rest is not None:
            break
    sides = [label for label, _ in stem + [step] + rest]
    faulty_run = tuple(ev for ev, side in sides if side in ("run", "both"))
    normal_run = tuple(ev for ev, side in sides if side in ("twin", "both"))
    return DiagnosabilityReport(False, (faulty_run, normal_run))


# -- isolatability -------------------------------------------------------------

@dataclass(frozen=True)
class IsolatabilityReport:
    """``witness_cycle``: an alternating ``(estimate, event, ..., estimate)``
    cycle through a mixed estimate.  ``bound``: the longest run of
    consecutive mixed estimates after certainty, in edges; ``None`` exactly
    when a mixed cycle exists."""

    isolatable: bool
    witness_cycle: Optional[tuple] = None
    bound: Optional[int] = None

    def witness_text(self) -> str:
        if self.witness_cycle is None:
            return ""
        return " -> ".join(x if isinstance(x, str) else str(x)
                           for x in self.witness_cycle)


def fault_frontier(plant: LabeledPlant) -> frozenset[StateEstimate]:
    """Estimates first reached with fault certainty, where supervision starts:
    breadth-first search on ``index.after`` that stops at the first
    fault-certain estimate on each path, kept on ``plant.index``.  Requires
    a diagnosable plant."""
    report = plant.diagnosability
    if not report.diagnosable:
        raise NotDiagnosableError("plant is not diagnosable; no isolation "
                                  "supervisor can exist", witness=report.witness)
    index = plant.index
    if index._frontier is None:
        nodes = reach([index.mask_of(plant.initial_estimate)],
                      lambda mask: index.after(mask) if mask & index.normal else ())
        index._frontier = frozenset(index.estimate(m) for m in nodes if not m & index.normal)
    return index._frontier


def check_isolatability(plant: LabeledPlant) -> IsolatabilityReport:
    """Decide whether continued observation always pins down the fault class.

    Characterisation: once fault certainty is reached, every estimate member
    is label-faulty and labels never change, so the class stays ambiguous
    forever exactly when the estimate graph reachable from the certainty
    frontier contains a cycle through a mixed estimate.  The reported witness
    prefers a cycle among estimates that cannot reach purity at all (a trap,
    where no amount of luck isolates) over a merely revisitable ambiguity.

    Fault labels never grow after certainty, so every such cycle is all
    mixed: the plant is isolatable exactly when ``bound``, the longest run
    of consecutive mixed estimates, is finite.  Certainty is absorbing, so
    the masks reachable from the frontier are the fault-certain ones
    reachable at all, and they never reach a mask with a normal bit.  One
    ``strongly_connected`` pass over ``estimate_graph``, sinks first, skips
    components with a normal bit and gives each other one whether it
    reaches purity and whether it is a mixed cycle, and each acyclic mixed
    position its depth.  The witness starts at the least trapped cyclic
    estimate, else the least cyclic one, by printed form, which is joined
    from the members' names on the masks; distinct estimates that print
    alike (state names with commas) go by position in the graph.  Only the
    witness cycle's estimates are interned.
    """
    diag_report = plant.diagnosability
    if not diag_report.diagnosable:
        raise NotDiagnosableError(
            "isolatability is only defined for diagnosable systems",
            witness=diag_report.witness)
    index, (masks, rows, _) = plant.index, estimate_graph(plant)
    normal, class_of = index.normal, index.class_of
    # mixed: no normal bit, and a bit outside its lowest bit's class
    mixed = [not m & normal and m & ~class_of[(m & -m).bit_length() - 1] != 0 for m in masks]
    if not any(mixed):
        return IsolatabilityReport(True, None, 0)
    escapes, depth, on_cycle, trapped = [False] * len(masks), [0] * len(masks), [], []
    for members in strongly_connected(len(masks), lambda i: rows[i].items()):  # sinks first
        i = members[0]
        if masks[i] & normal:
            continue
        if mixed[i]:  # labels never grow: a component is all mixed or all pure
            single = len(members) == 1
            out = rows[i].values() if single else [j for k in members for j in rows[k].values()]
            escape = any(map(escapes.__getitem__, out))  # a member's own mark is still False
            if not single or i in out:
                on_cycle += members
                trapped += [] if escape else members
            else:
                depth[i] = max((depth[j] + 1 for j in out if mixed[j]), default=0)
            if not escape:
                continue
        for k in members:
            escapes[k] = True
    if not on_cycle:
        return IsolatabilityReport(True, None, max(depth))
    starts = trapped or on_cycle
    chosen = min(zip(index.printed(masks[i] for i in starts), starts))[1]
    witness = [index.estimate(masks[chosen])]
    for obs, j in shortest_path(chosen, lambda i: rows[i].items(), lambda j: j == chosen):
        witness += [obs, index.estimate(masks[j])]
    return IsolatabilityReport(False, tuple(witness))


# -- observation agents --------------------------------------------------------

def detection_agent(diag: Diagnoser, t: Sequence[str]) -> str:
    """N, F, or U after observing ``t`` without control."""
    return classify(diag.walk(t)).detection


def isolation_agent(diag: Diagnoser, t: Sequence[str]) -> str:
    """FU or a specific fault label after observing ``t`` without control.
    Under a supervisor the verdict is ``runtime.replay``'s last state's."""
    return classify(diag.walk(t)).isolation
