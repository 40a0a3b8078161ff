"""Fault labelling, state estimation, diagnosers, and the two verification
questions that drive everything else: can the occurrence of a fault always be
detected, and can its type always be pinned down?

Fault labels are plain strings: ``"N"`` for no fault, ``"F1" .. "Fk"`` for the
fault classes declared in the event table.  A labelled plant pairs every plant
state with the label of the fault class seen so far; labels never revert.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .automata import (
    Automaton,
    EventTable,
    compose_with_map,
    require_assumptions,
    unobservable_reach,
)
from .errors import InvalidArgumentError, ModelError, NotDiagnosableError, ResourceLimitError
from .graph import cyclic_nodes, find_cycle, longest_path, reach, shortest_path

NORMAL = "N"


def label_for_type(i: int) -> str:
    return f"F{i}"


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
        return cls(tuple(sorted(set(members))))

    def __post_init__(self):
        if list(self.members) != sorted(set(self.members)):
            raise InvalidArgumentError(
                "estimate members must be sorted and unique; use StateEstimate.of")
        object.__setattr__(self, "_hash", hash((self.members,)))

    def __hash__(self):
        return self._hash

    def __str__(self):
        return "{" + ",".join(str(m) for m in self.members) + "}"

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

    @property
    def mixed(self) -> bool:
        """True when two distinct fault classes are still possible."""
        return len(self.fault_labels()) >= 2


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
    """Classify an estimate: N/F/U detection and FU/F_i isolation."""
    if est.empty:
        raise InvalidArgumentError("cannot classify an empty estimate")
    labels = est.labels()
    if labels == {NORMAL}:
        detection = "N"
    elif NORMAL not in labels:
        detection = "F"
    else:
        detection = "U"
    fault = est.fault_labels()
    if detection == "F" and len(fault) == 1:
        isolation = next(iter(fault))
    else:
        isolation = "FU"
    return DiagnosisVerdict(detection, isolation)


def build_label_automaton(table: EventTable) -> Automaton:
    """Fault-tracking automaton over the fault alphabet.

    ``N`` moves to ``Fi`` on any class-``i`` fault and each ``Fi`` absorbs
    further class-``i`` faults; faults of other classes are undefined there,
    which leaves the composition with any single-fault-type plant unaffected.
    """
    k = table.fault_type_count
    if k == 0:
        raise ModelError("no fault events declared; nothing to label")
    if table.fault_types != tuple(range(1, k + 1)):
        raise ModelError("a complete model must number its fault types 1..k "
                         f"without gaps, got {list(table.fault_types)}")
    events = tuple(table[name] for name in sorted(table.fault_events))
    fault_table = EventTable(events)
    states = {NORMAL} | {label_for_type(i) for i in range(1, k + 1)}
    trans = {}
    for ev in events:
        lab = label_for_type(ev.fault_type)
        trans[(NORMAL, ev.name)] = lab
        trans[(lab, ev.name)] = lab
    return Automaton(fault_table, frozenset(states), NORMAL, trans)


@dataclass(frozen=True)
class LabeledPlant:
    """A plant whose states carry fault labels.

    ``automaton`` is the composed system; ``base_of``/``label_of`` decompose
    each composite state; ``id_of`` inverts the pair back to the composite
    state identifier.
    """

    automaton: Automaton
    base_of: Mapping[str, str]
    label_of: Mapping[str, str]
    id_of: Mapping[tuple[str, str], str]

    @property
    def table(self) -> EventTable:
        return self.automaton.table

    def member_of(self, state_id: str) -> LabeledState:
        return LabeledState(self.base_of[state_id], self.label_of[state_id])

    def estimate_of(self, state_ids: Iterable[str]) -> StateEstimate:
        return StateEstimate.of(self.member_of(s) for s in state_ids)

    def ids_of(self, est: StateEstimate) -> frozenset[str]:
        return frozenset(self.id_of[(m.base, m.label)] for m in est)

    @property
    def initial_estimate(self) -> StateEstimate:
        return self.estimate_of([self.automaton.initial])

    @cached_property
    def diagnosability(self) -> "DiagnosabilityReport":
        """The twin construction, run once per plant."""
        return _twin_construction(self)

    @cached_property
    def diagnoser(self) -> "Diagnoser":
        """The uncapped diagnoser, built once per plant."""
        return build_diagnoser(self)


def build_labeled_plant(g: Automaton) -> LabeledPlant:
    """Compose the plant with the label automaton.

    The composition preserves the plant language (the label component never
    blocks a plant move under the standing assumptions, which are checked
    first).  Composite states are renamed ``<state><label>`` when that is
    unambiguous, matching the conventional rendering of labelled states.
    """
    require_assumptions(g)
    labeller = build_label_automaton(g.table)
    composed, pair_of = compose_with_map(g, labeller)

    compact = {cid: f"{pair[0]}{pair[1]}" for cid, pair in pair_of.items()}
    if len(set(compact.values())) == len(compact):
        renames = compact
    else:  # pathological state names; keep the explicit pair rendering
        renames = {cid: cid for cid in pair_of}

    states = frozenset(renames[c] for c in composed.states)
    trans = {(renames[s], e): renames[d] for (s, e), d in composed.transitions.items()}
    aut = Automaton(composed.table, states, renames[composed.initial], trans)
    base_of = {renames[c]: pair_of[c][0] for c in composed.states}
    label_of = {renames[c]: pair_of[c][1] for c in composed.states}
    id_of = {(pair_of[c][0], pair_of[c][1]): renames[c] for c in composed.states}
    return LabeledPlant(aut, base_of, label_of, id_of)


# -- state estimation ---------------------------------------------------------

def _observable_step(aut: Automaton, ids: frozenset[str], obs: str) -> frozenset[str]:
    return frozenset(dst for q in ids
                     if (dst := aut.transitions.get((q, obs))) is not None)


def diagnoser_step_ids(plant: LabeledPlant, ids: frozenset[str], obs: str) -> frozenset[str]:
    """Uncontrolled estimate update: unobservable closure, then one step."""
    plant.table.require(obs)
    if obs not in plant.table.observable_events:
        raise InvalidArgumentError(f"event {obs} is not observable")
    closure = unobservable_reach(plant.automaton, ids)
    return _observable_step(plant.automaton, closure, obs)


def estimate_after(plant: LabeledPlant, t: Sequence[str]) -> StateEstimate:
    """Estimate after observing ``t``, starting from the labelled initial
    state.  An empty result means the observation is infeasible."""
    ids = frozenset([plant.automaton.initial])
    for obs in t:
        ids = diagnoser_step_ids(plant, ids, obs)
        if not ids:
            return StateEstimate(())
    return plant.estimate_of(ids)


@dataclass(frozen=True)
class Diagnoser:
    """Deterministic estimate automaton over the observable alphabet."""

    states: tuple[StateEstimate, ...]
    alphabet: frozenset[str]
    transitions: Mapping[tuple[StateEstimate, str], StateEstimate]
    initial: StateEstimate

    def __post_init__(self):
        adj: dict[StateEstimate, list[tuple[str, StateEstimate]]] = \
            {est: [] for est in self.states}
        for (src, obs), dst in self.transitions.items():
            adj[src].append((obs, dst))
        for edges in adj.values():
            edges.sort()
        object.__setattr__(self, "_adj", {e: tuple(v) for e, v in adj.items()})

    def walk(self, t: Sequence[str]) -> StateEstimate:
        est = self.initial
        for obs in t:
            nxt = self.transitions.get((est, obs))
            if nxt is None:
                raise InvalidArgumentError(
                    f"observation infeasible: {' '.join(t)} (at {obs})")
            est = nxt
        return est

    def successors(self, est: StateEstimate) -> tuple[tuple[str, StateEstimate], ...]:
        return self._adj[est]


def build_diagnoser(plant: LabeledPlant, max_states: int = 1_000_000) -> Diagnoser:
    """Worklist determinisation of the labelled plant over observations."""
    aut = plant.automaton
    initial = plant.initial_estimate
    table = {initial: frozenset([aut.initial])}
    queue = deque([initial])
    trans: dict[tuple[StateEstimate, str], StateEstimate] = {}
    order = [initial]
    while queue:
        est = queue.popleft()
        ids = table[est]
        closure = unobservable_reach(aut, ids)
        for obs in sorted(plant.table.observable_events):
            nxt_ids = _observable_step(aut, closure, obs)
            if not nxt_ids:
                continue
            nxt = plant.estimate_of(nxt_ids)
            trans[(est, obs)] = nxt
            if nxt not in table:
                if len(table) >= max_states:
                    raise ResourceLimitError(
                        f"diagnoser exceeded {max_states} states",
                        stats={"states": len(table), "transitions": len(trans)})
                table[nxt] = nxt_ids
                order.append(nxt)
                queue.append(nxt)
    return Diagnoser(tuple(order), plant.table.observable_events, trans, initial)


# -- diagnosability (twin construction) ---------------------------------------

@dataclass(frozen=True)
class DiagnosabilityReport:
    diagnosable: bool
    # (faulty run, observation-equivalent normal run), present when not diagnosable
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
    isolatable: bool
    # alternating [estimate, event, ..., estimate] cycle through a mixed estimate
    witness_cycle: Optional[tuple] = None
    # longest run of consecutive mixed estimates after certainty, in edges;
    # None exactly when a mixed cycle exists
    bound: Optional[int] = None

    def witness_text(self) -> str:
        if self.witness_cycle is None:
            return ""
        return " -> ".join(x if isinstance(x, str) else str(x)
                           for x in self.witness_cycle)


def fault_frontier(plant: LabeledPlant) -> frozenset[StateEstimate]:
    """Estimates first reached with fault certainty, where supervision starts:
    breadth-first search on the diagnoser that stops at the first
    fault-certain estimate on each path.  Requires a diagnosable plant."""
    report = plant.diagnosability
    if not report.diagnosable:
        raise NotDiagnosableError("plant is not diagnosable; no isolation "
                                  "supervisor can exist", witness=report.witness)
    frontier = set()

    def expand(est):
        if classify(est).detection == "F":
            frontier.add(est)
            return ()
        return plant.diagnoser.successors(est)

    reach([plant.diagnoser.initial], expand)
    return frozenset(frontier)


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
    of consecutive mixed estimates, is finite.
    """
    diag_report = plant.diagnosability
    if not diag_report.diagnosable:
        raise NotDiagnosableError(
            "isolatability is only defined for diagnosable systems",
            witness=diag_report.witness)
    diag = plant.diagnoser
    nodes = reach(sorted(fault_frontier(plant), key=str), diag.successors)
    mixed = [est.mixed for est in nodes]
    if not any(mixed):
        return IsolatabilityReport(True, None, 0)
    # the queries run on positions in ``nodes``; hashing an estimate is slow
    pos = {est: i for i, est in enumerate(nodes)}
    edges = [[(obs, pos[nxt]) for obs, nxt in diag.successors(est)] for est in nodes]

    def mixed_succ(i):
        return [(obs, j) for obs, j in edges[i] if mixed[j]]

    ids = range(len(nodes))
    mixed_ids = [i for i in ids if mixed[i]]
    bound = longest_path(mixed_ids, mixed_succ)
    if bound is not None:
        return IsolatabilityReport(True, None, bound)

    cyclic = cyclic_nodes(mixed_ids, mixed_succ)
    on_cycle = [i for i in sorted(ids, key=lambda i: str(nodes[i])) if i in cyclic]
    preds: list[list] = [[] for _ in ids]
    for i, out in enumerate(edges):
        for obs, j in out:
            preds[j].append((obs, i))
    reach_pure = set(reach([i for i in ids if not mixed[i]], preds.__getitem__))
    trapped = [i for i in on_cycle if i not in reach_pure]
    chosen = (trapped or on_cycle)[0]
    witness = [nodes[chosen]]
    for obs, j in shortest_path(chosen, edges.__getitem__, lambda i: i == chosen):
        witness += [obs, nodes[j]]
    return IsolatabilityReport(False, tuple(witness))


# -- observation agents --------------------------------------------------------

def detection_agent(diag: Diagnoser, t: Sequence[str]) -> str:
    """N, F, or U after observing ``t`` without control."""
    return classify(diag.walk(t)).detection
