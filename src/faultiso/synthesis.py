"""Synthesis of isolation supervisors.

The construction works on a bipartite graph between *Y-states* (state
estimates awaiting a control decision) and *Z-states* (an estimate paired
with the decision in force, awaiting the next observation).  A decision is a
pair <enforce, disable>: at most one forcible event commanded to occur next,
plus a set of controllable events withheld until the next observation.

Pipeline: ``diagnosis.fault_frontier`` finds where supervision switches on,
``build_bts`` expands all feasible decisions, ``find_deadlocks`` +
``prune_live`` remove decisions that could block the plant, ``good_fixpoint``
computes the states from which some decision policy forces a fault-class-pure
estimate, and ``extract_supervisor`` packages the winning policy.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

from .automata import EventTable, unobservable_reach
from .diagnosis import LabeledPlant, StateEstimate, classify, fault_frontier
from .errors import InvalidArgumentError, ResourceLimitError, SynthesisError
from .graph import reach

TIE_BREAK_MODES = ("default", "paper-example")


@dataclass(frozen=True)
class ControlDecision:
    """One supervisor output: enforce at most one forcible event and disable a
    set of controllable events.

    ``enforce`` is ``None`` when nothing is forced.  Canonical form: an
    observable enforced event fires before anything else can happen, so the
    disable set is meaningless and normalised to empty.
    """

    enforce: Optional[str] = None
    disable: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.enforce, self.disable)))

    def __hash__(self):
        return self._hash

    def __str__(self):
        dis = "{" + ",".join(sorted(self.disable)) + "}"
        return f"<{self.enforce or '~'},{dis}>"

    def sort_key(self):
        return (self.enforce is not None, self.enforce or "",
                len(self.disable), tuple(sorted(self.disable)))


NO_CONTROL = ControlDecision()


def canonical_decision(plant: LabeledPlant, enforce: Optional[str],
                       disable: Iterable[str]) -> ControlDecision:
    """Validate attributes and apply the canonical form."""
    table = plant.table
    disable = frozenset(disable)
    for ev in disable:
        table.require(ev)
        if ev not in table.controllable_events:
            raise InvalidArgumentError(f"cannot disable uncontrollable event {ev}")
    if enforce is not None:
        table.require(enforce)
        if enforce not in table.enforceable_events:
            raise InvalidArgumentError(f"cannot enforce non-forcible event {enforce}")
        if enforce in table.observable_events:
            disable = frozenset()
    return ControlDecision(enforce, disable)


@dataclass(frozen=True)
class ZState:
    """An estimate with the decision issued there, awaiting an observation."""

    estimate: StateEstimate
    decision: ControlDecision

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.estimate, self.decision)))

    def __hash__(self):
        return self._hash

    def __str__(self):
        return f"({self.estimate},{self.decision})"


class _EdgeMap(Mapping):
    """Read-only edge map whose length is known up front and whose dict is built on first read."""

    def __init__(self, size: int, build):
        self._size, self._build = size, build

    @cached_property
    def _map(self) -> dict:
        return self._build()

    def __getitem__(self, key):
        return self._map[key]

    def __iter__(self):
        return iter(self._map)

    def __len__(self):
        return self._size


@dataclass(frozen=True)
class BTSGraph:
    """Bipartite transition system over Y-states and Z-states.

    Only the part accessible from the initial frontier is stored.  Every
    ``yz_edges[(y, c)]`` is structurally ``ZState(y, c)``; every
    ``zy_edges[(z, obs)]`` is the observable reach of ``z`` under ``obs``.

    States are numbered by their position in ``y_states`` and ``z_states``.
    The synthesis stages work on those ids: per Y-state its Z ids in
    decision ``sort_key`` order, per Z-state its owner's Y id and its
    ``(obs, Y id)`` pairs sorted by observation.  ``build_bts`` and
    ``prune_live`` emit the ids directly and derive the edge maps on first
    read; the constructor indexes the edge maps it is given.
    """

    y_states: tuple[StateEstimate, ...]
    z_states: tuple[ZState, ...]
    yz_edges: Mapping[tuple[StateEstimate, ControlDecision], ZState]
    zy_edges: Mapping[tuple[ZState, str], StateEstimate]
    initial: frozenset[StateEstimate]
    marked: frozenset[StateEstimate]

    def __post_init__(self):
        y_id, z_id = self._y_id, self._z_id
        y_zs: list[list[int]] = [[] for _ in self.y_states]
        for (y, _), z in self.yz_edges.items():
            y_zs[y_id[y]].append(z_id[z])
        for zs in y_zs:
            zs.sort(key=lambda j: self.z_states[j].decision.sort_key())
        z_obs: list[list[tuple[str, int]]] = [[] for _ in self.z_states]
        for (z, obs), dst in self.zy_edges.items():
            z_obs[z_id[z]].append((obs, y_id[dst]))
        object.__setattr__(self, "_y_zs", y_zs)
        object.__setattr__(self, "_z_owner", [y_id[z.estimate] for z in self.z_states])
        object.__setattr__(self, "_z_obs", [tuple(sorted(edges)) for edges in z_obs])

    @classmethod
    def _of_ids(cls, y_states, z_states, initial, marked, y_zs, z_owner, z_obs) -> BTSGraph:
        """A graph from its id lists, already in index order."""
        g = object.__new__(cls)
        g.__dict__.update(
            y_states=y_states, z_states=z_states, initial=initial, marked=marked,
            yz_edges=_EdgeMap(len(z_states), lambda: {
                (z.estimate, z.decision): z for z in z_states}),
            zy_edges=_EdgeMap(sum(map(len, z_obs)), lambda: {
                (z_states[j], obs): y_states[i]
                for j, edges in enumerate(z_obs) for obs, i in edges}),
            _y_zs=y_zs, _z_owner=z_owner, _z_obs=z_obs)
        return g

    @cached_property
    def _y_id(self) -> dict[StateEstimate, int]:
        return {y: i for i, y in enumerate(self.y_states)}

    @cached_property
    def _z_id(self) -> dict[ZState, int]:
        return {z: j for j, z in enumerate(self.z_states)}

    def decisions_of(self, y: StateEstimate) -> tuple[ControlDecision, ...]:
        return tuple(self.z_states[j].decision for j in self._y_zs[self._y_id[y]])

    def observations_of(self, z: ZState) -> tuple[tuple[str, StateEstimate], ...]:
        return tuple((obs, self.y_states[i]) for obs, i in self._z_obs[self._z_id[z]])


def feasible_decisions(plant: LabeledPlant, est: StateEstimate) -> tuple[ControlDecision, ...]:
    """All decisions whose enforced event (if any) is defined at every member
    of the estimate, in canonical form and deterministic order."""
    if est.empty:
        raise InvalidArgumentError("empty estimate has no feasible decisions")
    return _menu(plant.table, _enforceable(plant, plant.ids_of(est)))


def _enforceable(plant: LabeledPlant, ids: frozenset[str]) -> tuple[Optional[str], ...]:
    """``None`` (enforce nothing), then every forcible event defined at all
    of ``ids``, sorted."""
    trans = plant.automaton.transitions
    return (None,) + tuple(ev for ev in sorted(plant.table.enforceable_events)
                           if all((q, ev) in trans for q in ids))


def _menu(table: EventTable, enforceable: Sequence[Optional[str]]) -> tuple[ControlDecision, ...]:
    """Every canonical decision enforcing one of ``enforceable``, sorted."""
    subsets = _all_subsets(sorted(table.controllable_events))
    out = []
    for ev in enforceable:
        if ev is not None and ev in table.observable_events:
            out.append(ControlDecision(ev, frozenset()))
        else:
            out += [ControlDecision(ev, sub) for sub in subsets]
    return tuple(sorted(out, key=ControlDecision.sort_key))


def _all_subsets(items: Sequence[str]) -> list[frozenset[str]]:
    subs = [frozenset()]
    for item in items:
        subs += [s | {item} for s in subs]
    return subs


def _admitted(table: EventTable, dec: ControlDecision, obs_sorted: Sequence[str]) -> list[str]:
    """Observations ``dec`` admits, in ``obs_sorted`` order."""
    if dec.enforce in table.observable_events:
        return [dec.enforce]
    return [o for o in obs_sorted if o not in dec.disable]


def _released(plant: LabeledPlant, ids: frozenset[str],
              dec: ControlDecision) -> Optional[frozenset[str]]:
    """States the plant can be in under ``dec`` before the next observation:
    an unobservable enforced event fires, then undisabled unobservable events
    run.  An observable enforced event is that observation, so nothing moves
    first.  ``None`` when the enforced event is not defined at every member."""
    aut = plant.automaton
    if dec.enforce is not None:
        after = frozenset(aut.transitions.get((q, dec.enforce)) for q in ids)
        if None in after:
            return None
        if dec.enforce in plant.table.observable_events:
            return ids
        ids = after
    return unobservable_reach(aut, ids, dec.disable)


def observable_reach(plant: LabeledPlant, est: StateEstimate,
                     dec: ControlDecision, obs: str) -> Optional[StateEstimate]:
    """Estimate after the next observation under a decision, or ``None`` when
    that observation cannot occur.

    With an observable enforced event, only that event can be observed and it
    fires from the estimate itself.  With an unobservable enforced event, it
    fires first, then undisabled unobservable events run, then ``obs``.  With
    nothing enforced, undisabled unobservable events run, then ``obs``.
    An enforced event fires even if listed in the disable set.
    """
    aut = plant.automaton
    table = plant.table
    if obs not in table.observable_events:
        table.require(obs)
        raise InvalidArgumentError(f"event {obs} is not observable")
    released = _released(plant, plant.ids_of(est), dec)
    if released is None:
        raise InvalidArgumentError(f"decision {dec} is infeasible at {est}: "
                                   f"{dec.enforce} is not defined at every member")
    if dec.enforce in table.observable_events:
        if obs != dec.enforce:
            return None
    elif obs in dec.disable:
        raise InvalidArgumentError(f"observation {obs} is disabled by {dec}")
    after = frozenset(dst for q in released
                      if (dst := aut.transitions.get((q, obs))) is not None)
    return plant.estimate_of(after) if after else None


def build_bts(plant: LabeledPlant, max_states: int = 1_000_000) -> BTSGraph:
    """Expand the bipartite transition system from the certainty frontier.

    Each reachable estimate gets one Z-state per feasible decision; each
    Z-state gets one outgoing edge per undisabled observation with a
    non-empty observable reach.  Marked Y-states are fault-class-pure.
    Every edge into a known estimate points at its first-built object, and
    Y-states that can enforce the same events share one decision menu.
    """
    y0 = fault_frontier(plant)
    table = plant.table
    obs_sorted = sorted(table.observable_events)
    unobs_ctrl = table.unobservable_events & table.controllable_events
    # per enforceable set: each decision with the id of its effect on the
    # unobservable closure and the observations it admits; and the effects
    menus: dict[tuple[Optional[str], ...], tuple[list, list]] = {}

    y_order: list[StateEstimate] = sorted(y0, key=str)
    y_id = {y: i for i, y in enumerate(y_order)}
    z_order: list[ZState] = []
    y_zs: list[list[int]] = []
    z_owner: list[int] = []
    z_obs: list[tuple[tuple[str, int], ...]] = []

    def edges_under(y, effect, admitted, reached):
        for obs in admitted:
            if obs not in reached:
                nxt = observable_reach(plant, y, effect, obs)
                if nxt is not None and nxt not in y_id:
                    if len(y_order) + len(z_order) >= max_states:
                        raise ResourceLimitError(
                            f"bipartite system exceeded {max_states} states",
                            stats={"y_states": len(y_order), "z_states": len(z_order)})
                    y_id[nxt] = len(y_order)
                    y_order.append(nxt)
                reached[obs] = None if nxt is None else (obs, y_id[nxt])
        return tuple(edge for obs in admitted if (edge := reached[obs]) is not None)

    for i, y in enumerate(y_order):  # grows as estimates are discovered: breadth-first
        enforceable = _enforceable(plant, plant.ids_of(y))
        if enforceable not in menus:
            # disabling events only changes the closure through unobservable
            # controllable events, so most disable sets share one effect
            effects: dict[tuple, int] = {}
            entries = [(dec, effects.setdefault((dec.enforce, dec.disable & unobs_ctrl),
                                                len(effects)),
                        _admitted(table, dec, obs_sorted))
                       for dec in _menu(table, enforceable)]
            menus[enforceable] = (entries, [ControlDecision(*e) for e in effects])
        entries, effects = menus[enforceable]
        # per effect: observation -> its (obs, Y id) edge, or None when it cannot occur
        reached: list[dict[str, Optional[tuple[str, int]]]] = [{} for _ in effects]
        y_zs.append(list(range(len(z_order), len(z_order) + len(entries))))
        z_owner += [i] * len(entries)
        for dec, e, admitted in entries:  # in sort_key order, as the index wants
            z_order.append(ZState(y, dec))
            z_obs.append(edges_under(y, effects[e], admitted, reached[e]))
    marked = frozenset(y for y in y_order if classify(y).isolation != "FU")
    return BTSGraph._of_ids(tuple(y_order), tuple(z_order), frozenset(y0), marked,
                            y_zs, z_owner, z_obs)


def find_deadlocks(plant: LabeledPlant, bts: BTSGraph) -> frozenset[ZState]:
    """Z-states that can strand the plant before the next observation.

    An observable enforced event must be defined at every estimate member.
    Otherwise the plant evolves freely under the disablement: after the
    enforced event (if any) fires, every state reachable through undisabled
    unobservable events must still have some undisabled event available --
    with no unobservable cycles this is exactly the condition for an
    observation to eventually occur on every branch.
    """
    aut = plant.automaton
    active = {q: frozenset(ev for ev, _ in aut.outgoing(q)) for q in aut.states}
    table = plant.table
    unobs_ctrl = table.unobservable_events & table.controllable_events
    closures: dict[tuple, Optional[frozenset[str]]] = {}
    out = []
    for z, owner in zip(bts.z_states, bts._z_owner):
        dec = z.decision
        key = (owner, dec.enforce, dec.disable & unobs_ctrl)
        if key not in closures:
            closures[key] = _released(plant, plant.ids_of(z.estimate), dec)
        released = closures[key]
        if released is None or (dec.enforce not in table.observable_events
                                and any(active[q] <= dec.disable for q in released)):
            out.append(z)
    return frozenset(out)


def prune_live(bts: BTSGraph, deadlocks: frozenset[ZState]) -> BTSGraph:
    """Drop deadlock Z-states and keep the part accessible from the frontier.

    Doing nothing and disabling nothing never deadlocks in a live plant, so
    no surviving Y-state is left without a decision; InvalidArgumentError
    otherwise.
    """
    ys, zs = bts.y_states, bts.z_states
    dead = [z in deadlocks for z in zs]
    if sum(dead) != len(deadlocks):
        unknown = min(deadlocks - set(zs), key=str)
        raise InvalidArgumentError(f"deadlocks not in graph: {unknown}")
    kept: list[int] = []

    def live_successors(i):
        before = len(kept)
        steps = []
        for j in bts._y_zs[i]:
            if not dead[j]:
                kept.append(j)
                steps += bts._z_obs[j]
        if len(kept) == before:
            raise InvalidArgumentError(f"estimate {ys[i]} lost all decisions; "
                                       "plant is not live")
        return steps

    roots = sorted((bts._y_id[y] for y in bts.initial), key=lambda i: str(ys[i]))
    live_y = sorted(reach(roots, live_successors))
    y_new = {old: new for new, old in enumerate(live_y)}
    same = len(live_y) == len(ys)  # then every Y id, and so every edge, is unchanged
    z_new = {old: new for new, old in enumerate(kept)}
    return BTSGraph._of_ids(
        tuple(ys[i] for i in live_y), tuple(zs[j] for j in kept), bts.initial,
        frozenset(m for m in bts.marked if bts._y_id[m] in y_new),
        [[z_new[j] for j in bts._y_zs[i] if not dead[j]] for i in live_y],
        [y_new[bts._z_owner[j]] for j in kept],
        [bts._z_obs[j] if same else tuple((obs, y_new[i]) for obs, i in bts._z_obs[j])
         for j in kept])


@dataclass(frozen=True)
class SynthesisResult:
    """Outcome of the good-state computation.

    ``policy`` maps each good Y-state to the decision chosen for it;
    ``isolation_bound`` is the fixpoint round in which the slowest initial
    estimate turned good -- an upper bound on observations to isolation.
    """

    good_y: frozenset[StateEstimate]
    good_z: frozenset[ZState]
    policy: Mapping[StateEstimate, ControlDecision]
    solvable: bool
    deadlocks: frozenset[ZState]
    isolation_bound: Optional[int]
    rounds: Mapping[StateEstimate, int]


def good_fixpoint(bts_liv: BTSGraph, deadlocks: frozenset[ZState] = frozenset(),
                  tie_break: str = "default") -> SynthesisResult:
    """Backward attractor of the forcing relation, one layer per round.

    A Z-state is good when every observation it admits leads to a good
    Y-state; a Y-state is good when some decision leads to a good Z-state.
    Marked states are round 0.  Each Z-state counts its edges into states
    not yet good; the layer of round ``r - 1`` brings counters to zero, and
    those Z-states make their owners good in round ``r``.  Every edge is
    counted down once, so the cost is linear in the graph.

    Each newly good Y-state records the decision that made it good: fewest
    disabled events, then not enforcing (``default``) or enforcing
    (``paper-example``), then by name.  A marked state first prefers
    decisions whose observations all stay among marked states.
    """
    if tie_break not in TIE_BREAK_MODES:
        raise InvalidArgumentError(f"unknown tie-break mode: {tie_break}")
    enforce_first = tie_break == "paper-example"
    ys, zs, z_obs = bts_liv.y_states, bts_liv.z_states, bts_liv._z_obs

    def preference(j):
        dec = zs[j].decision
        return (len(dec.disable), (dec.enforce is None) == enforce_first,
                dec.enforce or "", tuple(sorted(dec.disable)))

    round_of: list[Optional[int]] = [None] * len(ys)
    layer = sorted(bts_liv._y_id[y] for y in bts_liv.marked)
    for i in layer:
        round_of[i] = 0
    rounds: dict[StateEstimate, int] = {ys[i]: 0 for i in layer}
    policy: dict[StateEstimate, ControlDecision] = {}
    for i in sorted(layer, key=lambda i: str(ys[i])):
        best = min(bts_liv._y_zs[i], key=lambda j: (
            any(round_of[t] is None for _, t in z_obs[j]), preference(j)))
        policy[ys[i]] = zs[best].decision

    preds: list[list[int]] = [[] for _ in ys]
    for j, edges in enumerate(z_obs):
        for _, i in edges:
            preds[i].append(j)
    pending = [len(edges) for edges in z_obs]
    good_z: list[int] = []
    r = 0
    while layer:
        r += 1
        ready = []
        for i in layer:
            for j in preds[i]:
                pending[j] -= 1
                if not pending[j]:
                    ready.append(j)
        good_z += ready
        candidates: dict[int, list[int]] = {}
        for j in ready:
            owner = bts_liv._z_owner[j]
            if round_of[owner] is None:
                candidates.setdefault(owner, []).append(j)
        layer = sorted(candidates)
        for i in layer:
            round_of[i] = r
            rounds[ys[i]] = r
            policy[ys[i]] = zs[min(candidates[i], key=preference)].decision
    good_y = frozenset(rounds)
    solvable = bts_liv.initial <= good_y
    bound = max((rounds[y] for y in bts_liv.initial), default=0) if solvable else None
    return SynthesisResult(good_y, frozenset(zs[j] for j in good_z), policy,
                           solvable, deadlocks, bound, rounds)


@dataclass(frozen=True)
class SupervisorPolicy:
    """A total decision policy over estimates.

    Explicit decisions cover every estimate reachable from the frontier under
    the policy itself; anywhere else the supervisor enforces nothing and
    disables nothing.
    """

    initial_frontier: frozenset[StateEstimate]
    decisions: Mapping[StateEstimate, ControlDecision]
    default: ControlDecision = NO_CONTROL

    def decision_for(self, est: StateEstimate) -> ControlDecision:
        return self.decisions.get(est, self.default)


def extract_supervisor(result: SynthesisResult, bts_liv: BTSGraph) -> SupervisorPolicy:
    """Package the winning policy, or explain why none exists.

    On failure the error carries, per non-good initial estimate, the
    non-good successors of each of its decisions.
    """
    if not result.solvable:
        ys, zs = bts_liv.y_states, bts_liv.z_states
        bad = {}
        for y in sorted(bts_liv.initial - result.good_y, key=str):
            bad[y] = {zs[j].decision: tuple(ys[i] for _, i in bts_liv._z_obs[j]
                                            if ys[i] not in result.good_y)
                      for j in bts_liv._y_zs[bts_liv._y_id[y]]}
        names = ", ".join(str(y) for y in sorted(bad, key=str))
        raise SynthesisError(
            f"no valid isolation supervisor: initial estimates not good: {names}",
            bad_initials=bad)
    return SupervisorPolicy(bts_liv.initial, dict(result.policy))


def policy_graph(plant: LabeledPlant, policy: SupervisorPolicy
                 ) -> dict[StateEstimate, tuple[tuple[str, StateEstimate], ...]]:
    """Estimate-transition table of the closed loop after certainty: from each
    reachable estimate, the observations the active decision admits and the
    estimates they lead to."""
    graph: dict[StateEstimate, tuple[tuple[str, StateEstimate], ...]] = {}
    obs_sorted = sorted(plant.table.observable_events)

    def successors(y):
        dec = policy.decision_for(y)
        graph[y] = tuple((obs, nxt) for obs in _admitted(plant.table, dec, obs_sorted)
                         if (nxt := observable_reach(plant, y, dec, obs)) is not None)
        return graph[y]

    reach(sorted(policy.initial_frontier, key=str), successors)
    return graph

