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

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

from .automata import EventTable, unobservable_reach
from .diagnosis import LabeledPlant, StateEstimate, classify, fault_frontier
from .errors import ResourceLimitError, SynthesisError
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
            raise ValueError(f"cannot disable uncontrollable event {ev}")
    if enforce is not None:
        table.require(enforce)
        if enforce not in table.enforceable_events:
            raise ValueError(f"cannot enforce non-forcible event {enforce}")
        if enforce in table.observable_events:
            disable = frozenset()
    return ControlDecision(enforce, disable)


@dataclass(frozen=True)
class ZState:
    """An estimate with the decision issued there, awaiting an observation."""

    estimate: StateEstimate
    decision: ControlDecision

    def __str__(self):
        return f"({self.estimate},{self.decision})"


@dataclass(frozen=True)
class BTSGraph:
    """Bipartite transition system over Y-states and Z-states.

    Only the part accessible from the initial frontier is stored.  Every
    ``yz_edges[(y, c)]`` is structurally ``ZState(y, c)``; every
    ``zy_edges[(z, obs)]`` is the observable reach of ``z`` under ``obs``.
    """

    y_states: tuple[StateEstimate, ...]
    z_states: tuple[ZState, ...]
    yz_edges: Mapping[tuple[StateEstimate, ControlDecision], ZState]
    zy_edges: Mapping[tuple[ZState, str], StateEstimate]
    initial: frozenset[StateEstimate]
    marked: frozenset[StateEstimate]

    def __post_init__(self):
        y_adj: dict[StateEstimate, list[ControlDecision]] = {y: [] for y in self.y_states}
        for (y, dec) in self.yz_edges:
            y_adj[y].append(dec)
        for decs in y_adj.values():
            decs.sort(key=ControlDecision.sort_key)
        z_adj: dict[ZState, list[tuple[str, StateEstimate]]] = {z: [] for z in self.z_states}
        for (z, obs), dst in self.zy_edges.items():
            z_adj[z].append((obs, dst))
        for edges in z_adj.values():
            edges.sort()
        object.__setattr__(self, "_y_adj", {y: tuple(v) for y, v in y_adj.items()})
        object.__setattr__(self, "_z_adj", {z: tuple(v) for z, v in z_adj.items()})

    def decisions_of(self, y: StateEstimate) -> tuple[ControlDecision, ...]:
        return self._y_adj[y]

    def observations_of(self, z: ZState) -> tuple[tuple[str, StateEstimate], ...]:
        return self._z_adj[z]


def feasible_decisions(plant: LabeledPlant, est: StateEstimate) -> tuple[ControlDecision, ...]:
    """All decisions whose enforced event (if any) is defined at every member
    of the estimate, in canonical form and deterministic order."""
    if est.empty:
        raise ValueError("empty estimate has no feasible decisions")
    table = plant.table
    aut = plant.automaton
    ids = plant.ids_of(est)
    enforceable = [None]
    for ev in sorted(table.enforceable_events):
        if all(aut.transitions.get((q, ev)) is not None for q in ids):
            enforceable.append(ev)
    subsets = _all_subsets(sorted(table.controllable_events))
    out = set()
    for ev in enforceable:
        if ev is not None and ev in table.observable_events:
            out.add(ControlDecision(ev, frozenset()))
        else:
            for sub in subsets:
                out.add(ControlDecision(ev, sub))
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
        raise ValueError(f"event {obs} is not observable")
    released = _released(plant, plant.ids_of(est), dec)
    if released is None:
        raise ValueError(f"decision {dec} is infeasible at {est}: "
                         f"{dec.enforce} is not defined at every member")
    if dec.enforce in table.observable_events:
        if obs != dec.enforce:
            return None
    elif obs in dec.disable:
        raise ValueError(f"observation {obs} is disabled by {dec}")
    after = frozenset(dst for q in released
                      if (dst := aut.transitions.get((q, obs))) is not None)
    return plant.estimate_of(after) if after else None


def build_bts(plant: LabeledPlant, max_states: int = 1_000_000) -> BTSGraph:
    """Expand the bipartite transition system from the certainty frontier.

    Each reachable estimate gets one Z-state per feasible decision; each
    Z-state gets one outgoing edge per undisabled observation with a
    non-empty observable reach.  Marked Y-states are fault-class-pure.
    """
    y0 = fault_frontier(plant)
    table = plant.table
    obs_sorted = sorted(table.observable_events)
    unobs_ctrl = table.unobservable_events & table.controllable_events

    # disabling events only changes the unobservable closure through
    # unobservable controllable events, so most disable sets share one reach
    memo: dict[tuple, Optional[StateEstimate]] = {}

    def cached_reach(y, dec, obs):
        key = (y, dec.enforce, dec.disable & unobs_ctrl, obs)
        if key not in memo:
            memo[key] = observable_reach(plant, y, ControlDecision(key[1], key[2]), obs)
        return memo[key]

    y_order: list[StateEstimate] = sorted(y0, key=str)
    queue = deque(y_order)
    yz: dict[tuple[StateEstimate, ControlDecision], ZState] = {}
    zy: dict[tuple[ZState, str], StateEstimate] = {}
    z_order: list[ZState] = []
    known = set(y_order)
    while queue:
        y = queue.popleft()
        for dec in feasible_decisions(plant, y):
            z = ZState(y, dec)
            yz[(y, dec)] = z
            z_order.append(z)
            for obs in _admitted(table, dec, obs_sorted):
                nxt = cached_reach(y, dec, obs)
                if nxt is None:
                    continue
                zy[(z, obs)] = nxt
                if nxt not in known:
                    if len(known) + len(z_order) >= max_states:
                        raise ResourceLimitError(
                            f"bipartite system exceeded {max_states} states",
                            stats={"y_states": len(known), "z_states": len(z_order)})
                    known.add(nxt)
                    y_order.append(nxt)
                    queue.append(nxt)
    marked = frozenset(y for y in y_order if classify(y).isolation != "FU")
    return BTSGraph(tuple(y_order), tuple(z_order), yz, zy,
                    frozenset(y0), marked)


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
    for z in bts.z_states:
        ids = plant.ids_of(z.estimate)
        dec = z.decision
        key = (ids, dec.enforce, dec.disable & unobs_ctrl)
        if key not in closures:
            closures[key] = _released(plant, ids, dec)
        released = closures[key]
        if released is None or (dec.enforce not in table.observable_events
                                and any(active[q] <= dec.disable for q in released)):
            out.append(z)
    return frozenset(out)


def prune_live(bts: BTSGraph, deadlocks: frozenset[ZState]) -> BTSGraph:
    """Drop deadlock Z-states and keep the part accessible from the frontier.

    Doing nothing and disabling nothing never deadlocks in a live plant, so
    no surviving Y-state is left without a decision; ValueError otherwise.
    """
    unknown = [z for z in deadlocks if (z.estimate, z.decision) not in bts.yz_edges]
    if unknown:
        raise ValueError(f"deadlocks not in graph: {unknown[0]}")
    yz: dict[tuple[StateEstimate, ControlDecision], ZState] = {}
    zy: dict[tuple[ZState, str], StateEstimate] = {}

    def live_successors(y):
        before = len(yz)
        steps = []
        for dec in bts.decisions_of(y):
            z = bts.yz_edges[(y, dec)]
            if z in deadlocks:
                continue
            yz[(y, dec)] = z
            edges = bts.observations_of(z)
            for obs, nxt in edges:
                zy[(z, obs)] = nxt
            steps += edges
        if len(yz) == before:
            raise ValueError(f"estimate {y} lost all decisions; plant is not live")
        return steps

    live_y = set(reach(sorted(bts.initial, key=str), live_successors))
    y_order = tuple(y for y in bts.y_states if y in live_y)
    return BTSGraph(y_order, tuple(yz.values()), yz, zy, bts.initial,
                    frozenset(m for m in bts.marked if m in live_y))


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


def _tie_break_key(mode, dec, z_targets, rounds):
    # fast isolation first, then small disable sets; default prefers not
    # enforcing, the alternate mode prefers enforcing
    worst = max((rounds.get(t, 10 ** 9) for t in z_targets), default=0)
    prefer_none = dec.enforce is not None
    if mode == "paper-example":
        prefer_none = dec.enforce is None
    return (worst, len(dec.disable), prefer_none,
            dec.enforce or "", tuple(sorted(dec.disable)))


def good_fixpoint(bts_liv: BTSGraph, deadlocks: frozenset[ZState] = frozenset(),
                  tie_break: str = "default") -> SynthesisResult:
    """Backward fixpoint of the forcing relation.

    A Z-state is good when every observation it admits leads to a good
    Y-state; a Y-state is good when some decision leads to a good Z-state.
    Marked states seed the fixpoint.  Each newly good Y-state records the
    decision that made it good, with the documented tie-break.
    """
    if tie_break not in TIE_BREAK_MODES:
        raise ValueError(f"unknown tie-break mode: {tie_break}")
    good_y: set[StateEstimate] = set(bts_liv.marked)
    good_z: set[ZState] = set()
    rounds: dict[StateEstimate, int] = {y: 0 for y in good_y}
    policy: dict[StateEstimate, ControlDecision] = {}

    targets_of = {z: tuple(dst for _, dst in bts_liv.observations_of(z))
                  for z in bts_liv.z_states}

    for y in sorted(bts_liv.marked, key=str):
        decs = bts_liv.decisions_of(y)
        policy[y] = min(decs, key=lambda d: _tie_break_key(
            tie_break, d, targets_of[bts_liv.yz_edges[(y, d)]], rounds))

    r = 0
    changed = True
    while changed:
        changed = False
        r += 1
        for z in bts_liv.z_states:
            if z in good_z:
                continue
            targets = targets_of[z]
            if targets and all(t in good_y for t in targets):
                good_z.add(z)
        for y in bts_liv.y_states:
            if y in good_y:
                continue
            candidates = [d for d in bts_liv.decisions_of(y)
                          if bts_liv.yz_edges[(y, d)] in good_z]
            if candidates:
                good_y.add(y)
                rounds[y] = r
                policy[y] = min(candidates, key=lambda d: _tie_break_key(
                    tie_break, d, targets_of[bts_liv.yz_edges[(y, d)]], rounds))
                changed = True
    solvable = bts_liv.initial <= good_y
    bound = max((rounds[y] for y in bts_liv.initial), default=0) if solvable else None
    return SynthesisResult(frozenset(good_y), frozenset(good_z), policy,
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
        bad = {}
        for y in sorted(bts_liv.initial - result.good_y, key=str):
            reasons = {}
            for dec in bts_liv.decisions_of(y):
                z = bts_liv.yz_edges[(y, dec)]
                misses = tuple(dst for _, dst in bts_liv.observations_of(z)
                               if dst not in result.good_y)
                reasons[dec] = misses
            bad[y] = reasons
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


def split_trace(trace: Sequence[Union[ControlDecision, str]]
                ) -> tuple[tuple[ControlDecision, ...], tuple[str, ...]]:
    """Split an interleaved decision/observation trace, preserving order."""
    decisions = tuple(x for x in trace if isinstance(x, ControlDecision))
    observations = tuple(x for x in trace if isinstance(x, str))
    return decisions, observations
