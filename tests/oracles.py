"""Independent brute-force oracles.

Everything here recomputes results from first principles (string enumeration,
exhaustive policy search) without touching the closure-based algorithms under
test, so a disagreement means a real bug on one side.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from typing import Hashable, Iterable, Optional, Sequence, Union

from faultiso.automata import (
    Automaton,
    EventTable,
    active_events,
    parallel_compose,
    unobservable_reach,
)
from faultiso.diagnosis import (
    NORMAL,
    Diagnoser,
    IsolatabilityReport,
    LabeledPlant,
    StateEstimate,
    classify,
    estimate_graph,
)
from faultiso.errors import (
    InvalidArgumentError,
    ModelError,
    NotDiagnosableError,
    ResourceLimitError,
)
from faultiso.graph import Succ, reach, shortest_path, strongly_connected
from faultiso.synthesis import (
    BTSGraph,
    ControlDecision,
    SupervisorPolicy,
    SynthesisResult,
    ZState,
)


def ids_of(plant: LabeledPlant, est: StateEstimate) -> frozenset[str]:
    """The labelled-state ids of an estimate's members."""
    return frozenset(plant.id_of[(m.base, m.label)] for m in est)


def enumerate_bounded_strings(aut, max_len):
    """All (string, end state) pairs with |string| <= max_len."""
    out = [((), aut.initial)]
    layer = [((), aut.initial)]
    for _ in range(max_len):
        nxt = []
        for s, q in layer:
            for ev, dst in aut.outgoing(q):
                nxt.append((s + (ev,), dst))
        out += nxt
        layer = nxt
    return out


def alphabet_scan_compose(a: Automaton, b: Automaton) -> Automaton:
    """``parallel_compose`` trying every event of the merged alphabet at
    every state pair, as it was before it walked the components' outgoing
    transitions."""
    table = a.table.merged_with(b.table)
    events, a_events, b_events = table.names, frozenset(a.table.names), frozenset(b.table.names)

    def name(pair):
        return f"({pair[0]},{pair[1]})"

    trans: dict[tuple[str, str], str] = {}

    def moves(pair):
        qa, qb = pair
        src = name(pair)
        out = []
        for ev in events:
            da = a.transitions.get((qa, ev)) if ev in a_events else qa
            db = b.transitions.get((qb, ev)) if ev in b_events else qb
            if da is not None and db is not None:
                out.append((ev, (da, db)))
                trans[(src, ev)] = name((da, db))
        return out

    pair_of: dict[str, tuple[str, str]] = {}
    for pair in reach([(a.initial, b.initial)], moves):
        if pair_of.setdefault(name(pair), pair) != pair:
            raise ModelError(f"composite state name {name(pair)} stands for two state pairs")
    return Automaton(table, frozenset(pair_of), name((a.initial, b.initial)), trans)


def composed_labeled_plant(g: Automaton) -> LabeledPlant:
    """The labelled plant as a composition: a label automaton over the fault
    events, where ``N`` moves to ``Fi`` on a class-``i`` fault and ``Fi``
    keeps class-``i`` faults, composed with ``g`` by ``parallel_compose``.
    Its ``(q,L)`` states are renamed ``qL``.  No model checks are made."""
    faults = tuple(e for e in g.table.events if e.fault_type is not None)
    trans = {}
    for e in faults:
        trans[(NORMAL, e.name)] = trans[(f"F{e.fault_type}", e.name)] = f"F{e.fault_type}"
    labels = frozenset(trans.values()) | {NORMAL}
    composed = parallel_compose(g, Automaton(EventTable(faults), labels, NORMAL, trans))
    pair_of = {c: tuple(c[1:-1].rsplit(",", 1)) for c in composed.states}  # "(q,L)"
    name = {c: q + label for c, (q, label) in pair_of.items()}
    aut = Automaton(composed.table, frozenset(name.values()), name[composed.initial],
                    {(name[c], ev): name[d] for (c, ev), d in composed.transitions.items()})
    return LabeledPlant(aut, {name[c]: q for c, (q, _) in pair_of.items()},
                        {name[c]: label for c, (_, label) in pair_of.items()},
                        {pair: name[c] for c, pair in pair_of.items()})


def brute_estimates(plant: LabeledPlant, max_len: int):
    """Map observation -> estimate from raw string enumeration.

    Returns ``(estimates, complete)`` where ``complete(t)`` tells whether the
    enumeration is guaranteed exhaustive for ``t``: it is unless some maximal
    enumerated string could still extend and later contribute to ``t``.
    """
    obs_events = plant.table.observable_events
    estimates: dict[tuple, set] = {(): {plant.automaton.initial}}
    frontier_projections = set()
    for s, q in enumerate_bounded_strings(plant.automaton, max_len):
        if not s:
            continue
        t = tuple(e for e in s if e in obs_events)
        if s[-1] in obs_events:
            estimates.setdefault(t, set()).add(q)
        if len(s) == max_len and plant.automaton.outgoing(q):
            frontier_projections.add(t)

    def complete(t):
        return not any(t[:len(p)] == p for p in frontier_projections)

    def estimate(t):
        return plant.estimate_of(estimates.get(t, set())) \
            if estimates.get(t) else StateEstimate(())

    return {t: estimate(t) for t in estimates}, complete


def brute_zstate_deadlock(plant: LabeledPlant, est: StateEstimate,
                          dec: ControlDecision) -> bool:
    """Continuation-existence check by exploring admissible strings.

    A Z-state deadlocks when the commanded event is impossible at some
    estimate member, or when some admissible sequence of unobservable events
    strands the plant with nothing admissible left.
    """
    aut = plant.automaton
    table = plant.table
    ids = sorted(ids_of(plant, est))
    if dec.enforce is not None:
        if any(aut.transitions.get((q, dec.enforce)) is None for q in ids):
            return True
        if dec.enforce in table.observable_events:
            return False
        ids = [aut.transitions[(q, dec.enforce)] for q in ids]

    def stuck(q, depth):
        admissible = [(ev, dst) for ev, dst in aut.outgoing(q)
                      if ev not in dec.disable]
        if not admissible:
            return True
        if depth > len(aut.states) + 1:  # cannot happen without unobservable cycles
            raise AssertionError("unobservable run exceeded state count")
        return any(stuck(dst, depth + 1) for ev, dst in admissible
                   if ev in table.unobservable_events)

    return any(stuck(q, 0) for q in ids)


def _walk_by_observation(plant: LabeledPlant, max_obs_len: int, decision_at):
    """Grow strings level by level over observation length.

    ``decision_at(t, level_endpoints)`` returns the decision in force after
    observing ``t`` (None before certainty).  Decisions only ever depend on
    strictly shorter observations, so each level is complete before its
    decision is queried.  Returns the accepted strings and, per observation,
    the end states of accepted strings ending in that observable event.
    """
    aut = plant.automaton
    obs_events = plant.table.observable_events
    language: set[tuple] = {()}
    obs_end: dict[tuple, set] = {(): {aut.initial}}
    # strings of the current level: (string, state, fresh-after-observable)
    level = {(): [((), aut.initial, True)]}
    for _ in range(max_obs_len + 1):
        next_level: dict[tuple, list] = {}
        for t, entries in sorted(level.items()):
            dec = decision_at(t, obs_end.get(t, set()))
            # close the level under admissible unobservable events
            pending = list(entries)
            closed = []
            while pending:
                s, q, fresh = pending.pop()
                closed.append((s, q, fresh))
                for ev, dst in aut.outgoing(q):
                    if ev in obs_events:
                        continue
                    if dec is not None:
                        allowed = (ev == dec.enforce) if (fresh and dec.enforce
                                                          is not None) \
                            else (ev not in dec.disable)
                        if not allowed:
                            continue
                    s2 = s + (ev,)
                    language.add(s2)
                    pending.append((s2, dst, False))
            for s, q, fresh in closed:
                for ev, dst in aut.outgoing(q):
                    if ev not in obs_events:
                        continue
                    if dec is not None:
                        if fresh and dec.enforce is not None:
                            allowed = ev == dec.enforce
                        else:
                            allowed = ev not in dec.disable
                        if not allowed:
                            continue
                    s2 = s + (ev,)
                    t2 = t + (ev,)
                    language.add(s2)
                    obs_end.setdefault(t2, set()).add(dst)
                    next_level.setdefault(t2, []).append((s2, dst, True))
        level = next_level
    return language, obs_end


def exact_uncontrolled_estimates(plant: LabeledPlant, max_obs_len: int):
    """Observation -> estimate, exact for every |t| <= max_obs_len."""
    _, obs_end = _walk_by_observation(plant, max_obs_len, lambda t, ids: None)
    return {t: plant.estimate_of(ids) for t, ids in obs_end.items()}


def closed_loop_language(plant: LabeledPlant, policy: SupervisorPolicy,
                         max_len: int) -> set[tuple]:
    """Controlled language by literal application of the switching rules.

    Before fault certainty (judged on the uncontrolled estimate of the
    observation) everything runs free.  From certainty on, the decision for
    the controlled estimate applies: immediately after an observable event
    only the enforced event may occur (or anything not disabled when nothing
    is enforced); deeper in the epoch anything not disabled may occur.
    """
    unc = exact_uncontrolled_estimates(plant, max_len)

    def decision_at(t, level_ids):
        est = unc.get(t)
        if est is None or est.empty or "N" in est.labels():
            return None
        return policy.decision_for(plant.estimate_of(level_ids))

    language, _ = _walk_by_observation(plant, max_len, decision_at)
    return {s for s in language if len(s) <= max_len}


def closed_loop_estimates(plant: LabeledPlant, policy: SupervisorPolicy,
                          max_obs_len: int):
    """Observation -> controlled estimate, by the same literal enumeration."""
    unc = exact_uncontrolled_estimates(plant, max_obs_len)

    def decision_at(t, level_ids):
        est = unc.get(t)
        if est is None or est.empty or "N" in est.labels():
            return None
        return policy.decision_for(plant.estimate_of(level_ids))

    _, obs_end = _walk_by_observation(plant, max_obs_len, decision_at)
    return {t: plant.estimate_of(ids) for t, ids in obs_end.items()}


def all_policies(bts_liv: BTSGraph, cap: int):
    """Every memoryless decision assignment, or None when there are too many."""
    ys = list(bts_liv.y_states)
    options = [bts_liv.decisions_of(y) for y in ys]
    total = 1
    for opts in options:
        total *= len(opts)
        if total > cap:
            return None
    return [dict(zip(ys, combo)) for combo in product(*options)]


def policy_forces(bts_liv: BTSGraph, assignment, start) -> bool:
    """True when every run from ``start`` under the assignment visits a marked
    estimate: no cycle of unmarked estimates may be reachable."""
    marked = bts_liv.marked

    def successors(y):
        z = ZState(y, assignment[y])
        return [dst for _, dst in bts_liv.observations_of(z)]

    if start in marked:
        return True
    # reachable unmarked subgraph
    seen = {start}
    stack = [start]
    edges = {}
    while stack:
        y = stack.pop()
        succ = [d for d in successors(y) if d not in marked]
        edges[y] = succ
        for d in succ:
            if d not in seen:
                seen.add(d)
                stack.append(d)
    # any cycle in that subgraph means a run can dodge marked states forever
    color = {}
    def has_cycle(y):
        color[y] = 1
        for d in edges[y]:
            c = color.get(d)
            if c == 1 or (c is None and has_cycle(d)):
                return True
        color[y] = 2
        return False

    return not has_cycle(start)


def oracle_good_states(bts_liv: BTSGraph, cap: int = 20000):
    """Good Y-states by exhaustive policy enumeration, or None if capped out."""
    policies = all_policies(bts_liv, cap)
    if policies is None:
        return None
    good = set()
    for y in bts_liv.y_states:
        if any(policy_forces(bts_liv, pi, y) for pi in policies):
            good.add(y)
    return good


def oracle_solvable(bts_liv: BTSGraph, cap: int = 20000):
    """Single-policy solvability by enumeration, or None if capped out."""
    policies = all_policies(bts_liv, cap)
    if policies is None:
        return None
    return any(all(policy_forces(bts_liv, pi, y0) for y0 in bts_liv.initial)
               for pi in policies)


def _tie_break_key(mode, dec, z_targets, rounds):
    # fast isolation first, then small disable sets; default prefers not
    # enforcing, the alternate mode prefers enforcing
    worst = max((rounds.get(t, 10 ** 9) for t in z_targets), default=0)
    prefer_none = dec.enforce is not None
    if mode == "paper-example":
        prefer_none = dec.enforce is None
    return (worst, len(dec.disable), prefer_none,
            dec.enforce or "", tuple(sorted(dec.disable)))


def round_scan_fixpoint(bts_liv: BTSGraph, deadlocks=frozenset(),
                        tie_break: str = "default") -> SynthesisResult:
    """The good-state fixpoint by literal round scans: each round first marks
    every Z-state whose observations all lead to good Y-states, then makes
    good every Y-state with a good Z-state.  O(rounds * |Z|); the referee
    for ``good_fixpoint``'s layered attractor, policy order included."""
    good_y = set(bts_liv.marked)
    good_z = set()
    rounds = {y: 0 for y in good_y}
    policy = {}

    targets_of = {z: tuple(dst for _, dst in bts_liv.observations_of(z))
                  for z in bts_liv.z_states}

    for y in sorted(bts_liv.marked, key=str):
        decs = bts_liv.decisions_of(y)
        policy[y] = min(decs, key=lambda d: _tie_break_key(
            tie_break, d, targets_of[ZState(y, d)], rounds))

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
                          if ZState(y, d) in good_z]
            if candidates:
                good_y.add(y)
                rounds[y] = r
                policy[y] = min(candidates, key=lambda d: _tie_break_key(
                    tie_break, d, targets_of[ZState(y, d)], rounds))
                changed = True
    solvable = bts_liv.initial <= good_y
    bound = max((rounds[y] for y in bts_liv.initial), default=0) if solvable else None
    return SynthesisResult(frozenset(good_y), frozenset(good_z), policy,
                           solvable, deadlocks, bound, rounds)


@dataclass(frozen=True)
class PerDecisionBTS:
    """A bipartite system stored one Z-state per decision, in plain tuples
    and dicts: the referee for ``BTSGraph``'s effect classes.  It has the
    attributes ``round_scan_fixpoint`` and the policy oracles read."""

    y_states: tuple[StateEstimate, ...]
    z_states: tuple[ZState, ...]
    yz_edges: dict
    zy_edges: dict
    initial: frozenset[StateEstimate]
    marked: frozenset[StateEstimate]

    @cached_property
    def _index(self):
        decisions, observations = {}, {}
        for y, dec in self.yz_edges:
            decisions.setdefault(y, []).append(dec)
        for (z, obs), dst in self.zy_edges.items():
            observations.setdefault(z, []).append((obs, dst))
        return decisions, observations

    def decisions_of(self, y):
        return tuple(self._index[0].get(y, ()))

    def observations_of(self, z):
        return tuple(self._index[1].get(z, ()))


def set_released(plant: LabeledPlant, ids: frozenset[str],
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


def set_observable_reach(plant: LabeledPlant, est: StateEstimate,
                         dec: ControlDecision, obs: str) -> Optional[StateEstimate]:
    """``observable_reach`` on sets of state ids, as it was before the step
    ran on ``plant.index`` masks: the released states come from
    ``unobservable_reach`` and the result is rebuilt with ``estimate_of``."""
    aut = plant.automaton
    table = plant.table
    if obs not in table.observable_events:
        table.require(obs)
        raise InvalidArgumentError(f"event {obs} is not observable")
    released = set_released(plant, ids_of(plant, est), dec)
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


def enumerated_decisions(plant: LabeledPlant, est: StateEstimate) -> tuple[ControlDecision, ...]:
    """``feasible_decisions`` from the automaton and the event table alone:
    enforce nothing, or a forcible event defined at every member's labelled
    state; an observable enforced event disables nothing, any other choice
    takes every subset of the controllable events.  Sorted by ``sort_key``."""
    table, trans, ids = plant.table, plant.automaton.transitions, ids_of(plant, est)
    enforced = [None] + [ev for ev in table.enforceable_events
                         if all((q, ev) in trans for q in ids)]
    controllable = sorted(table.controllable_events)
    subsets = [frozenset(ev for ev, keep in zip(controllable, bits) if keep)
               for bits in product((False, True), repeat=len(controllable))]
    out = []
    for ev in enforced:
        if ev in table.observable_events:
            out.append(ControlDecision(ev, frozenset()))
        else:
            out += [ControlDecision(ev, sub) for sub in subsets]
    return tuple(sorted(out, key=ControlDecision.sort_key))


def per_decision_bts(plant: LabeledPlant) -> PerDecisionBTS:
    """``build_bts`` one Z-state per feasible decision, as it was built
    before effect classes: Y-states in breadth-first discovery order from
    the frontier sorted by name, each Y-state's Z-states in decision
    ``sort_key`` order, each Z-state's edges in observation order."""
    y0 = set_frontier(plant)
    observable = plant.table.observable_events
    y_order = sorted(y0, key=str)
    y_id = {y: i for i, y in enumerate(y_order)}
    z_order, yz, zy = [], {}, {}
    for y in y_order:  # grows as estimates are discovered
        for dec in enumerated_decisions(plant, y):
            z = ZState(y, dec)
            z_order.append(z)
            yz[(y, dec)] = z
            admitted = ([dec.enforce] if dec.enforce in observable
                        else sorted(observable - dec.disable))
            for obs in admitted:
                nxt = set_observable_reach(plant, y, dec, obs)
                if nxt is None:
                    continue
                if nxt not in y_id:
                    y_id[nxt] = len(y_order)
                    y_order.append(nxt)
                zy[(z, obs)] = y_order[y_id[nxt]]
    marked = frozenset(y for y in y_order if classify(y).isolation != "FU")
    return PerDecisionBTS(tuple(y_order), tuple(z_order), yz, zy, frozenset(y0), marked)


def per_decision_deadlocks(plant: LabeledPlant, bts) -> frozenset[ZState]:
    """``find_deadlocks`` one Z-state at a time: an observable enforced
    event must be defined at every member; otherwise, after the enforced
    event fires, every state of the undisabled unobservable closure needs an
    undisabled event."""
    aut, observable = plant.automaton, plant.table.observable_events
    out = set()
    for z in bts.z_states:
        dec, ids = z.decision, ids_of(plant, z.estimate)
        if dec.enforce is not None:
            after = [aut.transitions.get((q, dec.enforce)) for q in ids]
            if None in after:
                out.add(z)
                continue
            if dec.enforce in observable:
                continue
            ids = after
        if any(active_events(aut, q) <= dec.disable
               for q in unobservable_reach(aut, ids, dec.disable)):
            out.add(z)
    return frozenset(out)


def per_decision_prune(bts, dropped) -> PerDecisionBTS:
    """``prune_live`` one Z-state at a time: drop ``dropped`` and keep what
    the initial estimates still reach, Y-states in their old order and
    Z-states in breadth-first visiting order."""
    kept = []

    def successors(y):
        live = [ZState(y, dec) for dec in bts.decisions_of(y)
                if ZState(y, dec) not in dropped]
        if not live:
            raise InvalidArgumentError(f"estimate {y} lost all decisions")
        kept.extend(live)
        return [edge for z in live for edge in bts.observations_of(z)]

    live_y = set(reach(sorted(bts.initial, key=str), successors))
    return PerDecisionBTS(
        tuple(y for y in bts.y_states if y in live_y), tuple(kept),
        {(z.estimate, z.decision): z for z in kept},
        {(z, obs): dst for z in kept for obs, dst in bts.observations_of(z)},
        bts.initial, frozenset(bts.marked & live_y))


def per_decision_bad_initials(bts, good_y) -> dict:
    """``SynthesisError.bad_initials`` for a graph and its good Y-states: per
    non-good initial estimate, by name, each decision's non-good successors."""
    return {y: {dec: tuple(dst for _, dst in bts.observations_of(ZState(y, dec))
                           if dst not in good_y)
                for dec in bts.decisions_of(y)}
            for y in sorted(bts.initial - good_y, key=str)}


def split_trace(trace: Sequence[Union[ControlDecision, str]]
                ) -> tuple[tuple[ControlDecision, ...], tuple[str, ...]]:
    """Split an interleaved decision/observation trace, preserving order."""
    decisions = tuple(x for x in trace if isinstance(x, ControlDecision))
    observations = tuple(x for x in trace if isinstance(x, str))
    return decisions, observations


def enumerate_language(aut, max_len: int) -> set[tuple[str, ...]]:
    """All strings of length <= max_len generated from the initial state.

    Exponential; for tests and small demonstrations only.
    """
    out: set[tuple[str, ...]] = {()}
    layer = [((), aut.initial)]
    for _ in range(max_len):
        nxt = []
        for s, q in layer:
            for ev, dst in aut.outgoing(q):
                s2 = s + (ev,)
                out.add(s2)
                nxt.append((s2, dst))
        layer = nxt
    return out


@dataclass(frozen=True)
class SetDiagnoser:
    """The public fields of a ``Diagnoser``, as ``set_diagnoser`` finds them."""

    states: tuple[StateEstimate, ...]
    alphabet: frozenset[str]
    transitions: dict
    initial: StateEstimate


def set_diagnoser(plant: LabeledPlant, max_states: int = 1_000_000) -> SetDiagnoser:
    """The worklist determinisation on sets of state ids: every observable
    event is tried at every estimate, and every successor is rebuilt and
    hashed as a ``StateEstimate``."""
    aut = plant.automaton
    initial = plant.initial_estimate
    table = {initial: frozenset([aut.initial])}
    queue = deque([initial])
    trans: dict[tuple[StateEstimate, str], StateEstimate] = {}
    order = [initial]
    while queue:
        est = queue.popleft()
        closure = unobservable_reach(aut, table[est])
        for obs in sorted(plant.table.observable_events):
            nxt_ids = frozenset(dst for q in closure
                                if (dst := aut.transitions.get((q, obs))) is not None)
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
    return SetDiagnoser(tuple(order), plant.table.observable_events, trans, initial)


def set_adjacency(diag: SetDiagnoser) -> dict[StateEstimate, list]:
    """Per estimate of ``diag``, its ``(obs, estimate)`` successors, sorted."""
    adj: dict[StateEstimate, list] = {est: [] for est in diag.states}
    for (src, obs), dst in diag.transitions.items():
        adj[src].append((obs, dst))
    for edges in adj.values():
        edges.sort()
    return adj


def set_frontier(plant: LabeledPlant, diag: SetDiagnoser = None) -> frozenset[StateEstimate]:
    """``fault_frontier`` on estimates: a search on the transitions of
    ``diag`` (by default ``set_diagnoser(plant)``) that stops at each estimate
    ``classify`` finds fault-certain.  No diagnosability check."""
    diag = diag or set_diagnoser(plant)
    adj, frontier = set_adjacency(diag), set()

    def expand(est):
        if classify(est).detection == "F":
            frontier.add(est)
            return ()
        return adj[est]

    reach([diag.initial], expand)
    return frozenset(frontier)


# the referee's own cycle and path queries, independent of graph.strongly_connected

def cyclic_nodes(nodes: Iterable[Hashable], succ: Succ) -> set:
    """Nodes reachable from ``nodes`` that lie on a cycle: the members of
    non-trivial strongly connected components and the nodes with a self-loop
    (Tarjan, SIAM J. Comput. 1972)."""
    index: dict = {}
    low: dict = {}
    component: list = []
    on_component = set()
    cyclic = set()
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        component.append(root)
        on_component.add(root)
        stack = [(root, iter(succ(root)))]
        while stack:
            node, edges = stack[-1]
            for _, nxt in edges:
                if nxt == node:
                    cyclic.add(node)
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    component.append(nxt)
                    on_component.add(nxt)
                    stack.append((nxt, iter(succ(nxt))))
                    break
                if nxt in on_component:
                    low[node] = min(low[node], index[nxt])
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    members = [component.pop()]
                    while members[-1] != node:
                        members.append(component.pop())
                    on_component.difference_update(members)
                    if len(members) > 1:
                        cyclic.update(members)
    return cyclic


def longest_path(nodes: Iterable[Hashable], succ: Succ) -> Optional[int]:
    """Edges on a longest path among the nodes reachable from ``nodes``, or
    None when they contain a cycle (Kahn's topological order)."""
    targets = {n: [m for _, m in succ(n)] for n in reach(nodes, succ)}
    pending = dict.fromkeys(targets, 0)
    for out in targets.values():
        for m in out:
            pending[m] += 1
    ready = [n for n, count in pending.items() if count == 0]
    depth = dict.fromkeys(targets, 0)
    for n in ready:
        for m in targets[n]:
            depth[m] = max(depth[m], depth[n] + 1)
            pending[m] -= 1
            if pending[m] == 0:
                ready.append(m)
    if len(ready) < len(targets):
        return None
    return max(depth.values(), default=0)


def set_isolatability(plant: LabeledPlant, diag: SetDiagnoser = None) -> IsolatabilityReport:
    """The mixed-cycle test on estimates: the frontier comes from
    ``set_frontier``, "mixed" from the estimates' fault labels, and the graph
    from the transitions of ``diag`` (by default ``set_diagnoser(plant)``)."""
    report = plant.diagnosability
    if not report.diagnosable:
        raise NotDiagnosableError(
            "isolatability is only defined for diagnosable systems",
            witness=report.witness)
    diag = diag or set_diagnoser(plant)
    adj = set_adjacency(diag)
    nodes = reach(sorted(set_frontier(plant, diag), key=str), adj.__getitem__)
    mixed = [len(est.fault_labels()) >= 2 for est in nodes]
    if not any(mixed):
        return IsolatabilityReport(True, None, 0)
    pos = {est: i for i, est in enumerate(nodes)}
    edges = [[(obs, pos[nxt]) for obs, nxt in adj[est]] for est in nodes]

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


def pair_isolatable(plant: LabeledPlant) -> bool:
    """Isolatability from pairs of runs, with no estimate: the labelled plant
    paired with itself, both copies moving together on an observable event
    and one copy alone on an unobservable one, so a path of pairs is two
    runs with one observation.  Labels never revert, so every pair of a
    strongly connected component carries the same two labels, and the plant
    is not isolatable exactly when a cycle of reachable pairs carries two
    distinct fault labels.  The twin-plant test of Jiang, Huang, Chandra and
    Kumar (IEEE TAC 46(8), 2001), run on pairs of fault classes."""
    aut, label = plant.automaton, plant.label_of
    observable = plant.table.observable_events

    edges: list[list] = []  # reach calls moves once per pair, in discovery order

    def moves(pair):
        x, y = pair
        out = [(ev, (dx, dy)) for ev, dx in aut.outgoing(x) if ev in observable
               and (dy := aut.transitions.get((y, ev))) is not None]
        out += [(ev, (dx, y)) for ev, dx in aut.outgoing(x) if ev not in observable]
        out += [(ev, (x, dy)) for ev, dy in aut.outgoing(y) if ev not in observable]
        edges.append(out)
        return out

    pairs = reach([(aut.initial, aut.initial)], moves)
    pos = {p: i for i, p in enumerate(pairs)}
    succ = [[(ev, pos[q]) for ev, q in out] for out in edges]
    for component in strongly_connected(len(pairs), succ.__getitem__):
        first = component[0]
        labels = {label[x] for x in pairs[first]}
        if (len(labels) == 2 and NORMAL not in labels
                and (len(component) > 1 or any(j == first for _, j in succ[first]))):
            return False
    return True


def printed_witness(plant: LabeledPlant) -> Optional[tuple]:
    """The witness cycle of ``check_isolatability`` as chosen by printing
    interned estimates: it starts at ``min(trapped or on_cycle, key=lambda i:
    (str(index.estimate(masks[i])), i))`` over ``estimate_graph``'s
    positions, then takes the shortest way back.  The cyclic mixed positions
    come from ``cyclic_nodes``, and the trapped ones are those that no
    backward search from a pure fault-certain position meets.  None when no
    mixed estimate lies on a cycle."""
    index, (masks, rows, _) = plant.index, estimate_graph(plant)
    certain = [i for i, mask in enumerate(masks) if not mask & index.normal]
    mixed = {i for i in certain if len(index.estimate(masks[i]).fault_labels()) >= 2}
    on_cycle = sorted(cyclic_nodes(sorted(mixed), lambda i: [
        (obs, j) for obs, j in rows[i].items() if j in mixed]))
    if not on_cycle:
        return None
    preds: list[list] = [[] for _ in masks]
    for i, row in enumerate(rows):
        for obs, j in row.items():
            preds[j].append((obs, i))
    reach_pure = set(reach([i for i in certain if i not in mixed], preds.__getitem__))
    trapped = [i for i in on_cycle if i not in reach_pure]
    chosen = min(trapped or on_cycle, key=lambda i: (str(index.estimate(masks[i])), i))
    witness = [index.estimate(masks[chosen])]
    for obs, j in shortest_path(chosen, lambda i: rows[i].items(), lambda j: j == chosen):
        witness += [obs, index.estimate(masks[j])]
    return tuple(witness)


def json_supervisor(payload: dict) -> str:
    """A supervisor payload as the standard library writes it: the referee
    for ``modelio.serialize_supervisor``."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def old_enforceable(plant: LabeledPlant, mask: int) -> tuple[Optional[str], ...]:
    """``None``, then each forcible event defined at every state of
    ``mask``, sorted: the per-event ``all(...)`` test over successor dicts."""
    succ = [plant.index.succ[b] for b in range(len(plant.index.members)) if mask >> b & 1]
    return (None,) + tuple(ev for ev in sorted(plant.table.enforceable_events)
                           if all(ev in s for s in succ))


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def decision_members(bts: BTSGraph, i: int) -> list[tuple[ControlDecision, int, int]]:
    """``(decision, effect id, mask)`` for every Z-state of Y id ``i``, each
    built as a ``ControlDecision`` and sorted by ``sort_key``: the member
    expansion that ``BTSGraph._members_of`` did before it listed names."""
    out = []
    for e in bts._y_effects[i]:
        eff = bts._effects[e]
        free = sorted(eff.free)
        extras = [frozenset(c) for r in range(len(free) + 1) for c in combinations(free, r)]
        for mask in range(1 << len(eff.bits)):
            if bts._holds(e, mask):
                dec = eff.decision(mask)
                out += [(ControlDecision(dec.enforce, dec.disable | extra), e, mask)
                        for extra in extras]
    out.sort(key=lambda m: m[0].sort_key())
    return out


def printed_diagnoser_dot(diag: Diagnoser) -> str:
    """The diagnoser's DOT text from its interned estimates, sorted by
    ``str`` and then by position, and its transitions sorted by source rank
    and observation: the referee for ``dotexport.export_diagnoser_dot``."""
    order = sorted(diag.states, key=str)
    name = {est: _dot_quote(str(est)) for est in order}
    rank = {est: i for i, est in enumerate(order)}
    lines = ["digraph diagnoser {", "  rankdir=LR;"]
    for est in order:
        attrs = ["shape=ellipse"]
        if est == diag.initial:
            attrs.append("color=blue")
        lines.append(f"  {name[est]} [{', '.join(attrs)}];")
    for (src, obs), dst in sorted(diag.transitions.items(),
                                  key=lambda kv: (rank[kv[0][0]], kv[0][1])):
        lines.append(f"  {name[src]} -> {name[dst]} [label={_dot_quote(obs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def decision_bts_dot(bts: BTSGraph, result: Optional[SynthesisResult] = None) -> str:
    """The bipartite system's DOT text with one ``ControlDecision`` per
    member, from ``decision_members``, each line formatted and quoted on its
    own: the referee for ``dotexport.export_bts_dot``."""
    good_y = result.good_y if result else frozenset()
    policy = dict(result.policy) if result else {}
    is_good = result.good_z._holds if result else lambda e, mask: False
    texts = [str(y) for y in bts.y_states]
    name_of = [_dot_quote(text) for text in texts]
    ys = sorted(range(len(texts)), key=texts.__getitem__)
    rows = [(i, [(dec, e, mask, _dot_quote(dec_text), _dot_quote(f"({texts[i]},{dec_text})"))
                 for dec, e, mask in decision_members(bts, i) for dec_text in (str(dec),)])
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
                lines.append(f"  {z_name} -> {name_of[j]} [label={_dot_quote(obs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
