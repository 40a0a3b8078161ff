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
``synthesize`` runs these stages in that order.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence, Set
from dataclasses import dataclass
from functools import cached_property
from typing import AbstractSet, Optional

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


class _ZSet(Set):
    """Read-only set of the Z-states of some classes of a graph (all of them
    for ``classes=None``).

    Its length comes from the class multiplicities and membership is one
    class lookup; members are built only when a caller iterates, in
    ``z_states`` order.
    """

    def __init__(self, graph: BTSGraph, classes: Optional[frozenset[int]] = None):
        self._graph, self._classes = graph, classes

    @classmethod
    def _from_iterable(cls, items):
        return frozenset(items)

    @cached_property
    def _size(self) -> int:
        free = self._graph._z_free
        return sum(1 << len(free[c]) for c in (
            range(len(free)) if self._classes is None else self._classes))

    def __len__(self):
        return self._size

    def __contains__(self, z):
        c = self._graph._class_of(z)
        return c is not None and (self._classes is None or c in self._classes)

    def __iter__(self):
        return (z for z, _ in self._graph._expand(self._classes))

    __hash__ = Set._hash


class _YZEdges(Mapping):
    """``yz_edges`` as a view: ``(y, decision) -> ZState(y, decision)``."""

    def __init__(self, graph: BTSGraph):
        self._graph = graph

    def __getitem__(self, key):
        z = ZState(*key) if isinstance(key, tuple) and len(key) == 2 else None
        if z is None or z not in self._graph.z_states:
            raise KeyError(key)
        return z

    def __iter__(self):
        return ((z.estimate, z.decision) for z, _ in self._graph._expand())

    def __len__(self):
        return len(self._graph.z_states)


class _ZYEdges(Mapping):
    """``zy_edges`` as a view: ``(z, obs) -> `` the Y-state ``obs`` leads to."""

    def __init__(self, graph: BTSGraph):
        self._graph = graph

    def __getitem__(self, key):
        g = self._graph
        c = g._class_of(key[0]) if isinstance(key, tuple) and len(key) == 2 else None
        for obs, i in () if c is None else g._z_obs[c]:
            if obs == key[1]:
                return g.y_states[i]
        raise KeyError(key)

    def __iter__(self):
        z_obs = self._graph._z_obs
        return ((z, obs) for z, c in self._graph._expand() for obs, _ in z_obs[c])

    @cached_property
    def _size(self) -> int:
        g = self._graph
        return sum(len(edges) << len(free) for edges, free in zip(g._z_obs, g._z_free))

    def __len__(self):
        return self._size


class BTSGraph:
    """Bipartite transition system over Y-states and Z-states.

    Only the part accessible from the initial frontier is stored.  Every
    ``yz_edges[(y, c)]`` is structurally ``ZState(y, c)``; every
    ``zy_edges[(z, obs)]`` is the observable reach of ``z`` under ``obs``.

    Z-states are stored by *class*: a minimal decision plus a set of free
    events, standing for the ``2 ** len(free)`` Z-states that add any subset
    of the free events to the disable set; all of them have the class's
    successors and deadlock status.  Y-states and classes are numbered by
    position, and the synthesis stages work on those ids.  ``build_bts`` and
    ``prune_live`` build every graph from its class lists: per Y-state its
    class ids; per class its owner's Y id, minimal decision, free events and
    ``(obs, Y id)`` edges sorted by observation; and the deadlocked class
    ids.  ``z_states``, ``yz_edges`` and ``zy_edges`` are read-only views
    over them: lengths come from the multiplicities, membership is a class
    lookup, and members are expanded only when iterated.
    """

    def __init__(self, y_states: tuple[StateEstimate, ...], initial: frozenset[StateEstimate],
                 marked: frozenset[StateEstimate], y_zs: list[list[int]], z_owner: list[int],
                 z_dec: list[ControlDecision], z_free: list[frozenset[str]],
                 z_obs: list[tuple[tuple[str, int], ...]], z_dead: frozenset[int]):
        self.y_states, self.initial, self.marked = y_states, initial, marked
        self._y_zs, self._z_owner, self._z_dec, self._z_free = y_zs, z_owner, z_dec, z_free
        self._z_obs, self._z_dead = z_obs, z_dead
        self.z_states: AbstractSet[ZState] = _ZSet(self)
        self.yz_edges: Mapping[tuple[StateEstimate, ControlDecision], ZState] = _YZEdges(self)
        self.zy_edges: Mapping[tuple[ZState, str], StateEstimate] = _ZYEdges(self)

    @cached_property
    def _y_id(self) -> dict[StateEstimate, int]:
        return {y: i for i, y in enumerate(self.y_states)}

    def _require_y(self, y) -> int:
        i = self._y_id.get(y)
        if i is None:
            raise InvalidArgumentError(f"estimate not in graph: {y}")
        return i

    @cached_property
    def _class_index(self) -> tuple[dict, list[set[frozenset[str]]]]:
        """``(Y id, enforced event, minimal disable set) -> class id``, and the
        distinct free-event sets per Y id."""
        index, frees = {}, [set() for _ in self.y_states]
        for c, (i, dec, free) in enumerate(zip(self._z_owner, self._z_dec, self._z_free)):
            index[(i, dec.enforce, dec.disable)] = c
            frees[i].add(free)
        return index, frees

    def _class_of(self, z) -> Optional[int]:
        """The id of the class holding ``z``, or ``None`` when ``z`` is not a
        Z-state of the graph."""
        i = self._y_id.get(z.estimate) if isinstance(z, ZState) else None
        if i is None:
            return None
        index, frees = self._class_index
        dec = z.decision
        for free in frees[i]:  # classes are disjoint, so at most one matches
            c = index.get((i, dec.enforce, dec.disable - free))
            if c is not None and self._z_free[c] == free:
                return c
        return None

    def _members_of(self, i: int) -> list[tuple[ControlDecision, int]]:
        """``(decision, class id)`` for every Z-state of Y id ``i``, in
        decision ``sort_key`` order."""
        out = []
        for c in self._y_zs[i]:
            dec = self._z_dec[c]
            out.append((dec, c))
            out += [(ControlDecision(dec.enforce, dec.disable | extra), c)
                    for extra in _all_subsets(sorted(self._z_free[c]))[1:]]
        out.sort(key=lambda m: m[0].sort_key())
        return out

    def _expand(self, classes: Optional[frozenset[int]] = None):
        """``(Z-state, class id)`` for every member of ``classes`` (default
        all), Y-states in the order of their first class id."""
        owners = self._z_owner if classes is None else map(self._z_owner.__getitem__,
                                                           sorted(classes))
        for i in dict.fromkeys(owners):
            y = self.y_states[i]
            for dec, c in self._members_of(i):
                if classes is None or c in classes:
                    yield ZState(y, dec), c

    def decisions_of(self, y: StateEstimate) -> tuple[ControlDecision, ...]:
        return tuple(dec for dec, _ in self._members_of(self._require_y(y)))

    def observations_of(self, z: ZState) -> tuple[tuple[str, StateEstimate], ...]:
        c = self._class_of(z)
        if c is None:
            raise InvalidArgumentError(f"Z-state not in graph: {z}")
        return tuple((obs, self.y_states[i]) for obs, i in self._z_obs[c])


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

    Z-states are stored one per effect class.  The unobservable part of a
    disable set fixes the closure the decision releases; the controllable
    events active somewhere in that closure are its relevant events.  Two
    decisions with the same enforced event that disable the same relevant
    events have the same successors and the same deadlock status, so the
    class keyed by ``(enforce, disable & relevant)`` is stored once, as its
    minimal member, with the other controllable events free: it stands for
    ``2 ** len(free)`` Z-states.  An observable enforced event is a class of
    one.  Y-states and classes are numbered in the order the per-decision
    expansion would discover them.  Each class's deadlock status (see
    ``find_deadlocks``) is decided here, on the closure its effect releases.
    ``max_states`` caps the stored states: Y-states plus classes.
    """
    y0 = fault_frontier(plant)
    table, trans = plant.table, plant.automaton.transitions
    ctrl = table.controllable_events
    unobs_ctrl = table.unobservable_events & ctrl
    unobs_parts = _all_subsets(sorted(unobs_ctrl))
    active_at = {q: frozenset(ev for ev, _ in plant.automaton.outgoing(q))
                 for q in plant.automaton.states}
    # per (enforced event, unobservable disable part, relevant events): each
    # class's sort key, minimal decision and free events
    menus: dict[tuple, list] = {}

    def menu(ev, part, relevant):
        """``relevant`` is None for an observable enforced event."""
        key = (ev, part, relevant)
        if key not in menus:
            if relevant is None:
                classes = [(ControlDecision(ev), frozenset())]
            else:
                free = ctrl - relevant
                classes = [(ControlDecision(ev, part | extra), free)
                           for extra in _all_subsets(sorted(relevant - unobs_ctrl))]
            menus[key] = [(dec.sort_key(), dec, free) for dec, free in classes]
        return menus[key]

    y_order: list[StateEstimate] = sorted(y0, key=str)
    y_id = {y: i for i, y in enumerate(y_order)}
    y_zs: list[list[int]] = []
    z_owner: list[int] = []
    z_dec: list[ControlDecision] = []
    z_free: list[frozenset[str]] = []
    z_obs: list[tuple[tuple[str, int], ...]] = []
    z_dead: list[int] = []

    def edges_under(released, admitted, reached):
        for obs in admitted:
            if obs not in reached:
                after = frozenset(dst for q in released
                                  if (dst := trans.get((q, obs))) is not None)
                nxt = plant.estimate_of(after) if after else None
                if nxt is not None and nxt not in y_id:
                    if len(y_order) + len(z_owner) >= max_states:
                        raise ResourceLimitError(
                            f"bipartite system exceeded {max_states} states",
                            stats={"y_states": len(y_order), "z_classes": len(z_owner)})
                    y_id[nxt] = len(y_order)
                    y_order.append(nxt)
                reached[obs] = None if nxt is None else (obs, y_id[nxt])
        return tuple(edge for obs in admitted if (edge := reached[obs]) is not None)

    for i, y in enumerate(y_order):  # grows as estimates are discovered: breadth-first
        ids = plant.ids_of(y)
        # per closure effect: the released states, the observations that can
        # occur from them in name order, the effect's classes, and the event
        # sets of released states that a disable set can block entirely
        effects = []
        for ev in _enforceable(plant, ids):
            if ev in table.observable_events:
                effects.append((ids, [ev], menu(ev, frozenset(), None), ()))
                continue
            for part in unobs_parts:
                released = _released(plant, ids, ControlDecision(ev, part))
                active = frozenset().union(*map(active_at.__getitem__, released))
                if part <= active:  # else its classes are listed under part & active
                    effects.append((released, sorted(active & table.observable_events),
                                    menu(ev, part, active & ctrl),
                                    {active_at[q] for q in released if active_at[q] <= ctrl}))
        classes = sorted(((entry, e) for e, (_, _, entries, _) in enumerate(effects)
                          for entry in entries), key=lambda m: m[0][0])
        # per effect: observation -> its (obs, Y id) edge, or None when it cannot occur
        reached: list[dict[str, Optional[tuple[str, int]]]] = [{} for _ in effects]
        y_zs.append(list(range(len(z_owner), len(z_owner) + len(classes))))
        for (_, dec, free), e in classes:  # minimal members in sort_key order
            released, possible, _, blockable = effects[e]
            if any(events <= dec.disable for events in blockable):
                z_dead.append(len(z_owner))
            z_owner.append(i)
            z_dec.append(dec)
            z_free.append(free)
            z_obs.append(edges_under(released, [o for o in possible if o not in dec.disable],
                                     reached[e]))
    marked = frozenset(y for y in y_order if classify(y).isolation != "FU")
    return BTSGraph(tuple(y_order), frozenset(y0), marked,
                    y_zs, z_owner, z_dec, z_free, z_obs, frozenset(z_dead))


def find_deadlocks(plant: LabeledPlant, bts: BTSGraph) -> AbstractSet[ZState]:
    """Z-states of ``bts`` (built from ``plant``) that can strand the plant
    before the next observation, as a read-only view of its deadlocked
    classes.

    An observable enforced event is defined at every estimate member, so it
    fires.  Otherwise the plant evolves freely under the disablement: after
    the enforced event (if any) fires, every state reachable through
    undisabled unobservable events must still have some undisabled event
    available -- with no unobservable cycles this is exactly the condition
    for an observation to eventually occur on every branch.  ``build_bts``
    decides the status once per class, on its minimal decision.
    """
    return _ZSet(bts, bts._z_dead)


def prune_live(bts: BTSGraph, deadlocks: AbstractSet[ZState]) -> BTSGraph:
    """Drop deadlock Z-states and keep the part accessible from the frontier.

    ``deadlocks`` is a class view of ``bts``: what ``find_deadlocks``
    returns, or ``bts.z_states``.  An empty set drops nothing; any other set
    raises InvalidArgumentError.  Doing nothing and disabling nothing never
    deadlocks in a live plant, so no surviving Y-state is left without a
    decision; InvalidArgumentError otherwise.
    """
    ys = bts.y_states
    if isinstance(deadlocks, _ZSet) and deadlocks._graph is bts:
        gone = range(len(bts._z_dec)) if deadlocks._classes is None else deadlocks._classes
    elif not deadlocks:
        gone = ()
    else:
        raise InvalidArgumentError("prune_live takes find_deadlocks(plant, bts) or "
                                   "bts.z_states, not another set of Z-states")
    kept: list[int] = []  # per kept class, its id in bts

    def live_successors(i):
        classes = [c for c in bts._y_zs[i] if c not in gone]
        if not classes:
            raise InvalidArgumentError(f"estimate {ys[i]} lost all decisions; "
                                       "plant is not live")
        kept.extend(classes)
        return [edge for c in classes for edge in bts._z_obs[c]]

    roots = sorted((bts._y_id[y] for y in bts.initial), key=lambda i: str(ys[i]))
    live_y = sorted(reach(roots, live_successors))
    y_new = {old: new for new, old in enumerate(live_y)}
    same = len(live_y) == len(ys)  # then every Y id, and so every edge, is unchanged
    y_zs: list[list[int]] = [[] for _ in live_y]
    z_owner = [y_new[bts._z_owner[c]] for c in kept]
    for new, i in enumerate(z_owner):
        y_zs[i].append(new)
    return BTSGraph(
        tuple(ys[i] for i in live_y), bts.initial,
        frozenset(m for m in bts.marked if bts._y_id[m] in y_new),
        y_zs, z_owner, [bts._z_dec[c] for c in kept], [bts._z_free[c] for c in kept],
        [bts._z_obs[c] if same else tuple((obs, y_new[i]) for obs, i in bts._z_obs[c])
         for c in kept],
        frozenset(new for new, c in enumerate(kept) if c in bts._z_dead))


@dataclass(frozen=True)
class SynthesisResult:
    """Outcome of the good-state computation.

    ``policy`` maps each good Y-state to the decision chosen for it;
    ``isolation_bound`` is the fixpoint round in which the slowest initial
    estimate turned good -- an upper bound on observations to isolation.
    """

    good_y: frozenset[StateEstimate]
    good_z: AbstractSet[ZState]
    policy: Mapping[StateEstimate, ControlDecision]
    solvable: bool
    deadlocks: AbstractSet[ZState]
    isolation_bound: Optional[int]
    rounds: Mapping[StateEstimate, int]


def good_fixpoint(bts_liv: BTSGraph, deadlocks: AbstractSet[ZState] = frozenset(),
                  tie_break: str = "default") -> SynthesisResult:
    """Backward attractor of the forcing relation, one layer per round.

    A Z-state is good when every observation it admits leads to a good
    Y-state; a Y-state is good when some decision leads to a good Z-state.
    Marked states are round 0.  Each Z-state counts its edges into states
    not yet good; the layer of round ``r - 1`` brings counters to zero, and
    those Z-states make their owners good in round ``r``.  Every edge is
    counted down once, so the cost is linear in the graph.  It runs on the
    classes: the members of a class share its successors, so they turn good
    together, and ``good_z`` is a read-only view of the good classes.

    Each newly good Y-state records the decision that made it good: fewest
    disabled events, then not enforcing (``default``) or enforcing
    (``paper-example``), then by name.  A marked state first prefers
    decisions whose observations all stay among marked states.  Every
    ranking puts fewer disabled events first, so the choice within a class
    is always its minimal decision.
    """
    if tie_break not in TIE_BREAK_MODES:
        raise InvalidArgumentError(f"unknown tie-break mode: {tie_break}")
    enforce_first = tie_break == "paper-example"
    ys, z_dec, z_obs = bts_liv.y_states, bts_liv._z_dec, bts_liv._z_obs

    def preference(j):  # called at most once per class
        dec = z_dec[j]
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
        policy[ys[i]] = z_dec[best]

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
            policy[ys[i]] = z_dec[min(candidates[i], key=preference)]
    good_y = frozenset(rounds)
    solvable = bts_liv.initial <= good_y
    bound = max((rounds[y] for y in bts_liv.initial), default=0) if solvable else None
    return SynthesisResult(good_y, _ZSet(bts_liv, frozenset(good_z)), policy,
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
    non-good successors of each of its decisions (the members of a class
    share them).
    """
    if not result.solvable:
        ys = bts_liv.y_states
        bad = {}
        for y in sorted(bts_liv.initial - result.good_y, key=str):
            bad[y] = {dec: tuple(ys[i] for _, i in bts_liv._z_obs[c]
                                 if ys[i] not in result.good_y)
                      for dec, c in bts_liv._members_of(bts_liv._y_id[y])}
        names = ", ".join(str(y) for y in sorted(bad, key=str))
        raise SynthesisError(
            f"no valid isolation supervisor: initial estimates not good: {names}",
            bad_initials=bad)
    return SupervisorPolicy(bts_liv.initial, dict(result.policy))


class Synthesis:
    """What ``synthesize`` built: the graph ``bts``, its ``deadlocks``, the
    pruned graph ``live`` and the fixpoint ``result``.  ``policy`` raises
    ``SynthesisError`` when unsolvable.  A plain class, like ``StateIndex``,
    so that importing the package builds no extra dataclass."""

    def __init__(self, bts: BTSGraph, deadlocks: AbstractSet[ZState], live: BTSGraph,
                 result: SynthesisResult):
        self.bts, self.deadlocks, self.live, self.result = bts, deadlocks, live, result

    @cached_property
    def policy(self) -> SupervisorPolicy:
        return extract_supervisor(self.result, self.live)


def synthesize(plant: LabeledPlant, tie_break: str = "default") -> Synthesis:
    """``build_bts``, ``find_deadlocks``, ``prune_live``, then ``good_fixpoint``."""
    if tie_break not in TIE_BREAK_MODES:
        raise InvalidArgumentError(f"unknown tie-break mode: {tie_break}")
    bts = build_bts(plant)
    deadlocks = find_deadlocks(plant, bts)
    live = prune_live(bts, deadlocks)
    return Synthesis(bts, deadlocks, live, good_fixpoint(live, deadlocks, tie_break))


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

