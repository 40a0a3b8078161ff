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
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import AbstractSet, Optional
from weakref import WeakValueDictionary

from .automata import EventTable
from .diagnosis import LabeledPlant, StateEstimate, StateIndex, _bits, fault_frontier
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

    def __reduce__(self):  # hashed again where loaded: str and None hashes vary
        return ControlDecision, (self.enforce, self.disable)

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
    for ev in sorted(disable, key=repr):  # not set order: one bad event named in any process
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

    def __str__(self):
        return f"({self.estimate},{self.decision})"


def _unblocked(n: int, blockers: Sequence[int], must: int = 0) -> int:
    """How many subsets of ``n`` bits contain ``must`` and no blocker mask.
    Inclusion-exclusion over the blockers, with terms of equal union merged."""
    terms = {must: 1}  # union of chosen blockers (and must) -> signed coefficient
    for b in blockers:
        for m, c in list(terms.items()):
            terms[m | b] = terms.get(m | b, 0) - c
    return sum(c << (n - m.bit_count()) for m, c in terms.items())


_unblocked_of = lru_cache(maxsize=4096)(_unblocked)  # effects share a few blocker tuples


class _Effect:
    """One closure effect of a Y-state: an enforced event plus the
    unobservable part of a disable set.  ``bits`` maps each relevant
    controllable observable event (sorted) to its bit; a mask over them
    picks the member decisions that also disable those events, with any
    subset of the ``free`` events, which change nothing.
    ``edges`` are the ``(obs, Y id)`` successors of the minimal decision
    ``dec``, sorted by observation; every relevant event has one.
    ``blockers`` is the antichain of minimal masks whose disabling
    deadlocks the plant: ``(0,)`` when ``dec`` already does."""

    __slots__ = ("owner", "dec", "bits", "free", "edges", "blockers")

    def __init__(self, owner: int, dec: ControlDecision, bits: dict[str, int],
                 free: frozenset[str], edges: tuple[tuple[str, int], ...],
                 blockers: tuple[int, ...]):
        self.owner, self.dec, self.bits, self.free = owner, dec, bits, free
        self.edges, self.blockers = edges, blockers

    def blocked(self, mask: int) -> bool:
        return any(b & mask == b for b in self.blockers)

    def count(self, must: int = 0, live: bool = False) -> int:
        """How many member decisions disable at least the events of ``must``
        (only those that do not deadlock, for ``live``)."""
        if live and self.blockers:
            return _unblocked_of(len(self.bits), self.blockers, must) << len(self.free)
        return 1 << (len(self.bits) + len(self.free) - must.bit_count())

    def silent(self, mask: int) -> bool:
        """Whether the member admits no observation at all."""
        return len(self.edges) == len(self.bits) and mask == (1 << len(self.bits)) - 1

    def decision(self, mask: int) -> ControlDecision:
        if not mask:
            return self.dec
        return ControlDecision(self.dec.enforce, self.dec.disable.union(
            ev for ev, bit in self.bits.items() if bit & mask))

    def edges_under(self, mask: int) -> list[tuple[str, int]]:
        bits = self.bits
        return [edge for edge in self.edges if not bits.get(edge[0], 0) & mask]


class _ZView(Set):
    """Read-only set of some Z-states of a graph: member ``mask`` of effect
    ``e`` is in it when ``e`` is among ``ids`` (all for ``None``) and
    ``take(e, mask)`` holds, and ``count(e)`` says in closed form how many
    members of ``e`` are.

    Its length is the sum of those counts, with each single-member effect
    among ``ids`` counted as one (every view takes that member), and
    membership is one effect lookup; members are built only when a caller
    iterates, in ``z_states`` order.
    """

    def __init__(self, graph: BTSGraph, take, count, ids: Optional[frozenset[int]] = None):
        self._graph, self._take, self._count, self._ids = graph, take, count, ids

    @classmethod
    def _from_iterable(cls, items):
        return frozenset(items)

    def _holds(self, e: int, mask: int) -> bool:
        return (self._ids is None or e in self._ids) and self._take(e, mask)

    @cached_property
    def _size(self) -> int:
        ids = range(len(self._graph._effects)) if self._ids is None else self._ids
        single = self._graph._single[0]
        return len(single.intersection(ids)) + sum(map(self._count, frozenset(ids) - single))

    def __len__(self):
        return self._size

    def __contains__(self, z):
        at = self._graph._locate(z)
        return at is not None and self._holds(*at)

    def __iter__(self):
        return (z for z, _, _ in self._graph._expand(self._ids, self._take))

    __hash__ = Set._hash


class _ZYEdges(Mapping):
    """``zy_edges`` as a view: ``(z, obs) -> `` the Y-state ``obs`` leads to."""

    def __init__(self, graph: BTSGraph):
        self._graph = graph

    def __getitem__(self, key):
        g = self._graph
        at = g._locate(key[0]) if isinstance(key, tuple) and len(key) == 2 else None
        for obs, i in () if at is None else g._effects[at[0]].edges_under(at[1]):
            if obs == key[1]:
                return g.y_states[i]
        raise KeyError(key)

    def __iter__(self):
        effects = self._graph._effects
        return ((z, obs) for z, e, mask in self._graph._expand()
                for obs, _ in effects[e].edges_under(mask))

    @cached_property
    def _size(self) -> int:
        # every member admits all of its effect's edges but one per event it disables
        g = self._graph
        single, edges = g._single
        return edges + sum(len(eff.edges) * eff.count(0, g._live)
                           - sum(eff.count(b, g._live) for b in eff.bits.values())
                           for e, eff in enumerate(g._effects) if e not in single)

    def __len__(self):
        return self._size


class BTSGraph:
    """Bipartite transition system over Y-states and Z-states.

    Only the part accessible from the initial frontier is stored.  Every
    ``zy_edges[(z, obs)]`` is the observable reach of ``z`` under ``obs``.

    Z-states are stored one ``_Effect`` per enforced event and unobservable
    disable part of each Y-state (see ``build_bts``).  A Z-state is an
    effect plus a mask of disabled relevant events: it admits the effect's
    edges whose event is not in the mask, and deadlocks when a blocker lies
    inside it.  A ``live`` graph, which ``prune_live`` builds from a
    deadlock view, holds only the members that do not deadlock.  Y-states
    and effects are numbered by position, and the synthesis stages work on
    those ids.  ``z_states`` and ``zy_edges`` are read-only views: lengths
    are closed-form counts over the effects, membership is an effect
    lookup, and members are expanded only when iterated.
    """

    def __init__(self, y_states: tuple[StateEstimate, ...], initial: frozenset[StateEstimate],
                 marked: frozenset[StateEstimate], y_effects: list[Sequence[int]],
                 effects: list[_Effect], live: bool = False):
        self.y_states, self.initial, self.marked = y_states, initial, marked
        self._y_effects, self._effects, self._live = y_effects, effects, live
        # name -> view.  A view holds the graph, but not back: the graph and
        # its effects are freed by reference counting, not the cyclic GC
        self._views: WeakValueDictionary = WeakValueDictionary()

    def _view(self, name: str, make):
        view = self._views.get(name)
        if view is None:
            view = self._views[name] = make()
        return view

    @property
    def z_states(self) -> AbstractSet[ZState]:
        effects, live = self._effects, self._live
        return self._view("z", lambda: _ZView(self, self._holds,
                                              lambda e: effects[e].count(0, live)))

    @property
    def zy_edges(self) -> Mapping[tuple[ZState, str], StateEstimate]:
        return self._view("zy", lambda: _ZYEdges(self))

    @cached_property
    def _y_id(self) -> dict[StateEstimate, int]:
        return {y: i for i, y in enumerate(self.y_states)}

    def _require_y(self, y) -> int:
        i = self._y_id.get(y)
        if i is None:
            raise InvalidArgumentError(f"estimate not in graph: {y}")
        return i

    def _holds(self, e: int, mask: int) -> bool:
        """Whether member ``mask`` of effect ``e`` is in the graph."""
        return not (self._live and self._effects[e].blocked(mask))

    @cached_property
    def _single(self) -> tuple[frozenset[int], int]:
        """The effects with one member, which admits some observation (no
        relevant or free event, no blocker: an observable enforced event),
        and the number of their edges, so that the views count them in bulk."""
        ids = [e for e, eff in enumerate(self._effects)
               if eff.edges and not (eff.bits or eff.free or eff.blockers)]
        return frozenset(ids), sum(len(self._effects[e].edges) for e in ids)

    @property
    def _deadlocks(self) -> _ZView:
        """The deadlocked Z-states of the graph (none when ``live``): members
        of the effects with a blocker."""
        effects, live = self._effects, self._live
        return self._view("deadlocks", lambda: _ZView(
            self, lambda e, mask: effects[e].blocked(mask),
            lambda e: effects[e].count(0, live) - effects[e].count(0, True),
            frozenset(e for e, eff in enumerate(effects) if eff.blockers)))

    def _locate(self, z) -> Optional[tuple[int, int]]:
        """``(effect id, mask)`` of ``z``, or ``None`` when ``z`` is not a
        Z-state of the graph."""
        i = self._y_id.get(z.estimate) if isinstance(z, ZState) else None
        if i is None:
            return None
        dec = z.decision
        for e in self._y_effects[i]:
            eff = self._effects[e]
            if (eff.dec.enforce == dec.enforce
                    and dec.disable.difference(eff.free, eff.bits) == eff.dec.disable):
                mask = sum(bit for ev, bit in eff.bits.items() if ev in dec.disable)
                return (e, mask) if self._holds(e, mask) else None
        return None

    def _members_of(self, i: int) -> list[tuple[ControlDecision, int, int]]:
        """``(decision, effect id, mask)`` for every Z-state of Y id ``i``,
        in decision ``sort_key`` order."""
        out = []
        for e in self._y_effects[i]:
            eff = self._effects[e]
            extras = _all_subsets(sorted(eff.free))
            for mask in range(1 << len(eff.bits)):
                if self._holds(e, mask):
                    dec = eff.decision(mask)
                    out.append((dec, e, mask))
                    out += [(ControlDecision(dec.enforce, dec.disable | extra), e, mask)
                            for extra in extras[1:]]
        out.sort(key=lambda m: m[0].sort_key())
        return out

    def _expand(self, ids: Optional[frozenset[int]] = None, take=None):
        """``(Z-state, effect id, mask)`` for every member of the effects
        ``ids`` (default all) that ``take`` accepts, Y-states in the order of
        their first effect id."""
        owners = (eff.owner for eff in self._effects) if ids is None else (
            self._effects[e].owner for e in sorted(ids))
        for i in dict.fromkeys(owners):
            y = self.y_states[i]
            for dec, e, mask in self._members_of(i):
                if (ids is None or e in ids) and (take is None or take(e, mask)):
                    yield ZState(y, dec), e, mask

    def decisions_of(self, y: StateEstimate) -> tuple[ControlDecision, ...]:
        return tuple(dec for dec, _, _ in self._members_of(self._require_y(y)))

    def observations_of(self, z: ZState) -> tuple[tuple[str, StateEstimate], ...]:
        at = self._locate(z)
        if at is None:
            raise InvalidArgumentError(f"Z-state not in graph: {z}")
        return tuple((obs, self.y_states[i])
                     for obs, i in self._effects[at[0]].edges_under(at[1]))


def feasible_decisions(plant: LabeledPlant, est: StateEstimate) -> tuple[ControlDecision, ...]:
    """All decisions whose enforced event (if any) is defined at every member
    of the estimate, in canonical form and deterministic order."""
    if est.empty:
        raise InvalidArgumentError("empty estimate has no feasible decisions")
    return _menu(plant.table, _enforceable(plant.table, plant.index, plant.index.mask_of(est)))


def _enforceable(table: EventTable, index: StateIndex, mask: int) -> tuple[Optional[str], ...]:
    """``None`` (enforce nothing), then every forcible event defined at all
    states of ``mask``, sorted: the AND of the states' defined forcible
    events, as bits in sorted event order, kept on ``index`` once built."""
    if index._forcible is None:
        events = sorted(table.enforceable_events)
        index._forcible = events, [sum(1 << k for k, ev in enumerate(events) if ev in s)
                                   for s in index.succ]
    events, defined = index._forcible
    common = -1
    for b in _bits(mask):
        common &= defined[b]
        if not common:
            return (None,)
    return (None,) + tuple(ev for k, ev in enumerate(events) if common >> k & 1)


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


def _released(index: StateIndex, mask: int, dec: ControlDecision) -> Optional[int]:
    """The mask of states the plant can be in under ``dec`` before the next
    observation: an unobservable enforced event fires, then undisabled
    unobservable events run; an observable one is that observation, so
    nothing moves first.  ``None`` unless the enforced event is defined at
    every state of ``mask``."""
    ev = dec.enforce
    if ev is not None:
        succ, after = index.succ, 0
        for b in _bits(mask):
            d = succ[b].get(ev)
            if d is None:
                return None
            after |= 1 << d
        if ev in index.observable:
            return mask
        mask = after
    return index.release(mask, dec.disable)


def _release(plant: LabeledPlant, est: StateEstimate, dec: ControlDecision) -> int:
    """``_released`` of ``est``, with the decision's events checked first;
    InvalidArgumentError when one is unknown or the decision is infeasible."""
    for ev in dec.disable if dec.enforce is None else dec.disable | {dec.enforce}:
        plant.table.require(ev)
    released = _released(plant.index, plant.index.mask_of(est), dec)
    if released is None:
        raise InvalidArgumentError(f"decision {dec} is infeasible at {est}: "
                                   f"{dec.enforce} is not defined at every member")
    return released


def _admitted(plant: LabeledPlant, est: StateEstimate,
              dec: ControlDecision) -> dict[str, StateEstimate]:
    """The observations ``dec`` admits at ``est`` (an observable enforced
    event, else every possible one not disabled), in event order, with the
    estimates they lead to; kept on ``plant.index``, released once per plant."""
    index = plant.index
    admitted = index._steps.get((est, dec))
    if admitted is None:
        steps = index.observe(_release(plant, est, dec))
        order = [dec.enforce] if dec.enforce in index.observable \
            else [o for o in sorted(steps) if o not in dec.disable]
        admitted = index._steps[(est, dec)] = {o: index.estimate(steps[o]) for o in order}
    return admitted


def observable_reach(plant: LabeledPlant, est: StateEstimate,
                     dec: ControlDecision, obs: str) -> Optional[StateEstimate]:
    """Estimate after the next observation under a decision, or ``None`` when
    that observation cannot occur.

    With an observable enforced event, only that event can be observed and it
    fires from the estimate itself.  With an unobservable enforced event, it
    fires first, then undisabled unobservable events run, then ``obs``; with
    nothing enforced, the same without the first step.  An enforced event fires
    even if disabled.  The step is read from ``_admitted``.
    """
    table = plant.table
    if obs not in table.observable_events:
        table.require(obs)
        raise InvalidArgumentError(f"event {obs} is not observable")
    admitted = _admitted(plant, est, dec)
    if obs in dec.disable and dec.enforce not in table.observable_events:
        raise InvalidArgumentError(f"observation {obs} is disabled by {dec}")
    return admitted.get(obs)


def _antichain(masks: Iterable[int]) -> tuple[int, ...]:
    """The minimal masks among ``masks``, fewest bits first."""
    out: list[int] = []
    for m in sorted(set(masks), key=int.bit_count):
        if not any(b & m == b for b in out):
            out.append(m)
    return tuple(out)


def build_bts(plant: LabeledPlant, max_states: int = 1_000_000) -> BTSGraph:
    """Expand the bipartite transition system from the certainty frontier.

    Each reachable estimate gets one Z-state per feasible decision; each
    Z-state gets one outgoing edge per undisabled observation with a
    non-empty observable reach.  Marked Y-states are fault-class-pure.

    Z-states are stored one record per *closure effect*: an enforced event
    plus the unobservable part of a disable set, which fixes the closure
    the decision releases.  The controllable events active somewhere in
    that closure are its relevant events; the others are free, since
    disabling them changes nothing.  Disabling a relevant observable event
    only drops that observation's edge, so the effect's minimal decision
    admits every observation any of its decisions admits: the effect keeps
    that decision's edges, and no subset of its relevant events is listed.
    A decision deadlocks when the active events of some released state are
    all disabled, which is upward-closed in the disable set, so the effect
    keeps the minimal blocking sets as masks over its relevant observable
    events (see ``find_deadlocks``).  An observable enforced event is an
    effect with one member.  Y-states are numbered in the order the
    per-decision expansion would discover them: effects in the ``sort_key``
    order of their minimal decisions, then by observation.  ``max_states``
    caps the stored states: Y-states plus effects.
    """
    y0 = fault_frontier(plant)
    index, table = plant.index, plant.table
    ctrl, observable = table.controllable_events, table.observable_events
    unobs_ctrl = table.unobservable_events & ctrl
    # in ``sort_key`` order, as ``_enforceable`` lists the events: so is each Y's list of effects
    unobs_parts = sorted(_all_subsets(sorted(unobs_ctrl)), key=lambda p: (len(p), sorted(p)))
    forced = {ev: ControlDecision(ev) for ev in table.enforceable_events & observable}
    active_at = [frozenset(s) for s in index.succ]
    # per set of relevant events: the bits of its observable ones and the free events
    kinds: dict[frozenset[str], tuple[dict[str, int], frozenset[str]]] = {}

    y_masks = [index.mask_of(y) for y in sorted(y0, key=str)]
    y_id = {m: i for i, m in enumerate(y_masks)}
    y_effects: list[Sequence[int]] = []
    effects: list[_Effect] = []

    def successor(mask: int) -> int:
        i = y_id.get(mask)
        if i is None:
            if len(y_masks) + len(effects) >= max_states:
                raise ResourceLimitError(
                    f"bipartite system exceeded {max_states} states",
                    stats={"y_states": len(y_masks), "effects": len(effects)})
            i = y_id[mask] = len(y_masks)
            y_masks.append(mask)
        return i

    for i, mask in enumerate(y_masks):  # grows as estimates are discovered: breadth-first
        found = []  # per effect: its record (edges to come) and its observe() steps, sorted
        direct = index.observe(mask)  # an observable enforced event fires from mask itself
        for ev in _enforceable(table, index, mask):
            if ev in observable:
                found.append((_Effect(i, forced[ev], {}, frozenset(), (), ()),
                              ((ev, direct[ev]),)))
                continue
            for part in unobs_parts:
                dec = ControlDecision(ev, part)
                released = _released(index, mask, dec)
                states = [active_at[b] for b in _bits(released)]
                active = frozenset().union(*states)
                if not part <= active:  # its decisions belong to the effect of part & active
                    continue
                relevant = active & ctrl
                if relevant not in kinds:
                    watched = sorted(relevant - unobs_ctrl)
                    kinds[relevant] = ({e: 1 << k for k, e in enumerate(watched)}, ctrl - relevant)
                bits, free = kinds[relevant]
                blockers = _antichain(sum(bits[e] for e in events - part)
                                      for events in states if events <= ctrl
                                      and events & unobs_ctrl <= part)
                found.append((_Effect(i, dec, bits, free, (), blockers),
                              sorted(index.observe(released).items())))
        y_effects.append(range(len(effects), len(effects) + len(found)))
        for eff, steps in found:
            effects.append(eff)
            eff.edges = tuple((obs, successor(m)) for obs, m in steps)
    ys = tuple(map(index.estimate, y_masks))  # the frontier's are fault_frontier's
    marked = frozenset(y for y, m in zip(ys, y_masks) if not m & index.normal  # pure: one class
                       and not m & ~index.class_of[(m & -m).bit_length() - 1])
    return BTSGraph(ys, y0, marked, y_effects, effects)


def find_deadlocks(plant: LabeledPlant, bts: BTSGraph) -> AbstractSet[ZState]:
    """Z-states of ``bts`` (built from ``plant``) that can strand the plant
    before the next observation, as a read-only view of its effects'
    blocking masks.

    An observable enforced event is defined at every estimate member, so it
    fires.  Otherwise the plant evolves freely under the disablement: after
    the enforced event (if any) fires, every state reachable through
    undisabled unobservable events must still have some undisabled event
    available -- with no unobservable cycles this is exactly the condition
    for an observation to eventually occur on every branch.  ``build_bts``
    records, per effect, the minimal disable sets that break it.
    """
    return bts._deadlocks


def prune_live(bts: BTSGraph, deadlocks: AbstractSet[ZState]) -> BTSGraph:
    """Drop deadlock Z-states and keep the part accessible from the frontier.

    ``deadlocks`` must be what ``find_deadlocks`` returns for ``bts``, and
    any other set raises InvalidArgumentError.  The result is ``live``: it
    keeps the effects whose minimal decision does not deadlock, and of
    them only the members that do not.  Doing nothing and disabling
    nothing never deadlocks in a live plant, so no surviving Y-state is
    left without a decision; InvalidArgumentError otherwise.
    """
    if deadlocks is not bts._deadlocks:
        raise InvalidArgumentError("prune_live takes find_deadlocks(plant, bts), "
                                   "not another set of Z-states")
    ys, effects = bts.y_states, bts._effects
    kept: list[int] = []  # per kept effect, its id in bts

    def live_successors(i):
        found = [e for e in bts._y_effects[i] if not effects[e].blocked(0)]
        if not found:
            raise InvalidArgumentError(f"estimate {ys[i]} lost all decisions; "
                                       "plant is not live")
        kept.extend(found)
        return [edge for e in found for edge in effects[e].edges]

    roots = sorted((bts._y_id[y] for y in bts.initial), key=lambda i: str(ys[i]))
    live_y = sorted(reach(roots, live_successors))
    y_new = {old: new for new, old in enumerate(live_y)}
    same = len(live_y) == len(ys)  # then every Y id, and so every edge, is unchanged
    y_effects: list[list[int]] = [[] for _ in live_y]
    pruned = []
    for new, e in enumerate(kept):
        eff = effects[e]
        owner = y_new[eff.owner]
        y_effects[owner].append(new)
        pruned.append(eff if same else _Effect(
            owner, eff.dec, eff.bits, eff.free,
            tuple((obs, y_new[i]) for obs, i in eff.edges), eff.blockers))
    return BTSGraph(tuple(ys[i] for i in live_y), bts.initial,
                    frozenset(m for m in bts.marked if bts._y_id[m] in y_new),
                    y_effects, pruned, live=True)


@dataclass(frozen=True)
class SynthesisResult:
    """Outcome of the good-state computation.

    ``policy`` maps each good Y-state to the decision chosen for it;
    ``isolation_bound`` counts observations: the fixpoint round in which the
    slowest initial estimate turned good, a bound on the observations after
    certainty until the estimate is pure.  The closed loop's
    ``ClosedLoopReport.bound`` counts the mixed estimates on the way, less
    one, so it is ``max(isolation_bound - 1, 0)``.
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
    Marked states are round 0.  It runs on the effects: each counts its
    fixed edges (those no member disables) into states not yet good, and
    keeps the mask of relevant events whose edge leads there.  Once no
    fixed edge is waiting, the members that disable all of the masked
    events are good, the cheapest of them being the mask itself, when it
    is a member of the graph.  The layer of round ``r - 1`` updates the
    effects with an edge into it, and the good ones make their owners good
    in round ``r``.  Every edge is visited once, so the cost is linear in
    the graph.  ``good_z`` is a read-only view over the effects' masks.

    Each newly good Y-state records the decision that made it good: fewest
    disabled events, then not enforcing (``default``) or enforcing
    (``paper-example``), then by name.  A marked state first prefers
    decisions whose observations all stay among marked states.  Every
    ranking puts fewer disabled events first, so within an effect the
    choice is the member with the smallest mask.
    """
    if tie_break not in TIE_BREAK_MODES:
        raise InvalidArgumentError(f"unknown tie-break mode: {tie_break}")
    enforce_first = tie_break == "paper-example"
    g, ys, effects = bts_liv, bts_liv.y_states, bts_liv._effects

    def preference(dec):
        return (len(dec.disable), (dec.enforce is None) == enforce_first,
                dec.enforce or "", tuple(sorted(dec.disable)))

    layer = sorted(g._y_id[y] for y in g.marked)
    rounds: dict[StateEstimate, int] = {ys[i]: 0 for i in layer}
    policy: dict[StateEstimate, ControlDecision] = {}
    preds: list[list[tuple[int, int]]] = [[] for _ in ys]
    fixed = [0] * len(effects)  # per effect, its fixed edges into states not yet good
    waiting = [0] * len(effects)  # per effect, the relevant events whose edge does so
    for e, eff in enumerate(effects):
        for obs, i in eff.edges:
            bit = eff.bits.get(obs, 0)
            preds[i].append((e, bit))
            waiting[e] |= bit
            fixed[e] += not bit

    def ready(e):  # no fixed edge is waiting, and disabling the waiting events is a member
        return not fixed[e] and g._holds(e, waiting[e])

    r = 0
    while layer:
        r += 1
        touched: dict[int, None] = {}
        for i in layer:
            for e, bit in preds[i]:
                if bit:
                    waiting[e] &= ~bit
                else:
                    fixed[e] -= 1
                touched[e] = None
        if r == 1:  # marked states: prefer a member keeping every observation among them
            for i in sorted(layer, key=lambda i: str(ys[i])):
                options = [(False, effects[e].decision(waiting[e])) if ready(e)
                           else (True, effects[e].dec)
                           for e in g._y_effects[i] if ready(e) or g._holds(e, 0)]
                policy[ys[i]] = min(options, key=lambda o: (o[0], preference(o[1])))[1]
        candidates: dict[int, list[ControlDecision]] = {}
        for e in touched:
            owner = effects[e].owner
            if ys[owner] not in rounds and ready(e):
                candidates.setdefault(owner, []).append(effects[e].decision(waiting[e]))
        layer = sorted(candidates)
        for i in layer:
            rounds[ys[i]] = r
            policy[ys[i]] = min(candidates[i], key=preference)
    good_y = frozenset(rounds)
    solvable = bts_liv.initial <= good_y
    bound = max((rounds[y] for y in bts_liv.initial), default=0) if solvable else None
    must = {e: waiting[e] for e in range(len(effects)) if not fixed[e]}

    def good(e, mask):  # disables the waiting events and admits some observation
        return mask & must[e] == must[e] and not effects[e].silent(mask)

    def count(e):
        eff = effects[e]
        full = (1 << len(eff.bits)) - 1
        silent = eff.silent(full) and g._holds(e, full)
        return eff.count(must[e], g._live) - (silent << len(eff.free))

    good_z = _ZView(g, good, count, frozenset(must))
    return SynthesisResult(good_y, good_z, policy, solvable, deadlocks, bound, rounds)


@dataclass(frozen=True)
class SupervisorPolicy:
    """A total decision policy over estimates: a value, its decisions read-only.

    Explicit decisions cover every estimate reachable from the frontier under
    the policy itself; anywhere else the supervisor enforces nothing and
    disables nothing.
    """

    initial_frontier: frozenset[StateEstimate]
    decisions: Mapping[StateEstimate, ControlDecision]

    def __post_init__(self):
        object.__setattr__(self, "decisions", MappingProxyType(dict(self.decisions)))
        object.__setattr__(self, "_hash", hash(frozenset(self.decisions.items())))

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # by value: a read-only mapping does not pickle
        return SupervisorPolicy, (self.initial_frontier, dict(self.decisions))

    def decision_for(self, est: StateEstimate) -> ControlDecision:
        return self.decisions.get(est, NO_CONTROL)


def extract_supervisor(result: SynthesisResult, bts_liv: BTSGraph) -> SupervisorPolicy:
    """Package the winning policy, or explain why none exists.

    On failure the error carries, per non-good initial estimate, the
    non-good successors of each of its decisions.
    """
    if not result.solvable:
        ys = bts_liv.y_states
        bad = {}
        for y in sorted(bts_liv.initial - result.good_y, key=str):
            bad[y] = {dec: tuple(ys[i] for _, i in bts_liv._effects[e].edges_under(mask)
                                 if ys[i] not in result.good_y)
                      for dec, e, mask in bts_liv._members_of(bts_liv._y_id[y])}
        names = ", ".join(str(y) for y in sorted(bad, key=str))
        raise SynthesisError(
            f"no valid isolation supervisor: initial estimates not good: {names}",
            bad_initials=bad)
    return SupervisorPolicy(bts_liv.initial, result.policy)


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
    estimates they lead to, read from ``_admitted``."""
    def admitted(y):
        return tuple(_admitted(plant, y, policy.decision_for(y)).items())

    return {y: admitted(y) for y in reach(sorted(policy.initial_frontier, key=str), admitted)}
