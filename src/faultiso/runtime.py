"""Closed-loop execution: the detect-then-isolate architecture at runtime.

A run starts uncontrolled.  The detection agent tracks the uncontrolled
estimate; the moment it reports a fault with certainty, the switch flips and
the isolation supervisor starts issuing decisions, one per observation.

``engine_step`` is the pure observation-by-observation transition used for
online execution and replay; ``build_closed_loop`` materialises the whole
controlled behaviour for model checking, and ``simulate`` drives it.  All
take the switch from ``_engine_state`` and the step from ``_next_estimate``.
"""
from __future__ import annotations

import random
import weakref
from collections import deque
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Mapping, Optional, Sequence

from .automata import Automaton, reachable_automaton
from .diagnosis import (
    DiagnosisVerdict,
    LabeledPlant,
    StateEstimate,
    check_isolatability,
    classify,
)
from .errors import (
    InvalidArgumentError,
    ProtocolError,
    SchedulerError,
    SupervisorIntegrityError,
)
from .synthesis import NO_CONTROL, ControlDecision, SupervisorPolicy, observable_reach

DETECTION = "detection"
ISOLATION = "isolation"


@dataclass(frozen=True)
class EngineState:
    """Supervisor-side view of a run: phase, estimate, verdict, the last
    observation (``None`` initially) and the decision in force (``None``
    during detection).  No log: ``replay``'s list of states is the history."""

    phase: str
    estimate: StateEstimate
    verdict: DiagnosisVerdict
    observation: Optional[str]
    active_decision: Optional[ControlDecision]

    def __reduce__(self):  # by its fields: engine_step's row of successors stays behind
        return EngineState, (self.phase, self.estimate, self.verdict, self.observation,
                             self.active_decision)


def initial_engine_state(plant: LabeledPlant) -> EngineState:
    est = plant.initial_estimate
    return EngineState(DETECTION, est, classify(est), None, None)


def _engine_state(policy: SupervisorPolicy, est: StateEstimate,
                  obs: Optional[str] = None) -> EngineState:
    """The engine at ``est``: in isolation, with the policy's decision in
    force, exactly when the verdict is fault-certain; else in detection."""
    verdict = classify(est)
    if verdict.detection == "F":
        return EngineState(ISOLATION, est, verdict, obs, policy.decision_for(est))
    return EngineState(DETECTION, est, verdict, obs, None)


def _next_estimate(plant: LabeledPlant, state: EngineState,
                   obs: str) -> Optional[StateEstimate]:
    """The estimate after ``obs`` (``None``: it cannot occur): the observable
    reach under the decision in force, ``NO_CONTROL`` during detection."""
    return observable_reach(plant, state.estimate, state.active_decision or NO_CONTROL, obs)


def engine_step(plant: LabeledPlant, policy: SupervisorPolicy,
                state: EngineState, obs: str) -> EngineState:
    """Consume one observation: a ``_next_estimate`` step, then the engine state
    there, kept on ``plant.index`` per (policy, estimate, decision in force,
    observation) unless it raises.  A decision in force admits only its
    observable enforced event, if any, and no disabled one.

    ``state`` also keeps a row ``(index, policy, {observation: successor})``
    for the last plant and policy it was stepped under, so a repeated step
    hashes no policy, estimate or decision.  The row holds the index and the
    successors weakly: no state holds a state or an index, so a plant is
    freed without the cyclic GC; a live index keeps each successor in its memo."""
    row = state.__dict__.get("_row")
    if row is not None and row[1] is policy and row[0]() is plant.index:
        if (ref := row[2].get(obs)) is not None:
            return ref()
    else:
        row = state.__dict__["_row"] = (weakref.ref(plant.index), policy, {})
    memo, key = plant.index._engine, (policy, state.estimate, state.active_decision, obs)
    if (hit := memo.get(key)) is None:
        if obs not in plant.table.observable_events:
            raise ProtocolError(f"event {obs} is not observable" if obs in plant.table
                                else f"unknown event: {obs}")
        dec = state.active_decision or NO_CONTROL
        if dec.enforce in plant.table.observable_events and obs != dec.enforce:
            raise ProtocolError(f"decision {dec} enforces {dec.enforce} "
                                f"but {obs} was observed")
        if obs in dec.disable:
            raise ProtocolError(f"disabled event {obs} was observed under {dec}")
        est = _next_estimate(plant, state, obs)
        if est is None:
            raise ProtocolError(f"observation {obs} is infeasible at {state.estimate}"
                                + ("" if state.active_decision is None else f" under {dec}"))
        memo[key] = hit = _engine_state(policy, est, obs)
    row[2][obs] = weakref.ref(hit)
    return hit


def replay(plant: LabeledPlant, policy: SupervisorPolicy,
           observations: Sequence[str]) -> list[EngineState]:
    """States after each observation (initial state first)."""
    states = [initial_engine_state(plant)]
    for obs in observations:
        states.append(engine_step(plant, policy, states[-1], obs))
    return states


# -- closed-loop automaton -----------------------------------------------------

@dataclass(frozen=True)
class ClosedLoopAutomaton:
    """The controlled behaviour, with the supervisor memory in the state.

    ``label_of`` carries the plant fault labels, so the diagnosis checks run
    on the closed loop unchanged; ``engine_of`` is the engine state at each state.
    """

    automaton: Automaton
    label_of: Mapping[str, str]
    engine_of: Mapping[str, EngineState]
    policy: SupervisorPolicy

    def as_labeled_plant(self) -> LabeledPlant:
        """The closed loop as a labelled plant, built once, so its cached
        analyses serve every ``verify_closed_loop`` call."""
        return self._labeled_plant

    @cached_property
    def _labeled_plant(self) -> LabeledPlant:
        base_of = {q: q for q in self.automaton.states}
        id_of = {(q, self.label_of[q]): q for q in self.automaton.states}
        return LabeledPlant(self.automaton, base_of, dict(self.label_of), id_of)


def build_closed_loop(plant: LabeledPlant, policy: SupervisorPolicy,
                      max_states: int = 1_000_000) -> ClosedLoopAutomaton:
    """Product of the plant with the estimate-tracking supervisor.

    The supervisor is the engine, its state taken once per estimate: the
    decision in force is ``NO_CONTROL`` before certainty and the policy's
    decision for the estimate after it, and an observation takes one
    ``_next_estimate`` step.  Right after an observation the decision's
    enforced event is owed: it is the sole admissible move (even if
    disabled); otherwise every move it does not disable is.  A state
    ``(plant state, estimate, owed)`` is named ``<state>@<estimate>``, with
    ``!`` when owed; ModelError when two states get one name.
    """
    aut = plant.automaton
    obs_events = plant.table.observable_events
    engine_at = cache(lambda est: _engine_state(policy, est))

    def enter(pid: str, est: StateEstimate) -> tuple[str, StateEstimate, bool]:
        return pid, est, (engine_at(est).active_decision or NO_CONTROL).enforce is not None

    def moves(node):
        pid, est, owed = node
        state = engine_at(est)
        dec = state.active_decision or NO_CONTROL
        if owed:
            dst = aut.transitions.get((pid, dec.enforce))
            if dst is None:
                raise SupervisorIntegrityError(
                    f"supervisor enforces {dec.enforce} at {est} but the plant "
                    f"state {pid} cannot execute it")
            steps = [(dec.enforce, dst)]
        else:
            steps = [(ev, dst) for ev, dst in aut.outgoing(pid) if ev not in dec.disable]
        out = []
        for ev, dst in steps:
            if ev not in obs_events:
                out.append((ev, (dst, est, False)))
                continue
            nxt = _next_estimate(plant, state, ev)
            if nxt is None:  # cannot happen for a true plant successor
                raise SupervisorIntegrityError(
                    f"estimate tracking lost the plant at {pid} under {dec}")
            out.append((ev, enter(dst, nxt)))
        return out

    cl_aut, names = reachable_automaton(
        plant.table, enter(aut.initial, plant.initial_estimate), moves,
        lambda node: f"{node[0]}@{node[1]}{'!' if node[2] else ''}", max_states)
    label_of = {s: plant.label_of[pid] for (pid, _, _), s in names.items()}
    engine_of = {s: engine_at(est) for (_, est, _), s in names.items()}
    return ClosedLoopAutomaton(cl_aut, label_of, engine_of, policy)


@dataclass(frozen=True)
class ClosedLoopReport:
    """``bound`` counts mixed estimates: the longest run of consecutive
    mixed estimates after certainty, in the observations between them, so
    one less than the estimates on it.  Under a synthesised supervisor it is
    ``max(isolation_bound - 1, 0)``, the solver's count of observations."""

    live: bool
    nonlive_states: tuple[str, ...]
    isolatable: bool
    isolation_witness: Optional[tuple]
    bound: Optional[int]


def verify_closed_loop(cl: ClosedLoopAutomaton) -> ClosedLoopReport:
    """Model-check the controlled behaviour.

    Liveness: no reachable fault-certain state may lack a successor.
    Isolatability: the diagnosis check, run on the closed loop itself.
    ``bound``: longest run of consecutive mixed estimates after certainty.
    """
    nonlive = tuple(q for q in sorted(cl.automaton.states) if not cl.automaton.outgoing(q)
                    and cl.engine_of[q].phase == ISOLATION)
    iso = check_isolatability(cl.as_labeled_plant())
    return ClosedLoopReport(not nonlive, nonlive, iso.isolatable,
                            iso.witness_cycle, iso.bound)


# -- simulation ----------------------------------------------------------------

def simulate(cl: ClosedLoopAutomaton, max_steps: int,
             script: Optional[Sequence[str]] = None,
             seed: Optional[int] = None) -> str:
    """Generate one run of the closed loop as a line-oriented trace.

    Exactly one of ``script`` (events to execute, checked for admissibility)
    or ``seed`` (uniform choice among admissible events) must be given.
    Trace records: ``SEED n``, ``EVT e``, ``OBS e``,
    ``DEC enforce=<e|~> disable={...}``, ``VERDICT det=<N|F|U> iso=<...>``.
    """
    if max_steps < 1:
        raise InvalidArgumentError("max_steps must be at least 1")
    if (script is None) == (seed is None):
        raise InvalidArgumentError("exactly one of script or seed is required")
    rng = random.Random(seed) if seed is not None else None
    lines = [] if seed is None else [f"SEED {seed}"]
    obs_events = cl.automaton.table.observable_events
    state = cl.automaton.initial
    scripted = deque(script or ())
    for _ in range(max_steps):
        admissible = [ev for ev, _ in cl.automaton.outgoing(state)]
        if not admissible:
            break
        if rng is not None:
            ev = rng.choice(sorted(admissible))
        else:
            if not scripted:
                break
            ev = scripted.popleft()
            if ev not in admissible:
                raise SchedulerError(
                    f"scripted event {ev} is not admissible at {state}; "
                    f"admissible: {', '.join(sorted(admissible))}")
        state = cl.automaton.transitions[(state, ev)]
        lines.append(f"EVT {ev}")
        if ev in obs_events:
            lines.append(f"OBS {ev}")
            engine = cl.engine_of[state]
            if (dec := engine.active_decision) is not None:
                dis = ",".join(sorted(dec.disable))
                lines.append(f"DEC enforce={dec.enforce or '~'} disable={{{dis}}}")
            verdict = engine.verdict
            lines.append(f"VERDICT det={verdict.detection} iso={verdict.isolation}")
    return "\n".join(lines) + "\n" if lines else ""
