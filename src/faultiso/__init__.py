"""Active fault isolation for discrete event systems.

Model a plant as a finite automaton with observable/controllable/forcible
event attributes and typed fault events, verify diagnosability and
isolatability, synthesise a supervisor that enforces and disables events to
pin down the fault class after detection, and run or model-check the closed
loop.
"""

from .automata import (
    AssumptionReport,
    Automaton,
    Event,
    EventTable,
    accessible_part,
    active_events,
    check_assumptions,
    parallel_compose,
    project,
    require_assumptions,
    run,
    unobservable_reach,
)
from .diagnosis import (
    Diagnoser,
    DiagnosisVerdict,
    LabeledPlant,
    LabeledState,
    StateEstimate,
    build_diagnoser,
    build_labeled_plant,
    check_diagnosability,
    check_isolatability,
    classify,
    detection_agent,
    estimate_after,
    fault_frontier,
    isolation_agent,
)
from .errors import (
    AssumptionError,
    FaultIsoError,
    InvalidArgumentError,
    ModelError,
    NotDiagnosableError,
    ProtocolError,
    ResourceLimitError,
    SchedulerError,
    SupervisorIntegrityError,
    SynthesisError,
)
from .runtime import (
    ClosedLoopAutomaton,
    ClosedLoopReport,
    EngineState,
    build_closed_loop,
    engine_step,
    initial_engine_state,
    replay,
    simulate,
    verify_closed_loop,
)
from .synthesis import (
    BTSGraph,
    ControlDecision,
    NO_CONTROL,
    SupervisorPolicy,
    SynthesisResult,
    ZState,
    build_bts,
    extract_supervisor,
    feasible_decisions,
    find_deadlocks,
    good_fixpoint,
    observable_reach,
    policy_graph,
    prune_live,
    synthesize,
)

__version__ = "0.1.0"
