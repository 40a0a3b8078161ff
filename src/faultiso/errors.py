"""Exception hierarchy shared across the library and the CLI."""


class FaultIsoError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(FaultIsoError, ValueError):
    """A call was given an argument outside its domain: an unknown event, state
    or mode, an infeasible observation, estimate, decision or deadlock set, or
    a bipartite graph that names an estimate or Z-state it does not hold.
    Also a ``ValueError``, which callers caught before this type existed."""


class ModelError(FaultIsoError):
    """Malformed model text, inconsistent alphabets, or broken documents."""


class AssumptionError(FaultIsoError):
    """The plant violates a standing assumption (liveness, unobservable
    cycles, or multiple fault types along one run)."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NotDiagnosableError(FaultIsoError):
    """An operation that requires diagnosability was given a plant that is
    not diagnosable."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SynthesisError(FaultIsoError):
    """No valid isolation supervisor exists for the given plant."""

    def __init__(self, message, bad_initials=None):
        super().__init__(message)
        # estimate -> {decision: tuple of non-good successor estimates}
        self.bad_initials = bad_initials or {}


class SupervisorIntegrityError(FaultIsoError):
    """A supervisor commanded an event that is not physically possible in the
    plant state it was applied to."""


class ProtocolError(FaultIsoError):
    """An observation fed to the runtime engine is impossible under the
    decision currently in force."""


class SchedulerError(FaultIsoError):
    """A simulation script selected an event that is not admissible."""


class ResourceLimitError(FaultIsoError):
    """A construction exceeded its configured state cap."""

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats or {}
