"""Exception hierarchy shared by every repro subsystem."""


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class AgentDefinitionError(ReproError):
    """An agent class is declared incorrectly (bad fields, duplicate names...)."""


class PhaseViolationError(ReproError):
    """A state/effect access violated the state-effect pattern.

    Raised when, for example, a state field is written during the query phase
    or an effect field is read during the query phase.
    """


class VisibilityError(ReproError):
    """An agent touched another agent outside of its visible region."""


class CombinatorError(ReproError):
    """An effect combinator was used incorrectly (type mismatch, unknown name)."""


class WorldError(ReproError):
    """The simulation world is in an inconsistent configuration."""


class PartitioningError(ReproError):
    """A spatial partitioning function was configured or queried incorrectly."""


class MapReduceError(ReproError):
    """Base class of the errors raised by the executor layer."""


class ExecutorError(MapReduceError):
    """A parallel execution backend could not run a task.

    The most common cause is handing the :class:`ProcessExecutor` a task that
    cannot be pickled (a lambda, a closure, or an agent whose class was built
    dynamically and is not importable by name).
    """


class NodeLossError(ExecutorError):
    """A cluster node died mid-run and the executor degraded instead of
    tearing the cluster down.

    ``node_index`` is the first node observed dead, ``lost_shards`` the
    shards whose resident state was lost (after any re-admission or
    rehoming — survivors keep theirs), and ``action`` what supervision
    managed: ``"respawned"``, ``"readmitted"``, ``"rehomed"`` or
    ``"lost"``.  Callers holding checkpoints recover by restoring the
    survivors in place and re-seeding only ``lost_shards``
    (:meth:`~repro.cluster.client.ClusterExecutor.reseed_shards`).
    """

    def __init__(self, message, *, node_index, lost_shards=(), action=None):
        super().__init__(message)
        self.node_index = node_index
        self.lost_shards = tuple(lost_shards)
        self.action = action


class BraceError(ReproError):
    """Raised by the BRACE runtime."""


class CheckpointError(BraceError):
    """Checkpointing or recovery failed."""


class LoadBalanceError(BraceError):
    """The load balancer produced an invalid repartitioning."""


class HistoryError(ReproError):
    """The persistent tick-history store was used or configured incorrectly.

    Raised for unreadable or already-populated store directories, requests
    for ticks that were never recorded (or whose deltas were thinned away by
    a retention policy), and recording gaps — ticks executed outside the
    recording session, e.g. directly through the runtime escape hatch.
    """


class SimulationSessionError(ReproError):
    """A :class:`repro.api.Simulation` session was used out of order.

    Raised for lifecycle violations — running a closed session, resuming a
    session that was never paused, re-entering a stream that is already being
    consumed — with a message saying which call was expected instead.
    """


class BrasilError(ReproError):
    """Base class for BRASIL compilation errors."""


class BrasilSyntaxError(BrasilError):
    """The BRASIL source text could not be parsed."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(f"{message}{location}")


class BrasilSemanticError(BrasilError):
    """The BRASIL program violates the state-effect pattern or typing rules."""


class BrasilRuntimeError(BrasilError):
    """A compiled BRASIL program failed while executing."""
