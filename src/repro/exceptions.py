"""Exception hierarchy for the SmartDPSS reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one type to handle any library failure.  Subclasses are
deliberately fine-grained: configuration problems, infeasible control
actions, solver failures and trace-construction errors are distinct
failure modes with distinct remedies.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`.

    :attr:`retryable` says whether re-running the same work can change
    the outcome.  Most failures are deterministic — a bad value, a
    malformed trace, an infeasible model fail the same way every time
    — so the fleet runner bisects them at once; only a crash, a
    timeout or an injected fault spends its retry budget.
    """

    retryable = False


class ConfigurationError(ReproError):
    """A configuration value is missing, malformed or inconsistent.

    Raised eagerly at construction time by the config dataclasses so that
    simulations never start with a physically meaningless parameter set
    (e.g. ``b_min > b_max`` or a negative efficiency).
    """


class StateError(ReproError):
    """An operation was invoked before the state it needs existed.

    The lifecycle counterpart of :class:`ConfigurationError`: the
    arguments are fine, but a required prior step has not happened yet
    (reading a virtual queue before its first observation, flushing
    delays before the horizon ended, aggregating an empty result
    store).  The remedy is always "call the missing step first", which
    the message names.
    """


class InfeasibleActionError(ReproError):
    """A control action violates a hard physical constraint.

    The simulation engine clamps recoverable violations (and records
    them); this error is reserved for programming errors such as a
    controller returning a negative purchase quantity.
    """


class SolverError(ReproError):
    """An optimization subproblem could not be solved.

    Carries the solver's status string so failures are diagnosable
    without re-running with extra logging.
    """

    def __init__(self, message: str, status: str | None = None):
        super().__init__(message)
        self.status = status


class InfeasibleProblemError(SolverError):
    """A linear program was proven infeasible."""


class UnboundedProblemError(SolverError):
    """A linear program was proven unbounded."""


class IterationLimitError(SolverError):
    """The solver hit its iteration limit before reaching optimality.

    Unlike infeasibility/unboundedness this is not a statement about
    the model — the returned point is simply not proven optimal, so
    treating it as a solution would silently corrupt the offline
    benchmark.  The remedy is a larger iteration limit or a smaller
    instance, both named in the message.
    """


class TraceError(ReproError):
    """A trace is malformed (wrong length, negative power, NaNs...)."""


class HorizonMismatchError(TraceError):
    """Traces and the simulation horizon disagree on the slot count."""


class TraceCorruptionError(TraceError):
    """A NaN/Inf (or negative) trace value was detected as it loaded.

    Raised by :class:`~repro.traces.base.TraceBlock` validation (a
    generated window) and by the streamed engine's per-chunk
    finiteness scan, naming the offending scenario (batch position and
    seed, when known) and the absolute slot so the fleet runner can
    quarantine exactly that scenario instead of bisecting the whole
    shard.  Fleet errors cross the worker process boundary, so
    :meth:`__reduce__` preserves the structured fields through
    pickling.
    """

    def __init__(self, message: str, scenario: int | None = None,
                 slot: int | None = None, seed: int | None = None):
        super().__init__(message)
        self.scenario = scenario
        self.slot = slot
        self.seed = seed

    def __reduce__(self):
        return (type(self), (self.args[0], self.scenario, self.slot,
                             self.seed))


class ObservationCorruptionError(TraceCorruptionError):
    """A NaN/Inf value was detected in an *observed* trace series.

    The observation layer derives what controllers see from the true
    traces (noise models, sensor faults); corruption there must not be
    confused with corruption of the physics inputs, so this subclass
    names the view (``"observed"``) and the offending series.  It
    inherits the scenario/slot/seed fields — and therefore the fleet
    runner's direct-quarantine short circuit — from
    :class:`TraceCorruptionError`.
    """

    def __init__(self, message: str, scenario: int | None = None,
                 slot: int | None = None, seed: int | None = None,
                 series: str | None = None, view: str = "observed"):
        super().__init__(message, scenario=scenario, slot=slot, seed=seed)
        self.series = series
        self.view = view

    def __reduce__(self):
        return (type(self), (self.args[0], self.scenario, self.slot,
                             self.seed, self.series, self.view))


class FaultInjectionError(ReproError):
    """An error raised on purpose by the fault-injection harness.

    Only :mod:`repro.fleet.faults` raises this; seeing one outside a
    chaos test means an armed :class:`~repro.fleet.faults.FaultPlan`
    leaked into a production run (check ``REPRO_FAULT_PLAN``).
    Picklable across the worker boundary like every fleet error.
    Retryable: it stands in for the transient failures the retry path
    exists for, and a plan's ``times`` decide whether a re-run fails.
    """

    retryable = True

    def __init__(self, message: str, site: str | None = None,
                 scenario: object = None):
        super().__init__(message)
        self.site = site
        self.scenario = scenario

    def __reduce__(self):
        return (type(self), (self.args[0], self.site, self.scenario))


class ShardTimeoutError(ReproError):
    """A fleet shard exceeded the runner's per-shard wall-clock budget.

    Raised parent-side only (the worker is terminated, not signalled),
    so it never crosses the process boundary.  Retryable: a re-run on
    a less loaded machine may finish in time.
    """

    retryable = True


class WorkerCrashError(ReproError):
    """A fleet worker process died mid-shard (OOM kill, segfault,
    injected ``worker_kill`` fault).

    The parent wraps the executor's ``BrokenProcessPool`` in this type
    so quarantine records carry a library error taxonomy instead of a
    ``concurrent.futures`` internal.  Retryable: the respawned pool's
    worker may survive.
    """

    retryable = True
