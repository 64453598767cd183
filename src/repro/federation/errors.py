"""Structured error taxonomy of the federation gateway.

Every gateway failure is a :class:`FederationError` carrying two machine-
readable fields alongside the human message:

* ``template`` — the query-template key the failure concerns (``None``
  for configuration-level failures that predate any template), and
* ``phase`` — which stage of the Figure 1 pipeline rejected the call:
  ``configure``, ``register``, ``validate``, ``ingest``, ``govern``,
  ``estimate``, ``optimize``, ``execute`` or ``session``.

Callers that only know the old exception hierarchy keep working: the
subtypes dual-inherit from the library-wide classes they replace
(:class:`~repro.common.errors.ValidationError`,
:class:`~repro.common.errors.EstimationError`), so an existing
``except ValidationError`` still catches a :class:`UnknownTemplateError`
— but gateway-aware callers can now branch on type, template and phase
instead of parsing message strings.
"""

from __future__ import annotations

from repro.common.errors import EstimationError, ReproError, ValidationError

#: The pipeline stages a gateway error can be attributed to.
PHASES = (
    "configure",
    "register",
    "validate",
    "ingest",
    "govern",
    "estimate",
    "optimize",
    "execute",
    "session",
    "durability",
)


class FederationError(ReproError):
    """Base class of every error raised by the federation gateway."""

    #: Default pipeline phase; subclasses override, instances may too.
    phase: str = "validate"

    def __init__(
        self,
        message: str,
        *,
        template: str | None = None,
        phase: str | None = None,
    ):
        super().__init__(message)
        self.message = message
        self.template = template
        if phase is not None:
            if phase not in PHASES:
                raise ValueError(f"unknown gateway phase {phase!r}")
            self.phase = phase

    def __str__(self) -> str:
        context = [f"phase={self.phase}"]
        if self.template is not None:
            context.append(f"template={self.template!r}")
        return f"{self.message} [{', '.join(context)}]"


class GatewayConfigError(FederationError, ValidationError):
    """A :class:`~repro.federation.config.FederationConfig` field failed
    a precondition check (non-positive capacity or worker counts, an
    out-of-range threshold, an unknown optimizer algorithm, ...)."""

    phase = "configure"


class UnknownStrategyError(GatewayConfigError):
    """The configured estimation backend name is not registered."""

    def __init__(
        self,
        name: str,
        available: tuple[str, ...],
        *,
        template: str | None = None,
    ):
        listing = ", ".join(available) or "<none>"
        super().__init__(
            f"unknown estimation backend {name!r}; registered: {listing}",
            template=template,
        )
        self.name = name
        self.available = available


class UnknownServingBackendError(GatewayConfigError):
    """The configured serving backend name is not registered."""

    def __init__(
        self,
        name: str,
        available: tuple[str, ...],
        *,
        template: str | None = None,
    ):
        listing = ", ".join(available) or "<none>"
        super().__init__(
            f"unknown serving backend {name!r}; registered: {listing}",
            template=template,
        )
        self.name = name
        self.available = available


class DuplicateTemplateError(FederationError, ValidationError):
    """A template key was registered twice on the same gateway."""

    phase = "register"


class UnknownTemplateError(FederationError, ValidationError):
    """A request referenced a template key the gateway never saw."""

    phase = "validate"


class InsufficientHistoryError(FederationError, EstimationError):
    """The template's execution history is too short to fit a model."""

    phase = "estimate"


class SessionStateError(FederationError):
    """A session was used after :meth:`GatewaySession.close` (or is
    otherwise in the wrong lifecycle state for the call)."""

    phase = "session"


class DurabilityError(FederationError):
    """The durability subsystem refused to proceed: a corrupted (not
    merely torn) WAL or checkpoint record, a journal that does not match
    the live gateway (wrong registrations, wrong backend), or traffic
    offered to a gateway whose existing journal has not been
    :meth:`~repro.federation.gateway.FederationGateway.recover`-ed yet.
    Never raised for a clean torn tail — those are crash artifacts and
    recovery truncates them silently (reporting the dropped bytes)."""

    phase = "durability"


class EnvelopeError(FederationError, ValidationError):
    """A request envelope failed validation before entering the pipeline."""

    phase = "validate"


class PolicyViolationError(FederationError, ValidationError):
    """The governance plane rejected a request before planning.

    Raised when a submission has zero admissible plans under the active
    :class:`~repro.governance.policy.DataPolicy` rules (a denied dataset,
    a restricted site the enumeration cannot satisfy, conflicting
    restrictions) or when ``require_identity=True`` and the envelope
    carries no :class:`~repro.governance.identity.Principal`.  Carries
    the ids of the rules that caused the denial and the subject the
    request ran on behalf of, so a denial is diagnosable (and auditable)
    without parsing the message.
    """

    phase = "govern"

    def __init__(
        self,
        message: str,
        *,
        template: str | None = None,
        rule_ids: tuple[str, ...] = (),
        subject: str | None = None,
    ):
        super().__init__(message, template=template)
        self.rule_ids = tuple(rule_ids)
        self.subject = subject


class IngestAbortedError(FederationError):
    """An infrastructure failure aborted a front-door flush mid-run.

    Resolved onto every ticket that was admitted into the flush but had
    not executed when the failure struck (items that already ran keep
    their reports — streaming resolution is per segment, so earlier
    segments' outcomes survive the abort).  The underlying failure is
    chained as ``__cause__``; the flush's caller sees that original
    exception re-raised, while ticket waiters see this typed error.
    """

    phase = "ingest"


class IngestOverflowError(FederationError, ValidationError):
    """The front door's bounded ingest queue rejected an admission.

    Raised in ``ingest_overflow="reject"`` mode when admitting the
    request would push the queue past ``ingest_queue_depth`` (and in
    both modes for a single batch larger than the whole queue).  Carries
    the template key and the depth the queue was bounded at, so a client
    can shed load per tenant instead of guessing from a message string.
    """

    phase = "ingest"

    def __init__(
        self,
        message: str,
        *,
        template: str | None = None,
        queue_depth: int | None = None,
    ):
        super().__init__(message, template=template)
        self.queue_depth = queue_depth
