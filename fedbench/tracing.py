"""Span tracing around the public entry point of each layer.

Used only by the traced run (``--trace 1``).  :meth:`Tracer.install`
replaces each layer's entry point on its class with a wrapper that
records one :class:`Span` per call; :meth:`Tracer.uninstall` puts the
originals back.  Nothing in the program changes: the wrappers live here
and are removed when the run ends.

A span holds its layer name, start and end on ``time.perf_counter``, the
span that was open on the same thread when it started (its parent) and
the request it belongs to.  A span's self time is its duration minus the
durations of its children; children run nested on the parent's thread,
so they never overlap each other.  A root span (no parent) also records
its thread and the CPU time that thread spent inside it, so the run can
check how much of each thread's work the roots cover.  Spans stay in
memory; :meth:`Tracer.dump` writes them out as JSON lines at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

from repro.core.dream import OnlineDreamEstimator
from repro.core.wal import WalWriter
from repro.federation.durability import DurabilityManager
from repro.federation.frontdoor import FrontDoor
from repro.federation.gateway import FederationGateway
from repro.governance.audit import AuditLog
from repro.governance.policy import PolicyEngine
from repro.ires.enumerator import QepEnumerator
from repro.ires.executor import Executor
from repro.ires.interface import Interface
from repro.ires.optimizer import MultiObjectiveOptimizer
from repro.ml.linear import RecursiveLeastSquares
from repro.serving.service import BaseEstimationService

perf_counter = time.perf_counter
thread_time = time.thread_time


class Span:
    __slots__ = (
        "ident",
        "name",
        "start",
        "end",
        "parent",
        "request",
        "info",
        "start_monotonic",
        "thread",
        "cpu",
    )

    def __init__(self, ident, name, parent, request):
        self.ident = ident
        self.name = name
        self.parent = parent
        self.request = request
        self.start = self.end = 0.0
        self.info = None
        self.thread = None
        self.cpu = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _len_result(span, args, result):
    span.info = len(result)


def _search_info(span, args, result):
    span.info = (result.candidate_count, result.exact_fallback)


def _bool_result(span, args, result):
    span.info = bool(result)


def _flush_info(span, args, result):
    # _run_flush(self, items, trigger, seq): queue wait of every item is
    # the gap between its admission and the start of its flush (both on
    # the front door's monotonic clock).
    items = args[1]
    span.info = (
        [span.start_monotonic - item.admitted_at for item in items],
        len(result),
        result.segments,
        result.fit_rounds,
    )


def _gateway_request(args):
    tick = args[1].tick
    return None if tick is None else f"tick-{tick}"


#: (owner class, attribute, span name, result hook, request-id hook).
#: The attribute is taken from the owner's own ``__dict__`` so a base
#: class method shared by several backends is wrapped once.
LAYERS = (
    (FederationGateway, "submit", "federation.gateway.submit", None, _gateway_request),
    (FederationGateway, "observe", "federation.gateway.observe", None, _gateway_request),
    (FrontDoor, "ingest", "federation.frontdoor.ingest", None, None),
    (FrontDoor, "_run_flush", "federation.frontdoor.flush", _flush_info, None),
    (Interface, "receive", "ires.interface.receive", None, None),
    (QepEnumerator, "enumerate", "ires.enumerator.enumerate", _len_result, None),
    (
        MultiObjectiveOptimizer,
        "pareto_search",
        "ires.optimizer.pareto_search",
        _search_info,
        None,
    ),
    (BaseEstimationService, "model", "serving.model", None, None),
    (BaseEstimationService, "refresh_batch", "serving.refresh_batch", None, None),
    (OnlineDreamEstimator, "fit", "core.dream.fit", None, None),
    (
        RecursiveLeastSquares,
        "well_conditioned",
        "ml.linear.well_conditioned",
        _bool_result,
        None,
    ),
    (Executor, "run", "ires.executor.run", None, None),
    (PolicyEngine, "constraint_for", "governance.policy.constraint_for", None, None),
    (AuditLog, "append", "governance.audit.append", None, None),
    (WalWriter, "append", "core.wal.append", None, None),
    (WalWriter, "sync", "core.wal.sync", None, None),
    # checkpoint() and the periodic cut inside _append both go through
    # _checkpoint_locked, so wrapping it sees every checkpoint.
    (
        DurabilityManager,
        "_checkpoint_locked",
        "federation.durability.checkpoint",
        None,
        None,
    ),
)


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._undo: list[tuple[type, str, object]] = []

    # Request scope -----------------------------------------------------------

    def set_request(self, request) -> None:
        """Name the request the calling thread works on from now on."""
        self._local.request = request

    def mark(self) -> int:
        """Spans recorded so far (a prefix boundary for count metrics)."""
        return len(self.spans)

    # Installation ------------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, on_result, request_of in LAYERS:
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrapper(original, name, on_result, request_of))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def dump(self, path) -> None:
        """Write every span as one JSON line: id, name, start, end (s),
        parent id, request, and for roots the thread and its CPU time."""
        with open(path, "w") as out:
            for span in self.spans:
                row = {
                    "id": span.ident,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": None if span.parent is None else span.parent.ident,
                    "request": span.request,
                }
                if span.parent is None:
                    row["thread"] = span.thread
                    row["cpu"] = span.cpu
                out.write(json.dumps(row) + "\n")

    def _wrapper(self, original, name, on_result, request_of):
        local = self._local
        spans = self.spans
        ids = self._ids
        flush = name == "federation.frontdoor.flush"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            request = request_of(args) if request_of is not None else None
            if request is None:
                request = (
                    parent.request
                    if parent is not None
                    else getattr(local, "request", None)
                )
            span = Span(next(ids), name, parent, request)
            stack.append(span)
            if parent is None:
                span.thread = threading.get_ident()
                span.cpu = -thread_time()
            if flush:
                span.start_monotonic = time.monotonic()
            span.start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = perf_counter()
                if parent is None:
                    span.cpu += thread_time()
                stack.pop()
                spans.append(span)
            if on_result is not None:
                on_result(span, args, result)
            return result

        return traced


def self_times(spans) -> dict[int, float]:
    """Self time per span (keyed by ``id(span)``)."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[id(span.parent)] += span.duration
    return {id(span): span.duration - covered.get(id(span), 0.0) for span in spans}


def thread_cpu_seconds() -> dict[int, float]:
    """CPU time of every live thread of this process, keyed by thread
    ident, read from each thread's own CPU clock (the clock that
    ``time.thread_time`` reads inside the thread)."""
    out = {}
    for thread in threading.enumerate():
        try:
            clock = time.pthread_getcpuclockid(thread.ident)
        except (OSError, TypeError):  # ended or not started meanwhile
            continue
        out[thread.ident] = time.clock_gettime(clock)
    return out
