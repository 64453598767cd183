"""One benchmark invocation: set up, measure, check, reduce to metrics.

``end_to_end`` is the untraced run (``--trace 0``); ``per_layer`` runs
the same workload twice on fresh systems built from the same seed, once
untraced and once under :class:`tracing.Tracer`, and reduces the spans
to per-layer metrics.  Both return a :class:`Result` whose ``metrics``
hold exactly the names in :data:`END_TO_END` or :data:`PER_LAYER`.
"""

from __future__ import annotations

import functools
import resource
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.wal import WalWriter

import tracing
import workloads

HERE = Path(__file__).resolve().parent

#: A run builds its system at least SETUP_REPEATS times, and keeps
#: building (up to SETUP_MAX_REPEATS) until SETUP_MIN_SECONDS of set-up
#: are measured; setup_s is the median.  Cheap set-ups get more samples.
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 30
SETUP_MIN_SECONDS = 3.0

#: Coverage tolerance of the traced run.  Closed loop: the gateway's
#: root spans must cover at least this share of the window's wall time
#: (the rest is the client).  Open loop: the root spans on the front
#: door's admission thread must hold at least this share of the CPU
#: time that thread used over the window.
COVERAGE = 0.9

#: Metrics in BENCHMARK.json, with units.  Every one is emitted on every
#: workload and is never 0.
END_TO_END = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "submit_p50_ms": "ms",
    "submit_tail_ms": "ms",
    "observe_p50_ms": "ms",
    "observe_tail_ms": "ms",
    "report_p50_ms": "ms",
    "report_tail_ms": "ms",
    "mre_time": "ratio",
    "plan_time_s": "s",
    "plan_money": "USD",
    "peak_rss_mb": "MB",
}
#: End-to-end figures printed in the summary but kept out of the JSON
#: result: ``failed_ratio`` must read 0 on a correct run (it is carried
#: by the result's ``attempted``/``failed``) and ``wal_bytes_per_row`` is
#: 0 where no WAL runs.
REPORTED_ONLY = {"failed_ratio": "ratio", "wal_bytes_per_row": "bytes"}

PER_LAYER = {
    "ires.interface.receive.calls_per_req": "count",
    "ires.interface.receive.ms_per_req": "ms",
    "ires.enumerator.enumerate.calls_per_req": "count",
    "ires.enumerator.enumerate.ms_per_req": "ms",
    "ires.enumerator.enumerate.candidates_per_call": "count",
    "ires.optimizer.pareto_search.ms_per_submit": "ms",
    "ires.optimizer.pareto_search.candidates_per_call": "count",
    "ires.optimizer.pareto_search.exact_fallback_ratio": "ratio",
    "serving.fits_per_submit": "count",
    "serving.snapshot_hit_ratio": "ratio",
    "serving.model.ms_per_submit": "ms",
    "serving.refresh_batch.ms_per_flush": "ms",
    "serving.sharded.rpcs_per_flush": "count",
    "core.dream.fit.calls": "count",
    "core.dream.fit.ms_per_call": "ms",
    "ml.linear.well_conditioned_ratio": "ratio",
    "core.cache.hit_ratio": "ratio",
    "core.cache.evictions": "count",
    "ires.executor.run.ms_per_req": "ms",
    "federation.frontdoor.queue_wait_p50_ms": "ms",
    "federation.frontdoor.queue_wait_tail_ms": "ms",
    "federation.frontdoor.flush_ms_p50": "ms",
    "federation.frontdoor.items_per_flush": "count",
    "federation.frontdoor.segments_per_flush": "count",
    "federation.frontdoor.fit_rounds_per_flush": "count",
    "federation.frontdoor.gen_lag_tail_ms": "ms",
    "governance.policy.constraint_for.calls_per_req": "count",
    "governance.policy.constraint_for.ms_per_req": "ms",
    "governance.audit.append.calls_per_req": "count",
    "governance.audit.append.ms_per_req": "ms",
    "core.wal.append.calls_per_row": "count",
    "core.wal.append.ms_per_row": "ms",
    "core.wal.sync.ms_per_flush": "ms",
    "core.wal.bytes_per_row": "bytes",
    "federation.durability.checkpoint.calls": "count",
    "federation.durability.checkpoint.ms": "ms",
    "federation.gateway.self_ms_per_req": "ms",
    "core.history.rows_max": "count",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_ratio": "ratio",
}

#: Per-layer metrics that are counts over the closed loop's fixed prefix
#: of requests, so they repeat exactly on a same-seed run.
EXACT_COUNTS = (
    "ires.interface.receive.calls_per_req",
    "ires.enumerator.enumerate.calls_per_req",
    "ires.enumerator.enumerate.candidates_per_call",
    "ires.optimizer.pareto_search.candidates_per_call",
    "serving.fits_per_submit",
    "serving.snapshot_hit_ratio",
    "core.dream.fit.calls",
    "ml.linear.well_conditioned_ratio",
    "core.cache.hit_ratio",
    "core.cache.evictions",
    "governance.policy.constraint_for.calls_per_req",
    "governance.audit.append.calls_per_req",
)


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    units: dict
    checks: dict = field(default_factory=dict)
    #: Extra lines for the human-readable summary.
    notes: dict = field(default_factory=dict)
    digest: str = ""

    def line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": self.units[name]}
                for name, value in self.metrics.items()
            },
        }


class WalBytes:
    """Counts bytes ``WalWriter.append`` reports while installed.

    A counter, not a timer: it reads no clock, so the untraced run keeps
    it for ``wal_bytes_per_row``.
    """

    def __init__(self):
        self.bytes = 0
        self._original = None

    def __enter__(self):
        original = self._original = WalWriter.__dict__["append"]
        counter = self

        @functools.wraps(original)
        def append(writer, payload):
            written = original(writer, payload)
            counter.bytes += written
            return written

        WalWriter.append = append
        return self

    def __exit__(self, *exc_info):
        WalWriter.append = self._original


def _pct(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


def _mean(values):
    return float(np.mean(values)) if values else 0.0


def _peak_rss_mb(system) -> float:
    """Peak RSS of this process plus every live shard worker."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    serving = system.gateway.engine.serving
    for pid in getattr(serving, "worker_pids", lambda: [])():
        if pid is None:
            continue
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        kib += int(line.split()[1])
        except OSError:
            pass
    return kib / 1024.0


def _build(workload, seed):
    started = time.perf_counter()
    system = workload.build(seed)
    return system, time.perf_counter() - started


def _window_metrics(workload, window, wal_bytes) -> tuple[dict, dict]:
    """End-to-end figures of one window (all but set-up and memory)."""
    tail = workload.sizes.tail
    outcomes = window.outcomes
    submits = [o for o in outcomes if o.kind == "submit"]
    latencies = {
        "submit": [o.latency_ms for o in submits],
        "observe": [o.latency_ms for o in outcomes if o.kind == "observe"],
        "report": [o.latency_ms for o in outcomes],
    }
    metrics = {
        "req_per_s": len(outcomes) / (window.ended - window.started),
        "submit_p50_ms": _pct(latencies["submit"], 50),
        "submit_tail_ms": _pct(latencies["submit"], tail["submit"]),
        "observe_p50_ms": _pct(latencies["observe"], 50),
        "observe_tail_ms": _pct(latencies["observe"], tail["observe"]),
        "report_p50_ms": _pct(latencies["report"], 50),
        "report_tail_ms": _pct(latencies["report"], tail["report"]),
        "mre_time": _mean([o.error_time for o in submits]),
        "plan_time_s": _mean([o.measured["time"] for o in submits]),
        "plan_money": _mean([o.measured["money"] for o in submits]),
    }
    notes = {
        "failed_ratio": window.failed / max(window.attempted, 1),
        "wal_bytes_per_row": wal_bytes / max(len(outcomes), 1),
        "samples": " ".join(f"{kind}={len(v)}" for kind, v in latencies.items()),
        "tail_percentiles": " ".join(f"{kind}=p{q:g}" for kind, q in tail.items()),
        "samples_beyond_tail": " ".join(
            f"{kind}={workloads.tail_samples(len(v), tail[kind])}"
            for kind, v in latencies.items()
        ),
    }
    return metrics, notes


def _measure(workload, system, seed, seconds, max_requests, tracer=None):
    with WalBytes() as wal:
        if tracer is None:
            window = workload.run(system, seed, seconds, max_requests)
        else:
            cpu_before = tracing.thread_cpu_seconds()
            with tracer:
                window = workload.run(system, seed, seconds, max_requests, tracer)
            window.thread_cpu = {
                tid: cpu - cpu_before.get(tid, 0.0)
                for tid, cpu in tracing.thread_cpu_seconds().items()
            }
    return window, wal.bytes


def _checks(workload, system, window) -> dict:
    checks = workload.checks(system, window)
    if hasattr(workload, "recovery_check"):
        checks["wal_recovery_matches_live"] = workload.recovery_check(system)
    return checks


def _workroot(root: Path | None) -> Path:
    base = HERE / ".work" if root is None else root
    base.mkdir(parents=True, exist_ok=True)
    return base


def _workdir(root: Path | None) -> Path:
    return Path(tempfile.mkdtemp(prefix="run-", dir=_workroot(root)))


def end_to_end(name, seed, seconds, *, tiny=False, max_requests=None, workroot=None):
    """The untraced run: every end-to-end metric plus the checks."""
    workload = workloads.WORKLOADS[name](tiny=tiny, workdir=_workdir(workroot))
    try:
        setups = []
        system = None
        while len(setups) < SETUP_REPEATS or (
            sum(setups) < SETUP_MIN_SECONDS and len(setups) < SETUP_MAX_REPEATS
        ):
            if system is not None:
                workload.close(system)
            system, seconds_taken = _build(workload, seed)
            setups.append(seconds_taken)
        try:
            window, wal_bytes = _measure(workload, system, seed, seconds, max_requests)
            metrics, notes = _window_metrics(workload, window, wal_bytes)
            metrics["setup_s"] = statistics.median(setups)
            metrics["peak_rss_mb"] = _peak_rss_mb(system)
            checks = _checks(workload, system, window)
        finally:
            workload.close(system)
    finally:
        workload.cleanup()
    ordered = {key: metrics[key] for key in END_TO_END}
    return Result(
        correct=all(checks.values()),
        attempted=window.attempted,
        failed=window.failed,
        metrics=ordered,
        units=dict(END_TO_END),
        checks=checks,
        notes=notes,
        digest=workloads.output_digest(window.outcomes),
    )


def per_layer(name, seed, seconds, *, tiny=False, max_requests=None, workroot=None):
    """Untraced then traced window on two same-seed systems; the spans of
    the traced one reduce to every per-layer metric."""
    workload = workloads.WORKLOADS[name](tiny=tiny, workdir=_workdir(workroot))
    try:
        plain_system, _ = _build(workload, seed)
        try:
            plain, _ = _measure(workload, plain_system, seed, seconds, max_requests)
            checks = {
                f"untraced.{k}": v
                for k, v in workload.checks(plain_system, plain).items()
            }
        finally:
            workload.close(plain_system)
        tracer = tracing.Tracer()
        system, _ = _build(workload, seed)
        if workload.loop == "closed":
            # A closed loop's cost per request drifts as histories grow,
            # so the traced window replays exactly the untraced window's
            # requests; the open loop's schedule is already the same.
            max_requests = plain.attempted
        try:
            window, wal_bytes = _measure(
                workload, system, seed, seconds, max_requests, tracer
            )
            metrics, coverage_ok = layer_metrics(
                workload, system, window, plain, tracer, wal_bytes
            )
            checks.update(_checks(workload, system, window))
            checks["trace_covers_work"] = coverage_ok
        finally:
            workload.close(system)
    finally:
        workload.cleanup()
    spans_file = _workroot(workroot) / f"spans-{name}.jsonl"
    tracer.dump(spans_file)
    return Result(
        correct=all(checks.values()),
        attempted=plain.attempted + window.attempted,
        failed=plain.failed + window.failed,
        metrics={key: metrics[key] for key in PER_LAYER},
        units=dict(PER_LAYER),
        checks=checks,
        notes={"spans": f"{len(tracer.spans)} written to {spans_file}"},
        digest=workloads.output_digest(window.outcomes),
    )


def layer_metrics(workload, system, window, plain, tracer, wal_bytes):
    """Reduce one traced window's spans (and counter deltas) to metrics.

    Times are inclusive span durations over the whole window.  Counts
    use only the spans of the count prefix (the whole window on the
    open loop), so they repeat exactly on same-seed closed-loop runs.
    """
    spans = tracer.spans
    prefix_spans = spans[: window.prefix_mark]
    prefix_outcomes = window.outcomes[: window.prefix_requests]
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    counted: dict[str, list] = {}
    for span in prefix_spans:
        counted.setdefault(span.name, []).append(span)

    rows = max(len(window.outcomes), 1)
    submits = max(sum(o.kind == "submit" for o in window.outcomes), 1)
    prefix_rows = max(len(prefix_outcomes), 1)
    prefix_submits = max(sum(o.kind == "submit" for o in prefix_outcomes), 1)

    def total_ms(name):
        return sum(s.duration for s in by_name.get(name, ())) * 1e3

    def calls(name):
        return len(counted.get(name, ()))

    def infos(name):
        return [s.info for s in counted.get(name, ())]

    flushes = by_name.get("federation.frontdoor.flush", [])
    n_flush = len(flushes)
    waits = [w * 1e3 for s in flushes for w in s.info[0]]
    tail = workload.sizes.tail["report"]

    start, end = window.stats_start, window.stats_prefix
    fits = end.fits - start.fits
    hits = end.snapshot_hits - start.snapshot_hits
    cache_hits = cache_lookups = evictions = 0
    if start.engine_cache is not None and end.engine_cache is not None:
        cache_hits = end.engine_cache.hits - start.engine_cache.hits
        cache_lookups = end.engine_cache.lookups - start.engine_cache.lookups
        evictions = end.engine_cache.evictions - start.engine_cache.evictions
    serving = system.gateway.engine.serving
    rpcs = 0
    if hasattr(serving, "rpc_counts"):
        now = serving.rpc_counts()
        rpcs = sum(now.values()) - sum(window.rpc_start.values())

    search = infos("ires.optimizer.pareto_search")
    conditioned = infos("ml.linear.well_conditioned")
    selfs = tracing.self_times(spans)
    roots = [s for s in spans if s.parent is None]
    wall = window.ended - window.started
    gateway_self = sum(
        selfs[id(s)] for s in spans if s.name.startswith("federation.gateway.")
    )
    if workload.loop == "closed":
        # Single client on one thread: the window's wall time is the
        # gateway's root spans plus the client's own work between them.
        coverage = sum(s.duration for s in roots) / wall
        coverage_ok = COVERAGE <= coverage <= 1.0 + 1e-9
        # Same requests on both sides: untraced ÷ traced req_per_s.
        overhead = wall / (plain.ended - plain.started)
    else:
        # The front door's admission thread (which also runs the
        # flushes) idles between arrivals, so its work is measured as
        # CPU time: the CPU spent inside root spans over all the CPU the
        # thread used.  The main thread runs the client's event loop and
        # is left out.
        main = threading.main_thread().ident
        threads = {s.thread for s in roots} - {main}
        inside = sum(s.cpu for s in roots if s.thread in threads)
        used = sum(window.thread_cpu.get(t, 0.0) for t in threads)
        coverage = inside / used if used else 0.0
        coverage_ok = COVERAGE <= coverage <= 1.0 + 1e-9
        overhead = (window.cpu_seconds / rows) / (
            plain.cpu_seconds / max(len(plain.outcomes), 1)
        )
    gateway = system.gateway
    metrics = {
        "ires.interface.receive.calls_per_req": calls("ires.interface.receive") / prefix_rows,
        "ires.interface.receive.ms_per_req": total_ms("ires.interface.receive") / rows,
        "ires.enumerator.enumerate.calls_per_req": calls("ires.enumerator.enumerate") / prefix_rows,
        "ires.enumerator.enumerate.ms_per_req": total_ms("ires.enumerator.enumerate") / rows,
        "ires.enumerator.enumerate.candidates_per_call": _mean(infos("ires.enumerator.enumerate")),
        "ires.optimizer.pareto_search.ms_per_submit": total_ms("ires.optimizer.pareto_search") / submits,
        "ires.optimizer.pareto_search.candidates_per_call": _mean([c for c, _f in search]),
        "ires.optimizer.pareto_search.exact_fallback_ratio": _mean([float(f) for _c, f in search]),
        "serving.fits_per_submit": fits / prefix_submits,
        "serving.snapshot_hit_ratio": hits / (hits + fits) if hits + fits else 0.0,
        "serving.model.ms_per_submit": total_ms("serving.model") / submits,
        "serving.refresh_batch.ms_per_flush": total_ms("serving.refresh_batch") / n_flush if n_flush else 0.0,
        "serving.sharded.rpcs_per_flush": rpcs / n_flush if n_flush else 0.0,
        "core.dream.fit.calls": calls("core.dream.fit"),
        "core.dream.fit.ms_per_call": _mean([s.duration * 1e3 for s in by_name.get("core.dream.fit", ())]),
        "ml.linear.well_conditioned_ratio": _mean([float(c) for c in conditioned]),
        "core.cache.hit_ratio": cache_hits / cache_lookups if cache_lookups else 0.0,
        "core.cache.evictions": evictions,
        "ires.executor.run.ms_per_req": total_ms("ires.executor.run") / rows,
        "federation.frontdoor.queue_wait_p50_ms": _pct(waits, 50),
        "federation.frontdoor.queue_wait_tail_ms": _pct(waits, tail),
        "federation.frontdoor.flush_ms_p50": _pct([s.duration * 1e3 for s in flushes], 50),
        "federation.frontdoor.items_per_flush": _mean([s.info[1] for s in flushes]),
        "federation.frontdoor.segments_per_flush": _mean([s.info[2] for s in flushes]),
        "federation.frontdoor.fit_rounds_per_flush": _mean([s.info[3] for s in flushes]),
        "federation.frontdoor.gen_lag_tail_ms": _pct([x * 1e3 for x in window.lateness], tail),
        "governance.policy.constraint_for.calls_per_req": calls("governance.policy.constraint_for") / prefix_rows,
        "governance.policy.constraint_for.ms_per_req": total_ms("governance.policy.constraint_for") / rows,
        "governance.audit.append.calls_per_req": calls("governance.audit.append") / prefix_rows,
        "governance.audit.append.ms_per_req": total_ms("governance.audit.append") / rows,
        "core.wal.append.calls_per_row": len(by_name.get("core.wal.append", ())) / rows,
        "core.wal.append.ms_per_row": total_ms("core.wal.append") / rows,
        "core.wal.sync.ms_per_flush": total_ms("core.wal.sync") / n_flush if n_flush else 0.0,
        "core.wal.bytes_per_row": wal_bytes / rows,
        "federation.durability.checkpoint.calls": len(by_name.get("federation.durability.checkpoint", ())),
        "federation.durability.checkpoint.ms": _mean(
            [s.duration * 1e3 for s in by_name.get("federation.durability.checkpoint", ())]
        ),
        "federation.gateway.self_ms_per_req": gateway_self * 1e3 / rows,
        "core.history.rows_max": max(gateway.history(k).size for k in gateway.templates()),
        "trace.overhead_ratio": overhead,
        "trace.coverage_ratio": coverage,
    }
    return metrics, coverage_ok
