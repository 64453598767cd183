"""Front-door ingest throughput over a 100-tenant federation gateway.

The ISSUE 6 acceptance harness for the batch-first ingest pipeline: a
:class:`~repro.midas.MidasSystem` gateway carrying **100 tenant
templates** (clones of the three medical queries) absorbs a mixed
request stream — single observes, eight-row
:class:`~repro.federation.BatchObserveRequest` envelopes, and ~5%
submissions — through ``gateway.ingest()`` with the size watermark
doing the flushing, then a final ``drain()``.

The full run pushes **>= 100_000 requests** (rows, not envelopes)
through the front door; ``--quick`` shrinks the stream for CI smoke
runs while keeping the tenant count at 100.  Reported and persisted to
``benchmarks/results/BENCH_gateway.json`` (a CI artifact, like
``BENCH_sharded.json``):

* end-to-end ingest throughput (QPS over admission + every flush);
* admission latency — p50 is the lock-and-enqueue cost; the tail
  (p99/max) is an admission that paid for an inline watermark flush;
* time-to-first-report — the front door runs in streaming mode
  (``ingest_segment_max=64``), so a flush's early segments resolve their tickets while later segments
  still execute; per flush, the gap between the flush-tripping
  admission and the *first* resolved ticket versus the *last* one
  (p50/p99 of both).  Streaming must put the first report strictly
  ahead of the full flush — that pair is the ISSUE 10 acceptance
  number;
* a sequential single-call baseline (same traffic shape, own gateway)
  for the throughput ratio;
* the front door's own counters (flushes, segments, fit rounds, peak
  depth).

Correctness is the hard gate: zero failed items, zero rejections, and
the admission ledger must balance (admitted == requests == flushed).
Throughput numbers are recorded; only trivially-true floors are
asserted, because the simulator pipeline — not the front door —
dominates per-item cost on any host.

Run standalone:  PYTHONPATH=src python benchmarks/bench_gateway_throughput.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.common.rng import RngStream
from repro.federation import (
    BatchObserveRequest,
    FederationConfig,
    IngestStats,
    ObserveRequest,
    SubmitRequest,
)
from repro.midas import MEDICAL_QUERIES, MidasSystem

RESULTS_DIR = Path(__file__).parent / "results"
JSON_PATH = RESULTS_DIR / "BENCH_gateway.json"

TENANTS = 100
PATIENTS = 300
BATCH_ROWS = 8
INGEST_BATCH_MAX = 256
INGEST_SEGMENT_MAX = 64
FULL_REQUESTS = 100_000
QUICK_REQUESTS = 2_880
FULL_BASELINE = 4_000
QUICK_BASELINE = 1_200


@dataclass(frozen=True)
class GatewayReport:
    tenants: int
    requests: int
    envelopes: int
    baseline_requests: int
    ingest_seconds: float
    baseline_seconds: float
    admission_p50_ms: float
    admission_p99_ms: float
    admission_max_ms: float
    baseline_p50_ms: float
    baseline_p99_ms: float
    first_report_p50_ms: float
    first_report_p99_ms: float
    full_flush_p50_ms: float
    full_flush_p99_ms: float
    streamed_flushes: int
    submits: int
    failed: int
    fits: int
    ingest: IngestStats

    @property
    def ingest_qps(self) -> float:
        return self.requests / self.ingest_seconds

    @property
    def baseline_qps(self) -> float:
        return self.baseline_requests / self.baseline_seconds

    @property
    def throughput_ratio(self) -> float:
        """Ingest vs sequential single-call QPS (>1 means batching won)."""
        return self.ingest_qps / self.baseline_qps


def build_system() -> tuple[MidasSystem, list[str]]:
    """A MIDAS gateway with 100 tenant clones of the medical queries."""
    config = FederationConfig(
        max_window=24,
        ingest_batch_max=INGEST_BATCH_MAX,
        ingest_queue_depth=4 * INGEST_BATCH_MAX,
        # Streaming mode: tickets resolve per 64-item segment.
        ingest_segment_max=INGEST_SEGMENT_MAX,
    )
    midas = MidasSystem(patient_count=PATIENTS, seed=11, config=config)
    bases = list(MEDICAL_QUERIES.values())
    keys = []
    for i in range(TENANTS):
        template = replace(bases[i % len(bases)], key=f"tenant-{i:03d}")
        midas.gateway.register_template(template)
        keys.append(template.key)
    return midas, keys


def build_traffic(keys: list[str], total: int, rng: RngStream) -> tuple[list, int]:
    """A mixed request stream of >= ``total`` rows.

    Starts with a warm phase (observes only, so every later submission
    finds history), then interleaves single observes, eight-row batch
    envelopes and ~5% submissions across all tenants.
    """
    bases = list(MEDICAL_QUERIES.values())
    template_for = {
        key: bases[i % len(bases)] for i, key in enumerate(keys)
    }

    def observe(key: str) -> ObserveRequest:
        return ObserveRequest(key, template_for[key].sample_params(rng))

    traffic: list = []
    count = 0
    # DREAM needs >= 7 observations before the first fit; 8+ warm
    # rounds guarantee every tenant can take a submission afterwards.
    warm_rounds = max(8, min(12, total // (len(keys) * 10)))
    for _ in range(warm_rounds):
        for key in keys:
            traffic.append(observe(key))
            count += 1

    slot = 0
    while count < total:
        key = keys[slot % len(keys)]
        slot += 1
        lane = slot % 20
        if lane == 0:
            traffic.append(
                SubmitRequest(key, template_for[key].sample_params(rng))
            )
            count += 1
        elif lane % 2:
            traffic.append(observe(key))
            count += 1
        else:
            rows = tuple(observe(key) for _ in range(BATCH_ROWS))
            traffic.append(BatchObserveRequest(key, rows))
            count += BATCH_ROWS
    return traffic, count


def run_gateway_throughput(quick: bool = False) -> GatewayReport:
    total = QUICK_REQUESTS if quick else FULL_REQUESTS
    baseline_total = QUICK_BASELINE if quick else FULL_BASELINE

    # Ingest path: everything through the front door, size watermark
    # flushing inline, one final drain.
    midas, keys = build_system()
    traffic, requests = build_traffic(keys, total, RngStream(5, "bench-ingest"))
    latencies = np.empty(len(traffic))
    tickets: list = []
    try:
        started = time.perf_counter()
        for position, request in enumerate(traffic):
            t0 = time.perf_counter()
            admitted = midas.gateway.ingest(request)
            latencies[position] = time.perf_counter() - t0
            if isinstance(admitted, list):
                tickets.extend(admitted)
            else:
                tickets.append(admitted)
        midas.gateway.drain()
        ingest_seconds = time.perf_counter() - started
        # Auto-flushed batches discard their IngestBatch objects, so the
        # per-item outcome ledger lives on the tickets.
        assert all(ticket.done for ticket in tickets)
        failed = sum(1 for ticket in tickets if ticket.error is not None)
        stats = midas.gateway.ingest_stats()
        fits = midas.gateway.serving_stats.fits
        submits = stats.submits
    finally:
        midas.gateway.close()

    # Time-to-first-report: per flush, the gap between the admission
    # that tripped it (the latest admitted_at in the flush — flushes run
    # inline on that caller) and the first/last resolved ticket.
    # Streaming pays off exactly when first << full.
    by_flush: dict[int, list] = defaultdict(list)
    for ticket in tickets:
        by_flush[ticket.batch_seq].append(ticket)
    first_ms: list[float] = []
    full_ms: list[float] = []
    for flush_tickets in by_flush.values():
        if len(flush_tickets) < 2:
            continue
        flush_start = max(t.admitted_at for t in flush_tickets)
        first = min(t.resolved_at for t in flush_tickets)
        last = max(t.resolved_at for t in flush_tickets)
        first_ms.append((first - flush_start) * 1e3)
        full_ms.append((last - flush_start) * 1e3)
    first_p50, first_p99 = np.percentile(np.array(first_ms), [50, 99])
    full_p50, full_p99 = np.percentile(np.array(full_ms), [50, 99])

    # Sequential baseline: the same traffic shape, single calls on a
    # fresh gateway (identical environment, no front door).
    baseline, keys = build_system()
    base_traffic, base_requests = build_traffic(
        keys, baseline_total, RngStream(5, "bench-baseline")
    )
    base_latencies = []
    try:
        started = time.perf_counter()
        for request in base_traffic:
            t0 = time.perf_counter()
            if isinstance(request, SubmitRequest):
                baseline.gateway.submit(request)
            elif isinstance(request, BatchObserveRequest):
                for row in request.requests:
                    baseline.gateway.observe(row)
            else:
                baseline.gateway.observe(request)
            base_latencies.append(time.perf_counter() - t0)
        baseline_seconds = time.perf_counter() - started
    finally:
        baseline.gateway.close()

    admission_p50, admission_p99 = np.percentile(latencies * 1e3, [50, 99])
    admission_max = float(np.max(latencies) * 1e3)
    baseline_p50, baseline_p99 = np.percentile(
        np.array(base_latencies) * 1e3, [50, 99]
    )
    return GatewayReport(
        tenants=len(keys),
        requests=requests,
        envelopes=len(traffic),
        baseline_requests=base_requests,
        ingest_seconds=ingest_seconds,
        baseline_seconds=baseline_seconds,
        admission_p50_ms=float(admission_p50),
        admission_p99_ms=float(admission_p99),
        admission_max_ms=admission_max,
        baseline_p50_ms=float(baseline_p50),
        baseline_p99_ms=float(baseline_p99),
        first_report_p50_ms=float(first_p50),
        first_report_p99_ms=float(first_p99),
        full_flush_p50_ms=float(full_p50),
        full_flush_p99_ms=float(full_p99),
        streamed_flushes=len(first_ms),
        submits=submits,
        failed=failed,
        fits=fits,
        ingest=stats,
    )


def format_report(report: GatewayReport) -> str:
    lines = [
        "Front-door ingest throughput (100-tenant federation gateway)",
        "------------------------------------------------------------",
        f"tenant templates              : {report.tenants}",
        f"requests (rows / envelopes)   : {report.requests} / {report.envelopes}",
        f"ingest wall time              : {report.ingest_seconds:8.2f} s",
        f"ingest throughput             : {report.ingest_qps:8.1f} req/s",
        f"admission latency p50/p99/max : {report.admission_p50_ms:.3f} / "
        f"{report.admission_p99_ms:.3f} / {report.admission_max_ms:.1f} ms",
        f"baseline ({report.baseline_requests} single calls): "
        f"{report.baseline_qps:8.1f} req/s, "
        f"p50/p99 {report.baseline_p50_ms:.3f} / {report.baseline_p99_ms:.3f} ms",
        f"ingest vs baseline            : {report.throughput_ratio:8.2f}x",
        f"first report p50/p99          : {report.first_report_p50_ms:.1f} / "
        f"{report.first_report_p99_ms:.1f} ms "
        f"(over {report.streamed_flushes} flushes)",
        f"full flush p50/p99            : {report.full_flush_p50_ms:.1f} / "
        f"{report.full_flush_p99_ms:.1f} ms",
        f"flushes (size/interval/drain) : {report.ingest.flushes} "
        f"({report.ingest.size_flushes}/{report.ingest.interval_flushes}"
        f"/{report.ingest.drain_flushes})",
        f"segments / streamed items     : {report.ingest.segments} / "
        f"{report.ingest.streamed_items}",
        f"fit rounds -> model fits      : {report.ingest.fit_rounds} -> {report.fits}",
        f"peak queue depth              : {report.ingest.peak_depth}",
        f"failed / rejected / blocked   : {report.failed} / "
        f"{report.ingest.rejected} / {report.ingest.blocked}",
    ]
    return "\n".join(lines)


def write_json(report: GatewayReport) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "benchmark": "gateway_throughput",
        "tenants": report.tenants,
        "requests": report.requests,
        "envelopes": report.envelopes,
        "ingest_batch_max": INGEST_BATCH_MAX,
        "ingest_segment_max": INGEST_SEGMENT_MAX,
        "host_cpu_count": os.cpu_count(),
        "ingest_seconds": round(report.ingest_seconds, 3),
        "ingest_qps": round(report.ingest_qps, 1),
        "admission_p50_ms": round(report.admission_p50_ms, 4),
        "admission_p99_ms": round(report.admission_p99_ms, 4),
        "admission_max_ms": round(report.admission_max_ms, 3),
        "baseline_requests": report.baseline_requests,
        "baseline_seconds": round(report.baseline_seconds, 3),
        "baseline_qps": round(report.baseline_qps, 1),
        "baseline_p50_ms": round(report.baseline_p50_ms, 4),
        "baseline_p99_ms": round(report.baseline_p99_ms, 4),
        "throughput_ratio": round(report.throughput_ratio, 3),
        "first_report_p50_ms": round(report.first_report_p50_ms, 3),
        "first_report_p99_ms": round(report.first_report_p99_ms, 3),
        "full_flush_p50_ms": round(report.full_flush_p50_ms, 3),
        "full_flush_p99_ms": round(report.full_flush_p99_ms, 3),
        "streamed_flushes": report.streamed_flushes,
        "submits": report.submits,
        "failed": report.failed,
        "fits": report.fits,
        "flushes": report.ingest.flushes,
        "size_flushes": report.ingest.size_flushes,
        "drain_flushes": report.ingest.drain_flushes,
        "fit_rounds": report.ingest.fit_rounds,
        "segments": report.ingest.segments,
        "streamed_items": report.ingest.streamed_items,
        "items_flushed": report.ingest.items_flushed,
        "max_batch": report.ingest.max_batch,
        "peak_depth": report.ingest.peak_depth,
        "rejected": report.ingest.rejected,
        "blocked": report.ingest.blocked,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def check_report(report: GatewayReport) -> None:
    assert report.tenants >= 100, report.tenants
    # The admission ledger must balance: every row admitted, every row
    # flushed, nothing rejected, nothing failed.
    assert report.failed == 0, report.failed
    assert report.ingest.rejected == 0, report.ingest.rejected
    assert report.ingest.admitted == report.requests
    assert report.ingest.items_flushed == report.requests
    assert report.ingest.pending == 0
    # The size watermark actually drove the run (not one giant drain).
    assert report.ingest.size_flushes >= report.requests // (2 * INGEST_BATCH_MAX)
    assert report.ingest.max_batch <= INGEST_BATCH_MAX + BATCH_ROWS
    # Submissions found history (warm phase ordering held) and fitted.
    assert report.submits > 0 and report.fits > 0
    assert report.ingest.fit_rounds > 0
    # Streaming actually subdivided the flushes and resolved early
    # segments before flush end...
    assert report.ingest.segments > report.ingest.flushes
    assert report.ingest.streamed_items > 0
    assert report.streamed_flushes > 0
    # ...which is the acceptance gate: the first report of a flush must
    # land strictly before the flush completes, at the median and tail.
    assert report.first_report_p50_ms < report.full_flush_p50_ms, (
        report.first_report_p50_ms,
        report.full_flush_p50_ms,
    )
    assert report.first_report_p99_ms < report.full_flush_p99_ms
    # Throughput floors are sanity-only: the simulator dominates
    # per-item cost, so real numbers live in BENCH_gateway.json.
    assert report.ingest_qps > 10, report.ingest_qps
    assert report.admission_max_ms >= report.admission_p99_ms >= report.admission_p50_ms


def test_gateway_throughput(benchmark):
    from conftest import record_result

    report = benchmark.pedantic(
        run_gateway_throughput, kwargs={"quick": True}, rounds=1, iterations=1
    )
    record_result("gateway_throughput", format_report(report))
    write_json(report)
    check_report(report)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smaller request stream for CI smoke runs"
    )
    arguments = parser.parse_args()
    final = run_gateway_throughput(quick=arguments.quick)
    print(format_report(final))
    write_json(final)
    check_report(final)
