"""The benchmark's workloads: MIDAS templates through the gateway.

Every workload builds a :class:`~repro.midas.MidasSystem` from the seed,
brings its histories to their starting size (set-up, untimed), then
drives seeded traffic through :class:`~repro.federation.FederationGateway`
for a fixed time.  The program sees only the generated requests.

* ``long-history`` — closed loop, one client, ``FederationConfig()``
  estimation defaults (``max_window=None``) over histories grown to
  several hundred rows.  Observe and submit alternate on one template,
  so every submit refits: DREAM's window search and its ``ml.linear``
  fallback dominate.
* ``tenants-ingest`` — open loop, one asyncio client calling
  ``gateway.ingest_async`` on a seeded schedule paced by rows.  Hundreds of
  tenant clones over a sharded backend whose engine cache is smaller
  than each worker's share of tenants (it evicts), ~95% observe rows,
  submits from two roles under one role-scoped ``restricted`` rule,
  WAL (``fsync="batch"``) and audit log on, flushes driven by
  ``ingest_flush_ms``.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.common.rng import RngStream
from repro.federation import (
    BatchObserveRequest,
    FederationConfig,
    FederationError,
    ObserveRequest,
    Principal,
    SubmitRequest,
)
from repro.federation.durability import DurabilityConfig
from repro.governance.policy import DataPolicy, GovernanceConfig
from repro.midas import MEDICAL_QUERIES, MidasSystem
from repro.midas.system import DEFAULT_CONFIG

perf_counter = time.perf_counter

PATIENTS = 300
#: Seed of the medical dataset and the federation's simulated load and
#: noise (MidasSystem's default).  The dataset is part of the workload,
#: like a fixed database; ``--seed`` draws the traffic and warm-up.
DATA_SEED = 7

#: Submitting principals of ``tenants-ingest``; the restricted rule
#: below applies to the clinician only.
CLINICIAN = Principal("dr-ward", "clinician", "cloud-a", "treatment")
RESEARCHER = Principal("res-lab", "researcher", "cloud-b", "research")
RESTRICTED = DataPolicy("patient", "cloud-a", "restricted", roles=("clinician",))


@dataclass(frozen=True)
class Sizes:
    """The knobs that size one workload (recorded in record.json)."""

    templates: int
    #: Rows each template's history holds when the timed window opens.
    history_rows: int
    #: Requests the count metrics cover on the closed-loop workloads
    #: (a fixed prefix of the window, so counts repeat exactly).
    count_prefix: int = 0
    cache_capacity: int | None = None
    #: Offered load of the open loop, in rows per second.
    offered_rows_per_s: float = 0.0
    flush_ms: float | None = None
    #: Tail percentile per latency kind, with at least ten samples
    #: beyond it in a 40-second window on the reference machine.
    tail: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one request produced, in request order."""

    kind: str
    template: str
    due: float
    done: float
    digest: str
    #: Submits only: measured time/money and relative error of time.
    measured: dict | None = None
    error_time: float | None = None
    principal: str | None = None
    site: str | None = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


@dataclass
class Window:
    """One timed window: outcomes plus the client's own bookkeeping."""

    outcomes: list
    attempted: int
    failed: int
    started: float
    ended: float
    cpu_seconds: float
    #: Generator lateness per envelope (open loop only), seconds.
    lateness: list = field(default_factory=list)
    #: Span count when the count prefix completed (traced closed loop).
    prefix_mark: int | None = None
    prefix_requests: int = 0
    #: Serving counters at the window start and at the count prefix.
    stats_start: object = None
    stats_prefix: object = None
    #: Closed loop: histories grew by exactly the executed rows.
    history_ledger: bool = True
    #: Open loop: shard RPC counts and ingest counters at the start.
    rpc_start: dict = field(default_factory=dict)
    ingest_start: object = None
    #: Traced runs: CPU seconds each thread used over the window.
    thread_cpu: dict = field(default_factory=dict)


def _digest_report(kind: str, report) -> str:
    if kind == "submit":
        return (
            f"S|{report.template}|{report.chosen.describe()}|"
            f"{sorted(report.measured_costs.items())!r}|"
            f"{sorted(report.predicted_costs.items())!r}"
        )
    return (
        f"O|{report.template}|{report.candidate.describe()}|"
        f"{sorted(report.measured.items())!r}"
    )


def _outcome(kind, request, report, due, done) -> Outcome:
    outcome = Outcome(
        kind=kind,
        template=request.template,
        due=due,
        done=done,
        digest=_digest_report(kind, report),
    )
    if kind == "submit":
        outcome.measured = dict(report.measured_costs)
        outcome.error_time = report.errors["time"]
        outcome.principal = None if request.principal is None else request.principal.role
        outcome.site = report.chosen.execution.site
    return outcome


def output_digest(outcomes) -> str:
    """SHA-256 over chosen plans and measured/predicted costs, in order."""
    h = hashlib.sha256()
    for outcome in outcomes:
        h.update(outcome.digest.encode())
        h.update(b"\n")
    return h.hexdigest()


def history_digest(gateway) -> str:
    """SHA-256 over every registered template's full history."""
    h = hashlib.sha256()
    for key in gateway.templates():
        h.update(key.encode())
        h.update(repr(gateway.history(key).export_rows()).encode())
    return h.hexdigest()


class Workload:
    """Base: build + warm a system, generate traffic, run a window."""

    name = ""
    why = ""
    loop = "closed"
    full: Sizes
    tiny: Sizes

    def __init__(self, tiny: bool = False, workdir: Path | None = None):
        self.sizes = self.tiny if tiny else self.full
        self.workdir = workdir
        self._builds = 0

    def build(self, seed: int):
        """A ready system: gateway built, templates registered, warm."""
        raise NotImplementedError

    def close(self, system) -> None:
        system.gateway.close()

    def run(self, system, seed, seconds, max_requests=None, tracer=None) -> Window:
        raise NotImplementedError

    def checks(self, system, window) -> dict[str, bool]:
        """Correctness checks made after the window (never timed)."""
        gateway = system.gateway
        stats = gateway.ingest_stats()
        ledger = stats is None or (
            stats.pending == 0
            and stats.rejected == 0
            and stats.admitted == stats.items_flushed
        )
        audit = gateway.audit_log
        return {
            "no_failures": window.failed == 0,
            "ingest_ledger_balanced": ledger,
            "audit_chain_verified": audit is None or audit.verify(),
        }

    def cleanup(self) -> None:
        """Remove the run's work directory."""
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def warm_up(midas, keys, rows, rng) -> None:
    """Exploratory executions rotating through each template's QEP space
    (what :meth:`MidasSystem.warm_up` does, drawn from the run's seed)."""
    gateway = midas.gateway
    for key in keys:
        template = MEDICAL_QUERIES[key]
        for _ in range(rows):
            params = template.sample_params(rng)
            space = gateway.candidates(key, params)
            candidate = space[int(rng.integers(0, len(space)))]
            gateway.observe(ObserveRequest(key, params), candidate=candidate)


def blocks(rng, block):
    """Endless seeded shuffles of ``block``: every kind of request keeps
    its share in every stretch of traffic, only the order varies."""
    while True:
        for index in rng.generator.permutation(len(block)):
            yield block[index]


# Closed loop ---------------------------------------------------------------


class LongHistory(Workload):
    """Closed loop: one client; the next request goes out when the last
    report is in."""

    name = "long-history"
    why = (
        "FederationConfig() defaults (max_window=None) over several hundred "
        "rows; observe then submit, so every submit refits and DREAM dominates"
    )
    full = Sizes(
        templates=3,
        history_rows=300,
        count_prefix=60,
        cache_capacity=256,
        tail={"submit": 97.0, "observe": 97.0, "report": 98.5},
    )
    tiny = replace(full, history_rows=24, count_prefix=10)

    def build(self, seed):
        midas = MidasSystem(
            patient_count=PATIENTS, seed=DATA_SEED, config=FederationConfig()
        )
        rng = RngStream(seed, "fedbench", self.name, "warm")
        warm_up(midas, MEDICAL_QUERIES, self.sizes.history_rows, rng)
        return midas

    def traffic(self, system, seed):
        rng = RngStream(seed, "fedbench", self.name)
        for key in blocks(rng, list(MEDICAL_QUERIES)):
            template = MEDICAL_QUERIES[key]
            yield "observe", ObserveRequest(key, template.sample_params(rng))
            yield "submit", SubmitRequest(key, template.sample_params(rng))

    def run(self, system, seed, seconds, max_requests=None, tracer=None) -> Window:
        gateway = system.gateway
        history_before = sum(gateway.history(k).size for k in gateway.templates())
        window = Window(
            outcomes=[], attempted=0, failed=0, started=0.0, ended=0.0, cpu_seconds=0.0
        )
        window.stats_start = gateway.serving_stats
        prefix = self.sizes.count_prefix
        requests = self.traffic(system, seed)
        cpu0 = time.process_time()
        window.started = start = perf_counter()
        deadline = start + seconds
        for index, (kind, request) in enumerate(requests):
            if max_requests is not None:
                if index >= max_requests:
                    break
            elif index >= prefix and perf_counter() >= deadline:
                break
            if index == prefix and window.stats_prefix is None:
                self._mark_prefix(gateway, window, tracer, index)
            if tracer is not None:
                tracer.set_request(index)
            window.attempted += 1
            sent = perf_counter()
            try:
                if kind == "submit":
                    report = gateway.submit(request)
                else:
                    report = gateway.observe(request)
            except FederationError:
                window.failed += 1
                continue
            window.outcomes.append(_outcome(kind, request, report, sent, perf_counter()))
        window.ended = perf_counter()
        window.cpu_seconds = time.process_time() - cpu0
        if window.stats_prefix is None:
            self._mark_prefix(gateway, window, tracer, window.attempted)
        executed = len(window.outcomes)
        grown = sum(gateway.history(k).size for k in gateway.templates()) - history_before
        window.history_ledger = grown == executed
        return window

    @staticmethod
    def _mark_prefix(gateway, window, tracer, requests) -> None:
        window.stats_prefix = gateway.serving_stats
        window.prefix_requests = requests
        if tracer is not None:
            window.prefix_mark = tracer.mark()

    def checks(self, system, window) -> dict[str, bool]:
        result = super().checks(system, window)
        result["history_grew_by_executed_rows"] = window.history_ledger
        return result


# Open loop -----------------------------------------------------------------


class TenantsIngest(Workload):
    name = "tenants-ingest"
    loop = "open"
    why = (
        "hundreds of tenants, open-loop async ingest, ~95% observe rows, "
        "sharded with an evicting cache, WAL, audit and a role-scoped policy"
    )
    full = Sizes(
        templates=200,
        history_rows=8,
        cache_capacity=16,
        offered_rows_per_s=50.0,
        flush_ms=100.0,
        tail={"submit": 87.0, "observe": 99.2, "report": 99.3},
    )
    tiny = replace(full, templates=12, cache_capacity=4)
    batch_rows = 8
    shard_workers = 2
    #: Envelopes per block: one submit, two single observes and two
    #: 8-row batches, so 1 of 19 rows (~5%) is a submit.
    block = ("submit", "observe", "observe", "batch", "batch")

    def _wal_dir(self) -> Path:
        self._builds += 1
        return self.workdir / f"{self.name}-wal-{self._builds}"

    def config(self, wal_dir: Path) -> FederationConfig:
        return replace(
            DEFAULT_CONFIG,
            cache_capacity=self.sizes.cache_capacity,
            serving_backend="sharded",
            shard_workers=self.shard_workers,
            ingest_flush_ms=self.sizes.flush_ms,
            governance=GovernanceConfig(policies=(RESTRICTED,), audit=True),
            durability=DurabilityConfig(dir=wal_dir, fsync="batch"),
        )

    def tenant_keys(self) -> list[str]:
        return [f"tenant-{i:03d}" for i in range(self.sizes.templates)]

    def _system(self, wal_dir: Path) -> MidasSystem:
        midas = MidasSystem(
            patient_count=PATIENTS, seed=DATA_SEED, config=self.config(wal_dir)
        )
        midas.wal_dir = wal_dir
        bases = list(MEDICAL_QUERIES.values())
        midas.tenant_base = {}
        for i, key in enumerate(self.tenant_keys()):
            base = bases[i % len(bases)]
            midas.gateway.register_template(replace(base, key=key))
            midas.tenant_base[key] = base
        return midas

    def build(self, seed):
        midas = self._system(self._wal_dir())
        rng = RngStream(seed, "fedbench", self.name, "warm")
        gateway = midas.gateway
        for key, base in midas.tenant_base.items():
            rows = tuple(
                ObserveRequest(key, base.sample_params(rng))
                for _ in range(self.sizes.history_rows)
            )
            gateway.ingest(BatchObserveRequest(key, rows))
        gateway.drain()
        return midas

    def close(self, system) -> None:
        system.gateway.close()
        shutil.rmtree(system.wal_dir, ignore_errors=True)

    def schedule(self, system, seed, seconds):
        """Seeded arrivals at the offered row rate: a list of
        ``(due offset in seconds, kind, envelope)``.

        Arrivals are paced by rows (an envelope of ``r`` rows is followed
        by the next one ``r / rate`` seconds later).  Observed tenants
        are drawn uniformly, so each worker is asked for all of its
        tenants, more than its engine cache holds.  Submits rotate
        through the three base templates (a uniform tenant of each) and
        alternate the two principals.
        """
        rng = RngStream(seed, "fedbench", self.name, "traffic")
        keys = list(system.tenant_base)
        by_base = {
            base.key: [key for key in keys if system.tenant_base[key] is base]
            for base in MEDICAL_QUERIES.values()
        }

        def pick(candidates):
            return candidates[int(rng.integers(0, len(candidates)))]

        bases = list(by_base)
        out = []
        due = 0.0
        submits = 0
        for kind in blocks(rng, self.block):
            if due >= seconds:
                return out
            if kind == "submit":
                key = pick(by_base[bases[submits % len(bases)]])
                principal = (CLINICIAN, RESEARCHER)[submits % 2]
                submits += 1
                params = system.tenant_base[key].sample_params(rng)
                envelope = SubmitRequest(key, params, principal=principal)
                rows = 1
            else:
                key = pick(keys)
                base = system.tenant_base[key]
                rows = self.batch_rows if kind == "batch" else 1
                requests = tuple(
                    ObserveRequest(key, base.sample_params(rng)) for _ in range(rows)
                )
                envelope = (
                    BatchObserveRequest(key, requests) if kind == "batch" else requests[0]
                )
            out.append((due, kind, envelope))
            due += rows / self.sizes.offered_rows_per_s

    def run(self, system, seed, seconds, max_requests=None, tracer=None) -> Window:
        gateway = system.gateway
        schedule = self.schedule(system, seed, seconds)
        if max_requests is not None:
            schedule = schedule[:max_requests]
        window = Window(
            outcomes=[None] * len(schedule),
            attempted=sum(
                self.batch_rows if kind == "batch" else 1 for _d, kind, _e in schedule
            ),
            failed=0,
            started=0.0,
            ended=0.0,
            cpu_seconds=0.0,
        )
        window.stats_start = gateway.serving_stats
        window.rpc_start = dict(gateway.engine.serving.rpc_counts())
        window.ingest_start = gateway.ingest_stats()

        async def send(position, due, kind, envelope):
            try:
                report = await gateway.ingest_async(envelope)
            except FederationError:
                window.failed += 1 if kind != "batch" else len(envelope.requests)
                return
            done = perf_counter()
            if kind == "batch":
                outcomes = [
                    _outcome("observe", row, rep, due, done)
                    for row, rep in zip(envelope.requests, report)
                ]
            else:
                outcomes = [_outcome(kind, envelope, report, due, done)]
            window.outcomes[position] = outcomes

        async def client():
            tasks = []
            start = perf_counter()
            window.started = start
            for position, (offset, kind, envelope) in enumerate(schedule):
                due = start + offset
                delay = due - perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                window.lateness.append(perf_counter() - due)
                tasks.append(asyncio.create_task(send(position, due, kind, envelope)))
            await gateway.drain_async()
            await asyncio.gather(*tasks)

        cpu0 = time.process_time()
        asyncio.run(client())
        window.cpu_seconds = time.process_time() - cpu0
        window.outcomes = [o for group in window.outcomes if group for o in group]
        window.ended = max((o.done for o in window.outcomes), default=perf_counter())
        window.stats_prefix = gateway.serving_stats
        window.prefix_requests = len(window.outcomes)
        if tracer is not None:
            window.prefix_mark = tracer.mark()
        return window

    def checks(self, system, window) -> dict[str, bool]:
        result = super().checks(system, window)
        stats = system.gateway.ingest_stats()
        admitted = stats.admitted - window.ingest_start.admitted
        result["ingest_ledger_balanced"] = result["ingest_ledger_balanced"] and (
            admitted == window.attempted == len(window.outcomes) + window.failed
        )
        result["clinician_plans_stay_at_restricted_site"] = all(
            o.site == RESTRICTED.site
            for o in window.outcomes
            if o.kind == "submit" and o.principal == CLINICIAN.role
        )
        return result

    def recovery_check(self, system) -> bool:
        """Close the live gateway, recover a fresh one from its WAL and
        compare history digests and audit heads."""
        gateway = system.gateway
        live = history_digest(gateway)
        head = gateway.audit_log.head_hash
        gateway.close()
        fresh = self._system(system.wal_dir)
        try:
            fresh.gateway.recover()
            return history_digest(fresh.gateway) == live and (
                fresh.gateway.audit_log.head_hash == head
            )
        finally:
            fresh.gateway.close()


WORKLOADS = {w.name: w for w in (TenantsIngest, LongHistory)}


def tail_samples(count: int, pct: float) -> int:
    """Samples beyond percentile ``pct`` of ``count`` samples."""
    return count - math.ceil(count * pct / 100.0)
