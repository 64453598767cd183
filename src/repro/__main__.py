"""Command-line entry point: the gateway demo + paper artifacts.

Installed as the ``repro`` console script (``python -m repro`` works
without installing).  Usage::

    repro demo [--quick] [--serving-backend threaded|sharded]
               [--shard-workers N]       # drive the federation gateway
               [--ingest-batch N] [--ingest-flush-ms MS]  # batched front door
               [--rebalance]             # elastic shard topology walkthrough
               [--policy]                # governance plane + audit walkthrough
    repro list                           # what can be reproduced
    repro table1                         # instance pricing (verbatim)
    repro table2                         # MLR R^2 vs window size
    repro table3 [--quick]               # MRE, TPC-H 100 MiB
    repro table4 [--quick]               # MRE, TPC-H 1 GiB
    repro figure3                        # GA+Pareto vs WSM pipelines
    repro example31                      # 18,200-configuration space

``--quick`` shrinks the MRE experiments (1 seed, 2 queries) to ~15 s and
the demo's profiling phase to a handful of runs.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import (
    PAPER_TABLE3,
    PAPER_TABLE4,
    format_example31,
    format_figure3,
    format_mre_table,
    format_table1,
    format_table2,
    run_example31,
    run_figure3,
    run_mre_experiment,
    run_table1,
    run_table2,
)
from repro.experiments.mre import MreExperimentConfig

ARTIFACTS = ("table1", "table2", "table3", "table4", "figure3", "example31")


def run_demo(
    quick: bool = False,
    serving_backend: str = "threaded",
    shard_workers: int | None = None,
    ingest_batch: int | None = None,
    ingest_flush_ms: float | None = None,
    rebalance: bool = False,
    policy: bool = False,
) -> int:
    """Drive the federation gateway end to end on the MIDAS setup.

    Builds the two-cloud medical federation, profiles Example 2.1
    through typed ``observe`` envelopes, submits one query, then runs a
    pinned-session policy sweep (one model snapshot, one enumeration)
    and prints the serving-layer counters.  ``--serving-backend
    sharded`` routes every model fit through the shared-nothing worker
    pool instead of the in-process service (identical predictions, no
    GIL contention between tenants).  ``--ingest-batch N`` adds a
    batched front-door burst — coalesced ``ingest()`` + ``drain()``
    with the size watermark at ``N``, streaming per-segment ticket
    resolution, a done-callback consumer, and an awaited
    ``ingest_async``/``drain_async`` round — and prints the admission,
    backpressure and streaming counters from the serving report.  ``--rebalance``
    (implies the sharded backend) warms a second template into a skewed
    load, runs one elastic-topology control cycle and prints the typed
    ``TopologyReport`` — routing table version, per-shard load
    accounting, applied migrations.  ``--policy`` turns on the
    governance plane: declarative site-level rules enforced inside QEP
    enumeration, identity-scoped denials, and the hash-chained audit
    log (with a live tamper-detection check).
    """
    from dataclasses import replace

    from repro.federation import SubmitRequest
    from repro.ires.policy import UserPolicy
    from repro.midas import MidasSystem
    from repro.midas.system import DEFAULT_CONFIG

    runs = 12 if quick else 30
    key = "medical-demographics"
    overrides = {}
    clinician = None
    if policy:
        from repro.federation import DataPolicy, GovernanceConfig, Principal

        clinician = Principal("dr-adams", "clinician", "cloud-a")
        overrides["governance"] = GovernanceConfig(
            policies=(
                DataPolicy("patient", "cloud-a", "restricted"),
                DataPolicy("*", "cloud-b", "deny", roles=("researcher",)),
            ),
            require_identity=True,
        )
    if rebalance:
        if serving_backend != "sharded":
            print("--rebalance requires the sharded backend; enabling it.")
            serving_backend = "sharded"
        from repro.federation import RebalanceConfig

        overrides["rebalance"] = RebalanceConfig(max_moves=2)
    if ingest_batch is not None:
        overrides["ingest_batch_max"] = ingest_batch
        # Streaming demo mode: tickets resolve in quarter-watermark
        # segments.
        overrides["ingest_segment_max"] = max(1, ingest_batch // 4)
    if ingest_flush_ms is not None:
        overrides["ingest_flush_ms"] = ingest_flush_ms
    config = replace(
        DEFAULT_CONFIG,
        serving_backend=serving_backend,
        shard_workers=shard_workers,
        **overrides,
    )
    print("Building the MIDAS federation gateway (Amazon/Hive + Azure/PostgreSQL)...")
    midas = MidasSystem(patient_count=400 if quick else 1500, seed=7, config=config)
    gateway = midas.gateway
    print(f"Registered templates: {', '.join(gateway.templates())}")
    serving = gateway.serving_report()
    if serving.workers:
        print(
            f"Serving backend: {serving.backend} "
            f"({serving.workers} shard worker processes)"
        )

    print(f"Profiling {runs} exploratory executions of Example 2.1...")
    midas.warm_up(key, runs=runs, principal=clinician)

    report = gateway.submit(
        SubmitRequest(
            key,
            {"min_age": 40},
            UserPolicy(weights=(0.6, 0.4)),
            principal=clinician,
        )
    )
    fallback = " (exact fell back: space > exact_limit)" if report.moqp_exact_fallback else ""
    print()
    print(f"QEP space      : {report.candidate_count} candidate plans")
    print(f"MOQP algorithm : {report.moqp_algorithm}{fallback}")
    print(f"Chosen QEP     : {report.describe()}")
    print(
        "Measured       : "
        + ", ".join(f"{m}={v:.4g}" for m, v in report.measured_costs.items())
    )
    print(
        "Relative error : "
        + ", ".join(f"{m}={v:.1%}" for m, v in report.errors.items())
    )

    print()
    print("Pinned-session policy sweep (one model snapshot, one enumeration):")
    weights = ((1.0, 0.0), (0.5, 0.5), (0.0, 1.0))
    with gateway.session(key) as session:
        batch = session.submit_many(
            [
                SubmitRequest(
                    key, {"min_age": 40}, UserPolicy(weights=w), principal=clinician
                )
                for w in weights
            ],
            execute=False,
        )
    for w, item in zip(weights, batch):
        print(f"  weights={w}: {item.describe()}")
    print(f"  enumerations performed: {batch.enumerations} (batch of {len(batch)})")

    if ingest_batch is not None:
        import asyncio

        from repro.common.rng import RngStream
        from repro.federation import BatchObserveRequest, ObserveRequest
        from repro.midas import MEDICAL_QUERIES

        rng = RngStream(11, "demo-ingest")
        template = MEDICAL_QUERIES[key]
        burst = 2 * ingest_batch
        print()
        print(
            f"Front-door ingest burst: {burst} observes in 8-row batch "
            f"envelopes (size watermark at {ingest_batch}, streaming "
            f"segments of {config.ingest_segment_max})..."
        )
        rows = tuple(
            ObserveRequest(key, template.sample_params(rng), principal=clinician)
            for _ in range(burst)
        )
        tickets = []
        for start in range(0, burst, 8):
            tickets.extend(
                gateway.ingest(BatchObserveRequest(key, rows[start : start + 8]))
            )
        # Streaming consumption: a done-callback on the first pending
        # ticket records how much of the flush was still outstanding
        # when its segment resolved.
        stream_note = {}
        pending = [t for t in tickets if not t.done]
        if pending:
            pending[0].add_done_callback(
                lambda _t: stream_note.setdefault(
                    "left", sum(1 for t in tickets if not t.done)
                )
            )
        batch = gateway.drain()
        if len(batch):
            print(
                f"  drained batch #{batch.seq}: {len(batch)} items, "
                f"failed={batch.failed}, fit_rounds={batch.fit_rounds}"
            )
        else:
            print(
                f"  queue empty at drain: all {burst} items went out "
                f"through {batch.seq} watermark flushes"
            )
        istats = gateway.ingest_stats()
        print(
            f"  admission    : admitted={istats.admitted} "
            f"(submits={istats.submits}, observes={istats.observes}), "
            f"peak_depth={istats.peak_depth}, pending={istats.pending}"
        )
        print(
            f"  backpressure : rejected={istats.rejected}, "
            f"blocked={istats.blocked}, "
            f"self-help flushes={istats.backpressure_flushes} "
            f"(overflow={config.ingest_overflow!r}, "
            f"queue_depth={config.ingest_queue_depth})"
        )
        print(
            f"  flushes      : {istats.flushes} total "
            f"(size={istats.size_flushes}, interval={istats.interval_flushes}, "
            f"drain={istats.drain_flushes}), fit_rounds={istats.fit_rounds}, "
            f"max_batch={istats.max_batch}"
        )
        print(
            f"  streaming    : {istats.segments} segments, "
            f"{istats.streamed_items} items resolved mid-flush"
        )
        if "left" in stream_note:
            print(
                f"  streaming    : first pending ticket resolved with "
                f"{stream_note['left']} items still in flight"
            )

        async def async_burst():
            tasks = [
                asyncio.ensure_future(
                    gateway.ingest_async(
                        ObserveRequest(
                            key, template.sample_params(rng), principal=clinician
                        )
                    )
                )
                for _ in range(8)
            ]
            await gateway.drain_async()
            return await asyncio.gather(*tasks)

        reports = asyncio.run(async_burst())
        print(
            f"  asyncio      : awaited {len(reports)} ingest_async reports "
            f"(ticks {reports[0].tick}..{reports[-1].tick})"
        )

    if policy:
        from dataclasses import replace as replace_record

        from repro.federation import Principal, PolicyViolationError, verify_chain

        researcher = Principal(
            "lab-ext-7", "researcher", "cloud-b", purpose="research"
        )
        hot = "medical-severe-cases"  # spans patient@cloud-a + labresult@cloud-b
        print()
        print("Governance plane (site-level policies, enforced in enumeration):")
        for rule in config.governance.policies:
            print(f"  rule {rule.rule_id!r}: {rule.describe()}")
        print(f"  require_identity={config.governance.require_identity}")

        from repro.common.rng import RngStream
        from repro.midas import MEDICAL_QUERIES

        hot_params = MEDICAL_QUERIES[hot].sample_params(
            RngStream(13, "demo-policy")
        )
        midas.warm_up(hot, runs=max(8, runs // 2), principal=clinician)
        allowed = gateway.submit(
            SubmitRequest(hot, hot_params, principal=clinician)
        )
        sites = sorted(
            {c.payload.execution.site for c in allowed.pareto_set}
        )
        print(
            f"  {clinician.describe()}\n"
            f"    -> {allowed.candidate_count} admissible plans, Pareto "
            f"execution sites: {', '.join(sites)} "
            "(raw Patient rows never leave cloud-a)"
        )
        for denied_principal in (researcher, None):
            who = "anonymous request" if denied_principal is None else denied_principal.describe()
            try:
                gateway.submit(
                    SubmitRequest(hot, hot_params, principal=denied_principal)
                )
            except PolicyViolationError as error:
                print(f"  {who}")
                print(
                    f"    -> DENIED [phase={error.phase}] "
                    f"rules: {', '.join(error.rule_ids)}"
                )

        audit = gateway.audit_report()
        print()
        print(f"Audit log      : {audit.describe()}")
        records = gateway.audit_log.records()
        tampered = list(records)
        tampered[len(records) // 2] = replace_record(
            tampered[len(records) // 2], detail="(falsified after the fact)"
        )
        print(
            "Tamper check   : verify_chain(records)="
            f"{verify_chain(records)}, "
            f"verify_chain(tampered)={verify_chain(tampered)}"
        )

        # Same demo against stable storage: export the chain to a JSON
        # lines file, verify it offline, then flip one byte and watch
        # the verification fail — the audit trail survives the process.
        import tempfile
        from pathlib import Path

        from repro.governance import verify_chain_file

        with tempfile.TemporaryDirectory() as tmp:
            chain_path = Path(tmp) / "audit-chain.jsonl"
            exported = gateway.audit_log.export(chain_path)
            intact = verify_chain_file(chain_path)
            raw = bytearray(chain_path.read_bytes())
            raw[len(raw) // 2] ^= 0x01
            chain_path.write_bytes(bytes(raw))
            print(
                f"On-disk chain  : exported {exported} records, "
                f"verify_chain_file(intact)={intact}, "
                f"verify_chain_file(bit-flipped)={verify_chain_file(chain_path)}"
            )

    if rebalance:
        hot = "medical-severe-cases"
        print()
        print(
            f"Elastic topology: skewing load onto {hot!r} "
            "and running one rebalance cycle..."
        )
        midas.warm_up(hot, runs=2 * runs, principal=clinician)
        gateway.model(hot)
        report = gateway.rebalance()
        print(report.describe())

    serving = gateway.serving_report()
    stats = serving.stats
    print()
    print(f"Serving report : {serving.describe()}")
    if serving.ingest is not None:
        print(f"Ingest counters: {serving.ingest.describe()}")
    if stats.engine_cache is not None:
        print(
            f"Engine cache   : hits={stats.engine_cache.hits}, "
            f"misses={stats.engine_cache.misses}, size={stats.engine_cache.size}"
        )
    gateway.close()
    return 0


def _mre_config(scale_mib: float, quick: bool) -> MreExperimentConfig:
    if quick:
        return MreExperimentConfig(
            scale_mib=scale_mib,
            train_runs=70,
            test_runs=12,
            seeds=(7,),
            queries=("q12", "q17"),
        )
    return MreExperimentConfig(scale_mib=scale_mib)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("artifact", choices=("list", "demo", *ARTIFACTS))
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller configuration for demo/table3/table4 (~15 s)",
    )
    parser.add_argument(
        "--serving-backend",
        choices=("threaded", "sharded"),
        default="threaded",
        help="demo only: serving layer (sharded = cross-process worker pool)",
    )
    parser.add_argument(
        "--shard-workers",
        type=int,
        default=None,
        metavar="N",
        help="demo only: shard worker processes for --serving-backend sharded",
    )
    parser.add_argument(
        "--ingest-batch",
        type=int,
        default=None,
        metavar="N",
        help="demo only: run a batched front-door burst with the size "
        "watermark at N items and print the ingest counters",
    )
    parser.add_argument(
        "--ingest-flush-ms",
        type=float,
        default=None,
        metavar="MS",
        help="demo only: staleness watermark for the front-door burst "
        "(milliseconds; requires --ingest-batch)",
    )
    parser.add_argument(
        "--rebalance",
        action="store_true",
        help="demo only: run an elastic shard-topology control cycle and "
        "print the TopologyReport (implies --serving-backend sharded)",
    )
    parser.add_argument(
        "--policy",
        action="store_true",
        help="demo only: enable the governance plane (site-level "
        "DataPolicy rules, identity-scoped denials, hash-chained audit "
        "log with a tamper-detection check)",
    )
    arguments = parser.parse_args(argv)

    if arguments.artifact == "list":
        print("Reproducible artifacts:", ", ".join(ARTIFACTS))
        print("Gateway walkthrough: repro demo [--quick]")
        return 0
    if arguments.artifact == "demo":
        return run_demo(
            arguments.quick,
            arguments.serving_backend,
            arguments.shard_workers,
            arguments.ingest_batch,
            arguments.ingest_flush_ms,
            arguments.rebalance,
            arguments.policy,
        )
    if arguments.artifact == "table1":
        print(format_table1(run_table1()))
        return 0
    if arguments.artifact == "table2":
        print(format_table2(run_table2()))
        return 0
    if arguments.artifact == "table3":
        result = run_mre_experiment(_mre_config(100.0, arguments.quick))
        print(format_mre_table(result, PAPER_TABLE3, "Table 3: MRE, TPC-H 100 MiB"))
        return 0
    if arguments.artifact == "table4":
        result = run_mre_experiment(_mre_config(1024.0, arguments.quick))
        print(format_mre_table(result, PAPER_TABLE4, "Table 4: MRE, TPC-H 1 GiB"))
        return 0
    if arguments.artifact == "figure3":
        print(format_figure3(run_figure3()))
        return 0
    print(format_example31(run_example31()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
