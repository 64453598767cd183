"""Incremental DREAM vs the seed batch path at Example 3.1 scale.

The hot loop of the paper's optimizer: every query submission must cost
*every* equivalent QEP (Example 3.1: thousands of configurations for one
plan) from a freshly chosen training window, under a drifting load
(``cloud/variability.py``).  This benchmark replays that loop over a
TPC-H federation history two ways:

* **seed path** — batch :class:`DreamEstimator` refits every window size
  from scratch on each call and predictions walk the candidate set in a
  per-row Python loop (the repository's original behaviour);
* **incremental path** — :class:`OnlineDreamEstimator` reuses state
  across ticks (version cache + rank-one window growth) and
  ``DreamResult.predict_batch`` costs the whole candidate set with one
  matmul + vectorised clamp per metric.

Both paths must choose identical windows and agree on every prediction
to 1e-6; the incremental path must be at least 5x faster end to end.

A second variant replays the MIDAS warm-up histories of the three
medical templates under the gateway defaults (``max_window=None``).
Their windows hold columns that are constant over the window, which the
incremental engine drops from the reduced basis; the variant checks that
windows stay identical to the batch path and that at least 95% of the
widening steps run on the rank-one carry
(``RecursiveLeastSquares.well_conditioned``).

Run standalone:  PYTHONPATH=src python benchmarks/bench_dream_incremental.py [--quick]
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass

import numpy as np

from repro.common.rng import RngStream
from repro.core import DreamEstimator, ExecutionHistory, OnlineDreamEstimator
from repro.federation import FederationConfig
from repro.midas import MEDICAL_QUERIES, MidasSystem
from repro.ml import RecursiveLeastSquares
from repro.plans.binder import plan_sql
from repro.plans.optimizer import optimize
from repro.tpch.queries import TPCH_QUERIES
from repro.workloads.tpch_runner import TpchFederationConfig, TpchFederationWorkload

R2_REQUIRED = 0.8
MAX_WINDOW = 40
#: Optimizer calls per executed query (plan costing happens more often
#: than execution — e.g. re-planning under different user policies).
CALLS_PER_TICK = 2
#: Smallest share of widening steps that must run on the rank-one carry
#: over the MIDAS histories.
MIN_CARRY_SHARE = 0.95


@dataclass(frozen=True)
class IncrementalReport:
    candidate_count: int
    ticks: int
    seed_seconds: float
    incremental_seconds: float
    max_relative_difference: float
    windows_identical: bool
    mean_window: float

    @property
    def speedup(self) -> float:
        return self.seed_seconds / self.incremental_seconds


def _qep_space_workload(quick: bool) -> TpchFederationWorkload:
    """A q12 federation whose QEP space tops 1000 candidates."""
    return TpchFederationWorkload(
        TpchFederationConfig(
            scale_mib=100.0,
            queries=("q12",),
            drift="paper",  # default_federation_load drift
            fixed_execution=None,  # both engines -> indicator feature
            node_options={
                "cloud-a": list(range(2, 22)),  # 20 options
                "cloud-b": list(range(2, 28)),  # 26 options
            },
        )
    )


def run_dream_incremental(quick: bool = False) -> IncrementalReport:
    warmup_runs = 20 if quick else 40
    ticks = 10 if quick else 30

    workload = _qep_space_workload(quick)
    template = TPCH_QUERIES["q12"]
    source = workload.build_history("q12", warmup_runs + ticks)

    params = template.sample_params(RngStream(23, "bench-params"))
    plan = optimize(plan_sql(template.render(params), workload.dataset.catalog))
    candidates = workload.enumerator.enumerate(
        "q12", plan, workload.dataset.logical_stats, template.tables
    )
    feature_names = source.feature_names
    matrix = np.array(
        [[c.features[name] for name in feature_names] for c in candidates],
        dtype=float,
    )

    # Replay the stream: warm up, then per tick append one execution and
    # run CALLS_PER_TICK optimizer costings of the full candidate set.
    replay = ExecutionHistory(feature_names, source.metric_names)
    observations = source.observations
    for obs in observations[:warmup_runs]:
        replay.append(obs.tick, obs.features, obs.costs)

    batch = DreamEstimator(r2_required=R2_REQUIRED, max_window=MAX_WINDOW)
    online = OnlineDreamEstimator(r2_required=R2_REQUIRED, max_window=MAX_WINDOW)
    metrics = source.metric_names

    seed_seconds = 0.0
    incremental_seconds = 0.0
    max_diff = 0.0
    windows_identical = True
    windows: list[int] = []

    for obs in observations[warmup_runs:]:
        replay.append(obs.tick, obs.features, obs.costs)

        started = time.perf_counter()
        for _ in range(CALLS_PER_TICK):
            seed_result = batch.fit(replay.datasets())
            seed_rows = [seed_result.predict(row) for row in matrix]
        seed_seconds += time.perf_counter() - started

        started = time.perf_counter()
        for _ in range(CALLS_PER_TICK):
            fast_result = online.fit(replay)
            fast_columns = fast_result.predict_batch(matrix)
        incremental_seconds += time.perf_counter() - started

        windows_identical &= seed_result.window_size == fast_result.window_size
        windows_identical &= seed_result.window_sizes == fast_result.window_sizes
        windows.append(fast_result.window_size)
        for j, metric in enumerate(metrics):
            seed_column = np.array([row[metric] for row in seed_rows])
            scale = np.maximum(np.abs(seed_column), 1e-9)
            max_diff = max(
                max_diff,
                float(np.max(np.abs(seed_column - fast_columns[metric]) / scale)),
            )

    return IncrementalReport(
        candidate_count=len(candidates),
        ticks=ticks,
        seed_seconds=seed_seconds,
        incremental_seconds=incremental_seconds,
        max_relative_difference=max_diff,
        windows_identical=windows_identical,
        mean_window=float(np.mean(windows)),
    )


def format_report(report: IncrementalReport) -> str:
    lines = [
        "Incremental DREAM vs seed batch path (Example 3.1-scale QEP space)",
        "------------------------------------------------------------------",
        f"QEP candidates per costing    : {report.candidate_count}",
        f"ticks x optimizer calls       : {report.ticks} x {CALLS_PER_TICK}",
        f"mean DREAM window             : {report.mean_window:.1f}",
        f"seed path (refit + row loop)  : {report.seed_seconds * 1e3:8.1f} ms",
        f"incremental (RLS + batch)     : {report.incremental_seconds * 1e3:8.1f} ms",
        f"speedup                       : {report.speedup:8.1f}x",
        f"max relative prediction diff  : {report.max_relative_difference:.2e}",
        f"windows identical             : {report.windows_identical}",
    ]
    return "\n".join(lines)


def check_report(report: IncrementalReport) -> None:
    assert report.candidate_count >= 1000, report.candidate_count
    assert report.windows_identical
    assert report.max_relative_difference <= 1e-6
    assert report.speedup >= 5.0, f"speedup only {report.speedup:.1f}x"


@dataclass(frozen=True)
class MidasReport:
    history_rows: int
    ticks: int
    seed_seconds: float
    incremental_seconds: float
    max_relative_difference: float
    windows_identical: bool
    carry_steps: int
    exact_steps: int

    @property
    def carry_share(self) -> float:
        return self.carry_steps / max(1, self.carry_steps + self.exact_steps)

    @property
    def speedup(self) -> float:
        return self.seed_seconds / self.incremental_seconds


def run_midas_histories(quick: bool = False) -> MidasReport:
    """Replay each template's last ``ticks`` executions, one fit per tick."""
    rows = 120 if quick else 300
    ticks = 15 if quick else 40
    midas = MidasSystem(patient_count=300, seed=7, config=FederationConfig())
    rng = RngStream(29, "bench-midas")
    counts = [0, 0]  # [exact, carry] widening steps
    conditioned = RecursiveLeastSquares.__dict__["well_conditioned"]

    def counted(rls) -> bool:
        result = conditioned(rls)
        counts[bool(result)] += 1
        return result

    seed_seconds = incremental_seconds = max_diff = 0.0
    windows_identical = True
    for key, template in MEDICAL_QUERIES.items():
        midas.warm_up(key, runs=rows)
        source = midas.gateway.history(key)
        space = midas.gateway.candidates(key, template.sample_params(rng))
        matrix = np.array(
            [[c.features[name] for name in source.feature_names] for c in space]
        )
        replay = ExecutionHistory(source.feature_names, source.metric_names)
        observations = source.observations
        for obs in observations[: rows - ticks]:
            replay.append(obs.tick, obs.features, obs.costs)
        batch = DreamEstimator(r2_required=R2_REQUIRED)
        online = OnlineDreamEstimator(r2_required=R2_REQUIRED)
        for obs in observations[rows - ticks :]:
            replay.append(obs.tick, obs.features, obs.costs)
            started = time.perf_counter()
            seed_result = batch.fit(replay.datasets())
            seed_seconds += time.perf_counter() - started
            RecursiveLeastSquares.well_conditioned = counted
            try:
                started = time.perf_counter()
                fast_result = online.fit(replay)
                incremental_seconds += time.perf_counter() - started
            finally:
                RecursiveLeastSquares.well_conditioned = conditioned
            windows_identical &= seed_result.window_sizes == fast_result.window_sizes
            windows_identical &= seed_result.converged == fast_result.converged
            for metric in source.metric_names:
                expected = seed_result.predict_metric_batch(metric, matrix)
                actual = fast_result.predict_metric_batch(metric, matrix)
                scale = np.maximum(np.abs(expected), 1e-9)
                max_diff = max(
                    max_diff, float(np.max(np.abs(expected - actual) / scale))
                )
    return MidasReport(
        history_rows=rows,
        ticks=ticks,
        seed_seconds=seed_seconds,
        incremental_seconds=incremental_seconds,
        max_relative_difference=max_diff,
        windows_identical=windows_identical,
        carry_steps=counts[1],
        exact_steps=counts[0],
    )


def format_midas_report(report: MidasReport) -> str:
    lines = [
        "Incremental DREAM vs seed batch path (MIDAS histories, Mmax = None)",
        "-------------------------------------------------------------------",
        f"history rows x replayed ticks : {report.history_rows} x {report.ticks}"
        f" (x {len(MEDICAL_QUERIES)} templates)",
        f"seed path (batch refits)      : {report.seed_seconds * 1e3:8.1f} ms",
        f"incremental (carry)           : {report.incremental_seconds * 1e3:8.1f} ms",
        f"speedup                       : {report.speedup:8.1f}x",
        f"carry share of widening steps : {report.carry_share:.4f}"
        f" ({report.carry_steps} carry / {report.exact_steps} exact)",
        f"max relative prediction diff  : {report.max_relative_difference:.2e}",
        f"windows identical             : {report.windows_identical}",
    ]
    return "\n".join(lines)


def check_midas_report(report: MidasReport) -> None:
    assert report.windows_identical
    assert report.max_relative_difference <= 1e-6
    assert report.carry_share >= MIN_CARRY_SHARE, (
        f"carry share only {report.carry_share:.3f}"
    )


def test_dream_incremental_speedup(benchmark):
    from conftest import record_result

    report = benchmark.pedantic(run_dream_incremental, rounds=1, iterations=1)
    record_result("dream_incremental", format_report(report))
    check_report(report)


def test_dream_incremental_midas(benchmark):
    from conftest import record_result

    report = benchmark.pedantic(run_midas_histories, rounds=1, iterations=1)
    record_result("dream_incremental_midas", format_midas_report(report))
    check_midas_report(report)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smaller stream for CI smoke runs"
    )
    arguments = parser.parse_args()
    final = run_dream_incremental(quick=arguments.quick)
    print(format_report(final))
    midas = run_midas_histories(quick=arguments.quick)
    print()
    print(format_midas_report(midas))
    check_report(final)
    check_midas_report(midas)
