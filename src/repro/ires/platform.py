"""The IReS platform facade: Figure 1 wired end to end.

Each query instance is prepared once, in one place:

1. **Interface** — :meth:`IReSPlatform.prepare` renders the template
   with checked parameters, then parses and validates the query;
2. **QEP enumeration** — :meth:`IReSPlatform.enumerate` builds the
   space of candidate plans.

Then :meth:`IReSPlatform.observe` executes one candidate and logs it,
or :meth:`IReSPlatform.submit_request` runs the rest of the pipeline:

3. **Modelling** fits the active estimation strategy (DREAM or BML) on
   the query's execution history;
4. the **Multi-Objective Optimizer** computes a Pareto plan set over
   predicted cost vectors;
5. **BestInPareto** (Algorithm 2) picks the final QEP under the policy;
6. the **Executor** runs it on the engine simulators and appends the
   measured costs to the history.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import EstimationError, ValidationError
from repro.core.history import ExecutionHistory
from repro.engines.simulate import MultiEngineSimulator, QueryExecution
from repro.ires.deployment import Deployment
from repro.ires.enumerator import QepCandidate, QepEnumerator
from repro.ires.executor import Executor
from repro.ires.interface import Interface, QueryRequest
from repro.ires.modelling import EstimationStrategy, FittedCostModel, Modelling
from repro.ires.optimizer import MultiObjectiveOptimizer, OptimizerConfig
from repro.ires.policy import UserPolicy
from repro.moqp.problem import Candidate
from repro.plans.catalog import Catalog
from repro.plans.statistics import TableStats
from repro.tpch.queries import QueryTemplate


@dataclass
class SubmissionResult:
    """Everything the platform decided and observed for one submission."""

    request: QueryRequest
    cost_model: FittedCostModel
    candidate_count: int
    pareto_set: list[Candidate]
    chosen: Candidate
    #: ``None`` for plan-only submissions (``execute=False``).
    execution: QueryExecution | None
    #: MOQP algorithm that actually computed the Pareto set ("exact",
    #: "nsga2" or "nsga-g" — NSGA-II when "exact" overflowed its limit).
    #: "unknown" only for results constructed outside the pipeline.
    moqp_algorithm: str = "unknown"
    #: True when a configured "exact" search silently degraded to NSGA-II
    #: because the QEP space exceeded ``exact_limit``.
    moqp_exact_fallback: bool = False

    @property
    def chosen_candidate(self) -> QepCandidate:
        return self.chosen.payload

    @property
    def predicted(self) -> tuple[float, ...]:
        return self.chosen.objectives

    def prediction_error(self, metrics: tuple[str, ...]) -> dict[str, float]:
        """Relative |predicted - measured| / |measured| per metric.

        Every requested metric is reported: a zero measured cost yields
        0.0 when the prediction was exact and ``inf`` otherwise (the old
        behaviour silently dropped such metrics, hiding the worst
        possible relative error from MRE-style aggregations).
        """
        if self.execution is None:
            raise EstimationError(
                "submission was planned but not executed; no measured costs"
            )
        measured = Executor.costs_of(self.execution.metrics)
        errors = {}
        for i, metric in enumerate(metrics):
            actual = measured[metric]
            predicted = self.predicted[i]
            if actual != 0:
                errors[metric] = abs(predicted - actual) / abs(actual)
            else:
                errors[metric] = 0.0 if predicted == 0 else float("inf")
        return errors


class IReSPlatform:
    """The paper's platform: MIDAS sits on top of this."""

    def __init__(
        self,
        catalog: Catalog,
        stats: dict[str, TableStats],
        deployment: Deployment,
        enumerator: QepEnumerator,
        simulator: MultiEngineSimulator,
        strategy: EstimationStrategy,
        optimizer: MultiObjectiveOptimizer | None = None,
        serving_factory=None,
    ):
        self.catalog = catalog
        self.stats = stats
        self.deployment = deployment
        self.enumerator = enumerator
        self.interface = Interface(catalog, deployment)
        self.modelling = Modelling(strategy)
        # Deferred import: repro.serving itself imports ires.modelling,
        # so a module-level import here would be circular.
        from repro.serving.service import EstimationService

        #: Multi-tenant front over the same Modelling registry: version-
        #: cached model snapshots, per-template locks, batch refresh.
        #: ``serving_factory(modelling)`` swaps the implementation (the
        #: gateway plugs the config-selected backend in here — e.g. the
        #: cross-process :class:`~repro.serving.sharded
        #: .ShardedEstimationService`); the default is the in-process
        #: thread-scoped service.
        if serving_factory is None:
            self.serving = EstimationService(modelling=self.modelling)
        else:
            self.serving = serving_factory(self.modelling)
        self.optimizer = optimizer or MultiObjectiveOptimizer()
        self.executor = Executor(simulator)
        self._templates: dict[str, QueryTemplate] = {}

    # Registration ---------------------------------------------------------

    def register_template(
        self, template: QueryTemplate, metrics: tuple[str, ...] = ("time", "money")
    ) -> ExecutionHistory:
        """Register a query template and create its execution history."""
        if template.key in self._templates:
            raise ValidationError(f"template {template.key!r} already registered")
        feature_names = self.enumerator.feature_names(template.tables)
        history = ExecutionHistory(feature_names, metrics)
        self._templates[template.key] = template
        # Registers in Modelling too: platform and service share state.
        self.serving.register(template.key, history)
        return history

    def template(self, key: str) -> QueryTemplate:
        try:
            return self._templates[key]
        except KeyError:
            known = ", ".join(sorted(self._templates)) or "<none>"
            raise ValidationError(f"unknown template {key!r}; registered: {known}") from None

    def history(self, key: str) -> ExecutionHistory:
        return self.modelling.history(key)

    # Pipeline ---------------------------------------------------------------

    def prepare(
        self, key: str, params: dict, policy: UserPolicy | None = None
    ) -> QueryRequest:
        """Step 1: render the template with checked ``params`` (see
        :meth:`QueryTemplate.check_params`) and validate the query
        through the Interface."""
        return self.interface.receive(self.template(key).render(params), policy)

    def enumerate(
        self,
        key: str,
        request: QueryRequest,
        stats: dict[str, TableStats] | None = None,
        constraint=None,
    ) -> list[QepCandidate]:
        """Step 2: the QEP space of a prepared request (no model needed).

        ``stats`` overrides the table statistics (IReS-style profiling
        enumerates over sampled inputs); a governance ``constraint``
        filters execution sites while the space is built, so forbidden
        plans are never costed.
        """
        return self.enumerator.enumerate(
            key,
            request.plan,
            self.stats if stats is None else stats,
            self.template(key).tables,
            constraint=constraint,
        )

    def observe(
        self,
        key: str,
        request: QueryRequest,
        candidate: QepCandidate,
        tick: int,
        stats: dict[str, TableStats] | None = None,
    ) -> QueryExecution:
        """Execute a given candidate of a prepared request and log it
        (history building)."""
        # The executor appends to the history, so it runs under the
        # template's lock: a concurrent fit on this template can never
        # observe a torn window, and other templates are unaffected.
        with self.serving.template_lock(key):
            execution = self.executor.run(
                candidate,
                request.plan,
                self.stats if stats is None else stats,
                tick,
                self.history(key),
            )
        self.serving.record_external()
        return execution

    def submit_request(
        self,
        key: str,
        request: QueryRequest,
        tick: int,
        *,
        candidates: list[QepCandidate],
        cost_model: FittedCostModel | None = None,
        features_matrix=None,
        execute: bool = True,
    ) -> SubmissionResult:
        """Steps 3-6 for a prepared request and its enumerated space.

        ``cost_model`` pins the costing model (a session snapshot); the
        default refits only when the history moved since the last fit.
        ``features_matrix`` is the space's precomputed feature matrix;
        ``execute=False`` stops after Algorithm 2 (plan-only costing).
        """
        history = self.history(key)
        if cost_model is None:
            if history.size == 0:
                raise EstimationError(
                    f"no execution history for {key!r}; run observe() a few times first"
                )
            # Through the serving layer: refits only when the history
            # moved since the last fit (re-planning between executions is
            # a snapshot hit), under the template's lock.
            cost_model = self.serving.model(key)
        policy = request.policy
        search = self.optimizer.pareto_search(
            candidates, cost_model, policy.metrics, features_matrix=features_matrix
        )
        pareto = search.pareto_set
        chosen = self.optimizer.choose(pareto, policy)
        execution = None
        if execute:
            # Under the template's lock: the executor's history append
            # must exclude concurrent fits of this template (torn-window
            # guard).
            with self.serving.template_lock(key):
                execution = self.executor.run(
                    chosen.payload, request.plan, self.stats, tick, history
                )
            self.serving.record_external()
        return SubmissionResult(
            request=request,
            cost_model=cost_model,
            candidate_count=search.candidate_count,
            pareto_set=pareto,
            chosen=chosen,
            execution=execution,
            moqp_algorithm=search.algorithm_used,
            moqp_exact_fallback=search.exact_fallback,
        )
