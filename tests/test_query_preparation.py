"""One query-preparation path: checked parameters, typed rejections, and
no partial state.

Every public entry point of the gateway — ``candidates``, ``submit``,
``observe``, ``ingest``, ``ingest_async`` and ``session.submit_many`` —
prepares a request the same way: the template's parameter check, then
parse/bind, then QEP enumeration, all before the request takes a tick.
These suites pin what that buys:

* ``QueryTemplate.check_params`` — the key set must equal the
  placeholders; a value is a finite non-bool number, or a quote-free
  string in a quoted slot;
* a rejected request fails with a :class:`FederationError` subclass and
  leaves the state digest unchanged (histories, tick counter, rotation,
  audit chain apart from its ``denial`` records, WAL length);
* a malformed ingest row is refused at admission, so it can never abort
  the flush its well-formed neighbours run in.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ValidationError
from repro.federation import (
    BatchObserveRequest,
    DataPolicy,
    DurabilityConfig,
    EnvelopeError,
    FederationConfig,
    FederationError,
    GovernanceConfig,
    ObserveRequest,
    PolicyViolationError,
    Principal,
    SubmitRequest,
)
from repro.midas import MEDICAL_QUERIES, MidasSystem
from repro.tpch import TPCH_QUERIES

KEY = "medical-demographics"  # {min_age} fills an unquoted slot
LAB = "medical-lab-followup"  # '{testname}' fills quoted slots
TOP_N = "medical-demographics-top-n"  # Example 2.1 plus "limit {n}"
GOOD = {KEY: {"min_age": 30}, LAB: {"testname": "glucose"}}
CLINICIAN = Principal("dr-adams", "clinician", "cloud-a")
RESEARCHER = Principal("lab-ext-7", "researcher", "cloud-b", purpose="research")
POLICIES = (
    DataPolicy("patient", "cloud-a", "restricted", roles=("clinician",)),
    DataPolicy("*", "cloud-b", "deny", roles=("researcher",)),
)


def governed_midas(tmp_path, seed: int = 7) -> MidasSystem:
    """A MIDAS gateway with an audit chain, a WAL and role-scoped rules,
    warmed up on both templates."""
    config = FederationConfig(
        max_window=24,
        governance=GovernanceConfig(policies=POLICIES),
        durability=DurabilityConfig(dir=tmp_path / "wal", checkpoint_every=None),
    )
    midas = MidasSystem(patient_count=250, seed=seed, config=config)
    base = MEDICAL_QUERIES[KEY]
    midas.gateway.register_template(
        replace(base, key=TOP_N, template=base.template + "limit {n}\n")
    )
    midas.warm_up(KEY)
    midas.warm_up(LAB, runs=8)
    return midas


def state_digest(gateway) -> tuple:
    """Everything a rejected request must leave untouched.  Denial
    records are the one trace a rejection may leave: they are dropped
    from the audit view, and each one journals exactly one WAL record."""
    records = gateway.audit_log.records()
    kept = tuple(record.hash for record in records if record.kind != "denial")
    denials = len(records) - len(kept)
    return (
        tuple(repr(gateway.history(key).export_rows()) for key in gateway.templates()),
        gateway._tick,
        dict(gateway._rotation),
        kept,
        gateway._durability._lsn - denials,
    )


# ---------------------------------------------------------------------------
# The template's parameter check


class TestCheckParams:
    def test_quoted_slots_are_told_apart(self):
        assert MEDICAL_QUERIES[KEY]._slots == {"min_age": False}
        assert MEDICAL_QUERIES[LAB]._slots == {"testname": True}
        # Slots inside a longer literal are quoted too.
        assert TPCH_QUERIES["q13"]._slots == {"word1": True, "word2": True}
        assert TPCH_QUERIES["q12"]._slots == {
            "shipmode1": True,
            "shipmode2": True,
            "year": True,
        }

    @pytest.mark.parametrize(
        "key,params,pattern",
        [
            (KEY, {}, r"takes a dict of parameters \['min_age'\], got \{\}"),
            (KEY, {"min_age": 30, "limit": 5}, r"got \{'min_age': 30, 'limit': 5\}"),
            (KEY, {"min_age": "0 OR 1=1"}, "cannot fill an unquoted slot"),
            (KEY, {"min_age": True}, "cannot fill an unquoted slot: True"),
            (KEY, {"min_age": None}, "cannot fill an unquoted slot: None"),
            (KEY, {"min_age": float("nan")}, "cannot fill an unquoted slot: nan"),
            (KEY, {"min_age": -math.inf}, "cannot fill an unquoted slot: -inf"),
            (KEY, {"min_age": 10**400}, "cannot fill an unquoted slot"),
            (KEY, {"min_age": 1e300}, "cannot fill an unquoted slot: 1e"),
            (KEY, {"min_age": 1e-5}, "cannot fill an unquoted slot: 1e"),
            (LAB, {"testname": "x'"}, "cannot fill a quoted slot"),
            (LAB, {"testname": "' or ''='"}, "cannot fill a quoted slot"),
            (LAB, {"testname": False}, "cannot fill a quoted slot: False"),
            (KEY, ["min_age"], r"takes a dict of parameters \['min_age'\], got \["),
        ],
    )
    def test_rejections_name_the_parameter(self, key, params, pattern):
        with pytest.raises(ValidationError, match=pattern):
            MEDICAL_QUERIES[key].check_params(params)
        with pytest.raises(ValidationError, match=pattern):
            MEDICAL_QUERIES[key].render(params)

    @pytest.mark.parametrize(
        "key,params",
        [
            (KEY, {"min_age": 30}),
            (KEY, {"min_age": 2.5}),
            (KEY, {"min_age": -4}),
            (LAB, {"testname": "glucose"}),
            (LAB, {"testname": 7}),
            (LAB, {"testname": "100% {odd} \\ text"}),
        ],
    )
    def test_values_that_fit_their_slot_are_accepted(self, key, params):
        template = MEDICAL_QUERIES[key]
        template.check_params(params)
        value = next(iter(params.values()))
        assert str(value) in template.render(params)


# ---------------------------------------------------------------------------
# Rejected single calls leave no partial state


@pytest.fixture
def midas(tmp_path):
    system = governed_midas(tmp_path)
    yield system
    system.gateway.close()


def _forbidden_candidate(gateway):
    """A QEP that runs patient data away from cloud-a (which the
    clinician rule forbids)."""
    engine = gateway.engine
    space = engine.enumerate(KEY, engine.prepare(KEY, GOOD[KEY]))
    return next(c for c in space if c.execution.site != "cloud-a")


class TestRejectedObserveLeavesNoState:
    def test_probe_scenario_keeps_the_tick_counter(self):
        midas = MidasSystem(patient_count=250, seed=7)
        midas.warm_up(KEY)
        gateway = midas.gateway
        assert gateway._tick == 12
        with pytest.raises(EnvelopeError, match="takes a dict of parameters"):
            gateway.observe(ObserveRequest(KEY, {}))
        assert gateway.next_tick() == 12

    @pytest.mark.parametrize(
        "kind", ["parameter", "parse", "denial", "forbidden-candidate", "candidate-index"]
    )
    def test_every_rejection_kind(self, midas, kind):
        gateway = midas.gateway
        candidate = None
        if kind == "parameter":
            request, error = ObserveRequest(KEY, {"min_age": "0 OR 1=1"}), EnvelopeError
        elif kind == "parse":
            # A well-formed number the parser still refuses where it
            # lands: the refusal is an envelope error all the same.
            request, error = ObserveRequest(TOP_N, {"n": 2.5}), EnvelopeError
        elif kind == "denial":
            request = ObserveRequest(KEY, GOOD[KEY], principal=RESEARCHER)
            error = PolicyViolationError
        elif kind == "forbidden-candidate":
            request = ObserveRequest(KEY, GOOD[KEY], principal=CLINICIAN)
            candidate, error = _forbidden_candidate(gateway), PolicyViolationError
        else:
            request, error = ObserveRequest(KEY, GOOD[KEY], candidate_index=10_000), EnvelopeError
        before = state_digest(gateway)
        denials = gateway.audit_report(limit=0).denials
        with pytest.raises(error) as raised:
            gateway.observe(request, candidate=candidate)
        assert raised.value.template == request.template
        assert state_digest(gateway) == before
        expected = 1 if error is PolicyViolationError else 0
        assert gateway.audit_report(limit=0).denials == denials + expected
        # The gateway still serves: the next accepted observe takes the
        # tick the rejected one never consumed.
        tick = gateway._tick
        assert gateway.observe(ObserveRequest(KEY, GOOD[KEY])).tick == tick


class TestMalformedIngestRow:
    def test_neighbours_flush_normally(self, midas):
        gateway = midas.gateway
        first = gateway.ingest(ObserveRequest(KEY, GOOD[KEY]))
        before = state_digest(gateway)
        with pytest.raises(EnvelopeError, match="takes a dict of parameters"):
            gateway.ingest(ObserveRequest(KEY, {}))
        assert state_digest(gateway) == before
        second = gateway.ingest(ObserveRequest(KEY, {"min_age": 41}))
        batch = gateway.drain()
        assert batch.failed == 0
        assert len(batch) == 2
        assert first.report is not None and second.report is not None
        assert second.tick == first.tick + 1

    def test_batch_envelope_stays_all_or_none(self, midas):
        gateway = midas.gateway
        before = state_digest(gateway)
        rows = (ObserveRequest(KEY, GOOD[KEY]), ObserveRequest(KEY, {"min_age": None}))
        with pytest.raises(EnvelopeError, match="cannot fill"):
            gateway.ingest(BatchObserveRequest(KEY, rows))
        assert gateway.ingest_stats().admitted == 0
        assert len(gateway.drain()) == 0
        assert state_digest(gateway) == before


# ---------------------------------------------------------------------------
# Fuzz of the public surface

NAN_INF_OR_HUGE = st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400)])
ILL_TYPED = st.one_of(
    st.none(),
    st.booleans(),
    st.binary(max_size=4),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
WITH_QUOTE = st.tuples(st.text(max_size=6), st.text(max_size=6)).map("'".join)


@st.composite
def bad_params(draw):
    """A (template, params) pair the gateway must refuse."""
    key = draw(st.sampled_from([KEY, LAB]))
    (name,) = GOOD[key]
    shape = draw(st.sampled_from(["missing", "extra", "value"]))
    if shape == "missing":
        return key, {}
    if shape == "extra":
        extra = draw(st.text(min_size=1, max_size=8).filter(lambda t: t != name))
        return key, {**GOOD[key], extra: draw(st.integers())}
    if key == KEY:
        # Any string is refused in an unquoted slot, as is a number
        # written with an exponent.
        value = draw(
            st.one_of(
                NAN_INF_OR_HUGE,
                ILL_TYPED,
                st.text(max_size=8),
                WITH_QUOTE,
                st.sampled_from([1e300, -1e300, 1e-300, 1e16]),
            )
        )
    else:
        value = draw(st.one_of(NAN_INF_OR_HUGE, ILL_TYPED, WITH_QUOTE))
    return key, {name: value}


SURFACES = ["candidates", "submit", "observe", "ingest", "ingest_batch", "ingest_async", "submit_many"]


def _call(gateway, surface, key, params):
    good = GOOD[key]
    if surface == "candidates":
        return gateway.candidates(key, params)
    if surface == "submit":
        return gateway.submit(SubmitRequest(key, params))
    if surface == "observe":
        return gateway.observe(ObserveRequest(key, params))
    if surface == "ingest":
        return gateway.ingest(ObserveRequest(key, params))
    if surface == "ingest_batch":
        rows = (ObserveRequest(key, good), ObserveRequest(key, params))
        return gateway.ingest(BatchObserveRequest(key, rows))
    if surface == "ingest_async":
        return asyncio.run(_ingest_async(gateway, SubmitRequest(key, params)))
    with gateway.session(key) as session:
        return session.submit_many([SubmitRequest(key, good), SubmitRequest(key, params)])


async def _ingest_async(gateway, request):
    """The canonical create-task-then-drain pattern (an admitted request
    resolves instead of waiting forever for a flush)."""
    task = asyncio.create_task(gateway.ingest_async(request))
    await gateway.drain_async()
    return await task


@pytest.fixture(scope="module")
def fuzz_midas(tmp_path_factory):
    system = governed_midas(tmp_path_factory.mktemp("fuzz"))
    # Fit up front: a session's pin is then a snapshot hit, not a fit
    # (which would journal a record of its own).
    system.gateway.refresh()
    yield system
    system.gateway.close()


class TestPublicSurfaceFuzz:
    @given(case=bad_params(), surface=st.sampled_from(SURFACES))
    @settings(max_examples=120)
    def test_only_typed_errors_and_no_state_change(self, fuzz_midas, case, surface):
        gateway = fuzz_midas.gateway
        key, params = case
        before = state_digest(gateway)
        with pytest.raises(FederationError) as raised:
            _call(gateway, surface, key, params)
        assert isinstance(raised.value, EnvelopeError), raised.value
        assert raised.value.template == key
        assert state_digest(gateway) == before
        assert gateway.drain().reports == ()
