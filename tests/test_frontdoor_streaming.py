"""Streaming results on the batched front door.

Tickets resolve per *segment*, not per flush — these suites pin the
observable consequences:

* mid-flush resolution — earlier segments' tickets are done (reports,
  ``wait()``, callbacks) while a later segment is still executing;
* ``ingest_segment_max`` — size cuts subdivide a flush purely for
  streaming granularity, counted in ``IngestBatch.segments`` and
  ``IngestStats.segments``/``streamed_items``;
* done-callbacks — fire in admission order with resolved tickets,
  immediately when registered after resolution, and a raising callback
  never strands the flush or later callbacks;
* ``FrontDoor.as_completed`` / ``gateway.ingest_iter`` — admission-order
  streaming consumption, bitwise-equal to the sequential replay;
* segment-by-segment flushing of interleaved submits and observes stays
  bitwise-equal to the sequential oracle on both backends (the
  property-level proof lives in ``tests/test_sharded_properties.py``).
"""

import threading

import pytest

from repro.common.rng import RngStream
from repro.federation import (
    FederationConfig,
    FrontDoor,
    ObserveRequest,
    SubmitRequest,
)
from repro.midas import MEDICAL_QUERIES, MidasSystem

from tests.helpers import (
    assert_gateway_outcomes_equal,
    assert_report_pair_equal,
    build_gateway_traffic,
    gateway_config,
    run_sequential,
    run_streamed,
)

KEY = "medical-demographics"


def make_midas(
    seed: int = 5, runs: int = 10, config: FederationConfig | None = None
) -> MidasSystem:
    midas = MidasSystem(patient_count=300, seed=seed, config=config)
    if runs:
        midas.warm_up(KEY, runs=runs)
    return midas


def observe_request(rng: RngStream, key: str = KEY) -> ObserveRequest:
    return ObserveRequest(key, MEDICAL_QUERIES[key].sample_params(rng))


def submit_request(rng: RngStream, key: str = KEY) -> SubmitRequest:
    return SubmitRequest(key, MEDICAL_QUERIES[key].sample_params(rng))


class TestSegmentStreaming:
    def test_first_segment_resolves_while_second_executes(self):
        # observe, observe, submit(KEY): the submit's template already
        # appended within the flush, so the flush cuts into two segments
        # — and segment one's tickets must be done *before* the submit
        # runs, not at flush end.
        midas = make_midas(seed=31)
        gateway = midas.gateway
        rng = RngStream(7, "stream")
        t1 = gateway.ingest(observe_request(rng))
        t2 = gateway.ingest(observe_request(rng))
        t3 = gateway.ingest(submit_request(rng))
        seen = {}
        inner_submit = gateway.submit

        def spying_submit(request):
            seen["earlier_done"] = (t1.done, t2.done)
            seen["own_done"] = t3.done
            return inner_submit(request)

        gateway.submit = spying_submit
        try:
            batch = gateway.drain()
        finally:
            del gateway.submit
        assert batch.segments == 2
        assert seen["earlier_done"] == (True, True)
        assert seen["own_done"] is False
        assert t1.report is batch.reports[0]
        assert t3.done and t3.report is batch.reports[2]
        assert t1.resolved_at is not None and t1.resolved_at >= t1.admitted_at
        stats = gateway.ingest_stats()
        assert stats.segments == 2
        # Only the non-final segment streamed ahead of the flush end.
        assert stats.streamed_items == 2
        gateway.close()

    def test_segment_max_subdivides_for_streaming(self):
        midas = make_midas(
            seed=32, config=FederationConfig(ingest_segment_max=1)
        )
        gateway = midas.gateway
        rng = RngStream(8, "segment-max")
        for _ in range(3):
            gateway.ingest(observe_request(rng))
        batch = gateway.drain()
        assert batch.segments == 3
        assert batch.failed == 0
        stats = gateway.ingest_stats()
        assert stats.segments == 3
        assert stats.streamed_items == 2
        gateway.close()

    def test_single_segment_flush_streams_nothing(self):
        midas = make_midas(seed=33)
        gateway = midas.gateway
        rng = RngStream(9, "one-segment")
        gateway.ingest(observe_request(rng))
        gateway.ingest(observe_request(rng))
        batch = gateway.drain()
        assert batch.segments == 1
        assert gateway.ingest_stats().streamed_items == 0
        gateway.close()


class TestDoneCallbacks:
    def test_callbacks_fire_in_admission_order_with_resolved_tickets(self):
        midas = make_midas(seed=41, config=FederationConfig(ingest_segment_max=2))
        gateway = midas.gateway
        rng = RngStream(11, "callbacks")
        fired = []
        tickets = []
        for _ in range(5):
            ticket = gateway.ingest(observe_request(rng))
            ticket.add_done_callback(
                lambda t: fired.append((t.seq, t.done, t.report is not None))
            )
            tickets.append(ticket)
        gateway.drain()
        assert [seq for seq, _done, _has in fired] == [t.seq for t in tickets]
        assert all(done and has_report for _seq, done, has_report in fired)
        gateway.close()

    def test_callback_registered_after_done_fires_immediately(self):
        midas = make_midas(seed=42)
        gateway = midas.gateway
        rng = RngStream(12, "late-callback")
        ticket = gateway.ingest(observe_request(rng))
        gateway.drain()
        fired = []
        ticket.add_done_callback(lambda t: fired.append(t.report))
        assert fired == [ticket.report]
        gateway.close()

    def test_raising_callback_never_strands_flush_or_later_callbacks(self):
        midas = make_midas(seed=43)
        gateway = midas.gateway
        rng = RngStream(13, "bad-callback")
        first = gateway.ingest(observe_request(rng))
        second = gateway.ingest(observe_request(rng))
        fired = []
        first.add_done_callback(lambda t: (_ for _ in ()).throw(RuntimeError("boom")))
        first.add_done_callback(lambda t: fired.append("after-raise"))
        second.add_done_callback(lambda t: fired.append("second"))
        batch = gateway.drain()
        assert batch.failed == 0
        assert fired == ["after-raise", "second"]
        gateway.close()


class TestAsCompleted:
    def test_yields_in_admission_order_resolved(self):
        midas = make_midas(seed=51, config=FederationConfig(ingest_segment_max=1))
        gateway = midas.gateway
        rng = RngStream(14, "as-completed")
        tickets = [gateway.ingest(observe_request(rng)) for _ in range(4)]
        drainer = threading.Thread(target=gateway.drain)
        drainer.start()
        try:
            order = [
                (ticket.seq, ticket.done)
                for ticket in FrontDoor.as_completed(tickets, timeout=30.0)
            ]
        finally:
            drainer.join(timeout=30.0)
        assert order == [(t.seq, True) for t in tickets]
        gateway.close()

    def test_total_timeout_raises(self):
        midas = make_midas(seed=52)
        gateway = midas.gateway
        rng = RngStream(15, "timeout")
        ticket = gateway.ingest(observe_request(rng))
        with pytest.raises(TimeoutError, match="unresolved"):
            list(FrontDoor.as_completed([ticket], timeout=0.05))
        gateway.close()  # final flush resolves the ticket
        assert ticket.done


class TestIngestIter:
    def test_matches_sequential_replay(self):
        streamed = make_midas(seed=61)
        sequential = make_midas(seed=61)
        rng_a = RngStream(16, "iter")
        rng_b = RngStream(16, "iter")
        script = ["observe", "observe", "submit", "observe", "submit"]
        requests_a = [
            observe_request(rng_a) if op == "observe" else submit_request(rng_a)
            for op in script
        ]
        requests_b = [
            observe_request(rng_b) if op == "observe" else submit_request(rng_b)
            for op in script
        ]
        try:
            iter_reports = list(streamed.gateway.ingest_iter(requests_a))
            seq_reports = [
                sequential.gateway.submit(r)
                if isinstance(r, SubmitRequest)
                else sequential.gateway.observe(r)
                for r in requests_b
            ]
            assert len(iter_reports) == len(seq_reports)
            for position, (left, right) in enumerate(zip(seq_reports, iter_reports)):
                assert_report_pair_equal(left, right, position)
        finally:
            streamed.gateway.close()
            sequential.gateway.close()

    def test_yields_watermark_flush_results_before_admitting_the_rest(self):
        midas = make_midas(
            seed=62, config=FederationConfig(ingest_batch_max=2)
        )
        gateway = midas.gateway
        rng = RngStream(17, "lazy-iter")
        admitted = {"n": 0}

        def requests():
            for _ in range(5):
                admitted["n"] += 1
                yield observe_request(rng)

        stream = gateway.ingest_iter(requests())
        first = next(stream)
        # The size watermark flushed after two admissions; the first
        # report surfaced then, not after the full five were admitted.
        assert admitted["n"] == 2
        rest = list(stream)
        assert admitted["n"] == 5
        assert first.tick < rest[0].tick
        assert len(rest) == 4
        gateway.close()


class TestPipelinedFlush:
    """Fine segments over interleaved submits and observes: every
    segment boundary prefits exactly what the sequential oracle fits."""

    @pytest.mark.parametrize("backend", ["threaded", "sharded"])
    def test_pipelined_flush_matches_sequential_oracle(self, backend):
        script = [
            (0, "observe"), (0, "observe"), (1, "observe"), (0, "submit"),
            (1, "observe"), (0, "observe"), (1, "observe"), (0, "submit"),
            (1, "observe"), (0, "observe"), (1, "observe"), (1, "observe"),
        ]
        traffic = build_gateway_traffic(script, seed=63)
        sequential = run_sequential(traffic, backend, seed=63)
        streamed = run_streamed(
            traffic,
            backend,
            seed=63,
            config=gateway_config(backend, ingest_segment_max=2),
        )
        assert_gateway_outcomes_equal(sequential, streamed)
