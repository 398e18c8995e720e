"""Bounded TraceLog ring buffer: eviction, dropped counters, payloads."""

import pytest

from repro.obs import digest
from repro.obs.digest import fingerprint_payload
from repro.runtime.trace import FaultTrace, TaskTrace, TraceLog, TransferTrace


def _task(i):
    return TaskTrace(
        task_id=i,
        tag=f"t{i}",
        kernel="dgemm",
        worker_id="cpu#0",
        architecture="x86_64",
        start=float(i),
        end=float(i) + 0.5,
        transfer_wait=0.0,
    )


def _transfer(i):
    return TransferTrace(
        handle_name=f"h{i}", nbytes=1024, src_node=0, dst_node=1,
        start=float(i), end=float(i) + 0.1,
    )


def _fault(i):
    return FaultTrace(
        kind="shed", time=float(i), task_tag=f"t{i}", worker_id="", detail="",
    )


class TestRingEviction:
    def test_oldest_records_evicted_at_bound(self):
        log = TraceLog(max_events=3)
        for i in range(5):
            log.record_task(_task(i))
        assert [t.task_id for t in log.tasks] == [2, 3, 4]
        assert log.dropped_tasks == 2
        assert log.dropped_events == 2

    def test_bounds_are_per_kind(self):
        log = TraceLog(max_events=2)
        for i in range(4):
            log.record_task(_task(i))
            log.record_transfer(_transfer(i))
            log.record_fault(_fault(i))
        assert len(log.tasks) == 2
        assert len(log.transfers) == 2
        assert len(log.faults) == 2
        assert log.dropped_tasks == 2
        assert log.dropped_transfers == 2
        assert log.dropped_faults == 2
        assert log.dropped_events == 6

    def test_unbounded_log_never_drops(self):
        log = TraceLog()
        for i in range(10_000):
            log.record_task(_task(i))
        assert len(log.tasks) == 10_000
        assert log.dropped_events == 0

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            TraceLog(max_events=0)


class TestPayloadStability:
    def test_fingerprint_unchanged_when_bound_not_hit(self):
        # the contract that lets bounded serving traces participate in
        # the determinism gate: under the bound, bounded == unbounded
        bounded = TraceLog(max_events=100)
        unbounded = TraceLog()
        for i in range(50):
            for log in (bounded, unbounded):
                log.record_task(_task(i))
                log.record_transfer(_transfer(i))
        assert bounded.to_payload() == unbounded.to_payload()
        assert bounded.fingerprint() == unbounded.fingerprint()
        assert "dropped" not in bounded.to_payload()

    def test_dropped_block_appears_after_eviction(self):
        log = TraceLog(max_events=2)
        for i in range(3):
            log.record_task(_task(i))
        payload = log.to_payload()
        assert payload["dropped"] == {"tasks": 1, "transfers": 0, "faults": 0}

    def test_eviction_changes_fingerprint(self):
        full = TraceLog(max_events=2)
        partial = TraceLog(max_events=2)
        for i in range(3):
            full.record_task(_task(i))
        for i in range(1, 3):  # same surviving window, no evictions
            partial.record_task(_task(i))
        assert full.fingerprint() != partial.fingerprint()

    @pytest.mark.parametrize("chunk", [1, 3, 4096])
    @pytest.mark.parametrize("counts", [(0, 0, 0), (1, 0, 0), (7, 5, 0), (9, 9, 9)])
    def test_streamed_fingerprint_hashes_the_one_shot_payload(
        self, monkeypatch, chunk, counts
    ):
        # fingerprint() hashes the records a chunk at a time; the bytes
        # must be those of the whole payload, evictions included
        monkeypatch.setattr(digest, "_RECORD_CHUNK", chunk)
        log = TraceLog(max_events=6)
        tasks, transfers, faults = counts
        for i in range(tasks):
            log.record_task(_task(i))
        for i in range(transfers):
            log.record_transfer(_transfer(i))
        for i in range(faults):
            log.record_fault(_fault(i))
        assert log.fingerprint() == fingerprint_payload(log.to_payload())

    def test_aggregates_use_surviving_window(self):
        log = TraceLog(max_events=2)
        for i in range(5):
            log.record_task(_task(i))
        # makespan reads the retained records only: latest surviving end
        assert log.makespan == pytest.approx(4.5)
        assert min(t.start for t in log.tasks) == pytest.approx(3.0)


class TestRoundTrip:
    def test_from_payload_round_trip_with_dropped_block(self):
        log = TraceLog(max_events=2)
        for i in range(4):
            log.record_task(_task(i))
            log.record_fault(_fault(i))
        log.record_transfer(_transfer(0))
        payload = log.to_payload()
        back = TraceLog.from_payload(payload)
        assert back.to_payload() == payload
        assert back.fingerprint() == log.fingerprint()
        assert back.dropped_tasks == 2
        assert back.dropped_faults == 2
        assert back.dropped_transfers == 0

    def test_round_trip_without_dropped_block(self):
        log = TraceLog()
        log.record_task(_task(0))
        back = TraceLog.from_payload(log.to_payload())
        assert back.dropped_events == 0
        assert back.fingerprint() == log.fingerprint()


class TestServingIntegration:
    def test_serve_engine_honors_trace_bound(self):
        from repro.pdl.catalog import load_platform
        from repro.serve import ServeConfig, ServeEngine, TenantSpec, synthetic_arrivals

        platform = load_platform("xeon_x5550_dual")
        arrivals = synthetic_arrivals(
            [TenantSpec(name="t0", rate_per_s=400.0, size=64)], duration_s=0.5
        )
        config = ServeConfig(trace_max_events=16)
        report = ServeEngine(platform, config=config).run(arrivals)
        assert len(report.trace.tasks) == 16
        assert report.trace.dropped_tasks == report.totals["completed"] - 16
        # the report surfaces the loss instead of hiding it
        assert report.to_payload()["trace_dropped_events"] > 0
