"""Unit tests for trace logs and run results."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.runtime.trace import RunResult, TaskTrace, TraceLog, TransferTrace


def make_log():
    log = TraceLog()
    log.record_task(TaskTrace(1, "t1", "dgemm", "cpu#0", "x86_64", 0.0, 2.0, 0.0))
    log.record_task(TaskTrace(2, "t2", "dgemm", "cpu#1", "x86_64", 0.0, 1.0, 0.0))
    log.record_task(TaskTrace(3, "t3", "dgemm", "gpu0", "gpu", 1.0, 1.5, 0.25))
    log.record_task(TaskTrace(4, "t4", "dgemm", "cpu#0", "x86_64", 2.0, 4.0, 0.0))
    log.record_transfer(TransferTrace("A", 1024, 0, 1, 0.5, 0.75))
    return log


class TestTraceLog:
    def test_makespan(self):
        assert make_log().makespan == 4.0

    def test_makespan_includes_transfers(self):
        log = make_log()
        log.record_transfer(TransferTrace("C", 10, 1, 0, 4.0, 5.5))
        assert log.makespan == 5.5

    def test_empty_log(self):
        assert TraceLog().makespan == 0.0
        assert TraceLog().utilization() == {}

    def test_busy_time(self):
        log = make_log()
        assert log.busy_time("cpu#0") == pytest.approx(4.0)
        assert log.busy_time("gpu0") == pytest.approx(0.5)
        assert log.busy_time("ghost") == 0.0

    def test_utilization(self):
        util = make_log().utilization()
        assert util["cpu#0"] == pytest.approx(1.0)
        assert util["gpu0"] == pytest.approx(0.125)

    def test_task_counters(self):
        log = make_log()
        assert log.tasks_per_worker() == {"cpu#0": 2, "cpu#1": 1, "gpu0": 1}
        assert log.tasks_per_architecture() == {"x86_64": 3, "gpu": 1}

    def test_bytes_transferred(self):
        assert make_log().bytes_transferred == 1024

    def test_gantt_rows_sorted(self):
        rows = make_log().gantt_rows()
        assert [tag for _, _, tag in rows["cpu#0"]] == ["t1", "t4"]
        starts = [s for s, _, _ in rows["cpu#0"]]
        assert starts == sorted(starts)

    def test_csv_export(self):
        csv = make_log().to_csv()
        lines = csv.strip().split("\n")
        assert lines[0].startswith("task_id,")
        assert len(lines) == 5
        assert "gpu0" in csv


class TestRunResult:
    def make(self):
        return RunResult(
            makespan=4.0,
            mode="sim",
            scheduler="dmda",
            task_count=4,
            trace=make_log(),
            transfer_count=1,
            bytes_transferred=1024,
        )

    def test_gflops(self):
        result = self.make()
        assert result.gflops(8e9) == pytest.approx(2.0)
        zero = RunResult(0.0, "sim", "dmda", 0, TraceLog())
        assert zero.gflops(1e9) == 0.0

    def test_summary_content(self):
        text = self.make().summary()
        assert "makespan: 4.0" in text
        assert "scheduler=dmda" in text
        assert "gpu=1" in text
        assert "utilization" in text


_records = st.lists(
    st.tuples(
        st.sampled_from(["cpu#0", "cpu#1", "gpu0", "spe3"]),
        st.floats(0.0, 1e4, allow_nan=False),
        st.floats(0.0, 1e3, allow_nan=False),
    ),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(_records, st.one_of(st.none(), st.integers(1, 40)))
def test_utilization_equals_busy_time_formula_exactly(records, max_events):
    """The single-pass ``utilization`` is bit-identical (``==``) to the
    per-worker reference ``busy_time(w) / makespan``, ring-bounded logs
    included."""
    log = TraceLog(max_events=max_events)
    for i, (worker, start, duration) in enumerate(records):
        log.record_task(
            TaskTrace(i, f"t{i}", "k", worker, "arch", start, start + duration, 0.0)
        )
    span = log.makespan
    expected = (
        {w: log.busy_time(w) / span for w in sorted({t.worker_id for t in log.tasks})}
        if span > 0 else {}
    )
    util = log.utilization()
    assert util == expected
    assert list(util) == list(expected)
