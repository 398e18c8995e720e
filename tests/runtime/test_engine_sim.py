"""Integration tests: the simulated runtime engine end-to-end."""

import numpy as np
import pytest

from repro.errors import RuntimeEngineError, SchedulerError
from repro.runtime.engine import RuntimeEngine
from repro.runtime.tasks import TaskState
from repro.experiments.workloads import submit_tiled_dgemm, submit_vecadd


class TestEngineConstruction:
    def test_workers_expanded(self, gpgpu_platform):
        engine = RuntimeEngine(gpgpu_platform)
        ids = [w.instance_id for w in engine.workers]
        assert len(ids) == 10  # 8 cpu + 2 gpu
        assert "cpu#0" in ids and "cpu#7" in ids and "gpu0" in ids

    def test_memory_nodes(self, gpgpu_platform):
        engine = RuntimeEngine(gpgpu_platform)
        # node 0 anchored at host; each gpu has its own node
        assert engine.node_anchor[0] == "host"
        nodes = {w.memory_node for w in engine.workers}
        assert len(nodes) == 3
        cpu_nodes = {w.memory_node for w in engine.workers
                     if w.architecture == "x86_64"}
        assert cpu_nodes == {0}

    def test_no_workers_rejected(self):
        from repro.model.builder import PlatformBuilder

        lonely = PlatformBuilder("l").master("m").build(validate=False)
        with pytest.raises(RuntimeEngineError, match="Worker"):
            RuntimeEngine(lonely)

    def test_unknown_kernel_rejected_at_submit(self, small_platform):
        engine = RuntimeEngine(small_platform)
        h = engine.register(shape=(4,))
        from repro.errors import KernelError

        with pytest.raises(KernelError):
            engine.submit("warp", [(h, "rw")])

    def test_unsupported_kernel_rejected_at_submit(self, cell_platform):
        # dscal has no spe variant; the cell platform has only spe workers
        engine = RuntimeEngine(cell_platform)
        h = engine.register(shape=(4,))
        with pytest.raises(SchedulerError, match="no implementation"):
            engine.submit("dscal", [(h, "rw")])

    def test_partitioned_handle_rejected(self, small_platform):
        engine = RuntimeEngine(small_platform)
        h = engine.register(shape=(8, 8))
        h.partition_tiles(2, 2)
        with pytest.raises(RuntimeEngineError, match="partitioned"):
            engine.submit("dgemm", [(h, "rw")])

    def test_double_run_rejected(self, small_platform):
        engine = RuntimeEngine(small_platform)
        a = engine.register(shape=(16,))
        b = engine.register(shape=(16,))
        engine.submit("dvecadd", [(a, "rw"), (b, "r")], dims=(16,))
        engine.run()
        with pytest.raises(RuntimeEngineError, match="already ran"):
            engine.run()


class TestAvailabilityDiagnostics:
    """A malformed AVAILABLE used to be swallowed by a blanket ``except``
    and the lane treated as *available* — work scheduled onto a worker
    whose descriptor is corrupt.  Now it resolves to unavailable and the
    engine surfaces a lint-shaped diagnostic."""

    @staticmethod
    def _platform_with_available(value):
        from repro.model.properties import Property, PropertyValue
        from repro.pdl.catalog import load_platform

        plat = load_platform("xeon_x5550_2gpu")
        plat.pu("gpu0").descriptor.add(
            Property("AVAILABLE", PropertyValue(value), fixed=False,
                     source="test")
        )
        return plat

    def test_corrupt_available_excludes_lane(self):
        engine = RuntimeEngine(self._platform_with_available("maybe"))
        assert "gpu0" not in [w.instance_id for w in engine.workers]

    def test_corrupt_available_emits_diagnostic(self):
        from repro.analysis.diagnostics import Severity

        engine = RuntimeEngine(self._platform_with_available("maybe"))
        assert len(engine.diagnostics) == 1
        diag = engine.diagnostics[0]
        assert diag.rule == "RT001"
        assert diag.severity is Severity.WARNING
        assert diag.subject == "gpu0"
        assert "maybe" in diag.message
        assert "true/false" in diag.hint

    def test_corrupt_available_run_completes_degraded(self):
        engine = RuntimeEngine(self._platform_with_available("maybe"))
        submit_tiled_dgemm(engine, 1024, 256)
        result = engine.run()
        assert len(result.trace.tasks) == engine.task_count
        assert not any(t.worker_id == "gpu0" for t in result.trace.tasks)

    def test_wellformed_false_excludes_without_diagnostic(self):
        engine = RuntimeEngine(self._platform_with_available("false"))
        assert "gpu0" not in [w.instance_id for w in engine.workers]
        assert engine.diagnostics == []

    def test_wellformed_true_keeps_lane(self):
        engine = RuntimeEngine(self._platform_with_available("true"))
        assert "gpu0" in [w.instance_id for w in engine.workers]
        assert engine.diagnostics == []


class TestSimulationBasics:
    def test_all_tasks_complete(self, small_platform):
        engine = RuntimeEngine(small_platform, scheduler="eager")
        submit_vecadd(engine, 1 << 20, 8)
        result = engine.run()
        assert result.task_count == 8
        assert len(result.trace.tasks) == 8
        assert all(t.state == TaskState.DONE for t in engine._tasks)
        assert result.makespan > 0

    def test_parallelism_beats_serial_sum(self, cpu_platform):
        engine = RuntimeEngine(cpu_platform, scheduler="eager")
        submit_tiled_dgemm(engine, 2048, 512)
        result = engine.run()
        serial_sum = sum(t.duration for t in result.trace.tasks)
        assert result.makespan < serial_sum / 4  # 8 workers available

    def test_dependencies_respected_in_time(self, small_platform):
        """No task starts before all its producers finished."""
        engine = RuntimeEngine(small_platform, scheduler="dmda")
        submit_tiled_dgemm(engine, 1024, 256)
        engine.run()
        by_id = {t.id: t for t in engine._tasks}
        for t in engine._tasks:
            for dep_id in t.depends_on:
                dep = by_id[dep_id]
                assert dep.end_time <= t.start_time + 1e-12

    def test_worker_never_overlaps(self, gpgpu_platform):
        engine = RuntimeEngine(gpgpu_platform, scheduler="eager")
        submit_tiled_dgemm(engine, 2048, 512)
        result = engine.run()
        rows = result.trace.gantt_rows()
        for worker, spans in rows.items():
            for (s1, e1, _), (s2, e2, _) in zip(spans, spans[1:]):
                assert e1 <= s2 + 1e-12, f"overlap on {worker}"

    def test_transfers_only_on_gpu_platform(self, cpu_platform, gpgpu_platform):
        e1 = RuntimeEngine(cpu_platform)
        submit_tiled_dgemm(e1, 2048, 512)
        r1 = e1.run()
        assert r1.transfer_count == 0  # all data in host RAM

        e2 = RuntimeEngine(gpgpu_platform)
        submit_tiled_dgemm(e2, 2048, 512)
        r2 = e2.run()
        assert r2.transfer_count > 0
        assert r2.bytes_transferred > 0

    def test_gather_to_home_extends_makespan(self, gpgpu_platform):
        def run(gather):
            engine = RuntimeEngine(gpgpu_platform, scheduler="dmda")
            submit_tiled_dgemm(engine, 2048, 512)
            return engine.run(gather_to_home=gather).makespan

        assert run(True) >= run(False)

    def test_deterministic(self, gpgpu_platform):
        def once():
            from repro.pdl import load_platform

            engine = RuntimeEngine(load_platform("xeon_x5550_2gpu"),
                                   scheduler="dmda")
            submit_tiled_dgemm(engine, 2048, 512)
            return engine.run().makespan

        assert once() == once()

    def test_priority_field_accepted(self, small_platform):
        engine = RuntimeEngine(small_platform)
        a = engine.register(shape=(128,))
        b = engine.register(shape=(128,))
        t = engine.submit("dvecadd", [(a, "rw"), (b, "r")], dims=(128,),
                          priority=5, tag="prio")
        assert t.priority == 5 and t.tag == "prio"
        engine.run()


class TestFunctionalSimulation:
    def test_execute_kernels_validates_dgemm(self, small_platform, rng):
        n, bs = 256, 64
        engine = RuntimeEngine(small_platform, scheduler="dmda",
                               execute_kernels=True)
        handles = submit_tiled_dgemm(engine, n, bs, materialize=True)
        a = handles.A.array.copy()
        b = handles.B.array.copy()
        engine.run()
        np.testing.assert_allclose(handles.C.array, a @ b, rtol=1e-10)

    def test_execute_kernels_vecadd(self, small_platform):
        engine = RuntimeEngine(small_platform, execute_kernels=True)
        A, B = submit_vecadd(engine, 1000, 4, materialize=True)
        expected = A.array.copy() + B.array
        engine.run()
        np.testing.assert_allclose(A.array, expected)


class TestFigure5Shape:
    """The headline result, asserted as an invariant of the runtime."""

    def test_speedup_ordering(self, cpu_platform, gpgpu_platform):
        from repro.perf.models import PerfModel

        single = PerfModel().dgemm_time(cpu_platform.pu("cpu"), 4096, 4096, 4096)

        e_cpu = RuntimeEngine(cpu_platform, scheduler="dmda")
        submit_tiled_dgemm(e_cpu, 4096, 512)
        t_cpu = e_cpu.run().makespan

        e_gpu = RuntimeEngine(gpgpu_platform, scheduler="dmda")
        submit_tiled_dgemm(e_gpu, 4096, 512)
        t_gpu = e_gpu.run().makespan

        assert t_gpu < t_cpu < single
        assert single / t_cpu > 5  # near-linear 8-core scaling
        assert single / t_gpu > 10  # gpus add at least ~2x more

    def test_gpu_takes_most_tasks_under_dmda(self, gpgpu_platform):
        engine = RuntimeEngine(gpgpu_platform, scheduler="dmda")
        submit_tiled_dgemm(engine, 4096, 512)
        result = engine.run()
        per_arch = result.trace.tasks_per_architecture()
        assert per_arch["gpu"] > per_arch["x86_64"]


class TestSubmitValidation:
    """``submit`` caches only the positive "some worker runs this kernel"
    answer, so every rejection is re-derived on every call."""

    @staticmethod
    def _registry(variants=()):
        from repro.kernels.registry import KernelImpl, KernelRegistry

        reg = KernelRegistry()
        kernel = reg.define("scale", flops=lambda d: 1.0, bytes_touched=lambda d: 8.0)
        for arch in variants:
            kernel.add_variant(KernelImpl("scale", arch, f"scale_{arch}", fn=lambda x: x))
        return reg, kernel

    def test_unknown_kernel_raises_every_time(self, small_platform):
        from repro.errors import KernelError

        engine = RuntimeEngine(small_platform)
        h = engine.register(shape=(4,))
        for _ in range(3):
            with pytest.raises(KernelError, match="unknown kernel"):
                engine.submit("warp", [(h, "rw")])
        assert engine.task_count == 0

    def test_unsupported_kernel_is_never_cached(self, small_platform):
        from repro.kernels.registry import KernelImpl

        reg, kernel = self._registry(variants=["spe"])  # no such worker
        engine = RuntimeEngine(small_platform, registry=reg)
        h = engine.register(shape=(4,))
        for _ in range(3):
            with pytest.raises(SchedulerError, match="no implementation"):
                engine.submit("scale", [(h, "rw")])
        assert engine.task_count == 0
        kernel.add_variant(KernelImpl("scale", "x86_64", "scale_cpu", fn=lambda x: x))
        engine.submit("scale", [(h, "rw")], dims=(4,))
        engine.submit("scale", [(h, "rw")], dims=(4,))
        result = engine.run()
        assert result.task_count == 2
        assert {t.architecture for t in result.trace.tasks} == {"x86_64"}

    def test_cache_is_keyed_by_kernel_identity(self, small_platform):
        """A registry that binds the name to another Kernel object is
        checked afresh, not answered from the cached kernel."""
        reg, _ = self._registry(variants=["x86_64"])
        engine = RuntimeEngine(small_platform, registry=reg)
        h = engine.register(shape=(4,))
        engine.submit("scale", [(h, "rw")], dims=(4,))
        engine.registry, _ = self._registry(variants=["spe"])
        with pytest.raises(SchedulerError, match="no implementation"):
            engine.submit("scale", [(h, "rw")], dims=(4,))
        assert engine.task_count == 1

    def test_partitioned_handle_rejected_after_kernel_cached(self, small_platform):
        engine = RuntimeEngine(small_platform)
        leaf = engine.register(shape=(8, 8))
        engine.submit("dgemm", [(leaf, "rw")], dims=(8, 8, 8))
        whole = engine.register(shape=(8, 8))
        whole.partition_tiles(2, 2)
        for _ in range(2):
            with pytest.raises(RuntimeEngineError, match="partitioned"):
                engine.submit("dgemm", [(whole, "rw")])
        assert engine.task_count == 1

    def test_modes_accept_members_and_any_spelling(self, small_platform):
        from repro.errors import CoherenceError
        from repro.runtime.coherence import AccessMode

        engine = RuntimeEngine(small_platform)
        a = engine.register(shape=(16,))
        b = engine.register(shape=(16,))
        for modes in [
            (AccessMode.READWRITE, AccessMode.READ),
            ("rw", "r"),
            (" ReadWrite", "READ "),
        ]:
            task = engine.submit("dvecadd", [(a, modes[0]), (b, modes[1])], dims=(16,))
            assert [acc.mode for acc in task.accesses] == [
                AccessMode.READWRITE, AccessMode.READ,
            ]
            handle, mode = task.accesses[0]
            assert (handle, mode) == (a, AccessMode.READWRITE)
        with pytest.raises(CoherenceError, match="unknown access mode"):
            engine.submit("dvecadd", [(a, "rwx"), (b, "r")], dims=(16,))
