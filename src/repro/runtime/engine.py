"""The heterogeneous runtime engine (StarPU-like, paper §IV-D).

Builds an executable runtime *from a PDL platform description*: Worker
entities become execution lanes, MemoryRegions become memory nodes,
Interconnects become the (contended) transfer fabric, and descriptor
properties feed the performance model.  This is the paper's thesis made
concrete — retargeting a program is swapping the descriptor.

Two execution modes share one API:

``sim``
    Discrete-event simulation with calibrated cost models.  Optionally
    executes kernel payloads on real arrays (functional validation while
    timing analytically).
``real``
    Actually runs kernels on host threads and reports wall-clock times
    (numpy releases the GIL in BLAS calls, so CPU workers genuinely
    parallelize).

Typical use::

    engine = RuntimeEngine(load_platform("xeon_x5550_2gpu"), scheduler="dmda")
    C, A, B = (engine.register(shape=(n, n)) for _ in range(3))
    ... partition, submit dgemm tile tasks ...
    result = engine.run()
    print(result.summary())
"""

from __future__ import annotations

import dataclasses
import threading
import time as _time
from typing import Optional, Sequence

import numpy as np

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # repro.analysis.__init__ imports back into the runtime
    from repro.analysis.diagnostics import Diagnostic

from repro.errors import (
    PropertyError,
    RuntimeEngineError,
    SchedulerError,
    TaskFailureError,
    WatchdogTimeoutError,
    WorkerFailureError,
)
from repro.kernels.registry import Kernel, KernelRegistry, default_kernel_registry
from repro.model.entities import ProcessingUnit
from repro.obs import spans as _obs
from repro.obs.bridge import record_trace_log
from repro.model.platform import Platform
from repro.perf.calibration import TASK_SCHEDULING_OVERHEAD_S
from repro.perf.models import PerfModel
from repro.perf.transfer import TransferModel
from repro.runtime.capacity import MemoryCapacityManager
from repro.runtime.coherence import CoherenceDirectory, TransferNeed
from repro.runtime.data import DataHandle
from repro.runtime.faults import FaultPolicy, ProgressClock
from repro.runtime.schedulers import Scheduler, make_scheduler
from repro.runtime.simclock import EventQueue
from repro.runtime.tasks import (
    DependencyTracker,
    RuntimeTask,
    TaskState,
    TaskTable,
)
from repro.runtime.trace import (
    FaultTrace,
    RunResult,
    TaskTrace,
    TraceLog,
    TransferTrace,
)
from repro.runtime.workers import WorkerContext, expand_workers

__all__ = ["RuntimeEngine"]


def _availability(pu: ProcessingUnit) -> "tuple[bool, Optional[Diagnostic]]":
    """Dynamic availability: AVAILABLE=false excludes a Worker.

    A *malformed* AVAILABLE value (text that is not a boolean) used to be
    swallowed by a blanket ``except`` and treated as available — silently
    scheduling work onto a lane whose descriptor is corrupt.  Now only
    the specific parse failure is caught, it resolves to **unavailable**
    (fail safe: a lane of unknown state gets no work), and the caller
    receives a diagnostic in the PDL-lint shape to surface on
    ``engine.diagnostics``.
    """
    prop = pu.descriptor.find("AVAILABLE")
    if prop is None:
        return True, None
    try:
        return prop.value.as_bool(), None
    except PropertyError as exc:
        # deferred: repro.analysis's package __init__ imports the rule
        # packs, which import this module (the diagnostics *module*
        # itself is stdlib-only by design)
        from repro.analysis.diagnostics import Diagnostic, Severity

        return False, Diagnostic(
            rule="RT001",
            severity=Severity.WARNING,
            message=(
                f"malformed AVAILABLE property on {pu.id!r}: {exc};"
                " treating the lane as unavailable"
            ),
            subject=pu.id,
            hint="set AVAILABLE to true/false (or remove the property)",
        )


class _EngineCostModel:
    """CostModel protocol implementation backed by the engine's state."""

    def __init__(self, engine: "RuntimeEngine"):
        self._engine = engine

    def supports(self, task: RuntimeTask, worker: WorkerContext) -> bool:
        if worker.instance_id in self._engine._offline:
            return False  # mid-run dynamic event took this worker down
        return self._engine.registry.get(task.kernel).supports(worker.architecture)

    def exec_estimate(self, task: RuntimeTask, worker: WorkerContext) -> float:
        return self._engine.sched_estimate(task, worker)

    def transfer_estimate(self, task: RuntimeTask, worker: WorkerContext) -> float:
        engine = self._engine
        total = 0.0
        for access in task.accesses:
            need = engine.coherence.required_transfer(
                access.handle, worker.memory_node, access.mode
            )
            if need is not None:
                total += engine.transfer_model.ideal_time(
                    engine.node_anchor[need.src_node],
                    worker.entity_id,
                    need.nbytes,
                )
        return total


class _VectorCostModel:
    """Array cost model: memoized signature-keyed tables + batch rows.

    Implements both the scalar :class:`~repro.runtime.schedulers.CostModel`
    protocol (for paths that stay scalar: steal, peek, unit use) and the
    :class:`~repro.runtime.schedulers.BatchCostModel` row interface the
    vectorized schedulers score against.  Parity with
    :class:`_EngineCostModel` is by construction, not by re-derivation:

    * execution rows memoize the **exact** ``engine.sched_estimate``
      calls, keyed by cost signature (kernel + effective dims) — a tiled
      DGEMM collapses 45k model evaluations into one row;
    * transfer rows sum ``ideal_time_cached`` values (the memoized
      scalar computation) per ``(entity, memory node)`` worker group, in
      task-access order — the identical float-summation order as the
      scalar loop, hence bit-identical totals.
    """

    def __init__(self, engine: "RuntimeEngine"):
        self._engine = engine
        workers = engine.workers
        self._n = len(workers)
        self._windex = {w.instance_id: i for i, w in enumerate(workers)}
        self._arch = [w.architecture for w in workers]
        # workers sharing (entity, memory node) have identical transfer
        # costs; resolve each group once and broadcast into the row
        groups: dict[tuple[str, int], list[int]] = {}
        for i, w in enumerate(workers):
            groups.setdefault((w.entity_id, w.memory_node), []).append(i)
        self._groups = [
            (eid, node, np.array(ix, dtype=np.intp))
            for (eid, node), ix in groups.items()
        ]
        # worker index → group index, for scattering per-group totals
        # back into a per-worker row with one fancy index
        self._group_of_worker = np.empty(self._n, dtype=np.intp)
        for g, (_eid, _node, ix) in enumerate(self._groups):
            self._group_of_worker[ix] = g
        self._ngroups = len(self._groups)
        # many groups can share one memory node (e.g. mesh tiles over a
        # shared memory); resolve read sources once per distinct node
        self._distinct_nodes = sorted({node for _eid, node, _ix in self._groups})
        node_slot = {node: s for s, node in enumerate(self._distinct_nodes)}
        self._node_slot_of_group = [
            node_slot[node] for _eid, node, _ix in self._groups
        ]
        #: cost signature id → exec-seconds row (np.inf = no implementation)
        self._exec_rows: dict[int, np.ndarray] = {}
        #: cost signature id → *truth-model* exec row (run durations);
        #: separate from the scheduler rows because ``sched_perf_model``
        #: may deliberately diverge from simulated truth
        self._truth_rows: dict[int, np.ndarray] = {}
        #: handle id → (validity epoch, per-group ideal-transfer row);
        #: valid until the handle's coherence state changes
        self._handle_rows: dict[int, tuple[int, np.ndarray]] = {}
        #: kernel kind id → bool support row over workers
        self._kind_rows: list[np.ndarray] = []
        self._kind_matrix: Optional[np.ndarray] = None

    # -- interning bridges ------------------------------------------------
    def kind_of(self, task: RuntimeTask) -> int:
        kid = task.kind_id
        self._ensure_kind(kid)
        return kid

    def _ensure_kind(self, kid: int) -> None:
        table = self._engine.task_table
        registry = self._engine.registry
        while len(self._kind_rows) <= kid:
            kernel_def = registry.get(table.kernel_names[len(self._kind_rows)])
            self._kind_rows.append(
                np.array([kernel_def.supports(a) for a in self._arch], dtype=bool)
            )
            self._kind_matrix = None

    def _matrix(self) -> np.ndarray:
        if self._kind_matrix is None:
            self._kind_matrix = np.vstack(self._kind_rows)
        return self._kind_matrix

    # -- batch rows -------------------------------------------------------
    def exec_row(self, task: RuntimeTask) -> np.ndarray:
        sid = task.cost_sig
        row = self._exec_rows.get(sid)
        if row is None:
            engine = self._engine
            rep = engine.task_table.sig_representative[sid]
            kernel_def = engine.registry.get(rep.kernel)
            row = np.empty(self._n, dtype=np.float64)
            for i, worker in enumerate(engine.workers):
                if kernel_def.supports(worker.architecture):
                    row[i] = engine.sched_estimate(rep, worker)
                else:
                    row[i] = np.inf
            self._exec_rows[sid] = row
        return row

    def _handle_group_row(self, handle) -> Optional[np.ndarray]:
        """Per-group ideal read-fetch seconds for one handle, memoized
        against the handle's coherence epoch.  ``None`` means the handle
        is resident everywhere it matters (an all-zero row)."""
        engine = self._engine
        coherence = engine.coherence
        epoch = coherence.epoch_of(handle)
        cached = self._handle_rows.get(handle.id)
        if cached is not None and cached[0] == epoch:
            return cached[1]
        srcs = coherence.needed_src_many(handle, self._distinct_nodes)
        row: Optional[np.ndarray] = None
        if any(s >= 0 for s in srcs):
            ideal = engine.transfer_model.ideal_time_cached
            anchor = engine.node_anchor
            nbytes = handle.nbytes
            slots = self._node_slot_of_group
            row = np.zeros(self._ngroups, dtype=np.float64)
            for g, (entity_id, _node, _ix) in enumerate(self._groups):
                src = srcs[slots[g]]
                if src >= 0:
                    row[g] = ideal(anchor[src], entity_id, nbytes)
        self._handle_rows[handle.id] = (epoch, row)
        return row

    def transfer_row(self, task: RuntimeTask) -> Optional[np.ndarray]:
        """Per-worker read-fetch seconds, or ``None`` when all zero.

        Elementwise adds in task-access order reproduce the scalar
        loop's float-summation order per worker exactly; skipping
        all-zero rows is float-identical because every contribution is
        non-negative (``x + 0.0 == x``)."""
        total = None
        for access in task.accesses:
            if not access.mode.reads:
                continue
            group_row = self._handle_group_row(access.handle)
            if group_row is None:
                continue
            total = group_row.copy() if total is None else total + group_row
        if total is None:
            return None
        return total[self._group_of_worker]

    def cost_row(self, task: RuntimeTask, data_aware: bool) -> np.ndarray:
        # callers treat the row as read-only, so the memoized exec row
        # may be returned as-is when there is nothing to add
        row = self.exec_row(task)
        if data_aware:
            extra = self.transfer_row(task)
            if extra is not None:
                row = row + extra
        offline = self._engine._offline
        if offline:
            mask = np.array(
                [w.instance_id in offline for w in self._engine.workers],
                dtype=bool,
            )
            row = np.where(mask, np.inf, row)
        return row

    def eager_mask(self, kinds: np.ndarray, worker_index: int) -> np.ndarray:
        m = self._matrix()
        if m.shape[0] == 1:
            # single kernel kind: a scalar bool broadcasts in the
            # caller's `live & mask`, skipping the fancy index
            return m[0, worker_index]
        return m[kinds, worker_index]

    def worker_online(self, worker_index: int) -> bool:
        offline = self._engine._offline
        if not offline:
            return True
        return self._engine.workers[worker_index].instance_id not in offline

    def invalidate_exec(self) -> None:
        """Drop memoized execution rows (descriptor properties changed)."""
        self._exec_rows.clear()
        self._truth_rows.clear()

    def truth_duration(self, task: RuntimeTask, worker: WorkerContext) -> float:
        """Memoized ``engine.exec_estimate`` — the simulated-truth run
        duration, which (like the scheduler estimate) depends only on the
        task's cost signature and the worker."""
        sid = task.cost_sig
        row = self._truth_rows.get(sid)
        if row is None:
            engine = self._engine
            rep = engine.task_table.sig_representative[sid]
            kernel_def = engine.registry.get(rep.kernel)
            row = np.empty(self._n, dtype=np.float64)
            for i, w in enumerate(engine.workers):
                if kernel_def.supports(w.architecture):
                    row[i] = engine.exec_estimate(rep, w)
                else:
                    row[i] = np.inf
            self._truth_rows[sid] = row
        return float(row[self._windex[worker.instance_id]])

    # -- scalar CostModel protocol ---------------------------------------
    def supports(self, task: RuntimeTask, worker: WorkerContext) -> bool:
        if worker.instance_id in self._engine._offline:
            return False
        return self._engine.registry.get(task.kernel).supports(worker.architecture)

    def exec_estimate(self, task: RuntimeTask, worker: WorkerContext) -> float:
        return float(self.exec_row(task)[self._windex[worker.instance_id]])

    def transfer_estimate(self, task: RuntimeTask, worker: WorkerContext) -> float:
        engine = self._engine
        node = worker.memory_node
        total = 0.0
        for access in task.accesses:
            if not access.mode.reads:
                continue
            src = engine.coherence.needed_src(access.handle, node)
            if src >= 0:
                total += engine.transfer_model.ideal_time_cached(
                    engine.node_anchor[src],
                    worker.entity_id,
                    access.handle.nbytes,
                )
        return total


class _SimLoop:
    """The discrete-event core every simulated run goes through.

    One loop object drives one run over an engine's worker lanes: worker
    ticks, idle wake-ups, task start and finish, trace records, lane
    offline/online moves and fault recovery.  Work enters through
    :meth:`admit` (a ready task at sim time ``now``); lanes leave and
    rejoin through :meth:`lane_offline` / :meth:`lane_online`.

    Two steps are what a front end overrides:

    :meth:`_stage`
        claim a task for its lane at dispatch and stage its operands;
        returns when they are ready.  Batch runs stage through coherence,
        capacity and prefetch here.
    :meth:`_complete`
        what a finished task sets off.  Batch runs release dependents.

    The base class is :meth:`RuntimeEngine.run`'s loop;
    :class:`~repro.serve.engine.ServeEngine` subclasses it for open-loop
    request streams.  Tasks need ``id``/``tag``/``kernel``, a cost
    signature (``cost_sig``) for memoized truth durations, and the fault
    fields ``incarnation``/``fault_armed``.
    """

    def __init__(
        self,
        engine: "RuntimeEngine",
        trace: TraceLog,
        policy: Optional[FaultPolicy] = None,
    ):
        self.engine = engine
        self.scheduler = engine.scheduler
        self.clock = EventQueue()
        self.trace = trace
        self.policy = policy if policy is not None else FaultPolicy()
        #: the engine's offline lane ids (the cost models' ``supports``
        #: reads the same set, so offline lanes get no placements)
        self.offline = engine._offline
        #: lane instance id → the task executing there
        self.running: dict[str, RuntimeTask] = {}
        self.stats = {
            "task_failures": 0,
            "retries": 0,
            "requeues": 0,
            "worker_failures": 0,
        }
        #: lanes whose last tick found no work, in the order they idled
        self._idle: dict[str, WorkerContext] = {}
        self._overhead = engine.task_overhead_s
        vec = engine._vec_cost
        self._duration = (
            vec.truth_duration if vec is not None else engine.exec_estimate
        )
        engine.transfer_model.reset()
        engine.coherence.reset()
        for worker in engine.workers:
            worker.reset()
        if engine.model_capacity:
            node_capacity: dict[int, Optional[float]] = {0: None}
            for node, anchor_id in engine.node_anchor.items():
                if node == 0:
                    continue
                anchor = engine.platform.pu(anchor_id)
                sizes = [
                    r.size_bytes
                    for r in anchor.memory_regions
                    if r.size_bytes is not None
                ]
                node_capacity[node] = sum(sizes) if sizes else None
            engine.capacity = MemoryCapacityManager(engine.coherence, node_capacity)
        self._capacity = engine.capacity

        # -- batch state (the default seams) -----------------------------
        self.pending = sum(1 for t in engine._tasks if t.state != TaskState.DONE)
        #: handles some task wrote, for the gather back to host memory
        self.written: dict[int, DataHandle] = {}
        self._worker_by_id = {w.instance_id: w for w in engine.workers}
        # vectorized mode routes per-task resolution through the memoized
        # lanes (identical results); scalar mode keeps the reference
        # implementations so the two paths stay independently checkable
        self._required_transfer = (
            engine.coherence.required_transfer_cached
            if vec is not None
            else engine.coherence.required_transfer
        )
        #: task id → (memory node prefetch targeted, initiation time);
        #: commits are deferred until the task actually starts there
        self._prefetched: dict[int, tuple[int, float]] = {}

    # -- entry points ------------------------------------------------------
    def admit(self, task, now: float) -> None:
        """Put a ready task in at sim time ``now`` and wake idle lanes."""
        self.scheduler.task_ready(task, now)
        self.wake_idle()

    def lane_online(self, worker: WorkerContext) -> None:
        """Bring an offline lane back (a lane that died stays dead)."""
        iid = worker.instance_id
        if iid in self.offline and not worker.retired:
            self.offline.discard(iid)
            self._idle.pop(iid, None)
            self.clock.schedule_call_in(0.0, self._tick, worker)

    def lane_offline(
        self, worker: WorkerContext, detail: str, *, fault: Optional[str] = None
    ) -> int:
        """Take a lane offline; returns how many queued tasks it requeued.

        The lane finishes its in-flight task but gets no new work; its
        queued tasks go back to the scheduler, each recorded as a
        ``requeue`` fault carrying ``detail``.  ``fault`` (the cause of
        an abrupt death) also retires the lane for good and loses its
        in-flight task, which is requeued first.  Waking the idle lanes
        is left to the caller.
        """
        iid = worker.instance_id
        if iid in self.offline:
            return 0
        # offline first, so no requeued task is placed back on the lane
        self.offline.add(iid)
        self._idle.pop(iid, None)
        now = self.clock.now
        if fault is not None:
            worker.retired = True
            self.stats["worker_failures"] += 1
            self._record_fault("worker-fault", "", iid, fault)
            self._abort_inflight(worker, now, fault)
        drained = self.scheduler.drain(worker)
        for task in drained:
            self.stats["requeues"] += 1
            self._record_fault("requeue", task.tag, iid, detail)
            self.scheduler.task_ready(task, now)
        return len(drained)

    def wake_idle(self) -> None:
        """Re-tick every lane whose last tick found no work."""
        idle = self._idle
        if idle:
            for worker in idle.values():
                self.clock.schedule_call_in(0.0, self._tick, worker)
            idle.clear()

    # -- the core ----------------------------------------------------------
    def _tick(self, worker: WorkerContext) -> None:
        now = self.clock.now
        if worker.instance_id in self.offline:
            return  # offline lanes take no new work
        if now < worker.busy_until - 1e-15:
            return  # still executing; its completion event will re-tick
        task = self.scheduler.next_task(worker, now)
        if task is None:
            self._idle[worker.instance_id] = worker
            return
        self._start(task, worker, now)

    def _start(self, task, worker: WorkerContext, now: float) -> None:
        if task.fault_armed:
            # an injected TaskFault armed before the task started:
            # this attempt fails immediately; the retry policy decides
            task.fault_armed = False
            self._fail_attempt(task, now, worker.instance_id, "injected task fault")
            self.clock.schedule_call_in(0.0, self._tick, worker)
            return
        data_ready = self._stage(task, worker, now)
        start = data_ready + self._overhead
        end = start + self._duration(task, worker)
        worker.busy_until = end
        iid = worker.instance_id
        task.worker_id = iid
        task.start_time = start
        task.end_time = end
        self.running[iid] = task
        # single-tuple argument: scheduled through the clock's
        # closure-free lane (no per-completion lambda allocation)
        self.clock.schedule_call(
            end, self._finish, (task, worker, data_ready - now, task.incarnation)
        )

    def _finish(self, item: tuple) -> None:
        task, worker, transfer_wait, incarnation = item
        if task.incarnation != incarnation:
            return  # attempt aborted by a fault event; stale completion
        iid = worker.instance_id
        running = self.running
        if running.get(iid) is task:
            del running[iid]
        record = TaskTrace(
            task_id=task.id,
            tag=task.tag,
            kernel=task.kernel,
            worker_id=iid,
            architecture=worker.architecture,
            start=task.start_time,
            end=self.clock.now,
            transfer_wait=transfer_wait,
        )
        self.trace.record_task(record)
        self._complete(task, worker, record)
        self._tick(worker)

    # -- seams (batch implementations) -------------------------------------
    def _stage(self, task: RuntimeTask, worker: WorkerContext, now: float) -> float:
        """Claim ``task`` for ``worker`` and stage its operands; returns
        when they are ready (never before ``now``)."""
        task.state = TaskState.RUNNING
        node = worker.memory_node
        capacity = self._capacity
        # pin the task's working set first so staging one operand can
        # never evict another operand of the same task
        if capacity is not None:
            for access in task.accesses:
                capacity.pin(access.handle, node)
        # a prefetch noted for this worker's node is committed here,
        # back-dated to its initiation time, so the transfers overlap the
        # previous task's compute — and a task that was drained or stolen
        # after the peek never charges transfers or link occupancy it did
        # not use
        staged = self._prefetched.pop(task.id, None)
        stage_at = now
        if staged is not None and staged[0] == node:
            stage_at = staged[1]
        data_ready = max(now, self._stage_operands(task, worker, stage_at))
        start = data_ready + self._overhead

        # coherence transition at start (write ownership is claimed
        # when the kernel begins mutating the buffer)
        note_access = self.engine.coherence.note_access
        written = self.written
        for access in task.accesses:
            note_access(access.handle, node, access.mode)
            if access.mode.writes:
                written[access.handle.id] = access.handle
                if capacity is not None:
                    capacity.note_invalidated(access.handle, node)
                    capacity.note_resident(access.handle, node, start)

        # data prefetch: note the *next* queued task's operands for
        # staging while this one computes (StarPU's dmda-prefetch
        # behaviour); the commit is deferred to its own start
        if self.engine.prefetch:
            upcoming = self.scheduler.peek(worker)
            if upcoming is not None and upcoming.id not in self._prefetched:
                self._prefetched[upcoming.id] = (node, now)
        return data_ready

    def _complete(self, task: RuntimeTask, worker: WorkerContext, record: TaskTrace) -> None:
        """Mark ``task`` done and release the dependents it unblocks."""
        engine = self.engine
        now = record.end
        # the payload runs at completion, not dispatch, so an aborted
        # attempt never half-applies a non-idempotent kernel
        if engine.execute_kernels:
            engine._execute_payload(task, worker)
        task.state = TaskState.DONE
        self.pending -= 1
        capacity = self._capacity
        if capacity is not None:
            for access in task.accesses:
                capacity.unpin(access.handle, worker.memory_node)
                capacity.touch(access.handle, worker.memory_node, now)
        newly_ready = [dep for dep in task.dependents if dep.notify_producer_done()]
        if newly_ready:
            for dep in newly_ready:
                dep.state = TaskState.READY
                self.scheduler.task_ready(dep, now)
            self.wake_idle()

    # -- batch staging -----------------------------------------------------
    def _charge_writeback(self, need: TransferNeed, when: float) -> float:
        engine = self.engine
        est = engine.transfer_model.schedule(
            engine.node_anchor[need.src_node],
            engine.node_anchor[need.dst_node],
            need.nbytes,
            when,
        )
        self.trace.record_transfer(
            TransferTrace(
                handle_name=need.handle.name,
                nbytes=need.nbytes,
                src_node=need.src_node,
                dst_node=need.dst_node,
                start=est.start,
                end=est.finish,
            )
        )
        return est.finish

    def _stage_operands(
        self, task: RuntimeTask, worker: WorkerContext, now: float
    ) -> float:
        """Schedule missing-operand transfers; returns their finish time."""
        engine = self.engine
        capacity = self._capacity
        node = worker.memory_node
        data_ready = now
        for access in task.accesses:
            need = self._required_transfer(access.handle, node, access.mode)
            if need is None:
                # already resident (or write-only): room still needed
                # for write-only claims under capacity modeling
                if capacity is not None:
                    if engine.coherence.is_valid_on(access.handle, node):
                        capacity.touch(access.handle, node, now)
                    elif access.mode.writes:
                        ready = capacity.make_room(
                            node, access.handle.nbytes, now,
                            writeback=self._charge_writeback,
                        )
                        capacity.note_resident(access.handle, node, ready)
                        data_ready = max(data_ready, ready)
                continue
            start_at = now
            if capacity is not None:
                start_at = capacity.make_room(
                    node, need.nbytes, now, writeback=self._charge_writeback
                )
            est = engine.transfer_model.schedule(
                engine.node_anchor[need.src_node],
                worker.entity_id,
                need.nbytes,
                start_at,
            )
            engine.coherence.note_transfer(need)
            if capacity is not None:
                capacity.note_resident(access.handle, node, est.finish)
            self.trace.record_transfer(
                TransferTrace(
                    handle_name=need.handle.name,
                    nbytes=need.nbytes,
                    src_node=need.src_node,
                    dst_node=node,
                    start=est.start,
                    end=est.finish,
                )
            )
            data_ready = max(data_ready, est.finish)
        return data_ready

    # -- faults and dynamic events -----------------------------------------
    def _record_fault(self, kind: str, task_tag: str, worker_id: str, detail: str) -> None:
        self.trace.record_fault(
            FaultTrace(kind, self.clock.now, task_tag, worker_id, detail)
        )

    def _release_pins(self, task: RuntimeTask, worker: WorkerContext) -> None:
        if self._capacity is not None:
            for access in task.accesses:
                self._capacity.unpin(access.handle, worker.memory_node)

    def _fail_attempt(
        self, task: RuntimeTask, now: float, worker_id: str, detail: str
    ) -> None:
        """One execution attempt failed; retry with backoff or give up."""
        task.incarnation += 1
        task.attempt += 1
        task.last_error = detail
        self.stats["task_failures"] += 1
        self._record_fault("task-fault", task.tag, worker_id or "", detail)
        if task.state is TaskState.RUNNING:
            worker = self._worker_by_id[task.worker_id]
            if self.running.get(worker.instance_id) is task:
                del self.running[worker.instance_id]
            self._release_pins(task, worker)
            worker.busy_until = now
            self.clock.schedule_call_in(0.0, self._tick, worker)
        task.worker_id = None
        task.start_time = task.end_time = None
        if task.attempt > self.policy.max_retries:
            task.state = TaskState.FAILED
            raise TaskFailureError(
                f"task {task.tag!r} failed permanently after"
                f" {task.attempt} attempt(s); last error: {detail}",
                task_tag=task.tag,
                attempts=task.attempt,
            )
        task.state = TaskState.READY
        self.stats["retries"] += 1
        delay = self.policy.backoff(task.attempt)
        self._record_fault(
            "retry", task.tag, worker_id or "",
            f"attempt {task.attempt + 1} after {delay:.4g}s backoff",
        )
        self.clock.schedule_call_in(delay, self._resubmit, task)

    def _resubmit(self, task: RuntimeTask) -> None:
        self.admit(task, self.clock.now)

    def _abort_inflight(self, worker: WorkerContext, now: float, reason: str) -> None:
        """Requeue the task executing on a faulted lane (work lost)."""
        task = self.running.pop(worker.instance_id, None)
        if task is not None:
            task.incarnation += 1  # the scheduled finish is void
            self._release_pins(task, worker)
            task.worker_id = None
            task.start_time = task.end_time = None
            task.state = TaskState.READY
            self.stats["requeues"] += 1
            self._record_fault("requeue", task.tag, worker.instance_id, reason)
            self.scheduler.task_ready(task, now)
        worker.busy_until = now

    def _on_dynamic_event(self, event) -> None:
        # lazy: repro.dynamic's package __init__ imports this module
        from repro.dynamic.events import TaskFault, WorkerFault

        engine = self.engine
        now = self.clock.now
        event.apply(engine.platform)
        if isinstance(event, TaskFault):
            target = next(
                (t for t in engine._tasks if t.tag == event.task_tag), None
            )
            if target is None:
                raise RuntimeEngineError(
                    f"TaskFault: no submitted task with tag"
                    f" {event.task_tag!r}"
                )
            if target.state in (TaskState.DONE, TaskState.FAILED):
                return  # completed before the fault landed
            if target.state is TaskState.RUNNING:
                self._fail_attempt(target, now, target.worker_id, event.describe())
            else:
                target.fault_armed = True
            self.wake_idle()
            return
        # descriptor properties feed the cost models; drop stale rates
        engine.perf.invalidate()
        if engine.sched_perf is not engine.perf:
            engine.sched_perf.invalidate()
        if engine._vec_cost is not None:
            # memoized execution rows are derived from the (now
            # stale) model caches; rebuild on next score
            engine._vec_cost.invalidate_exec()
        if event.affects_interconnect:
            engine.transfer_model.invalidate_routes()
        for worker in engine.workers:
            if worker.entity_id != event.pu_id:
                continue
            available, diag = _availability(worker.pu)
            if diag is not None:
                engine.diagnostics.append(diag)
            if available:
                self.lane_online(worker)
            else:
                # abrupt death: in-flight work is lost and requeued; the
                # lane never comes back
                self.lane_offline(
                    worker,
                    "queued work drained off offline lane",
                    fault=(
                        event.describe() if isinstance(event, WorkerFault) else None
                    ),
                )
        self.wake_idle()


class RuntimeEngine:
    """A StarPU-like runtime instantiated from a platform description."""

    def __init__(
        self,
        platform: Platform,
        *,
        scheduler: str | Scheduler = "dmda",
        registry: Optional[KernelRegistry] = None,
        perf_model: Optional[PerfModel] = None,
        sched_perf_model: Optional[PerfModel] = None,
        execute_kernels: bool = False,
        task_overhead_s: float = TASK_SCHEDULING_OVERHEAD_S,
        prefetch: bool = False,
        model_capacity: bool = False,
        model_contention: bool = True,
        model_interference: bool = False,
        vectorized: bool = True,
    ):
        self.platform = platform
        #: sim runs score ready tasks through numpy-backed cost rows
        #: (bit-identical placements, 10-100x event throughput); real
        #: mode always re-attaches the scalar cost model
        self.vectorized = vectorized
        #: runtime-emitted findings (e.g. malformed descriptor properties),
        #: in the PDL-lint Diagnostic shape
        self.diagnostics: "list[Diagnostic]" = []
        self.registry = registry if registry is not None else default_kernel_registry()
        self.perf = perf_model if perf_model is not None else PerfModel()
        #: model driving *scheduler placement decisions*; defaults to the
        #: simulation-truth model.  Passing a distinct model (e.g. a
        #: tuned :class:`~repro.tune.model.HistoryPerfModel`) makes the
        #: scheduler plan with measured estimates while simulated task
        #: durations stay governed by ``perf_model`` — the setup needed
        #: to evaluate how estimate quality affects placement.
        self.sched_perf = sched_perf_model if sched_perf_model is not None else self.perf
        self.execute_kernels = execute_kernels
        self.task_overhead_s = task_overhead_s
        #: stage the next queued task's operands while the current one runs
        self.prefetch = prefetch
        #: enforce MemoryRegion SIZE limits with LRU eviction + write-back
        self.model_capacity = model_capacity
        self.capacity: Optional["MemoryCapacityManager"] = None

        # --- memory nodes -------------------------------------------------
        # node 0 is host RAM anchored at the first Master; every non-Master
        # PU owning a MemoryRegion gets its own node.
        if not platform.masters:
            raise RuntimeEngineError("platform has no Master processing unit")
        self.node_anchor: dict[int, str] = {0: platform.masters[0].id}
        self._node_of_entity: dict[str, int] = {}
        next_node = 1
        for pu in platform.walk():
            if pu.kind != "Master" and pu.memory_regions:
                self._node_of_entity[pu.id] = next_node
                self.node_anchor[next_node] = pu.id
                next_node += 1
        # PUs without own memory inherit the nearest ancestor's node (or 0)
        for pu in platform.walk():
            if pu.id in self._node_of_entity:
                continue
            node = 0
            for ancestor in pu.ancestors():
                if ancestor.id in self._node_of_entity:
                    node = self._node_of_entity[ancestor.id]
                    break
            self._node_of_entity[pu.id] = node

        # --- workers -----------------------------------------------------------
        # dynamic availability (repro.dynamic events) is honored here:
        # Workers whose descriptor says AVAILABLE=false are not lanes,
        # and a malformed AVAILABLE excludes the lane with a diagnostic
        leaf_workers = []
        for pu in platform.walk():
            if pu.kind != "Worker":
                continue
            ok, diag = _availability(pu)
            if diag is not None:
                self.diagnostics.append(diag)
            if ok:
                leaf_workers.append(pu)
        if not leaf_workers:
            raise RuntimeEngineError(
                f"platform {platform.name!r} declares no (available) Worker PUs"
            )
        self.workers: list[WorkerContext] = expand_workers(
            leaf_workers, self._node_of_entity
        )

        # --- plumbing -------------------------------------------------------------
        self.transfer_model = TransferModel(
            platform,
            model_contention=model_contention,
            model_interference=model_interference,
        )
        self.coherence = CoherenceDirectory()
        #: kernel and cost-signature interner for submitted tasks
        self.task_table = TaskTable()
        self.scheduler: Scheduler = (
            scheduler if isinstance(scheduler, Scheduler) else make_scheduler(scheduler)
        )
        self._vec_cost: Optional[_VectorCostModel] = None
        if self.vectorized:
            self._vec_cost = _VectorCostModel(self)
            self.scheduler.attach(self.workers, self._vec_cost)
            self.scheduler.enable_batch(self._vec_cost)
            # contended transfer scheduling may read link latency/
            # bandwidth thousands of times; memoize the parsed values
            # (dropped on invalidate_routes, so dynamic interconnect
            # events still take effect)
            self.transfer_model.param_cache_enabled = True
        else:
            self.scheduler.attach(self.workers, _EngineCostModel(self))

        self._tasks: list[RuntimeTask] = []
        self._tracker = DependencyTracker()
        #: kernel name → the Kernel object some worker was found to run
        self._supported_kernels: dict[str, Kernel] = {}
        self._handles: list[DataHandle] = []
        self._ran = False
        #: worker instance ids taken down by mid-run dynamic events
        self._offline: set[str] = set()
        #: real mode only: per-lane kill switches (live during run_real)
        self._kill_events: Optional[dict[str, threading.Event]] = None
        self._kill_reasons: dict[str, str] = {}
        #: real mode only: per-lane graceful-retirement requests
        self._retire_events: Optional[dict[str, threading.Event]] = None
        self._retire_reasons: dict[str, str] = {}

    # ------------------------------------------------------------------
    # data API
    # ------------------------------------------------------------------
    def register(
        self,
        array: Optional[np.ndarray] = None,
        *,
        shape: Optional[Sequence[int]] = None,
        dtype=np.float64,
        name: str = "",
    ) -> DataHandle:
        """Register a datum with the runtime (array, or shape for sim-only)."""
        handle = DataHandle(shape=shape, dtype=dtype, array=array, name=name)
        self._handles.append(handle)
        return handle

    # ------------------------------------------------------------------
    # task API
    # ------------------------------------------------------------------
    def submit(
        self,
        kernel: str,
        accesses: Sequence[tuple],
        *,
        dims: Optional[tuple] = None,
        args: Optional[dict] = None,
        priority: int = 0,
        tag: str = "",
    ) -> RuntimeTask:
        """Submit one task; dependencies are inferred from access modes."""
        if self._ran:
            raise RuntimeEngineError(
                "engine already ran; create a new engine for another run"
            )
        kernel_def = self.registry.get(kernel)  # raises on unknown kernel
        # only a positive answer is cached: variants are add-only, so a
        # kernel that ran somewhere still does; identity guards against a
        # registry that rebinds the name to a new Kernel
        if self._supported_kernels.get(kernel) is not kernel_def:
            if not any(kernel_def.supports(w.architecture) for w in self.workers):
                raise SchedulerError(
                    f"kernel {kernel!r} has no implementation for any worker"
                    f" architecture on platform {self.platform.name!r}"
                    f" (architectures: {sorted({w.architecture for w in self.workers})})"
                )
            self._supported_kernels[kernel] = kernel_def
        task = RuntimeTask(
            kernel, accesses, dims=dims, args=args, priority=priority, tag=tag,
            # run-local ids (1..n in submit order): two engines fed the
            # same DAG mint the same ids → identical default tags →
            # comparable trace fingerprints across engine instances
            task_id=len(self._tasks) + 1,
        )
        for handle, _mode in task.accesses:
            if handle.children:
                raise RuntimeEngineError(
                    f"task {task.tag}: handle {handle.name!r} is"
                    " partitioned; submit tasks on its leaf children"
                )
        self._tracker.register(task)
        self._tasks.append(task)
        self.task_table.add(task)
        return task

    @property
    def task_count(self) -> int:
        return len(self._tasks)

    # ------------------------------------------------------------------
    # cost estimation (also used by schedulers through _EngineCostModel)
    # ------------------------------------------------------------------
    def _estimate_with(
        self, model: PerfModel, task: RuntimeTask, worker: WorkerContext
    ) -> float:
        kernel_def = self.registry.get(task.kernel)
        dims = task.dims
        if dims is None:
            # derive a size proxy from the first access
            dims = task.accesses[0].handle.shape
        flops = kernel_def.flops(dims)
        nbytes = kernel_def.bytes_touched(dims)
        return model.estimate(
            worker.pu,
            kernel=task.kernel,
            flops=flops,
            bytes_touched=nbytes,
            dims=dims if len(dims) == 3 else None,
        )

    def exec_estimate(self, task: RuntimeTask, worker: WorkerContext) -> float:
        """Simulated-truth duration of ``task`` on ``worker``."""
        return self._estimate_with(self.perf, task, worker)

    def sched_estimate(self, task: RuntimeTask, worker: WorkerContext) -> float:
        """The estimate scheduler placement decisions see (may differ
        from simulated truth when ``sched_perf_model`` was given)."""
        return self._estimate_with(self.sched_perf, task, worker)

    # ------------------------------------------------------------------
    # simulated execution
    # ------------------------------------------------------------------
    def run(
        self,
        *,
        gather_to_home: bool = True,
        dynamic_events: Optional[Sequence[tuple]] = None,
        fault_policy: Optional[FaultPolicy] = None,
    ) -> RunResult:
        """Run all submitted tasks in discrete-event simulation (see
        :meth:`_run_sim` for the semantics of every parameter).

        When a tracer is active (:mod:`repro.obs`) the run executes under
        a ``runtime.run`` span and the finished :class:`TraceLog` is
        replayed as sim-clock spans (per-task, per-transfer, per-fault),
        so wall-time and simulated-time views align in one trace.  With
        tracing disabled this wrapper adds one global read.
        """
        tracer = _obs.get_tracer()
        if tracer is None:
            return self._run_sim(
                gather_to_home=gather_to_home,
                dynamic_events=dynamic_events,
                fault_policy=fault_policy,
            )
        with tracer.span(
            "runtime.run",
            platform=self.platform.name,
            scheduler=self.scheduler.name,
            mode="sim",
            tasks=len(self._tasks),
            workers=len(self.workers),
        ) as span_:
            result = self._run_sim(
                gather_to_home=gather_to_home,
                dynamic_events=dynamic_events,
                fault_policy=fault_policy,
            )
            span_.set(
                makespan_s=result.makespan,
                transfers=result.transfer_count,
                task_failures=result.task_failures,
            )
            record_trace_log(tracer, result.trace, parent=span_, mode="sim")
            return result

    def _run_sim(
        self,
        *,
        gather_to_home: bool = True,
        dynamic_events: Optional[Sequence[tuple]] = None,
        fault_policy: Optional[FaultPolicy] = None,
    ) -> RunResult:
        """Run all submitted tasks in discrete-event simulation.

        ``gather_to_home`` appends the transfers that bring written data
        back to host memory (as the paper's experiment must, to hand the
        result matrix back to the caller) and counts them in the makespan.

        ``dynamic_events`` is an optional list of ``(time_s, event)``
        pairs (see :mod:`repro.dynamic.events`) applied *while the
        simulation runs* — the "highly dynamic run-time schedulers" of
        the paper's conclusion.  A worker taken offline finishes its
        current task, its queued tasks are drained back to the scheduler,
        and no new work reaches it until a matching online event.  A
        :class:`~repro.dynamic.WorkerFault` additionally aborts the
        lane's in-flight task (requeued to survivors); a
        :class:`~repro.dynamic.TaskFault` fails one attempt of a task,
        retried under ``fault_policy``.

        ``fault_policy`` configures retry/backoff for injected task
        faults (defaults to :class:`~repro.runtime.faults.FaultPolicy`).
        """
        if self._ran:
            raise RuntimeEngineError("engine already ran")
        self._ran = True
        wall_start = _time.perf_counter()
        loop = _SimLoop(self, TraceLog(), fault_policy)
        clock = loop.clock

        # seed: initially-ready tasks and all workers
        for task in self._tasks:
            if task.ready:
                task.state = TaskState.READY
                self.scheduler.task_ready(task, 0.0)
        for worker in self.workers:
            clock.schedule_call(0.0, loop._tick, worker)
        for when, event in dynamic_events or ():
            clock.schedule_call(float(when), loop._on_dynamic_event, event)

        clock.run()

        if loop.pending:
            raise RuntimeEngineError(
                self._stall_diagnosis("simulation", loop.pending, self.workers)
            )

        trace = loop.trace
        makespan = trace.makespan
        if gather_to_home:
            makespan = self._gather(loop.written.values(), makespan, trace)

        wall = _time.perf_counter() - wall_start
        stats = loop.stats
        return RunResult(
            makespan=makespan,
            mode="sim",
            scheduler=self.scheduler.name,
            task_count=len(self._tasks),
            trace=trace,
            transfer_count=self.coherence.transfer_count,
            bytes_transferred=self.coherence.bytes_transferred,
            wall_time=wall,
            eviction_count=(
                self.capacity.eviction_count if self.capacity is not None else 0
            ),
            writeback_bytes=(
                self.capacity.writeback_bytes if self.capacity is not None else 0.0
            ),
            task_failures=stats["task_failures"],
            retry_count=stats["retries"],
            requeue_count=stats["requeues"],
            worker_failures=stats["worker_failures"],
            diagnostics=self._diagnostic_payloads(),
        )

    def _diagnostic_payloads(self) -> list:
        """Runtime findings in canonical order as JSON payloads, so the
        result of a degraded run carries its own health report."""
        return [
            diag.to_payload()
            for diag in sorted(self.diagnostics, key=lambda d: d.sort_key())
        ]

    def _stall_diagnosis(
        self,
        where: str,
        pending: int,
        workers: Sequence[WorkerContext],
        running: Optional[dict[str, str]] = None,
    ) -> str:
        """Human-readable account of why no forward progress is possible."""
        by_state: dict[str, list[str]] = {}
        for t in self._tasks:
            if t.state not in (TaskState.DONE, TaskState.FAILED):
                by_state.setdefault(t.state.value, []).append(t.tag)
        online = [w for w in workers if w.instance_id not in self._offline]
        lines = [f"{where} stalled with {pending} unfinished tasks"]
        for state, tags in sorted(by_state.items()):
            shown = ", ".join(tags[:8]) + (", ..." if len(tags) > 8 else "")
            lines.append(f"  {state}: {len(tags)} task(s) [{shown}]")
        if running:
            lines.append(
                "  running: "
                + ", ".join(f"{w}={t}" for w, t in sorted(running.items()))
            )
        if self._offline:
            lines.append(f"  offline lanes: {sorted(self._offline)}")
        lines.append(
            f"  online lanes: {[w.instance_id for w in online]}"
        )
        orphans = [
            t.tag
            for t in self._tasks
            if t.state in (TaskState.READY, TaskState.BLOCKED)
            and not any(
                self.registry.get(t.kernel).supports(w.architecture)
                for w in online
            )
        ]
        if orphans:
            lines.append(
                f"  no compatible online lane for: {orphans[:8]}"
                f"{' ...' if len(orphans) > 8 else ''}"
            )
        lines.append("  (dependency cycle, scheduler bug, or unrecovered fault)")
        return "\n".join(lines)

    def _gather(self, handles, start_time: float, trace: TraceLog) -> float:
        """Flush written handles back to the host node; returns new makespan."""
        end = start_time
        for handle in handles:
            need = self.coherence.flush_to_home(handle)
            if need is None:
                continue
            est = self.transfer_model.schedule(
                self.node_anchor[need.src_node],
                self.node_anchor[need.dst_node],
                need.nbytes,
                start_time,
            )
            self.coherence.note_transfer(need)
            trace.record_transfer(
                TransferTrace(
                    handle_name=need.handle.name,
                    nbytes=need.nbytes,
                    src_node=need.src_node,
                    dst_node=need.dst_node,
                    start=est.start,
                    end=est.finish,
                )
            )
            end = max(end, est.finish)
        return end

    def _execute_payload(self, task: RuntimeTask, worker: WorkerContext) -> None:
        impl = self.registry.get(task.kernel).variant_for(worker.architecture)
        arrays = [access.handle.require_array() for access in task.accesses]
        impl.fn(*arrays, **task.args)

    # ------------------------------------------------------------------
    # real (threaded) execution
    # ------------------------------------------------------------------
    def kill_worker(self, instance_id: str, *, reason: str = "") -> None:
        """Abruptly kill one real-mode worker lane (fault injection).

        Thread-safe; callable from a timer or another thread while
        :meth:`run_real` executes.  The lane stops claiming work, its
        claimed-but-unexecuted task and queued tasks are requeued to
        surviving compatible lanes, and the run continues degraded.
        """
        events = self._kill_events
        if events is None or instance_id not in events:
            raise RuntimeEngineError(
                f"kill_worker: no live lane {instance_id!r}"
                " (only valid while run_real executes)"
            )
        self._kill_reasons[instance_id] = reason or "killed"
        events[instance_id].set()

    def retire_worker(self, instance_id: str, *, reason: str = "") -> None:
        """Gracefully retire one real-mode worker lane (scale-down).

        Thread-safe, like :meth:`kill_worker` — but where a kill abandons
        the lane's claimed task mid-flight, retirement is cooperative:
        the lane finishes the task it is executing, its *queued* tasks
        are drained and requeued to surviving compatible lanes, and the
        lane leaves the fleet without counting as a worker failure.
        """
        events = self._retire_events
        if events is None or instance_id not in events:
            raise RuntimeEngineError(
                f"retire_worker: no live lane {instance_id!r}"
                " (only valid while run_real executes)"
            )
        self._retire_reasons[instance_id] = reason or "retired"
        events[instance_id].set()

    def run_real(
        self,
        *,
        max_threads: Optional[int] = None,
        fault_policy: Optional[FaultPolicy] = None,
        watchdog_s: Optional[float] = None,
        kill_at: Optional[Sequence[tuple[float, str]]] = None,
    ) -> RunResult:
        """Execute all tasks for real on host threads (semantics in
        :meth:`_run_real_impl`); traced like :meth:`run`, but replayed
        task spans stay on the wall clock anchored at the run's start."""
        tracer = _obs.get_tracer()
        if tracer is None:
            return self._run_real_impl(
                max_threads=max_threads,
                fault_policy=fault_policy,
                watchdog_s=watchdog_s,
                kill_at=kill_at,
            )
        with tracer.span(
            "runtime.run_real",
            platform=self.platform.name,
            scheduler=self.scheduler.name,
            mode="real",
            tasks=len(self._tasks),
        ) as span_:
            start = span_.start
            result = self._run_real_impl(
                max_threads=max_threads,
                fault_policy=fault_policy,
                watchdog_s=watchdog_s,
                kill_at=kill_at,
            )
            span_.set(
                makespan_s=result.makespan,
                task_failures=result.task_failures,
                worker_failures=result.worker_failures,
            )
            record_trace_log(
                tracer, result.trace, parent=span_, mode="real", wall_offset=start
            )
            return result

    def _run_real_impl(
        self,
        *,
        max_threads: Optional[int] = None,
        fault_policy: Optional[FaultPolicy] = None,
        watchdog_s: Optional[float] = None,
        kill_at: Optional[Sequence[tuple[float, str]]] = None,
    ) -> RunResult:
        """Execute all tasks for real on host threads.

        Every worker context runs a thread pulling from the same scheduler
        (under a lock).  Data transfers are no-ops (host shared memory);
        the coherence directory is bypassed.  All accessed handles must be
        array-backed.

        Fault tolerance (``fault_policy``, default :class:`FaultPolicy`):

        * transient kernel failures are retried on any compatible lane
          with capped exponential backoff;
        * a dying worker thread (or one killed via :meth:`kill_worker` /
          ``kill_at``) requeues its claimed task to surviving compatible
          lanes and is marked offline instead of aborting the run;
        * a stall watchdog raises
          :class:`~repro.errors.WatchdogTimeoutError` with a diagnosis of
          the blocked tasks/workers instead of spinning forever.

        ``watchdog_s`` overrides ``fault_policy.watchdog_s``.  ``kill_at``
        is a list of ``(delay_s, instance_id)`` fault injections: each
        lane observes its own deadline against the run's wall clock (a
        separate timer thread would be GIL-starved behind busy workers
        and fire arbitrarily late).
        """
        if self._ran:
            raise RuntimeEngineError("engine already ran")
        self._ran = True
        policy = fault_policy if fault_policy is not None else FaultPolicy()
        if watchdog_s is not None:
            policy = dataclasses.replace(policy, watchdog_s=watchdog_s)
        for task in self._tasks:
            for access in task.accesses:
                access.handle.require_array()

        workers = self.workers if max_threads is None else self.workers[:max_threads]
        if not workers:
            raise RuntimeEngineError("no workers to run on")
        # re-check feasibility against the *truncated* worker set: the
        # submit-time check ran against all lanes, and a kernel whose only
        # compatible lane was cut would leave every thread waiting forever
        active = [w for w in workers if w.instance_id not in self._offline]
        infeasible: dict[str, list[str]] = {}
        for task in self._tasks:
            if task.state is TaskState.DONE:
                continue
            kernel_def = self.registry.get(task.kernel)
            if not any(kernel_def.supports(w.architecture) for w in active):
                infeasible.setdefault(task.kernel, []).append(task.tag)
        if infeasible:
            detail = "; ".join(
                f"kernel {k!r} ({len(tags)} task(s), e.g. {tags[:3]})"
                for k, tags in sorted(infeasible.items())
            )
            raise SchedulerError(
                "run_real: no compatible worker lane for submitted work after"
                f" max_threads={max_threads} truncated the lanes to"
                f" {[w.instance_id for w in active]}: {detail}"
            )
        self.scheduler.attach(workers, _EngineCostModel(self))

        trace = TraceLog()
        lock = threading.Lock()
        work_available = threading.Condition(lock)
        pending = [sum(1 for t in self._tasks if t.state != TaskState.DONE)]
        failure: list[BaseException] = []
        stats = {
            "task_failures": 0,
            "retries": 0,
            "requeues": 0,
            "worker_failures": 0,
        }
        #: instance id → task currently executing there (for diagnosis)
        running: dict[str, RuntimeTask] = {}
        # lock-protected monotonic progress timestamp (the historical
        # bare shared list raced between lanes and could publish a stale
        # value over a fresher one, flapping the stall watchdog)
        progress = ProgressClock()
        self._kill_events = {w.instance_id: threading.Event() for w in workers}
        self._kill_reasons = {}
        self._retire_events = {w.instance_id: threading.Event() for w in workers}
        self._retire_reasons = {}
        t0 = _time.perf_counter()

        def now_s() -> float:
            return _time.perf_counter() - t0

        def note_progress() -> None:
            progress.note()

        def record_fault(kind: str, task_tag: str, worker_id: str, detail: str):
            trace.record_fault(
                FaultTrace(kind, now_s(), task_tag, worker_id, detail)
            )

        def retire_worker(
            worker: WorkerContext, claimed: Optional[RuntimeTask], why: str
        ) -> None:
            """Mark a dead lane offline and requeue its work (under lock)."""
            if worker.retired:
                return  # already recovered from this lane's death
            self._offline.add(worker.instance_id)
            worker.retired = True
            running.pop(worker.instance_id, None)
            stats["worker_failures"] += 1
            record_fault("worker-fault", "", worker.instance_id, why)
            requeued: list[RuntimeTask] = []
            if claimed is not None:
                claimed.incarnation += 1
                requeued.append(claimed)
            requeued.extend(self.scheduler.drain(worker))
            for t in requeued:
                t.state = TaskState.READY
                t.worker_id = None
                stats["requeues"] += 1
                record_fault("requeue", t.tag, worker.instance_id, why)
                try:
                    self.scheduler.task_ready(t, now_s())
                except SchedulerError as exc:
                    failure.append(exc)
            if not any(
                w.instance_id not in self._offline for w in workers
            ):
                failure.append(
                    WorkerFailureError(
                        "every worker lane has failed; cannot recover"
                        f" (last: {worker.instance_id}: {why})"
                    )
                )
            note_progress()
            work_available.notify_all()

        def graceful_retire(worker: WorkerContext, why: str) -> None:
            """Drain-down for a cooperative scale-down (under lock).

            The in-flight task (if any) already completed by the time the
            lane observes the request, so only the queue is requeued —
            and the lane leaving is *not* a worker failure.
            """
            if worker.retired:
                return
            self._offline.add(worker.instance_id)
            worker.retired = True
            record_fault("retire", "", worker.instance_id, why)
            for t in self.scheduler.drain(worker):
                t.state = TaskState.READY
                t.worker_id = None
                stats["requeues"] += 1
                record_fault("requeue", t.tag, worker.instance_id, why)
                try:
                    self.scheduler.task_ready(t, now_s())
                except SchedulerError as exc:
                    failure.append(exc)
            if pending[0] and not any(
                w.instance_id not in self._offline for w in workers
            ):
                failure.append(
                    WorkerFailureError(
                        "every worker lane retired with work still pending"
                        f" (last: {worker.instance_id}: {why})"
                    )
                )
            note_progress()
            work_available.notify_all()

        with lock:
            for task in self._tasks:
                if task.ready:
                    task.state = TaskState.READY
                    self.scheduler.task_ready(task, 0.0)

        deadlines: dict[str, float] = {}
        for delay, instance_id in kill_at or ():
            if instance_id not in self._kill_events:
                raise RuntimeEngineError(
                    f"kill_at: unknown worker lane {instance_id!r}"
                )
            delay = float(delay)
            if instance_id not in deadlines or delay < deadlines[instance_id]:
                deadlines[instance_id] = delay

        def loop(worker: WorkerContext) -> None:
            kill = self._kill_events[worker.instance_id]
            deadline = deadlines.get(worker.instance_id)
            try:
                self._worker_loop(
                    worker, kill, deadline, policy, lock, work_available,
                    pending, failure, stats, running, progress, trace,
                    t0, retire_worker, workers,
                    self._retire_events[worker.instance_id], graceful_retire,
                )
            except BaseException as exc:
                # the lane itself died (scheduler bug, chaos injection):
                # recover around it instead of aborting the whole run
                with lock:
                    claimed = running.get(worker.instance_id)
                    try:
                        retire_worker(
                            worker, claimed, f"worker thread died: {exc!r}"
                        )
                    except BaseException as requeue_exc:
                        failure.append(requeue_exc)
                        work_available.notify_all()

        threads = [
            threading.Thread(target=loop, args=(w,), name=w.instance_id, daemon=True)
            for w in workers
        ]
        for thread in threads:
            thread.start()
        try:
            for thread in threads:
                thread.join()
        finally:
            self._kill_events = None
            self._kill_reasons = {}
            self._retire_events = None
            self._retire_reasons = {}
        if failure:
            raise failure[0]
        if pending[0]:
            raise RuntimeEngineError(
                self._stall_diagnosis(
                    "real execution", pending[0], workers,
                    {w: t.tag for w, t in running.items()},
                )
            )
        wall = _time.perf_counter() - t0
        return RunResult(
            makespan=trace.makespan,
            mode="real",
            scheduler=self.scheduler.name,
            task_count=len(self._tasks),
            trace=trace,
            wall_time=wall,
            task_failures=stats["task_failures"],
            retry_count=stats["retries"],
            requeue_count=stats["requeues"],
            worker_failures=stats["worker_failures"],
            diagnostics=self._diagnostic_payloads(),
        )

    def _worker_loop(
        self, worker, kill, deadline, policy, lock, work_available, pending,
        failure, stats, running, progress, trace, t0, retire_worker,
        workers, retire, graceful_retire,
    ) -> None:
        """One real-mode worker lane: claim, execute, retry, recover."""

        def now_s() -> float:
            return _time.perf_counter() - t0

        def lane_killed() -> bool:
            if kill.is_set():
                return True
            if deadline is not None and now_s() >= deadline:
                self._kill_reasons.setdefault(
                    worker.instance_id, f"kill_at t={deadline:g}s"
                )
                return True
            return False

        while True:
            with lock:
                if failure or pending[0] == 0:
                    work_available.notify_all()
                    return
                if lane_killed():
                    retire_worker(
                        worker, None,
                        self._kill_reasons.get(worker.instance_id, "killed"),
                    )
                    return
                if retire.is_set():
                    # cooperative scale-down: only honored *between* tasks,
                    # so a claimed task always runs to completion first
                    graceful_retire(
                        worker,
                        self._retire_reasons.get(worker.instance_id, "retired"),
                    )
                    return
                now = now_s()
                task = self.scheduler.next_task(worker, now)
                if task is None:
                    if (
                        policy.watchdog_s is not None
                        and pending[0] > 0
                        and not running
                        and progress.seconds_since() > policy.watchdog_s
                    ):
                        failure.append(
                            WatchdogTimeoutError(
                                self._stall_diagnosis(
                                    "real execution (watchdog"
                                    f" {policy.watchdog_s:g}s)",
                                    pending[0], workers,
                                    {w: t.tag for w, t in running.items()},
                                )
                            )
                        )
                        trace.record_fault(
                            FaultTrace(
                                "watchdog", now, "", worker.instance_id,
                                f"no progress for {policy.watchdog_s:g}s",
                            )
                        )
                        work_available.notify_all()
                        return
                    work_available.wait(timeout=0.05)
                    continue
                task.state = TaskState.RUNNING
                task.worker_id = worker.instance_id
                running[worker.instance_id] = task
                progress.note()
                if lane_killed():
                    # died after claiming but before the kernel ran: the
                    # claim is lost work, requeued to surviving lanes
                    retire_worker(
                        worker, task,
                        self._kill_reasons.get(worker.instance_id, "killed"),
                    )
                    return
            try:
                start = now_s()
                self._execute_payload(task, worker)
                end = now_s()
            except BaseException as exc:
                delay = 0.0
                with lock:
                    running.pop(worker.instance_id, None)
                    task.attempt += 1
                    task.last_error = repr(exc)
                    stats["task_failures"] += 1
                    trace.record_fault(
                        FaultTrace(
                            "task-fault", now_s(), task.tag,
                            worker.instance_id, repr(exc),
                        )
                    )
                    retryable = (
                        isinstance(exc, policy.retry_on)
                        and task.attempt <= policy.max_retries
                    )
                    if not retryable:
                        task.state = TaskState.FAILED
                        failure.append(exc)
                        work_available.notify_all()
                        return
                    stats["retries"] += 1
                    delay = policy.backoff(task.attempt)
                    trace.record_fault(
                        FaultTrace(
                            "retry", now_s(), task.tag, worker.instance_id,
                            f"attempt {task.attempt + 1} after"
                            f" {delay:.4g}s backoff",
                        )
                    )
                if delay > 0.0:
                    _time.sleep(delay)  # backoff outside the lock
                with lock:
                    task.state = TaskState.READY
                    task.incarnation += 1
                    task.worker_id = None
                    try:
                        # back to the shared pool: any compatible lane may
                        # pick the retry up, not just the one that failed
                        self.scheduler.task_ready(task, now_s())
                    except SchedulerError as exc2:
                        failure.append(exc2)
                    progress.note()
                    work_available.notify_all()
                continue
            with lock:
                running.pop(worker.instance_id, None)
                task.state = TaskState.DONE
                task.worker_id = worker.instance_id
                task.start_time, task.end_time = start, end
                pending[0] -= 1
                progress.note()
                trace.record_task(
                    TaskTrace(
                        task_id=task.id,
                        tag=task.tag,
                        kernel=task.kernel,
                        worker_id=worker.instance_id,
                        architecture=worker.architecture,
                        start=start,
                        end=end,
                        transfer_wait=0.0,
                    )
                )
                now = end
                for dep in task.dependents:
                    if dep.notify_producer_done():
                        dep.state = TaskState.READY
                        self.scheduler.task_ready(dep, now)
                work_available.notify_all()
                if lane_killed():
                    # the kernel's side effects are committed, so the
                    # task completes; the lane dies afterwards
                    retire_worker(
                        worker, None,
                        self._kill_reasons.get(worker.instance_id, "killed"),
                    )
                    return

    def __repr__(self) -> str:
        return (
            f"RuntimeEngine({self.platform.name!r},"
            f" workers={len(self.workers)},"
            f" scheduler={self.scheduler.name!r})"
        )
