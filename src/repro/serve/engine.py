"""The long-lived serving front end: ingestion → scheduling → autoscaling → tuning.

:class:`ServeEngine` runs open-loop streams of independent requests on
the runtime's own discrete-event core: one
:class:`~repro.runtime.engine.RuntimeEngine` built from the platform
supplies the lanes, memory nodes, contended transfer model and memoized
cost rows, and its simulation loop runs every request.  Serving fills
the loop's two seams — a started request stages its operand bytes
host→device, a finished one feeds the SLO tracker and the tuning window
— and reuses the rest: worker ticks, idle wake-ups, task start/finish,
trace records (the :class:`~repro.runtime.trace.TraceLog` ring) and the
lane toggle's drain + requeue.  One run weaves four loops together:

* **Ingestion** — each arrival passes per-tenant token buckets and the
  bounded-queue :class:`~repro.service.admission.CapacityGate` (the
  registry server's 429 machinery); rejects are shed, admits become
  :class:`~repro.serve.request.ServeTask` objects with absolute
  deadlines.
* **Execution** — lanes pull from the scheduler (the runtime's zoo plus
  :class:`~repro.serve.scheduler.DeadlineScheduler`) and execute for the
  *truth* perf model's duration, which may differ from what the
  scheduler's model predicts — the gap online tuning closes.
* **Autoscaling** — a fixed-cadence policy tick turns lanes on and off
  through the loop's lane toggle; a lane going offline finishes its
  in-flight task while ``drain()`` rewinds and requeues its queue, so no
  task is stranded and dmda's est-free clocks stay honest.
* **Online tuning** — completed windows are folded into a
  :class:`~repro.tune.database.TuningDatabase` via
  :func:`~repro.tune.calibrate.harvest_run`, and the scheduler-side
  :class:`~repro.tune.model.HistoryPerfModel` refits *while serving*.

Everything is simulated-deterministic: same platform + config + arrival
stream ⇒ an identical :class:`~repro.serve.report.ServingReport`
fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.errors import KernelError, ServeError
from repro.model.platform import Platform
from repro.obs import spans as _obs
from repro.perf.calibration import TASK_SCHEDULING_OVERHEAD_S
from repro.runtime.engine import RuntimeEngine, _SimLoop, _VectorCostModel
from repro.runtime.trace import FaultTrace, TaskTrace, TraceLog, TransferTrace
from repro.runtime.workers import WorkerContext
from repro.serve.autoscale import AutoscalePolicy, Autoscaler
from repro.serve.report import ServingReport
from repro.serve.request import ServeTask, TaskRequest, validate_stream
from repro.serve.scheduler import make_serve_scheduler
from repro.serve.slo import SLOTracker
from repro.service.admission import CapacityGate, TenantRateLimiter

__all__ = ["ServeConfig", "ServeEngine"]

_EPS = 1e-12


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one serving run."""

    #: placement policy: ``dmda-slo`` (deadline-aware) or a plain
    #: runtime policy (``dmda``/``dm``/``eager``) as ablation baseline
    scheduler: str = "dmda-slo"
    #: predicted-lateness penalty weight of ``dmda-slo``
    miss_weight: float = 4.0
    #: relative SLO deadline for requests that carry none
    default_deadline_s: float = 0.05
    #: ready-queue bound; arrivals beyond it are shed (429-style)
    max_queue: int = 256
    #: default per-tenant token rate (None = tenants are not rate-limited
    #: unless individually configured via :meth:`ServeEngine.limit_tenant`)
    tenant_rate_per_s: Optional[float] = None
    tenant_burst: float = 16.0
    #: per-task dispatch overhead, same constant the runtime engine uses
    task_overhead_s: float = TASK_SCHEDULING_OVERHEAD_S
    autoscale: AutoscalePolicy = field(default_factory=AutoscalePolicy)
    #: continuously harvest completed windows into the tuning database
    #: and refit the scheduler-side history model
    online_tuning: bool = False
    harvest_interval_s: float = 0.25
    tuning_blend: float = 1.0
    #: ring bound of the serving TraceLog (None = unbounded)
    trace_max_events: Optional[int] = 65536
    #: per-tenant latency reservoir size
    latency_window: int = 8192

    def __post_init__(self):
        if self.default_deadline_s <= 0.0:
            raise ServeError(
                f"default_deadline_s must be positive,"
                f" got {self.default_deadline_s!r}"
            )
        if self.max_queue < 1:
            raise ServeError(f"max_queue must be >= 1, got {self.max_queue!r}")
        if self.harvest_interval_s <= 0.0:
            raise ServeError(
                f"harvest_interval_s must be positive,"
                f" got {self.harvest_interval_s!r}"
            )

    def to_payload(self) -> dict:
        return {
            "scheduler": self.scheduler,
            "miss_weight": self.miss_weight,
            "default_deadline_s": self.default_deadline_s,
            "max_queue": self.max_queue,
            "tenant_rate_per_s": self.tenant_rate_per_s,
            "tenant_burst": self.tenant_burst,
            "task_overhead_s": self.task_overhead_s,
            "autoscale": self.autoscale.to_payload(),
            "online_tuning": self.online_tuning,
            "harvest_interval_s": self.harvest_interval_s,
            "tuning_blend": self.tuning_blend,
            "trace_max_events": self.trace_max_events,
            "latency_window": self.latency_window,
        }


class _ServeCostModel(_VectorCostModel):
    """The runtime's memoized cost rows plus the one term it cannot know.

    Requests carry no data handles, so coherence has nothing to say about
    them; their staging cost is one host→lane copy of ``task.nbytes``.
    The scheduler scores requests one arrival at a time through this
    model's scalar protocol.
    """

    def transfer_estimate(self, task: ServeTask, worker: WorkerContext) -> float:
        if task.nbytes <= 0.0 or worker.memory_node == 0:
            return 0.0
        engine = self._engine
        return engine.transfer_model.ideal_time_cached(
            engine.node_anchor[0], worker.entity_id, task.nbytes
        )


class _ServeLoop(_SimLoop):
    """The runtime's simulation loop with serving's two seams."""

    def __init__(self, front: "ServeEngine"):
        super().__init__(
            front.runtime, TraceLog(max_events=front.config.trace_max_events)
        )
        self.front = front

    def _stage(self, task: ServeTask, worker: WorkerContext, now: float) -> float:
        """Stage the request's operand bytes host → lane (never resident
        beforehand: every request brings fresh operands)."""
        if task.nbytes <= 0.0 or worker.memory_node == 0:
            return now
        engine = self.engine
        est = engine.transfer_model.schedule(
            engine.node_anchor[0], worker.entity_id, task.nbytes, now
        )
        record = TransferTrace(
            handle_name=f"req-{task.id}",
            nbytes=int(task.nbytes),
            src_node=0,
            dst_node=worker.memory_node,
            start=est.start,
            end=est.finish,
        )
        self.trace.record_transfer(record)
        if self.front.config.online_tuning:
            self.front._window_trace.record_transfer(record)
        return est.finish

    def _complete(
        self, task: ServeTask, worker: WorkerContext, record: TaskTrace
    ) -> None:
        """SLO accounting, and the harvest window under online tuning."""
        front = self.front
        now = record.end
        front.slo.observe_completion(
            task.tenant, now - task.arrival, met_deadline=now <= task.deadline + _EPS
        )
        front._in_flight -= 1
        if front.config.online_tuning:
            front._window_tasks.append(task)
            front._window_trace.record_task(record)


class ServeEngine:
    """One serving fleet bound to a platform; :meth:`run` drives a stream."""

    def __init__(
        self,
        platform: Platform,
        *,
        config: Optional[ServeConfig] = None,
        registry=None,
        truth_perf_model=None,
        sched_perf_model=None,
        tuning_database=None,
        metrics=None,
    ):
        self.config = config or ServeConfig()
        self.platform = platform
        self.metrics = metrics

        # scheduler-side model: explicit > online-tuned history > truth
        self.tuning_database = tuning_database
        self.digest: Optional[str] = None
        self._harvests = 0
        self._harvested_samples = 0
        if self.config.online_tuning:
            from repro.pdl.catalog import content_digest
            from repro.pdl.writer import write_pdl

            self.digest = content_digest(write_pdl(platform))
            if sched_perf_model is None:
                from repro.tune.database import TuningDatabase
                from repro.tune.model import HistoryPerfModel

                if self.tuning_database is None:
                    self.tuning_database = TuningDatabase()
                sched_perf_model = HistoryPerfModel(
                    self.tuning_database, self.digest, blend=self.config.tuning_blend
                )

        #: the runtime built from the descriptor: its lanes, node mapping,
        #: transfer model and cost rows, and the loop every request runs in
        self.runtime = RuntimeEngine(
            platform,
            scheduler=make_serve_scheduler(
                self.config.scheduler, miss_weight=self.config.miss_weight
            ),
            registry=registry,
            perf_model=truth_perf_model,
            sched_perf_model=sched_perf_model,
            task_overhead_s=self.config.task_overhead_s,
        )
        self.registry = self.runtime.registry
        self.workers: list[WorkerContext] = self.runtime.workers
        self.node_anchor: dict[int, str] = self.runtime.node_anchor
        self.sched_perf = self.runtime.sched_perf
        self.scheduler = self.runtime.scheduler
        # re-attaching drops the batch scorer the runtime enabled: requests
        # carry no data accesses, so they are scored scalar
        self.cost_model = _ServeCostModel(self.runtime)
        self.scheduler.attach(self.workers, self.cost_model)

        # fleet shape: activation order puts one lane per architecture
        # first (the always-on "core", so every fleet-supported kernel
        # keeps a compatible online lane through any drain-down), then
        # the rest in platform order
        core: dict[str, WorkerContext] = {}
        rest: list[WorkerContext] = []
        for worker in self.workers:
            if worker.architecture not in core:
                core[worker.architecture] = worker
            else:
                rest.append(worker)
        self._core: set[str] = {w.instance_id for w in core.values()}
        self._lanes: list[WorkerContext] = list(core.values()) + rest
        self.autoscaler = Autoscaler(self.config.autoscale, len(self.workers))

        # admission machinery (shared with the registry server)
        self.capacity_gate = CapacityGate(self.config.max_queue)
        self.rate_limiter = TenantRateLimiter(
            default_rate_per_s=self.config.tenant_rate_per_s,
            default_burst=self.config.tenant_burst,
        )
        self._consecutive_shed: dict[str, int] = {}

        self.slo = SLOTracker(
            latency_window=self.config.latency_window, metrics=metrics
        )
        self._in_flight = 0
        self._next_id = 0
        self._arrivals: Optional[Iterable[TaskRequest]] = None
        self._stream_open = False

        # harvest window (online tuning)
        self._window_tasks: list[ServeTask] = []
        self._window_trace = TraceLog()
        #: harvest_run reads ``engine._tasks``; points at the current window
        self._tasks: list[ServeTask] = self._window_tasks

        self._loop = _ServeLoop(self)
        self.clock = self._loop.clock
        self.trace = self._loop.trace
        # every lane starts offline; a run brings the initial fleet up
        self._loop.offline.update(w.instance_id for w in self.workers)

    # -- configuration -------------------------------------------------------
    def limit_tenant(self, tenant: str, rate_per_s: float, burst: float) -> None:
        """Give one tenant an explicit token-bucket budget."""
        self.rate_limiter.configure(tenant, rate_per_s, burst)

    def _fleet_supports(self, kernel: str) -> bool:
        # an unknown kernel is shed; any other registry failure is a bug
        # and propagates
        try:
            kernel_def = self.registry.get(kernel)
        except KernelError:
            return False
        return any(
            kernel_def.supports(w.architecture) for w in self.workers
        )

    # -- fleet shape ---------------------------------------------------------
    def _online(self) -> list[WorkerContext]:
        offline = self._loop.offline
        return [w for w in self._lanes if w.instance_id not in offline]

    def _activate_lanes(self, count: int) -> int:
        """Bring up to ``count`` offline lanes online; returns how many."""
        offline = self._loop.offline
        moved = 0
        for worker in self._lanes:
            if moved == count:
                break
            if worker.instance_id in offline:
                self._loop.lane_online(worker)
                moved += 1
        return moved

    def _retire_candidate(self) -> Optional[WorkerContext]:
        """Last online lane that is not core; prefer an idle one so
        retirement is instant."""
        candidates = [
            w for w in reversed(self._online()) if w.instance_id not in self._core
        ]
        now = self.clock.now
        for worker in candidates:
            if worker.busy_until <= now + _EPS:
                return worker
        return candidates[0] if candidates else None

    def _retire_lane(self, worker: WorkerContext) -> None:
        """Graceful drain-down: requeue queued work, finish in-flight."""
        if self._loop.lane_offline(worker, "autoscale-retire"):
            self._loop.wake_idle()

    def _autoscale_tick(self, _arg=None) -> None:
        if self._finished():
            return
        now = self.clock.now
        backlog = self.scheduler.pending_count()
        online = self._online()
        active = len(online)
        idle = sum(1 for w in online if w.busy_until <= now + _EPS)
        if self.metrics is not None:
            self.metrics.gauge("serve.active_workers").set(active)
            self.metrics.gauge("serve.queue_depth").set(backlog)
        want = self.autoscaler.decide(
            now, backlog=backlog, active=active, idle=idle
        )
        if want > 0:
            moved = self._activate_lanes(want)
            if moved:
                self.autoscaler.commit(now, "up", moved, backlog)
        elif want < 0:
            candidate = self._retire_candidate()
            if candidate is not None:
                self._retire_lane(candidate)
                self.autoscaler.commit(now, "down", 1, backlog)
        self.clock.schedule_call_in(
            self.config.autoscale.interval_s, self._autoscale_tick, None
        )

    # -- ingestion -----------------------------------------------------------
    def _admit(self, request: TaskRequest, now: float) -> bool:
        """Run the admission pipeline; False when the request is rejected."""
        tenant = request.tenant
        if not self._fleet_supports(request.kernel):
            self._reject(request, now, "shed")
            return False
        decision = self.rate_limiter.admit(tenant, now)
        if not decision:
            self._reject(request, now, "rate-limited", decision.retry_after_s)
            return False
        consecutive = self._consecutive_shed.get(tenant, 0)
        decision = self.capacity_gate.check(
            self.scheduler.pending_count(), consecutive=consecutive
        )
        if not decision:
            self._consecutive_shed[tenant] = consecutive + 1
            self._reject(request, now, "shed", decision.retry_after_s)
            return False
        self._consecutive_shed[tenant] = 0
        return True

    def _reject(
        self,
        request: TaskRequest,
        now: float,
        kind: str,
        retry_after_s: Optional[float] = None,
    ) -> None:
        """Account one rejection (no retry-after: the kernel is unsupported)."""
        self.slo.observe_rejected(request.tenant, kind)
        detail = "unsupported-kernel"
        if retry_after_s is not None:
            if self.metrics is not None:
                self.metrics.histogram("serve.retry_after_s").observe(retry_after_s)
            detail = f"retry_after={retry_after_s:.3f}"
        self.trace.record_fault(
            FaultTrace(
                kind=kind,
                time=now,
                task_tag=f"{request.tenant}:{request.kernel}",
                worker_id="",
                detail=detail,
            )
        )

    def _on_arrival(self, request: TaskRequest) -> None:
        now = self.clock.now
        if self._admit(request, now):
            deadline = (
                request.deadline_s
                if request.deadline_s is not None
                else self.config.default_deadline_s
            )
            task = ServeTask(
                self._next_id, request, deadline_abs=request.arrival_s + deadline
            )
            task.cost_sig = self.runtime.task_table.signature_id(
                task.kernel, task.dims
            )
            self._next_id += 1
            self._in_flight += 1
            self.slo.observe_admitted(request.tenant)
            self._loop.admit(task, now)
        self._pull_next_arrival()

    def _pull_next_arrival(self) -> None:
        assert self._arrivals is not None
        try:
            request = next(self._arrivals)
        except StopIteration:
            self._stream_open = False
            return
        self.clock.schedule_call(request.arrival_s, self._on_arrival, request)

    # -- online tuning -------------------------------------------------------
    def _harvest_tick(self, _arg=None) -> None:
        self._harvest_window()
        if not self._finished():
            self.clock.schedule_call_in(
                self.config.harvest_interval_s, self._harvest_tick, None
            )

    def _harvest_window(self) -> None:
        if not self._window_tasks:
            return
        from repro.runtime.trace import RunResult
        from repro.tune.calibrate import harvest_run

        result = RunResult(
            makespan=self._window_trace.makespan,
            mode="sim",
            scheduler=self.scheduler.name,
            task_count=len(self._window_tasks),
            trace=self._window_trace,
        )
        self._harvested_samples += harvest_run(
            self, result, self.tuning_database, digest=self.digest, source="serve"
        )
        self._harvests += 1
        self._window_tasks = []
        self._tasks = self._window_tasks
        self._window_trace = TraceLog()
        # refit: drop fitted curves and every memoized placement estimate
        if hasattr(self.sched_perf, "invalidate"):
            self.sched_perf.invalidate()
        self.cost_model.invalidate_exec()

    # -- the run -------------------------------------------------------------
    def _finished(self) -> bool:
        return not self._stream_open and not self._in_flight

    def run(self, arrivals: Iterable[TaskRequest]) -> ServingReport:
        """Serve the stream to completion; returns the serving report."""
        tracer = _obs.get_tracer()
        if tracer is None:
            return self._run(arrivals)
        with tracer.span(
            "serve.run",
            platform=self.platform.name,
            scheduler=self.scheduler.name,
            fleet=len(self.workers),
        ) as span_:
            report = self._run(arrivals)
            span_.set(
                offered=report.totals["offered"],
                completed=report.totals["completed"],
                deadline_misses=report.totals["deadline_misses"],
            )
            return report

    def _run(self, arrivals: Iterable[TaskRequest]) -> ServingReport:
        if self._arrivals is not None:
            raise ServeError(
                "ServeEngine.run is one-shot; build a fresh engine per run"
            )
        self._arrivals = iter(validate_stream(arrivals))
        self._stream_open = True
        want = max(self.autoscaler.initial_active(), len(self._core))
        self.autoscaler.observe(self._activate_lanes(want))
        self._pull_next_arrival()
        if not self._stream_open:
            raise ServeError("arrival stream is empty")
        self.clock.schedule_call(0.0, self._autoscale_tick, None)
        if self.config.online_tuning:
            self.clock.schedule_call_in(
                self.config.harvest_interval_s, self._harvest_tick, None
            )
        self.clock.run()
        if self.config.online_tuning:
            self._harvest_window()  # fold the tail window
        return self._build_report()

    def _build_report(self) -> ServingReport:
        return ServingReport(
            platform=self.platform.name,
            scheduler=self.scheduler.name,
            config=self.config.to_payload(),
            duration_s=self.trace.makespan,
            totals=self.slo.totals(),
            tenants=self.slo.tenant_payload(),
            autoscaler=self.autoscaler.to_payload(),
            tuning={
                "online": self.config.online_tuning,
                "harvests": self._harvests,
                "samples": self._harvested_samples,
            },
            requeues=self._loop.stats["requeues"],
            trace=self.trace,
        )
