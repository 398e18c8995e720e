"""Runtime tasks and implicit dependency inference.

Tasks reference a kernel (codelet) plus data handles with access modes;
dependencies between tasks are inferred from data hazards in submission
order, exactly like StarPU's implicit data-dependency mode and as the
paper motivates ("explicit task outlining with parameter access-specifiers
helps ... derive inter-task data-dependencies", §IV-A):

* RAW — a reader depends on the last writer of each handle it reads;
* WAW — a writer depends on the last writer;
* WAR — a writer depends on every reader since the last writer.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import NamedTuple, Optional, Sequence

from repro.errors import RuntimeEngineError
from repro.runtime.coherence import AccessMode
from repro.runtime.data import DataHandle

__all__ = [
    "TaskState",
    "Access",
    "RuntimeTask",
    "DependencyTracker",
    "TaskTable",
    "task_signature",
]

_task_ids = itertools.count(1)


class TaskState(str, Enum):
    BLOCKED = "blocked"
    READY = "ready"
    RUNNING = "running"
    DONE = "done"
    #: permanently failed (retry budget exhausted); terminal like DONE
    FAILED = "failed"


class Access(NamedTuple):
    """One (handle, mode) task parameter (a tuple, so it unpacks too).

    Immutable, so :class:`RuntimeTask` interns one per (handle, mode) on
    the handle and every task touching that pair shares it: a tile read
    by a whole row of GEMM tasks costs one Access, not one per task.
    """

    handle: DataHandle
    mode: AccessMode


#: members and canonical spellings → mode, resolved with one lookup;
#: any other spelling goes through :meth:`AccessMode.parse`
_MODES: dict = {m: m for m in AccessMode}
_MODES.update({m.value: m for m in AccessMode})


class RuntimeTask:
    """A schedulable unit of work.

    Parameters
    ----------
    kernel:
        Kernel (codelet) name resolved against the engine's registry.
    accesses:
        ``(handle, mode)`` pairs; modes accept strings (``"r"|"w"|"rw"``)
        or :class:`AccessMode`.
    dims:
        Cost-model dims (e.g. ``(m, n, k)`` for GEMM tiles).
    args:
        Extra keyword arguments passed to the kernel function.
    priority:
        Larger = more urgent; schedulers may use it as a tie-break.
    tag:
        Free-form label for traces.
    task_id:
        Explicit id.  The engine assigns run-local ids (1..n in submit
        order) so that two engines simulating the same DAG produce the
        same ids — and hence identical default tags and byte-identical
        trace fingerprints.  Standalone tasks fall back to a process-wide
        counter.

    Tasks are slotted: a run holds one per submitted task, so the
    per-instance ``__dict__`` would cost memory and attribute speed.
    """

    __slots__ = (
        "id", "kernel", "accesses", "dims", "args", "priority", "tag",
        "state", "depends_on", "dependents", "_unfinished_deps",
        "worker_id", "start_time", "end_time",
        "kind_id", "cost_sig",
        "attempt", "incarnation", "fault_armed", "last_error",
    )

    def __init__(
        self,
        kernel: str,
        accesses: Sequence[tuple],
        *,
        dims: Optional[tuple] = None,
        args: Optional[dict] = None,
        priority: int = 0,
        tag: str = "",
        task_id: Optional[int] = None,
    ):
        self.id = next(_task_ids) if task_id is None else task_id
        self.kernel = kernel
        modes = _MODES
        interned = []
        for handle, mode in accesses:
            mode = modes.get(mode) or AccessMode.parse(mode)
            access = handle._accesses.get(mode)
            if access is None:
                access = handle._accesses[mode] = Access(handle, mode)
            interned.append(access)
        self.accesses: tuple[Access, ...] = tuple(interned)
        if not self.accesses:
            raise RuntimeEngineError(f"task {kernel!r} has no data accesses")
        self.dims = tuple(dims) if dims is not None else None
        self.args = dict(args) if args else {}
        self.priority = priority
        self.tag = tag or f"{kernel}#{self.id}"

        self.state = TaskState.BLOCKED
        #: tasks that must finish before this one starts
        self.depends_on: set[int] = set()
        #: tasks waiting on this one
        self.dependents: list["RuntimeTask"] = []
        self._unfinished_deps = 0

        # filled by the engine at completion
        self.worker_id: Optional[str] = None
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None

        # filled by TaskTable.add for engine-managed tasks
        self.kind_id: Optional[int] = None
        self.cost_sig: Optional[int] = None

        # -- fault-tolerance state -------------------------------------
        #: failed execution attempts so far (retry budget consumed)
        self.attempt = 0
        #: bumped whenever an in-flight execution is aborted/requeued, so
        #: a stale completion event (sim) or thread (real) can detect it
        #: no longer owns the task
        self.incarnation = 0
        #: armed by a TaskFault injection event: the next start fails
        self.fault_armed = False
        #: repr of the most recent execution failure, for diagnostics
        self.last_error: Optional[str] = None

    # -- dependency bookkeeping ----------------------------------------------
    def add_dependency(self, producer: "RuntimeTask") -> None:
        if producer.id == self.id:
            raise RuntimeEngineError(f"task {self.tag} cannot depend on itself")
        if producer.id in self.depends_on:
            return
        self.depends_on.add(producer.id)
        if producer.state != TaskState.DONE:
            producer.dependents.append(self)
            self._unfinished_deps += 1

    @property
    def ready(self) -> bool:
        return self._unfinished_deps == 0 and self.state == TaskState.BLOCKED

    def notify_producer_done(self) -> bool:
        """Called when one producer finishes; True when the task became ready."""
        if self._unfinished_deps <= 0:
            raise RuntimeEngineError(
                f"task {self.tag}: dependency counter underflow"
            )
        self._unfinished_deps -= 1
        return self._unfinished_deps == 0

    # -- introspection -----------------------------------------------------------
    def handles(self) -> list[DataHandle]:
        return [access.handle for access in self.accesses]

    def reads(self) -> list[DataHandle]:
        return [a.handle for a in self.accesses if a.mode.reads]

    def writes(self) -> list[DataHandle]:
        return [a.handle for a in self.accesses if a.mode.writes]

    @property
    def duration(self) -> Optional[float]:
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time

    def __repr__(self) -> str:
        return f"RuntimeTask({self.tag!r}, state={self.state.value})"


def task_signature(task: RuntimeTask) -> tuple:
    """The cost-model identity of a task: ``(kernel, effective dims)``.

    Two tasks with the same signature get identical execution estimates
    on every worker (the performance models read only kernel name and
    dims), so the vectorized engine computes cost rows once per
    signature instead of once per task — a tiled DGEMM is one signature,
    a tiled Cholesky four, regardless of task count.

    The dims fallback mirrors :meth:`RuntimeEngine._estimate_with`: when
    a task carries no explicit dims, the first access's handle shape is
    the size proxy.
    """
    dims = task.dims if task.dims is not None else task.accesses[0].handle.shape
    return (task.kernel, tuple(dims))


class _SignatureProbe(NamedTuple):
    """What a cost-row probe reads of a task: kernel name and dims."""

    kernel: str
    dims: tuple


class TaskTable:
    """Interner for the engine's kernel names and cost signatures.

    :meth:`add` gives every submitted task a kernel id (``kind_id``, the
    row of the vectorized engine's support matrix) and a cost-signature
    id (``cost_sig``, :func:`task_signature`), under which the
    vectorized cost model memoizes one execution row per signature.
    :meth:`signature_id` interns a signature for a task the engine does
    not own.  Both share one id space, and the first task (or probe)
    seen with a signature stays its representative, the cost-row probe.
    Task state lives on the tasks themselves; what happened lives in
    the trace.
    """

    def __init__(self):
        self._kernels: dict[str, int] = {}
        self.kernel_names: list[str] = []
        self._sigs: dict[tuple, int] = {}
        #: sig id → one task (or bare probe) carrying that signature, the
        #: cost-row probe
        self.sig_representative: list = []

    def _intern(self, sig: tuple, representative) -> int:
        sid = self._sigs.get(sig)
        if sid is None:
            sid = len(self.sig_representative)
            self._sigs[sig] = sid
            self.sig_representative.append(representative)
        return sid

    def add(self, task: RuntimeTask) -> None:
        """Intern ``task``; sets ``task.kind_id`` and ``task.cost_sig``."""
        kid = self._kernels.get(task.kernel)
        if kid is None:
            kid = len(self.kernel_names)
            self._kernels[task.kernel] = kid
            self.kernel_names.append(task.kernel)
        task.kind_id = kid
        task.cost_sig = self._intern(task_signature(task), task)

    def signature_id(self, kernel: str, dims: tuple) -> int:
        """Intern a ``(kernel, dims)`` cost signature for a task the
        engine scores but does not own (the serving front end's
        requests): a new signature is represented by a bare
        ``_SignatureProbe``, so no such task outlives its run.
        """
        sig = (kernel, tuple(dims))
        sid = self._sigs.get(sig)
        if sid is None:
            sid = self._intern(sig, _SignatureProbe(*sig))
        return sid


class DependencyTracker:
    """Per-handle hazard state for implicit dependency inference."""

    def __init__(self):
        #: handle id → last task that wrote it
        self._last_writer: dict[int, RuntimeTask] = {}
        #: handle id → readers since the last write
        self._readers: dict[int, list[RuntimeTask]] = {}

    def register(self, task: RuntimeTask) -> None:
        """Infer and record dependencies for ``task`` (submission order)."""
        last_writer = self._last_writer
        readers = self._readers
        add_dependency = task.add_dependency
        accesses = task.accesses
        for handle, mode in accesses:
            hid = handle.id
            # every mode reads or writes, so the last writer is always a
            # producer: RAW for readers, WAW for writers
            writer = last_writer.get(hid)
            if writer is not None:
                add_dependency(writer)
            if mode.writes:
                for reader in readers.get(hid, ()):  # WAR
                    if reader is not task:
                        add_dependency(reader)
        # second pass: update hazard state after *all* deps are known
        for handle, mode in accesses:
            hid = handle.id
            if mode.writes:
                last_writer[hid] = task
                readers[hid] = []
            else:
                since_write = readers.get(hid)
                if since_write is None:
                    readers[hid] = [task]
                else:
                    since_write.append(task)

    def reset(self) -> None:
        self._last_writer.clear()
        self._readers.clear()
