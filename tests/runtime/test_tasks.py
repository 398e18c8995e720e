"""Unit tests for tasks and implicit dependency inference."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import RuntimeEngineError
from repro.runtime.coherence import AccessMode
from repro.runtime.data import DataHandle
from repro.runtime.tasks import DependencyTracker, RuntimeTask


def handles(n):
    return [DataHandle(shape=(4,), name=f"h{i}") for i in range(n)]


def task(accesses, **kw):
    return RuntimeTask("dgemm", accesses, **kw)


class TestRuntimeTask:
    def test_access_mode_parsing(self):
        h = handles(1)[0]
        t = task([(h, "rw")])
        assert t.accesses[0].mode.reads and t.accesses[0].mode.writes

    def test_accesses_are_interned_per_handle_and_mode(self):
        a, b = handles(2)
        t1 = task([(a, "rw"), (b, "r")])
        t2 = task([(a, "readwrite"), (b, "READ")])
        t3 = task([(a, "r")])
        assert t1.accesses[0] is t2.accesses[0]
        assert t1.accesses[1] is t2.accesses[1]
        assert t3.accesses[0] is not t1.accesses[0]
        assert t3.accesses[0] == (a, AccessMode.READ)
        assert t1.accesses[0].handle is a and t1.accesses[0].mode is AccessMode.READWRITE

    def test_tasks_are_slotted(self):
        t = task([(handles(1)[0], "rw")])
        assert not hasattr(t, "__dict__")
        with pytest.raises(AttributeError):
            t.not_a_field = 1

    def test_no_accesses_rejected(self):
        with pytest.raises(RuntimeEngineError, match="no data accesses"):
            RuntimeTask("dgemm", [])

    def test_reads_writes_views(self):
        a, b, c = handles(3)
        t = task([(c, "rw"), (a, "r"), (b, "w")])
        assert t.reads() == [c, a]
        assert t.writes() == [c, b]
        assert t.handles() == [c, a, b]

    def test_self_dependency_rejected(self):
        t = task([(handles(1)[0], "r")])
        with pytest.raises(RuntimeEngineError):
            t.add_dependency(t)

    def test_duplicate_dependency_counted_once(self):
        a, = handles(1)
        t1 = task([(a, "w")])
        t2 = task([(a, "r")])
        t2.add_dependency(t1)
        t2.add_dependency(t1)
        assert not t2.ready
        assert t2.notify_producer_done() is True
        assert t2._unfinished_deps == 0

    def test_notify_underflow_guard(self):
        t = task([(handles(1)[0], "r")])
        with pytest.raises(RuntimeEngineError, match="underflow"):
            t.notify_producer_done()

    def test_default_tag(self):
        t = task([(handles(1)[0], "r")])
        assert t.tag.startswith("dgemm#")


class TestHazards:
    def test_raw(self):
        a, = handles(1)
        tracker = DependencyTracker()
        writer = task([(a, "w")])
        reader = task([(a, "r")])
        tracker.register(writer)
        tracker.register(reader)
        assert writer.id in reader.depends_on
        assert reader in writer.dependents

    def test_waw(self):
        a, = handles(1)
        tracker = DependencyTracker()
        w1, w2 = task([(a, "w")]), task([(a, "w")])
        tracker.register(w1)
        tracker.register(w2)
        assert w1.id in w2.depends_on

    def test_war(self):
        a, = handles(1)
        tracker = DependencyTracker()
        r = task([(a, "r")])
        w = task([(a, "w")])
        tracker.register(r)
        tracker.register(w)
        assert r.id in w.depends_on

    def test_independent_readers_parallel(self):
        a, = handles(1)
        tracker = DependencyTracker()
        r1, r2 = task([(a, "r")]), task([(a, "r")])
        tracker.register(r1)
        tracker.register(r2)
        assert r1.ready and r2.ready
        assert not r1.depends_on and not r2.depends_on

    def test_rw_chain_serializes(self):
        # the DGEMM k-loop: C rw in every task => strict chain
        c, = handles(1)
        tracker = DependencyTracker()
        chain = [task([(c, "rw")]) for _ in range(4)]
        for t in chain:
            tracker.register(t)
        for prev, nxt in zip(chain, chain[1:]):
            assert prev.id in nxt.depends_on
        assert chain[0].ready and not chain[1].ready

    def test_disjoint_handles_no_deps(self):
        a, b = handles(2)
        tracker = DependencyTracker()
        t1, t2 = task([(a, "rw")]), task([(b, "rw")])
        tracker.register(t1)
        tracker.register(t2)
        assert t1.ready and t2.ready

    def test_reader_after_new_writer_depends_on_new_writer_only(self):
        a, = handles(1)
        tracker = DependencyTracker()
        w1 = task([(a, "w")])
        w2 = task([(a, "w")])
        r = task([(a, "r")])
        for t in (w1, w2, r):
            tracker.register(t)
        assert r.depends_on == {w2.id}

    def test_gemm_tile_graph_shape(self):
        """C[i,j] chains serialize; distinct (i,j) are independent."""
        p = 2
        C = [[DataHandle(shape=(4, 4)) for _ in range(p)] for _ in range(p)]
        A = [[DataHandle(shape=(4, 4)) for _ in range(p)] for _ in range(p)]
        B = [[DataHandle(shape=(4, 4)) for _ in range(p)] for _ in range(p)]
        tracker = DependencyTracker()
        tasks = {}
        for i in range(p):
            for j in range(p):
                for k in range(p):
                    t = task([(C[i][j], "rw"), (A[i][k], "r"), (B[k][j], "r")])
                    tracker.register(t)
                    tasks[(i, j, k)] = t
        # k=0 tasks ready, k=1 tasks blocked on k=0 of same (i,j)
        for i in range(p):
            for j in range(p):
                assert tasks[(i, j, 0)].ready
                assert tasks[(i, j, 0)].id in tasks[(i, j, 1)].depends_on
        # cross-tile independence
        assert not (tasks[(0, 0, 0)].depends_on & {tasks[(1, 1, 0)].id})


@given(st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from(["r", "w", "rw"])),
    min_size=1, max_size=30,
))
@settings(max_examples=100, deadline=None)
def test_dependency_graph_is_acyclic_and_conflict_ordered(ops):
    """Property: for any submission sequence over 4 handles, the inferred
    graph is a DAG that orders every conflicting pair (two accesses to the
    same handle where at least one writes)."""
    hs = handles(4)
    tracker = DependencyTracker()
    tasks = []
    for idx, mode in ops:
        t = RuntimeTask("dvecadd", [(hs[idx], mode)])
        tracker.register(t)
        tasks.append((idx, mode, t))

    id_to_pos = {t.id: pos for pos, (_, _, t) in enumerate(tasks)}
    # acyclic because edges always point backwards in submission order
    for pos, (_, _, t) in enumerate(tasks):
        for dep in t.depends_on:
            assert id_to_pos[dep] < pos

    # conflict ordering: any write-involving pair on one handle must be
    # connected by a (transitive) dependency path
    import networkx as nx

    g = nx.DiGraph()
    for _, _, t in tasks:
        g.add_node(t.id)
        for dep in t.depends_on:
            g.add_edge(dep, t.id)
    closure = nx.transitive_closure(g)
    for i, (hi, mi, ti) in enumerate(tasks):
        for j in range(i + 1, len(tasks)):
            hj, mj, tj = tasks[j]
            if hi == hj and ("w" in mi or "w" in mj):
                assert closure.has_edge(ti.id, tj.id), (
                    f"conflicting pair {i}->{j} unordered ({mi} vs {mj})"
                )


class TestTaskSignature:
    def test_explicit_dims(self):
        from repro.runtime.tasks import task_signature

        h = DataHandle(shape=(256, 256))
        t = RuntimeTask("dgemm", [(h, "rw")], dims=(256, 256, 256))
        assert task_signature(t) == ("dgemm", (256, 256, 256))

    def test_dims_fallback_is_first_handle_shape(self):
        from repro.runtime.tasks import task_signature

        h = DataHandle(shape=(128, 64))
        t = RuntimeTask("dvecadd", [(h, "rw")])
        assert task_signature(t) == ("dvecadd", (128, 64))

    def test_same_shape_same_signature(self):
        from repro.runtime.tasks import task_signature

        a = RuntimeTask("dgemm", [(DataHandle(shape=(64, 64)), "rw")])
        b = RuntimeTask("dgemm", [(DataHandle(shape=(64, 64)), "r")])
        assert task_signature(a) == task_signature(b)


class TestTaskTable:
    @staticmethod
    def _task(kernel="dgemm", shape=(64, 64)):
        return RuntimeTask(kernel, [(DataHandle(shape=shape), "rw")])

    def test_add_interns_kernel_and_signature(self):
        from repro.runtime.tasks import TaskTable

        table = TaskTable()
        t1, t2 = self._task(), self._task()
        t3 = self._task(shape=(32, 32))
        for t in (t1, t2, t3):
            table.add(t)
        assert t1.kind_id == t2.kind_id == t3.kind_id  # one kernel
        assert t1.cost_sig == t2.cost_sig  # same effective dims
        assert t3.cost_sig != t1.cost_sig
        assert len(table.sig_representative) == 2
        assert table.sig_representative[t1.cost_sig] is t1

    def test_signature_id_shares_ids_with_add(self):
        """A submitted task and a bare ``signature_id`` probe with the
        same (kernel, dims) share one id, whichever comes first; the
        first representative is kept."""
        from repro.runtime.tasks import TaskTable

        table = TaskTable()
        t = self._task()
        table.add(t)
        assert table.signature_id("dgemm", (64, 64)) == t.cost_sig
        assert table.sig_representative[t.cost_sig] is t

        sid = table.signature_id("dgemm", [32, 32])
        assert sid != t.cost_sig
        probe = table.sig_representative[sid]
        assert (probe.kernel, probe.dims) == ("dgemm", (32, 32))
        late = self._task(shape=(32, 32))
        table.add(late)
        assert late.cost_sig == sid
        assert table.sig_representative[sid] is probe
        assert len(table.sig_representative) == 2

    def test_explicit_task_id_minting(self):
        """Engine-local ids: two engines submitting the same DAG mint
        identical ids (comparable trace fingerprints)."""
        a = RuntimeTask("dgemm", [(DataHandle(shape=(4,)), "rw")], task_id=42)
        assert a.id == 42
        b = RuntimeTask("dgemm", [(DataHandle(shape=(4,)), "rw")])
        c = RuntimeTask("dgemm", [(DataHandle(shape=(4,)), "rw")])
        assert c.id == b.id + 1  # default: process-global counter
