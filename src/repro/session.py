"""The :class:`Session` facade: one object, the whole toolchain.

A session binds together the pieces every multi-step workflow needs —
a target platform, a tracer + metrics sink, and policy defaults
(scheduler, lint mode) — and exposes the toolchain verbs as methods:

>>> import repro
>>> s = repro.Session("xeon_x5550_2gpu", trace=True)
>>> result = s.translate(SOURCE)                   # doctest: +SKIP
>>> run = s.run(lambda eng: submit_tiled_dgemm(eng, 1024, 256))
>>> print(s.render_trace())                        # doctest: +SKIP

Every method activates the session's tracer for its own duration, so
spans from the underlying layers nest under one coherent trace without
any global state management by the caller.  A session with ``trace``
left off adds (near) zero overhead: ``self.tracer`` is ``None`` and the
instrumented layers skip their span plumbing entirely.

Used as a context manager, the session installs its tracer for the whole
``with`` block, so *user* code between toolchain calls can open its own
spans via :func:`repro.obs.span`.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.model.platform import Platform
from repro.obs import spans as _obs
from repro.obs.export import (
    chrome_trace,
    render_tree,
    trace_payload,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer

__all__ = ["Session"]


class Session:
    """Toolchain facade bound to one platform, tracer and policy set.

    Parameters
    ----------
    platform:
        Target platform: a :class:`Platform`, the name of a shipped
        catalog descriptor, or ``None`` (methods then require an
        explicit platform argument, or a later :meth:`use`).
    trace:
        ``True`` creates a fresh :class:`~repro.obs.spans.Tracer`; pass
        an existing tracer to join traces across sessions; ``False``
        (default) leaves tracing off.
    scheduler:
        Default scheduling policy for :meth:`run` / :meth:`engine`.
    lint:
        Default lint mode for :meth:`translate` (``off``/``warn``/``strict``).
    registry:
        Optional platform registry: a base URL, a
        :class:`~repro.service.async_client.RegistryEndpoint`, or an
        existing (sync) client object.  Platform refs that are not shipped
        catalog names — registry tags, content digests — then resolve
        through :attr:`registry_client` transparently.
    """

    def __init__(
        self,
        platform: Optional[Union[str, Platform]] = None,
        *,
        trace: Union[bool, Tracer] = False,
        scheduler: str = "dmda",
        lint: str = "warn",
        registry=None,
    ):
        if isinstance(trace, Tracer):
            self.tracer: Optional[Tracer] = trace
        else:
            self.tracer = Tracer() if trace else None
        #: metrics sink: the tracer's registry when tracing, else private
        self.metrics: MetricsRegistry = (
            self.tracer.metrics if self.tracer is not None else MetricsRegistry()
        )
        self.scheduler = scheduler
        self.lint_mode = lint
        #: last engine / result from :meth:`run`, last report from
        #: :meth:`explore` — for post-hoc inspection
        self.last_engine = None
        self.last_result = None
        self.last_exploration = None
        self.last_serving = None
        self.last_interference = None
        self._platform: Optional[Platform] = None
        self._platform_ref: Optional[str] = None
        if isinstance(platform, Platform):
            self._platform = platform
        elif platform is not None:
            self._platform_ref = platform
        self._registry = registry
        self._registry_client = None

    # -- tracer plumbing -----------------------------------------------------
    def _activate(self):
        """Context manager installing this session's tracer (no-op when
        tracing is off *and* no other tracer is active)."""
        return _obs.use_tracer(self.tracer) if self.tracer is not None else _noop()

    def __enter__(self) -> "Session":
        self._cm = self._activate()
        self._cm.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb):
        cm, self._cm = self._cm, None
        return cm.__exit__(exc_type, exc, tb)

    # -- platform ------------------------------------------------------------
    @property
    def registry_client(self):
        """The session's registry client, built lazily from whatever the
        ``registry=`` argument was (URL, endpoint, or an
        already-constructed client)."""
        if self._registry is None:
            raise ValueError(
                "Session has no registry: pass registry=... to Session(...)"
            )
        if self._registry_client is None:
            from repro.service import RegistryClient, RegistryEndpoint

            if isinstance(self._registry, (str, RegistryEndpoint)):
                self._registry_client = RegistryClient(self._registry)
            else:
                self._registry_client = self._registry
        return self._registry_client

    def _load_ref(self, ref: str) -> Platform:
        """Catalog name → parsed platform, falling back to the session
        registry for refs the shipped catalog does not know (registry
        tags, content digests, digest prefixes)."""
        from repro.errors import PDLError
        from repro.pdl.catalog import load_platform

        try:
            return load_platform(ref)
        except PDLError:
            if self._registry is None:
                raise
            return self.registry_client.platform(ref)

    @property
    def platform(self) -> Platform:
        """The session's platform, loading the catalog ref (or registry
        ref) on first use."""
        if self._platform is None:
            if self._platform_ref is None:
                raise ValueError(
                    "Session has no platform: pass one to Session(...)"
                    " or call session.use(platform)"
                )
            with self._activate():
                self._platform = self._load_ref(self._platform_ref)
        return self._platform

    def use(self, platform: Union[str, Platform]) -> "Session":
        """Re-point the session at another platform (chainable)."""
        if isinstance(platform, Platform):
            self._platform, self._platform_ref = platform, None
        else:
            self._platform, self._platform_ref = None, platform
        return self

    def _resolve(self, platform: Optional[Union[str, Platform]]) -> Platform:
        if platform is None:
            return self.platform
        if isinstance(platform, Platform):
            return platform
        return self._load_ref(platform)

    # -- toolchain verbs -----------------------------------------------------
    def parse(self, text: Union[str, bytes], **kwargs) -> Platform:
        """Parse PDL text (see :func:`repro.pdl.parse_pdl`) and adopt the
        result as the session platform."""
        from repro.pdl.parser import parse_pdl

        with self._activate():
            self._platform = parse_pdl(text, **kwargs)
            self._platform_ref = None
            return self._platform

    def translate(
        self,
        source: str,
        platform: Optional[Union[str, Platform]] = None,
        *,
        lint: Optional[str] = None,
        **kwargs,
    ):
        """Translate an annotated program for the session platform (see
        :func:`repro.cascabel.driver.translate`)."""
        from repro.cascabel.driver import translate

        with self._activate():
            return translate(
                source,
                self._resolve(platform),
                lint=lint if lint is not None else self.lint_mode,
                **kwargs,
            )

    def preselect(
        self,
        source: str,
        platform: Optional[Union[str, Platform]] = None,
        *,
        filename: str = "<string>",
        with_builtin_variants: bool = True,
        require_fallback: bool = True,
    ):
        """Static variant pre-selection for one program; returns the
        :class:`~repro.cascabel.selection.SelectionReport`."""
        from repro.cascabel.driver import register_builtin_variants
        from repro.cascabel.frontend import parse_program
        from repro.cascabel.repository import TaskRepository
        from repro.cascabel.selection import preselect

        with self._activate():
            target = self._resolve(platform)
            program = parse_program(source, filename=filename)
            repo = TaskRepository()
            repo.register_program(program)
            if with_builtin_variants:
                register_builtin_variants(repo, program)
            return preselect(
                repo, program, target, require_fallback=require_fallback
            )

    def lint(
        self,
        source: Optional[str] = None,
        platform: Optional[Union[str, Platform]] = None,
        *,
        filename: str = "<string>",
    ) -> list:
        """Lint the platform (no ``source``) or a program against the
        platform (Cascabel + cross packs); returns ``LintReport`` list."""
        from repro.analysis.engine import Linter

        with self._activate():
            target = self._resolve(platform)
            linter = Linter()
            if source is None:
                return [linter.lint_platform(target)]
            return [
                linter.lint_program(source, filename=filename),
                linter.lint_cross(
                    source, [(target.name, target)], filename=filename
                ),
            ]

    def analyze_interference(
        self,
        platform: Optional[Union[str, Platform]] = None,
        *,
        nbytes: Optional[float] = None,
        filename: Optional[str] = None,
    ):
        """Whole-platform interference report: contention domains, per-
        domain utilization, the pairwise co-location slowdown matrix,
        and the IFR lint verdict.  Returns the
        :class:`~repro.analysis.interference.InterferenceReport`, kept
        on :attr:`last_interference`."""
        from repro.analysis.interference import (
            DEFAULT_PROBE_BYTES,
            analyze_interference,
        )

        with self._activate():
            report = analyze_interference(
                self._resolve(platform),
                nbytes=nbytes if nbytes is not None else DEFAULT_PROBE_BYTES,
                filename=filename,
            )
            self.last_interference = report
            return report

    def engine(self, **kwargs):
        """A fresh :class:`~repro.runtime.engine.RuntimeEngine` for the
        session platform (session scheduler unless overridden)."""
        from repro.runtime.engine import RuntimeEngine

        kwargs.setdefault("scheduler", self.scheduler)
        with self._activate():
            return RuntimeEngine(self.platform, **kwargs)

    def run(
        self,
        workload: Callable,
        *,
        mode: str = "sim",
        engine: Optional[object] = None,
        **engine_kwargs,
    ):
        """Build an engine, let ``workload(engine)`` submit tasks, run it.

        ``workload`` is any callable taking the engine (e.g.
        ``lambda eng: submit_tiled_dgemm(eng, 1024, 256)``).  Returns the
        :class:`~repro.runtime.trace.RunResult`; the engine used is kept
        on :attr:`last_engine` for harvesting or inspection.
        """
        if mode not in ("sim", "real"):
            raise ValueError(f"mode must be 'sim' or 'real', got {mode!r}")
        with self._activate():
            eng = engine if engine is not None else self.engine(**engine_kwargs)
            workload(eng)
            result = eng.run() if mode == "sim" else eng.run_real()
            self.last_engine = eng
            self.last_result = result
            return result

    def calibrate(
        self,
        *,
        config=None,
        database=None,
        perf_model=None,
        registry=None,
    ):
        """Calibration sweep over the session platform; returns
        ``(TuningDatabase, platform digest)``."""
        from repro.tune.calibrate import calibrate_platform

        with self._activate():
            return calibrate_platform(
                self.platform,
                config=config,
                database=database,
                perf_model=perf_model,
                registry=registry,
            )

    def explore(
        self,
        space="dgemm-default",
        budget="sys-large",
        *,
        workload=None,
        seed: int = 0,
        max_points: Optional[int] = None,
        processes: Optional[int] = None,
        mp_context: Optional[str] = None,
        tuning_path=None,
    ):
        """Design-space exploration: synthesize a platform family under a
        budget, score every candidate, rank the Pareto frontier.

        Unlike the other verbs this does not use the session platform —
        finding platforms is the point.  The session scheduler is the
        default workload policy; the report is kept on
        :attr:`last_exploration`.  See :func:`repro.explore.run_exploration`.
        """
        from repro.explore.score import WorkloadSpec
        from repro.explore.sweep import run_exploration

        if workload is None:
            workload = WorkloadSpec(scheduler=self.scheduler)
        elif isinstance(workload, str):
            workload = WorkloadSpec(name=workload, scheduler=self.scheduler)
        with self._activate():
            report = run_exploration(
                space,
                budget,
                workload=workload,
                seed=seed,
                max_points=max_points,
                processes=processes,
                mp_context=mp_context,
                tuning_path=tuning_path,
            )
            self.last_exploration = report
            return report

    def serve(
        self,
        arrivals=None,
        *,
        config=None,
        tenants=None,
        duration_s: float = 1.0,
        seed: int = 0,
        truth_perf_model=None,
        sched_perf_model=None,
        tuning_database=None,
        registry=None,
    ):
        """Serve a task stream against the session platform's fleet.

        ``arrivals`` is any time-ordered iterable of
        :class:`~repro.serve.request.TaskRequest`; when omitted, a
        synthetic Poisson stream is generated from ``tenants`` (a list of
        :class:`~repro.serve.request.TenantSpec`, default: one
        ``"default"`` tenant) over ``duration_s`` simulated seconds.
        Returns the :class:`~repro.serve.report.ServingReport`, kept on
        :attr:`last_serving`; the engine lands on :attr:`last_engine`.
        """
        from repro.serve.engine import ServeConfig, ServeEngine
        from repro.serve.request import TenantSpec, synthetic_arrivals

        with self._activate():
            if arrivals is None:
                if tenants is None:
                    tenants = [TenantSpec(name="default")]
                arrivals = synthetic_arrivals(
                    tenants, duration_s=duration_s, seed=seed
                )
            if config is None:
                config = ServeConfig()  # serving default: dmda-slo
            engine = ServeEngine(
                self.platform,
                config=config,
                registry=registry,
                truth_perf_model=truth_perf_model,
                sched_perf_model=sched_perf_model,
                tuning_database=tuning_database,
                metrics=self.metrics,
            )
            report = engine.run(arrivals)
            self.last_engine = engine
            self.last_serving = report
            return report

    # -- trace access --------------------------------------------------------
    def _require_tracer(self) -> Tracer:
        if self.tracer is None:
            raise ValueError(
                "Session was created without tracing"
                " (pass trace=True to Session(...))"
            )
        return self.tracer

    def trace_payload(self) -> dict:
        """Deterministic JSON payload of the session trace."""
        return trace_payload(self._require_tracer())

    def chrome_trace(self) -> dict:
        """Chrome trace-event document of the session trace."""
        return chrome_trace(self._require_tracer())

    def write_chrome_trace(self, path) -> str:
        """Write the Chrome trace to ``path``; returns the path."""
        return write_chrome_trace(self._require_tracer(), path)

    def render_trace(self, *, attributes: bool = True) -> str:
        """Compact text tree of the session trace."""
        return render_tree(self._require_tracer(), attributes=attributes)

    # -- report-object conventions -------------------------------------------
    def to_payload(self) -> dict:
        """Session state: platform ref, policies, metrics, trace summary."""
        platform = (
            self._platform.name if self._platform is not None else self._platform_ref
        )
        payload: dict = {
            "platform": platform,
            "scheduler": self.scheduler,
            "lint": self.lint_mode,
            "tracing": self.tracer is not None,
            "registry": self._registry is not None,
            "metrics": self.metrics.to_payload(),
        }
        if self.tracer is not None:
            spans = self.tracer.finished()
            payload["trace"] = {
                "spans": len(spans),
                "trace_ids": sorted({s.trace_id for s in spans}),
            }
        if self.last_result is not None:
            payload["last_run"] = {
                "tasks": self.last_result.task_count,
                "makespan": self.last_result.makespan,
                "diagnostics": list(self.last_result.diagnostics),
            }
        if self.last_exploration is not None:
            payload["last_exploration"] = {
                "stats": dict(sorted(self.last_exploration.stats.items())),
                "fingerprint": self.last_exploration.fingerprint(),
            }
        if self.last_serving is not None:
            payload["last_serving"] = {
                "totals": dict(self.last_serving.totals),
                "fingerprint": self.last_serving.fingerprint(),
            }
        if self.last_interference is not None:
            payload["last_interference"] = {
                "max_slowdown": round(self.last_interference.max_slowdown(), 6),
                "ok": self.last_interference.ok,
                "fingerprint": self.last_interference.fingerprint(),
            }
        return payload

    def fingerprint(self) -> str:
        """Stable sha256 over :meth:`to_payload`."""
        from repro.obs.digest import fingerprint_payload

        return fingerprint_payload(self.to_payload())

    def __repr__(self) -> str:
        platform = (
            self._platform.name if self._platform is not None else self._platform_ref
        )
        return (
            f"Session(platform={platform!r}, scheduler={self.scheduler!r},"
            f" lint={self.lint_mode!r}, tracing={self.tracer is not None})"
        )


class _noop:
    """Stand-in context manager when the session has no tracer."""

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False
