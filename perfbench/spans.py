"""Per-layer tracing for the benchmark's traced run.

Spans are recorded from the benchmark's own code: :meth:`Tracer.install`
swaps the public functions of each layer (compiler phases, assembler,
simulator, cache replay, the cache study and its tables, analysis
modes, fault injection, service start) for thin wrappers, and :meth:`Tracer.uninstall` puts the originals back.  The
program itself is not modified.  A span is named ``<layer>.<call>``;
its *self time* is its duration minus the time covered by the spans
nested inside it, so summing self times never counts an interval
twice.  Spans stay in memory and are written out once, at the end.

The wrappers keep one stack and assume one thread, which holds for
every place they are installed: the workload process calls the
program from its main thread, and the service worker runs one task at
a time.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import statistics
import sys
import time
import weakref
from pathlib import Path
from typing import Any, Callable

from repro.labcache import ArtifactCache

#: Every per-layer metric the traced run reports, with its unit.  Times
#: are self times in seconds; the rest are counts made at the same
#: boundaries.  BENCHMARK.json lists the same names.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("cc.parse_s", "s"), ("cc.lower_s", "s"), ("cc.optimize_s", "s"),
    ("cc.codegen_s", "s"), ("cc.compiles", "count"),
    ("asm.assemble_s", "s"), ("asm.link_s", "s"),
    ("asm.image_bytes", "bytes"),
    ("machine.run_s", "s"), ("machine.run_minstr", "Minstr"),
    ("machine.trace_s", "s"), ("machine.trace_minstr", "Minstr"),
    ("cache.replay_s", "s"), ("cache.replay_maccess", "Maccess"),
    ("cache.configs", "count"),
    ("labcache.get_s", "s"), ("labcache.put_s", "s"),
    ("labcache.hits", "count"), ("labcache.misses", "count"),
    ("labcache.read_mb", "MB"), ("labcache.written_mb", "MB"),
    ("experiments.study_s", "s"), ("experiments.render_s", "s"),
    ("analysis.lint_s", "s"), ("analysis.timing_s", "s"),
    ("analysis.wcet_s", "s"), ("analysis.icache_s", "s"),
    ("analysis.density_s", "s"), ("analysis.tv_s", "s"),
    ("analysis.vuln_s", "s"), ("analysis.tv_pass_checks", "count"),
    ("analysis.vuln_sites", "count"),
    ("faults.campaign_s", "s"), ("faults.sites_executed", "count"),
    ("service.start_s", "s"), ("service.batches", "count"),
    ("service.coalesced", "count"), ("service.store_hits", "count"),
    ("service.retries", "count"), ("service.hit_latency_ms", "ms"),
    ("service.compute_latency_ms", "ms"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)

#: Set in a service worker's environment to make the worker trace
#: itself; the value is the directory its spans are written to.
WORKER_SPANS_ENV = "PERFBENCH_WORKER_SPANS"

class Tracer:
    """In-memory spans and counters; see the module docstring."""

    def __init__(self) -> None:
        #: (name, start, end, nesting depth), in order of ending.
        self.spans: list[tuple[str, float, float, int]] = []
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list[Any]] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._last_executed: weakref.WeakKeyDictionary = \
            weakref.WeakKeyDictionary()

    # ------------------------------------------------------------ spans

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        frame = [time.perf_counter(), 0.0, len(self._stack)]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - frame[0]
            self.self_s[name] = (self.self_s.get(name, 0.0)
                                 + duration - frame[1])
            if self._stack:
                self._stack[-1][1] += duration
            self.spans.append((name, frame[0], end, frame[2]))

    def wrap(self, name: str, fn: Callable[..., Any],
             on_result: Callable[[tuple, Any], None] | None = None
             ) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            result = self.call(name, fn, *args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    # ---------------------------------------------------------- install

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, fn: Any, wrapper: Any) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that imported
        it, so calls through any import path reach the wrapper."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    def install(self) -> None:
        """Wrap each layer's public entry points.

        Every program module is imported first (:func:`import_program`):
        a module imported later would bind the wrappers and keep them
        after :meth:`uninstall`.
        """
        import_program()
        import repro.analysis as analysis
        import repro.cache as cache
        import repro.cc.codegen as codegen
        import repro.cc.irgen as irgen
        import repro.cc.opt as opt
        import repro.cc.parser as parser
        import repro.asm as asm
        import repro.experiments as experiments
        import repro.faults as faults
        from repro.machine import Machine
        from repro.service import SimulationService

        def count_link(_args: tuple, exe: Any) -> None:
            self.count("asm.image_bytes", exe.binary_size)

        def count_grid(args: tuple, _result: Any) -> None:
            itrace, dtrace = args[0], args[1]
            configs = len(args[3]) if len(args) > 3 else 1
            self.count("cache.configs", configs)
            self.count("cache.replay_maccess",
                       (len(itrace) + len(dtrace)) * configs / 1e6)

        def count_tv(_args: tuple, result: Any) -> None:
            for report in result[1].values():
                self.count("analysis.tv_pass_checks",
                           sum(report.pass_counts().values()))

        def count_vuln(_args: tuple, result: Any) -> None:
            for cell, _waived in result[1].values():
                self.count("analysis.vuln_sites", len(cell.verdicts))

        plain = [
            (parser.parse, "cc.parse",
             lambda _a, _r: self.count("cc.compiles")),
            (irgen.lower_program, "cc.lower", None),
            (opt.optimize_module, "cc.optimize", None),
            (codegen.generate_assembly, "cc.codegen", None),
            (asm.assemble, "asm.assemble", None),
            (asm.link, "asm.link", count_link),
            (cache.simulate_caches_grid, "cache.replay", count_grid),
            (cache.simulate_caches, "cache.replay", count_grid),
            (analysis.lint_program, "analysis.lint", None),
            (analysis.lint_suite, "analysis.lint", None),
            (analysis.timing_suite, "analysis.timing", None),
            (analysis.wcet_suite, "analysis.wcet", None),
            (analysis.icache_suite, "analysis.icache", None),
            (analysis.density_suite, "analysis.density", None),
            (analysis.vuln_suite, "analysis.vuln", count_vuln),
            (analysis.tv_suite, "analysis.tv", count_tv),
            (faults.plan_cell, "faults.campaign", None),
            (faults.run_fault, "faults.campaign",
             lambda _a, _r: self.count("faults.sites_executed")),
            (experiments.run_cache_study, "experiments.study", None),
            *((fn, "experiments.render", None) for fn in (
                experiments.format_table13,
                experiments.format_miss_rate_table,
                experiments.format_figure16,
                experiments.format_figures_17_18,
                experiments.format_figure19)),
        ]
        for fn, name, on_result in plain:
            self._patch_everywhere(fn, self.wrap(name, fn, on_result))
        self._patch(Machine, "run", self._machine_run(Machine.run))
        self._patch(SimulationService, "start",
                    self.wrap("service.start", SimulationService.start))

    def _machine_run(self, run: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        def traced_run(machine: Any, *args: Any, **kwargs: Any) -> Any:
            traced = machine.itrace is not None or machine.dtrace is not None
            name = "machine.trace" if traced else "machine.run"
            stats = tracer.call(name, run, machine, *args, **kwargs)
            before = tracer._last_executed.get(machine, 0)
            tracer._last_executed[machine] = stats.instructions
            tracer.count(f"{name}_minstr",
                         (stats.instructions - before) / 1e6)
            return stats

        return traced_run

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------- results

    def layer_times(self) -> dict[str, float]:
        """Self time per ``*_s`` metric."""
        return {f"{name}_s": seconds for name, seconds in self.self_s.items()}

    def merge(self, other: dict[str, Any]) -> None:
        """Fold in a dump written by :meth:`dump` in another process
        (``perf_counter`` is the system's monotonic clock, so the span
        times line up)."""
        for name, seconds in other["self_s"].items():
            self.self_s[name] = self.self_s.get(name, 0.0) + seconds
        for name, amount in other["counters"].items():
            self.count(name, amount)
        self.spans.extend(tuple(span) for span in other["spans"])

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({
            "self_s": self.self_s, "counters": self.counters,
            "spans": self.spans}))


def trace_worker_if_asked() -> None:
    """Trace this service worker when :data:`WORKER_SPANS_ENV` is set.

    Spawned workers import the benchmark's main module, which calls
    this.  The spans are written when the worker exits normally:
    multiprocessing runs its finalizers after the worker's loop
    returns.
    """
    directory = os.environ.get(WORKER_SPANS_ENV)
    if not directory:
        return
    from multiprocessing.util import Finalize

    tracer = Tracer()
    tracer.install()
    Finalize(None, tracer.dump,
             args=(Path(directory) / f"worker-{os.getpid()}.json",),
             exitpriority=0)


def import_program() -> None:
    """Import every ``repro`` module (``repro.__main__`` runs the CLI,
    so it is left out)."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


class TracedArtifactCache(ArtifactCache):
    """The benchmark's artifact cache: ``get``/``put`` run inside
    ``labcache.*`` spans when a tracer is attached, and count hits,
    misses and the bytes read and written."""

    tracer: Tracer | None = None

    def get(self, key: str) -> Any:
        if self.tracer is None:
            return super().get(key)
        hits = self.hits
        payload = self.tracer.call("labcache.get", super().get, key)
        if self.hits > hits:
            self.tracer.count("labcache.hits")
            self.tracer.count("labcache.read_mb",
                              self._size(key) / 1e6)
        else:
            self.tracer.count("labcache.misses")
        return payload

    def put(self, key: str, payload: Any) -> None:
        if self.tracer is None:
            return super().put(key, payload)
        self.tracer.call("labcache.put", super().put, key, payload)
        self.tracer.count("labcache.written_mb", self._size(key) / 1e6)
        return None

    def _size(self, key: str) -> int:
        try:
            return self.entry_path(key).stat().st_size
        except OSError:
            return 0


def layer_metrics(tracer: Tracer, extra: dict[str, float]
                  ) -> dict[str, dict[str, Any]]:
    """Every :data:`LAYER_METRICS` entry, zero for a layer this
    workload does not reach."""
    values: dict[str, float] = dict(tracer.layer_times())
    values.update(tracer.counters)
    values["trace.spans"] = len(tracer.spans)
    values.update(extra)
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in LAYER_METRICS}


def median_ms(latencies: list[float]) -> float:
    return statistics.median(latencies) * 1e3 if latencies else 0.0
