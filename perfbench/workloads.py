"""The benchmark's four workloads.

Each workload drives the program through a public entry point and is
split the same way:

* ``setup()`` -- work done once before anything is timed; returns its
  own duration in seconds when that counts as set-up time;
* ``round()`` -- one timed repetition of the same operations, returning
  a :class:`Round` (wall time, operations attempted, work done);
* ``check(rounds)`` -- untimed correctness checks of each round
  against a computation made apart from the measured path.  They
  return the number of operations that failed and a list of
  problems; a problem makes the run incorrect, a failed operation does
  not.

``MODULES`` names the program modules the workload uses; the run
imports them before set-up, so that their import counts in
``setup_s`` and not in the timed part.

Set-up that repeats (per round, or several times in ``setup()``) is
sampled in ``setup_samples`` and reported as a median.

A workload that owns a fresh directory takes it from ``Context.fresh``
so that every run starts from empty caches.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from spans import WORKER_SPANS_ENV, Tracer, TracedArtifactCache, median_ms
from xseed import image_digest

HERE = Path(__file__).resolve().parent

TARGETS = ("d16", "dlxe")


@dataclass
class Context:
    """What one run of a workload needs from the command line."""

    seed: int                  # oracle-sample seed (--seed)
    hash_seeds: tuple[int, int]
    request_seed: int
    scratch: Path              # per-run directory, removed afterwards
    tracer: Tracer | None = None
    _serial: int = 0

    def fresh(self, label: str) -> Path:
        self._serial += 1
        path = self.scratch / f"{label}-{self._serial}"
        path.mkdir(parents=True)
        return path


@dataclass
class Round:
    wall_s: float
    attempted: int
    work: float                # workload-specific units, see README
    setup_s: float = 0.0       # per-round set-up, where there is one
    state: Any = None          # what check() needs


@dataclass
class CheckResult:
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (plus its largest waited-for
    child when ``children``), in MB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


# ----------------------------------------------------------- suite-cold


class SuiteCold:
    """Every suite program compiled, linked and simulated untraced on
    D16 and DLXe through a fresh Lab over an empty artifact cache."""

    name = "suite-cold"
    MODULES = ("repro.experiments",)
    work_unit = "simulated instructions"
    #: Cells re-simulated on the step engine per run.
    STEP_SAMPLE = 2

    def __init__(self, ctx: Context) -> None:
        from repro.bench import SUITE

        self.ctx = ctx
        self.programs = [bench.name for bench in SUITE]
        self.cells = [(p, t) for p in self.programs for t in TARGETS]
        self.setup_samples: list[float] = []

    def setup(self) -> float:
        return 0.0

    def round(self) -> Round:
        from repro.experiments import Lab

        started = time.perf_counter()
        cache = TracedArtifactCache(self.ctx.fresh("suite-cache"))
        cache.tracer = self.ctx.tracer
        lab = Lab(cache=cache)
        setup_s = time.perf_counter() - started
        started = time.perf_counter()
        grid = lab.runs(self.programs, TARGETS)
        wall = time.perf_counter() - started
        instructions = sum(grid[p][t].stats.instructions
                           for p, t in self.cells)
        return Round(wall_s=wall, attempted=len(self.cells),
                     work=instructions, setup_s=setup_s,
                     state=(lab, grid))

    def check(self, rounds: list[Round]) -> CheckResult:
        from repro.bench import check_output, get_benchmark
        from repro.machine import run_executable

        result = CheckResult()
        # The second-hash-seed compile runs in a child interpreter
        # while this process does the in-process checks.
        child = subprocess.Popen(
            [sys.executable, str(HERE / "xseed.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ,
                     PYTHONHASHSEED=str(self.ctx.hash_seeds[1])))
        try:
            child.stdin.write(json.dumps(self.cells))
            child.stdin.close()
            for lab, grid in (r.state for r in rounds):
                for program in self.programs:
                    bench = get_benchmark(program)
                    outputs = {t: grid[program][t].stats.output
                               for t in TARGETS}
                    for target, output in outputs.items():
                        if not check_output(bench, output):
                            result.problems.append(
                                f"{program}/{target}: output lacks the "
                                f"expected markers: {output!r}")
                    if len(set(outputs.values())) != 1:
                        result.problems.append(
                            f"{program}: D16 and DLXe outputs differ")
                rng = random.Random(self.ctx.seed)
                for program, target in rng.sample(self.cells,
                                                  self.STEP_SAMPLE):
                    stats, _machine = run_executable(
                        lab.executable(program, target),
                        params=lab.params, engine="step")
                    if stats != grid[program][target].stats:
                        result.problems.append(
                            f"{program}/{target}: step engine RunStats "
                            f"differ from the block engine's")
            out = child.stdout.read()
            child.wait(timeout=170)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if child.returncode != 0:
            result.problems.append(
                f"cross-seed compile exited with {child.returncode}")
            return result
        other = {tuple(cell): digest for cell, digest in json.loads(out)}
        for lab, _grid in (r.state for r in rounds):
            mismatched = [cell for cell in self.cells
                          if image_digest(lab.executable(*cell))
                          != other[cell]]
            for cell in mismatched:
                print(f"# cross-seed mismatch: {'/'.join(cell)} image "
                      f"differs between PYTHONHASHSEED="
                      f"{self.ctx.hash_seeds[0]} and "
                      f"{self.ctx.hash_seeds[1]}")
            result.failed += len(mismatched)
        return result


# ----------------------------------------------------- cache-study-warm


def render_study(study: Any, programs: tuple[str, ...]) -> str:
    """Tables 13-16 and Figures 16-19, as the reproduction prints them."""
    from repro.experiments import (format_figure16, format_figure19,
                                   format_figures_17_18,
                                   format_miss_rate_table, format_table13)

    parts = [format_table13(study)]
    parts += [format_miss_rate_table(study, p) for p in programs]
    parts += [format_figure16(study),
              format_figures_17_18(study, size=4096),
              format_figures_17_18(study, size=16384),
              format_figure19(study)]
    return "\n\n".join(parts)


class CacheStudyWarm:
    """The Section 4.1 cache study rerun by a new Lab on the artifact
    cache that a cold study filled during set-up."""

    name = "cache-study-warm"
    MODULES = ("repro.experiments",)
    work_unit = "trace accesses x geometries"
    #: Only assem: the full three-program study (assem, latex, ipl)
    #: takes 45 s cold plus 25 s warm, too long for the run budget.
    PROGRAMS = ("assem",)
    #: (program, ISA, geometry) points replayed through the scalar
    #: cache per run.
    SCALAR_SAMPLE = 2

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.cache: TracedArtifactCache | None = None
        self.cold: Any = None
        self.cold_text = ""
        self.setup_samples: list[float] = []

    def setup(self) -> float:
        from repro.experiments import Lab, run_cache_study

        started = time.perf_counter()
        self.cache = TracedArtifactCache(self.ctx.fresh("study-cache"))
        self.cache.tracer = self.ctx.tracer
        lab = Lab(cache=self.cache)
        self.cold = run_cache_study(lab, self.PROGRAMS)
        self.cold_text = render_study(self.cold, self.PROGRAMS)
        return time.perf_counter() - started

    def round(self) -> Round:
        from repro.experiments import Lab, run_cache_study

        started = time.perf_counter()
        lab = Lab(cache=self.cache)
        study = run_cache_study(lab, self.PROGRAMS)
        text = render_study(study, self.PROGRAMS)
        wall = time.perf_counter() - started
        configs = len({key[2:] for key in study.points})
        accesses = sum(len(trace.itrace) + len(trace.dtrace)
                       for trace in study.traces.values())
        # Keep the rates, not the traces, so that memory does not grow
        # with the number of rounds.
        rates = {key: point.rates for key, point in study.points.items()}
        return Round(wall_s=wall, attempted=len(study.points),
                     work=accesses * configs, state=(rates, text))

    def check(self, rounds: list[Round]) -> CheckResult:
        from repro.cache import Cache, CacheConfig, dedup_consecutive
        from repro.experiments.cacheperf import SUB_BLOCK

        result = CheckResult()
        cold_rates = {k: p.rates for k, p in self.cold.points.items()}
        for rates, text in (r.state for r in rounds):
            if rates != cold_rates:
                result.problems.append(
                    "warm study rates differ from the cold study's")
            if text != self.cold_text:
                result.problems.append(
                    "warm study renders differently from the cold study")
        rng = random.Random(self.ctx.seed)
        for key in rng.sample(sorted(self.cold.points), self.SCALAR_SAMPLE):
            program, target, size, block = key
            trace = self.cold.traces[(program, target)]
            config = CacheConfig(size=size, block=block,
                                 sub_block=SUB_BLOCK)
            icache, dcache = Cache(config), Cache(config)
            icache.run_reads(dedup_consecutive(trace.itrace))
            dcache.run_tagged(trace.dtrace)
            rates = self.cold.points[key].rates
            scalar = (icache.read_misses, dcache.read_misses,
                      dcache.write_misses, dcache.read_accesses,
                      dcache.write_accesses, icache.traffic_words,
                      dcache.traffic_words)
            vector = (rates.imisses, rates.rmisses, rates.wmisses,
                      rates.reads, rates.writes, rates.itraffic_words,
                      rates.dtraffic_words)
            if scalar != vector:
                result.problems.append(
                    f"{key}: scalar replay {scalar} != vector {vector}")
        return result


# --------------------------------------------------------------- verify


class Verify:
    """``repro lint --all --json`` on dhrystone, through the CLI's
    ``main`` with an empty artifact cache."""

    name = "verify"
    #: ``lint`` imports repro.analysis when it runs.
    MODULES = ("repro.cli", "repro.analysis")
    work_unit = "analysed (mode, program, target) cells"
    #: dhrystone only: with solver the round takes 19 s instead of 8 s,
    #: too long for the run budget.
    PROGRAMS = ("dhrystone",)
    #: Error-severity rules that must never fire on the suite.
    FORBIDDEN = {"TIM003", "EQ002", "EQ004", "VULN001"}

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.setup_samples: list[float] = []

    def setup(self) -> float:
        return 0.0

    def round(self) -> Round:
        from repro.cli import main

        started = time.perf_counter()
        os.environ["REPRO_CACHE_DIR"] = str(self.ctx.fresh("lint-cache"))
        out = io.StringIO()
        setup_s = time.perf_counter() - started
        started = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = main(["lint", *self.PROGRAMS, "--all", "--json",
                         "--targets", ",".join(TARGETS)])
        wall = time.perf_counter() - started
        report = json.loads(out.getvalue())
        cells = sum(mode["cells"] for mode in report["modes"].values())
        return Round(wall_s=wall, attempted=cells, work=cells,
                     setup_s=setup_s, state=(code, report))

    def check(self, rounds: list[Round]) -> CheckResult:
        result = CheckResult()
        for code, report in (r.state for r in rounds):
            if code != 0:
                result.problems.append(f"lint exited with {code}")
            for finding in report["findings"]:
                if (finding["severity"] == "error"
                        or finding["rule"] in self.FORBIDDEN):
                    result.problems.append(f"error finding: {finding}")
            for record in report["icache"]:
                if record["contradictions"]:
                    result.problems.append(
                        f"CACHE contradiction: {record['program']}/"
                        f"{record['target']} size {record['size']}")
            for record in report["tv"]:
                for layer in ("passes", "binary"):
                    if record[layer]["divergent"]:
                        result.problems.append(
                            f"divergent TV verdict: {record['program']} "
                            f"{layer} {record[layer]}")
        return result


# ------------------------------------------------------- service-replay


def _request_key(request: Any) -> str:
    return json.dumps(request.material(), sort_keys=True)


class ServiceReplay:
    """A one-client closed loop: the seeded request stream sent in
    waves to a one-worker SimulationService over a fresh store."""

    name = "service-replay"
    MODULES = ("repro.service",)
    work_unit = "requests"
    #: Length of the request stream.  With seed 42 it holds 14 distinct
    #: requests, whose cold computation sets the round's length; 300
    #: requests hold 39 and take 48 s, too long for the run budget.
    REQUESTS = 20
    #: Set-ups per run; the median is reported.
    SETUPS = 2
    #: Answered during set-up, so the worker is up and has imported the
    #: program; quicksort is outside the stream's four programs.
    WARMUP = ("compile", "quicksort", "d16")

    def __init__(self, ctx: Context) -> None:
        from repro.service import generate_requests

        self.ctx = ctx
        self.requests = generate_requests(ctx.request_seed, self.REQUESTS)
        self.setup_samples: list[float] = []
        self.service: Any = None
        self.counters: dict[str, float] = {}
        self.hit_latencies: list[float] = []
        self.compute_latencies: list[float] = []

    def _start(self) -> tuple[Any, float]:
        from repro.service import Request, SimulationService

        if self.ctx.tracer is not None:
            spans = self.ctx.scratch / "worker-spans"
            spans.mkdir(parents=True, exist_ok=True)
            os.environ[WORKER_SPANS_ENV] = str(spans)
        else:
            os.environ.pop(WORKER_SPANS_ENV, None)
        service = SimulationService(self.ctx.fresh("store"), jobs=1,
                                    seed=self.ctx.request_seed)
        started = time.perf_counter()
        service.start()
        kind, bench, target = self.WARMUP
        response = service.submit(Request(kind=kind, bench=bench,
                                          target=target, id="warmup"))
        elapsed = time.perf_counter() - started
        if not response.ok:
            service.close()
            raise RuntimeError(f"warm-up request failed: {response}")
        return service, elapsed

    def setup(self) -> float:
        # One more set-up starts each round.
        for _ in range(self.SETUPS - 1):
            service, elapsed = self._start()
            service.close()
            self.setup_samples.append(elapsed)
        return 0.0

    def round(self) -> Round:
        from repro.service import execute_in_waves

        service, setup_s = self._start()
        before = service.stats()
        try:
            started = time.perf_counter()
            responses = execute_in_waves(service, self.requests)
            wall = time.perf_counter() - started
            after = service.stats()
        finally:
            service.close()
        for name, key in (("service.batches", "batches"),
                          ("service.coalesced", "coalesced"),
                          ("service.store_hits", "cache_hits"),
                          ("service.retries", "retries")):
            self.counters[name] = (self.counters.get(name, 0)
                                   + after[key] - before[key])
        for response in responses:
            if response.cached:
                self.hit_latencies.append(response.latency_s)
            elif not response.coalesced:
                self.compute_latencies.append(response.latency_s)
        return Round(wall_s=wall, attempted=len(self.requests),
                     work=len(self.requests), setup_s=setup_s,
                     state=responses)

    def layer_extra(self) -> dict[str, float]:
        out = dict(self.counters)
        out["service.hit_latency_ms"] = median_ms(self.hit_latencies)
        out["service.compute_latency_ms"] = median_ms(
            self.compute_latencies)
        return out

    def check(self, rounds: list[Round]) -> CheckResult:
        from repro.experiments import Lab
        from repro.service import is_lost
        from repro.service.workers import execute_request

        result = CheckResult()
        distinct = {_request_key(r): r for r in self.requests}
        lab = Lab(cache=False)
        oracle = {key: execute_request(lab, request)
                  for key, request in distinct.items()}
        for responses in (r.state for r in rounds):
            if len(responses) != len(self.requests):
                result.problems.append(
                    f"{len(self.requests) - len(responses)} requests "
                    f"got no response")
            for request, response in zip(self.requests, responses):
                if response.id != request.id or is_lost(response):
                    result.problems.append(f"{request.id} lost")
                elif response.payload != oracle[_request_key(request)]:
                    result.problems.append(
                        f"{request.id} ({_request_key(request)}): "
                        f"payload differs from the in-process Lab")
        return result


WORKLOADS = {cls.name: cls for cls in
             (SuiteCold, CacheStudyWarm, Verify, ServiceReplay)}

