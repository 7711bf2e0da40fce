"""Benchmark of the reproduction pipeline, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S \\
        --trace 0|1 [--hash-seeds 0,1] [--request-seed 42]

Run from the root of a checkout.  Workloads: suite-cold,
cache-study-warm, verify, service-replay (see perfbench/README.md).

The workload runs in this process under a fixed PYTHONHASHSEED, the
first of ``--hash-seeds``; the process re-executes itself to set it.
It repeats whole rounds of the workload for at least ``--seconds``,
checks the outputs, and prints one JSON object as its last line:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run first does one traced pass (set-up plus one round, with
per-layer spans), then one untraced round, and reports the per-layer
metrics and the tracing overhead (traced minus untraced wall time).

Scratch state (artifact caches, service stores) lives in
``.perfbench/`` under the checkout and is removed at the end; a traced
run leaves its spans there, in ``trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import time

#: Start of this process's work, for the import part of ``setup_s``.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("suite-cold", "cache-study-warm", "verify",
                  "service-replay")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True,
                        help="oracle-sample seed: which cells are "
                             "re-simulated on the step engine and which "
                             "cache points are replayed through the "
                             "scalar cache")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole rounds for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--hash-seeds", default="0,1",
                        help="PYTHONHASHSEED of the workload process and "
                             "of suite-cold's cross-seed compile")
    parser.add_argument("--request-seed", type=int, default=42,
                        help="seed of service-replay's request stream")
    args = parser.parse_args(argv)
    seeds = tuple(int(s) for s in args.hash_seeds.split(","))
    if len(seeds) != 2 or seeds[0] == seeds[1]:
        parser.error("--hash-seeds takes two different integers")
    args.hash_seeds = seeds
    return args


def run(args: argparse.Namespace, scratch: Path) -> dict:
    import spans
    from workloads import Context, ServiceReplay, WORKLOADS, peak_rss_mb

    cls = WORKLOADS[args.workload]

    def context(label: str, tracer: spans.Tracer | None = None) -> Context:
        return Context(seed=args.seed, hash_seeds=args.hash_seeds,
                       request_seed=args.request_seed,
                       scratch=scratch / label,
                       tracer=tracer)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = cls(context("traced", tracer))
            traced.setup()
            traced_wall = traced.round().wall_s
        finally:
            tracer.uninstall()
        for dump in sorted((scratch / "traced").glob("worker-spans/*.json")):
            tracer.merge(json.loads(dump.read_text()))
        extra = getattr(traced, "layer_extra", dict)()
        # The untraced pass should not inherit the traced pass's heap.
        del traced
        gc.collect()

    for module in cls.MODULES:
        importlib.import_module(module)
    workload = cls(context("plain"))
    # From run.py's first line to here: this process's one import of
    # the benchmark and of the program modules the workload uses.
    import_s = time.perf_counter() - STARTED
    once_s = workload.setup()
    rounds = []
    measured = 0.0
    while not rounds or (not args.trace and measured < args.seconds):
        rounds.append(workload.round())
        measured += rounds[-1].wall_s
    rss = peak_rss_mb(children=cls is ServiceReplay)
    check = workload.check(rounds)
    for problem in check.problems:
        print(f"# FAILED CHECK: {problem}")

    wall_s = measured / len(rounds)
    if args.trace:
        extra.update({"trace.wall_s": traced_wall,
                      "trace.overhead_s": traced_wall - wall_s})
        metrics = spans.layer_metrics(tracer, extra)
        tracer.dump(scratch.parent
                    / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        samples = workload.setup_samples + [r.setup_s for r in rounds]
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": import_s + once_s
                        + statistics.median(samples), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "work_per_s": {"value": sum(r.work for r in rounds)
                           / measured, "unit": "1/s"},
        }
        print(f"# {args.workload}: {len(rounds)} round(s); work_per_s "
              f"counts {cls.work_unit}")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    return {"correct": not check.problems,
            "attempted": sum(r.attempted for r in rounds),
            "failed": check.failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run the benchmark from "
              f"the root of a checkout of the repository", file=sys.stderr)
        return 2
    hash_seed = str(args.hash_seeds[0])
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=hash_seed))
    sys.path.insert(0, str(SRC))
    work_root = ROOT / ".perfbench"
    work_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=work_root))
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "default-cache")
    try:
        result = run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        stop_resource_tracker()
    print(json.dumps(result))
    return 0


def stop_resource_tracker() -> None:
    """Stop and reap the helper process that multiprocessing starts
    with the service's spawned worker; otherwise it outlives this
    process for a moment."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is None:
        return
    try:
        tracker._resource_tracker._stop()
    except OSError:
        pass    # already gone


if __name__ == "__main__":
    sys.exit(main())
elif __name__ == "__mp_main__":
    # A spawned service worker imports this file as its main module.
    from spans import trace_worker_if_asked

    trace_worker_if_asked()
