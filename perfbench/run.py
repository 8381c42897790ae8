"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch_lp --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the traced profile and reports the per-layer metrics
(spans go to ``.perfbench/trace-<workload>-seed<n>.jsonl``).  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it print every metric with its unit and
sample count, plus the host facts.  The exit code is non-zero when any
output was wrong.  Workloads and metrics are listed in
``BENCHMARK.json``; ``perfbench/README.md`` says why each exists.
"""

import os

# Pinned before numpy loads: one BLAS/OpenMP thread per process, which
# forked shard workers inherit.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# serve_sharded runs by hand but is not in BENCHMARK.json: its spread
# between runs is too wide to gate on (see README.md).
WORKLOADS = ("batch_lp", "online_ingest", "serve_sharded", "serve_inproc")


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 profile: str = "full"):
    """Run one workload; returns its :class:`perfbench.core.Result`."""
    from perfbench import batch, online, serve

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    if name == "batch_lp":
        return batch.run(seed, seconds, trace, profile, out_dir)
    if name == "online_ingest":
        return online.run(seed, seconds, trace, profile, out_dir)
    return serve.run(seed, seconds, trace, profile, out_dir,
                     sharded=name == "serve_sharded")


def layers_of(name: str) -> tuple[str, ...]:
    """Per-layer metrics the workload measures itself."""
    from perfbench import batch, online, serve

    return {"batch_lp": batch.LAYERS, "online_ingest": online.LAYERS,
            "serve_sharded": serve.LAYERS[True],
            "serve_inproc": serve.LAYERS[False]}[name]


def stop_children() -> None:
    """Stop and reap every process this run left behind.

    Shard workers are joined by their frontend's ``close()``; what can
    remain is multiprocessing's shared-memory resource tracker, which
    the sharded tier starts and which otherwise lingers until this
    process exits.  Anything else is a leak: it is reported, then
    terminated and reaped.
    """
    import signal
    from multiprocessing import resource_tracker

    from perfbench.core import child_pids

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
    for pid in child_pids():
        print(f"warning: child process {pid} outlived the workload; "
              f"terminating it", file=sys.stderr)
        os.kill(pid, signal.SIGTERM)
        os.waitpid(pid, 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "tiny"),
                        default="full",
                        help="input sizes; 'tiny' is for the self-tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.core import host_facts, host_probe_ms

    spec = _spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print("host " + json.dumps(host_facts(ROOT, ROOT / ".perfbench")))
    print(f"workload {args.workload} seed {args.seed} seconds "
          f"{args.seconds:g} trace {args.trace} profile {args.profile}")
    probe_before = host_probe_ms()
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.profile)
    finally:
        stop_children()
    print(f"host_probe_ms before {probe_before:.2f} after "
          f"{host_probe_ms():.2f} (fixed loop; higher = slower host)")

    if args.trace:
        # A layer this workload never enters reads 0; say so.
        mine = layers_of(args.workload)
        for entry in wanted:
            if entry["name"] not in mine:
                result.add(entry["name"], 0.0, entry["unit"],
                           "not on this workload's path")
    missing = [e["name"] for e in wanted if e["name"] not in result.metrics]
    if missing:
        print(f"error: workload did not report {missing}", file=sys.stderr)
        return 3
    error_rate = result.failed / max(1, result.attempted)
    for name, metric in result.metrics.items():
        print(f"  {name:<34} {metric.value:>14.6g} {metric.unit:<10} "
              f"{metric.note}")
    print(f"  {'error_rate':<34} {error_rate:>14.6g} {'1':<10} "
          f"{result.failed} failed or wrong / {result.attempted} attempted")
    for message in result.mismatches[:20]:
        print(f"  MISMATCH: {message}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {e["name"]: {"value": result.metrics[e["name"]].value,
                                "unit": e["unit"]} for e in wanted},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
