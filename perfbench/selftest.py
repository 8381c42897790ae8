"""Self-tests of the benchmark (not of the program).

Run from the repository root::

    python3 perfbench/selftest.py

Checks, on the ``tiny`` profile unless noted:

1. every workload emits every metric of ``BENCHMARK.json`` with its
   unit, in both modes, and its outputs check out;
2. the per-layer counts repeat exactly across two traced runs with the
   same seed;
3. no tail percentile is reported from fewer than 11 samples;
4. ``serve_*`` latency is split by request type;
5. span accounting: self times of an op sum to its wall time;
6. a wrong answer counts as failed and makes the run incorrect;
7. without the program's source the command exits non-zero and prints
   no result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import core  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402

COUNTS = ("walk.steps", "embedding.pairs", "stream.wal_bytes",
          "tasks.affected_nodes", "serving.vector_fetches_per_query",
          "serving.gemm_rows_per_query", "serving.cache_hit_ratio")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT,
           profile: str = "tiny") -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--profile", profile],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_metrics_and_counts() -> None:
    for workload in WORKLOADS:
        traced = []
        for trace in (0, 1, 1):
            code, out = invoke(workload, trace)
            assert code == 0, f"{workload} trace {trace} exited {code}:\n{out}"
            doc = last_json(out)
            assert set(doc) == {"correct", "attempted", "failed", "metrics"}
            assert doc["correct"] and doc["failed"] == 0
            assert doc["attempted"] >= 1
            wanted = SPEC["per_layer" if trace else "end_to_end"]
            assert list(doc["metrics"]) == [m["name"] for m in wanted], (
                workload, trace)
            for entry in wanted:
                got = doc["metrics"][entry["name"]]
                assert got["unit"] == entry["unit"], (workload, entry)
                assert isinstance(got["value"], float)
                if not trace:
                    assert got["value"] > 0, (workload, entry["name"])
            if trace:
                traced.append(doc["metrics"])
            else:
                if workload.startswith("serve_"):
                    assert "score_p50_ms" in out and "score_link requests" \
                        in out and "top_k requests" in out, out
                assert "error_rate" in out
        first, second = traced
        for name in COUNTS:
            assert first[name]["value"] == second[name]["value"], (
                workload, name, first[name], second[name])
        print(f"ok  {workload}: every metric with units; counts repeat")


def test_tail_rule() -> None:
    for n in range(0, 100):
        assert core.tail_percentile(n) is None, n
    assert core.tail_percentile(100) == 90.0
    assert core.tail_percentile(200) == 95.0
    assert core.tail_percentile(1000) == 99.0
    assert core.tail_percentile(10_000) == 99.9
    result = core.Result()
    core.add_latency(result, "p50", "tail", [0.001] * 10, "ops")
    assert "p50" in result.metrics and "tail" not in result.metrics
    print("ok  no tail below 100 samples (so never from fewer than 11)")


def test_self_time_accounting() -> None:
    tracer = core.Tracer()
    tracer.enabled = True
    with tracer.op(0):
        with tracer.span("a"):
            with tracer.span("b"):
                sum(range(10_000))
        with tracer.span("c"):
            sum(range(10_000))
    (op,) = core.breakdown(tracer.spans).values()
    total = op.root_self + sum(op.self_seconds.values())
    assert abs(total - op.wall) < 1e-9, (total, op.wall)
    assert set(op.self_seconds) == {"a", "b", "c"} and op.spill == 0.0
    print("ok  self times of an op sum to its wall time")


def test_mismatch_fails() -> None:
    import numpy as np
    from perfbench import serve

    catalog, perm, kinds = serve.make_inputs(3, 200, 4)
    i = int(np.flatnonzero(~kinds)[0])
    wrong = (np.arange(serve.TOP_K), np.zeros(serve.TOP_K))
    result = core.Result()
    serve._check(result, [(i, False, 0.0, wrong, 0.0)], catalog, perm,
                 True)
    assert not result.correct and result.failed == 1
    print("ok  a wrong answer is counted and fails the run")


def test_bare_checkout_fails() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, out = invoke("batch_lp", 0, cwd=bare)
        assert code != 0 and '"correct"' not in out, (code, out)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  without the program's source: non-zero exit, no result")


if __name__ == "__main__":
    test_tail_rule()
    test_self_time_accounting()
    test_mismatch_fails()
    test_bare_checkout_fails()
    test_metrics_and_counts()
    print("all self-tests passed")
