"""Fault injection: spec parsing, site registry, and crash-then-resume.

Pipeline sites fire in the driver between phases; a run killed there
must resume from its checkpoints to the same result as an undisturbed
run.  Stream and control-plane sites are exercised by their own suites
(``test_stream_recovery.py``, ``test_serving_controlplane.py``).
"""

from __future__ import annotations

import re

import pytest

from repro.errors import FaultInjected, ReproError
from repro.faults import ENV_VAR, FaultPlan, FaultSpec

pytestmark = pytest.mark.faults


# ---------------------------------------------------------------------------
# Spec / plan parsing
# ---------------------------------------------------------------------------


def test_fault_spec_parse_full():
    spec = FaultSpec.parse("stream.wal.write:crash:*:2")
    assert spec == FaultSpec(site="stream.wal.write", kind="crash",
                             shard=None, times=2)


def test_fault_spec_parse_shard():
    spec = FaultSpec.parse("stream.wal.fsync:crash:1")
    assert spec.site == "stream.wal.fsync" and spec.kind == "crash"
    assert spec.shard == 1
    assert spec.times == 1


@pytest.mark.parametrize("text", [
    "after-walks",               # no kind
    "after-walks:explode",       # unknown kind
    "walk:crash",                # typo'd site would otherwise never fire
    "after-sgns:error",          # unknown pipeline site
    "after-walks:crash:x",       # non-integer shard
    "after-walks:crash:0:0",     # times < 1
    "after-walks:crash:0:1:2",   # a fifth field
    "walks:crash",               # stale sites and kinds from an old
    "sgns:error",                # REPRO_FAULTS must fail loudly
    "stream.wal.write:corrupt",
])
def test_fault_spec_parse_rejects_bad_specs(text):
    with pytest.raises(ReproError):
        FaultSpec.parse(text)


def test_fault_plan_parse_and_match():
    plan = FaultPlan.parse(
        "stream.wal.write:crash:0, stream.wal.fsync:error:*:2")
    assert plan
    assert plan.match("stream.wal.write", shard=0, attempt=0) is not None
    assert plan.match("stream.wal.write", shard=1, attempt=0) is None
    assert plan.match("stream.wal.write", shard=0, attempt=1) is None
    assert plan.match("stream.wal.fsync", shard=3, attempt=1) is not None
    assert plan.match("stream.wal.fsync", shard=3, attempt=2) is None


def test_fault_plan_from_env():
    assert not FaultPlan.from_env(environ={})
    plan = FaultPlan.from_env(environ={ENV_VAR: "after-task:crash"})
    assert plan.specs == (FaultSpec(site="after-task", kind="crash"),)


def test_fault_plan_fire_error():
    plan = FaultPlan.parse("after-walks:error")
    with pytest.raises(FaultInjected):
        plan.fire("after-walks")
    plan.fire("after-word2vec")  # non-matching site is a no-op


def test_controlplane_sites_registered():
    from repro.faults import CONTROLPLANE_SITES, SITES

    assert set(CONTROLPLANE_SITES) <= set(SITES)
    plan = FaultPlan.parse(
        "controlplane.health:error:*:1, controlplane.respawn:crash:0:2")
    assert plan.match("controlplane.health", shard=0, attempt=0) is not None
    assert plan.match("controlplane.health", shard=0, attempt=1) is None
    assert plan.match("controlplane.respawn", shard=0, attempt=1) is not None
    assert plan.match("controlplane.respawn", shard=1, attempt=0) is None
    with pytest.raises(ReproError):
        FaultSpec.parse("controlplane.respwan:crash")  # typo'd site


# ---------------------------------------------------------------------------
# CLI: die mid-run, resume from the checkpoint
# ---------------------------------------------------------------------------


def test_cli_resume_after_interrupt(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    base = [
        "linkpred", "--dataset", "ia-email",
        "--walks", "2", "--length", "4", "--dim", "4",
        "--w2v-epochs", "1", "--epochs", "3", "--seed", "7",
    ]
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert main(base) == 0
    clean_out = capsys.readouterr().out
    clean_acc = re.search(r"accuracy=\S+", clean_out).group(0)

    ck = ["--checkpoint-dir", str(tmp_path / "ck")]
    monkeypatch.setenv(ENV_VAR, "after-word2vec:error")
    assert main(base + ck) == 1
    err = capsys.readouterr().err
    assert "injected fault" in err

    monkeypatch.delenv(ENV_VAR)
    assert main(base + ck + ["--resume"]) == 0
    out = capsys.readouterr().out
    assert "cached phases: walks, embeddings" in out
    assert clean_acc in out
