"""Deterministic fault injection for the pipeline, stream and serving tiers.

Fault tolerance is only trustworthy if failures are reproducible on
demand.  This module provides a small, env/config-driven hook that the
batch pipeline (:mod:`repro.tasks.pipeline`), the streaming ingest
layer (:mod:`repro.stream`) and the serving control plane
(:mod:`repro.serving.controlplane`) consult at well-defined *sites*:

- pipeline sites: ``after-walks``, ``after-word2vec`` and
  ``after-task``, fired in the driver process right after a phase
  completes (and after its checkpoint, if any, has been written) — the
  way to simulate a run dying between phases;
- stream sites (``stream.*``) and control-plane sites
  (``controlplane.*``), documented where they are declared below.

A :class:`FaultSpec` selects a site, a fault kind, an optional shard
(the batch index or shard id the site passes in), and how many attempts
to sabotage: a spec fires while the site's ``attempt`` is below
``times``.

Fault kinds
-----------
``crash``
    ``os._exit`` with :data:`CRASH_EXIT_CODE`: an abrupt death that
    skips all cleanup, like the OOM killer.
``error``
    Raise :class:`~repro.errors.FaultInjected`: a clean exception.

Plans can be built programmatically
(``FaultPlan.parse("after-walks:crash")``) or ambient via the
``REPRO_FAULTS`` environment variable, which holds a comma-separated
list of ``site:kind[:shard[:times]]`` specs (shard ``*`` matches any
shard).  An unknown site or kind is rejected when the plan is parsed,
so a stale ``REPRO_FAULTS`` fails loudly instead of never firing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import FaultInjected, ReproError

ENV_VAR = "REPRO_FAULTS"

#: Exit code used by injected ``crash`` faults, so a caller can tell an
#: injected crash from a real one.
CRASH_EXIT_CODE = 73

KINDS = ("crash", "error")

PIPELINE_SITES = ("after-walks", "after-word2vec", "after-task")
#: Streaming-ingest sites (:mod:`repro.stream`), fired with the batch
#: index as the shard: ``stream.wal.write`` fires halfway through the
#: batch's edge records (a crash there leaves a torn segment tail);
#: ``stream.wal.fsync`` fires after the records are written but before
#: the commit record + fsync acknowledge the batch (a crash there loses
#: exactly the in-flight batch); ``stream.controller.drain`` fires when
#: the controller picks a batch off the ingest queue, before any write.
STREAM_SITES = ("stream.wal.write", "stream.wal.fsync",
                "stream.controller.drain")
#: Control-plane sites (:mod:`repro.serving.controlplane`), fired with
#: the shard id as the shard: ``controlplane.health`` fires at the top
#: of each supervision sweep in the *router* process (an ``error``
#: there skips the sweep; the loop must survive it);
#: ``controlplane.respawn`` fires inside a *respawned* worker before it
#: serves its first command, with ``attempt`` = how many respawns this
#: slot has already burned — ``crash`` there is the crash-loop drill
#: that must trip the ``max_respawns`` circuit breaker.
CONTROLPLANE_SITES = ("controlplane.health", "controlplane.respawn")
SITES = PIPELINE_SITES + STREAM_SITES + CONTROLPLANE_SITES


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: where, what, which shard, and how often."""

    site: str
    kind: str
    shard: int | None = None
    times: int = 1

    def __post_init__(self) -> None:
        if self.site not in SITES:
            # A typo'd site would parse fine and then silently never
            # fire, making a fault-tolerance test vacuously green.
            raise ReproError(
                f"unknown fault site {self.site!r}; options: {', '.join(SITES)}"
            )
        if self.kind not in KINDS:
            raise ReproError(
                f"unknown fault kind {self.kind!r}; options: {', '.join(KINDS)}"
            )
        if self.times < 1:
            raise ReproError(f"fault times must be >= 1, got {self.times}")

    def matches(self, site: str, shard: int, attempt: int) -> bool:
        """True when this spec should fire at (site, shard, attempt)."""
        return (
            self.site == site
            and (self.shard is None or self.shard == shard)
            and attempt < self.times
        )

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse ``site:kind[:shard[:times]]`` (shard ``*`` = any)."""
        parts = text.strip().split(":")
        if not 2 <= len(parts) <= 4:
            raise ReproError(
                f"bad fault spec {text!r}; expected site:kind[:shard[:times]]"
            )
        site, kind = parts[0], parts[1]
        shard: int | None = None
        times = 1
        try:
            if len(parts) > 2 and parts[2] not in ("", "*"):
                shard = int(parts[2])
            if len(parts) > 3 and parts[3]:
                times = int(parts[3])
        except ValueError as exc:
            raise ReproError(f"bad fault spec {text!r}: {exc}") from exc
        return cls(site=site, kind=kind, shard=shard, times=times)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of fault specs consulted at every injection site.

    The empty plan (the default everywhere) never fires and costs one
    tuple iteration per site visit.
    """

    specs: tuple[FaultSpec, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.specs)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a comma-separated list of fault specs (may be empty)."""
        specs = tuple(
            FaultSpec.parse(part)
            for part in text.split(",")
            if part.strip()
        )
        return cls(specs=specs)

    @classmethod
    def from_env(cls, environ=None) -> "FaultPlan":
        """Build a plan from ``REPRO_FAULTS`` (empty plan when unset)."""
        env = os.environ if environ is None else environ
        return cls.parse(env.get(ENV_VAR, ""))

    # ------------------------------------------------------------------
    def match(self, site: str, shard: int, attempt: int) -> FaultSpec | None:
        """First spec firing at (site, shard, attempt), or None."""
        for spec in self.specs:
            if spec.matches(site, shard, attempt):
                return spec
        return None

    def fire(self, site: str, shard: int = 0, attempt: int = 0) -> None:
        """Execute any fault matching (site, shard, attempt)."""
        spec = self.match(site, shard, attempt)
        if spec is None:
            return
        if spec.kind == "crash":
            os._exit(CRASH_EXIT_CODE)
        raise FaultInjected(
            f"injected fault at site={site} shard={shard} attempt={attempt}"
        )
