"""Compatibility alias for the walk-engine factory name.

The frontier-batched window-table kernel that once lived here is gone:
``cdf`` is the one production walk kernel and ``gumbel`` the O(M) scan
it is checked against.  Callers outside :mod:`repro` still import
``make_walk_engine`` from this module, so the name stays as an alias of
:class:`~repro.walk.engine.TemporalWalkEngine`, whose constructor takes
the same ``(graph, sampler=...)`` arguments and rejects unknown sampler
names with :class:`~repro.errors.WalkError`.
"""

from repro.walk.engine import TemporalWalkEngine

make_walk_engine = TemporalWalkEngine
