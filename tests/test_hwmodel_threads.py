"""Unit tests for the thread-scaling simulator (Fig. 10)."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.hwmodel.threads import (
    SchedulerCosts,
    scaling_curve,
    simulate_schedule,
)

NO_CAP = SchedulerCosts(bandwidth_speedup_cap=None, per_thread_startup=0.0,
                        per_chunk_dispatch=0.0, per_steal=0.0)


class TestSimulateSchedule:
    def test_single_thread_matches_serial(self):
        work = np.ones(100)
        result = simulate_schedule(work, 1, costs=NO_CAP)
        assert result.makespan == pytest.approx(100.0)
        assert result.speedup == pytest.approx(1.0)

    def test_uniform_work_scales_linearly(self):
        work = np.ones(1000)
        result = simulate_schedule(work, 10, policy="static", costs=NO_CAP)
        assert result.speedup == pytest.approx(10.0, rel=0.05)

    def test_dynamic_beats_static_on_sorted_skew(self):
        # Put all heavy items in one contiguous block: static assigns the
        # block to one thread, dynamic spreads chunks.
        work = np.concatenate([np.full(128, 100.0), np.full(896, 1.0)])
        static = simulate_schedule(work, 8, policy="static", costs=NO_CAP)
        dynamic = simulate_schedule(work, 8, policy="dynamic", chunk=16,
                                    costs=NO_CAP)
        assert dynamic.makespan < static.makespan

    def test_load_imbalance_metric(self):
        work = np.concatenate([np.full(10, 100.0), np.full(70, 1.0)])
        static = simulate_schedule(work, 8, policy="static", costs=NO_CAP)
        assert static.load_imbalance > 1.5

    def test_invalid_threads(self):
        with pytest.raises(ModelError):
            simulate_schedule(np.ones(4), 0)

    def test_invalid_policy(self):
        with pytest.raises(ModelError):
            simulate_schedule(np.ones(4), 2, policy="magic")

    def test_makespan_never_below_critical_path(self):
        work = np.array([1000.0] + [1.0] * 99)
        result = simulate_schedule(work, 64, policy="dynamic", chunk=1,
                                   costs=NO_CAP)
        assert result.makespan >= 1000.0

    def test_bandwidth_cap_floors_makespan(self):
        work = np.ones(10000)
        capped = simulate_schedule(
            work, 256,
            costs=SchedulerCosts(bandwidth_speedup_cap=16.0,
                                 per_thread_startup=0.0,
                                 per_chunk_dispatch=0.0, per_steal=0.0),
        )
        assert capped.speedup <= 16.0 + 1e-6


class TestScalingCurve:
    def test_monotone_then_flat(self, email_walk_stats):
        work = email_walk_stats.work_per_start_node + 1.0
        curve = scaling_curve(work, [1, 2, 4, 8, 16, 64, 256])
        assert curve[1] == pytest.approx(1.0, rel=0.05)
        assert curve[2] > 1.5
        assert curve[8] > curve[2]
        # Fig. 10: no improvement past the saturation knee.
        assert curve[256] <= curve[64] * 1.1

    def test_startup_cost_penalizes_many_threads(self):
        work = np.ones(100)
        costs = SchedulerCosts(per_thread_startup=50.0,
                               bandwidth_speedup_cap=None)
        curve = scaling_curve(work, [1, 64], costs=costs)
        assert curve[64] < 2.0  # startup swamps the tiny workload

