"""Unit tests for the GPU execution/stall model (Fig. 3, 5, 6, 11)."""

import pytest

from repro.embedding.trainer import SgnsConfig, TrainerStats
from repro.errors import ModelError
from repro.hwmodel.gpu import (
    GpuKernelModel,
    StallBreakdown,
    Word2vecGpuModel,
    classifier_kernel,
    cpu_time_seconds,
    walk_kernel,
    word2vec_kernel,
)


def basic_kernel(**overrides):
    params = dict(
        name="k", items=1e6, fp_per_item=50.0, loads_per_item=20.0,
        bytes_per_item=100.0, serial_fp_chain=2.0, irregular_fraction=0.3,
        divergence_cv=0.5, working_set_bytes=1e8,
    )
    params.update(overrides)
    return GpuKernelModel(**params)


class TestStallBreakdown:
    def test_fractions_normalize(self):
        stalls = StallBreakdown(imc_miss=1.0, compute_dependency=3.0)
        fracs = stalls.fractions()
        assert sum(fracs.values()) == pytest.approx(1.0)
        assert stalls.dominant() == "compute_dependency"

    def test_empty_fractions(self):
        assert all(v == 0.0 for v in StallBreakdown().fractions().values())


class TestGpuKernelModel:
    def test_validation(self):
        with pytest.raises(ModelError):
            basic_kernel(items=-1)
        with pytest.raises(ModelError):
            basic_kernel(irregular_fraction=1.5)

    def test_report_metrics_in_range(self):
        report = basic_kernel().report()
        assert 0.0 <= report.sm_utilization <= 1.0
        assert 0.0 <= report.l2_hit_rate <= 1.0
        assert 0.0 <= report.dram_bw_utilization <= 1.0
        assert report.time_seconds > 0

    def test_more_work_takes_longer(self):
        fast = basic_kernel(items=1e5).report()
        slow = basic_kernel(items=1e7).report()
        assert slow.time_seconds > fast.time_seconds

    def test_irregularity_grows_with_divergence(self):
        calm = basic_kernel(divergence_cv=0.0, irregular_fraction=0.0).report()
        wild = basic_kernel(divergence_cv=2.0, irregular_fraction=0.8).report()
        assert wild.irregularity > calm.irregularity

    def test_working_set_controls_l2(self):
        small = basic_kernel(working_set_bytes=1e6).report()
        huge = basic_kernel(working_set_bytes=1e10).report()
        assert small.l2_hit_rate > huge.l2_hit_rate

    def test_launches_add_overhead(self):
        one = basic_kernel(kernel_launches=1).report()
        many = basic_kernel(kernel_launches=100000).report()
        assert many.launch_seconds > one.launch_seconds
        assert many.time_seconds > one.time_seconds

    def test_serial_chain_drives_compute_stalls(self):
        pipelined = basic_kernel(serial_fp_chain=1.0).report()
        chained = basic_kernel(serial_fp_chain=8.0).report()
        assert (
            chained.stalls.fractions()["compute_dependency"]
            > pipelined.stalls.fractions()["compute_dependency"]
        )

    def test_metric_row_keys(self):
        row = basic_kernel().report().metric_row()
        assert set(row) == {"sm_util", "l2_hit", "dram_bw",
                            "imbalance", "irregularity"}


class TestKernelConstructors:
    def test_walk_kernel_dominant_stall(self, email_walk_stats, email_graph):
        report = walk_kernel(email_walk_stats, email_graph).report()
        # Fig. 11: compute dependencies dominate the walk kernel (Eq. 1).
        assert report.stalls.dominant() == "compute_dependency"

    def test_word2vec_kernel_dominant_stall(self):
        stats = TrainerStats(pairs_trained=100000, updates=100)
        report = word2vec_kernel(stats, SgnsConfig(dim=8), 10000, 1024).report()
        # Fig. 11: memory (scoreboard) dependencies dominate word2vec.
        assert report.stalls.dominant() == "memory_scoreboard"

    def test_classifier_kernels_dominant_stall(self):
        for training in (True, False):
            report = classifier_kernel(
                "clf", [(16, 32), (32, 1)], 128, 100000, training=training
            ).report()
            # Fig. 11: IMC misses dominate the tiny-GEMM classifier.
            assert report.stalls.dominant() == "imc_miss"

    def test_classifier_sm_utilization_low(self):
        # §VII-B: classifier SM utilization below 10%.
        report = classifier_kernel(
            "clf", [(16, 32), (32, 1)], 128, 100000
        ).report()
        assert report.sm_utilization < 0.1


class TestWord2vecGpuModel:
    @pytest.fixture()
    def model(self):
        return Word2vecGpuModel(num_sentences=50000, pairs_per_sentence=10)

    def test_batching_speedup_saturates(self, model):
        speedups = model.batching_speedups([1, 16, 256, 4096, 16384])
        assert speedups[1] == pytest.approx(1.0)
        assert speedups[16] > 5
        assert speedups[4096] > 50
        # Fig. 5 shape: large, saturating, order-of-hundreds speedup.
        assert speedups[16384] < 1000
        assert abs(speedups[16384] - speedups[4096]) < 0.5 * speedups[4096]

    def test_optimization_ladder_monotone(self, model):
        ladder = model.optimization_ladder()
        values = [ladder["batch"], ladder["no-pad"],
                  ladder["coalesce"], ladder["par-red"]]
        assert values == sorted(values)
        assert ladder["batch"] > 50        # batching is the big win
        assert ladder["par-red"] > ladder["batch"]

    def test_invalid_batch(self, model):
        with pytest.raises(ModelError):
            model.batched_time(0)

    def test_larger_dim_slower(self):
        small = Word2vecGpuModel(1000, 10, dim=8).batched_time(1024)
        large = Word2vecGpuModel(1000, 10, dim=128).batched_time(1024)
        assert large > small


class TestCpuModel:
    def test_more_threads_faster_until_memory_bound(self):
        t1 = cpu_time_seconds(1e12, 1e9, threads=1)
        t64 = cpu_time_seconds(1e12, 1e9, threads=64)
        assert t64 < t1

    def test_memory_bound_floor(self):
        bound = cpu_time_seconds(1.0, 1e12, threads=128)
        config_bw = 380.0e9
        assert bound == pytest.approx(1e12 / config_bw)
