"""Additional GPU/CPU model edge-case tests."""

import pytest

from repro.hwmodel.gpu import (
    CpuConfig,
    GpuConfig,
    GpuKernelModel,
    Word2vecGpuModel,
    cpu_time_seconds,
)


class TestWord2vecGpuModelEdgeCases:
    def test_batch_capped_at_corpus_size(self):
        model = Word2vecGpuModel(num_sentences=100, pairs_per_sentence=5)
        # Requesting a batch larger than the corpus must not be slower
        # than the exact-corpus batch (no phantom transfer).
        t_exact = model.batched_time(100)
        t_over = model.batched_time(100_000)
        assert t_over == pytest.approx(t_exact)

    def test_optimization_ladder_respects_small_corpus(self):
        model = Word2vecGpuModel(num_sentences=50, pairs_per_sentence=5)
        ladder = model.optimization_ladder(batch_sentences=16384)
        assert all(v >= 1.0 for v in ladder.values())

    def test_more_negatives_cost_more(self):
        cheap = Word2vecGpuModel(1000, 5, negatives=2).batched_time(256)
        costly = Word2vecGpuModel(1000, 5, negatives=20).batched_time(256)
        assert costly > cheap

    def test_pad_and_coalesce_levers(self):
        model = Word2vecGpuModel(10_000, 10)
        padded = model.batched_time(1024)  # default: padded, uncoalesced
        no_pad = model.batched_time(1024, line_utilization=1.0)
        coalesced = model.batched_time(1024, line_utilization=1.0,
                                       coalesced=True)
        assert no_pad < padded
        assert coalesced < no_pad


class TestGpuKernelEdgeCases:
    def test_zero_item_kernel(self):
        kernel = GpuKernelModel(name="empty", items=0, fp_per_item=0,
                                loads_per_item=0, bytes_per_item=0)
        report = kernel.report()
        assert report.time_seconds >= 0
        assert report.sm_utilization == 0.0

    def test_transfer_dominates_tiny_kernels(self):
        kernel = GpuKernelModel(
            name="tiny", items=10, fp_per_item=1.0, loads_per_item=1.0,
            bytes_per_item=8.0, transfer_bytes=1e9,
        )
        report = kernel.report()
        assert report.transfer_seconds > 0.9 * report.time_seconds

    def test_custom_config_changes_time(self):
        kernel = GpuKernelModel(
            name="k", items=1e7, fp_per_item=100.0, loads_per_item=10.0,
            bytes_per_item=80.0,
        )
        fast = kernel.report(GpuConfig())
        slow = kernel.report(GpuConfig(fp_tflops=1.0, dram_bw_gbs=100.0))
        assert slow.time_seconds > fast.time_seconds


class TestCpuModelEdgeCases:
    def test_threads_clamped_to_cores(self):
        config = CpuConfig(cores=8)
        t8 = cpu_time_seconds(1e12, 1.0, threads=8, config=config)
        t800 = cpu_time_seconds(1e12, 1.0, threads=800, config=config)
        assert t800 == pytest.approx(t8)

    def test_single_thread_no_efficiency_penalty(self):
        config = CpuConfig(cores=8, parallel_efficiency=0.5)
        t1 = cpu_time_seconds(1e10, 1.0, threads=1, config=config)
        expected = 1e10 / (config.ipc * config.clock_ghz * 1e9)
        assert t1 == pytest.approx(expected)
