"""Tests for the kernel latency model — shapes must match the paper's §7.1."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.kernels import KernelCostModel, SgmvWorkload, sgmv_flop, sgmv_io_bytes
from repro.hw.spec import A100_80G, HwSpec
from repro.utils.units import US


@pytest.fixture(scope="module")
def model():
    return KernelCostModel(A100_80G)


def distinct_segments(bs):
    return tuple([1] * bs)


def lora_latency(model, segments, rank=16, h=4096, standalone=True):
    """Full LoRA addon latency; standalone=True = the Fig 8/9 microbench setting."""
    return model.lora_addon(segments, h_in=h, h_out=h, rank=rank, standalone=standalone)


class TestSgmvAccounting:
    def test_flop_formula(self):
        # Paper §7.1: FLOP = s_n * h_i * h_o * 2.
        assert sgmv_flop([2, 3], 16, 4096) == 5 * 16 * 4096 * 2

    def test_io_formula(self):
        # Paper §7.1: IO = [s_n(h_i+h_o) + n*h_i*h_o] * 2.
        assert sgmv_io_bytes([2, 3], 16, 4096) == (5 * (16 + 4096) + 2 * 16 * 4096) * 2

    def test_distinct_intensity_constant(self):
        # In the Distinct case FLOP and IO grow at the same rate (§7.1).
        w1 = SgmvWorkload(distinct_segments(1), 16, 4096)
        w64 = SgmvWorkload(distinct_segments(64), 16, 4096)
        assert w64.arithmetic_intensity == pytest.approx(w1.arithmetic_intensity, rel=0.01)

    def test_identical_intensity_grows(self):
        # In the Identical case intensity grows with batch (weight reuse).
        w1 = SgmvWorkload((1,), 16, 4096)
        w64 = SgmvWorkload((64,), 16, 4096)
        assert w64.arithmetic_intensity > 10 * w1.arithmetic_intensity

    def test_invalid_segments(self):
        with pytest.raises(ValueError):
            SgmvWorkload((), 16, 4096)
        with pytest.raises(ValueError):
            SgmvWorkload((0, 1), 16, 4096)


class TestSgmvLatencyShape:
    """Fig 8/9 shapes: Distinct grows, Uniform/Skewed mild, Identical flat."""

    def test_batch1_near_paper_37us(self, model):
        t = lora_latency(model, (1,))
        assert 30 * US < t < 50 * US

    def test_distinct_bs64_near_paper_fig9(self, model):
        # Fig 9 reports ~75us for rank-16 distinct bs-64 (Fig 8's 116us for
        # the same config disagrees with Fig 9; we calibrate to Fig 9, which
        # carries the rank structure — see EXPERIMENTS.md).
        t = lora_latency(model, distinct_segments(64))
        assert 60 * US < t < 130 * US

    def test_identical_flat(self, model):
        t1 = lora_latency(model, (1,))
        t64 = lora_latency(model, (64,))
        assert t64 < t1 * 1.25  # paper: 37us -> 40us

    def test_uniform_mild_growth(self, model):
        t1 = lora_latency(model, (1,))
        t64 = lora_latency(model, tuple([8] * 8))  # 8 models x 8 requests
        assert t64 < t1 * 1.5  # paper: 37us -> 46us

    def test_distinct_monotone_in_batch(self, model):
        ts = [lora_latency(model, distinct_segments(b)) for b in (1, 8, 16, 32, 64)]
        assert ts == sorted(ts)

    def test_rank_sweep_ordering_fig9(self, model):
        # Larger ranks cost more at large distinct batch; batch-1 nearly equal.
        t64 = [lora_latency(model, distinct_segments(64), rank=r) for r in (8, 16, 32, 64)]
        assert t64 == sorted(t64)
        t1 = [lora_latency(model, (1,), rank=r) for r in (8, 16, 32, 64)]
        assert max(t1) < min(t1) * 1.3

    def test_in_engine_cheaper_than_standalone(self, model):
        # Back-to-back launches skip host dispatch: the reason a full layer's
        # seven LoRA addons cost far less than 7x the standalone op.
        segs = distinct_segments(32)
        engine = lora_latency(model, segs, standalone=False)
        bench = lora_latency(model, segs, standalone=True)
        assert engine < bench
        expected_gap = 2 * (A100_80G.op_dispatch_overhead + 32 * A100_80G.segment_host_cost)
        assert bench - engine == pytest.approx(expected_gap)

    def test_in_engine_batch1_under_10us(self, model):
        # Consistent with the paper's "+2ms per token" total LoRA overhead:
        # 7 projections x 32 layers x this must stay ~2ms.
        assert lora_latency(model, (1,), standalone=False) < 12 * US


def sgmv_from_workload(spec, work, standalone):
    """One SGMV launch priced from the validated segment vector, through
    ``SgmvWorkload.flop`` / ``io_bytes`` / ``all_distinct`` — the direct
    form ``KernelCostModel.sgmv`` had before it priced from ``(s_n, n)``;
    kept here as the oracle for the aggregate form."""
    overhead = spec.sgmv_kernel_overhead
    if standalone:
        overhead += spec.op_dispatch_overhead
        overhead += spec.segment_host_cost * work.num_models
    if work.all_distinct:
        rank = min(work.h_in, work.h_out)
        weight_io = float(work.num_models) * work.h_in * work.h_out * 2
        token_io = float(work.batch_size) * (work.h_in + work.h_out) * 2
        bw = min(spec.gemv_bw.achieved(rank), spec.hbm_bandwidth)
        return overhead + (weight_io + token_io) / bw
    t_memory = work.io_bytes / (spec.hbm_bandwidth * spec.tc_bandwidth_efficiency)
    t_compute = work.flop / (spec.peak_fp16_flops * spec.gemm_efficiency)
    return overhead + max(t_memory, t_compute)


class TestLoraAddonAggregates:
    """A launch costs only through ``(s_n, n)`` (§7.1): the segment-vector
    signature and the aggregate form are one implementation."""

    @given(
        segments=st.lists(st.integers(1, 900), min_size=1, max_size=12),
        h_in=st.sampled_from([4096, 5120, 11008]),
        h_out=st.sampled_from([1024, 4096, 13824]),
        rank=st.sampled_from([8, 16, 64]),
        standalone=st.booleans(),
        preset=st.sampled_from(["a100-80g", "h100", "l4"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_segments_equal_aggregates_equal_the_direct_form(
        self, segments, h_in, h_out, rank, standalone, preset
    ):
        spec = HwSpec.preset(preset)
        kcm = KernelCostModel(spec)
        direct = sgmv_from_workload(
            spec, SgmvWorkload(tuple(segments), h_in, rank), standalone
        ) + sgmv_from_workload(
            spec, SgmvWorkload(tuple(segments), rank, h_out), standalone
        )
        by_segments = kcm.lora_addon(segments, h_in, h_out, rank, standalone)
        by_totals = kcm.lora_addon_total(
            sum(segments), len(segments), h_in, h_out, rank, standalone
        )
        assert by_segments == by_totals == direct
        work = SgmvWorkload(tuple(segments), h_in, rank)
        assert kcm.sgmv(work, standalone) == sgmv_from_workload(spec, work, standalone)

    @pytest.mark.parametrize("warm", [True, False])
    def test_bad_segments_still_raise(self, warm):
        kcm = KernelCostModel(A100_80G)
        if warm:
            # Warm the (s_n=4, n=3) entry a bad vector below aggregates to.
            kcm.lora_addon((1, 1, 2), 4096, 4096, 16)
        for bad in ((), (0, 1), (3, -1, 2)):
            with pytest.raises(ValueError):
                kcm.lora_addon(bad, 4096, 4096, 16)
        for s_n, n in ((0, 0), (2, 3), (4, 0)):
            with pytest.raises(ValueError):
                kcm.lora_addon_total(s_n, n, 4096, 4096, 16)
        for h_in, h_out, rank in ((0, 4096, 16), (4096, -1, 16), (4096, 4096, 0)):
            with pytest.raises(ValueError):
                kcm.lora_addon_total(8, 2, h_in, h_out, rank)


def _memoised_calls(kcm, segments, dims, seq):
    """One call of every memoised kernel of ``kcm``, in a fixed order."""
    h_in, h_out, rank = dims
    return [
        kcm.gemm(sum(segments), h_out, h_in),
        kcm.lora_addon_total(sum(segments), len(segments), h_in, h_out, rank),
        kcm.lora_addon(segments, h_in, h_out, rank, standalone=True),
        kcm.loop_lora(segments, h_in, h_out, rank),
        kcm.gather_bmm_lora(segments, h_in, h_out, rank),
        kcm.attention_prefill(seq, 32, 128, 8),
        kcm.attention_prefill(seq, 32, 128, flash=False),
        kcm.attention_verify(len(segments), seq, 32, 128, 8),
    ]


class TestKernelMemo:
    """The memo is unconditional, so its oracle is a fresh model: a hit
    must return the float the formula produces, bit for bit."""

    @given(
        segments=st.lists(st.integers(1, 64), min_size=1, max_size=8).map(tuple),
        dims=st.sampled_from([(4096, 4096, 16), (4096, 11008, 8), (5120, 1024, 64)]),
        seq=st.integers(1, 4096),
        preset=st.sampled_from(["a100-80g", "h100", "l4"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_warm_second_call_equals_fresh_first_call(
        self, segments, dims, seq, preset
    ):
        spec = HwSpec.preset(preset)
        warm = KernelCostModel(spec)
        first = _memoised_calls(warm, segments, dims, seq)
        second = _memoised_calls(warm, segments, dims, seq)
        fresh = _memoised_calls(KernelCostModel(spec), segments, dims, seq)
        assert second == first == fresh
        assert all(a.hex() == b.hex() for a, b in zip(second, fresh))

    def test_full_memo_clears_and_rebuilds(self, monkeypatch):
        import repro.hw.kernels as kernels

        monkeypatch.setattr(kernels, "_MEMO_LIMIT", 5)
        kcm = KernelCostModel(A100_80G)
        sizes = []
        for _ in range(2):
            for m in range(1, 18):
                got = kcm.gemm(m, 4096, 4096)
                assert got == KernelCostModel(A100_80G).gemm(m, 4096, 4096)
                sizes.append(len(kcm._memo))
        assert max(sizes) == 5
        # A put into a full memo clears it first: 1..5, 1..5, ...
        assert sizes[:12] == [1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 1, 2]


class TestLoraOperatorComparison:
    """Fig 8: SGMV << Gather-BMM << Loop on multi-LoRA workloads."""

    def test_loop_terrible_on_distinct(self, model):
        segs = distinct_segments(32)
        assert model.loop_lora(segs, 4096, 4096, 16) > 5 * lora_latency(model, segs)

    def test_gather_bmm_worse_than_sgmv(self, model):
        segs = distinct_segments(64)
        assert model.gather_bmm_lora(segs, 4096, 4096, 16) > lora_latency(model, segs)

    def test_identical_case_all_close_except_gather_overhead(self, model):
        # With one model all three share BMM semantics; SGMV still wins
        # because Gather-BMM pays the stacked-copy IO.
        segs = (64,)
        sgmv = lora_latency(model, segs)
        gbmm = model.gather_bmm_lora(segs, 4096, 4096, 16)
        assert sgmv < gbmm

    def test_gather_io_grows_with_batch(self, model):
        t8 = model.gather(8, 8, 4096, 16)
        t64 = model.gather(64, 64, 4096, 16)
        assert t64 > t8


class TestGemm:
    def test_decode_gemm_is_memory_bound(self, model):
        # m=1: latency ~ weight bytes / bandwidth.
        t = model.gemm(1, 4096, 4096)
        weight_time = (4096 * 4096 * 2) / (
            A100_80G.hbm_bandwidth * A100_80G.tc_bandwidth_efficiency
        )
        assert t == pytest.approx(A100_80G.kernel_launch_overhead + weight_time, rel=0.01)

    def test_batching_nearly_free_in_memory_bound_regime(self, model):
        t1 = model.gemm(1, 4096, 4096)
        t32 = model.gemm(32, 4096, 4096)
        assert t32 < t1 * 1.1

    def test_prefill_gemm_scales_with_tokens(self, model):
        t512 = model.gemm(512, 4096, 4096)
        t2048 = model.gemm(2048, 4096, 4096)
        assert t2048 > 3.0 * t512

    def test_invalid_dims(self, model):
        with pytest.raises(ValueError):
            model.gemm(0, 1, 1)


class TestAttention:
    def test_decode_scales_with_kv_length(self, model):
        short = model.attention_decode([128] * 32, 32, 128)
        long = model.attention_decode([2048] * 32, 32, 128)
        assert long > 8 * short

    def test_prefill_flash_beats_naive(self, model):
        flash = model.attention_prefill(2048, 32, 128, flash=True)
        naive = model.attention_prefill(2048, 32, 128, flash=False)
        assert naive > flash

    def test_gqa_reduces_decode_io(self, model):
        mha = model.attention_decode([1024] * 8, 64, 128, num_kv_heads=64)
        gqa = model.attention_decode([1024] * 8, 64, 128, num_kv_heads=8)
        assert gqa < mha

    def test_empty_kv_ok(self, model):
        t = model.attention_decode([0], 32, 128)
        assert t > 0

    def test_negative_kv_rejected(self, model):
        with pytest.raises(ValueError):
            model.attention_decode([-1], 32, 128)


class TestSmallOps:
    def test_layernorm_fusion_ratio(self, model):
        # Paper §6: 110us -> 4us.
        assert model.layernorm(fused=False) / model.layernorm(fused=True) == pytest.approx(27.5)

    def test_elementwise_scales(self, model):
        assert model.elementwise(1e8) > model.elementwise(1e6)

    def test_elementwise_negative_rejected(self, model):
        with pytest.raises(ValueError):
            model.elementwise(-1)
