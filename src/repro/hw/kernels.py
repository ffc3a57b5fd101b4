"""Analytical latency model of the GPU kernels Punica executes.

Each method returns the modelled wall-clock latency (seconds) of one kernel
launch on a :class:`~repro.hw.spec.GpuSpec`. The models follow the paper's
own analysis (§4 kernel schedules, §7.1 roofline/IO accounting):

* ``gemm`` — backbone dense projections; tensor-core roofline with an
  efficiency factor, IO counts weights + activations.
* ``sgmv`` — one SGMV launch. Two schedules, as in the paper: when every
  segment holds a single token the kernel degrades to grouped GEMV and is
  bound by a *saturating* achieved bandwidth that grows with the thin
  dimension (coalescing); otherwise the tensor-core schedule streams each
  LoRA's weight tile once and is bound by HBM bandwidth at tensor-core
  streaming efficiency.
* ``attention_prefill`` / ``attention_decode`` — FlashAttention-style
  (IO-optimal) and naive (materialized score matrix) variants.
* ``gather`` / ``bmm`` — the Gather-BMM baseline's building blocks; Gather
  reads ``n`` weight tiles and writes ``s_n`` copies, which is exactly the
  extra IO the paper charges it with.
* ``layernorm`` — fused (4 us) vs unfused (110 us), §6.

The model is deliberately *not* a cycle simulator: the paper's conclusions
rest on FLOP/IO/parallelism arguments, and those are what we encode.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.hw.spec import FP16_BYTES, GpuSpec
from repro.utils.validation import check_positive


def sgmv_flop(segments: Sequence[int], h_in: int, h_out: int) -> float:
    """FLOP count of one SGMV launch (paper §7.1): ``s_n * h_in * h_out * 2``."""
    return _sgmv_flop(int(sum(segments)), h_in, h_out)


def sgmv_io_bytes(segments: Sequence[int], h_in: int, h_out: int) -> float:
    """IO bytes of one SGMV launch (paper §7.1).

    ``[s_n * (h_in + h_out) + n * h_in * h_out] * 2`` — every token's input
    and output vector once, plus each distinct LoRA weight tile once.
    """
    return _sgmv_io_bytes(int(sum(segments)), len(segments), h_in, h_out)


def _sgmv_flop(s_n: int, h_in: int, h_out: int) -> float:
    return float(s_n) * h_in * h_out * 2.0


def _sgmv_io_bytes(s_n: int, n: int, h_in: int, h_out: int) -> float:
    return (float(s_n) * (h_in + h_out) + float(n) * h_in * h_out) * FP16_BYTES


@dataclass(frozen=True)
class SgmvWorkload:
    """One SGMV launch: ``segments[i]`` tokens hit LoRA model ``i``.

    This mirrors the paper's segment-index vector ``s``: the batch is
    partitioned into consecutive runs, one per distinct LoRA model.
    """

    segments: tuple[int, ...]
    h_in: int
    h_out: int

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("SGMV workload needs at least one segment")
        if any(s <= 0 for s in self.segments):
            raise ValueError(f"segment sizes must be positive, got {self.segments}")
        check_positive("h_in", self.h_in)
        check_positive("h_out", self.h_out)

    @property
    def batch_size(self) -> int:
        return int(sum(self.segments))

    @property
    def num_models(self) -> int:
        return len(self.segments)

    @property
    def flop(self) -> float:
        return sgmv_flop(self.segments, self.h_in, self.h_out)

    @property
    def io_bytes(self) -> float:
        return sgmv_io_bytes(self.segments, self.h_in, self.h_out)

    @property
    def arithmetic_intensity(self) -> float:
        return self.flop / self.io_bytes

    @property
    def all_distinct(self) -> bool:
        """True when every request targets its own LoRA (GEMV schedule)."""
        return all(s == 1 for s in self.segments)


_MEMO_LIMIT = 1 << 16
"""Distinct-argument cap per cost model; reached only by adversarial
workloads, in which case the memo is cleared and rebuilt."""


class KernelCostModel:
    """Latency model for every kernel the Punica runtime invokes.

    The pure per-kernel latency functions cache their results keyed on
    their arguments. A memo hit returns the exact float the formula
    produced the first time, so memoisation is bit-identical to
    recomputation (``tests/test_hw_kernels.py`` checks a warm model
    against a fresh one).
    """

    def __init__(self, spec: GpuSpec):
        self.spec = spec
        self._memo: dict = {}

    def _memo_put(self, key, value: float) -> float:
        memo = self._memo
        if len(memo) >= _MEMO_LIMIT:
            memo.clear()
        memo[key] = value
        return value

    # ------------------------------------------------------------------
    # Dense projections (backbone)
    # ------------------------------------------------------------------
    def gemm(self, m: int, n: int, k: int) -> float:
        """Dense fp16 GEMM ``(m,k) @ (k,n)``.

        IO counts the weight matrix, input and output activations. For the
        decode stage ``m`` is the batch size (small), so the weight stream
        dominates — exactly the low-utilization regime Fig 1 shows.
        """
        hit = self._memo.get(("gemm", m, n, k))
        if hit is not None:
            return hit
        if min(m, n, k) <= 0:
            raise ValueError(f"GEMM dims must be positive, got {(m, n, k)}")
        spec = self.spec
        flop = 2.0 * m * n * k
        io = float(m * k + k * n + m * n) * FP16_BYTES
        t_compute = flop / (spec.peak_fp16_flops * spec.gemm_efficiency)
        t_memory = io / (spec.hbm_bandwidth * spec.tc_bandwidth_efficiency)
        return self._memo_put(
            ("gemm", m, n, k),
            spec.kernel_launch_overhead + max(t_compute, t_memory),
        )

    # ------------------------------------------------------------------
    # SGMV
    # ------------------------------------------------------------------
    def sgmv(self, work: SgmvWorkload, standalone: bool = False) -> float:
        """One SGMV launch (shrink *or* expand half of the LoRA addon).

        ``standalone=True`` prices the Fig 8/9 microbenchmark setting: the
        op is dispatched by itself through the PyTorch extension layer, so
        each launch pays host dispatch on top of the kernel. In-engine
        (default) launches are back-to-back and pay only the kernel cost.
        """
        return self._sgmv_launch(
            work.batch_size, work.num_models, work.h_in, work.h_out, standalone
        )

    def _sgmv_launch(
        self, s_n: int, n: int, h_in: int, h_out: int, standalone: bool
    ) -> float:
        """:meth:`sgmv` from the segment aggregates: ``s_n`` tokens over
        ``n`` (positive) segments. A launch costs only through the two
        (§7.1), and every segment holds one token iff ``s_n == n``."""
        spec = self.spec
        overhead = spec.sgmv_kernel_overhead
        if standalone:
            # Host dispatch plus per-call segment-index construction; the
            # engine amortizes both (segment indices reused 7L times, §6).
            overhead += spec.op_dispatch_overhead
            overhead += spec.segment_host_cost * n
        if s_n == n:
            return overhead + self._sgmv_gemv_time(s_n, n, h_in, h_out)
        return overhead + self._sgmv_tc_time(s_n, n, h_in, h_out)

    def _sgmv_gemv_time(self, s_n: int, n: int, h_in: int, h_out: int) -> float:
        """GEMV schedule: each segment is one matrix-vector product.

        IO-bound with *coalescing-limited* achieved bandwidth: the thin
        dimension (the LoRA rank) sets the contiguous read length, so the
        achieved bandwidth follows the saturating fit in
        :class:`~repro.hw.spec.GemvBandwidthModel`.
        """
        spec = self.spec
        rank = min(h_in, h_out)
        weight_io = float(n) * h_in * h_out * FP16_BYTES
        token_io = float(s_n) * (h_in + h_out) * FP16_BYTES
        bw = min(spec.gemv_bw.achieved(rank), spec.hbm_bandwidth)
        return (weight_io + token_io) / bw

    def _sgmv_tc_time(self, s_n: int, n: int, h_in: int, h_out: int) -> float:
        """Tensor-core schedule: each LoRA weight tile streamed once.

        The expand kernel splits the output dimension across thread blocks;
        the shrink kernel uses Split-K. Both stream every distinct weight
        tile exactly once, so the memory term uses the paper's IO formula at
        tensor-core streaming efficiency; the compute term is the dense
        roofline.
        """
        spec = self.spec
        t_memory = _sgmv_io_bytes(s_n, n, h_in, h_out) / (
            spec.hbm_bandwidth * spec.tc_bandwidth_efficiency
        )
        t_compute = _sgmv_flop(s_n, h_in, h_out) / (
            spec.peak_fp16_flops * spec.gemm_efficiency
        )
        return max(t_memory, t_compute)

    def lora_addon(
        self,
        segments: Sequence[int],
        h_in: int,
        h_out: int,
        rank: int,
        standalone: bool = False,
    ) -> float:
        """Full batched LoRA addon ``y += x A B`` = shrink launch + expand launch.

        Validates the segment vector, then prices it through
        :meth:`lora_addon_total`: both SGMV schedules depend on it only
        through ``s_n`` and ``n``, so two segmentations with equal
        aggregates price through the identical float operations.
        """
        segs = tuple(int(s) for s in segments)
        if not segs:
            raise ValueError("SGMV workload needs at least one segment")
        if min(segs) <= 0:
            raise ValueError(f"segment sizes must be positive, got {segs}")
        return self.lora_addon_total(sum(segs), len(segs), h_in, h_out, rank, standalone)

    def lora_addon_total(
        self,
        s_n: int,
        n: int,
        h_in: int,
        h_out: int,
        rank: int,
        standalone: bool = False,
    ) -> float:
        """:meth:`lora_addon` from the segment aggregates alone: ``s_n``
        tokens over ``n`` segments (see :func:`sgmv_flop` /
        :func:`sgmv_io_bytes`; the GEMV schedule applies iff ``s_n == n``,
        and the standalone dispatch surcharge scales with ``n``). The
        aggregates are also the memo key, so batches whose LoRA membership
        shuffles without changing size or distinct-model count share one
        entry, and a caller that already holds a validated batch's token
        total (:mod:`repro.models.perf`) passes it straight in.
        """
        key = ("lora_addon", s_n, n, h_in, h_out, rank, standalone)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if not 1 <= n <= s_n:
            raise ValueError(
                f"need 1 <= segments <= tokens, got {n} segments over {s_n} tokens"
            )
        check_positive("h_in", h_in)
        check_positive("h_out", h_out)
        check_positive("rank", rank)
        return self._memo_put(
            key,
            self._sgmv_launch(s_n, n, h_in, rank, standalone)
            + self._sgmv_launch(s_n, n, rank, h_out, standalone),
        )

    # ------------------------------------------------------------------
    # Baseline LoRA operator implementations (paper §7.1, Fig 8)
    # ------------------------------------------------------------------
    def loop_lora(self, segments: Sequence[int], h_in: int, h_out: int, rank: int) -> float:
        """PyTorch for-loop baseline: one pair of GEMMs per distinct LoRA.

        Each iteration pays eager-mode framework dispatch on top of the
        kernel itself — the reason the paper's Loop line is off the chart
        on multi-LoRA workloads.
        """
        key = ("loop_lora", tuple(segments), h_in, h_out, rank)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        total = 0.0
        for seg in segments:
            if seg <= 0:
                raise ValueError(f"segment sizes must be positive, got {segments}")
            total += self.gemm(seg, rank, h_in) + self.gemm(seg, h_out, rank)
            total += 2 * self.spec.framework_op_overhead
        return self._memo_put(key, total)

    def gather(self, n_models: int, s_n: int, h_in: int, h_out: int) -> float:
        """Gather step of Gather-BMM: stack per-token weight copies.

        Reads ``n * h_in * h_out`` weight elements, writes ``s_n * h_in *
        h_out`` stacked copies — the extra IO the paper charges this
        baseline with.
        """
        spec = self.spec
        read = float(n_models) * h_in * h_out * FP16_BYTES
        write = float(s_n) * h_in * h_out * FP16_BYTES
        return spec.kernel_launch_overhead + (read + write) / (spec.hbm_bandwidth * 0.85)

    def bmm(self, batch: int, m: int, n: int, k: int) -> float:
        """``torch.bmm``: ``batch`` independent ``(m,k)@(k,n)`` products.

        With ``m == 1`` (decode) this is a batch of GEMVs; cuBLAS achieves
        modest bandwidth there, modelled with the GEMV saturating curve.
        """
        spec = self.spec
        flop = 2.0 * batch * m * n * k
        io = float(batch) * (m * k + k * n + m * n) * FP16_BYTES
        if m == 1:
            bw = min(spec.gemv_bw.achieved(min(n, k)), spec.hbm_bandwidth)
            t_memory = io / bw
        else:
            t_memory = io / (spec.hbm_bandwidth * spec.tc_bandwidth_efficiency)
        t_compute = flop / (spec.peak_fp16_flops * spec.gemm_efficiency)
        return spec.kernel_launch_overhead + max(t_compute, t_memory)

    def gather_bmm_lora(
        self, segments: Sequence[int], h_in: int, h_out: int, rank: int
    ) -> float:
        """Gather-BMM baseline for the full LoRA addon (2x gather + 2x bmm).

        Only exists as a microbenchmark comparator, so the four torch ops
        always pay host dispatch, as in the Fig 8 measurement.
        """
        key = ("gather_bmm_lora", tuple(segments), h_in, h_out, rank)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        n = len(segments)
        s_n = int(sum(segments))
        t = self.gather(n, s_n, h_in, rank) + self.bmm(s_n, 1, rank, h_in)
        t += self.gather(n, s_n, rank, h_out) + self.bmm(s_n, 1, h_out, rank)
        return self._memo_put(key, t + 4 * self.spec.op_dispatch_overhead)

    # ------------------------------------------------------------------
    # Attention
    # ------------------------------------------------------------------
    def attention_prefill(
        self,
        seq_len: int,
        num_heads: int,
        head_dim: int,
        num_kv_heads: int | None = None,
        flash: bool = True,
    ) -> float:
        """Self-attention over one prefill sequence of ``seq_len`` tokens.

        Flash-style kernels avoid materializing the ``s x s`` score matrix,
        so IO is just Q/K/V/O; the naive variant (HF baseline) reads and
        writes the score matrix twice (softmax in between).
        """
        key = ("attn_prefill", seq_len, num_heads, head_dim, num_kv_heads, flash)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if seq_len <= 0:
            raise ValueError(f"seq_len must be positive, got {seq_len}")
        spec = self.spec
        kv_heads = num_kv_heads if num_kv_heads is not None else num_heads
        flop = 4.0 * seq_len * seq_len * head_dim * num_heads
        qo_io = 2.0 * seq_len * num_heads * head_dim * FP16_BYTES
        kv_io = 2.0 * seq_len * kv_heads * head_dim * FP16_BYTES
        io = qo_io + kv_io
        eff = spec.gemm_efficiency
        if not flash:
            # Score matrix written post-QK^T, read+written by softmax, read by PV.
            io += 4.0 * seq_len * seq_len * num_heads * FP16_BYTES
            eff *= 0.6
        t_compute = flop / (spec.peak_fp16_flops * eff)
        t_memory = io / (spec.hbm_bandwidth * spec.attention_bandwidth_efficiency)
        return self._memo_put(
            key, spec.kernel_launch_overhead + max(t_compute, t_memory)
        )

    def attention_decode(
        self,
        kv_lens: Sequence[int],
        num_heads: int,
        head_dim: int,
        num_kv_heads: int | None = None,
    ) -> float:
        """Batched decode attention (FlashInfer-style, no padding).

        Each request reads its entire K and V history once; the op is
        bandwidth-bound (Dao et al. 2022), so latency is the KvCache bytes
        over achieved bandwidth.
        """
        spec = self.spec
        kv_heads = num_kv_heads if num_kv_heads is not None else num_heads
        total_kv = float(sum(kv_lens))
        if total_kv < 0 or any(l < 0 for l in kv_lens):
            raise ValueError(f"kv lengths must be nonnegative, got {kv_lens}")
        io = 2.0 * total_kv * kv_heads * head_dim * FP16_BYTES
        io += 2.0 * len(kv_lens) * num_heads * head_dim * FP16_BYTES  # q in, o out
        t_memory = io / (spec.hbm_bandwidth * spec.attention_bandwidth_efficiency)
        return spec.kernel_launch_overhead + t_memory

    def attention_verify(
        self,
        chunk_len: int,
        past_len: int,
        num_heads: int,
        head_dim: int,
        num_kv_heads: int | None = None,
        flash: bool = True,
    ) -> float:
        """Chunked attention of a speculative verify: ``chunk_len`` query
        tokens (the draft plus the bonus slot) attend causally over
        ``past_len`` cached tokens plus the chunk itself.

        This is the piece :meth:`attention_prefill` cannot price — a
        prefill has no past, a verify is dominated by it: the K/V history
        is streamed once per chunk (like decode) while the chunk's own
        causal block adds the prefill-style quadratic term.
        """
        key = (
            "attn_verify", chunk_len, past_len, num_heads, head_dim,
            num_kv_heads, flash,
        )
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if chunk_len <= 0:
            raise ValueError(f"chunk_len must be positive, got {chunk_len}")
        if past_len < 0:
            raise ValueError(f"past_len must be nonnegative, got {past_len}")
        spec = self.spec
        kv_heads = num_kv_heads if num_kv_heads is not None else num_heads
        total_keys = past_len + chunk_len
        # Q@K^T and P@V over the full history, for every chunk query.
        flop = 4.0 * chunk_len * total_keys * head_dim * num_heads
        qo_io = 2.0 * chunk_len * num_heads * head_dim * FP16_BYTES
        kv_io = 2.0 * total_keys * kv_heads * head_dim * FP16_BYTES
        io = qo_io + kv_io
        eff = spec.gemm_efficiency
        if not flash:
            io += 4.0 * chunk_len * total_keys * num_heads * FP16_BYTES
            eff *= 0.6
        t_compute = flop / (spec.peak_fp16_flops * eff)
        t_memory = io / (spec.hbm_bandwidth * spec.attention_bandwidth_efficiency)
        return self._memo_put(
            key, spec.kernel_launch_overhead + max(t_compute, t_memory)
        )

    def attention_decode_total(
        self,
        total_kv: float,
        batch: int,
        num_heads: int,
        head_dim: int,
        num_kv_heads: int | None = None,
    ) -> float:
        """:meth:`attention_decode` evaluated from the aggregate alone.

        The decode-attention cost depends on the per-request lengths only
        through their sum and count, so the engine's bulk decode lane
        maintains the sum incrementally and prices a whole run of steps
        from it (``total_kv`` may be an array). The arithmetic mirrors :meth:`attention_decode`
        op for op, so the result is bit-identical.
        """
        spec = self.spec
        kv_heads = num_kv_heads if num_kv_heads is not None else num_heads
        io = 2.0 * total_kv * kv_heads * head_dim * FP16_BYTES
        io += 2.0 * batch * num_heads * head_dim * FP16_BYTES  # q in, o out
        t_memory = io / (spec.hbm_bandwidth * spec.attention_bandwidth_efficiency)
        return spec.kernel_launch_overhead + t_memory

    # ------------------------------------------------------------------
    # Small ops
    # ------------------------------------------------------------------
    def layernorm(self, fused: bool = True) -> float:
        """One (RMS)LayerNorm over the batch (paper §6: 110 us -> 4 us fused)."""
        spec = self.spec
        return spec.fused_layernorm_latency if fused else spec.unfused_layernorm_latency

    def elementwise(self, nbytes: float) -> float:
        """A bandwidth-bound elementwise pass (residual add, RoPE, SiLU)."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be nonnegative, got {nbytes}")
        spec = self.spec
        return spec.kernel_launch_overhead + 2.0 * nbytes / (spec.hbm_bandwidth * 0.85)
