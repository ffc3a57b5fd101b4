"""Tests for KvPool byte accounting and PagedKvData real storage."""

import numpy as np
import pytest

from repro.kvcache.pool import KvPool, PagedKvData, kv_bytes_per_token


class TestKvBytesPerToken:
    def test_llama7b_value(self):
        # 32 layers, 32 kv heads, 128 head dim, fp16: 512 KiB per token.
        assert kv_bytes_per_token(32, 32, 128) == 32 * 2 * 32 * 128 * 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            kv_bytes_per_token(0, 1, 1)


class TestKvPool:
    def make(self, capacity=16 * 1024, page_size=4, bpt=16):
        return KvPool(capacity_bytes=capacity, page_size=page_size, bytes_per_token=bpt)

    def test_total_pages_from_bytes(self):
        pool = self.make()  # page = 64 B -> 256 pages
        assert pool.total_pages == 256

    def test_admission_headroom(self):
        pool = KvPool(capacity_bytes=8 * 16, page_size=4, bytes_per_token=16)  # 2 pages
        assert pool.can_admit(8)
        assert not pool.can_admit(9)

    def test_used_bytes(self):
        pool = self.make()
        pool.allocate("r", 5)  # 2 pages of 4 tokens @16B
        assert pool.used_bytes() == 2 * 4 * 16

    def test_append_token(self):
        pool = self.make()
        pool.allocate("r", 4)
        assert pool.can_append("r")
        pool.append("r")
        assert pool.seq_len("r") == 5

    def test_free(self):
        pool = self.make()
        pool.allocate("r", 4)
        pool.free("r")
        assert "r" not in pool
        assert pool.free_tokens == pool.total_pages * pool.page_size

    def test_capacity_too_small(self):
        with pytest.raises(ValueError, match="no"):
            KvPool(capacity_bytes=10, page_size=4, bytes_per_token=16)

    def test_export_import_roundtrip(self):
        src = self.make()
        dst = self.make()
        src.allocate("r", 9)
        tokens = src.export_sequence("r")
        assert tokens == 9
        assert "r" not in src
        dst.import_sequence("r", tokens)
        assert dst.seq_len("r") == 9

    def test_bytes_of(self):
        pool = self.make(bpt=16)
        assert pool.bytes_of(0) == 0.0
        assert pool.bytes_of(9) == 9 * 16.0
        with pytest.raises(ValueError):
            pool.bytes_of(-1)


class TestPagedKvData:
    def make(self):
        return PagedKvData(
            total_pages=8, page_size=4, num_layers=2, num_kv_heads=3, head_dim=5
        )

    def test_write_read_roundtrip(self):
        kv = self.make()
        kv.allocate("r", 6)
        rng = np.random.default_rng(0)
        ks = [rng.standard_normal((3, 5)) for _ in range(6)]
        vs = [rng.standard_normal((3, 5)) for _ in range(6)]
        for pos in range(6):
            for layer in range(2):
                kv.write_token("r", layer, pos, ks[pos], vs[pos])
        k, v = kv.gather("r", layer=1, length=6)
        assert k.shape == (3, 6, 5)
        for pos in range(6):
            np.testing.assert_allclose(k[:, pos, :], ks[pos], rtol=1e-6)
            np.testing.assert_allclose(v[:, pos, :], vs[pos], rtol=1e-6)

    def test_roundtrip_survives_page_recycling(self):
        # Free one sequence, allocate another on the recycled pages, and
        # verify a third sequence's data is untouched.
        kv = self.make()
        kv.allocate("a", 8)
        kv.allocate("keep", 4)
        k_keep = np.full((3, 5), 7.0)
        for pos in range(4):
            for layer in range(2):
                kv.write_token("keep", layer, pos, k_keep, k_keep)
        kv.free("a")
        kv.allocate("b", 8)
        for pos in range(8):
            for layer in range(2):
                kv.write_token("b", layer, pos, np.zeros((3, 5)), np.zeros((3, 5)))
        k, _ = kv.gather("keep", layer=0, length=4)
        np.testing.assert_array_equal(k, np.broadcast_to(k_keep[:, None, :], (3, 4, 5)))

    def test_written_len_counts_full_layers(self):
        kv = self.make()
        kv.allocate("r", 4)
        kv.write_token("r", 0, 0, np.zeros((3, 5)), np.zeros((3, 5)))
        assert kv.written_len("r") == 0  # layer 1 not written yet
        kv.write_token("r", 1, 0, np.zeros((3, 5)), np.zeros((3, 5)))
        assert kv.written_len("r") == 1

    def test_position_beyond_pages_rejected(self):
        kv = self.make()
        kv.allocate("r", 4)
        with pytest.raises(IndexError):
            kv.write_token("r", 0, 4, np.zeros((3, 5)), np.zeros((3, 5)))

    def test_append_slot_extends(self):
        kv = self.make()
        kv.allocate("r", 4)
        kv.append_slot("r")
        kv.write_token("r", 0, 4, np.ones((3, 5)), np.ones((3, 5)))

    def test_bad_shapes_rejected(self):
        kv = self.make()
        kv.allocate("r", 4)
        with pytest.raises(ValueError):
            kv.write_token("r", 0, 0, np.zeros((2, 5)), np.zeros((3, 5)))

    def test_gather_beyond_length_rejected(self):
        kv = self.make()
        kv.allocate("r", 4)
        with pytest.raises(IndexError):
            kv.gather("r", 0, 5)

    def test_write_tokens_equals_one_write_token_per_position(self):
        # A run that starts mid-page and crosses two page boundaries.
        rng = np.random.default_rng(1)
        k = rng.standard_normal((7, 3, 5))
        v = rng.standard_normal((7, 3, 5))
        bulk, single = self.make(), self.make()
        for kv in (bulk, single):
            kv.allocate("r", 10)
        for layer in range(2):
            bulk.write_tokens("r", layer, 3, k, v)
            for j in range(7):
                single.write_token("r", layer, 3 + j, k[j], v[j])
        np.testing.assert_array_equal(bulk.data, single.data)
        assert bulk.written_len("r") == single.written_len("r") == 10

    def test_write_tokens_rejects_overrun_and_bad_shapes(self):
        kv = self.make()
        kv.allocate("r", 4)
        with pytest.raises(IndexError, match="position 4 beyond"):
            kv.write_tokens("r", 0, 2, np.zeros((3, 3, 5)), np.zeros((3, 3, 5)))
        with pytest.raises(ValueError):
            kv.write_tokens("r", 0, 0, np.zeros((2, 3, 4)), np.zeros((2, 3, 4)))
        with pytest.raises(ValueError):
            kv.write_tokens("r", 0, 0, np.zeros((2, 3, 5)), np.zeros((1, 3, 5)))
        assert not kv.data.any()
