"""Tests for repro.lsh.table: bucket tables and ranking."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.lsh import LSHTable, make_lsh


def _table(dim=8, seed=0, width=None):
    kwargs = {} if width is None else {"width": width}
    return LSHTable(make_lsh("l2", dim=dim, seed=seed, **kwargs))


class TestLSHTable:
    def test_add_and_counts(self, rng):
        table = _table()
        for i in range(10):
            table.add(rng.normal(size=8), item_id=i)
        assert table.n_items == 10
        assert 1 <= table.n_buckets <= 10

    def test_identical_items_share_bucket(self, rng):
        table = _table()
        x = rng.normal(size=8)
        table.add(x)
        table.add(x.copy())
        assert table.n_buckets == 1
        assert table.buckets()[0].size == 2

    def test_bucket_center_is_mean_projection(self, rng):
        table = _table(width=1000.0)  # everything in one bucket
        X = rng.normal(size=(5, 8))
        for row in X:
            table.add(row)
        bucket = table.buckets()[0]
        expected = np.mean([table.family.project(row) for row in X], axis=0)
        assert np.allclose(bucket.center, expected)

    def test_ranked_buckets_sorted_by_center_norm(self, rng):
        table = _table(width=0.1)  # many buckets
        for _ in range(40):
            table.add(rng.normal(size=8) * rng.uniform(0.1, 5.0))
        norms = [b.center_norm for b in table.ranked_buckets()]
        assert norms == sorted(norms)

    def test_bucket_rank_of_existing_key(self, rng):
        table = _table()
        x = rng.normal(size=8)
        table.add(x)
        for _ in range(5):
            table.add(rng.normal(size=8) * 3)
        rank = table.bucket_rank_of(x)
        ranked = table.ranked_buckets()
        assert ranked[rank].key == table.family.signature(x)

    def test_bucket_rank_of_unseen_query_in_range(self, rng):
        table = _table(width=0.5)
        for _ in range(20):
            table.add(rng.normal(size=8))
        rank = table.bucket_rank_of(rng.normal(size=8) * 10)
        assert 0 <= rank <= table.n_buckets

    def test_batch_ranks_monotone_in_norm(self, rng):
        table = _table(width=0.5)
        for _ in range(30):
            table.add(rng.normal(size=8))
        direction = rng.normal(size=8)
        direction /= np.linalg.norm(direction)
        X = np.vstack([direction * s for s in (0.1, 1.0, 10.0)])
        ranks = table.bucket_ranks_batch(X)
        assert ranks[0] <= ranks[1] <= ranks[2]

    def test_member_norms_one_entry_per_item(self, rng):
        table = _table()
        for _ in range(12):
            table.add(rng.normal(size=8))
        assert table.member_norms().size == 12

    def test_query_norm_positive(self, rng):
        table = _table()
        table.add(rng.normal(size=8))
        assert table.query_norm(rng.normal(size=8)) >= 0.0

    def test_empty_table_rank_rejected(self, rng):
        with pytest.raises(ValidationError):
            _table().bucket_rank_of(rng.normal(size=8))

    def test_empty_bucket_center_rejected(self):
        from repro.lsh.table import Bucket

        with pytest.raises(ValidationError):
            _ = Bucket(key=(0,)).center


class TestRankIndexCache:
    def test_interleaved_adds_rank_like_a_fresh_table(self, rng):
        """Queries between adds see every item added so far."""
        family = make_lsh("l2", dim=8, seed=3, width=0.5)
        items = rng.normal(size=(25, 8)) * rng.uniform(0.1, 4.0, size=(25, 1))
        queries = rng.normal(size=(6, 8)) * 2.0
        table = LSHTable(family)
        for k, row in enumerate(items):
            table.add(row)
            fresh = LSHTable(family)
            for earlier in items[: k + 1]:
                fresh.add(earlier)
            probes = np.vstack([queries, items[: k + 1]])
            assert np.array_equal(
                table.bucket_ranks_batch(probes), fresh.bucket_ranks_batch(probes)
            )
            assert [table.bucket_rank_of(p) for p in probes] == [
                fresh.bucket_rank_of(p) for p in probes
            ]
