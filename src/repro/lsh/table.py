"""Bucket table: items hashed by an LSH family, with per-bucket centers.

This is the "LSH_C" half of a DABF (Fig. 7 of the paper): candidates are
hashed into buckets; each bucket tracks the mean of its members'
projections (its *center*); buckets are then ranked by the distance between
their center and the origin, giving every member a scalar position in the
codomain. That scalar feeds both the distribution fit (Algorithm 2) and the
DT optimization's ``|B_i - B_j|`` bound (Formula 15).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ValidationError
from repro.lsh.base import LSHFamily


@dataclass
class Bucket:
    """One LSH bucket: member item ids plus the running projection sum."""

    key: tuple
    items: list[int] = field(default_factory=list)
    _proj_sum: np.ndarray = None  # type: ignore[assignment]

    def add(self, item_id: int, projection: np.ndarray) -> None:
        """Insert a member."""
        self.items.append(item_id)
        if self._proj_sum is None:
            self._proj_sum = projection.astype(np.float64, copy=True)
        else:
            self._proj_sum += projection

    @property
    def size(self) -> int:
        """Number of members."""
        return len(self.items)

    @property
    def center(self) -> np.ndarray:
        """Mean projection of the members (the bucket center of Fig. 7)."""
        if self._proj_sum is None:
            raise ValidationError("bucket is empty")
        return self._proj_sum / len(self.items)

    @property
    def center_norm(self) -> float:
        """Distance between the bucket center and the origin."""
        return float(np.linalg.norm(self.center))


class LSHTable:
    """Items hashed by one family into ranked buckets.

    Parameters
    ----------
    family:
        The hashing scheme (fixed input dimension).
    """

    def __init__(self, family: LSHFamily) -> None:
        self.family = family
        self._buckets: dict[tuple, Bucket] = {}
        self._n_items = 0
        self._item_norms: list[float] = []
        self._ranked_cache: list[Bucket] | None = None
        self._rank_index_cache: tuple[dict[tuple, int], np.ndarray] | None = None

    def add(self, x: np.ndarray, item_id: int | None = None) -> int:
        """Hash ``x`` into its bucket; returns the item id used."""
        if item_id is None:
            item_id = self._n_items
        key = self.family.signature(x)
        projection = self.family.project(x)
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = Bucket(key=key)
            self._buckets[key] = bucket
        bucket.add(int(item_id), projection)
        self._item_norms.append(float(np.linalg.norm(projection)))
        self._n_items += 1
        self._ranked_cache = None
        self._rank_index_cache = None
        return int(item_id)

    @property
    def n_items(self) -> int:
        """Total items inserted."""
        return self._n_items

    @property
    def n_buckets(self) -> int:
        """Number of distinct buckets."""
        return len(self._buckets)

    def buckets(self) -> list[Bucket]:
        """All buckets, unordered (Algorithm 2, line 6)."""
        return list(self._buckets.values())

    def ranked_buckets(self) -> list[Bucket]:
        """Buckets sorted by center-to-origin distance (Algorithm 2, line 7)."""
        if self._ranked_cache is None:
            self._ranked_cache = sorted(
                self._buckets.values(), key=lambda b: b.center_norm
            )
        return self._ranked_cache

    def _rank_index(self) -> tuple[dict[tuple, int], np.ndarray]:
        """(signature -> rank) map plus the sorted center norms.

        Cached until the next :meth:`add`, like :meth:`ranked_buckets`:
        the DT scoring queries each table once per training instance.
        """
        if self._rank_index_cache is None:
            ranked = self.ranked_buckets()
            key_rank = {bucket.key: rank for rank, bucket in enumerate(ranked)}
            norms = np.asarray([bucket.center_norm for bucket in ranked])
            self._rank_index_cache = (key_rank, norms)
        return self._rank_index_cache

    def bucket_rank_of(self, x: np.ndarray) -> int:
        """Rank index a query would occupy among the ranked buckets.

        If the query's signature matches an existing bucket, that bucket's
        rank is returned; otherwise the insertion position of the query's
        projection norm among the ranked centers (the nearest rank in the
        codomain ordering).
        """
        if not self._buckets:
            raise ValidationError("table is empty")
        key_rank, norms = self._rank_index()
        key = self.family.signature(x)
        if key in key_rank:
            return key_rank[key]
        norm = float(np.linalg.norm(self.family.project(x)))
        return int(np.searchsorted(norms, norm))

    def bucket_ranks_batch(self, X: np.ndarray) -> np.ndarray:
        """Ranks for every row of ``X`` at once.

        Batch queries resolve by projection-norm position only (no
        signature lookup): the rank is the codomain coordinate the DT
        optimization needs, and the norm position is within one bucket of
        the signature rank by construction.
        """
        if not self._buckets:
            raise ValidationError("table is empty")
        _key_rank, norms = self._rank_index()
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValidationError("bucket_ranks_batch expects a 2-D matrix")
        project_batch = getattr(self.family, "project_batch", None)
        if project_batch is not None:
            query_norms = np.linalg.norm(project_batch(X), axis=1)
        else:
            query_norms = np.array(
                [np.linalg.norm(self.family.project(row)) for row in X]
            )
        return np.searchsorted(norms, query_norms).astype(np.int64)

    def query_norm(self, x: np.ndarray) -> float:
        """Distance between the query's projection and the origin.

        This is the DABF query statistic ``dist(LSH(e), 0)`` of Algorithm 3.
        """
        return float(np.linalg.norm(self.family.project(x)))

    def member_norms(self) -> np.ndarray:
        """Projection-to-origin distance of each inserted item.

        The histogram over these values is the "distribution of the hashed
        time series subsequences in the codomain" of Section III-B. Exact
        per-item norms are used (not the bucket-center norms) so that the
        distribution members and the query statistic of Algorithm 3 live
        on the same scale.
        """
        return np.asarray(self._item_norms, dtype=np.float64)
