"""Instance-profile computation over a concatenated sample (Def. 8 / 9)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels import SeriesCache
from repro.matrixprofile.profile import MatrixProfile
from repro.matrixprofile.stomp import SelfJoin, stomp_self_join_batch
from repro.ts.concat import ConcatenatedSeries
from repro.ts.windows import num_windows


@dataclass
class InstanceProfile:
    """The instance profile of one concatenated sample at one window length.

    Wraps the underlying :class:`MatrixProfile` together with the
    concatenation provenance so that motif/discord *positions in the long
    series* can be mapped back to ``(training instance, offset)`` pairs.
    """

    profile: MatrixProfile
    sample: ConcatenatedSeries
    window: int

    @property
    def values(self) -> np.ndarray:
        """Nearest-cross-instance-neighbour distance per window (Def. 8)."""
        return self.profile.values

    def __len__(self) -> int:
        return len(self.profile)

    def locate(self, position: int) -> tuple[int, int]:
        """Map a window start back to ``(instance_id, offset)``."""
        return self.sample.locate(position, self.window)

    def subsequence(self, position: int) -> np.ndarray:
        """The raw subsequence values at a window start."""
        return self.sample.values[position : position + self.window].copy()


def _instance_join(
    sample: ConcatenatedSeries,
    window: int,
    normalized: bool,
    cache: SeriesCache | None,
) -> SelfJoin:
    """The self-join behind one instance profile (Def. 8/9)."""
    n_out = num_windows(len(sample), window)
    valid = sample.valid_window_mask(window)
    if sample.n_instances > 1:
        starts = np.arange(n_out)
        groups = np.searchsorted(sample.boundaries, starts, side="right") - 1
    else:
        groups = None
    return SelfJoin(
        sample.values,
        window,
        valid_mask=valid,
        normalized=normalized,
        groups=groups,
        cache=cache,
    )


def instance_profiles(
    requests: list[tuple[ConcatenatedSeries, int, SeriesCache | None]],
    normalized: bool = True,
) -> list[InstanceProfile]:
    """Instance profiles of several ``(sample, window, cache)`` requests.

    All of them run through one batched STOMP row loop
    (:func:`repro.matrixprofile.stomp.stomp_self_join_batch`); each
    profile is bit-identical to :func:`instance_profile` on its request
    alone.
    """
    joins = [
        _instance_join(sample, window, normalized, cache)
        for sample, window, cache in requests
    ]
    return [
        InstanceProfile(profile=profile, sample=sample, window=window)
        for profile, (sample, window, _cache) in zip(
            stomp_self_join_batch(joins), requests
        )
    ]


def instance_profile(
    sample: ConcatenatedSeries,
    window: int,
    normalized: bool = True,
    cache: SeriesCache | None = None,
) -> InstanceProfile:
    """Compute the instance profile of a concatenated sample (Def. 8/9).

    Every length-``window`` subsequence is annotated with the distance to
    its nearest neighbour among subsequences of the *other* instances in
    the sample (``m' != m``); windows crossing instance junctions are
    masked out entirely. A single-instance sample (a class with only one
    training instance) has no "other instance", so it degrades to the
    ordinary within-series matrix profile with trivial-match exclusion.

    ``cache`` (a :class:`repro.kernels.SeriesCache`) lets the candidate
    generator share the sample's cumulative sums and FFT spectra across
    the candidate-length grid instead of recomputing them per length.
    """
    return instance_profiles([(sample, window, cache)], normalized)[0]
