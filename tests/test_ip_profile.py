"""Tests for repro.instanceprofile.profile: Def. 8/9 semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.instanceprofile.profile import instance_profile
from repro.kernels import mass
from repro.ts.concat import concatenate_series


class TestInstanceProfile:
    def test_junction_windows_masked(self, rng):
        sample = concatenate_series([rng.normal(size=40), rng.normal(size=40)])
        ip = instance_profile(sample, 10)
        mask = sample.valid_window_mask(10)
        assert np.all(np.isinf(ip.values[~mask]))

    def test_nearest_neighbour_is_cross_instance(self, rng):
        """Def. 9: the neighbour must come from a different instance."""
        sample = concatenate_series([rng.normal(size=50), rng.normal(size=50)])
        ip = instance_profile(sample, 12)
        finite = np.flatnonzero(np.isfinite(ip.values))
        for pos in finite:
            own = sample.instance_of_position(pos)
            neighbour = sample.instance_of_position(int(ip.profile.indices[pos]))
            assert neighbour != own

    def test_repeated_pattern_across_instances_is_motif(self, rng):
        a = rng.normal(size=60)
        b = rng.normal(size=60)
        pattern = np.sin(np.linspace(0, 2 * np.pi, 15)) * 4
        a[10:25] += pattern
        b[30:45] += pattern
        sample = concatenate_series([a, b])
        ip = instance_profile(sample, 15)
        pos, _val = ip.profile.motif()
        instance, offset = ip.locate(pos)
        # The motif window must overlap the planted pattern's region.
        planted_start = 10 if instance == 0 else 30
        assert instance in (0, 1)
        assert planted_start - 14 < offset < planted_start + 15

    def test_matches_brute_force_cross_instance(self, rng):
        a = rng.normal(size=30)
        b = rng.normal(size=30)
        sample = concatenate_series([a, b])
        window = 8
        ip = instance_profile(sample, window)
        # Brute force: window in instance A vs all windows of B.
        for start in (0, 5, 15):
            query = a[start : start + window]
            expected = mass(query, b).min()
            assert ip.values[start] == pytest.approx(expected, abs=1e-5)

    def test_subsequence_accessor(self, rng):
        sample = concatenate_series([rng.normal(size=30), rng.normal(size=30)])
        ip = instance_profile(sample, 6)
        sub = ip.subsequence(3)
        assert np.array_equal(sub, sample.values[3:9])

    def test_len(self, rng):
        sample = concatenate_series([rng.normal(size=20), rng.normal(size=20)])
        ip = instance_profile(sample, 5)
        assert len(ip) == 36
