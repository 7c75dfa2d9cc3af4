"""Tests for repro.matrixprofile.stomp: STOMP joins vs brute-force MASS."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.kernels import mass
from repro.matrixprofile.stomp import ab_join, default_exclusion, stomp_self_join


def _brute_self_join(t: np.ndarray, window: int, exclusion: int) -> np.ndarray:
    n_out = t.size - window + 1
    values = np.empty(n_out)
    for i in range(n_out):
        row = mass(t[i : i + window], t).copy()
        lo, hi = max(0, i - exclusion), min(n_out, i + exclusion + 1)
        row[lo:hi] = np.inf
        values[i] = row.min()
    return values


class TestDefaultExclusion:
    def test_quarter_window(self):
        assert default_exclusion(16) == 4
        assert default_exclusion(17) == 5

    def test_minimum_one(self):
        assert default_exclusion(1) == 1


class TestSelfJoin:
    def test_matches_brute_force(self, rng):
        t = rng.normal(size=150)
        mp = stomp_self_join(t, 20)
        brute = _brute_self_join(t, 20, default_exclusion(20))
        assert np.allclose(mp.values, brute, atol=1e-5)

    def test_planted_motif_found(self, rng):
        t = rng.normal(size=300)
        pattern = np.sin(np.linspace(0, 2 * np.pi, 30)) * 4
        t[40:70] += pattern
        t[200:230] += pattern
        mp = stomp_self_join(t, 30)
        pos, _val = mp.motif()
        assert min(abs(pos - 40), abs(pos - 200)) <= 3

    def test_raw_distances(self, rng):
        t = rng.normal(size=100)
        mp = stomp_self_join(t, 10, normalized=False)
        i = 5
        row = np.array(
            [np.sqrt(np.sum((t[i : i + 10] - t[j : j + 10]) ** 2)) for j in range(91)]
        )
        excl = default_exclusion(10)
        row[max(0, i - excl) : i + excl + 1] = np.inf
        assert mp.values[5] == pytest.approx(row.min(), abs=1e-6)

    def test_valid_mask_excludes_windows(self, rng):
        t = rng.normal(size=80)
        mask = np.ones(71, dtype=bool)
        mask[10:20] = False
        mp = stomp_self_join(t, 10, valid_mask=mask)
        assert np.all(np.isinf(mp.values[10:20]))
        assert not np.any(np.isin(mp.indices[np.isfinite(mp.values)], np.arange(10, 20)))

    def test_groups_restrict_to_other_groups(self, rng):
        t = rng.normal(size=60)
        groups = np.repeat([0, 1], [26, 25])
        mp = stomp_self_join(t, 10, groups=groups, exclusion=1)
        finite = np.isfinite(mp.values)
        for i in np.flatnonzero(finite):
            assert groups[mp.indices[i]] != groups[i]

    def test_wrong_mask_shape_rejected(self, rng):
        with pytest.raises(ValidationError):
            stomp_self_join(rng.normal(size=50), 10, valid_mask=np.ones(5, dtype=bool))

    def test_wrong_groups_shape_rejected(self, rng):
        with pytest.raises(ValidationError):
            stomp_self_join(rng.normal(size=50), 10, groups=np.zeros(5, dtype=int))


class TestABJoin:
    def test_matches_brute_force(self, rng):
        a = rng.normal(size=90)
        b = rng.normal(size=120)
        profile = ab_join(a, b, 15)
        for i in (0, 5, 40, 75):
            assert profile.values[i] == pytest.approx(
                mass(a[i : i + 15], b).min(), abs=1e-5
            )

    def test_no_exclusion_zone(self, rng):
        a = rng.normal(size=50)
        profile = ab_join(a, a, 10)
        # Every window matches itself exactly in the other series.
        assert np.allclose(profile.values, 0.0, atol=1e-5)

    def test_shared_pattern_detected(self, rng):
        a = rng.normal(size=100)
        b = rng.normal(size=100)
        pattern = np.sin(np.linspace(0, 2 * np.pi, 20)) * 5
        a[30:50] += pattern
        b[60:80] += pattern
        profile = ab_join(a, b, 20)
        assert profile.values[30] < np.median(profile.values[np.isfinite(profile.values)])

    def test_masks_respected(self, rng):
        a = rng.normal(size=60)
        b = rng.normal(size=60)
        mask_a = np.ones(41, dtype=bool)
        mask_a[:10] = False
        profile = ab_join(a, b, 20, valid_mask_a=mask_a)
        assert np.all(np.isinf(profile.values[:10]))

    def test_raw_mode_matches_brute(self, rng):
        a = rng.normal(size=40)
        b = rng.normal(size=50)
        profile = ab_join(a, b, 8, normalized=False)
        brute = min(np.sqrt(np.sum((a[3:11] - b[j : j + 8]) ** 2)) for j in range(43))
        assert profile.values[3] == pytest.approx(brute, abs=1e-6)
