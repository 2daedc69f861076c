"""Tests for the synthetic trajectory generators (Porto/GeoLife stand-ins)."""
import numpy as np
import pandas as pd
import pytest

from repro import DEG_TO_M
from repro.trajgen import geolife_lite, porto_lite, sub_porto


@pytest.fixture(scope="module")
def porto():
    return porto_lite(n_traj=30, n_steps=40, seed=3)


@pytest.fixture(scope="module")
def geolife():
    return geolife_lite(n_traj=12, n_steps=60, seed=4)


class TestSchema:
    @pytest.mark.parametrize("col", ["traj_id", "t", "x", "y"])
    def test_porto_columns(self, porto, col):
        assert col in porto.columns

    @pytest.mark.parametrize("col", ["traj_id", "t", "x", "y"])
    def test_geolife_columns(self, geolife, col):
        assert col in geolife.columns

    def test_no_nans(self, porto):
        assert not porto.isna().any().any()

    def test_traj_count(self, porto):
        assert porto.traj_id.nunique() == 30

    def test_geolife_traj_count(self, geolife):
        assert geolife.traj_id.nunique() == 12


class TestTimeline:
    def test_timestamps_start_at_one(self, porto):
        assert porto.t.min() == 1

    def test_timestamps_consecutive_per_traj(self, porto):
        for _, g in porto.groupby("traj_id"):
            ts = np.sort(g.t.to_numpy())
            assert np.array_equal(ts, np.arange(1, len(ts) + 1))

    def test_min_length_30(self, porto):
        assert porto.groupby("traj_id").size().min() >= 30

    def test_geolife_min_length_30(self, geolife):
        assert geolife.groupby("traj_id").size().min() >= 30

    def test_variable_lengths(self, porto):
        assert porto.groupby("traj_id").size().nunique() > 1


class TestGeometry:
    def test_porto_within_bounds(self, porto):
        assert porto.x.between(-8.70, -8.50).all()
        assert porto.y.between(41.10, 41.30).all()

    def test_geolife_within_bounds(self, geolife):
        assert geolife.x.between(115.90, 117.10).all()
        assert geolife.y.between(39.60, 40.80).all()

    def test_geolife_span_larger_than_porto(self, porto, geolife):
        span_p = (porto.x.max() - porto.x.min()) + (porto.y.max() - porto.y.min())
        span_g = (geolife.x.max() - geolife.x.min()) + (
            geolife.y.max() - geolife.y.min()
        )
        assert span_g > span_p

    def test_steps_are_vehicle_scale(self, porto):
        """Per-step displacements should be meters-to-km, not degrees."""
        g = porto[porto.traj_id == 0].sort_values("t")
        d = np.sqrt(np.diff(g.x) ** 2 + np.diff(g.y) ** 2) * DEG_TO_M
        assert d.max() < 5000
        assert d.mean() > 1

    def test_autocorrelated_motion(self, porto):
        """Momentum walks: consecutive velocity vectors correlate."""
        g = porto[porto.traj_id == 0].sort_values("t")
        vx = np.diff(g.x.to_numpy())
        corr = np.corrcoef(vx[:-1], vx[1:])[0, 1]
        assert corr > 0.2


class TestDeterminism:
    def test_porto_deterministic(self):
        a = porto_lite(n_traj=5, n_steps=35, seed=42)
        b = porto_lite(n_traj=5, n_steps=35, seed=42)
        pd.testing.assert_frame_equal(a, b)

    def test_porto_seed_changes_data(self):
        a = porto_lite(n_traj=5, n_steps=35, seed=1)
        b = porto_lite(n_traj=5, n_steps=35, seed=2)
        assert not a.equals(b)

    def test_geolife_deterministic(self):
        a = geolife_lite(n_traj=4, n_steps=40, seed=9)
        b = geolife_lite(n_traj=4, n_steps=40, seed=9)
        pd.testing.assert_frame_equal(a, b)


class TestSubPorto:
    def test_copies_count(self):
        pts, base = sub_porto(n_base=6, n_copies=3, n_steps=40, seed=5)
        assert pts.traj_id.nunique() == 6 * (1 + 3)
        assert len(base) == 6

    def test_copies_are_near_duplicates(self):
        pts, _base = sub_porto(n_base=4, n_copies=2, n_steps=40, noise_m=20.0, seed=5)
        orig = pts[pts.traj_id == 0].sort_values("t")[["x", "y"]].to_numpy()
        copy = pts[pts.traj_id == 4].sort_values("t")[["x", "y"]].to_numpy()
        # every copy point is close to *some* original point (noisy down-sample)
        d2 = ((copy[:, None, :] - orig[None, :, :]) ** 2).sum(axis=2)
        nearest_m = np.sqrt(d2.min(axis=1)) * DEG_TO_M
        assert nearest_m.max() < 200.0

    def test_min_length_in_copies(self):
        pts, _ = sub_porto(n_base=4, n_copies=2, n_steps=40, seed=5)
        assert pts.groupby("traj_id").size().min() >= 30

    def test_deterministic(self):
        a, _ = sub_porto(n_base=3, n_copies=2, n_steps=36, seed=8)
        b, _ = sub_porto(n_base=3, n_copies=2, n_steps=36, seed=8)
        pd.testing.assert_frame_equal(a, b)
