import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpanet.sphere import (
    SPHERE_RADIUS,
    angular_distance,
    cap_area,
    from_angles,
    sample_uniform,
    to_angles,
    unit_rows,
)


def test_sphere_radius_gives_unit_area():
    assert 4.0 * np.pi * SPHERE_RADIUS ** 2 == pytest.approx(1.0)


class TestSpherePoint:
    """Points on the sphere: rows of unit vectors, made from angles by
    from_angles and checked by unit_rows."""

    def test_from_angles_roundtrip(self):
        p = from_angles(1.1, 2.2)
        assert p.shape == (1, 3)
        colat, lon = to_angles(p)
        assert colat[0] == pytest.approx(1.1)
        assert lon[0] == pytest.approx(2.2)
        assert p[0] @ p[0] == pytest.approx(1.0)
        # many points at once, each the row its own angles give
        rng = np.random.default_rng(5)
        c, ph = rng.uniform(0.0, np.pi, 50), rng.uniform(-20.0, 20.0, 50)
        rows = from_angles(c, ph)
        assert rows.shape == (50, 3)
        assert all(np.array_equal(rows[i], from_angles(c[i], ph[i])[0]) for i in range(50))
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-15)

    def test_poles(self):
        north, south = from_angles([0.0, np.pi], [0.0, 1.5])
        assert north.tolist() == [0.0, 0.0, 1.0]
        assert angular_distance(north, south) == pytest.approx(np.pi)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            unit_rows(np.array([1.0, 1.0, 0.0]), "p")

    def test_rejects_bad_shape_and_nan(self):
        with pytest.raises(ValueError):
            unit_rows(np.array([1.0, 0.0]), "p")
        with pytest.raises(ValueError):
            unit_rows(np.array([np.nan, 0.0, 0.0]), "p")
        for lon in (np.inf, np.nan, [0.0, -np.inf]):
            with pytest.raises(ValueError, match="longitude must be finite"):
                from_angles(1.0, lon)
        for colat in (4.0, -0.1, np.nan, [0.5, 3.5]):
            with pytest.raises(ValueError, match="colatitude must lie in"):
                from_angles(colat, 0.0)


class TestToAngles:
    def test_inverts_from_angles(self):
        pts = from_angles([0.3, 1.2, 2.9], [0.1, 3.5, 6.0])
        colat, lon = to_angles(pts)
        np.testing.assert_allclose(colat, [0.3, 1.2, 2.9], atol=1e-12)
        np.testing.assert_allclose(lon, [0.1, 3.5, 6.0], atol=1e-12)
        # longitudes outside [0, 2pi) come back reduced
        _, lon = to_angles(from_angles([1.0, 1.0], [-1.0, 2.0 * np.pi + 1.0]))
        np.testing.assert_allclose(lon, [2.0 * np.pi - 1.0, 1.0], atol=1e-12)

    def test_poles_and_range(self):
        colat, lon = to_angles(np.array([[0.0, 0.0, 1.0], [0.0, -0.0, -1.0],
                                         [0.0, -1.0, 0.0]]))
        assert colat.tolist() == [0.0, np.pi, np.pi / 2]
        assert lon[2] == pytest.approx(1.5 * np.pi)
        assert np.all((lon >= 0.0) & (lon < 2.0 * np.pi))


class TestUnitRows:
    def test_accepts_rows_and_a_lone_point(self):
        assert unit_rows(np.array([[0.0, 0.0, 1.0]]), "p").shape == (1, 3)
        assert unit_rows(np.array([0.0, 0.0, 1.0]), "p").shape == (1, 3)
        assert unit_rows(from_angles(0.5, 0.5), "p").shape == (1, 3)
        assert unit_rows(np.empty((0, 3)), "p").shape == (0, 3)

    def test_rejects_non_unit_and_bad_shape(self):
        with pytest.raises(ValueError, match="probes must be an"):
            unit_rows(np.array([[0.0, 0.0, 2.0]]), "probes")
        with pytest.raises(ValueError):
            unit_rows(np.zeros((2, 2, 3)), "probes")


class TestAngularDistance:
    def test_orthogonal_and_antipodal(self):
        ex = np.array([1.0, 0.0, 0.0])
        ey = np.array([0.0, 1.0, 0.0])
        assert angular_distance(ex, ey) == pytest.approx(np.pi / 2)
        assert angular_distance(ex, -ex) == pytest.approx(np.pi)
        assert angular_distance(ex, ex) == 0.0

    def test_broadcasts(self):
        rng = np.random.default_rng(0)
        pts = sample_uniform(rng, 40)
        d = angular_distance(pts, pts[0])
        assert d.shape == (40,)
        assert d[0] == pytest.approx(0.0, abs=1e-7)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        p, q, s = sample_uniform(rng, 3)
        dpq = float(angular_distance(p, q))
        assert dpq == pytest.approx(float(angular_distance(q, p)))
        assert 0.0 <= dpq <= np.pi
        # triangle inequality, with slack for the arccos rounding
        assert dpq <= angular_distance(p, s) + angular_distance(s, q) + 1e-7


class TestCapArea:
    def test_exact_values(self):
        assert cap_area(0.0) == 0.0
        assert cap_area(np.pi) == pytest.approx(1.0)
        assert cap_area(np.pi / 2) == pytest.approx(0.5)

    def test_small_cap_quadratic(self):
        # A_R ~ R^2/4 for small R
        assert cap_area(0.01) / (0.01 ** 2 / 4) == pytest.approx(1.0, abs=1e-4)

    def test_monotone_and_vectorized(self):
        rs = np.linspace(0, np.pi, 50)
        areas = cap_area(rs)
        assert np.all(np.diff(areas) > 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            cap_area(-0.1)
        with pytest.raises(ValueError):
            cap_area(3.5)


class TestSampleUniform:
    def test_shapes_and_norms(self):
        rng = np.random.default_rng(1)
        one = sample_uniform(rng)
        assert one.shape == (3,)
        many = sample_uniform(rng, 500)
        assert many.shape == (500, 3)
        norms = np.linalg.norm(many, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_deterministic_for_seed(self):
        a = sample_uniform(np.random.default_rng(42), 10)
        b = sample_uniform(np.random.default_rng(42), 10)
        assert np.array_equal(a, b)

    def test_cap_hit_rate_matches_area(self):
        # Monte Carlo check of uniformity against the analytic cap area
        rng = np.random.default_rng(7)
        n = 200_000
        pts = sample_uniform(rng, n)
        for R in (1.0, np.pi / 2, 2.4):
            p = cap_area(R)
            hits = np.count_nonzero(pts[:, 2] >= np.cos(R))
            sigma = np.sqrt(n * p * (1 - p))
            assert abs(hits - n * p) < 5 * sigma

    def test_mean_vector_near_zero(self):
        rng = np.random.default_rng(3)
        pts = sample_uniform(rng, 100_000)
        # components have sd 1/sqrt(3n)
        assert np.all(np.abs(pts.mean(axis=0)) < 5 / np.sqrt(3 * len(pts)))
