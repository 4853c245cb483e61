import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpanet.capindex import DOT_TOL, CapIndex
from gpanet.sphere import from_angles, sample_uniform

from oracles import cap_members_scan


class TestBasics:
    def test_empty_query(self):
        idx = CapIndex(np.empty((0, 3)), 0.3)
        got = idx.query_cap(np.array([0.0, 0.0, 1.0]), 1.0)
        assert got.size == 0 and got.dtype == np.int64

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            CapIndex(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]]), 0.3)
        idx = CapIndex(sample_uniform(np.random.default_rng(3), 400), 0.3)
        # a query centre is exactly one unit vector: not a scaled one, and not
        # a stack of several
        for center in ([0.0, 0.0, 2.0], [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]):
            with pytest.raises(ValueError):
                idx.query_cap(np.array(center), 0.3)

    def test_bad_cell_angle(self):
        pts = np.array([[0.0, 0.0, 1.0]])
        for cell in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                CapIndex(pts, cell)

    def test_radius_validation(self):
        idx = CapIndex(np.array([[0.0, 0.0, 1.0]]), 0.3)
        with pytest.raises(ValueError):
            idx.query_cap(np.array([0.0, 0.0, 1.0]), -0.5)
        with pytest.raises(ValueError):
            idx.query_cap(np.array([0.0, 0.0, 1.0]), 4.0)

    def test_accepts_sphere_point(self):
        # a centre may be one (1, 3) row, as from_angles gives it, or a (3,) vector
        pts = np.vstack([np.eye(3)[1:], [0.0, 0.0, -1.0], from_angles(0.4, 0.2)])
        idx = CapIndex(pts, 0.3)
        assert idx.query_cap(from_angles(0.4, 0.2), 0.01).tolist() == [3]
        assert idx.query_cap(from_angles(0.4, 0.2)[0], 0.01).tolist() == [3]

    def test_zero_radius_finds_coincident_point(self):
        rng = np.random.default_rng(0)
        pts = sample_uniform(rng, 60)
        idx = CapIndex(pts, 0.4)
        for i in (0, 17, 59):
            got = idx.query_cap(pts[i], 0.0)
            assert i in got.tolist()

    def test_full_sphere_returns_everything(self):
        rng = np.random.default_rng(1)
        pts = sample_uniform(rng, 200)
        idx = CapIndex(pts, 0.3)
        got = idx.query_cap(np.array([0.3, -0.8, 0.52]) / np.linalg.norm([0.3, -0.8, 0.52]), np.pi)
        assert got.tolist() == list(range(200))


class TestScanEquivalence:
    """The index must agree exactly with a linear scan (same predicate)."""

    def test_randomized_instances(self):
        rng = np.random.default_rng(2024)
        for trial in range(100):
            n = int(rng.integers(1, 200))
            pts = sample_uniform(rng, n)
            cell = float(np.exp(rng.uniform(np.log(0.02), np.log(4.0))))
            idx = CapIndex(pts, cell)
            # mix of arbitrary centers, stored points, and near-pole centers
            centers = [sample_uniform(rng)]
            centers.append(pts[int(rng.integers(n))])
            z = 1.0 if trial % 2 else -1.0
            centers.append(np.array([1e-9, 0.0, z]) / np.linalg.norm([1e-9, 0.0, z]))
            for center in centers:
                R = float(rng.choice([0.0, 0.05, 0.3, 1.2, np.pi / 2, 3.0, np.pi]))
                got = idx.query_cap(center, R)
                want = cap_members_scan(pts, np.arange(n), center, R)
                assert np.array_equal(got, want), (trial, R)

    def test_boundary_points_are_members(self):
        # a point exactly at angular distance R must be included (closed ball)
        center = np.array([0.0, 0.0, 1.0])
        R = 0.7
        on_boundary = np.array([np.sin(R), 0.0, np.cos(R)])
        pts = np.vstack([on_boundary, [0.0, 0.0, -1.0]])
        idx = CapIndex(pts, 0.25)
        assert idx.query_cap(center, R).tolist() == [0]

    def test_point_at_the_tolerance_is_a_member(self):
        # about the pole the dot product is the stored z itself, so a point
        # with z exactly cos(R) - DOT_TOL sits on the predicate's closed edge
        R = 0.7
        z = np.cos(R) - DOT_TOL
        edge = np.array([np.sqrt(1.0 - z * z), 0.0, z])
        pts = np.vstack([edge, [0.0, 0.0, -1.0]])
        idx = CapIndex(pts, 0.25)
        center = np.array([0.0, 0.0, 1.0])
        assert idx.query_cap(center, R).tolist() == [0]
        assert idx.members(center, R, 1)[0].tolist() == [0]

    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.01, np.pi))
    @settings(max_examples=60, deadline=None)
    def test_property_random_geometry(self, seed, R):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        pts = sample_uniform(rng, n)
        cell = float(rng.uniform(0.05, 2.0))
        idx = CapIndex(pts, cell)
        center = sample_uniform(rng)
        got = idx.query_cap(center, R)
        want = cap_members_scan(pts, np.arange(n), center, R)
        assert np.array_equal(got, want)

    def test_default_cell_angle(self):
        rng = np.random.default_rng(5)
        pts = sample_uniform(rng, 400)
        idx = CapIndex(pts)
        assert idx.cell_angle == pytest.approx(0.1)
        center = sample_uniform(rng)
        for R in (0.0, 0.2, 1.0, 2.8):
            want = cap_members_scan(pts, np.arange(400), center, R)
            assert np.array_equal(idx.query_cap(center, R), want)

    def test_tiny_cell_keeps_the_table_bounded(self):
        # a 1e-5 rad cell asks for 314160 bands (about 1.3e11 cells); the band
        # count is clipped, so the table stays near 3.3e5 slots
        rng = np.random.default_rng(8)
        n = 100
        pts = sample_uniform(rng, n)
        idx = CapIndex(pts, 1e-5)
        assert idx._nbands == 512
        assert idx._start.size - 1 == idx._band_off[-1] < 340_000
        for center in (pts[0], sample_uniform(rng), np.array([0.0, 0.0, 1.0])):
            for R in (0.0, 0.003, 0.3, 2.0, np.pi):
                want = cap_members_scan(pts, np.arange(n), center, R)
                assert np.array_equal(idx.query_cap(center, R), want), R
                got = np.sort(idx.members(center, R, n // 2)[0])
                assert np.array_equal(got, want[want < n // 2]), R


class TestStaticQuery:
    def test_matches_scan_with_time_limit(self):
        rng = np.random.default_rng(9)
        n = 300
        pts = sample_uniform(rng, n)
        idx = CapIndex(pts, 0.35)
        for t in range(37, n, 37):
            center = sample_uniform(rng)
            for R in (0.1, 0.8, 2.0):
                got = np.sort(idx.members(center, R, t)[0])
                want = cap_members_scan(pts[:t], np.arange(t), center, R)
                assert np.array_equal(got, want), (t, R)
        got = np.sort(idx.members(pts[0], 1.0, n)[0])
        assert np.array_equal(got, cap_members_scan(pts, np.arange(n), pts[0], 1.0))

    def test_before_limit_excludes_later_rows(self):
        pts = np.array([[0.0, 0.0, 1.0], [np.sin(0.01), 0.0, np.cos(0.01)]])
        idx = CapIndex(pts, 0.5)
        assert idx.members(pts[0], 0.5, 1)[0].tolist() == [0]
        assert sorted(idx.members(pts[0], 0.5, 2)[0].tolist()) == [0, 1]

    def test_grid_order_at_poles_and_seam(self):
        # _draw reads the candidates in query order, so the order is part of
        # the output: ascending grid slot, ascending row within a slot
        rng = np.random.default_rng(17)
        seam = np.column_stack([rng.uniform(0.0, np.pi, 150), rng.uniform(-0.05, 0.05, 150)])
        pts = np.vstack([sample_uniform(rng, 250),
                         from_angles(seam[:, 0], seam[:, 1]),
                         [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
        n = pts.shape[0]
        eps = 1e-9
        centers = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]),
                   *from_angles([eps, np.pi - eps], [2.0, 5.0])]
        centers += [from_angles(th, ph)[0]
                    for th in (0.3, np.pi / 2, 2.9)
                    for ph in (0.0, 1e-12, -1e-12, 2.0 * np.pi - 1e-9, 3.0)]
        centers = np.array(centers)
        k = centers.shape[0]
        times = np.array([0, 1, 200, n])
        for cell in (0.05, 0.3, 1.0):
            idx = CapIndex(pts, cell)
            rank = np.empty(n, dtype=np.int64)
            rank[idx._order] = np.arange(n)
            for R in (0.0, 0.05, np.pi / 2, 2.0, np.pi):
                owner, first, end = idx._slot_ranges(centers, R)
                assert np.array_equal(np.unique(owner), np.arange(k)), (cell, R)
                assert (np.diff(owner) >= 0).all(), (cell, R)
                assert (first < end).all(), (cell, R)
                same = owner[1:] == owner[:-1]
                assert (end[:-1][same] <= first[1:][same]).all(), (cell, R)
                # one call for all centres, each with its own time limit
                for shift in range(times.size):
                    before = times[(np.arange(k) + shift) % times.size]
                    rows, ptr = idx.members(centers, R, before)
                    assert ptr[0] == 0 and ptr[-1] == rows.size
                    for i, (center, t) in enumerate(zip(centers, before)):
                        want = cap_members_scan(pts[:t], np.arange(t), center, R)
                        want = want[np.argsort(rank[want])]
                        assert np.array_equal(rows[ptr[i]:ptr[i + 1]], want), (cell, R, t)
                rows, ptr = idx.members(centers, R)
                for i, center in enumerate(centers):
                    want = cap_members_scan(pts, np.arange(n), center, R)
                    want = want[np.argsort(rank[want])]
                    assert np.array_equal(rows[ptr[i]:ptr[i + 1]], want), (cell, R)
                for before in (None, 0, n):
                    rows, ptr = idx.members(np.empty((0, 3)), R, before)
                    assert rows.size == 0 and ptr.tolist() == [0]
