"""Spatial index for spherical-cap range queries.

Points are bucketed into a latitude-band grid: bands of equal colatitude
height, each band split into near-square longitude cells.  A cap query walks
the bands the cap can touch, gathers the cells of the cap's one longitude
window in each, and post-filters the candidates with the closed-ball
predicate dot(p, center) >= cos(R) - tol.  The window is conservative
(query radius padded by 2e-6 rad), so the candidate set is a provable
superset and the filter makes the result exact.
"""

from __future__ import annotations

import math

import numpy as np

from .sphere import _check_radius, as_unit_vectors, to_angles, unit_rows

# slack on the membership dot product; absorbs rounding of stored unit vectors
DOT_TOL = 1e-12
_PAD = 2e-6


class _StaticCapQuery:
    """Cap queries over a fixed point set, filtered by birth order.

    The generators use it directly: all positions are known up front, so
    rows are grouped by cell once (a stable sort keeps each group ascending
    in row id) and a query at time t is a handful of slice gathers plus a
    rows < t mask.
    """

    def __init__(self, points: np.ndarray, cell_angle: float):
        cell_angle = float(cell_angle)
        if not np.isfinite(cell_angle) or cell_angle <= 0.0:
            raise ValueError(f"cell_angle must be positive, got {cell_angle!r}")
        self.cell_angle = cell_angle
        self._pts = points
        self._nbands = int(np.clip(np.ceil(np.pi / cell_angle), 1, 4096))
        self._band_h = np.pi / self._nbands
        mids = (np.arange(self._nbands) + 0.5) * self._band_h
        self._ncells = np.maximum(
            1, np.ceil(2.0 * np.pi * np.sin(mids) / self._band_h).astype(np.int64)
        )
        self._cell_w = 2.0 * np.pi / self._ncells
        self._band_off = np.concatenate([[0], np.cumsum(self._ncells)])

        theta, phi = to_angles(points)
        band = np.minimum((theta / self._band_h).astype(np.int64), self._nbands - 1)
        cell = np.minimum((phi / self._cell_w[band]).astype(np.int64), self._ncells[band] - 1)
        slots = self._band_off[band] + cell
        self._order = np.argsort(slots, kind="stable")
        counts = np.bincount(slots, minlength=int(self._band_off[-1]))
        self._start = np.concatenate([[0], np.cumsum(counts)])

    def _covered_ranges(self, center: np.ndarray, R: float) -> list[tuple[int, int]]:
        """Ascending, disjoint half-open slot ranges that cover the cap (center, R).

        Conservative: every point within R of center lies in one of the
        returned slots, and a gather over them lists rows in grid order.
        The padded cap of radius rho = R + _PAD spans the colatitudes
        theta_c +- rho and, unless it holds a pole, the longitudes
        phi_c +- arcsin(sin rho / sin theta_c), its width where meridians
        touch it.  Each band in the colatitude range takes the cells of that
        one window, or the whole band when the window covers it or the cap
        holds a pole.  The pad carries over into longitude at least 1:1:
        d(dphi)/d(rho) = cos rho / sqrt(sin^2 theta_c - sin^2 rho) >= 1.
        """
        theta_c = math.acos(min(1.0, max(-1.0, float(center[2]))))
        rp = min(R + _PAD, math.pi)
        b0 = max(0, int((theta_c - rp) / self._band_h))
        b1 = min(self._nbands - 1, int((theta_c + rp) / self._band_h))
        off = self._band_off
        if not rp < theta_c < math.pi - rp:  # the cap holds a pole
            return [(int(off[b0]), int(off[b1 + 1]))]
        dphi = math.asin(min(1.0, math.sin(rp) / math.sin(theta_c)))
        phi_c = math.atan2(float(center[1]), float(center[0])) % (2.0 * math.pi)
        ranges: list[tuple[int, int]] = []
        for o, nc, w in zip(off[b0:b1 + 1].tolist(), self._ncells[b0:b1 + 1].tolist(),
                            self._cell_w[b0:b1 + 1].tolist()):
            j0 = math.floor((phi_c - dphi) / w)
            j1 = math.floor((phi_c + dphi) / w)
            a, b = j0 % nc, j1 % nc
            if j1 - j0 + 1 >= nc:
                ranges.append((o, o + nc))
            elif a <= b:
                ranges.append((o + a, o + b + 1))
            else:  # window wraps the 0/2pi seam
                ranges += [(o, o + b + 1), (o + a, o + nc)]
        return ranges

    def query(self, center: np.ndarray, R: float, before: int) -> np.ndarray:
        """Rows < before within angular distance R of center (grid order)."""
        chunks = []
        start = self._start
        order = self._order
        for a, b in self._covered_ranges(center, R):
            s, e = start[a], start[b]
            if e > s:
                chunks.append(order[s:e])
        if not chunks:
            return np.empty(0, dtype=np.int64)
        rows = np.concatenate(chunks)
        rows = rows[rows < before]
        if rows.size == 0:
            return rows
        keep = self._pts[rows] @ center >= np.cos(R) - DOT_TOL
        return rows[keep]


class CapIndex(_StaticCapQuery):
    """Exact closed-cap membership queries over a fixed set of unit vectors.

    Ids are row numbers into points.  cell_angle is the target angular cell
    edge in radians; it defaults to about a handful of points per cell, with
    the cell table kept bounded.  Values above pi degrade to a linear scan.
    """

    def __init__(self, points, cell_angle: float | None = None):
        points = unit_rows(points, "points")
        if cell_angle is None:
            cell_angle = max(0.01, 2.0 / np.sqrt(max(points.shape[0], 1)))
        super().__init__(points, cell_angle)

    def query_cap(self, center, R: float) -> np.ndarray:
        """Ascending ids of all points within angular distance R of center.

        Closed ball: boundary points are included.
        """
        center = as_unit_vectors(center)
        R = _check_radius(R)
        return np.sort(self.query(center, R, self._pts.shape[0]))
