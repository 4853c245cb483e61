"""Spatial index for spherical-cap range queries.

Points are bucketed into a latitude-band grid: bands of equal colatitude
height, each band split into near-square longitude cells.  A cap query walks
the bands the cap can touch, gathers the cells of the cap's one longitude
window in each, and post-filters the candidates with the closed-ball
predicate dot(p, center) >= cos(R) - tol.  The window is conservative
(query radius padded by 2e-6 rad), so the candidate set is a provable
superset and the filter makes the result exact.

Queries run in blocks: one call takes many centres, computes every centre's
slot ranges at once, gathers the rows of all of them as one index array and
filters them with one vectorised dot product.  With a birth-time limit only
the prefix of each cell that was born in time is gathered.
"""

from __future__ import annotations

import math

import numpy as np

from .sphere import _check_radius, to_angles, unit_rows

# slack on the membership dot product; absorbs rounding of stored unit vectors
DOT_TOL = 1e-12
_PAD = 2e-6
# band count clip: the table holds at most about 3.3e5 cells
_MAX_BANDS = 512


def _spans(first: np.ndarray, end: np.ndarray, out=None) -> np.ndarray:
    """Concatenation of arange(first[i], end[i]) over i, written to out if given."""
    length = end - first
    shift = (end - length.cumsum()).repeat(length)
    return np.add(shift, np.arange(shift.size), out=out)


class CapIndex:
    """Exact closed-cap membership queries over a fixed set of unit vectors.

    Ids are row numbers into points.  cell_angle is the target angular cell
    edge in radians; it defaults to about a handful of points per cell, with
    at most _MAX_BANDS bands.  Values above pi degrade to a linear scan.
    Rows are grouped by cell once (a stable sort keeps each group ascending
    in row id), so the rows of a cell born before t are a prefix of it.
    """

    def __init__(self, points, cell_angle: float | None = None):
        points = unit_rows(points, "points")
        self._n = n = points.shape[0]
        if cell_angle is None:
            cell_angle = max(0.01, 2.0 / np.sqrt(max(n, 1)))
        cell_angle = float(cell_angle)
        if not np.isfinite(cell_angle) or cell_angle <= 0.0:
            raise ValueError(f"cell_angle must be positive, got {cell_angle!r}")
        self.cell_angle = cell_angle
        self._nbands = int(np.clip(np.ceil(np.pi / cell_angle), 1, _MAX_BANDS))
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
        # ascending (slot, row) key of each grid position, and the coordinate
        # columns in grid order
        self._key = slots[self._order] * n + self._order
        self._cols = np.ascontiguousarray(points[self._order].T)
        self._work = None

    def _slot_ranges(self, centers: np.ndarray, R: float):
        """(owner, first, end): half-open slot ranges that cover the caps (centers[i], R).

        Nonempty, ordered by owner, and ascending and disjoint within each
        owner.  Conservative: every point within R of a centre
        lies in one of that centre's slots, and a gather over them lists
        rows in grid order.  The padded cap of radius rho = R + _PAD spans
        the colatitudes theta_c +- rho and, unless it holds a pole, the
        longitudes phi_c +- arcsin(sin rho / sin theta_c), its width where
        meridians touch it; a cap that holds a pole spans every longitude.
        Each band in the colatitude range takes the cells of that one
        window as two ranges, the part past the 0/2pi seam first.  The pad
        carries over into longitude at least 1:1:
        d(dphi)/d(rho) = cos rho / sqrt(sin^2 theta_c - sin^2 rho) >= 1.
        """
        rp = min(R + _PAD, math.pi)
        theta_c, phi_c = to_angles(centers)
        # sin theta_c <= sin rp only for a cap that holds a pole
        dphi = np.arcsin(math.sin(rp) / np.maximum(np.sin(theta_c), math.sin(rp)))
        dphi[np.abs(centers[:, 2]) >= math.cos(rp)] = math.pi
        b0 = np.maximum(((theta_c - rp) / self._band_h).astype(np.int64), 0)
        b1 = np.minimum(((theta_c + rp) / self._band_h).astype(np.int64), self._nbands - 1)
        band = _spans(b0, b1 + 1)
        owner = np.arange(centers.shape[0]).repeat(b1 + 1 - b0)
        off, nc, w = self._band_off[band], self._ncells[band], self._cell_w[band]
        j0 = np.floor((phi_c - dphi)[owner] / w)
        j1 = np.floor((phi_c + dphi)[owner] / w)
        # the window is cells a .. e-1 of the band, taken mod nc: [a, min(e, nc))
        # and, past the seam, [0, e - nc), which comes first in slot order
        a = (j0 % nc).astype(np.int64)
        e = a + np.minimum(j1 - j0 + 1, nc).astype(np.int64)
        first = np.empty((band.size, 2), dtype=np.int64)
        end = np.empty_like(first)
        first[:, 0] = off
        end[:, 0] = off + np.maximum(e - nc, 0)
        first[:, 1] = off + a
        end[:, 1] = off + np.minimum(e, nc)
        first, end = first.ravel(), end.ravel()
        nonempty = first < end
        return owner.repeat(2)[nonempty], first[nonempty], end[nonempty]

    def members(self, centers: np.ndarray, R: float, before=None):
        """Rows within angular distance R of each centre, as (rows, ptr).

        The rows of centre i are rows[ptr[i]:ptr[i + 1]], in grid order.
        before (an int, or one per centre) keeps only rows < before.
        """
        centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
        owner, first, end = self._slot_ranges(centers, R)
        if before is None:
            first, end = self._start[first], self._start[end]
        else:
            # a cell lists its rows ascending, so those < before are a prefix
            slot = _spans(first, end)
            owner = owner.repeat(end - first)
            limit = np.minimum(np.maximum(before, 0), self._n)
            first = self._start[slot]
            end = self._key.searchsorted(slot * self._n + (limit[owner] if limit.ndim else limit))
        pos, coords, dot, inside = self._scratch(int((end - first).sum()))
        _spans(first, end, out=pos)
        # the gathered rows are grouped by owner: repeat each centre over its group
        per = np.bincount(owner, weights=end - first, minlength=centers.shape[0]).astype(np.int64)
        # mode="clip" writes to out directly; the default mode buffers it
        np.take(self._cols, pos, axis=1, out=coords, mode="clip")
        coords *= centers.T.repeat(per, axis=1)
        np.add.reduce(coords, axis=0, out=dot)
        np.greater_equal(dot, np.cos(R) - DOT_TOL, out=inside)
        keep = np.flatnonzero(inside)
        ptr = keep.searchsorted(np.concatenate([[0], per.cumsum()]))
        return self._order[pos[keep]], ptr

    def _scratch(self, size: int):
        """Work arrays for size gathered rows: their positions, coordinates
        (3, size), dot products and kept mask.

        They live as long as the index and grow by doubling, so a run of
        members calls allocates no large array per call; the result never
        refers to them.
        """
        if self._work is None or self._work[0].size < size:
            cap = max(size, 2 * (0 if self._work is None else self._work[0].size))
            self._work = (np.empty(cap, dtype=np.int64), np.empty(3 * cap),
                          np.empty(cap), np.empty(cap, dtype=bool))
        pos, coords, dot, inside = self._work
        return pos[:size], coords[:3 * size].reshape(3, size), dot[:size], inside[:size]

    def query(self, center: np.ndarray, R: float, before: int) -> np.ndarray:
        """Rows < before within R of center (grid order); kept for perfbench/spans.py."""
        return self.members(center, R, before)[0]

    def query_cap(self, center, R: float) -> np.ndarray:
        """Ascending ids of all points within angular distance R of center.

        Closed ball: boundary points are included.
        """
        center = unit_rows(center, "center")
        if center.shape[0] != 1:
            raise ValueError(f"center must be one unit vector, got {center.shape[0]} rows")
        R = _check_radius(R)
        return np.sort(self.members(center, R)[0])


# the name perfbench/spans.py wraps the grid's methods under
_StaticCapQuery = CapIndex
