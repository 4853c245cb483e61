"""Geometry on the unit-area sphere.

Convention: points are stored as unit vectors in R^3 and all distances are
central angles in radians (range [0, pi]).  The sphere itself has radius
1/(2*sqrt(pi)) so that its total surface area is 1; that radius only enters
through cap areas, which are returned as fractions of the sphere,
cap_area(R) = (1 - cos R) / 2.
"""

from __future__ import annotations

import numpy as np

SPHERE_RADIUS = 1.0 / (2.0 * np.sqrt(np.pi))


def _check_radius(R: float) -> float:
    R = float(R)
    if not np.isfinite(R) or R < 0.0 or R > np.pi:
        raise ValueError(f"angular radius must lie in [0, pi], got {R!r}")
    return R


def unit_rows(p, what: str) -> np.ndarray:
    """p as an (n, 3) float64 array of unit vectors; a lone point is one row."""
    v = np.atleast_2d(np.asarray(p, dtype=np.float64))
    if v.ndim != 2 or v.shape[1] != 3 or not np.all(
            np.abs(np.einsum("ij,ij->i", v, v) - 1.0) <= 1e-9):
        raise ValueError(f"{what} must be an (n, 3) array of unit vectors")
    return v


def from_angles(colat, lon) -> np.ndarray:
    """(k, 3) unit vectors at colatitudes in [0, pi] and longitudes (any
    real, taken mod 2pi); the inverse of to_angles."""
    colat = np.atleast_1d(np.asarray(colat, dtype=np.float64))
    if not np.all((colat >= 0.0) & (colat <= np.pi)):
        raise ValueError(f"colatitude must lie in [0, pi], got {colat.tolist()}")
    if not np.all(np.isfinite(lon)):
        raise ValueError(f"longitude must be finite, got {np.ravel(lon).tolist()}")
    s = np.sin(colat)
    return np.stack([s * np.cos(lon), s * np.sin(lon), np.cos(colat)], axis=-1)


def to_angles(points) -> tuple[np.ndarray, np.ndarray]:
    """Colatitude in [0, pi] and longitude in [0, 2pi) of unit vectors (..., 3)."""
    colat = np.arccos(np.clip(points[..., 2], -1.0, 1.0))
    lon = np.arctan2(points[..., 1], points[..., 0]) % (2.0 * np.pi)
    return colat, lon


def angular_distance(p, q):
    """Central angle between arrays of unit vectors (..., 3), broadcasting
    over leading axes."""
    dots = np.sum(p * q, axis=-1)
    return np.arccos(np.clip(dots, -1.0, 1.0))


def cap_area(R) -> float:
    """Area of a spherical cap of angular radius R, as a fraction of the sphere.

    Exact on the unit-area sphere: (1 - cos R) / 2.  For small R this is
    approximately R^2 / 4.
    """
    R = np.asarray(R, dtype=np.float64)
    if np.any(~np.isfinite(R)) or np.any(R < 0.0) or np.any(R > np.pi):
        raise ValueError("angular radius must lie in [0, pi]")
    out = 0.5 * (1.0 - np.cos(R))
    return float(out) if out.ndim == 0 else out


def sample_uniform(rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw points uniformly from the sphere surface by inverse transform.

    z is uniform on [-1, 1] and longitude uniform on [0, 2pi); returns shape
    (3,) for size=None, else (size, 3).
    """
    n = 1 if size is None else int(size)
    z = 1.0 - 2.0 * rng.random(n)
    phi = 2.0 * np.pi * rng.random(n)
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)
    return pts[0] if size is None else pts
