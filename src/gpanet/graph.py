"""Multigraph container for sphere-embedded evolving graphs.

Edges are stored as parallel arrays (src, dst, kind); parallel edges are kept
as separate records and a self-loop (src == dst) contributes exactly 1 to its
vertex's degree.  Flexible self-loops of the self-loop model are not edge
records; they live in a per-vertex counter, since they are removable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .capindex import CapIndex
from .sphere import to_angles, unit_rows


class EdgeKind(IntEnum):
    PLAIN = 0
    LONG = 1
    FLEXIBLE = 2


# indexed by EdgeKind; object dtype, so indexing it by edge_kind yields
# references to these three strings, not a fixed-width string array
KIND_NAMES = np.array(["plain", "long", "flexible"], dtype=object)

MODEL_NAMES = ("base", "hybrid", "selfloop")

# accepted spellings for degree-kind arguments
_KIND_ALIASES = {
    "total": "total",
    "with-flexible": "total",
    "plain": "plain",
    "local": "plain",
    "long": "long",
    "non-flexible": "non-flexible",
    "nonflexible": "non-flexible",
    "flexible": "flexible",
}


@dataclass(frozen=True)
class VertexRecord:
    id: int
    position: np.ndarray
    birth_time: int
    plain_degree: int
    long_degree: int
    flexible_loop_count: int
    flexible_edge_degree: int
    isolated_birth: bool

    @property
    def total_degree(self) -> int:
        return (self.plain_degree + self.long_degree
                + self.flexible_loop_count + self.flexible_edge_degree)


def _integer_ids(a) -> np.ndarray:
    """a as int64 ids; integral floats pass, any other value raises."""
    a = np.asarray(a)
    if a.dtype.kind not in "iu" and not (
            a.dtype.kind == "f" and (np.isfinite(a) & (a == np.floor(a))).all()):
        raise ValueError("vertex ids must be integers")
    return a.astype(np.int64, copy=False)


def _loop_aware_degrees(src, dst, n) -> np.ndarray:
    """Degree contribution of an edge set, with self-loops counting 1."""
    deg = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n)
    loops = src == dst
    if loops.any():
        deg -= np.bincount(src[loops], minlength=n)
    return deg


class EvolvingGraph:
    """Frozen result of a generation run (or a hand-built instance in tests).

    Vertex ids are 0-based array indices; vertex i is the (i+1)-th born, so
    its birth_time is i+1.
    """

    def __init__(self, model: str, positions, edge_src, edge_dst, edge_kind,
                 flexible_loops=None, isolated_birth=None, config=None):
        self.model = str(model)
        if self.model not in MODEL_NAMES:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODEL_NAMES}")
        self.positions = np.ascontiguousarray(unit_rows(positions, "positions"))
        n = self.positions.shape[0]

        self.edge_src = np.asarray(edge_src, dtype=np.int64)
        self.edge_dst = np.asarray(edge_dst, dtype=np.int64)
        self.edge_kind = np.asarray(edge_kind, dtype=np.int8)
        if not (self.edge_src.shape == self.edge_dst.shape == self.edge_kind.shape):
            raise ValueError("edge arrays must have equal length")
        if self.edge_src.size:
            lo = min(self.edge_src.min(), self.edge_dst.min())
            hi = max(self.edge_src.max(), self.edge_dst.max())
            if lo < 0 or hi >= n:
                raise ValueError("edge endpoint out of range")
            if not np.isin(self.edge_kind, list(EdgeKind)).all():
                raise ValueError("unknown edge kind")

        if flexible_loops is None:
            flexible_loops = np.zeros(n, dtype=np.int64)
        self.flexible_loops = np.asarray(flexible_loops, dtype=np.int64)
        if self.flexible_loops.shape != (n,) or (self.flexible_loops < 0).any():
            raise ValueError("flexible_loops must be n nonnegative counts")
        if isolated_birth is None:
            isolated_birth = np.zeros(n, dtype=bool)
        self.isolated_birth = np.asarray(isolated_birth, dtype=bool)
        self.birth_time = np.arange(1, n + 1, dtype=np.int64)
        self.config = config

        # degree tallies are always recomputed from the edge list; generators
        # cross-check their running counters against these
        kinds = self.edge_kind
        self.plain_degree = _loop_aware_degrees(
            self.edge_src[kinds == EdgeKind.PLAIN], self.edge_dst[kinds == EdgeKind.PLAIN], n)
        self.long_degree = _loop_aware_degrees(
            self.edge_src[kinds == EdgeKind.LONG], self.edge_dst[kinds == EdgeKind.LONG], n)
        self.flexible_edge_degree = _loop_aware_degrees(
            self.edge_src[kinds == EdgeKind.FLEXIBLE], self.edge_dst[kinds == EdgeKind.FLEXIBLE], n)
        self.total_degree = (self.plain_degree + self.long_degree
                             + self.flexible_edge_degree + self.flexible_loops)
        self._total_volume = int(self.total_degree.sum())
        self._csr = None
        self._cap_index = None

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edge_src.size

    def degree(self, v: int | None = None, kind: str = "total"):
        """Degree of vertex v (or the whole array for v=None) under a kind.

        Kinds: total (= with-flexible), plain (= local), long, non-flexible
        (plain + long), flexible (flexible edges + remaining flexible loops).
        """
        try:
            canon = _KIND_ALIASES[kind.lower()]
        except KeyError:
            raise ValueError(f"unknown degree kind {kind!r}") from None
        arr = {
            "total": self.total_degree,
            "plain": self.plain_degree,
            "long": self.long_degree,
            "non-flexible": self.plain_degree + self.long_degree,
            "flexible": self.flexible_edge_degree + self.flexible_loops,
        }[canon]
        if v is None:
            return arr
        return int(arr[int(v)])

    def vertex(self, v: int) -> VertexRecord:
        v = int(v)
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return VertexRecord(
            id=v,
            position=self.positions[v].copy(),
            birth_time=int(self.birth_time[v]),
            plain_degree=int(self.plain_degree[v]),
            long_degree=int(self.long_degree[v]),
            flexible_loop_count=int(self.flexible_loops[v]),
            flexible_edge_degree=int(self.flexible_edge_degree[v]),
            isolated_birth=bool(self.isolated_birth[v]),
        )

    # -- vertex-set utilities ----------------------------------------------

    def _as_ids(self, S) -> np.ndarray:
        """Sorted distinct vertex ids of S, given as ids or a boolean mask."""
        S = np.asarray(S)
        if S.dtype == bool:
            if S.shape != (self.n,):
                raise ValueError("boolean mask must have length n")
            return np.flatnonzero(S)
        S = _integer_ids(S)
        if S.size and (S.min() < 0 or S.max() >= self.n):
            raise ValueError("vertex id out of range")
        return np.unique(S)

    def volume(self, S) -> int:
        """Sum of total degrees over S (self-loops counting 1 each)."""
        return int(self.total_degree[self._as_ids(S)].sum())

    def boundary_edge_count(self, S) -> int:
        """Edges with exactly one endpoint in S, multiplicity counted; loops never cross."""
        return self._cut(self._as_ids(S), connectivity=False)[0]

    def conductance(self, S) -> float:
        """Boundary edge count over min(vol(S), vol(complement))."""
        ids = self._as_ids(S)
        denom = self._conductance_denominator(ids)
        return self._cut(ids, connectivity=False)[0] / denom

    def induced_connected(self, S) -> bool:
        """Whether the subgraph induced by S is connected (singletons count)."""
        return self._cut(self._as_ids(S))[1]

    def _conductance_denominator(self, ids) -> int:
        """min(vol(S), vol(complement)) of the distinct vertex ids S; raises
        where conductance is undefined."""
        if ids.size == 0:
            raise ValueError("conductance undefined for empty S")
        if ids.size == self.n:
            raise ValueError("conductance undefined for S = V")
        vol_s = int(self.total_degree[ids].sum())
        denom = min(vol_s, self._total_volume - vol_s)
        if denom == 0:
            raise ValueError("conductance undefined: zero-volume side")
        return denom

    def _cut(self, ids, connectivity: bool = True) -> tuple[int, bool | None]:
        """Boundary edge count of the distinct vertex ids and, unless
        connectivity is False, whether they induce a connected subgraph.

        Both come from one row slice of the adjacency.
        """
        if connectivity and ids.size == 0:
            raise ValueError("connectivity undefined for empty S")
        mask = np.zeros(self.n, dtype=bool)
        mask[ids] = True
        rows = self.adjacency_csr[ids]
        boundary = int(rows.data[~mask[rows.indices]].sum())
        if not connectivity:
            return boundary, None
        # the induced slice is symmetric, so its strong components are its
        # components, and scipy skips the transpose that directed=False builds
        ncomp, _ = connected_components(rows[:, ids], directed=True, connection="strong")
        return boundary, ncomp == 1

    # -- derived structures --------------------------------------------------

    @property
    def adjacency_csr(self) -> sp.csr_matrix:
        """Symmetric adjacency over all edge kinds: entry (u, v) is the number
        of u-v edges, self-loops dropped."""
        if self._csr is None:
            sel = self.edge_src != self.edge_dst
            # one direction from int32 pairs, then symmetrised: building from
            # int64 pairs of both directions costs several times the memory
            one_way = sp.csr_matrix(
                (np.ones(np.count_nonzero(sel), dtype=np.int32),
                 (self.edge_src[sel].astype(np.int32), self.edge_dst[sel].astype(np.int32))),
                shape=(self.n, self.n))
            self._csr = one_way + one_way.T
        return self._csr

    @property
    def cap_index(self) -> CapIndex:
        """generate's grid, or for a hand-built graph a default one made on first use."""
        if self._cap_index is None:
            self._cap_index = CapIndex(self.positions)
        return self._cap_index

    # -- export ---------------------------------------------------------------

    def write_edges_csv(self, path) -> None:
        """One record per edge: src,dst,kind with kind in {plain,long,flexible}."""
        with open(path, "w") as f:
            self.write_edges(f)

    def write_edges(self, f) -> None:
        """The edges.csv records, written to the text file f."""
        ids = _decimal_strings(self.n)
        _write_csv(f, "src,dst,kind", "%s,%s,%s",
                   (ids, self.edge_src), (ids, self.edge_dst), (KIND_NAMES, self.edge_kind))

    def write_vertices_csv(self, path) -> None:
        """Vertex table: id,colatitude,longitude,birth_time."""
        colat, lon = to_angles(self.positions)
        ids = _decimal_strings(self.n)
        with open(path, "w") as f:
            _write_csv(f, "id,colatitude,longitude,birth_time", "%s,%.17g,%.17g,%s",
                       (ids, np.arange(self.n)), colat, lon, (ids, self.birth_time))


_CSV_CHUNK_ROWS = 4096


def _decimal_strings(n: int) -> np.ndarray:
    """str(i) for i in 0..n, as an object array that vertex-id columns index."""
    return np.array([str(i) for i in range(n + 1)], dtype=object)


def _write_csv(f, header: str, line: str, *columns) -> None:
    """Write header, then line % row for each row across the columns.

    A column is an array, or a pair (table, index) whose cells are
    table[index].  Either is read one fixed-size chunk at a time, so no
    column is ever held whole as strings or objects, and each chunk is
    written by one % format over its cells, interleaved row by row.
    """
    f.write(header + "\n")
    line += "\n"
    columns = [c if isinstance(c, tuple) else (None, c) for c in columns]
    width = len(columns)
    rows = len(columns[0][1])
    for lo in range(0, rows, _CSV_CHUNK_ROWS):
        k = min(_CSV_CHUNK_ROWS, rows - lo)
        cells = [None] * (k * width)
        for j, (table, c) in enumerate(columns):
            c = c[lo:lo + k]
            cells[j::width] = (c if table is None else table[c]).tolist()
        f.write((line * k) % tuple(cells))
