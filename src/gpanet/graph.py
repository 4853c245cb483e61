"""Multigraph container for sphere-embedded evolving graphs.

Edges are stored as parallel arrays (src, dst, kind); parallel edges are kept
as separate records and a self-loop (src == dst) contributes exactly 1 to its
vertex's degree.  Flexible self-loops of the self-loop model are not edge
records; they live in a per-vertex counter, since they are removable.

The adjacency is a CSR built in numpy (_symmetric_csr) with the arrays and
dtypes scipy.sparse would give, so gpanet does not import scipy.  Traversals
run on its indptr/indices arrays: _hop_distances is a level-synchronous BFS
from a set of sources, and _components labels every connected component in
one pass by min-label propagation with pointer jumping.
"""

from __future__ import annotations

from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .capindex import CapIndex, _spans
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


def _integer_ids(a, what: str = "vertex ids") -> np.ndarray:
    """a as int64; integral floats (such as 1e4 from JSON) pass, any other
    value raises, naming what."""
    a = np.asarray(a)
    if a.dtype.kind not in "iu" and not (
            a.dtype.kind == "f" and (np.isfinite(a) & (a == np.floor(a))).all()):
        raise ValueError(f"{what} must be integers")
    return a.astype(np.int64, copy=False)


def _integer(v, what: str) -> int:
    """v as a Python int by _integer_ids' rule; a Python int passes as is,
    since it may exceed int64 (a seed may be up to 2**64 - 1), but a bool
    raises, as a numpy bool does."""
    if isinstance(v, bool) or not isinstance(v, int):
        _integer_ids(v, what)
    return int(v)


def _distinct(a) -> np.ndarray:
    """The sorted distinct values of a, as np.unique gives them.

    np.unique imports numpy.ma on its first call (numpy 2.4), about 12 ms
    and 1.2 MiB that the first cap or diameter would pay.
    """
    a = np.sort(a, axis=None)
    first = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return a[first]


def _vertex_id(v, n: int) -> int:
    """v as one vertex id in range(n); a fractional or out-of-range v raises."""
    v = int(_integer_ids(v))
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range")
    return v


class CSR(NamedTuple):
    """A square sparse matrix in compressed sparse row form: the columns of
    row i are indices[indptr[i]:indptr[i + 1]], its values the same slice
    of data."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.indptr.size - 1,) * 2


def _symmetric_csr(src, dst, n: int) -> CSR:
    """Adjacency of an undirected multigraph: entry (u, v) counts the u-v
    edges, self-loops dropped.

    The arrays equal those of scipy's A + A.T for A =
    csr_matrix((ones(int32), (src, dst))) without loops: rows list ascending
    columns, and indices, indptr and data are int32 while they fit.  Each
    unordered pair {lo < hi} is one int64 key lo * n + hi; sorting the keys
    in place and counting runs gives the pairs ascending by (lo, hi) with
    their multiplicities, i.e. the upper triangle in row order.  Row r
    holds its lower part (columns < r, the pairs with hi = r, by lo) before
    its upper part, so sorting the pairs by (hi, lo) places the lower
    triangle.  Only the key is edge-long; every later array is pair-long,
    and generated graphs often have half as many pairs as edges.
    """
    key = np.minimum(src, dst)
    key *= n - 1
    key += src
    key += dst                       # min * n + max
    key[src == dst] = n * n          # loops sort past every pair
    key.sort()
    key = key[:key.searchsorted(n * n)]
    new = np.empty(key.size, dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    first = np.flatnonzero(new)
    del new
    count = np.diff(first, append=key.size).astype(np.int32)
    idx = np.int32 if max(n, 2 * first.size) <= np.iinfo(np.int32).max else np.int64
    lo, hi = np.empty(first.size, dtype=idx), np.empty(first.size, dtype=idx)
    np.divmod(key[first], n, out=(lo, hi))
    del key, first
    n_lo, n_hi = np.bincount(lo, minlength=n), np.bincount(hi, minlength=n)
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(n_lo + n_hi, out=indptr[1:])
    upper = np.tile([False, True], n).repeat(np.stack([n_hi, n_lo], axis=1).ravel())
    indices = np.empty(2 * lo.size, dtype=idx)
    data = np.empty(2 * lo.size, dtype=np.int32)
    indices[upper] = hi
    data[upper] = count
    np.logical_not(upper, out=upper)
    by_hi = np.multiply(hi, n, dtype=np.int64)
    del hi
    by_hi += lo
    by_hi = by_hi.argsort()          # the keys are distinct: any sort is stable
    indices[upper] = lo[by_hi]
    data[upper] = count[by_hi]
    return CSR(indptr, indices, data)


def _hop_distances(indptr, indices, sources) -> np.ndarray:
    """Hop distance from the nearest source to every vertex, -1 where unreached.

    indptr/indices are a symmetric CSR adjacency.  One level gathers the
    frontier's rows at once.
    """
    n = indptr.size - 1
    dist = np.full(n, -1, dtype=np.int64)
    frontier = np.asarray(sources, dtype=np.int64)
    dist[frontier] = 0
    blocked = np.zeros(n, dtype=bool)
    blocked[frontier] = True
    level = 0
    while frontier.size:
        level += 1
        nxt = np.zeros(n, dtype=bool)
        nxt[indices[_spans(indptr[frontier], indptr[frontier + 1])]] = True
        np.greater(nxt, blocked, out=nxt)   # nxt and not blocked
        frontier = nxt.nonzero()[0]
        blocked |= nxt
        dist[frontier] = level
    return dist


def _components(indptr, indices) -> tuple[int, np.ndarray]:
    """(count, labels) of the connected components of a symmetric CSR adjacency.

    Components are numbered in the order of their lowest vertex id, as
    scipy's connected_components numbers them.  Each round gives every
    vertex the least label among itself and its neighbours, hooks its old
    label's vertex to that label, and jumps pointers until every label is a
    root; it stops when a round changes nothing, so every vertex then holds
    its component's lowest id.  The hook keeps the rounds few: without it,
    a 1e5-vertex path with shuffled ids took thousands of rounds.
    Vertices without edges cost nothing.
    """
    n = indptr.size - 1
    label = np.arange(n)
    rows = np.flatnonzero(np.diff(indptr))
    starts = indptr[rows]
    while True:
        low = label.copy()
        if rows.size:
            low[rows] = np.minimum(low[rows], np.minimum.reduceat(label[indices], starts))
        np.minimum.at(low, label, low)
        while True:
            jumped = low[low]
            if np.array_equal(jumped, low):
                break
            low = jumped
        if np.array_equal(low, label):
            break
        label = low
    roots = label == np.arange(n)
    return int(np.count_nonzero(roots)), (np.cumsum(roots) - 1)[label]


# EvolvingGraph._cap_terms' flags, and conductance's error for those that leave it undefined
FLAG_OK = ""
FLAG_EMPTY = "empty"
FLAG_ALL = "all-vertices"
FLAG_ZERO_VOLUME = "zero-volume"
FLAG_LOOP_ONLY = "loop-only"
_UNDEFINED = {FLAG_EMPTY: "conductance undefined for empty S",
              FLAG_ALL: "conductance undefined for S = V",
              FLAG_ZERO_VOLUME: "conductance undefined: zero-volume side"}


def _kind_degrees(src, dst, kind, n) -> np.ndarray:
    """Edge ends per EdgeKind (row) and vertex, a self-loop counting 1, from one
    int64 key per edge: kind * n + src, then in place kind * n + dst."""
    key = np.multiply(kind, n, dtype=np.int64)
    key += src
    deg = np.bincount(key, minlength=3 * n)
    deg -= np.bincount(key[src == dst], minlength=3 * n)
    key -= src
    key += dst
    deg += np.bincount(key, minlength=3 * n)
    return deg.reshape(3, n)


class EvolvingGraph:
    """Frozen result of a generation run (or a hand-built instance in tests).

    Vertex ids are 0-based array indices; vertex i is the (i+1)-th born, so
    its birth time is i+1 (the birth_time column of vertices.csv).
    """

    def __init__(self, model: str, positions, edge_src, edge_dst, edge_kind,
                 flexible_loops=None, isolated_birth=None):
        self.model = str(model)
        if self.model not in MODEL_NAMES:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODEL_NAMES}")
        self.positions = np.ascontiguousarray(unit_rows(positions, "positions"))
        n = self.positions.shape[0]

        self.edge_src = _integer_ids(edge_src)
        self.edge_dst = _integer_ids(edge_dst)
        kind = np.asarray(edge_kind)
        if kind.dtype != np.int8:   # generate's int8 kinds need no copy to be checked
            kind = _integer_ids(kind, "edge kinds")
        if not (self.edge_src.shape == self.edge_dst.shape == kind.shape):
            raise ValueError("edge arrays must have equal length")
        if self.edge_src.size:
            lo = min(self.edge_src.min(), self.edge_dst.min())
            hi = max(self.edge_src.max(), self.edge_dst.max())
            if lo < 0 or hi >= n:
                raise ValueError("edge endpoint out of range")
            if kind.min() < EdgeKind.PLAIN or kind.max() > EdgeKind.FLEXIBLE:
                raise ValueError("unknown edge kind")
        self.edge_kind = kind.astype(np.int8, copy=False)

        if flexible_loops is None:
            flexible_loops = np.zeros(n, dtype=np.int64)
        self.flexible_loops = _integer_ids(flexible_loops, "flexible_loops")
        if self.flexible_loops.shape != (n,) or (self.flexible_loops < 0).any():
            raise ValueError("flexible_loops must be n nonnegative counts")
        if isolated_birth is None:
            isolated_birth = np.zeros(n, dtype=bool)
        self.isolated_birth = np.asarray(isolated_birth, dtype=bool)
        if self.isolated_birth.shape != (n,):
            raise ValueError("isolated_birth must be n flags")

        # degree tallies are always recomputed from the edge list; generators
        # cross-check their running counters against these
        deg = _kind_degrees(self.edge_src, self.edge_dst, self.edge_kind, n)
        self.plain_degree, self.long_degree, self.flexible_edge_degree = deg
        self.total_degree = deg.sum(axis=0) + self.flexible_loops
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
        canon = _KIND_ALIASES.get(kind.lower() if isinstance(kind, str) else None)
        if canon is None:
            raise ValueError(f"unknown degree kind {kind!r}")
        if canon == "non-flexible":
            arr = self.plain_degree + self.long_degree
        elif canon == "flexible":
            arr = self.flexible_edge_degree + self.flexible_loops
        else:
            arr = getattr(self, f"{canon}_degree")
        if v is None:
            return arr
        return int(arr[_vertex_id(v, self.n)])

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
        return _distinct(S)

    def volume(self, S) -> int:
        """Sum of total degrees over S (self-loops counting 1 each)."""
        return int(self.total_degree[self._as_ids(S)].sum())

    def boundary_edge_count(self, S) -> int:
        """Edges with exactly one endpoint in S, multiplicity counted; loops never cross."""
        return self._cut(self._as_ids(S), connectivity=False)[0]

    def conductance(self, S) -> float:
        """Boundary edge count over min(vol(S), vol(complement))."""
        return self._conductance(self._as_ids(S))[0]

    def induced_connected(self, S) -> bool:
        """Whether the subgraph induced by S is connected (singletons count)."""
        return self._cut(self._as_ids(S))[1]

    def _cap_terms(self, rows, ptr) -> tuple[np.ndarray, np.ndarray]:
        """(flags, min(vol(S), vol(complement))) of each set S of distinct vertex
        ids rows[ptr[i]:ptr[i + 1]]: S's flag is the first that holds of empty, all
        of V, a zero-volume side and loop-only, where its rows hold no CSR entry (the
        CSR drops loops) and its conductance is 0 by construction.  One reduceat sums
        the sets' degrees and entries, so a call does no n- or E-long work."""
        sizes = ptr[1:] - ptr[:-1]
        indptr = self.adjacency_csr.indptr
        # per row: total degree and entries; the last column, 0, lets a set start at the end
        terms = np.zeros((2, rows.size + 1), dtype=np.int64)
        np.take(self.total_degree, rows, out=terms[0, :-1])
        np.subtract(indptr[1:][rows], indptr[rows], out=terms[1, :-1])
        # reduceat gives an empty set its first row's terms, so zero them
        vol, entries = np.add.reduceat(terms, ptr[:-1], axis=1) * (sizes > 0)
        denom = np.minimum(vol, self._total_volume - vol)
        flags = np.full(sizes.size, FLAG_OK, dtype=object)
        # the later rules first, so that the earlier ones win
        flags[entries == 0] = FLAG_LOOP_ONLY
        flags[denom == 0] = FLAG_ZERO_VOLUME
        flags[sizes == self.n] = FLAG_ALL
        flags[sizes == 0] = FLAG_EMPTY
        return flags, denom

    def _conductance(self, ids, connectivity: bool = False) -> tuple[float, bool | None]:
        """(conductance, connected as _cut gives it) of the distinct vertex ids; an
        undefined conductance raises before the cut, so S = V costs no connectivity pass."""
        flags, denom = self._cap_terms(ids, np.array([0, ids.size]))
        if flags[0] in _UNDEFINED:
            raise ValueError(_UNDEFINED[flags[0]])
        boundary, connected = self._cut(ids, connectivity)
        return boundary / int(denom[0]), connected

    def _cut(self, ids, connectivity: bool = True) -> tuple[int, bool | None]:
        """Boundary edge count of the distinct vertex ids and, unless
        connectivity is False, whether they induce a connected subgraph.

        The boundary comes from one gather of the ids' adjacency rows.  For
        the connectivity, the same entries in local ids (1 + the index into
        ids, or 0 for a vertex outside them, whose row is empty) form the
        induced subgraph's CSR, and a BFS on it from the first id does no
        n-long work per level.  A boundary alone reads the rows through an
        n-long mask, which costs less to make than the n-long local ids.
        """
        if connectivity and ids.size == 0:
            raise ValueError("connectivity undefined for empty S")
        csr = self.adjacency_csr
        first, end = csr.indptr[ids], csr.indptr[ids + 1]
        pos = _spans(first, end)
        if not connectivity:
            inside = np.zeros(self.n, dtype=bool)
            inside[ids] = True
            return int(csr.data[pos][~inside[csr.indices[pos]]].sum()), None
        local = np.zeros(self.n, dtype=csr.indices.dtype)
        local[ids] = np.arange(1, ids.size + 1)
        nbrs = local[csr.indices[pos]]
        boundary = int(csr.data[pos[nbrs == 0]].sum())
        indptr = np.zeros(ids.size + 2, dtype=np.int64)
        np.cumsum(end - first, out=indptr[2:])
        return boundary, bool((_hop_distances(indptr, nbrs, [1])[1:] >= 0).all())

    # -- derived structures --------------------------------------------------

    @property
    def adjacency_csr(self) -> CSR:
        """Symmetric adjacency over all edge kinds: entry (u, v) is the number
        of u-v edges, self-loops dropped."""
        if self._csr is None:
            self._csr = _symmetric_csr(self.edge_src, self.edge_dst, self.n)
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
        """Vertex table: id,colatitude,longitude,birth_time (= id + 1)."""
        colat, lon = to_angles(self.positions)
        ids, order = _decimal_strings(self.n), np.arange(self.n)
        with open(path, "w") as f:
            _write_csv(f, "id,colatitude,longitude,birth_time", "%s,%.17g,%.17g,%s",
                       (ids, order), colat, lon, (ids[1:], order))


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
