"""Measurements on frozen graphs: degree laws, diameters, neighborhoods,
community certification, expander scans, tree statistics, concentration.

All operations are read-only.  Neighborhoods C_R(v) are geometric (angular
balls around the vertex position), not graph-distance balls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.special import gammaln, zeta

from .graph import EdgeKind, EvolvingGraph, _integer_ids, _write_csv
from .sphere import _check_radius, cap_area


def json_ready(obj):
    """Plain JSON values for a report, a container of reports or a value.

    Dataclass and NamedTuple fields become dict keys, leaving out a field
    set to None; arrays and tuples become lists, numpy scalars Python
    scalars, and NaN and +-inf become None (JSON null).
    """
    if is_dataclass(obj) or hasattr(obj, "_fields"):
        names = [f.name for f in fields(obj)] if is_dataclass(obj) else obj._fields
        return {k: json_ready(getattr(obj, k)) for k in names
                if getattr(obj, k) is not None}
    if isinstance(obj, dict):
        return {k: json_ready(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj

# ---------------------------------------------------------------------------
# degree histograms and the analytic degree law


@dataclass(frozen=True)
class DegreeHistogram:
    """Counts d_k of vertices with degree k, for one degree kind."""

    counts: dict[int, int]
    kind: str
    n: int

    def __post_init__(self):
        if any(k < 0 for k in self.counts):
            raise ValueError("negative degree in histogram")
        if sum(self.counts.values()) != self.n:
            raise ValueError("histogram counts must sum to n")

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        ks = np.array(sorted(self.counts), dtype=np.int64)
        return ks, np.array([self.counts[int(k)] for k in ks], dtype=np.int64)

    def write_csv(self, path) -> None:
        ks, cs = self.as_arrays()
        with open(path, "w") as f:
            _write_csv(f, "k,count", "%d,%d", ks, cs)

    def to_json_dict(self) -> dict:
        ks, cs = self.as_arrays()
        return {"kind": self.kind, "n": self.n,
                "k": ks.tolist(), "count": cs.tolist()}


def degree_histogram(g: EvolvingGraph, kind: str = "total") -> DegreeHistogram:
    deg = g.degree(None, kind)
    binned = np.bincount(deg)
    counts = {int(k): int(c) for k, c in enumerate(binned) if c > 0}
    return DegreeHistogram(counts=counts, kind=kind, n=g.n)


def analytic_fk(k, m: int, xi: float, delta: float):
    """Stationary fraction of degree-k vertices under attachment weight
    deg + delta with m contacts per arrival.

    Solves (2+xi+k+delta) f_k = (k-1+delta) f_{k-1} + (2+xi) 1[k=m], so
    f_m = (2+xi)/(2+xi+m+delta) and for k > m the product of the recurrence
    ratios telescopes into a Gamma form, evaluated through log-Gamma.
    Scalar or array k; f_k = 0 below k = m.
    """
    m = int(m)
    xi = float(xi)
    delta = float(delta)
    if m < 1:
        raise ValueError("m must be >= 1")
    if not np.isfinite(xi) or xi <= 0.0:
        raise ValueError("xi must be a positive finite float")
    if not np.isfinite(delta) or delta <= 0.0:
        raise ValueError("delta must be a positive finite float")
    karr = np.asarray(k)
    if not np.issubdtype(karr.dtype, np.number):
        raise ValueError("k must be numeric")
    kf = karr.astype(np.float64)
    log_fm = math.log(2.0 + xi) - math.log(2.0 + xi + m + delta)
    with np.errstate(invalid="ignore"):
        log_ratio = (gammaln(kf + delta) + gammaln(m + 3.0 + xi + delta)
                     - gammaln(kf + 3.0 + xi + delta) - gammaln(m + delta))
    out = np.where(karr >= m, np.exp(log_fm + log_ratio), 0.0)
    if karr.ndim == 0:
        return float(out)
    return out


class PowerLawFit(NamedTuple):
    exponent: float
    stderr: float
    k_min: int
    tail_count: int


def fit_power_law_exponent(h: DegreeHistogram, k_min: int) -> PowerLawFit:
    """Discrete maximum-likelihood exponent over the histogram tail k >= k_min.

    Model: P(k) = k^-alpha / zeta(alpha, k_min) on k = k_min, k_min+1, ...
    The estimate depends only on sample proportions; the standard error comes
    from the observed information (numeric second derivative at the optimum).
    """
    k_min = int(k_min)
    if k_min < 1:
        raise ValueError("k_min must be >= 1")
    ks, cs = h.as_arrays()
    sel = ks >= k_min
    ks, cs = ks[sel].astype(np.float64), cs[sel].astype(np.float64)
    n_tail = int(cs.sum())
    if n_tail < 100:
        raise ValueError(f"only {n_tail} samples with k >= {k_min}; need at least 100")
    if ks.size < 2:
        raise ValueError("degenerate tail: a single distinct degree value")
    slogk = float(np.dot(cs, np.log(ks)))

    def nll(alpha: float) -> float:
        return alpha * slogk + n_tail * math.log(zeta(alpha, k_min))

    alpha = _fminbound(nll, 1.0001, 12.0, xatol=1e-8)
    eps = 1e-4
    info = (nll(alpha + eps) - 2.0 * nll(alpha) + nll(alpha - eps)) / eps ** 2
    stderr = float(1.0 / math.sqrt(info)) if info > 0 else float("inf")
    return PowerLawFit(exponent=alpha, stderr=stderr, k_min=k_min, tail_count=n_tail)


def _fminbound(f, a: float, b: float, xatol: float, maxfun: int = 500) -> float:
    """The x in [a, b] minimising f, by Brent's bounded golden-section and
    parabolic search, stopping within xatol or after maxfun calls of f.

    A step-for-step port of scipy's _minimize_scalar_bounded (scipy,
    BSD-3-Clause licence): every floating-point operation runs in scipy's
    order, so the result is bit-identical to scipy's
    minimize_scalar(f, bounds=(a, b), method="bounded",
    options={"xatol": xatol, "maxiter": maxfun}).x, and importing gpanet
    does not load scipy's optimisation package.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:   # try a parabola through xf, nfc and fulc
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm - xf >= 0 else -tol1
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        step = max(abs(rat), tol1)
        x = xf + step if rat >= 0 else xf - step
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return float(xf)


# ---------------------------------------------------------------------------
# shortest-path diameters


@dataclass(frozen=True)
class DiameterReport:
    diameter: int
    connected: bool
    method: str
    mode: str
    n_components: int
    component_diameters: tuple[int, ...] | None = None

    def to_json_dict(self) -> dict:
        return json_ready(self)


def _diameter_bfs_all(csr, labels) -> np.ndarray:
    """Exact diameter of every connected component, indexed by label.

    A double sweep in all components at once gives each a realised lower
    bound lb and upper bounds ecc(w) <= ecc(v) + d(v, w) from a sweep end
    and a path midpoint v.  Bit-parallel BFS then runs 64 sources per pass
    (one bit per source lane, so a level is one gather + or-reduce over the
    edge array), and its eccentricities lower the bounds further.  Sources
    go by decreasing degree among the vertices whose bound exceeds the
    largest eccentricity BFS found in their component, so hubs go first and
    rule out the most; a component is done once no bound exceeds that or
    lb.
    """
    # relabel by decreasing degree: sources are then a prefix scan, the hubs'
    # rows sit together, and empty rows come last, where or-reduce reads the
    # zero sentinel after the gathered edges instead of the next row's first
    order = np.argsort(-np.diff(csr.indptr), kind="stable")
    csr = csr[order][:, order]
    labels = labels[order]
    ends = np.cumsum(np.bincount(labels)) - 1   # last slot of each label group

    def farthest(dist):
        return np.lexsort((dist, labels))[ends]

    roots = np.unique(labels, return_index=True)[1]
    a = farthest(dijkstra(csr, unweighted=True, indices=roots, min_only=True))
    d_a, pred, _ = dijkstra(csr, unweighted=True, indices=a, min_only=True,
                            return_predecessors=True)
    b = farthest(d_a)
    lb = d_a[b].astype(np.int64)
    mid, w = b.copy(), np.flatnonzero(lb > 1)
    for step in range(int(lb.max()) // 2):   # walk each a-b path halfway back
        w = w[lb[w] // 2 > step]
        mid[w] = pred[mid[w]]
    d_mid = dijkstra(csr, unweighted=True, indices=mid, min_only=True)
    bound = np.minimum(d_a + lb[labels],
                       d_mid + d_mid[farthest(d_mid)][labels]).astype(np.int64)

    indptr = csr.indptr.astype(np.int64)
    indices = csr.indices.astype(np.int64)
    best = np.zeros_like(lb)
    gathered = np.zeros(indices.size + 1, dtype=np.uint64)
    while True:
        top = np.maximum(best, lb)
        open_ = np.bincount(labels[bound > top[labels]], minlength=lb.size) > 0
        if not open_.any():
            return top
        src = np.flatnonzero((bound > best[labels]) & open_[labels])[:64]
        lanes = np.uint64(1) << np.arange(src.size, dtype=np.uint64)
        visited = np.zeros(labels.size, dtype=np.uint64)
        visited[src] = lanes
        frontier = visited.copy()
        ecc = np.zeros(src.size, dtype=np.int64)
        level = 0
        while True:
            np.take(frontier, indices, out=gathered[:-1], mode="clip")
            nxt = np.bitwise_or.reduceat(gathered, indptr[:-1])
            nxt &= ~visited
            reached = np.bitwise_or.reduce(nxt)
            if not reached:
                break
            level += 1
            ecc[(lanes & reached) != 0] = level
            visited |= nxt
            frontier = nxt
        np.maximum.at(best, labels[src], ecc)
        _lower_ecc_bounds(csr, bound, src, ecc)


def _lower_ecc_bounds(csr, bound, src, ecc) -> None:
    """Set bound[w] = min(bound[w], ecc[i] + d(src[i], w)) for every w."""
    changed = src[ecc < bound[src]]
    bound[src] = np.minimum(bound[src], ecc)
    while changed.size:
        rows = csr[changed]
        nbrs = rows.indices
        before = bound[nbrs]
        np.minimum.at(bound, nbrs, np.repeat(bound[changed] + 1, np.diff(rows.indptr)))
        changed = np.unique(nbrs[bound[nbrs] < before])


def diameter(g: EvolvingGraph, mode: str = "exact") -> DiameterReport:
    """Exact hop-count diameter.

    mode "exact" requires a connected graph; mode "component-wise" reports a
    diameter per connected component (sorted descending) and the maximum.
    One pass of _diameter_bfs_all measures every component at once.
    """
    if mode not in ("exact", "component-wise"):
        raise ValueError(f"unknown mode {mode!r}")
    adj = g.adjacency_csr
    ncomp, labels = connected_components(adj, directed=False)
    if mode == "exact" and ncomp > 1:
        raise ValueError(f"graph has {ncomp} components; use mode='component-wise'")
    diams = sorted(_diameter_bfs_all(adj, labels).tolist(), reverse=True)
    return DiameterReport(
        diameter=diams[0], connected=(ncomp == 1), method="bfs-all", mode=mode,
        n_components=ncomp,
        component_diameters=None if mode == "exact" else tuple(diams))


# ---------------------------------------------------------------------------
# geometric neighborhoods and communities


def r_neighborhood(g: EvolvingGraph, v: int, R: float) -> np.ndarray:
    """Sorted ids of all vertices within angular distance R of vertex v."""
    v = int(v)
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    return g.cap_index.query_cap(g.positions[v], min(float(R), np.pi))


@dataclass(frozen=True)
class CommunityReport:
    center: int
    radius: float
    size: int
    connected: bool
    conductance: float
    alpha: float
    beta: float
    size_cap: float
    satisfies: bool

    def to_json_dict(self) -> dict:
        return json_ready(self)


def community_check(g: EvolvingGraph, v: int, R: float, alpha: float,
                    beta: float, size_cap: float) -> CommunityReport:
    """Certify the angular neighborhood C_R(v) as a community.

    satisfies means: induced-connected, conductance <= alpha / size**beta,
    and size <= size_cap (the caller evaluates its own polylog size bound).
    Conductance domain errors (e.g. C_R(v) = V) propagate.
    """
    members = r_neighborhood(g, v, R)
    size = int(members.size)
    # the domain checks run before the cut (a cap holds its centre, so it is
    # never empty): a cap of all of V raises without a connectivity pass
    # over the whole graph
    denom = g._conductance_denominator(members)
    boundary, connected = g._cut(members)
    phi = boundary / denom
    ok = bool(connected and phi <= alpha / size ** beta and size <= size_cap)
    return CommunityReport(center=int(v), radius=float(R), size=size,
                           connected=connected, conductance=float(phi),
                           alpha=float(alpha), beta=float(beta),
                           size_cap=float(size_cap), satisfies=ok)


def long_degree_sum(g: EvolvingGraph, v: int, R: float) -> int:
    """Sum of long-edge degrees over the neighborhood C_R(v); 0 when the
    graph has no long edges."""
    members = r_neighborhood(g, v, R)
    return int(g.degree(None, "long")[members].sum())


# ---------------------------------------------------------------------------
# tree statistics for the recursive subtrees


class TreeStats(NamedTuple):
    diameter: int
    max_degree: int


def urt_stats(g: EvolvingGraph) -> TreeStats:
    """Diameter and maximum degree of the recursive-tree subgraph.

    Hybrid graphs contribute their long edges, self-loop graphs their
    flexible edges.  Raises if the selected edges do not form a spanning
    tree (wrong model, cycles, or disconnection).
    """
    if g.model == "hybrid":
        kind = EdgeKind.LONG
    elif g.model == "selfloop":
        kind = EdgeKind.FLEXIBLE
    else:
        raise ValueError(f"model {g.model!r} has no tree-edge kind")
    sel = g.edge_kind == kind
    src, dst = g.edge_src[sel], g.edge_dst[sel]
    n = g.n
    if src.size != n - 1:
        raise ValueError(f"{src.size} tree edges for {n} vertices; not a spanning tree")
    if (src == dst).any():
        raise ValueError("tree edges contain a self-loop")
    ones = np.ones(src.size, dtype=np.int8)
    adj = sp.csr_matrix((ones, (src, dst)), shape=(n, n))
    adj = adj + adj.T
    ncomp, _ = connected_components(adj, directed=False)
    if ncomp != 1:
        raise ValueError(f"tree edges split into {ncomp} components; not a spanning tree")
    # n-1 edges + connected => a tree; its diameter falls out of two sweeps
    a = int(np.argmax(dijkstra(adj, unweighted=True, indices=0)))
    diam = int(dijkstra(adj, unweighted=True, indices=a).max())
    deg = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n)
    return TreeStats(diameter=diam, max_degree=int(deg.max()))


# ---------------------------------------------------------------------------
# occupancy/attachment-mass concentration


@dataclass(frozen=True)
class ConcentrationReport:
    """Relative deviations of cap occupancy and attachment mass against
    their drift targets A_r t and (2+xi) m A_r t = (2m+delta) A_r t.

    Cells with zero occupancy are undefined (NaN), not zero.  Worst-case
    summaries cover checkpoints t >= t_r; the probe-averaged variants
    compare the mean over probes to the target before taking the worst.
    """

    times: np.ndarray
    a_r: float
    t_r: float
    t_r_effective: int
    t_r_clamped: bool
    z_dev: np.ndarray           # (n_times, n_probes) signed relative deviation
    t_dev: np.ndarray           # same shape
    z_mean_dev: np.ndarray      # (n_times,) deviation of the probe mean
    t_mean_dev: np.ndarray
    worst_z_dev: float          # max |z_dev| over probes and t >= t_r_effective
    worst_t_dev: float
    worst_z_mean_dev: float     # max |z_mean_dev| over t >= t_r_effective
    worst_t_mean_dev: float

    def to_json_dict(self) -> dict:
        return {**json_ready(self), "n_probes": int(self.z_dev.shape[1])}


def concentration_report(trace, cfg, t_r: float | None = None) -> ConcentrationReport:
    """Score a generation trace against the drift targets.

    t_r is the first time the concentration regime is claimed to hold
    (derive it from the harness parameter rules); checkpoints before it
    still appear in the per-cell tables but not in the worst-case summary.
    A t_r beyond the final checkpoint is clamped to it, with a flag; a
    non-finite t_r is an error.
    """
    times = np.asarray(trace.times, dtype=np.int64)
    if times.size == 0:
        raise ValueError("trace has no checkpoints")
    if trace.occupancy.shape[0] != times.size:
        raise ValueError("trace shape mismatch")
    if trace.occupancy.shape[1] == 0:
        raise ValueError("trace has no probes")
    a_r = float(cap_area(cfg.r))
    if a_r <= 0.0:
        raise ValueError("cap area is zero; no drift target")
    occ = np.asarray(trace.occupancy, dtype=np.float64)
    mass = np.asarray(trace.attach_mass, dtype=np.float64)
    z_target = a_r * times.astype(np.float64)
    t_target = (2.0 * cfg.m + cfg.delta) * a_r * times.astype(np.float64)

    undef = occ <= 0
    with np.errstate(invalid="ignore"):
        z_dev = occ / z_target[:, None] - 1.0
        t_dev = mass / t_target[:, None] - 1.0
    z_dev = np.where(undef, np.nan, z_dev)
    t_dev = np.where(undef, np.nan, t_dev)
    z_mean_dev = occ.mean(axis=1) / z_target - 1.0
    t_mean_dev = mass.mean(axis=1) / t_target - 1.0

    t_r = float(times[0] if t_r is None else t_r)
    if not math.isfinite(t_r):
        raise ValueError("t_r must be finite")
    clamped = t_r > times[-1]
    threshold = min(t_r, float(times[-1]))
    t_r_eff = int(threshold)
    late = times.astype(np.float64) >= threshold

    def worst(a):
        a = np.abs(a[late])
        return float(np.nanmax(a)) if np.isfinite(a).any() else float("nan")

    return ConcentrationReport(
        times=times, a_r=a_r, t_r=t_r, t_r_effective=t_r_eff,
        t_r_clamped=bool(clamped), z_dev=z_dev, t_dev=t_dev,
        z_mean_dev=z_mean_dev, t_mean_dev=t_mean_dev,
        worst_z_dev=worst(z_dev), worst_t_dev=worst(t_dev),
        worst_z_mean_dev=worst(z_mean_dev),
        worst_t_mean_dev=worst(t_mean_dev),
    )


# ---------------------------------------------------------------------------
# conductance scans over sampled centers


# flag values for neighborhoods whose conductance measures nothing
FLAG_OK = ""
FLAG_ALL = "all-vertices"
FLAG_EMPTY = "empty"
FLAG_ZERO_VOLUME = "zero-volume"
FLAG_LOOP_ONLY = "loop-only"


@dataclass(frozen=True)
class ExpanderScanReport:
    radii: tuple[float, ...]
    centers: np.ndarray
    sizes: np.ndarray           # (n_radii, n_centers)
    conductance: np.ndarray     # NaN where flagged
    flags: np.ndarray           # '' where conductance is meaningful
    min_phi: np.ndarray         # per radius, over unflagged centers
    median_phi: np.ndarray

    def n_degenerate(self, ri: int) -> int:
        return int((self.flags[ri] != FLAG_OK).sum())

    def to_json_dict(self) -> dict:
        return json_ready(self)


def expander_scan(g: EvolvingGraph, v_sample, R_list) -> ExpanderScanReport:
    """Conductance of C_R(v) for each sampled center and radius.

    Neighborhoods whose conductance measures nothing are flagged and
    excluded from the min/median summaries: the whole vertex set, a
    zero-volume side, and loop-only sets whose entire volume comes from
    self-loops (no incident proper edge exists, so the boundary is empty
    by construction and the zero says nothing about expansion).
    """
    centers = _integer_ids(v_sample)
    if centers.ndim != 1 or centers.size == 0:
        raise ValueError("v_sample must be a nonempty 1-d list of vertex ids")
    if centers.min() < 0 or centers.max() >= g.n:
        raise ValueError("sampled center out of range")
    radii = tuple(float(R) for R in np.atleast_1d(R_list))
    if any(R < 0 for R in radii):
        raise ValueError("radii must be nonnegative")

    loops = g.edge_src == g.edge_dst
    loop_deg = np.bincount(g.edge_src[loops], minlength=g.n) + g.flexible_loops
    total = g.degree()
    vol_all = g._total_volume

    nr, nc = len(radii), centers.size
    sizes = np.zeros((nr, nc), dtype=np.int64)
    phi = np.full((nr, nc), np.nan)
    flags = np.full((nr, nc), FLAG_OK, dtype=object)
    for ri, R in enumerate(radii):
        rows, ptr = g.cap_index.members(g.positions[centers], _check_radius(min(R, np.pi)))
        for ci in range(nc):
            members = rows[ptr[ci]:ptr[ci + 1]]
            sizes[ri, ci] = members.size
            if members.size == 0:
                flags[ri, ci] = FLAG_EMPTY
                continue
            if members.size == g.n:
                flags[ri, ci] = FLAG_ALL
                continue
            vol_s = int(total[members].sum())
            if vol_s == 0 or vol_all - vol_s == 0:
                flags[ri, ci] = FLAG_ZERO_VOLUME
                continue
            if vol_s == int(loop_deg[members].sum()):
                flags[ri, ci] = FLAG_LOOP_ONLY
                continue
            phi[ri, ci] = g.conductance(members)

    with np.errstate(all="ignore"):
        min_phi = np.array([np.nanmin(row) if np.isfinite(row).any() else np.nan
                            for row in phi])
        median_phi = np.array([np.nanmedian(row) if np.isfinite(row).any() else np.nan
                               for row in phi])
    return ExpanderScanReport(radii=radii, centers=centers, sizes=sizes,
                              conductance=phi, flags=flags,
                              min_phi=min_phi, median_phi=median_phi)
