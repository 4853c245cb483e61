"""Brute-force reference implementations the fast code is checked against."""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, shortest_path

from gpanet.capindex import DOT_TOL, CapIndex
from gpanet.graph import EdgeKind
from gpanet.models import _auto_cell
from gpanet.sphere import sample_uniform


def scipy_csr(csr):
    """gpanet's CSR adjacency as a scipy matrix over the same arrays."""
    return sp.csr_matrix((csr.data, csr.indices, csr.indptr), shape=csr.shape)


def scipy_adjacency(src, dst, n):
    """scipy's symmetric multigraph adjacency, loops dropped: the reference
    for graph._symmetric_csr."""
    src, dst = np.asarray(src), np.asarray(dst)
    sel = src != dst
    one_way = sp.csr_matrix((np.ones(np.count_nonzero(sel), dtype=np.int32),
                             (src[sel].astype(np.int32), dst[sel].astype(np.int32))),
                            shape=(n, n))
    return one_way + one_way.T


def cap_members_scan(points, ids, center, R):
    """Linear-scan closed-cap membership, same predicate as the index."""
    points = np.asarray(points, dtype=np.float64)
    keep = points @ np.asarray(center, dtype=np.float64) >= np.cos(R) - DOT_TOL
    return np.sort(np.asarray(ids)[keep])


def volume_scan(g, S):
    S = set(int(v) for v in np.atleast_1d(np.asarray(S)).tolist())
    total = 0
    for v in S:
        for s, d in zip(g.edge_src, g.edge_dst):
            if s == d:
                total += int(s == v)
            else:
                total += int(s == v) + int(d == v)
        total += int(g.flexible_loops[v])
    return total


def kind_degrees_scan(src, dst, kind, n):
    """Edge ends per edge kind (row) and vertex, counted one edge at a time,
    a self-loop counting 1.  The reference for graph._kind_degrees."""
    deg = np.zeros((3, n), dtype=np.int64)
    for s, d, k in zip(np.asarray(src).tolist(), np.asarray(dst).tolist(),
                       np.asarray(kind).tolist()):
        deg[k, s] += 1
        if d != s:
            deg[k, d] += 1
    return deg


def boundary_scan(g, S):
    S = set(int(v) for v in np.atleast_1d(np.asarray(S)).tolist())
    count = 0
    for s, d in zip(g.edge_src, g.edge_dst):
        if (int(s) in S) != (int(d) in S):
            count += 1
    return count


def conductance_scan(g, S):
    vol_s = volume_scan(g, S)
    all_v = np.arange(g.n)
    comp = [v for v in all_v if v not in set(np.atleast_1d(np.asarray(S)).tolist())]
    vol_c = volume_scan(g, comp)
    return boundary_scan(g, S) / min(vol_s, vol_c)


def cap_flag_scan(g, S):
    """(flag, conductance) of the vertex set S from a count of its size,
    volume and loop volume taken one edge at a time, plus the flexible
    loops.  The flag names the first of these that holds: S is empty, S is
    all of V, one side has zero volume, or S's whole volume is loops (no
    proper edge meets it); '' if none does.  The conductance is the
    boundary over min(vol(S), vol(rest)) wherever that is defined (a
    loop-only S reads 0), else NaN.  The reference for the flags of
    metrics.expander_scan and the domain of EvolvingGraph.conductance."""
    S = {int(v) for v in np.atleast_1d(np.asarray(S)).tolist()}
    vol = loops = vol_all = 0
    for s, d in zip(g.edge_src.tolist(), g.edge_dst.tolist()):
        if s == d:
            vol_all += 1
            vol += s in S
            loops += s in S
        else:
            vol_all += 2
            vol += (s in S) + (d in S)
    flexible = sum(int(g.flexible_loops[v]) for v in S)
    vol, loops = vol + flexible, loops + flexible
    vol_all += int(g.flexible_loops.sum())
    if not S:
        return "empty", float("nan")
    if len(S) == g.n:
        return "all-vertices", float("nan")
    if vol == 0 or vol_all - vol == 0:
        return "zero-volume", float("nan")
    phi = boundary_scan(g, sorted(S)) / min(vol, vol_all - vol)
    return ("loop-only" if vol == loops else ""), phi


def connected_scan(g, S):
    """DFS over the induced subgraph."""
    S = [int(v) for v in np.atleast_1d(np.asarray(S)).tolist()]
    sset = set(S)
    adj = {v: set() for v in S}
    for s, d in zip(g.edge_src, g.edge_dst):
        s, d = int(s), int(d)
        if s != d and s in sset and d in sset:
            adj[s].add(d)
            adj[d].add(s)
    seen = {S[0]}
    stack = [S[0]]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(S)


def bfs_ecc_scan(adj_lists, source):
    """Levels by hand; returns (levels dict, eccentricity)."""
    levels = {source: 0}
    frontier = [source]
    depth = 0
    while frontier:
        depth_next = []
        for v in frontier:
            for w in adj_lists[v]:
                if w not in levels:
                    levels[w] = levels[v] + 1
                    depth_next.append(w)
        frontier = depth_next
        if frontier:
            depth += 1
    return levels, depth


def diameter_scan(adj_lists, nodes):
    best = 0
    for v in nodes:
        _, ecc = bfs_ecc_scan(adj_lists, v)
        best = max(best, ecc)
    return best


def component_diameters_scan(csr):
    """Diameter of each component, descending, by all-pairs shortest paths
    on that component's own submatrix."""
    adj = scipy_csr(csr)
    ncomp, labels = connected_components(adj, directed=False)
    diams = []
    for c in range(ncomp):
        members = np.flatnonzero(labels == c)
        dist = shortest_path(adj[members][:, members], directed=False, unweighted=True)
        diams.append(int(dist.max()))
    return tuple(sorted(diams, reverse=True))


def sample_zipf(rng, exponent, k_min, size, k_max=10 ** 6):
    """Exact discrete power-law sampler by inverse CDF on a truncated support."""
    ks = np.arange(k_min, k_max + 1, dtype=np.float64)
    pmf = ks ** (-float(exponent))
    cdf = np.cumsum(pmf)
    cdf /= cdf[-1]
    u = rng.random(size)
    return k_min + np.searchsorted(cdf, u, side="left")


def layers_scan(cands, ptr):
    """Layer of each newborn of a block, checking every earlier newborn: 0 if
    none shares a candidate with it, else 1 + the largest layer of those that
    do.  The reference for models._layers."""
    sets = [set(cands[ptr[i]:ptr[i + 1]].tolist()) for i in range(len(ptr) - 1)]
    layer = []
    for i, mine in enumerate(sets):
        below = [layer[j] for j in range(i) if sets[j] & mine]
        layer.append(1 + max(below) if below else 0)
    return np.array(layer, dtype=np.int64)


def trace_scan(g, probes, r, delta, times):
    """Occupancy and attachment mass of each probe's closed cap at each time t,
    as (len(times), len(probes)) arrays: the members by a full scan over the
    ids < t, the mass as delta per member plus the plain edge ends, loops
    counting 1, of the edges with src < t that land on members.  The
    reference for the trace generate returns."""
    occ = np.zeros((len(times), len(probes)), dtype=np.int64)
    mass = np.zeros_like(occ)
    for ti, t in enumerate(times):
        sel = (g.edge_kind == 0) & (g.edge_src < t)
        edges = list(zip(g.edge_src[sel].tolist(), g.edge_dst[sel].tolist()))
        for pi, p in enumerate(probes):
            members = set(cap_members_scan(g.positions[:t], np.arange(t), p, r).tolist())
            ends = sum((a in members) + (b in members and a != b) for a, b in edges)
            occ[ti, pi] = len(members)
            mass[ti, pi] = ends + delta * len(members)
    return occ, mass


def generate_scan(cfg):
    """The graph cfg names, grown newborn by newborn from the model's plain
    definition, as (src, dst, kind, isolated_birth, flexible_loops).  The
    reference for models.generate.

    Newborn t's candidates are the earlier vertices in its closed cap, found
    by a full scan and put in the generator's grid order, the one thing
    taken from the code under test.  Its random numbers come from one
    Generator call per draw: rng.random(m) unless the cap is empty, then
    rng.integers(0, t) (hybrid) or rng.integers(0, holders) (selfloop).
    Each contact is the first candidate whose running sum of delta + plain
    degree, over the edges so far with a loop counting once, exceeds
    floor(u * total); an empty cap gives 2m loops instead.
    """
    n, m, delta, r = cfg.n, cfg.m, cfg.delta, cfg.r
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    pos = sample_uniform(rng, n).reshape(n, 3)
    rank = np.empty(n, dtype=np.int64)
    rank[CapIndex(pos, _auto_cell(r, n))._order] = np.arange(n)
    plain = np.zeros(n, dtype=np.int64)
    floops = np.zeros(n, dtype=np.int64)
    isolated = np.zeros(n, dtype=bool)
    holders, edges = [], []
    for t in range(n):
        cand = cap_members_scan(pos[:t], np.arange(t), pos[t], r)
        cand = cand[np.argsort(rank[cand])]
        if cand.size:
            cum = (plain[cand] + delta).cumsum()
            got = cand[np.searchsorted(cum, np.floor(rng.random(m) * cum[-1]), "right")]
            np.add.at(plain, got, 1)
            plain[t] += m
        else:
            isolated[t] = True
            got = np.full(2 * m, t)
            plain[t] += 2 * m
        edges += [(t, int(c), EdgeKind.PLAIN) for c in got]
        if cfg.model == "hybrid" and t > 0:
            edges.append((t, int(rng.integers(0, t)), EdgeKind.LONG))
        elif cfg.model == "selfloop":
            floops[t] = delta - (t > 0)
            if t > 0:
                j = int(rng.integers(0, len(holders)))
                z = holders[j]
                edges.append((t, z, EdgeKind.FLEXIBLE))
                floops[z] -= 1
                if floops[z] == 0:
                    holders[j] = holders[-1]
                    holders.pop()
            holders.append(t)
    src, dst, kind = (np.array(col, dtype=np.int64) for col in zip(*edges))
    return src, dst, kind.astype(np.int8), isolated, floops
