import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components, shortest_path

from gpanet import graph
from gpanet.graph import EdgeKind, EvolvingGraph
from gpanet.metrics import DegreeHistogram
from gpanet.models import GenerationTrace, ModelConfig, generate
from gpanet.sphere import sample_uniform

from oracles import (boundary_scan, conductance_scan, connected_scan, scipy_adjacency,
                     scipy_csr, volume_scan)


def toy_graph(n=6, seed=3, model="base", **kw):
    """Small hand-wired multigraph: positions random, edges fixed by caller."""
    rng = np.random.default_rng(seed)
    pos = sample_uniform(rng, n)
    return EvolvingGraph(model=model, positions=pos, **kw)


def test_degree_counting_with_loops_and_parallels():
    # vertex 0: loop (counts 1) + two parallel edges to 1 -> degree 3
    src = np.array([0, 0, 0, 2])
    dst = np.array([0, 1, 1, 1])
    kind = np.zeros(4, dtype=np.int8)
    g = toy_graph(4, edge_src=src, edge_dst=dst, edge_kind=kind)
    assert g.degree(0) == 3
    assert g.degree(1) == 3
    assert g.degree(2) == 1
    assert g.degree(3) == 0
    assert g.degree().tolist() == [3, 3, 1, 0]
    assert g.num_edges == 4


def test_degree_kind_aliases():
    src = np.array([0, 1, 2])
    dst = np.array([1, 2, 2])
    kind = np.array([EdgeKind.PLAIN, EdgeKind.LONG, EdgeKind.FLEXIBLE], dtype=np.int8)
    floops = np.array([0, 0, 2, 1])
    g = toy_graph(4, model="selfloop", edge_src=src, edge_dst=dst, edge_kind=kind,
                  flexible_loops=floops)
    # vertex 2: one long edge endpoint, one flexible loop-edge (kind), plus 2 flexible loops
    assert g.degree(2, kind="long") == 1
    assert g.degree(2, kind="plain") == 0
    assert g.degree(2, kind="local") == 0
    assert g.degree(2, kind="flexible") == 1 + 2
    assert g.degree(2, kind="non-flexible") == 1
    assert g.degree(2, kind="total") == 1 + 1 + 2
    assert g.degree(2, kind="with-flexible") == g.degree(2, kind="total")
    assert g.degree(0, kind="plain") == 1
    assert g.degree(1, kind="long") == 1
    assert g.degree(3, kind="flexible") == 1
    with pytest.raises(ValueError):
        g.degree(0, kind="bogus")
    for kind in (3, None, b"total"):
        with pytest.raises(ValueError, match=f"^unknown degree kind {kind!r}$"):
            g.degree(0, kind=kind)


def test_vertex_record_fields(tmp_path):
    src = np.array([1, 1])
    dst = np.array([0, 1])
    kind = np.int8([0, 0])
    g = toy_graph(2, edge_src=src, edge_dst=dst, edge_kind=kind,
                  isolated_birth=np.array([False, True]))
    # a vertex's fields are the graph's per-vertex arrays at its id
    assert g.plain_degree.tolist() == [1, 2]  # vertex 1: an edge to 0, plus a loop counting 1
    assert g.long_degree.tolist() == g.flexible_edge_degree.tolist() == [0, 0]
    assert g.flexible_loops.tolist() == [0, 0]
    g.write_vertices_csv(tmp_path / "vertices.csv")
    rows = (tmp_path / "vertices.csv").read_text().splitlines()
    assert [row.split(",")[3] for row in rows[1:]] == ["1", "2"]  # always id + 1
    assert g.isolated_birth.tolist() == [False, True]
    assert g.total_degree.tolist() == [1, 2]
    assert g.degree(1) == 2 and isinstance(g.degree(1), int)
    np.testing.assert_allclose(np.linalg.norm(g.positions, axis=1), 1.0)


def test_volume_boundary_conductance_vs_scan():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 40))
        ne = int(rng.integers(1, 120))
        src = rng.integers(0, n, size=ne)
        dst = rng.integers(0, n, size=ne)
        kind = rng.integers(0, 2, size=ne).astype(np.int8)
        floops = rng.integers(0, 3, size=n)
        g = toy_graph(n, model="selfloop", seed=int(rng.integers(1 << 30)),
                      edge_src=src, edge_dst=dst, edge_kind=kind,
                      flexible_loops=floops)
        mask = rng.random(n) < 0.5
        ids = np.flatnonzero(mask)
        # the same set as a mask, as unsorted ids and as ids with repeats
        shuffled = rng.permutation(ids)
        repeated = rng.permutation(np.concatenate([ids, ids[::2]]))
        vol_in = volume_scan(g, ids)
        vol_out = g.volume(~mask)
        for S in (mask, shuffled, repeated):
            assert g.volume(S) == vol_in
            assert g.boundary_edge_count(S) == boundary_scan(g, ids)
            if mask.any() and (~mask).any() and min(vol_in, vol_out) > 0:
                assert g.conductance(S) == conductance_scan(g, ids)


def test_conductance_domain_errors():
    src = np.array([0, 1])
    dst = np.array([1, 2])
    kind = np.int8([0, 0])
    g = toy_graph(4, edge_src=src, edge_dst=dst, edge_kind=kind)
    with pytest.raises(ValueError):
        g.conductance(np.zeros(4, dtype=bool))  # empty side
    with pytest.raises(ValueError):
        g.conductance(np.ones(4, dtype=bool))  # S = V
    with pytest.raises(ValueError):
        g.conductance(np.array([False, False, False, True]))  # isolated: zero volume


def test_conductance_accepts_id_lists():
    src = np.array([0, 1, 2, 0])
    dst = np.array([1, 2, 0, 3])
    kind = np.int8([0, 0, 0, 0])
    g = toy_graph(4, edge_src=src, edge_dst=dst, edge_kind=kind)
    assert g.conductance([0, 1]) == g.conductance(np.array([True, True, False, False]))
    with pytest.raises(ValueError):
        g.conductance([0, 9])


def test_fractional_vertex_ids_rejected():
    src = np.array([0, 1, 2, 0])
    dst = np.array([1, 2, 0, 3])
    kind = np.int8([0, 0, 0, 0])
    g = toy_graph(4, edge_src=src, edge_dst=dst, edge_kind=kind)
    for bad in ([0.9], [1.5, 2.99], [np.nan], [np.inf], ["1"]):
        for fn in (g.volume, g.boundary_edge_count, g.conductance, g.induced_connected):
            with pytest.raises(ValueError, match="integers"):
                fn(np.array(bad))
    # integral floats are ids, and an empty list (float64 to numpy) is empty
    assert g.volume([1.0, 2.0]) == g.volume([1, 2])
    assert g.volume([]) == 0
    assert g.boundary_edge_count([]) == 0
    # one vertex: a fractional id raises instead of truncating
    for bad in (2.7, 0.5, np.float64(1.5), np.nan):
        with pytest.raises(ValueError, match="integers"):
            g.degree(bad)
    assert g.degree(2.0, "plain") == g.degree(np.int32(2), "plain") == 2
    # out of range raises, where degree(-1) read the last vertex
    for bad in (4.0, 4, -1):
        with pytest.raises(ValueError, match=f"^vertex {int(bad)} out of range$"):
            g.degree(bad)


def test_loops_never_cross_boundary():
    src = np.array([0, 0])
    dst = np.array([0, 1])
    kind = np.int8([0, 0])
    g = toy_graph(2, edge_src=src, edge_dst=dst, edge_kind=kind)
    mask = np.array([True, False])
    assert g.boundary_edge_count(mask) == 1
    # loop contributes 1 to the volume of its own side only
    assert g.volume(mask) == 2


def test_induced_connected_vs_dfs():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(2, 30))
        ne = int(rng.integers(0, 60))
        src = rng.integers(0, n, size=ne)
        dst = rng.integers(0, n, size=ne)
        kind = np.zeros(ne, dtype=np.int8)
        g = toy_graph(n, seed=int(rng.integers(1 << 30)),
                      edge_src=src, edge_dst=dst, edge_kind=kind)
        mask = rng.random(n) < 0.6
        if not mask.any():
            mask[0] = True
        assert g.induced_connected(mask) == connected_scan(g, np.flatnonzero(mask))


def test_induced_connected_corner_cases():
    src = np.array([0])
    dst = np.array([0])
    kind = np.int8([0])
    g = toy_graph(3, edge_src=src, edge_dst=dst, edge_kind=kind)
    assert g.induced_connected([2]) is True  # singleton, even without edges
    with pytest.raises(ValueError):
        g.induced_connected(np.zeros(3, dtype=bool))


def test_traversals_match_scipy():
    # multigraphs with loops and parallel edges on a random part of the ids,
    # so most vertices are isolated and there are hundreds of components
    rng = np.random.default_rng(41)
    for trial in range(12):
        n = int(rng.integers(150, 600))
        ids = rng.choice(n, size=int(rng.integers(1, n // 2)), replace=False)
        e = int(rng.integers(0, n))
        src, dst = rng.choice(ids, e), rng.choice(ids, e)
        src = np.concatenate([src, src[:5], ids[:3]])      # parallels and loops
        dst = np.concatenate([dst, dst[:5], ids[:3]])
        g = toy_graph(n, seed=trial, edge_src=src, edge_dst=dst,
                      edge_kind=np.zeros(src.size, dtype=np.int8))
        a = scipy_csr(g.adjacency_csr)
        ncomp, labels = graph._components(a.indptr, a.indices)
        want_ncomp, want_labels = connected_components(a, directed=False)
        assert ncomp == want_ncomp >= 100
        assert np.array_equal(labels, want_labels)
        for k in (1, 2, 7):
            sources = rng.choice(n, size=k, replace=False)
            d = shortest_path(a, directed=False, unweighted=True, indices=sources).min(axis=0)
            want = np.where(np.isfinite(d), d, -1).astype(np.int64)
            assert np.array_equal(graph._hop_distances(a.indptr, a.indices, sources), want)
            # a set is connected when scipy finds one component in the
            # subgraph it induces: a source's component, a random part of
            # it, and a random part of the graph
            own = labels == labels[sources[0]]
            for inside in (own, own & (rng.random(n) < 0.7), rng.random(n) < 0.7):
                inside[sources[0]] = True
                members = np.flatnonzero(inside)
                want = connected_components(a[members][:, members], directed=False)[0] == 1
                assert g.induced_connected(members) == want
    # edgeless and single-vertex graphs
    for n in (1, 5):
        g = toy_graph(n, edge_src=[], edge_dst=[], edge_kind=[])
        a = g.adjacency_csr
        ncomp, labels = graph._components(a.indptr, a.indices)
        assert ncomp == n and labels.tolist() == list(range(n))
        assert graph._hop_distances(a.indptr, a.indices, [0]).tolist() == [0] + [-1] * (n - 1)


def test_adjacency_drops_loops_keeps_parallels():
    for k in (2, 200, 256):  # past the range of int8 multiplicities
        # k parallel 0-1 edges, split between both directions, beside a loop
        src = np.array([0] + [0, 1] * (k // 2) + [1])
        dst = np.array([0] + [1, 0] * (k // 2) + [2])
        g = toy_graph(3, edge_src=src, edge_dst=dst,
                      edge_kind=np.zeros(src.size, dtype=np.int8))
        a = scipy_csr(g.adjacency_csr)
        assert a[0, 1] == k  # multiplicity preserved
        assert a[1, 0] == k
        assert a[0, 0] == 0  # loop dropped in adjacency form
        assert a[1, 2] == 1
        for S in ([0], [1], [2], [0, 1], [1, 2], [0, 2]):
            assert g.boundary_edge_count(S) == boundary_scan(g, S)


def test_cap_index_contains_all_vertices():
    rng = np.random.default_rng(7)
    pos = sample_uniform(rng, 25)
    g = EvolvingGraph(model="base", positions=pos,
                      edge_src=np.array([0]), edge_dst=np.array([1]),
                      edge_kind=np.int8([0]))
    got = g.cap_index.query_cap(np.array([0.0, 0.0, 1.0]), np.pi)
    assert got.tolist() == list(range(25))


def test_validation_errors():
    rng = np.random.default_rng(1)
    pos = sample_uniform(rng, 3)
    ok = dict(edge_src=np.array([0]), edge_dst=np.array([1]), edge_kind=np.int8([0]))
    with pytest.raises(ValueError):
        EvolvingGraph(model="nope", positions=pos, **ok)
    with pytest.raises(ValueError):
        EvolvingGraph(model="base", positions=pos * 2.0, **ok)
    with pytest.raises(ValueError):
        EvolvingGraph(model="base", positions=pos,
                      edge_src=np.array([0]), edge_dst=np.array([5]),
                      edge_kind=np.int8([0]))
    with pytest.raises(ValueError):
        EvolvingGraph(model="base", positions=pos,
                      edge_src=np.array([0]), edge_dst=np.array([1]),
                      edge_kind=np.int8([7]))


def test_constructor_rejects_fractional_endpoints_and_misshapen_flags():
    rng = np.random.default_rng(1)
    pos = sample_uniform(rng, 3)
    kind = np.int8([0, 0])
    # 0.5 used to become vertex 0
    for src, dst in (([0.5, 1], [1, 2]), ([0, 1], [1, 2.25]), ([0, np.nan], [1, 2])):
        with pytest.raises(ValueError, match="^vertex ids must be integers$"):
            EvolvingGraph(model="base", positions=pos, edge_src=np.array(src),
                          edge_dst=np.array(dst), edge_kind=kind)
    g = EvolvingGraph(model="base", positions=pos, edge_src=np.array([0.0, 1.0]),
                      edge_dst=[1, 2], edge_kind=kind)
    assert g.edge_src.dtype == np.int64 and g.edge_src.tolist() == [0, 1]
    # one flag per vertex: 5 flags for 3 vertices used to pass
    for flags in (np.zeros(5, dtype=bool), np.zeros(2, dtype=bool), np.zeros((3, 1), dtype=bool)):
        with pytest.raises(ValueError, match="^isolated_birth must be n flags$"):
            EvolvingGraph(model="base", positions=pos, edge_src=[0, 1], edge_dst=[1, 2],
                          edge_kind=kind, isolated_birth=flags)


def _multigraphs():
    """(name, src, dst, n): hand-built multigraphs with loops, parallel edges
    in both directions and isolated vertices, an edgeless graph, and the
    three generated models at caps small enough for isolated births."""
    rng = np.random.default_rng(17)
    for trial in range(8):
        n = int(rng.integers(2, 400))
        ids = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        e = int(rng.integers(0, 3 * n))
        src, dst = rng.choice(ids, e), rng.choice(ids, e)
        yield (f"random-{trial}", np.concatenate([src, dst[:9], ids[:4]]),
               np.concatenate([dst, src[:9], ids[:4]]), n)
    yield "edgeless", np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 7
    yield "loops-only", np.arange(5), np.arange(5), 5
    for model in ("base", "hybrid", "selfloop"):
        g, _ = generate(ModelConfig(model=model, n=600, m=3, xi=1.0, r=0.08, seed=4))
        assert g.isolated_birth.any()
        yield model, g.edge_src, g.edge_dst, g.n


@pytest.mark.parametrize("name,src,dst,n", list(_multigraphs()))
def test_adjacency_csr_equals_scipy(name, src, dst, n):
    kind = np.zeros(src.size, dtype=np.int8)
    g = toy_graph(n, edge_src=src, edge_dst=dst, edge_kind=kind)
    got, want = g.adjacency_csr, scipy_adjacency(src, dst, n)
    assert got.shape == want.shape == (n, n)
    for field in ("indptr", "indices", "data"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype == np.int32, field
        assert np.array_equal(a, b), field


def test_csv_round_trip(tmp_path):
    src = np.array([1, 2, 2])
    dst = np.array([0, 1, 2])
    kind = np.array([EdgeKind.PLAIN, EdgeKind.LONG, EdgeKind.PLAIN], dtype=np.int8)
    g = toy_graph(3, model="hybrid", edge_src=src, edge_dst=dst, edge_kind=kind)

    epath = tmp_path / "edges.csv"
    g.write_edges_csv(epath)
    lines = epath.read_text().strip().splitlines()
    assert lines[0] == "src,dst,kind"
    assert lines[1] == "1,0,plain"
    assert lines[2] == "2,1,long"

    vpath = tmp_path / "vertices.csv"
    g.write_vertices_csv(vpath)
    rows = vpath.read_text().strip().splitlines()
    assert rows[0] == "id,colatitude,longitude,birth_time"
    assert len(rows) == 4
    for i, row in enumerate(rows[1:]):
        fields = row.split(",")
        assert int(fields[0]) == i
        colat, lon = float(fields[1]), float(fields[2])
        vec = np.array([np.sin(colat) * np.cos(lon),
                        np.sin(colat) * np.sin(lon),
                        np.cos(colat)])
        np.testing.assert_allclose(vec, g.positions[i], atol=1e-12)
        assert int(fields[3]) == i + 1


def _format_reference(header, line, *columns):
    """The CSV text that line.format gives row by row: the writer's reference."""
    lists = [np.asarray(c).tolist() for c in columns]
    return header + "\n" + "".join(line.format(*row) + "\n" for row in zip(*lists))


# exact zero, irrational, just below the longitude bound 2 pi, tiny, subnormal
_EDGE_FLOATS = [0.0, np.pi, 2 * np.pi - 1e-15, 1e-300, 5e-324]


@pytest.mark.parametrize("rows", [0, 1, 4096, 4097])
def test_csv_writers_match_str_format(rows, tmp_path, monkeypatch):
    # the writers format each chunk of rows with one % over its cells; every
    # byte must equal the row-by-row str.format rendering, across the
    # 4096-row chunk boundary and for floats that stress %.17g
    rng = np.random.default_rng(rows)
    src = rng.integers(0, max(rows, 1), size=rows)
    dst = np.where(rng.random(rows) < 0.2, src, rng.integers(0, max(rows, 1), size=rows))
    kind = rng.integers(0, 3, size=rows).astype(np.int8)
    g = toy_graph(rows, edge_src=src, edge_dst=dst, edge_kind=kind)

    g.write_edges_csv(tmp_path / "edges.csv")
    want = _format_reference("src,dst,kind", "{},{},{}",
                             src, dst, np.array(["plain", "long", "flexible"])[kind])
    assert (tmp_path / "edges.csv").read_text() == want

    angles = rng.uniform(0.0, 2 * np.pi, size=(2, rows))
    angles[:, :rows:7] = np.resize(_EDGE_FLOATS, angles[:, :rows:7].shape)
    monkeypatch.setattr(graph, "to_angles", lambda points: (angles[0], angles[1]))
    g.write_vertices_csv(tmp_path / "vertices.csv")
    want = _format_reference("id,colatitude,longitude,birth_time", "{},{:.17g},{:.17g},{}",
                             np.arange(rows), angles[0], angles[1], np.arange(1, rows + 1))
    assert (tmp_path / "vertices.csv").read_text() == want

    n_times, k = {0: (0, 3), 1: (1, 1), 4096: (4, 1024), 4097: (17, 241)}[rows]
    times = np.arange(1, n_times + 1) * 1000
    occ = rng.integers(0, 2 ** 20, size=(n_times, k))
    mass = rng.integers(0, 2 ** 40, size=(n_times, k))
    trace = GenerationTrace(probe_points=np.zeros((k, 3)), times=times,
                            occupancy=occ, attach_mass=mass)
    trace.write_csv(tmp_path / "trace.csv")
    want = _format_reference("probe_index,t,occupancy,attach_mass", "{},{},{},{}",
                             np.tile(np.arange(k), n_times), np.repeat(times, k),
                             occ.ravel(), mass.ravel())
    assert (tmp_path / "trace.csv").read_text() == want

    ks = np.sort(rng.choice(10 * rows + 1, size=rows, replace=False))
    cs = rng.integers(1, 2 ** 31, size=rows)
    hist = DegreeHistogram(counts=dict(zip(ks.tolist(), cs.tolist())), kind="total",
                           n=int(cs.sum()))
    hist.write_csv(tmp_path / "degrees.csv")
    assert (tmp_path / "degrees.csv").read_text() == _format_reference("k,count", "{},{}", ks, cs)


def test_total_degree_sums():
    # whole-set volume: 2 per proper edge, 1 per loop edge, 1 per flexible loop
    rng = np.random.default_rng(40)
    n, ne = 20, 50
    src = rng.integers(0, n, size=ne)
    dst = rng.integers(0, n, size=ne)
    kind = rng.integers(0, 3, size=ne).astype(np.int8)
    floops = rng.integers(0, 3, size=n)
    g = toy_graph(n, model="selfloop", edge_src=src, edge_dst=dst, edge_kind=kind,
                  flexible_loops=floops)
    loops = int((src == dst).sum())
    assert g.volume(np.ones(n, dtype=bool)) == 2 * ne - loops + floops.sum()
