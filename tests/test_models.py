import json
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from gpanet import models
from gpanet.capindex import CapIndex
from gpanet.graph import EdgeKind, EvolvingGraph
from gpanet.metrics import diameter
from gpanet.models import (DEFAULT_PROBE_SEED, GenerationTrace, ModelConfig, _auto_cell,
                           _draw, _layers, _pick, _Stream, default_probes, generate)
from gpanet.sphere import angular_distance, from_angles, sample_uniform

from oracles import (cap_members_scan, component_diameters_scan, generate_scan, layers_scan,
                     trace_scan)


def cfg(model="base", n=50, m=2, xi=1.0, r=np.pi, seed=7, **kw):
    return ModelConfig(model=model, n=n, m=m, xi=xi, r=r, seed=seed, **kw)


class TestModelConfig:
    def test_delta_defaults_to_rounded_product(self):
        assert cfg(xi=1.0, m=2).delta == 2
        assert cfg(xi=2.0, m=3).delta == 6
        with pytest.warns(UserWarning):
            assert cfg(xi=0.6, m=4).delta == 2  # 2.4 rounds down, with a warning

    def test_delta_must_realize_product(self):
        with pytest.raises(ValueError):
            cfg(xi=1.0, m=2, delta=4)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            cfg(n=0)
        with pytest.raises(ValueError):
            cfg(m=0)
        with pytest.raises(ValueError):
            cfg(xi=-1.0)
        with pytest.warns(UserWarning), pytest.raises(ValueError):
            cfg(xi=0.4, m=1)  # delta rounds to 0
        with pytest.raises(ValueError):
            cfg(r=-0.1)
        with pytest.raises(ValueError):
            cfg(r=4.0)
        with pytest.raises(ValueError):
            cfg(seed=-1)
        with pytest.raises(ValueError):
            cfg(model="smallworld")
        with pytest.raises(ValueError):
            cfg(model="selfloop", xi=1.0, m=1)  # delta = 1 < 2
        with pytest.raises(ValueError):
            cfg(checkpoint_times=(0,))
        with pytest.raises(ValueError):
            cfg(checkpoint_times=(51,))

    def test_model_name_spellings(self):
        assert cfg(model="self-loop").model == "selfloop"
        assert cfg(model="self_loop").model == "selfloop"
        assert cfg(model="BASE").model == "base"

    def test_checkpoints_sorted_deduped(self):
        c = cfg(checkpoint_times=(30, 10, 30, 20))
        assert c.checkpoint_times == (10, 20, 30)

    def test_probes_from_sphere_points_and_arrays(self):
        pts = from_angles([0.3, 2.0], [1.0, 4.0])
        c = cfg(probes=pts)
        assert c.probes.shape == (2, 3) and np.array_equal(c.probes, pts)
        assert c.probes is not pts
        # a list of points and a lone point are rows too
        assert np.array_equal(cfg(probes=list(pts)).probes, pts)
        assert cfg(probes=pts[0]).probes.shape == (1, 3)
        with pytest.raises(ValueError):
            cfg(probes=np.array([[0.0, 0.0, 2.0]]))
        # a spec's [colat, lon] pairs are the same rows, bit for bit
        d = {**cfg().to_json_dict(), "probes": [[0.3, 1.0], [2.0, 4.0]]}
        assert np.array_equal(ModelConfig.from_json_dict(d).probes, pts)
        for bad in ([[0.3, 1.0, 2.0]], [0.3, 1.0], 5):
            with pytest.raises(TypeError, match=r"\[colat, lon\] pairs"):
                ModelConfig.from_json_dict({**d, "probes": bad})
        with pytest.raises(ValueError, match="colatitude"):
            ModelConfig.from_json_dict({**d, "probes": [[3.5, 1.0]]})

    def test_json_round_trip(self):
        c = cfg(model="hybrid", n=30, m=3, xi=2.0, r=0.4, seed=99,
                probes=default_probes(4), checkpoint_times=(5, 30))
        d = json.loads(json.dumps(c.to_json_dict()))
        back = ModelConfig.from_json_dict(d)
        assert back.model == c.model
        assert (back.n, back.m, back.xi, back.r, back.seed, back.delta) == \
               (c.n, c.m, c.xi, c.r, c.seed, c.delta)
        assert back.checkpoint_times == c.checkpoint_times
        np.testing.assert_allclose(back.probes, c.probes, atol=1e-12)


class TestDefaultProbes:
    def test_deterministic_and_unit(self):
        a = default_probes(6)
        b = default_probes(6)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (6, 3)
        np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)

    def test_independent_of_run_seed(self):
        # probe placement must not depend on the generation seed
        g1, _ = generate(cfg(seed=1, n=5))
        a = default_probes(3)
        g2, _ = generate(cfg(seed=2, n=5))
        b = default_probes(3)
        np.testing.assert_array_equal(a, b)
        assert not np.allclose(g1.positions, g2.positions)


class TestDeterminism:
    @pytest.mark.parametrize("model", ["base", "hybrid", "selfloop"])
    def test_same_seed_same_graph(self, model):
        c = cfg(model=model, n=80, m=2, xi=1.0, r=0.8, seed=42)
        g1, _ = generate(c)
        g2, _ = generate(c)
        np.testing.assert_array_equal(g1.positions, g2.positions)
        np.testing.assert_array_equal(g1.edge_src, g2.edge_src)
        np.testing.assert_array_equal(g1.edge_dst, g2.edge_dst)
        np.testing.assert_array_equal(g1.edge_kind, g2.edge_kind)
        np.testing.assert_array_equal(g1.flexible_loops, g2.flexible_loops)

    def test_different_seed_different_graph(self):
        g1, _ = generate(cfg(seed=1))
        g2, _ = generate(cfg(seed=2))
        assert not np.array_equal(g1.positions, g2.positions)


class TestSmallContracts:
    def test_first_vertex_always_isolated(self):
        g, _ = generate(cfg(model="base", n=1, m=3, xi=1.0))
        assert g.num_edges == 6  # 2m self-loops
        assert (g.edge_src == 0).all() and (g.edge_dst == 0).all()
        assert g.degree(0) == 6
        assert g.isolated_birth[0]

    def test_selfloop_two_vertex_example(self):
        # full-sphere radius: second vertex always attaches to the first
        g, _ = generate(cfg(model="selfloop", n=2, m=2, xi=1.0, r=np.pi))
        assert g.degree(0) == 3 * 2 + 2  # 2m loops + m contacts + delta flexible
        assert g.degree(1) == 2 + 2      # m contacts + delta flexible
        assert g.degree(0, kind="flexible") == 2
        assert g.degree(1, kind="flexible") == 2
        assert g.flexible_loops.tolist() == [1, 1]
        flex = g.edge_kind == EdgeKind.FLEXIBLE
        assert flex.sum() == 1
        assert g.edge_src[flex][0] == 1 and g.edge_dst[flex][0] == 0

    def test_hybrid_two_vertex(self):
        g, _ = generate(cfg(model="hybrid", n=2, m=2, xi=1.0, r=np.pi))
        long = g.edge_kind == EdgeKind.LONG
        assert long.sum() == 1
        assert g.edge_src[long][0] == 1 and g.edge_dst[long][0] == 0
        # first vertex: 2m birth loops + m contacts + 1 long
        assert g.degree(0) == 2 * 2 + 2 + 1
        assert g.degree(1) == 2 + 1

    @given(st.sampled_from(["base", "hybrid", "selfloop"]),
           st.sampled_from([0.0, np.pi]), st.integers(1, 300), st.integers(1, 500),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_degenerate_configs(self, model, r, n, m, seed):
        xi = 2.0 if m == 1 else 1.0   # the self-loop model needs delta = xi m >= 2
        g, _ = generate(cfg(model=model, n=n, m=m, xi=xi, r=r, seed=seed))
        if model == "base" and r == 0.0:
            assert g.isolated_birth.all()
        rep = diameter(g, "component-wise")
        assert rep.component_diameters == component_diameters_scan(g.adjacency_csr)


def _assert_edge_layout(g, c):
    """Edges grouped by newborn in birth order: m plain contacts to earlier
    vertices (2m plain loops after an isolated birth), then one long (hybrid)
    or flexible (selfloop) edge to an earlier vertex for t >= 1."""
    extra = {"base": None, "hybrid": EdgeKind.LONG, "selfloop": EdgeKind.FLEXIBLE}[c.model]
    per = np.where(g.isolated_birth, 2 * c.m, c.m)
    if extra is not None:
        per[1:] += 1
    np.testing.assert_array_equal(g.edge_src, np.arange(c.n).repeat(per))
    kind = np.full(g.num_edges, EdgeKind.PLAIN, dtype=np.int8)
    if extra is not None:
        kind[per.cumsum()[1:] - 1] = extra
    np.testing.assert_array_equal(g.edge_kind, kind)
    np.testing.assert_array_equal(g.edge_src == g.edge_dst,
                                  g.isolated_birth[g.edge_src] & (kind == EdgeKind.PLAIN))
    assert (g.edge_dst <= g.edge_src).all()


class TestDegreeTotals:
    @pytest.mark.parametrize("model,n,m,xi,r", [
        ("base", 200, 2, 1.0, 0.5),
        ("base", 120, 3, 2.0, 0.05),   # sparse: many isolated births
        ("hybrid", 200, 2, 1.0, 0.5),
        ("selfloop", 200, 2, 1.0, 0.5),
        ("selfloop", 150, 4, 0.5, 0.2),
    ])
    def test_total_degree_sum(self, model, n, m, xi, r):
        c = cfg(model=model, n=n, m=m, xi=xi, r=r, seed=11)
        g, _ = generate(c)
        assert 1 < g.isolated_birth.sum() < n
        _assert_edge_layout(g, c)
        total = int(g.degree().sum())
        if model == "base":
            assert total == 2 * m * n
        elif model == "hybrid":
            assert total == 2 * m * n + 2 * (n - 1)
        else:
            assert total == (2 * m + c.delta) * n
        assert g.volume(np.ones(n, dtype=bool)) == total

    def test_selfloop_flexible_invariants(self):
        c = cfg(model="selfloop", n=100, m=2, xi=2.0, r=0.6, seed=5)
        g, _ = generate(c)
        n, d = c.n, c.delta
        assert g.flexible_loops.sum() == n * d - 2 * (n - 1)
        assert int(g.degree(None, "flexible").sum()) == n * d
        assert int(g.degree(None, "non-flexible").sum()) == 2 * c.m * n
        # per vertex: total = non-flexible + flexible, flexible part conserved
        np.testing.assert_array_equal(
            g.degree(), g.degree(None, "non-flexible") + g.degree(None, "flexible"))


class TestGeometryOfEdges:
    def test_isolated_birth_iff_no_neighbor_in_cap(self):
        c = cfg(model="base", n=150, m=2, xi=1.0, r=0.25, seed=3)
        g, _ = generate(c)
        for t in range(c.n):
            members = cap_members_scan(g.positions[:t], np.arange(t),
                                       g.positions[t], c.r)
            assert g.isolated_birth[t] == (t == 0 or members.size == 0)

    def test_isolated_births_carry_2m_loops(self):
        c = cfg(model="selfloop", n=150, m=3, xi=1.0, r=0.25, seed=3)
        g, _ = generate(c)
        loops = (g.edge_src == g.edge_dst) & (g.edge_kind == EdgeKind.PLAIN)
        loop_count = np.bincount(g.edge_src[loops], minlength=c.n)
        np.testing.assert_array_equal(loop_count, np.where(g.isolated_birth, 2 * c.m, 0))

    def test_plain_contacts_stay_within_radius(self):
        c = cfg(model="hybrid", n=300, m=2, xi=1.0, r=0.4, seed=8)
        g, _ = generate(c)
        plain = (g.edge_kind == EdgeKind.PLAIN) & (g.edge_src != g.edge_dst)
        d = angular_distance(g.positions[g.edge_src[plain]],
                             g.positions[g.edge_dst[plain]])
        assert (d <= c.r + 1e-9).all()
        assert (g.edge_dst[plain] < g.edge_src[plain]).all()  # contacts are older

    def test_long_edges_form_recursive_tree(self):
        c = cfg(model="hybrid", n=200, m=2, xi=1.0, r=0.3, seed=9)
        g, _ = generate(c)
        long = g.edge_kind == EdgeKind.LONG
        assert long.sum() == c.n - 1
        src, dst = g.edge_src[long], g.edge_dst[long]
        np.testing.assert_array_equal(np.sort(src), np.arange(1, c.n))
        assert (dst < src).all()

    def test_flexible_edges_form_recursive_tree(self):
        c = cfg(model="selfloop", n=200, m=2, xi=1.0, r=0.3, seed=10)
        g, _ = generate(c)
        flex = g.edge_kind == EdgeKind.FLEXIBLE
        assert flex.sum() == c.n - 1
        src, dst = g.edge_src[flex], g.edge_dst[flex]
        np.testing.assert_array_equal(np.sort(src), np.arange(1, c.n))
        assert (dst < src).all()


class TestRewiringTarget:
    def test_partner_uniform_over_holders_not_loops(self):
        # with delta=3 the holder chosen at step 3 has one loop left while the
        # two others hold 2 each; a holder-uniform draw repeats it with
        # frequency 1/3, a loop-mass draw with 1/5
        trials = 3000
        hits = 0
        for seed in range(trials):
            g, _ = generate(cfg(model="selfloop", n=4, m=1, xi=3.0, r=np.pi,
                                seed=seed))
            flex = g.edge_kind == EdgeKind.FLEXIBLE
            src, dst = g.edge_src[flex], g.edge_dst[flex]
            z2 = dst[src == 2][0]
            z3 = dst[src == 3][0]
            hits += int(z2 == z3)
        f = hits / trials
        se = np.sqrt((1 / 3) * (2 / 3) / trials)
        assert abs(f - 1 / 3) < 5 * se, f


class TestContactSampler:
    """_draw, the one contact sampler, over the candidates of a cap."""

    def test_forced_single_candidate(self):
        rng = np.random.default_rng(0)
        assert _draw(np.array([3]), rng.random(5)).tolist() == [0] * 5

    def test_weight_ratio_chi_square(self):
        # candidates at degree 4, 4 and 2, delta 2: weights 6, 6 and 4
        rng = np.random.default_rng(123)
        pos = sample_uniform(rng, 3)
        src = np.array([0, 0, 0, 0, 1])
        dst = np.array([1, 1, 1, 2, 2])
        kind = np.zeros(5, dtype=np.int8)
        g = EvolvingGraph("base", pos, src, dst, kind)
        assert g.degree(0) == 4 and g.degree(1) == 4 and g.degree(2) == 2
        cand = g.cap_index.query_cap(pos[0], np.pi)
        draws = cand[_draw(g.degree()[cand] + 2, rng.random(30000))]
        counts = np.bincount(draws, minlength=3)
        p = stats.chisquare(counts, f_exp=np.array([6, 6, 4]) / 16 * counts.sum()).pvalue
        assert p > 1e-3, (counts, p)

    def test_uniform_when_degrees_equal(self):
        rng = np.random.default_rng(77)
        pos = sample_uniform(rng, 5)
        g = EvolvingGraph("base", pos, np.empty(0, dtype=np.int64),
                          np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int8))
        cand = g.cap_index.query_cap(pos[0], np.pi)
        draws = cand[_draw(g.degree()[cand] + 3, rng.random(20000))]
        counts = np.bincount(draws, minlength=5)
        p = stats.chisquare(counts).pvalue
        assert p > 1e-3, (counts, p)


def random_block(rng, k, n_vertices, p_isolated):
    """Candidate lists of k newborns over vertices 0..n_vertices-1, as (cands, ptr)."""
    lists = [np.array([], dtype=np.int64) if rng.random() < p_isolated else
             rng.permutation(n_vertices)[:rng.integers(1, n_vertices + 1)]
             for _ in range(k)]
    ptr = np.concatenate([[0], np.cumsum([c.size for c in lists])]).astype(np.int64)
    return np.concatenate([np.array([], dtype=np.int64), *lists]), ptr


class TestLayers:
    """_layers, the schedule of a block's layered draws, against the pairwise scan."""

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.integers(1, 60),
           st.sampled_from([0.0, 0.3, 0.9]))
    @settings(max_examples=150, deadline=None)
    def test_matches_pairwise_scan(self, seed, k, n_vertices, p_isolated):
        cands, ptr = random_block(np.random.default_rng(seed), k, n_vertices, p_isolated)
        layer = _layers(cands, ptr)
        assert np.array_equal(layer, layers_scan(cands, ptr))
        sets = [set(cands[ptr[i]:ptr[i + 1]].tolist()) for i in range(k)]
        for j in range(k):
            below = [layer[i] for i in range(j) if sets[i] & sets[j]]
            # newborns that share a candidate lie in strictly rising layers,
            # and each layer is the lowest that allows
            assert all(b < layer[j] for b in below)
            assert layer[j] == (1 + max(below) if below else 0)

    def test_one_shared_vertex_is_a_chain(self):
        # every newborn but the isolated ones holds vertex 7: one per layer
        lists = [[7, 1], [], [2, 7], [7], [], [3, 7, 4]]
        ptr = np.concatenate([[0], np.cumsum([len(c) for c in lists])])
        cands = np.array([v for c in lists for v in c], dtype=np.int64)
        assert _layers(cands, ptr).tolist() == [0, 0, 1, 2, 0, 3]
        assert layers_scan(cands, ptr).tolist() == [0, 0, 1, 2, 0, 3]

    def test_all_isolated(self):
        empty = np.array([], dtype=np.int64)
        assert _layers(empty, np.zeros(5, dtype=np.int64)).tolist() == [0] * 4


class TestPick:
    """_pick on many segments of one running sum picks what each segment's own
    running sum picks."""

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12), st.integers(1, 30))
    @settings(max_examples=150, deadline=None)
    def test_segments_match_their_own_search(self, seed, k, m):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 20, k)
        starts = np.concatenate([[0], sizes.cumsum()])
        w = rng.integers(1, 10 ** int(rng.integers(1, 12)), starts[-1])
        cum = w.cumsum()
        edge = np.concatenate([[0], cum])[starts]
        base, total = edge[:-1], np.diff(edge)
        u = rng.random((k, m))
        # half the uniforms sit at or just below a segment's own boundaries
        for i in range(k):
            own = w[starts[i]:starts[i + 1]].cumsum()
            at = own[rng.integers(0, own.size, m // 2)] / total[i]
            u[i, :m // 2] = np.where(rng.random(m // 2) < 0.5, at, np.nextafter(at, 0.0))
        u = np.minimum(u, np.nextafter(1.0, 0.0))
        got = _pick(cum, u, total[:, None], base[:, None])
        for i in range(k):
            own = w[starts[i]:starts[i + 1]].cumsum()
            want = own.searchsorted(u[i] * own[-1], side="right")
            assert np.array_equal(got[i] - starts[i], want)

    def test_draw_is_the_one_segment_pick(self):
        w = np.array([5, 1, 9, 2])
        u = np.random.default_rng(3).random(50)
        assert np.array_equal(_draw(w, u),
                              w.cumsum().searchsorted(u * w.sum(), side="right"))


class TestLayeredDraws:
    """Layered and per-newborn draws grow the same graph and trace, byte for byte."""

    @pytest.mark.parametrize("model", ["base", "hybrid", "selfloop"])
    @pytest.mark.parametrize("n, r", [(1500, np.log(1500) / np.sqrt(1500)), (1200, 0.3),
                                      (300, np.pi), (1500, 0.005)])
    def test_forced_on_and_off_agree(self, monkeypatch, model, n, r):
        c = cfg(model=model, n=n, m=3, r=r, seed=19, probes=default_probes(5),
                checkpoint_times=(1, n // 3, n // 2 + 1, n))
        runs = []
        for least in (1, n + 1):
            monkeypatch.setattr(models, "_LAYER_MIN", least)
            runs.append(generate(c))
        (g1, t1), (g2, t2) = runs
        for name in ("edge_src", "edge_dst", "edge_kind", "isolated_birth", "flexible_loops"):
            a, b = getattr(g1, name), getattr(g2, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        for name in ("occupancy", "attach_mass"):
            assert getattr(t1, name).tobytes() == getattr(t2, name).tobytes(), name


# a cap radius: the natural r0 = ln n / sqrt n, the whole sphere, radii at
# which most births are isolated, or any in between
RADIUS = st.one_of(st.just("r0"), st.just(np.pi), st.sampled_from([0.001, 0.005]),
                   st.floats(0.01, 1.0))


class TestGenerateScan:
    """generate grows, byte for byte, the graph that oracles.generate_scan
    grows newborn by newborn from the model's plain definition."""

    @given(st.sampled_from(["base", "hybrid", "selfloop"]), st.integers(1, 2000),
           st.integers(1, 8), st.integers(0, 3), RADIUS, st.integers(0, 2 ** 64 - 1))
    @example("hybrid", 2000, 8, 0, "r0", 1)      # most blocks draw layer by layer
    @example("selfloop", 700, 2, 0, np.pi, 2)    # blocks of a few newborns
    @example("base", 2000, 3, 1, 0.005, 3)       # mostly isolated births
    @settings(max_examples=600, deadline=None)
    def test_matches_per_newborn_definition(self, model, n, m, extra, r, seed):
        if r == "r0":
            r = np.log(max(n, 2)) / np.sqrt(max(n, 2))
        delta = 2 + extra if model == "selfloop" else 1 + extra
        c = cfg(model=model, n=n, m=m, xi=delta / m, r=r, seed=seed, delta=delta)
        g, _ = generate(c)
        for name, w in zip(("edge_src", "edge_dst", "edge_kind", "isolated_birth",
                            "flexible_loops"), generate_scan(c)):
            got = getattr(g, name)
            assert got.dtype == w.dtype and got.tobytes() == w.tobytes(), name


# a newborn of a block: whether it takes m uniforms, then integers(0, bound)
# if bound > 0; bound 1 takes nothing, and a bound b from 3 * 2**30 rejects
# a share (2**32 - b) / 2**32, up to a quarter, of its halves.  A block also
# says whether its bounds are fed one at a time, as the self-loop model's
# holder loop feeds them.
NEWBORN = st.tuples(st.booleans(), st.one_of(st.just(0), st.just(1), st.integers(2, 50),
                                             st.integers(3 << 30, 2 ** 32 - 1)))
BLOCK = st.tuples(st.lists(NEWBORN, min_size=1, max_size=12), st.booleans())


def per_call_draws(rng, m, blocks):
    """Per block, the uniform rows and the integers of bounds >= 2 that one
    Generator call per draw gives."""
    out = []
    for newborns, _ in blocks:
        u, ints = [], []
        for drawn, bound in newborns:
            if drawn:
                u.append(rng.random(m))
            if bound:
                x = int(rng.integers(0, bound))
                if bound >= 2:
                    ints.append(x)
        out.append((np.reshape(u, (-1, m)), ints))
    return out


def stream_draws(rng, m, blocks):
    """The same draws taken through one _Stream, and the stream."""
    stream, out = _Stream(rng), []
    for newborns, one_by_one in blocks:
        drawn = np.array([d for d, _ in newborns])
        bound = np.array([b for _, b in newborns], dtype=np.int64)
        calls = bound >= 2
        stream.block(drawn, m, calls)
        if one_by_one:
            ints = [stream.integer(j, int(b)) for j, b in enumerate(bound[calls])]
        else:
            ints = stream.integers(bound[calls]).tolist()
        out.append((stream.uniforms(), ints))
    return out, stream


class TestStream:
    """_Stream gives what per-call Generator draws give, and takes the same
    words: the bit generator ends in the same state, with the same buffered
    half."""

    @given(st.integers(0, 2 ** 64 - 1), st.integers(1, 4), st.booleans(),
           st.lists(BLOCK, min_size=1, max_size=6))
    @example(5, 2, False, [([(True, 7), (False, 9), (True, 3)], False),   # odd: a half carries
                           ([(False, 1 << 31), (False, 0), (False, 5)], True),   # no uniforms
                           ([(False, 4), (False, 6)], False),
                           ([(True, 2 ** 32 - 1), (True, 1), (True, 3 << 30)], True)])
    @settings(max_examples=300, deadline=None)
    def test_matches_per_call_draws(self, seed, m, buffered, blocks):
        want, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if buffered:   # the Generator holds a half before the first block
            want.integers(0, 7)
            rng.integers(0, 7)
        expected = per_call_draws(want, m, blocks)
        got, stream = stream_draws(rng, m, blocks)
        for (u1, i1), (u2, i2) in zip(expected, got):
            assert u1.shape == u2.shape and u1.tobytes() == u2.tobytes()
            assert i1 == i2
        state = want.bit_generator.state
        assert rng.bit_generator.state["state"] == state["state"]
        assert stream._half == (state["uinteger"] if state["has_uint32"] else None)

    def test_self_check_covers_its_cases(self, monkeypatch):
        starts, rejected = [], set()
        block, lay = _Stream.block, _Stream._lay

        def spy_block(self, drawn, m, calls):
            starts.append(self._half is not None)
            block(self, drawn, m, calls)

        def spy_lay(self):
            caller = sys._getframe(1).f_code.co_name
            if caller != "block":
                # a rejection added 1 to call j's tries, and the half it
                # rejected is the one before its new half: a fresh word's low
                # half at an odd index into the block's halves, else a
                # buffered half
                j = int(np.flatnonzero(self._tries != self.laid)[0])
                rejected.add((caller, (self._sums[:j + 2].sum() - 1) % 2 == 1))
            lay(self)
            self.laid = self._tries.copy()

        monkeypatch.setattr(_Stream, "block", spy_block)
        monkeypatch.setattr(_Stream, "_lay", spy_lay)
        models._check_stream.__wrapped__()
        assert set(starts) == {False, True}
        assert rejected == {(f, fresh) for f in ("integer", "integers") for fresh in (False, True)}

    @pytest.mark.parametrize("name, change", [("uniforms", lambda u: u / 2),
                                              ("integers", lambda x: x + 1),
                                              ("integer", lambda x: x + 1)])
    def test_self_check_raises_on_another_stream(self, monkeypatch, name, change):
        real = getattr(_Stream, name)
        monkeypatch.setattr(_Stream, name, lambda self, *a: change(real(self, *a)))
        with pytest.raises(RuntimeError, match="draws Generator.random and Generator.integers"):
            models._check_stream.__wrapped__()

    @pytest.mark.parametrize("model", ["base", "hybrid", "selfloop"])
    def test_generate_calls_the_generator_only_for_positions(self, monkeypatch, model):
        models._check_stream()
        calls = []

        class Spy:
            def __init__(self, rng):
                self.bit_generator = rng.bit_generator
                self._rng = rng

            def random(self, *a, **kw):
                calls.append("random")
                return self._rng.random(*a, **kw)

        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a: Spy(real(*a)))
        g, _ = generate(cfg(model=model, n=300, m=3, r=0.4, seed=2))
        monkeypatch.undo()
        # sample_uniform's two calls, and the same graph as without the spy
        assert calls == ["random", "random"]
        assert g.edge_dst.tobytes() == generate(cfg(model=model, n=300, m=3, r=0.4,
                                                    seed=2))[0].edge_dst.tobytes()


class TestCapIndexHandoff:
    @pytest.mark.parametrize("model", ["base", "hybrid", "selfloop"])
    def test_graph_reuses_the_generators_grid(self, model):
        c = cfg(model=model, n=400, r=0.25, seed=3)
        g, _ = generate(c)
        idx = g.cap_index
        assert idx is g.cap_index
        # the default cell would be 0.1 rad here
        assert idx.cell_angle == _auto_cell(c.r, c.n) == 0.25
        rng = np.random.default_rng(4)
        ids = np.arange(g.n)
        for center in (g.positions[0], g.positions[-1], sample_uniform(rng)):
            for R in (0.0, c.r, 1.0, np.pi):
                want = cap_members_scan(g.positions, ids, center, R)
                assert np.array_equal(idx.query_cap(center, R), want), (center, R)

    def test_hand_built_graph_builds_the_default_grid(self):
        pos = sample_uniform(np.random.default_rng(6), 400)
        g = EvolvingGraph("base", pos, np.array([0]), np.array([1]), np.int8([0]))
        assert g._cap_index is None
        idx = g.cap_index
        assert idx is g.cap_index
        assert idx.cell_angle == CapIndex(pos).cell_angle == pytest.approx(0.1)


class TestTrace:
    def test_checkpoint_recount(self):
        probes = default_probes(4)
        c = cfg(model="selfloop", n=120, m=2, xi=1.0, r=0.7, seed=21,
                probes=probes, checkpoint_times=(1, 17, 60, 120))
        g, tr = generate(c)
        assert isinstance(tr, GenerationTrace)
        np.testing.assert_array_equal(tr.times, [1, 17, 60, 120])
        assert tr.occupancy.shape == (4, 4) and tr.attach_mass.shape == (4, 4)
        occ, mass = trace_scan(g, probes, c.r, c.delta, tr.times)
        np.testing.assert_array_equal(tr.occupancy, occ)
        np.testing.assert_array_equal(tr.attach_mass, mass)

    @pytest.mark.parametrize("model", ["base", "hybrid", "selfloop"])
    @pytest.mark.parametrize("r", [np.log(1500) / np.sqrt(1500), 0.3, np.pi, 0.005])
    def test_matches_trace_scan(self, model, r):
        c = cfg(model=model, n=1500, m=3, r=r, seed=5, probes=default_probes(6),
                checkpoint_times=(1, 500, 751, 1500))
        g, tr = generate(c)
        # vertex 0 is always an isolated birth; below pi later ones are too
        assert g.isolated_birth[1:].any() == (r < np.pi)
        occ, mass = trace_scan(g, c.probes, c.r, c.delta, tr.times)
        np.testing.assert_array_equal(tr.occupancy, occ)
        np.testing.assert_array_equal(tr.attach_mass, mass)

    def test_trace_csv(self, tmp_path):
        c = cfg(model="base", n=30, m=2, xi=1.0, r=0.9, seed=1,
                probes=default_probes(2), checkpoint_times=(10, 30))
        _, tr = generate(c)
        path = tmp_path / "trace.csv"
        tr.write_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "probe_index,t,occupancy,attach_mass"
        assert len(rows) == 1 + 2 * 2
