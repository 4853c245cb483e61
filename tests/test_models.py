import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gpanet.capindex import DOT_TOL, CapIndex
from gpanet.graph import EdgeKind, EvolvingGraph
from gpanet.metrics import diameter
from gpanet.models import (DEFAULT_PROBE_SEED, GenerationTrace, ModelConfig, _auto_cell,
                           _draw, default_probes, generate)
from gpanet.sphere import angular_distance, sample_uniform

from oracles import cap_members_scan, component_diameters_scan


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
        from gpanet.sphere import SpherePoint
        pts = [SpherePoint.from_angles(0.3, 1.0), SpherePoint.from_angles(2.0, 4.0)]
        c = cfg(probes=pts)
        assert c.probes.shape == (2, 3)
        with pytest.raises(ValueError):
            cfg(probes=np.array([[0.0, 0.0, 2.0]]))

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
        assert _draw(np.array([3]), 5, rng).tolist() == [0] * 5

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
        draws = cand[_draw(g.degree()[cand] + 2, 30000, rng)]
        counts = np.bincount(draws, minlength=3)
        p = stats.chisquare(counts, f_exp=np.array([6, 6, 4]) / 16 * counts.sum()).pvalue
        assert p > 1e-3, (counts, p)

    def test_uniform_when_degrees_equal(self):
        rng = np.random.default_rng(77)
        pos = sample_uniform(rng, 5)
        g = EvolvingGraph("base", pos, np.empty(0, dtype=np.int64),
                          np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int8))
        cand = g.cap_index.query_cap(pos[0], np.pi)
        draws = cand[_draw(g.degree()[cand] + 3, 20000, rng)]
        counts = np.bincount(draws, minlength=5)
        p = stats.chisquare(counts).pvalue
        assert p > 1e-3, (counts, p)


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
        plain = (g.edge_kind == EdgeKind.PLAIN)
        for ti, cp in enumerate(tr.times):
            sel = plain & (g.edge_src <= cp - 1)
            s, d = g.edge_src[sel], g.edge_dst[sel]
            deg_at = (np.bincount(s, minlength=c.n) + np.bincount(d, minlength=c.n)
                      - np.bincount(s[s == d], minlength=c.n))
            for pi in range(4):
                members = cap_members_scan(g.positions[:cp], np.arange(cp),
                                           probes[pi], c.r)
                assert tr.occupancy[ti, pi] == members.size
                want = deg_at[members].sum() + c.delta * members.size
                assert tr.attach_mass[ti, pi] == want

    def test_isolated_in_cap_flag(self):
        kw = dict(model="base", n=200, m=2, xi=1.0, r=0.12, seed=4, checkpoint_times=(200,))
        c = cfg(**kw)
        g, _ = generate(c)
        iso_pos = g.positions[g.isolated_birth]
        # one more probe at dot cos(r) - 5e-13 from vertex 0, an isolated
        # birth, and farther than 2r from every other: a member of vertex 0's
        # closed ball only through the tolerance
        p0 = g.positions[0]
        e1 = np.cross(p0, [0.0, 0.0, 1.0])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(p0, e1)
        cos_a = np.cos(c.r) - 5e-13
        for phi in np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False):
            edge = cos_a * p0 + np.sqrt(1.0 - cos_a ** 2) * (np.cos(phi) * e1 + np.sin(phi) * e2)
            if (iso_pos[1:] @ edge < np.cos(2 * c.r)).all():
                break
        else:
            pytest.fail("no probe direction clear of other isolated births")
        assert np.cos(c.r) - DOT_TOL <= edge @ p0 < np.cos(c.r)
        probes = np.vstack([default_probes(6), edge])
        _, tr = generate(cfg(probes=probes, **kw))
        for pi in range(7):
            near = (iso_pos @ probes[pi] >= np.cos(c.r) - DOT_TOL).any()
            assert tr.isolated_in_cap[pi] == near
        assert tr.isolated_in_cap[6]

    def test_trace_csv(self, tmp_path):
        c = cfg(model="base", n=30, m=2, xi=1.0, r=0.9, seed=1,
                probes=default_probes(2), checkpoint_times=(10, 30))
        _, tr = generate(c)
        path = tmp_path / "trace.csv"
        tr.write_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "probe_index,t,occupancy,attach_mass"
        assert len(rows) == 1 + 2 * 2
