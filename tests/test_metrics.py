import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar
from scipy.sparse.csgraph import connected_components, shortest_path
from scipy.special import zeta

from gpanet import graph
from gpanet.graph import EdgeKind, EvolvingGraph
from gpanet.metrics import (FLAG_ALL, FLAG_LOOP_ONLY, FLAG_OK,
                            FLAG_ZERO_VOLUME, CommunityReport,
                            ConcentrationReport, DegreeHistogram,
                            DiameterReport, PowerLawFit, _fminbound, analytic_fk,
                            community_check, concentration_report,
                            degree_histogram, diameter, expander_scan,
                            fit_power_law_exponent, json_ready,
                            long_degree_sum, r_neighborhood, urt_stats)
from gpanet.models import GenerationTrace, ModelConfig, default_probes, generate
from gpanet.sphere import cap_area, sample_uniform

from oracles import (cap_members_scan, component_diameters_scan,
                     conductance_scan, connected_scan, diameter_scan, sample_zipf)


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


class TestJsonReady:
    def test_report_fields_become_plain_keys(self):
        rep = DiameterReport(diameter=np.int64(4), connected=np.bool_(True),
                             method="bfs-all", mode="exact", n_components=1)
        d = json_ready(rep)
        # the None field component_diameters is left out
        assert d == {"diameter": 4, "connected": True, "method": "bfs-all",
                     "mode": "exact", "n_components": 1}
        assert type(d["diameter"]) is int and type(d["connected"]) is bool
        rep = DiameterReport(3, False, "bfs-all", "component-wise", 2, (3, 1))
        assert json_ready(rep)["component_diameters"] == [3, 1]

    def test_non_finite_numbers_become_null(self):
        fit = PowerLawFit(exponent=np.float64(2.5), stderr=float("inf"),
                          k_min=3, tail_count=np.int32(120))
        got = json_ready({"fit": fit, "nan": float("nan"), "neg": -np.inf,
                          "table": np.array([[1.0, np.nan], [np.inf, 0.5]]),
                          "pair": (np.float32(0.25), "x"), "none": None})
        assert got == {"fit": {"exponent": 2.5, "stderr": None, "k_min": 3,
                               "tail_count": 120},
                       "nan": None, "neg": None,
                       "table": [[1.0, None], [None, 0.5]],
                       "pair": [0.25, "x"], "none": None}
        assert type(got["fit"]["tail_count"]) is int
        text = json.dumps(got, allow_nan=False)
        assert json.loads(text, parse_constant=_reject_constant) == got


def make_graph(src, dst, kind=None, n=None, model="base", seed=0, **kw):
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if kind is None:
        kind = np.zeros(src.size, dtype=np.int8)
    else:
        kind = np.asarray(kind, dtype=np.int8)
    if n is None:
        n = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
    rng = np.random.default_rng(seed)
    pos = sample_uniform(rng, n)
    return EvolvingGraph(model, pos, src, dst, kind, **kw)


def adj_lists(g):
    adj = [[] for _ in range(g.n)]
    for s, d in zip(g.edge_src, g.edge_dst):
        if s != d:
            adj[int(s)].append(int(d))
            adj[int(d)].append(int(s))
    return adj


def rand_connected(n, extra, seed):
    rng = np.random.default_rng(seed)
    src = list(range(1, n))
    dst = [int(rng.integers(0, i)) for i in range(1, n)]
    for _ in range(extra):
        a, b = rng.integers(0, n, 2)
        src.append(int(a))
        dst.append(int(b))
    return make_graph(src, dst, n=n, seed=seed + 1)


# ---------------------------------------------------------------------------
# degree histograms


class TestDegreeHistogram:
    def test_base_single_vertex(self):
        g, _ = generate(ModelConfig(model="base", n=1, m=3, xi=1.0, r=0.3, seed=1))
        h = degree_histogram(g)
        assert h.counts == {6: 1}
        assert h.n == 1 and h.kind == "total"

    def test_recount_oracle(self):
        g, _ = generate(ModelConfig(model="selfloop", n=120, m=2, xi=1.0, r=0.6,
                                    seed=9))
        for kind in ("total", "plain", "long", "flexible", "non-flexible"):
            h = degree_histogram(g, kind)
            want = {}
            for v in range(g.n):
                d = int(g.degree(v, kind))
                want[d] = want.get(d, 0) + 1
            assert h.counts == want
            assert sum(h.counts.values()) == g.n

    def test_handshake(self):
        g, _ = generate(ModelConfig(model="hybrid", n=150, m=2, xi=1.0, r=0.5,
                                    seed=3))
        h = degree_histogram(g, "total")
        ks, cs = h.as_arrays()
        assert int(np.dot(ks, cs)) == g.volume(np.ones(g.n, dtype=bool))

    def test_hybrid_total_consistent_with_parts(self):
        g, _ = generate(ModelConfig(model="hybrid", n=100, m=2, xi=1.0, r=0.5,
                                    seed=5))
        tot = degree_histogram(g, "total")
        loc = degree_histogram(g, "local")
        lng = degree_histogram(g, "long")

        def mass(h):
            ks, cs = h.as_arrays()
            return int(np.dot(ks, cs))

        assert mass(tot) == mass(loc) + mass(lng)

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            DegreeHistogram(counts={1: 2}, kind="total", n=3)
        with pytest.raises(ValueError):
            DegreeHistogram(counts={-1: 3}, kind="total", n=3)

    def test_csv(self, tmp_path):
        h = DegreeHistogram(counts={4: 2, 2: 1}, kind="total", n=3)
        p = tmp_path / "h.csv"
        h.write_csv(p)
        assert p.read_text() == "k,count\n2,1\n4,2\n"

    def test_json(self):
        h = DegreeHistogram(counts={4: 2, 2: 1}, kind="plain", n=3)
        d = json.loads(json.dumps(h.to_json_dict()))
        assert d == {"kind": "plain", "n": 3, "k": [2, 4], "count": [1, 2]}


# ---------------------------------------------------------------------------
# analytic degree law


class TestAnalyticFk:
    def test_mode_value_example(self):
        assert analytic_fk(1, 1, 1.0, 1) == pytest.approx(3 / 5, abs=1e-12)

    def test_below_mode_zero(self):
        assert analytic_fk(1, 2, 1.0, 2) == 0.0
        assert analytic_fk(0, 2, 1.0, 2) == 0.0
        got = analytic_fk(np.array([0, 1, 2]), 2, 1.0, 2)
        assert got[0] == got[1] == 0.0 and got[2] > 0

    def test_rational_instance(self):
        # m=2, xi=1, delta=2 telescopes to 360/((k+2)(k+3)(k+4)(k+5))
        for k in (2, 3, 10, 57, 300):
            want = 360.0 / ((k + 2) * (k + 3) * (k + 4) * (k + 5))
            assert analytic_fk(k, 2, 1.0, 2) == pytest.approx(want, rel=1e-12)

    @given(st.integers(1, 8), st.floats(0.1, 5.0), st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_recurrence_identity(self, m, xi, delta):
        ks = np.arange(m, m + 101)
        f = analytic_fk(ks, m, xi, delta)
        assert f[0] == pytest.approx((2 + xi) / (2 + xi + m + delta), rel=1e-12)
        lhs = (2 + xi + ks[1:] + delta) * f[1:]
        rhs = (ks[1:] - 1 + delta) * f[:-1]
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-300)

    def test_mass_bounded_by_one(self):
        for m, xi, delta in [(1, 1.0, 1.0), (2, 1.0, 2.0), (3, 2.0, 6.0),
                             (2, 0.5, 1.0)]:
            ks = np.arange(m, 10 ** 4 + 1)
            s = analytic_fk(ks, m, xi, delta).sum()
            assert s <= 1.0 + 1e-9
            assert s > 0.5  # the law concentrates its mass at small k

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            analytic_fk(3, 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            analytic_fk(3, 2, -1.0, 1.0)
        with pytest.raises(ValueError):
            analytic_fk(3, 2, 1.0, 0.0)


# ---------------------------------------------------------------------------
# exponent fitting


def zipf_histogram(alpha, k_min, size, seed):
    rng = np.random.default_rng(seed)
    draws = sample_zipf(rng, alpha, k_min, size)
    binned = np.bincount(draws)
    counts = {int(k): int(c) for k, c in enumerate(binned) if c > 0}
    return DegreeHistogram(counts=counts, kind="total", n=size)


class TestPowerLawFit:
    def test_recovers_three_within_tolerance(self):
        h = zipf_histogram(3.0, 1, 10 ** 5, 2718)
        fit = fit_power_law_exponent(h, 1)
        assert abs(fit.exponent - 3.0) <= 0.05
        assert fit.tail_count == 10 ** 5

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
    def test_recovers_within_two_se(self, alpha):
        h = zipf_histogram(alpha, 1, 10 ** 5, 2718)
        fit = fit_power_law_exponent(h, 1)
        assert abs(fit.exponent - alpha) <= 2 * fit.stderr

    def test_shifted_support(self):
        h = zipf_histogram(3.0, 5, 10 ** 5, 555)
        fit = fit_power_law_exponent(h, 5)
        assert abs(fit.exponent - 3.0) <= 2 * fit.stderr
        assert fit.k_min == 5

    def test_scale_invariance(self):
        h = zipf_histogram(3.0, 1, 2 * 10 ** 4, 11)
        scaled = DegreeHistogram(
            counts={k: 7 * c for k, c in h.counts.items()}, kind="total",
            n=7 * h.n)
        a = fit_power_law_exponent(h, 2)
        b = fit_power_law_exponent(scaled, 2)
        assert abs(a.exponent - b.exponent) < 1e-6
        assert b.stderr == pytest.approx(a.stderr / np.sqrt(7), rel=1e-3)

    def test_insufficient_tail(self):
        h = DegreeHistogram(counts={2: 500, 10: 50, 11: 49}, kind="total", n=599)
        with pytest.raises(ValueError):
            fit_power_law_exponent(h, 10)

    def test_degenerate_single_value(self):
        h = DegreeHistogram(counts={7: 500}, kind="total", n=500)
        with pytest.raises(ValueError):
            fit_power_law_exponent(h, 7)
        with pytest.raises(ValueError):
            fit_power_law_exponent(h, 0)  # k_min must be >= 1


def scipy_bounded(f, a, b, xatol=1e-8, maxfun=500):
    """The reference the in-repo bounded Brent port must match bit for bit."""
    return minimize_scalar(f, bounds=(a, b), method="bounded",
                           options={"xatol": xatol, "maxiter": maxfun}).x


def tail_nll(draws, k_min):
    """The fit's negative log-likelihood for a sample of the tail k >= k_min."""
    ks, cs = np.unique(draws, return_counts=True)
    slogk = float(np.dot(cs.astype(np.float64), np.log(ks.astype(np.float64))))
    n_tail = int(cs.sum())
    return lambda alpha: alpha * slogk + n_tail * math.log(zeta(alpha, k_min))


class TestFminbound:
    def test_matches_scipy_on_random_tails(self):
        rng = np.random.default_rng(20240611)
        for _ in range(1000):
            k_min = int(rng.integers(1, 30))
            alpha = float(rng.uniform(1.5, 6.0))
            size = int(rng.integers(100, 2000))
            nll = tail_nll(sample_zipf(rng, alpha, k_min, size, k_max=k_min + 5000),
                           k_min)
            got = _fminbound(nll, 1.0001, 12.0, xatol=1e-8)
            assert type(got) is float
            assert got == scipy_bounded(nll, 1.0001, 12.0)

    @pytest.mark.parametrize("f", [
        lambda x: x,
        lambda x: -x,
        lambda x: 0.0,
        lambda x: (x - 11.9999) ** 4,
        lambda x: math.sin(3.0 * x),
        lambda x: abs(x - math.pi),
        lambda x: (x - 2.0) ** 2 if x < 5.0 else 1.0,
        lambda x: round(abs(x - 7.0), 4),   # a parabolic step of exactly 0
    ], ids=["lower-bound", "upper-bound", "flat", "quartic", "sin3x", "kink", "step",
            "rounded-kink"])
    def test_matches_scipy_on_edge_objectives(self, f):
        assert _fminbound(f, 1.0001, 12.0, xatol=1e-8) == scipy_bounded(f, 1.0001, 12.0)

    @pytest.mark.parametrize("maxfun", [1, 2, 5, 9])
    def test_maxfun_stop_matches_scipy(self, maxfun):
        f = lambda x: math.sin(3.0 * x) + 0.1 * x   # noqa: E731
        assert (_fminbound(f, 1.0001, 12.0, xatol=1e-8, maxfun=maxfun)
                == scipy_bounded(f, 1.0001, 12.0, maxfun=maxfun))

    def test_fit_exponent_is_scipys_minimiser(self):
        h = zipf_histogram(3.0, 2, 20000, 99)
        ks, cs = h.as_arrays()
        nll = tail_nll(np.repeat(ks[ks >= 2], cs[ks >= 2]), 2)
        assert fit_power_law_exponent(h, 2).exponent == scipy_bounded(nll, 1.0001, 12.0)


# ---------------------------------------------------------------------------
# diameter


class TestDiameter:
    def test_paths_exhaustive(self):
        for n in range(1, 201):
            g = make_graph(np.arange(n - 1), np.arange(1, n), n=n)
            rep = diameter(g)
            assert rep.diameter == n - 1
            assert rep.connected and rep.method == "bfs-all"

    def test_star(self):
        n = 40
        g = make_graph(np.zeros(n - 1, dtype=np.int64), np.arange(1, n), n=n)
        assert diameter(g).diameter == 2

    def test_matches_oracle(self):
        rng = np.random.default_rng(77)
        for trial in range(30):
            n = int(rng.integers(2, 100))
            g = rand_connected(n, int(rng.integers(0, 40)), trial)
            assert diameter(g).diameter == diameter_scan(adj_lists(g), range(g.n))
        # a star between zero-degree vertices: reduceat must not leak into
        # the empty rows, nor index past the edge array for the last one
        star = make_graph([0] * 6 + [8], [1, 2, 4, 5, 6, 7, 8], n=10)   # 8: a loop
        assert diameter(star, "component-wise").component_diameters == (2, 0, 0, 0)
        for trial in range(60):
            # multigraphs with loops on some of the ids, so zero-degree
            # vertices sit in the middle and at the end of the id range
            n = int(rng.integers(2, 80))
            ids = rng.choice(n - 1, size=int(rng.integers(1, n)), replace=False)
            e = int(rng.integers(0, 2 * n))
            g = make_graph(rng.choice(ids, e), rng.choice(ids, e), n=n, seed=trial)
            assert (diameter(g, "component-wise").component_diameters
                    == component_diameters_scan(g.adjacency_csr))

    @pytest.mark.parametrize("model", ["base", "hybrid", "selfloop"])
    def test_bfs_all_matches_all_pairs_on_generated_graphs(self, model):
        # big enough that eccentricity bounds rule out most BFS sources
        g, _ = generate(ModelConfig(model=model, n=1500, m=2, xi=1.0, r=0.3,
                                    seed=5))
        dist = shortest_path(g.adjacency_csr, directed=False, unweighted=True)
        want = int(dist[np.isfinite(dist)].max())
        rep = diameter(g, "component-wise")
        assert rep.diameter == want and rep.method == "bfs-all"

    def test_bfs_all_on_cycle(self):
        # every eccentricity equals the diameter, so bounds rule out only the
        # vertices already measured; at n=200 the last pass has 6 of 64 lanes
        for n in (200, 301):
            g = make_graph(np.arange(n), (np.arange(n) + 1) % n, n=n)
            rep = diameter(g)
            assert rep.diameter == n // 2 and rep.method == "bfs-all"

    def test_exact_requires_connected(self):
        g = make_graph([0, 2], [1, 3], n=4)
        with pytest.raises(ValueError):
            diameter(g, "exact")

    def test_component_wise(self):
        # triangle + edge + singleton
        g = make_graph([0, 1, 2, 3], [1, 2, 0, 4], n=6)
        rep = diameter(g, "component-wise")
        assert rep.n_components == 3
        assert not rep.connected
        assert rep.component_diameters == (1, 1, 0)
        assert rep.diameter == 1

    def test_generated_graph_modes_agree(self):
        g, _ = generate(ModelConfig(model="hybrid", n=300, m=2, xi=1.0, r=0.5,
                                    seed=12))
        a = diameter(g, "exact")
        b = diameter(g, "component-wise")
        assert a.diameter == b.diameter
        assert b.connected and b.n_components == 1

    def test_bad_arguments(self):
        g = make_graph([0], [1], n=2)
        with pytest.raises(ValueError):
            diameter(g, "fastest")

    def test_single_vertex(self):
        g = make_graph([0], [0], n=1)
        assert diameter(g).diameter == 0


# ---------------------------------------------------------------------------
# neighborhoods and communities


class TestNeighborhood:
    def test_zero_radius(self):
        g, _ = generate(ModelConfig(model="base", n=50, m=2, xi=1.0, r=0.5,
                                    seed=2))
        assert r_neighborhood(g, 7, 0.0).tolist() == [7]

    def test_full_sphere(self):
        g, _ = generate(ModelConfig(model="base", n=50, m=2, xi=1.0, r=0.5,
                                    seed=2))
        assert r_neighborhood(g, 3, np.pi).tolist() == list(range(50))
        # radii beyond pi are treated as the whole sphere
        assert r_neighborhood(g, 3, 10.0).tolist() == list(range(50))

    def test_scan_equivalence(self):
        g, _ = generate(ModelConfig(model="base", n=150, m=2, xi=1.0, r=0.5,
                                    seed=4))
        rng = np.random.default_rng(0)
        for _ in range(25):
            v = int(rng.integers(0, g.n))
            R = float(rng.uniform(0, np.pi))
            got = r_neighborhood(g, v, R)
            want = cap_members_scan(g.positions, np.arange(g.n),
                                    g.positions[v], R)
            assert np.array_equal(got, want)

    def test_vertex_range(self):
        g, _ = generate(ModelConfig(model="base", n=10, m=2, xi=1.0, r=0.5,
                                    seed=2))
        with pytest.raises(ValueError):
            r_neighborhood(g, 10, 0.5)


class TestCommunityCheck:
    def test_whole_graph_errors(self):
        g, _ = generate(ModelConfig(model="base", n=30, m=2, xi=1.0, r=1.0,
                                    seed=1))
        for R in (np.pi, 4.0):
            with pytest.raises(ValueError, match="^conductance undefined for S = V$"):
                community_check(g, 0, R, 1.0, 0.25, 1e9)

    def test_zero_volume_cap_errors(self):
        # vertex 0 has no edge, so its small cap {0} has zero volume
        pos = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        g = EvolvingGraph("base", pos, np.array([1]), np.array([2]), np.zeros(1, dtype=np.int8))
        with pytest.raises(ValueError, match="^conductance undefined: zero-volume side$"):
            community_check(g, 0, 0.1, 1.0, 0.25, 1e9)
        # S = V is checked before the volumes, so it wins on an edgeless graph
        bare = EvolvingGraph("base", pos, [], [], [])
        with pytest.raises(ValueError, match="^conductance undefined for S = V$"):
            community_check(bare, 0, np.pi, 1.0, 0.25, 1e9)

    def test_whole_graph_cap_skips_the_connectivity_pass(self, monkeypatch):
        g, _ = generate(ModelConfig(model="base", n=30, m=2, xi=1.0, r=1.0,
                                    seed=1))

        def refuse(*args, **kwargs):
            raise AssertionError("connectivity pass over a cap of all of V")

        monkeypatch.setattr(graph, "connected_components", refuse)
        with pytest.raises(ValueError, match="^conductance undefined for S = V$"):
            community_check(g, 0, np.pi, 1.0, 0.25, 1e9)

    @pytest.mark.parametrize("model", ["base", "hybrid", "selfloop"])
    def test_cut_matches_recount(self, model):
        # small r: most births are isolated, so many caps induce several
        # components, and m=2 makes parallel edges; the recount slices the
        # adjacency twice and tests undirected connectivity, and counts
        # crossing edges from the edge list
        g, _ = generate(ModelConfig(model=model, n=400, m=2, xi=1.0, r=0.05, seed=7))
        assert g.isolated_birth.sum() > g.n // 2
        adj = g.adjacency_csr
        rng = np.random.default_rng(0)
        seen = set()
        for v in rng.choice(g.n, 30, replace=False):
            for R in (0.0, 0.05, 0.2, 0.5, 1.5):
                ids = g.cap_index.query_cap(g.positions[v], R)
                mask = np.zeros(g.n, dtype=bool)
                mask[ids] = True
                ncomp, _ = connected_components(adj[ids][:, ids], directed=False)
                want = (int(np.count_nonzero(mask[g.edge_src] != mask[g.edge_dst])), ncomp == 1)
                assert g._cut(ids) == want
                assert g._cut(ids, connectivity=False) == (want[0], None)
                assert g.boundary_edge_count(ids) == want[0]
                assert g.induced_connected(ids) == want[1]
                rep = community_check(g, int(v), R, 1.0, 0.25, 1e9)
                assert rep.connected == want[1]
                assert rep.conductance == want[0] / min(g.volume(mask), g.volume(~mask))
                seen.add(want[1])
        assert seen == {True, False}

    def test_singleton_in_triangle(self):
        # positions far apart so a small radius isolates the center
        pos = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        g = EvolvingGraph("base", pos, np.array([0, 1, 2]),
                          np.array([1, 2, 0]), np.zeros(3, dtype=np.int8))
        rep = community_check(g, 0, 0.1, alpha=0.99, beta=0.5, size_cap=100)
        assert rep.size == 1
        assert rep.conductance == pytest.approx(1.0)
        assert rep.connected
        assert not rep.satisfies  # needs phi <= 0.99 at size 1

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(31)
        for trial in range(20):
            n = int(rng.integers(4, 30))
            g, _ = generate(ModelConfig(model="base", n=n, m=2, xi=1.0,
                                        r=1.2, seed=trial))
            v = int(rng.integers(0, n))
            R = float(rng.uniform(0.3, 2.2))
            members = cap_members_scan(g.positions, np.arange(n),
                                       g.positions[v], R)
            if members.size == n:
                continue
            rep = community_check(g, v, R, alpha=2.0, beta=0.25, size_cap=n)
            assert rep.size == members.size
            assert rep.connected == connected_scan(g, members)
            assert rep.conductance == pytest.approx(conductance_scan(g, members))

    def test_monotone_in_alpha(self):
        g, _ = generate(ModelConfig(model="base", n=200, m=2, xi=1.0, r=0.7,
                                    seed=8))
        rng = np.random.default_rng(1)
        for _ in range(15):
            v = int(rng.integers(0, g.n))
            a = float(rng.uniform(0.01, 2.0))
            rep_lo = community_check(g, v, 0.4, a, 0.25, 1e9)
            rep_hi = community_check(g, v, 0.4, a * 3, 0.25, 1e9)
            if rep_lo.satisfies:
                assert rep_hi.satisfies

    def test_json_fields(self):
        g, _ = generate(ModelConfig(model="base", n=40, m=2, xi=1.0, r=0.8,
                                    seed=3))
        rep = community_check(g, 5, 0.5, 1.0, 0.25, 50)
        d = rep.to_json_dict()
        assert set(d) == {"center", "radius", "size", "connected",
                          "conductance", "alpha", "beta", "size_cap",
                          "satisfies"}


class TestLongDegreeSum:
    def test_base_graph_zero(self):
        g, _ = generate(ModelConfig(model="base", n=30, m=2, xi=1.0, r=0.8,
                                    seed=1))
        assert long_degree_sum(g, 4, 1.0) == 0

    def test_two_vertex_hybrid(self):
        g, _ = generate(ModelConfig(model="hybrid", n=2, m=2, xi=1.0, r=np.pi,
                                    seed=0))
        assert long_degree_sum(g, 0, np.pi) == 2

    def test_recount_oracle(self):
        g, _ = generate(ModelConfig(model="hybrid", n=120, m=2, xi=1.0, r=0.5,
                                    seed=6))
        rng = np.random.default_rng(2)
        long = g.edge_kind == EdgeKind.LONG
        src, dst = g.edge_src[long], g.edge_dst[long]
        for _ in range(10):
            v = int(rng.integers(0, g.n))
            R = float(rng.uniform(0.1, 2.0))
            members = set(r_neighborhood(g, v, R).tolist())
            want = sum(int(s in members) + int(d in members)
                       for s, d in zip(src, dst))
            assert long_degree_sum(g, v, R) == want


# ---------------------------------------------------------------------------
# recursive-tree statistics


class TestUrtStats:
    def test_two_vertex_hybrid(self):
        g, _ = generate(ModelConfig(model="hybrid", n=2, m=2, xi=1.0, r=np.pi,
                                    seed=0))
        assert urt_stats(g) == (1, 1)

    def test_star_adversarial(self):
        n = 25
        kind = np.full(n - 1, EdgeKind.LONG, dtype=np.int8)
        g = make_graph(np.arange(1, n), np.zeros(n - 1, dtype=np.int64),
                       kind=kind, n=n, model="hybrid")
        stats = urt_stats(g)
        assert stats.max_degree == n - 1
        assert stats.diameter == 2

    def test_oracle_on_generated_trees(self):
        for model, seed in [("hybrid", 4), ("selfloop", 9)]:
            g, _ = generate(ModelConfig(model=model, n=300, m=2, xi=2.0, r=0.4,
                                        seed=seed))
            stats = urt_stats(g)
            kind = EdgeKind.LONG if model == "hybrid" else EdgeKind.FLEXIBLE
            sel = g.edge_kind == kind
            src, dst = g.edge_src[sel], g.edge_dst[sel]
            adj = [[] for _ in range(g.n)]
            for s, d in zip(src, dst):
                adj[int(s)].append(int(d))
                adj[int(d)].append(int(s))
            assert stats.diameter == diameter_scan(adj, range(g.n))
            deg = np.bincount(src, minlength=g.n) + np.bincount(dst, minlength=g.n)
            assert stats.max_degree == int(deg.max())

    def test_base_model_rejected(self):
        g, _ = generate(ModelConfig(model="base", n=10, m=2, xi=1.0, r=1.0,
                                    seed=1))
        with pytest.raises(ValueError):
            urt_stats(g)

    def test_non_spanning_rejected(self):
        kind = np.full(2, EdgeKind.LONG, dtype=np.int8)
        g = make_graph([1, 2], [0, 1], kind=kind, n=4, model="hybrid")
        with pytest.raises(ValueError):
            urt_stats(g)  # only 2 long edges for 4 vertices

    def test_cycle_rejected(self):
        kind = np.full(3, EdgeKind.LONG, dtype=np.int8)
        g = make_graph([1, 2, 0], [0, 1, 2], kind=kind, n=4, model="hybrid")
        with pytest.raises(ValueError):
            urt_stats(g)  # triangle + isolated vertex

    def test_loop_rejected(self):
        kind = np.full(3, EdgeKind.LONG, dtype=np.int8)
        g = make_graph([1, 2, 3], [0, 1, 3], kind=kind, n=4, model="hybrid")
        with pytest.raises(ValueError):
            urt_stats(g)


# ---------------------------------------------------------------------------
# concentration reports


def make_trace(times, occ, mass, probes=2):
    times = np.asarray(times, dtype=np.int64)
    return GenerationTrace(probe_points=default_probes(probes), times=times,
                           occupancy=np.asarray(occ, dtype=np.int64),
                           attach_mass=np.asarray(mass, dtype=np.int64),
                           isolated_in_cap=np.zeros(probes, dtype=bool))


def half_sphere_cfg(n=100):
    # r = pi/2 puts the cap area at exactly 1/2
    return ModelConfig(model="base", n=n, m=2, xi=1.0, r=np.pi / 2, seed=0)


class TestConcentration:
    def test_exact_targets_give_zero_deviation(self):
        cfg = half_sphere_cfg()
        tr = make_trace([10, 20], [[5, 5], [10, 10]], [[30, 30], [60, 60]])
        rep = concentration_report(tr, cfg)
        np.testing.assert_allclose(rep.z_dev, 0.0, atol=1e-12)
        np.testing.assert_allclose(rep.t_dev, 0.0, atol=1e-12)
        assert rep.worst_z_dev == pytest.approx(0.0, abs=1e-12)
        assert rep.worst_t_mean_dev == pytest.approx(0.0, abs=1e-12)
        assert rep.a_r == pytest.approx(0.5)

    def test_known_perturbation_reproduced(self):
        cfg = half_sphere_cfg()
        tr = make_trace([10, 20], [[6, 5], [10, 8]], [[30, 30], [66, 60]])
        rep = concentration_report(tr, cfg)
        assert rep.z_dev[0, 0] == pytest.approx(0.2)
        assert rep.z_dev[1, 1] == pytest.approx(-0.2)
        assert rep.t_dev[1, 0] == pytest.approx(0.1)
        assert rep.worst_z_dev == pytest.approx(0.2)
        assert rep.z_mean_dev[0] == pytest.approx(0.1)

    def test_zero_occupancy_is_undefined(self):
        cfg = half_sphere_cfg()
        tr = make_trace([10, 20], [[0, 5], [10, 10]], [[0, 30], [60, 60]])
        rep = concentration_report(tr, cfg)
        assert np.isnan(rep.z_dev[0, 0]) and np.isnan(rep.t_dev[0, 0])
        assert np.isfinite(rep.z_dev[0, 1])
        assert np.isfinite(rep.worst_z_dev)  # NaN cells are skipped

    def test_t_r_window(self):
        cfg = half_sphere_cfg()
        tr = make_trace([10, 20], [[6, 6], [10, 10]], [[36, 36], [60, 60]])
        rep = concentration_report(tr, cfg, t_r=15)
        # the bad checkpoint at t=10 is before t_r, so the worst is clean
        assert rep.worst_z_dev == pytest.approx(0.0, abs=1e-12)
        assert not rep.t_r_clamped
        assert rep.t_r_effective == 15
        rep_all = concentration_report(tr, cfg, t_r=5)
        assert rep_all.worst_z_dev == pytest.approx(0.2)

    def test_t_r_clamped_to_last_checkpoint(self):
        cfg = half_sphere_cfg()
        tr = make_trace([10, 20], [[5, 5], [10, 10]], [[30, 30], [60, 60]])
        rep = concentration_report(tr, cfg, t_r=10 ** 9)
        assert rep.t_r_clamped
        assert rep.t_r_effective == 20

    def test_errors(self):
        cfg = half_sphere_cfg()
        with pytest.raises(ValueError):
            concentration_report(make_trace([], np.zeros((0, 2)),
                                            np.zeros((0, 2))), cfg)
        bad = make_trace([10], [[5, 5]], [[30, 30]])
        bad = GenerationTrace(probe_points=bad.probe_points,
                              times=np.array([10, 20]),
                              occupancy=bad.occupancy,
                              attach_mass=bad.attach_mass)
        with pytest.raises(ValueError):
            concentration_report(bad, cfg)
        no_probes = make_trace([10, 20], np.zeros((2, 0)), np.zeros((2, 0)), probes=0)
        with pytest.raises(ValueError, match="trace has no probes"):
            concentration_report(no_probes, cfg)
        r0 = ModelConfig(model="base", n=10, m=2, xi=1.0, r=0.0, seed=0)
        with pytest.raises(ValueError):
            concentration_report(make_trace([5], [[1, 1]], [[6, 6]]), r0)
        tr = make_trace([10, 20], [[5, 5], [10, 10]], [[30, 30], [60, 60]])
        for t_r in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="t_r must be finite"):
                concentration_report(tr, cfg, t_r=t_r)

    def test_json_dict_is_strict(self):
        cfg = half_sphere_cfg()
        tr = make_trace([10, 20], [[0, 5], [10, 8]], [[0, 30], [60, 50]])
        d = concentration_report(tr, cfg).to_json_dict()
        assert d["n_probes"] == 2
        assert d["z_dev"][0][0] is None  # empty cap: undefined, not zero
        assert d["z_dev"][1] == pytest.approx([0.0, -0.2])
        json.loads(json.dumps(d, allow_nan=False), parse_constant=_reject_constant)

    def test_generated_trace_integration(self):
        probes = default_probes(3)
        cfg = ModelConfig(model="base", n=400, m=2, xi=1.0, r=1.0, seed=17,
                          probes=probes, checkpoint_times=(100, 250, 400))
        _, tr = generate(cfg)
        rep = concentration_report(tr, cfg, t_r=100)
        assert np.isfinite(rep.z_dev).all()  # caps this large never stay empty
        assert rep.worst_z_dev < 1.0
        d = rep.to_json_dict()
        assert d["t_r_effective"] == 100
        json.dumps(d)  # NaN-free payload


# ---------------------------------------------------------------------------
# expander scans


class TestExpanderScan:
    def build_clustered(self):
        # triangle near the north pole, a loop-only vertex at the south pole,
        # and an edgeless vertex on the equator
        pos = np.array([
            [0.02, 0.0, 1.0], [0.0, 0.02, 1.0], [-0.02, 0.0, 1.0],
            [0.0, 0.0, -1.0],
            [1.0, 0.0, 0.0],
        ])
        pos /= np.linalg.norm(pos, axis=1)[:, None]
        src = np.array([0, 1, 2, 3, 3])
        dst = np.array([1, 2, 0, 3, 3])
        kind = np.zeros(5, dtype=np.int8)
        return EvolvingGraph("base", pos, src, dst, kind)

    def test_flags(self):
        g = self.build_clustered()
        rep = expander_scan(g, [0, 3, 4], [0.3, np.pi])
        assert rep.flags[0, 1] == FLAG_LOOP_ONLY
        assert rep.flags[0, 2] == FLAG_ZERO_VOLUME
        assert rep.flags[0, 0] == FLAG_OK
        assert (rep.flags[1] == FLAG_ALL).all()
        assert np.isnan(rep.conductance[0, 1])
        assert np.isnan(rep.min_phi[1])  # everything flagged at R=pi
        assert rep.n_degenerate(1) == 3
        # triangle is separated from the rest, so its conductance is 0
        assert rep.conductance[0, 0] == pytest.approx(0.0)

    def test_summaries_ignore_flagged(self):
        g = self.build_clustered()
        rep = expander_scan(g, [0, 1, 3], [0.3])
        finite = rep.conductance[0][np.isfinite(rep.conductance[0])]
        assert rep.min_phi[0] == pytest.approx(finite.min())
        assert rep.median_phi[0] == pytest.approx(np.median(finite))

    def test_fractional_centres_rejected(self):
        g = self.build_clustered()
        for bad in ([3.7], [0, 2.5], [np.nan]):
            with pytest.raises(ValueError, match="integers"):
                expander_scan(g, bad, [0.3])
        want = expander_scan(g, [0, 3], [0.3])
        assert np.array_equal(expander_scan(g, [0.0, 3.0], [0.3]).sizes, want.sizes)

    def test_consistency_with_community_check(self):
        g, _ = generate(ModelConfig(model="base", n=250, m=2, xi=1.0, r=0.6,
                                    seed=13))
        rng = np.random.default_rng(3)
        centers = rng.choice(g.n, size=8, replace=False)
        radii = [0.15, 0.6]
        rep = expander_scan(g, centers, radii)
        for ri, R in enumerate(radii):
            for ci, v in enumerate(centers):
                if rep.flags[ri, ci] == FLAG_OK:
                    want = community_check(g, int(v), R, 1.0, 0.25, 1e9)
                    assert rep.conductance[ri, ci] == pytest.approx(
                        want.conductance)
                    assert rep.sizes[ri, ci] == want.size

    def test_matches_one_centre_at_a_time(self):
        # the scan queries all centres of a radius at once; each cap must be
        # the one r_neighborhood finds alone, R > pi clamped to pi
        g, _ = generate(ModelConfig(model="base", n=400, m=2, xi=1.0, r=0.08,
                                    seed=21))
        assert g.isolated_birth.any()
        centers = np.random.default_rng(4).choice(g.n, size=40, replace=False)
        radii = [0.0, 0.08, 0.5, np.pi, 4.0]
        rep = expander_scan(g, centers, radii)
        total, vol_all = g.degree(), int(g.degree().sum())
        loops = g.edge_src == g.edge_dst
        loop_deg = np.bincount(g.edge_src[loops], minlength=g.n) + g.flexible_loops
        for ri, R in enumerate(radii):
            for ci, v in enumerate(centers):
                members = r_neighborhood(g, int(v), R)
                vol_s = int(total[members].sum())
                if members.size == g.n:
                    flag = FLAG_ALL
                elif vol_s in (0, vol_all):
                    flag = FLAG_ZERO_VOLUME
                elif vol_s == int(loop_deg[members].sum()):
                    flag = FLAG_LOOP_ONLY
                else:
                    flag = FLAG_OK
                    assert rep.conductance[ri, ci] == g.conductance(members)
                assert rep.sizes[ri, ci] == members.size, (R, v)
                assert rep.flags[ri, ci] == flag, (R, v)
        assert set(rep.flags[0]) >= {FLAG_OK, FLAG_LOOP_ONLY}
        assert (rep.flags[3:] == FLAG_ALL).all()

    def test_input_validation(self):
        g = self.build_clustered()
        with pytest.raises(ValueError):
            expander_scan(g, [], [0.3])
        with pytest.raises(ValueError):
            expander_scan(g, [0, 99], [0.3])
        with pytest.raises(ValueError):
            expander_scan(g, [0], [-0.5])

    def test_json_round_trip(self):
        g = self.build_clustered()
        rep = expander_scan(g, [0, 3], [0.3])
        payload = json.dumps(rep.to_json_dict())
        back = json.loads(payload)
        assert back["flags"][0][1] == FLAG_LOOP_ONLY
        assert back["conductance"][0][1] is None
