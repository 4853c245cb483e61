"""Acceptance gate: twelve desk-scale checks of the advertised behavior.

Each check prints one pass/fail line with its measured values; the lines
are echoed together in the terminal summary.  Bounds and tolerances are
asserted exactly as stated, never loosened to fit the implementation.
Expensive graphs are generated once per module and shared; fixtures keep
only the summaries they need so at most one large graph is alive at a time.
"""

import math

import numpy as np
import pytest
from scipy import stats as sps

from gpanet.harness import derive_parameters
from gpanet.metrics import (FLAG_OK, DegreeHistogram, analytic_fk,
                            concentration_report, degree_histogram, diameter,
                            expander_scan, fit_power_law_exponent,
                            long_degree_sum, r_neighborhood, urt_stats)
from gpanet.models import ModelConfig, _draw, default_probes, generate
from gpanet.sphere import cap_area, sample_uniform

from conftest import record_criterion
from oracles import (boundary_scan, cap_members_scan, conductance_scan,
                     connected_scan, volume_scan)

pytestmark = pytest.mark.acceptance

N_LARGE = 10 ** 5
SEEDS = (11, 12, 13, 14, 15)
R0_CONST = 0.4191518487813695   # n^{-1/2} (ln n)^{2 c0} at n=1e5, c0=1
r0_CONST = 0.036407067001059    # n^{-1/2} (ln n)^{c0}


def pooled(hists):
    counts: dict[int, int] = {}
    for h in hists:
        for k, c in h.counts.items():
            counts[k] = counts.get(k, 0) + c
    return DegreeHistogram(counts=counts, kind=hists[0].kind,
                           n=sum(h.n for h in hists))


# ---------------------------------------------------------------------------
# shared runs


@pytest.fixture(scope="module")
def base_histograms():
    hists = []
    for seed in SEEDS:
        g, _ = generate(ModelConfig(model="base", n=N_LARGE, m=2, xi=1.0,
                                    r=0.3, seed=seed))
        hists.append(degree_histogram(g, "total"))
        del g
    return hists


@pytest.fixture(scope="module")
def hybrid_large():
    """Five hybrid runs at n=1e5; histograms, diameters, and tree stats."""
    out = {"local_hists": [], "diameters": [], "tree_stats": []}
    for seed in SEEDS:
        g, _ = generate(ModelConfig(model="hybrid", n=N_LARGE, m=2, xi=1.0,
                                    r=0.3, seed=seed))
        out["local_hists"].append(degree_histogram(g, "local"))
        out["diameters"].append(diameter(g).diameter)
        out["tree_stats"].append(urt_stats(g))
        del g
    return out


@pytest.fixture(scope="module")
def selfloop_histograms():
    hists = []
    for seed in SEEDS:
        g, _ = generate(ModelConfig(model="selfloop", n=N_LARGE, m=2, xi=1.0,
                                    r=0.3, seed=seed))
        hists.append(degree_histogram(g, "total"))
        del g
    return hists


@pytest.fixture(scope="module")
def hybrid_small_diameters():
    out = {}
    for n in (10 ** 3, 10 ** 4):
        ds = []
        for seed in SEEDS:
            g, _ = generate(ModelConfig(model="hybrid", n=n, m=2, xi=1.0,
                                        r=0.3, seed=seed))
            ds.append(diameter(g).diameter)
            del g
        out[n] = ds
    return out


@pytest.fixture(scope="module")
def community_scan():
    """Cap neighborhoods at R0 in both generalized models, n=1e5, m=24."""
    out = {}
    rng = np.random.default_rng(606)
    centers = np.sort(rng.choice(N_LARGE, size=50, replace=False))
    for model in ("hybrid", "selfloop"):
        g, _ = generate(ModelConfig(model=model, n=N_LARGE, m=24, xi=1.0,
                                    r=r0_CONST, seed=11))
        sizes, conn, phis, ratios = [], [], [], []
        area_n = cap_area(R0_CONST) * N_LARGE
        for v in centers:
            members = r_neighborhood(g, int(v), R0_CONST)
            sizes.append(members.size)
            conn.append(g.induced_connected(members))
            phis.append(g.conductance(members))
            if model == "hybrid":
                ratios.append(long_degree_sum(g, int(v), R0_CONST) / area_n)
        out[model] = {"sizes": np.array(sizes), "connected": np.array(conn),
                      "phis": np.array(phis), "area_n": area_n,
                      "long_ratios": np.array(ratios) if ratios else None}
        del g
    return out


@pytest.fixture(scope="module")
def expander_report():
    n = 10 ** 4
    r = n ** -0.35
    g, _ = generate(ModelConfig(model="base", n=n, m=46, xi=1.0, r=r,
                                seed=11))
    rng = np.random.default_rng(707)
    centers = np.sort(rng.choice(n, size=50, replace=False))
    rep = expander_scan(g, centers, [r / 10.0, n ** -0.2])
    del g
    return rep


@pytest.fixture(scope="module")
def concentration_results():
    n = N_LARGE
    cfg = ModelConfig(model="base", n=n, m=2, xi=1.0, r=0.1, seed=11,
                      probes=default_probes(20),
                      checkpoint_times=(n // 4, n // 2, 3 * n // 4, n))
    _, trace = generate(cfg)
    # every admissible (c0, c1) puts t_r above n here; clamping is the point
    t_r = derive_parameters(n, 1.0, 1.0, 0.5, r=0.1).t_r
    rep = concentration_report(trace, cfg, t_r)

    t_small, n_small = 4000, 5000
    target = cap_area(0.1) * (2 * 2 + 2) * t_small
    total = 0.0
    count = 0
    for i in range(100):
        seed = int(np.random.SeedSequence([1729, i]).generate_state(1)[0])
        small = ModelConfig(model="base", n=n_small, m=2, xi=1.0, r=0.1,
                            seed=seed, probes=default_probes(4),
                            checkpoint_times=(t_small,))
        _, tr = generate(small)
        total += float(tr.attach_mass[0].sum())
        count += tr.attach_mass.shape[1]
    mean_dev = abs(total / count / target - 1.0)
    return rep, mean_dev


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_base_power_law(base_histograms):
    fit = fit_power_law_exponent(pooled(base_histograms), 10)
    ok = 3.6 <= fit.exponent <= 4.4
    record_criterion(1, ok, f"base pooled MLE over k>=10: "
                     f"{fit.exponent:.3f} (se {fit.stderr:.3f}) vs [3.6, 4.4]")
    assert ok


def test_criterion_02_degree_law_match(base_histograms):
    h = pooled(base_histograms)
    ks = np.arange(2, 18)
    emp = np.array([h.counts.get(int(k), 0) for k in ks]) / h.n
    rel = np.abs(emp - analytic_fk(ks, 2, 1.0, 2)) / analytic_fk(ks, 2, 1.0, 2)
    ok = rel[0] <= 0.10 and bool((rel <= 0.20).all())
    record_criterion(2, ok, f"pooled d_k/n vs analytic law, k in [2,17]: "
                     f"max rel err {rel.max():.3f} (<=0.20), "
                     f"mode err {rel[0]:.3f} (<=0.10)")
    assert ok


def test_criterion_03_generalized_exponents(selfloop_histograms, hybrid_large):
    fit_sl = fit_power_law_exponent(pooled(selfloop_histograms), 12)
    fit_hl = fit_power_law_exponent(pooled(hybrid_large["local_hists"]), 12)
    ok_sl = 3.6 <= fit_sl.exponent <= 4.4
    ok_hl = 3.6 <= fit_hl.exponent <= 4.4
    ok = ok_sl and ok_hl
    record_criterion(3, ok, f"pooled MLE over k>=12 vs [3.6, 4.4]: "
                     f"selfloop total {fit_sl.exponent:.3f}, "
                     f"hybrid local {fit_hl.exponent:.3f}")
    assert ok


def test_criterion_04_hybrid_diameter_growth(hybrid_large,
                                             hybrid_small_diameters):
    diams = dict(hybrid_small_diameters)
    diams[N_LARGE] = hybrid_large["diameters"]
    bound_ok = all(d <= 10.0 * math.log(n)
                   for n, ds in diams.items() for d in ds)
    ratio = {n: max(ds) / math.log(n) for n, ds in diams.items()}
    growth_ok = ratio[10 ** 5] <= 1.25 * ratio[10 ** 3]
    ok = bound_ok and growth_ok
    record_criterion(4, ok, f"max diameter/ln n: {ratio[10 ** 3]:.2f} (1e3), "
                     f"{ratio[10 ** 4]:.2f} (1e4), {ratio[10 ** 5]:.2f} (1e5); "
                     f"each diameter <= 10 ln n, growth <= 25%")
    assert ok


def test_criterion_05_selfloop_tree_and_diameter():
    n = 10 ** 4
    bound = 10.0 * math.log(n)
    spanning = 0
    diams = []
    for seed in SEEDS:
        g, _ = generate(ModelConfig(model="selfloop", n=n, m=28, xi=1.0,
                                    r=0.3, seed=seed))
        try:
            urt_stats(g)
        except ValueError:
            del g
            continue
        spanning += 1
        diams.append(diameter(g).diameter)
        del g
    ok = spanning >= 4 and all(d <= bound for d in diams)
    record_criterion(5, ok, f"flexible edges span a tree in {spanning}/5 "
                     f"runs; diameters {diams} <= {bound:.1f}")
    assert ok


def test_criterion_06_small_communities(community_scan):
    alpha_8 = 8.0 * r0_CONST / R0_CONST
    alpha_4 = 4.0 * r0_CONST / R0_CONST
    details = []
    ok = True
    for model, res in community_scan.items():
        conn_frac = float(res["connected"].mean())
        phi_frac = float((res["phis"] <= alpha_8).mean())
        med = float(np.median(res["phis"]))
        lo, hi = 0.5 * res["area_n"], 2.0 * res["area_n"]
        sizes_ok = bool((res["sizes"] >= lo).all() and (res["sizes"] <= hi).all())
        ok = ok and conn_frac >= 0.95 and phi_frac >= 0.95 and \
            med <= alpha_4 and sizes_ok
        details.append(f"{model}: conn {conn_frac:.2f}, "
                       f"phi<={alpha_8:.2f} for {phi_frac:.2f}, "
                       f"median {med:.3f} (<= {alpha_4:.2f}), sizes ok {sizes_ok}")
    record_criterion(6, ok, "; ".join(details))
    assert ok


def test_criterion_07_long_degree_bound(community_scan):
    ratios = community_scan["hybrid"]["long_ratios"]
    ok = bool((ratios <= 4.0).all())
    record_criterion(7, ok, f"long-degree mass / (A_R0 n) over 50 caps: "
                     f"max {ratios.max():.3f} (<= 4)")
    assert ok


def test_criterion_08_small_scale_expander(expander_report):
    rep = expander_report
    defined = rep.flags[0] == FLAG_OK
    phis = rep.conductance[0][defined]
    ok = bool((phis >= 0.05).all())
    record_criterion(8, ok, f"R=r/10: {int(defined.sum())}/50 centers with "
                     f"defined conductance, min phi {phis.min():.3f} (>= 0.05), "
                     f"{rep.n_degenerate(0)} degenerate")
    assert ok


def test_criterion_09_large_scale_community(expander_report):
    rep = expander_report
    med_large = float(rep.median_phi[1])
    med_small = float(rep.median_phi[0])
    ok = med_large <= 0.5 and med_large < med_small
    record_criterion(9, ok, f"median phi at R=n^-0.2: {med_large:.3f} "
                     f"(<= 0.5) vs {med_small:.3f} at R=r/10 (must order)")
    assert ok


def test_criterion_10_concentration(concentration_results):
    rep, mean_dev = concentration_results
    ok = (rep.t_r_clamped and rep.worst_z_mean_dev <= 0.10
          and rep.worst_t_mean_dev <= 0.15 and mean_dev <= 0.05)
    record_criterion(10, ok, f"probe-mean deviations at t>=t_r (clamped to "
                     f"{rep.t_r_effective}): occupancy {rep.worst_z_mean_dev:.4f} "
                     f"(<= 0.10), mass {rep.worst_t_mean_dev:.4f} (<= 0.15); "
                     f"100-run mass mean dev {mean_dev:.4f} (<= 0.05)")
    assert ok


def test_criterion_11_oracle_equivalence():
    rng = np.random.default_rng(909)
    models = ("base", "hybrid", "selfloop")
    mismatches = 0
    for trial in range(100):
        n = int(rng.integers(5, 201))
        g, _ = generate(ModelConfig(
            model=models[trial % 3], n=n, m=2, xi=1.0,
            r=float(rng.uniform(0.2, np.pi)), seed=trial))
        ids = np.arange(n)
        # vertex-set measures against brute force
        k = int(rng.integers(1, n))
        S = rng.choice(n, size=k, replace=False)
        if g.volume(S) != volume_scan(g, S):
            mismatches += 1
        if g.boundary_edge_count(S) != boundary_scan(g, S):
            mismatches += 1
        if g.induced_connected(S) != connected_scan(g, S):
            mismatches += 1
        vol_s = g.volume(S)
        vol_c = g.volume(np.setdiff1d(ids, S))
        if 0 < k < n and min(vol_s, vol_c) > 0:
            if g.conductance(S) != conductance_scan(g, S):
                mismatches += 1
        # geometric queries against a full scan
        center = sample_uniform(rng, 1)[0]
        R = float(rng.uniform(0.0, np.pi))
        got = g.cap_index.query_cap(center, R)
        want = cap_members_scan(g.positions, ids, center, R)
        if not np.array_equal(got, want):
            mismatches += 1
        v = int(rng.integers(0, n))
        got = r_neighborhood(g, v, R)
        want = cap_members_scan(g.positions, ids, g.positions[v], R)
        if not np.array_equal(got, want):
            mismatches += 1
        del g

    # attachment sampler against the degree-plus-delta weights
    draws = 10 ** 5
    worst_p = 1.0
    for i in range(10):
        cfg = ModelConfig(model="base", n=40 + i, m=2, xi=1.0, r=1.2,
                          seed=100 + i)
        g, _ = generate(cfg)
        srng = np.random.default_rng(50 + i)
        x = g.positions[int(srng.integers(0, g.n))]
        cand = g.cap_index.query_cap(x, 1.0)
        contacts = cand[_draw(g.degree()[cand] + cfg.delta, draws, srng)]
        members = cap_members_scan(g.positions, np.arange(g.n), x, 1.0)
        weights = g.degree(None, "total")[members] + cfg.delta
        expected = weights / weights.sum() * draws
        counts = np.bincount(contacts, minlength=g.n)[members]
        worst_p = min(worst_p, float(sps.chisquare(counts, expected).pvalue))
        del g

    ok = mismatches == 0 and worst_p > 0.001
    record_criterion(11, ok, f"oracle mismatches {mismatches}/100 instances; "
                     f"sampler chi-square min p {worst_p:.4f} over 10 graphs "
                     f"(> 0.001, {draws} draws each)")
    assert ok


def test_criterion_12_recursive_tree_stats(hybrid_large):
    ln = math.log(N_LARGE)
    dr = [s.diameter / ln for s in hybrid_large["tree_stats"]]
    mr = [s.max_degree / ln for s in hybrid_large["tree_stats"]]
    ok = (all(1.0 <= x <= 10.0 for x in dr)
          and all(0.5 <= x <= 5.0 for x in mr))
    record_criterion(12, ok, f"long-edge tree over 5 runs: diameter/ln n in "
                     f"[{min(dr):.2f}, {max(dr):.2f}] (need [1,10]), "
                     f"max degree/ln n in [{min(mr):.2f}, {max(mr):.2f}] "
                     f"(need [0.5,5])")
    assert ok
