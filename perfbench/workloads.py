"""The benchmark workloads: what each one runs and how its outputs are checked.

Each workload is a body, timed from its first library call to its last, and
a check that runs afterwards, untimed.  The check returns, per operation
(one generate, one analysis or one artifact write), the problems it found,
plus a SHA-256 digest of every output, tagged with the operation that
produced it.  The runner compares digests across the iterations of a run and
against perfbench/reference.json, and a mismatch fails that operation.

Sizes are scaled from the acceptance shapes so that one iteration takes a
few seconds on a 2-core machine; m, r and the call mix are the acceptance
ones.  The --smoke sizes only prove that the code paths run.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gpanet import harness, metrics, models
from gpanet.graph import EdgeKind

K_MIN = 10                  # the acceptance degree-law threshold
COMMUNITY_CENTRES = 50
EXPANDER_CENTRES = 100
# same closed-ball slack as gpanet.capindex.DOT_TOL
DOT_TOL = 1e-12


@dataclass
class Context:
    seed: int
    out: Path
    smoke: bool = False


@dataclass
class Outcome:
    wall_s: float
    peak_rss_mb: float
    problems: dict[str, list[str]] = field(default_factory=dict)   # op -> problems
    digests: dict[str, list[str]] = field(default_factory=dict)    # name -> [op, sha256]
    counts: dict[str, int] = field(default_factory=dict)

    def op(self, name: str, problems=()) -> None:
        self.problems.setdefault(name, []).extend(problems)

    def digest(self, name: str, op: str, data: bytes) -> None:
        self.digests[name] = [op, hashlib.sha256(data).hexdigest()]


def array_bytes(*arrays: np.ndarray) -> bytes:
    """dtype, shape and contents, so equal bytes mean equal arrays."""
    parts = []
    for a in arrays:
        a = np.ascontiguousarray(a)
        parts.append(f"{a.dtype.str}{a.shape}".encode())
        parts.append(a.tobytes())
    return b"".join(parts)


def json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(body):
    """Run body(); return its state, wall seconds and the peak RSS so far."""
    t0 = time.perf_counter()
    state = body()
    wall = time.perf_counter() - t0
    return state, wall, peak_rss_mb()


# ---------------------------------------------------------------------------
# generator invariants, shared by the checks


def growth_problems(g, cfg) -> list[str]:
    """Rules every generated graph obeys, checked from its edge arrays."""
    n, m, r = cfg.n, cfg.m, cfg.r
    src, dst, kind = g.edge_src, g.edge_dst, g.edge_kind
    out = []
    loops = src == dst
    plain = kind == EdgeKind.PLAIN
    contact = plain & ~loops
    if (dst[contact] >= src[contact]).any():
        out.append("a contact points to a vertex born later")
    cosd = np.einsum("ij,ij->i", g.positions[src[contact]], g.positions[dst[contact]])
    if (cosd < math.cos(r) - DOT_TOL).any():
        out.append("a contact lies outside the newborn's cap")
    drawn = np.bincount(src[contact], minlength=n)
    looped = np.bincount(src[plain & loops], minlength=n)
    iso = g.isolated_birth
    if not np.array_equal(iso, looped > 0):
        out.append("isolated-birth flags disagree with plain self-loops")
    if (drawn[~iso] != m).any() or (looped[iso] != 2 * m).any() or drawn[iso].any():
        out.append("a newborn did not get exactly m contacts or 2m loops")
    tree_kind = {"hybrid": EdgeKind.LONG, "selfloop": EdgeKind.FLEXIBLE}.get(cfg.model)
    for k in (EdgeKind.LONG, EdgeKind.FLEXIBLE):
        sel = kind == k
        if k != tree_kind:
            if sel.any():
                out.append(f"unexpected {k.name} edges")
            continue
        if not np.array_equal(np.sort(src[sel]), np.arange(1, n)):
            out.append(f"not one {k.name} edge per newborn t >= 1")
        if (dst[sel] >= src[sel]).any():
            out.append(f"a {k.name} edge points to a vertex born later")
    return out


def cap_sizes(g, centres, R: float) -> np.ndarray:
    """Brute-force member counts of the caps C_R(v), the oracle for CapIndex."""
    c = math.cos(min(R, math.pi)) - DOT_TOL
    return np.array([int(np.count_nonzero(g.positions @ g.positions[v] >= c))
                     for v in centres], dtype=np.int64)


# ---------------------------------------------------------------------------
# narrow-write-scan: hybrid at r0 with m=24, CSV writes, community scan


def narrow_write_scan(ctx: Context) -> Outcome:
    n = 1500 if ctx.smoke else 7_000
    r0 = math.log(n) / math.sqrt(n)
    R0 = math.log(n) ** 2 / math.sqrt(n)
    out_dir = ctx.out
    paths = {name: out_dir / name for name in ("edges.csv", "vertices.csv", "trace.csv")}
    rng = np.random.default_rng(np.random.SeedSequence([ctx.seed, 606]))
    community_centres = np.sort(rng.choice(n, size=COMMUNITY_CENTRES, replace=False))
    expander_centres = np.sort(rng.choice(n, size=EXPANDER_CENTRES, replace=False))
    alpha = 8.0 * r0 / R0   # criterion 6's conductance threshold

    def body():
        cfg = models.ModelConfig(
            model="hybrid", n=n, m=24, xi=1.0, r=r0, seed=ctx.seed,
            probes=models.default_probes(10),
            checkpoint_times=(n // 4, n // 2, 3 * n // 4, n))
        g, trace = models.generate(cfg)
        out_dir.mkdir(parents=True, exist_ok=True)
        g.write_edges_csv(paths["edges.csv"])
        g.write_vertices_csv(paths["vertices.csv"])
        trace.write_csv(paths["trace.csv"])
        reports = [metrics.community_check(g, int(v), R0, alpha, 0.0, float(n))
                   for v in community_centres]
        scan = metrics.expander_scan(g, expander_centres, [r0, 2.0 * r0])
        return cfg, g, trace, reports, scan

    (cfg, g, trace, reports, scan), wall, rss = timed(body)
    out = Outcome(wall, rss)
    out.op("generate", growth_problems(g, cfg))
    out.digest("graph.edges", "generate", array_bytes(g.edge_src, g.edge_dst, g.edge_kind))

    # each CSV is parsed back and compared with the arrays it was written from
    e = np.loadtxt(paths["edges.csv"], delimiter=",", skiprows=1, dtype=str, ndmin=2)
    names = np.array(["plain", "long", "flexible"])
    ok = (e.shape == (g.num_edges, 3)
          and np.array_equal(e[:, 0].astype(np.int64), g.edge_src)
          and np.array_equal(e[:, 1].astype(np.int64), g.edge_dst)
          and np.array_equal(e[:, 2], names[g.edge_kind]))
    out.op("write:edges.csv", [] if ok else ["edges.csv does not match the edge arrays"])
    v = np.loadtxt(paths["vertices.csv"], delimiter=",", skiprows=1, ndmin=2)
    colat, lon = v[:, 1], v[:, 2]
    back = np.stack([np.sin(colat) * np.cos(lon), np.sin(colat) * np.sin(lon),
                     np.cos(colat)], axis=1)
    ok = (v.shape == (n, 4) and np.array_equal(v[:, 0], np.arange(n))
          and np.array_equal(v[:, 3], np.arange(1, n + 1))
          and np.abs(back - g.positions).max() < 1e-12)
    out.op("write:vertices.csv", [] if ok else ["vertices.csv does not match the positions"])
    t = np.loadtxt(paths["trace.csv"], delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    k = cfg.probes.shape[0]
    ok = (t.shape == (trace.times.size * k, 4)
          and np.array_equal(t[:, 1], np.repeat(trace.times, k))
          and np.array_equal(t[:, 2], trace.occupancy.ravel())
          and np.array_equal(t[:, 3], trace.attach_mass.ravel()))
    out.op("write:trace.csv", [] if ok else ["trace.csv does not match the trace arrays"])
    for name, path in paths.items():
        out.digest(name, f"write:{name}", path.read_bytes())

    payload = [r.to_json_dict() for r in reports]
    problems = []
    if [r["size"] for r in payload] != cap_sizes(g, community_centres, R0).tolist():
        problems.append("community sizes differ from the brute-force cap count")
    if not all(0.0 <= r["conductance"] <= 1.0 for r in payload):
        problems.append("community conductance outside [0, 1]")
    out.op("communities", problems)
    out.digest("communities", "communities", json_bytes(payload))

    problems = []
    for ri, R in enumerate(scan.radii):
        if not np.array_equal(scan.sizes[ri], cap_sizes(g, expander_centres, R)):
            problems.append(f"expander sizes at R={R} differ from the brute-force cap count")
    out.op("expander", problems)
    out.digest("expander", "expander", json_bytes(scan.to_json_dict()))
    return out


# ---------------------------------------------------------------------------
# experiment-diameter: run_experiment with degrees, exact diameter and tree


def experiment_diameter(ctx: Context) -> Outcome:
    # the full size is above metrics._BFS_ALL_MAX_N, so diameter tries the
    # prune path (and bails out to bfs-all) as it does at acceptance scale
    n = 3000 if ctx.smoke else 10_500
    seed = ctx.seed
    expected = sorted([f"degrees_seed{seed}.csv", f"degrees_seed{seed}.json",
                       f"diameter_seed{seed}.json", f"tree_seed{seed}.json",
                       "degrees_summary.json"])

    def body():
        spec = harness.ExperimentSpec(
            config=models.ModelConfig(model="hybrid", n=n, m=2, xi=1.0, r=0.3, seed=seed),
            seeds=(seed,), analyses=("degrees", "diameter", "tree"), out_dir=str(ctx.out),
            options={"degrees": {"kind": "local", "k_min": K_MIN},
                     "diameter": {"mode": "exact"}})
        return harness.run_experiment(spec)

    index, wall, rss = timed(body)
    out = Outcome(wall, rss)
    for op in ("generate", "degrees", "diameter", "tree"):
        out.op(op, [e["error"] for e in index["errors"] if e["analysis"] == op])
    if index["artifacts"] != expected:
        out.op("generate", [f"artifact list {index['artifacts']} != {expected}"])

    files = sorted(p.name for p in ctx.out.iterdir())
    for name in files:
        op = f"write:{name}"
        out.op(op)
        out.digest(name, op, (ctx.out / name).read_bytes())
    out.counts["artifacts"] = len(files)
    out.counts["artifact_bytes"] = sum((ctx.out / f).stat().st_size for f in files)
    if "index.json" not in files or any(f not in files for f in expected):
        out.op("generate", ["an artifact named in index.json is missing"])
        return out

    def load(name):
        return json.loads((ctx.out / name).read_text())

    hist = np.loadtxt(ctx.out / f"degrees_seed{seed}.csv", delimiter=",",
                      skiprows=1, dtype=np.int64, ndmin=2)
    deg = load(f"degrees_seed{seed}.json")
    if hist[:, 1].sum() != n or hist[:, 0].max() != deg["max_degree"]:
        out.op("degrees", ["degree histogram does not sum to n or disagrees with max_degree"])
    diam, tree = load(f"diameter_seed{seed}.json"), load(f"tree_seed{seed}.json")
    # the long edges span the graph, so its diameter is at most the tree's
    if not (diam["connected"] and 1 <= diam["diameter"] <= tree["diameter"]):
        out.op("diameter", [f"diameter {diam['diameter']} outside [1, tree diameter]"])
    return out


WORKLOADS = {
    "narrow-write-scan": narrow_write_scan,
    "experiment-diameter": experiment_diameter,
}
