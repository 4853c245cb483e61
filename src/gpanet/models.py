"""Sequential construction of the three attachment models.

All three share one loop: sample the newborn's position, query the cap of
radius r around it, and draw m contacts with replacement among cap members
with probability proportional to (degree + delta), where "degree" is the
model's plain/local/non-flexible count.  An empty cap is an isolated birth:
the newborn gets 2m plain self-loops instead.  The hybrid model adds one long
edge to a uniformly random earlier vertex; the self-loop model gives each
newborn delta flexible self-loops and rewires one loop of the newborn plus
one loop of a uniformly chosen holder z into a flexible edge (degree-neutral
for both).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .capindex import CapIndex, _StaticCapQuery
from .graph import MODEL_NAMES as MODELS
from .graph import EdgeKind, EvolvingGraph
from .sphere import SpherePoint, _check_radius, as_unit_vectors, sample_uniform

# fixed probe placement stream, independent of the run seed so that traces
# from different runs are comparable
DEFAULT_PROBE_SEED = 1729


def default_probes(k: int, seed: int = DEFAULT_PROBE_SEED) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    pts = sample_uniform(rng, int(k))
    return pts.reshape(int(k), 3)


def _canon_model(model: str) -> str:
    token = str(model).strip().lower().replace("-", "").replace("_", "")
    if token in ("selfloop", "selfloops"):
        return "selfloop"
    if token in MODELS:
        return token
    raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")


@dataclass(frozen=True, eq=False)
class ModelConfig:
    """Generation parameters.  delta defaults to round(xi * m)."""

    model: str
    n: int
    m: int
    xi: float
    r: float
    seed: int
    delta: int | None = None
    probes: np.ndarray | None = None
    checkpoint_times: tuple[int, ...] = ()

    def __post_init__(self):
        set_ = lambda k, v: object.__setattr__(self, k, v)
        set_("model", _canon_model(self.model))
        set_("n", int(self.n))
        set_("m", int(self.m))
        set_("xi", float(self.xi))
        set_("r", _check_radius(self.r))
        set_("seed", int(self.seed))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not np.isfinite(self.xi) or self.xi <= 0.0:
            raise ValueError("xi must be a positive finite float")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.delta is None:
            set_("delta", int(round(self.xi * self.m)))
        else:
            set_("delta", int(self.delta))
        if abs(self.delta - self.xi * self.m) >= 1.0:
            raise ValueError(f"delta={self.delta} does not realize xi*m={self.xi * self.m} "
                             "within integer rounding")
        if abs(self.xi * self.m - round(self.xi * self.m)) > 1e-9:
            warnings.warn(f"xi*m = {self.xi * self.m} is not integral; using delta={self.delta}",
                          stacklevel=2)
        if self.delta < 1:
            raise ValueError("delta must be >= 1")
        if self.model == "selfloop" and self.delta < 2:
            raise ValueError("self-loop model needs delta >= 2")
        if self.probes is None:
            set_("probes", np.empty((0, 3), dtype=np.float64))
        else:
            pts = self.probes
            if isinstance(pts, (list, tuple)) and pts and isinstance(pts[0], SpherePoint):
                pts = np.stack([p.vec for p in pts])
            pts = np.atleast_2d(as_unit_vectors(pts)).astype(np.float64)
            norms = np.einsum("ij,ij->i", pts, pts)
            if np.any(np.abs(norms - 1.0) > 1e-9):
                raise ValueError("probes must be unit vectors")
            set_("probes", pts)
        cps = tuple(int(t) for t in self.checkpoint_times)
        if any(t < 1 or t > self.n for t in cps):
            raise ValueError("checkpoint times must lie in [1, n]")
        set_("checkpoint_times", tuple(sorted(set(cps))))

    def to_json_dict(self) -> dict:
        z = np.clip(self.probes[:, 2], -1.0, 1.0)
        colat = np.arccos(z)
        lon = np.arctan2(self.probes[:, 1], self.probes[:, 0]) % (2.0 * np.pi)
        return {
            "model": self.model, "n": self.n, "m": self.m, "xi": self.xi,
            "r": self.r, "seed": self.seed, "delta": self.delta,
            "probes": [[float(a), float(b)] for a, b in zip(colat, lon)],
            "checkpoint_times": list(self.checkpoint_times),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ModelConfig":
        probes = None
        if d.get("probes"):
            probes = np.stack([SpherePoint.from_angles(a, b).vec for a, b in d["probes"]])
        return cls(
            model=d["model"], n=d["n"], m=d["m"], xi=d["xi"], r=d["r"],
            seed=d["seed"], delta=d.get("delta"), probes=probes,
            checkpoint_times=tuple(d.get("checkpoint_times", ())),
        )


@dataclass
class GenerationTrace:
    """Occupancy Z_t(u) and attachment mass T_t(u) at the checkpoints.

    attach_mass uses the generating model's contact degree kind, so it is the
    exact normalizer a newborn at u would have seen at each checkpoint.
    """

    probe_points: np.ndarray
    times: np.ndarray
    occupancy: np.ndarray        # shape (len(times), n_probes)
    attach_mass: np.ndarray      # shape (len(times), n_probes)
    isolated_in_cap: np.ndarray = field(default=None)  # per probe: any isolated birth within r

    def write_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("probe_index,t,occupancy,attach_mass\n")
            for ti, t in enumerate(self.times):
                for p in range(self.probe_points.shape[0]):
                    f.write(f"{p},{t},{self.occupancy[ti, p]},{self.attach_mass[ti, p]}\n")


def pa_sample_contacts(g: EvolvingGraph, idx: CapIndex, x, m: int, delta: int,
                       kind: str, rng: np.random.Generator, r: float | None = None):
    """Draw m contacts near x, i.i.d. with replacement, weighted by degree + delta.

    The candidate set is every indexed vertex within the cap of radius r
    around x (r defaults to the graph config's radius).  Raises on an empty
    candidate set; the isolated-birth fallback is the caller's business.
    """
    if r is None:
        if g.config is None:
            raise ValueError("no radius: pass r or attach a config to the graph")
        r = g.config.r
    cand = idx.query_cap(x, r)
    if cand.size == 0:
        raise ValueError("empty candidate set: no vertex within r of x")
    return cand[_draw(g.degree(None, kind)[cand] + int(delta), int(m), rng)]


def _draw(weights: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """m i.i.d. indices into weights, index i with probability w_i / sum(w)."""
    cum = np.cumsum(weights, dtype=np.int64)
    return np.searchsorted(cum, rng.random(m) * cum[-1], side="right")


def _auto_cell(r: float, n: int) -> float:
    # cells of ~r are ideal for small caps; for large r cap the per-cell
    # population instead so queries do not overfetch
    return max(min(r if r > 0 else 0.01, 20.0 / np.sqrt(max(n, 16))), 0.008)


def generate(cfg: ModelConfig) -> tuple[EvolvingGraph, GenerationTrace]:
    """Grow the model named by cfg.model; return the graph and its trace."""
    n, m, delta, r = cfg.n, cfg.m, cfg.delta, cfg.r
    model = cfg.model
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    pos = sample_uniform(rng, n).reshape(n, 3)
    # positions are fixed before any edges exist, so the cap structure can be
    # built once; queries filter by birth order
    caps = _StaticCapQuery(pos, _auto_cell(r, n))

    cap_edges = 2 * m * n + n
    src = np.empty(cap_edges, dtype=np.int64)
    dst = np.empty(cap_edges, dtype=np.int64)
    kind = np.empty(cap_edges, dtype=np.int8)
    ne = 0

    plain = np.zeros(n, dtype=np.int64)
    long_deg = np.zeros(n, dtype=np.int64)
    flex_edge = np.zeros(n, dtype=np.int64)
    floops = np.zeros(n, dtype=np.int64)
    isolated = np.zeros(n, dtype=bool)

    # flexible-loop holders, uniform over vertices holding >= 1 loop
    holders = np.empty(n, dtype=np.int64)
    hpos = np.full(n, -1, dtype=np.int64)
    hcount = 0

    probes = cfg.probes
    k_probes = probes.shape[0]
    cp_set = set(cfg.checkpoint_times)
    times = np.array(sorted(cp_set), dtype=np.int64)
    occ = np.zeros((times.size, k_probes), dtype=np.int64)
    mass = np.zeros((times.size, k_probes), dtype=np.int64)
    iso_in_cap = np.zeros(k_probes, dtype=bool)
    cp_row = {int(t): i for i, t in enumerate(times)}
    cos_r = np.cos(r)

    for t in range(n):
        p = pos[t]
        cand = caps.query(p, r, t) if t > 0 else np.empty(0, dtype=np.int64)
        if cand.size == 0:
            src[ne:ne + 2 * m] = t
            dst[ne:ne + 2 * m] = t
            kind[ne:ne + 2 * m] = EdgeKind.PLAIN
            ne += 2 * m
            plain[t] += 2 * m
            isolated[t] = True
            if k_probes:
                iso_in_cap |= probes @ p >= cos_r
            inc = 2 * m
        else:
            contacts = cand[_draw(plain[cand] + delta, m, rng)]
            src[ne:ne + m] = t
            dst[ne:ne + m] = contacts
            kind[ne:ne + m] = EdgeKind.PLAIN
            ne += m
            np.add.at(plain, contacts, 1)
            plain[t] += m
            inc = 2 * m

        if model == "hybrid" and t > 0:
            z = int(rng.integers(0, t))
            src[ne] = t
            dst[ne] = z
            kind[ne] = EdgeKind.LONG
            ne += 1
            long_deg[t] += 1
            long_deg[z] += 1
            inc += 2

        if model == "selfloop":
            floops[t] = delta
            if t > 0:
                if hcount <= 0:
                    raise AssertionError("flexible-loop holder set empty at rewiring time")
                j = int(rng.integers(0, hcount))
                z = int(holders[j])
                # one loop of z and one of the newborn become a flexible edge;
                # both degrees are unchanged
                floops[z] -= 1
                if floops[z] == 0:
                    last = holders[hcount - 1]
                    holders[j] = last
                    hpos[last] = j
                    hpos[z] = -1
                    hcount -= 1
                floops[t] -= 1
                src[ne] = t
                dst[ne] = z
                kind[ne] = EdgeKind.FLEXIBLE
                ne += 1
                flex_edge[t] += 1
                flex_edge[z] += 1
            inc += delta
            if floops[t] > 0:
                holders[hcount] = t
                hpos[t] = hcount
                hcount += 1

        expect = 2 * m
        if model == "hybrid" and t > 0:
            expect += 2
        elif model == "selfloop":
            expect += delta
        assert inc == expect, f"step {t}: degree increment {inc} != {expect}"

        row = cp_row.get(t + 1)
        if row is not None and k_probes:
            for pi in range(k_probes):
                members = caps.query(probes[pi], r, t + 1)
                occ[row, pi] = members.size
                mass[row, pi] = plain[members].sum() + delta * members.size

    g = EvolvingGraph(model, pos, src[:ne], dst[:ne], kind[:ne],
                      flexible_loops=floops, isolated_birth=isolated, config=cfg)
    # the container recounts degrees from the edge list; the running tallies
    # must agree exactly
    if not (np.array_equal(plain, g.plain_degree)
            and np.array_equal(long_deg, g.long_degree)
            and np.array_equal(flex_edge, g.flexible_edge_degree)):
        raise AssertionError("degree tallies disagree with edge-list recount")

    trace = GenerationTrace(probe_points=probes, times=times, occupancy=occ,
                            attach_mass=mass, isolated_in_cap=iso_in_cap)
    return g, trace
