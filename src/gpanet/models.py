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

The loop records only the draws: each newborn's m contacts and the far end
of its long or flexible edge.  The edge list is built from them after the
loop, grouped by newborn in birth order: each newborn's m contacts in draw
order (2m loops after an isolated birth), then its long or flexible edge.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .capindex import CapIndex
from .graph import MODEL_NAMES as MODELS
from .graph import EdgeKind, EvolvingGraph, _write_csv
from .sphere import SpherePoint, _check_radius, sample_uniform, to_angles, unit_rows

# fixed probe placement stream, independent of the run seed so that traces
# from different runs are comparable
DEFAULT_PROBE_SEED = 1729


# candidate rows fetched per block of newborns; the block adapts to this
_BLOCK_ROWS = 1 << 13


def default_probes(k: int, seed: int = DEFAULT_PROBE_SEED) -> np.ndarray:
    k = int(k)
    if k < 0:
        raise ValueError(f"probes must be >= 0, got {k}")
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    return sample_uniform(rng, k).reshape(k, 3)


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
            set_("probes", unit_rows(pts, "probes").copy())
        cps = tuple(int(t) for t in self.checkpoint_times)
        if any(t < 1 or t > self.n for t in cps):
            raise ValueError("checkpoint times must lie in [1, n]")
        set_("checkpoint_times", tuple(sorted(set(cps))))

    def to_json_dict(self) -> dict:
        return {
            "model": self.model, "n": self.n, "m": self.m, "xi": self.xi,
            "r": self.r, "seed": self.seed, "delta": self.delta,
            "probes": np.stack(to_angles(self.probes), axis=1).tolist(),
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
        k = self.probe_points.shape[0]
        with open(path, "w") as f:
            _write_csv(f, "probe_index,t,occupancy,attach_mass", "%d,%d,%d,%d",
                       np.tile(np.arange(k), self.times.size), np.repeat(self.times, k),
                       self.occupancy.ravel(), self.attach_mass.ravel())


def _draw(weights: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """m i.i.d. indices into weights, index i with probability w_i / sum(w)."""
    cum = weights.cumsum()
    return cum.searchsorted(rng.random(m) * cum[-1], side="right")


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
    # positions are fixed before any edges exist, so every newborn's candidate
    # set is too: the cap structure is built once, and the candidates of a
    # block of newborns are fetched in one query that filters by birth order
    caps = CapIndex(pos, _auto_cell(r, n))
    lo = hi = 0
    block = 1

    # the draws: m contacts per newborn (t itself after an isolated birth) and
    # the far end of the long or flexible edge of each newborn t >= 1
    contacts = np.empty((n, m), dtype=np.int64)
    partner = np.zeros(n, dtype=np.int64)
    # the attachment weight plain + delta, kept as the running tally
    weight = np.full(n, delta, dtype=np.int64)
    floops = np.zeros(n, dtype=np.int64)
    isolated = np.zeros(n, dtype=bool)

    # flexible-loop holders, uniform over vertices holding >= 1 loop
    holders = np.empty(n, dtype=np.int64)
    hcount = 0

    probes = cfg.probes
    k_probes = probes.shape[0]
    times = np.array(cfg.checkpoint_times, dtype=np.int64)
    occ = np.zeros((times.size, k_probes), dtype=np.int64)
    mass = np.zeros((times.size, k_probes), dtype=np.int64)
    cp_row = {int(t): i for i, t in enumerate(times)}

    for t in range(n):
        if t == hi:
            lo, hi = t, min(n, t + block)
            cands, at = caps.members(pos[lo:hi], r, np.arange(lo, hi))
            block = min(2 * block, max(1, _BLOCK_ROWS * (hi - lo) // max(cands.size, 1)))
            at = at.tolist()
        cand = cands[at[t - lo]:at[t - lo + 1]]
        if cand.size == 0:
            contacts[t] = t
            weight[t] += 2 * m
            isolated[t] = True
        else:
            drawn = contacts[t] = cand[_draw(weight.take(cand), m, rng)]
            np.add.at(weight, drawn, 1)
            weight[t] += m

        if model == "hybrid" and t > 0:
            partner[t] = rng.integers(0, t)

        if model == "selfloop":
            floops[t] = delta
            if t > 0:
                if hcount <= 0:
                    raise AssertionError("flexible-loop holder set empty at rewiring time")
                j = int(rng.integers(0, hcount))
                z = partner[t] = holders[j]
                # one loop of z and one of the newborn become a flexible edge;
                # both degrees are unchanged
                floops[z] -= 1
                if floops[z] == 0:
                    hcount -= 1
                    holders[j] = holders[hcount]
                floops[t] -= 1
            # delta >= 2, so the newborn still holds a loop
            holders[hcount] = t
            hcount += 1

        row = cp_row.get(t + 1)
        if row is not None and k_probes:
            members, mptr = caps.members(probes, r, t + 1)
            occ[row] = np.diff(mptr)
            held = np.concatenate([[0], weight[members].cumsum()])
            mass[row] = held[mptr[1:]] - held[mptr[:-1]]

    plain = weight - delta
    # the edge list, in the order of the module docstring; an isolated birth's
    # contact row of t, taken twice, is its 2m loops
    per = m + m * isolated
    dst = contacts.repeat(1 + isolated, axis=0).ravel()
    del contacts   # the graph's degree recount below is the memory peak
    src = np.arange(n).repeat(per)
    kind = np.full(dst.size, EdgeKind.PLAIN, dtype=np.int8)
    extra = np.zeros(n, dtype=np.int64)
    if model != "base":
        ends = per.cumsum()[1:]
        src = np.insert(src, ends, np.arange(1, n))
        dst = np.insert(dst, ends, partner[1:])
        kind = np.insert(kind, ends, EdgeKind.LONG if model == "hybrid" else EdgeKind.FLEXIBLE)
        extra[1:] += 1
        extra += np.bincount(partner[1:], minlength=n)

    g = EvolvingGraph(model, pos, src, dst, kind,
                      flexible_loops=floops, isolated_birth=isolated, config=cfg)
    # query_cap sorts, so the graph can answer with this grid's cell
    g._cap_index = caps
    # the container recounts degrees from the edge list; the running tallies
    # must agree exactly
    if not (np.array_equal(plain, g.plain_degree)
            and np.array_equal(extra, g.long_degree + g.flexible_edge_degree)):
        raise AssertionError("degree tallies disagree with edge-list recount")

    # closed-ball membership, as for the cap index and the occupancy
    members, mptr = caps.members(probes, r)
    iso_in_cap = np.zeros(k_probes, dtype=bool)
    iso_in_cap[np.arange(k_probes).repeat(np.diff(mptr))[isolated[members]]] = True
    trace = GenerationTrace(probe_points=probes, times=times, occupancy=occ,
                            attach_mass=mass, isolated_in_cap=iso_in_cap)
    return g, trace
