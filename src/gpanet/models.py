"""Sequential construction of the three attachment models.

Each newborn, in birth order, draws m contacts with replacement among the
earlier vertices in its cap of radius r, with probability proportional to
(degree + delta), where "degree" is the model's plain/local/non-flexible
count.  An empty cap is an isolated birth: the newborn gets 2m plain
self-loops instead.  The hybrid model adds one long edge to a uniformly
random earlier vertex; the self-loop model gives each newborn delta flexible
self-loops and rewires one loop of the newborn plus one loop of a uniformly
chosen holder z into a flexible edge (degree-neutral for both).

All three grow in blocks of newborns.  One cap query fetches the candidates
of a whole block, and the block takes its random numbers in birth order:
each newborn's m uniforms (none after an isolated birth), then the number
for its long or flexible edge.  The contacts follow from the uniforms and
the weights.  A block of fewer than _LAYER_MIN newborns (wide caps) draws
each newborn's contacts as soon as its uniforms are taken.  Newborns that
share no candidate read and write disjoint weights, so a larger block
(narrow caps) keeps its uniforms and is then cut into layers: a newborn's
layer is one more than the highest layer of the earlier newborns of the
block that share a candidate with it, and each layer draws all its
contacts in one vectorised step.  Both give the contacts that per-newborn
draws in birth order give, byte for byte, since every pick goes through
_pick.  A block ends at each checkpoint, so the probes read the tallies
after exactly that many newborns.

The loop records only the draws: each newborn's m contacts and the far end
of its long or flexible edge.  The edge list is built from them after the
loop, grouped by newborn in birth order: each newborn's m contacts in draw
order (2m loops after an isolated birth), then its long or flexible edge.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import pairwise

import numpy as np
# numpy 2 imports numpy.random on the first np.random access, about 12 ms
# that would otherwise land inside the first generate call
import numpy.random  # noqa: F401

from .capindex import CapIndex, _spans
from .graph import MODEL_NAMES as MODELS
from .graph import EdgeKind, EvolvingGraph, _integer_ids, _write_csv
from .sphere import _check_radius, from_angles, sample_uniform, to_angles, unit_rows

# fixed probe placement stream, independent of the run seed so that traces
# from different runs are comparable
DEFAULT_PROBE_SEED = 1729


# target count of candidate rows per block of newborns, not a bound: a block
# is sized from the rows per newborn of the block before it, which grow with
# t, so it can fetch more (12773 rows for newborns 1750-3499 of hybrid
# n=7000, m=24, r=ln n/sqrt n, seed 1, checkpoints every n/4)
_BLOCK_ROWS = 1 << 13
# newborns per block from which a block draws layer by layer; with fewer
# (wide caps) the layering costs more than the per-newborn draws it saves
_LAYER_MIN = 64


def default_probes(k: int, seed: int = DEFAULT_PROBE_SEED) -> np.ndarray:
    k = int(_integer_ids(k, "probes"))
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
        for name in ("n", "m", "seed", "delta"):
            v = getattr(self, name)
            if v is not None:
                if not isinstance(v, int):   # a Python int may exceed int64
                    _integer_ids(v, name)    # a fraction raises; 1e4 passes
                set_(name, int(v))
        set_("xi", float(self.xi))
        set_("r", _check_radius(self.r))
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
            set_("probes", unit_rows(self.probes, "probes").copy())
        cps = tuple(_integer_ids(self.checkpoint_times, "checkpoint times").tolist())
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
            angles = np.asarray(d["probes"], dtype=np.float64)
            if angles.ndim != 2 or angles.shape[1] != 2:
                raise TypeError("probes must be a list of [colat, lon] pairs")
            probes = from_angles(angles[:, 0], angles[:, 1])
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


def _pick(cum: np.ndarray, u: np.ndarray, total, base=None) -> np.ndarray:
    """Positions in cum that the uniforms u pick: per u, the first j with
    cum[j] > base + floor(u * total).

    cum is a running sum of positive integer weights, and a segment of it
    starts after the sum base (0 if None) and holds weights that sum to
    total.  Each u then picks position j of the segment with probability
    w_j / total, the same j as a search for u * total in the segment's own
    running sum: every sum is an integer below 2**53, so the floor keeps it.
    """
    x = (u * total).astype(np.int64)   # u * total >= 0, so this floors
    if base is not None:
        x += base
    return cum.searchsorted(x, side="right")


def _draw(weights: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """m i.i.d. indices into weights, index i with probability w_i / sum(w)."""
    cum = weights.cumsum()
    return _pick(cum, rng.random(m), cum[-1])


def _layers(cands: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Layer of each newborn of a block whose candidates are cands[ptr[i]:ptr[i + 1]].

    0 if no earlier newborn of the block shares a candidate with it, else 1 +
    the largest layer among those that do.  Newborns of one layer therefore
    read and write disjoint weights, and each reads them after every earlier
    newborn that shares one.
    """
    k = ptr.size - 1
    vertex, owner = np.divmod(np.sort(cands * k + np.arange(k).repeat(np.diff(ptr))), k)
    # linking consecutive owners of each vertex is enough, since layers rise
    # along each chain; a pair linked through several vertices counts once
    i = np.flatnonzero(vertex[1:] == vertex[:-1])
    pair = np.sort(owner[i] * k + owner[i + 1])
    a, b = np.divmod(pair[np.flatnonzero(np.diff(pair, append=-1))], k)
    layer = np.zeros(k, dtype=np.int64)
    total = 0
    while True:
        np.maximum.at(layer, b, layer[a] + 1)
        # layers only rise, so an unchanged sum is the fixed point
        before, total = total, layer.sum()
        if total == before:
            return layer


def _draw_layered(cands, at, drawers, u, weight):
    """The contacts of the newborns drawers of a block, drawn layer by layer.

    cands[at[i]:at[i + 1]] are newborn i's candidates, row j of u holds the
    uniforms of newborn drawers[j], and every drawn contact is booked in
    weight.  The result has one row per drawer, as the per-newborn draws in
    birth order would give: newborns of one layer share no candidate, and
    every earlier newborn that shares one with a later one lies in an
    earlier layer.
    """
    layer = _layers(cands, at)[drawers]
    order = np.argsort(layer, kind="stable")
    first, end = at[drawers[order]], at[drawers[order] + 1]
    u = u[order]
    # the drawers' candidates in layer order: the j-th drawer in that order
    # has rows[seg[j]:seg[j + 1]]
    seg = np.concatenate([[0], (end - first).cumsum()])
    rows = cands[_spans(first, end)]
    drawn = np.empty(u.shape, dtype=np.int64)
    for a, b in pairwise([0, *np.bincount(layer).cumsum().tolist()]):
        lrows = rows[seg[a]:seg[b]]
        # one running sum over the layer, one segment per drawer
        cum = np.concatenate([[0], weight.take(lrows).cumsum()])
        edge = cum[seg[a:b + 1] - seg[a]]
        got = drawn[a:b] = lrows[_pick(cum[1:], u[a:b], np.diff(edge)[:, None], edge[:-1, None])]
        np.add.at(weight, got, 1)
    out = np.empty_like(drawn)
    out[order] = drawn
    return out


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
    lo = 0
    block = 1

    # the draws: m contacts per newborn (t itself after an isolated birth) and
    # the far end of the long or flexible edge of each newborn t >= 1
    contacts = np.empty((n, m), dtype=np.int64)
    partner = np.zeros(n, dtype=np.int64)
    # the attachment weight plain + delta, kept as the running tally; a
    # newborn's own m contacts count from the start, since its weight is read
    # only by later newborns
    weight = np.full(n, delta + m, dtype=np.int64)
    floops = np.zeros(n, dtype=np.int64)
    isolated = np.zeros(n, dtype=bool)

    # flexible-loop holders, uniform over vertices holding >= 1 loop
    holders = np.empty(n, dtype=np.int64)
    hcount = 0

    probes = cfg.probes
    k_probes = probes.shape[0]
    times = np.array(cfg.checkpoint_times, dtype=np.int64)
    cuts = [*cfg.checkpoint_times, n]
    cp = 0
    occ = np.zeros((times.size, k_probes), dtype=np.int64)
    mass = np.zeros((times.size, k_probes), dtype=np.int64)

    while lo < n:
        # a block ends at each checkpoint, so the probes read the tallies
        # after exactly that many newborns
        hi = min(lo + block, cuts[cp])
        cands, at = caps.members(pos[lo:hi], r, np.arange(lo, hi))
        # at most _BLOCK_ROWS newborns, which bounds the block's uniforms
        block = min(2 * block, _BLOCK_ROWS,
                    max(1, _BLOCK_ROWS * (hi - lo) // max(cands.size, 1)))
        iso = isolated[lo:hi] = at[1:] == at[:-1]
        # an isolated birth's m loops more, booked before the block's draws
        weight[lo:hi] += m * iso

        # the random stream in birth order: each newborn's uniforms (none
        # after an isolated birth), then the draw for its long or flexible
        # edge.  A layered block keeps the uniforms for its layers, row i for
        # newborn lo + i; a smaller one draws each newborn's contacts at once.
        layered = hi - lo >= _LAYER_MIN
        if layered:
            u = np.empty((hi - lo, m))
        else:
            at = at.tolist()
        for i, lone in enumerate(iso.tolist()):
            t = lo + i
            if layered and not lone:
                rng.random(m, out=u[i])
            elif not lone:
                cand = cands[at[i]:at[i + 1]]
                drawn = contacts[t] = cand[_draw(weight.take(cand), m, rng)]
                np.add.at(weight, drawn, 1)
            if model == "hybrid" and t > 0:
                partner[t] = rng.integers(0, t)
            elif model == "selfloop":
                floops[t] = delta
                if t > 0:
                    if hcount <= 0:
                        raise AssertionError("flexible-loop holder set empty at rewiring time")
                    j = int(rng.integers(0, hcount))
                    z = partner[t] = holders[j]
                    # one loop of z and one of the newborn become a flexible
                    # edge; both degrees are unchanged
                    floops[z] -= 1
                    if floops[z] == 0:
                        hcount -= 1
                        holders[j] = holders[hcount]
                    floops[t] -= 1
                # delta >= 2, so the newborn still holds a loop
                holders[hcount] = t
                hcount += 1
        if layered:
            drawers = np.flatnonzero(~iso)
            contacts[lo + drawers] = _draw_layered(cands, at, drawers, u[drawers], weight)
        lo = hi

        if cp < times.size and hi == cuts[cp]:
            if k_probes:
                members, mptr = caps.members(probes, r, hi)
                occ[cp] = np.diff(mptr)
                held = np.concatenate([[0], weight[members].cumsum()])
                mass[cp] = held[mptr[1:]] - held[mptr[:-1]]
            cp += 1

    plain = weight - delta
    # the edge list, in the order of the module docstring; an isolated birth's
    # contact row of t, taken twice, is its 2m loops
    contacts[isolated] = np.flatnonzero(isolated)[:, None]
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
