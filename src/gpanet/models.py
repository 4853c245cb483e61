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
of a whole block.  The random numbers are those of the Generator calls in
birth order: each newborn's rng.random(m) (none after an isolated birth),
then rng.integers(0, b) for the far end of its long or flexible edge.
_Stream takes a block's share of that stream with one raw-word draw and
derives from the words what the calls would return, finding an integer
call's 32-bit half by counting the halves taken before it (see _Stream),
so the graphs stay those of per-call draws.  The hybrid model's bounds are
known in advance (b = t) and its far ends are derived in one step; the
self-loop model's bound is the data-dependent holder count, so its holder
loop runs newborn by newborn over the block's precomputed numbers.  The
contacts follow from the uniforms and the weights.  A block of fewer than
_LAYER_MIN newborns (wide caps) draws its newborns' contacts one after
another.  Newborns that share no candidate read and write disjoint weights,
so a larger block (narrow caps) is cut into layers: a newborn's layer is one
more than the highest layer of the earlier newborns of the block that share
a candidate with it, and each layer draws all its contacts in one vectorised
step.  Both give the contacts that per-newborn draws in birth order give,
byte for byte, since every pick goes through _pick.

The loop records only the draws: each newborn's m contacts and the far end
of its long or flexible edge.  The edge list is built from them after the
loop, grouped by newborn in birth order: each newborn's m contacts in draw
order (2m loops after an isolated birth), then its long or flexible edge.
The probe trace is read from the finished graph (_trace).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from itertools import pairwise

import numpy as np
# numpy 2 imports numpy.random on the first np.random access, about 12 ms
# that would otherwise land inside the first generate call
import numpy.random  # noqa: F401

from .capindex import CapIndex, _spans
from .graph import MODEL_NAMES as MODELS
from .graph import (EdgeKind, EvolvingGraph, _integer, _integer_ids, _kind_degrees,
                    _write_csv)
from .sphere import _check_radius, from_angles, sample_uniform, to_angles, unit_rows

# fixed probe placement stream, independent of the run seed so that traces
# from different runs are comparable
DEFAULT_PROBE_SEED = 1729


# target count of candidate rows per block of newborns, not a bound: rows
# per newborn grow with t, so a block sized from the rate at its start can
# fetch more (10755 rows for hybrid n=7000, m=24, r=ln n/sqrt n, seed 1)
_BLOCK_ROWS = 1 << 13
# newborns per block from which a block draws layer by layer; with fewer
# (wide caps) the layering costs more than the per-newborn draws it saves
_LAYER_MIN = 64


def default_probes(k: int, seed: int = DEFAULT_PROBE_SEED) -> np.ndarray:
    k = int(_integer_ids(k, "probes"))
    if k < 0:
        raise ValueError(f"probes must be >= 0, got {k}")
    rng = np.random.default_rng(np.random.SeedSequence(_integer(seed, "seed")))
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
                set_(name, _integer(v, name))   # a fraction raises; 1e4 passes
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

    Row i is checkpoint t = times[i]: occupancy counts the vertices born
    before t in each probe's closed cap, and attach_mass sums their plain
    degree (over the edges of those newborns) + delta, the exact normalizer
    a newborn at the probe would see at t.
    """

    probe_points: np.ndarray
    times: np.ndarray
    occupancy: np.ndarray        # shape (len(times), n_probes)
    attach_mass: np.ndarray      # shape (len(times), n_probes)

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


def _draw(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The index into weights that each uniform of u picks, index i with
    probability w_i / sum(w)."""
    cum = weights.cumsum()
    return _pick(cum, u, cum[-1])


_M32 = (1 << 32) - 1


class _Stream:
    """A Generator's random(m) and integers(0, b) calls in birth order, taken
    with one raw-word draw per block of newborns.

    Newborn i of a block calls rng.random(m) if drawn[i], then, if calls[i],
    rng.integers(0, b) with 2 <= b < 2**32 (integers(0, 1) takes nothing and
    gives 0, so it is no call here).  numpy's PCG64 serves them from 64-bit
    words (O'Neill, PCG, 2014): a uniform is (word >> 11) * 2**-53, and an
    integer is (h * b) >> 32 for the first 32-bit half h the call takes
    with (h * b) mod 2**32 >= (2**32 - b) mod b (Lemire, Fast Random
    Integer Generation in an Interval, ACM TOMACS 2019).

    A block's halves are the half buffered at its start (a placeholder if
    none; held = 1 if there is one), then the low and the high half of each
    fresh word.  Call j takes _tries[j] of them, 1 + its rejections, so its
    half is halves[cumsum(_tries)[j] - held] and (that index + 1) // 2 fresh
    words are drawn by its end.  Each newborn steps over its uniforms, then
    the fresh words its call draws, and halves[sum(_tries) + 1 - held], if
    it exists, stays buffered for the next block.  A rejection thus adds 1
    to _tries[j] and lays the block out again.  _check_stream compares all
    this with a real Generator.
    """

    def __init__(self, rng: np.random.Generator):
        self._bits = rng.bit_generator
        state = self._bits.state
        # the half buffered after the blocks laid out so far
        self._half = state["uinteger"] if state["has_uint32"] else None

    def block(self, drawn: np.ndarray, m: int, calls: np.ndarray) -> None:
        """Start a block whose newborn i takes m uniforms if drawn[i], then
        makes one integer call if calls[i]."""
        owner = calls.nonzero()[0]
        # -held, then _tries: the running sums are the calls' half indices
        self._sums = np.ones(owner.size + 1, dtype=np.int64)
        self._sums[0] = -(self._half is not None)
        self._tries = self._sums[1:]
        self._start = np.array([self._half or 0], dtype=np.uint32)
        self._m = m
        # uniform words up to each call's newborn, and in the whole block
        upto = m * drawn.cumsum()
        self._upto, self._uniforms = upto[owner], int(upto[-1])
        self._words = np.empty(0, dtype=np.uint64)
        self._lay()

    def _lay(self) -> None:
        at = self._sums.cumsum()
        # fresh words drawn by the end of each call, led by 0
        drew = (at + 1) >> 1
        more = self._uniforms + int(drew[-1]) - self._words.size
        if more > 0:
            self._words = np.concatenate([self._words, self._bits.random_raw(more)])
        # fresh word k: after the uniforms up to its call's newborn and k fresh words
        word = self._word = self._upto.repeat(drew[1:] - drew[:-1]) + np.arange(drew[-1])
        fresh = self._words[word].astype("<u8", copy=False)
        halves = np.concatenate([self._start, fresh.view("<u4")])
        self._halves = halves[at[1:]]
        left = int(at[-1]) + 1
        self._half = int(halves[left]) if left < halves.size else None

    def integers(self, bound: np.ndarray) -> np.ndarray:
        """integers(0, bound[j]) for every call j of the block."""
        bound = bound.astype(np.uint64)
        threshold = (2 ** 32 - bound) % bound
        j = 0
        while True:
            x = self._halves * bound
            bad = ((x[j:] & _M32) < threshold[j:]).nonzero()[0]
            if not bad.size:
                return (x >> 32).astype(np.int64)
            j += int(bad[0])
            self._tries[j] += 1
            self._lay()

    def integer(self, j: int, bound: int) -> int:
        """integers(0, bound) for call j, with bound known only now."""
        if bound < 2:   # the call was laid out as taking a half
            raise AssertionError(f"integer call {j} has bound {bound} < 2")
        while True:
            x = int(self._halves[j]) * bound
            if x & _M32 >= (2 ** 32 - bound) % bound:
                return x >> 32
            self._tries[j] += 1
            self._lay()

    def uniforms(self) -> np.ndarray:
        """The block's uniforms, one row of m per newborn that takes them."""
        uniform = np.ones(self._words.size, dtype=bool)
        uniform[self._word] = False
        return (self._words[uniform].reshape(-1, self._m) >> 11) * 2.0 ** -53


@functools.cache
def _check_stream() -> None:
    """Compare _Stream with per-call Generator draws, once per process.

    The fixed blocks hold integers(0, 1), bounds just above 3 * 2**30
    (about a quarter of their halves reject) and 2**32 - 1, bounds given all
    at once and one at a time, blocks that start with and without a
    buffered half, and a block without uniforms; on this seed both kinds of
    bound see rejected fresh and buffered halves (tests/test_models.py).
    A numpy whose random or integers stream differs raises here rather than
    grow other graphs from a seed.
    """
    seed, m, big = 14, 3, 3 << 30
    blocks = [  # per newborn: takes uniforms, bound (0: no integer call)
        ([0, 1, 1, 0, 1], [0, 1, 2, 3, 4], False),
        ([1, 0, 1, 1, 1, 0], [big, big + 5, 7, big, 2 ** 32 - 1, big + 1], False),
        ([1, 1, 0, 1, 1], [big, big + 2, 9, big, 5], True),
        ([0, 0, 0], [big, 11, big + 3], True),
        ([1, 1, 0, 1], [0, 0, 0, 0], False),
        ([1, 0, 1, 1, 1, 1], [big, 6, big + 7, big, big + 9, 13], False),
        ([0, 1, 1], [big + 4, 1, big], True),
    ]
    want = np.random.default_rng(seed)
    stream = _Stream(np.random.default_rng(seed))
    same = True
    for drawn, bound, one_by_one in blocks:
        drawn, bound = np.array(drawn, dtype=bool), np.array(bound)
        u, ints = [], []
        for d, b in zip(drawn, bound):
            if d:
                u.append(want.random(m))
            if b:
                ints.append((b, want.integers(0, b)))
        calls = bound >= 2
        stream.block(drawn, m, calls)
        if one_by_one:
            got = [stream.integer(j, int(b)) for j, b in enumerate(bound[calls])]
        else:
            got = stream.integers(bound[calls]).tolist()
        same &= np.array_equal(stream.uniforms(), np.reshape(u, (-1, m)))
        same &= got == [x for b, x in ints if b >= 2]
    state = want.bit_generator.state
    same &= stream._bits.state["state"] == state["state"]
    same &= stream._half == (state["uinteger"] if state["has_uint32"] else None)
    if not same:
        raise RuntimeError(f"numpy {np.__version__} draws Generator.random and "
                           "Generator.integers from other words than generate expects; "
                           "its graphs would differ from those of the same seeds before")


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
    _check_stream()
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    pos = sample_uniform(rng, n).reshape(n, 3)
    stream = _Stream(rng)
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

    while lo < n:
        hi = min(lo + block, n)
        ids = np.arange(lo, hi)
        cands, at = caps.members(pos[lo:hi], r, ids)
        # rows per newborn, read at the block's middle, scaled to hi as if in
        # proportion to t; at most _BLOCK_ROWS newborns bounds the uniforms
        block = min(2 * block, _BLOCK_ROWS,
                    max(1, _BLOCK_ROWS * (hi - lo) * (lo + hi) // (2 * hi * max(cands.size, 1))))
        iso = isolated[lo:hi] = at[1:] == at[:-1]
        drew = ~iso
        # an isolated birth's m loops more, booked before the block's draws
        weight[lo:hi] += m * iso

        # the block's random stream: newborn t >= 2 of a hybrid or self-loop
        # graph makes an integer call; at t = 1 the bound is 1, which takes
        # nothing and gives 0
        stream.block(drew, m, (model != "base") & (ids >= 2))
        first = max(lo, 2)
        if model == "hybrid" and first < hi:
            partner[first:hi] = stream.integers(np.arange(first, hi))
        elif model == "selfloop":
            floops[lo:hi] = delta
            for t in range(lo, hi):
                if t > 0:
                    # the holder count never falls (a newborn frees at most
                    # one holder and becomes one), so it is 1 at t = 1 and
                    # at least 2 after, where the call is laid out
                    j = stream.integer(t - first, hcount) if t > 1 else 0
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
        # row j of u holds the uniforms of newborn lo + drawers[j]
        drawers = drew.nonzero()[0]
        u = stream.uniforms()
        if hi - lo >= _LAYER_MIN:
            contacts[lo + drawers] = _draw_layered(cands, at, drawers, u, weight)
        else:
            at = at.tolist()
            for i, row in zip(drawers.tolist(), u):
                cand = cands[at[i]:at[i + 1]]
                drawn = contacts[lo + i] = cand[_draw(weight.take(cand), row)]
                np.add.at(weight, drawn, 1)
        lo = hi

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
                      flexible_loops=floops, isolated_birth=isolated)
    # query_cap sorts, so the graph can answer with this grid's cell
    g._cap_index = caps
    # the container recounts degrees from the edge list; the running tallies
    # must agree exactly
    if not (np.array_equal(plain, g.plain_degree)
            and np.array_equal(extra, g.long_degree + g.flexible_edge_degree)):
        raise AssertionError("degree tallies disagree with edge-list recount")
    return g, _trace(g, caps, cfg)


def _trace(g: EvolvingGraph, caps: CapIndex, cfg: ModelConfig) -> GenerationTrace:
    """cfg's probe trace of the finished graph g.  The edges of the newborns
    before t are a prefix of the birth-ordered edge list, so one plain-degree
    tally, advanced from checkpoint to checkpoint, serves every row."""
    times = np.array(cfg.checkpoint_times, dtype=np.int64)
    occ = np.zeros((times.size, cfg.probes.shape[0]), dtype=np.int64)
    mass = np.zeros_like(occ)
    plain = np.zeros(g.n, dtype=np.int64)
    lo = 0
    for row, t in enumerate(times.tolist() if occ.size else ()):
        hi = int(g.edge_src.searchsorted(t))
        plain += _kind_degrees(g.edge_src[lo:hi], g.edge_dst[lo:hi], g.edge_kind[lo:hi],
                               g.n)[EdgeKind.PLAIN]
        lo = hi
        members, mptr = caps.members(cfg.probes, cfg.r, t)
        occ[row] = np.diff(mptr)
        held = np.concatenate([[0], plain[members].cumsum()])
        mass[row] = held[mptr[1:]] - held[mptr[:-1]] + cfg.delta * occ[row]
    return GenerationTrace(cfg.probes, times, occ, mass)
