"""In-memory span recording and the wrappers that install it around gpanet.

A span is (name, start, end, parent).  Spans are kept in parallel lists in
memory and only written out after the workload ends.  Wrappers are put
on module globals and class attributes from outside the library; nothing
under src/ knows about them.  Several names are imported by value into other
modules (models imports sample_uniform, _StaticCapQuery and EvolvingGraph;
harness imports generate and the analysis functions), so the wrappers go on
each importing module's copy as well as on the defining module.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

# Span names that count as "analysis" for analyze_s.  They never nest inside
# one another, so their durations add up without double counting.
ANALYSIS_SPANS = ("metrics.degree_law", "metrics.diameter", "metrics.urt",
                  "metrics.community", "metrics.expander")
GENERATE_SPAN = "models.generate"


class Tracer:
    """Collects spans and integer/float samples for one workload run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.samples: dict[str, list] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.starts.append(self.clock())
        self.ends.append(float("nan"))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.ends[i] = self.clock()
        popped = self._stack.pop()
        if popped != i:
            raise RuntimeError(f"span {self.names[i]!r} closed out of order")

    def inside(self, name: str) -> bool:
        """Whether a span called name is open on the current stack."""
        return any(self.names[i] == name for i in self._stack)

    def sample(self, key: str, value) -> None:
        self.samples.setdefault(key, []).append(value)

    def wrap(self, name: str, fn, on_result=None):
        """fn wrapped in a span; on_result(tracer, args, result, seconds) runs after."""
        def wrapper(*args, **kwargs):
            i = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if on_result is not None:
                on_result(self, args, result, self.ends[i] - self.starts[i])
            return result
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- summaries -----------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def total(self, name: str) -> float:
        return float(sum(self.durations(name)))

    def self_time(self, name: str) -> float:
        """Summed self time of every span called name."""
        return float(sum(t for n, t in zip(self.names, self_times(self)) if n == name))

    def to_json_dict(self) -> dict:
        table = sorted(set(self.names))
        code = {n: k for k, n in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        return {"names": table,
                "name": [code[n] for n in self.names],
                "start": [s - t0 for s in self.starts],
                "end": [e - t0 for e in self.ends],
                "parent": list(self.parents)}


def self_times(tr: Tracer) -> list[float]:
    """Per span: its duration minus the part its direct children cover.

    Children are merged as intervals clipped to the parent, so overlapping
    or out-of-bounds children cannot drive self time below zero.
    """
    kids: dict[int, list[int]] = {}
    for i, p in enumerate(tr.parents):
        if p >= 0:
            kids.setdefault(p, []).append(i)
    out = []
    for i, (s, e) in enumerate(zip(tr.starts, tr.ends)):
        covered = 0.0
        cur_s = cur_e = None
        for k in sorted(kids.get(i, ()), key=lambda k: tr.starts[k]):
            ks, ke = max(tr.starts[k], s), min(tr.ends[k], e)
            if ke <= ks:
                continue
            if cur_e is None or ks > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = ks, ke
            else:
                cur_e = max(cur_e, ke)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((e - s) - covered)
    return out


# ---------------------------------------------------------------------------
# installing wrappers


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _count_graph(tr, args, result, dt):
    g = result[0]
    tr.sample("edges", int(g.num_edges))
    tr.sample("isolated_births", int(g.isolated_birth.sum()))
    tr.sample("edge_bytes", int(g.edge_src.nbytes + g.edge_dst.nbytes + g.edge_kind.nbytes))


def _count_write(tr, args, result, dt):
    tr.sample("write_bytes", os.path.getsize(args[1]))


def _count_candidates(tr, args, rows, dt):
    tr.sample("static_query_us", dt * 1e6)
    tr.sample("candidates", int(rows.size))


def _count_bfs_passes(tr, args, result, dt):
    tr.sample("bfs_passes", -(-int(args[0].shape[0]) // 64))


def _count_sssp(tr, args, result, dt):
    if tr.inside("metrics.diameter"):
        tr.sample("sssp_calls", 1)


def _wrap_method(p: Patches, tr: Tracer, cls, attr: str, name: str, on_result=None):
    p.set(cls, attr, tr.wrap(name, cls.__dict__[attr], on_result))


def _wrap_property(p: Patches, tr: Tracer, cls, attr: str, name: str):
    getter = tr.wrap(name, cls.__dict__[attr].fget)
    p.set(cls, attr, property(getter))


def _wrap_global(p: Patches, tr: Tracer, modules, attr: str, name: str, on_result=None):
    for mod in modules:
        p.set(mod, attr, tr.wrap(name, mod.__dict__[attr], on_result))


def install(tr: Tracer, layers: bool) -> Patches:
    """Wrap gpanet's module boundaries so that they record into tr.

    With layers=False only the end-to-end boundaries are wrapped: generate
    and the analysis entry points, which is what grow_s and analyze_s need.
    With layers=True every boundary between the six modules is wrapped too.
    """
    from gpanet import capindex, graph, harness, metrics, models

    p = Patches()
    _wrap_global(p, tr, (models, harness), "generate", GENERATE_SPAN, _count_graph)
    _wrap_global(p, tr, (metrics, harness), "degree_histogram", "metrics.degree_law")
    _wrap_global(p, tr, (metrics, harness), "fit_power_law_exponent", "metrics.degree_law")
    _wrap_global(p, tr, (metrics, harness), "diameter", "metrics.diameter")
    _wrap_global(p, tr, (metrics, harness), "urt_stats", "metrics.urt")
    _wrap_global(p, tr, (metrics, harness), "community_check", "metrics.community")
    _wrap_global(p, tr, (metrics, harness), "expander_scan", "metrics.expander")
    if not layers:
        return p

    _wrap_global(p, tr, (harness,), "run_experiment", "harness.run_experiment")
    _wrap_global(p, tr, (models,), "sample_uniform", "sphere.sample")
    _wrap_global(p, tr, (metrics,), "_diameter_bfs_all", "metrics.bfs_all",
                 _count_bfs_passes)
    _wrap_global(p, tr, (metrics,), "dijkstra", "metrics.sssp", _count_sssp)

    static = capindex._StaticCapQuery
    _wrap_method(p, tr, static, "__init__", "capindex.static_build")
    _wrap_method(p, tr, static, "query", "capindex.static_query", _count_candidates)
    _wrap_method(p, tr, capindex.CapIndex, "query_cap", "capindex.cap_query")

    G = graph.EvolvingGraph
    _wrap_method(p, tr, G, "__init__", "graph.build")
    _wrap_method(p, tr, G, "conductance", "graph.conductance")
    _wrap_method(p, tr, G, "induced_connected", "graph.induced_connected")
    _wrap_method(p, tr, G, "write_edges_csv", "graph.write_csv", _count_write)
    _wrap_method(p, tr, G, "write_vertices_csv", "graph.write_csv", _count_write)
    _wrap_method(p, tr, models.GenerationTrace, "write_csv", "graph.write_csv", _count_write)
    _wrap_property(p, tr, G, "adjacency_csr", "graph.csr")
    # the first access builds CapIndex.from_points; later ones return the cache
    _wrap_property(p, tr, G, "cap_index", "capindex.index_build")
    return p


@contextmanager
def installed(tr: Tracer, layers: bool):
    p = install(tr, layers)
    try:
        yield tr
    finally:
        p.undo()
