"""One iteration of one workload, in a fresh process.

Started by run.py as
    python3 perfbench/worker.py WORKLOAD SEED OUT_DIR TRACE SMOKE LAUNCHED
where LAUNCHED is the parent's time.monotonic() just before the launch
(CLOCK_MONOTONIC is shared by all processes on Linux).  Prints one JSON
object on stdout.  With WORKLOAD "warmup" it only imports, which compiles
bytecode and fills the page cache before anything is timed.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
import gpanet  # noqa: E402

READY = time.monotonic()

import json  # noqa: E402
import traceback  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def pct(values, q) -> float:
    return float(numpy.percentile(values, q)) if values else 0.0


def layer_metrics(tr: spans.Tracer, outcome: workloads.Outcome) -> dict:
    """Per-layer metrics of one traced iteration (times in s, counts exact)."""
    q = tr.samples.get("static_query_us", [])
    cand = tr.samples.get("candidates", [])
    total = tr.total
    return {
        "sphere.sample_s": total("sphere.sample"),
        "capindex.static_build_s": total("capindex.static_build"),
        "capindex.static_query_s": total("capindex.static_query"),
        "capindex.static_query_calls": len(q),
        "capindex.static_query_us_p50": pct(q, 50),
        "capindex.static_query_us_p99": pct(q, 99),
        "capindex.candidates_mean": float(numpy.mean(cand)) if cand else 0.0,
        "capindex.candidates_max": max(cand, default=0),
        "capindex.index_build_s": total("capindex.index_build"),
        "capindex.cap_query_s": total("capindex.cap_query"),
        "capindex.cap_query_calls": len(tr.durations("capindex.cap_query")),
        "models.self_s": tr.self_time(spans.GENERATE_SPAN),
        "models.edges": sum(tr.samples.get("edges", [])),
        "models.isolated_births": sum(tr.samples.get("isolated_births", [])),
        "graph.build_s": total("graph.build"),
        "graph.edge_bytes": sum(tr.samples.get("edge_bytes", [])),
        "graph.csr_s": total("graph.csr"),
        "graph.write_csv_s": total("graph.write_csv"),
        "graph.write_bytes": sum(tr.samples.get("write_bytes", [])),
        "graph.conductance_s": total("graph.conductance"),
        "graph.conductance_calls": len(tr.durations("graph.conductance")),
        "graph.induced_connected_s": total("graph.induced_connected"),
        "metrics.diameter_s": total("metrics.diameter"),
        "metrics.bfs_passes": sum(tr.samples.get("bfs_passes", [])),
        "metrics.sssp_calls": sum(tr.samples.get("sssp_calls", [])),
        "metrics.community_s": total("metrics.community"),
        "metrics.expander_s": total("metrics.expander"),
        "metrics.degree_law_s": total("metrics.degree_law"),
        "metrics.urt_s": total("metrics.urt"),
        "harness.self_s": tr.self_time("harness.run_experiment"),
        "harness.artifacts": outcome.counts.get("artifacts", 0),
        "harness.artifact_bytes": outcome.counts.get("artifact_bytes", 0),
    }


def main(argv) -> int:
    workload, seed, out, trace, smoke, launched = argv
    record = {"setup_s": READY - float(launched),
              "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                           "scipy": scipy.__version__},
              "gpanet_file": gpanet.__file__}
    if workload != "warmup":
        tr = spans.Tracer()
        ctx = workloads.Context(int(seed), Path(out), smoke == "1")
        try:
            with spans.installed(tr, layers=trace == "1"):
                outcome = workloads.WORKLOADS[workload](ctx)
        except Exception:
            record["error"] = traceback.format_exc()
        else:
            record.update(
                wall_s=outcome.wall_s, peak_rss_mb=outcome.peak_rss_mb,
                grow_s=tr.total(spans.GENERATE_SPAN),
                analyze_s=sum(tr.total(name) for name in spans.ANALYSIS_SPANS),
                problems=outcome.problems, digests=outcome.digests)
            if trace == "1":
                record["layers"] = layer_metrics(tr, outcome)
                record["spans"] = tr.to_json_dict()
    json.dump(record, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
