"""Command-line entry points.

Subcommands: params, generate, degrees, diameter, communities, expander,
concentration, experiment.  Analyses print a JSON payload to stdout;
`generate` prints the edge list as CSV unless --out names a directory.
GPANET_OUT supplies a default output directory when --out is omitted, for
every subcommand but `experiment`, whose --out overrides the spec's out_dir.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .graph import MODEL_NAMES
from .harness import (ANALYSES, ExperimentSpec, derive_parameters,
                      dump_json, json_text, run_experiment)
from .models import ModelConfig, default_probes, generate


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, choices=MODEL_NAMES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--r", type=float, default=None,
                   help="cap radius as a central angle in [0, pi]")
    p.add_argument("--c0", type=float, default=None,
                   help="when --r is omitted, use r = min(ln(n)^c0/sqrt(n), pi)")
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--seed", type=int, required=True)


def _float_list(text: str) -> list[float] | None:
    return [float(x) for x in text.split(",")] if text else None


def _add_common(p: argparse.ArgumentParser,
                out_help: str = "output directory (default: $GPANET_OUT if set)") -> None:
    p.add_argument("--out", default=None, help=out_help)
    p.add_argument("--json", action="store_true",
                   help="machine-readable output, including errors")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gpanet")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="derived radius/time scales")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--c0", type=float, required=True)
    p.add_argument("--c1", type=float, required=True)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("generate", help="grow a graph, emit edge list + trace")
    _add_graph_args(p)
    _add_common(p)
    p.add_argument("--probes", type=int, default=0)
    p.add_argument("--checkpoints", default=None,
                   help="comma-separated times for the occupancy trace")

    p = sub.add_parser("degrees", help="degree histogram, tail fit, law check")
    _add_graph_args(p)
    _add_common(p)
    p.add_argument("--kmin", type=int, default=None, dest="k_min",
                   metavar="KMIN", help="fit threshold (default: m)")
    p.add_argument("--kind", default=None)

    p = sub.add_parser("diameter", help="shortest-path diameter")
    _add_graph_args(p)
    _add_common(p)
    # exact on purpose, unlike the experiment's component-wise: one command
    # reports a disconnected graph at once, an experiment every component
    p.add_argument("--mode", default="exact",
                   choices=["exact", "component-wise"])

    p = sub.add_parser("communities", help="cap communities around sampled vertices")
    _add_graph_args(p)
    _add_common(p)
    p.add_argument("--R", type=float, default=None,
                   help="community radius (default: min(2r,pi))")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--size-cap", type=float, default=None)
    p.add_argument("--centers", type=int, default=None)

    p = sub.add_parser("expander", help="conductance scan over radii")
    _add_graph_args(p)
    _add_common(p)
    p.add_argument("--radii", default=None, type=_float_list,
                   help="comma-separated radii (default: r,min(2r,pi))")
    p.add_argument("--centers", type=int, default=None)

    p = sub.add_parser("concentration", help="cap occupancy vs expectation")
    _add_graph_args(p)
    _add_common(p)
    p.add_argument("--probes", type=int, default=3)
    p.add_argument("--checkpoints", default=None,
                   help="comma-separated times (default: quartiles of n)")
    p.add_argument("--t-r", type=float, default=None, dest="t_r")

    p = sub.add_parser("experiment", help="run an ExperimentSpec JSON file")
    p.add_argument("--spec", required=True)
    _add_common(p, "output directory, overriding the spec's out_dir")
    return top


def _default_out(args) -> Path | None:
    if args.out is not None:
        return Path(args.out)
    env = os.environ.get("GPANET_OUT")
    return Path(env) if env else None


def _resolve_r(args) -> float:
    if args.r is not None:
        return args.r
    if args.c0 is None:
        raise ValueError("need --r or --c0 to fix the cap radius")
    if args.n < 2:
        raise ValueError("--c0 needs n >= 2")
    return min(math.log(args.n) ** args.c0 / math.sqrt(args.n), math.pi)


def _parse_times(text: str | None, n: int) -> tuple[int, ...]:
    if text is None:
        qs = sorted({max(1, n // 4), max(1, n // 2), max(1, 3 * n // 4), n})
        return tuple(qs)
    return tuple(int(t) for t in text.split(","))


def _config_from_args(args, probes=None, checkpoints=()) -> ModelConfig:
    return ModelConfig(model=args.model, n=args.n, m=args.m, xi=args.xi,
                       r=_resolve_r(args), seed=args.seed, delta=args.delta,
                       probes=probes, checkpoint_times=checkpoints)


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json_text(payload))
    else:
        for k in sorted(payload):
            print(f"{k}: {payload[k]}")


def _cmd_params(args) -> int:
    dp = derive_parameters(args.n, args.xi, args.c0, args.c1, args.r)
    print(json_text(dp.to_json_dict()))
    return 0


def _cmd_generate(args) -> int:
    k = args.probes
    cps = _parse_times(args.checkpoints, args.n) if args.checkpoints else ()
    cfg = _config_from_args(args, default_probes(k) if k else None, cps)
    g, trace = generate(cfg)
    out = _default_out(args)
    if out is None:
        g.write_edges(sys.stdout)
        return 0
    out.mkdir(parents=True, exist_ok=True)
    g.write_edges_csv(out / "edges.csv")
    g.write_vertices_csv(out / "vertices.csv")
    files = ["edges.csv", "vertices.csv"]
    if cps:
        trace.write_csv(out / "trace.csv")
        files.append("trace.csv")
    dump_json(out / "config.json", cfg.to_json_dict())
    files.append("config.json")
    _emit({"out": str(out), "files": files, "n": g.n,
           "edges": int(g.edge_src.size)}, args.json)
    return 0


def _cmd_analysis(args) -> int:
    """Grow the graph, run the harness analysis named by the subcommand, emit.

    Each option of the analysis is read from the flag of the same dest; a
    flag left at None leaves the analysis default in place.  With an output
    directory, a CSV side table goes to <command>.csv and the occupancy
    trace, when the config has checkpoints, to trace.csv.
    """
    if args.command == "concentration":
        cfg = _config_from_args(args, default_probes(args.probes),
                                _parse_times(args.checkpoints, args.n))
    else:
        cfg = _config_from_args(args)
    opts = {k: getattr(args, k) for k in ANALYSES[args.command].options
            if getattr(args, k) is not None}
    g, trace = generate(cfg)
    out = _default_out(args)

    def save(table, name=f"{args.command}.csv"):
        if out is None:
            return None
        out.mkdir(parents=True, exist_ok=True)
        table.write_csv(out / name)
        return str(out / name)

    payload = ANALYSES[args.command].run(g, trace, cfg, opts, save)
    if out is not None and cfg.checkpoint_times:
        payload["trace_csv"] = save(trace, "trace.csv")
    payload["config"] = cfg.to_json_dict()
    _emit(payload, args.json)
    return 0


def _cmd_experiment(args) -> int:
    spec_dict = json.loads(Path(args.spec).read_text())
    if args.out is not None and isinstance(spec_dict, dict):
        spec_dict["out_dir"] = args.out
    spec = ExperimentSpec.from_json_dict(spec_dict)
    index = run_experiment(spec)
    if args.json:
        print(json_text(index))
    else:
        print(f"wrote {len(index['artifacts'])} artifacts to {spec.out_dir}")
        for err in index["errors"]:
            print(f"error [seed {err['seed']}, {err['analysis']}]: "
                  f"{err['error']}", file=sys.stderr)
    # every artifact is written even when an analysis fails; the exit status
    # reports the failure
    return 1 if index["errors"] else 0


# every other subcommand runs the harness analysis of the same name
_HANDLERS = {
    "params": _cmd_params,
    "generate": _cmd_generate,
    "experiment": _cmd_experiment,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS.get(args.command, _cmd_analysis)(args)
    except (ValueError, OSError) as exc:
        if getattr(args, "json", False):
            print(json_text({"error": str(exc), "command": args.command}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
