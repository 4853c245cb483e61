"""Parameter derivation and multi-seed experiment orchestration.

derive_parameters evaluates the closed-form radius/time scales and the
admissibility window for the exponent constants.  ExperimentSpec plus
run_experiment turn a ModelConfig template and a seed list into a directory
of JSON/CSV artifacts with an index file for provenance.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .metrics import (DegreeHistogram, analytic_fk, community_check,
                      concentration_report, degree_histogram, diameter,
                      expander_scan, fit_power_law_exponent, urt_stats)
from .models import ModelConfig, generate

@dataclass(frozen=True)
class DerivedParameters:
    """Radius and time scales derived from (n, xi, c0, c1).

    r0 is the natural local radius sqrt-law with a polylog boost; R0 the
    wider scale used for neighborhood growth; t_r the time after which a
    cap of radius r has concentrated occupancy, with t0 = t_{r0}.  c2 is
    the community-size exponent implied by c1.  Asymptotic radii can
    exceed pi at desk scale; they are clamped and flagged, never silently.
    """

    n: int
    xi: float
    c0: float
    c1: float
    r: float
    r0: float
    R0: float
    t_r: float
    t0: float
    c2: float
    window_valid: bool
    r0_clamped: bool = False
    R0_clamped: bool = False
    t_r_floored: bool = False
    t0_floored: bool = False

    def to_json_dict(self) -> dict:
        return {
            "n": self.n, "xi": self.xi, "c0": self.c0, "c1": self.c1,
            "r": self.r, "r0": self.r0, "R0": self.R0, "t_r": self.t_r,
            "t0": self.t0, "c2": self.c2, "window_valid": self.window_valid,
            "r0_clamped": self.r0_clamped, "R0_clamped": self.R0_clamped,
            "t_r_floored": self.t_r_floored, "t0_floored": self.t0_floored,
        }


def exponent_window_valid(xi: float, c0: float, c1: float) -> bool:
    """Strict double inequality tying c1 to c0 through xi."""
    slack = c0 - c1 - 1.0
    lo = slack * (1.0 - 1.0 / (xi + 2.0))
    hi = 2.0 * slack * (1.0 - 2.0 / (2.0 + xi))
    return lo < c1 < hi


def community_exponent(xi: float, c1: float) -> float:
    base = xi * (1.0 + xi / 2.0) + 1.0
    return c1 * math.log(base) / math.log((7.0 + 400.0 / xi) ** 2 * base)


def derive_parameters(n: int, xi: float, c0: float, c1: float,
                      r: float | None = None) -> DerivedParameters:
    """Evaluate the derived scales; pure function of its arguments.

    t_r is evaluated at the given r (default: the clamped r0, in which
    case t_r equals t0 whenever r0 needed no clamping).
    """
    n = int(n)
    if n < 3:
        raise ValueError("n must be >= 3")
    for name, val in (("xi", xi), ("c0", c0), ("c1", c1)):
        if not np.isfinite(val) or val <= 0.0:
            raise ValueError(f"{name} must be a positive finite float")
    ln = math.log(n)
    r0_raw = ln ** c0 / math.sqrt(n)
    R0_raw = ln ** (2.0 * c0) / math.sqrt(n)
    r0 = min(r0_raw, math.pi)
    R0 = min(R0_raw, math.pi)
    if r is None:
        r = r0
    r = float(r)
    if not 0.0 < r <= math.pi:
        raise ValueError("r must lie in (0, pi]")
    e = c1 / c0
    t_r_raw = 12.0 * ln ** 2 * n ** e / r ** (2.0 * (1.0 - e))
    t0_raw = 12.0 * n / ln ** (2.0 * c0 - 2.0 * c1 - 2.0)
    return DerivedParameters(
        n=n, xi=float(xi), c0=float(c0), c1=float(c1), r=r,
        r0=r0, R0=R0,
        t_r=max(t_r_raw, 1.0), t0=max(t0_raw, 1.0),
        c2=community_exponent(xi, c1),
        window_valid=exponent_window_valid(xi, c0, c1),
        r0_clamped=r0_raw > math.pi, R0_clamped=R0_raw > math.pi,
        t_r_floored=t_r_raw < 1.0, t0_floored=t0_raw < 1.0,
    )


@dataclass(frozen=True)
class ExperimentSpec:
    """A ModelConfig template swept over seeds with selected analyses.

    The template's own seed is ignored; each trial replaces it with an
    entry from `seeds`.  `options` carries per-analysis knobs (plain JSON
    scalars) such as {"degrees": {"k_min": 4}}; each analysis accepts only
    the keys its ANALYSES entry names.
    """

    config: ModelConfig
    seeds: tuple[int, ...]
    analyses: tuple[str, ...]
    out_dir: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        set_ = lambda k, v: object.__setattr__(self, k, v)
        set_("seeds", tuple(int(s) for s in self.seeds))
        set_("analyses", tuple(str(a) for a in self.analyses))
        set_("out_dir", str(self.out_dir))
        set_("options", {str(k): dict(v) for k, v in self.options.items()})
        if not self.seeds:
            raise ValueError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if not self.analyses:
            raise ValueError("need at least one analysis")
        unknown = [a for a in self.analyses if a not in ANALYSES]
        if unknown:
            raise ValueError(f"unknown analyses {unknown}; "
                             f"choose from {list(ANALYSES)}")
        for name, opts in self.options.items():
            if name not in ANALYSES:
                raise ValueError(f"options for unknown analysis {name!r}")
            accepted = ANALYSES[name].options
            unknown = sorted(k for k in opts if k not in accepted)
            if unknown:
                raise ValueError(f"unknown {name} options {unknown}; "
                                 f"{name} accepts {list(accepted)}")

    @classmethod
    def from_master(cls, config: ModelConfig, master_seed: int, trials: int,
                    analyses, out_dir, options=None) -> "ExperimentSpec":
        """Split a master seed into one independent seed per trial.

        Trial i uses the first output word of SeedSequence([master_seed, i]),
        so runs are reproducible from (master_seed, trial count) alone and
        adding trials never perturbs earlier ones.
        """
        if trials < 1:
            raise ValueError("trials must be >= 1")
        seeds = tuple(
            int(np.random.SeedSequence([int(master_seed), i]).generate_state(1)[0])
            for i in range(int(trials)))
        return cls(config=config, seeds=seeds, analyses=tuple(analyses),
                   out_dir=out_dir, options=dict(options or {}))

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "seeds": list(self.seeds),
            "analyses": list(self.analyses),
            "out_dir": self.out_dir,
            "options": self.options,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentSpec":
        return cls(config=ModelConfig.from_json_dict(d["config"]),
                   seeds=tuple(d["seeds"]), analyses=tuple(d["analyses"]),
                   out_dir=d["out_dir"], options=dict(d.get("options", {})))


def dump_json(path: Path, obj) -> None:
    """The artifact JSON format: sorted keys, two-space indent, final newline."""
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _degrees(g, trace, cfg: ModelConfig, opts: dict, save) -> dict:
    """Degree histogram, power-law tail fit at k_min and L1 distance to f_k.

    The histogram goes to save before the fit, so it survives a fit error.
    """
    h = degree_histogram(g, opts.get("kind", "total"))
    csv = save(h)
    k_min = int(opts.get("k_min", cfg.m))
    fit = fit_power_law_exponent(h, k_min)
    ks, cs = h.as_arrays()
    sel = ks >= cfg.m
    emp = cs[sel] / cs[sel].sum()
    l1 = float(np.abs(emp - analytic_fk(ks[sel], cfg.m, cfg.xi, cfg.delta)).sum())
    report = {
        "kind": h.kind, "k_min": k_min,
        "exponent": fit.exponent, "stderr": fit.stderr,
        "tail_count": fit.tail_count,
        "expected_exponent": 3.0 + cfg.xi,
        "fk_l1_distance": l1,
        "max_degree": int(ks.max()),
    }
    if csv is not None:
        report["histogram_csv"] = csv
    return report


def _diameter(g, trace, cfg: ModelConfig, opts: dict, save) -> dict:
    return diameter(g, opts.get("mode", "component-wise"),
                    opts.get("method")).to_json_dict()


def _centers(cfg: ModelConfig, k, salt: int) -> np.ndarray:
    """min(k, n) distinct vertex ids, sorted, from the stream (cfg.seed, salt)."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, salt]))
    return np.sort(rng.choice(cfg.n, size=min(int(k), cfg.n), replace=False))


def _communities(g, trace, cfg: ModelConfig, opts: dict, save) -> dict:
    R = float(opts.get("R", 2.0 * cfg.r))
    alpha = float(opts.get("alpha", 1.0))
    beta = float(opts.get("beta", 0.25))
    size_cap = float(opts.get("size_cap", cfg.n))
    centers = _centers(cfg, opts.get("centers", 50), 101)
    reports = [community_check(g, int(v), R, alpha, beta, size_cap).to_json_dict()
               for v in centers]
    return {
        "R": R, "alpha": alpha, "beta": beta, "size_cap": size_cap,
        "reports": reports,
        "n_satisfying": sum(r["satisfies"] for r in reports),
        "n_checked": len(reports),
    }


def _expander(g, trace, cfg: ModelConfig, opts: dict, save) -> dict:
    radii = opts.get("radii", (cfg.r, min(2.0 * cfg.r, math.pi)))
    centers = _centers(cfg, opts.get("centers", 100), 202)
    return expander_scan(g, centers, radii).to_json_dict()


def _concentration(g, trace, cfg: ModelConfig, opts: dict, save) -> dict:
    return concentration_report(trace, cfg, opts.get("t_r")).to_json_dict()


def _tree(g, trace, cfg: ModelConfig, opts: dict, save) -> dict:
    stats = urt_stats(g)
    return {"diameter": stats.diameter, "max_degree": stats.max_degree,
            "log2_n": math.log2(cfg.n) if cfg.n > 1 else 0.0}


@dataclass(frozen=True)
class Analysis:
    """One analysis of a grown graph, as run by run_experiment and the CLI.

    run(g, trace, cfg, opts, save) returns the JSON payload.  opts holds
    keys from `options` only; a missing key takes its default.  Centre
    sampling is salted with cfg.seed.  An analysis with a CSV side table
    passes it to save(table), which writes it and returns the reference to
    record in the payload, or None to record none.
    """

    run: Callable[..., dict]
    options: tuple[str, ...] = ()


# The run functions look the metrics up as module globals at call time, so
# a wrapper installed on this module's globals sees every call.
ANALYSES = {
    "degrees": Analysis(_degrees, ("kind", "k_min")),
    "diameter": Analysis(_diameter, ("mode", "method")),
    "communities": Analysis(_communities,
                            ("R", "alpha", "beta", "size_cap", "centers")),
    "expander": Analysis(_expander, ("radii", "centers")),
    "concentration": Analysis(_concentration, ("t_r",)),
    "tree": Analysis(_tree),
}


def run_experiment(spec: ExperimentSpec) -> dict:
    """Generate one graph per seed, run the selected analyses, write files.

    Returns the index payload, which is also written to index.json.  Each
    failed artifact is recorded under "errors" without aborting the rest,
    so partial results survive.  Trials run sequentially; every write goes
    to its own file, and numeric payloads are byte-stable across reruns of
    the same spec (no timestamps).
    """
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    index: dict = {
        "config": spec.config.to_json_dict(),
        "seeds": list(spec.seeds),
        "analyses": list(spec.analyses),
        "options": spec.options,
        "artifacts": [],
        "errors": [],
    }
    pooled_counts: Counter = Counter()
    fits = []

    def emit(name: str, payload: dict, cfg: ModelConfig) -> None:
        payload["config"] = cfg.to_json_dict()
        dump_json(out / name, payload)
        index["artifacts"].append(name)

    for seed in spec.seeds:
        cfg = replace(spec.config, seed=seed)
        try:
            g, trace = generate(cfg)
        except Exception as exc:
            index["errors"].append({"seed": seed, "analysis": "generate",
                                    "error": str(exc),
                                    "type": type(exc).__name__})
            continue
        for analysis in spec.analyses:
            tables = []

            def save(table, csv_name=f"{analysis}_seed{seed}.csv"):
                table.write_csv(out / csv_name)
                index["artifacts"].append(csv_name)
                tables.append(table)
                return csv_name

            try:
                rep = ANALYSES[analysis].run(
                    g, trace, cfg, spec.options.get(analysis, {}), save)
                emit(f"{analysis}_seed{seed}.json", rep, cfg)
            except Exception as exc:
                index["errors"].append({"seed": seed, "analysis": analysis,
                                        "error": str(exc),
                                        "type": type(exc).__name__})
                continue
            if analysis == "degrees":
                fits.append({"seed": seed, "exponent": rep["exponent"],
                             "stderr": rep["stderr"]})
                k_min = rep["k_min"]
                pooled_counts.update(tables[0].counts)

    if fits:
        pooled = DegreeHistogram(counts=dict(pooled_counts), kind="total",
                                 n=sum(pooled_counts.values()))
        summary: dict = {"per_seed": fits, "expected_exponent":
                         3.0 + spec.config.xi, "k_min": k_min}
        try:
            pf = fit_power_law_exponent(pooled, k_min)
            summary["pooled_exponent"] = pf.exponent
            summary["pooled_stderr"] = pf.stderr
            summary["pooled_tail_count"] = pf.tail_count
        except ValueError as exc:
            summary["pooled_error"] = str(exc)
        emit("degrees_summary.json", summary, spec.config)

    index["artifacts"].sort()
    dump_json(out / "index.json", index)
    return index
