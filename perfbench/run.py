"""gpanet benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload again and again, each iteration in a fresh worker process
and strictly one after another, until S seconds are used (at least three
iterations, or two with --trace 1).  Every iteration's outputs are checked.  With --trace 0 it
prints the end-to-end metrics; with --trace 1 it alternates traced and
untraced iterations and prints the per-layer metrics, including the tracing
overhead.  wall_s, grow_s and analyze_s are scaled to a reference CPU speed
measured around each worker (see calibrate_s).  The last stdout line is one
JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
A result file with provenance and every raw sample goes to
.perfbench_out/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("narrow-write-scan", "experiment-diameter")
MIN_ITERATIONS = {0: 3, 1: 2}
RUN_LIMIT_S = 150.0          # a run must end well inside 180 s
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
E2E_KEYS = ("wall_s", "grow_s", "analyze_s", "peak_rss_mb", "setup_s")
# End-to-end timings reported at the reference CPU speed (unit ref-s).
SCALED_KEYS = ("wall_s", "grow_s", "analyze_s")
CALIBRATION_ROUNDS = 80_000
CALIBRATION_PIECES = 5
# The reference speed: a CPU that runs one calibration piece in exactly this
# long.  An uncontended core of a 2-core Xeon VM (Python 3.11) takes about as long.
CALIBRATION_REF_S = 0.02


class BenchError(Exception):
    """The benchmark cannot run here; nothing is printed on stdout."""


def declared() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]}}


def calibrate_s() -> list[float]:
    """Seconds this CPU takes, right now, for each of a few fixed pieces of work.

    The pieces are pure-Python interpreter work, as in gpanet's hot loops.

    On a shared host the same iteration runs up to 1.7x slower for seconds
    to minutes at a time, whatever this benchmark does, and a run's median
    follows the host.  Every iteration is bracketed by these pieces, and its
    wall_s, grow_s and analyze_s are scaled by CALIBRATION_REF_S over the
    median piece, which leaves the program's own speed.  It runs here in the
    runner, never beside gpanet code.
    """
    pieces = []
    for _ in range(CALIBRATION_PIECES):
        t0 = time.perf_counter()
        table: dict[int, int] = {}
        acc = 0
        for i in range(CALIBRATION_ROUNDS):
            k = (i * 7919) & 4095
            table[k] = table.get(k, 0) + i
            acc += len(str(i)) if i & 3 else table[k] & 255
        pieces.append(time.perf_counter() - t0)
    return pieces


def at_reference_speed(it: dict, key: str) -> float:
    """An iteration's metric, scaled to the reference CPU speed if it is a timing."""
    if key not in SCALED_KEYS:
        return it[key]
    return it[key] * CALIBRATION_REF_S / statistics.median(it["calibration_s"])


def launch(workload: str, seed: int, out: Path, trace: int, smoke: bool,
           timeout: float) -> dict:
    """Run one worker to completion and return its record."""
    args = [sys.executable, str(WORKER), workload, str(seed), str(out),
            str(trace), "1" if smoke else "0"]
    started = time.monotonic()
    proc = subprocess.Popen(args + [repr(started)], cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"worker timed out after {timeout:.0f} s",
                "elapsed_s": time.monotonic() - started}
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        return {"error": f"worker exited {proc.returncode}: {stderr.strip()[-2000:]}",
                "elapsed_s": elapsed}
    record = json.loads(stdout)
    record["elapsed_s"] = elapsed
    return record


def score(iterations: list[dict], reference: dict | None) -> tuple[int, int, list[str]]:
    """Attempted and failed operations over a run, with the reasons.

    An operation fails when its own check found a problem, or when one of
    its output digests differs from the reference (when there is one for
    this seed) or else from the run's first iteration.  A crashed iteration
    counts as one failed operation.
    """
    attempted = failed = 0
    reasons: list[str] = []
    baseline = reference
    for k, it in enumerate(iterations):
        if "problems" not in it:
            attempted += 1
            failed += 1
            reasons.append(f"iteration {k}: {it.get('error', 'no result')}")
            continue
        bad = {op: list(p) for op, p in it["problems"].items() if p}
        if baseline is None:
            baseline = {name: sha for name, (_, sha) in it["digests"].items()}
        for name, (op, sha) in it["digests"].items():
            if baseline.get(name) != sha:
                bad.setdefault(op, []).append(f"digest of {name} differs")
        for name in baseline.keys() - it["digests"].keys():
            bad.setdefault("missing", []).append(f"no output {name}")
        attempted += len(it["problems"]) + ("missing" in bad)
        failed += len(bad)
        reasons += [f"iteration {k}: {op}: {'; '.join(p)}" for op, p in sorted(bad.items())]
    return attempted, failed, reasons


def summarize(values: list[float]) -> dict:
    values = [float(v) for v in values]
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "samples": values}


def provenance(args, warm: dict) -> dict:
    def read(path, key):
        try:
            for line in Path(path).read_text().splitlines():
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    src = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        src.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    git = {"sha": None, "dirty": None}
    if (ROOT / ".git").exists():
        try:
            git["sha"] = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                        capture_output=True, check=True).stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, text=True,
                                    capture_output=True, check=True).stdout
            git["dirty"] = bool(status.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": read("/proc/cpuinfo", "model name") or platform.processor(),
        "mem_total": read("/proc/meminfo", "MemTotal"),
        "platform": platform.platform(),
        "versions": warm["versions"],
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git": git, "src_sha256": src.hexdigest(),
        "calibration": {"rounds": CALIBRATION_ROUNDS, "pieces": CALIBRATION_PIECES,
                        "reference_s": CALIBRATION_REF_S},
    }


def run(args) -> dict:
    if not (ROOT / "src" / "gpanet" / "__init__.py").is_file():
        raise BenchError(f"no gpanet sources under {ROOT / 'src'}")
    t0 = time.monotonic()
    work = OUT / "work" / str(os.getpid())
    warm = launch("warmup", 0, work, 0, args.smoke, RUN_LIMIT_S)
    if "error" in warm:
        raise BenchError(f"cannot import gpanet: {warm['error']}")
    if not Path(warm["gpanet_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"gpanet imported from {warm['gpanet_file']}, not from src/")

    modes = [1, 0] if args.trace else [0]
    iterations: list[dict] = []
    longest = 0.0
    try:
        while True:
            elapsed = time.monotonic() - t0
            enough = len(iterations) >= MIN_ITERATIONS[args.trace]
            if enough and elapsed + longest > args.seconds:
                break
            if iterations and elapsed + longest > RUN_LIMIT_S:
                break
            mode = modes[len(iterations) % len(modes)]
            out = work / f"iter{len(iterations)}"
            before = calibrate_s()
            it = launch(args.workload, args.seed, out, mode, args.smoke,
                        RUN_LIMIT_S - elapsed)
            it["calibration_s"] = before + calibrate_s()
            shutil.rmtree(out, ignore_errors=True)
            it["traced"] = mode
            iterations.append(it)
            longest = max(longest, it["elapsed_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reference = None
    if REFERENCE.is_file() and not args.smoke:
        ref = json.loads(REFERENCE.read_text())
        if ref["seed"] == args.seed:
            reference = ref["workloads"].get(args.workload)
    attempted, failed, reasons = score(iterations, reference)
    good = [it for it in iterations if "problems" in it]
    plain = [it for it in good if not it["traced"]]
    traced = [it for it in good if it["traced"]]
    raw = {key: summarize([it[key] for it in plain]) for key in E2E_KEYS if plain}
    summary = {key: summarize([at_reference_speed(it, key) for it in plain])
               for key in E2E_KEYS if plain}
    layers = {}
    if traced:
        for key in traced[0]["layers"]:
            layers[key] = summarize([it["layers"][key] for it in traced])
        layers["trace.wall_s"] = summarize([it["wall_s"] for it in traced])
        if plain:
            layers["trace.overhead_s"] = summarize(
                [layers["trace.wall_s"]["median"] - raw["wall_s"]["median"]])
    counts_repeat = all(it["layers"][k] == traced[0]["layers"][k]
                        for it in traced for k in traced[0]["layers"]
                        if not k.endswith(("_s", "_p50", "_p99")))
    spans = traced[-1].pop("spans") if traced else None
    for it in traced:
        it.pop("spans", None)
    return {"provenance": provenance(args, warm), "attempted": attempted,
            "failed": failed, "error_rate": failed / max(attempted, 1),
            "failures": reasons, "counts_repeat": counts_repeat,
            "end_to_end": summary, "end_to_end_raw": raw, "per_layer": layers,
            "iterations": iterations, "spans": spans}


def record_reference(result: dict, workload: str, seed: int) -> None:
    if result["failed"] or not result["iterations"]:
        raise BenchError("refusing to record digests from a run with failures")
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    if ref.get("seed", seed) != seed:
        raise BenchError(f"reference.json holds seed {ref['seed']}, not {seed}")
    ref["seed"] = seed
    digests = result["iterations"][0]["digests"]
    ref.setdefault("workloads", {})[workload] = {k: sha for k, (_, sha) in sorted(digests.items())}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, no reference digests: checks that the code paths run")
    ap.add_argument("--record-reference", action="store_true",
                    help="store this run's digests in perfbench/reference.json")
    args = ap.parse_args(argv)
    # turn a termination request into SystemExit so the running worker is reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        names = declared()
        result = run(args)
        if args.record_reference:
            record_reference(result, args.workload, args.seed)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    section = "per_layer" if args.trace else "end_to_end"
    units = names[section]
    metrics = {}
    for name, unit in units.items():
        stats = result[section].get(name)
        if stats is None:
            continue
        metrics[name] = {"value": stats["median"], "unit": unit}
        line = (f"{args.workload:20s} {name:30s} {stats['median']:14.6g} {unit:14s} "
                f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} n={stats['n']}")
        if section == "end_to_end" and name in SCALED_KEYS:
            line += f"  (unscaled median {result['end_to_end_raw'][name]['median']:.6g} s)"
        print(line)
    missing = sorted(units.keys() - metrics.keys())
    if missing:
        result["failures"].append(f"no value for {missing}")

    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    for line in result["failures"]:
        print(f"FAILED {line}")
    if not result["counts_repeat"]:
        print("WARNING: a per-layer count differs between traced iterations")
    print(f"attempted {result['attempted']} failed {result['failed']} "
          f"error_rate {result['error_rate']:.4g}; result file {path.relative_to(ROOT)}")
    print(json.dumps({"correct": result["failed"] == 0 and not missing,
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
