"""Compare two perfbench result files.

    python3 perfbench/compare.py OLD.json NEW.json

Prints, per metric, both medians with quartiles, the ratio new/old and
whether the change is worse than the metric's bound in BENCHMARK.json
(per-layer metrics have no bound).  When both files ran the same workload
and seed, also lists outputs whose digests differ.  Exits 1 when a bound is
exceeded or a digest differs.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def digests(result: dict) -> dict:
    for it in result["iterations"]:
        if "digests" in it:
            return {name: sha for name, (_, sha) in it["digests"].items()}
    return {}


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text()) for p in argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    status = 0
    po, pn = old["provenance"], new["provenance"]
    print(f"old: {po['workload']} seed {po['seed']} git {po['git']['sha']} "
          f"dirty {po['git']['dirty']} src {po['src_sha256'][:12]}")
    print(f"new: {pn['workload']} seed {pn['seed']} git {pn['git']['sha']} "
          f"dirty {pn['git']['dirty']} src {pn['src_sha256'][:12]}")
    if po["workload"] != pn["workload"]:
        print("warning: the files measure different workloads")
    print(f"failed/attempted: old {old['failed']}/{old['attempted']}, "
          f"new {new['failed']}/{new['attempted']}")
    for section in ("end_to_end", "per_layer"):
        for name, a in old[section].items():
            b = new[section].get(name)
            if b is None:
                continue
            spec = specs.get(name, {})
            ratio = b["median"] / a["median"] if a["median"] else float("nan")
            verdict = ""
            if "bound" in spec:
                worse = ratio - 1.0 if spec["better"] == "lower" else 1.0 - ratio
                if worse > spec["bound"]:
                    verdict = f"WORSE than bound {spec['bound']}"
                    status = 1
            print(f"{name:30s} old {a['median']:.6g} [{a['q1']:.6g}, {a['q3']:.6g}] n={a['n']}"
                  f"  new {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}] n={b['n']}"
                  f"  new/old {ratio:.4f} {verdict}")
    if (po["workload"], po["seed"], po["smoke"]) == (pn["workload"], pn["seed"], pn["smoke"]):
        da, db = digests(old), digests(new)
        for name in sorted(da.keys() | db.keys()):
            if da.get(name) != db.get(name):
                print(f"output {name}: digest differs")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
