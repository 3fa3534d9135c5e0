"""spotsim benchmark: host time per replay and per control decision.

Usage, from the repository root:

    python3 perfbench/run.py --workload case-study --seed 1 --seconds 30 --trace 0

With `--trace 0` it measures the end-to-end metrics; with `--trace 1` it
makes the separate traced run and reports the per-layer metrics.  The metric
names and units are the ones `BENCHMARK.json` lists.  Progress and details go
to earlier lines; the last line of standard output is the result object.
Exit code 2 means the benchmark could not run (no spotsim sources here, or a
bad argument).  See README.md in this directory for the workloads.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="spotsim benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "spotsim" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no spotsim sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import spotsim
    if Path(spotsim.__file__).resolve().parent != SRC / "spotsim":
        print(f"error: imported spotsim from {spotsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import bench
    if args.workload not in bench.gen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {bench.gen.WORKLOADS}",
              file=sys.stderr)
        return 2

    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    workdir = WORKDIR / args.workload / f"seed-{args.seed}"
    if args.trace:
        result = bench.traced_run(args.workload, args.seed, workdir)
    else:
        result = bench.measured_run(args.workload, args.seed, args.seconds, workdir)

    produced = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in produced]
    extra = sorted(set(produced) - {m["name"] for m in wanted})
    if missing or extra:
        print(f"error: metrics missing {missing}, not declared {extra}", file=sys.stderr)
        return 2
    for name, errors in result["errors"].items():
        for e in errors:
            print(f"FAIL {name}: {e}", file=sys.stderr)
    for name, model in result["model"].items():
        print(f"sim {name} {json.dumps(model, sort_keys=True)}")
    print(f"info {json.dumps(result['info'], sort_keys=True)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": produced[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
