"""Print the SHA-256 of every migration plan one simulation builds, and of
its report.

Each plan `spotsim.simulator.plan_migration` returns during the run is hashed
as its `plan_to_dict` JSON (sorted keys), one line per plan in build order; an
`all` line hashes the whole sequence.  A `derivations` line counts the
`derive_transfers` calls made through either module binding
(`spotsim.simulator` or `spotsim.migration`).  A `mappings` line counts the
`spotsim.simulator.map_devices` calls and hashes their results in call order,
each as its sorted assignment plus the `repr` of its total weight.  A last
`report` line hashes the request CSV plus summary JSON the `run` command
writes, as `tests/test_golden.py` hashes them.  Two source trees whose
simulations emit byte-identical mappings, plans and reports, from as many
derivations, print the same lines, so one `diff` of this output compares them.

`--config` may be given several times (the bundled scenario when it is not
given); each config's lines follow a `config PATH` header, and `--rate`,
`--policy` and `--disable` apply to every config.  Run from the repo root:
    PYTHONPATH=src python tools/plan_digests.py [--config PATH ...] [--rate R]
        [--policy spotserve|rerouting|reparallelization] [--disable controller,planner,...]

Only spotserve maps devices and builds migration plans; the other policies
print just the `all 0`, `derivations 0`, `mappings 0` and `report` lines.

Identity sweep: 483 runs, the 68 benchmark configs `perfbench/gen.py` writes
at seeds 1 and 7 plus the bundled scenario, each run as spotserve, its four
cumulative ablations, rerouting and reparallelization.  Write the configs
once into `$d`, run the block below from the root of each source tree with
the same `$d` (so the `config` headers match) and that tree's name in
`$tree` (`old` or `new`), then `diff` the two outputs:
    d=$(mktemp -d)
    PYTHONPATH=src python3 perfbench/gen.py $d/s1 --seed 1
    PYTHONPATH=src python3 perfbench/gen.py $d/s7 --seed 7

    configs="$(for f in $d/s1/*/*.json $d/s7/*/*.json; do printf -- '--config %s ' $f; done)"
    configs="$configs --config src/spotsim/data/scenario_bs.json"
    off="controller controller,planner controller,planner,arranger controller,planner,arranger,mapper"
    { for v in "" $off; do
        PYTHONPATH=src python3 tools/plan_digests.py $configs ${v:+--disable $v}
      done
      for p in rerouting reparallelization; do
        PYTHONPATH=src python3 tools/plan_digests.py $configs --policy $p
      done; } > $d/sweep-$tree.txt

    diff $d/sweep-old.txt $d/sweep-new.txt
"""

import argparse
import hashlib
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import spotsim.migration as migration
import spotsim.simulator as sim
from spotsim.data import bundled_path
from spotsim.metrics import write_request_csv, write_summary_json
from spotsim.migration import plan_to_dict
from spotsim.simconfig import POLICIES, load_simconfig


def plan_digest(plan) -> str:
    doc = json.dumps(plan_to_dict(plan), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()


def report_digest(report) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, json_path = Path(tmp) / "requests.csv", Path(tmp) / "summary.json"
        write_request_csv(report, csv_path)
        write_summary_json(report, json_path)
        return hashlib.sha256(csv_path.read_bytes() + json_path.read_bytes()).hexdigest()


def recorded_run(cfg):
    """Simulate `cfg`: its report, the digests of the plans it built in build
    order, its number of `derive_transfers` calls, and the records of its
    `map_devices` results in call order."""
    digests: list[str] = []
    mappings: list[str] = []
    derivations = 0
    plan, derive, mig_derive = sim.plan_migration, sim.derive_transfers, migration.derive_transfers
    map_devices = sim.map_devices

    def recording(*args, **kwargs):
        built = plan(*args, **kwargs)
        digests.append(plan_digest(built))
        return built

    def recording_mapping(*args, **kwargs):
        mapping = map_devices(*args, **kwargs)
        mappings.append(repr(sorted(mapping.assignment.items())) + repr(mapping.total_weight))
        return mapping

    def counting(fn):
        def counted(*args, **kwargs):
            nonlocal derivations
            derivations += 1
            return fn(*args, **kwargs)
        return counted

    sim.plan_migration, sim.map_devices = recording, recording_mapping
    sim.derive_transfers, migration.derive_transfers = counting(derive), counting(mig_derive)
    try:
        report = sim.run(cfg)
    finally:
        sim.plan_migration, sim.map_devices = plan, map_devices
        sim.derive_transfers, migration.derive_transfers = derive, mig_derive
    return report, digests, derivations, mappings


def plan_digests(cfg) -> list[str]:
    """Digests of the plans built while simulating `cfg`, in build order."""
    return recorded_run(cfg)[1]


def combined_digest(digests: list[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--config", action="append",
                    help="simulation config; repeat for several (default: bundled scenario)")
    ap.add_argument("--rate", type=float, help="override a fixed_rate workload's rate")
    ap.add_argument("--policy", choices=POLICIES, help="override the config's policy")
    ap.add_argument("--disable", default="", help="comma-separated spotserve features")
    args = ap.parse_args(argv)
    for path in args.config or [str(bundled_path("scenario_bs.json"))]:
        cfg = load_simconfig(path)
        if args.rate is not None:
            cfg = replace(cfg, workload=replace(cfg.workload, rate=args.rate))
        if args.policy is not None:
            cfg = replace(cfg, policy=args.policy)
        if args.disable:
            cfg = replace(cfg, disable=tuple(args.disable.split(",")))
        report, digests, derivations, mappings = recorded_run(cfg)
        print(f"config {path}")
        for i, digest in enumerate(digests):
            print(f"plan {i} {digest}")
        print(f"all {len(digests)} {combined_digest(digests)}")
        print(f"derivations {derivations}")
        print(f"mappings {len(mappings)} {combined_digest(mappings)}")
        print(f"report {report_digest(report)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
