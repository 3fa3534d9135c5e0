"""Print the SHA-256 of every migration plan one simulation builds, and of
its report.

Each plan `spotsim.simulator.plan_migration` returns during the run is hashed
as its `plan_to_dict` JSON (sorted keys), one line per plan in build order; an
`all` line hashes the whole sequence.  A last `report` line hashes the request
CSV plus summary JSON the `run` command writes, as `tests/test_golden.py`
hashes them.  Two source trees whose simulations emit byte-identical plans
and reports print the same lines, so one `diff` of this output compares them.

Run from the repo root:
    PYTHONPATH=src python tools/plan_digests.py [--config PATH] [--rate R]
        [--policy spotserve|rerouting|reparallelization] [--disable controller,planner,...]

Only spotserve builds migration plans; the other policies print just the
`all 0` and `report` lines.
"""

import argparse
import hashlib
import json
import tempfile
from dataclasses import replace
from pathlib import Path

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
    """Simulate `cfg`: its report and the digests of the plans it built, in
    build order."""
    digests: list[str] = []
    original = sim.plan_migration

    def recording(*args, **kwargs):
        plan = original(*args, **kwargs)
        digests.append(plan_digest(plan))
        return plan

    sim.plan_migration = recording
    try:
        report = sim.run(cfg)
    finally:
        sim.plan_migration = original
    return report, digests


def plan_digests(cfg) -> list[str]:
    """Digests of the plans built while simulating `cfg`, in build order."""
    return recorded_run(cfg)[1]


def combined_digest(digests: list[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--config", default=str(bundled_path("scenario_bs.json")))
    ap.add_argument("--rate", type=float, help="override a fixed_rate workload's rate")
    ap.add_argument("--policy", choices=POLICIES, help="override the config's policy")
    ap.add_argument("--disable", default="", help="comma-separated spotserve features")
    args = ap.parse_args(argv)
    cfg = load_simconfig(args.config)
    if args.rate is not None:
        cfg = replace(cfg, workload=replace(cfg.workload, rate=args.rate))
    if args.policy is not None:
        cfg = replace(cfg, policy=args.policy)
    if args.disable:
        cfg = replace(cfg, disable=tuple(args.disable.split(",")))
    report, digests = recorded_run(cfg)
    for i, digest in enumerate(digests):
        print(f"plan {i} {digest}")
    print(f"all {len(digests)} {combined_digest(digests)}")
    print(f"report {report_digest(report)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
