"""Command-line entry point: single runs, sweeps, and ablation studies.

Outputs are long-format CSV plus a JSON summary and a manifest that fully
reproduces the run.  Exit codes: 0 ok, 2 configuration/input error, 3 runtime
failure.
"""

import argparse
import csv
import itertools
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .costmodel import ProfileError
from .metrics import write_request_csv, write_summary_json
from .simconfig import (
    SimConfig,
    SimConfigError,
    TraceError,
    load_simconfig,
    simconfig_to_dict,
)
from .simulator import run as run_sim
from .workload import WorkloadError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _outdir(args) -> Path:
    out = args.outdir or os.environ.get("SPOTSIM_OUTDIR") or "results"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _with_workload(cfg: SimConfig, what: str, **changes) -> SimConfig:
    """`cfg` with `changes` to its fixed-rate workload; `what` names the
    change in the error any other workload raises."""
    if cfg.workload.kind != "fixed_rate":
        raise SimConfigError(f"{what} needs a fixed_rate workload")
    return replace(cfg, workload=replace(cfg.workload, **changes))


def _write_table(path: Path, header: list[str], rows: list[list]):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _apply_overrides(cfg: SimConfig, args) -> SimConfig:
    if getattr(args, "rate", None) is not None:
        cfg = _with_workload(cfg, "--rate override", rate=args.rate)
    if getattr(args, "seed", None) is not None:
        cfg = _with_workload(cfg, "--seed override", seed=args.seed)
    if getattr(args, "trace", None):
        cfg = replace(cfg, trace_path=args.trace)
    if getattr(args, "profile", None):
        cfg = replace(cfg, profile_path=args.profile)
    if getattr(args, "duration", None) is not None:
        cfg = replace(cfg, duration=args.duration)
    return cfg


def _manifest(cfg: SimConfig, seeds, outputs) -> dict:
    return {
        "version": __version__,
        "config": simconfig_to_dict(cfg),
        "seeds": seeds,
        "outputs": outputs,
    }


def _run_one(cfg: SimConfig, outdir: Path, tag: str) -> dict:
    report = run_sim(cfg)
    csv_path = outdir / f"requests_{tag}.csv"
    json_path = outdir / f"summary_{tag}.json"
    write_request_csv(report, csv_path)
    write_summary_json(report, json_path)
    summary = report.summary_dict()
    summary["policy"] = cfg.policy
    summary["outputs"] = {"requests_csv": str(csv_path), "summary_json": str(json_path)}
    return summary


def cmd_run(args) -> int:
    cfg = _apply_overrides(load_simconfig(args.config), args)
    policies = args.policy.split(",") if args.policy else [cfg.policy]
    cells = [replace(cfg, policy=policy) for policy in policies]  # checks every name
    outdir = _outdir(args)
    outputs = {}
    for one in cells:
        summary = _run_one(one, outdir, one.policy)
        outputs[one.policy] = summary["outputs"]
        print(f"[{one.policy}] completed={summary['completed']}/{summary['arrived']}"
              f" p99={summary['p99']!r} avg={summary['avg_latency']!r}"
              f" usd={summary['total_usd']:.4f}")
    seeds = [cfg.workload.seed] if cfg.workload.kind == "fixed_rate" else []
    manifest = _manifest(cfg, seeds, outputs)
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return EXIT_OK


SWEEP_FIELDS = ["rate", "policy", "trace", "seed", "metric", "value"]
SWEEP_METRICS = ("avg_latency", "p50", "p90", "p99", "completed", "arrived",
                 "unfinished", "queued_at_horizon", "tokens_served", "total_usd")


def cmd_sweep(args) -> int:
    cfg = _apply_overrides(load_simconfig(args.config), args)
    try:
        rates = [float(r) for r in args.rates.split(",")] if args.rates else [None]
    except ValueError:
        raise SimConfigError(f"--rates needs comma-separated numbers, not {args.rates!r}") from None
    policies = args.policies.split(",") if args.policies else [cfg.policy]
    traces = args.traces.split(",") if args.traces else [None]
    cells = []  # every cell is built, and so checked, before any runs
    for rate, policy, trace in itertools.product(rates, policies, traces):
        cell = replace(cfg, policy=policy, trace_path=cfg.trace_path if trace is None else trace)
        if rate is not None:
            cell = _with_workload(cell, "rate sweep", rate=rate)
        cells.append((rate, cell))
    outdir = _outdir(args)
    rows = []
    for rate, cell in cells:
        summary = run_sim(cell).summary_dict()
        seed = cell.workload.seed if cell.workload.kind == "fixed_rate" else ""
        for metric in SWEEP_METRICS:
            rows.append(["" if rate is None else rate, cell.policy,
                         cell.trace_path, seed, metric, summary[metric]])
    path = outdir / "sweep.csv"
    _write_table(path, SWEEP_FIELDS, rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


# Cumulative feature removals, in the reference ablation order.
ABLATION_VARIANTS = [
    ("full", ()),
    ("-controller", ("controller",)),
    ("-planner", ("controller", "planner")),
    ("-arranger", ("controller", "planner", "arranger")),
    ("-mapper", ("controller", "planner", "arranger", "mapper")),
]


def cmd_ablate(args) -> int:
    cfg = _apply_overrides(load_simconfig(args.config), args)
    if cfg.policy != "spotserve":
        raise SimConfigError("ablation applies to the spotserve policy")
    outdir = _outdir(args)
    rows = []
    for name, disable in ABLATION_VARIANTS:
        variant = replace(cfg, disable=disable)
        report = run_sim(variant)
        summary = report.summary_dict()
        rows.append([name, ",".join(disable), summary["p99"], summary["avg_latency"],
                     summary["completed"], summary["arrived"]])
        print(f"[{name:<11}] p99={summary['p99']!r} avg={summary['avg_latency']!r}")
    path = outdir / "ablation.csv"
    _write_table(path, ["variant", "disabled", "p99", "avg_latency", "completed", "arrived"], rows)
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spotsim",
        description="Trace-driven simulator for serving LLMs on preemptible instances",
    )
    ap.add_argument("--outdir", help="output directory (or $SPOTSIM_OUTDIR; default ./results)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    run_p = sub.add_parser("run", help="run one simulation (optionally several policies)")
    run_p.add_argument("config", help="simulation config JSON")
    run_p.add_argument("--policy", help="comma-separated policies sharing one seed")
    run_p.add_argument("--rate", type=float)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--trace")
    run_p.add_argument("--profile")
    run_p.add_argument("--duration", type=float)
    run_p.set_defaults(fn=cmd_run)

    sweep_p = sub.add_parser("sweep", help="cartesian sweep over rates/policies/traces")
    sweep_p.add_argument("config")
    sweep_p.add_argument("--rates", help="comma-separated arrival rates")
    sweep_p.add_argument("--policies", help="comma-separated policies")
    sweep_p.add_argument("--traces", help="comma-separated trace paths")
    sweep_p.add_argument("--seed", type=int)
    sweep_p.set_defaults(fn=cmd_sweep)

    abl_p = sub.add_parser("ablate", help="cumulative feature-removal study")
    abl_p.add_argument("config")
    abl_p.add_argument("--rate", type=float)
    abl_p.add_argument("--seed", type=int)
    abl_p.set_defaults(fn=cmd_ablate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SimConfigError, TraceError, ProfileError, WorkloadError, FileNotFoundError,
            FileExistsError, IsADirectoryError, NotADirectoryError, PermissionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # noqa: BLE001 - surface anything else as runtime failure
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
