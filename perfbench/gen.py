"""Seeded input generator for the benchmark's three workloads.

A workload is a list of simulation configs.  Its seed fixes everything:
the synthetic availability traces of the churn workloads and the arrival
seed written into each config.  The same seed gives byte-identical files,
because every draw comes from a `random.Random` keyed by the workload name,
the seed and the stream or rate, and every number written is rounded.

A workload replays several streams (a trace plus arrival seeds) so that one
run averages over them.  With cv 6, one gamma stream's request count varies
by about 30 % and its host time by a factor of four, mostly with how bursty
it is.  So arrival seeds are drawn until the stream delivers the configured
rate within `LOAD_TOL`, and a run's streams cover the burstiness range in
strata (see `arrival_seeds`).

Run from the repository root:

    PYTHONPATH=src python3 perfbench/gen.py <outdir> --seed 1
"""

import argparse
import json
import os
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spotsim.workload import gamma_arrivals

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "spotsim" / "data"
SCENARIO = DATA / "scenario_bs.json"

LOAD_TOL = 0.05  # accepted |arrivals - rate*duration| / (rate*duration)
MAX_DRAWS = 10_000
POOL = 16  # candidate arrival seeds per stratum
GRACE_S = 30.0
READY_IN_S = 120.0


@dataclass(frozen=True)
class ChurnSpec:
    """Shape of one synthetic availability trace and the runs replayed on it."""

    profile: str  # bundled profile file name
    instances: int  # instances up at t=0
    duration: float  # trace and simulation horizon, seconds
    mean_gap: float  # seconds between bursts, jittered by a quarter
    burst_max: int  # a burst preempts or acquires 1..burst_max instances
    first: str  # kind of the first burst; kinds then alternate
    policies: tuple[str, ...]
    rate: float
    cv: float


CHURN = {
    # Reactive baselines on a long trace: the mapper and planner never run,
    # so this isolates the event loop and the dispatch path.  Acquisitions
    # lead, so the fixed-shape baseline mostly keeps its three pipelines.
    "reactive-churn": ChurnSpec(
        profile="profile_gpt20b.json", instances=12, duration=7200.0, mean_gap=300.0,
        burst_max=2, first="acquire", policies=("rerouting", "reparallelization"),
        rate=0.55, cv=6.0,
    ),
    # Proactive policy on a 64-GPU fleet: preemptions lead, so each burst
    # shrinks the fleet and moves the tensor-shard degree, and the mapper's
    # graph and the planner's transfer sets are large.
    "fleet-churn": ChurnSpec(
        profile="profile_llama30b.json", instances=16, duration=2400.0, mean_gap=150.0,
        burst_max=3, first="preempt", policies=("spotserve",), rate=0.5, cv=6.0,
    ),
}

# The bundled case study at the ROADMAP's three rates.
CASE_STUDY_RATES = (0.25, 0.35, 0.55)

# Streams per workload, sized so one pass takes 16-24 s at reference speed,
# 25-50 host seconds on a shared 2-core machine (see README.md).
STREAMS = {"case-study": 6, "reactive-churn": 7, "fleet-churn": 2}
WORKLOADS = tuple(STREAMS)


def churn_trace(spec: ChurnSpec, rng: random.Random) -> list[dict]:
    """Alternate bursts of one kind and the other, each of k instances.

    Bursts fall one per `mean_gap` slot, jittered by a quarter slot.  A burst
    of k preemptions is followed by k acquisitions and vice versa, so the
    fleet oscillates between `instances` and `instances -/+ k`; k cycles
    through 1..burst_max from a seeded start.  Every seed thus gives the same
    number and mix of bursts, and varies their timing and which instances go.
    Only instances that are up (acquired, booted, not in grace) are preempted.
    """
    events = [{"t": 0.0, "kind": "acquire", "id": f"i-{i}", "itype": "spot", "ready_in": 0.0}
              for i in range(spec.instances)]
    ready_at = {f"i-{i}": 0.0 for i in range(spec.instances)}
    next_id = spec.instances
    kind, k = spec.first, rng.randint(1, spec.burst_max)
    for slot in range(1, int((spec.duration - GRACE_S) // spec.mean_gap)):
        t = round((slot + rng.uniform(-0.25, 0.25)) * spec.mean_gap, 1)
        if kind == "preempt":
            up = sorted((i for i, r in ready_at.items() if r <= t), key=lambda i: int(i[2:]))
            for inst in sorted(rng.sample(up, min(k, len(up))), key=lambda i: int(i[2:])):
                events.append({"t": t, "kind": "preempt", "id": inst, "grace": GRACE_S})
                del ready_at[inst]
        else:
            for _ in range(k):
                inst = f"i-{next_id}"
                next_id += 1
                events.append({"t": t, "kind": "acquire", "id": inst, "itype": "spot",
                               "ready_in": READY_IN_S})
                ready_at[inst] = t + READY_IN_S
        if kind != spec.first:
            k = k % spec.burst_max + 1
        kind = "acquire" if kind == "preempt" else "preempt"
    return events


def backlog(times, mu: float) -> float:
    """Summed waits of the arrivals at a FIFO server that takes 1/mu each.

    A proxy for how much queueing, and so how much engine work, a stream's
    bursts cause; it tracks host time per simulation closely.  The waits
    follow Lindley's recursion w = max(0, w_prev + 1/mu - gap), whose closed
    form is the running sum of (1/mu - gap) minus its running minimum.
    """
    if len(times) == 0:
        return 0.0
    service = 1.0 / mu
    steps = np.concatenate(([0.0], np.cumsum(service - np.diff(times))))
    return float((steps - np.minimum.accumulate(steps)).sum() + service * len(times))


def arrival_seeds(rng: random.Random, rate: float, cv: float, duration: float,
                  n: int) -> list[int]:
    """n arrival seeds, one per burstiness stratum.

    Candidates are drawn until their gamma arrivals hit rate*duration within
    LOAD_TOL; POOL of them per stratum are ranked by `backlog` at a server
    10 % faster than the rate, and the middle one of each stratum is kept.
    Every run thus covers the calm and the bursty end of the process in the
    same proportions.  Stream 0 gets the middle stratum.
    """
    target = rate * duration
    pool = []
    for _ in range(MAX_DRAWS):
        seed = rng.randrange(2**31)
        times = gamma_arrivals(rate, cv, duration, seed)
        if abs(len(times) - target) <= LOAD_TOL * target:
            pool.append((backlog(times, 1.1 * rate), seed))
            if len(pool) == n * POOL:
                break
    else:
        raise RuntimeError(f"too few arrival seeds within {LOAD_TOL:.0%} of {target} requests")
    picks = [seed for _, seed in sorted(pool)[POOL // 2::POOL]]
    return picks[n // 2:] + picks[:n // 2]


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def case_study_configs(seed: int, outdir: Path, streams: int) -> list[Path]:
    doc = json.loads(SCENARIO.read_text())
    doc["profile"] = os.path.relpath(DATA / doc["profile"], outdir)
    doc["trace"] = os.path.relpath(DATA / doc["trace"], outdir)
    wl = doc["workload"]
    seeds = {rate: arrival_seeds(random.Random(f"case-study:{seed}:{rate}"), rate, wl["cv"],
                                 doc["duration"], STREAMS["case-study"])
             for rate in CASE_STUDY_RATES}
    paths = []
    for stream in range(streams):
        for rate in CASE_STUDY_RATES:
            cell = dict(doc, workload=dict(wl, rate=rate, seed=seeds[rate][stream]))
            paths.append(_write_json(outdir / f"s{stream}-spotserve-{rate}.json", cell))
    return paths


def churn_configs(name: str, seed: int, outdir: Path, streams: int) -> list[Path]:
    spec = CHURN[name]
    seeds = arrival_seeds(random.Random(f"{name}:{seed}:arrivals"), spec.rate, spec.cv,
                          spec.duration, STREAMS[name])
    paths = []
    for stream in range(streams):
        trace_name = f"trace-s{stream}.jsonl"
        trace = churn_trace(spec, random.Random(f"{name}:{seed}:{stream}"))
        (outdir / trace_name).write_text("".join(json.dumps(e) + "\n" for e in trace))
        paths += [_write_json(outdir / f"s{stream}-{policy}-{spec.rate}.json",
                              churn_config(spec, trace_name, outdir, policy, seeds[stream]))
                  for policy in spec.policies]
    return paths


def churn_config(spec: ChurnSpec, trace_name: str, outdir: Path, policy: str,
                 arrival_seed: int) -> dict:
    return {
        "profile": os.path.relpath(DATA / spec.profile, outdir),
        "trace": trace_name,
        "workload": {"kind": "fixed_rate", "rate": spec.rate, "cv": spec.cv,
                     "seed": arrival_seed},
        "policy": policy,
        "duration": spec.duration,
        "pool_size": 2,
        "gpus_per_instance": 4,
        "u_max": 4.0e9,
        "s_in": 512,
        "s_out": 128,
        "grace_default": GRACE_S,
        "ready_default": READY_IN_S,
        "rate_source": "declared",
        "rerouting_shape": [2, 8, 2],
    }


def generate(name: str, seed: int, outdir: str | Path, streams: int | None = None) -> list[Path]:
    """Write the input files of workload `name`; return its config paths in order.

    `streams` keeps only the first streams; each is the same as in the full
    workload.
    """
    if name not in STREAMS:
        raise ValueError(f"unknown workload {name!r}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    n = STREAMS[name] if streams is None else min(streams, STREAMS[name])
    if name == "case-study":
        return case_study_configs(seed, outdir, n)
    return churn_configs(name, seed, outdir, n)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("outdir")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    for name in WORKLOADS:
        for path in generate(name, args.seed, Path(args.outdir) / name):
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
