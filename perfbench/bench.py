"""Set up, replay, check and measure one benchmark workload.

A run replays every simulation of the workload through `spotsim.simulator.run`
and writes each report with the metrics module's CSV and JSON writers, as the
`run` command does.  Passes over the workload repeat while another fits in
the time budget.  The benchmark times each simulation and each policy
decision from outside, in host seconds scaled to a reference speed (see
`speed.py`); the traced run (`traced_run`) instead wraps every
layer's public functions and reports per-layer counts and times.
"""

import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
from checks import REFERENCE_SEQUENCE, check_report, digest, reconfig_seq
from spotsim.costmodel import load_profile
from spotsim.data import bundled_path
from spotsim.metrics import write_request_csv, write_summary_json
from spotsim.simconfig import SimConfig, load_simconfig, load_trace
from spotsim.simulator import run
from spotsim.workload import gamma_arrivals
from speed import SpeedClock, probe_seconds, scaled
from tracing import DecisionTimer, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 3  # set-ups per run; setup_s is their median

TAIL_BEYOND = 10  # decisions beyond the tail percentile on the info line

IMPORT_PROBE = ("import time; t = time.perf_counter(); import spotsim.cli; "
                "print(time.perf_counter() - t)")


@dataclass
class Sim:
    """One simulation of a workload and what its checks need."""

    name: str
    cfg: SimConfig
    arrivals: list[float]
    reference: list[tuple[int, int, int]] | None = None


@dataclass
class Outcome:
    """Everything one pass learned about one simulation."""

    seconds: float
    errors: list[str]
    model: dict = field(default_factory=dict)


def import_seconds() -> float:
    """Seconds to import the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def prepare(workload: str, seed: int, workdir: Path, streams: int | None = None) -> list[Sim]:
    """Generate the workload's inputs and load them as `run` will."""
    paths = gen.generate(workload, seed, workdir / "inputs", streams)
    if workload == "case-study":
        paths.insert(0, bundled_path("scenario_bs.json"))
    sims = []
    for path in paths:
        cfg = load_simconfig(path)
        load_profile(cfg.profile_path)
        load_trace(cfg.trace_path, cfg.grace_default, cfg.ready_default)
        wl = cfg.workload
        arrivals = gamma_arrivals(wl.rate, wl.cv, cfg.duration, wl.seed).tolist()
        bundled = path == paths[0] and workload == "case-study"
        sims.append(Sim(name="reference" if bundled else Path(path).stem, cfg=cfg,
                        arrivals=arrivals, reference=REFERENCE_SEQUENCE if bundled else None))
    return sims


def setup(workload: str, seed: int, workdir: Path, streams: int | None = None,
          times: int = SETUPS) -> tuple[list[Sim], list[float]]:
    """Set up `times` times; return the simulations and each set-up's seconds.

    One set-up is a fresh interpreter's import of the package plus input
    generation and loading in this process.  Its seconds are scaled by the
    speed probes taken before and after it.
    """
    samples = []
    before = probe_seconds()
    for _ in range(times):
        imported = import_seconds()
        t0 = time.perf_counter()
        sims = prepare(workload, seed, workdir, streams)
        seconds = imported + time.perf_counter() - t0
        after = probe_seconds()
        samples.append(scaled(seconds, before, after))
        before = after
    return sims, samples


def write_outputs(report, csv_path: Path, json_path: Path):
    write_request_csv(report, csv_path)
    write_summary_json(report, json_path)


class WallClock:
    """Stopwatch of plain host seconds, with `SpeedClock`'s interface."""

    def start(self):
        self._t0 = time.perf_counter()

    def stop(self) -> float:
        self.last_raw = time.perf_counter() - self._t0
        return self.last_raw


def replay(sims: list[Sim], outdir: Path, write=write_outputs,
           clock=None) -> dict[str, Outcome]:
    """Run every simulation once; time it with `clock`, then check its report."""
    outdir.mkdir(parents=True, exist_ok=True)
    clock = clock or WallClock()
    out = {}
    for sim in sims:
        csv_path, json_path = outdir / f"{sim.name}.csv", outdir / f"{sim.name}.json"
        clock.start()
        try:
            report = run(sim.cfg)
            write(report, csv_path, json_path)
        except Exception as e:  # noqa: BLE001 - a raising simulation is a counted failure
            out[sim.name] = Outcome(clock.stop(), [f"raised {type(e).__name__}: {e}"])
            continue
        seconds = clock.stop()
        errors = check_report(report, sim.arrivals, sim.cfg.duration, sim.reference)
        out[sim.name] = Outcome(seconds, errors, {
            "p99_s": report.p99, "completed": report.completed, "arrived": report.arrived,
            "total_usd": report.cost.total_usd,
            "reconfig_seq": [list(s) for s in reconfig_seq(report)],
            "digest": digest(csv_path, json_path),
        })
    return out


def source_fingerprint() -> str:
    """Hash of the program's and the benchmark's source files."""
    h = hashlib.sha256()
    for base in (SRC / "spotsim", Path(__file__).resolve().parent):
        for path in sorted(p for p in base.rglob("*") if p.suffix in (".py", ".json", ".jsonl")):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class DigestStore:
    """Report digests of earlier runs in this checkout, per workload and seed.

    The first run of a (workload, seed) records them; every later pass and
    run of the same program and benchmark sources must reproduce them byte
    for byte.  Changed sources start a fresh record, since a correctness fix
    may change reports legitimately.
    """

    def __init__(self, path: Path, workload: str, seed: int):
        self.path = path
        self.key = f"{workload}/{seed}/{source_fingerprint()}"
        self.doc = json.loads(path.read_text()) if path.exists() else {}

    def check(self, outcomes: dict[str, Outcome]):
        known = self.doc.setdefault(self.key, {})
        for name, o in outcomes.items():
            d = o.model.get("digest")
            if d is None:
                continue
            if known.setdefault(name, d) != d:
                o.errors.append(f"report digest {d[:12]} differs from the first run's "
                                f"{known[name][:12]}")

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.doc, indent=1, sort_keys=True) + "\n")
        tmp.replace(self.path)


def tail_percentile(samples: list[float]) -> tuple[float, int, int]:
    """The highest whole nearest-rank percentile with at least TAIL_BEYOND
    samples above its rank: (value, percentile, samples above)."""
    ordered = sorted(samples)
    n = len(ordered)
    q = max(0, 100 * (n - TAIL_BEYOND) // n)
    k = min(n - 1, max(0, math.ceil(q * n / 100) - 1))
    return ordered[k], q, n - 1 - k


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measured_run(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    """Untraced passes within `seconds`; every end-to-end metric."""
    sims, setups = setup(workload, seed, workdir)
    store = DigestStore(workdir.parent / "digests.json", workload, seed)
    per_sim: dict[str, list[float]] = {s.name: [] for s in sims}
    passes: list[dict[str, Outcome]] = []
    clock = SpeedClock()
    t_start = time.perf_counter()
    with DecisionTimer(clock) as decisions:
        while True:
            t0 = time.perf_counter()
            outcomes = replay(sims, workdir / "out", clock=clock)
            pass_s = time.perf_counter() - t0
            store.check(outcomes)
            passes.append(outcomes)
            for name, o in outcomes.items():
                per_sim[name].append(o.seconds)
            if time.perf_counter() - t_start + pass_s > seconds:
                break
    store.save()
    decide = [s * 1e3 for s in decisions.samples]
    tail, q, beyond = tail_percentile(decide)
    metrics = {
        "wall_s": sum(statistics.median(v) for v in per_sim.values()),
        "decide_ms_p50": statistics.median(decide),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {"passes": len(passes), "simulations": len(sims), "decisions": len(decide),
            "decide_ms_tail": tail, "decide_tail_percentile": q,
            "decisions_beyond_tail": beyond,
            "setup_samples_s": setups, "sim_seconds": per_sim,
            "host_s": clock.raw, "scaled_s": clock.scaled}
    return _result(passes, metrics, info)


def traced_run(workload: str, seed: int, workdir: Path) -> dict:
    """Passes over the first stream: untraced, traced, untraced; per-layer metrics.

    The untraced host time is the mean of the passes around the traced one,
    so the first pass's warm-up does not pass for tracing overhead.
    """
    sims, _ = setup(workload, seed, workdir, streams=1, times=1)
    store = DigestStore(workdir.parent / "digests.json", workload, seed)
    before = replay(sims, workdir / "out")
    with Tracer() as tracer:
        traced = replay(sims, workdir / "out", write=tracer.spanned("metrics.write_outputs",
                                                                     write_outputs))
    after = replay(sims, workdir / "out")
    for outcomes in (before, traced, after):
        store.check(outcomes)
    store.save()
    wall = sum(o.seconds for o in traced.values())
    untraced = sum(o.seconds for p in (before, after) for o in p.values()) / 2
    metrics = layer_metrics(tracer)
    hot = metrics["domain.overlap_bytes.s"] + metrics["migration.derive_transfers.s"]
    metrics.update({
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_ratio": wall / untraced,
        "trace.overlap_derive_share": hot / wall,
    })
    tracer.write(workdir / "spans.json", {"workload": workload, "seed": seed,
                                          "simulations": [s.name for s in sims]})
    return _result([before, traced, after], metrics,
                   {"spans": len(tracer.spans), "spans_file": str(workdir / "spans.json")})


def _result(passes: list[dict[str, Outcome]], metrics: dict, info: dict) -> dict:
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for o in p.values() if o.errors)
    return {
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "info": {**info, "failed_frac": failed / attempted},
        "errors": {name: o.errors for p in passes for name, o in p.items() if o.errors},
        "model": {name: o.model for name, o in passes[0].items()},
    }
