"""Aggregate serving metrics over per-request records (`domain.RequestRecord`)."""

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .costmodel import CostSummary
from .domain import RequestRecord


def percentile(values, q: float) -> float:
    """Nearest-rank-above percentile: the ceil(q% * n)-th smallest, counting up.

    percentile([1..100], 99) is 100 and the result is always a sample value.
    """
    if not len(values):
        raise ValueError("percentile of empty data")
    ordered = sorted(values)
    k = math.ceil(q / 100.0 * len(ordered))
    return ordered[min(max(k, 0), len(ordered) - 1)]


def accumulated_max(values) -> list[float]:
    out, cur = [], -math.inf
    for v in values:
        cur = max(cur, v)
        out.append(cur)
    return out


@dataclass
class MetricsReport:
    records: list[RequestRecord]
    horizon: float
    avg_latency: float | None
    p50: float | None
    p90: float | None
    p99: float | None
    accumulated_max_latency: list[float]
    tokens_served: int
    cost: CostSummary
    reconfigurations: list[tuple[float, tuple[int, int, int, int], float]]
    arrived: int
    completed: int
    unfinished: int  # arrived - completed at the horizon (queued + in flight)
    queued_at_horizon: int  # waiting, not yet dispatched

    def summary_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "arrived": self.arrived,
            "completed": self.completed,
            "unfinished": self.unfinished,
            "queued_at_horizon": self.queued_at_horizon,
            "avg_latency": self.avg_latency,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "tokens_served": self.tokens_served,
            "total_usd": self.cost.total_usd,
            "usd_per_token": self.cost.usd_per_token,
            "reconfigurations": [
                {"t": t, "config": list(cfg), "t_mig": t_mig}
                for t, cfg, t_mig in self.reconfigurations
            ],
        }


def collect_metrics(records: list[RequestRecord], horizon: float, cost: CostSummary,
                    reconfigurations, queued_at_horizon: int) -> MetricsReport:
    """Aggregate per-request records; latency stats cover completed requests."""
    ordered = sorted(records, key=lambda r: (r.arrival, r.id))
    done = [r for r in ordered if r.done]
    lats = [r.l_req for r in done]
    tokens = sum(r.tokens_generated for r in ordered)
    return MetricsReport(
        records=ordered,
        horizon=horizon,
        avg_latency=sum(lats) / len(lats) if lats else None,
        p50=percentile(lats, 50) if lats else None,
        p90=percentile(lats, 90) if lats else None,
        p99=percentile(lats, 99) if lats else None,
        accumulated_max_latency=accumulated_max([r.l_req for r in done]),
        tokens_served=tokens,
        cost=cost,
        reconfigurations=list(reconfigurations),
        arrived=len(ordered),
        completed=len(done),
        unfinished=len(ordered) - len(done),
        queued_at_horizon=queued_at_horizon,
    )


CSV_FIELDS = ["id", "arrival", "s_in", "s_out", "dispatch", "completion",
              "l_sch", "l_exe", "l_req", "tokens_generated", "completed"]


def write_request_csv(report: MetricsReport, path: str | Path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_FIELDS)
        for r in report.records:
            w.writerow([
                r.id, repr(r.arrival), r.s_in, r.s_out,
                "" if r.dispatch is None else repr(r.dispatch),
                "" if r.completion is None else repr(r.completion),
                "" if r.l_sch is None else repr(r.l_sch),
                "" if r.l_exe is None else repr(r.l_exe),
                "" if r.l_req is None else repr(r.l_req),
                r.tokens_generated,
                int(r.done),
            ])


def write_summary_json(report: MetricsReport, path: str | Path):
    Path(path).write_text(json.dumps(report.summary_dict(), indent=1, sort_keys=True) + "\n")
