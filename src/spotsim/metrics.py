"""Aggregate serving metrics over per-request records (`domain.RequestRecord`)."""

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


def _csv_field(text: str) -> str:
    """`text` as `csv.writer` writes it: quoted, with doubled quotes, when it
    holds a comma, a quote or a line break."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_lines(records):
    """One CSV line per record, each latency computed once.  Floats print as
    their `repr` and ints as `str`, as `csv.writer` prints them; the format
    string depends on which of dispatch and completion are known."""
    for r in records:
        a, d, c = r.arrival, r.dispatch, r.completion
        if c is None:
            if d is None:
                yield "%s,%r,%s,%s,,,,,,%s,0\r\n" % (
                    _csv_field(r.id), a, r.s_in, r.s_out, r.tokens_generated)
            else:
                yield "%s,%r,%s,%s,%r,,%r,,,%s,0\r\n" % (
                    _csv_field(r.id), a, r.s_in, r.s_out, d, d - a, r.tokens_generated)
        elif d is None:
            yield "%s,%r,%s,%s,,%r,,,%r,%s,1\r\n" % (
                _csv_field(r.id), a, r.s_in, r.s_out, c, c - a, r.tokens_generated)
        else:
            yield "%s,%r,%s,%s,%r,%r,%r,%r,%r,%s,1\r\n" % (
                _csv_field(r.id), a, r.s_in, r.s_out, d, c, d - a, c - d, c - a,
                r.tokens_generated)


def write_request_csv(report: MetricsReport, path: str | Path):
    """One row per request under a `CSV_FIELDS` header, byte for byte what
    `csv.writer` writes (`\\r\\n` line ends): floats as `repr`, and an
    unknown dispatch, completion or latency as an empty field.  The lines
    are streamed, not joined first, so the file never sits whole in memory."""
    with open(path, "w", newline="") as f:
        f.write(",".join(CSV_FIELDS) + "\r\n")
        f.writelines(_csv_lines(report.records))


def write_summary_json(report: MetricsReport, path: str | Path):
    Path(path).write_text(json.dumps(report.summary_dict(), indent=1, sort_keys=True) + "\n")
