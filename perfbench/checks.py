"""Correctness checks on one simulation's report, and its output digest."""

import hashlib
from pathlib import Path

from spotsim.metrics import MetricsReport

# The bundled case study at rate 0.35 and its own arrival seed 123 must
# reconfigure through exactly these (D, P, M) shapes.
REFERENCE_SEQUENCE = [(2, 2, 8), (2, 2, 8), (2, 3, 4), (2, 2, 8)]


def check_report(report: MetricsReport, arrivals: list[float], horizon: float,
                 reference: list[tuple[int, int, int]] | None = None) -> list[str]:
    """Physical and bookkeeping invariants of one run; returns the violations.

    `arrivals` are the arrival times the workload generated for this run.
    """
    errors = []
    records = report.records
    ids = [r.id for r in records]
    if len(set(ids)) != len(ids):
        errors.append("an arrival is recorded more than once")
    if sorted(r.arrival for r in records) != sorted(arrivals):
        errors.append(f"recorded {len(records)} arrivals, generated {len(arrivals)}")
    for r in records:
        if r.dispatch is not None and r.dispatch < r.arrival:
            errors.append(f"{r.id}: dispatch {r.dispatch!r} before arrival {r.arrival!r}")
        if r.completion is not None and (
                r.dispatch is None or not r.dispatch <= r.completion <= horizon + 1e-9):
            errors.append(f"{r.id}: completion {r.completion!r} outside "
                          f"[dispatch {r.dispatch!r}, horizon {horizon!r}]")
        if r.tokens_generated > r.s_out:
            errors.append(f"{r.id}: {r.tokens_generated} tokens above s_out {r.s_out}")
        if r.done and r.tokens_generated != r.s_out:
            errors.append(f"{r.id}: done with {r.tokens_generated} of {r.s_out} tokens")
    if not report.cost.total_usd >= 0:
        errors.append(f"negative cost {report.cost.total_usd!r}")
    if reference is not None:
        seq = reconfig_seq(report)
        if seq != reference:
            errors.append(f"reconfiguration sequence {seq} is not the reference {reference}")
    return errors


def reconfig_seq(report: MetricsReport) -> list[tuple[int, int, int]]:
    """(D, P, M) of every logged reconfiguration, in order."""
    return [tuple(cfg[:3]) for _, cfg, _ in report.reconfigurations]


def digest(*paths: Path) -> str:
    """SHA-256 over the bytes of the given output files, in order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()
