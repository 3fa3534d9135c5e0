"""Analytic latency, throughput, migration-time and monetary-cost estimation.

All execution costs come from a calibrated profile: per-(P,M,B) decode-step
and prefill tables measured offline, a pipeline efficiency scalar, and a
uniform full-duplex interconnect model.  A batch of S_out decode steps costs

    prefill(P,M,B,S_in) + S_out * decode(P,M,B)

which is the KV-cache approximation of summing a per-length step cost; the
exact summation form is kept alongside to bound the approximation error.

The profile tables double as the feasibility filter: a (P,M,B) shape that is
absent was not profiled (e.g. it does not fit in GPU memory) and is not a
candidate configuration.  There is deliberately no nearest-neighbor fallback.

Migration time follows a port model.  Every instance has a full-duplex link,
an out-port and an in-port at the interconnect bandwidth, and remote storage
has one out-port that loads the whole model in a remote-storage restart.
With transfers that can be split, a round's optimal time is its busiest
port's load: the preemptive open-shop bound, which edge-colouring schedules
attain (Gonzalez and Sahni, JACM 1976).  So a plan's time depends on the
bytes each port carries per round, never on how the round's transfers are
cut or listed.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .domain import STORAGE, ModelSpec, ParallelConfig, as_real, is_count, is_real

HOUR = 3600.0


class CostModelError(ValueError):
    pass


class ProfileMissError(CostModelError):
    """A (P,M,B) shape or s_in entry is not covered by the profile."""


class ProfileError(CostModelError):
    """A profile file that does not read as a valid profile."""


@dataclass(frozen=True)
class PriceSheet:
    spot_usd_per_hour: float
    ondemand_usd_per_hour: float

    def __post_init__(self):
        if not all(is_real(v) and 0 < v < math.inf
                   for v in (self.spot_usd_per_hour, self.ondemand_usd_per_hour)):
            raise CostModelError("prices must be positive and finite")

    def rate(self, kind: str) -> float:
        if kind == "spot":
            return self.spot_usd_per_hour
        if kind == "ondemand":
            return self.ondemand_usd_per_hour
        raise CostModelError(f"unknown instance kind {kind!r}")


Shape = tuple[int, int, int]  # (P, M, B)


@dataclass
class PerfProfile:
    """Calibrated execution/transfer cost tables for one model."""

    model: ModelSpec
    decode_table: dict[Shape, float]
    prefill_table: dict[Shape, dict[int, float]]
    pipeline_efficiency: float
    bandwidth: float  # bytes/second between any instance pair, full duplex
    transfer_latency: float  # per-round fixed latency, seconds
    prices: PriceSheet
    local_restart_ratio: float = 1.45
    remote_restart_ratio: float = 9.54
    restart_baseline_s: float = 10.0  # equivalent-migration baseline of a restart
    nominal_s_in: int = 512
    nominal_s_out: int = 128

    def __post_init__(self):
        if not (0 < self.pipeline_efficiency <= 1):
            raise CostModelError("pipeline_efficiency must be in (0, 1]")
        positive = [self.bandwidth, self.local_restart_ratio, self.remote_restart_ratio,
                    self.restart_baseline_s, *self.decode_table.values(),
                    *(v for entries in self.prefill_table.values() for v in entries.values())]
        if not (all(0 < v < math.inf for v in positive) and 0 <= self.transfer_latency < math.inf):
            raise CostModelError("bandwidth, decode and prefill costs and restart ratios and "
                                 "baseline must be positive, and transfer latency >= 0, all finite")
        if not (is_count(self.nominal_s_in, 1) and is_count(self.nominal_s_out, 1)):
            raise CostModelError("nominal s_in and s_out must be integers >= 1")
        if not all(entries and all(is_count(s_in, 1) for s_in in entries)
                   for entries in self.prefill_table.values()):
            raise CostModelError("every prefill table needs an entry, each at an s_in >= 1")
        for shape, entries in self.prefill_table.items():
            pts = sorted(entries.items())
            if _prefill_at(entries, 1) <= 0 or (len(pts) > 1 and pts[-1][1] < pts[-2][1]):
                raise CostModelError(
                    f"prefill table {shape} extrapolates to a cost <= 0: its line through the "
                    f"first two entries must stay positive at s_in 1, and its last two "
                    f"entries must not fall")
        if self.decode_table.keys() != self.prefill_table.keys():
            raise CostModelError("decode and prefill tables must list the same (P,M,B) shapes")
        if not all(len(shape) == 3 and all(is_count(n, 1) for n in shape)
                   for shape in self.decode_table):
            raise CostModelError("every (P,M,B) shape must be three integers, each >= 1")

    def shapes(self) -> list[Shape]:
        return sorted(self.decode_table)

    def decode_seconds(self, config: ParallelConfig) -> float:
        key = (config.pipeline_stages, config.tensor_shards, config.batch_limit)
        try:
            return self.decode_table[key]
        except KeyError:
            raise ProfileMissError(f"no decode entry for (P,M,B)={key}") from None

    def prefill_seconds(self, config: ParallelConfig, s_in: int) -> float:
        key = (config.pipeline_stages, config.tensor_shards, config.batch_limit)
        try:
            entries = self.prefill_table[key]
        except KeyError:
            raise ProfileMissError(f"no prefill entry for (P,M,B)={key}") from None
        return _prefill_at(entries, s_in)


def _prefill_at(entries: dict[int, float], s_in: int) -> float:
    """Table lookup with linear interpolation over tabulated s_in points."""
    if s_in in entries:
        return entries[s_in]
    pts = sorted(entries.items())
    if len(pts) == 1:
        ref_s, ref_v = pts[0]
        return ref_v * s_in / ref_s
    if s_in < pts[0][0]:
        (x0, y0), (x1, y1) = pts[0], pts[1]
    elif s_in > pts[-1][0]:
        (x0, y0), (x1, y1) = pts[-2], pts[-1]
    else:
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x0 <= s_in <= x1:
                break
    frac = (s_in - x0) / (x1 - x0)
    return y0 + frac * (y1 - y0)


# ---------------------------------------------------------------------------
# Latency and throughput

def exec_latency(profile: PerfProfile, config: ParallelConfig, s_in: int, s_out: int) -> float:
    """Batch execution latency: prefill plus s_out constant decode steps."""
    if s_in < 0 or s_out < 0:
        raise CostModelError("sequence lengths must be >= 0")
    init = profile.prefill_seconds(config, s_in)
    if s_out == 0:
        return init
    return init + s_out * profile.decode_seconds(config)


def exec_latency_exact(profile: PerfProfile, config: ParallelConfig, s_in: int, s_out: int,
                       per_length_cost=None) -> float:
    """Summation form: prefill plus a per-length step cost for every decode.

    With the default constant step cost this reduces to exec_latency exactly;
    a caller-supplied per_length_cost(seq_len) exposes the approximation error
    of the constant-step model.
    """
    if per_length_cost is None:
        step = profile.decode_seconds(config)
        per_length_cost = lambda _s: step
    total = profile.prefill_seconds(config, s_in)
    for i in range(1, s_out + 1):
        total += per_length_cost(s_in + i)
    return total


def throughput(profile: PerfProfile, config: ParallelConfig) -> float:
    """Serving throughput phi(C) in requests/second at the nominal s_in/s_out.

    D pipelines each complete B requests per batch; with P stages in flight
    the per-batch makespan amortizes to exec_latency / (P * eta).
    """
    latency = exec_latency(profile, config, profile.nominal_s_in, profile.nominal_s_out)
    effective = latency / (config.pipeline_stages * profile.pipeline_efficiency)
    return config.data_parallel * config.batch_limit / effective


# ---------------------------------------------------------------------------
# Migration and restart stalls

def _port_rates(profile: PerfProfile) -> tuple[float, float]:
    """Bytes per second through an instance's port (the interconnect
    bandwidth) and through `STORAGE`'s out-port, which loads the whole model
    in `restart_cost(profile, "remote_storage")`, the cost of a full reload."""
    return (profile.bandwidth,
            profile.model.total_param_bytes / restart_cost(profile, "remote_storage"))


def plan_timeline(plan, profile: PerfProfile, release: dict[str, float] | None = None,
                  start: float = 0.0) -> list[float]:
    """Completion time of each plan action under the port model.

    Each instance's out-port and in-port carry their rounds' cross-instance
    bytes (`MigrationAction.sent`/`received`, summed when the round was
    built) back to back from the port's release time, so rounds pipeline
    instead of barriering.  A round ends when the last port it touches has
    carried its cumulative bytes, never before the previous round ends, plus
    one fixed latency if it moved bytes; a round that moves nothing ends with
    the previous one.  Same-instance copies ride the intra-instance
    interconnect and touch no port.  Round completions are therefore
    monotone, and stage-start markers stay meaningful.

    `release` gives per-instance earliest transfer times (an instance still
    finishing arranged decode work frees its link only when it stops).  The
    work is one step per port per round; no transfer is read.
    """
    release = release or {}
    link, storage = _port_rates(profile)
    sent: dict[str, float] = {}
    received: dict[str, float] = {}
    ends: list[float] = []
    end = start
    for action in plan.actions:
        if action.sent:
            for inst, b in action.sent:
                total = sent[inst] = sent.get(inst, 0.0) + b
                done = release.get(inst, start) + total / (storage if inst == STORAGE[0] else link)
                if done > end:
                    end = done
            for inst, b in action.received:
                total = received[inst] = received.get(inst, 0.0) + b
                done = release.get(inst, start) + total / link
                if done > end:
                    end = done
            end += profile.transfer_latency
        ends.append(end)
    return ends


def migration_bound(sent: dict[str, float], received: dict[str, float], rounds: int,
                    profile: PerfProfile) -> float:
    """An upper bound on the time a plan takes from start 0 with no release:
    the busiest port's time over the per-port byte totals `sent` and
    `received` of all its rounds, plus one latency for each of the `rounds`
    rounds that move bytes.

    `plan_timeline` ends each round at most one latency after the busiest
    port so far, so no order of those rounds takes longer.  The latencies
    are added one at a time, as the timeline adds them.
    """
    link, storage = _port_rates(profile)
    bound = max([b / (storage if inst == STORAGE[0] else link) for inst, b in sent.items()]
                + [b / link for b in received.values()], default=0.0)
    for _ in range(rounds):
        bound += profile.transfer_latency
    return bound


def migration_cost(plan, profile: PerfProfile, config: ParallelConfig | None = None,
                   release: dict[str, float] | None = None, start: float = 0.0) -> float:
    """Service stall imposed by a migration plan, in seconds from `start`.

    Without `config` the stall is the full plan duration.  Given the target
    `config`, the start is progressive: serving resumes once the first
    stage's context lands, and a later stage p only stalls inference if its
    context is not ready by the time a resumed batch reaches it ((p-1)/P of
    a decode step later); the cost is the worst such constraint.
    """
    timeline = plan_timeline(plan, profile, release=release, start=start)
    total = max(timeline[-1] if timeline else start, start) - start
    if config is None:
        return total
    starts = [(action.stage, end) for action, end in zip(plan.actions, timeline)
              if action.kind == "start_stage"]
    if not starts:
        return total
    step = profile.decode_seconds(config) / config.pipeline_stages
    stall = 0.0
    for order, (_stage, ready) in enumerate(sorted(starts, key=lambda s: s[0])):
        stall = max(stall, ready - start - order * step)
    return max(0.0, stall)


def restart_cost(profile: PerfProfile, source: str) -> float:
    """Cold-restart stall relative to the profile's equivalent context
    migration, `restart_baseline_s`.

    Loading weights from local disk or remote storage costs a profiled multiple
    of what migrating the same context over the interconnect would have cost.
    """
    if source == "local_disk":
        return profile.local_restart_ratio * profile.restart_baseline_s
    if source == "remote_storage":
        return profile.remote_restart_ratio * profile.restart_baseline_s
    raise CostModelError(f"unknown restart source {source!r}")


# ---------------------------------------------------------------------------
# Monetary accounting

@dataclass
class CostSummary:
    total_usd: float
    usd_per_token: float | None


def monetary_cost(usage_log, prices: PriceSheet, tokens_served: int | None = None) -> CostSummary:
    """Bill a usage log of (instance_id, kind, start_s, end_s) active intervals."""
    by_instance: dict[str, list[tuple[float, float]]] = {}
    total = 0.0
    for instance_id, kind, start, end in usage_log:
        if end < start:
            raise CostModelError(f"negative interval for {instance_id}")
        for s0, e0 in by_instance.get(instance_id, ()):
            if start < e0 and s0 < end:
                raise CostModelError(f"overlapping usage intervals for {instance_id}")
        by_instance.setdefault(instance_id, []).append((start, end))
        total += (end - start) / HOUR * prices.rate(kind)
    per_token = None
    if tokens_served is not None and tokens_served > 0:
        per_token = total / tokens_served
    return CostSummary(total_usd=total, usd_per_token=per_token)


# ---------------------------------------------------------------------------
# Profile file I/O

# The optional sections of a profile file: each JSON key with its
# `PerfProfile` field; a key left out takes the field's default.
_RESTART = {"local_ratio": "local_restart_ratio", "remote_ratio": "remote_restart_ratio",
            "baseline_s": "restart_baseline_s"}
_NOMINAL = {"s_in": "nominal_s_in", "s_out": "nominal_s_out"}


def _section(doc: dict, name: str, keys: dict[str, str]) -> dict:
    """An optional profile section's values by `PerfProfile` field."""
    section = doc.get(name, {})
    unknown = [f"{name}.{key}" for key in section if key not in keys]
    if unknown:
        raise CostModelError(f"unknown profile key {', '.join(map(repr, unknown))}")
    return {keys[key]: value for key, value in section.items()}


def profile_from_dict(doc: dict) -> PerfProfile:
    return PerfProfile(
        model=ModelSpec(**doc["model"]),
        decode_table=_by_shape(doc["t_dec"], as_real),
        prefill_table=_by_shape(doc["t_init"], _by_length),
        pipeline_efficiency=as_real(doc["pipeline_efficiency"]),
        bandwidth=as_real(doc["bandwidth_bytes_per_s"]),
        transfer_latency=as_real(doc.get("transfer_latency_s", 0.0)),
        prices=PriceSheet(**doc["prices"]),
        **{field: as_real(value) for field, value in _section(doc, "restart", _RESTART).items()},
        **_section(doc, "nominal", _NOMINAL),
    )


def load_profile(path: str | Path) -> PerfProfile:
    try:
        with open(path) as f:
            return profile_from_dict(json.load(f))
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise ProfileError(f"{path}: bad profile: {type(e).__name__}: {e}") from None


def _by_shape(table: dict, value) -> dict[Shape, object]:
    """A `t_dec` or `t_init` table by shape, each entry read by `value`."""
    out = {tuple(int(x) for x in key.split(",")): value(entry) for key, entry in table.items()}
    if len(out) < len(table):
        raise CostModelError("two keys name one (P,M,B) shape")
    return out


def _by_length(entry: dict) -> dict[int, float]:
    """A `t_init` entry by s_in, each value read as a real."""
    out = {int(s_in): as_real(value) for s_in, value in entry.items()}
    if len(out) < len(entry):
        raise CostModelError("two s_in keys name one length")
    return out
