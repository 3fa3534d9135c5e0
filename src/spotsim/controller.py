"""Adaptive configuration optimizer and instance allocation policy.

On every availability or workload change the optimizer re-picks the parallel
configuration: among candidates whose throughput covers the arrival rate (and
that the cloud can actually supply) it minimizes request latency, preferring
cheaper (fewer-instance) configurations when latencies are within a small
tolerance; when no candidate keeps up it falls back to the highest-throughput
configuration that fits the instances on hand.
"""

import bisect
from dataclasses import dataclass

from .costmodel import PerfProfile, exec_latency, throughput
from .domain import ParallelConfig

# Configs within this relative latency gap count as "similar minimum latency"
# and are tie-broken by instance count.
LATENCY_SIMILARITY = 0.01


class ControllerError(ValueError):
    pass


@dataclass(frozen=True)
class WorkloadEstimate:
    """Arrival rate observed over a trailing window."""

    rate: float  # requests/second
    window: float = 30.0

    def __post_init__(self):
        if self.rate < 0 or self.window <= 0:
            raise ControllerError("bad workload estimate")


@dataclass(frozen=True)
class ControllerDecision:
    """Next configuration plus the instance-count adjustment to reach it."""

    config: ParallelConfig
    delta: int  # signed instance count change (target + pool - have)
    alloc: int = 0  # instances to allocate, on-demand and spot together
    free: int = 0  # instances to release, on-demand first

    def __post_init__(self):
        if self.alloc and self.free:
            raise ControllerError("decision cannot both allocate and free")
        if self.delta > 0 and self.alloc != self.delta:
            raise ControllerError("positive delta must allocate")
        if self.delta < 0 and self.free != -self.delta:
            raise ControllerError("negative delta must free")


def estimate_arrival_rate(arrival_times, now: float, window: float = 30.0) -> WorkloadEstimate:
    """Arrivals in (now - window, now] divided by the window length."""
    if window <= 0:
        raise ControllerError("window must be positive")
    lo = bisect.bisect_right(arrival_times, now - window)
    hi = bisect.bisect_right(arrival_times, now)
    return WorkloadEstimate(rate=(hi - lo) / window, window=window)


def candidate_configs(profile: PerfProfile, max_gpus: int,
                      max_data_parallel: int | None = None) -> list[ParallelConfig]:
    """Every (D,P,M,B) with a profiled (P,M,B) shape, up to a GPU budget."""
    out = []
    for p, m, b in profile.shapes():
        if p > profile.model.num_layers:
            continue
        d_cap = max_gpus // (p * m)
        if max_data_parallel is not None:
            d_cap = min(d_cap, max_data_parallel)
        for d in range(1, d_cap + 1):
            out.append(ParallelConfig(d, p, m, b))
    return sorted(out)


def optimize_config(n_available: int, current: ParallelConfig | None, rate: float,
                    profile: PerfProfile, candidates: list[ParallelConfig],
                    gpus_per_instance: int = 1,
                    cloud_limit: int | None = None) -> ParallelConfig | None:
    """Pick the next parallel configuration for the observed arrival rate.

    Feasible branch: among candidates with phi(C) >= rate that the cloud can
    supply, return the lowest-latency one (fewest instances, then lexicographic
    (D,P,M,B), among configs within LATENCY_SIMILARITY of the best latency).
    Fallback branch: maximize phi among candidates fitting n_available; None if
    nothing fits at all.
    """
    if not candidates:
        raise ControllerError("empty candidate set")
    obtainable = n_available if cloud_limit is None else cloud_limit

    scored = []
    for cfg in sorted(candidates):
        n_inst = cfg.instances(gpus_per_instance)
        phi = throughput(profile, cfg)
        latency = exec_latency(profile, cfg, profile.nominal_s_in, profile.nominal_s_out)
        scored.append((cfg, n_inst, phi, latency))

    feasible = [s for s in scored if s[2] >= rate and s[1] <= obtainable]
    if feasible:
        best_latency = min(s[3] for s in feasible)
        near = [s for s in feasible if s[3] <= best_latency * (1 + LATENCY_SIMILARITY)]
        # Within the similarity band the cheaper config wins outright.
        near.sort(key=lambda s: (s[1], s[3], s[0]))
        return near[0][0]

    fitting = [s for s in scored if s[1] <= n_available]
    if not fitting:
        return None
    best_phi = max(s[2] for s in fitting)
    top = [s for s in fitting if s[2] == best_phi]
    top.sort(key=lambda s: (s[1], s[0]))
    return top[0][0]


def choose_config(n_available: int, current: ParallelConfig | None, rate: float,
                  profile: PerfProfile, gpus_per_instance: int,
                  cloud_limit: int | None = None,
                  max_data_parallel: int | None = None) -> ParallelConfig | None:
    """The configuration to serve with next, or None if no candidate fits.

    Candidates span every GPU the cloud could supply.  If the optimum needs
    more instances than are on hand (the cloud could supply them but the
    trace has not delivered yet), re-optimize within the instances on hand.
    """
    obtainable = n_available if cloud_limit is None else cloud_limit
    cand = candidate_configs(profile, max_gpus=max(obtainable, n_available) * gpus_per_instance,
                             max_data_parallel=max_data_parallel)
    if not cand:
        return None
    chosen = optimize_config(n_available, current, rate, profile, cand,
                             gpus_per_instance, obtainable)
    if chosen is not None and chosen.instances(gpus_per_instance) > n_available:
        chosen = optimize_config(n_available, current, rate, profile, cand,
                                 gpus_per_instance, n_available)
    return chosen


def plan_instances(config: ParallelConfig, n_available: int, pool_size: int = 2,
                   gpus_per_instance: int = 1) -> ControllerDecision:
    """Size the fleet to the target config plus a standby pool."""
    if pool_size < 0:
        raise ControllerError("pool_size must be >= 0")
    need = config.instances(gpus_per_instance) + pool_size
    delta = need - n_available
    return ControllerDecision(
        config=config,
        delta=delta,
        alloc=delta if delta > 0 else 0,
        free=-delta if delta < 0 else 0,
    )


def should_reconfigure(current: ParallelConfig | None, proposed: ParallelConfig,
                       membership_changed: bool) -> bool:
    """Reconfigure on any config change, and also on pure membership changes
    (a preemption or acquisition reshuffles instances even under the same C)."""
    return membership_changed or current is None or proposed != current
