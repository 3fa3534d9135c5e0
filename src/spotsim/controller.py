"""Adaptive configuration optimizer.

On every availability or workload change the optimizer re-picks the parallel
configuration from the instances on hand: among candidates whose throughput
covers the arrival rate it minimizes request latency, preferring cheaper
(fewer-instance) configurations when latencies are within a small tolerance;
when no candidate keeps up it falls back to the highest-throughput
configuration.
"""

import bisect

from .costmodel import PerfProfile, exec_latency, throughput
from .domain import ParallelConfig

# Configs within this relative latency gap count as "similar minimum latency"
# and are tie-broken by instance count.
LATENCY_SIMILARITY = 0.01


class ControllerError(ValueError):
    pass


def estimate_arrival_rate(arrivals, now: float, window: float = 30.0, key=None) -> float:
    """Arrivals in (now - window, now] divided by the window length, in
    requests/second.  `arrivals` is in arrival order, and `key` gives each
    one's arrival time (the entry itself when None)."""
    if window <= 0:
        raise ControllerError("window must be positive")
    lo = bisect.bisect_right(arrivals, now - window, key=key)
    hi = bisect.bisect_right(arrivals, now, key=key)
    return (hi - lo) / window


def candidate_configs(profile: PerfProfile, max_gpus: int) -> list[ParallelConfig]:
    """Every (D,P,M,B) with a profiled (P,M,B) shape, up to a GPU budget."""
    out = []
    for p, m, b in profile.shapes():
        if p > profile.model.num_layers:
            continue
        for d in range(1, max_gpus // (p * m) + 1):
            out.append(ParallelConfig(d, p, m, b))
    return sorted(out)


# `current` is unused; the first six parameters stay positional because
# perfbench's tracer reads `candidates` by position.
def optimize_config(n_available: int, current: ParallelConfig | None, rate: float,
                    profile: PerfProfile, candidates: list[ParallelConfig],
                    gpus_per_instance: int = 1) -> ParallelConfig | None:
    """Pick the next parallel configuration for the observed arrival rate.

    Only candidates fitting n_available instances count.  Feasible branch:
    among those with phi(C) >= rate, return the lowest-latency one (fewest
    instances, then lexicographic (D,P,M,B), among configs within
    LATENCY_SIMILARITY of the best latency).  Fallback branch: maximize phi;
    None if nothing fits at all.
    """
    if not candidates:
        raise ControllerError("empty candidate set")

    fitting = []
    for cfg in sorted(candidates):
        n_inst = cfg.instances(gpus_per_instance)
        if n_inst > n_available:
            continue
        phi = throughput(profile, cfg)
        latency = exec_latency(profile, cfg, profile.nominal_s_in, profile.nominal_s_out)
        fitting.append((cfg, n_inst, phi, latency))

    feasible = [s for s in fitting if s[2] >= rate]
    if feasible:
        best_latency = min(s[3] for s in feasible)
        near = [s for s in feasible if s[3] <= best_latency * (1 + LATENCY_SIMILARITY)]
        # Within the similarity band the cheaper config wins outright.
        near.sort(key=lambda s: (s[1], s[3], s[0]))
        return near[0][0]

    if not fitting:
        return None
    best_phi = max(s[2] for s in fitting)
    top = [s for s in fitting if s[2] == best_phi]
    top.sort(key=lambda s: (s[1], s[0]))
    return top[0][0]


def choose_config(n_available: int, rate: float, profile: PerfProfile,
                  gpus_per_instance: int) -> ParallelConfig | None:
    """The configuration to serve with next on the instances on hand, or None
    if no candidate fits."""
    cand = candidate_configs(profile, max_gpus=n_available * gpus_per_instance)
    if not cand:
        return None
    return optimize_config(n_available, None, rate, profile, cand, gpus_per_instance)


def should_reconfigure(current: ParallelConfig | None, proposed: ParallelConfig,
                       membership_changed: bool) -> bool:
    """Reconfigure on any config change, and also on pure membership changes
    (a preemption or acquisition reshuffles instances even under the same C)."""
    return membership_changed or current is None or proposed != current
