"""Grace-period arrangement: how many decode steps to run before migrating.

A preemption notice leaves T_remaining seconds; decoding is useful work, so
the arranger runs as many steps as fit while still reserving the migration
window (maximize S with l_exe(S) < T- - T_mig).  If the migration would cost
more than the work it preserves, the batch just drains the grace period and
reroutes without its cache.  An acquisition is the mirror image: keep decoding
on the old configuration until the new instance's initialization period is
covered (minimize S with l_exe(S) >= T+), then join and migrate.  Both use
one search, `_steps_reaching`: l_exe(S) = init + S * step never falls as S
grows, so the largest S below a budget is one short of the first reaching it.
"""

import math
from dataclasses import dataclass

from .costmodel import PerfProfile
from .domain import ParallelConfig


class ArrangerError(ValueError):
    pass


@dataclass
class BatchProgress:
    """Decode position of the batch an arrangement applies to."""

    steps_remaining: int  # decode iterations left for the longest request
    prefill_pending: bool = False  # True before the initial phase has run


@dataclass
class GraceContext:
    """Snapshot handed to the arranger when a grace period opens."""

    kind: str  # "preemption" | "acquisition"
    t_remaining: float  # T- (preemption) or T+ (acquisition init period)
    t_migration: float  # estimated migration cost
    batch: BatchProgress
    config: ParallelConfig

    def __post_init__(self):
        if self.kind not in ("preemption", "acquisition"):
            raise ArrangerError(f"unknown grace kind {self.kind!r}")
        if self.t_remaining < 0 or self.t_migration < 0:
            raise ArrangerError("grace context times must be >= 0")


@dataclass
class Arrangement:
    steps: int  # decode iterations to run before stopping
    action_after: str  # migrate_with_cache | reroute_without_cache | join_and_migrate


def _latency_of(ctx: GraceContext, profile: PerfProfile, steps: int) -> float:
    """l_exe(S | C_t) measured from the batch's current decode position."""
    step = profile.decode_seconds(ctx.config)
    init = 0.0
    if ctx.batch.prefill_pending:
        init = profile.prefill_seconds(ctx.config, profile.nominal_s_in)
    return init + steps * step


def _steps_reaching(ctx: GraceContext, profile: PerfProfile, t: float) -> int:
    """Smallest S >= 0 with l_exe(S) >= t: a guess from the step length,
    corrected one step at a time."""
    base = _latency_of(ctx, profile, 0)
    if base >= t:
        return 0
    s = max(1, math.ceil((t - base) / profile.decode_seconds(ctx.config)))
    while _latency_of(ctx, profile, s) < t:
        s += 1
    while s > 1 and _latency_of(ctx, profile, s - 1) >= t:
        s -= 1
    return s


def _max_steps_below(ctx: GraceContext, profile: PerfProfile, budget: float) -> int:
    """Largest S in [0, remaining] with l_exe(S) strictly below the budget."""
    return max(0, min(_steps_reaching(ctx, profile, budget) - 1, ctx.batch.steps_remaining))


def arrange_preemption(ctx: GraceContext, profile: PerfProfile) -> Arrangement:
    """Maximize useful decode steps while reserving the migration window.

    Falls back to reroute-without-cache when migrating costs at least as much
    as the decode work it would preserve (the arrangement must not increase
    the request's latency).
    """
    if ctx.kind != "preemption":
        raise ArrangerError("arrange_preemption needs a preemption context")
    steps = _max_steps_below(ctx, profile, ctx.t_remaining - ctx.t_migration)
    if ctx.t_migration < _latency_of(ctx, profile, steps):
        return Arrangement(steps=steps, action_after="migrate_with_cache")
    drain = _max_steps_below(ctx, profile, ctx.t_remaining)
    return Arrangement(steps=drain, action_after="reroute_without_cache")


def arrange_acquisition(ctx: GraceContext, profile: PerfProfile) -> Arrangement:
    """Smallest decode count covering the new instance's initialization."""
    if ctx.kind != "acquisition":
        raise ArrangerError("arrange_acquisition needs an acquisition context")
    steps = min(_steps_reaching(ctx, profile, ctx.t_remaining), ctx.batch.steps_remaining)
    return Arrangement(steps=steps, action_after="join_and_migrate")
