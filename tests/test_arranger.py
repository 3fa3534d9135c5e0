import numpy as np
import pytest

from spotsim.arranger import (
    ArrangerError,
    BatchProgress,
    GraceContext,
    arrange_acquisition,
    arrange_preemption,
)
from spotsim.costmodel import restart_cost
from spotsim.domain import ParallelConfig

from conftest import make_profile

CFG = ParallelConfig(1, 1, 1, 1)


def ctx(kind, t_remaining, t_migration, remaining=1000, prefill_pending=False):
    return GraceContext(
        kind=kind, t_remaining=t_remaining, t_migration=t_migration,
        batch=BatchProgress(steps_remaining=remaining, prefill_pending=prefill_pending),
        config=CFG,
    )


def scan_max_steps(profile, context, budget):
    """Oracle: largest S <= remaining with l_exe(S) strictly under budget."""
    step = profile.decode_seconds(context.config)
    init = profile.prefill_seconds(context.config, 512) if context.batch.prefill_pending else 0.0
    best = None
    for s in range(context.batch.steps_remaining + 1):
        if init + s * step < budget:
            best = s
    return best


class TestArrangePreemption:
    def test_no_budget_means_zero_steps(self):
        prof = make_profile(t_dec=0.1, t_init=2.0)
        arr = arrange_preemption(ctx("preemption", t_remaining=0.05, t_migration=0.05), prof)
        assert arr.steps == 0
        assert arr.action_after == "reroute_without_cache"

    def test_linear_model_known_answer(self):
        prof = make_profile(t_dec=0.1, t_init=2.0)
        arr = arrange_preemption(ctx("preemption", t_remaining=30.0, t_migration=5.0), prof)
        # largest S with 0.1*S < 25 is 249
        assert arr.steps == 249
        assert arr.action_after == "migrate_with_cache"

    def test_capped_by_remaining(self):
        prof = make_profile(t_dec=0.1, t_init=2.0)
        arr = arrange_preemption(
            ctx("preemption", t_remaining=30.0, t_migration=5.0, remaining=100), prof)
        assert arr.steps == 100

    def test_expensive_migration_falls_back_to_reroute(self):
        prof = make_profile(t_dec=0.1, t_init=2.0)
        # only ~50 steps of useful work (5 s) but migration costs 9 s
        arr = arrange_preemption(
            ctx("preemption", t_remaining=14.0, t_migration=9.0, remaining=500), prof)
        assert arr.action_after == "reroute_without_cache"
        # the drain then uses the whole grace period: largest S with 0.1*S < 14
        assert arr.steps == 139

    def test_wrong_kind(self):
        prof = make_profile()
        with pytest.raises(ArrangerError):
            arrange_preemption(ctx("acquisition", 10, 1), prof)

    @pytest.mark.parametrize("seed", range(6))
    def test_maximality_against_scan_oracle(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            prof = make_profile(t_dec=float(rng.uniform(0.01, 0.5)),
                                t_init=float(rng.uniform(0.1, 3.0)))
            c = ctx("preemption",
                    t_remaining=float(rng.uniform(0, 40)),
                    t_migration=float(rng.uniform(0, 20)),
                    remaining=int(rng.integers(0, 300)),
                    prefill_pending=bool(rng.random() < 0.3))
            arr = arrange_preemption(c, prof)
            budget = c.t_remaining - c.t_migration
            want = scan_max_steps(prof, c, budget)
            if arr.action_after == "migrate_with_cache":
                assert arr.steps == (want or 0)
            else:
                assert arr.steps == (scan_max_steps(prof, c, c.t_remaining) or 0)

    def test_monotone_in_grace_and_migration(self):
        prof = make_profile(t_dec=0.1, t_init=1.0)
        def steps(t_rem, t_mig):
            return arrange_preemption(ctx("preemption", t_rem, t_mig), prof).steps
        assert steps(30, 5) <= steps(40, 5)
        assert steps(30, 10) <= steps(30, 5)


class TestArrangeAcquisition:
    def test_zero_init_period(self):
        prof = make_profile(t_dec=0.1, t_init=2.0)
        arr = arrange_acquisition(ctx("acquisition", t_remaining=0.0, t_migration=1.0), prof)
        assert arr.steps == 0
        assert arr.action_after == "join_and_migrate"

    def test_known_answer(self):
        prof = make_profile(t_dec=0.5, t_init=2.0)
        arr = arrange_acquisition(ctx("acquisition", t_remaining=10.0, t_migration=1.0), prof)
        assert arr.steps == 20  # smallest S with 0.5*S >= 10

    def test_unbounded_case_runs_to_completion(self):
        prof = make_profile(t_dec=0.1, t_init=2.0)
        arr = arrange_acquisition(
            ctx("acquisition", t_remaining=500.0, t_migration=1.0, remaining=64), prof)
        assert arr.steps == 64

    @pytest.mark.parametrize("seed", range(6))
    def test_minimality(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(60):
            prof = make_profile(t_dec=float(rng.uniform(0.01, 0.5)),
                                t_init=float(rng.uniform(0.1, 3.0)))
            c = ctx("acquisition",
                    t_remaining=float(rng.uniform(0, 60)),
                    t_migration=float(rng.uniform(0, 5)),
                    remaining=int(rng.integers(0, 300)),
                    prefill_pending=bool(rng.random() < 0.3))
            arr = arrange_acquisition(c, prof)
            step = prof.decode_seconds(c.config)
            init = prof.prefill_seconds(c.config, 512) if c.batch.prefill_pending else 0.0
            if arr.steps > 0 and arr.steps < c.batch.steps_remaining:
                assert init + (arr.steps - 1) * step < c.t_remaining
                assert init + arr.steps * step >= c.t_remaining


def test_restart_cost_ratio_applies():
    prof = make_profile(baseline=10.0)
    assert restart_cost(prof, "remote_storage") == pytest.approx(95.4)
