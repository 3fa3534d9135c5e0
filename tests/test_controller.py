import itertools
import time

import pytest

from spotsim.controller import (
    ControllerError,
    LATENCY_SIMILARITY,
    candidate_configs,
    choose_config,
    estimate_arrival_rate,
    optimize_config,
    should_reconfigure,
)
from spotsim.costmodel import exec_latency, throughput
from spotsim.domain import ParallelConfig

from conftest import make_profile


class TestEstimateArrivalRate:
    def test_nine_in_thirty_seconds(self):
        times = [100.0 + k for k in range(9)]
        assert estimate_arrival_rate(times, now=110.0, window=30.0) == pytest.approx(0.3)

    def test_empty(self):
        assert estimate_arrival_rate([], now=50.0) == 0.0

    def test_window_boundary_is_half_open(self):
        # (now - w, now]: an arrival exactly at now-w is excluded, at now included
        times = [70.0, 80.0, 100.0]
        assert estimate_arrival_rate(times, now=100.0, window=30.0) == pytest.approx(2 / 30)

    def test_bad_window(self):
        with pytest.raises(ControllerError):
            estimate_arrival_rate([], now=0.0, window=0.0)


def brute_force_optimum(n_avail, rate, profile, candidates, gpus_per_instance):
    """Independent re-statement of the selection rule by exhaustive scan."""
    scored = []
    for cfg in candidates:
        scored.append((cfg, cfg.instances(gpus_per_instance), throughput(profile, cfg),
                       exec_latency(profile, cfg, profile.nominal_s_in, profile.nominal_s_out)))
    feasible = [s for s in scored if s[2] >= rate and s[1] <= n_avail]
    if feasible:
        best = min(s[3] for s in feasible)
        near = [s for s in feasible if s[3] <= best * (1 + LATENCY_SIMILARITY)]
        return min(near, key=lambda s: (s[1], s[3], s[0]))[0]
    fitting = [s for s in scored if s[1] <= n_avail]
    if not fitting:
        return None
    top = max(s[2] for s in fitting)
    return min((s for s in fitting if s[2] == top), key=lambda s: (s[1], s[0]))[0]


class TestOptimizeConfig:
    def test_appendix_sequence(self, gpt_profile):
        seq = []
        for n in (10, 8, 7, 8):
            cand = candidate_configs(gpt_profile, max_gpus=n * 4)
            best = optimize_config(n, None, 0.35, gpt_profile, cand, gpus_per_instance=4)
            seq.append(best.shape())
        assert seq == [(2, 2, 8), (2, 2, 8), (2, 3, 4), (2, 2, 8)]

    def test_zero_rate_prefers_min_latency_then_fewest_instances(self, gpt_profile):
        cand = candidate_configs(gpt_profile, max_gpus=40)
        best = optimize_config(10, None, 0.0, gpt_profile, cand, gpus_per_instance=4)
        lat = exec_latency(gpt_profile, best, 512, 128)
        for other in cand:
            o_lat = exec_latency(gpt_profile, other, 512, 128)
            assert lat <= o_lat * (1 + LATENCY_SIMILARITY) + 1e-12
            if o_lat <= lat * (1 + LATENCY_SIMILARITY):
                assert best.instances(4) <= other.instances(4)

    def test_single_candidate(self, gpt_profile):
        only = ParallelConfig(1, 3, 4, 1)
        best = optimize_config(10, None, 0.0, gpt_profile, [only], gpus_per_instance=4)
        assert best == only

    def test_empty_candidates(self, gpt_profile):
        with pytest.raises(ControllerError):
            optimize_config(10, None, 0.0, gpt_profile, [], gpus_per_instance=4)

    def test_infeasible_branch_maximizes_throughput(self, gpt_profile):
        cand = candidate_configs(gpt_profile, max_gpus=40)
        best = optimize_config(3, None, 50.0, gpt_profile, cand, gpus_per_instance=4)
        fitting = [c for c in cand if c.instances(4) <= 3]
        top = max(throughput(gpt_profile, c) for c in fitting)
        assert throughput(gpt_profile, best) == pytest.approx(top)

    def test_nothing_fits(self, gpt_profile):
        cand = candidate_configs(gpt_profile, max_gpus=40)
        assert optimize_config(0, None, 0.1, gpt_profile, cand, gpus_per_instance=4) is None

    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.25, 0.35, 0.55, 0.9, 5.0])
    @pytest.mark.parametrize("n", [3, 4, 7, 8, 10, 16])
    def test_matches_exhaustive_search(self, gpt_profile, rate, n):
        cand = candidate_configs(gpt_profile, max_gpus=n * 4)
        got = optimize_config(n, None, rate, gpt_profile, cand, gpus_per_instance=4)
        want = brute_force_optimum(n, rate, gpt_profile, cand, 4)
        assert got == want

    def test_feasible_whenever_any_candidate_is(self, gpt_profile):
        for n in (4, 7, 10):
            for rate in (0.2, 0.35, 0.5, 0.7):
                cand = candidate_configs(gpt_profile, max_gpus=n * 4)
                got = optimize_config(n, None, rate, gpt_profile, cand, gpus_per_instance=4)
                exists = any(
                    throughput(gpt_profile, c) >= rate and c.instances(4) <= n for c in cand
                )
                if exists:
                    assert throughput(gpt_profile, got) >= rate

    def test_determinism(self, gpt_profile):
        cand = candidate_configs(gpt_profile, max_gpus=40)
        runs = {optimize_config(10, None, 0.35, gpt_profile, list(reversed(cand)),
                                gpus_per_instance=4) for _ in range(5)}
        assert len(runs) == 1

    def test_runtime_under_one_second_for_large_candidate_sets(self):
        from spotsim.domain import ModelSpec
        shapes = [(p, m, b) for p in (1, 2, 3, 4, 6, 8) for m in (1, 2, 4, 8) for b in (1, 2, 4, 8)]
        deep = ModelSpec(name="deep", num_layers=64, bytes_per_layer=1000,
                         kv_bytes_per_token_per_layer=8)
        prof = make_profile(t_dec=0.05, t_init=1.0, shapes=shapes, model=deep)
        cand = candidate_configs(prof, max_gpus=600)
        assert len(cand) >= 10_000
        t0 = time.perf_counter()
        optimize_config(150, None, 0.5, prof, cand, gpus_per_instance=4)
        assert time.perf_counter() - t0 < 1.0


class TestShouldReconfigure:
    def test_same_config_no_membership_change(self):
        c = ParallelConfig(2, 2, 8, 2)
        assert not should_reconfigure(c, c, membership_changed=False)

    def test_same_config_with_replacement(self):
        c = ParallelConfig(2, 2, 8, 2)
        assert should_reconfigure(c, c, membership_changed=True)

    def test_config_change(self):
        assert should_reconfigure(ParallelConfig(2, 2, 8, 2), ParallelConfig(2, 3, 4, 1), False)


def test_latency_similarity_tie_prefers_fewer_instances():
    from spotsim.domain import ModelSpec
    model = ModelSpec(name="tie", num_layers=8, bytes_per_layer=1000,
                      kv_bytes_per_token_per_layer=8)
    prof = make_profile(t_dec=0.05, t_init=1.0, shapes=((2, 2, 1),), model=model)
    cand = [ParallelConfig(1, 2, 2, 1), ParallelConfig(2, 2, 2, 1)]
    # identical latency, both feasible at rate 0: the cheaper config wins
    got = optimize_config(8, None, 0.0, prof, cand, gpus_per_instance=1)
    assert got == ParallelConfig(1, 2, 2, 1)
    # when only the bigger one clears the rate, it wins despite the tie rule
    rate = throughput(prof, ParallelConfig(1, 2, 2, 1)) * 1.5
    got = optimize_config(8, None, rate, prof, cand, gpus_per_instance=1)
    assert got == ParallelConfig(2, 2, 2, 1)


class TestChooseConfig:
    def test_one_pass_without_cloud_limit(self, gpt_profile):
        cand = candidate_configs(gpt_profile, max_gpus=40)
        assert choose_config(10, 0.35, gpt_profile, 4) == \
            optimize_config(10, None, 0.35, gpt_profile, cand, gpus_per_instance=4)

    def test_none_when_no_candidate_fits(self, gpt_profile):
        # no GPUs at all: not even a candidate
        assert choose_config(0, 0.35, gpt_profile, 4) is None
