import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from spotsim.costmodel import (
    CostModelError,
    ProfileMissError,
    exec_latency,
    exec_latency_exact,
    migration_bound,
    migration_cost,
    monetary_cost,
    plan_timeline,
    profile_from_dict,
    restart_cost,
    throughput,
)
from spotsim.domain import STORAGE, ParallelConfig
from spotsim.migration import MigrationPlan, Transfer

from conftest import make_profile, profile_to_dict
from plan_checks import Round

C111 = ParallelConfig(1, 1, 1, 1)


def frac_transfer(src, dst, nbytes):
    from fractions import Fraction
    return Transfer(kind="model", layer=0, lo=Fraction(0), hi=Fraction(1),
                    src=src, dst=dst, bytes=float(nbytes))


class TestExecLatency:
    def test_table1_gpt20b(self, gpt_profile):
        got = exec_latency(gpt_profile, ParallelConfig(1, 3, 4, 1), 512, 128)
        assert got == pytest.approx(14.373, rel=1e-3)

    def test_table1_opt67b(self, opt_profile):
        got = exec_latency(opt_profile, ParallelConfig(1, 1, 4, 1), 512, 128)
        assert got == pytest.approx(5.447, rel=1e-3)

    def test_table1_llama30b(self, llama_profile):
        got = exec_latency(llama_profile, ParallelConfig(1, 2, 8, 1), 512, 128)
        assert got == pytest.approx(17.540, rel=1e-3)

    def test_zero_decode_is_prefill_only(self):
        prof = make_profile(t_dec=0.1, t_init=2.0)
        assert exec_latency(prof, C111, 512, 0) == 2.0

    def test_linear_formula(self):
        prof = make_profile(t_dec=0.1, t_init=2.0)
        assert exec_latency(prof, C111, 512, 128) == pytest.approx(2.0 + 12.8)

    def test_monotone_in_lengths_and_batch(self, gpt_profile):
        cfg1 = ParallelConfig(1, 3, 4, 1)
        cfg2 = ParallelConfig(1, 3, 4, 2)
        base = exec_latency(gpt_profile, cfg1, 512, 128)
        assert exec_latency(gpt_profile, cfg1, 1024, 128) >= base
        assert exec_latency(gpt_profile, cfg1, 512, 256) >= base
        assert exec_latency(gpt_profile, cfg2, 512, 128) >= base

    def test_decode_additivity(self, gpt_profile):
        cfg = ParallelConfig(1, 3, 4, 1)
        step = gpt_profile.decode_seconds(cfg)
        a = exec_latency(gpt_profile, cfg, 512, 40)
        b = exec_latency(gpt_profile, cfg, 512, 100)
        assert b - a == pytest.approx(60 * step, rel=1e-12)

    def test_profile_miss(self, gpt_profile):
        with pytest.raises(ProfileMissError):
            exec_latency(gpt_profile, ParallelConfig(1, 5, 3, 1), 512, 128)

    def test_prefill_interpolation(self, gpt_profile):
        cfg = ParallelConfig(1, 3, 4, 1)
        lo = gpt_profile.prefill_seconds(cfg, 256)
        hi = gpt_profile.prefill_seconds(cfg, 512)
        mid = gpt_profile.prefill_seconds(cfg, 384)
        assert lo < mid < hi
        assert mid == pytest.approx((lo + hi) / 2)


class TestExecLatencyExact:
    def test_constant_cost_reduces_to_approximation(self, gpt_profile):
        cfg = ParallelConfig(1, 3, 4, 1)
        approx = exec_latency(gpt_profile, cfg, 512, 128)
        exact = exec_latency_exact(gpt_profile, cfg, 512, 128)
        assert abs(exact - approx) / approx <= 1e-9

    def test_linear_cost_matches_series_sum(self):
        prof = make_profile(t_dec=0.1, t_init=2.0)
        a, b = 0.01, 0.0005
        cost = lambda s: a + b * s
        got = exec_latency_exact(prof, C111, 512, 50, per_length_cost=cost)
        # arithmetic series: prefill + sum_{i=1..50} (a + b*(512+i))
        want = 2.0 + 50 * a + b * (50 * 512 + 50 * 51 / 2)
        assert got == pytest.approx(want, rel=1e-12)

    def test_single_step(self):
        prof = make_profile(t_dec=0.25, t_init=1.0)
        got = exec_latency_exact(prof, C111, 512, 1)
        assert got == pytest.approx(1.0 + 0.25)


class TestThroughput:
    def test_linear_in_data_parallel(self, gpt_profile):
        one = throughput(gpt_profile, ParallelConfig(1, 3, 4, 1))
        two = throughput(gpt_profile, ParallelConfig(2, 3, 4, 1))
        assert two == pytest.approx(2 * one)

    def test_simple_value(self):
        # P=1, eta=1, D=B=1 and a 10 s batch latency serve 0.1 req/s
        prof = make_profile(t_dec=0.0625, t_init=2.0, eta=1.0)
        assert exec_latency(prof, C111, 512, 128) == pytest.approx(10.0)
        assert throughput(prof, C111) == pytest.approx(0.1)

    def test_monotone_in_eta(self, gpt_profile):
        import dataclasses
        cfg = ParallelConfig(2, 3, 4, 1)
        lower = dataclasses.replace(gpt_profile, pipeline_efficiency=0.5)
        assert throughput(gpt_profile, cfg) > throughput(lower, cfg)


class TestMigrationCost:
    def test_empty_plan(self):
        prof = make_profile(bandwidth=1e9, latency=0.0)
        assert migration_cost(MigrationPlan(actions=[]), prof) == 0.0

    def test_single_transfer(self):
        prof = make_profile(bandwidth=1e9, latency=0.0)
        plan = MigrationPlan(actions=[Round(
            kind="migrate_layer", layer=0,
            transfers=(frac_transfer(("a", 0), ("b", 0), 1e9),))])
        assert migration_cost(plan, prof) == pytest.approx(1.0)

    def test_disjoint_pairs_run_concurrently(self):
        prof = make_profile(bandwidth=1e9, latency=0.0)
        plan = MigrationPlan(actions=[Round(
            kind="migrate_layer", layer=0,
            transfers=(frac_transfer(("a", 0), ("b", 0), 1e9),
                       frac_transfer(("c", 0), ("d", 0), 1e9)))])
        assert migration_cost(plan, prof) == pytest.approx(1.0)

    def test_shared_endpoint_serializes(self):
        prof = make_profile(bandwidth=1e9, latency=0.0)
        plan = MigrationPlan(actions=[Round(
            kind="migrate_layer", layer=0,
            transfers=(frac_transfer(("a", 0), ("b", 0), 1e9),
                       frac_transfer(("a", 1), ("c", 0), 1e9)))])
        assert migration_cost(plan, prof) == pytest.approx(2.0)

    def test_same_instance_copy_is_free(self):
        prof = make_profile(bandwidth=1e9, latency=0.0)
        plan = MigrationPlan(actions=[Round(
            kind="migrate_layer", layer=0,
            transfers=(frac_transfer(("a", 0), ("a", 1), 5e9),))])
        assert migration_cost(plan, prof) == 0.0

    def test_bounds(self):
        prof = make_profile(bandwidth=1e9, latency=0.0)
        transfers = [frac_transfer((f"s{i}", 0), (f"d{i % 2}", 0), 1e9) for i in range(4)]
        plan = MigrationPlan(actions=[
            Round(kind="migrate_layer", layer=i, transfers=(t,))
            for i, t in enumerate(transfers)
        ])
        total = sum(t.bytes for t in transfers)
        cost = migration_cost(plan, prof)
        assert cost >= total / (prof.bandwidth * 4) - 1e-9
        assert cost <= total / prof.bandwidth + 1e-9

    def test_progressive_le_full(self):
        prof = make_profile(bandwidth=1e9, latency=0.0, shapes=((2, 1, 1),))
        plan = MigrationPlan(actions=[
            Round(kind="migrate_layer", layer=0,
                  transfers=(frac_transfer(("a", 0), ("b", 0), 1e9),)),
            Round(kind="start_stage", stage=1),
            Round(kind="migrate_layer", layer=1,
                  transfers=(frac_transfer(("a", 0), ("c", 0), 1e9),)),
            Round(kind="start_stage", stage=2),
        ])
        cfg = ParallelConfig(1, 2, 1, 1)
        full = migration_cost(plan, prof)
        prog = migration_cost(plan, prof, config=cfg)
        assert prog <= full + 1e-12

    def test_release_floor_delays_start(self):
        prof = make_profile(bandwidth=1e9, latency=0.0)
        plan = MigrationPlan(actions=[Round(
            kind="migrate_layer", layer=0,
            transfers=(frac_transfer(("a", 0), ("b", 0), 1e9),))])
        # sender busy until t=5: one-second transfer ends at 6, cost from t=2 is 4
        got = migration_cost(plan, prof, release={"a": 5.0}, start=2.0)
        assert got == pytest.approx(4.0)


# Rounds of transfers with integer byte counts, so every port sum is exact
# and any split of a transfer sums to the same floats.
INSTANCES = ["a", "b", "c"]
transfers = st.builds(
    lambda src, dst, k, nbytes: frac_transfer(STORAGE if src == STORAGE[0] else (src, k),
                                              (dst, 1 - k), nbytes),
    st.sampled_from([*INSTANCES, STORAGE[0]]), st.sampled_from(INSTANCES),
    st.integers(0, 1), st.integers(0, 10**10))
rounds = st.lists(st.lists(transfers, max_size=5), min_size=1, max_size=5)
profiles = st.builds(lambda bandwidth, latency: make_profile(bandwidth=bandwidth, latency=latency),
                     st.sampled_from([1e9, 3e8]), st.sampled_from([0.0, 0.01, 2.5]))
releases = st.dictionaries(st.sampled_from(INSTANCES), st.floats(0, 100))


def layer_plan(plan_rounds) -> MigrationPlan:
    """One `migrate_layer` action per round, each followed by a stage start."""
    actions = []
    for layer, moved in enumerate(plan_rounds):
        actions.append(Round(kind="migrate_layer", layer=layer, transfers=tuple(moved)))
        actions.append(Round(kind="start_stage", stage=layer + 1))
    return MigrationPlan(actions=actions)


def port_rate(profile, inst: str) -> float:
    """Storage loads the whole model in one remote-storage restart."""
    if inst == STORAGE[0]:
        return profile.model.total_param_bytes / restart_cost(profile, "remote_storage")
    return profile.bandwidth


class TestPortModel:
    """`plan_timeline` under the port model, on random plans."""

    @given(plan_rounds=rounds, profile=profiles, release=releases, start=st.floats(0, 50),
           data=st.data())
    def test_splitting_a_transfer_changes_nothing(self, plan_rounds, profile, release, start,
                                                  data):
        at = data.draw(st.sampled_from([(i, j) for i, moved in enumerate(plan_rounds)
                                        for j in range(len(moved))] or [None]))
        assume(at is not None)
        i, j = at
        whole = plan_rounds[i][j]
        part = data.draw(st.integers(0, int(whole.bytes)))
        split = [list(moved) for moved in plan_rounds]
        split[i][j] = whole._replace(bytes=float(part))
        split[i].insert(data.draw(st.integers(0, len(split[i]))),
                        whole._replace(bytes=whole.bytes - part))
        assert (plan_timeline(layer_plan(split), profile, release, start)
                == plan_timeline(layer_plan(plan_rounds), profile, release, start))

    @given(plan_rounds=rounds, profile=profiles, release=releases, start=st.floats(0, 50))
    def test_no_round_ends_before_its_ports(self, plan_rounds, profile, release, start):
        plan = layer_plan(plan_rounds)
        ends = plan_timeline(plan, profile, release, start)
        carried: dict[tuple[str, str], float] = {}
        for action, end, before in zip(plan.actions, ends, [start, *ends]):
            assert end >= before
            touched = set()
            for t in action.transfers:
                if t.src[0] != t.dst[0]:
                    for port in (("out", t.src[0]), ("in", t.dst[0])):
                        carried[port] = carried.get(port, 0.0) + t.bytes
                        touched.add(port)
            for side, inst in touched:
                rate = port_rate(profile, inst) if side == "out" else profile.bandwidth
                assert end >= release.get(inst, start) + carried[side, inst] / rate

    @given(plan_rounds=rounds, profile=profiles)
    def test_makespan_within_the_port_bound(self, plan_rounds, profile):
        sent: dict[str, float] = {}
        received: dict[str, float] = {}
        moving = 0
        for moved in plan_rounds:
            cross = [t for t in moved if t.src[0] != t.dst[0]]
            moving += bool(cross)
            for t in cross:
                sent[t.src[0]] = sent.get(t.src[0], 0.0) + t.bytes
                received[t.dst[0]] = received.get(t.dst[0], 0.0) + t.bytes
        cost = migration_cost(layer_plan(plan_rounds), profile)
        assert cost <= migration_bound(sent, received, moving, profile)


class TestRestartCost:
    def test_remote_ratio(self):
        prof = make_profile()
        assert restart_cost(prof, "remote_storage") == pytest.approx(95.4)

    def test_local_ratio(self):
        prof = make_profile()
        assert restart_cost(prof, "local_disk") == pytest.approx(14.5)

    def test_ratio_override_of_one(self):
        prof = make_profile(local_ratio=1.0)
        assert restart_cost(prof, "local_disk") == pytest.approx(10.0)

    def test_profile_default_baseline(self):
        prof = make_profile(baseline=20.0)
        assert restart_cost(prof, "local_disk") == pytest.approx(29.0)

    def test_unknown_source(self):
        with pytest.raises(CostModelError):
            restart_cost(make_profile(), "tape")


class TestMonetaryCost:
    def test_eight_spot_instances_one_hour(self):
        log = [(f"i-{k}", "spot", 0.0, 3600.0) for k in range(8)]
        got = monetary_cost(log, make_profile().prices)
        assert got.total_usd == pytest.approx(15.20)

    def test_empty_log(self):
        got = monetary_cost([], make_profile().prices)
        assert got.total_usd == 0.0

    def test_mixed_kinds(self):
        log = [("a", "ondemand", 0, 1800), ("b", "ondemand", 0, 1800),
               ("c", "spot", 0, 1800), ("d", "spot", 0, 1800)]
        got = monetary_cost(log, make_profile().prices)
        assert got.total_usd == pytest.approx(0.5 * (3.9 + 3.9 + 1.9 + 1.9))

    def test_per_token(self):
        log = [("a", "spot", 0.0, 3600.0)]
        got = monetary_cost(log, make_profile().prices, tokens_served=1000)
        assert got.usd_per_token == pytest.approx(1.9 / 1000)

    def test_overlap_is_an_error(self):
        log = [("a", "spot", 0.0, 100.0), ("a", "spot", 50.0, 150.0)]
        with pytest.raises(CostModelError):
            monetary_cost(log, make_profile().prices)

    def test_linear_in_duration_and_additive(self):
        prices = make_profile().prices
        one = monetary_cost([("a", "spot", 0, 3600)], prices).total_usd
        two = monetary_cost([("a", "spot", 0, 7200)], prices).total_usd
        both = monetary_cost([("a", "spot", 0, 3600), ("b", "spot", 0, 3600)], prices).total_usd
        assert two == pytest.approx(2 * one)
        assert both == pytest.approx(2 * one)


def test_repeated_s_in_key_is_an_error(gpt_profile):
    """ " 128" and "128" name one length: the table would keep one of them."""
    doc = profile_to_dict(gpt_profile)
    entry = doc["t_init"]["2,8,2"]
    entry[" 128"] = 2 * entry["128"]
    with pytest.raises(CostModelError, match="s_in"):
        profile_from_dict(doc)


def test_profile_roundtrip(gpt_profile):
    doc = profile_to_dict(gpt_profile)
    back = profile_from_dict(doc)
    assert back.decode_table == gpt_profile.decode_table
    assert back.prefill_table == gpt_profile.prefill_table
    assert back.pipeline_efficiency == gpt_profile.pipeline_efficiency
    assert back.prices == gpt_profile.prices
