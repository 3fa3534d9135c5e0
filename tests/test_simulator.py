import json
from collections import Counter
from dataclasses import replace

import pytest

from spotsim.costmodel import exec_latency, load_profile, migration_cost, restart_cost
from spotsim.data import bundled_path
from spotsim.domain import (
    STORAGE,
    ContextInventory,
    Layout,
    ParallelConfig,
    gpu_order,
    required_context,
)
from spotsim.mapping import positional_mapping
from spotsim.metrics import write_summary_json
from spotsim.migration import derive_transfers, plan_migration
from spotsim.simconfig import (
    CONFIG_KEYS,
    SimConfig,
    SimConfigError,
    TraceError,
    WorkloadSpec,
    load_simconfig,
    load_trace,
    simconfig_from_dict,
    simconfig_to_dict,
)
from spotsim.simulator import AdaptivePolicy, Engine, make_policy, run

from conftest import boot_events, churn_config, save_arrivals, write_trace


@pytest.fixture()
def scenario(tmp_path):
    """Small single-instance scenario around the OPT profile's (1,4) shape."""
    def build(events, arrivals=None, n_boot=2, **overrides):
        trace = tmp_path / "trace.jsonl"
        write_trace(trace, boot_events(n_boot) + events)
        wl = overrides.pop("workload", None)
        if wl is None:
            apath = tmp_path / "arrivals.jsonl"
            save_arrivals(arrivals or [], apath)
            wl = WorkloadSpec(kind="arrival_file", path=str(apath))
        kwargs = dict(
            policy="spotserve",
            duration=600.0,
            pool_size=1,
            gpus_per_instance=4,
            s_in=512,
            s_out=128,
        )
        kwargs.update(overrides)
        return SimConfig(
            profile_path=str(bundled_path("opt-6.7b")),
            trace_path=str(trace),
            workload=wl,
            **kwargs,
        )
    return build


class TestTraceLoading:
    def test_parse_error_reports_line(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text('{"t": 0, "kind": "acquire", "id": "i-0"}\nnot json\n')
        with pytest.raises(TraceError, match=":2:"):
            load_trace(p)

    def test_unknown_kind_rejected(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text('{"t": 0, "kind": "explode", "id": "i-0"}\n')
        with pytest.raises(TraceError):
            load_trace(p)

    def test_defaults_applied(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text('{"t": 5, "kind": "preempt", "id": "i-0"}\n'
                     '{"t": 9, "kind": "acquire", "id": "i-1"}\n')
        events = load_trace(p, grace_default=30.0, ready_default=120.0)
        assert events[0].grace == 30.0
        assert events[1].ready_in == 120.0 and events[1].itype == "spot"


class TestSingleRequest:
    def test_empty_trace_latency_is_closed_form(self, scenario):
        cfg = scenario(events=[], arrivals=[(10.0, 512, 128)])
        report = run(cfg)
        prof = load_profile(cfg.profile_path)
        rec = report.records[0]
        assert rec.l_sch == 0.0
        # the controller picks the min-latency shape for rate 0 and the batch
        # runs uninterrupted, so l_req is exactly the cost model's latency
        best = min(
            exec_latency(prof, ParallelConfig(1, p, m, b), 512, 128)
            for (p, m, b) in prof.shapes() if p * m <= 8
        )
        assert rec.l_req == pytest.approx(best, rel=1e-9)
        assert report.completed == 1

    def test_conservation(self, scenario):
        arrivals = [(float(t), 512, 128) for t in range(0, 590, 7)]
        cfg = scenario(events=[], arrivals=arrivals)
        report = run(cfg)
        assert report.arrived == len(arrivals)
        assert report.completed + report.unfinished == report.arrived
        for r in report.records:
            if r.done:
                assert r.tokens_generated == r.s_out


class TestDeterminism:
    def test_identical_reports(self, scenario):
        cfg = scenario(events=[{"t": 100.0, "kind": "preempt", "id": "i-0", "grace": 30.0}],
                       workload=WorkloadSpec(kind="fixed_rate", rate=0.6, cv=6.0, seed=5))
        a, b = run(cfg), run(cfg)
        assert a.summary_dict() == b.summary_dict()
        assert [(r.id, r.dispatch, r.completion) for r in a.records] == \
               [(r.id, r.dispatch, r.completion) for r in b.records]


class TestPreemptionHandling:
    def test_progress_preserved_across_migration(self, scenario, tmp_path):
        # two instances serve; one is preempted mid-decode and the idle pool
        # instance takes over; the batch must not lose its generated tokens
        arrivals = [(0.0, 512, 128)]
        events = [{"t": 3.0, "kind": "preempt", "id": "i-0", "grace": 30.0}]
        cfg = scenario(events=events, arrivals=arrivals, n_boot=2)
        report = run(cfg)
        rec = report.records[0]
        assert rec.done
        prof = load_profile(cfg.profile_path)
        uninterrupted = min(
            exec_latency(prof, ParallelConfig(1, p, m, b), 512, 128)
            for (p, m, b) in prof.shapes() if p * m <= 8
        )
        # migrated, not recomputed: at most one migration stall on top
        assert rec.l_req < uninterrupted + 30.0
        assert rec.l_req >= uninterrupted - 1e-9

    def test_all_instances_lost_stalls_queue(self, scenario):
        arrivals = [(0.0, 512, 128), (1.0, 512, 128), (200.0, 512, 128)]
        events = [
            {"t": 2.0, "kind": "preempt", "id": "i-0", "grace": 5.0},
            {"t": 2.0, "kind": "preempt", "id": "i-1", "grace": 5.0},
            {"t": 300.0, "kind": "acquire", "id": "i-9", "itype": "spot", "ready_in": 10.0},
        ]
        cfg = scenario(events=events, arrivals=arrivals, n_boot=2, pool_size=0)
        report = run(cfg)
        # nothing can finish before the new instance is up at t=310
        for r in report.records:
            if r.done:
                assert r.completion > 310.0

    def test_baseline_resets_progress(self, scenario):
        arrivals = [(0.0, 512, 128)]
        events = [{"t": 3.0, "kind": "preempt", "id": "i-0", "grace": 30.0}]
        cfg = scenario(events=events, arrivals=arrivals, n_boot=2, policy="reparallelization")
        report = run(cfg)
        rec = report.records[0]
        prof = load_profile(cfg.profile_path)
        uninterrupted = min(
            exec_latency(prof, ParallelConfig(1, p, m, b), 512, 128)
            for (p, m, b) in prof.shapes() if p * m <= 8
        )
        assert rec.done
        # restarted from token zero after ~3 s of work plus a restart stall
        assert rec.l_req > uninterrupted + 3.0 - 1e-9


class TestPolicies:
    def test_rerouting_identical_to_static_without_events(self, scenario):
        arrivals = [(float(t), 512, 128) for t in range(0, 500, 25)]
        quiet = scenario(events=[], arrivals=arrivals, policy="rerouting",
                         rerouting_shape=(1, 4, 2))
        report = run(quiet)
        assert report.completed == len(arrivals)

    def test_rerouting_requeues_after_loss(self, scenario):
        arrivals = [(0.0, 512, 128), (1.0, 512, 128)]
        events = [{"t": 2.0, "kind": "preempt", "id": "i-0", "grace": 30.0}]
        cfg = scenario(events=events, arrivals=arrivals, n_boot=2,
                       policy="rerouting", rerouting_shape=(1, 4, 2))
        report = run(cfg)
        assert report.completed == 2
        # recomputed on the spare instance after a restart stall
        assert all(r.l_req > 10.0 for r in report.records)

    def test_reparallelization_no_events_matches_spotserve(self, scenario):
        arrivals = [(float(t), 512, 128) for t in range(0, 400, 40)]
        a = run(scenario(events=[], arrivals=arrivals, policy="spotserve"))
        b = run(scenario(events=[], arrivals=arrivals, policy="reparallelization"))
        assert a.p99 == pytest.approx(b.p99)
        assert a.avg_latency == pytest.approx(b.avg_latency)


class TestCapacityAndOverload:
    def test_queue_diverges_when_rate_exceeds_throughput(self, scenario):
        cfg = scenario(events=[], n_boot=1, pool_size=0,
                       workload=WorkloadSpec(kind="fixed_rate", rate=3.0, cv=1.0, seed=2))
        report = run(cfg)
        # OPT on one 4-GPU instance serves well under 3 req/s
        assert report.unfinished > 100
        mid = run(replace(cfg, duration=300.0))
        assert report.unfinished > mid.unfinished  # monotone growth over time

    def test_usage_log_and_cost(self, scenario):
        cfg = scenario(events=[], arrivals=[(0.0, 512, 128)], n_boot=2)
        report = run(cfg)
        # two spot instances for 600 s
        assert report.cost.total_usd == pytest.approx(2 * 1.9 * 600 / 3600)


class TestSimConfig:
    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(SimConfigError):
            SimConfig(profile_path="p", trace_path="t",
                      workload=WorkloadSpec(kind="fixed_rate", rate=1.0, cv=1.0, seed=0),
                      policy="nonsense")

    def test_expected_arrivals_bound_is_inclusive(self):
        """rate x duration may reach 10**6 but not pass it; neither config
        draws an arrival."""
        wl = WorkloadSpec(kind="fixed_rate", rate=1000.0, cv=6.0, seed=0)
        SimConfig(profile_path="p", trace_path="t", workload=wl, duration=1000.0)
        with pytest.raises(SimConfigError, match="expected arrivals"):
            SimConfig(profile_path="p", trace_path="t", workload=wl, duration=1000.5)

    def test_bundled_scenario_loads(self):
        cfg = load_simconfig(bundled_path("scenario_bs.json"))
        assert cfg.policy == "spotserve"
        assert cfg.workload.kind == "fixed_rate"
        assert cfg.rerouting_shape == (2, 8, 2)

    def test_required_keys_alone_take_simconfig_defaults(self, tmp_path):
        wl = {"kind": "fixed_rate", "rate": 0.3, "cv": 1.0, "seed": 1}
        cfg = simconfig_from_dict({"profile": "p.json", "trace": "t.jsonl", "workload": wl},
                                  tmp_path)
        assert cfg == SimConfig(profile_path=str(tmp_path / "p.json"),
                                trace_path=str(tmp_path / "t.jsonl"), workload=WorkloadSpec(**wl))

    @pytest.mark.parametrize("every_key", [False, True], ids=["bundled", "every-optional-key"])
    def test_dict_round_trip(self, every_key):
        """`simconfig_to_dict` writes every key `simconfig_from_dict` reads,
        and its JSON reads back as the same config."""
        cfg = load_simconfig(bundled_path("scenario_bs.json"))
        if every_key:
            cfg = replace(cfg, policy="rerouting", duration=600.0, pool_size=3,
                          gpus_per_instance=8, u_max=4.0e9, s_in=256, s_out=64,
                          grace_default=20.0, ready_default=60.0, rate_source="estimated",
                          rate_window=45.0, rerouting_shape=(3, 4, 4),
                          disable=("controller", "planner"))
        doc = simconfig_to_dict(cfg)
        assert list(doc) == list(CONFIG_KEYS)
        assert simconfig_from_dict(json.loads(json.dumps(doc))) == cfg

    def test_declared_rate_needs_fixed_workload(self, tmp_path):
        apath = tmp_path / "a.jsonl"
        save_arrivals([(1.0, 8, 8)], apath)
        cfg = SimConfig(profile_path="p", trace_path="t",
                        workload=WorkloadSpec(kind="arrival_file", path=str(apath)),
                        rate_source="declared")
        assert cfg.rate_source == "estimated"


@pytest.mark.parametrize("policy", ["spotserve", "rerouting", "reparallelization"])
def test_request_finished_inside_horizon_is_complete(policy, scenario):
    """Regression: a request whose last token commits inside the horizon is
    done even while its batch runs past the horizon (`finalize` used to set
    its tokens and leave it without a completion)."""
    # booting at 1 s, a 2 s rate window sees both arrivals, so the controller
    # picks a batched shape and the two requests share one batch
    cfg = scenario(boot_events(2, t=1.0), arrivals=[(0.0, 512, 8), (0.0, 512, 4000)],
                   n_boot=0, duration=200.0, rate_window=2.0, policy=policy)
    report = run(cfg)
    profile = load_profile(cfg.profile_path)
    config = ParallelConfig(*report.reconfigurations[-1][1])
    short, long = sorted(report.records, key=lambda r: r.id)
    assert short.dispatch == long.dispatch == 1.0 and config.batch_limit >= 2
    eighth = (short.dispatch + profile.prefill_seconds(config, 512)
              + 8 * profile.decode_seconds(config))
    assert short.id == "r-00000" and short.tokens_generated == 8
    assert short.done and short.completion == pytest.approx(eighth, abs=1e-9)
    assert not long.done and long.tokens_generated < 4000


def test_grace_feeding_never_schedules_across_the_cutover(tmp_path):
    """Regression: a batch fed into a future pipeline slot during a grace
    period must not straddle the reconfiguration cutover (it used to be
    'resumed' before its own dispatch time, skipping its prefill)."""
    events = (boot_events(7)
              + [{"t": 120.0725146642946, "kind": "preempt", "id": "i-1", "grace": 30.0},
                 {"t": 215.49007460264417, "kind": "preempt", "id": "i-3", "grace": 5.0},
                 {"t": 391.95029634141054, "kind": "preempt", "id": "i-6", "grace": 30.0}])
    trace = tmp_path / "regress.jsonl"
    write_trace(trace, events)
    cfg = SimConfig(
        profile_path=str(bundled_path("opt-6.7b")),
        trace_path=str(trace),
        workload=WorkloadSpec(kind="fixed_rate", rate=0.45797852800781014, cv=6.0, seed=7978),
        policy="spotserve", duration=400.0, pool_size=0, gpus_per_instance=4,
        u_max=1e9,
    )
    report = run(cfg)
    for rec in report.records:
        if rec.done:
            assert rec.completion >= rec.dispatch - 1e-9
            assert rec.dispatch >= rec.arrival - 1e-9


def test_overprovision_releases_ondemand_first(tmp_path):
    """When the fleet exceeds the target plus the standby pool, idle on-demand
    instances are released before idle spot ones."""
    from spotsim.simulator import Engine, make_policy
    from spotsim.simconfig import load_trace as _load_trace

    events = [{"t": 0.0, "kind": "acquire", "id": f"i-{k}",
               "itype": "ondemand" if k >= 4 else "spot", "ready_in": 0.0}
              for k in range(6)]
    trace = tmp_path / "trace.jsonl"
    write_trace(trace, events)
    apath = tmp_path / "arrivals.jsonl"
    save_arrivals([(10.0, 512, 128)], apath)
    cfg = SimConfig(
        profile_path=str(bundled_path("opt-6.7b")),
        trace_path=str(trace),
        workload=WorkloadSpec(kind="arrival_file", path=str(apath)),
        policy="spotserve", duration=300.0, pool_size=1, gpus_per_instance=4,
    )
    profile = load_profile(cfg.profile_path)
    engine = Engine(cfg, profile, _load_trace(trace), [(10.0, 512, 128)])
    engine.policy = make_policy(cfg)
    engine.run()
    released_early = {iid for iid, kind, start, end in engine.usage() if end < 300.0}
    kinds = {iid: kind for iid, kind, *_ in engine.usage()}
    # exactly the instances beyond the target and the pool spare are released,
    # and both on-demand ones must be among those released at t=0
    target = engine.reconfig_log[0].target
    surplus = 6 - target.instances(cfg.gpus_per_instance) - cfg.pool_size
    assert surplus > 0 and len(released_early) == surplus
    assert {"i-4", "i-5"} <= released_early
    # then the idle spot instances, in natural-key order
    spot_released = [i for i in released_early if kinds[i] == "spot"]
    assert sorted(spot_released) == ["i-0", "i-1"]
    ondemand_kept = [i for i, k in kinds.items() if k == "ondemand" and i not in released_early]
    assert not ondemand_kept, "no on-demand instance may outlive released spot capacity"


def test_event_budget_on_bundled_rerouting(monkeypatch):
    """Dispatch keeps one pending wake: the queue sees a few events per
    arrival, not a poll for every look at a gated pipeline."""
    counts = Counter()
    push = Engine.push

    def counted(engine, t, prio, kind, data):
        counts[kind] += 1
        return push(engine, t, prio, kind, data)
    monkeypatch.setattr(Engine, "push", counted)
    cfg = load_simconfig(bundled_path("scenario_bs.json"))
    run(replace(cfg, policy="rerouting"))
    assert counts["arrival"] > 0
    assert sum(counts.values()) < 3 * counts["arrival"], dict(counts)


def test_holdings_store_after_bundled_run(monkeypatch):
    """`Engine.holdings` is the one holdings store: after the bundled
    spotserve run it maps each assigned GPU to exactly its position's model
    context, with no KV cache left by a decision and no other GPU."""
    engines = []
    run_engine = Engine.run

    def capture(engine):
        engines.append(engine)
        return run_engine(engine)
    monkeypatch.setattr(Engine, "run", capture)
    run(load_simconfig(bundled_path("scenario_bs.json")))
    (engine,) = engines
    assert engine.config is not None and engine.assignment
    assert engine.holdings == Layout.of({gpu: required_context(engine.config, pos, engine.model)
                                         for pos, gpu in engine.assignment.items()})


def suspension_config(tmp_path, policy):
    """Three 4-GPU instances serve gpt-20b as (1,3,4,1).  Losing i-1 at t=100
    leaves two instances, which no gpt-20b shape fits, so service suspends
    until i-3, announced at t=200, is ready."""
    events = (boot_events(3)
              + [{"t": 100.0, "kind": "preempt", "id": "i-1", "grace": 0.0},
                 {"t": 200.0, "kind": "acquire", "id": "i-3", "ready_in": 30.0}])
    trace = tmp_path / "trace.jsonl"
    write_trace(trace, events)
    return SimConfig(
        profile_path=str(bundled_path("gpt-20b")),
        trace_path=str(trace),
        workload=WorkloadSpec(kind="fixed_rate", rate=0.05, cv=1.0, seed=1),
        policy=policy, duration=600.0, gpus_per_instance=4,
    )


def storage_share(profile, sent: float) -> float:
    """Seconds storage takes to send `sent` bytes: the whole model takes one
    remote-storage restart."""
    return sent * restart_cost(profile, "remote_storage") / profile.model.total_param_bytes


def recorded_plans(monkeypatch) -> list:
    """Every plan the spotserve policy builds, in build order."""
    import spotsim.simulator as sim

    plans = []
    plan_migration = sim.plan_migration

    def recorded(*args, **kwargs):
        plans.append(plan_migration(*args, **kwargs))
        return plans[-1]
    monkeypatch.setattr(sim, "plan_migration", recorded)
    return plans


# gpt-20b's stage 2 of 3: 15 of its 44 layers
LOST_STAGE_BYTES = 25_397_727_270.0


def test_suspension_keeps_holdings_for_the_reboot(tmp_path, monkeypatch):
    """When i-3 is announced the mapper reuses the model context i-0 and i-2
    kept through the suspension.  The stage whose only copy left with i-1 is
    on no live GPU, so the reboot is not a first boot: storage sends that
    stage, and only it, to i-3."""
    mappings = {}
    compute_mapping = AdaptivePolicy.compute_mapping

    def recorded(policy, engine, target):
        mappings[engine.now] = mapping = compute_mapping(policy, engine, target)
        return mapping
    monkeypatch.setattr(AdaptivePolicy, "compute_mapping", recorded)
    plans = recorded_plans(monkeypatch)
    report = run(suspension_config(tmp_path, "spotserve"))
    profile = load_profile(bundled_path("gpt-20b"))
    (plan,) = plans
    assert {t.src for t in plan.transfers()} == {STORAGE}
    assert {t.dst[0] for t in plan.transfers()} == {"i-3"}
    assert plan.total_bytes() == LOST_STAGE_BYTES
    t_mig = storage_share(profile, LOST_STAGE_BYTES) + profile.transfer_latency
    assert [(t, shape, t_mig) for t, shape, t_mig in report.reconfigurations] == [
        (0.0, (1, 3, 4, 1), 0.0), (200.0, (1, 3, 4, 1), pytest.approx(t_mig))]
    assert t_mig == pytest.approx(65.05, abs=0.01)
    assert sorted(mappings) == [0.0, 200.0]
    # the model bytes i-0 and i-2 still hold: 25,397,727,270 + 23,704,545,452
    assert mappings[200.0].total_weight == 49_102_272_722.0
    assert (report.completed, report.arrived) == (26, 28)


def test_reparallelization_reboot_after_suspension_restarts(tmp_path):
    """A reparallelization restart after a suspension reloads from local
    disk like every restart but the first boot."""
    report = run(suspension_config(tmp_path, "reparallelization"))
    profile = load_profile(bundled_path("gpt-20b"))
    assert [(t, shape, t_mig) for t, shape, t_mig in report.reconfigurations] == [
        (0.0, (1, 3, 4, 1), 0.0), (200.0, (1, 3, 4, 1), restart_cost(profile, "local_disk"))]
    assert (report.completed, report.arrived) == (26, 28)


def test_one_cache_free_derivation_per_commit(monkeypatch):
    """A spotserve commit derives its model pieces exactly once, in the
    cache-free derivation that gives the participants, the grace estimate's
    model part and every plan without cache; a plan or an estimate whose
    snapshot carries KV cache derives only its cache pieces, on that
    snapshot, on top of that derivation.  Each commit builds one plan: the
    grace estimate reads its derivation's port totals and assembles none."""
    import spotsim.migration as migration
    import spotsim.simulator as sim

    counts = Counter()

    def counted(derive):
        def wrapper(*args, **kwargs):
            counts["derivations"] += 1
            counts["model derivations"] += kwargs.get("base") is None
            return derive(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(sim, "derive_transfers", counted(sim.derive_transfers))
    monkeypatch.setattr(migration, "derive_transfers", counted(migration.derive_transfers))
    plan_migration, on_commit = sim.plan_migration, sim.AdaptivePolicy.on_commit
    derive, bound = sim.AdaptivePolicy._derive, sim.migration_bound

    def plan(transfers, *args, **kwargs):
        counts["plans"] += 1
        # a derivation over a layout that carries cache names a request
        # besides the model; a cache-free one names only the model
        counts["plans with cache"] += transfers.cache.rids != [None]
        return plan_migration(transfers, *args, **kwargs)

    carried = [False]  # whether the last `_derive` call's snapshot carried cache

    def derived(policy, engine, mapping, base, cache, inherited):
        carried[0] = any(cache.values())
        return derive(policy, engine, mapping, base, cache, inherited)

    def estimate(*args):
        # the estimate bounds the derivation `_derive` just returned
        counts["estimates"] += 1
        counts["estimates with cache"] += carried[0]
        return bound(*args)

    def commit(policy, engine, payload):
        counts["commits"] += engine.config is not None
        return on_commit(policy, engine, payload)
    monkeypatch.setattr(sim, "plan_migration", plan)
    monkeypatch.setattr(sim, "migration_bound", estimate)
    monkeypatch.setattr(sim.AdaptivePolicy, "_derive", derived)
    monkeypatch.setattr(sim.AdaptivePolicy, "on_commit", commit)
    run(load_simconfig(bundled_path("scenario_bs.json")))
    assert counts["commits"] > 0 and counts["plans with cache"] > 0
    assert counts["estimates with cache"] > 0
    assert counts["plans"] == counts["commits"], dict(counts)
    assert counts["derivations"] == (counts["commits"] + counts["plans with cache"]
                                     + counts["estimates with cache"]), dict(counts)
    assert counts["model derivations"] == counts["commits"], dict(counts)


def recorded_estimates(monkeypatch) -> list[tuple[float, float, bool]]:
    """Each grace estimate of the spotserve policy, with the migration time
    (no release, start 0) of the plan assembled from the derivation it
    bounds, under the cap the commit's own plan uses, and whether that
    derivation moves KV cache."""
    import spotsim.simulator as sim

    records, last = [], []
    derive, bound = AdaptivePolicy._derive, sim.migration_bound

    def derived(policy, engine, mapping, base, cache, inherited):
        last[:] = [policy, engine, derive(policy, engine, mapping, base, cache, inherited)]
        return last[-1]

    def estimate(*args):
        policy, engine, derivation = last
        u_max = engine.cfg.u_max if policy._use("planner") else None
        plan = plan_migration(derivation, u_max)
        records.append((bound(*args), migration_cost(plan, engine.profile),
                        bool(derivation.records()[1])))
        return records[-1][0]
    monkeypatch.setattr(AdaptivePolicy, "_derive", derived)
    monkeypatch.setattr(sim, "migration_bound", estimate)
    return records


@pytest.mark.parametrize("source", ["bundled", "churn"])
def test_grace_estimate_bounds_the_plan_it_skips(source, tmp_path, monkeypatch):
    """The arranger's estimate, read from a derivation's port totals, is no
    less than the time of the plan that derivation assembles into, on every
    grace commit of the bundled scenario and of a random churn trace; some
    of those commits carry KV cache."""
    records = recorded_estimates(monkeypatch)
    cfg = (load_simconfig(bundled_path("scenario_bs.json")) if source == "bundled"
           else churn_config(tmp_path, seed=3))
    run(cfg)
    assert any(cost > 0 and cache for _, cost, cache in records), records
    assert all(estimate >= cost for estimate, cost, _ in records), records


def test_lost_only_copy_loads_its_stage_from_storage(tmp_path, monkeypatch):
    """Three 4-GPU instances serve gpt-20b as (1,3,4,B), one stage each.  At
    t=100 i-3 is acquired (ready at 160) and i-1 is preempted without grace:
    the commit waits for i-3, by when the only copy of i-1's stage is gone,
    so storage sends that stage to i-3 and the other two stay in place."""
    plans = recorded_plans(monkeypatch)
    events = (boot_events(3)
              + [{"t": 100.0, "kind": "acquire", "id": "i-3", "ready_in": 60.0},
                 {"t": 100.0, "kind": "preempt", "id": "i-1", "grace": 0.0}])
    trace = tmp_path / "trace.jsonl"
    write_trace(trace, events)
    cfg = SimConfig(
        profile_path=str(bundled_path("gpt-20b")),
        trace_path=str(trace),
        workload=WorkloadSpec(kind="fixed_rate", rate=0.3, cv=1.0, seed=1),
        policy="spotserve", duration=400.0, pool_size=0, gpus_per_instance=4,
    )
    report = run(cfg)
    profile = load_profile(cfg.profile_path)
    assert [(t, shape[1:3]) for t, shape, _ in report.reconfigurations] == [
        (0.0, (3, 4)), (100.0, (3, 4))]
    (plan,) = plans
    assert {(t.src, t.dst[0]) for t in plan.transfers()} == {(STORAGE, "i-3")}
    assert plan.total_bytes() == LOST_STAGE_BYTES
    t_mig = report.reconfigurations[-1][2]
    assert t_mig == pytest.approx(storage_share(profile, LOST_STAGE_BYTES)
                                  + profile.transfer_latency)
    assert t_mig == pytest.approx(65.05, abs=0.01)


def test_lost_pipeline_recomputes_and_the_commit_migrates(tmp_path, monkeypatch):
    """Three 4-GPU instances serve opt-6.7b as (3,1,4,2), one pipeline each.
    At t=100 i-3 is acquired (ready at 160) and i-1 is preempted without
    grace.  At the release, i-1's pipeline loses its GPU and with it the KV
    cache of its batches: their requests recompute from token zero, and the
    pipeline takes no batch until the commit at 160 replaces it.  The other
    two pipelines still hold the model, so the commit migrates it to i-3
    instead of reloading it from storage."""
    restarted, started = [], []
    restart_batches, start_batch = Engine.restart_batches, Engine.start_batch

    def recorded_start(engine, pipe, requests, at=None):
        served_by = {pos.pipeline: gpu[0] for pos, gpu in engine.assignment.items()}
        started.append((engine.now if at is None else at, served_by[pipe.index]))
        return start_batch(engine, pipe, requests, at)

    def recorded(engine, batches):
        served_by = {pos.pipeline: gpu[0] for pos, gpu in engine.assignment.items()}
        requests = [r for b in batches for r in b.requests]
        restart_batches(engine, batches)
        if batches:
            unfinished = [r for r in requests if not r.done]
            restarted.append((engine.now, {served_by[b.pipeline] for b in batches}, unfinished))
            assert all(r in engine.queue and r.tokens_generated == 0 for r in unfinished)
    monkeypatch.setattr(Engine, "restart_batches", recorded)
    monkeypatch.setattr(Engine, "start_batch", recorded_start)
    events = (boot_events(3)
              + [{"t": 100.0, "kind": "acquire", "id": "i-3", "ready_in": 60.0},
                 {"t": 100.0, "kind": "preempt", "id": "i-1", "grace": 0.0}])
    trace = tmp_path / "trace.jsonl"
    write_trace(trace, events)
    cfg = SimConfig(
        profile_path=str(bundled_path("opt-6.7b")),
        trace_path=str(trace),
        workload=WorkloadSpec(kind="fixed_rate", rate=0.5, cv=1.0, seed=1),
        policy="spotserve", duration=400.0, pool_size=0, gpus_per_instance=4,
    )
    report = run(cfg)
    profile = load_profile(cfg.profile_path)
    ((t, lost, unfinished),) = restarted
    assert (t, lost) == (100.0, {"i-1"}) and unfinished
    assert any(t < 100.0 and inst == "i-1" for t, inst in started)
    assert not [t for t, inst in started if 100.0 <= t < 160.0 and inst == "i-1"]
    # i-3 receives the whole model over its own link from the live replicas
    t_mig = profile.model.total_param_bytes / profile.bandwidth + profile.transfer_latency
    assert report.reconfigurations == [
        (0.0, (3, 1, 4, 2), 0.0), (100.0, (3, 1, 4, 2), pytest.approx(t_mig))]
    assert t_mig < restart_cost(profile, "remote_storage")
    assert (report.completed, report.arrived) == (187, 191)


def live_installs(monkeypatch) -> list:
    """Record the instances of every installed layout, checking that each
    serves on live instances only."""
    installs = []
    install_layout = Engine.install_layout

    def checked(engine, config, mapping):
        serving = sorted({gpu[0] for gpu in mapping.assignment})
        assert all(engine.instances[i].status != "released" for i in serving), serving
        installs.append(serving)
        return install_layout(engine, config, mapping)
    monkeypatch.setattr(Engine, "install_layout", checked)
    return installs


def opt_run(tmp_path, events, rate, pool_size, policy="spotserve"):
    trace = tmp_path / "trace.jsonl"
    write_trace(trace, events)
    return run(SimConfig(
        profile_path=str(bundled_path("opt-6.7b")), trace_path=str(trace),
        workload=WorkloadSpec(kind="fixed_rate", rate=rate, cv=1.0, seed=0),
        policy=policy, duration=240.0, pool_size=pool_size))


COMMITTING = pytest.mark.parametrize("policy", ["spotserve", "reparallelization"])


@COMMITTING
def test_superseded_commit_is_dropped(policy, tmp_path, monkeypatch):
    """i-1, announced at t=1, is ready at t=2, when i-0 is preempted without
    grace.  The decision at t=2 commits at once; the commit the t=1 decision
    scheduled for t=2 runs after it and is dropped, with its log entry,
    instead of installing a layout on the released i-0."""
    installs = live_installs(monkeypatch)
    report = opt_run(tmp_path, [
        {"t": 0.0, "kind": "acquire", "id": "i-0", "ready_in": 0.0},
        {"t": 1.0, "kind": "acquire", "id": "i-1", "ready_in": 1.0},
        {"t": 2.0, "kind": "preempt", "id": "i-0", "grace": 0.0}], rate=1.0, pool_size=1,
        policy=policy)
    assert installs == [["i-0"], ["i-1"]]
    assert [(t, shape) for t, shape, _ in report.reconfigurations] == [
        (0.0, (1, 2, 2, 4)), (2.0, (1, 2, 2, 4))]


@COMMITTING
def test_commit_that_lost_an_instance_decides_anew(policy, tmp_path, monkeypatch):
    """The decision at t=10 serves on i-1 and i-2, both ready at t=70.  i-2
    is preempted at t=20 and released at t=25, so at t=70 the decision
    names a released instance: the policy decides again and serves on i-0
    and i-1."""
    installs = live_installs(monkeypatch)
    report = opt_run(tmp_path, [
        {"t": 0.0, "kind": "acquire", "id": "i-0", "ready_in": 0.0},
        {"t": 10.0, "kind": "acquire", "id": "i-1", "ready_in": 60.0},
        {"t": 10.0, "kind": "acquire", "id": "i-2", "ready_in": 60.0},
        {"t": 20.0, "kind": "preempt", "id": "i-2", "grace": 5.0}], rate=2.0, pool_size=0,
        policy=policy)
    assert installs == [["i-0"], ["i-0", "i-1"]]
    assert [(t, shape) for t, shape, _ in report.reconfigurations] == [
        (0.0, (1, 2, 2, 4)), (70.0, (2, 2, 2, 4))]


@COMMITTING
def test_decision_committing_past_the_horizon_leaves_the_log(policy, tmp_path):
    """i-1 is acquired at t=200 and ready at t=260, past the 240 s horizon:
    the decision to serve on it never commits, so the log keeps only the
    boot, and the summary holds no bare `NaN`, which JSON forbids."""
    report = opt_run(tmp_path, [
        {"t": 0.0, "kind": "acquire", "id": "i-0", "ready_in": 0.0},
        {"t": 200.0, "kind": "acquire", "id": "i-1", "ready_in": 60.0}], rate=2.0, pool_size=0,
        policy=policy)
    assert [(t, t_mig) for t, _, t_mig in report.reconfigurations] == [(0.0, 0.0)]
    summary = tmp_path / "summary.json"
    write_summary_json(report, summary)

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    assert json.loads(summary.read_text(), parse_constant=reject)["reconfigurations"]


@pytest.mark.parametrize("first", ["i-1", "i-01"])
def test_engine_mapper_and_planner_share_one_instance_order(first, tmp_path):
    """`i-01` and `i-1` read the same number; `natural_key` puts `i-01`
    first by its id, and the engine, the mapper and the planner all keep that
    order whichever of the two the trace acquires first."""
    second = {"i-1": "i-01", "i-01": "i-1"}[first]
    trace = tmp_path / "trace.jsonl"
    write_trace(trace, [{"t": 0.0, "kind": "acquire", "id": inst, "ready_in": 0.0}
                        for inst in (first, second, "i-2")])
    profile = load_profile(bundled_path("opt-6.7b"))
    cfg = SimConfig(profile_path=str(bundled_path("opt-6.7b")), trace_path=str(trace),
                    workload=WorkloadSpec(kind="fixed_rate", rate=1.0, cv=1.0, seed=0))
    engine = Engine(cfg, profile, load_trace(trace), [])
    engine.policy = make_policy(cfg)
    engine.run()
    assert [i.id for i in engine.instances_by("active")] == ["i-01", "i-1", "i-2"]
    assert gpu_order([(first, 0), (second, 0)]) == [("i-01", 0), ("i-1", 0)]

    # i-2 needs the whole model and both others hold it at equal load: the
    # first instance in the order sends the first layer
    target = ParallelConfig(1, 1, 1, 1)
    mapping = positional_mapping(Layout.of({("i-2", 0): ContextInventory.empty()}), target)
    full = required_context(target, next(iter(mapping.assignment.values())), profile.model)
    layout = {(first, 0): full, (second, 0): full, ("i-2", 0): ContextInventory.empty()}
    model_transfers = derive_transfers(mapping, Layout.of(layout), profile.model).records()[0]
    assert model_transfers[0][0].src == ("i-01", 0)


def test_the_earliest_preempt_notice_binds(scenario, monkeypatch):
    """Regression: a second notice with a later deadline moved the
    instance's `grace_deadline` later, though the first deadline still
    released it, so a decision in between could plan transfers from it past
    its release."""
    released = []
    release = Engine.release_instance

    def recorded(engine, inst, t):
        released.append((inst.id, t, inst.grace_deadline))
        release(engine, inst, t)
    monkeypatch.setattr(Engine, "release_instance", recorded)
    run(scenario([{"t": 100.0, "kind": "preempt", "id": "i-0", "grace": 30.0},
                  {"t": 110.0, "kind": "preempt", "id": "i-0", "grace": 60.0},
                  {"t": 100.0, "kind": "preempt", "id": "i-1", "grace": 60.0},
                  {"t": 110.0, "kind": "preempt", "id": "i-1", "grace": 5.0}],
                 arrivals=[(1.0, 512, 128)], n_boot=3, pool_size=3))
    assert released == [("i-1", 115.0, 115.0), ("i-0", 130.0, 130.0)]
