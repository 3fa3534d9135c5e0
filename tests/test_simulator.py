import json
from collections import Counter
from dataclasses import replace

import pytest

from spotsim.costmodel import exec_latency, load_profile, save_profile
from spotsim.data import bundled_path
from spotsim.domain import ContextInventory, ParallelConfig, required_context
from spotsim.simconfig import (
    SimConfig,
    SimConfigError,
    TraceError,
    WorkloadSpec,
    load_simconfig,
    load_trace,
)
from spotsim.simulator import Engine, run
from spotsim.workload import save_arrivals


def write_trace(path, events):
    path.write_text("".join(json.dumps(e) + "\n" for e in events))


def boot_events(n, t=0.0, gpus_kind="spot"):
    return [{"t": t, "kind": "acquire", "id": f"i-{k}", "itype": gpus_kind, "ready_in": 0.0}
            for k in range(n)]


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

    def test_bundled_scenario_loads(self):
        cfg = load_simconfig(bundled_path("scenario_bs.json"))
        assert cfg.policy == "spotserve"
        assert cfg.workload.kind == "fixed_rate"
        assert cfg.rerouting_shape == (2, 8, 2)

    def test_declared_rate_needs_fixed_workload(self, tmp_path):
        apath = tmp_path / "a.jsonl"
        save_arrivals([(1.0, 8, 8)], apath)
        cfg = SimConfig(profile_path="p", trace_path="t",
                        workload=WorkloadSpec(kind="arrival_file", path=str(apath)),
                        rate_source="declared")
        assert cfg.rate_source == "estimated"


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
    released_early = {iid for iid, kind, start, end in engine.usage if end < 300.0}
    kinds = {iid: kind for iid, kind, *_ in engine.usage}
    # exactly the instances beyond the target and the pool spare are released,
    # and both on-demand ones must be among those released at t=0
    target = ParallelConfig(*engine.reconfig_log[0][1])
    surplus = 6 - target.instances(cfg.gpus_per_instance) - cfg.pool_size
    assert surplus > 0 and len(released_early) == surplus
    assert {"i-4", "i-5"} <= released_early
    assert all(kinds[i] == "ondemand" or i.startswith("i-") for i in released_early)
    spot_released = [i for i in released_early if kinds[i] == "spot"]
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
    """The instances' `gpu_inventories` are the one holdings store: after the
    bundled spotserve run every live GPU holds exactly its position's model
    context, or nothing when unassigned, and no KV cache left by a decision."""
    engines = []
    run_engine = Engine.run

    def capture(engine):
        engines.append(engine)
        return run_engine(engine)
    monkeypatch.setattr(Engine, "run", capture)
    run(load_simconfig(bundled_path("scenario_bs.json")))
    (engine,) = engines
    assert engine.config is not None
    position = {gpu: pos for pos, gpu in engine.assignment.items()}
    wrong = []
    for inst in engine.instances_by("active", "allocating", "grace_preempting"):
        for ref, held in zip(inst.gpu_refs(), inst.gpu_inventories, strict=True):
            pos = position.get(ref)
            want = (ContextInventory.empty() if pos is None
                    else required_context(engine.config, pos, engine.model))
            if held != want:
                wrong.append(ref)
    assert position and not wrong, f"{len(wrong)} GPUs hold the wrong context: {wrong[:4]}"
