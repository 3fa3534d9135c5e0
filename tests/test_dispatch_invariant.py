"""Dispatch makes one pass: after every `Engine.try_dispatch` no pipeline is
left open while requests wait.

Starting a batch moves its pipeline's next slot past now, so a single pass
over the pipelines in index order leaves each one either gated or fed.  Over
random short traces and all three policies, every call must end with an empty
queue, paused service, or every pipeline gated beyond now; and the pipelines
must iterate in ascending index order, which the one pass relies on.

A call skips its pass when `Engine.gate_floor` shows the pass could do
nothing; a reference pass that never skips checks that it would indeed start
no batch and push no poll, and that the floor never exceeds a gate.
"""

import json
import math
from dataclasses import replace

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spotsim.costmodel import load_profile, restart_cost
from spotsim.data import bundled_path
from spotsim.simconfig import SimConfig, WorkloadSpec
from spotsim.simulator import P_INTERNAL, Engine, run

from conftest import save_arrivals, save_profile

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.function_scoped_fixture])
DURATION = 240.0
TRY_DISPATCH = Engine.try_dispatch


def _gate(pipe) -> float:
    return max(pipe.next_start, pipe.ready_at)


@st.composite
def traces(draw):
    """A few instances at t=0, then acquisitions and preemptions (with 0-30 s
    of grace) at random times; a preemption may name an unknown instance."""
    n_boot = draw(st.integers(1, 4))
    events = [{"t": 0.0, "kind": "acquire", "id": f"i-{k}", "ready_in": 0.0}
              for k in range(n_boot)]
    next_id = n_boot
    for _ in range(draw(st.integers(0, 8))):
        t = draw(st.floats(1.0, DURATION - 1.0))
        if draw(st.booleans()):
            events.append({"t": t, "kind": "acquire", "id": f"i-{next_id}",
                           "ready_in": draw(st.floats(0.0, 60.0))})
            next_id += 1
        else:
            events.append({"t": t, "kind": "preempt",
                           "id": f"i-{draw(st.integers(0, next_id))}",
                           "grace": draw(st.floats(0.0, 30.0))})
    return sorted(events, key=lambda e: e["t"])


@SETTINGS
@given(events=traces(),
       policy=st.sampled_from(["spotserve", "rerouting", "reparallelization"]),
       model=st.sampled_from(["opt-6.7b", "gpt-20b"]),
       rate=st.floats(0.2, 3.0), cv=st.sampled_from([1.0, 4.0]), seed=st.integers(0, 99))
def test_one_dispatch_pass_leaves_no_open_pipeline(events, policy, model, rate, cv, seed,
                                                   tmp_path, monkeypatch):
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(json.dumps(e) + "\n" for e in events))
    cfg = SimConfig(profile_path=str(bundled_path(model)), trace_path=str(trace),
                    workload=WorkloadSpec(kind="fixed_rate", rate=rate, cv=cv, seed=seed),
                    policy=policy, duration=DURATION, pool_size=1)

    def checked(engine):
        TRY_DISPATCH(engine)
        assert list(engine.pipelines) == sorted(engine.pipelines)
        paused = engine.config is None or engine.now < engine.paused_until - 1e-9
        open_pipes = [d for d, p in engine.pipelines.items()
                      if max(p.next_start, p.ready_at) <= engine.now + 1e-9]
        assert not engine.queue or paused or not open_pipes, (engine.now, open_pipes)

    monkeypatch.setattr(Engine, "try_dispatch", checked)
    run(cfg)


def reference_pass(engine):
    """`Engine.try_dispatch`'s pass without the skip."""
    for pipe in engine.pipelines.values():
        if not engine.queue:
            return
        if _gate(pipe) <= engine.now + 1e-9:
            engine.start_batch(pipe, engine._take_requests())
    if engine.queue and engine.pipelines:
        wake = min(_gate(p) for p in engine.pipelines.values())
        if wake < engine.wake_at:
            engine.wake_at = wake
            engine.push(wake, P_INTERNAL, "poll", None)


def _acquire(t: float, inst: str) -> dict:
    return {"t": t, "kind": "acquire", "id": inst, "ready_in": 0.0}


# Trace events less than 1e-9 s apart form one group.  Here i-6 and i-4 do:
# the group's surplus release of i-4 must not come before its acquisition,
# so the group lands at its last event's time, not its first.
NEAR_TIE_SURPLUS = dict(
    events=[*(_acquire(0.0, f"i-{k}") for k in range(4)),
            {"t": 1.0, "kind": "preempt", "id": "i-0", "grace": 0.0}, _acquire(1.0, "i-5"),
            _acquire(238.99999999999997, "i-6"), _acquire(239.0, "i-4")],
    policy="spotserve", model="opt-6.7b", rate=0.5, cv=1.0, seed=0)


@SETTINGS
@example(**NEAR_TIE_SURPLUS)
@given(events=traces(),
       policy=st.sampled_from(["spotserve", "rerouting", "reparallelization"]),
       model=st.sampled_from(["opt-6.7b", "gpt-20b"]),
       rate=st.floats(0.2, 3.0), cv=st.sampled_from([1.0, 4.0]), seed=st.integers(0, 99))
def test_skipped_dispatch_pass_would_do_nothing(events, policy, model, rate, cv, seed,
                                                tmp_path, monkeypatch):
    """Whenever a call skips its pass, every gate lies beyond now and at or
    after the pending wake, and the reference pass run in its place starts no
    batch and pushes no event; after every call the floor is at most every
    pipeline's gate."""
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(json.dumps(e) + "\n" for e in events))
    cfg = SimConfig(profile_path=str(bundled_path(model)), trace_path=str(trace),
                    workload=WorkloadSpec(kind="fixed_rate", rate=rate, cv=cv, seed=seed),
                    policy=policy, duration=DURATION, pool_size=1)

    def checked(engine):
        serving = engine.config is not None and engine.now >= engine.paused_until - 1e-9
        floor = engine.gate_floor
        if (serving and engine.queue and engine.now + 1e-9 < floor
                and engine.wake_at <= floor):
            gates = [_gate(p) for p in engine.pipelines.values()]
            assert all(g > engine.now + 1e-9 for g in gates), (engine.now, gates)
            assert min(gates, default=math.inf) >= engine.wake_at, (engine.wake_at, gates)
            # every batch start pushes its completion, so no push means no start
            pushed = engine._seq
            reference_pass(engine)
            assert engine._seq == pushed
        TRY_DISPATCH(engine)
        assert all(engine.gate_floor <= _gate(p) for p in engine.pipelines.values()), (
            engine.gate_floor, [_gate(p) for p in engine.pipelines.values()])

    monkeypatch.setattr(Engine, "try_dispatch", checked)
    run(cfg)


def test_rebuilt_pipeline_lowers_the_gate_floor(tmp_path):
    """A pipeline that rerouting adds mid-run can open before every existing
    gate.  With a 1.45 s disk restart, the second instance's pipeline (ready
    at t=4.45) opens before the first one's next slot (t=6.64), so it takes
    the second queued request then, not at the first one's wake.  The
    bundled profiles' disk restarts outlast their batch spacing, so the
    random traces above never reach this case."""
    profile = replace(load_profile(bundled_path("opt-6.7b")), restart_baseline_s=1.0)
    save_profile(profile, tmp_path / "profile.json")
    arrivals = tmp_path / "arrivals.jsonl"
    save_arrivals([(0.0, 512, 128)] * 3, arrivals)
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(json.dumps(e) + "\n" for e in [
        {"t": 0.0, "kind": "acquire", "id": "i-0", "ready_in": 0.0},
        {"t": 3.0, "kind": "acquire", "id": "i-1", "ready_in": 0.0}]))
    cfg = SimConfig(profile_path=str(tmp_path / "profile.json"), trace_path=str(trace),
                    workload=WorkloadSpec(kind="arrival_file", path=str(arrivals)),
                    policy="rerouting", rerouting_shape=(1, 4, 1), duration=60.0,
                    pool_size=0)
    dispatches = [r.dispatch for r in run(cfg).records]
    assert dispatches[:2] == [0.0, 3.0 + restart_cost(profile, "local_disk")], dispatches
