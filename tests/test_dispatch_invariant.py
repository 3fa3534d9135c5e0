"""Dispatch makes one pass: after every `Engine.try_dispatch` no pipeline is
left open while requests wait.

Starting a batch moves its pipeline's next slot past now, so a single pass
over the pipelines in index order leaves each one either gated or fed.  Over
random short traces and all three policies, every call must end with an empty
queue, paused service, or every pipeline gated beyond now; and the pipelines
must iterate in ascending index order, which the one pass relies on.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spotsim.data import bundled_path
from spotsim.simconfig import SimConfig, WorkloadSpec
from spotsim.simulator import Engine, run

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.function_scoped_fixture])
DURATION = 240.0
TRY_DISPATCH = Engine.try_dispatch


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
