"""Engine invariants over random traces, on all three policies.

After each run, on the engine's final state and on the plans the spotserve
policy built along the way:
- every arrival is recorded once, and at the horizon, before `finalize`
  settles the batches still in flight, a request waits in at most one place
  (the queue or one batch) and no waiting request is done;
- every completion lies in [dispatch, horizon];
- tokens never exceed `s_out`, and a request is done exactly when it holds
  all `s_out`;
- the reconfiguration log is in time order within [0, horizon], and every
  entry has a finite migration time >= 0 (a decision that never committed
  is not logged);
- the bill equals the integral of each instance's price over the time it
  was held, from its acquisition to its release or the horizon;
- a preempted instance is held no later than its earliest notice's deadline
  (notice time plus grace);
- a request's committed tokens do not change while its batch runs: on entry
  to `Engine.pause_batch` each request holds what it held when its batch
  launched, which is what the settlement counts from;
- every plan reuses or delivers every byte its mapping needs exactly once,
  with remote storage counted as a sender, and is assembled soundly: its
  recorded peaks replay from its rounds, the cache round comes first, and
  each stage starts right after its last delivering round (`plan_checks`);
- every plan that carries KV cache has the model transfers of the cache-free
  derivation of its mapping, and the same model and cache transfers as one
  derivation over its cache-carrying layout, so reusing the commit's model
  part changes nothing;
- every snapshot the engine takes, for a mapping or a plan, equals
  `Layout.of` over the `required_context` inventories it stands for: each
  live GPU's installed model context, an assigned GPU's with its pipeline's
  KV cache.

The traces and the example budget are `test_dispatch_invariant`'s.  Each
example that plans a transfer from storage is tagged with the hypothesis
event "storage transfer" (`pytest --hypothesis-show-statistics`).
"""

import json
import math

from hypothesis import event, example, given
from hypothesis import strategies as st

from spotsim.costmodel import HOUR
from spotsim.data import bundled_path
from spotsim.domain import ContextInventory, Layout, required_context
from spotsim.migration import derive_transfers
from spotsim.simconfig import SimConfig, WorkloadSpec
from spotsim.simulator import LIVE, AdaptivePolicy, Engine, run
from spotsim.workload import gamma_arrivals

from plan_checks import check_assembly, check_delivers_once
from test_dispatch_invariant import (
    DURATION,
    NEAR_TIE_SURPLUS,
    SETTINGS,
    _acquire,
    traces,
)

# the unwrapped methods: the monkeypatch fixture outlives a single example
ENGINE_RUN, FINALIZE, PLAN = Engine.run, Engine.finalize, AdaptivePolicy._plan
INSTALL, SNAPSHOT = Engine.install_layout, Engine.layout_snapshot
LAUNCH, PAUSE = Engine._launch, Engine.pause_batch


def inventories(engine, installed, cache, statuses=LIVE) -> dict:
    """What a snapshot stands for, as inventories: each GPU of an instance
    in `statuses` holds the model context `installed` gives it (nothing if
    none), and an assigned GPU also the KV cache `cache` lists for its
    pipeline."""
    empty = ContextInventory.empty()
    held = {gpu: installed.get(gpu, empty)
            for inst in engine.instances_by(*statuses) for gpu in inst.gpu_refs()}
    if engine.config and cache:
        for pos, gpu in engine.assignment.items():
            if cache.get(pos.pipeline) and gpu in held:
                held[gpu] = required_context(engine.config, pos, engine.model, cache[pos.pipeline])
    return held


def model_rounds(derived) -> dict:
    return {layer: tuple(ts) for layer, ts in derived.records()[0].items() if ts}


def check_model_reuse(policy, engine, mapping, layout, inherited, plan):
    """A cache-carrying plan's model part is the cache-free one, and the
    whole plan is what one derivation over its layout gives."""
    departing = policy._departing(engine)
    cache_free = derive_transfers(mapping, engine.layout_snapshot(None), engine.model,
                                  departing=departing)
    whole = derive_transfers(mapping, layout, engine.model, inherited, departing=departing)
    built = {a.layer: a.transfers for a in plan.actions if a.kind == "migrate_layer" and a.transfers}
    assert built == model_rounds(cache_free) == model_rounds(whole)
    assert [t for a in plan.actions if a.kind == "migrate_cache"
            for t in a.transfers] == whole.records()[1]


def check_engine(engine: Engine, events: list[dict], arrivals: list[float],
                 in_flight: list[tuple[str, bool]]):
    """`in_flight` is each request in a batch as `finalize` began, with
    whether it was done then."""
    horizon = engine.cfg.duration
    records = engine.records
    assert len({r.id for r in records}) == len(records)
    assert sorted(r.arrival for r in records) == sorted(arrivals)
    waiting = [r.id for r in engine.queue] + [rid for rid, _ in in_flight]
    assert len(set(waiting)) == len(waiting)
    assert not any(done for _, done in in_flight)
    assert not {r.id for r in records if r.done} & {r.id for r in engine.queue}
    assert not engine.all_batches()
    for r in records:
        assert r.tokens_generated <= r.s_out, r
        assert r.done or r.tokens_generated < r.s_out, r
        if r.done:
            assert r.dispatch is not None and r.dispatch <= r.completion <= horizon + 1e-9, r
            assert r.tokens_generated == r.s_out, r

    times = [d.t for d in engine.reconfig_log]
    assert times == sorted(times) and all(0 <= t <= horizon for t in times), times
    assert all(0 <= d.t_mig < math.inf for d in engine.reconfig_log), engine.reconfig_log

    acquired = {e["id"]: e["t"] for e in events if e["kind"] == "acquire"}
    usage = engine.usage()
    held = {inst: (kind, start, end) for inst, kind, start, end in usage}
    assert len(held) == len(usage) and set(held) == set(engine.instances)
    bill = 0.0
    for inst, (kind, start, end) in held.items():
        released = engine.instances[inst].status == "released"
        assert start == acquired[inst] and start <= end <= horizon
        assert released or end == horizon
        bill += (end - start) / HOUR * engine.profile.prices.rate(kind)
    assert math.isclose(engine.report().cost.total_usd, bill, rel_tol=1e-12, abs_tol=1e-12)

    # A notice applies to an instance acquired before it in the trace.  A
    # group of trace events lands at its last event's time, up to 1e-9 s
    # after a zero-grace deadline in it, yet the instance is released at
    # its deadline.
    deadlines = {}
    for e in events:
        if e["kind"] == "acquire":
            deadlines[e["id"]] = math.inf
        elif e["id"] in deadlines:
            deadline = e["t"] + e.get("grace", engine.cfg.grace_default)
            deadlines[e["id"]] = min(deadlines[e["id"]], deadline)
    for inst, deadline in deadlines.items():
        assert engine.instances[inst].released_at is not None or deadline > horizon, inst
        assert held[inst][2] <= deadline, (inst, held[inst], deadline)


# Each acquisition in a trace group keeps its own time: a group stamped at
# its first event's time would bill i-2 from 1.0.
NEAR_TIE_ACQUIRE = dict(
    events=[_acquire(0.0, "i-0"), _acquire(1.0, "i-1"), _acquire(1.0000000000000002, "i-2")],
    policy="spotserve", model="opt-6.7b", rate=0.5, cv=1.0, seed=0)


# A zero-grace notice grouped with a later event: i-0 is released at
# 100.0, its deadline, not at 100.0 + 5e-10, when its group lands.
ZERO_GRACE_IN_GROUP = dict(
    events=[_acquire(0.0, "i-0"), {"t": 100.0, "kind": "preempt", "id": "i-0", "grace": 0.0},
            _acquire(100.0 + 5e-10, "i-9")],
    policy="spotserve", model="opt-6.7b", rate=0.5, cv=1.0, seed=0)


@SETTINGS
@example(**NEAR_TIE_SURPLUS)
@example(**NEAR_TIE_ACQUIRE)
@example(**ZERO_GRACE_IN_GROUP)
@given(events=traces(),
       policy=st.sampled_from(["spotserve", "rerouting", "reparallelization"]),
       model=st.sampled_from(["opt-6.7b", "gpt-20b"]),
       rate=st.floats(0.2, 3.0), cv=st.sampled_from([1.0, 4.0]), seed=st.integers(0, 99))
def test_engine_invariants_hold_on_random_traces(events, policy, model, rate, cv, seed,
                                                 tmp_path, monkeypatch):
    trace = tmp_path / "trace.jsonl"
    trace.write_text("".join(json.dumps(e) + "\n" for e in events))
    cfg = SimConfig(profile_path=str(bundled_path(model)), trace_path=str(trace),
                    workload=WorkloadSpec(kind="fixed_rate", rate=rate, cv=cv, seed=seed),
                    policy=policy, duration=DURATION, pool_size=1)
    engines, from_storage, in_flight = [], [], []
    installed = {}  # each installed GPU's model context
    launched = {}  # id(batch): the batch, and its requests' tokens at launch

    def launch(engine, pipe, requests, prefill, at=None):
        tokens = {r.id: r.tokens_generated for r in requests}
        batch = LAUNCH(engine, pipe, requests, prefill, at)
        launched[id(batch)] = (batch, tokens)
        return batch

    def pause(engine, batch, iters):
        assert {r.id: r.tokens_generated for r in batch.requests} == launched[id(batch)][1]
        return PAUSE(engine, batch, iters)

    def install(engine, config, mapping):
        installed.clear()
        installed.update({gpu: required_context(config, pos, engine.model)
                          for gpu, pos in mapping.assignment.items()})
        return INSTALL(engine, config, mapping)

    def snapshot(engine, cache=None, statuses=LIVE):
        layout = SNAPSHOT(engine, cache, statuses)
        assert layout == Layout.of(inventories(engine, installed, cache, statuses))
        return layout

    def captured(engine):
        engines.append(engine)
        return ENGINE_RUN(engine)

    def finalized(engine):
        # finalize settles every batch still in flight and drops it
        in_flight.extend((r.id, r.done) for b in engine.all_batches() for r in b.requests)
        return FINALIZE(engine)

    def checked(policy, engine, mapping, base, cache, inherited):
        held = inventories(engine, installed, cache)
        built = PLAN(policy, engine, mapping, base, cache, inherited)
        from_storage.append(check_delivers_once(built, mapping, held, engine.model,
                                                inherited)[1])
        check_assembly(built, mapping, held)
        if any(cache.values()):
            check_model_reuse(policy, engine, mapping, engine.layout_snapshot(cache), inherited,
                              built)
        return built
    monkeypatch.setattr(Engine, "run", captured)
    monkeypatch.setattr(Engine, "install_layout", install)
    monkeypatch.setattr(Engine, "layout_snapshot", snapshot)
    monkeypatch.setattr(Engine, "finalize", finalized)
    monkeypatch.setattr(Engine, "_launch", launch)
    monkeypatch.setattr(Engine, "pause_batch", pause)
    monkeypatch.setattr(AdaptivePolicy, "_plan", checked)
    run(cfg)
    if any(from_storage):
        event("storage transfer")
    arrivals = [float(t) for t in gamma_arrivals(rate, cv, DURATION, seed)]
    (engine,) = engines
    check_engine(engine, events, arrivals, in_flight)
