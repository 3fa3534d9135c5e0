"""A 48-instance, 192-GPU fleet changes shape: mapping and plan stay exact.

No wall-clock bound: the test checks coverage and assembly.  Every byte a
target position needs is either reused from what its GPU already holds or
delivered by exactly one transfer, and every transfer's source held the
piece it sends.  The plan is assembled soundly (`plan_checks`), and its
layer rounds follow the reference greedy's order (`memopt_oracle`).  The
same holds for the plan derived in the engine's two steps, which is the
same plan.
"""

from spotsim.costmodel import load_profile
from spotsim.data import bundled_path
from spotsim.domain import (
    ContextInventory,
    Layout,
    ParallelConfig,
    RequestRecord,
    positions,
    required_context,
)
import spotsim.mapping as mapping_module
from spotsim.mapping import build_graph, default_inheritance, map_devices
from spotsim.migration import derive_transfers, plan_migration

import mapping_oracle
from memopt_oracle import layer_traffic, reference_layer_order
from plan_checks import check_assembly, check_delivers_once

GPUS_PER_INSTANCE = 4


def fleet():
    """(12,2,8) served on 48 instances with four requests in flight per
    pipeline, to be reshaped to (11,4,4); the last four instances are
    departing."""
    model = load_profile(bundled_path("llama-30b")).model
    old, target = ParallelConfig(12, 2, 8, 4), ParallelConfig(11, 4, 4, 4)
    gpus = [(f"i-{k}", g) for k in range(1, 49) for g in range(GPUS_PER_INSTANCE)]
    requests = {d: [RequestRecord(id=f"r{d}-{j}", arrival=0.0, s_in=512, s_out=128,
                                  tokens_generated=7 * j + d) for j in range(4)]
                for d in range(1, old.data_parallel + 1)}
    cache = {d: [(r.id, r.s_in + r.tokens_generated) for r in reqs] for d, reqs in requests.items()}
    layout = {gpu: required_context(old, pos, model, cache[pos.pipeline])
              for gpu, pos in zip(gpus, positions(old))}
    departing = frozenset(f"i-{k}" for k in range(45, 49))
    survivors = {gpu: held for gpu, held in layout.items() if gpu[0] not in departing}
    inheritance = default_inheritance(old.data_parallel, target.data_parallel)
    return model, target, layout, survivors, departing, requests, cache, inheritance


def reshaped_fleet():
    """The fleet's survivors mapped onto (11,4,4), and the plan that gets there."""
    model, target, layout, survivors, departing, requests, cache, inheritance = fleet()
    mapping = map_devices(Layout.of(survivors), target, model, GPUS_PER_INSTANCE,
                          inheritance=inheritance, requests_by_old_pipeline=requests)
    inherited = {d: cache[d] for d in range(1, target.data_parallel + 1)}
    table = Layout.of(layout)
    derived = derive_transfers(mapping, table, model, inherited, departing=departing)
    plan = plan_migration(derived, u_max=4e9)
    return model, target, mapping, layout, inherited, derived, plan


def test_192_gpu_reshape_weights_stay_in_the_exact_range(monkeypatch):
    """Every weight of the fleet's graph comes from the rectangle arrays:
    `build_graph` never scores a pair with `overlap_bytes`.  The weights
    equal the per-pair oracle's value for value, and so does the mapping."""
    model, target, _, survivors, _, requests, _, inheritance = fleet()
    calls = []
    overlap = mapping_module.overlap_bytes

    def counted(*args):
        calls.append(args)
        return overlap(*args)
    monkeypatch.setattr(mapping_module, "overlap_bytes", counted)
    graph = build_graph(Layout.of(survivors), target, model, inheritance, requests)
    assert len(graph.gpus) == 176 and not calls

    want = mapping_oracle.build_graph(survivors, target, model, inheritance, requests)
    assert (graph.gpus, graph.slots) == (want.gpus, want.slots)
    assert graph.weights.tolist() == want.weights.tolist()
    got = map_devices(Layout.of(survivors), target, model, GPUS_PER_INSTANCE, inheritance, requests)
    ref = mapping_oracle.map_devices(survivors, target, model, GPUS_PER_INSTANCE, inheritance,
                                     requests)
    assert got.assignment == ref.assignment and got.config == ref.config
    assert repr(got.total_weight) == repr(ref.total_weight)


def test_192_gpu_reshape_reuses_or_delivers_every_required_byte_once():
    model, target, mapping, layout, inherited, _, plan = reshaped_fleet()
    assert len(layout) == 192 and len(mapping.assignment) == target.gpus == 176
    assert sorted(mapping.assignment.values()) == positions(target)

    needed, from_storage = check_delivers_once(plan, mapping, layout, model, inherited)
    assert from_storage == 0
    assert needed > 176 * 15  # model layers alone: 176 GPUs x 15 layers
    assert sum(t.layers for t in plan.transfers()) > 10_000  # per-layer pieces


def test_192_gpu_reshape_derived_in_two_steps_is_the_same_plan():
    """The engine's path: a cache-free derivation with the departing
    instances, then the cache derivation given it as `base`.  It delivers
    every byte once, is assembled soundly, and equals the one-step plan."""
    model, target, mapping, layout, inherited, derived, plan = reshaped_fleet()
    departing = frozenset(f"i-{k}" for k in range(45, 49))
    cache_free = {gpu: ContextInventory(inv.den, {None: inv.rects[None]})
                  for gpu, inv in layout.items()}
    base = derive_transfers(mapping, Layout.of(cache_free), model, departing=departing)
    table = Layout.of(layout)
    two_step = derive_transfers(mapping, table, model, inherited, departing=departing, base=base)
    assert repr(two_step.records()) == repr(derived.records())
    again = plan_migration(two_step, u_max=4e9)
    check_delivers_once(again, mapping, layout, model, inherited)
    check_assembly(again, mapping, layout)
    assert again.actions == plan.actions and again.peak_usage == plan.peak_usage


def test_192_gpu_reshape_is_assembled_in_the_reference_layer_order():
    """The cap is exceeded, so the greedy orders most layers, and the plan
    keeps its order over the index order."""
    model, _, mapping, layout, _, derived, plan = reshaped_fleet()
    check_assembly(plan, mapping, layout)
    reference = reference_layer_order(layer_traffic(derived.records(), model.num_layers),
                                      plan.u_max)
    assert reference != sorted(reference)
    assert [a.layer for a in plan.actions if a.kind == "migrate_layer"] == reference
