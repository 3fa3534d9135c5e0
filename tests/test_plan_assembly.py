"""Plan assembly's array forms against the loops they replace.

`_Common.layer_rounds` sums each segment of equal consecutive layers once
and shares those sums among the segment's rounds; `reference_layer_rounds`
keeps the per-layer build it replaces, one `_round_sums` key per layer.
Every round must carry the reference's sums, incoming bytes (in the same key
order), releases and span, bit for bit.

`plan_migration` replays each layer order as a row-wise running sum per
instance; its `peak_usage` must be what the per-transfer replay
`plan_checks.simulate_buffer_usage` gives, on layouts with layers that move
nothing, instances that only free bytes (and so run below zero), and on the
planner-off path (no cap).
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from plan_checks import simulate_buffer_usage
from spotsim import migration
from spotsim.domain import ContextInventory, Layout, ModelSpec, ParallelConfig, positions
from spotsim.domain import TopologyPosition, required_context
from spotsim.mapping import DeviceMapping, map_devices
from spotsim.migration import MigrationError, derive_transfers, memopt_layer_order, plan_migration

from test_geometry_oracle import SETTINGS, migrations, model_only


def reference_layer_rounds(common) -> dict[int, tuple]:
    """Each layer that moves or frees model context, by layer: its releases,
    sent, received, incoming and column slice, its sums from one
    `_round_sums` pass keyed by layer."""
    moves, releases = common.model, common.layer_releases
    key = moves.cols[:, 0]
    found = migration._round_sums(key, common.inst_of[moves.cols[:, 1]],
                                  common.inst_of[moves.cols[:, 4]], moves.size,
                                  common.names) if len(moves) else {}
    ends = np.bincount(key).cumsum().tolist()
    rounds = {}
    for r in sorted({*found, *(r for r, freed in releases.items() if freed)}):
        sent, received, incoming = found.get(r, ((), (), {}))
        rounds[r] = (tuple(sorted(releases.get(r, {}).items())), tuple(sent), tuple(received),
                     incoming, (moves, ends[r - 1] if r else 0, ends[r]) if r in found else None)
    return rounds


def assert_rounds_match_the_reference(common):
    got, want = common.layer_rounds(), reference_layer_rounds(common)
    assert list(got) == list(want)
    for layer, action in got.items():
        releases, sent, received, incoming, span = want[layer]
        assert (action.kind, action.layer, action.stage) == ("migrate_layer", layer, None)
        assert repr(action.releases) == repr(releases)
        assert repr(action.sent) == repr(sent) and repr(action.received) == repr(received)
        assert repr(list(action.incoming.items())) == repr(list(incoming.items()))
        assert action.span == span and (span is None or action.span[0] is common.model)


@given(migrations())
@SETTINGS
def test_layer_rounds_match_the_per_layer_build(case):
    mapping, layout, model, inherited, departing = case
    cache_free = derive_transfers(mapping, model_only(layout), model, departing=departing)
    assert_rounds_match_the_reference(cache_free.common)
    try:
        derived = derive_transfers(mapping, Layout.of(layout), model, inherited, departing)
    except MigrationError:
        return
    assert_rounds_match_the_reference(derived.common)


def serving_cluster(model, config, n_instances):
    layout = {(f"i-{k}", 0): ContextInventory.empty() for k in range(n_instances)}
    for gpu, pos in zip(list(layout), positions(config)):
        layout[gpu] = required_context(config, pos, model)
    return layout


def test_a_segment_of_equal_layers_shares_one_set_of_sums():
    """A reshard from two stages of 8 shards to three of 4 over 24 layers
    moves alike on each run of layers between the old and the new stage
    bounds (8, 12 and 16): four segments, each summed once, and each
    round's sums those of the per-layer build."""
    model = ModelSpec(name="m24", num_layers=24, bytes_per_layer=12_345,
                      kv_bytes_per_token_per_layer=16)
    layout = serving_cluster(model, ParallelConfig(1, 2, 8, 1), 16)
    table = Layout.of(layout)
    derived = derive_transfers(map_devices(table, ParallelConfig(1, 3, 4, 1), model, 1),
                               table, model)
    rounds = derived.common.layer_rounds()
    assert sorted(rounds) == list(range(24))
    shared = [next(a.incoming for layer, a in rounds.items() if layer >= first)
              for first in (0, 8, 12, 16)]
    assert [sum(a.incoming is incoming for a in rounds.values()) for incoming in shared] == \
        [8, 4, 4, 8]
    assert_rounds_match_the_reference(derived.common)


def test_peak_usage_with_idle_layers_and_an_instance_that_only_frees():
    """Two replicas of a 6-layer model on i-0 and i-1, remapped to one
    two-stage pipeline on i-0 (layers 0-2) and the empty i-2 (layers 3-5):
    layers 0-2 move nothing and only free i-1's copy.  i-0 and i-1 never
    receive, so their usage runs below zero and their peaks are 0.0; i-2
    keeps all it receives.  Under every cap, and with none, the plan's peaks
    are the per-transfer replay's."""
    model = ModelSpec(name="m6", num_layers=6, bytes_per_layer=7_777,
                      kv_bytes_per_token_per_layer=16)
    layout = serving_cluster(model, ParallelConfig(2, 1, 1, 1), 3)
    mapping = DeviceMapping({("i-0", 0): TopologyPosition(1, 1, 1),
                             ("i-2", 0): TopologyPosition(1, 2, 1)}, 0.0,
                            ParallelConfig(1, 2, 1, 1))
    derived = derive_transfers(mapping, Layout.of(layout), model)
    rounds = derived.common.layer_rounds()
    assert [layer for layer, a in rounds.items() if a.span is None] == [0, 1, 2]
    assert all(a.releases == (("i-1", 7_777.0),) for layer, a in rounds.items() if layer < 3)
    for u_max in (None, 1.0, 7_777.0, 10**9):
        plan = plan_migration(derived, u_max)
        assert plan.peak_usage == simulate_buffer_usage(plan, layout)
        assert plan.peak_usage == {"i-0": 0.0, "i-1": 0.0, "i-2": 3 * 7_777.0}
        usage = 0.0
        for action in plan.actions:
            usage -= dict(action.releases).get("i-1", 0.0)
        assert usage == -6 * 7_777.0


@given(migrations(), st.sampled_from([None, 0.0, 0.5, 1.0, 2.0]))
@SETTINGS
def test_peak_usage_is_the_per_transfer_replay(case, cap):
    """Random layouts, caches and departing sets, under no cap (the
    planner-off path), a cap below every layer, and caps between: the
    plan's peaks, whichever order ships, are the per-transfer replay's."""
    mapping, layout, model, inherited, departing = case
    cache_free = derive_transfers(mapping, model_only(layout), model, departing=departing)
    try:
        derived = derive_transfers(mapping, Layout.of(layout), model, inherited, departing,
                                   base=cache_free)
    except MigrationError:
        return
    u_max = None if cap is None else cap * model.bytes_per_layer
    for plan in (plan_migration(derived, u_max), plan_migration(cache_free, u_max)):
        assert plan.peak_usage == simulate_buffer_usage(plan, layout)


def test_no_cap_orders_by_index_without_reading_the_traffic():
    """With no cap the order is the index order, and no layer's traffic is
    read: the planner-off ablations keep no usage they never use."""
    assert memopt_layer_order(dict.fromkeys([3, 0, 2, 1]), None) == [0, 1, 2, 3]
