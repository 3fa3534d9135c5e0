import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spotsim import migration
from spotsim.domain import (
    STORAGE,
    ContextInventory,
    DomainError,
    Layout,
    ModelSpec,
    ParallelConfig,
    TopologyPosition,
    positions,
    required_context,
)
from spotsim.mapping import DeviceMapping, map_devices
from spotsim.migration import (
    LayerTraffic,
    MigrationError,
    MigrationPlan,
    Transfer,
    derive_transfers,
    memopt_layer_order,
    plan_migration,
    plan_to_dict,
)

import fraction_oracle
from fraction_oracle import intersect, inventory, model_bytes, model_shards
from memopt_oracle import reference_layer_order
from plan_checks import Round, check_assembly, simulate_buffer_usage
from test_acceptance import _random_transition

MODEL = ModelSpec(name="m8", num_layers=8, bytes_per_layer=1000, kv_bytes_per_token_per_layer=16)


def serving_cluster(model, config, n_instances, gpus_per_instance=1, prefix="i"):
    """Layout of `n_instances` instances holding `config`'s context in id
    order; spare GPUs hold nothing."""
    layout = {(f"{prefix}-{k}", g): ContextInventory.empty()
              for k in range(n_instances) for g in range(gpus_per_instance)}
    for gpu, pos in zip(list(layout), positions(config)):
        layout[gpu] = required_context(config, pos, model)
    return layout


def transition_plan(model, old_cfg, new_cfg, n_instances, u_max=None, gpus_per_instance=1):
    layout = serving_cluster(model, old_cfg, n_instances, gpus_per_instance)
    table = Layout.of(layout)
    mapping = map_devices(table, new_cfg, model, gpus_per_instance)
    plan = plan_migration(derive_transfers(mapping, table, model), u_max)
    return mapping, layout, plan


def replay_coverage(mapping, layout, plan, model):
    """Replays transfers: every position's required context must be covered by
    reuse plus received shards exactly once, and transfers must come from
    holders."""
    holdings = {gpu: list(model_shards(inv)) for gpu, inv in layout.items()}
    received = {gpu: [] for gpu in layout}
    for action in plan.actions:
        for tr in action.transfers:
            if tr.kind != "model":
                continue
            src_cover = sum(
                intersect((tr.lo, tr.hi), (lo, hi))
                for lyr, lo, hi in model_shards(layout[tr.src]) if lyr == tr.layer
            )
            assert src_cover == tr.hi - tr.lo, "transfer source must hold the shard"
            received[tr.dst].append((tr.layer, tr.lo, tr.hi))
    for gpu, pos in mapping.assignment.items():
        need = required_context(mapping.config, pos, model)
        for layer, lo, hi in model_shards(need):
            own = [(l2, h2) for lyr, l2, h2 in model_shards(layout[gpu]) if lyr == layer]
            got = [(l2, h2) for lyr, l2, h2 in received[gpu] if lyr == layer]
            cover = own + got
            total = sum(intersect((lo, hi), seg) for seg in cover)
            assert total == hi - lo, "context covered exactly"
            # no double cover inside the requirement
            stacked = sorted(
                seg for seg in cover if intersect((lo, hi), seg) > 0
            )
            for (a1, b1), (a2, b2) in zip(stacked, stacked[1:]):
                assert b1 <= a2, "no overlapping coverage"


class TestMemoptLayerOrder:
    def traffic(self, incoming_by_layer, freed_by_layer=None):
        freed_by_layer = freed_by_layer or {}
        out = {}
        for layer, inc in incoming_by_layer.items():
            out[layer] = LayerTraffic(incoming=dict(inc), freed=dict(freed_by_layer.get(layer, {})))
        return out

    def test_everything_fits_keeps_index_order(self):
        traffic = self.traffic({i: {"a": 10.0} for i in range(5)},
                               {i: {"a": 10.0} for i in range(5)})
        assert memopt_layer_order(traffic, u_max=100.0) == [0, 1, 2, 3, 4]

    def test_oversized_layer_deferred(self):
        traffic = self.traffic(
            {0: {"a": 10}, 1: {"a": 10}, 2: {"a": 200}, 3: {"a": 10}},
            {0: {"a": 10}, 1: {"a": 10}, 2: {"a": 200}, 3: {"a": 10}},
        )
        order = memopt_layer_order(traffic, u_max=50.0)
        assert order == [0, 1, 3, 2]

    def test_unbounded_cap_is_index_order(self):
        traffic = self.traffic({i: {"a": float(i + 1)} for i in range(6)})
        assert memopt_layer_order(traffic, u_max=None) == list(range(6))

    def test_greedy_tie_breaks_low_index(self):
        traffic = self.traffic({0: {"a": 100}, 1: {"a": 100}, 2: {"a": 100}})
        order = memopt_layer_order(traffic, u_max=10.0)
        assert order == [0, 1, 2]

    @pytest.mark.parametrize("seed", range(8))
    def test_greedy_between_exhaustive_and_naive(self, seed):
        rng = np.random.default_rng(seed)
        n_layers, n_inst = 6, 3
        insts = [f"i-{k}" for k in range(n_inst)]
        traffic = {}
        for layer in range(n_layers):
            inc = {insts[int(rng.integers(n_inst))]: float(rng.integers(1, 100))}
            freed = {insts[int(rng.integers(n_inst))]: float(rng.integers(0, 80))}
            traffic[layer] = LayerTraffic(incoming=inc, freed=freed)
        u_max = 60.0

        def peak_of(order):
            usage, peak = {}, 0.0
            for layer in order:
                t = traffic[layer]
                for inst, b in t.incoming.items():
                    usage[inst] = usage.get(inst, 0.0) + b
                peak = max(peak, max(usage.values(), default=0.0))
                for inst, b in t.freed.items():
                    usage[inst] = usage.get(inst, 0.0) - b
            return peak

        got = memopt_layer_order(traffic, u_max=u_max)
        index_order = list(range(n_layers))
        assert sorted(got) == index_order
        best = min(peak_of(list(p)) for p in itertools.permutations(range(n_layers)))
        assert best - 1e-9 <= peak_of(got)

        # the "<= index order" bound belongs to the plan: with no cache round
        # its replay compares exactly these two orders
        config = ParallelConfig(n_inst, 1, 1, 1)
        mapping = DeviceMapping({(inst, 0): pos for inst, pos in zip(insts, positions(config))},
                                0.0, config)
        moved = {layer: [Transfer("model", layer, Fraction(0), Fraction(1), STORAGE, (inst, 0), b)
                         for inst, b in t.incoming.items()] for layer, t in traffic.items()}
        model = ModelSpec(name="m6", num_layers=n_layers, bytes_per_layer=100,
                          kv_bytes_per_token_per_layer=1)
        layout = Layout.of({gpu: ContextInventory.empty() for gpu in mapping.assignment})
        # a derivation of those transfers, as the columns (layer, src, lo,
        # hi, dst) on grid 1 and bytes that covering would have written
        common = migration._Common(mapping, layout, model)
        rows = [(t.layer, -1, 0, 1, common.gpus.index(t.dst)) for ts in moved.values() for t in ts]
        common.model = migration._Moves(np.array(rows, dtype=np.int64), np.array(
            [t.bytes for ts in moved.values() for t in ts]), common.gpus, 1, None)
        common.layers = list(moved)
        common.layer_releases = {layer: t.freed for layer, t in traffic.items()}
        derived = migration.Derivation(common, migration._Moves(
            np.empty((0, 8), dtype=np.int64), np.empty(0), common.gpus, 1, []), {})
        assert derived.records()[0] == moved
        plan = plan_migration(derived, u_max)
        shipped = [a.layer for a in plan.actions if a.kind == "migrate_layer"]
        assert max(plan.peak_usage.values()) == peak_of(shipped) <= peak_of(index_order)
        # seeds 2 and 4 are where the greedy alone peaks above the index order
        assert (peak_of(got) > peak_of(index_order)) == (seed in (2, 4))
        assert shipped == (index_order if seed in (2, 4) else got)


@st.composite
def traffic_and_cap(draw):
    """Up to twelve layers, each pairing one of a few incoming rows with one
    of a few freed rows over three instances and three sizes, so rows repeat
    and peaks tie within and across incoming rows; a drawn row may be
    rebuilt with its items in reverse insertion order.  The cap is None,
    below every layer, above every layer, or in between."""
    row = st.dictionaries(st.sampled_from(["a", "b", "c"]), st.sampled_from([1.0, 2.0, 3.0]),
                          max_size=2)
    incoming_rows = draw(st.lists(row, min_size=1, max_size=3))
    freed_rows = draw(st.lists(row, min_size=1, max_size=3))
    traffic = {}
    for layer in range(draw(st.integers(1, 12))):
        incoming, freed = draw(st.sampled_from(incoming_rows)), draw(st.sampled_from(freed_rows))
        if draw(st.booleans()):
            incoming, freed = dict(reversed(incoming.items())), dict(reversed(freed.items()))
        traffic[layer] = LayerTraffic(incoming=dict(incoming), freed=dict(freed))
    total = sum(b for t in traffic.values() for b in t.incoming.values())
    cap = draw(st.one_of(st.none(), st.just(-1.0), st.just(total + 1.0), st.floats(0.0, total)))
    return traffic, cap


@given(traffic_and_cap())
def test_memopt_layer_order_matches_the_reference_greedy(case):
    traffic, cap = case
    assert memopt_layer_order(traffic, cap) == reference_layer_order(traffic, cap)


class TestPlanMigration:
    def test_identity_mapping_only_starts_stages(self):
        cfg = ParallelConfig(1, 2, 2, 1)
        _, _, plan = transition_plan(MODEL, cfg, cfg, 4)
        kinds = [a.kind for a in plan.actions]
        assert kinds == ["start_stage", "start_stage"]
        assert plan.total_bytes() == 0.0

    def test_reshard_moves_only_missing_fractions(self):
        old = ParallelConfig(1, 2, 8, 1)
        new = ParallelConfig(1, 3, 4, 1)
        model = ModelSpec(name="m12", num_layers=12, bytes_per_layer=1200,
                          kv_bytes_per_token_per_layer=16)
        layout = serving_cluster(model, old, 16)
        table = Layout.of(layout)
        mapping = map_devices(table, new, model, 1)
        plan = plan_migration(derive_transfers(mapping, table, model))
        # moved bytes equal required minus reused
        needed = sum(model_bytes(required_context(new, pos, model), model)
                     for pos in positions(new))
        assert plan.total_bytes() == pytest.approx(needed - mapping.total_weight)
        assert plan.total_bytes() > 0
        replay_coverage(mapping, layout, plan, model)
        # stage 1 starts before the last transfer round
        kinds = [a.kind for a in plan.actions]
        first_start = kinds.index("start_stage")
        assert first_start < len(plan.actions) - 1

    def test_cache_round_comes_first(self):
        old = ParallelConfig(1, 2, 2, 1)
        new = ParallelConfig(1, 4, 1, 1)
        layout = serving_cluster(MODEL, old, 4)
        # pipeline 1 carries one request's cache on its old positions
        cache_map = {1: [("r-1", 24)]}
        for ref in layout:
            pos_idx = int(ref[0].split("-")[1])
            pos = positions(old)[pos_idx]
            inv = layout[ref]
            cache = tuple((rid, lyr, lo, hi, tokens)
                          for rid, tokens in cache_map[1]
                          for lyr, lo, hi in model_shards(inv))
            layout[ref] = inventory(model_shards=model_shards(inv), cache_shards=cache)
        table = Layout.of(layout)
        mapping = map_devices(table, new, MODEL, 1,
                              inheritance={1: 1})
        plan = plan_migration(derive_transfers(mapping, table, MODEL, cache_map))
        move_kinds = [a.kind for a in plan.actions if a.kind != "start_stage"]
        assert move_kinds[0] == "migrate_cache"
        assert all(k == "migrate_layer" for k in move_kinds[1:])

    def test_stage_starts_follow_their_context(self):
        old = ParallelConfig(1, 4, 1, 1)
        new = ParallelConfig(1, 2, 2, 1)
        layout = serving_cluster(MODEL, old, 4)
        table = Layout.of(layout)
        mapping = map_devices(table, new, MODEL, 1)
        plan = plan_migration(derive_transfers(mapping, table, MODEL))
        stage_gpus = {p: set() for p in (1, 2)}
        for gpu, pos in mapping.assignment.items():
            stage_gpus[pos.stage].add(gpu)
        started = set()
        pending_done = {p: True for p in (1, 2)}
        seen_last_delivery = {p: -1 for p in (1, 2)}
        for idx, action in enumerate(plan.actions):
            if action.kind == "start_stage":
                started.add(action.stage)
                for later in plan.actions[idx + 1:]:
                    for tr in later.transfers:
                        assert tr.dst not in stage_gpus[action.stage], \
                            "stage started before its context landed"
        assert started == {1, 2}

    def test_missing_source_raises(self):
        """A model layer no live GPU holds comes from storage, and nothing
        else does; a cache piece no live GPU holds has no other holder."""
        cfg = ParallelConfig(1, 2, 2, 1)
        layout = serving_cluster(MODEL, cfg, 4)
        # wipe every copy of layer 0
        for ref, inv in layout.items():
            kept = tuple(s for s in model_shards(inv) if s[0] != 0)
            layout[ref] = inventory(model_shards=kept)
        table = Layout.of(layout)
        mapping = map_devices(table, cfg, MODEL, 1)
        model_transfers, cache_transfers, _, _ = derive_transfers(mapping, table, MODEL).records()
        assert not cache_transfers and list(model_transfers) == [0]
        assert sorted((t.src, t.dst, t.lo, t.hi) for t in model_transfers[0]) == [
            (STORAGE, ("i-0", 0), Fraction(0), Fraction(1, 2)),
            (STORAGE, ("i-1", 0), Fraction(1, 2), Fraction(1))]
        with pytest.raises(MigrationError, match="no source holds"):
            derive_transfers(mapping, table, MODEL, {1: [("r-1", 4)]})

    def test_position_outside_the_target_config_raises(self):
        """A mapping that places a GPU outside its config fails in the slot
        table, naming the first invalid position in GPU order."""
        cfg = ParallelConfig(1, 2, 2, 1)
        layout = serving_cluster(MODEL, cfg, 4)
        placed = dict(zip(sorted(layout), positions(cfg)))
        placed[("i-1", 0)] = TopologyPosition(1, 3, 1)  # a third stage
        placed[("i-3", 0)] = TopologyPosition(2, 1, 1)  # a second pipeline
        mapping = DeviceMapping(placed, total_weight=0.0, config=cfg)
        with pytest.raises(DomainError) as raised:
            derive_transfers(mapping, Layout.of(layout), MODEL)
        assert str(raised.value) == f"position {TopologyPosition(1, 3, 1)} invalid for config {cfg}"

    def test_storage_sends_up_to_the_next_live_copy(self):
        """Merging two shards of a stage into one GPU while one shard's only
        copy of layer 0 is gone: storage sends just that half of layer 0, and
        the live copy sends the other half."""
        old, new = ParallelConfig(1, 2, 2, 1), ParallelConfig(1, 2, 1, 1)
        layout = serving_cluster(MODEL, old, 4)
        layout[("i-0", 0)] = inventory(
            model_shards=[s for s in model_shards(layout[("i-0", 0)]) if s[0] != 0])
        mapping = DeviceMapping(assignment={("i-2", 0): TopologyPosition(1, 1, 1),
                                            ("i-3", 0): TopologyPosition(1, 2, 1)},
                                total_weight=0.0, config=new)
        model_transfers, _, _, _ = derive_transfers(mapping, Layout.of(layout), MODEL).records()
        assert [(t.src, t.lo, t.hi) for t in model_transfers[0]] == [
            (STORAGE, Fraction(0), Fraction(1, 2)), (("i-1", 0), Fraction(1, 2), Fraction(1))]
        assert all(t.src != STORAGE for layer in range(1, 8) for t in model_transfers[layer])

    def test_unbounded_cap_keeps_layer_index_order(self):
        old = ParallelConfig(1, 2, 8, 1)
        new = ParallelConfig(1, 4, 4, 1)
        model = ModelSpec(name="m16", num_layers=16, bytes_per_layer=500,
                          kv_bytes_per_token_per_layer=8)
        layout = serving_cluster(model, old, 16)
        table = Layout.of(layout)
        mapping = map_devices(table, new, model, 1)
        plan = plan_migration(derive_transfers(mapping, table, model))
        layer_rounds = [a.layer for a in plan.actions if a.kind == "migrate_layer"]
        assert layer_rounds == sorted(layer_rounds)

    def test_index_order_wins_when_the_cache_round_tips_the_memopt_order(self, monkeypatch):
        """Seed 1600 of the criterion-03 generator: replayed behind the cache
        round, the memopt order peaks above the index order, so the plan
        ships the index order."""
        rng = np.random.default_rng(1600)
        model, _, new_cfg, layout, inherited = _random_transition(rng)
        mapping = map_devices(Layout.of(layout), new_cfg, model, 1)
        u_max = float(model.bytes_per_layer) * float(rng.uniform(0.5, 3.0))
        orders = []

        def recorded(traffic, cap):
            orders.append(memopt_layer_order(traffic, cap))
            return orders[-1]
        monkeypatch.setattr(migration, "memopt_layer_order", recorded)
        table = Layout.of(layout)
        plan = plan_migration(derive_transfers(mapping, table, model, inherited), u_max)

        rounds = [a for a in plan.actions if a.kind != "start_stage"]
        assert rounds[0].kind == "migrate_cache"
        layer_rounds = [a.layer for a in rounds if a.kind == "migrate_layer"]
        assert layer_rounds == sorted(layer_rounds)
        (memopt,) = orders
        rank = {layer: i for i, layer in enumerate(memopt)}
        memopt_rounds = rounds[:1] + sorted(rounds[1:], key=lambda a: rank[a.layer])
        assert memopt_rounds != rounds
        memopt_peak = simulate_buffer_usage(MigrationPlan(actions=memopt_rounds), layout)
        assert max(plan.peak_usage.values()) < max(memopt_peak.values())
        last_round = check_assembly(plan, mapping, layout)
        assert new_cfg.pipeline_stages > 1 and len(set(last_round.values())) > 1

    def test_plans_of_one_derivation_hold_its_rounds(self, monkeypatch):
        """Rounds are built once per derivation: plans under two caps hold
        the very same round objects, and the port totals and participants
        read them without building a round again."""
        model, _, new_cfg, layout, inherited = _random_transition(np.random.default_rng(5))
        table = Layout.of(layout)
        derived = derive_transfers(map_devices(table, new_cfg, model, 1), table, model, inherited)
        layer_rounds = derived.common.layer_rounds()
        plans = [plan_migration(derived), plan_migration(derived, 0.1 * model.bytes_per_layer)]
        assert [a.layer for a in plans[0].actions] != [a.layer for a in plans[1].actions]
        for plan in plans:
            rounds = [a for a in plan.actions if a.kind != "start_stage"]
            assert rounds[0] is derived.cache_round() is not None
            assert sorted(map(id, rounds[1:])) == sorted(map(id, layer_rounds.values()))
        built = []
        monkeypatch.setattr(migration, "MigrationAction", lambda *a, **k: built.append(a))
        assert derived.port_loads() and derived.participants()
        assert derived.common.layer_rounds() is layer_rounds and not built


class TestSimulateBufferUsage:
    def test_empty_plan(self):
        usage = simulate_buffer_usage(MigrationPlan(actions=[]), {("a", 0): ContextInventory.empty()})
        assert usage == {"a": 0.0}

    def test_single_transfer_peaks(self):
        from spotsim.migration import Transfer
        tr = Transfer(kind="model", layer=0, lo=Fraction(0), hi=Fraction(1),
                      src=("a", 0), dst=("b", 0), bytes=100.0)
        plan = MigrationPlan(actions=[Round(kind="migrate_layer", layer=0, transfers=(tr,),
                                            releases=(("a", 100.0),))])
        usage = simulate_buffer_usage(plan, {("a", 0): ContextInventory.empty(),
                                             ("b", 0): ContextInventory.empty()})
        assert usage["b"] == 100.0
        assert usage["a"] == 0.0

    def test_matches_hand_replay(self):
        from spotsim.migration import Transfer
        def tr(src, dst, nbytes):
            return Transfer(kind="model", layer=0, lo=Fraction(0), hi=Fraction(1),
                            src=(src, 0), dst=(dst, 0), bytes=float(nbytes))
        plan = MigrationPlan(actions=[
            Round(kind="migrate_layer", layer=0,
                  transfers=(tr("a", "b", 60), tr("b", "c", 40)),
                  releases=(("a", 60.0), ("b", 40.0))),
            Round(kind="migrate_layer", layer=1,
                  transfers=(tr("c", "a", 30),),
                  releases=(("c", 30.0),)),
        ])
        inv = {(x, 0): ContextInventory.empty() for x in "abc"}
        usage = simulate_buffer_usage(plan, inv)
        # hand replay: b peaks at +60 during round 0, c at +40; a ends round 0
        # at -60 so its round-1 receive (+30) never lifts it above its start
        assert usage == {"a": 0.0, "b": 60.0, "c": 40.0}

    def test_peak_usage_recorded_on_plan(self):
        old = ParallelConfig(1, 2, 8, 1)
        new = ParallelConfig(1, 3, 4, 1)
        model = ModelSpec(name="m12", num_layers=12, bytes_per_layer=1200,
                          kv_bytes_per_token_per_layer=16)
        _, layout, plan = transition_plan(model, old, new, 16)
        assert plan.peak_usage == simulate_buffer_usage(plan, layout)

    def test_memopt_never_beats_unbounded_on_more_memory(self):
        # memopt order's peak <= naive index order's peak
        rng = np.random.default_rng(21)
        for _ in range(20):
            model = ModelSpec(name="x", num_layers=int(rng.integers(4, 10)),
                              bytes_per_layer=int(rng.integers(500, 2000)),
                              kv_bytes_per_token_per_layer=8)
            old = ParallelConfig(1, 2, 2, 1)
            new = ParallelConfig(1, 4, 1, 1)
            layout = serving_cluster(model, old, 4)
            table = Layout.of(layout)
            mapping = map_devices(table, new, model, 1)
            derived = derive_transfers(mapping, table, model)
            bounded = plan_migration(derived, u_max=float(model.bytes_per_layer) * 1.5)
            naive = plan_migration(derived, u_max=None)
            assert max(bounded.peak_usage.values()) <= max(naive.peak_usage.values()) + 1e-9


def test_plan_json_roundtrip():
    old = ParallelConfig(1, 2, 8, 1)
    new = ParallelConfig(1, 3, 4, 1)
    model = ModelSpec(name="m12", num_layers=12, bytes_per_layer=1200,
                      kv_bytes_per_token_per_layer=16)
    _, _, plan = transition_plan(model, old, new, 16)
    doc = json.loads(json.dumps(plan_to_dict(plan)))  # serializable
    assert [a["kind"] for a in doc["actions"]] == [a.kind for a in plan.actions]
    written = [t for a in doc["actions"] for t in a.get("transfers", ())]
    assert sum(t["bytes"] for t in written) == pytest.approx(plan.total_bytes())
    assert doc["peak_usage"] == plan.peak_usage


def test_plan_json_roundtrip_keeps_cache_layer_runs():
    """A cache transfer over a layer run writes its layer count; a one-layer
    transfer writes none."""
    old, new = ParallelConfig(1, 2, 2, 1), ParallelConfig(1, 1, 4, 1)
    cache = {1: [("r-1", 24)]}
    layout = {(f"i-{k}", 0): required_context(old, pos, MODEL, cache[1])
              for k, pos in enumerate(positions(old))}
    table = Layout.of(layout)
    mapping = map_devices(table, new, MODEL, 1, inheritance={1: 1})
    plan = plan_migration(derive_transfers(mapping, table, MODEL, cache))
    assert {(t.kind, t.layers) for t in plan.transfers()} == {("model", 1), ("cache", 4)}
    doc = json.loads(json.dumps(plan_to_dict(plan)))
    written = [t for a in doc["actions"] for t in a.get("transfers", ())]
    assert [t.get("layers") for t in written] == [t.layers if t.layers != 1 else None
                                                  for t in plan.transfers()]


def test_departing_sources_keep_bystander_replicas_out():
    """A same-shape replacement fill pulls from the departing instance, not
    from the replica pipeline that is still serving."""
    cfg = ParallelConfig(2, 2, 1, 1)
    model = ModelSpec(name="m4r", num_layers=4, bytes_per_layer=1000,
                      kv_bytes_per_token_per_layer=8)
    layout = serving_cluster(model, cfg, 5)
    # i-1 (pipeline 1, stage 2) is leaving; i-4 is the idle replacement,
    # and i-1 is still alive as a source during its grace period
    departing = frozenset({"i-1"})
    targets = {gpu: held for gpu, held in layout.items() if gpu[0] != "i-1"}
    mapping = map_devices(Layout.of(targets), cfg, model, 1)
    table = Layout.of(layout)
    plan = plan_migration(derive_transfers(mapping, table, model, departing=departing))
    sources = {t.src[0] for t in plan.transfers()}
    assert sources == {"i-1"}
    receivers = {t.dst[0] for t in plan.transfers()}
    assert receivers == {"i-4"}


M4 = ModelSpec(name="m4", num_layers=4, bytes_per_layer=1000, kv_bytes_per_token_per_layer=8)


def test_a_stage_from_two_remote_replicas_keeps_one_sender_per_sub_piece():
    """A new replica needs a whole stage that two serving replicas hold: its
    piece is covered once over the stage's layer run, so one sender sends
    it on every layer instead of the two taking turns layer by layer."""
    layout = serving_cluster(M4, ParallelConfig(2, 1, 1, 1), 3)
    mapping = DeviceMapping(assignment={(f"i-{k}", 0): TopologyPosition(k + 1, 1, 1)
                                        for k in range(3)},
                            total_weight=0.0, config=ParallelConfig(3, 1, 1, 1))
    model_transfers, _, _, _ = derive_transfers(mapping, Layout.of(layout), M4).records()
    assert sorted(model_transfers) == [0, 1, 2, 3]
    senders: dict[tuple, set] = {}
    for layer, transfers in model_transfers.items():
        assert [(t.dst, t.bytes) for t in transfers] == [(("i-2", 0), 1000.0)]
        for t in transfers:
            senders.setdefault((t.lo, t.hi), set()).add(t.src)
    assert senders == {(Fraction(0), Fraction(1)): {("i-0", 0)}}


def test_a_departing_budget_that_fits_a_prefix_of_a_run_sends_none_of_it():
    """The departing i-0 first sends i-2 the half of every layer it lacks
    (2,000 bytes), which leaves 2,000 of the 4,000-byte budget (the busiest
    receiver's bytes): room for two layers of i-3's four-layer run, not the
    whole run.  The run is one choice, so i-0 sends none of it and the
    serving replica i-1 sends all of it."""
    layout = serving_cluster(M4, ParallelConfig(2, 1, 1, 1), 4)
    layout[("i-2", 0)] = inventory(model_shards=[(layer, Fraction(0), Fraction(1, 2))
                                                 for layer in range(4)])
    mapping = DeviceMapping(assignment={(f"i-{k}", 0): TopologyPosition(k, 1, 1)
                                        for k in range(1, 4)},
                            total_weight=0.0, config=ParallelConfig(3, 1, 1, 1))
    model_transfers, _, _, _ = derive_transfers(mapping, Layout.of(layout), M4,
                                                departing=frozenset({"i-0"})).records()
    sent = {(t.src[0], t.dst[0], t.lo, t.hi) for transfers in model_transfers.values()
            for t in transfers}
    assert sent == {("i-0", "i-2", Fraction(1, 2), Fraction(1)),
                    ("i-1", "i-3", Fraction(0), Fraction(1))}
    assert all(len(transfers) == 2 for transfers in model_transfers.values())


def test_a_forced_cache_piece_tips_a_later_sender_choice():
    """i-3 inherits r1 and r2, in that order.  Only i-1 holds r1, so r1's
    piece has no choice of sender; i-1 and i-2 both hold r2.  With equal
    loads the tie would take i-1, the first in GPU order, but r1's bytes
    already sit on i-1's load, so r2 comes from i-2.  The derivation is the
    fraction oracle's, record for record."""
    config, pos = ParallelConfig(1, 1, 1, 1), TopologyPosition(1, 1, 1)

    def cache(*rids):
        return [(rid, layer, Fraction(0), Fraction(1), 8) for rid in rids for layer in range(4)]
    layout = {("i-1", 0): inventory(cache_shards=cache("r1", "r2")),
              ("i-2", 0): inventory(cache_shards=cache("r2")),
              ("i-3", 0): required_context(config, pos, M4)}
    mapping = DeviceMapping(assignment={("i-3", 0): pos}, total_weight=0.0, config=config)
    inherited = {1: [("r1", 8), ("r2", 8)]}
    derived = derive_transfers(mapping, Layout.of(layout), M4, inherited).records()
    assert repr(derived) == repr(fraction_oracle.derive_transfers(mapping, layout, M4, inherited))
    assert [(t.request, t.src[0], t.bytes) for t in derived[1]] == [("r1", "i-1", 256.0),
                                                                   ("r2", "i-2", 256.0)]
