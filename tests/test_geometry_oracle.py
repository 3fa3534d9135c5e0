"""The integer-grid geometry equals the per-layer Fraction oracle exactly.

`overlap_bytes` and `derive_transfers` sum integer numerators on a grid and
divide once; `tests/fraction_oracle.py` keeps the per-layer Fraction
algorithms they replace.  Over random configurations, positions, KV caches
and per-layer inventories that are not rectangles (several intervals per
layer, overlaps, holes, mixed denominators), every byte count must be the
same float and every transfer list the same list, in the same order.  That
holds both for one derivation of the whole layout and for the two steps the
engine takes: a cache-free derivation, then cache derivations given it as
`base`.  A derivation keeps its transfers as grid-integer columns, and what
the engine reads is summed from them; each such sum must be the float the
loop over the expanded records gives.  Models draw byte counts past 2**53
and past 2**63 as well, so the mapper and the planner are compared on both
branches of `domain.exact_bytes`.

The mapper's weight matrix, built from rectangle arrays, must hold in every
cell the float `overlap_bytes` gives for that GPU and position, and
`map_devices`, which matches each distinct inner block once, must return what
the per-block loop of `tests/mapping_oracle.py` returns.
"""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fraction_oracle as oracle
import mapping_oracle
from plan_checks import simulate_buffer_usage
from spotsim.domain import (
    STORAGE,
    ContextInventory,
    Layout,
    ModelSpec,
    ParallelConfig,
    RequestRecord,
    overlap_bytes,
    positions,
    required_context,
    stage_layers,
)
from spotsim.mapping import (
    DeviceMapping,
    MappingError,
    build_graph,
    map_devices,
    position_rows,
    slot_table,
)
from spotsim.migration import MigrationAction, MigrationError, derive_transfers, plan_migration

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
DENOMINATORS = (1, 2, 3, 4, 6, 8)
REQUESTS = ("r1", "r2", "r3")


def byte_counts(most: int):
    """Byte counts up to `most`, or past 2**53 (float64's exact integers), or
    past 2**63 (int64's range), where bytes are divided as Python ints."""
    return st.one_of(st.integers(1, most), st.integers(2**53, 2**54), st.integers(2**63, 2**65))


@st.composite
def models(draw):
    # large, odd byte counts so that rounding order would show
    return ModelSpec(name="h", num_layers=draw(st.integers(1, 8)),
                     bytes_per_layer=draw(byte_counts(10**10)),
                     kv_bytes_per_token_per_layer=draw(byte_counts(10**5)))


@st.composite
def intervals(draw):
    den = draw(st.sampled_from(DENOMINATORS))
    lo = draw(st.integers(0, den - 1))
    hi = draw(st.integers(lo + 1, den))
    return Fraction(lo, den), Fraction(hi, den)


@st.composite
def per_layer_inventories(draw, model):
    """Arbitrary per-layer shards: any intervals on any layers, cache in
    request-major, then layer, order."""
    model_shards = []
    for layer in range(model.num_layers):
        for lo, hi in draw(st.lists(intervals(), max_size=2)):
            model_shards.append((layer, lo, hi))
    cache_shards = []
    for rid in draw(st.lists(st.sampled_from(REQUESTS), max_size=2, unique=True)):
        for layer in range(model.num_layers):
            for lo, hi in draw(st.lists(intervals(), max_size=2)):
                cache_shards.append((rid, layer, lo, hi, draw(st.integers(0, 40))))
    return oracle.inventory(model_shards=model_shards, cache_shards=cache_shards)


@st.composite
def configs(draw, model):
    return ParallelConfig(draw(st.integers(1, 2)), draw(st.integers(1, model.num_layers)),
                          draw(st.sampled_from((1, 2, 3, 4))), 4)


@st.composite
def caches(draw):
    return [(rid, draw(st.integers(0, 40)))
            for rid in draw(st.lists(st.sampled_from(REQUESTS), max_size=3, unique=True))]


@st.composite
def position_inventories(draw, model):
    config = draw(configs(model))
    pos = draw(st.sampled_from(positions(config)))
    return required_context(config, pos, model, draw(caches()))


def inventories(model):
    return st.one_of(per_layer_inventories(model), position_inventories(model),
                     st.just(ContextInventory.empty()))


@given(st.data())
@SETTINGS
def test_overlap_bytes_matches_oracle(data):
    model = data.draw(models())
    a = data.draw(inventories(model))
    b = data.draw(inventories(model))
    assert repr(overlap_bytes(a, b, model)) == repr(oracle.overlap_bytes(a, b, model))


@given(st.data())
@SETTINGS
def test_inventory_round_trips_through_per_layer_form(data):
    model = data.draw(models())
    inv = data.draw(inventories(model))
    model_shards, cache_shards = oracle.model_shards(inv), oracle.cache_shards(inv)
    again = oracle.inventory(model_shards=model_shards, cache_shards=cache_shards)
    assert again == inv and hash(again) == hash(inv)
    assert oracle.model_shards(again) == model_shards and oracle.cache_shards(again) == cache_shards
    for built in (inv, again):
        if oracle.model_shards(built):  # model context is request None's, listed first
            assert next(iter(built.rects)) is None
            assert all(tokens == 1 for *_, tokens in built.rects[None])
        else:
            assert None not in built.rects

    # a position's context, from `required_context` and from its per-layer form
    config = data.draw(configs(model))
    pos = data.draw(st.sampled_from(positions(config)))
    cache = data.draw(caches())
    lo, hi = Fraction(pos.shard - 1, config.tensor_shards), Fraction(pos.shard, config.tensor_shards)
    layers = stage_layers(model.num_layers, config.pipeline_stages, pos.stage)
    built = required_context(config, pos, model, cache)
    by_shards = oracle.inventory(
        model_shards=[(layer, lo, hi) for layer in layers],
        cache_shards=[(rid, layer, lo, hi, tokens) for rid, tokens in cache if tokens > 0
                      for layer in layers])
    assert built == by_shards and hash(built) == hash(by_shards)
    assert list(built.rects) == list(by_shards.rects) == [
        None, *(rid for rid, tokens in cache if tokens > 0)]
    assert [rect[4] for rect in built.rects[None]] == [1]


@given(st.data())
@SETTINGS
def test_position_rows_are_required_context_rows(data):
    """The row builder the mapper and the planner score and move context
    with gives, for any positions and per-pipeline caches, the rows of the
    `required_context` inventories the engine installs and snapshots.
    Caches may repeat a request, carry zero tokens or name pipelines with no
    placed position, and configs may have more stages than layers."""
    model = data.draw(models())
    config = ParallelConfig(data.draw(st.integers(1, 3)),
                            data.draw(st.integers(1, model.num_layers + 3)),
                            data.draw(st.sampled_from((1, 2, 3, 4))), 4)
    placed = data.draw(st.lists(st.sampled_from(positions(config)), max_size=8))
    entries = st.lists(st.tuples(st.sampled_from(REQUESTS), st.integers(0, 40)), max_size=4)
    cache = data.draw(st.dictionaries(st.integers(1, config.data_parallel), entries))
    k = data.draw(st.integers(1, 6))
    table = slot_table(config, model, list(enumerate(placed)))
    # one instance, so that GPU g is the table's GPU g
    layout = Layout.of({("i", g): required_context(config, pos, model, cache.get(pos.pipeline, ()))
                        for g, pos in enumerate(placed)})
    den, pipelines = config.tensor_shards * k, range(1, config.data_parallel + 1)
    held = [(g, layout.rids[code], *rect) for g, code, *rect in layout.rows_on(den).tolist()]

    def named(rows, keys):
        rids = list(keys)
        return [(g, rids[code], *rect) for g, code, *rect in rows.tolist()]

    # the mapper's rows: model and cache at once, the same multiset
    keys = {None: 0}
    rows = position_rows(table, k, {d: [(None, 1), *cache.get(d, ())] for d in pipelines}, keys)
    assert sorted(named(rows, keys), key=repr) == sorted(held, key=repr)
    # the planner's and the engine's: the model, then the cache, each in the
    # inventories' order
    model_rows = position_rows(table, k, {d: [(None, 1)] for d in pipelines}, {None: 0})
    assert named(model_rows, {None: 0}) == [row for row in held if row[1] is None]
    keys = {}
    rows = position_rows(table, k, cache, keys)
    assert named(rows, keys) == [row for row in held if row[1] is not None]


@st.composite
def migrations(draw):
    """An old layout (a served config with its KV cache, some GPUs replaced by
    arbitrary or empty inventories), a mapping onto a new config, inherited
    caches and departing instances."""
    model = draw(models())
    old, new = draw(configs(model)), draw(configs(model))
    per_instance = draw(st.sampled_from((1, 2, 4)))
    n_gpus = max(old.gpus, new.gpus) + draw(st.integers(0, 3))
    n_instances = -(-n_gpus // per_instance)
    gpus = [(f"i-{i + 1}", g) for i in range(n_instances) for g in range(per_instance)]
    order = draw(st.permutations(gpus))
    served_cache = {d: draw(caches()) for d in range(1, old.data_parallel + 1)}
    layout = {gpu: ContextInventory.empty() for gpu in gpus}
    for gpu, pos in zip(order, positions(old)):
        layout[gpu] = required_context(old, pos, model, served_cache[pos.pipeline])
    for gpu in draw(st.lists(st.sampled_from(gpus), max_size=3, unique=True)):
        layout[gpu] = draw(st.one_of(per_layer_inventories(model), st.just(ContextInventory.empty())))
    targets = draw(st.permutations(gpus))
    slots = positions(new)[:len(gpus) - draw(st.integers(0, 1))]
    mapping = DeviceMapping(assignment=dict(zip(targets, slots)), total_weight=0.0, config=new)
    inherited = {d: [(rid, draw(st.integers(0, tokens))) for rid, tokens in served_cache.get(d, ())]
                 for d in range(1, new.data_parallel + 1)} if draw(st.booleans()) else None
    departing = frozenset(draw(st.lists(st.sampled_from([g[0] for g in gpus]), max_size=2)))
    return mapping, layout, model, inherited, departing


def records(mapping, layout, *rest):
    """`derive_transfers` as records (`Derivation.records()`), as the oracle
    gives them."""
    return derive_transfers(mapping, Layout.of(layout), *rest).records()


def outcome(derive, case):
    try:
        models_, caches_, layer_rel, cache_rel = derive(*case)
    except MigrationError as exc:
        return ("error", str(exc))
    return (list(models_.items()), caches_,
            {layer: list(rel.items()) for layer, rel in layer_rel.items()},
            list(cache_rel.items()))


@given(migrations())
@SETTINGS
def test_derive_transfers_matches_oracle(case):
    got, want = outcome(records, case), outcome(oracle.derive_transfers, case)
    assert repr(got) == repr(want)


def model_only(layout):
    """The table of the layout without its KV cache, each inventory on its
    own grid."""
    return Layout.of({gpu: ContextInventory(inv.den, {rid: rects for rid, rects in inv.rects.items()
                                                      if rid is None})
                      for gpu, inv in layout.items()})


@given(migrations(), st.data())
@SETTINGS
def test_two_step_derivation_matches_one_step_and_oracle(case, data):
    """The path the engine takes: a cache-free derivation, then cache
    derivations given it as `base`, each the same as one derivation of the
    whole layout, down to the `repr` of every transfer and release."""
    mapping, layout, model, inherited, departing = case
    cache_free = derive_transfers(mapping, model_only(layout), model, departing=departing)

    def two_step(mapping, layout, model, inherited, departing):
        return derive_transfers(mapping, Layout.of(layout), model, inherited, departing,
                                base=cache_free).records()

    want = outcome(oracle.derive_transfers, case)
    assert repr(outcome(two_step, case)) == repr(outcome(records, case)) == repr(want)
    # a second cache derivation from the same base, as a commit's plan
    # follows its grace estimate, with fewer inherited entries
    fewer = {d: data.draw(st.lists(st.sampled_from(entries), unique=True)) if entries else []
             for d, entries in (inherited or {}).items()}
    again = (mapping, layout, model, fewer, departing)
    assert repr(outcome(two_step, again)) == repr(outcome(oracle.derive_transfers, again))


def port_bytes(transfers) -> tuple[dict[str, float], dict[str, float]]:
    """The bytes each instance sends and receives over `transfers` to and
    from other instances, added record by record."""
    sent: dict[str, float] = {}
    received: dict[str, float] = {}
    for t in transfers:
        if t.src[0] != t.dst[0]:
            sent[t.src[0]] = sent.get(t.src[0], 0.0) + t.bytes
            received[t.dst[0]] = received.get(t.dst[0], 0.0) + t.bytes
    return sent, received


def same(got, want) -> bool:
    """Equal (instance, bytes) items, bit for bit, in any order."""
    return repr(sorted(dict(got).items())) == repr(sorted(dict(want).items()))


@given(migrations())
@SETTINGS
def test_columns_give_what_the_record_loops_gave(case):
    """Every sum the engine reads from a derivation's columns is, bit for
    bit, what the loop over its expanded records it replaces gives: each
    round's port sums and incoming bytes, the model loads (layer by layer,
    then record by record), `port_loads` (round by round: the layers in the
    order covering met them, then the cache round) and the participants.
    The records equal the oracle's, and a plan's rounds, rebuilt from their
    records by hand, are summed alike."""
    mapping, layout, model, inherited, departing = case
    cache_free = derive_transfers(mapping, model_only(layout), model, departing=departing)
    try:
        derived = derive_transfers(mapping, Layout.of(layout), model, inherited, departing,
                                   base=cache_free)
    except MigrationError:
        return
    records = derived.records()
    assert repr(outcome(lambda *_: records, case)) == repr(outcome(oracle.derive_transfers, case))
    model_transfers, cache_transfers, _, _ = records
    common = derived.common

    rounds = {**common.layer_rounds(), "cache": derived.cache_round()}
    moved = {**model_transfers, "cache": cache_transfers}
    for key, found in rounds.items():
        sent, received = port_bytes(moved.get(key, ()))
        incoming: dict[str, float] = {}
        for t in moved.get(key, ()):
            incoming[t.dst[0]] = incoming.get(t.dst[0], 0.0) + t.bytes
        assert same(found.sent, sent) and same(found.received, received)
        assert same(found.incoming, incoming)

    sent = dict.fromkeys([*common.rank, STORAGE[0]], 0.0)
    delivered: dict[str, float] = {}
    for layer in sorted(model_transfers):
        for t in model_transfers[layer]:
            if t.src[0] != t.dst[0]:
                sent[t.src[0]] += t.bytes
            delivered[t.dst[0]] = delivered.get(t.dst[0], 0.0) + t.bytes
    got_sent, got_delivered = common.model_loads()
    assert same(got_sent, sent) and same(got_delivered, delivered)

    sent, received, count = {}, {}, 0
    for transfers in (*model_transfers.values(), cache_transfers):
        out, into = port_bytes(transfers)
        count += bool(out)
        for inst, b in out.items():
            sent[inst] = sent.get(inst, 0.0) + b
        for inst, b in into.items():
            received[inst] = received.get(inst, 0.0) + b
    got_sent, got_received, got_count = derived.port_loads()
    assert same(got_sent, sent) and same(got_received, received) and got_count == count

    assert cache_free.participants() == derived.participants() == {
        inst for transfers in model_transfers.values() for t in transfers
        for inst in (t.src[0], t.dst[0])}

    plan = plan_migration(derived)
    assert plan.peak_usage == simulate_buffer_usage(plan, layout)
    for action in plan.actions:
        sent, received = port_bytes(action.transfers)
        by_hand = MigrationAction(action.kind, action.transfers, action.releases, action.layer,
                                  action.stage)
        assert by_hand == action
        for built in (action, by_hand):
            assert same(built.sent, sent) and same(built.received, received)


@st.composite
def mapping_cases(draw):
    """A layout of equal-sized instances (a served config with its KV cache,
    some GPUs replaced by arbitrary or empty inventories), a target config,
    an inheritance and the requests of the old pipelines."""
    model = draw(models())
    old, new = draw(configs(model)), draw(configs(model))
    per_instance = draw(st.sampled_from((1, 2, 4)))
    n_instances = draw(st.integers(1, -(-max(old.gpus, new.gpus) // per_instance) + 1))
    gpus = [(f"i-{i + 1}", g) for i in range(n_instances) for g in range(per_instance)]
    served_cache = {d: draw(caches()) for d in range(1, old.data_parallel + 1)}
    layout = {gpu: ContextInventory.empty() for gpu in gpus}
    for gpu, pos in zip(draw(st.permutations(gpus)), positions(old)):
        layout[gpu] = required_context(old, pos, model, served_cache[pos.pipeline])
    for gpu in draw(st.lists(st.sampled_from(gpus), max_size=3, unique=True)):
        layout[gpu] = draw(inventories(model))
    requests = {d: [RequestRecord(id=rid, arrival=0.0, s_in=draw(st.integers(0, 40)), s_out=8)
                    for rid, _ in entries]
                for d, entries in served_cache.items()}
    new_pipelines = st.one_of(st.none(), st.integers(1, new.data_parallel))
    inheritance = draw(st.one_of(
        st.none(),
        st.just({d: d for d in range(1, min(old.data_parallel, new.data_parallel) + 1)}),
        st.fixed_dictionaries({d: new_pipelines for d in requests})))
    return layout, new, model, per_instance, inheritance, requests


@given(mapping_cases())
@SETTINGS
def test_build_graph_weights_match_overlap_bytes(case):
    layout, target, model, _, inheritance, requests = case
    got = build_graph(Layout.of(layout), target, model, inheritance, requests)
    want = mapping_oracle.build_graph(layout, target, model, inheritance, requests)
    assert (got.gpus, got.slots) == (want.gpus, want.slots)
    assert repr(got.weights) == repr(want.weights)


def mapped(mapper, case):
    layout, target, model, per_instance, inheritance, requests = case
    try:
        got = mapper(layout, target, model, per_instance, inheritance, requests)
    except MappingError as exc:
        return ("error", str(exc))
    return sorted(got.assignment.items()), repr(got.total_weight), got.config


@given(mapping_cases())
@SETTINGS
def test_map_devices_matches_per_block_oracle(case):
    def mapper(layout, *rest):
        return map_devices(Layout.of(layout), *rest)
    assert mapped(mapper, case) == mapped(mapping_oracle.map_devices, case)
