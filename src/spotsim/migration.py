"""Progressive, buffer-bounded migration planning.

A plan moves whatever context the device mapping could not reuse.  Model
context is treated as the KV cache of request None with one token, so model
and cache pieces are derived in the same passes.  Remote storage (`STORAGE`)
sends the model pieces no live GPU holds.  KV cache has no such holder: a
cache piece without a live copy raises `MigrationError`.  Planning has two
steps.
`derive_transfers` decides what moves over one layout: the model transfers
of one mapping, one per layer, then its cache transfers, one per layer run
of a request, and the end-of-round releases.  Model senders are chosen
without regard to the cache, so a commit derives the model part once and
each plan that carries cache adds only its cache part.
`plan_migration` assembles a given derivation into rounds: one round of
KV-cache transfers first (losing cache is what destroys decoding progress,
so it goes before everything), then model layers one round per layer in a
memory-optimized order, with a stage-start marker emitted as soon as a stage's
full context is in place so front stages resume serving while later stages are
still migrating.  The derivation does not depend on the buffer cap, so one
derivation can be assembled under several caps.

Buffer accounting is per instance, as a net byte delta from the moment the
migration starts: receivers are charged when a round begins and every
superseded old copy of the round's context (sent or merely bystanding) is
credited back when the round completes.  The layer order first admits layers
in index order while the cap U_max holds, then places the deferred rest by
repeatedly choosing the layer minimizing the worst instance's usage; layers
with equal incoming traffic peak alike, so each step compares one layer per
distinct incoming traffic.  The plain index order is the one fallback:
the whole plan, cache round included, is replayed for both orders, and
the index order ships when it peaks lower.
Assembly reads the transfers once: each round is built once with its
receivers' byte runs and the stages it delivers to, both orders are
replayed from the byte runs, and the stage-start markers are placed from
the stage sets of the rounds of the order that wins.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .domain import (
    STORAGE,
    ContextInventory,
    GpuRef,
    Layout,
    ModelSpec,
    layer_blocks,
    natural_key,
    required_context,
    uncovered,
)
from .mapping import DeviceMapping


class MigrationError(ValueError):
    pass


class Transfer(NamedTuple):
    """One shard movement between two GPUs, over the layers
    [layer, layer + layers).

    A model transfer covers one layer.  A cache transfer covers a layer run
    of one request, and `bytes` counts every layer of it.  An immutable
    record like the dataclasses here, but a named tuple: a plan emits
    thousands per decision on a large fleet, and a tuple is built about three
    times faster than a frozen dataclass.
    """

    kind: str  # "model" | "cache"
    layer: int
    lo: Fraction
    hi: Fraction
    src: GpuRef
    dst: GpuRef
    bytes: float
    request: str | None = None
    tokens: int = 0
    layers: int = 1


@dataclass(frozen=True)
class MigrationAction:
    """One plan round: a batch of concurrent transfers plus end-of-round frees."""

    kind: str  # "migrate_cache" | "migrate_layer" | "start_stage"
    transfers: tuple[Transfer, ...] = ()
    releases: tuple[tuple[str, float], ...] = ()  # (instance, bytes freed)
    layer: int | None = None
    stage: int | None = None


@dataclass
class MigrationPlan:
    actions: list[MigrationAction]
    u_max: float | None = None
    peak_usage: dict[str, float] = field(default_factory=dict)

    def transfers(self) -> list[Transfer]:
        return [t for a in self.actions for t in a.transfers]

    def total_bytes(self) -> float:
        return sum(t.bytes for t in self.transfers())


@dataclass
class LayerTraffic:
    """Per-instance byte deltas of migrating one layer."""

    incoming: dict[str, float] = field(default_factory=dict)
    freed: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Memory-optimized layer ordering

def _peak_if_applied(usage: dict[str, float], traffic: LayerTraffic, floor: float) -> float:
    """Worst instance usage while the layer is in flight; `floor` is the worst before it."""
    peak = floor
    for inst, b in traffic.incoming.items():
        peak = max(peak, usage.get(inst, 0.0) + b)
    return peak


def _apply(usage: dict[str, float], traffic: LayerTraffic):
    for inst, b in traffic.incoming.items():
        usage[inst] = usage.get(inst, 0.0) + b
    for inst, b in traffic.freed.items():
        usage[inst] = usage.get(inst, 0.0) - b


def memopt_layer_order(traffic_by_layer: dict[int, LayerTraffic], u_max: float | None) -> list[int]:
    """Order all layers, min-maxing instance buffer usage.

    First pass admits layers in index order while no instance would exceed
    u_max mid-round; the deferred rest are appended greedily, each step taking
    the layer whose migration minimizes the worst instance's usage (ties to
    the lower layer index).  A layer's peak depends only on its `incoming`
    items, so layers with equal incoming traffic peak alike, and under that
    tie rule only the lowest deferred layer of each distinct incoming
    traffic is compared at a step: a step costs one evaluation per distinct
    incoming traffic, not one per deferred layer.
    Every layer is ordered even if u_max cannot be met; the resulting peak is
    reported by the plan, not hidden.  No comparison with the index order is
    made here: `plan_migration` replays both orders and keeps the lower.
    """
    usage: dict[str, float] = {}
    order: list[int] = []
    deferred: dict[frozenset, list[int]] = {}  # incoming traffic -> its deferred layers
    for layer in sorted(traffic_by_layer):
        traffic = traffic_by_layer[layer]
        if u_max is None or _peak_if_applied(usage, traffic, max(usage.values(), default=0.0)) <= u_max:
            _apply(usage, traffic)
            order.append(layer)
        else:
            deferred.setdefault(frozenset(traffic.incoming.items()), []).append(layer)
    classes = [layers[::-1] for layers in deferred.values()]  # lowest layer last
    while classes:
        floor = max(usage.values(), default=0.0)
        best = min(classes, key=lambda layers: (
            _peak_if_applied(usage, traffic_by_layer[layers[-1]], floor), layers[-1]))
        layer = best.pop()
        _apply(usage, traffic_by_layer[layer])
        order.append(layer)
        if not best:
            classes = [layers for layers in classes if layers]
    return order


# ---------------------------------------------------------------------------
# Transfer derivation
#
# Everything below works on one integer grid: every bound is a numerator over
# the lcm `den` of the old inventories' grids and the target's shard count,
# and a byte count is `units * unit_bytes / den`, the exact value rounded
# once, as the per-layer Fraction arithmetic it replaces rounded it.

def _scaled_blocks(rects, k: int) -> list[tuple[int, int, list[tuple]]]:
    """`layer_blocks` of the rectangles with their bounds scaled by k."""
    return [(l0, l1, [(lo * k, hi * k, *rest) for lo, hi, *rest in entries])
            for l0, l1, entries in layer_blocks(rects)]


def _segments(l0: int, l1: int, blocks) -> list[tuple[int, int, list[tuple]]]:
    """Layers [l0, l1) split at the bounds of the sorted, disjoint `blocks`:
    `(first, end, entries)`, with no entries where no block covers."""
    out = []
    at = l0
    for b0, b1, entries in blocks:
        if b1 <= at:
            continue
        if b0 >= l1:
            break
        if b0 > at:
            out.append((at, b0, []))
            at = b0
        end = min(b1, l1)
        out.append((at, end, entries))
        at = end
    if at < l1:
        out.append((at, l1, []))
    return out


def _holder_index(blocks_by_gpu) -> list[tuple[int, int, tuple[list, dict]]]:
    """`(first, end, (holders, candidate memo))` per elementary layer block:
    the `(gpu, lo, hi, ...)` copies covering those layers, in GPU order, then
    in each GPU's per-layer order.  Layers no copy covers have no block."""
    bounds = sorted({b for _, blocks in blocks_by_gpu for l0, l1, _ in blocks for b in (l0, l1)})
    index = []
    for c0, c1 in zip(bounds, bounds[1:]):
        holders = [(gpu, *entry) for gpu, blocks in blocks_by_gpu
                   for l0, l1, entries in blocks if l0 <= c0 < l1 for entry in entries]
        if holders:
            index.append((c0, c1, (holders, {})))
    return index


def _cover_from_holders(lo: int, hi: int, block, tokens: int, dst: GpuRef, unit_bytes: int,
                        den: int, load: dict[str, float], rank: dict, departing: frozenset[str],
                        send_budget: float, stored: bool) -> list[tuple[GpuRef, int, int]]:
    """Split the grid piece [lo, hi) across the holder GPUs of its layer block.

    Senders are chosen per sub-piece: a copy on the destination's own instance
    wins (intra-instance copies are cheap); then copies on departing instances
    (they must evacuate anyway and are not serving) as long as that sender
    stays within the busiest receiver's volume, so it never becomes the
    bottleneck; then the holder instance with the fewest bytes already
    scheduled to send, so replicated shards spread across senders instead of
    draining one replica.  A sub-piece no live copy holds comes from
    `STORAGE` up to the next live copy's lower bound when the piece is
    `stored` (model context); otherwise it raises.  Deterministic throughout.
    """
    holders, memo = block or ((), {})
    here = dst[0]
    out = []
    start = lo
    while start < hi:
        # copies holding `start` with enough tokens, per block; none is on `dst`,
        # since a need piece is what dst's own copies leave uncovered
        found = memo.get((start, tokens))
        if found is None:
            found = memo[(start, tokens)] = [
                (h[0], h[0][0], h[2], (rank[h[0][0]], h[0][1])) for h in holders
                if h[1] <= start < h[2] and h[3] >= tokens]
        best = None
        for gpu, inst, c_hi, order in found:
            end = c_hi if c_hi < hi else hi
            remote = inst != here
            cur = load[inst]
            prefer_departing = (inst in departing
                                and cur + (end - start) * unit_bytes / den <= send_budget + 1e-6)
            key = (remote, not prefer_departing, cur if remote else 0.0, order, -end)
            if best is None or key < best[0]:
                best = (key, gpu, end)
        if best is None:
            if not stored:
                raise MigrationError(f"no source holds required shard [{Fraction(start, den)},"
                                     f"{Fraction(hi, den)}): layout inconsistent with mapping")
            best = (None, STORAGE, min([h[1] for h in holders if start < h[1] < hi], default=hi))
        _, gpu, end = best
        out.append((gpu, start, end))
        if gpu[0] != here:
            load[gpu[0]] += (end - start) * unit_bytes / den
        start = end
    return out


def derive_transfers(mapping: DeviceMapping, old_layout: Layout, model: ModelSpec,
                     inherited_by_pipeline: dict[int, list[tuple[str, int]]] | None = None,
                     departing: frozenset[str] = frozenset(), base: tuple | None = None):
    """Model transfers per layer, cache transfers per layer run, and
    end-of-round releases.

    For every assigned GPU the non-reused part of its required context is
    pulled from old holders (departing copies first, then load-balanced),
    and a model piece no old holder has from `STORAGE`; whatever a GPU holds
    beyond its own new requirement is freed once the owning round completes.
    Pieces are derived per layer block; both kinds take the same passes,
    model context being request None's.

    Model pieces come first, under a sender load and a send budget (the
    busiest receiver's model bytes) built from model pieces alone, so the KV
    cache in `old_layout` never changes which holder sends a model piece.
    They are emitted one `Transfer` per layer, and released per layer.
    `base`, a derivation of the same mapping over the same model holdings (a
    commit's cache-free one), supplies the model transfers and layer
    releases in place of deriving them again.

    Cache pieces follow, from the sender load of the model transfers, under
    a budget of the busiest receiver's model plus cache bytes.  Each is
    covered once per layer run, a run of layers over which the receiver's
    own copy and the request's holders stay the same, and emitted as one
    `Transfer` per sender with the run's first layer, its layer count and the
    bytes of all its layers.  Cache releases go to the cache round.
    """
    if mapping.config is None:
        raise MigrationError("mapping carries no target config")
    target = mapping.config
    inherited = inherited_by_pipeline or {}
    rank = {inst: k for k, inst in enumerate(sorted({g[0] for g in old_layout}, key=natural_key))}
    gpus = sorted(old_layout, key=lambda g: (rank[g[0]], g[1]))
    den = math.lcm(target.tensor_shards, *(inv.den for inv in old_layout.values()))

    def scaled(inv: ContextInventory) -> dict[str | None, list]:
        k = den // inv.den
        return {rid: _scaled_blocks(rects, k) for rid, rects in inv.rects.items()
                if base is None or rid is not None}

    have = {gpu: scaled(old_layout[gpu]) for gpu in gpus}  # gpu -> {request: blocks}
    need = {}
    for gpu in gpus:
        pos = mapping.assignment.get(gpu)
        need[gpu] = scaled(ContextInventory.empty() if pos is None else
                           required_context(target, pos, model, inherited.get(pos.pipeline, ())))
    holders = {rid: _holder_index([(gpu, have[gpu][rid]) for gpu in gpus if rid in have[gpu]])
               for rid in {rid for held in have.values() for rid in held}}

    # One pass to size every receiver's incoming volume: the busiest receiver
    # link bounds the migration makespan no matter how sources are picked, so
    # the source chooser can favor departing copies up to that same volume
    # without making a departing sender the bottleneck.
    model_needs: list[tuple] = []  # (dst, request, first, end, [(lo, hi, unit bytes, tokens)])
    cache_needs: list[tuple] = []
    model_in: dict[str, float] = {}
    cache_in: dict[str, float] = {}
    for gpu in gpus:
        for rid, wanted in need[gpu].items():
            weight = model.unit_bytes(rid)
            needs, incoming = (model_needs, model_in) if rid is None else (cache_needs, cache_in)
            for l0, l1, entries in wanted:
                for s0, s1, cuts in _segments(l0, l1, have[gpu].get(rid, ())):
                    pieces = [(p_lo, p_hi, weight * tokens, tokens) for lo, hi, tokens in entries
                              for p_lo, p_hi in uncovered(lo, hi, [c for c in cuts
                                                                   if c[2] >= tokens])]
                    if not pieces:
                        continue
                    needs.append((gpu, rid, s0, s1, pieces))
                    sizes = [(p_hi - p_lo) * unit / den for p_lo, p_hi, unit, _ in pieces]
                    total = incoming.get(gpu[0], 0.0)
                    for _ in range(s0, s1):
                        for size in sizes:
                            total += size
                    incoming[gpu[0]] = total

    # every cover bound is a bound of some held or needed entry
    bounds = {n for by_rid in (*have.values(), *need.values())
              for blocks in by_rid.values()
              for _, _, entries in blocks for entry in entries for n in entry[:2]}
    frac = {n: Fraction(n, den) for n in bounds}

    if base is None:
        model_transfers: dict[int, list[Transfer]] = {}
        # bytes each sender is scheduled to send
        sender_load = dict.fromkeys([*rank, STORAGE[0]], 0.0)
        send_budget = max(model_in.values(), default=0.0)
        for dst, _, s0, s1, pieces in model_needs:
            for first, end, block in _segments(s0, s1, holders.get(None, ())):
                for layer in range(first, end):
                    out = model_transfers.setdefault(layer, [])
                    for lo, hi, unit, tokens in pieces:
                        for src, c_lo, c_hi in _cover_from_holders(
                                lo, hi, block, tokens, dst, unit, den, sender_load, rank,
                                departing, send_budget, True):
                            out.append(Transfer("model", layer, frac[c_lo], frac[c_hi], src, dst,
                                                (c_hi - c_lo) * unit / den))
        layer_releases: dict[int, dict[str, float]] = {}
    else:
        model_transfers, _, layer_releases, _ = base

    cache_transfers: list[Transfer] = []
    if cache_needs:
        # summed from the model transfers, so the same whether they were
        # derived here or come from `base`
        sender_load = dict.fromkeys([*rank, STORAGE[0]], 0.0)
        delivered: dict[str, float] = {}
        for layer in sorted(model_transfers):
            for t in model_transfers[layer]:
                if t.src[0] != t.dst[0]:
                    sender_load[t.src[0]] += t.bytes
                delivered[t.dst[0]] = delivered.get(t.dst[0], 0.0) + t.bytes
        send_budget = max(delivered.get(inst, 0.0) + cache_in.get(inst, 0.0)
                          for inst in {*delivered, *cache_in})
        for dst, rid, s0, s1, pieces in cache_needs:
            for first, end, block in _segments(s0, s1, holders.get(rid, ())):
                n = end - first
                for lo, hi, unit, tokens in pieces:
                    for src, c_lo, c_hi in _cover_from_holders(
                            lo, hi, block, tokens, dst, unit * n, den, sender_load, rank,
                            departing, send_budget, False):
                        cache_transfers.append(Transfer("cache", first, frac[c_lo], frac[c_hi],
                                                        src, dst, (c_hi - c_lo) * unit * n / den,
                                                        rid, tokens, n))

    cache_releases: dict[str, float] = {}
    for gpu in gpus:
        inst = gpu[0]
        for rid, held in have[gpu].items():
            weight = model.unit_bytes(rid)
            for l0, l1, entries in held:
                for s0, s1, wanted in _segments(l0, l1, need[gpu].get(rid, ())):
                    extras = [((hi - lo) * tokens
                               - sum(max(0, min(hi, n_hi) - max(lo, n_lo)) * min(tokens, n_tokens)
                                     for n_lo, n_hi, n_tokens in wanted)) * weight / den
                              for lo, hi, tokens in entries]
                    for layer in range(s0, s1):
                        for extra in extras:
                            if extra > 0:
                                rel = (layer_releases.setdefault(layer, {}) if rid is None
                                       else cache_releases)
                                rel[inst] = rel.get(inst, 0.0) + extra

    return model_transfers, cache_transfers, layer_releases, cache_releases


# ---------------------------------------------------------------------------
# Plan assembly

def _added(total: float, sizes: list[float]) -> float:
    """`total` plus each size in turn: the float sum a per-transfer replay makes."""
    for b in sizes:
        total += b
    return total


def plan_migration(mapping: DeviceMapping, old_layout: Layout, model: ModelSpec,
                   transfers: tuple, u_max: float | None = None) -> MigrationPlan:
    """Assemble the migration plan of a device mapping from `transfers`, what
    `derive_transfers` returned for that mapping over `old_layout`.

    Round order: all-layer cache first, then layers in memopt order under
    `u_max`, or in index order when that replays to a lower peak; a
    start_stage marker follows the round that completes each stage's context
    (stages needing nothing start up front).  Nothing here re-derives: the
    same derivation assembled under another cap moves the same transfers.

    One pass over the transfers builds every round once: its action, each
    receiving instance's bytes in transfer order, and the stages it delivers
    to.  Both orders are replayed from those byte runs, adding each
    instance's bytes in the order a per-transfer replay of the plan's actions
    adds them (`tests/plan_checks.py` keeps that replay), so the plan's
    `peak_usage` is what it gives, bit for bit; the markers come from the
    rounds' stage sets.
    """
    model_transfers, cache_transfers, layer_releases, cache_releases = transfers
    stage_of = {gpu: pos.stage for gpu, pos in mapping.assignment.items()}

    def assembled(kind: str, moved, released: dict[str, float], layer: int | None = None):
        """A round: its action, its receivers' byte runs, and its stages."""
        received: dict[str, list[float]] = {}
        to = set()
        for t in moved:
            received.setdefault(t.dst[0], []).append(t.bytes)
            to.add(t.dst)
        action = MigrationAction(kind=kind, transfers=tuple(moved),
                                 releases=tuple(sorted(released.items())), layer=layer)
        return action, sorted(received.items()), {stage_of[gpu] for gpu in to}

    cache_round = ([assembled("migrate_cache", cache_transfers, cache_releases)]
                   if cache_transfers or cache_releases else [])
    traffic: dict[int, LayerTraffic] = {}
    rounds = {}
    for layer in range(model.num_layers):
        moved, released = model_transfers.get(layer, ()), layer_releases.get(layer, {})
        incoming: dict[str, float] = {}
        if moved or released:
            rounds[layer] = assembled("migrate_layer", moved, released, layer)
            incoming = {inst: _added(0.0, sizes) for inst, sizes in rounds[layer][1]}
        traffic[layer] = LayerTraffic(incoming, released)
    order = memopt_layer_order(traffic, u_max)

    def replayed(layer_order: list[int]) -> tuple[list, dict[str, float]]:
        chosen = cache_round + [rounds[layer] for layer in layer_order if layer in rounds]
        usage = dict.fromkeys([gpu[0] for gpu in old_layout], 0.0)
        peaks = dict(usage)
        for action, received, _ in chosen:
            for inst, sizes in received:
                usage[inst] = _added(usage.get(inst, 0.0), sizes)
                peaks[inst] = max(peaks.get(inst, 0.0), usage[inst])
            for inst, b in action.releases:
                usage[inst] = usage.get(inst, 0.0) - b
        return chosen, peaks

    chosen, peaks = replayed(order)
    if order != sorted(traffic):
        # the one index-order fallback: the greedy steps see neither the cache
        # round nor the whole order's peak; never ship an order replaying higher
        naive = replayed(sorted(traffic))
        if max(naive[1].values(), default=0.0) < max(peaks.values(), default=0.0):
            chosen, peaks = naive

    # a stage may serve once every round delivering context to its GPUs is done
    last_round = dict.fromkeys(range(1, mapping.config.pipeline_stages + 1), -1)
    for idx, (_, _, stages) in enumerate(chosen):
        for p in stages:
            last_round[p] = idx
    starts: dict[int, list[MigrationAction]] = {}
    for p, idx in last_round.items():
        starts.setdefault(idx, []).append(MigrationAction(kind="start_stage", stage=p))
    actions = starts.get(-1, [])
    for idx, (action, _, _) in enumerate(chosen):
        actions.append(action)
        actions.extend(starts.get(idx, ()))
    return MigrationPlan(actions=actions, u_max=u_max, peak_usage=peaks)


# ---------------------------------------------------------------------------
# JSON output: `plan_to_dict` writes a plan; nothing reads one back

def plan_to_dict(plan: MigrationPlan) -> dict:
    def frac(x: Fraction):
        return [x.numerator, x.denominator]

    actions = []
    for a in plan.actions:
        doc = {"kind": a.kind}
        if a.layer is not None:
            doc["layer"] = a.layer
        if a.stage is not None:
            doc["stage"] = a.stage
        if a.transfers:
            doc["transfers"] = [
                {
                    "kind": t.kind, "layer": t.layer, "lo": frac(t.lo), "hi": frac(t.hi),
                    "src": [t.src[0], t.src[1]], "dst": [t.dst[0], t.dst[1]],
                    "bytes": t.bytes,
                    **({"request": t.request, "tokens": t.tokens} if t.request else {}),
                    **({"layers": t.layers} if t.layers != 1 else {}),
                }
                for t in a.transfers
            ]
        if a.releases:
            doc["releases"] = [[inst, b] for inst, b in a.releases]
        actions.append(doc)
    return {"u_max": plan.u_max, "actions": actions, "peak_usage": dict(sorted(plan.peak_usage.items()))}

