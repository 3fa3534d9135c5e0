"""Progressive, buffer-bounded migration planning.

A plan moves whatever context the device mapping could not reuse: one round
of KV-cache transfers first (losing cache is what destroys decoding progress,
so it goes before everything), then model layers one round per layer in a
memory-optimized order, with a stage-start marker emitted as soon as a stage's
full context is in place so front stages resume serving while later stages are
still migrating.

Buffer accounting is per instance, as a net byte delta from the moment the
migration starts: receivers are charged when a round begins and every
superseded old copy of the round's context (sent or merely bystanding) is
credited back when the round completes.  The layer order first admits layers
in index order while the cap U_max holds, then places the deferred rest by
repeatedly choosing the layer minimizing the worst instance's usage.  The
plain index order stays the fallback twice: once inside the ordering, and
once when the whole plan, cache round included, is replayed for each order
and the index order peaks lower.  Stage-start markers are placed once, on
the rounds of the order that wins.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .domain import (
    ContextInventory,
    GpuRef,
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
    """One shard movement between two GPUs.

    An immutable record like the dataclasses here, but a named tuple: a plan
    emits one per layer piece, tens of thousands per decision on a large
    fleet, and a tuple is built about three times faster than a frozen
    dataclass.
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

def _peak_if_applied(usage: dict[str, float], traffic: LayerTraffic) -> float:
    """Worst instance usage while the layer is in flight (charged, not yet freed)."""
    peak = max(usage.values(), default=0.0)
    for inst, b in traffic.incoming.items():
        peak = max(peak, usage.get(inst, 0.0) + b)
    return peak


def _apply(usage: dict[str, float], traffic: LayerTraffic):
    for inst, b in traffic.incoming.items():
        usage[inst] = usage.get(inst, 0.0) + b
    for inst, b in traffic.freed.items():
        usage[inst] = usage.get(inst, 0.0) - b


def _order_peak(order: list[int], traffic_by_layer: dict[int, LayerTraffic]) -> float:
    usage: dict[str, float] = {}
    peak = 0.0
    for layer in order:
        traffic = traffic_by_layer[layer]
        peak = max(peak, _peak_if_applied(usage, traffic))
        _apply(usage, traffic)
    return peak


def memopt_layer_order(traffic_by_layer: dict[int, LayerTraffic], u_max: float | None) -> list[int]:
    """Order all layers, min-maxing instance buffer usage.

    First pass admits layers in index order while no instance would exceed
    u_max mid-round; the deferred rest are appended greedily, each step taking
    the layer whose migration minimizes the worst instance's usage (ties to
    the lower layer index).  Every layer is ordered even if u_max cannot be
    met; the resulting peak is reported by the plan, not hidden.  The plain
    index order is the fallback schedule: if deferral ever reorders frees so
    badly that it peaks above the index order, the index order wins.
    """
    usage: dict[str, float] = {}
    order: list[int] = []
    deferred: list[int] = []
    for layer in sorted(traffic_by_layer):
        traffic = traffic_by_layer[layer]
        if u_max is None or _peak_if_applied(usage, traffic) <= u_max:
            _apply(usage, traffic)
            order.append(layer)
        else:
            deferred.append(layer)
    while deferred:
        best = min(deferred, key=lambda x: (_peak_if_applied(usage, traffic_by_layer[x]), x))
        _apply(usage, traffic_by_layer[best])
        order.append(best)
        deferred.remove(best)
    index_order = sorted(traffic_by_layer)
    if order != index_order and _order_peak(order, traffic_by_layer) > _order_peak(index_order, traffic_by_layer):
        return index_order
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


def _holder_index(blocks_by_gpu) -> dict[int, tuple[list, dict]]:
    """layer -> (holders, candidate memo), shared by every layer of an
    elementary block: the `(gpu, lo, hi, ...)` copies covering those layers,
    in GPU order, then in each GPU's per-layer order."""
    bounds = sorted({b for _, blocks in blocks_by_gpu for l0, l1, _ in blocks for b in (l0, l1)})
    index: dict[int, tuple[list, dict]] = {}
    for c0, c1 in zip(bounds, bounds[1:]):
        holders = [(gpu, *entry) for gpu, blocks in blocks_by_gpu
                   for l0, l1, entries in blocks if l0 <= c0 < l1 for entry in entries]
        if holders:
            shared = (holders, {})
            for layer in range(c0, c1):
                index[layer] = shared
    return index


def _cover_from_holders(lo: int, hi: int, block, tokens: int, dst: GpuRef, unit_bytes: int,
                        den: int, load: dict[str, float], rank: dict, departing: frozenset[str],
                        send_budget: float) -> list[tuple[GpuRef, int, int]]:
    """Split the grid piece [lo, hi) across the holder GPUs of its layer block.

    Senders are chosen per sub-piece: a copy on the destination's own instance
    wins (intra-instance copies are cheap); then copies on departing instances
    (they must evacuate anyway and are not serving) as long as that sender
    stays within the busiest receiver's volume, so it never becomes the
    bottleneck; then the holder instance with the fewest bytes already
    scheduled to send, so replicated shards spread across senders instead of
    draining one replica.  Deterministic throughout; raises when some
    sub-piece has no live copy.
    """
    holders, memo = block or ((), {})
    here = dst[0]
    out = []
    start = lo
    while start < hi:
        # copies holding `start` (with enough tokens, for cache), per block
        found = memo.get((start, tokens))
        if found is None:
            found = memo[(start, tokens)] = [
                (h[0], h[0][0], h[2], (rank[h[0][0]], h[0][1])) for h in holders
                if h[1] <= start < h[2] and (not tokens or h[3] >= tokens)]
        best = None
        for gpu, inst, c_hi, order in found:
            if gpu == dst:
                continue
            end = c_hi if c_hi < hi else hi
            remote = inst != here
            cur = load[inst]
            prefer_departing = (inst in departing
                                and cur + (end - start) * unit_bytes / den <= send_budget + 1e-6)
            key = (remote, not prefer_departing, cur if remote else 0.0, order, -end)
            if best is None or key < best[0]:
                best = (key, gpu, end)
        if best is None:
            raise MigrationError(
                f"no source holds required shard [{Fraction(start, den)},{Fraction(hi, den)}): "
                "layout inconsistent with mapping")
        _, gpu, end = best
        out.append((gpu, start, end))
        if gpu[0] != here:
            load[gpu[0]] += (end - start) * unit_bytes / den
        start = end
    return out


def derive_transfers(mapping: DeviceMapping, old_layout: dict[GpuRef, ContextInventory],
                     model: ModelSpec,
                     inherited_by_pipeline: dict[int, list[tuple[str, int]]] | None = None,
                     departing: frozenset[str] = frozenset()):
    """Per-layer model transfers, cache transfers, and end-of-round releases.

    For every assigned GPU the non-reused part of its required context is
    pulled from old holders (departing copies first, then load-balanced);
    whatever a GPU holds beyond its own new requirement is freed once the
    owning round completes.  Pieces are derived per layer block and expanded
    to one `Transfer` per layer only when emitted.

    Model and cache pieces share `sender_load` and `send_budget`, and a GPU's
    cache pieces are covered before the next GPU's model pieces, so the KV
    cache in `old_layout` can change which holder sends a model piece: the
    model transfers of one mapping are not independent of the cache.
    """
    if mapping.config is None:
        raise MigrationError("mapping carries no target config")
    target = mapping.config
    inherited = inherited_by_pipeline or {}
    rank = {inst: natural_key(inst) for inst in {gpu[0] for gpu in old_layout}}
    gpus = sorted(old_layout, key=lambda g: (rank[g[0]], g[1]))
    den = math.lcm(target.tensor_shards, *(inv.den for inv in old_layout.values()))

    have: dict[GpuRef, tuple] = {}  # gpu -> (model blocks, {request: cache blocks})
    need: dict[GpuRef, tuple] = {}
    for gpu in gpus:
        inv = old_layout[gpu]
        k = den // inv.den
        have[gpu] = (_scaled_blocks(inv.model, k),
                     {rid: _scaled_blocks(rects, k) for rid, rects in inv.cache.items()})
        pos = mapping.assignment.get(gpu)
        req = (ContextInventory.empty() if pos is None
               else required_context(target, pos, model, inherited.get(pos.pipeline, ())))
        k = den // req.den
        need[gpu] = (_scaled_blocks(req.model, k),
                     {rid: _scaled_blocks(rects, k) for rid, rects in req.cache.items()})

    model_holders = _holder_index([(gpu, have[gpu][0]) for gpu in gpus])
    cache_holders = {
        rid: _holder_index([(gpu, have[gpu][1][rid]) for gpu in gpus if rid in have[gpu][1]])
        for rid in {rid for gpu in gpus for rid in have[gpu][1]}}

    # One pass to size every receiver's incoming volume: the busiest receiver
    # link bounds the migration makespan no matter how sources are picked, so
    # the source chooser can favor departing copies up to that same volume
    # without making a departing sender the bottleneck.
    bpl, per_token = model.bytes_per_layer, model.kv_bytes_per_token_per_layer
    needs: list[tuple] = []  # (dst, kind, first, end, [(lo, hi, unit bytes, tokens)], rid)
    incoming: dict[str, float] = {}
    for gpu in gpus:
        held_model, held_cache = have[gpu]
        need_model, need_cache = need[gpu]
        wants = []
        for l0, l1, entries in need_model:
            wants.append(("model", None, l0, l1, held_model,
                          [(lo, hi, bpl, 0) for lo, hi in entries]))
        for rid, blocks in need_cache.items():
            for l0, l1, entries in blocks:
                wants.append(("cache", rid, l0, l1, held_cache.get(rid, ()),
                              [(lo, hi, per_token * tokens, tokens) for lo, hi, tokens in entries]))
        for kind, rid, l0, l1, held, entries in wants:
            for s0, s1, cuts in _segments(l0, l1, held):
                pieces = [(p_lo, p_hi, unit, tokens) for lo, hi, unit, tokens in entries
                          for p_lo, p_hi in uncovered(lo, hi, [c for c in cuts
                                                               if not tokens or c[2] >= tokens])]
                if not pieces:
                    continue
                needs.append((gpu, kind, s0, s1, pieces, rid))
                sizes = [(p_hi - p_lo) * unit / den for p_lo, p_hi, unit, _ in pieces]
                total = incoming.get(gpu[0], 0.0)
                for _ in range(s0, s1):
                    for size in sizes:
                        total += size
                incoming[gpu[0]] = total
    send_budget = max(incoming.values(), default=0.0)

    # every cover bound is a bound of some held or needed entry
    bounds = {n for model_blocks, cache_blocks in (*have.values(), *need.values())
              for blocks in (model_blocks, *cache_blocks.values())
              for _, _, entries in blocks for entry in entries for n in entry[:2]}
    frac = {n: Fraction(n, den) for n in bounds}

    model_transfers: dict[int, list[Transfer]] = {}
    cache_transfers: list[Transfer] = []
    sender_load = dict.fromkeys(rank, 0.0)  # bytes each instance is scheduled to send
    for dst, kind, s0, s1, pieces, rid in needs:
        index = model_holders if kind == "model" else cache_holders.get(rid, {})
        for layer in range(s0, s1):
            block = index.get(layer)
            out = model_transfers.setdefault(layer, []) if kind == "model" else cache_transfers
            for lo, hi, unit, tokens in pieces:
                for src, c_lo, c_hi in _cover_from_holders(lo, hi, block, tokens, dst, unit, den,
                                                           sender_load, rank, departing,
                                                           send_budget):
                    out.append(Transfer(kind, layer, frac[c_lo], frac[c_hi], src, dst,
                                        (c_hi - c_lo) * unit / den, rid, tokens))

    layer_releases: dict[int, dict[str, float]] = {}
    cache_releases: dict[str, float] = {}
    for gpu in gpus:
        inst = gpu[0]
        held_model, held_cache = have[gpu]
        need_model, need_cache = need[gpu]
        for l0, l1, entries in held_model:
            for s0, s1, wanted in _segments(l0, l1, need_model):
                extras = [((hi - lo) - sum(max(0, min(hi, n_hi) - max(lo, n_lo))
                                           for n_lo, n_hi in wanted)) * bpl / den
                          for lo, hi in entries]
                for layer in range(s0, s1):
                    for extra in extras:
                        if extra > 0:
                            rel = layer_releases.setdefault(layer, {})
                            rel[inst] = rel.get(inst, 0.0) + extra
        for rid, blocks in held_cache.items():
            for l0, l1, entries in blocks:
                for s0, s1, wanted in _segments(l0, l1, need_cache.get(rid, ())):
                    extras = [((hi - lo) * tokens
                               - sum(max(0, min(hi, n_hi) - max(lo, n_lo)) * min(tokens, n_tokens)
                                     for n_lo, n_hi, n_tokens in wanted)) * per_token / den
                              for lo, hi, tokens in entries]
                    for _ in range(s0, s1):
                        for extra in extras:
                            if extra > 0:
                                cache_releases[inst] = cache_releases.get(inst, 0.0) + extra

    return model_transfers, cache_transfers, layer_releases, cache_releases


# ---------------------------------------------------------------------------
# Plan assembly

def plan_migration(mapping: DeviceMapping, old_layout: dict[GpuRef, ContextInventory],
                   model: ModelSpec, u_max: float | None = None,
                   inherited_by_pipeline: dict[int, list[tuple[str, int]]] | None = None,
                   departing: frozenset[str] = frozenset()) -> MigrationPlan:
    """Build the full migration plan for a device mapping.

    Round order: all-layer cache first, then layers in memopt order, or in
    index order when that replays to a lower peak; a start_stage marker
    follows the round that completes each stage's context (stages needing
    nothing start up front).
    """
    target = mapping.config
    if target is None:
        raise MigrationError("mapping carries no target config")
    model_transfers, cache_transfers, layer_releases, cache_releases = derive_transfers(
        mapping, old_layout, model, inherited_by_pipeline, departing)

    traffic: dict[int, LayerTraffic] = {}
    for layer in range(model.num_layers):
        t = LayerTraffic()
        for tr in model_transfers.get(layer, ()):
            t.incoming[tr.dst[0]] = t.incoming.get(tr.dst[0], 0.0) + tr.bytes
        for inst, b in layer_releases.get(layer, {}).items():
            t.freed[inst] = t.freed.get(inst, 0.0) + b
        traffic[layer] = t
    order = memopt_layer_order(traffic, u_max)

    cache_round = [MigrationAction(
        kind="migrate_cache", transfers=tuple(cache_transfers),
        releases=tuple(sorted(cache_releases.items())),
    )] if cache_transfers or cache_releases else []

    def replayed(layer_order: list[int]) -> MigrationPlan:
        plan = MigrationPlan(actions=cache_round + [
            MigrationAction(kind="migrate_layer", transfers=tuple(model_transfers.get(layer, ())),
                            releases=tuple(sorted(layer_releases.get(layer, {}).items())),
                            layer=layer)
            for layer in layer_order if model_transfers.get(layer) or layer_releases.get(layer)
        ], u_max=u_max)
        plan.peak_usage = simulate_buffer_usage(plan, old_layout)
        return plan

    plan = replayed(order)
    index_order = sorted(traffic)
    if order != index_order:
        # the cache round shifts the starting baseline the layer-order pass
        # cannot see; never ship an order that replays worse than naive
        naive = replayed(index_order)
        if max(naive.peak_usage.values(), default=0.0) < max(plan.peak_usage.values(), default=0.0):
            plan = naive

    # a stage may serve once every round delivering context to its GPUs is done
    stage_of = {gpu: pos.stage for gpu, pos in mapping.assignment.items()}
    last_round = dict.fromkeys(range(1, target.pipeline_stages + 1), -1)
    for idx, action in enumerate(plan.actions):
        for t in action.transfers:
            last_round[stage_of[t.dst]] = idx
    starts: dict[int, list[MigrationAction]] = {}
    for p, idx in last_round.items():
        starts.setdefault(idx, []).append(MigrationAction(kind="start_stage", stage=p))
    actions = starts.get(-1, [])
    for idx, action in enumerate(plan.actions):
        actions.append(action)
        actions.extend(starts.get(idx, ()))
    plan.actions = actions
    return plan


def simulate_buffer_usage(plan: MigrationPlan, old_layout: dict[GpuRef, ContextInventory]) -> dict[str, float]:
    """Replay a plan's buffer deltas; per-instance peak bytes over the run."""
    usage: dict[str, float] = {}
    for gpu in old_layout:
        usage.setdefault(gpu[0], 0.0)
    peaks = dict(usage)
    for action in plan.actions:
        for tr in action.transfers:
            inst = tr.dst[0]
            usage[inst] = usage.get(inst, 0.0) + tr.bytes
        for inst in sorted({t.dst[0] for t in action.transfers}):
            peaks[inst] = max(peaks.get(inst, 0.0), usage[inst])
        for inst, b in action.releases:
            usage[inst] = usage.get(inst, 0.0) - b
    return peaks


# ---------------------------------------------------------------------------
# JSON wire format

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
                }
                for t in a.transfers
            ]
        if a.releases:
            doc["releases"] = [[inst, b] for inst, b in a.releases]
        actions.append(doc)
    return {"u_max": plan.u_max, "actions": actions, "peak_usage": dict(sorted(plan.peak_usage.items()))}


def plan_from_dict(doc: dict) -> MigrationPlan:
    actions = []
    for a in doc["actions"]:
        transfers = tuple(
            Transfer(
                kind=t["kind"], layer=t["layer"],
                lo=Fraction(*t["lo"]), hi=Fraction(*t["hi"]),
                src=(t["src"][0], t["src"][1]), dst=(t["dst"][0], t["dst"][1]),
                bytes=t["bytes"], request=t.get("request"), tokens=t.get("tokens", 0),
            )
            for t in a.get("transfers", ())
        )
        releases = tuple((inst, b) for inst, b in a.get("releases", ()))
        actions.append(MigrationAction(
            kind=a["kind"], transfers=transfers, releases=releases,
            layer=a.get("layer"), stage=a.get("stage"),
        ))
    plan = MigrationPlan(actions=actions, u_max=doc.get("u_max"))
    plan.peak_usage = dict(doc.get("peak_usage", {}))
    return plan
