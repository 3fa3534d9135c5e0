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
repeatedly choosing the layer minimizing the worst instance's usage.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .domain import (
    ContextInventory,
    GpuRef,
    ModelSpec,
    intersect,
    natural_key,
    required_context,
    subtract_intervals,
)
from .mapping import DeviceMapping


class MigrationError(ValueError):
    pass


@dataclass(frozen=True)
class Transfer:
    """One shard movement between two GPUs."""

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

def _cover_from_holders(piece, holders, dst: GpuRef, load: dict[str, float], unit_bytes,
                        departing: frozenset[str], send_budget: float):
    """Split an interval piece across holder GPUs.

    Senders are chosen per sub-piece: a copy on the destination's own instance
    wins (intra-instance copies are cheap); then copies on departing instances
    (they must evacuate anyway and are not serving) as long as that sender
    stays within the busiest receiver's volume, so it never becomes the
    bottleneck; then the holder instance with the fewest bytes already
    scheduled to send, so replicated shards spread across senders instead of
    draining one replica.  Deterministic throughout; raises when some
    sub-piece has no live copy.
    """
    out = []
    worklist = [piece]
    while worklist:
        seg = worklist.pop()
        start = seg[0]
        best = None
        for gpu, intervals in holders:
            if gpu == dst:
                continue
            for lo, hi in intervals:
                if lo <= start < hi:
                    end = min(hi, seg[1])
                    remote = gpu[0] != dst[0]
                    cur = load.get(gpu[0], 0.0)
                    prefer_departing = (
                        gpu[0] in departing
                        and cur + float((end - start) * unit_bytes) <= send_budget + 1e-6
                    )
                    key = (int(remote), int(not prefer_departing),
                           cur if remote else 0.0,
                           natural_key(gpu[0]), gpu[1], -float(end))
                    if best is None or key < best[0]:
                        best = (key, gpu, end)
        if best is None:
            raise MigrationError(
                f"no source holds required shard [{start},{seg[1]}): layout inconsistent with mapping")
        _, gpu, end = best
        out.append((gpu, start, end))
        if gpu[0] != dst[0]:
            load[gpu[0]] = load.get(gpu[0], 0.0) + float((end - start) * unit_bytes)
        if end < seg[1]:
            worklist.append((end, seg[1]))
    return out


def _sorted_gpus(old_layout: dict[GpuRef, ContextInventory]) -> list[GpuRef]:
    return sorted(old_layout, key=lambda g: (natural_key(g[0]), g[1]))


def derive_transfers(mapping: DeviceMapping, old_layout: dict[GpuRef, ContextInventory],
                     model: ModelSpec,
                     inherited_by_pipeline: dict[int, list[tuple[str, int]]] | None = None,
                     departing: frozenset[str] = frozenset()):
    """Per-layer model transfers, cache transfers, and end-of-round releases.

    For every assigned GPU the non-reused part of its required context is
    pulled from old holders (departing copies first, then load-balanced);
    whatever a GPU holds beyond its own new requirement is freed once the
    owning round completes.
    """
    if mapping.config is None:
        raise MigrationError("mapping carries no target config")
    target = mapping.config
    gpus = _sorted_gpus(old_layout)

    model_holders: dict[int, list[tuple[GpuRef, list]]] = {}
    cache_holders: dict[tuple[str, int], list[tuple[GpuRef, list]]] = {}
    for gpu in gpus:
        inv = old_layout[gpu]
        for layer, lo, hi in inv.model_shards:
            model_holders.setdefault(layer, []).append((gpu, [(lo, hi)]))
        for rid, layer, lo, hi, tokens in inv.cache_shards:
            cache_holders.setdefault((rid, layer), []).append((gpu, [((lo, hi), tokens)]))

    required: dict[GpuRef, ContextInventory] = {}
    for gpu in gpus:
        pos = mapping.assignment.get(gpu)
        if pos is None:
            required[gpu] = ContextInventory.empty()
        else:
            inherited = (inherited_by_pipeline or {}).get(pos.pipeline, ())
            required[gpu] = required_context(target, pos, model, inherited)

    # One pass to size every receiver's incoming volume: the busiest receiver
    # link bounds the migration makespan no matter how sources are picked, so
    # the source chooser can favor departing copies up to that same volume
    # without making a departing sender the bottleneck.
    per_token = model.kv_bytes_per_token_per_layer
    needs: list[tuple] = []  # (dst, kind, layer, piece, unit_bytes, rid, tokens)
    incoming: dict[str, float] = {}
    for gpu in gpus:
        need = required[gpu]
        have = old_layout[gpu]
        for layer, lo, hi in need.model_shards:
            for piece in subtract_intervals((lo, hi), have.model_intervals(layer)):
                needs.append((gpu, "model", layer, piece, model.bytes_per_layer, None, 0))
                incoming[gpu[0]] = incoming.get(gpu[0], 0.0) + float(
                    (piece[1] - piece[0]) * model.bytes_per_layer)
        for rid, layer, lo, hi, tokens in need.cache_shards:
            own = [iv for iv, t in have.cache_entries(rid, layer) if t >= tokens]
            for piece in subtract_intervals((lo, hi), own):
                needs.append((gpu, "cache", layer, piece, per_token * tokens, rid, tokens))
                incoming[gpu[0]] = incoming.get(gpu[0], 0.0) + float(
                    (piece[1] - piece[0]) * per_token * tokens)
    send_budget = max(incoming.values(), default=0.0)

    model_transfers: dict[int, list[Transfer]] = {}
    cache_transfers: list[Transfer] = []
    sender_load: dict[str, float] = {}
    for dst, kind, layer, piece, unit_bytes, rid, tokens in needs:
        if kind == "model":
            holders = model_holders.get(layer, [])
        else:
            holders = [
                (g, [iv for iv, t in entries if t >= tokens])
                for g, entries in cache_holders.get((rid, layer), [])
            ]
        covers = _cover_from_holders(piece, holders, dst, sender_load, unit_bytes,
                                     departing, send_budget)
        for src, c_lo, c_hi in covers:
            tr = Transfer(
                kind=kind, layer=layer, lo=c_lo, hi=c_hi, src=src, dst=dst,
                bytes=float((c_hi - c_lo) * unit_bytes),
                request=rid, tokens=tokens,
            )
            if kind == "model":
                model_transfers.setdefault(layer, []).append(tr)
            else:
                cache_transfers.append(tr)

    layer_releases: dict[int, dict[str, float]] = {}
    cache_releases: dict[str, float] = {}
    for gpu in gpus:
        inst = gpu[0]
        have = old_layout[gpu]
        need = required[gpu]
        for layer, lo, hi in have.model_shards:
            kept = Fraction(0)
            for n_lo, n_hi in need.model_intervals(layer):
                kept += intersect((lo, hi), (n_lo, n_hi))
            extra = float(((hi - lo) - kept) * model.bytes_per_layer)
            if extra > 0:
                rel = layer_releases.setdefault(layer, {})
                rel[inst] = rel.get(inst, 0.0) + extra
        for rid, layer, lo, hi, tokens in have.cache_shards:
            held = (hi - lo) * tokens
            kept = Fraction(0)
            for (n_lo, n_hi), n_tokens in need.cache_entries(rid, layer):
                kept += intersect((lo, hi), (n_lo, n_hi)) * min(tokens, n_tokens)
            extra = float((held - kept) * model.kv_bytes_per_token_per_layer)
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

    Round order: all-layer cache first, then layers in memopt order; a
    start_stage marker follows the round that completes each stage's context
    (stages needing nothing start up front).
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

    def assemble(layer_order: list[int]) -> MigrationPlan:
        rounds: list[MigrationAction] = []
        if cache_transfers or cache_releases:
            rounds.append(MigrationAction(
                kind="migrate_cache",
                transfers=tuple(cache_transfers),
                releases=tuple(sorted(cache_releases.items())),
            ))
        for layer in layer_order:
            transfers = tuple(model_transfers.get(layer, ()))
            releases = tuple(sorted(layer_releases.get(layer, {}).items()))
            if transfers or releases:
                rounds.append(MigrationAction(
                    kind="migrate_layer", transfers=transfers, releases=releases, layer=layer))

        # a stage may serve once every round delivering context to its GPUs is done
        stage_gpus: dict[int, set] = {p: set() for p in range(1, target.pipeline_stages + 1)}
        for gpu, pos in mapping.assignment.items():
            stage_gpus[pos.stage].add(gpu)
        ready_after = {p: -1 for p in stage_gpus}
        for idx, action in enumerate(rounds):
            for t in action.transfers:
                for p, members in stage_gpus.items():
                    if t.dst in members:
                        ready_after[p] = max(ready_after[p], idx)

        final: list[MigrationAction] = []
        for p in sorted(ready_after):
            if ready_after[p] < 0:
                final.append(MigrationAction(kind="start_stage", stage=p))
        for idx, action in enumerate(rounds):
            final.append(action)
            for p in sorted(ready_after):
                if ready_after[p] == idx:
                    final.append(MigrationAction(kind="start_stage", stage=p))
        plan = MigrationPlan(actions=final, u_max=u_max)
        plan.peak_usage = simulate_buffer_usage(plan, old_layout)
        return plan

    plan = assemble(order)
    index_order = sorted(traffic)
    if order != index_order:
        # the cache round shifts the starting baseline the layer-order pass
        # cannot see; never ship an order that replays worse than naive
        naive = assemble(index_order)
        if max(naive.peak_usage.values(), default=0.0) < max(plan.peak_usage.values(), default=0.0):
            return naive
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
