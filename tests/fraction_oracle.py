"""Per-layer `Fraction` geometry: the reference the integer-grid code must match.

`spotsim.domain.ContextInventory` holds rectangles on an integer grid, and
the mapper and the planner work on the same rectangles as int64 rows.  Here
is the per-layer form of an inventory: one `(layer, lo, hi)` Fraction tuple
per layer, plus one `(request, layer, lo, hi, tokens)` per request per layer
for KV cache.  `inventory` builds a grid inventory from that form, and
`model_shards`, `cache_shards` and `model_bytes` read it back; tests build
their hand-made inventories with these helpers.  The algorithms below are
the original ones over the per-layer form.  They are slow but obviously
exact, so tests compare the grid implementation in `spotsim.domain`,
`spotsim.mapping` and `spotsim.migration` against them value for value.

Storage rule: remote storage (`STORAGE`) holds every model piece.  A model
sub-piece that no live copy holds at its start is sent by `STORAGE` up to the
lowest bound of a live copy above that start; a cache sub-piece with no live
copy raises `MigrationError`.

Sender rule: model and cache pieces are covered by one rule.  Each
receiver's per-layer needs of one request (model context is request None's,
with one token) are grouped into layer runs, consecutive layers with equal
needed entries, equal own entries and equal holders of the request
(`layer_runs`), and each piece of a run is covered once, at its bytes per
layer times the run's length.  A model cover is emitted as one transfer per
layer of the run, with that layer's bytes; a cache cover is one transfer
over the whole run.  Model pieces are covered first, under a sender load
and a send budget (the busiest receiver's model bytes) of model pieces
alone.  Cache pieces follow.  Their sender load starts from each sender's
bytes over the model transfers, summed layer by layer, and their budget is
the busiest receiver's bytes over the model transfers plus its cache bytes.
"""

import math
from fractions import Fraction

from spotsim.domain import STORAGE, ContextInventory, DomainError, natural_key, required_context
from spotsim.migration import MigrationError, Transfer

Interval = tuple[Fraction, Fraction]
ModelShard = tuple[int, Fraction, Fraction]  # (layer, lo, hi)
CacheShard = tuple[str, int, Fraction, Fraction, int]  # (request, layer, lo, hi, tokens)


def _check_interval(lo: Fraction, hi: Fraction):
    if not (0 <= lo < hi <= 1):
        raise DomainError(f"interval [{lo},{hi}) must be non-empty inside [0,1)")


def _merged_runs(by_layer: dict[int, list]) -> list:
    """Rectangles of a per-layer entry map: maximal runs of consecutive layers
    with equal entry lists, each entry once per run, in per-layer order."""
    runs: list[list] = []
    for layer in sorted(by_layer):
        entries = by_layer[layer]
        if runs and runs[-1][1] == layer and runs[-1][2] == entries:
            runs[-1][1] = layer + 1
        else:
            runs.append([layer, layer + 1, entries])
    return [(l0, l1, *entry) for l0, l1, entries in runs for entry in entries]


def layer_blocks(rects) -> list[tuple[int, int, list[tuple]]]:
    """Rectangles grouped by layer block: `(first, end, [(lo, hi, ...), ...])`."""
    blocks: list[tuple[int, int, list[tuple]]] = []
    for l0, l1, *entry in rects:
        if not blocks or blocks[-1][:2] != (l0, l1):
            blocks.append((l0, l1, []))
        blocks[-1][2].append(tuple(entry))
    return blocks


def inventory(model_shards=(), cache_shards=()) -> ContextInventory:
    """The grid inventory of per-layer shards: `(layer, lo, hi)` model shards
    and `(request, layer, lo, hi, tokens)` cache shards with Fraction bounds,
    on the lcm grid of their denominators, adjacent layers with equal
    intervals merged into one rectangle."""
    model_shards, cache_shards = tuple(model_shards), tuple(cache_shards)
    for _, lo, hi in model_shards:
        _check_interval(lo, hi)
    for _, _, lo, hi, tokens in cache_shards:
        _check_interval(lo, hi)
        if tokens < 0:
            raise DomainError("cache tokens must be >= 0")
    den = math.lcm(*(Fraction(x).denominator for s in model_shards for x in s[1:]),
                   *(Fraction(x).denominator for s in cache_shards for x in s[2:4]))
    by_layer: dict[str | None, dict[int, list]] = {}
    for rid, layer, lo, hi, tokens in (*((None, *s, 1) for s in model_shards), *cache_shards):
        by_layer.setdefault(rid, {}).setdefault(layer, []).append(
            (int(lo * den), int(hi * den), tokens))
    return ContextInventory(den, {rid: tuple(_merged_runs(layers))
                                  for rid, layers in by_layer.items()})


def model_shards(inv: ContextInventory) -> tuple[ModelShard, ...]:
    """Per-layer form of the model rectangles, layer by layer."""
    den = inv.den
    return tuple((layer, Fraction(lo, den), Fraction(hi, den))
                 for l0, l1, entries in layer_blocks(inv.rects.get(None, ()))
                 for layer in range(l0, l1) for lo, hi, _ in entries)


def cache_shards(inv: ContextInventory) -> tuple[CacheShard, ...]:
    """Per-layer form of the cache rectangles, request by request, then layer."""
    den = inv.den
    return tuple((rid, layer, Fraction(lo, den), Fraction(hi, den), tokens)
                 for rid, rects in inv.rects.items() if rid is not None
                 for l0, l1, entries in layer_blocks(rects)
                 for layer in range(l0, l1) for lo, hi, tokens in entries)


def model_bytes(inv: ContextInventory, model) -> float:
    """Bytes of model context `inv` holds, summed over the per-layer shards."""
    return float(sum(((hi - lo) * model.bytes_per_layer for _, lo, hi in model_shards(inv)),
                     Fraction(0)))


def intersect(a: Interval, b: Interval) -> Fraction:
    """Length of the intersection of two half-open intervals."""
    lo = max(a[0], b[0])
    hi = min(a[1], b[1])
    return hi - lo if hi > lo else Fraction(0)


def subtract_intervals(base: Interval, cuts: list[Interval]) -> list[Interval]:
    """base minus the union of cuts, as a sorted list of disjoint intervals."""
    pieces = [base]
    for c_lo, c_hi in sorted(cuts):
        nxt = []
        for lo, hi in pieces:
            if c_hi <= lo or c_lo >= hi:
                nxt.append((lo, hi))
                continue
            if lo < c_lo:
                nxt.append((lo, c_lo))
            if c_hi < hi:
                nxt.append((c_hi, hi))
        pieces = nxt
    return pieces


def entries(inv: ContextInventory, request_id: str | None, layer: int) -> list[tuple[Interval, int]]:
    """The `((lo, hi), tokens)` entries of one request on one layer; model
    context is request None's, with one token."""
    if request_id is None:
        return [((lo, hi), 1) for lyr, lo, hi in model_shards(inv) if lyr == layer]
    return [((lo, hi), tokens) for rid, lyr, lo, hi, tokens in cache_shards(inv)
            if rid == request_id and lyr == layer]


def overlap_bytes(a: ContextInventory, b: ContextInventory, model) -> float:
    """Bytes of context shared by two inventories, per layer and per request."""
    total = Fraction(0)
    b_by_layer: dict[int, list[Interval]] = {}
    for lyr, lo, hi in model_shards(b):
        b_by_layer.setdefault(lyr, []).append((lo, hi))
    for lyr, lo, hi in model_shards(a):
        for other in b_by_layer.get(lyr, ()):
            total += intersect((lo, hi), other) * model.bytes_per_layer

    b_cache: dict[tuple[str, int], list[tuple[Interval, int]]] = {}
    for rid, lyr, lo, hi, tokens in cache_shards(b):
        b_cache.setdefault((rid, lyr), []).append(((lo, hi), tokens))
    for rid, lyr, lo, hi, tokens in cache_shards(a):
        for other_iv, other_tokens in b_cache.get((rid, lyr), ()):
            weight = min(tokens, other_tokens) * model.kv_bytes_per_token_per_layer
            total += intersect((lo, hi), other_iv) * weight
    return float(total)


def _cover_from_holders(piece, holders, dst, load, unit_bytes, departing, send_budget, stored):
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
            if not stored:
                raise MigrationError(
                    f"no source holds required shard [{start},{seg[1]}): "
                    "layout inconsistent with mapping")
            above = [lo for _, intervals in holders for lo, _ in intervals if start < lo < seg[1]]
            best = (None, STORAGE, min(above, default=seg[1]))
        _, gpu, end = best
        out.append((gpu, start, end))
        if gpu != STORAGE and gpu[0] != dst[0]:
            load[gpu[0]] = load.get(gpu[0], 0.0) + float((end - start) * unit_bytes)
        if end < seg[1]:
            worklist.append((end, seg[1]))
    return out


def layer_runs(needs: list[tuple]) -> list[list]:
    """Per-layer needs `(dst, request, layer, pieces, key)`, in receiver,
    request, then layer order, grouped into layer runs: consecutive layers
    of one receiver and request with equal keys, as `[dst, request, first
    layer, layer count, pieces]`."""
    runs: list[list] = []
    for dst, rid, layer, pieces, key in needs:
        last = runs[-1] if runs else None
        if last and (last[0], last[1], last[2] + last[3], last[5]) == (dst, rid, layer, key):
            last[3] += 1
        else:
            runs.append([dst, rid, layer, 1, pieces, key])
    return [run[:5] for run in runs]


def derive_transfers(mapping, old_layout, model, inherited_by_pipeline=None,
                     departing=frozenset()):
    """Model transfers per layer, cache transfers per layer run, and
    end-of-round releases."""
    if mapping.config is None:
        raise MigrationError("mapping carries no target config")
    target = mapping.config
    gpus = sorted(old_layout, key=lambda g: (natural_key(g[0]), g[1]))

    holders: dict[tuple[str | None, int], list] = {}  # (request, layer) -> [(gpu, entries)]
    for gpu in gpus:
        inv = old_layout[gpu]
        for layer, lo, hi in model_shards(inv):
            holders.setdefault((None, layer), []).append((gpu, [((lo, hi), 1)]))
        for rid, layer, lo, hi, tokens in cache_shards(inv):
            holders.setdefault((rid, layer), []).append((gpu, [((lo, hi), tokens)]))

    required: dict = {}
    for gpu in gpus:
        pos = mapping.assignment.get(gpu)
        if pos is None:
            required[gpu] = ContextInventory.empty()
        else:
            inherited = (inherited_by_pipeline or {}).get(pos.pipeline, ())
            required[gpu] = required_context(target, pos, model, inherited)

    # per-layer needs, model (request None) and cache alike: (dst, request,
    # layer, [(piece, tokens)], run key), and each instance's incoming bytes
    def unit_bytes(rid):
        return model.bytes_per_layer if rid is None else model.kv_bytes_per_token_per_layer

    needs: dict[bool, list[tuple]] = {True: [], False: []}  # by "is model"
    incoming: dict[bool, dict[str, float]] = {True: {}, False: {}}
    for gpu in gpus:
        need = required[gpu]
        have = old_layout[gpu]
        for rid, layer in dict.fromkeys([*((None, layer) for layer, *_ in model_shards(need)),
                                         *((rid, layer) for rid, layer, *_ in cache_shards(need))]):
            pieces = [(piece, tokens) for iv, tokens in entries(need, rid, layer)
                      for piece in subtract_intervals(
                          iv, [own for own, t in entries(have, rid, layer) if t >= tokens])]
            into = incoming[rid is None]
            for (p_lo, p_hi), tokens in pieces:
                into[gpu[0]] = into.get(gpu[0], 0.0) + float(
                    (p_hi - p_lo) * unit_bytes(rid) * tokens)
            if pieces:
                key = (entries(need, rid, layer), entries(have, rid, layer),
                       holders.get((rid, layer), []))
                needs[rid is None].append((gpu, rid, layer, pieces, key))

    def cover(runs, load, send_budget, stored):
        """Each piece of each run covered once over the run, at its unit
        bytes times the run's length: `(run, tokens, sender, lo, hi)`."""
        for run in runs:
            dst, rid, first, count, pieces = run
            for piece, tokens in pieces:
                run_holders = [(g, [iv for iv, t in held if t >= tokens])
                               for g, held in holders.get((rid, first), [])]
                for src, c_lo, c_hi in _cover_from_holders(
                        piece, run_holders, dst, load, unit_bytes(rid) * tokens * count,
                        departing, send_budget, stored):
                    yield run, tokens, src, c_lo, c_hi

    model_transfers: dict[int, list[Transfer]] = {}
    for (dst, _, first, count, _), _, src, c_lo, c_hi in cover(
            layer_runs(needs[True]), {}, max(incoming[True].values(), default=0.0), True):
        for layer in range(first, first + count):
            model_transfers.setdefault(layer, []).append(Transfer(
                kind="model", layer=layer, lo=c_lo, hi=c_hi, src=src, dst=dst,
                bytes=float((c_hi - c_lo) * model.bytes_per_layer)))

    cache_runs = layer_runs(needs[False])
    cache_transfers: list[Transfer] = []
    sender_load: dict[str, float] = {}
    send_budget = 0.0
    if cache_runs:
        delivered: dict[str, float] = {}
        for layer in sorted(model_transfers):
            for t in model_transfers[layer]:
                if t.src[0] != t.dst[0]:
                    sender_load[t.src[0]] = sender_load.get(t.src[0], 0.0) + t.bytes
                delivered[t.dst[0]] = delivered.get(t.dst[0], 0.0) + t.bytes
        cache_in = incoming[False]
        send_budget = max(delivered.get(inst, 0.0) + cache_in.get(inst, 0.0)
                          for inst in {*delivered, *cache_in})
    for (dst, rid, first, count, _), tokens, src, c_lo, c_hi in cover(
            cache_runs, sender_load, send_budget, False):
        cache_transfers.append(Transfer(
            kind="cache", layer=first, lo=c_lo, hi=c_hi, src=src, dst=dst,
            bytes=float((c_hi - c_lo) * unit_bytes(rid) * tokens * count), request=rid,
            tokens=tokens, layers=count))

    layer_releases: dict[int, dict[str, float]] = {}
    cache_releases: dict[str, float] = {}
    for gpu in gpus:
        inst = gpu[0]
        have = old_layout[gpu]
        need = required[gpu]
        for layer, lo, hi in model_shards(have):
            kept = Fraction(0)
            for n_iv, _ in entries(need, None, layer):
                kept += intersect((lo, hi), n_iv)
            extra = float(((hi - lo) - kept) * model.bytes_per_layer)
            if extra > 0:
                rel = layer_releases.setdefault(layer, {})
                rel[inst] = rel.get(inst, 0.0) + extra
        for rid, layer, lo, hi, tokens in cache_shards(have):
            held = (hi - lo) * tokens
            kept = Fraction(0)
            for n_iv, n_tokens in entries(need, rid, layer):
                kept += intersect((lo, hi), n_iv) * min(tokens, n_tokens)
            extra = float((held - kept) * model.kv_bytes_per_token_per_layer)
            if extra > 0:
                cache_releases[inst] = cache_releases.get(inst, 0.0) + extra

    return model_transfers, cache_transfers, layer_releases, cache_releases
