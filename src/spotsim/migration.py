"""Progressive, buffer-bounded migration planning.

A plan moves whatever context the device mapping could not reuse.  Model
context is treated as the KV cache of request None with one token, so model
and cache pieces are derived in the same passes.  Remote storage (`STORAGE`)
sends the model pieces no live GPU holds.  KV cache has no such holder: a
cache piece without a live copy raises `MigrationError`.  Planning has two
steps.
`derive_transfers` decides what moves over one layout, and the end-of-round
releases.  It reads the holdings and the needs as integer rectangle rows
and finds the missing pieces, the receivers' incoming bytes and the
releases with array passes.  One rule covers both kinds of context: each
piece once over its layer run, the layers over which its receiver's copy
and its request's holders stay the same.  A piece whose live copies tile
it has no choice of sender: each sub-piece comes from the one copy that
holds it, and an array join finds those.  In the engine's layouts every
KV-cache piece is one, since a request's cache lives on one pipeline, one
GPU per (stage, shard).
Each real choice (a model piece that replicas hold, or one that storage
sends) depends on the load the sub-pieces before it left, so only that
loop is Python.  The cover writes grid-integer columns, a cache sub-piece
as one transfer over its run, a model one as one per layer.
Model senders are chosen without regard to the cache, so a commit derives
the model part once: its cache-free derivation carries what depends only on
the mapping and the GPUs, the model columns among it, and each plan that
carries cache builds only its cache rows on top of it.
`plan_migration` assembles a given derivation into rounds: one round of
KV-cache transfers first (losing cache is what destroys decoding progress,
so it goes before everything), then model layers one round per layer in a
memory-optimized order, with a stage-start marker emitted as soon as a stage's
full context is in place so front stages resume serving while later stages are
still migrating.  The derivation does not depend on the buffer cap, so one
derivation can be assembled under several caps.  A commit assembles one
plan: the arranger's grace estimate reads only a derivation's per-port byte
totals (`Derivation.port_loads`).

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
A round has one form, the `MigrationAction`, built once per derivation by
one array pass over its columns: its slice of the columns, the bytes each
port carries (`sent` and `received`, all that `costmodel` prices), each
receiver's bytes and its releases.  The model rounds are built once per
cache-free derivation, and every plan, estimate and participants set of a
commit holds those same objects; a run of consecutive layers that move and
free alike is summed once, and its rounds share those sums.  Both orders
are replayed from the columns' receivers and bytes as per-instance running
sums, and the stage-start markers are placed from the receivers' stages in
the order that wins.
`Transfer` records are output only, built in one place (`_expand`): a round
expands its slice of the columns into records when asked
(`MigrationAction.transfers`, `MigrationPlan.transfers()`,
`Derivation.records()`).  Nothing in derivation, assembly or pricing reads
a record, and no round is built from records.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .domain import STORAGE, GpuRef, Layout, ModelSpec, exact_bytes
from .mapping import DeviceMapping, _ragged, position_rows, slot_table


class MigrationError(ValueError):
    pass


class Transfer(NamedTuple):
    """One shard movement between two GPUs, over the layers
    [layer, layer + layers): an output record.

    A model transfer covers one layer.  A cache transfer covers a layer run
    of one request, and `bytes` counts every layer of it.  Derivations and
    plans keep their transfers as grid-integer columns; a record is built
    only when output or a check asks for one (`_expand`).
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


class MigrationAction:
    """One plan round: a batch of concurrent transfers plus end-of-round frees.

    `sent` and `received` are the bytes each instance's out-port and in-port
    carry in the round, as (instance, bytes) pairs, and `incoming` each
    receiving instance's bytes, same-instance copies included
    (`_round_sums`); `costmodel` times plans from `sent` and `received`
    alone.  `span` is the round's slice `(moves, a, z)` of its derivation's
    columns, and `transfers` expands it into records on each read.  A
    derivation builds its rounds once (`_Common.rounds`), and every plan
    assembled from it holds those same objects; a stage-start marker carries
    only its stage.
    """

    __slots__ = ("kind", "releases", "layer", "stage", "sent", "received", "incoming", "span")

    def __init__(self, kind: str,
                 releases: tuple[tuple[str, float], ...] = (),  # (instance, bytes freed)
                 layer: int | None = None, stage: int | None = None,
                 sent: tuple[tuple[str, float], ...] = (),
                 received: tuple[tuple[str, float], ...] = (),
                 incoming: dict[str, float] | None = None,
                 span: tuple["_Moves", int, int] | None = None):
        self.kind, self.releases, self.layer, self.stage = kind, releases, layer, stage
        self.sent, self.received, self.incoming, self.span = sent, received, incoming, span

    @property
    def transfers(self) -> tuple[Transfer, ...]:
        return () if self.span is None else tuple(_expand(*self.span))

    def _fields(self) -> tuple:
        return self.kind, self.transfers, self.releases, self.layer, self.stage

    def __eq__(self, other):
        if not isinstance(other, MigrationAction):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return "MigrationAction(kind={!r}, transfers={!r}, releases={!r}, layer={!r}, stage={!r})" \
            .format(*self._fields())


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
    incoming traffic, not one per deferred layer.  For the same reason the
    first pass defers a layer unevaluated when the layer just before it was
    deferred with equal incoming traffic: usage has not changed since, so
    its peak is that layer's.  With no cap the order is the index order,
    and no usage is kept.
    Every layer is ordered even if u_max cannot be met; the resulting peak is
    reported by the plan, not hidden.  No comparison with the index order is
    made here: `plan_migration` replays both orders and keeps the lower.
    """
    if u_max is None:
        return sorted(traffic_by_layer)
    usage: dict[str, float] = {}
    order: list[int] = []
    deferred: dict[frozenset, list[int]] = {}  # incoming traffic -> its deferred layers
    last = None  # the incoming traffic and class of the layer before, if it was deferred
    for layer in sorted(traffic_by_layer):
        traffic = traffic_by_layer[layer]
        if last is not None and traffic.incoming == last[0]:
            # usage has not changed since that layer peaked over u_max
            last[1].append(layer)
            continue
        # the worst usage while the layer is in flight
        peak = max(usage.values(), default=0.0)
        for inst, b in traffic.incoming.items():
            v = usage.get(inst, 0.0) + b
            if v > peak:
                peak = v
        if not peak <= u_max:
            last = traffic.incoming, deferred.setdefault(frozenset(traffic.incoming.items()), [])
            last[1].append(layer)
            continue
        last = None
        _apply(usage, traffic)
        order.append(layer)
    # each class as (its incoming items, its layers with the lowest last)
    classes = [(tuple(incoming), layers[::-1]) for incoming, layers in deferred.items()]
    while classes:
        floor = max(usage.values(), default=0.0)
        best = best_key = None
        for cls in classes:
            peak = floor
            for inst, b in cls[0]:
                v = usage.get(inst, 0.0) + b
                if v > peak:
                    peak = v
            key = (peak, cls[1][-1])
            if best is None or key < best_key:
                best, best_key = cls, key
        layers = best[1]
        layer = layers.pop()
        traffic = traffic_by_layer[layer]
        _apply(usage, traffic)
        order.append(layer)
        if not layers:
            classes = [cls for cls in classes if cls[1]]
    return order


# ---------------------------------------------------------------------------
# Transfer derivation
#
# A derivation works on int64 rows (gpu, request, first, end, lo, hi, tokens)
# on one integer grid, the rows the mapper scores: held rows are the old
# `Layout`'s own, need rows come from the assigned positions
# (`mapping.position_rows`, the rectangles `required_context` would give).
# Every bound is a numerator over the lcm `den` of the layout's grid and the
# target's shard count, `gpu` indexes the layout's GPUs, and `request` is the
# layout's code, extended to the inherited requests it does not hold; model
# context is code 0, request None's with one token, and is derived apart
# from the KV cache.
# Array passes over the rows cut each need row into runs at the layer bounds
# of its request's holders, subtract what the receiver already holds, index
# the holders of each run's layer block, and find what each GPU holds beyond
# its need.
# A byte count is `domain.exact_bytes` of its grid units, the exact value
# `units * unit_bytes / den` rounded once, the rule the mapper weighs its
# cells by; covering divides one sub-piece's units as Python ints, which
# gives the same float.  A float that sums several of them (a receiver's
# incoming bytes, a release) is summed by `np.add.at`, which adds its terms
# one at a time in array order, never pairwise; the terms are laid out layer
# by layer in the order of a loop over receivers (or held blocks), layers and
# pieces, so each sum is the float that loop gives.
# Covering is a Python loop only over the pieces with a choice of sender:
# which holder sends such a piece depends on the bytes each sender has been
# given so far, so each choice depends on the ones before it.  It appends
# each choice to a flat list, which becomes transfer columns (`_Moves`) in
# one conversion, merged in cover order with the forced sub-pieces the array
# join gave.

_G, _R, _F, _E, _LO, _HI, _T = range(7)  # row columns
_LAYER, _SRC, _DST = 0, 1, 4  # transfer columns: layer, src, lo, hi, dst[, request, tokens, layers]
_PUT = 6  # values the cover appends per sub-piece: piece, layer, src, lo, hi, bytes


def _starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal consecutive keys starts."""
    new = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return new.nonzero()[0]


def _lengths(starts: np.ndarray, n: int) -> np.ndarray:
    """The lengths of the runs of n elements that start at `starts`."""
    return np.concatenate((starts[1:], [n])) - starts


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct keys, ascending; sorts `keys` in place."""
    keys.sort()
    return keys[_starts(keys)]


def _matches(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) with left[i] == right[j], by i, then j."""
    order = right.argsort(kind="stable")
    keys = right[order]
    start = keys.searchsorted(left, "left")
    i, k = _ragged(keys.searchsorted(left, "right") - start)
    return i, order[start[i] + k]


def _sums(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and for each the sum of its values added
    one at a time from 0.0 in array order, as a Python loop adds them:
    `ufunc.at` applies the additions index by index."""
    totals = np.zeros(keys.max(initial=-1) + 1)
    np.add.at(totals, keys, values)
    present = np.bincount(keys, minlength=len(totals)).nonzero()[0]
    return present, totals[present]


def _tiled(layers: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms of units that repeat `counts[u]` values on each of their
    `layers[u]` layers, in loop order: each term's unit, layer offset and
    value offset."""
    unit, layer = _ragged(layers)
    if counts.max(initial=1) == 1:
        return unit, layer, np.zeros_like(layer)
    step, at = _ragged(counts[unit])
    return unit[step], layer[step], at


class _Moves:
    """Transfers of one kind as grid-integer columns, in the order their
    rounds keep them: int64 `cols` (layer, sender GPU index or -1 for
    `STORAGE`, lo, hi, receiver GPU index, and for KV cache also request
    code, tokens and layer count) and float64 `size`, each transfer's bytes.
    GPU indices index `gpus`, bounds are numerators over `den`, and request
    codes index `rids` (None for model transfers)."""

    __slots__ = ("cols", "size", "gpus", "den", "rids")

    def __init__(self, cols: np.ndarray, size: np.ndarray, gpus: list[GpuRef], den: int,
                 rids: list[str] | None):
        self.cols, self.size, self.gpus, self.den, self.rids = cols, size, gpus, den, rids

    @classmethod
    def covered(cls, cover: tuple, common: "_Common", den: int, rids: list[str] | None,
                load: dict[str, float], departing: frozenset[str], send_budget: float,
                stored: bool) -> "_Moves":
        """The one cover loop: the pieces of one `_pieces` cover, model or
        cache, each covered once over its unit's layer run, each sub-piece as
        one transfer of the run, tagged with its receiver, request code,
        tokens and layer count, in piece, then bound, order.

        A forced piece's sub-pieces come from `_pieces` as they are; only the
        other pieces, those with a choice of sender and those some point of
        which no live copy holds, run through `_cover_from_holders`.  It
        takes the forced sub-pieces' cross-instance bytes into the sender
        loads in cover order, so each choice sees the loads a cover of every
        piece in turn would have left."""
        tags, (piece, cols, size), choices = cover
        if choices:
            cross = common.inst_of[cols[:, 1]] != common.inst_of[tags[piece, 0]]
            out = _cover_from_holders(choices, list(zip(
                piece[cross].tolist(), [common.owner[g] for g in cols[cross, 1].tolist()],
                size[cross].tolist())), den, load, common.owner, departing, send_budget, stored)
            table = np.fromiter(out, np.float64, len(out)).reshape(-1, _PUT)
            piece = np.concatenate((piece, table[:, 0].astype(np.int64)))
            order = piece.argsort(kind="stable")
            piece = piece[order]
            cols = np.concatenate((cols, table[:, 1:_PUT - 1].astype(np.int64)))[order]
            size = np.concatenate((size, table[:, -1]))[order]
        return cls(np.concatenate((cols, tags[piece]), axis=1), size, common.gpus, den, rids)

    def __len__(self) -> int:
        return len(self.size)


_NONE: dict = {}  # no releases
_NO_COLS, _NO_SIZES = np.empty((0, _DST + 4), dtype=np.int64), np.empty(0)  # no cache transfers
# no forced sub-pieces: piece indices, (layer, src, lo, hi) columns, bytes
_NO_SUBS = np.empty(0, dtype=np.int64), np.empty((0, _DST), dtype=np.int64), np.empty(0)


def _expand(moves: _Moves, a: int, z: int) -> list[Transfer]:
    """The `Transfer` records of transfers a..z of `moves`: the one place
    records are built."""
    gpus = [*moves.gpus, STORAGE]  # a sender index of -1 is STORAGE
    rows, sizes = moves.cols[a:z].tolist(), moves.size[a:z].tolist()
    frac = {n: Fraction(n, moves.den) for n in np.unique(moves.cols[a:z, 2:4]).tolist()}
    if moves.rids is None:
        return [Transfer("model", layer, frac[lo], frac[hi], gpus[src], gpus[dst], size)
                for (layer, src, lo, hi, dst), size in zip(rows, sizes)]
    return [Transfer("cache", layer, frac[lo], frac[hi], gpus[src], gpus[dst], size,
                     moves.rids[code], tokens, layers)
            for (layer, src, lo, hi, dst, code, tokens, layers), size in zip(rows, sizes)]


def _round_sums(rounds: np.ndarray, src: np.ndarray, dst: np.ndarray, size: np.ndarray,
                names: list[str]) -> dict[int, tuple[list, list, dict]]:
    """Per round, in one array pass: the bytes each instance sends and
    receives to and from other instances, what the round's out-ports and
    in-ports carry, as (instance, bytes) pairs; and the bytes each instance
    receives, same-instance copies included.  Each sum adds its terms one at
    a time in array order.  `src` and `dst` are instance codes into `names`,
    so a same-instance copy counts on neither port."""
    n = len(names)
    cross = src != dst
    # a key per (round, instance, part): sent, received, then all received
    at = rounds * (3 * n)
    into = at + 3 * dst
    keys, sums = _sums(np.concatenate(((at + 3 * src)[cross], into[cross] + 1, into + 2)),
                       np.concatenate((size[cross], size[cross], size)))
    r, key = np.divmod(keys, 3 * n)
    inst, part = np.divmod(key, 3)
    found: dict[int, tuple[list, list, dict]] = {}
    for r, i, part, b in zip(r.tolist(), inst.tolist(), part.tolist(), sums.tolist()):
        if r not in found:
            sent, received, incoming = found[r] = [], [], {}
        if part == 2:
            incoming[names[i]] = b
        elif part:
            received.append((names[i], b))
        else:
            sent.append((names[i], b))
    return found


class _Common:
    """What the derivations over one mapping and one set of model holdings
    share: the layout's GPUs; each instance's rank in their order (`rank`),
    and the instance names in that order, then `STORAGE`'s (`names`); each
    GPU's instance name (`owner`), code into `names` (`inst_of`) and stage
    (0 if unassigned), each with `STORAGE`'s entry last, where a sender
    index of -1 finds it; the target's stage count and the model's layer
    count; the assigned GPUs' `slot_table` (`slots`); the model transfers as
    columns ordered by layer, the layers in the order covering first met
    them, and the layer releases.  The model loads and the layer rounds are
    computed once, when first asked for."""

    __slots__ = ("gpus", "rank", "names", "owner", "inst_of", "stage", "pipeline_stages",
                 "num_layers", "slots", "model", "layers", "layer_releases", "_loads", "_rounds")

    def __init__(self, mapping: DeviceMapping, old_layout: Layout, model: ModelSpec):
        gpus = self.gpus = old_layout.gpus
        rank = self.rank = {inst: k for k, inst in enumerate(dict.fromkeys(g[0] for g in gpus))}
        self.names = [*rank, STORAGE[0]]
        self.owner = [gpu[0] for gpu in gpus] + [STORAGE[0]]
        self.inst_of = np.array([rank[gpu[0]] for gpu in gpus] + [len(rank)], dtype=np.int64)
        placed = list(map(mapping.assignment.get, gpus))
        self.stage = np.array([0 if pos is None else pos.stage for pos in placed] + [0],
                              dtype=np.int64)
        self.pipeline_stages, self.num_layers = mapping.config.pipeline_stages, model.num_layers
        self.slots = slot_table(mapping.config, model, [
            (g, pos) for g, pos in enumerate(placed) if pos is not None])
        self._loads = self._rounds = None

    def model_loads(self) -> tuple[dict[str, float], dict[str, float]]:
        """Bytes each instance sends to other instances and receives over
        the model transfers, summed layer by layer in transfer order."""
        if self._loads is None:
            src, dst = (self.inst_of[self.model.cols[:, c]] for c in (_SRC, _DST))
            cross = src != dst
            sent = dict.fromkeys(self.names, 0.0)
            for i, b in zip(*(a.tolist() for a in _sums(src[cross], self.model.size[cross]))):
                sent[self.names[i]] = b
            self._loads = sent, {self.names[i]: b for i, b in zip(
                *(a.tolist() for a in _sums(dst, self.model.size)))}
        return self._loads

    def layer_rounds(self) -> dict[int, MigrationAction]:
        """One `migrate_layer` round per layer that moves or frees model
        context, by layer.  Consecutive layers whose transfers (every column
        but the layer), bytes and releases are equal form one segment, found
        by comparing that data, and each segment's sums come from its first
        layer alone: `_round_sums` adds the same terms in the same order on
        every layer of it, so each layer's sums are those floats.  Each
        layer keeps its own round and span; the rounds of a segment share
        one set of sums and releases."""
        if self._rounds is None:
            cols, size, releases = self.model.cols, self.model.size, self.layer_releases
            n = self.num_layers
            layer = cols[:, _LAYER]
            counts = np.bincount(layer, minlength=n)
            # same[r]: layer r moves and frees what layer r - 1 does.  Where
            # the two have as many transfers, each transfer of layer r is
            # compared with the one `counts[r]` rows before it
            same = np.zeros(n, dtype=bool)
            same[1:] = counts[1:] == counts[:-1]
            j = np.arange(len(layer)) - counts[layer]
            differ = (size.take(j) != size) | (cols.take(j, axis=0) != cols)[:, 1:].any(axis=1)
            same[layer[differ]] = False
            same[1:] &= np.array([releases.get(r, _NONE) == releases.get(r - 1, _NONE)
                                  for r in range(1, n)], dtype=bool)
            self._rounds = self.rounds(self.model, layer, releases, ~same)
        return self._rounds

    def rounds(self, moves: _Moves, key: np.ndarray, releases: dict[int, dict[str, float]],
               lead: np.ndarray) -> dict[int, MigrationAction]:
        """The rounds that move or free context, by round key, ascending:
        each `moves` transfer is in the round of its key in `key`, ascending,
        and round r frees `releases[r]`, sorted by instance.  A segment of
        rounds starts at each round `lead` marks; the rounds of a segment
        move and free alike, so one array pass over each segment's first
        round gives the sums the segment shares.  Model transfers make
        `migrate_layer` rounds of layer r, KV cache `migrate_cache` ones."""
        model = moves.rids is None
        kind = "migrate_layer" if model else "migrate_cache"
        found = {}
        if len(moves):
            first = lead[key]
            found = _round_sums((lead.cumsum() - 1)[key[first]],
                                self.inst_of[moves.cols[first, _SRC]],
                                self.inst_of[moves.cols[first, _DST]], moves.size[first],
                                self.names)
        ends = np.bincount(key, minlength=len(lead)).cumsum().tolist()
        rounds = {}
        a = s = 0
        for r, (new, z) in enumerate(zip(lead.tolist(), ends)):
            if new:
                sent, received, incoming = found.get(s, ((), (), {}))
                sent, received = tuple(sent), tuple(received)
                freed = tuple(sorted(releases.get(r, _NONE).items()))
                s += 1
            if z > a or freed:
                rounds[r] = MigrationAction(kind, freed, r if model else None, None, sent,
                                            received, incoming, (moves, a, z) if z > a else None)
            a = z
        return rounds


class Derivation:
    """What `derive_transfers` returns: in `common`, what it shares with
    every derivation that takes it as `base` (the GPUs, the model transfers
    and the layer releases); its KV-cache transfers as columns (`cache`) in
    covering order, all one round; and the cache releases."""

    __slots__ = ("common", "cache", "cache_releases", "_cache_rounds")

    def __init__(self, common: _Common, cache: _Moves, cache_releases: dict[str, float]):
        self.common, self.cache, self.cache_releases = common, cache, cache_releases
        self._cache_rounds: dict[int, MigrationAction] | None = None

    def cache_round(self) -> MigrationAction | None:
        """The `migrate_cache` round, None when no KV cache moves or is
        freed; built once."""
        if self._cache_rounds is None:
            self._cache_rounds = self.common.rounds(
                self.cache, np.zeros(len(self.cache), dtype=np.int64),
                {0: self.cache_releases}, np.ones(1, dtype=bool))
        return self._cache_rounds.get(0)

    def participants(self) -> set[str]:
        """The instances a model transfer is sent from or to, `STORAGE`
        included: those of the layer rounds' sums."""
        found = set()
        for layer in self.common.layer_rounds().values():
            found.update(inst for inst, _ in layer.sent)
            found.update(layer.incoming)
        return found

    def port_loads(self) -> tuple[dict[str, float], dict[str, float], int]:
        """The port sums of all the rounds a plan of this derivation has,
        added round by round (the layers in the order covering met them,
        then the cache round), and how many of those rounds move bytes
        between instances: what `costmodel.migration_bound` reads.  No plan
        is assembled, and the rounds' order does not matter."""
        sent: dict[str, float] = {}
        received: dict[str, float] = {}
        rounds = 0
        layer_rounds = self.common.layer_rounds()
        cache_round = self.cache_round()
        for found in (*(layer_rounds[layer] for layer in self.common.layers),
                      *(() if cache_round is None else (cache_round,))):
            rounds += bool(found.sent)
            for inst, b in found.sent:
                sent[inst] = sent.get(inst, 0.0) + b
            for inst, b in found.received:
                received[inst] = received.get(inst, 0.0) + b
        return sent, received, rounds

    def records(self) -> tuple[dict[int, list[Transfer]], list[Transfer],
                               dict[int, dict[str, float]], dict[str, float]]:
        """The derivation as records, for output and checks: (model
        transfers by layer, the layers in the order covering met them; cache
        transfers; layer releases; cache releases)."""
        common = self.common
        rounds = common.layer_rounds()
        return ({layer: list(rounds[layer].transfers) for layer in common.layers},
                _expand(self.cache, 0, len(self.cache)), common.layer_releases,
                self.cache_releases)


def _pieces(held: np.ndarray, need: np.ndarray, owner: list[str], weight: int,
            den: int) -> tuple[tuple, tuple]:
    """The cover of one kind of context, for `_Moves.covered`, and the terms
    `_incoming` sums: each unit's receiving GPU, layer count and piece
    count, and each piece's width times tokens, in unit order.

    Each need row is cut into runs at the layer bounds of its request's held
    rows, so each run lies inside one elementary layer block of the holder
    index, and what the receiver holds with enough tokens is subtracted.
    A unit is one run of one GPU's need of one request, its pieces in
    entry, then bound, order, the units in GPU, request, then layer order;
    the pieces in that order are the cover order.  One array join finds
    each piece's copies: the held rows of its unit's layer block that share
    a point with it and hold enough tokens.

    The cover is `(tags, forced, choices)`.  `tags` gives each piece's
    receiving GPU, request code, tokens and layer count.  `forced` holds the
    sub-pieces of the pieces whose copies tile them, where there is no
    choice of sender: their piece indices, `(layer, sender, lo, hi)`
    columns and bytes, by piece, then bound.  `choices` lists the other
    pieces, in cover order, for `_cover_from_holders`.  A GPU is its index,
    and `owner` gives its instance.
    """
    hg, hr, hf, he, hlo, hhi, ht = held.T
    ng, nr, nf, ne, nlo, nhi, nt = need.T
    span = 1 + int(max(he.max(initial=0), ne.max(initial=0)))
    n_req = 1 + int(max(hr.max(initial=0), nr.max(initial=0)))
    code = hr * span
    bounds = _distinct(np.concatenate([code + hf, code + he]))

    # runs: each need row cut at the bounds strictly inside its layers
    n_code = nr * span
    i0 = bounds.searchsorted(n_code + nf, "right")
    i1 = bounds.searchsorted(n_code + ne, "left")
    row, j = _ragged(i1 - i0 + 1)
    r_code, at = n_code[row], i0[row] + j
    padded = np.concatenate((bounds, [0]))
    first = np.where(j == 0, nf[row], padded[at - 1] - r_code)
    end = np.where(at == i1[row], ne[row], padded[at] - r_code)
    block = bounds.searchsorted(r_code + first, "right") - 1
    lo, hi, tokens = nlo[row], nhi[row], nt[row]

    # the receiver's own cuts: its rows of the request over the run with
    # enough tokens, clipped to the needed interval, by run then lower bound
    i, h = _matches(ng[row] * n_req + nr[row], hg * n_req + hr)
    cuts = ((hf[h] <= first[i]) & (first[i] < he[h]) & (ht[h] >= tokens[i])
            & (hlo[h] < hi[i]) & (hhi[h] > lo[i]))
    i, h = i[cuts], h[cuts]
    c_lo, c_hi = np.maximum(hlo[h], lo[i]), np.minimum(hhi[h], hi[i])
    order = np.lexsort((c_lo, i))
    i, c_lo, c_hi = i[order], c_lo[order], c_hi[order]
    # uncovered pieces: the gap before each cut, after a run's last cut, and
    # whole runs without cuts
    reach = np.maximum.accumulate(i * (den + 1) + c_hi) - i * (den + 1)
    opens = np.zeros(len(i), dtype=bool)
    opens[_starts(i)] = True
    closes = np.concatenate((opens[1:], [True]))
    before = lo[i]
    before[~opens] = reach[(~opens).nonzero()[0] - 1]
    gap, tail = c_lo > before, closes & (reach < hi[i])
    uncut = np.ones(len(row), dtype=bool)
    uncut[i] = False
    p_run = np.concatenate([i[gap], i[tail], uncut.nonzero()[0]])
    p_lo = np.concatenate([before[gap], reach[tail], lo[uncut]])
    p_hi = np.concatenate([c_lo[gap], hi[i[tail]], hi[uncut]])

    # a unit gathers the runs of the entries of one GPU's need of one request
    group = np.zeros(len(need), dtype=np.int64)
    starts = _starts(ng * n_req + nr)
    group[starts] = starts
    group = np.maximum.accumulate(group)[row]
    order = np.lexsort((p_lo, row[p_run], j[p_run], group[p_run]))
    p_run, p_lo, p_hi = p_run[order], p_lo[order], p_hi[order]
    unit_key = group[p_run] * (len(bounds) + 1) + j[p_run]
    u_first = _starts(unit_key)
    u_run = p_run[u_first]

    # each piece's unit's first run, which gives the piece its layers
    p_unit = np.zeros(len(p_run), dtype=np.int64)
    p_unit[u_first[1:]] = 1
    u = u_run[p_unit.cumsum()]
    p_tokens, p_first, p_layers, p_block = tokens[p_run], first[u], end[u] - first[u], block[u]
    tags = np.stack((ng[row[u]], nr[row[u]], p_tokens, p_layers), axis=1)

    # each piece's copies: the held rows of its layer block that share a
    # point with it and hold enough tokens, by piece, then row
    k0 = bounds.searchsorted(code + hf)
    h, at = _ragged(bounds.searchsorted(code + he) - k0)
    k = k0[h] + at
    order = k.argsort(kind="stable")
    h, k = h[order], k[order]
    a = k.searchsorted(p_block)
    p, at = _ragged(k.searchsorted(p_block, "right") - a)
    c = h[a[p] + at]
    c_lo, c_hi = np.maximum(hlo[c], p_lo[p]), np.minimum(hhi[c], p_hi[p])
    shared = (c_lo < c_hi) & (ht[c] >= p_tokens[p])
    p, c, c_lo, c_hi = p[shared], c[shared], c_lo[shared], c_hi[shared]

    # a piece is forced when its copies, clipped to it, tile it: their
    # widths add up to its own and no two overlap.  Each point then has one
    # copy, which sends the sub-piece the cover loop would give it.  Copies
    # of replicated context add up to more, so only where they add up to
    # the piece are they sorted and checked.
    forced = np.bincount(p, c_hi - c_lo, len(p_run)) == p_hi - p_lo
    sub = _NO_SUBS
    if forced.any():
        keep = forced[p]
        order = np.lexsort((c_lo[keep], p[keep]))
        q, s, s_lo, s_hi = (x[keep][order] for x in (p, c, c_lo, c_hi))
        forced[q[1:][(q[1:] == q[:-1]) & (s_lo[1:] < s_hi[:-1])]] = False
        keep = forced[q]
        q, s, s_lo, s_hi = q[keep], s[keep], s_lo[keep], s_hi[keep]
        sub = (q, np.stack((p_first[q], hg[s], s_lo, s_hi), axis=1),
               exact_bytes(((s_hi - s_lo) * p_tokens[q] * p_layers[q],), (weight,), den))

    # the other pieces, with their copies in row order, for the cover loop
    choices = []
    free = (~forced).nonzero()[0]
    if len(free):
        keep = ~forced[p]
        p, c = p[keep], c[keep]
        held_copies = [(g, owner[g], a, b) for g, a, b in held[:, [_G, _LO, _HI]].tolist()]
        copies = [held_copies[x] for x in c.tolist()]
        choices = [(q, owner[g], f, (lo, hi, weight * t * n), copies[a:z])
                   for q, g, f, lo, hi, t, n, a, z in zip(
                       free.tolist(), *(x[free].tolist() for x in (
                           tags[:, 0], p_first, p_lo, p_hi, p_tokens, p_layers)),
                       p.searchsorted(free).tolist(), p.searchsorted(free, "right").tolist())]

    return (tags, sub, choices), (ng[row[u_run]], end[u_run] - first[u_run],
                                  _lengths(u_first, len(p_run)), (p_hi - p_lo) * p_tokens)


def _incoming(terms: tuple, inst_of: np.ndarray, weight: int, den: int) -> dict[int, float]:
    """Each receiving instance's bytes over the units `_pieces` gave `terms`
    of, by instance rank, added layer by layer and piece by piece in unit
    order."""
    dst, layers, counts, num = terms
    unit, _, at = _tiled(layers, counts)
    sizes = exact_bytes((num,), (weight,), den)[(counts.cumsum() - counts)[unit] + at]
    return dict(zip(*(a.tolist() for a in _sums(inst_of[dst][unit], sizes))))


def _released(held: np.ndarray, need: np.ndarray, inst_of: np.ndarray, weight: int, den: int):
    """What each GPU holds beyond its need, as (layer, instance rank, bytes)
    terms with positive bytes, in the order of a loop over held blocks, the
    block's layers cut at its need block, each layer, then the block's rows."""
    hg, hr, hf, he, hlo, hhi, ht = held.T
    ng, nr, nf, ne, nlo, nhi, nt = need.T
    n_req = 1 + int(max(hr.max(initial=0), nr.max(initial=0)))
    i, n = _matches(hg * n_req + hr, ng * n_req + nr)
    overlap = np.maximum(np.minimum(hhi[i], nhi[n]) - np.maximum(hlo[i], nlo[n]), 0)
    kept = np.zeros(len(held), dtype=np.int64)
    np.add.at(kept, i, overlap * np.minimum(ht[i], nt[n]))
    f, e = np.zeros(len(held), dtype=np.int64), np.zeros(len(held), dtype=np.int64)
    f[i], e[i] = nf[n], ne[n]  # the need block, empty if none

    # up to three segments per row: before, inside and after the need block
    inside = np.maximum(hf, f), np.minimum(he, e)
    firsts = np.array([hf, inside[0], np.maximum(hf, inside[1])])
    ends = np.array([np.minimum(he, inside[0]), inside[1], he])
    whole = (hhi - hlo) * ht
    num = np.array([whole, whole - kept, whole])

    # a held block is a run of rows with equal (gpu, request, first, end)
    block = np.zeros(len(held), dtype=np.int64)
    block[1:] = (held[1:, :_LO] != held[:-1, :_LO]).any(axis=1)
    block = block.cumsum()
    s, r = (ends > firsts).nonzero()
    order = np.lexsort((r, s, block[r]))
    r, s = r[order], s[order]
    u_first = _starts(block[r] * 3 + s)
    u_row, u_seg = r[u_first], s[u_first]
    unit, layer_off, at = _tiled(ends[u_seg, u_row] - firsts[u_seg, u_row],
                                 _lengths(u_first, len(r)))
    value = exact_bytes((num[s, r],), (weight,), den)[u_first[unit] + at]
    positive = value > 0
    layer = firsts[u_seg, u_row][unit] + layer_off
    return layer[positive], inst_of[hg[u_row]][unit][positive], value[positive]


def _cover_from_holders(choices: list, forced: list, den: int, load: dict[str, float],
                        owner: list[str], departing: frozenset[str], send_budget: float,
                        stored: bool) -> list:
    """Cover the pieces `_pieces` found a choice of sender for, in cover
    order, and return `piece, layer, sender, lo, hi, bytes` for each
    sub-piece, flat; the sender is a GPU index, -1 for `STORAGE`, and
    `owner` gives each index's instance.

    A piece is `(piece index, receiver's instance, layer, (lo, hi, unit
    bytes), copies)`: its receiver, a GPU of that instance, needs the grid
    interval [lo, hi) over a layer run from `layer`, and unit bytes count
    the run's every layer.  Its copies are `(gpu, its instance, lo, hi)`, in
    GPU, then row, order: the held rows of its layer block that share a
    point with it and hold enough of its tokens (every model row, with its
    one token), none on the receiver itself, since a need piece is what its
    own copies leave uncovered.  `forced` lists `(piece index, sender's
    instance, bytes)` for the forced sub-pieces sent between instances, in
    cover order; each is added to its sender's load before the first piece
    here that follows it, so every choice sees the loads the sub-pieces
    before it left.

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
    out: list = []
    budget = send_budget + 1e-6
    k = 0
    for q, here, layer, (lo, hi, unit_bytes), copies in choices:
        while k < len(forced) and forced[k][0] < q:
            _, inst, size = forced[k]
            load[inst] += size
            k += 1
        start = lo
        while start < hi:
            # the least (remote, not departing within budget, load if
            # remote, GPU, -end) over the copies holding `start`; `copies`
            # are in GPU order already, so a later copy wins a tie on the
            # first three only as the same GPU's longer copy
            best_class = 4
            for g, inst, c_lo, c_hi in copies:
                if not c_lo <= start < c_hi:
                    continue
                end = c_hi if c_hi < hi else hi
                cur = load[inst]
                cheap = inst in departing and cur + (end - start) * unit_bytes / den <= budget
                if inst == here:
                    cls, cur = (0 if cheap else 1), 0.0
                else:
                    cls = 2 if cheap else 3
                if cls < best_class or (cls == best_class and (
                        cur < best_load or (cur == best_load and g == sender and end > stop))):
                    best_class, best_load, sender, stop = cls, cur, g, end
            if best_class == 4:
                if not stored:
                    raise MigrationError(
                        f"no source holds required shard [{Fraction(start, den)},"
                        f"{Fraction(hi, den)}): layout inconsistent with mapping")
                sender = -1
                # every copy starts below `hi`, since it shares a point with the piece
                stop = min([c[2] for c in copies if start < c[2]], default=hi)
            size = (stop - start) * unit_bytes / den
            out += (q, layer, sender, start, stop, size)
            if owner[sender] != here:
                load[owner[sender]] += size
            start = stop
    return out


def derive_transfers(mapping: DeviceMapping, old_layout: Layout, model: ModelSpec,
                     inherited_by_pipeline: dict[int, list[tuple[str, int]]] | None = None,
                     departing: frozenset[str] = frozenset(),
                     base: Derivation | None = None) -> Derivation:
    """Model transfers per layer, cache transfers per layer run, and
    end-of-round releases.

    For every assigned GPU the non-reused part of its required context is
    pulled from old holders (departing copies first, then load-balanced),
    and a model piece no old holder has from `STORAGE`; whatever a GPU holds
    beyond its own new requirement is freed once the owning round completes.
    Both kinds of context take the same array passes, model context being
    request None's, and one cover, each piece once per layer run
    (`_Moves.covered`).  A piece whose live copies tile it takes its
    sub-pieces from those copies with no choice made; only the other
    pieces reach the sender choice.  Transfers come out as columns, no
    record built.

    Model pieces come first, under a sender load and a send budget (the
    busiest receiver's model bytes) built from model pieces alone, so the KV
    cache in `old_layout` never changes which holder sends a model piece.
    Each choice is emitted as one transfer per layer of its run, with that
    layer's bytes, and model context is released per layer.  `base`, a
    derivation of the same mapping over the same model holdings (a commit's
    cache-free one), supplies the model transfers, the layer releases and
    what depends only on the mapping and the GPUs in place of deriving them
    again, so only the cache rows are built.

    Cache pieces follow, from the sender load of the model transfers, under
    a budget of the busiest receiver's model plus cache bytes.  Those loads
    and that budget are summed only when some cache piece has a choice of
    sender, which the engine's layouts never give: a request's cache lives
    on one pipeline, so each point of it has one live copy.  Each sub-piece
    is one transfer with the run's first layer, its layer count and the
    bytes of all its layers.  Cache releases go to the cache round.
    """
    if mapping.config is None:
        raise MigrationError("mapping carries no target config")
    den = math.lcm(mapping.config.tensor_shards, old_layout.den)
    k = den // mapping.config.tensor_shards
    common = _Common(mapping, old_layout, model) if base is None else base.common
    gpus, inst_of, names, owner = common.gpus, common.inst_of, common.names, common.owner
    rows = old_layout.rows_on(den)
    is_model = rows[:, 1] == 0

    if base is None:
        weight = model.bytes_per_layer
        cache = {d: [(None, 1)] for d in range(1, mapping.config.data_parallel + 1)}  # the model
        held, need = rows[is_model], position_rows(common.slots, k, cache, {None: 0})
        cover, terms = _pieces(held, need, owner, weight, den)
        # bytes each sender is scheduled to send
        sender_load = dict.fromkeys(names, 0.0)
        # the budget only bounds departing senders, where a piece has a choice
        send_budget = max(_incoming(terms, inst_of, weight, den).values(),
                          default=0.0) if departing and cover[2] else 0.0
        runs = _Moves.covered(cover, common, den, None, sender_load, departing, send_budget,
                              True)
        # each choice as one transfer per layer of its run, by layer, with the
        # layer's own bytes (the run's bytes over its length may round apart)
        run, at = _ragged(runs.cols[:, -1])
        cols = runs.cols[run, :_DST + 1]
        cols[:, _LAYER] += at
        common.layers = list(dict.fromkeys(cols[:, _LAYER].tolist()))  # the order covering met them
        cols = cols[cols[:, _LAYER].argsort(kind="stable")]
        common.model = _Moves(cols, exact_bytes((cols[:, 3] - cols[:, 2],), (weight,), den),
                              gpus, den, None)
        layer, inst, value = _released(held, need, inst_of, weight, den)
        # layers in the order the release loop meets them first
        common.layer_releases = {at: {} for at in dict.fromkeys(layer.tolist())}
        n = len(names)
        for key, total in zip(*(a.tolist() for a in _sums(layer * n + inst, value))):
            common.layer_releases[key // n][names[key % n]] = total

    # the layout's codes, then the inherited requests the need rows add
    keys = {rid: code for code, rid in enumerate(old_layout.rids)}
    need = position_rows(common.slots, k, inherited_by_pipeline or {}, keys)
    rids = list(keys)
    held = rows[~is_model]
    if not len(held) and not len(need):
        return Derivation(common, _Moves(_NO_COLS, _NO_SIZES, gpus, den, rids), {})
    weight = model.kv_bytes_per_token_per_layer
    cover, terms = _pieces(held, need, owner, weight, den)
    sender_load, send_budget = {}, 0.0
    if cover[2]:  # some piece has a choice of sender
        # summed from the model transfers, so the same whether they were
        # derived here or come from `base`
        sent, delivered = common.model_loads()
        sender_load = dict(sent)
        if departing:
            cache_in = {names[i]: total
                        for i, total in _incoming(terms, inst_of, weight, den).items()}
            send_budget = max(delivered.get(inst, 0.0) + cache_in.get(inst, 0.0)
                              for inst in {*delivered, *cache_in})
    moves = _Moves.covered(cover, common, den, rids, sender_load, departing, send_budget, False)
    _, inst, value = _released(held, need, inst_of, weight, den)
    cache_releases = {names[i]: total for i, total in zip(*(a.tolist() for a in _sums(inst, value)))}
    return Derivation(common, moves, cache_releases)


# ---------------------------------------------------------------------------
# Plan assembly

def plan_migration(transfers: Derivation, u_max: float | None = None) -> MigrationPlan:
    """Assemble the migration plan of `transfers`, a `Derivation` that
    `derive_transfers` returned; it carries all the plan reads of the
    mapping, the layout and the model it was derived from.  `peak_usage`
    lists the layout's instances in its GPU order.

    Round order: all-layer cache first, then layers in memopt order under
    `u_max`, or in index order when that replays to a lower peak; a
    start_stage marker follows the round that completes each stage's context
    (stages needing nothing start up front).  Nothing here re-derives: the
    same derivation assembled under another cap moves the same transfers.

    The plan's rounds are the derivation's own actions
    (`_Common.layer_rounds`, `Derivation.cache_round`), built once and held
    by every plan of it; only the stage-start markers are made here.  The
    layer order reads each layer round's `incoming` and the layer releases,
    and no record is read.  Each order is replayed in one array pass over
    the columns' receivers and bytes and the rounds' releases: a stable
    sort groups the terms by instance, in round order and, within a round,
    receives in transfer order before the release, and a row-wise
    `np.cumsum` adds each instance's terms one at a time, in the order a
    per-transfer replay of the plan's actions adds them
    (`tests/plan_checks.py` keeps that replay).  Receives only raise usage
    and releases only lower it, so an instance's largest running sum, or
    0.0 if none is positive, is the peak that replay takes after each
    round's receives, and the plan's `peak_usage` is what it gives, bit for
    bit; each stage's marker follows the last round of the winning order
    that delivers to one of its GPUs.
    """
    common = transfers.common
    layer_rounds = common.layer_rounds()
    cache, n_layers = transfers.cache, common.num_layers

    rounds = dict(layer_rounds)  # by layer; the cache round is round n_layers
    cache_round = transfers.cache_round()
    if cache_round is not None:
        rounds[n_layers] = cache_round
    traffic = dict.fromkeys(range(n_layers), LayerTraffic())  # read only: one empty for all
    for layer, found in layer_rounds.items():
        traffic[layer] = LayerTraffic(found.incoming, common.layer_releases.get(layer, {}))
    order = memopt_layer_order(traffic, u_max)

    # every buffer delta as a term: each transfer's receiving instance code,
    # round and bytes, the cache round's after the layers', then each
    # release's, its bytes negated; codes index `names`, as the releases'
    # instances are ranked
    receiver = np.concatenate((common.model.cols[:, _DST], cache.cols[:, _DST]))
    moved_in = np.concatenate((common.model.cols[:, _LAYER], np.full(len(cache), n_layers)))
    rank, n_codes = common.rank, len(common.names)
    freed = [(r, rank[i], -b) for r, action in rounds.items() for i, b in action.releases]
    freed_round, freed_inst, freed_bytes = zip(*freed) if freed else ((), (), ())
    inst = np.concatenate((common.inst_of[receiver], np.array(freed_inst, dtype=np.int64)))
    term_round = np.concatenate((moved_in, np.array(freed_round, dtype=np.int64)))
    value = np.concatenate((common.model.size, cache.size, freed_bytes))
    # grouped by instance, each instance's terms fill a row of a table,
    # zeros after them
    per = np.bincount(inst, minlength=n_codes)
    width = per.max(initial=0)
    cell = np.repeat(np.arange(n_codes) * width - (per.cumsum() - per), per) + np.arange(len(inst))

    def replayed(layer_order: list[int]) -> tuple[list[int], np.ndarray]:
        """The rounds, the cache round first, then the layers in
        `layer_order`; and each instance's peak usage, by code.  A stable
        sort by instance, then round, puts each instance's terms in round
        order, each round's receives in transfer order before its release,
        and a row-wise running sum adds them one at a time, the floats a
        loop over the rounds gives.  Receives only raise usage and releases
        only lower it, so each row's largest sum, or 0.0 where none is
        positive, is the instance's largest usage after a round's receives:
        the peak the loop takes."""
        chosen = [n_layers, *layer_order]
        place = np.empty(n_layers + 1, dtype=np.int64)
        place[chosen] = np.arange(n_layers + 1)
        table = np.zeros(n_codes * width)
        table[cell] = value[(inst * (n_layers + 1) + place[term_round]).argsort(kind="stable")]
        peak = table.reshape(n_codes, width).cumsum(axis=1).max(axis=1, initial=0.0)
        return [r for r in chosen if r in rounds], peak

    chosen, peak = replayed(order)
    if order != sorted(traffic):
        # the one index-order fallback: the greedy steps see neither the cache
        # round nor the whole order's peak; never ship an order replaying higher
        naive = replayed(sorted(traffic))
        if naive[1].max() < peak.max():
            chosen, peak = naive
    peaks = dict(zip(common.rank, peak.tolist()))

    # a stage may serve once every round delivering context to its GPUs is
    # done: each stage's last delivering round, -1 for none
    at = np.full(n_layers + 1, -1)
    at[chosen] = np.arange(len(chosen))
    last_round = np.full(common.pipeline_stages + 1, -1)
    np.maximum.at(last_round, common.stage[receiver], at[moved_in])
    starts: dict[int, list[MigrationAction]] = {}
    for p, idx in enumerate(last_round[1:].tolist(), 1):
        starts.setdefault(idx, []).append(MigrationAction(kind="start_stage", stage=p))
    actions = starts.get(-1, [])
    for idx, r in enumerate(chosen):
        actions.append(rounds[r])
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

