"""Progressive, buffer-bounded migration planning.

A plan moves whatever context the device mapping could not reuse.  Model
context is treated as the KV cache of request None with one token, so model
and cache pieces are derived in the same passes.  Remote storage (`STORAGE`)
sends the model pieces no live GPU holds.  KV cache has no such holder: a
cache piece without a live copy raises `MigrationError`.  Planning has two
steps.
`derive_transfers` decides what moves over one layout: the model transfers
of one mapping, one per layer, then its cache transfers, one per layer run
of a request, and the end-of-round releases.  It reads the holdings and the
needs as integer rectangle rows and finds the missing pieces, the receivers'
incoming bytes and the releases with array passes; only covering, where
each sender choice depends on the load the choices before it left, is a
Python loop.  Model senders are chosen without regard to the cache, so a
commit derives the model part once: its cache-free derivation carries what
depends only on the mapping and the GPUs, and each plan that carries cache
builds only its cache rows on top of it.
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
Assembly builds each round once, with its receivers' byte runs, the stages
it delivers to and the bytes each port carries (`MigrationAction.sent` and
`received`, all that `costmodel` prices); both orders are replayed from the
byte runs, and the stage-start markers are placed from the stage sets of
the rounds of the order that wins.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .domain import STORAGE, GpuRef, Layout, ModelSpec
from .mapping import DeviceMapping, _grid_rows, _ragged, gpu_order, position_rows, slot_table


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


def port_bytes(transfers) -> tuple[dict[str, float], dict[str, float]]:
    """The bytes each instance sends and receives over `transfers` to and
    from other instances, added in transfer order: what the round's
    out-ports and in-ports carry.  Same-instance copies count on neither."""
    sent: dict[str, float] = {}
    received: dict[str, float] = {}
    for t in transfers:
        src, dst = t.src[0], t.dst[0]
        if src != dst:
            sent[src] = sent.get(src, 0.0) + t.bytes
            received[dst] = received.get(dst, 0.0) + t.bytes
    return sent, received


@dataclass(frozen=True)
class MigrationAction:
    """One plan round: a batch of concurrent transfers plus end-of-round frees.

    `sent` and `received` are the round's `port_bytes`, summed once when the
    action is built, as (instance, bytes) pairs; `costmodel` times plans from
    them alone.
    """

    kind: str  # "migrate_cache" | "migrate_layer" | "start_stage"
    transfers: tuple[Transfer, ...] = ()
    releases: tuple[tuple[str, float], ...] = ()  # (instance, bytes freed)
    layer: int | None = None
    stage: int | None = None
    sent: tuple[tuple[str, float], ...] = field(init=False, repr=False, compare=False)
    received: tuple[tuple[str, float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sent, received = port_bytes(self.transfers)
        object.__setattr__(self, "sent", tuple(sent.items()))
        object.__setattr__(self, "received", tuple(received.items()))


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
# A derivation works on int64 rows (gpu, request, first, end, lo, hi, tokens)
# on one integer grid, the rows the mapper scores: held rows from the old
# inventories (`mapping._grid_rows`), need rows from the assigned positions
# (`mapping.position_rows`, the rectangles `required_context` would give).
# Every bound is a numerator over the lcm `den` of the old inventories' grids
# and the target's shard count, `gpu` indexes the GPUs in `gpu_order`, and
# `request` is a code; model context is request None's, with one token, and
# is derived apart from the KV cache.
# Array passes over the rows cut each need row into runs at the layer bounds
# of its request's holders, subtract what the receiver already holds, index
# the holders of each run's layer block, and find what each GPU holds beyond
# its need.
# A byte count is `units * unit_bytes / den` divided as Python ints, the
# exact value rounded once.  A float that sums several of them (a receiver's
# incoming bytes, a release) is summed by `np.add.at`, which adds its terms
# one at a time in array order, never pairwise; the terms are laid out layer
# by layer in the order of a loop over receivers (or held blocks), layers and
# pieces, so each sum is the float that loop gives.
# Covering stays a Python loop over the runs: which holder sends a piece
# depends on the bytes each sender has been given so far, so each choice
# depends on the ones before it.

_G, _R, _F, _E, _LO, _HI, _T = range(7)  # row columns


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


def _divided(num: np.ndarray, weight: int, den: int) -> np.ndarray:
    """`num * weight / den` for int64 numerators, each divided as Python
    ints and so correctly rounded, once per distinct numerator."""
    order = num.argsort()
    starts = _starts(num[order])
    quotients = np.array([n * weight / den for n in num[order[starts]].tolist()])
    out = np.empty(len(num))
    out[order] = quotients.repeat(_lengths(starts, len(num)))
    return out


def _sums(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and for each the sum of its values added
    one at a time from 0.0 in array order, as a Python loop adds them:
    `ufunc.at` applies the additions index by index."""
    totals = np.zeros(keys.max(initial=-1) + 1)
    np.add.at(totals, keys, values)
    seen = np.zeros(len(totals), dtype=bool)
    seen[keys] = True
    present = seen.nonzero()[0]
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


class _Common:
    """What the derivations over one mapping and one set of model holdings
    share: the GPUs in `gpu_order` and each instance's rank, the assigned
    GPUs' `slot_table` (`slots`), and the model transfers' sender and
    receiver byte totals, summed once when a cache derivation first needs
    them."""

    __slots__ = ("gpus", "rank", "inst_of", "slots", "loads")

    def __init__(self, mapping: DeviceMapping, old_layout: Layout, model: ModelSpec):
        gpus, rank = self.gpus, self.rank = gpu_order(old_layout)
        self.inst_of = np.array([rank[g[0]] for g in gpus], dtype=np.int64)
        self.slots = slot_table(mapping.config, model, [
            (g, pos) for g, pos in enumerate(map(mapping.assignment.get, gpus)) if pos is not None])
        self.loads: tuple[dict[str, float], dict[str, float]] | None = None

    def model_loads(self, model_transfers: dict[int, list[Transfer]]):
        """Bytes each instance sends and receives over the model transfers,
        summed layer by layer."""
        if self.loads is None:
            sent = dict.fromkeys([*self.rank, STORAGE[0]], 0.0)
            delivered: dict[str, float] = {}
            for layer in sorted(model_transfers):
                for t in model_transfers[layer]:
                    if t.src[0] != t.dst[0]:
                        sent[t.src[0]] += t.bytes
                    delivered[t.dst[0]] = delivered.get(t.dst[0], 0.0) + t.bytes
            self.loads = sent, delivered
        return self.loads


class Derivation(tuple):
    """What `derive_transfers` returns: the tuple (model transfers by layer,
    cache transfers, layer releases, cache releases), and in `common` what it
    shares with every derivation that takes it as `base`."""

    def __new__(cls, parts: tuple, common: _Common):
        self = super().__new__(cls, parts)
        self.common = common
        return self

    def port_loads(self) -> tuple[dict[str, float], dict[str, float], int]:
        """The `port_bytes` of all the rounds a plan of this derivation has,
        added round by round, and how many of those rounds move bytes
        between instances: what `costmodel.migration_bound` reads.  No plan
        is assembled, and the rounds' order does not matter."""
        sent: dict[str, float] = {}
        received: dict[str, float] = {}
        rounds = 0
        for moved in (*self[0].values(), self[1]):
            out, into = port_bytes(moved)
            rounds += bool(out)
            for inst, b in out.items():
                sent[inst] = sent.get(inst, 0.0) + b
            for inst, b in into.items():
                received[inst] = received.get(inst, 0.0) + b
        return sent, received, rounds


def _pieces(held: np.ndarray, need: np.ndarray, gpus: list[GpuRef], weight: int,
            den: int) -> tuple[list, tuple]:
    """Cover units of one kind of context, and the terms `_incoming` sums:
    each unit's receiving GPU, layer count and piece count, and each piece's
    width times tokens, in unit order.

    Each need row is cut into runs at the layer bounds of its request's held
    rows, so each run lies inside one elementary layer block of the holder
    index, and what the receiver holds with enough tokens is subtracted.
    A unit is one run of one GPU's need of one request: `(dst, request code,
    first, end, (holders, candidate memo) or None, [(lo, hi, unit bytes,
    tokens)])`, pieces in entry, then bound, order, units in GPU, request,
    then layer order.  Holders list `(gpu, lo, hi, tokens)` in GPU, then row,
    order.
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

    # holders of the elementary blocks the units cover
    k0 = bounds.searchsorted(code + hf)
    h, at = _ragged(bounds.searchsorted(code + he) - k0)
    k = k0[h] + at
    wanted = np.zeros(len(bounds) + 1, dtype=bool)
    wanted[block[u_run]] = True
    h, k = h[wanted[k]], k[wanted[k]]
    order = np.lexsort((h, k))
    h, k = h[order], k[order]
    copies = [(gpus[g], a, b, t) for g, a, b, t in held[:, [_G, _LO, _HI, _T]].tolist()]
    listed = [copies[c] for c in h.tolist()]
    cut = _starts(k)
    holders = {b: (listed[a:z], {}) for b, a, z in zip(
        k[cut].tolist(), cut.tolist(), [*cut[1:].tolist(), len(listed)])}

    p_tokens = tokens[p_run]
    pieces = list(zip(p_lo.tolist(), p_hi.tolist(), [weight * t for t in p_tokens.tolist()],
                      p_tokens.tolist()))
    dst = ng[row[u_run]]
    units = [(gpus[g], r, f, e, holders.get(b), pieces[a:z]) for g, r, f, e, b, a, z in zip(
        dst.tolist(), nr[row[u_run]].tolist(), first[u_run].tolist(), end[u_run].tolist(),
        block[u_run].tolist(), u_first.tolist(), [*u_first[1:].tolist(), len(pieces)])]

    return units, (dst, end[u_run] - first[u_run], _lengths(u_first, len(pieces)),
                   (p_hi - p_lo) * p_tokens)


def _incoming(terms: tuple, inst_of: np.ndarray, weight: int, den: int) -> dict[int, float]:
    """Each receiving instance's bytes over the units `_pieces` gave `terms`
    of, by instance rank, added layer by layer and piece by piece in unit
    order."""
    dst, layers, counts, num = terms
    unit, _, at = _tiled(layers, counts)
    sizes = _divided(num, weight, den)[(counts.cumsum() - counts)[unit] + at]
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
    value = _divided(num[s, r], weight, den)[u_first[unit] + at]
    positive = value > 0
    layer = firsts[u_seg, u_row][unit] + layer_off
    return layer[positive], inst_of[hg[u_row]][unit][positive], value[positive]


def _cover_from_holders(pieces: list[tuple[int, int, int, int]], block, dst: GpuRef,
                        layers: int, den: int, load: dict[str, float], rank: dict,
                        departing: frozenset[str], send_budget: float,
                        stored: bool) -> list[list[tuple[GpuRef, int, int, float]]]:
    """Split the grid pieces `(lo, hi, unit bytes, tokens)` of one receiver
    across the holder GPUs of their layer block, on each of `layers` layers
    in turn and piece by piece within a layer: per layer, `(sender, lo, hi,
    bytes)` per sub-piece.

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
    budget = send_budget + 1e-6
    per_layer = []
    for _ in range(layers):
        out = []
        for lo, hi, unit_bytes, tokens in pieces:
            start = lo
            while start < hi:
                # copies holding `start` with enough tokens, per block, in GPU
                # order; none is on `dst`, since a need piece is what dst's
                # own copies leave uncovered
                found = memo.get((start, tokens))
                if found is None:
                    found = memo[(start, tokens)] = [
                        (h[0], h[0][0], h[2], (rank[h[0][0]], h[0][1])) for h in holders
                        if h[1] <= start < h[2] and h[3] >= tokens]
                # the least (remote, not departing within budget, load if
                # remote, order, -end); `found` is in `order` already, so a
                # later copy wins a tie on the first three only as the same
                # GPU's longer copy
                best_class = 4
                for gpu, inst, c_hi, order in found:
                    end = c_hi if c_hi < hi else hi
                    cur = load[inst]
                    cheap = inst in departing and cur + (end - start) * unit_bytes / den <= budget
                    if inst == here:
                        cls, cur = (0 if cheap else 1), 0.0
                    else:
                        cls = 2 if cheap else 3
                    if cls < best_class or (cls == best_class and (
                            cur < best_load or (cur == best_load and order == best_order
                                                and end > stop))):
                        best_class, best_load, best_order, sender, stop = cls, cur, order, gpu, end
                if best_class == 4:
                    if not stored:
                        raise MigrationError(
                            f"no source holds required shard [{Fraction(start, den)},"
                            f"{Fraction(hi, den)}): layout inconsistent with mapping")
                    sender = STORAGE
                    stop = min([h[1] for h in holders if start < h[1] < hi], default=hi)
                size = (stop - start) * unit_bytes / den
                out.append((sender, start, stop, size))
                if sender[0] != here:
                    load[sender[0]] += size
                start = stop
        per_layer.append(out)
    return per_layer


class _Grid(dict):
    """`Fraction(n, den)` by grid numerator n, each made once."""

    def __init__(self, den: int):
        super().__init__()
        self.den = den

    def __missing__(self, n: int) -> Fraction:
        self[n] = value = Fraction(n, self.den)
        return value


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
    request None's.

    Model pieces come first, under a sender load and a send budget (the
    busiest receiver's model bytes) built from model pieces alone, so the KV
    cache in `old_layout` never changes which holder sends a model piece.
    They are emitted one `Transfer` per layer, and released per layer.
    `base`, a derivation of the same mapping over the same model holdings (a
    commit's cache-free one), supplies the model transfers, the layer
    releases and what depends only on the mapping and the GPUs in place of
    deriving them again, so only the cache rows are built.

    Cache pieces follow, from the sender load of the model transfers, under
    a budget of the busiest receiver's model plus cache bytes.  Each is
    covered once per layer run, a run of layers over which the receiver's
    own copy and the request's holders stay the same, and emitted as one
    `Transfer` per sender with the run's first layer, its layer count and the
    bytes of all its layers.  Cache releases go to the cache round.
    """
    if mapping.config is None:
        raise MigrationError("mapping carries no target config")
    den = math.lcm(mapping.config.tensor_shards, *(inv.den for inv in old_layout.values()))
    k = den // mapping.config.tensor_shards
    common = _Common(mapping, old_layout, model) if base is None else base.common
    gpus, rank, inst_of = common.gpus, common.rank, common.inst_of
    names = list(rank)
    invs = [old_layout[gpu] for gpu in gpus]
    new = tuple.__new__  # a Transfer from all its fields, skipping the keyword defaults

    if base is None:
        weight, keys = model.bytes_per_layer, {None: 0}
        cache = {d: [(None, 1)] for d in range(1, mapping.config.data_parallel + 1)}  # the model
        held, need = _grid_rows(invs, den, keys), position_rows(common.slots, k, cache, keys)
        units, terms = _pieces(held, need, gpus, weight, den)
        frac = _Grid(den)
        model_transfers: dict[int, list[Transfer]] = {}
        # bytes each sender is scheduled to send
        sender_load = dict.fromkeys([*rank, STORAGE[0]], 0.0)
        # the budget only bounds departing senders
        send_budget = max(_incoming(terms, inst_of, weight, den).values(),
                          default=0.0) if departing else 0.0
        for to, _, first, end, block, pieces in units:
            covers = _cover_from_holders(pieces, block, to, end - first, den, sender_load, rank,
                                         departing, send_budget, True)
            for layer, covered in enumerate(covers, first):
                out = model_transfers.setdefault(layer, [])
                for src, c_lo, c_hi, size in covered:
                    out.append(new(Transfer, ("model", layer, frac[c_lo], frac[c_hi], src, to,
                                              size, None, 0, 1)))
        layer, inst, value = _released(held, need, inst_of, weight, den)
        # layers in the order the release loop meets them first
        layer_releases: dict[int, dict[str, float]] = {
            at: {} for at in dict.fromkeys(layer.tolist())}
        for key, total in zip(*(a.tolist() for a in _sums(layer * len(names) + inst, value))):
            layer_releases[key // len(names)][names[key % len(names)]] = total
    else:
        model_transfers, _, layer_releases, _ = base

    # the held requests first, then the inherited ones the need rows add
    keys = {rid: code for code, rid in enumerate(dict.fromkeys(
        rid for inv in invs for rid in inv.rects if rid is not None))}
    need = position_rows(common.slots, k, inherited_by_pipeline or {}, keys)
    if not keys:
        return Derivation((model_transfers, [], layer_releases, {}), common)
    rids = list(keys)
    weight = model.kv_bytes_per_token_per_layer
    held = _grid_rows(invs, den, keys)
    units, terms = _pieces(held, need, gpus, weight, den)
    cache_transfers: list[Transfer] = []
    if units:
        # summed from the model transfers, so the same whether they were
        # derived here or come from `base`
        sent, delivered = common.model_loads(model_transfers)
        sender_load = dict(sent)
        send_budget = 0.0
        if departing:
            cache_in = {names[i]: total
                        for i, total in _incoming(terms, inst_of, weight, den).items()}
            send_budget = max(delivered.get(inst, 0.0) + cache_in.get(inst, 0.0)
                              for inst in {*delivered, *cache_in})
        frac = _Grid(den)
        for to, code, first, end, block, pieces in units:
            n = end - first
            for lo, hi, unit, tokens in pieces:
                [covered] = _cover_from_holders([(lo, hi, unit * n, tokens)], block, to, 1, den,
                                                sender_load, rank, departing, send_budget, False)
                for src, c_lo, c_hi, size in covered:
                    cache_transfers.append(new(Transfer, ("cache", first, frac[c_lo], frac[c_hi],
                                                          src, to, size, rids[code], tokens, n)))
    _, inst, value = _released(held, need, inst_of, weight, den)
    cache_releases = {names[i]: total for i, total in zip(*(a.tolist() for a in _sums(inst, value)))}
    return Derivation((model_transfers, cache_transfers, layer_releases, cache_releases), common)


# ---------------------------------------------------------------------------
# Plan assembly

def _added(total: float, sizes: list[float]) -> float:
    """`total` plus each size in turn: the float sum a per-transfer replay makes."""
    for b in sizes:
        total += b
    return total


def plan_migration(mapping: DeviceMapping, old_layout: Layout, model: ModelSpec,
                   transfers: Derivation, u_max: float | None = None) -> MigrationPlan:
    """Assemble the migration plan of a device mapping from `transfers`, the
    `Derivation` that `derive_transfers` returned for that mapping over
    `old_layout`.

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

