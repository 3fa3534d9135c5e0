"""Device mapping: assign GPUs to topology positions by max-weight matching.

Edge weights are reusable bytes (model context overlap plus KV-cache overlap
for requests the target pipeline inherits), so a maximum-weight assignment is
exactly the one minimizing migration traffic.  The holdings come as a
`Layout`, one table of int64 rectangle rows; the positions' needs are laid
out as rows on the same grid by `position_rows`, which the planner and the
engine share, and the layout's request codes are extended to the requests
the positions inherit.  The whole GPU x position matrix is built in one pass
from those rows, whatever the byte counts: each cell's model and cache units
go through `domain.exact_bytes`, so each weight is the float `overlap_bytes`
gives for that pair.  Model context is the KV cache of request None with one
token, so model and cache meet in one join on the request.  Every instance
size goes through the same two-step matching: GPUs are fused per instance
and positions per tensor-parallel group, an inner match fixes the per-GPU
pairing inside each fused pair, and an outer match assigns fused groups.
Each distinct inner block is matched once and its matching reused wherever
the block recurs.  At group size 1 the weight matrix is the fused graph, so
the outer match is the only one.
"""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .domain import (
    GpuRef,
    KvCache,
    Layout,
    ModelSpec,
    ParallelConfig,
    RequestRecord,
    TopologyPosition,
    exact_bytes,
    kv_cache,
    overlap_bytes,
    positions,
    stage_layers,
)

# `overlap_bytes` is bound here for perfbench's tracer, which wraps it by name.
__all__ = ["BipartiteGraph", "DeviceMapping", "MappingError", "build_graph", "default_inheritance",
           "km_match", "map_devices", "overlap_bytes", "position_rows", "positional_mapping",
           "retain_cache", "slot_table"]


class MappingError(ValueError):
    pass


@dataclass
class BipartiteGraph:
    """Dense weight matrix between GPU nodes and topology positions."""

    gpus: list[GpuRef]
    slots: list[TopologyPosition]
    weights: list[list[float]]  # weights[i][j] = reusable bytes gpu i -> slot j

    def __post_init__(self):
        if len(self.weights) != len(self.gpus):
            raise MappingError("weight rows must match gpu count")
        for row in self.weights:
            if len(row) != len(self.slots):
                raise MappingError("weight cols must match slot count")
            if row and min(row) < 0:
                raise MappingError("weights must be >= 0")


@dataclass
class DeviceMapping:
    """Injective GPU -> position assignment and its total reused bytes."""

    assignment: dict[GpuRef, TopologyPosition]
    total_weight: float
    config: ParallelConfig | None = None

    def gpu_for(self) -> dict[TopologyPosition, GpuRef]:
        return {pos: gpu for gpu, pos in self.assignment.items()}


# ---------------------------------------------------------------------------
# Kuhn-Munkres

def _hungarian_max(weights: list[list[float]]) -> list[int]:
    """Max-weight matching on a rectangular matrix; returns col for each row.

    The matrix is padded square with zero-weight dummies, so a row matched to
    a dummy gets a column index past the last real one.  Potentials +
    augmenting-path form, O(n^3).  Rows enter in order, and each augmenting
    search takes the lowest column among equal reduced costs.  That fixes
    which maximum a tie yields, but it is not the lexicographically least
    one: `[[1,1,0,1],[0,0,1,0],[1,1,0,1],[1,1,1,0]]` gives `[3,2,1,0]`, not
    `[0,2,3,1]`.  Mappings depend on this rule, so any replacement must
    reproduce it.
    """
    rows = len(weights)
    if rows == 0:
        return []
    n = max(rows, len(weights[0]))
    cost = [[-w for w in row] + [0.0] * (n - len(row)) for row in weights]
    cost += [[0.0] * n for _ in range(n - rows)]
    INF = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    match = [0] * (n + 1)  # match[j] = row assigned to column j (1-based)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = INF
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    row_to_col = [0] * n
    for j in range(1, n + 1):
        row_to_col[match[j] - 1] = j - 1
    return row_to_col[:rows]


def km_match(graph: BipartiteGraph) -> DeviceMapping:
    """Maximum-weight assignment of GPUs to positions.

    GPUs matched to a padding dummy stay idle; positions matched to one stay
    uncovered (only possible when there are fewer GPUs than positions).
    """
    assignment: dict[GpuRef, TopologyPosition] = {}
    total = 0.0
    for i, j in enumerate(_hungarian_max(graph.weights)):
        if j < len(graph.slots):
            assignment[graph.gpus[i]] = graph.slots[j]
            total += graph.weights[i][j]
    return DeviceMapping(assignment=assignment, total_weight=total)


# ---------------------------------------------------------------------------
# Graph construction

def default_inheritance(d_old: int, d_new: int) -> dict[int, int]:
    """Identity pipeline inheritance on min(D_old, D_new)."""
    return {d: d for d in range(1, min(d_old, d_new) + 1)}


def positional_mapping(layout: Layout, target: ParallelConfig) -> DeviceMapping | None:
    """The layout's GPUs, in their order, fill the positions in order,
    reusing nothing; None when there are too few GPUs."""
    slots = positions(target)
    if len(layout.gpus) < len(slots):
        return None
    return DeviceMapping(assignment=dict(zip(layout.gpus, slots)), total_weight=0.0,
                         config=target)


_PAIRS = 2048  # row pairs per array pass in `_overlap_matrix`


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For consecutive ranges of `counts` elements: each element's range and
    its index inside it."""
    owner = np.arange(len(counts)).repeat(counts)
    return owner, np.arange(len(owner)) - (counts.cumsum() - counts).repeat(counts)


def slot_table(config: ParallelConfig, model: ModelSpec,
               placed: list[tuple[int, TopologyPosition]]) -> np.ndarray:
    """`(owner, position)` pairs as int64 rows (owner, pipeline, first layer,
    end layer, shard), but for positions whose stage has no layers; the
    first position invalid for `config` raises its own error."""
    owner, d, p, m = np.array([(o, pos.pipeline, pos.stage, pos.shard)
                               for o, pos in placed], dtype=np.int64).reshape(-1, 4).T
    bad = ((d < 1) | (d > config.data_parallel) | (p < 1) | (p > config.pipeline_stages)
           | (m < 1) | (m > config.tensor_shards))
    if bad.any():
        placed[bad.nonzero()[0][0]][1].validate_for(config)
    blocks = np.array([(r.start, r.stop) for r in (
        stage_layers(model.num_layers, config.pipeline_stages, stage)
        for stage in range(1, config.pipeline_stages + 1))], dtype=np.int64)
    first, end = blocks[p - 1].T
    return np.array([owner, d, first, end, m]).T[end > first]


def position_rows(slots: np.ndarray, k: int, cache: dict[int, list[tuple[str | None, int]]],
                  keys: dict[str | None, int]) -> np.ndarray:
    """The `Layout` rows of the `required_context` of a `slot_table`'s
    positions on a grid `k` times finer than their shards, owner for GPU:
    each position's pipeline's `cache` entries with positive tokens, by
    request in order of first appearance (the model slice is request None's,
    one token), each request not in `keys` added with the next code."""
    entries: list[tuple[int, int]] = []
    spans: dict[int, tuple[int, int]] = {}
    for d, of_pipeline in cache.items():
        by_rid: dict[str | None, list[int]] = {}
        for rid, tokens in of_pipeline:
            if tokens > 0:
                by_rid.setdefault(rid, []).append(tokens)
        spans[d] = (len(entries), sum(map(len, by_rid.values())))
        entries += [(keys.setdefault(rid, len(keys)), tokens)
                    for rid, counts in by_rid.items() for tokens in counts]
    if not entries:
        return np.empty((0, 7), dtype=np.int64)
    first, count = np.array([spans.get(d, (0, 0)) for d in slots[:, 1].tolist()],
                            dtype=np.int64).reshape(-1, 2).T
    slot, at = _ragged(count)
    code, tokens = np.array(entries, dtype=np.int64).reshape(-1, 2)[first[slot] + at].T
    owner, _, start, stop, shard = slots[slot].T
    return np.column_stack((owner, code, start, stop, (shard - 1) * k, shard * k, tokens))


def _areas(a, b):
    """Overlap areas, in grid units, of `(first, end, lo, hi)` rectangle
    columns a and b, elementwise."""
    layers = np.minimum(a[:, 1], b[:, 1]) - np.maximum(a[:, 0], b[:, 0])
    width = np.minimum(a[:, 3], b[:, 3]) - np.maximum(a[:, 2], b[:, 2])
    return np.maximum(layers, 0) * np.maximum(width, 0)


def _overlap_matrix(held_rows: np.ndarray, n_held: int, need_rows: np.ndarray, n_need: int,
                    keys: dict[str | None, int], den: int, model: ModelSpec) -> list[list[float]]:
    """`overlap_bytes(holding, need, model)` for each of the `n_held`
    holdings and `n_need` needs whose rows on grid 1/den are `held_rows` and
    `need_rows`, with the request codes `keys` gives.

    Rows meet when they belong to the same request, so held rows of a
    request no need has are left out first.  A pair's units are its overlap
    area times the smaller token count.  Each cell sums its model units
    (request code 0) and its cache units (the other codes) apart, and
    `exact_bytes` weighs them by the model's unit bytes and divides by the
    grid, as `overlap_bytes` does.
    """
    per_key = np.bincount(need_rows[:, 1], minlength=len(keys))
    held_rows = held_rows[per_key[held_rows[:, 1]] > 0]

    # each held row meets every need row of its request: sort the need rows
    # by request and pair held rows with their request's run of them, about
    # _PAIRS pairs at a time, so that the temporaries stay small
    need_rows = need_rows[np.argsort(need_rows[:, 1], kind="stable")]
    run_starts = np.cumsum(per_key) - per_key
    pairs_upto = np.cumsum(per_key[held_rows[:, 1]])
    cells = n_held * n_need
    units = np.zeros(2 * cells, dtype=np.int64)  # model units, then cache units
    lo = 0
    while lo < len(held_rows):
        hi = int(np.searchsorted(pairs_upto, pairs_upto[lo] + _PAIRS, "right"))
        rows = held_rows[lo:hi]
        runs = per_key[rows[:, 1]]
        firsts = np.cumsum(runs) - runs
        held = rows[np.repeat(np.arange(len(rows)), runs)]
        need = need_rows[np.repeat(run_starts[rows[:, 1]] - firsts, runs) + np.arange(len(held))]
        np.add.at(units, (held[:, 1] > 0) * cells + held[:, 0] * n_need + need[:, 0],
                  _areas(held[:, 2:6], need[:, 2:6]) * np.minimum(held[:, 6], need[:, 6]))
        lo = hi
    model_units, cache_units = units.reshape(2, cells)
    return exact_bytes((model_units, cache_units),
                       (model.bytes_per_layer, model.kv_bytes_per_token_per_layer),
                       den).reshape(n_held, n_need).tolist()


def build_graph(layout: Layout, target: ParallelConfig, model: ModelSpec,
                inheritance: dict[int, int] | None = None,
                requests_by_old_pipeline: dict[int, list[RequestRecord]] | None = None) -> BipartiteGraph:
    """Edge weights = overlap between each layout GPU's holdings and each position's needs.

    inheritance maps old pipeline index -> new pipeline index (identity prefix
    by default); requests on inherited pipelines contribute cache overlap to
    the inheriting pipeline's positions.  Each weight is the float
    `overlap_bytes` gives for the pair, computed for all pairs at once.
    """
    inherited_by_new: KvCache = {}
    if inheritance and requests_by_old_pipeline:
        for d_old, entries in kv_cache(requests_by_old_pipeline).items():
            if inheritance.get(d_old) is not None:
                inherited_by_new.setdefault(inheritance[d_old], []).extend(entries)

    slots = positions(target)
    den = math.lcm(target.tensor_shards, layout.den)
    table = slot_table(target, model, list(enumerate(slots)))
    keys = {rid: code for code, rid in enumerate(layout.rids)}
    cache = {d: [(None, 1), *inherited_by_new.get(d, ())] for d in range(1, target.data_parallel + 1)}
    need_rows = position_rows(table, den // target.tensor_shards, cache, keys)
    weights = _overlap_matrix(layout.rows_on(den), len(layout.gpus), need_rows, len(slots),
                              keys, den, model)
    return BipartiteGraph(gpus=layout.gpus, slots=slots, weights=weights)


# ---------------------------------------------------------------------------
# Two-step matching for multi-GPU instances

def map_devices(layout: Layout, target: ParallelConfig, model: ModelSpec,
                gpus_per_instance: int,
                inheritance: dict[int, int] | None = None,
                requests_by_old_pipeline: dict[int, list[RequestRecord]] | None = None,
                ) -> DeviceMapping:
    """Two-step device mapping of the layout's GPUs, `gpus_per_instance` per
    instance: fuse, match within fused pairs, match fused graph.

    Group size is min(G, M): an instance's GPUs are fused in index order and a
    (pipeline, stage) row's shards are fused along m, so a fused pair is
    matched by an inner KM whose matching both scores the fused edge (max of
    matched edge weights, the reference rule) and fixes the per-GPU expansion.
    Equal blocks get equal inner matchings, so each distinct block is
    matched once.  At group size 1 every group is a single GPU and the outer
    match on the weight matrix is the only one.
    """
    for inst, gpus in Counter(gpu[0] for gpu in layout.gpus).items():
        if gpus != gpus_per_instance:
            raise MappingError(f"instance {inst} has {gpus} GPUs, expected {gpus_per_instance}")

    graph = build_graph(layout, target, model, inheritance, requests_by_old_pipeline)
    group = min(gpus_per_instance, target.tensor_shards)
    if gpus_per_instance % group or target.tensor_shards % group:
        raise MappingError(
            f"group size {group} must divide both G={gpus_per_instance} and M={target.tensor_shards}"
        )

    # fused GPU group a is rows a*group.., fused position group b columns
    # b*group..; each distinct group x group block is matched once
    n_fused_gpus, n_fused_slots = len(graph.gpus) // group, len(graph.slots) // group
    if group == 1:
        fused_w, perms = graph.weights, [[0]]
        block_of = [[0] * n_fused_slots] * n_fused_gpus
    else:
        blocks = (np.array(graph.weights).reshape(n_fused_gpus, group, n_fused_slots, group)
                  .swapaxes(1, 2).reshape(-1, group * group))
        # blocks with equal bytes share a label; the labels' order is immaterial
        keys = blocks.view(np.dtype((np.void, blocks.itemsize * group * group)))
        _, first, which = np.unique(keys, return_index=True, return_inverse=True)
        subs = blocks[first].reshape(-1, group, group).tolist()
        perms = [_hungarian_max(sub) for sub in subs]
        best = [max(row[k] for row, k in zip(sub, perm)) for sub, perm in zip(subs, perms)]
        block_of = which.reshape(n_fused_gpus, n_fused_slots).tolist()
        fused_w = [[best[u] for u in row] for row in block_of]

    w = graph.weights
    assignment: dict[GpuRef, TopologyPosition] = {}
    total = 0.0
    for a, b in enumerate(_hungarian_max(fused_w)):
        if b >= n_fused_slots:
            continue
        for i, k in enumerate(perms[block_of[a][b]]):
            g, s = a * group + i, b * group + k
            assignment[graph.gpus[g]] = graph.slots[s]
            total += w[g][s]
    return DeviceMapping(assignment=assignment, total_weight=total, config=target)


# ---------------------------------------------------------------------------
# Cache retention

def retain_cache(active_requests: list[RequestRecord], target: ParallelConfig) -> list[RequestRecord]:
    """Requests whose KV cache survives the switch to `target`, in id order.

    The target keeps at most its concurrent-request capacity: the requests
    with the most decoding progress (ties to the lower request id), so all of
    them when they fit; everything else recomputes from scratch.
    """
    ranked = sorted(active_requests, key=lambda r: (-r.tokens_generated, r.id))
    return sorted(ranked[:target.concurrent_requests], key=lambda r: r.id)
