"""Device mapping: assign GPUs to topology positions by max-weight matching.

Edge weights are reusable bytes (model context overlap plus KV-cache overlap
for requests the target pipeline inherits), so a maximum-weight assignment is
exactly the one minimizing migration traffic.  Every instance size goes
through the same two-step matching: GPUs are fused per instance and positions
per tensor-parallel group, an inner match fixes the per-GPU pairing inside
each fused pair, and an outer match assigns fused groups.  A single-GPU
instance is a fused group of one, where the two steps are the flat match.
"""

from collections import Counter
from dataclasses import dataclass

from .domain import (
    GpuRef,
    KvCache,
    Layout,
    ModelSpec,
    ParallelConfig,
    RequestRecord,
    TopologyPosition,
    kv_cache,
    natural_key,
    overlap_bytes,
    positions,
    required_context,
)


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
            if any(w < 0 for w in row):
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
    augmenting-path form, O(n^3).  Columns are scanned in ascending order so
    ties resolve to the lexicographically least matching.
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


def _sorted_gpus(gpus) -> list[GpuRef]:
    """GPUs by instance id in natural order (ties to the plain id), then by index."""
    ids = sorted({gpu[0] for gpu in gpus}, key=lambda inst: (natural_key(inst), inst))
    rank = {inst: k for k, inst in enumerate(ids)}
    return sorted(gpus, key=lambda gpu: (rank[gpu[0]], gpu[1]))


def positional_mapping(gpus: list[GpuRef], target: ParallelConfig) -> DeviceMapping | None:
    """The GPUs, in instance-id then index order, fill the positions in order,
    reusing nothing; None when there are too few GPUs."""
    slots = positions(target)
    if len(gpus) < len(slots):
        return None
    return DeviceMapping(assignment=dict(zip(_sorted_gpus(gpus), slots)), total_weight=0.0,
                         config=target)


def build_graph(layout: Layout, target: ParallelConfig, model: ModelSpec,
                inheritance: dict[int, int] | None = None,
                requests_by_old_pipeline: dict[int, list[RequestRecord]] | None = None) -> BipartiteGraph:
    """Edge weights = overlap between each layout GPU's holdings and each position's needs.

    inheritance maps old pipeline index -> new pipeline index (identity prefix
    by default); requests on inherited pipelines contribute cache overlap to
    the inheriting pipeline's positions.
    """
    gpus = _sorted_gpus(layout)

    inherited_by_new: KvCache = {}
    if inheritance and requests_by_old_pipeline:
        for d_old, entries in kv_cache(requests_by_old_pipeline).items():
            if inheritance.get(d_old) is not None:
                inherited_by_new.setdefault(inheritance[d_old], []).extend(entries)

    slots = positions(target)
    needs = [
        required_context(target, pos, model, inherited_by_new.get(pos.pipeline, ()))
        for pos in slots
    ]
    weights = [[overlap_bytes(layout[gpu], need, model) for need in needs] for gpu in gpus]
    return BipartiteGraph(gpus=gpus, slots=slots, weights=weights)


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
    At G = 1 every group is a single GPU and the outer match is the flat one.
    """
    for inst, gpus in Counter(gpu[0] for gpu in layout).items():
        if gpus != gpus_per_instance:
            raise MappingError(f"instance {inst} has {gpus} GPUs, expected {gpus_per_instance}")

    graph = build_graph(layout, target, model, inheritance, requests_by_old_pipeline)
    group = min(gpus_per_instance, target.tensor_shards)
    if gpus_per_instance % group or target.tensor_shards % group:
        raise MappingError(
            f"group size {group} must divide both G={gpus_per_instance} and M={target.tensor_shards}"
        )

    # fused GPU group a is rows a*group.., fused position group b columns b*group..
    w = graph.weights
    n_fused_gpus, n_fused_slots = len(graph.gpus) // group, len(graph.slots) // group
    perms: dict[tuple[int, int], list[int]] = {}
    fused_w = [[0.0] * n_fused_slots for _ in range(n_fused_gpus)]
    for a in range(n_fused_gpus):
        rows = w[a * group:(a + 1) * group]
        for b in range(n_fused_slots):
            sub = [row[b * group:(b + 1) * group] for row in rows]
            perm = perms[a, b] = _hungarian_max(sub)
            fused_w[a][b] = max(sub[i][perm[i]] for i in range(group))

    assignment: dict[GpuRef, TopologyPosition] = {}
    total = 0.0
    for a, b in enumerate(_hungarian_max(fused_w)):
        if b >= n_fused_slots:
            continue
        for i, k in enumerate(perms[a, b]):
            g, s = a * group + i, b * group + k
            assignment[graph.gpus[g]] = graph.slots[s]
            total += w[g][s]
    return DeviceMapping(assignment=assignment, total_weight=total, config=target)


# ---------------------------------------------------------------------------
# Cache retention

def retain_cache(active_requests: list[RequestRecord], current: ParallelConfig,
                 target: ParallelConfig) -> list[RequestRecord]:
    """Requests whose KV cache survives a capacity shrink.

    When the target handles fewer concurrent requests, the ones with the most
    decoding progress are kept (ties to the lower request id); everything else
    recomputes from scratch after the switch.
    """
    capacity = target.concurrent_requests
    if current.concurrent_requests <= capacity and len(active_requests) <= capacity:
        return sorted(active_requests, key=lambda r: r.id)
    ranked = sorted(active_requests, key=lambda r: (-r.tokens_generated, r.id))
    return sorted(ranked[:capacity], key=lambda r: r.id)
