"""Per-edge, per-block device mapping: the reference the array mapper must match.

`build_graph` here calls `overlap_bytes` once per GPU x position pair, and
`map_devices` runs one inner `_hungarian_max` for every fused GPU group x fused
position group, also at group size 1.  That is the plain form of the two-step
match; `spotsim.mapping` builds the weights from rectangle arrays and matches
each distinct inner block once, so tests compare the two value for value.
"""

import math
from collections import Counter

from spotsim.domain import gpu_order, kv_cache, overlap_bytes, positions, required_context
from spotsim.mapping import BipartiteGraph, DeviceMapping, MappingError, _hungarian_max


def needs(target, model, inheritance=None, requests_by_old_pipeline=None):
    """Each target position's required context, with the KV cache its
    pipeline inherits."""
    inherited_by_new = {}
    if inheritance and requests_by_old_pipeline:
        for d_old, entries in kv_cache(requests_by_old_pipeline).items():
            if inheritance.get(d_old) is not None:
                inherited_by_new.setdefault(inheritance[d_old], []).extend(entries)
    return [required_context(target, pos, model, inherited_by_new.get(pos.pipeline, ()))
            for pos in positions(target)]


def build_graph(layout, target, model, inheritance=None, requests_by_old_pipeline=None):
    gpus = gpu_order(layout)
    wanted = needs(target, model, inheritance, requests_by_old_pipeline)
    weights = [[overlap_bytes(layout[gpu], need, model) for need in wanted] for gpu in gpus]
    return BipartiteGraph(gpus=gpus, slots=positions(target), weights=weights)


def map_devices(layout, target, model, gpus_per_instance, inheritance=None,
                requests_by_old_pipeline=None):
    for inst, gpus in Counter(gpu[0] for gpu in layout).items():
        if gpus != gpus_per_instance:
            raise MappingError(f"instance {inst} has {gpus} GPUs, expected {gpus_per_instance}")
    graph = build_graph(layout, target, model, inheritance, requests_by_old_pipeline)
    group = math.gcd(gpus_per_instance, target.tensor_shards)
    w = graph.weights
    n_fused_gpus, n_fused_slots = len(graph.gpus) // group, len(graph.slots) // group
    perms = {}
    fused_w = [[0.0] * n_fused_slots for _ in range(n_fused_gpus)]
    for a in range(n_fused_gpus):
        rows = w[a * group:(a + 1) * group]
        for b in range(n_fused_slots):
            sub = [row[b * group:(b + 1) * group] for row in rows]
            perm = perms[a, b] = _hungarian_max(sub)
            fused_w[a][b] = max(sub[i][perm[i]] for i in range(group))

    assignment = {}
    total = 0.0
    for a, b in enumerate(_hungarian_max(fused_w)):
        if b >= n_fused_slots:
            continue
        for i, k in enumerate(perms[a, b]):
            g, s = a * group + i, b * group + k
            assignment[graph.gpus[g]] = graph.slots[s]
            total += float(w[g][s])
    return DeviceMapping(assignment=assignment, total_weight=total, config=target)
