"""Reference layer order: the quadratic greedy `migration.memopt_layer_order`
must reproduce exactly.

It admits layers in index order while the cap holds, then at each step
compares every deferred layer and takes the one whose migration leaves the
lowest worst-instance usage (ties to the lower layer index).  Like the
library it makes no comparison with the index order: that fallback belongs
to the plan replay.  It evaluates each deferred layer at each step, O(L^2)
peak evaluations, where the library compares only the lowest deferred layer
of each distinct incoming traffic.
`layer_traffic` sums a derivation's per-layer traffic transfer by transfer.
"""

from spotsim.migration import LayerTraffic


def layer_traffic(derived, num_layers: int) -> dict[int, LayerTraffic]:
    """Every layer's traffic in the records of a `derive_transfers` result
    (`Derivation.records()`)."""
    model_transfers, _, layer_releases, _ = derived
    traffic = {}
    for layer in range(num_layers):
        t = LayerTraffic()
        for tr in model_transfers.get(layer, ()):
            t.incoming[tr.dst[0]] = t.incoming.get(tr.dst[0], 0.0) + tr.bytes
        for inst, b in layer_releases.get(layer, {}).items():
            t.freed[inst] = t.freed.get(inst, 0.0) + b
        traffic[layer] = t
    return traffic


def peak_if_applied(usage: dict[str, float], traffic: LayerTraffic, floor: float) -> float:
    peak = floor
    for inst, b in traffic.incoming.items():
        peak = max(peak, usage.get(inst, 0.0) + b)
    return peak


def apply(usage: dict[str, float], traffic: LayerTraffic):
    for inst, b in traffic.incoming.items():
        usage[inst] = usage.get(inst, 0.0) + b
    for inst, b in traffic.freed.items():
        usage[inst] = usage.get(inst, 0.0) - b


def reference_layer_order(traffic_by_layer: dict[int, LayerTraffic],
                          u_max: float | None) -> list[int]:
    usage: dict[str, float] = {}
    order: list[int] = []
    deferred: list[int] = []
    for layer in sorted(traffic_by_layer):
        traffic = traffic_by_layer[layer]
        if u_max is None or peak_if_applied(usage, traffic,
                                            max(usage.values(), default=0.0)) <= u_max:
            apply(usage, traffic)
            order.append(layer)
        else:
            deferred.append(layer)
    while deferred:
        floor = max(usage.values(), default=0.0)
        best = min(deferred, key=lambda x: (peak_if_applied(usage, traffic_by_layer[x], floor), x))
        apply(usage, traffic_by_layer[best])
        order.append(best)
        deferred.remove(best)
    return order
