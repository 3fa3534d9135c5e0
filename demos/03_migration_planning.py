"""Progressive, buffer-bounded migration planning.

Plans the reshard of a 12-layer model from (P=2,M=8) to (P=3,M=4) on sixteen
GPUs while one request is in flight: its KV cache moves first, one transfer
per layer run, layers follow in a memory-aware order, one round per layer,
and each pipeline stage starts serving as soon as its context is complete, so
the service stall is far below the full transfer time.  Also shows the buffer
accounting that motivates the layer order and the JSON `plan_to_dict` writes.
"""

import json

from spotsim import (
    ModelSpec,
    Layout,
    ParallelConfig,
    bundled_path,
    derive_transfers,
    load_profile,
    map_devices,
    migration_cost,
    plan_migration,
    plan_to_dict,
    positions,
    required_context,
)

model = ModelSpec(name="demo-12l", num_layers=12, bytes_per_layer=1_500_000_000,
                  kv_bytes_per_token_per_layer=262_144)
old = ParallelConfig(1, 2, 8, 1)
new = ParallelConfig(1, 3, 4, 1)
cache = {1: [("r-1", 640)]}  # pipeline 1 serves one request of 640 tokens

layout = Layout.of({(f"g{k}", 0): required_context(old, pos, model, cache[1])
                    for k, pos in enumerate(positions(old))})

mapping = map_devices(layout, new, model, gpus_per_instance=1)
# what moves depends only on the mapping and the layout; the buffer cap only
# orders it, so one derivation is assembled under both caps below
derived = derive_transfers(mapping, layout, model, cache)
plan = plan_migration(mapping, layout, model, derived, u_max=3e9)

print(f"=== Plan for {old} -> {new} ===")
print(f"reused bytes: {mapping.total_weight / 1e9:6.2f} GB")
print(f"moved bytes:  {plan.total_bytes() / 1e9:6.2f} GB in "
      f"{sum(1 for a in plan.actions if a.transfers)} transfer rounds")

print("\nround order (note the early stage starts):")
for a in plan.actions:
    if a.kind == "start_stage":
        print(f"  >> stage {a.stage} starts serving")
    elif a.kind == "migrate_cache":
        moved = sum(t.bytes for t in a.transfers) / 1e9
        layers = sum(t.layers for t in a.transfers)
        print(f"  cache round: {len(a.transfers)} transfers over {layers} layer pieces, "
              f"{moved:5.2f} GB")
    else:
        moved = sum(t.bytes for t in a.transfers) / 1e9
        print(f"  layer {a.layer:2d}: {len(a.transfers)} transfers, {moved:5.2f} GB")

prof = load_profile(bundled_path("gpt-20b"))  # for its interconnect parameters
full = migration_cost(plan, prof)
stall = migration_cost(plan, prof, config=new)
print(f"\nfull transfer time:        {full:6.2f} s")
print(f"progressive service stall: {stall:6.2f} s")

print("\nper-instance peak buffer growth (GB):")
for inst, peak in sorted(plan.peak_usage.items()):
    if peak > 0:
        print(f"  {inst:>4}: {peak / 1e9:5.2f}")

capped = plan_migration(mapping, layout, model, derived, u_max=1e9)
print(f"\nwith a 1 GB buffer cap the order defers hot layers:")
print("  order:", [a.layer for a in capped.actions if a.kind == "migrate_layer"])
print(f"  peak:  {max(capped.peak_usage.values()) / 1e9:.2f} GB "
      f"(uncapped order peaks at {max(plan.peak_usage.values()) / 1e9:.2f} GB)")

doc = plan_to_dict(capped)
print("\nplan JSON (first transfer of the first round):")
first = next(a for a in doc["actions"] if a.get("transfers"))
print(json.dumps({"kind": first["kind"], "transfers": first["transfers"][:1]}, indent=2))
