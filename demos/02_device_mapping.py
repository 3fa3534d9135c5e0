"""Device mapping as maximum-weight bipartite matching.

Recreates the classic remapping picture: a cluster serving (D=2,P=2,M=2) is
asked to switch to (D=2,P=3,M=1).  Edge weights between GPUs and the new
topology positions are the bytes of reusable context; KM picks the assignment
that minimizes migration traffic, and KV-cache overlap breaks ties between
model-equivalent positions.  The second half shows the two-step (fused)
matching used when instances carry several GPUs.
"""

from spotsim import (
    Layout,
    ModelSpec,
    ParallelConfig,
    RequestRecord,
    build_graph,
    km_match,
    map_devices,
    positions,
    required_context,
)
from spotsim.mapping import default_inheritance

model = ModelSpec(name="demo-6l", num_layers=6, bytes_per_layer=600_000_000,
                  kv_bytes_per_token_per_layer=262_144)
old = ParallelConfig(2, 2, 2, 1)
new = ParallelConfig(2, 3, 1, 1)

# eight single-GPU instances, loaded with the old layout in id order
layout = {}
request = RequestRecord(id="r-42", arrival=0.0, s_in=512, s_out=128, tokens_generated=64)
for k, pos in enumerate(positions(old)):
    # pipeline 1 is mid-request: it holds r-42's cache
    cache = [(request.id, request.s_in + request.tokens_generated)] if pos.pipeline == 1 else []
    layout[(f"u{k}", 0)] = required_context(old, pos, model, cache)

graph = build_graph(Layout.of(layout), new, model,
                    inheritance=default_inheritance(2, 2),
                    requests_by_old_pipeline={1: [request]})

print("=== Reusable bytes (GB) between each GPU and each new position ===")
header = "        " + "".join(f"{f'({s.pipeline},{s.stage},{s.shard})':>10}" for s in graph.slots)
print(header)
for i, gpu in enumerate(graph.gpus):
    row = "".join(f"{w / 1e9:>10.2f}" for w in graph.weights[i])
    print(f"  {gpu[0]:>4}  {row}")

mapping = km_match(graph)
print(f"\nKM assignment (total reuse {mapping.total_weight / 1e9:.2f} GB):")
for gpu in graph.gpus:
    pos = mapping.assignment.get(gpu)
    where = f"-> ({pos.pipeline},{pos.stage},{pos.shard})" if pos else "-> idle"
    print(f"  {gpu[0]:>4} {where}")

required = new.data_parallel * model.total_param_bytes  # every pipeline holds the whole model
print(f"\nBytes that must still move: {(required - mapping.total_weight) / 1e9:.2f} GB "
      f"(required {required / 1e9:.2f} GB minus reuse)")

print("\n=== Two-step matching with 2-GPU instances ===")
fused_old = ParallelConfig(1, 2, 2, 1)
# instance node{k} holds stage k+1, one tensor shard per GPU
multi = {(f"node{pos.stage - 1}", pos.shard - 1): required_context(fused_old, pos, model)
         for pos in positions(fused_old)}
fused = map_devices(Layout.of(multi), fused_old, model, gpus_per_instance=2)
print("Each instance is fused with its tensor group; stages stay instance-local:")
for (iid, g), pos in sorted(fused.assignment.items()):
    print(f"  {iid}/gpu{g} -> stage {pos.stage}, shard {pos.shard}")
