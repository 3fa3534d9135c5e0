"""Shared vocabulary types for parallel serving configurations and cluster state.

A parallel configuration places D independent inference pipelines, each cut
into P stages of contiguous layers, each stage sharded M ways across GPUs.
Every GPU therefore owns a (pipeline, stage, shard) position whose resident
model slice is a contiguous layer block crossed with a tensor-shard fraction
interval.  Byte-level bookkeeping of those slices (plus per-request KV-cache
slices) is what the device mapper and migration planner trade in.
`required_context` is the one builder of those slices, and a GPU's holdings
live in its instance's `gpu_inventories`, which the simulator's engine writes
when it installs a layout.

All types here are plain values; nothing mutates shared state.
"""

import math
import re
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction

# Half-open fraction interval [lo, hi) of a layer's parameters.
Interval = tuple[Fraction, Fraction]

# A GPU is addressed as (instance id, local gpu index).
GpuRef = tuple[str, int]

DEFAULT_BATCH_CHOICES = (1, 2, 4, 8)


class DomainError(ValueError):
    """Raised for values that violate a domain invariant."""


def natural_key(instance_id: str):
    """Sort key that orders i-2 before i-10."""
    parts = re.split(r"(\d+)", instance_id)
    return tuple(int(p) if p.isdigit() else p for p in parts)


@dataclass(frozen=True, order=True)
class ParallelConfig:
    """Parallelization tuple: pipelines x stages x shards, with a batch cap."""

    data_parallel: int
    pipeline_stages: int
    tensor_shards: int
    batch_limit: int

    def __post_init__(self):
        for name in ("data_parallel", "pipeline_stages", "tensor_shards", "batch_limit"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def gpus(self) -> int:
        return self.data_parallel * self.pipeline_stages * self.tensor_shards

    @property
    def concurrent_requests(self) -> int:
        """Total request slots D*B across all pipelines."""
        return self.data_parallel * self.batch_limit

    def instances(self, gpus_per_instance: int) -> int:
        return math.ceil(self.gpus / gpus_per_instance)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.data_parallel, self.pipeline_stages, self.tensor_shards, self.batch_limit)

    def shape(self) -> tuple[int, int, int]:
        """(D, P, M) ignoring the batch cap."""
        return (self.data_parallel, self.pipeline_stages, self.tensor_shards)

    def __str__(self):
        return f"({self.data_parallel},{self.pipeline_stages},{self.tensor_shards},B={self.batch_limit})"


@dataclass(frozen=True, order=True)
class TopologyPosition:
    """1-based (pipeline, stage, shard) slot in a parallel configuration."""

    pipeline: int
    stage: int
    shard: int

    def validate_for(self, config: ParallelConfig):
        ok = (
            1 <= self.pipeline <= config.data_parallel
            and 1 <= self.stage <= config.pipeline_stages
            and 1 <= self.shard <= config.tensor_shards
        )
        if not ok:
            raise DomainError(f"position {self} invalid for config {config}")


def positions(config: ParallelConfig) -> list[TopologyPosition]:
    """All positions of a config in lexicographic (pipeline, stage, shard) order."""
    return [
        TopologyPosition(d, p, m)
        for d in range(1, config.data_parallel + 1)
        for p in range(1, config.pipeline_stages + 1)
        for m in range(1, config.tensor_shards + 1)
    ]


@dataclass(frozen=True)
class ModelSpec:
    """Model memory geometry with a uniform per-layer byte count."""

    name: str
    num_layers: int
    bytes_per_layer: int
    kv_bytes_per_token_per_layer: int

    def __post_init__(self):
        if self.num_layers < 1 or self.bytes_per_layer <= 0:
            raise DomainError("model must have >=1 layers with positive bytes")

    @property
    def total_param_bytes(self) -> int:
        return self.num_layers * self.bytes_per_layer


@dataclass
class RequestSpec:
    """A single inference request and its decoding progress."""

    id: str
    arrival_time: float
    s_in: int
    s_out: int
    tokens_generated: int = 0

    def __post_init__(self):
        if not (0 <= self.tokens_generated <= self.s_out):
            raise DomainError("tokens_generated out of [0, s_out]")

    @property
    def tokens_remaining(self) -> int:
        return self.s_out - self.tokens_generated


# ---------------------------------------------------------------------------
# Context inventories

ModelShard = tuple[int, Fraction, Fraction]  # (layer, lo, hi)
CacheShard = tuple[str, int, Fraction, Fraction, int]  # (request, layer, lo, hi, tokens)


def _check_interval(lo: Fraction, hi: Fraction):
    if not (0 <= lo < hi <= 1):
        raise DomainError(f"interval [{lo},{hi}) must be non-empty inside [0,1)")


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


@dataclass(frozen=True)
class ContextInventory:
    """What one GPU holds: model-parameter shards and KV-cache shards."""

    model_shards: tuple[ModelShard, ...] = ()
    cache_shards: tuple[CacheShard, ...] = ()

    def __post_init__(self):
        for _, lo, hi in self.model_shards:
            _check_interval(lo, hi)
        for _, _, lo, hi, tokens in self.cache_shards:
            _check_interval(lo, hi)
            if tokens < 0:
                raise DomainError("cache tokens must be >= 0")

    @staticmethod
    def empty() -> "ContextInventory":
        return ContextInventory()

    def model_intervals(self, layer: int) -> list[Interval]:
        return [(lo, hi) for lyr, lo, hi in self.model_shards if lyr == layer]

    def cache_entries(self, request_id: str, layer: int) -> list[tuple[Interval, int]]:
        return [
            ((lo, hi), tokens)
            for rid, lyr, lo, hi, tokens in self.cache_shards
            if rid == request_id and lyr == layer
        ]

    def model_bytes(self, model: ModelSpec) -> float:
        total = Fraction(0)
        for _, lo, hi in self.model_shards:
            total += (hi - lo) * model.bytes_per_layer
        return float(total)


@dataclass
class InstanceState:
    """One cloud instance and its lifecycle status."""

    id: str
    kind: str  # "spot" | "ondemand"
    gpus: int
    status: str = "active"  # allocating | active | grace_preempting | released
    grace_deadline: float | None = None
    ready_at: float | None = None
    gpu_inventories: list[ContextInventory] = field(default_factory=list)

    _STATUSES = ("allocating", "active", "grace_preempting", "released")

    def __post_init__(self):
        if self.kind not in ("spot", "ondemand"):
            raise DomainError(f"unknown instance kind {self.kind!r}")
        if self.status not in self._STATUSES:
            raise DomainError(f"unknown status {self.status!r}")
        if self.status == "grace_preempting" and self.grace_deadline is None:
            raise DomainError("grace_preempting requires a deadline")
        if not self.gpu_inventories:
            self.gpu_inventories = [ContextInventory.empty() for _ in range(self.gpus)]

    def gpu_refs(self) -> list[GpuRef]:
        return [(self.id, g) for g in range(self.gpus)]


# ---------------------------------------------------------------------------
# Layout helpers

def stage_layers(num_layers: int, pipeline_stages: int, stage: int) -> range:
    """Contiguous layer block of a 1-based stage.

    Layers split into ceil(L/P)-sized blocks for the first L mod P stages and
    floor(L/P) afterwards, so earlier stages absorb the remainder.
    """
    if not (1 <= stage <= pipeline_stages):
        raise DomainError(f"stage {stage} out of 1..{pipeline_stages}")
    base = num_layers // pipeline_stages
    extra = num_layers % pipeline_stages
    start = (stage - 1) * base + min(stage - 1, extra)
    size = base + (1 if stage - 1 < extra else 0)
    return range(start, start + size)


def shard_interval(tensor_shards: int, shard: int) -> Interval:
    """[(m-1)/M, m/M) fraction of every layer owned by 1-based shard m."""
    return (Fraction(shard - 1, tensor_shards), Fraction(shard, tensor_shards))


def required_context(config: ParallelConfig, pos: TopologyPosition, model: ModelSpec,
                     cache: Iterable[tuple[str, int]] = ()) -> ContextInventory:
    """Context a position must hold: its model slice, plus the KV cache of each
    `(request id, tokens)` entry in `cache` on every layer of its stage.

    Cache shards run request-major, then layer; entries with no tokens hold
    nothing and are skipped.
    """
    pos.validate_for(config)
    lo, hi = shard_interval(config.tensor_shards, pos.shard)
    layers = stage_layers(model.num_layers, config.pipeline_stages, pos.stage)
    return ContextInventory(
        model_shards=tuple((lyr, lo, hi) for lyr in layers),
        cache_shards=tuple((rid, lyr, lo, hi, tokens)
                           for rid, tokens in cache if tokens > 0 for lyr in layers),
    )


KvCache = dict[int, list[tuple[str, int]]]  # pipeline -> [(request id, tokens)]


def kv_cache(requests_by_pipeline: dict[int, list[RequestSpec]]) -> KvCache:
    """The `(request id, tokens)` cache entries of each pipeline's requests,
    prompt plus generated tokens, in request-id order."""
    return {d: [(r.id, r.s_in + r.tokens_generated) for r in sorted(reqs, key=lambda r: r.id)]
            for d, reqs in sorted(requests_by_pipeline.items())}


def overlap_bytes(a: ContextInventory, b: ContextInventory, model: ModelSpec) -> float:
    """Bytes of context shared by two inventories.

    Model shards overlap per-layer by interval intersection; cache shards
    overlap per (request, layer) weighted by the smaller token count.
    """
    total = Fraction(0)
    b_by_layer: dict[int, list[Interval]] = {}
    for lyr, lo, hi in b.model_shards:
        b_by_layer.setdefault(lyr, []).append((lo, hi))
    for lyr, lo, hi in a.model_shards:
        for other in b_by_layer.get(lyr, ()):
            total += intersect((lo, hi), other) * model.bytes_per_layer

    b_cache: dict[tuple[str, int], list[tuple[Interval, int]]] = {}
    for rid, lyr, lo, hi, tokens in b.cache_shards:
        b_cache.setdefault((rid, lyr), []).append(((lo, hi), tokens))
    for rid, lyr, lo, hi, tokens in a.cache_shards:
        for other_iv, other_tokens in b_cache.get((rid, lyr), ()):
            weight = min(tokens, other_tokens) * model.kv_bytes_per_token_per_layer
            total += intersect((lo, hi), other_iv) * weight
    return float(total)
