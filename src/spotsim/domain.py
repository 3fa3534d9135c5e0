"""Shared vocabulary types for parallel serving configurations and cluster state.

A parallel configuration places D independent inference pipelines, each cut
into P stages of contiguous layers, each stage sharded M ways across GPUs.
Every GPU therefore owns a (pipeline, stage, shard) position whose resident
model slice is a contiguous layer block crossed with a tensor-shard fraction
interval.  Byte-level bookkeeping of those slices (plus per-request KV-cache
slices) is what the device mapper and migration planner trade in.
A `Layout` is what the live GPUs hold, as one table of integer rows
`(gpu, request code, first, end, lo, hi, tokens)` on one grid: the one form
of GPU context the mapper, the planner and the simulator's installed
context share; a GPU with no rows holds nothing.  The engine builds its
tables from positions with `mapping.position_rows`, the builder the mapper
and the planner lay needs out with.  `required_context` gives one
position's slices as a `ContextInventory`, and `Layout.of` is the one
conversion of inventories into a table.

Context geometry is integer: an inventory or a table holds rectangles on a
grid of 1/den, each a half-open layer block [first, end) crossed with a
half-open parameter interval [lo/den, hi/den), carrying a token count, by
request.
Model context is the KV cache of request None holding one token, weighted by
`ModelSpec.unit_bytes`, so code that needs no other distinction walks both
kinds in one loop.
A position's context lives on the grid 1/M of its shard count, and two
grids meet on the lcm of theirs.  A byte count is integer grid units times
integer unit bytes over the grid, and `exact_bytes` is the rule that turns
units into bytes: each count is the exact rational rounded once, as
`float(Fraction)` would give.  The mapper and the planner both call it on
their unit arrays.  `overlap_bytes` is the per-pair reference for two
inventories; it divides Python ints once and costs O(1) per pair of
rectangles of a request both hold, independent of the number of layers.

All types here are plain values; nothing mutates shared state.
"""

import functools
import math
import numbers
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

# A GPU is addressed as (instance id, local gpu index).
GpuRef = tuple[str, int]

# Remote storage as a plan's sender of model pieces no live GPU holds; no
# instance may take its id.
STORAGE: GpuRef = ("storage", 0)

INSTANCE_KINDS = ("spot", "ondemand")


class DomainError(ValueError):
    """Raised for values that violate a domain invariant."""


@functools.cache
def natural_key(instance_id: str):
    """Sort key that orders i-2 before i-10: the pair (parts, id), with digit
    runs compared as numbers and the id ordering ids that read the same.
    Cached, since a run sorts its few instance ids again and again."""
    parts = re.split(r"(\d+)", instance_id)
    return tuple(int(p) if p.isdigit() else p for p in parts), instance_id


def gpu_order(gpus) -> list[GpuRef]:
    """GPUs by instance id in `natural_key` order, then by index."""
    return sorted(gpus, key=lambda gpu: (natural_key(gpu[0]), gpu[1]))


def is_count(value, low: int) -> bool:
    """Whether `value` is an integer (any integral type but bool) >= `low`."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low


def is_real(value) -> bool:
    """Whether `value` is a real number (any real type but bool)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def as_real(value) -> float:
    """`value` as a float; TypeError unless `is_real(value)`, so that a string
    or a boolean read from a file is not taken for a number."""
    if not is_real(value):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


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
        if not (is_count(self.num_layers, 1) and is_count(self.bytes_per_layer, 1)
                and is_count(self.kv_bytes_per_token_per_layer, 0)):
            raise DomainError("model must have an integer number of layers >= 1, positive "
                              "integer bytes per layer and non-negative integer KV bytes")

    @property
    def total_param_bytes(self) -> int:
        return self.num_layers * self.bytes_per_layer

    def unit_bytes(self, request: str | None) -> int:
        """Bytes per layer, full parameter interval and token of `request`'s
        context; model context is request None's."""
        return self.bytes_per_layer if request is None else self.kv_bytes_per_token_per_layer


@dataclass
class RequestRecord:
    """One inference request: its shape, decoding progress and latencies."""

    id: str
    arrival: float
    s_in: int
    s_out: int
    dispatch: float | None = None  # first dispatch
    completion: float | None = None
    tokens_generated: int = 0

    @property
    def done(self) -> bool:
        return self.completion is not None

    @property
    def l_sch(self) -> float | None:
        return None if self.dispatch is None else self.dispatch - self.arrival

    @property
    def l_exe(self) -> float | None:
        if self.completion is None or self.dispatch is None:
            return None
        return self.completion - self.dispatch

    @property
    def l_req(self) -> float | None:
        return None if self.completion is None else self.completion - self.arrival


# ---------------------------------------------------------------------------
# Context inventories

CacheRect = tuple[int, int, int, int, int]  # (first layer, end layer, lo, hi, tokens) on the grid


class ContextInventory:
    """What one GPU holds, as rectangles on a grid of 1/`den`.

    `rects` maps a request id to its (first layer, end layer, lo, hi, tokens)
    rectangles: layers [first, end) crossed with the parameter fraction
    [lo/den, hi/den).  Model context is request None's, one token per
    rectangle, and comes first; a request holding nothing has no entry.  The
    layer blocks of one request are equal or disjoint, in layer order;
    rectangles sharing a block keep the per-layer order of their intervals.
    Inventories are values: nothing mutates them after construction.
    """

    __slots__ = ("den", "rects")

    def __init__(self, den: int, rects: dict[str | None, tuple[CacheRect, ...]]):
        self.den, self.rects = den, rects

    @staticmethod
    def empty() -> "ContextInventory":
        return ContextInventory(1, {})

    def __eq__(self, other):
        if not isinstance(other, ContextInventory):
            return NotImplemented
        return self.den == other.den and self.rects == other.rects

    def __hash__(self):
        return hash((self.den, frozenset(self.rects.items())))

    def __repr__(self):
        return f"ContextInventory(den={self.den}, rects={self.rects!r})"


_NO_ROWS = np.empty((0, 7), dtype=np.int64)


class Layout:
    """What the live GPUs hold, as one table of rows on a grid of 1/`den`.

    `gpus` lists the GPUs in `gpu_order`.  `rows` is an int64 array of rows
    `(gpu, request code, first, end, lo, hi, tokens)`: `gpu` indexes `gpus`,
    and the rectangle is the layers [first, end) crossed with the parameter
    fraction [lo/den, hi/den).  `rids` gives each code's request id, code 0
    being the model's (request None, one token per row).  Rows come GPU by
    GPU, each GPU's in the order its inventory lists them (the model's
    first); a GPU with no rows holds nothing.  Codes only name requests: two
    tables are equal when they hold the same GPUs, grid and rows with the
    same request ids.  Nothing writes to a table after construction.
    """

    __slots__ = ("gpus", "den", "rows", "rids")

    def __init__(self, gpus: list[GpuRef], den: int = 1, rows: np.ndarray = _NO_ROWS,
                 rids: Sequence[str | None] = (None,)):
        self.gpus, self.den, self.rows, self.rids = gpus, den, rows, rids

    @classmethod
    def of(cls, holdings: dict[GpuRef, ContextInventory]) -> "Layout":
        """The table of each GPU's inventory, on the lcm grid of their grids,
        request codes in order of first appearance."""
        gpus = gpu_order(holdings)
        den = math.lcm(*(inv.den for inv in holdings.values()))
        keys: dict[str | None, int] = {None: 0}
        rows: list[tuple] = []
        for g, gpu in enumerate(gpus):
            inv = holdings[gpu]
            k = den // inv.den
            for rid, of_request in inv.rects.items():
                code = keys.setdefault(rid, len(keys))
                rows += [(g, code, f, e, lo * k, hi * k, t) for f, e, lo, hi, t in of_request]
        return cls(gpus, den, np.array(rows, dtype=np.int64).reshape(-1, 7), list(keys))

    def rows_on(self, den: int) -> np.ndarray:
        """A copy of the rows on the grid 1/`den`, a multiple of this table's
        grid."""
        rows = self.rows.copy()
        rows[:, 4:6] *= den // self.den
        return rows

    def _named(self) -> list[tuple]:
        """The rows with each code replaced by its request id."""
        return [(g, self.rids[code], *rect) for g, code, *rect in self.rows.tolist()]

    def __eq__(self, other):
        if not isinstance(other, Layout):
            return NotImplemented
        return (self.gpus, self.den, self._named()) == (other.gpus, other.den, other._named())

    def __repr__(self):
        return f"Layout(gpus={self.gpus!r}, den={self.den}, rows={self._named()!r})"


@dataclass
class InstanceState:
    """One cloud instance and its lifecycle status; what its GPUs hold lives
    in a `Layout`, not here."""

    id: str
    kind: str  # "spot" | "ondemand"
    gpus: int
    status: str = "active"  # allocating | active | grace_preempting | released
    grace_deadline: float | None = None
    ready_at: float | None = None

    _STATUSES = ("allocating", "active", "grace_preempting", "released")

    def __post_init__(self):
        if self.kind not in INSTANCE_KINDS:
            raise DomainError(f"unknown instance kind {self.kind!r}")
        if self.status not in self._STATUSES:
            raise DomainError(f"unknown status {self.status!r}")
        if self.status == "grace_preempting" and self.grace_deadline is None:
            raise DomainError("grace_preempting requires a deadline")

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


def required_context(config: ParallelConfig, pos: TopologyPosition, model: ModelSpec,
                     cache: Iterable[tuple[str, int]] = ()) -> ContextInventory:
    """Context a position must hold: its model slice, plus the KV cache of each
    `(request id, tokens)` entry in `cache` on every layer of its stage.

    On the grid 1/M this is one rectangle per request, the stage's layer block
    times the shard's interval: request None's (the model slice) first, then
    the cache entries'; entries with no tokens hold nothing and are skipped.
    """
    pos.validate_for(config)
    layers = stage_layers(model.num_layers, config.pipeline_stages, pos.stage)
    if not layers:
        return ContextInventory.empty()
    block = (layers.start, layers.stop, pos.shard - 1, pos.shard)
    rects: dict[str | None, tuple[CacheRect, ...]] = {None: (block + (1,),)}
    for rid, tokens in cache:
        if tokens > 0:
            rects[rid] = rects.get(rid, ()) + (block + (tokens,),)
    return ContextInventory(config.tensor_shards, rects)


KvCache = dict[int, list[tuple[str, int]]]  # pipeline -> [(request id, tokens)]


def kv_cache(requests_by_pipeline: dict[int, list[RequestRecord]]) -> KvCache:
    """The `(request id, tokens)` cache entries of each pipeline's requests,
    prompt plus generated tokens, in request-id order."""
    return {d: [(r.id, r.s_in + r.tokens_generated) for r in sorted(reqs, key=lambda r: r.id)]
            for d, reqs in sorted(requests_by_pipeline.items())}


def overlap_bytes(a: ContextInventory, b: ContextInventory, model: ModelSpec) -> float:
    """Bytes of context shared by two inventories.

    Rectangles of the same request overlap by layer-block times interval
    intersection, weighted by the smaller token count and the request's
    `unit_bytes`.  The sum is taken in grid units and divided once, so the
    result is the exact byte count rounded once to a float.
    """
    den = math.lcm(a.den, b.den)
    ka, kb = den // a.den, den // b.den
    if len(a.rects) > len(b.rects):
        a, b, ka, kb = b, a, kb, ka
    units = 0
    for rid, rects in a.rects.items():
        shared = 0
        for b0, b1, b_lo, b_hi, b_tokens in b.rects.get(rid, ()):
            b_lo, b_hi = b_lo * kb, b_hi * kb
            for a0, a1, a_lo, a_hi, a_tokens in rects:
                layers = (a1 if a1 < b1 else b1) - (a0 if a0 > b0 else b0)
                if layers > 0:
                    a_lo, a_hi = a_lo * ka, a_hi * ka
                    width = (a_hi if a_hi < b_hi else b_hi) - (a_lo if a_lo > b_lo else b_lo)
                    if width > 0:
                        shared += layers * width * (a_tokens if a_tokens < b_tokens else b_tokens)
        units += shared * model.unit_bytes(rid)
    return units / den


def exact_bytes(units: Sequence[np.ndarray], weights: Sequence[int], den: int) -> np.ndarray:
    """The sum over k of `units[k] * weights[k] / den`, element by element,
    for int64 unit arrays of one shape and integer weights: the exact
    rational rounded once, the float `n * w / den` gives for Python ints.

    When the sum of each array's largest magnitude times its weight's stays
    below 2**53 (taken in Python ints, since units may be negative) and so
    does `den`, float64 holds every product and partial sum exactly and the
    one division rounds once.  Otherwise each element is divided as Python
    ints.  The float sum starts from +0.0, so a zero is never -0.0.
    """
    weights = [int(w) for w in weights]
    reach = [max(-int(u.min(initial=0)), int(u.max(initial=0))) for u in units]
    if den < 2**53 and sum(r * abs(w) for r, w in zip(reach, weights)) < 2**53:
        total = np.zeros(units[0].shape)
        for u, w, r in zip(units, weights, reach):
            if r and w:
                total += u * float(w)
        return total / den
    rows = zip(*(u.ravel().tolist() for u in units))
    return np.array([sum(n * w for n, w in zip(row, weights)) / den for row in rows],
                    dtype=float).reshape(units[0].shape)
