"""Deterministic discrete-event simulation of preemptible-instance serving.

The engine replays an availability trace against a request arrival stream and
lets a policy react to every preemption/acquisition notification.  Execution
costs come from the profile: a batch's own latency is prefill + S_out decode
steps, while its pipeline frees a dispatch slot every latency/(P * eta)
seconds (pipelined batches overlap, which is what makes the cost model's
throughput phi attainable).  Progress commits at decode-iteration boundaries,
so a policy can pause a batch mid-decode, migrate its KV cache, and resume it
elsewhere without losing tokens.  A request whose last token commits inside
the horizon is complete, whatever its batch does next.

GPU context lives once, in `Engine.holdings`, the installed GPUs' model rows
as a `domain.Layout`: the engine builds it only when it installs a layout.
`Engine.layout_snapshot` narrows it to the live GPUs and adds the rows of
the in-flight requests' KV cache (see `domain.kv_cache`) for a decision, so
no decision builds an inventory.  The mapper and the planner both take that
snapshot as it is.  The bill's data lives on each `InstanceState`, held from
`acquired_at` to `released_at` (or the horizon), and `Engine.usage` lists it.
A request's committed tokens live on the request alone.

Determinism: events at equal timestamps order trace < arrival < completion <
internal, then by insertion sequence; every iteration over instances,
pipelines or requests is explicitly ordered.  Trace events within 1e-9 s of
a group's first one apply as one group, which lands at its last event's time,
so the clock never lags an event it has applied.  Identical configurations
give bit-identical reports.  Dispatch keeps a single pending wake: a gated
pipeline schedules a poll only if it is earlier than the one pending, and a
poll that is no longer the pending wake does nothing.  A lower bound on the
pipelines' gates lets a dispatch call that could start nothing return at once.

Modeling choices: pipelines whose instances take part in the transfers drain
under the grace arrangement and gate the migration through per-instance
release floors (transfers overlap the drain); untouched pipelines keep
serving and pause only across the commit cutover, carrying their batches and
in-place cache to the new layout.  During a preemption grace the engine
keeps feeding batches that finish before the migration must start, but only
into the draining pipelines; a batch that drains its grace period without
migrating does not gate the migration start.

Every commit has a plan: model context no live GPU holds comes from remote
storage (`domain.STORAGE`).  KV cache has no such copy, so when an instance
is released, the batches of a pipeline with a GPU on it restart from token
zero, and that pipeline takes no batch until a layout replaces it.  Each
reconfiguration is one `Decision`; every committing policy asks
`Engine.admit` first, which drops a superseded decision and makes the policy
decide anew when one names a released instance.  Decisions still
uncommitted at the horizon leave the log.
"""

import heapq
import math
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from . import controller as ctl
from .arranger import BatchProgress, GraceContext, arrange_preemption
from .costmodel import (
    PerfProfile,
    load_profile,
    migration_bound,
    migration_cost,
    monetary_cost,
    restart_cost,
)
from .domain import (
    GpuRef,
    InstanceState,
    KvCache,
    Layout,
    ParallelConfig,
    RequestRecord,
    TopologyPosition,
    gpu_order,
    kv_cache,
    natural_key,
)
from .mapping import (
    DeviceMapping,
    default_inheritance,
    map_devices,
    position_rows,
    positional_mapping,
    retain_cache,
    slot_table,
)
from .metrics import MetricsReport, collect_metrics
from .migration import Derivation, MigrationPlan, derive_transfers, plan_migration
from .simconfig import SimConfig, SimConfigError, TraceEvent, load_trace
from .workload import gamma_arrivals, load_arrivals

# Event priorities at equal timestamps.
P_TRACE, P_ARRIVAL, P_COMPLETE, P_INTERNAL = 0, 1, 2, 3

# Instance statuses whose GPUs hold context.
LIVE = ("active", "allocating", "grace_preempting")


class SimulationError(RuntimeError):
    pass


@dataclass
class Batch:
    pipeline: int
    requests: list[RequestRecord]
    seg_start: float
    seg_prefill: float  # prefill inside this segment (0 when resuming on cache)
    step: float  # decode seconds per iteration
    steps_needed: int
    version: int = 0

    def boundary(self, iters: int) -> float:
        return self.seg_start + self.seg_prefill + iters * self.step

    def iters_at(self, t: float) -> int:
        raw = (t - self.seg_start - self.seg_prefill) / self.step
        return max(0, min(self.steps_needed, int(math.floor(raw + 1e-9))))

    def next_boundary(self, t: float) -> tuple[float, int]:
        """First commit point at or after t: (time, iterations done by then)."""
        head = self.seg_start + self.seg_prefill
        if t <= head + 1e-12:
            return head, 0
        k = min(self.steps_needed, int(math.ceil((t - head) / self.step - 1e-9)))
        return head + k * self.step, k


@dataclass
class Pipeline:
    index: int
    next_start: float = 0.0  # next free dispatch slot (pipelining spacing)
    ready_at: float = 0.0  # engine-restart gate for rebuilt pipelines
    batches: list[Batch] = field(default_factory=list)


@dataclass(eq=False)
class Decision:
    """One reconfiguration, decided at `t`: serve `target` on `instances`
    (through `mapping` if the policy maps devices).  `t_mig` stays NaN until
    the decision commits.  Identity, not equal fields, tells two apart."""

    t: float
    target: ParallelConfig
    instances: frozenset[str] = frozenset()
    mapping: DeviceMapping | None = None
    grace_deadline: float | None = None
    t_mig: float = math.nan


class Engine:
    """Event loop, cluster state, and request lifecycle."""

    def __init__(self, cfg: SimConfig, profile: PerfProfile, trace: list[TraceEvent],
                 arrivals: list[tuple[float, int, int]]):
        self.cfg = cfg
        self.profile = profile
        self.model = profile.model
        self.now = 0.0
        self.events: list = []
        self._seq = 0
        self.instances: dict[str, InstanceState] = {}
        self.assignment: dict[TopologyPosition, GpuRef] = {}
        # the installed GPUs' model rows, and their positions as a
        # `slot_table` (owner for GPU); written by install_layout only
        self.holdings: Layout | None = None
        self.placed: np.ndarray | None = None
        self.config: ParallelConfig | None = None
        self.pipelines: dict[int, Pipeline] = {}
        self.lost: set[int] = set()  # pipelines with an assigned GPU on a released instance
        self.queue: list[RequestRecord] = []
        self.records: list[RequestRecord] = []  # every arrival so far, in arrival order
        self.reconfig_log: list[Decision] = []
        self.paused_until = 0.0
        self.busy_until = 0.0  # reconfiguration window in progress until then
        self.wake_at = math.inf  # time of the one pending poll
        # A lower bound on every pipeline's gate, max(next_start, ready_at):
        # gates only rise, and `open_pipeline` lowers it for a new pipeline.
        self.gate_floor = -math.inf
        self.policy = None

        for ev in trace:
            self.push(ev.t, P_TRACE, "trace", ev)
        for i, (t, s_in, s_out) in enumerate(arrivals):
            rec = RequestRecord(id=f"r-{i:05d}", arrival=t, s_in=s_in, s_out=s_out)
            self.push(t, P_ARRIVAL, "arrival", rec)

    # -- event plumbing -------------------------------------------------------

    def push(self, t: float, prio: int, kind: str, data):
        heapq.heappush(self.events, (t, prio, self._seq, kind, data))
        self._seq += 1

    def run(self):
        horizon = self.cfg.duration
        while self.events and self.events[0][0] <= horizon + 1e-9:
            t, prio, _, kind, data = heapq.heappop(self.events)
            self.now = max(self.now, t)
            if kind == "trace":
                group = [data]
                while (self.events and self.events[0][0] <= t + 1e-9
                       and self.events[0][3] == "trace"):
                    group.append(heapq.heappop(self.events)[4])
                self.now = max(self.now, group[-1].t)
                self._apply_status(group)
                self._notify()
            elif kind == "notify":
                self._notify()
            elif kind == "ready":
                self.handle_ready(data)
            elif kind == "deadline":
                self.handle_deadline(data)
            elif kind == "arrival":
                self.records.append(data)
                self.queue.append(data)
                self.try_dispatch()
            elif kind == "complete":
                self.handle_complete(*data)
            elif kind == "commit":
                self.policy.on_commit(self, data)
            elif kind == "resume":
                data()
            elif kind == "poll":
                if t == self.wake_at:
                    self.wake_at = math.inf
                    self.try_dispatch()
            else:  # pragma: no cover
                raise SimulationError(f"unknown event kind {kind}")
        self.finalize()

    def _notify(self):
        if self.now < self.busy_until - 1e-9:
            # a reconfiguration is committing: react once it lands
            self.push(self.busy_until, P_INTERNAL, "notify", None)
        else:
            self.policy.on_trace_group(self)

    # -- instance lifecycle -----------------------------------------------------

    def _apply_status(self, group: list[TraceEvent]):
        for ev in group:
            if ev.kind == "acquire":
                inst = InstanceState(
                    id=ev.instance_id, kind=ev.itype or "spot",
                    gpus=self.cfg.gpus_per_instance, status="allocating",
                    ready_at=ev.t + (ev.ready_in or 0.0), acquired_at=ev.t,
                )
                self.instances[ev.instance_id] = inst
                self.push(inst.ready_at, P_TRACE, "ready", inst.id)
            else:
                inst = self.instances.get(ev.instance_id)
                deadline = ev.t + (ev.grace or 0.0)
                # the earliest notice binds: a later deadline changes nothing
                if inst is None or inst.status == "released" or (
                        inst.status == "grace_preempting" and inst.grace_deadline <= deadline):
                    continue
                inst.status = "grace_preempting"
                inst.grace_deadline = deadline
                self.push(deadline, P_TRACE, "deadline", inst.id)

    def handle_ready(self, instance_id: str):
        inst = self.instances[instance_id]
        if inst.status == "allocating":
            inst.status = "active"
            self.policy.on_instance_ready(self, inst)

    def handle_deadline(self, instance_id: str):
        inst = self.instances[instance_id]
        if inst.status == "grace_preempting":
            # a trace group lands at its last event's time, which may be past
            # the deadline of a zero-grace notice in it
            self.release_instance(inst, min(self.now, inst.grace_deadline))

    def release_instance(self, inst: InstanceState, t: float):
        inst.status = "released"
        inst.released_at = min(t, self.cfg.duration)
        self._track_losses()

    def _track_losses(self):
        """A pipeline with an assigned GPU on a released instance lost that
        GPU and its requests' KV cache: its batches recompute from token zero,
        and dispatch starts no batch on it until a layout replaces it."""
        self.lost = {pos.pipeline for pos, gpu in self.assignment.items()
                     if self.instances[gpu[0]].status == "released"}
        for d in self.lost:
            self.pipelines[d].ready_at = math.inf
        stranded = [b for b in self.all_batches() if b.pipeline in self.lost]
        if stranded:
            self.restart_batches(stranded)
            self.try_dispatch()

    def available_count(self) -> int:
        return sum(1 for i in self.instances.values() if i.status in ("active", "allocating"))

    def instances_by(self, *statuses: str) -> list[InstanceState]:
        picked = [i for i in self.instances.values() if i.status in statuses]
        return sorted(picked, key=lambda i: natural_key(i.id))

    def serving_instances(self) -> set[str]:
        return {gpu[0] for gpu in self.assignment.values()}

    # -- workload ----------------------------------------------------------------

    def current_rate(self) -> float:
        if self.cfg.rate_source == "declared" and self.cfg.workload.kind == "fixed_rate":
            return float(self.cfg.workload.rate)
        return ctl.estimate_arrival_rate(self.records, self.now, self.cfg.rate_window,
                                         key=attrgetter("arrival"))

    # -- dispatch and completion ---------------------------------------------------

    def spacing(self, batch_latency: float) -> float:
        return batch_latency / (self.config.pipeline_stages * self.profile.pipeline_efficiency)

    def try_dispatch(self):
        """One pass over the pipelines in index order (their insertion order):
        each open one takes a batch, and starting a batch gates its pipeline
        past now, so a second pass could start nothing.

        The pass is skipped when `gate_floor` shows it could do nothing: with
        every gate beyond now and no earlier than the pending wake, it would
        start no batch and push no poll.  The pass's wake (the lowest gate)
        becomes the new floor."""
        if self.config is None or self.now < self.paused_until - 1e-9:
            return
        if self.queue and self.now + 1e-9 < self.gate_floor and self.wake_at <= self.gate_floor:
            return
        for pipe in self.pipelines.values():
            if not self.queue:
                return
            if max(pipe.next_start, pipe.ready_at) <= self.now + 1e-9:
                self.start_batch(pipe, self._take_requests())
        if self.queue and self.pipelines:
            wake = min(max(p.next_start, p.ready_at) for p in self.pipelines.values())
            self.gate_floor = wake
            if wake < self.wake_at:
                self.wake_at = wake
                self.push(wake, P_INTERNAL, "poll", None)

    def _take_requests(self) -> list[RequestRecord]:
        take = min(self.config.batch_limit, len(self.queue))
        reqs = self.queue[:take]
        del self.queue[:take]
        return reqs

    def _launch(self, pipe: Pipeline, requests: list[RequestRecord], prefill: float,
                at: float | None = None):
        start = self.now if at is None else at
        step = self.profile.decode_seconds(self.config)
        steps = max(r.s_out - r.tokens_generated for r in requests)
        batch = Batch(pipeline=pipe.index, requests=list(requests), seg_start=start,
                      seg_prefill=prefill, step=step, steps_needed=steps)
        pipe.batches.append(batch)
        latency = prefill + steps * step
        pipe.next_start = max(pipe.next_start, start + self.spacing(latency))
        self.push(batch.boundary(steps), P_COMPLETE, "complete", (batch, batch.version))
        return batch

    def start_batch(self, pipe: Pipeline, requests: list[RequestRecord],
                    at: float | None = None):
        start = self.now if at is None else at
        for r in requests:
            if r.dispatch is None:
                r.dispatch = start
        s_in = max(r.s_in for r in requests)
        self._launch(pipe, requests, self.profile.prefill_seconds(self.config, s_in), at=start)

    def handle_complete(self, batch: Batch, version: int):
        if batch.version != version:
            return
        self.pause_batch(batch, batch.steps_needed)
        self.try_dispatch()

    def drop_batch(self, batch: Batch):
        """Cancel a batch's pending completion and take it off its pipeline."""
        batch.version += 1
        pipe = self.pipelines.get(batch.pipeline)
        if pipe and batch in pipe.batches:
            pipe.batches.remove(batch)

    def pause_batch(self, batch: Batch, iters: int) -> list[RequestRecord]:
        """Settle a batch after `iters` segment iterations: requests whose last
        token commits inside the horizon complete, the rest are survivors.
        Each request still holds the tokens it had when the batch launched."""
        self.drop_batch(batch)
        horizon = self.cfg.duration
        survivors = []
        for r in batch.requests:
            needed = r.s_out - r.tokens_generated
            end = batch.boundary(needed)
            if iters >= needed and end <= horizon + 1e-9:
                r.completion = end
                r.tokens_generated = r.s_out
            else:
                r.tokens_generated = min(r.s_out, r.tokens_generated
                                         + min(iters, batch.iters_at(horizon)))
                survivors.append(r)
        return survivors

    def restart_batches(self, batches: list[Batch]):
        """Stop batches now; their unfinished requests recompute from token zero."""
        for batch in batches:
            self.requeue(self.pause_batch(batch, batch.iters_at(self.now)), reset_progress=True)

    def all_batches(self) -> list[Batch]:
        return [b for pipe in self.pipelines.values() for b in pipe.batches]

    def requeue(self, requests: list[RequestRecord], reset_progress: bool):
        """Interrupted requests re-enter the queue; recompute-from-zero ones go
        to the back (they are new work for the request manager), preserved ones
        to the front."""
        ordered = sorted(requests, key=lambda r: (r.arrival, r.id))
        if reset_progress:
            for r in ordered:
                r.tokens_generated = 0
            self.queue.extend(ordered)
        else:
            self.queue[:0] = ordered

    # -- serving state ---------------------------------------------------------------

    def open_pipeline(self, d: int, ready_at: float = 0.0):
        """Open pipeline `d`, its first slot now and gated until `ready_at`: the
        one place a `Pipeline` is built, so it lowers `gate_floor` to its gate."""
        self.pipelines[d] = Pipeline(index=d, next_start=self.now, ready_at=ready_at)
        self.gate_floor = min(self.gate_floor, max(self.now, ready_at))

    def install_layout(self, config: ParallelConfig, mapping: DeviceMapping):
        """Serve `mapping`: each assigned GPU holds its position's model
        context, and every other GPU holds nothing."""
        self.config = config
        self.assignment = mapping.gpu_for()
        gpus = gpu_order(mapping.assignment)
        self.placed = slot_table(config, self.model,
                                [(g, mapping.assignment[gpu]) for g, gpu in enumerate(gpus)])
        model = {d: [(None, 1)] for d in range(1, config.data_parallel + 1)}
        self.holdings = Layout(gpus, config.tensor_shards,
                               position_rows(self.placed, 1, model, {None: 0}))
        self.pipelines, self.gate_floor = {}, math.inf
        for d in range(1, config.data_parallel + 1):
            self.open_pipeline(d)

    def layout_snapshot(self, cache: KvCache | None = None,
                        statuses: tuple[str, ...] = LIVE) -> Layout:
        """Holdings of the GPUs of every instance in `statuses`; an assigned
        GPU also holds the KV cache `cache` lists for its pipeline.  The
        installed rows are renumbered to those GPUs, and only the cache
        rows are built."""
        gpus = [gpu for inst in self.instances_by(*statuses) for gpu in inst.gpu_refs()]
        if self.holdings is None:
            return Layout(gpus)
        index = {gpu: g for g, gpu in enumerate(gpus)}
        live = np.array([index.get(gpu, -1) for gpu in self.holdings.gpus], dtype=np.int64)
        rows, slots, keys = self.holdings.rows.copy(), self.placed.copy(), {None: 0}
        rows[:, 0], slots[:, 0] = live[rows[:, 0]], live[slots[:, 0]]
        if self.config and cache:
            rows = np.concatenate((rows, position_rows(slots[slots[:, 0] >= 0], 1, cache, keys)))
            rows = rows[rows[:, 0].argsort(kind="stable")]  # GPU by GPU, the model's first
        rows = rows[rows[:, 0] >= 0]
        return Layout(gpus, self.holdings.den if len(rows) else 1, rows, list(keys))

    def requests_by_pipeline(self) -> dict[int, list[RequestRecord]]:
        """The requests of every in-flight batch, by pipeline."""
        out: dict[int, list[RequestRecord]] = {}
        for b in self.all_batches():
            out.setdefault(b.pipeline, []).extend(b.requests)
        return out

    def ready_time(self, serving: set[str]) -> float:
        """When every instance of a serving set is up: now, or the latest
        ready time among those still allocating."""
        return max([self.now] + [self.instances[i].ready_at for i in serving
                                 if self.instances[i].status == "allocating"])

    def commit(self, at: float, decision: Decision):
        """Log `decision`, hold off reactions until `at`, then commit it there."""
        self.reconfig_log.append(decision)
        self.busy_until = max(self.busy_until, at)
        if at <= self.now:
            self.policy.on_commit(self, decision)
        else:
            self.push(at, P_INTERNAL, "commit", decision)

    def admit(self, decision: Decision) -> bool:
        """Whether `decision` may commit now.  One that a later decision
        superseded leaves the log; so does one that names a released
        instance, and the policy then decides anew."""
        superseded = decision is not self.reconfig_log[-1]
        if not superseded and all(self.instances[i].status != "released"
                                  for i in decision.instances):
            return True
        self.reconfig_log.remove(decision)
        if not superseded:
            self.policy.on_trace_group(self)
        return False

    def resume_at(self, at: float, config: ParallelConfig, mapping: DeviceMapping,
                  carried: dict[int, list[RequestRecord]] | None = None):
        """Pause service until `at`, then serve `mapping`: install it, resume
        each pipeline's carried requests from their cache, and dispatch."""
        def resume():
            self.install_layout(config, mapping)
            for d, reqs in sorted((carried or {}).items()):
                for i in range(0, len(reqs), config.batch_limit):
                    # no prefill: the requests continue from their cache
                    self._launch(self.pipelines[d], reqs[i:i + config.batch_limit], 0.0)
            self._track_losses()  # an instance may have gone while the plan ran
            self.try_dispatch()

        self.paused_until = max(self.paused_until, at)
        self.busy_until = max(self.busy_until, at)
        self.push(at, P_INTERNAL, "resume", resume)

    def suspend_service(self):
        self.restart_batches(self.all_batches())
        self.config = None
        self.assignment = {}
        self.pipelines = {}
        self.lost = set()

    # -- finish ------------------------------------------------------------------------

    def finalize(self):
        self.now = self.cfg.duration
        # a decision whose commit falls past the horizon never served
        self.reconfig_log = [d for d in self.reconfig_log if not math.isnan(d.t_mig)]
        for batch in self.all_batches():
            self.pause_batch(batch, batch.iters_at(self.now))

    def usage(self) -> list[tuple[str, str, float, float]]:
        """The bill's intervals: each instance's (id, kind, acquired_at,
        released_at or the horizon), in `natural_key` order."""
        return [(i.id, i.kind, i.acquired_at,
                 self.cfg.duration if i.released_at is None else i.released_at)
                for i in sorted(self.instances.values(), key=lambda i: natural_key(i.id))]

    def report(self) -> MetricsReport:
        tokens = sum(r.tokens_generated for r in self.records)
        cost = monetary_cost(self.usage(), self.profile.prices, tokens_served=tokens)
        return collect_metrics(
            self.records, horizon=self.cfg.duration, cost=cost,
            reconfigurations=[(d.t, d.target.as_tuple(), d.t_mig) for d in self.reconfig_log],
            queued_at_horizon=len(self.queue),
        )


# ---------------------------------------------------------------------------
# Policies

class AdaptivePolicy:
    """Full proactive policy: adaptive configuration, KM device mapping,
    progressive migration, and grace-period (JIT) arrangement.

    Ablation flags cumulatively disable the controller (configuration pinned
    to the initial optimum; only the data-parallel degree degrades with
    capacity), the migration planner (no memory-aware order, no progressive
    stage starts), the interruption arranger (no decode during grace and no
    cache migration), and the device mapper (positional assignment replaces
    KM matching).
    """

    name = "spotserve"

    def __init__(self, disable: tuple[str, ...] = ()):
        self.disable = frozenset(disable)
        self.pinned: ParallelConfig | None = None

    def _use(self, feature: str) -> bool:
        return feature not in self.disable

    # -- decision -------------------------------------------------------------

    def pick_config(self, engine: Engine, n_avail: int) -> ParallelConfig | None:
        cfg = engine.cfg
        if not self._use("controller") and self.pinned is not None:
            base = self.pinned
            per = base.pipeline_stages * base.tensor_shards
            d = min(base.data_parallel, (n_avail * cfg.gpus_per_instance) // per)
            if d < 1:
                return None
            return ParallelConfig(d, base.pipeline_stages, base.tensor_shards, base.batch_limit)
        chosen = ctl.choose_config(n_avail, engine.current_rate(), engine.profile, cfg.gpus_per_instance)
        if chosen is not None and self.pinned is None:
            self.pinned = chosen
        return chosen

    def compute_mapping(self, engine: Engine, target: ParallelConfig) -> DeviceMapping:
        by_pipe = engine.requests_by_pipeline()
        layout = engine.layout_snapshot(kv_cache(by_pipe), ("active", "allocating"))
        if self._use("mapper"):
            inheritance = None
            if engine.config is not None:
                inheritance = default_inheritance(engine.config.data_parallel,
                                                  target.data_parallel)
            return map_devices(layout, target, engine.model,
                               engine.cfg.gpus_per_instance,
                               inheritance=inheritance, requests_by_old_pipeline=by_pipe)
        return positional_mapping(layout, target)  # the target fits the candidates

    def on_trace_group(self, engine: Engine):
        cfg = engine.cfg
        n_avail = engine.available_count()
        target = self.pick_config(engine, n_avail)
        if target is None:
            engine.suspend_service()
            return
        self.release_surplus(engine, n_avail - target.instances(cfg.gpus_per_instance)
                             - cfg.pool_size)

        mapping = self.compute_mapping(engine, target)
        new_serving = {gpu[0] for gpu in mapping.assignment}
        serving = engine.serving_instances()
        if not ctl.should_reconfigure(engine.config, target, new_serving != serving):
            return

        commit_at = engine.ready_time(new_serving)
        grace = [i.grace_deadline for i in engine.instances_by("grace_preempting")
                 if i.id in serving]
        engine.commit(commit_at, Decision(
            engine.now, target, frozenset(new_serving), mapping,
            grace_deadline=min(grace) if grace and commit_at <= engine.now else None))

    def release_surplus(self, engine: Engine, surplus: int):
        """Release up to `surplus` idle instances, on-demand first."""
        if surplus <= 0:
            return
        serving = engine.serving_instances()
        idle = [i for i in engine.instances_by("active", "allocating")
                if i.id not in serving]
        idle.sort(key=lambda i: (0 if i.kind == "ondemand" else 1, natural_key(i.id)))
        for inst in idle[:surplus]:
            engine.release_instance(inst, engine.now)

    def on_instance_ready(self, engine: Engine, inst: InstanceState):
        pass  # joins were scheduled as commits when the acquisition was announced

    # -- commit ----------------------------------------------------------------

    def on_commit(self, engine: Engine, decision: Decision):
        if not engine.admit(decision):
            return
        target, mapping = decision.target, decision.mapping
        if engine.holdings is None:
            # first boot: nothing is installed, so nothing moves or stalls
            decision.t_mig = 0.0
            engine.resume_at(engine.now, target, mapping)
            return
        # One cache-free derivation serves the whole commit: the
        # participants, and the model part of every plan.
        base = derive_transfers(mapping, engine.layout_snapshot(None), engine.model,
                                departing=self._departing(engine))
        stops, migrate_groups = self._arrange(engine, decision, base)

        movers = [r for d in sorted(migrate_groups) for r in migrate_groups[d]]
        kept_ids = {r.id for r in retain_cache(movers, target)}
        engine.requeue([r for r in movers if r.id not in kept_ids], reset_progress=True)
        old_cache = {d: [r for r in migrate_groups[d] if r.id in kept_ids]
                     for d in sorted(migrate_groups)}
        packed = self._pack_pipelines(old_cache, target)
        # packed order, not id order: it drives the planner's source choice
        inherited = {d: [(r.id, r.s_in + r.tokens_generated) for r in reqs]
                     for d, reqs in sorted(packed.items())}
        with_cache = self._use("arranger")
        plan = self._plan(engine, mapping, base, kv_cache(old_cache) if with_cache else {},
                          inherited if with_cache else {})
        release: dict[str, float] = {}  # per-instance earliest transfer time
        for pos, (inst, _) in engine.assignment.items():
            if pos.pipeline in stops:
                release[inst] = max(release.get(inst, engine.now), stops[pos.pipeline])
        decision.t_mig = migration_cost(plan, engine.profile)
        stall = migration_cost(plan, engine.profile,
                               config=target if self._use("planner") else None,
                               release=release, start=engine.now)
        engine.resume_at(max([engine.now + stall, *stops.values()]), target, mapping, packed)

    def _arrange(self, engine: Engine, decision: Decision,
                 base: Derivation) -> tuple[dict[int, float], dict[int, list[RequestRecord]]]:
        """Stop the batches of every pipeline the migration touches, under
        the grace arrangement, then cut the rest over.  Returns when each
        such pipeline's last arranged batch stops, and the requests whose
        cache migrates, by pipeline; the others are requeued."""
        deadline = decision.grace_deadline
        participants = base.participants()
        affected = {pos.pipeline for pos, gpu in engine.assignment.items()
                    if gpu[0] in participants and pos.pipeline not in engine.lost}
        t_mig_est = 0.0
        if deadline:
            # An upper bound on the migration if every in-flight request's
            # cache moves: from that derivation's port totals, with no plan.
            inherited = kv_cache(engine.requests_by_pipeline())
            derived = self._derive(engine, decision.mapping, base, inherited, inherited)
            t_mig_est = migration_bound(*derived.port_loads(), engine.profile)
        stops: dict[int, float] = {}
        migrate_groups: dict[int, list[RequestRecord]] = {}
        drop_cache: list[RequestRecord] = []
        for batch in engine.all_batches():
            if batch.pipeline not in affected:
                continue  # untouched pipelines keep serving, pause at commit
            stop_t, iters, action = self._arrange_batch(engine, batch, deadline, t_mig_est)
            survivors = engine.pause_batch(batch, iters)
            if not survivors:
                stop_t = min(stop_t, batch.boundary(iters))
            elif action == "migrate_with_cache":
                migrate_groups.setdefault(batch.pipeline, []).extend(survivors)
            else:
                drop_cache.extend(survivors)
            stops[batch.pipeline] = max(stops.get(batch.pipeline, engine.now), stop_t)
        if deadline is not None and self._use("arranger"):
            self._feed_during_grace(engine, deadline - t_mig_est, affected, stops)
        commit_start = max([engine.now, *stops.values()])
        # Batches on untouched pipelines carry across the commit: they
        # pause at their first boundary past the cutover and keep their
        # cache, which is already in place and adds no transfers.  A batch
        # whose slot starts beyond the cutover never ran at all: its
        # requests go back to the queue head as if never dispatched.
        for batch in engine.all_batches():
            if batch.seg_start >= commit_start - 1e-9:
                engine.drop_batch(batch)
                for r in batch.requests:
                    if r.dispatch == batch.seg_start:
                        r.dispatch = None
                engine.requeue(batch.requests, reset_progress=False)
                continue
            _, iters = batch.next_boundary(commit_start)
            survivors = engine.pause_batch(batch, iters)
            if survivors:
                migrate_groups.setdefault(batch.pipeline, []).extend(survivors)
        engine.requeue(drop_cache, reset_progress=True)
        return stops, migrate_groups

    def _feed_during_grace(self, engine: Engine, budget_end: float, affected: set[int],
                           stops: dict[int, float]) -> None:
        """Keep feeding batches inside the grace period while they can finish
        by `budget_end`, when the migration must start (the JIT check before
        a new batch).  Only affected pipelines are fed: their stop moves with
        the fed batch, so it runs before the cutover; an unaffected
        pipeline's future slot belongs to the post-commit configuration."""
        step = engine.profile.decode_seconds(engine.config)
        while engine.queue:
            slots = [(max(pipe.next_start, pipe.ready_at, engine.now), d)
                     for d, pipe in engine.pipelines.items() if d in affected]
            if not slots:
                break
            slot, d = min(slots)
            head = engine.queue[:engine.config.batch_limit]
            prefill = engine.profile.prefill_seconds(engine.config, max(r.s_in for r in head))
            finish = slot + prefill + max(r.s_out - r.tokens_generated for r in head) * step
            if finish > budget_end + 1e-9:
                break
            engine.start_batch(engine.pipelines[d], engine._take_requests(), at=slot)
            stops[d] = max(stops.get(d, engine.now), finish)

    # -- commit helpers -----------------------------------------------------------

    def _arrange_batch(self, engine: Engine, batch: Batch, deadline: float | None,
                       t_mig_est: float) -> tuple[float, int, str]:
        boundary_t, done = batch.next_boundary(engine.now)
        if not self._use("arranger"):
            return boundary_t, done, "reroute_without_cache"
        if deadline is None:
            return boundary_t, done, "migrate_with_cache"
        ctx = GraceContext(
            kind="preemption",
            t_remaining=max(0.0, deadline - boundary_t),
            t_migration=t_mig_est,
            batch=BatchProgress(steps_remaining=batch.steps_needed - done),
            config=engine.config,
        )
        arr = arrange_preemption(ctx, engine.profile)
        return boundary_t + arr.steps * batch.step, done + arr.steps, arr.action_after

    @staticmethod
    def _departing(engine: Engine) -> frozenset[str]:
        return frozenset(i.id for i in engine.instances_by("grace_preempting"))

    def _derive(self, engine: Engine, mapping: DeviceMapping, base: Derivation,
                cache: KvCache, inherited: dict) -> Derivation:
        """The derivation of the live layout with `cache` on top: the base
        derivation gives the model part, and a layout that carries cache
        derives only its cache part on top of it."""
        if any(cache.values()):
            base = derive_transfers(mapping, engine.layout_snapshot(cache), engine.model,
                                    inherited, departing=self._departing(engine), base=base)
        return base

    def _plan(self, engine: Engine, mapping: DeviceMapping, base: Derivation, cache: KvCache,
              inherited: dict) -> MigrationPlan:
        """Plan from the live layout with `cache` on top (`_derive`), ordered
        under the buffer cap (none without the planner)."""
        u_max = engine.cfg.u_max if self._use("planner") else None
        return plan_migration(self._derive(engine, mapping, base, cache, inherited), u_max)

    def _pack_pipelines(self, old_cache: dict[int, list[RequestRecord]],
                        target: ParallelConfig) -> dict[int, list[RequestRecord]]:
        """Assign retained requests to target pipelines, keeping a request on
        its old pipeline index when that pipeline still exists.  A pipeline may
        carry more than one batch worth (they were already in flight)."""
        packed: dict[int, list[RequestRecord]] = {d: [] for d in range(1, target.data_parallel + 1)}
        spill: list[RequestRecord] = []
        for d in sorted(old_cache):
            reqs = sorted(old_cache[d], key=lambda r: r.id)
            if d in packed:
                packed[d].extend(reqs)
            else:
                spill.extend(reqs)
        for r in spill:
            d = min(sorted(packed), key=lambda k: (len(packed[k]), k))
            packed[d].append(r)
        return {d: reqs for d, reqs in packed.items() if reqs}


class ReroutingPolicy:
    """Reactive baseline: fixed parallel shape; whole pipelines are dropped or
    added as instances come and go, and interrupted requests recompute from
    token zero on surviving pipelines."""

    name = "rerouting"

    def __init__(self, shape: tuple[int, int, int] | None):
        self.shape = shape
        self.pipe_instances: dict[int, list[str]] = {}
        self._next_pipe = 1
        self._booted = False

    def _fixed(self, engine: Engine) -> tuple[int, int, int] | None:
        """The fixed (P, M, B) shape, chosen from the profile's shapes at the
        first availability that can host one; None until then.  A configured
        shape was checked against the profile when the run loaded it."""
        if self.shape is None:
            best = ctl.choose_config(engine.available_count(), engine.current_rate(),
                                     engine.profile, engine.cfg.gpus_per_instance)
            if best is None:
                return None
            self.shape = (best.pipeline_stages, best.tensor_shards, best.batch_limit)
        return self.shape

    def on_trace_group(self, engine: Engine):
        """Drop each pipeline with an instance no longer active, then rebuild."""
        if self._fixed(engine) is None:
            return
        affected = [d for d in sorted(self.pipe_instances)
                    if any(engine.instances[i].status != "active" for i in self.pipe_instances[d])]
        for d in affected:
            pipe = engine.pipelines.pop(d, None)
            self.pipe_instances.pop(d)
            if pipe:
                engine.restart_batches(pipe.batches)
        self.rebuild(engine, forced=bool(affected))

    def on_instance_ready(self, engine: Engine, inst: InstanceState):
        self.rebuild(engine, forced=False)

    def rebuild(self, engine: Engine, forced: bool):
        shape = self._fixed(engine)
        if shape is None:
            return
        p, m, b = shape
        per = max(1, math.ceil(p * m / engine.cfg.gpus_per_instance))
        active = [i.id for i in engine.instances_by("active")]
        used = {i for ids in self.pipe_instances.values() for i in ids}
        free = [i for i in active if i not in used]
        target_d = len(active) // per
        added = False
        while len(self.pipe_instances) < target_d and len(free) >= per:
            ids = free[:per]
            del free[:per]
            d = self._next_pipe
            self._next_pipe += 1
            self.pipe_instances[d] = ids
            ready_at = engine.now
            if self._booted:
                ready_at += restart_cost(engine.profile, "local_disk")
            engine.open_pipeline(d, ready_at)
            added = True
        if self.pipe_instances:
            self._booted = True
        d_now = max(1, len(self.pipe_instances))
        engine.config = ParallelConfig(d_now, p, m, b)
        if forced or added:
            engine.reconfig_log.append(Decision(engine.now, engine.config, t_mig=0.0))
        engine.try_dispatch()


class ReparallelizationPolicy:
    """Adaptive-configuration baseline without context migration: every
    reconfiguration restarts all engines from disk and recomputes in-flight
    requests from token zero."""

    name = "reparallelization"

    def __init__(self):
        self.serving: set[str] = set()

    def on_trace_group(self, engine: Engine):
        cfg = engine.cfg
        target = ctl.choose_config(engine.available_count(), engine.current_rate(),
                                   engine.profile, cfg.gpus_per_instance)
        if target is None:
            engine.suspend_service()
            self.serving = set()
            return
        need = target.instances(cfg.gpus_per_instance)
        pool = engine.instances_by("active", "allocating")
        chosen: list[InstanceState] = [i for i in pool if i.id in self.serving][:need]
        for inst in pool:
            if len(chosen) >= need:
                break
            if inst not in chosen:
                chosen.append(inst)
        new_serving = {i.id for i in chosen[:need]}
        if not ctl.should_reconfigure(engine.config, target, new_serving != self.serving):
            return
        engine.commit(engine.ready_time(new_serving),
                      Decision(engine.now, target, frozenset(new_serving)))

    def on_instance_ready(self, engine: Engine, inst: InstanceState):
        pass

    def on_commit(self, engine: Engine, decision: Decision):
        if not engine.admit(decision):
            return
        target = decision.target
        engine.restart_batches(engine.all_batches())
        # every restart but the first boot reloads the model from local disk
        stall = restart_cost(engine.profile, "local_disk") if engine.holdings is not None else 0.0
        decision.t_mig = stall
        self.serving = set(decision.instances)
        live = [gpu for inst in engine.instances_by("active", "allocating")
                if inst.id in self.serving for gpu in inst.gpu_refs()]
        mapping = positional_mapping(Layout(live), target)
        if mapping is None:
            engine.suspend_service()
            return
        engine.resume_at(engine.now + stall, target, mapping)


def make_policy(cfg: SimConfig):
    if cfg.policy == "spotserve":
        return AdaptivePolicy(disable=cfg.disable)
    if cfg.policy == "rerouting":
        return ReroutingPolicy(shape=cfg.rerouting_shape)
    if cfg.policy == "reparallelization":
        return ReparallelizationPolicy()
    raise SimulationError(f"unknown policy {cfg.policy!r}")


def run(cfg: SimConfig) -> MetricsReport:
    """Simulate one configuration end to end and aggregate its metrics."""
    profile = load_profile(cfg.profile_path)
    shape = cfg.rerouting_shape
    if cfg.policy == "rerouting" and shape is not None and shape not in profile.shapes():
        raise SimConfigError(f"rerouting_shape {shape} is not a (P, M, B) shape of profile "
                             f"{cfg.profile_path}")
    trace = load_trace(cfg.trace_path, cfg.grace_default, cfg.ready_default)
    if cfg.workload.kind == "fixed_rate":
        times = gamma_arrivals(cfg.workload.rate, cfg.workload.cv, cfg.duration,
                               cfg.workload.seed)
        arrivals = [(float(t), cfg.s_in, cfg.s_out) for t in times]
    else:
        arrivals = [(t, s_in, s_out) for t, s_in, s_out in load_arrivals(cfg.workload.path)
                    if t < cfg.duration]
    engine = Engine(cfg, profile, trace, arrivals)
    engine.policy = make_policy(cfg)
    engine.run()
    return engine.report()
