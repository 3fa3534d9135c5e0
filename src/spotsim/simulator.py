"""Deterministic discrete-event simulation of preemptible-instance serving.

The engine replays an availability trace against a request arrival stream and
lets a policy react to every preemption/acquisition notification.  Execution
costs come from the profile: a batch's own latency is prefill + S_out decode
steps, while its pipeline frees a dispatch slot every latency/(P * eta)
seconds (pipelined batches overlap, which is what makes the cost model's
throughput phi attainable).  Progress commits at decode-iteration boundaries,
so a policy can pause a batch mid-decode, migrate its KV cache, and resume it
elsewhere without losing tokens.

GPU context lives once, in each instance's `gpu_inventories`: the engine
writes it only when it installs a layout, and `Engine.layout_snapshot` adds
the KV cache of in-flight requests (see `domain.kv_cache`) on top for a
decision.

Determinism: events at equal timestamps order trace < arrival < completion <
internal, then by insertion sequence; every iteration over instances,
pipelines or requests is explicitly ordered.  Identical configurations give
bit-identical reports.  Dispatch keeps a single pending wake: a gated
pipeline schedules a poll only if it is earlier than the one pending, and a
poll that is no longer the pending wake does nothing.

Modeling choices: pipelines whose instances take part in the transfers drain
under the grace arrangement and gate the migration through per-instance
release floors (transfers overlap the drain); untouched pipelines keep
serving and pause only across the commit cutover, carrying their batches and
in-place cache to the new layout.  During a preemption grace the engine
keeps feeding batches that finish before the migration must start, but only
into the draining pipelines; a batch that drains its grace period without
migrating does not gate the migration start.
"""

import heapq
import math
from dataclasses import dataclass, field, replace

from . import controller as ctl
from .arranger import BatchProgress, GraceContext, arrange_preemption
from .costmodel import (
    PerfProfile,
    ProfileMissError,
    load_profile,
    migration_cost,
    monetary_cost,
    restart_cost,
)
from .domain import (
    ContextInventory,
    GpuRef,
    InstanceState,
    KvCache,
    ParallelConfig,
    TopologyPosition,
    kv_cache,
    natural_key,
    required_context,
)
from .mapping import (
    DeviceMapping,
    default_inheritance,
    map_devices,
    positional_mapping,
    retain_cache,
)
from .metrics import MetricsReport, RequestRecord, collect_metrics
from .migration import MigrationError, MigrationPlan, derive_transfers, plan_migration
from .simconfig import SimConfig, TraceEvent, load_trace
from .workload import gamma_arrivals, load_arrivals

# Event priorities at equal timestamps.
P_TRACE, P_ARRIVAL, P_COMPLETE, P_INTERNAL = 0, 1, 2, 3


class SimulationError(RuntimeError):
    pass


@dataclass
class Batch:
    bid: int
    pipeline: int
    requests: list[RequestRecord]
    base_tokens: dict[str, int]  # committed tokens at segment start
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
        self.config: ParallelConfig | None = None
        self.pipelines: dict[int, Pipeline] = {}
        self.queue: list[RequestRecord] = []
        self.records: list[RequestRecord] = []
        self.arrival_times: list[float] = []
        self.reconfig_log: list[list] = []  # mutable [t, config tuple, t_mig]
        self.usage_open: dict[str, tuple[str, float]] = {}
        self.usage: list[tuple[str, str, float, float]] = []
        self.paused_until = 0.0
        self.busy_until = 0.0  # reconfiguration window in progress until then
        self.wake_at = math.inf  # time of the one pending poll
        self._batch_ids = 0
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
                self._apply_status(group)
                self._notify(group)
            elif kind == "notify":
                self._notify(data)
            elif kind == "ready":
                self.handle_ready(data)
            elif kind == "deadline":
                self.handle_deadline(data)
            elif kind == "arrival":
                self.records.append(data)
                self.arrival_times.append(t)
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

    def _notify(self, group: list[TraceEvent]):
        if self.now < self.busy_until - 1e-9:
            # a reconfiguration is committing: react once it lands
            self.push(self.busy_until, P_INTERNAL, "notify", group)
        else:
            self.policy.on_trace_group(self, group)

    # -- instance lifecycle -----------------------------------------------------

    def _apply_status(self, group: list[TraceEvent]):
        for ev in group:
            if ev.kind == "acquire":
                if ev.instance_id in self.instances:
                    raise SimulationError(f"duplicate instance id {ev.instance_id}")
                inst = InstanceState(
                    id=ev.instance_id, kind=ev.itype or "spot",
                    gpus=self.cfg.gpus_per_instance,
                    status="allocating", ready_at=ev.t + (ev.ready_in or 0.0),
                )
                self.instances[ev.instance_id] = inst
                self.usage_open[inst.id] = (inst.kind, ev.t)
                self.push(inst.ready_at, P_TRACE, "ready", inst.id)
            else:
                inst = self.instances.get(ev.instance_id)
                if inst is None or inst.status == "released":
                    continue
                inst.status = "grace_preempting"
                inst.grace_deadline = ev.t + (ev.grace or 0.0)
                self.push(inst.grace_deadline, P_TRACE, "deadline", inst.id)

    def handle_ready(self, instance_id: str):
        inst = self.instances[instance_id]
        if inst.status == "allocating":
            inst.status = "active"
            self.policy.on_instance_ready(self, inst)

    def handle_deadline(self, instance_id: str):
        inst = self.instances[instance_id]
        if inst.status == "grace_preempting":
            self.release_instance(inst, self.now)

    def release_instance(self, inst: InstanceState, t: float):
        inst.status = "released"
        if inst.id in self.usage_open:
            kind, start = self.usage_open.pop(inst.id)
            self.usage.append((inst.id, kind, start, min(t, self.cfg.duration)))

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
        return ctl.estimate_arrival_rate(self.arrival_times, self.now, self.cfg.rate_window)

    # -- dispatch and completion ---------------------------------------------------

    def spacing(self, batch_latency: float) -> float:
        return batch_latency / (self.config.pipeline_stages * self.profile.pipeline_efficiency)

    def try_dispatch(self):
        """One pass over the pipelines in index order (their insertion order):
        each open one takes a batch, and starting a batch gates its pipeline
        past now, so a second pass could start nothing."""
        if self.config is None or self.now < self.paused_until - 1e-9:
            return
        for pipe in self.pipelines.values():
            if not self.queue:
                return
            if max(pipe.next_start, pipe.ready_at) <= self.now + 1e-9:
                self.start_batch(pipe, self._take_requests())
        if self.queue and self.pipelines:
            wake = min(max(p.next_start, p.ready_at) for p in self.pipelines.values())
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
        batch = Batch(
            bid=self._batch_ids, pipeline=pipe.index, requests=list(requests),
            base_tokens={r.id: r.tokens_generated for r in requests},
            seg_start=start, seg_prefill=prefill, step=step, steps_needed=steps,
        )
        self._batch_ids += 1
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
        for r in batch.requests:
            r.completion = batch.boundary(r.s_out - batch.base_tokens[r.id])
            r.tokens_generated = r.s_out
        self.drop_batch(batch)
        self.try_dispatch()

    def drop_batch(self, batch: Batch):
        """Cancel a batch's pending completion and take it off its pipeline."""
        batch.version += 1
        pipe = self.pipelines.get(batch.pipeline)
        if pipe and batch in pipe.batches:
            pipe.batches.remove(batch)

    def pause_batch(self, batch: Batch, iters: int) -> list[RequestRecord]:
        """Stop a batch after `iters` segment iterations; completions landing
        inside the horizon are finalized, the rest return as survivors."""
        self.drop_batch(batch)
        horizon = self.cfg.duration
        cap = batch.iters_at(horizon)
        survivors = []
        for r in batch.requests:
            base = batch.base_tokens[r.id]
            needed = r.s_out - base
            if iters >= needed and batch.boundary(needed) <= horizon + 1e-9:
                r.completion = batch.boundary(needed)
                r.tokens_generated = r.s_out
            else:
                r.tokens_generated = min(r.s_out, base + min(iters, cap))
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

    def install_layout(self, config: ParallelConfig, mapping: DeviceMapping):
        """Serve `mapping`: every GPU is emptied, then each assigned GPU holds
        its position's model context."""
        self.config = config
        self.assignment = mapping.gpu_for()
        for inst in self.instances.values():
            inst.gpu_inventories = [ContextInventory.empty()] * inst.gpus
        for pos, (inst_id, g) in sorted(self.assignment.items()):
            self.instances[inst_id].gpu_inventories[g] = required_context(config, pos, self.model)
        self.pipelines = {
            d: Pipeline(index=d, next_start=self.now)
            for d in range(1, config.data_parallel + 1)
        }

    def layout_snapshot(self, cache: KvCache | None = None) -> dict[GpuRef, ContextInventory]:
        """Holdings of every live GPU; an assigned GPU also holds the KV cache
        `cache` lists for its pipeline."""
        snap: dict[GpuRef, ContextInventory] = {}
        for inst in self.instances_by("active", "allocating", "grace_preempting"):
            snap.update(zip(inst.gpu_refs(), inst.gpu_inventories))
        if not self.config or not cache:
            return snap
        for pos in sorted(self.assignment):
            gpu = self.assignment[pos]
            if cache.get(pos.pipeline) and gpu in snap:
                snap[gpu] = required_context(self.config, pos, self.model, cache[pos.pipeline])
        return snap

    def batch_requests_by_pipeline(self, batches: list[Batch]) -> dict[int, list[RequestRecord]]:
        out: dict[int, list[RequestRecord]] = {}
        for b in batches:
            out.setdefault(b.pipeline, []).extend(b.requests)
        return out

    def ready_time(self, serving: set[str]) -> float:
        """When every instance of a serving set is up: now, or the latest
        ready time among those still allocating."""
        return max([self.now] + [self.instances[i].ready_at for i in serving
                                 if self.instances[i].status == "allocating"])

    def commit(self, at: float, payload: dict):
        """Hold off reactions until `at`, then let the policy commit there."""
        self.busy_until = max(self.busy_until, at)
        if at <= self.now:
            self.policy.on_commit(self, payload)
        else:
            self.push(at, P_INTERNAL, "commit", payload)

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
            self.try_dispatch()

        self.paused_until = max(self.paused_until, at)
        self.busy_until = max(self.busy_until, at)
        self.push(at, P_INTERNAL, "resume", resume)

    def log_reconfig(self, config: ParallelConfig, t_mig: float) -> list:
        entry = [self.now, config.as_tuple(), t_mig]
        self.reconfig_log.append(entry)
        return entry

    def suspend_service(self):
        self.restart_batches(self.all_batches())
        self.config = None
        self.assignment = {}
        self.pipelines = {}

    # -- finish ------------------------------------------------------------------------

    def finalize(self):
        self.now = self.cfg.duration
        for batch in self.all_batches():
            iters = batch.iters_at(self.now)
            for r in batch.requests:
                r.tokens_generated = min(r.s_out, batch.base_tokens[r.id] + iters)
        for inst_id in sorted(self.usage_open, key=natural_key):
            kind, start = self.usage_open[inst_id]
            self.usage.append((inst_id, kind, start, self.cfg.duration))
        self.usage_open = {}

    def report(self) -> MetricsReport:
        tokens = sum(r.tokens_generated for r in self.records)
        cost = monetary_cost(sorted(self.usage, key=lambda u: (natural_key(u[0]), u[2])),
                             self.profile.prices, tokens_served=tokens)
        return collect_metrics(
            self.records, horizon=self.cfg.duration, cost=cost,
            reconfigurations=[(t, cfg, tm) for t, cfg, tm in self.reconfig_log],
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
        by_pipe = engine.batch_requests_by_pipeline(engine.all_batches())
        snapshot = engine.layout_snapshot(kv_cache(by_pipe))
        candidates = [replace(inst, gpu_inventories=[snapshot[ref] for ref in inst.gpu_refs()])
                      for inst in engine.instances_by("active", "allocating")]
        if self._use("mapper"):
            inheritance = None
            if engine.config is not None:
                inheritance = default_inheritance(engine.config.data_parallel,
                                                  target.data_parallel)
            return map_devices(candidates, target, engine.model,
                               engine.cfg.gpus_per_instance,
                               inheritance=inheritance, requests_by_old_pipeline=by_pipe)
        return positional_mapping(candidates, target)  # the target fits the candidates

    def on_trace_group(self, engine: Engine, group: list[TraceEvent]):
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
        changed = new_serving != engine.serving_instances()
        if not ctl.should_reconfigure(engine.config, target, changed):
            return

        commit_at = engine.ready_time(new_serving)
        grace = [i.grace_deadline for i in engine.instances_by("grace_preempting")
                 if i.id in engine.serving_instances()]
        entry = engine.log_reconfig(target, math.nan)
        payload = {
            "target": target, "mapping": mapping, "entry": entry,
            "grace_deadline": min(grace) if grace and commit_at <= engine.now else None,
        }
        engine.commit(commit_at, payload)

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

    def on_commit(self, engine: Engine, payload: dict):
        target: ParallelConfig = payload["target"]
        mapping: DeviceMapping = payload["mapping"]
        first_boot = engine.config is None

        migrate_groups: dict[int, list[RequestRecord]] = {}
        release: dict[str, float] = {}  # per-instance earliest transfer time
        commit_start = engine.now
        drop_cache: list[RequestRecord] = []

        def note_release(pipeline_d: int, t: float):
            for pos in sorted(engine.assignment):
                if pos.pipeline == pipeline_d:
                    inst = engine.assignment[pos][0]
                    release[inst] = max(release.get(inst, engine.now), t)

        if not first_boot:
            deadline = payload.get("grace_deadline")
            affected = self._affected_pipelines(engine, mapping)
            t_mig_est = self._estimate_full_migration(engine, mapping) if deadline else 0.0
            for batch in engine.all_batches():
                if batch.pipeline not in affected:
                    continue  # untouched pipelines keep serving, pause at commit
                stop_t, iters, action = self._arrange_batch(engine, batch, deadline, t_mig_est)
                survivors = engine.pause_batch(batch, iters)
                if not survivors:
                    note_release(batch.pipeline, min(stop_t, batch.boundary(iters)))
                    continue
                note_release(batch.pipeline, stop_t)
                if action == "migrate_with_cache":
                    migrate_groups.setdefault(batch.pipeline, []).extend(survivors)
                else:
                    drop_cache.extend(survivors)
            if deadline is not None and self._use("arranger"):
                self._feed_during_grace(engine, deadline, t_mig_est, affected, note_release)
            commit_start = max([engine.now] + list(release.values()))
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

        movers = [r for d in sorted(migrate_groups) for r in migrate_groups[d]]
        retained = retain_cache(movers, engine.config or target, target)
        kept_ids = {r.id for r in retained}
        discarded = [r for r in movers if r.id not in kept_ids]
        engine.requeue(discarded, reset_progress=True)
        old_cache = {
            d: [r for r in migrate_groups[d] if r.id in kept_ids]
            for d in sorted(migrate_groups)
        }

        packed = self._pack_pipelines(old_cache, target)
        # packed order, not id order: it drives the planner's source choice
        inherited = {
            d: [(r.id, r.s_in + r.tokens_generated) for r in reqs]
            for d, reqs in sorted(packed.items())
        }

        stall, t_full = self._plan_and_cost(engine, mapping, old_cache, inherited,
                                            packed, target, first_boot, release)
        payload["entry"][2] = t_full
        engine.resume_at(max(engine.now + stall, commit_start), target, mapping, packed)

    def _feed_during_grace(self, engine: Engine, deadline: float, t_mig_est: float,
                           affected: set[int], note_release) -> None:
        """Keep feeding batches inside the grace period while they can finish
        before the migration must start (the JIT check before a new batch).

        Only affected pipelines are fed: their release floor moves with the
        fed batch, so it genuinely runs before the cutover.  An unaffected
        pipeline's future slot belongs to the post-commit configuration.
        """
        budget_end = deadline - t_mig_est
        step = engine.profile.decode_seconds(engine.config)
        while engine.queue:
            best = None
            for d, pipe in engine.pipelines.items():
                if d not in affected:
                    continue
                slot = max(pipe.next_start, pipe.ready_at, engine.now)
                if best is None or slot < best[1]:
                    best = (pipe, slot)
            if best is None:
                break
            pipe, slot = best
            take = min(engine.config.batch_limit, len(engine.queue))
            head = engine.queue[:take]
            s_in = max(r.s_in for r in head)
            prefill = engine.profile.prefill_seconds(engine.config, s_in)
            steps = max(r.s_out - r.tokens_generated for r in head)
            finish = slot + prefill + steps * step
            if finish > budget_end + 1e-9:
                break
            del engine.queue[:take]
            engine.start_batch(pipe, head, at=slot)
            note_release(pipe.index, finish)

    # -- commit helpers -----------------------------------------------------------

    def _arrange_batch(self, engine: Engine, batch: Batch, deadline: float | None,
                       t_mig_est: float) -> tuple[float, int, str]:
        boundary_t, done = batch.next_boundary(engine.now)
        remaining = batch.steps_needed - done
        if not self._use("arranger"):
            return boundary_t, done, "drop"
        if deadline is None:
            return boundary_t, done, "migrate_with_cache"
        ctx = GraceContext(
            kind="preemption",
            t_remaining=max(0.0, deadline - boundary_t),
            t_migration=t_mig_est,
            batch=BatchProgress(steps_remaining=remaining, prefill_pending=False),
            config=engine.config,
        )
        arr = arrange_preemption(ctx, engine.profile)
        stop_t = boundary_t + arr.steps * batch.step
        action = "migrate_with_cache" if arr.action_after == "migrate_with_cache" else "drop"
        return stop_t, done + arr.steps, action

    def _affected_pipelines(self, engine: Engine, mapping: DeviceMapping) -> set[int]:
        """Pipelines whose instances take part in the context migration."""
        try:
            model_deltas, _, _, _ = derive_transfers(
                mapping, engine.layout_snapshot(None), engine.model,
                departing=self._departing(engine))
        except MigrationError:
            return set(d for d in engine.pipelines)
        participants = set()
        for transfers in model_deltas.values():
            for t in transfers:
                participants.add(t.src[0])
                participants.add(t.dst[0])
        affected = set()
        for pos in sorted(engine.assignment):
            if engine.assignment[pos][0] in participants:
                affected.add(pos.pipeline)
        return affected

    @staticmethod
    def _departing(engine: Engine) -> frozenset[str]:
        return frozenset(i.id for i in engine.instances_by("grace_preempting"))

    def _plan(self, engine: Engine, mapping: DeviceMapping, cache: KvCache | None,
              inherited: dict | None, u_max: float | None) -> MigrationPlan | None:
        """Plan from the live layout with `cache` on top; None when some
        required shard has no live copy left."""
        snapshot = engine.layout_snapshot(cache)
        try:
            return plan_migration(mapping, snapshot, engine.model, u_max=u_max,
                                  inherited_by_pipeline=inherited,
                                  departing=self._departing(engine))
        except MigrationError:
            return None

    def _estimate_full_migration(self, engine: Engine, mapping: DeviceMapping) -> float:
        """Pessimistic migration time: every in-flight request's cache moves."""
        inherited = kv_cache(engine.batch_requests_by_pipeline(engine.all_batches()))
        plan = self._plan(engine, mapping, inherited, inherited, engine.cfg.u_max)
        if plan is None:
            return restart_cost(engine.profile, "remote_storage")
        return migration_cost(plan, engine.profile)

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

    def _plan_and_cost(self, engine: Engine, mapping: DeviceMapping,
                       old_cache: dict[int, list[RequestRecord]], inherited: dict,
                       packed: dict[int, list[RequestRecord]], target: ParallelConfig,
                       first_boot: bool, release: dict[str, float]) -> tuple[float, float]:
        if first_boot:
            return 0.0, 0.0
        with_cache = self._use("arranger")
        plan = self._plan(engine, mapping, kv_cache(old_cache) if with_cache else None,
                          inherited if with_cache else None,
                          engine.cfg.u_max if self._use("planner") else None)
        if plan is None:
            # some required shard has no live copy left: reload from storage
            stall = restart_cost(engine.profile, "remote_storage")
            for d in sorted(packed):
                engine.requeue(packed[d], reset_progress=True)
            packed.clear()
            return stall, stall
        t_full = migration_cost(plan, engine.profile)
        stall = migration_cost(plan, engine.profile, config=target,
                               progressive=self._use("planner"),
                               release=release, start=engine.now)
        return stall, t_full


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
        """The fixed (P, M, B) shape, chosen at the first availability that can
        host one; None until then."""
        if self.shape is None:
            best = ctl.choose_config(engine.available_count(), engine.current_rate(),
                                     engine.profile, engine.cfg.gpus_per_instance)
            if best is None:
                return None
            self.shape = (best.pipeline_stages, best.tensor_shards, best.batch_limit)
        if tuple(self.shape) not in engine.profile.decode_table:
            raise ProfileMissError(f"profile has no entry for fixed shape {self.shape}")
        return self.shape

    def on_trace_group(self, engine: Engine, group: list[TraceEvent]):
        if self._fixed(engine) is None:
            return
        lost = {ev.instance_id for ev in group if ev.kind == "preempt"}
        affected = [d for d in sorted(self.pipe_instances)
                    if lost & set(self.pipe_instances[d])]
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
            engine.pipelines[d] = Pipeline(index=d, next_start=engine.now, ready_at=ready_at)
            added = True
        if self.pipe_instances:
            self._booted = True
        d_now = max(1, len(self.pipe_instances))
        engine.config = ParallelConfig(d_now, p, m, b)
        if forced or added:
            engine.log_reconfig(engine.config, 0.0)
        engine.try_dispatch()


class ReparallelizationPolicy:
    """Adaptive-configuration baseline without context migration: every
    reconfiguration restarts all engines from disk and recomputes in-flight
    requests from token zero."""

    name = "reparallelization"

    def __init__(self):
        self.serving: set[str] = set()

    def on_trace_group(self, engine: Engine, group: list[TraceEvent]):
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
        commit_at = engine.ready_time(new_serving)
        entry = engine.log_reconfig(target, math.nan)
        payload = {"target": target, "serving": sorted(new_serving, key=natural_key),
                   "entry": entry}
        engine.commit(commit_at, payload)

    def on_instance_ready(self, engine: Engine, inst: InstanceState):
        pass

    def on_commit(self, engine: Engine, payload):
        target: ParallelConfig = payload["target"]
        first_boot = engine.config is None
        engine.restart_batches(engine.all_batches())
        stall = 0.0
        if not first_boot:
            stall = restart_cost(engine.profile, "local_disk")
        payload["entry"][2] = stall
        self.serving = set(payload["serving"])
        live = [engine.instances[i] for i in payload["serving"]
                if engine.instances[i].status in ("active", "allocating")]
        mapping = positional_mapping(live, target)
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
