"""Timing from outside the program, by wrapping its public functions.

`DecisionTimer` is the thin wrapper the untraced run uses: it times each
outermost policy decision hook and nothing else.  `Tracer` is the traced run:
it records a span (name, start, end, parent) around every wrapped function,
counts scheduled events by kind and dispatch attempts, and keeps everything in
memory until `write` dumps it.  Both patch module or class attributes, so
they see every call the engine makes through those bindings, and both restore
the originals on exit.
"""

import json
import time
from collections import Counter, defaultdict
from pathlib import Path

import spotsim.controller
import spotsim.mapping
import spotsim.migration
import spotsim.simulator as sim

# Policy hooks through which the engine asks a policy to decide.
HOOKS = (
    (sim.AdaptivePolicy, "on_trace_group"), (sim.AdaptivePolicy, "on_commit"),
    (sim.ReroutingPolicy, "on_trace_group"),
    (sim.ReparallelizationPolicy, "on_trace_group"), (sim.ReparallelizationPolicy, "on_commit"),
)
DECIDE = "policy.decide"

EVENT_KINDS = ("trace", "arrival", "complete", "poll", "notify", "ready", "deadline",
               "commit", "resume")


class _Patcher:
    def __init__(self):
        self._saved = []

    def patch(self, owner, attr: str, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


class DecisionTimer(_Patcher):
    """Host seconds of every outermost decision hook call.

    A hook the policy calls from inside another hook (an immediate commit)
    is part of the outer decision, not a decision of its own.  Given a
    `speed.SpeedClock`, it lets the clock probe around each decision (outside
    the timed call) and scales each sample by the probes around it.
    """

    def __init__(self, clock=None):
        super().__init__()
        self.samples: list[float] = []
        self._depth = 0
        self._clock = clock

    def __enter__(self):
        for cls, attr in HOOKS:
            self.patch(cls, attr, self._timed(getattr(cls, attr)))
        return self

    def _timed(self, fn):
        clock = time.perf_counter

        def hook(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth = 1
            speed = self._clock
            entered = speed.enter() if speed is not None else None
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = clock() - t0
                if speed is not None:
                    seconds = speed.leave(seconds, entered)
                self.samples.append(seconds)
                self._depth = 0
        return hook


class Tracer(_Patcher):
    """Spans around each layer's public functions, plus counters."""

    def __init__(self):
        super().__init__()
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.values: dict[str, list[float]] = defaultdict(list)

    def spanned(self, name: str, fn, after=None):
        """`fn` wrapped in a span; `after(result, *args, **kwargs)` runs once
        the span has closed."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapper

    def wrap(self, owner, attr: str, name: str, after=None):
        self.patch(owner, attr, self.spanned(name, getattr(owner, attr), after))

    def __enter__(self):
        w, mig = self.wrap, spotsim.migration
        w(spotsim.mapping, "overlap_bytes", "domain.overlap_bytes")
        w(spotsim.mapping, "build_graph", "mapping.build_graph", self._after_graph)
        w(sim, "map_devices", "mapping.map_devices", self._after_mapping)
        w(sim, "derive_transfers", "migration.derive_transfers")
        w(mig, "derive_transfers", "migration.derive_transfers")
        w(mig, "memopt_layer_order", "migration.memopt_layer_order")
        w(sim, "plan_migration", "migration.plan_migration", self._after_plan)
        w(spotsim.controller, "optimize_config", "controller.optimize_config",
          self._after_optimize)
        w(sim, "migration_cost", "costmodel.migration_cost")
        w(sim, "load_profile", "costmodel.load_profile")
        w(sim, "arrange_preemption", "arranger.arrange_preemption")
        w(sim, "load_trace", "simconfig.load_trace")
        w(sim, "gamma_arrivals", "workload.gamma_arrivals")
        w(sim, "collect_metrics", "metrics.collect_metrics")
        w(sim.Engine, "run", "simulator.loop")
        for cls, attr in HOOKS:
            w(cls, attr, DECIDE)
        self._count_engine()
        return self

    # -- counters at the layer boundaries ------------------------------------

    def _count_engine(self):
        counts = self.counts
        push, try_dispatch, start_batch = (sim.Engine.push, sim.Engine.try_dispatch,
                                           sim.Engine.start_batch)

        def counted_push(engine, t, prio, kind, data):
            counts["simulator.events." + kind] += 1
            return push(engine, t, prio, kind, data)

        def counted_start(engine, *args, **kwargs):
            counts["simulator.batches"] += 1
            return start_batch(engine, *args, **kwargs)

        def counted_dispatch(engine):
            before = counts["simulator.batches"]
            try_dispatch(engine)
            counts["simulator.dispatch_calls"] += 1
            counts["simulator.dispatch_hits"] += counts["simulator.batches"] > before

        self.patch(sim.Engine, "push", counted_push)
        self.patch(sim.Engine, "start_batch", counted_start)
        self.patch(sim.Engine, "try_dispatch", counted_dispatch)

    def _after_graph(self, graph, *args, **kwargs):
        self.counts["mapping.edges"] += len(graph.gpus) * len(graph.slots)

    def _after_mapping(self, mapping, instances, target, model, gpus_per_instance,
                       inheritance=None, requests_by_old_pipeline=None, **kwargs):
        # Every pipeline needs the whole model, and the KV cache of each
        # request it inherits across all layers (as build_graph counts it).
        tokens = 0
        if inheritance and requests_by_old_pipeline:
            tokens = sum(r.s_in + r.tokens_generated
                         for d_old, reqs in requests_by_old_pipeline.items()
                         if inheritance.get(d_old) is not None for r in reqs)
        required = (target.data_parallel * model.total_param_bytes
                    + tokens * model.kv_bytes_per_token_per_layer * model.num_layers)
        self.values["mapping.reused_bytes"].append(mapping.total_weight)
        self.values["mapping.required_bytes"].append(float(required))

    def _after_plan(self, plan, *args, **kwargs):
        self.counts["migration.transfers"] += len(plan.transfers())
        self.values["migration.bytes"].append(plan.total_bytes())
        if plan.u_max:
            self.values["migration.peak_over_umax"].append(
                max(plan.peak_usage.values(), default=0.0) / plan.u_max)

    def _after_optimize(self, result, n_available, current, rate, profile, candidates,
                        *args, **kwargs):
        self.counts["controller.candidates"] += len(candidates)

    # -- results ---------------------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, and self seconds (total minus
        the time its direct children cover)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            if name == DECIDE and parent >= 0 and self.spans[parent][0] == DECIDE:
                name = "policy.nested_hook"  # part of the outer decision
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child[i]
        return out

    def write(self, path: Path, extra: dict):
        with open(path, "w") as f:
            json.dump({**extra, "span_fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts": dict(self.counts)}, f)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by name (see BENCHMARK.json)."""
    lt = tracer.layer_times()
    c = tracer.counts
    v = tracer.values

    def t(name, field="s"):
        return lt[name][field] if name in lt else 0.0

    def calls(name):
        return lt[name]["calls"] if name in lt else 0

    events = sum(c["simulator.events." + k] for k in EVENT_KINDS)
    arrivals = c["simulator.events.arrival"]
    required = sum(v["mapping.required_bytes"])
    return {
        "domain.overlap_bytes.calls": calls("domain.overlap_bytes"),
        "domain.overlap_bytes.s": t("domain.overlap_bytes"),
        "mapping.map_devices.s": t("mapping.map_devices"),
        "mapping.build_graph.self_s": t("mapping.build_graph", "self_s"),
        "mapping.match_s": t("mapping.map_devices", "self_s"),
        "mapping.edges": c["mapping.edges"],
        "mapping.reuse_ratio": sum(v["mapping.reused_bytes"]) / required if required else 0.0,
        "migration.derive_transfers.calls": calls("migration.derive_transfers"),
        "migration.derive_transfers.s": t("migration.derive_transfers"),
        "migration.plan_migration.self_s": t("migration.plan_migration", "self_s"),
        "migration.memopt_layer_order.s": t("migration.memopt_layer_order"),
        "migration.transfers": c["migration.transfers"],
        "migration.bytes": sum(v["migration.bytes"]),
        "migration.peak_over_umax": max(v["migration.peak_over_umax"], default=0.0),
        "simulator.events": events,
        **{f"simulator.events.{k}": c["simulator.events." + k] for k in EVENT_KINDS},
        "simulator.events_per_arrival": events / arrivals if arrivals else 0.0,
        "simulator.dispatch_hit_ratio": (c["simulator.dispatch_hits"] / c["simulator.dispatch_calls"]
                                         if c["simulator.dispatch_calls"] else 0.0),
        "simulator.loop_self_s": t("simulator.loop", "self_s"),
        "simulator.decisions": calls(DECIDE),
        "controller.optimize_config.calls": calls("controller.optimize_config"),
        "controller.optimize_config.s": t("controller.optimize_config"),
        "controller.candidates": c["controller.candidates"],
        "costmodel.migration_cost.s": t("costmodel.migration_cost"),
        "costmodel.load_profile.s": t("costmodel.load_profile"),
        "arranger.arrange_preemption.calls": calls("arranger.arrange_preemption"),
        "arranger.arrange_preemption.s": t("arranger.arrange_preemption"),
        "workload.gamma_arrivals.s": t("workload.gamma_arrivals"),
        "simconfig.load_trace.s": t("simconfig.load_trace"),
        "metrics.collect_metrics.s": t("metrics.collect_metrics"),
        "metrics.write_outputs.s": t("metrics.write_outputs"),
    }
