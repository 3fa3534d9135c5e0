"""Simulation configuration and availability-trace parsing."""

import json
from dataclasses import dataclass
from pathlib import Path


class SimConfigError(ValueError):
    pass


class TraceError(ValueError):
    pass


@dataclass(frozen=True)
class TraceEvent:
    t: float
    kind: str  # "preempt" | "acquire"
    instance_id: str
    grace: float | None = None  # preempt: seconds of advance notice
    itype: str | None = None  # acquire: "spot" | "ondemand"
    ready_in: float | None = None  # acquire: boot+init delay


def load_trace(path: str | Path, grace_default: float = 30.0,
               ready_default: float = 120.0) -> list[TraceEvent]:
    """Availability trace: JSON lines, one preempt/acquire event per line."""
    events = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as e:
                raise TraceError(f"{path}:{lineno}: invalid JSON: {e}") from None
            try:
                kind = doc["kind"]
                if kind == "preempt":
                    ev = TraceEvent(
                        t=float(doc["t"]), kind="preempt", instance_id=str(doc["id"]),
                        grace=float(doc.get("grace", grace_default)),
                    )
                    if ev.grace < 0:
                        raise ValueError("grace must be >= 0")
                elif kind == "acquire":
                    ev = TraceEvent(
                        t=float(doc["t"]), kind="acquire", instance_id=str(doc["id"]),
                        itype=str(doc.get("itype", "spot")),
                        ready_in=float(doc.get("ready_in", ready_default)),
                    )
                else:
                    raise ValueError(f"unknown event kind {kind!r}")
            except (KeyError, TypeError, ValueError) as e:
                raise TraceError(f"{path}:{lineno}: bad trace event: {e}") from None
            events.append(ev)
    if any(b.t < a.t for a, b in zip(events, events[1:])):
        events.sort(key=lambda e: e.t)
    return events


@dataclass
class WorkloadSpec:
    kind: str  # "fixed_rate" | "arrival_file"
    rate: float | None = None
    cv: float | None = None
    seed: int | None = None
    path: str | None = None

    def __post_init__(self):
        if self.kind == "fixed_rate":
            if self.rate is None or self.cv is None or self.seed is None:
                raise SimConfigError("fixed_rate workload needs rate, cv and seed")
        elif self.kind == "arrival_file":
            if not self.path:
                raise SimConfigError("arrival_file workload needs a path")
        else:
            raise SimConfigError(f"unknown workload kind {self.kind!r}")


POLICIES = ("spotserve", "rerouting", "reparallelization")
CONFIG_KEYS = ("profile", "trace", "workload", "policy", "duration", "pool_size",
               "gpus_per_instance", "u_max", "s_in", "s_out", "grace_default", "ready_default",
               "rate_source", "rate_window", "rerouting_shape", "disable")
WORKLOAD_KEYS = ("kind", "rate", "cv", "seed", "path")
ABLATION_FEATURES = ("controller", "planner", "arranger", "mapper")


@dataclass
class SimConfig:
    profile_path: str
    trace_path: str
    workload: WorkloadSpec
    policy: str = "spotserve"
    duration: float = 1200.0
    pool_size: int = 2
    gpus_per_instance: int = 4
    u_max: float | None = None
    s_in: int = 512
    s_out: int = 128
    grace_default: float = 30.0
    ready_default: float = 120.0
    rate_source: str = "declared"  # "declared" | "estimated"
    rate_window: float = 30.0
    rerouting_shape: tuple[int, int, int] | None = None  # (P, M, B)
    disable: tuple[str, ...] = ()  # ablation: cumulative features removed

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise SimConfigError(f"unknown policy {self.policy!r}")
        for name in ("duration", "rate_window", "u_max"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise SimConfigError(f"{name} must be positive")
        for name, low in (("s_in", 1), ("s_out", 1), ("gpus_per_instance", 1),
                          ("pool_size", 0), ("grace_default", 0), ("ready_default", 0)):
            if getattr(self, name) < low:
                raise SimConfigError(f"{name} must be >= {low}")
        if self.rerouting_shape is not None and min(self.rerouting_shape) < 1:
            raise SimConfigError("rerouting_shape entries must be >= 1")
        if self.rate_source not in ("declared", "estimated"):
            raise SimConfigError(f"unknown rate_source {self.rate_source!r}")
        for feat in self.disable:
            if feat not in ABLATION_FEATURES:
                raise SimConfigError(f"unknown ablation feature {feat!r}")
        if self.rate_source == "declared" and self.workload.kind != "fixed_rate":
            self.rate_source = "estimated"


def simconfig_from_dict(doc: dict, base_dir: str | Path = ".") -> SimConfig:
    base = Path(base_dir)

    def resolve(p):
        p = Path(p)
        return str(p if p.is_absolute() else base / p)

    try:
        wl = doc["workload"]
        unknown = ([k for k in doc if k not in CONFIG_KEYS]
                   + [f"workload.{k}" for k in wl if k not in WORKLOAD_KEYS])
        if unknown:
            raise SimConfigError(f"unknown config key {', '.join(map(repr, unknown))}")
        workload = WorkloadSpec(
            kind=wl["kind"],
            rate=wl.get("rate"),
            cv=wl.get("cv"),
            seed=wl.get("seed"),
            path=resolve(wl["path"]) if wl.get("path") else None,
        )
        shape = doc.get("rerouting_shape")
        return SimConfig(
            profile_path=resolve(doc["profile"]),
            trace_path=resolve(doc["trace"]),
            workload=workload,
            policy=doc.get("policy", "spotserve"),
            duration=float(doc.get("duration", 1200.0)),
            pool_size=int(doc.get("pool_size", 2)),
            gpus_per_instance=int(doc.get("gpus_per_instance", 4)),
            u_max=None if doc.get("u_max") is None else float(doc["u_max"]),
            s_in=int(doc.get("s_in", 512)),
            s_out=int(doc.get("s_out", 128)),
            grace_default=float(doc.get("grace_default", 30.0)),
            ready_default=float(doc.get("ready_default", 120.0)),
            rate_source=doc.get("rate_source", "declared"),
            rate_window=float(doc.get("rate_window", 30.0)),
            rerouting_shape=None if shape is None else (int(shape[0]), int(shape[1]), int(shape[2])),
            disable=tuple(doc.get("disable", ())),
        )
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, SimConfigError):
            raise
        raise SimConfigError(f"bad simulation config: {e}") from None


def load_simconfig(path: str | Path) -> SimConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise SimConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise SimConfigError(f"{path}: invalid JSON: {e}") from None
    return simconfig_from_dict(doc, base_dir=path.parent)


def simconfig_to_dict(cfg: SimConfig) -> dict:
    wl = {"kind": cfg.workload.kind}
    if cfg.workload.kind == "fixed_rate":
        wl.update(rate=cfg.workload.rate, cv=cfg.workload.cv, seed=cfg.workload.seed)
    else:
        wl["path"] = cfg.workload.path
    return {
        "profile": cfg.profile_path,
        "trace": cfg.trace_path,
        "workload": wl,
        "policy": cfg.policy,
        "duration": cfg.duration,
        "pool_size": cfg.pool_size,
        "gpus_per_instance": cfg.gpus_per_instance,
        "u_max": cfg.u_max,
        "s_in": cfg.s_in,
        "s_out": cfg.s_out,
        "grace_default": cfg.grace_default,
        "ready_default": cfg.ready_default,
        "rate_source": cfg.rate_source,
        "rate_window": cfg.rate_window,
        "rerouting_shape": None if cfg.rerouting_shape is None else list(cfg.rerouting_shape),
        "disable": list(cfg.disable),
    }
