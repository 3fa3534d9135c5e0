"""Simulation configuration and availability-trace parsing."""

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .domain import INSTANCE_KINDS, STORAGE, as_real, is_count
from .workload import WorkloadError, gamma_params


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
    acquired = set()
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
                kind, t, inst = doc["kind"], as_real(doc["t"]), str(doc["id"])
                unknown = [k for k in doc
                           if k not in ("t", "kind", "id", "grace", "itype", "ready_in")]
                if unknown:
                    raise ValueError(f"unknown key {', '.join(map(repr, unknown))}")
                if kind == "preempt":
                    ev = TraceEvent(t, kind, inst, grace=as_real(doc.get("grace", grace_default)))
                elif kind == "acquire":
                    ev = TraceEvent(t, kind, inst, itype=str(doc.get("itype", "spot")),
                                    ready_in=as_real(doc.get("ready_in", ready_default)))
                    if ev.itype not in INSTANCE_KINDS:
                        raise ValueError(f"unknown itype {ev.itype!r}")
                    if inst in acquired:
                        raise ValueError(f"instance {inst!r} acquired twice")
                    acquired.add(inst)
                else:
                    raise ValueError(f"unknown event kind {kind!r}")
                if not 0 <= t < math.inf:
                    raise ValueError("t must be finite and >= 0")
                if not all(0 <= v < math.inf for v in (ev.grace or 0.0, ev.ready_in or 0.0)):
                    raise ValueError("grace and ready_in must be finite and >= 0")
                if inst == STORAGE[0]:
                    raise ValueError(f"instance id {inst!r} names remote storage")
            except (KeyError, TypeError, ValueError) as e:
                raise TraceError(f"{path}:{lineno}: bad trace event: {e}") from None
            events.append(ev)
    return sorted(events, key=lambda e: e.t)


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
            for name in ("rate", "cv"):
                try:
                    value = as_real(getattr(self, name))
                except (TypeError, ValueError):
                    value = math.nan
                if not math.isfinite(value):
                    raise SimConfigError(f"workload {name} must be a finite number")
                setattr(self, name, value)
            if not is_count(self.seed, 0):
                raise SimConfigError(f"workload seed must be an integer >= 0, not {self.seed!r}")
        elif self.kind == "arrival_file":
            if not self.path:
                raise SimConfigError("arrival_file workload needs a path")
        else:
            raise SimConfigError(f"unknown workload kind {self.kind!r}")


POLICIES = ("spotserve", "rerouting", "reparallelization")
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
        for name in ("duration", "rate_window", "u_max", "grace_default", "ready_default"):
            value = getattr(self, name)
            if value is None and name == "u_max":
                continue
            try:
                setattr(self, name, as_real(value))
            except (TypeError, ValueError) as e:
                raise SimConfigError(f"{name} must be a number: {e}") from None
        for name in ("duration", "rate_window", "u_max"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise SimConfigError(f"{name} must be positive and finite")
        for name, low in (("s_in", 1), ("s_out", 1), ("gpus_per_instance", 1), ("pool_size", 0)):
            if not is_count(getattr(self, name), low):
                raise SimConfigError(f"{name} must be an integer >= {low}")
        for name in ("grace_default", "ready_default"):
            if not 0 <= getattr(self, name) < math.inf:
                raise SimConfigError(f"{name} must be >= 0 and finite")
        if self.rerouting_shape is not None:
            shape = self.rerouting_shape = tuple(self.rerouting_shape)
            if len(shape) != 3 or not all(is_count(n, 1) for n in shape):
                raise SimConfigError("rerouting_shape must be three integers (P, M, B), each >= 1")
        self.disable = tuple(self.disable)
        if self.rate_source not in ("declared", "estimated"):
            raise SimConfigError(f"unknown rate_source {self.rate_source!r}")
        for feat in self.disable:
            if feat not in ABLATION_FEATURES:
                raise SimConfigError(f"unknown ablation feature {feat!r}")
        if self.workload.kind == "fixed_rate":
            try:
                gamma_params(self.workload.rate, self.workload.cv, self.duration)
            except WorkloadError as e:
                raise SimConfigError(f"workload: {e}") from None
        if self.rate_source == "declared" and self.workload.kind != "fixed_rate":
            self.rate_source = "estimated"


# The optional config keys, each named as its `SimConfig` field; a key left
# out takes the field's default.  Each keeps its JSON value, which `SimConfig`
# checks and normalizes.
_OPTIONAL = ("policy", "duration", "pool_size", "gpus_per_instance", "u_max", "s_in", "s_out",
             "grace_default", "ready_default", "rate_source", "rate_window", "rerouting_shape",
             "disable")
CONFIG_KEYS = ("profile", "trace", "workload", *_OPTIONAL)


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
        return SimConfig(
            profile_path=resolve(doc["profile"]),
            trace_path=resolve(doc["trace"]),
            workload=workload,
            **{key: doc[key] for key in _OPTIONAL if key in doc},
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
    """The config as `simconfig_from_dict` reads it (tuples become JSON lists)."""
    wl = {"kind": cfg.workload.kind}
    if cfg.workload.kind == "fixed_rate":
        wl.update(rate=cfg.workload.rate, cv=cfg.workload.cv, seed=cfg.workload.seed)
    else:
        wl["path"] = cfg.workload.path
    return {"profile": cfg.profile_path, "trace": cfg.trace_path, "workload": wl,
            **{key: getattr(cfg, key) for key in _OPTIONAL}}
