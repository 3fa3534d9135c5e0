import json
import random
from dataclasses import asdict
from pathlib import Path

import pytest

from spotsim.costmodel import _NOMINAL, _RESTART, PerfProfile, PriceSheet, Shape, load_profile
from spotsim.data import bundled_path
from spotsim.domain import ModelSpec
from spotsim.simconfig import SimConfig, WorkloadSpec


@pytest.fixture(scope="session")
def gpt_profile():
    return load_profile(bundled_path("gpt-20b"))


@pytest.fixture(scope="session")
def opt_profile():
    return load_profile(bundled_path("opt-6.7b"))


@pytest.fixture(scope="session")
def llama_profile():
    return load_profile(bundled_path("llama-30b"))


def make_profile(t_dec=0.1, t_init=2.0, shapes=((1, 1, 1),), eta=1.0, bandwidth=1e9,
                 latency=0.0, model=None, s_in_ref=512, prices=(1.9, 3.9),
                 local_ratio=1.45, remote_ratio=9.54, baseline=10.0):
    """Small synthetic profile; every listed (P,M,B) shape shares the costs."""
    if model is None:
        model = ModelSpec(name="toy", num_layers=4, bytes_per_layer=1000,
                          kv_bytes_per_token_per_layer=8)
    decode = {tuple(s): t_dec for s in shapes}
    prefill = {tuple(s): {s_in_ref: t_init} for s in shapes}
    return PerfProfile(
        model=model,
        decode_table=decode,
        prefill_table=prefill,
        pipeline_efficiency=eta,
        bandwidth=bandwidth,
        transfer_latency=latency,
        prices=PriceSheet(spot_usd_per_hour=prices[0], ondemand_usd_per_hour=prices[1]),
        local_restart_ratio=local_ratio,
        remote_restart_ratio=remote_ratio,
        restart_baseline_s=baseline,
    )


def profile_to_dict(profile: PerfProfile) -> dict:
    """The profile as `costmodel.profile_from_dict` reads it."""
    return {
        "model": asdict(profile.model),
        "pipeline_efficiency": profile.pipeline_efficiency,
        "bandwidth_bytes_per_s": profile.bandwidth,
        "transfer_latency_s": profile.transfer_latency,
        "restart": {key: getattr(profile, field) for key, field in _RESTART.items()},
        "prices": asdict(profile.prices),
        "nominal": {key: getattr(profile, field) for key, field in _NOMINAL.items()},
        "t_dec": {_shape_key(s): v for s, v in sorted(profile.decode_table.items())},
        "t_init": {
            _shape_key(s): {str(k): v for k, v in sorted(entries.items())}
            for s, entries in sorted(profile.prefill_table.items())
        },
    }


def _shape_key(shape: Shape) -> str:
    return ",".join(str(x) for x in shape)


def save_profile(profile: PerfProfile, path):
    """Write `profile` as a profile file `load_profile` reads back."""
    Path(path).write_text(json.dumps(profile_to_dict(profile), indent=1) + "\n")


def save_arrivals(records, path):
    """Write `(t, s_in, s_out)` records as an arrival file `load_arrivals` reads."""
    with open(path, "w") as f:
        for t, s_in, s_out in records:
            f.write(json.dumps({"t": t, "s_in": s_in, "s_out": s_out}) + "\n")


def write_trace(path, events):
    path.write_text("".join(json.dumps(e) + "\n" for e in events))


def boot_events(n, t=0.0, gpus_kind="spot"):
    return [{"t": t, "kind": "acquire", "id": f"i-{k}", "itype": gpus_kind, "ready_in": 0.0}
            for k in range(n)]


def churn_config(tmp_path, seed: int) -> SimConfig:
    """gpt-20b on ten 4-GPU instances for 900 s: every 90 s, alternately,
    1-2 running instances are preempted with 30 s of grace or 1-2 new ones
    are acquired, ready 60 s later."""
    rng = random.Random(seed)
    events = boot_events(10)
    up, next_id = [f"i-{k}" for k in range(10)], 10
    for slot in range(1, 10):
        t = slot * 90.0 + rng.uniform(-20.0, 20.0)
        for _ in range(rng.randint(1, 2)):
            if slot % 2:
                events.append({"t": t, "kind": "preempt", "grace": 30.0,
                               "id": up.pop(rng.randrange(len(up)))})
            else:
                events.append({"t": t, "kind": "acquire", "id": f"i-{next_id}", "ready_in": 60.0})
                up.append(f"i-{next_id}")
                next_id += 1
    trace = tmp_path / "trace.jsonl"
    write_trace(trace, events)
    return SimConfig(profile_path=str(bundled_path("gpt-20b")), trace_path=str(trace),
                     workload=WorkloadSpec(kind="fixed_rate", rate=0.5, cv=4.0, seed=seed),
                     policy="spotserve", duration=900.0, gpus_per_instance=4)
