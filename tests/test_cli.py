import csv
import json
from pathlib import Path

import pytest

from spotsim import cli
from spotsim.cli import main
from spotsim.costmodel import ProfileError, load_profile
from spotsim.data import bundled_path


@pytest.fixture()
def quick_config(tmp_path):
    """Bundled case-study scenario, shortened so CLI tests stay fast."""
    doc = json.loads(Path(bundled_path("scenario_bs.json")).read_text())
    doc["profile"] = str(bundled_path("gpt-20b"))
    doc["trace"] = str(bundled_path("trace_bs.jsonl"))
    doc["duration"] = 400.0
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestCmdRun:
    def test_writes_artifacts_and_exits_zero(self, quick_config, tmp_path):
        out = tmp_path / "out"
        code = main(["--outdir", str(out), "run", str(quick_config)])
        assert code == 0
        assert (out / "requests_spotserve.csv").exists()
        assert (out / "summary_spotserve.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["policy"] == "spotserve"
        assert manifest["seeds"] == [123]

    def test_missing_trace_reports_path(self, quick_config, tmp_path, capsys):
        doc = json.loads(quick_config.read_text())
        doc["trace"] = str(tmp_path / "nope.jsonl")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["--outdir", str(tmp_path / "o"), "run", str(bad)])
        assert code == 2
        assert "nope.jsonl" in capsys.readouterr().err

    def test_multi_policy_shares_seed(self, quick_config, tmp_path):
        out = tmp_path / "out"
        code = main(["--outdir", str(out), "run", str(quick_config),
                     "--policy", "rerouting,reparallelization,spotserve"])
        assert code == 0
        arrivals = {}
        for policy in ("rerouting", "reparallelization", "spotserve"):
            with open(out / f"requests_{policy}.csv") as f:
                rows = list(csv.DictReader(f))
            arrivals[policy] = [r["arrival"] for r in rows]
        assert arrivals["rerouting"] == arrivals["spotserve"] == arrivals["reparallelization"]

    def test_invalid_policy_is_config_error(self, quick_config, tmp_path):
        code = main(["--outdir", str(tmp_path / "o"), "run", str(quick_config),
                     "--policy", "magic"])
        assert code == 2

    def test_byte_identical_reruns(self, quick_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--outdir", str(out1), "run", str(quick_config)]) == 0
        assert main(["--outdir", str(out2), "run", str(quick_config)]) == 0
        assert (out1 / "requests_spotserve.csv").read_bytes() == \
               (out2 / "requests_spotserve.csv").read_bytes()
        assert (out1 / "summary_spotserve.json").read_bytes() == \
               (out2 / "summary_spotserve.json").read_bytes()


class TestCmdSweep:
    def test_rate_policy_product(self, quick_config, tmp_path):
        out = tmp_path / "out"
        code = main(["--outdir", str(out), "sweep", str(quick_config),
                     "--rates", "0.25,0.35", "--policies", "spotserve,rerouting"])
        assert code == 0
        with open(out / "sweep.csv") as f:
            rows = list(csv.DictReader(f))
        cells = {(r["rate"], r["policy"]) for r in rows}
        assert len(cells) == 4
        # long format: one row per metric per cell
        per_cell = [r for r in rows if (r["rate"], r["policy"]) == ("0.25", "spotserve")]
        assert {r["metric"] for r in per_cell} >= {"p99", "avg_latency", "total_usd"}

    def test_single_cell_matches_run(self, quick_config, tmp_path):
        out = tmp_path / "out"
        assert main(["--outdir", str(out), "sweep", str(quick_config)]) == 0
        assert main(["--outdir", str(out), "run", str(quick_config)]) == 0
        with open(out / "sweep.csv") as f:
            rows = {r["metric"]: r["value"] for r in csv.DictReader(f)}
        summary = json.loads((out / "summary_spotserve.json").read_text())
        assert float(rows["p99"]) == pytest.approx(summary["p99"])
        assert int(rows["completed"]) == summary["completed"]

    def test_repeated_cell_identical(self, quick_config, tmp_path):
        out = tmp_path / "out"
        code = main(["--outdir", str(out), "sweep", str(quick_config),
                     "--policies", "spotserve,spotserve"])
        assert code == 0
        with open(out / "sweep.csv") as f:
            rows = list(csv.DictReader(f))
        half = len(rows) // 2
        assert [r["value"] for r in rows[:half]] == [r["value"] for r in rows[half:]]


class TestCmdAblate:
    def test_variants_and_baseline_row(self, quick_config, tmp_path):
        out = tmp_path / "out"
        code = main(["--outdir", str(out), "ablate", str(quick_config)])
        assert code == 0
        with open(out / "ablation.csv") as f:
            rows = list(csv.DictReader(f))
        assert [r["variant"] for r in rows] == \
               ["full", "-controller", "-planner", "-arranger", "-mapper"]
        assert rows[0]["disabled"] == ""

    def test_requires_spotserve(self, quick_config, tmp_path):
        doc = json.loads(quick_config.read_text())
        doc["policy"] = "rerouting"
        p = quick_config.parent / "rr.json"
        p.write_text(json.dumps(doc))
        assert main(["--outdir", str(tmp_path / "o"), "ablate", str(p)]) == 2


def test_outdir_env_var(quick_config, tmp_path, monkeypatch):
    out = tmp_path / "from_env"
    monkeypatch.setenv("SPOTSIM_OUTDIR", str(out))
    assert main(["run", str(quick_config)]) == 0
    assert (out / "manifest.json").exists()


def test_runtime_failure_exits_three(quick_config, tmp_path, monkeypatch, capsys):
    def failing(cfg):
        raise RuntimeError("simulated failure")
    monkeypatch.setattr(cli, "run_sim", failing)
    assert main(["--outdir", str(tmp_path / "o"), "run", str(quick_config)]) == 3
    assert capsys.readouterr().err == "runtime error: RuntimeError: simulated failure\n"


def test_model_bytes_past_int64_run_to_exit_zero(tmp_path):
    """A layer of 2**70 bytes overflows int64 and float64's exact range: the
    mapper and the planner count its bytes exactly and the run completes."""
    doc = json.loads(Path(bundled_path("gpt-20b")).read_text())
    doc["model"]["bytes_per_layer"] = 2**70
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(doc))
    assert main(["--outdir", str(tmp_path / "o"), "run", str(bundled_path("scenario_bs.json")),
                 "--profile", str(profile), "--duration", "300"]) == 0


def test_spotserve_runs_instances_of_three_gpus(quick_config, tmp_path):
    """Three GPUs per instance under a target of four tensor shards: the
    mapper fuses groups of gcd(3, 4) = 1 GPU, the run exits 0, and every
    completion lies in [dispatch, horizon]."""
    doc = json.loads(quick_config.read_text())
    doc["gpus_per_instance"] = 3
    cfg = tmp_path / "three.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["--outdir", str(out), "run", str(cfg)]) == 0
    with open(out / "requests_spotserve.csv") as f:
        done = [r for r in csv.DictReader(f) if r["completed"] == "1"]
    assert done
    assert all(float(r["dispatch"]) <= float(r["completion"]) <= doc["duration"] for r in done)


@pytest.mark.parametrize("entries", [{"128": 0.2, "256": 2.0}, {"128": 2.0, "256": 0.2}],
                         ids=["below-zero-at-s_in-1", "falling-last-segment"])
def test_prefill_table_reaching_zero_exits_two(entries, quick_config, tmp_path, capsys):
    """A prefill table whose extrapolation can reach a cost <= 0 at some
    s_in >= 1 is bad input.  With every gpt-20b table set to the first
    entries, a run at s_in 16 would complete requests before their dispatch;
    the second falls below zero past s_in 270."""
    doc = json.loads(Path(bundled_path("gpt-20b")).read_text())
    doc["t_init"] = {shape: entries for shape in doc["t_init"]}
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(doc))
    config = json.loads(quick_config.read_text())
    config.update(profile=str(profile), s_in=16, s_out=1)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    assert main(["--outdir", str(tmp_path / "o"), "run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "profile.json" in err and "prefill" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("shape, profile", [
    ([9, 9, 9], "gpt-20b"),
    ([2, 8, 2], "opt-6.7b"),  # the bundled scenario's shape, which opt-6.7b lacks
])
def test_unprofiled_rerouting_shape_exits_two(shape, profile, quick_config, tmp_path, capsys):
    """A rerouting shape the profile has no entry for is bad input: the run
    stops when it loads the profile, before any event, not mid-run."""
    doc = json.loads(quick_config.read_text())
    doc.update(policy="rerouting", rerouting_shape=shape, profile=str(bundled_path(profile)))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["--outdir", str(tmp_path / "o"), "run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: rerouting_shape") and "Traceback" not in err
    assert not (tmp_path / "o" / "summary_rerouting.json").exists()


@pytest.mark.parametrize("policy", ["spotserve", "rerouting", "reparallelization"])
def test_policies_wait_out_a_fleet_too_small_to_serve(policy, quick_config, tmp_path):
    """One 4-GPU instance cannot host gpt-20b; three more arrive at t=60.
    Every policy waits for them instead of aborting, rerouting included even
    without a fixed `rerouting_shape`."""
    trace = tmp_path / "small_start.jsonl"
    events = [{"t": 0.0, "kind": "acquire", "id": "i-0", "ready_in": 0.0}] + [
        {"t": 60.0, "kind": "acquire", "id": f"i-{k}", "ready_in": 30.0} for k in (1, 2, 3)]
    trace.write_text("".join(json.dumps(e) + "\n" for e in events))
    doc = json.loads(quick_config.read_text())
    doc.pop("rerouting_shape")
    doc.update(policy=policy, trace=str(trace))
    cfg = tmp_path / "small_start.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["--outdir", str(out), "run", str(cfg)]) == 0
    summary = json.loads((out / f"summary_{policy}.json").read_text())
    assert summary["completed"] > 0


@pytest.mark.parametrize("field, value, policy", [
    ("s_in", 0, "spotserve"),
    ("s_out", -3, "spotserve"),
    ("gpus_per_instance", 0, "rerouting"),
    ("pool_size", -1, "rerouting"),
    ("grace_default", -1.0, "spotserve"),
    ("ready_default", -5.0, "spotserve"),
    ("rate_window", 0.0, "spotserve"),
    ("u_max", 0.0, "spotserve"),
    ("rerouting_shape", [2, 0, 2], "rerouting"),
    ("rerouting_shape", [2, 8], "rerouting"),
    ("rerouting_shape", [2, 8, 2, 9], "rerouting"),
    ("rerouting_shape", [2.5, 8, 2], "rerouting"),
    ("s_in", 512.7, "spotserve"),
    ("gpus_per_instance", 4.9, "spotserve"),
    ("pool_size", True, "spotserve"),
    ("u_max", True, "spotserve"),
    ("duration", "300", "spotserve"),
])
def test_bad_config_number_exits_two(field, value, policy, quick_config, tmp_path, capsys):
    doc = json.loads(quick_config.read_text())
    doc.update({field: value, "policy": policy})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["--outdir", str(tmp_path / "o"), "run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("seed, argv", [
    (-1, []), (1.5, []), ("7", []), (True, []), (1, ["--seed", "-1"]),
], ids=["negative", "fraction", "string", "bool", "negative-flag"])
def test_bad_workload_seed_exits_two(seed, argv, quick_config, tmp_path, capsys):
    """The arrival seed is a non-negative integer, from the config or `--seed`."""
    doc = json.loads(quick_config.read_text())
    doc["workload"]["seed"] = seed
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["--outdir", str(tmp_path / "o"), "run", str(bad), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err and "Traceback" not in err


@pytest.mark.parametrize("key, value", [
    ("cloud_limit", 10),
    ("max_data_parallel", 4),
    ("pool_sise", 2),
    ("workload.rat", 0.35),
])
def test_unknown_config_key_exits_two(key, value, quick_config, tmp_path, capsys):
    doc = json.loads(quick_config.read_text())
    section, _, name = key.rpartition(".")
    (doc[section] if section else doc)[name] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["--outdir", str(tmp_path / "o"), "run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("record", [
    {"t": -1.0, "s_in": 512, "s_out": 128},
    {"t": 1.0, "s_in": 0, "s_out": 128},
    {"t": 1.0, "s_in": 512, "s_out": 0},
    {"t": 1.0, "s_in": 512.7, "s_out": 128},
    {"t": 1.0, "s_in": 512, "s_out": True},
    {"t": 1.0, "s_in": "512", "s_out": 128},
    {"t": True, "s_in": 512, "s_out": 128},
    {"t": 1.0, "s_in": 512, "s_out": 128, "prio": 1},
])
def test_bad_arrival_record_exits_two(record, quick_config, tmp_path, capsys):
    arrivals = tmp_path / "arrivals.jsonl"
    arrivals.write_text(json.dumps({"t": 0.5, "s_in": 512, "s_out": 128}) + "\n"
                        + json.dumps(record) + "\n")
    doc = json.loads(quick_config.read_text())
    doc["workload"] = {"kind": "arrival_file", "path": str(arrivals)}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["--outdir", str(tmp_path / "o"), "run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "arrivals.jsonl:2" in err


@pytest.mark.parametrize("event, message", [
    ({"t": 5.0, "kind": "acquire", "id": "i-9", "itype": "reserved"}, "itype"),
    ({"t": 5.0, "kind": "acquire", "id": "i-9", "ready_in": -1.0}, "ready_in"),
    ({"t": 5.0, "kind": "acquire", "id": "i-0"}, "acquired twice"),
    ({"t": 5.0, "kind": "preempt", "id": "storage"}, "storage"),
    ({"t": -3600.0, "kind": "acquire", "id": "i-9"}, "t must be finite and >= 0"),
    ({"t": 5.0, "kind": "preempt", "id": "i-0", "grace_s": 5.0}, "unknown key 'grace_s'"),
], ids=["unknown-itype", "negative-ready-in", "second-acquire", "storage-id", "before-zero",
        "unknown-key"])
def test_bad_trace_event_exits_two(event, message, quick_config, tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    trace.write_text(json.dumps({"t": 0.0, "kind": "acquire", "id": "i-0"}) + "\n"
                     + json.dumps(event) + "\n")
    doc = json.loads(quick_config.read_text())
    doc["trace"] = str(trace)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["--outdir", str(tmp_path / "o"), "run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "trace.jsonl:2" in err and message in err


@pytest.mark.parametrize("corrupt, message", [
    (lambda text: text[:-2], "bad profile"),
    (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "t_dec"}),
     "'t_dec'"),
    (lambda text: json.dumps({**json.loads(text),
                              "prices": {"spot_usd_per_hour": 0.0,
                                         "ondemand_usd_per_hour": 3.0}}),
     "prices must be positive"),
    (lambda text: json.dumps({**json.loads(text),
                              "t_init": {k: v for k, v in json.loads(text)["t_init"].items()
                                         if k != "2,8,2"}}),
     "same (P,M,B) shapes"),
    (lambda text: json.dumps({**json.loads(text), "t_init": {
        k: {**v, " 128": v["128"]} for k, v in json.loads(text)["t_init"].items()}}),
     "two s_in keys name one length"),
], ids=["invalid-json", "missing-key", "zero-price", "unprofiled-prefill-shape",
        "repeated-s-in"])
def test_bad_profile_exits_two(corrupt, message, quick_config, tmp_path, capsys):
    profile = tmp_path / "profile.json"
    profile.write_text(corrupt(Path(bundled_path("gpt-20b")).read_text()))
    doc = json.loads(quick_config.read_text())
    doc["profile"] = str(profile)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["--outdir", str(tmp_path / "o"), "run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "profile.json" in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["0,4,8", "2,0,8", "2,4,0", "-1,4,8", "2, 8, 2"],
                         ids=["p-zero", "m-zero", "b-zero", "p-negative", "repeated"])
def test_bad_profile_shape_exits_two(key, quick_config, tmp_path, capsys):
    """A `t_dec`/`t_init` shape with a part below 1, or one that repeats a
    shape another key names ("2, 8, 2" is "2,8,2"), is bad input."""
    doc = json.loads(Path(bundled_path("gpt-20b")).read_text())
    for table in (doc["t_dec"], doc["t_init"]):
        if key == "2, 8, 2":
            table[key] = table["2,8,2"]
        else:
            table[key] = table.pop(next(iter(table)))
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(doc))
    config = json.loads(quick_config.read_text())
    config["profile"] = str(profile)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    assert main(["--outdir", str(tmp_path / "o"), "run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "profile.json" in err and "shape" in err
    assert "Traceback" not in err


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("key, value", [
    ("bandwidth_bytes_per_s", NAN),
    ("bandwidth_bytes_per_s", INF),
    ("transfer_latency_s", NAN),
    ("prices.spot_usd_per_hour", INF),
    ("prices.spot_usd_per_hour", NAN),
    ("prices.spot_usd_per_hour_x", 1.0),
    ("restart.baseline_s", -100.0),
    ("restart.remote_ratio", -5.0),
    ("restart.local_ratio", NAN),
    ("t_dec.*", NAN),
    ("t_init.*.*", -3.0),
    ("nominal.s_in", 0),
    ("model.num_layers", 44.5),
    ("model.kv_bytes_per_token_per_layer", -1),
    ("model.layers", 44),
    ("restart.baseline", 5.0),
    ("nominal.sin", 5),
    ("t_init.*", {"0": 1.0}),
    ("t_init.*", {}),
    ("bandwidth_bytes_per_s", True),
    ("t_dec.*", "0.05"),
    ("prices.spot_usd_per_hour", True),
])
def test_profile_number_out_of_range_exits_two(key, value, quick_config, tmp_path, capsys):
    """A profile number that is a string or a boolean, not finite or out of
    its range, a prefill table that is empty or keyed below `s_in` 1, or an
    unknown key in `model`, `prices`, `restart` or `nominal`, is bad input:
    `load_profile` raises `ProfileError` and `run` exits 2."""
    doc = json.loads(Path(bundled_path("gpt-20b")).read_text())
    *path, name = key.split(".")
    table = doc
    for part in path:  # "*" names a table's first entry
        table = table[next(iter(table)) if part == "*" else part]
    table[next(iter(table)) if name == "*" else name] = value
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps(doc))
    with pytest.raises(ProfileError):
        load_profile(profile)
    config = json.loads(quick_config.read_text())
    config["profile"] = str(profile)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    assert main(["--outdir", str(tmp_path / "o"), "run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "profile.json" in err and "Traceback" not in err


def _write_lines(path, docs):
    path.write_text("".join(json.dumps(d) + "\n" for d in docs))
    return str(path)


@pytest.mark.parametrize("where, key, value", [
    ("config", "duration", NAN),
    ("config", "duration", INF),
    ("config", "rate_window", NAN),
    ("config", "u_max", NAN),
    ("config", "grace_default", NAN),
    ("config", "ready_default", INF),
    ("workload", "rate", INF),
    ("workload", "cv", NAN),
    ("trace", "t", NAN),
    ("trace", "grace", NAN),
    ("trace", "ready_in", INF),
    ("arrival", "t", NAN),
    ("flag", "--rate", "inf"),
    ("flag", "--duration", "nan"),
    ("workload", "rate", True),
    ("trace", "t", "0"),
    ("trace", "grace", "30"),
    ("trace", "ready_in", False),
])
def test_non_finite_number_exits_two(where, key, value, quick_config, tmp_path, capsys):
    """NaN and Infinity (JSON `NaN`/`Infinity`, or a flag's `nan`/`inf`) are
    bad input wherever a number is read, and so are strings and booleans."""
    doc = json.loads(quick_config.read_text())
    argv = []
    if where == "config":
        doc[key] = value
    elif where == "workload":
        doc["workload"][key] = value
    elif where == "trace":
        event = ({"t": 5.0, "kind": "preempt", "id": "i-0", "grace": value} if key == "grace"
                 else {"t": 5.0, "kind": "acquire", "id": "i-9", key: value})
        doc["trace"] = _write_lines(tmp_path / "trace.jsonl", [
            {"t": 0.0, "kind": "acquire", "id": "i-0"}, event])
    elif where == "arrival":
        doc["workload"] = {"kind": "arrival_file", "path": _write_lines(
            tmp_path / "arrivals.jsonl", [{"t": value, "s_in": 512, "s_out": 128}])}
    else:
        argv = [key, value]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["--outdir", str(tmp_path / "o"), "run", str(bad), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("workload, argv", [
    ({"cv": 1e-200}, ["run"]),
    ({"cv": 1e200}, ["run"]),
    ({"rate": 1e300}, ["run"]),
    ({"rate": 10**20}, ["run"]),
    ({}, ["run", "--rate", "1e300"]),
    ({}, ["run", "--duration", "1e7"]),
    ({}, ["sweep", "--rates", "0.35,1e300"]),
], ids=["cv-squared-underflows", "cv-squared-overflows", "rate-1e300", "rate-10**20",
        "rate-flag", "duration-flag", "sweep-cell"])
def test_workload_outside_the_gamma_rules_exits_two(workload, argv, quick_config, tmp_path,
                                                    capsys):
    """A fixed-rate workload needs a gamma shape 1/cv^2 and scale cv^2/rate
    that are finite and > 0, and at most 10**6 expected arrivals (rate x
    duration), however the rate and duration are given."""
    doc = json.loads(quick_config.read_text())
    doc["workload"].update(workload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    command, *flags = argv
    assert main(["--outdir", str(tmp_path / "o"), command, str(bad), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: workload:") and "Traceback" not in err


@pytest.mark.parametrize("flag, value", [
    ("--rates", "abc"),
    ("--rates", "0.3,,0.4"),
    ("--traces", "{tmp}"),
], ids=["rates-word", "rates-empty-item", "traces-directory"])
def test_bad_sweep_list_exits_two(flag, value, quick_config, tmp_path, capsys):
    argv = ["--outdir", str(tmp_path / "o"), "sweep", str(quick_config),
            flag, value.format(tmp=tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("where", ["outdir-is-file", "outdir-under-file", "config-under-file",
                                   "trace-under-file"])
def test_path_through_a_file_exits_two(where, quick_config, tmp_path, capsys):
    """An output or input path that names a regular file as a directory, or
    an output directory that is a file, is bad input, not a runtime error."""
    f = tmp_path / "f"
    f.write_text("")
    outdir, config = tmp_path / "o", quick_config
    if where == "outdir-is-file":
        outdir = f
    elif where == "outdir-under-file":
        outdir = f / "sub"
    elif where == "config-under-file":
        config = f / "x.json"
    argv = ["--outdir", str(outdir), "run", str(config)]
    if where == "trace-under-file":
        argv = ["--outdir", str(outdir), "sweep", str(config), "--traces", str(f / "t.jsonl")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
