import csv
import json
from pathlib import Path

import pytest

from spotsim.cli import main
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


def test_runtime_failure_exits_three(quick_config, tmp_path):
    doc = json.loads(quick_config.read_text())
    doc["policy"] = "rerouting"
    doc["rerouting_shape"] = [9, 9, 9]  # shape the profile does not cover
    bad = quick_config.parent / "broken.json"
    bad.write_text(json.dumps(doc))
    assert main(["--outdir", str(tmp_path / "o"), "run", str(bad)]) == 3


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
