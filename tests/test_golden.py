"""Golden digests of the bundled scenario's reports.

Criterion 09 only compares a run with itself, so a refactor that silently
changes results would pass it.  These digests pin the bytes the `run` command
writes (request CSV plus summary JSON) for each policy on `scenario_bs.json`.
A change that moves them on purpose must say why and update them here.
"""

import hashlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from spotsim.cli import ABLATION_VARIANTS
from spotsim.data import bundled_path
from spotsim.metrics import write_request_csv, write_summary_json
from spotsim.simconfig import load_simconfig
from spotsim.simulator import run

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = {
    "spotserve": "0c586ce8eb8ec6f205f89cfe64c3abf006efee7b06b810c9c63542fc9a719bee",
    "rerouting": "8799970ef3ffbf1c879911d6a2437ca1cd05ba733e164220d6d9409edd624b4d",
    "reparallelization": "b2aa67360bd4bc654111753f24273a3def3a631c54177528698693b7cbf80572",
}


# The spotserve ablation variants of `cli.ABLATION_VARIANTS`: they pin the
# snapshot without KV cache (no arranger) and the positional mapping (no mapper).
GOLDEN_ABLATION = {
    "-controller": "40a394f87ce6f4745b49da6d83d11e80ad6f0fe2f05325edd0b0a795047882bf",
    "-planner": "37d3c5504456d767e3df29ec665c4328df4ec5a8f050802dab23a37cae84457f",
    "-arranger": "0873d8ebff36a7057f2d75829b54bc626625f7aea0b520671fd537ae95a2cddb",
    "-mapper": "5fb41f2c35521b59855b7034a8dd531c39f2d1f6a89920abee185067f93aceff",
}


@pytest.mark.parametrize("policy", sorted(GOLDEN))
def test_bundled_reports_match_golden_digest(policy, tmp_path):
    cfg = load_simconfig(bundled_path("scenario_bs.json"))
    report = run(replace(cfg, policy=policy))
    csv_path, json_path = tmp_path / "requests.csv", tmp_path / "summary.json"
    write_request_csv(report, csv_path)
    write_summary_json(report, json_path)
    digest = hashlib.sha256(csv_path.read_bytes() + json_path.read_bytes()).hexdigest()
    assert digest == GOLDEN[policy]


@pytest.mark.parametrize("variant", list(GOLDEN_ABLATION))
def test_bundled_ablation_reports_match_golden_digest(variant, tmp_path):
    cfg = load_simconfig(bundled_path("scenario_bs.json"))
    report = run(replace(cfg, disable=dict(ABLATION_VARIANTS)[variant]))
    csv_path, json_path = tmp_path / "requests.csv", tmp_path / "summary.json"
    write_request_csv(report, csv_path)
    write_summary_json(report, json_path)
    digest = hashlib.sha256(csv_path.read_bytes() + json_path.read_bytes()).hexdigest()
    assert digest == GOLDEN_ABLATION[variant]


# Migration plans the bundled spotserve run builds, as `tools/plan_digests.py`
# prints them: (plan count, SHA-256 over the per-plan `plan_to_dict` digests).
# They pin the planner's output bytes, which the report digests see only
# through the migration stalls.
GOLDEN_PLANS = {
    ("rate", 0.25): (5, "f5db6711e64954157a44f7995945eb6801070c0c7c20df8a9dcfaed3949caa6f"),
    ("rate", 0.35): (5, "f5a3bcb9c4f53b0509fbbeb6ce59aaeca3b34f17cb2b387e74fb67307a752bfe"),
    ("rate", 0.55): (5, "62da9be0267284752c1818991fdd757ecd73c35d5845a9c9a7eaa85a511052cf"),
    ("variant", "-planner"): (5, "56835807cac41ed66991b9fa0dbe9069e2c02bdb9c75f16ba61f953c83faf874"),
    ("variant", "-arranger"): (5, "746c4ce4acd0ec4e6582db4b8d881a06ac16bace8202a5664b2e453644546071"),
}


def _plan_digests_tool():
    spec = importlib.util.spec_from_file_location("plan_digests", ROOT / "tools" / "plan_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.mark.parametrize("case", list(GOLDEN_PLANS), ids=lambda c: f"{c[0]}={c[1]}")
def test_bundled_plans_match_golden_digest(case):
    tool = _plan_digests_tool()
    cfg = load_simconfig(bundled_path("scenario_bs.json"))
    kind, value = case
    if kind == "rate":
        cfg = replace(cfg, workload=replace(cfg.workload, rate=value))
    else:
        cfg = replace(cfg, disable=dict(ABLATION_VARIANTS)[value])
    digests = tool.plan_digests(cfg)
    assert (len(digests), tool.combined_digest(digests)) == GOLDEN_PLANS[case]


def test_plan_digests_prints_one_block_per_config(capsys):
    """Each `--config` gets a `config PATH` header, then its own lines."""
    tool = _plan_digests_tool()
    path = str(bundled_path("scenario_bs.json"))
    assert tool.main(["--config", path, "--config", path, "--policy", "rerouting"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"config {path}" and lines[1] == "all 0 " + tool.combined_digest([])
    assert len(lines) == 10 and lines[5:] == lines[:5]
