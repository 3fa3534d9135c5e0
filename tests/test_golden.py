"""Golden digests of the bundled scenario's reports.

Criterion 09 only compares a run with itself, so a refactor that silently
changes results would pass it.  These digests pin the bytes the `run` command
writes (request CSV plus summary JSON) for each policy on `scenario_bs.json`.
A change that moves them on purpose must say why and update them here.
"""

import hashlib
from dataclasses import replace

import pytest

from spotsim.cli import ABLATION_VARIANTS
from spotsim.data import bundled_path
from spotsim.metrics import write_request_csv, write_summary_json
from spotsim.simconfig import load_simconfig
from spotsim.simulator import run

GOLDEN = {
    "spotserve": "aa8f9910b29ad3f5a975eb14e6532a7c2210bdd51483e5afe51b013cd855e4d3",
    "rerouting": "8799970ef3ffbf1c879911d6a2437ca1cd05ba733e164220d6d9409edd624b4d",
    "reparallelization": "b2aa67360bd4bc654111753f24273a3def3a631c54177528698693b7cbf80572",
}


# The spotserve ablation variants of `cli.ABLATION_VARIANTS`: they pin the
# snapshot without KV cache (no arranger) and the positional mapping (no mapper).
GOLDEN_ABLATION = {
    "-controller": "0b5f9d237b10f87d60bd3017d2d085df4d49105b8a6f647bd2ad5932a4d6f26e",
    "-planner": "a8ddc8679f4d148e0bb3cb824210737915d7ae4f6081e5ac3acb14fad3c80929",
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
