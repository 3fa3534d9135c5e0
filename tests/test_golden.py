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

from spotsim import migration
from spotsim.cli import ABLATION_VARIANTS
from spotsim.data import bundled_path
from spotsim.domain import ContextInventory, Layout
from spotsim.metrics import write_request_csv, write_summary_json
from spotsim.simconfig import load_simconfig
from spotsim.simulator import run

from conftest import churn_config

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = {
    "spotserve": "cd7173343cd148ab22022eff4cba6b262ab12e00df56bf8eb1d5d57c33370952",
    "rerouting": "8799970ef3ffbf1c879911d6a2437ca1cd05ba733e164220d6d9409edd624b4d",
    "reparallelization": "b2aa67360bd4bc654111753f24273a3def3a631c54177528698693b7cbf80572",
}


# The spotserve ablation variants of `cli.ABLATION_VARIANTS`: they pin the
# snapshot without KV cache (no arranger) and the positional mapping (no mapper).
GOLDEN_ABLATION = {
    "-controller": "04df75c00a2d2e8d2c7bbc4ee4b12597df360519c086adbb5d995d50974d5721",
    "-planner": "e1a70343daf261b3dd5e09bdbb3c72f8fcb276fa6ae6acab2ed19cfecd44b859",
    "-arranger": "5f5957008391a9d2b76a743a0d0521d85da8305156bdb2a083b5284a5389aa8e",
    "-mapper": "b2419b80de0a73c4c0593969901f040c36596ad82d5784d15227dbe33080b753",
}


def report_digest(report, tmp_path) -> str:
    csv_path, json_path = tmp_path / "requests.csv", tmp_path / "summary.json"
    write_request_csv(report, csv_path)
    write_summary_json(report, json_path)
    return hashlib.sha256(csv_path.read_bytes() + json_path.read_bytes()).hexdigest()


@pytest.mark.parametrize("policy", sorted(GOLDEN))
def test_bundled_reports_match_golden_digest(policy, tmp_path):
    cfg = load_simconfig(bundled_path("scenario_bs.json"))
    assert report_digest(run(replace(cfg, policy=policy)), tmp_path) == GOLDEN[policy]


@pytest.mark.parametrize("variant", list(GOLDEN_ABLATION))
def test_bundled_ablation_reports_match_golden_digest(variant, tmp_path):
    cfg = load_simconfig(bundled_path("scenario_bs.json"))
    report = run(replace(cfg, disable=dict(ABLATION_VARIANTS)[variant]))
    assert report_digest(report, tmp_path) == GOLDEN_ABLATION[variant]


@pytest.mark.parametrize("variant", ["spotserve", *GOLDEN_ABLATION])
def test_engine_path_builds_no_transfer_record_or_inventory(variant, tmp_path, monkeypatch):
    """`Transfer` records are output only, and the engine keeps its context
    as rows: with the one builder of records, the constructor of
    `ContextInventory` (so `required_context` too) and `Layout.of`, the one
    conversion of inventories into rows, patched to raise, the bundled
    spotserve run and each of its ablations still ends with its golden
    report."""
    def refused(what):
        def build(*args, **kwargs):
            raise AssertionError(f"{what} was built on the engine path")
        return build
    monkeypatch.setattr(migration, "_expand", refused("a Transfer record"))
    monkeypatch.setattr(ContextInventory, "__init__", refused("an inventory"))
    monkeypatch.setattr(Layout, "of", refused("a Layout from inventories"))
    cfg = load_simconfig(bundled_path("scenario_bs.json"))
    disabled = dict(ABLATION_VARIANTS).get(variant, ())
    want = GOLDEN_ABLATION[variant] if disabled else GOLDEN["spotserve"]
    assert report_digest(run(replace(cfg, disable=disabled)), tmp_path) == want


# Migration plans the bundled spotserve run builds, as `tools/plan_digests.py`
# prints them: (plan count, SHA-256 over the per-plan `plan_to_dict` digests).
# They pin the planner's output bytes, which the report digests see only
# through the migration stalls.  `("churn", seed)` is `conftest.churn_config`,
# whose grace commits have departing senders and multi-layer cache runs.
GOLDEN_PLANS = {
    ("rate", 0.25): (3, "3feabe65b2d38f1d744d730225faed19ac0f5c4e210520bf70b5f3fe1f409d74"),
    ("rate", 0.35): (3, "3d6ce4bb6cfc2560accf4b9a0a0a0ae2d7f8231d8158e7a2f2bbe4f8af6f693d"),
    ("rate", 0.55): (3, "c62d07d6ce63d2341eb490322a6e995099d3a5530bd3b1f06fd6e48f87ca64c7"),
    ("variant", "-planner"): (3, "d22f8cf6fb40cabbe2292878781df375efc31f303897a04b31cf8fbff84d1644"),
    ("variant", "-arranger"): (3, "cbe2e5eb36c0c1c83857a9bbc5db86b0f7389f6ab28cb26bc68c53444b9b85f8"),
    ("churn", 3): (7, "805e92d6acab1974cb30988ce57790e7314a3a378d8b205d4aa8bd9ec8d993d7"),
}


def _plan_digests_tool():
    spec = importlib.util.spec_from_file_location("plan_digests", ROOT / "tools" / "plan_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.mark.parametrize("case", list(GOLDEN_PLANS), ids=lambda c: f"{c[0]}={c[1]}")
def test_bundled_plans_match_golden_digest(case, tmp_path):
    tool = _plan_digests_tool()
    cfg = load_simconfig(bundled_path("scenario_bs.json"))
    kind, value = case
    if kind == "churn":
        cfg = churn_config(tmp_path, seed=value)
    elif kind == "rate":
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


@pytest.mark.parametrize("case", ["bundled", "churn"])
def test_engine_path_covers_kv_cache_without_a_sender_choice(case, tmp_path, monkeypatch):
    """A request's KV cache lives on one pipeline, one GPU per (stage,
    shard), so on the engine path every point of a cache piece has one live
    copy and no cache piece reaches the cover loop: with
    `_cover_from_holders` patched to raise on KV cache (`stored` false), the
    bundled spotserve run still ends with its golden report and
    `conftest.churn_config`, whose grace commits move multi-layer cache
    runs, still builds its golden plans.  The loop still covers model
    pieces, which replicas give a choice."""
    cover = migration._cover_from_holders
    stored = []

    def model_only(*args):
        stored.append(args[-1])
        if not args[-1]:
            raise AssertionError("a KV-cache piece reached the cover loop")
        return cover(*args)
    monkeypatch.setattr(migration, "_cover_from_holders", model_only)
    if case == "churn":
        digests = _plan_digests_tool().plan_digests(churn_config(tmp_path, seed=3))
        assert (len(digests), _plan_digests_tool().combined_digest(digests)) \
            == GOLDEN_PLANS[("churn", 3)]
    else:
        cfg = load_simconfig(bundled_path("scenario_bs.json"))
        assert report_digest(run(cfg), tmp_path) == GOLDEN["spotserve"]
    assert stored and all(stored)
