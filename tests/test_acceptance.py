"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria run on the bundled fixtures at their stated tolerances.
"""

import itertools
import json
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from spotsim.cli import main as cli_main
from spotsim.costmodel import exec_latency, exec_latency_exact, monetary_cost
from spotsim.data import bundled_path
from spotsim.domain import (
    ContextInventory,
    Layout,
    ModelSpec,
    ParallelConfig,
    positions,
    required_context,
)
from spotsim.mapping import build_graph, km_match, map_devices
from spotsim.migration import LayerTraffic, derive_transfers, plan_migration
from spotsim.simconfig import load_simconfig
from spotsim.simulator import run as run_sim

from conftest import make_profile
from fraction_oracle import intersect, inventory, model_shards
from test_mapping import brute_force_best, graph_of


def report(num, name):
    print(f"\nACCEPTANCE {num:02d} {name}: PASS")


@pytest.fixture(scope="module")
def scenario_cfg():
    return load_simconfig(bundled_path("scenario_bs.json"))


@pytest.fixture(scope="module")
def scenario_runs(scenario_cfg):
    out = {}
    for rate in (0.25, 0.35, 0.55):
        for policy in ("spotserve", "rerouting", "reparallelization"):
            cfg = replace(scenario_cfg, policy=policy,
                          workload=replace(scenario_cfg.workload, rate=rate))
            out[(rate, policy)] = run_sim(cfg)
    return out


def test_criterion_01_km_optimality():
    rng = np.random.default_rng(20240201)
    t0 = time.perf_counter()
    checked = 0
    while checked < 1000:
        n_l = int(rng.integers(1, 8))
        n_r = int(rng.integers(1, 8))
        w = rng.integers(0, 10**6, size=(n_l, n_r)).astype(float)
        got = km_match(graph_of(w.tolist()))
        assert got.total_weight == brute_force_best(w.tolist())
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"KM optimality sweep took {elapsed:.1f}s"
    report(1, f"KM optimality ({checked} graphs, {elapsed:.1f}s)")


def test_criterion_02_two_step_reduction():
    model = ModelSpec(name="m6", num_layers=6, bytes_per_layer=900,
                      kv_bytes_per_token_per_layer=16)
    target = ParallelConfig(1, 2, 2, 1)
    rng = np.random.default_rng(20240202)
    for trial in range(200):
        layout = {}
        for k in range(int(rng.integers(4, 8))):
            shards = []
            for lyr in range(model.num_layers):
                if rng.random() < 0.5:
                    lo = Fraction(int(rng.integers(0, 2)), 2)
                    shards.append((lyr, lo, lo + Fraction(1, 2)))
            layout[(f"i-{k}", 0)] = inventory(model_shards=tuple(shards))
        table = Layout.of(layout)
        flat = km_match(build_graph(table, target, model))
        fused = map_devices(table, target, model, gpus_per_instance=1)
        assert fused.assignment == flat.assignment
        assert fused.total_weight == flat.total_weight
    report(2, "two-step mapping reduces to flat KM at G=1 (200 instances)")


def _random_transition(rng):
    layers = int(rng.integers(2, 25))
    model = ModelSpec(name="t", num_layers=layers,
                      bytes_per_layer=int(rng.integers(200, 2000)),
                      kv_bytes_per_token_per_layer=int(rng.integers(4, 64)))

    def random_config(max_gpus):
        while True:
            p = int(rng.integers(1, 5))
            m = int(rng.choice([1, 2, 4]))
            if p > layers:
                continue
            d_cap = max_gpus // (p * m)
            if d_cap < 1:
                continue
            d = int(rng.integers(1, d_cap + 1))
            return ParallelConfig(d, p, m, int(rng.choice([1, 2, 4])))

    old_cfg = random_config(12)
    new_cfg = random_config(12)
    n_inst = max(old_cfg.gpus, new_cfg.gpus) + int(rng.integers(0, 3))
    gpus = [(f"i-{k}", 0) for k in range(n_inst)]
    layout = {gpu: ContextInventory.empty() for gpu in gpus}
    slots = positions(old_cfg)
    for gpu, pos in zip(gpus, slots):
        layout[gpu] = required_context(old_cfg, pos, model)

    inherited = None
    if rng.random() < 0.5:
        inherited = {}
        for d in range(1, min(old_cfg.data_parallel, new_cfg.data_parallel) + 1):
            reqs = [(f"r-{d}-{j}", int(rng.integers(8, 200)))
                    for j in range(int(rng.integers(1, new_cfg.batch_limit + 1)))]
            inherited[d] = reqs
        # cache lives on the old positions of the inheriting pipelines
        for ref, pos in zip(gpus, slots):
            if pos.pipeline in inherited:
                inv = layout[ref]
                cache = tuple(
                    (rid, lyr, lo, hi, tokens)
                    for rid, tokens in inherited[pos.pipeline]
                    for lyr, lo, hi in model_shards(inv)
                )
                layout[ref] = inventory(model_shards=model_shards(inv), cache_shards=cache)
    return model, old_cfg, new_cfg, layout, inherited


def _check_plan_soundness(model, new_cfg, mapping, layout, plan):
    kinds = [a.kind for a in plan.actions]
    first_weight = next((i for i, k in enumerate(kinds) if k == "migrate_layer"), None)
    cache_rounds = [i for i, k in enumerate(kinds) if k == "migrate_cache"]
    if cache_rounds:
        assert len(cache_rounds) == 1
        if first_weight is not None:
            assert cache_rounds[0] < first_weight, "cache must precede weights"

    started = set()
    delivered_after_start = []
    stage_gpus = {}
    for gpu, pos in mapping.assignment.items():
        stage_gpus.setdefault(pos.stage, set()).add(gpu)
    for idx, action in enumerate(plan.actions):
        if action.kind == "start_stage":
            assert action.stage not in started
            started.add(action.stage)
        for tr in action.transfers:
            for stage in started:
                assert tr.dst not in stage_gpus.get(stage, set()), \
                    "transfer delivered to an already-started stage"
    assert started == set(range(1, new_cfg.pipeline_stages + 1))

    received = {}
    for action in plan.actions:
        for tr in action.transfers:
            if tr.kind == "model":
                received.setdefault(tr.dst, []).append((tr.layer, tr.lo, tr.hi))
    for gpu, pos in mapping.assignment.items():
        need = required_context(new_cfg, pos, model)
        for layer, lo, hi in model_shards(need):
            own = [(l2, h2) for lyr, l2, h2 in model_shards(layout[gpu]) if lyr == layer]
            got = [(l2, h2) for lyr, l2, h2 in received.get(gpu, []) if lyr == layer]
            segs = [s for s in own + got if intersect((lo, hi), s) > 0]
            total = sum(intersect((lo, hi), s) for s in segs)
            assert total == hi - lo, "required context covered"
            segs.sort()
            for (a1, b1), (a2, b2) in zip(segs, segs[1:]):
                assert b1 <= a2, "covered exactly once"


def _order_peak(order, traffic):
    usage, peak = {}, 0.0
    for layer in order:
        t = traffic[layer]
        for inst, b in t.incoming.items():
            usage[inst] = usage.get(inst, 0.0) + b
        peak = max(peak, max(usage.values(), default=0.0))
        for inst, b in t.freed.items():
            usage[inst] = usage.get(inst, 0.0) - b
    return peak


def _plan_traffic(plan, model):
    traffic = {}
    for action in plan.actions:
        if action.kind != "migrate_layer":
            continue
        t = LayerTraffic()
        for tr in action.transfers:
            t.incoming[tr.dst[0]] = t.incoming.get(tr.dst[0], 0.0) + tr.bytes
        for inst, b in action.releases:
            t.freed[inst] = t.freed.get(inst, 0.0) + b
        traffic[action.layer] = t
    return traffic


def test_criterion_03_migration_plan_soundness():
    rng = np.random.default_rng(20240203)
    worst_ratio = 0.0
    checked = exhaustive_checked = 0
    for _ in range(500):
        model, old_cfg, new_cfg, layout, inherited = _random_transition(rng)
        table = Layout.of(layout)
        mapping = map_devices(table, new_cfg, model, 1,
                              inheritance=None, requests_by_old_pipeline=None)
        u_max = float(model.bytes_per_layer) * float(rng.uniform(0.5, 3.0))
        derived = derive_transfers(mapping, table, model, inherited)
        plan = plan_migration(mapping, table, model, derived, u_max)
        _check_plan_soundness(model, new_cfg, mapping, layout, plan)

        naive = plan_migration(mapping, table, model, derived, u_max=None)
        peak_opt = max(plan.peak_usage.values(), default=0.0)
        peak_naive = max(naive.peak_usage.values(), default=0.0)
        assert peak_opt <= peak_naive + 1e-9, "memopt never beats the naive order"

        traffic = _plan_traffic(plan, model)
        if 0 < len(traffic) <= 6:
            # measure the greedy bound against the exhaustive permutation
            # optimum; the asserted guarantee is the <= naive bound above
            # (the greedy only optimizes layers the buffer cap defers, so its
            # peak is not within any fixed factor of the global optimum)
            layers = sorted(traffic)
            best = min(_order_peak(list(p), traffic)
                       for p in itertools.permutations(layers))
            mine = _order_peak([a.layer for a in plan.actions if a.kind == "migrate_layer"],
                               traffic)
            naive_peak = _order_peak(layers, traffic)
            assert mine <= naive_peak + 1e-9
            if best > 0:
                worst_ratio = max(worst_ratio, mine / best)
            exhaustive_checked += 1
        checked += 1
    assert checked == 500
    report(3, f"migration plans sound over {checked} transitions; greedy peak <= naive "
              f"everywhere (measured greedy/optimum worst factor {worst_ratio:.2f} "
              f"on {exhaustive_checked} exhaustive cases)")


def test_criterion_04_arrangement_correctness():
    from spotsim.arranger import BatchProgress, GraceContext, arrange_acquisition, arrange_preemption

    cfg = ParallelConfig(1, 1, 1, 1)
    rng = np.random.default_rng(20240204)
    for _ in range(300):
        prof = make_profile(t_dec=float(rng.uniform(0.01, 0.5)),
                            t_init=float(rng.uniform(0.1, 3.0)))
        remaining = int(rng.integers(0, 300))
        pre = GraceContext(kind="preemption",
                           t_remaining=float(rng.uniform(0, 40)),
                           t_migration=float(rng.uniform(0, 15)),
                           batch=BatchProgress(steps_remaining=remaining,
                                               prefill_pending=bool(rng.random() < 0.3)),
                           config=cfg)
        arr = arrange_preemption(pre, prof)
        step = prof.decode_seconds(cfg)
        init = prof.prefill_seconds(cfg, 512) if pre.batch.prefill_pending else 0.0
        if arr.action_after == "migrate_with_cache":
            budget = pre.t_remaining - pre.t_migration
            assert init + arr.steps * step < budget
            if arr.steps < remaining:
                assert init + (arr.steps + 1) * step >= budget, "maximality"
        else:
            assert init + arr.steps * step < pre.t_remaining or arr.steps == 0

        acq = GraceContext(kind="acquisition",
                           t_remaining=float(rng.uniform(0, 60)),
                           t_migration=float(rng.uniform(0, 5)),
                           batch=BatchProgress(steps_remaining=remaining,
                                               prefill_pending=bool(rng.random() < 0.3)),
                           config=cfg)
        arr2 = arrange_acquisition(acq, prof)
        init2 = prof.prefill_seconds(cfg, 512) if acq.batch.prefill_pending else 0.0
        if 0 < arr2.steps <= remaining:
            assert init2 + (arr2.steps - 1) * step < acq.t_remaining, "minimality"

    # tabulated profile (non-uniform steps come from batch-size variants)
    for b in (1, 2, 4):
        prof = make_profile(t_dec=0.05 * b, t_init=1.0, shapes=((1, 1, b),))
        c = ParallelConfig(1, 1, 1, b)
        pre = GraceContext(kind="preemption", t_remaining=20.0, t_migration=4.0,
                           batch=BatchProgress(steps_remaining=1000), config=c)
        arr = arrange_preemption(pre, prof)
        assert arr.steps == max(s for s in range(1001) if s * 0.05 * b < 16.0)

    # boundary: no grace left beyond the migration reserve
    prof = make_profile(t_dec=0.1, t_init=1.0)
    boundary = GraceContext(kind="preemption", t_remaining=0.05, t_migration=0.05,
                            batch=BatchProgress(steps_remaining=500), config=cfg)
    assert arrange_preemption(boundary, prof).steps == 0
    report(4, "grace arrangements maximal/minimal; S_t=0 at the T- <= T_mig boundary")


def test_criterion_05_latency_model(gpt_profile, opt_profile, llama_profile):
    cfg = ParallelConfig(1, 3, 4, 1)
    approx = exec_latency(gpt_profile, cfg, 512, 128)
    exact = exec_latency_exact(gpt_profile, cfg, 512, 128)
    assert abs(exact - approx) / approx <= 1e-9

    for prof, shape, want in ((gpt_profile, (1, 3, 4, 1), 14.373),
                              (opt_profile, (1, 1, 4, 1), 5.447),
                              (llama_profile, (1, 2, 8, 1), 17.540)):
        got = exec_latency(prof, ParallelConfig(*shape), 512, 128)
        assert abs(got - want) / want <= 1e-3, f"{prof.model.name}: {got} != {want}"
    report(5, "constant-step summation matches closed form; all three single-request"
              " latencies reproduced")


EXPECTED_SEQUENCE = [(2, 2, 8), (2, 2, 8), (2, 3, 4), (2, 2, 8)]
EXPECTED_TIMES = [0.0, 120.0, 240.0, 720.0]


def test_criterion_06_case_study(scenario_cfg):
    t0 = time.perf_counter()
    reps = {p: run_sim(replace(scenario_cfg, policy=p))
            for p in ("spotserve", "rerouting", "reparallelization")}
    elapsed = time.perf_counter() - t0
    ss, rr, rp = reps["spotserve"], reps["rerouting"], reps["reparallelization"]

    assert [c[:3] for _, c, _ in ss.reconfigurations] == EXPECTED_SEQUENCE
    assert [t for t, _, _ in ss.reconfigurations] == EXPECTED_TIMES
    assert [c[:3] for _, c, _ in rp.reconfigurations] == EXPECTED_SEQUENCE
    shapes = {(c[1], c[2]) for _, c, _ in rr.reconfigurations}
    assert shapes == {(2, 8)}, "rerouting keeps its fixed (P,M)"
    assert len({c[0] for _, c, _ in rr.reconfigurations}) > 1, "rerouting varies D"

    ratio = min(rr.p99, rp.p99) / ss.p99
    assert ss.p99 < min(rr.p99, rp.p99)
    assert ratio > 1.2, f"P99 ratio {ratio:.2f}"
    assert elapsed < 5.0, f"case study took {elapsed:.1f}s"
    report(6, f"case-study configs reproduced; P99 ratio {ratio:.2f} "
              f"({elapsed:.1f}s for three policies)")


def test_criterion_07_overload(scenario_runs):
    q = {k: rep.queued_at_horizon for k, rep in scenario_runs.items()}
    rr_lo, rr_hi = q[(0.25, "rerouting")], q[(0.55, "rerouting")]
    ss_lo, ss_hi = q[(0.25, "spotserve")], q[(0.55, "spotserve")]
    assert rr_hi > 3 * rr_lo, f"rerouting horizon queue {rr_hi} vs 3x{rr_lo}"
    assert ss_hi < 2 * ss_lo, f"spotserve horizon queue {ss_hi} vs 2x{ss_lo}"
    report(7, f"overload reproduced (rerouting {rr_lo}->{rr_hi}, "
              f"spotserve {ss_lo}->{ss_hi})")


def test_criterion_08_cost_accounting(scenario_cfg, gpt_profile):
    log = [(f"i-{k}", "spot", 0.0, 3600.0) for k in range(8)]
    got = monetary_cost(log, gpt_profile.prices)
    assert got.total_usd == pytest.approx(15.20, abs=1e-12)

    mixed = [("a", "ondemand", 0.0, 1800.0), ("b", "spot", 0.0, 900.0),
             ("c", "spot", 600.0, 3000.0)]
    want = 1800 / 3600 * 3.9 + 900 / 3600 * 1.9 + 2400 / 3600 * 1.9
    assert monetary_cost(mixed, gpt_profile.prices).total_usd == pytest.approx(want)

    # identical trace, kinds flipped: cost ratio equals the price ratio
    spot_run = run_sim(scenario_cfg)
    trace = Path(scenario_cfg.trace_path).read_text().splitlines()
    flipped = [json.dumps({**json.loads(line), "itype": "ondemand"})
               if json.loads(line)["kind"] == "acquire" else line
               for line in trace]
    import tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".jsonl", delete=False) as f:
        f.write("\n".join(flipped) + "\n")
        od_path = f.name
    od_run = run_sim(replace(scenario_cfg, trace_path=od_path))
    ratio = spot_run.cost.total_usd / od_run.cost.total_usd
    assert abs(ratio - 1.9 / 3.9) < 1e-9
    report(8, "cost accounting exact (15.20 USD; spot/on-demand ratio 1.9/3.9)")


def test_criterion_09_determinism(tmp_path):
    doc = json.loads(Path(bundled_path("scenario_bs.json")).read_text())
    doc["profile"] = str(bundled_path("gpt-20b"))
    doc["trace"] = str(bundled_path("trace_bs.jsonl"))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["--outdir", str(out1), "run", str(cfg_path)]) == 0
    assert cli_main(["--outdir", str(out2), "run", str(cfg_path)]) == 0
    a = (out1 / "requests_spotserve.csv").read_bytes()
    b = (out2 / "requests_spotserve.csv").read_bytes()
    assert a == b
    assert (out1 / "summary_spotserve.json").read_bytes() == \
           (out2 / "summary_spotserve.json").read_bytes()
    report(9, "cmd_run outputs byte-identical across reruns")


ABLATION_ORDER = [
    (),
    ("controller",),
    ("controller", "planner"),
    ("controller", "planner", "arranger"),
    ("controller", "planner", "arranger", "mapper"),
]


def test_criterion_10_ablation_monotone(scenario_cfg):
    p99s = []
    for disable in ABLATION_ORDER:
        rep = run_sim(replace(scenario_cfg, disable=disable))
        p99s.append(rep.p99)
    for earlier, later in zip(p99s, p99s[1:]):
        assert later >= earlier - 1e-9, f"ablation p99 regressed: {p99s}"
    report(10, "ablation P99 non-decreasing: " + " <= ".join(f"{v:.1f}" for v in p99s))
