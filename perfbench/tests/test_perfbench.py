"""Quick tests of the benchmark itself, on shortened simulations."""

import copy
import dataclasses
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [p for p in (str(BENCH.parent / "src"), str(BENCH)) if p not in sys.path]

import bench  # noqa: E402 - found through the path set above
import gen  # noqa: E402
import run as bench_cli  # noqa: E402
import speed  # noqa: E402
from checks import check_report  # noqa: E402
from spotsim.simulator import run as simulate  # noqa: E402
from spotsim.workload import gamma_arrivals  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SHORT_S = 150.0


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    gen.generate(workload, 7, tmp_path / "a", streams=2)
    gen.generate(workload, 7, tmp_path / "b", streams=2)
    gen.generate(workload, 8, tmp_path / "c", streams=2)
    a = _files(tmp_path / "a")
    assert a and a == _files(tmp_path / "b")
    assert a != _files(tmp_path / "c")


def test_churn_trace_alternates_and_keeps_fleet_bounded(tmp_path):
    for name, spec in gen.CHURN.items():
        gen.generate(name, 3, tmp_path / name, streams=1)
        events = [json.loads(line) for line in (tmp_path / name / "trace-s0.jsonl").open()]
        live = spec.instances
        for e in events[spec.instances:]:
            live += 1 if e["kind"] == "acquire" else -1
            assert spec.instances - spec.burst_max <= live <= spec.instances + spec.burst_max
        assert events[spec.instances]["kind"] == spec.first


def _short(sim: bench.Sim) -> bench.Sim:
    wl = sim.cfg.workload
    return dataclasses.replace(
        sim, cfg=dataclasses.replace(sim.cfg, duration=SHORT_S), reference=None,
        arrivals=gamma_arrivals(wl.rate, wl.cv, SHORT_S, wl.seed).tolist())


@pytest.fixture(scope="module")
def _short_run(tmp_path_factory):
    sims = bench.prepare("case-study", 1, tmp_path_factory.mktemp("inputs"), streams=1)
    sim = _short(sims[1])
    return sim, simulate(sim.cfg)


@pytest.fixture
def short_sim(_short_run):
    """A shortened case-study simulation and a private copy of its report."""
    sim, report = _short_run
    return sim, copy.deepcopy(report)


def test_checks_pass_on_a_clean_report(short_sim):
    sim, report = short_sim
    assert report.arrived > 0
    assert check_report(report, sim.arrivals, SHORT_S) == []


@pytest.mark.parametrize("corrupt, expected", [
    (lambda rs: rs.append(dataclasses.replace(rs[0])), "more than once"),
    (lambda rs: rs.pop(), "generated"),
    (lambda rs: setattr(rs[0], "tokens_generated", rs[0].s_out + 1), "above s_out"),
    (lambda rs: setattr(rs[0], "dispatch", rs[0].arrival - 1.0), "before arrival"),
    (lambda rs: setattr(rs[0], "completion", SHORT_S + 5.0), "outside"),
])
def test_checks_catch_a_corrupted_record(short_sim, corrupt, expected):
    sim, report = short_sim
    done = [r for r in report.records if r.done]
    assert done
    report.records.remove(done[0])
    report.records.insert(0, done[0])
    corrupt(report.records)
    errors = check_report(report, sim.arrivals, SHORT_S)
    assert any(expected in e for e in errors), errors


def test_checks_catch_a_done_request_short_of_s_out(short_sim):
    sim, report = short_sim
    r = next(r for r in report.records if r.done)
    r.tokens_generated = r.s_out - 1
    assert any("done with" in e for e in check_report(report, sim.arrivals, SHORT_S))


def test_checks_catch_a_wrong_reconfiguration_sequence(short_sim):
    sim, report = short_sim
    errors = check_report(report, sim.arrivals, SHORT_S, reference=[(9, 9, 9)])
    assert any("reference" in e for e in errors)


def test_digest_store_flags_a_changed_report(tmp_path):
    path = tmp_path / "digests.json"
    first = bench.DigestStore(path, "w", 1)
    first.check({"a": bench.Outcome(1.0, [], {"digest": "0" * 64})})
    first.save()
    later = bench.DigestStore(path, "w", 1)
    changed = bench.Outcome(1.0, [], {"digest": "1" * 64})
    later.check({"a": changed})
    assert changed.errors and "differs" in changed.errors[0]


@pytest.mark.parametrize("n, expected", [(44, (33, 77, 10)), (96, (85, 89, 10)),
                                         (5, (0, 0, 4))])
def test_tail_percentile_keeps_ten_samples_beyond_it(n, expected):
    assert bench.tail_percentile([float(i) for i in range(n)]) == expected


def test_speed_clock_scales_host_time_by_the_probe(monkeypatch):
    monkeypatch.setattr(speed, "probe_seconds", lambda: 2 * speed.PROBE_REF_S)
    clock = speed.SpeedClock(every=0.0)
    clock.start()
    for _ in range(3):
        sum(range(100_000))
        clock.mark()
    scaled = clock.stop()
    assert clock.last_raw > 0
    assert scaled == pytest.approx(clock.last_raw / 2)


def _run_cli(monkeypatch, tmp_path, trace: int) -> dict:
    prepare = bench.prepare
    monkeypatch.setattr(bench, "prepare", lambda *a, **k: [_short(s) for s in prepare(*a, **k)])
    monkeypatch.setitem(gen.STREAMS, "case-study", 1)
    monkeypatch.setattr(bench_cli, "WORKDIR", tmp_path)
    out = io.StringIO()
    with redirect_stdout(out):
        rc = bench_cli.main(["--workload", "case-study", "--seed", "1", "--seconds", "1",
                             "--trace", str(trace)])
    assert rc == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_declared_metric(monkeypatch, tmp_path, trace, section):
    result = _run_cli(monkeypatch, tmp_path, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_sources(monkeypatch, tmp_path):
    monkeypatch.setattr(bench_cli, "SRC", tmp_path / "src")
    assert bench_cli.main(["--workload", "case-study", "--seed", "1", "--seconds", "1"]) == 2
