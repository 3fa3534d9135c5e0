import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import csv_oracle
from spotsim.metrics import (
    RequestRecord,
    accumulated_max,
    collect_metrics,
    percentile,
    write_request_csv,
)
from spotsim.costmodel import CostSummary
from spotsim.workload import WorkloadError, gamma_arrivals, gamma_params, load_arrivals

from conftest import save_arrivals


class TestGammaArrivals:
    def test_deterministic_under_seed(self):
        a = gamma_arrivals(0.35, 6.0, 1200, seed=11)
        b = gamma_arrivals(0.35, 6.0, 1200, seed=11)
        assert np.array_equal(a, b)

    def test_cv_one_is_exponential(self):
        times = gamma_arrivals(2.0, 1.0, 50_000, seed=3)
        gaps = np.diff(times)
        # exponential: mean ~= std
        assert np.std(gaps) == pytest.approx(np.mean(gaps), rel=0.05)

    def test_mean_count_matches_rate(self):
        counts = [len(gamma_arrivals(0.35, 6.0, 1200, seed=s)) for s in range(60)]
        mean = np.mean(counts)
        # renewal process: Var(N) ~ rate*duration*cv^2; 3 sigma of the mean
        sigma = np.sqrt(0.35 * 1200 * 36)
        assert abs(mean - 420) < 3 * sigma / np.sqrt(len(counts))

    def test_sorted_and_in_range(self):
        times = gamma_arrivals(1.0, 6.0, 100, seed=1)
        assert np.all(np.diff(times) >= 0)
        assert times[0] >= 0 and times[-1] < 100

    def test_bad_params(self):
        with pytest.raises(WorkloadError):
            gamma_arrivals(0.0, 6.0, 10, seed=1)

    @pytest.mark.parametrize("rate, cv, duration", [
        (0.35, -6.0, 10), (0.35, 6.0, 0.0),
        (0.35, 1e-200, 10),  # cv^2 underflows: shape inf, scale 0
        (0.35, 1e200, 10),  # cv^2 overflows: shape 0, scale inf
        (1e-300, 1e5, 10),  # scale cv^2/rate overflows
        (1e300, 6.0, 10), (10**20, 6.0, 10), (0.35, 6.0, 1e7),  # rate x duration past 10**6
    ])
    def test_rejected_before_a_gap_is_drawn(self, rate, cv, duration):
        with pytest.raises(WorkloadError):
            gamma_arrivals(rate, cv, duration, seed=1)

    @pytest.mark.parametrize("cv", [1e4, 1e20])
    def test_large_cv_counts_in_the_expected_arrivals(self, cv, monkeypatch):
        """A renewal process adds about (cv^2 - 1)/2 arrivals to rate x
        duration, and from cv 1e4 on every gap float64 draws is 0.0, so such
        a cv is rejected before any gap is drawn (the generator is never run
        here: drawing one would fail the test instead of filling memory)."""
        def no_draws(*args):
            raise AssertionError("a generator was made")
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(WorkloadError, match="expected arrivals"):
            gamma_arrivals(0.35, cv, 1200, seed=1)

    def test_expected_arrivals_bound_counts_the_cv_term(self):
        """rate x duration + (cv^2 - 1)/2 may reach 10**6 but not pass it."""
        assert gamma_params(1.0, 5.0, 10**6 - 12) == (1 / 25, 25.0)
        with pytest.raises(WorkloadError, match="expected arrivals"):
            gamma_params(1.0, 5.0, 10**6 - 11)


def reference_gamma_arrivals(rate: float, cv: float, duration: float, seed: int) -> np.ndarray:
    """Arrival times gap by gap, `t += gap` until `t` reaches the horizon:
    the loop `gamma_arrivals` must reproduce bit for bit."""
    shape = 1.0 / (cv * cv)
    scale = cv * cv / rate
    rng = np.random.default_rng(seed)
    times = []
    t = 0.0
    chunk = max(64, int(rate * duration * 1.25) + 16)
    while t < duration:
        gaps = rng.gamma(shape, scale, size=chunk)
        for gap in gaps:
            t += gap
            if t >= duration:
                break
            times.append(t)
    return np.asarray(times)


def assert_same_bits(rate, cv, duration, seed) -> np.ndarray:
    want = reference_gamma_arrivals(rate, cv, duration, seed)
    got = gamma_arrivals(rate, cv, duration, seed)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()
    return want


def test_gamma_arrivals_match_the_gap_loop_on_a_grid():
    lengths = []
    for rate in (0.01, 0.1, 0.55, 2.0, 5.0):
        for cv in (0.1, 1.0, 6.0, 10.0):
            for duration in (1.0, 60.0, 1200.0):
                for seed in range(4):
                    chunk = max(64, int(rate * duration * 1.25) + 16)
                    lengths.append((len(assert_same_bits(rate, cv, duration, seed)), chunk))
    assert any(n >= chunk for n, chunk in lengths), "no case drew a second chunk"
    assert any(n == 0 for n, _ in lengths), "no case whose first gap passes the horizon"


@settings(max_examples=150, deadline=None)
@given(log_rate=st.floats(-4.0, math.log10(5.0)), log_cv=st.floats(-150.0, 1.0),
       duration=st.floats(1e-3, 7200.0), seed=st.integers(0, 2**64 - 1))
def test_gamma_arrivals_match_the_gap_loop(log_rate, log_cv, duration, seed):
    """Down to a cv of 1e-150, whose gamma shape is 1e300."""
    assert_same_bits(10.0 ** log_rate, 10.0 ** log_cv, duration, seed)


def test_arrival_file_roundtrip(tmp_path):
    records = [(0.5, 512, 128), (2.25, 256, 64)]
    path = tmp_path / "arrivals.jsonl"
    save_arrivals(records, path)
    assert load_arrivals(path) == records


def test_arrival_file_error_has_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t": 1.0, "s_in": 4, "s_out": 2}\n{"t": "oops"}\n')
    with pytest.raises(WorkloadError, match=":2:"):
        load_arrivals(path)


class TestPercentile:
    def test_p99_of_1_to_100(self):
        assert percentile(list(range(1, 101)), 99) == 100

    def test_order_invariance(self):
        vals = [5.0, 1.0, 9.0, 3.0]
        assert percentile(vals, 50) == percentile(sorted(vals), 50)

    def test_percentile_ordering(self):
        vals = list(np.random.default_rng(0).random(500))
        assert percentile(vals, 50) <= percentile(vals, 90) <= percentile(vals, 99)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)


def test_accumulated_max():
    assert accumulated_max([3, 1, 5, 2]) == [3, 3, 5, 5]
    assert accumulated_max([]) == []


def rec(rid, arrival, dispatch=None, completion=None, tokens=0):
    return RequestRecord(id=rid, arrival=arrival, s_in=512, s_out=128,
                         dispatch=dispatch, completion=completion, tokens_generated=tokens)


class TestCollectMetrics:
    def cost(self):
        return CostSummary(total_usd=1.0, usd_per_token=None)

    def test_single_request_no_wait(self):
        r = rec("r-0", 10.0, dispatch=10.0, completion=24.8, tokens=128)
        report = collect_metrics([r], horizon=100.0, cost=self.cost(),
                                 reconfigurations=[], queued_at_horizon=0)
        assert report.records[0].l_sch == 0.0
        assert report.records[0].l_exe == pytest.approx(14.8)
        assert report.avg_latency == pytest.approx(14.8)
        assert report.completed == 1 and report.unfinished == 0

    def test_latency_decomposition_sums(self):
        r = rec("r-0", 5.0, dispatch=8.0, completion=20.0, tokens=128)
        report = collect_metrics([r], horizon=100.0, cost=self.cost(),
                                 reconfigurations=[], queued_at_horizon=0)
        got = report.records[0]
        assert got.l_req == pytest.approx(got.l_sch + got.l_exe)

    def test_unfinished_counted(self):
        rs = [rec("r-0", 0.0, dispatch=1.0, completion=5.0, tokens=128),
              rec("r-1", 2.0, dispatch=3.0), rec("r-2", 4.0)]
        report = collect_metrics(rs, horizon=10.0, cost=self.cost(),
                                 reconfigurations=[], queued_at_horizon=1)
        assert report.arrived == 3
        assert report.completed == 1
        assert report.unfinished == 2
        assert report.queued_at_horizon == 1

    def test_accumulated_max_series(self):
        rs = [rec(f"r-{k}", float(k), dispatch=float(k), completion=float(k) + lat, tokens=128)
              for k, lat in enumerate([3.0, 1.0, 5.0, 2.0])]
        report = collect_metrics(rs, horizon=100.0, cost=self.cost(),
                                 reconfigurations=[], queued_at_horizon=0)
        assert report.accumulated_max_latency == [3.0, 3.0, 5.0, 5.0]
        assert report.p99 >= report.p90 >= report.p50


# Times: ints and floats, with a few whose repr is long or unusual.
TIMES = st.one_of(st.floats(), st.integers(-10**6, 10**6),
                  st.sampled_from([1e16, 5e-324, 0.1 + 0.2, -0.0]))
IDS = st.one_of(st.from_regex(r"r-[0-9]{5}", fullmatch=True),
                st.text(st.sampled_from('r-0, "\r\n\té'), max_size=8), st.text(max_size=8))


@st.composite
def request_records(draw):
    return RequestRecord(id=draw(IDS), arrival=draw(TIMES),
                         s_in=draw(st.integers(1, 4096)), s_out=draw(st.integers(1, 4096)),
                         dispatch=draw(st.none() | TIMES), completion=draw(st.none() | TIMES),
                         tokens_generated=draw(st.integers(0, 4096)))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=st.lists(request_records(), max_size=12))
def test_request_csv_matches_csv_writer(records, tmp_path):
    """The request CSV is byte for byte what `csv.writer` writes: every mix of
    known and unknown dispatch and completion, int and float times, and ids
    that need quoting."""
    report = collect_metrics(records, horizon=100.0, cost=CostSummary(1.0, None),
                             reconfigurations=[], queued_at_horizon=0)
    write_request_csv(report, tmp_path / "got.csv")
    csv_oracle.write_request_csv(report, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
