from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotsim.domain import (
    DomainError,
    ModelSpec,
    ParallelConfig,
    TopologyPosition,
    exact_bytes,
    natural_key,
    overlap_bytes,
    positions,
    required_context,
    stage_layers,
)

from fraction_oracle import intersect, inventory, model_bytes, model_shards, subtract_intervals

MODEL4 = ModelSpec(name="m4", num_layers=4, bytes_per_layer=100, kv_bytes_per_token_per_layer=8)
MODEL7 = ModelSpec(name="m7", num_layers=7, bytes_per_layer=100, kv_bytes_per_token_per_layer=8)


def inv_layers(inv):
    return sorted({layer for layer, _, _ in model_shards(inv)})


class TestParallelConfig:
    def test_gpu_count(self):
        assert ParallelConfig(2, 3, 4, 8).gpus == 24

    def test_instances_round_up(self):
        assert ParallelConfig(2, 2, 8, 2).instances(4) == 8
        assert ParallelConfig(1, 3, 4, 1).instances(4) == 3
        assert ParallelConfig(1, 1, 2, 1).instances(4) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            ParallelConfig(0, 1, 1, 1)

    def test_lexicographic_ordering(self):
        a = ParallelConfig(1, 2, 8, 4)
        b = ParallelConfig(2, 1, 1, 1)
        assert a < b


def test_natural_key_orders_instance_ids():
    ids = ["i-10", "i-2", "i-1"]
    assert sorted(ids, key=natural_key) == ["i-1", "i-2", "i-10"]


def test_natural_key_breaks_ties_by_id():
    assert natural_key("i-01") < natural_key("i-1")
    assert sorted(["i-1", "i-01", "i-001"], key=natural_key) == ["i-001", "i-01", "i-1"]
    # parts of different lengths compare without mixing text and numbers
    assert sorted(["i-1a2", "i-1a"], key=natural_key) == ["i-1a", "i-1a2"]


class TestRequiredContext:
    def test_no_parallelism_holds_everything(self):
        cfg = ParallelConfig(1, 1, 1, 1)
        inv = required_context(cfg, TopologyPosition(1, 1, 1), MODEL4)
        assert inv_layers(inv) == [0, 1, 2, 3]
        assert all((lo, hi) == (Fraction(0), Fraction(1)) for _, lo, hi in model_shards(inv))

    def test_even_split(self):
        cfg = ParallelConfig(1, 2, 2, 1)
        inv = required_context(cfg, TopologyPosition(1, 2, 1), MODEL4)
        assert inv_layers(inv) == [2, 3]
        assert all((lo, hi) == (Fraction(0), Fraction(1, 2)) for _, lo, hi in model_shards(inv))

    def test_remainder_goes_to_earlier_stages(self):
        cfg = ParallelConfig(2, 3, 1, 1)
        inv = required_context(cfg, TopologyPosition(1, 1, 1), MODEL7)
        assert inv_layers(inv) == [0, 1, 2]
        assert all((lo, hi) == (Fraction(0), Fraction(1)) for _, lo, hi in model_shards(inv))
        # oracle: block sizes by the ceil-then-floor rule
        sizes = [len(stage_layers(7, 3, p)) for p in (1, 2, 3)]
        assert sizes == [3, 2, 2]

    def test_invalid_position(self):
        cfg = ParallelConfig(1, 2, 2, 1)
        with pytest.raises(DomainError):
            required_context(cfg, TopologyPosition(2, 1, 1), MODEL4)

    @pytest.mark.parametrize("d,p,m,layers", [(1, 1, 1, 4), (2, 2, 2, 4), (1, 3, 2, 7), (2, 4, 4, 11)])
    def test_union_tiles_model_exactly_once(self, d, p, m, layers):
        model = ModelSpec(name="t", num_layers=layers, bytes_per_layer=60, kv_bytes_per_token_per_layer=2)
        cfg = ParallelConfig(d, p, m, 1)
        for pipeline in range(1, d + 1):
            covered = {lyr: Fraction(0) for lyr in range(layers)}
            for pos in positions(cfg):
                if pos.pipeline != pipeline:
                    continue
                for lyr, lo, hi in model_shards(required_context(cfg, pos, model)):
                    covered[lyr] += hi - lo
            assert all(v == 1 for v in covered.values())


class TestOverlapBytes:
    def test_self_overlap_is_full_size(self):
        cfg = ParallelConfig(1, 2, 2, 1)
        inv = required_context(cfg, TopologyPosition(1, 1, 2), MODEL4)
        assert overlap_bytes(inv, inv, MODEL4) == model_bytes(inv, MODEL4)

    def test_disjoint_layers(self):
        a = inventory(model_shards=((0, Fraction(0), Fraction(1)),))
        b = inventory(model_shards=((1, Fraction(0), Fraction(1)),))
        assert overlap_bytes(a, b, MODEL4) == 0.0

    def test_interval_arithmetic(self):
        a = inventory(model_shards=((0, Fraction(0), Fraction(1, 2)),))
        b = inventory(model_shards=((0, Fraction(1, 4), Fraction(3, 4)),))
        assert overlap_bytes(a, b, MODEL4) == 25.0

    def test_cache_overlap_uses_min_tokens(self):
        a = inventory(cache_shards=(("r1", 0, Fraction(0), Fraction(1), 10),))
        b = inventory(cache_shards=(("r1", 0, Fraction(0), Fraction(1, 2), 6),))
        # half interval, min(10, 6) tokens, 8 bytes per token-layer
        assert overlap_bytes(a, b, MODEL4) == 0.5 * 6 * 8

    def test_symmetry_and_bound(self):
        import random
        rng = random.Random(5)
        for _ in range(50):
            def rand_inv():
                shards = []
                for lyr in range(3):
                    if rng.random() < 0.7:
                        lo = Fraction(rng.randrange(0, 3), 4)
                        hi = Fraction(rng.randrange(int(lo * 4) + 1, 5), 4)
                        shards.append((lyr, lo, hi))
                return inventory(model_shards=tuple(shards))
            a, b = rand_inv(), rand_inv()
            ab = overlap_bytes(a, b, MODEL4)
            assert ab == overlap_bytes(b, a, MODEL4)
            assert ab <= min(model_bytes(a, MODEL4), model_bytes(b, MODEL4)) + 1e-12


INT64 = st.integers(-2**63, 2**63 - 1)


def test_exact_bytes_is_the_rational_rounded_once():
    """Each element is the exact sum of units times weights over `den`,
    rounded once, with no -0.0; small inputs take the float branch and
    large ones the Python-int branch, and the draws reach both."""
    branches = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(0, 6))
        weights = data.draw(st.lists(st.one_of(st.integers(0, 2**10), st.integers(0, 2**70)),
                                     min_size=1, max_size=2))
        units = [np.array(data.draw(st.lists(st.one_of(st.integers(-64, 64), INT64),
                                             min_size=n, max_size=n)), dtype=np.int64)
                 for _ in weights]
        den = data.draw(st.integers(1, 1024))
        got = exact_bytes(units, weights, den)
        sums = [sum(int(u[i]) * w for u, w in zip(units, weights)) for i in range(n)]
        assert repr(got.tolist()) == repr([float(Fraction(total, den)) for total in sums])
        reach = sum(max((abs(x) for x in u.tolist()), default=0) * w
                    for u, w in zip(units, weights))
        branches.add("float" if reach < 2**53 else "int")

    check()
    assert branches == {"float", "int"}


def test_interval_helpers():
    assert intersect((Fraction(0), Fraction(1, 2)), (Fraction(1, 4), Fraction(1))) == Fraction(1, 4)
    assert intersect((Fraction(0), Fraction(1, 4)), (Fraction(1, 2), Fraction(1))) == 0
    rest = subtract_intervals((Fraction(0), Fraction(1)), [(Fraction(1, 4), Fraction(1, 2))])
    assert rest == [(Fraction(0), Fraction(1, 4)), (Fraction(1, 2), Fraction(1))]


def test_cluster_available_count_rule():
    from spotsim.costmodel import load_profile
    from spotsim.data import bundled_path
    from spotsim.simconfig import load_simconfig
    from spotsim.simulator import Engine
    cfg = load_simconfig(bundled_path("scenario_bs.json"))
    engine = Engine(cfg, load_profile(cfg.profile_path), trace=[], arrivals=[])
    for inst in reversed([
        InstanceState(id="i-0", kind="spot", gpus=4, status="active"),
        InstanceState(id="i-1", kind="spot", gpus=4, status="allocating", ready_at=50.0),
        InstanceState(id="i-2", kind="spot", gpus=4, status="grace_preempting",
                      grace_deadline=30.0),
        InstanceState(id="i-3", kind="ondemand", gpus=4, status="released"),
    ]):
        engine.instances[inst.id] = inst
    # allocating counts toward N_t, preempting and released do not
    assert engine.available_count() == 2
    assert [i.id for i in engine.instances_by("active", "allocating")] == ["i-0", "i-1"]


def test_instance_state_validation():
    with pytest.raises(DomainError):
        InstanceState(id="x", kind="spot", gpus=1, status="grace_preempting")
    with pytest.raises(DomainError):
        InstanceState(id="x", kind="magic", gpus=1)


from spotsim.domain import InstanceState  # noqa: E402
