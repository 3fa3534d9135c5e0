import itertools
from fractions import Fraction

import numpy as np
import pytest

from spotsim.domain import (
    ContextInventory,
    Layout,
    ModelSpec,
    ParallelConfig,
    RequestRecord,
    TopologyPosition,
    kv_cache,
    overlap_bytes,
    positions,
    required_context,
)
import spotsim.mapping as mapping
from spotsim.mapping import (
    BipartiteGraph,
    MappingError,
    _hungarian_max,
    build_graph,
    default_inheritance,
    km_match,
    map_devices,
    retain_cache,
)

from fraction_oracle import inventory, model_bytes, model_shards

MODEL = ModelSpec(name="m4", num_layers=4, bytes_per_layer=800, kv_bytes_per_token_per_layer=16)


def graph_of(weights):
    gpus = [(f"i-{k}", 0) for k in range(len(weights))]
    slots = [TopologyPosition(1, 1, m + 1) for m in range(len(weights[0]))]
    return BipartiteGraph(gpus=gpus, slots=slots, weights=[list(r) for r in weights])


def brute_force_best(weights):
    n_l, n_r = len(weights), len(weights[0])
    best = 0.0
    if n_l >= n_r:
        for perm in itertools.permutations(range(n_l), n_r):
            best = max(best, sum(weights[perm[j]][j] for j in range(n_r)))
    else:
        for perm in itertools.permutations(range(n_r), n_l):
            best = max(best, sum(weights[i][perm[i]] for i in range(n_l)))
    return best


def serving_layout(model, config, ids):
    """Single-GPU instances holding the exact contexts of `config`, in id order."""
    return {(iid, 0): required_context(config, pos, model)
            for iid, pos in zip(ids, positions(config))}


class TestKmMatch:
    def test_one_by_one(self):
        got = km_match(graph_of([[7.0]]))
        assert got.total_weight == 7.0
        assert got.assignment == {("i-0", 0): TopologyPosition(1, 1, 1)}

    def test_three_by_three_known_answer(self):
        got = km_match(graph_of([[4, 1, 0], [2, 0, 3], [1, 2, 2]]))
        assert got.total_weight == 9
        by_gpu = {g[0]: s.shard for g, s in got.assignment.items()}
        assert by_gpu == {"i-0": 1, "i-1": 3, "i-2": 2}

    def test_all_equal_is_lexicographic(self):
        got = km_match(graph_of([[5.0] * 4] * 4))
        for g, s in got.assignment.items():
            assert s.shard == int(g[0].split("-")[1]) + 1
        assert got.total_weight == 20.0

    def test_empty(self):
        got = km_match(BipartiteGraph(gpus=[], slots=[], weights=[]))
        assert got.assignment == {} and got.total_weight == 0.0

    def test_rectangular_more_gpus(self):
        got = km_match(graph_of([[0.0], [9.0], [1.0]]))
        assert got.total_weight == 9.0
        assert list(got.assignment) == [("i-1", 0)]

    def test_rectangular_more_slots_covers_partially(self):
        g = BipartiteGraph(
            gpus=[("i-0", 0)],
            slots=[TopologyPosition(1, 1, 1), TopologyPosition(1, 1, 2)],
            weights=[[1.0, 5.0]],
        )
        got = km_match(g)
        assert got.assignment[("i-0", 0)] == TopologyPosition(1, 1, 2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_optimal_vs_brute_force_integers(self, n):
        rng = np.random.default_rng(n)
        for _ in range(40):
            w = rng.integers(0, 10**6, size=(n, n)).astype(float)
            got = km_match(graph_of(w.tolist()))
            assert got.total_weight == brute_force_best(w.tolist())

    def test_optimal_vs_brute_force_rectangular(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            n_l = int(rng.integers(1, 6))
            n_r = int(rng.integers(1, 6))
            w = rng.integers(0, 1000, size=(n_l, n_r)).astype(float)
            got = km_match(graph_of(w.tolist()))
            assert got.total_weight == brute_force_best(w.tolist())

    def test_optimal_vs_brute_force_floats(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            w = rng.random((5, 5)) * 1e9
            got = km_match(graph_of(w.tolist()))
            assert got.total_weight == pytest.approx(brute_force_best(w.tolist()), rel=1e-9)

    def test_tie_rule_is_pinned(self):
        # Every maximum of this matrix weighs 4; the lexicographically least
        # one is (0, 2, 3, 1), but the row-by-row augmentation yields another.
        w = [[1, 1, 0, 1], [0, 0, 1, 0], [1, 1, 0, 1], [1, 1, 1, 0]]
        best = max(sum(w[i][p[i]] for i in range(4)) for p in itertools.permutations(range(4)))
        least = min(p for p in itertools.permutations(range(4))
                    if sum(w[i][p[i]] for i in range(4)) == best)
        assert least == (0, 2, 3, 1)
        assert _hungarian_max(w) == [3, 2, 1, 0]

    def test_all_slots_covered_when_enough_gpus(self):
        rng = np.random.default_rng(11)
        w = rng.integers(0, 50, size=(6, 4)).astype(float)
        got = km_match(graph_of(w.tolist()))
        assert len({s for s in got.assignment.values()}) == 4


class TestBuildGraph:
    def test_identity_layout_has_full_weight_diagonal(self):
        cfg = ParallelConfig(1, 2, 2, 1)
        layout = serving_layout(MODEL, cfg, [f"i-{k}" for k in range(4)])
        graph = build_graph(Layout.of(layout), cfg, MODEL)
        full = model_bytes(required_context(cfg, TopologyPosition(1, 1, 1), MODEL), MODEL)
        for i in range(4):
            assert graph.weights[i][i] == full
        got = km_match(graph)
        for gpu, pos in got.assignment.items():
            assert graph.slots.index(pos) == graph.gpus.index(gpu)

    def test_empty_inventory_gives_zero_row(self):
        cfg = ParallelConfig(1, 2, 2, 1)
        layout = serving_layout(MODEL, cfg, [f"i-{k}" for k in range(4)])
        layout[("i-9", 0)] = ContextInventory.empty()
        graph = build_graph(Layout.of(layout), cfg, MODEL)
        row = graph.gpus.index(("i-9", 0))
        assert all(w == 0.0 for w in graph.weights[row])

    @pytest.mark.parametrize("bytes_per_layer, kv_bytes",
                             [(2**60, 16), (800, 2**50), (2**70, 16), (800, 2**64)])
    def test_weights_of_any_size_equal_overlap_bytes(self, bytes_per_layer, kv_bytes):
        # byte counts past 2**53 leave float64's exact range, and past 2**63
        # int64's, so these cells are divided as Python ints
        old, new = ParallelConfig(2, 2, 1, 4), ParallelConfig(2, 1, 2, 4)
        reqs = {1: [RequestRecord(id="r-1", arrival=0.0, s_in=3000, s_out=8)],
                2: [RequestRecord(id="r-2", arrival=0.0, s_in=5, s_out=8)]}
        cache = kv_cache(reqs)
        for model in (MODEL, ModelSpec(name="huge", num_layers=4, bytes_per_layer=bytes_per_layer,
                                       kv_bytes_per_token_per_layer=kv_bytes)):
            layout = {(f"i-{k}", 0): required_context(old, pos, model, cache[pos.pipeline])
                      for k, pos in enumerate(positions(old))}
            graph = build_graph(Layout.of(layout), new, model, default_inheritance(2, 2), reqs)
            needs = [required_context(new, pos, model, cache[pos.pipeline]) for pos in graph.slots]
            assert graph.weights == [[overlap_bytes(layout[gpu], need, model) for need in needs]
                                     for gpu in graph.gpus]

    def test_cache_overlap_breaks_model_tie(self):
        # Mapping figure scenario: (2,2,2) -> (2,3,1); the GPU holding pipeline
        # 1's stage-1 half-shard overlaps v(1,1,1) and v(2,1,1) model context
        # equally, but inherits pipeline 1's requests, so cache prefers v(1,1,1).
        model = ModelSpec(name="m6", num_layers=6, bytes_per_layer=600,
                          kv_bytes_per_token_per_layer=64)
        old = ParallelConfig(2, 2, 2, 1)
        new = ParallelConfig(2, 3, 1, 1)
        layout = serving_layout(model, old, [f"i-{k}" for k in range(8)])
        # u_1 is pipeline 1, stage 1, shard 2; it carries r-1's KV cache
        u1 = ("i-1", 0)
        request = RequestRecord(id="r-1", arrival=0.0, s_in=64, s_out=32,
                                tokens_generated=16)
        tokens = request.s_in + request.tokens_generated
        for gpu, pos in zip(list(layout), positions(old)):
            if pos.pipeline != 1:
                continue
            base_inv = layout[gpu]
            cache = tuple(
                (request.id, lyr, lo, hi, tokens) for lyr, lo, hi in model_shards(base_inv)
            )
            layout[gpu] = inventory(model_shards=model_shards(base_inv), cache_shards=cache)
        reqs = {1: [request]}
        table = Layout.of(layout)
        graph = build_graph(table, new, model,
                            inheritance=default_inheritance(2, 2),
                            requests_by_old_pipeline=reqs)
        row = graph.gpus.index(u1)
        w = {pos: graph.weights[row][j] for j, pos in enumerate(graph.slots)}
        v_own = TopologyPosition(1, 1, 1)
        v_other = TopologyPosition(2, 1, 1)
        model_only = build_graph(table, new, model)
        base = {pos: model_only.weights[row][j] for j, pos in enumerate(model_only.slots)}
        assert base[v_own] == base[v_other] > 0
        assert max(base.values()) == base[v_own]
        assert w[v_own] > w[v_other]
        # globally, the inherited cache keeps pipeline 1's stage-1 slot on a
        # pipeline-1 GPU instead of a (model-wise equivalent) pipeline-2 one
        got = km_match(graph)
        by_slot = got.gpu_for()
        assert by_slot[v_own][0] in ("i-0", "i-1")
        assert by_slot[v_other][0] in ("i-4", "i-5")


class TestMapDevices:
    def test_single_gpu_reduces_to_flat_match(self):
        rng = np.random.default_rng(3)
        cfg = ParallelConfig(1, 2, 2, 1)
        for trial in range(200):
            layout = {}
            for k in range(5):
                shards = []
                for lyr in range(MODEL.num_layers):
                    if rng.random() < 0.5:
                        lo = Fraction(int(rng.integers(0, 2)), 2)
                        shards.append((lyr, lo, lo + Fraction(1, 2)))
                layout[(f"i-{k}", 0)] = inventory(model_shards=tuple(shards))
            table = Layout.of(layout)
            flat = km_match(build_graph(table, cfg, MODEL))
            fused = map_devices(table, cfg, MODEL, gpus_per_instance=1)
            assert fused.assignment == flat.assignment
            assert fused.total_weight == pytest.approx(flat.total_weight)

    def test_single_gpu_instances_run_one_match(self, monkeypatch):
        # at group size 1 the fused graph is the weight matrix: no 1x1 inner
        # matches, only the outer one
        old, new = ParallelConfig(6, 2, 4, 8), ParallelConfig(4, 3, 4, 8)
        model = ModelSpec(name="m12", num_layers=12, bytes_per_layer=800,
                          kv_bytes_per_token_per_layer=16)
        layout = serving_layout(model, old, [f"i-{k}" for k in range(old.gpus)])
        calls = []
        monkeypatch.setattr(mapping, "_hungarian_max",
                            lambda w: calls.append(len(w)) or _hungarian_max(w))
        table = Layout.of(layout)
        got = map_devices(table, new, model, gpus_per_instance=1)
        assert calls == [48]
        assert got.assignment == km_match(build_graph(table, new, model)).assignment

    def test_two_gpu_instances_keep_tensor_groups_local(self):
        cfg = ParallelConfig(1, 2, 2, 1)
        layout = {(f"i-{k}", m - 1): required_context(cfg, TopologyPosition(1, k + 1, m), MODEL)
                  for k in range(2) for m in (1, 2)}
        table = Layout.of(layout)
        got = map_devices(table, cfg, MODEL, gpus_per_instance=2)
        # instance k holds stage k+1's shards and must map onto that stage
        for (iid, g), pos in got.assignment.items():
            assert pos.stage == int(iid.split("-")[1]) + 1
        # brute force over all injective per-GPU assignments on this 4x4 case
        graph = build_graph(table, cfg, MODEL)
        best = brute_force_best(graph.weights)
        assert got.total_weight == pytest.approx(best)

    def test_fused_groups_never_split_across_instances_when_g_ge_m(self):
        cfg = ParallelConfig(1, 2, 2, 1)
        rng = np.random.default_rng(17)
        for _ in range(30):
            layout = {}
            for k in range(3):
                for g in range(2):
                    shards = []
                    for lyr in range(MODEL.num_layers):
                        if rng.random() < 0.6:
                            lo = Fraction(int(rng.integers(0, 2)), 2)
                            shards.append((lyr, lo, lo + Fraction(1, 2)))
                    layout[(f"i-{k}", g)] = inventory(model_shards=tuple(shards))
            got = map_devices(Layout.of(layout), cfg, MODEL, gpus_per_instance=2)
            groups = {}
            for (iid, g), pos in got.assignment.items():
                groups.setdefault((pos.pipeline, pos.stage), set()).add(iid)
            assert all(len(v) == 1 for v in groups.values())

    def test_degenerate_group_when_m_is_one(self):
        cfg = ParallelConfig(1, 2, 1, 1)
        layout = {
            ("i-0", 0): required_context(cfg, TopologyPosition(1, 1, 1), MODEL),
            ("i-0", 1): required_context(cfg, TopologyPosition(1, 2, 1), MODEL),
        }
        table = Layout.of(layout)
        got = map_devices(table, cfg, MODEL, gpus_per_instance=2)
        flat = km_match(build_graph(table, cfg, MODEL))
        assert got.assignment == flat.assignment

    def test_instance_with_other_gpu_count_is_rejected(self):
        cfg = ParallelConfig(1, 2, 4, 1)
        layout = {(f"i-{k}", g): ContextInventory.empty() for k in range(2) for g in range(4)}
        del layout[("i-1", 3)]
        with pytest.raises(MappingError, match="instance i-1 has 3 GPUs, expected 4"):
            map_devices(Layout.of(layout), cfg, MODEL, 4)

    def test_total_migrated_bytes_is_required_minus_matched(self):
        cfg = ParallelConfig(1, 2, 2, 1)
        layout = serving_layout(MODEL, cfg, [f"i-{k}" for k in range(4)])
        got = map_devices(Layout.of(layout), cfg, MODEL, gpus_per_instance=1)
        required = sum(
            model_bytes(required_context(cfg, pos, MODEL), MODEL) for pos in positions(cfg)
        )
        assert required - got.total_weight == pytest.approx(0.0)


class TestRetainCache:
    def request(self, rid, progress):
        return RequestRecord(id=rid, arrival=0.0, s_in=16, s_out=64,
                             tokens_generated=progress)

    def test_capacity_unchanged_keeps_all(self):
        reqs = [self.request(f"r-{k}", k) for k in range(4)]
        cfg = ParallelConfig(2, 1, 1, 2)
        kept = retain_cache(reqs, cfg)
        assert {r.id for r in kept} == {r.id for r in reqs}

    def test_shrink_keeps_most_progressed(self):
        reqs = [self.request(f"r-{k:02d}", k + 1) for k in range(16)]
        new = ParallelConfig(2, 1, 1, 4)
        kept = retain_cache(reqs, new)
        assert {r.tokens_generated for r in kept} == set(range(9, 17))

    def test_tie_breaks_to_lower_id(self):
        reqs = [self.request(f"r-{k}", 7) for k in range(4)]
        new = ParallelConfig(2, 1, 1, 1)
        kept = retain_cache(reqs, new)
        assert sorted(r.id for r in kept) == ["r-0", "r-1"]

    def test_output_size_is_min_of_demand_and_capacity(self):
        reqs = [self.request(f"r-{k}", k) for k in range(3)]
        new = ParallelConfig(1, 1, 1, 2)
        assert len(retain_cache(reqs, new)) == 2
        assert len(retain_cache(reqs[:1], new)) == 1

    def test_monotone_in_progress(self):
        reqs = [self.request(f"r-{k}", k) for k in range(8)]
        new = ParallelConfig(2, 1, 1, 2)
        kept_before = {r.id for r in retain_cache(reqs, new)}
        assert "r-4" in kept_before
        reqs[4].tokens_generated = 50
        kept_after = {r.id for r in retain_cache(reqs, new)}
        assert "r-4" in kept_after


def test_km_cross_checked_against_linear_sum_assignment():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(31)
    for n in (10, 25, 50):
        w = rng.integers(0, 10**6, size=(n, n)).astype(float)
        got = km_match(graph_of(w.tolist()))
        rows, cols = scipy_opt.linear_sum_assignment(w, maximize=True)
        assert got.total_weight == w[rows, cols].sum()
