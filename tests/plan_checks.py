"""Exactness and assembly of a migration plan against the layout it was
planned over.

Every byte an assigned GPU needs is either reused from what that GPU already
holds or delivered by exactly one transfer.  A transfer over a layer run is
checked as one piece per layer, and its bytes must be those of one layer
times its layer count.  A transfer's source is another GPU that holds the
piece it sends on every layer of its run (with enough tokens, for KV cache),
or remote storage (`STORAGE`) for a model piece that no GPU of the layout
holds any part of.

Assembly: the plan's `peak_usage` is what `simulate_buffer_usage`, the
reference replay of its buffer deltas, gives for its rounds, the KV-cache
round (if any) comes first, each layer has at most one round, and each
stage's start marker directly follows the last round that delivers to one of
its GPUs, or leads the plan when none does.

`Round` is a plan round built by hand from `Transfer` records, its port sums
added record by record (`port_bytes`): the reference rule a planned
`MigrationAction`'s sums must equal, and a round tests can time
(`costmodel.plan_timeline` reads only its attributes) or replay.
"""

from fractions import Fraction

from spotsim.domain import STORAGE, required_context

from fraction_oracle import cache_shards, intersect, model_shards


def port_bytes(transfers) -> tuple[dict[str, float], dict[str, float]]:
    """The bytes each instance sends and receives over `transfers` to and
    from other instances, added record by record."""
    sent: dict[str, float] = {}
    received: dict[str, float] = {}
    for t in transfers:
        if t.src[0] != t.dst[0]:
            sent[t.src[0]] = sent.get(t.src[0], 0.0) + t.bytes
            received[t.dst[0]] = received.get(t.dst[0], 0.0) + t.bytes
    return sent, received


class Round:
    """A plan round of hand-made `Transfer` records plus end-of-round frees,
    with the attributes a `MigrationAction` has for timing and replay; its
    `sent` and `received` are `port_bytes` of its records."""

    def __init__(self, kind, transfers=(), releases=(), layer=None, stage=None):
        self.kind, self.transfers, self.releases = kind, tuple(transfers), releases
        self.layer, self.stage = layer, stage
        sent, received = port_bytes(self.transfers)
        self.sent, self.received = tuple(sent.items()), tuple(received.items())


def check_delivers_once(plan, mapping, layout, model, inherited) -> tuple[int, int]:
    """Assert the plan's exactness; returns how many per-layer pieces the
    assigned GPUs need and how many transfers storage sends."""
    # per-layer holdings: (gpu, request or None, layer) -> [(lo, hi, tokens)]
    held: dict[tuple, list] = {}
    live_model: dict[int, list] = {}  # layer -> model intervals some GPU holds
    for gpu, inv in layout.items():
        for layer, lo, hi in model_shards(inv):
            held.setdefault((gpu, None, layer), []).append((lo, hi, 0))
            live_model.setdefault(layer, []).append((lo, hi))
        for rid, layer, lo, hi, tokens in cache_shards(inv):
            held.setdefault((gpu, rid, layer), []).append((lo, hi, tokens))

    received: dict[tuple, list] = {}
    from_storage = 0
    for t in plan.transfers():
        assert t.dst in mapping.assignment and t.src != t.dst
        assert t.layers >= 1 and (t.layers == 1 or t.request is not None), t
        per_layer = (t.hi - t.lo) * (model.bytes_per_layer if t.request is None
                                     else model.kv_bytes_per_token_per_layer * t.tokens)
        assert t.bytes == float(per_layer * t.layers), t
        from_storage += t.src == STORAGE
        for layer in range(t.layer, t.layer + t.layers):
            received.setdefault((t.dst, t.request, layer), []).append((t.lo, t.hi))
            if t.src == STORAGE:
                assert t.request is None, t
                assert all(intersect((t.lo, t.hi), iv) == 0 for iv in live_model.get(layer, ())), t
            else:
                # the source held the piece it sends (with enough tokens, for cache)
                assert any(lo <= t.lo and t.hi <= hi and tokens >= t.tokens
                           for lo, hi, tokens in held.get((t.src, t.request, layer), ())), t

    needed = 0
    for gpu, pos in mapping.assignment.items():
        need = required_context(mapping.config, pos, model, inherited.get(pos.pipeline, ()))
        wants = [(None, layer, lo, hi, 0) for layer, lo, hi in model_shards(need)]
        wants += list(cache_shards(need))
        for rid, layer, lo, hi, tokens in wants:
            needed += 1
            own = [(a, b) for a, b, t in held.get((gpu, rid, layer), ()) if t >= tokens]
            got = sorted(received.pop((gpu, rid, layer), []))
            reused = sum(intersect((lo, hi), iv) for iv in own)
            # delivered pieces lie inside the need, miss what is reused and
            # never overlap each other, so reuse plus delivery is exact
            assert all(lo <= a < b <= hi for a, b in got)
            assert all(intersect(g, iv) == 0 for g in got for iv in own)
            assert all(got[i][1] <= got[i + 1][0] for i in range(len(got) - 1))
            assert reused + sum((b - a for a, b in got), Fraction(0)) == hi - lo
    assert not received  # nothing delivered that no position needs
    return needed, from_storage


def check_assembly(plan, mapping, layout) -> dict[int, int]:
    """Assert the plan's assembly; returns each stage's last delivering
    round, counted over the rounds without markers (-1 for none)."""
    assert plan.peak_usage == simulate_buffer_usage(plan, layout)
    rounds = [a for a in plan.actions if a.kind != "start_stage"]
    assert all(a.kind == "migrate_layer" for a in rounds[1:])
    layers = [a.layer for a in rounds if a.kind == "migrate_layer"]
    assert len(set(layers)) == len(layers)

    stage_of = {gpu: pos.stage for gpu, pos in mapping.assignment.items()}
    last_round = dict.fromkeys(range(1, mapping.config.pipeline_stages + 1), -1)
    for i, action in enumerate(rounds):
        for t in action.transfers:
            last_round[stage_of[t.dst]] = i
    started_after: dict[int, int] = {}
    done = -1
    for action in plan.actions:
        if action.kind == "start_stage":
            assert action.stage not in started_after
            started_after[action.stage] = done
        else:
            done += 1
    assert started_after == last_round
    return last_round


def simulate_buffer_usage(plan, old_layout) -> dict[str, float]:
    """Replay a plan's buffer deltas, transfer by transfer; per-instance
    peak bytes over the run."""
    usage: dict[str, float] = {}
    for gpu in old_layout:
        usage.setdefault(gpu[0], 0.0)
    peaks = dict(usage)
    for action in plan.actions:
        for tr in action.transfers:
            inst = tr.dst[0]
            usage[inst] = usage.get(inst, 0.0) + tr.bytes
        for inst in sorted({t.dst[0] for t in action.transfers}):
            peaks[inst] = max(peaks.get(inst, 0.0), usage[inst])
        for inst, b in action.releases:
            usage[inst] = usage.get(inst, 0.0) - b
    return peaks
