"""Host time scaled to a reference speed.

On a shared host the same interpreter work runs at speeds that switch on a
scale of seconds to minutes, as other tenants come and go: identical
replays were measured 1.8x apart.  A run that lands in a slow phase would
pass for a regression.

`probe_seconds` times a fixed piece of pure-Python work shaped like the
engine's (heap pushes and pops of small tuples, attribute reads, dict
updates, float arithmetic) that does not call the program.  `SpeedClock`
probes every `every` seconds of host time while it runs, and around each
policy decision, and scales each interval between two probes by
`PROBE_REF_S` over their mean.  So its seconds are those the same work
takes at the speed at which the probe takes `PROBE_REF_S`, the fast phase of
the 2-core machine the bounds were set on.  Probe time itself is left out.
A program that gets faster takes fewer such seconds; a host that gets
slower does not change them.
"""

import heapq
import statistics
import time

PROBE_REF_S = 0.004  # probe seconds in the fast phase of the reference machine
PROBE_LOOPS = 3  # a probe is the median of this many timings of `_work`
EVERY_S = 0.5  # `mark` probes if this many host seconds passed since the last probe
FRESH_S = 0.1  # a span is scaled by a probe at most this old when it starts
LONG_S = 0.005  # and, if it lasts this long, by one taken right after it


class _Item:
    __slots__ = ("t", "k")

    def __init__(self, t: float, k: int):
        self.t = t
        self.k = k


def _work(n: int = 3000) -> float:
    heap, acc, totals = [], 0.0, {}
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1009 * 0.5, i, _Item(i * 0.25, i & 63)))
        if len(heap) > 64:
            t, _, item = heapq.heappop(heap)
            totals[item.k] = totals.get(item.k, 0.0) + t * 1.5 - item.t
            acc += max(t, item.t) / (1 + item.k)
    return acc


def probe_seconds() -> float:
    """Seconds this host takes for the fixed probe work right now."""
    samples = []
    for _ in range(PROBE_LOOPS):
        t0 = time.perf_counter()
        _work()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class SpeedClock:
    """Stopwatch of scaled seconds, probing along the way.

    `start` and `stop` bracket a measured stretch; `mark` inside it takes a
    probe if `every` host seconds have passed since the last one.  `factor`
    is the scale of the latest probe.  `enter` and `leave` bracket a span
    inside the stretch, such as one decision, and scale it on its own: by a
    probe at most FRESH_S before it and, if it lasted LONG_S or more, one
    right after it.
    """

    def __init__(self, every: float = EVERY_S):
        self.every = every
        self.raw = 0.0  # host seconds measured, probes left out
        self.scaled = 0.0
        self._probe = probe_seconds()
        self._since = time.perf_counter()

    @property
    def factor(self) -> float:
        return PROBE_REF_S / self._probe

    def mark(self, age: float | None = None):
        """Probe if `age` (default `every`) seconds passed since the last probe."""
        now = time.perf_counter()
        if now - self._since < (self.every if age is None else age):
            return
        probe = probe_seconds()
        interval = now - self._since
        self.raw += interval
        self.scaled += interval * PROBE_REF_S / ((self._probe + probe) / 2)
        self._probe = probe
        self._since = time.perf_counter()

    def start(self):
        self.mark(0.0)
        self._raw0, self._scaled0 = self.raw, self.scaled

    def stop(self) -> float:
        """Scaled seconds since `start`; `last_raw` gets the host seconds."""
        self.mark(0.0)
        self.last_raw = self.raw - self._raw0
        return self.scaled - self._scaled0

    def enter(self) -> float:
        """Call before a span; pass the result to `leave`."""
        self.mark(FRESH_S)
        return self.factor

    def leave(self, seconds: float, entered: float) -> float:
        """The span's host `seconds`, scaled."""
        self.mark(0.0 if seconds >= LONG_S else None)
        return seconds * (entered + self.factor) / 2


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between probes `before` and `after`, scaled."""
    return seconds * PROBE_REF_S / ((before + after) / 2)
