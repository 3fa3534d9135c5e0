"""Request arrival generation and arrival-file reading."""

import json
import math
from pathlib import Path

import numpy as np

from .domain import as_real, is_count


class WorkloadError(ValueError):
    pass


# Declared bound on a fixed-rate workload's expected arrivals, rate x duration.
MAX_EXPECTED_ARRIVALS = 10**6


def gamma_params(rate: float, cv: float, duration: float) -> tuple[float, float]:
    """The inter-arrival shape 1/cv^2 and scale cv^2/rate of a gamma process
    on [0, duration).

    WorkloadError unless rate, cv and duration are > 0, the shape and scale
    are finite and > 0 (a cv whose square underflows to 0 or overflows to
    inf has no gamma process in float64), and rate x duration is at most
    MAX_EXPECTED_ARRIVALS.
    """
    if not (rate > 0 and cv > 0 and duration > 0):
        raise WorkloadError("rate, cv and duration must be positive")
    cv2 = cv * cv
    shape, scale = 1.0 / cv2 if cv2 else math.inf, cv2 / rate
    if not (0 < shape < math.inf and 0 < scale < math.inf):
        raise WorkloadError(f"rate {rate!r} and cv {cv!r} give gamma shape 1/cv^2 = {shape!r} "
                            f"and scale cv^2/rate = {scale!r}; both must be finite and > 0")
    if not rate * duration <= MAX_EXPECTED_ARRIVALS:
        raise WorkloadError(f"rate x duration = {rate * duration!r} expected arrivals; "
                            f"at most {MAX_EXPECTED_ARRIVALS} are allowed")
    return shape, scale


def gamma_arrivals(rate: float, cv: float, duration: float, seed: int) -> np.ndarray:
    """Arrival times from i.i.d. gamma inter-arrivals on [0, duration).

    Shape k = 1/cv^2 and mean 1/rate reproduce the requested coefficient of
    variation; cv=1 degenerates to a Poisson process.  Deterministic per seed.

    Gaps are drawn in chunks sized to the expected count.  Each chunk becomes
    a running sum that starts from the last time of the chunk before, and
    is cut at the first time at or past `duration`; a chunk that ends before
    it is followed by the next.  `np.cumsum` adds its terms one at a time in
    array order, so every time is the float64 that `t += gap` for each gap in
    turn gives.  That bit-identity is required: the reports, their golden
    digests and the benchmark's choice of arrival seeds (by count and
    backlog) all read these arrays.
    """
    shape, scale = gamma_params(rate, cv, duration)
    rng = np.random.default_rng(seed)
    chunk = max(64, int(rate * duration * 1.25) + 16)
    parts = []
    t = 0.0
    while True:
        times = rng.gamma(shape, scale, size=chunk)
        times[0] += t
        np.cumsum(times, out=times)
        end = int(np.searchsorted(times, duration))
        parts.append(times[:end])
        if end < chunk:
            return np.concatenate(parts)
        t = times[-1]


def load_arrivals(path: str | Path) -> list[tuple[float, int, int]]:
    """Arrival file: JSON lines of {"t": seconds, "s_in": n, "s_out": n}."""
    out = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
                record = (as_real(doc["t"]), doc["s_in"], doc["s_out"])
                unknown = [k for k in doc if k not in ("t", "s_in", "s_out")]
                if unknown:
                    raise ValueError(f"unknown key {', '.join(map(repr, unknown))}")
                if not (0 <= record[0] < math.inf and is_count(record[1], 1)
                        and is_count(record[2], 1)):
                    raise ValueError("t must be finite and >= 0, and s_in and s_out "
                                     "integers >= 1")
                out.append(record)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
                raise WorkloadError(f"{path}:{lineno}: bad arrival record: {e}") from None
    out.sort(key=lambda r: r[0])
    return out

