"""Request arrival generation and arrival-file reading."""

import json
import math
from pathlib import Path

import numpy as np

from .domain import as_real, is_count


class WorkloadError(ValueError):
    pass


def gamma_arrivals(rate: float, cv: float, duration: float, seed: int) -> np.ndarray:
    """Arrival times from i.i.d. gamma inter-arrivals on [0, duration).

    Shape k = 1/cv^2 and mean 1/rate reproduce the requested coefficient of
    variation; cv=1 degenerates to a Poisson process.  Deterministic per seed.
    """
    if rate <= 0 or cv <= 0 or duration <= 0:
        raise WorkloadError("rate, cv and duration must be positive")
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

