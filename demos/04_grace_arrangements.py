"""Just-in-time arrangement of decode work inside a grace period.

A preemption notice leaves T- seconds; the arranger maximizes the decode
iterations that still leave room to migrate, falls back to plain rerouting
when migration would cost more than the work it preserves, and for an
acquisition keeps decoding on the old configuration until the new instance's
initialization window is covered.
"""

from spotsim import (
    ParallelConfig,
    bundled_path,
    load_profile,
)
from spotsim.arranger import (
    BatchProgress,
    GraceContext,
    arrange_acquisition,
    arrange_preemption,
)

prof = load_profile(bundled_path("gpt-20b"))
cfg = ParallelConfig(2, 2, 8, 2)
step = prof.decode_seconds(cfg)
print(f"decode step on {cfg}: {step * 1000:.1f} ms")

print("\n=== Preemption: decode as much as fits before migrating ===")
print(f"  {'T- (s)':>7} {'T_mig':>6} {'steps':>6} {'decision':>22}")
for t_rem in (2, 10, 30):
    for t_mig in (3.0, 9.0):
        ctx = GraceContext(kind="preemption", t_remaining=float(t_rem), t_migration=t_mig,
                           batch=BatchProgress(steps_remaining=128), config=cfg)
        arr = arrange_preemption(ctx, prof)
        print(f"  {t_rem:>7} {t_mig:>6.1f} {arr.steps:>6} {arr.action_after:>22}")
print("  (short grace or pricey migration -> plain rerouting, cache dropped)")

print("\n=== Acquisition: cover the boot window, then join and migrate ===")
for t_plus in (0.0, 6.0, 120.0):
    ctx = GraceContext(kind="acquisition", t_remaining=t_plus, t_migration=3.0,
                       batch=BatchProgress(steps_remaining=128), config=cfg)
    arr = arrange_acquisition(ctx, prof)
    print(f"  T+={t_plus:6.1f} s -> run {arr.steps:3d} more steps, then {arr.action_after}")
