"""Control-plane algorithms and a trace-driven simulator for serving
generative LLMs on preemptible cloud instances.

The library half is importable piecemeal: domain types and context
accounting (`domain`), the calibrated cost model (`costmodel`), the adaptive
configuration optimizer (`controller`), KM device mapping (`mapping`), the
progressive migration planner (`migration`), and grace-period arrangement
(`arranger`).  The simulator (`simulator`) wires them into a deterministic
discrete-event replay of availability traces under three serving policies.
"""

__version__ = "0.1.0"

from .arranger import (
    Arrangement,
    BatchProgress,
    GraceContext,
    RecoveryAction,
    arrange_acquisition,
    arrange_preemption,
    handle_early_loss,
)
from .controller import (
    candidate_configs,
    choose_config,
    estimate_arrival_rate,
    optimize_config,
    should_reconfigure,
)
from .costmodel import (
    CostSummary,
    PerfProfile,
    PriceSheet,
    exec_latency,
    exec_latency_exact,
    load_profile,
    migration_cost,
    monetary_cost,
    restart_cost,
    save_profile,
    throughput,
)
from .data import bundled_path
from .domain import (
    ContextInventory,
    InstanceState,
    ModelSpec,
    ParallelConfig,
    RequestSpec,
    TopologyPosition,
    overlap_bytes,
    positions,
    required_context,
)
from .mapping import (
    BipartiteGraph,
    DeviceMapping,
    build_graph,
    km_match,
    map_devices,
    retain_cache,
)
from .metrics import MetricsReport, RequestRecord, collect_metrics, percentile
from .migration import (
    MigrationAction,
    MigrationPlan,
    Transfer,
    memopt_layer_order,
    plan_from_dict,
    plan_migration,
    plan_to_dict,
    simulate_buffer_usage,
)
from .simconfig import SimConfig, TraceEvent, WorkloadSpec, load_simconfig, load_trace
from .simulator import Engine, run
from .workload import gamma_arrivals, load_arrivals, save_arrivals
