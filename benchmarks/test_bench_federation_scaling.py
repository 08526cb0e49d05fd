"""Federation scaling benchmark: per-shard backlog and event throughput.

The same congested open-loop Poisson stream is pushed through fleets of
1, 2 and 4 shards built from the *identical total hardware* (the total
cluster config is split across shards by ``split_cluster_config``, the
splitter behind the declarative API's federated cluster section), so the
measurement isolates what sharding buys: each shard's scheduling pass sees
only its own active jobs.  A counting FCFS records ``len(context.jobs)`` at
every scheduler invocation, and the gate asserts that the mean at 4 shards
is at most ``MAX_BACKLOG_SHARE_AT_4`` of the 1-shard fleet's.  A fleet
whose router sends every job to one shard fails that gate.

The aggregate events/second curve is still recorded in ``BENCH_3.json``
(with ``scaling_vs_1_shard`` per shard count) but not gated here: it
measured per-event work that grew with the backlog, and once scheduling
decisions were sized to free capacity the 1-shard fleet got several times
faster, so the wall-clock ratio no longer says what sharding buys.

Smoke mode (``BENCH_SCALE=smoke``) shrinks the stream for CI.
"""

import os
import statistics
import time

from bench_output import record_bench_section
from repro.api import (
    ClusterSection,
    ScenarioSpec,
    SchedulerSection,
    WorkloadSection,
    run,
)
from repro.api.prep import split_cluster_config
from repro.schedulers.fcfs import FcfsScheduler
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.federation import (
    FederatedCluster,
    FederatedSimulationEngine,
    HashRouter,
    LeastLoadedRouter,
)
from repro.workloads.arrivals import PoissonProcess

SMOKE = os.environ.get("BENCH_SCALE") == "smoke"
STREAM_JOBS = 300 if SMOKE else 1500
ARRIVAL_RATE = 12.0
MAX_BACKLOG_SHARE_AT_4 = 0.4
SHARD_COUNTS = (1, 2, 4)
OUTPUT_FILE = "BENCH_3.json"

#: Total fleet hardware, split evenly across the shard counts under test.
TOTAL_CLUSTER = ClusterConfig(num_regular_executors=16, num_llm_executors=8, max_batch_size=8)


class BacklogCountingFcfs(FcfsScheduler):
    """FCFS that records how many jobs each invocation's context holds."""

    def __init__(self, seen):
        self._seen = seen

    def schedule(self, context):
        self._seen.append(len(context.jobs))
        return super().schedule(context)


class AllToZero(HashRouter):
    def select_shard(self, shards, job):
        return 0


def run_fleet(num_shards, jobs=STREAM_JOBS, router=None):
    """One fleet cell: (metrics, wall seconds, mean jobs per invocation)."""
    workload = WorkloadSection.open_loop(
        PoissonProcess(rate=ARRIVAL_RATE, seed=11),
        seed=11,
        max_jobs=jobs,
        name="open_loop_poisson",
    )
    fleet = FederatedCluster(
        [
            (f"shard-{i}", Cluster(config))
            for i, config in enumerate(split_cluster_config(TOTAL_CLUSTER, num_shards))
        ],
        router=router or LeastLoadedRouter(),
    )
    seen = []
    engine = FederatedSimulationEngine(
        workload.to_open_loop_spec().jobs(None),
        lambda: BacklogCountingFcfs(seen),
        fleet,
        workload_name="open_loop_poisson",
    )
    started = time.perf_counter()
    metrics = engine.run()
    return metrics, time.perf_counter() - started, statistics.fmean(seen)


def test_bench_federation_shard_scaling():
    results = {}
    for num_shards in SHARD_COUNTS:
        metrics, elapsed, mean_jobs = run_fleet(num_shards)
        assert len(metrics.job_completion_times) == STREAM_JOBS
        results[num_shards] = {
            "events": metrics.num_events,
            "elapsed_sec": elapsed,
            "events_per_sec": metrics.num_events / elapsed,
            "average_jct": metrics.average_jct,
            "makespan": metrics.makespan,
            "mean_jobs_per_invocation": mean_jobs,
        }

    base = results[1]
    print(
        f"\nfederation scaling ({STREAM_JOBS} jobs, Poisson rate {ARRIVAL_RATE}/s, "
        f"{TOTAL_CLUSTER.num_regular_executors}+{TOTAL_CLUSTER.num_llm_executors} "
        "executors total):"
    )
    for num_shards, row in results.items():
        row["scaling_vs_1_shard"] = row["events_per_sec"] / base["events_per_sec"]
        row["backlog_share_vs_1_shard"] = (
            row["mean_jobs_per_invocation"] / base["mean_jobs_per_invocation"]
        )
        print(
            f"  {num_shards} shard(s): {row['mean_jobs_per_invocation']:.1f} jobs per "
            f"invocation ({row['backlog_share_vs_1_shard']:.2f}x), "
            f"{row['events_per_sec']:,.0f} events/s "
            f"({row['elapsed_sec']:.2f}s wall, {row['scaling_vs_1_shard']:.2f}x)"
        )

    share = results[4]["backlog_share_vs_1_shard"]
    record_bench_section(
        "federation_shard_scaling",
        {
            "stream_jobs": STREAM_JOBS,
            "arrival_rate": ARRIVAL_RATE,
            "total_regular_executors": TOTAL_CLUSTER.num_regular_executors,
            "total_llm_executors": TOTAL_CLUSTER.num_llm_executors,
            "router": "least_loaded",
            "by_shard_count": {str(k): v for k, v in results.items()},
            "scaling_at_4_shards": results[4]["scaling_vs_1_shard"],
            "backlog_share_at_4_shards": share,
            "max_backlog_share_at_4_shards": MAX_BACKLOG_SHARE_AT_4,
        },
        filename=OUTPUT_FILE,
    )
    assert share <= MAX_BACKLOG_SHARE_AT_4, (
        f"4-shard schedulers see {share:.2f}x the 1-shard fleet's jobs per "
        f"invocation (allowed: {MAX_BACKLOG_SHARE_AT_4}x)"
    )


def test_backlog_gate_fails_when_router_sends_every_job_to_one_shard():
    """The gate measures sharding, not shard count: a skewed 4-shard fleet
    keeps the whole backlog on one shard and fails it."""
    jobs = 300
    *_, single = run_fleet(1, jobs=jobs)
    *_, skewed = run_fleet(4, jobs=jobs, router=AllToZero())
    assert skewed / single > MAX_BACKLOG_SHARE_AT_4


def test_bench_federated_migration_overhead():
    """Migration keeps a skewed fleet healthy without measurable slowdown.

    A hash-skewed 2-shard fleet (all jobs on one shard) runs once without
    and once with rebalancing; the custom skew router is injected through
    :func:`repro.api.run`'s ``router`` override.  The benchmark records the
    JCT win and the wall-clock cost of the migration machinery.
    """
    from repro.simulator.federation import MigrationConfig

    jobs = 120 if SMOKE else 400

    def run_skewed(migration):
        spec = ScenarioSpec(
            scheduler=SchedulerSection("fcfs"),
            workload=WorkloadSection.open_loop(
                PoissonProcess(rate=4.0, seed=23), seed=23, max_jobs=jobs
            ),
            cluster=ClusterSection(
                config=TOTAL_CLUSTER, num_shards=2, migration=migration
            ),
        )
        result = run(spec, router=AllToZero())
        return result.metrics, result.wall_clock_sec

    skewed, skewed_elapsed = run_skewed(None)
    balanced, balanced_elapsed = run_skewed(
        MigrationConfig(interval=10.0, imbalance_threshold=0.2, max_migrations_per_check=4)
    )
    assert balanced.num_migrations > 0
    assert len(balanced.job_completion_times) == jobs
    jct_win = 1.0 - balanced.average_jct / skewed.average_jct
    print(
        f"\nfederated migration ({jobs} jobs, 2 shards, hash-skewed): "
        f"{balanced.num_migrations} migrations, JCT {skewed.average_jct:.1f}s -> "
        f"{balanced.average_jct:.1f}s ({jct_win:.0%} win), wall "
        f"{skewed_elapsed:.2f}s -> {balanced_elapsed:.2f}s"
    )
    record_bench_section(
        "federated_migration",
        {
            "jobs": jobs,
            "num_migrations": balanced.num_migrations,
            "migrated_work": balanced.migrated_work,
            "skewed_average_jct": skewed.average_jct,
            "balanced_average_jct": balanced.average_jct,
            "jct_reduction": jct_win,
            "skewed_elapsed_sec": skewed_elapsed,
            "balanced_elapsed_sec": balanced_elapsed,
        },
        filename=OUTPUT_FILE,
    )
    # Rebalancing must pay for itself on a pathologically skewed fleet.
    assert balanced.average_jct < skewed.average_jct
