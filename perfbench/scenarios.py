"""The benchmark's four workloads, each a :class:`~repro.api.ScenarioSpec`.

A run of a workload is a sequence of independent small *draws* of its
scenario, draw ``i`` seeded ``seed * 1000 + i``.  The first ``sim_draws``
of them always run and their jobs are pooled for the simulated JCTs: one
overloaded queue's mean JCT moves by a fifth from one seed to the next, the
pooled draws' by a few percent.  Host figures pool every draw of the run;
draws are kept short (about a second) because the cost of one draw's
events varies with its jobs by up to a factor of two, and a run of twenty
or more draws averages that out.  Every input is a function of ``--seed``
alone.

Which layer metric should move which end-to-end metric, per workload:

``open_fcfs_backlog``
    FCFS over a Poisson open loop whose backlog grows to ~180 active jobs
    in a draw of 200, so per-call cost that scales with the backlog dominates.
    ``schedulers.*`` -> ``events_per_s``, ``jobs_per_s``,
    ``sched_overhead_ms``; ``context.*`` -> ``events_per_s`` (the engine's
    emptiness test walks every job); ``cluster.advance_s`` ->
    ``events_per_s``; ``workloads.gen_s`` (the lazy stream) ->
    ``jobs_per_s``; ``engine.peak_active_jobs`` -> ``peak_rss_mb``.
    No profiler, async decisions or federation.

``closed_llmsched_mixed``
    The paper's LLMSched on pre-generated mixed jobs with an auto-sized
    cluster and the full profiling settings (150 profile jobs, 100 prior
    samples).  The backlog stays small; Bayesian posterior queries dominate.
    ``profiler.query_s``, ``profiler.queries_per_call`` -> ``events_per_s``,
    ``sched_overhead_ms``; ``prep.profiler_fit_s``, ``workloads.gen_s`` ->
    ``setup_s``.  A change that only helps static-key schedulers should
    leave every figure here unchanged.

``fed_async_fcfs``
    A 4-shard fleet on 16 regular / 8 LLM executors in total, least-loaded
    routing with migration, FCFS behind a fixed 0.5 s decision latency with
    copy-on-write snapshots.  The only workload that routes, migrates,
    snapshots and applies stale decisions.  ``async.request_self_s``,
    ``async.stale_ratio``, ``snapshot.*``, ``federation.*`` and
    ``engine.self_s`` (stale-decision apply) -> ``events_per_s``;
    ``schedulers.*`` as on ``open_fcfs_backlog``, on the async path.

``serving_slo_chat``
    Token-level serving: ``chat`` token mix, interactive/batch SLO tiers,
    the preemptive ``slo_serving`` scheduler and ``prefill_decode``
    placement on 6 regular / 4 LLM executors, batch 8.  The backlog is
    small and the preemptive scheduler runs even on a full cluster.
    ``cluster.advance_s`` (per-token accrual), ``placement.*`` ->
    ``events_per_s`` and ``serving.goodput``; ``schedulers.call_p50_us`` ->
    ``sched_overhead_ms`` (small-backlog dispatch).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro import api
from repro.simulator.cluster import ClusterConfig
from repro.simulator.federation import MigrationConfig
from repro.workloads.arrivals import PoissonProcess


@dataclass(frozen=True)
class Workload:
    name: str
    #: Draws every run makes, however long they take; the simulated JCTs
    #: pool their jobs.
    sim_draws: int
    #: Jobs per draw.
    jobs: int
    #: (draw seed, jobs) -> the scenario of one draw.
    spec: Callable[[int, int], api.ScenarioSpec]

    def draw_seed(self, seed: int, replica: int) -> int:
        return seed * 1000 + replica


def _open_fcfs_backlog(seed: int, jobs: int) -> api.ScenarioSpec:
    return api.ScenarioSpec(
        scheduler=api.SchedulerSection("fcfs"),
        workload=api.WorkloadSection.open_loop(
            PoissonProcess(rate=8.0, seed=seed), seed=seed, max_jobs=jobs,
            name="open_fcfs_backlog",
        ),
        cluster=api.ClusterSection(
            config=ClusterConfig(num_regular_executors=24, num_llm_executors=8, max_batch_size=8)
        ),
    )


def _closed_llmsched_mixed(seed: int, jobs: int) -> api.ScenarioSpec:
    return api.ScenarioSpec(
        scheduler=api.SchedulerSection("llmsched"),
        workload=api.WorkloadSection.closed_loop(
            "mixed", num_jobs=jobs, arrival_rate=1.0, seed=seed
        ),
        settings=api.ExperimentSettings(target_load=0.6, profile_jobs=150, prior_samples=100),
    )


def _fed_async_fcfs(seed: int, jobs: int) -> api.ScenarioSpec:
    return api.ScenarioSpec(
        scheduler=api.SchedulerSection("fcfs"),
        workload=api.WorkloadSection.open_loop(
            PoissonProcess(rate=8.0, seed=seed), seed=seed, max_jobs=jobs,
            name="fed_async_fcfs",
        ),
        cluster=api.ClusterSection(
            config=ClusterConfig(num_regular_executors=16, num_llm_executors=8, max_batch_size=8),
            num_shards=4,
            router="least_loaded",
            migration=MigrationConfig(),
        ),
        async_=api.AsyncSection(kind="fixed", latency=0.5),
        settings=api.ExperimentSettings(snapshot_policy="cow"),
    )


def _serving_slo_chat(seed: int, jobs: int) -> api.ScenarioSpec:
    return api.ScenarioSpec(
        scheduler=api.SchedulerSection("slo_serving"),
        workload=api.WorkloadSection.closed_loop(
            "mixed", num_jobs=jobs, arrival_rate=0.9, seed=seed, token_mix="chat"
        ),
        cluster=api.ClusterSection(
            config=ClusterConfig(num_regular_executors=6, num_llm_executors=4, max_batch_size=8)
        ),
        placement=api.PlacementSection("prefill_decode"),
        slo=api.SLOSection({
            "interactive": {"ttft": 8.0, "tpot": 0.08},
            "batch": {"ttft": 60.0, "tpot": 0.5},
        }),
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("open_fcfs_backlog", sim_draws=12, jobs=200, spec=_open_fcfs_backlog),
        Workload("closed_llmsched_mixed", sim_draws=12, jobs=25, spec=_closed_llmsched_mixed),
        Workload("fed_async_fcfs", sim_draws=10, jobs=400, spec=_fed_async_fcfs),
        Workload("serving_slo_chat", sim_draws=10, jobs=300, spec=_serving_slo_chat),
    )
}
